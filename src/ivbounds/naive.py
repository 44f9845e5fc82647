"""Naive comparator: k-means on raw instruments, then discrete bounds.

The baseline discretizes the instrument space by clustering alone (no
outcome signal), refits the nuisance nets on one-hot cluster labels with
the same architectures as the main method, and applies the
discrete-instrument bounds over the k labels. ``naive_bounds`` reads each
refit net in one ``predict``, on the k one-hot labels tiled over the queries.

``fit_naive`` clusters in the calling process, then fits the outcome and
propensity nets in parallel through ``parallel.map_tasks`` (serially inside
a pool worker, such as a sweep's). Each fit draws only from its own named
streams (``naive-{net}-init``/``naive-{net}-batches``), so the nets are the
same bytes whichever process trains them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bounds as bnd
from . import InputError, parallel
from .data import DatasetSplit, OutcomeRange, SampleBatch
from .nets import OUTCOME_SPEC, PROPENSITY_SPEC, TrainConfig, TwoBranchNet, train_with_early_stopping
from .rng import stream_rng


@dataclass
class KMeansModel:
    centroids: np.ndarray  # (k, d)
    inertia: float
    history: list[float]

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    def assign(self, z: np.ndarray) -> np.ndarray:
        """Nearest centroid; ties resolve to the smallest index."""
        return np.argmin(_sq_distances(_instruments(z), self.centroids), axis=1)


def _instruments(z: np.ndarray) -> np.ndarray:
    """Instruments as an (n, d) float array; 1-D input is n scalar instruments."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim == 1:
        z = z[:, None]
    if z.ndim != 2:
        raise ValueError(f"z must be (n,) or (n, d), got shape {z.shape}")
    return z


def _sq_distances(z: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(n, k) squared Euclidean distances of the rows of z to the centroids."""
    return ((z[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)


def _inertia(z: np.ndarray, centroids: np.ndarray, labels: np.ndarray) -> float:
    return float(((z - centroids[labels]) ** 2).sum())


def _plusplus_seed(z: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = z.shape[0]
    centroids = [z[rng.integers(n)]]
    for _ in range(1, k):
        d2 = np.min(_sq_distances(z, np.array(centroids)), axis=1)
        total = d2.sum()
        if total <= 0:
            centroids.append(z[rng.integers(n)])
            continue
        centroids.append(z[rng.choice(n, p=d2 / total)])
    return np.array(centroids)


def kmeans_fit(z: np.ndarray, k: int, seed: int, n_restarts: int = 10,
               tol: float = 1e-6, max_iter: int = 300) -> KMeansModel:
    """Lloyd's iterations from k-means++ seeding, best of ``n_restarts``."""
    z = _instruments(z)
    distinct = np.unique(z, axis=0)
    if len(distinct) < k:
        raise InputError(f"need at least {k} distinct instrument values, found {len(distinct)}")
    rng = stream_rng(seed, "kmeans")
    best: KMeansModel | None = None
    for _ in range(n_restarts):
        centroids = _plusplus_seed(z, k, rng)
        history: list[float] = []
        for _ in range(max_iter):
            d2 = _sq_distances(z, centroids)
            labels = np.argmin(d2, axis=1)
            history.append(_inertia(z, centroids, labels))
            new_centroids = centroids.copy()
            for j in range(k):
                members = labels == j
                if members.any():
                    new_centroids[j] = z[members].mean(axis=0)
                else:
                    # Re-seed an empty cluster at the worst-fit point.
                    new_centroids[j] = z[np.argmax(d2[np.arange(len(z)), labels])]
            movement = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1).max()))
            centroids = new_centroids
            if movement < tol:
                break
        labels = np.argmin(_sq_distances(z, centroids), axis=1)
        history.append(_inertia(z, centroids, labels))
        model = KMeansModel(centroids=centroids, inertia=history[-1], history=history)
        if best is None or model.inertia < best.inertia:
            best = model
    return best


@dataclass
class NaiveFit:
    kmeans: KMeansModel
    mu: TwoBranchNet
    pi: TwoBranchNet


def _fit_net(spec, k: int, name: str, train: dict, val: dict, config: TrainConfig) -> TwoBranchNet:
    net = TwoBranchNet.create(1, k, stream_rng(config.seed, f"naive-{name}-init"), spec)
    train_with_early_stopping(net, lambda m, b: m.loss_and_grad(b)[0], train, val, config,
                              rng=stream_rng(config.seed, f"naive-{name}-batches"))
    return net


def fit_naive(split: DatasetSplit, k: int, config: TrainConfig) -> NaiveFit:
    """Cluster train instruments; refit outcome/propensity on one-hot labels."""
    km = kmeans_fit(split.train.z, k, config.seed)
    present = set(np.unique(split.train.a))
    if present != {0, 1}:
        raise InputError("both treatment arms required in training data")

    def arrays(batch: SampleBatch) -> dict[str, np.ndarray]:
        return {
            "x": batch.x,
            "z": bnd.one_hot(km.assign(batch.z), k),
            "a": batch.a.astype(np.float64),
            "y": batch.y,
        }

    train, val = arrays(split.train), arrays(split.val)
    mu, pi = parallel.map_tasks(_fit_net, [(OUTCOME_SPEC, k, "mu", train, val, config),
                                           (PROPENSITY_SPEC, k, "pi", train, val, config)])
    return NaiveFit(kmeans=km, mu=mu, pi=pi)


def naive_bounds(fit: NaiveFit, batch: SampleBatch, rng_range: OutcomeRange) -> tuple[bnd.BoundPair, dict]:
    """Discrete-instrument bounds over the k cluster labels at each query."""
    k, nq = fit.kmeans.k, len(batch)
    # One (nq, k) slice per label, each run through BLAS as that label's own predict
    # call would be, so the bounds keep its bits (``predict_pairwise`` blocks would not).
    labels = np.repeat(np.eye(k)[:, None, :], nq, axis=1)
    preds = fit.mu.predict(batch.x, labels)
    pi = fit.pi.predict(batch.x, labels)
    pair = bnd.discrete_bounds_on_grid(batch.x, pi.T, preds[..., 1].T, preds[..., 0].T, rng_range)
    masses = np.bincount(fit.kmeans.assign(batch.z), minlength=k) / nq
    return pair, {"cell_masses": masses, "min_cell_mass": float(masses.min())}

