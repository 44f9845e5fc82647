"""Seeded synthetic data generators with oracle access to the DGP.

Three settings share the confounders X, U ~ Uniform[-1, 1] and the outcome
model Y = (X + 0.5 U + 0.1 Laplace(0,1)) * 0.25 + tau(X) * A:

* dataset 1: scalar instrument from a symmetric mixture, simple propensity
  driven by |Z| through a logistic score squeezed into [0.05, 0.95];
* dataset 2: same instrument and CATE, oscillatory propensity
  sin(2.5 Z + X + U) * 0.48 + 0.48 + 0.04 / (1 + exp(-3|Z|));
* dataset 3: 20 i.i.d. Bernoulli(1/2) components, of which only the first
  five act on treatment through the latent score rho = z_1 + ... + z_5.

Each sample carries the hidden fields (u, tau_true, pi_true, rho) used only
for evaluation.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from math import comb

import numpy as np

from . import InputError
from .rng import stream_rng


@dataclass
class SampleBatch:
    """Column-wise sample storage; z is always 2-D (n, d)."""

    z: np.ndarray
    x: np.ndarray
    a: np.ndarray
    y: np.ndarray
    u: np.ndarray
    tau_true: np.ndarray
    pi_true: np.ndarray
    rho: np.ndarray | None = None

    def __post_init__(self):
        if self.z.ndim != 2:
            raise ValueError("z must be 2-D (n, d)")
        n = self.z.shape[0]
        for name in ("x", "a", "y", "u", "tau_true", "pi_true"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"column {name} has wrong length")
        if self.rho is not None and len(self.rho) != n:
            raise ValueError("column rho has wrong length")

    def __len__(self) -> int:
        return self.z.shape[0]

    @property
    def d(self) -> int:
        return self.z.shape[1]

    def subset(self, idx: np.ndarray) -> "SampleBatch":
        return SampleBatch(
            z=self.z[idx],
            x=self.x[idx],
            a=self.a[idx],
            y=self.y[idx],
            u=self.u[idx],
            tau_true=self.tau_true[idx],
            pi_true=self.pi_true[idx],
            rho=None if self.rho is None else self.rho[idx],
        )


@dataclass
class DatasetSplit:
    train: SampleBatch
    val: SampleBatch
    test: SampleBatch
    seed: int


@dataclass(frozen=True)
class OutcomeRange:
    s1: float
    s2: float

    def __post_init__(self):
        if not self.s1 < self.s2:
            raise ValueError(f"need s1 < s2, got ({self.s1}, {self.s2})")

    @property
    def width(self) -> float:
        return self.s2 - self.s1


# ------------------------------------------------------------ DGP truth

# Supremum of the dataset 1/2 instrument support; the dataset-1 score uses
# 2|z| - max(Z) with max over the support, keeping samples i.i.d.
Z_SUPPORT_MAX = 1.0


def sigmoid(v):
    v = np.asarray(v, dtype=np.float64)
    return np.where(v >= 0, 1.0 / (1.0 + np.exp(-v)), np.exp(v) / (1.0 + np.exp(v)))


def tau_dataset12(x):
    x = np.asarray(x, dtype=np.float64)
    return -((2.5 * x) ** 4 + 12.0 * np.sin(6.0 * x) + 0.5 * np.cos(x)) / 80.0 + 0.5


def tau_dataset3(x):
    x = np.asarray(x, dtype=np.float64)
    return -(-((1.6 * x + 0.5) ** 4) + 12.0 * np.sin(4.0 * x + 1.5) + np.cos(x)) / 80.0 + 0.5


def propensity_dataset1(z, x, u):
    score = sigmoid((2.0 * np.abs(z) - Z_SUPPORT_MAX) + x + 0.5 * u)
    return (score - 0.5) * 0.9 + 0.5


def propensity_dataset2(z, x, u):
    return np.sin(2.5 * z + x + u) * 0.48 + 0.48 + 0.04 / (1.0 + np.exp(-3.0 * np.abs(z)))


def propensity_dataset3(rho, x, u):
    rho = np.asarray(rho, dtype=np.float64)
    return 0.48 * np.sin(10.0 * rho + x + u) + 0.48 + 0.04 / (1.0 + np.exp(-3.0 * np.abs(5.0 * rho)))


def z_mixture_density(z):
    """Density of the dataset 1/2 instrument on [-1, 1].

    Half uniform plus quarter Beta(2,2) on each sign: 0.25 + 1.5|z|(1-|z|).
    """
    z = np.asarray(z, dtype=np.float64)
    inside = (z >= -1.0) & (z <= 1.0)
    return np.where(inside, 0.25 + 1.5 * np.abs(z) * (1.0 - np.abs(z)), 0.0)


def uniform_sum_density(s, alpha: float, beta: float):
    """Density of alpha*X + beta*U for independent X, U ~ Uniform[-1, 1]."""
    alpha, beta = abs(alpha), abs(beta)
    if beta > alpha:
        alpha, beta = beta, alpha
    s = np.abs(np.asarray(s, dtype=np.float64))
    flat = 1.0 / (2.0 * alpha)
    slope = (alpha + beta - s) / (4.0 * alpha * beta)
    return np.where(s <= alpha - beta, flat, np.where(s <= alpha + beta, slope, 0.0))


def rho_level_probs() -> np.ndarray:
    """P(rho = r) for r = 0..5 under dataset 3 (Binomial(5, 1/2))."""
    return np.array([comb(5, r) / 32.0 for r in range(6)])


# ------------------------------------------------------------ generators


def _common_confounders(n: int, seed: int):
    x = stream_rng(seed, "x").uniform(-1.0, 1.0, n)
    u = stream_rng(seed, "u").uniform(-1.0, 1.0, n)
    return x, u


def _outcome(x, u, tau, a, seed: int):
    noise = stream_rng(seed, "noise").laplace(0.0, 1.0, len(x))
    return (x + 0.5 * u + 0.1 * noise) * 0.25 + tau * a


def _treatments(pi, seed: int):
    return (stream_rng(seed, "treat").random(len(pi)) < pi).astype(np.int64)


def _mixture_instrument(n: int, seed: int) -> np.ndarray:
    rng = stream_rng(seed, "z")
    c = rng.random(n)
    unif = rng.uniform(-1.0, 1.0, n)
    beta = rng.beta(2.0, 2.0, n)
    return np.where(c < 0.5, unif, np.where(c < 0.75, beta, -beta))


def generate_dataset1(n: int, seed: int) -> SampleBatch:
    if n < 1:
        raise InputError("n must be >= 1")
    x, u = _common_confounders(n, seed)
    z = _mixture_instrument(n, seed)
    pi = propensity_dataset1(z, x, u)
    a = _treatments(pi, seed)
    tau = tau_dataset12(x)
    y = _outcome(x, u, tau, a, seed)
    return SampleBatch(z=z[:, None], x=x, a=a, y=y, u=u, tau_true=tau, pi_true=pi)


def generate_dataset2(n: int, seed: int) -> SampleBatch:
    if n < 1:
        raise InputError("n must be >= 1")
    x, u = _common_confounders(n, seed)
    z = _mixture_instrument(n, seed)
    pi = propensity_dataset2(z, x, u)
    a = _treatments(pi, seed)
    tau = tau_dataset12(x)
    y = _outcome(x, u, tau, a, seed)
    return SampleBatch(z=z[:, None], x=x, a=a, y=y, u=u, tau_true=tau, pi_true=pi)


def generate_dataset3(n: int, seed: int, d: int = 20) -> SampleBatch:
    if n < 1:
        raise InputError("n must be >= 1")
    x, u = _common_confounders(n, seed)
    z = (stream_rng(seed, "z").random((n, d)) < 0.5).astype(np.float64)
    rho = z[:, :5].sum(axis=1).astype(np.int64)
    pi = propensity_dataset3(rho, x, u)
    a = _treatments(pi, seed)
    tau = tau_dataset3(x)
    y = _outcome(x, u, tau, a, seed)
    return SampleBatch(z=z, x=x, a=a, y=y, u=u, tau_true=tau, pi_true=pi, rho=rho)


def generate_dataset(dataset: int, n: int, seed: int) -> SampleBatch:
    if dataset == 1:
        return generate_dataset1(n, seed)
    if dataset == 2:
        return generate_dataset2(n, seed)
    if dataset == 3:
        return generate_dataset3(n, seed)
    raise InputError(f"unknown dataset id {dataset}")


def split_dataset(samples: SampleBatch, seed: int) -> DatasetSplit:
    """Shuffle and partition into 40% train / 20% val / 40% test."""
    n = len(samples)
    if n < 5:
        raise InputError("need at least 5 samples to split")
    perm = stream_rng(seed, "split").permutation(n)
    n_train = int(round(0.4 * n))
    n_val = int(round(0.2 * n))
    return DatasetSplit(
        train=samples.subset(perm[:n_train]),
        val=samples.subset(perm[n_train : n_train + n_val]),
        test=samples.subset(perm[n_train + n_val :]),
        seed=seed,
    )


def outcome_range_from_train(train: SampleBatch) -> OutcomeRange:
    if len(train) == 0:
        raise ValueError("empty training split")
    return OutcomeRange(s1=float(train.y.min()), s2=float(train.y.max()))


# ------------------------------------------------------------ csv i/o


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def write_csv(batch: SampleBatch, path) -> None:
    """Header z_0..z_{d-1},x,a,y,tau_true,pi_true,u[,rho]; 17 significant digits."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = [f"z_{j}" for j in range(batch.d)] + ["x", "a", "y", "tau_true", "pi_true", "u"]
    if batch.rho is not None:
        header.append("rho")
    writer.writerow(header)
    for i in range(len(batch)):
        row = [_fmt(v) for v in batch.z[i]]
        row += [_fmt(batch.x[i]), str(int(batch.a[i])), _fmt(batch.y[i])]
        row += [_fmt(batch.tau_true[i]), _fmt(batch.pi_true[i]), _fmt(batch.u[i])]
        if batch.rho is not None:
            row.append(str(int(batch.rho[i])))
        writer.writerow(row)
    with open(path, "w", newline="") as fh:
        fh.write(buf.getvalue())


def read_csv(path) -> SampleBatch:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    d = sum(1 for name in header if name.startswith("z_"))
    has_rho = "rho" in header
    col = {name: i for i, name in enumerate(header)}
    n = len(rows)
    z = np.empty((n, d))
    arrays = {name: np.empty(n) for name in ("x", "y", "tau_true", "pi_true", "u")}
    a = np.empty(n, dtype=np.int64)
    rho = np.empty(n, dtype=np.int64) if has_rho else None
    for i, row in enumerate(rows):
        for j in range(d):
            z[i, j] = float(row[col[f"z_{j}"]])
        for name in arrays:
            arrays[name][i] = float(row[col[name]])
        a[i] = int(row[col["a"]])
        if has_rho:
            rho[i] = int(row[col["rho"]])
    return SampleBatch(z=z, x=arrays["x"], a=a, y=arrays["y"], u=arrays["u"],
                       tau_true=arrays["tau_true"], pi_true=arrays["pi_true"], rho=rho)
