"""Second stage: train the partition net on the composite loss.

Per batch, soft (straight-through) cell weights feed the plug-in
aggregates, the pairwise bound matrices and their min/max reduction; the
training loss is

    L = L_b + lam * L_reg + gamma * L_aux

with L_b the mean bound width over the batch, L_reg the negative
log-likelihood of the batch cell masses and L_aux the cross-entropy of the
auxiliary head against the (stop-gradient) sampled assignments. First-stage
nuisances are frozen throughout; validation and final bound evaluation use
noise-free argmax assignments.

``composite_losses`` (validation) and ``evaluate_bounds`` aggregate through
the one numpy kernel, ``bounds.aggregate_cells``, and reduce with
``bounds.bounds_on_grid``; ``composite_loss_graph`` is their differentiable
twin on autodiff nodes, used for the training steps. Its graph, like the
warm start's cross-entropy, starts at the net's head outputs, and
``PartitionNet.backward`` takes their gradients into the net.

``train_partition`` computes the batch constants once, decides the restart
candidates (random init, eta warm start when eta takes at least k distinct
values, k-means warm start) and runs the restarts in parallel through
``parallel.map_tasks``. Each restart task builds its candidate, warm start
included, and trains it; forked workers inherit the constants rather than
copying them. A task draws only from its own named streams
(``partition-init/warm-{tag}``, ``partition-gumbel/batches-{restart}``, and
``kmeans``), and the caller picks the first restart with the smallest
validation loss, so the winner and its bytes do not depend on the process
that trained it or on the worker count. Inside a pool worker (a sweep) the
restarts run serially.
"""

from __future__ import annotations

import csv
import io
import logging
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import bounds as bnd
from . import naive, nets  # called as naive.kmeans_fit, nets.adam_step: wrappers set on the modules apply
from . import parallel
from .data import DatasetSplit, OutcomeRange, SampleBatch, outcome_range_from_train
from .nets import PartitionNet, TrainConfig, TrainLog, sample_gumbel, train_with_early_stopping
from .nuisance import NuisanceSet
from .rng import stream_rng

logger = logging.getLogger(__name__)

MASS_CLAMP = 1e-8


@dataclass
class CompositeLossBreakdown:
    l_b: float
    l_reg: float
    l_aux: float
    lam: float
    gamma: float

    @property
    def total(self) -> float:
        return self.l_b + self.lam * self.l_reg + self.gamma * self.l_aux


@dataclass
class BatchConstants:
    """Frozen nuisance evaluations for one set of samples.

    Queries and aggregation samples are the same batch: m1[i, j] is the
    arm-1 outcome prediction at (x_i, z_j).
    """

    m1: np.ndarray
    m0: np.ndarray
    p: np.ndarray
    eta: np.ndarray
    a: np.ndarray
    z: np.ndarray
    x: np.ndarray

    def subset(self, idx: np.ndarray) -> "BatchConstants":
        grid = np.ix_(idx, idx)
        return BatchConstants(
            m1=self.m1[grid], m0=self.m0[grid], p=self.p[grid],
            eta=self.eta[idx], a=self.a[idx], z=self.z[idx], x=self.x[idx],
        )

    def __len__(self) -> int:
        return len(self.a)


def batch_constants(nuisances: NuisanceSet, batch: SampleBatch) -> BatchConstants:
    m0, m1 = nuisances.mu.predict_pairwise(batch.x, batch.z)
    return BatchConstants(
        m1=m1,
        m0=m0,
        p=nuisances.pi.predict_pairwise(batch.x, batch.z),
        eta=nuisances.eta.predict(batch.z),
        a=batch.a.astype(np.float64),
        z=batch.z,
        x=batch.x,
    )


def _selection(valid: np.ndarray) -> np.ndarray:
    k = len(valid)
    return np.eye(k)[:, valid]


def composite_loss_graph(net: PartitionNet, const: BatchConstants, rng_range: OutcomeRange,
                         config: TrainConfig, noise: np.ndarray | None, hard: bool = True):
    """Differentiable composite loss for one batch.

    Returns (root, parts, acts, info), with ``acts`` the partition net's
    activations for ``PartitionNet.backward``; ``parts['l_b']`` is None when
    no valid (l, m) pair exists, in which case the batch trains on the
    regularizers alone. Cells with an empty arm are dropped from the
    pairwise reduction via constant selection matrices.
    """
    n = len(const)
    weights, aux_logits, acts = net.assignment_graph(const.z, noise, config.temperature, hard)

    # Mass penalty on the soft weights: straight-through hard masses can hit
    # exactly zero, where the clamped log has no gradient and a collapsed
    # cell would never be repopulated. The soft masses keep the restoring
    # force alive; in soft mode the two coincide.
    soft = weights.parents[0] if weights.op == "straight_through" else weights
    masses = ad.matmul(ad.constant(np.full((1, n), 1.0 / n)), soft)
    if float(np.min(masses.value)) < MASS_CLAMP:
        logger.warning("cell mass clamped at %g during loss evaluation", MASS_CLAMP)
    l_reg = ad.neg(ad.reduce_sum(ad.log(ad.clip_min(masses, MASS_CLAMP))))

    # Stop-gradient labels: the sampled discrete assignment, as a constant.
    labels = ad.constant(bnd.one_hot(np.argmax(weights.value, axis=1), net.k))
    l_aux = ad.neg(ad.reduce_mean(ad.reduce_sum(ad.mul(labels, ad.log_softmax(aux_logits)), axis=1)))

    # Per-cell arm and sample counts; their values also give the validity masks.
    arm1 = ad.matmul(ad.constant(const.a.reshape(1, n)), weights)
    arm0 = ad.matmul(ad.constant((1.0 - const.a).reshape(1, n)), weights)
    mass_counts = ad.matmul(ad.constant(np.ones((1, n))), weights)
    valid_l = (arm1.value[0] > 0) & (mass_counts.value[0] > 0)
    valid_m = (arm0.value[0] > 0) & (mass_counts.value[0] > 0)
    info = {"valid_l": valid_l, "valid_m": valid_m, "masses": masses.value.copy().ravel()}
    l_b = None
    if valid_l.any() and valid_m.any():
        ones_col = ad.constant(np.ones((n, 1)))
        s_l = ad.constant(_selection(valid_l))
        s_m = ad.constant(_selection(valid_m))

        num1 = ad.matmul(ad.matmul(ad.constant(const.m1 * const.eta[None, :]), weights), s_l)
        den1 = ad.matmul(ones_col, ad.matmul(arm1, s_l))
        mu1 = ad.div(num1, den1)
        num0 = ad.matmul(ad.matmul(ad.constant(const.m0 * (1.0 - const.eta)[None, :]), weights), s_m)
        den0 = ad.matmul(ones_col, ad.matmul(arm0, s_m))
        mu0 = ad.div(num0, den0)

        pnum = ad.matmul(ad.constant(const.p), weights)
        pi_l = ad.div(ad.matmul(pnum, s_l), ad.matmul(ones_col, ad.matmul(mass_counts, s_l)))
        pi_m = ad.div(ad.matmul(pnum, s_m), ad.matmul(ones_col, ad.matmul(mass_counts, s_m)))

        a_up = ad.add(ad.mul(pi_l, mu1), ad.mul(1.0 - pi_l, rng_range.s2))
        a_lo = ad.add(ad.mul(pi_l, mu1), ad.mul(1.0 - pi_l, rng_range.s1))
        b_up = ad.add(ad.mul(1.0 - pi_m, mu0), ad.mul(pi_m, rng_range.s1))
        b_lo = ad.add(ad.mul(1.0 - pi_m, mu0), ad.mul(pi_m, rng_range.s2))
        upper = ad.sub(ad.reduce_min(a_up, axis=1), ad.reduce_max(b_up, axis=1))
        lower = ad.sub(ad.reduce_max(a_lo, axis=1), ad.reduce_min(b_lo, axis=1))
        l_b = ad.reduce_mean(ad.sub(upper, lower))
    else:
        logger.warning("batch has no valid (l, m) pair; bound-width term dropped")

    root = ad.add(l_reg * config.lam, l_aux * config.gamma) if l_b is None else ad.add(
        l_b, ad.add(l_reg * config.lam, l_aux * config.gamma)
    )
    parts = {"l_b": l_b, "l_reg": l_reg, "l_aux": l_aux}
    return root, parts, acts, info


def composite_loss_and_grad(net: PartitionNet, const: BatchConstants, rng_range: OutcomeRange,
                            config: TrainConfig, noise: np.ndarray | None, hard: bool = True):
    """``composite_loss_graph`` and the gradient of its total for every
    parameter of ``net``: (root, parts, grads)."""
    root, parts, acts, _ = composite_loss_graph(net, const, rng_range, config, noise, hard)
    g = ad.backward_grad(root)
    return root, parts, net.backward(acts, g["logits"], g["aux"])


def composite_losses(weights: np.ndarray, aux_logits: np.ndarray, const: BatchConstants,
                     rng_range: OutcomeRange, lam: float, gamma: float) -> tuple[CompositeLossBreakdown, dict]:
    """Numpy evaluation of the three loss terms for given cell weights."""
    masses = weights.mean(axis=0)
    if masses.min() < MASS_CLAMP:
        logger.warning("cell mass clamped at %g during loss evaluation", MASS_CLAMP)
    l_reg = float(-np.sum(np.log(np.maximum(masses, MASS_CLAMP))))

    labels = np.argmax(weights, axis=1)
    shifted = aux_logits - aux_logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    l_aux = float(-np.mean(logp[np.arange(len(labels)), labels]))

    rep = bnd.aggregate_cells(const.x, const.m1, const.m0, const.p, const.eta, const.a, weights)
    info = {"valid_l": rep.valid_l, "valid_m": rep.valid_m, "masses": masses}
    if rep.valid_l.any() and rep.valid_m.any():
        l_b = float(np.mean(bnd.bounds_on_grid(rep, rng_range).width))
    else:
        l_b = np.inf
    return CompositeLossBreakdown(l_b=l_b, l_reg=l_reg, l_aux=l_aux, lam=lam, gamma=gamma), info


def hard_assignment(net: PartitionNet, z: np.ndarray) -> np.ndarray:
    """One-hot (n, k) cell weights of the noise-free argmax assignment."""
    return bnd.one_hot(net.assign_hard(z), net.k)


def validation_loss(net: PartitionNet, const: BatchConstants, rng_range: OutcomeRange,
                    config: TrainConfig) -> tuple[float, CompositeLossBreakdown, dict]:
    """Composite loss with deterministic hard assignments (no noise)."""
    logits, aux = net.forward(const.z)
    weights = bnd.one_hot(np.argmax(logits, axis=1), net.k)
    breakdown, info = composite_losses(weights, aux, const, rng_range, config.lam, config.gamma)
    return breakdown.total, breakdown, info


INIT_LOGIT_SCALE = 3.0


def _fresh_partition_net(split: DatasetSplit, config: TrainConfig, tag: str) -> PartitionNet:
    """Amplified, train-centered init: confident, balanced initial cells.

    The default tiny init leaves the logit spread far below the Gumbel
    noise scale, so assignments start as pure noise and training cannot
    bootstrap; amplifying and centering the logits on the training
    instruments starts from a crisp, data-dependent partition.
    """
    net = PartitionNet.create(split.train.d, config.k, stream_rng(config.seed, f"partition-init-{tag}"))
    for name in net.params:
        net.params[name] = net.params[name] * INIT_LOGIT_SCALE
    net.params["logits.b"] = net.params["logits.b"] - net.logits(split.train.z).mean(axis=0)
    return net


def _warm_start_to_labels(net: PartitionNet, z: np.ndarray, labels: np.ndarray,
                          config: TrainConfig, tag: str, epochs: int = 25) -> None:
    """Pre-train the assignment logits toward candidate cell labels."""
    onehot = bnd.one_hot(labels, net.k)
    state = nets.AdamState.for_params(net.params)
    rng = stream_rng(config.seed, f"partition-warm-{tag}")
    for _ in range(epochs):
        perm = rng.permutation(len(labels))
        for lo in range(0, len(perm), config.batch_size):
            idx = perm[lo : lo + config.batch_size]
            if len(idx) < 2:
                continue
            acts: list[np.ndarray] = []
            logits = ad.input_node(net.forward(z[idx], acts)[0], name="logits", trainable=True)
            ce = ad.neg(ad.reduce_mean(ad.reduce_sum(ad.mul(ad.constant(onehot[idx]), ad.log_softmax(logits)), axis=1)))
            grads = net.backward(acts, ad.backward_grad(ce)["logits"])
            nets.adam_step(net.params, grads, state, config.learning_rate)


def _quantile_labels(values: np.ndarray, k: int) -> np.ndarray:
    edges = np.quantile(values, np.linspace(0, 1, k + 1)[1:-1])
    return np.digitize(values, edges)


def _candidate_tags(split: DatasetSplit, nuisances: NuisanceSet, config: TrainConfig) -> list[str]:
    """Restart candidates in restart order: random init plus warm starts to
    cheap partitions.

    The warm starts seed qualitatively different basins (cells of similar
    predicted treatment probability; k-means cells of the raw instrument);
    the composite loss then refines each and validation picks the winner.
    The eta warm start needs k distinct eta values. The k-means one is last,
    so when ``kmeans_fit`` refuses the instruments its task yields no
    candidate and no other restart moves.
    """
    tags = ["random"]
    if config.restarts >= 2 and config.k >= 2:
        if len(np.unique(nuisances.eta.predict(split.train.z))) >= config.k:
            tags.append("eta")
    if config.restarts >= 3 and config.k >= 2:
        tags.append("kmeans")
    return tags[: max(1, config.restarts)]


def _candidate_net(split: DatasetSplit, nuisances: NuisanceSet, config: TrainConfig,
                   tag: str) -> PartitionNet | None:
    if tag == "random":
        return _fresh_partition_net(split, config, tag)
    if tag == "eta":
        labels = _quantile_labels(nuisances.eta.predict(split.train.z), config.k)
    else:
        try:
            km = naive.kmeans_fit(split.train.z, config.k, config.seed, n_restarts=3)
        except ValueError:
            return None
        labels = km.assign(split.train.z)
    net = _fresh_partition_net(split, config, tag)
    _warm_start_to_labels(net, split.train.z, labels, config, tag)
    return net


@dataclass
class Stage2Result:
    net: PartitionNet
    epoch_rows: list[dict]
    log: TrainLog
    restart: int
    val_total: float


def _train_restart(split: DatasetSplit, nuisances: NuisanceSet, config: TrainConfig, rng_range: OutcomeRange,
                   train_const: BatchConstants, val_const: BatchConstants, restart: int,
                   tag: str) -> Stage2Result | None:
    """Build the candidate ``tag`` and train it as restart ``restart``."""
    net = _candidate_net(split, nuisances, config, tag)
    if net is None:
        return None
    gumbel_rng = stream_rng(config.seed, f"partition-gumbel-{restart}")
    batch_parts: list[CompositeLossBreakdown] = []
    epoch_rows: list[dict] = []

    def loss_fn(model, batch):
        idx = batch["idx"].astype(int)
        const = train_const.subset(idx)
        noise = sample_gumbel((len(idx), config.k), gumbel_rng)
        root, parts, grads = composite_loss_and_grad(model, const, rng_range, config, noise, hard=True)
        batch_parts.append(
            CompositeLossBreakdown(
                l_b=float(parts["l_b"].value) if parts["l_b"] is not None else np.nan,
                l_reg=float(parts["l_reg"].value),
                l_aux=float(parts["l_aux"].value),
                lam=config.lam,
                gamma=config.gamma,
            )
        )
        return float(root.value), grads

    def val_loss(model):
        total, breakdown, info = validation_loss(model, val_const, rng_range, config)
        with np.errstate(invalid="ignore"):
            epoch_rows.append(
                {
                    "epoch": len(epoch_rows),
                    "l_b": float(np.nanmean([p.l_b for p in batch_parts])) if batch_parts else np.nan,
                    "l_reg": float(np.mean([p.l_reg for p in batch_parts])) if batch_parts else np.nan,
                    "l_aux": float(np.mean([p.l_aux for p in batch_parts])) if batch_parts else np.nan,
                    "total": float(np.mean([p.total for p in batch_parts])) if batch_parts else np.nan,
                    "val_total": total,
                    "min_cell_mass": float(info["masses"].min()),
                }
            )
        batch_parts.clear()
        return total

    log = train_with_early_stopping(
        net,
        loss_fn,
        {"idx": np.arange(len(split.train), dtype=np.float64)},
        {"idx": np.arange(len(split.val), dtype=np.float64)},
        config,
        val_loss_fn=val_loss,
        rng=stream_rng(config.seed, f"partition-batches-{restart}"),
        min_batch_size=max(2, 2 * config.k),
    )
    final_val, _, _ = validation_loss(net, val_const, rng_range, config)
    return Stage2Result(net=net, epoch_rows=epoch_rows, log=log, restart=restart, val_total=final_val)


def train_partition(split: DatasetSplit, nuisances: NuisanceSet, config: TrainConfig,
                    rng_range: OutcomeRange | None = None):
    """Algorithm body: per batch, assignments -> aggregates -> bounds -> loss
    -> gradient step; restarts from candidate inits, winner by hard-mode
    validation loss.

    Returns (net, epoch_rows, result). ``epoch_rows`` is the per-epoch log
    of the winning restart: mean train loss parts, hard-mode validation
    total, min validation cell mass.
    """
    if not nuisances.frozen:
        raise ValueError("first-stage nuisances must be frozen before the second stage")
    rng_range = rng_range or outcome_range_from_train(split.train)
    train_const = batch_constants(nuisances, split.train)
    val_const = batch_constants(nuisances, split.val)
    tasks = [(split, nuisances, config, rng_range, train_const, val_const, restart, tag)
             for restart, tag in enumerate(_candidate_tags(split, nuisances, config))]
    results = [r for r in parallel.map_tasks(_train_restart, tasks) if r is not None]
    best = min(results, key=lambda r: r.val_total)
    return best.net, best.epoch_rows, best


def evaluate_bounds(net: PartitionNet, nuisances: NuisanceSet, split: DatasetSplit,
                    rng_range: OutcomeRange) -> tuple[bnd.BoundPair, dict]:
    """Final bounds at the test split's query points: hard assignments.

    The plug-in sums run over the whole observational sample (train, val
    and test, in that order), as the estimator is defined over it.
    """
    parts = (split.train, split.val, split.test)
    agg_z = np.concatenate([b.z for b in parts])
    agg_a = np.concatenate([b.a for b in parts])
    weights = hard_assignment(net, agg_z)
    rep = bnd.representation_from_estimates(nuisances, weights, agg_z, agg_a, split.test.x)
    pair = bnd.bounds_on_grid(rep, rng_range)
    masses = weights.mean(axis=0)
    diag = {
        "cell_masses": masses,
        "min_cell_mass": float(masses.min()),
        "valid_l": rep.valid_l,
        "valid_m": rep.valid_m,
    }
    return pair, diag


TRAIN_LOG_COLUMNS = ["epoch", "l_b", "l_reg", "l_aux", "total", "val_total", "min_cell_mass"]


def write_train_log_csv(rows: list[dict], path) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TRAIN_LOG_COLUMNS)
    for row in rows:
        writer.writerow([row["epoch"]] + [format(float(row[c]), ".17g") for c in TRAIN_LOG_COLUMNS[1:]])
    with open(path, "w", newline="") as fh:
        fh.write(buf.getvalue())
