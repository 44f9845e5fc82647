"""Second stage: train the partition net on the composite loss.

Per batch, straight-through cell weights feed the plug-in aggregates
(``bounds.aggregate_cells``) and their min/max bounds
(``bounds.bounds_on_grid``); the training loss is

    L = L_b + lam * L_reg + gamma * L_aux

with L_b the mean bound width over the batch, L_reg the negative
log-likelihood of the batch cell masses and L_aux the cross-entropy of the
auxiliary head against the (stop-gradient) sampled assignments. First-stage
nuisances are frozen throughout; validation (``composite_losses``) and final
bound evaluation use noise-free argmax assignments and the same kernels.
``composite_loss`` is a step's loss in numpy, with a hand-written backward to
the net's two outputs; ``composite_loss_graph`` returns it, with no graph, as
a ``LossRecord`` of the loss value, the two outputs by name and that backward,
which ``autodiff.backward_grad`` runs (see ``autodiff`` for why that module
stays). The warm start differentiates ``cross_entropy`` directly.

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
import operator
from dataclasses import dataclass
from functools import reduce
from typing import Callable

import numpy as np

from . import autodiff as ad
from . import bounds as bnd
from . import naive, nets  # called as naive.kmeans_fit, nets.adam_step: wrappers set on the modules apply
from . import parallel
from .data import DatasetSplit, OutcomeRange, SampleBatch, outcome_range_from_train
from .nets import NonFiniteError, PartitionNet, TrainConfig, TrainLog, sample_gumbel, train_with_early_stopping
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


def _mass_penalty(masses: np.ndarray) -> float:
    """L_reg, -sum log max(mass, MASS_CLAMP) over the cells; a clamp is logged."""
    if float(np.min(masses)) < MASS_CLAMP:
        logger.warning("cell mass clamped at %g during loss evaluation", MASS_CLAMP)
    return -np.sum(np.log(np.maximum(masses, MASS_CLAMP)))


def cross_entropy(logits: np.ndarray, onehot: np.ndarray, g: float = 1.0) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of the rows of ``logits`` against one-hot rows, and
    the gradient of ``g`` times it with respect to ``logits``."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    g_logp = np.full(logp.shape, float(-g) / len(logp)) * onehot
    return float(-np.mean(np.sum(onehot * logp, axis=1))), g_logp - np.exp(logp) * g_logp.sum(axis=1, keepdims=True)


def composite_loss(logits: np.ndarray, aux: np.ndarray, const: BatchConstants, rng_range: OutcomeRange,
                   config: TrainConfig, noise: np.ndarray | None, hard: bool = True):
    """The composite loss of one batch from the partition net's two outputs:
    (total, parts, info, backward), ``backward(g)`` the gradients of
    ``g * total`` in ``logits`` and ``aux``. ``parts['l_b']`` is None when no
    valid (l, m) pair exists: the batch then trains on the regularizers alone.

    The cell weights are ``nets.gumbel_softmax`` of the logits; ``hard`` makes
    them the exact one-hot of the row argmax, with the soft weights' backward
    (straight-through). The backward sums each gradient's contributions in one
    fixed order, held bitwise to an op-by-op reference by the tests: another
    order moves the last bits of every trained partition.
    """
    n, k = logits.shape
    lam, gamma, temperature = float(config.lam), float(config.gamma), float(config.temperature)
    soft = nets.gumbel_softmax(logits, noise, temperature)
    weights = bnd.one_hot(np.argmax(soft, axis=1), k) if hard else soft

    # Mass penalty on the soft weights: straight-through hard masses can hit
    # exactly zero, where the clamped log has no gradient and a collapsed
    # cell would never be repopulated. The soft masses keep the restoring
    # force alive; in soft mode the two coincide.
    c_n = np.full((1, n), 1.0 / n)
    masses = c_n @ soft
    l_reg = _mass_penalty(masses)

    # Stop-gradient labels: the sampled discrete assignment.
    l_aux, g_aux = cross_entropy(aux, bnd.one_hot(np.argmax(weights, axis=1), k), gamma)

    rep = bnd.aggregate_cells(const.x, const.m1, const.m0, const.p, const.eta, const.a, weights)
    info = {"valid_l": rep.valid_l, "valid_m": rep.valid_m, "masses": masses.ravel().copy()}
    pair = None
    if rep.valid_l.any() and rep.valid_m.any():
        if not all(np.isfinite(v).all() for v in (rep.mu1, rep.mu0, rep.pi)):
            raise ad.NonFiniteError(None, "cell aggregate")
        pair = bnd.bounds_on_grid(rep, rng_range)
        l_b = np.mean(pair.width)
        total = l_b + (l_reg * lam + l_aux * gamma)
    else:
        logger.warning("batch has no valid (l, m) pair; bound-width term dropped")
        l_b = None
        total = l_reg * lam + l_aux * gamma

    def backward(g):
        g_log = np.full_like(masses, float(-(g * lam)))
        g_soft = c_n.T @ ((g_log / np.maximum(masses, MASS_CLAMP)) * (masses > MASS_CLAMP))
        if pair is not None:
            g_soft = g_soft + _bound_width_backward(g, const, rng_range, rep, pair)
        g_logits = soft * (g_soft - (g_soft * soft).sum(axis=1, keepdims=True)) / temperature
        return g_logits, g * g_aux

    parts = {"l_b": None if l_b is None else float(l_b), "l_reg": float(l_reg), "l_aux": l_aux}
    return total, parts, info, backward


def _bound_width_backward(g, const: BatchConstants, rng_range: OutcomeRange, rep: bnd.RepresentationNuisance,
                          pair: bnd.BoundPair) -> np.ndarray:
    """Gradient of ``g`` times the mean bound width with respect to the cell
    weights. Column subsets are taken with ``take``, which keeps them, and
    the products below, C-ordered: that fixes the summation order of the
    matmuls."""
    n, k = rep.pi.shape
    vl, vm = np.flatnonzero(rep.valid_l), np.flatnonzero(rep.valid_m)
    s1, s2 = float(rng_range.s1), float(rng_range.s2)

    def scatter(values: np.ndarray, cols: np.ndarray) -> np.ndarray:
        out = np.zeros((len(values), k))
        out[:, cols] = values
        return out

    def picked(cells: np.ndarray, value: np.ndarray, cols: np.ndarray) -> np.ndarray:
        # A row-wise min or max passes its gradient to the cell it chose.
        return np.where(np.arange(k) == cells[:, None], value[:, None], 0.0).take(cols, axis=1)

    # upper = min_l up_l - max_m up_m and lower = max_l lo_l - min_m lo_m, with
    # up_l = pi mu1 + (1 - pi) s2, lo_l = pi mu1 + (1 - pi) s1,
    # up_m = (1 - pi) mu0 + pi s1 and lo_m = (1 - pi) mu0 + pi s2.
    g_width = np.full(n, float(g) / n)
    g_lo_m = picked(pair.lower_pair[:, 1], g_width, vm)
    g_lo_l = picked(pair.lower_pair[:, 0], -g_width, vl)
    g_up_m = picked(pair.upper_pair[:, 1], -g_width, vm)
    g_up_l = picked(pair.upper_pair[:, 0], g_width, vl)
    pi_l, mu1 = rep.pi.take(vl, axis=1), rep.mu1.take(vl, axis=1)
    pi_m, mu0 = rep.pi.take(vm, axis=1), rep.mu0.take(vm, axis=1)
    g_pi_l = -(g_lo_l * s1) + g_lo_l * mu1 + -(g_up_l * s2) + g_up_l * mu1
    g_mu1 = g_lo_l * pi_l + g_up_l * pi_l
    g_pi_m = g_lo_m * s2 + -(g_lo_m * mu0) + g_up_m * s1 + -(g_up_m * mu0)
    g_mu0 = g_lo_m * (1.0 - pi_m) + g_up_m * (1.0 - pi_m)

    def quotient(g_q: np.ndarray, num: np.ndarray, den: np.ndarray, cols: np.ndarray):
        # q = num / den over the columns ``cols``; den was spread over the
        # batch rows, so its gradient sums them (ones_col.T @).
        num, den = num.take(cols, axis=1), den[cols]
        return scatter(np.ones((n, 1)).T @ (-g_q * num / (den * den)), cols), scatter(g_q / den, cols)

    num1, num0, pnum, den1, den0, mass = rep.sums
    g_arm0, g_num0 = quotient(g_mu0, num0, den0, vm)
    g_mass, g_pnum = quotient(g_pi_m, pnum, mass, vm)
    g_arm1, g_num1 = quotient(g_mu1, num1, den1, vl)
    g_mass_l, g_pnum_l = quotient(g_pi_l, pnum, mass, vl)
    # Each sum is factor @ weights: arm0 = (1 - a) @ w, num0 = (m0 (1 - eta)) @ w, ...
    factors = ((1.0 - const.a).reshape(1, n), const.m0 * (1.0 - const.eta)[None, :], const.a.reshape(1, n),
               const.m1 * const.eta[None, :], np.ones((1, n)), const.p)
    sum_grads = (g_arm0, g_num0, g_arm1, g_num1, g_mass + g_mass_l, g_pnum + g_pnum_l)
    return reduce(operator.add, [factor.T @ g_sum for factor, g_sum in zip(factors, sum_grads)])


@dataclass(eq=False)
class LossRecord:
    """A scalar loss ``value``, the arrays it was computed from by name, and ``backward(g)``: the gradients
    of ``g`` times the loss, one per input in order. A non-finite value or input is refused."""

    value: float
    inputs: dict[str, np.ndarray]
    backward: Callable

    def __post_init__(self):
        for name, value in [*self.inputs.items(), (None, self.value)]:
            if not np.isfinite(value).all():
                raise NonFiniteError(name, "value" if name else "loss value")


def composite_loss_graph(net: PartitionNet, const: BatchConstants, rng_range: OutcomeRange,
                         config: TrainConfig, noise: np.ndarray | None, hard: bool = True):
    """``composite_loss`` of the net's outputs: (root, parts, acts, info), the
    root a ``LossRecord`` on the inputs ``logits`` and ``aux``, ``acts`` the
    net's activations for ``PartitionNet.backward``."""
    acts: list[np.ndarray] = []
    logits, aux = net.forward(const.z, acts)
    total, parts, info, backward = composite_loss(logits, aux, const, rng_range, config, noise, hard)
    return LossRecord(total, {"logits": logits, "aux": aux}, backward), parts, acts, info


def composite_loss_and_grad(net: PartitionNet, const: BatchConstants, rng_range: OutcomeRange,
                            config: TrainConfig, noise: np.ndarray | None, hard: bool = True):
    """``composite_loss_graph`` and its total's gradient in each net parameter: (root, parts, grads),
    ``grads`` the net's gradient views."""
    root, parts, acts, _ = composite_loss_graph(net, const, rng_range, config, noise, hard)
    g = ad.backward_grad(root)
    return root, parts, net.backward(acts, g["logits"], g["aux"])


def composite_losses(weights: np.ndarray, aux_logits: np.ndarray, const: BatchConstants,
                     rng_range: OutcomeRange, lam: float, gamma: float) -> tuple[CompositeLossBreakdown, dict]:
    """Numpy evaluation of the three loss terms for given cell weights."""
    masses = weights.mean(axis=0)
    l_reg = float(_mass_penalty(masses))
    l_aux = cross_entropy(aux_logits, bnd.one_hot(np.argmax(weights, axis=1), weights.shape[1]))[0]

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
    net.flat *= INIT_LOGIT_SCALE
    net.params["logits.b"] -= net.logits(split.train.z).mean(axis=0)
    return net


def _warm_start_to_labels(net: PartitionNet, z: np.ndarray, labels: np.ndarray,
                          config: TrainConfig, tag: str, epochs: int = 25) -> None:
    """Pre-train the assignment logits toward candidate cell labels."""
    onehot = bnd.one_hot(labels, net.k)
    state = nets.AdamState.for_net(net)
    rng = stream_rng(config.seed, f"partition-warm-{tag}")
    for _ in range(epochs):
        perm = rng.permutation(len(labels))
        for lo in range(0, len(perm), config.batch_size):
            idx = perm[lo : lo + config.batch_size]
            if len(idx) < 2:
                continue
            acts: list[np.ndarray] = []
            logits = net.forward(z[idx], acts)[0]
            net.backward(acts, cross_entropy(logits, onehot[idx])[1])
            nets.adam_step(net, state, config.learning_rate)


def _quantile_labels(values: np.ndarray, k: int) -> np.ndarray:
    edges = np.quantile(values, np.linspace(0, 1, k + 1)[1:-1])
    return np.digitize(values, edges)


def _candidate_tags(train_eta: np.ndarray, config: TrainConfig) -> list[str]:
    """Restart candidates in restart order: random init plus warm starts to
    cheap partitions. ``train_eta`` is eta on the training instruments.

    The warm starts seed qualitatively different basins (cells of similar
    predicted treatment probability; k-means cells of the raw instrument);
    the composite loss then refines each and validation picks the winner.
    The eta warm start needs k distinct eta values. The k-means one is last,
    so when ``kmeans_fit`` refuses the instruments its task yields no
    candidate and no other restart moves.
    """
    tags = ["random"]
    if config.restarts >= 2 and config.k >= 2:
        if len(np.unique(train_eta)) >= config.k:
            tags.append("eta")
    if config.restarts >= 3 and config.k >= 2:
        tags.append("kmeans")
    return tags[: max(1, config.restarts)]


def _candidate_net(split: DatasetSplit, train_eta: np.ndarray, config: TrainConfig,
                   tag: str) -> PartitionNet | None:
    if tag == "random":
        return _fresh_partition_net(split, config, tag)
    if tag == "eta":
        labels = _quantile_labels(train_eta, config.k)
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


def _train_restart(split: DatasetSplit, config: TrainConfig, rng_range: OutcomeRange,
                   train_const: BatchConstants, val_const: BatchConstants, restart: int,
                   tag: str) -> Stage2Result | None:
    """Build the candidate ``tag`` and train it as restart ``restart``."""
    net = _candidate_net(split, train_const.eta, config, tag)
    if net is None:
        return None
    gumbel_rng = stream_rng(config.seed, f"partition-gumbel-{restart}")
    batch_parts: list[CompositeLossBreakdown] = []
    epoch_rows: list[dict] = []

    def loss_fn(model, batch):
        idx = batch["idx"].astype(int)
        const = train_const.subset(idx)
        noise = sample_gumbel((len(idx), config.k), gumbel_rng)
        root, parts, _ = composite_loss_and_grad(model, const, rng_range, config, noise, hard=True)
        batch_parts.append(CompositeLossBreakdown(l_b=np.nan if parts["l_b"] is None else parts["l_b"],
                                                  l_reg=parts["l_reg"], l_aux=parts["l_aux"],
                                                  lam=config.lam, gamma=config.gamma))
        return float(root.value)

    def val_loss(model):
        total, _, info = validation_loss(model, val_const, rng_range, config)
        means = dict.fromkeys(("l_b", "l_reg", "l_aux", "total"), np.nan)
        if batch_parts:
            with np.errstate(invalid="ignore"):  # every batch may have dropped L_b
                means["l_b"] = float(np.nanmean([p.l_b for p in batch_parts]))
            for term in ("l_reg", "l_aux", "total"):
                means[term] = float(np.mean([getattr(p, term) for p in batch_parts]))
        epoch_rows.append({"epoch": len(epoch_rows), **means, "val_total": total,
                           "min_cell_mass": float(info["masses"].min())})
        batch_parts.clear()
        return total

    log = train_with_early_stopping(
        net, loss_fn, {"idx": np.arange(len(split.train), dtype=np.float64)},
        {"idx": np.arange(len(split.val), dtype=np.float64)}, config, val_loss_fn=val_loss,
        rng=stream_rng(config.seed, f"partition-batches-{restart}"), min_batch_size=max(2, 2 * config.k))
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
    tasks = [(split, config, rng_range, train_const, val_const, restart, tag)
             for restart, tag in enumerate(_candidate_tags(train_const.eta, config))]
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
