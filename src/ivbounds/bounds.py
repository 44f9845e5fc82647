"""Closed-form bound mathematics for discretized instruments.

Given per-cell nuisances pi_phi(x, l) and mu_phi^a(x, l) and an outcome
range [s1, s2], the CATE at x is bracketed by min/max over ordered cell
pairs (l, m) of

    b+_{l,m} = pi_l mu1_l + (1 - pi_l) s2 - (1 - pi_m) mu0_m - pi_m s1
    b-_{l,m} = pi_l mu1_l + (1 - pi_l) s1 - (1 - pi_m) mu0_m - pi_m s2

Cells come either from a learned partition or from a finite instrument
alphabet. For a learned partition, ``aggregate_cells`` is the one numpy
kernel for the plug-in aggregates (soft or hard weights, empty cell-arms
masked), and ``bounds_on_grid`` is the one min/max reduction; the k x k
``pairwise_bound_matrix``/``tightest_bounds`` pair is the readable
reference it is checked against. A quadrature/enumeration oracle evaluates
the same quantities in population for the synthetic generators.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from . import data as dgp
from .data import OutcomeRange
from .parallel import PicklableFields


# Query points per block of ``dataset3_level_nuisances``: each (16, n_u)
# float64 temporary is 256 kB at the n_u = 2,001 that runs use.
ORACLE_BLOCK_ROWS = 16


class EmptyCellError(PicklableFields, ValueError):
    """A requested cell (or cell-arm combination) has no mass."""

    def __init__(self, cell: int, arm: int | None = None):
        self.cell = cell
        self.arm = arm
        what = f"cell {cell}" if arm is None else f"cell {cell}, arm {arm}"
        super().__init__(f"empty {what}: aggregate undefined (cell occupancy regularization should prevent this)")


class QuadratureError(RuntimeError):
    """Population integrals failed the grid-doubling convergence check."""


@dataclass
class PartitionAssignment:
    """Per-sample cell weights; rows live on the k-simplex."""

    weights: np.ndarray  # (n, k)
    mode: str  # "hard" or "soft"

    def __post_init__(self):
        if self.weights.ndim != 2:
            raise ValueError("weights must be 2-D (n, k)")
        if self.mode not in ("hard", "soft"):
            raise ValueError(f"unknown mode {self.mode!r}")
        row_sums = self.weights.sum(axis=1)
        if np.any(np.abs(row_sums - 1.0) > 1e-9) or np.any(self.weights < 0):
            raise ValueError("rows must lie on the simplex (sum to 1 within 1e-9)")
        if self.mode == "hard" and not np.all((self.weights == 0.0) | (self.weights == 1.0)):
            raise ValueError("hard mode requires exact one-hot rows")

    @classmethod
    def from_labels(cls, labels: np.ndarray, k: int) -> "PartitionAssignment":
        w = np.zeros((len(labels), k))
        w[np.arange(len(labels)), labels] = 1.0
        return cls(weights=w, mode="hard")

    @property
    def k(self) -> int:
        return self.weights.shape[1]

    @property
    def cell_masses(self) -> np.ndarray:
        return self.weights.mean(axis=0)


@dataclass
class RepresentationNuisance:
    """Per-cell nuisances evaluated on a query grid, with validity masks.

    ``valid_l`` marks cells usable on the l side (arm-1 aggregate defined),
    ``valid_m`` on the m side (arm-0 aggregate defined); cells with zero
    mass are invalid on both sides.
    """

    x: np.ndarray  # (nq,)
    pi: np.ndarray  # (nq, k)
    mu1: np.ndarray  # (nq, k)
    mu0: np.ndarray  # (nq, k)
    valid_l: np.ndarray  # (k,) bool
    valid_m: np.ndarray  # (k,) bool


@dataclass
class BoundPair:
    """Lower/upper CATE bounds on a query grid with selected cell pairs.

    ``upper_pair`` is the (l, m) attaining the min for the upper bound,
    ``lower_pair`` the (l, m) attaining the max for the lower bound.
    Crossings (lower > upper) are flagged, never clamped.
    """

    x: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    upper_pair: np.ndarray  # (nq, 2) int
    lower_pair: np.ndarray  # (nq, 2) int

    @property
    def width(self) -> np.ndarray:
        return self.upper - self.lower

    @property
    def crossing_mask(self) -> np.ndarray:
        return self.lower > self.upper

    def to_csv(self, path) -> None:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["x", "lower", "upper", "argmin_l", "argmin_m", "argmax_l", "argmax_m"])
        for i in range(len(self.x)):
            writer.writerow(
                [
                    format(float(self.x[i]), ".17g"),
                    format(float(self.lower[i]), ".17g"),
                    format(float(self.upper[i]), ".17g"),
                    int(self.upper_pair[i, 0]),
                    int(self.upper_pair[i, 1]),
                    int(self.lower_pair[i, 0]),
                    int(self.lower_pair[i, 1]),
                ]
            )
        with open(path, "w", newline="") as fh:
            fh.write(buf.getvalue())

    @classmethod
    def from_csv(cls, path) -> "BoundPair":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            rows = list(reader)
        arr = np.array([[float(v) for v in row] for row in rows])
        return cls(
            x=arr[:, 0],
            lower=arr[:, 1],
            upper=arr[:, 2],
            upper_pair=arr[:, 3:5].astype(int),
            lower_pair=arr[:, 5:7].astype(int),
        )


# --------------------------------------------------------- aggregation


def aggregate_cells(xq: np.ndarray, m1: np.ndarray, m0: np.ndarray, p: np.ndarray, eta: np.ndarray,
                    a: np.ndarray, weights: np.ndarray) -> RepresentationNuisance:
    """Plug-in per-cell aggregates on a query grid: the one numpy kernel.

    ``m1[i, j]``, ``m0[i, j]`` and ``p[i, j]`` are the arm-1 outcome, arm-0
    outcome and propensity predictions at (xq_i, z_j); ``eta[j]``, ``a[j]``
    and the row ``weights[j]`` (soft or hard, on the k-simplex) belong to
    aggregation sample j. For cell l,

        mu1_l = sum_j m1[., j] eta_j w_jl / sum_j w_jl 1{a_j = 1}
        mu0_l = sum_j m0[., j] (1 - eta_j) w_jl / sum_j w_jl 1{a_j = 0}
        pi_l  = sum_j p[., j] w_jl / sum_j w_jl

    The arm indicator stays hard even for soft weights. A cell with no
    arm-1 (arm-0) weight is masked on the l (m) side rather than raised, and
    its aggregate is left at 0; downstream reductions drop its pairs.
    """
    den1 = weights.T @ (a == 1).astype(np.float64)
    den0 = weights.T @ (a == 0).astype(np.float64)
    mass = weights.sum(axis=0)
    num1 = (m1 * eta[None, :]) @ weights
    num0 = (m0 * (1.0 - eta)[None, :]) @ weights
    mu1 = np.divide(num1, den1[None, :], out=np.zeros_like(num1), where=den1[None, :] > 0)
    mu0 = np.divide(num0, den0[None, :], out=np.zeros_like(num0), where=den0[None, :] > 0)
    pnum = p @ weights
    pi = np.divide(pnum, mass[None, :], out=np.zeros_like(pnum), where=mass[None, :] > 0)
    return RepresentationNuisance(
        x=np.asarray(xq, dtype=np.float64),
        pi=pi,
        mu1=mu1,
        mu0=mu0,
        valid_l=(den1 > 0) & (mass > 0),
        valid_m=(den0 > 0) & (mass > 0),
    )


def representation_from_estimates(nuisance, assignment: PartitionAssignment, z: np.ndarray, a: np.ndarray,
                                  xq: np.ndarray) -> RepresentationNuisance:
    """Per-cell aggregates of the fitted first-stage nets over a query grid."""
    m0, m1 = nuisance.mu.predict_pairwise(xq, z)
    p = nuisance.pi.predict_pairwise(xq, z)
    return aggregate_cells(xq, m1, m0, p, nuisance.eta.predict(z), a, assignment.weights)


# --------------------------------------------------------- bound algebra


def pairwise_bound_matrix(pi: np.ndarray, mu1: np.ndarray, mu0: np.ndarray, rng: OutcomeRange):
    """All k x k pairwise bounds at one query point: (b_plus, b_minus)."""
    pi = np.asarray(pi, dtype=np.float64)
    up_l = pi * mu1 + (1.0 - pi) * rng.s2
    lo_l = pi * mu1 + (1.0 - pi) * rng.s1
    up_m = (1.0 - pi) * mu0 + pi * rng.s1
    lo_m = (1.0 - pi) * mu0 + pi * rng.s2
    b_plus = up_l[:, None] - up_m[None, :]
    b_minus = lo_l[:, None] - lo_m[None, :]
    return b_plus, b_minus


def tightest_bounds(b_plus: np.ndarray, b_minus: np.ndarray,
                    valid_l: np.ndarray | None = None, valid_m: np.ndarray | None = None):
    """Reduce pairwise matrices to (lower, upper, lower_pair, upper_pair).

    Ties resolve to the lexicographically smallest (l, m). Raises
    EmptyCellError when no valid pair remains.
    """
    k = b_plus.shape[0]
    mask = np.ones((k, k), dtype=bool)
    if valid_l is not None:
        mask &= np.asarray(valid_l, dtype=bool)[:, None]
    if valid_m is not None:
        mask &= np.asarray(valid_m, dtype=bool)[None, :]
    if not mask.any():
        raise EmptyCellError(-1)
    plus = np.where(mask, b_plus, np.inf)
    minus = np.where(mask, b_minus, -np.inf)
    flat_min = int(np.argmin(plus))
    flat_max = int(np.argmax(minus))
    upper_pair = np.array(divmod(flat_min, k))
    lower_pair = np.array(divmod(flat_max, k))
    return float(minus.flat[flat_max]), float(plus.flat[flat_min]), lower_pair, upper_pair


def bounds_on_grid(rep: RepresentationNuisance, rng: OutcomeRange) -> BoundPair:
    """Vectorized min/max reduction over cells for every query point."""
    if not (rep.valid_l.any() and rep.valid_m.any()):
        raise EmptyCellError(-1)
    up_l = rep.pi * rep.mu1 + (1.0 - rep.pi) * rng.s2
    lo_l = rep.pi * rep.mu1 + (1.0 - rep.pi) * rng.s1
    up_m = (1.0 - rep.pi) * rep.mu0 + rep.pi * rng.s1
    lo_m = (1.0 - rep.pi) * rep.mu0 + rep.pi * rng.s2

    inf_l = np.where(rep.valid_l[None, :], 0.0, np.inf)
    inf_m = np.where(rep.valid_m[None, :], 0.0, np.inf)
    l_up = np.argmin(up_l + inf_l, axis=1)
    m_up = np.argmax(up_m - inf_m, axis=1)
    l_lo = np.argmax(lo_l - inf_l, axis=1)
    m_lo = np.argmin(lo_m + inf_m, axis=1)
    rows = np.arange(len(rep.x))
    upper = up_l[rows, l_up] - up_m[rows, m_up]
    lower = lo_l[rows, l_lo] - lo_m[rows, m_lo]
    return BoundPair(
        x=rep.x,
        lower=lower,
        upper=upper,
        upper_pair=np.stack([l_up, m_up], axis=1),
        lower_pair=np.stack([l_lo, m_lo], axis=1),
    )


def discrete_bounds_on_grid(x: np.ndarray, pi: np.ndarray, mu1: np.ndarray, mu0: np.ndarray,
                            rng: OutcomeRange) -> BoundPair:
    """Bounds from nuisances on a finite instrument alphabet: levels play
    the role of cells, all valid; inputs are (nq, levels)."""
    rep = RepresentationNuisance(
        x=np.asarray(x, dtype=np.float64),
        pi=pi,
        mu1=mu1,
        mu0=mu0,
        valid_l=np.ones(pi.shape[1], dtype=bool),
        valid_m=np.ones(pi.shape[1], dtype=bool),
    )
    return bounds_on_grid(rep, rng)


# --------------------------------------------------------- population oracle


def _trapezoid_weights(lo: float, hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    grid = np.linspace(lo, hi, n)
    w = np.full(n, (hi - lo) / (n - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    return grid, w


def _true_propensity(dataset: int):
    return {1: dgp.propensity_dataset1, 2: dgp.propensity_dataset2}[dataset]


def eta_true_dataset12(dataset: int, z: np.ndarray, n_s: int = 4001) -> np.ndarray:
    """P(A=1 | Z=z) by marginalizing the confounders.

    Both propensities depend on (x, u) only through a sum with a known
    trapezoid density, so the 2-D marginal reduces to one integral.
    """
    z = np.asarray(z, dtype=np.float64)
    if dataset == 1:
        s, w = _trapezoid_weights(-1.5, 1.5, n_s)
        dens = dgp.uniform_sum_density(s, 1.0, 0.5)
        inner = dgp._sigmoid((2.0 * np.abs(z)[:, None] - dgp.Z_SUPPORT_MAX) + s[None, :])
        return 0.05 + 0.9 * (inner @ (w * dens))
    if dataset == 2:
        s, w = _trapezoid_weights(-2.0, 2.0, n_s)
        dens = dgp.uniform_sum_density(s, 1.0, 1.0)
        inner = np.sin(2.5 * z[:, None] + s[None, :])
        return 0.48 * (inner @ (w * dens)) + 0.48 + 0.04 / (1.0 + np.exp(-3.0 * np.abs(z)))
    raise ValueError(f"no scalar-instrument law for dataset {dataset}")


def true_nuisances_dataset12(dataset: int, x: float, z: np.ndarray, n_u: int = 2001):
    """(pi(x,z), mu1(x,z), mu0(x,z)) for the scalar-instrument generators.

    mu^a(x,z) = 0.25 x + 0.125 E[U | x, a, z] + tau(x) a, with the
    conditional U-moment computed by quadrature over the treatment weight.
    """
    z = np.asarray(z, dtype=np.float64)
    u, w = _trapezoid_weights(-1.0, 1.0, n_u)
    pi_zu = _true_propensity(dataset)(z[:, None], x, u[None, :])
    pi_x = (pi_zu @ w) / 2.0
    tau = float(dgp.tau_dataset12(x))
    mus = []
    for arm in (1, 0):
        fac = pi_zu if arm == 1 else 1.0 - pi_zu
        eu = (fac @ (w * u)) / (fac @ w)
        mus.append(0.25 * x + 0.125 * eu + tau * arm)
    return pi_x, mus[0], mus[1]


def _oracle_pass_dataset12(dataset: int, edges, rng: OutcomeRange, x_grid: np.ndarray,
                           n_z: int, n_u: int, n_s: int) -> BoundPair:
    cuts = [-1.0] + sorted(float(e) for e in edges) + [1.0]
    cells = list(zip(cuts[:-1], cuts[1:]))
    k = len(cells)
    nq = len(x_grid)
    pi = np.empty((nq, k))
    mu1 = np.empty((nq, k))
    mu0 = np.empty((nq, k))
    for cell, (lo, hi) in enumerate(cells):
        zg, zw = _trapezoid_weights(lo, hi, n_z)
        dens = dgp.z_mixture_density(zg) * zw
        eta1 = eta_true_dataset12(dataset, zg, n_s)
        for i, x in enumerate(x_grid):
            pi_x, mu1_x, mu0_x = true_nuisances_dataset12(dataset, float(x), zg, n_u)
            pi[i, cell] = np.sum(pi_x * dens) / np.sum(dens)
            mu1[i, cell] = np.sum(mu1_x * eta1 * dens) / np.sum(eta1 * dens)
            mu0[i, cell] = np.sum(mu0_x * (1.0 - eta1) * dens) / np.sum((1.0 - eta1) * dens)
    return discrete_bounds_on_grid(x_grid, pi, mu1, mu0, rng)


def population_bounds_oracle(dataset: int, edges, rng: OutcomeRange, x_grid: np.ndarray,
                             n_z: int = 2001, n_u: int = 1001, n_s: int = 2001) -> BoundPair:
    """Bounds from exact DGP nuisances for a fixed hard interval partition.

    Datasets 1-2 only (scalar instrument); dataset 3 goes through
    ``dataset3_level_nuisances``. Errors if halving every quadrature grid
    moves any bound by more than 1e-4 relative.
    """
    x_grid = np.asarray(x_grid, dtype=np.float64)
    fine = _oracle_pass_dataset12(dataset, edges, rng, x_grid, n_z, n_u, n_s)
    coarse = _oracle_pass_dataset12(dataset, edges, rng, x_grid, n_z // 2 + 1, n_u // 2 + 1, n_s // 2 + 1)
    scale = max(rng.width, 1e-12)
    drift = max(
        float(np.max(np.abs(fine.lower - coarse.lower))),
        float(np.max(np.abs(fine.upper - coarse.upper))),
    )
    if drift / scale > 1e-4:
        raise QuadratureError(f"population bounds moved {drift / scale:.2e} relative on grid doubling")
    return fine


def dataset3_level_nuisances(x_grid: np.ndarray, n_u: int = 10_001, levels: np.ndarray | None = None):
    """Exact (pi, mu1, mu0) at each latent-score level of dataset 3.

    Returns arrays of shape (nq, L) plus the level values used. ``levels``
    defaults to the six realizable scores 0..5; passing repeated values
    (e.g. one per first-five-bit pattern) must leave bounds unchanged.

    Each level is integrated over blocks of ``ORACLE_BLOCK_ROWS`` query
    points at once, as (rows, n_u) arrays reduced along the u axis, with
    ``pi_u * w`` and ``(1 - pi_u) * w`` formed once per block. Every entry
    goes through the same operations in the same order as a one-x-at-a-time
    1-D trapezoid sum, so the result is bitwise the same; the block only
    keeps the temporaries small enough to stay in cache.
    """
    x_grid = np.asarray(x_grid, dtype=np.float64)
    if levels is None:
        levels = np.arange(6)
    levels = np.asarray(levels)
    u, w = _trapezoid_weights(-1.0, 1.0, n_u)
    nq, nl = len(x_grid), len(levels)
    pi = np.empty((nq, nl))
    mu1 = np.empty((nq, nl))
    mu0 = np.empty((nq, nl))
    tau = dgp.tau_dataset3(x_grid)
    for j, r in enumerate(levels):
        for lo in range(0, nq, ORACLE_BLOCK_ROWS):
            rows = slice(lo, lo + ORACLE_BLOCK_ROWS)
            x = x_grid[rows]
            pi_u = dgp.propensity_dataset3(float(r), x[:, None], u)
            treated_w = pi_u * w
            control_w = (1.0 - pi_u) * w
            treated_mass = treated_w.sum(axis=1)
            pi[rows, j] = treated_mass / 2.0
            for arm, fac_w, mass, out in ((1, treated_w, treated_mass, mu1),
                                          (0, control_w, control_w.sum(axis=1), mu0)):
                eu = (fac_w * u).sum(axis=1) / mass
                out[rows, j] = 0.25 * x + 0.125 * eu + tau[rows] * arm
    return pi, mu1, mu0, levels


# ------------------------------------------- fixed-nuisance quadrature oracle


def population_aggregate_mu(mu_fn, eta_fn, z_lo: float, z_hi: float, x: float, arm: int,
                            z_density=dgp.z_mixture_density, n_z: int = 10_001) -> float:
    """Population value of the plug-in outcome aggregate for one interval cell.

    ``mu_fn(x, z)`` and ``eta_fn(z)`` are fixed functions; treatments are
    assumed sampled from ``eta_fn``, so the estimator's eta factor matches
    the true arm probability. 1-D trapezoid over the instrument density.
    """
    zg, zw = _trapezoid_weights(z_lo, z_hi, n_z)
    dens = z_density(zg) * zw
    eta_a = eta_fn(zg) if arm == 1 else 1.0 - eta_fn(zg)
    return float(np.sum(mu_fn(x, zg) * eta_a * dens) / np.sum(eta_a * dens))


def population_aggregate_pi(pi_fn, z_lo: float, z_hi: float, x: float,
                            z_density=dgp.z_mixture_density, n_z: int = 10_001) -> float:
    zg, zw = _trapezoid_weights(z_lo, z_hi, n_z)
    dens = z_density(zg) * zw
    return float(np.sum(pi_fn(x, zg) * dens) / np.sum(dens))
