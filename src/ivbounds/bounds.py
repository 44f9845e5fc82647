"""Closed-form bound mathematics for discretized instruments.

Given per-cell nuisances pi_phi(x, l) and mu_phi^a(x, l) and an outcome
range [s1, s2], the CATE at x is bracketed by min/max over ordered cell
pairs (l, m) of

    b+_{l,m} = pi_l mu1_l + (1 - pi_l) s2 - (1 - pi_m) mu0_m - pi_m s1
    b-_{l,m} = pi_l mu1_l + (1 - pi_l) s1 - (1 - pi_m) mu0_m - pi_m s2

Cells come either from a learned partition or from a finite instrument
alphabet. For a learned partition, ``aggregate_cells`` is the one numpy
kernel for the plug-in aggregates (soft or hard weights, empty cell-arms
masked; ``one_hot`` builds hard weights from cell labels), and
``bounds_on_grid`` is the one min/max reduction; the k x k
``pairwise_bound_matrix``/``tightest_bounds`` pair is the readable
reference it is checked against. The kernel takes the first-stage nets'
predictions on a grid of queries by aggregation samples; ``partition``
builds that grid, for training batches and for the final bounds alike. The
naive baseline's cells are a finite alphabet, its k one-hot labels, which
``discrete_bounds_on_grid`` bounds over. This module holds only that
algebra: the population oracle that evaluates the same quantities from the
synthetic generators' exact nuisances lives in ``metrics``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import OutcomeRange, fmt_float, read_rows, write_rows
from .parallel import PicklableFields


class EmptyCellError(PicklableFields, ValueError):
    """A requested cell (or cell-arm combination) has no mass."""

    def __init__(self, cell: int, arm: int | None = None):
        self.cell = cell
        self.arm = arm
        what = f"cell {cell}" if arm is None else f"cell {cell}, arm {arm}"
        super().__init__(f"empty {what}: aggregate undefined (cell occupancy regularization should prevent this)")


def one_hot(labels: np.ndarray, k: int) -> np.ndarray:
    """Hard cell weights (n, k): row j is 1 in column ``labels[j]``, 0 elsewhere."""
    weights = np.zeros((len(labels), k))
    weights[np.arange(len(labels)), labels] = 1.0
    return weights


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
    sums: tuple | None = None  # (num1, num0, pnum, den1, den0, mass) aggregate_cells divided


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
        rows = ([fmt_float(self.x[i]), fmt_float(self.lower[i]), fmt_float(self.upper[i]),
                 *map(int, self.upper_pair[i]), *map(int, self.lower_pair[i])] for i in range(len(self.x)))
        write_rows(path, ["x", "lower", "upper", "argmin_l", "argmin_m", "argmax_l", "argmax_m"], rows)

    @classmethod
    def from_csv(cls, path) -> "BoundPair":
        arr = np.array([[float(v) for v in row] for row in read_rows(path)[1]])
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
        sums=(num1, num0, pnum, den1, den0, mass),
    )


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
