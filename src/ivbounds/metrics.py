"""Evaluation metrics, the population oracle and statistical verification harnesses.

Besides the experiment metrics (coverage, width, cross-k stability,
oracle comparisons for the high-dimensional setting), this module is the
one home of the population oracle: the synthetic generators' exact
nuisances by trapezoid quadrature (one U-moment kernel, ``_u_moments``),
their per-cell aggregates over interval cells (``cell_nuisances``), the
bounds they give, and the grid-doubling check every oracle passes
(``_check_refinement``). It also carries the closed-form asymptotic
variances of the plug-in aggregates and Monte Carlo harnesses that verify
them, plus the bias-variance decomposition check for estimated upper
bounds. ``bounds`` holds only the bound algebra these build on.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import bounds as bnd
from . import data as dgp
from .data import OutcomeRange
from .rng import stream_rng


@dataclass
class MetricsReport:
    dataset: int
    method: str
    k: int
    seed: int
    coverage: float
    mean_width: float
    crossing_rate: float
    min_cell_mass: float | None
    mass_floor_violated: bool
    runtime_seconds: float | None = None
    msd_k: float | None = None
    oracle_mse: float | None = None
    oracle_coverage: float | None = None
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("coverage", "crossing_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if self.oracle_coverage is not None and not 0.0 <= self.oracle_coverage <= 1.0:
            raise ValueError("oracle_coverage must lie in [0, 1]")
        if not np.isfinite(self.mean_width):
            raise ValueError("mean_width must be finite")

    def to_json(self, path) -> None:
        """Write the report to ``path`` and its runtime to ``trace_path(path)``.

        Runtime varies run to run, so it lives in the sibling trace file;
        ``path`` itself stays byte-identical for a fixed (config, seed).
        Unknown values are JSON ``null``; a NaN or infinity raises
        ``ValueError`` instead of producing a file strict parsers reject.
        """
        payload = asdict(self)
        trace = {"runtime_seconds": payload.pop("runtime_seconds")}
        report_text, trace_text = _strict_json(payload), _strict_json(trace)
        Path(path).write_text(report_text)
        trace_path(path).write_text(trace_text)

    @classmethod
    def from_json(cls, path) -> "MetricsReport":
        """Read a report written by ``to_json``; runtime is None without a trace file."""
        payload = json.loads(Path(path).read_text())
        trace = trace_path(path)
        if trace.exists():
            payload["runtime_seconds"] = json.loads(trace.read_text())["runtime_seconds"]
        return cls(**payload)

    def render_text(self) -> str:
        rows = [
            ("dataset", self.dataset),
            ("method", self.method),
            ("k", self.k),
            ("seed", self.seed),
            ("coverage", f"{self.coverage:.4f}"),
            ("mean width", f"{self.mean_width:.4f}"),
            ("crossing rate", f"{self.crossing_rate:.4f}"),
            ("min cell mass", _fmt(self.min_cell_mass, ".4f")),
            ("mass floor violated", self.mass_floor_violated),
        ]
        if self.runtime_seconds is not None:
            rows.append(("runtime [s]", f"{self.runtime_seconds:.1f}"))
        if self.msd_k is not None:
            rows.append(("MSD(k)", f"{self.msd_k:.4f}"))
        if self.oracle_mse is not None:
            rows.append(("oracle MSE", f"{self.oracle_mse:.4f}"))
        if self.oracle_coverage is not None:
            rows.append(("oracle coverage", f"{self.oracle_coverage:.4f}"))
        width = max(len(str(r[0])) for r in rows)
        return "\n".join(f"{str(name):<{width}}  {value}" for name, value in rows) + "\n"


def trace_path(path) -> Path:
    """Sibling file holding a report's run-dependent fields: metrics.json -> metrics.trace.json."""
    return Path(path).with_suffix(".trace.json")


def _strict_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _fmt(value: float | None, spec: str) -> str:
    return "n/a" if value is None else format(value, spec)


def coverage(pair: bnd.BoundPair, tau_true: np.ndarray) -> float:
    """Fraction of points with lower <= tau <= upper; crossings never cover."""
    tau_true = np.asarray(tau_true, dtype=np.float64)
    if len(tau_true) != len(pair.x):
        raise ValueError(f"length mismatch: {len(pair.x)} bounds vs {len(tau_true)} targets")
    return float(np.mean((pair.lower <= tau_true) & (tau_true <= pair.upper)))


def mean_width(pair: bnd.BoundPair) -> float:
    if not np.all(np.isfinite(pair.lower)) or not np.all(np.isfinite(pair.upper)):
        raise ValueError("bounds must be finite")
    return float(np.mean(pair.upper - pair.lower))


def crossing_rate(pair: bnd.BoundPair) -> float:
    return float(np.mean(pair.crossing_mask))


def msd_over_k(pairs_by_k: dict[int, bnd.BoundPair]) -> float:
    """Mean squared difference between bound curves across k values.

    Average over unordered k pairs, grid points and both bound sides of
    the squared difference. Requires a common query grid.
    """
    ks = sorted(pairs_by_k)
    if len(ks) < 2:
        raise ValueError("need bounds for at least two k values")
    base_x = pairs_by_k[ks[0]].x
    for k in ks[1:]:
        if len(pairs_by_k[k].x) != len(base_x) or not np.array_equal(pairs_by_k[k].x, base_x):
            raise ValueError("bound sets must share the query grid")
    total = 0.0
    count = 0
    for i, k1 in enumerate(ks):
        for k2 in ks[i + 1 :]:
            a, b = pairs_by_k[k1], pairs_by_k[k2]
            total += float(np.mean(((a.upper - b.upper) ** 2 + (a.lower - b.lower) ** 2) / 2.0))
            count += 1
    return total / count


def oracle_comparison(estimated: bnd.BoundPair, oracle: bnd.BoundPair) -> tuple[float, float]:
    """(MSE against the oracle curves, fraction of points where the
    estimated interval contains the oracle interval)."""
    if len(estimated.x) != len(oracle.x):
        raise ValueError("grids must align")
    mse = float(np.mean(((estimated.upper - oracle.upper) ** 2 + (estimated.lower - oracle.lower) ** 2) / 2.0))
    contains = (estimated.lower <= oracle.lower) & (oracle.upper <= estimated.upper)
    return mse, float(np.mean(contains))


# ------------------------------------------------ population oracle


# Query points per block of ``dataset3_level_nuisances``: each (16, n_u)
# float64 temporary is 256 kB at the n_u = 2,001 that runs use.
ORACLE_BLOCK_ROWS = 16


class QuadratureError(RuntimeError):
    """Population integrals failed the grid-doubling convergence check."""


def _trapezoid_weights(lo: float, hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    grid = np.linspace(lo, hi, n)
    w = np.full(n, (hi - lo) / (n - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    return grid, w


def _check_refinement(what: str, fine, coarse, scale: float = 1.0) -> None:
    """Raise QuadratureError when an array of ``fine`` moved by more than
    1e-4 of ``scale`` from its ``coarse`` twin, computed on halved grids."""
    drift = max(float(np.max(np.abs(f - c))) for f, c in zip(fine, coarse))
    if drift / scale > 1e-4:
        raise QuadratureError(f"{what} moved {drift / scale:.2e} on grid doubling")


def _u_moments(pi_u: np.ndarray, u: np.ndarray, w: np.ndarray, x, tau):
    """(pi, mu1, mu0) from the propensity on the confounder grid.

    ``pi_u[..., j]`` is P(A=1 | x, ., u_j), ``w`` the trapezoid weights of
    U ~ Uniform[-1, 1] on ``u``; the last axis is reduced. Every generator
    has mu^a = 0.25 x + 0.125 E[U | x, a, .] + tau(x) a, with the
    conditional U-moment weighted by ``pi_u`` (a = 1) or ``1 - pi_u``
    (a = 0); ``pi_u * w`` and ``(1 - pi_u) * w`` are formed once.
    """
    treated_w = pi_u * w
    control_w = (1.0 - pi_u) * w
    treated_mass = treated_w.sum(axis=-1)
    mu1, mu0 = (0.25 * x + 0.125 * ((fac_w * u).sum(axis=-1) / mass) + tau * arm
                for arm, fac_w, mass in ((1, treated_w, treated_mass), (0, control_w, control_w.sum(axis=-1))))
    return treated_mass / 2.0, mu1, mu0


def eta_true_dataset12(dataset: int, z: np.ndarray, n_s: int = 4001) -> np.ndarray:
    """P(A=1 | Z=z) by marginalizing the confounders.

    Both propensities depend on (x, u) only through a sum with a known
    trapezoid density, so the 2-D marginal reduces to one integral.
    """
    z = np.asarray(z, dtype=np.float64)
    if dataset == 1:
        s, w = _trapezoid_weights(-1.5, 1.5, n_s)
        dens = dgp.uniform_sum_density(s, 1.0, 0.5)
        inner = dgp.sigmoid((2.0 * np.abs(z)[:, None] - dgp.Z_SUPPORT_MAX) + s[None, :])
        return 0.05 + 0.9 * (inner @ (w * dens))
    if dataset == 2:
        s, w = _trapezoid_weights(-2.0, 2.0, n_s)
        dens = dgp.uniform_sum_density(s, 1.0, 1.0)
        inner = np.sin(2.5 * z[:, None] + s[None, :])
        return 0.48 * (inner @ (w * dens)) + 0.48 + 0.04 / (1.0 + np.exp(-3.0 * np.abs(z)))
    raise ValueError(f"no scalar-instrument law for dataset {dataset}")


def true_nuisances_dataset12(dataset: int, x: float, z: np.ndarray, n_u: int = 2001):
    """(pi(x,z), mu1(x,z), mu0(x,z)) for the scalar-instrument generators,
    by quadrature over the confounder U (``_u_moments``)."""
    z = np.asarray(z, dtype=np.float64)
    u, w = _trapezoid_weights(-1.0, 1.0, n_u)
    propensity = {1: dgp.propensity_dataset1, 2: dgp.propensity_dataset2}[dataset]
    return _u_moments(propensity(z[:, None], x, u[None, :]), u, w, x, float(dgp.tau_dataset12(x)))


def cell_nuisances(nuisance_fn, eta_fn, edges, x_grid: np.ndarray, n_z: int = 10_001):
    """Population plug-in aggregates (pi, mu1, mu0), each (nq, k), over the
    interval cells that ``edges`` cut [-1, 1] into.

    ``nuisance_fn(x, z) -> (pi, mu1, mu0)`` and ``eta_fn(z)`` are fixed
    functions of a scalar instrument; treatments are taken as drawn from
    ``eta_fn``, so the estimator's eta factor matches the true arm
    probability. Per cell, a trapezoid rule over the instrument density:

        pi_l  = int pi dens / int dens
        mu1_l = int mu1 eta dens / int eta dens
        mu0_l = int mu0 (1 - eta) dens / int (1 - eta) dens
    """
    cuts = [-1.0] + sorted(float(e) for e in edges) + [1.0]
    shape = (len(x_grid), len(cuts) - 1)
    pi, mu1, mu0 = np.empty(shape), np.empty(shape), np.empty(shape)
    for cell, (lo, hi) in enumerate(zip(cuts[:-1], cuts[1:])):
        zg, zw = _trapezoid_weights(lo, hi, n_z)
        dens = dgp.z_mixture_density(zg) * zw
        eta1 = eta_fn(zg)
        for i, x in enumerate(x_grid):
            pi_x, mu1_x, mu0_x = nuisance_fn(float(x), zg)
            pi[i, cell] = np.sum(pi_x * dens) / np.sum(dens)
            mu1[i, cell] = np.sum(mu1_x * eta1 * dens) / np.sum(eta1 * dens)
            mu0[i, cell] = np.sum(mu0_x * (1.0 - eta1) * dens) / np.sum((1.0 - eta1) * dens)
    return pi, mu1, mu0


def population_bounds_oracle(dataset: int, edges, rng: OutcomeRange, x_grid: np.ndarray,
                             n_z: int = 2001, n_u: int = 1001, n_s: int = 2001) -> bnd.BoundPair:
    """Bounds from exact DGP nuisances for a fixed hard interval partition.

    Datasets 1-2 only (scalar instrument); dataset 3 goes through
    ``dataset3_level_nuisances``. Errors if halving every quadrature grid
    moves any bound by more than 1e-4 of the outcome range.
    """
    x_grid = np.asarray(x_grid, dtype=np.float64)

    def bounds_at(nz: int, nu: int, ns: int) -> bnd.BoundPair:
        nuisances = cell_nuisances(partial(true_nuisances_dataset12, dataset, n_u=nu),
                                   partial(eta_true_dataset12, dataset, n_s=ns), edges, x_grid, nz)
        return bnd.discrete_bounds_on_grid(x_grid, *nuisances, rng)

    fine = bounds_at(n_z, n_u, n_s)
    coarse = bounds_at(n_z // 2 + 1, n_u // 2 + 1, n_s // 2 + 1)
    _check_refinement("population bounds (relative to the outcome range)", (fine.lower, fine.upper),
                      (coarse.lower, coarse.upper), scale=max(rng.width, 1e-12))
    return fine


def dataset3_level_nuisances(x_grid: np.ndarray, n_u: int = 10_001, levels: np.ndarray | None = None):
    """Exact (pi, mu1, mu0) at each latent-score level of dataset 3.

    Returns arrays of shape (nq, L) plus the level values used. ``levels``
    defaults to the six realizable scores 0..5; passing repeated values
    (e.g. one per first-five-bit pattern) must leave bounds unchanged.

    Each level is integrated over blocks of ``ORACLE_BLOCK_ROWS`` query
    points at once, as (rows, n_u) arrays reduced along the u axis by
    ``_u_moments``. Every entry goes through the same operations in the
    same order as a one-x-at-a-time 1-D trapezoid sum, so the result is
    bitwise the same; the block only keeps the temporaries small enough to
    stay in cache.
    """
    x_grid = np.asarray(x_grid, dtype=np.float64)
    if levels is None:
        levels = np.arange(6)
    levels = np.asarray(levels)
    u, w = _trapezoid_weights(-1.0, 1.0, n_u)
    shape = (len(x_grid), len(levels))
    pi, mu1, mu0 = np.empty(shape), np.empty(shape), np.empty(shape)
    tau = dgp.tau_dataset3(x_grid)
    for j, r in enumerate(levels):
        for lo in range(0, len(x_grid), ORACLE_BLOCK_ROWS):
            rows = slice(lo, lo + ORACLE_BLOCK_ROWS)
            pi_u = dgp.propensity_dataset3(float(r), x_grid[rows, None], u)
            pi[rows, j], mu1[rows, j], mu0[rows, j] = _u_moments(pi_u, u, w, x_grid[rows], tau[rows])
    return pi, mu1, mu0, levels


def oracle_bounds_dataset3(x_grid: np.ndarray, rng_range: OutcomeRange, n_u: int = 2001) -> bnd.BoundPair:
    """Discrete bounds on the latent score with exact enumerated nuisances.

    Errors if halving the U grid moves any nuisance by more than 1e-4.
    """
    fine = dataset3_level_nuisances(x_grid, n_u=n_u)[:3]
    _check_refinement("dataset-3 oracle", fine, dataset3_level_nuisances(x_grid, n_u=n_u // 2 + 1)[:3])
    return bnd.discrete_bounds_on_grid(x_grid, *fine, rng_range)


def synthetic_eta(z: np.ndarray) -> np.ndarray:
    """Arm probability of the fixed synthetic nuisances; treatments are drawn from it."""
    return 1.0 / (1.0 + np.exp(-1.2 * z))


def synthetic_nuisances(x: float, z: np.ndarray):
    """Fixed (pi, mu1, mu0) of the plug-in checks, one outcome function for both arms."""
    mu = 0.3 + 0.2 * x + 0.1 * np.sin(3.0 * z)
    return 0.5 + 0.3 * np.tanh(z) + 0.1 * x, mu, mu


def synthetic_plugin_aggregates(x: float, z: np.ndarray, a: np.ndarray) -> bnd.RepresentationNuisance:
    """Plug-in aggregates of the synthetic nuisances at ``x`` over the two
    cells split at z = 0; ``cell_nuisances`` gives their population values."""
    pi_z, mu_z, _ = synthetic_nuisances(x, z)
    return bnd.aggregate_cells(np.array([x]), mu_z[None, :], mu_z[None, :], pi_z[None, :], synthetic_eta(z), a,
                               bnd.one_hot((z >= 0).astype(int), 2))


# ------------------------------------------------ asymptotic variances


@dataclass(frozen=True)
class VarianceFormulaInputs:
    """Moments entering the closed-form asymptotic variances.

    p: cell mass; q: P(A=a | cell); theta: E[g | cell]; second_moment:
    E[g^2 | cell] (g is the eta-weighted outcome prediction for the mu
    aggregate, or the propensity prediction h for the pi aggregate).
    """

    p: float
    q: float
    theta: float
    second_moment: float

    def __post_init__(self):
        if not 0.0 < self.p <= 1.0:
            raise ValueError("p must lie in (0, 1]")
        if not 0.0 < self.q < 1.0:
            raise ValueError("q must lie in (0, 1)")
        if self.second_moment < self.theta**2 - 1e-12:
            raise ValueError("second moment below squared mean")

    @property
    def variance(self) -> float:
        return max(self.second_moment - self.theta**2, 0.0)


def asymptotic_var_mu(inp: VarianceFormulaInputs) -> float:
    """n * Var of the outcome aggregate, assembled by the delta method.

    V = (1/p) [ (Var(g|cell) - theta^2 (1-p)) / q^2 + theta^2 (1-pq) / q^3 ].

    This is grad f^T Sigma grad f with the moment list mu_W = p theta,
    sigma_W^2 = p (gamma - p theta^2), mu_D = pq, sigma_D^2 = pq(1-pq),
    Cov(W,D) = pq theta (1-p); Monte Carlo agrees with this value. (The
    commonly quoted shortened form omits the -theta^2 (1-p)/q^2 term and
    over-states the variance whenever p < 1.)
    """
    return (
        (inp.variance - inp.theta**2 * (1.0 - inp.p)) / inp.q**2
        + inp.theta**2 * (1.0 - inp.p * inp.q) / inp.q**3
    ) / inp.p


def asymptotic_var_pi(p: float, var_h: float) -> float:
    """n * Var of the propensity aggregate: Var(h|cell)/p."""
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")
    return var_h / p


@dataclass
class DiscreteVarianceDgp:
    """Finite-alphabet harness for the variance formulas.

    ``treat_prob`` must be constant within every cell: the closed-form
    covariance step Cov(W, D) = p q theta (1 - p) assumes the arm
    probability does not co-vary with g inside a cell.
    """

    z_probs: np.ndarray  # (m,)
    cells: np.ndarray  # (m,) int cell label per alphabet symbol
    mu_hat: np.ndarray  # (m,) fixed outcome predictions at the query point
    eta_hat: np.ndarray  # (m,) fixed eta predictions
    pi_hat: np.ndarray  # (m,) fixed propensity predictions
    treat_prob: np.ndarray  # (m,) true P(A=1 | z)

    def __post_init__(self):
        if abs(self.z_probs.sum() - 1.0) > 1e-12:
            raise ValueError("z_probs must sum to 1")
        for cell in np.unique(self.cells):
            probs = self.treat_prob[self.cells == cell]
            if np.ptp(probs) > 1e-12:
                raise ValueError("treat_prob must be constant within each cell")

    def g_values(self, arm: int) -> np.ndarray:
        fac = self.eta_hat if arm == 1 else 1.0 - self.eta_hat
        return self.mu_hat * fac

    def formula_inputs_mu(self, cell: int, arm: int) -> VarianceFormulaInputs:
        mask = self.cells == cell
        p = float(self.z_probs[mask].sum())
        w = self.z_probs[mask] / p
        arm_prob = self.treat_prob[mask] if arm == 1 else 1.0 - self.treat_prob[mask]
        q = float((w * arm_prob).sum())
        g = self.g_values(arm)[mask]
        return VarianceFormulaInputs(p=p, q=q, theta=float((w * g).sum()), second_moment=float((w * g * g).sum()))

    def pi_moments(self, cell: int) -> tuple[float, float]:
        mask = self.cells == cell
        p = float(self.z_probs[mask].sum())
        w = self.z_probs[mask] / p
        h = self.pi_hat[mask]
        theta = float((w * h).sum())
        return p, float((w * h * h).sum()) - theta**2


@dataclass
class VarianceCheckReport:
    estimator: str
    cell: int
    arm: int | None
    n: int
    replicates: int
    empirical_n_var: float
    formula_value: float

    @property
    def relative_error(self) -> float:
        scale = max(abs(self.formula_value), 1e-12)
        return abs(self.empirical_n_var - self.formula_value) / scale


def variance_mc_check(harness: DiscreteVarianceDgp, cell: int, arm: int, n: int,
                      replicates: int, seed: int) -> tuple[VarianceCheckReport, VarianceCheckReport]:
    """Empirical n * Var of both plug-in aggregates vs the closed forms."""
    inputs = harness.formula_inputs_mu(cell, arm)
    if inputs.p * inputs.q < 0.05:
        raise ValueError("cell-arm mass below 0.05: asymptotics unreliable at this n")
    rng = stream_rng(seed, "variance-mc")
    m = len(harness.z_probs)
    z = rng.choice(m, size=(replicates, n), p=harness.z_probs)
    a = (rng.random((replicates, n)) < harness.treat_prob[z]).astype(np.int64)
    in_cell = (harness.cells == cell)[z]

    g = harness.g_values(arm)[z]
    num_mu = (g * in_cell).sum(axis=1)
    den_mu = (in_cell & (a == arm)).sum(axis=1)
    if np.any(den_mu == 0):
        raise bnd.EmptyCellError(cell, arm)
    mu_stats = num_mu / den_mu

    h = harness.pi_hat[z]
    num_pi = (h * in_cell).sum(axis=1)
    den_pi = in_cell.sum(axis=1)
    if np.any(den_pi == 0):
        raise bnd.EmptyCellError(cell)
    pi_stats = num_pi / den_pi

    p, var_h = harness.pi_moments(cell)
    mu_report = VarianceCheckReport(
        estimator="mu", cell=cell, arm=arm, n=n, replicates=replicates,
        empirical_n_var=float(n * mu_stats.var(ddof=1)), formula_value=asymptotic_var_mu(inputs),
    )
    pi_report = VarianceCheckReport(
        estimator="pi", cell=cell, arm=None, n=n, replicates=replicates,
        empirical_n_var=float(n * pi_stats.var(ddof=1)), formula_value=asymptotic_var_pi(p, var_h),
    )
    return mu_report, pi_report


# ------------------------------------------------ bias-variance check


@dataclass
class DecompositionReport:
    mse: float
    bias_sq: float
    variance: float
    population_value: float
    tightness_term: float | None = None
    factor2_lhs: float | None = None
    factor2_rhs: float | None = None

    @property
    def identity_relative_error(self) -> float:
        return abs(self.mse - (self.bias_sq + self.variance)) / max(self.mse, 1e-12)


def decomposition_check(x: float, n: int, replicates: int, seed: int,
                        b_star_upper: float | None = None,
                        rng_range: OutcomeRange = OutcomeRange(-0.5, 1.0)) -> DecompositionReport:
    """Replicate the upper-bound estimator on dataset-1 draws.

    Fixed two-cell partition (z < 0 vs z >= 0) and the fixed synthetic
    nuisances; the population reference comes from ``cell_nuisances``. Verifies MSE = bias^2 + variance and, when a proxy for the
    unconstrained optimal bound is supplied, the factor-2 inequality
    E[(b* - bhat)^2] <= 2 ((b* - b_pop)^2 + bias^2 + variance).
    """

    pop = cell_nuisances(synthetic_nuisances, synthetic_eta, [0.0], np.array([x]))
    b_pop = bnd.discrete_bounds_on_grid(np.array([x]), *pop, rng_range).upper[0]

    rng = stream_rng(seed, "decomposition")
    estimates = np.empty(replicates)
    for r in range(replicates):
        z = dgp._mixture_instrument(n, seed * 100_003 + r)
        a = (rng.random(n) < synthetic_eta(z)).astype(np.int64)
        rep = synthetic_plugin_aggregates(x, z, a)
        empty = ~(rep.valid_l & rep.valid_m)
        if empty.any():
            raise bnd.EmptyCellError(int(np.argmax(empty)))
        estimates[r] = bnd.bounds_on_grid(rep, rng_range).upper[0]

    errors = b_pop - estimates
    mse = float(np.mean(errors**2))
    bias_sq = float(np.mean(errors) ** 2)
    variance = float(estimates.var(ddof=0))
    report = DecompositionReport(mse=mse, bias_sq=bias_sq, variance=variance, population_value=float(b_pop))
    if b_star_upper is not None:
        report.tightness_term = float((b_star_upper - b_pop) ** 2)
        report.factor2_lhs = float(np.mean((b_star_upper - estimates) ** 2))
        report.factor2_rhs = 2.0 * (report.tightness_term + bias_sq + variance)
    return report
