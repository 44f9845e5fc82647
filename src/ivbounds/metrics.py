"""Evaluation metrics and statistical verification harnesses.

Besides the experiment metrics (coverage, width, cross-k stability,
oracle comparisons for the high-dimensional setting), this module carries
the closed-form asymptotic variances of the plug-in aggregates and Monte
Carlo harnesses that verify them, plus the bias-variance decomposition
check for estimated upper bounds.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
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


def oracle_bounds_dataset3(x_grid: np.ndarray, rng_range: OutcomeRange, n_u: int = 2001) -> bnd.BoundPair:
    """Discrete bounds on the latent score with exact enumerated nuisances."""
    pi, mu1, mu0, _ = bnd.dataset3_level_nuisances(x_grid, n_u=n_u)
    coarse_pi, coarse_mu1, coarse_mu0, _ = bnd.dataset3_level_nuisances(x_grid, n_u=n_u // 2 + 1)
    drift = max(
        float(np.max(np.abs(pi - coarse_pi))),
        float(np.max(np.abs(mu1 - coarse_mu1))),
        float(np.max(np.abs(mu0 - coarse_mu0))),
    )
    if drift > 1e-4:
        raise bnd.QuadratureError(f"dataset-3 oracle moved {drift:.2e} on grid doubling")
    return bnd.discrete_bounds_on_grid(x_grid, pi, mu1, mu0, rng_range)


def oracle_comparison(estimated: bnd.BoundPair, oracle: bnd.BoundPair) -> tuple[float, float]:
    """(MSE against the oracle curves, fraction of points where the
    estimated interval contains the oracle interval)."""
    if len(estimated.x) != len(oracle.x):
        raise ValueError("grids must align")
    mse = float(np.mean(((estimated.upper - oracle.upper) ** 2 + (estimated.lower - oracle.lower) ** 2) / 2.0))
    contains = (estimated.lower <= oracle.lower) & (oracle.upper <= estimated.upper)
    return mse, float(np.mean(contains))


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

    Fixed two-cell partition (z < 0 vs z >= 0) and fixed synthetic
    nuisances; the population reference comes from the quadrature
    aggregates. Verifies MSE = bias^2 + variance and, when a proxy for the
    unconstrained optimal bound is supplied, the factor-2 inequality
    E[(b* - bhat)^2] <= 2 ((b* - b_pop)^2 + bias^2 + variance).
    """

    def mu_fn(xq, z):
        return 0.3 + 0.2 * xq + 0.1 * np.sin(3.0 * z)

    def eta_fn(z):
        return 1.0 / (1.0 + np.exp(-1.2 * z))

    def pi_fn(xq, z):
        return 0.5 + 0.3 * np.tanh(z) + 0.1 * xq

    cells = [(-1.0, 0.0), (0.0, 1.0)]
    pi_pop = np.array([bnd.population_aggregate_pi(pi_fn, lo, hi, x) for lo, hi in cells])
    mu1_pop = np.array([bnd.population_aggregate_mu(mu_fn, eta_fn, lo, hi, x, 1) for lo, hi in cells])
    mu0_pop = np.array([bnd.population_aggregate_mu(mu_fn, eta_fn, lo, hi, x, 0) for lo, hi in cells])
    b_pop = bnd.discrete_bounds_on_grid(np.array([x]), pi_pop[None, :], mu1_pop[None, :], mu0_pop[None, :],
                                        rng_range).upper[0]

    rng = stream_rng(seed, "decomposition")
    estimates = np.empty(replicates)
    for r in range(replicates):
        z = dgp._mixture_instrument(n, seed * 100_003 + r)
        a = (rng.random(n) < eta_fn(z)).astype(np.int64)
        weights = bnd.PartitionAssignment.from_labels((z >= 0).astype(int), 2).weights
        m = mu_fn(x, z)[None, :]
        rep = bnd.aggregate_cells(np.array([x]), m, m, pi_fn(x, z)[None, :], eta_fn(z), a, weights)
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
