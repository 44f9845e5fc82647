import json
from dataclasses import replace

import numpy as np
import pytest

from ivbounds import bounds, data, metrics
from ivbounds.data import OutcomeRange


def _pair(x, lower, upper):
    n = len(x)
    pairs = np.zeros((n, 2), dtype=int)
    return bounds.BoundPair(x=np.asarray(x, float), lower=np.asarray(lower, float),
                            upper=np.asarray(upper, float), upper_pair=pairs, lower_pair=pairs)


def test_coverage_wide_bounds():
    x = np.linspace(-1, 1, 50)
    tau = data.tau_dataset12(x)
    pair = _pair(x, np.full(50, -10.0), np.full(50, 10.0))
    assert metrics.coverage(pair, tau) == 1.0


def test_coverage_closed_interval_boundary():
    x = np.linspace(-1, 1, 20)
    tau = data.tau_dataset12(x)
    pair = _pair(x, tau.copy(), tau.copy())
    assert metrics.coverage(pair, tau) == 1.0


def test_coverage_crossing_points_never_covered():
    pair = _pair([0.0], [0.5], [-0.5])  # crossed
    assert metrics.coverage(pair, np.array([0.0])) == 0.0
    assert metrics.crossing_rate(pair) == 1.0


def test_coverage_length_mismatch():
    pair = _pair([0.0, 1.0], [0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="length mismatch"):
        metrics.coverage(pair, np.zeros(3))


def test_mean_width_k1_is_range():
    rng_range = OutcomeRange(-0.3, 1.1)
    pair = bounds.discrete_bounds_on_grid(
        np.linspace(-1, 1, 7), np.full((7, 1), 0.4), np.zeros((7, 1)), np.zeros((7, 1)), rng_range
    )
    assert metrics.mean_width(pair) == pytest.approx(rng_range.width, abs=1e-12)


def test_msd_identical_bounds_is_zero():
    x = np.linspace(-1, 1, 30)
    pair = _pair(x, np.sin(x), np.sin(x) + 1.0)
    assert metrics.msd_over_k({2: pair, 3: pair, 4: pair}) == 0.0


def test_msd_hand_value():
    x = np.linspace(-1, 1, 30)
    a = _pair(x, np.zeros(30), np.ones(30))
    b = _pair(x, np.zeros(30), np.ones(30) + 0.1)
    assert metrics.msd_over_k({2: a, 3: b}) == pytest.approx(0.005, abs=1e-12)


def test_msd_symmetric_and_grid_checked():
    x = np.linspace(-1, 1, 10)
    a = _pair(x, np.zeros(10), np.ones(10))
    b = _pair(x, np.full(10, -0.2), np.ones(10))
    assert metrics.msd_over_k({2: a, 3: b}) == metrics.msd_over_k({3: a, 2: b})
    with pytest.raises(ValueError):
        metrics.msd_over_k({2: a})
    c = _pair(np.linspace(-1, 1, 11), np.zeros(11), np.ones(11))
    with pytest.raises(ValueError, match="grid"):
        metrics.msd_over_k({2: a, 3: c})


@pytest.fixture(scope="module")
def d3_oracle():
    rng_range = OutcomeRange(-0.35, 1.05)
    x_grid = np.linspace(-0.99, 0.99, 41)
    return metrics.oracle_bounds_dataset3(x_grid, rng_range, n_u=4001), x_grid, rng_range


def test_oracle_dataset3_contains_cate(d3_oracle):
    pair, x_grid, _ = d3_oracle
    tau = data.tau_dataset3(x_grid)
    assert np.all(pair.lower <= tau)
    assert np.all(tau <= pair.upper)


def test_oracle_dataset3_informative(d3_oracle):
    pair, _, rng_range = d3_oracle
    assert np.all(pair.width < rng_range.width)


def test_oracle_dataset3_single_level_coarsening(d3_oracle):
    _, x_grid, rng_range = d3_oracle
    # Coarsening the latent score to one level: k = 1 width identity.
    probs = data.rho_level_probs()
    pi, mu1, mu0, _ = metrics.dataset3_level_nuisances(x_grid, n_u=2001)
    marginal_pi = (pi * probs[None, :]).sum(axis=1, keepdims=True)
    pair = bounds.discrete_bounds_on_grid(x_grid, marginal_pi, mu1[:, :1], mu0[:, :1], rng_range)
    np.testing.assert_allclose(pair.width, rng_range.width, atol=1e-12)


# ------------------------------------------------ merged oracle arithmetic


def _aggregate_mu_per_cell(mu_fn, eta_fn, z_lo, z_hi, x, arm, n_z=10_001):
    """Reference: the one-cell, one-arm outcome aggregate that cell_nuisances replaced."""
    zg, zw = metrics._trapezoid_weights(z_lo, z_hi, n_z)
    dens = data.z_mixture_density(zg) * zw
    eta_a = eta_fn(zg) if arm == 1 else 1.0 - eta_fn(zg)
    return float(np.sum(mu_fn(x, zg) * eta_a * dens) / np.sum(eta_a * dens))


def _aggregate_pi_per_cell(pi_fn, z_lo, z_hi, x, n_z=10_001):
    """Reference: the one-cell propensity aggregate that cell_nuisances replaced."""
    zg, zw = metrics._trapezoid_weights(z_lo, z_hi, n_z)
    dens = data.z_mixture_density(zg) * zw
    return float(np.sum(pi_fn(x, zg) * dens) / np.sum(dens))


def test_cell_nuisances_are_bitwise_the_per_cell_aggregates():
    def pi_fn(x, z):
        return 0.5 + 0.3 * np.tanh(z) + 0.1 * x

    def mu1_fn(x, z):
        return 0.3 + 0.2 * x + 0.1 * np.sin(3.0 * z)

    def mu0_fn(x, z):
        return -0.1 + 0.4 * x - 0.2 * np.cos(2.0 * z)

    eta_fn = metrics.synthetic_eta
    x_grid = np.array([-0.7, 0.2, 0.3])
    pi, mu1, mu0 = metrics.cell_nuisances(lambda x, z: (pi_fn(x, z), mu1_fn(x, z), mu0_fn(x, z)), eta_fn,
                                          [0.0], x_grid)
    assert pi.shape == mu1.shape == mu0.shape == (3, 2)
    for i, x in enumerate(x_grid):
        for cell, (lo, hi) in enumerate([(-1.0, 0.0), (0.0, 1.0)]):
            assert pi[i, cell] == _aggregate_pi_per_cell(pi_fn, lo, hi, float(x))
            assert mu1[i, cell] == _aggregate_mu_per_cell(mu1_fn, eta_fn, lo, hi, float(x), 1)
            assert mu0[i, cell] == _aggregate_mu_per_cell(mu0_fn, eta_fn, lo, hi, float(x), 0)


def _true_nuisances_matrix_vector(dataset, x, z, n_u):
    """Reference: true_nuisances_dataset12 before it shared _u_moments, with
    its U-moments as matrix-vector products."""
    u, w = metrics._trapezoid_weights(-1.0, 1.0, n_u)
    propensity = {1: data.propensity_dataset1, 2: data.propensity_dataset2}[dataset]
    pi_zu = propensity(z[:, None], x, u[None, :])
    tau = float(data.tau_dataset12(x))
    mus = []
    for arm in (1, 0):
        fac = pi_zu if arm == 1 else 1.0 - pi_zu
        eu = (fac @ (w * u)) / (fac @ w)
        mus.append(0.25 * x + 0.125 * eu + tau * arm)
    return (pi_zu @ w) / 2.0, mus[0], mus[1]


@pytest.mark.parametrize("dataset", [1, 2])
def test_true_nuisances_dataset12_match_the_matrix_vector_form(dataset):
    # Summing along u instead of a BLAS dot moves the last bits only.
    z = np.linspace(-1.0, 1.0, 201)
    for x in (-0.95, -0.3, 0.0, 0.45, 1.0):
        got = metrics.true_nuisances_dataset12(dataset, x, z, n_u=2001)
        for g, want in zip(got, _true_nuisances_matrix_vector(dataset, x, z, 2001)):
            np.testing.assert_allclose(g, want, rtol=1e-13, atol=0)


def test_oracle_comparison_identical():
    x = np.linspace(-1, 1, 9)
    pair = _pair(x, -np.ones(9), np.ones(9))
    mse, cov = metrics.oracle_comparison(pair, pair)
    assert (mse, cov) == (0.0, 1.0)


def test_oracle_comparison_uniformly_wider():
    x = np.linspace(-1, 1, 9)
    oracle = _pair(x, -np.ones(9), np.ones(9))
    wider = _pair(x, -np.ones(9) - 0.1, np.ones(9) + 0.1)
    mse, cov = metrics.oracle_comparison(wider, oracle)
    assert mse == pytest.approx(0.01, abs=1e-12)
    assert cov == 1.0


# ------------------------------------------------ variance harness


def _harness(constant_h=False, constant_g=False):
    z_probs = np.array([0.25, 0.25, 0.25, 0.25])
    cells = np.array([0, 0, 1, 1])
    pi_hat = np.full(4, 0.4) if constant_h else np.array([0.0, 1.0, 0.0, 1.0])
    mu_hat = np.full(4, 0.8) if constant_g else np.array([0.2, 0.9, 0.4, 0.7])
    eta_hat = np.full(4, 0.55) if constant_g else np.array([0.3, 0.7, 0.4, 0.6])
    treat_prob = np.array([0.6, 0.6, 0.5, 0.5])
    return metrics.DiscreteVarianceDgp(z_probs=z_probs, cells=cells, mu_hat=mu_hat,
                                       eta_hat=eta_hat, pi_hat=pi_hat, treat_prob=treat_prob)


def test_variance_constant_h_is_zero():
    harness = _harness(constant_h=True)
    mu_rep, pi_rep = metrics.variance_mc_check(harness, cell=0, arm=1, n=10_000, replicates=400, seed=0)
    assert pi_rep.formula_value == pytest.approx(0.0, abs=1e-15)
    assert pi_rep.empirical_n_var < 1e-3
    del mu_rep


def test_variance_indicator_h_half():
    # h = 1{z odd} with P(h=1 | cell 0) = 0.5 and cell mass 0.5: n Var = 0.5.
    harness = _harness()
    _, pi_rep = metrics.variance_mc_check(harness, cell=0, arm=1, n=1_000, replicates=10_000, seed=1)
    assert pi_rep.formula_value == pytest.approx(0.5, abs=1e-12)
    assert pi_rep.relative_error < 0.10


def test_variance_constant_g_reduces_to_theta_term():
    # With Var(g | cell) = 0 the delta-method value reduces to
    # theta^2 (1-q) / (p q^3); Monte Carlo pins this (not the shortened
    # theta^2 (1-pq) / (p q^3) form, which overstates the variance).
    harness = _harness(constant_g=True)
    inputs = harness.formula_inputs_mu(0, arm=1)
    expected = inputs.theta**2 * (1 - inputs.q) / (inputs.p * inputs.q**3)
    assert metrics.asymptotic_var_mu(inputs) == pytest.approx(expected, rel=1e-12)
    mu_rep, _ = metrics.variance_mc_check(harness, cell=0, arm=1, n=1_000, replicates=10_000, seed=2)
    assert mu_rep.relative_error < 0.10


def test_variance_error_nonincreasing_in_n():
    harness = _harness()
    errs = []
    for n in (100, 1_000, 10_000):
        mu_rep, _ = metrics.variance_mc_check(harness, cell=0, arm=1, n=n, replicates=4_000, seed=3)
        errs.append(mu_rep.relative_error)
    assert errs[0] >= errs[1] >= errs[2] or errs[2] < 0.02


def test_variance_requires_mass():
    harness = metrics.DiscreteVarianceDgp(
        z_probs=np.array([0.98, 0.02]),
        cells=np.array([0, 1]),
        mu_hat=np.ones(2),
        eta_hat=np.full(2, 0.5),
        pi_hat=np.full(2, 0.5),
        treat_prob=np.full(2, 0.5),
    )
    with pytest.raises(ValueError, match="asymptotics"):
        metrics.variance_mc_check(harness, cell=1, arm=1, n=100, replicates=10, seed=0)


def test_formula_inputs_validation():
    with pytest.raises(ValueError):
        metrics.VarianceFormulaInputs(p=0.0, q=0.5, theta=0.0, second_moment=0.0)
    with pytest.raises(ValueError):
        metrics.VarianceFormulaInputs(p=0.5, q=1.0, theta=0.0, second_moment=0.0)
    with pytest.raises(ValueError):
        metrics.VarianceFormulaInputs(p=0.5, q=0.5, theta=1.0, second_moment=0.5)


# ------------------------------------------------ decomposition


def test_decomposition_trivial_identities():
    # Unbiased constant-spread estimator: MSE equals variance exactly.
    x = np.array([1.0, -1.0, 1.0, -1.0])
    errors = 0.0 - x
    assert np.mean(errors**2) == pytest.approx(np.mean(errors) ** 2 + x.var(ddof=0))
    # Fixed offset: MSE = delta^2, variance = 0.
    est = np.full(5, 2.0)
    truth = 2.5
    errs = truth - est
    assert np.mean(errs**2) == pytest.approx(0.25)
    assert est.var(ddof=0) == 0.0


def test_decomposition_check_identity_and_factor2():
    report = metrics.decomposition_check(x=0.2, n=1_000, replicates=2_000, seed=0, b_star_upper=0.3)
    assert report.identity_relative_error < 0.05
    assert report.factor2_lhs <= report.factor2_rhs + 1e-12
    assert report.variance > 0


# ------------------------------------------------ report io


def test_metrics_report_round_trip(tmp_path):
    report = metrics.MetricsReport(
        dataset=1, method="ours", k=2, seed=3, coverage=1.0, mean_width=1.05,
        crossing_rate=0.0, min_cell_mass=0.41, mass_floor_violated=False,
        runtime_seconds=12.5, msd_k=0.03,
    )
    path = tmp_path / "report.json"
    report.to_json(path)
    loaded = metrics.MetricsReport.from_json(path)
    assert loaded == report
    text = report.render_text()
    assert "coverage" in text and "1.0000" in text


def test_metrics_report_unknowns_are_null(tmp_path):
    # The evaluate command knows neither the cell masses nor the runtime.
    report = metrics.MetricsReport(
        dataset=1, method="ours", k=2, seed=0, coverage=1.0, mean_width=1.05,
        crossing_rate=0.0, min_cell_mass=None, mass_floor_violated=False,
    )
    path = tmp_path / "metrics.json"
    report.to_json(path)
    assert metrics.MetricsReport.from_json(path) == report
    assert json.loads(path.read_text())["min_cell_mass"] is None
    assert json.loads(metrics.trace_path(path).read_text()) == {"runtime_seconds": None}
    text = report.render_text()
    assert "n/a" in text and "nan" not in text


def test_metrics_text_has_a_runtime_row_only_when_known():
    report = metrics.MetricsReport(
        dataset=1, method="ours", k=2, seed=0, coverage=1.0, mean_width=1.05,
        crossing_rate=0.0, min_cell_mass=0.4, mass_floor_violated=False, runtime_seconds=3.04,
    )
    assert [line.split() for line in report.render_text().splitlines() if "runtime" in line] == [
        ["runtime", "[s]", "3.0"]]
    unknown = replace(report, runtime_seconds=None).render_text()
    assert "runtime" not in unknown
    assert unknown.splitlines() == [line for line in report.render_text().splitlines() if "runtime" not in line]


def test_metrics_report_without_trace_has_unknown_runtime(tmp_path):
    report = metrics.MetricsReport(
        dataset=1, method="ours", k=2, seed=0, coverage=1.0, mean_width=1.05,
        crossing_rate=0.0, min_cell_mass=0.4, mass_floor_violated=False, runtime_seconds=3.0,
    )
    path = tmp_path / "metrics.json"
    report.to_json(path)
    metrics.trace_path(path).unlink()
    assert metrics.MetricsReport.from_json(path).runtime_seconds is None


def test_metrics_report_refuses_non_finite_json(tmp_path):
    report = metrics.MetricsReport(
        dataset=1, method="ours", k=2, seed=0, coverage=1.0, mean_width=1.05,
        crossing_rate=0.0, min_cell_mass=float("nan"), mass_floor_violated=False,
    )
    with pytest.raises(ValueError):
        report.to_json(tmp_path / "metrics.json")


def test_metrics_report_validation():
    with pytest.raises(ValueError):
        metrics.MetricsReport(dataset=1, method="ours", k=2, seed=0, coverage=1.2,
                              mean_width=1.0, crossing_rate=0.0, min_cell_mass=0.5,
                              mass_floor_violated=False)
