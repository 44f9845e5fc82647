"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-4 share a full-scale sweep (n = 2000, 5 seeds, paper k grids)
executed once per session; 5-10 are property and verification suites at
their stated tolerances.
"""

import numpy as np
import pytest

from ivbounds import bounds, checks, data, experiments, metrics
from ivbounds.data import OutcomeRange
from ivbounds.rng import stream_rng

SEEDS = (0, 1, 2, 3, 4)
RUNTIME_LIMIT_SECONDS = 900.0


def _criterion(num: int, passed: bool, detail: str) -> None:
    line = f"[criterion {num:2d}] {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    assert passed, line


@pytest.fixture(scope="session")
def sweep(tmp_path_factory):
    """All (dataset, method, k, seed) runs the table criteria need."""
    out = tmp_path_factory.mktemp("sweep")
    runs = []
    for table in (1, 2):
        grid = experiments.TABLE_GRIDS[table]
        for dataset in grid["datasets"]:
            for method in grid["methods"]:
                for k in grid["ks"]:
                    for seed in SEEDS:
                        run_dir = out / f"d{dataset}_{method}_k{k}_seed{seed}"
                        runs.append((dataset, method, k, seed, 2000, run_dir, None))
    reports = experiments.run_sweep(runs, jobs=2)
    by_run = {}
    pairs = {}
    for (dataset, method, k, seed, _, run_dir, _), rep in zip(runs, reports):
        by_run[(dataset, method, k, seed)] = rep
        pairs[(dataset, method, k, seed)] = bounds.BoundPair.from_csv(run_dir / "bounds.csv")
    return by_run, pairs


def _mean_width(by_run, dataset, method, k):
    return float(np.mean([by_run[(dataset, method, k, s)].mean_width for s in SEEDS]))


def _msd(pairs, dataset, method, ks):
    values = []
    for seed in SEEDS:
        values.append(metrics.msd_over_k({k: pairs[(dataset, method, k, seed)] for k in ks}))
    return float(np.mean(values))


def test_criterion_1_coverage_and_runtime(sweep):
    by_run, _ = sweep
    ours = [rep for rep in by_run.values() if rep.method == "ours"]
    assert len(ours) == (2 * 2 + 4) * len(SEEDS)
    worst_cov = min(rep.coverage for rep in ours)
    worst_time = max(rep.runtime_seconds for rep in ours)
    _criterion(
        1,
        worst_cov >= 0.95 and worst_time <= RUNTIME_LIMIT_SECONDS,
        f"min coverage {worst_cov:.3f} (>= 0.95), max runtime {worst_time:.0f}s (<= {RUNTIME_LIMIT_SECONDS:.0f}s) "
        f"over {len(ours)} runs",
    )


def test_criterion_2_width_ordering_dataset2(sweep):
    by_run, _ = sweep
    details = []
    ok = True
    for k in (2, 3):
        ours = _mean_width(by_run, 2, "ours", k)
        naive = _mean_width(by_run, 2, "naive", k)
        ok &= ours <= naive
        details.append(f"k={k}: ours {ours:.3f} vs naive {naive:.3f}")
    _criterion(2, ok, "; ".join(details))


def test_criterion_3_width_dataset1_k2(sweep):
    by_run, _ = sweep
    ours = _mean_width(by_run, 1, "ours", 2)
    naive = _mean_width(by_run, 1, "naive", 2)
    _criterion(
        3,
        ours <= naive and 0.7 <= ours <= 1.4,
        f"ours {ours:.3f} <= naive {naive:.3f} and ours within [0.7, 1.4]",
    )


def test_criterion_4_msd_ordering(sweep):
    _, pairs = sweep
    d1_ours = _msd(pairs, 1, "ours", (2, 3))
    d1_naive = _msd(pairs, 1, "naive", (2, 3))
    d3_ours = _msd(pairs, 3, "ours", (2, 4, 6, 8))
    d3_naive = _msd(pairs, 3, "naive", (2, 4, 6, 8))
    _criterion(
        4,
        d1_ours <= d1_naive and d3_ours <= d3_naive,
        f"dataset 1: ours {d1_ours:.4f} <= naive {d1_naive:.4f}; "
        f"dataset 3: ours {d3_ours:.4f} <= naive {d3_naive:.4f}",
    )


def test_mass_floor_logged_not_crashed(sweep):
    # Invariant companion to the sweep: learned partitions keep every cell
    # above 1% mass at the paper's settings; violations are report flags.
    by_run, _ = sweep
    flagged = [key for key, rep in by_run.items() if rep.method == "ours" and rep.mass_floor_violated]
    assert not flagged, f"cell-mass floor violated in runs: {flagged}"


def test_criterion_5_algebraic_identities():
    rng = stream_rng(11, "acceptance")
    worst_k1 = 0.0
    worst_pair = 0.0
    for _ in range(500):
        k = int(rng.integers(1, 8))
        pi = rng.random(k)
        mu1 = rng.normal(size=k) * 2
        mu0 = rng.normal(size=k) * 2
        s1 = float(rng.normal())
        r = OutcomeRange(s1, s1 + float(rng.random() * 3 + 0.05))
        b_plus, b_minus = bounds.pairwise_bound_matrix(pi, mu1, mu0, r)
        expected = ((1.0 - pi)[:, None] + pi[None, :]) * r.width
        worst_pair = max(worst_pair, float(np.max(np.abs((b_plus - b_minus) - expected))))
        lo, up, _, _ = bounds.tightest_bounds(*bounds.pairwise_bound_matrix(pi[:1], mu1[:1], mu0[:1], r))
        worst_k1 = max(worst_k1, abs((up - lo) - r.width))
    _criterion(
        5,
        worst_k1 < 1e-9 and worst_pair < 1e-12,
        f"k=1 width error {worst_k1:.2e} (< 1e-9), pairwise width identity error {worst_pair:.2e} (< 1e-12)",
    )


def test_criterion_6_oracle_validity():
    # Enumerable DGP: binary Z, binary U, exact nuisances via enumeration.
    pu = {0: 0.7, 1: 0.3}

    def prop(z, u, x):
        return 1.0 / (1.0 + np.exp(-(1.5 * z - 0.8 * u + 0.4 * x - 0.2)))

    def outcome(x, a, u):
        return 1.0 / (1.0 + np.exp(-(0.8 * a + 0.5 * x - 0.4 * u + 0.3 * a * x)))

    x_grid = np.linspace(-1, 1, 101)
    pi = np.empty((101, 2))
    mu1 = np.empty((101, 2))
    mu0 = np.empty((101, 2))
    tau = np.empty(101)
    for i, x in enumerate(x_grid):
        tau[i] = sum(pu[u] * (outcome(x, 1, u) - outcome(x, 0, u)) for u in (0, 1))
        for j, z in enumerate((0, 1)):
            pi[i, j] = sum(pu[u] * prop(z, u, x) for u in (0, 1))
            for arm in (0, 1):
                w = {u: pu[u] * (prop(z, u, x) if arm == 1 else 1 - prop(z, u, x)) for u in (0, 1)}
                val = sum(w[u] * outcome(x, arm, u) for u in (0, 1)) / sum(w.values())
                (mu1 if arm == 1 else mu0)[i, j] = val
    discrete_pair = bounds.discrete_bounds_on_grid(x_grid, pi, mu1, mu0, OutcomeRange(0.0, 1.0))
    discrete_ok = bool(np.all(discrete_pair.lower <= tau) and np.all(tau <= discrete_pair.upper))

    split = data.split_dataset(data.generate_dataset3(2000, 0), 0)
    rng_range = data.outcome_range_from_train(split.train)
    oracle_pair = metrics.oracle_bounds_dataset3(x_grid, rng_range, n_u=10_001)
    tau3 = data.tau_dataset3(x_grid)
    oracle_ok = bool(np.all(oracle_pair.lower <= tau3) and np.all(tau3 <= oracle_pair.upper))
    _criterion(
        6,
        discrete_ok and oracle_ok,
        f"discrete-DGP containment at 101/101 points: {discrete_ok}; "
        f"dataset-3 oracle containment at 101/101 points: {oracle_ok}",
    )


def test_criterion_7_estimator_consistency():
    x = 0.3
    pi_pop, mu_pop, _ = metrics.cell_nuisances(metrics.synthetic_nuisances, metrics.synthetic_eta, [0.0],
                                               np.array([x]))
    deviations = []
    for n in (1_000, 10_000, 100_000):
        z = data._mixture_instrument(n, 5)
        a = (stream_rng(5, "treat").random(n) < metrics.synthetic_eta(z)).astype(int)
        rep = metrics.synthetic_plugin_aggregates(x, z, a)
        mu_vals, pi_vals = rep.mu1[0], rep.pi[0]
        dev = max(
            max(abs(mu_vals[c] - mu_pop[0, c]) for c in range(2)),
            max(abs(pi_vals[c] - pi_pop[0, c]) for c in range(2)),
        )
        deviations.append(dev)
    monotone = deviations[0] >= deviations[1] >= deviations[2]
    _criterion(
        7,
        deviations[-1] < 0.02 and monotone,
        f"deviation at n=1e5: {deviations[-1]:.4f} (< 0.02); sequence {[f'{d:.4f}' for d in deviations]} non-increasing",
    )


def test_criterion_8_variance_formulas():
    results = checks.variance_checks(replicates=10_000, n=1_000)
    assert len(results) == 4  # two configs x both estimators
    names = {r.name for r in results}
    assert any("mu" in n for n in names) and any("pi" in n for n in names)
    worst = max(float(r.detail.split("rel err ")[1].rstrip(")")) for r in results)
    _criterion(
        8,
        all(r.passed for r in results),
        f"both estimators, two (p, q) configs each, max relative error {worst:.3f} (< 0.10)",
    )


def test_criterion_9_bias_variance_identity():
    report = metrics.decomposition_check(x=0.2, n=1_000, replicates=2_000, seed=0, b_star_upper=0.3)
    _criterion(
        9,
        report.identity_relative_error < 0.05 and report.factor2_lhs <= report.factor2_rhs + 1e-12,
        f"identity relative error {report.identity_relative_error:.2e} (< 0.05); "
        f"factor-2 bound {report.factor2_lhs:.4f} <= {report.factor2_rhs:.4f}",
    )


def test_criterion_10_gradient_integrity():
    results = checks.gradient_checks(tolerance=1e-4)
    _criterion(
        10,
        all(r.passed for r in results),
        f"{len(results)} stage-2 loss checks (each term, warm start, straight-through) at 1e-4: "
        + "; ".join(r.detail for r in results),
    )
