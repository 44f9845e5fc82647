import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ivbounds import bounds, data, metrics
from ivbounds.data import OutcomeRange
from ivbounds.rng import stream_rng

UNIT = OutcomeRange(0.0, 1.0)


def test_one_hot_rows_and_masses():
    weights = bounds.one_hot(np.array([0, 1, 1, 0]), k=3)
    np.testing.assert_array_equal(weights, [[1, 0, 0], [0, 1, 0], [0, 1, 0], [1, 0, 0]])
    assert weights.dtype == np.float64
    np.testing.assert_allclose(weights.mean(axis=0), [0.5, 0.5, 0.0])
    assert weights.mean(axis=0).sum() == pytest.approx(1.0)


# ------------------------------------------------------------ aggregates


def _at_one_point(mu, pi, eta, a, weights):
    """The aggregate kernel at a single query point, one outcome prediction for both arms."""
    return bounds.aggregate_cells(np.zeros(1), mu[None, :], mu[None, :], pi[None, :], eta, a, weights)


def test_aggregate_constant_nuisances_recover_constant():
    c, p = 0.37, 0.6
    rng = stream_rng(0, "agg")
    n = 100_000
    z = rng.normal(size=n)
    a = (rng.random(n) < p).astype(int)
    weights = bounds.one_hot((z > 0).astype(int), 2)
    rep = _at_one_point(np.full(n, c), np.full(n, 0.5), np.full(n, p), a, weights)
    assert rep.valid_l.all()
    assert np.all(np.abs(rep.mu1[0] - c) < 0.02)


def test_aggregate_single_cell_reduces_to_simple_ratio():
    rng = stream_rng(1, "agg")
    n = 50
    mu = rng.normal(size=n)
    eta = rng.random(n)
    a = (rng.random(n) < 0.5).astype(int)
    weights = np.ones((n, 1))
    rep = _at_one_point(mu, np.full(n, 0.5), eta, a, weights)
    expected = np.sum(mu * eta) / np.sum(a == 1)
    assert rep.valid_l[0]
    assert rep.mu1[0, 0] == pytest.approx(expected, rel=1e-12)


def test_aggregate_empty_cell_arm_is_masked():
    # Both samples are untreated and sit in cell 0; cell 1 is empty.
    mu = np.array([1.0, 2.0])
    eta = np.array([0.5, 0.5])
    a = np.array([0, 0])
    weights = np.array([[1.0, 0.0], [1.0, 0.0]])
    rep = _at_one_point(mu, np.full(2, 0.5), eta, a, weights)
    # Cell 0 has arm 0 only: usable on the m side alone. Cell 1 is usable on neither.
    np.testing.assert_array_equal(rep.valid_l, [False, False])
    np.testing.assert_array_equal(rep.valid_m, [True, False])
    assert rep.mu1[0, 0] == 0.0
    assert rep.mu0[0, 0] == pytest.approx(0.75, abs=1e-15)
    with pytest.raises(bounds.EmptyCellError):
        bounds.bounds_on_grid(rep, UNIT)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda k: st.tuples(
            st.just(k),
            st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, 1)), min_size=1, max_size=30),
        )
    ),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_aggregate_cells_hard_weights_match_brute_force(case, seed):
    k, samples = case
    labels = np.array([cell for cell, _ in samples])
    a = np.array([arm for _, arm in samples])
    n, nq = len(samples), 3
    rng = np.random.default_rng(seed)
    m1, m0, p = rng.normal(size=(nq, n)), rng.normal(size=(nq, n)), rng.random((nq, n))
    eta = rng.random(n)
    weights = bounds.one_hot(labels, k)
    rep = bounds.aggregate_cells(np.linspace(-1, 1, nq), m1, m0, p, eta, a, weights)
    for cell in range(k):
        members = labels == cell
        n1, n0 = int(np.sum(members & (a == 1))), int(np.sum(members & (a == 0)))
        # An empty cell-arm is masked on its own side only, never raised.
        assert rep.valid_l[cell] == (n1 > 0)
        assert rep.valid_m[cell] == (n0 > 0)
        expected_mu1 = (m1[:, members] * eta[members]).sum(axis=1) / n1 if n1 else np.zeros(nq)
        expected_mu0 = (m0[:, members] * (1.0 - eta[members])).sum(axis=1) / n0 if n0 else np.zeros(nq)
        expected_pi = p[:, members].mean(axis=1) if members.any() else np.zeros(nq)
        np.testing.assert_allclose(rep.mu1[:, cell], expected_mu1, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(rep.mu0[:, cell], expected_mu0, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(rep.pi[:, cell], expected_pi, rtol=1e-12, atol=1e-12)


def test_pi_aggregate_constant_is_exact():
    rng = stream_rng(2, "agg")
    weights = bounds.one_hot(rng.integers(0, 3, 200), 3)
    rep = _at_one_point(np.zeros(200), np.full(200, 0.42), np.full(200, 0.5), np.arange(200) % 2, weights)
    np.testing.assert_allclose(rep.pi[0][rep.valid_l | rep.valid_m], 0.42, atol=1e-12)


def test_pi_aggregate_separable_split():
    z = np.linspace(-1, 1, 400)
    pi_at_x = (z > 0).astype(np.float64)
    weights = bounds.one_hot((z > 0).astype(int), 2)
    rep = _at_one_point(np.zeros(400), pi_at_x, np.full(400, 0.5), np.arange(400) % 2, weights)
    assert (rep.valid_l & rep.valid_m).all()
    np.testing.assert_array_equal(rep.pi[0], [0.0, 1.0])


def _synthetic_mu(x, z):
    return 0.3 + 0.2 * x + 0.1 * np.sin(3.0 * z)


def _synthetic_eta(z):
    return 1.0 / (1.0 + np.exp(-1.2 * z))


def _synthetic_pi(x, z):
    return 0.5 + 0.3 * np.tanh(z) + 0.1 * x


def _synthetic_nuisances(x, z):
    return _synthetic_pi(x, z), _synthetic_mu(x, z), _synthetic_mu(x, z)


def test_plugin_aggregates_match_quadrature_oracle():
    # Fixed synthetic nuisances, dataset-1 instrument law, hard split at 0,
    # treatments sampled from the same eta so the population weight matches.
    n = 100_000
    x = 0.3
    z = data._mixture_instrument(n, 5)
    a = (stream_rng(5, "treat").random(n) < _synthetic_eta(z)).astype(int)
    weights = bounds.one_hot((z >= 0).astype(int), 2)

    m = _synthetic_mu(x, z)[None, :]
    rep = bounds.aggregate_cells(np.array([x]), m, m, _synthetic_pi(x, z)[None, :], _synthetic_eta(z), a, weights)
    mu_vals, pi_vals = rep.mu1[0], rep.pi[0]
    pi_pop, mu_pop, _ = metrics.cell_nuisances(_synthetic_nuisances, _synthetic_eta, [0.0], np.array([x]))
    for cell in range(2):
        assert abs(mu_vals[cell] - mu_pop[0, cell]) < 0.02
        assert abs(pi_vals[cell] - pi_pop[0, cell]) < 0.01


# ------------------------------------------------------------ bound algebra


def test_pairwise_bound_matrix_hand_example():
    pi = np.array([0.8, 0.3])
    mu1 = np.array([0.6, 0.0])
    mu0 = np.array([0.0, 0.2])
    b_plus, b_minus = bounds.pairwise_bound_matrix(pi, mu1, mu0, UNIT)
    assert b_plus[0, 1] == pytest.approx(0.54, abs=1e-12)
    assert b_minus[0, 1] == pytest.approx(0.04, abs=1e-12)


def test_point_identification_when_propensities_saturate():
    pi = np.array([1.0, 0.0])
    mu1 = np.array([0.7, 0.4])
    mu0 = np.array([0.5, 0.2])
    b_plus, b_minus = bounds.pairwise_bound_matrix(pi, mu1, mu0, UNIT)
    assert b_plus[0, 1] == pytest.approx(0.7 - 0.2, abs=1e-12)
    assert b_minus[0, 1] == pytest.approx(0.7 - 0.2, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(min_value=0, max_value=1), min_size=2, max_size=6),
    st.floats(min_value=-2, max_value=2),
    st.floats(min_value=0.1, max_value=3),
)
def test_pairwise_width_identity(pis, s1, width):
    rng = OutcomeRange(s1, s1 + width)
    pi = np.asarray(pis)
    k = len(pi)
    mu1 = np.linspace(-1, 1, k)
    mu0 = np.linspace(1, -1, k)
    b_plus, b_minus = bounds.pairwise_bound_matrix(pi, mu1, mu0, rng)
    expected = ((1.0 - pi)[:, None] + pi[None, :]) * rng.width
    np.testing.assert_allclose(b_plus - b_minus, expected, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0, max_value=1), st.floats(-5, 5), st.floats(-5, 5))
def test_k1_width_is_outcome_range(pi, mu1, mu0):
    pair = bounds.discrete_bounds_on_grid(np.zeros(1), np.array([[pi]]), np.array([[mu1]]), np.array([[mu0]]), UNIT)
    assert pair.width[0] == pytest.approx(UNIT.width, abs=1e-9)


def test_tightest_bounds_brute_force_equivalence():
    rng = stream_rng(3, "bf")
    for _ in range(50):
        k = int(rng.integers(1, 6))
        b_plus = rng.normal(size=(k, k))
        b_minus = rng.normal(size=(k, k))
        # Inject ties to exercise the lexicographic rule.
        if k > 1:
            b_plus[0, 0] = b_plus[k - 1, k - 1] = b_plus.min() - 1.0
        lower, upper, lower_pair, upper_pair = bounds.tightest_bounds(b_plus, b_minus)
        flat_up = min(((b_plus[l, m], (l, m)) for l in range(k) for m in range(k)), key=lambda t: (t[0], t[1]))
        flat_lo = max(((b_minus[l, m], (l, m)) for l in range(k) for m in range(k)), key=lambda t: (t[0], [-v for v in t[1]]))
        assert upper == flat_up[0]
        assert tuple(upper_pair) == flat_up[1]
        assert lower == flat_lo[0]
        assert tuple(lower_pair) == flat_lo[1]


def test_single_dominating_pair_returned_with_indices():
    b_plus = np.full((3, 3), 5.0)
    b_plus[1, 2] = -1.0
    b_minus = np.full((3, 3), -5.0)
    b_minus[2, 0] = 2.0
    lower, upper, lower_pair, upper_pair = bounds.tightest_bounds(b_plus, b_minus)
    assert (upper, tuple(upper_pair)) == (-1.0, (1, 2))
    assert (lower, tuple(lower_pair)) == (2.0, (2, 0))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda k: st.tuples(
            st.lists(st.booleans(), min_size=k, max_size=k).filter(any),
            st.lists(st.booleans(), min_size=k, max_size=k).filter(any),
        )
    ),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@example(masks=([True, True, False, True, True], [True, False, True, True, True]), seed=4)
def test_grid_reduction_matches_per_point_reduction(masks, seed):
    valid_l, valid_m = np.array(masks[0]), np.array(masks[1])
    k, nq = len(valid_l), 23
    rng = np.random.default_rng(seed)
    rep = bounds.RepresentationNuisance(
        x=np.linspace(-1, 1, nq),
        pi=rng.random((nq, k)),
        mu1=rng.normal(size=(nq, k)),
        mu0=rng.normal(size=(nq, k)),
        valid_l=valid_l,
        valid_m=valid_m,
    )
    pair = bounds.bounds_on_grid(rep, UNIT)
    for i in range(nq):
        b_plus, b_minus = bounds.pairwise_bound_matrix(rep.pi[i], rep.mu1[i], rep.mu0[i], UNIT)
        lo, up, _, _ = bounds.tightest_bounds(b_plus, b_minus, valid_l, valid_m)
        assert pair.lower[i] == lo
        assert pair.upper[i] == up
        # Rounding can tie two pairs, so check the chosen pair rather than compare pairs.
        for (l, m), value, matrix in ((pair.upper_pair[i], up, b_plus), (pair.lower_pair[i], lo, b_minus)):
            assert valid_l[l] and valid_m[m]
            assert matrix[l, m] == value


def test_duplicate_cell_leaves_bounds_unchanged():
    rng = stream_rng(5, "dup")
    nq, k = 11, 3
    x = np.linspace(-1, 1, nq)
    pi = rng.random((nq, k))
    mu1 = rng.normal(size=(nq, k))
    mu0 = rng.normal(size=(nq, k))
    base = bounds.discrete_bounds_on_grid(x, pi, mu1, mu0, UNIT)
    dup = bounds.discrete_bounds_on_grid(
        x,
        np.concatenate([pi, pi[:, :1]], axis=1),
        np.concatenate([mu1, mu1[:, :1]], axis=1),
        np.concatenate([mu0, mu0[:, :1]], axis=1),
        UNIT,
    )
    np.testing.assert_allclose(dup.lower, base.lower, atol=1e-12)
    np.testing.assert_allclose(dup.upper, base.upper, atol=1e-12)
    # Relabeling the cells moves the selected pairs with them and nothing else.
    perm = np.array([2, 0, 1])
    permuted = bounds.discrete_bounds_on_grid(x, pi[:, perm], mu1[:, perm], mu0[:, perm], UNIT)
    np.testing.assert_array_equal(permuted.lower, base.lower)
    np.testing.assert_array_equal(permuted.upper, base.upper)
    np.testing.assert_array_equal(perm[permuted.upper_pair], base.upper_pair)
    np.testing.assert_array_equal(perm[permuted.lower_pair], base.lower_pair)


def test_no_valid_pair_raises():
    with pytest.raises(bounds.EmptyCellError):
        bounds.tightest_bounds(np.zeros((2, 2)), np.zeros((2, 2)), np.array([False, False]), np.array([True, True]))


# ------------------------------------------------- discrete DGP validity


def _enumerable_dgp():
    pz = {0: 0.4, 1: 0.6}
    pu = {0: 0.7, 1: 0.3}

    def prop(z, u, x):
        return 1.0 / (1.0 + np.exp(-(1.5 * z - 0.8 * u + 0.4 * x - 0.2)))

    def outcome(x, a, u):
        return 1.0 / (1.0 + np.exp(-(0.8 * a + 0.5 * x - 0.4 * u + 0.3 * a * x)))

    return pz, pu, prop, outcome


def test_discrete_bounds_contain_cate_on_enumerable_dgp():
    pz, pu, prop, outcome = _enumerable_dgp()
    x_grid = np.linspace(-1, 1, 101)
    levels = [0, 1]
    pi = np.empty((101, 2))
    mu1 = np.empty((101, 2))
    mu0 = np.empty((101, 2))
    tau = np.empty(101)
    for i, x in enumerate(x_grid):
        tau[i] = sum(pu[u] * (outcome(x, 1, u) - outcome(x, 0, u)) for u in (0, 1))
        for j, z in enumerate(levels):
            pi[i, j] = sum(pu[u] * prop(z, u, x) for u in (0, 1))
            for arm in (0, 1):
                w = {u: pu[u] * (prop(z, u, x) if arm == 1 else 1 - prop(z, u, x)) for u in (0, 1)}
                val = sum(w[u] * outcome(x, arm, u) for u in (0, 1)) / sum(w.values())
                (mu1 if arm == 1 else mu0)[i, j] = val
    pair = bounds.discrete_bounds_on_grid(x_grid, pi, mu1, mu0, UNIT)
    assert np.all(pair.lower <= tau + 1e-12)
    assert np.all(tau <= pair.upper + 1e-12)
    del pz


# ------------------------------------------------- population oracle


@pytest.fixture(scope="module")
def d1_range():
    split = data.split_dataset(data.generate_dataset1(2000, 0), 0)
    return data.outcome_range_from_train(split.train)


def test_population_oracle_dataset1_contains_cate(d1_range):
    x_grid = np.linspace(-1, 1, 21)
    pair = metrics.population_bounds_oracle(1, [-0.5, 0.5], d1_range, x_grid, n_z=801, n_u=401, n_s=801)
    tau = data.tau_dataset12(x_grid)
    assert np.all(pair.lower <= tau)
    assert np.all(tau <= pair.upper)
    # Cells of different instrument strength: narrower than the outcome range.
    assert np.all(pair.width < d1_range.width - 0.1)


def test_population_oracle_single_cell_width(d1_range):
    x_grid = np.linspace(-1, 1, 5)
    pair = metrics.population_bounds_oracle(1, [], d1_range, x_grid, n_z=401, n_u=201, n_s=401)
    np.testing.assert_allclose(pair.width, d1_range.width, atol=1e-9)


def test_population_oracle_flags_nonconvergence(d1_range):
    with pytest.raises(metrics.QuadratureError):
        metrics.population_bounds_oracle(1, [0.0], d1_range, np.linspace(-1, 1, 3), n_z=7, n_u=5, n_s=7)


def test_dataset3_pattern_enumeration_matches_level_bounds(d1_range):
    x_grid = np.linspace(-1, 1, 11)
    pi6, mu16, mu06, _ = metrics.dataset3_level_nuisances(x_grid, n_u=2001)
    level_pair = bounds.discrete_bounds_on_grid(x_grid, pi6, mu16, mu06, d1_range)
    # One level per first-five-bit pattern; nuisances depend on the pattern
    # only through its popcount, so bounds must agree exactly.
    patterns = np.array([bin(p).count("1") for p in range(32)])
    pi32, mu132, mu032, _ = metrics.dataset3_level_nuisances(x_grid, n_u=2001, levels=patterns)
    pattern_pair = bounds.discrete_bounds_on_grid(x_grid, pi32, mu132, mu032, d1_range)
    np.testing.assert_allclose(pattern_pair.lower, level_pair.lower, atol=1e-12)
    np.testing.assert_allclose(pattern_pair.upper, level_pair.upper, atol=1e-12)


def _level_nuisances_per_x(x_grid, n_u, levels):
    """Reference: the one-x-at-a-time loop that dataset3_level_nuisances replaced."""
    u, w = metrics._trapezoid_weights(-1.0, 1.0, n_u)
    pi = np.empty((len(x_grid), len(levels)))
    mu1 = np.empty_like(pi)
    mu0 = np.empty_like(pi)
    tau = data.tau_dataset3(x_grid)
    for j, r in enumerate(levels):
        for i, x in enumerate(x_grid):
            pi_u = data.propensity_dataset3(float(r), float(x), u)
            pi[i, j] = np.sum(pi_u * w) / 2.0
            for arm, out in ((1, mu1), (0, mu0)):
                fac = pi_u if arm == 1 else 1.0 - pi_u
                eu = np.sum(fac * w * u) / np.sum(fac * w)
                out[i, j] = 0.25 * x + 0.125 * eu + tau[i] * arm
    return pi, mu1, mu0


@pytest.mark.parametrize("n_u", [1001, 2001])
def test_dataset3_level_nuisances_are_bitwise_the_per_x_loop(n_u):
    # 37 query points: two full blocks and a ragged one.
    x_grid = stream_rng(5, "oracle-grid").uniform(-1.0, 1.0, 37)
    patterns = np.array([bin(p).count("1") for p in range(32)])
    for levels in (np.arange(6), patterns):
        explicit = None if len(levels) == 6 else levels
        *got, used = metrics.dataset3_level_nuisances(x_grid, n_u=n_u, levels=explicit)
        np.testing.assert_array_equal(used, levels)
        for g, w in zip(got, _level_nuisances_per_x(x_grid, n_u, levels)):
            assert np.array_equal(g, w)


# ------------------------------------------------- csv round trip


def test_bound_csv_round_trip(tmp_path):
    rng = stream_rng(6, "csv")
    pair = bounds.discrete_bounds_on_grid(
        np.linspace(-1, 1, 9), rng.random((9, 3)), rng.normal(size=(9, 3)), rng.normal(size=(9, 3)), UNIT
    )
    path = tmp_path / "bounds.csv"
    pair.to_csv(path)
    loaded = bounds.BoundPair.from_csv(path)
    np.testing.assert_array_equal(loaded.x, pair.x)
    np.testing.assert_array_equal(loaded.lower, pair.lower)
    np.testing.assert_array_equal(loaded.upper, pair.upper)
    np.testing.assert_array_equal(loaded.upper_pair, pair.upper_pair)
    np.testing.assert_array_equal(loaded.lower_pair, pair.lower_pair)
