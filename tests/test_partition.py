import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivbounds import bounds, data, nets, nuisance, partition
from ivbounds.data import OutcomeRange
from ivbounds.nets import PartitionNet, TrainConfig, sample_gumbel
from ivbounds.rng import stream_rng

UNIT = OutcomeRange(0.0, 1.0)


@pytest.fixture(scope="module")
def small_setup():
    split = data.split_dataset(data.generate_dataset1(600, 0), 0)
    config = TrainConfig(seed=0, max_epochs=6, batch_size=120, k=2)
    nuis = nuisance.fit_nuisances(split, TrainConfig(seed=0, max_epochs=8))
    return split, nuis, config


# ------------------------------------------------------------ loss terms


def _flat_constants(n):
    """Batch constants with flat nuisances, for the mass and aux terms."""
    return partition.BatchConstants(
        m1=np.zeros((n, n)), m0=np.zeros((n, n)), p=np.full((n, n), 0.5), eta=np.full(n, 0.5),
        a=(np.arange(n) % 2).astype(np.float64), z=np.zeros((n, 1)), x=np.zeros(n),
    )


def _l_reg(weights):
    breakdown, _ = partition.composite_losses(weights, np.zeros_like(weights), _flat_constants(len(weights)), UNIT,
                                              1.0, 0.0)
    return breakdown.l_reg


def _soft_weights(net, z):
    """Noise-free soft cell weights of the partition net."""
    return nets.gumbel_softmax(net.logits(z), None, 1.0)


def _l_b(net, const, rng_range):
    weights = _soft_weights(net, const.z)
    breakdown, _ = partition.composite_losses(weights, np.zeros_like(weights), const, rng_range, 0.0, 0.0)
    return breakdown.l_b


def test_loss_reg_uniform_masses():
    assert _l_reg(bounds.one_hot(np.array([0, 1] * 10), 2)) == pytest.approx(2 * np.log(2), abs=1e-12)
    assert _l_reg(bounds.one_hot(np.array([0, 1, 2] * 10), 3)) == pytest.approx(3 * np.log(3), abs=1e-12)


def test_loss_reg_penalizes_imbalance():
    w = np.zeros((100, 2))
    w[:99, 0] = 1.0
    w[99:, 1] = 1.0
    val = _l_reg(w)
    assert val == pytest.approx(-np.log(0.99) - np.log(0.01), abs=1e-9)
    assert val > 2 * np.log(2)


def test_loss_reg_minimum_over_simplex():
    rng = stream_rng(0, "reg")
    k = 3
    floor = k * np.log(k)
    for _ in range(200):
        masses = rng.dirichlet(np.ones(k))
        val = -np.sum(np.log(np.maximum(masses, 1e-8)))
        assert val >= floor - 1e-9


def test_loss_reg_clamps_empty_cell(caplog):
    weights = bounds.one_hot(np.zeros(10, dtype=int), 2)
    with caplog.at_level("WARNING"):
        val = _l_reg(weights)
    assert val == pytest.approx(-np.log(1.0) - np.log(1e-8))
    assert any("clamped" in rec.message for rec in caplog.records)


def test_loss_aux_perfect_head_and_uniform_head():
    net = PartitionNet.create(1, 2, stream_rng(1, "init"))
    z = np.linspace(-1, 1, 50)

    def l_aux():
        _, aux = net.forward(z)
        weights = partition.hard_assignment(net, z)
        breakdown, _ = partition.composite_losses(weights, aux, _flat_constants(len(z)), UNIT, 0.0, 1.0)
        return breakdown.l_aux

    # Rig the aux head to copy the assignment logits scaled up: near-zero CE.
    net.params["aux.w"][:] = net.params["logits.w"] * 200.0
    net.params["aux.b"][:] = net.params["logits.b"] * 200.0
    assert l_aux() < 1e-3
    # Uniform head: CE equals log k.
    net.params["aux.w"][:] = 0.0
    net.params["aux.b"][:] = 0.0
    assert l_aux() == pytest.approx(np.log(2), abs=1e-12)


def test_loss_bound_k1_equals_outcome_range(small_setup):
    split, nuis, _ = small_setup
    net = PartitionNet.create(1, 1, stream_rng(2, "init"))
    val = _l_b(net, partition.batch_constants(nuis, split.val), UNIT)
    assert val == pytest.approx(UNIT.width, abs=1e-12)


def test_loss_bound_equals_mean_of_bound_engine_widths(small_setup):
    split, nuis, _ = small_setup
    net = PartitionNet.create(1, 3, stream_rng(3, "init"))
    batch = split.val
    const = partition.batch_constants(nuis, batch)
    weights = _soft_weights(net, batch.z)
    breakdown, _ = partition.composite_losses(weights, np.zeros_like(weights), const, UNIT, 0.0, 0.0)
    # Per-sample widths through the bound-engine path with the same weights.
    rep = bounds.representation_from_estimates(nuis, weights, batch.z, batch.a, batch.x)
    pair = bounds.bounds_on_grid(rep, UNIT)
    assert breakdown.l_b == pytest.approx(float(np.mean(pair.width)), abs=1e-12)


def test_graph_loss_matches_numpy_loss(small_setup):
    split, nuis, config = small_setup
    net = PartitionNet.create(1, 2, stream_rng(4, "init"))
    const = partition.batch_constants(nuis, split.val)
    noise = sample_gumbel((len(split.val), 2), stream_rng(4, "noise"))
    root, parts, _, _ = partition.composite_loss_graph(net, const, UNIT, config, noise, hard=True)
    # Recompute in numpy using the same straight-through hard weights; the
    # training-graph L_reg intentionally uses the soft masses instead.
    logits, aux_logits = net.forward(split.val.z)
    soft = nets.gumbel_softmax(logits, noise, config.temperature)
    weights = bounds.one_hot(np.argmax(soft, axis=1), 2)
    breakdown, _ = partition.composite_losses(weights, aux_logits, const, UNIT, config.lam, config.gamma)
    soft_l_reg = float(-np.sum(np.log(np.maximum(soft.mean(axis=0), partition.MASS_CLAMP))))
    assert parts["l_b"] == pytest.approx(breakdown.l_b, abs=1e-10)
    assert parts["l_reg"] == pytest.approx(soft_l_reg, abs=1e-10)
    assert parts["l_aux"] == pytest.approx(breakdown.l_aux, abs=1e-10)
    expected_total = breakdown.l_b + config.lam * soft_l_reg + config.gamma * breakdown.l_aux
    assert float(root.value) == pytest.approx(expected_total, abs=1e-10)


def test_composite_gradient_matches_finite_differences(small_setup):
    # Soft mode on a tiny instance: FD is well-posed and must agree.
    split, nuis, _ = small_setup
    batch = split.train.subset(np.arange(16))
    const = partition.batch_constants(nuis, batch)
    config = TrainConfig(seed=0, k=2, batch_size=16)
    net = PartitionNet.create(1, 2, stream_rng(5, "init"))
    noise = sample_gumbel((16, 2), stream_rng(5, "noise"))

    def loss_value() -> float:
        root, _, _, _ = partition.composite_loss_graph(net, const, UNIT, config, noise, hard=False)
        return float(root.value)

    _, _, grads = partition.composite_loss_and_grad(net, const, UNIT, config, noise, hard=False)
    assert set(grads) == set(net.params)
    step = 1e-6
    worst = 0.0
    for name in net.params:
        base = net.params[name].copy()
        for flat in range(base.size):
            for sign in (+1.0, -1.0):
                net.params[name].flat[flat] = base.flat[flat] + sign * step
                if sign > 0:
                    up = loss_value()
                else:
                    down = loss_value()
            net.params[name].flat[flat] = base.flat[flat]
            numeric = (up - down) / (2 * step)
            analytic = grads[name].flat[flat]
            worst = max(worst, abs(analytic - numeric) / (abs(analytic) + 1e-8))
        net.params[name] = base
    assert worst < 1e-3


# ------------------------------------------------------------ bitwise the op-by-op graph
#
# The composite loss once ran as an autodiff graph of elementwise, matmul and
# reduction nodes. The reference below transcribes that graph op by op:
# cells are selected by matmuls with 0/1 selection matrices, min/max pass
# their gradient to the first extreme entry of a row, and every array sums
# its gradient contributions in the order the graph's reverse topological
# sweep added them. Hard mode must match it bit for bit; soft mode sums its
# cell counts and the seven contributions to the soft weights' gradient in
# another order, so it matches to rounding.


def _one_hot(labels, k):
    return np.eye(k)[labels]


def _ref_cross_entropy(logits, onehot, g):
    """log_softmax, mul by the labels, sum over cells, mean, neg; and back."""
    n, k = logits.shape
    shifted = logits - logits.max(axis=-1, keepdims=True)
    ls = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    value = -np.mean(np.sum(onehot * ls, axis=1))
    g_ls = np.repeat(np.full(n, float(-g) / n)[:, None], k, axis=1) * onehot
    return float(value), g_ls - np.exp(ls) * g_ls.sum(axis=-1, keepdims=True)


def _ref_composite(logits, aux, const, rng_range, lam, gamma, temperature, noise, hard):
    """(total, parts, logits gradient, aux gradient) of the op-by-op graph."""
    n, k = logits.shape
    m1, m0, p, eta, a = const.m1, const.m0, const.p, const.eta, const.a
    s1, s2 = float(rng_range.s1), float(rng_range.s2)
    grads = {}

    def acc(name, g):
        grads[name] = g if name not in grads else grads[name] + g

    noisy = logits if noise is None else logits + noise
    scaled = noisy / float(temperature)
    e = np.exp(scaled - scaled.max(axis=-1, keepdims=True))
    soft = e / e.sum(axis=-1, keepdims=True)
    weights = _one_hot(np.argmax(soft, axis=1), k) if hard else soft
    c_n = np.full((1, n), 1.0 / n)
    masses = c_n @ soft
    clip = np.maximum(masses, partition.MASS_CLAMP)
    l_reg = -np.sum(np.log(clip))
    l_aux, g_aux = _ref_cross_entropy(aux, _one_hot(np.argmax(weights, axis=1), k), 1.0 * gamma)
    c_a, c_1ma, ones_row, ones_col = a.reshape(1, n), (1.0 - a).reshape(1, n), np.ones((1, n)), np.ones((n, 1))
    arm1, arm0, mass_counts = c_a @ weights, c_1ma @ weights, ones_row @ weights
    valid_l = (arm1[0] > 0) & (mass_counts[0] > 0)
    valid_m = (arm0[0] > 0) & (mass_counts[0] > 0)
    l_b = None
    if valid_l.any() and valid_m.any():
        s_l, s_m = np.eye(k)[:, valid_l], np.eye(k)[:, valid_m]
        c1, c0 = m1 * eta[None, :], m0 * (1.0 - eta)[None, :]
        num1, den1 = (c1 @ weights) @ s_l, ones_col @ (arm1 @ s_l)
        mu1 = num1 / den1
        num0, den0 = (c0 @ weights) @ s_m, ones_col @ (arm0 @ s_m)
        mu0 = num0 / den0
        pnum = p @ weights
        pl_num, pl_den = pnum @ s_l, ones_col @ (mass_counts @ s_l)
        pi_l = pl_num / pl_den
        pm_num, pm_den = pnum @ s_m, ones_col @ (mass_counts @ s_m)
        pi_m = pm_num / pm_den
        one_l, one_m = -pi_l + 1.0, -pi_m + 1.0
        a_up, a_lo = pi_l * mu1 + one_l * s2, pi_l * mu1 + one_l * s1
        b_up, b_lo = one_m * mu0 + pi_m * s1, one_m * mu0 + pi_m * s2
        upper = np.min(a_up, axis=1) - np.max(b_up, axis=1)
        lower = np.max(a_lo, axis=1) - np.min(b_lo, axis=1)
        l_b = np.mean(upper - lower)
        total = l_b + (l_reg * lam + l_aux * gamma)
    else:
        total = l_reg * lam + l_aux * gamma

    # Backward sweep: L_aux, then L_reg, then L_b's lower bound before its upper.
    acc("soft", c_n.T @ ((np.full_like(masses, float(-(1.0 * lam))) / clip) * (masses > partition.MASS_CLAMP)))
    if l_b is not None:
        rows = np.arange(n)
        g_upper = np.full(n, 1.0 / n)
        g_lower = -g_upper
        into = "weights" if hard else "soft"

        def pick(values, arg, g):
            out = np.zeros_like(values)
            out[rows, arg(values, axis=1)] = g
            return out

        g_blo = pick(b_lo, np.argmin, -g_lower)
        acc("pi_m", g_blo * s2)
        acc("mu0", g_blo * one_m)
        acc("pi_m", -(g_blo * mu0))
        g_alo = pick(a_lo, np.argmax, g_lower)
        acc("pi_l", -(g_alo * s1))
        acc("pi_l", g_alo * mu1)
        acc("mu1", g_alo * pi_l)
        g_bup = pick(b_up, np.argmax, -g_upper)
        acc("pi_m", g_bup * s1)
        acc("mu0", g_bup * one_m)
        g_mu0 = grads["mu0"]
        acc(into, c_1ma.T @ ((ones_col.T @ (-g_mu0 * num0 / (den0 * den0))) @ s_m.T))
        acc(into, c0.T @ ((g_mu0 / den0) @ s_m.T))
        acc("pi_m", -(g_bup * mu0))
        g_pi_m = grads["pi_m"]
        acc("mass_counts", (ones_col.T @ (-g_pi_m * pm_num / (pm_den * pm_den))) @ s_m.T)
        acc("pnum", (g_pi_m / pm_den) @ s_m.T)
        g_aup = pick(a_up, np.argmin, g_upper)
        acc("pi_l", -(g_aup * s2))
        acc("pi_l", g_aup * mu1)
        acc("mu1", g_aup * pi_l)
        g_mu1 = grads["mu1"]
        acc(into, c_a.T @ ((ones_col.T @ (-g_mu1 * num1 / (den1 * den1))) @ s_l.T))
        acc(into, c1.T @ ((g_mu1 / den1) @ s_l.T))
        g_pi_l = grads["pi_l"]
        acc("mass_counts", (ones_col.T @ (-g_pi_l * pl_num / (pl_den * pl_den))) @ s_l.T)
        acc(into, ones_row.T @ grads["mass_counts"])
        acc("pnum", (g_pi_l / pl_den) @ s_l.T)
        acc(into, p.T @ grads["pnum"])
        if hard:
            acc("soft", grads["weights"])
    g_soft = grads["soft"]
    g_logits = soft * (g_soft - (g_soft * soft).sum(axis=-1, keepdims=True)) / float(temperature)
    parts = {"l_b": None if l_b is None else float(l_b), "l_reg": float(l_reg), "l_aux": l_aux}
    return float(total), parts, g_logits, g_aux


@st.composite
def _quarter_grid_batches(draw):
    """A batch, head outputs and settings for the composite loss. Every value
    is a multiple of 1/4, so argmax, min and max ties occur; with few samples
    per cell, cells go empty or hold one arm only, and one-arm batches drop L_b."""
    n, k = draw(st.integers(2, 24)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def grid(shape, lo, hi):
        return rng.integers(4 * lo, 4 * hi + 1, shape) / 4.0

    a = {"control": np.zeros(n), "treated": np.ones(n), "mixed": (rng.random(n) < 0.5) * 1.0}[
        draw(st.sampled_from(["control", "treated", "mixed", "mixed", "mixed"]))]
    const = partition.BatchConstants(m1=grid((n, n), -2, 2), m0=grid((n, n), -2, 2), p=grid((n, n), 0, 1),
                                     eta=grid(n, 0, 1), a=a, z=np.zeros((n, 1)), x=np.zeros(n))
    s1 = float(grid((), -2, 0))
    settings_ = {"lam": draw(st.sampled_from([0.0, 0.5, 1.0])), "gamma": draw(st.sampled_from([0.0, 0.25, 0.5])),
                 "temperature": draw(st.sampled_from([0.5, 1.0, 2.0]))}
    noise = grid((n, k), -1, 2) if draw(st.booleans()) else None
    return (grid((n, k), -3, 3), grid((n, k), -3, 3), const, OutcomeRange(s1, s1 + float(grid((), 1, 2))),
            settings_, noise)


@settings(max_examples=200, deadline=None)
@given(_quarter_grid_batches(), st.booleans())
def test_composite_loss_is_bitwise_the_op_by_op_graph(case, hard):
    logits, aux, const, rng_range, settings_, noise = case
    config = TrainConfig(k=logits.shape[1], batch_size=2 * logits.shape[1], **settings_)
    total, parts, info, backward = partition.composite_loss(logits, aux, const, rng_range, config, noise, hard)
    g_logits, g_aux = backward(np.float64(1.0))
    ref_total, ref_parts, ref_logits, ref_aux = _ref_composite(logits, aux, const, rng_range,
                                                               noise=noise, hard=hard, **settings_)
    assert np.array_equal(g_aux, ref_aux)
    if hard:
        assert float(total) == ref_total and parts == ref_parts
        assert np.array_equal(g_logits, ref_logits)
    else:
        assert (parts["l_b"] is None) == (ref_parts["l_b"] is None)
        assert float(total) == pytest.approx(ref_total, rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(g_logits, ref_logits, rtol=0, atol=1e-12 * max(1.0, np.abs(ref_logits).max()))
    # The warm start's cross-entropy, against labels of the same grid.
    onehot = _one_hot(np.argmax(aux, axis=1), logits.shape[1])
    value, grad = partition.cross_entropy(logits, onehot)
    ref_value, ref_grad = _ref_cross_entropy(logits, onehot, 1.0)
    assert value == ref_value and np.array_equal(grad, ref_grad)


# ------------------------------------------------------------ training


def test_train_partition_requires_frozen_nuisances(small_setup):
    split, nuis, config = small_setup
    thawed = nuisance.NuisanceSet(mu=nuis.mu, pi=nuis.pi, eta=nuis.eta, frozen=False)
    with pytest.raises(ValueError, match="frozen"):
        partition.train_partition(split, thawed, config)


def test_train_partition_leaves_nuisances_bitwise_identical(small_setup):
    split, nuis, config = small_setup
    before = nuis.fingerprint()
    net, rows, result = partition.train_partition(split, nuis, config)
    assert nuis.fingerprint() == before
    assert len(rows) == len(result.log.val_loss)
    assert set(rows[0]) == set(partition.TRAIN_LOG_COLUMNS)


def test_train_partition_k1_keeps_full_width(small_setup):
    split, nuis, _ = small_setup
    config = TrainConfig(seed=1, max_epochs=3, batch_size=120, k=1)
    rng_range = data.outcome_range_from_train(split.train)
    net, rows, _ = partition.train_partition(split, nuis, config, rng_range)
    pair, _ = partition.evaluate_bounds(net, nuis, split, rng_range)
    np.testing.assert_allclose(pair.width, rng_range.width, atol=1e-9)
    # L_reg for one cell is -log(1) = 0.
    assert rows[0]["l_reg"] == pytest.approx(0.0, abs=1e-12)


def test_train_partition_deterministic(small_setup):
    split, nuis, config = small_setup
    n1, _, _ = partition.train_partition(split, nuis, config)
    n2, _, _ = partition.train_partition(split, nuis, config)
    for name in n1.params:
        np.testing.assert_array_equal(n1.params[name], n2.params[name])


def test_relabeling_invariance(small_setup):
    split, nuis, config = small_setup
    net, _, _ = partition.train_partition(split, nuis, config)
    batch = split.test
    rng_range = data.outcome_range_from_train(split.train)
    const = partition.batch_constants(nuis, batch)
    base_b = _l_b(net, const, rng_range)
    base_reg = _l_reg(partition.hard_assignment(net, batch.z))
    perm = np.array([1, 0])
    permuted = PartitionNet.from_meta(net.meta(), net.copy_params())
    permuted.params["logits.w"] = net.params["logits.w"][:, perm].copy()
    permuted.params["logits.b"] = net.params["logits.b"][perm].copy()
    permuted.params["aux.w"] = net.params["aux.w"][:, perm].copy()
    permuted.params["aux.b"] = net.params["aux.b"][perm].copy()
    assert _l_b(permuted, const, rng_range) == pytest.approx(base_b, abs=1e-12)
    assert _l_reg(partition.hard_assignment(permuted, batch.z)) == pytest.approx(base_reg, abs=1e-12)


def test_empty_cell_arm_is_dropped_not_fatal(small_setup):
    split, nuis, config = small_setup
    # Rig a net whose cell 1 captures nothing: logits force cell 0 always.
    net = PartitionNet.create(1, 2, stream_rng(6, "init"))
    net.params["logits.w"][:] = 0.0
    net.params["logits.b"][:] = np.array([50.0, -50.0])
    const = partition.batch_constants(nuis, split.val)
    root, parts, _, info = partition.composite_loss_graph(net, const, UNIT, config, None, hard=True)
    assert np.isfinite(float(root.value))
    assert parts["l_b"] is not None  # cell 0 still valid on both sides
    assert not info["valid_l"][1] and not info["valid_m"][1]


def test_train_log_csv_round_trip(tmp_path, small_setup):
    split, nuis, config = small_setup
    _, rows, _ = partition.train_partition(split, nuis, config)
    path = tmp_path / "log.csv"
    partition.write_train_log_csv(rows, path)
    header = path.read_text().splitlines()[0]
    assert header == ",".join(partition.TRAIN_LOG_COLUMNS)
    assert len(path.read_text().splitlines()) == len(rows) + 1
