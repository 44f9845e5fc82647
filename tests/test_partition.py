import numpy as np
import pytest

from ivbounds import bounds, data, nuisance, partition
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
    weights, _, _ = net.assignment_graph(z, None, 1.0, hard=False)
    return weights.value


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
    weights, aux_logits, _ = net.assignment_graph(split.val.z, noise, config.temperature, hard=True)
    breakdown, _ = partition.composite_losses(weights.value, aux_logits.value, const, UNIT, config.lam, config.gamma)
    soft_masses = weights.parents[0].value.mean(axis=0)
    soft_l_reg = float(-np.sum(np.log(np.maximum(soft_masses, partition.MASS_CLAMP))))
    assert float(parts["l_b"].value) == pytest.approx(breakdown.l_b, abs=1e-10)
    assert float(parts["l_reg"].value) == pytest.approx(soft_l_reg, abs=1e-10)
    assert float(parts["l_aux"].value) == pytest.approx(breakdown.l_aux, abs=1e-10)
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
