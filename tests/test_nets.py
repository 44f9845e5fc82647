import pickle
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivbounds import InputError
from ivbounds import autodiff as ad
from ivbounds import checks, nets, partition
from ivbounds.data import sigmoid
from ivbounds.rng import stream_rng

STAGE1_NETS = {
    "outcome": lambda z_dim, rng: nets.TwoBranchNet.create(1, z_dim, rng, nets.OUTCOME_SPEC),
    "propensity": lambda z_dim, rng: nets.TwoBranchNet.create(1, z_dim, rng, nets.PROPENSITY_SPEC),
    "eta": lambda z_dim, rng: nets.EtaNet.create(z_dim, rng),
}


def test_mlpspec_validation():
    with pytest.raises(ValueError):
        nets.MlpSpec(x_depth=0)
    with pytest.raises(ValueError):
        nets.MlpSpec(hidden=0)
    with pytest.raises(ValueError):
        nets.MlpSpec(head_transform="tanh")


def test_train_config_validation():
    with pytest.raises(InputError):
        nets.TrainConfig(batch_size=4, k=3)
    with pytest.raises(InputError):
        nets.TrainConfig(learning_rate=0.0)
    with pytest.raises(InputError):
        nets.TrainConfig(gamma=-0.1)


# ---------------------------------------------------------------- gumbel


def test_gumbel_zero_temperature_limit():
    logits = np.array([[0.4, 1.3, -0.2]])
    noise = nets.sample_gumbel((1, 3), stream_rng(1, "noise"))
    weights = nets.gumbel_softmax(logits, noise, temperature=1e-6)
    expected = np.zeros((1, 3))
    expected[0, np.argmax(logits[0] + noise[0])] = 1.0
    np.testing.assert_array_equal(weights, expected)


def test_gumbel_rows_sum_to_one():
    logits = np.tile(np.random.default_rng(0).normal(size=5), (40, 1))
    noise = nets.sample_gumbel((40, 5), stream_rng(2, "gumbel"))
    weights = nets.gumbel_softmax(logits, noise, 0.7)
    np.testing.assert_allclose(weights.sum(axis=1), np.ones(40), atol=1e-9)
    assert np.all(weights >= 0)


def test_gumbel_hard_matches_softmax_distribution():
    # With logits (0, ln 3) the sampling distribution is softmax = (1/4, 3/4).
    n = 100_000
    noise = nets.sample_gumbel((n, 2), stream_rng(3, "gumbel"))
    soft = nets.gumbel_softmax(np.tile([0.0, np.log(3.0)], (n, 1)), noise, 1.0)
    freq = np.argmax(soft, axis=1).mean()
    assert abs(freq - 0.75) < 0.01


def test_gumbel_rejects_bad_temperature():
    with pytest.raises(ValueError):
        nets.gumbel_softmax(np.zeros((1, 3)), None, 0.0)


def test_assignment_graph_straight_through_equals_soft_gradient():
    # Straight-through: hard cell weights in the forward, the soft weights'
    # backward. Where L_b drops out (one arm only), the loss reads the soft
    # masses and the argmax labels, the same in both modes, so both modes
    # give the same loss and gradients, bit for bit.
    const, net, noise = checks._loss_case()
    const = partition.BatchConstants(**{**vars(const), "a": np.ones(len(const))})
    config = nets.TrainConfig(k=net.k, batch_size=len(const), lam=1.5, gamma=0.5)
    hard, soft = ((parts, {name: g.copy() for name, g in grads.items()}) for _, parts, grads in
                  (partition.composite_loss_and_grad(net, const, checks.LOSS_RANGE, config, noise, hard=mode)
                   for mode in (True, False)))
    assert hard[0] == soft[0] and hard[0]["l_b"] is None
    for name in net.params:
        np.testing.assert_array_equal(hard[1][name], soft[1][name])


# ---------------------------------------------------------------- adam


def test_adam_zero_gradient_keeps_params():
    net = nets._Net({"w": np.array([1.0, -2.0])})
    state = nets.AdamState.for_net(net)
    nets.adam_step(net, state, lr=0.03)
    np.testing.assert_array_equal(net.params["w"], [1.0, -2.0])
    assert state.t == 1


def test_adam_bias_corrected_first_moment_after_one_step():
    net = nets._Net({"w": np.array([0.0])})
    state = nets.AdamState.for_net(net)
    net.grads["w"] = np.array([0.3])
    nets.adam_step(net, state, lr=0.1)
    m_hat = state.m / (1.0 - 0.9**1)
    np.testing.assert_allclose(m_hat, [0.3])


def test_adam_converges_on_quadratic():
    net = nets._Net({"w": np.array([0.0])})
    state = nets.AdamState.for_net(net)
    for _ in range(2000):
        net.grads["w"] = 2.0 * (net.params["w"] - 5.0)
        nets.adam_step(net, state, lr=0.03)
    assert abs(net.params["w"][0] - 5.0) < 1e-2


def test_adam_rejects_nonfinite_gradient():
    net = nets._Net({"w": np.array([0.0])})
    state = nets.AdamState.for_net(net)
    net.grads["w"] = np.array([np.nan])
    with pytest.raises(FloatingPointError):
        nets.adam_step(net, state, lr=0.1)


def test_adam_rejects_shape_mismatch():
    net = nets._Net({"w": np.array([0.0, 1.0])})
    with pytest.raises(ValueError):
        nets.adam_step(net, nets.AdamState(np.zeros(3), np.zeros(3)), lr=0.1)


def _adam_reference(params, grads, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam one array at a time: the reference the flat update matches bit for bit."""
    for name, p in params.items():
        g = grads.get(name, np.zeros_like(p))
        m[name] = beta1 * m[name] + (1.0 - beta1) * g
        v[name] = beta2 * v[name] + (1.0 - beta2) * g * g
        m_hat = m[name] / (1.0 - beta1**t)
        v_hat = v[name] / (1.0 - beta2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.lists(st.integers(1, 4), min_size=1, max_size=2), min_size=1, max_size=4),
    st.integers(0, 2**32 - 1),
    st.floats(1e-3, 0.5),
)
def test_flat_adam_is_bitwise_the_per_array_update(shapes, seed, lr):
    # A missing gradient is a zero in the flat gradient buffer.
    rng = np.random.default_rng(seed)
    net = nets._Net({f"p{i}": rng.normal(size=shape) for i, shape in enumerate(shapes)})
    ref_params = {name: p.copy() for name, p in net.params.items()}
    state = nets.AdamState.for_net(net)
    ref_m = {name: np.zeros_like(p) for name, p in ref_params.items()}
    ref_v = {name: np.zeros_like(p) for name, p in ref_params.items()}
    for t in range(1, 51):
        grads = {name: rng.normal(size=p.shape) * rng.choice([0.0, 1e-3, 1.0, 10.0])
                 for name, p in ref_params.items() if rng.random() < 0.8}
        net.flat_grad.fill(0.0)
        for name, g in grads.items():
            net.grads[name] = g
        nets.adam_step(net, state, lr)
        _adam_reference(ref_params, grads, ref_m, ref_v, t, lr)
        assert state.t == t
        for name in ref_params:
            assert np.array_equal(net.params[name], ref_params[name])
        assert np.array_equal(state.m, np.concatenate([ref_m[name].ravel() for name in ref_params]))
        assert np.array_equal(state.v, np.concatenate([ref_v[name].ravel() for name in ref_params]))
    for name in ref_params:
        assert np.shares_memory(net.params[name], net.flat)
        assert np.shares_memory(net.grads[name], net.flat_grad)


def test_adam_refusal_names_the_parameter_and_changes_nothing():
    net = nets._Net({"w": np.array([1.0, 2.0]), "b": np.array([0.5])})
    state = nets.AdamState.for_net(net)
    net.grads["w"], net.grads["b"] = np.array([0.1, 0.2]), np.array([0.3])
    nets.adam_step(net, state, lr=0.1)
    before = net.flat.copy()
    m_before, v_before = state.m.copy(), state.v.copy()
    net.grads["b"] = np.array([np.inf])
    with pytest.raises(FloatingPointError, match="for b"):
        nets.adam_step(net, state, lr=0.1)
    np.testing.assert_array_equal(net.flat, before)
    np.testing.assert_array_equal(state.m, m_before)
    np.testing.assert_array_equal(state.v, v_before)
    assert state.t == 1


@pytest.mark.parametrize("make", [
    lambda rng: nets.TwoBranchNet.create(1, 1, rng, nets.OUTCOME_SPEC),
    lambda rng: nets.TwoBranchNet.create(1, 1, rng, nets.PROPENSITY_SPEC),
    lambda rng: nets.EtaNet.create(1, rng),
], ids=["outcome", "propensity", "eta"])
def test_stage1_loss_and_grad_builds_no_graph(make, monkeypatch):
    # A stage-1 step is numpy alone: it never calls autodiff, which serves the stage-2 loss only.
    built = []
    for name in ("topo_order", "backward_grad"):
        monkeypatch.setattr(ad, name, lambda *args, _name=name, **kwargs: built.append(_name))
    rng = stream_rng(0, "node-count")
    n = nets.TrainConfig().batch_size
    batch = {"x": rng.normal(size=n), "z": rng.normal(size=n), "a": (rng.random(n) < 0.5) * 1.0,
             "y": rng.normal(size=n)}
    net = make(stream_rng(1, "init"))
    loss, grads = net.loss_and_grad(batch)
    assert built == []
    assert np.isfinite(loss)
    assert {name: g.shape for name, g in grads.items()} == {name: p.shape for name, p in net.params.items()}


# ---------------------------------------------------------------- training loop


class _LinearNet(nets._Net):
    kind = "linear-test"

    @classmethod
    def create(cls, rng):
        return cls({"w": rng.normal(size=(1, 1)) * 0.1, "b": np.zeros(1)})

    def meta(self):
        return {}

    def loss_and_grad(self, batch):
        x = batch["x"].reshape(-1, 1)
        diff = x @ self.params["w"] + self.params["b"] - batch["y"].reshape(-1, 1)
        g = 2.0 * diff / diff.size
        self.grads["w"], self.grads["b"] = x.T @ g, g.sum(axis=0)
        return float(np.mean(diff * diff)), self.grads

    def loss(self, batch):
        return self.loss_and_grad(batch)[0]


def _linear_data(seed, n=400):
    rng = stream_rng(seed, "lin")
    x = rng.uniform(-1, 1, n)
    y = 2.0 * x + 1.0 + 0.01 * rng.normal(size=n)
    return {"x": x, "y": y}


def test_training_recovers_linear_regression():
    train = _linear_data(0)
    val = _linear_data(1, n=100)
    net = _LinearNet.create(stream_rng(2, "init"))
    config = nets.TrainConfig(max_epochs=100, batch_size=64, k=1, seed=5)
    nets.train_with_early_stopping(net, lambda m, b: m.loss_and_grad(b)[0], train, val, config)
    # Closed-form least squares oracle on the train split.
    slope_ls = np.polyfit(train["x"], train["y"], 1)[0]
    assert abs(net.params["w"][0, 0] - slope_ls) < 0.05
    assert abs(net.params["w"][0, 0] - 2.0) < 0.05


def test_training_is_deterministic():
    train = _linear_data(0)
    val = _linear_data(1, n=100)

    def run():
        net = _LinearNet.create(stream_rng(2, "init"))
        config = nets.TrainConfig(max_epochs=20, batch_size=64, k=1, seed=5)
        nets.train_with_early_stopping(net, lambda m, b: m.loss_and_grad(b)[0], train, val, config)
        return net.params

    p1, p2 = run(), run()
    for name in p1:
        np.testing.assert_array_equal(p1[name], p2[name])


def test_early_stopping_contract():
    # Validation loss strictly increases from the first epoch: with
    # patience 5 the loop must stop by epoch 6 and keep epoch-1 weights.
    train = _linear_data(0)
    val = _linear_data(1, n=50)
    net = _LinearNet.create(stream_rng(2, "init"))
    config = nets.TrainConfig(max_epochs=100, patience=5, batch_size=64, k=1, seed=5)
    calls = []

    def rigged_val(m):
        calls.append(m.flat.copy())
        return float(len(calls))

    log = nets.train_with_early_stopping(net, lambda m, b: m.loss_and_grad(b)[0], train, val, config,
                                         val_loss_fn=rigged_val)
    assert len(log.val_loss) == 6
    assert log.best_epoch == 0
    np.testing.assert_array_equal(net.flat, calls[0])


def test_early_stopping_returns_minimum_validation_loss_weights():
    train = _linear_data(3)
    val = _linear_data(4, n=100)
    net = _LinearNet.create(stream_rng(6, "init"))
    config = nets.TrainConfig(max_epochs=30, batch_size=64, k=1, seed=7)
    log = nets.train_with_early_stopping(net, lambda m, b: m.loss_and_grad(b)[0], train, val, config)
    final_val = net.loss_and_grad(val)[0]
    assert final_val <= min(log.val_loss) + 1e-12


def test_default_validation_takes_the_loss_only_path():
    # Without val_loss_fn every epoch validates on net.loss(val): loss_fn
    # (loss and gradient) sees training batches only.
    train, val = _linear_data(0), _linear_data(1, n=100)
    net = _LinearNet.create(stream_rng(2, "init"))
    config = nets.TrainConfig(max_epochs=3, batch_size=64, k=1, seed=5)
    seen, val_losses = [], []

    def loss_fn(m, b):
        seen.append(len(b["x"]))
        return m.loss_and_grad(b)[0]

    def loss(batch, original=net.loss):
        val_losses.append(original(batch))
        return val_losses[-1]

    net.loss = loss
    log = nets.train_with_early_stopping(net, loss_fn, train, val, config)
    assert set(seen) == {64, 400 % 64} and log.val_loss == val_losses and len(val_losses) == 3


def test_training_aborts_on_nan_loss():
    train = {"x": np.array([1.0, 2.0, 3.0]), "y": np.array([1.0, 2.0, 3.0])}
    net = _LinearNet.create(stream_rng(0, "init"))
    net.params["w"][0, 0] = 1e200  # quadratic loss overflows to inf

    config = nets.TrainConfig(max_epochs=3, batch_size=4, k=1, seed=0)
    with pytest.raises(nets.TrainingAbort) as exc:
        nets.train_with_early_stopping(net, lambda m, b: m.loss_and_grad(b)[0], train, train, config)
    assert exc.value.epoch == 0


def _stage1_arrays(n, rng, treated):
    """(n, ·) stage-1 columns: x, two z columns, treatment at rate ``treated`` (1: every sample), y."""
    z = rng.normal(size=(n, 2))
    a = np.ones(n) if treated == 1 else (rng.random(n) < treated) * 1.0
    x = rng.uniform(-1, 1, n)
    y = x + a * z[:, 0] + 0.3 * rng.normal(size=n)
    return {"x": x.reshape(-1, 1), "z": z, "a": a.reshape(-1, 1), "y": y.reshape(-1, 1)}


LOCKSTEP_CASES = {  # (restarts, patience, treated share, seed)
    "staggered": (3, 3, 0.5, 2),  # the restarts stop at different epochs
    "patience-1": (3, 1, 0.5, 5),  # a restart stops after its first epoch
    "one-restart": (1, 3, 0.5, 2),
    "one-arm": (3, 3, 1.0, 3),  # every batch holds treated samples only
}


@pytest.mark.parametrize("case", sorted(LOCKSTEP_CASES))
@pytest.mark.parametrize("kind", sorted(STAGE1_NETS))
def test_lockstep_restarts_are_bitwise_the_restarts_alone(kind, case):
    # Restart r of a stack trained in lockstep ends with the parameters and
    # the log (train and validation loss, best epoch) that the same loop
    # gives it alone with its own init and batch streams. Ten batches per
    # epoch: from eight on, numpy sums a mean's terms pairwise.
    restarts, patience, treated, seed = LOCKSTEP_CASES[case]
    rng = np.random.default_rng(seed)
    train, val = _stage1_arrays(320, rng, treated), _stage1_arrays(96, rng, treated)
    config = nets.TrainConfig(max_epochs=40, patience=patience, seed=seed)

    def init(r):
        return STAGE1_NETS[kind](2, stream_rng(seed, f"lockstep-init-{r}"))

    def batches(r):
        return stream_rng(seed, f"lockstep-batches-{r}")

    stack = nets.stack_restarts([init(r) for r in range(restarts)])
    logs = nets.train_with_early_stopping(stack, lambda m, b: m.loss_and_grad(b)[0], train, val, config,
                                          rng=[batches(r) for r in range(restarts)]).restarts
    assert stack.restarts == len(logs) == restarts
    for r, log in enumerate(logs):
        alone = init(r)
        want = nets.train_with_early_stopping(alone, lambda m, b: m.loss_and_grad(b)[0], train, val, config,
                                              rng=batches(r))
        assert np.array_equal(stack.flat[r], alone.flat), r
        assert np.array_equal(log.train_loss, want.train_loss) and log.val_loss == want.val_loss, r
        assert log.best_epoch == want.best_epoch, r
        for name, p in stack.restart(r).params.items():
            assert np.array_equal(p, alone.params[name]), (r, name)
    epochs = [len(log.val_loss) for log in logs]
    if case == "staggered":
        assert len(set(epochs)) > 1
    elif case == "patience-1":
        assert min(epochs) == 2
    elif case == "one-arm":
        assert np.all(train["a"] == 1.0)


def test_stack_log_counts_lockstep_epochs():
    logs = [nets.TrainLog([0.0] * 3, [1.0, 2.0, 3.0], 0), nets.TrainLog([0.0], [4.0], 0)]
    assert nets.StackLog(logs).val_loss == [[1.0, 4.0], [2.0], [3.0]]


def test_pickled_net_rebuilds_its_flat_buffer():
    # The views of an unpickled net share one new buffer, as they did before.
    net = nets.stack_restarts([nets.EtaNet.create(2, stream_rng(r, "init")) for r in range(2)])
    copy = pickle.loads(pickle.dumps(net))
    assert copy.restarts == 2 and np.array_equal(copy.flat, net.flat)
    for name, p in copy.params.items():
        assert np.shares_memory(p, copy.flat) and np.shares_memory(copy.grads[name], copy.flat_grad)
        assert np.array_equal(p, net.params[name])
    copy.params["head.b"] = np.ones((2, 1))
    assert np.all(copy.flat[:, -1] == 1.0) and not np.any(net.flat[:, -1] == 1.0)


# ---------------------------------------------------------------- architectures


def test_head_isolation():
    net = nets.TwoBranchNet.create(1, 1, stream_rng(0, "init"), nets.OUTCOME_SPEC)
    x = np.linspace(-1, 1, 16)
    z = np.linspace(-1, 1, 16)
    before = net.predict(x, z)
    net.params["head0.w"] += 10.0
    net.params["head0.b"] += 3.0
    after = net.predict(x, z)
    np.testing.assert_array_equal(before[:, 1], after[:, 1])
    assert not np.allclose(before[:, 0], after[:, 0])


def test_two_branch_spec_sets_heads_kind_and_loss():
    outcome = nets.TwoBranchNet.create(1, 1, stream_rng(0, "init"), nets.OUTCOME_SPEC)
    propensity = nets.TwoBranchNet.create(1, 1, stream_rng(0, "init"), nets.PROPENSITY_SPEC)
    assert (outcome.kind, propensity.kind) == ("two_head_outcome", "propensity")
    assert {"head0.w", "head1.w"} <= set(outcome.params) and "head.w" not in outcome.params
    assert "head.w" in propensity.params and "head0.w" not in propensity.params
    # Same draw order up to the heads: the trunks of both nets are identical.
    for name in outcome.params:
        if not name.startswith("head"):
            np.testing.assert_array_equal(outcome.params[name], propensity.params[name])
    batch = {"x": np.linspace(-1, 1, 6), "z": np.linspace(-1, 1, 6), "a": np.array([0, 1] * 3), "y": np.ones(6)}
    p = propensity.predict(batch["x"], batch["z"])
    expected = np.mean(-batch["a"] * np.log(p) - (1 - batch["a"]) * np.log(1 - p))
    assert propensity.loss_and_grad(batch)[0] == pytest.approx(expected, abs=1e-12)
    m = outcome.predict(batch["x"], batch["z"])
    expected = np.mean((m[np.arange(6), batch["a"]] - batch["y"]) ** 2)
    assert outcome.loss_and_grad(batch)[0] == pytest.approx(expected, abs=1e-12)
    with pytest.raises(ValueError):
        nets.TwoBranchNet.create(1, 1, stream_rng(0, "init"), nets.MlpSpec(heads=1))


def test_pairwise_prediction_matches_pointwise():
    # block_pairs=14 at 7 z gives blocks of 2 query rows: rows 0-1, then
    # rows 2-4, the 1-row tail folded into the last block.
    xq = np.linspace(-1, 1, 5)
    z = np.linspace(-0.5, 0.5, 7)
    net = nets.TwoBranchNet.create(1, 1, stream_rng(1, "init"), nets.OUTCOME_SPEC)
    m0, m1 = net.predict_pairwise(xq, z, block_pairs=14)
    for i, xi in enumerate(xq):
        point = net.predict(np.full(7, xi), z)
        np.testing.assert_allclose(m0[i], point[:, 0], atol=1e-12)
        np.testing.assert_allclose(m1[i], point[:, 1], atol=1e-12)
    net = nets.TwoBranchNet.create(1, 1, stream_rng(1, "init"), nets.PROPENSITY_SPEC)
    p = net.predict_pairwise(xq, z, block_pairs=14)
    for i, xi in enumerate(xq):
        np.testing.assert_allclose(p[i], net.predict(np.full(7, xi), z), atol=1e-12)


def _pairwise_64_row_chunks(net, xq, z):
    """Reference: the 64-query-row repeat/tile loop that predict_pairwise replaced."""
    params = net.params

    def dense(h, prefix):
        return h @ params[f"{prefix}.w"] + params[f"{prefix}.b"]

    def stack(h, prefix, depth):
        for i in range(depth):
            h = np.maximum(dense(h, f"{prefix}{i}"), 0.0)
        return h

    hx = stack(nets._as_col(xq), "x_enc.", net.spec.x_depth)
    hz = stack(nets._as_col(z), "z_enc.", net.spec.z_depth)
    nq, nz = hx.shape[0], hz.shape[0]
    out = [np.empty((nq, nz)) for _ in net.head_names]
    for lo in range(0, nq, 64):
        hi = min(lo + 64, nq)
        pairs = np.concatenate([np.repeat(hx[lo:hi], nz, axis=0), np.tile(hz, (hi - lo, 1))], axis=1)
        h = stack(pairs, "shared.", net.spec.shared_depth)
        heads = [dense(h, name) for name in net.head_names]
        if net.spec.head_transform == "sigmoid":
            heads = [sigmoid(v) for v in heads]
        for m, v in zip(out, heads):
            m[lo:hi] = v.reshape(hi - lo, nz)
    return out


@pytest.mark.parametrize("spec", [nets.OUTCOME_SPEC, nets.PROPENSITY_SPEC], ids=["outcome", "propensity"])
def test_pairwise_prediction_is_bitwise_the_64_row_loop(spec):
    # Evaluation (800 test x 2,000 aggregation z), a ragged tail, one block
    # of 37 rows, and a tiny single block. Wherever the 64-row chunks kept
    # the trunk's first matmul out of the BLAS small-matrix kernel, the
    # blocks do too, so the bits must not move.
    net = nets.TwoBranchNet.create(1, 20, stream_rng(4, "init"), spec)
    rng = np.random.default_rng(4)
    for nq, nz in [(800, 2000), (801, 2000), (37, 400), (5, 7)]:
        xq = rng.uniform(-1, 1, nq)
        z = rng.integers(0, 2, size=(nz, 20)).astype(np.float64)
        got = net.predict_pairwise(xq, z)
        got = got if isinstance(got, tuple) else (got,)
        want = _pairwise_64_row_chunks(net, xq, z)
        assert len(got) == len(want) == spec.heads
        for g, w in zip(got, want):
            assert g.shape == (nq, nz)
            assert np.array_equal(g, w), (nq, nz)


def test_propensity_outputs_in_open_unit_interval():
    net = nets.TwoBranchNet.create(1, 1, stream_rng(2, "init"), nets.PROPENSITY_SPEC)
    p = net.predict(np.linspace(-1, 1, 50), np.linspace(-1, 1, 50))
    assert p.shape == (50,)
    assert np.all(p > 0) and np.all(p < 1)


def test_partition_hard_assignment_is_argmax_of_logits():
    net = nets.PartitionNet.create(1, 4, stream_rng(3, "init"))
    z = np.linspace(-1, 1, 30)
    np.testing.assert_array_equal(net.assign_hard(z), np.argmax(net.logits(z), axis=1))


def test_graph_forward_matches_numpy_forward():
    # Training runs the prediction forward: the collected activations end in
    # the layer that feeds the heads, and the partition net's loss record
    # holds its numpy outputs.
    net = nets.TwoBranchNet.create(1, 1, stream_rng(4, "init"), nets.OUTCOME_SPEC)
    x, z = np.linspace(-1, 1, 9), np.linspace(-1, 1, 9)
    acts_x, acts_z, acts_h = [], [], []
    heads = net._heads_np(np.concatenate(net._encode_np(x, z, acts_x, acts_z), axis=1), acts_h)
    np.testing.assert_array_equal(np.concatenate(heads, axis=1), net.predict(x, z))
    assert [len(acts) for acts in (acts_x, acts_z, acts_h)] == [3, 4, 3]
    np.testing.assert_array_equal(acts_h[0], np.concatenate([acts_x[-1], acts_z[-1]], axis=1))
    const, partition_net, _ = checks._loss_case()
    root, _, acts, _ = partition.composite_loss_graph(partition_net, const, checks.LOSS_RANGE,
                                                      nets.TrainConfig(k=3, batch_size=len(const)), None)
    np_logits, np_aux = partition_net.forward(const.z)
    assert list(root.inputs) == ["logits", "aux"]
    np.testing.assert_array_equal(root.inputs["logits"], np_logits)
    np.testing.assert_array_equal(root.inputs["aux"], np_aux)
    assert len(acts) == partition_net.depth + 1


# ---------------------------------------------------------------- bitwise the fused-layer graph
#
# Until the nets got a hand-written backward, they trained through autodiff
# graphs of one fused dense node per layer. The reference below transcribes
# that graph op by op: each dense is matmul then bias, then relu; its
# backward masks the gradient where the output is not > 0 and gives
# (input, weight, bias) gradients; the two encoders meet in a concat whose
# backward splits the gradient by columns; the loss ops contribute in the
# order the graph's backward sweep ran them.


def _ref_dense(h, w, b, relu):
    z = h @ w + b
    return np.maximum(z, 0.0) if relu else z


def _ref_dense_backward(h, w, out, g, relu):
    g = g * (out > 0.0) if relu else g
    return g @ w.T, h.T @ g, g.sum(axis=0)


def _ref_stack(params, h, prefix, depth):
    """(input, output) of each fused relu layer."""
    layers = []
    for i in range(depth):
        out = _ref_dense(h, params[f"{prefix}{i}.w"], params[f"{prefix}{i}.b"], relu=True)
        layers.append((h, out))
        h = out
    return layers


def _ref_stack_backward(params, layers, prefix, g, grads):
    for i in reversed(range(len(layers))):
        h, out = layers[i]
        g, grads[f"{prefix}{i}.w"], grads[f"{prefix}{i}.b"] = _ref_dense_backward(
            h, params[f"{prefix}{i}.w"], out, g, relu=True)
    return g


def _ref_heads_backward(params, h, names, g_heads, grads):
    """Linear heads on h; h's gradient sums one contribution per head."""
    g_h = None
    for name, g in zip(names, g_heads):
        g_in, grads[f"{name}.w"], grads[f"{name}.b"] = _ref_dense_backward(h, params[f"{name}.w"], None, g, False)
        g_h = g_in if g_h is None else g_h + g_in
    return g_h


def _ref_logistic(logit, a):
    # mean(sub(softplus(w), mul(a, w))): mean spreads 1/n, sub negates its
    # second operand's share, softplus multiplies by the sigmoid.
    loss = np.mean(np.logaddexp(0.0, logit) - a * logit)
    g = np.full_like(logit, 1.0 / logit.size)
    s = np.where(logit >= 0, 1.0 / (1.0 + np.exp(-logit)), np.exp(logit) / (1.0 + np.exp(logit)))
    return loss, g * s + (-g) * a


def _ref_two_branch(net, batch):
    p, spec = net.params, net.spec
    lx = _ref_stack(p, batch["x"].reshape(-1, 1), "x_enc.", spec.x_depth)
    lz = _ref_stack(p, batch["z"], "z_enc.", spec.z_depth)
    width = lx[-1][1].shape[1]
    ls = _ref_stack(p, np.concatenate([lx[-1][1], lz[-1][1]], axis=1), "shared.", spec.shared_depth)
    h = ls[-1][1]
    heads = [_ref_dense(h, p[f"{name}.w"], p[f"{name}.b"], relu=False) for name in net.head_names]
    a = batch["a"].reshape(-1, 1)
    if spec.head_transform == "sigmoid":
        loss, g = _ref_logistic(heads[0], a)
        g_heads = [g]
    else:
        # mean(mul(diff, diff)) with diff = sub(add(mul(y1, a), mul(y0, 1 - a)), y)
        y0, y1 = heads
        diff = (y1 * a + y0 * (1.0 - a)) - batch["y"].reshape(-1, 1)
        loss = np.mean(diff * diff)
        g = np.full_like(diff, 1.0 / diff.size)
        g_diff = g * diff
        g_diff = g_diff + g * diff  # one contribution per operand of mul(diff, diff)
        g_heads = [g_diff * (1.0 - a), g_diff * a]
    grads = {}
    g_cat = _ref_stack_backward(p, ls, "shared.", _ref_heads_backward(p, h, net.head_names, g_heads, grads), grads)
    _ref_stack_backward(p, lx, "x_enc.", g_cat[:, :width], grads)
    _ref_stack_backward(p, lz, "z_enc.", g_cat[:, width:], grads)
    return float(loss), grads


def _ref_eta(net, batch):
    p = net.params
    layers = _ref_stack(p, batch["z"], "z_enc.", net.depth)
    h = layers[-1][1]
    loss, g = _ref_logistic(_ref_dense(h, p["head.w"], p["head.b"], relu=False), batch["a"].reshape(-1, 1))
    grads = {}
    _ref_stack_backward(p, layers, "z_enc.", _ref_heads_backward(p, h, ["head"], [g], grads), grads)
    return float(loss), grads


def _ref_partition_backward(net, z, g_logits, g_aux):
    p = net.params
    layers = _ref_stack(p, z, "z_enc.", net.depth)
    names, g_heads = (["logits"], [g_logits]) if g_aux is None else (["logits", "aux"], [g_logits, g_aux])
    grads = {}
    _ref_stack_backward(p, layers, "z_enc.", _ref_heads_backward(p, layers[-1][1], names, g_heads, grads), grads)
    return grads


@st.composite
def _quarter_grid_cases(draw):
    """(rng, batch) with 2-40 samples of one arm or both; every value is a
    multiple of 1/4, so some pre-activations are exact zeros."""
    n = draw(st.integers(2, 40))
    arms = draw(st.sampled_from(["control", "treated", "mixed"]))
    z_dim = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = {"control": np.zeros(n), "treated": np.ones(n), "mixed": (np.arange(n) % 2) * 1.0}[arms]
    batch = {"x": rng.integers(-4, 5, n) / 4.0, "z": rng.integers(-4, 5, (n, z_dim)) / 4.0, "a": a,
             "y": rng.integers(-4, 5, n) / 4.0}
    return rng, batch


def _on_quarter_grid(net, rng):
    for name, arr in net.params.items():
        net.params[name] = rng.integers(-4, 5, arr.shape) / 4.0
    return net


def _redrawn(batch, rng):
    """A batch of the same size and arms with new x, z and y on the quarter grid."""
    return {**{key: rng.integers(-4, 5, v.shape) / 4.0 for key, v in batch.items()}, "a": batch["a"]}


def _columns(batch):
    """The (n, ·) arrays stage 1 trains on, so that stacking gives (R, n, ·)."""
    return {key: v.reshape(len(v), -1) for key, v in batch.items()}


@settings(max_examples=40, deadline=None)
@given(_quarter_grid_cases())
def test_loss_and_grad_is_bitwise_the_fused_layer_graph(case):
    rng, batch = case
    z_dim = batch["z"].shape[1]
    for kind, make in STAGE1_NETS.items():
        net = _on_quarter_grid(make(z_dim, rng), rng)
        loss, grads = net.loss_and_grad(batch)
        ref_loss, ref_grads = (_ref_eta if kind == "eta" else _ref_two_branch)(net, batch)
        assert loss == ref_loss == net.loss(batch), net.kind
        assert grads.keys() == ref_grads.keys() == net.params.keys()
        for name in grads:
            assert np.array_equal(grads[name], ref_grads[name]), (net.kind, name)

        # Slice r of a stacked net on (R, n, ·) batches is restart r alone on
        # batch r; on one (n, ·) validation batch it is restart r on it.
        singles = [net] + [_on_quarter_grid(make(z_dim, rng), rng) for _ in range(2)]
        batches = [_columns(batch)] + [_columns(_redrawn(batch, rng)) for _ in range(2)]
        stack = nets.stack_restarts(singles)
        losses, stacked = stack.loss_and_grad({key: np.stack([b[key] for b in batches]) for key in batch})
        val_losses = stack.loss(batches[0])
        for r, (single, b) in enumerate(zip(singles, batches)):
            loss, grads = single.loss_and_grad(b)
            assert losses[r] == loss and val_losses[r] == single.loss(batches[0]), (net.kind, r)
            for name in grads:
                assert np.array_equal(stacked[name][r], grads[name]), (net.kind, r, name)

    net = _on_quarter_grid(nets.PartitionNet.create(z_dim, 3, rng), rng)
    acts = []
    logits, aux = net.forward(batch["z"], acts)
    layers = _ref_stack(net.params, batch["z"], "z_enc.", net.depth)
    assert np.array_equal(logits, _ref_dense(layers[-1][1], net.params["logits.w"], net.params["logits.b"], False))
    assert np.array_equal(aux, _ref_dense(layers[-1][1], net.params["aux.w"], net.params["aux.b"], False))
    g_logits, g_aux = (rng.integers(-4, 5, logits.shape) / 4.0 for _ in range(2))
    for g in (g_aux, None):
        grads = net.backward(acts, g_logits, g)
        ref_grads = _ref_partition_backward(net, batch["z"], g_logits, g)
        assert grads.keys() == net.params.keys()
        for name in grads:
            want = ref_grads[name] if name in ref_grads else np.zeros(net.params[name].shape)
            assert np.array_equal(grads[name], want), name


# ---------------------------------------------------------------- checkpoints


@pytest.mark.parametrize(
    "factory",
    [
        lambda rng: nets.TwoBranchNet.create(1, 1, rng, nets.OUTCOME_SPEC),
        lambda rng: nets.TwoBranchNet.create(1, 20, rng, nets.PROPENSITY_SPEC),
        lambda rng: nets.EtaNet.create(20, rng),
        lambda rng: nets.PartitionNet.create(1, 3, rng),
    ],
)
def test_checkpoint_round_trip(tmp_path, factory):
    net = factory(stream_rng(9, "init"))
    path = tmp_path / "model.ckpt"
    nets.save_checkpoint(net, path)
    loaded = nets.load_checkpoint(path)
    assert type(loaded) is type(net)
    assert loaded.kind == net.kind
    assert loaded.meta() == net.meta()
    assert set(loaded.params) == set(net.params)
    for name in net.params:
        np.testing.assert_array_equal(loaded.params[name], net.params[name])


def test_checkpoint_rejects_other_files(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(InputError, match="not a model checkpoint"):
        nets.load_checkpoint(path)


def _checkpoint_bytes(header: bytes, arrays: bytes = b"") -> bytes:
    return b"IVBNET01" + struct.pack("<I", len(header)) + header + arrays


@pytest.mark.parametrize("cut", [9, 12, 40, -8, -1], ids=["length", "length-end", "header", "array", "last-byte"])
def test_checkpoint_rejects_truncation(tmp_path, cut):
    path = tmp_path / "eta.ckpt"
    nets.save_checkpoint(nets.EtaNet.create(1, stream_rng(9, "init")), path)
    path.write_bytes(path.read_bytes()[:cut])
    with pytest.raises(InputError, match="truncated"):
        nets.load_checkpoint(path)


@pytest.mark.parametrize("header", [
    b"{not json", b"\xff\xfe", b"[1, 2]", b'{"kind": "eta"}', b'{"kind": ["eta"], "arrays": []}',
    b'{"kind": "eta", "arrays": [{"name": "w"}], "meta": {}}',
    b'{"kind": "eta", "arrays": [{"name": "w", "shape": [-1, -2]}], "meta": {}}',
    b'{"kind": "eta", "arrays": [], "meta": {}}',
], ids=["json", "utf8", "list", "no-arrays", "kind-type", "no-shape", "negative-shape", "meta"])
def test_checkpoint_rejects_bad_headers(tmp_path, header):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(_checkpoint_bytes(header, bytes(16)))
    with pytest.raises(InputError, match="bad checkpoint header"):
        nets.load_checkpoint(path)


def test_checkpoint_kind_is_checked(tmp_path):
    path = tmp_path / "net.ckpt"
    path.write_bytes(_checkpoint_bytes(b'{"kind": "resnet", "arrays": [], "meta": {}}'))
    with pytest.raises(InputError, match="'resnet', not a known kind"):
        nets.load_checkpoint(path)
    nets.save_checkpoint(nets.EtaNet.create(1, stream_rng(9, "init")), path)
    assert nets.load_checkpoint(path, "eta").kind == "eta"
    with pytest.raises(InputError, match="'eta', not partition"):
        nets.load_checkpoint(path, "partition")
