from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivbounds import autodiff as ad
from ivbounds import bounds, checks, experiments, nets, parallel, partition


def scalar_input(v):
    return ad.input_node(np.array([v]), name="x", trainable=True)


def _sum_of(x, f, df):
    """sum(f(x)) as one fused node, with the derivative df of f."""
    return ad.fused((x,), np.sum(f(x.value)), lambda g: (g * df(x.value),))


def _log(x):
    return ad.fused((x,), np.log(x.value), lambda g: (g / x.value,))


def _dot(a, b):
    return ad.fused((a, b), np.sum(a.value * b.value), lambda g: (g * b.value, g * a.value))


def test_identity_matmul():
    # The nets' layer matmul: an identity weight and zero bias give the input back.
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(nets._dense_np(a, {"l0.w": np.eye(2), "l0.b": np.zeros(2)}, "l0"), a)


def test_square_gradient():
    x = scalar_input(3.0)
    root = _sum_of(x, lambda v: v * v, lambda v: 2.0 * v)
    grads = ad.backward_grad(root)
    assert grads["x"][0] == pytest.approx(6.0)


def test_sigmoid_gradient_at_zero():
    # The logistic loss softplus(w) - a * w, which the stage-1 nets
    # differentiate by hand, has the gradient sigmoid(w) - a: 1/2 - a at zero.
    for a, expected in ((0.0, 0.5), (1.0, -0.5)):
        _, g = nets._log_loss_and_grad(np.zeros((1, 1)), np.array([[a]]))
        assert g[0, 0] == expected


def test_backward_requires_scalar_root():
    x = ad.input_node(np.ones(3), name="x", trainable=True)
    with pytest.raises(ValueError, match="scalar root"):
        ad.backward_grad(ad.fused((x,), x.value * 2.0, lambda g: (g * 2.0,)))


def test_shape_mismatch_is_structured():
    # A fused backward must give each parent a gradient of its shape.
    x = ad.input_node(np.ones((2, 3)), name="x", trainable=True)
    root = ad.fused((x,), np.sum(x.value), lambda g: (np.ones((3, 2)),))
    with pytest.raises(ad.ShapeMismatchError) as exc:
        ad.backward_grad(root)
    assert exc.value.op == "fused"
    assert (2, 3) in exc.value.shapes


def test_nan_gradient_carries_node_id():
    # log(y) at a subnormal y has the gradient 1/y = inf.
    y = ad.input_node(np.array([1e-320]), name="y", trainable=True)
    bad = _sum_of(y, np.log, lambda v: 1.0 / v)
    with pytest.raises(ad.NonFiniteError) as exc:
        ad.backward_grad(bad)
    assert exc.value.node_id is not None


def test_nonfinite_forward_raises():
    x = ad.input_node(np.array([-1.0]), name="x", trainable=True)
    with pytest.raises(ad.NonFiniteError), np.errstate(invalid="ignore"):
        _log(x)
    with pytest.raises(ad.NonFiniteError):
        ad.input_node(np.array([np.inf]))


def test_finite_diff_cube():
    point = np.array([2.0])
    err = checks.finite_diff_error(lambda: float(np.sum(point ** 3)), {"x": point}, {"x": 3.0 * point ** 2}, 1e-5)
    assert err < 1e-6


def test_finite_diff_constant_function():
    point = np.array([1.0, -2.0])
    err = checks.finite_diff_error(lambda: float(np.sum(point * 0.0)), {"x": point}, {"x": np.zeros(2)}, 1e-5)
    assert err == 0.0


def test_finite_diff_linear_sum():
    point = np.linspace(-1, 1, 10)
    assert checks.finite_diff_error(lambda: float(np.sum(point)), {"x": point}, {"x": np.ones(10)}, 1e-5) < 1e-9


def _mlp_loss_and_input_grad(x):
    # Fixed random 2-layer MLP + mean-squared loss against a constant target,
    # through the nets' numpy forward and hand-written backward.
    rng = np.random.default_rng(7)
    params = {"h0.w": rng.normal(size=(4, 5)) * 0.5, "h0.b": rng.normal(size=5) * 0.1,
              "out.w": rng.normal(size=(5, 1)) * 0.5, "out.b": np.zeros(1)}
    target = rng.normal(size=(3, 1))
    acts = []
    h = nets._stack_np(x, params, "h", 1, acts)
    diff = nets._dense_np(h, params, "out") - target
    grads = {name: np.empty_like(p) for name, p in params.items()}
    g = nets._dense_backward(h, params, "out", 2.0 * diff / diff.size, grads)
    return float(np.mean(diff * diff)), nets._stack_backward(acts, params, "h", g, grads)


def test_mlp_gradient_matches_finite_differences():
    point = np.random.default_rng(11).normal(size=(3, 4))
    grads = {"x": _mlp_loss_and_input_grad(point)[1]}
    assert checks.finite_diff_error(lambda: _mlp_loss_and_input_grad(point)[0], {"x": point}, grads, 1e-5) < 1e-4


def _soft_loss_in_logits(lam=0.0, gamma=0.0, temperature=1.0, noise=None, const=None, logits=None):
    """The soft-mode composite loss of ``checks._loss_case`` as a function of
    the logits (the aux head fixed): (arrays, loss_and_grads)."""
    base, net, _ = checks._loss_case()
    const = base if const is None else const
    heads = net.forward(const.z)
    arrays = {"logits": heads[0].copy() if logits is None else logits}
    config = nets.TrainConfig(k=net.k, batch_size=len(const), lam=lam, gamma=gamma, temperature=temperature)

    def loss_and_grads():
        total, _, _, backward = partition.composite_loss(arrays["logits"], heads[1], const, checks.LOSS_RANGE,
                                                         config, noise, hard=False)
        return float(total), {"logits": backward(1.0)[0]}

    return arrays, loss_and_grads


def _case_matmul():
    # A dense layer's hand-written backward in its input and weight.
    rng = np.random.default_rng(5)
    arrays = {"h": rng.normal(size=(4, 3)), "l0.w": rng.normal(size=(3, 2))}
    b, coeff = rng.normal(size=2), rng.normal(size=(4, 2))

    def loss_and_grads():
        params = {"l0.w": arrays["l0.w"], "l0.b": b}
        grads = {name: np.empty_like(p) for name, p in params.items()}
        g_h = nets._dense_backward(arrays["h"], params, "l0", coeff, grads)
        return float(np.sum(coeff * nets._dense_np(arrays["h"], params, "l0"))), {"h": g_h, "l0.w": grads["l0.w"]}

    return arrays, loss_and_grads


def _case_log_softmax():
    # The cross-entropy of L_aux and the warm start, scaled by its weight.
    rng = np.random.default_rng(6)
    arrays = {"logits": rng.normal(size=(5, 3))}
    onehot = bounds.one_hot(np.array([0, 2, 1, 2, 0]), 3)

    def loss_and_grads():
        value, g = partition.cross_entropy(arrays["logits"], onehot, 0.7)
        return 0.7 * value, {"logits": g}

    return arrays, loss_and_grads


def _case_div():
    # The bound width's backward in soft cell weights: the aggregates are
    # sums divided by sums, and every cell keeps both arms.
    const, net, _ = checks._loss_case()
    arrays = {"weights": nets.gumbel_softmax(net.forward(const.z)[0], None, 1.0)}

    def loss_and_grads():
        rep = bounds.aggregate_cells(const.x, const.m1, const.m0, const.p, const.eta, const.a, arrays["weights"])
        pair = bounds.bounds_on_grid(rep, checks.LOSS_RANGE)
        return float(np.mean(pair.width)), {
            "weights": partition._bound_width_backward(1.0, const, checks.LOSS_RANGE, rep, pair)}

    return arrays, loss_and_grads


def _case_log():
    # L_reg alone: no sample is in arm 1, so L_b is dropped.
    const = checks._loss_case()[0]
    return _soft_loss_in_logits(lam=1.0, const=replace(const, a=np.zeros(len(const))))


def _case_clip_min():
    # L_reg with the last cell empty: its mass is clamped, so the loss and its gradient stay finite.
    const, net, _ = checks._loss_case()
    logits = net.forward(const.z)[0]
    logits[:, -1] = -1000.0
    return _soft_loss_in_logits(lam=1.0, const=replace(const, a=np.zeros(len(const))), logits=logits)


# Each op of the former stage-2 graph, checked by central differences in the
# numpy function whose hand-written backward now carries it.
OP_CASES = {
    "matmul": _case_matmul,
    "log_softmax": _case_log_softmax,
    "div": _case_div,
    "log": _case_log,
    "clip_min": _case_clip_min,
    "softmax": lambda: _soft_loss_in_logits(temperature=0.5),
    "gumbel_noise_add": lambda: _soft_loss_in_logits(lam=1.0, gamma=1.0, noise=checks._loss_case()[2]),
}


@pytest.mark.parametrize("op", sorted(OP_CASES))
def test_each_op_gradient_vs_finite_differences(op):
    arrays, loss_and_grads = OP_CASES[op]()
    assert checks.finite_diff_error(lambda: loss_and_grads()[0], arrays, loss_and_grads()[1], 1e-5) < 1e-4


def test_fd_cases_cover_every_checkable_op_kind():
    # The one op kind with a backward is the fused node; the pipeline's fused
    # node is the stage-2 loss, checked by one finite-difference line per term
    # of the loss, one for the warm start and one for straight-through.
    assert ad.OP_KINDS - {"input"} == {"fused"}
    const, net, noise = checks._loss_case()
    logits, aux = net.forward(const.z)
    _, parts, _, _ = partition.composite_loss(logits, aux, const, checks.LOSS_RANGE,
                                              nets.TrainConfig(k=net.k, batch_size=len(const)), noise)
    assert set(checks.LOSS_TERMS) == set(parts)
    names = [r.name.split(" (")[0] for r in checks.gradient_checks()]
    assert names == [f"gradient {label}" for label in checks.LOSS_TERMS.values()] + [
        "gradient warm-start cross-entropy", "gradient straight-through"]


def test_straight_through_exact_onehot_and_identity_gradient():
    # Hard mode: L_b is the width at the exact one-hot weights, and the
    # logits gradient is the soft weights' backward of its gradient there.
    result = checks.straight_through_check(1e-4)
    assert result.passed, result.detail
    const, net, noise = checks._loss_case()
    logits, aux = net.forward(const.z)
    config = nets.TrainConfig(k=net.k, batch_size=len(const))
    _, parts, _, _ = partition.composite_loss(logits, aux, const, checks.LOSS_RANGE, config, noise, hard=True)
    weights = bounds.one_hot(np.argmax(nets.gumbel_softmax(logits, noise, 1.0), axis=1), net.k)
    assert parts["l_b"] == partition.composite_losses(weights, aux, const, checks.LOSS_RANGE, 0.0, 0.0)[0].l_b


def test_determinism_bitwise():
    point = np.random.default_rng(3).normal(size=(3, 4))
    v1, g1 = _mlp_loss_and_input_grad(point)
    v2, g2 = _mlp_loss_and_input_grad(point)
    assert v1 == v2
    assert np.array_equal(g1, g2)
    # The same for the composite loss through its graph.
    const, net, noise = checks._loss_case()
    config = nets.TrainConfig(k=net.k, batch_size=len(const))
    runs = [(float(root.value), {name: g.copy() for name, g in grads.items()}) for root, _, grads in
            (partition.composite_loss_and_grad(net, const, checks.LOSS_RANGE, config, noise) for _ in range(2))]
    assert runs[0][0] == runs[1][0]
    for name in net.params:
        assert np.array_equal(runs[0][1][name], runs[1][1][name]), name


def test_chain_rule_composition():
    # f(g(x)) through two fused nodes vs the product of separately computed
    # df/dg and dg/dx.
    point = np.array([0.7, -0.4, 1.2])

    def g_graph(x):
        return _sum_of(x, lambda v: np.log(v * v + 1.0), lambda v: 2.0 * v / (v * v + 1.0))

    def f_graph(y):
        return _log(ad.fused((y,), 0.5 * y.value, lambda g: (0.5 * g,)))

    x = ad.input_node(point, name="x", trainable=True)
    fused = ad.backward_grad(f_graph(g_graph(x)))["x"]

    x2 = ad.input_node(point, name="x", trainable=True)
    g_root = g_graph(x2)
    dg = ad.backward_grad(g_root)["x"]
    y = ad.input_node(np.array([float(g_root.value)]), name="y", trainable=True)
    df = float(ad.backward_grad(f_graph(y))["y"][0])
    np.testing.assert_allclose(fused, df * dg, atol=1e-12)


def test_repeated_parent_accumulates():
    # x * x + x with x listed twice: each listing adds its gradient.
    x = scalar_input(2.0)
    root = ad.fused((x, x), np.sum(x.value * x.value + x.value), lambda g: (g * 2.0 * x.value, g * np.ones(1)))
    assert ad.backward_grad(root)["x"][0] == pytest.approx(5.0)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=-3, max_value=3), min_size=2, max_size=6))
def test_gradient_check_property_random_vectors(vals):
    # The cross-entropy that the warm start and L_aux differentiate, at
    # random logits against the first class.
    logits = np.asarray(vals)[None, :]
    onehot = np.eye(len(vals))[:1]
    grad = partition.cross_entropy(logits, onehot)[1]
    err = checks.finite_diff_error(lambda: partition.cross_entropy(logits, onehot)[0], {"x": logits}, {"x": grad}, 1e-5)
    assert err < 1e-4


def test_zero_gradient_for_unused_trainable_input():
    x = ad.input_node(np.ones(2), name="x", trainable=True)
    y = ad.input_node(np.ones(2), name="y", trainable=True)
    root = _sum_of(x, lambda v: v, np.ones_like)
    del y
    grads = ad.backward_grad(root)
    assert "y" not in grads  # y is not part of the graph at all
    np.testing.assert_array_equal(grads["x"], np.ones(2))


@st.composite
def _dense_operands(draw):
    """(h, w, b) with small shapes; values are multiples of 1/4 so some
    pre-activations are exact zeros."""
    n, i, o = (draw(st.integers(1, 5)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return tuple(rng.integers(-4, 5, size=shape) / 4.0 for shape in ((n, i), (i, o), (o,)))


@settings(max_examples=60, deadline=None)
@given(_dense_operands(), st.booleans())
def test_dense_is_bitwise_the_unfused_layer(operands, relu):
    # A layer of the nets' forward and hand-written backward: a one-layer
    # relu stack, or a linear head.
    hv, wv, bv = operands
    params = {"l0.w": wv, "l0.b": bv}
    coeff = np.linspace(-1.0, 2.0, hv.shape[0] * wv.shape[1]).reshape(hv.shape[0], wv.shape[1])
    grads = {name: np.empty_like(p) for name, p in params.items()}
    if relu:
        acts = []
        out = nets._stack_np(hv, params, "l", 1, acts)
        g_h = nets._stack_backward(acts, params, "l", coeff, grads)
    else:
        out = nets._dense_np(hv, params, "l0")
        g_h = nets._dense_backward(hv, params, "l0", coeff, grads)

    # The unfused layer in numpy: matmul, bias add and relu, then their
    # backward in reverse (relu's subgradient at 0 is 0).
    z = hv @ wv + bv
    g = coeff * (z > 0.0) if relu else coeff
    assert np.array_equal(out, np.maximum(z, 0.0) if relu else z)
    assert np.array_equal(g_h, g @ wv.T)
    assert np.array_equal(grads["l0.w"], hv.T @ g)
    assert np.array_equal(grads["l0.b"], g.sum(axis=0))


def test_nonfinite_gradient_names_first_node_in_reverse_order():
    # d/dy log(y) = 1/y overflows at a subnormal y; the dot and log nodes keep
    # finite gradients, so y is the first node in reverse order that is not finite.
    y = ad.input_node(np.array([1e-320]), name="y", trainable=True)
    w = ad.input_node(np.array([2.0]), name="w", trainable=True)
    root = _dot(_log(y), w)
    with pytest.raises(ad.NonFiniteError) as exc:
        ad.backward_grad(root)
    order = ad.topo_order(root)
    first = next(n for n in reversed(order) if n.grad is not None and not np.all(np.isfinite(n.grad)))
    assert first is y
    assert exc.value.node_id == y.id
    assert exc.value.op == "input"


def test_nonfinite_gradient_reaching_no_trainable_input_is_not_reported():
    # Gradients are checked once, on those backward_grad returns. Here the
    # gradient of log at a subnormal constant y overflows, but the trainable
    # x does not reach log(y), so its gradient is finite.
    y = ad.input_node(np.array([1e-320]))
    x = ad.input_node(np.array([3.0]), name="x", trainable=True)
    log_y = _log(y)
    root = ad.fused((log_y, x), np.sum(log_y.value) + np.sum(x.value),
                    lambda g: (g * np.ones(1), g * np.ones(1)))
    grads = ad.backward_grad(root)
    assert not np.all(np.isfinite(y.grad))
    np.testing.assert_array_equal(grads["x"], [1.0])


def test_pipeline_builds_every_registered_op_kind(monkeypatch):
    # One short in-process run must build every kind in OP_KINDS, so an op
    # that no pipeline path builds cannot stay in the engine unnoticed.
    built = set()
    init = ad.Node.__init__

    def recording_init(self, op, *args, **kwargs):
        built.add(op)
        init(self, op, *args, **kwargs)

    monkeypatch.setattr(ad.Node, "__init__", recording_init)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    experiments.run_experiment(1, "ours", 2, 0, n=200, overrides={"max_epochs": 1})
    assert built == ad.OP_KINDS
