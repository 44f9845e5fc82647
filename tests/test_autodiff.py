import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivbounds import autodiff as ad
from ivbounds import checks, experiments, nets, parallel


def scalar_input(v):
    return ad.input_node(np.array([v]), name="x", trainable=True)


def test_identity_matmul():
    a = ad.constant([[1.0, 2.0], [3.0, 4.0]])
    eye = ad.constant(np.eye(2))
    np.testing.assert_array_equal(ad.matmul(a, eye).value, a.value)


def test_square_gradient():
    x = scalar_input(3.0)
    root = ad.reduce_sum(ad.mul(x, x))
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
        ad.backward_grad(ad.mul(x, 2.0))


def test_shape_mismatch_is_structured():
    a = ad.constant(np.ones((2, 3)))
    b = ad.constant(np.ones((2, 3)))
    with pytest.raises(ad.ShapeMismatchError) as exc:
        ad.matmul(a, b)
    assert exc.value.op == "matmul"
    assert (2, 3) in exc.value.shapes


def test_nan_gradient_carries_node_id():
    # log(y) at a subnormal y has the gradient 1/y = inf.
    y = ad.input_node(np.array([1e-320]), name="y", trainable=True)
    bad = ad.reduce_sum(ad.log(y))
    with pytest.raises(ad.NonFiniteError) as exc:
        ad.backward_grad(bad)
    assert exc.value.node_id is not None


def test_nonfinite_forward_raises():
    x = ad.input_node(np.array([-1.0]), name="x", trainable=True)
    with pytest.raises(ad.NonFiniteError):
        ad.log(x)


def test_finite_diff_cube():
    err = checks.graph_gradient_error(lambda x: ad.reduce_sum(ad.mul(ad.mul(x, x), x)), np.array([2.0]), step=1e-5)
    assert err < 1e-6


def test_finite_diff_constant_function():
    err = checks.graph_gradient_error(lambda x: ad.reduce_sum(ad.mul(x, 0.0)), np.array([1.0, -2.0]), step=1e-5)
    assert err == 0.0


def test_finite_diff_linear_sum():
    err = checks.graph_gradient_error(lambda x: ad.reduce_sum(x), np.linspace(-1, 1, 10), step=1e-5)
    assert err < 1e-9


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
    grads = {}
    g = nets._dense_backward(h, params, "out", 2.0 * diff / diff.size, grads)
    return float(np.mean(diff * diff)), nets._stack_backward(acts, params, "h", g, grads)


def test_mlp_gradient_matches_finite_differences():
    point = np.random.default_rng(11).normal(size=(3, 4))
    grads = {"x": _mlp_loss_and_input_grad(point)[1]}
    assert checks.finite_diff_error(lambda: _mlp_loss_and_input_grad(point)[0], {"x": point}, grads, 1e-5) < 1e-4


@pytest.mark.parametrize("op", sorted(checks.GRADIENT_CASES))
def test_each_op_gradient_vs_finite_differences(op):
    assert checks.graph_gradient_error(checks.GRADIENT_CASES[op], checks.gradient_point(op), step=1e-5) < 1e-4


def test_fd_cases_cover_every_checkable_op_kind():
    assert set(checks.GRADIENT_CASES) == set(ad.FD_CHECKABLE_OP_KINDS)


def test_straight_through_exact_onehot_and_identity_gradient():
    logits = ad.input_node(np.array([[0.3, 0.2, 0.5], [0.9, 0.05, 0.05]]), name="l", trainable=True)
    soft = ad.softmax(logits)
    hard = ad.straight_through(soft)
    expected = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    np.testing.assert_array_equal(hard.value, expected)
    weights = ad.constant(np.arange(6.0).reshape(2, 3))
    hard_grads = ad.backward_grad(ad.reduce_sum(ad.mul(hard, weights)))
    soft_grads = ad.backward_grad(ad.reduce_sum(ad.mul(soft, weights)))
    np.testing.assert_array_equal(hard_grads["l"], soft_grads["l"])


def test_determinism_bitwise():
    point = np.random.default_rng(3).normal(size=(3, 4))
    v1, g1 = _mlp_loss_and_input_grad(point)
    v2, g2 = _mlp_loss_and_input_grad(point)
    assert v1 == v2
    assert np.array_equal(g1, g2)
    # The same for a graph: the composite loss's ops, through one backward sweep each.
    grads = []
    for _ in range(2):
        x = ad.input_node(point, name="x", trainable=True)
        grads.append(ad.backward_grad(ad.reduce_sum(ad.mul(ad.log_softmax(x), ad.softmax(ad.mul(x, 2.0)))))["x"])
    assert np.array_equal(grads[0], grads[1])


def test_chain_rule_composition():
    # f(g(x)) fused vs product of separately computed df/dg and dg/dx.
    point = np.array([0.7, -0.4, 1.2])

    def g_graph(x):
        return ad.reduce_sum(ad.log(ad.add(ad.mul(x, x), 1.0)))

    x = ad.input_node(point, name="x", trainable=True)
    fused_root = ad.log(ad.mul(g_graph(x), 0.5))
    fused = ad.backward_grad(fused_root)["x"]

    x2 = ad.input_node(point, name="x", trainable=True)
    g_root = g_graph(x2)
    dg = ad.backward_grad(g_root)["x"]
    g_val = float(g_root.value)
    y = ad.input_node(np.array([g_val]), name="y", trainable=True)
    f_root = ad.reduce_sum(ad.log(ad.mul(y, 0.5)))
    df = float(ad.backward_grad(f_root)["y"][0])
    np.testing.assert_allclose(fused, df * dg, atol=1e-12)


def test_repeated_parent_accumulates():
    x = scalar_input(2.0)
    root = ad.reduce_sum(ad.add(ad.mul(x, x), x))
    assert ad.backward_grad(root)["x"][0] == pytest.approx(5.0)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=-3, max_value=3), min_size=2, max_size=6))
def test_gradient_check_property_random_vectors(vals):
    point = np.asarray(vals)
    point = np.where(np.abs(point) < 1e-3, point + 0.01, point)

    def build(x):
        return ad.reduce_mean(ad.mul(ad.log(ad.add(ad.mul(x, x), 1.0)), ad.clip_min(x, 0.0)))

    assert checks.graph_gradient_error(build, point, step=1e-5) < 1e-4


def test_zero_gradient_for_unused_trainable_input():
    x = ad.input_node(np.ones(2), name="x", trainable=True)
    y = ad.input_node(np.ones(2), name="y", trainable=True)
    root = ad.reduce_sum(x)
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
    grads = {}
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
    # d/dy log(y) = 1/y overflows at a subnormal y; sum and log keep finite
    # gradients, so y is the first node in reverse order that is not finite.
    y = ad.input_node(np.array([1e-320]), name="y", trainable=True)
    w = ad.input_node(np.array([2.0]), name="w", trainable=True)
    root = ad.reduce_sum(ad.mul(ad.log(y), w))
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
    y = ad.constant(np.array([1e-320]))
    x = ad.input_node(np.array([3.0]), name="x", trainable=True)
    root = ad.add(ad.reduce_sum(ad.log(y)), ad.reduce_sum(x))
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
