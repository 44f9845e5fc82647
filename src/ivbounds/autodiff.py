"""Reverse-mode automatic differentiation on dense float64 arrays.

The engine is deliberately small: tensors are C-order ``numpy`` float64
arrays, and graphs are built eagerly: each node computes its value once,
when it is built, and never re-evaluates it. Gradients are accumulated by a
reverse topological sweep. Elementwise binary ops (``add``, ``sub``,
``mul``, ``div``) accept equal shapes or a Python scalar; nothing else
broadcasts.

It holds only the loss math of the second stage: the composite loss and
the warm-start cross-entropy. Their graphs start at the partition net's head
outputs, which enter as trainable leaves; the nets' own layers run forward
and backward in numpy (see ``nets``). The ops are the ones those graphs
build: ``input``, ``matmul``, the elementwise binaries, ``neg``,
``softmax``, ``log_softmax``, ``log``, ``clip_min``, the reductions ``sum``,
``mean``, ``min`` and ``max``, ``straight_through`` and ``gumbel_noise_add``
(``OP_KINDS``).

Finite checks: every forward value is checked when its node is built.
Gradients are checked once per backward pass, on the trainable gradients it
returns; if one is not finite, the error names the first node in reverse
topological order whose gradient is not finite. A non-finite gradient that
reaches no trainable input is not reported.
"""

from __future__ import annotations

import itertools
from typing import Callable

import numpy as np

from .parallel import PicklableFields

Tensor = np.ndarray

_NODE_IDS = itertools.count()

# Every op kind the engine can place in a graph. Checks and tests assert
# full coverage against this registry.
OP_KINDS = frozenset(
    {
        "input",
        "matmul",
        "add",
        "sub",
        "mul",
        "div",
        "neg",
        "softmax",
        "log_softmax",
        "log",
        "clip_min",
        "sum",
        "mean",
        "min",
        "max",
        "straight_through",
        "gumbel_noise_add",
    }
)

# Ops whose analytic gradient is checkable by central finite differences.
# The remainder (input is the thing being differentiated; straight_through
# reroutes gradients by contract) get dedicated contract tests instead.
FD_CHECKABLE_OP_KINDS = OP_KINDS - {"input", "straight_through"}


class ShapeMismatchError(PicklableFields, ValueError):
    """Raised when operand shapes are incompatible for an op."""

    def __init__(self, op: str, *shapes: tuple[int, ...]):
        self.op = op
        self.shapes = shapes
        super().__init__(f"op '{op}': incompatible shapes {list(shapes)}")


class NonFiniteError(PicklableFields, ArithmeticError):
    """Raised when a forward value or gradient contains NaN/inf."""

    def __init__(self, node: "Node", what: str):
        self.node_id = node.id
        self.op = node.op
        super().__init__(f"non-finite {what} at node {node.id} (op '{node.op}')")


def as_tensor(x) -> Tensor:
    """Coerce to a C-order float64 array."""
    return np.ascontiguousarray(np.asarray(x, dtype=np.float64))


class Node:
    """One vertex of a computation graph.

    Holds the op kind, parent references, the forward value computed when
    the node is built and the gradient accumulated during the backward sweep.
    """

    __slots__ = ("id", "op", "parents", "value", "grad", "name", "trainable", "_backward")

    def __init__(self, op: str, parents: tuple["Node", ...] = (), name: str | None = None, trainable: bool = False):
        assert op in OP_KINDS, op
        self.id = next(_NODE_IDS)
        self.op = op
        self.parents = parents
        self.value: Tensor | None = None
        self.grad: Tensor | None = None
        self.name = name
        self.trainable = trainable

    def _init(self, value: Tensor, backward: Callable[[], None]) -> "Node":
        self.value = value
        self._backward = backward
        if not np.isfinite(value).all():
            raise NonFiniteError(self, "value")
        return self

    # Operator sugar for ``node * scalar`` and ``scalar - node``; scalars
    # stay scalars (they are op parameters, not nodes).
    def __rsub__(self, other):
        return add(neg(self), other)

    def __mul__(self, other):
        return mul(self, other)

    def __repr__(self):
        shape = None if self.value is None else self.value.shape
        return f"Node(id={self.id}, op={self.op!r}, shape={shape}, name={self.name!r})"


def _accumulate(parent: Node, g: Tensor) -> None:
    # The first contribution is stored as is and may alias another node's
    # gradient, so later ones build a new array instead of adding in place.
    assert g.shape == parent.value.shape
    parent.grad = g if parent.grad is None else parent.grad + g


def _no_backward() -> None:
    """Backward of a leaf: nothing to propagate."""


def input_node(value, name: str | None = None, trainable: bool = False) -> Node:
    return Node("input", (), name=name, trainable=trainable)._init(as_tensor(value), _no_backward)


def constant(value) -> Node:
    return input_node(value, name=None, trainable=False)


def matmul(a: Node, b: Node) -> Node:
    if a.value.ndim != 2 or b.value.ndim != 2 or a.value.shape[1] != b.value.shape[0]:
        raise ShapeMismatchError("matmul", a.value.shape, b.value.shape)
    out = Node("matmul", (a, b))

    def bw():
        _accumulate(a, out.grad @ b.value.T)
        _accumulate(b, a.value.T @ out.grad)

    return out._init(a.value @ b.value, bw)


def _equal_shapes(op: str, a: Node, b: Node) -> None:
    if a.value.shape != b.value.shape:
        raise ShapeMismatchError(op, a.value.shape, b.value.shape)


def add(a: Node, b: Node | float) -> Node:
    if not isinstance(b, Node):
        scalar = float(b)
        out = Node("add", (a,))
        return out._init(a.value + scalar, lambda: _accumulate(a, out.grad))
    _equal_shapes("add", a, b)
    out = Node("add", (a, b))

    def bw():
        _accumulate(a, out.grad)
        _accumulate(b, out.grad)

    return out._init(a.value + b.value, bw)


def sub(a: Node, b: Node | float) -> Node:
    if not isinstance(b, Node):
        scalar = float(b)
        out = Node("sub", (a,))
        return out._init(a.value - scalar, lambda: _accumulate(a, out.grad))
    _equal_shapes("sub", a, b)
    out = Node("sub", (a, b))

    def bw():
        _accumulate(a, out.grad)
        _accumulate(b, -out.grad)

    return out._init(a.value - b.value, bw)


def mul(a: Node, b: Node | float) -> Node:
    if not isinstance(b, Node):
        scalar = float(b)
        out = Node("mul", (a,))
        return out._init(a.value * scalar, lambda: _accumulate(a, out.grad * scalar))
    _equal_shapes("mul", a, b)
    out = Node("mul", (a, b))

    def bw():
        _accumulate(a, out.grad * b.value)
        _accumulate(b, out.grad * a.value)

    return out._init(a.value * b.value, bw)


def div(a: Node, b: Node | float) -> Node:
    if not isinstance(b, Node):
        scalar = float(b)
        out = Node("div", (a,))
        return out._init(a.value / scalar, lambda: _accumulate(a, out.grad / scalar))
    _equal_shapes("div", a, b)
    out = Node("div", (a, b))

    def bw():
        _accumulate(a, out.grad / b.value)
        _accumulate(b, -out.grad * a.value / (b.value * b.value))

    return out._init(a.value / b.value, bw)


def neg(a: Node) -> Node:
    out = Node("neg", (a,))
    return out._init(-a.value, lambda: _accumulate(a, -out.grad))


def softmax(a: Node) -> Node:
    """Softmax along the last axis."""
    out = Node("softmax", (a,))
    e = np.exp(a.value - a.value.max(axis=-1, keepdims=True))

    def bw():
        s = out.value
        inner = (out.grad * s).sum(axis=-1, keepdims=True)
        _accumulate(a, s * (out.grad - inner))

    return out._init(e / e.sum(axis=-1, keepdims=True), bw)


def log_softmax(a: Node) -> Node:
    out = Node("log_softmax", (a,))
    shifted = a.value - a.value.max(axis=-1, keepdims=True)

    def bw():
        s = np.exp(out.value)
        _accumulate(a, out.grad - s * out.grad.sum(axis=-1, keepdims=True))

    return out._init(shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True)), bw)


def log(a: Node) -> Node:
    out = Node("log", (a,))
    return out._init(np.log(a.value), lambda: _accumulate(a, out.grad / a.value))


def clip_min(a: Node, floor: float) -> Node:
    floor = float(floor)
    out = Node("clip_min", (a,))
    return out._init(np.maximum(a.value, floor), lambda: _accumulate(a, out.grad * (a.value > floor)))


def reduce_sum(a: Node, axis: int | None = None) -> Node:
    out = Node("sum", (a,))

    def bw():
        if axis is None:
            _accumulate(a, np.full_like(a.value, float(out.grad)))
        else:
            _accumulate(a, np.repeat(np.expand_dims(out.grad, axis), a.value.shape[axis], axis=axis))

    return out._init(np.sum(a.value, axis=axis), bw)


def reduce_mean(a: Node) -> Node:
    """Mean over all entries."""
    out = Node("mean", (a,))
    count = a.value.size
    return out._init(np.mean(a.value), lambda: _accumulate(a, np.full_like(a.value, float(out.grad) / count)))


def _extreme_reduce(kind: str, a: Node, axis: int) -> Node:
    pick = np.argmin if kind == "min" else np.argmax
    out = Node(kind, (a,))

    def bw():
        # Subgradient through the selected entry; ties go to the first
        # occurrence along the axis.
        g = np.zeros_like(a.value)
        idx = pick(a.value, axis=axis)
        np.put_along_axis(g, np.expand_dims(idx, axis), np.expand_dims(out.grad, axis), axis=axis)
        _accumulate(a, g)

    return out._init(np.min(a.value, axis=axis) if kind == "min" else np.max(a.value, axis=axis), bw)


def reduce_min(a: Node, axis: int) -> Node:
    return _extreme_reduce("min", a, axis)


def reduce_max(a: Node, axis: int) -> Node:
    return _extreme_reduce("max", a, axis)


def straight_through(a: Node) -> Node:
    """Exact one-hot of the per-row argmax; backward is the identity.

    The forward value is built from scratch so hard mode emits bit-exact
    one-hot rows; the gradient is routed to the soft parent unchanged.
    """
    if a.value.ndim != 2:
        raise ShapeMismatchError("straight_through", a.value.shape)
    out = Node("straight_through", (a,))
    hard = np.zeros_like(a.value)
    hard[np.arange(a.value.shape[0]), np.argmax(a.value, axis=1)] = 1.0
    return out._init(hard, lambda: _accumulate(a, out.grad))


def gumbel_noise_add(a: Node, noise) -> Node:
    """Add a fixed noise tensor; its gradient is the identity."""
    noise = as_tensor(noise)
    if noise.shape != a.value.shape:
        raise ShapeMismatchError("gumbel_noise_add", a.value.shape, noise.shape)
    out = Node("gumbel_noise_add", (a,))
    return out._init(a.value + noise, lambda: _accumulate(a, out.grad))


def topo_order(root: Node) -> list[Node]:
    """Parents-before-children order, deterministic in graph structure."""
    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node.id in seen:
            continue
        seen.add(node.id)
        stack.append((node, True))
        for parent in reversed(node.parents):
            if parent.id not in seen:
                stack.append((parent, False))
    return order


def backward_grad(root: Node) -> dict[str, Tensor]:
    """Populate gradients and return those of trainable named inputs.

    Requires a scalar root (size-1 value). Forward values are untouched.
    Raises ``NonFiniteError`` when a returned gradient is not finite, at the
    first node in reverse topological order whose gradient is not finite.
    The returned arrays may be shared with other nodes' gradients: do not
    modify them in place.
    """
    if root.value.size != 1:
        raise ValueError(f"backward_grad requires a scalar root, got shape {root.value.shape}")
    order = topo_order(root)
    for node in order:
        node.grad = None
    root.grad = np.ones_like(root.value)
    for node in reversed(order):
        if node.grad is not None:
            node._backward()
    out: dict[str, Tensor] = {}
    for node in order:
        if node.op == "input" and node.trainable and node.name is not None:
            out[node.name] = node.grad if node.grad is not None else np.zeros_like(node.value)
    if not all(np.isfinite(g).all() for g in out.values()):
        for node in reversed(order):
            if node.grad is not None and not np.isfinite(node.grad).all():
                raise NonFiniteError(node, "gradient")
    return out
