"""Reverse-mode gradients over a graph of numpy-computed nodes.

A graph holds float64 input leaves and ``fused`` nodes, whose value and
backward are computed in numpy; ``backward_grad`` accumulates gradients by a
reverse topological sweep. The one graph the pipeline builds is the stage-2
composite loss (``partition.composite_loss_graph``): the partition net's two
outputs as leaves under one fused node. The engine stays, rather than the
loss calling its backward directly, because the benchmark's trace mode times
the stage-2 backward through ``backward_grad`` and ``topo_order`` and counts
the nodes per step (ROADMAP item 1 moves those spans).

Every value is checked to be finite when its node is built, and the
trainable gradients once per backward pass; the error names the first node
in reverse topological order whose gradient is not finite.
"""

from __future__ import annotations

import itertools
from typing import Callable

import numpy as np

from .parallel import PicklableFields

_NODE_IDS = itertools.count()

# Every op kind a graph can hold; a test asserts that one run builds each.
OP_KINDS = frozenset({"input", "fused"})


class ShapeMismatchError(PicklableFields, ValueError):
    """Raised when a gradient's shape is not its node's value's shape."""

    def __init__(self, op: str, *shapes: tuple[int, ...]):
        self.op = op
        self.shapes = shapes
        super().__init__(f"op '{op}': incompatible shapes {list(shapes)}")


class NonFiniteError(PicklableFields, ArithmeticError):
    """Raised when a value or gradient contains NaN/inf; ``node`` is None for
    an intermediate of a fused node's numpy computation."""

    def __init__(self, node: "Node | None", what: str):
        self.node_id = None if node is None else node.id
        self.op = None if node is None else node.op
        where = "" if node is None else f" at node {node.id} (op '{node.op}')"
        super().__init__(f"non-finite {what}{where}")


class Node:
    """One vertex of a graph: op kind, parents, value and accumulated gradient."""

    __slots__ = ("id", "op", "parents", "value", "grad", "name", "trainable", "_backward")

    def __init__(self, op: str, parents: tuple["Node", ...] = (), name: str | None = None, trainable: bool = False):
        assert op in OP_KINDS, op
        self.id = next(_NODE_IDS)
        self.op = op
        self.parents = parents
        self.value: np.ndarray | None = None
        self.grad: np.ndarray | None = None
        self.name = name
        self.trainable = trainable

    def _init(self, value: np.ndarray, backward: Callable[[], None]) -> "Node":
        self.value = value
        self._backward = backward
        if not np.isfinite(value).all():
            raise NonFiniteError(self, "value")
        return self


def input_node(value, name: str | None = None, trainable: bool = False) -> Node:
    value = np.ascontiguousarray(np.asarray(value, dtype=np.float64))
    return Node("input", (), name=name, trainable=trainable)._init(value, lambda: None)


def fused(parents: tuple[Node, ...], value, backward: Callable[[np.ndarray], tuple[np.ndarray, ...]]) -> Node:
    """A node computed outside the engine: ``value`` is its value, and
    ``backward(g)`` returns, for the node's gradient ``g``, one gradient per
    parent, of that parent's shape. A parent listed twice gets both."""
    out = Node("fused", tuple(parents))

    def bw():
        for parent, g in zip(parents, backward(out.grad), strict=True):
            if g.shape != parent.value.shape:
                raise ShapeMismatchError(out.op, parent.value.shape, g.shape)
            # The first contribution is stored as is and may alias another
            # array, so later ones build a new array instead of adding in place.
            parent.grad = g if parent.grad is None else parent.grad + g

    return out._init(np.asarray(value, dtype=np.float64), bw)


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


def backward_grad(root: Node) -> dict[str, np.ndarray]:
    """Populate gradients and return those of trainable named inputs of a
    scalar (size-1) root. The returned arrays may be shared with other
    nodes' gradients: do not modify them in place."""
    if root.value.size != 1:
        raise ValueError(f"backward_grad requires a scalar root, got shape {root.value.shape}")
    order = topo_order(root)
    for node in order:
        node.grad = None
    root.grad = np.ones_like(root.value)
    for node in reversed(order):
        if node.grad is not None:
            node._backward()
    out: dict[str, np.ndarray] = {}
    for node in order:
        if node.op == "input" and node.trainable and node.name is not None:
            out[node.name] = node.grad if node.grad is not None else np.zeros_like(node.value)
    if not all(np.isfinite(g).all() for g in out.values()):
        for node in reversed(order):
            if node.grad is not None and not np.isfinite(node.grad).all():
                raise NonFiniteError(node, "gradient")
    return out
