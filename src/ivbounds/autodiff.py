"""The stage-2 backward, entered through the two names the trace mode times.

``partition.composite_loss_graph`` returns the stage-2 loss as a
``partition.LossRecord``: the loss value, the partition net's two outputs by
name and the hand-written backward of ``partition.composite_loss``. The graph
engine that lived here is gone; these two functions stay only because the
benchmark's trace mode wraps them by name (``autodiff.backward_s`` times
``backward_grad``; ``autodiff.nodes_per_step`` counts what ``topo_order``
lists, 3). ROADMAP item 1 re-points those spans and removes this module.
"""

from __future__ import annotations

import numpy as np

from .nets import NonFiniteError


def topo_order(root) -> list:
    """The names of the record's inputs, then the record itself."""
    return [*root.inputs, root]


def backward_grad(root) -> dict[str, np.ndarray]:
    """The gradient of the scalar loss ``root`` in each of its inputs, by name. Each must have its
    input's shape (``ValueError``) and be finite; the error names the last input that is not."""
    if np.size(root.value) != 1:
        raise ValueError(f"backward_grad requires a scalar root, got shape {np.shape(root.value)}")
    *names, _ = topo_order(root)
    grads = dict(zip(names, root.backward(1.0), strict=True))
    for name in reversed(names):
        if grads[name].shape != root.inputs[name].shape:
            raise ValueError(f"gradient of '{name}' has shape {grads[name].shape}, its input {root.inputs[name].shape}")
        if not np.isfinite(grads[name]).all():
            raise NonFiniteError(name, "gradient")
    return grads
