"""Network architectures, the Adam optimizer and the training loop.

All models are small relu MLPs (hidden width 10). The outcome and
propensity nets are one class, ``TwoBranchNet``: covariate and instrument
go through separate encoder branches joined by shared layers, and the
``MlpSpec`` heads/head transform make it the outcome net (one identity head
per treatment arm) or the propensity net (one sigmoid head). The partition
net maps instruments to k cells through a Gumbel-softmax layer
(``gumbel_softmax``) and carries an auxiliary linear classification head on
its last hidden layer.

Every net runs forward through ``_stack_np``/``_dense_np`` in numpy, to
predict and to train, and backward through ``_heads_backward`` and
``_stack_backward`` on the activations the forward collected. The backward
keeps the arithmetic of a fused matmul-bias-relu layer (relu's subgradient
is 0 at 0, read off the output); the tests hold it bitwise to an op-by-op
reference. Stage-1 nets validate on ``loss``, ``loss_and_grad`` without the
backward; ``PartitionNet.backward`` takes the head gradients of the stage-2
loss (``partition.composite_loss``) into the net.

``predict_pairwise`` runs the forward over blocks of
``PAIRWISE_BLOCK_PAIRS`` (x, z) pairs: small enough to stay in cache, and
large enough to keep the first trunk matmul out of OpenBLAS's small-matrix
kernel (M <= 5,000 rows), whose last bits differ (see ``predict_pairwise``).

``AdamState`` keeps each moment in one flat buffer, with a per-parameter
view into it under the parameter's name, so an Adam step is a handful of
whole-buffer operations.
"""

from __future__ import annotations

import json
import operator
import struct
from dataclasses import asdict, dataclass, field
from functools import reduce

import numpy as np

from . import InputError
from . import autodiff as ad
from .data import sigmoid
from .parallel import PicklableFields
from .rng import stream_rng

HIDDEN_WIDTH = 10
PAIRWISE_BLOCK_PAIRS = 8192


@dataclass(frozen=True)
class MlpSpec:
    """Two-branch MLP dimensions: encoders, shared trunk, output heads."""

    x_depth: int = 2
    z_depth: int = 3
    shared_depth: int = 2
    hidden: int = HIDDEN_WIDTH
    heads: int = 1
    head_transform: str = "identity"  # or "sigmoid"

    def __post_init__(self):
        if min(self.x_depth, self.z_depth, self.shared_depth) < 1:
            raise ValueError("all depths must be >= 1")
        if self.hidden < 1:
            raise ValueError("hidden width must be >= 1")
        if self.head_transform not in ("identity", "sigmoid"):
            raise ValueError(f"unknown head transform {self.head_transform!r}")


OUTCOME_SPEC = MlpSpec(heads=2)
PROPENSITY_SPEC = MlpSpec(heads=1, head_transform="sigmoid")


@dataclass
class TrainConfig:
    """Shared training hyperparameters for both stages.

    The batch size default favors many small steps: with n = 2000 (800
    training samples) larger batches starve Adam of updates inside the
    100-epoch budget and the nets underfit visibly.
    """

    learning_rate: float = 0.03
    max_epochs: int = 100
    patience: int = 10
    batch_size: int = 32
    k: int = 2
    lam: float = 1.0
    gamma: float = 0.5
    temperature: float = 1.0
    seed: int = 0
    restarts: int = 3

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise InputError("learning rate must be positive")
        if self.max_epochs < 1:
            raise InputError("max_epochs must be >= 1")
        if self.k < 1:
            raise InputError("k must be >= 1")
        if self.batch_size < 2 * self.k:
            raise InputError("batch size must be >= 2k")
        if self.lam < 0 or self.gamma < 0:
            raise InputError("loss weights must be non-negative")
        if self.temperature <= 0:
            raise InputError("temperature must be positive")
        if self.restarts < 1:
            raise InputError("restarts must be >= 1")


def _init_dense(rng: np.random.Generator, params: dict, prefix: str, fan_in: int, fan_out: int) -> None:
    bound = 1.0 / np.sqrt(fan_in)
    params[f"{prefix}.w"] = rng.uniform(-bound, bound, size=(fan_in, fan_out))
    params[f"{prefix}.b"] = rng.uniform(-bound, bound, size=(fan_out,))


def _init_stack(rng, params, prefix, in_dim, depth, hidden) -> int:
    d = in_dim
    for i in range(depth):
        _init_dense(rng, params, f"{prefix}{i}", d, hidden)
        d = hidden
    return d


def _dense_np(h: np.ndarray, params, prefix: str) -> np.ndarray:
    out = h @ params[f"{prefix}.w"]
    out += params[f"{prefix}.b"]
    return out


def _stack_np(h: np.ndarray, params, prefix: str, depth: int, acts: list | None = None) -> np.ndarray:
    """Relu layers ``{prefix}0``, ``{prefix}1``, ... on the rows of ``h``; the
    list ``acts``, if given, receives the input and each layer's output."""
    acts = [] if acts is None else acts
    acts.append(h)
    for i in range(depth):
        h = _dense_np(h, params, f"{prefix}{i}")
        acts.append(np.maximum(h, 0.0, out=h))
    return h


def _dense_backward(h: np.ndarray, params, prefix: str, g: np.ndarray, grads: dict) -> np.ndarray:
    """Puts layer ``prefix``'s parameter gradients for input ``h`` and output
    gradient ``g`` in ``grads``; returns the input's gradient."""
    grads[f"{prefix}.w"] = h.T @ g
    grads[f"{prefix}.b"] = g.sum(axis=0)
    return g @ params[f"{prefix}.w"].T


def _stack_backward(acts: list, params, prefix: str, g: np.ndarray, grads: dict) -> np.ndarray:
    """``_dense_backward`` for a stack that collected ``acts``, layer by layer
    from the top; relu passes ``g`` where the layer's output is > 0."""
    for i in reversed(range(len(acts) - 1)):
        g = _dense_backward(acts[i], params, f"{prefix}{i}", g * (acts[i + 1] > 0.0), grads)
    return g


def _heads_backward(acts: list, params, prefix: str, head_grads: dict, grads: dict) -> np.ndarray:
    """Backward of linear heads (name -> output gradient) on the stack that
    collected ``acts``, then of the stack; returns its input's gradient."""
    g = reduce(operator.add, [_dense_backward(acts[-1], params, name, gh, grads) for name, gh in head_grads.items()])
    return _stack_backward(acts, params, prefix, g, grads)


def _log_loss_and_grad(logit: np.ndarray, a: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean logistic loss softplus(w) - a * w, and its gradient (sigmoid(w) - a) / n."""
    g = np.full_like(logit, 1.0 / logit.size)
    return float(np.mean(np.logaddexp(0.0, logit) - a * logit)), g * sigmoid(logit) + (-g) * a


def _as_col(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    return v.reshape(-1, 1) if v.ndim == 1 else v


class _Net:
    """Common parameter plumbing for all model classes."""

    kind = ""

    def __init__(self, params: dict[str, np.ndarray]):
        self.params = params

    def copy_params(self) -> dict[str, np.ndarray]:
        return {name: arr.copy() for name, arr in self.params.items()}

    def set_params(self, params: dict[str, np.ndarray]) -> None:
        if set(params) != set(self.params):
            raise ValueError("parameter name mismatch")
        self.params = {name: np.array(arr, dtype=np.float64) for name, arr in params.items()}

    def meta(self) -> dict:
        raise NotImplementedError


def _head_names(heads: int) -> list[str]:
    return ["head"] if heads == 1 else [f"head{i}" for i in range(heads)]


class TwoBranchNet(_Net):
    """Covariate and instrument encoders joined by a shared relu trunk, with
    ``spec.heads`` scalar heads; the one class behind both two-branch nets.

    ``spec.head_transform`` picks the model and its loss. Identity heads are
    the outcome regression E[Y | X, A = a, Z], one head per arm, trained by
    squared error on the head matching the treatment. A sigmoid head is the
    propensity P(A = 1 | X, Z), trained by logistic loss.
    """

    KINDS = {("identity", 2): "two_head_outcome", ("sigmoid", 1): "propensity"}

    def __init__(self, x_dim: int, z_dim: int, spec: MlpSpec, params: dict):
        key = (spec.head_transform, spec.heads)
        if key not in self.KINDS:
            raise ValueError(f"unsupported (head_transform, heads) {key}: need one of {sorted(self.KINDS)}")
        super().__init__(params)
        self.kind = self.KINDS[key]
        self.x_dim = x_dim
        self.z_dim = z_dim
        self.spec = spec
        self.head_names = _head_names(spec.heads)

    @classmethod
    def create(cls, x_dim: int, z_dim: int, rng: np.random.Generator, spec: MlpSpec):
        params: dict[str, np.ndarray] = {}
        _init_stack(rng, params, "x_enc.", x_dim, spec.x_depth, spec.hidden)
        _init_stack(rng, params, "z_enc.", z_dim, spec.z_depth, spec.hidden)
        _init_stack(rng, params, "shared.", 2 * spec.hidden, spec.shared_depth, spec.hidden)
        for name in _head_names(spec.heads):
            _init_dense(rng, params, name, spec.hidden, 1)
        return cls(x_dim, z_dim, spec, params)

    def meta(self) -> dict:
        return {"x_dim": self.x_dim, "z_dim": self.z_dim, "spec": asdict(self.spec)}

    @classmethod
    def from_meta(cls, meta: dict, params: dict):
        return cls(meta["x_dim"], meta["z_dim"], MlpSpec(**meta["spec"]), params)

    def loss_and_grad(self, batch: dict[str, np.ndarray]) -> tuple[float, dict[str, np.ndarray]]:
        """Loss on ``batch`` and each parameter's gradient: squared error of
        the head of the sample's arm (outcome), or logistic loss (propensity)."""
        acts_x, acts_z, acts_h = [], [], []
        hx, hz = self._encode_np(batch["x"], batch["z"], acts_x, acts_z)
        loss, g_heads = self._loss_and_head_grads(self._heads_np(np.concatenate([hx, hz], axis=1), acts_h), batch)
        grads: dict[str, np.ndarray] = {}
        g = _heads_backward(acts_h, self.params, "shared.", dict(zip(self.head_names, g_heads)), grads)
        _stack_backward(acts_x, self.params, "x_enc.", g[:, : hx.shape[1]], grads)
        _stack_backward(acts_z, self.params, "z_enc.", g[:, hx.shape[1] :], grads)
        return loss, grads

    def loss(self, batch: dict[str, np.ndarray]) -> float:
        """The loss of ``loss_and_grad`` alone: the forward pass, no backward."""
        return self._loss_and_head_grads(self._heads_np(np.concatenate(self._encode_np(batch["x"], batch["z"]),
                                                                       axis=1)), batch)[0]

    def _loss_and_head_grads(self, heads: list[np.ndarray], batch: dict[str, np.ndarray]):
        a = _as_col(batch["a"])
        if self.spec.head_transform == "sigmoid":
            loss, g = _log_loss_and_grad(heads[0], a)
            return loss, [g]
        diff = (heads[1] * a + heads[0] * (1.0 - a)) - _as_col(batch["y"])
        g = np.full_like(diff, 1.0 / diff.size) * diff
        g += g
        return float(np.mean(diff * diff)), [g * (1.0 - a), g * a]

    def _encode_np(self, x: np.ndarray, z: np.ndarray, acts_x: list | None = None,
                   acts_z: list | None = None) -> tuple[np.ndarray, np.ndarray]:
        return (_stack_np(_as_col(x), self.params, "x_enc.", self.spec.x_depth, acts_x),
                _stack_np(_as_col(z), self.params, "z_enc.", self.spec.z_depth, acts_z))

    def _heads_np(self, pairs: np.ndarray, acts: list | None = None) -> list[np.ndarray]:
        """Untransformed (n, 1) head outputs for rows ``[hx | hz]`` of encodings."""
        h = _stack_np(pairs, self.params, "shared.", self.spec.shared_depth, acts)
        return [_dense_np(h, self.params, name) for name in self.head_names]

    def _outputs_np(self, pairs: np.ndarray) -> list[np.ndarray]:
        out = self._heads_np(pairs)
        return [sigmoid(v) for v in out] if self.spec.head_transform == "sigmoid" else out

    def predict(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Shape (n,) for one head, else (n, heads): the outcome net gives
        [arm 0, arm 1] columns."""
        out = self._outputs_np(np.concatenate(self._encode_np(x, z), axis=1))
        return out[0][:, 0] if len(out) == 1 else np.concatenate(out, axis=1)

    def predict_pairwise(self, xq: np.ndarray, z: np.ndarray, block_pairs: int = PAIRWISE_BLOCK_PAIRS):
        """M[i, j] = prediction at (x_i, z_j), one (nq, nz) array per head:
        the propensity net gives M, the outcome net (M0, M1).

        The trunk runs on blocks of whole query rows, each at least
        ``block_pairs`` pairs long (all nq rows when there are fewer pairs);
        a short last block is folded into the one before it. Each block is a
        view of one reused (rows, nz, 2h) buffer of ``[hx_i | hz_j]`` rows:
        ``hz`` is tiled into it once and each block's ``hx`` rows are
        broadcast into it, so no 20-MB repeat/tile temporaries stream
        through memory.

        The floor on the block size is what keeps the bits of the 64-query-
        row chunks this replaced. The first trunk layer is an (M x 20) @
        (20 x 10) matmul with M = pairs in the block; OpenBLAS 0.3.31
        (measured on one thread and on two) computes it with a small-matrix
        kernel whose last bits differ when M <= 5,000, and with the same
        bits for every larger M. Blocks of 8,192 pairs stay above that
        wherever a 64-row chunk did; where a chunk was already below it
        (fewer than 79 z rows, or a ragged tail of few query rows) the bits
        may differ.
        """
        hx, hz = self._encode_np(xq, z)
        nq, nz, h = hx.shape[0], hz.shape[0], hx.shape[1]
        rows = max(1, min(nq, -(-block_pairs // max(nz, 1))))
        starts = range(0, nq - rows + 1, rows)
        stops = [*starts[1:], nq]
        buf = np.empty((nq - (starts[-1] if starts else 0), nz, 2 * h))
        buf[:, :, h:] = hz
        out = [np.empty((nq, nz)) for _ in self.head_names]
        for lo, hi in zip(starts, stops):
            block = buf[: hi - lo]
            block[:, :, :h] = hx[lo:hi, None, :]
            heads = self._outputs_np(block.reshape(-1, 2 * h))
            for m, v in zip(out, heads):
                m[lo:hi] = v.reshape(hi - lo, nz)
        return out[0] if len(out) == 1 else tuple(out)


class EtaNet(_Net):
    """P(A = 1 | Z): three relu layers on the instrument, sigmoid head."""

    kind = "eta"

    def __init__(self, z_dim: int, depth: int, hidden: int, params: dict):
        super().__init__(params)
        self.z_dim = z_dim
        self.depth = depth
        self.hidden = hidden

    @classmethod
    def create(cls, z_dim: int, rng: np.random.Generator, depth: int = 3, hidden: int = HIDDEN_WIDTH):
        params: dict[str, np.ndarray] = {}
        _init_stack(rng, params, "z_enc.", z_dim, depth, hidden)
        _init_dense(rng, params, "head", hidden, 1)
        return cls(z_dim, depth, hidden, params)

    def meta(self) -> dict:
        return {"z_dim": self.z_dim, "depth": self.depth, "hidden": self.hidden}

    @classmethod
    def from_meta(cls, meta: dict, params: dict):
        return cls(meta["z_dim"], meta["depth"], meta["hidden"], params)

    def loss_and_grad(self, batch: dict[str, np.ndarray]) -> tuple[float, dict[str, np.ndarray]]:
        """Logistic loss on ``batch`` and each parameter's gradient."""
        acts: list[np.ndarray] = []
        h = _stack_np(_as_col(batch["z"]), self.params, "z_enc.", self.depth, acts)
        loss, g = _log_loss_and_grad(_dense_np(h, self.params, "head"), _as_col(batch["a"]))
        grads: dict[str, np.ndarray] = {}
        _heads_backward(acts, self.params, "z_enc.", {"head": g}, grads)
        return loss, grads

    def loss(self, batch: dict[str, np.ndarray]) -> float:
        """The loss of ``loss_and_grad`` alone: the forward pass, no backward."""
        h = _stack_np(_as_col(batch["z"]), self.params, "z_enc.", self.depth)
        return _log_loss_and_grad(_dense_np(h, self.params, "head"), _as_col(batch["a"]))[0]

    def predict(self, z: np.ndarray) -> np.ndarray:
        h = _stack_np(_as_col(z), self.params, "z_enc.", self.depth)
        return sigmoid(_dense_np(h, self.params, "head"))[:, 0]


class PartitionNet(_Net):
    """Instrument-to-cell map: relu trunk, k-way Gumbel-softmax head,
    plus an auxiliary linear classification head on the last hidden layer."""

    kind = "partition"

    def __init__(self, z_dim: int, k: int, depth: int, hidden: int, params: dict):
        super().__init__(params)
        self.z_dim = z_dim
        self.k = k
        self.depth = depth
        self.hidden = hidden

    @classmethod
    def create(cls, z_dim: int, k: int, rng: np.random.Generator, depth: int = 3, hidden: int = HIDDEN_WIDTH):
        if k < 1:
            raise ValueError("k must be >= 1")
        params: dict[str, np.ndarray] = {}
        _init_stack(rng, params, "z_enc.", z_dim, depth, hidden)
        _init_dense(rng, params, "logits", hidden, k)
        _init_dense(rng, params, "aux", hidden, k)
        return cls(z_dim, k, depth, hidden, params)

    def meta(self) -> dict:
        return {"z_dim": self.z_dim, "k": self.k, "depth": self.depth, "hidden": self.hidden}

    @classmethod
    def from_meta(cls, meta: dict, params: dict):
        return cls(meta["z_dim"], meta["k"], meta["depth"], meta["hidden"], params)

    def forward(self, z: np.ndarray, acts: list | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(assignment logits, auxiliary logits), each (n, k). A list ``acts``
        receives the trunk's activations, for ``backward``."""
        h = _stack_np(_as_col(z), self.params, "z_enc.", self.depth, acts)
        return _dense_np(h, self.params, "logits"), _dense_np(h, self.params, "aux")

    def backward(self, acts: list, g_logits: np.ndarray, g_aux: np.ndarray | None = None) -> dict[str, np.ndarray]:
        """Parameter gradients from those of the outputs of the ``forward``
        that collected ``acts``; without ``g_aux`` the aux head gets none."""
        grads: dict[str, np.ndarray] = {}
        heads = {"logits": g_logits} if g_aux is None else {"logits": g_logits, "aux": g_aux}
        _heads_backward(acts, self.params, "z_enc.", heads, grads)
        return grads

    def logits(self, z: np.ndarray) -> np.ndarray:
        return self.forward(z)[0]

    def assign_hard(self, z: np.ndarray) -> np.ndarray:
        """Deterministic evaluation-time labels: argmax of logits, no noise."""
        return np.argmax(self.logits(z), axis=1)


def sample_gumbel(shape, rng: np.random.Generator) -> np.ndarray:
    u = rng.random(shape)
    return -np.log(-np.log(u + 1e-20) + 1e-20)


def gumbel_softmax(logits: np.ndarray, noise: np.ndarray | None, temperature: float) -> np.ndarray:
    """Soft cell weights softmax((logits + noise) / temperature) per row: the
    Gumbel-softmax relaxation of sampling a cell (no noise: plain softmax)."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    scaled = (logits if noise is None else logits + noise) / float(temperature)
    e = np.exp(scaled - scaled.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


@dataclass
class AdamState:
    """Adam moments of one parameter dict.

    ``m_flat``/``v_flat`` hold every parameter's moment back to back, in the
    dict's order; ``m``/``v`` map each name to its view into them.
    """

    m_flat: np.ndarray
    v_flat: np.ndarray
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray]) -> "AdamState":
        total = sum(arr.size for arr in params.values())
        m_flat, v_flat = np.zeros(total), np.zeros(total)
        m, v = {}, {}
        lo = 0
        for name, arr in params.items():
            hi = lo + arr.size
            m[name] = m_flat[lo:hi].reshape(arr.shape)
            v[name] = v_flat[lo:hi].reshape(arr.shape)
            lo = hi
        return cls(m_flat, v_flat, m, v)


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One Adam update, in place. Missing grads are treated as zero.

    Every gradient is checked before anything changes, so a refused step
    leaves the parameters and the state as they were.
    """
    if params.keys() != state.m.keys():
        raise ValueError("parameter names differ from the Adam state's")
    parts = []
    for name, m in state.m.items():
        p = params[name]
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p)
        if g.shape != p.shape or m.shape != p.shape:
            raise ValueError(f"shape mismatch for {name}")
        parts.append(g.ravel())
    g = np.concatenate(parts)
    if not np.isfinite(g).all():
        bad = next(name for name, part in zip(state.m, parts) if not np.isfinite(part).all())
        raise FloatingPointError(f"non-finite gradient for {bad}")
    state.t += 1
    m, v = state.m_flat, state.v_flat
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * g * g
    m_hat = m / (1.0 - beta1**state.t)
    v_hat = v / (1.0 - beta2**state.t)
    step = lr * m_hat / (np.sqrt(v_hat) + eps)
    lo = 0
    for name in state.m:
        p = params[name]
        p -= step[lo : lo + p.size].reshape(p.shape)
        lo += p.size


class TrainingAbort(PicklableFields, RuntimeError):
    def __init__(self, epoch: int, batch: int, message: str):
        self.epoch = epoch
        self.batch = batch
        super().__init__(f"epoch {epoch}, batch {batch}: {message}")


@dataclass
class TrainLog:
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    best_epoch: int = -1


def train_with_early_stopping(
    net: _Net,
    loss_fn,
    train: dict[str, np.ndarray],
    val: dict[str, np.ndarray],
    config: TrainConfig,
    val_loss_fn=None,
    rng: np.random.Generator | None = None,
    min_batch_size: int = 2,
) -> TrainLog:
    """Minibatch Adam with early stopping on validation loss.

    ``loss_fn(net, batch) -> (loss, grads)``, the gradients by parameter
    name; a ``NonFiniteError`` inside it or a non-finite loss raises
    ``TrainingAbort``. The net is left holding the parameters of the epoch
    with the smallest validation loss. Validation defaults to
    ``net.loss(val)``, the loss on the full validation arrays without its
    gradient; pass ``val_loss_fn(net) -> float`` to override (the second
    stage validates in hard assignment mode).
    """
    n = len(next(iter(train.values())))
    n_val = len(next(iter(val.values())))
    if n == 0 or n_val == 0:
        raise ValueError("train and validation splits must be non-empty")
    rng = rng if rng is not None else stream_rng(config.seed, "train-batches")
    state = AdamState.for_params(net.params)
    log = TrainLog()
    best_val = np.inf
    best_params = net.copy_params()
    stale = 0
    for epoch in range(config.max_epochs):
        perm = rng.permutation(n)
        epoch_losses = []
        for b, lo in enumerate(range(0, n, config.batch_size)):
            idx = perm[lo : lo + config.batch_size]
            if len(idx) < min_batch_size:
                continue
            batch = {key: arr[idx] for key, arr in train.items()}
            try:
                value, grads = loss_fn(net, batch)
            except ad.NonFiniteError as exc:
                raise TrainingAbort(epoch, b, str(exc)) from exc
            if not np.isfinite(value):
                raise TrainingAbort(epoch, b, "loss is not finite")
            adam_step(net.params, grads, state, config.learning_rate)
            epoch_losses.append(value)
        v = float(val_loss_fn(net) if val_loss_fn is not None else net.loss(val))
        log.train_loss.append(float(np.mean(epoch_losses)) if epoch_losses else np.nan)
        log.val_loss.append(v)
        if v < best_val:
            best_val = v
            best_params = net.copy_params()
            log.best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break
    net.set_params(best_params)
    return log


_NET_KINDS = {
    **dict.fromkeys(TwoBranchNet.KINDS.values(), TwoBranchNet),
    EtaNet.kind: EtaNet,
    PartitionNet.kind: PartitionNet,
}

_CKPT_MAGIC = b"IVBNET01"


def save_checkpoint(net: _Net, path) -> None:
    """Write magic + JSON header + little-endian float64 parameter blobs."""
    names = sorted(net.params)
    header = {
        "kind": net.kind,
        "meta": net.meta(),
        "arrays": [{"name": name, "shape": list(net.params[name].shape)} for name in names],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for name in names:
            fh.write(np.ascontiguousarray(net.params[name], dtype="<f8").tobytes())


def load_checkpoint(path, kind: str | None = None) -> _Net:
    """Read a ``save_checkpoint`` file. A wrong magic, a short read, a bad
    header or a net kind that is unknown or not ``kind`` raise ``InputError``."""

    def read(count: int) -> bytes:
        chunk = fh.read(count)
        if len(chunk) != count:
            raise InputError(f"truncated checkpoint: {path}")
        return chunk

    with open(path, "rb") as fh:
        if fh.read(len(_CKPT_MAGIC)) != _CKPT_MAGIC:
            raise InputError(f"not a model checkpoint: {path}")
        (hlen,) = struct.unpack("<I", read(4))
        try:
            header = json.loads(read(hlen))
            found = header["kind"]
            if found not in _NET_KINDS or kind not in (None, found):
                raise InputError(f"{path} holds a net of kind {found!r}, not {kind or 'a known kind'}")
            params = {}
            for entry in header["arrays"]:
                shape = tuple(map(int, entry["shape"]))
                arr = np.frombuffer(read(8 * int(np.prod(shape))), dtype="<f8").reshape(shape)
                params[entry["name"]] = np.array(arr, dtype=np.float64)
            return _NET_KINDS[found].from_meta(header["meta"], params)
        except InputError:
            raise
        except (ValueError, KeyError, TypeError) as exc:
            raise InputError(f"bad checkpoint header in {path}: {exc}") from None
