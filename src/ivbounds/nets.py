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

Every net keeps its parameters in one flat float64 buffer (``flat``) and
its gradient in another (``flat_grad``); ``params`` and ``grads`` map each
name to its view into them. The backward writes into the gradient views
(one it does not reach stays zero), and ``adam_step`` is a handful of
whole-buffer operations on ``flat``, ``flat_grad`` and the two moments.

``stack_restarts`` makes R restarts of one architecture into one stacked
net: both buffers and every view gain a leading restart axis, and the same
forward and backward run on (R, batch, ·) arrays, each slice with the bits
of the restart alone. ``train_with_early_stopping``, the one training loop,
trains such a stack in lockstep (stage 1); stage 2 and the naive nets train
single nets through it.
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
    """``h @ w + b`` on rows (batch, ·), or per restart on (R, batch, ·) for stacked parameters."""
    out = h @ params[f"{prefix}.w"]
    out += params[f"{prefix}.b"][..., None, :]
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


def _dense_backward(h: np.ndarray, params, prefix: str, g: np.ndarray, grads) -> np.ndarray:
    """Writes layer ``prefix``'s parameter gradients for input ``h`` and output
    gradient ``g`` into the arrays ``grads`` holds for them; returns the
    input's gradient."""
    np.matmul(h.swapaxes(-1, -2), g, out=grads[f"{prefix}.w"])
    np.sum(g, axis=-2, out=grads[f"{prefix}.b"])
    return g @ params[f"{prefix}.w"].swapaxes(-1, -2)


def _stack_backward(acts: list, params, prefix: str, g: np.ndarray, grads) -> np.ndarray:
    """``_dense_backward`` for a stack that collected ``acts``, layer by layer
    from the top; relu passes ``g`` where the layer's output is > 0."""
    for i in reversed(range(len(acts) - 1)):
        g = _dense_backward(acts[i], params, f"{prefix}{i}", g * (acts[i + 1] > 0.0), grads)
    return g


def _heads_backward(acts: list, params, prefix: str, head_grads: dict, grads) -> np.ndarray:
    """Backward of linear heads (name -> output gradient) on the stack that
    collected ``acts``, then of the stack; returns its input's gradient."""
    g = reduce(operator.add, [_dense_backward(acts[-1], params, name, gh, grads) for name, gh in head_grads.items()])
    return _stack_backward(acts, params, prefix, g, grads)


def _batch_mean(v: np.ndarray):
    """Mean of (batch, 1) values: a float, or one per restart for (R, batch, 1)."""
    mean = np.mean(v, axis=(-2, -1))
    return float(mean) if mean.ndim == 0 else mean


def _log_loss_and_grad(logit: np.ndarray, a: np.ndarray):
    """Mean logistic loss softplus(w) - a * w, and its gradient (sigmoid(w) - a) / n."""
    g = np.full_like(logit, 1.0 / logit.shape[-2])
    return _batch_mean(np.logaddexp(0.0, logit) - a * logit), g * sigmoid(logit) + (-g) * a


def _as_col(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    return v.reshape(-1, 1) if v.ndim == 1 else v


class _Views(dict):
    """Name -> view into a flat buffer. Setting a name writes into its view,
    so the buffer stays the one copy of the values."""

    def __setitem__(self, name: str, value) -> None:
        view = self[name]
        if np.shape(value) != view.shape:
            raise ValueError(f"{name} has shape {view.shape}, not {np.shape(value)}")
        view[...] = value


class _Net:
    """Common parameter plumbing for all model classes.

    ``flat`` holds every parameter back to back, in the order of the dict
    the net was made from, and ``flat_grad`` their gradients; ``params`` and
    ``grads`` map each name to its view into them (``_Views``). A stacked
    net (``restarts`` R > 0) has a leading restart axis on both buffers and
    on every view.

    A pickled net carries ``flat`` alone and rebuilds its views and a zero
    gradient when unpickled.
    """

    kind = ""

    def __init__(self, params: dict[str, np.ndarray]):
        self._shapes = {name: np.shape(arr) for name, arr in params.items()}
        self._use(np.concatenate([np.ravel(arr) for arr in params.values()]).astype(np.float64))

    def _use(self, flat: np.ndarray) -> None:
        """Make ``flat``, shaped (P,) or (R, P), the parameter buffer, with a
        zero gradient buffer of its shape, and rebuild the views."""
        self.flat, self.flat_grad = flat, np.zeros_like(flat)
        self.restarts = len(flat) if flat.ndim == 2 else 0
        lead, params, grads, lo = flat.shape[:-1], {}, {}, 0
        for name, shape in self._shapes.items():
            hi = lo + int(np.prod(shape))
            params[name] = flat[..., lo:hi].reshape(lead + shape)
            grads[name] = self.flat_grad[..., lo:hi].reshape(lead + shape)
            lo = hi
        self.params, self.grads = _Views(params), _Views(grads)

    def _like(self, flat: np.ndarray) -> "_Net":
        """A net of this architecture on the parameter buffer ``flat``."""
        net = object.__new__(type(self))
        net.__dict__.update(self.__dict__)
        net._use(flat)
        return net

    def restart(self, r: int) -> "_Net":
        """Restart ``r`` of a stacked net, as a single net with its own buffer."""
        return self._like(self.flat[r].copy())

    def __getstate__(self) -> dict:
        return {key: value for key, value in self.__dict__.items() if key not in ("flat_grad", "params", "grads")}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._use(self.flat)

    def meta(self) -> dict:
        raise NotImplementedError


def stack_restarts(nets: list[_Net]) -> _Net:
    """One stacked net holding ``nets``, restarts of one architecture, in order."""
    return nets[0]._like(np.stack([net.flat for net in nets]))


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

    def loss_and_grad(self, batch: dict[str, np.ndarray]):
        """Loss on ``batch``, squared error of the head of the sample's arm
        (outcome) or logistic loss (propensity), and ``grads``, which now hold
        its gradient (views: the next call overwrites them). A stacked net
        takes (R, batch, ·) arrays and gives one loss per restart."""
        acts_x, acts_z, acts_h = [], [], []
        hx, hz = self._encode_np(batch["x"], batch["z"], acts_x, acts_z)
        loss, g_heads = self._loss_and_head_grads(self._heads_np(np.concatenate([hx, hz], axis=-1), acts_h), batch)
        g = _heads_backward(acts_h, self.params, "shared.", dict(zip(self.head_names, g_heads)), self.grads)
        _stack_backward(acts_x, self.params, "x_enc.", g[..., : hx.shape[-1]], self.grads)
        _stack_backward(acts_z, self.params, "z_enc.", g[..., hx.shape[-1] :], self.grads)
        return loss, self.grads

    def loss(self, batch: dict[str, np.ndarray]):
        """The loss of ``loss_and_grad`` alone: the forward pass, no backward."""
        return self._loss_and_head_grads(self._heads_np(np.concatenate(self._encode_np(batch["x"], batch["z"]),
                                                                       axis=-1)), batch)[0]

    def _loss_and_head_grads(self, heads: list[np.ndarray], batch: dict[str, np.ndarray]):
        a = _as_col(batch["a"])
        if self.spec.head_transform == "sigmoid":
            loss, g = _log_loss_and_grad(heads[0], a)
            return loss, [g]
        diff = (heads[1] * a + heads[0] * (1.0 - a)) - _as_col(batch["y"])
        g = np.full_like(diff, 1.0 / diff.shape[-2]) * diff
        g += g
        return _batch_mean(diff * diff), [g * (1.0 - a), g * a]

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

    def loss_and_grad(self, batch: dict[str, np.ndarray]):
        """Logistic loss on ``batch`` and ``grads``, as ``TwoBranchNet.loss_and_grad``."""
        acts: list[np.ndarray] = []
        h = _stack_np(_as_col(batch["z"]), self.params, "z_enc.", self.depth, acts)
        loss, g = _log_loss_and_grad(_dense_np(h, self.params, "head"), _as_col(batch["a"]))
        _heads_backward(acts, self.params, "z_enc.", {"head": g}, self.grads)
        return loss, self.grads

    def loss(self, batch: dict[str, np.ndarray]):
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

    def backward(self, acts: list, g_logits: np.ndarray, g_aux: np.ndarray | None = None):
        """``grads``, now holding the parameter gradients from those of the
        outputs of the ``forward`` that collected ``acts``; without ``g_aux``
        the aux head's are zero."""
        if g_aux is None:
            self.grads["aux.w"].fill(0.0)
            self.grads["aux.b"].fill(0.0)
        heads = {"logits": g_logits} if g_aux is None else {"logits": g_logits, "aux": g_aux}
        _heads_backward(acts, self.params, "z_enc.", heads, self.grads)
        return self.grads

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
    """Adam's moments of one net, each shaped like its ``flat`` buffer, and the step count."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def for_net(cls, net: _Net) -> "AdamState":
        return cls(np.zeros_like(net.flat), np.zeros_like(net.flat))


def adam_step(net: _Net, state: AdamState, lr: float, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> None:
    """One Adam update of ``net.flat`` from ``net.flat_grad``, in place.

    The gradient is checked before anything changes, so a refused step
    leaves the parameters and the state as they were.
    """
    g = net.flat_grad
    if g.shape != state.m.shape:
        raise ValueError(f"the Adam state has shape {state.m.shape}; the net's buffer {g.shape}")
    if not np.isfinite(g).all():
        bad = next(name for name, part in net.grads.items() if not np.isfinite(part).all())
        raise FloatingPointError(f"non-finite gradient for {bad}")
    state.t += 1
    m, v = state.m, state.v
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * g * g
    m_hat = m / (1.0 - beta1**state.t)
    v_hat = v / (1.0 - beta2**state.t)
    net.flat -= lr * m_hat / (np.sqrt(v_hat) + eps)


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


@dataclass
class StackLog:
    """The ``TrainLog`` of each restart of a stacked net trained in lockstep."""

    restarts: list[TrainLog]

    @property
    def val_loss(self) -> list[list[float]]:
        """Per lockstep epoch, the validation losses of the restarts that trained in it."""
        epochs = max(len(log.val_loss) for log in self.restarts)
        return [[log.val_loss[e] for log in self.restarts if e < len(log.val_loss)] for e in range(epochs)]


def train_with_early_stopping(
    net: _Net,
    loss_fn,
    train: dict[str, np.ndarray],
    val: dict[str, np.ndarray],
    config: TrainConfig,
    val_loss_fn=None,
    rng=None,
    min_batch_size: int = 2,
):
    """Minibatch Adam with early stopping on validation loss.

    ``loss_fn(net, batch)`` returns the loss and leaves its gradient in
    ``net.flat_grad``; a ``NonFiniteError`` inside it or a non-finite loss
    raises ``TrainingAbort``. Each epoch draws one permutation of the
    training rows from ``rng``. The net is left holding the parameters of
    the epoch with the smallest validation loss, and the ``TrainLog`` is
    returned. Validation defaults to ``net.loss(val)``, the loss on the full
    validation arrays without its gradient; pass ``val_loss_fn(net) ->
    float`` to override (the second stage validates in hard assignment mode).

    A stacked net trains its R restarts in lockstep, with ``rng`` one
    generator per restart: batch b of an epoch gathers each restart's own
    rows into (R, batch, ·) arrays, and the loss and validation give one
    value per restart. Each restart stops early on its own; one that stops
    keeps its best parameters and leaves the stack, so later steps run on
    the rest. A ``StackLog`` is returned. Restart r ends with the bits, and
    the log, that the same loop gives restart r trained alone.
    """
    n = len(next(iter(train.values())))
    n_val = len(next(iter(val.values())))
    if n == 0 or n_val == 0:
        raise ValueError("train and validation splits must be non-empty")
    stacked = net.restarts > 0
    rngs = list(rng) if stacked else [rng if rng is not None else stream_rng(config.seed, "train-batches")]
    if len(rngs) != max(net.restarts, 1):
        raise ValueError(f"{len(rngs)} batch streams for {net.restarts} restarts")
    logs = [TrainLog() for _ in rngs]
    active = list(range(len(rngs)))  # the restart of each row of the stack
    state = AdamState.for_net(net)
    best = net.flat.reshape(len(rngs), -1).copy()
    best_val = [np.inf] * len(rngs)
    stale = [0] * len(rngs)
    for epoch in range(config.max_epochs):
        perms = np.stack([rngs[r].permutation(n) for r in active])
        epoch_losses = []
        for b, lo in enumerate(range(0, n, config.batch_size)):
            idx = perms[:, lo : lo + config.batch_size]
            if idx.shape[1] < min_batch_size:
                continue
            batch = {key: arr[idx if stacked else idx[0]] for key, arr in train.items()}
            try:
                value = np.atleast_1d(loss_fn(net, batch))
            except ad.NonFiniteError as exc:
                raise TrainingAbort(epoch, b, str(exc)) from exc
            if not np.isfinite(value).all():
                where = f"restart {active[int(np.argmin(np.isfinite(value)))]}: " if stacked else ""
                raise TrainingAbort(epoch, b, f"{where}loss is not finite")
            adam_step(net, state, config.learning_rate)
            epoch_losses.append(value)
        values = np.atleast_1d(val_loss_fn(net) if val_loss_fn is not None else net.loss(val))
        # One contiguous row of batch losses per restart, so each mean sums in the order of a lone restart's.
        train_means = (np.ascontiguousarray(np.transpose(epoch_losses)).mean(axis=1) if epoch_losses
                       else np.full(len(active), np.nan))
        rows = net.flat.reshape(len(active), -1)
        keep = []
        for i, r in enumerate(active):
            log, v = logs[r], float(values[i])
            log.train_loss.append(float(train_means[i]))
            log.val_loss.append(v)
            if v < best_val[r]:
                best_val[r], best[r], stale[r] = v, rows[i], 0
                log.best_epoch = epoch
            else:
                stale[r] += 1
                if stale[r] >= config.patience:
                    continue
            keep.append(i)
        if not keep:
            break
        if len(keep) < len(active):
            active = [active[i] for i in keep]
            net._use(net.flat[keep])
            state.m, state.v = state.m[keep], state.v[keep]
    net._use(best if stacked else best[0])
    return StackLog(logs) if stacked else logs[0]


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
