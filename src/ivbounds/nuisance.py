"""First stage: fit the outcome, propensity and instrument-only nets.

The three fits share the train/val split and the architecture family
(width-10 relu MLPs). After fitting, the set is frozen: parameter arrays
are made read-only so any later write attempt fails loudly, also in a copy
unpickled in another process.

Each net is the best of ``config.restarts`` independent fits, trained in
lockstep as one stacked net (``nets.stack_restarts``): each step runs all
restarts still training in one forward and backward pass on (R, batch, ·)
arrays. Restart ``r`` draws only from the streams ``"{net}-init-{r}"`` and
``"{net}-batches-{r}"`` and stops early on its own, and the winner is the
first restart with the smallest validation loss, so each restart, and the
result, has the bits of the restart trained alone. ``fit_nuisances`` maps
``fit_mu``, ``fit_pi`` and ``fit_eta`` over the usable CPUs through
``parallel.map_tasks`` (serially inside a pool worker, such as a sweep's);
each net's result is the same in every process and for every worker count.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from . import InputError, parallel
from .data import DatasetSplit, SampleBatch
from .nets import (OUTCOME_SPEC, PROPENSITY_SPEC, EtaNet, TrainConfig, TrainLog, TwoBranchNet, stack_restarts,
                   train_with_early_stopping)
from .rng import stream_rng


def _arrays(batch: SampleBatch) -> dict[str, np.ndarray]:
    """The split's columns as (n, ·) arrays, so a stacked batch is (R, batch, ·)."""
    return {"x": batch.x.reshape(-1, 1), "z": batch.z, "a": batch.a.astype(np.float64).reshape(-1, 1),
            "y": batch.y.reshape(-1, 1)}


@dataclass
class NuisanceSet:
    """Trained first-stage estimators with an immutability latch."""

    mu: TwoBranchNet
    pi: TwoBranchNet
    eta: EtaNet
    frozen: bool = False
    logs: dict[str, TrainLog] = field(default_factory=dict)

    def freeze(self) -> "NuisanceSet":
        for net in (self.mu, self.pi, self.eta):
            for arr in (net.flat, *net.params.values()):
                arr.setflags(write=False)
        self.frozen = True
        return self

    def __setstate__(self, state: dict) -> None:
        # Unpickled arrays are writeable again; re-apply the latch.
        self.__dict__.update(state)
        if self.frozen:
            self.freeze()

    def fingerprint(self) -> str:
        """SHA-256 over all parameter bytes; used to assert bitwise freshness."""
        h = hashlib.sha256()
        for net in (self.mu, self.pi, self.eta):
            for name in sorted(net.params):
                h.update(name.encode())
                h.update(np.ascontiguousarray(net.params[name]).tobytes())
        return h.hexdigest()


def _fit_best(create, split: DatasetSplit, config: TrainConfig, name: str) -> tuple:
    """Best of ``config.restarts`` independently initialized fits by
    minimum validation loss; the spread across inits is large enough at
    n = 2000 that a single fit occasionally misses structure the bound
    estimators depend on."""
    restarts = range(config.restarts)
    stack = stack_restarts([create(stream_rng(config.seed, f"{name}-init-{r}")) for r in restarts])
    logs = train_with_early_stopping(stack, lambda m, b: m.loss_and_grad(b)[0], _arrays(split.train),
                                     _arrays(split.val), config,
                                     rng=[stream_rng(config.seed, f"{name}-batches-{r}") for r in restarts]).restarts
    best = min(restarts, key=lambda r: min(logs[r].val_loss))
    return stack.restart(best), logs[best]


def fit_mu(split: DatasetSplit, config: TrainConfig) -> tuple[TwoBranchNet, TrainLog]:
    """Outcome net; each sample trains only the head matching its arm."""
    present = set(np.unique(split.train.a))
    if present != {0, 1}:
        raise InputError(f"both treatment arms required in training data, found {sorted(present)}")
    return _fit_best(lambda rng: TwoBranchNet.create(1, split.train.d, rng, OUTCOME_SPEC), split, config, "mu")


def fit_pi(split: DatasetSplit, config: TrainConfig) -> tuple[TwoBranchNet, TrainLog]:
    """Propensity net on (x, z), logistic loss."""
    if len(split.train) == 0:
        raise ValueError("empty training split")
    return _fit_best(lambda rng: TwoBranchNet.create(1, split.train.d, rng, PROPENSITY_SPEC), split, config, "pi")


def fit_eta(split: DatasetSplit, config: TrainConfig) -> tuple[EtaNet, TrainLog]:
    """Treatment probability from the instrument alone."""
    if len(split.train) == 0:
        raise ValueError("empty training split")
    return _fit_best(lambda rng: EtaNet.create(split.train.d, rng), split, config, "eta")


def fit_nuisances(split: DatasetSplit, config: TrainConfig) -> NuisanceSet:
    (mu, mu_log), (pi, pi_log), (eta, eta_log) = parallel.map_tasks(lambda fit: fit(split, config),
                                                                    [(fit_mu,), (fit_pi,), (fit_eta,)])
    out = NuisanceSet(mu=mu, pi=pi, eta=eta, logs={"mu": mu_log, "pi": pi_log, "eta": eta_log})
    return out.freeze()
