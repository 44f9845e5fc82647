"""First stage: fit the outcome, propensity and instrument-only nets.

The three fits share the train/val split and the architecture family
(width-10 relu MLPs). After fitting, the set is frozen: parameter arrays
are made read-only so any later write attempt fails loudly, also in a copy
unpickled in another process.

Each net is the best of ``config.restarts`` independent fits. The restarts
of one net run in parallel through ``parallel.map_tasks``: the caller and
forked workers each train whole restarts, and the caller picks the winner.
Restart ``r`` draws only from the streams ``"{net}-init-{r}"`` and
``"{net}-batches-{r}"``, and the winner is the first restart with the
smallest validation loss, so the result is the same in every process and
for every worker count. Inside a pool worker (a sweep) the restarts run
serially. ``fit_mu``, ``fit_pi`` and ``fit_eta`` stay separate calls, one
parallel map each.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from . import InputError, parallel
from .data import DatasetSplit, SampleBatch
from .nets import (OUTCOME_SPEC, PROPENSITY_SPEC, EtaNet, TrainConfig, TrainLog, TwoBranchNet,
                   train_with_early_stopping)
from .rng import stream_rng


def _arrays(batch: SampleBatch) -> dict[str, np.ndarray]:
    return {"x": batch.x, "z": batch.z, "a": batch.a.astype(np.float64), "y": batch.y}


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
            for arr in net.params.values():
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


def _fit_restart(create, split: DatasetSplit, config: TrainConfig, name: str, r: int) -> tuple:
    net = create(stream_rng(config.seed, f"{name}-init-{r}"))
    log = train_with_early_stopping(
        net,
        lambda m, b: m.loss_and_grad(b),
        _arrays(split.train),
        _arrays(split.val),
        config,
        rng=stream_rng(config.seed, f"{name}-batches-{r}"),
    )
    return net, log


def _fit_best(create, split: DatasetSplit, config: TrainConfig, name: str) -> tuple:
    """Best of ``config.restarts`` independently initialized fits by
    minimum validation loss; the spread across inits is large enough at
    n = 2000 that a single fit occasionally misses structure the bound
    estimators depend on."""
    fits = parallel.map_tasks(_fit_restart, [(create, split, config, name, r) for r in range(config.restarts)])
    return min(fits, key=lambda fit: min(fit[1].val_loss))


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
    mu, mu_log = fit_mu(split, config)
    pi, pi_log = fit_pi(split, config)
    eta, eta_log = fit_eta(split, config)
    out = NuisanceSet(mu=mu, pi=pi, eta=eta, logs={"mu": mu_log, "pi": pi_log, "eta": eta_log})
    return out.freeze()
