"""Self-contained verification suite behind the ``checks`` CLI command.

Each check returns (name, passed, detail); the suite covers the
hand-written backward of the stage-2 loss (each term, the warm start and
hard mode's straight-through contract) and of each stage-1 net, the plug-in
aggregates against the population oracle's quadrature
(``metrics.cell_nuisances``), both asymptotic variance formulas, the
bias-variance identity, the core bound-algebra identities and that the
oracle bounds of every dataset contain the CATE. ``run_all_checks`` is the
one list; its fast mode drops the oracle checks and cuts the sample and
replicate counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bounds as bnd
from . import data as dgp
from . import metrics, nets, partition
from .data import OutcomeRange
from .nets import OUTCOME_SPEC, PROPENSITY_SPEC, EtaNet, PartitionNet, TrainConfig, TwoBranchNet, sample_gumbel
from .rng import stream_rng


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.detail}"


def central_differences(loss, arr: np.ndarray, step: float) -> np.ndarray:
    """The gradient of ``loss()`` in ``arr`` by central differences, bumping
    each entry of ``arr`` in place and restoring it."""
    numeric = np.empty(arr.shape)
    for i in range(arr.size):
        base = arr.flat[i]
        arr.flat[i] = base + step
        up = loss()
        arr.flat[i] = base - step
        numeric.flat[i] = (up - loss()) / (2.0 * step)
        arr.flat[i] = base
    return numeric


def _relative_error(g: np.ndarray, numeric: np.ndarray) -> float:
    return float(np.max(np.abs(g - numeric) / (np.abs(g) + 1e-8)))


def finite_diff_error(loss, arrays: dict[str, np.ndarray], grads: dict[str, np.ndarray], step: float) -> float:
    """Max relative error |g - numeric| / (|g| + 1e-8) of ``grads`` (a missing one is zero) against
    ``central_differences`` of ``loss()`` in each entry of ``arrays``. ``grads`` is copied first: a
    net's gradient views change with every ``loss()`` that runs its backward."""
    grads = {name: np.array(g) for name, g in grads.items()}
    return max(_relative_error(grads.get(name, np.zeros(arr.shape)), central_differences(loss, arr, step))
               for name, arr in arrays.items())


def _loss_case():
    """16 samples of random nuisance values, arms alternating, a fresh k = 3
    partition net and Gumbel noise."""
    n, rng = 16, stream_rng(0, "loss terms")
    const = partition.BatchConstants(
        m1=rng.normal(size=(n, n)), m0=rng.normal(size=(n, n)), p=rng.uniform(0.1, 0.9, (n, n)),
        eta=rng.uniform(0.1, 0.9, n), a=(np.arange(n) % 2).astype(np.float64), z=rng.normal(size=(n, 1)),
        x=rng.uniform(-1.0, 1.0, n))
    return const, PartitionNet.create(1, 3, rng), sample_gumbel((n, 3), rng)


LOSS_RANGE = OutcomeRange(-1.0, 2.0)
LOSS_TERMS = {"l_b": "L_b", "l_reg": "L_reg", "l_aux": "L_aux"}


def loss_term_checks(tolerance: float) -> list[CheckResult]:
    """Each composite-loss term's gradient for every partition-net parameter,
    in soft mode, against central differences of that term. A term's
    gradient is the total's with the term's weight at 1 (the others at 0)
    less the total's with every weight at 0, which is L_b's."""
    const, net, noise = _loss_case()

    def run(lam: float, gamma: float, step=partition.composite_loss_and_grad):
        config = TrainConfig(k=net.k, batch_size=len(const), lam=lam, gamma=gamma)
        return step(net, const, LOSS_RANGE, config, noise, hard=False)

    l_b = {name: g.copy() for name, g in run(0.0, 0.0)[2].items()}
    analytic = {"l_b": l_b, **{term: {name: g - l_b[name] for name, g in run(*weights)[2].items()}
                               for term, weights in (("l_reg", (1.0, 0.0)), ("l_aux", (0.0, 1.0)))}}
    errors = {term: finite_diff_error(lambda: run(0.0, 0.0, partition.composite_loss_graph)[1][term],
                                      net.params, analytic[term], 1e-5) for term in LOSS_TERMS}
    return [CheckResult(f"gradient {label} (soft mode, {len(const)} samples, k={net.k})", errors[term] < tolerance,
                        f"max relative error {errors[term]:.2e}") for term, label in LOSS_TERMS.items()]


def warm_start_check(tolerance: float) -> CheckResult:
    """The warm start's cross-entropy gradient for every partition-net
    parameter against central differences."""
    const, net, _ = _loss_case()
    labels = bnd.one_hot(np.arange(len(const)) % net.k, net.k)

    def loss_and_grad():
        acts: list[np.ndarray] = []
        value, g = partition.cross_entropy(net.forward(const.z, acts)[0], labels)
        return value, net.backward(acts, g)

    err = finite_diff_error(lambda: loss_and_grad()[0], net.params, loss_and_grad()[1], 1e-5)
    return CheckResult(f"gradient warm-start cross-entropy ({len(const)} samples, k={net.k})", err < tolerance,
                       f"max relative error {err:.2e}")


def straight_through_check(tolerance: float) -> CheckResult:
    """Hard mode's straight-through contract: L_b is the width at the exact
    one-hot weights, and the logits gradient is the softmax backward of L_b's
    gradient in those weights (central differences of the validation loss;
    every cell holds both arms, so none turns valid when a weight moves)."""
    const, net, _ = _loss_case()
    n, k = len(const), net.k
    logits = 2.0 * bnd.one_hot(np.arange(n) % k, k) + stream_rng(0, "straight-through").uniform(-0.5, 0.5, (n, k))
    config = TrainConfig(k=k, batch_size=n, lam=0.0, gamma=0.0)
    _, parts, _, backward = partition.composite_loss(logits, logits, const, LOSS_RANGE, config, None, hard=True)
    soft = nets.gumbel_softmax(logits, None, config.temperature)
    weights = bnd.one_hot(np.argmax(soft, axis=1), k)

    def l_b() -> float:
        return partition.composite_losses(weights, logits, const, LOSS_RANGE, 0.0, 0.0)[0].l_b

    exact = parts["l_b"] == l_b()
    g_weights = central_differences(l_b, weights, 1e-6)
    err = _relative_error(backward(1.0)[0], soft * (g_weights - (g_weights * soft).sum(axis=1, keepdims=True)))
    return CheckResult(f"gradient straight-through (hard mode, {n} samples, k={k})", exact and err < tolerance,
                       f"L_b at the one-hot weights {'equal' if exact else 'differs'}; max relative error {err:.2e}")


def gradient_checks(tolerance: float = 1e-4) -> list[CheckResult]:
    """The stage-2 loss's hand-written backward: one line per term, the warm
    start and the straight-through contract."""
    return loss_term_checks(tolerance) + [warm_start_check(tolerance), straight_through_check(tolerance)]


def net_gradient_checks(tolerance: float = 1e-3) -> list[CheckResult]:
    """``loss_and_grad`` of the outcome, propensity and eta nets against central differences on one
    batch with both arms; gradient entries near 1e-8 alone can reach relative errors near 1e-4."""
    n, rng = 16, stream_rng(0, "net gradient")
    batch = {"x": rng.uniform(-1.0, 1.0, n), "z": rng.normal(size=(n, 2)),
             "a": (np.arange(n) % 2).astype(np.float64), "y": rng.normal(size=n)}
    candidates = {"outcome": TwoBranchNet.create(1, 2, rng, OUTCOME_SPEC),
                  "propensity": TwoBranchNet.create(1, 2, rng, PROPENSITY_SPEC), "eta": EtaNet.create(2, rng)}
    errors = {kind: finite_diff_error(lambda: net.loss_and_grad(batch)[0], net.params, net.loss_and_grad(batch)[1],
                                      1e-5) for kind, net in candidates.items()}
    return [CheckResult(f"gradient {kind} net ({n} samples)", err < tolerance, f"max relative error {err:.2e}")
            for kind, err in errors.items()]


def quadrature_agreement_check(n: int = 100_000) -> list[CheckResult]:
    x = 0.3
    z = dgp._mixture_instrument(n, 5)
    a = (stream_rng(5, "treat").random(n) < metrics.synthetic_eta(z)).astype(int)
    rep = metrics.synthetic_plugin_aggregates(x, z, a)
    pi_pop, mu_pop, _ = metrics.cell_nuisances(metrics.synthetic_nuisances, metrics.synthetic_eta, [0.0],
                                               np.array([x]))
    results = []
    for cell in range(2):
        for name, plugin, pop, tolerance in (("mu", rep.mu1, mu_pop, 0.02), ("pi", rep.pi, pi_pop, 0.01)):
            hat, quad = plugin[0, cell], pop[0, cell]
            results.append(CheckResult(f"plug-in {name} aggregate vs quadrature (cell {cell})",
                                       abs(hat - quad) < tolerance, f"|{hat:.4f} - {quad:.4f}| at n={n}"))
    return results


def variance_checks(replicates: int = 10_000, n: int = 1_000) -> list[CheckResult]:
    configs = [
        ("p=0.5,q=0.6", metrics.DiscreteVarianceDgp(
            z_probs=np.array([0.25, 0.25, 0.25, 0.25]),
            cells=np.array([0, 0, 1, 1]),
            mu_hat=np.array([0.2, 0.9, 0.4, 0.7]),
            eta_hat=np.array([0.3, 0.7, 0.4, 0.6]),
            pi_hat=np.array([0.0, 1.0, 0.0, 1.0]),
            treat_prob=np.array([0.6, 0.6, 0.5, 0.5]),
        ), 0),
        ("p=0.25,q=0.7", metrics.DiscreteVarianceDgp(
            z_probs=np.array([0.125, 0.125, 0.375, 0.375]),
            cells=np.array([0, 0, 1, 1]),
            mu_hat=np.array([0.5, 1.2, 0.4, 0.7]),
            eta_hat=np.array([0.45, 0.8, 0.4, 0.6]),
            pi_hat=np.array([0.2, 0.9, 0.1, 0.8]),
            treat_prob=np.array([0.7, 0.7, 0.5, 0.5]),
        ), 1),
    ]
    results = []
    for label, harness, seed in configs:
        mu_rep, pi_rep = metrics.variance_mc_check(harness, cell=0, arm=1, n=n, replicates=replicates, seed=seed)
        for rep in (mu_rep, pi_rep):
            results.append(
                CheckResult(
                    f"asymptotic variance {rep.estimator} aggregate ({label})",
                    rep.relative_error < 0.10,
                    f"empirical {rep.empirical_n_var:.4f} vs formula {rep.formula_value:.4f} "
                    f"(rel err {rep.relative_error:.3f})",
                )
            )
    return results


def decomposition_checks(replicates: int = 2_000) -> list[CheckResult]:
    report = metrics.decomposition_check(x=0.2, n=1_000, replicates=replicates, seed=0, b_star_upper=0.3)
    return [
        CheckResult(
            "bias-variance identity for the upper bound",
            report.identity_relative_error < 0.05,
            f"MSE {report.mse:.5f} vs bias^2+var {report.bias_sq + report.variance:.5f}",
        ),
        CheckResult(
            "factor-2 error bound never violated",
            report.factor2_lhs <= report.factor2_rhs + 1e-12,
            f"lhs {report.factor2_lhs:.5f} <= rhs {report.factor2_rhs:.5f}",
        ),
    ]


def bound_identity_checks() -> list[CheckResult]:
    rng = stream_rng(7, "identity")
    results = []
    ok = True
    for _ in range(200):
        k = int(rng.integers(1, 7))
        pi = rng.random(k)
        mu1 = rng.normal(size=k)
        mu0 = rng.normal(size=k)
        s1 = float(rng.normal())
        width = float(rng.random() * 3 + 0.1)
        r = OutcomeRange(s1, s1 + width)
        b_plus, b_minus = bnd.pairwise_bound_matrix(pi, mu1, mu0, r)
        expected = ((1.0 - pi)[:, None] + pi[None, :]) * r.width
        if not np.allclose(b_plus - b_minus, expected, atol=1e-12):
            ok = False
        lo, up, _, _ = bnd.tightest_bounds(
            *bnd.pairwise_bound_matrix(pi[:1], mu1[:1], mu0[:1], r)
        )
        if abs((up - lo) - r.width) > 1e-9:
            ok = False
    results.append(CheckResult("pairwise width identity / k=1 width", ok, "200 random draws"))
    return results


def oracle_validity_checks() -> list[CheckResult]:
    x_grid = np.linspace(-0.99, 0.99, 101)
    r = OutcomeRange(-0.35, 1.05)
    pair = metrics.oracle_bounds_dataset3(x_grid, r, n_u=4001)
    tau = dgp.tau_dataset3(x_grid)
    ok = bool(np.all(pair.lower <= tau) and np.all(tau <= pair.upper))
    return [CheckResult("dataset-3 oracle bounds contain the CATE", ok, "101-point grid")]


def population_oracle_checks() -> list[CheckResult]:
    """Exact-nuisance bounds of datasets 1 and 2 over cells split at z = -0.5
    and 0.5 (dataset 1 depends on z only through |z|: a split at 0 gives equal
    cells), against the CATE; the outcome range is the seed-0 training split's."""
    x_grid = np.linspace(-1.0, 1.0, 21)
    tau = dgp.tau_dataset12(x_grid)
    results = []
    for dataset in (1, 2):
        split = dgp.split_dataset(dgp.generate_dataset(dataset, 2000, 0), 0)
        r = dgp.outcome_range_from_train(split.train)
        pair = metrics.population_bounds_oracle(dataset, [-0.5, 0.5], r, x_grid, n_z=801, n_u=401, n_s=801)
        ok = bool(np.all(pair.lower <= tau) and np.all(tau <= pair.upper))
        results.append(CheckResult(f"dataset-{dataset} population bounds contain the CATE", ok, "21-point grid"))
    return results


def run_all_checks(fast: bool = False) -> list[CheckResult]:
    """The whole suite. ``fast`` skips the oracle checks and cuts the sample
    and replicate counts of the Monte Carlo checks."""
    results = gradient_checks() + net_gradient_checks()
    results += bound_identity_checks()
    results += quadrature_agreement_check(n=20_000 if fast else 100_000)
    results += variance_checks(replicates=2_000 if fast else 10_000)
    results += decomposition_checks(replicates=400 if fast else 2_000)
    if not fast:
        results += oracle_validity_checks() + population_oracle_checks()
    return results
