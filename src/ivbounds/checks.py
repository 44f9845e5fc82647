"""Self-contained verification suite behind the ``checks`` CLI command.

Each check returns (name, passed, detail); the suite covers gradient
correctness for every graph op kind and for the hand-written backward of
each net kind (outcome, propensity, eta, and the partition net inside the
composite loss), the plug-in aggregates against the
population oracle's quadrature (``metrics.cell_nuisances``), both
asymptotic variance formulas, the bias-variance identity, the core
bound-algebra identities and that the oracle bounds of every dataset contain
the CATE. ``run_all_checks`` is the one list; its fast mode drops the checks
that train or run an oracle and cuts the sample and replicate counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import bounds as bnd
from . import data as dgp
from . import metrics
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


GRADIENT_CASES = {
    "matmul": lambda x: ad.reduce_sum(ad.matmul(x, ad.constant(np.arange(6.0).reshape(3, 2)))),
    "add": lambda x: ad.reduce_sum(ad.add(ad.add(x, ad.constant(np.ones((2, 3)))), 0.5)),
    "sub": lambda x: ad.reduce_sum(ad.sub(ad.sub(x, ad.constant(np.ones((2, 3)))), 0.25)),
    "mul": lambda x: ad.reduce_sum(ad.mul(ad.mul(x, ad.constant(np.full((2, 3), 1.5))), 2.0)),
    "div": lambda x: ad.reduce_sum(ad.div(ad.div(x, ad.constant(np.full((2, 3), 2.0))), 4.0)),
    "neg": lambda x: ad.reduce_sum(ad.neg(x)),
    "softmax": lambda x: ad.reduce_sum(ad.mul(ad.softmax(x), ad.constant(np.arange(6.0).reshape(2, 3)))),
    "log_softmax": lambda x: ad.reduce_sum(ad.mul(ad.log_softmax(x), ad.constant(np.arange(6.0).reshape(2, 3)))),
    "log": lambda x: ad.reduce_sum(ad.log(ad.add(ad.mul(x, x), 1.0))),
    "clip_min": lambda x: ad.reduce_sum(ad.clip_min(x, 0.1)),
    "sum": lambda x: ad.reduce_sum(ad.mul(ad.reduce_sum(x, axis=1), ad.constant(np.array([1.0, 2.0])))),
    "mean": lambda x: ad.reduce_mean(ad.mul(ad.mul(x, x), ad.constant(np.arange(6.0).reshape(2, 3)))),
    "min": lambda x: ad.reduce_sum(ad.reduce_min(x, axis=1)),
    "max": lambda x: ad.reduce_sum(ad.reduce_max(x, axis=1)),
    "gumbel_noise_add": lambda x: ad.reduce_sum(
        ad.log_softmax(ad.gumbel_noise_add(x, np.linspace(-1, 1, 6).reshape(2, 3)))
    ),
}


def _straight_through_check() -> CheckResult:
    logits = ad.input_node(np.array([[0.2, 0.5], [0.9, 0.1]]), name="l", trainable=True)
    soft = ad.softmax(logits)
    hard = ad.straight_through(soft)
    onehot_ok = set(np.unique(hard.value)) <= {0.0, 1.0}
    coeff = ad.constant(np.arange(4.0).reshape(2, 2))
    g_hard = ad.backward_grad(ad.reduce_sum(ad.mul(hard, coeff)))["l"]
    logits2 = ad.input_node(logits.value, name="l", trainable=True)
    g_soft = ad.backward_grad(ad.reduce_sum(ad.mul(ad.softmax(logits2), coeff)))["l"]
    st_ok = onehot_ok and np.array_equal(g_hard, g_soft)
    return CheckResult("gradient straight_through", st_ok, "exact one-hot, soft backward")


def gradient_point(op: str) -> np.ndarray:
    """The (2, 3) point the case for ``op`` is checked at: fixed per op name,
    moved off the kink of ``clip_min`` at 0.1."""
    point = stream_rng(0, f"gradient {op}").normal(size=(2, 3))
    return np.where(np.abs(point - 0.1) < 1e-3, point + 0.05, point)


def gradient_checks(tolerance: float = 1e-4) -> list[CheckResult]:
    results = []
    # Every finite-difference case differentiates through an input node.
    covered = set(GRADIENT_CASES) | {"straight_through", "input"}
    for op in sorted(GRADIENT_CASES):
        err = graph_gradient_error(GRADIENT_CASES[op], gradient_point(op))
        results.append(CheckResult(f"gradient {op}", err < tolerance, f"max relative error {err:.2e}"))
    results.append(_straight_through_check())
    missing = set(ad.OP_KINDS) - covered
    results.append(
        CheckResult("gradient coverage", not missing, "all op kinds checked" if not missing else f"missing {missing}")
    )
    return results


def finite_diff_error(loss, arrays: dict[str, np.ndarray], grads: dict[str, np.ndarray], step: float) -> float:
    """Max relative error |g - numeric| / (|g| + 1e-8) of ``grads`` (a missing one is zero) against central
    differences of ``loss()``, bumping each entry of ``arrays`` in place and restoring it."""
    errors = []
    for name, arr in arrays.items():
        numeric = np.empty(arr.shape)
        for i in range(arr.size):
            base = arr.flat[i]
            arr.flat[i] = base + step
            up = loss()
            arr.flat[i] = base - step
            numeric.flat[i] = (up - loss()) / (2.0 * step)
            arr.flat[i] = base
        g = grads.get(name, np.zeros(arr.shape))
        errors.append(np.max(np.abs(g - numeric) / (np.abs(g) + 1e-8)))
    return float(np.max(errors))


def graph_gradient_error(build, point: np.ndarray, step: float = 1e-5) -> float:
    """``finite_diff_error`` at ``point`` of the graph that ``build`` makes
    from an input node, ending in a scalar root."""
    point = np.array(point, dtype=np.float64)
    analytic = ad.backward_grad(build(ad.input_node(point, name="__fd__", trainable=True)))["__fd__"]
    return finite_diff_error(lambda: float(build(ad.input_node(point)).value), {"x": point}, {"x": analytic}, step)


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


def composite_loss_gradient_check(tolerance: float = 1e-3) -> CheckResult:
    from . import nuisance as nuis_mod
    from . import partition

    split = dgp.split_dataset(dgp.generate_dataset1(400, 0), 0)
    nuis = nuis_mod.fit_nuisances(split, TrainConfig(seed=0, max_epochs=3))
    batch = split.train.subset(np.arange(16))
    const = partition.batch_constants(nuis, batch)
    config = TrainConfig(seed=0, k=2, batch_size=16)
    net = PartitionNet.create(1, 2, stream_rng(5, "init"))
    noise = sample_gumbel((16, 2), stream_rng(5, "noise"))
    rng_range = OutcomeRange(0.0, 1.0)

    _, _, grads = partition.composite_loss_and_grad(net, const, rng_range, config, noise, hard=False)
    worst = finite_diff_error(
        lambda: float(partition.composite_loss_graph(net, const, rng_range, config, noise, hard=False)[0].value),
        net.params, grads, 1e-6)
    return CheckResult("gradient composite loss (16 samples, k=2)", worst < tolerance, f"max relative error {worst:.2e}")


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
    """The whole suite. ``fast`` skips the composite-loss gradient (it
    trains nuisances) and the oracle checks, and cuts the sample and
    replicate counts of the Monte Carlo checks."""
    results = gradient_checks() + net_gradient_checks()
    if not fast:
        results.append(composite_loss_gradient_check())
    results += bound_identity_checks()
    results += quadrature_agreement_check(n=20_000 if fast else 100_000)
    results += variance_checks(replicates=2_000 if fast else 10_000)
    results += decomposition_checks(replicates=400 if fast else 2_000)
    if not fast:
        results += oracle_validity_checks() + population_oracle_checks()
    return results
