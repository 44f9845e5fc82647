import pickle

import numpy as np
import pytest

from ivbounds import InputError, data, nuisance
from ivbounds.nets import OUTCOME_SPEC, PROPENSITY_SPEC, EtaNet, TrainConfig, TwoBranchNet
from ivbounds.rng import stream_rng


def _split_from_arrays(x, z, a, y, seed=0):
    n = len(x)
    batch = data.SampleBatch(
        z=z if z.ndim == 2 else z[:, None],
        x=x,
        a=a.astype(np.int64),
        y=y,
        u=np.zeros(n),
        tau_true=np.zeros(n),
        pi_true=np.full(n, 0.5),
    )
    return data.split_dataset(batch, seed)


def _config(seed=0, **kw):
    return TrainConfig(seed=seed, **kw)


def test_fit_mu_recovers_degenerate_outcome():
    rng = stream_rng(0, "case")
    n = 1200
    x = rng.uniform(-1, 1, n)
    z = rng.uniform(-1, 1, n)
    a = rng.integers(0, 2, n)
    split = _split_from_arrays(x, z, a, y=a.astype(np.float64))
    net, _ = nuisance.fit_mu(split, _config())
    preds = net.predict(split.train.x, split.train.z)
    assert np.max(np.abs(preds[:, 1] - 1.0)) < 0.05
    assert np.max(np.abs(preds[:, 0] - 0.0)) < 0.05


def test_fit_mu_treatment_free_regression():
    rng = stream_rng(1, "case")
    n = 1200
    x = rng.uniform(-1, 1, n)
    z = rng.uniform(-1, 1, n)
    a = rng.integers(0, 2, n)
    split = _split_from_arrays(x, z, a, y=x.copy())
    net, _ = nuisance.fit_mu(split, _config())
    grid = np.linspace(-1, 1, 101)
    preds = net.predict(grid, np.zeros(101))
    assert np.max(np.abs(preds[:, 0] - grid)) < 0.1
    assert np.max(np.abs(preds[:, 1] - grid)) < 0.1


def test_fit_mu_deterministic():
    rng = stream_rng(2, "case")
    n = 400
    x = rng.uniform(-1, 1, n)
    z = rng.uniform(-1, 1, n)
    a = rng.integers(0, 2, n)
    split = _split_from_arrays(x, z, a, y=x + a)
    cfg = _config(max_epochs=15)
    n1, _ = nuisance.fit_mu(split, cfg)
    n2, _ = nuisance.fit_mu(split, cfg)
    for name in n1.params:
        np.testing.assert_array_equal(n1.params[name], n2.params[name])


def test_fit_mu_requires_both_arms():
    rng = stream_rng(3, "case")
    n = 100
    x = rng.uniform(-1, 1, n)
    split = _split_from_arrays(x, x.copy(), np.ones(n), y=x.copy())
    with pytest.raises(InputError, match="both treatment arms"):
        nuisance.fit_mu(split, _config())


def test_fit_pi_pure_noise_is_half():
    rng = stream_rng(4, "case")
    n = 1600
    x = rng.uniform(-1, 1, n)
    z = rng.uniform(-1, 1, n)
    a = rng.integers(0, 2, n)
    split = _split_from_arrays(x, z, a, y=np.zeros(n))
    net, _ = nuisance.fit_pi(split, _config())
    p = net.predict(np.linspace(-1, 1, 60), np.linspace(-1, 1, 60))
    assert np.all(np.abs(p - 0.5) < 0.05)
    assert np.all((p > 0) & (p < 1))


def _auc(scores, labels):
    order = np.argsort(scores)
    ranks = np.empty(len(scores))
    ranks[order] = np.arange(1, len(scores) + 1)
    pos = labels == 1
    n_pos, n_neg = pos.sum(), (~pos).sum()
    return (ranks[pos].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)


def test_fit_pi_separable_classification():
    rng = stream_rng(5, "case")
    n = 1600
    x = rng.uniform(-1, 1, n)
    z = rng.uniform(-1, 1, n)
    a = (z > 0).astype(np.int64)
    split = _split_from_arrays(x, z, a, y=np.zeros(n))
    net, _ = nuisance.fit_pi(split, _config())
    scores = net.predict(split.test.x, split.test.z)
    assert _auc(scores, split.test.a) > 0.95


def test_fit_eta_approximates_marginal_propensity():
    # Consistency-style check: at n = 1e5 the net must track the
    # (x, u)-marginalized propensity within 0.07 across the instrument range.
    split = data.split_dataset(data.generate_dataset1(100_000, 0), 0)
    net, _ = nuisance.fit_eta(split, _config(batch_size=256))
    z_grid = np.linspace(-0.95, 0.95, 15)
    mc = stream_rng(0, "mc")
    x_mc = mc.uniform(-1, 1, 100_000)
    u_mc = mc.uniform(-1, 1, 100_000)
    for z in z_grid:
        oracle = data.propensity_dataset1(z, x_mc, u_mc).mean()
        assert abs(net.predict(np.array([z]))[0] - oracle) < 0.07


def test_fit_eta_saturated_treatment():
    rng = stream_rng(6, "case")
    n = 800
    z = rng.uniform(-1, 1, n)
    split = _split_from_arrays(z.copy(), z, np.ones(n), y=np.zeros(n))
    # Constant-treatment data has only one arm; eta does not need both.
    net, _ = nuisance.fit_eta(split, _config())
    p = net.predict(np.linspace(-1, 1, 50))
    assert np.all(p >= 0.95)
    # Sigmoid may round to exactly 1.0 in float64 on this degenerate data.
    assert np.all((p > 0) & (p <= 1))


def test_frozen_nuisances_reject_writes():
    split = data.split_dataset(data.generate_dataset1(400, 1), 1)
    nuis = nuisance.fit_nuisances(split, _config(max_epochs=3))
    assert nuis.frozen
    with pytest.raises((ValueError, RuntimeError)):
        nuis.mu.params["head0.w"][0, 0] = 99.0
    fp1 = nuis.fingerprint()
    assert fp1 == nuis.fingerprint()


def test_frozen_nuisances_stay_frozen_when_pickled():
    rng = stream_rng(0, "pickle")
    nuis = nuisance.NuisanceSet(
        mu=TwoBranchNet.create(1, 1, rng, OUTCOME_SPEC),
        pi=TwoBranchNet.create(1, 1, rng, PROPENSITY_SPEC),
        eta=EtaNet.create(1, rng),
    ).freeze()
    copy = pickle.loads(pickle.dumps(nuis))
    assert copy.frozen and copy.fingerprint() == nuis.fingerprint()
    for net in (copy.mu, copy.pi, copy.eta):
        for arr in net.params.values():
            with pytest.raises(ValueError):
                arr[...] = 0.0
    thawed = pickle.loads(pickle.dumps(nuisance.NuisanceSet(mu=nuis.mu, pi=nuis.pi, eta=nuis.eta)))
    assert not thawed.frozen and thawed.mu.params["head0.w"].flags.writeable


@pytest.mark.slow
def test_calibration_sanity_all_datasets():
    # Mean predicted propensity vs empirical treatment rate on the test split.
    for dataset in (1, 2, 3):
        split = data.split_dataset(data.generate_dataset(dataset, 2000, 0), 0)
        net, _ = nuisance.fit_pi(split, _config())
        mean_pred = net.predict(split.test.x, split.test.z).mean()
        assert abs(mean_pred - split.test.a.mean()) < 0.05, f"dataset {dataset}"
