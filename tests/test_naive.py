import numpy as np
import pytest

from ivbounds import InputError, data, naive
from ivbounds.nets import TrainConfig
from ivbounds.rng import stream_rng


def test_kmeans_k1_centroid_is_mean():
    z = np.array([[1.0], [2.0], [4.0], [9.0]])
    model = naive.kmeans_fit(z, 1, seed=0)
    assert model.centroids[0, 0] == pytest.approx(z.mean())


def test_kmeans_separates_point_masses():
    z = np.array([[-1.0]] * 30 + [[1.0]] * 30)
    model = naive.kmeans_fit(z, 2, seed=0)
    assert sorted(model.centroids[:, 0].tolist()) == [-1.0, 1.0]
    assert model.inertia == pytest.approx(0.0)


def test_kmeans_two_gaussians():
    rng = stream_rng(0, "km")
    z = np.concatenate([rng.normal(-3, 0.5, 5000), rng.normal(3, 0.5, 5000)])[:, None]
    model = naive.kmeans_fit(z, 2, seed=1)
    got = np.sort(model.centroids[:, 0])
    assert abs(got[0] + 3) < 0.1
    assert abs(got[1] - 3) < 0.1


def test_kmeans_requires_enough_distinct_points():
    z = np.array([[1.0], [1.0], [1.0]])
    with pytest.raises(InputError, match="distinct"):
        naive.kmeans_fit(z, 2, seed=0)


def test_kmeans_one_dimensional_input_is_a_column():
    z = np.array([-1.0, -1.0, 1.0, 1.0])
    flat = naive.kmeans_fit(z, 2, seed=0)
    col = naive.kmeans_fit(z[:, None], 2, seed=0)
    np.testing.assert_array_equal(flat.centroids, col.centroids)
    assert flat.inertia == col.inertia and flat.history == col.history
    np.testing.assert_array_equal(flat.assign(z), col.assign(z[:, None]))
    with pytest.raises(ValueError, match="shape"):
        naive.kmeans_fit(z.reshape(2, 2, 1), 2, seed=0)


def test_kmeans_inertia_monotone():
    rng = stream_rng(1, "km")
    z = rng.normal(size=(500, 2))
    model = naive.kmeans_fit(z, 3, seed=2, n_restarts=1)
    diffs = np.diff(model.history)
    assert np.all(diffs <= 1e-9)


def test_kmeans_assignment_deterministic_tie_break():
    model = naive.KMeansModel(centroids=np.array([[0.0], [0.0]]), inertia=0.0, history=[])
    labels = model.assign(np.array([[0.5], [-0.5]]))
    np.testing.assert_array_equal(labels, [0, 0])


def _naive_bounds(split, k, rng_range, config):
    """Fit the naive baseline and bound it on the test split, as a naive run does."""
    fit = naive.fit_naive(split, k, config)
    pair, diag = naive.naive_bounds(fit, split.test, rng_range)
    return pair, fit, diag


@pytest.fixture(scope="module")
def d1_split():
    return data.split_dataset(data.generate_dataset1(2000, 0), 0)


def test_naive_k1_width_is_outcome_range(d1_split):
    rng_range = data.outcome_range_from_train(d1_split.train)
    config = TrainConfig(seed=0, max_epochs=5, batch_size=64, k=1)
    pair, fit, _ = _naive_bounds(d1_split, 1, rng_range, config)
    np.testing.assert_allclose(pair.width, rng_range.width, atol=1e-9)
    assert fit.kmeans.k == 1


def test_naive_pipeline_dataset1(d1_split):
    rng_range = data.outcome_range_from_train(d1_split.train)
    config = TrainConfig(seed=0, batch_size=32, k=2)
    pair, fit, diag = _naive_bounds(d1_split, 2, rng_range, config)
    tau = d1_split.test.tau_true
    coverage = np.mean((pair.lower <= tau) & (tau <= pair.upper))
    assert coverage >= 0.95
    assert diag["min_cell_mass"] > 0.05
    # Fairness contract: same architecture family as the main first stage.
    assert fit.mu.spec.hidden == 10
    assert fit.mu.spec.x_depth == 2 and fit.mu.spec.z_depth == 3 and fit.mu.spec.shared_depth == 2
    assert fit.pi.spec.hidden == 10


def test_naive_deterministic(d1_split):
    rng_range = data.outcome_range_from_train(d1_split.train)
    config = TrainConfig(seed=3, max_epochs=4, batch_size=64, k=2)
    p1, f1, _ = _naive_bounds(d1_split, 2, rng_range, config)
    p2, f2, _ = _naive_bounds(d1_split, 2, rng_range, config)
    np.testing.assert_array_equal(p1.lower, p2.lower)
    np.testing.assert_array_equal(p1.upper, p2.upper)
    for name in f1.mu.params:
        np.testing.assert_array_equal(f1.mu.params[name], f2.mu.params[name])
