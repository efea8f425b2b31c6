import numpy as np
import pytest

from helpers import empirical_covariance
from rica.data_model import (Dataset, dataset_from_csv, dataset_to_csv, inject_outliers, mix,
                             random_mixing_matrix, whiten)
from rica.errors import CountTooLarge, DegenerateCovariance, DimensionMismatch, InvalidRange


def test_dataset_validates_shape_and_finiteness():
    with pytest.raises(DimensionMismatch):
        Dataset(np.zeros(3))
    with pytest.raises(ValueError):
        Dataset(np.array([[1.0, np.inf]]))
    ds = Dataset([[1.0, 2.0], [3.0, 4.0]])
    assert ds.d == 2 and ds.N == 2


def test_whiten_one_dim_variance_four():
    data = Dataset([[0.0, 4.0]])  # variance 4 with the 1/N convention
    out, transform = whiten(data)
    np.testing.assert_allclose(transform.matrix, [[0.5]])
    np.testing.assert_allclose(empirical_covariance(out.values), [[1.0]], atol=1e-12)


def test_whiten_identity_covariance_input():
    rng = np.random.default_rng(1)
    raw = rng.standard_normal((2, 5000))
    # force exactly identity empirical covariance
    cov = empirical_covariance(raw)
    w, u = np.linalg.eigh(cov)
    exact = (u / np.sqrt(w)) @ u.T @ (raw - raw.mean(axis=1, keepdims=True))
    out, transform = whiten(Dataset(exact))
    np.testing.assert_allclose(transform.matrix, np.eye(2), atol=1e-6)
    np.testing.assert_allclose(empirical_covariance(out.values), np.eye(2), atol=1e-8)


def test_whiten_correlated_gaussian_recomputed_covariance():
    rng = np.random.default_rng(7)
    scale = np.array([[2.0, 0.0], [1.2, 0.4]])
    data = Dataset(scale @ rng.standard_normal((2, 3000)) + 1.5)
    out, transform = whiten(data)
    # oracle: recompute the covariance of the output from scratch
    np.testing.assert_allclose(empirical_covariance(out.values), np.eye(2), atol=1e-8)
    assert np.abs(transform.matrix - transform.matrix.T).max() < 1e-12
    assert np.all(np.linalg.eigvalsh(transform.matrix) > 0)


def test_whiten_rejects_rank_deficient_data():
    row = np.linspace(0.0, 1.0, 50)
    with pytest.raises(DegenerateCovariance):
        whiten(Dataset(np.vstack([row, 2.0 * row])))


def test_whiten_scalar_scale_invariance():
    rng = np.random.default_rng(3)
    values = np.array([[1.0, 0.5], [0.0, 1.0]]) @ rng.standard_normal((2, 500))
    base, _ = whiten(Dataset(values))
    scaled, _ = whiten(Dataset(3.7 * values))
    np.testing.assert_allclose(scaled.values, base.values, atol=1e-10)


def test_whiten_row_scaling_changes_output_by_rotation_only():
    # Per-row positive rescaling yields the same whitened data up to an
    # orthogonal transform (symmetric whitening is unique only up to rotation).
    rng = np.random.default_rng(4)
    values = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.3], [0.0, 0.0, 1.0]]) @ \
        rng.standard_normal((3, 4000))
    base, _ = whiten(Dataset(values))
    scaled, _ = whiten(Dataset(np.diag([2.0, 0.5, 7.0]) @ values))
    np.testing.assert_allclose(empirical_covariance(scaled.values), np.eye(3), atol=1e-8)
    rot = scaled.values @ base.values.T / values.shape[1]
    np.testing.assert_allclose(rot @ rot.T, np.eye(3), atol=1e-8)
    np.testing.assert_allclose(scaled.values, rot @ base.values, atol=1e-8)


def test_whiten_after_mix_gives_identity_covariance():
    rng = np.random.default_rng(11)
    sources = Dataset(rng.uniform(-1, 1, size=(3, 2000)))
    out, _ = whiten(mix(sources, random_mixing_matrix(3, 1.0, 2.0, seed=5)))
    np.testing.assert_allclose(empirical_covariance(out.values), np.eye(3), atol=1e-8)


def test_random_mixing_matrix_one_by_one():
    matrix = random_mixing_matrix(1, 1.0, 2.0, seed=3)
    assert matrix.shape == (1, 1)
    assert abs(np.linalg.cond(matrix) - 1.0) < 1e-9


def test_random_mixing_matrix_deterministic():
    a = random_mixing_matrix(3, 1.0, 2.0, seed=7)
    b = random_mixing_matrix(3, 1.0, 2.0, seed=7)
    np.testing.assert_array_equal(a, b)


def test_random_mixing_matrix_condition_in_range_via_svd():
    singulars = np.linalg.svd(random_mixing_matrix(2, 1.0, 2.0, seed=7), compute_uv=False)
    assert 1.0 <= singulars[0] / singulars[-1] <= 2.0


@pytest.mark.parametrize("n", [2, 4])
def test_random_mixing_matrix_condition_over_100_seeds(n):
    for seed in range(100):
        singulars = np.linalg.svd(random_mixing_matrix(n, 1.0, 2.0, seed=seed),
                                  compute_uv=False)
        ratio = singulars[0] / singulars[-1]
        assert 1.0 - 1e-9 <= ratio <= 2.0 + 1e-9


def test_random_mixing_matrix_rejects_bad_range():
    with pytest.raises(InvalidRange):
        random_mixing_matrix(2, 0.5, 2.0, seed=0)
    with pytest.raises(InvalidRange):
        random_mixing_matrix(2, 3.0, 2.0, seed=0)


def test_mix_identity_and_swap():
    sources = Dataset([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(mix(sources, np.eye(2)).values, sources.values)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_array_equal(mix(sources, swap).values, sources.values[::-1])


def test_mix_hand_product():
    sources = Dataset([[1.0], [1.0]])
    a_mat = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_allclose(mix(sources, a_mat).values, [[3.0], [7.0]])


def test_mix_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        mix(Dataset(np.ones((3, 4))), np.eye(2))


def test_inject_outliers_count_zero_is_noop():
    ds = Dataset(np.arange(12.0).reshape(3, 4))
    assert inject_outliers(ds, 0, 5.0, seed=1) is ds


def test_inject_outliers_exact_count_and_magnitude():
    ds = Dataset(np.zeros((5, 20)))
    out = inject_outliers(ds, 5, 5.0, seed=2)
    diff = out.values - ds.values
    changed = np.abs(diff) > 0
    assert changed.sum() == 5
    assert np.all(np.isin(diff[changed], [-5.0, 5.0]))


def test_inject_outliers_deterministic_and_bounds():
    ds = Dataset(np.zeros((2, 10)))
    a = inject_outliers(ds, 7, 5.0, seed=9)
    b = inject_outliers(ds, 7, 5.0, seed=9)
    np.testing.assert_array_equal(a.values, b.values)
    with pytest.raises(CountTooLarge):
        inject_outliers(ds, 21, 5.0, seed=0)


def test_dataset_csv_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    ds = Dataset(rng.standard_normal((3, 17)) * 1e-7)
    path = tmp_path / "data.csv"
    dataset_to_csv(ds, path, comment="test")
    back = dataset_from_csv(path)
    np.testing.assert_array_equal(back.values, ds.values)  # shortest round-trip reprs
