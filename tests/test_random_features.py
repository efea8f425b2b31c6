import numpy as np
import pytest

from rica.data_model import Dataset
from rica.errors import DimensionMismatch
from rica.random_features import (FeatureMap, KernelSpec, apply_feature_map,
                                  approximation_error_bound, draw_feature_map,
                                  empirical_approx_error, gram_matrix, operator_norm, pull_back)


def gaussian_kernel(x, y, sigma=1.0):
    return np.exp(-np.sum((np.asarray(x) - np.asarray(y)) ** 2) / (2 * sigma**2))


def test_kernel_spec_rejects_bad_sigma():
    with pytest.raises(ValueError):
        KernelSpec(sigma=0.0)


def test_draw_feature_map_shapes_and_phase_range():
    fmap = draw_feature_map(KernelSpec(sigma=1.0), m=3, d=1, seed=42)
    assert fmap.frequencies.shape == (3, 1)
    assert fmap.phases.shape == (3,)
    assert np.all((0.0 <= fmap.phases) & (fmap.phases < 2 * np.pi))


def test_draw_feature_map_sigma_scale_equivariance():
    one = draw_feature_map(KernelSpec(sigma=1.0), m=64, d=2, seed=5)
    two = draw_feature_map(KernelSpec(sigma=2.0), m=64, d=2, seed=5)
    np.testing.assert_allclose(two.frequencies, one.frequencies / 2.0)
    np.testing.assert_array_equal(two.phases, one.phases)


def test_frequency_std_matches_spectral_density():
    fmap = draw_feature_map(KernelSpec(sigma=1.0), m=10000, d=1, seed=8)
    assert 0.95 <= fmap.frequencies.std() <= 1.05


def test_apply_feature_map_zero_frequencies_gives_constant():
    m = 5
    fmap = FeatureMap(frequencies=np.zeros((m, 1)), phases=np.zeros(m))
    out = apply_feature_map(fmap, Dataset([[0.3, -2.0, 11.0]]))
    np.testing.assert_allclose(out, np.sqrt(2.0 / m))


def test_apply_feature_map_entry_bound():
    rng = np.random.default_rng(3)
    fmap = draw_feature_map(KernelSpec(sigma=0.7), m=40, d=3, seed=1)
    out = apply_feature_map(fmap, Dataset(rng.standard_normal((3, 200))))
    assert np.abs(out).max() <= np.sqrt(2.0 / 40) + 1e-15


def test_apply_feature_map_dimension_mismatch():
    fmap = draw_feature_map(KernelSpec(sigma=1.0), m=4, d=2, seed=0)
    with pytest.raises(DimensionMismatch):
        apply_feature_map(fmap, Dataset([[1.0, 2.0]]))


def test_feature_inner_product_approximates_kernel():
    fmap = draw_feature_map(KernelSpec(sigma=1.0), m=5000, d=1, seed=21)
    z = apply_feature_map(fmap, Dataset([[0.3, 1.1]]))
    value = float(z[:, 0] @ z[:, 1])
    assert abs(value - gaussian_kernel(0.3, 1.1)) <= 0.05  # exact value 0.7261


def test_feature_inner_product_unbiased_over_seeds():
    rng = np.random.default_rng(12)
    pairs = rng.standard_normal((20, 2))
    kernel = KernelSpec(sigma=1.0)
    for x, y in pairs:
        estimates = []
        for seed in range(50):
            fmap = draw_feature_map(kernel, m=200, d=1, seed=1000 + seed)
            z = apply_feature_map(fmap, Dataset([[x, y]]))
            estimates.append(float(z[:, 0] @ z[:, 1]))
        estimates = np.asarray(estimates)
        stderr = estimates.std(ddof=1) / np.sqrt(len(estimates))
        assert abs(estimates.mean() - gaussian_kernel(x, y)) <= 3.0 * stderr + 1e-12


def test_gram_matrix_single_point_and_known_value():
    kernel = KernelSpec(sigma=1.0)
    np.testing.assert_allclose(gram_matrix(kernel, Dataset([[0.7]])), [[1.0]])
    gram = gram_matrix(kernel, Dataset([[0.0, 1.0]]))
    assert abs(gram[0, 1] - np.exp(-0.5)) < 1e-12  # 0.6065


def test_gram_matrix_symmetric_psd_unit_diagonal():
    rng = np.random.default_rng(17)
    gram = gram_matrix(KernelSpec(sigma=0.8), Dataset(rng.standard_normal((2, 300))))
    np.testing.assert_array_equal(gram, gram.T)
    np.testing.assert_allclose(np.diag(gram), 1.0)
    assert np.linalg.eigvalsh(gram)[0] >= -1e-10


def test_bound_value_direct_evaluation():
    # oracle: sqrt(3*1000^2*ln(1000)/1000) + 2*1000*ln(1000)/1000 = 157.7713
    assert abs(approximation_error_bound(1000, 1000) - 157.7712879236067) < 1e-9


def test_bound_monotone_in_m():
    for n in (2, 10, 1000, 10**5):
        for m in (1, 8, 100, 4096):
            assert approximation_error_bound(n, 2 * m) < approximation_error_bound(n, m)


def test_bound_rejects_small_n():
    with pytest.raises(ValueError):
        approximation_error_bound(1, 10)


def test_operator_norm_matches_dense_solver():
    rng = np.random.default_rng(23)
    mat = rng.standard_normal((60, 60))
    mat = mat + mat.T
    exact = np.linalg.norm(mat, 2)
    # generic symmetric matrices can have near-tied +/- extremes, which slows
    # power iteration; the increment-based stop gives ~1e-3 relative accuracy
    assert abs(operator_norm(mat, seed=1) - exact) < 1e-2 * exact

    gapped = mat @ mat.T + np.diag(np.arange(60.0))  # PSD, clear dominant eigenvalue
    assert abs(operator_norm(gapped, seed=1) - np.linalg.norm(gapped, 2)) < 1e-4 * np.linalg.norm(gapped, 2)


def test_empirical_error_nonnegative_and_converges():
    rng = np.random.default_rng(31)
    data = Dataset(rng.standard_normal((1, 200)))
    kernel = KernelSpec(sigma=1.0)
    err = empirical_approx_error(kernel, data, m=10**5, seed=6)
    assert 0.0 <= err <= 0.5


def test_empirical_error_decreases_with_m_on_average():
    rng = np.random.default_rng(37)
    data = Dataset(rng.standard_normal((1, 500)))
    kernel = KernelSpec(sigma=1.0)
    small = np.mean([empirical_approx_error(kernel, data, 100, seed=s) for s in range(10)])
    large = np.mean([empirical_approx_error(kernel, data, 400, seed=s) for s in range(10)])
    assert large < small


def test_pull_back_matches_central_differences():
    # each sample's features depend on that sample only, so shifting one
    # coordinate of every sample at once differentiates all columns together
    rng = np.random.default_rng(12)
    fmap = draw_feature_map(KernelSpec(sigma=0.8), m=16, d=2, seed=4)
    x = rng.standard_normal((2, 30))
    weights = rng.standard_normal((16, 30))
    grad = pull_back(fmap, Dataset(x), weights)
    step = 1e-6
    for axis in range(2):
        shift = np.zeros((2, 1))
        shift[axis] = step
        change = (apply_feature_map(fmap, Dataset(x + shift))
                  - apply_feature_map(fmap, Dataset(x - shift)))
        np.testing.assert_allclose(grad[axis], (weights * change).sum(axis=0) / (2 * step),
                                   rtol=1e-6, atol=1e-8)
    with pytest.raises(DimensionMismatch):
        pull_back(fmap, Dataset(x[:1]), weights)

