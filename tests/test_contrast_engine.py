import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import rho
from rica.contrast_engine import (KERNEL_ORACLE_LIMIT, covariance_blocks, kcc_oracle,
                                  kernel_pencil_spectrum, kgv_oracle, rcc, rgv, solve_pencil)
from rica.data_model import Dataset
from rica.errors import OracleSizeExceeded, SampleMismatch, SingularDiagonal
from rica.random_features import KernelSpec, apply_feature_map, draw_feature_map

KERNEL = KernelSpec(sigma=1.0)


def features(x, m, seed):
    fmap = draw_feature_map(KERNEL, m=m, d=1, seed=seed)
    return apply_feature_map(fmap, Dataset(np.atleast_2d(x)))


def test_identical_feature_matrices_give_equal_blocks():
    z = features(np.random.default_rng(0).uniform(-1, 1, 100), 20, seed=3)
    pencil = covariance_blocks([z, z.copy()])
    np.testing.assert_allclose(pencil.blocks[0, 1], pencil.blocks[0, 0], atol=1e-15)


def test_two_samples_give_rank_one_blocks():
    z1 = features(np.array([0.4, -1.0]), 16, seed=1)
    z2 = features(np.array([2.0, 0.1]), 16, seed=2)
    pencil = covariance_blocks([z1, z2])
    for i in range(2):
        for j in range(2):
            assert np.linalg.matrix_rank(pencil.blocks[i, j], tol=1e-10) <= 1


def test_diagonal_blocks_are_psd():
    rng = np.random.default_rng(5)
    pencil = covariance_blocks([features(rng.standard_normal(400), 50, seed=7),
                                features(rng.standard_normal(400), 50, seed=8)])
    for i in range(2):
        assert np.linalg.eigvalsh(pencil.blocks[i, i])[0] >= -1e-10


def test_blocks_match_chunked_accumulation():
    rng = np.random.default_rng(6)
    z1 = features(rng.standard_normal(301), 30, seed=1)
    z2 = features(rng.standard_normal(301), 30, seed=2)
    pencil = covariance_blocks([z1, z2])
    c1 = z1 - z1.mean(axis=1, keepdims=True)
    c2 = z2 - z2.mean(axis=1, keepdims=True)
    acc = np.zeros((30, 30))
    for start in range(0, 301, 50):  # uneven final chunk on purpose
        acc += c1[:, start:start + 50] @ c2[:, start:start + 50].T
    np.testing.assert_allclose(pencil.blocks[0, 1], acc / 301, atol=1e-12)


def test_covariance_blocks_rejects_mismatched_samples():
    with pytest.raises(SampleMismatch):
        covariance_blocks([np.zeros((4, 10)), np.zeros((4, 11))])


def test_solve_pencil_requires_positive_gamma():
    pencil = covariance_blocks([features(np.arange(5.0), 8, seed=1),
                                features(np.arange(5.0), 8, seed=2)], gamma=0.0)
    with pytest.raises(SingularDiagonal):
        solve_pencil(pencil)


def test_rgv_requires_positive_gamma():
    z = [features(np.arange(5.0), 8, seed=1), features(np.arange(5.0), 8, seed=2)]
    with pytest.raises(SingularDiagonal):
        rgv(z, gamma=0.0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_s=st.sampled_from([2, 3]),
       m=st.integers(2, 24), n_samples=st.integers(3, 200),
       gamma=st.floats(1e-3, 1e-1))
def test_rgv_log_det_equals_pencil_spectrum(seed, n_s, m, n_samples, gamma):
    # det B = det(C + gamma I) / det D: the log-det ratio is the pencil sum
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n_samples)
    z = [features(x + k * rng.standard_normal(n_samples), m, seed=seed + k)
         for k in range(n_s)]
    spectrum = solve_pencil(covariance_blocks(z, gamma=gamma))
    assert abs(rgv(z, gamma=gamma).value - (-0.5 * np.sum(np.log(spectrum.eigenvalues)))) < 1e-10


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_s=st.sampled_from([2, 3]),
       m=st.integers(2, 24), n_samples=st.integers(3, 200),
       gamma=st.floats(1e-3, 1e-1))
def test_rcc_cholesky_form_equals_pencil_spectrum(seed, n_s, m, n_samples, gamma):
    # L^-1 (C + gamma I) L^-T and D^-1/2 (C + gamma I) D^-1/2 are similar
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n_samples)
    z = [features(x + k * rng.standard_normal(n_samples), m, seed=seed + k)
         for k in range(n_s)]
    spectrum = solve_pencil(covariance_blocks(z, gamma=gamma))
    assert abs(rcc(z, gamma=gamma).value - (-0.5 * np.log(spectrum.eigenvalues[-1]))) < 1e-10


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_s=st.sampled_from([2, 3, 4]),
       gamma=st.floats(1e-3, 1e-1), contrast=st.sampled_from([rcc, rgv]))
def test_feature_gradient_matches_central_differences(seed, n_s, gamma, contrast):
    # the directional derivative along a random V of the stacked features
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(300)
    z = [features(x + k * rng.standard_normal(300), 20, seed=seed + k) for k in range(n_s)]
    grad = contrast(z, gamma=gamma).feature_gradient()
    direction = [rng.standard_normal(block.shape) for block in z]
    step = 1e-5

    def along(h):
        return contrast([block + h * v for block, v in zip(z, direction)], gamma=gamma).value

    central = (along(step) - along(-step)) / (2.0 * step)
    analytic = float(np.sum(grad * np.vstack(direction)))
    assert abs(analytic - central) <= 1e-5 * abs(central) + 1e-8


def test_independent_variables_small_rho_decreasing_in_n():
    def mean_rho(n):
        rhos = []
        for s in range(3):
            rng = np.random.default_rng(100 + s)
            z = [features(rng.standard_normal(n), 50, seed=200 + s),
                 features(rng.standard_normal(n), 50, seed=300 + s)]
            rhos.append(rho(solve_pencil(covariance_blocks(z, gamma=0.02))))
        return np.mean(rhos)

    small_n, large_n = mean_rho(500), mean_rho(4000)
    assert large_n <= 0.3
    assert large_n < small_n


def test_identical_variable_high_rho():
    rng = np.random.default_rng(5)
    x = rng.uniform(-np.sqrt(3), np.sqrt(3), 1000)
    z = features(x, 100, seed=77)
    spectrum = solve_pencil(covariance_blocks([z, z.copy()], gamma=1e-3))
    assert rho(spectrum) >= 0.95


def test_spectrum_positive_trace_and_symmetry_about_one():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(600)
    y = 0.6 * x + 0.8 * rng.standard_normal(600)
    z = [features(x, 40, seed=1), features(y, 40, seed=2)]
    spectrum = solve_pencil(covariance_blocks(z, gamma=0.01))
    mu = spectrum.eigenvalues
    assert np.all(mu > 0)
    assert abs(mu.sum() - spectrum.size) < 1e-6
    paired = mu + mu[::-1]
    np.testing.assert_allclose(paired / 2.0, 1.0, atol=1e-8)


def test_two_variable_spectrum_matches_svd_oracle():
    # independent check: eigenvalues must equal 1 +/- singular values of the
    # whitened cross block
    rng = np.random.default_rng(21)
    x = rng.standard_normal(500)
    y = 0.5 * x + np.sqrt(0.75) * rng.standard_normal(500)
    z = [features(x, 30, seed=5), features(y, 30, seed=6)]
    gamma = 0.02
    pencil = covariance_blocks(z, gamma=gamma)
    spectrum = solve_pencil(pencil)

    def inv_sqrt(mat):
        w, u = np.linalg.eigh(mat)
        return (u / np.sqrt(w)) @ u.T

    m_block = inv_sqrt(pencil.blocks[0, 0] + gamma * np.eye(30)) @ pencil.blocks[0, 1] \
        @ inv_sqrt(pencil.blocks[1, 1] + gamma * np.eye(30))
    sing = np.linalg.svd(m_block, compute_uv=False)
    expected = np.sort(np.concatenate([1.0 + sing, 1.0 - sing]))[::-1]
    np.testing.assert_allclose(spectrum.eigenvalues, expected, atol=1e-10)


def test_rho_matches_zero_diagonal_generalized_pencil():
    # the zero-diagonal two-block pencil, solved directly by an independent
    # generalized eigensolver, must give the same largest eigenvalue
    rng = np.random.default_rng(33)
    x = rng.standard_normal(400)
    y = 0.7 * x + 0.714 * rng.standard_normal(400)
    z = [features(x, 25, seed=3), features(y, 25, seed=4)]
    gamma = 0.02
    pencil = covariance_blocks(z, gamma=gamma)
    spectrum = solve_pencil(pencil)

    m = 25
    zero_diag = np.zeros((2 * m, 2 * m))
    zero_diag[:m, m:] = pencil.blocks[0, 1]
    zero_diag[m:, :m] = pencil.blocks[1, 0]
    diag = np.zeros((2 * m, 2 * m))
    diag[:m, :m] = pencil.blocks[0, 0] + gamma * np.eye(m)
    diag[m:, m:] = pencil.blocks[1, 1] + gamma * np.eye(m)
    eigs = scipy.linalg.eigh(zero_diag, diag, eigvals_only=True)
    rho_direct = float(np.max(eigs))
    assert abs(rho(spectrum) - rho_direct) < 1e-8
    # and rcc equals -1/2 log(1 - rho) of that directly solved pencil
    assert abs(rcc(z, gamma=gamma).value - (-0.5 * np.log(1.0 - rho_direct))) < 1e-8


def test_rcc_independent_baseline():
    rng = np.random.default_rng(9)
    half = np.sqrt(3)
    z = [features(rng.uniform(-half, half, 2000), 200, seed=1),
         features(rng.uniform(-half, half, 2000), 200, seed=2)]
    assert rcc(z, gamma=0.02).value <= 0.1


def test_rcc_blows_up_for_identical_variable():
    rng = np.random.default_rng(4)
    z = features(rng.standard_normal(800), 100, seed=11)
    assert rcc([z, z.copy()], gamma=1e-3).value >= 1.0


def test_rgv_independent_baseline():
    rng = np.random.default_rng(10)
    half = np.sqrt(3)
    z = [features(rng.uniform(-half, half, 2000), 200, seed=3),
         features(rng.uniform(-half, half, 2000), 200, seed=4)]
    assert rgv(z, gamma=0.02).value <= 0.2


def test_rgv_dominates_rcc_under_perfect_dependence():
    rng = np.random.default_rng(4)
    z = features(rng.standard_normal(800), 100, seed=11)
    pair = [z, z.copy()]
    assert rgv(pair, gamma=1e-3).value >= rcc(pair, gamma=1e-3).value


def test_contrasts_nonnegative():
    rng = np.random.default_rng(41)
    for s in range(5):
        x = rng.standard_normal(300)
        y = rng.standard_normal(300) if s % 2 else 0.3 * x + rng.standard_normal(300)
        z = [features(x, 30, seed=s), features(y, 30, seed=50 + s)]
        assert rcc(z, gamma=0.01).value >= -1e-9
        assert rgv(z, gamma=0.01).value >= -1e-9


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_permutation_invariance(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(500)
    y = 0.4 * x + rng.standard_normal(500)
    w = rng.standard_normal(500)
    z = [features(x, 20, seed=1), features(y, 20, seed=2), features(w, 20, seed=3)]
    for contrast in (rcc, rgv):
        base = contrast(z, gamma=0.02).value
        assert abs(contrast([z[2], z[0], z[1]], gamma=0.02).value - base) < 1e-9
        assert abs(contrast([z[1], z[0], z[2]], gamma=0.02).value - base) < 1e-9


def test_rcc_nondecreasing_in_dependence():
    def mean_rcc(alpha):
        values = []
        for s in range(3):
            rng = np.random.default_rng(50 + s)
            a = rng.standard_normal(2000)
            b = alpha * a + np.sqrt(1 - alpha**2) * rng.standard_normal(2000)
            values.append(rcc([features(a, 100, seed=60 + s),
                               features(b, 100, seed=70 + s)], gamma=0.02).value)
        return np.mean(values)

    v0, v5, v9 = mean_rcc(0.0), mean_rcc(0.5), mean_rcc(0.9)
    assert v0 <= v5 <= v9


def _identical_features():
    z = features(np.random.default_rng(1).uniform(-1.7, 1.7, 2000), 50, seed=3)
    return [z, z.copy()]


def _identical_variables():
    data = Dataset(np.random.default_rng(8).uniform(-1, 1, (1, 400)))
    return [data, Dataset(data.values.copy())]


@pytest.mark.parametrize("contrast", [
    lambda: rcc(_identical_features(), gamma=1e-13),  # 1 - rho underflows the floor
    lambda: kcc_oracle(_identical_variables(), KERNEL, kappa=1e-14),
    lambda: kgv_oracle(_identical_variables(), KERNEL, kappa=1e-14),
], ids=["rcc", "kcc_oracle", "kgv_oracle"])
def test_singular_pencil_raises(contrast):
    with pytest.raises(SingularDiagonal, match="increase gamma"):
        contrast()


def test_kcc_oracle_identical_variable():
    assert kcc_oracle(_identical_variables(), KERNEL, kappa=0.02) >= 1.0


def test_kernel_oracles_independent_baselines():
    rng = np.random.default_rng(11)
    d1 = Dataset(rng.standard_normal((1, 500)))
    d2 = Dataset(rng.standard_normal((1, 500)))
    assert kcc_oracle([d1, d2], KERNEL, kappa=0.02) <= 0.1
    assert kgv_oracle([d1, d2], KERNEL, kappa=0.02) <= 0.3


def test_kernel_oracle_size_cap():
    data = Dataset(np.zeros((1, KERNEL_ORACLE_LIMIT + 1)))
    with pytest.raises(OracleSizeExceeded):
        kgv_oracle([data, data], KERNEL, kappa=0.02)


def test_kernel_oracle_requires_positive_kappa():
    data = Dataset(np.random.default_rng(0).standard_normal((1, 50)))
    with pytest.raises(SingularDiagonal):
        kcc_oracle([data, data], KERNEL, kappa=0.0)


def test_rcc_approaches_kcc_with_many_features():
    rng = np.random.default_rng(42)
    n = 256
    x = rng.standard_normal(n)
    y = 0.7 * x + 0.714 * rng.standard_normal(n)
    d1, d2 = Dataset(x[None, :]), Dataset(y[None, :])
    target = rho(kernel_pencil_spectrum([d1, d2], KERNEL, kappa=0.002))

    def mean_gap(m):
        gaps = []
        for s in range(3):
            z = [features(x, m, seed=1000 + s), features(y, m, seed=5000 + s)]
            gaps.append(abs(rho(solve_pencil(covariance_blocks(z, gamma=0.002))) - target))
        return np.mean(gaps)

    assert mean_gap(400) < mean_gap(50)
    assert mean_gap(400) <= 0.05


def test_rgv_approaches_kgv_with_many_features():
    rng = np.random.default_rng(42)
    n = 256
    x = rng.standard_normal(n)
    y = 0.7 * x + 0.714 * rng.standard_normal(n)
    d1, d2 = Dataset(x[None, :]), Dataset(y[None, :])
    target = kgv_oracle([d1, d2], KERNEL, kappa=0.002)

    def mean_gap(m):
        gaps = []
        for s in range(3):
            z = [features(x, m, seed=1000 + s), features(y, m, seed=5000 + s)]
            gaps.append(abs(rgv(z, gamma=0.002).value - target))
        return np.mean(gaps)

    assert mean_gap(400) < mean_gap(50)
    assert mean_gap(400) <= 0.1


def test_kgv_angle_curve_has_interior_minimum_at_truth():
    # rotate two independent sources by a known angle and scan the unmixing
    # angle with the exact kernel contrast
    rng = np.random.default_rng(77)
    n = 300
    sources = np.vstack([rng.uniform(-np.sqrt(3), np.sqrt(3), n),
                         rng.uniform(-np.sqrt(3), np.sqrt(3), n)])
    theta = np.deg2rad(25.0)
    mixing = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    mixed = mixing @ sources
    angles = np.deg2rad(np.arange(0.0, 90.1, 5.0))
    values = []
    for phi in angles:
        q = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
        rotated = q @ mixed
        values.append(kgv_oracle([Dataset(rotated[0:1]), Dataset(rotated[1:2])],
                                 KERNEL, kappa=0.02))
    best = np.rad2deg(angles[int(np.argmin(values))])
    expected = (-25.0) % 90.0
    distance = min(abs(best - expected), 90.0 - abs(best - expected))
    assert distance <= 10.0
    assert 0.0 < best < 90.0  # interior minimum
