import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import chebyshev_rows, rho
from rica.contrast_engine import (KERNEL_ORACLE_LIMIT, CovariancePencil, covariance_blocks,
                                  kcc_oracle, kernel_pencil_spectrum, kgv_oracle, rcc, rgv,
                                  solve_pencil)
from rica.errors import OracleSizeExceeded, SampleMismatch, SingularDiagonal
from rica.random_features import (ChebyshevBasis, KernelSpec, apply_feature_map,
                                  chebyshev_coefficients, draw_feature_map)

KERNEL = KernelSpec(sigma=1.0)


def features(x, m, seed):
    return apply_feature_map(draw_feature_map(KERNEL, m=m, seed=seed), x)


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
    # the pencil itself refuses gamma <= 0, and NaN, before any solve
    z = [features(np.arange(5.0), 8, seed=1), features(np.arange(5.0), 8, seed=2)]
    for gamma in (0.0, -1.0, np.nan):
        with pytest.raises(SingularDiagonal, match="increase gamma"):
            solve_pencil(covariance_blocks(z, gamma=gamma))


def test_contrasts_leave_the_pencil_matrix_unchanged():
    rng = np.random.default_rng(9)
    z = [features(rng.standard_normal(200), 12, seed=s) for s in (1, 2, 3)]
    pencil = covariance_blocks(z, gamma=0.01)
    for contrast in (rcc, rgv):
        contrast(pencil).weights()
    np.testing.assert_array_equal(pencil.matrix, covariance_blocks(z, gamma=0.01).matrix)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_s=st.sampled_from([2, 3]),
       shape=st.sampled_from([(64, 2.0), (16, 0.5)]), gamma=st.floats(1e-3, 1e-1))
def test_contrasts_of_the_chebyshev_pencil_equal_those_of_the_features(seed, n_s, shape, gamma):
    # the centred features are T Ubar for T = blockdiag(C'_i), C'_i = Q_i R_i
    # the coefficients of map i in T_1..T_d: T S T^T and R S R^T differ only
    # by eigenvalues gamma and normalised eigenvalues 1. (m, sigma) = (64, 2)
    # gives d < m, (16, 0.5) gives d > m
    m, sigma = shape
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(300)
    y = np.stack([x + k * rng.standard_normal(300) for k in range(n_s)])
    radius = float(np.sqrt((y * y).sum(axis=0).max()))
    maps = [draw_feature_map(KernelSpec(sigma=sigma), m=m, seed=seed + k) for k in range(n_s)]
    basis = ChebyshevBasis(maps, radius)
    assert (basis.degree < m) == (m == 64)
    rows = chebyshev_rows(basis, y)
    rows -= rows.mean(axis=1, keepdims=True)
    covariance = rows @ rows.T / rows.shape[1]
    expand = scipy.linalg.block_diag(*[chebyshev_coefficients(fmap, radius, basis.degree)[:, 1:]
                                       for fmap in maps])
    for contrast in (rcc, rgv):
        compressed = contrast(CovariancePencil(basis.compress(covariance), gamma, n_s)).value
        full = contrast(CovariancePencil(expand @ covariance @ expand.T, gamma, n_s)).value
        assert abs(compressed - full) <= 1e-12


def test_rgv_requires_positive_gamma():
    # NaN once gave rgv a nan value and rcc a bare LinAlgError; inf gave both nan
    z = [features(np.arange(5.0), 8, seed=1), features(np.arange(5.0), 8, seed=2)]
    for contrast in (rgv, rcc):
        for gamma in (0.0, np.nan, np.inf):
            with pytest.raises(SingularDiagonal):
                contrast(covariance_blocks(z, gamma=gamma))


@pytest.mark.parametrize("n_s", [2, 3])
def test_rgv_factors_each_diagonal_block_once(n_s, monkeypatch):
    # the Cholesky factor of C + gamma I holds that of C_11 + gamma I as its
    # leading block: n_s factorisations for the value and its weights
    rng = np.random.default_rng(n_s)
    pencil = covariance_blocks([features(rng.standard_normal(200), 12, seed=s)
                                for s in range(n_s)], gamma=0.01)
    calls, cholesky = [], np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(a.shape) or cholesky(a))
    rgv(pencil).weights()
    assert calls == [(12 * n_s, 12 * n_s)] + [(12, 12)] * (n_s - 1)


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
    pencil = covariance_blocks(z, gamma=gamma)
    assert abs(rgv(pencil).value - (-0.5 * np.sum(np.log(solve_pencil(pencil))))) < 1e-10


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
    pencil = covariance_blocks(z, gamma=gamma)
    assert abs(rcc(pencil).value - (-0.5 * np.log(solve_pencil(pencil)[-1]))) < 1e-10


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_s=st.sampled_from([2, 3, 4]),
       gamma=st.floats(1e-3, 1e-1), contrast=st.sampled_from([rcc, rgv]))
@example(seed=2010907718, n_s=4, gamma=0.002, contrast=rgv)
def test_feature_gradient_matches_central_differences(seed, n_s, gamma, contrast):
    # the directional derivative along a random V of the stacked features.
    # The reference is the Richardson value (4 D(h/2) - D(h)) / 3 of the
    # central differences D: at h alone their truncation error reached
    # 6.1e-8 against a slope of 1.2e-3 (the pinned example), where the
    # Richardson value was within 1.7e-9.
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(300)
    z = [features(x + k * rng.standard_normal(300), 20, seed=seed + k) for k in range(n_s)]
    centered = np.vstack(z)
    centered -= centered.mean(axis=1, keepdims=True)
    grad = -contrast(covariance_blocks(z, gamma=gamma)).weights() @ centered / centered.shape[1]
    direction = [rng.standard_normal(block.shape) for block in z]
    step = 1e-5

    def along(h):
        return contrast(covariance_blocks([block + h * v for block, v in zip(z, direction)],
                                          gamma=gamma)).value

    def central(h):
        return (along(h) - along(-h)) / (2.0 * h)

    reference = (4.0 * central(step / 2) - central(step)) / 3.0
    analytic = float(np.sum(grad * np.vstack(direction)))
    assert abs(analytic - reference) <= 1e-5 * abs(reference) + 1e-8


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
    mu = solve_pencil(covariance_blocks(z, gamma=0.01))
    assert np.all(mu > 0)
    assert abs(mu.sum() - mu.size) < 1e-6
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
    np.testing.assert_allclose(spectrum, expected, atol=1e-10)


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
    assert abs(rcc(pencil).value - (-0.5 * np.log(1.0 - rho_direct))) < 1e-8


def test_rcc_independent_baseline():
    rng = np.random.default_rng(9)
    half = np.sqrt(3)
    z = [features(rng.uniform(-half, half, 2000), 200, seed=1),
         features(rng.uniform(-half, half, 2000), 200, seed=2)]
    assert rcc(covariance_blocks(z, gamma=0.02)).value <= 0.1


def test_rcc_blows_up_for_identical_variable():
    rng = np.random.default_rng(4)
    z = features(rng.standard_normal(800), 100, seed=11)
    assert rcc(covariance_blocks([z, z.copy()], gamma=1e-3)).value >= 1.0


def test_rgv_independent_baseline():
    rng = np.random.default_rng(10)
    half = np.sqrt(3)
    z = [features(rng.uniform(-half, half, 2000), 200, seed=3),
         features(rng.uniform(-half, half, 2000), 200, seed=4)]
    assert rgv(covariance_blocks(z, gamma=0.02)).value <= 0.2


def test_rgv_dominates_rcc_under_perfect_dependence():
    rng = np.random.default_rng(4)
    z = features(rng.standard_normal(800), 100, seed=11)
    pencil = covariance_blocks([z, z.copy()], gamma=1e-3)
    assert rgv(pencil).value >= rcc(pencil).value


def test_contrasts_nonnegative():
    rng = np.random.default_rng(41)
    for s in range(5):
        x = rng.standard_normal(300)
        y = rng.standard_normal(300) if s % 2 else 0.3 * x + rng.standard_normal(300)
        z = [features(x, 30, seed=s), features(y, 30, seed=50 + s)]
        pencil = covariance_blocks(z, gamma=0.01)
        assert rcc(pencil).value >= -1e-9
        assert rgv(pencil).value >= -1e-9


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_permutation_invariance(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(500)
    y = 0.4 * x + rng.standard_normal(500)
    w = rng.standard_normal(500)
    z = [features(x, 20, seed=1), features(y, 20, seed=2), features(w, 20, seed=3)]
    for contrast in (rcc, rgv):
        base = contrast(covariance_blocks(z, gamma=0.02)).value
        for order in ([2, 0, 1], [1, 0, 2]):
            permuted = covariance_blocks([z[k] for k in order], gamma=0.02)
            assert abs(contrast(permuted).value - base) < 1e-9


def test_rcc_nondecreasing_in_dependence():
    def mean_rcc(alpha):
        values = []
        for s in range(3):
            rng = np.random.default_rng(50 + s)
            a = rng.standard_normal(2000)
            b = alpha * a + np.sqrt(1 - alpha**2) * rng.standard_normal(2000)
            values.append(rcc(covariance_blocks([features(a, 100, seed=60 + s),
                                                 features(b, 100, seed=70 + s)],
                                                gamma=0.02)).value)
        return np.mean(values)

    v0, v5, v9 = mean_rcc(0.0), mean_rcc(0.5), mean_rcc(0.9)
    assert v0 <= v5 <= v9


def _identical_features():
    z = features(np.random.default_rng(1).uniform(-1.7, 1.7, 2000), 50, seed=3)
    return [z, z.copy()]


def _identical_variables():
    x = np.random.default_rng(8).uniform(-1, 1, 400)
    return np.vstack([x, x])


@pytest.mark.parametrize("contrast, reason", [
    # 1 - rho underflows the floor
    (lambda: rcc(covariance_blocks(_identical_features(), gamma=1e-13)), "below the floor"),
    # a squared pivot of the normalized pencil, 8.1e-14, is below the floor
    (lambda: rgv(covariance_blocks(_identical_features(), gamma=1e-15)), "below the floor"),
    (lambda: rcc(covariance_blocks(_identical_features(), gamma=1e-20)), "not positive definite"),
    (lambda: rgv(covariance_blocks(_identical_features(), gamma=1e-20)), "not positive definite"),
    (lambda: kcc_oracle(_identical_variables(), KERNEL, kappa=1e-14), "below the floor"),
    (lambda: kgv_oracle(_identical_variables(), KERNEL, kappa=1e-14), "below the floor"),
], ids=["rcc", "rgv", "rcc_cholesky", "rgv_cholesky", "kcc_oracle", "kgv_oracle"])
def test_singular_pencil_raises(contrast, reason):
    with pytest.raises(SingularDiagonal, match=f"{reason}.*increase gamma"):
        contrast()


def test_kcc_oracle_identical_variable():
    assert kcc_oracle(_identical_variables(), KERNEL, kappa=0.02) >= 1.0


def test_kernel_oracles_independent_baselines():
    rng = np.random.default_rng(11)
    x, y = rng.standard_normal(500), rng.standard_normal(500)
    assert kcc_oracle(np.vstack([x, y]), KERNEL, kappa=0.02) <= 0.1
    assert kgv_oracle(np.vstack([x, y]), KERNEL, kappa=0.02) <= 0.3


def test_kernel_oracle_size_cap():
    with pytest.raises(OracleSizeExceeded):
        kgv_oracle(np.zeros((2, KERNEL_ORACLE_LIMIT + 1)), KERNEL, kappa=0.02)


def test_kernel_oracle_requires_positive_kappa():
    # NaN and inf once ended in a bare LinAlgError; 1e308 overflows N kappa / 2
    x = np.random.default_rng(0).standard_normal(50)
    for oracle in (kcc_oracle, kgv_oracle):
        for kappa in (0.0, np.nan, np.inf, 1e308):
            with pytest.raises(SingularDiagonal):
                oracle(np.vstack([x, x]), KERNEL, kappa=kappa)


def test_rcc_approaches_kcc_with_many_features():
    rng = np.random.default_rng(42)
    n = 256
    x = rng.standard_normal(n)
    y = 0.7 * x + 0.714 * rng.standard_normal(n)
    target = rho(kernel_pencil_spectrum(np.vstack([x, y]), KERNEL, kappa=0.002))

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
    target = kgv_oracle(np.vstack([x, y]), KERNEL, kappa=0.002)

    def mean_gap(m):
        gaps = []
        for s in range(3):
            z = [features(x, m, seed=1000 + s), features(y, m, seed=5000 + s)]
            gaps.append(abs(rgv(covariance_blocks(z, gamma=0.002)).value - target))
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
        values.append(kgv_oracle(q @ mixed, KERNEL, kappa=0.02))
    best = np.rad2deg(angles[int(np.argmin(values))])
    expected = (-25.0) % 90.0
    distance = min(abs(best - expected), 90.0 - abs(best - expected))
    assert distance <= 10.0
    assert 0.0 < best < 90.0  # interior minimum
