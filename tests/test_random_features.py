import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.chebyshev import chebder

from helpers import chebyshev_rows
from rica.contrast_engine import CovariancePencil, rcc, rgv
from rica.data_model import Dataset, mix, random_mixing_matrix, whiten
from rica.optimizer import OptimizerConfig, draw_objective_maps, make_objective
from rica.random_features import (ChebyshevBasis, FeatureMap, KernelSpec, apply_feature_map,
                                  approximation_error_bound, chebyshev_coefficients,
                                  chebyshev_degree, chebyshev_derivative, draw_feature_map,
                                  empirical_approx_error, gram_matrix, operator_norm)
from rica.source_bank import sample_source, spec_by_label


def gaussian_kernel(x, y, sigma=1.0):
    return np.exp(-((x - y) ** 2) / (2 * sigma**2))


def test_kernel_spec_rejects_bad_sigma():
    with pytest.raises(ValueError):
        KernelSpec(sigma=0.0)


def test_draw_feature_map_shapes_and_phase_range():
    fmap = draw_feature_map(KernelSpec(sigma=1.0), m=3, seed=42)
    assert fmap.frequencies.shape == (3,)
    assert fmap.phases.shape == (3,)
    assert np.all((0.0 <= fmap.phases) & (fmap.phases < 2 * np.pi))


def test_draw_feature_map_sigma_scale_equivariance():
    one = draw_feature_map(KernelSpec(sigma=1.0), m=64, seed=5)
    two = draw_feature_map(KernelSpec(sigma=2.0), m=64, seed=5)
    np.testing.assert_allclose(two.frequencies, one.frequencies / 2.0)
    np.testing.assert_array_equal(two.phases, one.phases)


def test_frequency_std_matches_spectral_density():
    fmap = draw_feature_map(KernelSpec(sigma=1.0), m=10000, seed=8)
    assert 0.95 <= fmap.frequencies.std() <= 1.05


def test_apply_feature_map_zero_frequencies_gives_constant():
    m = 5
    fmap = FeatureMap(frequencies=np.zeros(m), phases=np.zeros(m))
    out = apply_feature_map(fmap, np.array([0.3, -2.0, 11.0]))
    np.testing.assert_allclose(out, np.sqrt(2.0 / m))


def test_apply_feature_map_entry_bound():
    rng = np.random.default_rng(3)
    fmap = draw_feature_map(KernelSpec(sigma=0.7), m=40, seed=1)
    out = apply_feature_map(fmap, rng.standard_normal(200))
    assert np.abs(out).max() <= np.sqrt(2.0 / 40) + 1e-15


def test_feature_inner_product_approximates_kernel():
    fmap = draw_feature_map(KernelSpec(sigma=1.0), m=5000, seed=21)
    z = apply_feature_map(fmap, np.array([0.3, 1.1]))
    value = float(z[:, 0] @ z[:, 1])
    assert abs(value - gaussian_kernel(0.3, 1.1)) <= 0.05  # exact value 0.7261


def test_feature_inner_product_unbiased_over_seeds():
    rng = np.random.default_rng(12)
    pairs = rng.standard_normal((20, 2))
    kernel = KernelSpec(sigma=1.0)
    for x, y in pairs:
        estimates = []
        for seed in range(50):
            fmap = draw_feature_map(kernel, m=200, seed=1000 + seed)
            z = apply_feature_map(fmap, np.array([x, y]))
            estimates.append(float(z[:, 0] @ z[:, 1]))
        estimates = np.asarray(estimates)
        stderr = estimates.std(ddof=1) / np.sqrt(len(estimates))
        assert abs(estimates.mean() - gaussian_kernel(x, y)) <= 3.0 * stderr + 1e-12


def test_gram_matrix_single_point_and_known_value():
    kernel = KernelSpec(sigma=1.0)
    np.testing.assert_allclose(gram_matrix(kernel, np.array([0.7])), [[1.0]])
    gram = gram_matrix(kernel, np.array([0.0, 1.0]))
    assert abs(gram[0, 1] - np.exp(-0.5)) < 1e-12  # 0.6065


def test_gram_matrix_symmetric_psd_unit_diagonal():
    # (x_a - x_b)^2 is exactly symmetric and exactly 0 on the diagonal
    rng = np.random.default_rng(17)
    gram = gram_matrix(KernelSpec(sigma=0.8), rng.standard_normal(300))
    np.testing.assert_array_equal(gram, gram.T)
    np.testing.assert_array_equal(np.diag(gram), 1.0)
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


def test_operator_norm_of_a_zero_matrix_is_zero():
    # the first product is 0, so the iteration stops before dividing by it
    assert operator_norm(np.zeros((5, 5)), seed=1) == 0.0


def test_empirical_error_nonnegative_and_converges():
    rng = np.random.default_rng(31)
    samples = rng.standard_normal(200)
    kernel = KernelSpec(sigma=1.0)
    err = empirical_approx_error(kernel, samples, m=10**5, seed=6)
    assert 0.0 <= err <= 0.5


def test_empirical_error_decreases_with_m_on_average():
    rng = np.random.default_rng(37)
    samples = rng.standard_normal(500)
    kernel = KernelSpec(sigma=1.0)
    small = np.mean([empirical_approx_error(kernel, samples, 100, seed=s) for s in range(10)])
    large = np.mean([empirical_approx_error(kernel, samples, 400, seed=s) for s in range(10)])
    assert large < small


def antithetic_map(m_half, seed, sigma=0.8):
    """A map whose row k + m_half pairs row k: (w, b) and (w, 2 pi - b)."""
    base = draw_feature_map(KernelSpec(sigma=sigma), m=m_half, seed=seed)
    return FeatureMap(frequencies=np.concatenate([base.frequencies, base.frequencies]),
                      phases=np.concatenate([base.phases, 2.0 * np.pi - base.phases]))


def rounding_bound(fmap, radius):
    """What the interpolant's error may reach: 1e-14, plus four times the
    rounding of the features' own argument, a unit in the last place of
    |w y| <= radius max|w| scaled by their amplitude sqrt(2/m). Interpolation
    passes the rounding of its node values on, multiplied by its Lebesgue
    constant (about 4 at the degrees here)."""
    bandwidth = radius * np.abs(fmap.frequencies).max()
    return 1e-14 + 4.0 * np.finfo(float).eps * bandwidth * np.sqrt(2.0 / fmap.m)


def interpolant(basis, fmap, rows):
    """sum_k c_k T_k over the rows T_1..T_d of one component, with T_0 = 1."""
    coefficients = chebyshev_coefficients(fmap, basis.radius, basis.degree)
    return coefficients[:, :1] + coefficients[:, 1:] @ rows


def test_chebyshev_basis_expands_to_the_features():
    # the rows are T_1..T_d(y / radius); with the interpolation coefficients C
    # they give the features, R^T R = C'^T C' for C' = C without its constant
    # column, and expand is the adjoint of compress, which applies R on both sides
    rng = np.random.default_rng(11)
    maps = [antithetic_map(8, seed=s) for s in (1, 2, 3)]
    y = 2.0 * rng.standard_normal((3, 40))
    radius = float(np.sqrt((y * y).sum(axis=0).max()))
    basis = ChebyshevBasis(maps, radius)
    d = basis.degree
    rows = chebyshev_rows(basis, y).reshape(3, d, 40)
    angles = np.arccos(y[0] / radius)
    np.testing.assert_allclose(rows[0], np.cos(np.outer(np.arange(1, d + 1), angles)),
                               rtol=0.0, atol=1e-13)
    for i, fmap in enumerate(maps):
        np.testing.assert_allclose(interpolant(basis, fmap, rows[i]),
                                   apply_feature_map(fmap, y[i]),
                                   rtol=0.0, atol=rounding_bound(fmap, radius))
        coefficients = chebyshev_coefficients(fmap, radius, d)[:, 1:]
        np.testing.assert_allclose(basis.factors[i].T @ basis.factors[i],
                                   coefficients.T @ coefficients, rtol=0.0, atol=1e-13)
    size = 3 * basis.factors.shape[1]
    weights = rng.standard_normal((size, size))
    weights += weights.T
    s = rng.standard_normal((3 * d, 3 * d))
    s += s.T
    np.testing.assert_allclose(np.sum(weights * basis.compress(s)),
                               np.sum(basis.expand(weights) * s),
                               rtol=1e-13, atol=0.0)


@settings(max_examples=24, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 3]),
       size=st.sampled_from([(200, 1.0), (32, 0.25)]))  # (m, sigma); d > m at sigma 0.25
def test_rank_r_basis_gives_the_contrasts_of_the_full_factor(seed, n, size):
    # R_i keeps the leading r rows of C'_i's QR, the rest being within
    # max(m, d) eps ||R_i|| in the Frobenius norm. The contrasts and slopes at
    # a seeded rotation match those of a basis holding every row of each R_i.
    # RGV's value is a difference of log-dets of size about n d |log gamma|,
    # and the full factor's n (d - r) extra rows add as many terms log gamma,
    # which cancel to that sum's rounding. A slope G_ij - G_ji near a
    # stationary rotation is a difference of two much larger terms, so it is
    # bounded by their size
    m, sigma = size
    labels = ("c", "b", "e")[:n]
    sources = np.vstack([sample_source(spec_by_label(label), 500, seed=seed % 1000 + 7 * k)
                         for k, label in enumerate(labels)])
    data, _ = whiten(mix(Dataset(sources), random_mixing_matrix(n, 1.0, 2.0, seed=seed % 997)))
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q *= np.sign(np.diag(r))
    i, j = np.triu_indices(n, 1)
    for contrast in ("rgv", "rcc"):
        config = OptimizerConfig(seed=seed, m=m, sigma=sigma, contrast=contrast)
        truncated, full = make_objective(data, config), make_objective(data, config)
        basis = full.basis
        factors = [np.linalg.qr(chebyshev_coefficients(fmap, basis.radius, basis.degree)[:, 1:],
                                mode="r") for fmap in draw_objective_maps(config, n)]
        basis.factors = np.stack(factors)
        d, rank = basis.degree, truncated.basis.factors.shape[1]
        assert rank <= min(m, d)
        for factor, kept in zip(factors, truncated.basis.factors):
            np.testing.assert_array_equal(kept, factor[:rank])
            tol = max(m, d) * np.finfo(float).eps * np.linalg.norm(factor)
            assert np.linalg.norm(factor[rank:]) <= tol
        value, reference = truncated(q), full(q)
        rounding = 4.0 * n * d * np.finfo(float).eps * abs(np.log(config.gamma))
        assert abs(value - reference) <= 1e-12 * abs(reference) + (
            rounding if contrast == "rgv" else 0.0)
        terms = []
        moments_of = basis.derivative_moments

        def keeping_g(*args):
            terms.append(moments_of(*args))
            return terms[-1]

        basis.derivative_moments = keeping_g
        slopes, reference = truncated.slopes(q), full.slopes(q)
        g = np.abs(terms[0])
        assert np.all(np.abs(slopes - reference) <= 1e-12 * (g[i, j] + g[j, i]))


def test_chebyshev_basis_rejects_maps_of_unequal_size():
    with pytest.raises(ValueError):
        ChebyshevBasis([antithetic_map(4, seed=1), antithetic_map(5, seed=2)], radius=3.0)


def test_chebyshev_basis_rejects_components_beyond_its_radius():
    basis = ChebyshevBasis([antithetic_map(4, seed=1), antithetic_map(4, seed=2)], radius=2.0)
    basis.row_moments(np.array([[2.0, -2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="basis radius"):
        basis.row_moments(np.array([[2.0 * (1 + 1e-11), 0.0], [0.0, 1.0]]))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), sigma=st.sampled_from([0.5, 1.0, 2.0]),
       radius=st.floats(0.5, 30.0), m=st.sampled_from([16, 200]))
def test_degree_rule_interpolant_matches_the_features(seed, sigma, radius, m):
    # on a grid that includes both ends of [-radius, radius]
    fmap = draw_feature_map(KernelSpec(sigma=sigma), m=m, seed=seed)
    basis = ChebyshevBasis([fmap], radius)
    y = radius * np.linspace(-1.0, 1.0, 401)
    error = interpolant(basis, fmap, chebyshev_rows(basis, y[None])) - apply_feature_map(fmap, y)
    assert np.abs(error).max() <= rounding_bound(fmap, radius)


def test_chebyshev_degree_rule():
    # the smallest d >= 1 with d + 1 > a and 2 (a/2)^(d+1) / (d+1)! <= 2^-52
    assert chebyshev_degree(0.0) == 1
    for bandwidth in (0.3, 1.0, 7.5, 20.0, 60.0):
        degree = chebyshev_degree(bandwidth)
        tail = [2.0 * np.exp((k + 1) * np.log(bandwidth / 2.0) - math.lgamma(k + 2))
                for k in (degree - 1, degree)]
        assert degree + 1 > bandwidth and tail[1] <= 2.0**-52
        assert degree == 1 or degree <= bandwidth or tail[0] > 2.0**-52


def test_derivative_matrix_matches_central_differences():
    # D [T_0..T_(d-1)](t) against central differences of T_1..T_d(t); the
    # rows depend on t alone, so one shift differentiates every column
    rng = np.random.default_rng(12)
    basis = ChebyshevBasis([antithetic_map(8, seed=4), antithetic_map(8, seed=5)], radius=4.0)
    d = basis.degree
    y = rng.standard_normal((2, 30))
    step = 1e-6
    for i in range(2):
        # T_0..T_(d-1)
        lower = np.vstack([np.ones(30), chebyshev_rows(basis, y)[d * i:d * (i + 1) - 1]])
        shift = np.zeros((2, 1))
        shift[i] = step
        change = chebyshev_rows(basis, y + shift) - chebyshev_rows(basis, y - shift)
        np.testing.assert_allclose(basis.derivative @ lower / basis.radius,
                                   change[d * i:d * (i + 1)] / (2 * step), rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("degree", [1, 2, 3, 8, 45])
def test_derivative_matrix_rows_are_chebder_of_unit_vectors(degree):
    # D holds the exact integers 2k (k at a = 0); chebder rounds in its divisions
    derivative = chebyshev_derivative(degree)
    for k in range(1, degree + 1):
        np.testing.assert_allclose(derivative[k - 1], chebder(np.eye(degree + 1)[k]),
                                   rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("frequency_scale", [1e-9, 1e-7, 1e-4, 0.3, 3.0])  # d 1, 2, 4, ~20, ~65
def test_derivative_moments_equal_the_direct_sum(n, frequency_scale):
    # G_ij = E[t_j sum_k T_k'(t_i) (W Ubar)_ik] formed over the samples, with
    # T_k' from D, against the moment form taken from `row_moments`; the
    # diagonal is 0. At d = 1 and 2 the moments' Hankel index 2d and the
    # reflection T_(d+a) = 2 T_d T_a - T_(d-a) reach down to T_0
    rng = np.random.default_rng(n)
    maps = [FeatureMap(frequency_scale * rng.standard_normal(8), rng.uniform(0, 2 * np.pi, 8))
            for _ in range(n)]
    basis = ChebyshevBasis(maps, radius=4.0)
    d, size = basis.degree, 300
    assert d == {1e-9: 1, 1e-7: 2, 1e-4: 4}.get(frequency_scale, d)
    y = rng.uniform(-4.0, 4.0, (n, size))
    weights = rng.standard_normal((n * d, n * d))
    weights += weights.T
    row_moments = basis.row_moments(y)
    moments = basis.derivative_moments(row_moments, weights)
    rows = chebyshev_rows(basis, y)
    if n == 2:  # the tops, taken for the other component j = 1 - i only
        t, upper = y / basis.radius, rows.reshape(n, d, size)
        for top, vector in ((row_moments.partner_top, t[::-1] * upper[::-1, -1]),
                            (row_moments.own_top, upper[:, -1] * t[::-1])):
            direct = np.einsum("ian,in->ia", upper, vector) / size
            assert top.shape == (n, d)
            assert np.abs(top - direct).max() <= 1e-12 * np.abs(direct).max()
    centred = rows - rows.mean(axis=1, keepdims=True)
    lower = np.concatenate([np.ones((n, 1, size)), rows.reshape(n, d, size)[:, :-1]],
                           axis=1)  # T_0..T_(d-1)
    slopes = np.einsum("ka,ian->ikn", basis.derivative, lower)  # T_k'(t_i)
    direct = np.einsum("jn,ikn->ij", y / basis.radius,
                       slopes * (weights @ centred).reshape(n, d, size)) / size
    np.fill_diagonal(direct, 0.0)
    assert np.abs(moments - direct).max() <= 1e-12 * np.abs(direct).max()


def long_double_covariance(t, degree):
    """cov of T_1..T_d(t) for the rows of t, centred and summed in long double."""
    t = t.astype(np.longdouble)
    rows = np.empty((len(t), degree, t.shape[1]), dtype=np.longdouble)
    rows[:, 0] = t
    previous = 1
    for k in range(1, degree):
        rows[:, k] = 2 * t * rows[:, k - 1] - previous
        previous = rows[:, k - 1]
    rows -= rows.mean(axis=2, keepdims=True)
    covariance = np.empty((len(t), degree, len(t), degree), dtype=np.longdouble)
    for i in range(len(t)):
        for j in range(i, len(t)):
            covariance[i, :, j] = np.einsum("an,bn->ab", rows[i], rows[j]) / t.shape[1]
            covariance[j, :, i] = covariance[i, :, j].T
    return covariance.reshape(len(t) * degree, -1)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-18, reason="long double is no wider here")
@pytest.mark.parametrize("n, size", [(2, 1000), (2, 2048), (3, 1000), (3, 2048)])
def test_row_moments_covariance_against_a_long_double_gram(n, size):
    # S from moments and uncentred products, against the centred Gram of the
    # same t in long double, over 40 rotations of c,b data: entries within
    # 1e-12 of sqrt(S_aa S_bb); RGV within twice the worst error of the
    # centred product in double, RCC within 5e-14 relative
    labels = ("c", "b", "c")[:n]
    sources = np.vstack([sample_source(spec_by_label(label), size, seed=700 + k)
                         for k, label in enumerate(labels)])
    data, _ = whiten(mix(Dataset(sources), random_mixing_matrix(n, 1.0, 2.0, seed=n)))
    config = OptimizerConfig(seed=5)
    basis = make_objective(data, config).basis
    rng = np.random.default_rng(size + n)
    worst = {"entries": 0.0, "rgv": 0.0, "rgv centred": 0.0, "rcc": 0.0}
    for _ in range(40):
        q, r = np.linalg.qr(rng.standard_normal((n, n)))
        y = (q * np.sign(np.diag(r))) @ data.values
        covariance = basis.row_moments(y).covariance
        reference = long_double_covariance(y / basis.radius, basis.degree)
        scale = np.sqrt(np.outer(np.diag(reference), np.diag(reference)))
        error = float(np.max(np.abs(covariance - reference) / scale))
        worst["entries"] = max(worst["entries"], error)
        rows = chebyshev_rows(basis, y)
        rows -= rows.mean(axis=1, keepdims=True)
        centred = rows @ rows.T / size
        for contrast, forms in ((rgv, {"rgv": covariance, "rgv centred": centred}),
                                (rcc, {"rcc": covariance})):
            exact = contrast(CovariancePencil(basis.compress(reference.astype(float)),
                                              config.gamma, n)).value
            for name, form in forms.items():
                value = contrast(CovariancePencil(basis.compress(form), config.gamma, n)).value
                worst[name] = max(worst[name], abs(value - exact) / abs(exact))
    assert worst["entries"] <= 1e-12
    assert worst["rgv"] <= 2.0 * worst["rgv centred"]
    assert worst["rcc"] <= 5e-14
