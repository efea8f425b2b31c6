import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rica.data_model import Dataset, mix, random_mixing_matrix, whiten
from rica.errors import NoProgress
from rica.evaluation import amari_distance
from rica.optimizer import (Objective, OptimizerConfig, descend, expm_skew, fastica_baseline,
                            finite_diff_gradient, make_objective, minimize_contrast,
                            plane_rotation)
from rica.source_bank import sample_source, spec_by_label


def rotation(theta):
    return plane_rotation(2, 0, 1, theta)


def random_skew(n, rng):
    a = rng.standard_normal((n, n))
    return a - a.T


def uniform_pair(n, seed):
    spec = spec_by_label("c")
    return Dataset(np.vstack([sample_source(spec, n, seed=seed),
                              sample_source(spec, n, seed=seed + 1000)]))


def whitened_uniform_pair(n, seed):
    out, _ = whiten(uniform_pair(n, seed))
    return out


def test_expm_skew_zero_is_identity():
    np.testing.assert_allclose(expm_skew(np.zeros((3, 3))), np.eye(3), atol=1e-15)


def test_plane_rotation_quarter_turn():
    q = plane_rotation(2, 0, 1, np.pi / 2)
    np.testing.assert_allclose(q, [[0.0, -1.0], [1.0, 0.0]], atol=1e-15)


def test_expm_skew_orthogonal_det_one():
    rng = np.random.default_rng(3)
    for n in (2, 3, 6):
        q = expm_skew(random_skew(n, rng))
        np.testing.assert_allclose(q @ q.T, np.eye(n), atol=1e-12)
        assert abs(np.linalg.det(q) - 1.0) < 1e-10


def test_expm_skew_matches_plane_rotations():
    # exp of one plane generator is that plane's rotation; exp(A) exp(-A) = I
    rng = np.random.default_rng(8)
    for n in (2, 3, 5):
        for i, j in zip(*np.triu_indices(n, 1)):
            theta = rng.uniform(-np.pi, np.pi)
            gen = np.zeros((n, n))
            gen[j, i], gen[i, j] = theta, -theta
            np.testing.assert_allclose(expm_skew(gen), plane_rotation(n, i, j, theta),
                                       atol=1e-12)
        a = random_skew(n, rng)
        np.testing.assert_allclose(expm_skew(a) @ expm_skew(-a), np.eye(n), atol=1e-12)


def test_objective_lower_at_truth_than_at_45_degrees():
    diffs = []
    for seed in (1, 2, 3):
        data = whitened_uniform_pair(2000, seed=10 * seed)
        config = OptimizerConfig(seed=seed, contrast="rgv")
        objective = make_objective(data, config)
        at_truth = objective(rotation(0.0))
        at_45 = objective(rotation(np.pi / 4))
        diffs.append(at_45 - at_truth)
    assert np.mean(diffs) > 0


def test_objective_invariant_under_half_turn():
    data = whitened_uniform_pair(500, seed=4)
    objective = make_objective(data, OptimizerConfig(seed=11, contrast="rgv", m=64))
    for theta in (0.3, -1.2):
        a = objective(rotation(theta))
        b = objective(rotation(theta + np.pi))
        assert abs(a - b) < 1e-9


def test_objective_repeatable_with_frozen_maps():
    data = whitened_uniform_pair(400, seed=5)
    config = OptimizerConfig(seed=21, contrast="rcc", m=64)
    q = rotation(0.7)
    assert make_objective(data, config)(q) == make_objective(data, config)(q)


def test_objective_rejects_unwhitened_data():
    raw = uniform_pair(500, seed=6)
    scaled = Dataset(raw.values * np.array([[3.0], [1.0]]))
    with pytest.raises(ValueError):
        make_objective(scaled, OptimizerConfig(seed=0))(rotation(0.0))


def test_gradient_flat_when_gamma_huge():
    data = whitened_uniform_pair(500, seed=7)
    config = OptimizerConfig(seed=3, contrast="rgv", m=64, gamma=1e6)
    grad = finite_diff_gradient(rotation(0.4), data, config)
    assert np.abs(grad).max() <= 1e-6


def test_gradient_step_halving_consistency():
    data = whitened_uniform_pair(800, seed=8)
    cfg = OptimizerConfig(seed=9, contrast="rgv", m=64)
    q = rotation(0.5)
    grads = {}
    for step in (1e-3, 5e-4, 2.5e-4):
        grads[step] = finite_diff_gradient(q, data, cfg, step=step)[0]
    err_h = abs(grads[1e-3] - grads[5e-4])        # ~ (3/4) C h^2
    err_h2 = abs(grads[5e-4] - grads[2.5e-4])     # ~ (3/16) C h^2
    assert err_h2 <= 0.5 * err_h + 1e-8


def test_gradient_small_at_located_minimum():
    data = whitened_uniform_pair(1500, seed=9)
    config = OptimizerConfig(seed=13, contrast="rgv", tol=1e-7, restarts=1)
    model = minimize_contrast(data, config)
    grad = finite_diff_gradient(model.rotation, data, config)
    assert np.linalg.norm(grad) <= 1e-3


def test_descend_raises_no_progress_on_adversarial_kink():
    # finite differences point uphill at this kink, so no step can decrease f
    class Kink(Objective):
        def __call__(self, q):
            theta = np.arctan2(q[1, 0], q[0, 0])
            return 2.0 * abs(theta) - 0.1 * theta

    with pytest.raises(NoProgress):
        descend(Kink(), np.eye(2), tol=1e-8, max_iters=5)


def test_descend_stops_at_a_start_stationary_to_rounding():
    # slopes of rounding size at an exact minimum are convergence, not NoProgress
    class Bowl(Objective):
        def __call__(self, q):
            return np.arctan2(q[1, 0], q[0, 0]) ** 2

        def slopes(self, q):
            return np.array([1e-14])

    q, value, iterations, _ = descend(Bowl(), np.eye(2), tol=1e-8, max_iters=5)
    assert iterations == 0 and value == 0.0
    np.testing.assert_array_equal(q, np.eye(2))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 3, 4]),
       gamma=st.floats(1e-3, 1e-1), contrast=st.sampled_from(["rgv", "rcc"]))
def test_slopes_match_finite_differences(seed, n, gamma, contrast):
    rng = np.random.default_rng(seed)
    data, _ = whiten(Dataset(rng.uniform(-1.0, 1.0, (n, 400))))
    q = expm_skew(random_skew(n, rng))
    config = OptimizerConfig(seed=seed, contrast=contrast, m=32, gamma=gamma)
    objective = make_objective(data, config)
    objective(q)  # the slopes reuse this evaluation, as in `descend`
    slopes = objective.slopes(q)
    reference = finite_diff_gradient(q, data, config)
    assert np.linalg.norm(slopes - reference) <= 1e-5 * np.linalg.norm(reference) + 1e-8


def test_slopes_do_not_depend_on_the_last_evaluation():
    data = whitened_uniform_pair(500, seed=3)
    for contrast in ("rgv", "rcc"):
        objective = make_objective(data, OptimizerConfig(seed=4, contrast=contrast, m=32))
        objective(rotation(0.3))
        reused = objective.slopes(rotation(0.3))
        objective(rotation(1.1))
        np.testing.assert_array_equal(objective.slopes(rotation(0.3)), reused)


def test_minimize_contrast_uniform_pair_50_trials():
    # uniform + uniform mixtures, N=1000, RGV defaults: amari <= 0.10 in >= 90%
    failures = 0
    for seed in range(50):
        sources = uniform_pair(1000, seed=20000 + 31 * seed)
        a_mat = random_mixing_matrix(2, 1.0, 2.0, seed=seed)
        whitened, transform = whiten(mix(sources, a_mat))
        config = OptimizerConfig(seed=seed, contrast="rgv")
        model = minimize_contrast(whitened, config, whitening=transform)
        err = amari_distance(model.full_matrix(), np.linalg.inv(a_mat))
        failures += err > 0.10
    assert failures <= 5


def test_minimize_contrast_given_init_at_truth():
    # identity mixing: the only estimation error left is whitening noise,
    # which needs N large enough to sit inside the 0.02 Amari budget
    whitened, transform = whiten(uniform_pair(4000, seed=77))
    config = OptimizerConfig(seed=2, contrast="rgv", restarts=1)
    objective = make_objective(whitened, config)
    start_value = objective(np.eye(2))
    q, value, _, _ = descend(objective, np.eye(2), config.tol, config.max_iters)
    assert value <= start_value + config.tol
    assert amari_distance(q @ transform.matrix, np.eye(2)) <= 0.02


def test_minimize_contrast_trace_monotone_nonincreasing():
    whitened, _ = whiten(uniform_pair(800, seed=31))
    model = minimize_contrast(whitened, OptimizerConfig(seed=5, restarts=1))
    trace = np.asarray(model.objective_trace)
    assert np.all(np.diff(trace) <= 0)


def test_minimize_contrast_deterministic():
    whitened, _ = whiten(uniform_pair(600, seed=32))
    config = OptimizerConfig(seed=17, restarts=2, m=64)
    a = minimize_contrast(whitened, config)
    b = minimize_contrast(whitened, config)
    np.testing.assert_array_equal(a.rotation, b.rotation)
    assert a.final_contrast == b.final_contrast
    assert a.iterations == b.iterations
    assert a.restart_index == b.restart_index


def test_minimize_contrast_equivariant_to_known_rotation():
    whitened, _ = whiten(uniform_pair(1500, seed=33))
    config = OptimizerConfig(seed=23, contrast="rgv")
    base = minimize_contrast(whitened, config)
    theta = 0.6
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    rotated = Dataset(rot @ whitened.values)
    shifted = minimize_contrast(rotated, config)
    q_base = base.rotation
    q_shifted = shifted.rotation
    assert amari_distance(q_shifted @ rot, q_base) <= 0.05


def test_fastica_accuracy_uniform_plus_laplace():
    errors = []
    for seed in range(100):
        rows = np.vstack([sample_source(spec_by_label("c"), 1000, seed=40000 + seed),
                          sample_source(spec_by_label("b"), 1000, seed=50000 + seed)])
        a_mat = random_mixing_matrix(2, 1.0, 2.0, seed=seed)
        whitened, transform = whiten(mix(Dataset(rows), a_mat))
        result = fastica_baseline(whitened, seed=seed)
        full = result.rotation @ transform.matrix
        errors.append(amari_distance(full, np.linalg.inv(a_mat)))
    mean_x100 = 100.0 * np.mean(errors)
    assert 3.0 <= mean_x100 <= 12.0


def test_fastica_returns_orthogonal_rotation():
    whitened, _ = whiten(uniform_pair(800, seed=34))
    result = fastica_baseline(whitened, seed=1)
    q = result.rotation
    assert np.linalg.norm(q @ q.T - np.eye(2)) <= 1e-8


def test_fastica_two_gaussians_flagged_or_useless():
    rng = np.random.default_rng(35)
    data = Dataset(rng.standard_normal((2, 2000)))
    whitened, _ = whiten(data)
    result = fastica_baseline(whitened, seed=3)
    # unidentifiable: either the convergence flag trips or the answer is
    # no better than an arbitrary rotation
    arbitrary = amari_distance(result.rotation, np.eye(2))
    assert (not result.converged) or arbitrary > 0.1


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_objective_invariant_under_component_sign_flips(seed):
    # the antithetic feature phases make this exact; it is why a fit may end
    # anywhere on O(n), not only on SO(n). With f(DQ) = f(Q) for D = diag(d),
    # D E_ij D = d_i d_j E_ij gives slopes_ij(DQ) = d_i d_j slopes_ij(Q).
    rng = np.random.default_rng(seed)
    data, _ = whiten(Dataset(rng.uniform(-1.0, 1.0, (3, 500))))
    q = expm_skew(random_skew(3, rng))
    i, j = np.triu_indices(3, 1)
    for contrast in ("rgv", "rcc"):
        config = OptimizerConfig(seed=12, contrast=contrast, m=64)
        objective = make_objective(data, config)
        base = objective(q)
        base_slopes = objective.slopes(q)
        for signs in ([-1, 1, 1], [1, -1, -1], [-1, -1, -1]):
            d = np.array(signs, dtype=float)
            flipped = objective(np.diag(d) @ q)
            assert abs(flipped - base) <= 1e-10
            np.testing.assert_allclose(objective.slopes(np.diag(d) @ q),
                                       d[i] * d[j] * base_slopes, rtol=0.0, atol=1e-10)


def test_minimize_contrast_separates_three_sources():
    errors, fastica_errors = [], []
    for seed in range(4):
        rows = np.vstack([sample_source(spec_by_label(label), 1000, seed=60000 + 10 * seed + k)
                          for k, label in enumerate("cbc")])
        a_mat = random_mixing_matrix(3, 1.0, 2.0, seed=seed)
        whitened, transform = whiten(mix(Dataset(rows), a_mat))
        truth = np.linalg.inv(a_mat)
        model = minimize_contrast(whitened, OptimizerConfig(seed=seed, m=64, restarts=1),
                                  whitening=transform)
        q = model.rotation
        np.testing.assert_allclose(q @ q.T, np.eye(3), atol=1e-10)
        errors.append(amari_distance(model.full_matrix(), truth))
        fastica = fastica_baseline(whitened, seed=seed).rotation @ transform.matrix
        fastica_errors.append(amari_distance(fastica, truth))
    print(f"3 sources: mean Amari RGV={np.mean(errors):.3f} FastICA={np.mean(fastica_errors):.3f}")
    assert np.mean(errors) <= 0.10
    assert np.mean(errors) <= np.mean(fastica_errors)
