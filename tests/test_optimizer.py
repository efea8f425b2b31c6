import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rica import optimizer
from rica.contrast_engine import covariance_blocks, rcc, rgv
from rica.data_model import Dataset, mix, random_mixing_matrix, whiten
from rica.errors import NoProgress
from rica.evaluation import BenchmarkConfig, amari_distance, run_benchmark
from rica.optimizer import (ARMIJO_C, BACKTRACK_MAX, BACKTRACK_MIN, FD_STEP, TOL,
                            OptimizerConfig, derive_seed, descend, draw_objective_maps,
                            expm_skew, fastica_baseline, finite_diff_gradient, make_objective,
                            minimize_contrast, plane_rotation)
from rica.random_features import apply_feature_map
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


def test_expm_skew_matches_plane_rotations(monkeypatch):
    # exp of one plane generator is that plane's rotation; exp(A) exp(-A) = I.
    # At n = 2 that rotation is the closed form, with no eigen-solve
    eigh = np.linalg.eigh

    def eigh_above_two(a, *args, **kwargs):
        assert len(a) > 2, "expm_skew took an eigen-solve at n = 2"
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", eigh_above_two)
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


@pytest.mark.parametrize("field, value", [("max_iters", 0), ("restarts", 0),
                                          ("contrast", "fastica")])
def test_optimizer_config_refuses_an_unusable_setting(field, value):
    with pytest.raises(ValueError):
        OptimizerConfig(**{field: value})


def test_gradient_small_at_located_minimum():
    # descended with a tol below TOL from the FastICA start minimize_contrast takes
    data = whitened_uniform_pair(1500, seed=9)
    config = OptimizerConfig(seed=13, contrast="rgv")
    start = fastica_baseline(data, seed=derive_seed(config.seed, 7310, 0)).rotation
    model = descend(make_objective(data, config), start, 1e-7, config.max_iters)
    grad = finite_diff_gradient(model.rotation, data, config)
    assert np.linalg.norm(grad) <= 1e-3


def test_descend_raises_no_progress_on_adversarial_kink():
    # finite differences point uphill at this kink, so no step can decrease f
    class Kink:
        def __call__(self, q):
            theta = np.arctan2(q[1, 0], q[0, 0])
            return 2.0 * abs(theta) - 0.1 * theta

        def slopes(self, q):
            return np.array([(self(rotation(FD_STEP) @ q) - self(rotation(-FD_STEP) @ q))
                             / (2.0 * FD_STEP)])

    with pytest.raises(NoProgress):
        descend(Kink(), np.eye(2), tol=1e-8, max_iters=5)


def test_descend_stops_at_a_start_stationary_to_rounding():
    # slopes of rounding size at an exact minimum are convergence, not NoProgress
    class Bowl:
        def __call__(self, q):
            return np.arctan2(q[1, 0], q[0, 0]) ** 2

        def slopes(self, q):
            return np.array([1e-14])

    model = descend(Bowl(), np.eye(2), tol=1e-8, max_iters=5)
    assert model.iterations == 0 and model.final_contrast == 0.0
    np.testing.assert_array_equal(model.rotation, np.eye(2))


def test_descend_stops_without_a_step_where_the_slopes_are_zero():
    class Flat:
        def __call__(self, q):
            return 1.0

        def slopes(self, q):
            return np.zeros(1)

    model = descend(Flat(), rotation(0.3), tol=1e-8, max_iters=5)
    assert model.iterations == 0 and model.objective_trace == (1.0,)


def test_minimize_contrast_raises_no_progress_when_every_restart_fails(monkeypatch):
    class Rising:
        """Each evaluation exceeds the last, so no line search finds a decrease."""

        def __init__(self):
            self.calls = 0

        def __call__(self, q):
            self.calls += 1
            return float(self.calls)

        def slopes(self, q):
            return np.ones(1)

    monkeypatch.setattr(optimizer, "make_objective", lambda whitened, config: Rising())
    with pytest.raises(NoProgress, match="every restart"):
        minimize_contrast(whitened_uniform_pair(200, seed=1), OptimizerConfig(restarts=2))


def angle(q):
    return float(np.arctan2(q[1, 0], q[0, 0]))


class AngleObjective:
    """f of the angle of a 2x2 rotation, with exact slopes df; records each angle evaluated."""

    def __init__(self, f, df):
        self.f, self.df, self.angles = f, df, []

    def __call__(self, q):
        self.angles.append(angle(q))
        return self.f(self.angles[-1])

    def slopes(self, q):
        return np.array([self.df(angle(q))])


def quadratic_steps(a, theta0, trials):
    """The steps t of trial angles on f = a theta^2 from theta0: theta0 - t 2 a theta0."""
    return [(theta0 - th) / (2.0 * a * theta0) for th in trials]


@pytest.mark.parametrize("a, backtrack", [
    (3.0, 1.0 / 6.0),  # the quadratic's minimiser 1 / (2 a), within [0.1, 0.5]
    (7.5, BACKTRACK_MIN),  # 1 / (2 a) = 1/15 is below the clamp 0.1
    (1.0 - ARMIJO_C / 2.0, BACKTRACK_MAX),  # 1 / (2 a) = 0.500025 is above the clamp 0.5
])
def test_descend_backtracks_to_the_minimiser_of_the_interpolating_quadratic(a, backtrack):
    # f = a theta^2 is a quadratic in the step t along the first search, so
    # after t = 1 is rejected (for every a > 1 - ARMIJO_C) the next trial is
    # exactly its minimiser 1 / (2 a), clamped to [BACKTRACK_MIN, BACKTRACK_MAX].
    # theta0 (1 - 2 a), the trial at t = 1, stays within (-pi, pi)
    theta0 = 0.2
    objective = AngleObjective(lambda th: a * th ** 2, lambda th: 2.0 * a * th)
    model = descend(objective, rotation(theta0), tol=1e-10, max_iters=10)
    start, *trials = objective.angles[:3]
    assert start == pytest.approx(theta0, abs=1e-15)
    np.testing.assert_allclose(quadratic_steps(a, theta0, trials), [1.0, backtrack], rtol=1e-12)
    assert model.objective_trace[1] == a * trials[1] ** 2  # accepted at its one evaluation
    if a == 3.0:  # the minimiser is the minimum
        assert abs(angle(model.rotation)) <= 1e-12


def test_descend_halves_after_a_trial_without_a_value():
    # f = 3 theta^2 is NaN beyond |theta| = 0.5, where t = 1 lands from 0.2:
    # the next trial is t / 2, as it is wherever the interpolating quadratic
    # has no positive curvature
    theta0 = 0.2
    objective = AngleObjective(lambda th: 3.0 * th ** 2 if abs(th) <= 0.5 else np.nan,
                               lambda th: 6.0 * th)
    descend(objective, rotation(theta0), tol=1e-10, max_iters=10)
    np.testing.assert_allclose(quadratic_steps(3.0, theta0, objective.angles[1:3]), [1.0, 0.5],
                               rtol=1e-12)
    assert optimizer._backtrack(1.0, -2.0, 1.0) == 0.5  # curvature -1


def test_descend_second_search_tries_the_secant_step():
    # f = a theta^2 with a = 7.5: the first search backtracks from 1 to the
    # clamp 0.1, short of the quadratic's minimiser 1 / (2 a), and the secant
    # of the slopes 2 a theta is then the exact step 1 / (2 a) to 0.
    # A trial step t from theta evaluates theta - t * 2 a theta.
    a, theta0 = 7.5, 0.2
    objective = AngleObjective(lambda th: a * th ** 2, lambda th: 2.0 * a * th)
    model = descend(objective, rotation(theta0), tol=1e-10, max_iters=10)
    trace = list(model.objective_trace)
    start, first, theta1, second = objective.angles[:4]
    assert start == pytest.approx(theta0, abs=1e-15)
    np.testing.assert_allclose(quadratic_steps(a, theta0, [first, theta1]), [1.0, 0.1],
                               rtol=1e-12)
    assert (theta1 - second) / (2.0 * a * theta1) == pytest.approx(1.0 / (2.0 * a), rel=1e-9)
    assert trace[1:3] == [a * theta1 ** 2, a * second ** 2]  # accepted at its one evaluation
    assert abs(angle(model.rotation)) <= 1e-12


def test_descend_falls_back_to_doubling_where_curvature_is_negative():
    # f = -k theta^2 on |theta| <= 1, walled in beyond by a steep quadratic.
    # From 0.4 the first search rejects t = 1 at 2.0, in the wall, where the
    # interpolating quadratic's minimiser is below the clamp 0.1, and accepts
    # t = 0.1 at 0.56, inside the concave stretch, where s'y < 0; the second
    # search then starts from min(1, 2t).
    k, wall = 2.0, 100.0

    def f(th):
        out = abs(th) - 1.0
        return -k * th ** 2 if out <= 0.0 else -k - 2.0 * k * out + wall * out ** 2

    def df(th):
        out = abs(th) - 1.0
        return -2.0 * k * th if out <= 0.0 else np.sign(th) * (-2.0 * k + 2.0 * wall * out)

    objective = AngleObjective(f, df)
    trace = descend(objective, rotation(0.4), tol=1e-10, max_iters=20).objective_trace
    theta1, second = objective.angles[2:4]
    assert theta1 == pytest.approx(0.56, abs=1e-12) and trace[1] == f(theta1)
    assert (theta1 - second) / df(theta1) == pytest.approx(0.2, rel=1e-9)
    assert np.all(np.diff(trace) <= 0)


class SearchCounter:
    """Passes an objective through, counting the evaluations after each slopes call."""

    def __init__(self, inner):
        self.inner, self.searches = inner, []

    def __call__(self, q):
        if self.searches:
            self.searches[-1] += 1
        return self.inner(q)

    def slopes(self, q):
        self.searches.append(0)
        return self.inner.slopes(q)


def test_line_searches_after_the_first_mostly_take_one_evaluation(monkeypatch):
    # criterion 5's first 20 RGV fits, counted rather than timed: starting each
    # search after the first from the Barzilai-Borwein step, the trial step is
    # nearly always accepted as it stands (halving from min(1, 2t) took 1.45)
    later = []

    def counting_descend(objective, start, tol, max_iters):
        counter = SearchCounter(objective)
        result = descend(counter, start, tol, max_iters)
        later.extend(counter.searches[1:])
        return result

    monkeypatch.setattr(optimizer, "descend", counting_descend)
    run_benchmark(BenchmarkConfig(labels=("c", "b"), N=1000, replicates=20,
                                  methods=("RGV",), master_seed=101))
    assert len(later) >= 20
    assert np.mean(later) <= 1.2


def test_fits_take_fewer_evaluations_than_halving(monkeypatch):
    # criterion 5's plan at master seed 101, counted rather than timed: the
    # first 20 fits per contrast took 4.15 (RGV) and 7.80 (RCC) evaluations
    # on average where a rejected trial was halved, and 3.95 and 6.25 where
    # it is the interpolating quadratic's minimiser; each bound is midway
    evaluations = {"rgv": [], "rcc": []}

    def counting_descend(objective, start, tol, max_iters):
        counter = SearchCounter(objective)
        result = descend(counter, start, tol, max_iters)
        # the start's evaluation comes before the first slopes call
        evaluations[objective.contrast.__name__].append(1 + sum(counter.searches))
        return result

    monkeypatch.setattr(optimizer, "descend", counting_descend)
    run_benchmark(BenchmarkConfig(labels=("c", "b"), N=1000, replicates=20,
                                  methods=("RGV", "RCC"), master_seed=101))
    assert len(evaluations["rgv"]) == len(evaluations["rcc"]) == 20
    assert np.mean(evaluations["rgv"]) <= 4.05
    assert np.mean(evaluations["rcc"]) <= 7.025


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 3, 4]),
       gamma=st.floats(1e-3, 1e-1), contrast=st.sampled_from(["rgv", "rcc"]))
@example(seed=534, n=2, gamma=0.09375, contrast="rcc")
@example(seed=760909, n=3, gamma=0.03125, contrast="rcc")
def test_slopes_match_finite_differences(seed, n, gamma, contrast):
    # The reference is the Richardson value (4 D(h/2) - D(h)) / 3 of the
    # central differences D: at h = FD_STEP alone their truncation error
    # reached 1.9e-5 of the slopes on the two pinned examples.
    rng = np.random.default_rng(seed)
    data, _ = whiten(Dataset(rng.uniform(-1.0, 1.0, (n, 400))))
    q = expm_skew(random_skew(n, rng))
    config = OptimizerConfig(seed=seed, contrast=contrast, m=32, gamma=gamma)
    objective = make_objective(data, config)
    objective(q)  # the slopes reuse this evaluation, as in `descend`
    slopes = objective.slopes(q)
    reference = (4.0 * finite_diff_gradient(q, data, config, step=FD_STEP / 2)
                 - finite_diff_gradient(q, data, config, step=FD_STEP)) / 3.0
    assert np.linalg.norm(slopes - reference) <= 1e-5 * np.linalg.norm(reference) + 1e-8


def feature_slopes(data, config, q):
    """Value and slopes of the configured contrast taken through the features
    themselves: -(1/N) M Zbar pulled back by d cos(wy + b)/dy = -w sin(wy + b)."""
    rotated = q @ data.values
    maps = draw_objective_maps(config, len(q))
    feats = [apply_feature_map(fmap, Dataset(rotated[i:i + 1])) for i, fmap in enumerate(maps)]
    evaluation = (rgv if config.contrast == "rgv" else rcc)(covariance_blocks(feats, config.gamma))
    centered = np.vstack(feats)
    centered -= centered.mean(axis=1, keepdims=True)
    weighted = (evaluation.weights() @ centered).reshape(len(q), -1, centered.shape[1])
    scale = np.sqrt(2.0 / maps[0].m) / rotated.shape[1]
    grad = np.stack([
        scale * (fmap.frequencies[:, 0] @ (np.sin(fmap.frequencies @ rotated[i:i + 1]
                                                  + fmap.phases[:, None]) * weighted[i]))
        for i, fmap in enumerate(maps)])
    a = grad @ rotated.T
    i, j = np.triu_indices(len(q), 1)
    return evaluation.value, a[j, i] - a[i, j]


@pytest.mark.parametrize("contrast", ["rgv", "rcc"])
@pytest.mark.parametrize("m", [15, 16])  # draw_objective_maps rounds 15 up to 16
@pytest.mark.parametrize("n", [2, 3, 4])
def test_trig_basis_changes_no_value(n, m, contrast):
    # the objective's Chebyshev basis against the features' own cosines; at
    # these m its degree exceeds m
    rng = np.random.default_rng(10 * n + m)
    data, _ = whiten(Dataset(rng.uniform(-1.0, 1.0, (n, 400))))
    q = expm_skew(random_skew(n, rng))
    config = OptimizerConfig(seed=n + m, contrast=contrast, m=m)
    objective = make_objective(data, config)
    value, slopes = objective(q), objective.slopes(q)
    reference_value, reference_slopes = feature_slopes(data, config, q)
    assert abs(value - reference_value) <= 1e-12 * abs(reference_value)
    assert np.linalg.norm(slopes - reference_slopes) <= 1e-10 * np.linalg.norm(reference_slopes)


def test_cosines_only_at_construction_none_per_evaluation_or_slopes(monkeypatch):
    # the objective's construction interpolates each component's m features at
    # d + 1 Chebyshev points, through the matrix cos(k theta_j): (d + 1)(d + 1 + m)
    # cosines per component; an evaluation and the slopes at the evaluated q
    # take no sine, cosine or tangent
    n, n_samples, m = 3, 500, 40
    evaluated = {"sin": 0, "cos": 0, "tan": 0}
    for name in evaluated:
        def counting(x, *args, _name=name, _original=getattr(np, name), **kwargs):
            evaluated[_name] += np.size(x)
            return _original(x, *args, **kwargs)

        monkeypatch.setattr(np, name, counting)
    rng = np.random.default_rng(2)
    data, _ = whiten(Dataset(rng.uniform(-1.0, 1.0, (n, n_samples))))
    q = expm_skew(random_skew(n, rng))
    for contrast in ("rgv", "rcc"):
        evaluated.update(sin=0, cos=0, tan=0)
        objective = make_objective(data, OptimizerConfig(seed=1, contrast=contrast, m=m))
        d = objective.basis.degree
        assert evaluated == {"sin": 0, "cos": n * (d + 1) * (d + 1 + m), "tan": 0}
        evaluated.update(cos=0)
        objective(q)
        assert evaluated == {"sin": 0, "cos": 0, "tan": 0}
        objective.slopes(q)
        assert evaluated == {"sin": 0, "cos": 0, "tan": 0}


def test_objective_rejects_a_rotation_that_leaves_the_basis_radius():
    # the interpolant holds on [-rho, rho], rho the largest sample norm, which
    # bounds every component of an orthogonal q but not of 1.5 I
    data = whitened_uniform_pair(500, seed=3)
    for contrast in ("rgv", "rcc"):
        objective = make_objective(data, OptimizerConfig(seed=4, contrast=contrast, m=32))
        with pytest.raises(ValueError):
            objective(1.5 * np.eye(2))


@pytest.mark.parametrize("contrast, n_samples, m, feature_path_peak", [
    ("rgv", 1000, 200, 2.51), ("rcc", 1000, 200, 2.41), ("rgv", 2048, 100, 2.13)])
def test_evaluation_and_slopes_peak_memory(contrast, n_samples, m, feature_path_peak):
    # in units of F = n m N 8 bytes, the features' size; feature_path_peak is
    # the peak, on these shapes, of the objective that formed the features and
    # pulled back through them
    n = 2
    data = whitened_uniform_pair(n_samples, seed=12)
    objective = make_objective(data, OptimizerConfig(seed=3, contrast=contrast, m=m))
    q = rotation(0.3)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        objective(q)
        objective.slopes(q)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * feature_path_peak * n * m * n_samples * 8


@pytest.mark.parametrize("contrast", ["rgv", "rcc"])
def test_slopes_at_the_evaluated_rotation_allocate_no_row_array(contrast):
    # at n = 2 the slopes come from the evaluation's Gram and means and two
    # products over the samples, with no (d, N) array of rows: the peak stays
    # below half of one
    n_samples = 4096
    data = whitened_uniform_pair(n_samples, seed=12)
    objective = make_objective(data, OptimizerConfig(seed=3, contrast=contrast))
    q = rotation(0.3)
    objective(q)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        objective.slopes(q)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * objective.basis.degree * n_samples * 8


@pytest.mark.parametrize("contrast", ["rgv", "rcc"])
def test_evaluation_keeps_no_row_array_at_two_components(contrast):
    # at n = 2 what an evaluation keeps for the slopes is its Gram, its means
    # and its rows' products with 2 + 2n vectors over the samples: the memory
    # it leaves allocated stays below half of one (d, N) array of rows
    n_samples = 4096
    data = whitened_uniform_pair(n_samples, seed=12)
    objective = make_objective(data, OptimizerConfig(seed=3, contrast=contrast))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        objective(rotation(0.3))
        kept = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert kept < 0.5 * objective.basis.degree * n_samples * 8


def test_slopes_do_not_depend_on_the_last_evaluation():
    data = whitened_uniform_pair(500, seed=3)
    for contrast in ("rgv", "rcc"):
        objective = make_objective(data, OptimizerConfig(seed=4, contrast=contrast, m=32))
        objective(rotation(0.3))
        reused = objective.slopes(rotation(0.3))
        objective(rotation(1.1))
        np.testing.assert_array_equal(objective.slopes(rotation(0.3)), reused)


@pytest.mark.parametrize("contrast", ["rgv", "rcc"])
def test_objective_calls_the_contrast_it_looked_up_once_per_evaluation(contrast, monkeypatch):
    # perfbench counts a fit's objective calls by wrapping `rica.optimizer.rgv`
    # and `rica.optimizer.rcc`: the objective looks the contrast up there when
    # it is built, calls it once per evaluation, and the slopes at the
    # evaluated rotation call it no more
    calls = []

    def counted(pencil, _original=getattr(optimizer, contrast)):
        calls.append(pencil)
        return _original(pencil)

    monkeypatch.setattr(optimizer, contrast, counted)
    objective = make_objective(whitened_uniform_pair(500, seed=3),
                               OptimizerConfig(seed=4, contrast=contrast, m=32))
    objective(rotation(0.3))
    objective.slopes(rotation(0.3))
    assert len(calls) == 1


def test_kernel_objective_slopes_are_its_central_differences():
    # KCC and KGV state their slopes as central differences at FD_STEP, the
    # computation `finite_diff_gradient` keeps as the test oracle
    data = whitened_uniform_pair(100, seed=3)
    config = OptimizerConfig(seed=4, contrast="kgv")
    q = rotation(0.3)
    np.testing.assert_array_equal(make_objective(data, config).slopes(q),
                                  finite_diff_gradient(q, data, config))


def test_minimize_contrast_uniform_pair_50_trials():
    # uniform + uniform mixtures, N=1000, RGV defaults: amari <= 0.10 in >= 90%
    failures = 0
    for seed in range(50):
        sources = uniform_pair(1000, seed=20000 + 31 * seed)
        a_mat = random_mixing_matrix(2, 1.0, 2.0, seed=seed)
        whitened, transform = whiten(mix(sources, a_mat))
        config = OptimizerConfig(seed=seed, contrast="rgv")
        model = minimize_contrast(whitened, config)
        err = amari_distance(model.rotation @ transform.matrix, np.linalg.inv(a_mat))
        failures += err > 0.10
    assert failures <= 5


def test_minimize_contrast_given_init_at_truth():
    # identity mixing: the only estimation error left is whitening noise,
    # which needs N large enough to sit inside the 0.02 Amari budget
    whitened, transform = whiten(uniform_pair(4000, seed=77))
    config = OptimizerConfig(seed=2, contrast="rgv", restarts=1)
    objective = make_objective(whitened, config)
    start_value = objective(np.eye(2))
    model = descend(objective, np.eye(2), TOL, config.max_iters)
    assert model.final_contrast <= start_value + TOL
    assert amari_distance(model.rotation @ transform.matrix, np.eye(2)) <= 0.02


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
        model = minimize_contrast(whitened, OptimizerConfig(seed=seed, m=64, restarts=1))
        q = model.rotation
        np.testing.assert_allclose(q @ q.T, np.eye(3), atol=1e-10)
        errors.append(amari_distance(q @ transform.matrix, truth))
        fastica = fastica_baseline(whitened, seed=seed).rotation @ transform.matrix
        fastica_errors.append(amari_distance(fastica, truth))
    print(f"3 sources: mean Amari RGV={np.mean(errors):.3f} FastICA={np.mean(fastica_errors):.3f}")
    assert np.mean(errors) <= 0.10
    assert np.mean(errors) <= np.mean(fastica_errors)
