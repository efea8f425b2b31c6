import numpy as np
import pytest

from rica import evaluation, optimizer
from rica.errors import NoProgress, SingularMatrix
from rica.evaluation import (MIN_GRID_DEGREES, BenchmarkConfig, amari_distance,
                             amari_from_product, fit_runtime_exponent, mean_amari_by,
                             records_to_csv_rows, rotation_sweep, run_benchmark,
                             run_outlier_study, run_scaling_study, run_single_trial,
                             summary_table)
from rica.data_model import Dataset
from rica.optimizer import OptimizerConfig, derive_seed
from rica.source_bank import sample_source, spec_by_label

FAST_CONFIG = dict(N=300, replicates=3, m=64, max_iters=20)


def test_amari_zero_for_identical_matrices():
    assert amari_distance(np.eye(3), np.eye(3)) == 0.0


def test_amari_zero_for_scaled_permutation():
    rng = np.random.default_rng(0)
    w = rng.standard_normal((4, 4)) + 4 * np.eye(4)
    perm = np.eye(4)[[2, 0, 3, 1]]
    scale = np.diag([0.3, -2.0, 5.0, 1.0])
    assert amari_distance(scale @ perm @ w, w) < 1e-12


def test_amari_hand_computed_value():
    v = np.eye(2)
    w = np.array([[1.0, 1.0], [0.0, 1.0]])
    # a = V W^-1 = [[1, -1], [0, 1]] -> d = 0.5
    assert abs(amari_distance(v, w) - 0.5) < 1e-12


def test_amari_invariant_to_row_permutation_of_v():
    rng = np.random.default_rng(1)
    v = rng.standard_normal((3, 3)) + 3 * np.eye(3)
    w = rng.standard_normal((3, 3)) + 3 * np.eye(3)
    base = amari_distance(v, w)
    for perm in ([1, 0, 2], [2, 1, 0], [1, 2, 0]):
        assert abs(amari_distance(np.eye(3)[perm] @ v, w) - base) < 1e-12


def test_amari_range_for_two_by_two():
    rng = np.random.default_rng(2)
    for _ in range(200):
        v = rng.standard_normal((2, 2))
        w = rng.standard_normal((2, 2))
        if abs(np.linalg.det(w)) < 1e-6 or abs(np.linalg.det(v)) < 1e-6:
            continue
        assert 0.0 <= amari_distance(v, w) <= 1.0 + 1e-12
    assert abs(amari_from_product(np.ones((2, 2))) - 1.0) < 1e-12  # maximum


def test_amari_rejects_singular_w():
    with pytest.raises(SingularMatrix):
        amari_distance(np.eye(2), np.zeros((2, 2)))


def test_derive_trial_seed_is_stable():
    assert derive_seed(1, 0) == derive_seed(1, 0)
    assert derive_seed(1, 0) != derive_seed(1, 1)
    assert derive_seed(1, 0) != derive_seed(2, 0)
    # One recipe for trial, feature-map and restart seeds: SeedSequence(keys), first word.
    assert (derive_seed(1, 0), derive_seed(3, 9001, 1), derive_seed(3, 7310, 2)) == \
        (1835504127, 1490568316, 3495705403)


def test_run_benchmark_deterministic():
    config = BenchmarkConfig(labels=("c", "b"), methods=("FASTICA", "RGV"),
                             master_seed=5, **FAST_CONFIG)
    first = run_benchmark(config)
    second = run_benchmark(config)
    assert [(r.method, r.seed, r.amari) for r in first] == \
        [(r.method, r.seed, r.amari) for r in second]


def test_single_trial_reproducible_from_derived_seed():
    config = BenchmarkConfig(labels=("c", "b"), methods=("RGV",), master_seed=9,
                             **FAST_CONFIG)
    records = run_benchmark(config)
    target = records[2]  # replicate 2, RGV
    # the record's config rebuilds the run's own
    assert BenchmarkConfig(**target.config) == config
    replay = run_single_trial(target.source_labels, "RGV", BenchmarkConfig(**target.config),
                              target.seed)
    assert replay.amari == target.amari


def test_run_benchmark_rand_mode_samples_labels():
    config = BenchmarkConfig(labels="rand", methods=("FASTICA",), master_seed=3,
                             N=300, replicates=12, m=64, max_iters=10)
    records = run_benchmark(config)
    assert len(records) == 12
    labels = {r.source_labels for r in records}
    assert len(labels) > 1  # with 12 draws from 18 labels, repeats of one pair are ~impossible
    for r in records:
        assert len(r.source_labels) == 2


def test_run_benchmark_rgv_beats_fastica_on_uniform_laplace():
    config = BenchmarkConfig(labels=("c", "b"), methods=("FASTICA", "RGV"),
                             master_seed=11, N=1000, replicates=12)
    means = mean_amari_by(run_benchmark(config))
    assert means["RGV"] < means["FASTICA"]


def test_outlier_study_zero_count_matches_benchmark():
    config = BenchmarkConfig(labels=("c", "b"), methods=("FASTICA",), master_seed=7,
                             **FAST_CONFIG)
    study = run_outlier_study(config, counts=(0,))
    plain = run_benchmark(config)
    assert [(r.seed, r.amari) for r in study] == [(r.seed, r.amari) for r in plain]


def test_outlier_study_orders_counts():
    config = BenchmarkConfig(labels=("c", "b"), methods=("FASTICA",), master_seed=13,
                             **FAST_CONFIG)
    records = run_outlier_study(config, counts=(0, 10))
    assert {r.config["outlier_count"] for r in records} == {0, 10}
    by_count = mean_amari_by(records, key=lambda r: r.config["outlier_count"])
    assert by_count[10] >= by_count[0]  # outliers cannot help on average here


def test_kernel_oracle_method_runs_in_benchmark():
    config = BenchmarkConfig(labels=("c", "b"), methods=("KGV",), master_seed=19,
                             N=250, replicates=2, max_iters=8)
    records = run_benchmark(config)
    assert len(records) == 2
    assert all(r.amari is not None and r.amari >= 0 for r in records)
    assert np.mean([r.amari for r in records]) <= 0.2


def test_kernel_oracle_trial_runs_every_restart(monkeypatch):
    # the first start has no descent direction: its line search fails at once
    starts = []
    real_descend = optimizer.descend

    def descend(objective, start, *args):
        starts.append(start)
        if len(starts) == 1:
            raise NoProgress("first line search found no decrease")
        return real_descend(objective, start, *args)

    monkeypatch.setattr(optimizer, "descend", descend)
    config = BenchmarkConfig(labels=("c", "b"), N=250, restarts=2, max_iters=8)
    record = run_single_trial(("c", "b"), "KGV", config, derive_seed(19, 0))
    assert len(starts) == 2
    assert 0.0 <= record.amari <= 1.0


def test_fit_runtime_exponent_recovers_slope():
    sizes = np.array([250, 500, 1000, 2000])
    assert abs(fit_runtime_exponent(sizes, 1e-6 * sizes.astype(float) ** 3) - 3.0) < 1e-9


@pytest.mark.parametrize("plan", [{"RGV": (200,)}, {"RGV": (200, 400), "KGV": (200, 200)}])
def test_run_scaling_study_needs_two_sizes_per_method(plan, monkeypatch):
    timed = []
    monkeypatch.setattr(evaluation, "_time_contrast_evaluation",
                        lambda *args, **kwargs: timed.append(args) or 1.0)
    with pytest.raises(ValueError, match="two or more distinct N"):
        run_scaling_study(plan, repetitions=1)
    assert timed == []


def test_run_scaling_study_smoke():
    study = run_scaling_study({"RGV": (500, 1000), "KGV": (100, 200)},
                              repetitions=2)
    assert {p.method for p in study.points} == {"RGV", "KGV"}
    assert set(study.exponents) == {"RGV", "KGV"}
    assert all(p.median_seconds > 0 for p in study.points)


def test_rotation_sweep_grid_and_minimum():
    spec = spec_by_label("c")
    sources = Dataset(np.vstack([sample_source(spec, 1500, seed=1),
                                 sample_source(spec, 1500, seed=2)]))
    points = rotation_sweep(sources, OptimizerConfig(seed=5, contrast="rgv", m=128),
                            grid_degrees=3.0, mix_angle_degrees=-30.0)
    assert len(points) == 31
    assert points[0][0] == 0.0 and points[-1][0] == 90.0
    best = min(points, key=lambda p: p[1])[0]
    distance = min(abs(best - 30.0) % 90.0, 90.0 - abs(best - 30.0) % 90.0)
    assert distance <= 6.0


def test_rotation_sweep_kernel_oracle_route():
    spec = spec_by_label("c")
    sources = Dataset(np.vstack([sample_source(spec, 300, seed=3),
                                 sample_source(spec, 300, seed=4)]))
    points = rotation_sweep(sources, OptimizerConfig(seed=1, contrast="kgv"),
                            grid_degrees=15.0, mix_angle_degrees=-30.0)
    assert len(points) == 7
    best = min(points, key=lambda p: p[1])[0]
    distance = min(abs(best - 30.0) % 90.0, 90.0 - abs(best - 30.0) % 90.0)
    assert distance <= 15.0
    assert all(v >= -1e-9 for _, v in points)


def test_rotation_sweep_grid_from_the_finest_step_to_90_degrees(monkeypatch):
    monkeypatch.setattr(evaluation, "make_objective", lambda whitened, config: lambda q: 0.0)
    sources = Dataset(np.vstack([sample_source(spec_by_label("c"), 100, seed=5),
                                 sample_source(spec_by_label("b"), 100, seed=6)]))
    for step, size in ((MIN_GRID_DEGREES, 9001), (90.0, 2)):
        points = rotation_sweep(sources, OptimizerConfig(), grid_degrees=step,
                                mix_angle_degrees=0.0)
        assert len(points) == size and points[-1][0] == pytest.approx(90.0)


@pytest.mark.parametrize("step", [1e-9, 0.0, -1.0, 0.0099, 90.5, np.nan, np.inf])
def test_rotation_sweep_rejects_a_grid_step_before_building_anything(step, monkeypatch):
    # 1e-9 would ask for a 671 GiB angle grid; a step above 90 scans only 0
    def fail(*args, **kwargs):
        raise AssertionError("built before the step was checked")

    monkeypatch.setattr(evaluation, "make_objective", fail)
    monkeypatch.setattr(np, "arange", fail)
    sources = Dataset(np.array([[1.0, -1.0, 0.5], [0.5, 1.0, -1.0]]))
    with pytest.raises(ValueError, match="grid step"):
        rotation_sweep(sources, OptimizerConfig(), grid_degrees=step, mix_angle_degrees=0.0)


def test_records_csv_rows_shape_and_determinism_choice():
    config = BenchmarkConfig(labels=("c", "b"), methods=("FASTICA",), master_seed=23,
                             **FAST_CONFIG)
    records = run_benchmark(config)
    rows = records_to_csv_rows(records)
    assert rows[0] == "source_labels,N,method,seed,amari_x100,runtime_s"
    assert all(row.endswith(",") for row in rows[1:])  # runtime suppressed by default
    timed = records_to_csv_rows(records, include_runtime=True)
    assert not any(row.endswith(",") for row in timed[1:])


def test_summary_table_contains_methods_and_pair():
    config = BenchmarkConfig(labels=("c", "b"), methods=("FASTICA",), master_seed=29,
                             **FAST_CONFIG)
    table = summary_table(run_benchmark(config))
    assert "FASTICA" in table and "c+b" in table and "mean" in table
