"""Amari distance, benchmark/outlier/scaling experiment runners, and the
contrast-versus-rotation-angle sweep.

All experiment randomness flows from one master seed: trial seeds are derived
by counter, and re-running a single trial from its derived seed reproduces its
record exactly. Amari distances are stored unscaled; the x100 convention is
applied only when reporting.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .contrast_engine import (DEFAULT_GAMMA, DEFAULT_KAPPA, DEFAULT_M, DEFAULT_SIGMA,
                              kcc_oracle, kgv_oracle, rcc, rgv)
from .data_model import Dataset, inject_outliers, mix, random_mixing_matrix, whiten
from .errors import SingularMatrix
from .optimizer import (OptimizerConfig, fastica_baseline, make_objective, minimize_contrast,
                        plane_rotation)
from .random_features import KernelSpec, apply_feature_map, draw_feature_map
from .source_bank import catalog, sample_source, spec_by_label

METHODS = ("FASTICA", "RCC", "RGV", "KCC_ORACLE", "KGV_ORACLE")


@dataclass(frozen=True)
class ExperimentRecord:
    source_labels: tuple[str, ...]
    N: int
    method: str
    seed: int
    amari: float | None  # None when the true mixing is unknown
    runtime_seconds: float
    config: dict = field(default_factory=dict)


@dataclass(frozen=True)
class BenchmarkConfig:
    """One benchmark run: a fixed source pair or 'rand', replicated.

    The optimizer settings default to a single FastICA-initialized descent,
    which keeps replicate sweeps affordable; restarts are configurable.
    """

    labels: tuple[str, ...] | str  # e.g. ("c", "b") or "rand"
    N: int = 1000
    replicates: int = 100
    methods: tuple[str, ...] = ("FASTICA", "RGV")
    master_seed: int = 0
    cond_range: tuple[float, float] = (1.0, 2.0)
    m: int = DEFAULT_M
    gamma: float = DEFAULT_GAMMA
    kappa: float = DEFAULT_KAPPA
    sigma: float = DEFAULT_SIGMA
    restarts: int = 1
    max_iters: int = 50
    outlier_count: int = 0
    outlier_magnitude: float = 5.0

    def snapshot(self) -> dict:
        return {
            "labels": self.labels if isinstance(self.labels, str) else "+".join(self.labels),
            "N": self.N, "m": self.m, "gamma": self.gamma, "kappa": self.kappa,
            "sigma": self.sigma, "restarts": self.restarts, "max_iters": self.max_iters,
            "cond_range": list(self.cond_range), "outlier_count": self.outlier_count,
            "outlier_magnitude": self.outlier_magnitude, "master_seed": self.master_seed,
        }


def amari_distance(v_mat: np.ndarray, w_mat: np.ndarray) -> float:
    """Permutation- and scale-invariant distance between unmixing matrices.

    With a = V W^(-1),

      d(V, W) = (1/2n) sum_i (sum_j |a_ij| / max_j |a_ij| - 1)
              + (1/2n) sum_j (sum_i |a_ij| / max_i |a_ij| - 1),

    which is nonnegative and zero exactly when V W^(-1) is a scaled
    permutation.
    """
    w_mat = np.asarray(w_mat, dtype=float)
    try:
        inv = np.linalg.inv(w_mat)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(f"W is singular: {exc}") from exc
    return amari_from_product(np.asarray(v_mat, dtype=float) @ inv)


def amari_from_product(a_mat: np.ndarray) -> float:
    """The Amari formula applied directly to a = V W^(-1)."""
    a = np.abs(np.asarray(a_mat, dtype=float))
    n = a.shape[0]
    rows = np.sum(a.sum(axis=1) / a.max(axis=1) - 1.0)
    cols = np.sum(a.sum(axis=0) / a.max(axis=0) - 1.0)
    return float((rows + cols) / (2.0 * n))


def derive_trial_seed(master_seed: int, counter: int) -> int:
    """Deterministic per-trial seed; stable across runs and platforms."""
    return int(np.random.SeedSequence((master_seed, counter)).generate_state(1)[0])


def _trial_labels(config: BenchmarkConfig, rng: np.random.Generator) -> tuple[str, ...]:
    if config.labels == "rand":
        all_labels = [s.label for s in catalog()]
        return tuple(rng.choice(all_labels, size=2, replace=True))
    return tuple(config.labels)


def _draw_trial_data(labels: tuple[str, ...], config: BenchmarkConfig,
                     trial_seed: int) -> tuple[Dataset, np.ndarray]:
    """Sources -> mixing -> optional outliers; returns (mixed, true unmixing)."""
    rows = []
    for k, label in enumerate(labels):
        rows.append(sample_source(spec_by_label(label), config.N,
                                  seed=derive_trial_seed(trial_seed, 100 + k)))
    sources = Dataset(np.vstack(rows), source="+".join(labels))
    spec = random_mixing_matrix(len(labels), config.cond_range[0], config.cond_range[1],
                                seed=derive_trial_seed(trial_seed, 200))
    mixed = mix(sources, spec)
    if config.outlier_count > 0:
        mixed = inject_outliers(mixed, config.outlier_count, config.outlier_magnitude,
                                seed=derive_trial_seed(trial_seed, 300))
    return mixed, np.linalg.inv(spec.matrix)


def fit_config(config: BenchmarkConfig, method: str, seed: int) -> OptimizerConfig:
    """Optimizer settings for a contrast method (RCC, RGV, KCC_ORACLE, KGV_ORACLE)."""
    return OptimizerConfig(m=config.m, gamma=config.gamma, kappa=config.kappa,
                           sigma=config.sigma, restarts=config.restarts,
                           max_iters=config.max_iters, seed=seed, init="fastica",
                           contrast=method.lower().removesuffix("_oracle"))


def run_single_trial(labels: tuple[str, ...], method: str, config: BenchmarkConfig,
                     trial_seed: int) -> ExperimentRecord:
    """One (source pair, method) trial; fully reproducible from trial_seed."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; valid: {METHODS}")
    mixed, true_unmixing = _draw_trial_data(labels, config, trial_seed)
    t_start = time.perf_counter()
    whitened, transform = whiten(mixed)
    if method == "FASTICA":
        result = fastica_baseline(whitened, seed=derive_trial_seed(trial_seed, 400))
        full = result.rotation @ transform.matrix
    else:
        opt = fit_config(config, method, seed=derive_trial_seed(trial_seed, 500))
        full = minimize_contrast(whitened, opt, whitening=transform).full_matrix()
    runtime = time.perf_counter() - t_start
    return ExperimentRecord(
        source_labels=labels, N=config.N, method=method, seed=trial_seed,
        amari=amari_distance(full, true_unmixing), runtime_seconds=runtime,
        config=config.snapshot(),
    )


def run_benchmark(config: BenchmarkConfig) -> list[ExperimentRecord]:
    """Replicated separation benchmark over the configured methods."""
    records = []
    for rep in range(config.replicates):
        trial_seed = derive_trial_seed(config.master_seed, rep)
        labels = _trial_labels(config, np.random.default_rng(derive_trial_seed(trial_seed, 1)))
        for method in config.methods:
            records.append(run_single_trial(labels, method, config, trial_seed))
    return records


def run_outlier_study(config: BenchmarkConfig,
                      counts: tuple[int, ...] = (0, 5, 10, 25)) -> list[ExperimentRecord]:
    """Benchmark repeated at each outlier count, same trial seeds throughout."""
    records = []
    for count in counts:
        records.extend(run_benchmark(replace(config, outlier_count=count)))
    return records


def mean_amari_by(records: list[ExperimentRecord], key=lambda r: r.method) -> dict:
    sums: dict = {}
    for rec in records:
        if rec.amari is None:
            continue
        bucket = sums.setdefault(key(rec), [0.0, 0])
        bucket[0] += rec.amari
        bucket[1] += 1
    return {k: v[0] / v[1] for k, v in sums.items()}


@dataclass(frozen=True)
class ScalingPoint:
    method: str
    N: int
    median_seconds: float
    repetitions: int


@dataclass(frozen=True)
class ScalingStudy:
    points: list[ScalingPoint]
    exponents: dict[str, float]


def _time_contrast_evaluation(method: str, n_samples: int, config: BenchmarkConfig,
                              seed: int, repetitions: int) -> float:
    """Median wall-clock of one contrast evaluation (not a full optimization)."""
    rng = np.random.default_rng(seed)
    x1 = rng.uniform(-np.sqrt(3), np.sqrt(3), n_samples)
    x2 = rng.uniform(-np.sqrt(3), np.sqrt(3), n_samples)
    kernel = KernelSpec(sigma=config.sigma)
    times = []
    if method in ("RCC", "RGV"):
        contrast = rcc if method == "RCC" else rgv
        maps = [draw_feature_map(kernel, config.m, 1, seed + 1 + i) for i in range(2)]
        datasets = [Dataset(x1[None, :]), Dataset(x2[None, :])]
        for _ in range(repetitions):
            t0 = time.perf_counter()
            feats = [apply_feature_map(maps[i], datasets[i]) for i in range(2)]
            contrast(feats, gamma=config.gamma)
            times.append(time.perf_counter() - t0)
    elif method in ("KCC_ORACLE", "KGV_ORACLE"):
        oracle = kcc_oracle if method == "KCC_ORACLE" else kgv_oracle
        datasets = [Dataset(x1[None, :]), Dataset(x2[None, :])]
        for _ in range(repetitions):
            t0 = time.perf_counter()
            oracle(datasets, kernel, kappa=config.kappa, oracle_limit=max(n_samples, 1))
            times.append(time.perf_counter() - t0)
    else:
        raise ValueError(f"no contrast evaluation timing for method {method!r}")
    return float(np.median(times))


def fit_runtime_exponent(sizes, seconds) -> float:
    """Least-squares slope of log runtime against log N."""
    logs_n = np.log(np.asarray(sizes, dtype=float))
    logs_t = np.log(np.asarray(seconds, dtype=float))
    slope, _ = np.polyfit(logs_n, logs_t, 1)
    return float(slope)


def run_scaling_study(methods_and_sizes: dict[str, tuple[int, ...]],
                      config: BenchmarkConfig | None = None,
                      repetitions: int = 5) -> ScalingStudy:
    """Time contrast evaluations per method per N and fit log-log exponents."""
    config = config or BenchmarkConfig(labels=("c", "c"))
    points = []
    exponents = {}
    for method, sizes in methods_and_sizes.items():
        med = []
        for n_samples in sizes:
            seconds = _time_contrast_evaluation(method, n_samples, config,
                                                seed=derive_trial_seed(config.master_seed, n_samples),
                                                repetitions=repetitions)
            med.append(seconds)
            points.append(ScalingPoint(method, n_samples, seconds, repetitions))
        exponents[method] = fit_runtime_exponent(sizes, med)
    return ScalingStudy(points=points, exponents=exponents)


def rotation_sweep(sources: Dataset, contrast: str, grid_degrees: float, seed: int,
                   mix_angle_degrees: float = 0.0, m: int = DEFAULT_M,
                   gamma: float = DEFAULT_GAMMA, kappa: float = DEFAULT_KAPPA,
                   sigma: float = DEFAULT_SIGMA) -> list[tuple[float, float]]:
    """Contrast value versus unmixing angle on [0, 90] degrees (two components).

    The sources are mixed by a plane rotation of `mix_angle_degrees`, whitened,
    then scanned: the value at grid angle phi is the contrast (the fit's own
    objective) of R(phi) applied to the whitened mixture. The minimum is
    expected near (-mix_angle) mod 90.
    """
    if sources.d != 2:
        raise ValueError("rotation sweep is defined for two components")
    cfg = OptimizerConfig(m=m, gamma=gamma, kappa=kappa, sigma=sigma, seed=seed,
                          contrast=contrast)
    mixed = Dataset(plane_rotation(2, 0, 1, np.deg2rad(mix_angle_degrees)) @ sources.values)
    whitened, _ = whiten(mixed)
    objective = make_objective(whitened, cfg)
    angles = np.arange(0.0, 90.0 + 1e-9, grid_degrees)
    values = [objective(plane_rotation(2, 0, 1, np.deg2rad(deg))) for deg in angles]
    return list(zip(angles.tolist(), values))


def records_to_csv_rows(records: list[ExperimentRecord],
                        include_runtime: bool = False) -> list[str]:
    """CSV schema: source_labels,N,method,seed,amari_x100,runtime_s.

    The runtime column is left empty unless requested, so that fixed-seed runs
    produce byte-identical files.
    """
    rows = ["source_labels,N,method,seed,amari_x100,runtime_s"]
    for rec in records:
        amari_txt = "" if rec.amari is None else repr(100.0 * rec.amari)
        runtime_txt = repr(rec.runtime_seconds) if include_runtime else ""
        rows.append(f"{'+'.join(rec.source_labels)},{rec.N},{rec.method},{rec.seed},"
                    f"{amari_txt},{runtime_txt}")
    return rows


def summary_csv_rows(records: list[ExperimentRecord]) -> list[str]:
    """Summary as CSV: one row per (source pair, method) mean, plus overall."""
    rows = ["source_labels,method,mean_amari_x100"]
    by_pair_method = mean_amari_by(records, key=lambda r: ("+".join(r.source_labels), r.method))
    for (pair, method), value in sorted(by_pair_method.items()):
        rows.append(f"{pair},{method},{repr(100.0 * value)}")
    for method, value in sorted(mean_amari_by(records).items()):
        rows.append(f"mean,{method},{repr(100.0 * value)}")
    return rows


def summary_table(records: list[ExperimentRecord]) -> str:
    """Mean 100*Amari per (source pair, method), aligned text."""
    methods = sorted({r.method for r in records}, key=METHODS.index)
    pairs = sorted({"+".join(r.source_labels) for r in records})
    by_pair_method = mean_amari_by(records, key=lambda r: ("+".join(r.source_labels), r.method))
    lines = [f"{'pair':<10}" + "".join(f"{m:>12}" for m in methods)]
    for pair in pairs:
        cells = []
        for method in methods:
            value = by_pair_method.get((pair, method))
            cells.append(f"{100.0 * value:>12.2f}" if value is not None else f"{'-':>12}")
        lines.append(f"{pair:<10}" + "".join(cells))
    overall = mean_amari_by(records)
    lines.append(f"{'mean':<10}" + "".join(f"{100.0 * overall[m]:>12.2f}" for m in methods))
    return "\n".join(lines)
