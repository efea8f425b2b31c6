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

from .contrast_engine import DEFAULT_GAMMA, DEFAULT_KAPPA, DEFAULT_M, DEFAULT_SIGMA
from .data_model import (Dataset, WhiteningTransform, inject_outliers, mix,
                         random_mixing_matrix, whiten)
from .errors import SingularMatrix
from .optimizer import (CONTRASTS, OptimizerConfig, UnmixingModel, derive_seed,
                        fastica_baseline, make_objective, minimize_contrast, plane_rotation)
from .source_bank import catalog, sample_source, spec_by_label

METHODS = ("FASTICA",) + tuple(contrast.upper() for contrast in CONTRASTS)
COND_RANGE = (1.0, 2.0)  # condition numbers of the planted mixing matrices
OUTLIER_MAGNITUDE = 5.0
MIN_GRID_DEGREES = 0.01  # the finest `rotation_sweep` grid step


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
    m: int = DEFAULT_M
    gamma: float = DEFAULT_GAMMA
    kappa: float = DEFAULT_KAPPA
    sigma: float = DEFAULT_SIGMA
    restarts: int = 1
    max_iters: int = 50
    outlier_count: int = 0

    def snapshot(self) -> dict:
        return {
            "labels": self.labels if isinstance(self.labels, str) else "+".join(self.labels),
            "N": self.N, "m": self.m, "gamma": self.gamma, "kappa": self.kappa,
            "sigma": self.sigma, "restarts": self.restarts, "max_iters": self.max_iters,
            "outlier_count": self.outlier_count, "master_seed": self.master_seed,
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
                                  seed=derive_seed(trial_seed, 100 + k)))
    sources = Dataset(np.vstack(rows))
    a_mat = random_mixing_matrix(len(labels), *COND_RANGE, seed=derive_seed(trial_seed, 200))
    mixed = mix(sources, a_mat)
    if config.outlier_count > 0:
        mixed = inject_outliers(mixed, config.outlier_count, OUTLIER_MAGNITUDE,
                                seed=derive_seed(trial_seed, 300))
    return mixed, np.linalg.inv(a_mat)


def fit_unmixing(data: Dataset, config: OptimizerConfig
                 ) -> tuple[np.ndarray, WhiteningTransform, UnmixingModel]:
    """The one fit of an unmixing: whiten, minimise the contrast, compose.

    Returns the unmixing `model.rotation @ transform.matrix` of the raw data,
    the transform that whitened it and the descent's model.
    """
    whitened, transform = whiten(data)
    model = minimize_contrast(whitened, config)
    return model.rotation @ transform.matrix, transform, model


def run_single_trial(labels: tuple[str, ...], method: str, config: BenchmarkConfig,
                     trial_seed: int) -> ExperimentRecord:
    """One (source pair, method) trial; fully reproducible from trial_seed."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; valid: {METHODS}")
    mixed, true_unmixing = _draw_trial_data(labels, config, trial_seed)
    t_start = time.perf_counter()
    if method == "FASTICA":
        whitened, transform = whiten(mixed)
        rotation = fastica_baseline(whitened, seed=derive_seed(trial_seed, 400)).rotation
        full = rotation @ transform.matrix
    else:
        full, _, _ = fit_unmixing(mixed, OptimizerConfig(
            m=config.m, gamma=config.gamma, kappa=config.kappa, sigma=config.sigma,
            restarts=config.restarts, max_iters=config.max_iters,
            seed=derive_seed(trial_seed, 500), init="fastica", contrast=method.lower()))
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
        trial_seed = derive_seed(config.master_seed, rep)
        labels = _trial_labels(config, np.random.default_rng(derive_seed(trial_seed, 1)))
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


@dataclass(frozen=True)
class ScalingStudy:
    points: list[ScalingPoint]
    exponents: dict[str, float]


def _time_contrast_evaluation(n_samples: int, config: OptimizerConfig,
                              repetitions: int) -> float:
    """Median wall-clock of one evaluation of the fit's objective (not a full fit).

    The objective is the one `minimize_contrast` descends, built by
    `make_objective` from `config` on whitened draws of two uniform sources
    from `config.seed`, and evaluated at the identity rotation. One untimed
    evaluation comes first: without it the first size timed read up to twice
    its steady time (KGV at N=250 on a 2-CPU box), which moved the fitted exponent.
    """
    rng = np.random.default_rng(config.seed)
    sources = Dataset(rng.uniform(-np.sqrt(3), np.sqrt(3), (2, n_samples)))
    whitened, _ = whiten(sources)
    objective = make_objective(whitened, config)
    identity = np.eye(2)
    objective(identity)
    times = []
    for _ in range(repetitions):
        t0 = time.perf_counter()
        objective(identity)
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def fit_runtime_exponent(sizes, seconds) -> float:
    """Least-squares slope of log runtime against log N."""
    logs_n = np.log(np.asarray(sizes, dtype=float))
    logs_t = np.log(np.asarray(seconds, dtype=float))
    slope, _ = np.polyfit(logs_n, logs_t, 1)
    return float(slope)


def run_scaling_study(methods_and_sizes: dict[str, tuple[int, ...]],
                      config: OptimizerConfig = OptimizerConfig(),
                      repetitions: int = 5) -> ScalingStudy:
    """Time contrast evaluations per method per N and fit log-log exponents."""
    for method, sizes in methods_and_sizes.items():
        if len(set(sizes)) < 2:
            raise ValueError(f"{method}: a runtime exponent needs two or more distinct N, "
                             f"got {tuple(sizes)}")
    points = []
    exponents = {}
    for method, sizes in methods_and_sizes.items():
        med = []
        for n_samples in sizes:
            seconds = _time_contrast_evaluation(n_samples, replace(
                config, contrast=method.lower(), seed=derive_seed(config.seed, n_samples)),
                repetitions)
            med.append(seconds)
            points.append(ScalingPoint(method, n_samples, seconds))
        exponents[method] = fit_runtime_exponent(sizes, med)
    return ScalingStudy(points=points, exponents=exponents)


def rotation_sweep(sources: Dataset, config: OptimizerConfig, grid_degrees: float,
                   mix_angle_degrees: float) -> list[tuple[float, float]]:
    """Contrast value versus unmixing angle on [0, 90] degrees (two components).

    The sources are mixed by a plane rotation of `mix_angle_degrees`, whitened,
    then scanned: the value at grid angle phi is the contrast (the fit's own
    objective, `make_objective(whitened, config)`) of R(phi) applied to the
    whitened mixture. The minimum is expected near (-mix_angle) mod 90.
    A grid step outside [MIN_GRID_DEGREES, 90] raises ValueError: 9,001
    angles at the finest step, 0 and 90 at the coarsest.
    """
    if not MIN_GRID_DEGREES <= grid_degrees <= 90.0:
        raise ValueError(f"grid step must be from {MIN_GRID_DEGREES} to 90 degrees, "
                         f"got {grid_degrees}")
    if sources.d != 2:
        raise ValueError("rotation sweep is defined for two components")
    mixed = Dataset(plane_rotation(2, 0, 1, np.deg2rad(mix_angle_degrees)) @ sources.values)
    whitened, _ = whiten(mixed)
    objective = make_objective(whitened, config)
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
