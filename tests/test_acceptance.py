"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines while the suite executes. Monte Carlo quantities use frozen seeds, so
every run is deterministic.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import rica
from helpers import rho
from rica.cli import main as cli_main
from rica.contrast_engine import (covariance_blocks, kernel_pencil_spectrum, kgv_oracle,
                                  rcc, rgv, solve_pencil)
from rica.data_model import Dataset, whiten
from rica.evaluation import (BenchmarkConfig, amari_distance, mean_amari_by,
                             rotation_sweep, run_benchmark, run_outlier_study)
from rica.optimizer import OptimizerConfig, finite_diff_gradient, plane_rotation
from rica.random_features import (KernelSpec, apply_feature_map, approximation_error_bound,
                                  draw_feature_map, empirical_approx_error)
from rica.source_bank import sample_source, spec_by_label

KERNEL = KernelSpec(sigma=1.0)


def report(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {number} ({name}): {status}  {detail}")


def features(x, m, seed):
    return apply_feature_map(draw_feature_map(KERNEL, m=m, seed=seed), x)


def test_criterion_1_error_bound_dominance():
    n = 1000
    rng = np.random.default_rng(2024)
    samples = rng.standard_normal(n)
    ms = (100, 200, 400, 800, 1600)
    means = []
    for m in ms:
        errors = [empirical_approx_error(KERNEL, samples, m, seed=1 + s) for s in range(10)]
        means.append(float(np.mean(errors)))
    bounds = [approximation_error_bound(n, m) for m in ms]
    dominated = all(mean <= bound for mean, bound in zip(means, bounds))
    decreasing = all(means[i + 1] < means[i] for i in range(len(ms) - 1))
    report(1, "error-bound dominance", dominated and decreasing,
           f"means={[f'{v:.1f}' for v in means]} bounds={[f'{v:.0f}' for v in bounds]}")
    assert dominated
    assert decreasing


@pytest.fixture(scope="module")
def convergence_instance():
    """Shared N=256 dependent-pair instance for criteria 2 and 3."""
    rng = np.random.default_rng(42)
    n = 256
    x = rng.standard_normal(n)
    y = 0.7 * x + 0.714 * rng.standard_normal(n)
    components = np.vstack([x, y])
    rho_oracle = rho(kernel_pencil_spectrum(components, KERNEL))
    kgv_target = kgv_oracle(components, KERNEL)
    gaps = {}
    for m in (50, 1000):
        rho_gaps, rgv_gaps = [], []
        for s in range(5):
            z = [features(x, m, seed=1000 + s), features(y, m, seed=5000 + s)]
            pencil = covariance_blocks(z)
            rho_gaps.append(abs(rho(solve_pencil(pencil)) - rho_oracle))
            rgv_gaps.append(abs(rgv(pencil).value - kgv_target))
        gaps[m] = (float(np.mean(rho_gaps)), float(np.mean(rgv_gaps)))
    return gaps


def test_criterion_2_rcc_to_kcc_convergence(convergence_instance):
    gaps = convergence_instance
    within = gaps[1000][0] <= 0.05
    shrinking = gaps[1000][0] < gaps[50][0]
    report(2, "RCC->KCC convergence", within and shrinking,
           f"|rho gap| m=50: {gaps[50][0]:.4f} -> m=1000: {gaps[1000][0]:.4f}")
    assert within
    assert shrinking


def test_criterion_3_rgv_to_kgv_convergence(convergence_instance):
    gaps = convergence_instance
    halved = gaps[1000][1] <= 0.5 * gaps[50][1]
    report(3, "RGV->KGV convergence", halved,
           f"|rgv gap| m=50: {gaps[50][1]:.4f} -> m=1000: {gaps[1000][1]:.4f}")
    assert halved


def test_criterion_4_contrast_landscape():
    theta_star = 27.0
    spec = spec_by_label("c")
    hits = 0
    details = []
    for seed in (5, 6, 7):
        rows = np.vstack([sample_source(spec, 2000, seed=2 * seed + 1),
                          sample_source(spec, 2000, seed=2 * seed + 2)])
        # mixing by -theta* puts the sweep minimum at theta* (mod 90)
        points = rotation_sweep(Dataset(rows), OptimizerConfig(seed=seed, contrast="rgv"),
                                grid_degrees=1.0, mix_angle_degrees=-theta_star)
        best = min(points, key=lambda p: p[1])[0]
        distance = min(abs(best - theta_star) % 90.0, 90.0 - abs(best - theta_star) % 90.0)
        hits += distance <= 5.0
        details.append(f"seed {seed}: argmin {best:.0f} deg")
    passed = hits >= 2  # 3-seed majority
    report(4, "RGV landscape minimum", passed, "; ".join(details))
    assert passed


def test_criterion_5_separation_accuracy():
    config = BenchmarkConfig(labels=("c", "b"), N=1000, replicates=50,
                             methods=("FASTICA", "RGV"), master_seed=101)
    means = mean_amari_by(run_benchmark(config))
    rgv_x100 = 100.0 * means["RGV"]
    fastica_x100 = 100.0 * means["FASTICA"]
    passed = rgv_x100 <= 10.0 and rgv_x100 <= fastica_x100
    report(5, "separation accuracy", passed,
           f"mean 100*Amari: RGV={rgv_x100:.2f} FastICA={fastica_x100:.2f} "
           f"(paper full-suite scale: 3.2 vs 5.8)")
    assert rgv_x100 <= 10.0
    assert rgv_x100 <= fastica_x100


def test_criterion_6_runtime_scaling(tmp_path):
    # `rica scaling` runs in a child process whose BLAS uses one thread, a
    # limit that must be set before numpy loads. On two threads the KGV
    # eigen-solves gained about 1.6x at N = 1000 and little at N = 250, by an
    # amount that moved with the load on the machine, and the fitted KGV
    # exponent fell below its bound in about one run in three.
    out = tmp_path / "scaling.csv"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(rica.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]))
    env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    subprocess.run([sys.executable, "-m", "rica.cli", "scaling", "--seed", "0", "--reps", "5",
                    "--plan", "rgv:4000+8000+16000+32000+64000,kgv:250+500+1000",
                    "--out", str(out)], env=env, check=True, capture_output=True)
    lines = out.read_text().splitlines()
    exponents = json.loads(lines[-1].removeprefix("# fitted exponents: "))
    seconds = {(method, int(n)): float(value)
               for method, n, value in (line.split(",") for line in lines[2:-1])}
    rgv_exp, kgv_exp = exponents["RGV"], exponents["KGV"]
    rgv_4000, kgv_1000 = seconds["RGV", 4000], seconds["KGV", 1000]
    extrapolated = kgv_1000 * (4000 / 1000) ** 3
    ratio = extrapolated / rgv_4000
    passed = rgv_exp <= 1.3 and kgv_exp >= 2.3 and ratio >= 5.0
    report(6, "runtime scaling", passed,
           f"RGV exp={rgv_exp:.2f} KGV exp={kgv_exp:.2f} speedup={ratio:.0f}x "
           f"(paper audio ratio ~10.9x)")
    assert rgv_exp <= 1.3
    assert kgv_exp >= 2.3
    assert ratio >= 5.0


def test_criterion_7_outlier_robustness():
    counts = (0, 5, 10, 25)
    config = BenchmarkConfig(labels=("c", "b"), N=1000, replicates=50,
                             methods=("FASTICA", "RGV"), master_seed=202)
    records = run_outlier_study(config, counts=counts)

    def mean_at(method, count):
        values = [r.amari for r in records
                  if r.method == method and r.config["outlier_count"] == count]
        return float(np.mean(values))

    trends_ok = True
    details = []
    for method in ("FASTICA", "RGV"):
        means = [mean_at(method, c) for c in counts]
        trends_ok &= all(means[i + 1] >= means[i] for i in range(len(counts) - 1))
        details.append(f"{method}: {[f'{100 * v:.1f}' for v in means]}")
    rgv_25, fastica_25 = mean_at("RGV", 25), mean_at("FASTICA", 25)
    passed = trends_ok and rgv_25 <= fastica_25
    report(7, "outlier robustness", passed,
           "; ".join(details) + f"; RGV@25={100 * rgv_25:.1f} <= FastICA@25={100 * fastica_25:.1f}")
    assert trends_ok
    assert rgv_25 <= fastica_25


def test_criterion_8_property_suites(tmp_path):
    failures = []

    # Amari invariance to scaled permutations (1e-12)
    rng = np.random.default_rng(0)
    w = rng.standard_normal((4, 4)) + 4 * np.eye(4)
    perm_scale = np.diag([2.0, -0.5, 1.0, 3.0]) @ np.eye(4)[[3, 1, 0, 2]]
    if not amari_distance(perm_scale @ w, w) < 1e-12:
        failures.append("amari invariance")

    # pencil spectrum: positivity, trace, n_s=2 symmetry about 1
    x = rng.standard_normal(500)
    y = 0.6 * x + 0.8 * rng.standard_normal(500)
    z = [features(x, 40, seed=1), features(y, 40, seed=2)]
    gamma = 0.01
    pencil = covariance_blocks(z, gamma=gamma)
    mu = solve_pencil(pencil)
    if not np.all(mu > 0):
        failures.append("pencil positivity")
    if not abs(mu.sum() - mu.size) < 1e-6:
        failures.append("pencil trace")
    if not np.allclose((mu + mu[::-1]) / 2.0, 1.0, atol=1e-8):
        failures.append("pencil symmetry about 1")

    # contrast nonnegativity
    if rcc(pencil).value < -1e-9 or rgv(pencil).value < -1e-9:
        failures.append("contrast nonnegativity")

    # zero-diagonal pencil equivalence for n_s=2 (1e-8)
    m = pencil.m
    zero_diag = np.zeros((2 * m, 2 * m))
    zero_diag[:m, m:] = pencil.blocks[0, 1]
    zero_diag[m:, :m] = pencil.blocks[1, 0]
    diag = np.zeros((2 * m, 2 * m))
    diag[:m, :m] = pencil.blocks[0, 0] + gamma * np.eye(m)
    diag[m:, m:] = pencil.blocks[1, 1] + gamma * np.eye(m)
    rho_direct = float(np.max(scipy.linalg.eigh(zero_diag, diag, eigvals_only=True)))
    if not abs(rcc(pencil).value - (-0.5 * np.log(1.0 - rho_direct))) < 1e-8:
        failures.append("zero-diagonal equivalence")

    # end-to-end seed determinism: byte-identical CSV from repeated runs
    out = tmp_path / "det.csv"
    base = ["bench", "--pairs", "c,b", "--n", "250", "--reps", "3",
            "--methods", "fastica,rgv", "--seed", "1", "--m", "64",
            "--max-iters", "15", "--out", str(out)]
    assert cli_main(base) == 0
    first_bytes = out.read_bytes()
    assert cli_main(base) == 0
    header_ok = out.read_text().splitlines()[0].startswith("# rica")
    if not (out.read_bytes() == first_bytes and header_ok):
        failures.append("seed determinism")

    # finite-difference step-halving consistency
    spec = spec_by_label("c")
    data = Dataset(np.vstack([sample_source(spec, 800, seed=8),
                              sample_source(spec, 800, seed=1008)]))
    whitened, _ = whiten(data)
    q = plane_rotation(2, 0, 1, 0.5)
    cfg = OptimizerConfig(seed=9, contrast="rgv", m=64)
    grads = {}
    for step in (1e-3, 5e-4, 2.5e-4):
        grads[step] = finite_diff_gradient(q, whitened, cfg, step=step)[0]
    err_h = abs(grads[1e-3] - grads[5e-4])
    err_h2 = abs(grads[5e-4] - grads[2.5e-4])
    if not err_h2 <= 0.5 * err_h + 1e-8:
        failures.append("fd step-halving")

    report(8, "property suites", not failures,
           "all properties hold" if not failures else f"failed: {failures}")
    assert not failures
