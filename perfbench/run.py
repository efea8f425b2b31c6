#!/usr/bin/env python3
"""rica benchmark: whole-fit throughput and accuracy, with a traced per-layer split.

Run one workload:

    python3 perfbench/run.py --workload cb-1k --seed 1 --seconds 60 --trace 0

Run every workload, untraced and traced, each in its own process, and print
all metrics with their units, the tracing overhead and the routing check:

    python3 perfbench/run.py --workload all --seed 1 --seconds 60

The last line of a single-workload run is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. Details (environment,
per-op records, set-up breakdown, spans) go to `perfbench/out/`. Run it from
the root of a source checkout; rica is imported from `src/`.
"""

import time

PROCESS_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

# One BLAS thread: a single caller on a shared 2-CPU machine gives the
# steadiest timings, and nothing here is large enough to need more.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# Set-up is repeated this many times per run and its median reported.
SETUP_REPS = 3

# op_s.tail percentile. Every workload's min_ops leaves at least 22 ops beyond
# it. Higher percentiles also have 10 ops beyond them, but fit times cluster by
# objective evaluation count, and from p80 up the percentile jumped between
# clusters from seed to seed.
TAIL_PCT = 75

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_s.p50", "s"),
    ("op_s.tail", "s"),
    ("amari_x100.mean", "x100"),
    ("ok_frac", "frac"),
    ("peak_rss_mb", "MB"),
)

# Per-op means over the traced run's timed ops. Units ending in ".computed"
# are work counts derived from array shapes, not measurements.
PER_LAYER = (
    ("random_features.apply_feature_map.calls", "calls/op"),
    ("random_features.apply_feature_map.self_s", "s/op"),
    ("random_features.cos_evals", "cos/op.computed"),
    ("random_features.feature_bytes", "B/eval.computed"),
    ("contrast_engine.covariance_blocks.calls", "calls/op"),
    ("contrast_engine.covariance_blocks.self_s", "s/op"),
    ("contrast_engine.covariance_flops", "flop/op.computed"),
    ("contrast_engine.solve_pencil.calls", "calls/op"),
    ("contrast_engine.solve_pencil.self_s", "s/op"),
    ("contrast_engine.pencil_dim", "dim.computed"),
    ("contrast_engine.contrast.calls", "calls/op"),
    ("contrast_engine.contrast.self_s", "s/op"),
    ("contrast_engine.clamp_events", "count/op"),
    ("optimizer.objective_calls_per_op", "calls/op"),
    ("optimizer.iterations_per_op", "iters/op"),
    ("optimizer.givens_to_matrix.self_s", "s/op"),
    ("optimizer.fastica_baseline.self_s", "s/op"),
    ("optimizer.descend.self_s", "s/op"),
    ("optimizer.minimize_contrast.self_s", "s/op"),
    ("data_model.whiten.self_s", "s/op"),
    ("source_bank.sample_source.self_s", "s/op"),
    ("evaluation.run_single_trial.self_s", "s/op"),
    ("unattributed_s", "s/op"),
    ("linear_share", "frac"),
    ("traced.op_s.p50", "s"),
)

CONTRAST_SPANS = ("contrast_engine.rgv", "contrast_engine.rcc")

# What one op must repeat exactly in every run of the same code and seed.
REPEATED = ("input", "error", "amari", "objective_calls", "iterations")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(args, workload, np) -> dict:
    # numpy.__config__.CONFIG is new in numpy 1.26.
    config = getattr(np.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "blas_threads": BLAS_THREADS,
        "blas_env": {var: os.environ.get(var) for var in BLAS_VARS},
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "why": workload.why, "moves": workload.moves,
    }


def code_fingerprint() -> str:
    """Hash of the code that decides an op's output: rica's sources and the workloads."""
    digest = hashlib.sha256()
    for path in sorted(SRC.joinpath("rica").rglob("*.py")) + [HERE / "workloads.py"]:
        digest.update(path.read_bytes())
    return digest.hexdigest()


def compare_saved(workload: str, seed: int, fingerprint: str, records) -> tuple[list, list]:
    """Compare this run's ops with the saved runs of the same code, workload and seed.

    Each op both runs completed must repeat its REPEATED fields exactly, traced
    or not. Returns the saved files compared against and the mismatches found.
    """
    compared, problems = [], []
    for trace in (0, 1):
        path = OUT / f"{workload}-seed{seed}-trace{trace}.json"
        try:
            saved = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if saved.get("fingerprint") != fingerprint:
            continue
        compared.append(path.name)
        for old, new in zip(saved["records"], records):
            diff = {k: (old.get(k), new[k]) for k in REPEATED if old.get(k) != new[k]}
            if diff:
                problems.append(f"op {new['op']} differs from {path.name}: {diff}")
                break
    return compared, problems


def run_one(args) -> int:
    import numpy as np
    from rica import contrast_engine, evaluation, optimizer
    from rica.errors import RicaError
    from spans import COUNTED, Tracer
    from workloads import WORKLOADS, run_op

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    import_s = time.perf_counter() - PROCESS_START
    env = environment(args, workload, np)

    # Untraced, only the calls that give objective_calls and iterations are wrapped.
    tracer = Tracer()
    tracer.install({"rica.evaluation": evaluation, "rica.optimizer": optimizer,
                    "rica.contrast_engine": contrast_engine},
                   only=None if args.trace else COUNTED)
    clamp_count = getattr(contrast_engine, "clamp_event_count", None)
    if clamp_count is None:
        tracer.missing.append("rica.contrast_engine.clamp_event_count")
    problems = []

    def outcome(op_id, inp):
        """Run one op (the only timed part) and check its output."""
        tracer.begin_op(op_id)
        start = time.perf_counter()
        try:
            output, error = run_op(inp), None
        except RicaError as exc:
            output, error = None, type(exc).__name__
        seconds = time.perf_counter() - start
        tracer.end_op()
        record = {"op": op_id, "input": inp.describe(), "seconds": seconds,
                  "error": error, "amari": None}
        if error is None:
            record["amari"] = output.amari
            # A non-finite unmixing makes the Amari distance NaN.
            if not 0.0 <= output.amari <= 1.0:
                problems.append(f"op {op_id}: Amari distance {output.amari} outside [0, 1]")
        counts = tracer.counts[op_id]
        record["objective_calls"] = sum(counts[name] for name in CONTRAST_SPANS)
        record["iterations"] = counts["iterations"]
        return record

    # Set-up: input generation plus one warm-up op on a fixed input, repeated;
    # every repetition must give the same result.
    setup_reps, warmups = [], []
    for rep in range(SETUP_REPS):
        start = time.perf_counter()
        inputs = workload.inputs(args.seed)
        warm = outcome(-1 - rep, workload.warmup)
        setup_reps.append(time.perf_counter() - start)
        warmups.append({k: warm.get(k) for k in ("error", "amari", "objective_calls",
                                                 "iterations")})
    if any(w != warmups[0] for w in warmups):
        problems.append(f"warm-up op not deterministic: {warmups}")
    setup_s = import_s + statistics.median(setup_reps)
    setup_first_s = time.perf_counter() - PROCESS_START

    clamp_before = clamp_count() if clamp_count else 0
    records = []
    loop_start = time.perf_counter()
    while True:
        records.append(outcome(len(records), next(inputs)))
        elapsed = time.perf_counter() - loop_start
        if elapsed >= args.seconds and len(records) >= workload.min_ops:
            break
    clamp_events = (clamp_count() if clamp_count else 0) - clamp_before
    fingerprint = code_fingerprint()
    compared, mismatches = compare_saved(args.workload, args.seed, fingerprint, records)
    problems += mismatches

    ok = [r for r in records if r["error"] is None]
    failed = len(records) - len(ok)
    latencies = [r["seconds"] for r in ok]
    accuracy_ops = [r["amari"] for r in records[:workload.min_ops] if r["amari"] is not None]
    details = {
        "environment": env, "fingerprint": fingerprint, "compared_with": compared,
        "missing_targets": tracer.missing,
        "setup": {"import_s": import_s, "reps_s": setup_reps, "first_op_at_s": setup_first_s,
                  "warmup": warmups[0]},
        "ops": len(records), "tail_percentile": TAIL_PCT,
        "ops_beyond_tail": sum(1 for t in latencies if t > _percentile(latencies, TAIL_PCT)),
        "accuracy_ops": len(accuracy_ops),
        "failures": {name: sum(1 for r in records if r["error"] == name)
                     for name in sorted({r["error"] for r in records if r["error"]})},
        "problems": problems,
    }
    if not args.trace:
        values = {
            "setup_s": setup_s,
            "ops_per_s": len(ok) / elapsed,
            "op_s.p50": statistics.median(latencies) if latencies else math.nan,
            "op_s.tail": _percentile(latencies, TAIL_PCT),
            "amari_x100.mean": 100.0 * statistics.fmean(accuracy_ops) if accuracy_ops else math.nan,
            "ok_frac": len(ok) / len(records),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
    else:
        values = layer_metrics(tracer, len(records), clamp_events)
        values["traced.op_s.p50"] = statistics.median(latencies) if latencies else math.nan
        units = dict(PER_LAYER)

    correct = not problems and all(math.isfinite(v) for v in values.values())
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    details["records"] = records
    details["metrics"] = values
    stem.with_suffix(".json").write_text(json.dumps(details, indent=1))
    if args.trace:
        tracer.write_spans(stem.with_suffix(".spans.jsonl"))
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"environment": env, "setup": details["setup"],
                      "tail_percentile": TAIL_PCT, "failures": details["failures"],
                      "compared_with": compared}))
    print(json.dumps({
        "correct": correct, "attempted": len(records), "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


def _percentile(values, pct: int) -> float:
    if not values:
        return math.nan
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def layer_metrics(tracer, n_ops: int, clamp_events: int) -> dict:
    """Per-op means of self times and counts over the timed ops 0..n_ops-1."""
    from spans import ROOT

    op_ids = range(n_ops)
    self_s = tracer.self_times(op_ids)
    counts = sum((tracer.counts[i] for i in op_ids), start=Counter())

    def per_op(value):
        return value / n_ops

    def ratio(num, den):
        return num / den if den else 0.0

    contrast_calls = sum(counts[name] for name in CONTRAST_SPANS)
    contrast_self = sum(self_s.get(name, 0.0) for name in CONTRAST_SPANS)
    feature = self_s.get("random_features.apply_feature_map", 0.0)
    covariance = self_s.get("contrast_engine.covariance_blocks", 0.0)
    pencil = self_s.get("contrast_engine.solve_pencil", 0.0)
    values = {
        "contrast_engine.contrast.calls": per_op(contrast_calls),
        "contrast_engine.contrast.self_s": per_op(contrast_self),
        "contrast_engine.clamp_events": per_op(clamp_events),
        "optimizer.objective_calls_per_op": per_op(contrast_calls),
        "optimizer.iterations_per_op": per_op(counts["iterations"]),
        "random_features.cos_evals": per_op(counts["cos_evals"]),
        "random_features.feature_bytes": ratio(counts["feature_bytes"],
                                               counts["contrast_engine.covariance_blocks"]),
        "contrast_engine.covariance_flops": per_op(counts["covariance_flops"]),
        "contrast_engine.pencil_dim": ratio(counts["pencil_dim"],
                                            counts["contrast_engine.solve_pencil"]),
        "unattributed_s": per_op(self_s.get(ROOT, 0.0)),
        "linear_share": ratio(feature + covariance,
                              feature + covariance + pencil + contrast_self),
    }
    for name, _ in PER_LAYER:
        if name.endswith(".calls") and name not in values:
            values[name] = per_op(counts[name[:-len(".calls")]])
        elif name.endswith(".self_s") and name not in values:
            values[name] = per_op(self_s.get(name[:-len(".self_s")], 0.0))
    return values


def run_all(args) -> int:
    """Every workload untraced then traced, each run in its own process.

    The traced run compares its ops with the untraced run's, so its `correct`
    also covers the cross-run determinism check.
    """
    from workloads import WORKLOADS

    status = 0
    shares = {}
    for name in WORKLOADS:
        results = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=180 + 4 * args.seconds)
            if proc.returncode != 0:
                print(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            sys.stderr.write(proc.stderr)
            results[trace] = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"\n== {name}: {WORKLOADS[name].why}")
        for trace, result in results.items():
            print(f"   trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            status |= not result["correct"]
            for metric, entry in result["metrics"].items():
                print(f"   {metric:<44} {entry['value']:>14.6g} {entry['unit']}")
        untraced = results[0]["metrics"]["op_s.p50"]["value"]
        traced = results[1]["metrics"]["traced.op_s.p50"]["value"]
        print(f"   tracing overhead on op_s.p50: {traced - untraced:+.4f} s "
              f"({100 * (traced / untraced - 1):+.1f}%)")
        shares[name] = results[1]["metrics"]["linear_share"]["value"]
    # Routing as designed: features plus covariance dominate cb-2k-m100's
    # evaluations and take a clearly smaller share on cb-1k. It is checked here
    # and not in a single run's `correct`: an optimisation of one layer can
    # legitimately move these shares, and when it does the workloads must be
    # re-derived rather than their numbers read as before.
    linear, pencil = shares["cb-2k-m100"], shares["cb-1k"]
    routed = linear > 0.75 and linear - pencil > 0.15
    print(f"\nrouting: linear_share cb-2k-m100 {linear:.2f}, cb-1k {pencil:.2f}: "
          f"{'as designed' if routed else 'NOT as designed'}")
    return status | (not routed)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rica").is_dir():
        print(f"error: no rica sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
