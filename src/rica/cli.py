"""Command-line entry point: `rica <subcommand>`.

Exit codes: 0 success, 1 usage error, 2 runtime error. Every stochastic
subcommand requires --seed, prints its resolved configuration, and starts
each output file with a `#` comment recording version, config, and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .audio import read_wav, separate_audio, write_wav
from .contrast_engine import DEFAULT_GAMMA, DEFAULT_KAPPA, DEFAULT_M, DEFAULT_SIGMA
from .data_model import Dataset, dataset_from_csv, dataset_to_csv
from .errors import RicaError
from .evaluation import (METHODS, MIN_GRID_DEGREES, BenchmarkConfig, fit_unmixing,
                         records_to_csv_rows, rotation_sweep, run_benchmark, run_outlier_study,
                         run_scaling_study, summary_csv_rows, summary_table)
from .optimizer import CONTRASTS, KERNEL_CONTRASTS, OptimizerConfig
from .random_features import KernelSpec, approximation_error_bound, empirical_approx_error
from .source_bank import catalog, catalog_table, sample_source, spec_by_label

# Every subcommand names a method by its lowercase record label.
METHOD_TOKENS = tuple(method.lower() for method in METHODS)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; this CLI returns 1 for them.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _config(args: argparse.Namespace) -> str:
    return json.dumps({k: v for k, v in sorted(vars(args).items()) if k != "func"}, default=str)


def _header(args: argparse.Namespace, command: str) -> str:
    return f"rica {__version__} | command={command} | config={_config(args)}"


def _write_lines(path: str, header: str, lines: list[str]) -> None:
    with open(path, "w") as handle:
        handle.write(f"# {header}\n")
        for line in lines:
            handle.write(line + "\n")


# argparse `type=` functions: a malformed list or number exits 1 naming its argument.

def _tokens(text: str) -> list[str]:
    return [token.strip().lower() for token in text.split(",")]


def _method(token: str, valid: tuple[str, ...]) -> str:
    if token not in valid:
        raise argparse.ArgumentTypeError(f"unknown method {token!r}; valid: {','.join(valid)}")
    return token.upper()


def _methods_arg(text: str) -> tuple[str, ...]:
    return tuple(_method(token, METHOD_TOKENS) for token in _tokens(text))


def _int(text: str, minimum: int) -> int:
    if not (text.strip().isdecimal() and int(text) >= minimum):
        raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {text!r}")
    return int(text)


def _ints(text: str, minimum: int, separator: str = ",") -> tuple[int, ...]:
    return tuple(_int(token, minimum) for token in text.split(separator))


def _finite(text: str) -> float:
    value = float(text)  # argparse reports a ValueError as an invalid value
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _positive(text: str) -> float:
    value = _finite(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return value


def _grid_arg(text: str) -> float:
    # the sweep evaluates the contrast at the angles 0, step, 2 step, ... up to
    # 90: 9,001 of them at the finest step, 0 and 90 at the coarsest
    step = _positive(text)
    if not MIN_GRID_DEGREES <= step <= 90.0:
        raise argparse.ArgumentTypeError(
            f"expected a step from {MIN_GRID_DEGREES} to 90 degrees, got {text!r}")
    return step


def _plan_arg(text: str) -> dict[str, tuple[int, ...]]:
    plan = {}
    for chunk in _tokens(text):
        token, _, sizes = chunk.partition(":")
        method, counts = _method(token, CONTRASTS), _ints(sizes, 2, "+")
        # the runtime exponent is a fit over sizes, so each method needs two
        if method in plan or len(set(counts)) < 2:
            raise argparse.ArgumentTypeError(
                f"expected one method:N+N+... per method, with two or more N; got {chunk!r}")
        plan[method] = counts
    return plan


def _labels_arg(text: str, count: int | None = None) -> tuple[str, ...]:
    labels = tuple(_tokens(text))
    if (len(labels) < 2 or len(labels) != (count or len(labels))
            or not set(labels) <= {spec.label for spec in catalog()}):
        raise argparse.ArgumentTypeError(
            f"expected {count or 'two or more'} catalog labels (see `rica sources`), got {text!r}")
    return labels


def _bench_config(args, labels) -> BenchmarkConfig:
    return BenchmarkConfig(
        labels=labels, N=args.n, replicates=args.reps, methods=args.methods,
        master_seed=args.seed, m=args.m, gamma=args.gamma, kappa=args.kappa,
        sigma=args.sigma, restarts=args.restarts, max_iters=args.max_iters,
    )


def _cmd_sources(args) -> int:
    print(catalog_table())
    return 0


def _cmd_bench(args) -> int:
    records = run_benchmark(_bench_config(args, args.pairs))
    rows = records_to_csv_rows(records, include_runtime=args.timing == "wall")
    _write_lines(args.out, _header(args, "bench"), rows)
    summary_path = f"{args.out}.summary.csv"
    _write_lines(summary_path, _header(args, "bench-summary"), summary_csv_rows(records))
    print(summary_table(records))
    print(f"wrote {args.out} and {summary_path}")
    return 0


def _cmd_outliers(args) -> int:
    records = run_outlier_study(_bench_config(args, args.pair), counts=args.counts)
    rows = ["outlier_count,method,mean_amari_x100"]
    for count in args.counts:
        for method in args.methods:
            amaris = [r.amari for r in records
                      if r.config["outlier_count"] == count and r.method == method]
            rows.append(f"{count},{method},{repr(100.0 * float(np.mean(amaris)))}")
    _write_lines(args.out, _header(args, "outliers"), rows)
    print("\n".join(rows))
    return 0


def _cmd_scaling(args) -> int:
    study = run_scaling_study(args.plan, OptimizerConfig(seed=args.seed), repetitions=args.reps)
    rows = ["method,N,median_seconds"]
    for point in study.points:
        rows.append(f"{point.method},{point.N},{repr(point.median_seconds)}")
    rows.append("# fitted exponents: " + json.dumps(study.exponents))
    _write_lines(args.out, _header(args, "scaling"), rows)
    for method, exponent in study.exponents.items():
        print(f"{method}: runtime ~ N^{exponent:.2f}")
    return 0


def _cmd_sweep(args) -> int:
    samples = [sample_source(spec_by_label(label), args.n, seed=args.seed + k)
               for k, label in enumerate(args.sources)]
    sources = Dataset(np.vstack(samples))
    config = OptimizerConfig(m=args.m, gamma=args.gamma, kappa=args.kappa, sigma=args.sigma,
                             seed=args.seed, contrast=args.contrast)
    points = rotation_sweep(sources, config, grid_degrees=args.grid,
                            mix_angle_degrees=args.mix_angle)
    rows = ["angle_degrees,contrast_value"]
    rows += [f"{repr(angle)},{repr(value)}" for angle, value in points]
    _write_lines(args.out, _header(args, "sweep"), rows)
    best = min(points, key=lambda p: p[1])
    print(f"minimum {best[1]:.6f} at {best[0]:.1f} degrees "
          f"(expected near {(-args.mix_angle) % 90:.1f})")
    return 0


def _cmd_kernel_bound(args) -> int:
    rng = np.random.default_rng(args.seed)
    samples = rng.standard_normal(args.n)
    kernel = KernelSpec(sigma=args.sigma)
    rows = ["m,empirical_error_mean,analytic_bound"]
    for m in args.m_list:
        errors = [empirical_approx_error(kernel, samples, m, seed=args.seed + 1 + s)
                  for s in range(args.seeds)]
        rows.append(f"{m},{repr(float(np.mean(errors)))},"
                    f"{repr(approximation_error_bound(args.n, m))}")
    _write_lines(args.out, _header(args, "kernel-bound"), rows)
    print("\n".join(rows))
    return 0


def _cmd_unmix(args) -> int:
    data = dataset_from_csv(args.infile)
    config = OptimizerConfig(m=args.m, gamma=args.gamma, sigma=args.sigma,
                             seed=args.seed, restarts=args.restarts, contrast=args.contrast)
    unmixing, transform, model = fit_unmixing(data, config)
    payload = {
        "version": __version__,
        "seed": args.seed,
        "contrast": args.contrast.upper(),
        "final_contrast": model.final_contrast,
        "iterations": model.iterations,
        "whitening_mean": transform.mean.tolist(),
        "whitening_matrix": transform.matrix.tolist(),
        "rotation": model.rotation.tolist(),
        "unmixing_matrix": unmixing.tolist(),
        "config": asdict(config),
    }
    with open(args.out_model, "w") as handle:
        json.dump(payload, handle, indent=2)
    if args.out:
        unmixed = Dataset(unmixing @ (data.values - transform.mean[:, None]))
        dataset_to_csv(unmixed, args.out, comment=_header(args, "unmix"))
    print(f"final {args.contrast.upper()} = {model.final_contrast:.6f} "
          f"after {model.iterations} iterations; wrote {args.out_model}")
    return 0


def _cmd_separate(args) -> int:
    clips = (read_wav(args.in1), read_wav(args.in2))
    config = OptimizerConfig(m=args.m, gamma=args.gamma, kappa=args.kappa, sigma=args.sigma,
                             max_iters=args.max_iters, restarts=1, seed=args.seed,
                             contrast=args.method)
    (out1, out2), record = separate_audio(clips, config, already_mixed=args.already_mixed,
                                          fit_samples=args.fit_samples)
    write_wav(f"{args.out_prefix}1.wav", out1)
    write_wav(f"{args.out_prefix}2.wav", out2)
    amari_txt = "n/a" if record.amari is None else f"{100.0 * record.amari:.2f}"
    print(f"method={record.method} amari_x100={amari_txt} "
          f"runtime={record.runtime_seconds:.2f}s; wrote {args.out_prefix}{{1,2}}.wav")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="rica", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", metavar="subcommand")

    def add(name, func, helptext, seeded=True):
        p = sub.add_parser(name, help=helptext, description=helptext)
        p.set_defaults(func=func)
        if seeded:
            p.add_argument("--seed", type=lambda text: _int(text, 0), required=True,
                           help="master seed (required; all randomness derives from it)")
        return p

    add("sources", _cmd_sources, "list the 18-entry source density catalog", seeded=False)

    p = add("bench", _cmd_bench, "replicated separation benchmark")
    p.add_argument("--pairs", required=True, help="two or more catalog labels 'c,b', or 'rand'",
                   type=lambda text: "rand" if text == "rand" else _labels_arg(text))
    p.add_argument("--timing", choices=["none", "wall"], default="none",
                   help="'wall' records runtimes (breaks byte-identical reruns)")
    _bench_flags(p, reps=100, out="bench.csv")

    p = add("outliers", _cmd_outliers, "robustness to injected outliers")
    p.add_argument("--pair", type=_labels_arg, required=True,
                   help="two or more catalog labels 'c,b'")
    p.add_argument("--counts", type=lambda text: _ints(text, 0), default="0,5,10,25")
    _bench_flags(p, reps=50, out="outliers.csv")

    p = add("scaling", _cmd_scaling, "contrast-evaluation runtime scaling")
    p.add_argument("--plan", type=_plan_arg,
                   default="rgv:4000+8000+16000+32000+64000,kgv:250+500+1000",
                   help=f"method:N+N+... pairs, comma separated; methods: {','.join(CONTRASTS)}")
    p.add_argument("--reps", type=lambda text: _int(text, 1), default=5)
    p.add_argument("--out", default="scaling.csv")

    p = add("sweep", _cmd_sweep, "contrast value versus unmixing angle")
    p.add_argument("--sources", type=lambda text: _labels_arg(text, 2), required=True,
                   help="two catalog labels 'c,b'")
    p.add_argument("--n", type=lambda text: _int(text, 2), default=1000)
    p.add_argument("--contrast", choices=CONTRASTS, default="rgv")
    p.add_argument("--grid", type=_grid_arg, default=1.0,
                   help=f"grid step in degrees, from {MIN_GRID_DEGREES} to 90")
    p.add_argument("--mix-angle", type=_finite, default=30.0,
                   help="mixing rotation in degrees; minimum expected at (-angle) mod 90")
    p.add_argument("--out", default="sweep.csv")
    _common_contrast_flags(p)

    p = add("kernel-bound", _cmd_kernel_bound, "empirical vs analytic feature-map error")
    p.add_argument("--n", type=lambda text: _int(text, 2), default=1000)
    p.add_argument("--sigma", type=_positive, default=DEFAULT_SIGMA)
    p.add_argument("--m-list", type=lambda text: _ints(text, 1), default="100,200,400,800,1600")
    p.add_argument("--seeds", type=lambda text: _int(text, 1), default=10)
    p.add_argument("--out", default="kernel_bound.csv")

    p = add("unmix", _cmd_unmix, "unmix a CSV dataset, write the model as JSON")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--contrast", default="rgv",
                   choices=[c for c in CONTRASTS if c not in KERNEL_CONTRASTS])
    p.add_argument("--restarts", type=lambda text: _int(text, 1), default=3)
    p.add_argument("--out-model", default="model.json")
    p.add_argument("--out", default=None, help="optional CSV of unmixed data")
    p.add_argument("--m", type=lambda text: _int(text, 1), default=DEFAULT_M)
    p.add_argument("--gamma", type=_finite, default=DEFAULT_GAMMA)
    p.add_argument("--sigma", type=_positive, default=DEFAULT_SIGMA)

    p = add("separate", _cmd_separate, "separate two WAV clips")
    p.add_argument("--in1", required=True)
    p.add_argument("--in2", required=True)
    p.add_argument("--method", choices=CONTRASTS, default="rgv")
    p.add_argument("--already-mixed", action="store_true",
                   help="treat inputs as recorded mixtures (no ground truth)")
    p.add_argument("--fit-samples", type=lambda text: _int(text, 2), default=8000)
    p.add_argument("--max-iters", type=lambda text: _int(text, 1), default=50)
    p.add_argument("--out-prefix", default="unmixed")
    _common_contrast_flags(p)
    return parser


def _bench_flags(p, reps: int, out: str) -> None:
    p.add_argument("--n", type=lambda text: _int(text, 2), default=1000)
    p.add_argument("--reps", type=lambda text: _int(text, 1), default=reps)
    p.add_argument("--methods", type=_methods_arg, default="fastica,rgv",
                   help=f"comma list from {','.join(METHOD_TOKENS)}")
    p.add_argument("--out", default=out)
    p.add_argument("--restarts", type=lambda text: _int(text, 1), default=1)
    p.add_argument("--max-iters", type=lambda text: _int(text, 1), default=50)
    _common_contrast_flags(p)


def _common_contrast_flags(p) -> None:
    p.add_argument("--m", type=lambda text: _int(text, 1), default=DEFAULT_M)
    p.add_argument("--gamma", type=_finite, default=DEFAULT_GAMMA)
    p.add_argument("--kappa", type=_finite, default=DEFAULT_KAPPA)
    p.add_argument("--sigma", type=_positive, default=DEFAULT_SIGMA)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "command", None) is None:
            parser.print_usage(sys.stderr)
            return 1
        print(f"# rica {__version__} resolved config: {_config(args)}")
        return args.func(args)
    except _UsageError as exc:
        print(f"rica: error: {exc}", file=sys.stderr)
        return 1
    except RicaError as exc:
        print(f"rica: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"rica: {exc}", file=sys.stderr)
        return 2


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
