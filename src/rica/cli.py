"""Command-line entry point: `rica <subcommand>`.

Exit codes: 0 success, 1 usage error, 2 runtime error. Every stochastic
subcommand requires --seed, prints its resolved configuration, and starts
each output file with a `#` comment recording version, config, and seed.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .audio import read_wav, separate_audio, write_wav
from .contrast_engine import DEFAULT_GAMMA, DEFAULT_KAPPA, DEFAULT_M, DEFAULT_SIGMA
from .data_model import Dataset, dataset_from_csv, dataset_to_csv, whiten
from .errors import RicaError
from .evaluation import (BenchmarkConfig, records_to_csv_rows, rotation_sweep,
                         run_benchmark, run_outlier_study, run_scaling_study,
                         summary_csv_rows, summary_table)
from .optimizer import OptimizerConfig, minimize_contrast
from .random_features import KernelSpec, approximation_error_bound, empirical_approx_error
from .source_bank import catalog_table, sample_source, spec_by_label


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the CLI contract is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _header(args: argparse.Namespace, command: str) -> str:
    config = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    return f"rica {__version__} | command={command} | config={json.dumps(config, default=str)}"


def _write_lines(path: str, header: str, lines: list[str]) -> None:
    with open(path, "w") as handle:
        handle.write(f"# {header}\n")
        for line in lines:
            handle.write(line + "\n")


def _parse_methods(text: str) -> tuple[str, ...]:
    aliases = {"fastica": "FASTICA", "rcc": "RCC", "rgv": "RGV",
               "kcc": "KCC_ORACLE", "kgv": "KGV_ORACLE"}
    methods = []
    for token in text.split(","):
        token = token.strip().lower()
        if token not in aliases:
            raise _UsageError(f"unknown method {token!r}; choose from {sorted(aliases)}")
        methods.append(aliases[token])
    return tuple(methods)


def _bench_config(args, labels) -> BenchmarkConfig:
    return BenchmarkConfig(
        labels=labels, N=args.n, replicates=args.reps, methods=_parse_methods(args.methods),
        master_seed=args.seed, m=args.m, gamma=args.gamma, kappa=args.kappa,
        sigma=args.sigma, restarts=args.restarts, max_iters=args.max_iters,
    )


def _cmd_sources(args) -> int:
    print(catalog_table())
    return 0


def _cmd_bench(args) -> int:
    labels = "rand" if args.pairs == "rand" else tuple(args.pairs.split(","))
    config = _bench_config(args, labels)
    records = run_benchmark(config)
    rows = records_to_csv_rows(records, include_runtime=args.timing == "wall")
    _write_lines(args.out, _header(args, "bench"), rows)
    summary_path = f"{args.out}.summary.csv"
    _write_lines(summary_path, _header(args, "bench-summary"), summary_csv_rows(records))
    print(summary_table(records))
    print(f"wrote {args.out} and {summary_path}")
    return 0


def _cmd_outliers(args) -> int:
    labels = tuple(args.pair.split(","))
    config = _bench_config(args, labels)
    counts = tuple(int(c) for c in args.counts.split(","))
    records = run_outlier_study(config, counts=counts)
    rows = ["outlier_count,method,mean_amari_x100"]
    for count in counts:
        subset = [r for r in records if r.config["outlier_count"] == count]
        means: dict[str, list[float]] = {}
        for rec in subset:
            means.setdefault(rec.method, []).append(rec.amari)
        for method in config.methods:
            rows.append(f"{count},{method},{repr(100.0 * float(np.mean(means[method])))}")
    _write_lines(args.out, _header(args, "outliers"), rows)
    print("\n".join(rows))
    return 0


def _cmd_scaling(args) -> int:
    sizes = {method: tuple(int(n) for n in spec.split(":")[1].split("+"))
             for method, spec in
             ((chunk.split(":")[0], chunk) for chunk in args.plan.split(","))}
    plan = {m.upper() if m.upper() in ("RCC", "RGV") else m.upper() + "_ORACLE": ns
            for m, ns in sizes.items()}
    study = run_scaling_study(plan, repetitions=args.reps)
    rows = ["method,N,median_seconds"]
    for point in study.points:
        rows.append(f"{point.method},{point.N},{repr(point.median_seconds)}")
    rows.append("# fitted exponents: " + json.dumps(study.exponents))
    _write_lines(args.out, _header(args, "scaling"), rows)
    for method, exponent in study.exponents.items():
        print(f"{method}: runtime ~ N^{exponent:.2f}")
    return 0


def _cmd_sweep(args) -> int:
    rows_a = sample_source(spec_by_label(args.sources.split(",")[0]), args.n,
                           seed=args.seed)
    rows_b = sample_source(spec_by_label(args.sources.split(",")[1]), args.n,
                           seed=args.seed + 1)
    sources = Dataset(np.vstack([rows_a, rows_b]), source=args.sources)
    points = rotation_sweep(sources, contrast=args.contrast, grid_degrees=args.grid,
                            seed=args.seed, mix_angle_degrees=args.mix_angle,
                            m=args.m, gamma=args.gamma, kappa=args.kappa,
                            sigma=args.sigma)
    rows = ["angle_degrees,contrast_value"]
    rows += [f"{repr(angle)},{repr(value)}" for angle, value in points]
    _write_lines(args.out, _header(args, "sweep"), rows)
    best = min(points, key=lambda p: p[1])
    print(f"minimum {best[1]:.6f} at {best[0]:.1f} degrees "
          f"(expected near {(-args.mix_angle) % 90:.1f})")
    return 0


def _cmd_kernel_bound(args) -> int:
    rng = np.random.default_rng(args.seed)
    data = Dataset(rng.standard_normal((1, args.n)), source="kernel-bound")
    kernel = KernelSpec(sigma=args.sigma)
    rows = ["m,empirical_error_mean,analytic_bound"]
    for m in (int(tok) for tok in args.m_list.split(",")):
        errors = [empirical_approx_error(kernel, data, m, seed=args.seed + 1 + s,
                                         oracle_limit=max(args.n, 4000))
                  for s in range(args.seeds)]
        rows.append(f"{m},{repr(float(np.mean(errors)))},"
                    f"{repr(approximation_error_bound(args.n, m))}")
    _write_lines(args.out, _header(args, "kernel-bound"), rows)
    print("\n".join(rows))
    return 0


def _cmd_unmix(args) -> int:
    data = dataset_from_csv(args.infile)
    whitened, transform = whiten(data)
    config = OptimizerConfig(m=args.m, gamma=args.gamma, sigma=args.sigma,
                             seed=args.seed, restarts=args.restarts,
                             contrast=args.contrast, init=args.init)
    model = minimize_contrast(whitened, config, whitening=transform)
    payload = {
        "version": __version__,
        "seed": args.seed,
        "contrast": model.contrast_name,
        "final_contrast": model.final_contrast,
        "iterations": model.iterations,
        "wall_clock_seconds": model.wall_clock_seconds,
        "whitening_mean": model.whitening.mean.tolist(),
        "whitening_matrix": model.whitening.matrix.tolist(),
        "rotation": model.rotation.tolist(),
        "unmixing_matrix": model.full_matrix().tolist(),
        "config": {"m": args.m, "gamma": args.gamma, "sigma": args.sigma,
                   "restarts": args.restarts, "init": args.init},
    }
    with open(args.out_model, "w") as handle:
        json.dump(payload, handle, indent=2)
    if args.out:
        unmixed = Dataset(model.full_matrix() @ (data.values - model.whitening.mean[:, None]))
        dataset_to_csv(unmixed, args.out, comment=_header(args, "unmix"))
    print(f"final {model.contrast_name} = {model.final_contrast:.6f} "
          f"after {model.iterations} iterations; wrote {args.out_model}")
    return 0


def _cmd_separate(args) -> int:
    clips = (read_wav(args.in1), read_wav(args.in2))
    config = BenchmarkConfig(labels=("audio", "audio"), m=args.m, gamma=args.gamma,
                             kappa=args.kappa, sigma=args.sigma, restarts=1,
                             max_iters=args.max_iters)
    (out1, out2), record = separate_audio(
        clips, method=args.method, config=config, seed=args.seed,
        already_mixed=args.already_mixed, fit_samples=args.fit_samples)
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
            p.add_argument("--seed", type=int, required=True,
                           help="master seed (required; all randomness derives from it)")
        return p

    p = add("sources", _cmd_sources, "list the 18-entry source density catalog", seeded=False)
    p.add_argument("--list", action="store_true", help="print the catalog table")

    p = add("bench", _cmd_bench, "replicated separation benchmark")
    p.add_argument("--pairs", required=True, help="two labels 'c,b' or 'rand'")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--methods", default="fastica,rgv",
                   help="comma list from fastica,rcc,rgv,kcc,kgv")
    p.add_argument("--out", default="bench.csv")
    p.add_argument("--timing", choices=["none", "wall"], default="none",
                   help="'wall' records runtimes (breaks byte-identical reruns)")
    _common_contrast_flags(p)

    p = add("outliers", _cmd_outliers, "robustness to injected outliers")
    p.add_argument("--pair", required=True, help="two labels 'c,b'")
    p.add_argument("--counts", default="0,5,10,25")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--reps", type=int, default=50)
    p.add_argument("--methods", default="fastica,rgv")
    p.add_argument("--out", default="outliers.csv")
    _common_contrast_flags(p)

    p = add("scaling", _cmd_scaling, "contrast-evaluation runtime scaling")
    p.add_argument("--plan", default="rgv:1000+2000+4000+8000,kgv:250+500+1000",
                   help="method:N+N+... pairs, comma separated")
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--out", default="scaling.csv")

    p = add("sweep", _cmd_sweep, "contrast value versus unmixing angle")
    p.add_argument("--sources", required=True, help="two labels 'c,b'")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--contrast", choices=["rcc", "rgv", "kcc", "kgv"], default="rgv")
    p.add_argument("--grid", type=float, default=1.0, help="grid step in degrees")
    p.add_argument("--mix-angle", type=float, default=30.0,
                   help="mixing rotation in degrees; minimum expected at (-angle) mod 90")
    p.add_argument("--out", default="sweep.csv")
    _common_contrast_flags(p)

    p = add("kernel-bound", _cmd_kernel_bound, "empirical vs analytic feature-map error")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--sigma", type=float, default=DEFAULT_SIGMA)
    p.add_argument("--m-list", default="100,200,400,800,1600")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--out", default="kernel_bound.csv")

    p = add("unmix", _cmd_unmix, "unmix a CSV dataset, write the model as JSON")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--contrast", choices=["rcc", "rgv"], default="rgv")
    p.add_argument("--init", choices=["random", "fastica"], default="fastica")
    p.add_argument("--restarts", type=int, default=3)
    p.add_argument("--out-model", default="model.json")
    p.add_argument("--out", default=None, help="optional CSV of unmixed data")
    p.add_argument("--m", type=int, default=DEFAULT_M)
    p.add_argument("--gamma", type=float, default=DEFAULT_GAMMA)
    p.add_argument("--sigma", type=float, default=DEFAULT_SIGMA)

    p = add("separate", _cmd_separate, "separate two WAV clips")
    p.add_argument("--in1", required=True)
    p.add_argument("--in2", required=True)
    p.add_argument("--method", choices=["rcc", "rgv", "kcc_oracle", "kgv_oracle"],
                   default="rgv")
    p.add_argument("--already-mixed", action="store_true",
                   help="treat inputs as recorded mixtures (no ground truth)")
    p.add_argument("--fit-samples", type=int, default=8000)
    p.add_argument("--max-iters", type=int, default=50)
    p.add_argument("--out-prefix", default="unmixed")
    _common_contrast_flags(p)
    return parser


def _common_contrast_flags(p) -> None:
    p.add_argument("--m", type=int, default=DEFAULT_M)
    p.add_argument("--gamma", type=float, default=DEFAULT_GAMMA)
    p.add_argument("--kappa", type=float, default=DEFAULT_KAPPA)
    p.add_argument("--sigma", type=float, default=DEFAULT_SIGMA)
    if not any(a.dest == "restarts" for a in p._actions):
        p.add_argument("--restarts", type=int, default=1)
    if not any(a.dest == "max_iters" for a in p._actions):
        p.add_argument("--max-iters", type=int, default=50)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "command", None) is None:
            parser.print_usage(sys.stderr)
            return 1
        config = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
        print(f"# rica {__version__} resolved config: {json.dumps(config, default=str)}")
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
