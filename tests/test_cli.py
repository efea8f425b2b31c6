import argparse
import json
import wave

import numpy as np
import pytest

from rica import cli
from helpers import synthetic_tone
from rica.audio import write_wav
from rica.cli import main
from rica.data_model import Dataset, dataset_to_csv, mix, random_mixing_matrix
from rica.evaluation import ScalingStudy
from rica.optimizer import OptimizerConfig
from rica.source_bank import sample_source, spec_by_label


def run_cli(args):
    return main(args)


def test_help_exits_zero():
    with pytest.raises(SystemExit) as info:
        run_cli(["bench", "--help"])
    assert info.value.code == 0


def test_unknown_subcommand_exits_one(capsys):
    assert run_cli(["frobnicate"]) == 1


def test_no_subcommand_exits_one():
    assert run_cli([]) == 1


def test_seed_is_mandatory_for_stochastic_subcommands():
    assert run_cli(["bench", "--pairs", "c,b"]) == 1
    assert run_cli(["sweep", "--sources", "c,b"]) == 1
    assert run_cli(["kernel-bound"]) == 1


def test_sources_list(capsys):
    assert run_cli(["sources"]) == 0
    out = capsys.readouterr().out
    assert "label" in out and "student_t" in out


def test_bench_byte_identical_reruns(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    base = ["bench", "--pairs", "c,b", "--n", "250", "--reps", "3",
            "--methods", "fastica,rgv", "--seed", "1", "--m", "64",
            "--max-iters", "15"]
    assert run_cli(base + ["--out", str(out1)]) == 0
    assert run_cli(base + ["--out", str(out2)]) == 0
    text1, text2 = out1.read_text(), out2.read_text()
    assert text1.replace(str(out1), "X") == text2.replace(str(out2), "X")
    assert text1.startswith("# rica ")  # leading config comment
    assert "source_labels,N,method,seed,amari_x100,runtime_s" in text1
    summary = (tmp_path / "a.csv.summary.csv").read_text()
    assert "source_labels,method,mean_amari_x100" in summary
    assert "mean,RGV," in summary


def test_bench_timing_flag_breaks_nothing(tmp_path):
    out = tmp_path / "t.csv"
    args = ["bench", "--pairs", "c,b", "--n", "250", "--reps", "2",
            "--methods", "fastica", "--seed", "2", "--timing", "wall",
            "--out", str(out)]
    assert run_cli(args) == 0
    lines = out.read_text().strip().splitlines()
    assert not lines[-1].endswith(",")  # runtime column populated


def test_bench_rejects_unknown_method(tmp_path):
    args = ["bench", "--pairs", "c,b", "--seed", "1", "--methods", "jade",
            "--out", str(tmp_path / "x.csv")]
    assert run_cli(args) == 1


def test_sweep_writes_expected_schema(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    args = ["sweep", "--sources", "c,c", "--n", "400", "--contrast", "rgv",
            "--grid", "15", "--mix-angle", "30", "--seed", "3", "--m", "64",
            "--out", str(out)]
    assert run_cli(args) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[1] == "angle_degrees,contrast_value"
    assert len(lines) == 2 + 7  # header comment + schema + 0..90 step 15


def test_kernel_bound_columns_and_dominance(tmp_path):
    out = tmp_path / "kb.csv"
    args = ["kernel-bound", "--n", "200", "--sigma", "1.0", "--m-list", "50,100",
            "--seeds", "2", "--seed", "5", "--out", str(out)]
    assert run_cli(args) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[1] == "m,empirical_error_mean,analytic_bound"
    for line in lines[2:]:
        _, emp, bound = line.split(",")
        assert float(emp) <= float(bound)


def test_outliers_subcommand_writes_means(tmp_path):
    out = tmp_path / "outliers.csv"
    args = ["outliers", "--pair", "c,b", "--counts", "0,10", "--n", "300",
            "--reps", "3", "--methods", "fastica", "--seed", "6", "--m", "64",
            "--max-iters", "10", "--out", str(out)]
    assert run_cli(args) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[1] == "outlier_count,method,mean_amari_x100"
    assert len(lines) == 2 + 2  # one row per (count, method)


def test_scaling_subcommand_reports_exponents(tmp_path, capsys):
    out = tmp_path / "scaling.csv"
    args = ["scaling", "--plan", "rgv:400+800,kgv:100+200", "--reps", "2",
            "--seed", "8", "--out", str(out)]
    assert run_cli(args) == 0
    text = out.read_text()
    assert "method,N,median_seconds" in text
    assert "fitted exponents" in text
    assert "RGV" in capsys.readouterr().out


def test_unmix_writes_model_json(tmp_path):
    spec = spec_by_label("c")
    sources = Dataset(np.vstack([sample_source(spec, 500, seed=1),
                                 sample_source(spec, 500, seed=2)]))
    mixed = mix(sources, random_mixing_matrix(2, 1.0, 2.0, seed=3))
    csv_path = tmp_path / "mixed.csv"
    dataset_to_csv(mixed, csv_path)
    model_path = tmp_path / "model.json"
    out_path = tmp_path / "unmixed.csv"
    args = ["unmix", "--in", str(csv_path), "--contrast", "rgv", "--m", "64",
            "--restarts", "1", "--seed", "7", "--out-model", str(model_path),
            "--out", str(out_path)]
    assert run_cli(args) == 0
    payload = json.loads(model_path.read_text())
    assert payload["contrast"] == "RGV"
    assert np.shape(payload["rotation"]) == (2, 2)
    assert np.isfinite(payload["final_contrast"])
    # the recorded config rebuilds the one the fit ran with
    assert OptimizerConfig(**payload["config"]) == OptimizerConfig(m=64, restarts=1, seed=7,
                                                                   contrast="rgv")
    assert out_path.exists()


def test_unmix_byte_identical_reruns(tmp_path):
    spec = spec_by_label("c")
    sources = Dataset(np.vstack([sample_source(spec, 300, seed=1),
                                 sample_source(spec, 300, seed=2)]))
    csv_path = tmp_path / "mixed.csv"
    dataset_to_csv(mix(sources, random_mixing_matrix(2, 1.0, 2.0, seed=3)), csv_path)
    models = [tmp_path / "a.json", tmp_path / "b.json"]
    for model_path in models:
        assert run_cli(["unmix", "--in", str(csv_path), "--m", "32", "--restarts", "1",
                        "--seed", "7", "--out-model", str(model_path)]) == 0
    assert models[0].read_bytes() == models[1].read_bytes()


@pytest.mark.parametrize("args", [
    ["sweep", "--sources", "c,b", "--restarts", "2"],
    ["sweep", "--sources", "c,b", "--max-iters", "5"],
    ["separate", "--in1", "a.wav", "--in2", "b.wav", "--restarts", "2"],
])
def test_descent_flags_only_where_used(args):
    # sweep runs no descent and separate runs exactly one, so neither takes
    # --restarts and sweep takes no --max-iters
    assert run_cli(args + ["--seed", "1"]) == 1


def test_scaling_seed_reaches_the_study(monkeypatch, tmp_path):
    seen = []

    def fake_study(plan, config=None, repetitions=5):
        seen.append(config.seed)
        return ScalingStudy(points=[], exponents={})

    monkeypatch.setattr(cli, "run_scaling_study", fake_study)
    for seed in (3, 4):
        assert run_cli(["scaling", "--plan", "rgv:200+400", "--reps", "1",
                        "--seed", str(seed), "--out", str(tmp_path / "s.csv")]) == 0
    assert seen == [3, 4]


def test_separate_end_to_end(tmp_path):
    in1, in2 = tmp_path / "s1.wav", tmp_path / "s2.wav"
    write_wav(in1, synthetic_tone(440.0, 2.0, 8000))
    write_wav(in2, synthetic_tone(650.0, 2.0, 8000, phase=0.5))
    prefix = tmp_path / "out"
    args = ["separate", "--in1", str(in1), "--in2", str(in2), "--method", "rgv",
            "--seed", "4", "--m", "64", "--out-prefix", str(prefix)]
    assert run_cli(args) == 0
    assert (tmp_path / "out1.wav").exists() and (tmp_path / "out2.wav").exists()


def test_runtime_error_exits_two(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    args = ["unmix", "--in", str(missing), "--seed", "1",
            "--out-model", str(tmp_path / "m.json")]
    assert run_cli(args) == 2
    # a regularizer <= 0 is the contrast's error, not a usage error
    sweep = ["sweep", "--sources", "c,b", "--n", "100", "--grid", "45", "--seed", "1",
             "--out", str(tmp_path / "s.csv")]
    for flags in (["--gamma", "0"], ["--contrast", "kgv", "--kappa", "-1"]):
        assert run_cli(sweep + flags) == 2
        assert "SingularDiagonal" in capsys.readouterr().err


def _write_pcm(path, channels, width):
    with wave.open(str(path), "wb") as handle:
        handle.setnchannels(channels)
        handle.setsampwidth(width)
        handle.setframerate(8000)
        handle.writeframes(b"\x00" * channels * width * 2000)


@pytest.mark.parametrize("command, content, error", [
    ("unmix", "1,2,3\n4,5\n", "MalformedInput"),  # ragged rows
    ("unmix", "1,2,3\n4,x,6\n", "MalformedInput"),
    ("unmix", "1,2,3\n4,nan,6\n", "MalformedInput"),
    ("unmix", "1,2,3,4,5\n", "DimensionMismatch"),  # one component: nothing to unmix
    ("separate", (2, 2), "MalformedInput"),  # stereo
    ("separate", (1, 1), "MalformedInput"),  # 8-bit
    ("separate", b"not a wav file", "MalformedInput"),
])
def test_malformed_input_file_exits_two(command, content, error, tmp_path, capsys):
    # the CLI reports the reader's or the fit's RicaError; no traceback
    path = tmp_path / "input"
    if isinstance(content, tuple):
        _write_pcm(path, *content)
    else:
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
    good = tmp_path / "good.wav"
    write_wav(good, synthetic_tone(440.0, 1.0, 8000))
    args = {"unmix": ["unmix", "--in", str(path), "--out-model", str(tmp_path / "m.json")],
            "separate": ["separate", "--in1", str(good), "--in2", str(path),
                         "--out-prefix", str(tmp_path / "out")]}[command]
    assert run_cli(args + ["--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(f"rica: {error}: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["input", "good.wav"])


def _numeric_flags():
    """(subcommand, flag) for every option whose type= accepts the number 1 or 2."""
    subparsers = next(action for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    flags = []
    for command, parser in subparsers.choices.items():
        for action in parser._actions:
            if action.type is None or not action.option_strings:
                continue
            for number in ("1", "2"):
                try:
                    action.type(number)
                except (argparse.ArgumentTypeError, ValueError):
                    continue
                flags.append((command, action.option_strings[0]))
                break
    return flags


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command, flag", _numeric_flags())
def test_every_numeric_flag_refuses_non_finite_numbers(command, flag, value, tmp_path, capsys):
    # appended last to an otherwise valid (and small) invocation of the subcommand
    spec = spec_by_label("c")
    csv_path, wav1, wav2 = tmp_path / "in.csv", tmp_path / "in1.wav", tmp_path / "in2.wav"
    dataset_to_csv(Dataset(np.vstack([sample_source(spec, 200, seed=1),
                                      sample_source(spec, 200, seed=2)])), csv_path)
    write_wav(wav1, synthetic_tone(440.0, 1.0, 8000))
    write_wav(wav2, synthetic_tone(650.0, 1.0, 8000, phase=0.5))
    out = str(tmp_path / "out")
    small = ["--n", "100", "--reps", "1", "--max-iters", "2"]
    valid = {
        "bench": ["--pairs", "c,b", *small, "--out", out],
        "outliers": ["--pair", "c,b", "--counts", "0", *small, "--out", out],
        "scaling": ["--plan", "rgv:100+200", "--reps", "1", "--out", out],
        "sweep": ["--sources", "c,b", "--n", "100", "--grid", "45", "--out", out],
        "kernel-bound": ["--n", "100", "--m-list", "10", "--seeds", "1", "--out", out],
        "unmix": ["--in", str(csv_path), "--restarts", "1", "--out-model", out,
                  "--out", out + ".csv"],
        "separate": ["--in1", str(wav1), "--in2", str(wav2), "--max-iters", "2",
                     "--out-prefix", out],
    }[command]
    assert run_cli([command, "--seed", "1", *valid, flag, value]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith(f"rica: error: argument {flag}: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv", "in1.wav", "in2.wav"]


@pytest.mark.parametrize("args", [
    ["scaling", "--plan", "fastica:100+200"],
    ["scaling", "--plan", "rgv"],
    ["scaling", "--plan", "rgv:abc"],
    ["scaling", "--plan", "rgv:200"],
    ["scaling", "--plan", "rgv:1+100"],  # whitening needs two samples
    ["outliers", "--pair", "c,b", "--counts", "0,x"],
    ["outliers", "--pair", "c"],
    ["kernel-bound", "--m-list", "10,a"],
    ["bench", "--pairs", "c,zz"],
    ["bench", "--pairs", "c"],
    ["bench", "--pairs", "c,b", "--methods", "rgv,kgv_oracle"],
    ["sweep", "--sources", "c"],
    ["sweep", "--sources", "c,b,a"],
    ["bench", "--pairs", "c,b", "--m", "0"],
    ["bench", "--pairs", "c,b", "--max-iters", "0"],
    ["bench", "--pairs", "c,b", "--restarts", "0"],
    ["bench", "--pairs", "c,b", "--sigma", "0"],
    ["bench", "--pairs", "c,b", "--reps", "0"],
    ["bench", "--pairs", "c,b", "--n", "0"],
    ["bench", "--pairs", "c,b", "--seed", "-1"],
    ["sweep", "--sources", "c,b", "--grid", "0"],
    ["sweep", "--sources", "c,b", "--sigma", "nan"],
    ["kernel-bound", "--n", "1"],
    ["kernel-bound", "--seeds", "0"],
    ["scaling", "--reps", "0"],
    ["unmix", "--in", "x.csv", "--restarts", "0"],
    ["separate", "--in1", "a.wav", "--in2", "b.wav", "--fit-samples", "1"],
    ["unmix", "--in", "x.csv", "--gamma", "inf"],
    ["sweep", "--sources", "c,b", "--contrast", "rgv", "--gamma", "inf"],
    ["sweep", "--sources", "c,b", "--contrast", "kgv", "--kappa", "nan"],
    ["sweep", "--sources", "c,b", "--mix-angle", "nan"],
    ["sweep", "--sources", "c,b", "--grid", "1e-9"],  # 9e10 angles
    ["sweep", "--sources", "c,b", "--grid", "90.5"],  # the angle 0 alone
])
def test_malformed_list_argument_is_a_usage_error(args, capsys):
    # rejected by the parser, before any fit, naming the malformed (last)
    # argument: a list, or a number out of its range
    assert run_cli(args + ["--seed", "1"]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith(f"rica: error: argument {args[-2]}: ")


def test_every_subcommand_takes_the_contrast_tokens():
    parse = cli.build_parser().parse_args
    wavs = ["--in1", "a.wav", "--in2", "b.wav", "--seed", "1"]
    assert parse(["bench", "--pairs", "c,b", "--methods", "kcc,kgv",
                  "--seed", "1"]).methods == ("KCC", "KGV")
    assert parse(["scaling", "--plan", "kcc:100+200,kgv:100+200",
                  "--seed", "1"]).plan == {"KCC": (100, 200), "KGV": (100, 200)}
    for contrast in ("kcc", "kgv"):
        assert parse(["sweep", "--sources", "c,b", "--contrast", contrast,
                      "--seed", "1"]).contrast == contrast
        assert parse(["separate", "--method", contrast] + wavs).method == contrast
    assert run_cli(["separate", "--method", "kgv_oracle"] + wavs) == 1
    # unmix fits with random features only
    assert run_cli(["unmix", "--in", "x.csv", "--contrast", "kgv", "--seed", "1"]) == 1
