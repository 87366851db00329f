import os
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

from argdissect.cli import build_run_config, main, make_parser
from argdissect.learn import TrainConfig
from argdissect.pipeline import RunConfig
from argdissect.synth import SynthConfig, generate_corpus


def base_args(synth_dir, out):
    return [
        "--corpus-dir", synth_dir,
        "--split", os.path.join(synth_dir, "split.tsv"),
        "--embeddings", os.path.join(synth_dir, "embeddings.txt"),
        "--out", out,
        "--max-epochs", "200",
    ]


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 1


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1


def test_robustness_requires_mode(synth_dir, tmp_path, capsys):
    args = ["robustness"] + base_args(synth_dir, str(tmp_path))
    assert main(args) == 1


def test_synth_and_ingest(tmp_path, capsys):
    corpus = str(tmp_path / "c")
    assert main(["synth", "--out", corpus, "--docs", "6", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "generated 6" in out
    code = main(
        ["ingest", "--corpus-dir", corpus,
         "--split", os.path.join(corpus, "split.tsv"), "--task", "f"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "documents: 6" in out
    assert "layers:" in out
    assert "task f train:" in out


def test_run_writes_artifacts(synth_dir, tmp_path, capsys):
    out_dir = str(tmp_path / "out")
    args = ["run"] + base_args(synth_dir, out_dir) + ["--task", "f"]
    assert main(args) == 0
    printed = capsys.readouterr().out
    assert "macro F1:" in printed
    for name in ("model.txt", "report.tsv", "manifest.txt"):
        assert os.path.exists(os.path.join(out_dir, name))


def read_solver_rows(out_dir):
    lines = open(os.path.join(out_dir, "solver.tsv")).read().splitlines()
    header = lines[0].split("\t")
    assert header == [
        "model_type", "class", "newton_iterations", "epochs", "max_epochs", "converged",
        "max_pg", "dual",
    ]
    return [dict(zip(header, line.split("\t"))) for line in lines[1:]]


def test_run_writes_solver_convergence(synth_dir, tmp_path, capsys):
    # hinge: plain DCD from zero, which the epoch cap stops
    out_dir = str(tmp_path / "out")
    args = ["run"] + base_args(synth_dir, out_dir) + [
        "--task", "g", "--loss", "hinge", "--max-epochs", "3",
    ]
    assert main(args) == 0
    rows = read_solver_rows(out_dir)
    assert [r["class"] for r in rows] == ["support", "attack", "none"]
    for row in rows:
        assert row["model_type"] == "FA" and row["newton_iterations"] == "0"
        assert (row["epochs"], row["max_epochs"], row["converged"]) == ("3", "3", "false")
        assert float(row["max_pg"]) >= 1e-4 and float(row["dual"]) > 0.0
    err = capsys.readouterr().err
    assert err.count("warning:") == 1 and "3 of 3 solver machines" in err
    manifest = open(os.path.join(out_dir, "manifest.txt")).read()
    assert "solver.tsv sha256=" in manifest


def test_converged_run_does_not_warn(synth_dir, tmp_path, capsys):
    out_dir = str(tmp_path / "out")
    args = ["run"] + base_args(synth_dir, out_dir) + ["--task", "f", "--tolerance", "2"]
    assert main(args) == 0
    [row] = read_solver_rows(out_dir)  # a 2-class task trains one machine
    assert row["converged"] == "true" and int(row["epochs"]) < 200
    assert "warning" not in capsys.readouterr().err


@pytest.fixture(scope="module")
def tall_synth_dir(tmp_path_factory):
    """A corpus with more training rows than feature columns in every slice,
    so that squared-hinge machines take the Newton solve."""
    out = tmp_path_factory.mktemp("synth") / "corpus"
    generate_corpus(str(out), SynthConfig(n_docs=60, seed=7))
    return str(out)


@pytest.mark.parametrize(
    "command, machines",
    [(["anova"], ["FA support"]),
     (["robustness", "--mode", "randomized"], ["CB support", "CI support", "FA support"])],
    ids=["anova", "robustness"],
)
def test_every_trained_model_writes_solver_convergence(tall_synth_dir, tmp_path, capsys,
                                                       command, machines):
    out_dir = str(tmp_path / "out")
    # squared hinge: the Newton solution passes its certificate in one epoch
    assert main(command + base_args(tall_synth_dir, out_dir) + ["--max-epochs", "1"]) == 0
    rows = read_solver_rows(out_dir)
    assert [f"{r['model_type']} {r['class']}" for r in rows] == machines
    for row in rows:
        assert int(row["newton_iterations"]) > 0
        assert (row["epochs"], row["converged"]) == ("1", "true")
    assert "warning" not in capsys.readouterr().err
    manifest = open(os.path.join(out_dir, "manifest.txt")).read()
    assert "solver.tsv sha256=" in manifest

    # hinge stops at the one-epoch cap, and the command warns once
    args = command + base_args(tall_synth_dir, out_dir) + ["--loss", "hinge", "--max-epochs", "1"]
    assert main(args) == 0
    assert all(r["converged"] == "false" for r in read_solver_rows(out_dir))
    err = capsys.readouterr().err
    assert err.count("warning:") == 1
    assert f"{len(machines)} of {len(machines)} solver machines" in err


def test_cli_import_leaves_scipy_out():
    """The package needs only numpy: importing the CLI must not pull in scipy."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys, argdissect.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_baseline(synth_dir, tmp_path, capsys):
    out_dir = str(tmp_path / "out")
    args = ["baseline"] + base_args(synth_dir, out_dir) + ["--task", "f"]
    assert main(args) == 0
    printed = capsys.readouterr().out
    assert "mfs baseline" in printed
    assert os.path.exists(os.path.join(out_dir, "baseline.tsv"))
    manifest = open(os.path.join(out_dir, "manifest.txt")).read()
    assert "baseline.tsv sha256=" in manifest


def test_anova(synth_dir, tmp_path, capsys):
    out_dir = str(tmp_path / "out")
    args = ["anova"] + base_args(synth_dir, out_dir)
    assert main(args) == 0
    path = os.path.join(out_dir, "anova.tsv")
    assert os.path.exists(path)
    lines = [ln.split("\t") for ln in open(path).read().strip().split("\n")]
    types = {row[0] for row in lines}
    assert types == {"CB", "CI"}
    assert len(lines) == 2 * 101


def test_robustness_nocontext(synth_dir, tmp_path, capsys):
    out_dir = str(tmp_path / "out")
    args = ["robustness", "--mode", "nocontext"] + base_args(synth_dir, out_dir)
    assert main(args) == 0
    path = os.path.join(out_dir, "robustness_nocontext.tsv")
    assert os.path.exists(path)
    rows = [ln.split("\t") for ln in open(path).read().strip().split("\n")]
    models = {r[0] for r in rows}
    assert models == {"CB", "CI", "FA"}
    # CB is its own baseline, so its deltas are zero
    cb_macro = next(float(r[2]) for r in rows if r[0] == "CB" and r[1] == "macro")
    assert cb_macro == 0.0


def test_robustness_randomized(synth_dir, tmp_path, capsys):
    out_dir = str(tmp_path / "out")
    args = ["robustness", "--mode", "randomized"] + base_args(synth_dir, out_dir)
    assert main(args) == 0
    assert os.path.exists(os.path.join(out_dir, "robustness_randomized.tsv"))
    manifest = open(os.path.join(out_dir, "manifest.txt")).read()
    assert "embeddings.txt sha256=" in manifest


def test_transform(synth_dir, tmp_path, capsys):
    out_dir = str(tmp_path / "out")
    args = (
        ["transform", "--mode", "eau_only"]
        + base_args(synth_dir, out_dir)
    )
    assert main(args) == 0
    txts = [f for f in os.listdir(out_dir) if f.endswith(".txt") and f != "manifest.txt"]
    anns = [f for f in os.listdir(out_dir) if f.endswith(".ann")]
    assert len(anns) == 20
    assert len(txts) == 20
    manifest = open(os.path.join(out_dir, "manifest.txt")).read()
    assert manifest.count("output ") == 40


def test_empty_corpus_is_data_error(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    args = [
        "ingest", "--corpus-dir", str(empty), "--split", str(empty / "missing.tsv"),
    ]
    assert main(args) == 2
    assert "data error" in capsys.readouterr().err


def test_missing_required_option_is_data_error(capsys):
    assert main(["run", "--task", "f"]) == 2


def test_config_file_supplies_options(synth_dir, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# experiment settings\n"
        f"corpus_dir = {synth_dir}\n"
        f"split = {os.path.join(synth_dir, 'split.tsv')}\n"
        "task = f\n"
    )
    assert main(["ingest", "--config", str(cfg)]) == 0
    assert "task f train:" in capsys.readouterr().out


def test_cli_flag_overrides_config(synth_dir, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"corpus_dir = {synth_dir}\n"
        f"split = {os.path.join(synth_dir, 'split.tsv')}\n"
        "task = f\n"
    )
    assert main(["ingest", "--config", str(cfg), "--task", "l"]) == 0
    assert "task l train:" in capsys.readouterr().out


def test_unknown_config_key_is_data_error(synth_dir, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("corpus_dir = x\nsplit = y\nbogus = 1\n")
    assert main(["ingest", "--config", str(cfg)]) == 2
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize(
    "setting",
    [
        "--c abc",
        "--tolerance x",
        "--eval-seed z",
        "--max-epochs 0",
        "--seed -1",
        "--significance-n 5",
        "loss = bogus",
        "pairing_scope = bogus",
        "exclude_reverse = ture",
        "families = lexical,bogus",
    ],
)
def test_malformed_setting_is_data_error(synth_dir, tmp_path, capsys, setting):
    """A bad flag value or config-file line fails before any model is trained."""
    out_dir = tmp_path / "out"
    args = ["run"] + base_args(synth_dir, str(out_dir))
    if setting.startswith("--"):
        args += setting.split()
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(setting + "\n")
        args += ["--config", str(cfg)]
    assert main(args) == 2
    assert "data error" in capsys.readouterr().err
    assert not (out_dir / "model.txt").exists()


def test_missing_config_file_is_data_error(tmp_path, capsys):
    assert main(["ingest", "--config", str(tmp_path / "absent.cfg")]) == 2
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("broken", ["split", "embeddings", "corpus-dir", "tokens-encoding"])
def test_unreadable_input_is_data_error(synth_dir, tmp_path, capsys, broken):
    """A missing input file or directory, or a non-UTF-8 layer, exits 2 naming the path."""
    corpus = tmp_path / "corpus"
    shutil.copytree(synth_dir, corpus)
    args = {
        "corpus-dir": str(corpus),
        "split": str(corpus / "split.tsv"),
        "embeddings": str(corpus / "embeddings.txt"),
    }
    if broken == "tokens-encoding":
        bad = next(corpus.glob("*.tokens.tsv"))
        bad.write_bytes(bad.read_bytes() + b"\xff\n")
        culprit = str(bad)
    else:
        args[broken] = culprit = str(tmp_path / "absent")
    argv = ["ingest", "--task", "f"]
    for key, value in args.items():
        argv += ["--" + key, value]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "data error" in err and culprit in err


def test_crlf_offsets_error_names_the_line_endings(synth_dir, tmp_path, capsys):
    """A .txt with CRLF endings whose .ann offsets count the CR exits 2 saying so."""
    corpus = tmp_path / "corpus"
    shutil.copytree(synth_dir, corpus)
    ann = next(corpus.glob("*.ann"))
    txt = ann.with_suffix(".txt")
    text = txt.read_text()
    txt.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))

    def shifted(match):  # one more offset per line ending before the position
        start, end = int(match[2]), int(match[3])
        start, end = start + text[:start].count("\n"), end + text[:end].count("\n")
        return f"{match[1]} {start} {end}"

    ann.write_text(re.sub(r"(?m)^(T\S+\t\S+) (\d+) (\d+)", shifted, ann.read_text()))
    argv = ["ingest", "--task", "f", "--corpus-dir", str(corpus),
            "--split", str(corpus / "split.tsv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "CRLF line endings" in err and str(txt) in err


def test_crlf_hint_is_kept_to_offset_errors(synth_dir, tmp_path, capsys):
    """In a CRLF file, an error that offsets cannot cause does not blame line endings."""
    corpus = tmp_path / "corpus"
    shutil.copytree(synth_dir, corpus)
    ann = next(corpus.glob("*.ann"))
    txt = ann.with_suffix(".txt")
    txt.write_bytes(txt.read_bytes().replace(b"\n", b"\r\n"))
    first = ann.read_text().split("\n", 1)[0]
    ann.write_text(ann.read_text() + first + "\n")
    argv = ["ingest", "--task", "f", "--corpus-dir", str(corpus),
            "--split", str(corpus / "split.tsv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "duplicate annotation id" in err and "CRLF" not in err


def test_config_values_are_typed_and_unset_keys_keep_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "corpus_dir = c\nsplit = s\nexclude_reverse = YES\n"
        "families = lexical,structural\nc = 0.5\n"
    )
    config = build_run_config(make_parser().parse_args(["run", "--config", str(cfg)]))
    assert config == RunConfig(
        corpus_dir="c", split_path="s", exclude_reverse=True,
        families=("lexical", "structural"), train=TrainConfig(c=0.5),
    )
