import argparse
import gc
import os
import pathlib
import re
import shlex
import shutil
import subprocess
import sys

import pytest

from argdissect import cli, pipeline
from argdissect.annotations import MAX_TREE_DEPTH
from argdissect.cli import build_run_config, main, make_parser
from argdissect.errors import DataError
from argdissect.evaluation import randomize_contexts, strip_contexts
from argdissect.features import CB, CI, FA, MODEL_TYPES, FeatureRegistry
from argdissect.learn import LinearModel, TrainConfig
from argdissect.pipeline import RunConfig, write_features_tsv
from argdissect.synth import SynthConfig, generate_corpus

from conftest import reference_assemble


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
    lines = pathlib.Path(out_dir, "solver.tsv").read_text().splitlines()
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
    manifest = pathlib.Path(out_dir, "manifest.txt").read_text()
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
    manifest = pathlib.Path(out_dir, "manifest.txt").read_text()
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


@pytest.mark.parametrize("max_epochs, imported", [("1", False), ("200", True)])
def test_numpy_random_is_imported_only_for_coordinate_epochs(
    synth_dir, tmp_path, max_epochs, imported
):
    """``anova --max-epochs 1`` certifies every machine after Newton's method
    and runs no coordinate epoch, so it never imports ``numpy.random``; a
    hinge job's epochs do."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    args = ["anova"] + base_args(synth_dir, str(tmp_path / "out"))[:-2] + [
        "--task", "g", "--max-epochs", max_epochs,
    ] + (["--loss", "hinge"] if imported else [])
    code = (
        "import sys; from argdissect.cli import main; "
        f"assert main({args!r}) == 0; print('numpy.random' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == str(imported)


def test_baseline(synth_dir, tmp_path, capsys):
    out_dir = str(tmp_path / "out")
    args = ["baseline"] + base_args(synth_dir, out_dir) + ["--task", "f"]
    assert main(args) == 0
    printed = capsys.readouterr().out
    assert "mfs baseline" in printed
    assert os.path.exists(os.path.join(out_dir, "baseline.tsv"))
    manifest = pathlib.Path(out_dir, "manifest.txt").read_text()
    assert "baseline.tsv sha256=" in manifest


def test_anova(synth_dir, tmp_path, capsys):
    out_dir = str(tmp_path / "out")
    args = ["anova"] + base_args(synth_dir, out_dir)
    assert main(args) == 0
    path = os.path.join(out_dir, "anova.tsv")
    assert os.path.exists(path)
    lines = [ln.split("\t") for ln in pathlib.Path(path).read_text().strip().split("\n")]
    types = {row[0] for row in lines}
    assert types == {"CB", "CI"}
    assert len(lines) == 2 * 101


def test_robustness_nocontext(synth_dir, tmp_path, capsys):
    out_dir = str(tmp_path / "out")
    args = ["robustness", "--mode", "nocontext"] + base_args(synth_dir, out_dir)
    assert main(args) == 0
    path = os.path.join(out_dir, "robustness_nocontext.tsv")
    assert os.path.exists(path)
    rows = [ln.split("\t") for ln in pathlib.Path(path).read_text().strip().split("\n")]
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
    manifest = pathlib.Path(out_dir, "manifest.txt").read_text()
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
    manifest = pathlib.Path(out_dir, "manifest.txt").read_text()
    assert manifest.count("output ") == 40


def test_transform_reads_only_text_and_annotations(synth_dir, tmp_path, capsys):
    """Without token layers and with a malformed tree file, ``transform`` writes
    the same documents as from the intact corpus."""
    corpus = tmp_path / "corpus"
    shutil.copytree(synth_dir, corpus)
    for tokens in corpus.glob("*.tokens.tsv"):
        tokens.unlink()
    next(corpus.glob("*.trees")).write_text("(S (NP\n")
    outputs = {}
    for name, source in (("intact", synth_dir), ("stripped", str(corpus))):
        out_dir = tmp_path / name
        assert main(["transform", "--mode", "context_only"] + base_args(source, str(out_dir))) == 0
        outputs[name] = {
            f.name: f.read_bytes() for f in out_dir.iterdir() if f.name != "manifest.txt"
        }
    assert len(outputs["intact"]) == 40
    assert outputs["stripped"] == outputs["intact"]


def _break_first_tree_line(trees):
    """Drop the closing bracket of the file's first tree, keeping its labels."""
    first, rest = trees.read_text(encoding="utf-8").split("\n", 1)
    assert first.endswith(")") and "|s=" in first
    trees.write_text(first[:-1] + "\n" + rest, encoding="utf-8")


def test_each_command_checks_the_side_views_it_reads(synth_dir, tmp_path, capsys):
    """A test document loses its tree file and the tokens of one EAU's words;
    in another corpus its tree file cannot be parsed.  ``ingest`` (the corpus
    validator) and ``run`` read the test views and stop on either; ``anova``
    and ``baseline`` read none and write what they write when only the tree
    file is gone, or on the intact corpus."""
    split = (pathlib.Path(synth_dir) / "split.tsv").read_text(encoding="utf-8")
    doc = sorted(line.split("\t")[0] for line in split.splitlines() if line.endswith("\ttest"))[0]
    corpora = {"intact": pathlib.Path(synth_dir)}
    for name in ("no_trees", "broken", "bad_trees"):
        corpora[name] = tmp_path / name
        shutil.copytree(synth_dir, corpora[name])
    for name in ("no_trees", "broken"):
        (corpora[name] / f"{doc}.trees").unlink()
    bad_trees = corpora["bad_trees"] / f"{doc}.trees"
    _break_first_tree_line(bad_trees)
    broken = corpora["broken"]
    ann = (broken / f"{doc}.ann").read_text(encoding="utf-8")
    source = re.search(r"^R\S*\t\S+ Arg1:(\S+)", ann, re.M).group(1)
    start, end = map(int, re.search(rf"^{source}\t\S+ (\d+) (\d+)", ann, re.M).groups())
    tokens = broken / f"{doc}.tokens.tsv"
    lines = tokens.read_text(encoding="utf-8").splitlines()
    kept = [line for line in lines
            if not (int(line.split("\t")[2]) < end and int(line.split("\t")[3]) > start)]
    assert len(kept) < len(lines)
    tokens.write_text("\n".join(kept) + "\n", encoding="utf-8")

    for command in ("ingest", "run"):
        for name, message in (
            ("broken", f"data error: EAU {source} overlaps no tokens"),
            ("bad_trees", f"data error: {bad_trees}: line 1: unbalanced brackets: missing ')'"),
        ):
            out_dir = tmp_path / f"{command}-{name}"
            assert main([command, "--task", "g"] + base_args(str(corpora[name]), str(out_dir))) == 2
            assert message in capsys.readouterr().err
            assert not (out_dir / "model.txt").exists()
    for command, output in (("anova", "anova.tsv"), ("baseline", "baseline.tsv")):
        written = {}
        for name, corpus in corpora.items():
            out_dir = tmp_path / f"{command}-{name}"
            assert main([command, "--task", "g"] + base_args(str(corpus), str(out_dir))) == 0
            written[name] = (out_dir / output).read_bytes()
        assert written["no_trees"] == written["broken"] and written["no_trees"]
        assert written["intact"] == written["bad_trees"]


def test_ingest_checks_the_layers_of_a_document_without_instances(synth_dir, tmp_path, capsys):
    """A document without relations yields no task-f instance, so no view
    reads its layers: ``run`` never parses its malformed tree file, and
    ``ingest`` parses every layer file and stops on it, naming the line."""
    corpus = tmp_path / "corpus"
    shutil.copytree(synth_dir, corpus)
    ann = sorted(corpus.glob("*.ann"))[0]
    lines = ann.read_text(encoding="utf-8").splitlines()
    assert any(line.startswith("R") for line in lines)
    ann.write_text("".join(line + "\n" for line in lines if not line.startswith("R")), "utf-8")
    trees = ann.with_suffix(".trees")
    _break_first_tree_line(trees)
    assert main(["run", "--task", "f"] + base_args(str(corpus), str(tmp_path / "run"))) == 0
    capsys.readouterr()
    assert main(["ingest", "--task", "f"] + base_args(str(corpus), str(tmp_path / "ingest"))) == 2
    err = capsys.readouterr().err
    assert f"data error: {trees}: line 1: unbalanced brackets: missing ')'" in err


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


def test_a_family_listed_twice_is_a_data_error(synth_dir, tmp_path, capsys):
    out_dir = tmp_path / "out"
    args = ["run"] + base_args(synth_dir, str(out_dir)) + ["--families", "lexical,lexical"]
    assert main(args) == 2
    assert "feature family listed twice: lexical" in capsys.readouterr().err
    assert not (out_dir / "model.txt").exists()
    with pytest.raises(ValueError, match="listed twice: lexical"):
        RunConfig(corpus_dir="c", split_path="s", families=("lexical", "syntactic", "lexical"))


def test_a_config_key_given_twice_is_a_data_error(synth_dir, tmp_path, capsys):
    out_dir = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("c = 1\n# smaller\nc = 1e-3\n")
    args = ["run"] + base_args(synth_dir, str(out_dir)) + ["--config", str(cfg)]
    assert main(args) == 2
    assert f"{cfg}:3: key 'c' already set on line 1" in capsys.readouterr().err
    assert not (out_dir / "model.txt").exists()


def readme_command_lines():
    """Each ``argdissect ...`` line of README's ``sh`` blocks, continuations joined."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```sh\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    return [
        line for block in blocks for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("argdissect ")
    ]


def test_readme_command_lines_parse():
    lines = readme_command_lines()
    commands = {shlex.split(line)[1] for line in lines}
    assert commands == {
        "synth", "ingest", "run", "baseline", "robustness", "anova", "transform"
    }
    for line in lines:
        try:
            make_parser().parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command line does not parse: {line}")


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


@pytest.mark.parametrize("command, model_types", [
    (["run", "--task", "g"], ["FA"]),
    (["robustness", "--mode", "randomized"], ["CB", "CI", "FA"]),
    (["anova"], ["FA"]),
])
def test_features_tsv_lists_each_model_registry(synth_dir, tmp_path, capsys, command,
                                                model_types):
    out_dir = str(tmp_path / "out")
    assert main(command + base_args(synth_dir, out_dir)) == 0
    with open(os.path.join(out_dir, "features.tsv")) as fh:
        header, *rows = [line.split("\t") for line in fh.read().splitlines()]
    assert header == ["model_type", "n_features", "dropped_unseen"]
    assert [r[0] for r in rows] == model_types
    assert all(int(r[1]) > 0 and int(r[2]) >= 0 for r in rows)
    assert "features.tsv sha256=" in pathlib.Path(out_dir, "manifest.txt").read_text()
    if command[0] == "run":
        model_text = pathlib.Path(out_dir, "model.txt").read_text()
        assert f"n_features={rows[0][1]}\n" in model_text
    if command[0] == "robustness":
        widths = {r[0]: int(r[1]) for r in rows}
        assert widths["CB"] + widths["CI"] < widths["FA"]


@pytest.mark.parametrize("command", [
    ["run"], ["robustness", "--mode", "nocontext"], ["anova"],
])
def test_manifest_names_the_families_used(synth_dir, tmp_path, capsys, command):
    """``families = auto`` takes every family whose layer the corpus has:
    without ``.discourse`` files the manifest lists no ``discourse``."""
    corpus = tmp_path / "corpus"
    shutil.copytree(synth_dir, corpus)
    for path in corpus.glob("*.discourse"):
        path.unlink()
    used = {}
    for name, corpus_dir in (("intact", synth_dir), ("stripped", str(corpus))):
        out_dir = tmp_path / name
        assert main(command + base_args(corpus_dir, str(out_dir))) == 0
        manifest = (out_dir / "manifest.txt").read_text()
        assert "families = auto\n" in manifest
        [line] = [line for line in manifest.splitlines() if line.startswith("families_used = ")]
        used[name] = line.removeprefix("families_used = ").split(",")
    assert used["intact"] == ["lexical", "syntactic", "structural", "discourse",
                              "embedding", "sentiment"]
    assert used["stripped"] == [f for f in used["intact"] if f != "discourse"]
    assert "discourse" not in (tmp_path / "stripped" / "manifest.txt").read_text()


@pytest.mark.parametrize("command", [
    ["run"], ["robustness", "--mode", "nocontext"], ["anova"],
])
def test_manifest_names_the_training_matrix_form(synth_dir, tmp_path, command):
    """Next to ``families_used``, ``train_matrix`` gives the FA training
    matrix's form and shape: dense over every family, sparse over lexical
    and syntactic features, whose CB rows are sparse by the density rule."""
    config = RunConfig(corpus_dir=synth_dir, split_path=os.path.join(synth_dir, "split.tsv"))
    n_train = len(pipeline.prepare(config).train_instances)
    for name, extra, form in (
        ("every", [], "dense"), ("lexsyn", ["--families", "lexical,syntactic"], "sparse"),
    ):
        out_dir = tmp_path / name
        assert main(command + base_args(synth_dir, str(out_dir)) + extra) == 0
        lines = (out_dir / "manifest.txt").read_text().splitlines()
        at = [k for k, line in enumerate(lines) if line.startswith("families_used = ")][0]
        match = re.fullmatch(r"train_matrix = (dense|sparse) (\d+)x(\d+)", lines[at + 1])
        assert match and match[1] == form and int(match[2]) == n_train
        with open(out_dir / "features.tsv") as fh:
            widths = dict(line.split("\t")[:2] for line in fh)
        assert int(match[3]) == int(widths["FA"])


def test_baseline_resolves_no_feature_family(synth_dir, tmp_path):
    """``baseline`` trains no model, so it never resolves the families: one
    whose layer the corpus lacks fails ``run`` but not ``baseline``."""
    args = base_args(synth_dir, str(tmp_path))
    args[args.index("--embeddings"):args.index("--embeddings") + 2] = []
    args += ["--families", "embedding"]
    assert main(["run"] + args) == 2
    assert main(["baseline"] + args) == 0
    assert (tmp_path / "baseline.tsv").exists()


def test_features_tsv_counts_test_features_dropped_as_unseen(tmp_path):
    registry = FeatureRegistry()
    registry.index("lex:eau:src:seen")
    registry.freeze()
    for name in ("lex:eau:src:new", "lex:eau:src:new", "lex:eau:src:seen"):
        registry.index(name)
    model = LinearModel(("a", "b"), {}, {}, registry.registry_id, "CB", "f", TrainConfig(), 1)
    write_features_tsv(tmp_path / "features.tsv", [model], registry)
    assert (tmp_path / "features.tsv").read_text().splitlines() == [
        "model_type\tn_features\tdropped_unseen", "CB\t1\t2",
    ]


@pytest.mark.parametrize("command", [
    ["run", "--task", "g"],
    ["run", "--model-type", "CB"],
    ["run", "--model-type", "CI"],
    ["robustness", "--mode", "randomized"],
    ["robustness", "--mode", "nocontext"],
])
def test_a_command_extracts_the_training_and_the_test_views_once(
    synth_dir, tmp_path, capsys, monkeypatch, command
):
    """One extraction of the training split and one of the (transformed) test
    views, however many model types are trained and tested."""
    rows = []
    extract = pipeline.extract_matrix

    def counting(*args, **kwargs):
        X = extract(*args, **kwargs)
        rows.append(len(X))
        return X

    monkeypatch.setattr(pipeline, "extract_matrix", counting)
    monkeypatch.setattr(cli, "extract_matrix", counting, raising=False)
    argv = command + base_args(synth_dir, str(tmp_path / "out"))
    assert main(argv) == 0
    data = pipeline.prepare(build_run_config(make_parser().parse_args(argv)))
    assert rows == [len(data.train_instances), len(data.test_instances)]


@pytest.fixture(scope="module")
def unseen_synth_dir(synth_dir, tmp_path_factory):
    """``synth_dir`` with two words of its first test document renamed, in
    every layer, to words no training document has, of the same length so
    that no offset moves: the last word of its EAU T2, and the first word of
    T2's sentence, which lies in T2's context."""
    corpus = tmp_path_factory.mktemp("unseen") / "corpus"
    shutil.copytree(synth_dir, corpus)
    split = (corpus / "split.tsv").read_text().splitlines()
    doc_id = next(line.split("\t")[0] for line in split if line.endswith("\ttest"))
    text = (corpus / f"{doc_id}.txt").read_text()
    ann = (corpus / f"{doc_id}.ann").read_text()
    start, end = map(int, re.search(r"^T2\t\S+ (\d+) (\d+)\t", ann, re.M).groups())
    eau_word = text[start:end].split()[-1]
    context_word = re.findall(r"\w+", text[text.rfind("\n", 0, start) + 1:start])[0]
    for ext in ("txt", "ann", "tokens.tsv", "trees"):
        path = corpus / f"{doc_id}.{ext}"
        layer = path.read_text()
        for word, letter in ((eau_word, "q"), (context_word, "z")):
            layer = re.sub(rf"\b{word}\b", letter * len(word), layer)
        path.write_text(layer)
    return str(corpus)


def reference_dropped(data, families, views):
    """Per model type, the test views' names of the type that ``reference_assemble``
    finds unseen by the training views' frozen FA registry."""
    registry = FeatureRegistry()
    for view in data.train_views:
        reference_assemble(view, FA, registry, families, data.embedding_dim)
    registry.freeze()
    dropped = {}
    for model_type in MODEL_TYPES:
        oracle = registry.subset(registry.columns_of(model_type))
        for view in views:
            reference_assemble(view, model_type, oracle, families, data.embedding_dim)
        dropped[model_type] = oracle.dropped_unseen
    return dropped


@pytest.mark.parametrize("command", [
    ["robustness", "--mode", "randomized"],
    ["robustness", "--mode", "nocontext"],
    ["run", "--model-type", "CB"],
    ["run", "--model-type", "CI"],
    ["run", "--model-type", "FA"],
])
def test_features_tsv_counts_unseen_test_words_per_model_type(
    unseen_synth_dir, tmp_path, capsys, command
):
    out_dir = tmp_path / "out"
    argv = command + base_args(unseen_synth_dir, str(out_dir))
    assert main(argv) == 0
    _, *rows = [line.split("\t") for line in (out_dir / "features.tsv").read_text().splitlines()]
    written = {model_type: int(dropped) for model_type, _, dropped in rows}

    args = make_parser().parse_args(argv)
    config = build_run_config(args)
    data = pipeline.prepare(config)
    views = data.test_views
    if command[0] == "robustness":
        views = (randomize_contexts(views, config.eval_seed) if args.mode == "randomized"
                 else strip_contexts(views))
    expected = reference_dropped(data, pipeline.resolve_families(config, data), views)
    assert written == {model_type: expected[model_type] for model_type in written}
    assert expected[CB] > 0 and expected[FA] >= expected[CB] + expected[CI]
    assert (expected[CI] > 0) == (command[-1] != "nocontext")


def _nesting(line):
    depth = deepest = 0
    for ch in line:
        depth += {"(": 1, ")": -1}.get(ch, 0)
        deepest = max(deepest, depth)
    return deepest


def _wrap_trees(corpus, depth):
    """Nest every tree line of the corpus's first document ``depth`` levels deep."""
    trees = sorted(corpus.glob("*.trees"))[0]
    lines = []
    for line in trees.read_text().splitlines():
        extra = depth - _nesting(line)
        lines.append("(X " * extra + line + ")" * extra)
    trees.write_text("\n".join(lines) + "\n")


def test_deep_tree_line_is_a_data_error(synth_dir, tmp_path, capsys):
    corpus = tmp_path / "corpus"
    shutil.copytree(synth_dir, corpus)
    _wrap_trees(corpus, 1200)
    argv = ["ingest", "--task", "f", "--corpus-dir", str(corpus),
            "--split", str(corpus / "split.tsv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "data error" in err and f"deeper than {MAX_TREE_DEPTH} levels" in err


def _break_first_sentiment_suffix(corpus):
    trees = sorted(corpus.glob("*.trees"))[0]
    text = trees.read_text(encoding="utf-8")
    assert "(S|s=3 " in text
    trees.write_text(text.replace("(S|s=3 ", "(S|s=10 ", 1), encoding="utf-8")


def _put_nan_in_an_embedding(corpus):
    path = corpus / "embeddings.txt"
    lines = path.read_text(encoding="utf-8").split("\n")
    word, first, *rest = lines[1].split(" ")
    lines[1] = " ".join([word, "nan", *rest])
    path.write_text("\n".join(lines), encoding="utf-8")


def _empty_the_embeddings(corpus):
    (corpus / "embeddings.txt").write_text("\n \n", encoding="utf-8")


def _tab_separate_the_embeddings(corpus):
    path = corpus / "embeddings.txt"
    path.write_text(path.read_text(encoding="utf-8").replace(" ", "\t"), encoding="utf-8")


@pytest.mark.parametrize("corrupt, message", [
    (_break_first_sentiment_suffix, "malformed sentiment suffix in label 'S|s=10'"),
    (_put_nan_in_an_embedding, "line 2: non-finite vector component"),
    (_empty_the_embeddings, "embeddings.txt: embedding table has no entries"),
    (_tab_separate_the_embeddings,
     "embeddings.txt: line 1: embedding vectors have no components"),
])
def test_malformed_layer_value_is_a_data_error(synth_dir, tmp_path, capsys, corrupt, message):
    """A corpus with one bad value is rejected, not loaded without the layer
    (a bad sentiment suffix), trained on nan (a bad embedding) or on a
    0-dimensional embedding table (an empty or tab-separated file)."""
    corpus = tmp_path / "corpus"
    shutil.copytree(synth_dir, corpus)
    corrupt(corpus)
    assert main(["run", "--task", "g"] + base_args(str(corpus), str(tmp_path / "out"))) == 2
    err = capsys.readouterr().err
    assert "data error" in err and message in err


def test_token_offsets_outside_the_text_are_a_data_error(synth_dir, tmp_path, capsys):
    """A first token given negative offsets still slices its surface out of the
    text, and used to load; it is rejected, naming the line."""
    corpus = tmp_path / "corpus"
    shutil.copytree(synth_dir, corpus)
    tokens = sorted(corpus.glob("*.tokens.tsv"))[0]
    n = len(tokens.with_name(tokens.name.replace(".tokens.tsv", ".txt")).read_text("utf-8"))
    first, rest = tokens.read_text(encoding="utf-8").split("\n", 1)
    sent, tok, start, end, surface = first.split("\t")
    assert start == "0"
    tokens.write_text(f"{sent}\t{tok}\t{-n}\t{int(end) - n}\t{surface}\n{rest}", "utf-8")
    argv = ["ingest", "--task", "f", "--corpus-dir", str(corpus),
            "--split", str(corpus / "split.tsv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "data error" in err and f"line 1: token offsets {-n}..{int(end) - n} of" in err


def test_trees_at_the_depth_bound_run(synth_dir, tmp_path, capsys):
    """The recursive walks over a tree of the deepest accepted nesting stay
    under the recursion limit: cuts, rules and sentiment nodes."""
    corpus = tmp_path / "corpus"
    shutil.copytree(synth_dir, corpus)
    _wrap_trees(corpus, MAX_TREE_DEPTH)
    assert main(["run", "--task", "g"] + base_args(str(corpus), str(tmp_path / "out"))) == 0


@pytest.fixture(scope="module")
def corpora_10_30(tmp_path_factory):
    dirs = []
    for docs in (10, 30):
        out = tmp_path_factory.mktemp(f"synth{docs}") / "corpus"
        generate_corpus(str(out), SynthConfig(n_docs=docs, seed=5))
        dirs.append(str(out))
    return dirs


def _garbage_of(argv):
    """Exit code and the objects left in reference cycles by ``main(argv)``,
    run with the collector disabled."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        code = main(argv)
        gc.collect()
        return code, list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


@pytest.mark.parametrize("command", [
    ["run", "--task", "g"],
    ["robustness", "--mode", "randomized", "--task", "f"],
    ["anova", "--task", "g"],
])
def test_commands_leave_no_cycles_that_grow_with_the_corpus(corpora_10_30, tmp_path, capsys,
                                                            command):
    """The cyclic collector is paused during a command, so whatever the
    command leaves in reference cycles stays until the next collection;
    that must not depend on the corpus size, nor hold corpus data (only the
    argument parsers, which argparse builds with cycles, may be there)."""
    small, large = (command + base_args(c, str(tmp_path / "out")) for c in corpora_10_30)
    _garbage_of(small)  # first-call work (imports, caches) is not measured
    counts = []
    for argv in (small, large):
        code, garbage = _garbage_of(argv)
        assert code == 0
        ours = [o for o in garbage if type(o).__module__.startswith("argdissect")]
        assert all(isinstance(o, argparse.ArgumentParser) for o in ours)
        counts.append(len(garbage))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("failure, code", [
    (None, 0), (DataError("broken input"), 2), (RuntimeError("bug"), 3),
])
def test_main_pauses_the_collector_and_restores_the_callers_state(
    synth_dir, monkeypatch, capsys, enabled, failure, code
):
    seen = []

    def prepare(config):
        seen.append(gc.isenabled())
        if failure is not None:
            raise failure
        return pipeline.prepare(config)

    monkeypatch.setattr(cli, "prepare", prepare)
    argv = ["ingest", "--task", "f", "--corpus-dir", synth_dir,
            "--split", os.path.join(synth_dir, "split.tsv")]
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(argv) == code
        assert gc.isenabled() == enabled
    finally:
        gc.enable()
    assert seen == [False]


@pytest.mark.parametrize("c, message", [
    ("inf", "c and tolerance must be positive and finite"),
    ("1e400", "c and tolerance must be positive and finite"),
    ("1e300", "c is too large for this data"),
])
def test_an_unusable_c_is_a_data_error_and_writes_no_model(synth_dir, tmp_path, capsys, c,
                                                           message):
    out_dir = tmp_path / "out"
    argv = ["run", "--task", "g", "--c", c] + base_args(synth_dir, str(out_dir))
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not (out_dir / "model.txt").exists()


@pytest.mark.parametrize("command", [
    ["run"], ["robustness", "--mode", "randomized"], ["anova"], ["baseline"],
    ["transform", "--mode", "eau_only"], ["synth", "--docs", "2"],
])
def test_an_out_that_names_a_file_is_a_data_error(synth_dir, tmp_path, capsys, command):
    out = tmp_path / "taken"
    out.write_text("kept\n")
    if command[0] == "synth":
        argv = command + ["--out", str(out)]
    else:
        argv = command + base_args(synth_dir, str(out))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "data error: cannot create output directory" in err and str(out) in err
    assert out.read_text() == "kept\n"


@pytest.mark.parametrize("spelling", ["same", "trailing slash", "via parent", "symlink"])
def test_transform_into_its_own_corpus_is_a_data_error(synth_dir, tmp_path, capsys, spelling):
    """``--out`` naming the corpus directory, however spelled, writes nothing."""
    corpus = tmp_path / "corpus"
    shutil.copytree(synth_dir, corpus)
    out = {
        "same": str(corpus),
        "trailing slash": str(corpus) + os.sep,
        "via parent": os.path.join(str(corpus), "..", "corpus"),
        "symlink": str(tmp_path / "link"),
    }[spelling]
    os.symlink(corpus, tmp_path / "link")
    before = {f.name: f.read_bytes() for f in corpus.iterdir()}
    argv = ["transform", "--mode", "context_only"] + base_args(str(corpus), out)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "is the corpus directory it reads" in err and out in err
    assert {f.name: f.read_bytes() for f in corpus.iterdir()} == before
