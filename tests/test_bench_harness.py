"""Smoke test of the benchmark harness under ``bench/`` on a small corpus.

``bench/job.py`` runs one CLI job in a fresh process, traced by
``bench/spans.py`` or scored after the timed call, and ``bench/run.py``'s
``ReloadCheck`` reloads a run's model and re-predicts its report.  A change
to the package that breaks the tracer, the scorer or the reload check makes
every benchmark run fail, and one that routes around a patched name leaves
its metric at 0; these tests show both on the 20-document corpus.
"""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

from argdissect.annotations import align_eau
from argdissect.cli import main
from argdissect.corpus import build_instances
from argdissect.pipeline import load_corpus_dir

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")


@pytest.fixture
def bench_run(monkeypatch):
    """``bench/run.py`` as a module, with ``bench/`` importable for its ``spans``."""
    monkeypatch.syspath_prepend(BENCH)
    spec = importlib.util.spec_from_file_location("bench_run", os.path.join(BENCH, "run.py"))
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_run", module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def corpus_args(corpus, out):
    return [
        "--corpus-dir", corpus,
        "--split", os.path.join(corpus, "split.tsv"),
        "--embeddings", os.path.join(corpus, "embeddings.txt"),
        "--out", str(out),
    ]


def run_job(tmp_path, mode_flag, argv):
    result = tmp_path / f"result{mode_flag}.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "job.py"), "job", "--result", str(result),
         mode_flag, "1", "--", *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(result.read_text())


@pytest.mark.parametrize("command, check", [
    (["anova", "--task", "g"], "check_anova"),
    (["robustness", "--mode", "randomized", "--task", "f"], "check_robustness"),
])
def test_traced_and_scored_jobs_run(synth_dir, tmp_path, bench_run, command, check):
    for mode_flag in ("--trace", "--score"):
        out = tmp_path / f"out{mode_flag}"
        job = run_job(tmp_path, mode_flag, command + corpus_args(synth_dir, out))
        assert job["exit_code"] == 0
        assert getattr(bench_run, check)(str(out)) == []
        if mode_flag == "--trace":
            assert job["layers"] and job["machines"]
        elif command[0] == "robustness":
            assert job["cb_invariant"] is True


def test_reload_check_replays_a_run(synth_dir, tmp_path, bench_run):
    out = tmp_path / "out"
    argv = ["run", "--task", "g", "--significance-n", "200"] + corpus_args(synth_dir, out)
    assert main(argv) == 0
    assert bench_run.ReloadCheck(argv)(str(out)) == []


def test_traced_spans_see_corpus_preparation(synth_dir, tmp_path):
    """A loader that bypasses a name the tracer patches turns a span dark;
    here that fails a test instead of a benchmark run."""
    argv = ["anova", "--task", "g"] + corpus_args(synth_dir, tmp_path / "out")
    layers = run_job(tmp_path, "--trace", argv)["layers"]
    assert layers["annotations.parse_s"] > 0
    assert layers["corpus.parse_s"] > 0
    assert layers["pipeline.views_s"] > 0
    # one side view per distinct (document, EAU) of a training instance, and
    # one tree cut per side and sentence the EAU covers: anova reads no test view
    bundle = load_corpus_dir(synth_dir)
    with open(os.path.join(synth_dir, "split.tsv"), encoding="utf-8") as fh:
        train_docs = {doc for doc, part in (line.split() for line in fh) if part == "train"}
    sides = {
        (inst.doc_id, eau_id)
        for inst in build_instances(bundle.corpus, "g")
        if inst.doc_id in train_docs
        for eau_id in (inst.source, inst.target)
    }
    cuts = 0
    for doc_id, eau_id in sides:
        doc = bundle.bundles[doc_id]
        cuts += len(align_eau(doc.parsed.eau_by_id(eau_id), doc.tokens).covering_sentence_idxs)
    assert layers["pipeline.side_views"] == len(sides) > 0
    assert layers["treeops.cuts"] == cuts >= len(sides)
