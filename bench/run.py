"""argdissect benchmark: seeded CLI jobs, end-to-end metrics, traced layers.

    python3 bench/run.py --workload run-g40 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  A run:

1. sets up ``SETUP_REPS`` times: a fresh process imports ``argdissect`` and
   writes the workload's synthetic corpus (``argdissect.synth``) from
   ``--seed``; ``setup_s`` is the median;
2. runs the workload's CLI job, each in a fresh process through
   ``argdissect.cli.main``, as often as fits in ``--seconds`` (at least
   one job, two when traced).  All jobs of a run use the same corpus and
   settings, so every job must write byte-identical outputs (manifests
   excluded, as they embed output paths): this is the same-seed
   reproducibility check, and in a traced run it also shows that tracing
   leaves the outputs unchanged;
3. checks every job's outputs and counts a job that fails any check as
   failed;
4. prints every metric by name with its unit, then one JSON line.

With ``--trace 0`` no job is traced and the JSON holds the end-to-end
metrics.  With ``--trace 1`` untraced and traced jobs alternate; the JSON
holds the per-layer metrics of the traced jobs (median over them) and the
tracing overhead, the traced minus the untraced median job time.

Seeds 1-10 were used while the benchmark was tuned.  Claims of a gain must
also hold on the held-out seed 7919, which tuning never used.
Scratch files go to ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

from spans import SPAN_SITES

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
JOB_PY = os.path.join(ROOT, "bench", "job.py")
WORK = os.path.join(ROOT, ".bench_work")

SETUP_REPS = 3
CHILD_TIMEOUT_S = 150


@dataclass(frozen=True)
class Workload:
    docs: int
    task: str
    command: tuple[str, ...]
    outputs: tuple[str, ...]  # files that must be byte-identical across jobs


# Why each workload was chosen, and the layer it isolates, is recorded in
# BENCHMARK.json.
WORKLOADS = {
    "run-g40": Workload(
        docs=40,
        task="g",
        command=("run", "--task", "g", "--significance-n", "10000"),
        outputs=("model.txt", "report.tsv"),
    ),
    "anova-g1k": Workload(
        docs=1000,
        task="g",
        command=("anova", "--task", "g", "--max-epochs", "1"),
        outputs=("anova.tsv",),
    ),
    "robustness-f100": Workload(
        docs=100,
        task="f",
        command=("robustness", "--mode", "randomized", "--task", "f"),
        outputs=("robustness_randomized.tsv",),
    ),
}


def metric_units(section: str) -> dict[str, str]:
    """Name -> unit of every metric BENCHMARK.json lists under ``section``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


# ----------------------------------------------------------------------------
# Child processes


def run_child(mode: str, log_path: str, result_path: str, *args: str) -> dict:
    """Run ``job.py`` in a fresh interpreter; its output goes to ``log_path``."""
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [sys.executable, JOB_PY, mode, "--result", result_path, *args]
    with open(log_path, "a", encoding="utf-8") as log:
        try:
            proc = subprocess.run(
                cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return {"error": f"{mode} timed out after {CHILD_TIMEOUT_S} s"}
    if proc.returncode != 0 or not os.path.exists(result_path):
        return {"error": f"{mode} process exited with {proc.returncode}"}
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def cli_argv(workload: Workload, corpus: str, out: str) -> list[str]:
    return [
        *workload.command,
        "--corpus-dir", corpus,
        "--split", os.path.join(corpus, "split.tsv"),
        "--embeddings", os.path.join(corpus, "embeddings.txt"),
        "--out", out,
    ]


# ----------------------------------------------------------------------------
# Output checks: each returns a list of failure reasons, empty when correct.


def count_instances(corpus: str, task: str) -> int:
    """Instances of the corpus, counted by the corpus layer.

    The synthetic split assigns every document to train or test, so this is
    the train plus test instance count of the job.
    """
    from argdissect.corpus import Corpus, build_instances, parse_standoff

    corpus_obj = Corpus()
    for name in sorted(os.listdir(corpus)):
        if name.endswith(".ann"):
            doc_id = name.removesuffix(".ann")
            with open(os.path.join(corpus, doc_id + ".txt"), encoding="utf-8") as fh:
                text = fh.read()
            with open(os.path.join(corpus, name), encoding="utf-8") as fh:
                ann = fh.read()
            corpus_obj.add(parse_standoff(text, ann, doc_id))
    return len(build_instances(corpus_obj, task))


def read_rows(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n").split("\t") for line in fh if line.strip()]


class ReloadCheck:
    """Reload ``model.txt`` and re-predict the test set to the same report.

    The model file stores the registry's id, not its names, so the registry
    is rebuilt by the same training pass ``pipeline.train_model`` makes.
    """

    def __init__(self, argv: list[str]):
        from argdissect import cli, pipeline
        from argdissect.features import FeatureRegistry, assemble

        self.config = cli.build_run_config(cli.make_parser().parse_args(argv))
        self.data = pipeline.prepare(self.config)
        self.families = pipeline.resolve_families(self.config, self.data)
        self.registry = FeatureRegistry()
        for view in self.data.train_views:
            assemble(view, self.config.model_type, self.registry, self.families,
                     self.data.embedding_dim)
        self.registry.freeze()

    def __call__(self, out_dir: str) -> list[str]:
        from argdissect import pipeline
        from argdissect.errors import ModelFormatError
        from argdissect.evaluation import mfs_baseline, significance
        from argdissect.learn import load_model

        try:
            model = load_model(os.path.join(out_dir, "model.txt"))
        except ModelFormatError as exc:
            return [f"model.txt does not reload: {exc}"]
        if model.registry_id != self.registry.registry_id:
            return ["model.txt registry id differs from the rebuilt registry"]
        data, config = self.data, self.config
        report, preds = pipeline.evaluate_model(
            model, self.registry, data.test_views, data.classes, self.families,
            data.embedding_dim,
        )
        gold = [v.instance.label for v in data.test_views]
        mfs = mfs_baseline([v.instance.label for v in data.train_views], data.classes)
        p = significance(preds, [mfs] * len(gold), gold, data.classes,
                         n=config.significance_n, seed=config.eval_seed)
        report.significance.append({
            "baseline": "mfs", "p": p,
            "n_permutations": config.significance_n, "seed": config.eval_seed,
        })
        replayed = os.path.join(out_dir, "report.replayed.tsv")
        pipeline.write_report_tsv(replayed, report)
        with open(replayed, "rb") as a, open(os.path.join(out_dir, "report.tsv"), "rb") as b:
            if a.read() != b.read():
                return ["reloaded model re-predicts a different report.tsv"]
        return []


def check_report(out_dir: str) -> list[str]:
    rows = read_rows(os.path.join(out_dir, "report.tsv"))
    p_values = [float(r[2]) for r in rows if r[0] == "p_value"]
    if len(p_values) != 1 or not 0.0 < p_values[0] <= 1.0:
        return [f"significance p outside (0, 1]: {p_values}"]
    return []


def check_robustness(out_dir: str) -> list[str]:
    rows = read_rows(os.path.join(out_dir, "robustness_randomized.tsv"))
    cb = [float(r[2]) for r in rows if r[0] == "CB"]
    if not cb or any(d != 0.0 for d in cb):
        return [f"CB row of robustness_randomized.tsv is not all zeros: {cb}"]
    return []


def check_anova(out_dir: str) -> list[str]:
    rows = read_rows(os.path.join(out_dir, "anova.tsv"))
    reasons = []
    for ftype in ("CB", "CI"):
        points = [(float(r[1]), float(r[2])) for r in rows if r[0] == ftype]
        if [pct for pct, _ in points] != [float(p) for p in range(101)]:
            reasons.append(f"anova.tsv {ftype}: not the 101 points 0..100")
        values = [v for _, v in points]
        if any(b < a for a, b in zip(values, values[1:])):
            reasons.append(f"anova.tsv {ftype}: F curve decreases")
    return reasons


OUTPUT_CHECKS = {
    "run-g40": [check_report],
    "anova-g1k": [check_anova],
    "robustness-f100": [check_robustness],
}


def read_bytes(out_dir: str, name: str) -> bytes:
    with open(os.path.join(out_dir, name), "rb") as fh:
        return fh.read()


def check_job(name: str, job: dict, reference: str, reload_check) -> list[str]:
    if "error" in job:
        return [job["error"]]
    if job["exit_code"] != 0:
        return [f"argdissect exited with {job['exit_code']}"]
    out_dir = job["out"]
    outputs = WORKLOADS[name].outputs
    checks = OUTPUT_CHECKS[name] + ([reload_check] if reload_check else [])
    try:
        reasons = [reason for check in checks for reason in check(out_dir)]
        if out_dir != reference:
            reasons += [f"{f} differs from the first job's (same seed)"
                        for f in outputs if read_bytes(out_dir, f) != read_bytes(reference, f)]
    except (OSError, ValueError, IndexError, KeyError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
    if job.get("cb_invariant") is False:
        reasons.append("the CB model predicts differently on the transformed views")
    if "layers" in job:
        reasons += check_span_accounting(job)
    return reasons


def check_span_accounting(job: dict) -> list[str]:
    """Layer self times plus ``cli.other_s`` must make up the traced job time."""
    layers = job["layers"]
    self_times = [layers[name] for name in [*SPAN_SITES, "cli.other_s"]]
    if any(v < 0 for v in self_times):
        return ["negative span self time"]
    if abs(sum(self_times) - job["job_s"]) > 1e-6 * max(job["job_s"], 1.0):
        return ["span self times do not sum to the traced job time"]
    return []


# ----------------------------------------------------------------------------
# Reporting


def tail_percentile(values: list[float]):
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100)[p - 1]
    return None


def describe_timing(values: list[float]) -> str:
    tail = tail_percentile(values)
    extra = (f"p{tail[0]} {tail[1]:.4f}" if tail
             else "no percentile has >=10 samples beyond it")
    return f"median of {len(values)} jobs; {extra}"


def print_metric(name: str, value, unit: str, note: str = "") -> None:
    print(f"  {name:<32} {value:>14.6g} {unit:<6} {note}".rstrip())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "argdissect", "cli.py")):
        print(f"error: no argdissect sources under {SRC}", file=sys.stderr)
        return 2
    end_to_end_units = metric_units("end_to_end")
    layer_units = metric_units("per_layer")
    workload = WORKLOADS[args.workload]
    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    log = os.path.join(work, "children.log")
    setups = []
    for rep in range(SETUP_REPS):
        corpus = os.path.join(work, f"corpus{rep}")  # the jobs use the last one
        os.sync()  # no writes of earlier steps pending while a step is timed
        res = run_child("setup", log, os.path.join(work, f"setup{rep}.json"),
                        "--corpus", corpus, "--docs", str(workload.docs),
                        "--seed", str(args.seed))
        if "error" in res:
            print(f"error: set-up failed ({res['error']}); see {log}", file=sys.stderr)
            return 2
        setups.append(res["setup_s"])

    sys.path.insert(0, SRC)
    n_instances = count_instances(corpus, workload.task)
    # Only `run` writes a model and a report with macro F1; for the other
    # commands the job scores the FA model it trained, after the timed call.
    writes_report = "report.tsv" in workload.outputs

    # Start no job that would end past --seconds, judged by the mean job time;
    # the untimed scoring of the FA model does not count against the window.
    os.sync()
    jobs = []
    start = time.perf_counter()
    min_jobs = 2 if args.trace else 1
    elapsed = 0.0
    while len(jobs) < min_jobs or elapsed * (len(jobs) + 1) / len(jobs) <= args.seconds:
        i = len(jobs)
        traced = bool(args.trace) and i % 2 == 1
        score = not args.trace and i == 0 and not writes_report
        out = os.path.join(work, f"job{i}")
        job = run_child(
            "job", log, os.path.join(work, f"job{i}.json"),
            "--trace", str(int(traced)), "--score", str(int(score)),
            "--", *cli_argv(workload, corpus, out),
        )
        job.update(out=out, traced=traced)
        jobs.append(job)
        elapsed = time.perf_counter() - start - sum(j.get("score_s", 0.0) for j in jobs)

    reload_check = None
    if writes_report:
        reload_check = ReloadCheck(cli_argv(workload, corpus, jobs[0]["out"]))
    failures = {}
    for i, job in enumerate(jobs):
        reasons = check_job(args.workload, job, jobs[0]["out"], reload_check)
        if job.get("layers") and job["layers"]["corpus.instances"] != n_instances:
            reasons.append("traced instance count differs from the corpus layer's")
        if reasons:
            failures[i] = reasons
    ok = [job for i, job in enumerate(jobs) if i not in failures]
    untraced = [job for job in ok if not job["traced"]]
    traced = [job for job in ok if job["traced"]]

    print(f"argdissect benchmark: workload {args.workload}, seed {args.seed}, "
          f"{workload.docs} docs, {n_instances} instances; {len(jobs)} jobs "
          f"({len(traced)} traced) in {elapsed:.1f} s")
    print(f"  {' '.join(['argdissect', *workload.command])}")
    for i, reasons in failures.items():
        print(f"  job {i} FAILED: {'; '.join(reasons)}")

    metrics = {}
    if untraced:
        job_times = [job["job_s"] for job in untraced]
        job_s = statistics.median(job_times)
        metrics["job_s"] = job_s
        metrics["instances_per_s"] = statistics.median(n_instances / t for t in job_times)
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = statistics.median(job["peak_rss_mb"] for job in untraced)
        if writes_report:
            rows = read_rows(os.path.join(untraced[0]["out"], "report.tsv"))
            metrics["macro_f1"] = next(float(r[2]) for r in rows if r[0] == "macro_f1")
        elif "fa_macro_f1" in untraced[0]:
            metrics["macro_f1"] = untraced[0]["fa_macro_f1"]
        print("end-to-end (untraced jobs):")
        notes = {"job_s": describe_timing(job_times),
                 "setup_s": f"median of {SETUP_REPS} set-ups",
                 "macro_f1": "report.tsv" if writes_report
                 else "the job's FA model on the standard test set"}
        for name, value in metrics.items():
            print_metric(name, value, end_to_end_units[name], notes.get(name, ""))
    print_metric("failed_ratio", len(failures) / len(jobs), "ratio",
                 f"{len(failures)} of {len(jobs)} jobs")

    layers = {}
    if traced and untraced:
        for name in layer_units:
            if name != "trace_overhead_s":
                layers[name] = statistics.median(job["layers"][name] for job in traced)
        traced_s = statistics.median(job["job_s"] for job in traced)
        layers["trace_overhead_s"] = traced_s - metrics["job_s"]
        print(f"per-layer (median of {len(traced)} traced jobs; "
              f"traced job_s {traced_s:.4f} s):")
        for name, unit in layer_units.items():
            print_metric(name, layers[name], unit)
        accounted = sum(layers[name] for name in [*SPAN_SITES, "cli.other_s"])
        print(f"  span accounting: layer self times + cli.other_s = {accounted:.4f} s "
              f"(traced job_s {traced_s:.4f} s)")
        print("solver machines (first traced job):")
        for m in traced[0]["machines"]:
            print(f"  {m['model_type']}/{m['class']}: {m['epochs']} epochs of "
                  f"{m['max_epochs']}, {'converged' if m['converged'] else 'NOT converged'}, "
                  f"final dual {m['final_dual']:.6g}")
        print("call sites (first traced job): calls, total s, self s")
        for site, s in sorted(traced[0]["sites"].items()):
            if s["calls"]:
                print(f"  {site:<34} {s['calls']:>8} {s['total_s']:>10.4f} {s['self_s']:>10.4f}")

    if args.trace:
        wanted, units, have = layers, layer_units, bool(layers)
    else:
        wanted, units, have = metrics, end_to_end_units, len(metrics) == len(end_to_end_units)
    result = {
        "correct": not failures and have,
        "attempted": len(jobs),
        "failed": len(failures),
        "metrics": {name: {"value": wanted[name], "unit": unit}
                    for name, unit in units.items() if name in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
