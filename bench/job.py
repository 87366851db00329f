"""One measured step of the benchmark, in a fresh Python process.

``job.py setup`` times the package import plus synthetic-corpus generation.
``job.py job`` times one ``argdissect.cli.main`` call, the way a user runs
the CLI, and records the process's peak memory.  With ``--trace 1`` the
job runs under the tracer of ``spans.py``; with ``--score 1``, after the
timed call, the FA model the job trains is scored on the standard test set
and a ``robustness`` job's CB model is checked for context invariance.
Either mode writes its measurements as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_argdissect():
    """Import the CLI from this checkout's ``src/`` and never from elsewhere."""
    sys.path.insert(0, SRC)
    import argdissect.cli

    if not os.path.abspath(argdissect.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"argdissect imported from outside {SRC}")
    return argdissect.cli


def run_setup(opts) -> dict:
    start = time.perf_counter()
    import_argdissect()
    from argdissect.synth import SynthConfig, generate_corpus

    import_s = time.perf_counter() - start
    generate_corpus(opts.corpus, SynthConfig(n_docs=opts.docs, seed=opts.seed))
    return {"import_s": import_s, "setup_s": time.perf_counter() - start}


def _capture_training(cli, trained: dict) -> None:
    """Keep the data and every model the job trains through ``cli.train_model``."""
    train_model = cli.train_model

    def wrapper(config, data, model_type=None):
        result = train_model(config, data, model_type)
        model, registry, _, families = result  # the training matrix is not kept
        trained[model_type or config.model_type] = (config, data, model, registry, families)
        return result

    cli.train_model = wrapper


def _score(trained: dict, argv: list[str]) -> dict:
    """FA macro F1 on the standard test set; for ``robustness``, CB invariance.

    The CB model sees only the EAU's own words, so it must predict the same
    labels on the transformed test views as on the standard ones.
    """
    from argdissect.cli import make_parser
    from argdissect.evaluation import randomize_contexts, strip_contexts
    from argdissect.features import CB, FA
    from argdissect.pipeline import evaluate_model

    def evaluate(model_type, views):
        _, data, model, registry, families = trained[model_type]
        return evaluate_model(
            model, registry, views, data.classes, families, data.embedding_dim
        )

    config, data = trained[FA][:2]
    scores = {"fa_macro_f1": evaluate(FA, data.test_views)[0].macro_f1}
    args = make_parser().parse_args(argv)
    if args.command == "robustness":
        if args.mode == "randomized":
            transformed = randomize_contexts(data.test_views, config.eval_seed)
        else:
            transformed = strip_contexts(data.test_views)
        scores["cb_invariant"] = (
            evaluate(CB, transformed)[1] == evaluate(CB, data.test_views)[1]
        )
    return scores


def run_job(opts) -> dict:
    cli = import_argdissect()
    tracer = None
    if opts.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    trained: dict = {}
    if opts.score:
        _capture_training(cli, trained)

    start = time.perf_counter()
    exit_code = cli.main(opts.argv)
    job_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"exit_code": exit_code, "job_s": job_s, "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics(job_s)
        result["sites"] = tracer.sites
        result["machines"] = tracer.machines()
    if opts.score and exit_code == 0:
        start = time.perf_counter()
        result.update(_score(trained, opts.argv))
        result["score_s"] = time.perf_counter() - start
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=["setup", "job"])
    parser.add_argument("--result", required=True)
    parser.add_argument("--corpus", help="setup: corpus directory to write")
    parser.add_argument("--docs", type=int, help="setup: number of documents")
    parser.add_argument("--seed", type=int, help="setup: corpus seed")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--score", type=int, default=0)
    own = sys.argv[1:]
    cli_argv = []
    if "--" in own:  # job: the argdissect command line follows "--"
        split = own.index("--")
        own, cli_argv = own[:split], own[split + 1:]
    opts = parser.parse_args(own)
    opts.argv = cli_argv
    result = run_setup(opts) if opts.mode == "setup" else run_job(opts)
    with open(opts.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
