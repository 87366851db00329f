"""Command-line driver: reproducible experiment runs over standoff corpora.

Subcommands: ingest, run, robustness, anova, baseline, transform, synth.
Options may come from a flat ``key = value`` config file (--config); flags
given on the command line win.  Exit codes: 0 ok, 1 usage, 2 data error,
3 internal error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

from . import corpus as corpus_mod
from .errors import ArgdissectError, DataError
from .evaluation import (
    anova_scores,
    f1_report,
    format_report,
    mfs_baseline,
    randomize_contexts,
    strip_contexts,
)
from .features import CB, CI, FA, MODEL_TYPES
from .learn import TrainConfig
from .pipeline import (
    RunConfig,
    evaluate_model,
    load_corpus_dir,
    prepare,
    read_text,
    run_experiment,
    train_model,
    write_manifest,
    write_report_tsv,
    write_solver_tsv,
)
from .settings import from_text
from .synth import SynthConfig, generate_corpus

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def read_config_file(path) -> dict[str, str]:
    values = {}
    for line_no, line in enumerate(read_text(path).splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"{path}:{line_no}: expected 'key = value'")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


# Config keys spelled differently from their RunConfig fields.
_RENAMED = {"embeddings_path": "embeddings", "split_path": "split", "output_dir": "out"}


def _setting_fields() -> dict:
    """Config key -> field: RunConfig's fields, TrainConfig's in place of the nested one."""
    keyed = {}
    for f in fields(RunConfig):
        if f.default_factory is TrainConfig:
            keyed.update((sub.name, sub) for sub in fields(TrainConfig))
        else:
            keyed[_RENAMED.get(f.name, f.name)] = f
    return keyed


_SETTINGS = _setting_fields()


def build_run_config(args) -> RunConfig:
    """RunConfig from the config file and flags; only the keys given override defaults."""
    given: dict[str, str] = {}
    if getattr(args, "config", None):
        given = read_config_file(args.config)
        unknown = set(given) - set(_SETTINGS)
        if unknown:
            raise DataError(f"unknown config keys: {sorted(unknown)}")
    for key in _SETTINGS:
        if getattr(args, key, None) is not None:
            given[key] = getattr(args, key)
    values = {}
    for key, text in given.items():
        try:
            values[_SETTINGS[key]] = from_text(text, _SETTINGS[key].default)
        except ValueError as exc:
            raise DataError(f"{key} = {text!r}: {exc}") from None
    train_fields = fields(TrainConfig)
    try:
        return RunConfig(
            train=TrainConfig(**{f.name: v for f, v in values.items() if f in train_fields}),
            **{f.name: v for f, v in values.items() if f not in train_fields},
        )
    except ValueError as exc:
        raise DataError(str(exc)) from None


def _add_run_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key = value config file")
    for key, f in _SETTINGS.items():
        p.add_argument(
            "--" + key.replace("_", "-"), dest=key, choices=f.metadata.get("choices")
        )


def cmd_ingest(args) -> int:
    config = build_run_config(args)
    data = prepare(config)
    n_eaus = sum(len(d.eaus) for d in data.bundle.corpus)
    n_rels = sum(len(d.relations) for d in data.bundle.corpus)
    print(f"documents: {len(data.bundle.corpus)}")
    print(f"EAUs: {n_eaus}")
    print(f"relations: {n_rels}")
    print(f"layers: {', '.join(sorted(data.bundle.layers))}")
    for part, insts in (("train", data.train_instances), ("test", data.test_instances)):
        counts: dict[str, int] = {}
        for inst in insts:
            counts[inst.label] = counts.get(inst.label, 0) + 1
        stats = ", ".join(f"{c}={counts.get(c, 0)}" for c in data.classes)
        print(f"task {config.task} {part}: {len(insts)} instances ({stats})")
    return EXIT_OK


def cmd_run(args) -> int:
    config = build_run_config(args)
    report = run_experiment(config)
    print(format_report(report, f"task {config.task}, model {config.model_type}"))
    print(f"artifacts written to {config.output_dir}")
    return EXIT_OK


def cmd_robustness(args) -> int:
    config = build_run_config(args)
    data = prepare(config)
    os.makedirs(config.output_dir, exist_ok=True)
    if args.mode == "randomized":
        transformed = randomize_contexts(data.test_views, config.eval_seed)
    else:
        transformed = strip_contexts(data.test_views)

    reports = {}
    models = []
    for model_type in MODEL_TYPES:
        model, registry, _, families = train_model(config, data, model_type)
        report, _ = evaluate_model(
            model, registry, transformed, data.classes, families, data.embedding_dim
        )
        reports[model_type] = report
        models.append(model)

    baseline = reports[CB]
    lines = [f"robustness ({args.mode} mode), task {config.task}"]
    header = "model" + "".join(f"{('dF1_' + c):>12}" for c in data.classes)
    lines.append(header + f"{'d_macro':>12}")
    out_path = os.path.join(config.output_dir, f"robustness_{args.mode}.tsv")
    with open(out_path, "w", encoding="utf-8") as fh:
        for model_type in MODEL_TYPES:
            report = reports[model_type]
            deltas = [report.f1(c) - baseline.f1(c) for c in data.classes]
            d_macro = report.macro_f1 - baseline.macro_f1
            lines.append(
                f"{model_type:<5}"
                + "".join(f"{d:>12.1f}" for d in deltas)
                + f"{d_macro:>12.1f}"
            )
            for cls, d in zip(data.classes, deltas):
                fh.write(f"{model_type}\t{cls}\t{d}\n")
            fh.write(f"{model_type}\tmacro\t{d_macro}\n")
    solver_path = os.path.join(config.output_dir, "solver.tsv")
    write_solver_tsv(solver_path, models)
    write_manifest(config, [out_path, solver_path])
    print("\n".join(lines))
    print(f"delta table written to {out_path}")
    return EXIT_OK


def cmd_anova(args) -> int:
    config = build_run_config(args)
    data = prepare(config)
    os.makedirs(config.output_dir, exist_ok=True)
    # FA registry exposes the CB and CI slices side by side
    model, registry, X_train, _ = train_model(config, data, FA)
    labels = [v.instance.label for v in data.train_views]
    curve = anova_scores(X_train, labels, registry)
    out_path = os.path.join(config.output_dir, "anova.tsv")
    with open(out_path, "w", encoding="utf-8") as fh:
        for ftype in (CB, CI):
            for pct, f_val in zip(curve.percentiles, curve.curves[ftype]):
                fh.write(f"{ftype}\t{pct:g}\t{f_val}\n")
    for ftype in (CB, CI):
        values = curve.curves[ftype]
        marks = ", ".join(
            f"p{int(p)}={values[list(curve.percentiles).index(p)]:.3g}"
            for p in (50.0, 90.0, 99.0)
        )
        print(f"{ftype}: {marks}")
    solver_path = os.path.join(config.output_dir, "solver.tsv")
    write_solver_tsv(solver_path, [model])
    write_manifest(config, [out_path, solver_path])
    print(f"percentile curves written to {out_path}")
    return EXIT_OK


def cmd_baseline(args) -> int:
    config = build_run_config(args)
    data = prepare(config)
    os.makedirs(config.output_dir, exist_ok=True)
    train_labels = [v.instance.label for v in data.train_views]
    label = mfs_baseline(train_labels, data.classes)
    gold = [v.instance.label for v in data.test_views]
    report = f1_report([label] * len(gold), gold, data.classes)
    if config.task == "g":
        report.notes.append(
            "macro F1 is the arithmetic mean over all task classes"
        )
    print(format_report(report, f"mfs baseline (predicts {label!r}), task {config.task}"))
    out_path = os.path.join(config.output_dir, "baseline.tsv")
    write_report_tsv(out_path, report)
    write_manifest(config, [out_path])
    print(f"report written to {out_path}")
    return EXIT_OK


def cmd_transform(args) -> int:
    config = build_run_config(args)
    bundle = load_corpus_dir(config.corpus_dir)
    os.makedirs(config.output_dir, exist_ok=True)
    transformed = corpus_mod.transform_corpus(bundle.corpus, args.mode)
    outputs = []
    for doc_id, (text, ann) in sorted(transformed.items()):
        txt_path = os.path.join(config.output_dir, f"{doc_id}.txt")
        ann_path = os.path.join(config.output_dir, f"{doc_id}.ann")
        with open(txt_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with open(ann_path, "w", encoding="utf-8") as fh:
            fh.write(ann)
        outputs.extend([txt_path, ann_path])
    write_manifest(config, outputs)
    print(f"wrote {len(transformed)} transformed documents ({args.mode}) to {config.output_dir}")
    return EXIT_OK


def cmd_synth(args) -> int:
    config = SynthConfig(**{
        f.name: getattr(args, f.name)
        for f in fields(SynthConfig)
        if getattr(args, f.name, None) is not None
    })
    doc_ids = generate_corpus(args.out, config)
    print(f"generated {len(doc_ids)} synthetic documents in {args.out}")
    return EXIT_OK


def make_parser() -> _Parser:
    parser = _Parser(prog="argdissect")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn in (
        ("ingest", cmd_ingest),
        ("run", cmd_run),
        ("anova", cmd_anova),
        ("baseline", cmd_baseline),
    ):
        p = sub.add_parser(name)
        _add_run_options(p)
        p.set_defaults(fn=fn)

    p = sub.add_parser("robustness")
    _add_run_options(p)
    p.add_argument("--mode", choices=["randomized", "nocontext"], required=True)
    p.set_defaults(fn=cmd_robustness)

    p = sub.add_parser("transform")
    _add_run_options(p)
    p.add_argument("--mode", choices=["eau_only", "context_only"], required=True)
    p.set_defaults(fn=cmd_transform)

    p = sub.add_parser("synth")
    p.add_argument("--out", required=True)
    for f in fields(SynthConfig):
        if "flag" in f.metadata:
            p.add_argument(f.metadata["flag"], dest=f.name, type=type(f.default))
    p.set_defaults(fn=cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.fn(args)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ArgdissectError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # internal failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
