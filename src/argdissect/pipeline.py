"""Corpus loading, instance-view construction, and experiment orchestration.

A corpus directory holds, per document: ``<id>.txt``, ``<id>.ann``, and
optionally ``<id>.tokens.tsv``, ``<id>.trees``, ``<id>.discourse``; plus a
corpus-level split file and embedding table.  ``run_experiment`` wires
ingest -> align -> registry freeze -> extract -> train -> evaluate, writes
each solver machine's convergence, and writes a manifest with content hashes
so runs are reproducible.
"""

from __future__ import annotations

import hashlib
import os
import sys
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Optional

import numpy as np

from . import corpus as corpus_mod
from .annotations import (
    ConstTree,
    DiscourseRelation,
    EmbeddingTable,
    Token,
    align_eau,
    load_embeddings,
    parse_discourse_file,
    parse_token_offsets,
    parse_trees_file,
)
from .corpus import (
    Corpus,
    CorpusSplit,
    EauSpan,
    PAIRING_SCOPES,
    PairingConfig,
    ParsedDoc,
    RelationInstance,
    TASK_CLASSES,
    paragraph_of,
    parse_standoff,
    split_corpus,
)
from .errors import DataError, MissingLayerError, OffsetError
from .evaluation import MIN_PERMUTATIONS, EvalReport, f1_report, mfs_baseline, significance
from .features import (
    FA,
    FAMILIES,
    FAMILY_LAYER,
    MODEL_TYPES,
    ContentLayers,
    ContextLayers,
    FeatureRegistry,
    InstanceView,
    SideView,
    assemble,
    count_punct,
    default_families,
)
from .learn import LinearModel, TrainConfig, predict_all, save_model, train
from .settings import check_choices, choice
from .treeops import (
    content_rules, context_rules, crossing_rules, cut_tree, range_disjoint, range_inside,
    select_sentiment_nodes,
)


@dataclass
class DocBundle:
    parsed: ParsedDoc
    tokens: list[Token]
    trees: Optional[dict[int, ConstTree]] = None
    discourse: Optional[list[DiscourseRelation]] = None


@dataclass
class CorpusBundle:
    corpus: Corpus
    bundles: dict[str, DocBundle]
    embeddings: Optional[EmbeddingTable] = None

    @property
    def layers(self) -> frozenset[str]:
        layers = {"tokens"}
        if all(b.trees is not None for b in self.bundles.values()):
            layers.add("trees")
            if all(
                t.has_sentiment
                for b in self.bundles.values()
                for t in b.trees.values()
            ):
                layers.add("sentiment")
        if all(b.discourse is not None for b in self.bundles.values()):
            layers.add("discourse")
        if self.embeddings is not None:
            layers.add("embeddings")
        return frozenset(layers)


def read_text(path) -> str:
    """A UTF-8 text file's content; an unreadable file is a ``DataError``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None


def load_corpus_dir(corpus_dir, embeddings_path=None, embedding_dim=None) -> CorpusBundle:
    """Load every ``<id>.txt``/``<id>.ann`` pair and whatever layers exist."""
    try:
        names = os.listdir(corpus_dir)
    except OSError as exc:
        raise DataError(f"cannot read corpus directory {corpus_dir}: {exc}") from None
    doc_ids = sorted(
        f.removesuffix(".txt")
        for f in names
        if f.endswith(".txt") and os.path.exists(
            os.path.join(corpus_dir, f.removesuffix(".txt") + ".ann")
        )
    )
    if not doc_ids:
        raise DataError(f"no <id>.txt / <id>.ann pairs found in {corpus_dir}")
    corpus = Corpus()
    bundles = {}
    for doc_id in doc_ids:
        base = os.path.join(corpus_dir, doc_id)
        try:
            parsed = parse_standoff(read_text(base + ".txt"), read_text(base + ".ann"), doc_id)
        except OffsetError as exc:
            with open(base + ".txt", "rb") as fh:
                if b"\r\n" not in fh.read():
                    raise
            raise OffsetError(
                f"{exc} ({base}.txt has CRLF line endings, which are read as LF: "
                "annotation offsets that count the CR do not match the text)"
            ) from None
        corpus.add(parsed)
        text = parsed.document.text
        tokens_path = base + ".tokens.tsv"
        if not os.path.exists(tokens_path):
            raise MissingLayerError(f"tokens ({tokens_path})")
        tokens = parse_token_offsets(read_text(tokens_path), text, doc_id)
        trees = None
        if os.path.exists(base + ".trees"):
            trees = parse_trees_file(read_text(base + ".trees"), tokens, doc_id)
        discourse = None
        if os.path.exists(base + ".discourse"):
            discourse = parse_discourse_file(
                read_text(base + ".discourse"), len(text), doc_id
            )
        bundles[doc_id] = DocBundle(
            parsed=parsed, tokens=tokens, trees=trees, discourse=discourse
        )
    embeddings = None
    if embeddings_path:
        emb_text = read_text(embeddings_path)
        if embedding_dim is None:
            embedding_dim = len(emb_text.split("\n", 1)[0].split(" ")) - 1
        embeddings = load_embeddings(emb_text, embedding_dim)
    return CorpusBundle(corpus=corpus, bundles=bundles, embeddings=embeddings)


def build_side_view(
    bundle: DocBundle, eau: EauSpan, embeddings: Optional[EmbeddingTable]
) -> SideView:
    """Compute the content and context layers for one EAU."""
    alignment = align_eau(eau, bundle.tokens)
    eau_surfaces = tuple(t.surface for t in alignment.eau_tokens)
    ctx_surfaces = tuple(t.surface for t in alignment.context_tokens)

    first = alignment.eau_tokens[0]
    last = alignment.eau_tokens[-1]
    preceding = sum(
        1
        for t in alignment.context_tokens
        if (t.sentence_idx, t.token_idx) < (first.sentence_idx, first.token_idx)
    )
    following = len(alignment.context_tokens) - preceding

    doc = bundle.parsed.document
    par_idx = paragraph_of(doc, eau)
    par_start, par_end = doc.paragraph_spans[par_idx]
    units = [e for e in bundle.parsed.eaus if par_start <= e.start < par_end]
    unit_index = units.index(eau)

    c_rules: list[str] = []
    x_rules: list[str] = []
    cross: list[str] = []
    sent_cb = sent_ci = sent_fa = None
    if bundle.trees is not None:
        for k, s_idx in enumerate(alignment.covering_sentence_idxs):
            tree = bundle.trees[s_idx]
            in_sent = [
                t.token_idx for t in alignment.eau_tokens if t.sentence_idx == s_idx
            ]
            rng = (min(in_sent), max(in_sent) + 1)
            cut = cut_tree(tree, rng)
            c_rules.extend(sorted(content_rules(cut).elements()))
            x_rules.extend(sorted(context_rules(cut).elements()))
            cross.extend(sorted(crossing_rules(cut).elements()))
            if k == 0 and tree.has_sentiment:
                nodes = select_sentiment_nodes(tree, rng)
                sent_cb = nodes["cb"].sentiment if nodes["cb"] else None
                sent_ci = nodes["ci"].sentiment if nodes["ci"] else None
                sent_fa = nodes["fa"].sentiment if nodes["fa"] else None

    cb_disc: list[tuple[str, str]] = []
    ci_disc: list[tuple[str, str]] = []
    fa_disc: list[tuple[str, str]] = []
    if bundle.discourse is not None:
        sent_tokens = [
            t
            for t in bundle.tokens
            if t.sentence_idx in alignment.covering_sentence_idxs
        ]
        region = (min(t.start for t in sent_tokens), max(t.end for t in sent_tokens))
        eau_span = (eau.start, eau.end)
        for rel in bundle.discourse:
            if range_disjoint(rel.arg1, region) and range_disjoint(rel.arg2, region):
                continue
            pair = (rel.kind, rel.sense)
            if range_inside(rel.arg1, eau_span) and range_inside(rel.arg2, eau_span):
                cb_disc.append(pair)
            elif (
                range_inside(rel.arg1, region)
                and range_inside(rel.arg2, region)
                and range_disjoint(rel.arg1, eau_span)
                and range_disjoint(rel.arg2, eau_span)
            ):
                ci_disc.append(pair)
            else:
                fa_disc.append(pair)

    emb_content = emb_context = None
    if embeddings is not None:
        emb_content = sum(
            (embeddings.lookup(w.lower()) for w in eau_surfaces),
            start=np.zeros(embeddings.dimension),
        )
        emb_context = sum(
            (embeddings.lookup(w.lower()) for w in ctx_surfaces),
            start=np.zeros(embeddings.dimension),
        )

    content = ContentLayers(
        tokens=eau_surfaces,
        rules=tuple(c_rules),
        discourse=tuple(cb_disc),
        sentiment=sent_cb,
        punct_count=count_punct(eau_surfaces),
        embedding=emb_content,
    )
    context = ContextLayers(
        tokens=ctx_surfaces,
        rules=tuple(x_rules),
        crossing_rules=tuple(cross),
        discourse=tuple(ci_disc),
        crossing_discourse=tuple(fa_disc),
        sentiment_ci=sent_ci,
        sentiment_fa=sent_fa,
        preceding_count=preceding,
        following_count=following,
        unit_index=unit_index,
        is_first=unit_index == 0,
        is_last=unit_index == len(units) - 1,
        paragraph_index=par_idx,
        embedding=emb_context,
    )
    return SideView(eau_id=eau.id, content=content, context=context)


def build_views(
    bundle: CorpusBundle, instances: list[RelationInstance]
) -> list[InstanceView]:
    """Instance views for a batch of instances, with per-EAU side caching."""
    layers = bundle.layers
    cache: dict[tuple[str, str], SideView] = {}

    def side(doc_id: str, eau_id: str) -> SideView:
        key = (doc_id, eau_id)
        if key not in cache:
            doc_bundle = bundle.bundles[doc_id]
            eau = doc_bundle.parsed.eau_by_id(eau_id)
            cache[key] = build_side_view(doc_bundle, eau, bundle.embeddings)
        return cache[key]

    views = []
    for inst in instances:
        source = side(inst.doc_id, inst.source)
        target = side(inst.doc_id, inst.target) if inst.target else None
        views.append(
            InstanceView(instance=inst, source=source, target=target, layers=layers)
        )
    return views


# --------------------------------------------------------------------------
# Experiment driver


@dataclass
class RunConfig:
    """Every setting of one experiment; each field is also a config key."""

    corpus_dir: str = ""
    embeddings_path: str = ""
    split_path: str = ""
    output_dir: str = "out"
    task: str = choice("f", TASK_CLASSES)
    model_type: str = choice(FA, MODEL_TYPES)
    families: tuple[str, ...] = ()  # empty = all available
    pairing_scope: str = choice(PairingConfig.scope, PAIRING_SCOPES)
    exclude_reverse: bool = PairingConfig.exclude_reverse
    train: TrainConfig = field(default_factory=TrainConfig)
    eval_seed: int = 0
    significance_n: int = 0  # 0 disables significance testing

    def __post_init__(self):
        if not (self.corpus_dir and self.split_path):
            raise ValueError("corpus_dir and split_path must be set")
        check_choices(self)
        unknown = [f for f in self.families if f not in FAMILIES]
        if unknown:
            raise ValueError(f"unknown feature family: {','.join(unknown)}")
        if self.eval_seed < 0:
            raise ValueError("eval_seed must be non-negative")
        if self.significance_n and self.significance_n < MIN_PERMUTATIONS:
            raise ValueError(f"significance_n must be 0 or at least {MIN_PERMUTATIONS}")

    def pairing(self) -> PairingConfig:
        return PairingConfig(scope=self.pairing_scope, exclude_reverse=self.exclude_reverse)


@dataclass
class ExperimentData:
    bundle: CorpusBundle
    split: CorpusSplit
    train_instances: list[RelationInstance]
    test_instances: list[RelationInstance]
    train_views: list[InstanceView]
    test_views: list[InstanceView]
    classes: tuple[str, ...]
    embedding_dim: int


def prepare(config: RunConfig) -> ExperimentData:
    bundle = load_corpus_dir(
        config.corpus_dir, config.embeddings_path or None
    )
    split = split_corpus(bundle.corpus, read_text(config.split_path))
    all_instances = corpus_mod.build_instances(
        bundle.corpus, config.task, config.pairing()
    )
    train_instances = [
        i for i in all_instances if i.doc_id in split.train_doc_ids
    ]
    test_instances = [i for i in all_instances if i.doc_id in split.test_doc_ids]
    if not train_instances or not test_instances:
        raise DataError("empty train or test instance set")
    dim = bundle.embeddings.dimension if bundle.embeddings else 0
    return ExperimentData(
        bundle=bundle,
        split=split,
        train_instances=train_instances,
        test_instances=test_instances,
        train_views=build_views(bundle, train_instances),
        test_views=build_views(bundle, test_instances),
        classes=TASK_CLASSES[config.task],
        embedding_dim=dim,
    )


def resolve_families(config: RunConfig, data: ExperimentData) -> tuple[str, ...]:
    if not config.families:
        return default_families(data.train_views[0])
    for family in config.families:
        if FAMILY_LAYER[family] not in data.bundle.layers:
            raise MissingLayerError(f"{FAMILY_LAYER[family]} (required by {family} features)")
    return tuple(config.families)


def train_model(
    config: RunConfig, data: ExperimentData, model_type: str | None = None
) -> tuple[LinearModel, FeatureRegistry, list, tuple[str, ...]]:
    """Registry construction + training; returns (model, registry, X_train, families)."""
    model_type = model_type or config.model_type
    families = resolve_families(config, data)
    registry = FeatureRegistry()
    X_train = [
        assemble(v, model_type, registry, families, data.embedding_dim)
        for v in data.train_views
    ]
    registry.freeze()
    y_train = [v.instance.label for v in data.train_views]
    model = train(
        X_train,
        y_train,
        config.train,
        registry,
        data.classes,
        model_type=model_type,
        task=config.task,
    )
    return model, registry, X_train, families


def evaluate_model(
    model: LinearModel,
    registry: FeatureRegistry,
    views: list[InstanceView],
    classes,
    families,
    embedding_dim: int,
) -> tuple[EvalReport, list[str]]:
    X = [
        assemble(v, model.model_type, registry, families, embedding_dim)
        for v in views
    ]
    preds = predict_all(model, X)
    gold = [v.instance.label for v in views]
    return f1_report(preds, gold, classes), preds


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _setting_lines(config, prefix: str = ""):
    """``key = value`` per field; nested configs' keys take the ``svm_`` prefix."""
    for f in fields(config):
        value = getattr(config, f.name)
        if is_dataclass(value):
            yield from _setting_lines(value, "svm_")
        elif isinstance(value, tuple):
            yield f"{prefix}{f.name} = {','.join(value) or 'auto'}"
        else:
            yield f"{prefix}{f.name} = {value}"


def write_manifest(config: RunConfig, outputs: list[str]) -> None:
    """``manifest.txt`` in the output dir: every setting, then input and output hashes."""
    lines = list(_setting_lines(config))
    inputs = [config.split_path] + ([config.embeddings_path] if config.embeddings_path else [])
    for path_in in sorted(inputs):
        if os.path.isfile(path_in):
            lines.append(f"input {path_in} sha256={_sha256_file(path_in)}")
    for path_out in outputs:
        if os.path.isfile(path_out):
            lines.append(f"output {path_out} sha256={_sha256_file(path_out)}")
    with open(os.path.join(config.output_dir, "manifest.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_report_tsv(path, report: EvalReport) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for section, key, value in report.as_rows():
            fh.write(f"{section}\t{key}\t{value}\n")
        for note in report.notes:
            fh.write(f"note\t-\t{note}\n")


def write_solver_tsv(path, models: list[LinearModel]) -> None:
    """One row per trained machine of each model, and one stderr warning if any hit the cap."""
    unconverged = []
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            "model_type\tclass\tnewton_iterations\tepochs\tmax_epochs\tconverged\t"
            "max_pg\tdual\n"
        )
        for model in models:
            for cls, fit in model.convergence.items():
                duals = model.dual_objectives[cls]
                fh.write(
                    f"{model.model_type}\t{cls}\t{fit.newton_iterations}\t{len(duals)}\t"
                    f"{model.config.max_epochs}\t{str(fit.converged).lower()}\t"
                    f"{fit.max_pg}\t{duals[-1]}\n"
                )
                if not fit.converged:
                    unconverged.append(f"{model.model_type} {cls}")
    if unconverged:
        print(
            f"warning: {len(unconverged)} of {sum(len(m.convergence) for m in models)} "
            f"solver machines ({', '.join(unconverged)}) stopped at the "
            f"{models[0].config.max_epochs}-epoch cap without converging; see {path}",
            file=sys.stderr,
        )


def run_experiment(config: RunConfig) -> EvalReport:
    """Full ingest -> train -> evaluate run with artifacts in the output dir."""
    os.makedirs(config.output_dir, exist_ok=True)
    data = prepare(config)
    model, registry, _, families = train_model(config, data)
    report, preds = evaluate_model(
        model, registry, data.test_views, data.classes, families, data.embedding_dim
    )

    if config.significance_n:
        mfs_label = mfs_baseline(
            [v.instance.label for v in data.train_views], data.classes
        )
        gold = [v.instance.label for v in data.test_views]
        baseline_preds = [mfs_label] * len(gold)
        p = significance(
            preds,
            baseline_preds,
            gold,
            data.classes,
            n=config.significance_n,
            seed=config.eval_seed,
        )
        report.significance.append(
            {
                "baseline": "mfs",
                "p": p,
                "n_permutations": config.significance_n,
                "seed": config.eval_seed,
            }
        )

    model_path = os.path.join(config.output_dir, "model.txt")
    report_path = os.path.join(config.output_dir, "report.tsv")
    solver_path = os.path.join(config.output_dir, "solver.tsv")
    save_model(model, model_path)
    write_report_tsv(report_path, report)
    write_solver_tsv(solver_path, [model])
    write_manifest(config, [model_path, report_path, solver_path])
    return report
