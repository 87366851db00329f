"""Corpus loading, instance-view construction, and experiment orchestration.

A corpus directory holds, per document: ``<id>.txt``, ``<id>.ann``, and
optionally ``<id>.tokens.tsv``, ``<id>.trees``, ``<id>.discourse``; plus a
corpus-level split file and embedding table.  ``run_experiment`` wires
ingest -> align -> registry freeze -> extract -> train -> evaluate, writes
each solver machine's convergence, and writes a manifest with content hashes
so runs are reproducible.  Every model trains (``train_model``) and predicts
(``evaluate_models``) on its Φ columns of one FA extraction per split and condition.
That extraction is in dense form when every Φ slice meets the density rule
(``features.extract_matrix``), and the training matrix is then the solver's
array itself, kept until the last model is trained; the manifest names the
form and shape of the FA training matrix (``train_matrix``), which sets the
memory a training command holds.

Every piece of state built lazily is a cached property, built on first read
and dropped by its owner's release method: a document's layers and the
lookups built on them (``DocBundle``), and a command's feature families,
views and training features (``ExperimentData``).  ``prepare`` parses no
layer file and builds no side view.  A document's token, tree and discourse
files are parsed when first read, and released once the command has built
its last view from them, so every command checks the layer files it reads
and ``ingest`` checks them all (``CorpusBundle.check_layers``).  A command
builds only the views it reads, one per distinct EAU side.  The training
views are streamed into the extraction one document at a time and not kept;
the test views are built once and kept.  A document's sentence regions and
discourse spans are worked out once per parse; aligning an EAU and the
discourse split still read the whole document.  The corpus layer set is
worked out once, from facts each document gathers at load without parsing
(``CorpusBundle.layers``).
"""

from __future__ import annotations

import hashlib
import os
import sys
from bisect import bisect_left
from dataclasses import dataclass, field, fields, is_dataclass
from functools import cached_property
from itertools import chain, groupby
from operator import attrgetter
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
    token_key,
    trees_have_sentiment,
)
from .corpus import (
    Corpus,
    EauSpan,
    PAIRING_SCOPES,
    PairingConfig,
    ParsedDoc,
    RelationInstance,
    TASK_CLASSES,
    parse_standoff,
    split_corpus,
)
from .errors import DataError, MissingLayerError, OffsetError, StandoffParseError
from .evaluation import MIN_PERMUTATIONS, EvalReport, f1_report, mfs_baseline, significance
from .features import (
    FA,
    FAMILIES,
    FAMILY_LAYER,
    MODEL_TYPES,
    ContentLayers,
    ContextLayers,
    DenseMatrix,
    FeatureMatrix,
    FeatureRegistry,
    InstanceView,
    SideView,
    assemble,  # noqa: F401  (kept importable here: tracing tools wrap pipeline's names)
    count_punct,
    default_families,
    extract_matrix,
)
from .learn import LinearModel, TrainConfig, predict_all, save_model, train
from .settings import check_choices, choice
from .treeops import cut_tree, range_disjoint, range_inside
from .treeops import (  # noqa: F401  (kept importable here: tracing tools wrap pipeline's names)
    content_rules, context_rules, crossing_rules, select_sentiment_nodes,
)


_start = attrgetter("start")
_end = attrgetter("end")
_sentence_of = attrgetter("sentence_idx")
_doc_of = attrgetter("doc_id")


# A document's layer files, ``<id>`` plus the extension; only tokens are required.
_LAYER_FILES = {"tokens": ".tokens.tsv", "trees": ".trees", "discourse": ".discourse"}


class DocBundle:
    """A document's standoff parse and its token, tree and discourse layers.

    ``base`` is the path of the document's layer files without their
    extension.  Each layer, and each lookup built on the layers, is a cached
    property: parsed from its file on first read, through this module's
    parser names, and kept until ``release``; a released layer is parsed
    again if read again.  ``layers`` names the layers the document has,
    known without parsing: which files exist, and a label scan of the trees
    file.  A layer the document lacks reads as None.
    """

    def __init__(self, parsed: ParsedDoc, base: str):
        self.parsed = parsed
        self._base = base
        layers = {name for name, ext in _LAYER_FILES.items() if os.path.exists(base + ext)}
        if "tokens" not in layers:
            raise MissingLayerError(f"tokens ({base + _LAYER_FILES['tokens']})")
        if "trees" in layers and trees_have_sentiment(read_text(base + _LAYER_FILES["trees"])):
            layers.add("sentiment")
        self.layers = frozenset(layers)

    @cached_property
    def tokens(self) -> list[Token]:
        doc = self.parsed.document
        return self._parse("tokens", parse_token_offsets, doc.text, doc.id)

    @cached_property
    def trees(self) -> Optional[dict[int, ConstTree]]:
        return self._parse("trees", parse_trees_file, self.tokens, self.parsed.document.id)

    @cached_property
    def discourse(self) -> Optional[list[DiscourseRelation]]:
        doc = self.parsed.document
        return self._parse("discourse", parse_discourse_file, len(doc.text), doc.id)

    def _parse(self, name: str, parse, *args):
        """The layer parsed from its file, or None if the document lacks it;
        a malformed file is a ``DataError`` naming it."""
        if name not in self.layers:
            return None
        path = self._base + _LAYER_FILES[name]
        content = read_text(path)
        try:
            return parse(content, *args)
        except DataError as exc:
            exc.args = (f"{path}: {exc}",)
            raise

    def parse_layers(self) -> None:
        """Parse each layer not held; a malformed file is a ``DataError``."""
        for name in _LAYER_FILES:
            getattr(self, name)

    def release(self) -> None:
        """Drop the parsed layers and the lookups built on them."""
        for name in _CACHED:
            self.__dict__.pop(name, None)

    # the side views' lookups, each built on first use (EAUs live on ``parsed``)
    @cached_property
    def sentence_regions(self) -> dict[int, tuple[int, int]]:
        """Sentence index -> the sentence's character region (first start, last end)."""
        # the token parser keeps (sentence, token) ascending: one run per sentence
        regions = {}
        for s_idx, run in groupby(self.tokens, key=_sentence_of):
            run = list(run)
            regions[s_idx] = (min(map(_start, run)), max(map(_end, run)))
        return regions

    @cached_property
    def discourse_spans(self) -> list[tuple]:
        """(arg1 span, arg2 span, (kind, sense)) of each discourse relation."""
        return [(rel.arg1, rel.arg2, (rel.kind, rel.sense)) for rel in self.discourse or ()]


# What ``DocBundle.release`` drops: the layers and the lookups built on them.
_CACHED = (*_LAYER_FILES, "sentence_regions", "discourse_spans")


@dataclass
class CorpusBundle:
    corpus: Corpus
    bundles: dict[str, DocBundle]
    embeddings: Optional[EmbeddingTable] = None

    @cached_property
    def layers(self) -> frozenset[str]:
        """The annotation layers every document (or the corpus) has; worked out once."""
        layers = frozenset(("tokens", "trees", "sentiment", "discourse")).intersection(
            *(doc.layers for doc in self.bundles.values())
        )
        if self.embeddings is not None:
            layers |= {"embeddings"}
        return layers

    def check_layers(self) -> None:
        """Parse every document's layer files, then release them: a malformed
        file is a ``DataError`` even where no instance reads it."""
        for doc in self.bundles.values():
            doc.parse_layers()
            doc.release()


def read_text(path) -> str:
    """A UTF-8 text file's content; an unreadable file is a ``DataError``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None


def make_output_dir(path) -> None:
    """Create the output directory unless it exists; an unusable path is a ``DataError``."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot create output directory {path}: {exc}") from None


def standoff_ids(corpus_dir) -> list[str]:
    """The ids of the directory's ``<id>.txt``/``<id>.ann`` pairs, sorted."""
    try:
        names = os.listdir(corpus_dir)
    except OSError as exc:
        raise DataError(f"cannot read corpus directory {corpus_dir}: {exc}") from None
    return sorted(
        f.removesuffix(".txt")
        for f in names
        if f.endswith(".txt") and os.path.exists(
            os.path.join(corpus_dir, f.removesuffix(".txt") + ".ann")
        )
    )


def load_standoff_dir(corpus_dir) -> Corpus:
    """Parse every ``<id>.txt``/``<id>.ann`` pair of the directory, in id order."""
    doc_ids = standoff_ids(corpus_dir)
    if not doc_ids:
        raise DataError(f"no <id>.txt / <id>.ann pairs found in {corpus_dir}")
    corpus = Corpus()
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
    return corpus


def load_corpus_dir(corpus_dir, embeddings_path=None) -> CorpusBundle:
    """Load every ``<id>.txt``/``<id>.ann`` pair; each document's layer files
    are parsed when first read (``DocBundle``)."""
    corpus = load_standoff_dir(corpus_dir)
    bundles = {
        doc_id: DocBundle(parsed, base=os.path.join(corpus_dir, doc_id))
        for doc_id, parsed in corpus.docs.items()
    }
    embeddings = None
    if embeddings_path:
        try:
            embeddings = load_embeddings(read_text(embeddings_path))
        except StandoffParseError as exc:
            raise StandoffParseError(f"{embeddings_path}: {exc}") from None
    return CorpusBundle(corpus=corpus, bundles=bundles, embeddings=embeddings)


def _embedding_sum(table: EmbeddingTable, tokens) -> np.ndarray:
    """The sum of the tokens' lowercased-word vectors, added left to right onto zeros.

    A word the table lacks adds the zero vector, which cannot change a sum
    that starts from +0.0, so it is skipped.
    """
    total = np.zeros(table.dimension)
    for token in tokens:
        vec = table.entries.get(token.surface.lower())
        if vec is not None:
            total += vec
    return total


def _discourse_pairs(relations, eau_span, region):
    """The (kind, sense) pairs of the relations touching ``region``, as CB, CI and FA.

    A relation with both arguments inside the EAU span is content (CB); one
    with both inside the region and both disjoint from the EAU is context
    (CI); any other relation touching the region crosses the boundary (FA).
    """
    cb: list[tuple[str, str]] = []
    ci: list[tuple[str, str]] = []
    fa: list[tuple[str, str]] = []
    for arg1, arg2, pair in relations:
        if range_disjoint(arg1, region) and range_disjoint(arg2, region):
            continue
        if range_inside(arg1, eau_span) and range_inside(arg2, eau_span):
            cb.append(pair)
        elif (
            range_inside(arg1, region)
            and range_inside(arg2, region)
            and range_disjoint(arg1, eau_span)
            and range_disjoint(arg2, eau_span)
        ):
            ci.append(pair)
        else:
            fa.append(pair)
    return cb, ci, fa


def build_side_view(
    bundle: DocBundle, eau: EauSpan, embeddings: Optional[EmbeddingTable]
) -> SideView:
    """Compute the content and context layers for one EAU.

    Reads the EAU's paragraph position from the parsed document, and its
    sentences' regions and the discourse spans from the ``DocBundle``.
    """
    alignment = align_eau(eau, bundle.tokens)
    eau_tokens, context_tokens = alignment.eau_tokens, alignment.context_tokens
    eau_surfaces = tuple(t.surface for t in eau_tokens)
    ctx_surfaces = tuple(t.surface for t in context_tokens)
    preceding = bisect_left(context_tokens, token_key(eau_tokens[0]), key=token_key)
    following = len(context_tokens) - preceding

    par_idx, unit_index, n_units = bundle.parsed.position(eau)

    c_rules: list[str] = []
    x_rules: list[str] = []
    cross: list[str] = []
    sent_cb = sent_ci = sent_fa = None
    if bundle.trees is not None:
        # the EAU tokens are in document order: one run per covering sentence
        for k, (s_idx, run) in enumerate(groupby(eau_tokens, key=_sentence_of)):
            run = list(run)
            tree = bundle.trees[s_idx]
            cut = cut_tree(tree, (run[0].token_idx, run[-1].token_idx + 1))
            for out, rules in zip((c_rules, x_rules, cross), cut.rules):
                out.extend(sorted(rules))
            if k == 0 and tree.has_sentiment:
                sent_cb, sent_ci, sent_fa = (
                    node.sentiment if node else None for node in cut.sentiment_nodes
                )

    cb_disc = ci_disc = fa_disc = ()
    if bundle.discourse is not None:
        covering = [bundle.sentence_regions[s] for s in alignment.covering_sentence_idxs]
        region = (min(first for first, _ in covering), max(last for _, last in covering))
        cb_disc, ci_disc, fa_disc = _discourse_pairs(
            bundle.discourse_spans, (eau.start, eau.end), region
        )

    emb_content = emb_context = None
    if embeddings is not None:
        emb_content = _embedding_sum(embeddings, eau_tokens)
        emb_context = _embedding_sum(embeddings, context_tokens)

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
        is_last=unit_index == n_units - 1,
        paragraph_index=par_idx,
        embedding=emb_context,
    )
    return SideView(eau_id=eau.id, content=content, context=context)


def _new_side(sides: dict, bundle: CorpusBundle, doc_id: str, eau_id: str) -> SideView:
    """Build the side of an EAU and keep it in ``sides``."""
    doc = bundle.bundles[doc_id]
    side = build_side_view(doc, doc.parsed.eau_by_id(eau_id), bundle.embeddings)
    sides[doc_id, eau_id] = side
    return side


def build_views(
    bundle: CorpusBundle, instances: list[RelationInstance]
) -> list[InstanceView]:
    """Instance views for a batch of instances; each distinct side is built once."""
    layers = bundle.layers
    sides: dict[tuple[str, str], SideView] = {}
    views = []
    for inst in instances:
        doc_id, source_id, target_id = inst.doc_id, inst.source, inst.target
        source = sides.get((doc_id, source_id)) or _new_side(sides, bundle, doc_id, source_id)
        target = None
        if target_id:
            target = sides.get((doc_id, target_id)) or _new_side(sides, bundle, doc_id, target_id)
        views.append(InstanceView(inst, source, target, layers))
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
        repeated = sorted({f for f in self.families if self.families.count(f) > 1})
        if repeated:
            raise ValueError(f"feature family listed twice: {','.join(repeated)}")
        if self.eval_seed < 0:
            raise ValueError("eval_seed must be non-negative")
        if self.significance_n and self.significance_n < MIN_PERMUTATIONS:
            raise ValueError(f"significance_n must be 0 or at least {MIN_PERMUTATIONS}")

    def pairing(self) -> PairingConfig:
        return PairingConfig(scope=self.pairing_scope, exclude_reverse=self.exclude_reverse)


@dataclass
class ExperimentData:
    """A loaded corpus and each split's instances, with their labels and views.

    Everything built from them is a cached property, built the first time
    it is read.  Views are built one document at a time, through the
    module's ``build_views`` name, which tracing tools wrap.  No instance of
    another document reads a document's layers, so they are released once
    its views are built.  ``families`` resolves the command's feature
    families (``resolve_families``); ``baseline`` and ``ingest`` never read
    it.  ``train_features`` streams the training views into the extraction
    and keeps none of them.  ``train_views`` and ``test_views`` are kept.
    Of the commands only ``ingest`` reads ``train_views``; ``anova`` and
    ``baseline`` read no ``test_views``.
    """

    config: RunConfig
    bundle: CorpusBundle
    train_instances: list[RelationInstance]
    test_instances: list[RelationInstance]
    classes: tuple[str, ...]
    embedding_dim: int
    # the FA training matrix's form and shape, recorded when it is extracted
    train_matrix: Optional[str] = field(default=None, init=False)

    @cached_property
    def families(self) -> tuple[str, ...]:
        return resolve_families(self.config, self)

    @cached_property
    def train_labels(self) -> list[str]:
        return [inst.label for inst in self.train_instances]

    @cached_property
    def test_labels(self) -> list[str]:
        return [inst.label for inst in self.test_instances]

    @cached_property
    def train_views(self) -> list[InstanceView]:
        return list(chain.from_iterable(self._views_by_document(self.train_instances)))

    @cached_property
    def test_views(self) -> list[InstanceView]:
        return list(chain.from_iterable(self._views_by_document(self.test_instances)))

    def _views_by_document(self, instances: list[RelationInstance]):
        """The instances' views, one list per document; a document's layers
        are released when the next list is asked for."""
        for doc_id, run in groupby(instances, key=_doc_of):
            yield build_views(self.bundle, list(run))
            self.bundle.bundles[doc_id].release()

    @cached_property
    def train_features(self) -> tuple[FeatureRegistry, Optional[FeatureMatrix]]:
        """The training views' FA registry, frozen, and their FA rows over it.

        Every model type trains on a column view of the same rows, which
        are kept until ``release_train_rows``.  Each document's views are
        extracted as soon as they are built, and none is kept; its layers
        are released once they are extracted.
        """
        registry = FeatureRegistry()
        views = self._views_by_document(self.train_instances)
        X = extract_matrix(views, registry, self.families, self.embedding_dim)
        registry.freeze()
        form = "dense" if isinstance(X, DenseMatrix) else "sparse"
        self.train_matrix = "{} {}x{}".format(form, *X.shape)
        return registry, X

    def release_train_rows(self) -> None:
        """Drop the training rows and keep the registry, whose ``dropped_in``
        the test extraction counts: no step after the last training reads them."""
        self.train_features = self.train_features[0], None


def prepare(config: RunConfig) -> ExperimentData:
    """Load the corpus and split it into instances; no layer file is parsed
    and no side view is built."""
    bundle = load_corpus_dir(config.corpus_dir, config.embeddings_path or None)
    split = split_corpus(bundle.corpus, read_text(config.split_path))
    all_instances = corpus_mod.build_instances(bundle.corpus, config.task, config.pairing())
    train_instances = [i for i in all_instances if i.doc_id in split.train_doc_ids]
    test_instances = [i for i in all_instances if i.doc_id in split.test_doc_ids]
    if not train_instances or not test_instances:
        raise DataError("empty train or test instance set")
    dim = bundle.embeddings.dimension if bundle.embeddings else 0
    return ExperimentData(
        config=config,
        bundle=bundle,
        train_instances=train_instances,
        test_instances=test_instances,
        classes=TASK_CLASSES[config.task],
        embedding_dim=dim,
    )


def resolve_families(config: RunConfig, data: ExperimentData) -> tuple[str, ...]:
    if not config.families:
        return default_families(data.bundle.layers)
    for family in config.families:
        if FAMILY_LAYER[family] not in data.bundle.layers:
            raise MissingLayerError(f"{FAMILY_LAYER[family]} (required by {family} features)")
    return tuple(config.families)


def train_model(
    config: RunConfig, data: ExperimentData, model_type: str | None = None
) -> tuple[LinearModel, FeatureRegistry, FeatureMatrix, tuple[str, ...]]:
    """Training on the model type's column view of the FA training features.

    Returns (model, registry, X_train, families): the CB and CI registries
    are the FA registry's names of that type, in the same order.
    """
    model_type = model_type or config.model_type
    registry, X_train = data.train_features
    if model_type != FA:
        columns = registry.columns_of(model_type)
        registry, X_train = registry.subset(columns), X_train.columns(columns)
    model = train(
        X_train,
        data.train_labels,
        config.train,
        registry,
        data.classes,
        model_type=model_type,
        task=config.task,
    )
    return model, registry, X_train, data.families


def evaluate_models(
    models: list[LinearModel], registry: FeatureRegistry, views: list[InstanceView],
    classes, families, embedding_dim: int,
) -> list[tuple[EvalReport, list[str]]]:
    """Each model's report and predictions on its Φ columns of one extraction of the views
    over the frozen FA registry (over one type's registry, other types count as unseen)."""
    X = extract_matrix(views, registry, families, embedding_dim)
    gold = [v.instance.label for v in views]
    predictions = [predict_all(m, X.columns(registry.columns_of(m.model_type))) for m in models]
    return [(f1_report(preds, gold, classes), preds) for preds in predictions]


def evaluate_model(
    model: LinearModel, registry: FeatureRegistry, views: list[InstanceView],
    classes, families, embedding_dim: int,
) -> tuple[EvalReport, list[str]]:
    """``evaluate_models`` of one model, over the FA registry or ``train_model``'s."""
    return evaluate_models([model], registry, views, classes, families, embedding_dim)[0]


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


def write_manifest(
    config: RunConfig, outputs: list[str], families=None, train_matrix=None
) -> None:
    """``manifest.txt`` in the output dir: every setting, the feature families
    used if given (``families = auto`` resolves by the corpus's layers) and
    the form and shape of the FA training matrix if given
    (``ExperimentData.train_matrix``), then input and output hashes."""
    lines = list(_setting_lines(config))
    if families is not None:
        lines.append(f"families_used = {','.join(families)}")
    if train_matrix is not None:
        lines.append(f"train_matrix = {train_matrix}")
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


def write_features_tsv(path, models: list[LinearModel], registry: FeatureRegistry) -> None:
    """Per model: its Φ type, width, and test features of its slice dropped as
    unseen by ``registry``, the FA registry the test views were extracted over."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("model_type\tn_features\tdropped_unseen\n")
        for model in models:
            dropped = registry.dropped_in[model.model_type]
            fh.write(f"{model.model_type}\t{model.n_features}\t{dropped}\n")


def write_training_outputs(
    config: RunConfig, outputs: list[str], models: list[LinearModel], data: ExperimentData
) -> None:
    """``solver.tsv`` and ``features.tsv`` of the models, trained on the FA
    training features and their column views, then the manifest, which
    names the families and that FA matrix's form."""
    registry = data.train_features[0]
    solver_path = os.path.join(config.output_dir, "solver.tsv")
    features_path = os.path.join(config.output_dir, "features.tsv")
    write_solver_tsv(solver_path, models)
    write_features_tsv(features_path, models, registry)
    write_manifest(
        config, [*outputs, solver_path, features_path], data.families, data.train_matrix
    )


def run_experiment(config: RunConfig) -> EvalReport:
    """Full ingest -> train -> evaluate run with artifacts in the output dir."""
    make_output_dir(config.output_dir)
    data = prepare(config)
    model = train_model(config, data)[0]
    data.release_train_rows()
    [(report, preds)] = evaluate_models(
        [model], data.train_features[0], data.test_views, data.classes, data.families,
        data.embedding_dim,
    )

    if config.significance_n:
        mfs_label = mfs_baseline(data.train_labels, data.classes)
        p = significance(
            preds, [mfs_label] * len(data.test_labels), data.test_labels, data.classes,
            n=config.significance_n, seed=config.eval_seed,
        )
        report.significance.append({
            "baseline": "mfs", "p": p, "n_permutations": config.significance_n,
            "seed": config.eval_seed,
        })

    model_path = os.path.join(config.output_dir, "model.txt")
    report_path = os.path.join(config.output_dir, "report.tsv")
    save_model(model, model_path)
    write_report_tsv(report_path, report)
    write_training_outputs(config, [model_path, report_path], [model], data)
    return report
