import os
import re
import weakref
from collections import Counter

import numpy as np
import pytest

from argdissect import cli, features, pipeline
from argdissect.annotations import align_eau, load_embeddings
from argdissect.corpus import build_instances, parse_standoff
from argdissect.errors import MissingLayerError
from argdissect.evaluation import randomize_contexts
from argdissect.features import CB, CI, FA, CsrMatrix, DenseMatrix, FeatureRegistry, dense_rule
from argdissect.learn import TrainConfig, decision_values, predict_all, save_model, train
from argdissect.pipeline import (
    DocBundle,
    RunConfig,
    build_side_view,
    evaluate_model,
    load_corpus_dir,
    prepare,
    resolve_families,
    run_experiment,
    train_model,
)
from argdissect.synth import SynthConfig, generate_corpus

from conftest import (
    SMOKE_TOKEN_SPECS, SMOKE_TREE, assert_same_matrix, csr_of, layer_bundle, reference_assemble,
)


def smoke_bundle(with_tree=True):
    text = "However, people should not smoke.\n"
    ann = "T1\tClaim 9 32\tpeople should not smoke\n"
    tokens = "".join(
        f"0\t{i}\t{start}\t{end}\t{surface}\n"
        for i, (start, end, surface) in enumerate(SMOKE_TOKEN_SPECS)
    )
    return layer_bundle(
        parse_standoff(text, ann, "d"), tokens, SMOKE_TREE + "\n" if with_tree else None
    )


def test_side_view_tokens_and_counts():
    bundle = smoke_bundle()
    sv = build_side_view(bundle, bundle.parsed.eau_by_id("T1"), None)
    assert sv.content.tokens == ("people", "should", "not", "smoke")
    assert sv.context.tokens == ("However", ",", ".")
    assert sv.context.preceding_count == 2
    assert sv.context.following_count == 1
    assert sv.context.unit_index == 0
    assert sv.context.is_first and sv.context.is_last
    assert sv.content.punct_count == 0


def test_side_view_rule_layers():
    bundle = smoke_bundle()
    sv = build_side_view(bundle, bundle.parsed.eau_by_id("T1"), None)
    assert sorted(sv.content.rules) == [
        "MD→should",
        "NN→people",
        "NP→NN",
        "RB→not",
        "S→NP_VP",
        "VB→smoke",
        "VP→MD_RB_VB",
    ]
    assert sorted(sv.context.rules) == [",→,", ".→.", "ADVP→however"]
    assert sv.context.crossing_rules == ("S'→ADVP_,_S_.",)


def test_side_view_sentiment_nodes():
    bundle = smoke_bundle()
    sv = build_side_view(bundle, bundle.parsed.eau_by_id("T1"), None)
    assert sv.content.sentiment == 4  # the EAU's own clause node
    assert sv.context.sentiment_ci == 2  # leftmost context constituent
    assert sv.context.sentiment_fa == 3  # whole-sentence node


def test_side_view_without_trees():
    bundle = smoke_bundle(with_tree=False)
    sv = build_side_view(bundle, bundle.parsed.eau_by_id("T1"), None)
    assert sv.content.rules == ()
    assert sv.content.sentiment is None


def test_side_view_embedding_skips_words_missing_from_the_table():
    """A word the table lacks adds nothing: the EAU's vector is the sum of its
    other (lowercased) words' vectors, and so is the context's."""
    bundle = smoke_bundle()
    table = load_embeddings("people 1 2\nsmoke 0.5 -4\nhowever 3 3\n")
    sv = build_side_view(bundle, bundle.parsed.eau_by_id("T1"), table)
    # "should" and "not" are missing from the table, as are "," and "."
    assert sv.content.embedding.tolist() == [1.5, -2.0]
    assert sv.context.embedding.tolist() == [3.0, 3.0]


# ---------------------------------------------------------------------------
# end-to-end over the synthetic corpus


def run_config(synth_dir, out_dir, **kw):
    defaults = dict(
        corpus_dir=synth_dir,
        embeddings_path=os.path.join(synth_dir, "embeddings.txt"),
        split_path=os.path.join(synth_dir, "split.tsv"),
        output_dir=out_dir,
        task="f",
        train=TrainConfig(max_epochs=200),
    )
    defaults.update(kw)
    return RunConfig(**defaults)


def test_build_views_cuts_each_side_sentence_once(synth_dir, monkeypatch):
    """All tree work of ``build_views`` happens inside ``pipeline.cut_tree``, one
    call per (side, covering sentence), so a span around it times all of it."""
    bundle = load_corpus_dir(synth_dir)
    instances = build_instances(bundle.corpus, "g")
    cuts = Counter()
    cut_tree = pipeline.cut_tree

    def counting(tree, eau_range):
        cuts[tree.doc_id, tree.sentence_idx, eau_range] += 1
        return cut_tree(tree, eau_range)

    def unused(*args, **kwargs):
        raise AssertionError("build_views reads rules and sentiment nodes from the cut")

    monkeypatch.setattr(pipeline, "cut_tree", counting)
    for reader in ("content_rules", "context_rules", "crossing_rules", "select_sentiment_nodes"):
        monkeypatch.setattr(pipeline, reader, unused)
    pipeline.build_views(bundle, instances)
    sides = {(i.doc_id, e) for i in instances for e in (i.source, i.target) if e}
    expected = Counter()
    for doc_id, eau_id in sides:
        doc = bundle.bundles[doc_id]
        alignment = align_eau(doc.parsed.eau_by_id(eau_id), doc.tokens)
        for s_idx in alignment.covering_sentence_idxs:
            in_sent = [t.token_idx for t in alignment.eau_tokens if t.sentence_idx == s_idx]
            expected[doc_id, s_idx, (min(in_sent), max(in_sent) + 1)] += 1
    assert sum(expected.values()) >= len(sides) > 0
    assert cuts == expected


def test_load_corpus_dir_layers(synth_dir):
    bundle = load_corpus_dir(synth_dir)
    assert {"tokens", "trees", "sentiment", "discourse"} <= bundle.layers
    assert "embeddings" not in bundle.layers


def layers_of_parsed_trees(bundle):
    """The corpus layer set as the parsed layers give it."""
    docs = list(bundle.bundles.values())
    for doc in docs:
        doc.parse_layers()
    layers = {"tokens"}
    if all(doc.trees is not None for doc in docs):
        layers.add("trees")
        if all(tree.has_sentiment for doc in docs for tree in doc.trees.values()):
            layers.add("sentiment")
    if all(doc.discourse is not None for doc in docs):
        layers.add("discourse")
    return layers


@pytest.mark.parametrize("edit", ["none", "strip_sentiment", "drop_trees"])
def test_corpus_layers_are_those_of_the_parsed_trees(tmp_path, edit):
    """The layer set read from file facts and a label scan at load equals
    the set the parsed trees give: on a seed-1 corpus, with one test
    document's sentiment suffixes stripped, or with its tree file gone."""
    corpus = tmp_path / "corpus"
    generate_corpus(str(corpus), SynthConfig(n_docs=20, seed=1))
    split = (corpus / "split.tsv").read_text(encoding="utf-8")
    doc = sorted(line.split("\t")[0] for line in split.splitlines() if line.endswith("\ttest"))[0]
    trees = corpus / f"{doc}.trees"
    if edit == "strip_sentiment":
        text = trees.read_text(encoding="utf-8")
        assert "|s=" in text
        trees.write_text(re.sub(r"\|s=[1-5]", "", text), encoding="utf-8")
    elif edit == "drop_trees":
        trees.unlink()
    layers = load_corpus_dir(str(corpus)).layers
    assert layers == layers_of_parsed_trees(load_corpus_dir(str(corpus)))
    expected = {
        "none": {"tokens", "trees", "sentiment", "discourse"},
        "strip_sentiment": {"tokens", "trees", "discourse"},
        "drop_trees": {"tokens", "discourse"},
    }
    assert layers == expected[edit]


# A ``DocBundle``'s cached names: its layers and the lookups built on them
DOC_CACHED = ("tokens", "trees", "discourse", "sentence_regions", "discourse_spans")


def holds(doc):
    """The cached names the document holds."""
    return [name for name in DOC_CACHED if name in doc.__dict__]


def test_training_features_release_the_layers_they_read(synth_dir):
    """After ``train_features`` no training document holds a parsed layer; a
    later ``train_views`` parses them again, to the views and matrix built
    with no release."""
    config = run_config(synth_dir, "unused", embeddings_path="", task="g")
    data = prepare(config)
    families = resolve_families(config, data)
    registry, X = data.train_features
    train_docs = [data.bundle.bundles[doc_id] for doc_id in dict.fromkeys(
        inst.doc_id for inst in data.train_instances)]
    assert not any(holds(doc) for doc in train_docs)

    kept = load_corpus_dir(synth_dir)  # build_views releases nothing
    expected_views = pipeline.build_views(kept, data.train_instances)
    expected_registry = FeatureRegistry()
    expected = features.extract_matrix(expected_views, expected_registry, families)
    assert all(holds(kept.bundles[doc.parsed.document.id]) for doc in train_docs)

    views = data.train_views
    assert views == expected_views
    assert not any(holds(doc) for doc in train_docs)
    for M in (X, features.extract_matrix(views, FeatureRegistry(), families)):
        assert_same_matrix(M, expected)
    assert registry.registry_id == expected_registry.registry_id


def test_a_released_layer_parses_again_from_its_file(synth_dir):
    """``release`` drops every cached name; each then reads as a new object,
    parsed again from the document's files, equal to the one dropped."""
    doc = load_corpus_dir(synth_dir).bundles["essay000"]
    assert doc.layers >= {"tokens", "trees", "discourse"}
    held = {name: getattr(doc, name) for name in DOC_CACHED}
    assert holds(doc) == list(DOC_CACHED) and all(held.values())
    doc.release()
    assert not holds(doc)
    for name, before in held.items():
        again = getattr(doc, name)
        assert again == before and again is not before


@pytest.mark.parametrize("command", [["run"], ["robustness", "--mode", "randomized"]])
def test_training_rows_are_freed_before_the_test_extraction(tmp_path, monkeypatch, command):
    """Once ``run`` and ``robustness`` have trained their last model, nothing
    holds the training rows when the test views are extracted; the manifest
    still names the training matrix's form and shape."""
    corpus = str(tmp_path / "corpus")
    generate_corpus(corpus, SynthConfig(n_docs=40, seed=1))
    extract = pipeline.extract_matrix
    training_rows, alive_at_test = [], []

    def recording(views, registry, *args):
        if registry.frozen:
            alive_at_test.append(training_rows[0]() is not None)
            return extract(views, registry, *args)
        X = extract(views, registry, *args)
        training_rows.append(weakref.ref(X.rows))
        return X

    monkeypatch.setattr(pipeline, "extract_matrix", recording)
    assert cli.main(command + [
        "--corpus-dir", corpus,
        "--split", os.path.join(corpus, "split.tsv"),
        "--embeddings", os.path.join(corpus, "embeddings.txt"),
        "--out", str(tmp_path / "out"),
        "--task", "g",
    ]) == 0
    assert len(training_rows) == 1 and alive_at_test == [False]
    manifest = (tmp_path / "out" / "manifest.txt").read_text().splitlines()
    assert "train_matrix = dense 960x178" in manifest


def test_build_views_share_sides(synth_dir):
    bundle = load_corpus_dir(synth_dir)
    config = run_config(synth_dir, "unused")
    data = prepare(config)
    views = data.train_views
    assert views
    # every pair instance carries both sides
    assert all(v.target is not None for v in views)


def test_ci_beats_cb_on_context_heavy_corpus(synth_dir, tmp_path):
    config = run_config(synth_dir, str(tmp_path))
    data = prepare(config)
    scores = {}
    for model_type in (CB, CI, FA):
        model, registry, _, families = train_model(config, data, model_type)
        report, _ = evaluate_model(
            model, registry, data.test_views, data.classes, families,
            data.embedding_dim,
        )
        scores[model_type] = report.macro_f1
    # the corpus plants a stronger clue in the context than in the content
    assert scores[CI] > scores[CB]
    assert scores[FA] >= scores[CB]


def test_run_experiment_writes_artifacts(synth_dir, tmp_path):
    config = run_config(synth_dir, str(tmp_path / "out"), significance_n=200)
    report = run_experiment(config)
    assert 0.0 <= report.macro_f1 <= 100.0
    assert report.significance[0]["baseline"] == "mfs"
    for name in ("model.txt", "report.tsv", "manifest.txt"):
        assert (tmp_path / "out" / name).exists()
    manifest = (tmp_path / "out" / "manifest.txt").read_text()
    assert "sha256=" in manifest
    assert "task = f" in manifest
    assert "significance_n = 200" in manifest
    assert f"output_dir = {tmp_path / 'out'}" in manifest


def test_run_experiment_deterministic(synth_dir, tmp_path):
    r1 = run_experiment(run_config(synth_dir, str(tmp_path / "a")))
    r2 = run_experiment(run_config(synth_dir, str(tmp_path / "b")))
    assert r1.macro_f1 == r2.macro_f1
    assert (tmp_path / "a" / "report.tsv").read_bytes() == (
        tmp_path / "b" / "report.tsv"
    ).read_bytes()


def test_requesting_family_without_layer_fails(synth_dir, tmp_path):
    config = run_config(
        synth_dir, str(tmp_path), embeddings_path="", families=("embedding",)
    )
    data = prepare(config)
    with pytest.raises(MissingLayerError):
        train_model(config, data)


def test_unseen_test_features_are_dropped(synth_dir, tmp_path):
    config = run_config(synth_dir, str(tmp_path))
    data = prepare(config)
    model, registry, _, families = train_model(config, data)
    assert registry.frozen
    before = len(registry)
    evaluate_model(
        model, registry, data.test_views, data.classes, families, data.embedding_dim
    )
    assert len(registry) == before


# ---------------------------------------------------------------------------
# one extraction, column views


def loop_scores(model, vectors):
    """Per-instance decision values, bias plus w[idx] * value in entry order,
    and the sum of the magnitudes of their terms."""
    scores = np.zeros((len(vectors), len(model.classes)))
    scales = np.zeros_like(scores)
    for i, vec in enumerate(vectors):
        for k, cls in enumerate(model.classes):
            w = model.weights[cls]
            scores[i, k], scales[i, k] = model.biases[cls], abs(model.biases[cls])
            for idx, val in vec.items():
                scores[i, k] += w[idx] * val
                scales[i, k] += abs(w[idx] * val)
    return scores, scales


# Settings under which the CB rows are sparse by the density rule
SPARSE_CB = {"embeddings_path": "", "families": ("lexical", "syntactic")}


@pytest.mark.parametrize("task", ["f", "g"])
@pytest.mark.parametrize("settings", [
    {},  # every slice dense
    {"embeddings_path": "", "families": ("lexical", "syntactic")},  # CB rows sparse
])
def test_slice_models_match_models_trained_from_typed_vectors(
    synth_dir, tmp_path, task, settings
):
    config = run_config(synth_dir, str(tmp_path), task=task, **settings)
    data = prepare(config)
    families = resolve_families(config, data)
    labels = [v.instance.label for v in data.train_views]
    for model_type in (CB, CI, FA):
        model, registry, X, _ = train_model(config, data, model_type)
        oracle = FeatureRegistry()
        vectors = [
            reference_assemble(v, model_type, oracle, families, data.embedding_dim)
            for v in data.train_views
        ]
        oracle.freeze()
        expected = train(csr_of(vectors, len(oracle)), labels, config.train, oracle,
                         data.classes, model_type=model_type, task=task)
        assert len(X) == len(vectors) and X.shape[1] == len(oracle)
        assert model.registry_id == expected.registry_id
        for cls in data.classes:
            assert np.array_equal(model.weights[cls], expected.weights[cls])
            assert model.biases[cls] == expected.biases[cls]
        save_model(model, tmp_path / "slice.txt")
        save_model(expected, tmp_path / "vectors.txt")
        assert (tmp_path / "slice.txt").read_bytes() == (tmp_path / "vectors.txt").read_bytes()

        # matrix prediction is the per-instance loop's, on standard and
        # transformed test views
        for views in (data.test_views, randomize_contexts(data.test_views, seed=1)):
            test_vectors = [
                reference_assemble(v, model_type, oracle, families, data.embedding_dim)
                for v in views
            ]
            _, preds = evaluate_model(
                model, registry, views, data.classes, families, data.embedding_dim
            )
            scores, scales = loop_scores(model, test_vectors)
            # X @ W + b sums in another order: equal up to rounding
            X_test = csr_of(test_vectors, len(oracle))
            values = decision_values(model, X_test)
            assert np.all(np.abs(values - scores) <= 1e-12 * scales)
            assert preds == [model.classes[k] for k in np.argmax(scores, axis=1)]
            assert predict_all(model, X_test) == preds


@pytest.mark.parametrize("task", ["f", "g"])
def test_an_extraction_whose_cb_slice_is_sparse_stays_sparse(synth_dir, task):
    """With the "CB rows sparse" settings above, the FA rows meet the density
    rule and the CB rows do not, so the training and test extractions stay
    a ``CsrMatrix`` and each model reads its column view as before; with
    every family they are dense."""
    for settings, form in (({}, DenseMatrix), (SPARSE_CB, CsrMatrix)):
        config = run_config(synth_dir, "unused", task=task, **settings)
        data = prepare(config)
        families = resolve_families(config, data)
        registry, X = data.train_features
        test = features.extract_matrix(data.test_views, registry, families, data.embedding_dim)
        for M in (X, test):
            assert isinstance(M, form)
            if form is CsrMatrix:
                cb = M.columns(registry.columns_of(CB))
                assert dense_rule(*M.shape, len(M.data))
                assert not dense_rule(*cb.shape, len(cb.data))


@pytest.mark.parametrize("command", [
    ["run"], ["robustness", "--mode", "randomized"], ["anova"],
])
def test_each_train_side_is_extracted_once(synth_dir, tmp_path, monkeypatch, command):
    """The training views are not kept, so their sides are taken where
    ``build_side_view`` returns them, and kept alive here so that no two
    share an ``id``."""
    calls, value_calls = Counter(), Counter()
    extract_side, pair_values = features._side_blocks, features._pair_values
    built = {}  # (doc id, EAU id) -> every side built for it
    build_side = pipeline.build_side_view

    def recording(bundle, eau, embeddings):
        side = build_side(bundle, eau, embeddings)
        built.setdefault((bundle.parsed.document.id, eau.id), []).append(side)
        return side

    def counting(sv, *args):
        calls[id(sv)] += 1
        return extract_side(sv, *args)

    def counting_values(family, scope, sides, *args):
        for sv in sides:
            value_calls[family, scope, id(sv)] += 1
        return pair_values(family, scope, sides, *args)

    prepared = []
    original_prepare = pipeline.prepare

    def keep(config):
        prepared.append(original_prepare(config))
        return prepared[-1]

    monkeypatch.setattr(pipeline, "build_side_view", recording)
    monkeypatch.setattr(features, "_side_blocks", counting)
    monkeypatch.setattr(features, "_pair_values", counting_values)
    monkeypatch.setattr(cli, "prepare", keep)
    monkeypatch.setattr(pipeline, "prepare", keep)
    assert cli.main(command + [
        "--corpus-dir", synth_dir,
        "--split", os.path.join(synth_dir, "split.tsv"),
        "--embeddings", os.path.join(synth_dir, "embeddings.txt"),
        "--out", str(tmp_path),
        "--task", "g",
        "--max-epochs", "200",
    ]) == 0
    [data] = prepared
    assert "train_views" not in data.__dict__  # streamed, not kept
    train_eaus = {
        (inst.doc_id, eau_id, tag)
        for inst in data.train_instances
        for tag, eau_id in (("src", inst.source), ("tgt", inst.target)) if eau_id
    }
    # each training side is built once
    assert all(len(built[doc_id, eau_id]) == 1 for doc_id, eau_id, _ in train_eaus)
    train_sides = {(id(built[doc_id, eau_id][0]), tag) for doc_id, eau_id, tag in train_eaus}
    assert len(train_sides) < 2 * len(data.train_instances)  # sides are shared
    # once per side object, whichever tags it appears under
    assert all(calls[sv_id] == 1 for sv_id, _ in train_sides)
    # a side's numeric values are computed once per (family, scope), whichever
    # tags it appears under
    paired = {(family, scope) for family, scope, _ in value_calls}
    assert paired == {(f, scope) for f, scopes in features._PAIRED.items() for scope in scopes}
    assert all(
        value_calls[family, scope, sv_id] == 1
        for family, scope in paired for sv_id, _ in train_sides
    )
