"""Peak memory of the matrix passes, as ratios to the arrays they make.

The passes over a ``CsrMatrix`` work in row blocks whose temporaries are
bounded by ``features.ROW_BLOCK_BYTES``, so on a corpus whose matrix spans
many blocks each pass adds little beyond its output.  An extraction that
meets the density rule in every Φ slice is written straight into the
solver's array (``DenseMatrix``), which training reads without a copy.
"""

import os
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from argdissect.annotations import DiscourseRelation, Token, TreeNode
from argdissect.evaluation import anova_scores
from argdissect import features
from argdissect.features import (
    FA, CsrMatrix, DenseMatrix, FeatureRegistry, default_families, extract_matrix,
)
from argdissect.learn import TrainConfig, _solver_rows, train
from argdissect.pipeline import DocBundle, RunConfig, build_views, prepare, train_model
from argdissect.synth import SynthConfig, generate_corpus


def added_peak(fn):
    """fn's result and the most memory held during the call beyond that held before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def task_g_config(tmp_path_factory, n_docs, embeddings=True):
    """A task-g run over an ``n_docs``-document synthetic corpus."""
    corpus = str(tmp_path_factory.mktemp(f"synth{n_docs}") / "corpus")
    generate_corpus(corpus, SynthConfig(n_docs=n_docs, seed=1))
    return RunConfig(
        corpus_dir=corpus,
        split_path=os.path.join(corpus, "split.tsv"),
        embeddings_path=os.path.join(corpus, "embeddings.txt") if embeddings else "",
        task="g",
    )


@pytest.fixture(scope="module")
def config(tmp_path_factory):
    """A task-g run over a 200-document synthetic corpus; every family's
    extraction is in dense form."""
    return task_g_config(tmp_path_factory, 200)


@pytest.fixture(scope="module")
def sparse_config(tmp_path_factory):
    """A task-g run without embeddings over a 400-document synthetic corpus,
    whose 82-column ``SPARSE_FAMILIES`` matrix spans six row blocks, as the
    178-column matrix of every family spans seven on 200 documents."""
    return task_g_config(tmp_path_factory, 400, embeddings=False)


def parse_training_layers(data):
    """Parse the layers of every training document, as a corpus loaded
    whole would hold them."""
    for doc_id in {i.doc_id for i in data.train_instances}:
        data.bundle.bundles[doc_id].parse_layers()


# Families whose CB slice falls below the density rule (23% of its cells
# are stored), so that their extraction stays a ``CsrMatrix``; the FA rows
# store 36% of theirs.
SPARSE_FAMILIES = ("lexical", "syntactic")


@pytest.fixture(scope="module")
def training_set(sparse_config):
    """The task-g training views of the corpus, their FA rows of
    ``SPARSE_FAMILIES`` over a frozen registry, and the bytes the extraction
    peaked at.  The layers are parsed before the measurement, so that it
    counts building the views and extracting them, not parsing."""
    data = prepare(sparse_config)
    parse_training_layers(data)
    registry = FeatureRegistry()
    X, peak = added_peak(
        lambda: extract_matrix(data.train_views, registry, SPARSE_FAMILIES, data.embedding_dim)
    )
    registry.freeze()
    assert isinstance(X, CsrMatrix)
    return data, registry, X, peak


def test_extraction_peaks_near_its_output(training_set):
    _, _, X, peak = training_set
    n, d = X.shape
    assert len(X.data) > n * d // 4  # dense enough that a copy would show
    output = X.indptr.nbytes + X.indices.nbytes + X.data.nbytes
    assert peak <= 2.5 * output


@pytest.mark.parametrize("state", ["open", "frozen"])
def test_extraction_of_built_views_adds_little_beyond_its_output(training_set, state):
    """Views already built, extraction holds its output, the pool of side
    entries and one row block's temporaries: no whole-matrix temporary,
    whether an open registry registers every name or the frozen one holds
    them all."""
    data, registry, X, _ = training_set
    registry = registry if state == "frozen" else FeatureRegistry()
    Y, peak = added_peak(
        lambda: extract_matrix(data.train_views, registry, SPARSE_FAMILIES, data.embedding_dim)
    )
    assert np.array_equal(Y.indices, X.indices) and np.array_equal(Y.data, X.data)
    output = Y.indptr.nbytes + Y.indices.nbytes + Y.data.nbytes
    assert peak <= 1.8 * output


def test_kept_training_matrix_costs_at_most_9_bytes_per_entry(training_set):
    """Its 82 columns take ``uint8`` indices: 9 B per entry with the value,
    plus the ``intp`` row pointers."""
    _, _, X, _ = training_set
    assert X.n_cols <= 256
    kept = X.indptr.nbytes + X.indices.nbytes + X.data.nbytes
    assert kept <= 9 * len(X.data) + 8 * (len(X) + 1)


def test_anova_makes_no_dense_copy(training_set):
    data, registry, X, _ = training_set
    labels = [v.instance.label for v in data.train_views]
    _, added = added_peak(lambda: anova_scores(X, labels, registry))
    n, d = X.shape
    assert added < n * d * 8


def test_dense_solver_rows_add_little_beyond_their_array(training_set):
    _, _, X, _ = training_set
    rows, added = added_peak(lambda: _solver_rows(X))
    assert rows.X.nbytes <= added <= 1.1 * rows.X.nbytes


def test_streamed_training_features_peak_below_built_views(config):
    """``train_features`` builds the training views a document at a time and
    extracts each as it is built, so it holds no whole-corpus list of views:
    it peaks below building the views and then extracting them."""
    data = prepare(config)
    families = default_families(data.bundle.layers)
    (registry, X), streamed = added_peak(lambda: data.train_features)
    assert "train_views" not in data.__dict__

    whole_data = prepare(config)
    whole_registry = FeatureRegistry()

    def build_then_extract():
        views = build_views(whole_data.bundle, whole_data.train_instances)
        return extract_matrix(views, whole_registry, families, whole_data.embedding_dim)

    Y, whole = added_peak(build_then_extract)
    assert isinstance(X, DenseMatrix) and np.array_equal(X.rows, Y.rows)
    assert registry.registry_id == whole_registry.registry_id
    # 200 documents: views 1.1 MB; 9.1 MB streamed, 14.5 MB built, then extracted
    _, views_bytes = added_peak(
        lambda: build_views(whole_data.bundle, whole_data.train_instances)
    )
    assert streamed <= whole - views_bytes / 2


def test_prepare_parses_no_layer(config, monkeypatch):
    """``prepare`` makes no token, tree node or discourse relation: each
    document's layers are parsed when a command first reads them."""
    made = Counter()
    for record in (Token, TreeNode, DiscourseRelation):
        def counting(cls, *args, _new=record.__new__):
            made[cls.__name__] += 1
            return _new(cls, *args)

        monkeypatch.setattr(record, "__new__", counting)
    data = prepare(config)
    assert not made
    data.bundle.check_layers()
    assert set(made) == {"Token", "TreeNode", "DiscourseRelation"}


def test_streamed_training_features_release_each_documents_layers(config, monkeypatch):
    """``train_features`` parses each training document's layers when it
    builds the document's views, and releases them once they are extracted,
    so it peaks below the extraction with the training layers held from the
    start (as a corpus loaded whole holds them) plus half the layers of a
    prepared corpus.  Holding every training layer until the end would add
    about four fifths of those."""
    loaded = prepare(config)
    docs = loaded.bundle.bundles.values()
    _, layer_bytes = added_peak(lambda: [doc.parse_layers() for doc in docs])

    held = prepare(config)
    parse_training_layers(held)
    with monkeypatch.context() as patch:
        patch.setattr(DocBundle, "release", lambda self: None)
        _, held_peak = added_peak(lambda: held.train_features)

    data = prepare(config)
    (_, X), streamed = added_peak(lambda: data.train_features)
    assert np.array_equal(X.rows, held.train_features[1].rows)
    # 200 documents: layers 4.6 MB; 9.4 MB with them held, 9.1 MB streamed
    assert streamed < held_peak + layer_bytes / 2


@pytest.fixture(scope="module")
def dense_training_set(config):
    """The task-g training views of the 200-document corpus, with their
    layers parsed, and the frozen registry of their FA extraction over every
    family, which is in dense form."""
    data = prepare(config)
    parse_training_layers(data)
    registry = FeatureRegistry()
    X = extract_matrix(data.train_views, registry, None, data.embedding_dim)
    registry.freeze()
    assert isinstance(X, DenseMatrix)
    return data, registry, X


@pytest.mark.parametrize("state", ["open", "frozen"])
def test_dense_extraction_holds_its_array_and_at_most_the_sparse_forms_bytes(
    dense_training_set, monkeypatch, state
):
    """Beside the array it returns, extraction holds one table of its sides
    (each side's named entries and numeric rows once, whichever tags it
    appears under) and one row block's temporaries.  So it adds less than
    half the sparse form of the same rows, and never holds that form beside
    the array.  Pooling each side once per tag, with the numeric blocks'
    nonzeros pooled too, peaked 3.7 MB beyond the array on 200 documents;
    now 2.0 MB."""
    data, registry, X = dense_training_set
    registry = registry if state == "frozen" else FeatureRegistry()
    Y, peak = added_peak(
        lambda: extract_matrix(data.train_views, registry, None, data.embedding_dim)
    )
    assert isinstance(Y, DenseMatrix) and np.array_equal(Y.rows, X.rows)
    with monkeypatch.context() as patch:
        patch.setattr(features, "dense_rule", lambda *args: False)
        sparse = extract_matrix(data.train_views, registry, None, data.embedding_dim)
    assert isinstance(sparse, CsrMatrix) and np.array_equal(sparse.toarray(), Y.toarray())
    sparse_bytes = sparse.indptr.nbytes + sparse.indices.nbytes + sparse.data.nbytes
    # 200 documents: array 6.9 MB, sparse form 4.5 MB, peak 8.9 MB
    assert Y.rows.nbytes <= peak <= Y.rows.nbytes + sparse_bytes / 2


def test_dense_solver_rows_are_the_extracted_array(dense_training_set):
    _, _, X = dense_training_set
    rows, added = added_peak(lambda: _solver_rows(X))
    assert rows.X is X.rows
    assert added < X.rows.nbytes / 10


def test_training_on_the_dense_form_copies_no_row(dense_training_set):
    """``train`` adds its Newton machines' Hessian blocks
    (``learn.HESSIAN_BLOCK_BYTES``) and per-row vectors, not a copy of the
    rows: 1.6 MB over an array of 6.9 MB on 200 documents."""
    data, registry, X = dense_training_set
    labels = [v.instance.label for v in data.train_views]
    _, added = added_peak(lambda: train(X, labels, TrainConfig(), registry, data.classes))
    assert added < X.rows.nbytes / 2


def test_task_g_extraction_and_training_peak(config):
    """``train_model`` of an FA model on 200 documents, from the corpus to
    the trained model: streamed extraction into the solver's array, then
    training on it.  Holding the sparse extraction beside a dense copy
    for the solver peaked at 13.3 MB, and pooling each side once per tag
    at 10.9 MB; now 9.1 MB."""
    data = prepare(config)
    (model, _, X, _), peak = added_peak(lambda: train_model(config, data, FA))
    assert isinstance(X, DenseMatrix) and model.n_features == X.n_cols
    assert peak < 12e6
