"""Peak memory of the matrix passes, as ratios to the arrays they make.

The passes over a ``CsrMatrix`` work in row blocks whose temporaries are
bounded by ``features.ROW_BLOCK_BYTES``, so on a corpus whose matrix spans
many blocks each pass adds little beyond its output.
"""

import os
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from argdissect.annotations import DiscourseRelation, Token, TreeNode
from argdissect.evaluation import anova_scores
from argdissect.features import FeatureRegistry, default_families, extract_matrix
from argdissect.learn import _solver_rows
from argdissect.pipeline import DocBundle, RunConfig, build_views, prepare
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


@pytest.fixture(scope="module")
def config(tmp_path_factory):
    """A task-g run over a 200-document synthetic corpus."""
    corpus = str(tmp_path_factory.mktemp("synth200") / "corpus")
    generate_corpus(corpus, SynthConfig(n_docs=200, seed=1))
    return RunConfig(
        corpus_dir=corpus,
        split_path=os.path.join(corpus, "split.tsv"),
        embeddings_path=os.path.join(corpus, "embeddings.txt"),
        task="g",
    )


def parse_training_layers(data):
    """Parse the layers of every training document, as a corpus loaded
    whole would hold them."""
    for doc_id in {i.doc_id for i in data.train_instances}:
        data.bundle.bundles[doc_id].parse_layers()


@pytest.fixture(scope="module")
def training_set(config):
    """The task-g training views of the corpus, their FA rows over a frozen
    registry, and the bytes the extraction peaked at.  The layers are parsed
    before the measurement, so that it counts building the views and
    extracting them, not parsing."""
    data = prepare(config)
    parse_training_layers(data)
    registry = FeatureRegistry()
    X, peak = added_peak(
        lambda: extract_matrix(data.train_views, registry, None, data.embedding_dim)
    )
    registry.freeze()
    return data, registry, X, peak


def test_extraction_peaks_near_its_output(training_set):
    _, _, X, peak = training_set
    n, d = X.shape
    assert len(X.data) > n * d // 4  # dense enough that a copy would show
    output = X.indptr.nbytes + X.indices.nbytes + X.data.nbytes
    assert peak <= 2.5 * output


def test_extraction_of_built_views_adds_little_beyond_its_output(training_set):
    """Views already built, extraction holds its output, the pool of side
    entries and one row block's temporaries: no whole-matrix temporary."""
    data, _, X, _ = training_set
    Y, peak = added_peak(
        lambda: extract_matrix(data.train_views, FeatureRegistry(), None, data.embedding_dim)
    )
    assert np.array_equal(Y.indices, X.indices) and np.array_equal(Y.data, X.data)
    output = Y.indptr.nbytes + Y.indices.nbytes + Y.data.nbytes
    assert peak <= 1.8 * output


def test_kept_training_matrix_costs_at_most_9_bytes_per_entry(training_set):
    """Its 178 columns take ``uint8`` indices: 9 B per entry with the value,
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


def test_streamed_training_features_peak_below_built_views(config, training_set):
    """``train_features`` builds the training views a document at a time and
    extracts each as it is built, so it holds no whole-corpus list of views:
    it peaks below building the views and then extracting them."""
    data = prepare(config)
    families = default_families(data.bundle.layers)
    (registry, X), streamed = added_peak(lambda: data.train_features(families))
    assert "train_views" not in data.__dict__

    whole_data = prepare(config)

    def build_then_extract():
        views = build_views(whole_data.bundle, whole_data.train_instances)
        return extract_matrix(views, FeatureRegistry(), families, whole_data.embedding_dim)

    Y, whole = added_peak(build_then_extract)
    _, expected_registry, expected, _ = training_set
    for M in (X, Y):
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(M, part), getattr(expected, part))
    assert registry.registry_id == expected_registry.registry_id
    # 200 documents: views 1.9 MB; 10.3 MB streamed, 11.8 MB built, then extracted
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
    families = default_families(prepare(config).bundle.layers)
    loaded = prepare(config)
    docs = loaded.bundle.bundles.values()
    _, layer_bytes = added_peak(lambda: [doc.parse_layers() for doc in docs])

    held = prepare(config)
    parse_training_layers(held)
    with monkeypatch.context() as patch:
        patch.setattr(DocBundle, "release", lambda self: None)
        _, held_peak = added_peak(lambda: held.train_features(families))

    data = prepare(config)
    (_, X), streamed = added_peak(lambda: data.train_features(families))
    assert np.array_equal(X.data, held.train_features(families)[1].data)
    # 200 documents: layers 4.6 MB; 10.5 MB with them held, 9.9 MB streamed
    assert streamed < held_peak + layer_bytes / 2
