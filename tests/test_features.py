import dataclasses
import itertools
import os
from collections import Counter

import numpy as np
import pytest

from argdissect import features
from argdissect.corpus import RelationInstance
from argdissect.errors import MissingLayerError
from argdissect.features import (
    CB,
    CI,
    FA,
    ContentLayers,
    ContextLayers,
    EMPTY_CONTEXT,
    MODEL_TYPES,
    CsrMatrix,
    DenseMatrix,
    FeatureRegistry,
    InstanceView,
    SideView,
    assemble,
    dense_rule,
    extract_all,
    extract_matrix,
    feature_type,
    index_dtype,
    row_blocks,
)
from argdissect.evaluation import anova_f_scores, randomize_contexts, strip_contexts
from argdissect.learn import TrainConfig, _DenseRows, decision_values, train
from argdissect.pipeline import RunConfig, prepare

from conftest import (
    assert_dense_form,
    assert_same_matrix,
    csr_of,
    csr_of_array,
    reference_assemble,
    scatter_reference,
)


def make_view(
    src_tokens=("people", "should", "not", "smoke"),
    src_ctx_tokens=("However", ",", "."),
    tgt_tokens=None,
    layers=("tokens",),
    src_content_extra=None,
    src_context_extra=None,
):
    src_content = ContentLayers(tokens=tuple(src_tokens), **(src_content_extra or {}))
    src_context = ContextLayers(
        tokens=tuple(src_ctx_tokens), **(src_context_extra or {})
    )
    source = SideView("T1", src_content, src_context)
    target = None
    if tgt_tokens is not None:
        target = SideView(
            "T2", ContentLayers(tokens=tuple(tgt_tokens)), EMPTY_CONTEXT
        )
    task = "h" if target is None else "f"
    inst = RelationInstance("T1", None if target is None else "T2", "support", task, "d")
    return InstanceView(inst, source, target, frozenset(layers))


def test_feature_type_from_name():
    assert feature_type("lex:eau:src:smoke") == CB
    assert feature_type("lex:ctx:src:however") == CI
    assert feature_type("syn:both:src:S'→ADVP_,_S") == FA


def test_registry_roundtrip_and_freeze():
    reg = FeatureRegistry()
    i = reg.index("lex:eau:src:smoke")
    assert reg.index("lex:eau:src:smoke") == i
    assert reg.name(i) == "lex:eau:src:smoke"
    reg.freeze()
    assert reg.index("lex:eau:src:new") is None
    assert reg.dropped_unseen == 1
    assert len(reg) == 1


def test_registry_id_depends_on_names():
    a, b = FeatureRegistry(), FeatureRegistry()
    a.index("lex:eau:src:x")
    b.index("lex:eau:src:x")
    assert a.registry_id == b.registry_id
    b.index("lex:eau:src:y")
    assert a.registry_id != b.registry_id


def test_registry_indices_of_type():
    reg = FeatureRegistry()
    reg.index("lex:eau:src:x")
    reg.index("lex:ctx:src:y")
    reg.index("lex:both:src:x")
    assert reg.indices_of_type(CB) == [0]
    assert reg.indices_of_type(CI) == [1]
    assert reg.indices_of_type(FA) == [2]


# ---------------------------------------------------------------------------
# lexical


def test_lexical_scopes():
    named = extract_all(make_view(), families=("lexical",))
    assert named["lex:eau:src:smoke"] == 1.0
    assert named["lex:ctx:src:however"] == 1.0
    assert "lex:both:src:smoke" not in named


def test_lexical_both_bag_on_shared_word():
    view = make_view(src_tokens=("smoke", "kills"), src_ctx_tokens=("Smoke", "alarm"))
    named = extract_all(view, families=("lexical",))
    assert named["lex:both:src:smoke"] == 1.0
    assert feature_type("lex:both:src:smoke") == FA


def test_lexical_target_side_tagged():
    view = make_view(tgt_tokens=("smoking", "relaxes"))
    named = extract_all(view, families=("lexical",))
    assert "lex:eau:tgt:smoking" in named
    assert "lex:eau:src:people" in named


# ---------------------------------------------------------------------------
# the Φ soundness properties


def test_cb_vector_blind_to_context():
    reg = FeatureRegistry()
    view = make_view()
    vec = assemble(view, CB, reg, families=("lexical", "structural"))
    changed = dataclasses.replace(
        view,
        source=SideView(
            "T1",
            view.source.content,
            ContextLayers(tokens=("Therefore", "obviously"), unit_index=3),
        ),
    )
    assert assemble(changed, CB, reg, families=("lexical", "structural")) == vec


def test_ci_vector_blind_to_content():
    reg = FeatureRegistry()
    view = make_view()
    vec = assemble(view, CI, reg, families=("lexical",))
    changed = dataclasses.replace(
        view,
        source=SideView(
            "T1", ContentLayers(tokens=("totally", "different")), view.source.context
        ),
    )
    assert assemble(changed, CI, reg, families=("lexical",)) == vec


def test_fa_includes_all_scopes():
    reg = FeatureRegistry()
    view = make_view(src_tokens=("smoke",), src_ctx_tokens=("smoke", "However"))
    vec = assemble(view, FA, reg, families=("lexical",))
    names = {reg.name(i) for i in vec}
    assert {"lex:eau:src:smoke", "lex:ctx:src:smoke", "lex:both:src:smoke"} <= names


def test_typed_slices_partition_fa():
    view = make_view(src_tokens=("smoke",), src_ctx_tokens=("smoke", "However"))
    reg = FeatureRegistry()
    fa = assemble(view, FA, reg, families=("lexical", "structural"))
    cb = assemble(view, CB, reg, families=("lexical", "structural"))
    ci = assemble(view, CI, reg, families=("lexical", "structural"))
    both = {i for i in fa if feature_type(reg.name(i)) == FA}
    assert set(cb) | set(ci) | both == set(fa)
    assert set(cb) & set(ci) == set()


# ---------------------------------------------------------------------------
# structural


def test_structural_ratio_is_full_access():
    view = make_view(src_context_extra={"preceding_count": 2, "following_count": 1})
    named = extract_all(view, families=("structural",))
    assert named["struct:both:src:sentence_tokens"] == 7.0
    assert named["struct:both:src:eau_sentence_ratio"] == pytest.approx(4 / 7)
    assert named["struct:eau:src:token_count"] == 4.0
    assert named["struct:ctx:src:preceding_tokens"] == 2.0


def test_structural_zero_values_omitted():
    view = make_view(src_ctx_tokens=())
    named = extract_all(view, families=("structural",))
    assert "struct:ctx:src:unit_index" not in named
    assert "struct:eau:src:punct_count" not in named


# ---------------------------------------------------------------------------
# syntactic and discourse layers


def test_syntactic_requires_trees_layer():
    with pytest.raises(MissingLayerError):
        extract_all(make_view(), families=("syntactic",))


def test_syntactic_scopes():
    view = make_view(
        layers=("tokens", "trees"),
        src_content_extra={"rules": ("S→NP_VP",)},
        src_context_extra={
            "rules": ("ADVP→however",),
            "crossing_rules": ("S'→ADVP_,_S_.",),
        },
    )
    named = extract_all(view, families=("syntactic",))
    assert named["syn:eau:src:S→NP_VP"] == 1.0
    assert named["syn:ctx:src:ADVP→however"] == 1.0
    assert named["syn:both:src:S'→ADVP_,_S_."] == 1.0
    assert feature_type("syn:both:src:S'→ADVP_,_S_.") == FA


def test_discourse_scopes():
    view = make_view(
        layers=("tokens", "discourse"),
        src_content_extra={"discourse": (("Implicit", "Expansion"),)},
        src_context_extra={
            "discourse": (("Implicit", "Contingency"),),
            "crossing_discourse": (("Explicit", "Comparison.Contrast"),),
        },
    )
    named = extract_all(view, families=("discourse",))
    assert named["disc:eau:src:Implicit:Expansion"] == 1.0
    assert named["disc:ctx:src:Implicit:Contingency"] == 1.0
    assert named["disc:both:src:Explicit:Comparison.Contrast"] == 1.0


# ---------------------------------------------------------------------------
# embeddings and sentiment


def test_embedding_blocks_and_diff():
    src = make_view(
        layers=("tokens", "embeddings"),
        src_content_extra={"embedding": np.array([1.0, 0.0])},
        src_context_extra={"embedding": np.array([0.5, 0.5])},
    )
    named = extract_all(src, families=("embedding",), embedding_dim=2)
    assert named["emb:eau:src:000"] == 1.0
    assert "emb:eau:src:001" not in named  # explicit zeros skipped
    assert named["emb:ctx:src:000"] == 0.5
    assert "emb:eau:diff:000" not in named  # no diff without a target side


def test_embedding_diff_for_pairs():
    view = make_view(
        layers=("tokens", "embeddings"),
        tgt_tokens=("x",),
        src_content_extra={"embedding": np.array([1.0, 2.0])},
    )
    named = extract_all(view, families=("embedding",), embedding_dim=2)
    assert named["emb:eau:diff:000"] == 1.0
    assert named["emb:eau:diff:001"] == 2.0


def test_sentiment_one_hot_and_diff():
    view = make_view(
        layers=("tokens", "sentiment"),
        src_content_extra={"sentiment": 4},
        src_context_extra={"sentiment_ci": 2, "sentiment_fa": 3},
    )
    named = extract_all(view, families=("sentiment",))
    assert named["sent:eau:src:4"] == 1.0
    assert named["sent:ctx:src:2"] == 1.0
    assert named["sent:both:src:3"] == 1.0
    assert feature_type("sent:both:src:3") == FA


def test_sentiment_diff_block():
    src_content = ContentLayers(tokens=("a",), sentiment=4)
    tgt_content = ContentLayers(tokens=("b",), sentiment=2)
    inst = RelationInstance("T1", "T2", "support", "f", "d")
    view = InstanceView(
        inst,
        SideView("T1", src_content, EMPTY_CONTEXT),
        SideView("T2", tgt_content, EMPTY_CONTEXT),
        frozenset({"tokens", "sentiment"}),
    )
    named = extract_all(view, families=("sentiment",))
    assert named["sent:eau:diff:4"] == 1.0
    assert named["sent:eau:diff:2"] == -1.0
    assert "sent:eau:diff:3" not in named


# ---------------------------------------------------------------------------
# assembly against a frozen registry


def test_assemble_drops_unseen_when_frozen():
    reg = FeatureRegistry()
    assemble(make_view(), CB, reg, families=("lexical",))
    reg.freeze()
    n = len(reg)
    vec = assemble(
        make_view(src_tokens=("smoke", "banana")), CB, reg, families=("lexical",)
    )
    assert len(reg) == n
    assert reg.dropped_unseen >= 1
    names = {reg.name(i) for i in vec}
    assert "lex:eau:src:smoke" in names
    assert all("banana" not in name for name in names)


def test_assemble_rejects_unknown_model_type():
    with pytest.raises(ValueError):
        assemble(make_view(), "XX", FeatureRegistry())


# ---------------------------------------------------------------------------
# name order: registry indices, matrix columns and model files all follow it


# Per family in FAMILIES order; per side, scope eau, ctx, both (lexical,
# syntactic, structural, discourse); per scope, side src, tgt, diff
# (embedding, sentiment).
EXPECTED_ORDER = [
    ('lex:eau:src:kills', 1.0),
    ('lex:eau:src:smoking', 1.0),
    ('lex:ctx:src:,', 1.0),
    ('lex:ctx:src:.', 1.0),
    ('lex:ctx:src:however', 1.0),
    ('lex:ctx:src:smoking', 1.0),
    ('lex:both:src:smoking', 1.0),
    ('lex:eau:tgt:it', 1.0),
    ('lex:eau:tgt:relaxes', 1.0),
    ('lex:ctx:tgt:.', 1.0),
    ('lex:ctx:tgt:yet', 1.0),
    ('syn:eau:src:S→NP_VP', 1.0),
    ('syn:ctx:src:ADVP→however', 1.0),
    ("syn:both:src:S'→ADVP_,_S_.", 1.0),
    ('struct:eau:src:token_count', 2.0),
    ('struct:ctx:src:preceding_tokens', 2.0),
    ('struct:ctx:src:following_tokens', 1.0),
    ('struct:ctx:src:unit_index', 1.0),
    ('struct:ctx:src:is_last', 1.0),
    ('struct:both:src:sentence_tokens', 5.0),
    ('struct:both:src:eau_sentence_ratio', 0.4),
    ('struct:eau:tgt:token_count', 2.0),
    ('struct:ctx:tgt:following_tokens', 1.0),
    ('struct:ctx:tgt:is_first', 1.0),
    ('struct:both:tgt:sentence_tokens', 3.0),
    ('struct:both:tgt:eau_sentence_ratio', 2 / 3),
    ('disc:eau:src:Implicit:Expansion', 1.0),
    ('disc:ctx:src:Explicit:Comparison', 1.0),
    ('disc:both:src:Explicit:Contingency', 1.0),
    ('emb:eau:src:000', 1.0),
    ('emb:eau:tgt:001', 2.0),
    ('emb:eau:diff:000', 1.0),
    ('emb:eau:diff:001', -2.0),
    ('emb:ctx:src:000', 0.5),
    ('emb:ctx:src:001', 0.25),
    ('emb:ctx:diff:000', 0.5),
    ('emb:ctx:diff:001', 0.25),
    ('sent:eau:src:2', 1.0),
    ('sent:eau:tgt:4', 1.0),
    ('sent:eau:diff:2', 1.0),
    ('sent:eau:diff:4', -1.0),
    ('sent:ctx:src:3', 1.0),
    ('sent:ctx:diff:3', 1.0),
    ('sent:both:src:2', 1.0),
    ('sent:both:diff:2', 1.0),
]


def test_extract_all_name_order_is_pinned():
    source = SideView(
        "T1",
        ContentLayers(
            tokens=("Smoking", "kills"),
            rules=("S→NP_VP",),
            discourse=(("Implicit", "Expansion"),),
            sentiment=2,
            embedding=np.array([1.0, 0.0]),
        ),
        ContextLayers(
            tokens=("However", ",", "smoking", "."),
            rules=("ADVP→however",),
            crossing_rules=("S'→ADVP_,_S_.",),
            discourse=(("Explicit", "Comparison"),),
            crossing_discourse=(("Explicit", "Contingency"),),
            sentiment_ci=3,
            sentiment_fa=2,
            preceding_count=2,
            following_count=1,
            unit_index=1,
            is_last=True,
            embedding=np.array([0.5, 0.25]),
        ),
    )
    target = SideView(
        "T2",
        ContentLayers(tokens=("it", "relaxes"), sentiment=4, embedding=np.array([0.0, 2.0])),
        ContextLayers(tokens=("Yet", "."), following_count=1, is_first=True),
    )
    view = InstanceView(
        RelationInstance("T1", "T2", "attack", "f", "d"),
        source,
        target,
        frozenset({"tokens", "trees", "discourse", "embeddings", "sentiment"}),
    )
    named = extract_all(view, embedding_dim=2)
    assert list(named) == [name for name, _ in EXPECTED_ORDER]
    assert named == dict(EXPECTED_ORDER)


# ---------------------------------------------------------------------------
# batch extraction against the per-instance path


_PREPARED = {}


def prepared(synth_dir, task):
    """The 20-document synthetic corpus's views for ``task``, prepared once."""
    if task not in _PREPARED:
        _PREPARED[task] = prepare(RunConfig(
            corpus_dir=synth_dir,
            split_path=os.path.join(synth_dir, "split.tsv"),
            embeddings_path=os.path.join(synth_dir, "embeddings.txt"),
            task=task,
        ))
    return _PREPARED[task]


def assert_rows_equal(X, vectors, n_cols):
    """``X`` holds the vectors' entries: a ``CsrMatrix`` each row's in dict
    order, a ``DenseMatrix`` each at its column."""
    assert X.shape == (len(vectors), n_cols)
    if isinstance(X, CsrMatrix):
        assert csr_rows(X) == [list(vec.items()) for vec in vectors]
    else:
        assert_dense_form(X)
        assert np.array_equal(X.toarray(), scatter_reference(csr_of(vectors, n_cols)))


def csr_rows(X):
    """Each row's (column, value) entries, in stored order."""
    return [
        list(zip(X.indices[lo:hi].tolist(), X.data[lo:hi].tolist()))
        for lo, hi in zip(X.indptr[:-1], X.indptr[1:])
    ]


def assert_slice_equal(X, registry, model_type, vectors, oracle):
    """The model type's column view of the FA matrix ``X`` over ``registry``
    holds the vectors, built over ``oracle``, whose names are the slice's."""
    columns = registry.columns_of(model_type)
    assert registry.subset(columns)._names == oracle._names
    assert_rows_equal(X.columns(columns), vectors, len(oracle))


@pytest.mark.parametrize("task", ["f", "g"])
@pytest.mark.parametrize("model_type", [CB, CI, FA])
@pytest.mark.parametrize("families", [
    None, ("lexical", "embedding", "sentiment"), ("lexical", "syntactic"),
])
def test_extract_matrix_matches_per_instance_assembly(synth_dir, task, model_type, families):
    """The model type's column view of the FA extraction is per-view assembly
    of that type, and a frozen registry counts that type's unseen names."""
    data = prepared(synth_dir, task)
    dim = data.embedding_dim
    oracle, registry = FeatureRegistry(), FeatureRegistry()
    expected = [reference_assemble(v, model_type, oracle, families, dim) for v in data.train_views]
    X = extract_matrix(data.train_views, registry, families, dim)
    assert_slice_equal(X, registry, model_type, expected, oracle)
    assert registry.dropped_unseen == oracle.dropped_unseen == 0
    single = FeatureRegistry()
    rows = [assemble(v, model_type, single, families, dim) for v in data.train_views]
    assert [list(vec.items()) for vec in rows] == [list(vec.items()) for vec in expected]
    assert single.registry_id == oracle.registry_id

    # a registry frozen after one training row leaves test names unseen;
    # transformed views share no sides
    oracle, registry = FeatureRegistry(), FeatureRegistry()
    for v in data.train_views[:1]:
        reference_assemble(v, model_type, oracle, families, dim)
    extract_matrix(data.train_views[:1], registry, families, dim)
    oracle.freeze()
    registry.freeze()
    for views in (
        data.test_views,
        randomize_contexts(data.test_views, seed=3),
        strip_contexts(data.test_views),
    ):
        expected = [reference_assemble(v, model_type, oracle, families, dim) for v in views]
        X = extract_matrix(views, registry, families, dim)
        assert X.n_cols == len(registry)
        assert_slice_equal(X, registry, model_type, expected, oracle)
        assert registry.dropped_in[model_type] == oracle.dropped_unseen > 0


def order_views():
    """Views whose names first occur in an order that neither payload
    numbers nor rows alone give.  Row 0: side B first appears as a target,
    and lists payload ``a`` before ``b``, which source A numbered first.
    Row 1 repeats row 0, so a side's number is not its first row.  Row 3:
    the first nonzero of embedding difference column 0 comes after its
    source and target columns first occurred (row 0).  Row 4 has no
    target."""

    def side(eau_id, tokens, embedding, context=()):
        content = ContentLayers(tokens=tokens, embedding=np.array(embedding, float))
        return SideView(eau_id, content, ContextLayers(tokens=context))

    a = side("T1", ("b",), [1, 0], context=("x", "b"))
    b = side("T2", ("a", "b"), [1, 0])
    c = side("T3", ("c",), [1, 2])
    d = side("T4", ("a", "d"), [3, 2])
    layers = frozenset({"tokens", "embeddings"})
    return [
        InstanceView(RelationInstance(src.eau_id, tgt and tgt.eau_id, "support", "f", "d"),
                     src, tgt, layers)
        for src, tgt in [(a, b), (a, b), (b, c), (d, a), (c, None)]
    ]


@pytest.mark.parametrize("held", [(), ("lex:eau:tgt:b", "emb:eau:diff:001", "lex:eau:src:zzz")])
@pytest.mark.parametrize("chunked", [False, True])
def test_open_registry_registers_names_in_order_of_first_occurrence(held, chunked):
    """Rows, names and registry id are per-view assembly's, over a fresh open
    registry and over one that already holds some names; extracting the
    same views over the frozen result gives the same arrays and drops none."""
    views = order_views()
    oracle, registry = FeatureRegistry(), FeatureRegistry()
    for name in held:
        oracle.index(name)
        registry.index(name)
    expected = [reference_assemble(v, FA, oracle, None, 2) for v in views]
    X = extract_matrix(iter([views[:2], views[2:]]) if chunked else views, registry, None, 2)
    assert_rows_equal(X, expected, len(oracle))
    assert registry._names == oracle._names
    assert registry.registry_id == oracle.registry_id
    # rows first, then blocks, then places in the segment, not payload numbers
    column = registry._index
    assert column["emb:eau:src:000"] < column["lex:eau:src:a"] < column["emb:eau:diff:000"]
    assert column["lex:eau:src:b"] < column["lex:eau:tgt:a"] < column["emb:eau:src:000"]
    assert column["lex:eau:tgt:a"] < column["lex:eau:tgt:b"] or "lex:eau:tgt:b" in held

    registry.freeze()
    assert_same_matrix(extract_matrix(views, registry, None, 2), X)
    assert registry.dropped_in == dict.fromkeys((CB, CI, FA), 0)


@pytest.mark.parametrize("block_rows", [1, 3])
@pytest.mark.parametrize("model_type", [CB, CI, FA])
def test_extract_matrix_in_blocks_of_a_few_rows(synth_dir, monkeypatch, model_type, block_rows):
    """The gather writes a few rows at a time; rows, registration order and
    ``dropped_unseen`` stay those of per-view assembly, for an open registry
    and for a frozen one that leaves test names unseen, in the model type's
    column view of the FA rows.  Stripped contexts leave every CI row empty."""
    data = prepared(synth_dir, "g")
    dim = data.embedding_dim
    blocks = []  # the row blocks of each call

    def recorded_row_blocks(n_rows, width):
        blocks.append(row_blocks(n_rows, width))
        return blocks[-1]

    monkeypatch.setattr(features, "row_blocks", recorded_row_blocks)

    def extract(views, registry, width):
        # a row block of the gather is as wide as the registry, wider than
        # the name blocks of a row
        monkeypatch.setattr(features, "ROW_BLOCK_BYTES", block_rows * 8 * width)
        X = extract_matrix(views, registry, None, dim)
        assert all(hi - lo <= block_rows for lo, hi in blocks[-1])
        assert len(blocks[-1]) == -(-len(views) // block_rows)
        return X

    oracle, registry = FeatureRegistry(), FeatureRegistry()
    expected = [reference_assemble(v, model_type, oracle, None, dim) for v in data.train_views]
    fa_oracle = FeatureRegistry()  # the width the open registry reaches
    for v in data.train_views:
        reference_assemble(v, FA, fa_oracle, None, dim)
    X = extract(data.train_views, registry, len(fa_oracle))
    assert_slice_equal(X, registry, model_type, expected, oracle)

    oracle, registry = FeatureRegistry(), FeatureRegistry()
    for v in data.train_views[:4]:
        reference_assemble(v, model_type, oracle, None, dim)
    extract_matrix(data.train_views[:4], registry, None, dim)
    oracle.freeze()
    registry.freeze()
    for views in (data.test_views, strip_contexts(data.test_views), []):
        expected = [reference_assemble(v, model_type, oracle, None, dim) for v in views]
        X = extract(views, registry, len(registry))
        assert_slice_equal(X, registry, model_type, expected, oracle)
        assert registry.dropped_in[model_type] == oracle.dropped_unseen > 0
        if model_type == CI and views and views[0].source.context == EMPTY_CONTEXT:
            assert not X.columns(registry.columns_of(CI)).toarray().any()


def test_dense_row_blocks_match_a_scatter_of_every_entry(monkeypatch):
    rng = np.random.default_rng(31)
    dense = rng.normal(size=(23, 5)) * (rng.random((23, 5)) < 0.4)
    dense[[0, 7, 8, 22]] = 0.0  # empty rows, the first and the last among them
    X = csr_of_array(dense)
    monkeypatch.setattr(features, "ROW_BLOCK_BYTES", 2 * 8 * X.n_cols)  # two rows a block
    assert X.row_blocks()[:2] == [(0, 2), (2, 4)] and X.row_blocks()[-1] == (22, 23)
    expected = scatter_reference(X)
    assert np.array_equal(expected, dense)
    assert np.array_equal(X.toarray(), expected)
    assert np.array_equal(_DenseRows(X).X, np.hstack([expected, np.ones((23, 1))]))
    for lo, hi in [(0, 0), (0, 23), (5, 9), (7, 9), (22, 23)]:
        assert np.array_equal(X.dense_rows(lo, hi), expected[lo:hi])
    mask = np.array([True, False, True, True, False])
    assert np.array_equal(scatter_reference(X.columns(mask)), expected[:, mask])
    for empty in (csr_of_array(np.zeros((0, 5))), csr_of_array(np.zeros((4, 0)))):
        assert np.array_equal(empty.toarray(), scatter_reference(empty))
        assert _DenseRows(empty).X.shape == (len(empty), empty.n_cols + 1)


def test_extraction_column_views_are_the_typed_slices(synth_dir):
    data = prepared(synth_dir, "g")
    registry = FeatureRegistry()
    X = extract_matrix(data.train_views, registry, None, data.embedding_dim)
    registry.freeze()
    for model_type in (CB, CI):
        oracle = FeatureRegistry()
        expected = [
            reference_assemble(v, model_type, oracle, None, data.embedding_dim)
            for v in data.train_views
        ]
        columns = registry.columns_of(model_type)
        sub = registry.subset(columns)
        assert sub.registry_id == oracle.registry_id and sub.frozen
        assert_rows_equal(X.columns(columns), expected, len(oracle))


def test_index_dtype_is_the_narrowest_that_holds_the_width():
    for n_cols, dtype in [(0, np.uint8), (256, np.uint8), (257, np.uint16),
                          (65_536, np.uint16), (65_537, np.int32)]:
        assert index_dtype(n_cols) == dtype


def lexical_view(words):
    """A view whose features are the lexical ``eau`` indicators of ``words``."""
    inst = RelationInstance("T1", None, "support", "h", "d")
    return InstanceView(inst, SideView("T1", ContentLayers(tokens=tuple(words)), EMPTY_CONTEXT))


@pytest.mark.parametrize("width", [256, 257, 65_536, 65_537])
def test_extract_matrix_and_column_views_take_the_narrowest_index_dtype(width):
    """At each side of the uint8 and uint16 limits, the indices of an open
    registry's and a frozen registry's extraction and of every column view
    are of ``index_dtype`` of the width, with the columns of wider indices."""
    words = [f"w{k:05d}" for k in range(width)]
    # six empty rows keep the matrix below the density rule, in sparse form
    views = [lexical_view(words), lexical_view(words[::-2])] + [lexical_view([])] * 6
    registry = FeatureRegistry()
    X = extract_matrix(views, registry, ("lexical",))
    # an open registry that already holds every name registers none
    again = extract_matrix(views, registry, ("lexical",))
    assert again.indices.dtype == X.indices.dtype
    assert np.array_equal(again.indices, X.indices) and len(registry) == width
    registry.freeze()
    assert X.n_cols == width and X.indptr.dtype == np.intp
    assert X.indices.dtype == index_dtype(width)
    # row 0 registers every name, in order; row 1 holds every other column
    assert X.indices[:width].tolist() == list(range(width))
    assert X.indices[width:].tolist() == sorted(range(width)[::-2])

    # frozen: unseen names are dropped, the width stays the registry's
    test = extract_matrix([lexical_view([*words[-3:], "unseen"])], registry, ("lexical",))
    assert registry.dropped_unseen == 1 and test.n_cols == width
    assert test.indices.dtype == index_dtype(width)
    assert test.indices.tolist() == list(range(width - 3, width))

    wide = CsrMatrix(X.indptr, X.indices.astype(np.intp), X.data, width)
    for mask in (np.arange(width) != 255, np.arange(width) % 2 == 0, np.ones(width, bool)):
        expected = X.toarray()[:, mask]
        for M in (X, wide, test):
            view = M.columns(mask)
            assert view.indices.dtype == index_dtype(view.n_cols)
            assert view.indptr.dtype == np.intp
        assert np.array_equal(X.columns(mask).toarray(), expected)
        assert np.array_equal(wide.columns(mask).toarray(), expected)
    # every column: the matrix itself once narrow, else a narrowed copy
    assert X.columns(np.ones(width, bool)) is X
    assert wide.columns(np.ones(width, bool)) is not wide


def test_extraction_without_rows_has_narrow_indices():
    frozen = FeatureRegistry()
    frozen.freeze()
    for registry in (FeatureRegistry(), frozen):
        X = extract_matrix([], registry)
        assert X.shape == (0, 0) and X.indices.dtype == np.uint8


def test_views_keep_no_instance_dict(synth_dir):
    """The view records have slots; ``dataclasses.replace`` still works on them."""
    view = prepared(synth_dir, "g").train_views[0]
    for record in (view, view.source, view.source.content, view.source.context):
        assert not hasattr(record, "__dict__")
    swapped = dataclasses.replace(view, target=view.source)
    assert swapped.target is view.source and swapped.instance is view.instance


def test_sparse_rows_of_shared_sides_match_per_instance_assembly():
    """A wide vocabulary gives rows the learner keeps sparse; sides are shared,
    some views unpaired."""
    rng = np.random.default_rng(4)
    words = [f"w{k}" for k in range(300)]
    sides = [
        SideView(
            f"T{j}",
            ContentLayers(tokens=tuple(rng.choice(words, 4))),
            ContextLayers(tokens=tuple(rng.choice(words, 3)), unit_index=j % 3),
        )
        for j in range(12)
    ]
    views = []
    for k in range(40):
        a, b = rng.integers(12, size=2)
        target = sides[b] if k % 5 else None
        inst = RelationInstance(f"T{a}", target and f"T{b}", "support", "f", "d")
        views.append(InstanceView(inst, sides[a], target))
    registry = FeatureRegistry()
    X = extract_matrix(views, registry)
    for model_type in (CB, CI, FA):
        oracle = FeatureRegistry()
        expected = [reference_assemble(v, model_type, oracle) for v in views]
        columns = registry.columns_of(model_type)
        view = X.columns(columns)
        assert not dense_rule(*view.shape, len(view.data))
        assert registry.subset(columns).registry_id == oracle.registry_id
        assert_slice_equal(X, registry, model_type, expected, oracle)


def test_numeric_blocks_of_shared_sides_match_per_view_assembly():
    """Shared sides carry embeddings (one all zero, one missing) and sentiment
    scores (some missing); one view in five has no target."""
    rng = np.random.default_rng(5)
    words = [f"w{k}" for k in range(30)]
    vectors = [rng.normal(size=3) for _ in range(6)] + [np.zeros(3), None]

    def score():
        return None if rng.random() < 0.3 else int(rng.integers(1, 6))

    sides = [
        SideView(
            f"T{j}",
            ContentLayers(
                tokens=tuple(rng.choice(words, 3)), sentiment=score(), embedding=vectors[j]
            ),
            ContextLayers(
                tokens=tuple(rng.choice(words, 2)),
                sentiment_ci=score(),
                sentiment_fa=score(),
                unit_index=j % 3,
                embedding=vectors[-1 - j],
            ),
        )
        for j in range(len(vectors))
    ]
    layers = frozenset({"tokens", "embeddings", "sentiment"})
    views = []
    for k in range(40):
        a, b = rng.integers(len(sides), size=2)
        target = sides[b] if k % 5 else None
        inst = RelationInstance(f"T{a}", target and f"T{b}", "support", "f", "d")
        views.append(InstanceView(inst, sides[a], target, layers))
    registry = FeatureRegistry()
    X = extract_matrix(views, registry, embedding_dim=3)
    for model_type in (CB, CI, FA):
        oracle = FeatureRegistry()
        expected = [reference_assemble(v, model_type, oracle, embedding_dim=3) for v in views]
        assert_slice_equal(X, registry, model_type, expected, oracle)

    # frozen after four views, the rest drop unseen names
    registry = FeatureRegistry()
    extract_matrix(views[:4], registry, embedding_dim=3)
    registry.freeze()
    X = extract_matrix(views, registry, embedding_dim=3)
    for model_type in (CB, CI, FA):
        oracle = FeatureRegistry()
        for v in views[:4]:
            reference_assemble(v, model_type, oracle, embedding_dim=3)
        oracle.freeze()
        expected = [reference_assemble(v, model_type, oracle, embedding_dim=3) for v in views]
        assert_slice_equal(X, registry, model_type, expected, oracle)
        assert registry.dropped_in[model_type] == oracle.dropped_unseen > 0


def in_chunks(views, sizes):
    """The views as consecutive lists of the sizes, taken in turn, from a generator."""
    sizes, lo = itertools.cycle(sizes), 0
    while lo < len(views):
        size = next(sizes)
        yield views[lo:lo + size]
        lo += size


def by_document(views):
    """The views as one list per run of views of a document, from a generator."""
    return (list(run) for _, run in itertools.groupby(views, key=lambda v: v.instance.doc_id))


def assert_same_extraction(views, chunks, make_registry, *args):
    """``extract_matrix`` of the list and of its chunks: the same arrays, to
    their types, the same registry and the same dropped counts per Φ type."""
    (X, one), (Y, chunked) = [
        (extract_matrix(source, registry, *args), registry)
        for source, registry in ((views, make_registry()), (chunks, make_registry()))
    ]
    assert_same_matrix(X, Y)
    assert X.shape == (len(views), len(one))
    assert one._names == chunked._names and one.frozen == chunked.frozen
    assert one.dropped_in == chunked.dropped_in
    return one


@pytest.mark.parametrize("model_type", [CB, CI, FA])
@pytest.mark.parametrize("families", [None, ("lexical", "embedding", "sentiment")])
def test_chunked_extraction_matches_one_list(synth_dir, model_type, families):
    """Per document, or in chunks that split documents (so sides recur across
    chunks) with empty ones among them, the matrix is the one-list call's;
    over an open registry and over a frozen one that drops unseen names of
    the model type."""
    data = prepared(synth_dir, "g")
    args = (families, data.embedding_dim)

    def frozen():
        registry = FeatureRegistry()
        extract_matrix(data.train_views[:4], registry, *args)
        registry.freeze()
        return registry

    for views, make_registry in (
        (data.train_views, FeatureRegistry),
        (data.test_views, frozen),
        (randomize_contexts(data.test_views, seed=3), frozen),
    ):
        for chunks in (by_document(views), in_chunks(views, [3, 0, 1, 7])):
            registry = assert_same_extraction(views, chunks, make_registry, *args)
            assert (registry.dropped_in[model_type] > 0) == registry.frozen


def dense_and_sparse_forms(views, monkeypatch, make_registry, families=None, embedding_dim=0):
    """The views' extraction, and its sparse form: the same call with
    ``dense_rule`` never met; each with its registry."""
    registry = make_registry()
    X = extract_matrix(views(), registry, families, embedding_dim)
    sparse_registry = make_registry()
    with monkeypatch.context() as patch:
        patch.setattr(features, "dense_rule", lambda *args: False)
        S = extract_matrix(views(), sparse_registry, families, embedding_dim)
    assert isinstance(S, CsrMatrix)
    assert registry._names == sparse_registry._names
    assert registry.registry_id == sparse_registry.registry_id
    assert registry.dropped_in == sparse_registry.dropped_in
    return X, S, registry


@pytest.mark.parametrize("chunked", [False, True])
@pytest.mark.parametrize("frozen", [False, True])
def test_dense_extraction_is_the_sparse_one_densified(synth_dir, monkeypatch, frozen, chunked):
    """Every Φ slice dense by the rule, the extraction is a ``DenseMatrix``
    whose rows are its sparse form's densified, with the same registry and
    dropped counts, over an open registry and a frozen one that drops test
    names, from one list and from chunks; and so is every column view.  The
    gather writes a few rows at a time."""
    data = prepared(synth_dir, "g")
    dim = data.embedding_dim
    monkeypatch.setattr(features, "ROW_BLOCK_BYTES", 3 * 8 * 200)
    views = data.test_views if frozen else data.train_views

    def make_registry():
        registry = FeatureRegistry()
        if frozen:
            extract_matrix(data.train_views[:4], registry, None, dim)
            registry.freeze()
        return registry

    X, S, registry = dense_and_sparse_forms(
        lambda: by_document(views) if chunked else views, monkeypatch, make_registry, None, dim
    )
    assert_dense_form(X)
    assert (registry.dropped_unseen > 0) == frozen
    assert np.array_equal(X.toarray(), S.toarray())
    assert np.array_equal(X.rows, S.to_dense().rows)
    assert all(hi - lo < 8 for lo, hi in X.row_blocks())
    for lo, hi in X.row_blocks():
        assert np.array_equal(X.dense_rows(lo, hi), S.dense_rows(lo, hi))
    for model_type in MODEL_TYPES:
        columns = registry.columns_of(model_type)
        view = X.columns(columns)
        assert_dense_form(view)
        assert np.array_equal(view.toarray(), S.columns(columns).toarray())
        assert (view is X) == (model_type == FA)


def test_dense_matrix_arrays_are_read_only(synth_dir):
    data = prepared(synth_dir, "g")
    registry = FeatureRegistry()
    X = extract_matrix(data.train_views, registry, None, data.embedding_dim)
    assert isinstance(X, DenseMatrix)
    view = X.columns(registry.columns_of(CB))
    for array in (X.rows, X.toarray(), X.dense_rows(0, 3), view.rows, view.toarray()):
        with pytest.raises(ValueError):
            array[0, 0] = 2.0


def test_both_forms_score_train_and_predict_to_the_same_bits(synth_dir, monkeypatch):
    """ANOVA scores, each Φ slice's model and its decision values are the
    same to the bit from the dense form as from the sparse one."""
    data = prepared(synth_dir, "g")
    X, S, registry = dense_and_sparse_forms(
        lambda: data.train_views, monkeypatch, FeatureRegistry, None, data.embedding_dim
    )
    registry.freeze()
    assert isinstance(X, DenseMatrix)
    labels = [v.instance.label for v in data.train_views]
    assert np.array_equal(anova_f_scores(X, labels), anova_f_scores(S, labels))
    for model_type in MODEL_TYPES:
        columns = registry.columns_of(model_type)
        sub = registry.subset(columns)
        models = [
            train(M.columns(columns), labels, TrainConfig(max_epochs=20), sub, data.classes)
            for M in (X, S)
        ]
        for cls in data.classes:
            assert np.array_equal(models[0].weights[cls], models[1].weights[cls])
            assert models[0].biases[cls] == models[1].biases[cls]
        assert np.array_equal(
            decision_values(models[0], X.columns(columns)),
            decision_values(models[0], S.columns(columns)),
        )


def test_extract_all_keeps_a_stored_zero():
    """A one-row extraction registers exactly the names its row holds, a
    stored zero's too: an EAU without tokens has a sentence ratio of 0."""
    inst = RelationInstance("T1", None, "support", "h", "d")
    side = SideView("T1", ContentLayers(), ContextLayers(tokens=("a",), preceding_count=1))
    named = extract_all(InstanceView(inst, side), families=("structural",))
    assert list(named.items()) == [
        ("struct:ctx:src:preceding_tokens", 1.0),
        ("struct:both:src:sentence_tokens", 1.0),
        ("struct:both:src:eau_sentence_ratio", 0.0),
    ]


def test_chunks_extract_a_side_once_per_chunk(monkeypatch):
    """A side that is source and target within a chunk is extracted once; one
    repeated in another chunk is extracted again there, with the same rows."""
    rng = np.random.default_rng(6)
    words = [f"w{k}" for k in range(12)]
    layers = frozenset({"tokens", "embeddings", "sentiment"})

    def side(j):
        return SideView(
            f"T{j}",
            ContentLayers(
                tokens=tuple(rng.choice(words, 3)), sentiment=int(rng.integers(1, 6)),
                embedding=rng.normal(size=3),
            ),
            ContextLayers(
                tokens=tuple(rng.choice(words, 2)), sentiment_ci=int(rng.integers(1, 6)),
                unit_index=j, embedding=rng.normal(size=3),
            ),
        )

    def view(source, target):
        inst = RelationInstance(source.eau_id, target and target.eau_id, "support", "f", "d")
        return InstanceView(inst, source, target, layers)

    a, b, c = side(0), side(1), side(2)
    chunks = [[view(a, b), view(b, a)], [view(a, c), view(c, None)], [], [view(b, b)]]
    views = [v for chunk in chunks for v in chunk]
    calls = Counter()
    extract_side = features._side_blocks

    def counting(sv, *args):
        calls[sv.eau_id] += 1
        return extract_side(sv, *args)

    monkeypatch.setattr(features, "_side_blocks", counting)
    registry = FeatureRegistry()
    X = extract_matrix(iter(chunks), registry, embedding_dim=3)
    assert calls == {"T0": 2, "T1": 2, "T2": 1}
    assert_same_extraction(views, iter(chunks), FeatureRegistry, None, 3)

    def frozen():
        registry = FeatureRegistry()
        extract_matrix(views[:1], registry, embedding_dim=3)
        registry.freeze()
        return registry

    frozen_registry = assert_same_extraction(views, iter(chunks), frozen, None, 3)
    for model_type in (CB, CI, FA):
        oracle = FeatureRegistry()
        expected = [reference_assemble(v, model_type, oracle, embedding_dim=3) for v in views]
        assert_slice_equal(X, registry, model_type, expected, oracle)
        oracle = FeatureRegistry()
        reference_assemble(views[0], model_type, oracle, embedding_dim=3)
        oracle.freeze()
        for v in views:
            reference_assemble(v, model_type, oracle, embedding_dim=3)
        assert frozen_registry.dropped_in[model_type] == oracle.dropped_unseen > 0


def test_frozen_registry_drops_a_shared_sides_names_per_tag(monkeypatch):
    """A frozen registry knows side A's lexical names and sentiment columns
    under ``src`` but only some of them under ``tgt``.  A is source and
    target within a chunk and again in a later chunk: its pooled entries are
    kept under one tag and dropped under the other, and each drop is counted
    for each row that uses A.  Both forms hold per-view assembly's rows."""
    layers = frozenset({"tokens", "sentiment"})
    families = ("lexical", "sentiment")

    def side(eau_id, tokens, context, sentiment, sentiment_ci):
        return SideView(
            eau_id,
            ContentLayers(tokens=tokens, sentiment=sentiment),
            ContextLayers(tokens=context, sentiment_ci=sentiment_ci, sentiment_fa=sentiment),
        )

    def view(source, target):
        inst = RelationInstance(source.eau_id, target and target.eau_id, "support", "f", "d")
        return InstanceView(inst, source, target, layers)

    a = side("T1", ("w0", "w2"), ("w1", "w2"), 2, 4)
    b = side("T2", ("w2",), ("w0", "w1"), 5, 4)
    c = side("T3", ("w3", "w0"), ("w2",), 2, 1)
    training = [view(a, None), view(b, None), view(c, b)]
    chunks = [[view(a, b), view(b, a), view(a, None)], [view(c, a), view(a, c)], [], [view(b, b)]]
    views = [v for chunk in chunks for v in chunk]

    def frozen():
        registry = FeatureRegistry()
        extract_matrix(training, registry, families)
        registry.freeze()
        return registry

    known = frozen()._index
    assert "lex:eau:src:w0" in known and "lex:eau:tgt:w0" not in known
    assert "lex:eau:tgt:w2" in known and "sent:ctx:tgt:4" in known
    assert "sent:eau:src:2" in known and "sent:eau:tgt:2" not in known
    X, S, registry = dense_and_sparse_forms(lambda: iter(chunks), monkeypatch, frozen, families)
    assert_dense_form(X)
    assert_same_extraction(views, iter(chunks), frozen, families)
    for model_type in MODEL_TYPES:
        oracle = FeatureRegistry()
        for v in training:
            reference_assemble(v, model_type, oracle, families)
        oracle.freeze()
        expected = [reference_assemble(v, model_type, oracle, families) for v in views]
        for M in (X, S):
            assert_slice_equal(M, registry, model_type, expected, oracle)
        assert registry.dropped_in[model_type] == oracle.dropped_unseen > 0


@pytest.mark.parametrize("families", [None, ("lexical", "embedding", "sentiment")])
def test_extract_matrix_of_no_views_is_empty(families):
    for views in ([], iter([]), iter([[], []])):  # a list, no chunk, empty chunks
        registry = FeatureRegistry()
        registry.index("lex:eau:src:x")
        X = extract_matrix(views, registry, families, embedding_dim=2)
        assert X.shape == (0, 1)
        assert X.indptr.tolist() == [0] and len(X.indices) == len(X.data) == 0
        assert len(registry) == 1 and registry.dropped_unseen == 0


def test_extract_matrix_requires_the_family_layer():
    with pytest.raises(MissingLayerError):
        extract_matrix([make_view()], FeatureRegistry(), families=("syntactic",))
