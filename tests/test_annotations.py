import os
import re
import shutil
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from argdissect import annotations
from argdissect.annotations import (
    MAX_TREE_DEPTH,
    Token,
    TreeNode,
    align_eau,
    load_embeddings,
    parse_bracketed_tree,
    parse_discourse_file,
    parse_token_offsets,
    parse_trees_file,
    trees_have_sentiment,
)
from argdissect.corpus import EauSpan
from argdissect.errors import AlignmentError, IntegrityError, StandoffParseError
from argdissect.pipeline import load_corpus_dir

from conftest import SMOKE_TEXT, SMOKE_EAU_CHARS


def test_parse_token_offsets_basic():
    tokens = parse_token_offsets("0\t0\t0\t7\tHowever\n", "However, x", "d")
    assert tokens == [Token("d", 0, 0, 0, 7, "However")]


def test_token_out_of_order():
    tsv = "0\t1\t0\t7\tHowever\n0\t0\t7\t8\t,\n"
    with pytest.raises(IntegrityError, match="order"):
        parse_token_offsets(tsv, "However, x", "d")


def test_token_surface_mismatch():
    with pytest.raises(IntegrityError, match="token 0"):
        parse_token_offsets("0\t0\t0\t7\tMoreover\n", "However, x", "d")


def test_token_overlap():
    tsv = "0\t0\t0\t7\tHowever\n0\t1\t5\t7\ter\n"
    with pytest.raises(IntegrityError, match="overlap"):
        parse_token_offsets(tsv, "However, x", "d")


@pytest.mark.parametrize("line, offsets", [
    ("0\t0\t-5\t-1\tworl", "-5..-1"),  # negative: the slice reads from the end
    ("0\t0\t7\t3\t", "7..3"),  # end before start: the slice is empty
    ("0\t0\t8\t20\trld", "8..20"),  # end past the text: the slice is cut short
])
def test_token_offsets_outside_the_text_are_rejected(line, offsets):
    """Each line's slice of the text equals its surface, so only the bounds catch it."""
    with pytest.raises(StandoffParseError, match=rf"^line 1: token offsets {offsets} of d "
                       r"outside its text \[0,11\]$"):
        parse_token_offsets(line + "\n", "hello world", "d")


def test_token_offsets_may_touch_both_ends_of_the_text():
    tokens = parse_token_offsets("0\t0\t0\t0\t\n0\t1\t0\t11\thello world\n",
                                 "hello world", "d")
    assert [(t.start, t.end) for t in tokens] == [(0, 0), (0, 11)]


# ---------------------------------------------------------------------------
# bracketed trees


def toks(*surfaces):
    out = []
    pos = 0
    for i, s in enumerate(surfaces):
        out.append(Token("d", 0, i, pos, pos + len(s), s))
        pos += len(s) + 1
    return out


def test_parse_tree_with_sentiment():
    tree = parse_bracketed_tree("(S|s=3 (ADVP|s=2 (RB However)))", toks("However"))
    assert tree.root.label == "S"
    assert tree.root.sentiment == 3
    advp = tree.root.children[0]
    assert advp.label == "ADVP" and advp.sentiment == 2
    assert [l.label for l in tree.root.leaves()] == ["However"]


def test_parse_tree_without_sentiment():
    tree = parse_bracketed_tree("(S (NP (NN dog)))", toks("dog"))
    assert all(n.sentiment is None for n in tree.root.iter_nodes())
    assert not tree.has_sentiment


@pytest.mark.parametrize("score", [1, 2, 3, 4, 5])
def test_sentiment_suffix_accepts_scores_one_to_five(score):
    tree = parse_bracketed_tree(f"(S|s={score} (NN dog))", toks("dog"))
    assert tree.root.label == "S" and tree.root.sentiment == score


@pytest.mark.parametrize("label", [
    "S|s=10", "S|s=", "S|s=x", "S|s=3x", "S|s=-1", "S|s=3.0", "S|s=3|s=",
    "S|s=\u0663",  # ARABIC-INDIC DIGIT THREE, a decimal digit outside ASCII
    "S|s=\uff13",  # FULLWIDTH DIGIT THREE
])
def test_malformed_sentiment_suffix_is_a_parse_error(label):
    with pytest.raises(StandoffParseError, match="malformed sentiment suffix"):
        parse_bracketed_tree(f"({label} (NN dog))", toks("dog"))
    with pytest.raises(StandoffParseError, match="malformed sentiment suffix"):
        parse_bracketed_tree(f"(S (NP (NN dog)) ({label} (NN cat)))", toks("dog", "cat"))


def test_bracket_escapes_match_token_surfaces():
    line = "(S (-LRB- -LRB-) (-LSB- -LSB-) (-LCB- -LCB-) (-RCB- -RCB-) (-RSB- -RSB-) (-RRB- -RRB-))"
    tree = parse_bracketed_tree(line, toks("(", "[", "{", "}", "]", ")"))
    assert len(tree.root.leaves()) == 6


def test_unbalanced_brackets():
    with pytest.raises(StandoffParseError, match="bracket"):
        parse_bracketed_tree("(S (NP (NN dog))", toks("dog"))
    with pytest.raises(StandoffParseError, match="bracket"):
        parse_bracketed_tree("(S (NN dog)))", toks("dog"))


def test_leaf_token_count_mismatch():
    with pytest.raises(AlignmentError, match="leaves"):
        parse_bracketed_tree("(S (NN a) (NN b))", toks("a", "b", "c"))


def test_token_ranges_bottom_up():
    tree = parse_bracketed_tree(
        "(S (NP (NN a) (NN b)) (VP (VB c)))", toks("a", "b", "c")
    )
    assert tree.root.token_range == (0, 3)
    np_node, vp_node = tree.root.children
    assert np_node.token_range == (0, 2)
    assert vp_node.token_range == (2, 3)


def regex_items(line):
    """The bracket and word items of a tree line, as the parser first split them."""
    return re.findall(r"\(|\)|[^\s()]+", line)


def recursive_parse(line):
    """The recursive-descent tree parser the explicit-stack one replaced:
    the root node and its leaves, or the first ``StandoffParseError``."""
    items = regex_items(line)
    pos = 0
    leaves = []

    def parse_node():
        nonlocal pos
        if pos >= len(items):
            raise StandoffParseError("unbalanced brackets: unexpected end of line")
        item = items[pos]
        pos += 1
        if item == ")":
            raise StandoffParseError("unbalanced brackets: unexpected ')'")
        if item != "(":
            leaf = TreeNode(item, (), len(leaves), len(leaves) + 1, is_leaf=True)
            leaves.append(leaf)
            return leaf
        if pos >= len(items) or items[pos] in ("(", ")"):
            raise StandoffParseError("expected node label after '('")
        m = annotations._LABEL_SENT_RE.match(items[pos])
        if not m and "|s=" in items[pos]:
            raise StandoffParseError(
                f"malformed sentiment suffix in label {items[pos]!r}: expected |s=1 to |s=5"
            )
        pos += 1
        label, sentiment = (m.group(1), int(m.group(2))) if m else (items[pos - 1], None)
        if sentiment is not None and not 1 <= sentiment <= 5:
            raise StandoffParseError(f"sentiment score out of range: {sentiment}")
        children = []
        while pos < len(items) and items[pos] != ")":
            children.append(parse_node())
        if pos >= len(items):
            raise StandoffParseError("unbalanced brackets: missing ')'")
        pos += 1
        if not children:
            raise StandoffParseError(f"node {label!r} has no children")
        return TreeNode(label, tuple(children), children[0].token_start,
                        children[-1].token_end, sentiment)

    root = parse_node()
    if pos != len(items):
        raise StandoffParseError("unbalanced brackets: trailing material")
    return root, leaves


def test_equal_strings_of_the_corpus_are_one_object(synth_dir):
    """Token surfaces, tree labels and leaves are interned: an equal surface in
    two documents is one object, and so are a tree leaf and its token."""
    bundle = load_corpus_dir(synth_dir)
    docs = list(bundle.bundles.values())
    first = {tok.surface: tok.surface for tok in docs[0].tokens}
    shared = [tok.surface for tok in docs[1].tokens if tok.surface in first]
    assert shared
    assert all(surface is first[surface] for surface in shared)
    for doc in docs[:3]:
        for sent_idx, tree in doc.trees.items():
            tokens = [tok for tok in doc.tokens if tok.sentence_idx == sent_idx]
            leaves = [node for node in tree.root.iter_nodes() if node.is_leaf]
            assert all(leaf.label is tok.surface for leaf, tok in zip(leaves, tokens))
    labels = [node.label for doc in docs[:2] for tree in doc.trees.values()
              for node in tree.root.iter_nodes() if not node.is_leaf]
    assert all(label is sys.intern(label) for label in labels)


def test_parser_matches_the_recursive_parser_on_a_corpus(synth_dir):
    lines = []
    for name in sorted(os.listdir(synth_dir)):
        if name.endswith(".trees"):
            with open(os.path.join(synth_dir, name), encoding="utf-8") as fh:
                lines.extend(line for line in fh.read().split("\n") if line.strip())
    assert len(lines) > 100
    for line in lines:
        root, leaves = recursive_parse(line)
        tree = parse_bracketed_tree(line, toks(*(leaf.label for leaf in leaves)))
        assert tree.root == root
        assert tree.has_sentiment == any(n.sentiment is not None for n in root.iter_nodes())


@pytest.mark.parametrize("line", [
    "", "(", "()", "(S", "(S )", ")", "(S (NN a)) b", "(S (NN a)))", "(S (NN a)) (T b)",
    "((S a))", "(S|s=7 (NN a))", "(S|s=0 a)", "(S (NN a) (", "a (S b)", "(S (NN a) ())",
])
def test_parser_raises_what_the_recursive_parser_raised(line):
    with pytest.raises(StandoffParseError) as expected:
        recursive_parse(line)
    with pytest.raises(StandoffParseError) as raised:
        parse_bracketed_tree(line, toks("a"))
    assert str(raised.value) == str(expected.value)


@settings(max_examples=1000, deadline=None)
@given(st.text(alphabet="()SNP|s=3 ab-LRB\t\u00a0\u2003\x1c", max_size=30))
def test_parser_matches_the_recursive_parser_on_any_line(line):
    """Malformed lines included: the same tree, or the same first error."""
    assert annotations._tokenize_sexpr(line) == regex_items(line)
    try:
        expected = recursive_parse(line)
    except StandoffParseError as exc:
        with pytest.raises(StandoffParseError) as raised:
            parse_bracketed_tree(line, toks(*["a"] * 30))
        assert str(raised.value) == str(exc)
        return
    root, leaves = expected
    surfaces = (annotations._LEAF_ESCAPES.get(leaf.label, leaf.label) for leaf in leaves)
    tree = parse_bracketed_tree(line, toks(*surfaces))
    assert tree.root == root


def test_a_bare_word_line_is_a_leaf_root():
    tree = parse_bracketed_tree("dog", toks("dog"))
    assert tree.root == recursive_parse("dog")[0] and tree.root.is_leaf


def test_tree_nesting_is_bounded():
    def nested(depth):
        return "(X " * depth + "w" + ")" * depth

    deepest = parse_bracketed_tree(nested(MAX_TREE_DEPTH), toks("w"))
    assert len(list(deepest.root.iter_nodes())) == MAX_TREE_DEPTH + 1
    with pytest.raises(StandoffParseError, match=f"deeper than {MAX_TREE_DEPTH}"):
        parse_bracketed_tree(nested(MAX_TREE_DEPTH + 1), toks("w"))


def test_has_sentiment_walks_the_tree_once(monkeypatch):
    tree = parse_bracketed_tree("(S (NP|s=2 (NN dog)))", toks("dog"))
    walks = []
    iter_nodes = TreeNode.iter_nodes

    def counted(node):
        if node is tree.root:
            walks.append(node)
        return iter_nodes(node)

    monkeypatch.setattr(TreeNode, "iter_nodes", counted)
    assert tree.has_sentiment and tree.has_sentiment
    assert len(walks) == 1


@pytest.mark.parametrize("line, words, expected", [
    ("(S|s=3 (NN a))", "a", True),
    ("(S (NN|s=1 a))", "a", True),
    ("(|s=5 a)", "a", True),
    ("( \u2003S|s=2 a)", "a", True),  # whitespace between "(" and the label
    ("(S (NN a))", "a", False),
    ("(S a|s=3)", "a|s=3", False),  # a leaf is no label
    ("(S (NN a) |s=3)", "a |s=3", False),
])
def test_sentiment_scan_reads_node_labels_only(line, words, expected):
    tree = parse_bracketed_tree(line, toks(*words.split()))
    assert tree.has_sentiment == trees_have_sentiment(line) == expected


@settings(max_examples=1000, deadline=None)
@given(st.text(alphabet="()SNP|s=3 ab-LRB\t\u00a0\u2003\x1c", max_size=30))
def test_sentiment_scan_matches_the_parser_on_any_accepted_line(line):
    """Whitespace the parser splits on, Unicode included, separates a label
    from "(" for the scan too."""
    try:
        root, leaves = recursive_parse(line)
    except StandoffParseError:
        return
    surfaces = (annotations._LEAF_ESCAPES.get(leaf.label, leaf.label) for leaf in leaves)
    tree = parse_bracketed_tree(line, toks(*surfaces))
    assert trees_have_sentiment(line) == tree.has_sentiment


def test_a_malformed_tree_line_names_its_line():
    tokens = toks("a") + [Token("d", 1, 0, 2, 3, "b")]
    with pytest.raises(StandoffParseError, match=r"^line 3: unbalanced brackets"):
        parse_trees_file("(S (NN a))\n\n(S (NN b)\n", tokens, "d")


def test_trees_file_sentence_order():
    tokens = toks("a") + [Token("d", 1, 0, 2, 3, "b")]
    trees = parse_trees_file("(S (NN a))\n(S (NN b))\n", tokens, "d")
    assert set(trees) == {0, 1}
    with pytest.raises(AlignmentError):
        parse_trees_file("(S (NN a))\n", tokens, "d")


# ---------------------------------------------------------------------------
# discourse


def test_parse_discourse_explicit():
    rels = parse_discourse_file("Explicit|Comparison.Contrast|0..34|36..80|0..7\n", 100)
    assert len(rels) == 1
    rel = rels[0]
    assert rel.kind == "Explicit"
    assert rel.sense == "Comparison.Contrast"
    assert rel.connective == (0, 7)


def test_parse_discourse_implicit_no_connective():
    rels = parse_discourse_file("Implicit|Expansion|0..34|36..80|\n", 100)
    assert rels[0].connective is None


def test_discourse_span_out_of_bounds():
    with pytest.raises(StandoffParseError, match="bounds"):
        parse_discourse_file("Implicit|Expansion|0..34|36..200|\n", 100)


# ---------------------------------------------------------------------------
# embeddings


def test_load_embeddings_basic():
    table = load_embeddings("the 0.1 0.2\n")
    assert np.allclose(table.entries["the"], [0.1, 0.2])


def test_load_embeddings_wrong_length():
    with pytest.raises(StandoffParseError, match="line 2"):
        load_embeddings("a 0.1 0.2\nb 0.1 0.2 0.3\n")


@pytest.mark.parametrize("component", ["nan", "NaN", "inf", "-inf", "Infinity", "1e999"])
def test_load_embeddings_rejects_non_finite_components(component):
    with pytest.raises(StandoffParseError, match="line 2: non-finite vector component"):
        load_embeddings(f"a 0.1 0.2\nb 0.1 {component}\nc 0.3 0.4\n")


def test_load_embeddings_duplicate_last_wins():
    table = load_embeddings("a 1 2\na 3 4\n")
    assert np.allclose(table.entries["a"], [3, 4])


def test_embedding_lookup_absent_is_zero():
    table = load_embeddings("a 1 2\n")
    assert np.array_equal(table.lookup("zzz"), np.zeros(2))


@pytest.mark.parametrize("text, message", [
    ("", "no entries"),
    (" \n\t\n", "no entries"),
    ("a\nb\n", "line 1: embedding vectors have no components"),
    # tab-separated: each line is one field, a word without components
    ("a\t1\t2\nb\t3\t4\n", "line 1: embedding vectors have no components"),
])
def test_load_embeddings_rejects_a_table_without_vectors(text, message):
    with pytest.raises(StandoffParseError, match=message):
        load_embeddings(text)


# ---------------------------------------------------------------------------
# EAU alignment


def smoke_doc_tokens():
    specs = [
        (0, 7, "However"),
        (7, 8, ","),
        (9, 15, "people"),
        (16, 22, "should"),
        (23, 26, "not"),
        (27, 32, "smoke"),
        (32, 33, "."),
    ]
    return [Token("d", 0, i, s, e, w) for i, (s, e, w) in enumerate(specs)]


def test_align_eau_partitions_sentence():
    eau = EauSpan("T1", "d", *SMOKE_EAU_CHARS, kind="Claim")
    alignment = align_eau(eau, smoke_doc_tokens())
    assert [t.surface for t in alignment.eau_tokens] == [
        "people", "should", "not", "smoke",
    ]
    assert [t.surface for t in alignment.context_tokens] == ["However", ",", "."]
    assert alignment.covering_sentence_idxs == (0,)


def test_align_eau_whole_sentence_no_context():
    eau = EauSpan("T1", "d", 0, len(SMOKE_TEXT), kind="Claim")
    alignment = align_eau(eau, smoke_doc_tokens())
    assert alignment.context_tokens == ()
    assert len(alignment.eau_tokens) == 7


def test_align_eau_no_token_overlap():
    tokens = smoke_doc_tokens()
    eau = EauSpan("T1", "d", 8, 9, kind="Claim")  # the space between "," and "people"
    with pytest.raises(AlignmentError):
        align_eau(eau, tokens)


def test_align_eau_across_two_sentences():
    # two sentences: "aa bb. cc dd." with an EAU from "bb" through "cc"
    specs = [
        (0, 0, 2, "aa"), (0, 1, 3, "bb"), (0, 2, 5, "."),
        (1, 0, 7, "cc"), (1, 1, 10, "dd"), (1, 2, 12, "."),
    ]
    text = "aa bb. cc dd."
    tokens = [
        Token("d", s_idx, t_idx, start, start + len(w), w)
        for s_idx, t_idx, start, w in [
            (0, 0, 0, "aa"), (0, 1, 3, "bb"), (0, 2, 5, "."),
            (1, 0, 7, "cc"), (1, 1, 10, "dd"), (1, 2, 12, "."),
        ]
    ]
    eau = EauSpan("T1", "d", 3, 9, kind="Claim")  # "bb. cc"
    alignment = align_eau(eau, tokens)
    assert alignment.covering_sentence_idxs == (0, 1)
    assert [t.surface for t in alignment.eau_tokens] == ["bb", ".", "cc"]
    # context = leftovers of both covering sentences
    assert [t.surface for t in alignment.context_tokens] == ["aa", "dd", "."]
    # partition property
    all_ids = {
        (t.sentence_idx, t.token_idx)
        for t in tokens
        if t.sentence_idx in alignment.covering_sentence_idxs
    }
    eau_ids = {(t.sentence_idx, t.token_idx) for t in alignment.eau_tokens}
    ctx_ids = {(t.sentence_idx, t.token_idx) for t in alignment.context_tokens}
    assert eau_ids | ctx_ids == all_ids
    assert eau_ids & ctx_ids == set()


def test_load_embeddings_ignores_trailing_whitespace_and_infers_dim():
    # the word2vec tool writes a space after each component
    text = "\n  \n, 0.5 -1.25 \nthe 2 3\t\n"
    table = load_embeddings(text)
    assert table.dimension == 2
    assert np.array_equal(table.entries[","], [0.5, -1.25])
    assert np.array_equal(table.entries["the"], [2.0, 3.0])


def test_corpus_with_trailing_space_embeddings_loads(synth_dir, tmp_path):
    corpus = tmp_path / "corpus"
    shutil.copytree(synth_dir, corpus)
    emb = corpus / "embeddings.txt"
    clean = load_corpus_dir(synth_dir, os.path.join(synth_dir, "embeddings.txt"))
    emb.write_text("".join(line + " \n" for line in emb.read_text().splitlines()))
    spaced = load_corpus_dir(str(corpus), str(emb))
    assert spaced.embeddings.dimension == clean.embeddings.dimension
    assert all(
        np.array_equal(spaced.embeddings.entries[w], v)
        for w, v in clean.embeddings.entries.items()
    )


def test_load_embeddings_skips_word2vec_header():
    table = load_embeddings("2 3\na 1 2 3\nb 4 5 6\n")
    assert table.dimension == 3 and sorted(table.entries) == ["a", "b"]


@pytest.mark.parametrize("text, words", [
    # 1-dimensional: "1 5" is a word and its component, since 5 != 1
    ("1 5\n2 0.5\n", ["1", "2"]),
    # two fields but not both integers: an entry
    ("cat 2\ndog 0.5\n", ["cat", "dog"]),
])
def test_load_embeddings_keeps_a_first_line_that_is_an_entry(text, words):
    table = load_embeddings(text)
    assert table.dimension == 1 and sorted(table.entries) == words
