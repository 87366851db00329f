from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from argdissect import pipeline
from argdissect.annotations import Token, TreeNode, parse_bracketed_tree
from argdissect.errors import DataError, MissingLayerError
from argdissect.treeops import (
    CutMarker,
    TreeCut,
    content_rules,
    context_rules,
    crossing_rules,
    cut_tree,
    production_rules,
    range_disjoint,
    range_inside,
    select_sentiment_nodes,
)

from conftest import SMOKE_EAU_TOKENS, random_tree


def test_cut_smoke_tree(smoke_tree):
    cut = cut_tree(smoke_tree, SMOKE_EAU_TOKENS)
    assert len(cut.content_roots) == 1
    assert cut.content_roots[0].label == "S"
    assert cut.content_roots[0].token_range == SMOKE_EAU_TOKENS
    assert cut.cut_edges == (("S'", "S"),)
    assert len(cut.context_forest) == 1
    root = cut.context_forest[0]
    assert root.label == "S'"
    markers = [c for c in root.children if isinstance(c, CutMarker)]
    assert len(markers) == 1 and markers[0].label == "S"


def test_content_rules_smoke(smoke_tree):
    cut = cut_tree(smoke_tree, SMOKE_EAU_TOKENS)
    assert content_rules(cut) == Counter(
        {
            "S→NP_VP": 1,
            "NP→NN": 1,
            "NN→people": 1,
            "VP→MD_RB_VB": 1,
            "MD→should": 1,
            "RB→not": 1,
            "VB→smoke": 1,
        }
    )


def test_context_and_crossing_rules_smoke(smoke_tree):
    cut = cut_tree(smoke_tree, SMOKE_EAU_TOKENS)
    # The rule at the cut site mentions the severed S and is crossing only.
    assert crossing_rules(cut) == Counter({"S'→ADVP_,_S_.": 1})
    assert context_rules(cut) == Counter({"ADVP→however": 1, ",→,": 1, ".→.": 1})
    assert "S'→ADVP_,_S_." not in context_rules(cut)


def test_terminal_rules_lowercased(smoke_tree):
    rules = production_rules(smoke_tree.root)
    assert "ADVP→however" in rules
    assert "ADVP→However" not in rules


def test_cut_whole_tree_has_no_context(smoke_tree):
    full = smoke_tree.root.token_range
    cut = cut_tree(smoke_tree, full)
    assert cut.content_roots == (smoke_tree.root,)
    assert cut.context_forest == ()
    assert crossing_rules(cut) == Counter()
    assert context_rules(cut) == Counter()


def test_cut_rejects_bad_ranges(smoke_tree):
    with pytest.raises(DataError, match="empty"):
        cut_tree(smoke_tree, (3, 3))
    with pytest.raises(DataError, match="outside"):
        cut_tree(smoke_tree, (0, 99))


def test_select_sentiment_nodes_smoke(smoke_tree):
    nodes = select_sentiment_nodes(smoke_tree, SMOKE_EAU_TOKENS)
    assert nodes["cb"].label == "S"
    assert nodes["ci"].label == "ADVP"
    assert nodes["fa"].label == "S'"


def test_select_sentiment_requires_layer():
    from argdissect.annotations import Token, parse_bracketed_tree

    tokens = [Token("d", 0, 0, 0, 1, "a")]
    tree = parse_bracketed_tree("(S (NN a))", tokens)
    with pytest.raises(MissingLayerError):
        select_sentiment_nodes(tree, (0, 1))


def test_sentiment_whole_tree_eau(smoke_tree):
    full = smoke_tree.root.token_range
    nodes = select_sentiment_nodes(smoke_tree, full)
    assert nodes["cb"].label == "S'"
    assert nodes["ci"] is None
    assert nodes["fa"].label == "S'"


# ---------------------------------------------------------------------------
# randomized properties


def leaf_indices(node):
    out = []

    def walk(n):
        if isinstance(n, CutMarker):
            return
        if getattr(n, "is_leaf", False):
            out.append(n.token_start)
            return
        for c in n.children:
            walk(c)

    walk(node)
    return out


def random_ranges(rng, n_tokens, count=3):
    for _ in range(count):
        lo = int(rng.integers(0, n_tokens))
        hi = int(rng.integers(lo + 1, n_tokens + 1))
        yield (lo, hi)


def test_cut_partitions_leaves_randomized():
    rng = np.random.default_rng(13)
    for trial in range(40):
        n = int(rng.integers(2, 12))
        tree = random_tree(rng, n)
        for eau_range in random_ranges(rng, n):
            cut = cut_tree(tree, eau_range)
            content_leaves = []
            for root in cut.content_roots:
                content_leaves.extend(leaf_indices(root))
            context_leaves = []
            for root in cut.context_forest:
                context_leaves.extend(leaf_indices(root))
            assert sorted(content_leaves + context_leaves) == list(range(n))
            assert set(content_leaves) == set(range(*eau_range))


def test_rule_conservation_randomized():
    # Content, context, and crossing rules together recover the full tree's
    # rule multiset, since markers render as the severed node's label.
    rng = np.random.default_rng(29)
    for trial in range(40):
        n = int(rng.integers(2, 12))
        tree = random_tree(rng, n)
        whole = production_rules(tree.root)
        for eau_range in random_ranges(rng, n):
            cut = cut_tree(tree, eau_range)
            recombined = content_rules(cut) + context_rules(cut) + crossing_rules(cut)
            assert recombined == whole


def test_content_roots_maximal_randomized():
    rng = np.random.default_rng(47)
    for trial in range(30):
        n = int(rng.integers(3, 10))
        tree = random_tree(rng, n)
        for eau_range in random_ranges(rng, n, count=2):
            cut = cut_tree(tree, eau_range)
            roots = {id(r) for r in cut.content_roots}
            for root in cut.content_roots:
                for child in root.children:
                    assert id(child) not in roots
            # ranges of distinct roots never overlap
            spans = sorted(r.token_range for r in cut.content_roots)
            for (a, b), (c, d) in zip(spans, spans[1:]):
                assert b <= c


def test_sentiment_selection_sound_randomized():
    rng = np.random.default_rng(61)
    checked = 0
    for trial in range(40):
        n = int(rng.integers(2, 12))
        tree = random_tree(rng, n, with_sentiment=True)
        if not tree.has_sentiment:
            continue
        for eau_range in random_ranges(rng, n, count=2):
            nodes = select_sentiment_nodes(tree, eau_range)
            lo, hi = eau_range
            if nodes["cb"] is not None:
                s, e = nodes["cb"].token_range
                assert lo <= s and e <= hi
            if nodes["ci"] is not None:
                s, e = nodes["ci"].token_range
                assert e <= lo or hi <= s
            if nodes["fa"] is not None:
                s, e = nodes["fa"].token_range
                assert s <= lo and hi <= e
            checked += 1
    assert checked > 20


# ---------------------------------------------------------------------------
# the one-walk cut against the separate recursive walks it replaced


def ref_rebuild(node, parent_label, eau_range, content, cut_edges):
    """The context-forest rebuild ``cut_tree`` made before the one walk."""
    if range_inside(node.token_range, eau_range):
        content.append(node)
        if parent_label is not None:
            cut_edges.append((parent_label, node.label))
        return CutMarker(node.label, node.token_start, node.token_end)
    if node.is_leaf or range_disjoint(node.token_range, eau_range):
        return node
    return TreeNode(
        label=node.label,
        children=tuple(
            ref_rebuild(c, node.label, eau_range, content, cut_edges) for c in node.children
        ),
        token_start=node.token_start,
        token_end=node.token_end,
        sentiment=node.sentiment,
    )


def ref_child_label(child):
    if getattr(child, "is_leaf", False):
        return child.label.lower()
    return child.label


def ref_rules_of(node, rules):
    if isinstance(node, CutMarker) or getattr(node, "is_leaf", False):
        return
    children = node.children
    if len(children) == 1 and getattr(children[0], "is_leaf", False):
        rules[f"{node.label}→{children[0].label.lower()}"] += 1
        return
    rhs = "_".join(ref_child_label(c) for c in children)
    rules[f"{node.label}→{rhs}"] += 1
    for child in children:
        ref_rules_of(child, rules)


def ref_crossing_rules_of(node, rules):
    if isinstance(node, CutMarker) or getattr(node, "is_leaf", False):
        return
    if any(isinstance(c, CutMarker) for c in node.children):
        rhs = "_".join(ref_child_label(c) for c in node.children)
        rules[f"{node.label}→{rhs}"] += 1
    for child in node.children:
        ref_crossing_rules_of(child, rules)


def ref_pick_highest(candidates):
    if not candidates:
        return None
    return min(candidates, key=lambda n: (-(n.token_end - n.token_start), n.token_start))


def ref_sentiment_nodes(tree, eau_range):
    """``select_sentiment_nodes`` before the one walk, without the layer check."""
    i, j = eau_range
    nodes = [n for n in tree.root.iter_nodes() if not n.is_leaf]
    cb = ref_pick_highest([n for n in nodes if range_inside(n.token_range, eau_range)])
    ci = ref_pick_highest([n for n in nodes if range_disjoint(n.token_range, eau_range)])
    root_range = tree.root.token_range
    target = root_range if root_range != (i, j) else (i, j)
    fa_candidates = [n for n in nodes if range_inside(target, n.token_range)]
    fa = None
    if fa_candidates:
        fa = min(fa_candidates, key=lambda n: (n.token_end - n.token_start, n.token_start))
    return cb, ci, fa


def ref_cut(tree, eau_range):
    """Content roots, context forest, cut edges, the three rule multisets and
    the sentiment nodes, each from its own walk."""
    content, cut_edges = [], []
    rebuilt = ref_rebuild(tree.root, None, eau_range, content, cut_edges)
    forest = () if isinstance(rebuilt, CutMarker) else (rebuilt,)
    content_bag, forest_bag, crossing_bag = Counter(), Counter(), Counter()
    for root in content:
        ref_rules_of(root, content_bag)
    for root in forest:
        ref_rules_of(root, forest_bag)
        ref_crossing_rules_of(root, crossing_bag)
    forest_bag.subtract(crossing_bag)
    return (
        tuple(content), forest, tuple(cut_edges),
        (content_bag, +forest_bag, crossing_bag), ref_sentiment_nodes(tree, eau_range),
    )


WORDS = ["dog", "Dog", "NP", "the", ","]  # uppercase leaves: markers keep the raw label
LABELS = ["S", "NP", "VP", "X"]


@st.composite
def tree_lines(draw):
    """A bracketed tree line and its words: leaf roots, unary chains and bare
    leaves under multi-child nodes included."""
    n = draw(st.integers(1, 7))
    words = [draw(st.sampled_from(WORDS)) for _ in range(n)]

    def label():
        score = draw(st.sampled_from([None, 1, 2, 3, 4, 5]))
        return draw(st.sampled_from(LABELS)) + ("" if score is None else f"|s={score}")

    def build(lo, hi, unary_left):
        if unary_left and draw(st.integers(0, 3)) == 0:  # a unary node over the span
            return f"({label()} {build(lo, hi, unary_left - 1)})"
        if hi - lo == 1:
            if draw(st.booleans()):
                return words[lo]  # a bare leaf
            return f"({label()} {words[lo]})"
        cuts = draw(st.lists(st.integers(lo + 1, hi - 1), min_size=1, max_size=3, unique=True))
        bounds = [lo, *sorted(cuts), hi]
        return f"({label()} " + " ".join(
            build(a, b, 2) for a, b in zip(bounds, bounds[1:])
        ) + ")"

    return build(0, n, 2), words


def parse_line(line, words):
    tokens, pos = [], 0
    for k, w in enumerate(words):
        tokens.append(Token("doc", 0, k, pos, pos + len(w), w))
        pos += len(w) + 1
    return parse_bracketed_tree(line, tokens, doc_id="doc", sentence_idx=0)


def assert_cut_matches_reference(tree, eau_range):
    cut = cut_tree(tree, eau_range)
    content, forest, cut_edges, (cb, ctx, cross), nodes = ref_cut(tree, eau_range)
    assert cut.content_roots == content
    assert cut.context_forest == forest
    assert cut.cut_edges == cut_edges
    assert content_rules(cut) == cb
    assert context_rules(cut) == ctx
    assert crossing_rules(cut) == cross
    assert all(a is b for a, b in zip(cut.sentiment_nodes, nodes, strict=True))
    if tree.has_sentiment:
        assert list(select_sentiment_nodes(tree, eau_range).values()) == list(cut.sentiment_nodes)


@settings(max_examples=300, deadline=None)
@given(tree_lines())
def test_one_walk_matches_the_separate_walks_on_every_range(line_and_words):
    tree = parse_line(*line_and_words)
    n = tree.root.token_end
    for lo in range(n):
        for hi in range(lo + 1, n + 1):
            assert_cut_matches_reference(tree, (lo, hi))


@pytest.mark.parametrize("line, words", [
    ("Dog", ["Dog"]),  # a leaf root: no rules, no sentiment node
    ("(S|s=2 (X|s=3 (NP|s=4 (NN dog))))", ["dog"]),  # a unary chain
    ("(S|s=2 (X (NP dog) the))", ["dog", "the"]),  # a unary node over two words
    ("(S|s=3 Dog (VP|s=2 (V the) (NP dog)))", ["Dog", "the", "dog"]),  # a bare leaf
    ("(S NP (NP|s=4 Dog ,) the)", ["NP", "Dog", ",", "the"]),
])
def test_one_walk_matches_the_separate_walks_on_edge_trees(line, words):
    tree = parse_line(line, words)
    n = tree.root.token_end
    for lo in range(n):
        for hi in range(lo + 1, n + 1):
            assert_cut_matches_reference(tree, (lo, hi))


def test_a_severed_uppercase_leaf_keeps_its_raw_label():
    tree = parse_line("(S|s=3 Dog (VP|s=2 (V the) (NP dog)))", ["Dog", "the", "dog"])
    cut = cut_tree(tree, (0, 1))
    assert crossing_rules(cut) == Counter({"S→Dog_VP": 1})
    assert content_rules(cut) == Counter()
    assert production_rules(tree.root)["S→dog_VP"] == 1
    cb, ci, fa = cut.sentiment_nodes
    assert cb is None and ci.label == "VP" and fa is tree.root


def test_a_leaf_root_has_no_rules_and_no_sentiment_nodes():
    cut = cut_tree(parse_line("Dog", ["Dog"]), (0, 1))
    assert cut.content_roots[0].is_leaf and cut.context_forest == ()
    assert cut.rules == ((), (), ())
    assert cut.sentiment_nodes == (None, None, None)


def reference_cut_tree(tree, eau_range):
    """A ``TreeCut`` whose rules and sentiment nodes come from the reference walks."""
    content, forest, cut_edges, bags, nodes = ref_cut(tree, eau_range)
    rules = tuple(tuple(bag.elements()) for bag in bags)
    return TreeCut(content, forest, cut_edges, rules, nodes)


def test_side_views_match_the_reference_walks_on_a_corpus(synth_dir, monkeypatch):
    bundle = pipeline.load_corpus_dir(synth_dir)
    assert "sentiment" in bundle.layers
    eaus = [(b, eau) for b in bundle.bundles.values() for eau in b.parsed.eaus]
    views = [pipeline.build_side_view(b, eau, None) for b, eau in eaus]
    monkeypatch.setattr(pipeline, "cut_tree", reference_cut_tree)
    reference = [pipeline.build_side_view(b, eau, None) for b, eau in eaus]
    assert len(views) > 100
    assert views == reference
    assert any(v.context.crossing_rules for v in views)
    assert any(v.content.sentiment is not None for v in views)
