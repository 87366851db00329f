"""Corpus preparation against the scan-per-EAU implementation it replaced.

``build_side_view`` reads each EAU's paragraph position from its parsed
document (``ParsedDoc.position``) and each sentence's region from its
``DocBundle``, worked out once per document, ``align_eau`` sorts its two parts in
place, and ``parse_token_offsets`` reads its integer fields without a
generator.  The functions they replaced are kept here as references, and
every side view, token list and error must come out the same: on
generated documents (EAUs over several sentences, sentences laid out out
of order in the text, zero-length tokens, labels with a ``|`` but no
``|s=``, bracket escapes, paragraph breaks, vectors holding -0.0) and on
the 20-document corpus.  EAU positions, and the none-labeled pairs of
tasks g and l that pairing by paragraph draws from them, are checked the
same way on generated texts with blank and whitespace-only lines.
"""

import dataclasses
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from argdissect import annotations, pipeline
from argdissect.annotations import (
    ConstTree,
    DiscourseRelation,
    EauAlignment,
    EmbeddingTable,
    Token,
    TreeNode,
    parse_discourse_file,
    parse_token_offsets,
    parse_trees_file,
)
from argdissect.corpus import (
    LINKED,
    NONE,
    Corpus,
    PairingConfig,
    RelationInstance,
    build_instances,
    parse_standoff,
)
from argdissect.errors import AlignmentError, IntegrityError, StandoffParseError
from argdissect.features import ContentLayers, ContextLayers, SideView, count_punct
from argdissect.pipeline import DocBundle, build_side_view, load_corpus_dir
from argdissect.treeops import cut_tree, range_disjoint, range_inside

# --------------------------------------------------------------------------
# the replaced implementations


def paragraph_of(doc, eau):
    """Index of the paragraph block holding the EAU's first character."""
    for i, (start, end) in enumerate(doc.paragraph_spans):
        if start <= eau.start < end:
            return i
    raise IntegrityError(f"{doc.id}: EAU {eau.id} not inside any paragraph")


def ref_position(parsed, eau):
    """(paragraph, index among its EAUs, their count), each found by a scan."""
    par_idx = paragraph_of(parsed.document, eau)
    par_start, par_end = parsed.document.paragraph_spans[par_idx]
    units = [e for e in parsed.eaus if par_start <= e.start < par_end]
    return par_idx, units.index(eau), len(units)


def ref_candidate_pairs(parsed, pairing):
    if pairing.scope == "document":
        ids = [e.id for e in parsed.eaus]
        for a in ids:
            for b in ids:
                if a != b:
                    yield a, b
    else:
        by_par = {}
        for eau in parsed.eaus:
            by_par.setdefault(paragraph_of(parsed.document, eau), []).append(eau.id)
        for ids in by_par.values():
            for a in ids:
                for b in ids:
                    if a != b:
                        yield a, b


def ref_build_instances(corpus, task, pairing):
    """Tasks g and l: the annotated pairs, then the in-scope none-labeled pairs."""
    instances = []
    for parsed in corpus:
        doc_id = parsed.document.id
        linked = {(src, tgt): label for src, tgt, label in parsed.relations}
        for eau in parsed.eaus:
            for (src, tgt), label in linked.items():
                if src == eau.id:
                    out_label = LINKED if task == "l" else label
                    instances.append(RelationInstance(src, tgt, out_label, task, doc_id))
        excluded = set(linked)
        if pairing.exclude_reverse:
            excluded |= {(tgt, src) for src, tgt in linked}
        for src, tgt in ref_candidate_pairs(parsed, pairing):
            if (src, tgt) not in excluded:
                instances.append(RelationInstance(src, tgt, NONE, task, doc_id))
    return instances


def ref_parse_token_offsets(tsv, document_text, doc_id="doc"):
    tokens = []
    prev_key = None
    prev_end_in_sentence = -1
    for line_no, line in enumerate(tsv.split("\n"), start=1):
        if not line.strip():
            continue
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 5:
            raise StandoffParseError(f"expected 5 columns, got {len(parts)}", line_no)
        try:
            sent_idx, tok_idx, start, end = (int(p) for p in parts[:4])
        except ValueError:
            raise StandoffParseError(f"non-integer field in {line!r}", line_no)
        if not 0 <= start <= end <= len(document_text):
            raise StandoffParseError(f"token offsets {start}..{end} of {doc_id} outside "
                                     f"its text [0,{len(document_text)}]", line_no)
        surface = parts[4]
        key = (sent_idx, tok_idx)
        if prev_key is not None and key <= prev_key:
            raise IntegrityError(
                f"{doc_id}: tokens out of order at sentence {sent_idx} token {tok_idx}"
            )
        if prev_key is not None and sent_idx == prev_key[0] and start < prev_end_in_sentence:
            raise IntegrityError(
                f"{doc_id}: overlapping tokens at sentence {sent_idx} token {tok_idx}"
            )
        if document_text[start:end] != surface:
            raise IntegrityError(
                f"{doc_id}: token surface mismatch at sentence {sent_idx} token "
                f"{tok_idx}: {surface!r} vs {document_text[start:end]!r}"
            )
        prev_key = key
        prev_end_in_sentence = end
        tokens.append(Token(doc_id, sent_idx, tok_idx, start, end, surface))
    return tokens


def ref_align_eau(eau, tokens):
    eau_tokens = [
        t for t in tokens if t.start < eau.end and t.end > eau.start and t.end > t.start
    ]
    if not eau_tokens:
        raise AlignmentError(f"EAU {eau.id} overlaps no tokens")
    covering = sorted({t.sentence_idx for t in eau_tokens})
    eau_ids = {(t.sentence_idx, t.token_idx) for t in eau_tokens}
    context_tokens = [
        t
        for t in tokens
        if t.sentence_idx in covering and (t.sentence_idx, t.token_idx) not in eau_ids
    ]
    return EauAlignment(
        eau_id=eau.id,
        covering_sentence_idxs=tuple(covering),
        eau_tokens=tuple(sorted(eau_tokens, key=lambda t: (t.sentence_idx, t.token_idx))),
        context_tokens=tuple(
            sorted(context_tokens, key=lambda t: (t.sentence_idx, t.token_idx))
        ),
    )


def ref_build_side_view(bundle, eau, embeddings):
    """The side view as built before the per-document lookups: every EAU scans its document."""
    alignment = ref_align_eau(eau, bundle.tokens)
    eau_surfaces = tuple(t.surface for t in alignment.eau_tokens)
    ctx_surfaces = tuple(t.surface for t in alignment.context_tokens)

    first = alignment.eau_tokens[0]
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

    c_rules, x_rules, cross = [], [], []
    sent_cb = sent_ci = sent_fa = None
    if bundle.trees is not None:
        for k, s_idx in enumerate(alignment.covering_sentence_idxs):
            tree = bundle.trees[s_idx]
            in_sent = [t.token_idx for t in alignment.eau_tokens if t.sentence_idx == s_idx]
            cut = cut_tree(tree, (min(in_sent), max(in_sent) + 1))
            for out, rules in zip((c_rules, x_rules, cross), cut.rules):
                out.extend(sorted(rules))
            if k == 0 and tree.has_sentiment:
                sent_cb, sent_ci, sent_fa = (
                    node.sentiment if node else None for node in cut.sentiment_nodes
                )

    cb_disc, ci_disc, fa_disc = [], [], []
    if bundle.discourse is not None:
        sent_tokens = [
            t for t in bundle.tokens if t.sentence_idx in alignment.covering_sentence_idxs
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
        zero = np.zeros(embeddings.dimension)  # the vector of a word the table lacks
        emb_content = sum(
            (embeddings.entries.get(w.lower(), zero) for w in eau_surfaces),
            start=np.zeros(embeddings.dimension),
        )
        emb_context = sum(
            (embeddings.entries.get(w.lower(), zero) for w in ctx_surfaces),
            start=np.zeros(embeddings.dimension),
        )

    content = ContentLayers(
        tokens=eau_surfaces, rules=tuple(c_rules), discourse=tuple(cb_disc),
        sentiment=sent_cb, punct_count=count_punct(eau_surfaces), embedding=emb_content,
    )
    context = ContextLayers(
        tokens=ctx_surfaces, rules=tuple(x_rules), crossing_rules=tuple(cross),
        discourse=tuple(ci_disc), crossing_discourse=tuple(fa_disc),
        sentiment_ci=sent_ci, sentiment_fa=sent_fa,
        preceding_count=preceding, following_count=following,
        unit_index=unit_index, is_first=unit_index == 0, is_last=unit_index == len(units) - 1,
        paragraph_index=par_idx, embedding=emb_context,
    )
    return SideView(eau_id=eau.id, content=content, context=context)


# --------------------------------------------------------------------------
# comparison


def outcome(fn, *args):
    """("ok", result) or ("error", exception type, message)."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # the references raise what the parsers raised
        return ("error", type(exc), str(exc))


def layer_fields(layer):
    """A layer's fields; an array as its dtype and bytes, so -0.0 differs from 0.0."""
    out = []
    for f in dataclasses.fields(layer):
        value = getattr(layer, f.name)
        if isinstance(value, np.ndarray):
            value = (value.dtype.str, value.shape, value.tobytes())
        out.append((f.name, value))
    return out


def assert_same_side(got, expected):
    assert got[0] == expected[0], (got, expected)
    if got[0] == "error":
        assert got[1:] == expected[1:]
        return
    got, expected = got[1], expected[1]
    assert got.eau_id == expected.eau_id
    assert layer_fields(got.content) == layer_fields(expected.content)
    assert layer_fields(got.context) == layer_fields(expected.context)


def assert_sides_match_reference(bundle, embeddings):
    eaus = list(bundle.parsed.eaus)
    for eau in eaus:
        assert_same_side(
            outcome(build_side_view, bundle, eau, embeddings),
            outcome(ref_build_side_view, bundle, eau, embeddings),
        )
    return eaus


# --------------------------------------------------------------------------
# generated documents

WORDS = ["Dog", "dog", "cat", "(", ")", ",", ".", "--", "a"]
LABELS = ["S", "NP", "VP", "A|B", "|", "N|x", "X|s=3", "Y|s=1", "Z|s=5"]
LEAF_OF = {"(": "-LRB-", ")": "-RRB-"}


@st.composite
def tree_line(draw, words):
    """A bracketed tree over ``words``, escaped where treebanks escape."""

    def build(lo, hi):
        if hi - lo == 1 and draw(st.booleans()):
            return LEAF_OF.get(words[lo], words[lo])
        if hi - lo == 1:
            return f"({draw(st.sampled_from(LABELS))} {LEAF_OF.get(words[lo], words[lo])})"
        cut = draw(st.integers(lo + 1, hi - 1))
        parts = [build(lo, cut), build(cut, hi)]
        return f"({draw(st.sampled_from(LABELS))} {' '.join(parts)})"

    return build(0, len(words))


@st.composite
def documents(draw):
    """(bundle, embeddings) of a generated document, built by the layer parsers."""
    n_sent = draw(st.integers(1, 3))
    with_trees = draw(st.booleans())
    sentences = []
    for _ in range(n_sent):
        words = draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=4))
        # zero-length tokens (after the word at each position) cannot carry a tree leaf
        empties = [] if with_trees else draw(
            st.lists(st.integers(0, len(words) - 1), max_size=2, unique=True)
        )
        sentences.append((words, set(empties)))
    order = draw(st.permutations(range(n_sent)))  # the sentences' places in the text
    separators = [draw(st.sampled_from([" ", "\n\n", " \n"])) for _ in range(n_sent)]

    text = ""
    rows = []
    for place, s_idx in enumerate(order):
        words, empties = sentences[s_idx]
        text += separators[place]
        tok_idx = 0
        for k, word in enumerate(words):
            if k:
                text += " "
            rows.append((s_idx, tok_idx, len(text), len(text) + len(word), word))
            tok_idx += 1
            text += word
            if k in empties:
                rows.append((s_idx, tok_idx, len(text), len(text), ""))
                tok_idx += 1
    rows.sort()
    tsv = "".join(f"{s}\t{t}\t{a}\t{b}\t{w}\n" for s, t, a, b, w in rows)

    n = len(text)
    ann_lines = []
    for k in range(draw(st.integers(1, 4))):
        start = draw(st.integers(0, n - 1))
        end = draw(st.integers(start + 1, n))
        if "\n" in text[start:end]:  # an .ann surface holds no line break
            end = text.index("\n", start)
        if start < end:
            kind = draw(st.sampled_from(["Claim", "Premise"]))
            ann_lines.append(f"T{k + 1}\t{kind} {start} {end}\t{text[start:end]}")
    parsed = parse_standoff(text, "\n".join(ann_lines) + "\n", "d")
    tokens = parse_token_offsets(tsv, text, "d")

    trees = None
    if with_trees:
        lines = [draw(tree_line(sentences[s][0])) for s in range(n_sent)]
        trees = parse_trees_file("\n".join(lines), tokens, "d")
    discourse = None
    if draw(st.booleans()):
        spans = st.tuples(st.integers(0, n), st.integers(0, n)).map(sorted)
        rels = []
        for _ in range(draw(st.integers(0, 4))):
            (a, b), (c, d) = draw(spans), draw(spans)
            kind = draw(st.sampled_from(["Explicit", "Implicit"]))
            rels.append(f"{kind}|Sense{len(rels)}|{a}..{b}|{c}..{d}|")
        discourse = parse_discourse_file("\n".join(rels), n, "d")
    embeddings = None
    if draw(st.booleans()):
        vectors = st.lists(st.sampled_from([-0.0, 0.0, 1.5, -2.25, 1e-300, 3.0]),
                           min_size=2, max_size=2)
        entries = {w: np.array(draw(vectors)) for w in draw(st.sets(st.sampled_from(
            [w.lower() for w in WORDS] + [""])))}
        embeddings = EmbeddingTable(dimension=2, entries=entries)
    bundle = DocBundle(parsed=parsed, tokens=tokens, trees=trees, discourse=discourse)
    return bundle, embeddings


PARITY = settings(max_examples=300, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


@PARITY
@given(documents())
def test_side_views_match_the_reference_on_generated_documents(document):
    bundle, embeddings = document
    assert_sides_match_reference(bundle, embeddings)


def test_generated_documents_reach_the_edge_cases():
    """The strategy above produces each case the parity test is meant to cover."""
    seen = set()

    @settings(max_examples=300, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(documents())
    def collect(document):
        bundle, embeddings = document
        tokens = bundle.tokens
        if any(t.start == t.end for t in tokens):
            seen.add("zero-length token")
        starts = [min(t.start for t in tokens if t.sentence_idx == s)
                  for s in sorted({t.sentence_idx for t in tokens})]
        if starts != sorted(starts):
            seen.add("sentences out of order")
        if bundle.trees and any(
            "|" in n.label for t in bundle.trees.values() for n in t.root.iter_nodes()
            if not n.is_leaf
        ):
            seen.add("label with |")
        if bundle.trees and any(
            n.label in annotations._LEAF_ESCAPES
            for t in bundle.trees.values() for n in t.root.leaves()
        ):
            seen.add("bracket escape")
        for eau in bundle.parsed.eaus:
            outcome_ = outcome(ref_build_side_view, bundle, eau, embeddings)
            if outcome_[0] == "error":
                seen.add("error")
                continue
            sents = {t.sentence_idx for t in tokens
                     if t.start < eau.end and t.end > eau.start and t.end > t.start}
            if len(sents) > 1:
                seen.add("multi-sentence EAU")

    collect()
    assert seen >= {"zero-length token", "sentences out of order", "label with |",
                    "bracket escape", "multi-sentence EAU", "error"}


def test_side_views_match_the_reference_on_a_corpus(synth_dir):
    bundle = load_corpus_dir(synth_dir, os.path.join(synth_dir, "embeddings.txt"))
    n = 0
    for doc in bundle.bundles.values():
        n += len(assert_sides_match_reference(doc, bundle.embeddings))
    assert n > 100


def test_build_views_shares_one_side_object_per_eau(synth_dir):
    bundle = load_corpus_dir(synth_dir, os.path.join(synth_dir, "embeddings.txt"))
    instances = build_instances(bundle.corpus, "g")
    views = pipeline.build_views(bundle, instances)
    sides = {}
    for view in views:
        for side, eau_id in ((view.source, view.instance.source),
                             (view.target, view.instance.target)):
            assert sides.setdefault((view.instance.doc_id, eau_id), side) is side
            doc = bundle.bundles[view.instance.doc_id]
            assert_same_side(
                ("ok", side),
                outcome(ref_build_side_view, doc, doc.parsed.eau_by_id(eau_id),
                        bundle.embeddings),
            )


def test_an_eau_outside_every_paragraph_fails_as_the_scan_did():
    """An EAU on a whitespace-only line between paragraphs has no position."""
    text = "a\n \nb"
    parsed = parse_standoff(text, "T1\tClaim 2 3\t \n", "d")
    tokens = parse_token_offsets("0\t0\t0\t1\ta\n1\t0\t2\t3\t \n2\t0\t4\t5\tb\n", text, "d")
    bundle = DocBundle(parsed=parsed, tokens=tokens)
    got = outcome(build_side_view, bundle, parsed.eaus[0], None)
    assert got == ("error", IntegrityError, "d: EAU T1 not inside any paragraph")
    assert_same_side(got, outcome(ref_build_side_view, bundle, parsed.eaus[0], None))
    corpus = Corpus()
    corpus.add(parsed)
    assert outcome(build_instances, corpus, "g") == got
    assert outcome(build_instances, corpus, "g", PairingConfig(scope="document")) == ("ok", [])


# --------------------------------------------------------------------------
# EAU positions and pairing by paragraph

LINES = ["", " ", "\t ", "a b", "cd", " e "]
PAIRINGS = [PairingConfig(scope, exclude) for scope in ("paragraph", "document")
            for exclude in (False, True)]


@st.composite
def paragraph_docs(draw):
    """A parsed document over blank, whitespace-only and worded lines, with relations."""
    text = "\n".join(draw(st.lists(st.sampled_from(LINES), min_size=1, max_size=8)))
    text += draw(st.sampled_from(["", "\n"]))
    lines, pos = [], 0
    for line in text.split("\n"):
        if line:
            lines.append((pos, pos + len(line)))
        pos += len(line) + 1
    ann = []
    if lines:
        for k in range(draw(st.integers(1, 5))):
            first, last = draw(st.sampled_from(lines))
            start = draw(st.integers(first, last - 1))
            end = draw(st.integers(start + 1, last))
            ann.append(f"T{k + 1}\tClaim {start} {end}\t{text[start:end]}")
    ids = [f"T{k + 1}" for k in range(len(ann))]
    if len(ids) > 1:
        pairs = draw(st.sets(st.permutations(ids).map(lambda p: tuple(p[:2])), max_size=4))
        for k, (src, tgt) in enumerate(sorted(pairs)):
            rel = draw(st.sampled_from(["supports", "attacks"]))
            ann.append(f"R{k + 1}\t{rel} Arg1:{src} Arg2:{tgt}")
    return parse_standoff(text, "\n".join(ann) + "\n", "d")


def assert_positions_and_pairs_match_the_scan(parsed):
    for eau in parsed.eaus:
        assert outcome(parsed.position, eau) == outcome(ref_position, parsed, eau)
    corpus = Corpus()
    corpus.add(parsed)
    for task in ("g", "l"):
        for pairing in PAIRINGS:
            assert outcome(build_instances, corpus, task, pairing) == outcome(
                ref_build_instances, corpus, task, pairing
            )


@settings(max_examples=300, deadline=None)
@given(paragraph_docs())
def test_positions_and_paragraph_pairs_match_the_scan_on_generated_texts(parsed):
    assert_positions_and_pairs_match_the_scan(parsed)


def test_generated_texts_reach_the_edge_cases():
    seen = set()

    @settings(max_examples=300, deadline=None, database=None)
    @given(paragraph_docs())
    def collect(parsed):
        doc = parsed.document
        if len(doc.paragraph_spans) > 1:
            seen.add("several paragraphs")
        lines = doc.text.split("\n")
        if "" in lines[:-1]:
            seen.add("blank line")
        if any(line and not line.strip() for line in lines):
            seen.add("whitespace-only line")
        for eau in parsed.eaus:
            if outcome(ref_position, parsed, eau)[0] == "error":
                seen.add("EAU outside every paragraph")
            elif ref_position(parsed, eau)[2] > 1:
                seen.add("paragraph of several EAUs")
        if parsed.relations:
            seen.add("relation")

    collect()
    assert seen == {"several paragraphs", "blank line", "whitespace-only line",
                    "EAU outside every paragraph", "paragraph of several EAUs", "relation"}


def test_positions_and_paragraph_pairs_match_the_scan_on_a_corpus(synth_dir):
    corpus = load_corpus_dir(synth_dir).corpus
    for parsed in corpus:
        assert_positions_and_pairs_match_the_scan(parsed)
    for task in ("g", "l"):
        for pairing in PAIRINGS:
            instances = build_instances(corpus, task, pairing)
            assert instances == ref_build_instances(corpus, task, pairing)
            assert any(inst.label == NONE for inst in instances)


# --------------------------------------------------------------------------
# the token parser


token_fields = st.one_of(st.integers(-2, 12).map(str), st.sampled_from(["", "x", "1.0", " 3"]))


@st.composite
def token_files(draw):
    text = draw(st.text(alphabet="ab .", max_size=10))
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        fields = [draw(token_fields) for _ in range(4)]
        fields.append(draw(st.one_of(st.just(text[2:4]), st.text(alphabet="ab .", max_size=2))))
        lines.append("\t".join(draw(st.sampled_from([fields, fields[:4], fields + ["x"]]))))
    return "\n".join(lines), text


@settings(max_examples=500, deadline=None)
@given(token_files())
def test_token_parser_matches_the_reference(file):
    tsv, text = file
    assert outcome(parse_token_offsets, tsv, text, "d") == outcome(
        ref_parse_token_offsets, tsv, text, "d"
    )


def test_token_parser_matches_the_reference_on_a_corpus(synth_dir):
    for name in sorted(os.listdir(synth_dir)):
        if name.endswith(".tokens.tsv"):
            doc_id = name.removesuffix(".tokens.tsv")
            with open(os.path.join(synth_dir, name), encoding="utf-8") as fh:
                tsv = fh.read()
            with open(os.path.join(synth_dir, doc_id + ".txt"), encoding="utf-8") as fh:
                text = fh.read()
            tokens = parse_token_offsets(tsv, text, doc_id)
            assert tokens == ref_parse_token_offsets(tsv, text, doc_id) and tokens


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(["Dog", "dog", "(", ")", "a"]), min_size=1, max_size=6),
       st.data())
def test_align_eau_matches_the_reference(words, data):
    n_sent = data.draw(st.integers(1, 3))
    tokens, pos = [], 0
    for k, word in enumerate(words):
        sent = min(k * n_sent // len(words), n_sent - 1)
        tokens.append(Token("d", sent, k, pos, pos + len(word), word))
        pos += len(word) + 1
    start = data.draw(st.integers(0, pos))
    eau = parse_standoff(" " * pos + "x", f"T1\tClaim {start} {pos + 1}\t"
                         + (" " * pos + "x")[start:] + "\n", "d").eaus[0]
    assert outcome(annotations.align_eau, eau, tokens) == outcome(ref_align_eau, eau, tokens)


# --------------------------------------------------------------------------
# the record types: immutable, hashable, positional


@pytest.mark.parametrize("record_type, fields", [
    (Token, [("doc_id", "d"), ("sentence_idx", 0), ("token_idx", 1), ("start", 2),
             ("end", 5), ("surface", "dog")]),
    (TreeNode, [("label", "NN"), ("children", ()), ("token_start", 0), ("token_end", 1),
                ("sentiment", 3), ("is_leaf", True)]),
    (DiscourseRelation, [("doc_id", "d"), ("kind", "Explicit"), ("sense", "Contrast"),
                         ("arg1", (0, 1)), ("arg2", (2, 3)), ("connective", None)]),
    (RelationInstance, [("source", "T1"), ("target", None), ("label", "support"),
                        ("task", "h"), ("doc_id", "d")]),
])
def test_records_are_immutable_hashable_and_positional(record_type, fields):
    values = [value for _, value in fields]
    record = record_type(*values)
    assert [getattr(record, name) for name, _ in fields] == values
    for name, value in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    assert record == record_type(*values) and hash(record) == hash(record_type(*values))
    assert {record: 1}[record_type(*values)] == 1


def test_tree_node_defaults_and_walks():
    leaf = TreeNode("dog", (), 0, 1, is_leaf=True)
    node = TreeNode("NP", (leaf,), 0, 1)
    assert node.sentiment is None and not node.is_leaf and leaf.sentiment is None
    assert node.token_range == (0, 1)
    assert list(node.iter_nodes()) == [node, leaf] and node.leaves() == [leaf]
    assert node == TreeNode("NP", (TreeNode("dog", (), 0, 1, None, True),), 0, 1, None, False)


def test_tree_node_iter_nodes_can_be_replaced(monkeypatch):
    """Tracing tools and tests wrap ``TreeNode.iter_nodes`` on the class."""
    tree = ConstTree("d", 0, TreeNode("NP", (TreeNode("dog", (), 0, 1, 2, True),), 0, 1))
    calls = []
    iter_nodes = TreeNode.iter_nodes

    def counted(node):
        calls.append(node)
        return iter_nodes(node)

    monkeypatch.setattr(TreeNode, "iter_nodes", counted)
    assert tree.has_sentiment and calls == [tree.root]
