"""Fuzzers over the text formats a corpus directory holds.

Each parser may reject its input only with a ``DataError`` (the embedding
table only with a ``StandoffParseError``); whatever it accepts must satisfy
the format's invariants.  The run config file is
fuzzed the same way, through ``read_config_file`` and ``build_run_config``.
Every format is fuzzed twice: with structured lines, whose fields are drawn
from near the valid values (negative and out-of-range integers included),
and with unstructured text over the format's own characters.
"""

import math
import os
import tempfile

import numpy as np
from hypothesis import given, settings, strategies as st

from argdissect import cli
from argdissect.annotations import (
    Token,
    load_embeddings,
    parse_bracketed_tree,
    parse_discourse_file,
    parse_token_offsets,
    parse_trees_file,
    trees_have_sentiment,
)
from argdissect.cli import build_run_config, make_parser, read_config_file
from argdissect.corpus import (
    EAU_KINDS, PAIRING_SCOPES, TASK_CLASSES, Corpus, parse_standoff, split_corpus,
)
from argdissect.errors import DataError, StandoffParseError
from argdissect.evaluation import MIN_PERMUTATIONS
from argdissect.features import FAMILIES, MODEL_TYPES
from argdissect.learn import LOSSES, WEIGHTINGS

FUZZ = settings(max_examples=300, deadline=None)

texts = st.text(alphabet="ab .\n", max_size=14)
offsets = st.integers(min_value=-16, max_value=18)


def parse_or_reject(parse, *args):
    """What ``parse`` returns, or None if it raised a ``DataError``."""
    try:
        return parse(*args)
    except DataError:
        return None


def unstructured(alphabet):
    return st.text(alphabet=alphabet, max_size=60)


# --------------------------------------------------------------------------
# token offsets


@st.composite
def token_line(draw, text):
    sent, tok = draw(st.integers(-1, 3)), draw(st.integers(-1, 4))
    start, end = draw(offsets), draw(offsets)
    # mostly the surface Python's slicing gives, which bad offsets still match
    surface = draw(st.one_of(st.just(text[start:end]), st.text(alphabet="ab .", max_size=3)))
    fields = [str(sent), str(tok), str(start), str(end), surface]
    return "\t".join(draw(st.sampled_from([fields, fields[:4], fields + ["x"]])))


@st.composite
def token_file(draw):
    text = draw(texts)
    return draw(st.lists(token_line(text), max_size=6).map("\n".join)), text


def assert_tokens_valid(tokens, text):
    for token in tokens:
        assert 0 <= token.start <= token.end <= len(text)
        assert text[token.start:token.end] == token.surface
    keys = [(t.sentence_idx, t.token_idx) for t in tokens]
    assert keys == sorted(set(keys))


@FUZZ
@given(token_file())
def test_token_file_fuzz_accepts_only_tokens_inside_the_text(file):
    tsv, text = file
    tokens = parse_or_reject(parse_token_offsets, tsv, text, "d")
    if tokens is not None:
        assert_tokens_valid(tokens, text)


@FUZZ
@given(unstructured("0123-\t\n ab."), texts)
def test_token_file_text_fuzz(tsv, text):
    tokens = parse_or_reject(parse_token_offsets, tsv, text, "d")
    if tokens is not None:
        assert_tokens_valid(tokens, text)


# --------------------------------------------------------------------------
# discourse relations


spans = st.one_of(
    st.builds("{}..{}".format, offsets, offsets),
    st.sampled_from(["", "3", "..", "1..2..3", "a..b", "٣..٤"]),
)
discourse_lines = st.builds(
    lambda kind, sense, a1, a2, conn: "|".join([kind, sense, a1, a2, conn]),
    st.sampled_from(["Explicit", "Implicit", "explicit", ""]),
    st.sampled_from(["Comparison.Contrast", "", "x|y"]),
    spans, spans, spans,
)


def assert_relations_valid(relations, length):
    for rel in relations:
        for span in (rel.arg1, rel.arg2) + ((rel.connective,) if rel.connective else ()):
            assert 0 <= span[0] <= span[1] <= length


@FUZZ
@given(st.lists(discourse_lines, max_size=5).map("\n".join), st.integers(0, 12))
def test_discourse_file_fuzz_accepts_only_spans_inside_the_text(content, length):
    relations = parse_or_reject(parse_discourse_file, content, length, "d")
    if relations is not None:
        assert_relations_valid(relations, length)


@FUZZ
@given(unstructured("0123.|-\n ExplicitImplcC"), st.integers(0, 12))
def test_discourse_file_text_fuzz(content, length):
    relations = parse_or_reject(parse_discourse_file, content, length, "d")
    if relations is not None:
        assert_relations_valid(relations, length)


# --------------------------------------------------------------------------
# split


def three_doc_corpus():
    corpus = Corpus()
    for doc_id in ("a", "b", "c"):
        corpus.add(parse_standoff("x", "", doc_id))
    return corpus


split_lines = st.builds(
    lambda doc_id, part, extra: f"{doc_id}\t{part}{extra}",
    st.sampled_from(["a", "b", "c", "z", ""]),
    st.sampled_from(["train", "test", "dev", ""]),
    st.sampled_from(["", "\t", "\ttrain", " "]),
)


def assert_split_valid(split):
    assert split.train_doc_ids and split.test_doc_ids
    assert not split.train_doc_ids & split.test_doc_ids
    assert split.train_doc_ids | split.test_doc_ids == {"a", "b", "c"}


@st.composite
def split_file(draw):
    """A valid split of a, b and c, with up to two fuzzed lines mixed in."""
    lines = [f"{doc_id}\t{draw(st.sampled_from(['train', 'test']))}" for doc_id in "abc"]
    lines += draw(st.lists(split_lines, max_size=2))
    return "\n".join(draw(st.permutations(lines)))


@FUZZ
@given(split_file())
def test_split_file_fuzz(content):
    split = parse_or_reject(split_corpus, three_doc_corpus(), content)
    if split is not None:
        assert_split_valid(split)


@FUZZ
@given(unstructured("abcz\t\n traintest"))
def test_split_file_text_fuzz(content):
    split = parse_or_reject(split_corpus, three_doc_corpus(), content)
    if split is not None:
        assert_split_valid(split)


# --------------------------------------------------------------------------
# standoff annotations


@st.composite
def ann_line(draw, text):
    k = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(EAU_KINDS + ("Stance", "")))
    if draw(st.integers(0, 2)) == 0:
        start, end = draw(offsets), draw(offsets)
        surface = draw(st.one_of(st.just(text[start:end]), st.text(alphabet="ab .", max_size=3)))
        return f"T{k}\t{kind} {start} {end}\t{surface}"
    if draw(st.booleans()):
        rel = draw(st.sampled_from(["supports", "attacks", "Supports"]))
        return f"R{k}\t{rel} Arg1:T{draw(st.integers(1, 3))} Arg2:T{draw(st.integers(1, 3))}"
    return f"A{k}\tStance T{draw(st.integers(1, 3))} {draw(st.sampled_from(['For', '']))}"


@st.composite
def ann_file(draw):
    text = draw(texts)
    return text, draw(st.lists(ann_line(text), max_size=6).map("\n".join))


def assert_standoff_valid(parsed, text):
    ids = {eau.id for eau in parsed.eaus}
    for eau in parsed.eaus:
        assert 0 <= eau.start < eau.end <= len(text)
    for src, tgt, _ in parsed.relations:
        assert src in ids and tgt in ids


@FUZZ
@given(ann_file())
def test_standoff_fuzz_accepts_only_spans_inside_the_text(file):
    text, ann = file
    parsed = parse_or_reject(parse_standoff, text, ann, "d")
    if parsed is not None:
        assert_standoff_valid(parsed, text)


@FUZZ
@given(texts, unstructured("TRA123\t :-Arg12ClaimsupportsFor\nab."))
def test_standoff_text_fuzz(text, ann):
    parsed = parse_or_reject(parse_standoff, text, ann, "d")
    if parsed is not None:
        assert_standoff_valid(parsed, text)


# --------------------------------------------------------------------------
# trees

# Two sentences: "a b" and "(".
TREE_TOKENS = [
    Token("d", 0, 0, 0, 1, "a"), Token("d", 0, 1, 2, 3, "b"), Token("d", 1, 0, 4, 5, "("),
]

# Mostly well-formed labels; the rest carry a sentiment suffix out of range
# or malformed.
labels = st.sampled_from(
    ["S", "NP", "VP", "PP", "S|s=3", "|s=5", "NP|s=1", "X|s=0", "S|s=", "S|s=12"]
)


@st.composite
def tree_over(draw, words, depth=0):
    """A bracketing of the words under drawn labels.  A leaf "(" is mostly
    written escaped, and a leaf sometimes differs from its word."""
    if len(words) == 1 and (depth > 2 or draw(st.booleans())):
        word = words[0]
        return draw(st.sampled_from(["-LRB-", "-LRB-", "-LRB-", "("] if word == "(" else
                                    [word, word, word, "c"]))
    cuts = list(range(1, len(words)))
    if depth <= 2:
        cuts = sorted(draw(st.sets(st.sampled_from(cuts), max_size=len(cuts)))) if cuts else []
    bounds = [0] + cuts + [len(words)]
    kids = [draw(tree_over(words[a:b], depth + 1)) for a, b in zip(bounds, bounds[1:])]
    return f"({draw(labels)} {' '.join(kids)})"


@st.composite
def tree_file(draw):
    """One tree per sentence; a line may be dropped, repeated or cut short."""
    lines = [draw(tree_over(["a", "b"])), draw(tree_over(["("]))]
    k = draw(st.integers(0, 1))
    edit = draw(st.sampled_from(["none", "none", "drop", "repeat", "cut"]))
    if edit == "drop":
        del lines[k]
    elif edit == "repeat":
        lines.insert(k, lines[k])
    elif edit == "cut":
        lines[k] = lines[k][:draw(st.integers(0, len(lines[k]) - 1))]
    return "\n".join(lines)


def assert_trees_valid(parsed):
    assert sorted(parsed) == [0, 1]
    for sent_idx, tree in parsed.items():
        tokens = [t for t in TREE_TOKENS if t.sentence_idx == sent_idx]
        assert len(tree.root.leaves()) == len(tokens)
        assert all(n.sentiment in (None, 1, 2, 3, 4, 5) for n in tree.root.iter_nodes())


@FUZZ
@given(tree_file())
def test_tree_file_fuzz(content):
    parsed = parse_or_reject(parse_trees_file, content, TREE_TOKENS, "d")
    if parsed is not None:
        assert_trees_valid(parsed)


@FUZZ
@given(unstructured("()SNP|s=3 ab-LRB\n"))
def test_tree_file_text_fuzz(content):
    parsed = parse_or_reject(parse_trees_file, content, TREE_TOKENS, "d")
    if parsed is not None:
        assert_trees_valid(parsed)


@FUZZ
@given(st.one_of(tree_file(), unstructured("()SNP|s=3 ab-LRB\n")))
def test_sentiment_scan_is_the_parsed_trees_has_sentiment(content):
    """On every line the parser accepts, for either sentence, the label scan
    ``CorpusBundle.layers`` reads at load equals the parsed tree's flag."""
    for line in content.split("\n"):
        for sent_idx in (0, 1):
            tokens = [t for t in TREE_TOKENS if t.sentence_idx == sent_idx]
            tree = parse_or_reject(parse_bracketed_tree, line, tokens, "d", sent_idx)
            if tree is not None:
                assert trees_have_sentiment(line) == tree.has_sentiment


# --------------------------------------------------------------------------
# embeddings


components = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["0", "-1", "2.5", "1e400", "nan", "inf", "x", "", "٣"]),
)
embedding_lines = st.builds(
    lambda word, values, sep, tail: sep.join([word, *values]) + tail,
    st.sampled_from(["a", "b", "2", "3", ""]),
    st.lists(components, max_size=3),
    st.sampled_from([" ", " ", "\t"]),
    st.sampled_from(["", " ", "\t"]),
)


def embeddings_or_reject(content):
    """The table ``load_embeddings`` reads, or None if it raised a ``StandoffParseError``;
    any other exception fails the test."""
    try:
        return load_embeddings(content)
    except StandoffParseError:
        return None


def assert_embeddings_valid(table):
    assert table.entries and table.dimension >= 1
    for vec in table.entries.values():
        assert vec.shape == (table.dimension,) and np.isfinite(vec).all()


@FUZZ
@given(st.lists(embedding_lines, max_size=5).map("\n".join))
def test_embeddings_fuzz_accepts_only_finite_vectors(content):
    table = embeddings_or_reject(content)
    if table is not None:
        assert_embeddings_valid(table)


@FUZZ
@given(unstructured("ab 0123.e-\t\nnaif"))
def test_embeddings_text_fuzz(content):
    table = embeddings_or_reject(content)
    if table is not None:
        assert_embeddings_valid(table)


# --------------------------------------------------------------------------
# config files


def config_or_reject(content):
    """The ``RunConfig`` a config file of ``content`` gives, or None on a ``DataError``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)
        try:
            read_config_file(path)
            return build_run_config(make_parser().parse_args(["run", "--config", path]))
        except DataError:
            return None


def assert_config_valid(config):
    train = config.train
    assert 0 < train.c < math.inf and 0 < train.tolerance < math.inf
    assert train.max_epochs >= 1 and train.seed >= 0
    assert train.loss in LOSSES and train.class_weighting in WEIGHTINGS
    assert config.task in TASK_CLASSES and config.model_type in MODEL_TYPES
    assert config.pairing_scope in PAIRING_SCOPES
    assert set(config.families) <= set(FAMILIES)
    assert len(set(config.families)) == len(config.families)  # no family repeats
    assert config.corpus_dir and config.split_path and config.eval_seed >= 0
    assert config.significance_n == 0 or config.significance_n >= MIN_PERMUTATIONS


NUMBERS = ["0", "1", "-1", "0.5", "1e-4", "7", "200", "inf", "-inf", "nan", "1e400", "1e-400",
           "2.5e300", "abc", ""]
CONFIG_VALUES = {
    "corpus_dir": ["c", ""], "split": ["s", ""], "task": ["f", "g", "x"],
    "model_type": ["CB", "FA", "cb"], "families": ["lexical,syntactic", "lexical,", "bogus",
                                                  "lexical,lexical"],
    "pairing_scope": ["paragraph", "document", "sentence"],
    "exclude_reverse": ["yes", "0", "maybe"], "loss": ["hinge", "squared_hinge", "log"],
    "class_weighting": ["none", "inverse_frequency", "x"],
}


@st.composite
def config_line(draw):
    key = draw(st.sampled_from(sorted(cli._SETTINGS) + ["bogus"]))
    value = draw(st.sampled_from(CONFIG_VALUES.get(key, NUMBERS)))
    return draw(st.sampled_from([f"{key} = {value}", f"{key}={value}", f"# {key}", key]))


def line_key(line):
    return line.lstrip("# ").split("=")[0].strip()


@st.composite
def config_file(draw):
    """Each key on at most one line; ``corpus_dir = c`` and ``split = s`` unless drawn."""
    lines = draw(st.lists(config_line(), max_size=6, unique_by=line_key))
    drawn = {line_key(line) for line in lines if "=" in line and not line.startswith("#")}
    lines += [f"{key} = {value}" for key, value in (("corpus_dir", "c"), ("split", "s"))
              if key not in drawn]
    return "\n".join(draw(st.permutations(lines)))


@FUZZ
@given(config_file())
def test_config_file_fuzz_accepts_only_valid_settings(content):
    config = config_or_reject(content)
    if config is not None:
        assert_config_valid(config)


@FUZZ
@given(unstructured("cinftaskgsplt_=#\n .0123e-"))
def test_config_file_text_fuzz(content):
    config = config_or_reject("corpus_dir = c\nsplit = s\n" + content)
    if config is not None:
        assert_config_valid(config)


def test_config_fuzz_rejects_an_infinite_c():
    assert config_or_reject("corpus_dir = c\nsplit = s\nc = inf\n") is None
    assert config_or_reject("corpus_dir = c\nsplit = s\nc = 2\n").train.c == 2.0
