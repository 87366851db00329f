"""Pre-computed linguistic layers: tokens, constituency trees, discourse, embeddings.

All layers are ingested from plain-text files produced offline by external
NLP tooling; this module only parses, validates, and aligns them.

File formats:
  tokens     TSV ``sentence_idx\\ttoken_idx\\tstart\\tend\\tsurface``
  trees      one bracketed tree per line, node syntax ``(LABEL|s=k child ...)``
             where the optional ``|s=k`` suffix carries a sentiment score 1..5;
             any other text after ``|s=`` is an error
  discourse  pipe-delimited ``kind|sense|a..b|c..d|e..f`` (connective span optional)
  embeddings text lines ``word v1 ... v_dim``

The layer records ``Token``, ``TreeNode`` and ``DiscourseRelation``, which a
corpus holds by the ten thousand, are named tuples: immutable, hashable,
built positionally at the cost of a tuple, and compared field by field in
declaration order.  Each file is read in one pass, line by line.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from operator import attrgetter
from typing import NamedTuple, Optional

import numpy as np

from .errors import AlignmentError, IntegrityError, StandoffParseError
from .corpus import EauSpan


class Token(NamedTuple):
    doc_id: str
    sentence_idx: int
    token_idx: int
    start: int
    end: int
    surface: str


# A token's place in document order
token_key = attrgetter("sentence_idx", "token_idx")


class TreeNode(NamedTuple):
    """A constituency tree node; leaves carry the token surface as label."""

    label: str
    children: tuple["TreeNode", ...]
    token_start: int
    token_end: int
    sentiment: Optional[int] = None
    is_leaf: bool = False

    @property
    def token_range(self) -> tuple[int, int]:
        return (self.token_start, self.token_end)

    def iter_nodes(self):
        """Every node of the subtree in preorder."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def leaves(self) -> list["TreeNode"]:
        return [n for n in self.iter_nodes() if n.is_leaf]


@dataclass(frozen=True)
class ConstTree:
    doc_id: str
    sentence_idx: int
    root: TreeNode

    @cached_property
    def has_sentiment(self) -> bool:
        """Whether any node carries a sentiment score; the tree is walked once."""
        return any(n.sentiment is not None for n in self.root.iter_nodes())


class DiscourseRelation(NamedTuple):
    doc_id: str
    kind: str  # Explicit | Implicit
    sense: str
    arg1: tuple[int, int]
    arg2: tuple[int, int]
    connective: Optional[tuple[int, int]] = None


@dataclass
class EmbeddingTable:
    dimension: int
    entries: dict[str, np.ndarray]

    def lookup(self, word: str) -> np.ndarray:
        """Absent words map to the zero vector."""
        vec = self.entries.get(word)
        if vec is None:
            return np.zeros(self.dimension)
        return vec


@dataclass(frozen=True)
class EauAlignment:
    eau_id: str
    covering_sentence_idxs: tuple[int, ...]
    eau_tokens: tuple[Token, ...]
    context_tokens: tuple[Token, ...]


def parse_token_offsets(tsv: str, document_text: str, doc_id: str = "doc") -> list[Token]:
    """Parse and validate the token-offset TSV against the document text."""
    tokens: list[Token] = []
    prev_key = None
    prev_end_in_sentence = -1
    for line_no, line in enumerate(tsv.split("\n"), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 5:
            raise StandoffParseError(f"expected 5 columns, got {len(parts)}", line_no)
        try:
            sent_idx, tok_idx = int(parts[0]), int(parts[1])
            start, end = int(parts[2]), int(parts[3])
        except ValueError:
            raise StandoffParseError(f"non-integer field in {line!r}", line_no)
        if not 0 <= start <= end <= len(document_text):
            raise StandoffParseError(f"token offsets {start}..{end} of {doc_id} outside "
                                     f"its text [0,{len(document_text)}]", line_no)
        surface = sys.intern(parts[4])  # one object per distinct surface, trees' leaves too
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


_LABEL_SENT_RE = re.compile(r"^(.*?)\|s=([0-9])$")

# A node label (the item after "(") holding "|s=": on a line the parser
# accepts, a label with a sentiment score.
_LABEL_SCAN_RE = re.compile(r"\(\s*[^\s()]*\|s=")


def trees_have_sentiment(content: str) -> bool:
    """Whether every tree line of a trees file has a node label with a sentiment
    suffix, found by a label scan that builds no record.  On every line
    ``parse_bracketed_tree`` accepts, this is the tree's ``has_sentiment``."""
    return all(_LABEL_SCAN_RE.search(line) for line in content.split("\n") if line.strip())


# Bracket escapes used by common treebank tooling.
_LEAF_ESCAPES = {
    "-LRB-": "(", "-RRB-": ")", "-LSB-": "[", "-RSB-": "]", "-LCB-": "{", "-RCB-": "}",
}


# Deepest node nesting a tree line may have.  Trees are walked recursively
# after parsing (``treeops._Walk.cut``, ``treeops._subtree_rules``), one
# frame per level, below whatever frames the caller already holds; 500 keeps
# those walks well under Python's default recursion limit of 1000, and
# natural-language parses are far shallower.
MAX_TREE_DEPTH = 500


def _tokenize_sexpr(line: str) -> list[str]:
    """The line's brackets, and the whitespace-separated words between them."""
    return line.replace("(", " ( ").replace(")", " ) ").split()


def parse_bracketed_tree(
    line: str, tokens_of_sentence: list[Token], doc_id: str = "doc", sentence_idx: int = 0
) -> ConstTree:
    """Parse one bracketed tree line and align its leaves to the sentence tokens.

    The line is read left to right with an explicit stack of open nodes, so
    parsing builds no recursive closure and no reference cycle.  Nesting
    deeper than ``MAX_TREE_DEPTH`` is rejected.
    """
    items = _tokenize_sexpr(line)
    if not items:
        raise StandoffParseError("unbalanced brackets: unexpected end of line")
    leaves: list[TreeNode] = []
    # the open nodes, outermost first: (label, sentiment, children so far)
    stack: list[tuple[str, Optional[int], list[TreeNode]]] = []
    siblings: Optional[list[TreeNode]] = None  # the innermost open node's children
    root: Optional[TreeNode] = None
    items_left = iter(items)
    for item in items_left:
        if item == "(":
            raw_label = next(items_left, "(")
            if raw_label == "(" or raw_label == ")":
                raise StandoffParseError("expected node label after '('")
            if len(stack) == MAX_TREE_DEPTH:
                raise StandoffParseError(f"tree nested deeper than {MAX_TREE_DEPTH} levels")
            label, sentiment = raw_label, None
            if "|s=" in raw_label:  # the suffix pattern can match only then
                m = _LABEL_SENT_RE.match(raw_label)
                if not m:
                    raise StandoffParseError(
                        f"malformed sentiment suffix in label {raw_label!r}: "
                        "expected |s=1 to |s=5"
                    )
                label, sentiment = m.group(1), int(m.group(2))
                if not 1 <= sentiment <= 5:
                    raise StandoffParseError(f"sentiment score out of range: {sentiment}")
            siblings = []
            stack.append((sys.intern(label), sentiment, siblings))
            continue
        if item == ")":
            if not stack:
                raise StandoffParseError("unbalanced brackets: unexpected ')'")
            label, sentiment, children = stack.pop()
            if not children:
                raise StandoffParseError(f"node {label!r} has no children")
            node = TreeNode(
                label, tuple(children), children[0].token_start, children[-1].token_end,
                sentiment,
            )
            siblings = stack[-1][2] if stack else None
        else:  # terminal
            node = TreeNode(sys.intern(item), (), len(leaves), len(leaves) + 1, None, True)
            leaves.append(node)
        if siblings is None:
            root = node
            break
        siblings.append(node)
    if root is None:
        raise StandoffParseError("unbalanced brackets: missing ')'")
    if next(items_left, None) is not None:
        raise StandoffParseError("unbalanced brackets: trailing material")

    if len(leaves) != len(tokens_of_sentence):
        raise AlignmentError(
            f"{doc_id} sentence {sentence_idx}: tree has {len(leaves)} leaves "
            f"but the sentence has {len(tokens_of_sentence)} tokens"
        )
    for leaf, token in zip(leaves, tokens_of_sentence):
        surface = _LEAF_ESCAPES.get(leaf.label, leaf.label)
        if surface != token.surface:
            raise AlignmentError(
                f"{doc_id} sentence {sentence_idx}: leaf {surface!r} does not "
                f"match token {token.surface!r}"
            )
    return ConstTree(doc_id=doc_id, sentence_idx=sentence_idx, root=root)


def parse_trees_file(
    content: str, tokens: list[Token], doc_id: str = "doc"
) -> dict[int, ConstTree]:
    """Parse a one-tree-per-line file; line order follows sentence order.

    A line that does not parse is a ``StandoffParseError`` naming its line.
    """
    by_sentence: dict[int, list[Token]] = {}
    for sent_idx, run in groupby(tokens, key=attrgetter("sentence_idx")):
        by_sentence.setdefault(sent_idx, []).extend(run)
    lines = [
        (line_no, line) for line_no, line in enumerate(content.split("\n"), start=1)
        if line.strip()
    ]
    sentence_idxs = sorted(by_sentence)
    if len(lines) != len(sentence_idxs):
        raise AlignmentError(
            f"{doc_id}: {len(lines)} trees for {len(sentence_idxs)} sentences"
        )
    trees = {}
    for sent_idx, (line_no, line) in zip(sentence_idxs, lines):
        try:
            trees[sent_idx] = parse_bracketed_tree(
                line, by_sentence[sent_idx], doc_id=doc_id, sentence_idx=sent_idx
            )
        except StandoffParseError as exc:
            raise StandoffParseError(str(exc), line_no) from None
    return trees


_SPAN_PART_RE = re.compile(r"^(\d+)\.\.(\d+)$")


def _parse_span(part: str, line_no: int, doc_length: int) -> tuple[int, int]:
    m = _SPAN_PART_RE.match(part)
    if not m:
        raise StandoffParseError(f"malformed span {part!r}", line_no)
    start, end = int(m.group(1)), int(m.group(2))
    if not (0 <= start <= end <= doc_length):
        raise StandoffParseError(
            f"span {part!r} outside document bounds [0,{doc_length})", line_no
        )
    return (start, end)


def parse_discourse_file(
    content: str, doc_length: int, doc_id: str = "doc"
) -> list[DiscourseRelation]:
    """Parse the pipe-delimited discourse relation file."""
    relations = []
    for line_no, line in enumerate(content.split("\n"), start=1):
        if not line.strip():
            continue
        parts = line.split("|")
        if len(parts) != 5:
            raise StandoffParseError(f"expected 5 fields, got {len(parts)}", line_no)
        kind, sense = parts[0], parts[1]
        if kind not in ("Explicit", "Implicit"):
            raise StandoffParseError(f"unknown relation kind {kind!r}", line_no)
        arg1 = _parse_span(parts[2], line_no, doc_length)
        arg2 = _parse_span(parts[3], line_no, doc_length)
        connective = _parse_span(parts[4], line_no, doc_length) if parts[4] else None
        relations.append(DiscourseRelation(doc_id, kind, sense, arg1, arg2, connective))
    return relations


def load_embeddings(content: str) -> EmbeddingTable:
    """Load a word-vector text file; duplicate words keep the last entry.

    Trailing whitespace on a line is ignored, as the word2vec tool writes a
    space after each component.  A first line of two integers whose second
    equals the next line's component count is a word2vec ``<count> <dim>``
    header and is skipped.  The dimension is the component count of the
    first entry.  A non-finite component (``nan``, ``inf``, or a value
    beyond a double's range) is an error, and so is a table without
    entries or without components (a tab-separated file is one).
    """
    lines = [
        (line_no, line.rstrip().split(" "))
        for line_no, line in enumerate(content.split("\n"), start=1)
        if line.strip()
    ]
    if len(lines) > 1 and len(lines[0][1]) == 2 and all(
        f.isdecimal() for f in lines[0][1]
    ) and int(lines[0][1][1]) == len(lines[1][1]) - 1:
        lines = lines[1:]
    if not lines:
        raise StandoffParseError("embedding table has no entries")
    dim = len(lines[0][1]) - 1
    if dim == 0:
        raise StandoffParseError("embedding vectors have no components", lines[0][0])
    entries: dict[str, np.ndarray] = {}
    for line_no, parts in lines:
        if len(parts) != dim + 1:
            raise StandoffParseError(
                f"expected {dim} vector components, got {len(parts) - 1}", line_no
            )
        try:
            vec = np.array([float(v) for v in parts[1:]])
        except ValueError:
            raise StandoffParseError(
                f"non-numeric vector component in {' '.join(parts)!r}", line_no
            )
        if not np.isfinite(vec).all():
            raise StandoffParseError(
                f"non-finite vector component in {' '.join(parts)!r}", line_no
            )
        entries[parts[0]] = vec
    return EmbeddingTable(dimension=dim, entries=entries)


def align_eau(eau: EauSpan, tokens: list[Token]) -> EauAlignment:
    """Partition the covering sentence(s) into EAU tokens and context tokens.

    A token belongs to the EAU if its character span overlaps the EAU span
    by at least one character.  Both parts come out in document order.
    """
    start, end = eau.start, eau.end
    eau_tokens = [t for t in tokens if t.start < end and t.end > start and t.end > t.start]
    if not eau_tokens:
        raise AlignmentError(f"EAU {eau.id} overlaps no tokens")
    eau_tokens.sort(key=token_key)
    covering = sorted({t.sentence_idx for t in eau_tokens})
    eau_keys = set(map(token_key, eau_tokens))
    context_tokens = [
        t for t in tokens if t.sentence_idx in covering and token_key(t) not in eau_keys
    ]
    context_tokens.sort(key=token_key)
    return EauAlignment(
        eau_id=eau.id,
        covering_sentence_idxs=tuple(covering),
        eau_tokens=tuple(eau_tokens),
        context_tokens=tuple(context_tokens),
    )
