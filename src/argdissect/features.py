"""Feature extraction under the content / context / full-access split.

Every feature name is namespaced ``family:scope:side:payload`` where scope is
one of ``eau`` (content-based), ``ctx`` (content-ignorant) or ``both``
(full-access only), so a feature's type is recoverable from its name alone.
Each family reads one side of a view: the lexical, syntactic, structural
and discourse extractors return its feature values per scope, keyed by
payload, and the embedding and sentiment families one numeric array row per
side and scope, one column per payload.  The name is the only place the type
is kept.  The registry maps names to indices and freezes after the training
pass.

``extract_matrix`` extracts a batch of views into one FA feature matrix over
the registry, extracting each side shared by several views once, and formats
each feature name once per distinct payload; the CB and CI slices are its
column views (``FeatureRegistry.columns_of``).  An open registry first
registers the batch's new names in order of first occurrence, a frozen one
drops its unseen names, and one gather then writes the matrix.  The batch may
come as chunks, lists of views one after another (the training split comes
a document at a time), and no chunk's sides are kept past it.

The matrix takes one of two forms, which read alike (``len``, ``shape``,
``row_blocks``, ``dense_rows``, ``toarray``, ``columns``); other modules
take feature matrices only in these.  ``dense_rule``, the one density
rule, picks the form: an extraction whose FA rows and every Φ slice's
column view meet it is written straight into a ``DenseMatrix``, one
read-only (n, d+1) float array whose last column is the solver's bias
column of ones, which ``learn`` trains and predicts on without a copy.
Any other extraction is a ``CsrMatrix``, with ``intp`` row pointers and
column indices of the narrowest type its width allows (``index_dtype``):
9 B per stored entry up to 256 columns, 10 B up to 65,536, 12 B beyond;
``learn`` densifies it by the same rule.  Apart from one pool of each
side's entries, the extraction works in ``row_blocks`` whose temporaries
take at most ``ROW_BLOCK_BYTES``, as does every densifying;
``dense_rows`` reads one block densely, and the ANOVA scores read dense
row blocks only, never a dense copy of the matrix.
A single view's features are also available as a name dict (``extract_all``,
a one-row ``extract_matrix`` call), and as a ``dict[int, float]`` vector of
one Φ type (``assemble``, that dict's names of the type).
"""

from __future__ import annotations

import hashlib
import string
from array import array
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Optional

import numpy as np

from .corpus import RelationInstance
from .errors import MissingLayerError

CB = "CB"
CI = "CI"
FA = "FA"
MODEL_TYPES = (CB, CI, FA)

SCOPE_TYPE = {"eau": CB, "ctx": CI, "both": FA}
TAGS = ("src", "tgt")  # the side tags of a feature name

FAMILIES = ("lexical", "syntactic", "structural", "discourse", "embedding", "sentiment")

# The name prefix of each family's features
_FAMILY_PREFIX = {
    "lexical": "lex",
    "syntactic": "syn",
    "structural": "struct",
    "discourse": "disc",
    "embedding": "emb",
    "sentiment": "sent",
}

# The annotation layer each family reads; every corpus has tokens.
FAMILY_LAYER = {
    "lexical": "tokens",
    "syntactic": "trees",
    "structural": "tokens",
    "discourse": "discourse",
    "embedding": "embeddings",
    "sentiment": "sentiment",
}


def feature_type(name: str) -> str:
    """The Φ type of a feature, recovered from its namespaced name."""
    scope = name.split(":", 2)[1]
    return SCOPE_TYPE[scope]


class FeatureRegistry:
    """Bijective name <-> index map, frozen after the training pass."""

    def __init__(self):
        self._index: dict[str, int] = {}
        self._names: list[str] = []
        self.frozen = False
        # Unseen names met while frozen, per Φ slice (a CB or CI name is in FA's too)
        self.dropped_in = dict.fromkeys(MODEL_TYPES, 0)

    def __len__(self) -> int:
        return len(self._names)

    def index(self, name: str) -> int | None:
        """Index of ``name``; registers it unless frozen, else returns None."""
        idx = self._index.get(name)
        if idx is not None:
            return idx
        if self.frozen:
            for slice_type in {FA, feature_type(name)}:
                self.dropped_in[slice_type] += 1
            return None
        idx = len(self._names)
        self._index[name] = idx
        self._names.append(name)
        return idx

    @property
    def dropped_unseen(self) -> int:
        return self.dropped_in[FA]

    def name(self, idx: int) -> str:
        return self._names[idx]

    def freeze(self) -> None:
        self.frozen = True

    @property
    def registry_id(self) -> str:
        digest = hashlib.sha256("\n".join(self._names).encode("utf-8")).hexdigest()
        return digest[:16]

    # read only by bench/spans.py; src/ selects a Φ slice with ``columns_of``
    def indices_of_type(self, ftype: str) -> list[int]:
        return [i for i, n in enumerate(self._names) if feature_type(n) == ftype]

    def columns_of(self, model_type: str) -> np.ndarray:
        """Mask of the model type's Φ slice: the CB or CI columns, or all for FA."""
        return np.array(
            [model_type == FA or feature_type(n) == model_type for n in self._names], bool
        )

    def subset(self, columns: np.ndarray) -> FeatureRegistry:
        """A frozen registry of the masked names, in the same order."""
        sub = FeatureRegistry()
        for name in compress(self._names, columns):
            sub.index(name)
        sub.freeze()
        return sub


# --------------------------------------------------------------------------
# Instance views


@dataclass(frozen=True, slots=True)
class ContentLayers:
    """Everything derivable from the EAU span alone (given its parse)."""

    tokens: tuple[str, ...] = ()
    rules: tuple[str, ...] = ()
    discourse: tuple[tuple[str, str], ...] = ()
    sentiment: Optional[int] = None
    punct_count: int = 0
    embedding: Optional[np.ndarray] = None

    @property
    def token_count(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True, slots=True)
class ContextLayers:
    """Everything derived from the covering sentence(s) minus the EAU span.

    Boundary-crossing layers (severed-edge rules, crossing discourse
    relations, the joint sentiment node) live here as well: they vanish
    when the context is stripped and travel with the context when it is
    swapped.
    """

    tokens: tuple[str, ...] = ()
    rules: tuple[str, ...] = ()
    crossing_rules: tuple[str, ...] = ()
    discourse: tuple[tuple[str, str], ...] = ()
    crossing_discourse: tuple[tuple[str, str], ...] = ()
    sentiment_ci: Optional[int] = None
    sentiment_fa: Optional[int] = None
    preceding_count: int = 0
    following_count: int = 0
    unit_index: int = 0
    is_first: bool = False
    is_last: bool = False
    paragraph_index: int = 0
    embedding: Optional[np.ndarray] = None


EMPTY_CONTEXT = ContextLayers()


@dataclass(frozen=True, slots=True)
class SideView:
    eau_id: str
    content: ContentLayers
    context: ContextLayers


@dataclass(frozen=True, slots=True)
class InstanceView:
    instance: RelationInstance
    source: SideView
    target: Optional[SideView] = None
    layers: frozenset[str] = frozenset({"tokens"})


# --------------------------------------------------------------------------
# Per-side extractors of the lexical, syntactic, structural and discourse
# families.  Each returns one side's features as ``{scope: {payload:
# value}}``, scopes in the order eau, ctx, both; a feature's name is
# ``prefix:scope:tag:payload`` under the side's tag.  The embedding and
# sentiment families are numeric instead: ``_pair_values`` gives one array
# row per side, whose nonzeros are the side's block, and the source minus
# target difference of two rows is the pair's block.


def _indicators(**payloads) -> dict[str, dict[str, float]]:
    return {scope: dict.fromkeys(items, 1.0) for scope, items in payloads.items()}


def _lexical(sv: SideView) -> dict[str, dict[str, float]]:
    """Binary unigram indicators over EAU tokens, context tokens, and both bags."""
    eau_bag = {t.lower() for t in sv.content.tokens}
    ctx_bag = {t.lower() for t in sv.context.tokens}
    return _indicators(eau=sorted(eau_bag), ctx=sorted(ctx_bag), both=sorted(eau_bag & ctx_bag))


def _syntactic(sv: SideView) -> dict[str, dict[str, float]]:
    """Binary production-rule indicators from the cut tree fragments."""
    return _indicators(
        eau=sorted(set(sv.content.rules)),
        ctx=sorted(set(sv.context.rules)),
        both=sorted(set(sv.context.crossing_rules)),
    )


def _discourse(sv: SideView) -> dict[str, dict[str, float]]:
    """Binary (kind, sense) indicators, split by where the relation lies."""
    eau, ctx, both = (
        [f"{k}:{s}" for k, s in sorted(set(relations))]
        for relations in (
            sv.content.discourse, sv.context.discourse, sv.context.crossing_discourse
        )
    )
    return _indicators(eau=eau, ctx=ctx, both=both)


def _structural(sv: SideView) -> dict[str, dict[str, float]]:
    """Shallow position and count statistics.

    Statistics that need both the EAU and its surroundings (sentence length,
    EAU/sentence ratio) are full-access only; the content side keeps only
    what the span alone provides.
    """
    content, ctx = sv.content, sv.context
    out: dict[str, dict[str, float]] = {"eau": {}, "ctx": {}, "both": {}}
    for scope, key, value in (
        ("eau", "token_count", content.token_count),
        ("eau", "punct_count", content.punct_count),
        ("ctx", "preceding_tokens", ctx.preceding_count),
        ("ctx", "following_tokens", ctx.following_count),
        ("ctx", "unit_index", ctx.unit_index),
        ("ctx", "is_first", ctx.is_first),
        ("ctx", "is_last", ctx.is_last),
        ("ctx", "paragraph_index", ctx.paragraph_index),
    ):
        if value:
            out[scope][key] = float(value)
    sentence_tokens = content.token_count + ctx.preceding_count + ctx.following_count
    if sentence_tokens:
        out["both"]["sentence_tokens"] = float(sentence_tokens)
        out["both"]["eau_sentence_ratio"] = content.token_count / sentence_tokens
    return out


_SIDE_EXTRACTORS = {
    "lexical": _lexical, "syntactic": _syntactic,
    "structural": _structural, "discourse": _discourse,
}

# Families with a source-target difference block: per scope, the side value
# it is taken from.  Embeddings are summed word vectors; a sentiment is one
# score, one-hot over SENTIMENT_SCORES.
_PAIRED = {
    "embedding": {
        "eau": lambda sv: sv.content.embedding,
        "ctx": lambda sv: sv.context.embedding,
    },
    "sentiment": {
        "eau": lambda sv: sv.content.sentiment,
        "ctx": lambda sv: sv.context.sentiment_ci,
        "both": lambda sv: sv.context.sentiment_fa,
    },
}
SENTIMENT_SCORES = (1, 2, 3, 4, 5)
# A score's one-hot row, by its place in SENTIMENT_SCORES; the last row,
# all zeros, is a missing score's
_SENTIMENT_ROWS = np.vstack([np.eye(len(SENTIMENT_SCORES)), np.zeros(len(SENTIMENT_SCORES))])
_SENTIMENT_ROWS.flags.writeable = False


def _side_blocks(sv: SideView, families) -> dict[tuple[str, str], dict[str, float]]:
    """One side's feature values by payload, keyed by (family, scope)."""
    return {
        (family, scope): values
        for family in families if family not in _PAIRED
        for scope, values in _SIDE_EXTRACTORS[family](sv).items()
    }


def _pair_payloads(family: str, embedding_dim: int) -> list[str]:
    """Payloads of the columns of a ``_pair_values`` array."""
    if family == "embedding":
        return [f"{k:03d}" for k in range(embedding_dim)]
    return [str(k) for k in SENTIMENT_SCORES]


def _pair_values(family: str, scope: str, sides, embedding_dim: int) -> np.ndarray:
    """Per side, the family's values in the scope; zeros for a missing value.
    Built by one array call over the sides."""
    values = list(map(_PAIRED[family][scope], sides))
    if family == "embedding":
        zero = np.zeros(embedding_dim)
        rows = [zero if vec is None else vec[:embedding_dim] for vec in values]
        return np.array(rows, float).reshape(len(sides), embedding_dim)
    return _SENTIMENT_ROWS[[SENTIMENT_SCORES.index(s) if s in SENTIMENT_SCORES else -1
                            for s in values]]


def _blocks_in_order(families):
    """(family, scope, tag) of every block of a paired view, in name order.

    A view without a target has empty ``tgt`` and ``diff`` blocks.
    """
    for family in families:
        if family in _PAIRED:
            for scope in _PAIRED[family]:
                for tag in ("src", "tgt", "diff"):
                    yield family, scope, tag
        else:
            for tag in TAGS:
                for scope in SCOPE_TYPE:
                    yield family, scope, tag


# --------------------------------------------------------------------------
# Assembly


def default_families(layers) -> tuple[str, ...]:
    """Every family whose annotation layer is in ``layers``."""
    return tuple(f for f in FAMILIES if FAMILY_LAYER[f] in layers)


def extract_all(
    view: InstanceView, families=None, embedding_dim: int = 0
) -> dict[str, float]:
    """Named features of every requested family, all scopes together.

    The one row registers exactly the names it holds, in its entry order,
    so its columns in order are its features in name order."""
    registry = FeatureRegistry()
    X = extract_matrix([view], registry, families, embedding_dim)
    return dict(zip(registry._names, X.toarray()[0].tolist()))


def assemble(
    view: InstanceView,
    model_type: str,
    registry: FeatureRegistry,
    families=None,
    embedding_dim: int = 0,
) -> dict[int, float]:
    """The view's ``extract_all`` names in the model type's Φ slice, in order, as
    ``{registry.index(name): value}``; a frozen registry drops and counts unseen names."""
    if model_type not in MODEL_TYPES:
        raise ValueError(f"unknown model type: {model_type}")
    named = extract_all(view, families, embedding_dim).items()
    indexed = ((registry.index(n), v) for n, v in named if model_type in (FA, feature_type(n)))
    return {idx: value for idx, value in indexed if idx is not None}


# --------------------------------------------------------------------------
# Feature matrices

# Bounds the temporaries of one row block of a pass over a feature matrix:
# a block's rows, at the matrix's width, take at most this many bytes as a
# dense float array, and its stored entries at most this many as int or
# float arrays.  On the 178 columns of a 1000-document task-g training set a
# block holds 736 of its 24,000 rows.
ROW_BLOCK_BYTES = 1 << 20


def index_dtype(n_cols: int) -> np.dtype:
    """The narrowest column index type of a matrix ``n_cols`` wide: ``uint8``
    up to 256 columns, ``uint16`` up to 65,536, ``int32`` beyond."""
    for dtype in (np.uint8, np.uint16):
        if n_cols <= np.iinfo(dtype).max + 1:
            return np.dtype(dtype)
    return np.dtype(np.int32)


def row_blocks(n_rows: int, width: int) -> list[tuple[int, int]]:
    """(lo, hi) bounds of consecutive blocks of ``n_rows`` rows, each holding at
    most ``ROW_BLOCK_BYTES`` as a dense (rows, width) float array."""
    rows = max(1, ROW_BLOCK_BYTES // (8 * max(width, 1)))
    return [(lo, min(lo + rows, n_rows)) for lo in range(0, n_rows, rows)]


def dense_rule(n_rows: int, n_cols: int, stored: int) -> bool:
    """Whether a matrix with ``stored`` entries is held dense: when
    stored >= n(d+1)/4 - n, the bias column counted, one (n, d+1) float array
    takes at most twice the bytes of sparse solver rows (8 B index + 8 B
    value per entry), and a coordinate step on a dense row skips gathering
    ``w[cols]``."""
    return 4 * (stored + n_rows) >= n_rows * (n_cols + 1)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class DenseMatrix:
    """Feature rows in the form the solver reads them: ``rows`` is one
    read-only (n, n_cols + 1) float array, C-ordered, whose last column is
    the bias column of ones.  It reads as a ``CsrMatrix`` does (``len``,
    ``shape``, ``row_blocks``, ``dense_rows``, ``toarray``, ``columns``), its
    dense reads being views of ``rows``."""

    rows: np.ndarray

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return self.rows.shape[1] - 1

    @property
    def shape(self) -> tuple[int, int]:
        return len(self), self.n_cols

    def row_blocks(self) -> list[tuple[int, int]]:
        return row_blocks(len(self), self.n_cols)

    def dense_rows(self, lo: int, hi: int) -> np.ndarray:
        """Rows ``lo:hi`` without the bias column: a read-only view."""
        return self.rows[lo:hi, :-1]

    def toarray(self) -> np.ndarray:
        """Every row without the bias column: a read-only view."""
        return self.rows[:, :-1]

    def columns(self, mask: np.ndarray) -> DenseMatrix:
        """The masked columns, in order, with the bias column, written once; a
        mask of every column gives the matrix itself."""
        if np.count_nonzero(mask) == self.n_cols:
            return self
        return DenseMatrix(_read_only(self.rows.take(np.flatnonzero(np.append(mask, True)), 1)))

    def to_dense(self) -> DenseMatrix:
        return self


@dataclass(frozen=True)
class CsrMatrix:
    """Compressed sparse rows: row i holds the columns
    ``indices[indptr[i]:indptr[i + 1]]`` and the values at the same
    positions of ``data``.  ``extract_matrix`` and ``columns`` make indices
    of ``index_dtype(n_cols)`` and ``intp`` row pointers."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    n_cols: int

    def __len__(self) -> int:
        return len(self.indptr) - 1

    @property
    def shape(self) -> tuple[int, int]:
        return len(self), self.n_cols

    def row_ids(self) -> np.ndarray:
        """The row of every stored entry."""
        return np.repeat(np.arange(len(self)), np.diff(self.indptr))

    def row_blocks(self) -> list[tuple[int, int]]:
        """``row_blocks`` of this matrix's rows at its width."""
        return row_blocks(len(self), self.n_cols)

    def dense_rows(self, lo: int, hi: int, out: np.ndarray | None = None) -> np.ndarray:
        """Rows ``lo:hi`` as a dense (hi - lo, n_cols) array, written into ``out``
        (zeros of that shape) if given."""
        if out is None:
            out = np.zeros((hi - lo, self.n_cols))
        a, b = self.indptr[lo], self.indptr[hi]
        rows = np.repeat(np.arange(hi - lo), np.diff(self.indptr[lo:hi + 1]))
        out[rows, self.indices[a:b]] = self.data[a:b]
        return out

    def toarray(self) -> np.ndarray:
        X = np.zeros(self.shape)
        for lo, hi in self.row_blocks():
            self.dense_rows(lo, hi, X[lo:hi])
        return X

    def to_dense(self) -> DenseMatrix:
        """The same rows as a ``DenseMatrix``, written row block by row block."""
        n, d = self.shape
        rows = np.zeros((n, d + 1))
        for lo, hi in self.row_blocks():
            self.dense_rows(lo, hi, rows[lo:hi, :d])
        rows[:, d] = 1.0
        return DenseMatrix(_read_only(rows))

    def columns(self, mask: np.ndarray) -> CsrMatrix:
        """The masked columns, renumbered in order; entry order is kept.  A mask
        of every column gives the matrix itself, once its indices are of
        ``index_dtype``."""
        n_cols = int(np.count_nonzero(mask))
        if n_cols == self.n_cols and self.indices.dtype == index_dtype(n_cols):
            return self
        kept = mask[self.indices]
        kept_before = np.zeros(len(kept) + 1, self.indptr.dtype)  # entry e: kept among 0..e-1
        np.cumsum(kept, out=kept_before[1:])
        indptr = kept_before[self.indptr]
        # a masked-out column's number is never read
        renumbered = (np.cumsum(mask) - 1).astype(index_dtype(n_cols))
        return CsrMatrix(indptr, renumbered[self.indices[kept]], self.data[kept], n_cols)


FeatureMatrix = CsrMatrix | DenseMatrix


def extract_matrix(
    views: list[InstanceView] | Iterable[list[InstanceView]],
    registry: FeatureRegistry,
    families=None,
    embedding_dim: int = 0,
) -> FeatureMatrix:
    """The views' features, one row each: a ``DenseMatrix`` if the rows and
    each Φ slice's column view meet ``dense_rule``, else a ``CsrMatrix``.

    ``views`` is a list of views, or an iterable of such lists (chunks)
    whose rows follow one another; either gives the same matrix, registry
    and dropped counts.  Row i holds view i's features in name order.
    Each distinct side object of a chunk is extracted once by the per-side
    extractors, whichever tags it appears under, and into one row of each
    ``_pair_values`` array per tag.  Only the difference blocks are
    computed per row, from those arrays.  Each name is formatted once, when
    its payload is new to its family and scope.  Before the gather, an
    open registry registers the names that occur and that it lacks, in
    order of first occurrence (row by row, name order within a row); a
    frozen one drops each occurrence of an unknown name and counts it in
    ``dropped_in`` of each slice that holds its block's scope.  Either way
    every kept entry then has a column, and the gather writes the matrix.

    A chunk's sides are extracted when the chunk arrives and are not kept:
    only their pool of entries, the rows' side numbers and the
    ``_pair_values`` arrays outlive it.  Sides are told apart by object
    identity within a chunk only, as a side freed with its chunk may leave
    its id to a new one; a side repeated across chunks is extracted once
    per chunk.  Everything per row (row lengths, difference blocks, the
    gather) is made in ``row_blocks``, and the result is written into its
    final arrays: the dense array, each entry at its cell, or the CSR
    arrays, the indices at ``index_dtype`` of the registry's width.  Each
    slice's entries are counted from the pool's segment lengths and the
    difference blocks before the gather, so the form is picked before
    either is written.  An extraction without rows is a ``CsrMatrix``.
    """
    chunks = iter([views] if isinstance(views, list) else views)
    chunk = next((c for c in chunks if c), [])
    if families is None:
        families = default_families(chunk[0].layers) if chunk else ()
    blocks = list(_blocks_in_order(families))

    # Per tag, the pool holds each side's named blocks once, as segments
    # side by side, converted so that one side's payload dicts are alive at
    # a time; the numeric blocks follow, block by block, made from the
    # ``_pair_values`` arrays.  Segment 0 is empty.  Row i's segment of such
    # a block b is base[b] + stride[b] * ids[tag][i], or 0 if the row lacks
    # the tag's side; ids[tag][i] numbers the side among the tag's sides,
    # chunk after chunk.  A diff block's segments are per row: they are made
    # for each row block, into the pool's tail.  An entry holds its
    # payload's number in ``payloads`` of the block's (family, scope), which
    # the src, tgt and diff blocks share; a numeric block's payload number
    # is its column.
    payloads: dict[tuple[str, str], dict[str, int]] = {
        (family, scope): {
            p: k for k, p in enumerate(_pair_payloads(family, embedding_dim))
        } if family in _PAIRED else {}
        for family, scope, _ in blocks
    }
    named_blocks = {
        tag: [
            b for b, (family, _, btag) in enumerate(blocks)
            if btag == tag and family not in _PAIRED
        ]
        for tag in TAGS
    }
    numbering = {tag: [payloads[blocks[b][:2]] for b in named_blocks[tag]] for tag in TAGS}
    # Grown chunk by chunk, per tag: each row's side number (-1 for none),
    # the pool's payload numbers, values and segment lengths, and each
    # numeric block's ``_pair_values`` rows.  ``array`` buffers grow in
    # place, so that the chunks leave no trail of small freed arrays, whose
    # heap would lie fragmented under the arrays made once every chunk is
    # in (the pieces' columns and values, then the dense or CSR arrays).
    ids = {tag: array("i") for tag in TAGS}
    pool = {tag: (array("q"), array("d"), array("q")) for tag in TAGS}
    side_rows = {
        (family, scope, tag): array("d") for family, scope, tag in blocks
        if family in _PAIRED and tag != "diff"
    }
    n_sides = dict.fromkeys(TAGS, 0)

    def take(chunk):
        """Number the chunk's sides after those of earlier chunks, and pool
        their named entries and their ``_pair_values`` rows."""
        for layers in {view.layers for view in chunk}:
            for family in families:
                if FAMILY_LAYER[family] not in layers:
                    raise MissingLayerError(FAMILY_LAYER[family])
        # sides[tag] holds each distinct side of the chunk under the tag
        # once, in order of first appearance
        sides, seen = {tag: [] for tag in TAGS}, {tag: {} for tag in TAGS}
        for view in chunk:
            for tag, sv in zip(TAGS, (view.source, view.target)):
                j = -1 if sv is None else seen[tag].setdefault(id(sv), n_sides[tag])
                if j == n_sides[tag]:
                    sides[tag].append(sv)
                    n_sides[tag] += 1
                ids[tag].append(j)
        extracted = {}  # id(side) -> its segments, kept from its src to its tgt pass
        for tag in TAGS:
            for sv in sides[tag]:
                segments = extracted.pop(id(sv), None)
                if segments is None:
                    by_block = _side_blocks(sv, families)
                    named = [by_block[blocks[b][:2]] for b in named_blocks[tag]]
                    segments = (
                        [
                            number.setdefault(p, len(number))
                            for number, block in zip(numbering[tag], named) for p in block
                        ],
                        [v for block in named for v in block.values()],
                        [len(block) for block in named],
                    )
                    if tag == "src" and id(sv) in seen["tgt"]:
                        extracted[id(sv)] = segments
                for kept, part in zip(pool[tag], segments):
                    kept.extend(part)
        for (family, scope, tag), rows in side_rows.items():
            rows.frombytes(_pair_values(family, scope, sides[tag], embedding_dim).tobytes())

    while chunk is not None:
        take(chunk)
        chunk = next(chunks, None)
    ids = {tag: np.frombuffer(ids[tag], np.intc) for tag in TAGS}
    n = len(ids["src"])
    paired = ids["tgt"] >= 0

    # pid: a name's place in ``names``, the blocks' names in block order;
    # colmap[pid] is the name's column, -1 while the registry lacks it.
    names = [
        f"{_FAMILY_PREFIX[family]}:{scope}:{tag}:{p}"
        for family, scope, tag in blocks for p in payloads[family, scope]
    ]
    offsets = np.cumsum([0] + [len(payloads[b[:2]]) for b in blocks])
    column = registry._index.get
    colmap = np.fromiter((column(name, -1) for name in names), np.intc, len(names))
    # A name's first occurrence: its first row (n if it never occurs), and
    # a place that orders it among that row's entries of its block: its
    # first entry's place in its pool piece, or its column in a diff block.
    first_row, place = np.full(len(names), n), np.arange(len(names))

    # The pool's pieces, in pool order: per tag its named entries, then the
    # numeric blocks' nonzeros, each piece as its entries' pids (``int32``,
    # held until the registration) and values and its segments' lengths.  A
    # frozen registry's unknown names are dropped here, each use counted;
    # for an open registry, a name's first entry in its piece is its first
    # occurrence, as a piece holds its tag's sides in order of first row.
    base, stride = np.zeros(len(blocks), np.intc), np.zeros(len(blocks), np.intc)
    pieces, seg_lens, unseen = [], [np.zeros(1, np.intc)], [np.zeros(1, np.intp)]
    n_segments = 1

    def add_piece(tag, pids, values, lens):
        if registry.frozen:
            known = colmap[pids] >= 0
            unseen.append(np.bincount(
                np.repeat(np.arange(len(lens)), lens)[~known], minlength=len(lens)
            ))
            pids, values = pids[known], values[known]
        elif len(pids):
            first = np.full(len(names), len(pids))
            np.minimum.at(first, pids, np.arange(len(pids)))
            found = np.flatnonzero(first < len(pids))
            first = first[found]
            side_ends = np.cumsum(lens.reshape(n_sides[tag], -1).sum(axis=1))
            # side k's first row: where the rows' running maximum side number reaches k
            side_first = np.flatnonzero(np.diff(np.maximum.accumulate(ids[tag]), prepend=-1))
            first_row[found] = side_first[np.searchsorted(side_ends, first, "right")]
            place[found] = first
        pieces.append((pids.astype(np.intc), values))
        seg_lens.append(lens)

    for tag in TAGS:
        tag_blocks = named_blocks[tag]
        base[tag_blocks] = n_segments + np.arange(len(tag_blocks))
        stride[tag_blocks] = len(tag_blocks)
        n_segments += len(tag_blocks) * n_sides[tag]
        numbers, values, lens = (
            np.frombuffer(kept, dtype)
            for kept, dtype in zip(pool.pop(tag), (np.int64, float, np.int64))
        )
        add_piece(tag, numbers + np.repeat(np.tile(offsets[tag_blocks], n_sides[tag]), lens),
                  values, lens)
        del numbers, values, lens
    side_values, diff_blocks = {}, []
    for b, (family, scope, tag) in enumerate(blocks):
        if family not in _PAIRED:
            continue
        if tag == "diff":
            diff_blocks.append(b)
            continue
        values = side_values[family, scope, tag] = np.frombuffer(
            side_rows.pop((family, scope, tag))
        ).reshape(n_sides[tag], len(payloads[family, scope]))
        base[b], stride[b] = n_segments, 1
        n_segments += len(values)
        rows, ks = np.nonzero(values)
        add_piece(tag, offsets[b] + ks, values[rows, ks], np.count_nonzero(values, axis=1))
    seg_lens = np.concatenate(seg_lens, dtype=np.intc)
    block_tag = np.array([tag == "tgt" for _, _, tag in blocks])

    def per_side(seg_values, tag, model_type=FA):
        """Per side under the tag, the sum of ``seg_values`` over its segments in a Φ slice."""
        total = np.zeros(n_sides[tag], seg_values.dtype)
        for b, (_, scope, btag) in enumerate(blocks):
            if btag == tag and model_type in (FA, SCOPE_TYPE[scope]):
                total += seg_values[base[b] + stride[b] * np.arange(n_sides[tag])]
        return total

    uses = {tag: np.bincount(ids[tag][ids[tag] >= 0], minlength=n_sides[tag]) for tag in TAGS}

    def per_slice(seg_values):
        """Per Φ slice, the sum of ``seg_values`` over every row's side segments."""
        return {
            model_type: sum(int(per_side(seg_values, tag, model_type) @ uses[tag]) for tag in TAGS)
            for model_type in MODEL_TYPES
        }

    if registry.frozen:
        unseen = np.concatenate(unseen)
        for model_type, dropped in per_slice(unseen).items():
            registry.dropped_in[model_type] += dropped
        seg_lens -= unseen
    del unseen
    stored = per_slice(seg_lens)  # entries per Φ slice, the differences to come

    def diff_values(b, lo, hi):
        """The rows of lo:hi with a target, and their block-b differences."""
        family, scope, _ = blocks[b]
        p = np.flatnonzero(paired[lo:hi])
        return p, (side_values[family, scope, "src"][ids["src"][lo + p]]
                   - side_values[family, scope, "tgt"][ids["tgt"][lo + p]])

    # Row lengths: the side segments', then the diff blocks' (a frozen
    # registry's unknown differences are dropped and counted here, each
    # diff column's first nonzero row is recorded, and the kept differences
    # are added to their slices' entries).
    row_len = per_side(seg_lens, "src")[ids["src"]]
    row_len[paired] += per_side(seg_lens, "tgt")[ids["tgt"][paired]]
    diff_len = np.zeros(n, np.intp)
    if diff_blocks:
        for lo, hi in row_blocks(n, max(np.diff(offsets)[diff_blocks])):
            for b in diff_blocks:
                p, values = diff_values(b, lo, hi)
                nonzero = values != 0.0
                if registry.frozen:
                    unknown = colmap[offsets[b]:offsets[b + 1]] < 0
                    dropped = int(np.count_nonzero(nonzero[:, unknown]))
                    for slice_type in {FA, SCOPE_TYPE[blocks[b][1]]}:
                        registry.dropped_in[slice_type] += dropped
                    nonzero[:, unknown] = False
                else:
                    seen = first_row[offsets[b]:offsets[b + 1]]
                    first = np.where(nonzero, lo + p[:, None], n).min(axis=0, initial=n)
                    np.minimum(seen, first, out=seen)
                counts = np.count_nonzero(nonzero, axis=1)
                diff_len[lo + p] += counts
                for slice_type in {FA, SCOPE_TYPE[blocks[b][1]]}:
                    stored[slice_type] += int(counts.sum())

    # An open registry registers the names that occur and that it lacks, in
    # order of first occurrence (row, block, place); then every kept entry
    # has a column.
    if not registry.frozen:
        new = np.flatnonzero((first_row < n) & (colmap < 0))
        block = np.searchsorted(offsets, new, "right") - 1
        for pid in new[np.lexsort((place[new], block, first_row[new]))].tolist():
            colmap[pid] = registry.index(names[pid])
    width = len(registry)
    spans = row_blocks(n, max(width, len(blocks)))
    room = max((int(diff_len[lo:hi].sum()) for lo, hi in spans), default=0)
    row_len += diff_len
    del diff_len
    indptr = np.zeros(n + 1, np.intp)
    np.cumsum(row_len, out=indptr[1:])
    del row_len
    # Dense when every Φ slice's column view meets the rule: then every
    # model's solver rows and prediction would densify it anyway.  An
    # extraction without rows stays sparse.
    dense = n > 0 and all(
        dense_rule(n, int(np.count_nonzero(registry.columns_of(model_type))), stored[model_type])
        for model_type in MODEL_TYPES
    )

    # The pool holds the pieces' columns and values side by side, then one
    # block of rows' diff segments at a time in its tail.
    tail = sum(len(pids) for pids, _ in pieces)
    pool_vals = np.empty(tail + room)
    pool_cols = np.empty(tail + room, index_dtype(width))
    at = 0
    for pids, values in pieces:
        pool_cols[at:at + len(pids)] = colmap[pids]
        pool_vals[at:at + len(pids)] = values
        at += len(pids)
    del pieces, pids, values
    seg_starts = np.cumsum(seg_lens, dtype=np.intc if tail + room < 2**31 else np.intp)
    seg_starts -= seg_lens
    if dense:
        out = np.zeros((n, width + 1))
        out[:, width] = 1.0
        cells = out.reshape(-1)  # a view: row i's cell j is i * (width + 1) + j
    else:
        indices = np.empty(indptr[-1], pool_cols.dtype)
        data = np.empty(indptr[-1])

    def gather(lo, hi):
        """Write rows lo:hi: each row's slots in block order, a slot's
        entries those of its segment."""
        seg = np.where(block_tag, ids["tgt"][lo:hi, None], ids["src"][lo:hi, None])
        missing = seg < 0
        seg *= stride
        seg += base
        seg[missing] = 0  # and a diff block's slot is segment 0 too
        lens, starts = seg_lens[seg], seg_starts[seg]
        del seg, missing
        end = tail
        for b in diff_blocks:
            p, values = diff_values(b, lo, hi)
            # names without a column, a frozen registry's unknown ones, are dropped
            values[:, colmap[offsets[b]:offsets[b + 1]] < 0] = 0.0
            rows, ks = np.nonzero(values)
            pool_vals[end:end + len(ks)] = values[rows, ks]
            pool_cols[end:end + len(ks)] = colmap[offsets[b] + ks]
            counts = np.bincount(rows, minlength=len(p))
            lens[p, b] = counts
            starts[p, b] = end + np.cumsum(counts) - counts
            end += len(ks)
        kept = lens > 0
        lens, starts = lens[kept], starts[kept]
        del kept
        pos = _runs(starts, lens)
        del lens, starts
        # positions lie in the pool by construction, so take need not check
        # them (and so need not buffer its output)
        if not dense:
            pool_vals.take(pos, out=data[indptr[lo]:indptr[hi]], mode="clip")
            pool_cols.take(pos, out=indices[indptr[lo]:indptr[hi]], mode="clip")
            return
        # each entry's cell: its row's first cell plus its column
        cell = np.repeat(np.arange(lo, hi) * (width + 1), np.diff(indptr[lo:hi + 1]))
        cell += pool_cols.take(pos, mode="clip")
        cells.put(cell, pool_vals.take(pos, mode="clip"))

    for lo, hi in spans:
        gather(lo, hi)
    del pool_vals, pool_cols
    if dense:
        return DenseMatrix(_read_only(out))
    return CsrMatrix(indptr, indices, data, width)


def _runs(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The positions ``starts[j], ..., starts[j] + lens[j] - 1`` of every run j,
    in order, for runs of length >= 1.  Built in place as the running sum of
    steps: 1 within a run, the jump to its start at a run's first position.
    ``lens`` is overwritten."""
    pos = np.ones(int(lens.sum()), np.intp)
    if len(pos):
        pos[0] = starts[0]
        jumps = np.diff(starts)
        jumps -= lens[:-1]
        jumps += 1
        ends = np.cumsum(lens, out=lens)
        pos[ends[:-1]] = jumps
        np.cumsum(pos, out=pos)
    return pos


def count_punct(tokens) -> int:
    return sum(1 for t in tokens if all(c in string.punctuation for c in t))
