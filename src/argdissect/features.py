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

``extract_matrix`` extracts a batch of views into one ``CsrMatrix`` over the
registry, extracting each side shared by several views once, and formats
each feature name once per distinct payload; the CB and CI slices of an FA
matrix are its column views (``FeatureRegistry.columns_of``).  Other modules
take feature matrices only in this form.  The extraction's gather and every
densifying work in ``row_blocks`` whose temporaries take at most
``ROW_BLOCK_BYTES``; ``CsrMatrix.dense_rows`` densifies one block.  ``learn``
decides when the solver's rows and prediction densify, and the ANOVA scores
read dense row blocks only, never a dense copy of the matrix.
A single view's features are also available as a name dict (``extract_all``)
and as a ``dict[int, float]`` vector (``assemble``); both are one-row
``extract_matrix`` calls.
"""

from __future__ import annotations

import hashlib
import string
from dataclasses import dataclass
from itertools import compress
from typing import Optional

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
        self.dropped_unseen = 0

    def __len__(self) -> int:
        return len(self._names)

    def index(self, name: str) -> int | None:
        """Index of ``name``; registers it unless frozen, else returns None."""
        idx = self._index.get(name)
        if idx is not None:
            return idx
        if self.frozen:
            self.dropped_unseen += 1
            return None
        idx = len(self._names)
        self._index[name] = idx
        self._names.append(name)
        return idx

    def name(self, idx: int) -> str:
        return self._names[idx]

    def freeze(self) -> None:
        self.frozen = True

    @property
    def registry_id(self) -> str:
        digest = hashlib.sha256("\n".join(self._names).encode("utf-8")).hexdigest()
        return digest[:16]

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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class SideView:
    eau_id: str
    content: ContentLayers
    context: ContextLayers


@dataclass(frozen=True)
class InstanceView:
    instance: RelationInstance
    source: SideView
    target: Optional[SideView] = None
    layers: frozenset[str] = frozenset({"tokens"})

    @property
    def sides(self) -> tuple[tuple[str, SideView], ...]:
        """``(tag, side)`` pairs in name order: ``src``, then ``tgt`` if any."""
        if self.target is None:
            return (("src", self.source),)
        return (("src", self.source), ("tgt", self.target))


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
    """Per side, the family's values in the scope; zeros for a missing value."""
    value_of = _PAIRED[family][scope]
    if family == "embedding":
        out = np.zeros((len(sides), embedding_dim))
        for row, sv in zip(out, sides):
            vec = value_of(sv)
            if vec is not None:
                row[:] = vec[:embedding_dim]
        return out
    out = np.zeros((len(sides), len(SENTIMENT_SCORES)))
    for row, sv in zip(out, sides):
        score = value_of(sv)
        if score in SENTIMENT_SCORES:
            row[SENTIMENT_SCORES.index(score)] = 1.0
    return out


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
    """Named features of every requested family, all scopes together."""
    registry = FeatureRegistry()
    X = extract_matrix([view], registry, families, embedding_dim)
    return {registry.name(c): v for c, v in zip(X.indices.tolist(), X.data.tolist())}


def assemble(
    view: InstanceView,
    model_type: str,
    registry: FeatureRegistry,
    families=None,
    embedding_dim: int = 0,
) -> dict[int, float]:
    """The view's row of ``extract_matrix`` in the model type's Φ slice, as a dict."""
    X = extract_matrix([view], registry, families, embedding_dim, model_type)
    return dict(zip(X.indices.tolist(), X.data.tolist()))


# --------------------------------------------------------------------------
# Feature matrices

# Bounds the temporaries of one row block of a pass over a feature matrix:
# a block's rows, at the matrix's width, take at most this many bytes as a
# dense float array, and its stored entries at most this many as int or
# float arrays.  On the 178 columns of a 1000-document task-g training set a
# block holds 736 of its 24,000 rows.
ROW_BLOCK_BYTES = 1 << 20


def row_blocks(n_rows: int, width: int) -> list[tuple[int, int]]:
    """(lo, hi) bounds of consecutive blocks of ``n_rows`` rows, each holding at
    most ``ROW_BLOCK_BYTES`` as a dense (rows, width) float array."""
    rows = max(1, ROW_BLOCK_BYTES // (8 * max(width, 1)))
    return [(lo, min(lo + rows, n_rows)) for lo in range(0, n_rows, rows)]


@dataclass(frozen=True)
class CsrMatrix:
    """Compressed sparse rows: row i holds the columns
    ``indices[indptr[i]:indptr[i + 1]]`` and the values at the same
    positions of ``data``."""

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

    def columns(self, mask: np.ndarray) -> CsrMatrix:
        """The masked columns, renumbered in order; entry order is kept."""
        renumbered = np.where(mask, np.cumsum(mask) - 1, -1)[self.indices]
        kept = renumbered >= 0
        kept_before = np.zeros(len(kept) + 1, self.indptr.dtype)  # entry e: kept among 0..e-1
        np.cumsum(kept, out=kept_before[1:])
        indptr = kept_before[self.indptr]
        return CsrMatrix(indptr, renumbered[kept], self.data[kept], int(np.count_nonzero(mask)))


def extract_matrix(
    views: list[InstanceView],
    registry: FeatureRegistry,
    families=None,
    embedding_dim: int = 0,
    model_type: str = FA,
) -> CsrMatrix:
    """The views' features in the model type's Φ slice, one row each.

    Row i holds view i's features whose ``feature_type`` is the model type
    (all of them for FA), in name order.  Each distinct side object is
    extracted once by the per-side extractors, whichever tags it appears
    under, and into one row of each ``_pair_values`` array per tag.  Only the
    difference blocks are computed per row, from those arrays.  Each name is
    formatted once, when its payload is new to its family and scope.  An
    open registry registers new names where they first occur, row by row,
    in name order within a row; a frozen one counts each occurrence of an
    unknown name in ``dropped_unseen``.
    """
    if model_type not in MODEL_TYPES:
        raise ValueError(f"unknown model type: {model_type}")
    if families is None:
        families = default_families(views[0].layers) if views else ()
    for layers in {view.layers for view in views}:
        for family in families:
            if FAMILY_LAYER[family] not in layers:
                raise MissingLayerError(FAMILY_LAYER[family])
    blocks = [
        b for b in _blocks_in_order(families)
        if model_type == FA or SCOPE_TYPE[b[1]] == model_type
    ]
    n = len(views)
    # sides[tag] holds each distinct side under the tag once, in order of
    # first appearance; ids[tag][i] is row i's side, or -1
    sides, seen = {tag: [] for tag in TAGS}, {tag: {} for tag in TAGS}
    ids = {tag: np.full(n, -1, np.intp) for tag in TAGS}
    for i, view in enumerate(views):
        for tag, sv in view.sides:
            ids[tag][i] = j = seen[tag].setdefault(id(sv), len(sides[tag]))
            if j == len(sides[tag]):
                sides[tag].append(sv)
    paired = ids["tgt"] >= 0

    # The pool holds each side's named blocks once per tag, as segments
    # (tag, side, block), converted side by side so that one side's payload
    # dicts are alive at a time; then the numeric blocks block by block: one
    # segment per side for a src or tgt block, one per row for a diff block.
    # Segment 0 is empty.  seg_of[i, b] is the segment of row i's block b,
    # and seg_block[s] the block of segment s.  An entry holds its payload's
    # number in ``payloads`` of the block's (family, scope), which the src,
    # tgt and diff blocks share; a numeric block's payload number is its
    # column.
    payloads: dict[tuple[str, str], dict[str, int]] = {
        (family, scope): {
            p: k for k, p in enumerate(_pair_payloads(family, embedding_dim))
        } if family in _PAIRED else {}
        for family, scope, _ in blocks
    }
    pool_ids, pool_vals, seg_lens, seg_block = [np.empty(0, np.intp)], [np.empty(0)], [0], [0]
    seg_of = np.zeros((n, len(blocks)), np.intp)
    extracted = {}  # id(side) -> its segments, kept from its src to its tgt pass
    for tag in TAGS:
        tag_blocks = [
            b for b, (family, _, btag) in enumerate(blocks)
            if btag == tag and family not in _PAIRED
        ]
        numbering = [payloads[blocks[b][:2]] for b in tag_blocks]
        seg = ids[tag][:, None]
        seg_of[:, tag_blocks] = np.where(
            seg >= 0, len(seg_lens) + seg * len(tag_blocks) + np.arange(len(tag_blocks)), 0
        )
        for sv in sides[tag]:
            segments = extracted.pop(id(sv), None)
            if segments is None:
                by_block = _side_blocks(sv, families)
                named = [by_block[blocks[b][:2]] for b in tag_blocks]
                segments = (
                    np.array([
                        number.setdefault(p, len(number))
                        for number, block in zip(numbering, named) for p in block
                    ], np.intp),
                    np.array([v for block in named for v in block.values()], float),
                    [len(block) for block in named],
                )
                if tag == "src" and id(sv) in seen["tgt"]:
                    extracted[id(sv)] = segments
            pool_ids.append(segments[0])
            pool_vals.append(segments[1])
            seg_lens.extend(segments[2])
            seg_block.extend(tag_blocks)
    # pid: a name's place in ``names``, the blocks' names in block order
    names = [
        f"{_FAMILY_PREFIX[family]}:{scope}:{tag}:{p}"
        for family, scope, tag in blocks for p in payloads[family, scope]
    ]
    offsets = np.cumsum([0] + [len(payloads[b[:2]]) for b in blocks])
    pool_pids = [np.concatenate(pool_ids) + np.repeat(offsets[seg_block], seg_lens)]
    del pool_ids, seg_block  # the per-side pieces would stay alive to the gather's peak
    side_values = {}
    for b, (family, scope, tag) in enumerate(blocks):
        if family not in _PAIRED:
            continue
        seg = np.arange(n) if tag == "diff" else ids[tag]
        seg_of[:, b] = np.where(seg >= 0, len(seg_lens) + seg, 0)
        if tag == "diff":  # the scope's src and tgt blocks come first
            src, tgt = side_values[family, scope, "src"], side_values[family, scope, "tgt"]
            values = np.zeros((n, src.shape[1]))
            values[paired] = src[ids["src"][paired]] - tgt[ids["tgt"][paired]]
        else:
            values = side_values[family, scope, tag] = _pair_values(
                family, scope, sides[tag], embedding_dim
            )
        rows, ks = np.nonzero(values)
        pool_pids.append(offsets[b] + ks)
        pool_vals.append(values[rows, ks])
        seg_lens.extend(np.count_nonzero(values, axis=1).tolist())
    pool_pids, pool_vals = np.concatenate(pool_pids), np.concatenate(pool_vals)
    seg_lens = np.array(seg_lens)

    if not registry.frozen:
        # A name is registered where it first occurs: rows in order, a row's
        # blocks in name order, a block's entries in segment order.  So a
        # segment ranks by its first position in seg_of, an entry's key is
        # its place in that order, and a name's first occurrence is the
        # least key among its entries.
        ranks = np.full(len(seg_lens), seg_of.size)
        np.minimum.at(ranks, seg_of.ravel(), np.arange(seg_of.size))
        seg_starts = np.cumsum(seg_lens) - seg_lens
        entry_keys = np.repeat(ranks * int(seg_lens.max()) - seg_starts, seg_lens)
        entry_keys += np.arange(len(entry_keys))
        del ranks, seg_starts
        never = np.iinfo(np.intp).max
        first = np.full(len(names), never)
        np.minimum.at(first, pool_pids, entry_keys)
        del entry_keys
        # names of columns that are zero in every row never occur
        for p in np.argsort(first)[:np.count_nonzero(first < never)].tolist():
            registry.index(names[p])
        del first

    column = registry._index.get
    cols = np.fromiter((column(name, -1) for name in names), np.intp, len(names))[pool_pids]
    del pool_pids
    # unseen[s]: the entries of segment s whose name the frozen registry lacks
    unknown = np.flatnonzero(cols < 0)
    unseen = np.bincount(
        np.searchsorted(np.cumsum(seg_lens), unknown, "right"), minlength=len(seg_lens)
    )
    uses = np.bincount(seg_of.ravel(), minlength=len(seg_lens))  # (row, block) slots per segment
    registry.dropped_unseen += int(unseen @ uses)
    if len(unknown):
        known = cols >= 0
        cols, pool_vals = cols[known], pool_vals[known]
        seg_lens -= unseen
    del unknown, unseen

    # gather: row i is its blocks' segments of the pool of known names, in
    # block order, written block of rows by block of rows
    seg_starts = np.cumsum(seg_lens) - seg_lens
    indptr = np.zeros(n + 1, np.intp)
    indices = np.empty(int(seg_lens @ uses), np.intp)
    data = np.empty(len(indices))
    # a row holds at most one entry per name and one segment per block
    for lo, hi in row_blocks(n, max(len(registry), len(blocks))):
        of = seg_of[lo:hi]
        indptr[lo + 1:hi + 1] = indptr[lo] + np.cumsum(seg_lens[of].sum(axis=1))
        a, b = indptr[lo], indptr[hi]
        # the block's entries, slot by slot: a slot's q-th is its segment's q-th
        lens = seg_lens[of.ravel()]
        pos = np.repeat(seg_starts[of.ravel()] - np.cumsum(lens) + lens, lens)
        pos += np.arange(b - a)
        np.take(cols, pos, out=indices[a:b])
        np.take(pool_vals, pos, out=data[a:b])
    return CsrMatrix(indptr, indices, data, len(registry))


def count_punct(tokens) -> int:
    return sum(1 for t in tokens if all(c in string.punctuation for c in t))
