"""Feature extraction under the content / context / full-access split.

Every feature name is namespaced ``family:scope:side:payload`` where scope is
one of ``eau`` (content-based), ``ctx`` (content-ignorant) or ``both``
(full-access only), so a feature's type is recoverable from its name alone.
The registry maps names to indices and freezes after the training pass.

Feature vectors are plain ``dict[int, float]`` with no explicit zeros.
"""

from __future__ import annotations

import hashlib
import string
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .corpus import RelationInstance
from .errors import ArgdissectError, MissingLayerError

CB = "CB"
CI = "CI"
FA = "FA"
MODEL_TYPES = (CB, CI, FA)

SCOPE_TYPE = {"eau": CB, "ctx": CI, "both": FA}

FAMILIES = ("lexical", "syntactic", "structural", "discourse", "embedding", "sentiment")

# The annotation layer each family reads; every corpus has tokens.
FAMILY_LAYER = {
    "lexical": "tokens",
    "syntactic": "trees",
    "structural": "tokens",
    "discourse": "discourse",
    "embedding": "embeddings",
    "sentiment": "sentiment",
}

_FAMILY_PREFIX = {
    "lexical": "lex",
    "syntactic": "syn",
    "structural": "struct",
    "discourse": "disc",
    "embedding": "emb",
    "sentiment": "sent",
}
_PREFIX_FAMILY = {v: k for k, v in _FAMILY_PREFIX.items()}

SparseVector = dict[int, float]


def feature_type(name: str) -> str:
    """The Φ type of a feature, recovered from its namespaced name."""
    scope = name.split(":", 2)[1]
    return SCOPE_TYPE[scope]


def feature_family(name: str) -> str:
    return _PREFIX_FAMILY[name.split(":", 1)[0]]


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

    def type_of(self, idx: int) -> str:
        return feature_type(self._names[idx])

    def family_of(self, idx: int) -> str:
        return feature_family(self._names[idx])

    def freeze(self) -> None:
        self.frozen = True

    @property
    def registry_id(self) -> str:
        digest = hashlib.sha256("\n".join(self._names).encode("utf-8")).hexdigest()
        return digest[:16]

    def indices_of_type(self, ftype: str) -> list[int]:
        return [i for i, n in enumerate(self._names) if feature_type(n) == ftype]


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

    def side(self, which: str) -> SideView:
        if which == "source":
            return self.source
        if which == "target":
            if self.target is None:
                raise ArgdissectError("instance has no target side")
            return self.target
        raise ValueError(f"unknown side: {which}")


_SIDE_TAG = {"source": "src", "target": "tgt"}


def _require(view: InstanceView, family: str) -> None:
    if FAMILY_LAYER[family] not in view.layers:
        raise MissingLayerError(FAMILY_LAYER[family])


# --------------------------------------------------------------------------
# Family extractors: each returns (cb, ci, fa) dicts keyed by feature name.


def extract_lexical(view: InstanceView, side: str):
    """Binary unigram indicators over EAU tokens, context tokens, and both bags."""
    sv = view.side(side)
    tag = _SIDE_TAG[side]
    eau_bag = {t.lower() for t in sv.content.tokens}
    ctx_bag = {t.lower() for t in sv.context.tokens}
    cb = {f"lex:eau:{tag}:{w}": 1.0 for w in sorted(eau_bag)}
    ci = {f"lex:ctx:{tag}:{w}": 1.0 for w in sorted(ctx_bag)}
    fa = {f"lex:both:{tag}:{w}": 1.0 for w in sorted(eau_bag & ctx_bag)}
    return cb, ci, fa


def extract_syntactic(view: InstanceView, side: str):
    """Binary production-rule indicators from the cut tree fragments."""
    _require(view, "syntactic")
    sv = view.side(side)
    tag = _SIDE_TAG[side]
    cb = {f"syn:eau:{tag}:{r}": 1.0 for r in sorted(set(sv.content.rules))}
    ci = {f"syn:ctx:{tag}:{r}": 1.0 for r in sorted(set(sv.context.rules))}
    fa = {f"syn:both:{tag}:{r}": 1.0 for r in sorted(set(sv.context.crossing_rules))}
    return cb, ci, fa


def extract_structural(view: InstanceView, side: str):
    """Shallow position and count statistics.

    Statistics that need both the EAU and its surroundings (sentence length,
    EAU/sentence ratio) are full-access only; the content side keeps only
    what the span alone provides.
    """
    sv = view.side(side)
    tag = _SIDE_TAG[side]
    content, ctx = sv.content, sv.context
    cb = {}
    if content.token_count:
        cb[f"struct:eau:{tag}:token_count"] = float(content.token_count)
    if content.punct_count:
        cb[f"struct:eau:{tag}:punct_count"] = float(content.punct_count)
    ci = {}
    for key, value in (
        ("preceding_tokens", ctx.preceding_count),
        ("following_tokens", ctx.following_count),
        ("unit_index", ctx.unit_index),
        ("is_first", int(ctx.is_first)),
        ("is_last", int(ctx.is_last)),
        ("paragraph_index", ctx.paragraph_index),
    ):
        if value:
            ci[f"struct:ctx:{tag}:{key}"] = float(value)
    fa = {}
    sentence_tokens = content.token_count + ctx.preceding_count + ctx.following_count
    if sentence_tokens:
        fa[f"struct:both:{tag}:sentence_tokens"] = float(sentence_tokens)
        fa[f"struct:both:{tag}:eau_sentence_ratio"] = (
            content.token_count / sentence_tokens
        )
    return cb, ci, fa


def extract_discourse(view: InstanceView, side: str):
    """Binary (kind, sense) indicators, split by where the relation lies."""
    _require(view, "discourse")
    sv = view.side(side)
    tag = _SIDE_TAG[side]
    cb = {f"disc:eau:{tag}:{k}:{s}": 1.0 for k, s in sorted(set(sv.content.discourse))}
    ci = {f"disc:ctx:{tag}:{k}:{s}": 1.0 for k, s in sorted(set(sv.context.discourse))}
    fa = {
        f"disc:both:{tag}:{k}:{s}": 1.0
        for k, s in sorted(set(sv.context.crossing_discourse))
    }
    return cb, ci, fa


def _dense_block(prefix: str, vec: Optional[np.ndarray], dim: int) -> dict[str, float]:
    out = {}
    if vec is None:
        return out
    for k in range(dim):
        v = float(vec[k])
        if v != 0.0:
            out[f"{prefix}:{k:03d}"] = v
    return out


def extract_embedding(view: InstanceView, dim: int):
    """Summed word vectors per side and scope, plus source-target differences."""
    _require(view, "embedding")
    cb: dict[str, float] = {}
    ci: dict[str, float] = {}
    fa: dict[str, float] = {}

    sides = [("src", view.source)]
    if view.target is not None:
        sides.append(("tgt", view.target))
    for tag, sv in sides:
        cb.update(_dense_block(f"emb:eau:{tag}", sv.content.embedding, dim))
        ci.update(_dense_block(f"emb:ctx:{tag}", sv.context.embedding, dim))

    if view.target is not None:
        zero = np.zeros(dim)
        src_c = view.source.content.embedding
        tgt_c = view.target.content.embedding
        diff_c = (src_c if src_c is not None else zero) - (
            tgt_c if tgt_c is not None else zero
        )
        cb.update(_dense_block("emb:eau:diff", diff_c, dim))
        src_x = view.source.context.embedding
        tgt_x = view.target.context.embedding
        diff_x = (src_x if src_x is not None else zero) - (
            tgt_x if tgt_x is not None else zero
        )
        ci.update(_dense_block("emb:ctx:diff", diff_x, dim))
    return cb, ci, fa


def _one_hot(prefix: str, score: Optional[int]) -> dict[str, float]:
    if score is None:
        return {}
    return {f"{prefix}:{score}": 1.0}


def _one_hot_diff(prefix: str, a: Optional[int], b: Optional[int]) -> dict[str, float]:
    out: dict[str, float] = {}
    for k in range(1, 6):
        v = (1.0 if a == k else 0.0) - (1.0 if b == k else 0.0)
        if v != 0.0:
            out[f"{prefix}:{k}"] = v
    return out


def extract_sentiment(view: InstanceView):
    """One-hot sentiment of the selected nodes per scope, plus difference blocks."""
    _require(view, "sentiment")
    cb: dict[str, float] = {}
    ci: dict[str, float] = {}
    fa: dict[str, float] = {}

    sides = [("src", view.source)]
    if view.target is not None:
        sides.append(("tgt", view.target))
    for tag, sv in sides:
        cb.update(_one_hot(f"sent:eau:{tag}", sv.content.sentiment))
        ci.update(_one_hot(f"sent:ctx:{tag}", sv.context.sentiment_ci))
        fa.update(_one_hot(f"sent:both:{tag}", sv.context.sentiment_fa))

    if view.target is not None:
        src, tgt = view.source, view.target
        cb.update(
            _one_hot_diff("sent:eau:diff", src.content.sentiment, tgt.content.sentiment)
        )
        ci.update(
            _one_hot_diff(
                "sent:ctx:diff", src.context.sentiment_ci, tgt.context.sentiment_ci
            )
        )
        fa.update(
            _one_hot_diff(
                "sent:both:diff", src.context.sentiment_fa, tgt.context.sentiment_fa
            )
        )
    return cb, ci, fa


# --------------------------------------------------------------------------
# Assembly


def default_families(view: InstanceView) -> tuple[str, ...]:
    """Every family whose annotation layer the view has."""
    return tuple(f for f in FAMILIES if FAMILY_LAYER[f] in view.layers)


def extract_all(
    view: InstanceView, families=None, embedding_dim: int = 0
) -> dict[str, float]:
    """Named features of every requested family, all scopes together."""
    if families is None:
        families = default_families(view)
    sides = ["source"] if view.target is None else ["source", "target"]
    named: dict[str, float] = {}
    for family in families:
        if family == "embedding":
            parts = [extract_embedding(view, embedding_dim)]
        elif family == "sentiment":
            parts = [extract_sentiment(view)]
        else:
            fn = {
                "lexical": extract_lexical,
                "syntactic": extract_syntactic,
                "structural": extract_structural,
                "discourse": extract_discourse,
            }[family]
            parts = [fn(view, side) for side in sides]
        for cb, ci, fa in parts:
            named.update(cb)
            named.update(ci)
            named.update(fa)
    return named


def assemble(
    view: InstanceView,
    model_type: str,
    registry: FeatureRegistry,
    families=None,
    embedding_dim: int = 0,
) -> SparseVector:
    """Sparse vector of the instance restricted to the model type's Φ slice."""
    if model_type not in MODEL_TYPES:
        raise ValueError(f"unknown model type: {model_type}")
    named = extract_all(view, families=families, embedding_dim=embedding_dim)
    out: SparseVector = {}
    for name, value in named.items():
        if model_type != FA and feature_type(name) != model_type:
            continue
        idx = registry.index(name)
        if idx is not None:
            out[idx] = value
    return out


# --------------------------------------------------------------------------
# Feature-matrix dump (plain text, for external tooling)


def dump_matrix(path, registry: FeatureRegistry, vectors, labels) -> None:
    """Write ``index\\tname\\ttype\\tfamily`` header lines, then sparse rows."""
    with open(path, "w", encoding="utf-8") as fh:
        for idx in range(len(registry)):
            name = registry.name(idx)
            fh.write(
                f"{idx}\t{name}\t{registry.type_of(idx)}\t{registry.family_of(idx)}\n"
            )
        for label, vec in zip(labels, vectors):
            cells = " ".join(f"{i}:{vec[i]:g}" for i in sorted(vec))
            fh.write(f"{label} {cells}\n".rstrip() + "\n")


def count_punct(tokens) -> int:
    return sum(1 for t in tokens if all(c in string.punctuation for c in t))
