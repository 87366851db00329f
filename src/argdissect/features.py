"""Feature extraction under the content / context / full-access split.

Every feature name is namespaced ``family:scope:side:payload`` where scope is
one of ``eau`` (content-based), ``ctx`` (content-ignorant) or ``both``
(full-access only), so a feature's type is recoverable from its name alone.
Each family extractor walks the view's sides and returns one dict of named
features; the name is the only place the type is kept.  The registry maps
names to indices and freezes after the training pass.

Feature vectors are plain ``dict[int, float]`` with no explicit zeros.
"""

from __future__ import annotations

import hashlib
import string
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .corpus import RelationInstance
from .errors import MissingLayerError

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

    @property
    def sides(self) -> tuple[tuple[str, SideView], ...]:
        """``(tag, side)`` pairs in name order: ``src``, then ``tgt`` if any."""
        if self.target is None:
            return (("src", self.source),)
        return (("src", self.source), ("tgt", self.target))


# --------------------------------------------------------------------------
# Family extractors: each returns one dict keyed by feature name, whose scope
# field (eau / ctx / both) carries the feature's type.


def extract_lexical(view: InstanceView) -> dict[str, float]:
    """Binary unigram indicators over EAU tokens, context tokens, and both bags."""
    out = {}
    for tag, sv in view.sides:
        eau_bag = {t.lower() for t in sv.content.tokens}
        ctx_bag = {t.lower() for t in sv.context.tokens}
        for w in sorted(eau_bag):
            out[f"lex:eau:{tag}:{w}"] = 1.0
        for w in sorted(ctx_bag):
            out[f"lex:ctx:{tag}:{w}"] = 1.0
        for w in sorted(eau_bag & ctx_bag):
            out[f"lex:both:{tag}:{w}"] = 1.0
    return out


def extract_syntactic(view: InstanceView) -> dict[str, float]:
    """Binary production-rule indicators from the cut tree fragments."""
    out = {}
    for tag, sv in view.sides:
        for r in sorted(set(sv.content.rules)):
            out[f"syn:eau:{tag}:{r}"] = 1.0
        for r in sorted(set(sv.context.rules)):
            out[f"syn:ctx:{tag}:{r}"] = 1.0
        for r in sorted(set(sv.context.crossing_rules)):
            out[f"syn:both:{tag}:{r}"] = 1.0
    return out


def extract_structural(view: InstanceView) -> dict[str, float]:
    """Shallow position and count statistics.

    Statistics that need both the EAU and its surroundings (sentence length,
    EAU/sentence ratio) are full-access only; the content side keeps only
    what the span alone provides.
    """
    out = {}
    for tag, sv in view.sides:
        content, ctx = sv.content, sv.context
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
                out[f"struct:{scope}:{tag}:{key}"] = float(value)
        sentence_tokens = content.token_count + ctx.preceding_count + ctx.following_count
        if sentence_tokens:
            out[f"struct:both:{tag}:sentence_tokens"] = float(sentence_tokens)
            out[f"struct:both:{tag}:eau_sentence_ratio"] = (
                content.token_count / sentence_tokens
            )
    return out


def extract_discourse(view: InstanceView) -> dict[str, float]:
    """Binary (kind, sense) indicators, split by where the relation lies."""
    out = {}
    for tag, sv in view.sides:
        for k, s in sorted(set(sv.content.discourse)):
            out[f"disc:eau:{tag}:{k}:{s}"] = 1.0
        for k, s in sorted(set(sv.context.discourse)):
            out[f"disc:ctx:{tag}:{k}:{s}"] = 1.0
        for k, s in sorted(set(sv.context.crossing_discourse)):
            out[f"disc:both:{tag}:{k}:{s}"] = 1.0
    return out


def extract_embedding(view: InstanceView, dim: int) -> dict[str, float]:
    """Summed word vectors per scope and side, plus the source-target difference."""
    out = {}
    for scope, vectors in (
        ("eau", [(tag, sv.content.embedding) for tag, sv in view.sides]),
        ("ctx", [(tag, sv.context.embedding) for tag, sv in view.sides]),
    ):
        if view.target is not None:
            zero = np.zeros(dim)
            (_, src), (_, tgt) = vectors
            vectors.append(
                ("diff", (zero if src is None else src) - (zero if tgt is None else tgt))
            )
        for tag, vec in vectors:
            if vec is None:
                continue
            for k in range(dim):
                v = float(vec[k])
                if v != 0.0:
                    out[f"emb:{scope}:{tag}:{k:03d}"] = v
    return out


def extract_sentiment(view: InstanceView) -> dict[str, float]:
    """One-hot sentiment of the selected nodes per scope and side, plus differences."""
    out = {}
    for scope, scores in (
        ("eau", [(tag, sv.content.sentiment) for tag, sv in view.sides]),
        ("ctx", [(tag, sv.context.sentiment_ci) for tag, sv in view.sides]),
        ("both", [(tag, sv.context.sentiment_fa) for tag, sv in view.sides]),
    ):
        for tag, score in scores:
            if score is not None:
                out[f"sent:{scope}:{tag}:{score}"] = 1.0
        if view.target is not None:
            (_, src), (_, tgt) = scores
            for k in range(1, 6):
                v = (src == k) - (tgt == k)
                if v:
                    out[f"sent:{scope}:diff:{k}"] = float(v)
    return out


_EXTRACTORS = {
    "lexical": extract_lexical,
    "syntactic": extract_syntactic,
    "structural": extract_structural,
    "discourse": extract_discourse,
    "sentiment": extract_sentiment,
}


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
    named: dict[str, float] = {}
    for family in families:
        if FAMILY_LAYER[family] not in view.layers:
            raise MissingLayerError(FAMILY_LAYER[family])
        if family == "embedding":
            named.update(extract_embedding(view, embedding_dim))
        else:
            named.update(_EXTRACTORS[family](view))
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


def count_punct(tokens) -> int:
    return sum(1 for t in tokens if all(c in string.punctuation for c in t))
