"""Standoff corpus ingestion, task instance generation, and corpus transforms.

A document comes as a plain-text file plus a standoff annotation file:

    T<k>\\t<Kind> <start> <end>\\t<surface>      EAU span
    R<k>\\t<rel> Arg1:T<i> Arg2:T<j>             relation, rel in {supports, attacks}
    A<k>\\t<Stance> T<i> <value>                 stance attribute

Paragraphs are the maximal blocks of non-blank lines in the text file.  A
parsed document finds its EAUs by id and their paragraph positions once.
``format_standoff`` is the one writer of the format (transforms and ``synth``).
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

from .errors import DataError, IntegrityError, OffsetError, StandoffParseError
from .settings import check_choices, choice

SUPPORT = "support"
ATTACK = "attack"
NONE = "none"
LINKED = "linked"

TASKS = ("l", "h", "f", "g")

# Canonical class order per task; first class wins ties.
TASK_CLASSES = {
    "h": (SUPPORT, ATTACK),
    "f": (SUPPORT, ATTACK),
    "g": (SUPPORT, ATTACK, NONE),
    "l": (LINKED, NONE),
}

EAU_KINDS = ("MajorClaim", "Claim", "Premise")

_REL_MAP = {"supports": SUPPORT, "attacks": ATTACK}

MASK_TOKEN = "MASK"

# Where none-labeled pairs of tasks g/l are drawn from; see PairingConfig.
PAIRING_SCOPES = ("paragraph", "document")


@dataclass(frozen=True)
class Document:
    id: str
    text: str
    paragraph_spans: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class EauSpan:
    id: str
    doc_id: str
    start: int
    end: int
    kind: str
    stance: str | None = None


class RelationInstance(NamedTuple):
    """One classification instance; a named tuple, built by the ten thousand."""

    source: str
    target: str | None
    label: str
    task: str
    doc_id: str


@dataclass(frozen=True)
class CorpusSplit:
    train_doc_ids: frozenset[str]
    test_doc_ids: frozenset[str]


@dataclass(frozen=True)
class ParsedDoc:
    document: Document
    eaus: tuple[EauSpan, ...]  # in (start, end) order
    relations: tuple[tuple[str, str, str], ...]  # (source_id, target_id, label)

    @cached_property
    def _eaus_by_id(self) -> dict[str, EauSpan]:
        return {eau.id: eau for eau in self.eaus}

    @cached_property
    def _positions(self) -> dict[str, tuple[int, int, int]]:
        spans = self.document.paragraph_spans
        starts = [start for start, _ in spans]
        by_paragraph: dict[int, list[str]] = {}
        for eau in self.eaus:
            par = bisect_right(starts, eau.start) - 1
            if par >= 0 and eau.start < spans[par][1]:
                by_paragraph.setdefault(par, []).append(eau.id)
        return {eau_id: (par, index, len(ids))
                for par, ids in by_paragraph.items() for index, eau_id in enumerate(ids)}

    def eau_by_id(self, eau_id: str) -> EauSpan:
        return self._eaus_by_id[eau_id]

    def position(self, eau: EauSpan) -> tuple[int, int, int]:
        """(the paragraph holding the EAU's first character, the EAU's index among
        its EAUs, their count); an EAU outside every paragraph is an ``IntegrityError``."""
        if eau.id not in self._positions:
            raise IntegrityError(f"{self.document.id}: EAU {eau.id} not inside any paragraph")
        return self._positions[eau.id]


@dataclass
class Corpus:
    docs: dict[str, ParsedDoc] = field(default_factory=dict)

    def add(self, doc: ParsedDoc) -> None:
        self.docs[doc.document.id] = doc

    def __iter__(self):
        return iter(self.docs.values())

    def __len__(self) -> int:
        return len(self.docs)


@dataclass(frozen=True)
class PairingConfig:
    """How unannotated (none-labeled) EAU pairs are generated for tasks g/l."""

    scope: str = choice("paragraph", PAIRING_SCOPES)
    exclude_reverse: bool = False  # also drop (b, a) when (a, b) is annotated

    def __post_init__(self):
        check_choices(self)


def paragraph_spans(text: str) -> tuple[tuple[int, int], ...]:
    """Character spans of maximal blank-line-delimited blocks."""
    spans = []
    pos = 0
    start = None
    for line in text.splitlines(keepends=True):
        stripped = line.rstrip("\n")
        if stripped.strip():
            if start is None:
                start = pos
            end = pos + len(stripped)
        else:
            if start is not None:
                spans.append((start, end))
                start = None
        pos += len(line)
    if start is not None:
        spans.append((start, end))
    return tuple(spans)


_SPAN_RE = re.compile(r"^(T\S+)\t(\S+) (\d+) (\d+)\t(.*)$", re.DOTALL)
_REL_RE = re.compile(r"^(R\S+)\t(\S+) Arg1:(\S+) Arg2:(\S+)\s*$")
_ATTR_RE = re.compile(r"^(A\S+)\t(\S+) (\S+) (\S+)\s*$")


def parse_standoff(text: str, ann: str, doc_id: str = "doc") -> ParsedDoc:
    """Parse a (text, annotation) file pair into a document with EAUs and relations."""
    document = Document(id=doc_id, text=text, paragraph_spans=paragraph_spans(text))

    spans: dict[str, tuple[int, int, str]] = {}  # id -> (start, end, kind)
    relations: dict[tuple[str, str], str] = {}
    stances: dict[str, str] = {}
    ids: set[str] = set()

    for line_no, line in enumerate(ann.split("\n"), start=1):
        if not line.strip():
            continue
        ann_id = line.split("\t", 1)[0]
        if ann_id in ids:
            raise IntegrityError(f"{doc_id}: duplicate annotation id {ann_id}")
        ids.add(ann_id)
        tag = line[0]
        if tag == "T":
            m = _SPAN_RE.match(line)
            if not m:
                raise StandoffParseError(f"malformed span line: {line!r}", line_no)
            tid, kind, start, end, surface = m.groups()
            start, end = int(start), int(end)
            if kind not in EAU_KINDS:
                raise StandoffParseError(f"unknown EAU kind {kind!r}", line_no)
            if not (0 <= start < end <= len(text)):
                raise OffsetError(
                    f"{doc_id}: span {tid} [{start},{end}) outside document bounds"
                )
            if text[start:end] != surface:
                raise OffsetError(
                    f"{doc_id}: surface mismatch for {tid}: "
                    f"annotation {surface!r} vs text {text[start:end]!r}"
                )
            spans[tid] = (start, end, kind)
        elif tag == "R":
            m = _REL_RE.match(line)
            if not m:
                raise StandoffParseError(f"malformed relation line: {line!r}", line_no)
            _, rel, arg1, arg2 = m.groups()
            if rel not in _REL_MAP:
                raise StandoffParseError(f"unknown relation type {rel!r}", line_no)
            if (arg1, arg2) in relations:
                raise IntegrityError(f"{doc_id}: duplicate relation {arg1} -> {arg2}")
            relations[arg1, arg2] = _REL_MAP[rel]
        elif tag == "A":
            m = _ATTR_RE.match(line)
            if not m:
                raise StandoffParseError(f"malformed attribute line: {line!r}", line_no)
            _, _, target, value = m.groups()
            if target in stances:
                raise IntegrityError(f"{doc_id}: second stance for span {target}")
            stances[target] = value
        else:
            raise StandoffParseError(f"unknown line type: {line!r}", line_no)

    for pair in relations:
        for ref in pair:
            if ref not in spans:
                raise IntegrityError(f"{doc_id}: relation references unknown span {ref}")
    for ref in stances:
        if ref not in spans:
            raise IntegrityError(f"{doc_id}: stance references unknown span {ref}")

    eaus = sorted(
        (
            EauSpan(tid, doc_id, start, end, kind, stances.get(tid))
            for tid, (start, end, kind) in spans.items()
        ),
        key=lambda e: (e.start, e.end),
    )
    return ParsedDoc(
        document=document,
        eaus=tuple(eaus),
        relations=tuple((src, tgt, label) for (src, tgt), label in relations.items()),
    )


def _candidate_pairs(parsed: ParsedDoc, pairing: PairingConfig):
    """Ordered EAU id pairs in the configured scope, document order."""
    ids = [eau.id for eau in parsed.eaus]
    if pairing.scope == "document":
        scopes = [ids] * len(ids)
    else:
        # a paragraph's EAUs are a run of the start-ordered EAUs
        scopes = []
        for k, eau in enumerate(parsed.eaus):
            _, index, count = parsed.position(eau)
            scopes.append(ids[k - index : k - index + count])
    for a, scope in zip(ids, scopes):
        for b in scope:
            if a != b:
                yield a, b


def build_instances(
    corpus: Corpus, task: str, pairing: PairingConfig | None = None
) -> list[RelationInstance]:
    """Generate classification instances for one task formulation.

    h: one instance per EAU with an outgoing relation (label = relation class).
    f: one instance per annotated relation pair.
    g: f's instances plus none-labeled in-scope ordered pairs.
    l: g's instances with support/attack collapsed to linked.
    """
    if task not in TASKS:
        raise ValueError(f"unknown task: {task}")
    pairing = pairing or PairingConfig()
    instances: list[RelationInstance] = []

    for parsed in corpus:
        doc_id = parsed.document.id
        if task == "h":
            outgoing: dict[str, str] = {}
            for src, _, label in parsed.relations:
                if src in outgoing:
                    raise DataError(
                        f"{doc_id}: EAU {src} has multiple outgoing relations; "
                        "task h assumes one outgoing edge"
                    )
                outgoing[src] = label
            for eau in parsed.eaus:
                if eau.id in outgoing:
                    instances.append(
                        RelationInstance(eau.id, None, outgoing[eau.id], "h", doc_id)
                    )
            continue

        linked = {(src, tgt): label for src, tgt, label in parsed.relations}
        # each EAU's outgoing relations, in relation order
        outgoing: dict[str, list[tuple[str, str]]] = {}
        for (src, tgt), label in linked.items():
            outgoing.setdefault(src, []).append((tgt, label))
        for eau in parsed.eaus:
            for tgt, label in outgoing.get(eau.id, ()):
                out_label = LINKED if task == "l" else label
                instances.append(RelationInstance(eau.id, tgt, out_label, task, doc_id))
        if task == "f":
            continue

        # g and l add the none-labeled pairs
        excluded = set(linked)
        if pairing.exclude_reverse:
            excluded |= {(tgt, src) for src, tgt in linked}
        for src, tgt in _candidate_pairs(parsed, pairing):
            if (src, tgt) in excluded:
                continue
            instances.append(RelationInstance(src, tgt, NONE, task, doc_id))

    return instances


def _check_no_overlap(parsed: ParsedDoc) -> None:
    prev_end = -1
    prev_id = None
    for eau in parsed.eaus:
        if eau.start < prev_end:
            raise DataError(
                f"{parsed.document.id}: overlapping EAU spans {prev_id} and {eau.id}"
            )
        prev_end, prev_id = eau.end, eau.id


def format_standoff(eaus: list[EauSpan], relations, text: str) -> str:
    """The ``.ann`` file of ``eaus`` over ``text`` and ``(source, target, label)``
    relations: T lines in list order, R and A lines numbered from 1."""
    lines = []
    for eau in eaus:
        lines.append(f"{eau.id}\t{eau.kind} {eau.start} {eau.end}\t{text[eau.start:eau.end]}")
    inv = {SUPPORT: "supports", ATTACK: "attacks"}
    for i, (src, tgt, label) in enumerate(relations, start=1):
        lines.append(f"R{i}\t{inv[label]} Arg1:{src} Arg2:{tgt}")
    stances = [eau for eau in eaus if eau.stance is not None]
    lines.extend(f"A{k}\tStance {eau.id} {eau.stance}" for k, eau in enumerate(stances, start=1))
    return "\n".join(lines) + "\n"


def transform_doc(parsed: ParsedDoc, mode: str) -> tuple[str, str]:
    """Produce (text, ann) of a decontextualized variant of one document.

    eau_only: the text becomes the EAU spans, one per line.
    context_only: every EAU span is replaced by MASK tokens, one per
    whitespace token of the original span; all other text is preserved.
    """
    _check_no_overlap(parsed)
    doc = parsed.document

    if mode == "eau_only":
        new_eaus = []
        parts = []
        offset = 0
        for eau in parsed.eaus:
            surface = doc.text[eau.start : eau.end]
            parts.append(surface)
            new_eaus.append(replace(eau, start=offset, end=offset + len(surface)))
            offset += len(surface) + 1  # newline separator
        new_text = "\n".join(parts) + ("\n" if parts else "")
        return new_text, format_standoff(new_eaus, parsed.relations, new_text)

    if mode == "context_only":
        new_eaus = []
        pieces = []
        cursor = 0
        delta = 0
        for eau in parsed.eaus:
            surface = doc.text[eau.start : eau.end]
            n_tokens = len(surface.split())
            masked = " ".join([MASK_TOKEN] * n_tokens)
            pieces.append(doc.text[cursor : eau.start])
            pieces.append(masked)
            new_start = eau.start + delta
            new_eaus.append(replace(eau, start=new_start, end=new_start + len(masked)))
            delta += len(masked) - len(surface)
            cursor = eau.end
        pieces.append(doc.text[cursor:])
        new_text = "".join(pieces)
        return new_text, format_standoff(new_eaus, parsed.relations, new_text)

    raise ValueError(f"unknown transform mode: {mode}")


def transform_corpus(corpus: Corpus, mode: str) -> dict[str, tuple[str, str]]:
    """Apply ``transform_doc`` to every document; returns doc_id -> (text, ann)."""
    return {parsed.document.id: transform_doc(parsed, mode) for parsed in corpus}


def split_corpus(corpus: Corpus, content: str) -> CorpusSplit:
    """Validate a two-column ``doc_id\\t{train|test}`` split file against the corpus."""
    train: set[str] = set()
    test: set[str] = set()
    for line_no, line in enumerate(content.split("\n"), start=1):
        if not line.strip():
            continue
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 2 or parts[1] not in ("train", "test"):
            raise StandoffParseError(f"malformed split line: {line!r}", line_no)
        doc_id, part = parts
        if (part == "train" and doc_id in test) or (part == "test" and doc_id in train):
            raise DataError(f"document {doc_id} assigned to both train and test")
        (train if part == "train" else test).add(doc_id)

    assigned = train | test
    corpus_ids = set(corpus.docs)
    missing = corpus_ids - assigned
    if missing:
        raise DataError(f"documents missing from split file: {sorted(missing)}")
    unknown = assigned - corpus_ids
    if unknown:
        raise DataError(f"split file references unknown documents: {sorted(unknown)}")
    if not test:
        raise DataError("split has an empty test set")
    if not train:
        raise DataError("split has an empty train set")
    return CorpusSplit(train_doc_ids=frozenset(train), test_doc_ids=frozenset(test))
