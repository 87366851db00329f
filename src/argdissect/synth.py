"""Synthetic corpus generator with plantable content and context signals.

Each document is a title paragraph plus one body paragraph of sentences
shaped ``<Marker>, <signal-word> <noise> <noise>.`` where the EAU span
covers the three content words.  Every non-initial EAU has one outgoing
relation to the previous EAU.  The discourse marker agrees with the
relation label with probability ``marker_signal`` (a context clue); the
EAU's signal word agrees with probability ``content_signal`` (a content
clue).  All annotation layers (tokens, sentiment trees, discourse
relations, embeddings, split file) are emitted so the full feature system
runs without any external corpus.  The ``.ann`` file is written by
``corpus.format_standoff``, the writer the corpus transforms use.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

import numpy as np

from .corpus import ATTACK, SUPPORT, EauSpan, format_standoff
from .errors import DataError
from .pipeline import make_output_dir, standoff_ids

MARKERS = {SUPPORT: "moreover", ATTACK: "however"}
SIGNAL_WORDS = {SUPPORT: "benefit", ATTACK: "harm"}
SENSES = {SUPPORT: "Expansion.Conjunction", ATTACK: "Comparison.Contrast"}
# the Implicit sense of a sentence's marker; any other marker reads Expansion
MARKER_SENSES = {MARKERS[label]: SENSES[label] for label in MARKERS}
SENTIMENTS = {SUPPORT: 4, ATTACK: 2}

NOISE_WORDS = (
    "apple", "banana", "cherry", "date", "elder", "fig", "grape",
    "melon", "olive", "peach", "plum", "quince",
)

EMBED_DIM = 8


@dataclass
class SynthConfig:
    """Corpus shape and planted signals; ``flag`` names a field's ``synth`` option."""

    n_docs: int = field(default=200, metadata={"flag": "--docs"})
    sentences_per_doc: int = field(default=6, metadata={"flag": "--sentences"})
    marker_signal: float = field(default=0.95, metadata={"flag": "--marker-signal"})
    content_signal: float = field(default=0.75, metadata={"flag": "--content-signal"})
    support_share: float = 0.6
    train_share: float = 0.8
    seed: int = field(default=0, metadata={"flag": "--seed"})


def _flip(rng, label: str, agree_prob: float) -> str:
    if rng.random() < agree_prob:
        return label
    return ATTACK if label == SUPPORT else SUPPORT


@dataclass
class _Sentence:
    text: str
    tokens: list[tuple[int, int, str]]  # (start, end, surface), doc offsets
    tree: str
    eau_span: tuple[int, int] | None


def _title_sentence(offset: int, topic: str) -> _Sentence:
    words = ["This", "essay", "discusses", topic, "."]
    text = "This essay discusses " + topic + " ."
    tokens = []
    pos = offset
    for w in words:
        tokens.append((pos, pos + len(w), w))
        pos += len(w) + 1
    tree = (
        f"(S|s=3 (NP (DT This) (NN essay)) (VP (VB discusses) (NN {topic})) (. .))"
    )
    return _Sentence(text=text, tokens=tokens, tree=tree, eau_span=None)


def _body_sentence(offset: int, marker: str, words: list[str],
                   marker_sent: int, content_sent: int) -> _Sentence:
    cap = marker.capitalize()
    text = f"{cap}, {words[0]} {words[1]} {words[2]}."
    tokens = []
    pos = offset
    tokens.append((pos, pos + len(cap), cap))
    pos += len(cap)
    tokens.append((pos, pos + 1, ","))
    pos += 2  # comma + space
    eau_start = pos
    for k, w in enumerate(words):
        tokens.append((pos, pos + len(w), w))
        pos += len(w)
        if k < 2:
            pos += 1
    eau_end = pos
    tokens.append((pos, pos + 1, "."))
    tree = (
        f"(S|s=3 (ADVP|s={marker_sent} (RB {cap})) (, ,) "
        f"(NP|s={content_sent} (NN {words[0]}) (NN {words[1]}) (NN {words[2]})) (. .))"
    )
    return _Sentence(text=text, tokens=tokens, tree=tree, eau_span=(eau_start, eau_end))


def generate_doc(doc_id: str, config: SynthConfig, rng) -> dict[str, str]:
    """Generate the file contents (text, ann, tokens, trees, discourse) of one doc."""
    topic = NOISE_WORDS[rng.integers(len(NOISE_WORDS))]
    sentences: list[_Sentence] = []
    labels: list[str] = []  # body sentence k + 1's relation label, towards sentence k

    title = _title_sentence(0, topic)
    text_lines = [title.text, ""]
    sentences.append(title)
    offset = len(title.text) + 2  # newline + blank line

    neutral = _body_sentence(
        offset,
        "initially",
        [str(NOISE_WORDS[rng.integers(len(NOISE_WORDS))]) for _ in range(3)],
        3,
        3,
    )
    sentences.append(neutral)
    text_lines.append(neutral.text)
    offset += len(neutral.text) + 1

    for _ in range(1, config.sentences_per_doc):
        label = SUPPORT if rng.random() < config.support_share else ATTACK
        labels.append(label)
        marker_label = _flip(rng, label, config.marker_signal)
        content_label = _flip(rng, label, config.content_signal)
        words = [
            SIGNAL_WORDS[content_label],
            str(NOISE_WORDS[rng.integers(len(NOISE_WORDS))]),
            str(NOISE_WORDS[rng.integers(len(NOISE_WORDS))]),
        ]
        sent = _body_sentence(
            offset,
            MARKERS[marker_label],
            words,
            SENTIMENTS[marker_label],
            SENTIMENTS[content_label],
        )
        sentences.append(sent)
        text_lines.append(sent.text)
        offset += len(sent.text) + 1

    text = "\n".join(text_lines) + "\n"

    # standoff annotations: T1 is a Claim for the topic, each later EAU a
    # Premise related to the one before it
    body = [s for s in sentences if s.eau_span is not None]
    eaus = [
        EauSpan(f"T{i}", doc_id, *sent.eau_span, kind="Premise")
        for i, sent in enumerate(body, start=1)
    ]
    eaus[0] = replace(eaus[0], kind="Claim", stance="For")
    relations = [(cur.id, prev.id, label) for prev, cur, label in zip(eaus, eaus[1:], labels)]
    ann = format_standoff(eaus, relations, text)

    # token offsets
    token_lines = []
    for s_idx, sent in enumerate(sentences):
        for t_idx, (start, end, surface) in enumerate(sent.tokens):
            token_lines.append(f"{s_idx}\t{t_idx}\t{start}\t{end}\t{surface}")
    tokens = "\n".join(token_lines) + "\n"

    trees = "\n".join(s.tree for s in sentences) + "\n"

    # discourse: one crossing Explicit relation per related pair, plus one
    # context-internal Implicit relation per body sentence
    disc_lines = []
    for prev, cur, sent, label in zip(eaus, eaus[1:], body[1:], labels):
        marker_tok = sent.tokens[0]
        disc_lines.append(
            f"Explicit|{SENSES[label]}|{prev.start}..{prev.end}|"
            f"{cur.start}..{cur.end}|{marker_tok[0]}..{marker_tok[1]}"
        )
    for sent in body:
        marker_tok, comma_tok = sent.tokens[:2]
        sense = MARKER_SENSES.get(marker_tok[2].lower(), "Expansion")
        disc_lines.append(
            f"Implicit|{sense}|{marker_tok[0]}..{marker_tok[1]}|"
            f"{comma_tok[0]}..{comma_tok[1]}|"
        )
    discourse = "\n".join(disc_lines) + "\n"

    return {
        "txt": text,
        "ann": ann,
        "tokens.tsv": tokens,
        "trees": trees,
        "discourse": discourse,
    }


def embeddings_text(seed: int = 0, dim: int = EMBED_DIM) -> str:
    """Deterministic small word-vector table covering the synthetic vocabulary."""
    rng = np.random.default_rng(seed)
    vocab = sorted(
        set(NOISE_WORDS)
        | set(MARKERS.values())
        | set(SIGNAL_WORDS.values())
        | {"initially", "this", "essay", "discusses", ",", "."}
    )
    lines = []
    for word in vocab:
        vec = rng.normal(size=dim)
        lines.append(word + " " + " ".join(f"{v:.6f}" for v in vec))
    return "\n".join(lines) + "\n"


def generate_corpus(out_dir, config: SynthConfig) -> list[str]:
    """Write a full synthetic corpus (all layers + split + embeddings) to disk.

    A directory that holds documents of other ids is a ``DataError``, and
    nothing is written: they would sit beside a split file that does not
    list them.
    """
    make_output_dir(out_dir)
    doc_ids = [f"essay{i:03d}" for i in range(config.n_docs)]
    stale = sorted(set(standoff_ids(out_dir)) - set(doc_ids))
    if stale:
        raise DataError(
            f"{out_dir} holds documents that the new corpus would not list: "
            f"{', '.join(stale)}; write into an empty directory"
        )
    rng = np.random.default_rng(config.seed)
    split_lines = []
    n_train = max(1, int(round(config.n_docs * config.train_share)))
    for i, doc_id in enumerate(doc_ids):
        files = generate_doc(doc_id, config, rng)
        for ext, content in files.items():
            with open(os.path.join(out_dir, f"{doc_id}.{ext}"), "w") as fh:
                fh.write(content)
        part = "train" if i < n_train else "test"
        split_lines.append(f"{doc_id}\t{part}")
    with open(os.path.join(out_dir, "split.tsv"), "w") as fh:
        fh.write("\n".join(split_lines) + "\n")
    with open(os.path.join(out_dir, "embeddings.txt"), "w") as fh:
        fh.write(embeddings_text(config.seed))
    return doc_ids
