import hashlib
import os

import pytest

from argdissect.cli import main
from argdissect.corpus import ATTACK, SUPPORT, build_instances
from argdissect.pipeline import load_corpus_dir
from argdissect.synth import (
    MARKERS,
    SIGNAL_WORDS,
    SynthConfig,
    generate_corpus,
)


def test_generate_corpus_writes_all_layers(tmp_path):
    out = tmp_path / "c"
    doc_ids = generate_corpus(str(out), SynthConfig(n_docs=3, seed=1))
    assert len(doc_ids) == 3
    for doc_id in doc_ids:
        for ext in ("txt", "ann", "tokens.tsv", "trees", "discourse"):
            assert (out / f"{doc_id}.{ext}").exists()
    assert (out / "split.tsv").exists()
    assert (out / "embeddings.txt").exists()


def test_generated_corpus_loads_cleanly(tmp_path):
    out = tmp_path / "c"
    generate_corpus(str(out), SynthConfig(n_docs=4, seed=2))
    bundle = load_corpus_dir(str(out), embeddings_path=str(out / "embeddings.txt"))
    assert bundle.layers == frozenset(
        {"tokens", "trees", "sentiment", "discourse", "embeddings"}
    )
    assert len(bundle.bundles) == 4


def test_generation_is_seed_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    generate_corpus(str(a), SynthConfig(n_docs=3, seed=9))
    generate_corpus(str(b), SynthConfig(n_docs=3, seed=9))
    for name in sorted(os.listdir(a)):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def directory_bytes(path):
    return {name: (path / name).read_bytes() for name in sorted(os.listdir(path))}


def test_a_smaller_corpus_over_a_larger_one_is_a_data_error(tmp_path, capsys):
    """Writing 6 documents where 12 are would leave essay006..essay011 beside
    a split file that does not list them: exit 2, naming them, writing nothing."""
    out = tmp_path / "c"
    assert main(["synth", "--out", str(out), "--docs", "12", "--seed", "1"]) == 0
    before = directory_bytes(out)
    assert main(["synth", "--out", str(out), "--docs", "6", "--seed", "2"]) == 2
    err = capsys.readouterr().err
    assert all(f"essay{i:03d}" in err for i in range(6, 12))
    assert "essay005" not in err
    assert directory_bytes(out) == before


def test_rewriting_the_same_or_more_documents_is_allowed(tmp_path):
    out = tmp_path / "c"
    generate_corpus(str(out), SynthConfig(n_docs=6, seed=1))
    generate_corpus(str(out), SynthConfig(n_docs=6, seed=2))
    generate_corpus(str(out), SynthConfig(n_docs=9, seed=3))
    fresh = tmp_path / "fresh"
    generate_corpus(str(fresh), SynthConfig(n_docs=9, seed=3))
    assert directory_bytes(out) == directory_bytes(fresh)


def test_split_share(tmp_path):
    out = tmp_path / "c"
    generate_corpus(str(out), SynthConfig(n_docs=10, train_share=0.8, seed=0))
    lines = (out / "split.tsv").read_text().strip().split("\n")
    parts = [ln.split("\t")[1] for ln in lines]
    assert parts.count("train") == 8
    assert parts.count("test") == 2


def test_marker_agreement_tracks_config(tmp_path):
    out = tmp_path / "c"
    config = SynthConfig(n_docs=60, marker_signal=0.95, seed=3)
    generate_corpus(str(out), config)
    bundle = load_corpus_dir(str(out))
    instances = build_instances(bundle.corpus, "f")
    agree = total = 0
    for inst in instances:
        doc = bundle.bundles[inst.doc_id]
        eau = doc.parsed.eau_by_id(inst.source)
        # the discourse marker opens the source EAU's sentence
        sentence_tokens = [
            t
            for t in doc.tokens
            if t.start < eau.end and t.end > eau.start
        ]
        s_idx = sentence_tokens[0].sentence_idx
        marker = next(
            t.surface for t in doc.tokens if t.sentence_idx == s_idx
        ).lower()
        expected = MARKERS[inst.label]
        total += 1
        agree += int(marker == expected)
    assert total > 100
    assert agree / total == pytest.approx(0.95, abs=0.05)


def test_content_agreement_tracks_config(tmp_path):
    out = tmp_path / "c"
    config = SynthConfig(n_docs=60, content_signal=0.75, seed=5)
    generate_corpus(str(out), config)
    bundle = load_corpus_dir(str(out))
    instances = build_instances(bundle.corpus, "f")
    agree = total = 0
    for inst in instances:
        doc = bundle.bundles[inst.doc_id]
        eau = doc.parsed.eau_by_id(inst.source)
        first_word = doc.parsed.document.text[eau.start : eau.end].split()[0]
        total += 1
        agree += int(first_word == SIGNAL_WORDS[inst.label])
    assert agree / total == pytest.approx(0.75, abs=0.07)


def test_both_labels_present(tmp_path):
    out = tmp_path / "c"
    generate_corpus(str(out), SynthConfig(n_docs=20, seed=11))
    bundle = load_corpus_dir(str(out))
    labels = {i.label for i in build_instances(bundle.corpus, "f")}
    assert labels == {SUPPORT, ATTACK}


DOC_LAYERS = ("txt", "ann", "tokens.tsv", "trees", "discourse")

# sha256 of each corpus file, and of each document layer's files concatenated
# in id order, of the 40-document corpora the benchmark workloads start from.
LAYER_SHA256 = {
    1: {
        "txt": "97d76b12b37a0c055a0f8d60204986e161e31efde2394a96d41a4502322af488",
        "ann": "98151c505f3aa7df74935116f9fcef49f16ced10cdf6573edde77a018cb59c6d",
        "tokens.tsv": "781711c5e85a54308796327e1b916c99c3068f793c509df4e30454fe845a3988",
        "trees": "0c7587dd44b8fd86a76cba2fca0ad32fdfbebee4c8e7612ad7c12962d36fc2ef",
        "discourse": "d475625d28d7c116e8eb4b64e7712e4c730e6e2ced467fb7a9f0b4072508da20",
        "split.tsv": "a5f9da3ed46e76f595f15d62f3e8284a56b61cb72e08c1354758e88123c7cc54",
        "embeddings.txt": "ad4a1a19ed0dae188362d231837d33048744bd9070c2983016326165e21556a9",
    },
    7919: {
        "txt": "80d1d8843ae019de7308c1875bd6cb69b6dbee70c6cf247eb9001dd534d0cec0",
        "ann": "58be518218675788310277df00d8c776eab95335338b11ea7d4689095ce04846",
        "tokens.tsv": "ecd1d3aaec971b3929593c0e64af77dab6c2ba9103424a8fd0a364cb2db57a78",
        "trees": "81a35a0f8ae4c4ccd4a63b538cfadae95ad794cefcbfe467b2f5d97a57cfadf7",
        "discourse": "52b8d6a46259fc64c1f19a57418f677b073c2241a45ecfc0a3c4090083154bcd",
        "split.tsv": "a5f9da3ed46e76f595f15d62f3e8284a56b61cb72e08c1354758e88123c7cc54",
        "embeddings.txt": "32797ead5260ad4551cbcc24dbaabc5de59f20122d7e68e780e2162780198185",
    },
}


@pytest.mark.parametrize("seed", sorted(LAYER_SHA256))
def test_benchmark_corpora_are_pinned_byte_for_byte(tmp_path, seed):
    doc_ids = generate_corpus(str(tmp_path), SynthConfig(n_docs=40, seed=seed))
    files = {layer: [f"{doc_id}.{layer}" for doc_id in doc_ids] for layer in DOC_LAYERS}
    files.update((name, [name]) for name in ("split.tsv", "embeddings.txt"))
    assert sorted(os.listdir(tmp_path)) == sorted(sum(files.values(), []))
    digests = {}
    for layer, names in files.items():
        digest = hashlib.sha256()
        for name in names:
            digest.update((tmp_path / name).read_bytes())
        digests[layer] = digest.hexdigest()
    assert digests == LAYER_SHA256[seed]
