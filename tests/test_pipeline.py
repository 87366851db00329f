import os

import pytest

from argdissect.annotations import Token, parse_bracketed_tree
from argdissect.corpus import parse_standoff
from argdissect.errors import MissingLayerError
from argdissect.features import CB, CI, FA
from argdissect.learn import TrainConfig
from argdissect.pipeline import (
    DocBundle,
    RunConfig,
    build_side_view,
    evaluate_model,
    load_corpus_dir,
    prepare,
    run_experiment,
    train_model,
)

from conftest import SMOKE_TOKEN_SPECS, SMOKE_TREE


def smoke_bundle(with_tree=True):
    text = "However, people should not smoke.\n"
    ann = "T1\tClaim 9 32\tpeople should not smoke\n"
    parsed = parse_standoff(text, ann, "d")
    tokens = [
        Token("d", 0, i, start, end, surface)
        for i, (start, end, surface) in enumerate(SMOKE_TOKEN_SPECS)
    ]
    trees = None
    if with_tree:
        trees = {0: parse_bracketed_tree(SMOKE_TREE, tokens, "d", 0)}
    return DocBundle(parsed=parsed, tokens=tokens, trees=trees, discourse=None)


def test_side_view_tokens_and_counts():
    bundle = smoke_bundle()
    sv = build_side_view(bundle, bundle.parsed.eau_by_id("T1"), None)
    assert sv.content.tokens == ("people", "should", "not", "smoke")
    assert sv.context.tokens == ("However", ",", ".")
    assert sv.context.preceding_count == 2
    assert sv.context.following_count == 1
    assert sv.context.unit_index == 0
    assert sv.context.is_first and sv.context.is_last
    assert sv.content.punct_count == 0


def test_side_view_rule_layers():
    bundle = smoke_bundle()
    sv = build_side_view(bundle, bundle.parsed.eau_by_id("T1"), None)
    assert sorted(sv.content.rules) == [
        "MD→should",
        "NN→people",
        "NP→NN",
        "RB→not",
        "S→NP_VP",
        "VB→smoke",
        "VP→MD_RB_VB",
    ]
    assert sorted(sv.context.rules) == [",→,", ".→.", "ADVP→however"]
    assert sv.context.crossing_rules == ("S'→ADVP_,_S_.",)


def test_side_view_sentiment_nodes():
    bundle = smoke_bundle()
    sv = build_side_view(bundle, bundle.parsed.eau_by_id("T1"), None)
    assert sv.content.sentiment == 4  # the EAU's own clause node
    assert sv.context.sentiment_ci == 2  # leftmost context constituent
    assert sv.context.sentiment_fa == 3  # whole-sentence node


def test_side_view_without_trees():
    bundle = smoke_bundle(with_tree=False)
    sv = build_side_view(bundle, bundle.parsed.eau_by_id("T1"), None)
    assert sv.content.rules == ()
    assert sv.content.sentiment is None


# ---------------------------------------------------------------------------
# end-to-end over the synthetic corpus


def run_config(synth_dir, out_dir, **kw):
    defaults = dict(
        corpus_dir=synth_dir,
        embeddings_path=os.path.join(synth_dir, "embeddings.txt"),
        split_path=os.path.join(synth_dir, "split.tsv"),
        output_dir=out_dir,
        task="f",
        train=TrainConfig(max_epochs=200),
    )
    defaults.update(kw)
    return RunConfig(**defaults)


def test_load_corpus_dir_layers(synth_dir):
    bundle = load_corpus_dir(synth_dir)
    assert {"tokens", "trees", "sentiment", "discourse"} <= bundle.layers
    assert "embeddings" not in bundle.layers


def test_build_views_share_sides(synth_dir):
    bundle = load_corpus_dir(synth_dir)
    config = run_config(synth_dir, "unused")
    data = prepare(config)
    views = data.train_views
    assert views
    # every pair instance carries both sides
    assert all(v.target is not None for v in views)


def test_ci_beats_cb_on_context_heavy_corpus(synth_dir, tmp_path):
    config = run_config(synth_dir, str(tmp_path))
    data = prepare(config)
    scores = {}
    for model_type in (CB, CI, FA):
        model, registry, _, families = train_model(config, data, model_type)
        report, _ = evaluate_model(
            model, registry, data.test_views, data.classes, families,
            data.embedding_dim,
        )
        scores[model_type] = report.macro_f1
    # the corpus plants a stronger clue in the context than in the content
    assert scores[CI] > scores[CB]
    assert scores[FA] >= scores[CB]


def test_run_experiment_writes_artifacts(synth_dir, tmp_path):
    config = run_config(synth_dir, str(tmp_path / "out"), significance_n=200)
    report = run_experiment(config)
    assert 0.0 <= report.macro_f1 <= 100.0
    assert report.significance[0]["baseline"] == "mfs"
    for name in ("model.txt", "report.tsv", "manifest.txt"):
        assert (tmp_path / "out" / name).exists()
    manifest = (tmp_path / "out" / "manifest.txt").read_text()
    assert "sha256=" in manifest
    assert "task = f" in manifest
    assert "significance_n = 200" in manifest
    assert f"output_dir = {tmp_path / 'out'}" in manifest


def test_run_experiment_deterministic(synth_dir, tmp_path):
    r1 = run_experiment(run_config(synth_dir, str(tmp_path / "a")))
    r2 = run_experiment(run_config(synth_dir, str(tmp_path / "b")))
    assert r1.macro_f1 == r2.macro_f1
    assert (tmp_path / "a" / "report.tsv").read_bytes() == (
        tmp_path / "b" / "report.tsv"
    ).read_bytes()


def test_requesting_family_without_layer_fails(synth_dir, tmp_path):
    config = run_config(
        synth_dir, str(tmp_path), embeddings_path="", families=("embedding",)
    )
    data = prepare(config)
    with pytest.raises(MissingLayerError):
        train_model(config, data)


def test_unseen_test_features_are_dropped(synth_dir, tmp_path):
    config = run_config(synth_dir, str(tmp_path))
    data = prepare(config)
    model, registry, _, families = train_model(config, data)
    assert registry.frozen
    before = len(registry)
    evaluate_model(
        model, registry, data.test_views, data.classes, families, data.embedding_dim
    )
    assert len(registry) == before
