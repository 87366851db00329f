import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from argdissect import evaluation, features, pipeline
from argdissect.cli import main
from argdissect.corpus import RelationInstance
from argdissect.errors import ArgdissectError, DataError
from argdissect.evaluation import (
    ANOVA_INF_SENTINEL,
    anova_f_scores,
    anova_scores,
    f1_report,
    format_report,
    mfs_baseline,
    randomize_contexts,
    significance,
    strip_contexts,
)
from argdissect.features import (
    CB,
    CI,
    ContentLayers,
    ContextLayers,
    EMPTY_CONTEXT,
    FeatureRegistry,
    InstanceView,
    SideView,
)

from conftest import csr_of, csr_of_array


def test_f1_report_hand_computed():
    gold = ["a", "a", "a", "b", "b"]
    preds = ["a", "a", "b", "b", "a"]
    report = f1_report(preds, gold, ("a", "b"))
    # class a: tp=2, predicted=3, gold=3 -> P=R=F1=2/3
    assert report.per_class["a"].precision == pytest.approx(100 * 2 / 3)
    assert report.per_class["a"].recall == pytest.approx(100 * 2 / 3)
    assert report.f1("a") == pytest.approx(100 * 2 / 3)
    # class b: tp=1, predicted=2, gold=2 -> 1/2
    assert report.f1("b") == pytest.approx(50.0)
    assert report.macro_f1 == pytest.approx((100 * 2 / 3 + 50.0) / 2)


def test_f1_zero_convention():
    report = f1_report(["a", "a"], ["a", "b"], ("a", "b"))
    assert report.f1("b") == 0.0
    assert report.per_class["b"].precision == 0.0
    assert report.per_class["b"].support == 1


def test_f1_macro_counts_absent_classes():
    report = f1_report(["a", "a"], ["a", "a"], ("a", "b", "c"))
    assert report.macro_f1 == pytest.approx(100.0 / 3)


def test_f1_report_validation():
    with pytest.raises(ArgdissectError):
        f1_report(["a"], ["a", "b"], ("a", "b"))
    with pytest.raises(DataError):
        f1_report(["z"], ["a"], ("a", "b"))


def test_f1_matches_external_oracle():
    rng = np.random.default_rng(3)
    classes = ("x", "y", "z")
    gold = [classes[i] for i in rng.integers(0, 3, size=200)]
    preds = [classes[i] for i in rng.integers(0, 3, size=200)]
    report = f1_report(preds, gold, classes)
    for i, cls in enumerate(classes):
        g = np.array([c == cls for c in gold])
        p = np.array([c == cls for c in preds])
        tp = int((g & p).sum())
        prec = tp / p.sum() if p.sum() else 0.0
        rec = tp / g.sum() if g.sum() else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        assert report.f1(cls) == pytest.approx(100 * f1)


def test_mfs_baseline():
    assert mfs_baseline(["a", "b", "b"], ("a", "b")) == "b"
    # tie goes to the earlier class
    assert mfs_baseline(["a", "b"], ("a", "b")) == "a"
    with pytest.raises(ArgdissectError):
        mfs_baseline([], ("a", "b"))
    with pytest.raises(DataError):
        mfs_baseline(["z"], ("a", "b"))


@pytest.mark.parametrize("score", [
    lambda labels, classes: f1_report(labels, ["a"] * len(labels), classes),
    lambda labels, classes: mfs_baseline(labels, classes),
    lambda labels, classes: significance(
        labels, ["a"] * len(labels), ["b"] * len(labels), classes, n=100
    ),
], ids=["f1_report", "mfs_baseline", "significance"])
def test_a_label_outside_the_class_set_is_a_data_error(score):
    with pytest.raises(DataError, match="label outside the class set: z"):
        score(["a", "z", "b"], ("a", "b"))


def test_f1_report_names_the_first_bad_label_in_pair_order():
    # pairs are read in order, the prediction before its gold label
    with pytest.raises(DataError, match="class set: g$"):
        f1_report(["a", "p"], ["g", "a"], ("a", "b"))
    with pytest.raises(DataError, match="class set: p$"):
        f1_report(["p", "a"], ["g", "a"], ("a", "b"))


# ---------------------------------------------------------------------------
# significance


def test_significance_identical_systems():
    gold = ["a", "b"] * 30
    preds = ["a", "a"] * 30
    p = significance(preds, list(preds), gold, ("a", "b"), n=200, seed=0)
    assert p == 1.0


def test_significance_extreme_difference():
    gold = ["a", "b"] * 100
    perfect = list(gold)
    wrong = ["b", "a"] * 100
    p = significance(perfect, wrong, gold, ("a", "b"), n=500, seed=1)
    assert p < 0.01


def test_significance_seeded_and_bounded():
    rng = np.random.default_rng(9)
    gold = ["a", "b"][: 2] * 40
    a = [("a" if r < 0.7 else "b") for r in rng.random(80)]
    b = [("a" if r < 0.6 else "b") for r in rng.random(80)]
    p1 = significance(a, b, gold, ("a", "b"), n=300, seed=4)
    p2 = significance(a, b, gold, ("a", "b"), n=300, seed=4)
    assert p1 == p2
    assert 0.0 < p1 <= 1.0


def per_permutation_significance(preds_a, preds_b, gold, classes, n, seed):
    """Reference: one ``rng.random(m)`` draw and one scalar macro F1 per permutation."""
    idx = {c: i for i, c in enumerate(classes)}
    a, b, g = (np.array([idx[p] for p in ps]) for ps in (preds_a, preds_b, gold))

    def macro_f1(pred):
        f1s = np.empty(len(classes))
        for c in range(len(classes)):
            tp = np.count_nonzero((pred == c) & (g == c))
            denom = np.count_nonzero(pred == c) + np.count_nonzero(g == c)
            f1s[c] = 2.0 * tp / denom if denom else 0.0
        return float(f1s.mean())

    obs = abs(macro_f1(a) - macro_f1(b))
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(n):
        mask = rng.random(len(g)) < 0.5
        if abs(macro_f1(np.where(mask, b, a)) - macro_f1(np.where(mask, a, b))) >= obs:
            hits += 1
    return (hits + 1) / (n + 1)


@pytest.mark.parametrize("case", range(6))
def test_significance_matches_per_permutation_loop(case):
    """The blocked test gives the reference's p exactly, partial last block included."""
    rng = np.random.default_rng(100 + case)
    classes = ("a", "b", "c")[: 2 + case % 2]
    m = int(rng.integers(20, 200))
    n = (100, 130, 1000)[case % 3]
    gold = rng.choice(classes, m).tolist()
    # two systems of similar skill, so p lands mid-range
    preds_a = [g if rng.random() < 0.6 else str(rng.choice(classes)) for g in gold]
    preds_b = [g if rng.random() < 0.6 else str(rng.choice(classes)) for g in gold]
    seed = int(rng.integers(1000))
    expected = per_permutation_significance(preds_a, preds_b, gold, classes, n, seed)
    assert 0.05 < expected < 0.95
    assert significance(preds_a, preds_b, gold, classes, n=n, seed=seed) == expected


def two_systems(rng, classes, m, skill=0.6, labels=None):
    """Gold labels over ``labels`` (default: all classes) and two systems of the given skill."""
    labels = classes if labels is None else labels
    gold = rng.choice(labels, m).tolist()
    a, b = ([y if rng.random() < skill else str(rng.choice(labels)) for y in gold]
            for _ in range(2))
    return a, b, gold


def block_rows(m):
    """Permutations per block of ``significance`` at m instances."""
    return max(1, evaluation._PERMUTATION_BLOCK // m)


@pytest.mark.parametrize("case", [
    "no_disagreements", "all_disagree", "absent_class",
    "below_one_block", "partial_last_block", "m3000_n100",
])
def test_significance_matches_per_permutation_loop_at_the_edges(case):
    rng = np.random.default_rng(len(case))
    classes, m, n = ("a", "b"), 150, 1000
    if case == "no_disagreements":
        preds_a, _, gold = two_systems(rng, classes, m)
        preds_b = list(preds_a)
    elif case == "all_disagree":
        preds_a, _, gold = two_systems(rng, classes, m, skill=0.0)
        preds_b = ["b" if y == "a" else "a" for y in preds_a]
    elif case == "absent_class":
        classes = ("a", "b", "c")
        preds_a, preds_b, gold = two_systems(rng, classes, m, labels=("a", "c"))
    elif case == "below_one_block":
        m, n = 60, 100
        preds_a, preds_b, gold = two_systems(rng, classes, m)
        assert n < block_rows(m)
    elif case == "partial_last_block":
        m = 240
        preds_a, preds_b, gold = two_systems(rng, classes, m)
        assert n > block_rows(m) and n % block_rows(m)
    else:
        classes, m, n = ("a", "b", "c"), 3000, 100
        preds_a, preds_b, gold = two_systems(rng, classes, m)
        assert n > block_rows(m)
    seed = int(rng.integers(1000))
    expected = per_permutation_significance(preds_a, preds_b, gold, classes, n, seed)
    if case == "no_disagreements":
        assert expected == 1.0
    else:  # neither every nor no permutation reaches the observed difference
        assert 1 / (n + 1) < expected < 1.0
    assert significance(preds_a, preds_b, gold, classes, n=n, seed=seed) == expected


def test_significance_memory_is_set_by_the_block_not_by_n():
    preds_a, preds_b, gold = two_systems(np.random.default_rng(5), ("a", "b", "c"), 2000)

    def peak(n):
        tracemalloc.start()
        try:
            significance(preds_a, preds_b, gold, ("a", "b", "c"), n=n, seed=3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(200), peak(10_000)
    assert large <= small + 64 * 1024
    assert large < 1 << 20  # a block draws 256 KiB


def test_run_reports_the_reference_p_value(synth_dir, tmp_path, monkeypatch, capsys):
    """``run``'s p_value row is the reference loop's p for the run's predictions
    against the MFS label."""
    calls = []

    def recording_significance(*args, **kwargs):
        calls.append((args, kwargs))
        return significance(*args, **kwargs)

    monkeypatch.setattr(pipeline, "significance", recording_significance)
    out_dir = tmp_path / "out"
    argv = [
        "run", "--task", "g", "--significance-n", "1000",
        "--corpus-dir", synth_dir, "--split", os.path.join(synth_dir, "split.tsv"),
        "--embeddings", os.path.join(synth_dir, "embeddings.txt"), "--out", str(out_dir),
    ]
    assert main(argv) == 0
    [((preds, baseline, gold, classes), kwargs)] = calls
    assert kwargs == {"n": 1000, "seed": 0}

    rows = [line.split("\t") for line in (out_dir / "report.tsv").read_text().splitlines()]
    [macro_f1] = [float(v) for section, _, v in rows if section == "macro_f1"]
    assert f1_report(preds, gold, classes).macro_f1 == macro_f1  # the run's predictions
    config = pipeline.RunConfig(
        corpus_dir=synth_dir, split_path=os.path.join(synth_dir, "split.tsv"), task="g"
    )
    train_labels = [v.instance.label for v in pipeline.prepare(config).train_views]
    assert baseline == [mfs_baseline(train_labels, classes)] * len(gold)

    expected = per_permutation_significance(preds, baseline, gold, classes, 1000, 0)
    assert [float(v) for section, key, v in rows if section == "p_value"] == [expected]
    assert [key for section, key, _ in rows if section == "p_value"] == ["mfs"]


def test_significance_requires_enough_permutations():
    with pytest.raises(ArgdissectError, match="100"):
        significance(["a"], ["a"], ["a"], ("a", "b"), n=50)


# ---------------------------------------------------------------------------
# robustness transforms


def make_views(n):
    views = []
    for k in range(n):
        inst = RelationInstance(f"T{k}", None, "support", "h", f"d{k}")
        content = ContentLayers(tokens=(f"content{k}",))
        context = ContextLayers(tokens=(f"context{k}",), unit_index=k)
        views.append(
            InstanceView(inst, SideView(f"T{k}", content, context), None,
                         frozenset({"tokens"}))
        )
    return views


def test_randomize_contexts_permutes_only_contexts():
    views = make_views(8)
    swapped = randomize_contexts(views, seed=5)
    assert [v.source.content for v in swapped] == [v.source.content for v in views]
    before = sorted(v.source.context.tokens for v in views)
    after = sorted(v.source.context.tokens for v in swapped)
    assert before == after
    assert [v.source.context for v in swapped] != [v.source.context for v in views]


def test_randomize_contexts_deterministic():
    views = make_views(6)
    a = randomize_contexts(views, seed=2)
    b = randomize_contexts(views, seed=2)
    assert [v.source.context for v in a] == [v.source.context for v in b]


def test_randomize_contexts_needs_two():
    with pytest.raises(ArgdissectError):
        randomize_contexts(make_views(1), seed=0)


def test_strip_contexts_idempotent():
    views = make_views(4)
    stripped = strip_contexts(views)
    assert all(v.source.context == EMPTY_CONTEXT for v in stripped)
    assert [v.source.content for v in stripped] == [v.source.content for v in views]
    assert strip_contexts(stripped) == stripped


# ---------------------------------------------------------------------------
# ANOVA


def dense_anova_f_scores(X, labels):
    """The dense computation ``anova_f_scores`` replaced: numpy's column means
    of the whole array and of a copy of each class's rows."""
    labels = np.asarray(labels)
    classes = np.unique(labels)
    grand_mean = X.mean(axis=0)
    ssb = np.zeros(X.shape[1])
    ssw = np.zeros(X.shape[1])
    for c in classes:
        Xc = X[labels == c]
        mc = Xc.mean(axis=0)
        ssb += Xc.shape[0] * (mc - grand_mean) ** 2
        Xc -= mc
        np.square(Xc, out=Xc)
        ssw += Xc.sum(axis=0)
    msb = ssb / (len(classes) - 1)
    msw = ssw / (X.shape[0] - len(classes))
    with np.errstate(divide="ignore", invalid="ignore"):
        f = msb / msw
    f = np.where(msw == 0, np.where(msb > 0, ANOVA_INF_SENTINEL, 0.0), f)
    return np.minimum(f, ANOVA_INF_SENTINEL)


@st.composite
def labelled_matrices(draw):
    """Labels of 2 to 4 classes with at least two rows each, and a dense array
    of 2 to 6 columns, each of seeded normal values with some zeros, of small
    integers, or constant; some rows may be empty."""
    sizes = draw(st.lists(st.integers(2, 7), min_size=2, max_size=4))
    labels = draw(st.permutations([f"c{c}" for c, size in enumerate(sizes) for _ in range(size)]))
    kind = st.sampled_from(["normal", "integer", "constant"])
    kinds = draw(st.lists(kind, min_size=2, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, zeros = len(labels), draw(st.floats(0, 1))
    columns = []
    for kind in kinds:
        if kind == "normal":
            columns.append(rng.normal(scale=1e3, size=n) * (rng.random(n) >= zeros))
        elif kind == "integer":
            columns.append(rng.integers(-3, 4, size=n).astype(float))
        else:
            columns.append(np.full(n, rng.normal()))
    return np.column_stack(columns), labels


@settings(max_examples=300, deadline=None)
@given(labelled_matrices(), st.integers(1, 4))
def test_anova_f_scores_of_row_blocks_equal_the_dense_computation(matrix, block_rows):
    X, labels = matrix
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(features, "ROW_BLOCK_BYTES", block_rows * 8 * X.shape[1])
        ours = anova_f_scores(csr_of_array(X), labels)
    assert np.array_equal(ours, dense_anova_f_scores(X, labels))


def test_anova_f_scores_of_one_column_match_the_dense_computation():
    # numpy sums the rows of a one-column array as one contiguous vector,
    # pairwise, where it adds the rows of a wider array one by one in row
    # order, as anova_f_scores does; so one column may differ in the last bits
    rng = np.random.default_rng(29)
    for _ in range(300):
        sizes = rng.integers(2, 30, size=int(rng.integers(2, 5)))
        labels = rng.permutation([f"c{c}" for c, size in enumerate(sizes) for _ in range(size)])
        X = rng.normal(size=(len(labels), 1)) * (rng.random((len(labels), 1)) < 0.7)
        np.testing.assert_allclose(
            anova_f_scores(csr_of_array(X), labels), dense_anova_f_scores(X, labels),
            rtol=1e-12, atol=0,
        )


def test_anova_matches_scipy_oracle():
    rng = np.random.default_rng(17)
    X = rng.normal(size=(60, 5))
    labels = np.array(["a"] * 20 + ["b"] * 20 + ["c"] * 20)
    ours = anova_f_scores(csr_of_array(X), labels)
    for j in range(X.shape[1]):
        groups = [X[labels == c, j] for c in ("a", "b", "c")]
        expected = stats.f_oneway(*groups).statistic
        assert ours[j] == pytest.approx(expected, abs=1e-9)


def test_anova_sentinel_for_perfect_separation():
    X = csr_of_array(np.array([[0.0], [0.0], [1.0], [1.0]]))
    labels = ["a", "a", "b", "b"]
    assert anova_f_scores(X, labels)[0] == ANOVA_INF_SENTINEL


def test_anova_zero_for_constant_feature():
    X = csr_of_array(np.array([[3.0], [3.0], [3.0], [3.0]]))
    labels = ["a", "a", "b", "b"]
    assert anova_f_scores(X, labels)[0] == 0.0


def test_anova_validation():
    X = csr_of_array(np.zeros((3, 1)))
    with pytest.raises(ArgdissectError):
        anova_f_scores(X, ["a", "a", "a"])
    with pytest.raises(ArgdissectError, match="fewer than two"):
        anova_f_scores(X, ["a", "a", "b"])
    with pytest.raises(ArgdissectError, match="4 labels for 3 rows"):
        anova_f_scores(X, ["a", "a", "b", "b"])


def test_anova_scores_percentile_curves():
    reg = FeatureRegistry()
    reg.index("lex:eau:src:strong")
    reg.index("lex:eau:src:weak")
    reg.index("lex:ctx:src:noise")
    reg.freeze()
    rng = np.random.default_rng(23)
    vectors = []
    labels = []
    for k in range(40):
        label = "a" if k % 2 == 0 else "b"
        vec = {
            0: (1.0 if label == "a" else 0.0) + rng.normal(scale=0.05),
            1: rng.normal(),
            2: rng.normal(),
        }
        vectors.append(vec)
        labels.append(label)
    curve = anova_scores(csr_of(vectors, 3), labels, reg)
    assert curve.percentiles[0] == 0.0 and curve.percentiles[-1] == 100.0
    for ftype in (CB, CI):
        vals = curve.curves[ftype]
        assert np.all(np.diff(vals) >= -1e-12)
    # the discriminative CB feature dominates the CI noise at the top end
    assert curve.curves[CB][-1] > curve.curves[CI][-1]


def test_format_report_smoke():
    report = f1_report(["a", "b"], ["a", "b"], ("a", "b"))
    text = format_report(report, title="demo")
    assert "demo" in text and "macro F1: 100.0" in text
