"""Metrics, significance testing, robustness transforms, and ANOVA scoring.

F1 values are reported on a 0..100 scale.  All randomized procedures are
reproducible from (inputs, seed).  Every score encodes its labels with
``_encode`` and counts them with ``_class_counts``; both context transforms
set a view's contexts through ``_with_contexts``.  The ANOVA scores read
either form of feature matrix through its dense row blocks, to the same
bits.

The randomization test scores each permutation from count deltas: macro F1
needs only per-class true positives and predictions, a swap where the two
systems agree moves neither, and a swap where they disagree moves one
instance's counts from one system to the other.  It draws the same random
stream as scoring every permuted prediction vector, and the counts are exact
small integers, so its p values are those of that direct computation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ArgdissectError, DataError
from .features import CB, CI, EMPTY_CONTEXT, FeatureMatrix, FeatureRegistry, InstanceView

ANOVA_INF_SENTINEL = 1e12

ANOVA_PERCENTILES = np.arange(0, 101, dtype=float)  # the ANOVA curves' grid
ANOVA_PERCENTILES.flags.writeable = False  # every AnovaCurve shares it

# Fewest permutations ``significance`` accepts; fewer give an unstable p.
MIN_PERMUTATIONS = 100


@dataclass
class ClassScores:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass
class EvalReport:
    classes: tuple[str, ...]
    per_class: dict[str, ClassScores]
    macro_f1: float
    significance: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def f1(self, cls: str) -> float:
        return self.per_class[cls].f1

    def as_rows(self):
        rows = []
        for cls in self.classes:
            s = self.per_class[cls]
            rows.append(("precision", cls, s.precision))
            rows.append(("recall", cls, s.recall))
            rows.append(("f1", cls, s.f1))
            rows.append(("support", cls, s.support))
        rows.append(("macro_f1", "all", self.macro_f1))
        for entry in self.significance:
            rows.append(("p_value", entry["baseline"], entry["p"]))
        return rows


def _encode(labels, classes) -> np.ndarray:
    """Labels as class indices; a label outside the class set is a ``DataError``."""
    idx = {c: i for i, c in enumerate(classes)}
    try:
        return np.array([idx[y] for y in labels], dtype=np.intp)
    except KeyError as exc:
        raise DataError(f"label outside the class set: {exc.args[0]}") from None


def _class_counts(pred: np.ndarray, gold: np.ndarray, k: int):
    """Per class: true positives, predictions and gold labels."""
    tp, n_pred, n_gold = [], [], []
    for c in range(k):
        is_c = pred == c
        tp.append(np.count_nonzero(is_c & (gold == c), axis=-1))
        n_pred.append(np.count_nonzero(is_c, axis=-1))
        n_gold.append(np.count_nonzero(gold == c))
    return tp, n_pred, n_gold


def f1_report(preds, gold, classes) -> EvalReport:
    """Per-class P/R/F1 (0 convention on empty denominators) and macro F1."""
    if len(preds) != len(gold):
        raise ArgdissectError("prediction and gold lists differ in length")
    # encoded in pair order, so an error names the first bad label of the first bad pair
    pairs = _encode([y for pair in zip(preds, gold) for y in pair], classes)
    counts = _class_counts(pairs[0::2], pairs[1::2], len(classes))
    per_class = {}
    for cls, tp, pred_total, gold_total in zip(classes, *counts):
        precision = tp / pred_total if pred_total else 0.0
        recall = tp / gold_total if gold_total else 0.0
        f1 = (
            2 * precision * recall / (precision + recall)
            if (precision + recall)
            else 0.0
        )
        per_class[cls] = ClassScores(
            precision=100.0 * precision,
            recall=100.0 * recall,
            f1=100.0 * f1,
            support=int(gold_total),
        )
    macro_f1 = float(np.mean([s.f1 for s in per_class.values()]))
    return EvalReport(classes=tuple(classes), per_class=per_class, macro_f1=macro_f1)


def mfs_baseline(train_labels, classes) -> str:
    """Most frequent training label; ties broken by class order."""
    if not train_labels:
        raise ArgdissectError("empty training label list")
    y = _encode(train_labels, classes)
    return classes[int(np.argmax(_class_counts(y, y, len(classes))[2]))]


def _count_rows(pred: np.ndarray, gold: np.ndarray, k: int) -> np.ndarray:
    """(2k, m) 0/1 rows: row c marks the true positives of class c, row k + c its predictions."""
    is_pred = pred == np.arange(k)[:, None]
    return np.vstack([is_pred & (pred == gold), is_pred]).astype(float)


def _macro_f1_of_counts(counts: np.ndarray, n_gold: np.ndarray):
    """Macro F1 (0..1), one per column of (2k, B) counts: per class true positives,
    then predictions; ``n_gold`` holds the gold counts as (k, 1)."""
    k = len(n_gold)
    # tp <= n_pred, so a class neither predicted nor in gold scores 0 / 1
    return np.mean(2.0 * counts[:k] / np.maximum(counts[k:] + n_gold, 1), axis=0)


# Random values drawn per block of permutations.  rng.random((B, m)) is the
# stream of B draws of rng.random(m), so a block of B = 2**15 // m rows (at
# least one) keeps its draws at 256 KiB whatever m, and the columns taken
# from them and the mask at most that size each; a whole call peaks at about
# 0.45 MB at m = 240 and 2000 (tracemalloc).  On a 2-vCPU VM, blocks of
# 2**16 values saved about 1 ms of 19 at m = 240 for twice the memory.
_PERMUTATION_BLOCK = 2**15


def significance(
    preds_a, preds_b, gold, classes, n: int = 10000, seed: int = 0
) -> float:
    """Two-sided approximate-randomization test on the macro F1 difference.

    Each permutation swaps the two systems' predictions per instance with
    probability 0.5; p = (#{|Δperm| >= |Δobs|} + 1) / (n + 1).

    A permutation is scored from count deltas.  Macro F1 depends only on
    each class's true positives and predictions, and a swap where the two
    systems agree changes neither.  So A's counts under a permutation are
    its own counts plus, at each swapped instance where the systems
    disagree, that instance's change (B's 0/1 contributions minus A's); B's
    counts are the total minus A's, since a swap only moves counts between
    the two.  The mask still draws ``rng.random`` for every instance, so
    the stream, and with it p, is that of drawing and scoring each
    permuted prediction vector.  The counts are small integers, exact in
    floating point, and each F1 is the same arithmetic on the same values.
    """
    if n < MIN_PERMUTATIONS:
        raise ArgdissectError(f"n < {MIN_PERMUTATIONS} permutations is unstable; use more")
    if not (len(preds_a) == len(preds_b) == len(gold)):
        raise ArgdissectError("prediction lists are not aligned")
    a, b, g = (_encode(labels, classes) for labels in (preds_a, preds_b, gold))
    k, m = len(classes), len(g)

    tp_a, pred_a, n_gold = _class_counts(a, g, k)
    tp_b, pred_b, _ = _class_counts(b, g, k)
    n_gold = np.array(n_gold)[:, None]
    counts_a = np.array(tp_a + pred_a, dtype=float)[:, None]
    total = counts_a + np.array(tp_b + pred_b)[:, None]

    def f1_difference(counts):  # A's macro F1 minus B's, B holding the rest of the total
        return _macro_f1_of_counts(counts, n_gold) - _macro_f1_of_counts(total - counts, n_gold)

    obs = abs(f1_difference(counts_a))
    swaps = np.flatnonzero(a != b)
    delta = _count_rows(b[swaps], g[swaps], k) - _count_rows(a[swaps], g[swaps], k)
    rows = max(1, _PERMUTATION_BLOCK // max(m, 1))
    rng = np.random.default_rng(seed)
    hits = 0
    for start in range(0, n, rows):
        mask = rng.random((min(rows, n - start), m))[:, swaps] < 0.5
        perm = f1_difference(counts_a + delta @ mask.T.astype(float))
        hits += int(np.count_nonzero(np.abs(perm) >= obs))
    return (hits + 1) / (n + 1)


# --------------------------------------------------------------------------
# Robustness transforms over instance views


def _with_contexts(view: InstanceView, donor: InstanceView | None) -> InstanceView:
    """The view with the contexts of the donor's sides, or empty ones without a donor."""
    source = replace(view.source, context=donor.source.context if donor else EMPTY_CONTEXT)
    target = view.target
    if target is not None:
        target = replace(target, context=donor.target.context if donor else EMPTY_CONTEXT)
    return replace(view, source=source, target=target)


def randomize_contexts(views: list[InstanceView], seed: int) -> list[InstanceView]:
    """Reassign every instance's context layers from another test instance.

    Draws a uniform permutation of the test set (identity rejected and
    redrawn); EAU content layers stay untouched.
    """
    if len(views) < 2:
        raise ArgdissectError("need at least two instances to randomize contexts")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(views))
    while np.array_equal(perm, np.arange(len(views))):
        perm = rng.permutation(len(views))
    return [_with_contexts(view, views[j]) for view, j in zip(views, perm)]


def strip_contexts(views: list[InstanceView]) -> list[InstanceView]:
    """Empty all context layers; idempotent."""
    return [_with_contexts(view, None) for view in views]


# --------------------------------------------------------------------------
# ANOVA feature scoring


@dataclass
class AnovaCurve:
    f_scores: np.ndarray  # per feature index
    percentiles: np.ndarray  # ANOVA_PERCENTILES
    curves: dict[str, np.ndarray]  # type -> F value at each percentile


def _add_rows(total: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``total`` plus the sum of the rows, as numpy sums the rows of a dense
    array: for two or more columns, one row at a time in row order."""
    return np.add.reduce(np.concatenate((total[None], rows)), axis=0)


def anova_f_scores(X: FeatureMatrix, labels) -> np.ndarray:
    """One-way ANOVA F statistic per column of X.

    F = (SSB / (k-1)) / (SSW / (N-k)).  Features constant within every
    class but varying between classes get the capped-infinity sentinel;
    features constant everywhere get 0.

    The grand and per-class sums and the squared deviations read dense row
    blocks (``dense_rows``), each block added to a running sum
    (``_add_rows``): the order in which numpy sums the rows of a dense
    matrix, so the F scores are those of that dense computation, with
    temporaries of one row block, whatever the matrix's form.
    """
    labels = np.asarray(labels)
    classes, codes = np.unique(labels, return_inverse=True)
    if len(classes) < 2:
        raise ArgdissectError("ANOVA needs at least two classes")
    n, d = X.shape
    if len(labels) != n:
        raise ArgdissectError(f"{len(labels)} labels for {n} rows")
    k = len(classes)
    sizes = np.bincount(codes, minlength=k)
    for c, size in zip(classes, sizes):
        if size < 2:
            raise ArgdissectError(f"class {c!r} has fewer than two instances")

    grand_sum, sums = np.zeros(d), np.zeros((k, d))
    for lo, hi in X.row_blocks():
        rows, block_codes = X.dense_rows(lo, hi), codes[lo:hi]
        grand_sum = _add_rows(grand_sum, rows)
        for c in np.unique(block_codes).tolist():
            sums[c] = _add_rows(sums[c], rows[block_codes == c])
    grand_mean = grand_sum / n
    means = sums / sizes[:, None]
    ssb = np.zeros(d)
    for c in range(k):
        ssb += sizes[c] * (means[c] - grand_mean) ** 2
    deviations = np.zeros((k, d))  # per class, the running sum of squared deviations
    for lo, hi in X.row_blocks():
        rows, block_codes = X.dense_rows(lo, hi), codes[lo:hi]
        for c in np.unique(block_codes).tolist():
            Xc = rows[block_codes == c]
            Xc -= means[c]  # Xc is a copy: square the deviations in place
            np.square(Xc, out=Xc)
            deviations[c] = _add_rows(deviations[c], Xc)
    ssw = np.zeros(d)
    for c in range(k):
        ssw += deviations[c]
    dfb = k - 1
    dfw = n - k
    msb = ssb / dfb
    msw = ssw / dfw
    with np.errstate(divide="ignore", invalid="ignore"):
        f = msb / msw
    f = np.where(msw == 0, np.where(msb > 0, ANOVA_INF_SENTINEL, 0.0), f)
    return np.minimum(f, ANOVA_INF_SENTINEL)


def anova_scores(X: FeatureMatrix, labels, registry: FeatureRegistry) -> AnovaCurve:
    """F scores of the matrix's columns, the registry's features, plus CB/CI
    curves over ``ANOVA_PERCENTILES``."""
    f = anova_f_scores(X, labels)
    curves = {}
    for ftype in (CB, CI):
        columns = registry.columns_of(ftype)
        if columns.any():
            curves[ftype] = np.percentile(f[columns], ANOVA_PERCENTILES)
        else:
            curves[ftype] = np.zeros_like(ANOVA_PERCENTILES)
    return AnovaCurve(f_scores=f, percentiles=ANOVA_PERCENTILES, curves=curves)


def format_report(report: EvalReport, title: str = "evaluation") -> str:
    """Human-readable table."""
    lines = [title, "-" * len(title)]
    lines.append(f"{'class':<10}{'P':>8}{'R':>8}{'F1':>8}{'support':>9}")
    for cls in report.classes:
        s = report.per_class[cls]
        lines.append(
            f"{cls:<10}{s.precision:>8.1f}{s.recall:>8.1f}{s.f1:>8.1f}{s.support:>9d}"
        )
    lines.append(f"macro F1: {report.macro_f1:.1f}")
    for entry in report.significance:
        lines.append(
            f"vs {entry['baseline']}: p = {entry['p']:.4g} "
            f"(n={entry['n_permutations']}, seed={entry['seed']})"
        )
    for note in report.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)
