"""Linear SVM training by dual coordinate descent over feature vectors.

One binary machine for 2-class tasks, one-vs-rest for 3-class.  The solver
is the standard dual coordinate descent for L2-regularized hinge /
squared-hinge loss; the bias is learned through an augmented constant
feature.  Training order is driven solely by the seed, so retraining is
bit-identical.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields
from itertools import chain

import numpy as np

from .errors import ArgdissectError, ModelFormatError
from .features import FeatureRegistry, SparseVector
from .settings import check_choices, choice, from_text

FORMAT_VERSION = 1

LOSSES = ("hinge", "squared_hinge")
WEIGHTINGS = ("none", "inverse_frequency")


@dataclass(frozen=True)
class TrainConfig:
    c: float = 1.0
    loss: str = choice("squared_hinge", LOSSES)
    max_epochs: int = 1000
    tolerance: float = 1e-4
    class_weighting: str = choice("inverse_frequency", WEIGHTINGS)
    seed: int = 0

    def __post_init__(self):
        # written so that NaN fails too
        if not (self.c > 0 and self.tolerance > 0 and self.max_epochs > 0):
            raise ValueError("c, tolerance and max_epochs must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        check_choices(self)


@dataclass(frozen=True)
class Convergence:
    converged: bool  # the last epoch's max projected gradient met the tolerance
    max_pg: float  # that epoch's max |projected gradient|


@dataclass
class LinearModel:
    classes: tuple[str, ...]
    weights: dict[str, np.ndarray]  # class -> dense weight vector over the registry
    biases: dict[str, float]
    registry_id: str
    model_type: str
    task: str
    config: TrainConfig
    n_features: int
    format_version: int = FORMAT_VERSION
    dual_objectives: dict[str, list[float]] = field(default_factory=dict)
    # trained machines only: a binary model's second class mirrors the first
    convergence: dict[str, Convergence] = field(default_factory=dict)


def class_weights(labels: list[str], classes, weighting: str) -> dict[str, float]:
    """Per-class C multipliers; ``inverse_frequency`` follows n/(k*n_c)."""
    if weighting == "none":
        return {c: 1.0 for c in classes}
    counts = {c: 0 for c in classes}
    for y in labels:
        counts[y] += 1
    n, k = len(labels), len(classes)
    return {c: n / (k * counts[c]) if counts[c] else 1.0 for c in classes}


Row = tuple[np.ndarray | None, np.ndarray]  # (columns or None if dense, values)


def _rows(vectors: list[SparseVector], n_features: int) -> list[Row]:
    """Solver rows of the vectors, each with the bias column ``n_features`` appended.

    Dense rows when nnz >= n*(d+1)/4: at that density one (n, d+1) array
    takes at most twice the bytes of the sparse form (an 8 B index plus an
    8 B value per nonzero), and a coordinate step on a dense row skips the
    gather and the scatter of ``w[cols]``.
    """
    nnz = len(vectors) + sum(map(len, vectors))
    dense = 4 * nnz >= len(vectors) * (n_features + 1)
    return (_dense_rows if dense else _sparse_rows)(vectors, n_features)


def _dense_rows(vectors: list[SparseVector], n_features: int) -> list[Row]:
    """Views into one (n, d+1) array; ``cols`` is None."""
    X = np.zeros((len(vectors), n_features + 1))
    X[:, n_features] = 1.0
    for x, vec in zip(X, vectors):
        x[list(vec)] = list(vec.values())
    return [(None, x) for x in X]


def _sparse_rows(vectors: list[SparseVector], n_features: int) -> list[Row]:
    """Pairs of views into one index array and one value array."""
    nnz = len(vectors) + sum(map(len, vectors))
    indices = np.fromiter(
        chain.from_iterable((*vec, n_features) for vec in vectors), np.intp, nnz
    )
    data = np.fromiter(
        chain.from_iterable((*vec.values(), 1.0) for vec in vectors), float, nnz
    )
    ends = np.cumsum([len(vec) + 1 for vec in vectors]).tolist()
    return [
        (indices[lo:hi], data[lo:hi]) for lo, hi in zip([0] + ends, ends)
    ]


def _dcd_binary(rows: list[Row], d: int, y: np.ndarray, C_i: np.ndarray, loss: str,
                tol: float, max_epochs: int, rng: np.random.Generator):
    """Dual coordinate descent for min 0.5||w||^2 + sum_i C_i * loss_i.

    ``rows`` come from ``_rows`` over ``d`` columns, y in {-1, +1}.  Returns
    (w, dual objective per epoch, whether the last epoch's max projected
    gradient met ``tol``, that max projected gradient).  The scalars are
    Python floats: on rows of a few hundred entries numpy scalar arithmetic
    would cost more than the dot product.
    """
    n = len(rows)
    if loss == "hinge":
        D_arr = np.zeros(n)
        U = C_i.tolist()
    else:  # squared hinge
        D_arr = 1.0 / (2.0 * C_i)
        U = [float("inf")] * n
    D = D_arr.tolist()
    Qbar = [float(x.dot(x)) + D_i for (_, x), D_i in zip(rows, D)]
    y = y.tolist()

    alpha = [0.0] * n
    w = np.zeros(d)
    duals = []
    for _ in range(max_epochs):
        max_pg = 0.0
        for i in rng.permutation(n).tolist():
            cols, x = rows[i]
            a = alpha[i]
            wx = float(x.dot(w) if cols is None else x.dot(w[cols]))
            G = y[i] * wx - 1.0 + D[i] * a
            if a == 0.0:
                PG = G if G < 0.0 else 0.0
            elif a == U[i]:
                PG = G if G > 0.0 else 0.0
            else:
                PG = G
            if PG:
                if abs(PG) > max_pg:
                    max_pg = abs(PG)
                a_new = a - G / Qbar[i]
                if a_new < 0.0:
                    a_new = 0.0
                elif a_new > U[i]:
                    a_new = U[i]
                if a_new != a:
                    step = (a_new - a) * y[i]
                    if cols is None:
                        w += step * x
                    else:
                        w[cols] += step * x
                    alpha[i] = a_new
        alpha_arr = np.array(alpha)
        dual = float(
            alpha_arr.sum() - 0.5 * (w @ w) - 0.5 * float((D_arr * alpha_arr * alpha_arr).sum())
        )
        duals.append(dual)
        if max_pg < tol:
            break
    return w, duals, max_pg < tol, max_pg


def train(
    vectors: list[SparseVector],
    labels: list[str],
    config: TrainConfig,
    registry: FeatureRegistry,
    classes: tuple[str, ...],
    model_type: str = "FA",
    task: str = "f",
) -> LinearModel:
    """Train a linear model over the frozen registry's feature space."""
    if not vectors:
        raise ArgdissectError("empty training set")
    present = set(labels)
    if len(present) < 2:
        raise ArgdissectError("training set contains a single class")
    unknown = present - set(classes)
    if unknown:
        raise ArgdissectError(f"labels outside the class set: {sorted(unknown)}")

    n_features = len(registry)
    rows = _rows(vectors, n_features)
    cw = class_weights(labels, classes, config.class_weighting)
    y_arr = np.array(labels)

    weights: dict[str, np.ndarray] = {}
    biases: dict[str, float] = {}
    duals: dict[str, list[float]] = {}
    convergence: dict[str, Convergence] = {}

    # Single binary machine for 2-class problems; one-vs-rest otherwise.
    machines = [classes[0]] if len(classes) == 2 else list(classes)
    for cls in machines:
        y = np.where(y_arr == cls, 1.0, -1.0)
        C_i = np.array([config.c * cw[lab] for lab in labels])
        rng = np.random.default_rng(config.seed)
        w_aug, dual_hist, converged, max_pg = _dcd_binary(
            rows, n_features + 1, y, C_i, config.loss, config.tolerance,
            config.max_epochs, rng,
        )
        weights[cls] = w_aug[:n_features].copy()
        biases[cls] = float(w_aug[n_features])
        duals[cls] = dual_hist
        convergence[cls] = Convergence(converged, max_pg)
    if len(classes) == 2:
        weights[classes[1]] = -weights[classes[0]]
        biases[classes[1]] = -biases[classes[0]]
        duals[classes[1]] = []

    return LinearModel(
        classes=tuple(classes),
        weights=weights,
        biases=biases,
        registry_id=registry.registry_id,
        model_type=model_type,
        task=task,
        config=config,
        n_features=n_features,
        dual_objectives=duals,
        convergence=convergence,
    )


def decision_scores(model: LinearModel, vector: SparseVector) -> dict[str, float]:
    scores = {}
    for cls in model.classes:
        w = model.weights[cls]
        s = model.biases[cls]
        for idx, val in vector.items():
            if idx >= model.n_features:
                raise ArgdissectError(
                    f"feature index {idx} outside the model's registry"
                )
            s += w[idx] * val
        scores[cls] = s
    return scores


def predict(model: LinearModel, vector: SparseVector) -> tuple[str, dict[str, float]]:
    """Argmax of the per-class decision values; ties go to the earlier class."""
    scores = decision_scores(model, vector)
    best = max(model.classes, key=lambda c: (scores[c], -model.classes.index(c)))
    return best, scores


def predict_all(model: LinearModel, vectors: list[SparseVector]) -> list[str]:
    return [predict(model, v)[0] for v in vectors]


# --------------------------------------------------------------------------
# Serialization: versioned, checksummed text format.


def _model_body(model: LinearModel) -> str:
    cfg = model.config
    lines = [
        f"task={model.task}",
        f"model_type={model.model_type}",
        "classes=" + ",".join(model.classes),
        f"registry_id={model.registry_id}",
        f"n_features={model.n_features}",
        "config=" + ",".join(f"{f.name}:{getattr(cfg, f.name)}" for f in fields(cfg)),
    ]
    for cls in model.classes:
        w = model.weights[cls]
        for idx in np.nonzero(w)[0]:
            lines.append(f"{cls}\t{idx}\t{float(w[idx]).hex()}")
        lines.append(f"{cls}\tbias\t{model.biases[cls].hex()}")
    return "\n".join(lines) + "\n"


def save_model(model: LinearModel, path) -> None:
    body = _model_body(model)
    checksum = hashlib.sha256(body.encode("utf-8")).hexdigest()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"argdissect-model v{model.format_version}\n")
        fh.write(f"checksum={checksum}\n")
        fh.write(body)


def load_model(path) -> LinearModel:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        checksum_line = fh.readline().rstrip("\n")
        body = fh.read()
    if not header.startswith("argdissect-model v"):
        raise ModelFormatError("not a model file")
    version = header.removeprefix("argdissect-model v")
    if version != str(FORMAT_VERSION):
        raise ModelFormatError(f"unsupported model format version {version}")
    if not checksum_line.startswith("checksum="):
        raise ModelFormatError("missing checksum line")
    expected = checksum_line.removeprefix("checksum=")
    actual = hashlib.sha256(body.encode("utf-8")).hexdigest()
    if actual != expected:
        raise ModelFormatError("checksum mismatch: file is corrupt or truncated")

    try:
        return _parse_model_body(body)
    except KeyError as exc:
        raise ModelFormatError(f"model file lacks {exc}") from None
    except ValueError as exc:
        raise ModelFormatError(f"malformed model file: {exc}") from None


def _parse_model_body(body: str) -> LinearModel:
    """The model in a checksum-verified body; KeyError or ValueError if malformed."""
    meta: dict[str, str] = {}
    triplets: list[list[str]] = []
    for line in body.split("\n"):
        if "\t" in line:
            triplets.append(line.split("\t"))
        elif line:
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"not a key=value line: {line!r}")
            meta[key] = value

    classes = tuple(meta["classes"].split(","))
    n_features = int(meta["n_features"])
    cfg_parts = dict(p.split(":", 1) for p in meta["config"].split(","))
    config = TrainConfig(
        **{f.name: from_text(cfg_parts[f.name], f.default) for f in fields(TrainConfig)}
    )
    weights = {cls: np.zeros(n_features) for cls in classes}
    biases = {cls: 0.0 for cls in classes}
    for cls, key, value in triplets:
        if cls not in weights:
            raise ValueError(f"weight line for unknown class {cls!r}")
        if key == "bias":
            biases[cls] = float.fromhex(value)
            continue
        idx = int(key)
        if not 0 <= idx < n_features:
            raise ValueError(f"feature index {idx} outside 0..{n_features - 1}")
        weights[cls][idx] = float.fromhex(value)
    return LinearModel(
        classes=classes,
        weights=weights,
        biases=biases,
        registry_id=meta["registry_id"],
        model_type=meta["model_type"],
        task=meta["task"],
        config=config,
        n_features=n_features,
    )
