"""Linear SVM training over feature vectors.

One binary machine for 2-class tasks, one-vs-rest for 3-class, each
minimising the L2-regularized hinge or squared-hinge loss; the bias is
learned through an augmented constant feature.

A squared-hinge machine is solved exactly in the primal by a finite
Newton method (``_newton_sqhinge``) whenever its D x D Hessian, D the
number of columns with the bias, holds no more entries than the solver
rows do.  Dual coordinate descent (DCD) then starts from the dual point
of that solution, alpha_i = 2 C_i max(0, 1 - y_i w.x_i), and checks every
coordinate's projected gradient there: this certificate is the first
epoch and the first dual objective.  Only if it fails do epochs of
coordinate ascent follow.  A hinge machine, and a squared-hinge machine
over a feature space too wide for the Hessian, is trained by plain DCD
from zero.  ``max_epochs`` caps the DCD epochs, the certificate
included, never the Newton steps.  The coordinate order is driven solely
by the seed, so retraining is bit-identical.
"""

from __future__ import annotations

import hashlib
import math
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
    newton_iterations: int  # primal Newton steps before the DCD epochs; 0 for plain DCD


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

NEWTON_MAX_ITERATIONS = 100
HESSIAN_BLOCK_ROWS = 64  # bounds the temporaries of a Hessian update to 64 x D


class _DenseRows:
    """Solver rows as one (n, D) array, the bias column last."""

    def __init__(self, X: np.ndarray):
        self.X = X
        self.shape = X.shape
        self.stored = X.size  # entries held

    def dot(self, v: np.ndarray) -> np.ndarray:
        """X v"""
        return self.X @ v

    def tdot(self, u: np.ndarray) -> np.ndarray:
        """X^T u"""
        return u @ self.X

    def block(self, rows: np.ndarray) -> np.ndarray:
        """The given rows as a dense (len(rows), D) array."""
        return self.X[rows]

    def views(self) -> list[Row]:
        """Per-row views for coordinate descent; ``cols`` is None."""
        return [(None, x) for x in self.X]


class _SparseRows:
    """Solver rows in compressed sparse row form, the bias column last."""

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, d: int):
        self.indptr, self.indices, self.data = indptr, indices, data
        self.lengths = np.diff(indptr)
        self.shape = (len(indptr) - 1, d)
        self.stored = len(data)

    def dot(self, v: np.ndarray) -> np.ndarray:
        # every row holds its bias entry, so no reduceat segment is empty
        return np.add.reduceat(self.data * v[self.indices], self.indptr[:-1])

    def tdot(self, u: np.ndarray) -> np.ndarray:
        return np.bincount(
            self.indices, np.repeat(u, self.lengths) * self.data, self.shape[1]
        )

    def block(self, rows: np.ndarray) -> np.ndarray:
        B = np.zeros((len(rows), self.shape[1]))
        for b, i in enumerate(rows.tolist()):
            lo, hi = self.indptr[i], self.indptr[i + 1]
            B[b, self.indices[lo:hi]] = self.data[lo:hi]
        return B

    def views(self) -> list[Row]:
        """Per-row pairs of views into the index and the value array."""
        bounds = self.indptr.tolist()
        return [
            (self.indices[lo:hi], self.data[lo:hi]) for lo, hi in zip(bounds, bounds[1:])
        ]


SolverRows = _DenseRows | _SparseRows


def _rows(vectors: list[SparseVector], n_features: int) -> SolverRows:
    """Solver rows of the vectors, each with the bias column ``n_features`` appended.

    Dense rows when nnz >= n*(d+1)/4: at that density one (n, d+1) array
    takes at most twice the bytes of the sparse form (an 8 B index plus an
    8 B value per nonzero), and a coordinate step on a dense row skips the
    gather and the scatter of ``w[cols]``.
    """
    nnz = len(vectors) + sum(map(len, vectors))
    dense = 4 * nnz >= len(vectors) * (n_features + 1)
    return (_dense_rows if dense else _sparse_rows)(vectors, n_features)


def _dense_rows(vectors: list[SparseVector], n_features: int) -> _DenseRows:
    X = np.zeros((len(vectors), n_features + 1))
    X[:, n_features] = 1.0
    for x, vec in zip(X, vectors):
        x[list(vec)] = list(vec.values())
    return _DenseRows(X)


def _sparse_rows(vectors: list[SparseVector], n_features: int) -> _SparseRows:
    nnz = len(vectors) + sum(map(len, vectors))
    indices = np.fromiter(
        chain.from_iterable((*vec, n_features) for vec in vectors), np.intp, nnz
    )
    data = np.fromiter(
        chain.from_iterable((*vec.values(), 1.0) for vec in vectors), float, nnz
    )
    indptr = np.zeros(len(vectors) + 1, np.intp)
    np.cumsum([len(vec) + 1 for vec in vectors], out=indptr[1:])
    return _SparseRows(indptr, indices, data, n_features + 1)


def _update_hessian(H: np.ndarray, X: SolverRows, C_i: np.ndarray,
                    active: np.ndarray, was_active: np.ndarray) -> None:
    """Move ``H`` = I + 2 X_I^T diag(C_I) X_I from the set ``was_active`` to ``active``.

    Only the rows whose membership changed are added or subtracted, in
    blocks of at most ``HESSIAN_BLOCK_ROWS``; from ``np.eye`` and an empty
    ``was_active`` this builds the Hessian.
    """
    changed = np.flatnonzero(active != was_active)
    weights = np.where(active[changed], 2.0, -2.0) * C_i[changed]
    for lo in range(0, len(changed), HESSIAN_BLOCK_ROWS):
        B = X.block(changed[lo:lo + HESSIAN_BLOCK_ROWS])
        H += (B.T * weights[lo:lo + HESSIAN_BLOCK_ROWS]) @ B


def _line_search(slack: np.ndarray, q: np.ndarray, C_i: np.ndarray,
                 ws: float, ss: float) -> tuple[float, bool]:
    """Exact minimiser t of f(w + t s) along a descent step s.

    ``slack`` = 1 - y X w and ``q`` = y X s, so row i's slack at t is
    slack_i - t q_i, and df/dt = ws + t ss - 2 sum_i C_i q_i (slack_i - t q_i)_+
    is piecewise linear and non-decreasing in t, with a knot where a row
    enters or leaves the active set.  Returns t and whether it lies before
    the first knot, i.e. the active set at w + t s is that at w.
    """
    active = slack > 0.0
    A = ss + 2.0 * (C_i[active] @ q[active] ** 2)
    B = ws - 2.0 * (C_i[active] @ (q[active] * slack[active]))
    leaving = active & (q > 0.0)
    entering = ~active & (q < 0.0)
    knots = np.flatnonzero(leaving | entering)
    at = slack[knots] / q[knots]
    order = np.argsort(at, kind="stable")
    knots, at = knots[order], at[order]
    sign = np.where(entering[knots], 2.0, -2.0) * C_i[knots]
    A_piece = np.concatenate(([A], A + np.cumsum(sign * q[knots] ** 2)))
    B_piece = np.concatenate(([B], B - np.cumsum(sign * q[knots] * slack[knots])))
    # df/dt at each knot, from the piece to its left; the first non-negative
    # value closes the piece holding the root
    past = np.flatnonzero(A_piece[:-1] * at + B_piece[:-1] >= 0.0)
    piece = past[0] if past.size else len(at)
    return float(-B_piece[piece] / A_piece[piece]), piece == 0


def _newton_sqhinge(X: SolverRows, y: np.ndarray, C_i: np.ndarray) -> tuple[np.ndarray, int]:
    """Minimise 0.5||w||^2 + sum_i C_i max(0, 1 - y_i w.x_i)^2; returns (w, Newton steps).

    The modified finite Newton method (Keerthi & DeCoste, JMLR 2005; the
    primal of LIBLINEAR ``-s 2``).  A step solves the generalized Hessian
    system (I + 2 X_I^T diag(C_I) X_I) s = -grad over the active set
    I = {i : y_i w.x_i < 1} directly, then minimises exactly along s.  The
    Hessian is built at the first step and then updated only by the rows
    that entered or left I.  It stops when the line minimum keeps the
    active set, as that step minimised the quadratic piece holding the
    optimum, or when a step no longer lowers the objective (rounding), or
    after ``NEWTON_MAX_ITERATIONS`` steps.
    """
    n, D = X.shape
    H = np.eye(D)
    in_H = np.zeros(n, dtype=bool)
    w = np.zeros(D)
    slack = np.ones(n)
    objective = float(C_i.sum())
    for step in range(1, NEWTON_MAX_ITERATIONS + 1):
        active = slack > 0.0
        grad = w - 2.0 * X.tdot(np.where(active, C_i * slack * y, 0.0))
        if not grad.any():
            return w, step - 1
        _update_hessian(H, X, C_i, active, in_H)
        in_H = active
        s = np.linalg.solve(H, -grad)
        q = y * X.dot(s)
        t, kept = _line_search(slack, q, C_i, float(w @ s), float(s @ s))
        w += t * s
        slack -= t * q
        previous, objective = objective, 0.5 * float(w @ w) + float(
            C_i @ np.maximum(slack, 0.0) ** 2
        )
        if kept or objective >= previous:
            return w, step
    return w, NEWTON_MAX_ITERATIONS


def _dcd_binary(X: SolverRows, y: np.ndarray, C_i: np.ndarray, loss: str, tol: float,
                max_epochs: int, rng: np.random.Generator, alpha: np.ndarray | None = None):
    """Dual coordinate descent for min 0.5||w||^2 + sum_i C_i * loss_i.

    ``X`` comes from ``_rows``, y in {-1, +1}.  From ``alpha`` = None it
    starts at zero.  Given a warm start ``alpha`` (w = sum_i alpha_i y_i x_i)
    it first computes every coordinate's projected gradient there, vectorized:
    the certificate, the first epoch and the first dual objective; epochs of
    coordinate ascent follow only if it fails.  Returns (w, dual objective per
    epoch, whether the last epoch's max projected gradient met ``tol``, that
    max projected gradient).  In the coordinate loop the scalars are Python
    floats: on rows of a few hundred entries numpy scalar arithmetic would
    cost more than the dot product.
    """
    n = X.shape[0]
    if loss == "hinge":
        D_arr = np.zeros(n)
        U_arr = C_i
    else:  # squared hinge
        D_arr = 1.0 / (2.0 * C_i)
        U_arr = np.full(n, float("inf"))

    def dual(alpha_arr, w):
        return float(
            alpha_arr.sum() - 0.5 * (w @ w) - 0.5 * float((D_arr * alpha_arr * alpha_arr).sum())
        )

    duals = []
    if alpha is None:
        alpha = np.zeros(n)
        w = np.zeros(X.shape[1])
    else:
        w = X.tdot(alpha * y)
        G = y * X.dot(w) - 1.0 + D_arr * alpha
        PG = np.where(alpha == 0.0, np.minimum(G, 0.0),
                      np.where(alpha == U_arr, np.maximum(G, 0.0), G))
        max_pg = float(np.abs(PG).max())
        duals.append(dual(alpha, w))
        if max_pg < tol or max_epochs == 1:
            return w, duals, max_pg < tol, max_pg

    rows = X.views()
    D = D_arr.tolist()
    U = U_arr.tolist()
    Qbar = [float(x.dot(x)) + D_i for (_, x), D_i in zip(rows, D)]
    y = y.tolist()
    alpha = alpha.tolist()
    for _ in range(max_epochs - len(duals)):
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
        duals.append(dual(np.array(alpha), w))
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
    X = _rows(vectors, n_features)
    cw = class_weights(labels, classes, config.class_weighting)
    C_i = np.array([config.c * cw[lab] for lab in labels])
    y_arr = np.array(labels)
    D = X.shape[1]
    # the Newton step solves a D x D system; on a feature space wide enough
    # that it outgrows the rows themselves, DCD from zero serves instead
    newton = config.loss == "squared_hinge" and D * D <= X.stored

    weights: dict[str, np.ndarray] = {}
    biases: dict[str, float] = {}
    duals: dict[str, list[float]] = {}
    convergence: dict[str, Convergence] = {}

    # Single binary machine for 2-class problems; one-vs-rest otherwise.
    machines = [classes[0]] if len(classes) == 2 else list(classes)
    for cls in machines:
        y = np.where(y_arr == cls, 1.0, -1.0)
        alpha, newton_iterations = None, 0
        if newton:
            w_opt, newton_iterations = _newton_sqhinge(X, y, C_i)
            alpha = 2.0 * C_i * np.maximum(0.0, 1.0 - y * X.dot(w_opt))
        w_aug, dual_hist, converged, max_pg = _dcd_binary(
            X, y, C_i, config.loss, config.tolerance, config.max_epochs,
            np.random.default_rng(config.seed), alpha,
        )
        weights[cls] = w_aug[:n_features].copy()
        biases[cls] = float(w_aug[n_features])
        duals[cls] = dual_hist
        convergence[cls] = Convergence(converged, max_pg, newton_iterations)
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
    except (ValueError, OverflowError) as exc:
        raise ModelFormatError(f"malformed model file: {exc}") from None


def _parse_model_body(body: str) -> LinearModel:
    """The model in a checksum-verified body.

    Raises KeyError, ValueError or OverflowError if the body is malformed.
    """
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
    for cls, key, text in triplets:
        if cls not in weights:
            raise ValueError(f"weight line for unknown class {cls!r}")
        value = float.fromhex(text)
        if not math.isfinite(value):
            raise ValueError(f"non-finite weight {text!r} for {cls} {key}")
        if key == "bias":
            biases[cls] = value
            continue
        idx = int(key)
        if not 0 <= idx < n_features:
            raise ValueError(f"feature index {idx} outside 0..{n_features - 1}")
        weights[cls][idx] = value
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
