"""Linear SVM training over a feature matrix, one column per registry name.

A ``DenseMatrix`` is already the dense solver rows, bias column included,
and is trained and predicted on as it is.  A ``CsrMatrix`` densifies when
it meets ``features.dense_rule`` (``CsrMatrix.to_dense``, row block by row
block into the one array it fills), and otherwise stays sparse.  Sparse
solver rows keep their own ``intp`` copy of the matrix's narrow column
indices (``features.index_dtype``): the solver gathers by them on every
pass, numpy casts a narrow index array on every gather, and the bias
column's index, the matrix's width, may not fit the narrow type.

One binary machine for 2-class tasks, one-vs-rest for 3-class, each
minimising the L2-regularized hinge or squared-hinge loss; the bias is
learned through an augmented constant feature.

A squared-hinge machine is solved exactly in the primal by a finite
Newton method (``_newton_sqhinge``) whenever its D x D Hessian, D the
number of columns with the bias, holds no more entries than the solver
rows do; every machine's first step, where every row is active, starts
from one Hessian that the model builds once.  Dual coordinate descent
(DCD) then starts from the dual point of that solution, alpha_i = 2 C_i
max(0, 1 - y_i w.x_i), and checks every coordinate's projected gradient
there: this certificate is the first epoch and the first dual objective.
Only if it fails do epochs of coordinate ascent follow.  A hinge machine,
and a squared-hinge machine over a feature space too wide for the
Hessian, is trained by plain DCD from zero.  ``max_epochs`` caps the DCD
epochs, the certificate included, never the Newton steps.  The coordinate
order is driven solely by the seed, so retraining is bit-identical; the
generator is made only when a coordinate epoch runs.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ArgdissectError, DataError, ModelFormatError
from .features import CsrMatrix, FeatureMatrix, FeatureRegistry, dense_rule
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
        if not (0 < self.c < math.inf and 0 < self.tolerance < math.inf):
            raise ValueError("c and tolerance must be positive and finite")
        if not self.max_epochs > 0:
            raise ValueError("max_epochs must be positive")
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
# Bounds the two (rows, D) float temporaries of one Hessian update block.
# At D = 179 a block holds 183 rows, so a first build over 24,000 rows takes
# 132 GEMMs rather than 375 64-row ones.  Larger blocks raise the peak memory
# of a small job by what they hold (4 MB blocks: +2.5 MB on a 46 MB job).
HESSIAN_BLOCK_BYTES = 1 << 19


def _sparse(X: FeatureMatrix) -> bool:
    """Whether the solver and prediction read ``X`` in sparse form: a
    ``CsrMatrix`` that fails ``dense_rule``."""
    return isinstance(X, CsrMatrix) and not dense_rule(*X.shape, len(X.data))


class _DenseRows:
    """Solver rows as one (n, D) array, the bias column last: the matrix's
    ``to_dense`` array, which for a ``DenseMatrix`` is its own, not a copy."""

    def __init__(self, X: FeatureMatrix):
        self.X = X.to_dense().rows
        self.shape = self.X.shape
        self.stored = self.X.size  # entries held

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
    """Solver rows in compressed sparse row form, the bias column last, with
    ``intp`` column indices whatever the matrix's index type.  The indices
    are widened before the bias column d is inserted: at a width of 256 or
    65,536, d does not fit the matrix's index type."""

    def __init__(self, X: CsrMatrix):
        n, d = X.shape
        ends = X.indptr[1:]
        self.indptr = X.indptr + np.arange(n + 1)
        self.indices = np.insert(X.indices.astype(np.intp, copy=False), ends, d)
        self.data = np.insert(X.data, ends, 1.0)
        self.lengths = np.diff(self.indptr)
        self.shape = (n, d + 1)
        self.stored = len(self.data)

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


def _solver_rows(X: FeatureMatrix) -> SolverRows:
    """Solver rows in the form ``_sparse`` picks, with a bias column of ones last."""
    return _SparseRows(X) if _sparse(X) else _DenseRows(X)


def _update_hessian(H: np.ndarray, X: SolverRows, C_i: np.ndarray,
                    active: np.ndarray, was_active: np.ndarray) -> None:
    """Move ``H`` = I + 2 X_I^T diag(C_I) X_I from the set ``was_active`` to ``active``.

    Only the rows whose membership changed are added or subtracted, in
    blocks whose temporaries take at most ``HESSIAN_BLOCK_BYTES``; from
    ``np.eye`` and an empty ``was_active`` this builds the Hessian.
    """
    changed = np.flatnonzero(active != was_active)
    weights = np.where(active[changed], 2.0, -2.0) * C_i[changed]
    rows = max(1, HESSIAN_BLOCK_BYTES // (2 * 8 * X.shape[1]))
    for lo in range(0, len(changed), rows):
        B = X.block(changed[lo:lo + rows])
        H += (B.T * weights[lo:lo + rows]) @ B


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


def _first_hessian(X: SolverRows, C_i: np.ndarray) -> np.ndarray:
    """I + 2 X^T diag(C) X over every row: the Hessian of the first Newton step
    of every machine over ``X`` and ``C_i``, as there every row is active.
    Built as that step builds it, so it is the same to the bit."""
    n = X.shape[0]
    H = np.eye(X.shape[1])
    _update_hessian(H, X, C_i, np.ones(n, dtype=bool), np.zeros(n, dtype=bool))
    return H


def _newton_sqhinge(X: SolverRows, y: np.ndarray, C_i: np.ndarray,
                    first_hessian: np.ndarray | None = None) -> tuple[np.ndarray, int]:
    """Minimise 0.5||w||^2 + sum_i C_i max(0, 1 - y_i w.x_i)^2; returns (w, Newton steps).

    The modified finite Newton method (Keerthi & DeCoste, JMLR 2005; the
    primal of LIBLINEAR ``-s 2``).  A step solves the generalized Hessian
    system (I + 2 X_I^T diag(C_I) X_I) s = -grad over the active set
    I = {i : y_i w.x_i < 1} directly, then minimises exactly along s.  The
    Hessian is built at the first step, or copied from ``first_hessian``
    (``_first_hessian(X, C_i)``, which the one-vs-rest machines share), and
    then updated only by the rows that entered or left I.  It stops when
    the line minimum keeps the active set, as that step minimised the
    quadratic piece holding the optimum, or when a step no longer lowers
    the objective (rounding), or after ``NEWTON_MAX_ITERATIONS`` steps.
    """
    n, D = X.shape
    if first_hessian is None:
        H, in_H = np.eye(D), np.zeros(n, dtype=bool)
    else:
        H, in_H = first_hessian.copy(), np.ones(n, dtype=bool)
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
        try:
            s = np.linalg.solve(H, -grad)
        except np.linalg.LinAlgError:  # the identity is lost in a huge C X^T X
            s = None
        if s is None or not np.isfinite(s).all():
            raise DataError(
                "the Newton system is singular or not finite: c is too large for this data"
            )
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
                max_epochs: int, seed: int, alpha: np.ndarray | None = None):
    """Dual coordinate descent for min 0.5||w||^2 + sum_i C_i * loss_i.

    ``X`` comes from ``_solver_rows``, y in {-1, +1}.  From ``alpha`` = None it
    starts at zero.  Given a warm start ``alpha`` (w = sum_i alpha_i y_i x_i)
    it first computes every coordinate's projected gradient there, vectorized:
    the certificate, the first epoch and the first dual objective; epochs of
    coordinate ascent follow only if it fails.  Their coordinate order is
    drawn from ``np.random.default_rng(seed)``, made just before the first
    of them, so a machine the certificate settles never imports
    ``numpy.random``.  Returns (w, dual objective per epoch, whether the last
    epoch's max projected gradient met ``tol``, that max projected
    gradient).  In the coordinate loop the scalars are Python floats: on rows
    of a few hundred entries numpy scalar arithmetic would cost more than
    the dot product.
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
    rng = np.random.default_rng(seed)
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
    X: FeatureMatrix,
    labels: list[str],
    config: TrainConfig,
    registry: FeatureRegistry,
    classes: tuple[str, ...],
    model_type: str = "FA",
    task: str = "f",
) -> LinearModel:
    """Train a linear model over the frozen registry's feature space.

    ``X`` has one row per label and one column per registry name.
    """
    if not len(X):
        raise ArgdissectError("empty training set")
    present = set(labels)
    if len(present) < 2:
        raise ArgdissectError("training set contains a single class")
    unknown = present - set(classes)
    if unknown:
        raise ArgdissectError(f"labels outside the class set: {sorted(unknown)}")

    n_features = len(registry)
    if X.shape != (len(labels), n_features):
        raise ArgdissectError(
            f"feature matrix of shape {X.shape} for {len(labels)} labels "
            f"and {n_features} registry features"
        )
    X = _solver_rows(X)
    cw = class_weights(labels, classes, config.class_weighting)
    C_i = np.array([config.c * cw[lab] for lab in labels])
    y_arr = np.array(labels)
    D = X.shape[1]
    # the Newton step solves a D x D system; on a feature space wide enough
    # that it outgrows the rows themselves, DCD from zero serves instead
    newton = config.loss == "squared_hinge" and D * D <= X.stored
    first_hessian = _first_hessian(X, C_i) if newton else None

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
            w_opt, newton_iterations = _newton_sqhinge(X, y, C_i, first_hessian)
            alpha = 2.0 * C_i * np.maximum(0.0, 1.0 - y * X.dot(w_opt))
        w_aug, dual_hist, converged, max_pg = _dcd_binary(
            X, y, C_i, config.loss, config.tolerance, config.max_epochs, config.seed, alpha
        )
        if not np.isfinite(w_aug).all():
            raise DataError(
                f"training with c = {config.c} gives non-finite weights for class {cls}; "
                "use a smaller c"
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


def decision_values(model: LinearModel, X: FeatureMatrix) -> np.ndarray:
    """X @ W + b: one row per instance, one column per class."""
    if X.shape[1] != model.n_features:
        raise ArgdissectError(
            f"feature matrix has {X.shape[1]} columns, the model's registry "
            f"{model.n_features}"
        )
    W = np.column_stack([model.weights[c] for c in model.classes])
    b = np.array([model.biases[c] for c in model.classes])
    if not _sparse(X):
        return X.toarray() @ W + b
    rows = X.row_ids()
    return np.column_stack([
        np.bincount(rows, X.data * w[X.indices], len(X)) for w in W.T
    ]) + b


def predict_all(model: LinearModel, X: FeatureMatrix) -> list[str]:
    """Argmax of the per-class decision values; ties go to the earlier class."""
    return [model.classes[k] for k in np.argmax(decision_values(model, X), axis=1).tolist()]


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
        fh.write(f"argdissect-model v{FORMAT_VERSION}\n")
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
