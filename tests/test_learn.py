import hashlib
import itertools
import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize, minimize_scalar

from argdissect import learn
from argdissect.errors import ArgdissectError, DataError, ModelFormatError
from argdissect.features import FeatureRegistry, dense_rule, index_dtype
from argdissect.learn import (
    NEWTON_MAX_ITERATIONS,
    Convergence,
    LinearModel,
    TrainConfig,
    _DenseRows,
    _SparseRows,
    _dcd_binary,
    _first_hessian,
    _line_search,
    _newton_sqhinge,
    _solver_rows,
    _update_hessian,
    class_weights,
    decision_values,
    load_model,
    predict_all,
    save_model,
    train,
)

from conftest import csr_of


def registry_of(n):
    reg = FeatureRegistry()
    for k in range(n):
        reg.index(f"lex:eau:src:w{k}")
    reg.freeze()
    return reg


def _dense(X):
    """Whether the CSR matrix ``X`` meets the density rule."""
    return dense_rule(*X.shape, len(X.data))


def dense_to_sparse(rows):
    return [{j: v for j, v in enumerate(row) if v != 0.0} for row in rows]


def _rows(vectors, d):
    """Solver rows as ``train`` builds them: dense or sparse by density."""
    return _solver_rows(csr_of(vectors, d))


def _dense_rows(vectors, d):
    return _DenseRows(csr_of(vectors, d))


def _sparse_rows(vectors, d):
    return _SparseRows(csr_of(vectors, d))


# ``extract_matrix`` makes column indices of the narrowest type the width
# allows (``features.index_dtype``); the rows must not depend on it
def _dense_rows_int32(vectors, d):
    return _DenseRows(csr_of(vectors, d, np.int32))


def _sparse_rows_int32(vectors, d):
    return _SparseRows(csr_of(vectors, d, np.int32))


def _dense_rows_uint16(vectors, d):
    return _DenseRows(csr_of(vectors, d, np.uint16))


def _sparse_rows_uint16(vectors, d):
    return _SparseRows(csr_of(vectors, d, np.uint16))


def _dense_rows_uint8(vectors, d):
    return _DenseRows(csr_of(vectors, d, np.uint8))


def _sparse_rows_uint8(vectors, d):
    return _SparseRows(csr_of(vectors, d, np.uint8))


ROW_FORMS = [
    _dense_rows, _sparse_rows, _dense_rows_int32, _sparse_rows_int32,
    _dense_rows_uint16, _sparse_rows_uint16, _dense_rows_uint8, _sparse_rows_uint8,
]
INDEX_DTYPES = (np.intp, np.int32, np.uint16, np.uint8)


def separable_data():
    rows = [
        [2.0, 0.0],
        [1.5, 0.3],
        [1.0, 0.1],
        [0.0, 2.0],
        [0.2, 1.5],
        [0.1, 1.0],
    ]
    labels = ["support", "support", "support", "attack", "attack", "attack"]
    return csr_of(dense_to_sparse(rows), 2), labels, rows


def test_separable_data_fit_perfectly():
    X, labels, _ = separable_data()
    reg = registry_of(2)
    model = train(X, labels, TrainConfig(), reg, ("support", "attack"))
    assert predict_all(model, X) == labels


def test_binary_machine_is_antisymmetric():
    X, labels, _ = separable_data()
    model = train(X, labels, TrainConfig(), registry_of(2), ("support", "attack"))
    assert np.array_equal(model.weights["attack"], -model.weights["support"])
    assert model.biases["attack"] == -model.biases["support"]


def test_weights_match_primal_oracle():
    # Independent check: minimize the primal squared-hinge objective directly
    # (bias folded in as a regularized constant feature) and compare.
    X_train, labels, rows = separable_data()
    config = TrainConfig(c=1.0, loss="squared_hinge", class_weighting="none",
                         tolerance=1e-8, max_epochs=5000)
    model = train(X_train, labels, config, registry_of(2), ("support", "attack"))

    X = np.array([r + [1.0] for r in rows])
    y = np.array([1.0 if lab == "support" else -1.0 for lab in labels])

    def primal(w):
        margins = np.maximum(0.0, 1.0 - y * (X @ w))
        return 0.5 * w @ w + (margins ** 2).sum()

    res = minimize(primal, np.zeros(3), method="BFGS", tol=1e-12)
    expected = res.x
    got = np.append(model.weights["support"], model.biases["support"])
    assert np.allclose(got, expected, atol=1e-4)


def test_hinge_loss_also_separates():
    X, labels, _ = separable_data()
    config = TrainConfig(loss="hinge")
    model = train(X, labels, config, registry_of(2), ("support", "attack"))
    assert predict_all(model, X) == labels


def test_dual_objective_non_decreasing():
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(40, 6))
    labels = ["a" if r[0] + 0.3 * r[1] > 0 else "b" for r in rows]
    X = csr_of(dense_to_sparse(rows.tolist()), 6)
    model = train(X, labels, TrainConfig(), registry_of(6), ("a", "b"))
    duals = model.dual_objectives["a"]
    assert len(duals) >= 1
    for earlier, later in zip(duals, duals[1:]):
        assert later >= earlier - 1e-9


def test_training_is_seed_deterministic():
    rng = np.random.default_rng(11)
    rows = rng.normal(size=(30, 4))
    labels = ["a" if r.sum() > 0 else "b" for r in rows]
    X = csr_of(dense_to_sparse(rows.tolist()), 4)
    reg = registry_of(4)
    m1 = train(X, labels, TrainConfig(seed=3), reg, ("a", "b"))
    m2 = train(X, labels, TrainConfig(seed=3), reg, ("a", "b"))
    assert np.array_equal(m1.weights["a"], m2.weights["a"])
    assert m1.biases["a"] == m2.biases["a"]


def test_three_class_one_vs_rest():
    rows = [
        [3.0, 0.0, 0.0],
        [2.5, 0.1, 0.0],
        [0.0, 3.0, 0.0],
        [0.1, 2.5, 0.0],
        [0.0, 0.0, 3.0],
        [0.0, 0.1, 2.5],
    ]
    labels = ["support", "support", "attack", "attack", "none", "none"]
    X = csr_of(dense_to_sparse(rows), 3)
    model = train(
        X, labels, TrainConfig(), registry_of(3), ("support", "attack", "none")
    )
    assert set(model.weights) == {"support", "attack", "none"}
    assert predict_all(model, X) == labels


# ---------------------------------------------------------------------------
# solver rows: dense and sparse


def random_problem(seed, n=60, d=12, density=0.3):
    """Sparse vectors, labels in {-1, +1} and per-instance C of a random problem."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d)) * (rng.random((n, d)) < density)
    y = np.where(X @ rng.normal(size=d) + 0.3 * rng.normal(size=n) > 0, 1.0, -1.0)
    C_i = np.where(y > 0, 1.0, 2.5)
    return dense_to_sparse(X.tolist()), y, C_i


def test_rows_follow_density():
    vectors, _, _ = random_problem(0, density=0.6)
    assert all(cols is None for cols, _ in _rows(vectors, 12).views())
    vectors, _, _ = random_problem(0, d=400, density=0.02)
    rows = _rows(vectors, 400).views()
    assert all(cols is not None for cols, _ in rows)
    # the bias column is appended to every row
    assert all(cols[-1] == 400 and x[-1] == 1.0 for cols, x in rows)
    # sparse rows gather by intp columns whatever the matrix's index type
    for make in (_sparse_rows_int32, _sparse_rows_uint16):
        sparse = make(vectors, 400)
        assert sparse.indices.dtype == np.intp
        assert np.array_equal(sparse.indices, _sparse_rows(vectors, 400).indices)


@pytest.mark.parametrize("d", [255, 256, 257])
def test_narrow_indices_train_and_predict_as_intp_ones(d):
    """At a width of 256 the bias column's index does not fit ``uint8``:
    sparse solver rows widen the indices before they insert it."""
    vectors, y, _ = random_problem(5, n=80, d=d, density=0.02)
    labels = ["support" if v > 0 else "attack" for v in y]
    wide, narrow = csr_of(vectors, d), csr_of(vectors, d, index_dtype(d))
    assert narrow.indices.dtype == (np.uint8 if d <= 256 else np.uint16)
    rows = _solver_rows(narrow)
    assert isinstance(rows, _SparseRows)
    assert np.array_equal(rows.indices, _solver_rows(wide).indices)
    assert all(cols[-1] == d for cols, _ in rows.views())
    models = [
        train(X, labels, TrainConfig(), registry_of(d), ("support", "attack"))
        for X in (wide, narrow)
    ]
    for cls in ("support", "attack"):
        assert np.array_equal(models[1].weights[cls], models[0].weights[cls])
        assert models[1].biases[cls] == models[0].biases[cls]
    for X in (wide, narrow):
        assert np.array_equal(decision_values(models[1], X), decision_values(models[0], wide))
        assert predict_all(models[1], X) == predict_all(models[0], wide)


def random_fill(n, d, nnz, seed):
    """An (n, d) array with nnz nonzeros at random cells."""
    rng = np.random.default_rng(seed)
    X = np.zeros((n, d))
    X.flat[rng.permutation(n * d)[:nnz]] = rng.random(nnz) + 0.5
    return X


@pytest.mark.parametrize("n, d", [(1, 3), (4, 7), (10, 39), (20, 1)])
def test_solver_rows_are_dense_exactly_when_the_density_rule_holds(n, d):
    """Dense when nnz + n >= n(d+1)/4, the bias column counted; every nnz is tried."""
    for nnz, index_dtype in itertools.product(range(n * d + 1), INDEX_DTYPES):
        dense = random_fill(n, d, nnz, seed=nnz)
        X = csr_of(dense_to_sparse(dense.tolist()), d, index_dtype)
        rows = _solver_rows(X)
        rule = 4 * (nnz + n) >= n * (d + 1)
        assert isinstance(rows, _DenseRows) == _dense(X) == rule
        assert isinstance(rows, _SparseRows) != rule
        # either form holds the matrix with the bias column of ones last
        assert np.array_equal(rows.block(np.arange(n)), np.hstack([dense, np.ones((n, 1))]))


@pytest.mark.parametrize("nnz", [30, 200])  # sparse and dense by the rule at 40 x 20
def test_decision_values_are_x_w_plus_b_in_either_form(nnz):
    dense = random_fill(40, 20, nnz, seed=1)
    X = csr_of(dense_to_sparse(dense.tolist()), 20)
    rng = np.random.default_rng(2)
    model = LinearModel(
        classes=("a", "b", "c"),
        weights={c: rng.normal(size=20) for c in "abc"},
        biases={c: float(rng.normal()) for c in "abc"},
        registry_id="x", model_type="FA", task="g", config=TrainConfig(), n_features=20,
    )
    W = np.column_stack([model.weights[c] for c in "abc"])
    b = np.array([model.biases[c] for c in "abc"])
    expected = dense @ W + b
    values = decision_values(model, X)
    assert _dense(X) == (nnz == 200)
    if _dense(X):
        assert np.array_equal(values, expected)
    else:  # summed in another order: equal up to rounding
        assert np.allclose(values, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("loss", ["hinge", "squared_hinge"])
def test_sparse_and_dense_rows_train_the_same_weights(loss):
    vectors, y, C_i = random_problem(3)
    w = {}
    for make in ROW_FORMS:
        w[make], duals, _, _ = _dcd_binary(
            make(vectors, 12), y, C_i, loss, 1e-4, 50, 4
        )
    assert len(duals) > 1
    assert np.max(np.abs(w[_dense_rows] - w[_sparse_rows])) <= 1e-12 * np.max(
        np.abs(w[_dense_rows])
    )
    # the index type changes no bit
    for dense, sparse in zip(ROW_FORMS[2::2], ROW_FORMS[3::2]):
        assert np.array_equal(w[dense], w[_dense_rows])
        assert np.array_equal(w[sparse], w[_sparse_rows])


@pytest.mark.parametrize("make_rows", ROW_FORMS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_converged_dcd_reaches_the_lbfgs_primal_optimum(make_rows, seed):
    """Independent oracle: a converged DCD run attains the squared-hinge primal minimum."""
    vectors, y, C_i = random_problem(seed)
    max_epochs = 20000
    w, duals, converged, max_pg = _dcd_binary(
        make_rows(vectors, 12), y, C_i, "squared_hinge", 1e-9, max_epochs, seed
    )
    assert converged and max_pg < 1e-9 and len(duals) < max_epochs

    optimum = lbfgs_primal_optimum(dense_matrix(vectors, 12), y, C_i)
    assert primal(dense_matrix(vectors, 12), y, C_i, w) == pytest.approx(optimum, rel=1e-6)
    # strong duality at the optimum: the last dual objective meets the primal
    assert duals[-1] == pytest.approx(optimum, rel=1e-6)


def dense_matrix(vectors, d):
    return np.array([[vec.get(j, 0.0) for j in range(d)] + [1.0] for vec in vectors])


def primal(X, y, C_i, w):
    return 0.5 * w @ w + C_i @ np.maximum(0.0, 1.0 - y * (X @ w)) ** 2


def lbfgs_primal_optimum(X, y, C_i):
    """Independent oracle: the squared-hinge primal minimum found by L-BFGS-B."""

    def value_and_grad(v):
        slack = np.maximum(0.0, 1.0 - y * (X @ v))
        return 0.5 * v @ v + C_i @ slack**2, v - 2.0 * X.T @ (C_i * slack * y)

    res = minimize(value_and_grad, np.zeros(X.shape[1]), jac=True, method="L-BFGS-B",
                   options={"ftol": 1e-15, "gtol": 1e-10, "maxiter": 10000})
    assert res.success
    return res.fun


def rank_deficient_problem(seed, d, density):
    """A random problem over d + 2 columns, rank-deficient like the benchmark's
    matrices: column d duplicates column 0, and column d + 1 is 6 on every row,
    collinear with the bias."""
    vectors, y, C_i = random_problem(seed, n=80, d=d, density=density)
    for vec in vectors:
        if 0 in vec:
            vec[d] = vec[0]
        vec[d + 1] = 6.0
    return vectors, y, C_i


@pytest.mark.parametrize("make_rows", ROW_FORMS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_newton_reaches_the_lbfgs_primal_optimum(make_rows, seed):
    vectors, y, C_i = rank_deficient_problem(seed, 12, 0.3)
    X = make_rows(vectors, 14)
    w, steps = _newton_sqhinge(X, y, C_i)
    assert 0 < steps < NEWTON_MAX_ITERATIONS
    Xd = dense_matrix(vectors, 14)
    assert primal(Xd, y, C_i, w) == pytest.approx(lbfgs_primal_optimum(Xd, y, C_i), rel=1e-6)
    # started from the shared first Hessian, every step is the same to the bit
    first = _first_hessian(X, C_i)
    rebuilt = np.eye(15) + 2.0 * (Xd.T * C_i) @ Xd
    assert np.abs(first - rebuilt).max() <= 1e-10 * np.abs(rebuilt).max()
    shared, shared_steps = _newton_sqhinge(X, y, C_i, first)
    assert np.array_equal(shared, w) and shared_steps == steps


def test_one_vs_rest_machines_share_the_first_hessian(monkeypatch, tmp_path):
    """Every machine's first Newton step has every row active, so a 3-class
    model builds that Hessian once; the model is the same to the bit as when
    each machine builds its own."""
    rng = np.random.default_rng(12)
    rows = rng.normal(size=(120, 6))
    labels = [("support", "attack", "none")[k] for k in np.argmax(rows[:, :3], axis=1)]
    X = csr_of(dense_to_sparse(rows.tolist()), 6)
    classes = ("support", "attack", "none")
    first_hessian, update_hessian = learn._first_hessian, learn._update_hessian
    built, rows_added = [], []

    def counting(*args):
        built.append(args)
        return first_hessian(*args)

    def counting_rows(H, X, C_i, active, was_active):
        rows_added.append(int(np.count_nonzero(active != was_active)))
        update_hessian(H, X, C_i, active, was_active)

    monkeypatch.setattr(learn, "_first_hessian", counting)
    monkeypatch.setattr(learn, "_update_hessian", counting_rows)
    shared = train(X, labels, TrainConfig(), registry_of(6), classes)
    assert len(built) == 1
    assert all(fit.newton_iterations > 1 for fit in shared.convergence.values())
    shared_rows, rows_added[:] = sum(rows_added), []
    monkeypatch.setattr(learn, "_first_hessian", lambda *args: None)
    own = train(X, labels, TrainConfig(), registry_of(6), classes)
    # each machine would add every row once more for its own first Hessian
    assert sum(rows_added) - shared_rows == 2 * len(labels)
    save_model(shared, tmp_path / "shared.txt")
    save_model(own, tmp_path / "own.txt")
    assert (tmp_path / "shared.txt").read_bytes() == (tmp_path / "own.txt").read_bytes()
    assert shared.dual_objectives == own.dual_objectives
    assert shared.convergence == own.convergence


def test_wide_feature_space_trains_by_dcd_from_zero():
    """Where the D x D Hessian outgrows the rows, squared hinge is plain DCD, as before Newton."""
    d = 150
    vectors, y, C_i = random_problem(6, n=80, d=d, density=0.05)
    X = _rows(vectors, d)
    assert (d + 1) ** 2 > X.stored
    labels = ["support" if v > 0 else "attack" for v in y]
    config = TrainConfig(class_weighting="none", max_epochs=50)
    model = train(csr_of(vectors, d), labels, config, registry_of(d), ("support", "attack"))
    w, duals, converged, max_pg = _dcd_binary(
        X, y, np.ones(len(y)), "squared_hinge", config.tolerance, 50, config.seed
    )
    assert model.convergence["support"] == Convergence(converged, max_pg, 0)
    assert model.dual_objectives["support"] == duals
    assert np.array_equal(np.append(model.weights["support"], model.biases["support"]), w)


@pytest.mark.parametrize("q_scale, kept", [(1.0, False), (1e-3, True)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_line_search_finds_the_exact_minimum(seed, q_scale, kept):
    """f(w + t s) - f(w) = t w.s + t^2 s.s / 2 + sum_i C_i (slack_i - t q_i)_+^2 - const."""
    rng = np.random.default_rng(seed)
    slack, C_i = rng.normal(size=50), rng.random(50) + 0.1
    q = q_scale * rng.normal(size=50)
    ss = 2.0
    active = slack > 0
    ws = -5.0 + 2.0 * C_i[active] @ (q[active] * slack[active])  # df/dt = -5 at t = 0

    def f(t):
        return t * ws + 0.5 * t * t * ss + C_i @ np.maximum(0.0, slack - t * q) ** 2

    t, same_active_set = _line_search(slack, q, C_i, ws, ss)
    oracle = minimize_scalar(f, bounds=(0.0, 100.0), method="bounded",
                             options={"xatol": 1e-12})
    assert t == pytest.approx(oracle.x, abs=1e-6) and f(t) <= oracle.fun + 1e-12
    assert same_active_set == kept == np.array_equal(active, slack - t * q > 0)


@pytest.mark.parametrize("make_rows", ROW_FORMS)
def test_incremental_hessian_matches_a_rebuild(make_rows, monkeypatch):
    n = 200
    # blocks of 16 rows x 13 columns, so every update spans several blocks
    monkeypatch.setattr(learn, "HESSIAN_BLOCK_BYTES", 2 * 8 * 13 * 16 + 100)
    vectors, _, C_i = random_problem(5, n=n)
    X = make_rows(vectors, 12)
    blocks = []
    block = X.block
    monkeypatch.setattr(X, "block", lambda rows: blocks.append(len(rows)) or block(rows))
    Xd = dense_matrix(vectors, 12)
    rng = np.random.default_rng(0)
    H, was_active = np.eye(13), np.zeros(n, dtype=bool)
    for _ in range(6):
        active = rng.random(n) < 0.6
        blocks.clear()
        _update_hessian(H, X, C_i, active, was_active)
        changed = int(np.count_nonzero(active != was_active))
        assert sum(blocks) == changed and blocks[:-1] == [16] * (len(blocks) - 1)
        was_active = active
        rebuilt = np.eye(13) + 2.0 * (Xd[active].T * C_i[active]) @ Xd[active]
        assert np.abs(H - rebuilt).max() <= 1e-10 * np.abs(rebuilt).max()


def test_converged_newton_certifies_in_one_pass():
    rng = np.random.default_rng(8)
    rows = rng.normal(size=(90, 5))
    labels = [("support", "attack", "none")[k] for k in np.argmax(rows[:, :3], axis=1)]
    model = train(csr_of(dense_to_sparse(rows.tolist()), 5), labels, TrainConfig(),
                  registry_of(5), ("support", "attack", "none"))
    X = dense_matrix(dense_to_sparse(rows.tolist()), 5)
    C_i = np.array([class_weights(labels, model.classes, "inverse_frequency")[lab]
                    for lab in labels])
    for cls in model.classes:
        fit = model.convergence[cls]
        assert fit.converged and fit.newton_iterations > 0
        [dual] = model.dual_objectives[cls]
        y = np.where(np.array(labels) == cls, 1.0, -1.0)
        w = np.append(model.weights[cls], model.biases[cls])
        assert dual == pytest.approx(primal(X, y, C_i, w), rel=1e-9)


def test_failed_certificate_continues_with_dual_ascent():
    vectors, y, C_i = random_problem(4)
    X = _dense_rows(vectors, 12)
    w, _ = _newton_sqhinge(X, y, C_i)
    alpha = 2.0 * C_i * np.maximum(0.0, 1.0 - y * X.dot(w))
    alpha[: len(alpha) // 2] *= 0.5  # off the optimum
    _, duals, converged, max_pg = _dcd_binary(
        X, y, C_i, "squared_hinge", 1e-9, 5000, 0, alpha
    )
    assert converged and max_pg < 1e-9 and len(duals) > 2
    assert all(later >= earlier - 1e-12 for earlier, later in zip(duals, duals[1:]))
    assert duals[-1] == pytest.approx(primal(dense_matrix(vectors, 12), y, C_i, w), rel=1e-9)


def test_train_reports_convergence_per_machine():
    # hinge: plain DCD from zero, which the epoch cap can stop
    X, labels, _ = separable_data()
    model = train(X, labels,
                  TrainConfig(loss="hinge", tolerance=1e-8, max_epochs=5000),
                  registry_of(2), ("support", "attack"))
    assert list(model.convergence) == ["support"]  # one machine, mirrored for attack
    fit = model.convergence["support"]
    assert fit.converged and fit.max_pg < 1e-8
    assert len(model.dual_objectives["support"]) < 5000

    capped = train(X, labels,
                   TrainConfig(loss="hinge", tolerance=1e-8, max_epochs=1),
                   registry_of(2), ("support", "attack"))
    assert not capped.convergence["support"].converged
    assert capped.convergence["support"].max_pg >= 1e-8


def test_class_weights_balanced_is_unit():
    cw = class_weights(["a", "b", "a", "b"], ("a", "b"), "inverse_frequency")
    assert cw == {"a": 1.0, "b": 1.0}


def test_class_weights_inverse_frequency():
    cw = class_weights(["a"] * 9 + ["b"], ("a", "b"), "inverse_frequency")
    assert cw["a"] == pytest.approx(10 / (2 * 9))
    assert cw["b"] == pytest.approx(10 / (2 * 1))


def test_predict_tie_goes_to_earlier_class():
    model = LinearModel(
        classes=("support", "attack"),
        weights={"support": np.zeros(2), "attack": np.zeros(2)},
        biases={"support": 0.0, "attack": 0.0},
        registry_id="x",
        model_type="FA",
        task="f",
        config=TrainConfig(),
        n_features=2,
    )
    X = csr_of([{0: 1.0}], 2)
    [label] = predict_all(model, X)
    scores = dict(zip(model.classes, decision_values(model, X)[0]))
    assert label == "support"
    assert scores["support"] == scores["attack"]


def test_predict_rejects_out_of_registry_index():
    X, labels, _ = separable_data()
    model = train(X, labels, TrainConfig(), registry_of(2), ("support", "attack"))
    with pytest.raises(ArgdissectError, match="registry"):
        predict_all(model, csr_of([{99: 1.0}], 100))


def test_train_input_validation():
    reg = registry_of(2)
    with pytest.raises(ArgdissectError, match="empty"):
        train(csr_of([], 2), [], TrainConfig(), reg, ("a", "b"))
    two_rows = csr_of([{0: 1.0}, {1: 1.0}], 2)
    with pytest.raises(ArgdissectError, match="single class"):
        train(two_rows, ["a", "a"], TrainConfig(), reg, ("a", "b"))
    with pytest.raises(ArgdissectError, match="outside"):
        train(two_rows, ["a", "z"], TrainConfig(), reg, ("a", "b"))


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(c=0.0)
    with pytest.raises(ValueError):
        TrainConfig(loss="log")
    with pytest.raises(ValueError):
        TrainConfig(class_weighting="magic")


@pytest.mark.parametrize("setting", [
    {"c": math.inf}, {"c": math.nan}, {"c": -math.inf},
    {"tolerance": math.inf}, {"tolerance": math.nan},
])
def test_train_config_requires_finite_c_and_tolerance(setting):
    with pytest.raises(ValueError, match="finite"):
        TrainConfig(**setting)


def test_a_c_too_large_for_the_newton_system_is_a_data_error():
    X, labels, _ = separable_data()
    with pytest.raises(DataError, match="c is too large"):
        train(X, labels, TrainConfig(c=1e300), registry_of(2), ("support", "attack"))


def test_non_finite_weights_are_a_data_error_naming_c(monkeypatch):
    X, labels, _ = separable_data()

    def diverged(X, y, C_i, *args):
        return np.full(X.shape[1], np.nan), [0.0], True, 0.0

    monkeypatch.setattr(learn, "_dcd_binary", diverged)
    config = TrainConfig(c=1e8, loss="hinge")
    with pytest.raises(DataError, match=r"c = 100000000\.0 gives non-finite weights"):
        train(X, labels, config, registry_of(2), ("support", "attack"))


# ---------------------------------------------------------------------------
# serialization


def test_save_load_round_trip_bit_exact(tmp_path):
    X, labels, _ = separable_data()
    model = train(X, labels, TrainConfig(seed=2), registry_of(2),
                  ("support", "attack"), model_type="CB", task="f")
    path = tmp_path / "model.txt"
    save_model(model, path)
    loaded = load_model(path)
    for cls in model.classes:
        assert np.array_equal(loaded.weights[cls], model.weights[cls])
        assert loaded.biases[cls] == model.biases[cls]
    assert loaded.classes == model.classes
    assert loaded.config == model.config
    assert loaded.registry_id == model.registry_id
    assert loaded.model_type == "CB"
    assert predict_all(loaded, X) == predict_all(model, X)


def test_load_detects_corruption(tmp_path):
    X, labels, _ = separable_data()
    model = train(X, labels, TrainConfig(), registry_of(2), ("support", "attack"))
    path = tmp_path / "model.txt"
    save_model(model, path)
    text = path.read_text()
    path.write_text(text.replace("n_features=2", "n_features=3"))
    with pytest.raises(ModelFormatError, match="checksum"):
        load_model(path)


def test_load_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("hello\nworld\n")
    with pytest.raises(ModelFormatError):
        load_model(path)


def _drop_line(prefix):
    return lambda body: "".join(
        line for line in body.splitlines(keepends=True) if not line.startswith(prefix)
    )


@pytest.mark.parametrize(
    "edit",
    [
        lambda body: body + "zzz\t0\t0x1.0p+0\n",  # weight for an unknown class
        lambda body: body + "support\t2\t0x1.0p+0\n",  # index past n_features
        lambda body: body + "support\t-1\t0x1.0p+0\n",  # negative index
        lambda body: body + "support\t0\tnot-a-float\n",
        lambda body: body.replace("n_features=2", "n_features=two"),
        lambda body: body.replace("max_epochs:1000", "max_epochs:many"),
        _drop_line("classes="),
        _drop_line("n_features="),
        _drop_line("config="),
        lambda body: body + "support\t0\tnan\n",
        lambda body: re.sub(r"(?m)^(support\tbias\t).*$", r"\1inf", body),
        lambda body: body + "support\t1\t0x1p+1024\n",  # overflows a double
    ],
    ids=[
        "unknown-class", "index-too-large", "negative-index", "bad-weight",
        "bad-n-features", "bad-config-value", "no-classes", "no-n-features", "no-config",
        "nan-weight", "inf-bias", "overflowing-weight",
    ],
)
def test_load_rejects_malformed_body_with_valid_checksum(tmp_path, edit):
    path = tmp_path / "model.txt"
    write_with_checksum(path, edit(valid_model_text()[1]))
    with pytest.raises(ModelFormatError):
        load_model(path)


def valid_model_text():
    """(header line, body) of a saved two-class model."""
    X, labels, _ = separable_data()
    model = train(X, labels, TrainConfig(), registry_of(2), ("support", "attack"))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.txt")
        save_model(model, path)
        with open(path, encoding="utf-8") as fh:
            header, _, body = fh.read().split("\n", 2)
    return header, body


def write_with_checksum(path, body, header="argdissect-model v1"):
    checksum = hashlib.sha256(body.encode("utf-8")).hexdigest()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{header}\nchecksum={checksum}\n{body}")


# A value field may become any float's hex form (nan and inf included), a
# spelling float.fromhex may or may not take, or any short text.
_VALUES = st.one_of(
    st.floats().map(float.hex),
    st.sampled_from(["nan", "-inf", "Infinity", "0x1p+1024", "1e999", "0x", ""]),
    st.text(max_size=8),
)
# Single-character edits: they change n_features, which sizes the weight
# arrays, by at most one digit each.
_EDITS = st.one_of(
    st.tuples(st.just("value"), st.integers(0, 99), _VALUES),
    st.tuples(st.just("insert"), st.integers(0, 10**4), st.characters(codec="utf-8")),
    st.tuples(st.just("delete"), st.integers(0, 10**4), st.just("")),
)


def _apply(body, edit):
    kind, where, text = edit
    if kind == "value":
        lines = body.split("\n")
        weight_lines = [k for k, line in enumerate(lines) if line.count("\t") == 2]
        if weight_lines:
            k = weight_lines[where % len(weight_lines)]
            lines[k] = lines[k].rsplit("\t", 1)[0] + "\t" + text
        return "\n".join(lines)
    where %= len(body) + 1
    return body[:where] + text + body[where + (kind == "delete"):]


_HEADER, _BODY = valid_model_text()


@settings(max_examples=300, deadline=None)
@given(edits=st.lists(_EDITS, min_size=1, max_size=3))
def test_load_model_fuzz_raises_format_error_or_returns_finite_values(edits):
    body = _BODY
    for edit in edits:
        body = _apply(body, edit)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.txt")
        write_with_checksum(path, body, _HEADER)
        try:
            model = load_model(path)
        except ModelFormatError:
            return
    assert all(np.isfinite(w).all() for w in model.weights.values())
    assert all(math.isfinite(b) for b in model.biases.values())
