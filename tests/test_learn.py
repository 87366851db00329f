import hashlib
import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize, minimize_scalar

from argdissect.errors import ArgdissectError, ModelFormatError
from argdissect.features import FeatureRegistry
from argdissect.learn import (
    NEWTON_MAX_ITERATIONS,
    Convergence,
    LinearModel,
    TrainConfig,
    _dcd_binary,
    _dense_rows,
    _line_search,
    _newton_sqhinge,
    _rows,
    _sparse_rows,
    _update_hessian,
    class_weights,
    load_model,
    predict,
    predict_all,
    save_model,
    train,
)


def registry_of(n):
    reg = FeatureRegistry()
    for k in range(n):
        reg.index(f"lex:eau:src:w{k}")
    reg.freeze()
    return reg


def dense_to_sparse(rows):
    return [{j: v for j, v in enumerate(row) if v != 0.0} for row in rows]


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
    return dense_to_sparse(rows), labels, rows


def test_separable_data_fit_perfectly():
    vectors, labels, _ = separable_data()
    reg = registry_of(2)
    model = train(vectors, labels, TrainConfig(), reg, ("support", "attack"))
    assert predict_all(model, vectors) == labels


def test_binary_machine_is_antisymmetric():
    vectors, labels, _ = separable_data()
    model = train(vectors, labels, TrainConfig(), registry_of(2), ("support", "attack"))
    assert np.array_equal(model.weights["attack"], -model.weights["support"])
    assert model.biases["attack"] == -model.biases["support"]


def test_weights_match_primal_oracle():
    # Independent check: minimize the primal squared-hinge objective directly
    # (bias folded in as a regularized constant feature) and compare.
    vectors, labels, rows = separable_data()
    config = TrainConfig(c=1.0, loss="squared_hinge", class_weighting="none",
                         tolerance=1e-8, max_epochs=5000)
    model = train(vectors, labels, config, registry_of(2), ("support", "attack"))

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
    vectors, labels, _ = separable_data()
    config = TrainConfig(loss="hinge")
    model = train(vectors, labels, config, registry_of(2), ("support", "attack"))
    assert predict_all(model, vectors) == labels


def test_dual_objective_non_decreasing():
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(40, 6))
    labels = ["a" if r[0] + 0.3 * r[1] > 0 else "b" for r in rows]
    vectors = dense_to_sparse(rows.tolist())
    model = train(vectors, labels, TrainConfig(), registry_of(6), ("a", "b"))
    duals = model.dual_objectives["a"]
    assert len(duals) >= 1
    for earlier, later in zip(duals, duals[1:]):
        assert later >= earlier - 1e-9


def test_training_is_seed_deterministic():
    rng = np.random.default_rng(11)
    rows = rng.normal(size=(30, 4))
    labels = ["a" if r.sum() > 0 else "b" for r in rows]
    vectors = dense_to_sparse(rows.tolist())
    reg = registry_of(4)
    m1 = train(vectors, labels, TrainConfig(seed=3), reg, ("a", "b"))
    m2 = train(vectors, labels, TrainConfig(seed=3), reg, ("a", "b"))
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
    vectors = dense_to_sparse(rows)
    model = train(
        vectors, labels, TrainConfig(), registry_of(3), ("support", "attack", "none")
    )
    assert set(model.weights) == {"support", "attack", "none"}
    assert predict_all(model, vectors) == labels


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


@pytest.mark.parametrize("loss", ["hinge", "squared_hinge"])
def test_sparse_and_dense_rows_train_the_same_weights(loss):
    vectors, y, C_i = random_problem(3)
    w = {}
    for make in (_dense_rows, _sparse_rows):
        w[make], duals, _, _ = _dcd_binary(
            make(vectors, 12), y, C_i, loss, 1e-4, 50, np.random.default_rng(4)
        )
    assert len(duals) > 1
    assert np.max(np.abs(w[_dense_rows] - w[_sparse_rows])) <= 1e-12 * np.max(
        np.abs(w[_dense_rows])
    )


@pytest.mark.parametrize("make_rows", [_dense_rows, _sparse_rows])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_converged_dcd_reaches_the_lbfgs_primal_optimum(make_rows, seed):
    """Independent oracle: a converged DCD run attains the squared-hinge primal minimum."""
    vectors, y, C_i = random_problem(seed)
    max_epochs = 20000
    w, duals, converged, max_pg = _dcd_binary(
        make_rows(vectors, 12), y, C_i, "squared_hinge", 1e-9, max_epochs,
        np.random.default_rng(seed),
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


@pytest.mark.parametrize("make_rows", [_dense_rows, _sparse_rows])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_newton_reaches_the_lbfgs_primal_optimum(make_rows, seed):
    vectors, y, C_i = rank_deficient_problem(seed, 12, 0.3)
    w, steps = _newton_sqhinge(make_rows(vectors, 14), y, C_i)
    assert 0 < steps < NEWTON_MAX_ITERATIONS
    Xd = dense_matrix(vectors, 14)
    assert primal(Xd, y, C_i, w) == pytest.approx(lbfgs_primal_optimum(Xd, y, C_i), rel=1e-6)


def test_wide_feature_space_trains_by_dcd_from_zero():
    """Where the D x D Hessian outgrows the rows, squared hinge is plain DCD, as before Newton."""
    d = 150
    vectors, y, C_i = random_problem(6, n=80, d=d, density=0.05)
    X = _rows(vectors, d)
    assert (d + 1) ** 2 > X.stored
    labels = ["support" if v > 0 else "attack" for v in y]
    config = TrainConfig(class_weighting="none", max_epochs=50)
    model = train(vectors, labels, config, registry_of(d), ("support", "attack"))
    w, duals, converged, max_pg = _dcd_binary(
        X, y, np.ones(len(y)), "squared_hinge", config.tolerance, 50,
        np.random.default_rng(config.seed),
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


@pytest.mark.parametrize("make_rows", [_dense_rows, _sparse_rows])
def test_incremental_hessian_matches_a_rebuild(make_rows):
    n = 200  # more rows than one accumulation block
    vectors, _, C_i = random_problem(5, n=n)
    X = make_rows(vectors, 12)
    Xd = dense_matrix(vectors, 12)
    rng = np.random.default_rng(0)
    H, was_active = np.eye(13), np.zeros(n, dtype=bool)
    for _ in range(6):
        active = rng.random(n) < 0.6
        _update_hessian(H, X, C_i, active, was_active)
        was_active = active
        rebuilt = np.eye(13) + 2.0 * (Xd[active].T * C_i[active]) @ Xd[active]
        assert np.abs(H - rebuilt).max() <= 1e-10 * np.abs(rebuilt).max()


def test_converged_newton_certifies_in_one_pass():
    rng = np.random.default_rng(8)
    rows = rng.normal(size=(90, 5))
    labels = [("support", "attack", "none")[k] for k in np.argmax(rows[:, :3], axis=1)]
    model = train(dense_to_sparse(rows.tolist()), labels, TrainConfig(), registry_of(5),
                  ("support", "attack", "none"))
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
        X, y, C_i, "squared_hinge", 1e-9, 5000, np.random.default_rng(0), alpha
    )
    assert converged and max_pg < 1e-9 and len(duals) > 2
    assert all(later >= earlier - 1e-12 for earlier, later in zip(duals, duals[1:]))
    assert duals[-1] == pytest.approx(primal(dense_matrix(vectors, 12), y, C_i, w), rel=1e-9)


def test_train_reports_convergence_per_machine():
    # hinge: plain DCD from zero, which the epoch cap can stop
    vectors, labels, _ = separable_data()
    model = train(vectors, labels,
                  TrainConfig(loss="hinge", tolerance=1e-8, max_epochs=5000),
                  registry_of(2), ("support", "attack"))
    assert list(model.convergence) == ["support"]  # one machine, mirrored for attack
    fit = model.convergence["support"]
    assert fit.converged and fit.max_pg < 1e-8
    assert len(model.dual_objectives["support"]) < 5000

    capped = train(vectors, labels,
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
    label, scores = predict(model, {0: 1.0})
    assert label == "support"
    assert scores["support"] == scores["attack"]


def test_predict_rejects_out_of_registry_index():
    vectors, labels, _ = separable_data()
    model = train(vectors, labels, TrainConfig(), registry_of(2), ("support", "attack"))
    with pytest.raises(ArgdissectError, match="registry"):
        predict(model, {99: 1.0})


def test_train_input_validation():
    reg = registry_of(2)
    with pytest.raises(ArgdissectError, match="empty"):
        train([], [], TrainConfig(), reg, ("a", "b"))
    with pytest.raises(ArgdissectError, match="single class"):
        train([{0: 1.0}, {1: 1.0}], ["a", "a"], TrainConfig(), reg, ("a", "b"))
    with pytest.raises(ArgdissectError, match="outside"):
        train([{0: 1.0}, {1: 1.0}], ["a", "z"], TrainConfig(), reg, ("a", "b"))


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(c=0.0)
    with pytest.raises(ValueError):
        TrainConfig(loss="log")
    with pytest.raises(ValueError):
        TrainConfig(class_weighting="magic")


# ---------------------------------------------------------------------------
# serialization


def test_save_load_round_trip_bit_exact(tmp_path):
    vectors, labels, _ = separable_data()
    model = train(vectors, labels, TrainConfig(seed=2), registry_of(2),
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
    assert predict_all(loaded, vectors) == predict_all(model, vectors)


def test_load_detects_corruption(tmp_path):
    vectors, labels, _ = separable_data()
    model = train(vectors, labels, TrainConfig(), registry_of(2), ("support", "attack"))
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
    vectors, labels, _ = separable_data()
    model = train(vectors, labels, TrainConfig(), registry_of(2), ("support", "attack"))
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
