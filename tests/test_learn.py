import hashlib

import numpy as np
import pytest
from scipy.optimize import minimize

from argdissect.errors import ArgdissectError, ModelFormatError
from argdissect.features import FeatureRegistry
from argdissect.learn import (
    LinearModel,
    TrainConfig,
    _dcd_binary,
    _dense_rows,
    _rows,
    _sparse_rows,
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
    assert all(cols is None for cols, _ in _rows(vectors, 12))
    vectors, _, _ = random_problem(0, d=400, density=0.02)
    rows = _rows(vectors, 400)
    assert all(cols is not None for cols, _ in rows)
    # the bias column is appended to every row
    assert all(cols[-1] == 400 and x[-1] == 1.0 for cols, x in rows)


@pytest.mark.parametrize("loss", ["hinge", "squared_hinge"])
def test_sparse_and_dense_rows_train_the_same_weights(loss):
    vectors, y, C_i = random_problem(3)
    w = {}
    for make in (_dense_rows, _sparse_rows):
        w[make], duals, _, _ = _dcd_binary(
            make(vectors, 12), 13, y, C_i, loss, 1e-4, 50, np.random.default_rng(4)
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
        make_rows(vectors, 12), 13, y, C_i, "squared_hinge", 1e-9, max_epochs,
        np.random.default_rng(seed),
    )
    assert converged and max_pg < 1e-9 and len(duals) < max_epochs

    X = np.array([[vec.get(j, 0.0) for j in range(12)] + [1.0] for vec in vectors])

    def primal(v):
        slack = np.maximum(0.0, 1.0 - y * (X @ v))
        value = 0.5 * v @ v + C_i @ slack**2
        return value, v - 2.0 * X.T @ (C_i * slack * y)

    res = minimize(primal, np.zeros(13), jac=True, method="L-BFGS-B",
                   options={"ftol": 1e-15, "gtol": 1e-10, "maxiter": 10000})
    assert res.success
    assert primal(w)[0] == pytest.approx(res.fun, rel=1e-6)
    # strong duality at the optimum: the last dual objective meets the primal
    assert duals[-1] == pytest.approx(res.fun, rel=1e-6)


def test_train_reports_convergence_per_machine():
    vectors, labels, _ = separable_data()
    model = train(vectors, labels, TrainConfig(tolerance=1e-8, max_epochs=5000),
                  registry_of(2), ("support", "attack"))
    assert list(model.convergence) == ["support"]  # one machine, mirrored for attack
    fit = model.convergence["support"]
    assert fit.converged and fit.max_pg < 1e-8
    assert len(model.dual_objectives["support"]) < 5000

    capped = train(vectors, labels, TrainConfig(tolerance=1e-8, max_epochs=1),
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
    ],
    ids=[
        "unknown-class", "index-too-large", "negative-index", "bad-weight",
        "bad-n-features", "bad-config-value", "no-classes", "no-n-features", "no-config",
    ],
)
def test_load_rejects_malformed_body_with_valid_checksum(tmp_path, edit):
    vectors, labels, _ = separable_data()
    model = train(vectors, labels, TrainConfig(), registry_of(2), ("support", "attack"))
    path = tmp_path / "model.txt"
    save_model(model, path)
    header, _, body = path.read_text().split("\n", 2)
    body = edit(body)
    checksum = hashlib.sha256(body.encode("utf-8")).hexdigest()
    path.write_text(f"{header}\nchecksum={checksum}\n{body}")
    with pytest.raises(ModelFormatError):
        load_model(path)
