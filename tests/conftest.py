import itertools
import os
import tempfile

import numpy as np
import pytest

from argdissect.annotations import Token, parse_bracketed_tree
from argdissect.features import FA, CsrMatrix, DenseMatrix, extract_all, feature_type
from argdissect.pipeline import DocBundle
from argdissect.synth import SynthConfig, generate_corpus

# Shared fixture: "However, people should not smoke." with the EAU covering
# "people should not smoke" (chars [9,32), tokens [2,6)).
SMOKE_TEXT = "However, people should not smoke."
SMOKE_TOKEN_SPECS = [
    (0, 7, "However"),
    (7, 8, ","),
    (9, 15, "people"),
    (16, 22, "should"),
    (23, 26, "not"),
    (27, 32, "smoke"),
    (32, 33, "."),
]
SMOKE_TREE = (
    "(S'|s=3 (ADVP|s=2 However) (, ,) "
    "(S|s=4 (NP (NN people)) (VP (MD should) (RB not) (VB smoke))) (. .))"
)
SMOKE_EAU_CHARS = (9, 32)
SMOKE_EAU_TOKENS = (2, 6)


# Layer files written by ``layer_bundle``, each document at a new base; the
# directory is removed when the test session finishes.
_LAYER_DIR = tempfile.TemporaryDirectory(prefix="argdissect-layers-")
_layer_bases = itertools.count()


def pytest_sessionfinish(session, exitstatus):
    _LAYER_DIR.cleanup()


def layer_bundle(parsed, tokens, trees=None, discourse=None):
    """``DocBundle(parsed, base)`` over layer files holding the given texts:
    the tokens TSV, and the trees and discourse files unless None."""
    base = os.path.join(_LAYER_DIR.name, str(next(_layer_bases)))
    for ext, text in ((".tokens.tsv", tokens), (".trees", trees), (".discourse", discourse)):
        if text is not None:
            with open(base + ext, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
    return DocBundle(parsed, base)


def csr_of(vectors, n_cols, index_dtype=np.intp):
    """The ``CsrMatrix`` whose rows are the ``{column: value}`` dicts, entries in dict order."""
    indptr = np.cumsum([0] + [len(vec) for vec in vectors]).astype(np.intp)
    indices = np.array([j for vec in vectors for j in vec], index_dtype)
    data = np.array([v for vec in vectors for v in vec.values()], float)
    assert np.all((0 <= indices) & (indices < n_cols)), "column outside the matrix"
    return CsrMatrix(indptr, indices, data, n_cols)


def csr_of_array(X):
    """The ``CsrMatrix`` of a dense array's nonzero entries, row by row."""
    rows = [{j: v for j, v in enumerate(row) if v != 0.0} for row in X.tolist()]
    return csr_of(rows, X.shape[1])


def scatter_reference(X):
    """``X`` as a dense array, every stored entry scattered into place at once."""
    out = np.zeros(X.shape)
    out[np.repeat(np.arange(len(X)), np.diff(X.indptr)), X.indices] = X.data
    return out


def matrix_parts(X):
    """The arrays that hold ``X``: a ``CsrMatrix``'s three, a ``DenseMatrix``'s one."""
    return [X.rows] if isinstance(X, DenseMatrix) else [X.indptr, X.indices, X.data]


def assert_same_matrix(X, Y):
    """``X`` and ``Y`` are of one form and hold the same arrays, to their types."""
    assert type(X) is type(Y) and X.shape == Y.shape
    for a, b in zip(matrix_parts(X), matrix_parts(Y)):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def assert_dense_form(X):
    """``X`` is a ``DenseMatrix`` whose rows are one read-only C-ordered float
    array, the bias column of ones last."""
    assert isinstance(X, DenseMatrix)
    rows = X.rows
    assert rows.dtype == np.float64 and rows.flags.c_contiguous and not rows.flags.writeable
    assert rows.shape == (len(X), X.n_cols + 1) and np.all(rows[:, -1] == 1.0)


def reference_assemble(view, model_type, registry, families=None, embedding_dim=0):
    """The view's ``{column: value}`` vector in the model type's Φ slice, built
    apart from ``extract_matrix``'s registration and dropped counts: ``extract_all``'s
    names in order, kept by ``feature_type``, each looked up with ``registry.index``
    (which registers a new name or counts an unseen one)."""
    out = {}
    for name, value in extract_all(view, families, embedding_dim).items():
        if model_type != FA and feature_type(name) != model_type:
            continue
        idx = registry.index(name)
        if idx is not None:
            out[idx] = value
    return out


@pytest.fixture
def smoke_tokens():
    return [
        Token("doc", 0, i, start, end, surface)
        for i, (start, end, surface) in enumerate(SMOKE_TOKEN_SPECS)
    ]


@pytest.fixture
def smoke_tree(smoke_tokens):
    return parse_bracketed_tree(SMOKE_TREE, smoke_tokens, doc_id="doc", sentence_idx=0)


def random_tree(rng, n_tokens, with_sentiment=False):
    """Random constituency tree string over n_tokens placeholder words."""
    words = [f"w{k}" for k in range(n_tokens)]

    def build(lo, hi, depth):
        if hi - lo == 1 and (depth > 0 and rng.random() < 0.6):
            return f"(POS{rng.integers(3)}{suffix()} {words[lo]})"
        if hi - lo == 1:
            return f"(X{suffix()} (POS{rng.integers(3)} {words[lo]}))"
        n_children = int(rng.integers(2, min(4, hi - lo) + 1))
        cuts = sorted(rng.choice(np.arange(lo + 1, hi), size=n_children - 1, replace=False))
        bounds = [lo] + [int(c) for c in cuts] + [hi]
        parts = [build(bounds[k], bounds[k + 1], depth + 1) for k in range(n_children)]
        return f"(N{rng.integers(5)}{suffix()} " + " ".join(parts) + ")"

    def suffix():
        if with_sentiment and rng.random() < 0.7:
            return f"|s={rng.integers(1, 6)}"
        return ""

    line = build(0, n_tokens, 0)
    # lay words out with single spaces so spans match surfaces
    tokens = []
    pos = 0
    for k, w in enumerate(words):
        tokens.append(Token("doc", 0, k, pos, pos + len(w), w))
        pos += len(w) + 1
    return parse_bracketed_tree(line, tokens, doc_id="doc", sentence_idx=0)


@pytest.fixture(scope="session")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth") / "corpus"
    generate_corpus(str(out), SynthConfig(n_docs=20, seed=7))
    return str(out)
