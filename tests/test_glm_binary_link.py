"""The binary GLM's one-exponential link is bit-identical to the masked one.

``_sigmoid`` exponentiates ``minimum(z, -z)`` once and selects each side's
quotient with ``np.where``.  ``sigmoid_scatter`` of ``tests/oracles.py``
scatters through boolean masks with one exponential per side.  They must
agree bit for bit, sign bits included: ``array_equal`` and ``signbit``,
not ``allclose``.  The same holds for the binary ``predict_proba``, which
writes ``[1 - p, p]`` into one array, against ``np.column_stack``.  CI runs
this module with ``-W error::RuntimeWarning``: neither link may warn, even
at scores that overflow a naive ``exp``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linear.glm import IncrementalGLM, _sigmoid
from tests.oracles import glm_predict_proba_stacked, sigmoid_scatter

SPECIAL = np.array(
    [0.0, -0.0, 1e308, -1e308, np.inf, -np.inf, np.nan, -np.nan, 745.2, -745.2,
     1e-320, -1e-320, 36.7, -36.7]
)


def _assert_same_bits(served, expected):
    assert served.shape == expected.shape
    assert np.array_equal(served, expected, equal_nan=True)
    assert np.array_equal(np.signbit(served), np.signbit(expected))
    assert np.array_equal(served.view(np.uint64), expected.view(np.uint64))


def test_special_scores_are_bit_identical():
    _assert_same_bits(_sigmoid(SPECIAL), sigmoid_scatter(SPECIAL))
    # A NaN keeps its sign through the link, as in the masked path.
    assert np.signbit(_sigmoid(np.array([-np.nan])))[0]
    assert not np.signbit(_sigmoid(np.array([np.nan])))[0]


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 1000),
    decade=st.floats(-3.0, 300.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_scores_are_bit_identical(n, decade, seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=n) * 10.0**decade
    for value in (0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan):
        z[rng.random(n) < 0.03] = value
    _assert_same_bits(_sigmoid(z), sigmoid_scatter(z))


def _binary_glm(weights):
    glm = IncrementalGLM(n_features=len(weights) - 1, n_classes=2, rng=0)
    glm.weights = np.asarray(weights, dtype=float)
    return glm


def test_binary_predict_proba_is_bit_identical_at_extreme_scores():
    # Each (weights, row) pair scores one special value without an
    # overflow or an invalid product in the matmul.
    cases = [
        ([1e308, 0.0], 1.0), ([1e308, 0.0], -1.0), ([-0.0, -0.0], 1.0),
        ([0.0, 0.0], 1.0), ([np.inf, 0.0], 1.0), ([np.inf, 0.0], -1.0),
        ([np.nan, 0.0], 1.0), ([-np.nan, 0.0], 1.0), ([800.0, 0.0], -1.0),
    ]
    for weights, x in cases:
        glm = _binary_glm(weights)
        X = np.array([[x]])
        _assert_same_bits(glm.predict_proba(X), glm_predict_proba_stacked(glm, X))


@settings(max_examples=100, deadline=None)
@given(
    n_rows=st.sampled_from((1, 5, 32, 512)),
    n_features=st.integers(1, 8),
    decade=st.floats(-3.0, 300.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_binary_predict_proba_is_bit_identical_to_column_stack(
    n_rows, n_features, decade, seed
):
    rng = np.random.default_rng(seed)
    glm = _binary_glm(rng.normal(size=n_features + 1) * 10.0**decade)
    X = rng.uniform(-1.0, 1.0, size=(n_rows, n_features))
    served = glm.predict_proba(X)
    assert served.flags.c_contiguous
    _assert_same_bits(served, glm_predict_proba_stacked(glm, X))
