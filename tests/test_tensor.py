"""Constant tensor container, contractions and the operator norm."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efos.tensor import (
    ConstantTensor,
    contract,
    direction_matrix,
    operator_norm,
)
from efos.catalog import cauchy_riemann, dirac


def test_from_flat_storage_order():
    # alpha slowest, then beta, then j
    vals = np.arange(12.0)
    A = ConstantTensor.from_flat(vals, N=2, n=3)
    assert A.entries[0, 0, 0] == 0.0
    assert A.entries[0, 0, 2] == 2.0
    assert A.entries[0, 1, 0] == 3.0
    assert A.entries[1, 0, 0] == 6.0
    assert A.entries[1, 1, 2] == 11.0


def test_constructor_validation():
    with pytest.raises(ValueError):
        ConstantTensor(np.zeros((1, 1, 2)))
    with pytest.raises(ValueError):
        ConstantTensor(np.zeros((2, 2, 1)))
    with pytest.raises(ValueError):
        ConstantTensor(np.full((2, 2, 2), np.nan))
    bad = np.zeros((2, 2, 2))
    bad[0, 0, 0] = np.inf
    with pytest.raises(ValueError):
        ConstantTensor(bad)


def test_entries_read_only():
    A = cauchy_riemann()
    with pytest.raises(ValueError):
        A.entries[0, 0, 0] = 5.0


def test_equality_and_hash():
    A = cauchy_riemann()
    B = cauchy_riemann()
    assert A == B
    assert hash(A) == hash(B)
    assert A != dirac()


def test_contract_matches_manual_sum():
    rng = np.random.default_rng(0)
    A = ConstantTensor(rng.standard_normal((3, 3, 2)))
    Q = rng.standard_normal((3, 2))
    out = contract(A, Q)
    manual = np.array([np.sum(A.entries[a] * Q) for a in range(3)])
    np.testing.assert_allclose(out, manual, rtol=0, atol=1e-14)


def test_contract_broadcasts_over_batches():
    rng = np.random.default_rng(1)
    A = ConstantTensor(rng.standard_normal((2, 2, 3)))
    Q = rng.standard_normal((5, 4, 2, 3))
    out = contract(A, Q)
    assert out.shape == (5, 4, 2)
    np.testing.assert_allclose(out[2, 1], contract(A, Q[2, 1]), atol=1e-14)


def test_direction_matrix_definition():
    rng = np.random.default_rng(2)
    A = ConstantTensor(rng.standard_normal((2, 2, 3)))
    a = rng.standard_normal(3)
    M = direction_matrix(A, a)
    manual = np.einsum("abj,j->ab", A.entries, a)
    np.testing.assert_allclose(M, manual, atol=1e-14)


def test_direction_matrix_contract_consistency():
    # A : (eta x a) == (A a) eta
    rng = np.random.default_rng(3)
    A = ConstantTensor(rng.standard_normal((4, 4, 3)))
    eta = rng.standard_normal(4)
    a = rng.standard_normal(3)
    lhs = contract(A, np.outer(eta, a))
    rhs = direction_matrix(A, a) @ eta
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)


@given(st.floats(min_value=-100.0, max_value=100.0))
@settings(max_examples=30, deadline=None)
def test_contract_is_linear_in_q(c):
    rng = np.random.default_rng(4)
    A = ConstantTensor(rng.standard_normal((2, 2, 2)))
    Q = rng.standard_normal((2, 2))
    np.testing.assert_allclose(contract(A, c * Q), c * contract(A, Q), atol=1e-10)


def test_operator_norm_known_values():
    assert abs(operator_norm(cauchy_riemann()) - np.sqrt(2.0)) < 1e-12
    assert abs(operator_norm(dirac()) - np.sqrt(3.0)) < 1e-12


def test_operator_norm_bounds_contraction():
    # |A:Q| <= |A| |Q| with equality attained at the top singular direction
    rng = np.random.default_rng(5)
    A = ConstantTensor(rng.standard_normal((3, 3, 3)))
    top = operator_norm(A)
    worst = 0.0
    for _ in range(200):
        Q = rng.standard_normal((3, 3))
        worst = max(worst, np.linalg.norm(contract(A, Q)) / np.linalg.norm(Q))
        assert worst <= top + 1e-12
    _, _, vt = np.linalg.svd(A.flattened())
    Qstar = vt[0].reshape(3, 3)
    assert abs(np.linalg.norm(contract(A, Qstar)) - top) < 1e-12


def test_flattened_shape():
    A = dirac()
    assert A.flattened().shape == (4, 12)
    assert A.N == 4 and A.n == 3
