import numpy as np
import pytest

from qlocc.linalg import as_carray, numerical_rank, svd
from qlocc.states import Ket, PartySpace, make_ket


def test_tensor_basis_index_arithmetic():
    # |0>|1> on C2 x C2 sits at flat index 0 * 2 + 1: the left party is the slow index
    k = make_ket(PartySpace((2, 2)), [(1, (0, 1))])
    expect = np.zeros(4)
    expect[0 * 2 + 1] = 1
    assert np.allclose(k.amplitudes, np.kron([1, 0], [0, 1]))
    assert np.allclose(k.amplitudes, expect)
    assert k.tensor()[0, 1] == 1


def test_svd_zero_matrix():
    z = np.zeros((3, 3))
    assert numerical_rank(z) == 0
    _, _, vh = svd(z)
    assert vh[numerical_rank(z) :].shape == (3, 3)


def test_svd_identity():
    s, _, _ = svd(np.eye(4))
    assert np.allclose(s, 1.0)
    assert numerical_rank(np.eye(4)) == 4


def _gram_schmidt_rank(rows, tol=1e-10):
    # independent oracle: classical Gram-Schmidt over the rows
    basis = []
    for r in rows:
        v = r.astype(complex).copy()
        for b in basis:
            v -= np.vdot(b, v) * b
        n = np.linalg.norm(v)
        if n > tol:
            basis.append(v / n)
    return len(basis)


def test_svd_rank_two_coefficient_matrix():
    # coefficient matrix of |0>|0+1> + |2>|2+3| (unnormalized rows)
    m = np.zeros((4, 4))
    m[0, 0] = m[0, 1] = 1
    m[2, 2] = m[2, 3] = 1
    assert numerical_rank(m) == 2
    assert _gram_schmidt_rank(m) == 2


def test_svd_reconstruction_and_nullspace():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = rng.normal(size=(5, 7)) + 1j * rng.normal(size=(5, 7))
        s, u, vh = svd(m)
        rec = u[:, : len(s)] @ np.diag(s) @ vh[: len(s)]
        assert np.abs(rec - m).max() <= 1e-10 * max(1.0, np.abs(m).max())
        null = vh[numerical_rank(m) :].conj().T
        assert null.shape == (7, 2)
        assert np.abs(m @ null).max() <= 1e-8 * s[0]


def test_as_carray_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_carray(np.array([np.nan, 0.0]))


def test_tensor_rejects_nonfinite():
    # a product state with a non-finite factor is rejected through as_carray
    with pytest.raises(ValueError):
        Ket(PartySpace((2, 2)), np.kron(np.array([np.nan, 0.0]), np.eye(2)[0]))
