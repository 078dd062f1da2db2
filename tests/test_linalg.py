import numpy as np
import pytest

from qlocc.linalg import as_carray
from qlocc.states import Bipartition, Ket, PartySpace, make_ket, schmidt_rank


def test_tensor_basis_index_arithmetic():
    # |0>|1> on C2 x C2 sits at flat index 0 * 2 + 1: the left party is the slow index
    k = make_ket(PartySpace((2, 2)), [(1, (0, 1))])
    expect = np.zeros(4)
    expect[0 * 2 + 1] = 1
    assert np.allclose(k.amplitudes, np.kron([1, 0], [0, 1]))
    assert np.allclose(k.amplitudes, expect)
    assert k.tensor()[0, 1] == 1


def test_svd_identity():
    # the maximally entangled state on C4 x C4 has the identity as its coefficient matrix
    space = PartySpace((4, 4))
    k = make_ket(space, [(1, (i, i)) for i in range(4)])
    assert schmidt_rank(k, Bipartition.of({0}, 2)) == 4


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
    k = Ket(PartySpace((4, 4)), m.ravel())
    assert schmidt_rank(k, Bipartition.of({0}, 2)) == 2
    assert _gram_schmidt_rank(m) == 2


def test_as_carray_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_carray(np.array([np.nan, 0.0]))


def test_tensor_rejects_nonfinite():
    # a product state with a non-finite factor is rejected through as_carray
    with pytest.raises(ValueError):
        Ket(PartySpace((2, 2)), np.kron(np.array([np.nan, 0.0]), np.eye(2)[0]))
