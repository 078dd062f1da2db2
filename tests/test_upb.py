import functools
import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _helpers import random_orthogonal_product_set
from qlocc.fixtures import build_fixture
from qlocc.oplm import _party_matrices, _support_basis
from qlocc.states import (
    Ket,
    PartySpace,
    StateSet,
    apply_local_unitaries,
    is_product_state,
    make_ket,
    random_local_unitaries,
)
from qlocc import upb
from qlocc.upb import ExtensionSearchResult, _residuals, check_unextendible, numeric_extension_search


def tiles_minus_stopper():
    t = build_fixture("tiles33")
    return StateSet(t.space, t.states[:4], "tiles33-minus-stopper")


def shifts_upb():
    """The Shifts UPB on C2 x C2 x C2: |0,1,+>, |1,+,0>, |+,0,1>, |-,-,->."""
    space = PartySpace((2, 2, 2))
    zero, one = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    plus, minus = (zero + one) / np.sqrt(2), (zero - one) / np.sqrt(2)
    factors = {"01+": (zero, one, plus), "1+0": (one, plus, zero), "+01": (plus, zero, one), "---": (minus,) * 3}
    states = [Ket(space, np.kron(np.kron(a, b), c).astype(complex), label) for label, (a, b, c) in factors.items()]
    return StateSet(space, states, "shifts")


def test_tiles33_unextendible():
    v = check_unextendible(build_fixture("tiles33"))
    assert v.unextendible
    assert "3 x 3" in v.support_note


def test_tiles33_minus_stopper_extendible():
    s = tiles_minus_stopper()
    v = check_unextendible(s)
    assert not v.unextendible
    w = v.witness
    assert w is not None
    assert np.abs(s.matrix().conj() @ w.amplitudes).max() <= 1e-8
    assert is_product_state(w)


def test_complete_bases_trivially_unextendible():
    s = PartySpace((2, 2))
    basis = StateSet(
        s, [make_ket(s, [(1, (a, b))], f"{a}{b}") for a in range(2) for b in range(2)], "cb22"
    )
    assert check_unextendible(basis).unextendible
    assert check_unextendible(build_fixture("s1")).unextendible


def test_rejects_entangled_member():
    s = PartySpace((2, 2))
    bell = StateSet(s, [make_ket(s, [(1, (0, 0)), (1, (1, 1))], "bell")], "b")
    with pytest.raises(ValueError):
        check_unextendible(bell)


def test_oracle_tiles33():
    res = numeric_extension_search(build_fixture("tiles33"), restarts=200, seed=0)
    assert res.residual > 1e-3


def test_oracle_finds_extension():
    s = tiles_minus_stopper()
    res = numeric_extension_search(s, restarts=200, seed=0)
    assert res.residual <= 1e-10
    assert np.abs(s.matrix().conj() @ res.witness.amplitudes).max() <= 1e-5


def test_oracle_single_state():
    s = PartySpace((2, 2))
    single = StateSet(s, [make_ket(s, [(1, (0, 0))], "00")], "one")
    # on the 1x1 support the state is its own complete basis...
    res = numeric_extension_search(single, restarts=20, seed=1)
    assert res.residual == pytest.approx(1.0)
    assert check_unextendible(single).unextendible  # trivially, on the support
    # ...while the ambient space has obvious product extensions like |1,1>
    amb = numeric_extension_search(single, restarts=20, seed=1, restrict_support=False)
    assert amb.residual <= 1e-12
    assert np.abs(np.vdot(single.states[0].amplitudes, amb.witness.amplitudes)) <= 1e-6


def test_agreement_on_random_sets():
    rng = np.random.default_rng(77)
    done = 0
    while done < 30:
        n = int(rng.integers(2, 9))
        s = random_orthogonal_product_set(rng, (3, 3), n)
        if s is None:
            continue
        done += 1
        v = check_unextendible(s)
        res = numeric_extension_search(s, restarts=60, seed=done)
        assert (res.residual <= 1e-8) == (not v.unextendible), (n, res.residual, v.unextendible)


def test_agreement_on_random_tripartite_sets():
    rng = np.random.default_rng(78)
    done = 0
    while done < 30:
        n = int(rng.integers(2, 9))
        s = random_orthogonal_product_set(rng, (2, 2, 2), n)
        if s is None:
            continue
        done += 1
        v = check_unextendible(s)
        res = numeric_extension_search(s, restarts=60, seed=100 + done)
        assert (res.residual <= 1e-8) == (not v.unextendible), (n, res.residual, v.unextendible)


def test_verdict_invariant_under_local_unitaries():
    rng = np.random.default_rng(5)
    for s in (build_fixture("tiles33"), tiles_minus_stopper()):
        before = check_unextendible(s).unextendible
        for _ in range(3):
            rotated = apply_local_unitaries(s, random_local_unitaries(s.space, rng))
            assert check_unextendible(rotated).unextendible == before


def test_tripartite_assignment():
    # {tiles33 x |c>} is unextendible on its (3,3,2) support
    t = build_fixture("tiles33")
    space = PartySpace((3, 3, 2))
    states = []
    for k in t:
        for c in (0, 1):
            states.append(Ket(space, np.kron(k.amplitudes, np.eye(2)[c]), f"{k.label}_c{c}"))
    doubled = StateSet(space, states, "tiles_x_flag")
    v = check_unextendible(doubled)
    assert v.unextendible


def test_assignment_cap():
    s = PartySpace((2, 2, 2, 2, 2))
    # 5 parties, 13 states -> 5^13 > 1e7 assignments: refuse
    states = []
    for i in range(13):
        bits = [(i >> b) & 1 for b in range(4)]
        states.append(make_ket(s, [(1, tuple(bits + [i % 2]))], f"v{i}"))
    # states here are not pairwise orthogonal in general; cap check fires first
    with pytest.raises(ValueError):
        check_unextendible(StateSet(s, states[:13], "big"))


def test_shifts_upb_unextendible():
    s = shifts_upb()
    assert check_unextendible(s).unextendible
    assert numeric_extension_search(s, restarts=60, seed=0).residual > 1e-3


def _reference_extension_search(s, restarts=200, seed=0, restrict_support=True):
    """The oracle as one loop per restart, sweep and state; the stacked
    search in qlocc.upb must return the same result bit for bit."""
    rng = np.random.default_rng(seed)
    n_parties = s.space.n_parties
    supports = []
    for p in range(n_parties):
        if restrict_support:
            u, _ = _support_basis(_party_matrices(s, p))
        else:
            u = np.eye(s.space.party_dims[p], dtype=np.complex128)
        supports.append(u)
    rdims = [u.shape[1] for u in supports]
    tensors = []
    for kstate in s.states:
        t = kstate.tensor()
        for p, u in enumerate(supports):
            t = np.tensordot(u.conj().T, t, axes=([1], [p]))
            t = np.moveaxis(t, 0, p)
        tensors.append(np.conj(t))

    def residual_for(vecs):
        total = 0.0
        for tc in tensors:
            val = tc
            for p in range(n_parties):
                val = np.tensordot(val, vecs[p], axes=([0], [0]))
            total += abs(val) ** 2
        return float(total)

    best = None
    for _ in range(max(1, restarts)):
        vecs = []
        for r in rdims:
            v = rng.normal(size=r) + 1j * rng.normal(size=r)
            vecs.append(v / np.linalg.norm(v))
        prev = np.inf
        for _ in range(60):
            for p in range(n_parties):
                f = np.zeros((rdims[p], rdims[p]), dtype=np.complex128)
                for tc in tensors:
                    u = tc
                    for q in range(n_parties - 1, -1, -1):
                        if q == p:
                            continue
                        u = np.tensordot(u, vecs[q], axes=([q], [0]))
                    f += np.outer(np.conj(u), u)
                w, v = np.linalg.eigh(f)
                vecs[p] = v[:, 0]
            cur = residual_for(vecs)
            if prev - cur < 1e-15:
                break
            prev = cur
        cur = residual_for(vecs)
        if best is None or cur < best[0]:
            best = (cur, [v.copy() for v in vecs])
        if best[0] < 1e-12:
            break
    res, vecs = best
    amp = supports[0] @ vecs[0]
    for p in range(1, n_parties):
        amp = np.kron(amp, supports[p] @ vecs[p])
    return ExtensionSearchResult(res, Ket(s.space, amp, "candidate-extension"), restarts)


def _random_product_set(seed, dims, n):
    rng = np.random.default_rng(seed)
    while True:
        s = random_orthogonal_product_set(rng, dims, n)
        if s is not None:
            return s


ORACLE_INPUTS = {
    "tiles33": lambda: build_fixture("tiles33"),
    "minus-stopper": tiles_minus_stopper,
    "shifts": shifts_upb,
    # sizes 3 and 6 are extendible; a full product basis (9, 8) is unextendible
    "random33-3": lambda: _random_product_set(31, (3, 3), 3),
    "random33-6": lambda: _random_product_set(32, (3, 3), 6),
    "random33-9": lambda: _random_product_set(33, (3, 3), 9),
    "random222-3": lambda: _random_product_set(41, (2, 2, 2), 3),
    "random222-6": lambda: _random_product_set(42, (2, 2, 2), 6),
    "random222-8": lambda: _random_product_set(43, (2, 2, 2), 8),
}


@functools.cache
def _oracle_input(name):
    return ORACLE_INPUTS[name]()


def _same_bits(a, b):
    return (
        np.float64(a.residual).tobytes() == np.float64(b.residual).tobytes()
        and a.witness.amplitudes.tobytes() == b.witness.amplitudes.tobytes()
        and a.restarts == b.restarts
    )


@pytest.mark.parametrize("restarts", [1, 60, 200])
@pytest.mark.parametrize("restrict_support", [True, False], ids=["support", "ambient"])
@pytest.mark.parametrize("name", sorted(ORACLE_INPUTS))
def test_oracle_matches_reference_loop_bit_for_bit(name, restrict_support, restarts):
    s = _oracle_input(name)
    ref = _reference_extension_search(s, restarts, 7, restrict_support)
    got = numeric_extension_search(s, restarts, 7, restrict_support)
    assert _same_bits(got, ref), (got.residual, ref.residual)


@pytest.mark.parametrize("name", ["tiles33", "shifts", "random33-9"])
def test_oracle_blocks_match_reference_loop_bit_for_bit(name, monkeypatch):
    # 60 restarts in blocks of 7 after restart 0: the best restart must be
    # picked in restart order across blocks, as within one
    monkeypatch.setattr(upb, "RESTART_BLOCK", 7)
    s = _oracle_input(name)
    assert _same_bits(numeric_extension_search(s, 60, 7), _reference_extension_search(s, 60, 7))


def test_residual_squares_as_numpy_scalars_do():
    # the loop squared each |<psi_i|a>| as a numpy scalar, which calls libm
    # pow; x * x rounds differently for some x, so take one of those
    xs = np.random.default_rng(0).random(20000)
    x = next(x for x in xs if np.float64(x) ** 2 != x * x)
    one_state = np.array([[x]], dtype=np.complex128)  # one state, one party, support 1
    assert _residuals(one_state, [np.ones((1, 1, 1), dtype=np.complex128)])[0] == np.float64(x) ** 2


def test_oracle_stops_at_first_exact_extension():
    s = tiles_minus_stopper()
    one = numeric_extension_search(s, restarts=1, seed=0)
    many = numeric_extension_search(s, restarts=200, seed=0)
    assert one.residual < 1e-12
    assert many.restarts == 200
    assert _same_bits(many, ExtensionSearchResult(one.residual, one.witness, 200))


@pytest.mark.parametrize("make", [tiles_minus_stopper, lambda: build_fixture("tiles33")], ids=["extendible", "upb"])
def test_oracle_zero_restarts_runs_one(make):
    s = make()
    zero = numeric_extension_search(s, restarts=0, seed=5)
    one = numeric_extension_search(s, restarts=1, seed=5)
    assert zero.restarts == 0
    assert _same_bits(zero, ExtensionSearchResult(one.residual, one.witness, 0))


def _local_vector(k, p):
    t = np.moveaxis(k.tensor(), p, 0)
    u, _, _ = np.linalg.svd(t.reshape(t.shape[0], -1))
    return u[:, 0]


def _brute_force_extendible(s):
    """Extendible iff some assignment of the states to parties leaves every
    party's assigned local vectors spanning a proper subspace of its support
    (the span of all the members' local vectors there)."""
    n_parties = s.space.n_parties
    vecs = [np.stack([_local_vector(k, p) for k in s.states]) for p in range(n_parties)]

    def rank(m):
        return np.linalg.matrix_rank(m, tol=1e-8) if len(m) else 0

    full = [rank(v) for v in vecs]
    for assignment in itertools.product(range(n_parties), repeat=len(s)):
        owned = np.array(assignment)
        if all(rank(vecs[p][owned == p]) < full[p] for p in range(n_parties)):
            return True
    return False


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.sampled_from([(3, 3), (2, 2, 2)]),
    k=st.integers(1, 6),
)
def test_exact_upb_matches_brute_force_and_oracle(seed, dims, k):
    s = random_orthogonal_product_set(np.random.default_rng(seed), dims, k, max_tries=50)
    assume(s is not None)
    unextendible = check_unextendible(s).unextendible
    assert unextendible == (not _brute_force_extendible(s))
    oracle = numeric_extension_search(s, restarts=60, seed=seed % 1000)
    assert unextendible == (oracle.residual > 1e-8), oracle.residual
