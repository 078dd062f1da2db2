import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _helpers import random_orthogonal_product_set, reference_check_unextendible, upb_outcome, upb_run
from qlocc.fixtures import build_fixture
from qlocc.linalg import SPAN_TOL
from qlocc.oplm import is_locally_irreducible
from qlocc.protocol import SetAnalyzer
from qlocc.states import (
    Ket,
    PartySpace,
    StateSet,
    apply_local_unitaries,
    local_factors,
    make_ket,
    party_matrices,
    random_local_unitaries,
    _support_basis,
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
    witness = StateSet(w.space, [w])
    assert all(local_factors(witness, p)[1].all() for p in range(w.space.n_parties))


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


def test_entangled_member_named_in_set_order():
    s = PartySpace((2, 2))
    bell = [make_ket(s, [(1, (0, 1)), (sign, (1, 0))], lab) for sign, lab in ((1, "e+"), (-1, "e-"))]
    two = StateSet(s, [make_ket(s, [(1, (0, 0))], "00"), *bell, make_ket(s, [(1, (1, 1))], "11")], "two")
    with pytest.raises(ValueError, match=r"^state e\+ is not a product state$"):
        check_unextendible(two)
    # x is entangled only across B|C and y only across A|B: x comes first in
    # set order although party A's cut finds y first
    s = PartySpace((2, 2, 2))
    three = StateSet(
        s,
        [
            make_ket(s, [(1, (0, 0, 0))], "000"),
            make_ket(s, [(1, (0, 0, 1)), (1, (0, 1, 0))], "x"),
            make_ket(s, [(1, (1, 1, 1))], "111"),
            make_ket(s, [(1, (0, 1, 1)), (1, (1, 0, 1))], "y"),
        ],
        "three",
    )
    with pytest.raises(ValueError, match=r"^state x is not a product state$"):
        check_unextendible(three)


def _pinned_cases():
    """tiles33, tiles33 without each state, and seeded random orthogonal
    product sets, keyed by the ids of UPB_PINS."""
    t = build_fixture("tiles33")
    cases = [("tiles33", t)]
    for drop in range(len(t)):
        cases.append((f"tiles33-minus-{drop}", StateSet(t.space, [k for i, k in enumerate(t.states) if i != drop], "m")))
    for dims, seed, sizes in [((3, 3), 21, (5, 7, 9)), ((2, 2, 2), 22, (5, 7, 8)), ((2, 4), 23, (5, 7, 8)), ((3, 3, 2), 24, (6, 9, 10))]:
        rng = np.random.default_rng(seed)
        for n in sizes:
            s = None
            while s is None:
                s = random_orthogonal_product_set(rng, dims, n)
            cases.append(("x".join(map(str, dims)) + f"-{n}", s))
    return dict(cases)


# (unextendible, nodes_explored, assignment, sha256 of the witness amplitudes)
# of the assignment search without the dominance prune, computed with one
# product test per state and a DFS with separate grow and no-grow branches;
# the stacked SVD and the one-body DFS of reference_check_unextendible must
# reproduce them bit for bit
UPB_PINS = {
    "tiles33": (True, 19, None, None),
    "tiles33-minus-0": (False, 5, [0, 0, 1, 1], "93ddef40477094761870ea83c70bad3a711123d38d36479a0fd615b00399d623"),
    "tiles33-minus-1": (False, 5, [0, 0, 1, 1], "00dc26e70aed9b44174155e31a57f2af71a335fa4820c1db267296e018b8d1a5"),
    "tiles33-minus-2": (False, 5, [0, 0, 1, 1], "05f3698bb2ab75f0e2189b18b71f34c452fb2502c650bc98de7d2fdd1b742bf0"),
    "tiles33-minus-3": (False, 5, [0, 0, 1, 1], "30e9e2dcfcc1e60b3024a4ce07b50c3f009a4517c4e774461584d5a6c047e391"),
    "tiles33-minus-4": (False, 5, [0, 0, 1, 1], "5261df4870b6c2c76f3e705d27fe3739aac1799d8689b16288771f91369aa9ec"),
    "3x3-5": (False, 9, [0, 1, 0, 1, 1], "f1757bda950f9f6fa4962aa0b2580ea8211828fa57b9cc8dcc5326a82cbc79c8"),
    "3x3-7": (False, 8, [0, 0, 1, 0, 0, 0, 1], "31b1a01914757f4df898c8ea47fbcc9fefc851eeba8cfab13d96ffb2db8eebc9"),
    "3x3-9": (True, 30, None, None),
    "2x2x2-5": (False, 6, [0, 1, 1, 2, 2], "170dbdf2c43cd00978b0b1aebf088f4e63e3ad1c0ddca834a812631bc69254d9"),
    "2x2x2-7": (False, 22, [2, 0, 2, 1, 2, 2, 1], "5b1f158c9ec43c6aa4dc3c09f511fd6bc2f8f55f84e1e431309b41ddca75e02f"),
    "2x2x2-8": (True, 37, None, None),
    "2x4-5": (False, 6, [0, 1, 1, 1, 0], "02ec8cbb494ca092146c479adc3d158ef6945071c5d1619783dc3b88c9de0955"),
    "2x4-7": (False, 8, [0, 1, 1, 1, 0, 0, 1], "8a079108f7a83aa16f064c50d00301a9ce96b303aac3d89aa77f5a626a9dab71"),
    "2x4-8": (True, 21, None, None),
    "3x3x2-6": (False, 7, [0, 0, 1, 1, 2, 0], "b2fcc78269684bbad74dc4bf2cde58c0a11db806d414602559bc5f9f7e2954b7"),
    "3x3x2-9": (False, 17, [0, 0, 2, 1, 1, 2, 1, 2, 2], "01f713a19d0b5ab654e7044f65053043b5e04e785e6494995bd721f73a622397"),
    "3x3x2-10": (
        False,
        75,
        [0, 2, 1, 1, 0, 1, 1, 2, 2, 1],
        "bff91f0f722c04ff126077af400f191f888e5d896f0631b527129405af9fae47",
    ),
}


# nodes_explored of check_unextendible, whose dominance prune and memo of
# failed subproblems skip the branches that cannot change the outcome; a
# memo hit counts as a node. Every other field is UPB_PINS's
UPB_NODES = {
    "tiles33": 19,
    "tiles33-minus-0": 5,
    "tiles33-minus-1": 5,
    "tiles33-minus-2": 5,
    "tiles33-minus-3": 5,
    "tiles33-minus-4": 5,
    "3x3-5": 9,
    "3x3-7": 8,
    "3x3-9": 29,
    "2x2x2-5": 6,
    "2x2x2-7": 22,
    "2x2x2-8": 27,
    "2x4-5": 6,
    "2x4-7": 8,
    "2x4-8": 20,
    "3x3x2-6": 7,
    "3x3x2-9": 23,
    "3x3x2-10": 56,
}


def _pin(v):
    unextendible, assignment, witness = upb_outcome(v)
    return (unextendible, v.nodes_explored, assignment, witness)


def test_reference_search_pins():
    assert {name: _pin(reference_check_unextendible(s)) for name, s in _pinned_cases().items()} == UPB_PINS


def test_check_unextendible_pins():
    got = {name: _pin(check_unextendible(s)) for name, s in _pinned_cases().items()}
    assert got == {name: (u, UPB_NODES[name], a, w) for name, (u, _, a, w) in UPB_PINS.items()}


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
    amb = _ambient_extension_search(single, 20, 1)
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


def test_irreducible_exact_invariant_under_local_unitaries():
    """IRREDUCIBLE-EXACT is a rank decision on the OPLM spaces, which local
    unitaries only conjugate, so no rotation of tiles33 moves it."""
    rng = np.random.default_rng(11)
    s = build_fixture("tiles33")
    assert is_locally_irreducible(s).verdict == "IRREDUCIBLE-EXACT"
    for _ in range(5):
        rotated = apply_local_unitaries(s, random_local_unitaries(s.space, rng))
        assert is_locally_irreducible(rotated).verdict == "IRREDUCIBLE-EXACT"


def test_qubit_times_n_rule_invariant_under_local_unitaries():
    """The C2 x Cn rule reads support ranks and product structure, which
    local unitaries keep: it holds on random 2 x n orthogonal product sets
    and on every rotation of them, and never on a rotated tiles33."""
    rng = np.random.default_rng(12)
    cases = [(random_orthogonal_product_set(rng, (2, n), n + 2), True) for n in (3, 4, 5)]
    cases.append((build_fixture("tiles33"), False))
    for s, rule in cases:
        assert s is not None
        for us in [None] + [random_local_unitaries(s.space, rng) for _ in range(3)]:
            t = s if us is None else apply_local_unitaries(s, us)
            an = SetAnalyzer()
            assert an.nodes[an.intern(t)].exact_nonactivable is rule


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
    # distinct computational basis states: orthogonal and product, so the
    # gram and product checks pass and the cap is what refuses them
    with pytest.raises(ValueError, match="exceed cap"):
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
            u, _ = _support_basis(party_matrices(s, p))
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
    # four parties: both extendible
    "random2222-4": lambda: _random_product_set(51, (2, 2, 2, 2), 4),
    "random2222-8": lambda: _random_product_set(52, (2, 2, 2, 2), 8),
}


@functools.cache
def _oracle_input(name):
    return ORACLE_INPUTS[name]()


def _ambient_extension_search(s, restarts, seed):
    """The oracle's descent with each party's candidate on its whole space."""
    return upb._extension_search(s, [np.eye(d, dtype=np.complex128) for d in s.space.party_dims], restarts, seed)


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
    if restrict_support:
        got = numeric_extension_search(s, restarts, 7)
    else:
        got = _ambient_extension_search(s, restarts, 7)
    assert _same_bits(got, ref), (got.residual, ref.residual)


@pytest.mark.parametrize("name", ["tiles33", "shifts", "random33-9"])
def test_oracle_blocks_match_reference_loop_bit_for_bit(name, monkeypatch):
    # 60 restarts in blocks of 7 after restart 0: the best restart must be
    # picked in restart order across blocks, as within one
    monkeypatch.setattr(upb, "RESTART_BLOCK", 7)
    s = _oracle_input(name)
    assert _same_bits(numeric_extension_search(s, 60, 7), _reference_extension_search(s, 60, 7))


def shifts_x_flag():
    """Shifts (x) {|0>, |1>} on C2 x C2 x C2 x C2: unextendible, since the
    fourth factor of a product extension cannot be orthogonal to both flags."""
    shifts = shifts_upb()
    space = PartySpace((2, 2, 2, 2))
    states = [Ket(space, np.kron(k.amplitudes, np.eye(2)[c]), f"{k.label}_{c}") for k in shifts.states for c in (0, 1)]
    return StateSet(space, states, "shifts-x-flag")


@pytest.mark.parametrize("restarts", [1, 20])
@pytest.mark.parametrize("restrict_support", [True, False], ids=["support", "ambient"])
def test_oracle_matches_reference_loop_on_a_four_party_upb(restrict_support, restarts):
    # every restart runs: the stacked block contracts three parties per party update
    s = shifts_x_flag()
    assert check_unextendible(s).unextendible
    ref = _reference_extension_search(s, restarts, 7, restrict_support)
    if restrict_support:
        got = numeric_extension_search(s, restarts, 7)
    else:
        got = _ambient_extension_search(s, restarts, 7)
    assert ref.residual > 1e-3
    assert _same_bits(got, ref), (got.residual, ref.residual)


@pytest.mark.parametrize("name, seed", [("tiles33", 5), ("shifts", 3)])
def test_oracle_block_that_shrinks_to_one_restart_matches_reference(name, seed, monkeypatch):
    # restart 0, then one block of 4: all but one of the block's restarts
    # stop early, so its last sweeps run on a stack of one
    s = _oracle_input(name)
    ref = _reference_extension_search(s, 5, seed)
    sizes = []
    eigh = np.linalg.eigh

    def recording_eigh(f):
        sizes.append(f.shape[0])
        return eigh(f)

    monkeypatch.setattr(upb, "RESTART_BLOCK", 4)
    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    got = numeric_extension_search(s, 5, seed)
    monkeypatch.undo()
    block = sizes[sizes.index(4) :]
    assert block[-1] == 1 and set(block) >= {4, 1}, sizes
    assert _same_bits(got, ref), (got.residual, ref.residual)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 9),
    r0=st.integers(2, 4),
    r1=st.integers(2, 4),
    count=st.integers(1, 9),
)
def test_two_party_descent_residual_equals_residuals(seed, n, r0, r1, count):
    # for N = 2 the descent takes each sweep's residual from the last party's
    # contraction; it must equal `_residuals` of the vectors it returns, byte
    # for byte, including the stride order `_compressed_states` leaves
    rng = np.random.default_rng(seed)
    space = PartySpace((r0, r1))
    rows = rng.normal(size=(n, r0 * r1)) + 1j * rng.normal(size=(n, r0 * r1))
    s = StateSet.from_matrix(space, rows, [f"v{i}" for i in range(n)])
    tensors = upb._compressed_states(s, [np.eye(r, dtype=np.complex128) for r in (r0, r1)])
    res, vecs = upb._descend(tensors, upb._random_starts(rng, [r0, r1], count))
    assert res.tobytes() == _residuals(tensors, vecs).tobytes()


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
    verdict = check_unextendible(s)
    assert upb_outcome(verdict) == upb_outcome(upb_run(reference_check_unextendible, s))
    unextendible = verdict.unextendible
    assert unextendible == (not _brute_force_extendible(s))
    oracle = numeric_extension_search(s, restarts=60, seed=seed % 1000)
    assert unextendible == (oracle.residual > 1e-8), oracle.residual


def _tiled_product_set(rng, dims, n, rotated):
    """A greedy orthogonal product set of at most n states whose local
    vectors come from a small pool per party: the columns u_a of a random
    unitary (the identity unless `rotated`) and (u_a +- u_b)/sqrt2, so
    states share local vectors as the tiles of a tiling do. None when fewer
    than two states fit."""
    pools = []
    for d in dims:
        u = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0] if rotated else np.eye(d, dtype=complex)
        extra = [(u[:, a] + sign * u[:, b]) / np.sqrt(2) for a, b in itertools.combinations(range(d), 2) for sign in (1, -1)]
        pools.append(np.array(list(u.T) + extra))
    picks = []
    for _ in range(50 * n):
        pick = [int(rng.integers(len(pool))) for pool in pools]
        if all(any(abs(np.vdot(pool[a], pool[b])) <= 1e-12 for pool, a, b in zip(pools, pick, other)) for other in picks):
            picks.append(pick)
            if len(picks) == n:
                break
    if len(picks) < 2:
        return None
    space = PartySpace(tuple(dims))
    amps = [functools.reduce(np.kron, [pool[a] for pool, a in zip(pools, pick)]) for pick in picks]
    return StateSet(space, [Ket(space, amp, f"t{i}") for i, amp in enumerate(amps)], "tiled")


def test_memoized_search_matches_the_plain_search_on_repeated_local_vectors():
    # a failed (state, held-state masks) subproblem fails wherever it
    # recurs, and the memo of failures keeps the plain search's first
    # successful path. The pruned, memoized search never takes more nodes
    # than the plain one on these sets, and takes fewer on some
    rng = np.random.default_rng(25)
    checked = unextendible = fewer = 0
    for case in range(40):
        dims = [(3, 3), (4, 4), (2, 2, 2), (3, 3, 2), (4, 5)][case % 5]
        s = _tiled_product_set(rng, dims, int(rng.integers(8, 21 if len(dims) == 2 else 13)), rotated=case % 2 == 1)
        if s is None:
            continue
        _, locals_ = upb._local_support_vectors(s, [local_factors(s, p) for p in range(len(dims))])
        assert any((np.abs(w.conj() @ w.T) > 1 - 1e-12).sum() > len(s) for w in locals_), case  # a shared local vector
        got, plain = check_unextendible(s), upb_run(reference_check_unextendible, s)
        assert upb_outcome(got) == upb_outcome(plain) and got.nodes_explored <= plain.nodes_explored, case
        fewer += got.nodes_explored < plain.nodes_explored
        checked += 1
        unextendible += got.unextendible
    assert checked >= 35 and 0 < unextendible < checked and fewer > 0


def test_memo_hits_a_span_grown_from_other_states():
    # on party A, states 0, 3 and 4 lie in the plane orthogonal to
    # (1, 1, 1), and 0, 1 and 2 in the plane orthogonal to (1, -1, 1). The
    # search fails at state 5 with A's span grown from states 0 and 4, and
    # reaches state 5 again with it grown from 0 and 3 (B's span is
    # span{e0, e1} both times); likewise at state 4 with the other plane.
    # Both recurrences hit the memo: 16 nodes, where a key on the states a
    # span was grown from, or no memo, takes 17
    space = PartySpace((3, 3))
    e, r = np.eye(3), np.sqrt(0.5)
    factors = [
        ((e[0] - e[2]) * r, e[2]),
        ((e[0] + e[1]) * r, e[0]),
        ((e[1] + e[2]) * r, e[1]),
        ((e[0] - e[1]) * r, e[0]),
        ((e[1] - e[2]) * r, e[1]),
        ((e[0] + e[2]) * r, e[2]),
    ]
    s = StateSet(space, [Ket(space, np.kron(a, b).astype(complex), f"p{i}") for i, (a, b) in enumerate(factors)], "planes")
    got, plain = check_unextendible(s), reference_check_unextendible(s)
    assert upb_outcome(got) == upb_outcome(plain)
    assert (got.unextendible, got.assignment, got.nodes_explored, plain.nodes_explored) == (False, [0, 1, 1, 1, 1, 0], 16, 21)


@pytest.mark.parametrize("r", range(2, 13))
def test_span_residuals_are_the_one_vector_products(r):
    # the residuals and norms `_span` stacks over all states equal, bit for
    # bit, the per-vector residual and the norm taken from its real and
    # imaginary dots
    rng = np.random.default_rng(r)
    for dim in range(r):
        n = int(rng.integers(1, 41))
        # C-contiguous, as np.hstack grows a span in the search
        basis = np.ascontiguousarray(np.linalg.qr(rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r)))[0][:, :dim])
        # a third of the states lie in a nonzero span
        inside = n // 3 if dim else 0
        w = rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r))
        w[:inside] = (rng.normal(size=(inside, dim)) + 1j * rng.normal(size=(inside, dim))) @ basis.T
        w /= np.linalg.norm(w, axis=1)[:, None]
        sp = upb._span(basis, w)
        basis_h = basis.conj().T
        for j in range(n):
            resid = w[j] - basis @ (basis_h @ w[j])
            re, im = resid.real, resid.imag
            assert sp.resid[j].tobytes() == resid.tobytes(), (dim, j)
            assert sp.norms[j] == math.sqrt(re.dot(re) + im.dot(im)), (dim, j)
        assert sp.held == sum(1 << j for j in range(n) if sp.norms[j] <= SPAN_TOL) == 2**inside - 1
