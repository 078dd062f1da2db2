import functools
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _helpers import (
    PEAK_RSS_SOURCE,
    candidates_match_reference,
    constraint_residual,
    irreducibility_cases,
    mask_mismatches,
    qubit_pairs,
    random_orthogonal_product_set,
    random_orthonormal_set,
    random_unit,
    recorded_candidates,
    recorded_part_stacks,
    reference_block_columns,
    reference_constraint_rows,
    reference_is_locally_irreducible,
    reference_is_oplm,
    reference_measurement_candidates,
    reference_pair_tensors,
    same_bits,
    state_model_cases,
)
import qlocc
from qlocc import oplm
from qlocc.fixtures import build_fixture
from qlocc.linalg import ELIM_TOL, INDEX_TOL, NOISE_TOL, RANK_RTOL, SPAN_TOL
from qlocc.oplm import (
    ATOM_CAP,
    CLASS_NOTE,
    MASK_CHUNK,
    LocalMeasurement,
    OplmSpace,
    _atoms,
    _constraint_rows,
    _coords_to_matrix,
    _pair_tensors,
    _rank,
    _tall_svd,
    block_structure,
    eliminable_states,
    index_split,
    is_locally_irreducible,
    is_oplm,
    is_trivial,
    measurement_candidates,
    oplm_space,
    projective_oplms,
)
from qlocc.partitions import _merge_for, hidden_nonlocality_profile
from qlocc.protocol import activation_search, search_distinguishing_protocol
from qlocc.states import (
    PartySpace,
    StateSet,
    apply_local_unitaries,
    make_ket,
    occupied_indices,
    party_matrices,
    party_rows,
    random_local_unitaries,
    survivors,
    union_survivors,
    _support_basis,
)


def pair_set():
    s = PartySpace((2, 2))
    return StateSet(s, [make_ket(s, [(1, (0, 0))], "00"), make_ket(s, [(1, (1, 1))], "11")], "pair")


def test_s1_party_a_space():
    s1 = build_fixture("s1")
    sp = oplm_space(s1, 0)
    assert sp.space_dim == 2
    # span is {diag(d0, g, g, g)}: check the two basis elements are diagonal
    # and constant on {1,2,3}
    for e in sp.basis:
        off = e - np.diag(np.diagonal(e))
        assert np.abs(off).max() <= 1e-8
        d = np.real(np.diagonal(e))
        assert np.ptp(d[1:]) <= 1e-8
    bs = block_structure(sp)
    assert bs.commuting
    assert bs.index_supports == [[0], [1, 2, 3]]
    ms = projective_oplms(sp, bs)
    assert len(ms) == 1
    assert np.allclose(ms[0].kraus[0], np.diag([1, 0, 0, 0]))
    assert np.allclose(ms[0].kraus[1], np.diag([0, 1, 1, 1]))


def test_s1_party_b_trivial_bob_cannot_go_first():
    # the same tying argument applied to Bob collapses his whole space
    sp = oplm_space(build_fixture("s1"), 1)
    assert sp.space_dim == 1
    assert is_trivial(sp)


def test_s5_party_a_space():
    sp = oplm_space(build_fixture("s5"), 0)
    assert sp.space_dim == 2
    bs = block_structure(sp)
    assert bs.commuting and bs.index_supports == [[0], [1, 2, 3]]


def test_tiles33_both_parties_trivial():
    t = build_fixture("tiles33")
    assert oplm_space(t, 0).space_dim == 1
    assert oplm_space(t, 1).space_dim == 1
    assert projective_oplms(oplm_space(t, 0), block_structure(oplm_space(t, 0))) == []


def test_pair_full_hermitian_space():
    # the only pair constraint has a vanishing B factor, so no constraint
    # binds and the space is the full 2x2 Hermitian space
    sp = oplm_space(pair_set(), 0)
    assert sp.space_dim == 4
    assert not is_trivial(sp)
    bs = block_structure(sp)
    assert not bs.commuting
    with pytest.raises(ValueError):
        projective_oplms(sp, bs)


def test_single_state_full_space():
    s = PartySpace((3, 3))
    single = StateSet(s, [make_ket(s, [(1, (0, 0))], "00")], "one")
    sp = oplm_space(single, 0)
    assert sp.space_dim == 9
    assert not is_trivial(sp)


def test_identity_always_in_span():
    for name in ("s1", "s2", "s3", "s5", "s6", "tiles33"):
        s = build_fixture(name)
        for p in range(s.space.n_parties):
            sp = oplm_space(s, p)
            assert sp.identity_residual() <= 1e-12, (name, p)


def test_basis_trace_orthonormal():
    for name in ("s1", "s3", "s5"):
        s = build_fixture(name)
        for p in range(s.space.n_parties):
            basis = oplm_space(s, p).basis
            for i, a in enumerate(basis):
                for j, b in enumerate(basis):
                    val = np.trace(a.conj().T @ b)
                    assert abs(val - (1.0 if i == j else 0.0)) <= 1e-10


def test_random_span_samples_satisfy_constraints():
    rng = np.random.default_rng(4)
    for name in ("s1", "s3", "s5"):
        s = build_fixture(name)
        for p in range(s.space.n_parties):
            sp = oplm_space(s, p)
            for _ in range(5):
                coeff = rng.normal(size=sp.space_dim)
                e = sum(c * b for c, b in zip(coeff, sp.basis))
                assert constraint_residual(sp, e) <= 1e-8


def test_block_structure_synthetic_span():
    # span{I, diag(1,1,0,0)} has blocks {0,1} and {2,3} and one measurement
    basis = [np.eye(4, dtype=complex) / 2, np.diag([1, 1, -1, -1]).astype(complex) / 2]
    sp = OplmSpace(0, np.eye(4, dtype=complex), [0, 1, 2, 3], basis, 1, np.zeros((0, 4, 4)), np.zeros(0, dtype=np.intp))
    bs = block_structure(sp)
    assert bs.commuting
    assert bs.index_supports == [[0, 1], [2, 3]]
    ms = projective_oplms(sp, bs)
    assert len(ms) == 1
    assert np.allclose(ms[0].kraus[0] + ms[0].kraus[1], np.eye(4))


def test_block_structure_identity_span():
    basis = [np.eye(4, dtype=complex) / 2]
    sp = OplmSpace(0, np.eye(4, dtype=complex), [0, 1, 2, 3], basis, 1, np.zeros((0, 4, 4)), np.zeros(0, dtype=np.intp))
    bs = block_structure(sp)
    assert bs.commuting and len(bs.blocks) == 1
    assert bs.index_supports == [[0, 1, 2, 3]]


def test_trivial_measurement_eliminates_nothing():
    from qlocc.oplm import LocalMeasurement

    s1 = build_fixture("s1")
    ident = LocalMeasurement(0, [np.eye(4, dtype=complex)], ["I"])
    assert eliminable_states(s1, ident) == [[]]


def test_block_structure_nondiagonal_blocks():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    basis = [np.eye(2, dtype=complex) / np.sqrt(2), x / np.sqrt(2)]
    sp = OplmSpace(0, np.eye(2, dtype=complex), [0, 1], basis, 1, np.zeros((0, 2, 2)), np.zeros(0, dtype=np.intp))
    bs = block_structure(sp)
    assert bs.commuting
    assert len(bs.blocks) == 2
    plus = np.array([1, 1]) / np.sqrt(2)
    assert any(np.abs(b - np.outer(plus, plus)).max() < 1e-8 for b in bs.blocks)


def test_eliminable_states_s1():
    s1 = build_fixture("s1")
    (m,) = measurement_candidates(s1, 0)
    elim = eliminable_states(s1, m)
    support0 = {"0_X01+", "0_X01-", "0_X23+", "0_X23-"}
    assert set(elim[0]) == set(s1.labels) - support0  # P0 kills everything else
    assert set(elim[1]) == support0


@pytest.mark.parametrize("s", state_model_cases())
def test_eliminable_states_are_the_states_an_outcome_drops(s):
    # irreducibility and the search read one survivor rule
    for p in range(s.space.n_parties):
        for m in measurement_candidates(s, p)[:8]:
            kept = [survivors(s, p, k)[1] for k in m.kraus]
            assert eliminable_states(s, m) == [[lab for lab, keep in zip(s.labels, ks) if not keep] for ks in kept]


def test_eliminable_rejects_non_oplm():
    s1 = build_fixture("s1")
    from qlocc.oplm import LocalMeasurement

    bad = LocalMeasurement(0, [np.diag([1, 1, 0, 0]).astype(complex), np.diag([0, 0, 1, 1]).astype(complex)], ["a", "b"])
    assert not is_oplm(s1, bad)
    with pytest.raises(ValueError):
        eliminable_states(s1, bad)


def test_irreducibility_verdicts():
    assert is_locally_irreducible(build_fixture("tiles33")).verdict == "IRREDUCIBLE-EXACT"
    v = is_locally_irreducible(build_fixture("s1"))
    assert v.verdict == "REDUCIBLE"
    assert v.witness is not None
    w = is_locally_irreducible(pair_set())
    assert w.verdict == "REDUCIBLE"
    assert np.allclose(w.witness.kraus[0], np.diag([1, 0])) or np.allclose(w.witness.kraus[0], np.diag([0, 1]))


def test_irreducibility_needs_two_states():
    s = PartySpace((2, 2))
    single = StateSet(s, [make_ket(s, [(1, (0, 0))], "a")], "one")
    with pytest.raises(ValueError):
        is_locally_irreducible(single)


def test_s3_party_b_candidates_include_kb():
    s3 = build_fixture("s3")
    cands = measurement_candidates(s3, 1)
    labels = {m.labels[0] for m in cands}
    assert "P[0,1,2]" in labels


def _reversed_order_space_dim(s, party):
    """Independent oracle: assemble the constraint matrix by explicit loops,
    enumerating Hermitian coordinates in reversed index order."""
    dims = s.space.party_dims
    d = dims[party]
    n = s.space.n_parties
    order = [party] + [q for q in range(n) if q != party]
    mats = [k.tensor().transpose(order).reshape(d, -1) for k in s.states]
    coords = []  # (kind, a, b) in reversed enumeration
    for a in range(d - 1, -1, -1):
        for b in range(d - 1, a - 1, -1):
            if a == b:
                coords.append(("d", a, a))
            else:
                coords.append(("re", a, b))
                coords.append(("im", a, b))
    rows = []
    for i in range(len(s)):
        for j in range(len(s)):
            if i >= j:
                continue
            re_row, im_row = [], []
            for kind, a, b in coords:
                if kind == "d":
                    e = np.zeros((d, d), dtype=complex)
                    e[a, a] = 1
                elif kind == "re":
                    e = np.zeros((d, d), dtype=complex)
                    e[a, b] = e[b, a] = 1
                else:
                    e = np.zeros((d, d), dtype=complex)
                    e[a, b] = 1j
                    e[b, a] = -1j
                val = np.trace(mats[i].conj().T @ e @ mats[j])
                re_row.append(val.real)
                im_row.append(val.imag)
            rows.append(re_row)
            rows.append(im_row)
    a = np.array(rows) if rows else np.zeros((0, d * d))
    return d * d - np.linalg.matrix_rank(a, tol=1e-8)


def test_space_dim_against_reversed_order_oracle():
    rng = np.random.default_rng(31)
    cases = [build_fixture("tiles33"), pair_set()]
    for _ in range(6):
        n = int(rng.integers(2, 7))
        s = random_orthogonal_product_set(rng, (3, 3), n)
        if s is not None:
            cases.append(s)
    for _ in range(3):
        cases.append(random_orthonormal_set(rng, (3, 3), 4))
    for s in cases:
        for p in range(2):
            assert oplm_space(s, p).space_dim == _reversed_order_space_dim(s, p)


def test_space_dim_invariances():
    rng = np.random.default_rng(41)
    s3 = build_fixture("s3")
    dims_before = [oplm_space(s3, p).space_dim for p in range(2)]
    # relabeling states does not change the space
    relabeled = StateSet(s3.space, list(reversed(s3.states)), "rev")
    assert [oplm_space(relabeled, p).space_dim for p in range(2)] == dims_before
    # a local unitary on the *other* party leaves party A's dimension fixed
    us = random_local_unitaries(s3.space, rng)
    us[0] = np.eye(6)
    rotated = apply_local_unitaries(s3, us)
    assert oplm_space(rotated, 0).space_dim == dims_before[0]


def test_candidate_measurements_complete_and_op():
    for name in ("s1", "s3", "s5"):
        s = build_fixture(name)
        for p in range(s.space.n_parties):
            for m in measurement_candidates(s, p):
                assert m.completeness_residual() <= 1e-10
                assert is_oplm(s, m)


# -- the solver against its loop-and-full-SVD reference ------------------------

FIXTURES = ("s1", "s2", "s3", "s4", "s5", "s6", "tiles33")


def _constraint_rows_loop(g):
    """Reference: the constraint rows built pair by pair and coordinate by
    coordinate, with the same elementwise arithmetic as the solver."""
    n, _, r, _ = g.shape
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rows = np.zeros((2 * len(pairs), r * r), dtype=np.float64)
    rt2 = np.sqrt(2.0)
    off_index = {}
    pos = r
    for a in range(r):
        for b in range(a + 1, r):
            off_index[(a, b)] = pos
            pos += 2
    for row, (i, j) in enumerate(pairs):
        c = g[i, j]
        re, im = 2 * row, 2 * row + 1
        rows[re, :r] = np.real(np.diagonal(c))
        rows[im, :r] = np.imag(np.diagonal(c))
        for (a, b), p in off_index.items():
            s_ab = (c[a, b] + c[b, a]) / rt2
            d_ab = (c[a, b] - c[b, a]) / rt2
            rows[re, p] = np.real(s_ab)
            rows[re, p + 1] = -np.imag(d_ab)
            rows[im, p] = np.imag(s_ab)
            rows[im, p + 1] = np.real(d_ab)
    return rows


def _pair_inputs(s, party, on_support):
    mats = party_matrices(s, party)
    return mats, _support_basis(mats)[0] if on_support else np.eye(mats.shape[1], dtype=complex)


def _pair_data(s, party, on_support):
    """The live pairs' tensors, their indices and the state count: the
    arguments of `_constraint_rows`."""
    return *_pair_tensors(*_pair_inputs(s, party, on_support)), len(s)


def _eager_solve(s, party, on_support):
    """Reference: rank and basis from one full-matrices SVD of the loop rows."""
    g = reference_pair_tensors(*_pair_inputs(s, party, on_support))
    r = g.shape[2]
    rows = _constraint_rows_loop(g)
    if rows.shape[0] == 0:
        return 0, [_coords_to_matrix(h, r) for h in np.eye(r * r)]
    _, sv, vh = np.linalg.svd(rows)
    rank = int(np.sum(sv > max(RANK_RTOL * sv[0], 1e-10)))
    return rank, [_coords_to_matrix(h, r) for h in vh[rank:]]


def _fixture_cases():
    for name in FIXTURES:
        s = build_fixture(name)
        for p in range(s.space.n_parties):
            for on_support in (False, True):
                yield f"{name}-{p}-{on_support}", s, p, on_support
    for d in (4, 6):
        s = build_fixture("s1_general", d=d)
        for on_support in (False, True):
            yield f"s1_general{d}-0-{on_support}", s, 0, on_support


def test_vectorized_rows_match_loop_bitwise():
    for case, s, p, on_support in _fixture_cases():
        got = _constraint_rows(*_pair_data(s, p, on_support))
        want = _constraint_rows_loop(reference_pair_tensors(*_pair_inputs(s, p, on_support)))
        assert got.shape == want.shape, case
        assert np.array_equal(got, want), case
        assert np.array_equal(np.signbit(got), np.signbit(want)), case


# -- the pair screen against the dense pair tensors and rows --------------------


def _assert_screen_matches_reference(s, p, on_support, case):
    """The compact G equals the dense reference's upper live entries and the
    constraint rows equal the reference rows, bytes and signed zeros
    included; every upper pair the screen drops has an exactly zero
    reference G and all-zero reference rows. Returns the screen's mask over
    the pairs i < j, in `np.triu_indices` order."""
    mats, support = _pair_inputs(s, p, on_support)
    g, pairs = _pair_tensors(mats, support)
    want_g = reference_pair_tensors(mats, support)
    iu, ju = np.triu_indices(len(s), 1)
    assert pairs.dtype == np.intp and np.all(np.diff(pairs) > 0), case
    assert same_bits(g, want_g[iu[pairs], ju[pairs]]), case
    live = np.zeros(len(iu), dtype=bool)
    live[pairs] = True
    assert not want_g[iu[~live], ju[~live]].any(), case
    rows, want_rows = _constraint_rows(g, pairs, len(s)), reference_constraint_rows(want_g)
    assert same_bits(rows, want_rows), case
    assert not want_rows[~np.repeat(live, 2)].any(), case
    return live


def _rotated(s, seed, parties=None):
    """`s` under seeded local unitaries on `parties` (every party by default)."""
    us = random_local_unitaries(s.space, np.random.default_rng(seed))
    if parties is not None:
        us = [u if q in parties else np.eye(len(u)) for q, u in enumerate(us)]
    return apply_local_unitaries(s, us)


@pytest.mark.parametrize("name", FIXTURES + ("s1_general",))
def test_screened_pair_data_matches_the_dense_reference(name):
    s = build_fixture(name, d=6) if name == "s1_general" else build_fixture(name)
    for variant, v in (("plain", s), ("rotated", _rotated(s, 7))):
        for p in range(s.space.n_parties):
            for on_support in (False, True):
                _assert_screen_matches_reference(v, p, on_support, (variant, p, on_support))


@pytest.mark.parametrize("d", [4, 6, 8, 10, 12])
def test_screened_pair_data_matches_the_dense_reference_on_s1_general(d):
    s = build_fixture("s1_general", d=d)
    for p in range(s.space.n_parties):
        for on_support in (False, True):
            _assert_screen_matches_reference(s, p, on_support, (p, on_support))


def _two_states():
    # |00> and |10> share B's index 0: party A's one pair is live, and its
    # space (the diagonal operators on span{|0>, |1>}) has two blocks
    space = PartySpace((3, 3))
    return StateSet(space, [make_ket(space, [(1, (0, 0))], "00"), make_ket(space, [(1, (1, 0))], "10")], "two")


def test_screened_pair_data_on_one_and_two_states():
    space = PartySpace((3, 3))
    one = StateSet(space, [make_ket(space, [(1, (0, 0))], "00")], "one")
    apart = StateSet(space, [make_ket(space, [(1, (0, 0))], "00"), make_ket(space, [(1, (1, 1))], "11")], "apart")
    for s, pairs in ((one, 0), (apart, 0), (_two_states(), 1)):
        live = _assert_screen_matches_reference(s, 0, False, s.name)
        assert len(live) == len(s) * (len(s) - 1) // 2 and live.sum() == pairs, s.name
        for p in range(2):
            for on_support in (False, True):
                _assert_screen_matches_reference(s, p, on_support, (s.name, p, on_support))
                _assert_screen_matches_reference(_rotated(s, 3), p, on_support, (s.name, p, on_support))


def test_screen_keeps_few_rows_at_the_s1_general_d8_root():
    s = build_fixture("s1_general", d=8)
    for p in range(s.space.n_parties):
        for on_support in (False, True):
            live = _assert_screen_matches_reference(s, p, on_support, (p, on_support))
            kept = 2 * int(live.sum())
            assert 0 < kept <= len(s) * (len(s) - 1) // 4, (p, on_support, kept)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.sampled_from([(3, 4), (4, 4), (2, 6), (6, 2), (2, 2, 3), (3, 2, 2)]),
    keep=st.floats(0.3, 1.0),
)
def test_screened_pair_data_matches_on_product_bases_rotated_on_one_party(seed, dims, keep):
    # a subset of the computational basis, rotated on one party only: G is
    # generic, and the screen keeps exactly the pairs that agree on every
    # index outside the solved and the rotated party, so it still drops pairs
    rng = np.random.default_rng(seed)
    space = PartySpace(dims)
    total = int(np.prod(dims))
    rows = np.sort(rng.choice(total, size=max(2, int(keep * total)), replace=False))
    s = StateSet.from_matrix(space, np.eye(total, dtype=complex)[rows], [f"b{i}" for i in rows], "basis")
    rotated = int(rng.integers(len(dims)))
    s = _rotated(s, seed, parties={rotated})
    index = np.array(np.unravel_index(rows, dims)).T
    for p in range(len(dims)):
        others = [q for q in range(len(dims)) if q not in (p, rotated)]
        shared = (index[:, None, others] == index[None, :, others]).all(axis=2)
        for on_support in (False, True):
            live = _assert_screen_matches_reference(s, p, on_support, (rotated, p, on_support))
            assert np.array_equal(live, shared[np.triu_indices(len(rows), 1)]), (rotated, p, on_support)


def _index_group_set(rng, dims, party: int, product: bool) -> StateSet:
    """Orthonormal states whose entries on `party` sit on two or more
    disjoint groups of its computational-basis indices, with random complex
    amplitudes. Product states take orthonormal local vectors within their
    group's indices and random local vectors elsewhere; entangled states are
    orthonormal random vectors of (group indices) x (the other parties)."""
    d = dims[party]
    rest = int(np.prod(dims)) // d
    cuts = np.sort(rng.choice(np.arange(1, d), size=int(rng.integers(1, d)), replace=False))
    mats = []
    for group in np.split(rng.permutation(d), cuts):
        size = len(group) if product else len(group) * rest
        q = np.linalg.qr(rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size)))[0]
        for col in q[:, : int(rng.integers(1, min(size, 3) + 1))].T:
            m = np.zeros((d, rest), dtype=complex)
            if product:
                others = [random_unit(rng, dims[o]) for o in range(len(dims)) if o != party]
                m[group] = np.outer(col, functools.reduce(np.kron, others))
            else:
                m[group] = col.reshape(len(group), rest)
            mats.append(m)
    space = PartySpace(dims)
    rows = party_rows(space, party, np.array(mats))
    return StateSet.from_matrix(space, rows, [f"g{i}" for i in range(len(rows))], "groups")


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.sampled_from([(2, 2), (3, 4), (4, 3), (6, 2), (2, 2, 3), (3, 2, 2), (2, 3, 2)]),
    product=st.booleans(),
    noise=st.one_of(st.none(), st.floats(-14.0, -9.0)),
)
def test_index_split_fires_only_where_the_solve_finds_two_dimensions(seed, dims, product, noise):
    # a set split into index groups on one party, possibly perturbed within
    # its own nonzero pattern so that its overlaps land on either side of
    # the guard; and the same set in a random local frame, where every
    # state occupies every index and the test never fires
    rng = np.random.default_rng(seed)
    party = int(rng.integers(len(dims)))
    s = _index_group_set(rng, dims, party, product)
    if noise is not None:
        m = s.matrix()
        kick = (rng.normal(size=m.shape) + 1j * rng.normal(size=m.shape)) * (m != 0)
        s = StateSet.from_matrix(s.space, m + 10.0**noise * kick, s.labels, s.name)
    g = np.abs(s.matrix().conj() @ s.matrix().T)
    np.fill_diagonal(g, 0.0)
    n = len(s)
    assert index_split(s, party) == (g.max() * np.sqrt(n * (n - 1)) <= NOISE_TOL), (g.max(), n)
    for p in range(len(dims)):
        if index_split(s, p):
            assert oplm_space(s, p, on_support=True).space_dim >= 2, p
    rotated = _rotated(s, seed)
    assert not any(index_split(rotated, p) for p in range(len(dims)))


def test_index_split_on_the_fixtures():
    # the parties whose states fall into two or more index groups; tiles33
    # is irreducible, and s5's and s6's groups join through shared indices
    fires = {"s1": [0], "s2": [0], "s3": [0], "s4": [0, 2], "s5": [], "s6": [], "tiles33": [], "s1_general": [0]}
    for name, want in fires.items():
        s = build_fixture(name, d=4) if name == "s1_general" else build_fixture(name)
        got = [p for p in range(s.space.n_parties) if index_split(s, p) is True]
        assert got == want, name
        assert all(oplm_space(s, p, on_support=True).space_dim >= 2 for p in got), name
    # one state, and |00>, |11>, which share no index on either party: no
    # pair constrains anything, so each party keeps its whole operator space
    s1 = build_fixture("s1")
    assert not index_split(StateSet(s1.space, s1.states[:1], "one"), 0)
    s = pair_set()
    assert index_split(s, 0) and index_split(s, 1)
    assert [oplm_space(s, p, on_support=True).space_dim for p in range(2)] == [4, 4]


@pytest.mark.parametrize("run", ["s2-profile", "s4-profile", "s1_general-d4", "s1_general-d6", "two-states"])
def test_block_union_columns_match_the_dense_product(monkeypatch, run):
    # every `_block_unions` call hands `_union_measurements` the bytes of the
    # dense product, a node with one live pair included: numpy multiplies a
    # single row by another BLAS routine, whose bits differ
    calls, current = [], []
    block_unions, union_measurements = oplm._block_unions, oplm._union_measurements

    def recorded_block_unions(sp, bs):
        current.append((sp, bs))
        try:
            return block_unions(sp, bs)
        finally:
            current.pop()

    def recorded_union_measurements(support, parts, index_sets, cols):
        if current:
            calls.append((*current[-1], cols.copy()))
        return union_measurements(support, parts, index_sets, cols)

    monkeypatch.setattr(oplm, "_block_unions", recorded_block_unions)
    monkeypatch.setattr(oplm, "_union_measurements", recorded_union_measurements)
    with recorded_candidates() as solved:
        if run.endswith("-profile"):
            hidden_nonlocality_profile(build_fixture(run.removesuffix("-profile")), max_depth=8)
        elif run == "two-states":
            s = _two_states()
            sp = oplm_space(s, 0, on_support=True)
            solved.append((s, 0, sp, measurement_candidates(s, 0, sp)))
        else:
            d = int(run.removeprefix("s1_general-d"))
            search_distinguishing_protocol(build_fixture("s1_general", d=d), max_depth=2 * d)
            activation_search(build_fixture("s1_general", d=d), max_depth=2 * d)
    assert calls
    # the solved spaces are kept in `solved`, so no id is reused
    sets = {id(sp): (s, party) for s, party, sp, _ in solved}
    for sp, bs, cols in calls:
        s, party = sets[id(sp)]
        assert same_bits(cols, reference_block_columns(s, party, sp, bs)), (s.labels, party)
    if run in ("s2-profile", "two-states"):
        assert any(len(sp.pairs) == 1 for sp, _, _ in calls)


def test_is_oplm_matches_the_dense_both_order_check():
    # every candidate of every party of the fixtures, plain and rotated, and
    # seeded rank-one projectors, which mostly break orthogonality
    rng = np.random.default_rng(5)
    verdicts = []
    for name in FIXTURES + ("s1_general",):
        s = build_fixture(name, d=6) if name == "s1_general" else build_fixture(name)
        for v in (s, _rotated(s, 11)):
            for p in range(v.space.n_parties):
                d = v.space.party_dims[p]
                x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
                proj = np.outer(x, x.conj()) / np.vdot(x, x).real
                extra = LocalMeasurement(p, [proj, np.eye(d) - proj], ["x", "I-x"])
                for m in [*measurement_candidates(v, p), extra]:
                    verdicts.append(is_oplm(v, m))
                    assert verdicts[-1] == reference_is_oplm(v, m), (name, p, m.labels)
    assert any(verdicts) and not all(verdicts)


def test_state_pair_lists_are_built_once_per_size(monkeypatch):
    sizes, triu = [], np.triu_indices

    def recorded(n, k=0, m=None):
        sizes.append(n)
        return triu(n, k, m)

    monkeypatch.setattr(np, "triu_indices", recorded)
    oplm._upper.cache_clear()
    s = build_fixture("s1_general", d=6)
    search_distinguishing_protocol(s, max_depth=12)
    activation_search(s, max_depth=12)
    for p in range(s.space.n_parties):
        sp = oplm_space(s, p, on_support=True)
        assert sp.worst_overlap() == sp.worst_overlap() <= SPAN_TOL
    assert sizes and len(sizes) == len(set(sizes)), sorted(sizes)


# party A of a rotated s1_general d=12 keeps all 10,296 pairs i < j; the
# process peaks at 129.7 MB computing and keeping only those, and at 152.7
# MB with the dense pair tensors of all 20,736 ordered pairs (2-core Xeon,
# OpenBLAS 0.3.31, one thread)
ROTATED_D12_RSS_MB = 145
ROTATED_D12_RUN = PEAK_RSS_SOURCE + """
import json
import numpy as np
from qlocc.fixtures import build_fixture
from qlocc.oplm import oplm_space
from qlocc.states import apply_local_unitaries, random_local_unitaries
s = build_fixture("s1_general", d=12)
s = apply_local_unitaries(s, random_local_unitaries(s.space, np.random.default_rng(12)))
sp = oplm_space(s, 0)
print(json.dumps({"space_dim": sp.space_dim, "rss_mb": peak_rss_mb()}))
"""


def test_rotated_s1_general_d12_solve_memory_in_a_fresh_process():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qlocc.__file__)))
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", ROTATED_D12_RUN], env=env, capture_output=True, text=True, check=True, timeout=300)
    got = json.loads(out.stdout)
    assert got["space_dim"] == 2
    assert got["rss_mb"] < ROTATED_D12_RSS_MB, got


def _assert_matches_eager(s, p, on_support, case):
    rank, basis = _eager_solve(s, p, on_support)
    sp = oplm_space(s, p, on_support=on_support)
    assert sp.space_dim == sp.support_dim**2 - rank == len(basis), case
    for got, want in zip(sp.basis, basis):
        assert same_bits(got, want), case


def test_lazy_basis_matches_eager_full_svd():
    for case, s, p, on_support in _fixture_cases():
        _assert_matches_eager(s, p, on_support, case)


def _search_rows(monkeypatch):
    """Every constraint matrix both searches on s1_general d = 4, 6 hand to
    `_tall_svd`, then the rows of every party of s4, on and off support."""
    seen = []

    def recorded(rows):
        seen.append(rows.copy())
        return _tall_svd(rows)

    with monkeypatch.context() as m:
        m.setattr(oplm, "_tall_svd", recorded)
        for d in (4, 6):
            search_distinguishing_protocol(build_fixture("s1_general", d=d), max_depth=2 * d)
            activation_search(build_fixture("s1_general", d=d), max_depth=2 * d)
    s4 = build_fixture("s4")
    seen += [_constraint_rows(*_pair_data(s4, p, on)) for p in range(s4.space.n_parties) for on in (False, True)]
    return seen


def _assert_full_svd_bits(rows, case):
    sv, vh = _tall_svd(rows)
    _, want_sv, want_vh = np.linalg.svd(rows)
    assert same_bits(sv, want_sv), case
    assert same_bits(vh, want_vh), case


def test_tall_svd_matches_full_svd_on_search_rows(monkeypatch):
    rows = _search_rows(monkeypatch)
    shapes = {r.shape for r in rows}
    # the QR route is taken: s1_general d=6 (1260 x 36) and s4 (380 x 36)
    assert (1260, 36) in shapes and (380, 36) in shapes
    for case, r in enumerate(rows):
        _assert_full_svd_bits(r, (case, r.shape))


@pytest.mark.parametrize("r", range(1, 13))
def test_tall_svd_matches_full_svd_random(r):
    k = r * r
    rng = np.random.default_rng(r)
    for m in (k, 11 * k // 6, 4 * k + 200, 4 * k + 201, 3 * (4 * k + 200)):
        for rank in (k, k // 2):
            rows = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, k))
            _assert_full_svd_bits(rows, (m, rank))


def test_no_full_matrices_svd_above_the_tall_cap(monkeypatch):
    svd, shapes = np.linalg.svd, []

    def recorded(a, full_matrices=True, compute_uv=True, **kwargs):
        if full_matrices and compute_uv:
            shapes.append(np.shape(a))
        return svd(a, full_matrices=full_matrices, compute_uv=compute_uv, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    _search_rows(monkeypatch)
    assert shapes
    assert all(s[-2] <= 4 * s[-1] + 200 for s in shapes), max(shapes, key=lambda s: s[-2] - 4 * s[-1])


def test_singular_value_rank_is_clear_on_fixtures():
    # no fixture puts a singular value within a decade of the rank cut, so
    # no fixture's space dimension hangs on rounding; `oplm_space` against
    # the reference is `test_lazy_basis_matches_eager_full_svd`
    for case, s, p, on_support in _fixture_cases():
        sv = _tall_svd(_constraint_rows(*_pair_data(s, p, on_support)))[0]
        cut = max(RANK_RTOL * sv[0], 1e-10) if sv.size else 1e-10
        assert not np.any((sv > cut / 10) & (sv < cut * 10)), case


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.sampled_from([(2, 2), (2, 3), (3, 3), (3, 4), (2, 2, 2)]),
    n=st.integers(2, 8),
    product=st.booleans(),
)
def test_singular_value_rank_matches_full_svd_random(seed, dims, n, product):
    rng = np.random.default_rng(seed)
    n = min(n, int(np.prod(dims)))
    if product:
        s = random_orthogonal_product_set(rng, dims, n, max_tries=50)
        assume(s is not None)
    else:
        s = random_orthonormal_set(rng, dims, n)
    for p in range(len(dims)):
        for on_support in (False, True):
            _assert_matches_eager(s, p, on_support, (p, on_support))


@pytest.mark.parametrize(
    "sv, rank",
    [
        ([], 0),
        ([1.0, 0.5, 1e-12], 2),
        ([1.0, 0.5, 1e-7 * 1.01], 3),
        ([1.0, 0.5, 1e-9 * 0.99], 2),
        ([1.0, 0.5, 2e-9], 2),  # below the cut 1e-8
        ([1.0, 0.5, 5e-8], 3),  # above the cut
        ([1e-3, 5e-11], 1),  # the absolute floor 1e-10 sets the cut
        ([1e-3, 1e-13], 1),
    ],
)
def test_rank_cut(sv, rank):
    assert _rank(np.array(sv, dtype=np.float64)) == rank


def test_one_tall_svd_per_space(monkeypatch):
    tall, values_only = [], []
    svd = np.linalg.svd

    def recorded_tall(rows):
        tall.append(rows.shape)
        return _tall_svd(rows)

    def recorded_svd(a, *args, **kwargs):
        values_only.append(kwargs.get("compute_uv") is False or (len(args) > 1 and args[1] is False))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(oplm, "_tall_svd", recorded_tall)
    monkeypatch.setattr(np.linalg, "svd", recorded_svd)
    space = PartySpace((3, 2))
    one = StateSet(space, [make_ket(space, [(1, (0, 0)), (1, (2, 1))], "v")], "one")
    solved = 0
    for case, s, p, on_support in [*_fixture_cases(), ("one", one, 1, True)]:
        oplm_space(s, p, on_support=on_support)
        solved += 1
        assert len(tall) == solved, case
    assert values_only and not any(values_only)
    # a single state gives no constraint rows, and every Hermitian operator
    assert tall[-1] == (0, 4)
    _assert_matches_eager(one, 1, True, "one")


@pytest.mark.parametrize("above", [False, True])
def test_rank_and_basis_come_from_one_svd(monkeypatch, above):
    # a zero singular value on the cut does not count toward the rank; just
    # above it, it does, and the basis loses its vector with the dimension
    s = build_fixture("s1")
    seen = []

    def nudged(rows):
        sv, vh = _tall_svd(rows)
        sv = sv.copy()
        sv[-1] = RANK_RTOL * sv[0] * (1 + 1e-6 if above else 1)
        seen.append((sv, vh))
        return sv, vh

    monkeypatch.setattr(oplm, "_tall_svd", nudged)
    sp = oplm_space(s, 0)
    ((sv, vh),) = seen
    r = sp.support_dim
    assert sp.space_dim == len(sp.basis) == r * r - _rank(sv) == (1 if above else 2)
    for got, h in zip(sp.basis, vh[_rank(sv) :]):
        assert same_bits(got, _coords_to_matrix(h, r))


def test_is_locally_irreducible_solves_each_party_once(monkeypatch):
    import qlocc.oplm as oplm_mod

    solved = []
    real = oplm_mod.oplm_space

    def counting(s, party, on_support=False):
        solved.append(party)
        return real(s, party, on_support)

    monkeypatch.setattr(oplm_mod, "oplm_space", counting)
    v = is_locally_irreducible(build_fixture("s3"))
    assert v.verdict == "REDUCIBLE"
    assert solved == [0, 1]


@pytest.mark.parametrize("s", irreducibility_cases())
def test_irreducibility_matches_the_per_candidate_reference(s):
    # the survivor masks decide as `eliminable_states` on every candidate did
    got, ref = is_locally_irreducible(s), reference_is_locally_irreducible(s)
    assert (got.verdict, got.space_dims, got.candidates_checked, got.class_note) == (
        ref.verdict,
        ref.space_dims,
        ref.candidates_checked,
        ref.class_note,
    )
    assert (got.witness is None) == (ref.witness is None)
    if got.witness is not None:
        assert candidates_match_reference([got.witness], [ref.witness])


def test_irreducibility_checks_only_its_witness(monkeypatch):
    # one `eliminable_states` call, on the witness: s3 is reduced by its
    # first candidate, {|+,0>, |-,1>} only by its second (P[0] on B), and
    # {|+,+>, |-,->} by none of its two
    calls = []
    real = oplm.eliminable_states

    def counted(s, m):
        calls.append(id(m))
        return real(s, m)

    monkeypatch.setattr(oplm, "eliminable_states", counted)
    want = {"s3": ("REDUCIBLE", 1), "+0,-1": ("REDUCIBLE", 2), "++,--": ("IRREDUCIBLE-IN-CLASS", 2)}
    for name, s in ({"s3": build_fixture("s3")} | qubit_pairs()).items():
        calls.clear()
        v = is_locally_irreducible(s)
        assert (v.verdict, v.candidates_checked) == want[name]
        assert calls == ([id(v.witness)] if v.witness is not None else []), name


def test_index_projector_cap_named_in_class_note():
    # the atom bound, where it binds on the index projectors only
    rng = np.random.default_rng(3)
    wide = random_orthonormal_set(rng, (17, 2), 3)  # 17 index atoms on A
    assert measurement_candidates(wide, 0).capped == ("index projectors",)
    assert measurement_candidates(wide, 1).capped == ()
    v = is_locally_irreducible(wide)
    assert v.verdict != "IRREDUCIBLE-EXACT"
    assert v.class_note == CLASS_NOTE + "; index projectors not enumerated for party A (above 16 atoms)"
    narrow = random_orthonormal_set(rng, (5, 2), 3)
    assert measurement_candidates(narrow, 0).capped == ()
    assert is_locally_irreducible(narrow).class_note == CLASS_NOTE


# ---------------------------------------------------------------------------
# the batched union enumeration against the one-mask-per-iteration loops


def bell_pairs(r: int) -> StateSet:
    """On r x 2 (r >= 16): (|2k,0> +- |2k+1,1>)/sqrt2 for k < 8, then |i,0>
    for 16 <= i < r. Party A occupies all r indices; its index projectors
    are the unions of the pairs {2k, 2k+1}, and its operator space does not
    commute, so only the index family yields candidates."""
    rows = []
    for k in range(8):
        for sign in (1, -1):
            v = np.zeros((r, 2), dtype=complex)
            v[2 * k, 0], v[2 * k + 1, 1] = 1, sign
            rows.append(v.ravel())
    for i in range(16, r):
        v = np.zeros((r, 2), dtype=complex)
        v[i, 0] = 1
        rows.append(v.ravel())
    return StateSet.from_matrix(PartySpace((r, 2)), np.array(rows), [f"b{i}" for i in range(len(rows))], f"bell{r}")


@pytest.mark.parametrize("s", state_model_cases())
def test_candidates_match_reference(s):
    for p in range(s.space.n_parties):
        assert candidates_match_reference(measurement_candidates(s, p), reference_measurement_candidates(s, p)), p


def test_candidates_match_reference_on_rotated_fixture():
    s = build_fixture("s1")
    rot = apply_local_unitaries(s, random_local_unitaries(s.space, np.random.default_rng(5)))
    labels = []
    for p in range(s.space.n_parties):
        got = measurement_candidates(rot, p)
        assert candidates_match_reference(got, reference_measurement_candidates(rot, p))
        labels += [m.labels[0] for m in got]
    assert any(lab.startswith("P[blocks ") for lab in labels)


def quads() -> StateSet:
    """On 16 x 2: (|4g,0> + |4g+1,0> +- (|4g+2,1> + |4g+3,1>))/2 for g < 4.
    Each pair constrains its group to t_4g + t_4g+1 = t_4g+2 + t_4g+3,
    which ties no two indices: party A has 16 index atoms, and each group
    passes 6 of its 16 unions."""
    rows = []
    for g in range(4):
        for sign in (1, -1):
            v = np.zeros((16, 2), dtype=complex)
            v[4 * g, 0] = v[4 * g + 1, 0] = 0.5
            v[4 * g + 2, 1] = v[4 * g + 3, 1] = 0.5 * sign
            rows.append(v.ravel())
    return StateSet.from_matrix(PartySpace((16, 2)), np.array(rows), [f"q{i}" for i in range(8)], "quads")


def index_test_columns(s: StateSet, party: int) -> np.ndarray:
    """The index family's union test: the per-pair constraint diagonals."""
    mats = party_matrices(s, party)
    rows = mats[:, occupied_indices(mats)]
    return np.einsum("iar,jar->ija", rows.conj(), rows)[np.triu_indices(len(s), 1)]


def test_atoms_tie_only_what_every_solution_ties():
    owner, k = _atoms(index_test_columns(bell_pairs(17), 0))
    assert (owner.tolist(), k) == ([b // 2 for b in range(17)], 9)
    owner, k = _atoms(index_test_columns(quads(), 0))
    assert (owner.tolist(), k) == (list(range(16)), 16)
    owner, k = _atoms(np.zeros((0, 3), dtype=complex))
    assert (owner.tolist(), k) == ([0, 1, 2], 3)
    # a near-null constraint counts as null and splits: t_0 = t_1 only to 1e-9
    assert _atoms(np.array([[1e-9, -1e-9]], dtype=complex))[1] == 2
    assert _atoms(np.array([[1.0, -1.0]], dtype=complex))[1] == 1
    # atoms are numbered by their largest member: t_0 = t_2 ties {0, 2} after {1}
    owner, k = _atoms(np.array([[1.0, 0.0, -1.0]], dtype=complex))
    assert (owner.tolist(), k) == ([1, 0, 1], 2)


def test_candidates_match_reference_at_the_cap():
    s = quads()
    assert _atoms(index_test_columns(s, 0))[1] == ATOM_CAP and 2 ** (ATOM_CAP - 1) > 4 * MASK_CHUNK
    got = measurement_candidates(s, 0)
    assert got.capped == ()
    assert candidates_match_reference(got, reference_measurement_candidates(s, 0))
    assert len(got) == (6**4 - 2) // 2  # unions of passing group unions, up to complement
    bells = bell_pairs(16)
    got = measurement_candidates(bells, 0)
    assert candidates_match_reference(got, reference_measurement_candidates(bells, 0))
    assert len(got) == 2**7 - 1  # unions of the 8 pairs without the last
    assert got[-1].labels[0] == "P[" + ",".join(map(str, range(14))) + "]"


def test_candidates_capped_above_the_cap():
    # 17 indices make 9 atoms, the 8 pairs and {16}: under the cap
    got = measurement_candidates(bell_pairs(17), 0)
    assert got.capped == () and len(got) == 2**8 - 1
    assert got[-1].labels[0] == "P[" + ",".join(map(str, range(16))) + "]"
    # |i,0> for i < 17: no constraint at all, so 17 atoms in both families
    s = StateSet.from_matrix(PartySpace((17, 2)), np.eye(34)[::2], [f"e{i}" for i in range(17)], "wide")
    got = measurement_candidates(s, 0)
    assert len(got) == 0 and got.capped == ("block unions", "index projectors")
    assert projective_oplms(oplm_space(s, 0, on_support=True), block_structure(oplm_space(s, 0, on_support=True))) is None


def test_atom_cap_binds_on_the_s4_ab_index_projectors():
    s = _merge_for(build_fixture("s4"), [(2,), (0, 1)])
    assert _atoms(index_test_columns(s, 1))[1] > ATOM_CAP
    got = measurement_candidates(s, 1)
    assert got.capped == ("index projectors",) and len(got) == 2**9 - 1
    assert measurement_candidates(s, 0).capped == ()


def test_only_a_second_family_keys_the_unions(monkeypatch):
    # a union repeats a measurement only of another family, so a party with
    # one union family builds no Kraus operator for a dedupe key
    stacks = []
    union_kraus = oplm._union_kraus

    def recorded(support, parts, members):
        stacks.append(len(members))
        return union_kraus(support, parts, members)

    monkeypatch.setattr(oplm, "_union_kraus", recorded)
    # the B|AC root of s4: 2,047 index-projector unions on the 12-dim AC party
    merged = _merge_for(build_fixture("s4"), [(1,), (0, 2)])
    got = measurement_candidates(merged, 1)
    assert len(got) == 2047 and stacks == []
    # party A of s1 has both families, one union each, and they are one measurement
    got = measurement_candidates(build_fixture("s1"), 0)
    assert len(got) == 1 and stacks == [1, 1]


def _candidate_source(seed: int, source: str, rotated: bool) -> StateSet | None:
    rng = np.random.default_rng(seed)
    dims = [(3, 4), (4, 4), (2, 6), (12, 2), (2, 2, 3)][seed % 5]
    if source == "random":
        s = random_orthonormal_set(rng, dims, int(rng.integers(2, 9)))
    elif source == "product":
        s = random_orthogonal_product_set(rng, dims, int(rng.integers(2, 9)))
        if s is None:
            return None
    else:
        full = build_fixture("s1_general", d=4) if source == "s1_general" else build_fixture(source)
        keep = np.sort(rng.choice(len(full), size=int(rng.integers(2, len(full) + 1)), replace=False))
        s = StateSet.from_matrix(full.space, full.matrix()[keep], [full.labels[i] for i in keep], source)
    return apply_local_unitaries(s, random_local_unitaries(s.space, rng)) if rotated else s


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    source=st.sampled_from(["random", "product", "s1", "s2", "s3", "s5", "s6", "tiles33", "s1_general"]),
    rotated=st.booleans(),
)
def test_atom_candidates_match_reference_random(seed, source, rotated):
    s = _candidate_source(seed, source, rotated)
    assume(s is not None)
    for p in range(s.space.n_parties):
        assert candidates_match_reference(measurement_candidates(s, p), reference_measurement_candidates(s, p)), p


def _index_label_mismatches(s: StateSet) -> list[str]:
    """The `P[i,...]` candidate labels of `s` whose first Kraus operator is
    not the 0/1 diagonal of those indices."""
    bad = []
    for p in range(s.space.n_parties):
        for m in measurement_candidates(s, p):
            label = m.labels[0]
            if label.startswith("P[") and not label.startswith("P[blocks "):
                on = np.isin(np.arange(m.kraus[0].shape[0]), [int(i) for i in label[2:-1].split(",")])
                if np.abs(m.kraus[0] - np.diag(on.astype(complex))).max() > INDEX_TOL:
                    bad.append(f"party {p} {label}")
    return bad


@pytest.mark.parametrize("s", state_model_cases())
def test_index_labels_name_their_operator(s):
    assert _index_label_mismatches(s) == []


def test_unaligned_support_keeps_block_labels():
    # s4 merged to C|AB: party AB's support is not index-aligned, so its block
    # projectors are labelled by block, not by support coordinates
    s = _merge_for(build_fixture("s4"), [(2,), (0, 1)])
    assert oplm_space(s, 1, on_support=True).support_indices is None
    labels = [m.labels[0] for m in measurement_candidates(s, 1)]
    assert labels and all(label.startswith("P[blocks ") for label in labels)
    assert _index_label_mismatches(s) == []


def _with_faint_index(s: StateSet, party: int, state: int, eps: float) -> StateSet:
    """`s` with one more index on `party`, on which `state` has amplitude
    `eps` at every other coordinate: below INDEX_TOL, so the index stays
    unoccupied and outside the support, and only the residual parts of the
    two candidate families hold that weight."""
    mats = party_matrices(s, party)
    faint = np.zeros((len(s), 1, mats.shape[2]), dtype=complex)
    faint[state] = eps
    dims = list(s.space.party_dims)
    dims[party] += 1
    space = PartySpace(tuple(dims))
    return StateSet.from_matrix(space, party_rows(space, party, np.concatenate([mats, faint], axis=1)), s.labels, s.name)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    source=st.sampled_from(["random", "product", "s1", "s2", "s3", "s5", "s6", "tiles33", "s1_general"]),
    rotated=st.booleans(),
    faint=st.one_of(st.none(), st.floats(1e-12, 0.9 * INDEX_TOL)),
)
def test_union_survivors_match_survivors_random(seed, source, rotated, faint):
    # rotated sets have blocks that are not index-aligned; a faint index puts
    # sub-INDEX_TOL weight where only a residual part sees it
    s = _candidate_source(seed, source, rotated)
    assume(s is not None)
    if faint is not None:
        party, state = seed % s.space.n_parties, seed % len(s)
        rest = s.space.total_dim // s.space.party_dims[party]
        # the two norms agree to rounding, so keep the faint norm off the cut
        assume(not 0.5 < faint * np.sqrt(rest) / ELIM_TOL < 2)
        s = _with_faint_index(s, party, state, faint)
    for p in range(s.space.n_parties):
        # one product per union family, each with at most d + 1 parts
        with recorded_part_stacks() as stacks:
            cands = measurement_candidates(s, p)
        assert 0 < len(stacks) <= 2 and max(stacks) <= s.space.party_dims[p] + 1
        assert mask_mismatches(s, p, cands) == [], p


def test_residual_part_keeps_a_faint_state():
    # s1 with a faint fourth index on A: a state that I - P[0] eliminates
    # survives it once it has faint weight there, through the residual parts
    s1 = build_fixture("s1")
    (m,) = measurement_candidates(s1, 0)
    state = next(i for i, keep in enumerate(survivors(s1, 0, m.kraus[1])[1]) if not keep)
    s = _with_faint_index(s1, 0, state, 0.9 * INDEX_TOL)
    cands = measurement_candidates(s, 0)
    assert [c.labels for c in cands] == [m.labels] and mask_mismatches(s, 0, cands) == []
    assert cands.masks[0, 1, state]
    # the faint index, A's last, is in no occupied index's part: only the
    # residual holds it, and without it I - P[0] eliminates the state
    assert occupied_indices(party_matrices(s, 0)) == [0, 1, 2, 3]
    kraus = cands[0].kraus[1].copy()
    assert kraus[-1, -1] == 1
    kraus[-1, -1] = 0
    assert not survivors(s, 0, kraus)[1][state]
    parts = np.array([np.diag(e) for e in np.eye(5)])
    assert not union_survivors(s, 0, parts, np.array([0, 1, 1, 1, 0]))[state]
    assert union_survivors(s, 0, parts, np.array([0, 1, 1, 1, 1]))[state]


def test_empty_operator_space_has_no_measurements():
    # the s6 verbatim set is not orthogonal: on B not even I preserves its pairs
    s = build_fixture("s6", "verbatim")
    sp = oplm_space(s, 1)
    assert sp.space_dim == 0 and sp.basis == []
    assert projective_oplms(sp, block_structure(sp)) == []
    assert oplm_space(s, 1, on_support=True).space_dim == 0
    cands = measurement_candidates(s, 1)
    assert len(cands) == 0 and cands.masks.dtype == bool and cands.masks.shape == (0, 2, len(s))


def test_non_orthogonal_set_has_no_projective_measurements():
    # the s6 verbatim set is not orthogonal; on A, P[0] preserves every pair
    # but I - P[0] does not, so no complete measurement is listed
    s = build_fixture("s6", "verbatim")
    sp = oplm_space(s, 0)
    bs = block_structure(sp)
    assert sp.space_dim == 1 and bs.commuting and sp.worst_overlap() > SPAN_TOL
    p = bs.blocks[0]
    assert bs.index_supports[0] == [0] and is_oplm(s, LocalMeasurement(0, [p], ["P[0]"]))
    assert not is_oplm(s, LocalMeasurement(0, [np.eye(6) - p], ["I-P[0]"]))
    assert projective_oplms(sp, bs) == []


def test_irreducibility_refuses_a_non_orthogonal_set():
    with pytest.raises(ValueError, match=r"input set is not orthogonal \(\|<.+\|.+>\| = 0\.7071 > 1e-08\)"):
        is_locally_irreducible(build_fixture("s6", "verbatim"))
