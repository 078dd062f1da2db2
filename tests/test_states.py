import tracemalloc

import numpy as np
import pytest

from _helpers import (
    counted_kets,
    product_structure_mismatches,
    random_orthogonal_product_set,
    random_orthonormal_set,
    redundancy_mismatches,
    reference_gram_check,
    reference_normalized,
    same_bits,
    state_model_cases,
)
from qlocc.fixtures import FIXTURE_NAMES, build_fixture
from qlocc.linalg import RANK_RTOL, as_carray
from qlocc.partitions import _merge_for, _partition_label, _two_block_partitions
from qlocc import states
from qlocc.qset import parse_qset, serialize_qset
from qlocc.states import (
    Bipartition,
    Ket,
    PartySpace,
    StateSet,
    apply_local_unitaries,
    equal_up_to_local_relabeling,
    gram_check,
    index_support,
    inner_product,
    local_factors,
    make_ket,
    merge_parties,
    occupied_indices,
    party_matrices,
    party_rows,
    random_local_unitaries,
    reduced_state,
    redundancy_check,
    redundancy_check_whole_parties,
    schmidt_rank,
    support_basis,
)
from qlocc import upb
from qlocc.oplm import oplm_space
from qlocc.protocol import SetAnalyzer
from qlocc.upb import check_unextendible, numeric_extension_search


def space44():
    return PartySpace((4, 4))


def test_make_ket_plus_state():
    k = make_ket(space44(), [(1, (0, 0)), (1, (0, 1))], "0_X01+")
    expect = np.zeros(16)
    expect[0] = expect[1] = 1 / np.sqrt(2)
    assert np.allclose(k.amplitudes, expect)


def test_make_ket_discards_scale():
    k = make_ket(PartySpace((2,)), [(5, (0,))], "e0")
    assert np.allclose(k.amplitudes, [1, 0])


def test_make_ket_w_state_half_amplitudes():
    k = make_ket(space44(), [(1, (0, 0)), (1, (0, 1)), (1, (2, 2)), (1, (2, 3))], "W")
    nz = k.amplitudes[np.abs(k.amplitudes) > 0]
    assert np.allclose(nz, 0.5)


def test_make_ket_errors():
    with pytest.raises(ValueError):
        make_ket(space44(), [], "empty")
    with pytest.raises(ValueError):
        make_ket(space44(), [(0, (0, 0))], "zero")
    with pytest.raises(ValueError):
        make_ket(space44(), [(1, (0, 4))], "range")


def test_inner_product_basics():
    s = space44()
    a = make_ket(s, [(1, (0, 0))], "a")
    assert inner_product(a, a) == pytest.approx(1)
    b = make_ket(s, [(1, (0, 1))], "b")
    assert inner_product(a, b) == pytest.approx(0)


def test_inner_product_hand_expansion():
    # <2, X23+| xi23+, 1> = <2|xi23+> <X23+|1> = (1/sqrt2) * 0 = 0
    s = space44()
    lhs = make_ket(s, [(1, (2, 2)), (1, (2, 3))], "2_X23+")
    rhs = make_ket(s, [(1, (2, 1)), (1, (3, 1))], "xi23+_1")
    assert abs(inner_product(lhs, rhs)) <= 1e-12


def test_inner_product_conjugate_linear_first_arg():
    s = PartySpace((2,))
    a = Ket(s, [1j, 0], "a")
    b = Ket(s, [1, 0], "b")
    assert inner_product(a, b) == pytest.approx(-1j)


def test_inner_product_space_mismatch():
    a = make_ket(PartySpace((2,)), [(1, (0,))], "a")
    b = make_ket(PartySpace((3,)), [(1, (0,))], "b")
    with pytest.raises(ValueError):
        inner_product(a, b)


def test_party_space_equality_and_hash():
    # the dataclass equality compares dims and sub-splits; the explicit hash
    # (sub_splits is a dict) agrees with it
    split = PartySpace((4, 2), {0: (2, 2)})
    assert split == PartySpace((4, 2), {0: [2, 2]}) and hash(split) == hash(PartySpace((4, 2), {0: [2, 2]}))
    assert PartySpace((4, 2)) == PartySpace([4, 2]) and hash(PartySpace((4, 2))) == hash(PartySpace([4, 2]))
    assert split != PartySpace((4, 2))
    assert PartySpace((6, 2), {0: (2, 3)}) != PartySpace((6, 2), {0: (3, 2)})
    assert PartySpace((4, 2)) != PartySpace((2, 4)) and PartySpace((4, 2)) != PartySpace((4, 2, 2))
    assert PartySpace((4, 2)) != (4, 2)
    assert len({split, PartySpace((4, 2), {0: (2, 2)}), PartySpace((4, 2))}) == 2
    # a set still refuses a ket of another space, sub-splits included
    ket = make_ket(PartySpace((4, 2)), [(1, (0, 0))], "k")
    for other in (split, PartySpace((2, 4)), PartySpace((8,))):
        with pytest.raises(ValueError, match="all states must share the set's PartySpace"):
            StateSet(other, [ket])
    assert StateSet(PartySpace((4, 2)), [ket]).space == ket.space


def test_gram_check_s1():
    rep = gram_check(build_fixture("s1"), tol=1e-12)
    assert rep.ok
    n = 16
    assert n * (n - 1) // 2 == 120


def test_gram_check_failure_sorted():
    s = space44()
    states = [
        make_ket(s, [(1, (0, 0))], "00"),
        make_ket(s, [(1, (0, 0)), (1, (0, 1))], "0_X01+"),
    ]
    rep = gram_check(StateSet(s, states, "bad"))
    assert not rep.ok
    assert rep.violations[0][2] == pytest.approx(1 / np.sqrt(2))


def test_gram_check_s6_verbatim_names_the_pairs():
    rep = gram_check(build_fixture("s6", "verbatim"))
    assert not rep.ok
    top = {frozenset(p) for p in rep.top_pairs(2)}
    assert top == {frozenset({"xi45+_0", "xi5_0"}), frozenset({"xi45-_0", "xi5_0"})}
    assert rep.violations[0][2] == pytest.approx(1 / np.sqrt(2))


def test_gram_check_ties_keep_row_major_order():
    space = PartySpace((2,))
    rows = {"a": [1, 0], "b": [0, 1], "c": [1, 1], "d": [1, -1], "e": [3, 1]}
    s = StateSet(space, [Ket(space, v, lab) for lab, v in rows.items()], "ties")
    rep = gram_check(s)
    # four pairs tie at 1/sqrt2 exactly; they keep their row-major order
    assert [(a, b) for a, b, _ in rep.violations] == [
        ("a", "e"), ("c", "e"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("d", "e"), ("b", "e"),
    ]
    assert len({v for _, _, v in rep.violations[2:6]}) == 1
    assert rep.violations == reference_gram_check(s, rep.tol).violations
    # 28 equal overlaps: more than a sort network of small size covers
    same = StateSet(space, [Ket(space, [1, 1], f"p{i}") for i in range(8)], "copies")
    pairs = [(f"p{i}", f"p{j}") for i in range(8) for j in range(i + 1, 8)]
    assert [(a, b) for a, b, _ in gram_check(same).violations] == pairs


def test_state_set_from_matrix_normalizes_as_ket():
    space = PartySpace((2, 2))
    rows = np.array([[3, 4j, 0, 0], [0, 0, 1, 0]], dtype=complex)
    s = StateSet.from_matrix(space, rows, ["u", "v"], "m")
    assert s.labels == ["u", "v"] and s.name == "m" and len(s) == 2
    assert s.matrix()[0].tobytes() == Ket(space, rows[0], "u").amplitudes.tobytes()
    assert s.matrix()[1].tobytes() == rows[1].tobytes()
    rows[1, 2] = 5  # the set keeps its own copy
    assert s.matrix()[1, 2] == 1
    with pytest.raises(ValueError):
        s.matrix()[0, 0] = 0


@pytest.mark.parametrize(
    "rows, labels",
    [
        ([[1, 0, 0, 0], [0, 0, 0, 0]], ["a", "b"]),  # zero row
        ([[1, 0, 0, np.nan]], ["a"]),  # non-finite
        ([[1, 0, 0, 0], [0, 1, 0, 0]], ["a", "a"]),  # duplicate label
        ([[1, 0, 0]], ["a"]),  # wrong width
        ([[1, 0, 0, 0]], ["a", "b"]),  # label count
    ],
)
def test_state_set_from_matrix_rejects(rows, labels):
    with pytest.raises(ValueError):
        StateSet.from_matrix(PartySpace((2, 2)), np.array(rows, dtype=complex), labels)


def test_state_set_builds_kets_only_when_read(monkeypatch):
    built = []
    init = Ket.__init__

    def counting(self, *args, **kwargs):
        built.append(args[-1])
        init(self, *args, **kwargs)

    s1 = build_fixture("s1")
    monkeypatch.setattr(Ket, "__init__", counting)
    s = StateSet.from_matrix(s1.space, s1.matrix(), s1.labels)
    assert len(s) == 16 and s.labels == s1.labels and gram_check(s).ok
    merged = merge_parties(s, [(0,), (1,)])
    assert built == []
    kets = s.states
    assert built == s1.labels and s.states is kets
    assert [k.amplitudes.tobytes() for k in kets] == [k.amplitudes.tobytes() for k in s1]
    assert merged.matrix().tobytes() == s1.matrix().tobytes()


def test_schmidt_rank_product():
    k = make_ket(space44(), [(1, (0, 0)), (1, (0, 1))], "p")
    assert schmidt_rank(k, Bipartition.of({0}, 2)) == 1


def test_schmidt_rank_w():
    k = make_ket(space44(), [(1, (0, 0)), (1, (0, 1)), (1, (2, 2)), (1, (2, 3))], "W")
    assert schmidt_rank(k, Bipartition.of({0}, 2)) == 2


def test_schmidt_rank_s3_stopper_product():
    s3 = build_fixture("s3")
    phi5 = next(k for k in s3 if k.label == "phi5")
    assert schmidt_rank(phi5, Bipartition.of({0}, 2)) == 1


def test_merge_parties_gram_preserved():
    s2 = build_fixture("s2")
    merged = merge_parties(s2, [(0,), (1, 2)])
    assert merged.space.party_dims == (4, 4)
    g1 = s2.matrix().conj() @ s2.matrix().T
    g2 = merged.matrix().conj() @ merged.matrix().T
    assert np.abs(g1 - g2).max() <= 1e-12


def test_merge_parties_single_group():
    s1 = build_fixture("s1")
    merged = merge_parties(s1, [(0, 1)])
    assert merged.space.party_dims == (16,)
    assert gram_check(merged).ok


def test_merge_parties_reorder():
    s2 = build_fixture("s2")
    merged = merge_parties(s2, [(1,), (0, 2)], reorder=[1, 0, 2])
    assert merged.space.party_dims == (2, 8)
    g1 = s2.matrix().conj() @ s2.matrix().T
    g2 = merged.matrix().conj() @ merged.matrix().T
    assert np.abs(g1 - g2).max() <= 1e-12


def test_merge_parties_bad_grouping():
    s2 = build_fixture("s2")
    with pytest.raises(ValueError):
        merge_parties(s2, [(0,), (1,)])
    with pytest.raises(ValueError):
        merge_parties(s2, [(0, 2), (1,)])  # not contiguous under identity order


def test_reduced_state_basics():
    s = PartySpace((2, 2))
    k = make_ket(s, [(1, (0, 0))], "00")
    rho = reduced_state(k, [0])
    assert np.allclose(rho, np.diag([1, 0]))
    bell = make_ket(s, [(1, (0, 0)), (1, (1, 1))], "bell")
    assert np.allclose(reduced_state(bell, [0]), np.eye(2) / 2)


def test_reduced_state_contract():
    rng = np.random.default_rng(2)
    s = random_orthonormal_set(rng, (2, 3, 2), 4)
    for k in s:
        for keep in ([0], [1], [0, 2], [1, 2]):
            rho = reduced_state(k, keep)
            assert abs(np.trace(rho) - 1) <= 1e-10
            w = np.linalg.eigvalsh(rho)
            assert w.min() >= -1e-10
    with pytest.raises(ValueError):
        reduced_state(s.states[0], [0, 1, 2])
    with pytest.raises(ValueError):
        reduced_state(s.states[0], [])


def test_reduced_state_uses_sub_splits():
    s3 = build_fixture("s3")
    phi3 = next(k for k in s3 if k.label == "phi3")
    # factors are (A, b1, b2); keeping A+b1 discards the qutrit part
    rho = reduced_state(phi3, [0, 1])
    assert rho.shape == (12, 12)
    assert abs(np.trace(rho) - 1) <= 1e-10


def test_redundancy_trivial_pair():
    s = PartySpace((2, 2))
    st = StateSet(s, [make_ket(s, [(1, (0, 0))], "00"), make_ket(s, [(1, (1, 1))], "11")], "pair")
    rep = redundancy_check(st)
    assert rep.redundant
    assert rep.witness_discard in (("A",), ("B",))


def test_redundancy_shared_a_factor():
    # discarding B collapses both onto |0><0| (non-orthogonal), but the
    # B-parts X01+- are orthogonal, so the A discard keeps orthogonality
    # and the set is redundant
    s = space44()
    st = StateSet(
        s,
        [
            make_ket(s, [(1, (0, 0)), (1, (0, 1))], "0_X01+"),
            make_ket(s, [(1, (0, 0)), (-1, (0, 1))], "0_X01-"),
        ],
        "same_a",
    )
    rep = redundancy_check(st)
    assert rep.redundant and rep.witness_discard == ("A",)
    assert rep.violations[("B",)][0][:2] == ("0_X01+", "0_X01-")


def test_redundancy_s3_with_sub_split():
    rep = redundancy_check(build_fixture("s3"))
    assert not rep.redundant
    b2_discard = rep.violations[("b2",)]
    assert any({a, b} == {"phi3", "phi4"} for a, b, _ in b2_discard)


def test_trace_product_symmetry():
    rng = np.random.default_rng(9)
    s = random_orthonormal_set(rng, (2, 2, 2), 3)
    rhos = [reduced_state(k, [0, 1]) for k in s]
    for i in range(3):
        for j in range(3):
            tij = np.trace(rhos[i] @ rhos[j])
            tji = np.trace(rhos[j] @ rhos[i])
            assert abs(tij - tji) <= 1e-9


def test_local_unitary_invariance():
    rng = np.random.default_rng(17)
    for trial in range(10):
        s = random_orthonormal_set(rng, (3, 4), 5)
        us = random_local_unitaries(s.space, rng)
        s2 = apply_local_unitaries(s, us)
        assert gram_check(s2).ok == gram_check(s).ok
        for k, k2 in zip(s, s2):
            assert schmidt_rank(k, Bipartition.of({0}, 2)) == schmidt_rank(k2, Bipartition.of({0}, 2))


def test_equal_up_to_local_relabeling():
    t = build_fixture("tiles33")
    # relabel B by a cyclic permutation: still the same set structurally
    perm = np.zeros((3, 3))
    for i, j in enumerate([1, 2, 0]):
        perm[j, i] = 1
    u = np.kron(np.eye(3), perm)
    moved = StateSet(t.space, [Ket(t.space, u @ k.amplitudes, k.label) for k in t], "moved")
    assert equal_up_to_local_relabeling(moved, t)
    s1 = build_fixture("s1")
    some = StateSet(s1.space, s1.states[:5], "frag")
    assert not equal_up_to_local_relabeling(some, t)


@pytest.mark.parametrize("gap, equal", [(1e-7, True), (1e-5, False)])
def test_equal_up_to_local_relabeling_overlap_bound(gap, equal):
    # overlaps 1 - 1e-7 and 1 - 1e-5 lie on either side of 1 - CLUSTER_TOL (1e-6)
    t = build_fixture("tiles33")
    perm = np.kron(np.eye(3), np.eye(3)[[1, 2, 0]])
    rows = t.matrix() @ perm.T
    # tilt the first state towards the second: its best overlap is cos(theta) = 1 - gap
    theta = np.arccos(1 - gap)
    rows[0] = np.cos(theta) * rows[0] + np.sin(theta) * rows[1]
    moved = StateSet.from_matrix(t.space, rows, t.labels, "moved")
    assert equal_up_to_local_relabeling(moved, t) is equal


@pytest.mark.parametrize("s", state_model_cases())
def test_redundancy_matches_per_ket_reference(s):
    assert redundancy_mismatches(s) == []


def test_redundancy_memory_linear_in_states():
    # a complete 4x4x4 product basis: 2,016 pairs of 16x16 reduced states per
    # one-party discard, about 8 MB per array were all pairs stacked at once
    s = StateSet.from_matrix(PartySpace((4, 4, 4)), np.eye(64), [f"s{i}" for i in range(64)])
    tracemalloc.start()
    try:
        assert not redundancy_check(s).redundant
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_ket_and_from_matrix_share_the_normalization_rule():
    rng = np.random.default_rng(41)
    space = PartySpace((6, 6, 2))
    for _ in range(50):
        m = (rng.normal(size=(4, 72)) + 1j * rng.normal(size=(4, 72))) * rng.uniform(1e-3, 1e3, size=(4, 1))
        m[1] /= np.linalg.norm(m[1])  # within 1e-12 of 1: kept as is
        ref = np.stack([reference_normalized(row) for row in m])
        assert same_bits(StateSet.from_matrix(space, m, list("abcd")).matrix(), ref)
        assert all(same_bits(Ket(space, row).amplitudes, r) for row, r in zip(m, ref))
    m[2] = 1e-13
    for build in (lambda: StateSet.from_matrix(space, m, list("abcd")), lambda: Ket(space, m[2])):
        with pytest.raises(ValueError, match="zero vector cannot be a Ket"):
            build()


def _normalized_or_error(normalize, row):
    try:
        return normalize(row.copy())
    except ValueError as exc:
        return str(exc)


def _ket_matches_unit_rows(space, row) -> bool:
    """`Ket`'s one-row normalization gives `_unit_rows`' bits, or its error."""
    got = _normalized_or_error(lambda r: Ket(space, r).amplitudes, row)
    ref = _normalized_or_error(lambda r: states._unit_rows(r.reshape(1, -1))[0], row)
    return got == ref if isinstance(ref, str) or isinstance(got, str) else same_bits(got, ref)


@pytest.mark.parametrize("s", state_model_cases())
def test_ket_normalizes_rows_as_unit_rows(s):
    m = s.matrix()
    assert all(_ket_matches_unit_rows(s.space, row) for row in np.concatenate([m, 3 * m, m / 7]))


def test_unit_rows_scans_entries_only_when_a_norm_is_not_finite(monkeypatch):
    row = build_fixture("s1_general", d=4).matrix()[5] * (1 + 1j)
    scans = []

    def counting_as_carray(m):
        scans.append(m.shape)
        return as_carray(m)

    monkeypatch.setattr(states, "as_carray", counting_as_carray)
    states._unit_rows(row.reshape(1, -1).copy())
    assert scans == []
    # a non-finite entry makes the norm non-finite: the scan names it
    for bad in (np.nan, np.inf, -np.inf, complex(0, np.nan)):
        odd = row.copy()
        odd[3] = bad
        with pytest.raises(ValueError, match="non-finite entries"):
            states._unit_rows(odd.reshape(1, -1))
    # a finite row whose norm overflows passes the scan, and is refused
    scans.clear()
    odd = row.copy()
    odd[3] = 1e200
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="norm overflows"):
        states._unit_rows(odd.reshape(1, -1))
    assert scans == [(1, odd.size)]


def test_ket_normalization_thresholds_match_unit_rows():
    s = build_fixture("s1_general", d=4)
    row = s.matrix()[5] * (1 + 1j) / np.sqrt(2)
    steps = 1 + np.arange(-12, 13) * 2.0**-52
    zero, divided = set(), set()
    for scale in (1e-12 * steps, (1 + 1e-12) * steps, (1 - 1e-12) * steps):
        for c in scale:
            scaled = row * c
            assert _ket_matches_unit_rows(s.space, scaled), c
            out = _normalized_or_error(lambda r: states._unit_rows(r.reshape(1, -1))[0], scaled)
            zero.add(isinstance(out, str))
            divided.add(not isinstance(out, str) and not same_bits(out, scaled))
    # the scan reaches both sides of the zero test and of the divide test
    assert zero == {True, False} and divided == {True, False}
    # 1e200 is finite, but overflows the norm to inf
    for bad, error in ((np.nan, "non-finite entries"), (np.inf, "non-finite entries"), (1e200, "norm overflows")):
        odd = row.copy()
        odd[3] = bad
        with np.errstate(over="ignore"):
            assert _ket_matches_unit_rows(s.space, odd), bad
            with pytest.raises(ValueError, match=error):
                Ket(s.space, odd)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="norm overflows"):
        Ket(PartySpace((2, 2)), [1e200, 1, 0, 0])


def test_matrix_paths_build_no_kets():
    s4, tiles = build_fixture("s4"), build_fixture("tiles33")
    minus = StateSet.from_matrix(tiles.space, tiles.matrix()[:4], tiles.labels[:4], "minus")
    with counted_kets() as built:
        redundancy_check(s4)
        redundancy_check_whole_parties(s4)
        parse_qset(serialize_qset(s4))
        assert built == []
        numeric_extension_search(minus, restarts=5)
        assert built == ["candidate-extension"]


def _product_structure_cases():
    """Every fixture (s1_general at d = 4, 6, 8), every two-block merge of
    the multipartite ones, two seeded random sets, and random local-unitary
    images of three fixtures (generic amplitudes for the phase fix)."""
    cases = []
    for name in FIXTURE_NAMES:
        sets = {f"-d{d}": build_fixture(name, d=d) for d in (4, 6, 8)} if name == "s1_general" else {"": build_fixture(name)}
        for tag, s in sets.items():
            cases.append(pytest.param(s, id=name + tag))
            if s.space.n_parties > 2:
                for blocks in _two_block_partitions(s.space.n_parties):
                    cases.append(pytest.param(_merge_for(s, blocks), id=f"{name}-{_partition_label(blocks)}"))
    rng = np.random.default_rng(31)
    cases.append(pytest.param(random_orthonormal_set(rng, (3, 4), 6), id="random-entangled"))
    cases.append(pytest.param(random_orthogonal_product_set(rng, (2, 2, 3), 7), id="random-product"))
    for name in ("tiles33", "s1", "s4"):
        s = build_fixture(name)
        cases.append(pytest.param(apply_local_unitaries(s, random_local_unitaries(s.space, rng)), id=f"{name}-rotated"))
    return cases


@pytest.mark.parametrize("s", _product_structure_cases())
def test_product_structure_matches_per_state_references(s):
    assert product_structure_mismatches(s) == []


def test_local_factors_mask_mixed_and_single_party():
    s = PartySpace((2, 2))
    mixed = StateSet(
        s,
        [make_ket(s, [(1, (0, 0))], "00"), make_ket(s, [(1, (0, 1)), (1, (1, 0))], "e"), make_ket(s, [(1, (1, 1))], "11")],
    )
    for p in (0, 1):
        assert local_factors(mixed, p)[1].tolist() == [True, False, True]
    one = StateSet(PartySpace((3,)), [Ket(PartySpace((3,)), [1, 1j, 0], "a")])
    vecs, mask = local_factors(one, 0)
    assert mask.tolist() == [True] and np.allclose(np.abs(vecs[0]), np.abs(one.matrix()[0]))


def test_local_factors_decided_once_per_set_and_party(monkeypatch):
    s4 = build_fixture("s4")
    svds = []
    svd = np.linalg.svd

    def counted_svd(*args, **kwargs):
        svds.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    first = [local_factors(s4, p) for p in range(3)]
    again = [local_factors(s4, p) for p in range(3)]
    assert len(svds) == 3
    assert all(a is b for a, b in zip(first, again))
    assert not any(a.flags.writeable for pair in first for a in pair)


def _full_support_basis(mats):
    """Reference: `_support_basis` from the full-matrices SVD, and its
    singular values."""
    d = mats.shape[1]
    u, sv, _ = np.linalg.svd(mats.transpose(1, 0, 2).reshape(d, -1), full_matrices=True)
    r = int(np.sum(sv > RANK_RTOL * sv[0])) if sv.size and sv[0] > 0 else 0
    u = u[:, :r]
    idx = index_support(u @ u.conj().T)
    if idx is not None:
        u = np.zeros((d, r), dtype=np.complex128)
        u[idx, range(len(idx))] = 1.0
        return u, tuple(idx), sv
    return u, None, sv


def _assert_support_basis_bits(mats, case):
    u, idx = states._support_basis(mats)
    want_u, want_idx, want_sv = _full_support_basis(mats)
    d = mats.shape[1]
    sv = np.linalg.svd(mats.transpose(1, 0, 2).reshape(d, -1), full_matrices=False)[1]
    assert same_bits(u, want_u) and idx == want_idx, case
    assert same_bits(sv, want_sv), case


@pytest.mark.parametrize("s", state_model_cases())
def test_support_basis_decided_once_per_set_and_party(s):
    for p in range(s.space.n_parties):
        u, idx = support_basis(s, p)
        again = support_basis(s, p)
        assert again[0] is u and again[1] is idx
        assert not u.flags.writeable
        ref_u, ref_idx = states._support_basis(party_matrices(s, p))
        assert same_bits(u, ref_u) and idx == ref_idx
        _assert_support_basis_bits(party_matrices(s, p), p)


@pytest.mark.parametrize("d", range(1, 13))
def test_support_basis_matches_full_matrices_svd_random(d):
    # wide (d < n * d_rest) and tall (d > n * d_rest) stacks, full and low rank
    rng = np.random.default_rng(d)
    for n, d_rest in ((1, 1), (2, 1), (1, 3), (3, 2), (4, 6), (20, 12)):
        for rank in (min(d, n * d_rest), 1):
            left = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
            right = rng.standard_normal((rank, n * d_rest)) + 1j * rng.standard_normal((rank, n * d_rest))
            mats = (left @ right).reshape(d, n, d_rest).transpose(1, 0, 2)
            _assert_support_basis_bits(mats, (n, d_rest, rank))


def test_support_basis_shared_by_every_analysis(monkeypatch):
    calls = []
    helper = states._support_basis

    def counted(mats):
        calls.append(mats.shape)
        return helper(mats)

    monkeypatch.setattr(states, "_support_basis", counted)
    t = build_fixture("tiles33")
    spaces = [oplm_space(t, p, on_support=True) for p in range(2)]
    supports, _ = upb._local_support_vectors(t, [local_factors(t, p) for p in range(2)])
    assert check_unextendible(t).unextendible
    numeric_extension_search(t, restarts=1)
    an = SetAnalyzer()
    assert an.nodes[an.intern(t)].support_dims == (3, 3)
    assert len(calls) == 2
    for p in range(2):
        assert spaces[p].support is supports[p] is support_basis(t, p)[0]


def test_party_rows_inverts_party_matrices():
    s = build_fixture("s4")
    for p in range(s.space.n_parties):
        assert party_rows(s.space, p, party_matrices(s, p)).tobytes() == s.matrix().tobytes()


def test_occupied_indices():
    s = PartySpace((4, 3))
    sub = StateSet(s, [make_ket(s, [(1, (1, 0))], "a"), make_ket(s, [(1, (3, 2))], "b")])
    assert occupied_indices(party_matrices(sub, 0)) == [1, 3]
    assert occupied_indices(party_matrices(sub, 1)) == [0, 2]
