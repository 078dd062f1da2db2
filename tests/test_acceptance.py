"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run `pytest tests/test_acceptance.py -v -s` for the per-criterion report.
"""

import time

import numpy as np
import pytest

from _helpers import _collect_leaves, constraint_residual, random_orthogonal_product_set, random_orthonormal_set
from qlocc.certify import apply_outcome, certify_activation_protocol, verify_protocol
from qlocc.fixtures import build_fixture, builtin_protocol
from qlocc.oplm import block_structure, measurement_candidates, oplm_space, projective_oplms
from qlocc.partitions import hidden_nonlocality_profile
from qlocc.protocol import activation_search, search_distinguishing_protocol
from qlocc.qset import parse_qset, serialize_qset
from qlocc.render import extract_tiles, render
from qlocc.states import (
    Bipartition,
    PartySpace,
    StateSet,
    apply_local_unitaries,
    equal_up_to_local_relabeling,
    gram_check,
    gram_matrix,
    make_ket,
    merge_parties,
    random_local_unitaries,
    redundancy_check,
    schmidt_rank,
)
from qlocc.upb import check_unextendible, numeric_extension_search


class Gate:
    def __init__(self, number, title, budget_s):
        self.number = number
        self.title = title
        self.budget = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number:>2} {status} ({dt:6.2f}s / {self.budget:g}s): {self.title}")
        if exc_type is None and dt > self.budget:
            raise AssertionError(f"criterion {self.number} exceeded its {self.budget}s budget ({dt:.2f}s)")
        return False


def test_criterion_01_fixture_integrity():
    with Gate(1, "fixture integrity & verbatim s6 failure pairs", 1.0):
        # note: the printed Eq.(4) listing expands to 24 states, not the 22
        # cited in the criterion text (see decisions ledger)
        counts = {"s1": 16, "s2": 14, "s3": 10, "s4": 20, "s5": 12, "s6": 24, "tiles33": 5}
        for name, n in counts.items():
            s = build_fixture(name, "corrected")
            assert len(s) == n, (name, len(s), n)
            assert gram_check(s, tol=1e-9).ok, name
        rep = gram_check(build_fixture("s6", "verbatim"), tol=1e-9)
        assert not rep.ok
        top = {frozenset(p) for p in rep.top_pairs(2)}
        assert top == {frozenset({"xi45+_0", "xi5_0"}), frozenset({"xi45-_0", "xi5_0"})}


def test_criterion_02_proposition1_structure():
    with Gate(2, "s1 OPLM structure diag(d0,g,g,g): blocks {0}/{1,2,3}, one measurement", 5.0):
        s1 = build_fixture("s1")
        sp_a = oplm_space(s1, 0)
        assert sp_a.space_dim == 2
        bs = block_structure(sp_a)
        assert bs.commuting and bs.index_supports == [[0], [1, 2, 3]]
        ms = projective_oplms(sp_a, bs)
        assert len(ms) == 1
        assert np.allclose(ms[0].kraus[0], np.diag([1, 0, 0, 0]))
        assert np.allclose(ms[0].kraus[1], np.diag([0, 1, 1, 1]))
        # party B at the root: the paper's own tying pairs force
        # m^b_00 = ... = m^b_33, i.e. the space is trivial, which is exactly
        # why the states "cannot be distinguished if Bob goes first"
        sp_b = oplm_space(s1, 1)
        assert sp_b.space_dim == 1
        assert projective_oplms(sp_b, block_structure(sp_b)) == []


def test_criterion_03_proposition1_verdicts():
    with Gate(3, "s1: distinguishing certificate + non-activability in class", 30.0):
        s1 = build_fixture("s1")
        cert = search_distinguishing_protocol(s1, max_depth=6)
        assert cert.kind == "Distinguishability" and cert.verified
        assert verify_protocol(s1, cert.tree).passed
        act = activation_search(s1, max_depth=6)
        assert act.kind == "NonActivabilityInClass"
        assert act.params["complete"] is True
        assert act.transcript and all(e["distinguishable"] is True for e in act.transcript)
        assert all(e["certified_indistinguishable"] is None for e in act.transcript)


def test_criterion_04_proposition2_s2_profile():
    with Gate(4, "s2: H1 = H2 = 0; A|BC by search (first-round dim 2), B|AC & C|AB by rule", 60.0):
        prof = hidden_nonlocality_profile(build_fixture("s2"), max_depth=8)
        assert prof.h_flags[1]["value"] == "zero"
        assert prof.h_flags[2]["value"] == "zero"
        abc = prof.record("A|BC")
        assert abc.rule == "search"
        assert abc.activable is False and abc.basis == "IN-CLASS"
        assert abc.first_round_space_dims["A"] == 2
        assert abc.evidence["activation"]["kind"] == "NonActivabilityInClass"
        for label in ("B|AC", "C|AB"):
            r = prof.record(label)
            assert r.rule == "qubit_times_n" and r.basis == "EXACT"
            assert r.distinguishable is True and r.activable is False


def test_criterion_05_s3_discrimination():
    with Gate(5, "scripted s3 discrimination (M_B four outcomes, per-branch M_A) passes", 1.0):
        vr = verify_protocol(build_fixture("s3"), builtin_protocol("s3_discrimination"))
        assert vr.passed
        assert set(vr.identified) == {f"phi{i}" for i in range(1, 11)}


def test_criterion_06_proposition3_activation():
    with Gate(6, "scripted s3 activation: 4 tiles33 leaves, UPB + IRREDUCIBLE-EXACT", 10.0):
        s3 = build_fixture("s3")
        tree = builtin_protocol("s3_activation")
        cert = certify_activation_protocol(s3, tree)
        assert cert.kind == "Activation" and cert.verified
        leaves = _collect_leaves(s3, tree)
        assert len(leaves) == 4
        tiles = build_fixture("tiles33")
        for _path, cur, _node in leaves:
            assert len(cur) == 5
            # (a) equals tiles33 up to support embedding and local relabeling
            assert equal_up_to_local_relabeling(cur, tiles)
            # (b) unextendible on its local supports
            v = check_unextendible(cur)
            assert v.unextendible
            # (c) exact irreducibility: both OPLM spaces one-dimensional on
            # the 3x3 supports
            for p in range(2):
                sp = oplm_space(cur, p, on_support=True)
                assert sp.support_dim == 3 and sp.space_dim == 1


def test_criterion_07_upb_oracle_equivalence():
    with Gate(7, "exact unextendibility vs numeric oracle on tiles33 & 100 random sets", 60.0):
        tiles = build_fixture("tiles33")
        v = check_unextendible(tiles)
        res = numeric_extension_search(tiles, restarts=200, seed=11)
        assert v.unextendible and res.residual > 1e-8
        minus = StateSet(tiles.space, tiles.states[:4], "minus")
        v2 = check_unextendible(minus)
        res2 = numeric_extension_search(minus, restarts=200, seed=11)
        assert (not v2.unextendible) and res2.residual <= 1e-8
        rng = np.random.default_rng(2024)
        done = 0
        while done < 100:
            n = int(rng.integers(2, 9))
            s = random_orthogonal_product_set(rng, (3, 3), n)
            if s is None:
                continue
            done += 1
            exact = check_unextendible(s).unextendible
            oracle = numeric_extension_search(s, restarts=200, seed=done).residual
            assert (oracle <= 1e-8) == (not exact), (done, n, oracle, exact)


def test_criterion_08_s4_hierarchy():
    with Gate(8, "s4: AB|C blocked by exact rule, A|BC activable; s2/s4 profiles differ", 60.0):
        prof4 = hidden_nonlocality_profile(build_fixture("s4"), max_depth=8)
        abc_cut = prof4.record("C|AB")  # the AB|C cut (smaller block listed first)
        assert abc_cut.rule == "qubit_times_n" and abc_cut.basis == "EXACT"
        assert abc_cut.activable is False
        a_bc = prof4.record("A|BC")
        assert a_bc.activable is True
        assert a_bc.evidence["activation"]["kind"] == "Activation"
        # the scripted protocol also certifies the cut
        merged = merge_parties(build_fixture("s4"), [(0,), (1, 2)])
        cert = certify_activation_protocol(merged, builtin_protocol("s4_abc_activation"))
        assert cert.kind == "Activation" and cert.verified
        assert len(cert.leaf_evidence) == 8
        prof2 = hidden_nonlocality_profile(build_fixture("s2"), max_depth=8)
        bips2 = {r.partition: r.activable for r in prof2.records if r.partition.count("|") == 1}
        bips4 = {r.partition: r.activable for r in prof4.records if r.partition.count("|") == 1}
        assert any(bips2[k] != bips4[k] for k in bips2)


def test_criterion_09_proposition4_s5_s6():
    with Gate(9, "s5/s6: diag(d0,g,g,g) structure, rank-2 members, non-activability", 120.0):
        s5 = build_fixture("s5")
        sp = oplm_space(s5, 0)
        assert sp.space_dim == 2
        bs = block_structure(sp)
        assert bs.commuting and bs.index_supports == [[0], [1, 2, 3]]
        ranks = [schmidt_rank(k, Bipartition.of({0}, 2)) for k in s5]
        assert max(ranks) == 2
        act5 = activation_search(s5, max_depth=6)
        assert act5.kind == "NonActivabilityInClass" and act5.params["complete"] is True
        act6 = activation_search(build_fixture("s6", "corrected"), max_depth=8)
        assert act6.kind == "NonActivabilityInClass" and act6.params["complete"] is True
        assert all(e["distinguishable"] is True for e in act6.transcript)


def test_criterion_10_redundancy():
    with Gate(10, "s3 locally irredundant with (phi3, phi4) witness for the b2 discard", 1.0):
        rep = redundancy_check(build_fixture("s3"))
        assert not rep.redundant
        b2 = rep.violations[("b2",)]
        assert any({a, b} == {"phi3", "phi4"} for a, b, _ in b2)
        space = PartySpace((2, 2))
        pair = StateSet(
            space,
            [make_ket(space, [(1, (0, 0))], "00"), make_ket(space, [(1, (1, 1))], "11")],
            "pair",
        )
        assert redundancy_check(pair).redundant


def test_criterion_11_format_and_render():
    with Gate(11, "qset round-trip (100 sets), s1 tiling partition, s3 K_B overlay", 5.0):
        rng = np.random.default_rng(404)
        for trial in range(100):
            dims = [(2, 2), (3, 3), (4, 4), (2, 3, 2)][trial % 4]
            n = min(int(rng.integers(1, 6)), int(np.prod(dims)))
            s = random_orthonormal_set(rng, dims, n)
            s2 = parse_qset(serialize_qset(s))
            assert np.abs(gram_matrix(s) - gram_matrix(s2)).max() <= 1e-12
        s1 = build_fixture("s1")
        diagram = extract_tiles(s1)
        cover = np.zeros((4, 4), dtype=int)
        for t in diagram.tiles:
            for a, b in t.cells():
                cover[a, b] += 1
        assert (cover == 1).all()
        svg = render(build_fixture("s3"), "svg", overlay=(1, [0, 1, 2]))
        assert 'class="overlay"' in svg


def test_criterion_12_property_suites():
    with Gate(12, "local-unitary invariance, completeness, span residuals, conservation", 60.0):
        rng = np.random.default_rng(77)
        # 50 random-local-unitary trials preserve schmidt ranks and gram verdicts
        for trial in range(50):
            dims = [(3, 3), (4, 4), (2, 3, 2)][trial % 3]
            n = int(rng.integers(2, 6))
            s = random_orthonormal_set(rng, dims, n)
            us = random_local_unitaries(s.space, rng)
            s2 = apply_local_unitaries(s, us)
            assert gram_check(s2).ok == gram_check(s).ok
            for k, k2 in zip(s, s2):
                cut = Bipartition.of({0}, s.space.n_parties)
                assert schmidt_rank(k, cut) == schmidt_rank(k2, cut)
        # enumerated OPLM completeness + span residuals + count conservation
        for name in ("s1", "s2", "s3", "s5"):
            s = build_fixture(name)
            for p in range(s.space.n_parties):
                sp = oplm_space(s, p)
                for _ in range(5):
                    coeff = rng.normal(size=sp.space_dim)
                    e = sum(c * b for c, b in zip(coeff, sp.basis))
                    assert constraint_residual(sp, e) <= 1e-8
                for m in measurement_candidates(s, p):
                    assert m.completeness_residual() <= 1e-10
                    for kraus in m.kraus:
                        out, labels = apply_outcome(s, p, kraus)
                        assert len(out) == len(labels)
                        assert len(out) + (len(s) - len(labels)) == len(s)
