import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

import qlocc
from qlocc import certify, partitions, protocol
from qlocc.certify import (
    Leaf,
    Measure,
    SetFacts,
    _kraus_from_json,
    _replay,
    apply_outcome,
    canonical_key,
    certify_activation_protocol,
    matrix_json,
    tree_from_json,
    tree_to_json,
    verify_protocol,
)
from qlocc.fixtures import BUILTIN_PROTOCOLS, build_fixture, builtin_protocol
from qlocc.oplm import LocalMeasurement, measurement_candidates, oplm_space
from qlocc.partitions import hidden_nonlocality_profile
from qlocc.protocol import SetAnalyzer, activation_search, search_distinguishing_protocol
from qlocc.qset import QsetError
from qlocc.states import (
    PartySpace,
    StateSet,
    apply_local_unitaries,
    equal_up_to_local_relabeling,
    gram_check,
    make_ket,
    merge_parties,
    random_local_unitaries,
)
from qlocc.upb import check_unextendible

from _helpers import (
    PEAK_RSS_SOURCE,
    ReferenceCheck,
    _collect_leaves,
    childless_s3_activation_tree,
    mask_mismatches,
    near_bell_leaves_tree,
    near_orthogonal_leaves_tree,
    outcome_matches_reference,
    random_orthonormal_set,
    reference_apply_outcome,
    reference_canonical_key,
    reference_cert,
    reference_kraus_from_json,
    reference_matrix_json,
    same_bits,
    truncated_s3_activation_tree,
)


def pair_set():
    s = PartySpace((2, 2))
    return StateSet(s, [make_ket(s, [(1, (0, 0))], "00"), make_ket(s, [(1, (1, 1))], "11")], "pair")


def test_apply_outcome_s1():
    s1 = build_fixture("s1")
    out, labels = apply_outcome(s1, 0, np.diag([0, 1, 1, 1]).astype(complex))
    assert len(out) == 12
    dropped = set(s1.labels) - set(labels)
    assert dropped == {"0_X01+", "0_X01-", "0_X23+", "0_X23-"}


def test_apply_outcome_identity():
    s1 = build_fixture("s1")
    out, labels = apply_outcome(s1, 0, np.eye(4, dtype=complex))
    assert labels == s1.labels
    assert np.abs(out.matrix() - s1.matrix()).max() <= 1e-12


def test_apply_outcome_s3_kb1():
    s3 = build_fixture("s3")
    p = np.diag([1, 1, 1, 0, 0, 0]).astype(complex)
    out, labels = apply_outcome(s3, 1, p)
    assert len(out) == 10
    phi1 = out.states[labels.index("phi1")]
    # phi1 -> |0>|0-1> on the kept half
    expect = np.zeros(36)
    expect[0] = 1 / np.sqrt(2)
    expect[1] = -1 / np.sqrt(2)
    assert np.abs(phi1.amplitudes - expect).max() <= 1e-12


def test_apply_outcome_rejects_orthogonality_break():
    s = PartySpace((2, 2))
    st = StateSet(
        s,
        [make_ket(s, [(1, (0, 0)), (1, (1, 1))], "bell+"), make_ket(s, [(1, (0, 0)), (-1, (1, 1))], "bell-")],
        "bells",
    )
    with pytest.raises(ValueError):
        apply_outcome(st, 0, np.diag([1, 0]).astype(complex))


def test_apply_outcome_orthogonality_break_message_matches_reference():
    s = PartySpace((2, 2))
    st = StateSet(s, [make_ket(s, [(1, (0, 0))], "00"), make_ket(s, [(1, (1, 0))], "10")], "pair")
    plus = np.full((2, 2), 0.5, dtype=complex)
    with pytest.raises(ValueError) as ref:
        reference_apply_outcome(st, 0, plus)
    with pytest.raises(ValueError) as new:
        apply_outcome(st, 0, plus)
    assert str(new.value) == str(ref.value) == "outcome breaks orthogonality: |<00|10>| = 1"


def _assert_matches_reference(s, party, kraus):
    result = apply_outcome(s, party, kraus)
    assert outcome_matches_reference(s, party, kraus, result)
    assert canonical_key(result[0]) == reference_canonical_key(reference_apply_outcome(s, party, kraus)[0])
    return result


def test_apply_outcome_eliminating_every_state():
    s1 = build_fixture("s1")
    out, labels = _assert_matches_reference(s1, 1, np.zeros((4, 4), dtype=complex))
    assert labels == [] and len(out) == 0
    assert out.matrix().shape == (0, 16)


def test_apply_outcome_single_survivor():
    out, labels = _assert_matches_reference(pair_set(), 0, np.diag([1, 0]).astype(complex))
    assert labels == out.labels == ["00"]


def test_apply_outcome_one_party_space():
    space = PartySpace((4,))
    s = StateSet(space, [make_ket(space, [(1, (i,)), (1j, (i + 1,))], f"v{i}") for i in (0, 2)], "one-party")
    out, labels = _assert_matches_reference(s, 0, np.diag([0, 1, 1, 1]).astype(complex))
    assert labels == ["v0", "v2"]
    _assert_matches_reference(s, 0, np.diag([1, 1, 0, 0]).astype(complex))


def test_apply_outcome_renormalizes_as_the_reference_on_random_sets():
    # generic Kraus operators leave survivors far from unit norm; one state
    # at a time, since they also break orthogonality between survivors
    rng = np.random.default_rng(7)
    for dims in ((2, 3), (3, 2, 2)):
        s = random_orthonormal_set(rng, dims, 5)
        for party, d in enumerate(dims):
            kraus = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            for ket in s:
                one = StateSet(s.space, [ket], s.name)
                out, labels = apply_outcome(one, party, kraus)
                ref, ref_labels = reference_apply_outcome(one, party, kraus)
                assert labels == ref_labels == [ket.label]
                assert out.matrix().tobytes() == ref.matrix().tobytes()
                assert [k.amplitudes.tobytes() for k in out] == [k.amplitudes.tobytes() for k in ref]


@pytest.mark.parametrize("search", [search_distinguishing_protocol, activation_search])
def test_s1_general_outcomes_and_keys_match_per_state_references(search):
    check = ReferenceCheck()
    with check.installed():
        search(build_fixture("s1_general", d=4), max_depth=8)
    assert check.outcomes > 0 and check.keys > 0 and check.candidate_calls > 0
    assert check.mismatches == []


@pytest.mark.parametrize("d", [4, 6])
@pytest.mark.parametrize("search", [search_distinguishing_protocol, activation_search])
def test_s1_general_masks_match_survivors_at_every_expanded_node(search, d, monkeypatch):
    checked = []

    def masked(s, party, sp=None):
        got = measurement_candidates(s, party, sp)
        checked.append(mask_mismatches(s, party, got))
        return got

    monkeypatch.setattr(protocol, "measurement_candidates", masked)
    search(build_fixture("s1_general", d=d), max_depth=2 * d)
    assert checked and not any(checked)


# both searches on s1_general d = 10 at depth 2d, in a fresh process with
# one BLAS thread (each further OpenBLAS thread adds about 13 MB): the OPLM
# solves stay below this peak. With solved spaces keeping only the tensors
# of their live pairs i < j the process peaks at 75.4 MB, and at 144.3 MB
# with dense pair tensors (2-core Xeon, OpenBLAS 0.3.31)
EDGE_RSS_MB = 110
EDGE_RUN = PEAK_RSS_SOURCE + """
import json
from qlocc.fixtures import build_fixture
from qlocc.protocol import activation_search, search_distinguishing_protocol
dist = search_distinguishing_protocol(build_fixture("s1_general", d=10), max_depth=20)
act = activation_search(build_fixture("s1_general", d=10), max_depth=20)
print(json.dumps({
    "dist": [dist.kind, dist.verified],
    "act": [act.kind, act.params["complete"]],
    "rss_mb": peak_rss_mb(),
}))
"""


def test_s1_general_d10_searches_in_a_fresh_process():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qlocc.__file__)))
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", EDGE_RUN], env=env, capture_output=True, text=True, check=True, timeout=300)
    got = json.loads(out.stdout)
    assert got["dist"] == ["Distinguishability", True]
    assert got["act"] == ["NonActivabilityInClass", True]
    assert got["rss_mb"] < EDGE_RSS_MB, got


def test_apply_outcome_count_conservation():
    s1 = build_fixture("s1")
    for p in range(2):
        for m in measurement_candidates(s1, p):
            for kraus in m.kraus:
                out, labels = apply_outcome(s1, p, kraus)
                assert len(out) == len(labels)
                elim = len(s1) - len(out)
                assert elim + len(out) == len(s1)


def test_verify_builtin_s3_discrimination():
    vr = verify_protocol(build_fixture("s3"), builtin_protocol("s3_discrimination"))
    assert vr.passed
    assert set(vr.identified) == {f"phi{i}" for i in range(1, 11)}


def test_verify_builtin_s1_recursion():
    vr = verify_protocol(build_fixture("s1"), builtin_protocol("s1_recursion"))
    assert vr.passed


def test_verify_bare_leaf_fails():
    vr = verify_protocol(pair_set(), Leaf())
    assert not vr.passed
    assert vr.failures == ["root: leaf identifies nothing but 2 state(s) reach it", "states never identified: 00, 11"]


def test_verify_party_out_of_range_fails():
    ident = np.eye(2, dtype=complex)
    tree = Measure(7, LocalMeasurement(7, [ident], ["I"]), [Leaf()])
    vr = verify_protocol(pair_set(), tree)
    assert vr.failures[0] == "root: measures party 7 of a 2-party set"


def test_replay_names_a_kraus_size_that_is_not_the_partys():
    # a 2x2 tree on s3's 6-dim party A: one failure per node, naming both
    # sizes, found before completeness, and the node's children are skipped
    s3 = build_fixture("s3")
    tree = Measure(0, LocalMeasurement(0, [np.diag([1, 0]), np.diag([0, 1])], ["P0", "P1"]), [Leaf(), Leaf()])
    vr = verify_protocol(s3, tree)
    assert vr.failures == ["root: kraus is 2x2, party A has dimension 6", "states never identified: " + ", ".join(s3.labels)]
    cert = certify_activation_protocol(s3, tree)
    assert (cert.kind, cert.notes) == ("ProtocolFailure", "root: kraus is 2x2, party A has dimension 6")
    # deeper, on B: the path names the node, and its sibling still replays
    half = builtin_protocol("s3_activation")
    half.children[1] = Measure(1, tree.measurement, [Leaf(), Leaf()])
    cert = certify_activation_protocol(s3, half)
    assert cert.notes == "root/1: kraus is 2x2, party B has dimension 6"
    assert [e["path"] for e in cert.leaf_evidence] == ["root/0/0", "root/0/1"]


def test_search_pair_depth_one():
    cert = search_distinguishing_protocol(pair_set(), max_depth=1)
    assert cert.kind == "Distinguishability" and cert.verified


def test_search_tiles33_exhaustion():
    cert = search_distinguishing_protocol(build_fixture("tiles33"), max_depth=6)
    assert cert.kind == "Exhaustion"
    assert cert.params["complete"] is True


def test_search_s1():
    cert = search_distinguishing_protocol(build_fixture("s1"), max_depth=6)
    assert cert.kind == "Distinguishability" and cert.verified
    assert verify_protocol(build_fixture("s1"), cert.tree).passed


def test_activation_s3():
    cert = activation_search(build_fixture("s3"), max_depth=4)
    assert cert.kind == "Activation" and cert.verified
    assert cert.leaf_evidence
    for ev in cert.leaf_evidence:
        assert ev["certificate"]["kind"] in ("UPB", "IRREDUCIBLE-EXACT")
        assert ev["locally_irredundant"]


def test_activation_s1_none():
    cert = activation_search(build_fixture("s1"), max_depth=6)
    assert cert.kind == "NonActivabilityInClass"
    assert cert.params["complete"] is True
    assert cert.transcript
    assert all(e["distinguishable"] is True for e in cert.transcript)


def test_activation_root_indistinguishable():
    cert = activation_search(build_fixture("tiles33"), max_depth=4)
    assert cert.kind == "Indistinguishability"


def _split_on_a(first, second):
    """A one-step tree: party A measures |0><0| and |1><1|, children as given."""
    halves = [np.diag([1, 0]).astype(complex), np.diag([0, 1]).astype(complex)]
    return Measure(0, LocalMeasurement(0, halves, ["P0", "P1"]), [first, second])


@pytest.mark.parametrize(
    "tree, identified, failures",
    [
        (Leaf(identified="00"), {}, ["root: leaf holds 2 states", "states never identified: 00, 11"]),
        (
            _split_on_a(Leaf(identified="11"), Leaf(identified="00")),
            {},
            [
                "root/0: leaf claims '11', reached by '00'",
                "root/1: leaf claims '00', reached by '11'",
                "states never identified: 00, 11",
            ],
        ),
        (
            _split_on_a(Leaf(identified="00"), Leaf()),
            {"00": "root/0"},
            ["root/1: leaf identifies nothing but 1 state(s) reach it", "states never identified: 11"],
        ),
    ],
    ids=["holds-two", "claims-other", "never-identified"],
)
def test_verify_names_each_leaf_fault(tree, identified, failures):
    vr = verify_protocol(pair_set(), tree)
    assert not vr.passed and vr.verdict == "FAIL"
    assert vr.identified == identified
    assert vr.failures == failures


@pytest.mark.parametrize(
    "tree, notes",
    [
        (_split_on_a(Leaf(), Leaf()), "root/0: not an activation leaf; root/1: not an activation leaf"),
        (Leaf(identified="00"), "root: not an activation leaf"),
    ],
    ids=["single-state", "identifying"],
)
def test_certify_rejects_non_activation_leaves(tree, notes):
    cert = certify_activation_protocol(pair_set(), tree)
    assert cert.kind == "ProtocolFailure" and not cert.verified
    assert cert.notes == notes and cert.leaf_evidence == []


def test_certify_rejects_locally_redundant_leaf():
    # tiles33 with a third party in |0> for every state: certified (a UPB on
    # the 3 x 3 x 1 supports), but discarding C leaves the states orthogonal
    t = build_fixture("tiles33")
    s = StateSet.from_matrix(PartySpace((3, 3, 2)), np.kron(t.matrix(), [1, 0]), t.labels, "tiles33-c0")
    cert = certify_activation_protocol(s, Leaf())
    assert cert.kind == "ProtocolFailure" and not cert.verified
    assert cert.notes == "root: leaf set is locally redundant"
    assert SetFacts(s).cert is not None


def test_certify_rejects_recorded_leaf_set_that_does_not_replay():
    t = build_fixture("tiles33")
    assert certify_activation_protocol(t, Leaf(reached=t)).kind == "Activation"
    four = StateSet.from_matrix(t.space, t.matrix()[:4], t.labels[:4], "tiles33-minus-stopper")
    cert = certify_activation_protocol(t, Leaf(reached=four))
    assert cert.kind == "ProtocolFailure" and not cert.verified
    assert cert.notes == "root: recorded leaf set does not replay"
    # same labels, other states: only the amplitudes tell the recorded set apart
    rotated = apply_local_unitaries(t, random_local_unitaries(t.space, np.random.default_rng(5)))
    cert = certify_activation_protocol(t, Leaf(reached=rotated))
    assert cert.notes == "root: recorded leaf set does not replay"


def test_certify_checks_each_recorded_leaf_of_a_deeper_tree():
    s3 = build_fixture("s3")
    tree = builtin_protocol("s3_activation")
    for _, reached, leaf in _replay(tree, s3, []):
        leaf.reached = reached
    assert certify_activation_protocol(s3, tree).kind == "Activation"
    path, reached, leaf = list(_replay(tree, s3, []))[1]
    leaf.reached = StateSet.from_matrix(reached.space, reached.matrix()[:-1], reached.labels[:-1], "tampered")
    cert = certify_activation_protocol(s3, tree)
    assert cert.kind == "ProtocolFailure" and cert.notes == f"{path}: recorded leaf set does not replay"


def _float_bits(nested) -> list:
    """Every float of a nested list as (type, 8 bytes): tells -0.0 and NaN
    payloads apart, and a numpy scalar from a Python float."""
    if isinstance(nested, list):
        return [_float_bits(x) for x in nested]
    return (type(nested), struct.pack("<d", nested))


@pytest.mark.parametrize(
    "m",
    [
        np.array([[1 + 2j, -0.0 - 0.0j], [complex(np.nan, -np.inf), complex(-0.0, np.inf)]]),
        np.array([[-0.0, 1.5, np.nan], [np.inf, -np.inf, 2.0**-1074], [1e308, -1e-300, 0.0]]),
        np.array([[1, -2], [3, 2**53 + 1]]),
        np.array([[True, False]]),
        np.eye(3, dtype=np.float32) * -1.0,
        np.array([[0.1 + 0.2j]], dtype=np.complex64),
        [[0.5, -1], [1j, 2]],
        np.zeros((2, 0)),
    ],
    ids=["complex", "real", "int", "bool", "float32", "complex64", "list", "empty"],
)
def test_matrix_json_matches_the_elementwise_reference(m):
    assert _float_bits(matrix_json(m)) == _float_bits(reference_matrix_json(m))


def test_matrix_json_matches_the_reference_on_random_kraus():
    rng = np.random.default_rng(11)
    for d in (1, 2, 6, 12):
        k = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        k[rng.random((d, d)) < 0.3] = 0.0
        k.real[rng.random((d, d)) < 0.2] *= -0.0
        assert _float_bits(matrix_json(k)) == _float_bits(reference_matrix_json(k))


def test_certify_builtin_s3_activation():
    s3 = build_fixture("s3")
    cert = certify_activation_protocol(s3, builtin_protocol("s3_activation"))
    assert cert.kind == "Activation" and cert.verified
    assert len(cert.leaf_evidence) == 4
    tiles = build_fixture("tiles33")
    for _, cur, _node in _collect_leaves(s3, builtin_protocol("s3_activation")):
        assert equal_up_to_local_relabeling(cur, tiles)


def test_certify_rejects_incomplete_measurement():
    s3 = build_fixture("s3")
    tree = truncated_s3_activation_tree()
    cert = certify_activation_protocol(s3, tree)
    assert cert.kind == "ProtocolFailure" and not cert.verified
    assert "root/0: measurement completeness violated" in cert.notes
    assert "root/1: measurement completeness violated" in cert.notes
    vr = verify_protocol(s3, tree)
    assert "root/0: measurement completeness violated" in vr.failures
    with pytest.raises(ValueError, match="completeness"):
        _collect_leaves(s3, tree)


def test_certify_rejects_missing_children():
    s3 = build_fixture("s3")
    cert = certify_activation_protocol(s3, childless_s3_activation_tree())
    assert cert.kind == "ProtocolFailure" and not cert.verified
    assert "root/0: 1 children for 2 outcomes" in cert.notes


def test_certify_judges_redundancy_only_on_certified_leaves():
    s, tree = near_orthogonal_leaves_tree()
    cert = certify_activation_protocol(s, tree)
    assert cert.kind == "ProtocolFailure" and not cert.verified
    assert cert.notes == (
        "root/0: leaf set not certified locally indistinguishable; "
        "root/1: leaf set not certified locally indistinguishable"
    )


def test_certify_fails_certified_leaves_not_orthogonal_at_ortho_tol():
    s, tree = near_bell_leaves_tree()
    cert = certify_activation_protocol(s, tree)
    assert cert.kind == "ProtocolFailure" and not cert.verified
    assert cert.notes == "root/0: leaf set not orthogonal at ORTHO_TOL; root/1: leaf set not orthogonal at ORTHO_TOL"
    an = SetAnalyzer()
    for _, leaf, _ in _collect_leaves(s, tree):
        key = an.intern(leaf)
        assert an.nodes[key].cert["kind"] == "IRREDUCIBLE-EXACT"
        # the search does not take such a set as an activation leaf either
        assert an.activation(key, 0)[0] is not True


def test_certify_builtin_s4_abc():
    s4 = merge_parties(build_fixture("s4"), [(0,), (1, 2)])
    cert = certify_activation_protocol(s4, builtin_protocol("s4_abc_activation"))
    assert cert.kind == "Activation" and cert.verified
    assert len(cert.leaf_evidence) == 8


def test_node_facts_are_decided_once_per_node(monkeypatch):
    # the status and activation searches both ask a node for its OPLM spaces
    # and its certificate, and certifying the tree asks each leaf again: the
    # node keeps every answer
    spaces, upb_checks = [], []

    def recorded_space(s, party, **kw):
        spaces.append((canonical_key(s), party))
        return oplm_space(s, party, **kw)

    def recorded_upb(s):
        upb_checks.append(canonical_key(s))
        return check_unextendible(s)

    monkeypatch.setattr(certify, "oplm_space", recorded_space)
    monkeypatch.setattr(certify, "check_unextendible", recorded_upb)
    s4 = merge_parties(build_fixture("s4"), [(0,), (1, 2)])
    an = SetAnalyzer()
    found = activation_search(s4, 8, analyzer=an)
    assert found.kind == "Activation" and found.verified
    cert = certify_activation_protocol(s4, found.tree, known=an.nodes)
    assert cert.kind == "Activation" and cert.leaf_evidence == found.leaf_evidence
    assert len(spaces) == len(set(spaces)) > 0
    assert len(upb_checks) == len(set(upb_checks)) > 0


def _profile_analyzers(monkeypatch, name: str) -> list[SetAnalyzer]:
    """The analyzers of `name`'s hidden-nonlocality profile, one per
    partition it searched."""
    made = []

    def recorded_analyzer():
        made.append(SetAnalyzer())
        return made[-1]

    monkeypatch.setattr(partitions, "SetAnalyzer", recorded_analyzer)
    hidden_nonlocality_profile(build_fixture(name), max_depth=8)
    return made


def _replayed_builtin_leaves() -> SetAnalyzer:
    """An analyzer holding every leaf set of the four builtin protocols,
    each also in a seeded local-unitary frame."""
    sets = {
        "s3_discrimination": build_fixture("s3"),
        "s3_activation": build_fixture("s3"),
        "s1_recursion": build_fixture("s1"),
        "s4_abc_activation": merge_parties(build_fixture("s4"), [(0,), (1, 2)]),
    }
    assert set(sets) == set(BUILTIN_PROTOCOLS)
    an = SetAnalyzer()
    rng = np.random.default_rng(30)
    for name, s in sets.items():
        for _, leaf, _ in _collect_leaves(s, builtin_protocol(name)):
            an.intern(leaf)
            an.intern(apply_local_unitaries(leaf, random_local_unitaries(leaf.space, rng)))
    return an


@pytest.mark.parametrize(
    "run", ["s2-profile", "s4-profile", "s1", "s3", "s6", "tiles33", "s1_general-4", "s1_general-6", "builtin-leaves"]
)
def test_certificates_match_the_solve_every_party_rule(monkeypatch, run):
    # `_Node.cert` skips the solves that `index_split` rules out; on every
    # node of these runs it must give what solving every party first gives
    if run.endswith("-profile"):
        analyzers = _profile_analyzers(monkeypatch, run.removesuffix("-profile"))
    elif run == "builtin-leaves":
        analyzers = [_replayed_builtin_leaves()]
    else:
        name, _, d = run.partition("-")
        s = build_fixture(name, d=int(d)) if d else build_fixture(name)
        analyzers = [SetAnalyzer()]
        activation_search(s, 2 * int(d) if d else 8, analyzer=analyzers[0])
    nodes = [nd for an in analyzers for nd in an.nodes.values()]
    assert nodes
    for nd in nodes:
        assert nd.cert == reference_cert(nd), (run, nd.set.labels)
    # what each run certifies: both routes, and runs that certify nothing
    want = {"s4-profile": {"UPB"}, "s3": {"UPB"}, "tiles33": {"IRREDUCIBLE-EXACT"}, "builtin-leaves": {"IRREDUCIBLE-EXACT"}}
    assert {nd.cert["kind"] for nd in nodes if nd.cert} == want.get(run, set())


def test_upb_leaves_are_certified_without_a_solve(monkeypatch):
    # at the profiles' UPB leaves, four of 20 states on 6 x 12 (s4 as A|BC
    # and B|AC) and four of 10 on 6 x 6 x 2, some party's index groups rule
    # out IRREDUCIBLE-EXACT before any OPLM solve (112 solves without that)
    solved, upb_leaves = [], set()

    def recorded_space(s, party, **kw):
        solved.append(canonical_key(s))
        return oplm_space(s, party, **kw)

    def recorded_upb(s):
        v = check_unextendible(s)
        if v.unextendible:
            upb_leaves.add((canonical_key(s), len(s)))
        return v

    monkeypatch.setattr(certify, "oplm_space", recorded_space)
    monkeypatch.setattr(certify, "check_unextendible", recorded_upb)
    for name in ("s4", "s2"):
        hidden_nonlocality_profile(build_fixture(name), max_depth=8)
    assert sorted(n for _, n in upb_leaves) == [10] * 4 + [20] * 4
    assert not {key for key, _ in upb_leaves} & set(solved)
    assert 0 < len(solved) <= 92


def test_dist_implies_not_indistinguishable_at_root():
    for name in ("s1", "s3", "s5"):
        s = build_fixture(name)
        d = search_distinguishing_protocol(s, max_depth=6)
        a = activation_search(s, max_depth=4 if name == "s3" else 6)
        assert d.kind == "Distinguishability"
        assert a.kind != "Indistinguishability"


def test_tree_json_roundtrip():
    tree = builtin_protocol("s3_discrimination")
    blob = json.dumps(tree_to_json(tree))
    back = tree_from_json(json.loads(blob))
    vr = verify_protocol(build_fixture("s3"), back)
    assert vr.passed


def test_leaf_set_serialization():
    s3 = build_fixture("s3")
    cert = activation_search(s3, max_depth=4)
    js = cert.to_json()
    assert js["kind"] == "Activation"
    blob = json.dumps(js["tree"])
    assert "kraus" in blob


def test_replay_determinism():
    s3 = build_fixture("s3")
    a = activation_search(s3, max_depth=4).to_json()
    b = activation_search(s3, max_depth=4).to_json()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    s1 = build_fixture("s1")
    c = activation_search(s1, max_depth=6).to_json()
    d = activation_search(s1, max_depth=6).to_json()
    assert json.dumps(c, sort_keys=True) == json.dumps(d, sort_keys=True)


def test_canonical_key_dedup():
    s1 = build_fixture("s1")
    reordered = StateSet(s1.space, list(reversed(s1.states)), "rev")
    assert canonical_key(s1) == canonical_key(reordered)
    s5 = build_fixture("s5")
    assert canonical_key(s1) != canonical_key(s5)


def test_interning_is_label_aware():
    s1 = build_fixture("s1")
    relabeled = StateSet.from_matrix(s1.space, s1.matrix(), [f"x{lab}" for lab in s1.labels], "relabeled")
    same = StateSet.from_matrix(s1.space, s1.matrix(), s1.labels, "copy")
    an = SetAnalyzer()
    keys = {an.intern(s1), an.intern(relabeled), an.intern(same)}
    assert len(keys) == len(an.nodes) == 2
    assert an.intern(same) == an.intern(s1) != an.intern(relabeled)


@pytest.mark.parametrize("search", [search_distinguishing_protocol, activation_search])
def test_index_projector_cap_named_in_search_params(search):
    # the atom bound binds on the index projectors of party A, at the root
    rng = np.random.default_rng(3)
    wide = random_orthonormal_set(rng, (17, 2), 3)  # 17 index atoms on A
    cert = search(wide, max_depth=2)
    assert cert.params["atom_cap"] == {"cap": 16, "capped_nodes": 1}
    narrow = random_orthonormal_set(rng, (5, 2), 3)
    assert "atom_cap" not in search(narrow, max_depth=2).params


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_rotated_s4_verdicts_are_relative_to_the_computational_basis(seed):
    # s4 is distinguishable and activable, and local unitaries keep both
    # (LOCC is basis free). The searched class is not: on A the operator
    # space does not commute, so only computational-basis index projectors
    # are tried, and none passes after a rotation. A basis-free family or a
    # class-relative kind would change these verdicts, as a declared change.
    s4 = build_fixture("s4")
    s = apply_local_unitaries(s4, random_local_unitaries(s4.space, np.random.default_rng(seed)))
    assert search_distinguishing_protocol(s, 8).kind == "Exhaustion"
    act = activation_search(s, 8)
    assert act.kind == "Indistinguishability" and act.leaf_evidence == []


def test_unknown_builtin():
    with pytest.raises(ValueError):
        builtin_protocol("nope")


def test_incomplete_marker():
    # depth 0 cannot even start: verdict must be Incomplete, not negative
    cert = activation_search(build_fixture("s1"), max_depth=0)
    assert cert.kind == "Incomplete"
    assert cert.params["complete"] is False


def test_orthogonality_asserted_during_search():
    # visit every nonempty child of every move of s1: each is applied with
    # its orthogonality check, and the node it lands on is orthogonal at 1e-8
    an = SetAnalyzer()
    s1 = build_fixture("s1")
    key = an.intern(s1)
    visited = 0
    for mv in an.moves(key):
        for oi, keep in enumerate(mv.mask):
            assert mv.kept[oi] == keep.sum()
            if keep.any():
                ck = an.child_key(key, mv, oi)
                assert sorted(an.nodes[ck].set.labels) == sorted(np.array(s1.labels)[keep].tolist())
                assert gram_check(an.nodes[ck].set, tol=1e-8).ok
                visited += 1
    assert visited == sum(1 for mv in an.moves(key) for kept in mv.kept if kept) > 0


# JSON `kraus` entries: well-formed ones, ints past 64 bits, booleans and
# signed zeros; and wrong nesting, ragged or non-square rows, pairs of the
# wrong length, strings (numeric ones too), nulls, objects, non-finite values
KRAUS_ENTRIES = [
    [[[1, 0]]],
    [[[0.1, -0.0], [1e-300, 5]], [[-0.0, 0.0], [1, 2]]],
    [[[True, False]]],
    [[[2**70, 0]]],
    [[[2**64, 0.5]]],
    [[[2**63, -0.0]]],
    [[[-1, 2], [3, 4], [5, 6]], [[7, 8], [9, 10], [11, 12]], [[1, 1], [1, 1], [1, 1]]],
    3,
    None,
    "1.5",
    {},
    {"ab": 1},
    [],
    [[]],
    [[], []],
    [[[1, 0, 2]]],
    [[[1, 0]], [[1, 0], [0, 0]]],
    [[[1, 0], [0, 0]]],
    [[[[1, 0]]]],
    [[[1, 0]], [[0, 1]]],
    [[["1", 0]]],
    [["10"]],
    [[[1, "x"]]],
    [[[2**70, "1"]]],
    [[[None, 0]]],
    [[["1", None]]],
    [[{"a": 1, "b": 2}]],
    [[[1, 0], {"a": 1, "b": 2}]],
    [[[1, [0]]]],
    [[[float("inf"), 0]]],
    [[[float("nan"), 0]]],
]


@pytest.mark.parametrize("entry", KRAUS_ENTRIES, ids=range(len(KRAUS_ENTRIES)))
def test_kraus_entries_load_as_the_per_pair_reference(entry):
    got, ref = _kraus_from_json(entry), reference_kraus_from_json(entry)
    assert (got is None) == (ref is None)
    if ref is not None:
        assert same_bits(np.ascontiguousarray(got), ref)
    else:
        doc = {"party": 0, "outcomes": [{"kraus": entry, "child": None}]}
        with pytest.raises(ValueError) as exc:
            tree_from_json(doc)
        assert str(exc.value) == "malformed protocol at root: outcome 0: 'kraus' must be a square matrix of [re, im] pairs"


def test_a_leaf_set_that_is_not_qset_text_names_its_path():
    # a QsetError would read like a broken --set file; the tree's own error
    # names the protocol and the leaf
    doc = tree_to_json(builtin_protocol("s3_activation"))
    doc["outcomes"][0]["child"]["outcomes"][0]["child"] = {"set": "garbage"}
    with pytest.raises(ValueError) as exc:
        tree_from_json(doc)
    assert not isinstance(exc.value, QsetError)
    assert str(exc.value) == (
        "malformed protocol at root/0/0: 'set' is not qset text: E_SYNTAX at line 1, col 1: expected header 'qset v1' near 'garbage'"
    )


def test_exact_rule_nodes_are_never_certified(monkeypatch):
    """The activation search closes a node by the exact C2 x Cn rule before
    it asks for a certificate. A set that rule closes is locally
    distinguishable, so asking anyway must find no certificate: checked on
    every node of both s2/s4 profiles, of both searches on the other
    fixtures, and of both searches on s1_general d = 4, 6, 8 at depth 2d."""
    made = []

    class Recorded(SetAnalyzer):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(partitions, "SetAnalyzer", Recorded)
    for name in ("s2", "s4"):
        hidden_nonlocality_profile(build_fixture(name), max_depth=8)
    runs = [(build_fixture(name), 8) for name in ("s1", "s3", "s5", "s6", "tiles33")]
    runs += [(build_fixture("s1_general", d=d), 2 * d) for d in (4, 6, 8)]
    for s, depth in runs:
        for search in (search_distinguishing_protocol, activation_search):
            search(s, max_depth=depth, analyzer=Recorded())
    exact = [nd for an in made for nd in an.nodes.values() if len(nd.set) >= 2 and nd.exact_nonactivable]
    assert len(exact) > 100
    assert [nd.set.labels for nd in exact if nd.cert is not None] == []
