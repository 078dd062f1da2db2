"""Lazy move expansion against the eager engine it replaced.

`EagerSetAnalyzer` (in `_helpers`) applies and interns every outcome of
every move when it expands a node, so a key's node keeps its first producer
in eager order, and it lists the activation transcript in insertion order.
`SetAnalyzer` keys a child only when the search visits it, and a key's node
keeps the first set the search reached. What is promised against the eager
engine: the same verdicts, params, notes, leaf evidence and tree shapes,
amplitudes within 1e-12, the same transcript entries, and the same bytes
wherever the two engines reach each node first through the same set in the
same order (every case but those in `DIFFERS`)."""

import json

import numpy as np
import pytest

from _helpers import EagerSetAnalyzer, candidates_match_reference, recorded_candidates, reference_eager_candidates
from qlocc import partitions
from qlocc.certify import Leaf, Measure, canonical_key
from qlocc.fixtures import build_fixture
from qlocc.partitions import _analyze_partition, _merge_for, hidden_nonlocality_profile
from qlocc.protocol import SetAnalyzer, activation_search, search_distinguishing_protocol
from qlocc.states import StateSet

# case -> (fixture, d, search depth)
CASES = {name: (name, None, 8) for name in ("s1", "s2", "s3", "s4", "s5", "s6", "tiles33")}
CASES |= {f"s1_general-d{d}": ("s1_general", d, 2 * d) for d in (4, 6)}
# s1 without its first state: the activation search visits its nodes in
# an order other than eager interning order; s3 without its first state: a
# node's first producer in eager order is a child the search never visits
CASES["s1-minus-first"] = ("s1", None, 8)
CASES["s3-minus-first"] = ("s3", None, 8)
SEARCHES = {"dist": search_distinguishing_protocol, "act": activation_search}
# the memo slots a visit fills
SLOTS = ("dist", "act", "dist_status")
# (case, search) -> why its certificate bytes differ from the eager engine's
DIFFERS = {
    ("s2", "dist"): "39 Kraus floats, by at most 1.7e-15: a node keeps the first set the search reached, "
    "which differs in the last bits from the eager engine's first producer, and terminal resolutions read it",
    ("s4", "act"): "4 reached-set leaves, by at most 3.6e-16: a leaf prints the first set the search reached, "
    "which differs in the last bits from the eager engine's first producer",
    ("s1-minus-first", "act"): "transcript order: the search first reaches its nodes in an order other than eager interning",
    ("s3-minus-first", "act"): "transcript order: the search first reaches its nodes in an order other than eager interning",
}
AMPLITUDE_TOL = 1e-12


def _lines(payload) -> list[str]:
    """JSON bytes of `payload`, split into short lines so that a mismatch
    reports where it is."""
    return json.dumps(payload, indent=0).splitlines()


def _case(case: str):
    name, d, depth = CASES[case]
    s = build_fixture(name, d=d)
    if case.endswith("-minus-first"):
        s = StateSet.from_matrix(s.space, s.matrix()[1:], s.labels[1:], s.name)
    return s, depth


def _assert_sets_close(a: StateSet, b: StateSet, where: str):
    assert a.space.party_dims == b.space.party_dims and a.labels == b.labels, where
    assert np.abs(a.matrix() - b.matrix()).max(initial=0.0) <= AMPLITUDE_TOL, where


def _assert_trees_match(a, b, path="root"):
    """The same shape (parties, outcome labels, identified labels, reached-set
    labels), with Kraus operators and reached sets within AMPLITUDE_TOL."""
    assert type(a) is type(b), path
    if isinstance(a, Leaf):
        assert a.identified == b.identified, path
        assert (a.reached is None) == (b.reached is None), path
        if a.reached is not None:
            _assert_sets_close(a.reached, b.reached, path)
    elif isinstance(a, Measure):
        assert a.party == b.party and a.measurement.labels == b.measurement.labels, path
        for lab, ka, kb, ca, cb in zip(a.measurement.labels, a.measurement.kraus, b.measurement.kraus, a.children, b.children):
            assert np.abs(ka - kb).max() <= AMPLITUDE_TOL, f"{path}/{lab}"
            _assert_trees_match(ca, cb, f"{path}/{lab}")


def _assert_certificates_match(lazy, eager, declared: bool):
    for field in ("kind", "class_note", "params", "notes", "verified", "leaf_evidence"):
        assert getattr(lazy, field) == getattr(eager, field), field
    _assert_trees_match(lazy.tree, eager.tree)
    entries = sorted(json.dumps(e, sort_keys=True) for e in lazy.transcript)
    assert entries == sorted(json.dumps(e, sort_keys=True) for e in eager.transcript)
    # a declared case that matches again should leave DIFFERS
    assert (_lines(lazy.to_json()) != _lines(eager.to_json())) == declared


@pytest.mark.parametrize("search", SEARCHES)
@pytest.mark.parametrize("case", CASES)
def test_certificate_bytes_match_the_eager_engine(case, search):
    s, depth = _case(case)
    lazy = SEARCHES[search](s, depth, analyzer=SetAnalyzer())
    eager = SEARCHES[search](s, depth, analyzer=EagerSetAnalyzer())
    _assert_certificates_match(lazy, eager, (case, search) in DIFFERS)


def _assert_nodes_match_eager(lazy: SetAnalyzer, eager: EagerSetAnalyzer, bits: bool):
    """Every lazy node is an eager node holding the same labels and
    amplitudes within AMPLITUDE_TOL, bit for bit when `bits`. In a declared
    case the first set reached may differ from the eager engine's first
    producer in the last bits, also at nodes that no certificate prints
    (`s3-minus-first`: 261 of 1,184 nodes, by at most 2.1e-13)."""
    assert set(lazy.nodes) <= set(eager.nodes)
    for key, nd in lazy.nodes.items():
        a, b = nd.set, eager.nodes[key].set
        _assert_sets_close(a, b, key.hex())
        if bits:
            assert a.matrix().tobytes() == b.matrix().tobytes(), key.hex()


@pytest.mark.parametrize("case", CASES)
def test_shared_analyzer_matches_the_eager_engine(case):
    # both searches on one analyzer, as a partition record runs them: the
    # activation search may visit a node that an expansion of the
    # distinguishing search produced but never visited
    s, depth = _case(case)
    runs = {}
    for cls in (SetAnalyzer, EagerSetAnalyzer):
        an = cls()
        runs[cls] = [SEARCHES[k](s, depth, analyzer=an) for k in SEARCHES], an
    for search, lazy, eager in zip(SEARCHES, runs[SetAnalyzer][0], runs[EagerSetAnalyzer][0]):
        _assert_certificates_match(lazy, eager, (case, search) in DIFFERS)
    declared = any(c == case for c, _ in DIFFERS)
    _assert_nodes_match_eager(runs[SetAnalyzer][1], runs[EagerSetAnalyzer][1], bits=not declared)


class _RecordingAnalyzer(SetAnalyzer):
    """A `SetAnalyzer` that records the keys interned from outside the
    search, and each instance made."""

    made: list = []

    def __init__(self):
        super().__init__()
        self.external: set[bytes] = set()
        self.made.append(self)

    def intern(self, s):
        key = super().intern(s)
        self.external.add(key)
        return key


def _assert_only_visited_or_external(an: _RecordingAnalyzer, root: StateSet):
    # the search interns its children itself; from outside come only the
    # root and the leaves an activation certificate replays
    leaves = {k for k, nd in an.nodes.items() if nd.leaf_evidence}
    assert canonical_key(root) in an.external
    assert an.external - {canonical_key(root)} <= leaves
    lazy = [k for k, nd in an.nodes.items() if k not in an.external and not any(slot in nd.slots for slot in SLOTS)]
    assert lazy == []


def test_transcript_follows_the_order_nodes_were_first_reached():
    s, depth = _case("s1-minus-first")
    an = SetAnalyzer()
    cert = activation_search(s, depth, analyzer=an)
    assert cert.kind == "NonActivabilityInClass"
    reached = [nd.set.labels for nd in an.nodes.values() if "act" in nd.slots]
    assert [e["labels"] for e in cert.transcript] == reached
    # the eager engine lists the same entries (see DIFFERS) in its own
    # interning order
    eager = activation_search(s, depth, analyzer=EagerSetAnalyzer())
    assert [e["labels"] for e in eager.transcript] != reached


def test_transcript_outlives_status_searches_that_add_nodes():
    # at depth 5 the transcript's status searches intern new nodes; the
    # eager engine iterated `nodes` while they did
    s, _ = _case("s3-minus-first")
    eager = EagerSetAnalyzer()
    search_distinguishing_protocol(s, 5, analyzer=eager)
    with pytest.raises(RuntimeError, match="dictionary changed size"):
        activation_search(s, 5, analyzer=eager)
    an = SetAnalyzer()
    search_distinguishing_protocol(s, 5, analyzer=an)
    cert = activation_search(s, 5, analyzer=an)
    assert cert.kind == "Incomplete"
    act = [nd for nd in an.nodes.values() if "act" in nd.slots]
    assert [e["labels"] for e in cert.transcript] == [nd.set.labels for nd in act]


def test_s1_activation_interns_only_visited_children():
    an = _RecordingAnalyzer()
    s1 = build_fixture("s1")
    cert = activation_search(s1, 8, analyzer=an)
    assert cert.kind == "NonActivabilityInClass"
    assert len(an.nodes) > 1 and an.external == {canonical_key(s1)}
    _assert_only_visited_or_external(an, s1)


def test_s4_bipartition_interns_only_visited_children(monkeypatch):
    monkeypatch.setattr(partitions, "SetAnalyzer", _RecordingAnalyzer)
    monkeypatch.setattr(_RecordingAnalyzer, "made", [])
    blocks = ((0,), (1, 2))
    merged = _merge_for(build_fixture("s4"), blocks)
    rec = _analyze_partition(merged, 8, blocks)
    assert rec.partition == "A|BC" and rec.activable is True
    (an,) = _RecordingAnalyzer.made
    _assert_only_visited_or_external(an, merged)
    # the searches stopped at moves that worked, so most children stay unkeyed
    moves = [mv for nd in an.nodes.values() for mv in nd.moves or ()]
    unkeyed = sum(1 for mv in moves for ck, kept in zip(mv.keys, mv.kept) if kept and ck is None)
    assert unkeyed > len(an.nodes)


def test_child_key_refuses_a_mask_that_applying_contradicts():
    # move ordering reads masks from part weights; a visited child whose
    # survivors differ from them stops the search
    an = SetAnalyzer()
    key = an.intern(build_fixture("s1"))
    mv = next(mv for mv in an.moves(key) if all(mv.kept))
    mask = mv.mask.copy()
    mask[0, np.flatnonzero(mask[0])[0]] = False
    tampered = mv._replace(mask=mask)
    with pytest.raises(RuntimeError, match="survivor mask of outcome P.* keeps .*, but applying it keeps"):
        an.child_key(key, tampered, 0)
    assert mv.keys[0] is None
    # the candidate's own masks are untouched, and the true mask passes
    assert mv.mask is not mask and mv.mask[0].sum() == mv.kept[0]
    assert an.child_key(key, mv, 0) == mv.keys[0] is not None


@pytest.mark.parametrize("run", ["s2-profile", "s4-profile", "s1_general-d4", "s1_general-d6", "s1_general-d8"])
def test_first_read_kraus_pairs_match_the_eager_chunk_build(run):
    # every candidate of every expanded node, in order, with its labels,
    # survivor masks and Kraus bits: those the search applied were built when
    # it first read them, the others are built here. The reference keys
    # every union, and `measurement_candidates` only those where two
    # families meet
    with recorded_candidates() as calls:
        if run.endswith("-profile"):
            hidden_nonlocality_profile(build_fixture(run.removesuffix("-profile")), max_depth=8)
        else:
            d = int(run.removeprefix("s1_general-d"))
            s, an = build_fixture("s1_general", d=d), SetAnalyzer()
            search_distinguishing_protocol(s, 2 * d, analyzer=an)
            activation_search(s, 2 * d, analyzer=an)
    assert calls and sum(len(got) for *_, got in calls) > 0
    if run == "s4-profile":  # the B|AC root: 2,047 unions of one family on the 12-dim party
        assert any(len(got) == 2047 and s.space.party_dims[party] == 12 for s, party, _, got in calls)
    for s, party, sp, got in calls:
        ref = reference_eager_candidates(s, party, sp)
        assert candidates_match_reference(list(got), [m for m, _ in ref]), (s.labels, party)
        assert np.array_equal(got.masks, np.array([mask for _, mask in ref], dtype=bool).reshape(got.masks.shape)), (s.labels, party)


def test_search_builds_only_the_candidates_it_reads():
    # move ordering reads masks and labels; a candidate's Kraus operators are
    # built when the search applies one of its outcomes, and only then
    merged = _merge_for(build_fixture("s4"), ((0,), (1, 2)))
    an = SetAnalyzer()
    search_distinguishing_protocol(merged, 8, analyzer=an)
    assert activation_search(merged, 8, analyzer=an).kind == "Activation"
    moves = [mv for nd in an.nodes.values() for mv in nd.moves or ()]
    built = [mv.candidates._built[mv.index] is not None for mv in moves]
    assert built == [any(ck is not None for ck in mv.keys) for mv in moves]
    assert 0 < 10 * sum(built) < len(moves)
    assert all(mv.measurement.labels[0] == mv.candidates.label(mv.index) for mv, b in zip(moves, built) if b)
    # a built candidate is kept: a second read returns the same object
    mv = moves[built.index(True)]
    assert mv.candidates[mv.index] is mv.measurement
