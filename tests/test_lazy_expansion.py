"""Lazy move expansion against the eager engine it replaced.

`EagerSetAnalyzer` (in `_helpers`) applies and interns every outcome of
every move when it expands a node, and lists the activation transcript in
insertion order. `SetAnalyzer` keys a child only when the search visits it
(or forces it to find a key's first producer); every certificate, profile
and transcript must keep its bytes."""

import json

import pytest

from _helpers import EagerSetAnalyzer
from qlocc import partitions
from qlocc.fixtures import build_fixture
from qlocc.partitions import _analyze_partition, _merge_for
from qlocc.protocol import SetAnalyzer, activation_search, search_distinguishing_protocol
from qlocc.states import StateSet

# case -> (fixture, d, search depth)
CASES = {name: (name, None, 8) for name in ("s1", "s2", "s3", "s4", "s5", "s6", "tiles33")}
CASES |= {f"s1_general-d{d}": ("s1_general", d, 2 * d) for d in (4, 6)}
# s1 without its first state: the activation search visits its nodes in
# an order other than eager interning order, so the transcript must sort;
# s3 without its first state: a node's first producer in eager order is a
# child forced while admitting an earlier node, so forced sets are kept
CASES["s1-minus-first"] = ("s1", None, 8)
CASES["s3-minus-first"] = ("s3", None, 8)
SEARCHES = {"dist": search_distinguishing_protocol, "act": activation_search}
# the memo slots a visit fills
SLOTS = ("dist", "act", "dist_status")


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


@pytest.mark.parametrize("search", SEARCHES)
@pytest.mark.parametrize("case", CASES)
def test_certificate_bytes_match_the_eager_engine(case, search):
    s, depth = _case(case)
    lazy = SEARCHES[search](s, depth, analyzer=SetAnalyzer())
    eager = SEARCHES[search](s, depth, analyzer=EagerSetAnalyzer())
    assert _lines(lazy.to_json()) == _lines(eager.to_json())


def _assert_nodes_match_eager(lazy: SetAnalyzer, eager: EagerSetAnalyzer):
    """Every lazy node is an eager node holding the same set bit for bit,
    and the lazy nodes sorted by eager position are in eager insertion
    order."""
    assert set(lazy.nodes) <= set(eager.nodes)
    for key, nd in lazy.nodes.items():
        a, b = nd["set"], eager.set_of(key)
        assert a.labels == b.labels and a.matrix().tobytes() == b.matrix().tobytes()
    by_position = sorted(lazy.nodes, key=lambda k: lazy.nodes[k]["position"])
    assert by_position == [k for k in eager.nodes if k in lazy.nodes]


@pytest.mark.parametrize("case", CASES)
def test_shared_analyzer_matches_the_eager_engine(case):
    # both searches on one analyzer, as a partition record runs them: the
    # activation search may visit a node that an expansion of the
    # distinguishing search produced but never visited
    s, depth = _case(case)
    runs = {}
    for cls in (SetAnalyzer, EagerSetAnalyzer):
        an = cls()
        certs = [SEARCHES[k](s, depth, analyzer=an).to_json() for k in ("dist", "act")]
        runs[cls] = _lines(certs), an
    assert runs[SetAnalyzer][0] == runs[EagerSetAnalyzer][0]
    _assert_nodes_match_eager(runs[SetAnalyzer][1], runs[EagerSetAnalyzer][1])


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


def _assert_only_visited_or_external(an: _RecordingAnalyzer):
    lazy = [k for k, nd in an.nodes.items() if k not in an.external and not any(slot in nd for slot in SLOTS)]
    assert lazy == []


def test_transcript_follows_eager_order_not_visit_order():
    s, depth = _case("s1-minus-first")
    an = SetAnalyzer()
    cert = activation_search(s, depth, analyzer=an)
    assert cert.kind == "NonActivabilityInClass"
    visited = [k for k, nd in an.nodes.items() if "act" in nd]
    eager = sorted(visited, key=lambda k: an.nodes[k]["position"])
    assert visited != eager
    assert [e["labels"] for e in cert.transcript] == [an.set_of(k).labels for k in eager]


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
    act = sorted((k for k, nd in an.nodes.items() if "act" in nd), key=lambda k: an.nodes[k]["position"])
    assert [e["labels"] for e in cert.transcript] == [an.set_of(k).labels for k in act]


def test_s1_activation_interns_only_visited_children():
    an = _RecordingAnalyzer()
    cert = activation_search(build_fixture("s1"), 8, analyzer=an)
    assert cert.kind == "NonActivabilityInClass"
    _assert_only_visited_or_external(an)


def test_s4_bipartition_interns_only_visited_children(monkeypatch):
    monkeypatch.setattr(partitions, "SetAnalyzer", _RecordingAnalyzer)
    monkeypatch.setattr(_RecordingAnalyzer, "made", [])
    blocks = ((0,), (1, 2))
    rec = _analyze_partition(_merge_for(build_fixture("s4"), blocks), 8, blocks)
    assert rec.partition == "A|BC" and rec.activable is True
    (an,) = _RecordingAnalyzer.made
    _assert_only_visited_or_external(an)
    # the searches stopped at moves that worked, so most children stay unkeyed
    moves = [mv for nd in an.nodes.values() for mv in nd.get("moves", ())]
    unkeyed = sum(1 for mv in moves for ck, labels in zip(mv.keys, mv.survivors) if labels and ck is None)
    assert unkeyed > len(an.nodes)


def test_child_key_refuses_a_mask_that_applying_contradicts():
    # move ordering reads masks from part weights; a visited child whose
    # survivors differ from them stops the search
    an = SetAnalyzer()
    key = an.intern(build_fixture("s1"))
    mv = next(mv for mv in an.moves(key) if all(mv.survivors))
    mv.survivors[0] = mv.survivors[0][1:]
    with pytest.raises(RuntimeError, match="survivor mask of outcome P.* keeps .*, but applying it keeps"):
        an.child_key(key, mv, 0)
    assert mv.keys[0] is None
