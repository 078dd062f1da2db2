import json
import tracemalloc

import numpy as np
import pytest

from _helpers import DIGESTS, EagerSetAnalyzer, ReferenceCheck, digest, product_structure_mismatches, upb_outcome
from qlocc import partitions, protocol
from qlocc.fixtures import build_fixture
from qlocc.partitions import hidden_nonlocality_profile, qubit_times_n_rule
from qlocc.protocol import canonical_key
from qlocc.states import Ket, PartySpace, StateSet, make_ket, merge_parties, redundancy_check_whole_parties


def _checked_profile(name: str):
    """The depth-8 profile of a fixture, computed while every apply_outcome,
    canonical_key and measurement_candidates call is compared with its
    reference."""
    check = ReferenceCheck()
    with check.installed():
        prof = hidden_nonlocality_profile(build_fixture(name), max_depth=8)
    return prof, check


@pytest.fixture(scope="module")
def s2_run():
    return _checked_profile("s2")


@pytest.fixture(scope="module")
def s4_run():
    return _checked_profile("s4")


@pytest.fixture(scope="module")
def s2_profile(s2_run):
    return s2_run[0]


@pytest.fixture(scope="module")
def s4_profile(s4_run):
    return s4_run[0]


@pytest.mark.parametrize("name", ["s2", "s4"])
def test_profile_bytes_match_the_eager_engine(name, request, monkeypatch):
    lazy = request.getfixturevalue(f"{name}_profile")
    monkeypatch.setattr(partitions, "SetAnalyzer", EagerSetAnalyzer)
    eager = hidden_nonlocality_profile(build_fixture(name), max_depth=8)
    assert json.dumps(lazy.to_json()) == json.dumps(eager.to_json())


def test_rule_applies_to_s2_cuts():
    s2 = build_fixture("s2")
    b_ac = merge_parties(s2, [(1,), (0, 2)], reorder=[1, 0, 2])
    v = qubit_times_n_rule(b_ac)
    assert v.applicable and v.distinguishable and v.activable is False
    c_ab = merge_parties(s2, [(2,), (0, 1)], reorder=[2, 0, 1])
    assert qubit_times_n_rule(c_ab).applicable


def test_rule_applies_to_s4_ab_c():
    s4 = build_fixture("s4")
    merged = merge_parties(s4, [(0, 1), (2,)])
    assert merged.space.party_dims == (36, 2)
    v = qubit_times_n_rule(merged)
    assert v.applicable and v.activable is False


def test_rule_inapplicable_s1():
    assert not qubit_times_n_rule(build_fixture("s1")).applicable


def test_rule_never_fires_on_entangled_cut():
    s = PartySpace((2, 4))
    bell_ish = StateSet(
        s,
        [
            make_ket(s, [(1, (0, 0)), (1, (1, 1))], "e1"),
            make_ket(s, [(1, (0, 0)), (-1, (1, 1))], "e2"),
        ],
        "ent",
    )
    v = qubit_times_n_rule(bell_ish)
    assert not v.applicable
    assert "entangled" in v.reason


def test_rule_not_bipartite():
    assert not qubit_times_n_rule(build_fixture("s2")).applicable


def test_s2_profile(s2_profile):
    prof = s2_profile
    assert prof.h_flags[1]["value"] == "zero"
    assert prof.h_flags[2]["value"] == "zero"
    abc = prof.record("A|BC")
    assert abc.rule == "search"
    assert abc.activable is False and abc.basis == "IN-CLASS"
    assert abc.first_round_space_dims["A"] == 2
    for label in ("B|AC", "C|AB"):
        r = prof.record(label)
        assert r.rule == "qubit_times_n" and r.basis == "EXACT" and r.activable is False
    finest = prof.record("A|B|C")
    assert finest.rule == "bipartition-dominance"
    assert finest.activable is False
    assert finest.distinguishable is True


def test_s4_profile(s4_profile):
    prof = s4_profile
    cab = prof.record("C|AB")  # the AB|C cut, smaller block first
    assert cab.rule == "qubit_times_n" and cab.activable is False and cab.basis == "EXACT"
    abc = prof.record("A|BC")
    assert abc.activable is True
    assert abc.evidence["activation"]["kind"] == "Activation"
    bac = prof.record("B|AC")
    assert bac.activable is True


def test_s4_profile_bytes(s4_profile):
    assert digest(s4_profile.to_json()) == DIGESTS["profile-s4"]["s4"]


@pytest.mark.parametrize("run", ["s2_run", "s4_run"])
def test_profile_outcomes_and_keys_match_per_state_references(run, request):
    # every expanded node's candidate masks, read from part weights, are
    # compared with the survivors of each Kraus operator too
    _prof, check = request.getfixturevalue(run)
    assert check.outcomes > 0 and check.keys > 0 and check.candidate_calls > 0
    assert sum(n for n, _, _ in check.part_stacks) > 0
    assert check.mismatches == []


def test_s4_part_stack_is_bounded_at_its_largest_candidate_family(s4_run):
    # one A|BC node has 2,047 unions on a 12-dim party; its masks come from
    # one product per union family with at most d + 1 parts, not one per
    # Kraus operator
    _prof, check = s4_run
    n, k, d = max(check.part_stacks)
    assert (n, d) == (2047, 12) and 0 < k <= d + 1
    assert all(k <= d + 1 for _, k, d in check.part_stacks)


@pytest.mark.parametrize("run", ["s2_run", "s4_run"])
def test_profile_product_structure_matches_per_state_references(run, request):
    _prof, check = request.getfixturevalue(run)
    assert check.factor_sets
    mismatches = [m for s in check.factor_sets.values() for m in product_structure_mismatches(s)]
    assert mismatches == []


@pytest.mark.parametrize("run, completed", [("s2_run", 4), ("s4_run", 14)])
def test_profile_upb_inputs_match_unpruned_search(run, completed, request):
    # the other calls exceed the assignment cap in both searches; the exact
    # C2 x Cn rule closes three s2 nodes (3x2 and 2x3 supports, all
    # extendible) before their certificate, so they reach no UPB check
    _prof, check = request.getfixturevalue(run)
    assert sum(not isinstance(ref, ValueError) for _, _, ref in check.upb_calls) == completed
    assert all(upb_outcome(got) == upb_outcome(ref) for _, got, ref in check.upb_calls)


def test_upb_prune_bounds_s4_abc_node(s4_run):
    # the 20-state 6x12 nodes of the s4 A|BC search that the unpruned
    # search settles in 58,352 nodes each
    _prof, check = s4_run
    hard = [(got, ref) for s, got, ref in check.upb_calls if len(s) == 20 and s.space.party_dims == (6, 12) and ref.unextendible]
    assert max(ref.nodes_explored for _, ref in hard) == 58_352
    assert all(got.unextendible and got.nodes_explored <= 1_100 for got, _ in hard)


def test_s2_s4_profiles_differ(s2_profile, s4_profile):
    def bipartitions(prof):
        return {r["partition"]: r["activable"] for r in prof.to_json()["partitions"] if r["partition"].count("|") == 1}

    v2, v4 = bipartitions(s2_profile), bipartitions(s4_profile)
    assert set(v2) == set(v4) == {"A|BC", "B|AC", "C|AB"}
    assert v2["A|BC"] is False and v4["A|BC"] is True
    assert v2["B|AC"] is False and v4["B|AC"] is True
    assert v2["C|AB"] is False and v4["C|AB"] is False


def test_bipartite_profile_only_k1():
    prof = hidden_nonlocality_profile(build_fixture("s1"), max_depth=6)
    assert list(prof.h_flags) == [1]
    assert prof.h_flags[1]["value"] == "zero"
    assert len(prof.records) == 1


def test_one_party_profile_is_refused():
    # one party has no bipartition, so "all bipartitions non-activable"
    # would hold vacuously
    space = PartySpace((4,))
    s = StateSet(space, [make_ket(space, [(1, (i,))], f"v{i}") for i in (0, 1)], "one-party")
    with pytest.raises(ValueError, match="a profile needs at least two parties"):
        hidden_nonlocality_profile(s)


def test_profile_invariant_under_bc_swap(s2_profile):
    s2 = build_fixture("s2")
    # swap parties B and C (both qubits): profile content must be unchanged
    perm_states = []
    space = s2.space
    for k in s2:
        t = k.tensor().transpose(0, 2, 1).reshape(-1)
        perm_states.append(Ket(space, t, k.label))
    swapped = StateSet(space, perm_states, "s2-swapped")
    a = s2_profile
    b = hidden_nonlocality_profile(swapped, max_depth=8)
    assert {k: v["value"] for k, v in a.h_flags.items()} == {k: v["value"] for k, v in b.h_flags.items()}
    assert a.record("A|BC").activable == b.record("A|BC").activable
    assert a.record("B|AC").activable == b.record("C|AB").activable


def test_each_activation_leaf_is_checked_for_redundancy_once(monkeypatch):
    # the search checks a certified leaf, and certifying its tree asks again
    # of the same node: the node keeps the answer
    checked = []

    def recorded(s):
        checked.append(canonical_key(s))
        return redundancy_check_whole_parties(s)

    monkeypatch.setattr(protocol, "redundancy_check_whole_parties", recorded)
    for name in ("s4", "s2"):
        hidden_nonlocality_profile(build_fixture(name), max_depth=8)
    assert len(checked) == len(set(checked)) == 8


def test_s4_profile_traced_peak_is_bounded():
    # candidates build their Kraus operators on first read and dedupe on
    # digests: kept eagerly with full-byte keys, the operators and keys of
    # the 2,047 unions at the A|BC node alone take about 13.6 MB
    s4 = build_fixture("s4")
    tracemalloc.start()
    try:
        hidden_nonlocality_profile(s4, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20
