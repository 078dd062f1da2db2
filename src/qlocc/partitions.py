"""Hidden-nonlocality profiling across partitions.

For an N-party set the scanner analyzes the finest partition and every
2-block partition (via party merging). Bipartitions with a 2-dimensional
party holding only product states are settled by the exact qubit-times-n
rule; everything else goes through the protocol search, whose negative
verdicts are class-relative and tagged IN-CLASS.

Flags H_k report whether at least k parties must come together before the
set becomes activable (k = 1 means all parties separated).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from itertools import combinations

from .protocol import Certificate, SetAnalyzer, activation_search, search_distinguishing_protocol
from .states import StateSet, local_factors, merge_parties, party_letter


@dataclass
class RuleVerdict:
    applicable: bool
    distinguishable: bool | None = None
    activable: bool | None = None
    reason: str = ""


def qubit_times_n_rule(s: StateSet) -> RuleVerdict:
    """Exact rule for bipartite product sets with a 2-dimensional party.

    Such sets are always locally distinguishable, and since LOCC cannot
    create entanglement and OPLM images stay product in C2 x Cn, no
    orthogonality-preserving protocol can ever reach a locally
    indistinguishable set.
    """
    if s.space.n_parties != 2:
        return RuleVerdict(False, reason="not bipartite")
    if min(s.space.party_dims) != 2:
        return RuleVerdict(False, reason="no 2-dimensional party")
    if not local_factors(s, 0)[1].all():
        return RuleVerdict(False, reason="set contains an entangled state across the cut")
    return RuleVerdict(True, distinguishable=True, activable=False, reason="C2xCn product set")


@dataclass
class PartitionRecord:
    partition: str
    distinguishable: bool | None
    activable: bool | None
    basis: str  # EXACT | IN-CLASS | INCOMPLETE
    rule: str  # qubit_times_n | search | bipartition-dominance
    evidence: dict = field(default_factory=dict)
    first_round_space_dims: dict = field(default_factory=dict)


@dataclass
class PartitionProfile:
    set_name: str
    n_parties: int
    records: list[PartitionRecord]
    h_flags: dict[int, dict]

    def record(self, partition: str) -> PartitionRecord:
        for r in self.records:
            if r.partition == partition:
                return r
        raise KeyError(partition)

    def to_json(self):
        return {
            "set": self.set_name,
            "n_parties": self.n_parties,
            "partitions": [asdict(r) for r in self.records],
            "h_flags": {
                str(k): v for k, v in self.h_flags.items()
            },
        }


def _partition_label(blocks) -> str:
    return "|".join("".join(party_letter(i) for i in sorted(b)) for b in blocks)


def _two_block_partitions(n: int):
    parties = list(range(n))
    out = []
    for r in range(1, n // 2 + 1):
        for left in combinations(parties, r):
            right = tuple(q for q in parties if q not in left)
            if r * 2 == n and left > right:
                continue  # even halves: each split would otherwise appear twice
            out.append((tuple(left), right))
    return out


def _merge_for(s: StateSet, blocks):
    order = [i for b in blocks for i in sorted(b)]
    return merge_parties(s, [tuple(sorted(b)) for b in blocks], reorder=order)


def _cert_evidence(cert: Certificate) -> dict:
    ev = {"kind": cert.kind, "params": cert.params, "verified": cert.verified}
    if cert.kind == "Activation":
        ev["leaves"] = cert.leaf_evidence
    if cert.notes:
        ev["notes"] = cert.notes
    return ev


def _analyze_partition(merged: StateSet, max_depth: int, blocks) -> PartitionRecord:
    """Record for the partition `blocks`, analyzed on `merged` (one party per block)."""
    label = _partition_label(blocks)
    rule = qubit_times_n_rule(merged)
    if rule.applicable:
        return PartitionRecord(label, rule.distinguishable, rule.activable, "EXACT", "qubit_times_n", {"reason": rule.reason})
    an = SetAnalyzer()
    dist_cert = search_distinguishing_protocol(merged, max_depth, analyzer=an)
    act_cert = activation_search(merged, max_depth, analyzer=an)
    key = an.intern(merged)
    dims = {party_letter(p): d for p, d in enumerate(an.nodes[key].space_dims)}
    if act_cert.kind == "Activation":
        activable, basis = True, "EXACT"
    elif act_cert.kind == "NonActivabilityInClass":
        activable, basis = False, "IN-CLASS"
    elif act_cert.kind == "Indistinguishability":
        activable, basis = None, "IN-CLASS"
    else:
        activable, basis = None, "INCOMPLETE"
    dist = True if dist_cert.kind == "Distinguishability" else (False if dist_cert.kind == "Exhaustion" else None)
    return PartitionRecord(
        label,
        dist,
        activable,
        basis,
        "search",
        {"distinguishability": _cert_evidence(dist_cert), "activation": _cert_evidence(act_cert)},
        dims,
    )


def hidden_nonlocality_profile(s: StateSet, max_depth: int = 8) -> PartitionProfile:
    """Scan the finest partition and all bipartitions; derive H_k flags.
    A set of one party has no bipartition and is refused (ValueError)."""
    n = s.space.n_parties
    if n < 2:
        raise ValueError("a profile needs at least two parties")
    records: list[PartitionRecord] = []

    if n == 2:
        rec = _analyze_partition(s, max_depth, ((0,), (1,)))
        flags = {1: _flag(rec.activable, rec.basis, f"root analysis of {rec.partition}")}
        return PartitionProfile(s.name, n, [rec], flags)

    bi_records = [_analyze_partition(_merge_for(s, blocks), max_depth, blocks) for blocks in _two_block_partitions(n)]

    some_bipartition_activable = any(r.activable is True for r in bi_records)
    all_bipartitions_nonactivable = all(r.activable is False for r in bi_records)

    finest_blocks = tuple((p,) for p in range(n))
    finest_label = _partition_label(finest_blocks)
    if all_bipartitions_nonactivable:
        # merging only strengthens the parties, so the finest partition
        # cannot activate if no bipartition does
        basis = "EXACT" if all(r.basis == "EXACT" for r in bi_records) else "IN-CLASS"
        an = SetAnalyzer()
        dist_cert = search_distinguishing_protocol(s, max_depth, analyzer=an)
        finest = PartitionRecord(
            finest_label,
            True if dist_cert.kind == "Distinguishability" else None,
            False,
            basis,
            "bipartition-dominance",
            {"reason": "all bipartitions non-activable", "distinguishability": _cert_evidence(dist_cert)},
        )
    else:
        finest = _analyze_partition(s, max_depth, finest_blocks)
    records.append(finest)
    records.extend(bi_records)

    if finest.activable is True and not some_bipartition_activable:
        raise AssertionError("finest partition activable but no bipartition is; merging cannot weaken the parties")

    flags: dict[int, dict] = {}
    flags[1] = _flag(finest.activable, finest.basis, f"finest partition {finest_label}")
    # k >= 2 semantics ("at least k parties together") is derived only for
    # the tripartite case; for larger N the per-partition records stand alone
    if n == 3:
        if finest.activable is True:
            h2 = False
            basis2 = finest.basis
            why = "activable with all parties separated already (k_min = 1)"
        elif some_bipartition_activable:
            h2 = True
            basis2 = "EXACT" if finest.basis == "EXACT" else "IN-CLASS"
            acts = [r.partition for r in bi_records if r.activable is True]
            why = f"activable when two parties merge ({', '.join(acts)}) but not when all are separated"
        elif all_bipartitions_nonactivable:
            h2 = False
            basis2 = "EXACT" if all(r.basis == "EXACT" for r in bi_records) else "IN-CLASS"
            why = "no bipartition is activable"
        else:
            h2 = None
            basis2 = "INCOMPLETE"
            why = "some bipartition verdict incomplete"
        flags[2] = {"value": _hvalue(h2), "basis": basis2, "evidence": why}
    return PartitionProfile(s.name, n, records, flags)


def _hvalue(flag: bool | None) -> str:
    if flag is None:
        return "unknown"
    return "nonzero" if flag else "zero"


def _flag(activable: bool | None, basis: str, where: str) -> dict:
    return {"value": _hvalue(activable), "basis": basis, "evidence": where}
