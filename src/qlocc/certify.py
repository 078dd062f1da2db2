"""The trust base: protocol trees, their JSON form, replay, and the checks
that certify a tree without the search that found it.

A protocol tree alternates Measure nodes (one party, a Kraus-form local
measurement, one child per outcome) with leaves that either identify a
state or mark a reached set. `verify_protocol` replays a tree and checks
perfect discrimination. `certify_activation_protocol` replays it and
certifies every leaf set locally indistinguishable (IRREDUCIBLE-EXACT or a
support-restricted UPB) and irredundant over whole parties. Neither
trusts the tree: each step is checked as it is replayed.

`apply_measurement` is the one application path, and `apply_outcome` the
one name both callers reach it by: replay passes every operator of a
Measure node in one call, and the search one operator at a time.

The search (`protocol.py`) imports this module, and this module never
imports the search, the partition profile, the CLI or the fixtures. To
trust a certificate, read this module, the OPLM solve and `index_split` of
`oplm.py`, `upb.check_unextendible`, `states.py` and `linalg.py`.
"""

from __future__ import annotations

import hashlib
from collections import ChainMap
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import KEY_DECIMALS, NOISE_TOL, SPAN_TOL
from .oplm import CLASS_NOTE, LocalMeasurement, index_split, oplm_space
from .qset import QsetError, parse_qset, serialize_qset
from .states import StateSet, fixed_phases, gram_check, local_factors, party_letter, party_rows, redundancy_check_whole_parties, support_basis, survivors
from .upb import check_unextendible

SEARCH_CLASS_NOTE = CLASS_NOTE + "; terminal single-party resolution onto distinct local supports"


# ---------------------------------------------------------------------------
# tree nodes


@dataclass
class Leaf:
    identified: str | None = None
    reached: StateSet | None = None


@dataclass
class Measure:
    party: int
    measurement: LocalMeasurement
    children: list


def _with_rest(party: int, d: int, kraus: list, labels: list[str], children: list) -> Measure:
    """A measurement of `party` (dimension d) with one child per operator of
    `kraus`, completed when rest = I - sum(kraus) is nonzero (an entry above
    NOISE_TOL) by a `rest` outcome that has no child."""
    rest = _rest(d, kraus)
    if np.abs(rest).max() > NOISE_TOL:
        kraus, labels, children = [*kraus, rest], [*labels, "rest"], [*children, None]
    return Measure(party, LocalMeasurement(party, kraus, labels), children)


def _rest(d: int, ops) -> np.ndarray:
    return np.eye(d, dtype=np.complex128) - sum(ops)


def matrix_json(m) -> list:
    """A complex matrix as nested [real, imag] pairs, row by row."""
    m = np.asarray(m, dtype=np.complex128)
    return np.stack([m.real, m.imag], -1).tolist()


def tree_to_json(node):
    if node is None:
        return None
    if isinstance(node, Leaf):
        if node.identified is not None:
            return {"identified": node.identified}
        return {"set": serialize_qset(node.reached) if node.reached is not None else None}
    return {
        "party": node.party,
        "outcomes": [
            {
                "kraus": matrix_json(k),
                "child": tree_to_json(c),
            }
            for k, c in zip(node.measurement.kraus, node.children)
        ],
    }


def tree_from_json(obj):
    """A protocol tree from its `tree_to_json` form. Raises ValueError
    naming the path of the first malformed node."""
    return _node_from_json(obj, "root")


def _kraus_from_json(entry) -> np.ndarray | None:
    """The complex matrix of an outcome's `kraus` entry when that is a
    nonempty square matrix of [re, im] pairs of finite numbers, else None.

    One `np.asarray` reads the whole entry; its dtype tells the leaf types,
    so a string is refused, not parsed. A bool counts as 0 or 1 and an
    integer too wide for 64 bits as the nearest float, both as `complex`
    takes them.
    """
    try:
        a = np.asarray(entry)
    except (TypeError, ValueError):  # ragged
        return None
    if a.dtype == object and all(type(v) in (bool, int, float) for v in a.flat):
        a = a.astype(np.float64)
    if a.dtype.kind not in "biuf" or a.ndim != 3 or a.shape[2] != 2 or a.shape[0] != a.shape[1] or not a.size:
        return None
    a = a.astype(np.float64)
    return a.view(np.complex128)[..., 0] if np.isfinite(a).all() else None


def _node_from_json(obj, path: str):
    def malformed(what: str) -> ValueError:
        return ValueError(f"malformed protocol at {path}: {what}")

    if obj is None:
        return None
    if not isinstance(obj, dict):
        raise malformed(f"a node must be an object or null, not {type(obj).__name__}")
    if "identified" in obj:
        if not isinstance(obj["identified"], str):
            raise malformed("'identified' must be a state label")
        return Leaf(identified=obj["identified"])
    if "set" in obj:
        if not isinstance(obj["set"], (str, type(None))):
            raise malformed("'set' must be qset text or null")
        try:
            return Leaf(reached=parse_qset(obj["set"]) if obj["set"] else None)
        except QsetError as exc:
            raise malformed(f"'set' is not qset text: {exc}") from exc
    party, outcomes = obj.get("party"), obj.get("outcomes")
    if type(party) is not int or party < 0:
        raise malformed("'party' must be a party index")
    if not isinstance(outcomes, list) or not outcomes:
        raise malformed("'outcomes' must be a nonempty list")
    kraus = []
    children = []
    for i, out in enumerate(outcomes):
        if not isinstance(out, dict) or "kraus" not in out or "child" not in out:
            raise malformed(f"outcome {i} must be an object with 'kraus' and 'child'")
        k = _kraus_from_json(out["kraus"])
        if k is None:
            raise malformed(f"outcome {i}: 'kraus' must be a square matrix of [re, im] pairs")
        if kraus and k.shape != kraus[0].shape:
            raise malformed(f"outcome {i}: 'kraus' shape {k.shape} differs from outcome 0's {kraus[0].shape}")
        kraus.append(k)
        children.append(_node_from_json(out["child"], f"{path}/{i}"))
    m = LocalMeasurement(party, kraus, [f"M{i}" for i in range(len(kraus))])
    return Measure(party, m, children)


# ---------------------------------------------------------------------------
# applying measurements


def apply_measurement(s: StateSet, party: int, kraus) -> list:
    """Apply every operator of a stack `kraus` (k, d, d) of `party` at once:
    project every state, drop the eliminated ones, renormalize survivors.

    One `states.survivors` call gives every outcome's post-measurement
    states and survivor mask, and one `party_rows` the amplitude rows of
    all kept states. Returns, per operator, (surviving StateSet, list of
    surviving original labels), or the ValueError that outcome raises: a
    survivor whose norm overflows or vanishes (`StateSet.from_matrix`, which
    copies and normalizes each child's rows on its own), or survivors no
    longer pairwise orthogonal at SPAN_TOL (not an OPLM outcome). An error
    belongs to its outcome alone; each child is checked, none trusted.
    """
    post, keep = survivors(s, party, kraus)
    rows = party_rows(s.space, party, post[keep])
    labels = s.labels
    out = []
    end = 0
    for mask in keep.tolist():
        kept = [lab for lab, k in zip(labels, mask) if k]
        start, end = end, end + len(kept)
        try:
            child = StateSet.from_matrix(s.space, rows[start:end], kept, s.name)
            if len(child) > 1:
                rep = gram_check(child, tol=SPAN_TOL)
                if not rep.ok:
                    a, b, v = rep.violations[0]
                    raise ValueError(f"outcome breaks orthogonality: |<{a}|{b}>| = {v:.3g}")
        except ValueError as exc:
            out.append(exc)
        else:
            out.append((child, kept))
    return out


def apply_outcome(s: StateSet, party: int, kraus):
    """`apply_measurement` reached by one name from the search and replay.

    One operator `kraus` (d, d), as the search applies them: returns
    (surviving StateSet, list of surviving original labels), or raises that
    outcome's ValueError. A stack (k, d, d), as replay applies a Measure
    node: returns `apply_measurement`'s list, one result or error per
    operator, so one outcome's error does not hide its siblings'. The
    calls a profile of this name sees are thus all outcome application.
    """
    kraus = np.asarray(kraus, dtype=np.complex128)
    if kraus.ndim == 3:
        return apply_measurement(s, party, kraus)
    (result,) = apply_measurement(s, party, kraus[None])
    if isinstance(result, ValueError):
        raise result
    return result


# ---------------------------------------------------------------------------
# verification (discrimination semantics)


@dataclass
class VerifyReport:
    passed: bool
    verdict: str
    failures: list[str]
    identified: dict[str, str]


def _replay(node, cur: StateSet, failures: list[str], path: str = "root"):
    """Replay a tree from `cur`; yield (path, reached set, leaf) per reachable leaf.

    Each Measure node applies all its outcomes in one `apply_outcome` call
    on the stack of its operators, then walks them in order. Faults of the
    tree itself are appended to `failures` as the walk meets them, never
    raised: a reachable branch without a child, a party the set does not
    have, Kraus operators not of that party's size, an incomplete
    measurement, a child count that differs from the outcome count, and an
    outcome whose survivors cannot be normalized or break orthogonality
    (that outcome's failure alone; its siblings still replay). Branches no
    state reaches are skipped.
    """
    if len(cur) == 0:
        return
    if node is None:
        failures.append(f"{path}: reachable branch has no child ({len(cur)} states)")
        return
    if isinstance(node, Leaf):
        yield path, cur, node
        return
    if not 0 <= node.party < cur.space.n_parties:
        failures.append(f"{path}: measures party {node.party} of a {cur.space.n_parties}-party set")
        return
    m, d = node.measurement, cur.space.party_dims[node.party]
    bad = [k.shape for k in m.kraus if k.shape != (d, d)]
    if bad:
        failures.append(f"{path}: kraus is {bad[0][0]}x{bad[0][1]}, party {party_letter(node.party)} has dimension {d}")
        return
    # written so that a NaN residual (inf - inf in an overflowing product) fails
    if not m.completeness_residual() <= SPAN_TOL:
        failures.append(f"{path}: measurement completeness violated")
    if len(node.children) != len(m.kraus):
        failures.append(f"{path}: {len(node.children)} children for {len(m.kraus)} outcomes")
        return
    for idx, applied in enumerate(apply_outcome(cur, node.party, m.kraus)):
        if isinstance(applied, ValueError):
            failures.append(f"{path}/{idx}: {applied}")
            continue
        yield from _replay(node.children[idx], applied[0], failures, f"{path}/{idx}")


def verify_protocol(s: StateSet, tree) -> VerifyReport:
    """Replay a tree and check perfect discrimination.

    PASS iff every replay step is a complete measurement that preserves
    orthogonality, every reachable leaf identifies exactly its single
    surviving state, and every input state is identified somewhere.
    """
    failures: list[str] = []
    identified: dict[str, str] = {}
    for path, cur, node in _replay(tree, s, failures):
        if node.identified is None:
            failures.append(f"{path}: leaf identifies nothing but {len(cur)} state(s) reach it")
        elif len(cur) != 1:
            failures.append(f"{path}: leaf holds {len(cur)} states")
        elif cur.labels[0] != node.identified:
            failures.append(f"{path}: leaf claims {node.identified!r}, reached by {cur.labels[0]!r}")
        else:
            identified[node.identified] = path
    missing = [lab for lab in s.labels if lab not in identified]
    if missing:
        failures.append("states never identified: " + ", ".join(missing))
    passed = not failures
    return VerifyReport(passed, "PASS-DISCRIMINATION" if passed else "FAIL", failures, identified)


# ---------------------------------------------------------------------------
# certificates


@dataclass
class Certificate:
    # Distinguishability | Activation | ProtocolFailure | NonActivabilityInClass | Indistinguishability | Exhaustion | Incomplete
    kind: str
    class_note: str
    params: dict
    tree: object | None = None
    leaf_evidence: list = field(default_factory=list)
    transcript: list = field(default_factory=list)
    verified: bool = False
    notes: str = ""

    def to_json(self):
        return {
            "kind": self.kind,
            "class_note": self.class_note,
            "params": self.params,
            "tree": tree_to_json(self.tree),
            "leaf_evidence": self.leaf_evidence,
            "transcript": self.transcript,
            "verified": self.verified,
            "notes": self.notes,
        }


# ---------------------------------------------------------------------------
# canonical keys for reached-set deduplication


def canonical_key(s: StateSet) -> bytes:
    """Interning key: the sha256 digest of the party dims and one item per
    state, sorted.

    Each row gets its phase fixed by `fixed_phases` and is rounded to
    KEY_DECIMALS decimals; its item is the row's bytes followed by its
    label, so sets that differ only in labels get different keys. The memo
    keeps the digest, not the items, which are as large as the amplitude
    matrix itself.
    """
    m = fixed_phases(s.matrix())
    buf = (np.round(m, KEY_DECIMALS) + 0.0).tobytes()
    width = m.shape[1] * m.itemsize
    items = []
    for i, lab in enumerate(s.labels):
        b = lab.encode()
        items.append(buf[i * width : (i + 1) * width] + len(b).to_bytes(4, "little") + b)
    return hashlib.sha256(repr(s.space.party_dims).encode() + b"|" + b"".join(sorted(items))).digest()


# ---------------------------------------------------------------------------
# what a certificate reads about one set


class SetFacts:
    """One set and the facts a certificate reads about it, each decided on
    first read and kept (`cached_property`)."""

    def __init__(self, s: StateSet):
        self.set = s
        self.spaces: dict = {}  # party -> its OPLM space on the support

    def oplm(self, party: int):
        if party not in self.spaces:
            self.spaces[party] = oplm_space(self.set, party, on_support=True)
        return self.spaces[party]

    @cached_property
    def support_dims(self) -> tuple[int, ...]:
        return tuple(support_basis(self.set, p)[0].shape[1] for p in range(self.set.space.n_parties))

    @cached_property
    def is_product(self) -> bool:
        return all(local_factors(self.set, p)[1].all() for p in range(self.set.space.n_parties))

    @cached_property
    def cert(self) -> dict | None:
        """IRREDUCIBLE-EXACT or support-restricted UPB evidence, else None.

        IRREDUCIBLE-EXACT needs a one-dimensional OPLM space at every party,
        and the first party that cannot have one ends the check. The solve-
        free `index_split` runs first, party by party over the parties not
        yet solved, and stops at the first where it fires; only when it
        fires nowhere are the parties solved, in order, up to the first
        whose dimension is not 1. The test fires only where the solve would
        give dimension >= 2, and a space is the same solve whenever
        something reads it, so no verdict or byte depends on which parties
        this check solved.

        A complete product basis of the support space is never certified
        this way: the UPB route requires a proper span.
        """
        s = self.set
        if len(s) < 2:
            return None
        parties = range(s.space.n_parties)
        split = any(p not in self.spaces and index_split(s, p) for p in parties)
        if not split and all(self.oplm(p).space_dim == 1 for p in parties):
            return {"kind": "IRREDUCIBLE-EXACT", "space_dims": {party_letter(p): 1 for p in parties}}
        if not self.is_product:
            return None
        full = int(np.prod(self.support_dims))
        lower = sum(r - 1 for r in self.support_dims) + 1
        if not lower <= len(s) < full:
            return None
        try:
            v = check_unextendible(s)
        except ValueError:
            return None
        return {"kind": "UPB", "support_note": v.support_note} if v.unextendible else None

    @cached_property
    def redundant(self) -> bool | None:
        """Whole-party redundancy of the set, or None when it is not
        orthogonal at ORTHO_TOL and so has no redundancy verdict: the search
        and replay keep survivors orthogonal only to SPAN_TOL. The search
        asks it of every certified leaf it reaches, and certifying the tree
        asks it again of each leaf the tree reaches."""
        try:
            return redundancy_check_whole_parties(self.set)
        except ValueError:
            return None


def certify_activation_protocol(s: StateSet, tree, known: Mapping[bytes, SetFacts] | None = None) -> Certificate:
    """Replay an activation tree and certify every reachable leaf set.

    Deterministic activation: every replay step must be a complete
    measurement that preserves orthogonality, and each leaf must hold >= 2
    states, be orthogonal at ORTHO_TOL and locally irredundant over whole
    parties, and be certified locally indistinguishable (IRREDUCIBLE-EXACT
    or support-restricted UPB).

    `known` maps `canonical_key` to facts already decided about a set (a
    search passes its nodes); it is only read. A leaf set not in it gets
    its facts decided here, once per key.
    """
    facts = ChainMap({}, known if known is not None else {})
    params = {"tolerance": SPAN_TOL}
    evidence = []
    failures: list[str] = []
    for path, cur, node in _replay(tree, s, failures):
        if node.identified is not None or len(cur) < 2:
            failures.append(f"{path}: not an activation leaf")
            continue
        key = canonical_key(cur)
        nd = facts.get(key)
        if nd is None:
            nd = facts[key] = SetFacts(cur)
        if nd.cert is None:
            failures.append(f"{path}: leaf set not certified locally indistinguishable")
        elif nd.redundant is None:
            failures.append(f"{path}: leaf set not orthogonal at ORTHO_TOL")
        elif nd.redundant:
            failures.append(f"{path}: leaf set is locally redundant")
        else:
            evidence.append(
                {
                    "path": path,
                    "n_states": len(cur),
                    "labels": cur.labels,
                    "support_dims": list(nd.support_dims),
                    "certificate": nd.cert,
                    "locally_irredundant": True,
                }
            )
        if node.reached is not None and canonical_key(node.reached) != key:
            failures.append(f"{path}: recorded leaf set does not replay")
    ok = not failures and bool(evidence)
    return Certificate(
        "Activation" if ok else "ProtocolFailure",
        SEARCH_CLASS_NOTE,
        params,
        tree=tree,
        leaf_evidence=evidence,
        verified=ok,
        notes="" if ok else "; ".join(failures),
    )
