"""Protocol trees over state sets: application, verification, and search.

A protocol tree alternates Measure nodes (one party, a Kraus-form local
measurement, one child per outcome) with leaves that either identify a
state or mark a reached set. Search runs over the two-outcome projective
OPLM candidates of each party plus a terminal one-party resolution, with
reached sets deduplicated by a canonical amplitude key. Every proper
projective outcome strictly shrinks the measured party's local support, so
the reachable-set graph is finite and acyclic.

Negative verdicts are class-relative and say so; certificates replay.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .linalg import KEY_DECIMALS, NOISE_TOL, ORTHO_TOL, SPAN_TOL
from .oplm import (
    ATOM_CAP,
    CLASS_NOTE,
    Candidates,
    LocalMeasurement,
    measurement_candidates,
    oplm_space,
)
from .qset import serialize_qset
from .states import (
    StateSet,
    fixed_phases,
    gram_check,
    local_factors,
    local_vectors,
    party_letter,
    party_rows,
    redundancy_check_whole_parties,
    support_basis,
    survivors,
)
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
    from .qset import parse_qset

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
        return Leaf(reached=parse_qset(obj["set"]) if obj["set"] else None)
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


def apply_outcome(s: StateSet, party: int, kraus):
    """Project every state, drop the eliminated ones, renormalize survivors.

    Works on the amplitude matrix (see `states.survivors`). Returns (surviving
    StateSet, list of surviving original labels). Raises if the survivors
    are no longer pairwise orthogonal at SPAN_TOL (not an OPLM outcome).
    """
    post, keep = survivors(s, party, kraus)
    full = party_rows(s.space, party, post[keep])
    labels = [lab for lab, k in zip(s.labels, keep) if k]
    out = StateSet.from_matrix(s.space, full, labels, s.name)
    if len(out) > 1:
        rep = gram_check(out, tol=SPAN_TOL)
        if not rep.ok:
            a, b, v = rep.violations[0]
            raise ValueError(f"outcome breaks orthogonality: |<{a}|{b}>| = {v:.3g}")
    return out, labels


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

    Faults of the tree itself are appended to `failures` as the walk meets
    them, never raised: a reachable branch without a child, a party the set
    does not have, Kraus operators not of that party's size, an incomplete
    measurement, a child count that differs from the outcome count, and an
    outcome that breaks orthogonality. Branches no state reaches are skipped.
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
    if m.completeness_residual() > SPAN_TOL:
        failures.append(f"{path}: measurement completeness violated")
    if len(node.children) != len(m.kraus):
        failures.append(f"{path}: {len(node.children)} children for {len(m.kraus)} outcomes")
        return
    for idx, kraus in enumerate(m.kraus):
        try:
            child_set, _ = apply_outcome(cur, node.party, kraus)
        except ValueError as exc:
            failures.append(f"{path}/{idx}: {exc}")
            continue
        yield from _replay(node.children[idx], child_set, failures, f"{path}/{idx}")


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
# the memoized analysis graph


class _Node:
    """One reached set and what the analysis decided about it.

    The search writes its own state into named fields; each fact about the
    set itself is decided on first read and kept (`cached_property`).
    """

    def __init__(self, s: StateSet):
        self.set = s
        self.spaces: dict = {}  # party -> its OPLM space on the support
        self.slots: dict[str, tuple] = {}  # rule slot -> (status, tree, depth tried)
        self.moves: list | None = None
        # the rule slots that expanded this node, when ATOM_CAP bound at it
        self.capped_in: set[str] | None = None
        self.leaf_evidence: dict | None = None  # the certificate of an activation leaf

    def oplm(self, party: int):
        if party not in self.spaces:
            self.spaces[party] = oplm_space(self.set, party, on_support=True)
        return self.spaces[party]

    @cached_property
    def support_dims(self) -> tuple[int, ...]:
        return tuple(support_basis(self.set, p)[0].shape[1] for p in range(self.set.space.n_parties))

    @cached_property
    def space_dims(self) -> tuple[int, ...]:
        return tuple(self.oplm(p).space_dim for p in range(self.set.space.n_parties))

    @cached_property
    def is_product(self) -> bool:
        return all(local_factors(self.set, p)[1].all() for p in range(self.set.space.n_parties))

    @cached_property
    def exact_nonactivable(self) -> bool:
        """C2 x Cn product rule on local supports (plus degenerate cases).

        A product set whose effective structure is (<=2) x n is always
        locally distinguishable, and OPLM images stay in that class, so no
        descendant can become locally indistinguishable.
        """
        eff = [] if len(self.set) <= 1 else [r for r in self.support_dims if r >= 2]
        return len(eff) <= 1 or (len(eff) == 2 and min(eff) <= 2 and self.is_product)

    @cached_property
    def cert(self) -> dict | None:
        """IRREDUCIBLE-EXACT or support-restricted UPB evidence, else None.

        A complete product basis of the support space is never certified
        this way: the UPB route requires a proper span.
        """
        s = self.set
        if len(s) < 2:
            return None
        if all(d == 1 for d in self.space_dims):
            return {"kind": "IRREDUCIBLE-EXACT", "space_dims": {party_letter(p): d for p, d in enumerate(self.space_dims)}}
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

    @cached_property
    def terminal(self) -> Measure | None:
        """Terminal one-party resolution: a measurement of the first party
        whose local vectors are pairwise orthogonal, one projector per state."""
        s = self.set
        for p in range(s.space.n_parties):
            locs = local_vectors(s, p)
            if locs is None:
                continue
            g = locs.conj() @ locs.T
            off = np.abs(g - np.diag(np.diagonal(g)))
            if off.max(initial=0.0) > ORTHO_TOL:
                continue
            kraus = [np.outer(v, v.conj()) for v in locs]
            labels = [f"P[{lab}]" for lab in s.labels]
            return _with_rest(p, s.space.party_dims[p], kraus, labels, [Leaf(identified=lab) for lab in s.labels])
        return None


def _dist_terminal(nd: _Node):
    s = nd.set
    if len(s) <= 1:
        return True, Leaf(identified=s.labels[0]) if len(s) == 1 else Leaf()
    return (True, nd.terminal) if nd.terminal is not None else None


def _act_terminal(nd: _Node):
    # the exact rule reads support dims only; a set it closes is locally
    # distinguishable, so it is never certified indistinguishable
    if nd.exact_nonactivable:
        return False, None
    if nd.cert is not None and nd.redundant is False:
        nd.leaf_evidence = nd.cert
        return True, Leaf(reached=nd.set)
    return None


def _status_terminal(nd: _Node):
    if len(nd.set) <= 1 or nd.exact_nonactivable or nd.terminal is not None:
        return True, None
    return (False, None) if nd.cert is not None else None


class _Rule(NamedTuple):
    terminal: Callable  # (node) -> (status, tree) closing the node, or None
    # moves with the fewest eliminations first, each expanding every outcome;
    # else the most eliminations first, each stopping at its first failure
    exhaustive: bool


# keyed by the memo slot each row fills in `_Node.slots`
_RULES = {
    "dist": _Rule(_dist_terminal, False),
    # on failure keep expanding the remaining outcomes: the negative
    # verdict promises that every reachable set was analyzed
    "act": _Rule(_act_terminal, True),
    # its trees are evidence only: a child it closed without one is None
    "dist_status": _Rule(_status_terminal, False),
}


class _Move(NamedTuple):
    """One candidate measurement at a node: what move ordering reads, and
    the keys of the children visited so far. The survivors are the
    candidate's mask row (`Candidates.masks`); `child_key` applies an
    outcome on its first visit, which builds the candidate's Kraus
    operators, checks that it keeps exactly the labels of its mask, and
    stores its key."""

    candidates: Candidates
    index: int  # the candidate's index in `candidates`
    mask: np.ndarray  # (outcomes, states), bool: the states each outcome keeps
    kept: tuple  # per outcome, how many states it keeps (0 when it eliminates every state)
    keys: list  # per outcome, the child's key, None until the search first visits it

    @property
    def measurement(self) -> LocalMeasurement:
        """The candidate, its Kraus operators built on first read."""
        return self.candidates[self.index]


class SetAnalyzer:
    """Shared memo of reached sets and their analyses.

    One memoized AND-OR search, `search(slot, key, depth)`, serves three
    questions, each a row of `_RULES` keyed by its memo slot: a node is True
    if its terminal test closes it so, or if some candidate measurement
    sends every nonempty outcome to a True node. Each row has a named entry
    method that roots and children alike enter through, so a wrapper around
    the three sees every node the search visits (the traced benchmark
    counts their keys as `protocol.nodes_visited`).

    - "dist" (`distinguishable`): at most one state gets an identifying
      leaf, else terminal one-party resolution; moves with the most
      eliminations first; the discrimination tree.
    - "act" (`activation`): fewer than 2 states is False; a certified
      locally indistinguishable, whole-party irredundant set is a reached
      leaf; the C2 x Cn product rule is False; moves with the fewest
      eliminations first, each expanding every outcome; the activation tree.
    - "dist_status" (`distinguishable_status`): the C2 x Cn product rule or
      terminal resolution gives True, a certified locally indistinguishable
      set False; "dist" move order; read for its status only.

    Statuses are tri-state: True, False (conclusive for the searched
    class), or None (depth cap truncated the exploration). Conclusive
    results are final; truncated ones are retried when asked again with a
    larger budget.

    Reached sets are interned by `canonical_key` into `nodes` (key ->
    `_Node`), so two sets with the same amplitudes but different labels are
    two nodes. A key's node keeps the
    first set that reached it; sets with equal keys agree to KEY_DECIMALS
    decimals, and trees print reached sets in full. `nodes` is in the order
    the sets were first reached, and so is the activation transcript.

    Expanding a node keeps only what move ordering needs: each outcome's
    survivor mask and count. They come from the masks
    `measurement_candidates` returns, not from one product per Kraus
    operator: every candidate outcome is a sum of orthogonal parts
    (`Candidates`), so ||K psi||^2 is the sum of its parts' weights
    ||P_b psi||^2: equal in exact arithmetic, and within rounding far below
    ELIM_TOL in floating point. A child is applied, checked for
    orthogonality and interned only when the search first visits it
    (`child_key`), which raises if its survivors are not the labels of the
    mask move ordering read; so every node was either interned by `intern`
    or visited.
    """

    def __init__(self):
        self.nodes: dict[bytes, _Node] = {}

    def intern(self, s: StateSet) -> bytes:
        """Node key of `s`, a set given from outside the search (a root or a
        replayed leaf); the search reaches its children through `_reach`."""
        return self._reach(s)

    def _reach(self, s: StateSet) -> bytes:
        """The key of `s`; a new key becomes a node that keeps `s`."""
        key = canonical_key(s)
        if key not in self.nodes:
            self.nodes[key] = _Node(s)
        return key

    # -- moves ---------------------------------------------------------------

    def moves(self, key: bytes):
        nd = self.nodes[key]
        if nd.moves is None:
            nd.moves = []
            for p in range(nd.set.space.n_parties):
                cands = measurement_candidates(nd.set, p, nd.oplm(p))
                if cands.capped:
                    nd.capped_in = set()
                for c, (mask, kept) in enumerate(zip(cands.masks, cands.masks.sum(axis=2).tolist())):
                    nd.moves.append(_Move(cands, c, mask, tuple(kept), [None] * len(kept)))
        return nd.moves

    def child_key(self, key: bytes, move: _Move, oi: int) -> bytes:
        """The key of outcome `oi` of `move` at node `key`, a nonempty child;
        applied, checked and interned on the first call."""
        if move.keys[oi] is None:
            s = self.nodes[key].set
            child, labels = apply_outcome(s, move.measurement.party, move.measurement.kraus[oi])
            want = [lab for lab, k in zip(s.labels, move.mask[oi]) if k]
            if labels != want:
                raise RuntimeError(
                    f"survivor mask of outcome {move.measurement.labels[oi]} on party {party_letter(move.measurement.party)} "
                    f"keeps {want}, but applying it keeps {labels}"
                )
            move.keys[oi] = self._reach(child)
        return move.keys[oi]

    def _ordered_moves(self, key: bytes, exhaustive: bool):
        n = len(self.nodes[key].set)

        def sort_key(mv):
            elim = sum(n - kept for kept in mv.kept)
            min_surv = min((kept for kept in mv.kept if kept), default=0)
            return (elim if exhaustive else -elim, -min_surv, mv.candidates.party, mv.candidates.label(mv.index))

        return sorted(self.moves(key), key=sort_key)

    # -- the AND-OR search ------------------------------------------------------

    def search(self, slot: str, key: bytes, depth: int):
        """Tri-state memoized AND-OR search under the rule row `slot`.

        Returns (True, tree) | (False, None) conclusive | (None, None) when
        the depth cap truncated the exploration. A "dist_status" tree has
        None where a child was closed without a tree, so it cannot be
        replayed; callers read that row's status only.
        """
        nd = self.nodes[key]
        cached = nd.slots.get(slot)
        if cached is not None:
            status, tree, tried = cached
            if status is not None or tried >= depth:
                return status, tree
        rule = _RULES[slot]
        hit = rule.terminal(nd)
        if hit is not None:
            nd.slots[slot] = (*hit, depth)
            return hit
        if depth <= 0:
            nd.slots[slot] = (None, None, 0)
            return None, None
        enter = {"dist": self.distinguishable, "act": self.activation, "dist_status": self.distinguishable_status}[slot]
        incomplete = False
        moves = self._ordered_moves(key, rule.exhaustive)
        if nd.capped_in is not None:
            nd.capped_in.add(slot)
        for mv in moves:
            subtrees = []
            good = True
            for oi, kept in enumerate(mv.kept):
                st, subtree = enter(self.child_key(key, mv, oi), depth - 1) if kept else (True, None)
                subtrees.append(subtree)
                good &= st is True
                incomplete |= st is None
                if not (good or rule.exhaustive):
                    break
            if good:
                tree = Measure(mv.measurement.party, mv.measurement, subtrees)
                nd.slots[slot] = (True, tree, depth)
                return True, tree
        status = None if incomplete else False
        nd.slots[slot] = (status, None, depth)
        return status, None

    def distinguishable(self, key: bytes, depth: int):
        return self.search("dist", key, depth)

    def activation(self, key: bytes, depth: int):
        return self.search("act", key, depth)

    def distinguishable_status(self, key: bytes, depth: int):
        return self.search("dist_status", key, depth)

    # -- transcripts ------------------------------------------------------------

    def activation_transcript(self, max_depth: int):
        entries = []
        # in the order first reached; the status searches below may add
        # nodes, so the list comes first
        for key, nd in [(k, nd) for k, nd in self.nodes.items() if "act" in nd.slots]:
            s = nd.set
            # `_act_terminal` decided `cert` at every act node the exact rule did not close
            cert = None if nd.exact_nonactivable else nd.cert
            if len(s) <= 1:
                dist, basis = True, "trivial"
            elif nd.exact_nonactivable:
                dist, basis = True, "EXACT (C2xCn product rule)"
            elif cert:
                dist, basis = False, "certified locally indistinguishable"
            else:
                dist, basis = self.distinguishable_status(key, max_depth)[0], "search-in-class"
            entries.append(
                {
                    "n_states": len(s),
                    "labels": s.labels,
                    "support_dims": list(nd.support_dims) if len(s) else [],
                    "distinguishable": dist,
                    "distinguishable_basis": basis,
                    "certified_indistinguishable": cert["kind"] if cert else None,
                }
            )
        return entries


# ---------------------------------------------------------------------------
# top-level search entry points


def _search_params(an: SetAnalyzer, max_depth: int, *slots: str) -> dict:
    """Certificate params of a search that filled the memo `slots`.

    Names ATOM_CAP only when it bound at a node expanded under one of the
    slots, i.e. when the searched class lacked a union family there.
    """
    params = {"max_depth": max_depth, "tolerance": SPAN_TOL}
    capped = sum(1 for nd in an.nodes.values() if nd.capped_in and not nd.capped_in.isdisjoint(slots))
    if capped:
        params["atom_cap"] = {"cap": ATOM_CAP, "capped_nodes": capped}
    return params


def _intern_root(s: StateSet, analyzer: SetAnalyzer | None):
    if not gram_check(s).ok:
        raise ValueError("input set is not pairwise orthogonal")
    an = analyzer or SetAnalyzer()
    return an, an.intern(s)


def search_distinguishing_protocol(s: StateSet, max_depth: int = 8, analyzer: SetAnalyzer | None = None) -> Certificate:
    """Find and verify a perfect-discrimination protocol, or report exhaustion."""
    an, key = _intern_root(s, analyzer)
    status, tree = an.distinguishable(key, max_depth)
    params = _search_params(an, max_depth, "dist")
    if status is True:
        vr = verify_protocol(s, tree)
        if not vr.passed:
            raise AssertionError("internal error: search tree failed verification: " + "; ".join(vr.failures))
        return Certificate("Distinguishability", SEARCH_CLASS_NOTE, params, tree=tree, verified=True)
    kind = "Exhaustion" if status is False else "Incomplete"
    note = "no distinguishing protocol exists in the searched class" if status is False else "depth cap reached; verdict INCOMPLETE"
    return Certificate(kind, SEARCH_CLASS_NOTE, params | {"complete": status is False}, notes=note)


def certify_activation_protocol(s: StateSet, tree, analyzer: SetAnalyzer | None = None) -> Certificate:
    """Replay an activation tree and certify every reachable leaf set.

    Deterministic activation: every replay step must be a complete
    measurement that preserves orthogonality, and each leaf must hold >= 2
    states, be orthogonal at ORTHO_TOL and locally irredundant over whole
    parties, and be certified locally indistinguishable (IRREDUCIBLE-EXACT
    or support-restricted UPB).
    """
    an = analyzer or SetAnalyzer()
    params = {"tolerance": SPAN_TOL}
    evidence = []
    failures: list[str] = []
    for path, cur, node in _replay(tree, s, failures):
        if node.identified is not None or len(cur) < 2:
            failures.append(f"{path}: not an activation leaf")
            continue
        key = an.intern(cur)
        nd = an.nodes[key]
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


def activation_search(s: StateSet, max_depth: int = 8, analyzer: SetAnalyzer | None = None) -> Certificate:
    """Search for a deterministic nonlocality-activation protocol.

    Returns an Activation certificate (replay-verified) or, after complete
    exhaustion of the class, NonActivabilityInClass with a transcript of
    every reached set and its distinguishability status. A truncated search
    returns kind Incomplete, never a negative verdict.
    """
    an, key = _intern_root(s, analyzer)
    dstat = an.distinguishable_status(key, max_depth)[0]
    params = _search_params(an, max_depth, "dist_status")
    if dstat is False:
        cert = an.nodes[key].cert
        return Certificate(
            "Indistinguishability",
            SEARCH_CLASS_NOTE,
            params | {"complete": True},
            leaf_evidence=[{"certificate": cert}] if cert else [],
            notes="root set is not locally distinguishable (within the searched class); nothing to activate",
        )
    if dstat is None:
        return Certificate(
            "Incomplete",
            SEARCH_CLASS_NOTE,
            params | {"complete": False},
            notes="depth cap too small to establish root distinguishability; verdict INCOMPLETE",
        )
    status, tree = an.activation(key, max_depth)
    if status is True:
        cert = certify_activation_protocol(s, tree, analyzer=an)
        cert.params.update(_search_params(an, max_depth, "act", "dist_status"))
        return cert
    transcript = an.activation_transcript(max_depth)
    params = _search_params(an, max_depth, "act", "dist_status")
    # weaker some-branch flag: did any branch alone reach a certified leaf?
    probabilistic = any(nd.leaf_evidence for nd in an.nodes.values())
    complete = status is False
    return Certificate(
        "NonActivabilityInClass" if complete else "Incomplete",
        SEARCH_CLASS_NOTE,
        params | {"complete": complete, "probabilistic_activation": probabilistic},
        transcript=transcript,
        verified=complete,
        notes="every reachable set in the class remained locally distinguishable"
        if complete
        else "depth cap reached before exhausting the class; verdict INCOMPLETE",
    )


# ---------------------------------------------------------------------------
# scripted protocols


def _vec(d: int, entries) -> np.ndarray:
    v = np.zeros(d, dtype=np.complex128)
    for i, c in entries:
        v[i] = c
    return v / np.linalg.norm(v)


def _pvec(d: int, entries) -> np.ndarray:
    v = _vec(d, entries)
    return np.outer(v, v.conj())


def _pidx(d: int, idx) -> np.ndarray:
    p = np.zeros((d, d), dtype=np.complex128)
    for i in idx:
        p[i, i] = 1.0
    return p


def _meas(party: int, kraus, labels) -> LocalMeasurement:
    return LocalMeasurement(party, [np.asarray(k, dtype=np.complex128) for k in kraus], labels)


def _rest(d: int, ops) -> np.ndarray:
    return np.eye(d, dtype=np.complex128) - sum(ops)


def _s3_discrimination_tree():
    d = 6
    v1 = _pvec(d, [(0, 1), (4, -1)])
    v2 = _pvec(d, [(2, 1), (3, -1)])
    v3 = _pvec(d, [(i, 1) for i in range(6)])
    mb = _meas(1, [v1, v2, v3, _rest(d, [v1, v2, v3])], ["P[0-4]", "P[2-3]", "P[stopper]", "rest"])

    def alice(specs, leaves):
        ops = [_pvec(d, sp) for sp in specs]
        kraus = ops + [_rest(d, ops)]
        labels = [f"P{i}" for i in range(len(ops))] + ["rest"]
        return Measure(0, _meas(0, kraus, labels), leaves)

    b1 = alice([[(1, 1), (2, -1)], [(4, 1), (5, -1)]], [Leaf(identified="phi3"), Leaf(identified="phi8"), None])
    b2 = alice([[(0, 1), (1, -1)], [(3, 1), (4, -1)]], [Leaf(identified="phi4"), Leaf(identified="phi9"), None])
    b3 = alice(
        [[(0, 1), (1, 1), (2, 1)], [(3, 1), (4, 1), (5, 1)]],
        [Leaf(identified="phi5"), Leaf(identified="phi10"), None],
    )
    b4 = alice(
        [[(0, 1)], [(2, 1)], [(3, 1)]],
        [Leaf(identified="phi1"), Leaf(identified="phi2"), Leaf(identified="phi6"), Leaf(identified="phi7")],
    )
    return Measure(1, mb, [b1, b2, b3, b4])


def _half_split(party: int, d: int, lo_half, hi_half) -> LocalMeasurement:
    return _meas(
        party,
        [_pidx(d, lo_half), _pidx(d, hi_half)],
        [f"P[{','.join(map(str, lo_half))}]", f"P[{','.join(map(str, hi_half))}]"],
    )


def _s3_activation_tree():
    ka = _half_split(0, 6, (0, 1, 2), (3, 4, 5))
    kb = _half_split(1, 6, (0, 1, 2), (3, 4, 5))
    return Measure(1, kb, [Measure(0, ka, [Leaf(), Leaf()]), Measure(0, ka, [Leaf(), Leaf()])])


def _s1_recursion_tree():
    d = 4
    pa = _half_split(0, d, (0,), (1, 2, 3))
    pb = _half_split(1, d, (0,), (1, 2, 3))

    def resolve(party, specs, labels, leaves):
        return _with_rest(party, d, [_pvec(d, sp) for sp in specs], labels, leaves)

    b0 = resolve(
        1,
        [[(0, 1), (1, 1)], [(0, 1), (1, -1)], [(2, 1), (3, 1)], [(2, 1), (3, -1)]],
        ["P[X01+]", "P[X01-]", "P[X23+]", "P[X23-]"],
        [Leaf(identified="0_X01+"), Leaf(identified="0_X01-"), Leaf(identified="0_X23+"), Leaf(identified="0_X23-")],
    )
    col0 = resolve(
        0,
        [[(1, 1), (2, 1)], [(1, 1), (2, -1)], [(3, 1)]],
        ["P[xi12+]", "P[xi12-]", "P[3]"],
        [Leaf(identified="xi12+_0"), Leaf(identified="xi12-_0"), Leaf(identified="xi3_0")],
    )
    row1 = resolve(
        1,
        [[(1, 1), (2, 1)], [(1, 1), (2, -1)], [(3, 1)]],
        ["P[X12+]", "P[X12-]", "P[3]"],
        [Leaf(identified="1_X12+"), Leaf(identified="1_X12-"), Leaf(identified="1_X3")],
    )
    col1 = resolve(
        0,
        [[(2, 1), (3, 1)], [(2, 1), (3, -1)]],
        ["P[xi23+]", "P[xi23-]"],
        [Leaf(identified="xi23+_1"), Leaf(identified="xi23-_1")],
    )
    row2 = resolve(
        1,
        [[(2, 1), (3, 1)], [(2, 1), (3, -1)]],
        ["P[X23+]", "P[X23-]"],
        [Leaf(identified="2_X23+"), Leaf(identified="2_X23-")],
    )
    tail_b = Measure(
        1,
        _meas(1, [_pidx(d, (2,)), _rest(d, [_pidx(d, (2,))])], ["P[2]", "I-P[2]"]),
        [Leaf(identified="xi3_2"), Leaf(identified="xi3_X3")],
    )
    a23 = Measure(0, _meas(0, [_pidx(d, (2,)), _rest(d, [_pidx(d, (2,))])], ["P[2]", "I-P[2]"]), [row2, tail_b])
    b23 = Measure(1, _meas(1, [_pidx(d, (1,)), _rest(d, [_pidx(d, (1,))])], ["P[1]", "I-P[1]"]), [col1, a23])
    a123 = Measure(0, _meas(0, [_pidx(d, (1,)), _rest(d, [_pidx(d, (1,))])], ["P[1]", "I-P[1]"]), [row1, b23])
    b123 = Measure(1, pb, [col0, a123])
    return Measure(0, pa, [b0, b123])


def _s4_abc_activation_tree():
    # on merge_parties(s4, {A},{B,C}): party 0 is A (dim 6), party 1 is BC (dim 12)
    i6 = np.eye(6, dtype=np.complex128)
    i2 = np.eye(2, dtype=np.complex128)
    c0 = np.kron(i6, _pidx(2, (0,)))
    c1 = np.kron(i6, _pidx(2, (1,)))
    kb0 = np.kron(_pidx(6, (0, 1, 2)), i2)
    kb1 = np.kron(_pidx(6, (3, 4, 5)), i2)
    ka = _half_split(0, 6, (0, 1, 2), (3, 4, 5))
    mc = _meas(1, [c0, c1], ["I6xP[c=0]", "I6xP[c=1]"])
    mkb = _meas(1, [kb0, kb1], ["P[B012]xI2", "P[B345]xI2"])

    def branch():
        return Measure(1, mkb, [Measure(0, ka, [Leaf(), Leaf()]), Measure(0, ka, [Leaf(), Leaf()])])

    return Measure(1, mc, [branch(), branch()])


_BUILTIN_TREES = {
    "s3_discrimination": _s3_discrimination_tree,
    "s3_activation": _s3_activation_tree,
    "s1_recursion": _s1_recursion_tree,
    "s4_abc_activation": _s4_abc_activation_tree,
}
BUILTIN_PROTOCOLS = tuple(_BUILTIN_TREES)


def builtin_protocol(name: str):
    if name not in _BUILTIN_TREES:
        raise ValueError(f"unknown builtin protocol {name!r}")
    return _BUILTIN_TREES[name]()
