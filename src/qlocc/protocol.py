"""The search engine: memoized AND-OR search for discrimination and
activation protocols over state sets.

Search runs over the two-outcome projective OPLM candidates of each party
plus a terminal one-party resolution, with reached sets deduplicated by a
canonical amplitude key. Every proper projective outcome strictly shrinks
the measured party's local support, so the reachable-set graph is finite
and acyclic.

The trees, their replay and the certificates live in `certify.py`, the
trust base: this module imports it, and it never imports this module. A
found tree is replayed there before it is returned, so a positive
certificate does not rest on the search. Negative verdicts do; they are
class-relative and say so.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .certify import SEARCH_CLASS_NOTE, Certificate, Leaf, Measure, SetFacts, _with_rest, apply_outcome, canonical_key, certify_activation_protocol, verify_protocol
from .linalg import ORTHO_TOL, SPAN_TOL
from .oplm import ATOM_CAP, Candidates, LocalMeasurement, measurement_candidates
from .states import StateSet, gram_check, local_vectors, party_letter


# ---------------------------------------------------------------------------
# the memoized analysis graph


class _Node(SetFacts):
    """One reached set and what the analysis decided about it.

    The search writes its own state into named fields. Each fact about the
    set itself is decided on first read and kept (`cached_property`): the
    facts a certificate reads come from `SetFacts`, and this class adds
    those only the search reads.
    """

    def __init__(self, s: StateSet):
        super().__init__(s)
        self.slots: dict[str, tuple] = {}  # rule slot -> (status, tree, depth tried)
        self.moves: list | None = None
        # the rule slots that expanded this node, when ATOM_CAP bound at it
        self.capped_in: set[str] | None = None
        self.leaf_evidence: dict | None = None  # the certificate of an activation leaf

    @cached_property
    def space_dims(self) -> tuple[int, ...]:
        return tuple(self.oplm(p).space_dim for p in range(self.set.space.n_parties))

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
        cert = certify_activation_protocol(s, tree, known=an.nodes)
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

