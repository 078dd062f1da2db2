"""Unextendibility of orthogonal product sets.

A product state a_1 x ... x a_N is orthogonal to the whole set iff every
member is killed by at least one party factor, so extendibility reduces to
an assignment problem: give each state to one party such that every party's
assigned local vectors span a proper subspace (of that party's restricted
support). The exhaustive assignment search decides exactly; an alternating
eigenvector descent serves as an independent numeric cross-check.

Parties are restricted to the span of the members' local supports first, so
sets embedded in larger spaces (post-measurement leaves) are judged on the
subspace they actually occupy. The members' product structure and local
vectors come from `states.local_factors`, one stacked SVD per party.

The assignment search prunes by dominance. When state i's local vector
already lies in the span party f holds, giving i to f grows no span, and
spans only grow, so every completion that gives i to another party also
works with i on f: if f's branch fails, every branch fails (the partition
characterization of Bennett et al., PRL 82, 5385 (1999), and DiVincenzo et
al., CMP 238, 379 (2003)). The pruned search returns the assignment the
plain party-order search finds first; see `check_unextendible`.

It also remembers the subproblems that failed. Whether the search from
state i succeeds depends only on i and on the spans as subspaces. Each
span keeps the bitmask of the states whose local vectors it holds, and a
span grown from local vectors is the span of every local vector it holds,
so spans with equal masks are the same subspace, however they were grown,
and a failed (i, held-state masks) fails wherever it recurs. Only failures
are kept, so the first successful path, and with it the assignment and
witness, stays the plain search's. Sets whose states share local vectors,
as the tiles of a tiling do, or whose local vectors fill a subspace from
more directions than its dimension, reach the same subproblem along many
paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import EXTENSION_TOL, SPAN_TOL, SWEEP_TOL, WITNESS_TOL
from .states import Ket, StateSet, gram_check, local_factors, row_norms, support_basis

ASSIGNMENT_CAP = 10**7
# The assignment search gives up after this many nodes.
NODE_CAP = 5_000_000
# The largest number of restarts the numeric oracle runs as one stack. The
# stack's memory grows with it (about 3 KB per restart on tiles33), so a
# large restart budget runs block by block.
RESTART_BLOCK = 1024


def _local_support_vectors(s: StateSet, factors):
    """Per-party support basis U_p and per-state unit local vectors in the
    support coordinates, from the `local_factors` of every party. Every
    member must be a product state."""
    supports = []
    locals_ = []
    for p, (vecs, _) in enumerate(factors):
        u, _ = support_basis(s, p)
        supports.append(u)
        # one gemv per state, as `u.conj().T @ v` runs it
        locals_.append(np.matmul(u.conj().T, vecs[:, :, None])[:, :, 0])
    return supports, locals_


class _Span(NamedTuple):
    """A party's span of assigned local vectors (orthonormal columns), every
    state's residual against it with the residual's norm, and the bitmask of
    the states it holds (norm <= SPAN_TOL)."""

    basis: np.ndarray
    resid: np.ndarray
    norms: np.ndarray
    held: int


def _span(basis: np.ndarray, w: np.ndarray) -> _Span:
    """The `_Span` of `basis` for the unit local vectors w (n, r).

    Residual j is `w[j] - basis @ (basis_h @ w[j])` and its norm
    `np.linalg.norm` of it, bit for bit: the rows of w are C-contiguous, so
    np.matmul runs per state the gemv that the one-vector product runs, and
    `row_norms` takes the same dots."""
    resid = w - np.matmul(basis, np.matmul(basis.conj().T, w[:, :, None]))[:, :, 0]
    norms = row_norms(resid)
    return _Span(basis, resid, norms, sum(1 << j for j in np.flatnonzero(norms <= SPAN_TOL).tolist()))


class CapExceeded(ValueError):
    """The exact search refuses an input beyond one of its caps; `refusal`
    says which cap, with its value."""

    def __init__(self, message: str, refusal: str):
        super().__init__(message)
        self.refusal = refusal


@dataclass
class UpbVerdict:
    unextendible: bool
    witness: Ket | None  # a product extension, when one exists
    assignment: list[int] | None  # party handling each state, for the witness
    support_note: str
    # nodes of the pruned, memoized assignment search, a memo hit counted
    # as one; not the plain search's count
    nodes_explored: int


def _orth_complement_vector(span_cols: np.ndarray, dim: int) -> np.ndarray:
    if span_cols.shape[1] == 0:
        v = np.zeros(dim, dtype=np.complex128)
        v[0] = 1.0
        return v
    _, _, vh = np.linalg.svd(span_cols.conj().T)
    return vh[-1].conj()


def check_unextendible(s: StateSet) -> UpbVerdict:
    """Exact unextendibility decision by exhaustive party assignment.

    A depth-first search gives states 0, 1, ... to parties, trying parties
    in index order, and keeps each party's span of assigned local vectors
    proper. Each span keeps every state's residual against it and the
    bitmask of the states it holds (residual <= SPAN_TOL), computed once
    when it grows (`_Span`). At each state the search first looks for
    a free party: the lowest f whose span holds the state. With no free
    party, it tries every party in order, growing its span by the state's
    stored residual. Otherwise f's branch decides the state (dominance, see
    the module docstring), so it runs first: if it fails the state fails,
    and if f == 0 its result is the answer. For f > 0 the plain search
    would have tried parties 0..f-1 before f, so these run next, from the
    spans the state started with, and the first that succeeds is the
    answer; if none does, the answer is f's kept result. f's branch runs
    once. A state whose (index, per-party held-state masks) already failed
    fails at once (see the module docstring). Verdict, assignment and
    witness are those of the plain search; only `nodes_explored` differs.
    """
    if len(s) == 0:
        raise ValueError("empty state set")
    if not gram_check(s).ok:
        raise ValueError("set must be pairwise orthogonal")
    n_parties = s.space.n_parties
    factors = [local_factors(s, p) for p in range(n_parties)]
    product = np.logical_and.reduce([mask for _, mask in factors])
    if not product.all():
        raise ValueError(f"state {s.labels[int(np.argmin(product))]} is not a product state")
    k = len(s)
    if n_parties**k > ASSIGNMENT_CAP:
        raise CapExceeded(
            f"{n_parties}^{k} assignments exceed cap; use numeric_extension_search",
            f"{n_parties}^{k} assignments exceed ASSIGNMENT_CAP = {ASSIGNMENT_CAP}",
        )
    supports, locals_ = _local_support_vectors(s, factors)
    rdims = [u.shape[1] for u in supports]
    note = "supports: " + " x ".join(str(r) for r in rdims) + f" (ambient {'x'.join(str(d) for d in s.space.party_dims)})"

    nodes = 0
    spans = [_span(np.zeros((r, 0), dtype=np.complex128), w) for r, w in zip(rdims, locals_)]
    assignment: list[int] = []
    failed: set[tuple[int, ...]] = set()  # (i, held-state masks) whose search failed

    def dfs(i: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > NODE_CAP:
            raise CapExceeded("assignment search exceeded node cap", f"assignment search exceeded NODE_CAP = {NODE_CAP} nodes")
        if i == k:
            return True
        if failed and (i, *(sp.held for sp in spans)) in failed:
            return False
        if search(i):
            return True
        # a failed search leaves the spans as it found them
        failed.add((i, *(sp.held for sp in spans)))
        return False

    def search(i: int) -> bool:
        free = next((p for p, sp in enumerate(spans) if sp.held >> i & 1), None)
        if free is None:
            return grow_into(i, range(n_parties))
        at_entry = list(spans)
        assignment.append(free)
        if not dfs(i + 1):
            assignment.pop()
            return False
        if free > 0:
            kept_assignment, kept_spans = assignment[i:], list(spans)
            del assignment[i:]
            spans[:] = at_entry
            if not grow_into(i, range(free)):
                assignment.extend(kept_assignment)
                spans[:] = kept_spans
        return True

    def grow_into(i: int, parties) -> bool:
        """Give state i to each of `parties` in turn, none of whose spans
        holds its local vector yet, growing that span by the state's
        residual, until the rest of the search succeeds."""
        for p in parties:
            sp = spans[p]
            if sp.basis.shape[1] + 1 >= rdims[p]:
                continue  # party span would become full: no room for a witness
            spans[p] = _span(np.hstack([sp.basis, (sp.resid[i] / sp.norms[i])[:, None]]), locals_[p])
            assignment.append(p)
            if dfs(i + 1):
                return True
            assignment.pop()
            spans[p] = sp
        return False

    if dfs(0):
        parts = []
        for p in range(n_parties):
            v = _orth_complement_vector(spans[p].basis, rdims[p])
            parts.append(supports[p] @ v)
        amp = parts[0]
        for v in parts[1:]:
            amp = np.kron(amp, v)
        witness = Ket(s.space, amp, "extension")
        overlaps = np.abs(s.matrix().conj() @ witness.amplitudes)
        if overlaps.max() > WITNESS_TOL:
            raise AssertionError("internal error: extension witness not orthogonal")
        return UpbVerdict(False, witness, list(assignment), note, nodes)
    return UpbVerdict(True, None, None, note, nodes)


@dataclass
class ExtensionSearchResult:
    residual: float
    witness: Ket
    restarts: int


def numeric_extension_search(s: StateSet, restarts: int = 200, seed: int = 0) -> ExtensionSearchResult:
    """Alternating minimization of sum_i |<psi_i|a_1 x ... x a_N>|^2.

    With all but one party fixed, the free party's optimum is the minimal
    eigenvector of an accumulated PSD form; restarts from random product
    states. Independent of the exact assignment procedure. The candidate
    lives on the members' local supports, the arena check_unextendible
    decides on.

    ``restarts`` is a budget: the search stops at the first restart that
    reaches an exact extension (residual < EXTENSION_TOL), and at least one restart
    always runs. The result reports ``restarts`` as passed either way.
    Restart 0 runs alone; when it finds no exact extension, the others run
    as stacked batches of up to RESTART_BLOCK restarts. Each restart stops
    on its own, and the best one is picked in restart order, so the result
    is the one a restart-by-restart loop returns.
    """
    if len(s) == 0:
        raise ValueError("empty state set")
    rng = np.random.default_rng(seed)
    n_parties = s.space.n_parties
    supports = [support_basis(s, p)[0] for p in range(n_parties)]
    rdims = [u.shape[1] for u in supports]
    tensors = _compressed_states(s, supports)

    best, best_vecs = np.inf, None
    done = 0
    while done < max(1, restarts) and best >= EXTENSION_TOL:
        # an exact extension ends the search; later restarts cannot improve the verdict
        count = 1 if done == 0 else min(RESTART_BLOCK, restarts - done)
        res, vecs = _descend(tensors, _random_starts(rng, rdims, count))
        done += count
        for b, cur in enumerate(res):
            if best_vecs is None or cur < best:
                best, best_vecs = cur, [v[b, :, 0].copy() for v in vecs]
            if best < EXTENSION_TOL:
                break
    amp = supports[0] @ best_vecs[0]
    for p in range(1, n_parties):
        amp = np.kron(amp, supports[p] @ best_vecs[p])
    return ExtensionSearchResult(float(best), Ket(s.space, amp, "candidate-extension"), restarts)


# The descent below runs many restarts at once but must return, bit for bit,
# what one restart at a time returns. This bit contract fixes:
# - Contractions. np.matmul runs, item by item, the gemv or dot that np.dot
#   runs inside np.tensordot, and the operand strides pick the kernel, so
#   every matmul operand keeps the strides of the per-state call. A party's
#   vector is read as column 0 of eigh's full (r, r) eigenvector matrix, a
#   view with row stride r. Storing the eigenvectors sliced to [:, :, :1]
#   changes bits on 2x2x2: the per-sweep copy of the active restarts then
#   gives the column unit stride. Broadcasting over restarts or states
#   leaves the strides of each item as they are.
# - Outer products. They are array products, as in np.outer; numpy's
#   scalar complex multiply rounds differently.
# - Sums over states. They run strictly in state order with in-place adds,
#   starting from +0.0 as the loop does (never a pairwise reduce).
# - |z|**2. It is libm pow, as on a numpy scalar, not z * z.
# - The residual. For N = 2 it reuses the last party's contraction; for
#   N > 2 the party update contracts in descending and the residual in
#   ascending party order, which round differently, so it is recomputed.
# - The eigensolver. The batched np.linalg.eigh solves each matrix as eigh
#   of that matrix alone; it is about half the oracle's time.


def _compressed_states(s: StateSet, supports) -> np.ndarray:
    """Conjugated states on the support lattice, stacked as (n, r_1, ..., r_N).

    Each state is compressed one party at a time, and the stack keeps the
    stride order this leaves on each state (the last party slowest)."""
    tensors = []
    for row in s.matrix():
        t = row.reshape(s.space.party_dims)
        for p, u in enumerate(supports):
            t = np.tensordot(u.conj().T, t, axes=([1], [p]))
            t = np.moveaxis(t, 0, p)
        tensors.append(np.conj(t))
    t0 = tensors[0]
    slowest_first = sorted(range(t0.ndim), key=lambda a: -t0.strides[a])
    stack = np.empty((len(tensors),) + tuple(t0.shape[a] for a in slowest_first), dtype=np.complex128)
    stack = stack.transpose([0] + [1 + slowest_first.index(a) for a in range(t0.ndim)])
    stack[...] = tensors
    return stack


def _random_starts(rng, rdims, count: int) -> list[np.ndarray]:
    """Random unit vectors for ``count`` restarts, drawn restart by restart
    and party by party (real part, then imaginary part), as (count, r_p, 1)."""
    draws = rng.normal(size=(count, 2 * sum(rdims)))
    starts = []
    at = 0
    for r in rdims:
        v = draws[:, at : at + r] + 1j * draws[:, at + r : at + 2 * r]
        at += 2 * r
        re, im = v.real[:, None, :], v.imag[:, None, :]
        sq = (re @ np.swapaxes(re, 1, 2) + im @ np.swapaxes(im, 1, 2))[:, 0]
        starts.append((v / np.sqrt(sq))[:, :, None])
    return starts


def _contract(t: np.ndarray, vecs: np.ndarray, axis: int) -> np.ndarray:
    """``np.tensordot(t[b, i], vecs[b, :, 0], axes=([axis], [0]))`` for every
    restart b and state i of a (B, n, ...) stack, where B may be 1 for a
    stack all restarts share."""
    order = list(range(t.ndim))
    order.append(order.pop(2 + axis))
    moved = t.transpose(order)
    rest = moved.shape[2:-1]
    mats = moved.reshape(moved.shape[:2] + (math.prod(rest), moved.shape[-1]))
    return np.matmul(mats, vecs[:, None, :, :1]).reshape((len(vecs), t.shape[1]) + rest)


def _sum_in_order(terms) -> np.ndarray:
    """``total = 0; for x in terms: total += x``, rounding included."""
    terms = iter(terms)
    total = next(terms) + 0.0
    for x in terms:
        total += x
    return total


def _outer_sum(u: np.ndarray) -> np.ndarray:
    """sum_i outer(conj(u[b, i]), u[b, i]) over the states i of a (B, n, r)
    stack, one state at a time."""
    cols, rows = np.conj(u)[..., :, None], u[..., None, :]
    return _sum_in_order(cols[:, i] * rows[:, i] for i in range(u.shape[1]))


def _squared_sum(val: np.ndarray) -> np.ndarray:
    """sum_i |val[b, i]|^2 for each restart b of a (B, n) stack."""
    return _sum_in_order(np.float_power(np.abs(val), 2).T)


def _residuals(tensors: np.ndarray, vecs) -> np.ndarray:
    """sum_i |<psi_i|a_1 x ... x a_N>|^2 for each restart."""
    val = tensors[None]
    for v in vecs:
        val = _contract(val, v, 0)
    return _squared_sum(val)


def _descend(tensors: np.ndarray, starts) -> tuple[np.ndarray, list[np.ndarray]]:
    """Alternating sweeps for a stack of restarts.

    ``starts[p]`` holds party p's vector of restart b in ``starts[p][b, :, 0]``.
    A restart stops after a sweep that lowers its residual by less than
    SWEEP_TOL, or after 60 sweeps, and keeps the vectors of its last sweep.
    Returns the residual of each restart and the vectors, in the same form.
    """
    n_parties = tensors.ndim - 1
    count = starts[0].shape[0]
    vecs = list(starts)
    res = np.full(count, np.inf)
    active = np.arange(count)
    for sweep in range(60):
        cur_vecs = [v[active] for v in vecs]
        stack = np.broadcast_to(tensors, (len(active),) + tensors.shape)
        for p in range(n_parties):
            u = stack
            # contract in descending axis order so indices stay valid
            for q in range(n_parties - 1, -1, -1):
                if q != p:
                    u = _contract(u, cur_vecs[q], q)
            cur_vecs[p] = np.linalg.eigh(_outer_sum(u))[1]
        if n_parties == 2:
            # the last party's u is the residual's first contraction; for
            # N > 2 the two contract in opposite orders
            cur = _squared_sum(_contract(u, cur_vecs[1], 0))
        else:
            cur = _residuals(tensors, cur_vecs)
        if sweep == 0:  # every restart is active in the first sweep
            vecs = cur_vecs
        else:
            for v, w in zip(vecs, cur_vecs):
                v[active] = w
        stopped = res[active] - cur < SWEEP_TOL
        res[active] = cur
        active = active[~stopped]
        if active.size == 0:
            break
    return res, vecs
