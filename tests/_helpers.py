"""Shared test helpers: random state-set generators, malformed protocol
trees, the pinned benchmark digests, and per-state reference versions of
the matrix code in qlocc."""

from __future__ import annotations

import hashlib
import json
import re
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from qlocc import certify, oplm, partitions, protocol, qset, states, upb
from qlocc.certify import Leaf, Measure, _replay, apply_outcome
from qlocc.fixtures import FIXTURE_NAMES, build_fixture, builtin_protocol
from qlocc.linalg import ORTHO_TOL, RANK_RTOL, SPAN_TOL
from qlocc.oplm import (
    ATOM_CAP,
    CLASS_NOTE,
    MASK_CHUNK,
    BlockStructure,
    IrreducibilityVerdict,
    LocalMeasurement,
    OplmSpace,
    _atoms,
    _upper,
    block_structure,
    eliminable_states,
    measurement_candidates,
    oplm_space,
)
from qlocc.protocol import _RULES, SetAnalyzer
from qlocc.qset import QsetError
from qlocc.states import (
    Bipartition,
    Ket,
    OrthoReport,
    PartySpace,
    RedundancyReport,
    StateSet,
    apply_local_unitaries,
    coefficient_matrix,
    gram_check,
    local_factors,
    local_vectors,
    merge_parties,
    occupied_indices,
    party_letter,
    party_matrices,
    random_local_unitaries,
    reduced_state,
    redundancy_check,
    redundancy_check_whole_parties,
    schmidt_rank,
    survivors,
    union_survivors,
    _support_basis,
)
from qlocc.upb import (
    ASSIGNMENT_CAP,
    NODE_CAP,
    UpbVerdict,
    _local_support_vectors,
    _orth_complement_vector,
)

DIGESTS = json.loads((Path(__file__).resolve().parents[1] / "bench" / "digests.json").read_text())


def digest(payload) -> str:
    """sha256 of json.dumps(payload, sort_keys=True), as pinned in bench/digests.json."""
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


# Python source defining peak_rss_mb(), for code run in a fresh process: the
# process's own peak resident memory in MB. ru_maxrss does not do there: after
# exec it still holds the peak of the process that forked the child, which is
# the test run itself
PEAK_RSS_SOURCE = """
def peak_rss_mb():
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("VmHWM:")) / 1024
"""


def random_unit(rng, d: int) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def random_orthonormal_set(rng, dims, n_states: int, name="rand") -> StateSet:
    """Random orthonormal (generally entangled) states via QR."""
    space = PartySpace(tuple(dims))
    d = space.total_dim
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, _ = np.linalg.qr(z)
    states = [Ket(space, q[:, i], f"r{i}") for i in range(n_states)]
    return StateSet(space, states, name)


def random_orthogonal_product_set(rng, dims, n_states: int, max_tries: int = 400, name="prod"):
    """Random pairwise-orthogonal product set, or None if the greedy
    construction gets stuck.

    Each new state picks, per existing state, one party on which to be
    orthogonal; the new local vectors are then sampled from the per-party
    nullspaces, which makes the orthogonality exact up to rounding.
    """
    space = PartySpace(tuple(dims))
    nparties = len(dims)
    locals_: list[list[np.ndarray]] = []
    for k in range(n_states):
        placed = False
        for _ in range(max_tries):
            pattern = rng.integers(0, nparties, size=k)
            vecs = []
            ok = True
            for p, d in enumerate(dims):
                constraints = [locals_[j][p] for j in range(k) if pattern[j] == p]
                if not constraints:
                    vecs.append(random_unit(rng, d))
                    continue
                a = np.stack(constraints).conj()
                _, sv, vh = np.linalg.svd(a, full_matrices=True)
                rank = int(np.sum(sv > 1e-10 * sv[0])) if sv.size else 0
                if rank >= d:
                    ok = False
                    break
                null = vh[rank:].conj().T
                coeff = rng.normal(size=null.shape[1]) + 1j * rng.normal(size=null.shape[1])
                v = null @ coeff
                vecs.append(v / np.linalg.norm(v))
            if ok:
                locals_.append(vecs)
                placed = True
                break
        if not placed:
            return None
    states = []
    for i, vecs in enumerate(locals_):
        amp = vecs[0]
        for v in vecs[1:]:
            amp = np.kron(amp, v)
        states.append(Ket(space, amp, f"p{i}"))
    return StateSet(space, states, name)


def _collect_leaves(s: StateSet, tree, path="root"):
    """Reachable leaves of a well-formed tree as (path, set, leaf); raises ValueError otherwise."""
    failures: list[str] = []
    leaves = list(_replay(tree, s, failures, path))
    if failures:
        raise ValueError("; ".join(failures))
    return leaves


def truncated_s3_activation_tree():
    """builtin:s3_activation with each Alice measurement cut to its first
    Kraus operator: the leaves still hold tiles33 copies, but the Alice
    steps are not complete measurements (completeness residual 1.0)."""
    tree = builtin_protocol("s3_activation")
    for alice in tree.children:
        m = alice.measurement
        alice.measurement = LocalMeasurement(m.party, m.kraus[:1], m.labels[:1])
        alice.children = alice.children[:1]
    return tree


def near_orthogonal_leaves_tree():
    """A 4x2 pair and a one-step tree whose two leaves replay but are not
    certifiable: party A measures diag(1,1,0,0) and its complement, which
    leaves the two states with overlap 5e-9 in each branch (orthogonal at
    SPAN_TOL, not at ORTHO_TOL)."""
    x = 5e-9
    y = np.sqrt(1 - x * x)
    e0 = np.eye(2)[0]
    rows = [np.kron(np.array([1, 0, 1, 0]) / np.sqrt(2), e0), np.kron(np.array([x, y, -x, y]) / np.sqrt(2), e0)]
    s = StateSet.from_matrix(PartySpace((4, 2)), rows, ["p1", "p2"], "near")
    halves = [np.diag([1, 1, 0, 0]).astype(complex), np.diag([0, 0, 1, 1]).astype(complex)]
    return s, Measure(0, LocalMeasurement(0, halves, ["M0", "M1"]), [Leaf(), Leaf()])


def near_bell_leaves_tree():
    """A 4x2 triple and the one-step tree of `near_orthogonal_leaves_tree`
    whose two leaves are certified but not orthogonal at ORTHO_TOL: each half
    of A's space holds three Bell states of A's block and B, the second one
    tilted by +x towards the first on one half and by -x on the other, so
    the root is orthogonal and each leaf has overlap x = 5e-9."""
    x = 5e-9
    y = np.sqrt(1 - x * x)
    phip, phim, psip = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0]]) / np.sqrt(2)
    rows = [
        np.concatenate([top, bottom]) / np.sqrt(2)
        for top, bottom in [(phip, phip), (y * phim + x * phip, y * phim - x * phip), (psip, psip)]
    ]
    s = StateSet.from_matrix(PartySpace((4, 2)), rows, ["p1", "p2", "p3"], "near-bell")
    return s, near_orthogonal_leaves_tree()[1]


def childless_s3_activation_tree():
    """builtin:s3_activation whose first Alice step has 1 child for 2 outcomes."""
    tree = builtin_protocol("s3_activation")
    tree.children[0].children = tree.children[0].children[:1]
    return tree


# ---------------------------------------------------------------------------
# per-state references for the matrix code


def reference_gram_check(s: StateSet, tol: float) -> OrthoReport:
    """gram_check as a double loop over pairs, then a stable sort by magnitude."""
    m = s.matrix()
    g = np.abs(m.conj() @ m.T)
    viol = []
    for i in range(len(s)):
        for j in range(i + 1, len(s)):
            if g[i, j] > tol:
                viol.append((s.states[i].label, s.states[j].label, float(g[i, j])))
    viol.sort(key=lambda t: -t[2])
    return OrthoReport(ok=not viol, tol=tol, violations=viol)


def reference_apply_outcome(s: StateSet, party: int, kraus, check: bool = True, tol: float = SPAN_TOL):
    """apply_outcome one state at a time, one Ket per survivor."""
    kraus = np.asarray(kraus, dtype=np.complex128)
    dims = s.space.party_dims
    n = s.space.n_parties
    order = [party] + [q for q in range(n) if q != party]
    inv = list(np.argsort(order))
    survivors = []
    labels = []
    for k in s.states:
        t = k.tensor().transpose(order).reshape(dims[party], -1)
        post = kraus @ t
        nrm = np.linalg.norm(post)
        if nrm <= ORTHO_TOL:
            continue
        full = post.reshape([dims[q] for q in order]).transpose(inv).reshape(-1)
        survivors.append(Ket(s.space, full, k.label))
        labels.append(k.label)
    out = StateSet(s.space, survivors, s.name)
    if check and len(out) > 1:
        rep = reference_gram_check(out, tol)
        if not rep.ok:
            a, b, v = rep.violations[0]
            raise ValueError(f"outcome breaks orthogonality: |<{a}|{b}>| = {v:.3g}")
    return out, labels


def reference_canonical_key(s: StateSet) -> bytes:
    """canonical_key with the phases fixed one row at a time; each row's
    label follows its row bytes (4-byte little-endian length, then UTF-8),
    and the key is the sha256 digest of the whole."""
    m = s.matrix().copy()
    for i in range(m.shape[0]):
        row = m[i]
        nz = np.nonzero(np.abs(row) > 1e-7)[0]
        if nz.size:
            a = row[nz[0]]
            m[i] = row * (np.conj(a) / abs(a))
    m = np.round(m, 9) + 0.0
    items = []
    for i, lab in enumerate(s.labels):
        b = lab.encode()
        items.append(np.ascontiguousarray(m[i]).tobytes() + len(b).to_bytes(4, "little") + b)
    return hashlib.sha256(repr(s.space.party_dims).encode() + b"|" + b"".join(sorted(items))).digest()


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shape, dtype and bytes: sign bits of zeros included."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def outcome_matches_reference(s: StateSet, party: int, kraus, result) -> bool:
    """`result` of apply_outcome(s, party, kraus), or the entry of `kraus`
    in an `apply_measurement` result, equals the per-state reference bit
    for bit: amplitudes, Ket views, labels and name; or, where the
    reference raises a ValueError, `result` is one with the same message."""
    try:
        ref, ref_labels = reference_apply_outcome(s, party, kraus)
    except ValueError as exc:
        return isinstance(result, ValueError) and str(result) == str(exc)
    if isinstance(result, ValueError):
        return False
    out, labels = result
    return (
        labels == ref_labels == out.labels == ref.labels
        and out.name == ref.name
        and same_bits(out.matrix(), ref.matrix())
        and all(same_bits(a.amplitudes, b.amplitudes) for a, b in zip(out.states, ref.states, strict=True))
    )


def _reference_subset_label(indices) -> str:
    return "P[" + ",".join(str(i) for i in indices) + "]"


def _reference_projective_oplms(sp: OplmSpace, bs: BlockStructure) -> list[LocalMeasurement]:
    """`projective_oplms` as one Python iteration per block union: the span
    and constraint residuals of each union tested on its summed projector."""
    if not bs.commuting:
        raise ValueError("operator space basis does not commute; no block structure")
    r = sp.support_dim
    nb = len(bs.blocks)
    out = []
    seen = set()
    for mask in range(1, 2**nb - 1):
        p = np.zeros((r, r), dtype=np.complex128)
        members = []
        for b in range(nb):
            if mask >> b & 1:
                p += bs.blocks[b]
                members.append(b)
        # complement dedup: keep the lexicographically smaller side
        comp_mask = (2**nb - 1) ^ mask
        if comp_mask < mask:
            continue
        proj = sum(np.trace(bb.conj().T @ p) * bb for bb in sp.basis)
        if np.abs(proj - p).max() > SPAN_TOL:
            continue
        if constraint_residual(sp, p) > SPAN_TOL:
            continue
        key = (np.round(p, 9) + 0.0).tobytes()
        if key in seen:
            continue
        seen.add(key)
        sup = bs.index_supports
        if all(sup[b] is not None for b in members):
            idx = sorted(i for b in members for i in sup[b])
            label = _reference_subset_label(idx)
        else:
            label = f"P[blocks {members}]"
        p_full = sp.embed(p)
        comp = np.eye(sp.support.shape[0], dtype=np.complex128) - p_full
        out.append(LocalMeasurement(sp.party, [p_full, comp], [label, f"I-{label}"]))
    return out


def reference_pair_tensors(mats: np.ndarray, support: np.ndarray) -> np.ndarray:
    """`oplm._pair_tensors` before the pair screen: G of every pair, dense."""
    comp = np.einsum("da,ndr->nar", support.conj(), mats)
    return np.einsum("iar,jbr->ijab", comp.conj(), comp)


def reference_constraint_rows(g: np.ndarray) -> np.ndarray:
    """`oplm._constraint_rows` before the pair screen: the rows of every
    pair, computed from its G."""
    n, _, r, _ = g.shape
    i, j = (k[:, None] for k in np.triu_indices(n, 1))
    a, b = _upper(r)
    diag = g[i, j, np.arange(r), np.arange(r)]
    c_ab, c_ba = g[i, j, a, b], g[i, j, b, a]
    rt2 = np.sqrt(2.0)
    s_ab = (c_ab + c_ba) / rt2
    d_ab = (c_ab - c_ba) / rt2
    rows = np.zeros((2 * len(i), r * r), dtype=np.float64)
    re, im = rows[0::2], rows[1::2]
    re[:, :r] = np.real(diag)
    im[:, :r] = np.imag(diag)
    re[:, r::2] = np.real(s_ab)
    re[:, r + 1 :: 2] = -np.imag(d_ab)
    im[:, r::2] = np.imag(s_ab)
    im[:, r + 1 :: 2] = np.real(d_ab)
    return rows


def constraint_residual(sp: OplmSpace, e: np.ndarray) -> float:
    """Largest |<psi_i|(E on p)|psi_j>| over the live pairs i < j, E in
    support coords: the value on (j, i) is the conjugate of that on (i, j)
    for Hermitian E, and a pair that is not live has none."""
    return float(np.abs(np.einsum("mab,ab->m", sp.pair_tensors, e)).max(initial=0.0))


def dense_pair_tensors(sp: OplmSpace) -> np.ndarray:
    """`sp`'s compact pair tensors scattered into the (n, n, r, r) layout
    the solver kept before: G of each live pair i < j in place, zeros
    elsewhere (the lower half included, which nothing reads)."""
    n, r = sp.n_states, sp.support_dim
    g = np.zeros((n, n, r, r), dtype=np.complex128)
    i, j = _upper(n)
    g[i[sp.pairs], j[sp.pairs]] = sp.pair_tensors
    return g


def reference_block_columns(s: StateSet, party: int, sp: OplmSpace, bs: BlockStructure) -> np.ndarray:
    """The columns `_block_unions` hands `_union_measurements`, as they were
    made from dense pair tensors: the blocks' span residuals, then their
    values on every pair i < j, taken from one product of the dense
    reference G (n^2 rows, both orders computed) with the blocks."""
    r, n = sp.support_dim, len(s)
    blocks = np.array(bs.blocks).reshape(len(bs.blocks), r * r).T
    basis = np.array(sp.basis).reshape(len(sp.basis), r * r)
    span = basis.T @ (basis.conj() @ blocks) - blocks
    g = reference_pair_tensors(party_matrices(s, party), sp.support)
    i, j = _upper(n)
    return np.concatenate([span, (g.reshape(n * n, -1) @ blocks)[i * n + j]])


def reference_is_oplm(s: StateSet, m: LocalMeasurement) -> bool:
    """`is_oplm` on the dense pair tensors: every outcome's value on every
    ordered pair i != j, both orders computed, at SPAN_TOL."""
    g = reference_pair_tensors(party_matrices(s, m.party), np.eye(s.space.party_dims[m.party], dtype=np.complex128))
    off = ~np.eye(len(s), dtype=bool)
    return not any(np.abs(np.einsum("ijab,ab->ij", g, k.conj().T @ k)[off]).max(initial=0.0) > SPAN_TOL for k in m.kraus)


# the reference loops over the 2^(r-1) index masks only while r <= this
REFERENCE_MAX_INDICES = 16


def reference_measurement_candidates(s: StateSet, party: int, sp: OplmSpace | None = None) -> list[LocalMeasurement]:
    """`measurement_candidates` without atoms, both union families
    enumerated one mask per Python iteration: the block unions as
    `_reference_projective_oplms`, and the index projectors, while the party
    occupies at most REFERENCE_MAX_INDICES indices, each tested by its own
    product with the per-pair constraint diagonals. A family of at most
    ATOM_CAP parts has at most that many atoms, so there the two agree."""
    if sp is None:
        sp = oplm_space(s, party, on_support=True)
    seen: dict[bytes, LocalMeasurement] = {}

    def add(m: LocalMeasurement):
        k1 = (np.round(m.kraus[0], 9) + 0.0).tobytes()
        k2 = (np.round(m.kraus[1], 9) + 0.0).tobytes()
        seen.setdefault(min(k1, k2), m)

    if sp.space_dim >= 2 and 2 <= sp.support_dim:
        bs = block_structure(sp)
        if bs.commuting:
            for m in _reference_projective_oplms(sp, bs):
                add(m)

    d = s.space.party_dims[party]
    mats = party_matrices(s, party)
    occ = occupied_indices(mats)
    r = len(occ)
    if 2 <= r <= REFERENCE_MAX_INDICES:
        u_occ = np.zeros((d, r), dtype=np.complex128)
        for col, i in enumerate(occ):
            u_occ[i, col] = 1.0
        g = reference_pair_tensors(mats, u_occ)
        n = len(s)
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        diag = np.array([np.diagonal(g[i, j]) for i, j in pairs])
        ident = np.eye(d, dtype=np.complex128)
        for mask in range(1, 2**r - 1):
            comp_mask = (2**r - 1) ^ mask
            if comp_mask < mask:
                continue
            t = np.array([(mask >> a) & 1 for a in range(r)], dtype=np.float64)
            vals = diag @ t
            if np.abs(vals).max(initial=0.0) > SPAN_TOL:
                continue
            p_full = np.zeros((d, d), dtype=np.complex128)
            idx = [occ[a] for a in range(r) if (mask >> a) & 1]
            for i in idx:
                p_full[i, i] = 1.0
            add(LocalMeasurement(party, [p_full, ident - p_full], [_reference_subset_label(idx), f"I-{_reference_subset_label(idx)}"]))
    return list(seen.values())


# ---------------------------------------------------------------------------
# the eager candidate build: every passing union's Kraus pair built with its
# MASK_CHUNK stack and kept, deduplicated on the full rounded bytes. The
# union code is `oplm`'s before candidates built their operators on first
# read, verbatim.


class ReferenceUnions(NamedTuple):
    """The passing unions of one family: measurements in ascending mask
    order, each outcome's part bits over `parts` (the family's parts in full
    dimension, then its residual), and each measurement's dedupe key."""

    measurements: list[LocalMeasurement]
    bits: np.ndarray  # (len(measurements), 2, len(parts))
    keys: list[bytes]
    parts: np.ndarray  # (n_family_parts + 1, d, d)


def reference_union_measurements(party: int, support: np.ndarray, parts: np.ndarray, index_sets, cols: np.ndarray) -> ReferenceUnions | None:
    """The measurements {P, I-P} for every union P of parts that passes a
    test linear in the union, in ascending mask order; None when the parts
    make more than ATOM_CAP atoms, the one bound on the candidate class.

    `parts` (k, r, r) are orthogonal projectors in the coordinates of
    `support` (d, r); a union passes when every entry of the sum of its
    parts' columns of `cols` is within SPAN_TOL. Only unions of `_atoms` can
    pass, and a union and its complement are one measurement, so the unions
    of atoms without the last are tried, one matrix product per MASK_CHUNK
    of them, in ascending part-mask order. Each chunk's passing unions are
    built as one stack: parts added in ascending order (the bits of adding
    them one union at a time), embedded by one batched product, and their
    dedupe keys rounded at once. P is labelled by its indices, P[...], when
    every member part has an index set, and by its parts, P[blocks ...].
    """
    owner, k = _atoms(cols)
    if k > ATOM_CAP:
        return None
    d = support.shape[0]
    ident = np.eye(d, dtype=np.complex128)
    full = support @ parts @ support.conj().T
    n_masks = 1 << max(k - 1, 0)
    out, keys, all_bits = [], [], []
    for lo in range(1, n_masks, MASK_CHUNK):
        masks = np.arange(lo, min(lo + MASK_CHUNK, n_masks))
        bits = (masks[:, None] >> owner) & 1  # a part's bit is its atom's
        bits = bits[np.abs(bits @ cols.T).max(axis=1, initial=0.0) <= SPAN_TOL]
        if not len(bits):
            continue
        p = np.zeros((len(bits),) + parts.shape[1:], dtype=np.complex128)
        for b, part in enumerate(parts):
            p[bits[:, b] == 1] += part
        p_full = support @ p @ support.conj().T
        q_full = ident - p_full
        rp, rq = np.round(p_full, 9) + 0.0, np.round(q_full, 9) + 0.0
        for c, row in enumerate(bits):
            members = np.flatnonzero(row).tolist()
            if all(index_sets[b] is not None for b in members):
                label = "P[" + ",".join(str(i) for i in sorted(i for b in members for i in index_sets[b])) + "]"
            else:
                label = f"P[blocks {members}]"
            out.append(LocalMeasurement(party, [p_full[c], q_full[c]], [label, f"I-{label}"]))
            keys.append(min(rp[c].tobytes(), rq[c].tobytes()))
        # P holds the union's parts; I - P the others and the residual
        all_bits.append(np.stack([np.c_[bits, np.zeros(len(bits))], np.c_[1 - bits, np.ones(len(bits))]], axis=1))
    stack = np.concatenate([full, (ident - full.sum(axis=0))[None]])
    return ReferenceUnions(out, np.concatenate(all_bits) if all_bits else np.zeros((0, 2, len(stack))), keys, stack)


def reference_block_unions(sp: OplmSpace, bs: BlockStructure) -> ReferenceUnions | None:
    """`projective_oplms` with each union's part bits and dedupe key."""
    if not bs.commuting:
        raise ValueError("operator space basis does not commute; no block structure")
    r = sp.support_dim
    blocks = np.array(bs.blocks).reshape(len(bs.blocks), r * r).T  # one column per block
    # an empty space (space_dim 0) spans nothing, so no union passes its span test
    basis = np.array(sp.basis).reshape(len(sp.basis), r * r)
    span = basis.T @ (basis.conj() @ blocks) - blocks
    n = sp.n_states
    i, j = _upper(n)
    vals = (dense_pair_tensors(sp).reshape(n * n, -1) @ blocks)[i * n + j]
    return reference_union_measurements(sp.party, sp.support, np.array(bs.blocks), bs.index_supports, np.concatenate([span, vals]))


def reference_eager_candidates(s: StateSet, party: int, sp: OplmSpace | None = None) -> list[tuple[LocalMeasurement, np.ndarray]]:
    """The measurements of `measurement_candidates` as the eager chunk build
    made them, in order, each with its survivor masks: the body of that
    function before candidates built their operators on first read, with
    every union keyed in every family, verbatim up to the lines that made
    the `Candidates` list."""
    if sp is None:
        sp = oplm_space(s, party, on_support=True)
    families = []
    if sp.space_dim >= 2 and sp.support_dim >= 2:
        bs = block_structure(sp)
        if bs.commuting:
            families.append(("block unions", reference_block_unions(sp, bs)))
    mats = party_matrices(s, party)
    occ = occupied_indices(mats)
    rows = mats[:, occ]
    diag = np.einsum("iar,jar->ija", rows.conj(), rows)
    support = np.eye(mats.shape[1], dtype=np.complex128)[:, occ]
    parts = np.array([np.diag(e) for e in np.eye(len(occ), dtype=np.complex128)])
    families.append(("index projectors", reference_union_measurements(party, support, parts, [[i] for i in occ], diag[_upper(len(s))])))
    seen: dict[bytes, tuple] = {}
    for u in [u for _, u in families if u is not None]:
        for m, mask, key in zip(u.measurements, union_survivors(s, party, u.parts, u.bits), u.keys):
            seen.setdefault(key, (m, mask))
    return list(seen.values())


def candidates_match_reference(got: list[LocalMeasurement], ref: list[LocalMeasurement]) -> bool:
    """Same candidates in the same order: party, labels and Kraus bytes,
    sign bits of zeros included."""
    return len(got) == len(ref) and all(
        g.party == r.party and g.labels == r.labels and all(same_bits(a, b) for a, b in zip(g.kraus, r.kraus, strict=True))
        for g, r in zip(got, ref)
    )


def mask_mismatches(s: StateSet, party: int, cands) -> list[str]:
    """The candidate outcomes whose mask in `cands.masks`, read from part
    weights, differs from the `survivors` mask of their Kraus operator; a
    mask stack of the wrong shape or type is one mismatch."""
    if cands.masks.dtype != bool or cands.masks.shape != (len(cands), 2, len(s)):
        return [f"masks {cands.masks.dtype}{cands.masks.shape} for {len(cands)} candidates on {s.labels}"]
    return [
        f"{m.labels[o]} on party {party} of {s.labels}"
        for m, got in zip(cands, cands.masks, strict=True)
        for o, kraus in enumerate(m.kraus)
        if not np.array_equal(got[o], survivors(s, party, kraus)[1])
    ]


@contextmanager
def recorded_part_stacks():
    """While open, appends to the yielded list the number of parts of every
    `union_survivors` product that `measurement_candidates` makes."""
    stacks: list[int] = []

    def recorded(s, party, parts, bits):
        stacks.append(len(parts))
        return union_survivors(s, party, parts, bits)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oplm, "union_survivors", recorded)
        yield stacks


@contextmanager
def recorded_candidates():
    """While open, appends to the yielded list (set, party, space, result)
    of every `measurement_candidates` call the search makes."""
    calls: list[tuple] = []

    def recorded(s, party, sp=None):
        got = measurement_candidates(s, party, sp)
        calls.append((s, party, sp, got))
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(protocol, "measurement_candidates", recorded)
        yield calls


def reference_is_locally_irreducible(s: StateSet) -> IrreducibilityVerdict:
    """`is_locally_irreducible` deciding every candidate by `eliminable_states`
    on its Kraus operators, one candidate at a time, instead of by the
    candidates' survivor masks."""
    if len(s) < 2:
        raise ValueError("irreducibility needs at least two states")
    # every candidate is tested at SPAN_TOL, and on a set that is not
    # orthogonal at it no measurement preserves orthogonality
    rep = gram_check(s, tol=SPAN_TOL)
    if not rep.ok:
        a, b, v = rep.violations[0]
        raise ValueError(f"input set is not orthogonal (|<{a}|{b}>| = {v:.4g} > {SPAN_TOL:g}); irreducibility is decided only for orthogonal sets")
    spaces = [oplm_space(s, p, on_support=True) for p in range(s.space.n_parties)]
    dims = {party_letter(p): sp.space_dim for p, sp in enumerate(spaces)}
    if all(v == 1 for v in dims.values()):
        return IrreducibilityVerdict("IRREDUCIBLE-EXACT", dims, None, 0, CLASS_NOTE)
    checked = 0
    note = CLASS_NOTE
    for p, sp in enumerate(spaces):
        cands = measurement_candidates(s, p, sp)
        if cands.capped:
            note += f"; {' and '.join(cands.capped)} not enumerated for party {party_letter(p)} (above {ATOM_CAP} atoms)"
        for m in cands:
            checked += 1
            elim = eliminable_states(s, m)
            for outcome in elim:
                if outcome and len(outcome) < len(s):
                    return IrreducibilityVerdict("REDUCIBLE", dims, m, checked, note)
    return IrreducibilityVerdict("IRREDUCIBLE-IN-CLASS", dims, None, checked, note)


def reference_cert(nd) -> dict | None:
    """`_Node.cert` as it was decided before `oplm.index_split`: every
    party's OPLM space solved first, from fresh solves, then
    IRREDUCIBLE-EXACT when all are one-dimensional, else the product and
    UPB route, with a fresh `check_unextendible`."""
    s = nd.set
    if len(s) < 2:
        return None
    dims = [oplm_space(s, p, on_support=True).space_dim for p in range(s.space.n_parties)]
    if all(d == 1 for d in dims):
        return {"kind": "IRREDUCIBLE-EXACT", "space_dims": {party_letter(p): d for p, d in enumerate(dims)}}
    if not nd.is_product:
        return None
    full = int(np.prod(nd.support_dims))
    lower = sum(r - 1 for r in nd.support_dims) + 1
    if not lower <= len(s) < full:
        return None
    try:
        v = upb.check_unextendible(s)
    except ValueError:
        return None
    return {"kind": "UPB", "support_note": v.support_note} if v.unextendible else None


def irreducibility_cases() -> list:
    """Sets for comparing `is_locally_irreducible` with its reference, as
    pytest params: every fixture but s1_general and s1_general at d = 4, 6,
    8, each with a seeded local-unitary image and three subsets (without the
    first state, without the last, every other state); s4 as A|BC;
    |i,0> on 24 x 2, where ATOM_CAP skips both families of party A; and two
    qubit pairs whose first candidate, P[0] on A, eliminates nothing:
    {|+,0>, |-,1>}, which P[0] on B reduces, and {|+,+>, |-,->}, which no
    index projector reduces."""
    sets = {name: build_fixture(name) for name in FIXTURE_NAMES if name != "s1_general"}
    sets |= {f"s1_general-d{d}": build_fixture("s1_general", d=d) for d in (4, 6, 8)}
    rng = np.random.default_rng(29)
    for tag, s in list(sets.items()):
        sets[f"{tag}-rotated"] = apply_local_unitaries(s, random_local_unitaries(s.space, rng))
        m = s.matrix()
        for sub, rows in (("tail", slice(1, None)), ("head", slice(None, -1)), ("even", slice(None, None, 2))):
            sets[f"{tag}-{sub}"] = StateSet.from_matrix(s.space, m[rows], s.labels[rows], s.name)
    sets["s4-A|BC"] = merge_parties(build_fixture("s4"), [(0,), (1, 2)])
    wide = PartySpace((24, 2))
    sets["e24x2"] = StateSet.from_matrix(wide, np.eye(48)[::2], [f"e{i}" for i in range(24)], "e24x2")
    sets |= qubit_pairs()
    return [pytest.param(s, id=tag) for tag, s in sets.items()]


def qubit_pairs() -> dict[str, StateSet]:
    """{|+,0>, |-,1>} and {|+,+>, |-,->}: on each party every pair is
    orthogonal on the other, so P[0] preserves orthogonality and keeps
    both states."""
    plus, minus = np.array([1, 1]) / np.sqrt(2), np.array([1, -1]) / np.sqrt(2)
    pairs = {"+0,-1": [np.kron(plus, [1, 0]), np.kron(minus, [0, 1])], "++,--": [np.kron(plus, plus), np.kron(minus, minus)]}
    return {tag: StateSet.from_matrix(PartySpace((2, 2)), np.array(rows), ["a", "b"], tag) for tag, rows in pairs.items()}


def reference_leading_vectors(s: StateSet, party: int) -> tuple[np.ndarray, np.ndarray]:
    """`local_factors` one Ket at a time: the leading left singular vector of
    each state's coefficient matrix, and the `schmidt_rank` product test."""
    cut = Bipartition.of({party}, s.space.n_parties)
    vecs = np.stack([np.linalg.svd(coefficient_matrix(k, cut))[0][:, 0] for k in s.states])
    return vecs, np.array([schmidt_rank(k, cut) <= 1 for k in s.states])


def reference_local_vectors(s: StateSet, party: int) -> np.ndarray | None:
    """`local_vectors` as one SVD and one phase fix per state."""
    n = s.space.n_parties
    if n == 1:
        return s.matrix()
    out = []
    for k in s.states:
        m = coefficient_matrix(k, Bipartition.of({party}, n))
        u, sv, vh = np.linalg.svd(m)
        if sv.size > 1 and sv[1] > RANK_RTOL * sv[0]:
            return None
        v = u[:, 0]
        j = int(np.argmax(np.abs(v) > 1e-7))
        v = v * (np.conj(v[j]) / abs(v[j]))
        out.append(v)
    return np.stack(out)


def reference_local_support_vectors(s: StateSet):
    """`upb._local_support_vectors` as one SVD per state and party."""
    supports = []
    locals_ = []
    for p in range(s.space.n_parties):
        mats = party_matrices(s, p)
        u, _ = _support_basis(mats)
        vecs = []
        for i in range(len(s)):
            uu, sv, _ = np.linalg.svd(mats[i])
            if sv.size > 1 and sv[1] > RANK_RTOL * sv[0]:
                raise ValueError(f"state {s.states[i].label} is not product across party {p}")
            vecs.append(u.conj().T @ uu[:, 0])
        supports.append(u)
        locals_.append(np.stack(vecs))
    return supports, locals_


def reference_check_unextendible(s: StateSet) -> UpbVerdict:
    """`upb.check_unextendible` without the dominance prune: the plain
    depth-first search over party assignments, trying every party in index
    order at every state. The pruned search must return the same verdict,
    assignment and witness; only `nodes_explored` may differ."""
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
        raise ValueError(f"{n_parties}^{k} assignments exceed cap; use numeric_extension_search")
    supports, locals_ = _local_support_vectors(s, factors)
    rdims = [u.shape[1] for u in supports]
    note = "supports: " + " x ".join(str(r) for r in rdims) + f" (ambient {'x'.join(str(d) for d in s.space.party_dims)})"

    nodes = 0
    spans = [np.zeros((r, 0), dtype=np.complex128) for r in rdims]
    assignment: list[int] = []

    def dfs(i: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > NODE_CAP:
            raise ValueError("assignment search exceeded node cap")
        if i == k:
            return True
        for p in range(n_parties):
            w = locals_[p][i]
            resid = w - spans[p] @ (spans[p].conj().T @ w)
            rn = np.linalg.norm(resid)
            grow = rn > 1e-8  # w is not yet in party p's span
            if grow:
                if spans[p].shape[1] + 1 >= rdims[p]:
                    continue  # party span would become full: no room for a witness
                spans[p] = np.hstack([spans[p], (resid / rn)[:, None]])
            assignment.append(p)
            if dfs(i + 1):
                return True
            assignment.pop()
            if grow:
                spans[p] = spans[p][:, :-1]
        return False

    if dfs(0):
        parts = []
        for p in range(n_parties):
            v = _orth_complement_vector(spans[p], rdims[p])
            parts.append(supports[p] @ v)
        amp = parts[0]
        for v in parts[1:]:
            amp = np.kron(amp, v)
        witness = Ket(s.space, amp, "extension")
        overlaps = np.abs(s.matrix().conj() @ witness.amplitudes)
        if overlaps.max() > SPAN_TOL:
            raise AssertionError("internal error: extension witness not orthogonal")
        return UpbVerdict(False, witness, list(assignment), note, nodes)
    return UpbVerdict(True, None, None, note, nodes)


def upb_run(fn, s: StateSet):
    """fn(s), or the ValueError it raises."""
    try:
        return fn(s)
    except ValueError as exc:
        return exc


def upb_outcome(result):
    """(unextendible, assignment, sha256 of the witness amplitudes) of a
    `upb_run` verdict, or the message of its ValueError: what the pruned
    and the reference search must agree on."""
    if isinstance(result, ValueError):
        return f"ValueError({result})"
    w = None if result.witness is None else hashlib.sha256(result.witness.amplitudes.tobytes()).hexdigest()
    return result.unextendible, result.assignment, w


def product_structure_mismatches(s: StateSet) -> list[str]:
    """Where the stacked product-structure path differs from the per-state
    references on `s`, bit for bit: `local_factors` and `local_vectors` on
    every party, and `upb._local_support_vectors` when every state is product."""
    bad = []
    factors = [local_factors(s, p) for p in range(s.space.n_parties)]
    for p, (vecs, mask) in enumerate(factors):
        ref_vecs, ref_mask = reference_leading_vectors(s, p)
        if not (same_bits(np.ascontiguousarray(vecs), ref_vecs) and np.array_equal(mask, ref_mask)):
            bad.append(f"local_factors of {s.name} at party {p}")
        lv, ref_lv = local_vectors(s, p), reference_local_vectors(s, p)
        if (lv is None) != (ref_lv is None) or (lv is not None and not same_bits(lv, ref_lv)):
            bad.append(f"local_vectors of {s.name} at party {p}")
    if all(mask.all() for _, mask in factors):
        got = upb._local_support_vectors(s, factors)
        ref = reference_local_support_vectors(s)
        if not all(same_bits(a, b) for g, r in zip(got, ref, strict=True) for a, b in zip(g, r, strict=True)):
            bad.append(f"_local_support_vectors of {s.name}")
    return bad


class ReferenceCheck:
    """While installed, compares the result of every `apply_outcome` call
    made through qlocc.protocol, every outcome of every `apply_measurement`
    call made through qlocc.certify, and every `canonical_key` call made
    through either, with the per-state references (counting in `sites` the
    calls each module makes itself: `apply_outcome`'s own call of
    `apply_measurement` counts as its caller's), every
    `measurement_candidates` call with the one-mask-per-iteration loops of
    `reference_measurement_candidates` (and the masks of its candidates
    with `survivors`, keeping each call's candidate count, the part count
    of its largest `union_survivors` product and the party dimension in
    `part_stacks`), and every `check_unextendible`
    call with the unpruned search (keeping each
    set with both results, verdict or ValueError, in `upb_calls`), and
    keeps every distinct set whose product structure was asked for through
    `local_factors` (in `factor_sets`, keyed by object id)."""

    def __init__(self):
        self.outcomes = 0
        self.keys = 0
        self.candidate_calls = 0
        self.part_stacks: list[tuple[int, int, int]] = []
        self.mismatches: list[str] = []
        self.factor_sets: dict[int, StateSet] = {}
        self.upb_calls: list[tuple[StateSet, UpbVerdict | ValueError, UpbVerdict | ValueError]] = []
        # "module.name" -> calls of that module's spy; a spy on a module
        # that no longer makes the call stays at 0
        self.sites: Counter[str] = Counter()

    def _counted(self, mod, name: str, spy):
        site = f"{mod.__name__}.{name}"
        self.sites[site] += 0

        def counted(*args, **kwargs):
            self.sites[site] += 1
            return spy(*args, **kwargs)

        return counted

    @contextmanager
    def installed(self):
        apply_outcome, apply_measurement, canonical_key = certify.apply_outcome, certify.apply_measurement, certify.canonical_key
        check_unextendible = certify.check_unextendible
        measurement_candidates = oplm.measurement_candidates
        # apply_outcome calls in progress: their own apply_measurement call
        # is checked as theirs
        applying = []

        def checked_apply(s, party, kraus, *args, **kwargs):
            applying.append(kraus)
            try:
                result = apply_outcome(s, party, kraus, *args, **kwargs)
            finally:
                applying.pop()
            self.outcomes += 1
            if not outcome_matches_reference(s, party, kraus, result):
                self.mismatches.append(f"apply_outcome on {s.labels} at party {party}")
            return result

        def checked_measurement(s, party, kraus, *args, **kwargs):
            results = apply_measurement(s, party, kraus, *args, **kwargs)
            for o, (k, result) in enumerate(zip(kraus, results, strict=True)):
                self.outcomes += 1
                if not outcome_matches_reference(s, party, k, result):
                    self.mismatches.append(f"apply_measurement outcome {o} on {s.labels} at party {party}")
            return results

        counted_measurement = self._counted(certify, "apply_measurement", checked_measurement)

        def measurement_spy(*args, **kwargs):
            if applying:
                return apply_measurement(*args, **kwargs)
            return counted_measurement(*args, **kwargs)

        def checked_key(s):
            key = canonical_key(s)
            self.keys += 1
            if key != reference_canonical_key(s):
                self.mismatches.append(f"canonical_key of {s.labels}")
            return key

        def checked_candidates(s, party, sp=None):
            stacks.clear()
            got = measurement_candidates(s, party, sp)
            self.part_stacks.append((len(got), max(stacks, default=0), s.space.party_dims[party]))
            self.candidate_calls += 1
            if not candidates_match_reference(got, reference_measurement_candidates(s, party, sp)):
                self.mismatches.append(f"measurement_candidates on {s.labels} at party {party}")
            self.mismatches += mask_mismatches(s, party, got)
            return got

        def recorded_factors(s, party):
            self.factor_sets.setdefault(id(s), s)
            return local_factors(s, party)

        def checked_upb(s):
            got, ref = upb_run(check_unextendible, s), upb_run(reference_check_unextendible, s)
            self.upb_calls.append((s, got, ref))
            if upb_outcome(got) != upb_outcome(ref):
                self.mismatches.append(f"check_unextendible on {s.labels}")
            if isinstance(got, ValueError):
                raise got
            return got

        with recorded_part_stacks() as stacks, pytest.MonkeyPatch.context() as mp:
            mp.setattr(protocol, "apply_outcome", self._counted(protocol, "apply_outcome", checked_apply))
            mp.setattr(certify, "apply_measurement", measurement_spy)
            for mod in (protocol, certify):
                mp.setattr(mod, "canonical_key", self._counted(mod, "canonical_key", checked_key))
            mp.setattr(certify, "check_unextendible", self._counted(certify, "check_unextendible", checked_upb))
            for mod in (oplm, protocol):
                mp.setattr(mod, "measurement_candidates", checked_candidates)
            for mod in (states, certify, partitions, upb):
                mp.setattr(mod, "local_factors", recorded_factors)
            yield self


# ---------------------------------------------------------------------------
# the eager AND-OR engine: every outcome of every move applied and interned
# when a node is expanded, the activation transcript in insertion order


class EagerSetAnalyzer(SetAnalyzer):
    """`SetAnalyzer` with the eager move expansion it had before children
    were keyed on first visit: `moves`, `_ordered_moves`, `search` and
    `activation_transcript` are that code, reading the node's fields
    (`_Node`) where it read string keys. Move entries are
    (party, measurement, [(outcome, child key or None, labels)])."""

    def moves(self, key: bytes):
        nd = self.nodes[key]
        if nd.moves is not None:
            return nd.moves
        s = nd.set
        out = []
        # the memo slots that expanded this node, when ATOM_CAP bound at it
        nd.capped_in = None
        for p in range(s.space.n_parties):
            cands = measurement_candidates(s, p, nd.oplm(p))
            if cands.capped:
                nd.capped_in = set()
            for m in cands:
                children = []
                for oi, kraus in enumerate(m.kraus):
                    child, labels = apply_outcome(s, p, kraus)
                    children.append((oi, self.intern(child) if len(child) else None, labels))
                out.append((p, m, children))
        nd.moves = out
        return out

    def _ordered_moves(self, key: bytes, exhaustive: bool):
        s = self.nodes[key].set
        n = len(s)

        def sort_key(mv):
            p, m, children = mv
            elim = sum(n - len(labels) for _, _, labels in children)
            min_surv = min((len(labels) for _, ck, labels in children if ck is not None), default=0)
            return (elim if exhaustive else -elim, -min_surv, p, m.labels[0])

        return sorted(self.moves(key), key=sort_key)

    def search(self, slot: str, key: bytes, depth: int):
        """Tri-state memoized AND-OR search under the rule row `slot`.

        Returns (True, tree) | (False, None) conclusive | (None, None) when
        the depth cap truncated the exploration.
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
        incomplete = False
        moves = self._ordered_moves(key, rule.exhaustive)
        if nd.capped_in is not None:
            nd.capped_in.add(slot)
        for p, m, children in moves:
            subtrees = []
            good = True
            for _oi, ck, _labels in children:
                st, subtree = self.search(slot, ck, depth - 1) if ck is not None else (True, None)
                subtrees.append(subtree)
                good &= st is True
                incomplete |= st is None
                if not (good or rule.exhaustive):
                    break
            if good:
                tree = Measure(p, m, subtrees)
                nd.slots[slot] = (True, tree, depth)
                return True, tree
        status = None if incomplete else False
        nd.slots[slot] = (status, None, depth)
        return status, None

    def activation_transcript(self, max_depth: int):
        entries = []
        for key, nd in self.nodes.items():
            if "act" not in nd.slots:
                continue
            s = nd.set
            cert = None if nd.exact_nonactivable else nd.cert
            if len(s) <= 1:
                dist, basis = True, "trivial"
            elif nd.exact_nonactivable:
                dist, basis = True, "EXACT (C2xCn product rule)"
            elif cert:
                dist, basis = False, "certified locally indistinguishable"
            else:
                dist = self.search("dist_status", key, max_depth)[0]
                basis = "search-in-class"
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
# per-Ket references for the state model: normalization, reduced states,
# local redundancy and qset I/O


def reference_normalized(amplitudes) -> np.ndarray:
    """One state's amplitudes normalized as `Ket` once did it inline: divide
    by `np.linalg.norm` unless that is within 1e-12 of 1."""
    amps = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
    n = np.linalg.norm(amps)
    return amps / n if abs(n - 1.0) > 1e-12 else amps


def reference_reduced_state(k: Ket, keep) -> np.ndarray:
    """`reduced_state` on one ket's own tensor."""
    fdims = k.space.factor_dims()
    keep = sorted(keep)
    discard = [i for i in range(len(fdims)) if i not in keep]
    m = k.amplitudes.reshape(fdims).transpose(keep + discard).reshape(int(np.prod([fdims[i] for i in keep])), -1)
    return m @ m.conj().T


def reference_redundancy_check(s: StateSet, tol: float = ORTHO_TOL, whole_parties: bool = False) -> RedundancyReport:
    """`redundancy_check` (or, over whole parties, the check behind
    `redundancy_check_whole_parties`) with one reduced state per Ket and
    discard choice and a double loop over the pairs."""
    if whole_parties:
        s = StateSet(PartySpace(s.space.party_dims), [Ket(PartySpace(s.space.party_dims), k.amplitudes, k.label) for k in s.states], s.name)
    if not reference_gram_check(s, max(tol, ORTHO_TOL)).ok:
        raise ValueError("redundancy_check requires a pairwise orthogonal set")
    fnames = s.space.factor_names()
    nf = len(fnames)
    violations = {}
    witness = None
    for mask in range(1, 2**nf - 1):
        keep = [i for i in range(nf) if mask >> i & 1]
        discard = tuple(fnames[i] for i in range(nf) if not mask >> i & 1)
        rhos = [reference_reduced_state(k, keep) for k in s.states]
        bad = []
        for i in range(len(s)):
            for j in range(i + 1, len(s)):
                val = float(np.real(np.trace(rhos[i] @ rhos[j])))
                if val > tol:
                    bad.append((s.states[i].label, s.states[j].label, val))
        bad.sort(key=lambda t: -t[2])
        violations[discard] = bad
        if not bad and witness is None:
            witness = discard
    return RedundancyReport(redundant=witness is not None, witness_discard=witness, violations=violations)


_KET_RE = re.compile(r"\|(\d+(?:,\d+)*)>")
_SQRT_RE = re.compile(r"1/sqrt\((\d+)\)")
_COMPLEX_RE = re.compile(r"\((-?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?),(-?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\)")
_RATIONAL_RE = re.compile(r"(-?\d+)/(\d+)(?!\w)")
_DECIMAL_RE = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")


# The character walker that tokenized qset terms before the one-pattern
# tokenizer, kept verbatim as the reference for its values and errors.
def reference_parse_terms(expr: str, line_no: int, col0: int, space: PartySpace):
    """Parse `term (+|-) term ...`; returns [(coeff, index tuple)]."""
    pos = 0
    n = len(expr)
    terms = []
    sign = 1.0
    expect_term = True
    while True:
        while pos < n and expr[pos].isspace():
            pos += 1
        if pos >= n:
            break
        col = col0 + pos
        ch = expr[pos]
        if not expect_term:
            if ch == "+":
                sign = 1.0
            elif ch == "-":
                sign = -1.0
            else:
                raise QsetError("E_SYNTAX", line_no, col, "expected + or - between terms", expr[pos : pos + 8])
            pos += 1
            expect_term = True
            continue
        coeff = complex(1.0)
        m = _SQRT_RE.match(expr, pos)
        if m:
            coeff = 1.0 / np.sqrt(int(m.group(1)))
            pos = m.end()
        else:
            m = _COMPLEX_RE.match(expr, pos)
            if m:
                coeff = complex(float(m.group(1)), float(m.group(2)))
                pos = m.end()
            else:
                m = _RATIONAL_RE.match(expr, pos)
                if m:
                    if int(m.group(2)) == 0:
                        raise QsetError("E_SYNTAX", line_no, col, "zero denominator", m.group(0))
                    coeff = int(m.group(1)) / int(m.group(2))
                    pos = m.end()
                elif ch != "|":
                    m = _DECIMAL_RE.match(expr, pos)
                    if m:
                        coeff = float(m.group(0))
                        pos = m.end()
                    else:
                        raise QsetError("E_SYNTAX", line_no, col, "expected coefficient or ket", expr[pos : pos + 8])
        if pos < n and expr[pos] == "*":
            pos += 1
        while pos < n and expr[pos].isspace():
            pos += 1
        col = col0 + pos
        m = _KET_RE.match(expr, pos)
        if not m:
            raise QsetError("E_SYNTAX", line_no, col, "expected ket |i0,i1,...>", expr[pos : pos + 12])
        idx = tuple(int(x) for x in m.group(1).split(","))
        if len(idx) != space.n_parties:
            raise QsetError("E_DIM", line_no, col, f"ket has {len(idx)} indices for {space.n_parties} parties", m.group(0))
        for p, i in enumerate(idx):
            if i >= space.party_dims[p]:
                raise QsetError("E_DIM", line_no, col, f"index {i} out of range for party {p} (dim {space.party_dims[p]})", m.group(0))
        pos = m.end()
        terms.append((sign * coeff, idx))
        sign = 1.0
        expect_term = False
    if expect_term and terms:
        raise QsetError("E_SYNTAX", line_no, col0 + pos, "dangling operator", "")
    return terms


def reference_matrix_json(m) -> list:
    """`matrix_json` one element at a time, as `protocol` built it before it
    took one `tolist` of the stacked real and imaginary parts."""
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m)]


def reference_kraus_from_json(entry) -> np.ndarray | None:
    """An outcome's `kraus` entry read one [re, im] pair at a time, as
    `protocol` did before it loaded the entry in one call: the matrix, or
    None where that loader called the entry malformed."""
    try:
        k = np.array([[complex(re, im) for re, im in row] for row in entry])
    except (TypeError, ValueError, OverflowError):
        k = None
    if k is None or k.ndim != 2 or k.shape[0] != k.shape[1] or not k.size or not np.isfinite(k).all():
        return None
    return k


def reference_parse_qset(text: str) -> StateSet:
    """`parse_qset` for a well-formed document, one Ket per state; for one
    with a malformed term, the error of the first, at the column
    `parse_qset` gives."""
    dims, splits, name, kets = None, {}, "", []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line.startswith("dims:"):
            dims = tuple(int(x) for x in line[len("dims:") :].split())
        elif line.startswith("split:"):
            party, factors = line[len("split:") :].split("=")
            splits[int(party)] = tuple(int(x) for x in factors.split())
        elif line.startswith("name:"):
            name = line[len("name:") :].strip()
        elif line.startswith("state"):
            m = re.match(r"state\s+([^\s:]+)\s*:\s*(.*)$", line)
            label, expr = m.groups()
            space = PartySpace(dims, splits)
            amps = np.zeros(space.total_dim, dtype=np.complex128)
            for coeff, idx in reference_parse_terms(expr, line_no, raw.index(line[0]) + 1 + m.start(2), space):
                amps[int(np.ravel_multi_index(idx, dims))] += coeff
            kets.append(Ket(space, amps, label))
    return StateSet(PartySpace(dims, splits), kets, name)


def reference_serialize_qset(s: StateSet) -> str:
    """`serialize_qset` reading each Ket's amplitudes one at a time."""
    lines = ["qset v1", "dims: " + " ".join(str(d) for d in s.space.party_dims)]
    for p in sorted(s.space.sub_splits):
        lines.append(f"split: {p} = " + " ".join(str(f) for f in s.space.sub_splits[p]))
    if s.name:
        lines.append(f"name: {s.name}")
    for k in s.states:
        terms = []
        for flat in range(s.space.total_dim):
            a = k.amplitudes[flat]
            if abs(a) <= 1e-14:
                continue
            idx = np.unravel_index(flat, s.space.party_dims)
            ket = "|" + ",".join(str(int(i)) for i in idx) + ">"
            terms.append(f"({a.real + 0.0:.17g},{a.imag + 0.0:.17g})*{ket}")
        lines.append(f"state {k.label}: " + " + ".join(terms))
    return "\n".join(lines) + "\n"


def _outcome(fn, *args, **kwargs) -> str:
    """repr of fn's result, or of the ValueError it raises: reprs of floats
    tell every bit apart, and a dict's repr keeps its order."""
    try:
        return repr(fn(*args, **kwargs))
    except ValueError as exc:
        return f"ValueError({exc})"


def redundancy_mismatches(s: StateSet) -> list[str]:
    """Where the batched redundancy path differs from the per-Ket references
    on `s`, bit for bit: the reduced states of every keep choice, every
    trace product (each pair is a violation at tol=-1), the whole report,
    and the whole-party check."""
    bad = []
    fdims = s.space.factor_dims()
    for mask in range(1, 2 ** len(fdims) - 1):
        keep = [i for i in range(len(fdims)) if mask >> i & 1]
        got = states._reduced_states(s.matrix(), fdims, keep)
        ref = [reference_reduced_state(k, keep) for k in s.states]
        if not (same_bits(got, np.stack(ref)) and all(same_bits(reduced_state(k, keep), r) for k, r in zip(s.states, ref))):
            bad.append(f"reduced states of {s.name} keeping {keep}")
    for tol in (ORTHO_TOL, -1.0):
        if _outcome(redundancy_check, s, tol) != _outcome(reference_redundancy_check, s, tol):
            bad.append(f"redundancy_check of {s.name} at tol={tol}")
    if _outcome(redundancy_check_whole_parties, s) != _outcome(reference_redundant_whole_parties, s):
        bad.append(f"redundancy_check_whole_parties of {s.name}")
    return bad


def reference_redundant_whole_parties(s: StateSet) -> bool:
    """`redundancy_check_whole_parties` on the per-Ket reference."""
    return s.space.n_parties > 1 and reference_redundancy_check(s, whole_parties=True).redundant


def qset_mismatches(s: StateSet) -> list[str]:
    """Where qset I/O on the amplitude matrix differs from the per-Ket
    references on `s`: the serialized text, and the parsed set's matrix
    (bit for bit), labels, name and space."""
    bad = []
    text = qset.serialize_qset(s)
    if text != reference_serialize_qset(s):
        bad.append(f"serialize_qset of {s.name}")
    got, ref = qset.parse_qset(text), reference_parse_qset(text)
    if not (same_bits(got.matrix(), ref.matrix()) and (got.labels, got.name, got.space) == (ref.labels, ref.name, ref.space)):
        bad.append(f"parse_qset of {s.name}")
    return bad


def state_model_cases() -> list:
    """Sets for the per-Ket reference checks, as pytest params: every
    fixture (s1_general at d = 4, 6), the two-block merges of s2 and s4, a
    seeded local-unitary image of each of these, and the leaf sets of the s3
    and s4 activation certificates."""
    sets = {f"s1_general-d{d}": build_fixture("s1_general", d=d) for d in (4, 6)}
    sets |= {name: build_fixture(name) for name in FIXTURE_NAMES if name != "s1_general"}
    for name in ("s2", "s4"):
        for blocks in partitions._two_block_partitions(sets[name].space.n_parties):
            sets[f"{name}-{partitions._partition_label(blocks)}"] = partitions._merge_for(sets[name], blocks)
    rng = np.random.default_rng(23)
    sets |= {f"{tag}-rotated": apply_local_unitaries(s, random_local_unitaries(s.space, rng)) for tag, s in sets.items()}
    s4_abc = merge_parties(build_fixture("s4"), [(0,), (1, 2)])
    for s, tree in ((sets["s3"], "s3_activation"), (s4_abc, "s4_abc_activation")):
        sets |= {f"{tree}-{path}": leaf_set for path, leaf_set, _ in _collect_leaves(s, builtin_protocol(tree))}
    return [pytest.param(s, id=tag) for tag, s in sets.items()]


@contextmanager
def counted_kets():
    """While installed, appends the label of every `Ket` constructed to the
    yielded list."""
    built: list[str] = []
    init = Ket.__init__

    def counting(self, space, amplitudes, label=""):
        built.append(label)
        init(self, space, amplitudes, label)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Ket, "__init__", counting)
        yield built
