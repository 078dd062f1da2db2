"""Shared test helpers: random state-set generators, malformed protocol
trees, the pinned benchmark digests, and per-state reference versions of
the matrix code in qlocc."""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from qlocc import partitions, protocol, states, upb
from qlocc.linalg import RANK_RTOL
from qlocc.oplm import ELIM_TOL, SPAN_TOL, LocalMeasurement, _support_basis
from qlocc.protocol import builtin_protocol
from qlocc.states import (
    Bipartition,
    Ket,
    OrthoReport,
    PartySpace,
    StateSet,
    coefficient_matrix,
    local_factors,
    local_vectors,
    party_matrices,
    schmidt_rank,
)

DIGESTS = json.loads((Path(__file__).resolve().parents[1] / "bench" / "digests.json").read_text())


def digest(payload) -> str:
    """sha256 of json.dumps(payload, sort_keys=True), as pinned in bench/digests.json."""
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


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
        if nrm <= ELIM_TOL:
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
    """`result` of apply_outcome(s, party, kraus) equals the per-state
    reference bit for bit: amplitudes, Ket views, labels and name."""
    out, labels = result
    ref, ref_labels = reference_apply_outcome(s, party, kraus)
    return (
        labels == ref_labels == out.labels == ref.labels
        and out.name == ref.name
        and same_bits(out.matrix(), ref.matrix())
        and all(same_bits(a.amplitudes, b.amplitudes) for a, b in zip(out.states, ref.states, strict=True))
    )


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
    """While installed, compares every `apply_outcome` and `canonical_key`
    call made through qlocc.protocol with the per-state references, and
    keeps every distinct set whose product structure was asked for through
    `local_factors` (in `factor_sets`, keyed by object id)."""

    def __init__(self):
        self.outcomes = 0
        self.keys = 0
        self.mismatches: list[str] = []
        self.factor_sets: dict[int, StateSet] = {}

    @contextmanager
    def installed(self):
        apply_outcome, canonical_key = protocol.apply_outcome, protocol.canonical_key

        def checked_apply(s, party, kraus, *args, **kwargs):
            result = apply_outcome(s, party, kraus, *args, **kwargs)
            self.outcomes += 1
            if not outcome_matches_reference(s, party, kraus, result):
                self.mismatches.append(f"apply_outcome on {s.labels} at party {party}")
            return result

        def checked_key(s):
            key = canonical_key(s)
            self.keys += 1
            if key != reference_canonical_key(s):
                self.mismatches.append(f"canonical_key of {s.labels}")
            return key

        def recorded_factors(s, party):
            self.factor_sets.setdefault(id(s), s)
            return local_factors(s, party)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(protocol, "apply_outcome", checked_apply)
            mp.setattr(protocol, "canonical_key", checked_key)
            for mod in (states, protocol, partitions, upb):
                mp.setattr(mod, "local_factors", recorded_factors)
            yield self
