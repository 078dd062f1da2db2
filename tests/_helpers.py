"""Shared test helpers: random state-set generators and malformed protocol trees."""

from __future__ import annotations

import numpy as np

from qlocc.oplm import LocalMeasurement
from qlocc.protocol import builtin_protocol
from qlocc.states import Ket, PartySpace, StateSet


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
