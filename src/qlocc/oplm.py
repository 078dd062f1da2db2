"""Orthogonality-preserving local measurement (OPLM) analysis.

For a party p of an orthogonal set {psi_i}, the OPLM operator space is the
real linear space of Hermitian E with <psi_i|(E on p)|psi_j> = 0 for all
i != j. Every POVM element M^dag M of an orthogonality-preserving local
measurement lies in this space, so its structure bounds what any single
round of local measurement can do.

The solver works over real Hermitian coordinates (d diagonal entries plus
sqrt2-scaled real/imag off-diagonal pairs), so the nullspace of the
constraint matrix is exactly the operator space and SVD-orthonormal
coordinate vectors give a trace-orthonormal basis.

The constraints of a pair (i, j) are those of (j, i) conjugated, so only
the pairs i < j are kept. In a set built on the computational basis most
of them constrain nothing: the pair tensor of (i, j) is exactly zero when
no index of the other parties is occupied by both states. One boolean
product over the exact zero pattern finds the pairs that share one, and
only their tensors and constraint rows are computed; every other row is
the constant row the arithmetic gives a zero tensor. A solved space keeps
the tensors of these live pairs only.

One `_tall_svd` of all constraint rows, those constant rows included,
gives rank and basis: the rank from its singular values, the basis from
the tail of its right singular vectors `vh`. These are the full-matrices
SVD's bit for bit, without its m x m `U`; a reduced SVD, or one of the
computed rows only, moves them by a few ulps, which reaches the Kraus
operators and the pinned certificate bytes.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .linalg import CLUSTER_TOL, KEY_DECIMALS, NOISE_TOL, RANK_RTOL, SPAN_TOL
from .states import StateSet, gram_check, gram_matrix, index_support, occupied_indices, party_letter, party_matrices, support_basis, survivors, union_survivors

# a union family is enumerated (2^(k-1) masks) only while it has k <= this
# many atoms; above it the family is skipped, and the skip is named
ATOM_CAP = 16
# union masks tested per matrix product; bounds the test's memory at the cap
MASK_CHUNK = 256
# state pairs per pair-tensor product; bounds the gathered copies of a set
# whose pairs all share an index (a set rotated off the computational basis)
PAIR_CHUNK = 512


@cache
def _upper(r: int) -> tuple[np.ndarray, np.ndarray]:
    """`np.triu_indices(r, 1)`, read-only: the pairs a < b of r items in
    row-major order, as the off-diagonal coordinates of an r x r operator
    or the state pairs of a set of r states. Building them costs about as
    much as a small space's basis."""
    a, b = np.triu_indices(r, 1)
    a.flags.writeable = b.flags.writeable = False
    return a, b


def _pair_tensors(mats: np.ndarray, support: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pair tensors of the live pairs i < j, as an (m, r, r) stack, and
    each one's index into `_upper(n)`: G with <psi_i|(E on p)|psi_j> =
    sum_ab E[a,b] G[a,b] for E expressed in the support basis.

    G sums over the other parties' index t, and each term is zero where
    state i or state j has no weight at t. So only the pairs that share an
    occupied t are live (one boolean product of the exact zero pattern
    finds them), and they are computed PAIR_CHUNK at a time; every other
    pair's G is +0, as the full sum of signed zero terms gives it.
    """
    # C order keeps each state's block contiguous for the gathers below
    comp = np.einsum("da,ndt->nat", support.conj(), mats, order="C")
    n, r = comp.shape[:2]
    occ = (comp != 0).any(axis=1)  # (n, t): the indices each state occupies
    iu, ju = _upper(n)
    pairs = np.flatnonzero((occ @ occ.T)[iu, ju])
    g = np.empty((len(pairs), r, r), dtype=np.complex128)
    left = comp.conj()
    for lo in range(0, len(pairs), PAIR_CHUNK):
        p = pairs[lo : lo + PAIR_CHUNK]
        g[lo : lo + len(p)] = np.einsum("pat,pbt->pab", left[iu[p]], comp[ju[p]])
    return g, pairs


def _constraint_rows(g: np.ndarray, pairs: np.ndarray, n: int) -> np.ndarray:
    """Real constraint matrix over Hermitian coordinates from the pair
    tensors `g` of the live `pairs` of n states (see `_pair_tensors`).

    Two rows (real, imaginary part) per state pair i<j in row-major order.
    Coordinate layout: [e_0..e_{r-1}, then for a<b in row-major order:
    x_ab, y_ab]. Only the rows of live pairs are computed; any other pair
    gets the rows its zero G gives, +0 everywhere but -0 at the y_ab of the
    real-part row (from -imag(d_ab)).
    """
    r = g.shape[-1]
    a, b = _upper(r)
    d = np.arange(r)
    rt2 = np.sqrt(2.0)
    rows = np.zeros((n * (n - 1) // 2, 2, r * r), dtype=np.float64)
    rows[:, 0, r + 1 :: 2] = -0.0
    for lo in range(0, len(pairs), PAIR_CHUNK):
        c = g[lo : lo + PAIR_CHUNK]
        diag = c[:, d, d]
        c_ab, c_ba = c[:, a, b], c[:, b, a]
        s_ab = (c_ab + c_ba) / rt2
        d_ab = (c_ab - c_ba) / rt2
        part = np.empty((len(c), 2, r * r), dtype=np.float64)
        re, im = part[:, 0], part[:, 1]
        re[:, :r] = np.real(diag)
        im[:, :r] = np.imag(diag)
        re[:, r::2] = np.real(s_ab)
        re[:, r + 1 :: 2] = -np.imag(d_ab)
        im[:, r::2] = np.imag(s_ab)
        im[:, r + 1 :: 2] = np.real(d_ab)
        rows[pairs[lo : lo + PAIR_CHUNK]] = part
    return rows.reshape(-1, r * r)


def _coords_to_matrix(h: np.ndarray, r: int) -> np.ndarray:
    """The r x r Hermitian matrices of real coordinates h (..., r*r)."""
    e = np.zeros(h.shape[:-1] + (r, r), dtype=np.complex128)
    d = np.arange(r)
    e[..., d, d] = h[..., :r]
    a, b = _upper(r)
    x, y = h[..., r::2], h[..., r + 1 :: 2]
    rt2 = np.sqrt(2.0)
    e[..., a, b] += (x + 1j * y) / rt2
    e[..., b, a] += (x - 1j * y) / rt2
    return e


def _rank(sv: np.ndarray) -> int:
    """Numerical rank of a constraint matrix from its singular values."""
    # absolute floor: states are unit vectors, so rows from orthogonal
    # pairs are pure rounding noise and must not count as constraints
    cut = max(RANK_RTOL * sv[0], NOISE_TOL) if sv.size else NOISE_TOL
    return int(np.sum(sv > cut))


def _tall_svd(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The singular values and `vh` of `np.linalg.svd(rows)`, bit for bit,
    without its m x m `U` when rows (m, k) has more than 4k + 200 rows.

    Such rows are replaced by [R; 0], R from their QR factorization and the
    zero rows padding it to 4k + 200. For m >= 11k/6, LAPACK's dgesdd
    QR-factors first and reads only R after that, and the QR of [R; 0] is R
    itself (every Householder scalar is 0). dgesdd sees m otherwise only
    through its workspace, and at 4k + 200 rows that already gives dormlq
    its full block. The unpadded k x k SVD of R is not enough: its smaller
    workspace changes bits of `vh` (12 of 144 seeded random tall matrices,
    k = r^2 for r = 1..12).
    """
    m, k = rows.shape
    cap = 4 * k + 200
    if m > cap:
        padded = np.zeros((cap, k))
        padded[:k] = np.linalg.qr(rows, mode="r")
        rows = padded
    _, sv, vh = np.linalg.svd(rows)
    return sv, vh


@dataclass(eq=False)
class OplmSpace:
    """OPLM operator space of one party, in support coordinates: a
    trace-orthonormal `basis` of r x r Hermitian operators, so that
    `space_dim` is its length."""

    party: int
    support: np.ndarray  # (d, r) orthonormal columns
    support_indices: tuple[int, ...] | None  # basis labels when coordinate-aligned
    basis: list[np.ndarray]
    n_states: int
    pair_tensors: np.ndarray  # (m, r, r): G of the live pairs i < j (`_pair_tensors`)
    pairs: np.ndarray  # (m,): each one's index into `_upper(n_states)`

    @property
    def space_dim(self) -> int:
        return len(self.basis)

    @property
    def support_dim(self) -> int:
        return self.support.shape[1]

    def identity_residual(self) -> float:
        """Distance of I (on the support) from the span; ~0 always."""
        r = self.support_dim
        ident = np.eye(r, dtype=np.complex128)
        proj = sum(np.trace(b.conj().T @ ident) * b for b in self.basis)
        return float(np.abs(proj - ident).max())

    def worst_overlap(self) -> float:
        """max |<psi_i|psi_j>| over pairs i != j: the identity's constraint
        values, since every state lies in the support; a pair that is not
        live has none."""
        return float(np.abs(np.einsum("maa->m", self.pair_tensors)).max(initial=0.0))

    def embed(self, e: np.ndarray) -> np.ndarray:
        """Lift a support-coordinate operator to the full party dimension."""
        return self.support @ e @ self.support.conj().T


def oplm_space(s: StateSet, party: int, on_support: bool = False) -> OplmSpace:
    """Solve for the OPLM operator space of one party.

    With on_support=False (the default) the space lives on the full party
    dimension; with on_support=True it is compressed to the joint local
    support of the states, which is the relevant arena once earlier
    measurement rounds have shrunk the set.
    """
    if len(s) == 0:
        raise ValueError("empty state set")
    d = s.space.party_dims[party]
    mats = party_matrices(s, party)
    if on_support:
        support, idx = support_basis(s, party)
    else:
        support, idx = np.eye(d, dtype=np.complex128), tuple(range(d))
    g, pairs = _pair_tensors(mats, support)
    r = support.shape[1]
    # rows of no pair (one state) constrain nothing: `vh` is then the identity
    sv, vh = _tall_svd(_constraint_rows(g, pairs, len(s)))
    return OplmSpace(party, support, idx, list(_coords_to_matrix(vh[_rank(sv) :], r)), len(s), g, pairs)


def is_trivial(sp: OplmSpace) -> bool:
    """True iff only scalar multiples of the identity preserve orthogonality:
    the space is one-dimensional and holds I. On a set that is not
    orthogonal, a one-dimensional space need not hold I."""
    return sp.space_dim == 1 and sp.identity_residual() <= SPAN_TOL


def index_split(s: StateSet, party: int) -> bool:
    """True only when `oplm_space(s, party, on_support=True)` would have
    dimension >= 2, so that `is_trivial` fails, decided without a solve.

    It is True when both hold:
    - the exact nonzero patterns of the states on `party` (no tolerance)
      fall into two or more groups with disjoint index sets: the connected
      components of "shares an occupied index";
    - the largest overlap eps = max |<psi_i|psi_j>| over i != j satisfies
      eps * sqrt(n(n - 1)) <= NOISE_TOL.

    Proof. Let P project onto one group's indices and S be the support. Each
    group's local vectors lie in the span of its own indices, so P maps S
    into S; on S, P and I - P are nonzero projectors (every state is a unit
    vector). Take E = a P + b (I - P) on S with unit trace norm, so
    |a|, |b| <= 1. A pair from two groups has <psi_i|E|psi_j> = 0 exactly,
    and a pair within a group has a <psi_i|psi_j> or b <psi_i|psi_j>. The
    constraint rows give each pair i < j two real rows, so every unit
    vector of this 2-dimensional space has residual at most
    eps * sqrt(n(n - 1) / 2) <= NOISE_TOL / sqrt(2). By Courant-Fischer the
    second smallest singular value is at most that, below the rank cut
    (`_rank`, never below NOISE_TOL), so the space has dimension >= 2. The
    margin of (1 - 1/sqrt(2)) NOISE_TOL covers rounding, which is near
    1e-16 times the number of entries, and the directions the support's
    RANK_RTOL cut drops, whose weight is at most d n RANK_RTOL^2.

    Every state shares an index in a set rotated off the computational
    basis; that exit comes first, before the component walk and the Gram.
    """
    n = len(s)
    occ = (party_matrices(s, party) != 0).any(axis=2)  # (n, d)
    if n < 2 or occ.all(axis=0).any():
        return False
    # the component of state 0, grown one shared index at a time
    members = np.zeros(n, dtype=bool)
    members[0] = True
    while True:
        grown = occ[:, occ[members].any(axis=0)].any(axis=1)
        if grown.all():
            return False
        if (grown == members).all():
            break
        members = grown
    g = np.abs(gram_matrix(s))
    np.fill_diagonal(g, 0.0)
    return float(g.max()) * (n * (n - 1)) ** 0.5 <= NOISE_TOL


@dataclass
class BlockStructure:
    commuting: bool
    blocks: list[np.ndarray]  # projectors in support coordinates
    index_supports: list[list[int] | None]  # a block's basis indices, when the support is index-aligned


def block_structure(sp: OplmSpace) -> BlockStructure:
    """Joint eigenprojectors of the (commuting) operator space.

    Maximal subspaces on which every basis element acts as a scalar; refined
    iteratively one basis element at a time.
    """
    basis = sp.basis
    if any(np.abs(a @ b - b @ a).max() > SPAN_TOL for a, b in combinations(basis, 2)):
        return BlockStructure(False, [], [])
    r = sp.support_dim
    # columns of V carry the running joint eigenbasis, grouped into blocks
    v = np.eye(r, dtype=np.complex128)
    blocks = [list(range(r))]
    for e in basis:
        new_blocks = []
        for cols in blocks:
            vb = v[:, cols]
            sub = vb.conj().T @ e @ vb
            w, vecs = np.linalg.eigh((sub + sub.conj().T) / 2)
            v[:, cols] = vb @ vecs
            # split by eigenvalue clusters
            start = 0
            for k in range(1, len(w) + 1):
                if k == len(w) or w[k] - w[start] > CLUSTER_TOL:
                    new_blocks.append(cols[start:k])
                    start = k
        blocks = new_blocks
    projectors = []
    supports = []
    for cols in blocks:
        vb = v[:, cols]
        p = vb @ vb.conj().T
        projectors.append(p)
        # index labels only where support coordinates are basis indices
        local = index_support(p) if sp.support_indices is not None else None
        supports.append(None if local is None else sorted(sp.support_indices[i] for i in local))
    order = sorted(range(len(projectors)), key=lambda b: (supports[b] is None, supports[b] or []))
    return BlockStructure(True, [projectors[b] for b in order], [supports[b] for b in order])


@dataclass
class LocalMeasurement:
    party: int
    kraus: list[np.ndarray]  # full-dimension operators
    labels: list[str]

    def completeness_residual(self) -> float:
        """max |sum_k K_k^H K_k - I| over entries, the sum taken as one
        product A^H A of the operators stacked row-wise into A (k d, d)."""
        a = np.asarray(self.kraus, dtype=np.complex128)
        a = a.reshape(-1, a.shape[-1])
        return float(np.abs(a.conj().T @ a - np.eye(a.shape[1])).max())


def _union_kraus(support: np.ndarray, parts: np.ndarray, members: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P and I - P, in full dimension, of each union of `parts` (k, r, r) in
    the coordinates of `support` (d, r) that a row of `members` (m, k), 0/1,
    marks: its parts added in ascending order, each to the rows it is a
    member of, embedded by one batched product, then Q = I - P. The one
    construction of candidate Kraus operators: a MASK_CHUNK of unions for
    their dedupe keys (`_Unions.keys`), and a stack of one on a candidate's
    first read, with the same bits."""
    p = np.zeros((len(members),) + parts.shape[1:], dtype=np.complex128)
    for b in np.flatnonzero(members.any(axis=0)):
        np.add(p, parts[b], out=p, where=members[:, b, None, None] == 1)
    p_full = support @ p @ support.conj().T
    return p_full, np.eye(len(support), dtype=np.complex128) - p_full


class _Unions(NamedTuple):
    """The passing unions of one family, in ascending mask order: each one's
    member parts and P label, and the family's parts in the coordinates of
    `support`, from which `_union_kraus` builds any union.

    No two unions of one family are one measurement: two distinct member
    sets differ by at least one orthogonal projector part, so their P
    differ, and P of one is never I - P of another, since every union leaves
    out the family's last atom, which I - P holds. So a family carries no
    dedupe keys; `measurement_candidates` asks for `keys` only where a
    second family meets it."""

    members: np.ndarray  # (n_unions, len(parts)), bool
    labels: list[str]
    support: np.ndarray  # (d, r)
    parts: np.ndarray  # (k, r, r)

    def keys(self) -> list[bytes]:
        """Each union's dedupe key: the sha256 digest of min(rounded P
        bytes, rounded I - P bytes), from one `_union_kraus` stack per
        MASK_CHUNK of unions."""
        keys = []
        for lo in range(0, len(self.members), MASK_CHUNK):
            p_full, q_full = _union_kraus(self.support, self.parts, self.members[lo : lo + MASK_CHUNK])
            rp, rq = np.round(p_full, KEY_DECIMALS), np.round(q_full, KEY_DECIMALS)
            keys += [hashlib.sha256(min(a.tobytes(), b.tobytes())).digest() for a, b in zip(rp, rq)]
        return keys

    def measurement(self, party: int, c: int) -> LocalMeasurement:
        """Union c as the measurement {P, I - P}."""
        p, q = _union_kraus(self.support, self.parts, self.members[c : c + 1])
        return LocalMeasurement(party, [p[0], q[0]], [self.labels[c], f"I-{self.labels[c]}"])

    def outcome_parts(self) -> tuple[np.ndarray, np.ndarray]:
        """The family's parts in full dimension, then its residual I - (sum
        of its parts), and each union's outcome bits over them: P holds the
        union's parts, I - P the others and the residual."""
        full = self.support @ self.parts @ self.support.conj().T
        stack = np.concatenate([full, (np.eye(len(self.support), dtype=np.complex128) - full.sum(axis=0))[None]])
        m, n = self.members.astype(np.float64), len(self.members)
        return stack, np.stack([np.c_[m, np.zeros(n)], np.c_[1 - m, np.ones(n)]], axis=1)


class Candidates(Sequence):
    """A party's candidate measurements, each built on first read (by index
    or iteration) and kept; `capped` names the union families skipped for
    having more than ATOM_CAP atoms, and `masks[c, o]` marks the states
    that outcome o of candidate c keeps.

    Every candidate's Kraus operators are sums of orthogonal parts: P is the
    sum of its union's blocks or indices, and I - P the sum of the family's
    other parts and its residual I - (sum of the family's parts), which
    holds any weight outside the support or on unoccupied indices. So each
    family's masks come from one product with its at most d + 1 parts
    (`union_survivors`). Move ordering and `is_locally_irreducible` read
    them, and `label`, without building any operator; a search builds only
    the candidates whose outcomes it applies."""

    def __init__(self, party: int, unions: list[tuple[_Unions, int]], masks: np.ndarray, capped: tuple[str, ...]):
        self.party = party
        self.masks = masks  # (len(self), 2, n_states), bool
        self.capped = capped
        self._unions = unions  # per candidate, its family and its index there
        self._built: list[LocalMeasurement | None] = [None] * len(unions)

    def __len__(self) -> int:
        return len(self._unions)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        if self._built[i] is None:
            u, c = self._unions[i]
            self._built[i] = u.measurement(self.party, c)
        return self._built[i]

    def label(self, i: int) -> str:
        """The P label of candidate i, read without building it."""
        u, c = self._unions[i]
        return u.labels[c]


def _atoms(cols: np.ndarray) -> tuple[np.ndarray, int]:
    """Each column's atom, and the number of atoms, numbered in the order of
    their largest members: the classes of columns on which every real t with
    cols @ t = 0 is constant, so every passing union is a union of atoms.
    Columns share one when the nullspace projector maps them alike. It errs
    towards splitting: a passing 0/1 union has at most SPAN_TOL * sqrt(rows)
    / cut of its length along singular values above cut, 1e3 times less than
    the 1 by which two members of one atom would differ."""
    k = cols.shape[1]
    # the zero row adds no constraint and keeps the SVD defined for a test without rows
    _, sv, vh = np.linalg.svd(np.concatenate([cols.real, cols.imag, np.zeros((1, k))]), full_matrices=False)
    vh = vh[sv > 1e3 * SPAN_TOL * np.sqrt(cols.shape[0])]
    null = np.eye(k) - vh.T @ vh
    owner, tops = np.zeros(k, dtype=np.intp), []  # tops: each atom's largest member, descending
    for b in range(k - 1, -1, -1):
        owner[b] = next((a for a, c in enumerate(tops) if np.abs(null[c] - null[b]).max() <= CLUSTER_TOL), len(tops))
        if owner[b] == len(tops):
            tops.append(b)
    return len(tops) - 1 - owner, len(tops)


def _union_measurements(support: np.ndarray, parts: np.ndarray, index_sets, cols: np.ndarray) -> _Unions | None:
    """Every union P of parts that passes a test linear in the union, each
    the measurement {P, I-P}, in ascending mask order; None when the parts
    make more than ATOM_CAP atoms, the one bound on the candidate class.

    `parts` (k, r, r) are orthogonal projectors in the coordinates of
    `support` (d, r); a union passes when every entry of the sum of its
    parts' columns of `cols` is within SPAN_TOL. Only unions of `_atoms` can
    pass, and a union and its complement are one measurement, so the unions
    of atoms without the last are tried, one matrix product per MASK_CHUNK
    of them, in ascending part-mask order. A union keeps its members and
    label: P is labelled by its indices, P[...], when every member part has
    an index set, and by its parts, P[blocks ...]. No Kraus operator is
    built here (see `_Unions`).
    """
    owner, k = _atoms(cols)
    if k > ATOM_CAP:
        return None
    n_masks = 1 << max(k - 1, 0)
    labels, members = [], [np.zeros((0, len(parts)), dtype=bool)]
    for lo in range(1, n_masks, MASK_CHUNK):
        masks = np.arange(lo, min(lo + MASK_CHUNK, n_masks))
        bits = (masks[:, None] >> owner) & 1  # a part's bit is its atom's
        bits = bits[np.abs(bits @ cols.T).max(axis=1, initial=0.0) <= SPAN_TOL]
        for row in bits.tolist():
            union = [b for b, x in enumerate(row) if x]
            if all(index_sets[b] is not None for b in union):
                labels.append("P[" + ",".join(str(i) for i in sorted(i for b in union for i in index_sets[b])) + "]")
            else:
                labels.append(f"P[blocks {union}]")
        members.append(bits == 1)
    return _Unions(np.concatenate(members), labels, support, parts)


def _block_unions(sp: OplmSpace, bs: BlockStructure) -> _Unions | None:
    """The block unions of `projective_oplms`, unbuilt."""
    if not bs.commuting:
        raise ValueError("operator space basis does not commute; no block structure")
    r = sp.support_dim
    blocks = np.array(bs.blocks).reshape(len(bs.blocks), r * r).T  # one column per block
    # an empty space (space_dim 0) spans nothing, so no union passes its span test
    basis = np.array(sp.basis).reshape(len(sp.basis), r * r)
    span = basis.T @ (basis.conj() @ blocks) - blocks
    # a pair that is not live has zero values; numpy multiplies one row by
    # another BLAS routine, whose bits differ from a product of more rows
    g = sp.pair_tensors.reshape(len(sp.pairs), r * r)
    if len(g) == 1:
        g = np.concatenate([g, np.zeros_like(g)])
    n = sp.n_states
    vals = np.zeros((n * (n - 1) // 2, len(bs.blocks)), dtype=np.complex128)
    vals[sp.pairs] = (g @ blocks)[: len(sp.pairs)]
    return _union_measurements(sp.support, np.array(bs.blocks), bs.index_supports, np.concatenate([span, vals]))


def projective_oplms(sp: OplmSpace, bs: BlockStructure) -> list[LocalMeasurement] | None:
    """All two-outcome block-projective measurements inside the span, or
    None when the blocks make more than ATOM_CAP atoms.

    The unions of joint eigenblocks that lie in the span and preserve every
    pairwise constraint, one per complementary pair. For a commuting span
    this is complete for two-outcome projective-in-span measurements: any
    in-span projector is diagonal in the joint eigenbasis with 0/1
    eigenvalues constant on blocks, hence a block union. Both tests are
    linear in the union, so each block contributes its span residual
    proj(B) - B and its off-diagonal constraint values as one column. A set
    that is not orthogonal at SPAN_TOL has none: the values of P and I - P
    on a pair sum to <psi_i|psi_j>, so the test of P alone does not decide
    I - P, and no complete measurement preserves that pair.
    """
    if sp.worst_overlap() > SPAN_TOL:
        return []
    unions = _block_unions(sp, bs)
    return None if unions is None else [unions.measurement(sp.party, c) for c in range(len(unions.labels))]


def measurement_candidates(s: StateSet, party: int, sp: OplmSpace | None = None) -> Candidates:
    """Two-outcome projective OPLM candidates for one party.

    Two families of unions, enumerated by `_union_measurements`; where both
    are present, deduplicated on the digests of their rounded Kraus
    operators (`_Unions.keys`), the first found kept. One family alone
    repeats no measurement (see `_Unions`), so it is kept whole, and no
    Kraus operator is built for a key:

    * If the operator space restricted to the joint local support commutes,
      `projective_oplms`: the unions of joint eigenblocks (complete for
      two-outcome projective-in-span measurements on the support).
    * Computational-basis index projectors: unions of the occupied indices
      whose diagonal constraint sum_a t_a <psi_i|a><a|psi_j> vanishes on
      every pair. This is the class the layered-tiling protocols live in,
      and it stays available when the operator space is noncommuting (where
      no joint eigenstructure exists).

    A family with more than ATOM_CAP atoms is skipped and named in `capped`.
    The result carries each kept candidate's survivor masks, taken from its
    own family's parts before deduplication, and builds a candidate's Kraus
    operators when it is first read (see `Candidates`).
    """
    if sp is None:
        sp = oplm_space(s, party, on_support=True)
    families = []
    if sp.space_dim >= 2 and sp.support_dim >= 2:
        bs = block_structure(sp)
        if bs.commuting:
            families.append(("block unions", _block_unions(sp, bs)))
    mats = party_matrices(s, party)
    occ = occupied_indices(mats)
    rows = mats[:, occ]
    diag = np.einsum("iar,jar->ija", rows.conj(), rows)
    support = np.eye(mats.shape[1], dtype=np.complex128)[:, occ]
    parts = np.array([np.diag(e) for e in np.eye(len(occ), dtype=np.complex128)])
    families.append(("index projectors", _union_measurements(support, parts, [[i] for i in occ], diag[_upper(len(s))])))
    unions = [u for _, u in families if u is not None]
    kept = [(u, c, mask) for u in unions for c, mask in enumerate(union_survivors(s, party, *u.outcome_parts()))]
    if len(unions) == 2:  # only a second family can repeat a measurement
        seen: dict[bytes, tuple] = {}
        for key, cand in zip(unions[0].keys() + unions[1].keys(), kept):
            seen.setdefault(key, cand)
        kept = list(seen.values())
    masks = np.array([mask for *_, mask in kept], dtype=bool).reshape(len(kept), 2, len(s))
    capped = tuple(name for name, u in families if u is None)
    return Candidates(party, [(u, c) for u, c, _ in kept], masks, capped)


def is_oplm(s: StateSet, m: LocalMeasurement) -> bool:
    """Check every outcome of m against the pairwise constraints, at SPAN_TOL.
    The value of K^dag K on (j, i) is the conjugate of its value on (i, j),
    so the live pairs i < j decide it."""
    g, _ = _pair_tensors(party_matrices(s, m.party), np.eye(s.space.party_dims[m.party], dtype=np.complex128))
    return not any(np.abs(np.einsum("mab,ab->m", g, k.conj().T @ k)).max(initial=0.0) > SPAN_TOL for k in m.kraus)


def eliminable_states(s: StateSet, m: LocalMeasurement) -> list[list[str]]:
    """Per outcome, the labels conclusively excluded (post-measurement norm 0)."""
    if not is_oplm(s, m):
        raise ValueError("measurement does not preserve orthogonality on this set")
    labels = s.labels
    return [[lab for lab, kept in zip(labels, mask) if not kept] for mask in survivors(s, m.party, m.kraus)[1]]


@dataclass
class IrreducibilityVerdict:
    verdict: str  # IRREDUCIBLE-EXACT | IRREDUCIBLE-IN-CLASS | REDUCIBLE
    space_dims: dict[str, int]  # per party, on the local support
    witness: LocalMeasurement | None
    candidates_checked: int
    class_note: str

    @property
    def irreducible(self) -> bool:
        return self.verdict.startswith("IRREDUCIBLE")


CLASS_NOTE = (
    "two-outcome projective OPLMs: joint-eigenblock unions for commuting "
    "operator spaces, computational-basis index projectors otherwise"
)


def is_locally_irreducible(s: StateSet) -> IrreducibilityVerdict:
    """Can any nontrivial OPLM eliminate a state from the set?

    IRREDUCIBLE-EXACT means every party's operator space on the support is
    one-dimensional, so no nontrivial OPLM exists at all (measurement-class
    independent). Otherwise the enumerated candidate class decides between
    REDUCIBLE and IRREDUCIBLE-IN-CLASS: the witness is the first candidate
    with an outcome whose survivor mask (`Candidates.masks`, the one the
    search orders moves by) keeps some but not all states. A set that is
    not orthogonal at SPAN_TOL is refused with a ValueError.
    """
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
        for c, mask in enumerate(cands.masks):
            checked += 1
            if any(0 < kept < len(s) for kept in mask.sum(axis=1)):
                eliminable_states(s, cands[c])  # the witness is checked as an OPLM
                return IrreducibilityVerdict("REDUCIBLE", dims, cands[c], checked, note)
    return IrreducibilityVerdict("IRREDUCIBLE-IN-CLASS", dims, None, checked, note)
