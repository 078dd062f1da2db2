"""Multiparty pure-state model: kets, state sets, Schmidt structure, merging,
reduced states and local-redundancy checking.

States are always stored normalized; analyses only ever need directions.
A `StateSet` stores its states as one read-only (n_states, total_dim)
amplitude matrix plus a label per row, and every analysis in qlocc works on
that matrix. A `Ket` is a per-state view, built only when a caller reads a
set's `states` or receives a witness. `Ket` and `StateSet.from_matrix`
normalize by one rule (`_unit_rows`), and `_reduced_states` is the one
partial trace: a batch of rows at a time, one row for `reduced_state`.

This is the one module that knows how a set looks from one party:
`party_matrices` is the party-first (n, d_p, rest) view of the amplitude
matrix and `party_rows` its inverse, `occupied_indices` the party's
occupied computational-basis indices, `survivors` the states that a local
Kraus operator, or each operator of a stack, keeps (`union_survivors` the
same for many operators that are sums of a few orthogonal parts:
`measurement_candidates` builds each candidate's survivor masks with it,
and move ordering and irreducibility read those masks), `support_basis` an
orthonormal basis of the joint local support (index-aligned when
`index_support` finds its projector to be a 0/1 diagonal), and
`local_factors` decides with one stacked SVD per party which states are
product across that party's cut and what their local vectors are. A set
keeps both decisions, the support and the product structure, so each (set,
party) is decided once however many analyses ask.
`schmidt_rank` and `coefficient_matrix` remain as the per-`Ket` API.

Mixed-state orthogonality of reductions is read as tr(rho_i rho_j) = 0
(orthogonal supports), which for PSD operators is equivalent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import ELIM_TOL, INDEX_TOL, NORM_TOL, ORTHO_TOL, PHASE_TOL, RANK_RTOL, RELABEL_TOL, as_carray


def party_letter(i: int) -> str:
    return chr(ord("A") + i)


@dataclass(frozen=True)
class PartySpace:
    """Tensor structure: per-party dimensions plus optional per-party sub-splits.

    A sub-split factors one party into smaller tensor factors (e.g. a 6-dim
    party seen as qubit x qutrit); the factor dims must multiply back to the
    party dimension.
    """

    party_dims: tuple[int, ...]
    sub_splits: dict[int, tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self):
        if len(self.party_dims) == 0:
            raise ValueError("at least one party required")
        if any(d < 2 for d in self.party_dims):
            raise ValueError("party dimensions must be >= 2")
        object.__setattr__(self, "party_dims", tuple(int(d) for d in self.party_dims))
        splits = {}
        for p, fs in dict(self.sub_splits).items():
            fs = tuple(int(f) for f in fs)
            if p < 0 or p >= len(self.party_dims):
                raise ValueError(f"sub_split references unknown party {p}")
            if int(np.prod(fs)) != self.party_dims[p]:
                raise ValueError(f"sub_split {fs} does not multiply to party dim {self.party_dims[p]}")
            splits[int(p)] = fs
        object.__setattr__(self, "sub_splits", splits)

    @property
    def n_parties(self) -> int:
        return len(self.party_dims)

    @property
    def total_dim(self) -> int:
        return math.prod(self.party_dims)

    def factor_dims(self) -> tuple[int, ...]:
        """Party dims with sub-splits expanded into individual tensor factors."""
        out = []
        for p, d in enumerate(self.party_dims):
            out.extend(self.sub_splits.get(p, (d,)))
        return tuple(out)

    def factor_names(self) -> tuple[str, ...]:
        out = []
        for p, d in enumerate(self.party_dims):
            split = self.sub_splits.get(p)
            if split is None:
                out.append(party_letter(p))
            else:
                out.extend(f"{party_letter(p).lower()}{k + 1}" for k in range(len(split)))
        return tuple(out)

    # written out: the generated hash would hash the sub_splits dict
    def __hash__(self):
        return hash((self.party_dims, tuple(sorted(self.sub_splits.items()))))


@dataclass(frozen=True)
class Bipartition:
    left: frozenset[int]
    right: frozenset[int]

    @staticmethod
    def of(left, n_parties: int) -> "Bipartition":
        left = frozenset(int(i) for i in left)
        allp = frozenset(range(n_parties))
        if not left or not (allp - left):
            raise ValueError("both sides of a bipartition must be nonempty")
        if not left <= allp:
            raise ValueError("party index out of range")
        return Bipartition(left, allp - left)

    def label(self) -> str:
        ls = "".join(party_letter(i) for i in sorted(self.left))
        rs = "".join(party_letter(i) for i in sorted(self.right))
        return f"{ls}|{rs}"


class Ket:
    """A normalized pure state over a declared party structure."""

    __slots__ = ("space", "amplitudes", "label")

    def __init__(self, space: PartySpace, amplitudes, label: str = ""):
        amps = np.array(amplitudes, dtype=np.complex128, order="C").reshape(-1)
        if amps.shape[0] != space.total_dim:
            raise ValueError(f"amplitude length {amps.shape[0]} != total dim {space.total_dim}")
        _unit_rows(amps.reshape(1, -1))
        self.space = space
        self.amplitudes = amps
        self.label = label

    def tensor(self) -> np.ndarray:
        return self.amplitudes.reshape(self.space.party_dims)

    def __repr__(self):
        return f"Ket({self.label or '?'}, dims={self.space.party_dims})"


def make_ket(space: PartySpace, terms, label: str = "") -> Ket:
    """Assemble a ket from (coefficient, per-party index tuple) terms, then normalize."""
    if not terms:
        raise ValueError("empty term list")
    amps = np.zeros(space.total_dim, dtype=np.complex128)
    for coeff, idx in terms:
        idx = tuple(int(i) for i in idx)
        if len(idx) != space.n_parties:
            raise ValueError(f"term index {idx} has wrong arity")
        for p, i in enumerate(idx):
            if not 0 <= i < space.party_dims[p]:
                raise ValueError(f"index {i} out of range for party {party_letter(p)}")
        flat = int(np.ravel_multi_index(idx, space.party_dims))
        amps[flat] += complex(coeff)
    return Ket(space, amps, label)


def row_norms(m: np.ndarray) -> np.ndarray:
    """2-norm of each row of a C-contiguous complex (n, D) matrix.

    Each value is bit for bit `np.linalg.norm` of that row: the same BLAS dot
    of the real parts and of the imaginary parts (stride 2 doubles), summed,
    then the square root.
    """
    re, im = m.real, m.imag
    sq = np.matmul(re[:, None, :], re[:, :, None]) + np.matmul(im[:, None, :], im[:, :, None])
    return np.sqrt(sq[:, 0, 0])


def _unit_rows(m: np.ndarray) -> np.ndarray:
    """Check and normalize in place the rows of a C-contiguous complex
    (n, D) matrix the caller owns: reject non-finite entries, a finite row
    whose norm overflows and a row of norm below NORM_TOL, divide a row by
    its norm unless that is within NORM_TOL of 1. The one normalization rule
    of the state model; `Ket.__init__` applies it to its one row. A
    non-finite entry makes its row's norm non-finite, so only then are the
    entries scanned, to tell it from a finite row whose norm overflows."""
    norms = row_norms(m)
    if not np.isfinite(norms).all():
        as_carray(m)
        raise ValueError("state norm overflows the float range")
    if (norms < NORM_TOL).any():
        raise ValueError("zero vector cannot be a Ket")
    off = np.abs(norms - 1.0) > NORM_TOL
    if off.any():
        np.divide(m, norms[:, None], out=m, where=off[:, None])
    return m


class StateSet:
    """An ordered, labeled collection of states sharing one party structure.

    The storage is one read-only (n_states, total_dim) complex128 matrix of
    normalized rows plus one unique label per row; `matrix()` returns it as
    is. `states` (and iteration) gives the per-state `Ket` views of the
    rows, built on first read; a set made from kets keeps their amplitudes
    in the matrix, not the kets. `from_matrix` makes a set straight from
    amplitude rows without building any `Ket`.
    """

    def __init__(self, space: PartySpace, states, name: str = ""):
        states = list(states)
        if any(s.space != space for s in states):
            raise ValueError("all states must share the set's PartySpace")
        if states:
            m = np.stack([s.amplitudes for s in states])
        else:
            m = np.zeros((0, space.total_dim), dtype=np.complex128)
        self._init(space, m, [s.label for s in states], name)

    @classmethod
    def from_matrix(cls, space: PartySpace, matrix, labels, name: str = "") -> "StateSet":
        """A set whose states are the rows of `matrix`, labeled by `labels`.

        The rows are copied, then checked and normalized by the rule `Ket`
        uses, once for the whole array.
        """
        labels = list(labels)
        m = np.array(matrix, dtype=np.complex128, order="C")
        if m.shape != (len(labels), space.total_dim):
            raise ValueError(f"amplitude matrix shape {m.shape} != ({len(labels)}, {space.total_dim})")
        out = cls.__new__(cls)
        out._init(space, _unit_rows(m), labels, name)
        return out

    def _init(self, space: PartySpace, m: np.ndarray, labels: list[str], name: str):
        if len(set(labels)) != len(labels):
            raise ValueError("state labels must be unique")
        m.flags.writeable = False
        self.space = space
        self.name = name
        self._matrix = m
        self._labels = labels
        self._states: list[Ket] | None = None
        self._factors: dict[int, tuple[np.ndarray, np.ndarray]] = {}  # party -> local_factors
        self._supports: dict[int, tuple[np.ndarray, tuple[int, ...] | None]] = {}  # party -> support_basis

    @property
    def states(self) -> list[Ket]:
        if self._states is None:
            self._states = [Ket(self.space, row, lab) for row, lab in zip(self._matrix, self._labels)]
        return self._states

    def __len__(self):
        return len(self._labels)

    def __iter__(self):
        return iter(self.states)

    @property
    def labels(self) -> list[str]:
        return list(self._labels)

    def matrix(self) -> np.ndarray:
        """(n_states, total_dim) amplitude matrix, read-only."""
        return self._matrix

    def __repr__(self):
        return f"StateSet({self.name or '?'}: {len(self)} states on {self.space.party_dims})"


def inner_product(a: Ket, b: Ket) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    if a.space != b.space:
        raise ValueError("mismatched party spaces")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def gram_matrix(s: StateSet) -> np.ndarray:
    m = s.matrix()
    return m.conj() @ m.T


@dataclass
class OrthoReport:
    ok: bool
    tol: float
    violations: list[tuple[str, str, float]]  # (label_i, label_j, |<i|j>|), descending

    def top_pairs(self, n: int = 2) -> list[tuple[str, str]]:
        return [(a, b) for a, b, _ in self.violations[:n]]


def _sorted_violations(labels: list[str], i: np.ndarray, j: np.ndarray, vals: np.ndarray) -> list[tuple[str, str, float]]:
    """(label_i, label_j, value) for violating pairs i < j given in row-major
    order, kept in that order under a stable sort by descending value."""
    return [(labels[i[k]], labels[j[k]], float(vals[k])) for k in np.argsort(-vals, kind="stable")]


def gram_check(s: StateSet, tol: float = ORTHO_TOL) -> OrthoReport:
    """Pairwise-orthogonality report; violations sorted by magnitude descending."""
    if len(s) == 0:
        raise ValueError("empty state set")
    g = np.abs(gram_matrix(s))
    i, j = np.nonzero(np.triu(g > tol, 1))
    viol = _sorted_violations(s.labels, i, j, g[i, j])
    return OrthoReport(ok=not viol, tol=tol, violations=viol)


def coefficient_matrix(k: Ket, cut: Bipartition) -> np.ndarray:
    """Amplitudes reshaped to (dim_left x dim_right) for the given bipartition."""
    n = k.space.n_parties
    left = sorted(cut.left)
    right = sorted(cut.right)
    if cut.left | cut.right != frozenset(range(n)):
        raise ValueError("bipartition does not cover this space")
    t = k.tensor().transpose(left + right)
    dl = int(np.prod([k.space.party_dims[i] for i in left]))
    return t.reshape(dl, -1)


def schmidt_rank(k: Ket, cut: Bipartition) -> int:
    """Rank of the coefficient matrix across the cut (singular values above RANK_RTOL * sigma_max); 1 means product."""
    sv = np.linalg.svd(coefficient_matrix(k, cut))[1]
    return int(np.sum(sv > RANK_RTOL * sv[0])) if sv[0] > 0 else 0


def _party_first(dims, party: int) -> list[int]:
    return [party] + [q for q in range(len(dims)) if q != party]


def party_matrices(s: StateSet, party: int) -> np.ndarray:
    """States reshaped to (n, d_party, d_rest) with the party axis leading."""
    dims = s.space.party_dims
    order = _party_first(dims, party)
    t = s.matrix().reshape(len(s), *dims).transpose([0] + [1 + q for q in order])
    return t.reshape(len(s), dims[party], s.space.total_dim // dims[party])


def party_rows(space: PartySpace, party: int, mats: np.ndarray) -> np.ndarray:
    """Inverse of `party_matrices`: (n, d_party, d_rest) back to amplitude rows."""
    dims = space.party_dims
    order = _party_first(dims, party)
    t = mats.reshape(-1, *(dims[q] for q in order))
    return t.transpose([0] + [1 + int(i) for i in np.argsort(order)]).reshape(len(t), space.total_dim)


def survivors(s: StateSet, party: int, kraus) -> tuple[np.ndarray, np.ndarray]:
    """The post-measurement party-first matrices of every state of `s` under
    a Kraus operator, from one batched product, and the mask of the states
    that survive: a state is eliminated when its norm is at most ELIM_TOL.

    `kraus` is one operator (d, d), giving post (n, d, rest) and the mask
    (n,), or a stack (k, d, d) of a measurement's operators, giving post
    (k, n, d, rest) and masks (k, n) from one `party_matrices`, one stacked
    product and one `row_norms` over all k n rows. Each (d, d) x (d, rest)
    slice of the stack is the product of that operator alone, and each norm
    the same dots, so an operator's slice has the bits of its own call.

    The one survivor decision: outcome application, replay and
    `eliminable_states` read it. Candidate masks (`Candidates.masks`, which
    move ordering and irreducibility read) take the same cut from part
    weights (`union_survivors`): when K is a 0/1 sum of orthogonal
    projectors P_b, the cross terms <P_b psi|P_c psi> vanish, so
    ||K psi||^2 = sum_b ||P_b psi||^2 in exact arithmetic. The search checks
    that the two agree on every child it visits.
    """
    k = np.asarray(kraus, dtype=np.complex128)
    post = k[..., None, :, :] @ party_matrices(s, party)
    return post, ~(row_norms(post.reshape(-1, s.space.total_dim)) <= ELIM_TOL).reshape(post.shape[:-2])


def union_survivors(s: StateSet, party: int, parts: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """The `survivors` masks of every Kraus operator K = sum_b bits[..., b] P_b
    over orthogonal projectors `parts` (k, d, d) of `party`, as a bool array
    of shape bits.shape[:-1] + (len(s),), from one product for all of them.

    With w[b, i] = ||P_b psi_i||^2, a state survives K when sqrt(bits @ w)
    exceeds ELIM_TOL: for orthogonal projectors that is ||K psi|| in exact
    arithmetic (see `survivors`). Every term is a nonnegative sum of
    squares, so nothing cancels, and the two norms differ only by the
    rounding of the products, near 1e-16, far below ELIM_TOL. Memory is one
    (k, n, d, rest) stack, bounded by the number of parts, not of operators.
    """
    post = parts[:, None] @ party_matrices(s, party)
    w = np.square(post.view(np.float64)).sum(axis=(2, 3))
    return np.sqrt(bits @ w) > ELIM_TOL


def occupied_indices(mats: np.ndarray) -> list[int]:
    """Computational-basis indices of the party on which some state has an
    entry above INDEX_TOL, from its party matrices (n, d_party, d_rest)."""
    weight = np.abs(mats).max(axis=(0, 2))
    return [i for i in range(mats.shape[1]) if weight[i] > INDEX_TOL]


def index_support(proj: np.ndarray) -> list[int] | None:
    """The indices i with proj[i, i] = 1 when the projector `proj` is a 0/1
    diagonal matrix to within INDEX_TOL in every entry, else None."""
    diag = np.real(np.diagonal(proj))
    off = proj - np.diag(np.diagonal(proj))
    if np.abs(off).max(initial=0.0) < INDEX_TOL and np.all((diag < INDEX_TOL) | (np.abs(diag - 1) < INDEX_TOL)):
        return [i for i in range(len(diag)) if diag[i] > 0.5]
    return None


def _support_basis(mats: np.ndarray) -> tuple[np.ndarray, tuple[int, ...] | None]:
    """`support_basis` from the party matrices (n, d_party, d_rest)."""
    d = mats.shape[1]
    stacked = mats.transpose(1, 0, 2).reshape(d, -1)
    u, sv, _ = np.linalg.svd(stacked, full_matrices=False)
    r = int(np.sum(sv > RANK_RTOL * sv[0])) if sv.size and sv[0] > 0 else 0
    u = u[:, :r]
    idx = index_support(u @ u.conj().T)
    if idx is not None:
        u = np.zeros((d, r), dtype=np.complex128)
        u[idx, range(len(idx))] = 1.0
        return u, tuple(idx)
    return u, None


def support_basis(s: StateSet, party: int) -> tuple[np.ndarray, tuple[int, ...] | None]:
    """Orthonormal basis (columns) of the joint local support of `party`.

    Returns (U, indices) where indices lists the computational-basis labels
    when the support projector is 0/1-diagonal (then U has identity columns).
    One reduced SVD of the stacked party matrices (d_party, n * d_rest),
    whose left singular vectors are those of the full-matrices call bit for
    bit; the set keeps the result, read-only, and later calls for the same
    party return it.
    """
    if party not in s._supports:
        u, idx = _support_basis(party_matrices(s, party))
        u.flags.writeable = False
        s._supports[party] = (u, idx)
    return s._supports[party]


def local_factors(s: StateSet, party: int) -> tuple[np.ndarray, np.ndarray]:
    """Each state's leading left singular vector on `party` (rows of an
    (n, d_party) array) and a mask of the states that are product across
    that party's cut (sigma_1 <= RANK_RTOL * sigma_0).

    One stacked full-matrices SVD of the party matrices; each item is bit
    for bit the SVD of that state's coefficient matrix. The set keeps the
    result, read-only, and later calls for the same party return it.
    """
    if party not in s._factors:
        u, sv, _ = np.linalg.svd(party_matrices(s, party))
        second = sv[:, 1] if sv.shape[1] > 1 else np.zeros(len(s))
        vecs, product = u[:, :, 0], second <= RANK_RTOL * sv[:, 0]
        vecs.flags.writeable = product.flags.writeable = False
        s._factors[party] = (vecs, product)
    return s._factors[party]


def local_vectors(s: StateSet, party: int) -> np.ndarray | None:
    """Per-state local vectors on `party` when every state is product across
    that party's cut; None if some state is entangled across it.

    Vectors are normalized, their phases fixed by `fixed_phases`.
    """
    if s.space.n_parties == 1:
        return s.matrix()
    v, product = local_factors(s, party)
    return fixed_phases(v) if product.all() else None


def fixed_phases(m: np.ndarray) -> np.ndarray:
    """A copy of the rows of `m`, each with its first entry above PHASE_TOL
    in magnitude made real positive; a row without one is copied as is."""
    big = np.abs(m) > PHASE_TOL
    rows = np.flatnonzero(big.any(axis=1))
    out = m.copy()
    a = m[rows, big[rows].argmax(axis=1)]
    # np.hypot is libm hypot, as abs() on one complex scalar; np.abs on a
    # complex array rounds differently for about a third of inputs
    out[rows] = m[rows] * (np.conj(a) / np.hypot(a.real, a.imag))[:, None]
    return out


def merge_parties(s: StateSet, grouping, reorder=None) -> StateSet:
    """Merge parties into coarser ones.

    `grouping` is a partition of party indices; `reorder` is an explicit party
    permutation (new order as a list of old indices) after which each group
    must be contiguous. Defaults to identity. The Gram matrix is unchanged.
    """
    n = s.space.n_parties
    groups = [tuple(int(i) for i in g) for g in grouping]
    flat = [i for g in groups for i in g]
    if sorted(flat) != list(range(n)):
        raise ValueError("grouping must cover every party exactly once")
    if reorder is None:
        reorder = list(range(n))
    reorder = [int(i) for i in reorder]
    if sorted(reorder) != list(range(n)):
        raise ValueError("reorder must be a permutation of the parties")
    # each group must be a contiguous run in the reordered party list
    pos = {old: newpos for newpos, old in enumerate(reorder)}
    new_dims = []
    order_check = []
    for g in groups:
        positions = sorted(pos[i] for i in g)
        if positions != list(range(positions[0], positions[0] + len(g))):
            raise ValueError(f"group {g} not contiguous after reorder")
        order_check.append(positions[0])
        new_dims.append(int(np.prod([s.space.party_dims[i] for i in g])))
    if order_check != sorted(order_check):
        raise ValueError("groups must appear in reorder order")
    m = s.matrix().reshape(len(s), *s.space.party_dims).transpose([0] + [1 + i for i in reorder])
    return StateSet.from_matrix(PartySpace(tuple(new_dims)), m.reshape(len(s), s.space.total_dim), s.labels, s.name)


def _reduced_states(m: np.ndarray, fdims, keep: list[int]) -> np.ndarray:
    """Partial traces of the amplitude rows of `m` down to the factors in
    `keep` (sorted indices into `fdims`), stacked as (n, d_keep, d_keep)."""
    discard = [i for i in range(len(fdims)) if i not in keep]
    t = m.reshape(len(m), *fdims).transpose([0] + [1 + i for i in keep + discard])
    t = t.reshape(len(m), math.prod(fdims[i] for i in keep), -1)
    return t @ t.conj().transpose(0, 2, 1)


def reduced_state(k: Ket, keep) -> np.ndarray:
    """Partial trace down to the kept tensor factors (sub-splits expanded).

    `keep` indexes the factor list of the ket's space. Keeping everything is
    rejected (nothing would be discarded).
    """
    fdims = k.space.factor_dims()
    nf = len(fdims)
    keep = sorted(set(int(i) for i in keep))
    if not keep:
        raise ValueError("keep must be nonempty")
    if any(i < 0 or i >= nf for i in keep):
        raise ValueError("factor index out of range")
    if len(keep) == nf:
        raise ValueError("keep covers all factors; nothing to discard")
    return _reduced_states(k.amplitudes[None], fdims, keep)[0]


@dataclass
class RedundancyReport:
    redundant: bool
    # discard choice (factor names) proving redundancy, if any
    witness_discard: tuple[str, ...] | None
    # per discard choice: violating pairs (label_i, label_j, tr(rho_i rho_j)), descending
    violations: dict[tuple[str, ...], list[tuple[str, str, float]]]

    @property
    def verdict(self) -> str:
        return "locally redundant" if self.redundant else "locally irredundant"


def _redundancy(s: StateSet, fdims, fnames, tol: float) -> RedundancyReport:
    """`redundancy_check` over the tensor factors `fdims` named `fnames`."""
    if not gram_check(s, tol=max(tol, ORTHO_TOL)).ok:
        raise ValueError("redundancy_check requires a pairwise orthogonal set")
    nf = len(fdims)
    if nf < 2:
        raise ValueError("need at least two tensor factors")
    m, labels, n = s.matrix(), s.labels, len(s)
    iu, ju = np.triu_indices(n, 1)
    violations: dict[tuple[str, ...], list[tuple[str, str, float]]] = {}
    witness = None
    # iterate nonempty proper keep-subsets; discard = complement
    for mask in range(1, 2**nf - 1):
        keep = [i for i in range(nf) if mask >> i & 1]
        discard = tuple(fnames[i] for i in range(nf) if not mask >> i & 1)
        rho = _reduced_states(m, fdims, keep)
        # one row of pairs (i, j > i) at a time keeps the products at n reduced states
        traces = np.concatenate([np.real(np.trace(rho[i] @ rho[i + 1 :], axis1=1, axis2=2)) for i in range(n)])
        hit = traces > tol
        violations[discard] = bad = _sorted_violations(labels, iu[hit], ju[hit], traces[hit])
        if not bad and witness is None:
            witness = discard
    return RedundancyReport(redundant=witness is not None, witness_discard=witness, violations=violations)


def redundancy_check(s: StateSet, tol: float = ORTHO_TOL) -> RedundancyReport:
    """Decide local redundancy: does some discard of tensor factors keep all
    pairwise reduced states on orthogonal supports (tr(rho_i rho_j) = 0)?

    Sub-splits participate as individual discardable factors.
    """
    return _redundancy(s, s.space.factor_dims(), s.space.factor_names(), tol)


def redundancy_check_whole_parties(s: StateSet) -> bool:
    """Redundancy over whole parties only (sub-splits ignored), at ORTHO_TOL.

    Used when judging activation leaves: in a given partition the discardable
    subsystems are the parties themselves.
    """
    n = s.space.n_parties
    if n < 2:
        return False
    return _redundancy(s, s.space.party_dims, [party_letter(p) for p in range(n)], ORTHO_TOL).redundant


def _compressed_rows(s: StateSet) -> tuple[np.ndarray, int, int]:
    """Bipartite amplitude matrices restricted to the index supports."""
    if s.space.n_parties != 2:
        raise ValueError("relabeling comparison is bipartite")
    mats = party_matrices(s, 0)
    arows = occupied_indices(mats)
    acols = occupied_indices(party_matrices(s, 1))
    return mats[:, arows][:, :, acols], len(arows), len(acols)


def equal_up_to_local_relabeling(a: StateSet, b: StateSet) -> bool:
    """Same bipartite set up to support embedding, independent local basis
    relabelings (index permutations), per-state phases and state order: each
    state of `a` must have overlap above 1 - RELABEL_TOL with a distinct
    state of `b`."""
    from itertools import permutations

    if len(a) != len(b):
        return False
    ma, ra, ca = _compressed_rows(a)
    mb, rb, cb = _compressed_rows(b)
    if (ra, ca) != (rb, cb):
        return False
    va = ma.reshape(len(a), -1)
    for pa in permutations(range(ra)):
        for pb in permutations(range(ca)):
            perm = mb[:, pa][:, :, pb].reshape(len(b), -1)
            overlap = np.abs(va.conj() @ perm.T)
            hits = overlap > 1 - RELABEL_TOL
            if hits.sum(axis=1).min() >= 1 and len(set(int(np.argmax(r)) for r in hits)) == len(a):
                return True
    return False


def random_local_unitaries(space: PartySpace, rng) -> list[np.ndarray]:
    """Haar-ish random unitary per party (QR of a complex Gaussian)."""
    us = []
    for d in space.party_dims:
        z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        q, r = np.linalg.qr(z)
        q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        us.append(q)
    return us


def apply_local_unitaries(s: StateSet, us) -> StateSet:
    full = us[0]
    for u in us[1:]:
        full = np.kron(full, u)
    # a matrix-vector product per row, as `full @ amplitudes`; `m @ full.T` rounds differently
    return StateSet.from_matrix(s.space, np.matmul(full, s.matrix()[:, :, None])[:, :, 0], s.labels, s.name)
