import ast
import importlib
import pkgutil
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import qlocc
from qlocc import linalg, states
from qlocc.fixtures import build_fixture
from qlocc.linalg import ORTHO_TOL, as_carray, key_bytes
from qlocc.oplm import block_structure, is_locally_irreducible, measurement_candidates, oplm_space, projective_oplms
from qlocc.protocol import activation_search, search_distinguishing_protocol
from qlocc.states import Bipartition, Ket, PartySpace, StateSet, make_ket, schmidt_rank
from qlocc.upb import check_unextendible

MODULES = [qlocc] + [importlib.import_module(f"qlocc.{m.name}") for m in pkgutil.iter_modules(qlocc.__path__)]
TOL_SUFFIXES = ("_TOL", "_RTOL", "_ATOL")
TOLERANCES = {name: value for name, value in vars(linalg).items() if name.endswith(TOL_SUFFIXES)}


def test_tensor_basis_index_arithmetic():
    # |0>|1> on C2 x C2 sits at flat index 0 * 2 + 1: the left party is the slow index
    k = make_ket(PartySpace((2, 2)), [(1, (0, 1))])
    expect = np.zeros(4)
    expect[0 * 2 + 1] = 1
    assert np.allclose(k.amplitudes, np.kron([1, 0], [0, 1]))
    assert np.allclose(k.amplitudes, expect)
    assert k.tensor()[0, 1] == 1


def test_svd_identity():
    # the maximally entangled state on C4 x C4 has the identity as its coefficient matrix
    space = PartySpace((4, 4))
    k = make_ket(space, [(1, (i, i)) for i in range(4)])
    assert schmidt_rank(k, Bipartition.of({0}, 2)) == 4


def _gram_schmidt_rank(rows, tol=1e-10):
    # independent oracle: classical Gram-Schmidt over the rows
    basis = []
    for r in rows:
        v = r.astype(complex).copy()
        for b in basis:
            v -= np.vdot(b, v) * b
        n = np.linalg.norm(v)
        if n > tol:
            basis.append(v / n)
    return len(basis)


def test_svd_rank_two_coefficient_matrix():
    # coefficient matrix of |0>|0+1> + |2>|2+3| (unnormalized rows)
    m = np.zeros((4, 4))
    m[0, 0] = m[0, 1] = 1
    m[2, 2] = m[2, 3] = 1
    k = Ket(PartySpace((4, 4)), m.ravel())
    assert schmidt_rank(k, Bipartition.of({0}, 2)) == 2
    assert _gram_schmidt_rank(m) == 2


def test_as_carray_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_carray(np.array([np.nan, 0.0]))


def test_tensor_rejects_nonfinite():
    # a product state with a non-finite factor is rejected through as_carray
    with pytest.raises(ValueError):
        Ket(PartySpace((2, 2)), np.kron(np.array([np.nan, 0.0]), np.eye(2)[0]))


def test_tolerances_are_defined_only_in_linalg():
    """linalg.py is the one place that says what counts as zero: no other
    module has a small float literal, and every tolerance-named attribute of
    a qlocc module is linalg's own object under the same name."""
    literals = []
    for path in sorted(Path(qlocc.__file__).parent.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)) and 0 < abs(node.value) < 1e-5:
                literals.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert not literals
    strays = [
        f"{mod.__name__}.{name}"
        for mod in MODULES
        if mod is not linalg
        for name, value in vars(mod).items()
        if name.endswith(TOL_SUFFIXES) and value is not getattr(linalg, name, None)
    ]
    assert not strays


def _verdicts() -> dict:
    """Class-free and in-class verdicts on the paper's fixtures, built under
    the tolerances in force when called."""
    out = {}
    for name in ("s1", "s2", "s3", "s5", "s6", "tiles33"):
        out[f"irreducible {name}"] = is_locally_irreducible(build_fixture(name)).verdict
    sets = [(name, build_fixture(name), 8) for name in ("s1", "s2", "s3")]
    sets += [(f"s1_general d={d}", build_fixture("s1_general", d=d), 2 * d) for d in (4, 6)]
    for label, s, depth in sets:
        out[f"distinguishing {label}"] = search_distinguishing_protocol(s, max_depth=depth).kind
        out[f"activation {label}"] = activation_search(s, max_depth=depth).kind
    out["upb tiles33"] = check_unextendible(build_fixture("tiles33")).unextendible
    return out


@pytest.fixture(scope="module")
def verdicts_at_policy():
    return _verdicts()


@pytest.mark.parametrize("factor", [10.0, 0.1])
def test_no_verdict_moves_when_every_tolerance_is_scaled(monkeypatch, verdicts_at_policy, factor):
    """Every linalg tolerance, in every module that binds it, and the tol
    defaults of gram_check and redundancy_check, scaled by `factor`."""
    for mod in MODULES:
        for name, value in TOLERANCES.items():
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, value * factor)
    for fn in (states.gram_check, states.redundancy_check):
        monkeypatch.setattr(fn, "__defaults__", (TOLERANCES["ORTHO_TOL"] * factor,))
    assert len(verdicts_at_policy) == 17
    assert _verdicts() == verdicts_at_policy


def test_readme_table_and_bench_copy_match_the_policy():
    """The README's tolerance table lists every linalg tolerance at its
    value, and the benchmark's own ORACLE_TOL equals linalg's."""
    root = Path(__file__).resolve().parent.parent
    rows = re.findall(r"^\| `(\w+)` \| ([0-9.e-]+) \|", (root / "README.md").read_text(), re.M)
    assert dict((name, float(value)) for name, value in rows) == TOLERANCES
    tree = ast.parse((root / "bench" / "workloads.py").read_text())
    copies = [n.value.value for n in tree.body if isinstance(n, ast.Assign) and [getattr(t, "id", None) for t in n.targets] == ["ORACLE_TOL"]]
    assert copies == [linalg.ORACLE_TOL]


# Every linalg constant, mapped to the tests whose inputs straddle its cut,
# or to the reason it moves no verdict.
NEAR_THRESHOLD = {
    "RANK_RTOL": ["tests/test_oplm.py::test_rank_and_basis_come_from_one_svd"],
    "NOISE_TOL": ["tests/test_oplm.py::test_index_split_fires_only_where_the_solve_finds_two_dimensions"],
    "ORTHO_TOL": [
        "tests/test_protocol.py::test_certify_fails_certified_leaves_not_orthogonal_at_ortho_tol",
        "tests/test_oplm.py::test_union_survivors_match_survivors_random",
        "tests/test_oplm.py::test_residual_part_keeps_a_faint_state",
        "tests/test_linalg.py::test_elimination_flips_at_ortho_tol",
    ],
    "SPAN_TOL": ["tests/test_linalg.py::test_unextendibility_flips_at_span_tol"],
    "CLUSTER_TOL": [
        "tests/test_states.py::test_equal_up_to_local_relabeling_overlap_bound",
        "tests/test_linalg.py::test_block_count_flips_at_cluster_tol",
    ],
    "NORM_TOL": ["tests/test_states.py::test_ket_normalization_thresholds_match_unit_rows"],
    "PHASE_TOL": "only picks the entry whose phase `fixed_phases` fixes in interning keys and local factors; no verdict reads a phase",
    "EXTENSION_TOL": "only stops the numeric oracle's restarts early; the exact UPB check never reads it",
    "SWEEP_TOL": "only ends a descent restart of the numeric oracle; the exact UPB check never reads it",
    "TERM_TOL": "only decides which terms `serialize_qset` writes; every analysis reads the amplitudes themselves",
    "ORACLE_TOL": "only decides the oracle's `agrees` flag beside the exact UPB verdict, which never reads it",
    "KEY_DECIMALS": [
        "tests/test_linalg.py::test_key_bytes_dedupes_one_projector_from_two_families",
        "tests/test_linalg.py::test_key_bytes_flips_at_key_decimals",
        "tests/test_linalg.py::test_key_bytes_normalizes_signed_zeros",
    ],
}


def test_every_linalg_constant_names_its_near_threshold_tests():
    constants = {name for name, value in vars(linalg).items() if name.isupper() and isinstance(value, (int, float))}
    assert set(NEAR_THRESHOLD) == constants
    ids = [i for entry in NEAR_THRESHOLD.values() if isinstance(entry, list) for i in entry]
    assert all(entry and (isinstance(entry, list) or "\n" not in entry) for entry in NEAR_THRESHOLD.values())
    root = Path(__file__).resolve().parent.parent
    files = sorted({i.split("::")[0] for i in ids})
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *files],
        cwd=root,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()
    assert [i for i in ids if not any(line == i or line.startswith(i + "[") for line in out)] == []


@pytest.mark.parametrize("factor", [0.1, 10.0])
def test_elimination_flips_at_ortho_tol(factor):
    # a state of s1 with no weight on one index of A gets `factor` ORTHO_TOL of
    # weight there: below the cut the index projector eliminates it, as with
    # none, above it the state survives; both survivor paths agree either side
    s = build_fixture("s1")
    rng = np.random.default_rng(11)
    d = s.space.party_dims[0]
    mats = states.party_matrices(s, 0)
    empty = np.argwhere(np.abs(mats).max(axis=2) == 0)
    state, index = empty[rng.integers(len(empty))]
    column = int(rng.integers(mats.shape[2]))
    eps = factor * ORTHO_TOL * np.exp(2j * np.pi * rng.random())
    # party 0 is the slow index, so its index and the rest's column make the flat one
    m = s.matrix().copy()
    m[state, index * mats.shape[2] + column] = eps
    moved = StateSet.from_matrix(s.space, m, s.labels, s.name)
    parts = np.array([np.diag(e) for e in np.eye(d)])
    for t, survives in ((s, False), (moved, factor > 1)):
        masks = [states.survivors(t, 0, parts[index])[1], states.union_survivors(t, 0, parts, np.eye(d)[index])]
        assert [bool(mask[state]) for mask in masks] == [survives, survives]
        assert (masks[0] == masks[1]).all()


def _shifts(off: float, seed: int) -> StateSet:
    """The Shifts UPB |0,1,c>, |1,b,0>, |a,0,1>, |a',b',c'> on three qubits,
    with seeded b and c and a = cos(off)|0> + sin(off)|1>, so that `off` is a's
    residual against the span of |0>. The states are orthogonal for every off."""
    rng = np.random.default_rng(seed)

    def qubit(theta, phase):
        return np.array([np.cos(theta), np.exp(1j * phase) * np.sin(theta)])

    def perp(v):
        return np.array([-np.conj(v[1]), np.conj(v[0])])

    b, c = (qubit(*rng.uniform(0.3, 1.2, size=2)) for _ in range(2))
    a, (e0, e1) = qubit(off, 0.0), np.eye(2)
    prods = [(e0, e1, c), (e1, b, e0), (a, e0, e1), (perp(a), perp(b), perp(c))]
    rows = np.array([np.kron(np.kron(x, y), z) for x, y, z in prods])
    return StateSet.from_matrix(PartySpace((2, 2, 2)), rows, [f"p{i}" for i in range(4)], "shifts")


@pytest.mark.parametrize("factor", [0.1, 10.0])
def test_unextendibility_flips_at_span_tol(factor):
    # with a in the span of |0> A holds two states, B and C one each, and a
    # product vector extends the set; `factor` SPAN_TOL off that span, A's
    # two vectors span C2 below the cut only
    assert not check_unextendible(_shifts(0.0, 5)).unextendible
    v = check_unextendible(_shifts(factor * linalg.SPAN_TOL, 5))
    assert v.unextendible is (factor > 1)


@pytest.mark.parametrize("factor", [0.1, 10.0])
def test_block_count_flips_at_cluster_tol(factor):
    # s1's OPLM space on A with its second element replaced by a seeded
    # rotation of diag(0, 0, gap, gap): two eigenvalue clusters part into
    # two blocks only when the gap exceeds CLUSTER_TOL
    sp = oplm_space(build_fixture("s1"), 0)
    r = sp.support_dim
    rng = np.random.default_rng(3)
    u, _ = np.linalg.qr(rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r)))

    def blocks(gap):
        e = u @ np.diag([0.0] * (r // 2) + [gap] * (r - r // 2)) @ u.conj().T
        bs = block_structure(replace(sp, basis=[np.eye(r) / np.sqrt(r), e]))
        assert bs.commuting
        return len(bs.blocks)

    assert blocks(0.0) == 1
    assert blocks(factor * linalg.CLUSTER_TOL) == (2 if factor > 1 else 1)


def test_key_bytes_dedupes_one_projector_from_two_families():
    # party B of s1_general d=6 without its r0_* states (those with weight
    # on A's index 0): the block unions and the index projectors both find
    # P[0], the block copy with rounding noise where the index copy holds
    # exact zeros, so the two differ in zero signs after rounding; one key
    # rule gives both one key, and the candidates hold P[0] once
    s = build_fixture("s1_general", d=6)
    t = StateSet(s.space, [k for k in s if not k.label.startswith("r0_")], s.name)
    sp = oplm_space(t, 1, on_support=True)
    [block] = projective_oplms(sp, block_structure(sp))
    index = np.diag(np.eye(sp.support.shape[0], dtype=np.complex128)[0])
    pairs = [block.kraus, [index, np.eye(len(index)) - index]]
    assert block.labels[0] == "P[0]"
    assert len({min(np.round(k, linalg.KEY_DECIMALS).tobytes() for k in pair) for pair in pairs}) == 2
    assert len({min(key_bytes(k) for k in pair) for pair in pairs}) == 1
    cands = measurement_candidates(t, 1, sp)
    assert [cands.label(i) for i in range(len(cands))] == ["P[0]"]


@pytest.mark.parametrize("factor", [0.1, 10.0])
def test_key_bytes_flips_at_key_decimals(factor):
    # an entry of 0.25, far from a rounding half-point, moved by `factor`
    # units of the last kept decimal: its key moves only above the unit
    a = np.full((2, 2), 0.25, dtype=np.complex128)
    moved = a.copy()
    moved[0, 1] += factor * 10.0**-linalg.KEY_DECIMALS
    assert (key_bytes(moved) == key_bytes(a)) is (factor < 1)


def test_key_bytes_normalizes_signed_zeros():
    # -0.0 in place of +0.0, written or left by rounding a tiny negative
    # entry, gives the same key bytes, though not the same raw bytes
    a = np.array([[0.5, 0.0], [0.0, 0.5j]])
    signed = a.copy()
    signed[0, 1] = complex(-0.0, -0.0)
    signed[1, 0] = complex(-1e-17, 0.0)
    assert signed.tobytes() != a.tobytes()
    assert key_bytes(signed) == key_bytes(a)
