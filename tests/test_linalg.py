import ast
import importlib
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import qlocc
from qlocc import linalg, states
from qlocc.fixtures import build_fixture
from qlocc.linalg import as_carray
from qlocc.oplm import is_locally_irreducible
from qlocc.protocol import activation_search, search_distinguishing_protocol
from qlocc.states import Bipartition, Ket, PartySpace, make_ket, schmidt_rank
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
