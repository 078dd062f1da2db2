"""The trust base on its own: `qlocc.certify` cannot reach the search, a
certificate that reads the search's node facts is the certificate that
replay alone gives, and replay's one product per measurement applies each
outcome as the search does."""

import ast
import json
import re
from pathlib import Path

import numpy as np
import pytest

import qlocc
from qlocc import certify, partitions, protocol
from qlocc.certify import Leaf, Measure, _replay, apply_measurement, apply_outcome, certify_activation_protocol, tree_to_json, verify_protocol
from qlocc.cli import main
from qlocc.fixtures import BUILTIN_PROTOCOLS, build_fixture, builtin_protocol
from qlocc.oplm import LocalMeasurement
from qlocc.partitions import hidden_nonlocality_profile
from qlocc.protocol import SetAnalyzer, activation_search, search_distinguishing_protocol
from qlocc.qset import serialize_qset
from qlocc.states import PartySpace, StateSet, apply_local_unitaries, make_ket, merge_parties, random_local_unitaries

from _helpers import outcome_matches_reference, same_bits

PACKAGE = Path(qlocc.__file__).parent
ENGINE_MODULES = {"qlocc.protocol", "qlocc.partitions", "qlocc.cli", "qlocc.fixtures"}
ENGINE_NAMES = ("SetAnalyzer", "_Node", "_RULES", "measurement_candidates")


def _source(module: str) -> Path:
    return PACKAGE / ("__init__.py" if module == "qlocc" else f"{module.removeprefix('qlocc.')}.py")


def _qlocc_imports(module: str) -> set[str]:
    """The qlocc modules that the import statements of `module` name; a
    name imported from the package itself counts as its `__init__`."""
    out = set()
    for node in ast.walk(ast.parse(_source(module).read_text())):
        if isinstance(node, ast.Import):
            out |= {a.name for a in node.names if a.name.split(".")[0] == "qlocc"}
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = f"qlocc.{node.module}" if node.module else "qlocc"
            else:
                base = node.module or ""
            if base.split(".")[0] != "qlocc":
                continue
            if base != "qlocc":
                out.add(base)
                continue
            for a in node.names:
                sub = f"qlocc.{a.name}"
                out.add(sub if _source(sub).exists() else "qlocc")
    return out


def _reached(root: str) -> set[str]:
    """Every qlocc module the imports of `root` reach, `root` included."""
    seen, todo = set(), [root]
    while todo:
        module = todo.pop()
        if module not in seen:
            seen.add(module)
            todo += _qlocc_imports(module)
    return seen


def test_the_trust_base_cannot_reach_the_engine():
    reached = _reached("qlocc.certify")
    assert reached & ENGINE_MODULES == set()
    assert reached == {"qlocc.certify", "qlocc.linalg", "qlocc.oplm", "qlocc.qset", "qlocc.states", "qlocc.upb"}
    # the walk sees an import of the engine where there is one
    assert "qlocc.protocol" in _reached("qlocc.partitions") and "qlocc.certify" in _reached("qlocc.protocol")


def test_the_trust_base_names_nothing_of_the_search():
    text = _source("qlocc.certify").read_text()
    assert [name for name in ENGINE_NAMES if re.search(rf"\b{name}\b", text)] == []


@pytest.fixture(scope="module")
def activations():
    """(set, analyzer, certificate) of every Activation that
    `activation_search` returns on s3, on s4 as A|BC and in each partition
    of the s2 and s4 profiles, and for each of them whether certifying its
    tree left the analyzer's node keys as they were, in order."""
    runs, unchanged = [], []

    def recorded(s, max_depth=8, analyzer=None):
        an = analyzer if analyzer is not None else SetAnalyzer()
        cert = activation_search(s, max_depth, analyzer=an)
        runs.append((s, an, cert))
        return cert

    def reading(s, tree, known=None):
        before = list(known)
        cert = certify_activation_protocol(s, tree, known=known)
        unchanged.append(list(known) == before)
        return cert

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(partitions, "activation_search", recorded)
        mp.setattr(protocol, "certify_activation_protocol", reading)
        recorded(build_fixture("s3"), 4)
        recorded(merge_parties(build_fixture("s4"), [(0,), (1, 2)]), 8)
        for name in ("s2", "s4"):
            hidden_nonlocality_profile(build_fixture(name), max_depth=8)
    found = [run for run in runs if run[2].kind == "Activation"]
    return found, unchanged


def test_certification_only_reads_the_search_nodes(activations):
    # s3, s4 as A|BC, and three of the profiles' partitions
    found, unchanged = activations
    assert len(unchanged) == len(found) == 5 and all(unchanged)


def test_certificates_without_the_search_nodes_are_the_same(activations, monkeypatch):
    keys = []
    canonical_key = certify.canonical_key

    def counted(s):
        keys.append(s)
        return canonical_key(s)

    monkeypatch.setattr(certify, "canonical_key", counted)
    found, _ = activations
    for s, an, cert in found:
        nodes = list(an.nodes)
        keys.clear()
        fresh = certify_activation_protocol(s, cert.tree)
        assert (fresh.kind, fresh.verified, fresh.notes) == (cert.kind, cert.verified, cert.notes) == ("Activation", True, "")
        assert fresh.leaf_evidence == cert.leaf_evidence
        assert json.dumps(tree_to_json(fresh.tree)) == json.dumps(tree_to_json(cert.tree))
        # one key per leaf and one per recorded leaf set, as the search's own
        # certification takes
        assert len(keys) == 2 * len(fresh.leaf_evidence) > 0
        assert list(an.nodes) == nodes
        # facts decided for leaves missing from `known` stay out of it
        unrelated = {}
        assert certify_activation_protocol(s, cert.tree, known=unrelated).leaf_evidence == cert.leaf_evidence
        assert unrelated == {}


@pytest.mark.parametrize("tree, argv", [("s3_discrimination", ()), ("s3_activation", ("--activation",))])
def test_the_cli_verify_path_builds_no_analyzer(tmp_path, monkeypatch, capsys, tree, argv):
    def refused():
        raise AssertionError("a SetAnalyzer was built")

    monkeypatch.setattr(protocol, "SetAnalyzer", refused)
    path = tmp_path / "s3.qset"
    path.write_text(serialize_qset(build_fixture("s3")))
    assert main(["protocol", "verify", "--set", str(path), "--protocol", f"builtin:{tree}", *argv]) == 0
    assert capsys.readouterr().err == ""


# ---------------------------------------------------------------------------
# one product per measurement


@pytest.fixture(scope="module")
def replayed_trees():
    """(set, tree) per tree of the replay benchmark: the builtin trees and
    the trees searched on s1 and on s1_general at d = 4 and 6."""
    s1, s3 = build_fixture("s1"), build_fixture("s3")
    sets = {"s3_discrimination": s3, "s3_activation": s3, "s1_recursion": s1, "s4_abc_activation": merge_parties(build_fixture("s4"), [(0,), (1, 2)])}
    assert set(sets) == set(BUILTIN_PROTOCOLS)
    trees = {name: (s, builtin_protocol(name)) for name, s in sets.items()}
    for name, s, depth in (("s1_search", s1, 6), ("s1_general4", build_fixture("s1_general", d=4), 8), ("s1_general6", build_fixture("s1_general", d=6), 12)):
        cert = search_distinguishing_protocol(s, max_depth=depth)
        assert cert.kind == "Distinguishability"
        trees[name] = (s, cert.tree)
    return trees


def _rotated(node, us):
    """The tree in the frame of the local unitaries `us`: each Kraus K of
    party p becomes U_p K U_p^dagger."""
    if not isinstance(node, Measure):
        return node
    u, m = us[node.party], node.measurement
    kraus = [u @ k @ u.conj().T for k in m.kraus]
    return Measure(node.party, LocalMeasurement(node.party, kraus, m.labels), [_rotated(c, us) for c in node.children])


def _walk_both(node, s, path, failures, reached):
    """Walk a tree from `s` as replay does, applying each measurement once
    as a stack through `apply_measurement` and once per outcome through
    `apply_outcome`, and assert that every outcome agrees bit for bit, with
    the per-state reference too; keep the failure strings replay would
    record and the path of every reached set."""
    if len(s) == 0 or not isinstance(node, Measure):
        return
    party, kraus = node.party, node.measurement.kraus
    stacked = apply_measurement(s, party, kraus)
    for o, (k, got) in enumerate(zip(kraus, stacked, strict=True)):
        try:
            want = apply_outcome(s, party, k)
        except ValueError as exc:
            assert isinstance(got, ValueError) and str(got) == str(exc)
            failures.append(f"{path}/{o}: {exc}")
            continue
        assert outcome_matches_reference(s, party, k, got)
        child, labels = got
        assert labels == want[1] == child.labels and child.name == want[0].name
        assert same_bits(child.matrix(), want[0].matrix())
        reached.append(f"{path}/{o}")
        _walk_both(node.children[o], child, f"{path}/{o}", failures, reached)


@pytest.mark.parametrize("frame", [1, 2, 3])
@pytest.mark.parametrize("name", ["s3_discrimination", "s3_activation", "s1_recursion", "s4_abc_activation", "s1_search", "s1_general4", "s1_general6"])
def test_stacked_replay_is_the_per_outcome_walk(replayed_trees, name, frame):
    s, tree = replayed_trees[name]
    us = random_local_unitaries(s.space, np.random.default_rng(frame))
    s, tree = apply_local_unitaries(s, us), _rotated(tree, us)
    failures, reached = [], []
    _walk_both(tree, s, "root", failures, reached)
    replay_failures = []
    leaves = [path for path, _, _ in _replay(tree, s, replay_failures)]
    assert replay_failures == failures
    assert leaves and set(leaves) <= set(reached)


def test_an_outcome_fault_stays_with_its_outcome():
    # one measurement of party A on |ab>, a = 0, 1 and b = 0, 1: outcome 0
    # keeps a = 0 and its subtree tells b; outcome 1 scales a = 1 by 1e200, so
    # its survivors' norms overflow; outcome 2 maps |0> and |1> both to |+>;
    # outcome 3 projects on |2>, which no state occupies
    space = PartySpace((3, 2))
    s = StateSet(space, [make_ket(space, [(1, (a, b))], f"{a}{b}") for a in (0, 1) for b in (0, 1)], "four")

    def proj(d, idx):
        return np.diag([1.0 if i in idx else 0.0 for i in range(d)]).astype(complex)

    plus = np.zeros((3, 3), dtype=complex)
    plus[:2, :2] = 0.5
    tell_b = Measure(1, LocalMeasurement(1, [proj(2, {0}), proj(2, {1})], ["b0", "b1"]), [Leaf("00"), Leaf("01")])
    kraus = [proj(3, {0}), 1e200 * proj(3, {1}), plus, proj(3, {2})]
    tree = Measure(0, LocalMeasurement(0, kraus, ["a0", "huge", "plus", "a2"]), [tell_b, None, None, None])
    with np.errstate(over="ignore", invalid="ignore"):
        report = verify_protocol(s, tree)
        results = apply_measurement(s, 0, kraus)
    # the failure strings of the per-outcome replay this one replaced
    assert report.failures == [
        "root: measurement completeness violated",
        "root/1: state norm overflows the float range",
        "root/2: outcome breaks orthogonality: |<00|10>| = 1",
        "states never identified: 10, 11",
    ]
    assert report.identified == {"00": "root/0/0", "01": "root/0/1"}
    assert [r if isinstance(r, ValueError) else r[1] for r in results[::3]] == [["00", "01"], []]
    assert all(isinstance(r, ValueError) for r in results[1:3])


def test_a_completeness_residual_that_is_not_a_number_fails():
    # (1 + i) 1e200 on |2>, which no state occupies, so no outcome fails;
    # K^dagger K has inf - inf in its imaginary part, and the residual is NaN
    space = PartySpace((3, 2))
    s = StateSet(space, [make_ket(space, [(1, (a, 0))], f"{a}0") for a in (0, 1)], "two")
    kraus = [np.diag([1, 0, 0]).astype(complex), np.diag([0, 1, 0]).astype(complex), np.diag([0, 0, 1e200 + 1e200j])]
    tree = Measure(0, LocalMeasurement(0, kraus, ["a0", "a1", "huge"]), [Leaf("00"), Leaf("10"), None])
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(tree.measurement.completeness_residual())
        report = verify_protocol(s, tree)
    assert report.failures == ["root: measurement completeness violated"]
