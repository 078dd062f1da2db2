"""The trust base on its own: `qlocc.certify` cannot reach the search, and
a certificate that reads the search's node facts is the certificate that
replay alone gives."""

import ast
import json
import re
from pathlib import Path

import pytest

import qlocc
from qlocc import certify, partitions, protocol
from qlocc.certify import certify_activation_protocol, tree_to_json
from qlocc.cli import main
from qlocc.fixtures import build_fixture
from qlocc.partitions import hidden_nonlocality_profile
from qlocc.protocol import SetAnalyzer, activation_search
from qlocc.qset import serialize_qset
from qlocc.states import merge_parties

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
