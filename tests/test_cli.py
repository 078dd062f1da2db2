import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qlocc
from qlocc import cli, upb
from qlocc.cli import build_parser, main
from qlocc.fixtures import build_fixture
from qlocc.linalg import SPAN_TOL
from qlocc.certify import matrix_json, tree_to_json
from qlocc.qset import serialize_qset
from qlocc.states import StateSet

from _helpers import digest, near_bell_leaves_tree, near_orthogonal_leaves_tree, truncated_s3_activation_tree


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name in ("s1", "s2", "s3", "tiles33"):
        p = tmp_path / f"{name}.qset"
        p.write_text(serialize_qset(build_fixture(name)))
        paths[name] = str(p)
    p = tmp_path / "s6v.qset"
    p.write_text(serialize_qset(build_fixture("s6", "verbatim")))
    paths["s6v"] = str(p)
    t = build_fixture("tiles33")
    minus = StateSet(t.space, t.states[:4], "minus")
    p = tmp_path / "minus.qset"
    p.write_text(serialize_qset(minus))
    paths["minus"] = str(p)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out)


def test_fixture_command(capsys, tmp_path):
    out_path = tmp_path / "f.qset"
    code, out, _ = run(capsys, "fixture", "--name", "s3", "-o", str(out_path))
    assert code == 0
    assert "10-state" in out
    assert "split: 1 = 2 3" in out_path.read_text()


def test_fixture_json_lists_corrections(capsys):
    code, rep = run_json(capsys, "fixture", "--name", "s6")
    assert code == 0
    assert rep["verdicts"]["states"] == 24
    assert len(rep["verdicts"]["corrections"]) == 3


def test_check_ortho(capsys, files):
    code, out, _ = run(capsys, "check-ortho", "--set", files["s1"])
    assert code == 0 and "orthogonal" in out
    code, rep = run_json(capsys, "check-ortho", "--set", files["s6v"])
    assert code == 1
    pair = rep["verdicts"]["violations"][0]["labels"]
    assert set(pair) == {"xi45+_0", "xi5_0"} or set(pair) == {"xi45-_0", "xi5_0"}


@pytest.mark.parametrize(
    "argv",
    [
        ("check-ortho",),
        ("redundancy",),
        ("oplm", "--party", "0"),
        ("irreducible",),
        ("upb",),
        ("protocol", "verify", "--protocol", "builtin:s3_discrimination"),
        ("protocol", "verify", "--activation", "--protocol", "builtin:s3_activation"),
        ("protocol", "search"),
        ("activate",),
        ("profile",),
    ],
)
def test_an_unnamed_set_is_named_by_its_path(capsys, tmp_path, argv):
    # a qset without a `name:` line: human text names it by its --set path
    # (`render` prints the document only); JSON reports keep the empty name
    s3 = build_fixture("s3")
    path = tmp_path / "unnamed.qset"
    path.write_text(serialize_qset(StateSet(s3.space, s3.states, "")))
    assert "name:" not in path.read_text()
    code, out, _ = run(capsys, *argv, "--set", str(path))
    assert code in (0, 1) and out.startswith(f"{path}: "), out


def test_redundancy(capsys, files):
    code, rep = run_json(capsys, "redundancy", "--set", files["s3"])
    assert code == 0
    assert rep["verdicts"]["verdict"] == "locally irredundant"
    assert any(
        {v["labels"][0], v["labels"][1]} == {"phi3", "phi4"}
        for v in rep["verdicts"]["per_discard"]["b2"]
    )


@pytest.mark.parametrize(
    "name, pin",
    [
        ("s2", "d998bcaca41b559d728b7b508cccaf19ff7c71f6cf9dd1da9dae4312c0b111a2"),
        ("s3", "f2a204cba33860b977cd19719a715620f61108e7fdefe36da535e06b5e7428b4"),
        ("s4", "5f47f64bff6976b5044cf8772ae13042426594b8d6e4e5f5332702504a77a265"),
        ("s6", "b2c7c9b0ae9b32ba5c15239a9df3a77ae87fe794417d903fba4ad5d413d84826"),
    ],
)
def test_redundancy_json_bytes(capsys, tmp_path, name, pin):
    """sha256 of the sorted JSON report without `timings`, with the set's
    path cut to its file name; recorded before redundancy moved onto the
    amplitude matrix."""
    path = tmp_path / f"{name}.qset"
    path.write_text(serialize_qset(build_fixture(name)))
    code, rep = run_json(capsys, "redundancy", "--set", str(path))
    del rep["timings"]
    rep["params"]["set"] = path.name
    assert code == 0 and rep["verdicts"]["verdict"] == "locally irredundant"
    assert digest(rep) == pin


@pytest.mark.parametrize(
    "case, note",
    [
        (near_orthogonal_leaves_tree, "leaf set not certified locally indistinguishable"),
        (near_bell_leaves_tree, "leaf set not orthogonal at ORTHO_TOL"),
    ],
)
def test_protocol_verify_activation_near_orthogonal_leaves_fail(capsys, tmp_path, case, note):
    s, tree = case()
    set_path, tree_path = tmp_path / "near.qset", tmp_path / "near.json"
    set_path.write_text(serialize_qset(s))
    tree_path.write_text(json.dumps(tree_to_json(tree)))
    code, rep = run_json(capsys, "protocol", "verify", "--set", str(set_path), "--protocol", str(tree_path), "--activation")
    assert code == 1
    assert rep["verdicts"]["kind"] == "ProtocolFailure"
    assert rep["verdicts"]["notes"].count(note) == 2


def test_oplm(capsys, files):
    code, rep = run_json(capsys, "oplm", "--set", files["s1"], "--party", "0")
    assert code == 0
    v = rep["verdicts"]
    assert v["space_dim"] == 2
    assert v["block_supports"] == [[0], [1, 2, 3]]
    assert v["projective_measurements"] == ["P[0]"]
    # basis matrices as nested [re, im] arrays
    assert isinstance(v["basis"][0][0][0], list) and len(v["basis"][0][0][0]) == 2


def test_irreducible(capsys, files):
    code, rep = run_json(capsys, "irreducible", "--set", files["tiles33"])
    assert code == 0 and rep["verdicts"]["verdict"] == "IRREDUCIBLE-EXACT"
    code, rep = run_json(capsys, "irreducible", "--set", files["s1"])
    assert code == 1 and rep["verdicts"]["verdict"] == "REDUCIBLE"


def test_upb(capsys, files):
    code, out, _ = run(capsys, "upb", "--set", files["tiles33"])
    assert code == 0 and "UNEXTENDIBLE" in out
    code, rep = run_json(
        capsys, "upb", "--set", files["minus"], "--oracle-restarts", "50", "--seed", "3"
    )
    assert code == 1
    assert rep["verdicts"]["verdict"] == "EXTENDIBLE"
    assert rep["verdicts"]["oracle"]["agrees"]


# The oracle object of `qlocc upb --oracle-restarts 200 --seed 0 --json`,
# pinned with the residual's repr so that any change to the oracle's bits shows.
@pytest.mark.parametrize(
    "name, oracle",
    [
        ("tiles33", {"residual": "0.028416213335729284", "restarts": 200, "agrees": True}),
        ("minus", {"residual": "5.004680467665246e-34", "restarts": 200, "agrees": True}),
    ],
)
def test_upb_oracle_json_pinned(capsys, files, name, oracle):
    _, rep = run_json(capsys, "upb", "--set", files[name], "--oracle-restarts", "200", "--seed", "0")
    got = dict(rep["verdicts"]["oracle"])
    got["residual"] = repr(got["residual"])
    assert got == oracle


def test_upb_oracle_runs_past_the_assignment_cap(capsys, tmp_path):
    # s1_general d=6: 36 product states on 6x6, 2^36 assignments; the exact
    # check refuses them, and --oracle-restarts still runs the oracle
    path = tmp_path / "s1g6.qset"
    path.write_text(serialize_qset(build_fixture("s1_general", d=6)))
    code, out, err = run(capsys, "upb", "--set", str(path))
    assert (code, out) == (2, "")
    assert err == "qlocc: error: 2^36 assignments exceed cap; use numeric_extension_search\n"
    code, rep = run_json(capsys, "upb", "--set", str(path), "--oracle-restarts", "20")
    assert code == 2
    v = rep["verdicts"]
    assert v["verdict"] == "REFUSED"
    assert v["refusal"] == "2^36 assignments exceed ASSIGNMENT_CAP = 10000000"
    assert v["oracle"]["restarts"] == 20 and v["oracle"]["agrees"] is None
    # a unit vector's squared overlaps with a complete basis sum to 1
    assert v["oracle"]["residual"] == pytest.approx(1.0)
    code, out, _ = run(capsys, "upb", "--set", str(path), "--oracle-restarts", "20")
    assert code == 2
    assert out.startswith("s1_general(6): exact check refused (2^36 assignments exceed ASSIGNMENT_CAP = 10000000); oracle residual ")


def test_upb_oracle_runs_past_the_node_cap(capsys, files, monkeypatch):
    # the node cap refuses the same way: tiles33 takes 19 nodes
    monkeypatch.setattr(upb, "NODE_CAP", 5)
    code, _, err = run(capsys, "upb", "--set", files["tiles33"])
    assert code == 2 and err == "qlocc: error: assignment search exceeded node cap\n"
    code, rep = run_json(capsys, "upb", "--set", files["tiles33"], "--oracle-restarts", "3")
    assert code == 2
    assert rep["verdicts"]["refusal"] == "assignment search exceeded NODE_CAP = 5 nodes"
    assert rep["verdicts"]["oracle"]["restarts"] == 3 and rep["verdicts"]["oracle"]["agrees"] is None


def test_protocol_verify_builtin(capsys, files):
    code, out, _ = run(capsys, "protocol", "verify", "--set", files["s3"], "--protocol", "builtin:s3_discrimination")
    assert code == 0 and "PASS-DISCRIMINATION" in out
    code, out, _ = run(
        capsys, "protocol", "verify", "--set", files["s3"], "--protocol", "builtin:s3_activation", "--activation"
    )
    assert code == 0 and "CERTIFIED" in out


def test_truncated_activation_protocol_fails(capsys, files, tmp_path):
    proto = tmp_path / "s3_truncated.json"
    proto.write_text(json.dumps(tree_to_json(truncated_s3_activation_tree())))
    code, out, _ = run(capsys, "protocol", "verify", "--set", files["s3"], "--protocol", str(proto), "--activation")
    assert code == 1 and "FAILED" in out
    code, rep = run_json(capsys, "activate", "--set", files["s3"], "--protocol", str(proto))
    assert code == 1
    assert rep["verdicts"]["kind"] == "ProtocolFailure"


def test_kraus_of_the_wrong_size_fails_replay(capsys, files, tmp_path):
    proto = tmp_path / "k2.json"
    outcome = [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]
    proto.write_text(json.dumps({"party": 0, "outcomes": [{"kraus": outcome, "child": None}, {"kraus": outcome[::-1], "child": None}]}))
    code, out, _ = run(capsys, "protocol", "verify", "--set", files["s3"], "--protocol", str(proto))
    assert code == 1 and "root: kraus is 2x2, party A has dimension 6;" in out and "matmul" not in out
    code, rep = run_json(capsys, "activate", "--set", files["s3"], "--protocol", str(proto))
    assert code == 1
    assert (rep["verdicts"]["kind"], rep["verdicts"]["notes"]) == ("ProtocolFailure", "root: kraus is 2x2, party A has dimension 6")


def test_one_party_profile_and_stray_d_exit_2(capsys, tmp_path):
    path = tmp_path / "one.qset"
    path.write_text("qset v1\ndims: 4\nstate a: |0>\nstate b: |1>\n")
    code, out, err = run(capsys, "profile", "--set", str(path))
    assert (code, out, err) == (2, "", "qlocc: error: a profile needs at least two parties\n")
    code, out, err = run(capsys, "fixture", "--name", "s1", "--d", "6")
    assert (code, out, err) == (2, "", "qlocc: error: fixture s1 takes no d; only s1_general does\n")


def test_protocol_search_and_reuse(capsys, files, tmp_path):
    proto = tmp_path / "s1_found.json"
    code, _, _ = run(capsys, "protocol", "search", "--set", files["s1"], "--max-depth", "6", "-o", str(proto))
    assert code == 0
    code, out, _ = run(capsys, "protocol", "verify", "--set", files["s1"], "--protocol", str(proto))
    assert code == 0 and "PASS-DISCRIMINATION" in out


def test_protocol_search_exhaustion(capsys, files):
    code, rep = run_json(capsys, "protocol", "search", "--set", files["tiles33"], "--max-depth", "4")
    assert code == 1
    assert rep["verdicts"]["kind"] == "Exhaustion"


def test_activate(capsys, files):
    code, rep = run_json(capsys, "activate", "--set", files["s1"], "--max-depth", "6")
    assert code == 1
    assert rep["verdicts"]["kind"] == "NonActivabilityInClass"
    code, rep = run_json(capsys, "activate", "--set", files["s3"], "--max-depth", "4")
    assert code == 0
    assert rep["verdicts"]["kind"] == "Activation"


def test_profile(capsys, files):
    code, rep = run_json(capsys, "profile", "--set", files["s2"], "--max-depth", "8")
    assert code == 0
    assert rep["verdicts"]["h_flags"]["1"]["value"] == "zero"
    assert rep["verdicts"]["h_flags"]["2"]["value"] == "zero"


def test_render_with_overlay(capsys, files, tmp_path):
    out_file = tmp_path / "s3.svg"
    code, _, _ = run(
        capsys,
        "render",
        "--set",
        files["s3"],
        "--format",
        "svg",
        "-o",
        str(out_file),
        "--overlay",
        "builtin:s3_activation",
    )
    assert code == 0
    assert 'class="overlay"' in out_file.read_text()


def test_render_ascii_stdout(capsys, files):
    code, out, _ = run(capsys, "render", "--set", files["s1"])
    assert code == 0 and "tiles" in out


def test_json_determinism(capsys, files):
    _, rep1 = run_json(capsys, "activate", "--set", files["s1"], "--max-depth", "6")
    _, rep2 = run_json(capsys, "activate", "--set", files["s1"], "--max-depth", "6")
    rep1.pop("timings")
    rep2.pop("timings")
    assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)


@pytest.mark.parametrize(
    "coeff", ["1/sqrt(0)", "1/sqrt(" + "9" * 400 + ")", "9" * 400 + "/3", "(1e999,0)"], ids=["sqrt0", "sqrt-huge", "p-huge", "real"]
)
def test_coefficient_outside_float_range_exits_2(capsys, tmp_path, coeff):
    bad = tmp_path / "range.qset"
    bad.write_text(f"qset v1\ndims: 2 2\nstate a: {coeff}*|0,0>\n")
    code, _, err = run(capsys, "check-ortho", "--set", str(bad))
    assert code == 2 and err.startswith("qlocc: parse error: E_RANGE at line 3, col 10:"), err


def test_irreducible_names_the_atom_cap_at_desk_scale(capsys, tmp_path):
    # |i,0> on 24 x 2: both union families of party A have 24 atoms
    wide = tmp_path / "wide.qset"
    wide.write_text("qset v1\ndims: 24 2\n" + "".join(f"state e{i}: |{i},0>\n" for i in range(24)))
    start = time.perf_counter()
    code, rep = run_json(capsys, "irreducible", "--set", str(wide))
    assert time.perf_counter() - start < 5.0
    assert code == 0 and rep["verdicts"]["verdict"] == "IRREDUCIBLE-IN-CLASS"
    assert rep["verdicts"]["class_note"].endswith("; block unions and index projectors not enumerated for party A (above 16 atoms)")
    code, rep = run_json(capsys, "oplm", "--set", str(wide), "--party", "0")
    assert code == 0 and rep["verdicts"]["projective_measurements"] is None


@pytest.mark.parametrize("command", [("protocol", "verify", "--protocol"), ("activate", "--protocol"), ("render", "--overlay")])
def test_too_deeply_nested_protocol_file_is_refused(capsys, files, tmp_path, command):
    # a chain of 3,000 measurements is 9,000 nested JSON containers, beyond
    # the recursion limit of json's decoder
    deep = tmp_path / "deep.json"
    deep.write_text('{"party": 0, "outcomes": [{"kraus": [[[1, 0]]], "child": ' * 3000 + "null" + "}]}" * 3000)
    *words, option = command
    code, out, err = run(capsys, *words, "--set", files["s3"], option, str(deep))
    assert (code, out, err) == (2, "", f"qlocc: error: protocol {deep}: nested too deeply to read\n")


def test_usage_errors(capsys, files, tmp_path, monkeypatch):
    code, _, err = run(capsys, "check-ortho")
    assert code == 2 and "required" in err
    bad = tmp_path / "bad.qset"
    bad.write_text("qset v1\ndims: 2 2\nstate a: |0,5>\n")
    code, _, err = run(capsys, "check-ortho", "--set", str(bad))
    assert code == 2 and "E_DIM" in err
    code, _, err = run(capsys, "upb", "--set", str(tmp_path / "missing.qset"))
    assert code == 2
    # malformed protocol JSON: missing keys, wrong-typed entries, bad nodes
    protocol = tmp_path / "p.json"
    for doc in (
        {},
        [],
        {"party": 0},
        {"party": 0, "outcomes": []},
        {"party": 0, "outcomes": [{"kraus": [[[1, 0]]]}]},
        {"party": 0, "outcomes": [{"child": None}]},
        {"party": "0", "outcomes": [{"kraus": [[[1, 0]]], "child": None}]},
        {"party": 0, "outcomes": 5},
        {"party": 0, "outcomes": [5]},
        {"party": 0, "outcomes": [{"kraus": 3, "child": None}]},
        {"party": 0, "outcomes": [{"kraus": [[[1, 0, 2]]], "child": None}]},
        {"party": 0, "outcomes": [{"kraus": [[[1, 0]], [[1, 0], [0, 0]]], "child": None}]},
        {"party": 0, "outcomes": [{"kraus": [[[1, 0]]], "child": None}, {"kraus": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]], "child": None}]},
        {"party": 0, "outcomes": [{"kraus": [[[1, 0]]], "child": 5}]},
        {"identified": 3},
        {"set": 4},
        {"set": "garbage"},
        {"set": "qset v1\ndims: 2 2\nstate a: |0,5>\n"},
    ):
        protocol.write_text(json.dumps(doc))
        code, _, err = run(capsys, "protocol", "verify", "--set", files["s3"], "--protocol", str(protocol))
        assert code == 2 and err.startswith("qlocc: error: malformed protocol"), (doc, err)
    # overlay paths that leave the tree or walk through a leaf
    for spec, where in (("builtin:s3_activation:9", "root"), ("builtin:s3_activation:0/0/0", "root/0/0")):
        code, _, err = run(capsys, "render", "--set", files["s3"], "--overlay", spec)
        assert code == 2 and err.startswith("qlocc: error: overlay path") and f"{where} has no child" in err, (spec, err)
    # a tolerance that is not a finite number >= 0: |<a|b>| = 0.707 would pass the gate
    skew = tmp_path / "skew.qset"
    skew.write_text("qset v1\ndims: 2 2\nstate a: |0,0>\nstate b: |0,0> + |1,1>\n")
    # (--force skips the gate, not the tolerance check)
    commands = (("check-ortho",), ("irreducible",), ("irreducible", "--force"))
    for tol in ("nan", "inf", "-1"):
        for command in commands:
            code, out, err = run(capsys, *command, "--set", str(skew), "--tol", tol)
            assert code == 2 and not out and err.startswith("qlocc: error: --tol must be a finite number"), (command, tol, err)
    for tol in ("nan", "inf", "-1e-9", "abc"):
        monkeypatch.setenv("QLOCC_TOL", tol)
        for command in commands:
            code, out, err = run(capsys, *command, "--set", str(skew))
            assert code == 2 and not out and err.startswith("qlocc: error: QLOCC_TOL must be a finite number"), (command, tol, err)
    assert err == "qlocc: error: QLOCC_TOL must be a finite number >= 0, not 'abc'\n"
    monkeypatch.delenv("QLOCC_TOL")
    assert run(capsys, "check-ortho", "--set", str(skew), "--tol", "0")[0] == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("activate", "--seed", "1"),
        ("check-ortho", "--seed", "1"),
        ("render", "--tol", "1e-9"),
        ("check-ortho", "--force"),
        ("render", "--force"),
    ],
)
def test_options_only_where_read(capsys, files, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--set", files["s1"]])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("protocol", "search", "--max-depth", "-3"),
        ("activate", "--max-depth", "-1"),
        ("profile", "--max-depth", "-2"),
        ("upb", "--oracle-restarts", "-5"),
    ],
    ids=["protocol-search", "activate", "profile", "upb"],
)
def test_negative_counts_are_usage_errors(capsys, files, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--set", files["s1"]])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: qlocc") and f"argument {argv[-2]}: must be >= 0, not {argv[-1]}" in err, err
    with pytest.raises(SystemExit) as exc:
        main([*argv[:-1], "2.5", "--set", files["s1"]])
    assert exc.value.code == 2 and f"argument {argv[-2]}: invalid int value: '2.5'" in capsys.readouterr().err


def test_non_orthogonal_input_negative_verdict(capsys, files):
    code, out, _ = run(capsys, "redundancy", "--set", files["s6v"])
    assert code == 1 and "not pairwise orthogonal" in out


@pytest.mark.parametrize(
    "argv, pin",
    [
        (("redundancy",), "44bf7f82f5a58ffaea5722eb416e9c6668463c5f6fe0c98b208d194d11db468e"),
        (("oplm", "--party", "0"), "f750b006c76bbc68cb83dafa9e9b16e86f19a604cfb9157f1f9357f6b1f7c8e7"),
        (("irreducible",), "71cc4d45fa4f8292967d95eb9f1d256cd6e8bf6e2bee050975707cc92828f290"),
        (("upb",), "1476045ad2d09bff45cbaa4a7a262093ca72fe11c8914d11a8e7e362349ebf84"),
        (("protocol", "verify", "--protocol", "builtin:s3_activation"), "a67ac9a2725ca6154d7d2ba750398c898c99f9871d47c4c5d19ff88db4513afd"),
        (("protocol", "search"), "3bb2050f591e4f56fe45972e10e92fa9421e63a6f69b1b837b221b2c2e2b5090"),
        (("activate",), "760bc0b743b486afd60eda41be3fe4424209e052c87a4403a35ee0dcd481d7df"),
        (("profile",), "1bf5a8fe30919e650cc9c9a47cfc28b3a7195286531a1ca98c0782ba40cd355f"),
    ],
    ids=["redundancy", "oplm", "irreducible", "upb", "protocol-verify", "protocol-search", "activate", "profile"],
)
def test_gate_refusal_pinned(capsys, files, argv, pin):
    """Every command that takes --force refuses verbatim s6 the same way:
    exit 1, one human line, and a JSON report whose sha256 (without
    `timings`, the set's path cut to its file name) was recorded while each
    command still ran the gate itself."""
    code, out, err = run(capsys, *argv, "--set", files["s6v"])
    assert (code, out, err) == (
        1,
        "input set is not pairwise orthogonal (|<xi5_0|xi45+_0>| = 0.7071); rerun with --force to analyze anyway\n",
        "",
    )
    code, rep = run_json(capsys, *argv, "--set", files["s6v"])
    del rep["timings"]
    rep["params"]["set"] = "s6v.qset"
    assert code == 1 and rep["verdicts"]["verdict"] == "non-orthogonal input"
    assert digest(rep) == pin


def test_tol_env_override(capsys, files, monkeypatch):
    monkeypatch.setenv("QLOCC_TOL", "1.0")
    code, _, _ = run(capsys, "check-ortho", "--set", files["s6v"])
    assert code == 0  # everything passes at tol 1.0


def test_force_allows_non_orthogonal_analysis(capsys, files):
    code, rep = run_json(capsys, "oplm", "--set", files["s6v"], "--party", "0", "--force")
    assert code == 0
    assert rep["verdicts"]["space_dim"] >= 1


def test_oplm_reports_an_empty_operator_space(capsys, files):
    code, out, err = run(capsys, "oplm", "--set", files["s6v"], "--party", "1", "--force")
    assert code == 0 and err == ""
    assert "OPLM space dim 0" in out and "empty: no operator preserves orthogonality, not even I" in out
    code, rep = run_json(capsys, "oplm", "--set", files["s6v"], "--party", "1", "--force")
    v = rep["verdicts"]
    assert code == 0 and v["space_dim"] == 0 and v["basis"] == [] and v["projective_measurements"] == []


def test_oplm_force_lists_no_measurement_on_a_non_orthogonal_set(capsys, files):
    # on A the space is one-dimensional and P[0] passes its own pair test,
    # but I - P[0] does not: their values on a pair sum to <psi_i|psi_j>
    code, out, err = run(capsys, "oplm", "--set", files["s6v"], "--party", "0", "--force")
    assert code == 0 and err == ""
    assert "measurements [] (the set is not orthogonal, |<psi_i|psi_j>| up to 0.7071 > 1e-08: " in out
    code, rep = run_json(capsys, "oplm", "--set", files["s6v"], "--party", "0", "--force")
    v = rep["verdicts"]
    assert code == 0 and v["space_dim"] == 1 and v["commuting"] and v["projective_measurements"] == []


def test_oplm_trivial_needs_the_identity_in_the_space(capsys, files):
    # on the non-orthogonal s6 set, A's one-dimensional space does not hold I
    code, rep = run_json(capsys, "oplm", "--set", files["s6v"], "--party", "0", "--force")
    v = rep["verdicts"]
    assert code == 0 and v["space_dim"] == 1 and v["identity_residual"] == 1.0
    assert v["trivial"] is False
    code, rep = run_json(capsys, "oplm", "--set", files["s1"], "--party", "1")
    v = rep["verdicts"]
    assert code == 0 and v["space_dim"] == 1 and v["identity_residual"] <= SPAN_TOL
    assert v["trivial"] is True


def test_irreducible_force_says_the_input_is_not_orthogonal(capsys, files):
    code, out, err = run(capsys, "irreducible", "--set", files["s6v"], "--force")
    assert code == 2 and out == ""
    assert err.startswith("qlocc: error: input set is not orthogonal (|<")
    assert "measurement" not in err


def test_oplm_on_support_flag(capsys, files):
    code, rep = run_json(capsys, "oplm", "--set", files["s3"], "--party", "1", "--on-support")
    assert code == 0
    assert rep["verdicts"]["support_dim"] == 5  # s3's B parts span a 5-dim subspace


def test_fixture_general_family(capsys, tmp_path):
    out = tmp_path / "g6.qset"
    code, _, _ = run(capsys, "fixture", "--name", "s1_general", "--d", "6", "-o", str(out))
    assert code == 0
    code2, _, _ = run(capsys, "check-ortho", "--set", str(out))
    assert code2 == 0


def test_main_reuses_one_parser_and_nothing_else(capsys, files, monkeypatch):
    # main parses every call with one parser; a flag given to one call must
    # not reach the next, so each call reports as it does on a fresh parser
    calls = [
        ("protocol", "verify", "--set", files["s3"], "--protocol", "builtin:s3_activation", "--activation"),
        ("protocol", "verify", "--set", files["s3"], "--protocol", "builtin:s3_discrimination"),
        ("upb", "--set", files["tiles33"], "--oracle-restarts", "50", "--seed", "3"),
        ("upb", "--set", files["tiles33"]),
        ("check-ortho", "--set", files["s6v"], "--tol", "1.0"),
        ("check-ortho", "--set", files["s6v"]),
    ]

    def reports():
        out = []
        for argv in calls:
            code, rep = run_json(capsys, *argv)
            del rep["timings"]
            out.append((code, rep))
        return out

    assert cli._shared_parser() is cli._shared_parser()
    shared = reports()
    assert [code for code, _ in shared] == [0, 0, 0, 0, 0, 1]
    assert all(shared[i] != shared[i + 1] for i in (0, 2, 4))  # each flag shows
    monkeypatch.setattr(cli, "_shared_parser", build_parser)
    assert reports() == shared


def test_build_parser_returns_a_new_parser():
    assert build_parser() is not build_parser()


# -- the JSON writer -----------------------------------------------------------

class _Count(int):
    def __repr__(self):
        return f"_Count({int(self)})"


class _Amount(float):
    def __repr__(self):
        return f"_Amount({float(self)})"


_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e300]),
    st.floats().map(np.float64),
    st.floats().map(_Amount),
)
_INTS = st.one_of(
    st.integers(min_value=-2, max_value=2),
    st.integers(),
    st.integers(min_value=-(10**80), max_value=10**80),
    st.integers().map(_Count),
)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    _INTS,
    _FLOATS,
    st.text(),
    st.sampled_from(["", "é∂😀", '"\\/\b\f\n\r\t\x00\x1f\x7f', "\ud800", "NaN", "n"]),
)
# one kind of key per dict: json sorts the keys, and str does not order against int
_KEYS = st.sampled_from([st.text(), _INTS | st.booleans(), _FLOATS | _INTS, st.none()])
# lists of floats and lists of such lists take the writer's str.join path
_FLOAT_LISTS = st.lists(_FLOATS, max_size=4)
_FLOAT_ROWS = st.lists(_FLOAT_LISTS | st.tuples(_FLOATS, _FLOATS), max_size=4)
_JSON = st.recursive(
    _SCALARS | _FLOAT_LISTS | _FLOAT_ROWS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        _KEYS.flatmap(lambda keys: st.dictionaries(keys, children, max_size=4)),
        _KEYS.flatmap(lambda keys: st.dictionaries(keys, _SCALARS | _FLOAT_LISTS | _FLOAT_ROWS, max_size=4)),
    ),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(obj=_JSON, indent=st.sampled_from([1, 2]))
def test_json_text_is_json_dumps(obj, indent):
    assert cli._dumps(obj, indent) == json.dumps(obj, indent=indent, sort_keys=True)


def test_json_text_of_kraus_pairs_is_json_dumps():
    rng = np.random.default_rng(3)
    k = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    k[0, 0], k[1, 1], k[2, 2] = complex(-0.0, 0.0), complex(math.nan, 1.0), complex(math.inf, -math.inf)
    for obj in (
        [matrix_json(k)],
        {"kraus": matrix_json(k), "empty": [[], [[]], {}], "ragged": [[1.0], [], [2.0, 3.0]]},
        matrix_json(k)[0],
        {1: "one", 0: "zero", -1: [True, False, None]},
        {True: 1, False: 0},
        {None: "null"},
        {1.5: 1, -0.0: 2, math.inf: 3, -math.inf: 4, 2: 5},
    ):
        for indent in (1, 2):
            assert cli._dumps(obj, indent) == json.dumps(obj, indent=indent, sort_keys=True)


def _error(fn):
    try:
        fn()
    except Exception as exc:  # noqa: BLE001  (the test compares whichever error)
        return type(exc), str(exc)
    return None


_circular_list = []
_circular_list.append([1.0, _circular_list])
_circular_dict = {"a": {}}
_circular_dict["a"]["b"] = _circular_dict


@pytest.mark.parametrize(
    "obj",
    [
        {1: "a", "b": 2},
        {"x": {None: 1, "y": 2}},
        np.int64(3),
        [1.0, np.int64(2)],
        [[1.0, 2.0], [3.0, np.int64(4)]],
        {"k": np.bool_(True)},
        {(1, 2): 3},
        {"s": {1.0}},
        [[1.0], np.array([2.0])],
        10**5000,
        _circular_list,
        _circular_dict,
    ],
    ids=["mixed-keys", "none-and-str-keys", "int64", "int64-in-floats", "int64-in-pairs", "bool_", "tuple-key", "set", "array", "huge-int", "circular-list", "circular-dict"],
)
def test_json_text_raises_as_json_dumps(obj):
    got = _error(lambda: cli._dumps(obj, 2))
    assert got is not None and got == _error(lambda: json.dumps(obj, indent=2, sort_keys=True))


# every command's --json report, and the -o tree of `protocol search`
@pytest.mark.parametrize(
    "argv",
    [
        ("fixture", "--name", "s3"),
        ("check-ortho", "--set", "{s6v}"),
        ("redundancy", "--set", "{s3}"),
        ("redundancy", "--set", "{s6v}"),
        ("oplm", "--set", "{s1}", "--party", "0"),
        ("irreducible", "--set", "{tiles33}"),
        ("upb", "--set", "{minus}", "--oracle-restarts", "20", "--seed", "3"),
        ("protocol", "verify", "--set", "{s3}", "--protocol", "builtin:s3_discrimination"),
        ("protocol", "verify", "--set", "{s3}", "--protocol", "builtin:s3_activation", "--activation"),
        ("protocol", "search", "--set", "{s1}", "--max-depth", "6", "-o", "{tree}"),
        ("activate", "--set", "{s3}", "--max-depth", "4"),
        ("profile", "--set", "{s2}", "--max-depth", "8"),
        ("render", "--set", "{s3}", "--overlay", "builtin:s3_activation"),
    ],
    ids=[
        "fixture",
        "check-ortho",
        "redundancy",
        "redundancy-not-orthogonal",
        "oplm",
        "irreducible",
        "upb-oracle",
        "protocol-verify",
        "protocol-verify-activation",
        "protocol-search-o",
        "activate",
        "profile",
        "render",
    ],
)
def test_report_bytes_are_json_dumps_of_the_report(capsys, files, tmp_path, monkeypatch, argv):
    written, real = [], cli._dumps

    def spy(obj, indent):
        written.append((obj, indent))
        return real(obj, indent)

    monkeypatch.setattr(cli, "_dumps", spy)
    tree = tmp_path / "tree.json"
    main([a.format(tree=tree, **files) for a in argv] + ["--json"])
    out = capsys.readouterr().out
    *trees, (report, indent) = written
    assert indent == 2 and out == json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert "command" in report and "verdicts" in report
    if "-o" in argv:
        [(obj, indent)] = trees
        assert indent == 1 and tree.read_bytes() == json.dumps(obj, indent=1, sort_keys=True).encode()
    else:
        assert trees == []


@pytest.mark.parametrize("argv", [["fixture", "--name", "s1"], ["fixture", "--name", "s1_general", "--d", "12"], ["fixture", "--name", "s1", "--json"]])
def test_closed_stdout_exits_1_without_a_traceback(argv):
    # the pipe's read end is closed before the command starts, so its first
    # write to stdout fails, whether the report is short or long
    read, write = os.pipe()
    os.close(read)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qlocc.__file__)))
    try:
        done = subprocess.run([sys.executable, "-m", "qlocc.cli", *argv], stdout=write, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (1, b"")
