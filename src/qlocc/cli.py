"""qlocc command line interface.

Exit codes: 0 = affirmative/clean verdict, 1 = negative verdict
(non-orthogonal, reducible, extendible, not activable, protocol failed),
2 = input or usage error. `--json` switches the report to JSON; the
`timings` field is the only part excluded from byte-determinism.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import time
from itertools import chain
from json.encoder import encode_basestring_ascii

from . import __version__
from .certify import Measure, certify_activation_protocol, matrix_json, tree_from_json, tree_to_json, verify_protocol
from .fixtures import FIXTURE_NAMES, build_fixture, builtin_protocol, fixture_corrections
from .linalg import ORACLE_TOL, ORTHO_TOL, SPAN_TOL
from .oplm import block_structure, is_locally_irreducible, is_trivial, oplm_space, projective_oplms
from .partitions import hidden_nonlocality_profile
from .protocol import activation_search, search_distinguishing_protocol
from .qset import QsetError, parse_qset, serialize_qset
from .render import overlay_from_kraus, render
from .states import gram_check, party_letter, redundancy_check
from .upb import CapExceeded, check_unextendible, numeric_extension_search


class UsageError(Exception):
    pass


# -- JSON text ----------------------------------------------------------------


def _dumps(obj, indent: int) -> str:
    """`json.dumps(obj, indent=indent, sort_keys=True)`, byte for byte.

    json's indenting encoder is pure Python, one generator frame per token;
    a report prints every Kraus entry. This one returns one string per
    container and writes a list of floats, or a list of such lists (a Kraus
    row of [re, im] pairs), with one `str.join` over `float.__repr__` per
    list. A key that is not a str, a float that is not finite (which json
    writes as NaN or Infinity), a value outside JSON's types, a circular
    structure, or any other error hands the whole object to `json.dumps`,
    so those bytes and every error are json's.
    """
    try:
        return _encode(obj, "\n", " " * indent)
    except (TypeError, ValueError, RecursionError):
        return json.dumps(obj, indent=indent, sort_keys=True)


def _encode(o, nl: str, step: str) -> str:
    """The JSON text of `o`, whose closing bracket goes after `nl`."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if not math.isfinite(o):
            raise ValueError("non-finite float")
        return float.__repr__(o)
    inner = nl + step
    sep = "," + inner
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        kinds = set(map(type, o))
        body = ""
        # a finite float's repr has no "n"; "nan" and "inf" take the general path
        if kinds == {float}:
            body = sep.join(map(float.__repr__, o))
        elif kinds <= {list, tuple} and all(o) and set(map(type, chain.from_iterable(o))) == {float}:
            deeper = inner + step
            row_sep, head, tail = "," + deeper, "[" + deeper, inner + "]"
            body = sep.join([head + row_sep.join(map(float.__repr__, v)) + tail for v in o])
        if not body or "n" in body:
            body = sep.join([_encode(v, inner, step) for v in o])
        return "[" + inner + body + nl + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        body = sep.join(
            [encode_basestring_ascii(k) + ": " + _encode(v, inner, step) for k, v in sorted(o.items())]
        )
        return "{" + inner + body + nl + "}"
    raise TypeError(type(o).__name__)


def _tol(args) -> float:
    """The orthogonality tolerance: --tol, else QLOCC_TOL, else ORTHO_TOL;
    a value that is not a finite number >= 0 is a usage error."""
    if args.tol is not None:
        tol, source = args.tol, "--tol"
    else:
        env = os.environ.get("QLOCC_TOL")
        if not env:
            return ORTHO_TOL
        try:
            tol = float(env)
        except ValueError:
            tol = env  # not a number: refused below, by its text
        source = "QLOCC_TOL"
    if not (isinstance(tol, float) and math.isfinite(tol) and tol >= 0):
        raise UsageError(f"{source} must be a finite number >= 0, not {tol!r}")
    return tol


def _load_set(path, inputs: dict):
    """The set in file `path`, whose sha256 goes into `inputs` under its
    file name."""
    if not path:
        raise UsageError("--set FILE is required")
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")
    inputs[os.path.basename(path)] = hashlib.sha256(raw).hexdigest()
    return parse_qset(raw.decode("utf-8"))


def _refusal(s, tol):
    """The gate's (exit_code, verdict_payload, human_text) for a set that is
    not pairwise orthogonal at `tol`, else None: OP-LOCC is defined on
    orthogonal sets only."""
    rep = gram_check(s, tol=tol)
    if rep.ok:
        return None
    a, b, magnitude = rep.violations[0]
    return (
        1,
        {"verdict": "non-orthogonal input", "worst_pair": {"labels": [a, b], "magnitude": magnitude}},
        f"input set is not pairwise orthogonal (|<{a}|{b}>| = {magnitude:.4g}); rerun with --force to analyze anyway",
    )


# -- command handlers: (args, set) -> (exit_code, verdict_payload, human_text)


def _set_name(args, s) -> str:
    """The set's name in human text: its `name:` line, else the --set path."""
    return s.name or args.set


def cmd_fixture(args, _):
    s = build_fixture(args.name, args.variant, d=args.d)
    text = serialize_qset(s)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    corrections = fixture_corrections(args.name)
    payload = {
        "fixture": args.name,
        "variant": args.variant,
        "states": len(s),
        "dims": list(s.space.party_dims),
        "corrections": [
            {"printed": p, "corrected": c, "justification": j} for p, c, j in corrections
        ],
        "written": args.output or None,
    }
    human = text if not args.output else f"wrote {len(s)}-state fixture {args.name}[{args.variant}] to {args.output}"
    return 0, payload, human


def cmd_check_ortho(args, s):
    tol = args.tol
    rep = gram_check(s, tol=tol)
    payload = {
        "verdict": "orthogonal" if rep.ok else "non-orthogonal",
        "tol": tol,
        "pairs_checked": len(s) * (len(s) - 1) // 2,
        "violations": [
            {"labels": [a, b], "magnitude": v} for a, b, v in rep.violations[:20]
        ],
    }
    human = (
        f"{_set_name(args, s)}: pairwise orthogonal at tol {tol:g} ({payload['pairs_checked']} pairs)"
        if rep.ok
        else f"{_set_name(args, s)}: NOT orthogonal; worst pair "
        f"({rep.violations[0][0]}, {rep.violations[0][1]}) magnitude {rep.violations[0][2]:.6g}"
    )
    return (0 if rep.ok else 1), payload, human


def cmd_redundancy(args, s):
    rep = redundancy_check(s, tol=args.tol)
    payload = {
        "verdict": rep.verdict,
        "witness_discard": list(rep.witness_discard) if rep.witness_discard else None,
        "per_discard": {
            "|".join(discard): [{"labels": [a, b], "trace_product": v} for a, b, v in bad[:5]]
            for discard, bad in rep.violations.items()
        },
    }
    if rep.redundant:
        human = f"{_set_name(args, s)}: locally redundant (discard {','.join(rep.witness_discard)} keeps orthogonality)"
        return 1, payload, human
    human = f"{_set_name(args, s)}: locally irredundant (every discard choice breaks some pair)"
    return 0, payload, human


def cmd_oplm(args, s):
    party = args.party
    if party is None or not 0 <= party < s.space.n_parties:
        raise UsageError("--party INDEX is required and must be in range")
    sp = oplm_space(s, party, on_support=args.on_support)
    bs = block_structure(sp)
    payload = {
        "party": party_letter(party),
        "space_dim": sp.space_dim,
        "support_dim": sp.support_dim,
        "trivial": is_trivial(sp),
        "identity_residual": sp.identity_residual(),
        "basis": [matrix_json(sp.embed(b)) for b in sp.basis],
        "commuting": bs.commuting,
        "block_supports": bs.index_supports if bs.commuting else None,
    }
    if bs.commuting:
        ms = projective_oplms(sp, bs)
        # null when the blocks make more than ATOM_CAP atoms and are not enumerated
        payload["projective_measurements"] = None if ms is None else [m.labels[0] for m in ms]
    human = f"{_set_name(args, s)}: party {party_letter(party)} OPLM space dim {sp.space_dim} (support {sp.support_dim}), "
    if sp.space_dim == 0:
        human += "empty: no operator preserves orthogonality, not even I, so the set is not orthogonal"
    elif not bs.commuting:
        human += "non-commuting"
    else:
        human += f"commuting; blocks {payload['block_supports']}; measurements {payload['projective_measurements']}"
        if (overlap := sp.worst_overlap()) > SPAN_TOL:
            human += (
                f" (the set is not orthogonal, |<psi_i|psi_j>| up to {overlap:.4g} > {SPAN_TOL:g}: "
                "a complete measurement's outcomes sum to <psi_i|psi_j> on each pair, so none preserves every pair)"
            )
    return 0, payload, human


def cmd_irreducible(args, s):
    v = is_locally_irreducible(s)
    payload = {
        "verdict": v.verdict,
        "space_dims": v.space_dims,
        "witness": v.witness.labels if v.witness else None,
        "witness_party": party_letter(v.witness.party) if v.witness else None,
        "candidates_checked": v.candidates_checked,
        "class_note": v.class_note,
    }
    human = f"{_set_name(args, s)}: {v.verdict} (per-party space dims {v.space_dims})"
    if v.witness:
        human += f"; witness {v.witness.labels[0]} on party {party_letter(v.witness.party)}"
    return (0 if v.irreducible else 1), payload, human


def cmd_upb(args, s):
    try:
        v = check_unextendible(s)
    except CapExceeded as exc:
        if not args.oracle_restarts:
            raise
        # the oracle still runs; the exit code stays the refusal's
        v = None
        payload = {"verdict": "REFUSED", "refusal": exc.refusal}
        human = f"{_set_name(args, s)}: exact check refused ({exc.refusal})"
    else:
        payload = {
            "verdict": "UNEXTENDIBLE" if v.unextendible else "EXTENDIBLE",
            "support_note": v.support_note,
            "nodes_explored": v.nodes_explored,
        }
        if v.witness is not None:
            payload["extension_witness"] = serialize_qset(
                type(s)(s.space, [v.witness], "extension")
            )
        human = f"{_set_name(args, s)}: {payload['verdict']} ({v.support_note})"
    if args.oracle_restarts:
        res = numeric_extension_search(s, restarts=args.oracle_restarts, seed=args.seed or 0)
        agrees = None if v is None else (res.residual <= ORACLE_TOL) == (not v.unextendible)
        payload["oracle"] = {"residual": res.residual, "restarts": res.restarts, "agrees": agrees}
        human += f"; oracle residual {res.residual:.3g}"
        if v is not None:
            human += f" ({'agrees' if agrees else 'DISAGREES'})"
    return (2 if v is None else 0 if v.unextendible else 1), payload, human


def _load_protocol(spec: str):
    if spec.startswith("builtin:"):
        return builtin_protocol(spec[len("builtin:") :])
    with open(spec) as fh:
        try:
            # json's decoder recurses once per nested container, three per
            # tree node, and stops at the interpreter's recursion limit
            return tree_from_json(json.load(fh))
        except RecursionError:
            raise ValueError(f"protocol {spec}: nested too deeply to read") from None


def cmd_protocol_verify(args, s):
    tree = _load_protocol(args.protocol)
    if args.activation:
        cert = certify_activation_protocol(s, tree)
        payload = cert.to_json()
        ok = cert.verified
        human = f"{_set_name(args, s)}: activation protocol {'CERTIFIED' if ok else 'FAILED'} ({len(cert.leaf_evidence)} leaves)"
        return (0 if ok else 1), payload, human
    vr = verify_protocol(s, tree)
    payload = {"verdict": vr.verdict, "failures": vr.failures, "identified": vr.identified}
    human = f"{_set_name(args, s)}: {vr.verdict}" + ("" if vr.passed else "; " + "; ".join(vr.failures[:3]))
    return (0 if vr.passed else 1), payload, human


def cmd_protocol_search(args, s):
    cert = search_distinguishing_protocol(s, max_depth=args.max_depth)
    payload = cert.to_json()
    if args.output and cert.tree is not None:
        with open(args.output, "w") as fh:
            fh.write(_dumps(tree_to_json(cert.tree), 1))
    found = cert.kind == "Distinguishability"
    human = (
        f"{_set_name(args, s)}: distinguishing protocol found and verified (depth <= {args.max_depth})"
        if found
        else f"{_set_name(args, s)}: {cert.kind} - {cert.notes}"
    )
    return (0 if found else 1), payload, human


def cmd_activate(args, s):
    if args.protocol:
        cert = certify_activation_protocol(s, _load_protocol(args.protocol))
    else:
        cert = activation_search(s, max_depth=args.max_depth)
    payload = cert.to_json()
    ok = cert.kind == "Activation"
    if ok:
        human = f"{_set_name(args, s)}: Activation certificate, {len(cert.leaf_evidence)} leaves all certified locally indistinguishable"
    else:
        human = f"{_set_name(args, s)}: {cert.kind} - {cert.notes or 'no activation found'}"
    return (0 if ok else 1), payload, human


def cmd_profile(args, s):
    prof = hidden_nonlocality_profile(s, max_depth=args.max_depth)
    payload = prof.to_json()
    lines = [f"{_set_name(args, s)}: hidden-nonlocality profile"]
    for r in prof.records:
        lines.append(
            f"  {r.partition}: distinguishable={r.distinguishable} activable={r.activable} "
            f"[{r.basis}, {r.rule}]"
        )
    for k, f in prof.h_flags.items():
        lines.append(f"  H_{k} = {f['value']} [{f['basis']}] {f['evidence']}")
    return 0, payload, "\n".join(lines)


def _parse_overlay(spec: str):
    src, _, path = spec.rpartition(":")
    if not src:
        src, path = spec, ""
    if src == "builtin":  # user wrote builtin:NAME with no path
        src, path = spec, ""
    node = _load_protocol(src)
    hops = path.split("/") if path else []
    for at, hop in enumerate(hops):
        if not (isinstance(node, Measure) and hop.isdigit() and int(hop) < len(node.children)):
            raise UsageError(f"overlay path {path!r}: {'/'.join(['root', *hops[:at]])} has no child {hop!r}")
        node = node.children[int(hop)]
    if not isinstance(node, Measure):
        raise UsageError("overlay path does not reach a measurement node")
    return node.party, overlay_from_kraus(node.measurement.kraus[0])


def cmd_render(args, s):
    overlay = _parse_overlay(args.overlay) if args.overlay else None
    text = render(s, fmt=args.format, overlay=overlay)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        return 0, {"written": args.output, "format": args.format}, f"wrote {args.format} to {args.output}"
    return 0, {"format": args.format, "document": text}, text


def _count(text: str) -> int:
    """argparse type of a count option: an int >= 0, and type=int's message
    for a value that is not an int."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, not {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qlocc", description=__doc__)
    ap.add_argument("--version", action="version", version=f"qlocc {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, with_depth=False, with_tol=True, gated=True):
        p.add_argument("--set", help="input .qset file")
        p.add_argument("--json", action="store_true", help="JSON report on stdout")
        if with_tol:
            p.add_argument("--tol", type=float, default=None, help=f"orthogonality tolerance (default {ORTHO_TOL:g} or QLOCC_TOL)")
        if gated:
            p.add_argument("--force", action="store_true", help="analyze even if the input fails the orthogonality check")
        if with_depth:
            p.add_argument("--max-depth", type=_count, default=8, help="protocol search depth cap")

    p = sub.add_parser("fixture", help="emit a built-in state set as qset text")
    p.add_argument("--name", required=True, choices=FIXTURE_NAMES)
    p.add_argument("--variant", default="corrected", choices=("corrected", "verbatim"))
    p.add_argument("--d", type=int, default=None, help="local dimension for s1_general")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_fixture)

    p = sub.add_parser("check-ortho", help="pairwise orthogonality report")
    common(p, gated=False)
    p.set_defaults(func=cmd_check_ortho)

    p = sub.add_parser("redundancy", help="local redundancy check (sub-splits honored)")
    common(p)
    p.set_defaults(func=cmd_redundancy)

    p = sub.add_parser("oplm", help="orthogonality-preserving measurement space of one party")
    common(p)
    p.add_argument("--party", type=int, default=None)
    p.add_argument("--on-support", action="store_true", help="compress to the joint local support")
    p.set_defaults(func=cmd_oplm)

    p = sub.add_parser("irreducible", help="local irreducibility verdict")
    common(p)
    p.set_defaults(func=cmd_irreducible)

    p = sub.add_parser("upb", help="unextendibility of an orthogonal product set")
    common(p)
    p.add_argument("--oracle-restarts", type=_count, default=0)
    p.add_argument("--seed", type=int, default=None, help="seed for numeric oracle restarts")
    p.set_defaults(func=cmd_upb)

    p = sub.add_parser("protocol", help="verify or search discrimination protocols")
    psub = p.add_subparsers(dest="subcommand", required=True)
    pv = psub.add_parser("verify")
    common(pv)
    pv.add_argument("--protocol", required=True, help="protocol JSON file or builtin:NAME")
    pv.add_argument("--activation", action="store_true", help="verify as an activation protocol")
    pv.set_defaults(func=cmd_protocol_verify)
    ps = psub.add_parser("search")
    common(ps, with_depth=True)
    ps.add_argument("-o", "--output", default=None, help="write the found protocol JSON here")
    ps.set_defaults(func=cmd_protocol_search)

    p = sub.add_parser("activate", help="search for a nonlocality-activation protocol")
    common(p, with_depth=True)
    p.add_argument("--protocol", default=None, help="certify this protocol instead of searching")
    p.set_defaults(func=cmd_activate)

    p = sub.add_parser("profile", help="hidden-nonlocality profile across partitions")
    common(p, with_depth=True)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("render", help="domino-tiling diagram (ascii or svg)")
    common(p, with_tol=False, gated=False)
    p.add_argument("--format", default="ascii", choices=("ascii", "svg"))
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--overlay", default=None, help="PROTOCOL.json[:path] or builtin:NAME[:path]")
    p.set_defaults(func=cmd_render)

    return ap


# `main` parses with one parser per process; building one costs more than
# most commands, and parsing leaves it as it was
_shared_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    opts = vars(args)
    report = {
        "command": args.command + (f" {args.subcommand}" if getattr(args, "subcommand", None) else ""),
        "tool": {"name": "qlocc", "version": __version__},
        "inputs": {},
        "params": {
            k: v
            for k, v in opts.items()
            if k not in ("func", "command", "subcommand", "json") and v is not None
        },
    }
    t0 = time.perf_counter()
    try:
        # the set, then the tolerance (checked under --force too; params keep
        # the --tol given), then the gate, for the commands that take --force
        s = _load_set(args.set, report["inputs"]) if "set" in opts else None
        if "tol" in opts:
            args.tol = _tol(args)
        refusal = _refusal(s, args.tol) if opts.get("force") is False else None
        code, payload, human = refusal or args.func(args, s)
    except UsageError as exc:
        print(f"qlocc: error: {exc}", file=sys.stderr)
        return 2
    except QsetError as exc:
        print(f"qlocc: parse error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"qlocc: error: {exc}", file=sys.stderr)
        return 2
    report["verdicts"] = payload
    report["timings"] = {"seconds": time.perf_counter() - t0}
    try:
        print(_dumps(report, 2) if args.json else human)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: exit 1 quietly, and point stdout at
        # devnull so that the flush at interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
