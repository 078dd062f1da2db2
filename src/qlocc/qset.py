"""The .qset state-set text format.

Line-oriented; `#` starts a comment. A document is:

    qset v1
    dims: 4 4
    split: 1 = 2 3          # optional, one per sub-split party
    name: s3                # optional
    state phi1: |0,0> + 1/sqrt(2)*|0,1> + (0.5,-0.5)*|2,3>

A term is an optional coefficient (decimal, p/q rational, `(re,im)` complex,
or `1/sqrt(n)`) joined with `*` to a ket `|i0,i1,...>` carrying one index per
party. Terms are combined with `+` / `-`. States are normalized on load.
Both directions work on the set's amplitude matrix and build no `Ket`.

Serialization is canonical: one `(re,im)` coefficient per nonzero amplitude
with 17 significant digits, terms in ascending basis order, byte-identical
across runs.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .states import PartySpace, StateSet


class QsetError(ValueError):
    def __init__(self, code: str, line: int, col: int, message: str, lexeme: str = ""):
        self.code = code
        self.line = line
        self.col = col
        self.lexeme = lexeme
        where = f"line {line}, col {col}"
        tail = f" near {lexeme!r}" if lexeme else ""
        super().__init__(f"{code} at {where}: {message}{tail}")


_KET_RE = re.compile(r"\|(\d+(?:,\d+)*)>")
_SQRT_RE = re.compile(r"1/sqrt\((\d+)\)")
_COMPLEX_RE = re.compile(r"\((-?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?),(-?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\)")
_RATIONAL_RE = re.compile(r"(-?\d+)/(\d+)(?!\w)")
_DECIMAL_RE = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")


def _parse_terms(expr: str, line_no: int, col0: int, space: PartySpace):
    """Parse `term (+|-) term ...`; returns [(coeff, index tuple)]."""
    pos = 0
    n = len(expr)
    terms = []
    sign = 1.0
    expect_term = True
    while True:
        while pos < n and expr[pos].isspace():
            pos += 1
        if pos >= n:
            break
        col = col0 + pos
        ch = expr[pos]
        if not expect_term:
            if ch == "+":
                sign = 1.0
            elif ch == "-":
                sign = -1.0
            else:
                raise QsetError("E_SYNTAX", line_no, col, "expected + or - between terms", expr[pos : pos + 8])
            pos += 1
            expect_term = True
            continue
        coeff = complex(1.0)
        m = _SQRT_RE.match(expr, pos)
        if m:
            coeff = 1.0 / np.sqrt(int(m.group(1)))
            pos = m.end()
        else:
            m = _COMPLEX_RE.match(expr, pos)
            if m:
                coeff = complex(float(m.group(1)), float(m.group(2)))
                pos = m.end()
            else:
                m = _RATIONAL_RE.match(expr, pos)
                if m:
                    if int(m.group(2)) == 0:
                        raise QsetError("E_SYNTAX", line_no, col, "zero denominator", m.group(0))
                    coeff = int(m.group(1)) / int(m.group(2))
                    pos = m.end()
                elif ch != "|":
                    m = _DECIMAL_RE.match(expr, pos)
                    if m:
                        coeff = float(m.group(0))
                        pos = m.end()
                    else:
                        raise QsetError("E_SYNTAX", line_no, col, "expected coefficient or ket", expr[pos : pos + 8])
        if pos < n and expr[pos] == "*":
            pos += 1
        while pos < n and expr[pos].isspace():
            pos += 1
        col = col0 + pos
        m = _KET_RE.match(expr, pos)
        if not m:
            raise QsetError("E_SYNTAX", line_no, col, "expected ket |i0,i1,...>", expr[pos : pos + 12])
        idx = tuple(int(x) for x in m.group(1).split(","))
        if len(idx) != space.n_parties:
            raise QsetError("E_DIM", line_no, col, f"ket has {len(idx)} indices for {space.n_parties} parties", m.group(0))
        for p, i in enumerate(idx):
            if i >= space.party_dims[p]:
                raise QsetError("E_DIM", line_no, col, f"index {i} out of range for party {p} (dim {space.party_dims[p]})", m.group(0))
        pos = m.end()
        terms.append((sign * coeff, idx))
        sign = 1.0
        expect_term = False
    if expect_term and terms:
        raise QsetError("E_SYNTAX", line_no, col0 + pos, "dangling operator", "")
    return terms


def parse_qset(text: str) -> StateSet:
    dims: tuple[int, ...] | None = None
    splits: dict[int, tuple[int, ...]] = {}
    name = ""
    state_rows: list[tuple[str, list, int, int]] = []
    header_seen = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        col = raw.index(stripped[0]) + 1
        if not header_seen:
            if stripped != "qset v1":
                raise QsetError("E_SYNTAX", line_no, col, "expected header 'qset v1'", stripped[:16])
            header_seen = True
            continue
        if stripped.startswith("dims:"):
            body = stripped[len("dims:") :].strip()
            try:
                dims = tuple(int(x) for x in body.split())
            except ValueError:
                raise QsetError("E_SYNTAX", line_no, col, "dims must be integers", body)
            if not dims or any(d < 2 for d in dims):
                raise QsetError("E_DIM", line_no, col, "each dim must be >= 2", body)
            continue
        if stripped.startswith("split:"):
            if dims is None:
                raise QsetError("E_SYNTAX", line_no, col, "split before dims", stripped)
            body = stripped[len("split:") :].strip()
            m = re.fullmatch(r"(\d+)\s*=\s*((?:\d+\s*)+)", body)
            if not m:
                raise QsetError("E_SYNTAX", line_no, col, "expected 'split: <party> = f1 f2 ...'", body)
            party = int(m.group(1))
            factors = tuple(int(x) for x in m.group(2).split())
            if party >= len(dims):
                raise QsetError("E_SPLIT", line_no, col, f"party {party} out of range", body)
            if int(np.prod(factors)) != dims[party]:
                raise QsetError("E_SPLIT", line_no, col, f"factors {factors} do not multiply to dim {dims[party]}", body)
            splits[party] = factors
            continue
        if stripped.startswith("name:"):
            name = stripped[len("name:") :].strip()
            continue
        m = re.match(r"state\s+([^\s:]+)\s*:\s*(.*)$", stripped)
        if m:
            if dims is None:
                raise QsetError("E_SYNTAX", line_no, col, "state before dims", stripped[:16])
            label, expr = m.group(1), m.group(2)
            expr_col = col + m.start(2)
            state_rows.append((label, expr, line_no, expr_col))
            continue
        raise QsetError("E_SYNTAX", line_no, col, "unrecognized line", stripped[:24])
    if not header_seen:
        raise QsetError("E_SYNTAX", 1, 1, "missing 'qset v1' header")
    if dims is None:
        raise QsetError("E_SYNTAX", 1, 1, "missing dims line")
    space = PartySpace(dims, splits)
    if not state_rows:
        raise QsetError("E_EMPTY_STATE", 1, 1, "document declares no states")
    strides = [math.prod(dims[p + 1 :]) for p in range(len(dims))]
    m = np.zeros((len(state_rows), space.total_dim), dtype=np.complex128)
    seen = set()
    for r, (label, expr, line_no, col) in enumerate(state_rows):
        if label in seen:
            raise QsetError("E_DUP_LABEL", line_no, col, f"duplicate state label {label!r}", label)
        seen.add(label)
        terms = _parse_terms(expr, line_no, col, space)
        if not terms:
            raise QsetError("E_EMPTY_STATE", line_no, col, f"state {label!r} has no terms")
        for coeff, idx in terms:
            m[r, sum(i * st for i, st in zip(idx, strides))] += coeff
        if np.linalg.norm(m[r]) < 1e-12:
            raise QsetError("E_EMPTY_STATE", line_no, col, f"state {label!r} sums to zero")
    return StateSet.from_matrix(space, m, [row[0] for row in state_rows], name)


def _fmt(x: float) -> str:
    return f"{x + 0.0:.17g}"


def serialize_qset(s: StateSet) -> str:
    lines = ["qset v1", "dims: " + " ".join(str(d) for d in s.space.party_dims)]
    for p in sorted(s.space.sub_splits):
        lines.append(f"split: {p} = " + " ".join(str(f) for f in s.space.sub_splits[p]))
    if s.name:
        lines.append(f"name: {s.name}")
    kets = ["|" + ",".join(str(i) for i in idx) + ">" for idx in np.ndindex(*s.space.party_dims)]
    m = s.matrix()
    # np.hypot is libm hypot, as abs() on one complex scalar; np.abs on the array rounds differently
    shown = np.hypot(m.real, m.imag) > 1e-14
    for label, row, nz in zip(s.labels, m, shown):
        terms = [f"({_fmt(row[f].real)},{_fmt(row[f].imag)})*{kets[f]}" for f in np.flatnonzero(nz)]
        lines.append(f"state {label}: " + " + ".join(terms))
    return "\n".join(lines) + "\n"
