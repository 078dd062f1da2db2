"""The .qset state-set text format.

Line-oriented; `#` starts a comment. A document is:

    qset v1
    dims: 4 4
    split: 1 = 2 3          # optional, one per sub-split party
    name: s3                # optional
    state phi1: |0,0> + 1/sqrt(2)*|0,1> + (0.5,-0.5)*|2,3>

A term is an optional coefficient (decimal, p/q rational, `(re,im)` complex,
or `1/sqrt(n)`), an optional `*`, and a ket `|i0,i1,...>` carrying one index
per party. Terms are combined with `+` / `-`, and a repeated ket sums in term
order. The README states the grammar. States are normalized on load.
Both directions work on the set's amplitude matrix and build no `Ket`.

Serialization is canonical: one `(re,im)` coefficient per nonzero amplitude
with 17 significant digits, terms in ascending basis order, byte-identical
across runs.
"""

from __future__ import annotations

import itertools
import math
import re

import numpy as np

from .linalg import NORM_TOL, TERM_TOL
from .states import PartySpace, StateSet, row_norms


class QsetError(ValueError):
    def __init__(self, code: str, line: int, col: int, message: str, lexeme: str = ""):
        self.code = code
        self.line = line
        self.col = col
        self.lexeme = lexeme
        where = f"line {line}, col {col}"
        tail = f" near {lexeme!r}" if lexeme else ""
        super().__init__(f"{code} at {where}: {message}{tail}")


_NUM = r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
# One term, all of it in group 1. Group 2 is the + or - that joins it to the
# previous term; it can only follow a ket, so a leading "-" belongs to the
# first coefficient. Group 3 is empty and marks where the term starts, after
# blanks. The coefficient is the first of four forms that matches: 1/sqrt(n)
# (group 4), (re,im) (5, 6), p/q (7, 8) or a decimal (9); `*` and blanks may
# follow it. Group 10 holds the ket's indices. Every part after the operator
# is optional, so a match never backtracks into another form: it stops where
# the grammar does, and `_term_error` reads the error off it.
_TERM_RE = re.compile(
    r"((?:(?<=>)\s*([+-]))?\s*()"
    rf"(?:(?:1/sqrt\((\d+)\)|\(({_NUM}),({_NUM})\)|(-?\d+)/(\d+)(?!\w)|({_NUM}))\*?\s*)?"
    r"(?:\|(\d+(?:,\d+)*)>)?)"
)


def _term_error(expr: str, pos: int, after_term: bool, line_no: int, col0: int, space: PartySpace, bad_coeff: bool) -> QsetError:
    """The error of the term at `pos`, which is not a whole term, has an
    index out of range, or (`bad_coeff`) has a coefficient that is not finite."""
    m = _TERM_RE.match(expr, pos)
    if bad_coeff:
        return QsetError("E_RANGE", line_no, col0 + m.start(3), "coefficient outside float range", expr[m.start(3) : m.end()])
    _, op, _, _, _, _, rp, rq, _, ket = m.groups()
    p, q = m.start(3), m.end()
    if after_term and op is None:
        return QsetError("E_SYNTAX", line_no, col0 + p, "expected + or - between terms", expr[p : p + 8])
    if p == len(expr):
        return QsetError("E_SYNTAX", line_no, col0 + p, "dangling operator", "")
    if rq is not None and not rq.strip("0"):
        return QsetError("E_SYNTAX", line_no, col0 + p, "zero denominator", f"{rp}/{rq}")
    if ket is None and q == p and expr[p] != "|":
        return QsetError("E_SYNTAX", line_no, col0 + p, "expected coefficient or ket", expr[p : p + 8])
    if ket is None:
        return QsetError("E_SYNTAX", line_no, col0 + q, "expected ket |i0,i1,...>", expr[q : q + 12])
    col, idx = col0 + m.start(10) - 1, [int(i) for i in ket.split(",")]
    if len(idx) != space.n_parties:
        return QsetError("E_DIM", line_no, col, f"ket has {len(idx)} indices for {space.n_parties} parties", f"|{ket}>")
    party = next(k for k, (i, d) in enumerate(zip(idx, space.party_dims)) if i >= d)
    message = f"index {idx[party]} out of range for party {party} (dim {space.party_dims[party]})"
    return QsetError("E_DIM", line_no, col, message, f"|{ket}>")


def _quotient(p: str, q: str) -> float:
    """p/q as Python divides ints; nan where that is no float or p or q has too many digits to convert."""
    try:
        return int(p) / int(q)
    except (OverflowError, ValueError):
        return math.nan


def _present(col: tuple[str, ...]) -> np.ndarray:
    """Which entries of a `findall` column are not empty."""
    return np.fromiter(map(bool, col), bool, len(col))


def _parse_terms(exprs: list[tuple[str, int, int]], space: PartySpace) -> tuple[np.ndarray, list[int], list]:
    """Parse the term lists `term (+|-) term ...` of a document's states,
    given as [(expr, line_no, col0)], all at once.

    Returns (amplitudes, counts, errors): one row per state, the sum of its
    terms in term order, so a repeated ket adds up as written; each state's
    number of terms; and each state's QsetError, that of its first bad term
    (a coefficient outside float range or an index out of range counts
    before a later term's syntax), or None. Rows from the first state with
    an error on stay zero.

    One `findall` cuts each expression into matches. The leading ones that
    are whole terms (a ket, an operator after the first, no zero
    denominator, one index per party) tile the text, since none is empty,
    and what follows them must be blank. The last match of an expression,
    the empty one at its end, is never a whole term.
    """
    n_parties, dims = space.n_parties, space.party_dims
    found = [_TERM_RE.findall(expr) for expr, _, _ in exprs]
    sizes = list(map(len, found))
    starts = list(itertools.accumulate(sizes, initial=0))[:-1]
    spans, ops, _, sq, cre, cim, rp, rq, dec, kets = zip(*itertools.chain.from_iterable(found))
    joined = _present(ops)
    joined[starts] = True  # the first term of a state has no operator
    whole = _present(kets) & joined
    whole &= np.fromiter(map(str.count, kets, itertools.repeat(",")), np.intp, len(kets)) == n_parties - 1
    if any(rq):
        whole &= [not d or bool(d.strip("0")) for d in rq]
    row = np.repeat(np.arange(len(exprs)), sizes)
    not_whole = np.flatnonzero(~whole)
    ends = not_whole[np.searchsorted(not_whole, starts)].tolist()
    term = np.arange(len(kets)) < np.array(ends)[row]
    # indices compare as floats: exact below any dim, and no overflow on a long one
    idx = map(str.split, itertools.compress(kets, term), itertools.repeat(","))
    at = np.fromiter(map(float, itertools.chain.from_iterable(idx)), np.float64).reshape(-1, n_parties)
    over = np.flatnonzero(term)[(at >= dims).any(axis=1)]
    first_over = np.append(over, len(kets))[np.searchsorted(over, starts)].tolist()
    # sign * coefficient, each form filling the terms that use it; a bare ket
    # has coefficient 1. A complex one takes Python's float-by-complex
    # product, (s*re - 0*im, s*im + 0*re): it differs from (s*re, s*im) only
    # where an entry is not finite.
    sign = np.where(np.fromiter(map("-".__eq__, ops), bool, len(ops)), -1.0, 1.0)
    real, imag = sign.copy(), np.zeros(len(ops))
    w = _present(sq) & term
    n = np.fromiter(map(float, itertools.compress(sq, w)), np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        real[w] = sign[w] * np.where(n < np.inf, 1.0 / np.sqrt(n), np.nan)
        w = _present(rp) & term
        real[w] = sign[w] * [_quotient(a, b) for a, b in itertools.compress(zip(rp, rq), w)]
        w = _present(dec) & term
        real[w] = sign[w] * np.fromiter(map(float, itertools.compress(dec, w)), np.float64)
        w = _present(cre) & term
        cr, ci = (np.fromiter(map(float, itertools.compress(col, w)), np.float64) for col in (cre, cim))
        real[w], imag[w] = sign[w] * cr - 0.0 * ci, sign[w] * ci + 0.0 * cr
    bad = np.flatnonzero(term & ~(np.isfinite(real) & np.isfinite(imag)))
    first_bad = np.append(bad, len(kets))[np.searchsorted(bad, starts)].tolist()
    errors = []
    for (expr, line_no, col0), s, e, o, b in zip(exprs, starts, ends, first_over, first_bad):
        t = min(e, o, b)
        pos = sum(map(len, spans[s:t]))
        bad_coeff = b == t  # b < e then: only whole terms have coefficients
        errors.append(_term_error(expr, pos, t > s, line_no, col0, space, bad_coeff) if bad_coeff or o < e or expr[pos:].strip() else None)
    # the terms that count: the whole ones of the states before the first error
    term &= row < next((r for r, err in enumerate(errors) if err), len(exprs))
    coeffs = np.empty(int(term.sum()), np.complex128)
    coeffs.real, coeffs.imag = real[term], imag[term]
    # that restriction drops only trailing terms, so `at` starts with the kept ones
    strides = [math.prod(dims[p + 1 :]) for p in range(n_parties)]
    flat = at[: len(coeffs)].astype(np.intp) @ strides
    m = np.zeros((len(exprs), space.total_dim), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):  # parse_qset rejects a row that is not finite
        np.add.at(m, (row[term], flat), coeffs)
    return m, [e - s for s, e in zip(starts, ends)], errors


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
    m, counts, errors = _parse_terms([row[1:] for row in state_rows], space)
    with np.errstate(over="ignore", invalid="ignore"):
        norms = row_norms(m)
    seen = set()
    for (label, _, line_no, col), count, err, norm in zip(state_rows, counts, errors, norms):
        if label in seen:
            raise QsetError("E_DUP_LABEL", line_no, col, f"duplicate state label {label!r}", label)
        seen.add(label)
        if err is not None:
            raise err
        if not count:
            raise QsetError("E_EMPTY_STATE", line_no, col, f"state {label!r} has no terms")
        if not math.isfinite(norm):
            raise QsetError("E_RANGE", line_no, col, f"state {label!r} has a norm outside float range")
        if norm < NORM_TOL:
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
    shown = np.hypot(m.real, m.imag) > TERM_TOL
    for label, row, nz in zip(s.labels, m, shown):
        terms = [f"({_fmt(row[f].real)},{_fmt(row[f].imag)})*{kets[f]}" for f in np.flatnonzero(nz)]
        lines.append(f"state {label}: " + " + ".join(terms))
    return "\n".join(lines) + "\n"
