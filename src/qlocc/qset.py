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

Serialization is canonical: one `(re,im)*|i0,...>` term per nonzero
amplitude with 17 significant digits, terms in ascending basis order joined
by " + ", byte-identical across runs. A label or name that would not read
back (a label that is empty or holds a blank, `:` or `#`; a name with `#`,
a line break or outer blanks) is refused with a ValueError.

A document whose states are all canonical is read in bulk, to the same
amplitude bits as the general tokenizer (`_parse_terms`). Any other text,
and any canonical text with an index out of range or a coefficient that is
not finite, goes through the general tokenizer, which alone reports errors.
"""

from __future__ import annotations

import functools
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


# a state label: what the `state` line admits and `serialize_qset` writes
_LABEL = r"[^\s:#]+"
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
    # the coefficient without its sign, each form filling the terms that use
    # it; a bare ket has coefficient 1
    real, imag = np.ones(len(ops)), np.zeros(len(ops))
    w = _present(sq) & term
    n = np.fromiter(map(float, itertools.compress(sq, w)), np.float64)
    with np.errstate(divide="ignore"):
        real[w] = np.where(n < np.inf, 1.0 / np.sqrt(n), np.nan)
    w = _present(rp) & term
    real[w] = [_quotient(a, b) for a, b in itertools.compress(zip(rp, rq), w)]
    w = _present(dec) & term
    real[w] = np.fromiter(map(float, itertools.compress(dec, w)), np.float64)
    w = _present(cre) & term
    real[w], imag[w] = (np.fromiter(map(float, itertools.compress(col, w)), np.float64) for col in (cre, cim))
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
    sign = np.where(np.fromiter(map("-".__eq__, ops), bool, len(ops)), -1.0, 1.0)
    # that restriction drops only trailing terms, so `at` starts with the kept ones
    m = _amplitudes(len(exprs), row[term], at[: np.count_nonzero(term)], sign[term], real[term], imag[term], space)
    return m, [e - s for s, e in zip(starts, ends)], errors


def _amplitudes(n_states: int, rows: np.ndarray, at: np.ndarray, sign, real: np.ndarray, imag: np.ndarray, space: PartySpace) -> np.ndarray:
    """The amplitude matrix of terms given by their state `rows`, ket
    indices `at` (floats, one column per party) and finite coefficients
    sign * (real + i*imag), each state's terms summed in term order.

    The product is Python's float-by-complex one, (s*re - 0*im, s*im + 0*re);
    on finite entries it differs from (s*re, s*im) only in the sign of a
    zero, which adding into a matrix of +0.0 does not keep.
    """
    coeffs = np.empty(len(rows), np.complex128)
    coeffs.real, coeffs.imag = sign * real - 0.0 * imag, sign * imag + 0.0 * real
    strides = [math.prod(space.party_dims[p + 1 :]) for p in range(space.n_parties)]
    m = np.zeros((n_states, space.total_dim), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):  # parse_qset rejects a row that is not finite
        np.add.at(m, (rows, at.astype(np.intp) @ strides), coeffs)
    return m


@functools.cache
def _canonical_re(n_parties: int) -> re.Pattern:
    """A state's terms as `serialize_qset` writes them: `(re,im)*|i0,...>`
    with one index per party, joined by exactly " + "."""
    term = rf"\({_NUM},{_NUM}\)\*\|\d+" + r",\d+" * (n_parties - 1) + ">"
    return re.compile(rf"{term}(?: \+ {term})*")


_BLANK_PUNCTUATION = str.maketrans("(,)*|>", "      ")


def _parse_canonical(exprs: list[str], space: PartySpace) -> tuple[np.ndarray, list[int], list] | None:
    """`_parse_terms` for states that all match `_canonical_re`, which have
    no errors; None where one does not, or where an index is out of range
    or a coefficient not finite, the cases that `_parse_terms` reports.

    Each term is the numbers re, im, i0, ... in that order, so one split of
    the joined text with its punctuation blanked reads every term at once.
    Every term is a `+` term, and `_amplitudes` sums them as it does those
    of `_parse_terms`.
    """
    n_parties = space.n_parties
    if not all(map(_canonical_re(n_parties).fullmatch, exprs)):
        return None
    counts = [expr.count("|") for expr in exprs]
    tokens = " ".join(exprs).replace(" + ", " ").translate(_BLANK_PUNCTUATION).split()
    # indices read as floats, as in `_parse_terms`: exact below any dim, and no overflow on a long one
    at = np.fromiter(map(float, tokens), np.float64, len(tokens)).reshape(-1, 2 + n_parties)
    if not (np.isfinite(at[:, :2]).all() and (at[:, 2:] < space.party_dims).all()):
        return None
    rows = np.repeat(np.arange(len(exprs)), counts)
    return _amplitudes(len(exprs), rows, at[:, 2:], 1.0, at[:, 0], at[:, 1], space), counts, [None] * len(exprs)


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
        m = re.match(rf"state\s+({_LABEL})\s*:\s*(.*)$", stripped)
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
    exprs = [row[1:] for row in state_rows]
    m, counts, errors = _parse_canonical([e for e, _, _ in exprs], space) or _parse_terms(exprs, space)
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


def serialize_qset(s: StateSet) -> str:
    bad = next((label for label in s.labels if not re.fullmatch(_LABEL, label)), None)
    if bad is not None:
        raise ValueError(f"label {bad!r} would not read back: a qset label is nonempty, without blanks, ':' or '#'")
    if "#" in s.name or len(s.name.splitlines()) > 1 or s.name != s.name.strip():
        raise ValueError(f"name {s.name!r} would not read back: a qset name has no '#', no line break and no outer blanks")
    lines = ["qset v1", "dims: " + " ".join(str(d) for d in s.space.party_dims)]
    for p in sorted(s.space.sub_splits):
        lines.append(f"split: {p} = " + " ".join(str(f) for f in s.space.sub_splits[p]))
    if s.name:
        lines.append(f"name: {s.name}")
    terms = ["(%.17g,%.17g)*|" + ",".join(str(i) for i in idx) + ">" for idx in np.ndindex(*s.space.party_dims)]
    m = s.matrix()
    # np.hypot is libm hypot, as abs() on one complex scalar; np.abs on the array rounds differently
    shown = np.hypot(m.real, m.imag) > TERM_TOL
    # + 0.0 writes -0.0 as 0; re and im of each shown amplitude in row-major order, as the terms go
    values = (np.stack([m.real[shown], m.imag[shown]], axis=-1) + 0.0).ravel().tolist()
    cols = np.nonzero(shown)[1].tolist()
    start = 0
    for label, end in zip(s.labels, np.cumsum(shown.sum(axis=1)).tolist()):
        body = " + ".join([terms[f] for f in cols[start:end]]) % tuple(values[2 * start : 2 * end])
        lines.append(f"state {label}: {body}")
        start = end
    return "\n".join(lines) + "\n"
