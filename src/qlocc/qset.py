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
amplitude bits as the general reader (`_parse_terms`). Any other text, and
any canonical text with an index out of range or a coefficient that is not
finite, goes through the general reader. It reads each state one term at a
time and stops at the first bad one; it alone reports errors. A document
declares its dims once.
"""

from __future__ import annotations

import functools
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
# the grammar does, and `_read_term` reads the term or its error off it.
_TERM_RE = re.compile(
    r"((?:(?<=>)\s*([+-]))?\s*()"
    rf"(?:(?:1/sqrt\((\d+)\)|\(({_NUM}),({_NUM})\)|(-?\d+)/(\d+)(?!\w)|({_NUM}))\*?\s*)?"
    r"(?:\|(\d+(?:,\d+)*)>)?)"
)


def _read_term(m: re.Match, after_term: bool, line_no: int, col0: int, space: PartySpace) -> tuple | QsetError:
    """The term that `m`, a `_TERM_RE` match, reads: its ket indices as
    floats, its sign, and its coefficient's real and imaginary parts. Or the
    QsetError of the first rule the term breaks, in this order: a term after
    another needs an operator; an operator needs a term; a denominator is
    not zero; a term has a coefficient or a ket; it has a ket; the ket has
    one index per party; the coefficient is finite; each index is below its
    party's dim."""
    expr = m.string
    _, op, _, sq, cre, cim, rp, rq, dec, ket = m.groups()
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
    col, idx = col0 + m.start(10) - 1, ket.split(",")
    if len(idx) != space.n_parties:
        return QsetError("E_DIM", line_no, col, f"ket has {len(idx)} indices for {space.n_parties} parties", f"|{ket}>")
    # a bare ket has coefficient 1; the sign is the operator's, the coefficient's own `-` is in its value
    real, imag = 1.0, 0.0
    if sq is not None:
        n = float(sq)
        real = 1.0 / math.sqrt(n) if 0.0 < n < math.inf else math.nan
    elif rp is not None:
        try:
            real = int(rp) / int(rq)
        except (OverflowError, ValueError):  # no float, or too many digits to convert
            real = math.nan
    elif dec is not None:
        real = float(dec)
    elif cre is not None:
        real, imag = float(cre), float(cim)
    if not (math.isfinite(real) and math.isfinite(imag)):
        return QsetError("E_RANGE", line_no, col0 + p, "coefficient outside float range", expr[p:q])
    # indices compare as floats: exact below any dim, and no overflow on a long one
    at = [float(i) for i in idx]
    party = next((k for k, (i, d) in enumerate(zip(at, space.party_dims)) if i >= d), None)
    if party is not None:
        message = f"index {idx[party].lstrip('0')} out of range for party {party} (dim {space.party_dims[party]})"
        return QsetError("E_DIM", line_no, col, message, f"|{ket}>")
    return at, -1.0 if op == "-" else 1.0, real, imag


def _parse_terms(exprs: list[tuple[str, int, int]], space: PartySpace) -> tuple[np.ndarray, list[int], list]:
    """Parse the term lists `term (+|-) term ...` of a document's states,
    given as [(expr, line_no, col0)].

    Returns (amplitudes, counts, errors): one row per state, the sum of its
    terms in term order, so a repeated ket adds up as written; each state's
    number of terms read; and each state's QsetError, that of its first bad
    term, or None. Rows from the first state with an error on stay zero.

    Each state is read one `_TERM_RE` match at a time, from where the last
    term ended, until only blanks are left or a term is bad.
    """
    states, errors = [], []
    for expr, line_no, col0 in exprs:
        terms, pos, stop, err = [], 0, len(expr.rstrip()), None
        while pos < stop and err is None:
            m = _TERM_RE.match(expr, pos)
            term = _read_term(m, bool(terms), line_no, col0, space)
            if isinstance(term, QsetError):
                err = term
            else:
                terms.append(term)
                pos = m.end()
        states.append(terms)
        errors.append(err)
    # the terms that count, those of the states before the first error, one
    # row each: state, sign, re, im, then the ket's indices
    first_error = next((r for r, err in enumerate(errors) if err), len(exprs))
    kept = [(r, sign, real, imag, *at) for r in range(first_error) for at, sign, real, imag in states[r]]
    cols = np.array(kept, np.float64).reshape(-1, 4 + space.n_parties).T
    m = _amplitudes(len(exprs), cols[0].astype(np.intp), cols[4:].T, cols[1], cols[2], cols[3], space)
    return m, list(map(len, states)), errors


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
            if dims is not None:
                raise QsetError("E_SYNTAX", line_no, col, "dims declared twice", stripped[:16])
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
