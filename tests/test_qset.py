import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import (
    qset_mismatches,
    random_orthonormal_set,
    reference_parse_qset,
    reference_parse_terms,
    reference_serialize_qset,
    same_bits,
    state_model_cases,
)
from qlocc import qset
from qlocc.fixtures import build_fixture
from qlocc.qset import QsetError, parse_qset, serialize_qset
from qlocc.states import PartySpace, StateSet, apply_local_unitaries, gram_check, gram_matrix, random_local_unitaries


def test_parse_minimal():
    s = parse_qset("qset v1\ndims: 2 2\nstate a: |0,0>\nstate b: |1,1>\n")
    assert len(s) == 2
    assert s.space.party_dims == (2, 2)
    assert gram_check(s).ok


def test_parse_coefficient_forms():
    text = (
        "qset v1\n"
        "dims: 4 4\n"
        "name: forms\n"
        "state x: 1/sqrt(2)*|0,0> + 1/sqrt(2)*|0,1>\n"
        "state y: 1/2*|1,0> - 0.5*|1,1> + (0,0.5)*|1,2> - (0.5,0)*|1,3>\n"
    )
    s = parse_qset(text)
    x = s.states[0].amplitudes
    assert np.allclose(x[:2], 1 / np.sqrt(2))
    y = s.states[1].amplitudes
    assert np.allclose(y[4:8], [0.5, -0.5, 0.5j, -0.5])


def test_parse_comments_and_split():
    text = "# header comment\nqset v1\ndims: 6 6  # two parties\nsplit: 1 = 2 3\nstate a: |0,0>\n"
    s = parse_qset(text)
    assert s.space.sub_splits == {1: (2, 3)}


def test_roundtrip_fixture_gram():
    for name in ("s1", "s3", "s5"):
        s = build_fixture(name)
        s2 = parse_qset(serialize_qset(s))
        assert np.abs(gram_matrix(s) - gram_matrix(s2)).max() <= 1e-12
        assert s2.labels == s.labels
        assert s2.space == s.space


def test_roundtrip_random_sets():
    rng = np.random.default_rng(23)
    for trial in range(100):
        dims_pool = [(2, 2), (3, 3), (2, 3, 2), (4, 4), (6,)]
        dims = dims_pool[trial % len(dims_pool)]
        n = int(rng.integers(1, min(6, int(np.prod(dims))) + 1))
        s = random_orthonormal_set(rng, dims, n)
        text = serialize_qset(s)
        s2 = parse_qset(text)
        assert np.abs(gram_matrix(s) - gram_matrix(s2)).max() <= 1e-12
        # canonical serialization is a fixed point
        assert serialize_qset(s2) == text


@pytest.mark.parametrize("s", state_model_cases())
def test_qset_io_matches_per_ket_reference(s):
    assert qset_mismatches(s) == []


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_rotated_s1_general_documents_match_reference(seed):
    s = build_fixture("s1_general", d=6)
    assert qset_mismatches(apply_local_unitaries(s, random_local_unitaries(s.space, np.random.default_rng(seed)))) == []


# every coefficient form, with and without `*`, blanks around operators and
# after `*`, signed coefficients after an operator, and repeated kets
HAND_WRITTEN = [
    "state a: 1/sqrt(2)*|0,0> + 1/sqrt(2)|1,2>\nstate b: 1/sqrt(3)* |0,0> -1/sqrt(3)\t|1,2> + 1/sqrt(3)*|1,1>",
    "state a: (0.5,-0.5)*|0,1> + (-.25,1e-3)|1,0> - (3.,0)* |1,1>\nstate b: (1,0)|0,0>-(0,1)*|0,2>",
    "state a: 1/2*|0,0> + -1/2|1,1> - -3/4 |0,2>\nstate b: 2/3|1,0>+1/3*|0,1>",
    "state a: 0.5*|0,0> - .5|0,1> + 1.|0,2> + 1e-3*|1,0> - -2.5E+1 |1,1> + 7|1,2>",
    "state a: |0,0>+|1,1>  -   |1,2>\nstate b: -0.5|0,1> + |0,0>",
    "state a: |0,0> + |0,0> - 0.5*|0,0> + (0,1)|0,0> + 1/2|1,2> + 1/sqrt(5)|1,2> - (0.25,0.5)|1,2>",
    "state a: (1e-320,0)|0,0> + |1,1> - |1,1> + (0,-0.0)|0,1> + (-0.0,2)|1,2>",
]


@pytest.mark.parametrize("body", HAND_WRITTEN)
def test_hand_written_documents_match_reference(body):
    text = f"qset v1\ndims: 2 3\nname: hand\n{body}\n"
    got, ref = parse_qset(text), reference_parse_qset(text)
    assert same_bits(got.matrix(), ref.matrix())
    assert (got.labels, got.name, got.space) == (ref.labels, ref.name, ref.space)


@pytest.mark.parametrize("expr", ["", " \t", " |0,0> + |1,1>\t", "\t0.5|0,0>  ", "(0,1)|1,2> - |1,2>\u2003"])
def test_outer_blanks_parse_as_the_reference_walker(expr):
    space = PartySpace((2, 3))
    rows, counts, errors = qset._parse_terms([(expr, 7, 12)], space)
    ref = np.zeros(space.total_dim, dtype=complex)
    terms = reference_parse_terms(expr, 7, 12, space)
    for coeff, (i, j) in terms:
        ref[3 * i + j] += coeff
    assert errors == [None] and counts == [len(terms)] and same_bits(rows[0], ref)


# one or more of: a dangling operator, a missing operator, p/0, a bad ket, the
# wrong arity, an index out of range; and errors that follow good terms
MALFORMED = [
    "|0,0> +",
    "|0,0> -   ",
    "|0,0>+\t",
    "|0,0> |1,1>",
    "0.5|0,0> 0.5|1,1>",
    "|0,0> + + |1,1>",
    "+|0,0>",
    "- |0,0>",
    "1/0*|0,0>",
    "|0,0> - 3/00|1,1>",
    "|0,0> + 1/2x|1,1>",
    "1/2.5|0,0>",
    "1/sqrt(2|0,0>",
    "1/sqrt()|0,0>",
    "(1,)|0,0>",
    "(,1)*|0,0>",
    "(1;0)|0,0>",
    "0.5 *|0,0>",
    "*|0,0>",
    "0.5**|0,0>",
    "1e|0,0>",
    "0.5",
    "|0,>",
    "|,0>",
    "|0 ,0>",
    "|a,0>",
    "|0,0",
    "0,0>",
    "|0>",
    "|0,0,0>",
    "|0,3>",
    "|2,0>",
    "|00,99999999999999999999999>",
    "|0,0> + |0,1,0> + oops",
    "|0,0> + |0,9> + oops",
    "|0,0> + oops + |0,9>",
    "|0,0> + |1,1> x",
    "oops",
]


def _fields(e: QsetError) -> tuple:
    return e.code, e.line, e.col, e.lexeme, str(e)


@pytest.mark.parametrize("expr", MALFORMED)
def test_malformed_terms_report_as_the_reference_walker(expr):
    space = PartySpace((2, 3))
    with pytest.raises(QsetError) as ref:
        reference_parse_terms(expr, 7, 12, space)
    _, _, errors = qset._parse_terms([(expr, 7, 12)], space)
    assert _fields(errors[0]) == _fields(ref.value)


# an index too long for int(): still an index out of range, named as written without its leading zeros
LONG_INDEX = {
    "5000-nines": ("|0," + "9" * 5000 + ">", "9" * 5000, 1),
    "leading-zeros": ("|" + "0" * 4400 + "7,1>", "7", 0),
    "after-a-term": ("|1,1> - 1/2*|0," + "0" * 2 + "8" * 4500 + ">", "8" * 4500, 1),
}


@pytest.mark.parametrize("expr, index, party", LONG_INDEX.values(), ids=LONG_INDEX.keys())
def test_an_index_of_any_length_is_a_dim_error(expr, index, party):
    ket = expr[expr.rindex("|") :]
    col = 10 + expr.rindex("|")
    message = f"index {index} out of range for party {party} (dim {2 + party})"
    want = ("E_DIM", 3, col, ket, f"E_DIM at line 3, col {col}: {message} near {ket!r}")
    assert _fields(_err(f"qset v1\ndims: 2 3\nstate a: {expr} + oops\n")) == want


def test_serialize_single_basis_state():
    s = parse_qset("qset v1\ndims: 2 2\nstate a: |0,0>\n")
    text = serialize_qset(s)
    assert "state a: (1,0)*|0,0>" in text


def test_serialize_s3_has_split_line():
    text = serialize_qset(build_fixture("s3"))
    assert "dims: 6 6" in text
    assert "split: 1 = 2 3" in text
    assert text.count("state ") == 10


def _err(text):
    with pytest.raises(QsetError) as ei:
        parse_qset(text)
    return ei.value


def test_error_missing_header():
    e = _err("dims: 2 2\nstate a: |0,0>\n")
    assert e.code == "E_SYNTAX" and e.line == 1


def test_error_dim_out_of_range():
    e = _err("qset v1\ndims: 2 2\nstate a: |0,2>\n")
    assert e.code == "E_DIM" and e.line == 3 and e.col >= 10


def test_error_bad_split():
    e = _err("qset v1\ndims: 6 6\nsplit: 1 = 2 2\nstate a: |0,0>\n")
    assert e.code == "E_SPLIT" and e.line == 3


def test_a_repeated_dims_line_is_refused():
    # a second dims line would re-read the states before it in the new space
    e = _err("qset v1\ndims: 2 2\nstate a: |0,0>\n  dims: 3 3\nstate b: |2,2>\n")
    assert (e.code, e.line, e.col, e.lexeme) == ("E_SYNTAX", 4, 3, "dims: 3 3")
    assert "dims declared twice" in str(e)


def test_a_repeated_dims_line_after_a_split_is_refused():
    # it would leave the split's factors to multiply to another dim: a bare ValueError before
    e = _err("qset v1\ndims: 4 2\nsplit: 0 = 2 2\ndims: 6 2\nstate a: |0,0>\n")
    assert (e.code, e.line, e.col, e.lexeme) == ("E_SYNTAX", 4, 1, "dims: 6 2")


def test_error_duplicate_label():
    e = _err("qset v1\ndims: 2 2\nstate a: |0,0>\nstate a: |1,1>\n")
    assert e.code == "E_DUP_LABEL" and e.line == 4


def test_error_empty_state():
    e = _err("qset v1\ndims: 2 2\nstate a:\n")
    assert e.code == "E_EMPTY_STATE"
    e = _err("qset v1\ndims: 2 2\nstate a: |0,0> - |0,0>\n")
    assert e.code == "E_EMPTY_STATE"


def test_error_syntax_reports_position():
    e = _err("qset v1\ndims: 2 2\nstate a: |0,0> + oops\n")
    assert e.code == "E_SYNTAX" and e.line == 3 and e.col > 10
    assert e.lexeme


def test_error_dangling_operator():
    e = _err("qset v1\ndims: 2 2\nstate a: |0,0> +\n")
    assert e.code == "E_SYNTAX"


def test_error_order_follows_the_states():
    # a state that sums to zero is reported before a later state's syntax error
    e = _err("qset v1\ndims: 2 2\nstate a: |0,0> - |0,0>\nstate b: |0,0> + oops\n")
    assert (e.code, e.line) == ("E_EMPTY_STATE", 3)
    # and before a later state's index error; a duplicate label before its terms
    e = _err("qset v1\ndims: 2 2\nstate a: |0,0> - |0,0>\nstate b: |0,5>\n")
    assert (e.code, e.line) == ("E_EMPTY_STATE", 3)
    e = _err("qset v1\ndims: 2 2\nstate a: |0,0>\nstate a: oops\n")
    assert (e.code, e.line) == ("E_DUP_LABEL", 4)
    # within a state, an index out of range comes before a later term's syntax
    e = _err("qset v1\ndims: 2 2\nstate a: |0,0>\nstate b: |1,1> + |0,2> + oops\n")
    assert (e.code, e.line, e.col, e.lexeme) == ("E_DIM", 4, 18, "|0,2>")


RANGE = {
    "sqrt0": "1/sqrt(0)",
    "sqrt00": "1/sqrt(00)",
    "sqrt-huge": "1/sqrt(" + "9" * 400 + ")",
    "p-huge": "9" * 400 + "/3",
    "p-5000-digits": "-" + "9" * 5000 + "/3",
    "decimal": "1e999",
    "negative": "-1e999",
    "real": "(1e999,0)",
    "imag": "(0,-1e999)",
}


@pytest.mark.parametrize("coeff", RANGE.values(), ids=RANGE.keys())
def test_coefficient_outside_float_range_is_a_range_error(coeff):
    # reported at the coefficient, before the later syntax error
    e = _err(f"qset v1\ndims: 2 2\nstate a: |1,1> - {coeff}*|0,0> + oops\n")
    assert (e.code, e.line, e.col, e.lexeme) == ("E_RANGE", 3, 18, f"{coeff}*|0,0>")


def test_range_error_order_follows_the_terms():
    # a later state's range error comes after an earlier state's error, and
    # within a state after an earlier term's index error
    e = _err("qset v1\ndims: 2 2\nstate a: |0,0> - |0,0>\nstate b: 1e999|0,0>\n")
    assert (e.code, e.line) == ("E_EMPTY_STATE", 3)
    e = _err("qset v1\ndims: 2 2\nstate a: |0,5> + 1e999|0,0>\n")
    assert (e.code, e.col) == ("E_DIM", 10)
    e = _err("qset v1\ndims: 2 2\nstate a: |1,1>\nstate b: |0,1> + 1/sqrt(0)|0,0> + |0,5>\n")
    assert (e.code, e.line, e.col) == ("E_RANGE", 4, 18)


@pytest.mark.parametrize("expr", ["1e308*|0,0> + 1e308*|0,0>", "1e200*|0,0> + |1,1>"])
def test_state_norm_outside_float_range_is_a_range_error(expr):
    e = _err(f"qset v1\ndims: 2 2\nstate a: {expr}\n")
    assert (e.code, e.line, e.col) == ("E_RANGE", 3, 10)


def test_large_sqrt_argument_parses():
    # beyond a 64-bit integer, but 1/sqrt(n) is a float: 1e-10
    s = parse_qset("qset v1\ndims: 2 2\nstate a: |1,1> + 1/sqrt(100000000000000000000)*|0,0>\n")
    want = np.array([1 / np.sqrt(1e20), 0, 0, 1], dtype=complex)
    assert same_bits(s.matrix()[0], want / np.linalg.norm(want))


# -- the bulk read of canonical text ------------------------------------------


def _outcome(text: str, bulk: bool = True) -> tuple:
    """What `parse_qset` makes of `text`, with or without the bulk path:
    the matrix bits, labels, name and space, or the error's fields."""
    with pytest.MonkeyPatch.context() as mp:
        if not bulk:
            mp.setattr(qset, "_parse_canonical", lambda exprs, space: None)
        try:
            s = parse_qset(text)
        except QsetError as e:
            return _fields(e)
    return s.matrix().tobytes(), s.labels, s.name, s.space


def _reference_outcome(text: str) -> tuple:
    try:
        s = reference_parse_qset(text)
    except QsetError as e:
        return _fields(e)
    return s.matrix().tobytes(), s.labels, s.name, s.space


# a decimal as the canonical pattern admits it: optional sign, digits with
# leading zeros, `5.` and `.5` forms, an exponent with or without its sign
_DIGITS = st.text("0123456789", min_size=1, max_size=4)
_NUMBERS = st.one_of(
    st.sampled_from(["0", "-0", "-0.0", "0.0", "5.", ".5", "-.5", "1e+5", "2E-3", "00.5", "1"]),
    st.builds(
        lambda sign, mantissa, exp: sign + mantissa + exp,
        st.sampled_from(["", "-"]),
        st.one_of(_DIGITS, _DIGITS.map(lambda d: d + "."), st.tuples(_DIGITS, _DIGITS).map(".".join), _DIGITS.map(lambda d: "." + d)),
        st.one_of(st.just(""), st.tuples(st.sampled_from("eE"), st.sampled_from(["", "+", "-"]), st.integers(0, 40)).map(lambda t: f"{t[0]}{t[1]}{t[2]}")),
    ),
    st.floats(allow_nan=False, allow_infinity=False).map("%.17g".__mod__),
)


@st.composite
def canonical_documents(draw) -> tuple[PartySpace, list[str]]:
    dims = draw(st.sampled_from([(2,), (2, 2), (3, 2), (2, 2, 2)]))
    n_states = draw(st.integers(1, 4))
    exprs = []
    for _ in range(n_states):
        terms = []
        for _ in range(draw(st.integers(1, 6))):  # few kets: repeats are common
            re_, im = draw(_NUMBERS), draw(_NUMBERS)
            idx = ",".join("0" * draw(st.integers(0, 2)) + str(draw(st.integers(0, d - 1))) for d in dims)
            terms.append(f"({re_},{im})*|{idx}>")
        exprs.append(" + ".join(terms))
    return PartySpace(dims), exprs


def _document(space: PartySpace, exprs: list[str]) -> str:
    body = "".join(f"state s{i}: {e}\n" for i, e in enumerate(exprs))
    return f"qset v1\ndims: {' '.join(map(str, space.party_dims))}\n{body}"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(canonical_documents())
def test_canonical_documents_read_in_bulk_as_the_general_tokenizer(doc):
    space, exprs = doc
    assert all(qset._canonical_re(space.n_parties).fullmatch(e) for e in exprs)
    bulk = qset._parse_canonical(exprs, space)
    m, counts, errors = qset._parse_terms([(e, 3 + i, 10) for i, e in enumerate(exprs)], space)
    assert errors == [None] * len(exprs)
    assert bulk is not None and bulk[1:] == (counts, errors) and same_bits(bulk[0], m)
    text = _document(space, exprs)
    assert _outcome(text) == _outcome(text, bulk=False)


def test_the_patterns_compile_on_python_3_10():
    # possessive repeats and atomic groups are new in Python 3.11's re; the patterns
    # keep to older syntax, so admitting 3.10 again would need no change to them
    try:
        from re import _parser as parser
    except ImportError:  # Python 3.10
        import sre_parse as parser
    for pattern in [qset._TERM_RE.pattern] + [qset._canonical_re(n).pattern for n in (1, 2, 3)]:
        tree = repr(parser.parse(pattern))
        assert "POSSESSIVE_REPEAT" not in tree and "ATOMIC_GROUP" not in tree, pattern


def _mutate(expr: str, kind: str, dims: tuple[int, ...]) -> str:
    """`expr` with its first term's ket (or its blank before the first `+`) changed."""
    head, _, rest = expr.partition("|")
    ket, _, tail = rest.partition(">")
    idx = ket.split(",")
    if kind == "extra index":
        idx.append("0")
    elif kind == "missing index":
        idx.pop()
    elif kind == "index at dim":
        idx[-1] = str(dims[-1])
    elif kind == "1e999 part":
        head = "(1e999," + head.partition(",")[2]
    elif kind == "doubled blank":
        return expr.replace(" + ", "  + ", 1) if " + " in expr else expr + "  + " + expr
    return f"{head}|{','.join(idx)}>{tail}"


MUTATIONS = ["extra index", "missing index", "index at dim", "1e999 part", "doubled blank"]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from([(2, 2), (3, 2), (2, 3, 2)]), st.sampled_from(MUTATIONS), st.data())
def test_near_canonical_documents_report_as_the_reference(seed, dims, kind, data):
    rng = np.random.default_rng(seed)
    s = random_orthonormal_set(rng, dims, int(rng.integers(1, 4)))
    lines = serialize_qset(s).splitlines()
    states = [i for i, line in enumerate(lines) if line.startswith("state ")]
    at = data.draw(st.sampled_from(states))
    label, _, expr = lines[at].partition(": ")
    lines[at] = f"{label}: {_mutate(expr, kind, dims)}"
    text = "\n".join(lines) + "\n"
    got = _outcome(text)
    assert got == _outcome(text, bulk=False)
    if kind == "1e999 part":  # the per-term walker reads 1e999 as inf and raises nothing
        assert got[:3] == ("E_RANGE", at + 1, len(label) + 3)
    else:
        assert got == _reference_outcome(text)
        assert (got[0] == "E_DIM") == (kind != "doubled blank")


def test_canonical_text_skips_the_general_tokenizer(monkeypatch):
    calls = []
    general = qset._parse_terms
    monkeypatch.setattr(qset, "_parse_terms", lambda *a: calls.append(a) or general(*a))
    s = apply_local_unitaries(build_fixture("s3"), random_local_unitaries(build_fixture("s3").space, np.random.default_rng(4)))
    parse_qset(serialize_qset(s))
    assert calls == []
    parse_qset(f"qset v1\ndims: 2 3\nname: hand\n{HAND_WRITTEN[1]}\n")
    assert len(calls) == 1


@pytest.mark.parametrize("seed", range(20))
def test_serialize_keeps_the_per_term_bytes(seed):
    rng = np.random.default_rng(seed)
    dims = [(2, 2), (3, 2), (2, 2, 3), (6,)][seed % 4]
    s = random_orthonormal_set(rng, dims, int(rng.integers(2, 5)))
    m = s.matrix().copy()
    # -0.0 parts, subnormal parts and entries of 17 significant digits in
    # shown amplitudes. The rows are rescaled part by part, as complex
    # division would lose a -0.0, and `from_matrix` keeps them as they are.
    picks = rng.choice(m.size, 6, replace=False)
    m.flat[picks[0]] = complex(-0.0, m.flat[picks[0]].imag)
    m.flat[picks[1]] = complex(m.flat[picks[1]].real, -0.0)
    m.flat[picks[2]] = complex(m.flat[picks[2]].real, 5e-324)
    m.flat[picks[3]] = complex(-2.2250738585072014e-309, m.flat[picks[3]].imag)
    m.flat[picks[4]] = complex(0.10000000000000002, m.flat[picks[4]].imag)
    m.flat[picks[5]] = complex(m.flat[picks[5]].real, -1.2345678901234567e-5)
    m.view(np.float64).reshape(len(m), -1)[:] /= np.linalg.norm(m, axis=1)[:, None]
    t = StateSet.from_matrix(s.space, m, s.labels, "edge")
    parts = t.matrix().view(np.float64)
    assert (np.signbit(parts) & (parts == 0)).sum() == 2 and ((parts != 0) & (np.abs(parts) < 2.3e-308)).sum() == 2
    assert serialize_qset(t) == reference_serialize_qset(t)
    assert serialize_qset(s) == reference_serialize_qset(s)


@pytest.mark.parametrize("label", ["a b", "x#1", "c:d", "", "tab\there", "line\nbreak"])
def test_serialize_refuses_a_label_that_would_not_read_back(label):
    s = StateSet.from_matrix(PartySpace((2, 2)), np.eye(4)[:2], ["ok", label])
    with pytest.raises(ValueError, match="label " + re.escape(repr(label))):
        serialize_qset(s)


@pytest.mark.parametrize("name", ["two\nlines", "my#name", " padded", "padded ", "cr\rlf", "sep\u2028line"])
def test_serialize_refuses_a_name_that_would_not_read_back(name):
    s = StateSet.from_matrix(PartySpace((2, 2)), np.eye(4)[:2], ["a", "b"], name)
    with pytest.raises(ValueError, match="name " + re.escape(repr(name))):
        serialize_qset(s)


@pytest.mark.parametrize("label, name", [("x-1", "my name"), ("P[a]|b", "s4[A|BC]"), ("\u00e9", "")])
def test_labels_and_names_that_read_back_are_written(label, name):
    s = StateSet.from_matrix(PartySpace((2, 2)), np.eye(4)[:2], ["a", label], name)
    back = parse_qset(serialize_qset(s))
    assert (back.labels, back.name) == (s.labels, s.name)


# -- hand-written documents from a seeded generator ---------------------------


def _decimal(rng, nonzero: bool) -> str:
    """A decimal in one of its shapes (`5`, `5.`, `.5`, `5.25`), maybe with an exponent and its own `-`."""
    digits = str(rng.integers(1 if nonzero else 0, 1000))
    mantissa = [digits, digits + ".", "." + digits, digits[:1] + "." + digits[1:]][rng.integers(4)]
    return str(rng.choice(["", "", "-"])) + mantissa + str(rng.choice(["", "", "e-2", "E+1", "e3", "e+0"]))


def _coefficient(rng, nonzero: bool) -> str:
    """No coefficient or one of the four forms; `nonzero` keeps it from being zero."""
    form = rng.integers(5)
    if form == 1:
        return f"1/sqrt({rng.integers(1, 50)})"
    if form == 2:
        return f"{rng.choice(['', '', '-'])}{rng.integers(1 if nonzero else 0, 20)}/{rng.integers(1, 12)}"
    if form == 3:
        return f"({_decimal(rng, nonzero)},{_decimal(rng, False)})"
    if form == 4:
        return _decimal(rng, nonzero)
    return ""


def _ket_text(idx) -> str:
    return "|" + ",".join(idx) + ">"


# each breaks the term it is given, so that the state always has an error
BREAKS = ["missing operator", "dangling operator", "zero denominator", "no coefficient or ket", "no ket", "wrong arity", "index out of range"]


def _hand_written_state(rng, dims: tuple[int, ...], broken: bool) -> str:
    """One state's terms as a person might type them: every coefficient
    form, `*` or not, blanks and tabs, both joining signs, and repeated
    kets. The first term's ket is one no other term uses, and its
    coefficient is not zero, so the state never sums to zero. `broken`
    breaks one term in one of the ways of `BREAKS`."""
    flat = rng.choice(int(np.prod(dims)), size=min(3, int(np.prod(dims))), replace=False)
    kets = [[str(i) for i in np.unravel_index(f, dims)] for f in flat]
    terms = []
    for t in range(int(rng.integers(1, 7))):
        idx = ["0" * int(rng.random() < 0.15) + i for i in kets[0 if t == 0 else rng.integers(1, len(kets))]]
        coeff = _coefficient(rng, nonzero=t == 0)
        terms.append((coeff, str(rng.choice(["*", "", "* ", "*\t", " "])) if coeff else "", idx))
    texts = [coeff + sep + _ket_text(idx) for coeff, sep, idx in terms]
    if broken:
        j = rng.integers(len(terms))
        coeff, sep, idx = terms[j]
        kind = BREAKS[rng.integers(len(BREAKS))]
        if kind == "missing operator":
            texts[j] += " " + _ket_text(kets[0])
        elif kind == "dangling operator":
            texts[-1] += str(rng.choice([" +", " -", "+\t", "-"]))
        elif kind == "zero denominator":
            texts[j] = f"{rng.choice(['1', '-3', '0'])}/{'0' * rng.integers(1, 3)}*{_ket_text(idx)}"
        elif kind == "no coefficient or ket":
            texts[j] = str(rng.choice(["oops", "+", "*", ")"])) + texts[j]
        elif kind == "no ket":
            texts[j] = texts[j][:-1]
        elif kind == "wrong arity":
            texts[j] = coeff + sep + _ket_text(idx + ["0"] if len(idx) == 1 or rng.random() < 0.5 else idx[:-1])
        else:
            p = rng.integers(len(idx))
            texts[j] = coeff + sep + _ket_text(idx[:p] + ["0" * rng.integers(2) + str(dims[p] + rng.integers(20))] + idx[p + 1 :])
    expr = texts[0]
    for text in texts[1:]:
        expr += str(rng.choice([" + ", " - ", "+", "-", "\t+ ", " -\t", "  +  "])) + text
    return str(rng.choice(["", " ", "\t"])) + expr


def _hand_written_document(rng) -> tuple[str, int | None]:
    """A document of 1 to 4 states on 1 to 3 parties, with comments and
    blank lines, and the line of its first broken state, or None. Half the
    documents of two or more states break one or two states after the first."""
    dims = tuple(int(d) for d in rng.integers(2, 5, size=rng.integers(1, 4)))
    lines = ["# typed by hand", "qset v1", "dims: " + " ".join(map(str, dims)) + str(rng.choice(["", "  # parties"]))]
    if rng.random() < 0.5:
        lines.append("name: hand written")
    n_states = int(rng.integers(1, 5))
    broken = set(rng.integers(1, n_states, size=rng.integers(1, 3)).tolist()) if n_states > 1 and rng.random() < 0.5 else set()
    first_broken = None
    for k in range(n_states):
        if rng.random() < 0.3:
            lines.append(str(rng.choice(["", "# a comment line", "   "])))
        head = str(rng.choice(["", " ", "\t"])) + "state" + str(rng.choice([" ", "\t"])) + f"s{k}" + str(rng.choice([":", " : ", ":\t"]))
        lines.append(head + _hand_written_state(rng, dims, k in broken) + str(rng.choice(["", "  # a note", "\t"])))
        if k in broken and first_broken is None:
            first_broken = len(lines)
    return "\n".join(lines) + "\n", first_broken


@pytest.mark.parametrize("seed", range(20))
def test_generated_hand_written_documents_match_reference(seed):
    rng = np.random.default_rng(seed)
    for _ in range(25):
        text, first_broken = _hand_written_document(rng)
        got = _outcome(text)
        assert got == _reference_outcome(text), text
        if first_broken is not None:  # the error is that of the first broken state, after a good one
            assert got[0] in ("E_SYNTAX", "E_DIM") and got[1] == first_broken, (text, got)
