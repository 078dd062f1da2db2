import numpy as np
import pytest

from _helpers import qset_mismatches, random_orthonormal_set, state_model_cases
from qlocc.fixtures import build_fixture
from qlocc.qset import QsetError, parse_qset, serialize_qset
from qlocc.states import gram_check, gram_matrix


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
