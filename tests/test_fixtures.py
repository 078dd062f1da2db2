import numpy as np
import pytest

from qlocc.fixtures import FIXTURE_NAMES, build_fixture, fixture_corrections, s1_general_tiles
from qlocc.render import extract_tiles
from qlocc.states import Bipartition, gram_check, schmidt_rank

EXPECTED_COUNTS = {"s1": 16, "s2": 14, "s3": 10, "s4": 20, "s5": 12, "s6": 24, "tiles33": 5}


@pytest.mark.parametrize("name", sorted(EXPECTED_COUNTS))
def test_corrected_fixtures_orthogonal(name):
    s = build_fixture(name)
    assert len(s) == EXPECTED_COUNTS[name]
    assert gram_check(s, tol=1e-9).ok


def test_s6_verbatim_fails():
    rep = gram_check(build_fixture("s6", "verbatim"))
    assert not rep.ok
    labels = {frozenset(p) for p in rep.top_pairs(2)}
    assert labels == {frozenset({"xi45+_0", "xi5_0"}), frozenset({"xi45-_0", "xi5_0"})}


def test_s1_verbatim_equals_corrected():
    a = build_fixture("s1", "corrected").matrix()
    b = build_fixture("s1", "verbatim").matrix()
    assert np.abs(a - b).max() == 0


def test_corrections_listing():
    assert len(fixture_corrections("s1")) == 2
    assert fixture_corrections("s3") == []
    assert fixture_corrections("s2") == []
    assert fixture_corrections("s5") == []
    s6 = fixture_corrections("s6")
    assert len(s6) == 3
    assert any("|1>_B" in corrected for _, corrected, _ in s6)


def test_s4_structure():
    s3 = build_fixture("s3")
    s4 = build_fixture("s4")
    assert s4.space.party_dims == (6, 6, 2)
    # every member is phi_i tensor |c>
    for i, k3 in enumerate(s3.states):
        for c in (0, 1):
            k4 = s4.states[2 * i + c]
            assert k4.label == f"{k3.label}_c{c}"
            expect = np.kron(k3.amplitudes, np.eye(2)[c])
            assert np.abs(k4.amplitudes - expect).max() <= 1e-12


def test_product_fixtures_all_rank_one():
    for name in ("s1", "s2", "s3", "s4", "tiles33"):
        s = build_fixture(name)
        n = s.space.n_parties
        for k in s:
            for p in range(n):
                assert schmidt_rank(k, Bipartition.of({p}, n)) == 1, (name, k.label)


def test_entangled_fixtures_have_rank_two_members():
    for name in ("s5", "s6"):
        s = build_fixture(name)
        ranks = [schmidt_rank(k, Bipartition.of({0}, 2)) for k in s]
        assert max(ranks) == 2
        assert min(ranks) == 1


def test_s3_sub_split():
    s3 = build_fixture("s3")
    assert s3.space.sub_splits == {1: (2, 3)}
    assert s3.space.factor_dims() == (6, 2, 3)
    assert s3.space.factor_names() == ("A", "b1", "b2")


def test_s1_general_matches_s1():
    s1 = build_fixture("s1")
    gen = build_fixture("s1_general", d=4)
    assert len(gen) == 16
    a = {np.ascontiguousarray(np.round(r, 9)).tobytes() for r in s1.matrix()}
    b = {np.ascontiguousarray(np.round(r, 9)).tobytes() for r in gen.matrix()}
    assert a == b


@pytest.mark.parametrize("d", [4, 6, 8])
def test_s1_general_family(d):
    gen = build_fixture("s1_general", d=d)
    assert len(gen) == d * d
    assert gram_check(gen, tol=1e-9).ok
    # the tiles partition the d x d grid
    diagram = extract_tiles(gen)
    cover = np.zeros((d, d), dtype=int)
    for t in diagram.tiles:
        for a, b in t.cells():
            cover[a, b] += 1
    assert (cover == 1).all()


def test_s1_general_rejects_odd():
    with pytest.raises(ValueError):
        build_fixture("s1_general", d=5)
    with pytest.raises(ValueError):
        s1_general_tiles(3)


def test_d_is_checked_before_the_space_and_refused_where_unused():
    for d in (-2, 0, 2, 3):
        with pytest.raises(ValueError, match="s1_general requires even d >= 4"):
            build_fixture("s1_general", d=d)
    with pytest.raises(ValueError, match="s1_general requires d"):
        build_fixture("s1_general")
    for name in set(FIXTURE_NAMES) - {"s1_general"}:
        with pytest.raises(ValueError, match=f"fixture {name} takes no d; only s1_general does"):
            build_fixture(name, d=6)
    with pytest.raises(ValueError, match="unknown fixture 's99'"):
        build_fixture("s99", d=6)


def test_unknown_fixture():
    with pytest.raises(ValueError):
        build_fixture("s99")
    with pytest.raises(ValueError):
        build_fixture("s1", "weird")
    assert set(EXPECTED_COUNTS) | {"s1_general"} == set(FIXTURE_NAMES)
