"""Byte guard: certificates and profiles must keep the bytes pinned by the
benchmark in bench/digests.json (sha256 of json.dumps(to_json(), sort_keys=True)),
and the s1_general d=10 certificates the bytes pinned here."""

import pytest

from _helpers import DIGESTS, digest
from qlocc.fixtures import build_fixture
from qlocc.partitions import hidden_nonlocality_profile
from qlocc.protocol import activation_search, search_distinguishing_protocol


@pytest.mark.parametrize("d", [4, 6])
@pytest.mark.parametrize(
    "kind, search",
    [("search", search_distinguishing_protocol), ("activation", activation_search)],
    ids=["search", "activation"],
)
def test_s1_general_certificate_bytes(kind, search, d):
    cert = search(build_fixture("s1_general", d=d), max_depth=2 * d)
    assert digest(cert.to_json()) == DIGESTS["family-s1general"][f"{kind}-d{d}"]


# s1_general d=10 at depth 20, taken before the OPLM pair screen: the d=10
# solves drop the most pairs of any pinned input
S1_GENERAL_D10 = {
    "search": "f3cbcf39bd81a1c683319b4c401e3d88611526da898dac0a4e4d1b057fae6743",
    "activation": "fbc009c1da36ab7e74c94a8d2d284abdf5b19a545832afeda127a025dfcf06b5",
}


@pytest.mark.parametrize(
    "kind, search",
    [("search", search_distinguishing_protocol), ("activation", activation_search)],
    ids=["search", "activation"],
)
def test_s1_general_d10_certificate_bytes(kind, search):
    cert = search(build_fixture("s1_general", d=10), max_depth=20)
    assert digest(cert.to_json()) == S1_GENERAL_D10[kind]


def test_s2_profile_bytes():
    prof = hidden_nonlocality_profile(build_fixture("s2"), max_depth=8)
    assert digest(prof.to_json()) == DIGESTS["profile-s4"]["s2"]
