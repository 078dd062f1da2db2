"""Byte guard: certificates and profiles must keep the bytes pinned by the
benchmark in bench/digests.json (sha256 of json.dumps(to_json(), sort_keys=True))."""

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


def test_s2_profile_bytes():
    prof = hidden_nonlocality_profile(build_fixture("s2"), max_depth=8)
    assert digest(prof.to_json()) == DIGESTS["profile-s4"]["s2"]
