"""Byte pins for certificate paths that bench/digests.json does not cover.

Each value is the sha256 of json.dumps(cert.to_json(), sort_keys=True),
recorded before the three distinguishability/activation searches were
folded into one AND-OR engine. Together they reach every terminal rule of
both searches, the activation transcript, the Incomplete verdict of a
truncated search, and the retry of a memoized truncated node.
"""

import hashlib
import json

import pytest

from qlocc.fixtures import build_fixture
from qlocc.protocol import SetAnalyzer, activation_search, search_distinguishing_protocol


def _digest(cert) -> str:
    return hashlib.sha256(json.dumps(cert.to_json(), sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize(
    "fixture, search, depth, kind, digest",
    [
        ("tiles33", activation_search, 4, "Indistinguishability", "a113a7696c18b7bf1429a3b7e86a3c9664d916d322a8386e0a66a1af83db18b8"),
        ("s1", activation_search, 6, "NonActivabilityInClass", "fba294ee5a31d41f29d4ea8ca181903d3df4ad3850eb33fac1d9deb6a5da4036"),
        ("s3", activation_search, 4, "Activation", "ccbc05042556d8fe36213c7ce3f15211e819f91d7a048deb4d196d18e849613d"),
        ("s6", search_distinguishing_protocol, 8, "Incomplete", "520e1e068b6396992cfe863d3ea9d3c05ad10ebe674b5fcc5afefd2301edcc22"),
        ("s6", activation_search, 8, "NonActivabilityInClass", "dc2d17ca3f5155cac2c9eceb1ac4c3a38dd365c1966dd585ba605141a56a7698"),
    ],
    ids=["tiles33-activation", "s1-activation", "s3-activation", "s6-search", "s6-activation"],
)
def test_certificate_bytes(fixture, search, depth, kind, digest):
    cert = search(build_fixture(fixture), max_depth=depth)
    assert cert.kind == kind
    assert _digest(cert) == digest


@pytest.mark.parametrize(
    "fixture, search, digest",
    [
        ("s1", search_distinguishing_protocol, "a65c61c80403be3e9319a16ef73db7789bc94905b522734d86d19d66a145f890"),
        ("s1", activation_search, "fba294ee5a31d41f29d4ea8ca181903d3df4ad3850eb33fac1d9deb6a5da4036"),
        ("s6", search_distinguishing_protocol, "547d927afcb9bbe4c0dfd40ee3d55fdf9d7e2466033a0ec3dd535f356ab46b3a"),
        ("s6", activation_search, "c624ee7d3657e014420e171c715b4a126bf9905a8b52589c6467604a5aa4b2d7"),
    ],
    ids=["s1-search", "s1-activation", "s6-search", "s6-activation"],
)
def test_memo_retry_matches_fresh_analyzer(fixture, search, digest):
    s = build_fixture(fixture)
    an = SetAnalyzer()
    shallow = search(s, max_depth=2, analyzer=an)
    assert shallow.kind == "Incomplete"  # the depth-2 memo entries are truncated, so depth 6 retries them
    retried = search(s, max_depth=6, analyzer=an)
    fresh = search(s, max_depth=6)
    assert _digest(retried) == _digest(fresh) == digest
