"""Built-in state sets: the layered two-qudit tilings s1/s5, the tripartite
sets s2/s4, the 6x6 pair s3/s6, the 3x3 tiles UPB, and the even-d
generalization of s1; and the scripted protocol trees that run on them
(`builtin_protocol`).

Each set ships in two variants. `corrected` fixes printed party-subscript
typos and (for s6) one misplaced column so the set is pairwise orthogonal;
`verbatim` reproduces the printed listing read positionally (first ket =
party A, second = party B). `fixture_corrections` documents every edit.
"""

from __future__ import annotations

import numpy as np

from .certify import Leaf, Measure, _rest, _with_rest
from .oplm import LocalMeasurement
from .states import PartySpace, StateSet, make_ket

FIXTURE_NAMES = ("s1", "s2", "s3", "s4", "s5", "s6", "tiles33", "s1_general")


def _b(i: int):
    return [(1.0, (i,))]


def _sup(i: int, j: int, sign: int):
    return [(1.0, (i,)), (float(sign), (j,))]


def _usum(*idx: int):
    return [(1.0, (i,)) for i in idx]


def _prod(*factors):
    """Cross product of per-party term lists into full terms."""
    terms = [(1.0, ())]
    for f in factors:
        terms = [(c * fc, idx + fidx) for c, idx in terms for fc, fidx in f]
    return terms


def _superpose(*parts):
    """Equal-weight superposition of normalized parts (each a term list)."""
    out = []
    for part in parts:
        n = np.sqrt(sum(abs(c) ** 2 for c, _ in part))
        out.extend((c / n, idx) for c, idx in part)
    return out


def _build(space: PartySpace, rows, name: str) -> StateSet:
    return StateSet(space, [make_ket(space, terms, label) for label, terms in rows], name)


def _s1_states():
    rows = []
    for sign, t in ((1, "+"), (-1, "-")):
        rows.append((f"0_X01{t}", _prod(_b(0), _sup(0, 1, sign))))
    for sign, t in ((1, "+"), (-1, "-")):
        rows.append((f"0_X23{t}", _prod(_b(0), _sup(2, 3, sign))))
    for sign, t in ((1, "+"), (-1, "-")):
        rows.append((f"xi12{t}_0", _prod(_sup(1, 2, sign), _b(0))))
    rows.append(("xi3_0", _prod(_b(3), _b(0))))
    for sign, t in ((1, "+"), (-1, "-")):
        rows.append((f"1_X12{t}", _prod(_b(1), _sup(1, 2, sign))))
    rows.append(("1_X3", _prod(_b(1), _b(3))))
    for sign, t in ((1, "+"), (-1, "-")):
        rows.append((f"xi23{t}_1", _prod(_sup(2, 3, sign), _b(1))))
    for sign, t in ((1, "+"), (-1, "-")):
        rows.append((f"2_X23{t}", _prod(_b(2), _sup(2, 3, sign))))
    rows.append(("xi3_2", _prod(_b(3), _b(2))))
    rows.append(("xi3_X3", _prod(_b(3), _b(3))))
    return rows


def _s2_states():
    rows = []
    for sign, t in ((1, "+"), (-1, "-")):
        rows.append((f"xi0_X0_Y01{t}", _prod(_b(0), _b(0), _sup(0, 1, sign))))
    for sign, t in ((1, "+"), (-1, "-")):
        rows.append((f"xi0_X1_Y01{t}", _prod(_b(0), _b(1), _sup(0, 1, sign))))
    for sign, t in ((1, "+"), (-1, "-")):
        rows.append((f"xi12{t}_X0_Y0", _prod(_sup(1, 2, sign), _b(0), _b(0))))
    rows.append(("xi3_X0_Y0", _prod(_b(3), _b(0), _b(0))))
    rows.append(("xi1_X1_Y0", _prod(_b(1), _b(1), _b(0))))
    rows.append(("xi3_X1_Y0", _prod(_b(3), _b(1), _b(0))))
    for sign, t in ((1, "+"), (-1, "-")):
        rows.append((f"xi1_X01{t}_Y1", _prod(_b(1), _sup(0, 1, sign), _b(1))))
    for sign, t in ((1, "+"), (-1, "-")):
        rows.append((f"xi23{t}_X0_Y1", _prod(_sup(2, 3, sign), _b(0), _b(1))))
    rows.append(("xi3_X1_Y1", _prod(_b(3), _b(1), _b(1))))
    return rows


def _s3_states():
    w1 = _sup(0, 1, -1) + [(1.0, (4,)), (-1.0, (5,))]  # |0-1+4-5>
    w2 = [(1.0, (1,)), (-1.0, (2,)), (1.0, (5,)), (-1.0, (3,))]  # |1-2+5-3>
    stopper = _usum(0, 1, 2, 3, 4, 5)
    return [
        ("phi1", _prod(_b(0), w1)),
        ("phi2", _prod(_b(2), w2)),
        ("phi3", _prod(_sup(1, 2, -1), _sup(0, 4, -1))),
        ("phi4", _prod(_sup(0, 1, -1), _sup(2, 3, -1))),
        ("phi5", _prod(_usum(0, 1, 2), stopper)),
        ("phi6", _prod(_b(3), w1)),
        ("phi7", _prod(_b(5), w2)),
        ("phi8", _prod(_sup(4, 5, -1), _sup(0, 4, -1))),
        ("phi9", _prod(_sup(3, 4, -1), _sup(2, 3, -1))),
        ("phi10", _prod(_usum(3, 4, 5), stopper)),
    ]


def _s5_states():
    rows = []
    for sign, t in ((1, "+"), (-1, "-")):
        rows.append((f"W0_0123{t}", _superpose(_prod(_b(0), _sup(0, 1, sign)), _prod(_b(2), _sup(2, 3, sign)))))
    for sign, t in ((1, "+"), (-1, "-")):
        rows.append((f"0_X23{t}", _prod(_b(0), _sup(2, 3, sign))))
    rows.append(("Wb0_12_3", _superpose(_prod(_sup(1, 2, 1), _b(0)), _prod(_b(3), _b(2)))))
    rows.append(("xi12-_0", _prod(_sup(1, 2, -1), _b(0))))
    rows.append(("xi3_0", _prod(_b(3), _b(0))))
    rows.append(("W1_12_3", _superpose(_prod(_b(1), _sup(1, 2, 1)), _prod(_b(3), _b(3)))))
    rows.append(("1_X12-", _prod(_b(1), _sup(1, 2, -1))))
    rows.append(("1_X3", _prod(_b(1), _b(3))))
    for sign, t in ((1, "+"), (-1, "-")):
        rows.append((f"xi23{t}_1", _prod(_sup(2, 3, sign), _b(1))))
    return rows


def _s6_states(xi45_column: int):
    rows = []
    for sign, t in ((1, "+"), (-1, "-")):
        rows.append((f"W0_0123{t}", _superpose(_prod(_b(0), _sup(0, 1, sign)), _prod(_b(2), _sup(2, 3, sign)))))
    for sign, t in ((1, "+"), (-1, "-")):
        rows.append((f"W0_2345{t}", _superpose(_prod(_b(0), _sup(2, 3, sign)), _prod(_b(2), _sup(4, 5, sign)))))
    for sign, t in ((1, "+"), (-1, "-")):
        rows.append((f"0_X45{t}", _prod(_b(0), _sup(4, 5, sign))))
    for sign, t in ((1, "+"), (-1, "-")):
        rows.append((f"Wb0_1234{t}", _superpose(_prod(_sup(1, 2, sign), _b(0)), _prod(_sup(3, 4, sign), _b(2)))))
    rows.append(("Wb0_34_5", _superpose(_prod(_sup(3, 4, 1), _b(0)), _prod(_b(5), _b(2)))))
    rows.append(("xi34-_0", _prod(_sup(3, 4, -1), _b(0))))
    rows.append(("xi5_0", _prod(_b(5), _b(0))))
    for sign, t in ((1, "+"), (-1, "-")):
        rows.append((f"W1_1234{t}", _superpose(_prod(_b(1), _sup(1, 2, sign)), _prod(_b(3), _sup(3, 4, sign)))))
    rows.append(("W1_34_5", _superpose(_prod(_b(1), _sup(3, 4, 1)), _prod(_b(3), _b(5)))))
    rows.append(("1_X34-", _prod(_b(1), _sup(3, 4, -1))))
    rows.append(("1_X5", _prod(_b(1), _b(5))))
    for sign, t in ((1, "+"), (-1, "-")):
        rows.append((f"Wb1_2345{t}", _superpose(_prod(_sup(2, 3, sign), _b(1)), _prod(_sup(4, 5, sign), _b(3)))))
    for sign, t in ((1, "+"), (-1, "-")):
        rows.append((f"xi45{t}_{xi45_column}", _prod(_sup(4, 5, sign), _b(xi45_column))))
    for sign, t in ((1, "+"), (-1, "-")):
        rows.append((f"4_X45{t}", _prod(_b(4), _sup(4, 5, sign))))
    rows.append(("xi5_4", _prod(_b(5), _b(4))))
    rows.append(("xi5_X5", _prod(_b(5), _b(5))))
    return rows


def _tiles33_states():
    return [
        ("0_X01-", _prod(_b(0), _sup(0, 1, -1))),
        ("2_X12-", _prod(_b(2), _sup(1, 2, -1))),
        ("xi12-_0", _prod(_sup(1, 2, -1), _b(0))),
        ("xi01-_2", _prod(_sup(0, 1, -1), _b(2))),
        ("stopper", _prod(_usum(0, 1, 2), _usum(0, 1, 2))),
    ]


def s1_general_tiles(d: int):
    """Tile layout of the layered d x d pattern: (kind, fixed, lo, hi) with
    kind 'row' (A fixed, B interval) or 'col' (B fixed, A interval)."""
    if d < 4 or d % 2 != 0:
        raise ValueError("s1_general requires even d >= 4")
    tiles = []
    for r in range(d):
        i = r
        while i + 1 <= d - 1:
            tiles.append(("row", r, i, i + 1))
            i += 2
        if i == d - 1:
            tiles.append(("row", r, d - 1, d - 1))
    for c in range(d - 1):
        i = c + 1
        while i + 1 <= d - 1:
            tiles.append(("col", c, i, i + 1))
            i += 2
        if i == d - 1:
            tiles.append(("col", c, d - 1, d - 1))
    return tiles


def _s1_general_states(d: int):
    rows = []
    for kind, fixed, lo, hi in s1_general_tiles(d):
        if kind == "row":
            if lo == hi:
                rows.append((f"r{fixed}_X{lo}", _prod(_b(fixed), _b(lo))))
            else:
                for sign, t in ((1, "+"), (-1, "-")):
                    rows.append((f"r{fixed}_X{lo}.{hi}{t}", _prod(_b(fixed), _sup(lo, hi, sign))))
        else:
            if lo == hi:
                rows.append((f"c{fixed}_xi{lo}", _prod(_b(lo), _b(fixed))))
            else:
                for sign, t in ((1, "+"), (-1, "-")):
                    rows.append((f"c{fixed}_xi{lo}.{hi}{t}", _prod(_sup(lo, hi, sign), _b(fixed))))
    return rows


def build_fixture(name: str, variant: str = "corrected", d: int | None = None) -> StateSet:
    """Construct a named fixture. `variant` is 'corrected' or 'verbatim'."""
    if variant not in ("corrected", "verbatim"):
        raise ValueError(f"unknown variant {variant!r}")
    if name not in FIXTURE_NAMES:
        raise ValueError(f"unknown fixture {name!r}")
    if d is not None and name != "s1_general":
        raise ValueError(f"fixture {name} takes no d; only s1_general does")
    if name == "s1":
        # the printed subscript typos do not change amplitudes under the
        # positional reading, so both variants coincide
        return _build(PartySpace((4, 4)), _s1_states(), f"s1[{variant}]")
    if name == "s2":
        return _build(PartySpace((4, 2, 2)), _s2_states(), f"s2[{variant}]")
    if name == "s3":
        return _build(PartySpace((6, 6), {1: (2, 3)}), _s3_states(), f"s3[{variant}]")
    if name == "s4":
        s3 = build_fixture("s3", variant)
        space = PartySpace((6, 6, 2), {1: (2, 3)})
        rows = [np.kron(row, np.eye(2)[c]) for row in s3.matrix() for c in (0, 1)]
        labels = [f"{lab}_c{c}" for lab in s3.labels for c in (0, 1)]
        return StateSet.from_matrix(space, rows, labels, f"s4[{variant}]")
    if name == "s5":
        return _build(PartySpace((4, 4)), _s5_states(), f"s5[{variant}]")
    if name == "s6":
        col = 1 if variant == "corrected" else 0
        return _build(PartySpace((6, 6)), _s6_states(col), f"s6[{variant}]")
    if name == "tiles33":
        return _build(PartySpace((3, 3)), _tiles33_states(), f"tiles33[{variant}]")
    if d is None:
        raise ValueError("s1_general requires d")
    # before the space: a d that is not even and >= 4 gets that rule's error
    states = _s1_general_states(d)
    return _build(PartySpace((d, d)), states, f"s1_general({d})")


def fixture_corrections(name: str) -> list[tuple[str, str, str]]:
    """(printed form, corrected form, justification) for each edit to the
    printed listing. Empty when the listing is used as printed."""
    subscript = (
        "second ket carries an A subscript in print; it is positionally Bob's "
        "factor, so the party label is corrected to B (amplitudes unchanged)"
    )
    if name == "s1":
        return [
            ("|xi3>_A |0>_A", "|xi3>_A |0>_B", subscript),
            ("|xi23+->_A |1>_A", "|xi23+->_A |1>_B", subscript),
        ]
    if name == "s6":
        return [
            ("|xi5>_A |0>_A", "|xi5>_A |0>_B", subscript),
            ("|xi5>_A |4>_A", "|xi5>_A |4>_B", subscript),
            (
                "|xi45+->_A |0>_B",
                "|xi45+->_A |1>_B",
                "as printed these overlap |xi34->_A|0>_B and |xi5>_A|0>_B; the "
                "layered tiling pattern and orthogonality against |1Wb_2345+->"
                " place the pair in column |1>_B",
            ),
        ]
    if name in ("s2", "s3", "s4", "s5", "tiles33", "s1_general"):
        return []
    raise ValueError(f"unknown fixture {name!r}")


# ---------------------------------------------------------------------------
# scripted protocols on the sets above


def _proj(d: int, part) -> np.ndarray:
    """The projector onto the normalized one-party term list `part`."""
    v = np.zeros(d, dtype=np.complex128)
    for c, (i,) in part:
        v[i] = c
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def _pidx(d: int, idx) -> np.ndarray:
    p = np.zeros((d, d), dtype=np.complex128)
    for i in idx:
        p[i, i] = 1.0
    return p


def _meas(party: int, kraus, labels) -> LocalMeasurement:
    return LocalMeasurement(party, [np.asarray(k, dtype=np.complex128) for k in kraus], labels)


def _s3_discrimination_tree():
    d = 6
    v1, v2, v3 = _proj(d, _sup(0, 4, -1)), _proj(d, _sup(2, 3, -1)), _proj(d, _usum(*range(6)))
    mb = _meas(1, [v1, v2, v3, _rest(d, [v1, v2, v3])], ["P[0-4]", "P[2-3]", "P[stopper]", "rest"])

    def alice(parts, leaves):
        ops = [_proj(d, part) for part in parts]
        kraus = ops + [_rest(d, ops)]
        labels = [f"P{i}" for i in range(len(ops))] + ["rest"]
        return Measure(0, _meas(0, kraus, labels), leaves)

    b1 = alice([_sup(1, 2, -1), _sup(4, 5, -1)], [Leaf(identified="phi3"), Leaf(identified="phi8"), None])
    b2 = alice([_sup(0, 1, -1), _sup(3, 4, -1)], [Leaf(identified="phi4"), Leaf(identified="phi9"), None])
    b3 = alice([_usum(0, 1, 2), _usum(3, 4, 5)], [Leaf(identified="phi5"), Leaf(identified="phi10"), None])
    b4 = alice(
        [_b(0), _b(2), _b(3)],
        [Leaf(identified="phi1"), Leaf(identified="phi2"), Leaf(identified="phi6"), Leaf(identified="phi7")],
    )
    return Measure(1, mb, [b1, b2, b3, b4])


def _half_split(party: int, d: int, lo_half, hi_half) -> LocalMeasurement:
    return _meas(
        party,
        [_pidx(d, lo_half), _pidx(d, hi_half)],
        [f"P[{','.join(map(str, lo_half))}]", f"P[{','.join(map(str, hi_half))}]"],
    )


def _s3_activation_tree():
    ka = _half_split(0, 6, (0, 1, 2), (3, 4, 5))
    kb = _half_split(1, 6, (0, 1, 2), (3, 4, 5))
    return Measure(1, kb, [Measure(0, ka, [Leaf(), Leaf()]), Measure(0, ka, [Leaf(), Leaf()])])


def _s1_recursion_tree():
    d = 4
    pa = _half_split(0, d, (0,), (1, 2, 3))
    pb = _half_split(1, d, (0,), (1, 2, 3))

    def resolve(party, parts, labels, leaves):
        return _with_rest(party, d, [_proj(d, part) for part in parts], labels, leaves)

    b0 = resolve(
        1,
        [_sup(0, 1, 1), _sup(0, 1, -1), _sup(2, 3, 1), _sup(2, 3, -1)],
        ["P[X01+]", "P[X01-]", "P[X23+]", "P[X23-]"],
        [Leaf(identified="0_X01+"), Leaf(identified="0_X01-"), Leaf(identified="0_X23+"), Leaf(identified="0_X23-")],
    )
    col0 = resolve(
        0,
        [_sup(1, 2, 1), _sup(1, 2, -1), _b(3)],
        ["P[xi12+]", "P[xi12-]", "P[3]"],
        [Leaf(identified="xi12+_0"), Leaf(identified="xi12-_0"), Leaf(identified="xi3_0")],
    )
    row1 = resolve(
        1,
        [_sup(1, 2, 1), _sup(1, 2, -1), _b(3)],
        ["P[X12+]", "P[X12-]", "P[3]"],
        [Leaf(identified="1_X12+"), Leaf(identified="1_X12-"), Leaf(identified="1_X3")],
    )
    col1 = resolve(
        0,
        [_sup(2, 3, 1), _sup(2, 3, -1)],
        ["P[xi23+]", "P[xi23-]"],
        [Leaf(identified="xi23+_1"), Leaf(identified="xi23-_1")],
    )
    row2 = resolve(
        1,
        [_sup(2, 3, 1), _sup(2, 3, -1)],
        ["P[X23+]", "P[X23-]"],
        [Leaf(identified="2_X23+"), Leaf(identified="2_X23-")],
    )
    tail_b = Measure(
        1,
        _meas(1, [_pidx(d, (2,)), _rest(d, [_pidx(d, (2,))])], ["P[2]", "I-P[2]"]),
        [Leaf(identified="xi3_2"), Leaf(identified="xi3_X3")],
    )
    a23 = Measure(0, _meas(0, [_pidx(d, (2,)), _rest(d, [_pidx(d, (2,))])], ["P[2]", "I-P[2]"]), [row2, tail_b])
    b23 = Measure(1, _meas(1, [_pidx(d, (1,)), _rest(d, [_pidx(d, (1,))])], ["P[1]", "I-P[1]"]), [col1, a23])
    a123 = Measure(0, _meas(0, [_pidx(d, (1,)), _rest(d, [_pidx(d, (1,))])], ["P[1]", "I-P[1]"]), [row1, b23])
    b123 = Measure(1, pb, [col0, a123])
    return Measure(0, pa, [b0, b123])


def _s4_abc_activation_tree():
    # on merge_parties(s4, {A},{B,C}): party 0 is A (dim 6), party 1 is BC (dim 12)
    i6 = np.eye(6, dtype=np.complex128)
    i2 = np.eye(2, dtype=np.complex128)
    c0 = np.kron(i6, _pidx(2, (0,)))
    c1 = np.kron(i6, _pidx(2, (1,)))
    kb0 = np.kron(_pidx(6, (0, 1, 2)), i2)
    kb1 = np.kron(_pidx(6, (3, 4, 5)), i2)
    ka = _half_split(0, 6, (0, 1, 2), (3, 4, 5))
    mc = _meas(1, [c0, c1], ["I6xP[c=0]", "I6xP[c=1]"])
    mkb = _meas(1, [kb0, kb1], ["P[B012]xI2", "P[B345]xI2"])

    def branch():
        return Measure(1, mkb, [Measure(0, ka, [Leaf(), Leaf()]), Measure(0, ka, [Leaf(), Leaf()])])

    return Measure(1, mc, [branch(), branch()])


_BUILTIN_TREES = {
    "s3_discrimination": _s3_discrimination_tree,
    "s3_activation": _s3_activation_tree,
    "s1_recursion": _s1_recursion_tree,
    "s4_abc_activation": _s4_abc_activation_tree,
}
BUILTIN_PROTOCOLS = tuple(_BUILTIN_TREES)


def builtin_protocol(name: str):
    if name not in _BUILTIN_TREES:
        raise ValueError(f"unknown builtin protocol {name!r}")
    return _BUILTIN_TREES[name]()
