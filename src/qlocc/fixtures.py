"""Built-in state sets: the layered two-qudit tilings s1/s5, the tripartite
sets s2/s4, the 6x6 pair s3/s6, the 3x3 tiles UPB, and the even-d
generalization of s1.

Each set ships in two variants. `corrected` fixes printed party-subscript
typos and (for s6) one misplaced column so the set is pairwise orthogonal;
`verbatim` reproduces the printed listing read positionally (first ket =
party A, second = party B). `fixture_corrections` documents every edit.
"""

from __future__ import annotations

import numpy as np

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
