"""Domino-tiling diagrams for bipartite sets whose states occupy contiguous
index rectangles (ascii and svg). Rank-2 states render as two linked
rectangles; tile colors hash the tile's support so recoloring is stable
across runs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .linalg import INDEX_TOL, RANK_RTOL
from .states import StateSet, party_matrices


@dataclass
class Tile:
    a_lo: int
    a_hi: int
    b_lo: int
    b_hi: int
    members: list[str] = field(default_factory=list)

    @property
    def kind(self) -> str:
        ha, hb = self.a_hi - self.a_lo + 1, self.b_hi - self.b_lo + 1
        if ha == 1 and hb == 1:
            return "square"
        if (ha, hb) in ((1, 2), (2, 1)):
            return "domino"
        return "larger"

    def cells(self):
        for a in range(self.a_lo, self.a_hi + 1):
            for b in range(self.b_lo, self.b_hi + 1):
                yield a, b

    def range_key(self):
        return (self.a_lo, self.a_hi, self.b_lo, self.b_hi)


@dataclass
class TileDiagram:
    dims: tuple[int, int]
    tiles: list[Tile]
    links: list[tuple[str, list[int]]]  # rank-2 states -> their tile indices


def _runs(indices):
    """Maximal runs of consecutive integers in a sorted index list."""
    runs = []
    start = prev = indices[0]
    for i in indices[1:]:
        if i == prev + 1:
            prev = i
            continue
        runs.append((start, prev))
        start = prev = i
    runs.append((start, prev))
    return runs


def _rectangles_of(label: str, m: np.ndarray, allow_linked: bool):
    """Decompose a state's support into maximal contiguous rectangles.

    Splits along non-contiguous row runs, then column runs, recursively;
    every final block must be a fully supported rank-one rectangle.
    """
    mask = np.abs(m) > INDEX_TOL
    rects = []

    def split(rows, cols):
        sub = mask[np.ix_(rows, cols)]
        rs = [rows[i] for i in range(len(rows)) if sub[i].any()]
        cs = [cols[j] for j in range(len(cols)) if sub[:, j].any()]
        if not rs:
            return
        row_runs = _runs(rs)
        if len(row_runs) > 1:
            for lo, hi in row_runs:
                split(list(range(lo, hi + 1)), cs)
            return
        col_runs = _runs(cs)
        if len(col_runs) > 1:
            for lo, hi in col_runs:
                split(rs, list(range(lo, hi + 1)))
            return
        block = mask[np.ix_(rs, cs)]
        if not block.all():
            raise ValueError(f"state {label!r}: support does not fill its bounding rectangle")
        amps = m[np.ix_(rs, cs)]
        sv = np.linalg.svd(amps, compute_uv=False)
        if sv.size > 1 and sv[1] > RANK_RTOL * sv[0]:
            raise ValueError(f"state {label!r}: rectangle block is not rank one")
        rects.append((rs[0], rs[-1], cs[0], cs[-1]))

    split(list(range(m.shape[0])), list(range(m.shape[1])))
    if len(rects) > 1 and not allow_linked:
        raise ValueError(f"state {label!r}: local support is not a single contiguous rectangle")
    return sorted(rects)


def extract_tiles(s: StateSet, allow_linked: bool = False) -> TileDiagram:
    """Group states by their support rectangles.

    Strict mode refuses any state whose support is not one contiguous
    rectangle; linked mode decomposes rank-2 states into their (two or more)
    rank-one rectangles and records the linkage.
    """
    if s.space.n_parties != 2:
        raise ValueError("tiling diagrams are bipartite")
    da, db = s.space.party_dims
    by_range: dict[tuple, Tile] = {}
    links: list[tuple[str, list[int]]] = []
    order: list[tuple] = []
    pending_links: list[tuple[str, list[tuple]]] = []
    for label, m in zip(s.labels, party_matrices(s, 0)):
        rects = _rectangles_of(label, m, allow_linked)
        keys = []
        for r in rects:
            if r not in by_range:
                by_range[r] = Tile(*r)
                order.append(r)
            by_range[r].members.append(label)
            keys.append(r)
        if len(keys) > 1:
            pending_links.append((label, keys))
    order.sort()
    index = {r: i for i, r in enumerate(order)}
    tiles = [by_range[r] for r in order]
    for label, keys in pending_links:
        links.append((label, [index[r] for r in keys]))
    return TileDiagram((da, db), tiles, links)


def _tile_color(t: Tile) -> str:
    digest = hashlib.md5(repr(t.range_key()).encode()).digest()
    palette = (
        "#8dd3c7", "#ffffb3", "#bebada", "#fb8072", "#80b1d3", "#fdb462",
        "#b3de69", "#fccde5", "#d9d9d9", "#bc80bd", "#ccebc5", "#ffed6f",
    )
    return palette[digest[0] % len(palette)]


def render(s: StateSet, fmt: str = "ascii", overlay: tuple[int, list[int]] | None = None) -> str:
    """Deterministic ascii or svg tiling diagram.

    `overlay` is (party index, basis indices) and outlines one outcome of a
    two-outcome measurement, the way protocol figures outline a block split.
    """
    diagram = extract_tiles(s, allow_linked=True)
    if fmt == "ascii":
        return _render_ascii(s, diagram, overlay)
    if fmt == "svg":
        return _render_svg(s, diagram, overlay)
    raise ValueError(f"unknown format {fmt!r}")


def _render_ascii(s: StateSet, diagram: TileDiagram, overlay) -> str:
    da, db = diagram.dims
    owner = -np.ones(diagram.dims, dtype=int)
    for i, t in enumerate(diagram.tiles):
        for a, b in t.cells():
            owner[a, b] = i
    lines = [f"{s.name or 'set'}: {da}x{db}, {len(diagram.tiles)} tiles"]
    mark_cols = set()
    mark_rows = set()
    if overlay is not None:
        party, idx = overlay
        (mark_rows if party == 0 else mark_cols).update(idx)
    header = "A\\B |" + "".join(f" {b:>3}{'*' if b in mark_cols else ' '}" for b in range(db))
    lines.append(header)
    lines.append("-" * len(header))
    for a in range(da):
        cells = []
        for b in range(db):
            i = owner[a, b]
            cells.append(f" {('T' + str(i)) if i >= 0 else '.':>3} ")
        lines.append(f"{a:>2}{'*' if a in mark_rows else ' '} |" + "".join(cells))
    lines.append("tiles:")
    for i, t in enumerate(diagram.tiles):
        lines.append(f"  T{i}: A[{t.a_lo},{t.a_hi}] x B[{t.b_lo},{t.b_hi}] {t.kind}: " + ", ".join(t.members))
    if diagram.links:
        lines.append("links (rank-2 states):")
        for label, idxs in diagram.links:
            lines.append(f"  {label}: " + " + ".join(f"T{i}" for i in idxs))
    if overlay is not None:
        party, idx = overlay
        lines.append(f"overlay: party {'A' if party == 0 else 'B'} indices {{{','.join(map(str, sorted(idx)))}}}")
    return "\n".join(lines) + "\n"


def _render_svg(s: StateSet, diagram: TileDiagram, overlay) -> str:
    cell = 48
    pad = 36
    da, db = diagram.dims
    width = pad * 2 + db * cell
    height = pad * 2 + da * cell
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<title>{s.name or "state set"}</title>',
    ]
    for b in range(db):
        parts.append(
            f'<text class="axis" x="{pad + b * cell + cell // 2}" y="{pad - 8}" text-anchor="middle" font-size="12">{b}</text>'
        )
    for a in range(da):
        parts.append(
            f'<text class="axis" x="{pad - 10}" y="{pad + a * cell + cell // 2 + 4}" text-anchor="end" font-size="12">{a}</text>'
        )
    for i, t in enumerate(diagram.tiles):
        x = pad + t.b_lo * cell
        y = pad + t.a_lo * cell
        w = (t.b_hi - t.b_lo + 1) * cell
        h = (t.a_hi - t.a_lo + 1) * cell
        parts.append(
            f'<rect class="tile" x="{x}" y="{y}" width="{w}" height="{h}" fill="{_tile_color(t)}" '
            f'stroke="black" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text class="tile-label" x="{x + w / 2:g}" y="{y + h / 2 + 4:g}" text-anchor="middle" font-size="11">T{i}</text>'
        )
    for label, idxs in diagram.links:
        centers = []
        for i in idxs:
            t = diagram.tiles[i]
            centers.append(
                (
                    pad + (t.b_lo + t.b_hi + 1) * cell / 2,
                    pad + (t.a_lo + t.a_hi + 1) * cell / 2,
                )
            )
        for (x1, y1), (x2, y2) in zip(centers, centers[1:]):
            parts.append(
                f'<line class="link" x1="{x1:g}" y1="{y1:g}" x2="{x2:g}" y2="{y2:g}" '
                f'stroke="#333" stroke-width="1" stroke-dasharray="3,3"/>'
            )
    if overlay is not None:
        party, idx = overlay
        for lo, hi in _runs(sorted(idx)):
            if party == 0:
                x, y, w, h = pad, pad + lo * cell, db * cell, (hi - lo + 1) * cell
            else:
                x, y, w, h = pad + lo * cell, pad, (hi - lo + 1) * cell, da * cell
            parts.append(
                f'<rect class="overlay" x="{x}" y="{y}" width="{w}" height="{h}" fill="none" '
                f'stroke="#d62728" stroke-width="3" stroke-dasharray="6,4"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def overlay_from_kraus(kraus: np.ndarray) -> list[int]:
    """Basis indices supporting a (near-diagonal) projective outcome: the
    rows of norm above INDEX_TOL."""
    kraus = np.asarray(kraus)
    row_norms = np.linalg.norm(kraus, axis=1)
    return [i for i in range(kraus.shape[0]) if row_norms[i] > INDEX_TOL]
