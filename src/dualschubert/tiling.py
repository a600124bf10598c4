"""
Staircase diagrams and corner-anchored rectangle tilings.

The rank-n staircase has n-1 rows; row i (1-based, top to bottom) holds
n-i unit cells, and its cells are labeled left to right by the position
pairs (i, n), (i, n-1), ..., (i, i+1).  The diagram of a permutation w puts
a 1 in exactly the cells whose label is an inversion of w.

The staircase has one outer corner per row: the rightmost cell (k, n-k) of
row k.  A corner-anchored tiling partitions the cells into n-1 axis-aligned
rectangles, the k-th having its bottom-right cell at corner k.  Reading off,
top to bottom, the number of filled cells inside each rectangle gives an
integer vector; over all tilings these vectors are exactly the candidate
Newton-polytope vertices explored elsewhere.

Every tiling is produced exactly once by a split recursion: within a
contiguous block of corners the rectangle covering the block's top-left
cell must span columns out to some corner m's width, which detaches the
corners above m (shifted right) from those below (same left wall).  The
tiling count for rank n is therefore a Catalan number: 1, 2, 5, 14, 42
for n = 2..6; tests pin these against a brute-force partition search.

Vertices are read on bitmasks.  Each process enumerates a rank's tilings
once and keeps every rectangle's cells as one int (`_tilings`); w's filled
cells are one int too, so a rectangle's count is the popcount of the two
masked together.  `tiling_vertex` sums the cells of a diagram one by one;
`render_tiling` uses it, and tests check the bitmask route against it for
every tiling of every w of ranks 2..6.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from .perm import Perm, PositionPair, _Value, format_perm, inversions, validate

Rect = tuple[int, int, int, int]  # (top, left, bottom, right), all 1-based


class StaircaseDiagram(_Value):
    """Staircase of rank n with a 0/1 fill per cell."""

    __slots__ = ("n", "fill")

    def __init__(self, n: int, fill: tuple[tuple[int, ...], ...]) -> None:
        super().__init__(n, fill)
        if n < 2:
            raise ValueError(f"staircase needs rank >= 2, got {n}")
        if len(fill) != n - 1 or any(
            len(row) != n - i for i, row in enumerate(fill, start=1)
        ):
            raise ValueError("fill shape does not match the staircase")
        if any(v not in (0, 1) for row in fill for v in row):
            raise ValueError("fill values must be 0 or 1")

    def label(self, i: int, j: int) -> PositionPair:
        """Label of the cell in row i, column j (both 1-based)."""
        if not (1 <= i <= self.n - 1 and 1 <= j <= self.n - i):
            raise ValueError(f"no cell at row {i}, column {j}")
        return (i, self.n + 1 - j)

    def ones(self) -> int:
        return sum(sum(row) for row in self.fill)


class RectTiling(_Value):
    """A corner-anchored rectangle tiling; rects[k-1] is anchored at corner k."""

    __slots__ = ("n", "rects")

    def __init__(self, n: int, rects: tuple[Rect, ...]) -> None:
        super().__init__(n, rects)
        if n < 2:
            raise ValueError(f"staircase needs rank >= 2, got {n}")
        if len(rects) != n - 1:
            raise ValueError(f"need exactly {n - 1} rectangles")
        covered: set[tuple[int, int]] = set()
        for k, (top, left, bottom, right) in enumerate(rects, start=1):
            if (bottom, right) != (k, n - k):
                raise ValueError(
                    f"rectangle {k} must have bottom-right cell ({k}, {n - k})"
                )
            if not (1 <= top <= bottom and 1 <= left <= right):
                raise ValueError(f"rectangle {k} is empty or out of range")
            cells = {
                (i, j)
                for i in range(top, bottom + 1)
                for j in range(left, right + 1)
            }
            if covered & cells:
                raise ValueError(f"rectangle {k} overlaps an earlier one")
            covered |= cells
        if len(covered) != n * (n - 1) // 2:
            raise ValueError("rectangles do not cover the staircase")


def build_diagram(w: Perm) -> StaircaseDiagram:
    """Fill the staircase of rank len(w) from the inversions of w.

    >>> build_diagram((4, 2, 1, 3)).fill
    ((1, 1, 1), (0, 1), (0,))
    """
    w = validate(w)
    n = len(w)
    inv = inversions(w)
    fill = tuple(
        tuple(1 if (i, n + 1 - j) in inv else 0 for j in range(1, n - i + 1))
        for i in range(1, n)
    )
    return StaircaseDiagram(n, fill)


def enumerate_tilings(n: int) -> Iterator[RectTiling]:
    """All corner-anchored tilings of the rank-n staircase, each exactly once.

    A block of consecutive corners lo..hi sharing a left wall is solved by
    choosing which corner m's rectangle covers the block's top-left cell;
    that rectangle is forced to rows lo..m and columns wall..(n-m), leaving
    two independent sub-blocks.
    """
    if n < 2:
        raise ValueError(f"staircase needs rank >= 2, got {n}")

    def blocks(lo: int, hi: int, wall: int) -> Iterator[tuple[Rect, ...]]:
        if lo > hi:
            yield ()
            return
        for m in range(lo, hi + 1):
            rect = (lo, wall, m, n - m)
            for above in blocks(lo, m - 1, n - m + 1):
                for below in blocks(m + 1, hi, wall):
                    yield above + (rect,) + below

    for rects in blocks(1, n - 1, 1):
        yield RectTiling(n, rects)


def tiling_vertex(d: StaircaseDiagram, t: RectTiling) -> tuple[int, ...]:
    """Filled-cell count of each rectangle, in corner order (top to bottom)."""
    if d.n != t.n:
        raise ValueError(f"rank mismatch: diagram {d.n} vs tiling {t.n}")
    out = []
    for top, left, bottom, right in t.rects:
        out.append(
            sum(
                d.fill[i - 1][j - 1]
                for i in range(top, bottom + 1)
                for j in range(left, right + 1)
            )
        )
    return tuple(out)


def _cell_bit(n: int, i: int, j: int) -> int:
    """Cell (i, j) of the rank-n staircase as a one-bit mask: bit (i-1)n + j-1."""
    return 1 << (i - 1) * n + j - 1


@lru_cache(maxsize=None)
def _tilings(n: int) -> tuple[tuple[RectTiling, tuple[int, ...]], ...]:
    """Every rank-n tiling in enumeration order, with each rectangle's cells
    as one bitmask (`_cell_bit`); enumerated and validated once per rank."""
    return tuple(
        (t, tuple(
            sum(_cell_bit(n, i, j) for i in range(top, bottom + 1)
                for j in range(left, right + 1))
            for top, left, bottom, right in t.rects
        ))
        for t in enumerate_tilings(n)
    )


def tiling_vertex_list(w: Perm) -> list[tuple[RectTiling, tuple[int, ...]]]:
    """Every tiling with its vertex vector, in enumeration order.

    The filled cells of w's diagram are one bitmask, inversion (a, b) at
    cell (a, n+1-b) as in `build_diagram`, so a rectangle's count is the
    popcount of its cells masked by it; `tiling_vertex` is the cell-by-cell
    route.
    """
    w = validate(w)
    n = len(w)
    filled = sum(_cell_bit(n, a, n + 1 - b) for a, b in inversions(w))
    return [
        (t, tuple((filled & rect).bit_count() for rect in rects))
        for t, rects in _tilings(n)
    ]


def vertices_via_tilings(w: Perm) -> frozenset[tuple[int, ...]]:
    """Distinct vertex vectors over all tilings.

    Rank 1 has an empty staircase; the zero vector of width 0 is returned.
    """
    w = validate(w)
    if len(w) == 1:
        return frozenset({()})
    return frozenset(v for _, v in tiling_vertex_list(w))


def tilings_json_dict(w: Perm) -> dict:
    w = validate(w)
    return {
        "w": format_perm(w),
        "tilings": [
            {"rects": [list(r) for r in t.rects], "vertex": list(v)}
            for t, v in tiling_vertex_list(w)
        ],
    }


# -- ASCII rendering ----------------------------------------------------------


def _render_grid(d: StaircaseDiagram, owner, sums: list[int] | None) -> str:
    """Draw the staircase; edges appear wherever neighboring cells have
    different owners (or no neighbor).  `owner(i, j)` keys the regions."""
    n = d.n
    width = 4 * (n - 1) + 1 + 8
    grid = [[" "] * width for _ in range(2 * (n - 1) + 1)]

    def cell_exists(i: int, j: int) -> bool:
        return 1 <= i <= n - 1 and 1 <= j <= n - i

    for i in range(1, n):
        for j in range(1, n - i + 1):
            r, c = 2 * i - 1, 4 * (j - 1)
            grid[r][c + 2] = str(d.fill[i - 1][j - 1])
            if i == 1 or owner(i - 1, j) != owner(i, j):
                for x in range(1, 4):
                    grid[r - 1][c + x] = "-"
            if not cell_exists(i + 1, j) or owner(i + 1, j) != owner(i, j):
                for x in range(1, 4):
                    grid[r + 1][c + x] = "-"
            if j == 1 or owner(i, j - 1) != owner(i, j):
                grid[r][c] = "|"
            if not cell_exists(i, j + 1) or owner(i, j + 1) != owner(i, j):
                grid[r][c + 4] = "|"
    for r in range(0, 2 * (n - 1) + 1, 2):
        for c in range(0, 4 * (n - 1) + 1, 4):
            near_h = (c + 1 < width and grid[r][c + 1] == "-") or (
                c - 1 >= 0 and grid[r][c - 1] == "-"
            )
            near_v = (r + 1 < len(grid) and grid[r + 1][c] == "|") or (
                r - 1 >= 0 and grid[r - 1][c] == "|"
            )
            if near_h or near_v:
                grid[r][c] = "+"
    if sums is not None:
        for k in range(1, n):
            text = str(sums[k - 1])
            c = 4 * (n - k) + 2
            for off, ch in enumerate(text):
                grid[2 * k][c + off] = ch
    return "\n".join("".join(row).rstrip() for row in grid)


def render_diagram(d: StaircaseDiagram) -> str:
    """Plain grid of the fills, every cell bordered."""
    return _render_grid(d, lambda i, j: (i, j), None)


def render_tiling(d: StaircaseDiagram, t: RectTiling) -> str:
    """Rectangles drawn as borders, fills inside, corner sums at the anchors."""
    owner_of: dict[tuple[int, int], int] = {}
    for k, (top, left, bottom, right) in enumerate(t.rects, start=1):
        for i in range(top, bottom + 1):
            for j in range(left, right + 1):
                owner_of[(i, j)] = k
    sums = list(tiling_vertex(d, t))
    return _render_grid(d, lambda i, j: owner_of[(i, j)], sums)
