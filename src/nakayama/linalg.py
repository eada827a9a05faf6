"""Exact sparse linear algebra over the rationals, for chain complexes.

A linear map is a list of sparse columns: column j is a dict {row: entry}
holding the nonzero integer entries of the image of basis vector j.  The
boundary maps of both complexes in this package have entries in {0, ±1} and
a handful of nonzeros per column, so a column stays small while it is
reduced.  Every entry is a Python int; there is no floating point anywhere.

Both complexes are built by `boundary_maps`, from cells given as bitmasks.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence

Column = dict[int, int]
SparseMap = list[Column]


def alternating_sum(values: Sequence[int]) -> int:
    """values[0] - values[1] + values[2] - ...: the Euler characteristic of
    a complex whose cell counts, or homology dimensions, these are."""
    return sum(values[::2]) - sum(values[1::2])


def face_signs(p: int, sign: int) -> list[int]:
    """The sign rule both complexes share: face j of a p-cell enters the
    boundary with `sign` * (-1)^j, for j = 0..p."""
    return [-sign if j % 2 else sign for j in range(p + 1)]


def boundary_maps(
    levels: Sequence[dict[int, tuple[int, ...]]], sign: int, relative: bool = False
) -> list[SparseMap]:
    """The boundary maps between consecutive levels of cells: entry p-1 maps
    level p to level p-1, for p = 1..len(levels)-1.

    Level p maps each p-cell's bitmask to its sorted tuple of elements,
    element v having bit 1 << v.  Face j of a cell drops its j-th element
    v, so its row is the position, in level p-1, of the cell's bitmask
    with bit v cleared; its entry is face_signs(p, sign)[j].  A simplicial
    complex holds every face of its simplices, so a missing face raises
    KeyError.  A `relative` complex is C(Δ, K) for the full simplex Δ and
    a subcomplex K of non-cells: a face in K is zero and is skipped.
    """
    maps = []
    for p in range(1, len(levels)):
        row_of = {bits: i for i, bits in enumerate(levels[p - 1])}.get
        signs = face_signs(p, sign)
        columns: SparseMap = []
        for bits, cell in levels[p].items():
            col: Column = {}
            for v, s in zip(cell, signs):
                row = row_of(bits ^ 1 << v)
                if row is not None:
                    col[row] = s
                elif not relative:
                    raise KeyError(f"face {bits ^ 1 << v:#b} of cell {bits:#b} is not a cell")
            columns.append(col)
        maps.append(columns)
    return maps


def rank(columns: Sequence[Column], pivot_rows: set[int] | None = None) -> int:
    """Rank over the rationals, by low-pivot column reduction.

    Columns are reduced left to right: while the lowest (largest) row of a
    column is the pivot row of an earlier column, that pivot eliminates it.
    A unit pivot eliminates directly.  Any other pivot a meets the column's
    entry b by the fraction-free update col <- a*col - b*piv, after which
    the column is divided by the gcd of its entries; the column only ever
    changes by a nonzero multiple plus multiples of earlier columns, so the
    rank stays exact.  A column that keeps a nonzero entry claims its
    lowest row as a new pivot.  The input columns are not modified.

    If `pivot_rows` is given, the pivot rows are added to it.
    """
    pivots: dict[int, Column] = {}
    for col in columns:
        owned = False
        while col:
            low = max(col)
            piv = pivots.get(low)
            if piv is None:
                pivots[low] = col
                break
            if not owned:
                col, owned = dict(col), True
            a, b = piv[low], col[low]
            unit = a == 1 or a == -1
            if unit:
                f = a * b  # col - (b / a) * piv, as 1 / a == a
            else:
                g = gcd(a, b)
                a, f = a // g, b // g
                for row in col:
                    col[row] *= a
            for row, x in piv.items():
                value = col.get(row, 0) - f * x
                if value:
                    col[row] = value
                else:
                    del col[row]
            if not unit and col:
                g = gcd(*col.values())
                if g > 1:
                    for row in col:
                        col[row] //= g
    if pivot_rows is not None:
        pivot_rows.update(pivots)
    return len(pivots)


def chain_ranks(maps: Sequence[Sequence[Column]]) -> list[int]:
    """Ranks of all maps of a chain complex in one top-down pass.

    The rows of maps[i+1] index the columns of maps[i], and maps[i] after
    maps[i+1] must be zero.  Maps are reduced from the top down, with
    clearing (Chen and Kerber, "Persistent homology computation with a
    twist", 2011): once maps[i+1] is reduced, a pivot row j of it is the
    lowest entry of a vector v in its image, and maps[i](v) = 0 writes
    column j of maps[i] as a combination of the columns before it.  So
    column j adds nothing to the rank of maps[i] and is skipped.
    """
    ranks = [0] * len(maps)
    cleared: set[int] = set()
    for i in reversed(range(len(maps))):
        kept = [col for j, col in enumerate(maps[i]) if j not in cleared]
        cleared = set()
        ranks[i] = rank(kept, cleared)
    return ranks


def compose(outer: Sequence[Column], inner: Sequence[Column]) -> SparseMap:
    """Columns of the composite `outer` after `inner`, zero entries dropped.

    The rows of `inner` index the columns of `outer`; a row outside them is
    a shape mismatch and raises ValueError."""
    width = len(outer)
    out = []
    for col in inner:
        acc: Column = {}
        for k, y in col.items():
            if not 0 <= k < width:
                raise ValueError(f"row {k} of the inner map is not one of the {width} outer columns")
            for row, x in outer[k].items():
                acc[row] = acc.get(row, 0) + x * y
        out.append({row: v for row, v in acc.items() if v})
    return out


def squares_to_zero(maps: Sequence[Sequence[Column]]) -> bool:
    """Is maps[i] after maps[i+1] zero for every i?  Checked column by
    column on the sparse form."""
    return all(
        not any(compose(maps[i], maps[i + 1])) for i in range(len(maps) - 1)
    )
