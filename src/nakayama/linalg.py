"""Exact sparse linear algebra over the rationals, for chain complexes.

A linear map is a list of sparse columns: column j is a dict {row: entry}
holding the nonzero integer entries of the image of basis vector j, where a
row is a position in the target's basis or, in `chain_ranks`, a face's
bitmask.  The boundary maps of both complexes in this package have entries
in {0, ±1} and a handful of nonzeros per column, so a column stays small
while it is reduced.  Every entry is a Python int; there is no floating
point anywhere.

Both complexes hand this module their cells, level by level, as bitmasks.
`chain_ranks` ranks all their boundary maps in one pass that builds only
the columns it reads; `boundary_maps` builds the whole maps, for the
relation complex's d∘d = 0 check.  One helper, `_column`, holds the face
and sign rule for both.
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


def _column(
    bits: int, cell: tuple[int, ...], signs: list[int], lower: dict[int, tuple[int, ...]], relative: bool
) -> Column:
    """The boundary of one cell, with rows keyed by the faces' bitmasks: the
    face and sign rule both builders share.

    Face j of a cell drops its j-th element v, so it is the cell of `lower`
    under the bitmask with bit v cleared, and its entry is signs[j].  A
    simplicial complex holds every face of its simplices, so a missing face
    raises KeyError.  A `relative` complex is C(Δ, K) for the full simplex Δ
    and a subcomplex K of non-cells: a face in K is zero and is skipped.
    """
    col: Column = {}
    for v, s in zip(cell, signs):
        face = bits ^ 1 << v
        if face in lower:
            col[face] = s
        elif not relative:
            raise KeyError(f"face {face:#b} of cell {bits:#b} is not a cell")
    return col


def boundary_maps(
    levels: Sequence[dict[int, tuple[int, ...]]], sign: int, relative: bool = False
) -> list[SparseMap]:
    """The boundary maps between consecutive levels of cells: entry p-1 maps
    level p to level p-1, for p = 1..len(levels)-1, with rows numbering the
    (p-1)-cells in the order of their level.

    Level p maps each p-cell's bitmask to its sorted tuple of elements,
    element v having bit 1 << v.  A column is `_column` of its cell with
    the face bitmasks replaced by their positions; its signs are
    face_signs(p, sign).
    """
    maps = []
    for p in range(1, len(levels)):
        lower = levels[p - 1]
        row_of = {bits: i for i, bits in enumerate(lower)}
        signs = face_signs(p, sign)
        maps.append([
            {row_of[face]: s for face, s in _column(bits, cell, signs, lower, relative).items()}
            for bits, cell in levels[p].items()
        ])
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


def chain_ranks(
    levels: Sequence[dict[int, tuple[int, ...]]], sign: int, relative: bool = False
) -> list[int]:
    """Ranks of the boundary maps of a complex given by its cells, as
    `boundary_maps` would build them: entry p-1 is the rank of d_p, for
    p = 1..len(levels)-1.  One top-down pass, with clearing (Chen and
    Kerber, "Persistent homology computation with a twist", 2011).

    Once d_{p+1} is reduced, a pivot row of it is the lowest entry of a
    vector v in its image, and d_p(v) = 0 writes that row's column of d_p
    as a combination of the columns of lower rows.  So that column adds
    nothing to the rank of d_p, and it is never built.  A column's rows are
    keyed by its faces' bitmasks, so the pivot rows of d_{p+1} are, as they
    stand, the bitmasks of the cells of degree p to skip.
    """
    ranks = [0] * (len(levels) - 1)
    cleared: set[int] = set()
    for p in reversed(range(1, len(levels))):
        lower, signs = levels[p - 1], face_signs(p, sign)
        columns = [
            _column(bits, cell, signs, lower, relative)
            for bits, cell in levels[p].items()
            if bits not in cleared
        ]
        cleared = set()
        ranks[p - 1] = rank(columns, cleared)
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
