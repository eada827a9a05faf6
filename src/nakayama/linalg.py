"""Exact sparse linear algebra over the rationals, for chain complexes.

A linear map is a list of sparse columns: column j is a dict {row: entry}
holding the nonzero integer entries of the image of basis vector j, where
a row is a face's bitmask.  The boundary maps of both complexes in this
package have entries in {0, ±1} and a handful of nonzeros per column, so a
column stays small while it is reduced.  Every entry is a Python int;
there is no floating point anywhere.

Both complexes are relative: each hands this module its cells, level by
level, as bitmasks, and a face that is not a cell lies in the subcomplex
and is zero.  The cyclic complex hands over only its critical cells,
which span a subcomplex with the same homology.  `chain_ranks` ranks all
their boundary maps in one pass that builds only the columns it reads.
One helper, `_column`, holds the face rule, `face_signs` the sign rule,
and `signs_alternate` is the part of both d∘d = 0 certificates that rests
on that sign rule.
"""

from __future__ import annotations

from functools import cache
from math import gcd
from typing import Callable, Sequence

Column = dict[int, int]


def alternating_sum(values: Sequence[int]) -> int:
    """values[0] - values[1] + values[2] - ...: the Euler characteristic of
    a complex whose cell counts, or homology dimensions, these are."""
    return sum(values[::2]) - sum(values[1::2])


def face_signs(p: int, sign: int) -> list[int]:
    """The sign rule both complexes share: face j of a p-cell enters the
    boundary with `sign` * (-1)^j, for j = 0..p."""
    return [-sign if j % 2 else sign for j in range(p + 1)]


def signs_alternate(top: int, sign: int) -> bool:
    """Does face_signs(p, sign) alternate in j for every p = 1..top?  Then
    the boundary is the simplicial one, whose square is zero on any
    down-closed family of simplices.  The answer depends only on the rule
    `face_signs` and on (top, sign), so it is kept per rule, top and sign,
    and a sweep checks each once; MAX_SUBSETS bounds top, so few are kept."""
    return _signs_alternate(face_signs, top, sign)


@cache
def _signs_alternate(rule: Callable[[int, int], list[int]], top: int, sign: int) -> bool:
    for p in range(1, top + 1):
        signs = rule(p, sign)
        if any(signs[j] != -signs[j - 1] for j in range(1, p + 1)):
            return False
    return True


def _column(bits: int, cell: tuple[int, ...], signs: list[int], lower: dict[int, tuple[int, ...]]) -> Column:
    """The boundary of one cell, with rows keyed by the faces' bitmasks.

    Face j of a cell drops its j-th element v, so it is the cell of `lower`
    under the bitmask with bit v cleared, and its entry is signs[j].  The
    complex is C(X, K) for a subcomplex K of a simplicial complex X, and a
    face in K is not a cell of `lower`: it is zero and is skipped.
    """
    col: Column = {}
    for v, s in zip(cell, signs):
        face = bits ^ 1 << v
        if face in lower:
            col[face] = s
    return col


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


def chain_ranks(levels: Sequence[dict[int, tuple[int, ...]]], sign: int) -> list[int]:
    """Ranks of the boundary maps of a relative complex given by its cells,
    with the faces and signs of `_column`: entry p-1 is the rank of d_p, for
    p = 1..len(levels)-1.  One top-down pass, with clearing (Chen and
    Kerber, "Persistent homology computation with a twist", 2011).

    Once d_{p+1} is reduced, a pivot row of it is the lowest entry of a
    vector v in its image, and d_p(v) = 0 writes that row's column of d_p
    as a combination of the columns of lower rows.  So that column adds
    nothing to the rank of d_p, and it is never built.  A column's rows are
    keyed by its faces' bitmasks, so the pivot rows of d_{p+1} are, as they
    stand, the bitmasks of the cells of degree p to skip.  A degree with
    no cell has rank 0 and no column, so it is skipped.
    """
    ranks = [0] * (len(levels) - 1)
    cleared: set[int] = set()
    for p in reversed(range(1, len(levels))):
        if not levels[p]:
            cleared = set()
            continue
        lower, signs = levels[p - 1], face_signs(p, sign)
        columns = [
            _column(bits, cell, signs, lower)
            for bits, cell in levels[p].items()
            if bits not in cleared
        ]
        cleared = set()
        ranks[p - 1] = rank(columns, cleared)
    return ranks
