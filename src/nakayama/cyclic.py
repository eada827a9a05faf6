"""Degree-n part of the cyclic chain complex of the radical.

A degree-n chain in homological degree p is a cycle of p+1 composable
radical morphisms between indecomposable projectives whose degrees add up
to n.  Such a cycle is determined by its stations: the p+1 distinct quiver
vertices where the morphisms start, travelling forward around the cycle
exactly once.  The gap g_t from station w_t to the next station is the
length of the connecting path, and the chain is nonzero iff every such
path survives in the algebra: g_t < c_{w_t}.

Because the stations are distinct, the rotation action of Z_{p+1} (with
sign (-1)^p on the generator) is free, so the quotient complex has the
station subsets as a basis.  Each face of the differential merges two
adjacent gaps; the merged morphism dies iff the merged path completes a
relation (g + g' >= c at the merge station).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import linalg
from .algebra import MAX_SUBSETS, NakayamaAlgebra, TooLargeError


@dataclass(frozen=True)
class MorphismCycle:
    """Canonical orbit representative: stations sorted, minimal one first."""

    stations: tuple[int, ...]
    gaps: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.stations) - 1


def _guard(algebra: NakayamaAlgebra) -> None:
    """The walk visits at most 2^n - 1 station subsets; refuse before it starts."""
    if 2 ** algebra.n - 1 > MAX_SUBSETS:
        raise TooLargeError(f"the cyclic basis would scan 2^{algebra.n} - 1 subsets, over {MAX_SUBSETS}")


def _walk(algebra: NakayamaAlgebra) -> list[list[MorphismCycle]]:
    """Every basis cycle, by degree, from one depth-first walk over the
    station tuples that can still be completed.

    From station w the walk steps only to w' <= min(n, w + c_w - 1), the
    stations the path from w reaches before it dies, and emits the tuple
    when its wrap gap n - w_p + w_0 also carries a path.  Pre-order with
    the steps taken in increasing order lists each degree lexicographically.
    """
    n, c = algebra.n, algebra.kupisch
    out: list[list[MorphismCycle]] = [[] for _ in range(n)]

    def visit(stations: tuple[int, ...], gaps: tuple[int, ...]) -> None:
        first, w = stations[0], stations[-1]
        wrap = n - w + first
        if wrap < c[w - 1]:
            out[len(gaps)].append(MorphismCycle(stations=stations, gaps=gaps + (wrap,)))
        for nxt in range(w + 1, min(n, w + c[w - 1] - 1) + 1):
            visit(stations + (nxt,), gaps + (nxt - w,))

    for first in range(1, n + 1):
        visit((first,), ())
    return out


def basis(algebra: NakayamaAlgebra, p: int) -> list[MorphismCycle]:
    """Orbit basis in degree p: one cycle per (p+1)-subset of vertices whose
    consecutive gaps all carry nonzero paths, in lexicographic order."""
    if not 0 <= p <= algebra.n - 1:
        raise ValueError(f"degree {p} outside 0..{algebra.n - 1}")
    _guard(algebra)
    return _walk(algebra)[p]


def canonicalize(stations: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Rotate a station tuple so its minimal entry comes first.

    Returns (canonical tuple, sign): the class of the input equals sign
    times the class of the canonical representative.  One left-rotation of
    a degree-q tuple costs a sign of (-1)^q, from the generator acting by
    t(f_0,...,f_q) = (-1)^q (f_1,...,f_q,f_0).
    """
    if len(set(stations)) != len(stations):
        raise AssertionError(f"stations must be distinct, got {stations}")
    q = len(stations) - 1
    k = stations.index(min(stations))
    canonical = stations[k:] + stations[:k]
    sign = -1 if (q * k) % 2 else 1
    return canonical, sign


def differential(
    algebra: NakayamaAlgebra, source: Sequence[MorphismCycle], index: dict[tuple[int, ...], int]
) -> linalg.SparseMap:
    """Sparse columns of the induced differential from degree p to degree
    p-1 on the orbit bases: one column per cycle of `source`, the degree-p
    basis, with rows numbered by `index`, the position of each degree-(p-1)
    basis cycle.

    Face i < p composes the morphisms at stations w_i, w_{i+1}, dropping
    w_{i+1}; it keeps the stations sorted with w_0 first, so it is already
    canonical.  The last face composes around the wrap, dropping w_0 and
    leaving a tuple that starts at w_p, so it picks up one rotation sign on
    top of its (-1)^p face sign.  Distinct faces drop distinct stations, so
    no two of them land on the same row.
    """
    if not source or source[0].degree == 0:
        return [{} for _ in source]  # degree 0 maps to the zero space
    c = algebra.kupisch
    columns = []
    for cycle in source:
        w, g, p = cycle.stations, cycle.gaps, cycle.degree
        col: linalg.Column = {}
        for i in range(p):
            if g[i] + g[i + 1] < c[w[i] - 1]:  # else the composed path completes a relation
                col[index[w[: i + 1] + w[i + 2:]]] = -1 if i % 2 else 1
        if g[p] + g[0] < c[w[p] - 1]:
            canonical, rot_sign = canonicalize((w[p],) + w[1:p])
            col[index[canonical]] = -rot_sign if p % 2 else rot_sign
        columns.append(col)
    return columns


@dataclass(frozen=True)
class CyclicComplex:
    n: int
    bases: tuple[tuple[MorphismCycle, ...], ...]
    # differentials[p] maps degree p to degree p-1, as sparse columns
    # indexed by bases[p]; differentials[0] is the zero map
    differentials: tuple[linalg.SparseMap, ...]

    @property
    def basis_sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.bases)


def build_cyclic_complex(algebra: NakayamaAlgebra) -> CyclicComplex:
    """Build every degree's basis in one walk and each index once; every
    differential is derived from the two bases it connects."""
    _guard(algebra)
    bases = tuple(tuple(degree) for degree in _walk(algebra))
    diffs = []
    index: dict[tuple[int, ...], int] = {}
    for source in bases:
        diffs.append(differential(algebra, source, index))
        index = {cycle.stations: i for i, cycle in enumerate(source)}
    return CyclicComplex(n=algebra.n, bases=bases, differentials=tuple(diffs))


def differential_squares_to_zero(cc: CyclicComplex) -> bool:
    return linalg.squares_to_zero(cc.differentials)


def hc_dimensions(algebra: NakayamaAlgebra, cc: CyclicComplex | None = None) -> tuple[int, ...]:
    """dim HC_p of the degree-n slice for p = 0..n-1, over the rationals."""
    if cc is None:
        cc = build_cyclic_complex(algebra)
    sizes = cc.basis_sizes
    ranks = linalg.chain_ranks(cc.differentials) + [0]
    return tuple(sizes[p] - ranks[p] - ranks[p + 1] for p in range(cc.n))


def hc_euler(dims: Sequence[int]) -> int:
    """Alternating sum of the HC dimensions from `hc_dimensions`."""
    return sum((-1) ** p * d for p, d in enumerate(dims))


def report(algebra: NakayamaAlgebra) -> dict:
    cc = build_cyclic_complex(algebra)
    dims = hc_dimensions(algebra, cc)
    return {
        "hc_dims": list(dims),
        "hc_euler": hc_euler(dims),
        "basis_sizes": list(cc.basis_sizes),
    }
