"""Degree-n part of the cyclic chain complex of the radical.

A degree-n chain in homological degree p is a cycle of p+1 composable
radical morphisms between indecomposable projectives whose degrees add up
to n.  Such a cycle is determined by its stations: the p+1 distinct quiver
vertices where the morphisms start, travelling forward around the cycle
exactly once.  The gap from station w_t to the next station is the length
of the connecting path, and the chain is nonzero iff every such path
survives in the algebra: the gap is below c_{w_t}.

Because the stations are distinct, the rotation action of Z_{p+1} (with
sign (-1)^p on the generator) is free, so the quotient complex has one
basis cell per station set, written as its sorted tuple w_0 < ... < w_p.

One rule gives every face of the differential.  Face j drops w_j: it
merges the paths into and out of w_j (indices mod p+1), and it is nonzero
iff the merged path from w_{j-1} to w_{j+1} is shorter than c_{w_{j-1}}.
Its entry is -(-1)^j.  Face 0 is the one that wraps around the cycle;
dropping w_0 leaves a sorted tuple, and its rotation sign (-1)^(p-1)
times its face sign (-1)^p is always -1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import linalg
from .algebra import MAX_SUBSETS, NakayamaAlgebra, TooLargeError


def _walk(algebra: NakayamaAlgebra) -> list[list[tuple[int, ...]]]:
    """Every basis cell, by degree, from one depth-first walk over the
    station tuples that can still be completed.

    From station w the walk steps only to w' <= min(n, w + c_w - 1), the
    stations the path from w reaches before it dies, and emits the tuple
    when its wrap gap n - w_p + w_0 also carries a path.  Pre-order with
    the steps taken in increasing order lists each degree lexicographically.
    """
    n, c = algebra.n, algebra.kupisch
    out: list[list[tuple[int, ...]]] = [[] for _ in range(n)]

    def visit(stations: tuple[int, ...]) -> None:
        w = stations[-1]
        if n - w + stations[0] < c[w - 1]:
            out[len(stations) - 1].append(stations)
        for nxt in range(w + 1, min(n, w + c[w - 1] - 1) + 1):
            visit(stations + (nxt,))

    for first in range(1, n + 1):
        visit((first,))
    return out


def differential(
    algebra: NakayamaAlgebra, source: Sequence[tuple[int, ...]], index: dict[tuple[int, ...], int]
) -> linalg.SparseMap:
    """Sparse columns of the induced differential from degree p to degree
    p-1: one column per station tuple of `source`, the degree-p basis, with
    rows numbered by `index`, the position of each degree-(p-1) tuple.

    Face j drops w_j and survives iff the merged path from w_{j-1} to
    w_{j+1} (indices mod p+1), of length (w_{j+1} - w_{j-1} - 1) mod n + 1,
    which is n when p = 1, is shorter than c_{w_{j-1}}.  For j >= 1 its
    entry -(-1)^j is the face sign (-1)^(j-1) of the composition at
    w_{j-1}.  Distinct faces drop distinct stations, so no two of them land
    on the same row.
    """
    if not source or len(source[0]) == 1:
        return [{} for _ in source]  # degree 0 maps to the zero space
    n, c = algebra.n, algebra.kupisch
    columns = []
    for w in source:
        size = len(w)
        col: linalg.Column = {}
        for j in range(size):
            before = w[j - 1]
            if (w[(j + 1) % size] - before - 1) % n + 1 < c[before - 1]:
                col[index[w[:j] + w[j + 1:]]] = 1 if j % 2 else -1
        columns.append(col)
    return columns


@dataclass(frozen=True)
class CyclicComplex:
    n: int
    bases: tuple[tuple[tuple[int, ...], ...], ...]
    # differentials[p] maps degree p to degree p-1, as sparse columns
    # indexed by bases[p]; differentials[0] is the zero map
    differentials: tuple[linalg.SparseMap, ...]

    @property
    def basis_sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.bases)


def build_cyclic_complex(algebra: NakayamaAlgebra) -> CyclicComplex:
    """Build every degree's basis in one walk and each index once; every
    differential is derived from the two bases it connects."""
    # the walk visits at most 2^n - 1 station subsets; refuse before it starts
    if 2 ** algebra.n - 1 > MAX_SUBSETS:
        raise TooLargeError(f"the cyclic basis would scan 2^{algebra.n} - 1 subsets, over {MAX_SUBSETS}")
    bases = tuple(tuple(degree) for degree in _walk(algebra))
    diffs = []
    index: dict[tuple[int, ...], int] = {}
    for source in bases:
        diffs.append(differential(algebra, source, index))
        index = {stations: i for i, stations in enumerate(source)}
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
