"""Degree-n part of the cyclic chain complex of the radical.

A degree-n chain in homological degree p is a cycle of p+1 composable
radical morphisms between indecomposable projectives whose degrees add up
to n.  Such a cycle is determined by its stations: the p+1 distinct quiver
vertices where the morphisms start, travelling forward around the cycle
exactly once.  The gap from station w_t to the next station is the length
of the connecting path, and the chain is nonzero iff every such path
survives in the algebra: the gap is below c_{w_t}.  Equivalently, the
station set W meets the arc I_w = {w+1, ..., w+c_w-1} (mod n) of every
w in W.  The relation at i has interior I_i, and those interiors are the
vertices of the relation complex, so both sides of HCvsBetti are read off
one family of cyclic arcs.

Because the stations are distinct, the rotation action of Z_{p+1} (with
sign (-1)^p on the generator) is free, so the quotient complex has one
basis cell per station set W, written as its sorted tuple w_0 < ... < w_p.
Face j drops w_j, with entry -(-1)^j, and it is nonzero iff the merged
path from w_{j-1} to w_{j+1} (indices mod p+1) is shorter than
c_{w_{j-1}}.  Two facts make this complex a relative simplicial complex:

  Fact 1: the cells form an up-set.  Adding a station x between w and its
  successor w' leaves dist(x, w') = dist(w, w') - dist(w, x) below
  c_w - dist(w, x) <= c_x, because c_{i+1} >= c_i - 1.
  Fact 2: face j of a cell W exists iff W \\ {w_j} is a cell, because
  dropping w_j changes only one gap.

So the differential is -∂, the boundary of the full simplex Δ on the n
stations restricted to the cells: the complex is the relative chain
complex C(Δ, K), where K, the non-cells, is a subcomplex of Δ by Fact 1,
and d∘d = 0 follows from ∂∘∂ = 0.  Its ranks come from
`linalg.chain_ranks`, the kernel that ranks the relative relation complex
too, which builds from the cells only the columns it does not clear; no
code builds the whole differentials.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import linalg
from .algebra import MAX_SUBSETS, NakayamaAlgebra, TooLargeError

# face j of a cell enters the differential with _SIGN * (-1)^j
_SIGN = -1


def _walk(algebra: NakayamaAlgebra) -> list[dict[int, tuple[int, ...]]]:
    """Every cell, by degree: level p maps each p-cell's station bitmask
    (bit w for station w) to its station tuple.

    The walk extends station tuples one station at a time, from the last
    station w only to a w' <= min(n, w + c_w - 1), one the path from w
    reaches before it dies.  So it visits the tuples whose gaps all carry
    a path, save perhaps the wrap gap n - w_p + w_0, and a tuple is a cell
    when that gap carries one too: when w_0 < c_{w_p} - n + w_p.  Extending
    a level in lexicographic order, in order, lists the next one in
    lexicographic order.
    """
    n, c = algebra.n, algebra.kupisch
    steps = [()] + [
        tuple((x, 1 << x) for x in range(w + 1, min(n, w + c[w - 1] - 1) + 1)) for w in range(1, n + 1)
    ]
    wrap_bound = [0] + [c[w - 1] - n + w for w in range(1, n + 1)]
    levels = []
    walked = [((w,), 1 << w) for w in range(1, n + 1)]
    for _ in range(n):
        levels.append({bits: tup for tup, bits in walked if tup[0] < wrap_bound[tup[-1]]})
        walked = [(tup + (x,), bits | bit) for tup, bits in walked for x, bit in steps[tup[-1]]]
    return levels


@dataclass(frozen=True)
class CyclicComplex:
    """The cells of the degree-n slice by degree, as `_walk` emits them."""

    n: int
    levels: tuple[dict[int, tuple[int, ...]], ...]

    @property
    def basis_sizes(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.levels)


def build_cyclic_complex(algebra: NakayamaAlgebra) -> CyclicComplex:
    """Every cell, from one walk."""
    # the walk visits at most 2^n - 1 station subsets; refuse before it starts
    if 2 ** algebra.n - 1 > MAX_SUBSETS:
        raise TooLargeError(f"the cyclic basis would scan 2^{algebra.n} - 1 subsets, over {MAX_SUBSETS}")
    return CyclicComplex(n=algebra.n, levels=tuple(_walk(algebra)))


def differential_squares_to_zero(cc: CyclicComplex) -> bool:
    """d∘d = 0, certified without building the maps.  The differentials
    have no source but linalg's face rule on the cells, so each is -∂
    restricted to the cells, and its square vanishes if
      - the sign rule alternates in j, so that ∂ is the simplicial
        boundary, and
      - the cells form an up-set, so that the non-cells are a subcomplex K
        of the full simplex Δ and the complex is C(Δ, K) (Fact 1).
    """
    return linalg.signs_alternate(cc.n - 1, _SIGN) and _is_up_set(cc.n, cc.levels)


def _is_up_set(n: int, levels: Sequence[dict[int, tuple[int, ...]]]) -> bool:
    """Is every superset of a cell a cell?  It is iff, for each station w,
    each cell W without w has W + {w} a cell.  One byte per station bitmask
    marks the cells (n <= 16 under MAX_SUBSETS); read as one integer,
    shifting it right by 2^w bytes lines up the byte of W + {w} with the
    byte of W, for every W at once."""
    size = 2 << n  # the bitmasks use bits 1..n
    marks = bytearray(size)
    for level in levels:
        for bits in level:
            marks[bits] = 1
    cells = int.from_bytes(marks, "little")
    for w in range(1, n + 1):
        step = 1 << w
        without_w = int.from_bytes((b"\1" * step + b"\0" * step) * (size // (2 * step)), "little")
        if cells & without_w & ~(cells >> 8 * step):
            return False
    return True


def hc_dimensions(algebra: NakayamaAlgebra, cc: CyclicComplex | None = None) -> tuple[int, ...]:
    """dim HC_p of the degree-n slice for p = 0..n-1, over the rationals."""
    if cc is None:
        cc = build_cyclic_complex(algebra)
    sizes = cc.basis_sizes
    # d_0 is the zero map, and so is the map out of degree n
    ranks = [0, *linalg.chain_ranks(cc.levels, _SIGN), 0]
    return tuple(sizes[p] - ranks[p] - ranks[p + 1] for p in range(cc.n))


def hc_euler(dims: Sequence[int]) -> int:
    """Alternating sum of the HC dimensions from `hc_dimensions`."""
    return linalg.alternating_sum(dims)


def report(algebra: NakayamaAlgebra) -> dict:
    cc = build_cyclic_complex(algebra)
    dims = hc_dimensions(algebra, cc)
    return {
        "hc_dims": list(dims),
        "hc_euler": hc_euler(dims),
        "basis_sizes": list(cc.basis_sizes),
    }
