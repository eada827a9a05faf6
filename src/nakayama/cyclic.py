"""Degree-n part of the cyclic chain complex of the radical.

A degree-n chain in homological degree p is a cycle of p+1 composable
radical morphisms between indecomposable projectives whose degrees add up
to n.  Such a cycle is determined by its stations: the p+1 distinct quiver
vertices where the morphisms start, travelling forward around the cycle
exactly once.  The gap from station w_t to the next station is the length
of the connecting path, and the chain is nonzero iff every such path
survives in the algebra: the gap is below c_{w_t}.  Equivalently, the
station set W meets the arc I_w = {w+1, ..., w+c_w-1} (mod n) of every
w in W.  The relation at i has interior I_i (`relation_complex.interior`,
one bitmask per arc), and those interiors are the vertices of the relation
complex, so both sides of HCvsBetti are read off one family of cyclic
arcs.

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
and d∘d = 0 follows from ∂∘∂ = 0.

The homology is read off the critical cells of one element matching
(discrete Morse theory: R. Forman, "Morse theory for cell complexes", Adv.
Math. 134, 1998; element matchings as in J. Jonsson, "Simplicial Complexes
of Graphs", LNM 1928, 2008).  Each cell W without station 1 is paired with
W + {1}, a cell by Fact 1, and a matching on one element is acyclic.  The
critical cells are {1}, when it is a cell, and the cells W containing 1
whose W \\ {1} is not a cell.  No face of a critical cell W is matched:
the face W \\ {1} is no cell, and for v != 1 the face W \\ {v} contains 1
and W \\ {v, 1} lies in W \\ {1}, so it is no cell either, because the
non-cells are down-closed (Fact 1); W \\ {v} is critical or no cell.  A
gradient path would leave a critical cell through a matched face, so there
are none, and the Morse complex is the differential restricted to the
critical cells.  `linalg.chain_ranks`, the kernel that ranks the relative
relation complex too, ranks it unchanged.

Two sequences do not decrease, because c_{i+1} >= c_i - 1: y + c_y, the
first station the path from y does not reach, and wrap_bound[w] =
c_w - n + w, the least first station a cell ending at w cannot have (its
wrap gap n - w + w_0 is below c_w iff w_0 < wrap_bound[w]).
  - The critical cells come from a walk that starts at station 1 only.  A
    tuple (1, w_1, ..., w_p) whose gaps all carry a path is a cell iff
    1 < wrap_bound[w_p], and its W \\ {1} is no cell iff
    w_1 >= wrap_bound[w_p].  Its stations increase, so in a critical cell
    every station x from w_1 on has wrap_bound[x] <= wrap_bound[w_p] <= w_1,
    and the walk steps to no other station.
  - The number of cells of each degree, `basis_sizes`, is counted by a
    dynamic program over the last station that lists no cell: the
    stations that step to x form an interval.  It counts for every least
    station at once, each count a field of one packed integer.

Nothing here keeps a record of the complex: `hc_dimensions` walks the
critical cells and ranks them, `basis_sizes` counts the cells, and
`differential_squares_to_zero` checks the series, each reading the
algebra afresh.  The first two refuse an n with 2^n - 1 > MAX_SUBSETS
before the walk or the count starts.

`CyclicSquare` certifies d∘d = 0 and the matching on the series itself:
the face signs alternate, and for every station w and every x in its arc
I_w at distance d < n, c_x >= c_w - d, the inequality the proof of Fact 1
uses.  The d = 1 case, c_{w+1} >= c_w - 1 cyclically, gives every
distance by induction, so the check is n comparisons, and it gives both
sequences above.  A check of Fact 1 on the cells would need every
cell, which nothing here lists any more: on rad^(n+1), n = 8..10, walking
them all and checking would take longer than the rest of `verify`.
"""

from __future__ import annotations

from typing import Sequence

from . import linalg
from .algebra import MAX_SUBSETS, NakayamaAlgebra, TooLargeError

# face j of a cell enters the differential with _SIGN * (-1)^j
_SIGN = -1


def _wrap_bounds(c: Sequence[int]) -> list[int]:
    """wrap_bound[w] = c_w - n + w for w = 1..n, with an unused entry 0."""
    n = len(c)
    return [0] + [c[w - 1] - n + w for w in range(1, n + 1)]


def _critical_cells(c: Sequence[int]) -> list[dict[int, tuple[int, ...]]]:
    """The critical cells by degree: level p maps each critical p-cell's
    station bitmask (bit w for station w) to its station tuple.

    The walk extends tuples from station 1 one station at a time, from the
    last station w only to an x <= min(n, w + c_w - 1) that the path from w
    reaches and with wrap_bound[x] <= w_1.  Extending a level in
    lexicographic order, in order, lists the next one in lexicographic
    order.  The walk stops at the first degree with no tuple to extend.
    """
    n, wrap_bound = len(c), _wrap_bounds(c)
    # the stations the path from w reaches are w + 1, ..., ends[w] - 1
    ends = [0] + [min(n, w + c[w - 1] - 1) + 1 for w in range(1, n + 1)]
    levels = [{2: (1,)} if 1 < wrap_bound[1] else {}]
    walked = [((1, x), 2 | 1 << x) for x in range(2, ends[1]) if wrap_bound[x] <= x]
    while walked:
        levels.append({bits: tup for tup, bits in walked if 1 < wrap_bound[tup[-1]]})
        walked = [
            (tup + (x,), bits | 1 << x)
            for tup, bits in walked
            for x in range(tup[-1] + 1, ends[tup[-1]])
            if wrap_bound[x] <= tup[1]
        ]
    # a tuple has at most n stations, so the walk ends by degree n - 1;
    # every degree after it has no cell
    return levels + [{} for _ in range(n - len(levels))]


def _cell_counts(c: Sequence[int]) -> tuple[int, ...]:
    """The number of p-cells for p = 0..n-1, counted without listing one.

    The stations y < x whose path reaches x (x - y < c_y) are those from
    reach[x] on, because y + c_y does not decrease.  One pass over the
    last station x counts for every least station s at once: upto[x] sums
    z^s t^k over the tuples with short inner gaps, least station s, k
    stations and last station at most x.  The tuples ending at x are {x}
    and, with x appended, the tuples whose last station lies from reach[x]
    to x - 1, so ending = t * (upto[x - 1] - upto[reach[x] - 1]) + z^x t.
    Of those, the ones with s < wrap_bound[x] are cells: their wrap gap
    carries a path.

    A polynomial is one integer: the coefficient of z^s t^k in bits
    s*W + n*k to s*W + n*k + n - 1, with W = (n + 1) * n for the n + 1
    powers of t.  No coefficient reaches 2^n, the number of station sets;
    upto[x] does not decrease in x coefficient by coefficient, so the
    subtraction borrows across no field; and upto[x - 1] has no tuple of n
    stations, so multiplying by t, a shift by n bits, keeps each
    coefficient in its z-block.  So each operation acts on every
    coefficient alone, and the cells with s < wrap_bound[x] are the bits
    of `ending` below wrap_bound[x] * W.  The z-blocks are then summed one
    block at a time; a sum counts cells, so it stays below 2^n as well.
    """
    n = len(c)
    width = (n + 1) * n
    upto = [0]
    total = cells = 0
    reach = 1
    for x in range(1, n + 1):
        while reach < x and reach + c[reach - 1] <= x:
            reach += 1
        ending = ((total - upto[reach - 1]) << n) + (1 << x * width + n)
        total += ending
        upto.append(total)
        bound = min(c[x - 1] - n + x, x + 1)  # wrap_bound[x]; `ending` has no block past x
        if bound > 1:
            cells += ending & (1 << bound * width) - 1
    counts, block = 0, (1 << width) - 1
    while cells:
        counts += cells & block
        cells >>= width
    mask = (1 << n) - 1
    return tuple(counts >> n * k & mask for k in range(1, n + 1))


def _check_size(n: int) -> None:
    # the cells are among the 2^n - 1 station subsets; refuse before a walk or count starts
    if 2 ** n - 1 > MAX_SUBSETS:
        raise TooLargeError(f"the cyclic basis would scan 2^{n} - 1 subsets, over {MAX_SUBSETS}")


def differential_squares_to_zero(algebra: NakayamaAlgebra) -> bool:
    """d∘d = 0, certified on the series without building the maps.  The
    differentials have no source but linalg's face rule on the cells, so
    each is -∂ restricted to the cells, and its square vanishes if
      - the sign rule alternates in j, so that ∂ is the simplicial
        boundary, and
      - the cells form an up-set, so that the non-cells are a subcomplex K
        of the full simplex Δ and the complex is C(Δ, K).  Fact 1 rests on
        c_x >= c_w - d for each x in the arc I_w at distance d, checked
        here through its d = 1 case (see `_arcs_hold`); the matching rests
        on it too.
    """
    return linalg.signs_alternate(algebra.n - 1, _SIGN) and _arcs_hold(algebra.kupisch)


def _arcs_hold(c: Sequence[int]) -> bool:
    """Is c_x >= c_w - d for every station w and every x in I_w at
    distance d < n?  It is enough that c_{w+1} >= c_w - 1 for every w,
    cyclically: then, by induction on d, c_{w+d} >= c_{w+d-1} - 1 >=
    c_w - (d - 1) - 1 = c_w - d for every distance d.  That is n
    comparisons."""
    return all(after >= cw - 1 for cw, after in zip(c, [*c[1:], *c[:1]]))


def hc_dimensions(algebra: NakayamaAlgebra) -> tuple[int, ...]:
    """dim HC_p of the degree-n slice for p = 0..n-1, over the rationals,
    from the critical cells of one walk."""
    _check_size(algebra.n)
    critical = _critical_cells(algebra.kupisch)
    # d_0 is the zero map, and so is the map out of degree n
    ranks = [0, *linalg.chain_ranks(critical, _SIGN), 0]
    return tuple(len(critical[p]) - ranks[p] - ranks[p + 1] for p in range(algebra.n))


def basis_sizes(algebra: NakayamaAlgebra) -> tuple[int, ...]:
    """The number of cells of each degree p = 0..n-1, counted without
    listing one."""
    _check_size(algebra.n)
    return _cell_counts(algebra.kupisch)


def hc_euler(dims: Sequence[int]) -> int:
    """Alternating sum of the HC dimensions from `hc_dimensions`."""
    return linalg.alternating_sum(dims)


def report(algebra: NakayamaAlgebra) -> dict:
    dims = hc_dimensions(algebra)
    return {
        "hc_dims": list(dims),
        "hc_euler": hc_euler(dims),
        "basis_sizes": list(basis_sizes(algebra)),
    }
