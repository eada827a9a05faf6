"""The relation complex of a Nakayama algebra.

Vertices are the relations of length <= n.  A relation of length l covers
its l-1 internal vertices {start+1, ..., start+length-1} (mod n): the
vertices i with x_{i-1} x_i a subword.  The interior of the relation at
w is the cyclic arc I_w = {w+1, ..., w+c_w-1}, and the same arcs decide
which station sets are cells of the cyclic complex (see `cyclic`).  A set
of relations spans a simplex iff the union of their interiors does not
cover all n quiver vertices.  Subsets of non-covering sets are
non-covering, so the complex is downward closed for free, and it is built
level by level from its smaller simplices.

The vertices are read straight off the Kupisch series: the relation at i
is (i, c_i), present iff c_i <= c_{i+1}, and a vertex iff also c_i <= n,
so `_interiors` takes each interior from the (start, length) pairs of
`algebra.relation_pairs` through the one arc rule, `interior`, and builds
no `Relation`.  `build_complex` keeps them in a complex, and a leaf check
(`unamalgamation`) that has no record of a side reads them bare.

An interior is an int bitmask, bit v-1 standing for vertex v, and a
complex keeps only n and the interiors of its vertices.  What is read of
it is computed the first time it is read, so a caller pays only for what
it reads, and each member has one rule, whatever was read before it.

A relation of length 1 has an empty interior, so it can join any simplex:
it is a cone point.  With k cone points, the complex is the join of the
(k-1)-simplex with the complex L'' of the other relations, so its f-vector
is a binomial convolution of that smaller complex's, and, being a cone, it
has no reduced homology.

The reduced homology of any nonempty complex L is that of a pair: the star
st v of a vertex v is a cone, so H̃_p(L) = H_p(L, st v).  The cells of the
pair are the simplices σ ∌ v with σ + v not in L, an up-set of L, and
`linalg.chain_ranks` ranks them as a relative complex over the rationals,
the way it ranks the cyclic complex C(Δ, K).  Taking v with the smallest
interior leaves the fewest cells, and none when v is a cone point.

The invariants come from one walk over the deletion of v, the sets σ ∌ v
of L, listed level by level as `_extend` lists a complex.  The reduced
Betti numbers are ranked off the walk's cells by one rule, `_betti`,
which `reduced_betti` applies to a complex's walk and a leaf check to the
walk of bare interiors, built into no complex.  A set is a
cell of the pair when its interiors and v's cover the cycle, and a set of
the link of v otherwise; link sets are only counted.  A simplex of L
either misses v or is a link set plus v, so the f-vector is F_L(t) =
cells(t) + (1 + t) link(t), the empty set among the link sets, and the
d∘d = 0 certificate checks every facet of every set the walk lists.  A
complex with cone points takes its f-vector from the walk of L'' instead,
and its self-check compares that with the walk of L at a cone point.
Only the simplex lists, the OFF dump among them, list all of L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from . import linalg
from .algebra import MAX_SUBSETS, NakayamaAlgebra, TooLargeError, relation_pairs


def interior(start: int, length: int, n: int) -> int:
    """The internal vertices of the path of `length` <= n arrows from
    `start`, as a bitmask: the arc {start+1, ..., start+length-1} mod n."""
    if length > n:
        raise ValueError(f"relation of length {length} has no interior on Q_{n}")
    # bits start..start+length-2 are the interior before reduction mod n
    arc = ((1 << length - 1) - 1) << start
    return (arc | arc >> n) & (1 << n) - 1


@dataclass(frozen=True)
class SimplicialComplex:
    """The non-covering subsets of the interiors `masks` on the n-cycle;
    vertex i has the interior masks[i].  The other members are computed
    when first read."""

    n: int
    masks: tuple[int, ...]

    @cached_property
    def _levels(self) -> list[dict[int, tuple[int, ...]]]:
        return simplex_levels(self.n, self.masks)

    @cached_property
    def _walk(self) -> Walk:
        return _deletion_walk(self.n, self.masks)

    @cached_property
    def simplices(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """simplices[p] lists the p-simplices as sorted vertex-index tuples,
        in lexicographic order."""
        return tuple(tuple(level.values()) for level in self._levels)

    @property
    def cone_points(self) -> int:
        """The number of vertices with an empty interior."""
        return self.masks.count(0)

    @cached_property
    def f_vector(self) -> tuple[int, ...]:
        """Simplex counts by dimension, read off the walk over the deletion
        of a vertex.  Cone points, if any, spare that walk (see
        `_join_f_vector`): only the complex L'' of the other vertices is
        walked."""
        k = self.cone_points
        if not k:
            return _walk_f_vector(self._walk)
        return _join_f_vector(k, _walk_f_vector(_deletion_walk(self.n, [m for m in self.masks if m])))

    @property
    def is_empty(self) -> bool:
        return not self.f_vector


# What the walk over a deletion finds (see `_deletion_walk`).
Walk = tuple[
    list[list[tuple[tuple[int, ...], int, int]]],  # listed: the sets it lists
    list[dict[int, tuple[int, ...]]],  # cells: the pair's cells among them
    list[int],  # link: the counts of the others
]


def _deletion_walk(n: int, masks: Sequence[int]) -> Walk:
    """The walk over the deletion of v, the first vertex with the smallest
    interior: the sets σ ∌ v of L, level by level as `_extend` lists a
    complex, v's interior being taken as full so that no set reaches v.
    It returns (listed, cells, link).  `listed[p]` holds the p-sets as
    `_extend` yields them, (vertex tuple, vertex bitmask, union of
    interiors), in lexicographic order.  A set is a cell of the pair
    (L, st v) when its interiors and I_v cover the cycle, so that σ + v is
    not in L; `cells` keeps those, by dimension, as `linalg.chain_ranks`
    reads them.  The others are the link of v, and `link[s]` counts its
    sets on s vertices, the empty set included.  A complex with no vertex
    has no v, and its walk finds nothing, not even the empty set."""
    _check_size(len(masks))
    full = (1 << n) - 1
    sizes = [mask.bit_count() for mask in masks]
    v = sizes.index(min(sizes)) if sizes else None
    if v is None or masks[v] == full:  # no vertex: every interior covers the cycle
        return [], [], []
    masks, iv = [*masks], masks[v]
    masks[v] = full
    level = [((i,), 1 << i, mask) for i, mask in enumerate(masks) if mask != full]
    listed, cells, link = [], [], [1]
    while level:
        listed.append(level)
        cells.append({bits: simplex for simplex, bits, mask in level if mask | iv == full})
        link.append(len(level) - len(cells[-1]))
        level = _extend(level, masks, full)
    return listed, cells, link


def _walk_f_vector(walk: Walk) -> tuple[int, ...]:
    """The simplex counts of L off its walk: a simplex either misses v, and
    is a cell or a link set, or is a link set plus v, so F_L(t) = cells(t)
    + (1 + t) link(t), counting sets on s vertices by t^s."""
    _, cells, link = walk
    if not link:
        return ()
    link = [*link, 0]
    f = [len(level) + link[s + 1] + link[s] for s, level in enumerate(cells)]
    f.append(link[-2])
    while not f[-1]:
        f.pop()
    return tuple(f)


def _join_f_vector(k: int, rest: Sequence[int]) -> tuple[int, ...]:
    """The f-vector of the join of the (k-1)-simplex with the complex L''
    whose f-vector is `rest`.  A simplex of the join is a of the k cone
    points together with a face on b vertices of L'' (the empty face when
    b = 0), so f_p is the sum over a + b = p + 1 of C(k, a) f_{b-1}(L''),
    with f_{-1}(L'') = 1."""
    lower = [1, *rest]  # lower[b] = f_{b-1}(L'')
    f = [0] * (k + len(lower) - 1)
    for a in range(k + 1):
        for b, count in enumerate(lower):
            if a + b:
                f[a + b - 1] += math.comb(k, a) * count
    return tuple(f)


def cone_factorization_holds(cx: SimplicialComplex) -> bool:
    """The f-vector equals the counts of the walk of L.  With cone points
    the f-vector is the binomial convolution over L'', walked on its own,
    and L is walked at a cone point, so the comparison checks the join
    factorization."""
    return cx.f_vector == _walk_f_vector(cx._walk)


def _check_size(r: int) -> None:
    if 2 ** r - 1 > MAX_SUBSETS:
        raise TooLargeError(f"the relation complex would scan 2^{r} - 1 subsets, over {MAX_SUBSETS}")


def simplex_levels(n: int, masks: Sequence[int]) -> list[dict[int, tuple[int, ...]]]:
    """The non-covering subsets of the interiors `masks`, by dimension:
    level p maps each p-simplex's vertex bitmask to its sorted vertex tuple,
    in lexicographic order.  The list ends at the complex's top
    dimension.  Only the simplex lists read it; the invariants come from
    the walk over a deletion."""
    _check_size(len(masks))
    full = (1 << n) - 1
    level = [((i,), 1 << i, mask) for i, mask in enumerate(masks) if mask != full]
    levels = []
    while level:
        levels.append({bits: simplex for simplex, bits, _ in level})
        level = _extend(level, masks, full)
    return levels


def _extend(
    level: list[tuple[tuple[int, ...], int, int]], masks: Sequence[int], full: int
) -> list[tuple[tuple[int, ...], int, int]]:
    """The (p+1)-simplices, as (vertices, vertex bitmask, union of interiors),
    from the p-simplices in lexicographic order.

    A simplex minus its last vertex is again a simplex, so extending each
    p-simplex by every later vertex that leaves the union short of `full`
    yields each (p+1)-simplex exactly once, again in lexicographic order.
    """
    r = len(masks)
    out = []
    for simplex, bits, mask in level:
        for j in range(simplex[-1] + 1, r):
            union = mask | masks[j]
            if union != full:
                out.append((simplex + (j,), bits | 1 << j, union))
    return out


def complex_from_interiors(n: int, masks: Sequence[int]) -> SimplicialComplex:
    """The non-covering-subsets complex of bare interior bitmasks.  Nothing
    is enumerated here, but a complex with more subsets than MAX_SUBSETS is
    refused at once."""
    _check_size(len(masks))
    return SimplicialComplex(n=n, masks=tuple(masks))


def _interiors(c: Sequence[int]) -> list[int]:
    """The interiors of the vertices of the relation complex of the series
    c: the relations of length <= n, read as (start, length) pairs off c,
    through the arc rule `interior`, in start order."""
    n = len(c)
    return [interior(i, ci, n) for i, ci in relation_pairs(c) if ci <= n]


def build_complex(algebra: NakayamaAlgebra) -> SimplicialComplex:
    """The complex whose vertices are the length-<=n relations and whose
    simplices are their non-covering subsets; vertex i is the i-th such
    relation in `algebra.relations`.  The relations are read as (start,
    length) pairs off the series, and none is built."""
    c = algebra.kupisch
    return complex_from_interiors(len(c), _interiors(c))


def euler_characteristic(cx: SimplicialComplex) -> int:
    return linalg.alternating_sum(cx.f_vector)


def reduced_betti(cx: SimplicialComplex) -> tuple[int, ...]:
    """Reduced rational Betti numbers, trailing zeros stripped: the
    dimensions of H_p(L, st v) for the vertex v with the smallest interior.

    A cone point has an empty interior, so when there is one st v is all of
    L, and a cone reports () without being walked.  The empty complex
    (every relation longer than n) also reports (); its one unit of reduced
    homology sits in degree -1 and is exposed via is_empty instead.
    Otherwise the cells of the pair are those of the walk over the deletion
    of v: the sets σ ∌ v of L with σ + v not in L.
    """
    if not cx.masks or 0 in cx.masks:  # no vertex, or a cone point
        return ()
    return _betti(cx._walk[1])


def _betti(cells: list[dict[int, tuple[int, ...]]]) -> tuple[int, ...]:
    """The dimensions of H_p(L, st v), trailing zeros stripped, off the
    cells of the pair that the walk over the deletion of v lists (see
    `_deletion_walk`)."""
    ranks = [0, *linalg.chain_ranks(cells, 1), 0]
    betti = [len(cells[p]) - ranks[p] - ranks[p + 1] for p in range(len(cells))]
    while betti and betti[-1] == 0:
        betti.pop()
    return tuple(betti)


def boundary_squares_to_zero(cx: SimplicialComplex) -> bool:
    """d∘d = 0 on L and on each pair (L, st v), certified without building
    a map: the sign rule alternates up to the top dimension of L, and every
    facet of every set the walk lists is listed one level down, so the
    deletion of v is down-closed, as L is.  Then ∂ is the simplicial
    boundary of a simplicial complex, and st v, down-closed as L is, is a
    subcomplex."""
    listed, _, _ = cx._walk
    lowers = [{bits for _, bits, _ in level} for level in listed[:-1]]
    return linalg.signs_alternate(len(cx.f_vector) - 1, 1) and all(
        bits ^ 1 << v in lower
        for lower, level in zip(lowers, listed[1:])
        for simplex, bits, _ in level
        for v in simplex
    )


def report(cx: SimplicialComplex) -> dict:
    return {
        "f_vector": list(cx.f_vector),
        "euler": euler_characteristic(cx),
        "reduced_betti": list(reduced_betti(cx)),
        "empty": cx.is_empty,
    }


def to_off(cx: SimplicialComplex) -> str:
    """OFF-style text dump: vertices on the unit circle, then one line per
    simplex of dimension >= 1 (count followed by vertex indices)."""
    nv = len(cx.masks)
    faces = [s for p in range(1, len(cx.simplices)) for s in cx.simplices[p]]
    lines = ["OFF", f"{nv} {len(faces)} 0"]
    for i in range(nv):
        angle = 2 * math.pi * i / nv
        lines.append(f"{math.cos(angle):.6f} {math.sin(angle):.6f} 0.000000")
    for s in faces:
        lines.append(" ".join([str(len(s))] + [str(i) for i in s]))
    return "\n".join(lines) + "\n"
