"""The relation complex of a Nakayama algebra.

Vertices are the relations of length <= n.  A relation of length l covers
its l-1 internal vertices {start+1, ..., start+length-1} (mod n): the
vertices i with x_{i-1} x_i a subword.  A set of relations spans a simplex
iff the union of their interiors does not cover all n quiver vertices.
Subsets of non-covering sets are non-covering, so the complex is downward
closed for free, and it is built level by level from its smaller simplices.

Homology is computed over the rationals from exact sparse integer boundary
maps; reduced Betti numbers use the augmented complex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

from . import linalg
from .algebra import MAX_SUBSETS, NakayamaAlgebra, Relation, TooLargeError, mod1


def interior(rel: Relation, n: int) -> frozenset[int]:
    """Internal vertices of a relation of length <= n."""
    if rel.length > n:
        raise ValueError(f"relation of length {rel.length} has no interior on Q_{n}")
    return frozenset(mod1(rel.start + t, n) for t in range(1, rel.length))


@dataclass(frozen=True)
class SimplicialComplex:
    n: int
    vertices: tuple[Relation, ...]
    # simplices[p] lists the p-simplices as sorted vertex-index tuples,
    # in lexicographic order; boundaries[p-1] is the p-th boundary map, as
    # sparse columns indexed by the p-simplices with rows numbering the
    # (p-1)-simplices.
    simplices: tuple[tuple[tuple[int, ...], ...], ...]
    boundaries: tuple[linalg.SparseMap, ...]

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    @property
    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.simplices)


def simplex_levels(n: int, interiors: Sequence[frozenset[int]]) -> list[dict[int, tuple[int, ...]]]:
    """The non-covering subsets of `interiors`, by dimension: level p maps
    each p-simplex's vertex bitmask to its sorted vertex tuple, in
    lexicographic order.  The list ends at the complex's top dimension."""
    r = len(interiors)
    if 2 ** r - 1 > MAX_SUBSETS:
        raise TooLargeError(f"the relation complex would scan 2^{r} - 1 subsets, over {MAX_SUBSETS}")
    full = (1 << n) - 1
    masks = [sum(1 << (v - 1) for v in vertices) for vertices in interiors]
    level = [((i,), 1 << i, mask) for i, mask in enumerate(masks) if mask != full]
    levels = []
    while level:
        levels.append({bits: simplex for simplex, bits, _ in level})
        level = _extend(level, masks, full)
    return levels


def _extend(
    level: list[tuple[tuple[int, ...], int, int]], masks: list[int], full: int
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


def complex_from_interiors(n: int, interiors: Sequence[frozenset[int]]) -> SimplicialComplex:
    """Build the non-covering-subsets complex, with its boundary maps, from
    bare interiors; `build_complex` fills in the Relation vertices.  Face j
    of a simplex drops its j-th vertex, so its row is found under the
    simplex's bitmask with that vertex's bit cleared."""
    levels = simplex_levels(n, interiors)
    boundaries: list[linalg.SparseMap] = []
    for p in range(1, len(levels)):
        index = {bits: i for i, bits in enumerate(levels[p - 1])}
        signs = [(-1) ** j for j in range(p + 1)]
        boundaries.append([
            {index[bits ^ 1 << v]: signs[j] for j, v in enumerate(simplex)}
            for bits, simplex in levels[p].items()
        ])

    return SimplicialComplex(
        n=n,
        vertices=tuple(),  # filled in by callers that have Relation vertices
        simplices=tuple(tuple(level.values()) for level in levels),
        boundaries=tuple(boundaries),
    )


def complex_vertices(algebra: NakayamaAlgebra) -> tuple[Relation, ...]:
    return tuple(rel for rel in algebra.relations if rel.length <= algebra.n)


def build_complex(algebra: NakayamaAlgebra) -> SimplicialComplex:
    """The complex whose vertices are the length-<=n relations and whose
    simplices are their non-covering subsets."""
    vertices = complex_vertices(algebra)
    cx = complex_from_interiors(algebra.n, [interior(rel, algebra.n) for rel in vertices])
    return replace(cx, vertices=vertices)


def euler_characteristic(cx: SimplicialComplex) -> int:
    return sum((-1) ** p * count for p, count in enumerate(cx.f_vector))


def reduced_betti(cx: SimplicialComplex) -> tuple[int, ...]:
    """Reduced rational Betti numbers, trailing zeros stripped.

    Contractible complexes therefore report ().  The empty complex (every
    relation longer than n) also reports (); its one unit of reduced
    homology sits in degree -1 and is exposed via is_empty instead.
    """
    if cx.is_empty:
        return ()
    f = cx.f_vector
    # rank of the augmentation C_0 -> K is 1 once there is a vertex
    ranks = [1] + linalg.chain_ranks(cx.boundaries) + [0]
    betti = [f[p] - ranks[p] - ranks[p + 1] for p in range(len(f))]
    while betti and betti[-1] == 0:
        betti.pop()
    return tuple(betti)


def boundary_squares_to_zero(cx: SimplicialComplex) -> bool:
    return linalg.squares_to_zero(cx.boundaries)


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
    nv = len(cx.vertices)
    faces = [s for p in range(1, len(cx.simplices)) for s in cx.simplices[p]]
    lines = ["OFF", f"{nv} {len(faces)} 0"]
    for i in range(nv):
        angle = 2 * math.pi * i / nv if nv else 0.0
        lines.append(f"{math.cos(angle):.6f} {math.sin(angle):.6f} 0.000000")
    for s in faces:
        lines.append(" ".join([str(len(s))] + [str(i) for i in s]))
    return "\n".join(lines) + "\n"
