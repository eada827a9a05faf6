"""Subset-scanning reference enumerations: the test oracle for the cyclic
basis walk in `nakayama.cyclic` and the level-wise relation complex in
`nakayama.relation_complex`.  Both scan every subset with
`itertools.combinations` and keep the cells."""

from itertools import combinations

from nakayama.cyclic import MorphismCycle
from nakayama.relation_complex import SimplicialComplex


def station_gaps(stations, n):
    p = len(stations) - 1
    return tuple(
        stations[t + 1] - stations[t] if t < p else n - stations[p] + stations[0]
        for t in range(p + 1)
    )


def is_valid(stations, gaps, c):
    return all(g < c[w - 1] for w, g in zip(stations, gaps))


def basis(algebra, p):
    """One cycle per (p+1)-subset of stations whose gaps all carry nonzero
    paths, in the order `combinations` lists the subsets."""
    n, c = algebra.n, algebra.kupisch
    out = []
    for subset in combinations(range(1, n + 1), p + 1):
        gaps = station_gaps(subset, n)
        if is_valid(subset, gaps, c):
            out.append(MorphismCycle(stations=subset, gaps=gaps))
    return out


def complex_from_interiors(n, interiors):
    """Every subset whose interiors leave a vertex uncovered, sizes 1.. up to
    the first size with none; boundaries keyed by the face tuples."""
    r = len(interiors)
    by_dim = []
    for size in range(1, r + 1):
        simplices = [
            subset
            for subset in combinations(range(r), size)
            if len(frozenset().union(*(interiors[i] for i in subset))) < n
        ]
        if not simplices:
            break
        by_dim.append(simplices)

    boundaries = []
    for p in range(1, len(by_dim)):
        index = {simplex: i for i, simplex in enumerate(by_dim[p - 1])}
        signs = [(-1) ** j for j in range(p + 1)]
        boundaries.append([
            {index[simplex[:j] + simplex[j + 1:]]: signs[j] for j in range(p + 1)}
            for simplex in by_dim[p]
        ])

    return SimplicialComplex(
        n=n,
        vertices=tuple(),
        simplices=tuple(tuple(s) for s in by_dim),
        boundaries=tuple(boundaries),
    )
