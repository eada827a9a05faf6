"""Reference enumerations: the test oracle for the cyclic basis walk and
the face rule of `nakayama.cyclic`, and for the level-wise relation complex
in `nakayama.relation_complex`.  The cells come from scanning every subset
with `itertools.combinations`; the cyclic differential composes adjacent
gaps and rotates the wrap face back into canonical form."""

from itertools import combinations
from typing import NamedTuple

from nakayama.relation_complex import interior


def station_gaps(stations, n):
    p = len(stations) - 1
    return tuple(
        stations[t + 1] - stations[t] if t < p else n - stations[p] + stations[0]
        for t in range(p + 1)
    )


def is_valid(stations, gaps, c):
    return all(g < c[w - 1] for w, g in zip(stations, gaps))


def basis(algebra, p):
    """The (p+1)-subsets of stations whose gaps all carry nonzero paths, as
    sorted tuples in the order `combinations` lists them."""
    n, c = algebra.n, algebra.kupisch
    return [
        subset
        for subset in combinations(range(1, n + 1), p + 1)
        if is_valid(subset, station_gaps(subset, n), c)
    ]


def canonicalize(stations):
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


def differential(algebra, source, index):
    """Sparse columns of the degree-p to degree-(p-1) differential on the
    station tuples of `source`, rows numbered by `index`.

    Face i < p composes the morphisms at stations w_i, w_{i+1}, dropping
    w_{i+1}, with sign (-1)^i; it dies iff the two gaps add up to at least
    c_{w_i}.  The last face composes around the wrap at w_p, dropping w_0,
    and `canonicalize` rotates the result back to sorted order on top of
    its (-1)^p face sign."""
    if not source or len(source[0]) == 1:
        return [{} for _ in source]
    n, c = algebra.n, algebra.kupisch
    columns = []
    for w in source:
        g, p = station_gaps(w, n), len(w) - 1
        col = {}
        for i in range(p):
            if g[i] + g[i + 1] < c[w[i] - 1]:
                col[index[w[: i + 1] + w[i + 2:]]] = -1 if i % 2 else 1
        if g[p] + g[0] < c[w[p] - 1]:
            canonical, rot_sign = canonicalize((w[p],) + w[1:p])
            col[index[canonical]] = -rot_sign if p % 2 else rot_sign
        columns.append(col)
    return columns


def is_simplex(algebra, rels):
    """Do these relations fail to cover every vertex of the quiver?"""
    covered = set()
    for rel in rels:
        covered |= interior(rel, algebra.n)
    return len(covered) < algebra.n


class Enumerated(NamedTuple):
    """The oracle's record of a relation complex: what
    `SimplicialComplex.simplices` and `.boundaries` must equal."""

    simplices: tuple
    boundaries: tuple


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

    return Enumerated(simplices=tuple(tuple(s) for s in by_dim), boundaries=tuple(boundaries))
