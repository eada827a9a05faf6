"""Reference enumerations: the test oracle for the cyclic basis walk and
the face rule of `nakayama.cyclic`, for the level-wise relation complex
in `nakayama.relation_complex`, for the Kupisch recurrence of
`nakayama.algebra` with the minimality rule read off it, for its memoized
global dimension, for the odometer of `nakayama.harness.kupisch_series`
and the rotation-class keys of the sweep, and for the shift-and-fold arc
rule of `nakayama.relation_complex.interior` and the relation complex's
vertices, which `build_complex` reads off the Kupisch series, and for the
Kupisch series of the opposite algebra that a sweep pairs classes by, and
for the rotation classes and mirror pairs of a sweep level, by the walk
over every series that the necklace rule replaced.
The cells come from scanning every subset with `itertools.combinations`;
the cyclic differential composes adjacent gaps and rotates the wrap face
back into canonical form.  The Kupisch series is a minimum over all
relations for every vertex, and redundancy is found by testing every pair
of relations for containment.  An interior is listed vertex by vertex, and
the subset scans of the relation complex read the interiors so listed.
The syzygies of a uniserial module follow the interval rule, applied here
and not read from `nakayama`; the global dimension walks them from each
simple module afresh, and the series are listed by recursion over their
prefixes."""

from functools import cache
from itertools import combinations
from typing import NamedTuple

from nakayama.algebra import (
    MAX_VERTICES,
    AlgebraClass,
    AlgebraError,
    DuplicateStartError,
    EmptyRelationSetError,
    ProjDim,
    RedundantRelationError,
    Relation,
    TooLargeError,
)


def kupisch_from_relations(n, relations):
    """c_j: relation (k, l) is completed ((k - j) mod n) + l arrows from j,
    and P_j ends at the first relation completed, so c_j is the least of
    these over all relations.  O(n r)."""
    return tuple(
        min((rel.start - j) % n + rel.length for rel in relations)
        for j in range(1, n + 1)
    )


def validate(n, relations):
    """(sorted relations, Kupisch series) of a valid relation set, or the
    AlgebraError `nakayama.validate` must raise, found by testing every
    pair of relations for containment: the first containing pair in sorted
    order is named."""
    if n > MAX_VERTICES:
        raise TooLargeError(f"quiver size {n} is over {MAX_VERTICES}")
    if n < 2:
        raise AlgebraError(f"quiver size must be at least 2, got {n}")
    rels = tuple(sorted(r if isinstance(r, Relation) else Relation(*r) for r in relations))
    if not rels:
        raise EmptyRelationSetError("a Nakayama algebra needs at least one relation")
    for rel in rels:
        if not 1 <= rel.start <= n:
            raise AlgebraError(f"relation start {rel.start} outside 1..{n}")
        if rel.length < 1:
            raise AlgebraError(f"relation length must be positive, got {rel.length}")
    starts = [r.start for r in rels]
    if len(set(starts)) != len(starts):
        dup = next(s for s in starts if starts.count(s) > 1)
        raise DuplicateStartError(f"two relations start at vertex {dup}")
    for a in rels:
        for b in rels:
            if a is not b and a.contains(b, n):
                raise RedundantRelationError(
                    f"relation ({a.start},{a.length}) contains ({b.start},{b.length})"
                )
    return rels, kupisch_from_relations(n, rels)


def mod1(x, n):
    """Reduce x into 1..n."""
    return (x - 1) % n + 1


def syzygy(algebra, top, length):
    """The kernel of the projective cover P_top ->> M of the uniserial
    module M = (top, length), by the interval rule: P_top is longer than M
    by c_top - length, and the kernel starts where M stops,
    Ω(top, length) = (top + length mod n, c_top - length).  None when M is
    P_top itself, so projective."""
    c_top = algebra.kupisch[top - 1]
    if not 1 <= length <= c_top:
        raise ValueError(f"({top},{length}) is not a module of P_{top} (length {c_top})")
    if length == c_top:
        return None
    return mod1(top + length, algebra.n), c_top - length


def projective_dimension(algebra, top, length):
    """The syzygies of (top, length) walked with a set of the modules seen,
    until one is zero (the dimension is the number of steps) or one repeats
    (infinite, None)."""
    m, seen = (top, length), set()
    while m is not None:
        if m in seen:
            return None
        seen.add(m)
        m = syzygy(algebra, *m)
    return len(seen) - 1


def global_dimension(algebra):
    """The largest projective dimension of a simple module, each simple's
    syzygies walked afresh by `projective_dimension`; infinite at the first
    simple whose resolution never ends."""
    worst = 0
    for top in range(1, algebra.n + 1):
        d = projective_dimension(algebra, top, 1)
        if d is None:
            return ProjDim(None)
        worst = max(worst, d)
    return ProjDim(worst)


def kupisch_series(n, c_max):
    """The Kupisch series of length n with entries <= c_max, by recursion
    over their prefixes: each entry runs from its least value
    max(1, c_{i-1} - 1) up to c_max, and a full sequence is kept if it
    wraps, c_1 >= c_n - 1."""

    def extend(prefix):
        if len(prefix) == n:
            if prefix[0] >= prefix[-1] - 1:
                yield prefix
            return
        lo = max(1, prefix[-1] - 1) if prefix else 1
        for v in range(lo, c_max + 1):
            yield from extend(prefix + (v,))

    yield from extend(())


def eliminate_redundant(relations, n):
    """`leaf_oracle.eliminate_redundant` by testing every pair
    of words: a word is minimal iff it contains no other word.  The kept and
    eliminated words and the witnesses follow the same rule."""
    rels = [r if isinstance(r, Relation) else Relation(*r) for r in relations]
    minimal = {r for r in rels if not any(o != r and r.contains(o, n) for o in rels)}
    kept = set()
    eliminated = []
    for r in rels:
        if r in minimal and r not in kept:
            kept.add(r)
        else:
            witness = min(
                (o for o in minimal if r.contains(o, n)), key=lambda o: (o.length, o.start)
            )
            eliminated.append((r, witness))
    return tuple(sorted(minimal)), tuple(eliminated)


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


def least_rotation(c):
    """The lexicographically least rotation of a Kupisch series.

    Shifting the vertex labels is an isomorphism of the algebras, so the
    least rotation names the rotation class of c."""
    n = len(c)
    twice = c + c
    return min(twice[j:j + n] for j in range(n))


def opposite_kupisch(c):
    """The Kupisch series of the opposite algebra, its cycle relabelled
    i -> n + 1 - i, by the word rule.  The path of length c_i from i is
    zero for every i, and these paths span the relations.  In the opposite
    algebra the arrow x_i, i -> i + 1, runs from i + 1 to i, and so from
    n - i to n + 1 - i after relabelling: it is the arrow x_{n-i}.  So the
    path x_s ... x_{s+L-1} becomes the path of L arrows from arrow
    n - s - L + 1 (mod n), and the series is read off those words by
    `kupisch_from_relations` above."""
    n = len(c)
    words = [Relation(mod1(n - s - length + 1, n), length) for s, length in enumerate(c, 1)]
    return kupisch_from_relations(n, words)


def level_classes(series, classes):
    """The units of one sweep level, its mirror orbits of rotation classes,
    by the walk over every series that the necklace rule replaced.
    `series` lists the level's series in lexicographic order, so the first
    series of a rotation class to appear is its least rotation, the class
    key: the walk maps every rotation of it to that key, or to None when
    the class is not requested, and each later series of the class finds
    it there.  The units are listed in the order the walk meets their first
    keys.  A class whose mirror class, that of the opposite algebra by the
    word rule, has a larger key makes the unit (key, mirror key); a class
    that is its own mirror makes (key,); a class whose mirror key is
    smaller is already in that key's unit."""
    key_of, units = {}, []
    for c in series:
        if c in key_of:
            continue
        c0 = c if AlgebraClass.of(c) in classes else None
        key_of.update(dict.fromkeys(rotations(c), c0))
        if c0 is not None:
            m0 = mirror_key(c0)
            if m0 > c0:
                units.append((c0, m0))
            elif m0 == c0:
                units.append((c0,))
    return units


@cache
def mirror_key(c0):
    """The least rotation of the opposite algebra's series; cached, as the
    tests ask it of one class under many class filters."""
    return least_rotation(opposite_kupisch(c0))


def rotations(c):
    """Every rotation of a Kupisch series, each once."""
    return {c[k:] + c[:k] for k in range(len(c))}


def complex_vertices(algebra):
    """The vertices of the relation complex, relation by relation: the
    relations of length <= n, in order."""
    return tuple(rel for rel in algebra.relations if rel.length <= algebra.n)


def interior(rel, n):
    """The internal vertices start+1, ..., start+length-1 of a relation,
    each reduced mod n into 1..n."""
    return frozenset((rel.start + t - 1) % n + 1 for t in range(1, rel.length))


def to_mask(vertices):
    """A vertex set as an interior bitmask: bit v-1 stands for vertex v."""
    return sum(1 << v - 1 for v in vertices)


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
