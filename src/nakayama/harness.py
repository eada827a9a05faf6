"""Exhaustive verification over all Nakayama algebras up to a size bound.

Algebras are enumerated through their Kupisch series: the valid series are
exactly the tuples in [1, c_max]^n with c_{i+1} >= c_i - 1 cyclically.
For each algebra, `verify` computes every invariant in the package and
records named checks:

  A       finite global dimension iff the resolution quiver has exactly one
          component and that component has weight one
  B       finite global dimension iff the relation complex has Euler
          characteristic one
  Bprime  finite global dimension iff the relation complex is contractible,
          checked as: vanishing reduced Betti numbers plus full reduction
          ending in a semisimple algebra
  C       Euler characteristic equals the number of weight-one components
  HCvsBetti            dim HC_p equals the (p-1)-st reduced Betti number
  UnamalgamationProps  the four leaf-removal properties at every leaf, and
                       the raw image words' relation complex equal to the
                       input's, certified from interior bitmasks and the
                       output series without listing a simplex or a word
                       (`raw_complex_matches`), in one loop over the leaves
  SameWeight           all components carry the same weight

Structural self-checks always run alongside: d∘d = 0 on both complexes,
certified without building a map (`BoundarySquare` from the cells,
`CyclicSquare` from the Kupisch series), Euler identities, the Kupisch
round-trip and leaf/relation counts.  `HCEulerIdentity` compares two
independent computations of the cyclic side with 1 - χ(L): the HC Euler
characteristic, ranked from the critical cells, and the alternating sum
of the cell counts, which list no cell.

Rotating the vertex labels is an isomorphism, so the sweep's rows are
worked per rotation class.  Each level (one n) walks the series once and
classifies each class once, at its least rotation, which is the first of
its series to appear; every other row finds its class in one lookup.
`sweep` runs `verify` once per class, on the least rotation, and gives
that verdict to the rows of the other rotations with their own algebra
swapped in, and `to_csv` formats the columns after the series once per
distinct verdict.  The opposite algebra A^op of a Nakayama algebra A is
again one, and the two share every invariant that reads no vertex label:
the relation complex, HC and the cell counts, and gldim.  So the walk
also pairs each class with its mirror class, that of A^op, and of a pair
of distinct classes only the one that comes first computes those
invariants; the later one takes them, as the same objects, and computes
what depends on the labels (the weights, the leaves, the leaf checks,
Bprime and the named checks) itself.  A verdict is the one record kept
per algebra: the invariants, the checks, and what Bprime's reduction
found.  The sweep keeps the verdicts of the level below for the leaf
checks and Bprime, each class's verdict keyed by every series of the
class, so that a step's output finds its record in one probe by its own
series; with several worker processes, each level's classes are split
between them, the two classes of a mirror pair to one worker, and every
worker gets that table.  A level past MAX_SUBSETS, where `verify`
refuses every algebra, is its first series alone, taken in closed form,
and the sweep stops at the first such level.
"""

from __future__ import annotations

import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import cached_property
from multiprocessing import get_context
from typing import Callable, Iterator

from . import cyclic, linalg, relation_complex, resolution, unamalgamation
from .algebra import (
    MAX_SUBSETS,
    AlgebraClass,
    NakayamaAlgebra,
    ProjDim,
    check_vertices,
    global_dimension,
    kupisch_from_relations,
    relation_pairs,
)

THEOREM_CHECKS = ("A", "B", "Bprime", "C", "HCvsBetti", "UnamalgamationProps", "SameWeight")
STRUCTURAL_CHECKS = (
    "RoundTrip",
    "EulerPoincare",
    "BoundarySquare",
    "CyclicSquare",
    "HCEulerIdentity",
    "NodesEqualRelations",
)
ALL_CLASSES = frozenset(AlgebraClass)


@dataclass(frozen=True)
class SweepConfig:
    n_min: int = 2
    n_max: int = 4
    c_max: int = 4
    classes: frozenset[AlgebraClass] = ALL_CLASSES
    checks: tuple[str, ...] = THEOREM_CHECKS

    def __post_init__(self):
        if self.n_min < 2 or self.c_max < 1:
            raise ValueError("need n_min >= 2 and c_max >= 1")
        unknown = set(self.checks) - set(THEOREM_CHECKS)
        if unknown:
            raise ValueError(f"unknown checks: {sorted(unknown)}")

    def to_dict(self) -> dict:
        return {
            "n_min": self.n_min,
            "n_max": self.n_max,
            "c_max": self.c_max,
            "classes": sorted(c.value for c in self.classes),
            "checks": list(self.checks),
        }


def kupisch_series(n: int, c_max: int) -> Iterator[tuple[int, ...]]:
    """All valid Kupisch series of length n with entries <= c_max, in
    lexicographic order.

    A series has entries in 1..c_max, c_{j+1} >= c_j - 1, and wraps,
    c_1 >= c_n - 1.  Stepping down by at most one from c_j reaches
    c_n <= c_1 + 1, so c_j <= c_1 + 1 + n - j for every j >= 2; and under
    that bound every prefix extends to a series, by stepping down by one.
    So the series are counted off like an odometer: raise the last entry
    below its bound (c_max for c_1, min(c_max, c_1 + 1 + n - j) for c_j)
    and reset every entry after it to its least value, max(1, c_{j-1} - 1).
    Every tuple this reaches is a series, in lexicographic order, and none
    is tested.  A loop rather than recursion, as n may reach MAX_VERTICES."""
    if c_max < 1:
        return
    c = [1] * n
    # the bounds, 0-based: c[0] <= c_max and c[k] <= min(c_max, c[0] + n - k)
    top = [c_max] + [min(c_max, c[0] + n - k) for k in range(1, n)]
    while True:
        yield tuple(c)
        i = n - 1
        while i >= 0 and c[i] == top[i]:
            i -= 1
        if i < 0:
            return
        c[i] += 1
        if i == 0:
            top[1:] = [min(c_max, c[0] + n - k) for k in range(1, n)]
        for j in range(i + 1, n):
            c[j] = max(1, c[j - 1] - 1)


def enumerate_kupisch(config: SweepConfig) -> Iterator[NakayamaAlgebra]:
    for n in range(config.n_min, config.n_max + 1):
        for c in kupisch_series(n, config.c_max):
            if AlgebraClass.of(c) in config.classes:
                yield NakayamaAlgebra(c)


@dataclass
class AlgebraVerdict:
    """What `verify` finds on one algebra, the one record kept per algebra:
    the resolution quiver's weights, the relation complex's f-vector and
    reduced Betti numbers, gldim, the cyclic homology dimensions and basis
    sizes, the named checks, and `reduce_fully(algebra).semisimple` when
    the Bprime check computed it (None otherwise).  The quiver's targets
    are read off the algebra's Kupisch series when first read, unless
    `verify` seeded them with the ones it computed for the weights."""

    algebra: NakayamaAlgebra
    weights: tuple[int, ...]
    f_vector: tuple[int, ...]
    betti: tuple[int, ...]
    gldim: ProjDim
    hc_dims: tuple[int, ...]
    basis_sizes: tuple[int, ...]
    checks: dict[str, bool] = field(default_factory=dict)
    semisimple: bool | None = None

    @cached_property
    def targets(self) -> tuple[int, ...]:
        """Entry i-1 is the target of the arrow at i."""
        return resolution.targets(self.algebra.kupisch)

    @property
    def leaves(self) -> tuple[int, ...]:
        return tuple(sorted(set(range(1, self.algebra.n + 1)).difference(self.targets)))

    @property
    def chi(self) -> int:
        return linalg.alternating_sum(self.f_vector)

    @property
    def complex_empty(self) -> bool:
        return not self.f_vector

    @property
    def hc_euler(self) -> int:
        return cyclic.hc_euler(self.hc_dims)

    @property
    def failed(self) -> list[str]:
        return [name for name, ok in self.checks.items() if not ok]

    @property
    def ok(self) -> bool:
        return not self.failed

    def rotate(self, algebra: NakayamaAlgebra) -> "AlgebraVerdict":
        """The verdict of `algebra`, a rotation of this algebra: only the
        labels differ, so all else is shared.  The weights are listed by
        least vertex, so several distinct weights, which only a
        counterexample to SameWeight has, are read off the rotated quiver;
        the targets, a new instance's, are derived from `algebra`."""
        weights = self.weights
        if len(set(weights)) > 1:
            weights = resolution.weights(algebra.kupisch)
        return AlgebraVerdict(
            algebra, weights, self.f_vector, self.betti, self.gldim,
            self.hc_dims, self.basis_sizes, self.checks, self.semisimple,
        )

    def to_dict(self) -> dict:
        algebra = self.algebra
        return {
            "algebra": algebra.to_dict(),
            "kupisch": list(algebra.kupisch),
            "class": algebra.algebra_class.value,
            "gldim": self.gldim.value,
            "components": len(self.weights),
            "weights": list(self.weights),
            "leaves": list(self.leaves),
            "chi": self.chi,
            "f_vector": list(self.f_vector),
            "reduced_betti": list(self.betti),
            "complex_empty": self.complex_empty,
            "hc_dims": list(self.hc_dims),
            "hc_euler": self.hc_euler,
            "basis_sizes": list(self.basis_sizes),
            "checks": dict(self.checks),
        }


# What a sweep keeps of the level below: every enumerated Kupisch series of
# a verified rotation class maps to that class's verdict, the verdict of its
# least rotation, so the rows of one class share one record.  While a level
# is verified, the least rotation of the later class of each mirror pair
# maps to the verdict of the earlier class (see `_verify_classes`).
Table = dict[tuple[int, ...], AlgebraVerdict]


def verify(
    algebra: NakayamaAlgebra,
    checks: tuple[str, ...] = THEOREM_CHECKS,
    known: Table | None = None,
) -> AlgebraVerdict:
    """Compute every invariant of one algebra and test the requested named
    checks plus all structural self-checks.  Failures become entries in the
    verdict, never exceptions.  `known` is a sweep's table of the algebras
    verified before; the leaf checks and `Bprime` look the smaller algebras
    up there instead of rebuilding and reducing them, and when it holds the
    algebra's own series, the verdict there is that of its mirror class,
    whose label-free fields (see `_label_free`) are taken as the same
    objects.  The relations are read as (start, length) pairs off the
    series, and no `Relation` is built."""
    c = algebra.kupisch
    mirror = known.get(c) if known else None
    cx = relation_complex.build_complex(algebra)
    if mirror is None:
        shared = _label_free(algebra, cx)
    else:
        shared = (
            mirror.f_vector, mirror.betti, mirror.gldim, mirror.hc_dims, mirror.basis_sizes,
            mirror.checks["EulerPoincare"], mirror.checks["BoundarySquare"],
        )
    f_vector, betti, gldim, hc_dims, basis_sizes, euler_ok, boundary_ok = shared
    n, pairs, f = len(c), relation_pairs(c), resolution.targets(c)
    verdict = AlgebraVerdict(
        algebra=algebra,
        weights=resolution.weights(c, f),
        f_vector=f_vector,
        betti=betti,
        gldim=gldim,
        hc_dims=hc_dims,
        basis_sizes=basis_sizes,
    )
    # seed the cached `targets`; a rotated verdict, a new instance, derives its own
    verdict.__dict__["targets"] = f
    results = verdict.checks
    weights, chi, lvs = verdict.weights, verdict.chi, verdict.leaves
    finite = gldim.is_finite

    # the leaf checks run first, so that Bprime can go on from the output of
    # the step at the least leaf, the first step of the full reduction.
    # They run on the series, through the core of `check_properties`, and
    # build no step: at each leaf the output series is the one series built.
    first_out = None
    if "UnamalgamationProps" in checks:
        props_ok = True
        if n >= 3 and lvs:
            before = unamalgamation._compared(c, f, verdict)
            vertices = [i for i, (_, length) in enumerate(pairs) if length <= n]
            for leaf in lvs:
                out, quiver_ok, weight_ok, betti_ok, gldim_ok = unamalgamation._leaf_check(
                    c, f, leaf, before, known
                )
                if first_out is None:
                    first_out = out
                if not (
                    quiver_ok and weight_ok and betti_ok and gldim_ok
                    and raw_complex_matches(c, leaf, out, cx, vertices)
                ):
                    # the leaves after a failure are not checked, and no
                    # refusal is lost: an output's relations are among its
                    # step's raw words, and a raw word is a vertex of its
                    # complex iff its relation is one of `cx`, so the
                    # output's complex fits MAX_SUBSETS whenever `cx` does
                    props_ok = False
                    break

    weight_one = sum(1 for w in weights if w == 1)
    if "A" in checks:
        results["A"] = finite == (len(weights) == 1 and weights[0] == 1)
    if "B" in checks:
        results["B"] = finite == (chi == 1)
    if "C" in checks:
        results["C"] = chi == weight_one
    if "SameWeight" in checks:
        results["SameWeight"] = len(set(weights)) == 1
    if "HCvsBetti" in checks:
        expected = [1 if not f_vector else 0] + [
            betti[p - 1] if p - 1 < len(betti) else 0 for p in range(1, n)
        ]
        results["HCvsBetti"] = list(hc_dims) == expected
    if "Bprime" in checks:
        if finite:
            acyclic = not any(betti) and bool(f_vector)
            if acyclic:
                verdict.semisimple = _reduces_to_semisimple(algebra, first_out, known)
            results["Bprime"] = acyclic and verdict.semisimple
        else:
            results["Bprime"] = any(betti) or chi != 1
    if "UnamalgamationProps" in checks:
        results["UnamalgamationProps"] = props_ok

    results["RoundTrip"] = kupisch_from_relations(n, pairs) == c
    results["EulerPoincare"] = euler_ok
    results["BoundarySquare"] = boundary_ok
    results["CyclicSquare"] = cyclic.differential_squares_to_zero(algebra)
    results["HCEulerIdentity"] = verdict.hc_euler == 1 - chi == linalg.alternating_sum(basis_sizes)
    results["NodesEqualRelations"] = n - len(lvs) == len(pairs)
    return verdict


def _label_free(algebra: NakayamaAlgebra, cx: relation_complex.SimplicialComplex) -> tuple:
    """The part of `verify` that reads no vertex label, and so is the same
    on the opposite algebra A^op: (f_vector, betti, gldim, hc_dims,
    basis_sizes, EulerPoincare, BoundarySquare).  The relation complex of
    A^op is that of A with every arc reversed, its cyclic complex has the
    stations read in reverse, and left and right global dimension agree
    (Auslander, Nagoya Math. J. 9, 1955)."""
    # before the other invariants, so that a cyclic complex past MAX_SUBSETS is refused at once
    hc_dims = cyclic.hc_dimensions(algebra)
    f_vector, betti = cx.f_vector, relation_complex.reduced_betti(cx)
    chi = linalg.alternating_sum(f_vector)
    euler_ok = chi == 1 + linalg.alternating_sum(betti) if f_vector else chi == 0
    return (
        f_vector, betti, global_dimension(algebra), hc_dims, cyclic.basis_sizes(algebra),
        euler_ok and relation_complex.cone_factorization_holds(cx),
        relation_complex.boundary_squares_to_zero(cx),
    )


def _reduces_to_semisimple(
    algebra: NakayamaAlgebra, first_out: tuple[int, ...] | None, known: Table | None
) -> bool:
    """`reduce_fully(algebra).semisimple`.  After its first step, at the
    least leaf, the reduction goes on as the reduction of the step's output,
    n = 2 collapse included, so it goes on from `first_out`, that output's
    Kupisch series, when there is one: the entry for it in `known` answers
    when it holds the answer, and else the output is reduced.  No step is
    built."""
    if first_out is None:
        return unamalgamation.reduce_fully(algebra).semisimple
    found = known.get(first_out) if known else None
    if found is not None and found.semisimple is not None:
        return found.semisimple
    return unamalgamation.reduce_fully(NakayamaAlgebra(first_out)).semisimple


def raw_complex_matches(
    c: tuple[int, ...],
    leaf: int,
    out: tuple[int, ...],
    cx: relation_complex.SimplicialComplex,
    vertices: list[int],
) -> bool:
    """Is the complex built from the raw (possibly redundant) image relations
    of the step at `leaf` of the algebra with Kupisch series c, whose
    output series is `out`, simplex for simplex `cx`, the relation complex
    of the input, under the index bijection between old and new relations?
    Certified in O(n) integer operations, without listing a simplex of
    either complex and without building a raw word: each is read off `out`
    as it is met (the word-taking, enumerating rule is kept as a test
    oracle).  `vertices` lists the indices, in `algebra.relation_pairs(c)`,
    of the input's relations of length <= n, its relation complex's
    vertices, which the caller reads once for all the leaves of an algebra.

    Relabel by the rotation that sends the leaf to n, as the step does: the
    relation at i, present iff c_i <= c_{i+1}, gets the start
    k = (i - leaf - 1) mod n + 1, and its raw word is (k, out_k), or
    (n - 1, c_leaf - (c_leaf - 1) // n) at the leaf (see
    `unamalgamation.raw_words`, which lists them for the step's JSON).
    A vertex v is interior to a word iff x_{v-1} x_v is a subword of it.
    Deleting x_n merges x_{n-1} x_n and x_n x_1 into x_{n-1} x_1 and leaves
    every other pair of adjacent letters alone.  So vertex n leaves each
    interior, and vertex 1 stays interior iff x_n x_1 was a subword: such
    an x_n was either preceded by x_{n-1} or was the first letter, which
    gets x_{n-1} prepended.  Each raw interior is thus the old one without
    vertex n.  A set of vertices is then a simplex of the raw complex iff
    its old interiors miss some vertex other than n, and a simplex of L iff
    they miss some vertex, so the two complexes differ exactly on the sets
    whose interiors cover every vertex but n.  Such a set exists iff the
    union of all the interiors that avoid n is every vertex but n: that
    union's vertices are one such set, and any such set lies among them.

    So this checks, reading the interiors off `cx`, in one pass over the
    relations:
      1. the same relations, by index, are vertices of both complexes, and
         `cx` lies on the input's n-cycle;
      2. each raw interior is the interior of its vertex of `cx`,
         relabelled, without vertex n;
      3. the interiors of `cx` that avoid the leaf do not cover every other
         vertex.
    1 and 2 hold on every unamalgamation step: 2 by the fact above, and 1
    since a relation is a vertex on both sides or on neither unless it has
    length n and starts at the leaf, which would make the leaf its own
    target.
    Given 1 and 2, 3 holds iff the complexes match.  An output series
    whose raw words break 1 or 2 is refused, whatever the complex.
    """
    n = len(c)
    masks = cx.masks
    count = len(vertices)
    if cx.n != n or len(masks) != count:
        return False
    # the rotation sends bit b to b + shift mod n; `low` clears vertex n.
    # Each raw interior is `relation_complex.interior` on the (n-1)-cycle,
    # written out: the arc of bits start..start+length-2, folded mod n-1
    m = n - 1
    shift, low = n - leaf, (1 << m) - 1
    c_leaf = c[leaf - 1]
    leaf_length, leaf_bit = c_leaf - (c_leaf - 1) // n, 1 << leaf - 1
    union = index = v = 0  # `index` counts the relations, `v` the vertices
    for i in range(n):
        if c[i] > c[i + 1 - n]:  # no relation at i + 1
            continue
        k = (i - leaf) % n + 1
        start, length = (k, out[k - 1]) if k < n else (m, leaf_length)
        if length <= m:
            if v == count or vertices[v] != index:
                return False
            mask = masks[v]
            v += 1
            arc = ((1 << length - 1) - 1) << start
            if (arc | arc >> m) & low != (mask << shift | mask >> n - shift) & low:
                return False
            if not mask & leaf_bit:
                union |= mask
        index += 1
    return v == count and union != ((1 << n) - 1) ^ leaf_bit


@dataclass
class TheoremReport:
    config: SweepConfig
    verdicts: list[AlgebraVerdict]

    @property
    def counterexamples(self) -> list[AlgebraVerdict]:
        return [v for v in self.verdicts if not v.ok]

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def totals(self) -> dict[tuple[int, str], int]:
        out: dict[tuple[int, str], int] = {}
        for v in self.verdicts:
            # read off the series: a rotated row's algebra has nothing cached
            c = v.algebra.kupisch
            key = (len(c), AlgebraClass.of(c).value)
            out[key] = out.get(key, 0) + 1
        return out

    def to_dict(self) -> dict:
        counterexamples = self.counterexamples
        return {
            "config": self.config.to_dict(),
            "algebra_count": len(self.verdicts),
            "totals": [
                {"n": n, "class": cls, "count": count}
                for (n, cls), count in sorted(self.totals().items())
            ],
            "counterexamples": [
                {"algebra": v.algebra.to_dict(), "failed": v.failed}
                for v in counterexamples
            ],
            "ok": not counterexamples,
        }


def _mirror(c: tuple[int, ...]) -> tuple[int, ...]:
    """The Kupisch series of the opposite algebra A^op of the algebra A
    with series c, its cycle relabelled i -> n + 1 - i, so that a relation
    (s, L) of A becomes (n - s - L + 1 mod n, L).

    Entry j is the length of A's injective at i = n + 1 - j, the uniserial
    module with socle S_i: max{k >= 1 : c_{i-k+1} >= k}, as P_t reaches
    i iff t + c_t > i, for t <= i.  t + c_t does not decrease in t, since
    c_{t+1} >= c_t - 1, so neither does the least t with t + c_t > i as i
    grows, and one pointer walks it: the length is i + 1 - t.  O(n + max(c))."""
    n = len(c)
    t = 1  # walked down to the least t with t + c_t > 1
    while t - 1 + c[(t - 2) % n] > 1:
        t -= 1
    lengths = []
    for i in range(1, n + 1):
        while t + c[(t - 1) % n] <= i:
            t += 1
        lengths.append(i + 1 - t)
    lengths.reverse()
    return tuple(lengths)


def _levels(config: SweepConfig):
    """The enumerated algebras one nonempty level (one n) at a time, each
    with its class key, the least rotation of its series, and the mirror
    pairs of the level: a dict from the key of each class whose mirror
    class, that of the opposite algebra (see `_mirror`), comes later in
    the level to that class's key.

    A level walks `kupisch_series` once.  The series come in lexicographic
    order, so the first series of a rotation class to appear is its least
    rotation.  There the class is classified, once, and each of its other
    rotations is mapped to it, or to None when the class is filtered out.
    Every later series of the class takes its key from that map and leaves
    it, so the map holds only the rotations still to come.

    At a class's least rotation c0 its mirror's series is read off c0 and
    rotated to start at its largest entry, max(c0).  Unless c0 is
    constant, and so its own mirror, that rotation r is above c0, whose
    first entry is its least.  So r is still to come: it is in the map iff
    its class came earlier, and the map gives that class's key.  Mirror
    classes share the class filter, as A^op kills as many arrows as A.

    Past MAX_SUBSETS station subsets `verify` refuses every algebra, so
    the first level past it is its first algebra alone, the least of the
    requested classes, and the walk ends there: that algebra's refusal ends
    the sweep, and when the level has none, no later level has one either.
    That algebra is taken in closed form, since the series ahead of it can
    be exponentially many.  (1,) * n is the least series, a product of
    linear algebras; a linear series has exactly one entry 1 and a cyclic
    one none, so theirs are (1, 2, ..., 2) and (2,) * n once c_max >= 2.
    None of these classes depends on n, so each is read off n = 3, and a
    level past MAX_VERTICES that is not empty is refused by
    `check_vertices`, as `validate` refuses it, before its series is
    built."""
    for n in range(config.n_min, config.n_max + 1):
        mirrors: dict[tuple[int, ...], tuple[int, ...]] = {}
        if 2 ** n - 1 <= MAX_SUBSETS:
            level, keys = [], []
            key_of: dict[tuple[int, ...], tuple[int, ...] | None] = {}
            for c in kupisch_series(n, config.c_max):
                if c in key_of:
                    c0 = key_of.pop(c)
                else:
                    c0 = c if AlgebraClass.of(c) in config.classes else None
                    if c0 is not None:
                        m = _mirror(c)
                        top = m.index(max(m))
                        earlier = key_of.get(m[top:] + m[:top])
                        if earlier is not None:
                            mirrors[earlier] = c
                    for k in range(1, n):
                        key_of[c[k:] + c[:k]] = c0
                    key_of.pop(c, None)  # a periodic c is one of its own rotations
                if c0 is not None:
                    level.append(NakayamaAlgebra(c))
                    keys.append(c0)
        else:
            # the least series of each class, (c_1, c_2, ..., c_2) as (c_1, c_2), least first
            least = [(1, 1)] + ([(1, 2), (2, 2)] if config.c_max >= 2 else [])
            first = [(h, t) for h, t in least if AlgebraClass.of((h, t, t)) in config.classes][:1]
            if first:
                check_vertices(n)
            level = [NakayamaAlgebra((h,) + (t,) * (n - 1)) for h, t in first]
            # the least series of its class is the least of its rotations
            keys = [a.kupisch for a in level]
        if level:
            yield level, keys, mirrors
        if 2 ** n - 1 > MAX_SUBSETS:
            return


def _verify_classes(
    algebras: list[NakayamaAlgebra],
    mirrors: dict[tuple[int, ...], tuple[int, ...]],
    checks: tuple[str, ...],
    known: Table,
) -> list[AlgebraVerdict]:
    """The verdicts of a level's classes, in order.  Once the verdict of a
    class that `mirrors` pairs with a later one is made, it goes into
    `known` under that class's series, where `verify` finds it."""
    verdicts = []
    for algebra in algebras:
        verdict = verify(algebra, checks, known)
        later = mirrors.get(algebra.kupisch)
        if later is not None:
            known[later] = verdict
        verdicts.append(verdict)
    return verdicts


def _start_level(
    pool, workers, algebras, mirrors, checks, known
) -> Callable[[], list[AlgebraVerdict]]:
    """Start verifying one level's classes; the returned function waits for
    their verdicts, in order.  With a pool, the classes are dealt to the
    workers in turn, but the later class of a mirror pair goes to the worker
    of the earlier one, so that it can take its fields; every worker gets
    the table of the level below."""
    if pool is None or len(algebras) < 2 * workers:
        verdicts = _verify_classes(algebras, mirrors, checks, known)
        return lambda: verdicts
    shares = [[] for _ in range(workers)]
    paired = [{} for _ in range(workers)]
    share_of: dict[tuple[int, ...], int] = {}
    owners, dealt = [], 0
    for algebra in algebras:
        c = algebra.kupisch
        i = share_of.pop(c, None)
        if i is None:
            i, dealt = dealt % workers, dealt + 1
        later = mirrors.get(c)
        if later is not None:
            share_of[later] = i
            paired[i][c] = later
        shares[i].append(algebra)
        owners.append(i)
    parts = pool.map(_verify_classes, shares, paired, [checks] * workers, [known] * workers)

    def collect() -> list[AlgebraVerdict]:
        # each share keeps the level's order
        returned = [iter(part) for part in parts]
        return [next(returned[i]) for i in owners]

    return collect


def sweep(config: SweepConfig, workers: int = 1) -> TheoremReport:
    """Verify every enumerated algebra; the verdict order is the enumeration
    order regardless of worker count.

    Only the least rotation of each Kupisch series is verified: the other
    rows of its rotation class find it by the class key `_levels` gives
    them and get its verdict, with their algebra swapped in (see
    `AlgebraVerdict.rotate`).  A class whose mirror class came earlier in
    the level takes that verdict's label-free fields.  The levels (one n
    each) run in order, and each level's classes are verified with the
    table of the level below, where the leaf checks find the smaller
    algebras by their series: each row of a class is a key, and the rows
    of one class share its verdict.  On `workers` processes, each level's
    classes are split between them, and the next level is enumerated while
    they work."""
    verdicts: list[AlgebraVerdict] = []
    known: Table = {}
    levels = _levels(config)
    spawn = get_context("spawn")
    with (ProcessPoolExecutor(workers, mp_context=spawn) if workers > 1 else nullcontext()) as pool:
        level, keys, mirrors = next(levels, ([], [], {}))
        while level:
            classes = [a for a, c0 in zip(level, keys) if a.kupisch == c0]
            collect = _start_level(pool, workers, classes, mirrors, config.checks, known)
            upcoming = next(levels, ([], [], {}))
            by_class = {a.kupisch: v for a, v in zip(classes, collect())}
            # a class is enumerated first at its least rotation, so every
            # row finds its class verified
            verdicts.extend(
                by_class[c0] if a.kupisch == c0 else by_class[c0].rotate(a)
                for a, c0 in zip(level, keys)
            )
            known = {a.kupisch: by_class[c0] for a, c0 in zip(level, keys)}
            level, keys, mirrors = upcoming
    return TheoremReport(config=config, verdicts=verdicts)


def default_workers() -> int:
    """Worker processes for `sweep`: NAKAYAMA_THREADS, clamped to 1..cpu
    count.  An unparsable value is reported on stderr and gives 1."""
    raw = os.environ.get("NAKAYAMA_THREADS", "1")
    try:
        requested = int(raw)
    except ValueError:
        sys.stderr.write(f"warning: NAKAYAMA_THREADS={raw!r} is not an integer; using 1 worker\n")
        return 1
    return max(1, min(requested, os.cpu_count() or 1))


CSV_COLUMNS = (
    "n", "kupisch", "gldim", "components", "weight",
    "chi", "betti", "hc_dims", "verdicts",
)


def to_csv(report: TheoremReport) -> str:
    """One row per verdict under the CSV_COLUMNS header.

    Every column after `kupisch` depends only on gldim, the weights, the
    f-vector (through chi), the reduced Betti numbers, `hc_dims` and the
    names of the failed checks, in order, which the rows of a rotation
    class share but for the order of several distinct weights.  So that
    text is formatted once for each distinct set of those values, keyed by
    the values themselves (no name, (), when every check passes), and each
    row is `n,kupisch,` followed by it.  No field needs CSV quoting: each
    is a number, numbers joined by spaces or `|`, or check names."""
    tails: dict[tuple, str] = {}
    lines = [",".join(CSV_COLUMNS)]
    for v in report.verdicts:
        failed = () if all(v.checks.values()) else tuple(v.failed)
        key = (v.gldim.value, v.weights, v.f_vector, v.betti, v.hc_dims, failed)
        tail = tails.get(key)
        if tail is None:
            tail = tails[key] = _csv_tail(v)
        c = v.algebra.kupisch
        lines.append(f"{len(c)},{' '.join(map(str, c))},{tail}")
    lines.append("")
    return "\n".join(lines)


def _csv_tail(v: AlgebraVerdict) -> str:
    """The CSV columns of `v` after `kupisch`, joined."""
    weights = v.weights
    return ",".join(
        (
            "inf" if not v.gldim.is_finite else str(v.gldim.value),
            str(len(weights)),
            str(weights[0]) if len(set(weights)) == 1 else "|".join(map(str, weights)),
            str(v.chi),
            " ".join(map(str, v.betti)),
            " ".join(map(str, v.hc_dims)),
            "ok" if v.ok else ";".join(v.failed),
        )
    )


def to_json(report: TheoremReport) -> str:
    return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
