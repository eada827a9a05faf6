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
certified without building a map (`BoundarySquare` from the sets of the
one walk over the deletion of a vertex that the relation complex's
f-vector and Betti numbers are read off, `CyclicSquare` from the Kupisch
series), Euler identities, the Kupisch round-trip and leaf/relation
counts.  `HCEulerIdentity` compares two independent computations of the
cyclic side with 1 - χ(L): the HC Euler characteristic, ranked from the
critical cells, and the alternating sum of the cell counts, which list no
cell.

Rotating the vertex labels is an isomorphism, so the sweep's rows are
worked per rotation class.  A class is named by its least rotation, a
necklace, and each level (one n) lists those keys directly, in
lexicographic order, by the Fredricksen–Kessler–Maiorana rule
(`_necklaces`), classifying each class once, at its key; no row is
visited.  `sweep` runs `verify` once per class, on the key, and its
report keeps that one verdict per class: a row is its own series and a
reference to its class's verdict, and no verdict is made for a row, nor
an algebra but for a counterexample's JSON.  `to_csv` formats the
columns after the series once per class, and `totals` counts each class
once.  The opposite algebra A^op of a Nakayama algebra A is again one,
and the two share every invariant that reads no vertex label: the
relation complex, HC and the cell counts, and gldim.  So each level is
listed as units, its mirror orbits: a class with its mirror class,
that of A^op, or a class alone when it is its own mirror.  Of a pair of
distinct classes only the first computes those invariants; the second
takes them, as the same objects, and computes what depends on the labels
(the weights, the leaves, the leaf checks, Bprime and the named checks)
itself: `verify` is handed the first's verdict as `mirror`.  A verdict
is the one record kept per algebra: the invariants, the checks, and what
Bprime's reduction found.  The sweep keeps the verdicts of the level
below for the leaf checks and Bprime, each class's verdict keyed by
every series of the class, so that a step's output finds its record in
one probe by its own series; nothing writes to that table once it is
made.  Its keys, sorted, are also the level's rows, so the order in
which a level's verdicts are made reaches no output, and the report
lists each class verdict with its number of rows.  With several worker
processes, each level's units are dealt to them in turn, and every
worker gets the table of the level below.  A level past MAX_SUBSETS,
where `verify` refuses every algebra, is its first series alone, taken
in closed form, and the sweep stops at the first such level.
"""

from __future__ import annotations

import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from multiprocessing import get_context
from typing import Iterator

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


def _necklaces(n: int, c_max: int) -> Iterator[tuple[int, ...]]:
    """The least rotations of the Kupisch series of length n with entries
    <= c_max, one per rotation class, in lexicographic order.

    A word is a necklace when it is the least of its rotations, and a
    prenecklace when it is a prefix of one.  If a_1..a_{t-1} is a
    prenecklace whose longest Lyndon prefix has length p, then a_1..a_t is
    one iff a_t >= a_{t-p}: equality keeps p and a larger entry sets p = t,
    and a prenecklace of length n is a necklace iff p divides n
    (Fredricksen and Maiorana, Discrete Math. 23, 1978; Ruskey, Savage and
    Wang, "Generating necklaces", J. Algorithms 13, 1992).  Every prefix of
    a series keeps the bounds `kupisch_series` counts under,
    max(1, a_{t-1} - 1) <= a_t <= min(c_max, a_1 + 1 + n - t), and a word
    that keeps them wraps, so each entry runs over the intersection of the
    two ranges and no word is tested.  A range can be empty, which ends a
    prefix that no series extends.  Recursion is n deep, and `_levels`
    calls this only for n <= 16."""
    a = [0] * (n + 1)  # a[0] = 0 is below every entry, so a_1 sets p = 1

    def extend(t: int, p: int) -> Iterator[tuple[int, ...]]:
        if t > n:
            if n % p == 0:
                yield tuple(a[1:])
            return
        top = min(c_max, a[1] + 1 + n - t) if t > 1 else c_max
        for v in range(max(1, a[t - 1] - 1, a[t - p]), top + 1):
            a[t] = v
            yield from extend(t + 1, p if v == a[t - p] else t)

    return extend(1, 1)


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
    `verify` seeded them with the ones it computed for the weights.  In a
    sweep's report it is the verdict of a rotation class, its algebra the
    class's key, and every row of the class refers to it; only a row's
    weights are read for the row (`_row_weights`)."""

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

    def _row_weights(self, c: tuple[int, ...]) -> tuple[int, ...]:
        """The weights of the algebra with series c, a rotation of this
        one, as `to_csv` writes them for a row of this verdict's class.
        They are listed by least vertex, so several distinct weights, which
        only a counterexample to SameWeight has, are read off the quiver of
        c when c is another rotation."""
        weights = self.weights
        if len(set(weights)) > 1 and c != self.algebra.kupisch:
            weights = resolution.weights(c)
        return weights

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
# least rotation, so the rows of one class share one record.  It is only
# read once made.
Table = dict[tuple[int, ...], AlgebraVerdict]


def verify(
    algebra: NakayamaAlgebra,
    checks: tuple[str, ...] = THEOREM_CHECKS,
    known: Table | None = None,
    mirror: AlgebraVerdict | None = None,
) -> AlgebraVerdict:
    """Compute every invariant of one algebra and test the requested named
    checks plus all structural self-checks.  Failures become entries in the
    verdict, never exceptions.  `known` is a sweep's table of the level
    below; the leaf checks and `Bprime` look the smaller algebras up there
    instead of rebuilding and reducing them.  `mirror` is the verdict of
    the opposite algebra's class, when the sweep has made it, whose
    label-free fields (see `_label_free`) are taken as the same objects.
    The relations are read as (start, length) pairs off the series, and no
    `Relation` is built."""
    c = algebra.kupisch
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
    # seed the cached `targets` with those the weights were computed from
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


# A report's row: its Kupisch series, and the verdict of its rotation class,
# whose algebra is the class's key or, in a report built from verdicts, the
# row's own.  No verdict is made for a row.
_Row = tuple[tuple[int, ...], AlgebraVerdict]


class TheoremReport:
    """The outcome of a sweep: its config, `rows`, its rows in output
    order, and `classes`, a (class verdict, row count) entry per class.  A
    row is its own Kupisch series and a reference to its class's verdict,
    so a report keeps one verdict per rotation class; `totals`, `ok` and
    `counterexamples` read `classes`, and the rows are walked only for the
    rows of a failing class.  `TheoremReport(config, verdicts)` builds a
    report with one row and one one-row entry per verdict, on the
    verdict's own series, so a verdict listed twice is two entries.
    `sweep` fills both lists level by level."""

    def __init__(self, config: SweepConfig, verdicts: list[AlgebraVerdict]):
        self.config = config
        self.rows: list[_Row] = [(v.algebra.kupisch, v) for v in verdicts]
        self.classes: list[tuple[AlgebraVerdict, int]] = [(v, 1) for v in verdicts]

    def __len__(self) -> int:
        """The number of rows."""
        return len(self.rows)

    @property
    def counterexamples(self) -> list[_Row]:
        """The rows whose class verdict fails a check, in row order."""
        failing = {id(v) for v, _ in self.classes if not v.ok}
        return [row for row in self.rows if id(row[1]) in failing] if failing else []

    @property
    def ok(self) -> bool:
        return all(v.ok for v, _ in self.classes)

    def totals(self) -> dict[tuple[int, str], int]:
        """Rows by n and algebra class, counted per class verdict: the
        algebra class counts the entries 1, which a rotation keeps."""
        out: dict[tuple[int, str], int] = {}
        for v, rows in self.classes:
            c = v.algebra.kupisch
            key = (len(c), AlgebraClass.of(c).value)
            out[key] = out.get(key, 0) + rows
        return out

    def to_dict(self) -> dict:
        counterexamples = self.counterexamples
        return {
            "config": self.config.to_dict(),
            "algebra_count": len(self.rows),
            "totals": [
                {"n": n, "class": cls, "count": count}
                for (n, cls), count in sorted(self.totals().items())
            ],
            "counterexamples": [
                {"algebra": NakayamaAlgebra(c).to_dict(), "failed": v.failed}
                for c, v in counterexamples
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


def _rotations(c: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every rotation of c, c itself first; a periodic c lists some twice."""
    return [c[k:] + c[:k] for k in range(len(c))]


def _least_rotation(c: tuple[int, ...]) -> tuple[int, ...]:
    """The least rotation of c, which starts at an occurrence of the least
    entry: only those rotations are built."""
    low = min(c)
    return min(c[k:] + c[:k] for k, x in enumerate(c) if x == low)


def _levels(config: SweepConfig):
    """The requested rotation classes one nonempty level (one n) at a
    time, as a list of units: each unit is a mirror orbit, the classes of
    an algebra A and of its opposite A^op (see `_mirror`), by their keys,
    each the least rotation of its series.  A unit is (c0, m0) when the
    mirror class is distinct, its key m0 the larger, and (c0,) when the
    class is its own mirror.

    The keys are the necklaces among the series, listed by `_necklaces`,
    and each is classified once.  The mirror class of a key c0 has the key
    m0, the least rotation of `_mirror(c0)` (`_least_rotation`); when
    m0 < c0, c0 is already in m0's unit.  Mirror classes share the class
    filter, as A^op kills as many arrows as A.

    Past MAX_SUBSETS station subsets `verify` refuses every algebra, so
    the first level past it is its first algebra alone, the least of the
    requested classes, and the levels end there: that algebra's refusal ends
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
        units: list[tuple[tuple[int, ...], ...]] = []
        if 2 ** n - 1 <= MAX_SUBSETS:
            for c0 in _necklaces(n, config.c_max):
                if AlgebraClass.of(c0) in config.classes:
                    m0 = _least_rotation(_mirror(c0))
                    if m0 > c0:
                        units.append((c0, m0))
                    elif m0 == c0:
                        units.append((c0,))
        else:
            # the least series of each class, (c_1, c_2, ..., c_2) as (c_1, c_2), least first;
            # the least series of its class is the least of its rotations
            least = [(1, 1)] + ([(1, 2), (2, 2)] if config.c_max >= 2 else [])
            first = [(h, t) for h, t in least if AlgebraClass.of((h, t, t)) in config.classes][:1]
            if first:
                check_vertices(n)
            units = [((h,) + (t,) * (n - 1),) for h, t in first]
        if units:
            yield units
        if 2 ** n - 1 > MAX_SUBSETS:
            return


def _verify_units(
    units: list[tuple[tuple[int, ...], ...]], checks: tuple[str, ...], known: Table
) -> list[AlgebraVerdict]:
    """The verdicts of the classes of `units`, with `known` the table of
    the level below.  The second class of a pair is handed the first's
    verdict as its `mirror`."""
    verdicts = []
    for c0, *pair in units:
        verdict = verify(NakayamaAlgebra(c0), checks, known)
        verdicts.append(verdict)
        for m0 in pair:
            verdicts.append(verify(NakayamaAlgebra(m0), checks, known, verdict))
    return verdicts


def sweep(config: SweepConfig, workers: int = 1) -> TheoremReport:
    """Verify every enumerated algebra; the rows are in enumeration order
    regardless of worker count.

    Only the least rotation of each Kupisch series, the class key that
    `_levels` lists, is verified, a mirror pair at a time: the second class
    of a pair takes the first's label-free fields.  The levels (one n each)
    run in order, and each level's units are verified with the table of the
    level below, where the leaf checks find the smaller algebras by their
    series: each class's verdict is keyed by every rotation of its key.
    Those keys, sorted, with their class's verdict, are the level's rows,
    so the table serves both, and each class's entry counts its distinct
    rotations.  The classes are listed in key order, that of their first
    rows, so the order in which the verdicts come back reaches no output.
    A row is its series and its class's verdict, so the report keeps one
    verdict per class and builds none per row (see `TheoremReport`).  On
    `workers` processes, each level's units are dealt to them in turn,
    every worker gets the table of the level below, and the next level is
    listed while they work."""
    report = TheoremReport(config, [])
    known: Table = {}
    levels = _levels(config)
    spawn = get_context("spawn")
    with (ProcessPoolExecutor(workers, mp_context=spawn) if workers > 1 else nullcontext()) as pool:
        units = next(levels, [])
        while units:
            if pool is None or len(units) < 2 * workers:
                parts = [_verify_units(units, config.checks, known)]
            else:
                shares = [units[i::workers] for i in range(workers)]
                parts = pool.map(_verify_units, shares, repeat(config.checks), repeat(known))
            units = next(levels, [])
            verdicts = sorted((v for part in parts for v in part), key=lambda v: v.algebra.kupisch)
            known = {c: v for v in verdicts for c in _rotations(v.algebra.kupisch)}
            report.rows += sorted(known.items())
            report.classes += [(v, len(set(_rotations(v.algebra.kupisch)))) for v in verdicts]
    return report


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
    """One row per report row under the CSV_COLUMNS header.

    Every column after `kupisch` depends only on gldim, the weights, the
    f-vector (through chi), the reduced Betti numbers, `hc_dims` and the
    failed checks, which the rows of a rotation class share but for the
    order of several distinct weights.  So each class verdict's text after
    the series is formatted once, when its first row is met, and each
    entry's word is made once, when the first class with that entry is
    met: a row is its n, its entries' words and its class's text.  A
    class whose weights differ, which only a counterexample to SameWeight
    has, formats each row's weights in that row's order.  No field needs
    CSV quoting: each is a number, numbers joined by spaces or `|`, or
    check names."""
    words: list[str] = []  # words[x] is the text of the entry x
    word = words.__getitem__
    tails: dict[int, str] = {}  # by class verdict; "" where each row has its own weights
    lines = [",".join(CSV_COLUMNS)]
    for c, v in report.rows:
        tail = tails.get(id(v))
        if tail is None:
            words += map(str, range(len(words), max(c) + 1))
            tail = tails[id(v)] = "," + _csv_tail(v, v.weights) if len(set(v.weights)) == 1 else ""
        lines.append(f"{len(c)},{' '.join(map(word, c))}{tail or ',' + _csv_tail(v, v._row_weights(c))}")
    lines.append("")
    return "\n".join(lines)


def _csv_tail(v: AlgebraVerdict, weights: tuple[int, ...]) -> str:
    """The CSV columns after `kupisch` of a row whose verdict is v and
    whose weights are `weights`, joined."""
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
