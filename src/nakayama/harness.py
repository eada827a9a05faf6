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
                       input's, certified from interior bitmasks without
                       listing a simplex (`raw_complex_matches`)
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
distinct verdict.  A verdict is the one record kept per algebra: the
invariants, the checks, and what Bprime's reduction found.  The sweep
keeps the verdicts of the level below for the leaf checks and Bprime,
each class's verdict keyed by every series of the class, so that a step's
output finds its record in one probe by its own series; with several
worker processes, each level's classes are split between them and every
worker gets that table.  A level past MAX_SUBSETS, where `verify` refuses
every algebra, is its first series alone, taken in closed form, and the
sweep stops at the first such level.
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
# least rotation, so the rows of one class share one record.
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
    up there instead of rebuilding and reducing them."""
    cx = relation_complex.build_complex(algebra)
    # before the other invariants, so that a cyclic complex past MAX_SUBSETS is refused at once
    hc_dims = cyclic.hc_dimensions(algebra)
    f = resolution.targets(algebra.kupisch)
    verdict = AlgebraVerdict(
        algebra=algebra,
        weights=resolution.weights(algebra.kupisch, f),
        f_vector=cx.f_vector,
        betti=relation_complex.reduced_betti(cx),
        gldim=global_dimension(algebra),
        hc_dims=hc_dims,
        basis_sizes=cyclic.basis_sizes(algebra),
    )
    # seed the cached `targets`; a rotated verdict, a new instance, derives its own
    verdict.__dict__["targets"] = f
    results = verdict.checks
    weights, chi, betti, lvs = verdict.weights, verdict.chi, verdict.betti, verdict.leaves
    finite = verdict.gldim.is_finite

    # the leaf checks run first, so that Bprime can go on from the output of
    # the step at the least leaf, the first step of the full reduction.
    # They run on the series, through the core of `check_properties`, and
    # build no step.
    first_out = None
    if "UnamalgamationProps" in checks:
        props_ok = True
        if algebra.n >= 3 and lvs:
            c = algebra.kupisch
            before = unamalgamation._compared(c, f, verdict)
            for leaf in lvs:
                out, *flags = unamalgamation._leaf_check(c, f, leaf, before, known)
                props_ok = props_ok and all(flags) and raw_complex_matches(
                    c, leaf, unamalgamation.raw_words(c, leaf, out), cx
                )
                first_out = first_out or out

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
        expected = [1 if verdict.complex_empty else 0] + [
            betti[p - 1] if p - 1 < len(betti) else 0 for p in range(1, algebra.n)
        ]
        results["HCvsBetti"] = list(verdict.hc_dims) == expected
    if "Bprime" in checks:
        if finite:
            acyclic = not any(betti) and not verdict.complex_empty
            if acyclic:
                verdict.semisimple = _reduces_to_semisimple(algebra, first_out, known)
            results["Bprime"] = acyclic and verdict.semisimple
        else:
            results["Bprime"] = any(betti) or chi != 1
    if "UnamalgamationProps" in checks:
        results["UnamalgamationProps"] = props_ok

    results["RoundTrip"] = kupisch_from_relations(algebra.n, algebra.relations) == algebra.kupisch
    if verdict.complex_empty:
        euler_ok = chi == 0
    else:
        euler_ok = chi == 1 + linalg.alternating_sum(betti)
    results["EulerPoincare"] = euler_ok and relation_complex.cone_factorization_holds(cx)
    results["BoundarySquare"] = relation_complex.boundary_squares_to_zero(cx)
    results["CyclicSquare"] = cyclic.differential_squares_to_zero(algebra)
    results["HCEulerIdentity"] = verdict.hc_euler == 1 - chi == linalg.alternating_sum(verdict.basis_sizes)
    results["NodesEqualRelations"] = algebra.n - len(lvs) == len(algebra.relations)
    return verdict


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
    raw: tuple[tuple[int, int], ...],
    cx: relation_complex.SimplicialComplex,
) -> bool:
    """Is the complex built from the raw (possibly redundant) image relations
    `raw`, the (start, length) pairs of the step at `leaf` of the algebra
    with Kupisch series c, simplex for simplex `cx`, the relation complex of
    the input, under the index bijection between old and new relations?
    Certified in O(r) integer operations, without listing a simplex of
    either complex (the enumerating rule is kept as a test oracle).  The
    input's relations are read off c, as `build_complex` reads them: the
    relation at i is present iff c_i <= c_{i+1}, with length c_i.

    Relabel by the rotation that sends the leaf to n, as the step does.
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

    So this checks, reading the interiors off `cx`:
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
    Given 1 and 2, 3 holds iff the complexes match.  Raw words that break
    1 or 2 are refused, whatever the complex.
    """
    n = len(c)
    lengths = [ci for ci, after in zip(c, c[1:] + c[:1]) if ci <= after]
    old_idx = [i for i, length in enumerate(lengths) if length <= n]
    new_idx = [i for i, (_, length) in enumerate(raw) if length <= n - 1]
    masks = cx.masks
    if old_idx != new_idx or cx.n != n or len(masks) != len(new_idx):
        return False
    # the rotation sends bit b to b + shift mod n; `low` clears vertex n.
    # Each raw interior is `relation_complex.interior` on the (n-1)-cycle,
    # written out: the arc of bits start..start+length-2, folded mod n-1
    m = n - 1
    shift, low = n - leaf, (1 << m) - 1
    for i, mask in zip(new_idx, masks):
        start, length = raw[i]
        arc = ((1 << length - 1) - 1) << start
        if (arc | arc >> m) & low != (mask << shift | mask >> n - shift) & low:
            return False
    leaf_bit = 1 << leaf - 1
    union = 0
    for mask in masks:
        if not mask & leaf_bit:
            union |= mask
    return union != ((1 << n) - 1) ^ leaf_bit


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


def _levels(config: SweepConfig):
    """The enumerated algebras one nonempty level (one n) at a time, each
    with its class key, the least rotation of its series.

    A level walks `kupisch_series` once.  The series come in lexicographic
    order, so the first series of a rotation class to appear is its least
    rotation.  There the class is classified, once, and each of its other
    rotations is mapped to it, or to None when the class is filtered out.
    Every later series of the class takes its key from that map and leaves
    it, so the map holds only the rotations still to come.

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
        if 2 ** n - 1 <= MAX_SUBSETS:
            level, keys = [], []
            key_of: dict[tuple[int, ...], tuple[int, ...] | None] = {}
            for c in kupisch_series(n, config.c_max):
                if c in key_of:
                    c0 = key_of.pop(c)
                else:
                    c0 = c if AlgebraClass.of(c) in config.classes else None
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
            yield level, keys
        if 2 ** n - 1 > MAX_SUBSETS:
            return


def _verify_classes(
    algebras: list[NakayamaAlgebra], checks: tuple[str, ...], known: Table
) -> list[AlgebraVerdict]:
    return [verify(algebra, checks, known) for algebra in algebras]


def _start_level(pool, workers, algebras, checks, known) -> Callable[[], list[AlgebraVerdict]]:
    """Start verifying one level's classes; the returned function waits for
    their verdicts, in order.  With a pool, worker i takes every
    `workers`-th algebra from the i-th on, and every worker gets the table
    of the level below."""
    if pool is None or len(algebras) < 2 * workers:
        verdicts = _verify_classes(algebras, checks, known)
        return lambda: verdicts
    shares = [algebras[i::workers] for i in range(workers)]
    parts = pool.map(_verify_classes, shares, [checks] * workers, [known] * workers)

    def collect() -> list[AlgebraVerdict]:
        verdicts: list[AlgebraVerdict] = [None] * len(algebras)
        for i, part in enumerate(parts):
            verdicts[i::workers] = part
        return verdicts

    return collect


def sweep(config: SweepConfig, workers: int = 1) -> TheoremReport:
    """Verify every enumerated algebra; the verdict order is the enumeration
    order regardless of worker count.

    Only the least rotation of each Kupisch series is verified: the other
    rows of its rotation class find it by the class key `_levels` gives
    them and get its verdict, with their algebra swapped in (see
    `AlgebraVerdict.rotate`).  The levels (one n each) run in order, and
    each level's classes are verified with the table of the level below,
    where the leaf checks find the smaller algebras by their series: each
    row of a class is a key, and the rows of one class share its verdict.
    On `workers` processes, each level's classes are split between them,
    and the next level is enumerated while they work."""
    verdicts: list[AlgebraVerdict] = []
    known: Table = {}
    levels = _levels(config)
    spawn = get_context("spawn")
    with (ProcessPoolExecutor(workers, mp_context=spawn) if workers > 1 else nullcontext()) as pool:
        level, keys = next(levels, ([], []))
        while level:
            classes = [a for a, c0 in zip(level, keys) if a.kupisch == c0]
            collect = _start_level(pool, workers, classes, config.checks, known)
            upcoming = next(levels, ([], []))
            by_class = {a.kupisch: v for a, v in zip(classes, collect())}
            # a class is enumerated first at its least rotation, so every
            # row finds its class verified
            verdicts.extend(
                by_class[c0] if a.kupisch == c0 else by_class[c0].rotate(a)
                for a, c0 in zip(level, keys)
            )
            known = {a.kupisch: by_class[c0] for a, c0 in zip(level, keys)}
            level, keys = upcoming
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
    checks, which the rows of a rotation class share but for the order of
    several distinct weights.  So that text is formatted once for each
    distinct set of those values, keyed by the values themselves, and each
    row is `n,kupisch,` followed by it.  No field needs CSV quoting: each
    is a number, numbers joined by spaces or `|`, or check names."""
    tails: dict[tuple, str] = {}
    lines = [",".join(CSV_COLUMNS)]
    for v in report.verdicts:
        key = (v.gldim.value, v.weights, v.f_vector, v.betti, v.hc_dims, tuple(v.checks.items()))
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
