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

Rotating the vertex labels is an isomorphism, so `sweep` runs `verify` once
per rotation class, on the least rotation of the series, and gives that
verdict to the rows of the other rotations with their own algebra swapped
in.  It runs level by level in n, keeping the records of the level below
for the leaf checks; with several worker processes, each level's classes
are split between them and every worker gets that table.  A level past
MAX_SUBSETS, where `verify` refuses every algebra, is its first series
alone, taken in closed form, and the sweep stops at the first such level.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from multiprocessing import get_context
from typing import Callable, Iterator

from . import cyclic, linalg, relation_complex, unamalgamation
from .algebra import (
    MAX_SUBSETS,
    AlgebraClass,
    NakayamaAlgebra,
    check_vertices,
    kupisch_from_relations,
    least_rotation,
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

    The sequences with entries in 1..c_max and c_{i+1} >= c_i - 1 are
    counted off like an odometer: raise the last entry below c_max and
    reset every entry after it to its least value, max(1, c_{i-1} - 1).
    Every prefix extends, so this lists them in lexicographic order; the
    series are those that also wrap, c_1 >= c_n - 1.  A loop rather than
    recursion, as n may reach MAX_VERTICES."""
    if c_max < 1:
        return
    c = [1] * n
    while True:
        if c[0] >= c[-1] - 1:
            yield tuple(c)
        i = n - 1
        while i >= 0 and c[i] == c_max:
            i -= 1
        if i < 0:
            return
        c[i] += 1
        for j in range(i + 1, n):
            c[j] = max(1, c[j - 1] - 1)


def enumerate_kupisch(config: SweepConfig) -> Iterator[NakayamaAlgebra]:
    for n in range(config.n_min, config.n_max + 1):
        for c in kupisch_series(n, config.c_max):
            if AlgebraClass.of(c) in config.classes:
                yield NakayamaAlgebra(c)


@dataclass
class AlgebraVerdict:
    invariants: unamalgamation.Invariants
    hc_dims: tuple[int, ...]
    basis_sizes: tuple[int, ...]
    checks: dict[str, bool] = field(default_factory=dict)
    # reduce_fully(algebra).semisimple, when the Bprime check computed it
    semisimple: bool | None = None

    def rotate(self, algebra: NakayamaAlgebra) -> "AlgebraVerdict":
        """The verdict of `algebra`, a rotation of this algebra (see
        `Invariants.rotate`); all else is shared."""
        return AlgebraVerdict(
            self.invariants.rotate(algebra), self.hc_dims, self.basis_sizes, self.checks, self.semisimple
        )

    @property
    def hc_euler(self) -> int:
        return cyclic.hc_euler(self.hc_dims)

    @property
    def failed(self) -> list[str]:
        return [name for name, ok in self.checks.items() if not ok]

    @property
    def ok(self) -> bool:
        return not self.failed

    def to_dict(self) -> dict:
        inv = self.invariants
        return {
            "algebra": inv.algebra.to_dict(),
            "kupisch": list(inv.algebra.kupisch),
            "class": inv.algebra.algebra_class.value,
            "gldim": inv.gldim.value,
            "components": len(inv.weights),
            "weights": list(inv.weights),
            "leaves": list(inv.leaves),
            "chi": inv.chi,
            "f_vector": list(inv.f_vector),
            "reduced_betti": list(inv.betti),
            "complex_empty": inv.complex_empty,
            "hc_dims": list(self.hc_dims),
            "hc_euler": self.hc_euler,
            "basis_sizes": list(self.basis_sizes),
            "checks": dict(self.checks),
        }


def verify(
    algebra: NakayamaAlgebra,
    checks: tuple[str, ...] = THEOREM_CHECKS,
    known: unamalgamation.Table | None = None,
) -> AlgebraVerdict:
    """Compute every invariant of one algebra and test the requested named
    checks plus all structural self-checks.  Failures become entries in the
    verdict, never exceptions.  `known` is a sweep's table of the algebras
    verified before; the leaf checks and `Bprime` look the smaller algebras
    up there instead of rebuilding and reducing them."""
    cx = relation_complex.build_complex(algebra)
    # before the invariants, so that a cyclic complex past MAX_SUBSETS is refused at once
    hc_dims = cyclic.hc_dimensions(algebra)
    inv = unamalgamation.invariants(algebra, cx)
    verdict = AlgebraVerdict(invariants=inv, hc_dims=hc_dims, basis_sizes=cyclic.basis_sizes(algebra))
    results = verdict.checks
    weights, chi, betti, lvs = inv.weights, inv.chi, inv.betti, inv.leaves
    finite = inv.gldim.is_finite

    # the leaf checks run first, so that Bprime can go on from the step at
    # the least leaf, which is the first step of the full reduction
    first_step = None
    if "UnamalgamationProps" in checks:
        props_ok = True
        if algebra.n >= 3:
            for leaf in lvs:
                report = unamalgamation.check_properties(algebra, leaf, inv, known)
                props_ok = props_ok and report.all_ok and raw_complex_matches(report.step, cx)
                first_step = first_step or report.step

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
        expected = [1 if inv.complex_empty else 0] + [
            betti[p - 1] if p - 1 < len(betti) else 0 for p in range(1, algebra.n)
        ]
        results["HCvsBetti"] = list(verdict.hc_dims) == expected
    if "Bprime" in checks:
        if finite:
            acyclic = not any(betti) and not inv.complex_empty
            if acyclic:
                verdict.semisimple = _reduces_to_semisimple(algebra, first_step, known)
            results["Bprime"] = acyclic and verdict.semisimple
        else:
            results["Bprime"] = any(betti) or chi != 1
    if "UnamalgamationProps" in checks:
        results["UnamalgamationProps"] = props_ok

    results["RoundTrip"] = kupisch_from_relations(algebra.n, algebra.relations) == algebra.kupisch
    if inv.complex_empty:
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
    algebra: NakayamaAlgebra,
    first_step: unamalgamation.UnamalgamationStep | None,
    known: unamalgamation.Table | None,
) -> bool:
    """`reduce_fully(algebra).semisimple`.  After its first step, at the
    least leaf, the reduction goes on as the reduction of the step's output,
    so the output's entry in `known` answers when it holds the answer."""
    found = first_step and unamalgamation.look_up(known, first_step.output)
    if found and found[1] is not None:
        return found[1]
    return unamalgamation.reduce_fully(algebra).semisimple


def raw_complex_matches(
    step: unamalgamation.UnamalgamationStep, cx: relation_complex.SimplicialComplex
) -> bool:
    """Is the complex built from the raw (possibly redundant) image relations
    simplex for simplex `cx`, the relation complex of the input, under the
    index bijection between old and new relations?  Certified in O(r)
    integer operations, without listing a simplex of either complex (the
    enumerating rule is kept as a test oracle).

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
    Given 1 and 2, 3 holds iff the complexes match.  A step whose raw words
    break 1 or 2 is refused, whatever its complex.
    """
    n, leaf = step.input.n, step.leaf
    old_idx = [i for i, r in enumerate(step.input.relations) if r.length <= n]
    new_idx = [i for i, r in enumerate(step.raw_relations) if r.length <= n - 1]
    masks = cx.masks
    if old_idx != new_idx or cx.n != n or len(masks) != len(new_idx):
        return False
    # the rotation sends bit b to b + shift mod n; `low` clears vertex n
    shift, low = n - leaf, (1 << n - 1) - 1
    raw = step.raw_relations
    for i, mask in zip(new_idx, masks):
        if relation_complex.interior(raw[i], n - 1) != (mask << shift | mask >> n - shift) & low:
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
            key = (v.invariants.algebra.n, v.invariants.algebra.algebra_class.value)
            out[key] = out.get(key, 0) + 1
        return out

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "algebra_count": len(self.verdicts),
            "totals": [
                {"n": n, "class": cls, "count": count}
                for (n, cls), count in sorted(self.totals().items())
            ],
            "counterexamples": [
                {"algebra": v.invariants.algebra.to_dict(), "failed": v.failed}
                for v in self.counterexamples
            ],
            "ok": self.ok,
        }


def _levels(config: SweepConfig):
    """The enumerated algebras one nonempty level (one n) at a time, each
    with its least rotation.

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
            level = list(enumerate_kupisch(replace(config, n_min=n, n_max=n)))
        else:
            # the least series of each class, (c_1, c_2, ..., c_2) as (c_1, c_2), least first
            least = [(1, 1)] + ([(1, 2), (2, 2)] if config.c_max >= 2 else [])
            first = [(h, t) for h, t in least if AlgebraClass.of((h, t, t)) in config.classes][:1]
            if first:
                check_vertices(n)
            level = [NakayamaAlgebra((h,) + (t,) * (n - 1)) for h, t in first]
        if level:
            yield level, [least_rotation(a.kupisch) for a in level]
        if 2 ** n - 1 > MAX_SUBSETS:
            return


def _verify_classes(
    algebras: list[NakayamaAlgebra], checks: tuple[str, ...], known: unamalgamation.Table
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
    rows of its rotation class get its verdict, with their algebra swapped
    in.  The levels (one n each) run in order, and each level's classes are
    verified with the table of the level below, where the leaf checks find
    the smaller algebras.  On `workers` processes, each level's classes are
    split between them, and the next level is enumerated while they work."""
    verdicts: list[AlgebraVerdict] = []
    known: unamalgamation.Table = {}
    levels = _levels(config)
    spawn = get_context("spawn")
    with (ProcessPoolExecutor(workers, mp_context=spawn) if workers > 1 else nullcontext()) as pool:
        level, least = next(levels, ([], []))
        while level:
            classes = [a for a, c0 in zip(level, least) if a.kupisch == c0]
            collect = _start_level(pool, workers, classes, config.checks, known)
            upcoming = next(levels, ([], []))
            by_class = {a.kupisch: v for a, v in zip(classes, collect())}
            # a class is enumerated first at its least rotation, so every
            # row finds its class verified
            verdicts.extend(
                by_class[c0] if a.kupisch == c0 else by_class[c0].rotate(a)
                for a, c0 in zip(level, least)
            )
            known = {c0: (v.invariants, v.semisimple) for c0, v in by_class.items()}
            level, least = upcoming
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
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for v in report.verdicts:
        inv = v.invariants
        weights = inv.weights
        writer.writerow(
            [
                inv.algebra.n,
                " ".join(str(c) for c in inv.algebra.kupisch),
                "inf" if not inv.gldim.is_finite else str(inv.gldim.value),
                len(weights),
                str(weights[0]) if len(set(weights)) == 1 else "|".join(str(w) for w in weights),
                inv.chi,
                " ".join(str(b) for b in inv.betti),
                " ".join(str(d) for d in v.hc_dims),
                "ok" if v.ok else ";".join(v.failed),
            ]
        )
    return buf.getvalue()


def to_json(report: TheoremReport) -> str:
    return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
