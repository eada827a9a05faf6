"""Unamalgamation: removing a leaf of the resolution quiver.

If vertex j is a leaf of the resolution quiver, the endomorphism algebra of
the sum of the other projectives is again a Nakayama algebra, on a cycle
with one vertex fewer.  Combinatorially (after rotating labels so the leaf
is n): delete every occurrence of the letter x_n from each relation word,
and prepend x_{n-1} to a relation that started at n.  The resulting list
can be redundant; dropping the redundant words gives the new algebra.

The construction preserves the resolution quiver (minus the leaf), the
common component weight, the reduced homology of the relation complex, and
changes the global dimension by at most two.  `check_properties` verifies
all four facts on one step; `reduce_fully` iterates to a leafless algebra.

A leaf check reads, on each side, only what it compares: the quiver's
targets, off the Kupisch series; the sorted weights, from one walk along
Gustafson's function that builds no component; the reduced Betti numbers,
for which the relation complex is built, so one past MAX_SUBSETS is
refused, and a cone is not enumerated; whether the complex is empty, which
it is iff no relation has length <= n; and gldim.  It computes no f-vector.
A side whose `Invariants` the caller holds (`verify`'s record of the
input, or a sweep's table entry for the output's rotation class) is read
off that record as it is: none of these fields but the targets depends on
the labels, so the entry is not rotated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import linalg, relation_complex, resolution
from .algebra import (
    AlgebraError,
    NakayamaAlgebra,
    ProjDim,
    Relation,
    global_dimension,
    kupisch_from_relations,
    least_rotation,
)


class NotALeafError(AlgebraError):
    code = "not-a-leaf"


class TooSmallError(AlgebraError):
    code = "too-small"


def relabel_map(n: int, leaf: int) -> tuple[int, ...]:
    """Rotation of 1..n sending the leaf, a vertex in 1..n, to n (entry i-1
    is the new name of i)."""
    return (*range(n - leaf + 1, n + 1), *range(1, n - leaf + 1))


def delete_last_arrow(rel: Relation, n: int) -> Relation:
    """Image of one relation word under deleting all occurrences of x_n,
    prepending x_{n-1} when the word starts at n; lives on the (n-1)-cycle."""
    first = (n - rel.start) % n
    occurrences = 0 if first >= rel.length else (rel.length - 1 - first) // n + 1
    if rel.start == n:
        return Relation(n - 1, rel.length - occurrences + 1)
    return Relation(rel.start, rel.length - occurrences)


def eliminate_redundant(relations, n: int) -> tuple[tuple[Relation, ...], tuple[tuple[Relation, Relation], ...]]:
    """Drop every relation that contains another one as a cyclic subword.

    The input is a list of relations on the n-cycle, n >= 2, with starts in
    1..n and lengths >= 1, which is what `delete_last_arrow` yields; starts
    and whole words may repeat.  Anything else raises ValueError.

    The survivors are exactly the minimal words, so the outcome does not
    depend on the order of deletion.  They generate the same ideal as the
    input, so they are the relations of its Kupisch series.  Returns
    (kept, eliminated): every input word but the first copy of each kept
    word is eliminated, in input order, with its witness, the kept word it
    contains that is least by (length, start).
    """
    rels = [r if isinstance(r, Relation) else Relation(*r) for r in relations]
    for r in rels:
        if not (1 <= r.start <= n and r.length >= 1):
            raise ValueError(f"relation ({r.start},{r.length}) is not a word on the {n}-cycle")
    if not rels:
        return (), ()
    minimal = NakayamaAlgebra(kupisch_from_relations(n, rels)).relations
    return minimal, _witnesses(rels, minimal, n)


def _witnesses(words, minimal, n: int) -> tuple[tuple[Relation, Relation], ...]:
    """The words eliminated in favour of `minimal`, the minimal words of
    their Kupisch series, with their witnesses (see `eliminate_redundant`)."""
    unseen = {o.start: o.length for o in minimal}  # minimal words have distinct starts
    eliminated = []
    for r in words:
        if unseen.get(r.start) == r.length:
            del unseen[r.start]
        else:
            # a minimal word contains no other minimal word, so a repeated
            # kept word is its own witness
            witness = min(
                (o for o in minimal if r.contains(o, n)), key=lambda o: (o.length, o.start)
            )
            eliminated.append((r, witness))
    return tuple(eliminated)


@dataclass(frozen=True)
class UnamalgamationStep:
    input: NakayamaAlgebra
    leaf: int
    relabel: tuple[int, ...]
    raw_relations: tuple[Relation, ...]  # index-parallel to input.relations
    output: NakayamaAlgebra

    @cached_property
    def eliminated(self) -> tuple[tuple[Relation, Relation], ...]:
        """The raw words that are not the output's relations, each with its
        witness (see `eliminate_redundant`); derived when first read, which
        only `to_dict` does."""
        return _witnesses(self.raw_relations, self.output.relations, self.output.n)

    def to_dict(self) -> dict:
        return {
            "leaf": self.leaf,
            "relabel": list(self.relabel),
            "raw_relations": [[r.start, r.length] for r in self.raw_relations],
            "output": self.output.to_dict(),
            "eliminated": [
                {"relation": [z.start, z.length], "witness": [w.start, w.length]}
                for z, w in self.eliminated
            ],
        }


def unamalgamate(algebra: NakayamaAlgebra, leaf: int) -> UnamalgamationStep:
    return _unamalgamate(algebra, leaf, resolution.targets(algebra.kupisch))


def _unamalgamate(algebra: NakayamaAlgebra, leaf: int, targets) -> UnamalgamationStep:
    """`unamalgamate`, given the values of Gustafson's function on
    `algebra`."""
    n = algebra.n
    if not 1 <= leaf <= n:
        raise NotALeafError(f"vertex {leaf} is outside 1..{n}")
    # the leaves are the vertices that no arrow of the quiver targets
    if leaf in targets:
        raise NotALeafError(f"vertex {leaf} is a node of the resolution quiver, not a leaf")
    if n - 1 < 2:
        raise TooSmallError(f"cannot drop a vertex from a quiver of size {n}")
    phi = relabel_map(n, leaf)
    reindexed = [Relation(phi[rel.start - 1], rel.length) for rel in algebra.relations]
    raw = tuple(delete_last_arrow(rel, n) for rel in reindexed)
    # the raw words keep `eliminate_redundant`'s contract, so their series
    # is the output's, and its relations are the kept words
    output = NakayamaAlgebra(kupisch_from_relations(n - 1, raw))
    return UnamalgamationStep(
        input=algebra,
        leaf=leaf,
        relabel=phi,
        raw_relations=raw,
        output=output,
    )


@dataclass(frozen=True)
class Invariants:
    """What both finiteness criteria read off one algebra, kept small because
    a sweep keeps one per algebra: the resolution quiver's weights, the
    relation complex's f-vector and reduced Betti numbers, and gldim.  The
    quiver's targets are read off the algebra's Kupisch series when first
    read, unless `invariants` seeded them with the ones it computed for
    the weights."""

    algebra: NakayamaAlgebra
    weights: tuple[int, ...]
    f_vector: tuple[int, ...]
    betti: tuple[int, ...]
    gldim: ProjDim

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

    def rotate(self, algebra: NakayamaAlgebra) -> "Invariants":
        """The invariants of `algebra`, a rotation of this algebra: only the
        labels differ.  The weights are listed by least vertex, so several
        distinct weights, which only a counterexample to SameWeight has,
        are read off the rotated quiver."""
        weights = self.weights
        if len(set(weights)) > 1:
            weights = resolution.weights(algebra.kupisch)
        return Invariants(algebra, weights, self.f_vector, self.betti, self.gldim)


# What a sweep keeps of each algebra it has verified, under the least rotation
# of its Kupisch series: the invariants, and `reduce_fully(...).semisimple`
# when the verification computed it (None otherwise).
Table = dict[tuple[int, ...], tuple[Invariants, bool | None]]


def look_up(known: Table | None, algebra: NakayamaAlgebra) -> tuple[Invariants, bool | None] | None:
    """The entry for the rotation class of `algebra` as it is, its record
    under the least rotation, or None when `known` has no entry."""
    return known.get(least_rotation(algebra.kupisch)) if known else None


def invariants(
    algebra: NakayamaAlgebra, cx: relation_complex.SimplicialComplex | None = None
) -> Invariants:
    """The invariants of `algebra`; `cx`, its relation complex, is built
    unless the caller has it already."""
    if cx is None:
        cx = relation_complex.build_complex(algebra)
    f = resolution.targets(algebra.kupisch)
    inv = Invariants(
        algebra=algebra,
        weights=resolution.weights(algebra.kupisch, f),
        f_vector=cx.f_vector,
        betti=relation_complex.reduced_betti(cx),
        gldim=global_dimension(algebra),
    )
    # seed the cached `targets`; a rotated record, a new instance, derives
    # its own
    inv.__dict__["targets"] = f
    return inv


def _compared(algebra: NakayamaAlgebra, f: tuple[int, ...], inv: Invariants | None) -> tuple:
    """What a leaf check compares of one side, none of it changed by a
    rotation of the labels: the sorted weights, the reduced Betti numbers,
    whether the relation complex is empty, and gldim.  Read off `inv` when
    the caller has the record; otherwise computed without an f-vector, f
    being Gustafson's function on `algebra`.  The relation complex is built
    all the same, so one past MAX_SUBSETS is refused."""
    if inv is not None:
        return sorted(inv.weights), inv.betti, inv.complex_empty, inv.gldim
    cx = relation_complex.build_complex(algebra)
    weights = sorted(resolution.weights(algebra.kupisch, f))
    # the vertices are the relations of length <= n, none of whose interiors
    # covers the cycle, so the complex is empty iff it has no vertex
    return weights, relation_complex.reduced_betti(cx), not cx.masks, global_dimension(algebra)


@dataclass(frozen=True)
class PropertyReport:
    step: UnamalgamationStep
    quiver_match: bool
    weight_match: bool
    betti_match: bool
    gldim_sandwich: bool

    @property
    def all_ok(self) -> bool:
        return self.quiver_match and self.weight_match and self.betti_match and self.gldim_sandwich

    def to_dict(self) -> dict:
        return {
            **self.step.to_dict(),
            "checks": {
                "quiver": self.quiver_match,
                "weight": self.weight_match,
                "betti": self.betti_match,
                "gldim": self.gldim_sandwich,
            },
        }


def check_properties(
    algebra: NakayamaAlgebra,
    leaf: int,
    before: Invariants | None = None,
    known: Table | None = None,
) -> PropertyReport:
    """Verify, on one unamalgamation step, that the smaller algebra keeps the
    resolution quiver (minus the leaf), the weight, the reduced Betti numbers
    of the relation complex, and a global dimension within two.  `before`
    holds the invariants of `algebra` when the caller has them already;
    the smaller algebra's entry is looked up in `known`, under its least
    rotation, before its fields are computed.  Only fields that no rotation
    changes are read off that entry (see `_compared`); the output's targets
    are read off its Kupisch series."""
    f_before = resolution.targets(algebra.kupisch) if before is None else before.targets
    step = _unamalgamate(algebra, leaf, f_before)
    f_after = resolution.targets(step.output.kupisch)
    found = look_up(known, step.output)
    w_before, betti_before, empty_before, g_in = _compared(algebra, f_before, before)
    w_after, betti_after, empty_after, g_out = _compared(step.output, f_after, found[0] if found else None)

    phi = step.relabel
    quiver_match = all(
        f_after[phi[i - 1] - 1] == phi[f_before[i - 1] - 1]
        for i in range(1, algebra.n + 1)
        if i != leaf
    )
    if g_in.is_finite != g_out.is_finite:
        gldim_sandwich = False
    elif g_in.is_finite:
        gldim_sandwich = g_out.value <= g_in.value <= g_out.value + 2
    else:
        gldim_sandwich = True
    return PropertyReport(
        step=step,
        quiver_match=quiver_match,
        weight_match=w_before == w_after,
        betti_match=(betti_before, empty_before) == (betti_after, empty_after),
        gldim_sandwich=gldim_sandwich,
    )


@dataclass(frozen=True)
class ReductionResult:
    initial: NakayamaAlgebra
    steps: tuple[UnamalgamationStep, ...]
    terminal: NakayamaAlgebra | None
    terminal_kupisch: tuple[int, ...]

    @property
    def semisimple(self) -> bool:
        return all(c == 1 for c in self.terminal_kupisch)

    def to_dict(self) -> dict:
        return {
            "initial": self.initial.to_dict(),
            "steps": [step.to_dict() for step in self.steps],
            "terminal": None if self.terminal is None else self.terminal.to_dict(),
            "terminal_kupisch": list(self.terminal_kupisch),
            "semisimple": self.semisimple,
        }


def reduce_fully(algebra: NakayamaAlgebra) -> ReductionResult:
    """Remove the minimal leaf until the resolution quiver is leafless.

    A two-vertex algebra with a leaf cannot stay inside the n >= 2 data
    model: dropping the leaf leaves a single projective P_v whose
    endomorphism algebra is K[x]/(x^ceil(c_v/2)) (the nonzero paths v -> v
    have the even lengths below c_v).  That last collapse is recorded via
    terminal_kupisch of length one, with terminal = None.
    """
    current = algebra
    steps: list[UnamalgamationStep] = []
    while True:
        n = current.n
        targets = set(resolution.targets(current.kupisch))
        lvs = set(range(1, n + 1)).difference(targets)
        if not lvs or n == 2:
            break
        step = _unamalgamate(current, min(lvs), targets)
        steps.append(step)
        current = step.output
    if lvs:  # two vertices and a leaf: collapse onto the node
        (node,) = targets
        terminal, terminal_kupisch = None, ((current.kupisch[node - 1] + 1) // 2,)
    else:
        terminal, terminal_kupisch = current, current.kupisch
    return ReductionResult(
        initial=algebra,
        steps=tuple(steps),
        terminal=terminal,
        terminal_kupisch=terminal_kupisch,
    )
