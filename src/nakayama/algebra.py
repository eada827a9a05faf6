"""Core data model for Nakayama algebras.

A Nakayama algebra of order n is the path algebra of the oriented n-cycle
(vertices 1..n, arrow x_i going i -> i+1, indices mod n) modulo a nonempty
irredundant set of monomial relations.  A relation is stored as
(start, length): the path x_start x_{start+1} ... of `length` arrows.
Length-1 relations kill an arrow, which disconnects the cycle; depending on
how many arrows die the algebra is cyclic, linear, or a product of linear
pieces.

The Kupisch series (c_1, ..., c_n), where c_i is the composition length of
the i-th indecomposable projective P_i, determines the algebra, and
`NakayamaAlgebra` stores nothing else: n is its length, the relations are
the composition series (i, c_i) with c_i <= c_{i+1}, and the class is read
off the number of entries c_i = 1.  One reader, `relation_pairs`, gives
the relations as (start, length) int pairs; the algebra's JSON and every
other request path read them there, and only `relations`, kept for
`validate`'s callers and library readers, builds `Relation`s, a
`NamedTuple` that orders and compares as its pair.  The record
trusts its series, so outside input enters through one of two
checked constructors: `validate` checks a relation list and computes its
series, and `algebra_from_kupisch` checks that a tuple is a Kupisch series,
then that it has at most MAX_VERTICES entries.  Both translations live
here, as does the global dimension, read off the syzygies of the simple
modules alone.  An algebra object keeps the facts it is asked for
through `NakayamaAlgebra.fact`, so a caller that asks one object many
questions (every leaf check of an algebra, then its gldim, quiver and
JSON) computes each of them once; the memo is the object's own and dies
with it.

The composition series of P_j runs forward from j until it completes a
relation: either the shortest relation starting at j, or, after the arrow
x_j, the first relation completed on the path from j + 1.  So

    c_j = min(shortest relation at j, c_{j+1} + 1),

indices mod n, and two backward passes around the cycle compute the series
in O(n + r).  With distinct starts, the relation (s, L) contains another
relation iff c_{s+1} < L.  The L - 1 arrows of (s, L) after x_s are a path
from s + 1, and every other relation it contains starts after s, so is
completed on that path; (s, L) itself is completed only n - 1 + L arrows
from s + 1.  `validate` reads redundancy off the series this way, with no
scan over pairs of relations.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, TypeVar

_T = TypeVar("_T")


class AlgebraError(ValueError):
    """Base class for invalid algebra data; `code` is machine-readable."""

    code = "invalid-algebra"


class RedundantRelationError(AlgebraError):
    code = "redundant-relation"


class DuplicateStartError(AlgebraError):
    code = "duplicate-start"


class EmptyRelationSetError(AlgebraError):
    code = "empty-relation-set"


class InvalidKupischError(AlgebraError):
    code = "invalid-kupisch"


class TooLargeError(AlgebraError):
    code = "too-large"


# The most candidate subsets the cyclic basis (2^n - 1 station subsets) or the
# relation complex (2^r - 1 relation subsets) may have; both are checked before
# any enumeration starts.  At n = 16, all 65,535 station subsets of rad^17 are
# basis cycles; its `verify` counts them without listing one and ranks its one
# critical cell, {1}, in about 0.4 ms (CPython 3.11.7, one core).
MAX_SUBSETS = 1 << 16
# The most quiver vertices any algebra may have; `check_vertices` refuses
# more, called first by `validate`, by `algebra_from_kupisch` right after its
# linear series check, and by a sweep before it builds a level's series,
# because n-sized tuples and 2^n-sized bounds cost memory before any other
# guard is reached.  `reduce` does work that grows with n^2: on the linear
# algebra with the one relation (1, 1) at n = 1,024, `reduce_fully` takes
# 0.2-0.3 s and the `reduce` command, writing 1,022 steps, 0.65-0.85 s.
# `global_dimension` visits each of the at most sum(c) syzygy states once:
# at n = 1,024 it takes about 1.2 ms on the series (2, ..., 2, 1), whose S_1
# has projective dimension 1,023, and 1.5 ms on (3, ..., 3, 2, 1) (CPython
# 3.11, one core).
MAX_VERTICES = 1 << 10


class AlgebraClass(enum.Enum):
    CYCLIC = "cyclic"
    LINEAR = "linear"
    PRODUCT_OF_LINEAR = "product-of-linear"

    @classmethod
    def of(cls, c) -> "AlgebraClass":
        """The class of the algebra with Kupisch series c, by its number of
        killed arrows (none, one, more): each entry c_i = 1 is one, the
        length-1 relation (i, 1)."""
        return (cls.CYCLIC, cls.LINEAR, cls.PRODUCT_OF_LINEAR)[min(c.count(1), 2)]


class Relation(NamedTuple):
    """Monomial relation: the path of `length` arrows starting at arrow `start`.

    Its arrow interval is {start, start+1, ..., start+length-1} taken mod n.
    Lengths greater than n are legal (the path wraps around the cycle more
    than once); they arise from valid Kupisch series and must round-trip.
    A tuple, so it orders by (start, length) and equals its plain pair.
    """

    start: int
    length: int

    def contains(self, other: "Relation", n: int) -> bool:
        """Is `other` a subword of this relation, cyclically?

        The subwords of length l of a path of length L start at offsets
        0..L-l, so containment holds iff (other.start - start) mod n fits
        in that window.  For L - l >= n every start fits, which is right:
        such a path passes every arrow with room to spare.
        """
        if other.length > self.length:
            return False
        return (other.start - self.start) % n <= self.length - other.length


def relation_pairs(c) -> list[tuple[int, int]]:
    """The minimal relations of the algebra with Kupisch series c, as
    (start, length) int pairs in start order.  The composition series of
    each projective is a relation; P_i gives a minimal one exactly when
    |P_i| <= |P_{i+1}|, indices mod n, so the pairs are (i, c_i) for each
    c_i <= c_{i+1}."""
    return [(i, ci) for i, (ci, after) in enumerate(zip(c, c[1:] + c[:1]), 1) if ci <= after]


@dataclass(frozen=True)
class NakayamaAlgebra:
    """The algebra with Kupisch series `kupisch`; every other attribute is
    derived from it when first read, and kept.  The constructor trusts its
    argument to be a valid series: outside input goes through `validate`
    or `algebra_from_kupisch`.

    The object is its own memo: each fact of the series read through
    `fact` is computed at most once per object, and dies with it.
    Equality, hashing and the repr read the series alone."""

    kupisch: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.kupisch)

    def fact(self, name: str, read: Callable[[tuple[int, ...]], _T]) -> _T:
        """`read(kupisch)`, computed the first time the fact `name` is asked
        for and kept in this object's `__dict__` under that name, as a
        `cached_property` keeps its value.  A read that raises keeps
        nothing, so a refusal is raised again on every call.  Without a
        lock, two threads may both compute a fact; `read` is a pure
        function of the series, so either keeps an equal value, and every
        reader sees one.  The facts are the relation pairs (`"pairs"`),
        Gustafson's targets (`"targets"`), the value of gldim (`"gldim"`)
        and a leaf check's compared fields of its input (`"compared"`);
        `harness.verify` reads none of them, so a verdict, which holds its
        algebra, carries no kept fact to or from a worker."""
        memo = self.__dict__
        if name in memo:
            return memo[name]
        value = memo[name] = read(self.kupisch)
        return value

    @cached_property
    def relations(self) -> tuple[Relation, ...]:
        """The minimal relations (see `relation_pairs`)."""
        return tuple(Relation(*p) for p in self.fact("pairs", relation_pairs))

    @cached_property
    def algebra_class(self) -> AlgebraClass:
        return AlgebraClass.of(self.kupisch)

    def to_dict(self) -> dict:
        return algebra_json(self.kupisch, self.fact("pairs", relation_pairs))


def algebra_json(c, pairs) -> dict:
    """The JSON of the algebra with Kupisch series c and relation pairs
    `pairs` (see `relation_pairs`): n and the relations as [start, length]
    lists.  A step's output JSON is written here off its series, with no
    algebra object built for it."""
    return {"n": len(c), "relations": [[i, l] for i, l in pairs]}


def check_vertices(n: int) -> None:
    """Raises TooLargeError for more than MAX_VERTICES vertices."""
    if n > MAX_VERTICES:
        raise TooLargeError(f"quiver size {n} is over {MAX_VERTICES}")


def validate(n: int, relations) -> NakayamaAlgebra:
    """Check raw relation data and return the algebra of its Kupisch series.

    Raises TooLargeError for more than MAX_VERTICES vertices,
    EmptyRelationSetError for an empty relation set (the path algebra
    of the full cycle is infinite dimensional), DuplicateStartError for two
    relations at one start vertex, and RedundantRelationError when one
    relation is a cyclic subword of another; the error names the first
    such pair in sorted order.
    """
    check_vertices(n)
    if n < 2:
        raise AlgebraError(f"quiver size must be at least 2, got {n}")
    rels = tuple(sorted(Relation(*r) for r in relations))
    if not rels:
        raise EmptyRelationSetError("a Nakayama algebra needs at least one relation")
    for rel in rels:
        if not 1 <= rel.start <= n:
            raise AlgebraError(f"relation start {rel.start} outside 1..{n}")
        if rel.length < 1:
            raise AlgebraError(f"relation length must be positive, got {rel.length}")
    # sorted, so the least repeated start is the first one equal to its successor
    dup = next((a.start for a, b in zip(rels, rels[1:]) if a.start == b.start), None)
    if dup is not None:
        raise DuplicateStartError(f"two relations start at vertex {dup}")
    c = kupisch_from_relations(n, rels)
    for a in rels:
        if c[a.start % n] < a.length:
            b = next(b for b in rels if b is not a and a.contains(b, n))
            raise RedundantRelationError(
                f"relation ({a.start},{a.length}) contains ({b.start},{b.length})"
            )
    return NakayamaAlgebra(c)


def radical_power_algebra(n: int, power: int) -> NakayamaAlgebra:
    """The cycle algebra with rad^power = 0: one length-`power` relation per vertex."""
    return validate(n, [(i, power) for i in range(1, n + 1)])


def kupisch_from_relations(n: int, relations) -> tuple[int, ...]:
    """Projective lengths c_j = |P_j| of the quotient of the n-cycle by a
    nonempty list of relations, `Relation`s or (start, length) pairs, with
    starts in 1..n; starts may repeat.

    c_j = min(shortest relation at j, c_{j+1} + 1).  Each entry starts as
    the shortest relation at its vertex and only ever shrinks to the length
    of a path that completes a relation.  The first backward pass from n
    leaves c_1 exact, as every relation starts at or after 1; the second,
    carrying on from c_1 to c_n, makes every entry exact.
    """
    c = [math.inf] * n
    for start, length in relations:
        c[start - 1] = min(c[start - 1], length)
    carry = math.inf  # c_{j+1}, the entry the pass set last
    for j in 2 * [*reversed(range(n))]:
        # min(c[j], carry + 1), written without a call, which would cost
        # more than the comparison in this loop over 2n entries
        carry = c[j] = c[j] if c[j] <= carry else carry + 1
    return tuple(c)


def is_valid_kupisch(c) -> bool:
    n = len(c)
    if n < 2 or any(ci < 1 for ci in c):
        return False
    return all(c[(i + 1) % n] >= c[i] - 1 for i in range(n))


def algebra_from_kupisch(c) -> NakayamaAlgebra:
    """The algebra with Kupisch series c.  Raises InvalidKupischError for
    a series that is not valid, then TooLargeError for more than
    MAX_VERTICES entries."""
    c = tuple(c)
    if not is_valid_kupisch(c):
        raise InvalidKupischError(f"not a Kupisch series: {list(c)}")
    check_vertices(len(c))
    return NakayamaAlgebra(c)


@dataclass(frozen=True)
class ProjDim:
    """Projective dimension: a nonnegative integer or infinity (value None)."""

    value: int | None

    @property
    def is_finite(self) -> bool:
        return self.value is not None

    def __str__(self) -> str:
        return "infinite" if self.value is None else f"finite ({self.value})"


def global_dimension(algebra: NakayamaAlgebra) -> ProjDim:
    """The largest projective dimension of the simple modules S_1..S_n,
    infinite if one of them has infinite projective dimension (see
    `_global_dimension`), computed once per algebra object (see
    `NakayamaAlgebra.fact`): a leaf check of the algebra keeps it too."""
    return ProjDim(algebra.fact("gldim", _global_dimension))


def _global_dimension(c: tuple[int, ...]) -> int | None:
    """The global dimension of the algebra with Kupisch series c, None when
    infinite, in one memoized pass over the syzygies of the simple modules.

    A state (t, l) is the uniserial module with top S_{t+1} and length l.
    Its syzygy, the kernel of its projective cover P_{t+1}, of length c_t,
    is the uniserial module that starts where it stops:
    Ω(t, l) = (t + l mod n, c_t - l), and a state with l == c_t is
    projective.  One memo maps each state visited, as the int
    l * n + t, to its projective dimension, or to -1 while it lies on the
    current walk.  The walk from each simple (t, 1) follows Ω until it
    reaches a projective (dimension 0) or a state already known, then gives
    each state on its path its dimension, walking back.  A state marked -1
    means the walk has come round to its own path: that resolution never
    ends.  So each state is visited once, in a loop without recursion.
    """
    n = len(c)
    memo: dict[int, int] = {}
    worst = 0
    for t in range(n):
        l, path = 1, []
        while True:
            key = l * n + t
            d = memo.get(key)
            if d is not None:
                if d < 0:
                    return None
                break
            c_t = c[t]
            if l == c_t:
                d = 0
                break
            memo[key] = -1
            path.append(key)
            t, l = (t + l) % n, c_t - l
        for key in reversed(path):
            d += 1
            memo[key] = d
        if d > worst:
            worst = d
    return worst
