"""Unamalgamation: removing a leaf of the resolution quiver.

If vertex j is a leaf of the resolution quiver, the step's output is
End(P) for P the sum of the projectives P_i, i != j: the algebra eAe with
e = 1 - e_j, again a Nakayama algebra, on a cycle with one vertex fewer.
Rotate the labels so that the leaf is n, and let c be the rotated series.
The projective of eAe at k < n is eP_k, the uniserial module P_k without
its copies of S_n.  P_k has the factors S_k, ..., S_{k+c_k-1}, indices mod
n, so those copies are the multiples of n in k..k+c_k-1, and

    c'_k = c_k - (k + c_k - 1) // n,    k = 1, ..., n - 1,

is the output's Kupisch series, read off the input's with n integer
operations.  The step's raw words, one per input relation, are the
relation words with every letter x_n erased, read off c' too.  The
relation at k < n is the path (k, c_k), whose letters x_n are those same
copies, so its raw word is (k, c'_k).  The relation at n, if there is one,
loses its first letter and (c_n - 1) // n more, and gets x_{n-1} prepended
so that it stays a path: its raw word is (n - 1, c_n - (c_n - 1) // n).
The raw words can be redundant; their minimal words are the relations of
c'.  `raw_words` reads them off (c, leaf, c') as (start, length) int
pairs, in input-relation order, and builds no `Relation`; the step JSON
and `harness.raw_complex_matches` take them.  The output does not read
them.

A step's JSON comes from one renderer, `_step_dict`, on (n, leaf, raw
words, output series): the output's relations are read once, as pairs
off its series, for its JSON and for the witnesses of the eliminated
words.  `UnamalgamationStep.to_dict`, `PropertyReport.to_dict` and
`ReductionResult.to_dict` all call it, so `unamalgamate` and `reduce`
build no step object; `.step` and `.steps` build them only when library
code reads them.

`reduce_fully` walks the series alone: at each step it reads the leaves
off Gustafson's targets, takes the least, and applies the rule above.  It
keeps the chain of (series, leaf) pairs, each step's output being the
next series of the chain, and its JSON renders each step from its link of
the chain.  So `reduce_fully(...).semisimple`, all that `verify`'s Bprime
reads, builds no step and no word.

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
A side whose record the caller holds (`verify`'s verdict of the input, or
a sweep's table entry for the output's series, the verdict of the least
rotation of its class) is read off that record as it is: none of these
fields but the targets depends on the labels, so an entry is not rotated.
The quiver match compares the output's targets with the input's, rotated
so that the leaf is n and relabelled the same way.

The check runs in one core, `_leaf_check`, on Kupisch tuples and ints: it
takes the input's series and targets, the leaf, the input's compared
fields, which a caller reads once for all the leaves of an algebra, and
the table, and returns the output's series and the four flags.  When the
table holds the output, it builds no algebra, step, report or word.
`verify` calls the core at each leaf, and goes on to `raw_words` and
`harness.raw_complex_matches`, so a sweep's leaf stage builds no step at
all; `check_properties` is the core plus a `PropertyReport`, whose JSON
is rendered from its series and leaf.  Replayed with the
serial `n<=8,c<=9` sweep's table, its 23,840 leaf checks take about
0.26 s, against 0.38 s when each check built its step (CPython 3.11, one
core).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

from . import relation_complex, resolution
from .algebra import AlgebraError, NakayamaAlgebra, global_dimension, relation_pairs

if TYPE_CHECKING:
    from .harness import AlgebraVerdict, Table


class NotALeafError(AlgebraError):
    code = "not-a-leaf"


class TooSmallError(AlgebraError):
    code = "too-small"


def relabel_map(n: int, leaf: int) -> tuple[int, ...]:
    """Rotation of 1..n sending the leaf, a vertex in 1..n, to n (entry i-1
    is the new name of i)."""
    return (*range(n - leaf + 1, n + 1), *range(1, n - leaf + 1))


def _witnesses(words, minimal, n: int) -> tuple[tuple[tuple[int, int], tuple[int, int]], ...]:
    """The words eliminated in favour of `minimal`, the minimal words of
    their Kupisch series on the n-cycle, all as (start, length) pairs
    (tuples, or two-item lists as in an algebra's JSON): in input order,
    every word but the first copy of each minimal word, with its witness,
    the minimal word it contains that is least by (length, start), each as
    a tuple.  (s, l) contains (t, k) iff k <= l and (t - s) mod n <= l - k."""
    unseen = dict(minimal)  # minimal words have distinct starts
    eliminated = []
    for s, l in words:
        if unseen.get(s) == l:
            del unseen[s]
        else:
            # a minimal word contains no other minimal word, so a repeated
            # kept word is its own witness
            witness = min(
                ((t, k) for t, k in minimal if k <= l and (t - s) % n <= l - k), key=lambda o: (o[1], o[0])
            )
            eliminated.append(((s, l), witness))
    return tuple(eliminated)


@dataclass(frozen=True)
class UnamalgamationStep:
    input: NakayamaAlgebra
    leaf: int
    raw_relations: tuple[tuple[int, int], ...]  # (start, length), index-parallel to input.relations
    output: NakayamaAlgebra

    @property
    def relabel(self) -> tuple[int, ...]:
        """The rotation of the labels that sends the leaf to n (see
        `relabel_map`)."""
        return relabel_map(self.input.n, self.leaf)

    @cached_property
    def eliminated(self) -> tuple[tuple[tuple[int, int], tuple[int, int]], ...]:
        """The raw words that are not the output's relations, each with its
        witness (see `_witnesses`); derived when first read."""
        return _witnesses(self.raw_relations, relation_pairs(self.output.kupisch), self.output.n)

    def to_dict(self) -> dict:
        return _step_dict(self.input.n, self.leaf, self.raw_relations, self.output.kupisch)


def _step_dict(n: int, leaf: int, raw: tuple[tuple[int, int], ...], out: tuple[int, ...]) -> dict:
    """The JSON of the step at `leaf` of an algebra on n vertices, with the
    raw words `raw` and the output series `out`.  The output's relations
    are read off `out` once, for its JSON and for the witnesses."""
    output = NakayamaAlgebra(out).to_dict()
    eliminated = _witnesses(raw, output["relations"], n - 1)
    return {
        "leaf": leaf,
        "relabel": list(relabel_map(n, leaf)),
        "raw_relations": [list(r) for r in raw],
        "output": output,
        "eliminated": [{"relation": list(z), "witness": list(w)} for z, w in eliminated],
    }


def unamalgamate(algebra: NakayamaAlgebra, leaf: int) -> UnamalgamationStep:
    _check_leaf(algebra.n, leaf, resolution.targets(algebra.kupisch))
    return _step(algebra, leaf, NakayamaAlgebra(_output_series(algebra.kupisch, leaf)))


def _check_leaf(n: int, leaf: int, targets) -> None:
    """Refuse a vertex that is not a leaf, given the values of Gustafson's
    function, and a quiver too small to lose one."""
    if not 1 <= leaf <= n:
        raise NotALeafError(f"vertex {leaf} is outside 1..{n}")
    # the leaves are the vertices that no arrow of the quiver targets
    if leaf in targets:
        raise NotALeafError(f"vertex {leaf} is a node of the resolution quiver, not a leaf")
    if n - 1 < 2:
        raise TooSmallError(f"cannot drop a vertex from a quiver of size {n}")


def _output_series(c: tuple[int, ...], leaf: int) -> tuple[int, ...]:
    """The Kupisch series of the step's output: c rotated so that the leaf
    is n, without its copies of S_n (see the module docstring)."""
    n = len(c)
    return tuple([ck - (k + ck - 1) // n for k, ck in enumerate(c[leaf:] + c[:leaf - 1], 1)])


def raw_words(c: tuple[int, ...], leaf: int, out: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """The raw words of the step at `leaf` from the series c, whose output
    series is `out`, as (start, length) pairs in input-relation order: the
    relation at i, present iff c_i <= c_{i+1}, has the relabelled start k,
    and its raw word is read off `out` at k, or off c_leaf at the leaf (see
    the module docstring)."""
    n, c_leaf = len(c), c[leaf - 1]
    return tuple([
        (k, out[k - 1]) if k < n else (n - 1, c_leaf - (c_leaf - 1) // n)
        for k, ci, after in zip(relabel_map(n, leaf), c, c[1:] + c[:1])
        if ci <= after
    ])


def _step(algebra: NakayamaAlgebra, leaf: int, output: NakayamaAlgebra) -> UnamalgamationStep:
    """The step at `leaf` whose output the caller has."""
    raw = raw_words(algebra.kupisch, leaf, output.kupisch)
    return UnamalgamationStep(input=algebra, leaf=leaf, raw_relations=raw, output=output)


def _compared(c: tuple[int, ...], f: tuple[int, ...], record: AlgebraVerdict | None) -> tuple:
    """What a leaf check compares of one side, the algebra with series c,
    none of it changed by a rotation of the labels: the sorted weights, the
    reduced Betti numbers, whether the relation complex is empty, and
    gldim.  Read off `record` when the caller has one; otherwise computed
    without an f-vector, f being Gustafson's function on c.  The relation
    complex is built all the same, so one past MAX_SUBSETS is refused."""
    if record is not None:
        return sorted(record.weights), record.betti, record.complex_empty, record.gldim
    algebra = NakayamaAlgebra(c)
    cx = relation_complex.build_complex(algebra)
    weights = sorted(resolution.weights(c, f))
    # the vertices are the relations of length <= n, none of whose interiors
    # covers the cycle, so the complex is empty iff it has no vertex
    return weights, relation_complex.reduced_betti(cx), not cx.masks, global_dimension(algebra)


def _leaf_check(c: tuple[int, ...], f: tuple[int, ...], leaf: int, before: tuple, known: Table | None) -> tuple:
    """The leaf check at `leaf`, a leaf of the series c with n >= 3: the
    output series and the four flags (quiver, weight, Betti numbers, gldim
    sandwich).  f is Gustafson's function on c, `before` the input's
    compared fields (see `_compared`), and `known` a table of records by
    series.  The output's fields are read off its entry in `known` when
    there is one, and nothing else is built; otherwise they are computed."""
    n = len(c)
    out = _output_series(c, leaf)
    f_out = resolution.targets(out)
    found = known.get(out) if known else None
    w_out, betti_out, empty_out, g_out = _compared(out, f_out, found)
    w_in, betti_in, empty_in, g_in = before
    # the output's vertex k is the input's leaf + k, mod n, and a target t
    # is relabelled to t - leaf, mod n, as `relabel_map` does
    quiver_match = f_out == tuple([(t - leaf - 1) % n + 1 for t in f[leaf:] + f[:leaf - 1]])
    # both finite and within two of each other, or both infinite
    a, b = g_in.value, g_out.value
    gldim_sandwich = (a is None) == (b is None) and (a is None or b <= a <= b + 2)
    return (
        out,
        quiver_match,
        w_in == w_out,
        (betti_in, empty_in) == (betti_out, empty_out),
        gldim_sandwich,
    )


@dataclass(frozen=True)
class PropertyReport:
    """The flags of the leaf check at `leaf` of `input`, whose output has
    the series `output_kupisch`.  Its JSON is rendered from the series and
    the leaf (see `_step_dict`); the step itself is built when first read,
    which only library code does."""

    input: NakayamaAlgebra
    leaf: int
    output_kupisch: tuple[int, ...]
    quiver_match: bool
    weight_match: bool
    betti_match: bool
    gldim_sandwich: bool

    @cached_property
    def step(self) -> UnamalgamationStep:
        return _step(self.input, self.leaf, NakayamaAlgebra(self.output_kupisch))

    @property
    def all_ok(self) -> bool:
        return self.quiver_match and self.weight_match and self.betti_match and self.gldim_sandwich

    def to_dict(self) -> dict:
        c, leaf, out = self.input.kupisch, self.leaf, self.output_kupisch
        return {
            **_step_dict(len(c), leaf, raw_words(c, leaf, out), out),
            "checks": {
                "quiver": self.quiver_match,
                "weight": self.weight_match,
                "betti": self.betti_match,
                "gldim": self.gldim_sandwich,
            },
        }


def check_properties(algebra: NakayamaAlgebra, leaf: int) -> PropertyReport:
    """Verify, on one unamalgamation step, that the smaller algebra keeps the
    resolution quiver (minus the leaf), the weight, the reduced Betti numbers
    of the relation complex, and a global dimension within two.  Both sides'
    fields are computed (see `_compared`), the output's targets read off its
    Kupisch series.  The flags are those of `_leaf_check`, which `verify`
    calls itself with its own record and a sweep's table; the report's
    JSON builds no step."""
    f = resolution.targets(algebra.kupisch)
    _check_leaf(algebra.n, leaf, f)
    out, *flags = _leaf_check(algebra.kupisch, f, leaf, _compared(algebra.kupisch, f, None), None)
    return PropertyReport(algebra, leaf, out, *flags)


@dataclass(frozen=True)
class ReductionResult:
    """A full reduction: the (series, leaf) pair of each step, in order,
    and `last`, the algebra it stops at, leafless or a two-vertex algebra
    with a leaf."""

    initial: NakayamaAlgebra
    chain: tuple[tuple[tuple[int, ...], int], ...]
    last: NakayamaAlgebra
    terminal_kupisch: tuple[int, ...]

    @property
    def terminal(self) -> NakayamaAlgebra | None:
        """`last`, or None when it collapsed to one vertex."""
        return None if len(self.terminal_kupisch) == 1 else self.last

    @cached_property
    def steps(self) -> tuple[UnamalgamationStep, ...]:
        """The steps, derived from the chain when first read, which
        `to_dict` does not do: each step's input is the output of the one
        before, and its output is the algebra of the next series, or
        `last`."""
        algebras = [self.initial, *(NakayamaAlgebra(c) for c, _ in self.chain[1:]), self.last]
        return tuple(_step(a, leaf, out) for a, (_, leaf), out in zip(algebras, self.chain, algebras[1:]))

    @property
    def semisimple(self) -> bool:
        return all(c == 1 for c in self.terminal_kupisch)

    def to_dict(self) -> dict:
        terminal = self.terminal
        # each step's output is the next series of the chain, or `last`'s
        outs = [*(c for c, _ in self.chain[1:]), self.last.kupisch]
        steps = [_step_dict(len(c), leaf, raw_words(c, leaf, out), out) for (c, leaf), out in zip(self.chain, outs)]
        return {
            "initial": self.initial.to_dict(),
            "steps": steps,
            "terminal": None if terminal is None else terminal.to_dict(),
            "terminal_kupisch": list(self.terminal_kupisch),
            "semisimple": self.semisimple,
        }


def reduce_fully(algebra: NakayamaAlgebra) -> ReductionResult:
    """Remove the minimal leaf until the resolution quiver is leafless,
    on the Kupisch series alone (see the module docstring).

    A two-vertex algebra with a leaf cannot stay inside the n >= 2 data
    model: dropping the leaf leaves a single projective P_v whose
    endomorphism algebra is K[x]/(x^ceil(c_v/2)) (the nonzero paths v -> v
    have the even lengths below c_v).  That last collapse is recorded via
    terminal_kupisch of length one, with terminal = None.
    """
    c, chain = algebra.kupisch, []
    while True:
        n = len(c)
        targets = set(resolution.targets(c))
        lvs = set(range(1, n + 1)).difference(targets)
        if not lvs or n == 2:
            break
        leaf = min(lvs)
        chain.append((c, leaf))
        c = _output_series(c, leaf)
    if lvs:  # two vertices and a leaf: collapse onto the node
        (node,) = targets
        terminal_kupisch = ((c[node - 1] + 1) // 2,)
    else:
        terminal_kupisch = c
    return ReductionResult(
        initial=algebra,
        chain=tuple(chain),
        last=NakayamaAlgebra(c) if chain else algebra,
        terminal_kupisch=terminal_kupisch,
    )
