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
c', and each of those is among them.  So a raw word is eliminated unless
it is the output's relation at its start and the first raw word that is:
(k, c'_k), k < n - 1, is kept iff c'_k <= c'_{k+1}, and only the start
n - 1 has two raw words, the one at k = n - 1 and the leaf's, kept only
the first of them that equals the output's relation (n - 1, c'_{n-1}),
present iff c'_{n-1} <= c'_1.  `_raw_words` lists the raw words off
(c, leaf, c') in one pass over the input's relations, as [start, length]
lists in input-relation order, together with the eliminated ones, and
builds no `Relation`; only an eliminated word is matched against the
output's relations, for its witness.  A step's JSON, its raw relations
and its eliminated words all come from that pass, and the JSON lists the
output's relations once, off c'.  `harness.raw_complex_matches` reads
each raw word off c' as it meets it, and the output does not read them.

A step is one record, `UnamalgamationStep(kupisch, leaf, output_kupisch)`:
the input series, the leaf and the output series.  Its algebras, its
relabelling, its raw words, its eliminated words and its JSON are all read
off those three fields.  `unamalgamate` returns one, a `PropertyReport`
holds one next to its four flags, and `reduce_fully` keeps one per step,
each step's output series being the next step's input series.  It walks
the series alone: at each step it reads the leaves off Gustafson's targets,
takes the least, and applies the rule above.  So
`reduce_fully(...).semisimple`, all that `verify`'s Bprime reads, builds
no word.

The construction preserves the resolution quiver (minus the leaf), the
common component weight, the reduced homology of the relation complex, and
changes the global dimension by at most two.  `check_properties` verifies
all four facts on one step; `reduce_fully` iterates to a leafless algebra.

A leaf check reads, on each side, only what it compares: the quiver's
targets, off the Kupisch series; the sorted weights, from one walk along
Gustafson's function that builds no component; the reduced Betti numbers,
ranked off the cells of one walk over the deletion of v, a cone being
walked not at all; whether the complex is empty, which it is iff no
relation has length <= n; and gldim.  A side computed without a record
builds no algebra and no `SimplicialComplex`: it reads the interiors off
its Kupisch series and ranks the walk's cells through the rules
`build_complex` and `reduced_betti` use, and reads gldim off the series.
A complex past MAX_SUBSETS is still refused, cone or not.  It computes no
f-vector.
A side whose record the caller holds (`verify`'s verdict of the input, or
a sweep's table entry for the output's series, the verdict of the least
rotation of its class) is read off that record as it is: none of these
fields but the targets depends on the labels, so an entry is not rotated.
The quiver match compares the output's targets with the input's, rotated
so that the leaf is n and relabelled the same way.

The check runs in one core, `_leaf_check`, on Kupisch tuples and ints: it
takes the input's series and targets, the leaf, the input's compared
fields, which a caller reads once for all the leaves of an algebra, and
the table, and returns the output's series and the four flags.  The
quiver match compares the targets entry by entry, in integer arithmetic,
and both sides' compared fields are read by `_compared`, off a record or
off the series.  So when the table holds the output, the output
series, which is also the table key, is the one series the core builds:
no targets, algebra, step, report or word.  `verify` runs every leaf
check of an algebra in one loop over its leaves, calling the core and
`harness.raw_complex_matches` on the output series at each, and stops at
the first leaf that fails; `check_properties` is the core on one leaf
plus a `PropertyReport`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from . import relation_complex, resolution
from .algebra import AlgebraError, NakayamaAlgebra, _global_dimension, relation_pairs

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


class UnamalgamationStep(NamedTuple):
    """The step at `leaf` from the series `kupisch` to the series
    `output_kupisch`; everything else is read off these three fields."""

    kupisch: tuple[int, ...]
    leaf: int
    output_kupisch: tuple[int, ...]

    @property
    def output(self) -> NakayamaAlgebra:
        return NakayamaAlgebra(self.output_kupisch)

    @property
    def relabel(self) -> tuple[int, ...]:
        """The rotation of the labels that sends the leaf to n (see
        `relabel_map`)."""
        return relabel_map(len(self.kupisch), self.leaf)

    @property
    def raw_relations(self) -> tuple[tuple[int, int], ...]:
        """The raw words, index-parallel to the input's relations (see
        `_raw_words`)."""
        return tuple([tuple(word) for word in _raw_words(*self)[0]])

    @property
    def eliminated(self) -> tuple[tuple[tuple[int, int], tuple[int, int]], ...]:
        """The raw words that are not the output's relations, each with its
        witness (see `_witness`)."""
        out = self.output_kupisch
        relations = relation_pairs(out)
        return tuple([(tuple(word), _witness(word, relations, len(out))) for word in _raw_words(*self)[1]])

    def to_dict(self) -> dict:
        """The step's JSON, from one pass over the input's relations.  The
        output's relations are listed once, for its JSON, and only the
        eliminated words are matched against them, for their witnesses."""
        c, leaf, out = self
        raw, eliminated = _raw_words(c, leaf, out)
        output = NakayamaAlgebra(out).to_dict()
        relations, m = output["relations"], len(out)
        return {
            "leaf": leaf,
            "relabel": list(relabel_map(len(c), leaf)),
            "raw_relations": raw,
            "output": output,
            "eliminated": [
                {"relation": list(word), "witness": list(_witness(word, relations, m))} for word in eliminated
            ],
        }


def unamalgamate(algebra: NakayamaAlgebra, leaf: int) -> UnamalgamationStep:
    c = algebra.kupisch
    _check_leaf(algebra.n, leaf, resolution.targets(c))
    return UnamalgamationStep(c, leaf, _output_series(c, leaf))


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


def _raw_words(c: tuple[int, ...], leaf: int, out: tuple[int, ...]) -> tuple[list[list[int]], list[list[int]]]:
    """The raw words of the step at `leaf` from the series c, whose output
    series is `out`, as [start, length] lists in input-relation order, and
    the eliminated ones among them, the same lists: every raw word but the
    first copy of each of the output's relations.  The relation at i,
    present iff c_i <= c_{i+1}, has the relabelled start k, and its raw
    word is (k, c'_k), read off `out`, or (n - 1, c_leaf - (c_leaf - 1) // n)
    at the leaf (see the module docstring).  (k, c'_k) is the output's
    relation at k iff c'_k <= c'_{k+1}, indices mod n - 1.  Only the start
    n - 1 has two raw words, the one at k = n - 1 and the leaf's, and the
    first of them that is the output's relation there is kept."""
    n = len(c)
    m = n - 1
    c_leaf = c[leaf - 1]
    free = out[m - 1] <= out[0]  # the output's relation at n - 1, until a raw word takes it
    raw, eliminated = [], []
    for i in range(n):
        if c[i] > c[i + 1 - n]:  # no relation at i + 1
            continue
        k = (i - leaf) % n + 1  # the start `relabel_map` gives i + 1
        if k < m:
            word = [k, out[k - 1]]
            kept = word[1] <= out[k]
        else:
            word = [m, out[m - 1] if k == m else c_leaf - (c_leaf - 1) // n]
            kept = free and word[1] == out[m - 1]
            free = free and not kept
        raw.append(word)
        if not kept:
            eliminated.append(word)
    return raw, eliminated


def _witness(word, relations, m: int):
    """The witness of the eliminated raw word `word`: the relation among
    `relations`, the output's on the m-cycle, that it contains, least by
    (length, start), all as (start, length) pairs.  (s, l) contains (t, k)
    iff k <= l and (t - s) mod m <= l - k.  A relation contains no other
    relation, so a repeated kept word is its own witness."""
    s, l = word
    return min(((t, k) for t, k in relations if k <= l and (t - s) % m <= l - k), key=lambda o: (o[1], o[0]))


def _compared(c: tuple[int, ...], f: tuple[int, ...] | None, record: AlgebraVerdict | None) -> tuple:
    """What a leaf check compares of one side, the algebra with series c,
    none of it changed by a rotation of the labels: the sorted weights, the
    reduced Betti numbers, whether the relation complex is empty, and the
    value of gldim (None when infinite).  Read off `record` when the caller
    has one, and f is then not read; otherwise computed off c and f,
    Gustafson's function on c, without an f-vector, an algebra or a
    `SimplicialComplex`: the interiors and the Betti numbers through the
    rules of `build_complex` and `reduced_betti`.  A complex past MAX_SUBSETS is refused, as
    `build_complex` refuses it."""
    if record is not None:
        return tuple(sorted(record.weights)), record.betti, record.complex_empty, record.gldim.value
    n = len(c)
    masks = relation_complex._interiors(c)
    relation_complex._check_size(len(masks))
    # no vertex, or a cone point: no cell, and no walk, as in `reduced_betti`
    betti = () if not masks or 0 in masks else relation_complex._betti(relation_complex._deletion_walk(n, masks)[1])
    weights = tuple(sorted(resolution.weights(c, f)))
    # the vertices are the relations of length <= n, none of whose interiors
    # covers the cycle, so the complex is empty iff it has no vertex
    return weights, betti, not masks, _global_dimension(c)


def _leaf_check(c: tuple[int, ...], f: tuple[int, ...], leaf: int, before: tuple, known: Table | None) -> tuple:
    """The leaf check at `leaf`, a leaf of the series c with n >= 3: the
    output series and the four flags (quiver, weight, Betti numbers, gldim
    sandwich).  f is Gustafson's function on c, `before` the input's
    compared fields (see `_compared`), and `known` a table of records by
    series.  The output's fields are read off its entry in `known` when
    there is one, and the output series is the one series built;
    otherwise they are computed."""
    n = len(c)
    m = n - 1
    out = _output_series(c, leaf)
    w_in, betti_in, empty_in, g_in = before
    found = known.get(out) if known else None
    w_out, betti_out, empty_out, g_out = _compared(out, None if found else resolution.targets(out), found)
    # entry by entry: the output's vertex k is the input's leaf + k, mod n,
    # with the target k + c'_k, mod n - 1, and the input's target t there
    # is relabelled to t - leaf, mod n, as `relabel_map` does
    quiver_match = True
    for k, ck in enumerate(out, 1):
        if (k + ck - 1) % m != (f[(leaf + k - 1) % n] - leaf - 1) % n:
            quiver_match = False
            break
    # both finite and within two of each other, or both infinite
    gldim_sandwich = (g_in is None) == (g_out is None) and (g_in is None or g_out <= g_in <= g_out + 2)
    return out, quiver_match, w_in == w_out, betti_in == betti_out and empty_in == empty_out, gldim_sandwich


@dataclass(frozen=True)
class PropertyReport:
    """The flags of the leaf check on `step`."""

    step: UnamalgamationStep
    quiver_match: bool
    weight_match: bool
    betti_match: bool
    gldim_sandwich: bool

    @property
    def all_ok(self) -> bool:
        return self.quiver_match and self.weight_match and self.betti_match and self.gldim_sandwich

    def to_dict(self) -> dict:
        """The step's JSON with the flags under "checks"."""
        step = self.step.to_dict()
        step["checks"] = {
            "quiver": self.quiver_match,
            "weight": self.weight_match,
            "betti": self.betti_match,
            "gldim": self.gldim_sandwich,
        }
        return step


def check_properties(algebra: NakayamaAlgebra, leaf: int) -> PropertyReport:
    """Verify, on one unamalgamation step, that the smaller algebra keeps the
    resolution quiver (minus the leaf), the weight, the reduced Betti numbers
    of the relation complex, and a global dimension within two.  Both sides'
    fields are computed off their Kupisch series (see `_compared`), the
    output's targets too.  The flags are those of `_leaf_check`, which `verify`
    calls itself with its own record and a sweep's table."""
    c = algebra.kupisch
    f = resolution.targets(c)
    _check_leaf(algebra.n, leaf, f)
    out, *flags = _leaf_check(c, f, leaf, _compared(c, f, None), None)
    return PropertyReport(UnamalgamationStep(c, leaf, out), *flags)


@dataclass(frozen=True)
class ReductionResult:
    """A full reduction: its steps, in order, each one's output series being
    the next one's input series."""

    initial: NakayamaAlgebra
    steps: tuple[UnamalgamationStep, ...]
    terminal_kupisch: tuple[int, ...]

    @property
    def last(self) -> NakayamaAlgebra:
        """The algebra the reduction stops at, leafless or a two-vertex
        algebra with a leaf: the last step's output, or `initial`."""
        return self.steps[-1].output if self.steps else self.initial

    @property
    def terminal(self) -> NakayamaAlgebra | None:
        """`last`, or None when it collapsed to one vertex."""
        return None if len(self.terminal_kupisch) == 1 else self.last

    @property
    def semisimple(self) -> bool:
        return all(c == 1 for c in self.terminal_kupisch)

    def to_dict(self) -> dict:
        """The reduction's JSON.  `terminal`, when there is one, is `last`,
        so its JSON is the last step's output JSON, or the initial one,
        listed once."""
        initial = self.initial.to_dict()
        steps = [step.to_dict() for step in self.steps]
        last = steps[-1]["output"] if steps else initial
        return {
            "initial": initial,
            "steps": steps,
            "terminal": None if len(self.terminal_kupisch) == 1 else last,
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
    c, steps = algebra.kupisch, []
    while True:
        n = len(c)
        targets = set(resolution.targets(c))
        lvs = set(range(1, n + 1)).difference(targets)
        if not lvs or n == 2:
            break
        leaf = min(lvs)
        out = _output_series(c, leaf)
        steps.append(UnamalgamationStep(c, leaf, out))
        c = out
    if lvs:  # two vertices and a leaf: collapse onto the node
        (node,) = targets
        terminal_kupisch = ((c[node - 1] + 1) // 2,)
    else:
        terminal_kupisch = c
    return ReductionResult(initial=algebra, steps=tuple(steps), terminal_kupisch=terminal_kupisch)
