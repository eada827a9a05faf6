"""The leaf steps and checks by their first rules, kept as oracles.

`word_path` is a step's raw words and output series by the word path:
relabel each relation, delete x_n from it with `delete_last_arrow`, and
take the series of the words.  `delete_last_arrow` counts the letters x_n
by floor division, `delete_letters` deletes them from one word letter by
letter, and `eliminate_redundant` gives the minimal words of any list of
such words, with the witness of each word it drops.  `algebra_dict` is
an algebra's JSON rendered from its `Relation`s, not by its `to_dict`,
which it is the oracle of.  `step_dict` is a step's JSON by the word path,
and `reduction_dict` is
`reduce_fully(...).to_dict()` by the word path, with the leaves read off
the resolution quiver at every step.  `check_properties` is
`unamalgamation.check_properties` with a full `record` on both sides,
listed f-vector and all, built here and not by `verify`, whose leaf checks
it is the oracle of, a table entry relabelled onto the step's output by
`relabel`, and the step's JSON by the word path.  `relabel` is also the
oracle of a sweep's row: its class's verdict read onto the row's own
series.
`raw_complex_matches` is the word-taking form of
`harness.raw_complex_matches`, by enumeration: it takes the raw image
words themselves, not the output series they are read off, lists every
simplex of their complex and compares them with the given complex's."""

from dataclasses import dataclass, replace

from enumeration_oracle import least_rotation, mod1
from nakayama import resolution
from nakayama.algebra import NakayamaAlgebra, Relation, global_dimension, kupisch_from_relations
from nakayama.harness import AlgebraVerdict
from nakayama.relation_complex import build_complex, interior, reduced_betti, simplex_levels
from nakayama.resolution import build, leaves
from nakayama.unamalgamation import relabel_map


def delete_last_arrow(rel, n):
    """Image of one relation word under deleting all occurrences of x_n,
    prepending x_{n-1} when the word starts at n; lives on the (n-1)-cycle.
    The word passes x_n once per multiple of n in start..start+length-1."""
    length = rel.length - (rel.start + rel.length - 1) // n
    if rel.start == n:
        return Relation(n - 1, length + 1)
    return Relation(rel.start, length)


def delete_letters(rel, n):
    """`delete_last_arrow` letter by letter: walk the word, drop each x_n,
    and prepend x_{n-1} when the word starts at n."""
    letters = [a for a in (mod1(rel.start + t, n) for t in range(rel.length)) if a != n]
    if rel.start == n:
        letters.insert(0, n - 1)
    return Relation(letters[0], len(letters))


def word_path(algebra, leaf):
    """The raw words of the step at `leaf`, in input-relation order, and
    the Kupisch series of its output, from the relation words: relabel so
    that the leaf is n, apply `delete_last_arrow`, and take the series of
    the words."""
    n = algebra.n
    phi = relabel_map(n, leaf)
    words = tuple(delete_last_arrow(Relation(phi[r.start - 1], r.length), n) for r in algebra.relations)
    return words, kupisch_from_relations(n - 1, words)


def eliminate_redundant(relations, n):
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
    unseen = set(minimal)  # the first copy of each minimal word is kept
    eliminated = []
    for r in rels:
        if r in unseen:
            unseen.remove(r)
        else:
            witness = min((o for o in minimal if r.contains(o, n)), key=lambda o: (o.length, o.start))
            eliminated.append((r, witness))
    return minimal, tuple(eliminated)


def algebra_dict(algebra):
    """The JSON of `algebra`, rendered from its `Relation`s."""
    return {"n": algebra.n, "relations": [[r.start, r.length] for r in algebra.relations]}


def step_dict(algebra, leaf):
    """The JSON of the step at `leaf` by the word path, and its output."""
    words, series = word_path(algebra, leaf)
    output = NakayamaAlgebra(series)
    return {
        "leaf": leaf,
        "relabel": list(relabel_map(algebra.n, leaf)),
        "raw_relations": [[r.start, r.length] for r in words],
        "output": algebra_dict(output),
        "eliminated": [
            {"relation": [z.start, z.length], "witness": [w.start, w.length]}
            for z, w in eliminate_redundant(words, algebra.n - 1)[1]
        ],
    }, output


def reduction_dict(algebra):
    """The JSON of the full reduction of `algebra`, each step at the least
    leaf by the word path, until no leaf is left or two vertices are: then
    a leaf collapses the algebra onto its node v, K[x]/(x^ceil(c_v/2))."""
    current, steps = algebra, []
    while True:
        n, lvs = current.n, leaves(build(current))
        if not lvs or n == 2:
            break
        step, current = step_dict(current, min(lvs))
        steps.append(step)
    if lvs:
        (node,) = set(build(current).f)
        terminal, terminal_kupisch = None, [(current.kupisch[node - 1] + 1) // 2]
    else:
        terminal, terminal_kupisch = algebra_dict(current), list(current.kupisch)
    return {
        "initial": algebra_dict(algebra),
        "steps": steps,
        "terminal": terminal,
        "terminal_kupisch": terminal_kupisch,
        "semisimple": all(c == 1 for c in terminal_kupisch),
    }


def record(algebra):
    """The record of `algebra` from the quiver and the complex themselves:
    the targets and weights of `resolution.build`, the f-vector listed off
    the simplices of `build_complex`, its `reduced_betti`, and
    `global_dimension`.  No leaf check reads the cyclic fields, so they are
    left empty."""
    rq, cx = build(algebra), build_complex(algebra)
    f_vector = tuple(len(level) for level in cx.simplices)
    rec = AlgebraVerdict(algebra, rq.weights, f_vector, reduced_betti(cx), global_dimension(algebra), (), ())
    rec.__dict__["targets"] = rq.f
    return rec


def relabel(verdict, algebra):
    """`verdict`, the verdict of a rotation of `algebra`, read onto
    `algebra`: the fields that read no label and the checks as they are,
    and the targets, the leaves and the weights, listed by least vertex,
    off the series of `algebra` itself."""
    return replace(verdict, algebra=algebra, weights=resolution.weights(algebra.kupisch))


def look_up(known, algebra):
    """The record of `algebra`, relabelled from the entry for its rotation
    class, or None when `known` has no entry."""
    if not known:
        return None
    entry = known.get(least_rotation(algebra.kupisch))
    return None if entry is None else relabel(entry, algebra)


@dataclass(frozen=True)
class Report:
    """The four flags of a leaf check and the step's JSON."""

    step: dict
    quiver_match: bool
    weight_match: bool
    betti_match: bool
    gldim_sandwich: bool

    @property
    def all_ok(self):
        return self.quiver_match and self.weight_match and self.betti_match and self.gldim_sandwich

    def to_dict(self):
        checks = {
            "quiver": self.quiver_match,
            "weight": self.weight_match,
            "betti": self.betti_match,
            "gldim": self.gldim_sandwich,
        }
        return {**self.step, "checks": checks}


def check_properties(algebra, leaf, before=None, known=None):
    step, output = step_dict(algebra, leaf)
    if before is None:
        before = record(algebra)
    after = look_up(known, output) or record(output)

    phi = relabel_map(algebra.n, leaf)
    f_before, f_after = before.targets, after.targets
    quiver_match = all(
        f_after[phi[i - 1] - 1] == phi[f_before[i - 1] - 1]
        for i in range(1, algebra.n + 1)
        if i != leaf
    )
    weight_match = sorted(before.weights) == sorted(after.weights)
    betti_match = (before.betti, before.complex_empty) == (after.betti, after.complex_empty)

    g_in, g_out = before.gldim, after.gldim
    if g_in.is_finite != g_out.is_finite:
        gldim_sandwich = False
    elif g_in.is_finite:
        gldim_sandwich = g_out.value <= g_in.value <= g_out.value + 2
    else:
        gldim_sandwich = True
    return Report(
        step=step,
        quiver_match=quiver_match,
        weight_match=weight_match,
        betti_match=betti_match,
        gldim_sandwich=gldim_sandwich,
    )


def raw_complex_matches(c, leaf, raw, cx):
    """The complex built from the raw (possibly redundant) image relations
    `raw`, (start, length) pairs, of the step at `leaf` of the algebra with
    series c must be simplex-for-simplex `cx`, the relation complex of the
    input, under the index bijection between old and new relations."""
    n = len(c)
    old_idx = [i for i, r in enumerate(NakayamaAlgebra(c).relations) if r.length <= n]
    new_idx = [i for i, (_, length) in enumerate(raw) if length <= n - 1]
    if old_idx != new_idx:
        return False
    levels = simplex_levels(n - 1, [interior(*raw[i], n - 1) for i in new_idx])
    return cx.simplices == tuple(tuple(level.values()) for level in levels)
