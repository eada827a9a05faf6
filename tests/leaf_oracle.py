"""The leaf steps and checks by their first rules, kept as oracles.

`word_path` is a step's raw words and output series by the word path:
relabel each relation, delete x_n from it with `delete_last_arrow`, and
take the series of the words.  `delete_last_arrow` counts the letters x_n
by floor division, `delete_letters` deletes them from one word letter by
letter, and `eliminate_redundant` gives the minimal words of any list of
such words.  `reduction_dict` is `reduce_fully(...).to_dict()` by the word
path, with the leaves read off the resolution quiver at every step.
`check_properties` is `unamalgamation.check_properties` with full
`invariants` on both sides, f-vector and all, and a table entry rotated
onto the step's output by `Invariants.rotate`.  `raw_complex_matches` is
`harness.raw_complex_matches` by enumeration: it lists every simplex of the
raw image words' complex and compares them with the given complex's."""

from enumeration_oracle import least_rotation
from nakayama.algebra import NakayamaAlgebra, Relation, kupisch_from_relations, mod1
from nakayama.relation_complex import interior, simplex_levels
from nakayama.resolution import build, leaves
from nakayama.unamalgamation import PropertyReport, _witnesses, invariants, relabel_map, unamalgamate


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
    return minimal, _witnesses(rels, minimal, n)


def reduction_dict(algebra):
    """The JSON of the full reduction of `algebra`, each step at the least
    leaf by the word path, until no leaf is left or two vertices are: then
    a leaf collapses the algebra onto its node v, K[x]/(x^ceil(c_v/2))."""
    current, steps = algebra, []
    while True:
        n, lvs = current.n, leaves(build(current))
        if not lvs or n == 2:
            break
        leaf = min(lvs)
        words, series = word_path(current, leaf)
        output = NakayamaAlgebra(series)
        steps.append({
            "leaf": leaf,
            "relabel": list(relabel_map(n, leaf)),
            "raw_relations": [[r.start, r.length] for r in words],
            "output": output.to_dict(),
            "eliminated": [
                {"relation": [z.start, z.length], "witness": [w.start, w.length]}
                for z, w in eliminate_redundant(words, n - 1)[1]
            ],
        })
        current = output
    if lvs:
        (node,) = set(build(current).f)
        terminal, terminal_kupisch = None, [(current.kupisch[node - 1] + 1) // 2]
    else:
        terminal, terminal_kupisch = current.to_dict(), list(current.kupisch)
    return {
        "initial": algebra.to_dict(),
        "steps": steps,
        "terminal": terminal,
        "terminal_kupisch": terminal_kupisch,
        "semisimple": all(c == 1 for c in terminal_kupisch),
    }


def look_up(known, algebra):
    """The entry of `algebra`, its invariants rotated out of the entry for
    its rotation class, or None when `known` has no entry."""
    if not known:
        return None
    entry = known.get(least_rotation(algebra.kupisch))
    return None if entry is None else (entry[0].rotate(algebra), entry[1])


def check_properties(algebra, leaf, before=None, known=None):
    step = unamalgamate(algebra, leaf)
    if before is None:
        before = invariants(algebra)
    found = look_up(known, step.output)
    after = found[0] if found else invariants(step.output)

    phi = step.relabel
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
    return PropertyReport(
        step=step,
        quiver_match=quiver_match,
        weight_match=weight_match,
        betti_match=betti_match,
        gldim_sandwich=gldim_sandwich,
    )


def raw_complex_matches(step, cx):
    """The complex built from the raw (possibly redundant) image relations
    must be simplex-for-simplex `cx`, the relation complex of the input,
    under the index bijection between old and new relations."""
    n = step.input.n
    old_idx = [i for i, r in enumerate(step.input.relations) if r.length <= n]
    new_idx = [i for i, r in enumerate(step.raw_relations) if r.length <= n - 1]
    if old_idx != new_idx:
        return False
    raw = [step.raw_relations[i] for i in new_idx]
    levels = simplex_levels(n - 1, [interior(r.start, r.length, n - 1) for r in raw])
    return cx.simplices == tuple(tuple(level.values()) for level in levels)
