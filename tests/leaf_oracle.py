"""The leaf checks by their first rules, kept as oracles.

`check_properties` is `unamalgamation.check_properties` with full
`invariants` on both sides, f-vector and all, and a table entry rotated
onto the step's output by `Invariants.rotate`.  `raw_complex_matches` is
`harness.raw_complex_matches` by enumeration: it lists every simplex of the
raw image words' complex and compares them with the given complex's."""

from nakayama.algebra import least_rotation
from nakayama.relation_complex import interior, simplex_levels
from nakayama.unamalgamation import PropertyReport, invariants, unamalgamate


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
    levels = simplex_levels(n - 1, [interior(step.raw_relations[i], n - 1) for i in new_idx])
    return cx.simplices == tuple(tuple(level.values()) for level in levels)
