"""The Kupisch recurrence, `validate`'s redundancy criterion c_{s+1} < L,
`eliminate_redundant`'s minimal words and the sweep's mirror rule (the
series of the opposite algebra), all read off one Kupisch series, against
the O(n r) series, the pairwise containment scans and the word rule of
`enumeration_oracle`."""

from hypothesis import given, settings
from hypothesis import strategies as st

import enumeration_oracle as oracle
from nakayama import AlgebraClass, AlgebraError, Relation, kupisch_from_relations, validate
from nakayama.harness import SweepConfig, _mirror, enumerate_kupisch, kupisch_series
from nakayama.resolution import targets
from nakayama.unamalgamation import unamalgamate

from leaf_oracle import eliminate_redundant
from strategies import relation_lists, wrapping_kupisch_series


def _validate(n, relations):
    algebra = validate(n, relations)
    return algebra.relations, algebra.kupisch


def _outcome(check, n, relations):
    """(relations, Kupisch series), or the error's class, code and text."""
    try:
        return check(n, relations)
    except AlgebraError as exc:
        return type(exc), exc.code, str(exc)


def check_sweep_against_oracles(config: SweepConfig) -> tuple[int, int, int]:
    """Compare every enumerated algebra and every unamalgamation step of it
    with the oracles: the stored series, the validation of the step's raw
    relations (accepted, or rejected with the same error) and the kept and
    eliminated words.  Returns the counts of algebras, steps and rejected
    raw relation lists."""
    algebras = steps = rejected = 0
    for algebra in enumerate_kupisch(config):
        n = algebra.n
        assert oracle.validate(n, algebra.relations) == (algebra.relations, algebra.kupisch)
        algebras += 1
        if n < 3:
            continue
        for leaf in sorted(set(range(1, n + 1)).difference(targets(algebra.kupisch))):
            step = unamalgamate(algebra, leaf)
            raw = step.raw_relations
            kept, eliminated = oracle.eliminate_redundant(raw, n - 1)
            assert eliminate_redundant(raw, n - 1) == (kept, eliminated), (algebra.kupisch, leaf)
            assert step.eliminated == tuple(((z.start, z.length), (w.start, w.length)) for z, w in eliminated)
            assert oracle.validate(n - 1, kept) == (step.output.relations, step.output.kupisch)
            outcome = _outcome(_validate, n - 1, raw)
            assert outcome == _outcome(oracle.validate, n - 1, raw), (algebra.kupisch, leaf)
            rejected += isinstance(outcome[0], type)
            steps += 1
    return algebras, steps, rejected


def test_sweep_matches_pairwise_oracles():
    """Every algebra at n <= 7, c <= 8 and every unamalgamation step of each."""
    algebras, steps, rejected = check_sweep_against_oracles(SweepConfig(n_min=2, n_max=7, c_max=8))
    assert algebras == 12600
    assert 0 < rejected < steps


@settings(max_examples=500, deadline=None)
@given(st.one_of(relation_lists(), relation_lists(words_only=True)))
def test_raw_relation_lists_match_pairwise_oracles(case):
    """Any relation list, invalid ones included, is accepted or rejected as
    the pairwise scan does, with the same error code and text; a list that
    keeps `eliminate_redundant`'s contract gets the same minimal words,
    eliminated words and witnesses."""
    n, pairs = case
    assert _outcome(_validate, n, pairs) == _outcome(oracle.validate, n, pairs)
    if pairs and n >= 2 and all(1 <= start <= n and length >= 1 for start, length in pairs):
        rels = [Relation(*pair) for pair in pairs]
        assert kupisch_from_relations(n, rels) == oracle.kupisch_from_relations(n, rels)
        assert eliminate_redundant(rels, n) == oracle.eliminate_redundant(rels, n)


def _check_mirror(c):
    """The mirror rule agrees with the oracle's word rule, keeps the class
    and the largest entry, and is an involution up to rotation."""
    m = _mirror(c)
    assert m == oracle.opposite_kupisch(c), c
    assert AlgebraClass.of(m) == AlgebraClass.of(c) and max(m) == max(c), c
    assert oracle.least_rotation(_mirror(m)) == oracle.least_rotation(c), c


def test_mirror_rule_matches_the_word_rule():
    """Every series at n <= 8, c <= 9."""
    checked = 0
    for n in range(2, 9):
        for c in kupisch_series(n, 9):
            _check_mirror(c)
            checked += 1
    assert checked == 52969


@settings(max_examples=300, deadline=None)
@given(wrapping_kupisch_series(min_n=2))
def test_mirror_rule_matches_the_word_rule_on_wrapping_series(c):
    """Series up to n = 40 whose words wrap the cycle up to three times."""
    _check_mirror(c)
