"""The Kupisch recurrence, `validate`'s redundancy criterion c_{s+1} < L and
`eliminate_redundant`'s minimal words, all read off one Kupisch series,
against the O(n r) series and the pairwise containment scans of
`enumeration_oracle`."""

from hypothesis import given, settings
from hypothesis import strategies as st

import enumeration_oracle as oracle
from nakayama import AlgebraError, Relation, kupisch_from_relations, validate
from nakayama.harness import SweepConfig, enumerate_kupisch
from nakayama.resolution import targets
from nakayama.unamalgamation import eliminate_redundant, unamalgamate

from strategies import relation_lists


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
            assert step.eliminated == eliminated
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
