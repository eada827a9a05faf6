import pytest
from hypothesis import given

from nakayama import (
    AlgebraClass,
    AlgebraError,
    DuplicateStartError,
    EmptyRelationSetError,
    InvalidKupischError,
    RedundantRelationError,
    Relation,
    algebra_from_kupisch,
    global_dimension,
    kupisch_from_relations,
    validate,
)
from nakayama.algebra import MAX_VERTICES
from nakayama.harness import SweepConfig

import enumeration_oracle as oracle
from enumeration_oracle import enumerate_kupisch
import leaf_oracle
from strategies import kupisch_series, wrapping_kupisch_series


def test_validate_cyclic(lambda1):
    assert lambda1.algebra_class is AlgebraClass.CYCLIC
    assert lambda1.relations == (Relation(2, 2), Relation(3, 2), Relation(5, 3))


def test_validate_semisimple_is_product_of_linear(semisimple2):
    assert semisimple2.algebra_class is AlgebraClass.PRODUCT_OF_LINEAR


def test_validate_linear():
    a = validate(3, [(1, 1), (2, 2)])
    assert a.algebra_class is AlgebraClass.LINEAR


def test_duplicate_start_names_the_least_repeated_start():
    rels = [(i, 1) for i in range(1, 1024)] + [(1024, 1)] * 20_000 + [(7, 2)]
    with pytest.raises(DuplicateStartError, match="^two relations start at vertex 7$"):
        validate(1024, rels)


def test_validate_duplicate_start():
    with pytest.raises(DuplicateStartError):
        validate(5, [(2, 2), (2, 3)])


def test_validate_redundant():
    # same-start containments are reported as duplicate starts, so use a
    # shifted pair: x5 x1 sits inside x4 x5 x1
    with pytest.raises(RedundantRelationError):
        validate(5, [(4, 3), (5, 2)])


def test_validate_redundant_wrapping():
    # a relation two full turns long contains everything of length <= 2
    with pytest.raises(RedundantRelationError):
        validate(3, [(1, 7), (2, 2)])


def test_validate_empty_and_tiny():
    with pytest.raises(EmptyRelationSetError):
        validate(3, [])
    with pytest.raises(AlgebraError):
        validate(1, [(1, 1)])


def test_kupisch_examples(lambda1, lambda3, semisimple2):
    assert lambda1.kupisch == (3, 2, 2, 4, 3)
    assert lambda3.kupisch == (2, 2, 2, 2)
    assert semisimple2.kupisch == (1, 1)


def test_kupisch_lambda2(lambda2):
    assert lambda2.kupisch == (3, 4, 4, 3, 3)


def test_relations_from_kupisch_examples():
    assert algebra_from_kupisch((3, 2, 2, 4, 3)).relations == (
        Relation(2, 2),
        Relation(3, 2),
        Relation(5, 3),
    )
    assert algebra_from_kupisch((2, 2, 2, 2)).relations == tuple(
        Relation(i, 2) for i in (1, 2, 3, 4)
    )
    assert algebra_from_kupisch((1, 1)).relations == (Relation(1, 1), Relation(2, 1))


def test_relations_from_kupisch_rejects_invalid():
    with pytest.raises(InvalidKupischError):
        algebra_from_kupisch((3, 1)).relations
    with pytest.raises(InvalidKupischError):
        algebra_from_kupisch((2, 0)).relations


def test_wrapping_relations_round_trip():
    # rad^3 on the 2-cycle: both relations longer than the quiver
    a = algebra_from_kupisch((3, 3))
    assert a.relations == (Relation(1, 3), Relation(2, 3))
    assert a.kupisch == (3, 3)


@given(kupisch_series())
def test_class_counts_the_killed_arrows(c):
    killed = sum(1 for r in algebra_from_kupisch(c).relations if r.length == 1)
    classes = (AlgebraClass.CYCLIC, AlgebraClass.LINEAR, AlgebraClass.PRODUCT_OF_LINEAR)
    assert algebra_from_kupisch(c).algebra_class is classes[min(killed, 2)]


@given(kupisch_series())
def test_kupisch_round_trip(c):
    algebra = algebra_from_kupisch(c)
    assert algebra.kupisch == c
    assert validate(algebra.n, algebra.relations) == algebra
    assert kupisch_from_relations(algebra.n, algebra.relations) == c


def test_to_dict_and_kupisch_from_relations_agree_with_the_relations():
    """At every n <= 8, c <= 9: `to_dict`, which reads the relations as int
    pairs off the series, equals their rendering from the `Relation`s, and
    `kupisch_from_relations` gives the series back from the `Relation`s and
    from plain (start, length) pairs alike, as the oracle's O(n r) rule
    does from the `Relation`s."""
    count = 0
    for algebra in enumerate_kupisch(SweepConfig(n_min=2, n_max=8, c_max=9)):
        c, n, rels = algebra.kupisch, algebra.n, algebra.relations
        assert algebra.to_dict() == leaf_oracle.algebra_dict(algebra), c
        pairs = [(r.start, r.length) for r in rels]
        assert kupisch_from_relations(n, rels) == kupisch_from_relations(n, pairs) == c
        assert oracle.kupisch_from_relations(n, rels) == c
        count += 1
    assert count == 52_969


def test_syzygy_examples(lambda1, lambda3):
    assert oracle.syzygy(lambda1, 4, 1) == (5, 3)
    assert oracle.syzygy(lambda1, 5, 3) is None  # P_5 is projective
    assert oracle.syzygy(lambda3, 1, 1) == (2, 1)


def test_syzygy_outputs_stay_valid():
    for algebra in enumerate_kupisch(SweepConfig(n_min=2, n_max=4, c_max=5)):
        c = algebra.kupisch
        for top in range(1, algebra.n + 1):
            for length in range(1, c[top - 1] + 1):
                out = oracle.syzygy(algebra, top, length)
                if out is not None:
                    out_top, out_length = out
                    assert 1 <= out_length <= c[out_top - 1]


def test_global_dimension_examples(lambda1, lambda3, semisimple2):
    assert global_dimension(lambda1).value == 4
    assert not global_dimension(lambda3).is_finite
    assert global_dimension(semisimple2).value == 0


def test_projective_dimension_walk(lambda1):
    # S_5 resolves through (1,2), S_3, S_4 before hitting the projective P_5
    assert oracle.projective_dimension(lambda1, 5, 1) == 4
    assert oracle.projective_dimension(lambda1, 5, 3) == 0
    # S_5 has the largest projective dimension of the simples
    assert global_dimension(lambda1).value == 4


def test_global_dimension_matches_the_per_simple_walk():
    for algebra in enumerate_kupisch(SweepConfig(n_min=2, n_max=7, c_max=8)):
        assert global_dimension(algebra) == oracle.global_dimension(algebra), algebra


@given(kupisch_series(max_n=40, max_c=8))
def test_global_dimension_matches_the_walk_on_long_series(c):
    algebra = algebra_from_kupisch(c)
    assert global_dimension(algebra) == oracle.global_dimension(algebra)


@given(wrapping_kupisch_series(min_n=2))
def test_global_dimension_matches_the_walk_on_wrapping_series(c):
    # entries up to 3n: resolutions wrap round the cycle several times
    algebra = algebra_from_kupisch(c)
    assert global_dimension(algebra) == oracle.global_dimension(algebra)


@pytest.mark.parametrize("series, expected", [
    ((2,) * (MAX_VERTICES - 1) + (1,), "finite (1023)"),
    ((3,) * (MAX_VERTICES - 2) + (2, 1), "finite (682)"),
    ((2,) * MAX_VERTICES, "infinite"),
])
def test_global_dimension_at_max_vertices(series, expected):
    # in the first, S_1 resolves through S_2, ..., S_1023 to the projective
    # S_1024: a recursive memo would overflow the interpreter's stack on it
    assert str(global_dimension(algebra_from_kupisch(series))) == expected


def test_length_one_relation_forces_finite_gldim():
    config = SweepConfig(
        n_min=2,
        n_max=4,
        c_max=5,
        classes=frozenset({AlgebraClass.LINEAR, AlgebraClass.PRODUCT_OF_LINEAR}),
    )
    for algebra in enumerate_kupisch(config):
        assert global_dimension(algebra).is_finite


def test_kupisch_invariant_cyclic_iff_min_two():
    for algebra in enumerate_kupisch(SweepConfig(n_min=2, n_max=4, c_max=4)):
        cyclic = algebra.algebra_class is AlgebraClass.CYCLIC
        assert cyclic == all(ci >= 2 for ci in algebra.kupisch)


@given(kupisch_series(max_n=8, max_c=9))
def test_least_rotation_is_the_least(c):
    assert oracle.least_rotation(c) == min(c[j:] + c[:j] for j in range(len(c)))
