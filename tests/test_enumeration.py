"""The pruned enumerations (the whole cyclic walk of `linalg_oracle`, which
the package's critical-cell walk is checked against, and the level-wise
relation complex) against the subset scans of `enumeration_oracle`, the
cyclic differentials of the bitmask builder against the oracle's
gap-and-rotation differential, the interior bitmasks against the
oracle's vertex-by-vertex arcs, and the interiors `build_complex` reads
off the Kupisch series against those of the relations."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import enumeration_oracle as oracle
import linalg_oracle
from nakayama import NakayamaAlgebra, Relation, radical_power_algebra, relation_complex
from nakayama.harness import SweepConfig, enumerate_kupisch, kupisch_series
from nakayama.relation_complex import (
    build_complex,
    complex_from_interiors,
    interior,
    reduced_betti,
    simplex_levels,
)
from strategies import wrapping_kupisch_series

SMALL = SweepConfig(n_min=2, n_max=6, c_max=7)


def _simplices(levels):
    return tuple(tuple(level.values()) for level in levels)


def test_cyclic_bases_match_subset_scan():
    """Every basis of every algebra at n <= 6, c <= 7, degree by degree and
    in order."""
    count = 0
    for algebra in enumerate_kupisch(SMALL):
        bases = linalg_oracle.cyclic_bases(algebra)
        for p in range(algebra.n):
            expected = oracle.basis(algebra, p)
            assert list(bases[p]) == expected, (algebra.kupisch, p)
        count += 1
    assert count == 2996


def test_cyclic_differentials_match_oracle():
    """Every basis and every differential column for column, for every
    algebra at n <= 6, c <= 7 and for rad^(n+1) on n = 2..10, where every
    station subset is a cell."""
    algebras = list(enumerate_kupisch(SMALL))
    algebras += [radical_power_algebra(n, n + 1) for n in range(2, 11)]
    for algebra in algebras:
        bases, differentials = linalg_oracle.cyclic_bases(algebra), linalg_oracle.cyclic_differentials(algebra)
        index = {}
        for p in range(algebra.n):
            source = oracle.basis(algebra, p)
            assert list(bases[p]) == source, (algebra.kupisch, p)
            assert differentials[p] == oracle.differential(algebra, source, index), (algebra.kupisch, p)
            index = {stations: i for i, stations in enumerate(source)}
    assert len(algebras) == 2996 + 9


def test_interior_matches_the_vertex_rule():
    """The shift-and-fold bitmask of every arc on every n-cycle, n <= 12,
    is the oracle's vertex-by-vertex set; a relation one longer than the
    cycle has no interior."""
    for n in range(1, 13):
        for start in range(1, n + 1):
            for length in range(1, n + 1):
                rel = Relation(start, length)
                assert interior(start, length, n) == oracle.to_mask(oracle.interior(rel, n)), (n, start, length)
            with pytest.raises(ValueError):
                interior(start, n + 1, n)


def _series_masks(algebra):
    """The interiors `build_complex` reads off the series, taken before
    the size guard, which refuses more than 16 vertices."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(relation_complex, "complex_from_interiors", lambda n, masks: tuple(masks))
        return build_complex(algebra)


def _relation_masks(algebra):
    """The interiors relation by relation: `interior` of each vertex in
    `complex_vertices`."""
    return tuple(interior(r.start, r.length, algebra.n) for r in oracle.complex_vertices(algebra))


def test_series_read_interiors_match_the_relations():
    """On every series with n <= 8, c <= n + 1."""
    count = 0
    for n in range(2, 9):
        for c in kupisch_series(n, n + 1):
            algebra = NakayamaAlgebra(c)
            assert _series_masks(algebra) == _relation_masks(algebra), c
            count += 1
    assert count == 49743


@settings(max_examples=200, deadline=None)
@given(wrapping_kupisch_series(min_n=2))
def test_series_read_interiors_match_the_relations_up_to_n40(c):
    algebra = NakayamaAlgebra(c)
    assert _series_masks(algebra) == _relation_masks(algebra)


def test_relation_complexes_match_subset_scan():
    """Simplices per dimension in order and boundaries column for column,
    for every algebra at n <= 6, c <= 7."""
    for algebra in enumerate_kupisch(SMALL):
        n = algebra.n
        interiors = [oracle.interior(rel, n) for rel in oracle.complex_vertices(algebra)]
        expected = oracle.complex_from_interiors(n, interiors)
        cx = build_complex(algebra)
        assert cx.masks == tuple(map(oracle.to_mask, interiors)), algebra.kupisch
        assert cx.simplices == expected.simplices, algebra.kupisch
        assert tuple(linalg_oracle.boundary_maps(cx._levels, 1)) == expected.boundaries, algebra.kupisch
        assert _simplices(simplex_levels(n, cx.masks)) == expected.simplices


@st.composite
def interior_families(draw):
    """Up to 10 interiors on an n-cycle, n <= 10: cyclic intervals as real
    relations have (empty for a length-1 relation), arbitrary subsets, the
    covering set, and repeats of any of them."""
    n = draw(st.integers(1, 10))
    vertices = st.integers(1, n)
    intervals = st.builds(
        lambda start, length: frozenset((start + t - 1) % n + 1 for t in range(1, length)),
        vertices, st.integers(1, n),
    )
    one = st.one_of(intervals, st.frozensets(vertices), st.just(frozenset(range(1, n + 1))))
    family = draw(st.lists(one, max_size=10))
    if family:
        repeats = draw(st.lists(st.sampled_from(family), max_size=10 - len(family)))
        family = draw(st.permutations(family + repeats))
    return n, family


@settings(max_examples=300, deadline=None)
@given(interior_families())
def test_raw_interior_families_match_subset_scan(case):
    n, interiors = case
    masks = [oracle.to_mask(vertices) for vertices in interiors]
    expected = oracle.complex_from_interiors(n, interiors)
    cx = complex_from_interiors(n, masks)
    assert cx.simplices == expected.simplices
    assert tuple(linalg_oracle.boundary_maps(cx._levels, 1)) == expected.boundaries
    assert _simplices(simplex_levels(n, cx.masks)) == expected.simplices
    # the f-vector and Betti numbers of a complex not yet enumerated, read
    # off its cone points where there are any
    unread = complex_from_interiors(n, masks)
    f = tuple(len(level) for level in expected.simplices)
    assert unread.f_vector == f
    assert reduced_betti(unread) == linalg_oracle.reduced_betti(f, expected.boundaries)
