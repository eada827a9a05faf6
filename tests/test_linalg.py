import copy

import pytest
from hypothesis import given
from hypothesis import strategies as st

import linalg_oracle
from linalg_oracle import bareiss_rank, boundary_maps, compose, squares_to_zero, to_dense, to_sparse
from nakayama import linalg, radical_power_algebra
from nakayama.cyclic import _SIGN
from nakayama.harness import SweepConfig, enumerate_kupisch
from nakayama.linalg import chain_ranks, rank
from nakayama.relation_complex import build_complex


@st.composite
def integer_matrices(draw):
    """Small integer matrices, many of them rank-deficient: a product of an
    m x k and a k x n factor with entries well outside ±1, so reductions
    meet non-unit pivots and cancel columns to zero."""
    m, k, n = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entries = st.integers(-4, 4)
    a = draw(st.lists(st.lists(entries, min_size=k, max_size=k), min_size=m, max_size=m))
    b = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=k, max_size=k))
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(n)] for i in range(m)]


@given(integer_matrices())
def test_sparse_rank_matches_bareiss(mat):
    columns = to_sparse(mat)
    before = copy.deepcopy(columns)
    pivots: set[int] = set()
    assert rank(columns, pivots) == bareiss_rank(mat)
    assert len(pivots) == bareiss_rank(mat)
    assert columns == before  # the input is left as it was


def test_sparse_rank_non_unit_pivot():
    # pivots of 2 meet entries of 3 and 4: 2*col - 3*piv, then col - 2*piv
    assert rank([{0: 1, 1: 2}, {0: 3, 1: 3}, {0: 2, 1: 4}]) == 2
    assert rank([{1: 2}, {0: 5, 1: 3}, {0: 10, 1: 6}]) == 2
    assert rank([]) == 0 and rank([{}, {}]) == 0


def _per_map_ranks(maps, rows):
    return [bareiss_rank(to_dense(m, r)) for m, r in zip(maps, rows)]


def _complexes():
    """Both complexes of every algebra at n <= 6, c <= 7 and of rad^(n+1)
    for n = 2..10, where every station subset is a cyclic cell: each as its
    levels, sign and whole boundary maps."""
    algebras = list(enumerate_kupisch(SweepConfig(n_min=2, n_max=6, c_max=7)))
    algebras += [radical_power_algebra(n, n + 1) for n in range(2, 11)]
    for algebra in algebras:
        levels = linalg_oracle.cyclic_cells(algebra)
        yield algebra, levels, _SIGN, boundary_maps(levels, _SIGN, relative=True)
        cx = build_complex(algebra)
        yield algebra, cx._levels, 1, boundary_maps(cx._levels, 1)


def test_chain_ranks_match_bareiss_on_both_complexes():
    """Ranking from the cells with clearing gives the ranks of per-map dense
    elimination, and so does clearing over the finished maps."""
    count = 0
    for algebra, levels, sign, maps in _complexes():
        expected = _per_map_ranks(maps, [len(level) for level in levels])
        assert chain_ranks(levels, sign) == expected, algebra.kupisch
        assert linalg_oracle.chain_ranks_of_maps(maps) == expected, algebra.kupisch
        count += 1
    assert count == 2 * (2996 + 9)


def test_chain_ranks_build_only_the_columns_clearing_keeps(monkeypatch):
    """At degree p the pass builds len(levels[p]) - rank(d_{p+1}) columns:
    one for each p-cell that is not a pivot row of the reduced d_{p+1}.  A
    degree with no cell is not ranked at all."""
    built = []
    ranked = linalg.rank

    def counted(columns, pivot_rows=None):
        built.append(len(columns))
        return ranked(columns, pivot_rows)

    monkeypatch.setattr(linalg, "rank", counted)
    for algebra, levels, sign, maps in _complexes():
        # ranks[p] is the rank of d_{p+1}, and d_{len(levels)} is zero
        ranks = _per_map_ranks(maps, [len(level) for level in levels]) + [0]
        built.clear()
        chain_ranks(levels, sign)
        # the pass runs from the top degree down
        expected = [len(levels[p]) - ranks[p] for p in reversed(range(1, len(levels))) if levels[p]]
        assert built == expected, algebra.kupisch


def test_chain_ranks_clear_by_bitmask_not_by_position(monkeypatch):
    """rad^4 on the 3-cycle: every station set is a cell.  The reduced d_2
    has its one pivot at the edge {2, 3}, whose bitmask is the largest, so
    d_1 skips that edge's column and builds those of {1, 2} and {1, 3}."""
    levels = linalg_oracle.cyclic_cells(radical_power_algebra(3, 4))
    built = []
    column = linalg._column

    def recorded(bits, cell, *args):
        built.append(cell)
        return column(bits, cell, *args)

    monkeypatch.setattr(linalg, "_column", recorded)
    assert chain_ranks(levels, _SIGN) == [2, 1]
    assert built == [(1, 2, 3), (1, 2), (1, 3)]


def test_compose_matches_dense_product():
    outer = [{0: 1, 2: -1}, {1: 2}, {}]
    inner = [{0: 1, 1: 1}, {2: 3}, {0: 1, 1: -1}]
    a, b = to_dense(outer, 3), to_dense(inner, 3)
    product = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
    assert to_dense(compose(outer, inner), 3) == product
    assert compose([{0: 1}, {0: 1}], [{0: 1, 1: -1}]) == [{}]  # cancelled entries are dropped


def test_compose_shape_guard():
    # the inner map has a row 1, but the outer map has only one column
    with pytest.raises(ValueError):
        compose([{0: 1}], [{1: 1}])
    with pytest.raises(ValueError):
        compose([{0: 1}], [{-1: 1}])


def test_squares_to_zero_detects_a_nonzero_composite():
    assert squares_to_zero([[{0: 1}, {0: 1}], [{0: 1, 1: -1}]])
    assert not squares_to_zero([[{0: 1}, {0: 1}], [{0: 1, 1: 1}]])
    assert squares_to_zero([])


def test_boundary_maps_skip_a_missing_face_only_when_relative():
    """Vertex 1 is missing from level 0: the edge {0, 1} of a simplicial
    complex then lacks a face, which the oracle's maps refuse, while in a
    relative complex that face lies in the subcomplex and is zero.  The
    kernel's complexes are all relative, so it skips the face too."""
    levels = [{0b01: (0,)}, {0b11: (0, 1)}]
    with pytest.raises(KeyError):
        boundary_maps(levels, 1)
    assert boundary_maps(levels, 1, relative=True) == [[{0: -1}]]
    assert boundary_maps(levels, -1, relative=True) == [[{0: 1}]]
    assert linalg._column(0b11, (0, 1), linalg.face_signs(1, 1), levels[0]) == {0b01: -1}
    assert chain_ranks(levels, 1) == [1]
    whole = [{0b01: (0,), 0b10: (1,)}, {0b11: (0, 1)}]
    assert boundary_maps(whole, 1) == [[{1: 1, 0: -1}]]


def test_signs_alternate_checks_each_rule_once(monkeypatch):
    """The first call for a rule, top and sign reads face_signs(p, sign) for
    every p = 1..top; a repeat reads nothing.  A different rule, such as
    the flipped ones of the certificate tests, is checked afresh."""
    signs, calls = linalg.face_signs, []

    def counted(p, sign):
        calls.append((p, sign))
        return signs(p, sign)

    monkeypatch.setattr(linalg, "face_signs", counted)
    assert linalg.signs_alternate(7, _SIGN)
    assert calls == [(p, _SIGN) for p in range(1, 8)]
    assert linalg.signs_alternate(7, _SIGN)
    assert len(calls) == 7
