import copy

import pytest
from hypothesis import given
from hypothesis import strategies as st

from linalg_oracle import bareiss_rank, to_dense, to_sparse
from nakayama.cyclic import build_cyclic_complex
from nakayama.harness import SweepConfig, enumerate_kupisch
from nakayama.linalg import boundary_maps, chain_ranks, compose, rank, squares_to_zero
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


def test_chain_ranks_match_bareiss_on_both_complexes():
    """Clearing gives the ranks of per-map dense elimination, for every
    algebra with n <= 5 and c <= 6."""
    count = 0
    for algebra in enumerate_kupisch(SweepConfig(n_min=2, n_max=5, c_max=6)):
        cc = build_cyclic_complex(algebra)
        rows = [0] + list(cc.basis_sizes[:-1])
        assert chain_ranks(cc.differentials) == _per_map_ranks(cc.differentials, rows), algebra
        cx = build_complex(algebra)
        assert chain_ranks(cx.boundaries) == _per_map_ranks(cx.boundaries, cx.f_vector), algebra
        count += 1
    assert count > 400


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
    complex then lacks a face, which raises, while in a relative complex
    that face lies in the subcomplex and is zero."""
    levels = [{0b01: (0,)}, {0b11: (0, 1)}]
    with pytest.raises(KeyError):
        boundary_maps(levels, 1)
    assert boundary_maps(levels, 1, relative=True) == [[{0: -1}]]
    assert boundary_maps(levels, -1, relative=True) == [[{0: 1}]]
    whole = [{0b01: (0,), 0b10: (1,)}, {0b11: (0, 1)}]
    assert boundary_maps(whole, 1) == [[{1: 1, 0: -1}]]
