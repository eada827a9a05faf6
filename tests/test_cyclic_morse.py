"""The critical cells and the cell counts of `nakayama.cyclic` against
every cell, as `linalg_oracle.cyclic_cells` walks them: the walk lists
exactly the critical cells of the matching W <-> W + {1}, no face of one is
matched, the HC they give is the HC of all cells (ranked by the kernel,
and by Bareiss elimination map by map), and the counting gives the number
of cells of each degree, as the count by least station does."""

from hypothesis import given, settings

import linalg_oracle as oracle
from linalg_oracle import bareiss_rank, boundary_maps, to_dense
from nakayama import NakayamaAlgebra, radical_power_algebra
from nakayama.cyclic import (
    _SIGN,
    _cell_counts,
    _critical_cells,
    basis_sizes,
    differential_squares_to_zero,
    hc_dimensions,
)
from nakayama.harness import SweepConfig, enumerate_kupisch, kupisch_series as all_series
from nakayama.linalg import chain_ranks
from enumeration_oracle import least_rotation
from strategies import kupisch_series

SWEEP = SweepConfig(n_min=2, n_max=7, c_max=8)  # 12,600 algebras


def _radical_powers(n_max):
    """rad^(n+1) on the n-cycle for n = 2..n_max: every station set is a
    cell, and {1} is the one critical cell."""
    return [radical_power_algebra(n, n + 1) for n in range(2, n_max + 1)]


def _in_order(levels):
    return [list(level.items()) for level in levels]


def _check_against_all_cells(algebra, bareiss):
    """The critical cells, the HC and the counts of `algebra` against its
    cells; HC also against Bareiss ranks of the whole maps if `bareiss`."""
    levels = oracle.cyclic_cells(algebra)
    critical = _critical_cells(algebra.kupisch)
    assert _in_order(critical) == _in_order(oracle.critical_by_definition(levels)), algebra.kupisch
    expected = oracle.cyclic_hc(levels, chain_ranks(levels, _SIGN))
    assert list(hc_dimensions(algebra)) == expected, algebra.kupisch
    if bareiss:
        maps = boundary_maps(levels, _SIGN, relative=True)
        ranks = [bareiss_rank(to_dense(m, len(levels[p]))) for p, m in enumerate(maps)]
        assert oracle.cyclic_hc(levels, ranks) == expected, algebra.kupisch
    assert basis_sizes(algebra) == tuple(len(level) for level in levels), algebra.kupisch


def test_critical_cells_and_hc_match_all_cells_sweep():
    count = 0
    for algebra in enumerate_kupisch(SWEEP):
        _check_against_all_cells(algebra, bareiss=True)
        count += 1
    assert count == 12600


def test_critical_cells_and_hc_match_all_cells_radical_powers():
    """Bareiss ranks the whole maps up to n = 10; past it, a map has
    hundreds of rows and columns and only the kernel ranks them."""
    for algebra in _radical_powers(16):
        _check_against_all_cells(algebra, bareiss=algebra.n <= 10)
        assert [len(level) for level in _critical_cells(algebra.kupisch)] == [1] + [0] * (algebra.n - 1)


@settings(max_examples=60, deadline=None)
@given(kupisch_series(min_n=2, max_n=12, max_c=14))
def test_critical_cells_and_hc_match_all_cells_random(series):
    algebra = NakayamaAlgebra(series)
    assert differential_squares_to_zero(algebra)
    _check_against_all_cells(algebra, bareiss=algebra.n <= 7)


def test_counts_match_the_walk():
    """The counting gives the level sizes of the whole walk on every
    rotation class at n <= 8, c <= 9 and on rad^(n+1), n = 2..16."""
    classes = [
        algebra
        for algebra in enumerate_kupisch(SweepConfig(n_min=2, n_max=8, c_max=9))
        if least_rotation(algebra.kupisch) == algebra.kupisch
    ]
    assert len(classes) == 7165
    for algebra in classes + _radical_powers(16):
        sizes = tuple(len(level) for level in oracle.cyclic_cells(algebra))
        assert basis_sizes(algebra) == sizes, algebra.kupisch


def test_packed_counts_match_the_count_by_least_station():
    """The one pass that packs every least station into one integer gives
    the counts of one pass per least station, on every series at n <= 8,
    c <= n + 1."""
    checked = 0
    for n in range(2, 9):
        for c in all_series(n, n + 1):
            assert _cell_counts(c) == oracle.cell_counts_by_least_station(c), c
            checked += 1
    assert checked == 49743


@settings(max_examples=200, deadline=None)
@given(kupisch_series(min_n=2, max_n=16, max_c=40))
def test_packed_counts_match_the_count_by_least_station_random(c):
    """Up to n = 16, the widest packing MAX_SUBSETS admits, with entries
    past n + 1, whose wrap bounds pass the last z-block."""
    assert _cell_counts(c) == oracle.cell_counts_by_least_station(c)


def test_no_face_of_a_critical_cell_is_matched():
    """Each face of a critical cell that is a cell at all is critical: none
    is the partner W or W + {1} of a matched pair."""
    faces = 0
    for algebra in enumerate_kupisch(SWEEP):
        levels = oracle.cyclic_cells(algebra)
        critical = oracle.critical_by_definition(levels)
        for p in range(1, algebra.n):
            for bits, cell in critical[p].items():
                for v in cell:
                    face = bits ^ 1 << v
                    if face in levels[p - 1]:
                        assert face in critical[p - 1], (algebra.kupisch, cell, v)
                        faces += 1
    assert faces > 0
