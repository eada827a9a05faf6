from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from enumeration_oracle import canonicalize, station_gaps
import linalg_oracle
from linalg_oracle import bareiss_rank, cyclic_bases, cyclic_cells, cyclic_differentials, is_up_set, to_dense
from nakayama import AlgebraClass, NakayamaAlgebra, linalg, radical_power_algebra, validate
from nakayama.cyclic import (
    _SIGN,
    _arcs_hold,
    basis_sizes,
    differential_squares_to_zero,
    hc_dimensions,
    hc_euler,
    report,
)
from nakayama.harness import SweepConfig, enumerate_kupisch
from nakayama.linalg import rank
from nakayama.relation_complex import (
    build_complex,
    euler_characteristic,
    reduced_betti,
)


def test_basis_lambda3(lambda3):
    bases = cyclic_bases(lambda3)
    cycles = bases[3]
    assert len(cycles) == 1
    assert cycles[0] == (1, 2, 3, 4)
    assert station_gaps(cycles[0], 4) == (1, 1, 1, 1)
    # no shorter cycle fits: some gap would need length >= 2 = c_i
    assert all(bases[p] == () for p in range(3))


def test_basis_empty_for_linear():
    linear = validate(4, [(1, 1), (2, 2), (3, 2)])
    assert cyclic_bases(linear) == ((),) * 4


def test_basis_empty_degree_zero_lambda1(lambda1):
    # a single station needs an endomorphism of degree n=5, but max c_i = 4
    assert cyclic_bases(lambda1)[0] == ()


def test_station_gaps_wrap():
    assert station_gaps((1, 3, 4), 6) == (2, 1, 3)


def test_differential_lambda3_is_zero(lambda3):
    differentials = cyclic_differentials(lambda3)
    assert differentials[3] == [{}]
    assert to_dense(differentials[3], len(cyclic_bases(lambda3)[2])) == []  # a 0 x 1 matrix


def test_differential_zero_degree(lambda3):
    assert cyclic_differentials(lambda3)[0] == []


def test_differential_entries_rad3_on_4():
    # rad^3 on the 4-cycle: one top chain, faces alternate between the two
    # antipodal 1-chains; this pins the sign conventions
    a = radical_power_algebra(4, 3)
    b1, b2 = cyclic_bases(a)[1:3]
    assert b1 == ((1, 3), (2, 4))
    assert b2 == ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))
    differentials = cyclic_differentials(a)
    d3 = to_dense(differentials[3], len(b2))
    assert [row[0] for row in d3] == [1, -1, 1, -1]
    d2 = to_dense(differentials[2], len(b1))
    assert d2 == [[1, 0, -1, 0], [0, -1, 0, 1]]


def test_canonicalize_signs():
    canonical, sign = canonicalize((3, 5, 1))
    assert canonical == (1, 3, 5) and sign == 1  # two rotations, degree 2
    canonical, sign = canonicalize((5, 1, 3))
    assert canonical == (1, 3, 5) and sign == 1
    canonical, sign = canonicalize((4, 1))
    assert canonical == (1, 4) and sign == -1  # one rotation, degree 1


def test_canonicalize_rejects_repeats():
    with pytest.raises(AssertionError):
        canonicalize((1, 2, 1))


@given(st.lists(st.integers(1, 12), min_size=1, max_size=6, unique=True))
def test_canonicalize_rotation_consistency(values):
    # station tuples arising in the complex are rotations of a sorted tuple
    stations = tuple(sorted(values))
    q = len(stations) - 1
    base, s0 = canonicalize(stations)
    assert base == stations and s0 == 1
    for k in range(len(stations)):
        rotated = stations[k:] + stations[:k]
        canonical, sk = canonicalize(rotated)
        assert canonical == stations
        assert sk == (-1) ** (q * k)


def test_hc_dimensions_examples(lambda1, lambda3):
    assert hc_dimensions(lambda3) == (0, 0, 0, 1)
    assert hc_dimensions(lambda1) == (0, 0, 0, 0, 0)
    linear = validate(4, [(1, 1), (2, 2), (3, 2)])
    assert hc_dimensions(linear) == (0, 0, 0, 0)


def test_hc_euler_examples(lambda2):
    assert hc_euler(hc_dimensions(lambda2)) == 1
    for n in range(2, 7):
        for power in range(1, 7):
            value = hc_euler(hc_dimensions(radical_power_algebra(n, power)))
            assert value == (1 - power if n % power == 0 else 1)


def test_report_schema(lambda2):
    rep = report(lambda2)
    assert rep["hc_dims"] == [0, 0, 1, 0, 0]
    assert rep["hc_euler"] == 1
    assert rep["basis_sizes"] == [0, 2, 7, 5, 1]


def test_differential_squares_to_zero_sweep():
    """The certificate holds, and so do the up-set it stands for and the
    composite d∘d, on every algebra at n <= 6, c <= 7 and on rad^(n+1) for
    n = 2..10."""
    algebras = list(enumerate_kupisch(SweepConfig(n_min=2, n_max=6, c_max=7)))
    algebras += [radical_power_algebra(n, n + 1) for n in range(2, 11)]
    for algebra in algebras:
        assert differential_squares_to_zero(algebra), algebra.kupisch
        assert is_up_set(algebra.n, cyclic_cells(algebra)), algebra.kupisch
        assert linalg_oracle.squares_to_zero(cyclic_differentials(algebra)), algebra.kupisch
    assert len(algebras) == 2996 + 9


@pytest.mark.parametrize("dropped", [(1, 2), (2, 4), (1, 2, 3, 4)])
def test_up_set_check_catches_a_dropped_cell(dropped):
    """On rad^5 of the 4-cycle every station set is a cell; without one of
    them, the cells are no up-set (a subset of the dropped cell is still a
    cell), and the oracle's up-set check fails."""
    levels = cyclic_cells(radical_power_algebra(4, 5))
    bits = sum(1 << w for w in dropped)
    assert levels[len(dropped) - 1][bits] == dropped
    planted = [{b: cell for b, cell in level.items() if b != bits} for level in levels]
    assert is_up_set(4, levels)
    assert not is_up_set(4, planted)


@pytest.mark.parametrize("series", [(4, 2, 3, 3), (3, 3, 3, 5), (5, 2, 5), (6, 6, 3, 4, 5, 6)])
def test_differential_squares_to_zero_needs_the_kupisch_inequality(series):
    """A series with some c_{i+1} < c_i - 1 (cyclically), wrapped by the
    trusted constructor, fails the certificate, and its cells are no
    up-set."""
    algebra = NakayamaAlgebra(series)
    assert not differential_squares_to_zero(algebra)
    assert not is_up_set(algebra.n, cyclic_cells(algebra))


def test_neighbour_inequalities_give_every_distance():
    """`CyclicSquare` compares each c_{w+1} with c_w - 1 only, n
    comparisons; the oracle compares every distance d < n.  They agree on
    every tuple in [1..7]^n, n <= 5, valid or not, and both answers
    occur."""
    answers = set()
    for n in range(1, 6):
        for c in product(range(1, 8), repeat=n):
            got = _arcs_hold(c)
            assert got == linalg_oracle.arcs_hold(c), c
            answers.add(got)
    assert answers == {False, True}


def test_differential_squares_to_zero_needs_alternating_signs(monkeypatch):
    algebra = radical_power_algebra(4, 5)
    signs = linalg.face_signs

    def flipped(p, sign):
        out = signs(p, sign)
        if p == 2:
            out[1] = -out[1]
        return out

    monkeypatch.setattr(linalg, "face_signs", flipped)
    assert not differential_squares_to_zero(algebra)


def _hc_matches_shifted_betti(algebra):
    cx = build_complex(algebra)
    betti = reduced_betti(cx)
    expected = [1 if cx.is_empty else 0] + [
        betti[p - 1] if p - 1 < len(betti) else 0 for p in range(1, algebra.n)
    ]
    return list(hc_dimensions(algebra)) == expected


def test_hc_equals_shifted_betti_up_to_n6():
    config = SweepConfig(
        n_min=2, n_max=6, c_max=5, classes=frozenset({AlgebraClass.CYCLIC})
    )
    count = 0
    for algebra in enumerate_kupisch(config):
        assert _hc_matches_shifted_betti(algebra), algebra
        count += 1
    assert count > 1000  # the sweep really covered something


def test_hc_euler_identities_sweep():
    for algebra in enumerate_kupisch(SweepConfig(n_min=2, n_max=5, c_max=5)):
        chi = euler_characteristic(build_complex(algebra))
        eu = hc_euler(hc_dimensions(algebra))
        assert eu == 1 - chi
        assert eu == sum((-1) ** p * s for p, s in enumerate(basis_sizes(algebra)))


def test_rank_consistency_on_differentials(lambda2):
    # homology dimensions are bounded by chain dimensions
    bases, differentials = cyclic_bases(lambda2), cyclic_differentials(lambda2)
    for p in range(1, lambda2.n):
        dense = to_dense(differentials[p], len(bases[p - 1]))
        assert rank(differentials[p]) == bareiss_rank(dense) <= min(
            len(bases[p]), len(bases[p - 1])
        )


def test_hc_of_rad_power_ranks_no_empty_degree(monkeypatch):
    """rad^(n+1) has one critical cell, {1}, so every degree above 0 is
    empty: `chain_ranks` skips them all and makes no `rank` call, and HC is
    the all-cell HC, ranked map by map."""
    expected = {}
    for n in range(3, 11):
        levels = cyclic_cells(radical_power_algebra(n, n + 1))
        maps = linalg_oracle.boundary_maps(levels, _SIGN, relative=True)
        ranks = [bareiss_rank(to_dense(m, len(levels[p]))) for p, m in enumerate(maps)]
        expected[n] = tuple(linalg_oracle.cyclic_hc(levels, ranks))
    calls = []
    ranked = linalg.rank

    def counted(*args):
        calls.append(args)
        return ranked(*args)

    monkeypatch.setattr(linalg, "rank", counted)
    for n in range(3, 11):
        assert hc_dimensions(radical_power_algebra(n, n + 1)) == expected[n] == (1,) + (0,) * (n - 1)
    assert calls == []
