import math
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linalg_oracle
from closed_form_oracle import rad_power_euler
from enumeration_oracle import complex_vertices, is_simplex
from linalg_oracle import bareiss_rank
from strategies import cyclic_kupisch_series
from nakayama import Relation, algebra_from_kupisch, linalg, radical_power_algebra, relation_complex, validate
from nakayama.harness import SweepConfig, enumerate_kupisch, verify
from nakayama.relation_complex import (
    SimplicialComplex,
    boundary_squares_to_zero,
    build_complex,
    complex_from_interiors,
    euler_characteristic,
    interior,
    reduced_betti,
    report,
    to_off,
)
from nakayama.resolution import build, leaves
from nakayama.unamalgamation import check_properties


def test_interior():
    assert interior(5, 3, 5) == 0b00011  # {1, 2}
    assert interior(2, 4, 5) == 0b11100  # {3, 4, 5}
    assert interior(1, 1, 5) == 0
    with pytest.raises(ValueError):
        interior(1, 6, 5)


def test_is_simplex_lambda2(lambda2):
    y1, y2, y3, y4 = lambda2.relations
    assert not is_simplex(lambda2, [y2, y4])  # together they cover all five vertices
    assert is_simplex(lambda2, [y1, y3, y4])
    assert is_simplex(lambda2, [])


def test_f_vectors(lambda1, lambda2, lambda3):
    assert build_complex(lambda2).f_vector == (4, 5, 1)
    assert build_complex(lambda3).f_vector == (4, 6, 4)
    # the three interiors {3}, {4}, {1,2} miss vertex 5, so the triangle fills
    assert build_complex(lambda1).f_vector == (3, 3, 1)


def test_euler_examples(lambda1, lambda2, lambda3):
    assert euler_characteristic(build_complex(lambda2)) == 0
    assert euler_characteristic(build_complex(lambda3)) == 2
    assert euler_characteristic(build_complex(lambda1)) == 1


def test_reduced_betti_examples(lambda1, lambda2, lambda3):
    assert reduced_betti(build_complex(lambda3)) == (0, 0, 1)  # a 2-sphere
    assert reduced_betti(build_complex(lambda2)) == (0, 1)  # a circle
    assert reduced_betti(build_complex(lambda1)) == ()  # contractible


def test_linear_algebra_complex_is_cone():
    linear = validate(4, [(1, 1), (2, 2), (3, 2)])
    cx = build_complex(linear)
    assert reduced_betti(cx) == ()
    assert euler_characteristic(cx) == 1
    cone_point = complex_vertices(linear).index(Relation(1, 1))
    all_simplices = {s for level in cx.simplices for s in level}
    maximal = [s for s in all_simplices
               if not any(set(s) < set(t) for t in all_simplices)]
    assert maximal and all(cone_point in s for s in maximal)


def test_cone_factorization_matches_enumeration_over_sweep():
    """The f-vector and reduced Betti numbers, read off the cone points where
    there are any, equal the simplex counts of the enumerated complex and
    the Betti numbers of its boundary maps ranked by Bareiss elimination,
    for every algebra at n <= 7, c <= 8."""
    cones = others = 0
    for algebra in enumerate_kupisch(SweepConfig(n_min=2, n_max=7, c_max=8)):
        cx = build_complex(algebra)
        enumerated = build_complex(algebra)
        f = tuple(len(level) for level in enumerated.simplices)
        assert cx.f_vector == f, algebra.kupisch
        maps = linalg_oracle.boundary_maps(enumerated._levels, 1)
        assert reduced_betti(cx) == linalg_oracle.reduced_betti(f, maps), algebra.kupisch
        cones += cx.cone_points > 0
        others += cx.cone_points == 0
    assert cones + others == 12600 and cones and others


@pytest.mark.parametrize("kupisch", [
    (1,) * 10,  # semisimple: ten cone points and nothing else; leafy-queries' largest
    (3, 3, 3, 3, 3, 3, 3, 3, 2, 1),
    (2, 1, 3, 2, 1, 2, 2, 2, 1),
])
def test_cones_build_no_simplices_and_no_boundary_maps(monkeypatch, kupisch):
    """`report` and the leaf checks read a cone's f-vector and Betti
    numbers without enumerating it or building a boundary map, and
    `verify`'s verdict carries that f-vector."""
    def unread(*args):
        raise AssertionError("the complex was enumerated or its boundaries built or ranked")

    monkeypatch.setattr(linalg, "chain_ranks", unread)
    # the simplices and the f-vector of a complex without cone points are
    # read off its enumerated levels
    monkeypatch.setattr(SimplicialComplex, "_levels", property(unread))
    algebra = algebra_from_kupisch(kupisch)
    cx = build_complex(algebra)
    assert cx.cone_points > 0
    assert report(cx)["reduced_betti"] == []
    for leaf in leaves(build(algebra)):
        assert check_properties(algebra, leaf).all_ok
    # verify's EulerPoincare and BoundarySquare self-checks enumerate the
    # complex, so its verdict is read with the patches undone
    monkeypatch.undo()
    assert verify(algebra).f_vector == cx.f_vector


@settings(max_examples=60, deadline=None)
@given(cyclic_kupisch_series(min_n=2, max_n=11, max_c=12))
def test_reduced_betti_matches_the_augmented_complex(kupisch):
    """With no length-1 relation there is no cone point, and the pair
    (L, st v) is ranked: its Betti numbers are those of the augmented
    complex of L, each map ranked by Bareiss elimination, past the
    sweep's bounds."""
    cx = build_complex(algebra_from_kupisch(kupisch))
    assert cx.cone_points == 0
    f = tuple(len(level) for level in cx._levels)
    assert reduced_betti(cx) == linalg_oracle.reduced_betti(f, linalg_oracle.boundary_maps(cx._levels, 1))


def test_reduced_betti_ranks_the_cells_of_the_pair(monkeypatch):
    """rad^2 = 0 on the 4-cycle: L is the boundary of the tetrahedron, every
    interior is one vertex, and v is vertex 0.  Every simplex but the
    triangle opposite v, together with v, spans a simplex, so that
    triangle is the pair's one cell, and it carries the 2-sphere's class."""
    ranked = []
    chain_ranks = linalg.chain_ranks
    monkeypatch.setattr(linalg, "chain_ranks", lambda cells, sign: ranked.append(cells) or chain_ranks(cells, sign))
    assert reduced_betti(build_complex(algebra_from_kupisch((2, 2, 2, 2)))) == (0, 0, 1)
    assert ranked == [[{}, {}, {0b1110: (1, 2, 3)}]]


# a cone and a 2-sphere
CERTIFIED = [(2, 1, 3, 2, 1, 2, 2, 2, 1), (2, 2, 2, 2)]


@pytest.mark.parametrize("kupisch", CERTIFIED)
def test_boundary_square_needs_alternating_signs(monkeypatch, kupisch):
    """A planted sign flip on the relation complex's edges fails the
    certificate, in `verify` too."""
    algebra = algebra_from_kupisch(kupisch)
    assert verify(algebra).checks["BoundarySquare"]
    signs = linalg.face_signs

    def flipped(p, sign):
        out = signs(p, sign)
        if (p, sign) == (1, 1):
            out[1] = -out[1]
        return out

    monkeypatch.setattr(linalg, "face_signs", flipped)
    assert not boundary_squares_to_zero(build_complex(algebra))
    assert not verify(algebra).checks["BoundarySquare"]


@pytest.mark.parametrize("kupisch", CERTIFIED)
def test_boundary_square_needs_every_facet(monkeypatch, kupisch):
    """A planted missing facet, the first facet of the first top simplex,
    fails the certificate, in `verify` too.  The kernel would skip that
    face as zero, so only the certificate sees it."""
    algebra = algebra_from_kupisch(kupisch)
    r = len(complex_vertices(algebra))
    levels_of = relation_complex.simplex_levels

    def planted(n, masks):
        levels = levels_of(n, masks)
        if (n, len(masks)) == (algebra.n, r):  # L itself, not L'' of a cone
            bits, simplex = next(iter(levels[-1].items()))
            del levels[-2][bits ^ 1 << simplex[0]]
        return levels

    monkeypatch.setattr(relation_complex, "simplex_levels", planted)
    assert not boundary_squares_to_zero(build_complex(algebra))
    assert not verify(algebra).checks["BoundarySquare"]


@pytest.mark.parametrize("kupisch", [(1,) * 10, (3, 3, 3, 3, 3, 3, 3, 3, 2, 1), (2, 1, 3, 2, 1, 2, 2, 2, 1)])
def test_verify_checks_the_cone_factorization(monkeypatch, kupisch):
    """`verify` enumerates a cone's L'' once, for the f-vector, and the cone
    once, for the self-checks (the leaf checks enumerate only complexes on
    n - 1 vertices).  Its EulerPoincare self-check compares the binomial
    convolution over L'' with the enumerated counts: a planted C(k+1, a)
    for C(k, a) makes it fail."""
    algebra = algebra_from_kupisch(kupisch)
    r = len(complex_vertices(algebra))
    k = build_complex(algebra).cone_points
    levels = relation_complex.simplex_levels
    calls = []
    monkeypatch.setattr(
        relation_complex, "simplex_levels",
        lambda n, masks: calls.append((n, len(masks))) or levels(n, masks),
    )
    assert verify(algebra).checks["EulerPoincare"]
    assert [call for call in calls if call[0] == algebra.n] == [(algebra.n, r - k), (algebra.n, r)]
    monkeypatch.setattr(relation_complex, "math", SimpleNamespace(comb=lambda k, a: math.comb(k + 1, a)))
    assert not verify(algebra).checks["EulerPoincare"]


def test_empty_complex():
    # rad^3 on the 2-cycle: both relations are longer than the quiver
    cx = build_complex(algebra_from_kupisch((3, 3)))
    assert cx.is_empty
    assert cx.f_vector == ()
    assert euler_characteristic(cx) == 0
    assert reduced_betti(cx) == ()
    assert report(cx)["empty"] is True


def test_emptiness_by_relation_lengths_over_sweep():
    """The complex is empty iff no relation has length <= n, that is iff
    it has no vertex, as the leaf checks read it: on every algebra at
    n <= 7, c <= 8."""
    count = empty = 0
    for algebra in enumerate_kupisch(SweepConfig(n_min=2, n_max=7, c_max=8)):
        cx = build_complex(algebra)
        by_lengths = all(rel.length > algebra.n for rel in algebra.relations)
        assert by_lengths == (not cx.masks) == cx.is_empty, algebra.kupisch
        count += 1
        empty += by_lengths
    assert count == 12600 and empty > 0


def test_report_schema(lambda2):
    rep = report(build_complex(lambda2))
    assert rep == {
        "f_vector": [4, 5, 1],
        "euler": 0,
        "reduced_betti": [0, 1],
        "empty": False,
    }


def test_rad_power_euler_examples():
    assert rad_power_euler(4, 2) == 2
    assert rad_power_euler(5, 3) == 0
    for n in range(2, 9):
        assert rad_power_euler(n, 1) == 1


def test_rad_power_euler_matches_build():
    for n in range(2, 9):
        for power in range(1, 9):
            built = euler_characteristic(build_complex(radical_power_algebra(n, power)))
            assert built == rad_power_euler(n, power)


def test_boundary_squares_and_euler_poincare_over_sweep():
    """The certificate holds, and so does the composite it stands for, on
    every algebra at n <= 6, c <= 7."""
    for algebra in enumerate_kupisch(SweepConfig(n_min=2, n_max=6, c_max=7)):
        cx = build_complex(algebra)
        assert boundary_squares_to_zero(cx)
        assert linalg_oracle.squares_to_zero(linalg_oracle.boundary_maps(cx._levels, 1)), algebra.kupisch
        chi = euler_characteristic(cx)
        betti = reduced_betti(cx)
        if cx.is_empty:
            assert chi == 0
        else:
            assert chi == 1 + sum((-1) ** p * b for p, b in enumerate(betti))


def test_downward_closure():
    for algebra in enumerate_kupisch(SweepConfig(n_min=2, n_max=4, c_max=4)):
        cx = build_complex(algebra)
        all_simplices = {s for level in cx.simplices for s in level}
        for s in all_simplices:
            if len(s) > 1:
                for j in range(len(s)):
                    assert s[:j] + s[j + 1:] in all_simplices


def test_to_off(lambda2):
    off = to_off(build_complex(lambda2))
    lines = off.splitlines()
    assert lines[0] == "OFF"
    assert lines[1] == "4 6 0"  # 4 vertices, 5 edges + 1 triangle
    assert "3 0 2 3" in lines  # the filled triangle y1 y3 y4


def test_to_off_counts_the_vertices_of_bare_interiors():
    """A complex built from bare interiors has no Relation vertices, but its
    faces name vertices 0..2, so it needs one coordinate line for each."""
    off = to_off(complex_from_interiors(4, [0b0010, 0b0100, 0b0001]))  # {2}, {3}, {1}
    assert off.splitlines()[1] == "3 4 0"
    assert off == to_off(build_complex(validate(4, [(1, 2), (2, 2), (4, 2)])))


def _fraction_rank(mat):
    m = [[Fraction(x) for x in row] for row in mat]
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


@given(
    st.lists(
        st.lists(st.integers(-6, 6), min_size=1, max_size=6),
        min_size=1,
        max_size=6,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_integer_rank_matches_fraction_elimination(rows):
    assert bareiss_rank(rows) == _fraction_rank(rows)
