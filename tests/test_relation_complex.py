from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from closed_form_oracle import rad_power_euler
from enumeration_oracle import is_simplex
from linalg_oracle import bareiss_rank
from nakayama import Relation, algebra_from_kupisch, radical_power_algebra, validate
from nakayama.harness import SweepConfig, enumerate_kupisch
from nakayama.relation_complex import (
    boundary_squares_to_zero,
    build_complex,
    euler_characteristic,
    interior,
    reduced_betti,
    report,
    to_off,
)


def test_interior():
    assert interior(Relation(5, 3), 5) == {1, 2}
    assert interior(Relation(2, 4), 5) == {3, 4, 5}
    assert interior(Relation(1, 1), 5) == frozenset()
    with pytest.raises(ValueError):
        interior(Relation(1, 6), 5)


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
    cone_point = cx.vertices.index(Relation(1, 1))
    all_simplices = {s for level in cx.simplices for s in level}
    maximal = [s for s in all_simplices
               if not any(set(s) < set(t) for t in all_simplices)]
    assert maximal and all(cone_point in s for s in maximal)


def test_empty_complex():
    # rad^3 on the 2-cycle: both relations are longer than the quiver
    cx = build_complex(algebra_from_kupisch((3, 3)))
    assert cx.is_empty
    assert cx.f_vector == ()
    assert euler_characteristic(cx) == 0
    assert reduced_betti(cx) == ()
    assert report(cx)["empty"] is True


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
    for algebra in enumerate_kupisch(SweepConfig(n_min=2, n_max=5, c_max=5)):
        cx = build_complex(algebra)
        assert boundary_squares_to_zero(cx)
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
