from hypothesis import given, settings

from closed_form_oracle import rad_power_closed_form
from nakayama import NakayamaAlgebra, radical_power_algebra, validate
from nakayama.harness import SweepConfig, enumerate_kupisch
from nakayama.resolution import (
    build,
    leaves,
    targets,
    to_dot,
    weights,
)
from strategies import kupisch_series


def test_gustafson_examples(lambda1, lambda2):
    assert targets(lambda1.kupisch)[0] == 4
    assert targets(lambda2.kupisch)[4] == 3
    assert targets((1, 1, 1)) == (2, 3, 1)


def test_build_lambda1(lambda1):
    rq = build(lambda1)
    assert rq.f == (4, 4, 5, 3, 3)
    assert len(rq.components) == 1
    assert rq.components[0].cycle == (3, 5)
    assert rq.components[0].weight == 1


def test_build_lambda2(lambda2):
    rq = build(lambda2)
    assert {i: rq.target(i) for i in range(1, 6)} == {1: 4, 2: 1, 3: 2, 4: 2, 5: 3}
    assert len(rq.components) == 1
    assert rq.components[0].cycle == (1, 4, 2)
    assert rq.components[0].weight == 2


def test_build_lambda3(lambda3):
    rq = build(lambda3)
    assert [sorted(c.vertices) for c in rq.components] == [[1, 3], [2, 4]]
    assert rq.weights == (1, 1)
    assert [c.cycle for c in rq.components] == [(1, 3), (2, 4)]


def test_leaves_examples(lambda1, lambda2, lambda3):
    assert leaves(build(lambda2)) == {5}
    assert leaves(build(lambda1)) == {1, 2}
    assert leaves(build(lambda3)) == frozenset()


def test_rad_power_closed_form_examples():
    assert rad_power_closed_form(4, 2) == (2, 1)
    assert rad_power_closed_form(5, 3) == (1, 3)
    assert rad_power_closed_form(6, 6) == (6, 1)


def test_rad_power_closed_form_matches_build():
    for n in range(2, 9):
        for power in range(1, 9):
            rq = build(radical_power_algebra(n, power))
            assert len(set(rq.weights)) == 1
            assert (len(rq.components), rq.weights[0]) == rad_power_closed_form(n, power)


def test_structure_over_small_sweep():
    for algebra in enumerate_kupisch(SweepConfig(n_min=2, n_max=5, c_max=5)):
        rq = build(algebra)
        n = algebra.n
        # one cycle per component, weight integrality, equal weights,
        # and nodes in bijection with relations
        assert sum(len(c.vertices) for c in rq.components) == n
        for comp in rq.components:
            assert set(comp.cycle) <= comp.vertices
            assert sum(algebra.kupisch[v - 1] for v in comp.cycle) == comp.weight * n
        assert len(set(rq.weights)) == 1
        assert n - len(leaves(rq)) == len(algebra.relations)


def test_cycle_detection_agrees_with_iteration():
    # a vertex lies on a cycle iff iterating f from it returns to it
    for algebra in enumerate_kupisch(SweepConfig(n_min=2, n_max=4, c_max=4)):
        rq = build(algebra)
        on_cycle = set()
        for start in range(1, algebra.n + 1):
            seen = set()
            v = start
            while v not in seen:
                seen.add(v)
                v = rq.target(v)
            if v == start:
                on_cycle.add(start)
        assert on_cycle == set(rq.cycle_vertices)


def _quiver_oracle(algebra):
    """f, then each component as (vertices, cycle, weight), by brute force:
    components are the classes of the closure of i ~ f(i), listed by least
    vertex; a cycle is the orbit of the least periodic point of its
    component."""
    n, c = algebra.n, algebra.kupisch
    f = tuple((i + c[i - 1] - 1) % n + 1 for i in range(1, n + 1))
    component = {i: {i} for i in range(1, n + 1)}
    for i in range(1, n + 1):
        merged = component[i] | component[f[i - 1]]
        for v in merged:
            component[v] = merged
    periodic = set()
    for v in range(1, n + 1):
        u = v
        for _ in range(n):
            u = f[u - 1]
            if u == v:
                periodic.add(v)
                break
    expected = []
    for vertices in sorted({frozenset(s) for s in component.values()}, key=min):
        start = min(vertices & periodic)
        cycle = [start]
        while f[cycle[-1] - 1] != start:
            cycle.append(f[cycle[-1] - 1])
        expected.append((vertices, tuple(cycle), sum(c[v - 1] for v in cycle) // n))
    return f, expected


def test_build_matches_brute_force_oracle():
    """f, each component's vertices, cycle and weight, and the order of the
    components, for every algebra at n <= 6, c <= 7."""
    count = 0
    for algebra in enumerate_kupisch(SweepConfig(n_min=2, n_max=6, c_max=7)):
        rq = build(algebra)
        f, expected = _quiver_oracle(algebra)
        assert rq.f == f, algebra.kupisch
        got = [(comp.vertices, comp.cycle, comp.weight) for comp in rq.components]
        assert got == expected, algebra.kupisch
        count += 1
    assert count == 2996


def test_weights_walk_matches_build_and_oracle():
    """The weights of the lean walk are the quiver's and the brute-force
    oracle's, in the same order (by least vertex), for every algebra at
    n <= 8, c <= 9."""
    count = 0
    for algebra in enumerate_kupisch(SweepConfig(n_min=2, n_max=8, c_max=9)):
        expected = tuple(w for _, _, w in _quiver_oracle(algebra)[1])
        got = weights(algebra.kupisch)
        assert got == weights(algebra.kupisch, targets(algebra.kupisch)), algebra.kupisch
        assert got == build(algebra).weights == expected, algebra.kupisch
        count += 1
    assert count == 52969


@settings(max_examples=150, deadline=None)
@given(kupisch_series(min_n=2, max_n=40, max_c=45))
def test_weights_walk_matches_oracle_on_long_series(c):
    algebra = NakayamaAlgebra(c)
    expected = tuple(w for _, _, w in _quiver_oracle(algebra)[1])
    assert weights(c) == build(algebra).weights == expected


def test_dot_output(lambda1):
    dot = to_dot(build(lambda1))
    assert dot.startswith("digraph resolution_quiver {")
    assert "// component 1: weight 1" in dot
    assert "  1 -> 4;" in dot
    assert "  3 -> 5 [style=bold];" in dot
    assert "  5 -> 3 [style=bold];" in dot
    assert dot == to_dot(build(lambda1))


def test_dot_multiple_components(lambda3):
    dot = to_dot(build(lambda3))
    assert "// component 1: weight 1" in dot
    assert "// component 2: weight 1" in dot


def test_weight_failure_is_internal_error():
    rq = build(validate(4, [(1, 2), (2, 2), (3, 2), (4, 2)]))
    assert rq.weights == (1, 1)  # sanity: the assertion path stays silent on valid input
