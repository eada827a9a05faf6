"""Acceptance suite: one test per criterion, each printing a pass/fail line
(run with `pytest tests/test_acceptance.py -s` to see them).  All comparisons
are exact; nothing here tolerates approximation."""

import time

from nakayama import (
    algebra_from_kupisch,
    global_dimension,
    radical_power_algebra,
    validate,
)
from nakayama.cyclic import differential_squares_to_zero, hc_euler
from nakayama.cyclic import hc_dimensions
from nakayama.harness import SweepConfig, sweep
from nakayama.relation_complex import (
    boundary_squares_to_zero,
    build_complex,
    euler_characteristic,
    reduced_betti,
)
from nakayama.resolution import build, leaves
from nakayama.unamalgamation import check_properties, unamalgamate
from nakayama.algebra import kupisch_from_relations

import enumeration_oracle
from enumeration_oracle import enumerate_kupisch
import repr_oracle
from closed_form_oracle import rad_power_closed_form, rad_power_euler


def _finish(number, description, failures, t0):
    elapsed = time.perf_counter() - t0
    status = "PASS" if not failures else "FAIL"
    print(f"{status} criterion {number}: {description} ({elapsed:.2f}s)")
    assert not failures, failures[:5]


def test_criterion_1_worked_examples():
    t0 = time.perf_counter()
    failures = []

    def expect(condition, label):
        if not condition:
            failures.append(label)

    l1 = validate(5, [(2, 2), (3, 2), (5, 3)])
    rq1 = build(l1)
    expect(l1.kupisch == (3, 2, 2, 4, 3), "l1 kupisch")
    expect(rq1.f == (4, 4, 5, 3, 3), "l1 arrows")
    expect(len(rq1.components) == 1 and rq1.weights == (1,), "l1 one component weight 1")
    expect(euler_characteristic(build_complex(l1)) == 1, "l1 euler 1")
    expect(global_dimension(l1).is_finite, "l1 finite gldim")

    l2 = validate(5, [(1, 3), (2, 4), (4, 3), (5, 3)])
    rq2 = build(l2)
    expect(
        tuple(rq2.target(i) for i in range(1, 6)) == (4, 1, 2, 2, 3), "l2 arrows"
    )
    expect(rq2.weights == (2,), "l2 weight 2")
    cx2 = build_complex(l2)
    expect(cx2.f_vector == (4, 5, 1), "l2 f-vector")
    expect(euler_characteristic(cx2) == 0, "l2 euler 0")
    expect(not global_dimension(l2).is_finite, "l2 infinite gldim")
    expect(hc_euler(hc_dimensions(l2)) == 1, "l2 hc_euler 1")

    l3 = algebra_from_kupisch((2, 2, 2, 2))
    rq3 = build(l3)
    expect(len(rq3.components) == 2 and rq3.weights == (1, 1), "l3 two weight-1 components")
    cx3 = build_complex(l3)
    expect(cx3.f_vector == (4, 6, 4), "l3 tetrahedron boundary")
    expect(euler_characteristic(cx3) == 2, "l3 euler 2")
    expect(reduced_betti(cx3) == (0, 0, 1), "l3 betti")
    expect(hc_dimensions(l3) == (0, 0, 0, 1), "l3 hc only p=3")
    expect(not global_dimension(l3).is_finite, "l3 infinite gldim")

    step = unamalgamate(l2, 5)
    expect(
        step.raw_relations == ((1, 3), (2, 3), (4, 2), (4, 3)),
        "l2 unamalgamation raw relations",
    )
    expect(
        step.eliminated == (((4, 3), (4, 2)),),
        "l2 redundant relation eliminated",
    )
    report = check_properties(l2, 5)
    expect(report.all_ok, "l2 unamalgamation property checks")

    _finish(1, "worked-example fidelity", failures, t0)


def test_criterion_2_closed_form_lemmas():
    t0 = time.perf_counter()
    failures = []
    for n in range(2, 9):
        for power in range(1, 9):
            algebra = radical_power_algebra(n, power)
            rq = build(algebra)
            got = (len(rq.components), rq.weights[0])
            if len(set(rq.weights)) != 1 or got != rad_power_closed_form(n, power):
                failures.append(f"components/weight at n={n}, power={power}: {got}")
            chi = euler_characteristic(build_complex(algebra))
            if chi != rad_power_euler(n, power):
                failures.append(f"euler at n={n}, power={power}: {chi}")
    _finish(2, "rad-power closed forms, 2<=n<=8, 1<=power<=8", failures, t0)


def test_criterion_3_theorem_sweep():
    t0 = time.perf_counter()
    report = sweep(SweepConfig(n_min=2, n_max=5, c_max=7))
    failures = [(c, v.failed) for c, v in report.counterexamples]
    count = len(report.rows)
    _finish(3, f"theorem sweep over {count} algebras (n<=5, c<=7, all classes)", failures, t0)


def test_criterion_4_structural_invariants():
    t0 = time.perf_counter()
    failures = []
    for algebra in enumerate_kupisch(SweepConfig(n_min=2, n_max=5, c_max=7)):
        key = algebra.kupisch
        cx = build_complex(algebra)
        if not boundary_squares_to_zero(cx):
            failures.append(("dd", key))
        if not differential_squares_to_zero(algebra):
            failures.append(("bb", key))
        rq = build(algebra)
        for comp in rq.components:
            if sum(algebra.kupisch[v - 1] for v in comp.cycle) % algebra.n != 0:
                failures.append(("weight integrality", key))
        if kupisch_from_relations(algebra.n, algebra.relations) != algebra.kupisch:
            failures.append(("kupisch round-trip", key))
        chi = euler_characteristic(cx)
        betti = reduced_betti(cx)
        euler_poincare = (
            chi == 0 if cx.is_empty
            else chi == 1 + sum((-1) ** p * b for p, b in enumerate(betti))
        )
        if not euler_poincare:
            failures.append(("euler-poincare", key))
        if algebra.n >= 3:
            for leaf in sorted(leaves(rq)):
                if not check_properties(algebra, leaf).gldim_sandwich:
                    failures.append(("gldim sandwich", key, leaf))
    _finish(4, "structural invariants across the sweep", failures, t0)


def test_criterion_5_oracle_equivalence():
    t0 = time.perf_counter()
    failures = []
    checked = algebras = 0
    for algebra in enumerate_kupisch(SweepConfig(n_min=2, n_max=4, c_max=5)):
        c = algebra.kupisch
        simples = []
        for top in range(1, algebra.n + 1):
            for length in range(1, c[top - 1] + 1):
                fast = enumeration_oracle.projective_dimension(algebra, top, length)
                slow = repr_oracle.projective_dimension(algebra, top, length)
                if fast != slow:
                    failures.append((c, top, length, fast, slow))
                if length == 1:
                    simples.append(slow)
                checked += 1
        gldim = global_dimension(algebra).value
        if gldim != (None if None in simples else max(simples)):
            failures.append((c, "gldim", gldim, simples))
        algebras += 1
    _finish(
        5,
        f"interval syzygies match the kernel oracle on {checked} modules, gldim on {algebras} algebras",
        failures,
        t0,
    )
