import json
from dataclasses import replace
from itertools import combinations, islice, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nakayama import (
    AlgebraClass,
    TooLargeError,
    algebra_from_kupisch,
    harness,
    radical_power_algebra,
    resolution,
    unamalgamate,
    unamalgamation,
    validate,
)
from nakayama.algebra import is_valid_kupisch, least_rotation, mod1
from nakayama.harness import (
    STRUCTURAL_CHECKS,
    THEOREM_CHECKS,
    SweepConfig,
    TheoremReport,
    enumerate_kupisch,
    kupisch_series,
    sweep,
    to_csv,
    to_json,
    verify,
)
from nakayama.resolution import build

import enumeration_oracle
from strategies import kupisch_series as kupisch_series_strategy

REFERENCE = Path(__file__).parents[1] / "perfbench" / "reference"


def _series(config):
    return [a.kupisch for a in enumerate_kupisch(config)]


def test_enumerate_examples():
    only_cyclic = frozenset({AlgebraClass.CYCLIC})
    assert _series(SweepConfig(n_min=2, n_max=2, c_max=2, classes=only_cyclic)) == [(2, 2)]
    assert _series(SweepConfig(n_min=4, n_max=4, c_max=2, classes=only_cyclic)) == [(2, 2, 2, 2)]
    assert _series(SweepConfig(n_min=2, n_max=2, c_max=1)) == [(1, 1)]


def test_enumeration_matches_naive_filter():
    for n in (2, 3, 4):
        for c_max in (1, 2, 3, 4):
            naive = sorted(
                c
                for c in product(range(1, c_max + 1), repeat=n)
                if all(c[(i + 1) % n] >= c[i] - 1 for i in range(n))
            )
            assert list(kupisch_series(n, c_max)) == naive
            assert all(is_valid_kupisch(c) for c in naive)


def test_enumeration_matches_the_recursive_oracle():
    for n in range(1, 9):
        for c_max in range(0, 10):
            assert list(kupisch_series(n, c_max)) == list(enumeration_oracle.kupisch_series(n, c_max))


def test_enumeration_monotone_in_c_max():
    counts = [len(list(kupisch_series(4, c_max))) for c_max in range(1, 7)]
    assert counts == sorted(counts)
    assert all(a < b for a, b in zip(counts, counts[1:]))


def test_a_level_past_max_subsets_is_its_least_series_in_closed_form(monkeypatch):
    """With every level past the limit, each is one algebra, taken in
    closed form: the first the walk would enumerate, for n = 2..9,
    c_max = 1..4 and every nonempty set of classes."""
    configs = [
        SweepConfig(n_min=n, n_max=n, c_max=c_max, classes=frozenset(classes))
        for n in range(2, 10)
        for c_max in range(1, 5)
        for size in range(1, 4)
        for classes in combinations(AlgebraClass, size)
    ]
    walked = [[a.kupisch for a in islice(enumerate_kupisch(config), 1)] for config in configs]
    monkeypatch.setattr(harness, "MAX_SUBSETS", 1)
    monkeypatch.setattr(harness, "kupisch_series", None)  # not walked at all
    for config, first in zip(configs, walked):
        assert [a.kupisch for level, _ in harness._levels(config) for a in level] == first, config


def test_levels_stop_at_the_first_level_past_max_subsets(monkeypatch):
    """The class of each closed-form least series does not depend on n, so
    the first level past MAX_SUBSETS ends the walk: `verify` refuses its
    one algebra, or, when it has none, no later level has one either.
    n_max is far beyond what a walk of every level could reach; the
    classified series stand in for the levels examined."""
    config = SweepConfig(n_min=17, n_max=10**18, c_max=1)
    assert [[a.kupisch for a in level] for level, _ in islice(harness._levels(config), 2)] == [[(1,) * 17]]
    classify = AlgebraClass.of
    examined = []

    def counted(c):
        examined.append(c)
        assert len(examined) <= 3, "levels past the first one past MAX_SUBSETS were examined"
        return classify(c)

    monkeypatch.setattr(AlgebraClass, "of", staticmethod(counted))
    assert list(harness._levels(replace(config, classes=frozenset({AlgebraClass.CYCLIC})))) == []
    assert examined == [(1, 1, 1)]


def test_a_level_past_max_vertices_is_refused_before_its_series_is_built():
    """A level past MAX_VERTICES that holds an algebra of the requested
    classes is refused with `validate`'s text; an empty one is no refusal."""
    config = SweepConfig(n_min=2000, n_max=2000, c_max=1)
    with pytest.raises(TooLargeError, match=r"^quiver size 2000 is over 1024$"):
        next(harness._levels(config))
    assert list(harness._levels(replace(config, classes=frozenset({AlgebraClass.CYCLIC})))) == []


def test_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(n_min=1, n_max=3)
    with pytest.raises(ValueError):
        SweepConfig(checks=("A", "NoSuchCheck"))


def test_verify_lambda1(lambda1):
    v = verify(lambda1)
    inv = v.invariants
    assert inv.gldim.value == 4
    assert len(inv.weights) == 1 and inv.weights == (1,)
    assert inv.chi == 1
    assert v.ok
    assert set(THEOREM_CHECKS) | set(STRUCTURAL_CHECKS) == set(v.checks)


def test_verify_lambda2(lambda2):
    v = verify(lambda2)
    inv = v.invariants
    assert not inv.gldim.is_finite
    assert inv.weights == (2,) and inv.chi == 0
    assert v.hc_euler == 1
    assert v.ok


def test_verify_lambda3(lambda3):
    v = verify(lambda3)
    inv = v.invariants
    assert not inv.gldim.is_finite
    assert len(inv.weights) == 2 and inv.weights == (1, 1)
    assert inv.chi == 2
    # both sides of check A are false: two components, infinite dimension
    assert v.checks["A"] and v.checks["C"]
    assert v.ok


def test_verify_computes_gustafsons_function_once(monkeypatch, lambda1, lambda3):
    """`invariants` seeds its record's targets with those of the quiver it
    builds, and the leaf checks read them off that record, so verifying an
    algebra computes Gustafson's function on its series once, plus once in
    the full reduction that `Bprime` runs on lambda1 (two leaves)."""
    calls = []
    real = resolution.targets
    monkeypatch.setattr(resolution, "targets", lambda kupisch: calls.append(kupisch) or real(kupisch))
    v = verify(lambda3)
    assert v.ok and v.invariants.leaves == ()
    assert calls == [lambda3.kupisch]
    calls.clear()
    v = verify(lambda1)
    assert v.ok and v.invariants.leaves == (1, 2) and v.semisimple
    assert calls.count(lambda1.kupisch) == 2


def test_sweep_small_is_clean():
    report = sweep(SweepConfig(n_min=2, n_max=4, c_max=5))
    assert report.ok
    assert not report.counterexamples
    assert len(report.verdicts) == 168
    totals = report.totals()
    # 82 = brute-force count of 4-tuples in [2,5]^4 with c_{i+1} >= c_i - 1
    assert totals[(4, "cyclic")] == 82


def test_sweep_single_algebra():
    report = sweep(SweepConfig(n_min=4, n_max=4, c_max=2, classes=frozenset({AlgebraClass.CYCLIC})))
    assert len(report.verdicts) == 1
    assert report.verdicts[0].invariants.algebra.kupisch == (2, 2, 2, 2)
    assert report.ok


def test_same_weight_over_larger_range():
    # Every component of the resolution quiver carries the same weight;
    # checked directly so the range can be pushed further than a full sweep.
    for n in range(2, 7):
        for c in kupisch_series(n, 8):
            weights = build(algebra_from_kupisch(c)).weights
            assert len(set(weights)) == 1, c


def test_csv_and_json_outputs():
    config = SweepConfig(n_min=2, n_max=3, c_max=3)
    report = sweep(config)
    csv_text = to_csv(report)
    lines = csv_text.splitlines()
    assert lines[0] == "n,kupisch,gldim,components,weight,chi,betti,hc_dims,verdicts"
    assert len(lines) == 1 + len(report.verdicts)
    assert csv_text == to_csv(report)  # deterministic

    data = json.loads(to_json(report))
    assert data["ok"] is True
    assert data["algebra_count"] == len(report.verdicts)
    assert data["counterexamples"] == []
    assert data["config"]["c_max"] == 3


def test_parallel_sweep_matches_serial():
    config = SweepConfig(n_min=2, n_max=4, c_max=4)
    serial = sweep(config, workers=1)
    parallel = sweep(config, workers=2)
    assert to_csv(serial) == to_csv(parallel)


def test_sweep_rows_match_recorded_reference():
    """Every CSV row of a sweep at n <= 6, c <= 7 is byte-identical to the
    row recorded in the benchmark's reference sweep of the same range."""
    expected = (REFERENCE / "sweep.csv").read_text().splitlines()
    got = to_csv(sweep(SweepConfig(n_min=2, n_max=6, c_max=7))).splitlines()
    assert len(got) == len(expected) == 2997  # the header and 2996 rows
    for got_row, expected_row in zip(got, expected):
        assert got_row == expected_row


def test_verify_dicts_match_recorded_reference():
    """`verify(...).to_dict()` of rad^(n+1), n = 2..8, equals the dict recorded
    in the benchmark's rad-power reference, including the fields the CSV
    omits (leaves, f_vector, complex_empty, hc_euler, basis_sizes, class)."""
    reference = json.loads((REFERENCE / "rad-power.json").read_text())
    for n in range(2, 9):
        got = json.loads(json.dumps(verify(radical_power_algebra(n, n + 1)).to_dict()))
        assert got == reference[str(n)], n


def test_subset_limit_admits_rad12_on_11_vertices():
    assert verify(radical_power_algebra(11, 12)).ok


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_verdicts_match_verify_without_table(workers):
    """The table of invariants a sweep keeps changes no verdict: each one
    equals a `verify` that builds every smaller algebra afresh."""
    report = sweep(SweepConfig(n_min=2, n_max=5, c_max=6), workers=workers)
    assert len(report.verdicts) > 400
    for v in report.verdicts:
        assert v.to_dict() == verify(v.invariants.algebra).to_dict(), v.invariants.algebra.kupisch


def test_sweep_builds_invariants_once_per_rotation_class(monkeypatch):
    """A full sweep builds `invariants` once per rotation class, for its
    least rotation, and never for a leaf: every smaller algebra of a leaf
    check is found in the table of the level below."""
    built = []
    real = unamalgamation.invariants

    def counting(algebra, cx=None):
        built.append(algebra.kupisch)
        return real(algebra, cx)

    monkeypatch.setattr(unamalgamation, "invariants", counting)
    report = sweep(SweepConfig(n_min=2, n_max=5, c_max=6), workers=1)
    rows = [v.invariants.algebra.kupisch for v in report.verdicts]
    assert any(v.invariants.leaves for v in report.verdicts if v.invariants.algebra.n >= 3)
    assert built == [c for c in rows if least_rotation(c) == c]
    assert len(built) < len(rows) / 3


ONLY_CYCLIC = frozenset({AlgebraClass.CYCLIC})


@pytest.fixture(
    scope="module",
    params=[SweepConfig(n_min=2, n_max=6, c_max=7), SweepConfig(n_min=3, n_max=6, c_max=7, classes=ONLY_CYCLIC)],
    ids=["all", "cyclic-from-3"],
)
def exhaustive(request):
    """The oracle of the class sweep: `verify` on every enumerated algebra,
    with no rotation classes and no table."""
    config = request.param
    return TheoremReport(config, [verify(a, config.checks) for a in enumerate_kupisch(config)])


@pytest.mark.parametrize("workers", [1, 2])
def test_class_sweep_matches_exhaustive_oracle(exhaustive, workers):
    """The sweep verifies one algebra per rotation class and rotates its
    record into the other rows; its CSV, its JSON and every verdict's dict
    equal those of the exhaustive sweep."""
    report = sweep(exhaustive.config, workers=workers)
    assert to_csv(report) == to_csv(exhaustive)
    assert to_json(report) == to_json(exhaustive)
    assert [v.to_dict() for v in report.verdicts] == [v.to_dict() for v in exhaustive.verdicts]


def test_bprime_reads_the_entry_at_the_least_leaf():
    """Given a table, Bprime takes `reduce_fully(...).semisimple` from the
    entry for the output of the step at the least leaf.  The tables here
    are planted: that entry alone says False (or alone True), so the
    verdict shows which entry was read.  Runs over every finite-gldim,
    acyclic algebra at n <= 6, c <= 7 whose least leaf's output is in a
    rotation class of its own among its leaves' outputs."""
    checked = 0
    for algebra in enumerate_kupisch(SweepConfig(n_min=3, n_max=6, c_max=7)):
        inv = unamalgamation.invariants(algebra)
        if not inv.gldim.is_finite or any(inv.betti) or inv.complex_empty:
            continue
        classes = [least_rotation(unamalgamate(algebra, leaf).output.kupisch) for leaf in inv.leaves]
        if not classes or classes[0] in classes[1:]:
            continue
        records = {c0: unamalgamation.invariants(algebra_from_kupisch(c0)) for c0 in classes}
        for planted in (False, True):
            known = {c0: (records[c0], planted if c0 == classes[0] else not planted) for c0 in classes}
            verdict = verify(algebra, known=known)
            assert verdict.semisimple is planted and verdict.checks["Bprime"] is planted, algebra.kupisch
        checked += 1
    assert checked == 1090


def test_sweep_with_missing_smaller_algebras_matches_full_sweep():
    """With n_min = 3 and only cyclic algebras, the smaller algebras at n = 3
    and the non-cyclic ones are never verified, so lookups miss among the
    hits (34 of 214 class lookups); the rows still equal those of the full
    sweep."""
    only_cyclic = frozenset({AlgebraClass.CYCLIC})
    part = sweep(SweepConfig(n_min=3, n_max=5, c_max=6, classes=only_cyclic))
    full = sweep(SweepConfig(n_min=2, n_max=5, c_max=6))
    kept = [
        v for v in full.verdicts
        if v.invariants.algebra.n >= 3 and v.invariants.algebra.algebra_class in only_cyclic
    ]
    assert len(part.verdicts) == len(kept) > 100
    assert to_csv(part).splitlines()[1:] == to_csv(TheoremReport(full.config, kept)).splitlines()[1:]


def test_sweep_derives_relations_only_for_the_classes_it_verifies():
    """A row that is not the least rotation of its series gets its class's
    verdict without deriving its relations.  When a writer reads them, they
    are those `validate` gives for the class's relations, relabelled."""
    verdicts = sweep(SweepConfig(n_min=2, n_max=6, c_max=7)).verdicts
    verified = {}
    rotated = 0
    for v in verdicts:
        algebra = v.invariants.algebra
        c, n = algebra.kupisch, algebra.n
        c0 = least_rotation(c)
        if c == c0:
            verified[c0] = algebra
            continue
        assert "relations" not in vars(algebra), c
        k = next(k for k in range(n) if c0[k:] + c0[:k] == c)
        relabelled = [(mod1(r.start - k, n), r.length) for r in verified[c0].relations]
        assert algebra.to_dict() == validate(n, relabelled).to_dict()
        rotated += 1
    assert len(verified) + rotated == len(verdicts) == 2996 and rotated > len(verified)


@settings(max_examples=150, deadline=None)
@given(kupisch_series_strategy(max_n=6, max_c=6), st.integers(1, 5))
def test_rotation_leaves_every_invariant_and_check_unchanged(c, k):
    """Rotating the vertex labels is an isomorphism of algebras, so a rotated
    Kupisch series has the same invariants and the same verdicts."""
    k %= len(c)
    a = verify(algebra_from_kupisch(c))
    b = verify(algebra_from_kupisch(c[k:] + c[:k]))
    ia, ib = a.invariants, b.invariants
    assert ia.gldim == ib.gldim
    assert sorted(ia.weights) == sorted(ib.weights)
    assert ia.f_vector == ib.f_vector
    assert ia.betti == ib.betti
    assert len(ia.leaves) == len(ib.leaves)
    assert a.hc_dims == b.hc_dims
    assert a.basis_sizes == b.basis_sizes
    assert a.checks == b.checks
