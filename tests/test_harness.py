import csv
import io
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
    cyclic,
    harness,
    radical_power_algebra,
    resolution,
    unamalgamate,
    unamalgamation,
    validate,
)
from nakayama.algebra import NakayamaAlgebra, ProjDim, is_valid_kupisch
from nakayama.harness import (
    STRUCTURAL_CHECKS,
    THEOREM_CHECKS,
    AlgebraVerdict,
    SweepConfig,
    TheoremReport,
    sweep,
    to_csv,
    to_json,
    verify,
)
from nakayama.resolution import build

import enumeration_oracle
import leaf_oracle
import planted_checks
from enumeration_oracle import enumerate_kupisch, kupisch_series, least_rotation, mod1, rotations
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
    # no class key of a level is listed
    monkeypatch.setattr(harness, "_necklaces", None)
    for config, first in zip(configs, walked):
        assert [c for units in harness._levels(config) for unit in units for c in unit] == first, config


def test_levels_stop_at_the_first_level_past_max_subsets(monkeypatch):
    """The class of each closed-form least series does not depend on n, so
    the first level past MAX_SUBSETS ends the levels: `verify` refuses its
    one algebra, or, when it has none, no later level has one either.
    n_max is far beyond what a walk of every level could reach; the
    classified series stand in for the levels examined."""
    config = SweepConfig(n_min=17, n_max=10**18, c_max=1)
    levels = islice(harness._levels(config), 2)
    assert [[c for unit in units for c in unit] for units in levels] == [[(1,) * 17]]
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


CLASS_SETS = [frozenset(s) for size in range(1, 4) for s in combinations(AlgebraClass, size)]
CLASS_SET_IDS = ["+".join(sorted(c.value for c in s)) for s in CLASS_SETS]


@pytest.mark.parametrize("classes", CLASS_SETS, ids=CLASS_SET_IDS)
def test_level_keys_are_the_least_rotations(monkeypatch, classes):
    """A sweep's rows are the enumerated algebras of the requested classes,
    at n <= 7, c <= 8, and the classes it verifies are keyed by the least
    rotations of those rows, each once, in the order of the levels' units,
    so the earlier class of a mirror pair before its pair.  Each rotation
    class is classified once, requested or not.  Each class whose mirror
    class, that of the opposite algebra by the oracle's word rule, has a
    larger key is paired with that key, and no other class is paired.
    `verify` is stubbed, as the rows are what is checked."""
    config = SweepConfig(n_min=2, n_max=7, c_max=8, classes=classes)
    classify = AlgebraClass.of
    classified, verified = [], []

    def stub(algebra, checks, known, mirror=None):
        verified.append(algebra.kupisch)
        return AlgebraVerdict(algebra, resolution.targets(algebra.kupisch), (1,), (), (), ProjDim(0), (), ())

    monkeypatch.setattr(harness, "verify", stub)
    monkeypatch.setattr(AlgebraClass, "of", staticmethod(lambda c: classified.append(c) or classify(c)))
    rows = [c for c, _ in sweep(config).rows]
    monkeypatch.undo()
    assert rows == [a.kupisch for a in enumerate_kupisch(config)]
    units = [unit for level in harness._levels(config) for unit in level]
    assert verified == [c for unit in units for c in unit]
    assert sorted(verified) == sorted({least_rotation(c) for c in rows})
    every = [c for n in range(2, 8) for c in kupisch_series(n, 8)]
    assert classified == [c for c in every if least_rotation(c) == c]
    mirrors = {unit[0]: unit[1] for unit in units if len(unit) == 2}
    expected = {c0: least_rotation(enumeration_oracle.opposite_kupisch(c0)) for c0 in verified}
    assert mirrors == {c0: m0 for c0, m0 in expected.items() if m0 > c0}


@pytest.mark.parametrize("classes", CLASS_SETS, ids=CLASS_SET_IDS)
def test_levels_match_the_walk_oracle(classes):
    """At every n <= 8 and 1 <= c_max <= n + 2, a level's class keys and
    mirror pairs, listed as necklaces, are those the oracle finds by
    walking every series of the level, and a level with no requested
    class is not listed."""
    for n in range(2, 9):
        for c_max in range(1, n + 3):
            _check_level(n, c_max, classes)


@settings(max_examples=10, deadline=None)
@given(st.integers(9, 11), st.integers(1, 4), st.sampled_from(CLASS_SETS))
def test_levels_match_the_walk_oracle_past_n8(n, c_max, classes):
    _check_level(n, c_max, classes)


def _check_level(n, c_max, classes):
    expected = enumeration_oracle.level_classes(kupisch_series(n, c_max), classes)
    got = list(harness._levels(SweepConfig(n_min=n, n_max=n, c_max=c_max, classes=classes)))
    assert got == ([expected] if expected else []), (n, c_max)


def test_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(n_min=1, n_max=3)
    with pytest.raises(ValueError):
        SweepConfig(checks=("A", "NoSuchCheck"))


def test_verify_lambda1(lambda1):
    v = verify(lambda1)
    assert v.gldim.value == 4
    assert len(v.weights) == 1 and v.weights == (1,)
    assert v.chi == 1
    assert v.ok
    assert set(THEOREM_CHECKS) | set(STRUCTURAL_CHECKS) == set(v.checks)


def test_verify_lambda2(lambda2):
    v = verify(lambda2)
    assert not v.gldim.is_finite
    assert v.weights == (2,) and v.chi == 0
    assert v.hc_euler == 1
    assert v.ok


def test_verify_lambda3(lambda3):
    v = verify(lambda3)
    assert not v.gldim.is_finite
    assert len(v.weights) == 2 and v.weights == (1, 1)
    assert v.chi == 2
    # both sides of check A are false: two components, infinite dimension
    assert v.checks["A"] and v.checks["C"]
    assert v.ok


def test_verify_computes_gustafsons_function_once(monkeypatch, lambda1, lambda3):
    """`verify` keeps in its verdict the targets it computes for the
    weights, and the leaf checks read them off that record, so verifying an
    algebra computes Gustafson's function on its series once.  The full
    reduction that `Bprime` runs on lambda1 (two leaves) goes on from the
    leaf check's step at the least leaf, so it does not compute it again."""
    calls = []
    real = resolution.targets
    monkeypatch.setattr(resolution, "targets", lambda kupisch: calls.append(kupisch) or real(kupisch))
    v = verify(lambda3)
    assert v.ok and v.leaves == ()
    assert calls == [lambda3.kupisch]
    calls.clear()
    v = verify(lambda1)
    assert v.ok and v.leaves == (1, 2) and v.semisimple
    assert calls.count(lambda1.kupisch) == 1


def test_sweep_small_is_clean():
    report = sweep(SweepConfig(n_min=2, n_max=4, c_max=5))
    assert report.ok
    assert not report.counterexamples
    assert len(report.rows) == 168
    totals = report.totals()
    # 82 = brute-force count of 4-tuples in [2,5]^4 with c_{i+1} >= c_i - 1
    assert totals[(4, "cyclic")] == 82


def test_sweep_single_algebra():
    report = sweep(SweepConfig(n_min=4, n_max=4, c_max=2, classes=frozenset({AlgebraClass.CYCLIC})))
    ((c, v),) = report.rows
    assert c == v.algebra.kupisch == (2, 2, 2, 2)
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
    assert len(lines) == 1 + len(report.rows)
    assert csv_text == to_csv(report)  # deterministic

    data = json.loads(to_json(report))
    assert data["ok"] is True
    assert data["algebra_count"] == len(report.rows)
    assert data["counterexamples"] == []
    assert data["config"]["c_max"] == 3


@pytest.mark.parametrize("workers", [1, 2])
def test_counterexamples_are_the_failing_rows(monkeypatch, workers):
    """With check A planted to fail on every class whose entries sum to a
    multiple of 3, through the `verify` that the sweep calls in each of its
    processes, a sweep at n <= 6, c <= 7 reports exactly the failing rows,
    in row order: the JSON writes each as the algebra of its own series,
    not its class's key, with its class's failed checks, and the CSV marks
    the same rows with the same checks."""
    monkeypatch.setattr(harness, "_verify_units", planted_checks.verify_units)
    config = SweepConfig(n_min=2, n_max=6, c_max=7)
    report = sweep(config, workers=workers)
    series = _series(config)
    failing = [c for c in series if planted_checks.fails(c)]
    assert any(c != least_rotation(c) for c in failing) and 0 < len(failing) < len(series) == 2996
    data = json.loads(to_json(report))
    assert data["ok"] is False and data["algebra_count"] == len(report) == len(series)
    assert data["counterexamples"] == [
        {"algebra": algebra_from_kupisch(c).to_dict(), "failed": ["A"]} for c in failing
    ]
    assert len(report.counterexamples) == len(failing)
    rows = [row.split(",") for row in to_csv(report).splitlines()[1:]]
    assert [(tuple(map(int, row[1].split())), row[-1]) for row in rows if row[-1] != "ok"] == [
        (c, "A") for c in failing
    ]


@pytest.mark.parametrize("workers", [2, 3])
def test_parallel_sweep_matches_serial(workers):
    """Each level's mirror pairs dealt to 2 or 3 workers give the serial
    sweep's outputs, byte for byte."""
    config = SweepConfig(n_min=2, n_max=6, c_max=7)
    serial = sweep(config, workers=1)
    parallel = sweep(config, workers=workers)
    assert to_csv(serial) == to_csv(parallel)
    assert to_json(serial) == to_json(parallel)


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
    """The table of verdicts a sweep keeps changes no verdict, and a class
    verdict holds for every row of the class: on each row, a `verify` of
    the row's own algebra that builds every smaller algebra afresh has the
    class verdict's checks, f-vector, Betti numbers, gldim, cyclic
    dimensions, basis sizes and sorted weights.  On a class's key row it
    has the class verdict's whole dict, and on every row the dict of the
    class verdict relabelled onto the row by the oracle."""
    report = sweep(SweepConfig(n_min=2, n_max=5, c_max=6), workers=workers)
    assert len(report.rows) > 400
    keys = 0
    for c, v in report.rows:
        own = verify(NakayamaAlgebra(c))
        for name in ("checks", "f_vector", "betti", "gldim", "hc_dims", "basis_sizes"):
            assert getattr(v, name) == getattr(own, name), (c, name)
        assert sorted(v.weights) == sorted(own.weights), c
        if c == v.algebra.kupisch:
            assert v.to_dict() == own.to_dict(), c
            keys += 1
        assert leaf_oracle.relabel(v, NakayamaAlgebra(c)).to_dict() == own.to_dict(), c
    assert 0 < keys < len(report.rows)


def test_sweep_builds_invariants_once_per_rotation_class(monkeypatch):
    """A full sweep computes the invariants of a verdict, counted by its
    weights, once per rotation class, for its least rotation, and never
    for a leaf: every smaller algebra of a leaf check is found in the table
    of the level below, and a rotated row shares its class's weights.  The
    classes of a level are verified a mirror pair at a time, so `built` is
    compared as a sorted list."""
    built = []
    real = resolution.weights

    def counting(kupisch, f=None):
        built.append(kupisch)
        return real(kupisch, f)

    monkeypatch.setattr(resolution, "weights", counting)
    report = sweep(SweepConfig(n_min=2, n_max=5, c_max=6), workers=1)
    rows = [c for c, _ in report.rows]
    assert any(v.leaves for _, v in report.rows if v.algebra.n >= 3)
    assert sorted(built) == sorted(c for c in rows if least_rotation(c) == c)
    assert len(set(built)) == len(built)
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
    """The sweep verifies one algebra per rotation class, and every row of
    the class refers to its record; its CSV and its JSON equal those of the
    exhaustive sweep, row for row the same series, and each row's class
    verdict, relabelled onto the row by the oracle, has the dict of the
    exhaustive sweep's verdict of that row."""
    report = sweep(exhaustive.config, workers=workers)
    assert to_csv(report) == to_csv(exhaustive)
    assert to_json(report) == to_json(exhaustive)
    assert [c for c, _ in report.rows] == [c for c, _ in exhaustive.rows]
    assert [leaf_oracle.relabel(v, NakayamaAlgebra(c)).to_dict() for c, v in report.rows] == [
        v.to_dict() for _, v in exhaustive.rows
    ]


def test_bprime_reads_the_entry_at_the_least_leaf():
    """Given a table, Bprime takes `reduce_fully(...).semisimple` from the
    entry for the output of the step at the least leaf.  The tables here
    are planted, each entry under every rotation of its class: that entry
    alone says False (or alone True), so the verdict shows which entry was
    read.  Runs over every finite-gldim, acyclic algebra at n <= 6, c <= 7
    whose least leaf's output is in a rotation class of its own among its
    leaves' outputs."""
    checked = 0
    for algebra in enumerate_kupisch(SweepConfig(n_min=3, n_max=6, c_max=7)):
        rec = leaf_oracle.record(algebra)
        if not rec.gldim.is_finite or any(rec.betti) or rec.complex_empty:
            continue
        classes = [least_rotation(unamalgamate(algebra, leaf).output.kupisch) for leaf in rec.leaves]
        if not classes or classes[0] in classes[1:]:
            continue
        records = {c0: leaf_oracle.record(algebra_from_kupisch(c0)) for c0 in classes}
        for planted in (False, True):
            known = {
                c: replace(records[c0], semisimple=planted if c0 == classes[0] else not planted)
                for c0 in classes
                for c in rotations(c0)
            }
            verdict = verify(algebra, known=known)
            assert verdict.semisimple is planted and verdict.checks["Bprime"] is planted, algebra.kupisch
        checked += 1
    assert checked == 1090


def test_bprime_without_a_table_goes_on_from_the_first_step(monkeypatch):
    """Without a table, Bprime reduces the output of the leaf check's step
    at the least leaf, not the algebra again, and its answer is
    `reduce_fully(algebra).semisimple`: checked on every finite-gldim,
    acyclic algebra at n <= 6, c <= 7.  An algebra with no such step (two
    vertices, or no leaf) is reduced itself."""
    real = unamalgamation.reduce_fully
    reduced = []
    monkeypatch.setattr(unamalgamation, "reduce_fully", lambda a: reduced.append(a.kupisch) or real(a))
    checked = from_step = 0
    for algebra in enumerate_kupisch(SweepConfig(n_min=2, n_max=6, c_max=7)):
        reduced.clear()
        verdict = verify(algebra)
        if not verdict.gldim.is_finite or any(verdict.betti) or verdict.complex_empty:
            assert verdict.semisimple is None and reduced == [], algebra.kupisch
            continue
        assert verdict.semisimple == real(algebra).semisimple, algebra.kupisch
        if algebra.n >= 3 and verdict.leaves:
            assert reduced == [unamalgamate(algebra, verdict.leaves[0]).output.kupisch], algebra.kupisch
            from_step += 1
        else:
            assert reduced == [algebra.kupisch]
        checked += 1
    assert (checked, from_step) == (1655, 1646)


def test_sweep_with_missing_smaller_algebras_matches_full_sweep():
    """With n_min = 3 and only cyclic algebras, the smaller algebras at n = 3
    and the non-cyclic ones are never verified, so lookups miss among the
    hits (34 of 214 class lookups); the rows still equal those of the full
    sweep."""
    only_cyclic = frozenset({AlgebraClass.CYCLIC})
    part = sweep(SweepConfig(n_min=3, n_max=5, c_max=6, classes=only_cyclic))
    full = sweep(SweepConfig(n_min=2, n_max=5, c_max=6))
    kept = [
        line for (c, _), line in zip(full.rows, to_csv(full).splitlines()[1:], strict=True)
        if len(c) >= 3 and AlgebraClass.of(c) in only_cyclic
    ]
    assert len(part.rows) == len(kept) > 100
    assert to_csv(part).splitlines()[1:] == kept


@pytest.fixture(scope="module")
def all_classes_sweep():
    return sweep(SweepConfig(n_min=2, n_max=6, c_max=7))


@pytest.mark.parametrize("classes", CLASS_SETS, ids=CLASS_SET_IDS)
def test_class_filtered_sweep_keeps_the_rows_of_its_classes(all_classes_sweep, classes):
    """A sweep of some classes prints the CSV rows, and counts the JSON
    totals, of those classes in the sweep of all classes, n <= 6, c <= 7."""
    full = all_classes_sweep
    part = sweep(replace(full.config, classes=classes))
    kept = [
        line for (c, _), line in zip(full.rows, to_csv(full).splitlines()[1:], strict=True)
        if AlgebraClass.of(c) in classes
    ]
    assert len(part.rows) == len(kept) > 0
    assert to_csv(part).splitlines()[1:] == kept
    names = {c.value for c in classes}
    totals = json.loads(to_json(full))["totals"]
    assert json.loads(to_json(part))["totals"] == [t for t in totals if t["class"] in names]


def _csv_row(v):
    """The CSV row of one verdict, formatted field by field with `csv`."""
    weights = v.weights
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(
        [
            v.algebra.n,
            " ".join(str(c) for c in v.algebra.kupisch),
            "inf" if not v.gldim.is_finite else str(v.gldim.value),
            len(weights),
            str(weights[0]) if len(set(weights)) == 1 else "|".join(str(w) for w in weights),
            v.chi,
            " ".join(str(b) for b in v.betti),
            " ".join(str(d) for d in v.hc_dims),
            "ok" if v.ok else ";".join(v.failed),
        ]
    )
    return buf.getvalue().rstrip("\n")


def test_csv_rows_keep_their_own_weight_order():
    """`to_csv` formats the columns after the series once per distinct set
    of values, and the order of the weights is one of those values.  By
    SameWeight no real sweep has two verdicts that differ only there, so
    they are planted: each row prints its own weights."""
    v = verify(algebra_from_kupisch((3, 3, 4, 3)))

    def planted(weights):
        return replace(v, weights=weights)

    verdicts = [planted(w) for w in [(1, 2), (2, 1), (1, 2), (2, 1, 2), (2, 2, 1)]]
    rows = to_csv(TheoremReport(SweepConfig(), verdicts)).splitlines()[1:]
    assert rows == [_csv_row(p) for p in verdicts]
    assert [row.split(",")[4] for row in rows] == ["1|2", "2|1", "1|2", "2|1|2", "2|2|1"]


def test_sweep_rows_of_a_class_with_several_weights_keep_their_own_order(monkeypatch):
    """A sweep keeps one verdict per class, and a class whose weights
    differ prints each row's weights in that row's order, read off the
    row's own quiver.  By SameWeight no real class has several weights, so
    the quiver of the class of (2, 3, 3, 3) is planted: its weights are the
    row's position of the entry 2, then 5."""
    c0 = (2, 3, 3, 3)
    real = resolution.weights
    planted = {c: (c.index(2) + 1, 5) for c in rotations(c0)}
    monkeypatch.setattr(resolution, "weights", lambda c, f=None: planted.get(c) or real(c, f))
    report = sweep(SweepConfig(n_min=2, n_max=4, c_max=3), workers=1)
    rows = to_csv(report).splitlines()[1:]
    assert rows == [_csv_row(leaf_oracle.relabel(v, NakayamaAlgebra(c))) for c, v in report.rows]
    weights = {tuple(map(int, row.split(",")[1].split())): row.split(",")[4] for row in rows}
    assert {c: weights[c] for c in planted} == {c: f"{c.index(2) + 1}|5" for c in planted}


def test_sweep_writers_build_no_verdict_or_algebra_per_row(monkeypatch):
    """A serial sweep at n <= 6, c <= 7, written as CSV and JSON, builds one
    verdict and one algebra per rotation class, its key, the one `verify`
    reads: no row gets a verdict or an algebra of its own."""
    made, new = [], AlgebraVerdict.__init__
    built, init = [], NakayamaAlgebra.__init__
    monkeypatch.setattr(AlgebraVerdict, "__init__", lambda self, *a, **kw: made.append(self) or new(self, *a, **kw))
    monkeypatch.setattr(NakayamaAlgebra, "__init__", lambda self, c: built.append(c) or init(self, c))
    report = sweep(SweepConfig(n_min=2, n_max=6, c_max=7), workers=1)
    rows = to_csv(report).splitlines()[1:]
    assert json.loads(to_json(report))["algebra_count"] == len(rows) == len(report) == 2996
    classes = {least_rotation(tuple(map(int, row.split(",")[1].split()))) for row in rows}
    assert sorted(built) == sorted(v.algebra.kupisch for v in made) == sorted(classes)
    assert len(classes) == 592


def test_csv_rows_keep_their_own_failed_checks():
    """The failed check names are part of the key under which `to_csv`
    formats a row's tail once, so planted verdicts that differ only in
    which checks fail, or in the order they fail in, each print their
    own."""
    v = verify(algebra_from_kupisch((3, 3, 4, 3)))

    def planted(checks):
        return replace(v, checks=checks)

    verdicts = [
        planted(checks)
        for checks in [
            {"A": True, "B": True},
            {"A": False, "B": True},
            {"A": True, "B": False},
            {"A": False, "B": False},
            {"B": False, "A": False},
            {"B": True, "A": True},
            {"A": True},
        ]
    ]
    rows = to_csv(TheoremReport(SweepConfig(), verdicts)).splitlines()[1:]
    assert rows == [_csv_row(p) for p in verdicts]
    assert [row.split(",")[-1] for row in rows] == ["ok", "A", "B", "A;B", "B;A", "ok", "ok"]


def test_sweep_derives_relations_only_for_the_classes_it_verifies():
    """A row that is not the least rotation of its series holds its class's
    verdict, whose algebra is the class's key, so no relation of the row is
    derived.  The relations a counterexample's JSON writes for such a row,
    those of the algebra of its own series, are those `validate` gives for
    the class's relations, relabelled."""
    rows = sweep(SweepConfig(n_min=2, n_max=6, c_max=7)).rows
    verified = {}
    rotated = 0
    for c, v in rows:
        algebra, n = v.algebra, len(c)
        c0 = least_rotation(c)
        assert algebra.kupisch == c0, c
        if c == c0:
            verified[c0] = algebra
            continue
        k = next(k for k in range(n) if c0[k:] + c0[:k] == c)
        relabelled = [(mod1(r.start - k, n), r.length) for r in verified[c0].relations]
        assert NakayamaAlgebra(c).to_dict() == validate(n, relabelled).to_dict()
        rotated += 1
    assert len(verified) + rotated == len(rows) == 2996 and rotated > len(verified)


def test_rotated_rows_share_their_class_verdict():
    """In a serial sweep at n <= 6, c <= 7, the rows are the enumerated
    series, and every row holds the verdict of its class, the one of the
    row that is the class's least rotation, the same object, not a copy.
    That verdict, relabelled onto a row by the oracle, has the targets and
    leaves of `verify` on the row."""
    config = SweepConfig(n_min=2, n_max=6, c_max=7)
    rows = sweep(config, workers=1).rows
    table = {c: v for c, v in rows if c == least_rotation(c)}
    rotated = 0
    for (c, v), algebra in zip(rows, enumerate_kupisch(config), strict=True):
        assert c == algebra.kupisch
        assert v is table[least_rotation(c)], c
        if c == v.algebra.kupisch:
            continue
        row, own = leaf_oracle.relabel(v, algebra), verify(algebra)
        assert (row.targets, row.leaves) == (own.targets, own.leaves), c
        rotated += 1
    assert rotated == len(rows) - len(table) == 2404


@settings(max_examples=150, deadline=None)
@given(kupisch_series_strategy(max_n=6, max_c=6), st.integers(1, 5))
def test_rotation_leaves_every_invariant_and_check_unchanged(c, k):
    """Rotating the vertex labels is an isomorphism of algebras, so a rotated
    Kupisch series has the same invariants and the same verdicts."""
    k %= len(c)
    a = verify(algebra_from_kupisch(c))
    b = verify(algebra_from_kupisch(c[k:] + c[:k]))
    assert a.gldim == b.gldim
    assert sorted(a.weights) == sorted(b.weights)
    assert a.f_vector == b.f_vector
    assert a.betti == b.betti
    assert len(a.leaves) == len(b.leaves)
    assert a.hc_dims == b.hc_dims
    assert a.basis_sizes == b.basis_sizes
    assert a.checks == b.checks


def test_verify_agrees_on_each_algebra_and_its_opposite():
    """Full `verify`, with no table, on the least rotation of every class
    at n <= 7, c <= 8 and on its opposite algebra agrees on every field a
    sweep shares between mirror classes, on the sorted weights, and on the
    checks whose inputs those are."""
    shared = ("f_vector", "betti", "hc_dims", "basis_sizes", "gldim")
    checked = 0
    for n in range(2, 8):
        for c in kupisch_series(n, 8):
            if least_rotation(c) != c:
                continue
            a = verify(algebra_from_kupisch(c))
            b = verify(algebra_from_kupisch(enumeration_oracle.opposite_kupisch(c)))
            for name in shared:
                assert getattr(a, name) == getattr(b, name), (c, name)
            assert sorted(a.weights) == sorted(b.weights), c
            for name in ("EulerPoincare", "BoundarySquare", "HCEulerIdentity"):
                assert a.checks[name] == b.checks[name], (c, name)
            checked += 1
    assert checked == 2002


def test_sweep_computes_cyclic_homology_once_per_mirror_pair(monkeypatch):
    """A serial sweep at n <= 6, c <= 7 ranks the cyclic complex of 458
    classes, those distinct up to rotation and reflection, of its 592
    rotation classes."""
    ranked = []
    real = cyclic.hc_dimensions
    monkeypatch.setattr(cyclic, "hc_dimensions", lambda a: ranked.append(a.kupisch) or real(a))
    report = sweep(SweepConfig(n_min=2, n_max=6, c_max=7), workers=1)
    classes = {least_rotation(c) for c, _ in report.rows}
    assert len(classes) == 592
    assert len(ranked) == len(set(ranked)) == 458
    assert set(ranked) <= classes


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_mirror_classes_share_their_pairs_label_free_fields(workers):
    """In a sweep at n <= 6, c <= 7, each of the 134 later classes of a
    mirror pair holds the f-vector, Betti numbers, cyclic dimensions, basis
    sizes and gldim of its pair's verdict, the same objects, with 2 and 3
    workers too, so the pair was verified by one worker.  Its algebra,
    targets, leaves and checks are its own, as `verify` gives them."""
    rows = sweep(SweepConfig(n_min=2, n_max=6, c_max=7), workers=workers).rows
    by_class = {c: v for c, v in rows if c == least_rotation(c)}
    later = 0
    for c0, v in by_class.items():
        m0 = least_rotation(enumeration_oracle.opposite_kupisch(c0))
        if m0 >= c0:
            continue
        pair = by_class[m0]
        for name in ("f_vector", "betti", "hc_dims", "basis_sizes", "gldim"):
            assert getattr(v, name) is getattr(pair, name), (c0, name)
        assert v.algebra.kupisch == c0 and v.checks is not pair.checks
        own = verify(v.algebra)
        assert (v.targets, v.leaves, v.checks) == (own.targets, own.leaves, own.checks), c0
        later += 1
    assert later == len(by_class) - 458 == 134


def test_verify_units_leave_the_table_below_as_it_is():
    """`_verify_units` on the n = 6 units of `n<=6,c<=7`, given the n = 5
    table, leaves that table as it was: the same keys, each with the same
    object.  The second class of a pair gets the first's verdict as
    `mirror`, and holds its label-free fields as the same objects."""
    table = {c: v for c, v in sweep(SweepConfig(n_min=5, n_max=5, c_max=7)).rows}
    before = dict(table)
    (units,) = harness._levels(SweepConfig(n_min=6, n_max=6, c_max=7))
    verdicts = harness._verify_units(units, THEOREM_CHECKS, table)
    assert len(verdicts) == sum(map(len, units))
    assert table.keys() == before.keys()
    assert all(table[c] is v for c, v in before.items())
    c0, m0 = next(unit for unit in units if len(unit) == 2)
    v0 = verify(NakayamaAlgebra(c0), known=table)
    vm = verify(NakayamaAlgebra(m0), known=table, mirror=v0)
    for name in ("f_vector", "betti", "hc_dims", "basis_sizes", "gldim"):
        assert getattr(vm, name) is getattr(v0, name), name
    assert vm.algebra.kupisch == m0 and vm.checks == verify(NakayamaAlgebra(m0)).checks


@pytest.mark.parametrize("planted", [False, True], ids=["clean", "planted"])
@pytest.mark.parametrize("workers", [1, 2])
def test_report_classes_are_the_distinct_row_verdicts(monkeypatch, workers, planted):
    """A sweep's `classes` at n <= 7, c <= 8, with 1 and 2 workers, and with
    check A planted to fail on some classes, are the distinct verdicts of
    its rows, by identity, in the order of their first rows, each counted
    with the rows that refer to it; `totals` is a per-row count by n and
    algebra class, and `counterexamples` the failing rows."""
    if planted:
        monkeypatch.setattr(harness, "_verify_units", planted_checks.verify_units)
    report = sweep(SweepConfig(n_min=2, n_max=7, c_max=8), workers=workers)
    first, rows_of = {}, {}
    totals = {}
    for c, v in report.rows:
        first.setdefault(id(v), v)
        rows_of[id(v)] = rows_of.get(id(v), 0) + 1
        key = (len(c), AlgebraClass.of(c).value)
        totals[key] = totals.get(key, 0) + 1
    assert [id(v) for v, _ in report.classes] == list(first)
    assert [rows for v, rows in report.classes] == [rows_of[id(v)] for v in first.values()]
    assert report.totals() == totals
    failing = [row for row in report.rows if not row[1].ok]
    assert report.counterexamples == failing and report.ok is not bool(failing)
    assert bool(failing) is planted


def test_report_of_a_verdict_listed_twice(lambda1, lambda3):
    """`TheoremReport(config, [v, v, w])` lists v as two one-row entries and
    writes v's rows twice: its CSV, JSON and counterexamples are those of a
    report that counted v's rows under one entry."""
    v = verify(lambda1)
    v = replace(v, checks={**v.checks, "A": False})
    w = verify(lambda3)
    report = TheoremReport(SweepConfig(), [v, v, w])
    assert report.classes == [(v, 1), (v, 1), (w, 1)]
    assert to_csv(report) == (
        "n,kupisch,gldim,components,weight,chi,betti,hc_dims,verdicts\n"
        "5,3 2 2 4 3,4,1,1,1,,0 0 0 0 0,A\n"
        "5,3 2 2 4 3,4,1,1,1,,0 0 0 0 0,A\n"
        "4,2 2 2 2,inf,2,1,2,0 0 1,0 0 0 1,ok\n"
    )
    lambda1_json = {"algebra": {"n": 5, "relations": [[2, 2], [3, 2], [5, 3]]}, "failed": ["A"]}
    assert json.loads(to_json(report)) == {
        "algebra_count": 3,
        "config": SweepConfig().to_dict(),
        "counterexamples": [lambda1_json, lambda1_json],
        "ok": False,
        "totals": [{"class": "cyclic", "count": 1, "n": 4}, {"class": "cyclic", "count": 2, "n": 5}],
    }
    assert report.counterexamples == [(lambda1.kupisch, v)] * 2
    assert all(u is v for _, u in report.counterexamples)
