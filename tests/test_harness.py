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
    harness,
    radical_power_algebra,
    resolution,
    unamalgamate,
    unamalgamation,
    validate,
)
from nakayama.algebra import is_valid_kupisch, mod1
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
import leaf_oracle
from enumeration_oracle import least_rotation, rotations
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
    """At every n <= 8 and c_max <= max(9, n + 2): the bounded odometer
    lists exactly the oracle's series, which tests every sequence for the
    wrap."""
    for n in range(1, 9):
        for c_max in range(0, max(10, n + 3)):
            assert list(kupisch_series(n, c_max)) == list(enumeration_oracle.kupisch_series(n, c_max))


@settings(max_examples=12, deadline=None)
@given(st.integers(9, 11), st.integers(0, 3))
def test_enumeration_matches_the_recursive_oracle_past_n8(n, c_max):
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


CLASS_SETS = [frozenset(s) for size in range(1, 4) for s in combinations(AlgebraClass, size)]
CLASS_SET_IDS = ["+".join(sorted(c.value for c in s)) for s in CLASS_SETS]


@pytest.mark.parametrize("classes", CLASS_SETS, ids=CLASS_SET_IDS)
def test_level_keys_are_the_least_rotations(monkeypatch, classes):
    """A level's rows are the enumerated algebras of the requested classes,
    and the class key each row reads off the level's map is the least
    rotation of its series, at n <= 7, c <= 8.  Each rotation class is
    classified once, requested or not."""
    config = SweepConfig(n_min=2, n_max=7, c_max=8, classes=classes)
    classify = AlgebraClass.of
    classified = []
    monkeypatch.setattr(AlgebraClass, "of", staticmethod(lambda c: classified.append(c) or classify(c)))
    rows, keys = [], []
    for level, level_keys in harness._levels(config):
        assert len(level) == len(level_keys)
        rows += [a.kupisch for a in level]
        keys += level_keys
    monkeypatch.undo()
    assert rows == [a.kupisch for a in enumerate_kupisch(config)]
    assert keys == [least_rotation(c) for c in rows]
    every = [c for n in range(2, 8) for c in kupisch_series(n, 8)]
    assert classified == [c for c in every if least_rotation(c) == c]


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
    """`verify` seeds its verdict's targets with those it computes for the
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
    assert len(report.verdicts) == 168
    totals = report.totals()
    # 82 = brute-force count of 4-tuples in [2,5]^4 with c_{i+1} >= c_i - 1
    assert totals[(4, "cyclic")] == 82


def test_sweep_single_algebra():
    report = sweep(SweepConfig(n_min=4, n_max=4, c_max=2, classes=frozenset({AlgebraClass.CYCLIC})))
    assert len(report.verdicts) == 1
    assert report.verdicts[0].algebra.kupisch == (2, 2, 2, 2)
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
    """The table of verdicts a sweep keeps changes no verdict: each one
    equals a `verify` that builds every smaller algebra afresh."""
    report = sweep(SweepConfig(n_min=2, n_max=5, c_max=6), workers=workers)
    assert len(report.verdicts) > 400
    for v in report.verdicts:
        assert v.to_dict() == verify(v.algebra).to_dict(), v.algebra.kupisch


def test_sweep_builds_invariants_once_per_rotation_class(monkeypatch):
    """A full sweep computes the invariants of a verdict, counted by its
    weights, once per rotation class, for its least rotation, and never
    for a leaf: every smaller algebra of a leaf check is found in the table
    of the level below, and a rotated row shares its class's weights."""
    built = []
    real = resolution.weights

    def counting(kupisch, f=None):
        built.append(kupisch)
        return real(kupisch, f)

    monkeypatch.setattr(resolution, "weights", counting)
    report = sweep(SweepConfig(n_min=2, n_max=5, c_max=6), workers=1)
    rows = [v.algebra.kupisch for v in report.verdicts]
    assert any(v.leaves for v in report.verdicts if v.algebra.n >= 3)
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
        v for v in full.verdicts
        if v.algebra.n >= 3 and v.algebra.algebra_class in only_cyclic
    ]
    assert len(part.verdicts) == len(kept) > 100
    assert to_csv(part).splitlines()[1:] == to_csv(TheoremReport(full.config, kept)).splitlines()[1:]


@pytest.fixture(scope="module")
def all_classes_sweep():
    return sweep(SweepConfig(n_min=2, n_max=6, c_max=7))


@pytest.mark.parametrize("classes", CLASS_SETS, ids=CLASS_SET_IDS)
def test_class_filtered_sweep_keeps_the_rows_of_its_classes(all_classes_sweep, classes):
    """A sweep of some classes prints the CSV rows, and counts the JSON
    totals, of those classes in the sweep of all classes, n <= 6, c <= 7."""
    full = all_classes_sweep
    part = sweep(replace(full.config, classes=classes))
    kept = [v for v in full.verdicts if v.algebra.algebra_class in classes]
    assert len(part.verdicts) == len(kept) > 0
    assert to_csv(part).splitlines()[1:] == to_csv(TheoremReport(full.config, kept)).splitlines()[1:]
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


def test_sweep_derives_relations_only_for_the_classes_it_verifies():
    """A row that is not the least rotation of its series gets its class's
    verdict without deriving its relations.  When a writer reads them, they
    are those `validate` gives for the class's relations, relabelled."""
    verdicts = sweep(SweepConfig(n_min=2, n_max=6, c_max=7)).verdicts
    verified = {}
    rotated = 0
    for v in verdicts:
        algebra = v.algebra
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


def test_rotated_rows_share_their_class_verdict():
    """In a serial sweep at n <= 6, c <= 7, a row that is not the least
    rotation of its series holds its class verdict's f-vector, Betti
    numbers, cyclic dimensions, basis sizes and checks, the same objects,
    not copies.  Its algebra is its own series, and its targets and leaves
    are those of `verify` on that row."""
    config = SweepConfig(n_min=2, n_max=6, c_max=7)
    verdicts = sweep(config, workers=1).verdicts
    by_class = {c: v for v in verdicts if (c := v.algebra.kupisch) == least_rotation(c)}
    rotated = 0
    for v, algebra in zip(verdicts, enumerate_kupisch(config), strict=True):
        assert v.algebra.kupisch == algebra.kupisch
        c0 = least_rotation(algebra.kupisch)
        if algebra.kupisch == c0:
            continue
        shared = by_class[c0]
        assert v is not shared
        for name in ("f_vector", "betti", "hc_dims", "basis_sizes", "checks"):
            assert getattr(v, name) is getattr(shared, name), (algebra.kupisch, name)
        own = verify(algebra)
        assert (v.targets, v.leaves) == (own.targets, own.leaves), algebra.kupisch
        rotated += 1
    assert rotated == len(verdicts) - len(by_class) == 2404


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
