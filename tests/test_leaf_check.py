"""A leaf check (`unamalgamation.check_properties`, or its core
`_leaf_check` with the input's `_compared` fields and a table, as `verify`
calls it) computes, on each side of a step, only the fields it compares,
and reads a table entry without rotating it; it agrees with the oracle in
`leaf_oracle`, which builds every invariant on both sides and rotates the
entry, and prints the word path's JSON.
`harness.raw_complex_matches` certifies the raw relation complex from
interior bitmasks; it agrees with the enumerating oracle in `leaf_oracle`
on every step, and says True only when that oracle does.  A sweep's leaf
checks find the level below's record by one probe with the output's own
series, and build no step, report or relation word."""

import functools
from dataclasses import replace

import pytest
from hypothesis import given, settings

import leaf_oracle
from enumeration_oracle import least_rotation, rotations
from strategies import kupisch_series
import nakayama
from nakayama import NakayamaAlgebra, algebra_from_kupisch, harness, relation_complex, unamalgamation, validate
from nakayama.harness import (
    AlgebraVerdict,
    SweepConfig,
    enumerate_kupisch,
    raw_complex_matches,
    sweep,
    to_csv,
    verify,
)
from nakayama.relation_complex import SimplicialComplex, build_complex, complex_from_interiors
from nakayama.resolution import targets
from nakayama.unamalgamation import (
    PropertyReport,
    UnamalgamationStep,
    _compared,
    _leaf_check,
    check_properties,
    unamalgamate,
)


def _leaves(algebra):
    return sorted(set(range(1, algebra.n + 1)).difference(targets(algebra.kupisch)))


def _tables(n_max, c_max):
    """The table a sweep to (n_max, c_max) keeps of each level, by n: every
    series of a class keys the verdict of its least rotation, one entry
    shared by the class."""
    verdicts = sweep(SweepConfig(n_min=2, n_max=n_max, c_max=c_max)).verdicts
    records = {}
    for v in verdicts:
        c = v.algebra.kupisch
        if c == least_rotation(c):
            records[c] = v
    tables = {}
    for v in verdicts:
        c = v.algebra.kupisch
        tables.setdefault(len(c), {})[c] = records[least_rotation(c)]
    return tables


def _flags(report):
    return report.quiver_match, report.weight_match, report.betti_match, report.gldim_sandwich, report.all_ok


@pytest.mark.parametrize("with_table", [False, True], ids=["known-none", "level-below"])
def test_check_properties_matches_the_oracle(monkeypatch, with_table):
    """At every leaf of every algebra at n <= 7, c <= 8: the same four flags
    as the oracle, and the same JSON as the word path's: `check_properties`
    without a table, and the core with the table of the level below that
    the sweep builds, wrapped in a report for its JSON.  The input side is
    computed by the leaf check itself; the oracle is given the input's full
    record, and builds each output's once."""
    monkeypatch.setattr(leaf_oracle, "record", functools.cache(leaf_oracle.record))
    tables = _tables(6, 8) if with_table else {}
    steps = 0
    for algebra in enumerate_kupisch(SweepConfig(n_min=3, n_max=7, c_max=8)):
        lvs = _leaves(algebra)
        if not lvs:
            continue
        known = tables.get(algebra.n - 1)
        before = leaf_oracle.record(algebra)
        c = algebra.kupisch
        f = targets(c)
        fields = _compared(c, f, None) if with_table else None
        for leaf in lvs:
            if with_table:
                out, *flags = _leaf_check(c, f, leaf, fields, known)
                got = PropertyReport(UnamalgamationStep(c, leaf, out), *flags)
            else:
                got = check_properties(algebra, leaf)
            want = leaf_oracle.check_properties(algebra, leaf, before, known)
            assert _flags(got) == _flags(want), (algebra.kupisch, leaf)
            assert got.to_dict() == want.to_dict(), (algebra.kupisch, leaf)
            steps += 1
    assert steps == 36432


def test_leaf_checks_compute_no_f_vector(monkeypatch):
    """Neither side of a leaf check computes an f-vector: at every leaf of
    every algebra at n <= 6, c <= 6, without a table."""
    def unread(self):
        raise AssertionError("a leaf check computed an f-vector")

    monkeypatch.setattr(SimplicialComplex, "f_vector", property(unread))
    for algebra in enumerate_kupisch(SweepConfig(n_min=3, n_max=6, c_max=6)):
        for leaf in _leaves(algebra):
            assert check_properties(algebra, leaf).all_ok, (algebra.kupisch, leaf)


def test_table_entries_are_read_as_they_are(monkeypatch):
    """`verify` reads the level below's entries for the leaf checks and
    Bprime without rotating one, on every class at n = 6, c <= 6."""
    tables = _tables(5, 6)

    def unread(self, algebra):
        raise AssertionError("a table entry was rotated")

    monkeypatch.setattr(AlgebraVerdict, "rotate", unread)
    for algebra in enumerate_kupisch(SweepConfig(n_min=6, n_max=6, c_max=6)):
        if algebra.kupisch == least_rotation(algebra.kupisch):
            assert verify(algebra, known=tables[5]).ok, algebra.kupisch


def test_sweep_leaf_checks_probe_the_table_by_series(monkeypatch):
    """In a sweep at n <= 7, c <= 8, each leaf check finds its output's
    record by one probe with the output's own series: no least rotation is
    taken, and the only relation complexes built are those of the classes
    verified, once each, so no output whose class was verified is computed
    from scratch."""
    def unread(c):
        raise AssertionError("a least rotation was taken")

    for module in (nakayama.algebra, unamalgamation, harness):
        monkeypatch.setattr(module, "least_rotation", unread, raising=False)
    built, build = [], relation_complex.build_complex
    monkeypatch.setattr(relation_complex, "build_complex", lambda a: built.append(a.kupisch) or build(a))
    checked, check = [], unamalgamation._leaf_check
    monkeypatch.setattr(unamalgamation, "_leaf_check", lambda *args: checked.append(args) or check(*args))
    rows = [v.algebra.kupisch for v in sweep(SweepConfig(n_min=2, n_max=7, c_max=8)).verdicts]
    assert built == [c for c in rows if c == least_rotation(c)]
    assert len(checked) == 5556


def test_weights_compare_as_multisets():
    """The weight check compares the sorted weights of both sides.  Only a
    counterexample to SameWeight has weights that differ, so these records
    are planted: the input's lists (2, 1), the output's entry (1, 2), under
    every rotation of the output's class."""
    algebra = algebra_from_kupisch((3, 2, 2, 2, 2))
    leaf = _leaves(algebra)[0]
    output = unamalgamate(algebra, leaf).output
    key = least_rotation(output.kupisch)
    real = verify(algebra_from_kupisch(key))
    entry = replace(real, weights=(1, 2))
    planted = replace(verify(algebra), weights=(2, 1))
    c, f = algebra.kupisch, planted.targets
    fields = _compared(c, f, planted)
    _, _, weight_match, *_ = _leaf_check(c, f, leaf, fields, {k: entry for k in rotations(key)})
    assert weight_match
    _, _, weight_match, *_ = _leaf_check(c, f, leaf, fields, {k: real for k in rotations(key)})
    assert not weight_match


def _raw(step):
    """A step's series, leaf and raw words, the first three arguments of
    the certificate and of its oracle."""
    return step.kupisch, step.leaf, step.raw_relations


def _certified(raw, cx):
    """The certificate on `raw`, a series, a leaf and raw words, and `cx`,
    given the indices of the series' relations of length <= n, read off
    its `Relation`s."""
    c = raw[0]
    vertices = [i for i, r in enumerate(NakayamaAlgebra(c).relations) if r.length <= len(c)]
    return raw_complex_matches(*raw, cx, vertices)


def test_raw_complex_certificate_matches_the_oracle():
    """At every leaf of every algebra at n <= 6, c <= 7."""
    steps = 0
    for algebra in enumerate_kupisch(SweepConfig(n_min=3, n_max=6, c_max=7)):
        cx = build_complex(algebra)
        for leaf in _leaves(algebra):
            raw = _raw(unamalgamate(algebra, leaf))
            assert _certified(raw, cx) == leaf_oracle.raw_complex_matches(*raw, cx), (algebra.kupisch, leaf)
            steps += 1
    assert steps == 7128


@settings(max_examples=200, deadline=None)
@given(kupisch_series(min_n=3, max_n=10, max_c=11))
def test_raw_complex_certificate_matches_the_oracle_up_to_n10(c):
    algebra = algebra_from_kupisch(c)
    cx = build_complex(algebra)
    for leaf in _leaves(algebra):
        raw = _raw(unamalgamate(algebra, leaf))
        assert _certified(raw, cx) == leaf_oracle.raw_complex_matches(*raw, cx), leaf


def _with_raw_word(raw, k, word):
    """`raw`, a series, a leaf and raw words, with the k-th raw word
    replaced by `word`, a (start, length) pair."""
    c, leaf, words = raw
    words = list(words)
    words[k] = word
    return c, leaf, tuple(words)


def test_raw_complex_certificate_implies_the_oracle_on_perturbed_steps():
    """At every leaf of every algebra at n <= 5, c <= 6, each raw word in
    turn is replaced by every word (start, length) with start in 1..n-1 and
    length in 1..n+1: a True from the certificate is a True from the
    enumeration.  Both answers occur."""
    answers = set()
    for algebra in enumerate_kupisch(SweepConfig(n_min=3, n_max=5, c_max=6)):
        cx = build_complex(algebra)
        m = algebra.n - 1
        for leaf in _leaves(algebra):
            raw = _raw(unamalgamate(algebra, leaf))
            for k in range(len(raw[2])):
                for start in range(1, m + 1):
                    for length in range(1, m + 3):
                        perturbed = _with_raw_word(raw, k, (start, length))
                        got = _certified(perturbed, cx)
                        want = leaf_oracle.raw_complex_matches(*perturbed, cx)
                        assert want or not got, (algebra.kupisch, leaf, k, start, length)
                        answers.add((got, want))
    assert answers == {(True, True), (False, True), (False, False)}


def _lambda2_leaf5():
    """lambda2 = validate(5, [(1, 3), (2, 4), (4, 3), (5, 3)]) at its leaf 5,
    which needs no relabelling.  The old interiors are {2, 3}, {3, 4, 5},
    {5, 1} and {1, 2}; the raw words (1, 3), (2, 3), (4, 2), (4, 3) on the
    4-cycle have the interiors {2, 3}, {3, 4}, {1} and {1, 2}."""
    algebra = validate(5, [(1, 3), (2, 4), (4, 3), (5, 3)])
    return _raw(unamalgamate(algebra, 5)), build_complex(algebra)


def test_raw_complex_certificate_refuses_an_index_mismatch():
    """(4, 5) is longer than the 4-cycle, so relation 2 is a vertex of L
    but not of the raw complex."""
    raw, cx = _lambda2_leaf5()
    assert _certified(raw, cx)
    raw = _with_raw_word(raw, 2, (4, 5))
    assert not _certified(raw, cx)
    assert not leaf_oracle.raw_complex_matches(*raw, cx)


def test_raw_complex_certificate_refuses_an_interior_mismatch():
    """(3, 2) has the interior {4}, where {5, 1} without vertex 5 is {1}."""
    raw, cx = _lambda2_leaf5()
    raw = _with_raw_word(raw, 2, (3, 2))
    assert not _certified(raw, cx)
    assert not leaf_oracle.raw_complex_matches(*raw, cx)


def test_raw_complex_certificate_refuses_a_simplex_covering_all_but_the_leaf():
    """The interiors of lambda2's complex with vertex 5 taken out: each raw
    interior is still its vertex's without vertex 5, but now no interior
    holds the leaf and together they cover 1..4.  So all four vertices span
    a simplex of this complex (no set covers vertex 5) but not of the raw
    complex, whose interiors cover the 4-cycle."""
    raw, cx = _lambda2_leaf5()
    planted = complex_from_interiors(5, [mask & ~(1 << 4) for mask in cx.masks])
    assert [len(level) for level in planted.simplices] == [4, 6, 4, 1]
    assert not _certified(raw, planted)
    assert not leaf_oracle.raw_complex_matches(*raw, planted)


def test_verify_lists_no_raw_complex_and_no_simplex_tuple(monkeypatch):
    """With the table of the level below, which answers for each step's
    output, `verify` enumerates only complexes on its own n-cycle, none on
    the (n-1)-cycle of a step's raw words, and never builds `simplices`:
    on every class at n = 6, c <= 6."""
    tables = _tables(5, 6)

    def unread(self):
        raise AssertionError("verify read the simplex tuples")

    levels, cycles = relation_complex.simplex_levels, set()
    monkeypatch.setattr(SimplicialComplex, "simplices", property(unread))
    monkeypatch.setattr(
        relation_complex, "simplex_levels", lambda n, masks: cycles.add(n) or levels(n, masks)
    )
    for algebra in enumerate_kupisch(SweepConfig(n_min=6, n_max=6, c_max=6)):
        if algebra.kupisch == least_rotation(algebra.kupisch):
            assert verify(algebra, known=tables[5]).ok, algebra.kupisch
    assert cycles == {6}


def test_sweep_leaf_checks_build_no_step_report_or_word(monkeypatch):
    """A serial sweep at n <= 7, c <= 8, where every leaf check's output is
    in the table, prints the same CSV with `UnamalgamationStep`,
    `PropertyReport` and `Relation` in `unamalgamation` and `harness`
    replaced by stubs that raise: the leaf checks and Bprime run on the
    series.  No `Relation` is built at all: `verify` reads the relations
    for its RoundTrip and NodesEqualRelations checks as int pairs off the
    series."""
    config = SweepConfig(n_min=2, n_max=7, c_max=8)
    want = to_csv(sweep(config))

    def unbuilt(*args, **kwargs):
        raise AssertionError("a leaf check built a step, a report or a relation word")

    for name in ("UnamalgamationStep", "PropertyReport", "Relation"):
        for module in (unamalgamation, harness):
            monkeypatch.setattr(module, name, unbuilt, raising=False)
    relation, built = nakayama.algebra.Relation, []
    monkeypatch.setattr(nakayama.algebra, "Relation", lambda *args: built.append(args) or relation(*args))
    verified = []
    monkeypatch.setattr(harness, "verify", lambda a, *args: verified.append(a.kupisch) or verify(a, *args))
    assert to_csv(sweep(config)) == want
    words = len(built)
    assert len(verified) == 2002
    assert words == 0


def test_check_properties_holds_the_step_unamalgamate_returns(lambda2):
    """The report's step is the step `unamalgamate` returns, at every leaf
    of every algebra at n <= 6, c <= 6, and the report prints its JSON with
    the checks."""
    report = check_properties(lambda2, 5)
    assert report.all_ok
    got = report.to_dict()
    assert got["raw_relations"] == [[1, 3], [2, 3], [4, 2], [4, 3]]
    assert {**report.step.to_dict(), "checks": got["checks"]} == got
    for algebra in enumerate_kupisch(SweepConfig(n_min=3, n_max=6, c_max=6)):
        for leaf in _leaves(algebra):
            assert check_properties(algebra, leaf).step == unamalgamate(algebra, leaf), (algebra.kupisch, leaf)
