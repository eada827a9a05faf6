"""A leaf check (`unamalgamation.check_properties`, or its core
`_leaf_check` with the input's `_compared` fields and a table, as `verify`
calls it) computes, on each side of a step, only the fields it compares,
and reads a table entry without rotating it; it agrees with the oracle in
`leaf_oracle`, which builds every invariant on both sides and rotates the
entry, and prints the word path's JSON.
`harness.raw_complex_matches` certifies the raw relation complex from
interior bitmasks, reading the raw words off the step's output series; it
agrees with the word-taking, enumerating oracle in `leaf_oracle` on every
step, and says True only when that oracle does.  `verify`'s
UnamalgamationProps is the conjunction of the oracle's flags and
certificate over the leaves, and turns False on any planted failure.  A
sweep's leaf checks find the level below's record by one probe with the
output's own series, and build no step, report or relation word."""

import functools
from dataclasses import replace

import pytest
from hypothesis import given, settings

import leaf_oracle
from enumeration_oracle import least_rotation, rotations
from strategies import kupisch_series
import nakayama
from nakayama import NakayamaAlgebra, ProjDim, algebra_from_kupisch, harness, relation_complex, unamalgamation, validate
from nakayama.algebra import relation_pairs
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
    raw_words,
    reduce_fully,
    unamalgamate,
)


def _leaves(algebra):
    return sorted(set(range(1, algebra.n + 1)).difference(targets(algebra.kupisch)))


@functools.cache
def _tables(n_max, c_max):
    """The table a sweep to (n_max, c_max) keeps of each level, by n: every
    series of a class keys the verdict of its least rotation, one entry
    shared by the class.  Cached, so the tests that read one bound share
    one sweep: no test may change a table or an entry."""
    tables = {}
    for c, v in sweep(SweepConfig(n_min=2, n_max=n_max, c_max=c_max)).rows:
        assert v.algebra.kupisch == least_rotation(c)
        tables.setdefault(len(c), {})[c] = v
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


def _oracle_props(algebra, known, cx):
    """The conjunction over the leaves of `algebra` of the oracle's four
    flags, with the table `known`, and of its enumerating certificate on
    the raw words of the word path."""
    c, before = algebra.kupisch, leaf_oracle.record(algebra)
    for leaf in _leaves(algebra):
        words, _ = leaf_oracle.word_path(algebra, leaf)
        raw = [(r.start, r.length) for r in words]
        if not (
            leaf_oracle.check_properties(algebra, leaf, before, known).all_ok
            and leaf_oracle.raw_complex_matches(c, leaf, raw, cx)
        ):
            return False
    return True


@pytest.mark.parametrize("with_table", [False, True], ids=["known-none", "level-below"])
def test_unamalgamation_props_is_the_oracles_conjunction(monkeypatch, with_table):
    """On every class at n <= 7, c <= 8, `verify`'s UnamalgamationProps,
    with the table of the level below that the sweep builds and without
    one, is the conjunction over the leaves of the oracle's flags and
    certificate."""
    monkeypatch.setattr(leaf_oracle, "record", functools.cache(leaf_oracle.record))
    tables = _tables(6, 8) if with_table else {}
    passed = with_leaves = 0
    for algebra in enumerate_kupisch(SweepConfig(n_min=3, n_max=7, c_max=8)):
        c = algebra.kupisch
        if c != least_rotation(c):
            continue
        known = tables.get(algebra.n - 1)
        got = verify(algebra, known=known).checks["UnamalgamationProps"]
        assert got == _oracle_props(algebra, known, build_complex(algebra)), c
        passed += got
        with_leaves += bool(_leaves(algebra))
    assert (passed, with_leaves) == (1987, 1947)


@settings(max_examples=200, deadline=None)
@given(kupisch_series(min_n=3, max_n=10, max_c=11))
def test_unamalgamation_props_is_the_oracles_conjunction_up_to_n10(c):
    algebra = algebra_from_kupisch(c)
    got = verify(algebra).checks["UnamalgamationProps"]
    assert got == _oracle_props(algebra, None, build_complex(algebra))


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
    Bprime as they are, relabelling none onto the output's series: on every
    class at n = 6, c <= 6, the one verdict it makes is its own."""
    tables = _tables(5, 6)
    made, init = [], AlgebraVerdict.__init__
    monkeypatch.setattr(AlgebraVerdict, "__init__", lambda self, *a, **kw: made.append(self) or init(self, *a, **kw))
    for algebra in enumerate_kupisch(SweepConfig(n_min=6, n_max=6, c_max=6)):
        if algebra.kupisch == least_rotation(algebra.kupisch):
            made.clear()
            verdict = verify(algebra, known=tables[5])
            assert verdict.ok and len(made) == 1 and made[0] is verdict, algebra.kupisch


def test_sweep_leaf_checks_probe_the_table_by_series(monkeypatch):
    """In a sweep at n <= 7, c <= 8, each leaf check finds its output's
    record by one probe with the output's own series: no least rotation is
    taken, and the only relation complexes built are those of the classes
    verified, once each, so no output whose class was verified is computed
    from scratch.  The classes of a level are verified a mirror pair at a
    time, so `built` is compared as a sorted list."""
    def unread(c):
        raise AssertionError("a least rotation was taken")

    for module in (nakayama.algebra, unamalgamation, harness):
        monkeypatch.setattr(module, "least_rotation", unread, raising=False)
    built, build = [], relation_complex.build_complex
    monkeypatch.setattr(relation_complex, "build_complex", lambda a: built.append(a.kupisch) or build(a))
    checked, check = [], unamalgamation._leaf_check
    monkeypatch.setattr(unamalgamation, "_leaf_check", lambda *args: checked.append(args) or check(*args))
    rows = [c for c, _ in sweep(SweepConfig(n_min=2, n_max=7, c_max=8)).rows]
    assert sorted(built) == sorted(c for c in rows if c == least_rotation(c))
    assert len(set(built)) == len(built)
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
    # an entry's weights are sorted when they differ from the input's sorted ones
    unsorted = replace(real, weights=(2, 1))
    _, _, weight_match, *_ = _leaf_check(c, f, leaf, fields, {k: unsorted for k in rotations(key)})
    assert weight_match
    _, _, weight_match, *_ = _leaf_check(c, f, leaf, fields, {k: real for k in rotations(key)})
    assert not weight_match


def test_quiver_flag_reads_every_target_but_the_leafs(lambda1):
    """The output's targets are read off its own series, so no table entry
    breaks the quiver flag; the input's targets are planted instead.  At
    each leaf of lambda1, the target of each other vertex in turn moved
    on by one turns the flag False, and moving the leaf's own target, which
    the output has no vertex for, changes nothing."""
    c = lambda1.kupisch
    n, f = len(c), targets(c)
    fields = _compared(c, f, None)
    for leaf in _leaves(lambda1):
        assert _leaf_check(c, f, leaf, fields, None)[1]
        for i in range(n):
            planted = f[:i] + (f[i] % n + 1,) + f[i + 1:]
            assert _leaf_check(c, planted, leaf, fields, None)[1] == (i == leaf - 1), (leaf, i)


def _certified(c, leaf, out, cx):
    """The certificate on the step at `leaf` from the series c to the
    series `out`, and `cx`, given the indices of c's relations of length
    <= n, read off its `Relation`s."""
    vertices = [i for i, r in enumerate(NakayamaAlgebra(c).relations) if r.length <= len(c)]
    return raw_complex_matches(c, leaf, out, cx, vertices)


def _oracle(c, leaf, out, cx):
    """The enumerating oracle on the raw words that the step's JSON lists
    for the same step, read off `out` by `raw_words`."""
    return leaf_oracle.raw_complex_matches(c, leaf, raw_words(c, leaf, out), cx)


def test_raw_complex_certificate_matches_the_oracle():
    """At every leaf of every algebra at n <= 6, c <= 7."""
    steps = 0
    for algebra in enumerate_kupisch(SweepConfig(n_min=3, n_max=6, c_max=7)):
        cx = build_complex(algebra)
        for leaf in _leaves(algebra):
            step = unamalgamate(algebra, leaf)
            assert _certified(*step, cx) == _oracle(*step, cx), (algebra.kupisch, leaf)
            steps += 1
    assert steps == 7128


@settings(max_examples=200, deadline=None)
@given(kupisch_series(min_n=3, max_n=10, max_c=11))
def test_raw_complex_certificate_matches_the_oracle_up_to_n10(c):
    algebra = algebra_from_kupisch(c)
    cx = build_complex(algebra)
    for leaf in _leaves(algebra):
        step = unamalgamate(algebra, leaf)
        assert _certified(*step, cx) == _oracle(*step, cx), leaf


def _with_entry(out, k, length):
    """The output series `out` with its k-th entry, 0-based, replaced by
    `length`: a series that the step's rule does not give."""
    return out[:k] + (length,) + out[k + 1:]


def test_raw_complex_certificate_implies_the_oracle_on_perturbed_steps():
    """At every leaf of every algebra at n <= 5, c <= 6, each entry of the
    output series in turn is replaced by every length in 1..n+1, which
    changes the raw word read off it, if any, to that length: a True from
    the certificate is a True from the enumeration on the raw words of the
    perturbed series.  Both answers occur."""
    answers = set()
    for algebra in enumerate_kupisch(SweepConfig(n_min=3, n_max=5, c_max=6)):
        cx = build_complex(algebra)
        c = algebra.kupisch
        for leaf in _leaves(algebra):
            out = unamalgamate(algebra, leaf).output_kupisch
            for k in range(len(out)):
                for length in range(1, algebra.n + 2):
                    perturbed = _with_entry(out, k, length)
                    got = _certified(c, leaf, perturbed, cx)
                    want = _oracle(c, leaf, perturbed, cx)
                    assert want or not got, (c, leaf, k, length)
                    answers.add((got, want))
    assert answers == {(True, True), (False, True), (False, False)}


def _lambda2_leaf5():
    """lambda2 = validate(5, [(1, 3), (2, 4), (4, 3), (5, 3)]) at its leaf 5,
    which needs no relabelling, and its relation complex.  The old
    interiors are {2, 3}, {3, 4, 5}, {5, 1} and {1, 2}; the output series
    (3, 3, 3, 2) gives the raw words (1, 3), (2, 3), (4, 2), (4, 3) on the
    4-cycle, with the interiors {2, 3}, {3, 4}, {1} and {1, 2}: the third
    is read off entry 4, the last is the word at the leaf."""
    algebra = validate(5, [(1, 3), (2, 4), (4, 3), (5, 3)])
    step = unamalgamate(algebra, 5)
    assert step.output_kupisch == (3, 3, 3, 2)
    return step, build_complex(algebra)


def test_raw_complex_certificate_refuses_an_index_mismatch():
    """Vertex indices that are not those of the raw words' complex are
    refused.  Entry 4 of the output series set to 5 makes the raw word of
    relation 2 (4, 5), longer than the 4-cycle, so relation 2 is a vertex
    of L but not of the raw complex."""
    (c, leaf, out), cx = _lambda2_leaf5()
    assert _certified(c, leaf, out, cx)
    # the vertices are compared by index, not only counted
    assert raw_complex_matches(c, leaf, out, cx, [0, 1, 2, 3])
    assert not raw_complex_matches(c, leaf, out, cx, [0, 1, 2, 4])
    out = _with_entry(out, 3, 5)
    assert raw_words(c, leaf, out)[2] == (4, 5)
    assert not _certified(c, leaf, out, cx)
    assert not _oracle(c, leaf, out, cx)


def test_raw_complex_certificate_refuses_an_interior_mismatch():
    """Entry 4 of the output series set to 3 makes the raw word of
    relation 2 (4, 3), with the interior {1, 2}, where {5, 1} without
    vertex 5 is {1}."""
    (c, leaf, out), cx = _lambda2_leaf5()
    out = _with_entry(out, 3, 3)
    assert raw_words(c, leaf, out)[2] == (4, 3)
    assert not _certified(c, leaf, out, cx)
    assert not _oracle(c, leaf, out, cx)


def _uncovered_leaf(cx):
    """`cx` with the leaf 5 taken out of every interior."""
    return complex_from_interiors(5, [mask & ~(1 << 4) for mask in cx.masks])


def test_raw_complex_certificate_refuses_a_simplex_covering_all_but_the_leaf():
    """The interiors of lambda2's complex with vertex 5 taken out: each raw
    interior is still its vertex's without vertex 5, but now no interior
    holds the leaf and together they cover 1..4.  So all four vertices span
    a simplex of this complex (no set covers vertex 5) but not of the raw
    complex, whose interiors cover the 4-cycle."""
    step, cx = _lambda2_leaf5()
    planted = _uncovered_leaf(cx)
    assert [len(level) for level in planted.simplices] == [4, 6, 4, 1]
    assert not _certified(*step, planted)
    assert not _oracle(*step, planted)


def _refused_alone(verdict, want):
    """`verdict`, made with a plant, fails UnamalgamationProps and no
    other check, and Bprime went on from the least leaf's output to the
    same answer as `want`, the verdict made without the plant."""
    assert want.ok
    assert verdict.failed == ["UnamalgamationProps"]
    assert verdict.semisimple == want.semisimple


def _planted_entries(entry):
    """`entry` with one compared field broken at a time: the weights, the
    Betti numbers, the emptiness of the complex, and gldim outside the
    sandwich of lambda1's 4, from below and as infinite."""
    return [
        replace(entry, weights=tuple(w + 1 for w in entry.weights)),
        replace(entry, betti=entry.betti + (1,)),
        replace(entry, f_vector=()),
        replace(entry, gldim=ProjDim(1)),
        replace(entry, gldim=ProjDim(None)),
    ]


def test_planted_table_entries_fail_unamalgamation_props(lambda1):
    """No sweep at n <= 9 fails a leaf check, so the failures are planted:
    at each leaf of lambda1, the table of the level below gets an entry for
    the step's output that breaks one compared field.  Each plant, at the
    least leaf as at the other, turns UnamalgamationProps False and leaves
    every other check, and Bprime reads the least leaf's output all the
    same: its answer is `reduce_fully`'s."""
    table = _tables(5, 6)[4]
    want = verify(lambda1, known=table)
    assert want.semisimple is reduce_fully(lambda1).semisimple is True
    c, f = lambda1.kupisch, want.targets
    fields = _compared(c, f, want)
    assert want.leaves == (1, 2)
    for leaf in want.leaves:
        out = unamalgamation._output_series(c, leaf)
        planted = _planted_entries(table[out])
        for entry in planted:
            _refused_alone(verify(lambda1, known={**table, out: entry}), want)
        # the core, which `check_properties` runs too, fails one flag each
        flags = [_leaf_check(c, f, leaf, fields, {out: entry})[1:] for entry in planted]
        assert flags == [
            (True, False, True, True),
            (True, True, False, True),
            (True, True, False, True),
            (True, True, True, False),
            (True, True, True, False),
        ]


@pytest.mark.parametrize("plant", ["index", "interior", "cover"])
def test_planted_complexes_fail_unamalgamation_props(monkeypatch, lambda1, lambda2, plant):
    """The certificate in `verify` is given a planted complex for the input's
    that breaks one of its conditions: one vertex fewer (an index mismatch)
    and a vertex's interior {1, 2} grown to {1, 2, 3} (an interior
    mismatch) on lambda1, and on lambda2 the complex whose interiors avoid
    the leaf 5 and cover every other vertex.  The leaf checks' flags hold,
    and each plant turns UnamalgamationProps False and no other check.
    Bprime goes on from the least leaf's output, to `reduce_fully`'s answer
    on lambda1; lambda2 has infinite gldim, so Bprime reduces nothing."""
    algebra = lambda2 if plant == "cover" else lambda1
    want = verify(algebra)
    cx = build_complex(algebra)
    masks = cx.masks
    planted = {
        "index": complex_from_interiors(5, masks[:-1]),
        "interior": complex_from_interiors(5, masks[:-1] + (masks[-1] | 0b100,)),
        "cover": _uncovered_leaf(cx),
    }[plant]
    real = harness.raw_complex_matches
    monkeypatch.setattr(
        harness, "raw_complex_matches", lambda c, leaf, out, cx, vertices: real(c, leaf, out, planted, vertices)
    )
    _refused_alone(verify(algebra), want)
    assert want.semisimple is (reduce_fully(algebra).semisimple if algebra is lambda1 else None)


def test_step_outputs_fit_max_subsets_whenever_their_inputs_do():
    """`verify` checks no leaf after one that fails, and that loses no
    refusal: an output has n - 1 vertices, no more relations than its
    input, and a complex with no more vertices than the input's, so its
    complex fits MAX_SUBSETS whenever the input's does.  At every leaf of
    every algebra at n <= 7, c <= 8."""
    steps = 0
    for algebra in enumerate_kupisch(SweepConfig(n_min=3, n_max=7, c_max=8)):
        c = algebra.kupisch
        vertices = len(build_complex(algebra).masks)
        for leaf in _leaves(algebra):
            out = unamalgamation._output_series(c, leaf)
            assert len(build_complex(NakayamaAlgebra(out)).masks) <= vertices, (c, leaf)
            assert len(relation_pairs(out)) <= len(relation_pairs(c)), (c, leaf)
            steps += 1
    assert steps == 36432


def test_verify_lists_no_raw_complex_and_no_simplex_tuple(monkeypatch):
    """With the table of the level below, which answers for each step's
    output, `verify` walks only complexes on its own n-cycle, none on the
    (n-1)-cycle of a step's raw words, and never builds `simplices`: on
    every class at n = 6, c <= 6."""
    tables = _tables(5, 6)

    def unread(self):
        raise AssertionError("verify read the simplex tuples")

    walk, cycles = relation_complex._deletion_walk, set()
    monkeypatch.setattr(SimplicialComplex, "simplices", property(unread))
    monkeypatch.setattr(
        relation_complex, "_deletion_walk", lambda n, masks: cycles.add(n) or walk(n, masks)
    )
    for algebra in enumerate_kupisch(SweepConfig(n_min=6, n_max=6, c_max=6)):
        if algebra.kupisch == least_rotation(algebra.kupisch):
            assert verify(algebra, known=tables[5]).ok, algebra.kupisch
    assert cycles == {6}


def test_sweep_leaf_checks_build_no_step_report_or_word(monkeypatch):
    """A serial sweep at n <= 7, c <= 8, where every leaf check's output is
    in the table, prints the same CSV with `UnamalgamationStep`,
    `PropertyReport` and `Relation` in `unamalgamation` and `harness`
    and `raw_words` replaced by stubs that raise: the leaf checks, their
    certificate and Bprime run on the series.  No `Relation` is built at all: `verify` reads the relations
    for its RoundTrip and NodesEqualRelations checks as int pairs off the
    series."""
    config = SweepConfig(n_min=2, n_max=7, c_max=8)
    want = to_csv(sweep(config))

    def unbuilt(*args, **kwargs):
        raise AssertionError("a leaf check built a step, a report or a relation word")

    for name in ("UnamalgamationStep", "PropertyReport", "Relation", "raw_words"):
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
