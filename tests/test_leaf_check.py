"""`unamalgamation.check_properties` computes, on each side of a step, only
the fields it compares, and reads a table entry without rotating it; it
agrees with the oracle in `leaf_oracle`, which builds every invariant on
both sides and rotates the entry."""

import functools
from dataclasses import replace

import pytest

import leaf_oracle
from nakayama import algebra_from_kupisch
from nakayama.algebra import least_rotation
from nakayama.harness import SweepConfig, enumerate_kupisch, sweep, verify
from nakayama.relation_complex import SimplicialComplex
from nakayama.resolution import targets
from nakayama.unamalgamation import Invariants, check_properties, invariants, unamalgamate


def _leaves(algebra):
    return sorted(set(range(1, algebra.n + 1)).difference(targets(algebra.kupisch)))


def _tables(n_max, c_max):
    """The table a sweep to (n_max, c_max) keeps of each level, by n: each
    class's record under its least rotation, and its `semisimple`."""
    tables = {}
    for v in sweep(SweepConfig(n_min=2, n_max=n_max, c_max=c_max)).verdicts:
        a = v.invariants.algebra
        if a.kupisch == least_rotation(a.kupisch):
            tables.setdefault(a.n, {})[a.kupisch] = (v.invariants, v.semisimple)
    return tables


def _flags(report):
    return report.quiver_match, report.weight_match, report.betti_match, report.gldim_sandwich, report.all_ok


@pytest.mark.parametrize("with_table", [False, True], ids=["known-none", "level-below"])
def test_check_properties_matches_the_oracle(monkeypatch, with_table):
    """At every leaf of every algebra at n <= 7, c <= 8: the same JSON and
    the same four flags as the oracle, without a table and with the table of
    the level below that the sweep builds.  The input side is computed by
    the leaf check itself; the oracle is given the input's full record, and
    builds each output's once."""
    monkeypatch.setattr(leaf_oracle, "invariants", functools.cache(invariants))
    tables = _tables(6, 8) if with_table else {}
    steps = 0
    for algebra in enumerate_kupisch(SweepConfig(n_min=3, n_max=7, c_max=8)):
        lvs = _leaves(algebra)
        if not lvs:
            continue
        known = tables.get(algebra.n - 1)
        before = invariants(algebra)
        for leaf in lvs:
            got = check_properties(algebra, leaf, known=known)
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

    monkeypatch.setattr(Invariants, "rotate", unread)
    for algebra in enumerate_kupisch(SweepConfig(n_min=6, n_max=6, c_max=6)):
        if algebra.kupisch == least_rotation(algebra.kupisch):
            assert verify(algebra, known=tables[5]).ok, algebra.kupisch


def test_weights_compare_as_multisets():
    """The weight check compares the sorted weights of both sides.  Only a
    counterexample to SameWeight has weights that differ, so these records
    are planted: the input's lists (2, 1), the output's entry (1, 2)."""
    algebra = algebra_from_kupisch((3, 2, 2, 2, 2))
    leaf = _leaves(algebra)[0]
    output = unamalgamate(algebra, leaf).output
    key = least_rotation(output.kupisch)
    real = invariants(algebra_from_kupisch(key))
    entry = replace(real, weights=(1, 2))
    planted = replace(invariants(algebra), weights=(2, 1))
    assert check_properties(algebra, leaf, planted, {key: (entry, None)}).weight_match
    assert not check_properties(algebra, leaf, planted, {key: (real, None)}).weight_match
