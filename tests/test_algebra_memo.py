"""An algebra object keeps each fact a library path reads off its series
(`NakayamaAlgebra.fact`): the leaf checks of one object compute its side
once, not once per leaf, and give what fresh objects give; a refusal is
kept nowhere; and `verify`, whose verdicts a sweep pickles to and from
its workers, keeps nothing on the algebra it is handed."""

import pickle
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings

from enumeration_oracle import enumerate_kupisch
from strategies import kupisch_series
from nakayama import NakayamaAlgebra, TooLargeError, global_dimension, harness, unamalgamation
from nakayama.harness import THEOREM_CHECKS, SweepConfig, verify
from nakayama.resolution import targets
from nakayama.unamalgamation import NotALeafError, TooSmallError, check_properties


def _leaves(c):
    return sorted(set(range(1, len(c) + 1)).difference(targets(c)))


def _flags(report):
    return report.quiver_match, report.weight_match, report.betti_match, report.gldim_sandwich


@pytest.fixture
def inputs_computed(monkeypatch):
    """The series of every side `_compared` computes without a record, in
    call order."""
    computed, compared = [], unamalgamation._compared

    def watched(c, f, record):
        if record is None:
            computed.append(c)
        return compared(c, f, record)

    monkeypatch.setattr(unamalgamation, "_compared", watched)
    return computed


def _shared_matches_fresh(c, computed):
    """Every leaf check of one shared object against one of a fresh object
    per leaf: the same flags and JSON.  The shared object computes its side
    once, and `global_dimension` read after the checks is the kept value,
    equal to a fresh object's.  Returns the number of leaves."""
    leaves = _leaves(c)
    shared = NakayamaAlgebra(c)
    computed.clear()
    reports = [check_properties(shared, leaf) for leaf in leaves]
    assert computed.count(c) == (1 if leaves else 0), c
    if leaves:
        assert sorted(vars(shared)) == ["compared", "gldim", "kupisch", "targets"], c
    gldim = global_dimension(shared)
    computed.clear()
    for leaf, report in zip(leaves, reports):
        fresh = check_properties(NakayamaAlgebra(c), leaf)
        assert _flags(report) == _flags(fresh), (c, leaf)
        assert report.to_dict() == fresh.to_dict(), (c, leaf)
    assert computed.count(c) == len(leaves), c
    assert gldim == global_dimension(NakayamaAlgebra(c)), c
    return len(leaves)


def test_shared_algebra_checks_every_leaf_as_fresh_ones_do(inputs_computed):
    """At n <= 7, c <= 8, on every series with three vertices or more."""
    algebras = leaves = 0
    for algebra in enumerate_kupisch(SweepConfig(n_min=3, n_max=7, c_max=8)):
        leaves += _shared_matches_fresh(algebra.kupisch, inputs_computed)
        algebras += 1
    assert (algebras, leaves) == (12578, 36432)


# the watcher is cleared before each count, so one fixture serves every example
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(c=kupisch_series(min_n=3, max_n=10, max_c=14))
def test_shared_algebra_checks_every_leaf_as_fresh_ones_do_up_to_n10(inputs_computed, c):
    _shared_matches_fresh(c, inputs_computed)


def test_a_refusal_is_kept_nowhere():
    """A refused leaf check keeps no compared field or gldim, so it is
    refused again on every call; a vertex that is not a leaf is refused
    before the input's side is computed, and two vertices are too few."""
    c = (1,) + (2,) * 19  # 19 relations of length <= 20: 2^19 - 1 subsets
    assert 3 in _leaves(c)
    algebra = NakayamaAlgebra(c)
    for _ in range(3):
        with pytest.raises(TooLargeError) as refused:
            check_properties(algebra, 3)
        assert refused.value.code == "too-large"
        assert "compared" not in vars(algebra) and "gldim" not in vars(algebra)
    with pytest.raises(NotALeafError):
        check_properties(algebra, 2)
    fresh = NakayamaAlgebra(c)
    with pytest.raises(NotALeafError):
        check_properties(fresh, 2)
    with pytest.raises(TooLargeError):
        check_properties(fresh, 3)

    two = NakayamaAlgebra((2, 1))
    assert _leaves(two.kupisch) == [2]
    for _ in range(2):
        with pytest.raises(TooSmallError) as refused:
            check_properties(two, 2)
        assert refused.value.code == "too-small"


def test_verify_keeps_nothing_on_its_algebra():
    """After `verify`, the algebra holds its series alone, so a verdict
    pickles byte for byte as one made on a fresh algebra: at n <= 5, c <= 6,
    and on every verdict of a sweep's units at n <= 6, c <= 7, where the
    leaf checks read a table and a mirror pair shares its fields."""
    for algebra in enumerate_kupisch(SweepConfig(n_min=2, n_max=5, c_max=6)):
        verdict = verify(algebra)
        assert vars(algebra) == {"kupisch": algebra.kupisch}
        assert pickle.dumps(verdict) == pickle.dumps(verify(NakayamaAlgebra(algebra.kupisch)))
    known = {}
    for units in harness._levels(SweepConfig(n_min=2, n_max=6, c_max=7)):
        verdicts = harness._verify_units(units, THEOREM_CHECKS, known)
        assert all(vars(v.algebra) == {"kupisch": v.algebra.kupisch} for v in verdicts)
        known = {c: v for v in verdicts for c in harness._rotations(v.algebra.kupisch)}


def test_threads_reading_one_algebra_get_what_fresh_objects_give():
    """Four threads, more than the cores, check every leaf of one shared
    object at once, with the interpreter switching threads as often as it
    can, so that several compute a fact before any keeps it.  Every thread
    gets the reports and gldim of fresh objects, and the object keeps one
    value of each fact."""
    cases = [(3, 3, 2, 3, 2, 3, 2, 1, 3, 2), (3, 2, 2, 4, 3), (2, 3, 3, 2, 2, 2, 1, 2, 3)]
    want = {
        c: ([check_properties(NakayamaAlgebra(c), leaf).to_dict() for leaf in _leaves(c)], global_dimension(NakayamaAlgebra(c)))
        for c in cases
    }
    for c in cases:
        shared, got = NakayamaAlgebra(c), []

        def read():
            for _ in range(20):
                got.append(([check_properties(shared, leaf).to_dict() for leaf in _leaves(c)], global_dimension(shared)))

        threads = [threading.Thread(target=read) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [want[c]] * 80, c
        assert vars(shared)["gldim"] == want[c][1].value
