"""A failing check planted in the `harness.verify` that a sweep calls, in
the main process and in every worker.

`verify_units` stands in for `harness._verify_units`: monkeypatch that
name, and `sweep` calls this in its own process and, by reference, in
each spawned worker, which imports this module afresh.  While it runs,
`harness.verify` fails check A on every algebra whose entries sum to a
multiple of 3; the sum does not change under rotation, so a whole class
fails or none of it does."""

from nakayama import harness

_verify = harness.verify
_verify_units = harness._verify_units


def fails(c):
    return sum(c) % 3 == 0


def planted_verify(algebra, checks=harness.THEOREM_CHECKS, known=None, mirror=None):
    verdict = _verify(algebra, checks, known, mirror)
    if fails(algebra.kupisch):
        verdict.checks["A"] = False
    return verdict


def verify_units(units, checks, known):
    harness.verify = planted_verify
    try:
        return _verify_units(units, checks, known)
    finally:
        harness.verify = _verify
