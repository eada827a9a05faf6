"""Tests of the benchmark itself, at tiny bounds.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import gc
import json
import re
import statistics
import shutil
import subprocess
import sys

import pytest

import run
import speed
import workloads as wl

SPEC = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def tiny_run(name: str, trace: bool, rounds: int = 1):
    result, _ = run.run(wl.TINY[name](), seed=7, seconds=0, trace=trace, min_rounds=rounds)
    return result


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(m["unit"]) and m["better"] in ("higher", "lower") for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(wl.TINY))
def test_every_metric_is_emitted_with_its_unit(name, trace):
    result = tiny_run(name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    metrics = run.with_units(result["metrics"])
    assert set(metrics) == {m["name"] for m in expected}
    for m in expected:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert isinstance(metrics[m["name"]]["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("name", list(wl.TINY))
def test_counts_repeat_exactly(name):
    """The counts are per traced round: a run that traces two rounds
    reports the same counts as each of two runs that trace one."""
    counts = [
        {k: v for k, v in tiny_run(name, trace=True, rounds=rounds)["metrics"].items()
         if not k.endswith((".s", "self_s", "overhead_frac"))}
        for rounds in (1, 1, 2)
    ]
    assert counts[0] == counts[1] == counts[2]
    assert counts[0]["linalg.rank.calls"] > 0


@pytest.mark.parametrize("name", list(wl.TINY))
def test_no_input_repeats_within_one_import(monkeypatch, name):
    """Between two imports of the package, no algebra is sent twice, so a
    memo table in the package could serve no repeated request."""
    seen, imports = [], []

    def fresh():
        nk = wl.import_package()
        imports.append(nk)
        epoch, verify = len(imports), nk.harness.verify

        def recorded(algebra, *args, **kwargs):
            seen.append((epoch, algebra.kupisch))
            return verify(algebra, *args, **kwargs)

        nk.harness.verify = recorded
        return nk

    bundle = wl.query_bundle
    monkeypatch.setattr(wl, "query_bundle", lambda nk, c: seen.append((len(imports), c)) or bundle(nk, c))
    workload = wl.TINY[name]()
    state, tally = workload.setup(7), wl.Tally(speed.Speedometer())
    for _ in range(2):
        workload.round(fresh, state, tally)
    assert tally.failed == 0 and seen
    assert len(set(seen)) == len(seen)


def test_the_probe_runs_no_collection():
    """So the probe's time does not depend on the program's heap."""
    collections = []
    threshold = gc.get_threshold()
    gc.callbacks.append(lambda phase, info: collections.append(phase))
    gc.set_threshold(1)  # any allocation outside the probe would collect
    try:
        done = len(collections)
        speed.probe()
        assert len(collections) == done
    finally:
        gc.set_threshold(*threshold)
        gc.callbacks.pop()


def test_correction_keeps_the_ratio_of_a_slowdown():
    """A fixed extra cost injected into `harness.verify`, a second call
    that also grows the heap as a memo table would, moves the corrected
    time by the share it moves the measured time.  Phases of plain and
    slowed calls alternate, so that the machine's slow spells hit both."""
    nk = wl.import_package()
    verify, kept = nk.harness.verify, []

    def slowed(algebra):
        kept.extend([(i, i) for i in range(500)])
        verify(algebra)
        return verify(algebra)

    meter = speed.Speedometer()
    spans = {verify: [], slowed: []}
    meter.start()
    try:
        for phase in range(16):
            call = (verify, slowed)[phase % 2]
            start = speed.clock()
            while speed.clock() - start < 0.4:
                algebra = nk.algebra.radical_power_algebra(6, 7)
                begin = speed.clock()
                call(algebra)
                spans[call].append((begin, speed.clock()))
    finally:
        meter.stop()

    def ratio(time):
        return statistics.fmean(time(*s) for s in spans[slowed]) / statistics.fmean(time(*s) for s in spans[verify])

    assert ratio(meter.net) > 1.5
    assert ratio(meter.corrected) == pytest.approx(ratio(meter.net), rel=0.15)


def _corrupt_sweep(monkeypatch):
    rows = wl.load_sweep_reference()
    i = rows.index(next(r for r in rows if r.startswith("2,2 2,")))
    rows[i] = rows[i].replace(",ok", ",A")
    monkeypatch.setattr(wl, "load_sweep_reference", lambda: rows)


def _corrupt_rad(monkeypatch):
    reference = wl.load_rad_reference()
    reference["4"]["chi"] += 1
    monkeypatch.setattr(wl, "load_rad_reference", lambda: reference)


def _corrupt_leafy(monkeypatch):
    reference = wl.load_leafy_reference()
    largest = wl.TINY["leafy-queries"]().setup(7).largest
    reference[largest] = "0" * 32
    monkeypatch.setattr(wl, "load_leafy_reference", lambda: reference)


@pytest.mark.parametrize("name, corrupt", [
    ("sweep-small", _corrupt_sweep),
    ("rad-power", _corrupt_rad),
    ("leafy-queries", _corrupt_leafy),
])
def test_corrupted_reference_row_is_detected(monkeypatch, name, corrupt):
    corrupt(monkeypatch)
    result = tiny_run(name, trace=True)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["metrics"]["failed_frac"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(wl.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(wl.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rad-power", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
