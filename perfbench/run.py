"""Benchmark of the `nakayama` package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from `src/`.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are the
end-to-end metrics of BENCHMARK.json, measured with nothing installed in
the program.  With `--trace 1` they are the per-layer metrics: each round
is run once untraced and once with span wrappers installed (see spans.py),
and the spans are written to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys

import workloads as wl
from spans import Tracer, layer_metrics
from speed import Speedometer

SETUP_REPEATS = 5


def setup(workload: wl.Workload, seed: int):
    """Import the package, make the inputs and load the reference, several
    times.  Returns the last inputs and the (start, end) of each set-up."""
    spans = []
    for _ in range(SETUP_REPEATS):
        start = wl.clock()
        wl.import_package()
        state = workload.setup(seed)
        spans.append((start, wl.clock()))
    return state, spans


class Fresh:
    """The `fresh()` a workload's rounds call (workloads.Workload): imports
    the package afresh, with the tracer's wrappers installed while
    `tracing`, and keeps the (start, end) of each import."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.tracing = False
        self.spans: list[tuple[float, float]] = []

    def __call__(self):
        start = wl.clock()
        self.tracer.uninstall()
        nk = wl.import_package()
        # the modules of the last import are garbage now: collect them here,
        # outside the timed requests
        gc.collect()
        if self.tracing:
            self.tracer.install(nk)
        self.spans.append((start, wl.clock()))
        return nk


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(tally: wl.Tally, setup_s: float) -> dict[str, float]:
    latencies = tally.corrected("request")
    return {
        "throughput_alg_per_s": tally.throughput(),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p95_ms": statistics.quantiles(latencies, n=20, method="inclusive")[18] * 1e3,
        "largest_verify_s": statistics.median(tally.corrected("largest")),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }


def run(workload: wl.Workload, seed: int, seconds: float, trace: bool, spans_path=None, min_rounds: int = 1):
    """Returns (result line, notes for the human reader).  Runs at least
    `min_rounds` rounds (pairs of rounds when tracing)."""
    speed = Speedometer()
    tally, traced, tracer = wl.Tally(speed), wl.Tally(speed), Tracer()
    fresh = Fresh(tracer)
    rounds = {False: [], True: []}  # (start, end) of the untraced and the traced rounds
    speed.start()
    try:
        state, setups = setup(workload, seed)
        start = wl.clock()
        while True:
            begin = wl.clock()
            workload.round(fresh, state, tally)
            rounds[False].append((begin, wl.clock()))
            if trace:
                # no probes inside spans
                speed.stop()
                fresh.tracing = True
                tracer.begin_round()
                try:
                    begin = wl.clock()
                    workload.round(fresh, state, traced)
                    rounds[True].append((begin, wl.clock()))
                finally:
                    fresh.tracing = False
                    tracer.uninstall()
                    speed.start()
            if len(rounds[False]) >= min_rounds and wl.clock() - start >= seconds:
                break
    finally:
        speed.stop()

    def round_time(begin: float, end: float) -> float:
        """A round's time at the reference speed, without its imports."""
        imports = sum(speed.net(*span) for span in fresh.spans if begin <= span[0] < end)
        return (speed.net(begin, end) - imports) * speed.scale(begin, end)

    attempted = tally.attempted + traced.attempted
    failed = tally.failed + traced.failed
    if trace:
        metrics = layer_metrics(tracer, traced.attempted, [speed.scale(*span) for span in rounds[True]])
        untraced_s = sum(round_time(*span) for span in rounds[False])
        traced_s = sum(round_time(*span) for span in rounds[True])
        metrics["trace.overhead_frac"] = traced_s / untraced_s - 1
        metrics["failed_frac"] = failed / attempted
        if spans_path is not None and tracer.start:
            tracer.write(spans_path)
    else:
        setup_s = statistics.median(speed.corrected(*span) for span in setups)
        metrics = end_to_end(tally, setup_s)
    notes = (f"{workload.name} seed {seed}: {len(rounds[False])} rounds, "
             f"{len(tally.times['request'])} latency samples, "
             f"{len(speed.starts)} probes (median {statistics.median(speed.took) * 1e3:.2f} ms), "
             f"{attempted} checked, {failed} failed")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}, notes


def with_units(metrics: dict[str, float]) -> dict[str, dict]:
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = wl.WORKLOADS[args.workload]()
    spans_path = wl.HERE / "out" / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
    try:
        result, notes = run(workload, args.seed, args.seconds, bool(args.trace), spans_path)
    except wl.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result["metrics"] = with_units(result["metrics"])
    print(notes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
