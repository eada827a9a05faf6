"""The benchmark's workloads: inputs drawn from a seed, one round of
requests, and the check of every output against the recorded reference.

Each workload drives the `nakayama` package in-process as one closed-loop
client: a request starts only after the previous one has returned.  A run
repeats whole rounds until its time is up, so every run measures the same
mix of inputs.

Workloads, and the ROADMAP item each one exercises or bypasses:

- sweep-small: `harness.sweep` over n=2..6, c<=7, one worker, plus a
  verify-latency pass over the same algebras in a seeded order.  Many small
  algebras and every layer; rotation classes and memoization (item 4) show
  here.
- (sweep-par2, the same sweep with two workers, is left out: the speed
  probe of speed.py cannot run beside the program's own workers.)
- rad-power: `harness.verify` on rad^(n+1) of the n-cycle for n=8, 9, 10.
  Every station subset is a basis cycle and the relation complex is empty,
  so the dense cyclic/linalg kernel (item 2) does the work and items 3 and 4
  do nothing.
- leafy-queries: the library calls behind `gldim`, `complex`, `reduce` and
  `unamalgamate --leaf j` (every leaf j) on a seeded, stratified sample of
  400 linear and product-of-linear algebras with n in {9, 10}, c<=3.  The
  relation complex's ranks dominate (item 3); `cyclic` does nothing.
"""

from __future__ import annotations

import gzip
import hashlib
import importlib
import json
import random
import statistics
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

from speed import Speedometer, clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = HERE / "reference"
MODULES = ("algebra", "resolution", "relation_complex", "cyclic", "linalg", "unamalgamation", "harness")


class MissingProgram(RuntimeError):
    """The checkout has no `src/nakayama` to benchmark."""


def import_package(root: Path = ROOT) -> SimpleNamespace:
    """Import `nakayama` afresh from `<root>/src` and return its modules.

    Earlier imports are dropped first, so that set-up can be timed more
    than once in one process."""
    src = root / "src"
    if not (src / "nakayama" / "__init__.py").is_file():
        raise MissingProgram(f"no nakayama package under {src}")
    for name in [m for m in sys.modules if m == "nakayama" or m.startswith("nakayama.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    package = importlib.import_module("nakayama")
    if Path(package.__file__).resolve().parent != (src / "nakayama").resolve():
        raise MissingProgram(f"imported nakayama from {package.__file__}, not from {src}")
    return SimpleNamespace(
        package=package,
        **{name: importlib.import_module(f"nakayama.{name}") for name in MODULES},
    )


# ---------------------------------------------------------------- inputs

def kupisch_series(n: int, c_max: int) -> list[tuple[int, ...]]:
    """Valid Kupisch series of length n with entries <= c_max, in
    lexicographic order (the order of the sweep's rows)."""
    out: list[tuple[int, ...]] = []

    def extend(prefix: tuple[int, ...]) -> None:
        if len(prefix) == n:
            if prefix[0] >= prefix[-1] - 1:
                out.append(prefix)
            return
        for v in range(max(1, prefix[-1] - 1) if prefix else 1, c_max + 1):
            extend(prefix + (v,))

    extend(())
    return out


def relation_count(c: tuple[int, ...]) -> int:
    """Number of relations of the algebra with Kupisch series c."""
    n = len(c)
    return sum(1 for i in range(n) if c[i] <= c[(i + 1) % n])


def is_linear_or_product(c: tuple[int, ...]) -> bool:
    """A vertex with c_i = 1 is a killed arrow, so the algebra is not cyclic."""
    return 1 in c


def stratified_sample(items: list, key: Callable, size: int, rng: random.Random) -> list:
    """Draw `size` items so that every stratum (value of `key`) gets its
    proportional share, rounded by largest remainder, then shuffle.

    The cost of a request depends mostly on its stratum, so fixing the
    strata counts keeps the sampled cost from swinging between seeds."""
    strata: dict = defaultdict(list)
    for item in items:
        strata[key(item)].append(item)
    total = len(items)
    quotas = {k: size * len(v) / total for k, v in strata.items()}
    counts = {k: int(q) for k, q in quotas.items()}
    short = size - sum(counts.values())
    for k in sorted(strata, key=lambda k: (counts[k] - quotas[k], k))[:short]:
        counts[k] += 1
    sample = [x for k in sorted(strata) for x in rng.sample(strata[k], counts[k])]
    rng.shuffle(sample)
    return sample


# ---------------------------------------------------------------- requests

def query_bundle(nk: SimpleNamespace, c: tuple[int, ...]) -> dict:
    """What `gldim`, `complex`, `reduce` and `unamalgamate --leaf j` (every
    leaf j) print for the algebra with Kupisch series c, with exit codes."""
    algebra = nk.algebra.algebra_from_kupisch(c)
    cx = nk.relation_complex.build_complex(algebra)
    leaves = sorted(nk.resolution.leaves(nk.resolution.build(algebra)))
    unamalgamated = {}
    for leaf in leaves:
        report = nk.unamalgamation.check_properties(algebra, leaf)
        unamalgamated[str(leaf)] = {"json": report.to_dict(), "exit": 0 if report.all_ok else 2}
    return {
        "gldim": f"gldim: {nk.algebra.global_dimension(algebra)}\n",
        "complex": nk.relation_complex.report(cx),
        "reduce": nk.unamalgamation.reduce_fully(algebra).to_dict(),
        "unamalgamate": unamalgamated,
    }


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def bundle_ok(bundle: dict) -> bool:
    return all(u["exit"] == 0 for u in bundle["unamalgamate"].values())


def verdict_row(nk: SimpleNamespace, config, verdict) -> str:
    """The sweep CSV row of one verdict."""
    return nk.harness.to_csv(nk.harness.TheoremReport(config=config, verdicts=[verdict])).splitlines()[1]


# ---------------------------------------------------------------- tallies

@dataclass
class Tally:
    """What one run observed, over all its rounds.  Times are kept as
    (start, end) and corrected for the machine's speed at the end of the
    run, when the probes after each measurement are known (speed.py)."""

    speed: Speedometer
    attempted: int = 0
    failed: int = 0
    times: dict[str, list[tuple[float, float]]] = field(default_factory=lambda: defaultdict(list))
    sweep_algebras: int = 0

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def timed(self, kind: str, start: float, end: float) -> None:
        """Record one measurement of `kind`: "request" (one algebra) or
        "largest" (the workload's largest request)."""
        self.times[kind].append((start, end))

    def corrected(self, kind: str) -> list[float]:
        return [self.speed.corrected(start, end) for start, end in self.times[kind]]

    def throughput(self) -> float:
        """Algebras per second: in the median sweep for sweep-small, else
        over all requests."""
        if self.sweep_algebras:
            return self.sweep_algebras / statistics.median(self.corrected("largest"))
        return len(self.times["request"]) / sum(self.corrected("request"))


# ---------------------------------------------------------------- references

def load_sweep_reference() -> list[str]:
    return (REFERENCE_DIR / "sweep.csv").read_text().splitlines()


def load_rad_reference() -> dict:
    return json.loads((REFERENCE_DIR / "rad-power.json").read_text())


def load_leafy_reference() -> dict[tuple[int, ...], str]:
    with gzip.open(REFERENCE_DIR / "leafy-queries.tsv.gz", "rt") as fh:
        pairs = (line.rstrip("\n").split("\t") for line in fh)
        return {tuple(int(x) for x in c.split()): h for c, h in pairs}


def sweep_rows_for(reference: list[str], n_max: int, c_max: int) -> list[str]:
    """Header plus the reference rows a sweep of n=2..n_max, c<=c_max must
    print, in order: rows are sorted by n, then Kupisch series."""
    rows = [reference[0]]
    for row in reference[1:]:
        n, kupisch = row.split(",", 2)[:2]
        if int(n) <= n_max and max(int(x) for x in kupisch.split()) <= c_max:
            rows.append(row)
    return rows


# ---------------------------------------------------------------- workloads

@dataclass
class Workload:
    """`setup(seed)` makes the inputs and loads the reference;
    `round(fresh, state, tally)` sends one round of requests and checks them.

    `fresh()` imports the package afresh and returns its modules.  A round
    calls it before any request whose input it has already sent since the
    last import, so that nothing the package kept from an earlier request
    (a memo table, say) serves a repeat that real traffic would not send:
    a real sweep or command never repeats an input in one process.  Every
    algebra is built anew for its request, for the same reason."""

    name: str
    setup: Callable
    round: Callable


def sweep_workload(n_max: int = 6, c_max: int = 7) -> Workload:
    def setup(seed):
        expected = sweep_rows_for(load_sweep_reference(), n_max, c_max)
        by_series = {tuple(int(x) for x in row.split(",")[1].split()): row for row in expected[1:]}
        order = list(by_series)
        random.Random(f"sweep-small:{seed}").shuffle(order)
        return SimpleNamespace(bounds=dict(n_min=2, n_max=n_max, c_max=c_max), expected=expected,
                               by_series=by_series, order=order)

    def run_round(fresh, st, tally):
        nk = fresh()
        config = nk.harness.SweepConfig(**st.bounds)
        # the sweep is this workload's largest request
        start = clock()
        try:
            rows = nk.harness.to_csv(nk.harness.sweep(config, workers=1)).splitlines()
        except Exception:
            rows = []
        tally.timed("largest", start, clock())
        tally.sweep_algebras = len(st.expected) - 1
        header_ok = rows[:1] == st.expected[:1]
        for i in range(1, max(len(rows), len(st.expected))):
            ok = header_ok and i < len(rows) and i < len(st.expected) and rows[i] == st.expected[i]
            tally.check(ok and rows[i].endswith(",ok"))
        # the latency pass sends the sweep's algebras again
        nk = fresh()
        config = nk.harness.SweepConfig(**st.bounds)
        for c in st.order:
            algebra = nk.algebra.algebra_from_kupisch(c)
            try:
                start = clock()
                verdict = nk.harness.verify(algebra)
                tally.timed("request", start, clock())
                tally.check(verdict.ok and verdict_row(nk, config, verdict) == st.by_series[c])
            except Exception:
                tally.check(False)

    return Workload(name="sweep-small", setup=setup, round=run_round)


def rad_power_workload(sizes: tuple[int, ...] = (8, 8, 8, 9, 9, 9, 10)) -> Workload:
    """The smaller algebras repeat, so that the median request, a `verify`
    of rad^10 on n=9, has several samples per run."""

    def setup(seed):
        reference = load_rad_reference()
        return SimpleNamespace(expected={n: reference[str(n)] for n in sizes},
                               rng=random.Random(f"rad-power:{seed}"))

    def run_round(fresh, st, tally):
        order = list(sizes)
        st.rng.shuffle(order)
        for n in order:
            # every n repeats within the round or across rounds
            nk = fresh()
            algebra = nk.algebra.radical_power_algebra(n, n + 1)
            try:
                start = clock()
                verdict = nk.harness.verify(algebra)
                end = clock()
                ok = verdict.ok and json.loads(json.dumps(verdict.to_dict())) == st.expected[n]
            except Exception:
                tally.check(False)
                continue
            tally.check(ok)
            tally.timed("request", start, end)
            if n == max(sizes):
                tally.timed("largest", start, end)

    return Workload(name="rad-power", setup=setup, round=run_round)


LEAFY_LARGEST_REPEATS = 3


def leafy_workload(sizes: tuple[int, ...] = (9, 10), c_max: int = 3, sample_size: int = 400) -> Workload:
    def setup(seed):
        pool = [c for n in sizes for c in kupisch_series(n, c_max) if is_linear_or_product(c)]
        rng = random.Random(f"leafy-queries:{seed}")
        sample = stratified_sample(pool, lambda c: (len(c), relation_count(c)), sample_size, rng)
        largest = max(pool, key=lambda c: (len(c), relation_count(c), sum(c), c))
        reference = load_leafy_reference()
        return SimpleNamespace(sample=sample, largest=largest,
                               expected={c: reference.get(c) for c in sample + [largest]})

    def request(nk, st, c, tally, kind):
        try:
            start = clock()
            bundle = query_bundle(nk, c)
            tally.timed(kind, start, clock())
            tally.check(bundle_ok(bundle) and digest(bundle) == st.expected[c])
        except Exception:
            tally.check(False)

    def run_round(fresh, st, tally):
        # the largest input's repeats are spread over the pass; it repeats
        # within the round, and the sample repeats across rounds
        every = max(1, len(st.sample) // LEAFY_LARGEST_REPEATS)
        for i, c in enumerate(st.sample):
            if i % every == 0:
                nk = fresh()
                request(nk, st, st.largest, tally, "largest")
            request(nk, st, c, tally, "request")

    return Workload(name="leafy-queries", setup=setup, round=run_round)


WORKLOADS = {
    "sweep-small": sweep_workload,
    "rad-power": rad_power_workload,
    "leafy-queries": leafy_workload,
}

# Bounds small enough for the benchmark's own tests; every input still has
# a row in the recorded reference.
TINY = {
    "sweep-small": lambda: sweep_workload(n_max=4, c_max=4),
    "rad-power": lambda: rad_power_workload(sizes=(3, 4, 4, 5)),
    "leafy-queries": lambda: leafy_workload(sizes=(4, 5), sample_size=20),
}
