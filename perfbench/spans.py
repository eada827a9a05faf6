"""Span tracing of the `nakayama` layers from outside the program.

`Tracer.install` rebinds the public functions of each module of the
package to wrappers that record a span per call: name, start, end and the
enclosing span.  Functions imported by name into another module
(`harness.global_dimension`, `unamalgamation.global_dimension`,
`unamalgamation.validate`, ...) are rebound where they are looked up, so
every call site goes through the same wrapper.  `uninstall` restores the
originals; untraced runs never install anything.

Some wrappers also count work from the call's arguments and result (matrix
entries, subsets scanned, ...).  The time spent counting is charged to no
span: it is subtracted from the enclosing span's self time.

A run may trace several rounds of its workload, as many as fit in its
time.  Every round sends the same requests, so the metrics are per round:
totals over the traced rounds divided by their number.  The counts then
repeat exactly, however many rounds a run traces.
"""

from __future__ import annotations

import functools
import gzip
import inspect
from array import array
from collections import defaultdict
from math import comb
from pathlib import Path
from types import SimpleNamespace

from workloads import MODULES, clock

# Small helpers called per element, relation, matrix or syzygy step, tens to
# hundreds of thousands of times per sweep: a span each would cost more than
# the work it measures, so their time stays in the caller's self time.
UNTRACED = {
    "algebra.mod1",
    "algebra.classify",
    "algebra.is_valid_kupisch",
    "algebra.is_projective",
    "algebra.syzygy",
    "resolution.gustafson",
    "cyclic.station_gaps",
    "cyclic.canonicalize",
    "relation_complex.interior",
    "relation_complex.complex_vertices",
    "linalg.zero_matrix",
    "linalg.is_zero",
    "unamalgamation.relabel_map",
    "unamalgamation.delete_last_arrow",
}
# Methods traced besides the module functions: the harness's serialization.
TRACED_METHODS = (("harness", "AlgebraVerdict", "to_dict"),)


def _nonzeros(matrix) -> int:
    return sum(1 for row in matrix for x in row if x)


def _entries(matrix) -> int:
    return len(matrix) * (len(matrix[0]) if matrix else 0)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.hidden = array("d")  # counting time spent inside the span, for its children
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.distinct: dict[str, set] = defaultdict(set)
        self.round_first: list[int] = []  # the first span of each traced round
        self._restore: list[tuple[object, str, object]] = []

    @property
    def round(self) -> int:
        """The number of traced rounds begun."""
        return len(self.round_first)

    def begin_round(self) -> None:
        self.round_first.append(len(self.start))

    # ------------------------------------------------------------ counters

    def _count_rank(self, args, result):
        self.counts["linalg.rank.entries"] += _entries(args[0])
        self.counts["linalg.rank.nonzeros"] += _nonzeros(args[0])

    def _count_matmul(self, args, result):
        a, b = args[0], args[1]
        self.counts["linalg.matmul.mults"] += len(a) * len(b) * (len(b[0]) if b else 0)

    def _count_basis(self, args, result):
        algebra, p = args[0], args[1]
        self.counts["cyclic.basis.scanned"] += comb(algebra.n, p + 1)
        self.counts["cyclic.basis.kept"] += len(result)
        # a degree is one (verify call, p): sweep-small verifies each algebra twice a round
        verify_id = self._ids.get("harness.verify")
        verify = next((i for i in reversed(self._stack) if self.name[i] == verify_id), None)
        self.distinct["cyclic.basis"].add((self.round, verify, algebra.n, algebra.relations, p))

    def _count_differential(self, args, result):
        self.counts["cyclic.differential.entries"] += _entries(result)
        self.counts["cyclic.differential.nonzeros"] += _nonzeros(result)

    def _count_complex(self, args, result):
        r = len(args[1])
        # sizes 1.. are scanned until the first size with no simplex
        self.counts["relation_complex.subsets_scanned"] += sum(
            comb(r, size) for size in range(1, min(r, len(result.simplices) + 1) + 1)
        )
        self.counts["relation_complex.simplices"] += sum(result.f_vector)

    def _count_reduce(self, args, result):
        self.counts["unamalgamation.reduce_fully.steps"] += len(result.steps)

    def _count_summarize(self, args, result):
        algebra = args[0]
        self.distinct["unamalgamation.summarize"].add((self.round, algebra.n, algebra.relations))

    COUNTERS = {
        "linalg.rank": _count_rank,
        "linalg.matmul": _count_matmul,
        "cyclic.basis": _count_basis,
        "cyclic.differential": _count_differential,
        "relation_complex.complex_from_interiors": _count_complex,
        "unamalgamation.reduce_fully": _count_reduce,
        "unamalgamation.summarize": _count_summarize,
    }

    # ------------------------------------------------------------ spans

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self.hidden.append(0.0)
        self._stack.append(idx)
        self.start.append(clock())
        return idx

    def _close(self, idx: int) -> float:
        end = clock()
        self.end[idx] = end
        self._stack.pop()
        return end

    def _charge_counting(self, idx: int, since: float) -> None:
        parent = self.parent[idx]
        if parent >= 0:
            self.hidden[parent] += clock() - since

    def wrap(self, name: str, fn):
        name_id = self._id(name)
        counter = self.COUNTERS.get(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # one span per resumption, so the consumer's span stays the parent
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    idx = tracer._open(name_id)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(idx)
                    yield item

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer._close(idx)
            if counter is not None:
                counter(tracer, args, result)
                tracer._charge_counting(idx, end)
            return result

        return traced

    # ------------------------------------------------------------ install

    def install(self, nk: SimpleNamespace) -> None:
        wrappers: dict[int, object] = {}
        for module_name in MODULES:
            module = getattr(nk, module_name)
            for attr, value in list(vars(module).items()):
                name = f"{module_name}.{attr}"
                if (inspect.isfunction(value) and value.__module__ == module.__name__
                        and not attr.startswith("_") and name not in UNTRACED):
                    wrappers[id(value)] = self.wrap(name, value)
        for module_name, cls_name, attr in TRACED_METHODS:
            cls = getattr(getattr(nk, module_name), cls_name)
            self._rebind(cls, attr, self.wrap(f"{module_name}.{cls_name}.{attr}", vars(cls)[attr]))
        # rebind every lookup site, including names imported from another module
        for module in [nk.package] + [getattr(nk, m) for m in MODULES]:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._rebind(module, attr, wrappers[id(value)])

    def _rebind(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # ------------------------------------------------------------ results

    def self_times(self, scales: list[float]) -> tuple[dict[str, float], dict[str, int]]:
        """Self time and call count per span name, summed over the rounds.  A
        span's self time is its duration minus the time its child spans cover
        (children nest inside their parent, one thread) and minus counting
        done for them, times the scale of its round (speed.py)."""
        n = len(self.start)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        scale = [1.0] * n
        for first, last, factor in zip(self.round_first, self.round_first[1:] + [n], scales):
            scale[first:last] = [factor] * (last - first)
        selfs: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i in range(n):
            name = self.names[self.name[i]]
            selfs[name] += (self.end[i] - self.start[i] - covered[i] - self.hidden[i]) * scale[i]
            calls[name] += 1
        return selfs, calls

    def write(self, path: Path) -> None:
        """All spans, one per line: id, parent, name, start and end in ns
        from the first span."""
        t0 = self.start[0] if self.start else 0.0
        lines = ["id\tparent\tname\tstart_ns\tend_ns\n"]
        for i in range(len(self.start)):
            lines.append(
                f"{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                f"{round((self.start[i] - t0) * 1e9)}\t{round((self.end[i] - t0) * 1e9)}\n"
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.writelines(lines)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, algebras: int, scales: list[float]) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json that come from spans, per
    traced round; `algebras` is the number of algebras the traced rounds
    processed, and `scales` the speed correction of each traced round."""
    rounds = tracer.round
    total_selfs, total_calls = tracer.self_times(scales)
    selfs = defaultdict(float, {name: s / rounds for name, s in total_selfs.items()})
    calls = defaultdict(int, {name: c / rounds for name, c in total_calls.items()})
    k = defaultdict(int, {name: c / rounds for name, c in tracer.counts.items()})
    basis_pairs = len(tracer.distinct["cyclic.basis"]) / rounds
    summarized = len(tracer.distinct["unamalgamation.summarize"]) / rounds
    algebras /= rounds
    return {
        "linalg.rank.s": selfs["linalg.rank"],
        "linalg.rank.calls": calls["linalg.rank"],
        "linalg.rank.entries": k["linalg.rank.entries"],
        "linalg.rank.nonzeros": k["linalg.rank.nonzeros"],
        "linalg.matmul.s": selfs["linalg.matmul"],
        "linalg.matmul.calls": calls["linalg.matmul"],
        "linalg.matmul.mults": k["linalg.matmul.mults"],
        "cyclic.basis.s": selfs["cyclic.basis"],
        "cyclic.basis.calls": calls["cyclic.basis"],
        "cyclic.basis.calls_per_degree": _ratio(calls["cyclic.basis"], basis_pairs),
        "cyclic.basis.yield": _ratio(k["cyclic.basis.kept"], k["cyclic.basis.scanned"]),
        "cyclic.differential.s": selfs["cyclic.differential"],
        "cyclic.differential.calls": calls["cyclic.differential"],
        "cyclic.differential.density": _ratio(k["cyclic.differential.nonzeros"], k["cyclic.differential.entries"]),
        "cyclic.hc_dimensions.s": selfs["cyclic.hc_dimensions"],
        "cyclic.hc_dimensions.calls": calls["cyclic.hc_dimensions"],
        "cyclic.differential_squares_to_zero.s": selfs["cyclic.differential_squares_to_zero"],
        "relation_complex.boundary_squares_to_zero.s": selfs["relation_complex.boundary_squares_to_zero"],
        "relation_complex.complex_from_interiors.s": selfs["relation_complex.complex_from_interiors"],
        "relation_complex.complex_from_interiors.calls": calls["relation_complex.complex_from_interiors"],
        "relation_complex.subsets_scanned": k["relation_complex.subsets_scanned"],
        "relation_complex.simplex_yield": _ratio(k["relation_complex.simplices"], k["relation_complex.subsets_scanned"]),
        "relation_complex.reduced_betti.s": selfs["relation_complex.reduced_betti"],
        "resolution.build.s": selfs["resolution.build"],
        "resolution.build.calls": calls["resolution.build"],
        "resolution.build.calls_per_algebra": _ratio(calls["resolution.build"], algebras),
        "algebra.global_dimension.s": selfs["algebra.global_dimension"],
        "algebra.global_dimension.calls": calls["algebra.global_dimension"],
        "algebra.validate.calls": calls["algebra.validate"],
        "unamalgamation.reduce_fully.s": selfs["unamalgamation.reduce_fully"],
        "unamalgamation.reduce_fully.steps": k["unamalgamation.reduce_fully.steps"],
        "unamalgamation.check_properties.s": selfs["unamalgamation.check_properties"],
        "unamalgamation.check_properties.calls": calls["unamalgamation.check_properties"],
        "unamalgamation.unamalgamate.s": selfs["unamalgamation.unamalgamate"],
        "unamalgamation.summarize.calls": calls["unamalgamation.summarize"],
        "unamalgamation.summarize.distinct_ratio": _ratio(summarized, calls["unamalgamation.summarize"]),
        "harness.verify.self_s": selfs["harness.verify"],
        "harness.raw_complex_matches.s": selfs["harness.raw_complex_matches"],
        "harness.serialize.s": selfs["harness.to_csv"] + selfs["harness.to_json"]
        + selfs["harness.AlgebraVerdict.to_dict"],
    }
