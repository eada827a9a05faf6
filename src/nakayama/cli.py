"""Command line interface.

Every subcommand reads the same JSON algebra format: either
{"n": 5, "relations": [[2,2],[3,2],[5,3]]} or {"kupisch": [3,2,2,4,3]}
(exactly one of the two forms).  Exit codes: 0 success, 1 bad input or
a command line that does not parse, 2 a named check failed (a
mathematical counterexample).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import cyclic, harness, relation_complex, resolution, unamalgamation
from .algebra import (
    AlgebraClass,
    AlgebraError,
    NakayamaAlgebra,
    algebra_from_kupisch,
    global_dimension,
    relation_pairs,
    validate,
)


class InputError(Exception):
    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    """A command line argparse refuses is bad input, not a failed check:
    one error line and exit 1, where argparse would exit 2.  The subcommand
    parsers are made of this class too."""

    def error(self, message):
        raise InputError("bad-args", message)


def _is_int(x) -> bool:
    """A JSON integer; JSON true/false parse to bool, a subclass of int."""
    return isinstance(x, int) and not isinstance(x, bool)


def algebra_from_dict(data) -> NakayamaAlgebra:
    if not isinstance(data, dict):
        raise InputError("bad-schema", "top level must be a JSON object")
    keys = set(data)
    if keys == {"kupisch"}:
        c = data["kupisch"]
        if not isinstance(c, list) or not all(_is_int(x) for x in c):
            raise InputError("bad-schema", '"kupisch" must be a list of integers')
        return algebra_from_kupisch(tuple(c))
    if keys == {"n", "relations"}:
        n, rels = data["n"], data["relations"]
        if not _is_int(n):
            raise InputError("bad-schema", '"n" must be an integer')
        if not isinstance(rels, list) or not all(
            isinstance(r, list) and len(r) == 2 and all(_is_int(x) for x in r)
            for r in rels
        ):
            raise InputError("bad-schema", '"relations" must be a list of [start, length] pairs')
        return validate(n, rels)
    raise InputError(
        "bad-schema",
        'expected exactly the keys {"n", "relations"} or {"kupisch"}, got '
        + (str(sorted(keys)) if keys else "{}"),
    )


def load_algebra(path: str) -> NakayamaAlgebra:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError("bad-file", str(exc)) from exc
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError, bytes that are not UTF-8 and an
        # integer past the interpreter's digit limit; nesting deeper than the
        # decoder's recursion limit is malformed JSON too
        raise InputError("bad-json", str(exc)) from exc
    return algebra_from_dict(data)


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError("bad-file", str(exc)) from exc


def _seq(values) -> str:
    return " ".join(str(v) for v in values) if values else "-"


def _analyze_text(verdict: harness.AlgebraVerdict) -> str:
    a = verdict.algebra
    lines = [
        f"algebra: n={a.n} class={a.algebra_class.value} "
        + "relations=" + " ".join(f"({start},{length})" for start, length in relation_pairs(a.kupisch)),
        "kupisch: " + " ".join(str(c) for c in a.kupisch),
    ]
    rq = resolution.build(a, verdict.targets)
    lines.append("arrows: " + " ".join(f"{i}->{rq.target(i)}" for i in range(1, a.n + 1)))
    lines.append(f"components: {len(verdict.weights)}")
    for comp in rq.components:
        cyc = "->".join(str(v) for v in comp.cycle)
        lines.append(f"component {min(comp.vertices)}: cycle {cyc} weight {comp.weight}")
    weights = set(verdict.weights)
    lines.append(
        "weight: "
        + (str(verdict.weights[0]) if len(weights) == 1 else " ".join(map(str, verdict.weights)))
    )
    lines.append("leaves: " + _seq(verdict.leaves))
    lines.append("f_vector: " + _seq(verdict.f_vector))
    if verdict.complex_empty:
        lines.append("relation complex: empty (every relation longer than n)")
    lines.append(f"euler: {verdict.chi}")
    lines.append("reduced_betti: " + _seq(verdict.betti))
    lines.append("hc_dims: " + _seq(verdict.hc_dims))
    lines.append(f"hc_euler: {verdict.hc_euler}")
    lines.append(f"gldim: {verdict.gldim}")
    lines.append(
        "checks: "
        + " ".join(f"{name}={'pass' if ok else 'FAIL'}" for name, ok in verdict.checks.items())
    )
    return "\n".join(lines) + "\n"


def cmd_analyze(args) -> int:
    algebra = load_algebra(args.file)
    verdict = harness.verify(algebra)
    if args.format == "json":
        _emit(_dump_json(verdict.to_dict()), args.out)
    else:
        _emit(_analyze_text(verdict), args.out)
    return 0 if verdict.ok else 2


def cmd_quiver(args) -> int:
    algebra = load_algebra(args.file)
    _emit(resolution.to_dot(resolution.build(algebra)), args.dot)
    return 0


def cmd_complex(args) -> int:
    algebra = load_algebra(args.file)
    cx = relation_complex.build_complex(algebra)
    if args.format == "text":
        _emit(relation_complex.to_off(cx), args.out)  # OFF-style simplex dump
    else:
        _emit(_dump_json(relation_complex.report(cx)), args.out)
    return 0


def cmd_hc(args) -> int:
    algebra = load_algebra(args.file)
    _emit(_dump_json(cyclic.report(algebra)), args.out)
    return 0


def cmd_gldim(args) -> int:
    algebra = load_algebra(args.file)
    _emit(f"gldim: {global_dimension(algebra)}\n", None)
    return 0


def cmd_unamalgamate(args) -> int:
    algebra = load_algebra(args.file)
    report = unamalgamation.check_properties(algebra, args.leaf)
    _emit(_dump_json(report.to_dict()), args.out)
    return 0 if report.all_ok else 2


def cmd_reduce(args) -> int:
    algebra = load_algebra(args.file)
    result = unamalgamation.reduce_fully(algebra)
    _emit(_dump_json(result.to_dict()), args.out)
    return 0


def cmd_sweep(args) -> int:
    classes = (
        frozenset(AlgebraClass(name) for name in args.classes)
        if args.classes
        else harness.ALL_CLASSES
    )
    checks = tuple(args.checks) if args.checks else harness.THEOREM_CHECKS
    try:
        config = harness.SweepConfig(
            n_min=args.n_min,
            n_max=args.n_max,
            c_max=args.c_max,
            classes=classes,
            checks=checks,
        )
    except ValueError as exc:
        raise InputError("bad-config", str(exc)) from exc
    report = harness.sweep(config, workers=harness.default_workers())
    counterexamples = report.counterexamples
    if args.out:
        _emit(harness.to_csv(report), args.out + ".csv")
        _emit(harness.to_json(report), args.out + ".json")
        sys.stdout.write(
            f"checked {len(report)} algebras, "
            f"{len(counterexamples)} counterexamples; "
            f"wrote {args.out}.csv and {args.out}.json\n"
        )
    elif args.format == "csv":
        sys.stdout.write(harness.to_csv(report))
    else:
        sys.stdout.write(harness.to_json(report))
    return 2 if counterexamples else 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nakayama",
        description="Resolution quivers, relation complexes, and cyclic homology of Nakayama algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_file_cmd(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="algebra JSON file")
        p.add_argument("--out", default=None, help="write output here instead of stdout")
        p.set_defaults(func=func)
        return p

    p = add_file_cmd("analyze", cmd_analyze, "full per-algebra report with named checks")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("quiver", help="emit the resolution quiver as DOT")
    p.add_argument("file")
    p.add_argument("--dot", default=None, help="write the DOT digraph here instead of stdout")
    p.set_defaults(func=cmd_quiver)

    p = add_file_cmd("complex", cmd_complex, "relation complex report (text = OFF-style dump)")
    p.add_argument("--format", choices=("json", "text"), default="json")

    add_file_cmd("hc", cmd_hc, "degree-n cyclic homology dimensions of the radical")

    p = sub.add_parser("gldim", help="global dimension")
    p.add_argument("file")
    p.set_defaults(func=cmd_gldim)

    p = add_file_cmd("unamalgamate", cmd_unamalgamate, "remove one leaf and verify the step")
    p.add_argument("--leaf", type=int, required=True)

    add_file_cmd("reduce", cmd_reduce, "remove leaves until none remain")

    p = sub.add_parser("sweep", help="verify the named checks over all algebras up to bounds")
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--c-max", type=int, default=4)
    p.add_argument(
        "--class",
        dest="classes",
        action="append",
        choices=[c.value for c in AlgebraClass],
        help="restrict to this class (repeatable; default all)",
    )
    p.add_argument(
        "--checks",
        action="append",
        choices=list(harness.THEOREM_CHECKS),
        help="run only these named checks (repeatable; default all)",
    )
    p.add_argument("--out", default=None, help="base path; writes <out>.csv and <out>.json")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = None
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (InputError, AlgebraError) as exc:
        target = getattr(args, "file", "<input>")
        sys.stderr.write(f"error[{exc.code}] {target}: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
