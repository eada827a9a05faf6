import io
import json
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nakayama import TooLargeError, cyclic, harness, radical_power_algebra, relation_complex, resolution, validate
from nakayama.cli import algebra_from_dict, main


@pytest.fixture
def l1_file(tmp_path):
    path = tmp_path / "l1.json"
    path.write_text('{"n": 5, "relations": [[2,2],[3,2],[5,3]]}')
    return str(path)


@pytest.fixture
def l2_file(tmp_path):
    path = tmp_path / "l2.json"
    path.write_text('{"n": 5, "relations": [[1,3],[2,4],[4,3],[5,3]]}')
    return str(path)


@pytest.fixture
def l3_file(tmp_path):
    path = tmp_path / "l3.json"
    path.write_text('{"kupisch": [2, 2, 2, 2]}')
    return str(path)


def test_analyze_lambda1_text(l1_file, capsys):
    assert main(["analyze", l1_file]) == 0
    out = capsys.readouterr().out
    assert "weight: 1" in out
    assert "euler: 1" in out
    assert "gldim: finite" in out


def test_analyze_lambda2_text(l2_file, capsys):
    assert main(["analyze", l2_file]) == 0
    out = capsys.readouterr().out
    assert "weight: 2" in out
    assert "euler: 0" in out
    assert "gldim: infinite" in out
    assert "hc_euler: 1" in out


def test_analyze_is_deterministic(l2_file, capsys):
    main(["analyze", l2_file, "--format", "json"])
    first = capsys.readouterr().out
    main(["analyze", l2_file, "--format", "json"])
    assert capsys.readouterr().out == first


def test_analyze_json_round_trips(l1_file, capsys):
    assert main(["analyze", l1_file, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    algebra = algebra_from_dict(data["algebra"])
    assert algebra == validate(5, [(2, 2), (3, 2), (5, 3)])
    assert data["checks"]["A"] is True


ALL_PASS = (
    "checks: A=pass B=pass C=pass SameWeight=pass HCvsBetti=pass Bprime=pass UnamalgamationProps=pass"
    " RoundTrip=pass EulerPoincare=pass BoundarySquare=pass CyclicSquare=pass HCEulerIdentity=pass"
    " NodesEqualRelations=pass\n"
)
ALL_TRUE = dict.fromkeys(harness.THEOREM_CHECKS + harness.STRUCTURAL_CHECKS, True)

# analyze's text and JSON for lambda1, lambda2, (2,2,2,2) and (4,4,3,3,3), a
# rotation of lambda2, recorded before the verdict became one flat record
ANALYZE_PINS = {
    '{"n": 5, "relations": [[2, 2], [3, 2], [5, 3]]}': (
        "algebra: n=5 class=cyclic relations=(2,2) (3,2) (5,3)\n"
        "kupisch: 3 2 2 4 3\n"
        "arrows: 1->4 2->4 3->5 4->3 5->3\n"
        "components: 1\n"
        "component 1: cycle 3->5 weight 1\n"
        "weight: 1\n"
        "leaves: 1 2\n"
        "f_vector: 3 3 1\n"
        "euler: 1\n"
        "reduced_betti: -\n"
        "hc_dims: 0 0 0 0 0\n"
        "hc_euler: 0\n"
        "gldim: finite (4)\n" + ALL_PASS,
        {"algebra": {"n": 5, "relations": [[2, 2], [3, 2], [5, 3]]}, "basis_sizes": [0, 0, 2, 3, 1],
         "checks": ALL_TRUE, "chi": 1, "class": "cyclic", "complex_empty": False, "components": 1,
         "f_vector": [3, 3, 1], "gldim": 4, "hc_dims": [0, 0, 0, 0, 0], "hc_euler": 0,
         "kupisch": [3, 2, 2, 4, 3], "leaves": [1, 2], "reduced_betti": [], "weights": [1]},
    ),
    '{"n": 5, "relations": [[1, 3], [2, 4], [4, 3], [5, 3]]}': (
        "algebra: n=5 class=cyclic relations=(1,3) (2,4) (4,3) (5,3)\n"
        "kupisch: 3 4 4 3 3\n"
        "arrows: 1->4 2->1 3->2 4->2 5->3\n"
        "components: 1\n"
        "component 1: cycle 1->4->2 weight 2\n"
        "weight: 2\n"
        "leaves: 5\n"
        "f_vector: 4 5 1\n"
        "euler: 0\n"
        "reduced_betti: 0 1\n"
        "hc_dims: 0 0 1 0 0\n"
        "hc_euler: 1\n"
        "gldim: infinite\n" + ALL_PASS,
        {"algebra": {"n": 5, "relations": [[1, 3], [2, 4], [4, 3], [5, 3]]}, "basis_sizes": [0, 2, 7, 5, 1],
         "checks": ALL_TRUE, "chi": 0, "class": "cyclic", "complex_empty": False, "components": 1,
         "f_vector": [4, 5, 1], "gldim": None, "hc_dims": [0, 0, 1, 0, 0], "hc_euler": 1,
         "kupisch": [3, 4, 4, 3, 3], "leaves": [5], "reduced_betti": [0, 1], "weights": [2]},
    ),
    '{"kupisch": [2, 2, 2, 2]}': (
        "algebra: n=4 class=cyclic relations=(1,2) (2,2) (3,2) (4,2)\n"
        "kupisch: 2 2 2 2\n"
        "arrows: 1->3 2->4 3->1 4->2\n"
        "components: 2\n"
        "component 1: cycle 1->3 weight 1\n"
        "component 2: cycle 2->4 weight 1\n"
        "weight: 1\n"
        "leaves: -\n"
        "f_vector: 4 6 4\n"
        "euler: 2\n"
        "reduced_betti: 0 0 1\n"
        "hc_dims: 0 0 0 1\n"
        "hc_euler: -1\n"
        "gldim: infinite\n" + ALL_PASS,
        {"algebra": {"n": 4, "relations": [[1, 2], [2, 2], [3, 2], [4, 2]]}, "basis_sizes": [0, 0, 0, 1],
         "checks": ALL_TRUE, "chi": 2, "class": "cyclic", "complex_empty": False, "components": 2,
         "f_vector": [4, 6, 4], "gldim": None, "hc_dims": [0, 0, 0, 1], "hc_euler": -1,
         "kupisch": [2, 2, 2, 2], "leaves": [], "reduced_betti": [0, 0, 1], "weights": [1, 1]},
    ),
    '{"kupisch": [4, 4, 3, 3, 3]}': (
        "algebra: n=5 class=cyclic relations=(1,4) (3,3) (4,3) (5,3)\n"
        "kupisch: 4 4 3 3 3\n"
        "arrows: 1->5 2->1 3->1 4->2 5->3\n"
        "components: 1\n"
        "component 1: cycle 1->5->3 weight 2\n"
        "weight: 2\n"
        "leaves: 4\n"
        "f_vector: 4 5 1\n"
        "euler: 0\n"
        "reduced_betti: 0 1\n"
        "hc_dims: 0 0 1 0 0\n"
        "hc_euler: 1\n"
        "gldim: infinite\n" + ALL_PASS,
        {"algebra": {"n": 5, "relations": [[1, 4], [3, 3], [4, 3], [5, 3]]}, "basis_sizes": [0, 2, 7, 5, 1],
         "checks": ALL_TRUE, "chi": 0, "class": "cyclic", "complex_empty": False, "components": 1,
         "f_vector": [4, 5, 1], "gldim": None, "hc_dims": [0, 0, 1, 0, 0], "hc_euler": 1,
         "kupisch": [4, 4, 3, 3, 3], "leaves": [4], "reduced_betti": [0, 1], "weights": [2]},
    ),
}


@pytest.mark.parametrize("text", list(ANALYZE_PINS))
def test_analyze_output_is_pinned(text, tmp_path, capsys):
    """`analyze`, text and `--format json`: stdout byte for byte, nothing
    on stderr, exit 0."""
    path = tmp_path / "algebra.json"
    path.write_text(text)
    want_text, want_json = ANALYZE_PINS[text]
    assert main(["analyze", str(path)]) == 0
    assert capsys.readouterr() == (want_text, "")
    assert main(["analyze", str(path), "--format", "json"]) == 0
    assert capsys.readouterr() == (json.dumps(want_json, indent=2, sort_keys=True) + "\n", "")


def test_analyze_computes_gustafsons_function_once(l1_file, monkeypatch, capsys):
    """`analyze` draws the quiver with the targets `verify` computed: one
    `resolution.targets` call on the input's series.  The leaf checks and
    Bprime's reduction call it on the smaller series only."""
    real, calls = resolution.targets, []
    monkeypatch.setattr(resolution, "targets", lambda c: calls.append(c) or real(c))
    assert main(["analyze", l1_file]) == 0
    assert "arrows: 1->4 2->4 3->5 4->3 5->3\n" in capsys.readouterr().out
    assert calls.count((3, 2, 2, 4, 3)) == 1
    assert all(len(c) < 5 for c in calls if c != (3, 2, 2, 4, 3))


def test_kupisch_input_form(l3_file, capsys):
    assert main(["analyze", l3_file]) == 0
    out = capsys.readouterr().out
    assert "components: 2" in out
    assert "gldim: infinite" in out


def test_quiver_dot(l1_file, tmp_path, capsys):
    dot_path = tmp_path / "rq.dot"
    assert main(["quiver", l1_file, "--dot", str(dot_path)]) == 0
    text = dot_path.read_text()
    assert "digraph resolution_quiver" in text
    assert "3 -> 5 [style=bold];" in text


def test_complex_json(l2_file, capsys):
    assert main(["complex", l2_file]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"euler": 0, "f_vector": [4, 5, 1], "reduced_betti": [0, 1], "empty": False}


def test_complex_off_style_dump(l2_file, capsys):
    assert main(["complex", l2_file, "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("OFF\n4 6 0\n")


def test_hc_report(l3_file, capsys):
    assert main(["hc", l3_file]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["hc_dims"] == [0, 0, 0, 1]
    assert data["basis_sizes"] == [0, 0, 0, 1]
    assert data["hc_euler"] == -1


def test_gldim(l1_file, capsys):
    assert main(["gldim", l1_file]) == 0
    assert capsys.readouterr().out == "gldim: finite (4)\n"


def test_unamalgamate_lambda2(l2_file, tmp_path, capsys):
    out_path = tmp_path / "step.json"
    assert main(["unamalgamate", l2_file, "--leaf", "5", "--out", str(out_path)]) == 0
    data = json.loads(out_path.read_text())
    assert data["leaf"] == 5
    assert data["raw_relations"] == [[1, 3], [2, 3], [4, 2], [4, 3]]
    assert data["output"] == {"n": 4, "relations": [[1, 3], [2, 3], [4, 2]]}
    assert data["checks"] == {"quiver": True, "weight": True, "betti": True, "gldim": True}


def test_unamalgamate_not_a_leaf(l3_file, capsys):
    for leaf, reason in (("1", "vertex 1 is a node of the resolution quiver"), ("0", "vertex 0 is outside 1..4")):
        assert main(["unamalgamate", l3_file, "--leaf", leaf]) == 1
        err = capsys.readouterr().err
        assert "error[not-a-leaf]" in err and reason in err


def test_reduce(l1_file, capsys):
    assert main(["reduce", l1_file]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["steps"]) == 3
    assert data["semisimple"] is True
    assert data["terminal_kupisch"] == [1, 1]


def test_bad_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    for content in (
        b"{not json",
        b"[" * 100_000 + b"]" * 100_000,  # deeper than the decoder's recursion limit
        b'\xff\xfe{"kupisch": [1, 1]}',  # a UTF-16 byte order mark, not UTF-8
    ):
        path.write_bytes(content)
        assert main(["analyze", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[bad-json] ") and err.count("\n") == 1, err


@pytest.mark.parametrize("template", ['{{"kupisch": [{}, 2]}}', '{{"n": {}, "relations": [[1, 1]]}}'])
def test_integer_past_the_digit_limit_is_bad_json(tmp_path, capsys, template):
    """An integer literal one digit longer than the interpreter converts
    ends in one bad-json line, not a traceback from the decoder."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts integers of any length")
    path = tmp_path / "digits.json"
    path.write_text(template.format("1" * (limit + 1)))
    assert main(["gldim", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error[bad-json] ") and captured.err.count("\n") == 1, captured.err


def test_bad_schema(tmp_path, capsys):
    path = tmp_path / "schema.json"
    path.write_text('{"n": 5, "relations": [[2,2]], "kupisch": [1,1]}')
    assert main(["analyze", str(path)]) == 1
    assert "error[bad-schema]" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    '{"kupisch": [true, 2, 2]}',
    '{"kupisch": [3, 2, false]}',
    '{"n": true, "relations": [[1, 1]]}',
    '{"n": 3, "relations": [[true, 2], [2, 2], [3, 2]]}',
    '{"n": 3, "relations": [[1, 2], [2, 2], [3, true]]}',
])
def test_json_booleans_are_not_integers(tmp_path, capsys, text):
    path = tmp_path / "bool.json"
    path.write_text(text)
    assert main(["analyze", str(path)]) == 1
    assert "error[bad-schema]" in capsys.readouterr().err


@pytest.mark.parametrize("command, text", [
    ("analyze", '{"n": 40, "relations": [[1, 41]]}'),
    ("hc", '{"n": 40, "relations": [[1, 41]]}'),
    ("complex", json.dumps({"kupisch": [2] * 40})),
    ("complex", json.dumps({"kupisch": [1] * 17})),
    ("reduce", '{"n": 1025, "relations": [[1, 1]]}'),
    ("gldim", '{"n": 1025, "relations": [[1, 1]]}'),
    ("quiver", '{"n": 1025, "relations": [[1, 1]]}'),
    ("gldim", json.dumps({"kupisch": [2] * 1025})),
    ("unamalgamate --leaf 3", json.dumps({"kupisch": [1] + [2] * 19})),
])
def test_too_large_fails_before_enumerating(tmp_path, monkeypatch, capsys, command, text):
    # 2^40 - 1 station subsets (cyclic basis) or relation subsets (complex),
    # 2^17 - 1 relation subsets of a cone, whose f-vector needs no
    # enumeration but whose build is refused all the same, or 2^10 + 1
    # vertices, one over algebra.MAX_VERTICES.  The leaf check at 3, the one
    # leaf of a cone with 19 relations, reads its relation complex's
    # interiors, with the same size guard, so it is refused too.
    def no_enumeration(*args):
        raise AssertionError("subset enumeration started")

    monkeypatch.setattr(cyclic, "_critical_cells", no_enumeration)
    monkeypatch.setattr(cyclic, "_cell_counts", no_enumeration)
    monkeypatch.setattr(relation_complex, "_extend", no_enumeration)
    path = tmp_path / "big.json"
    path.write_text(text)
    command, *flags = command.split()
    assert main([command, str(path), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[too-large] ") and err.count("\n") == 1
    if command == "unamalgamate":
        assert "2^19 - 1 subsets" in err


@pytest.mark.parametrize("entry", [cyclic.hc_dimensions, cyclic.basis_sizes])
def test_cyclic_entry_points_refuse_before_enumerating(monkeypatch, entry):
    # rad^18 on the 17-cycle has 2^17 - 1 station subsets, one power of two
    # over MAX_SUBSETS: each public entry point refuses before its walk or
    # its count starts
    def no_enumeration(*args):
        raise AssertionError("subset enumeration started")

    monkeypatch.setattr(cyclic, "_critical_cells", no_enumeration)
    monkeypatch.setattr(cyclic, "_cell_counts", no_enumeration)
    with pytest.raises(TooLargeError, match=r"^the cyclic basis would scan 2\^17 - 1 subsets, over "):
        entry(radical_power_algebra(17, 18))


@pytest.mark.parametrize("series", [[3, 1] + [1] * 1023, [1]])
def test_invalid_kupisch_is_refused_before_its_size(tmp_path, capsys, series):
    # a list that is no Kupisch series is refused as such, even when it has
    # more than algebra.MAX_VERTICES entries
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kupisch": series}))
    assert main(["gldim", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[invalid-kupisch] ") and err.count("\n") == 1


def test_invalid_algebra(tmp_path, capsys):
    path = tmp_path / "dup.json"
    path.write_text('{"n": 5, "relations": [[2,2],[2,3]]}')
    assert main(["analyze", str(path)]) == 1
    assert "error[duplicate-start]" in capsys.readouterr().err


def test_missing_file(capsys):
    assert main(["analyze", "/nonexistent/x.json"]) == 1
    assert "error[bad-file]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["sweep"], "required: --n-max"),
        (["unamalgamate", "algebra.json", "--leaf", "x"], "invalid int value: 'x'"),
        (["frobnicate"], "invalid choice: 'frobnicate'"),
        ([], "required: command"),
    ],
)
def test_unparsable_command_line_ends_in_a_bad_args_line(argv, reason, capsys):
    """A command line that does not parse is bad input, exit 1, not the
    exit 2 of a failed check; the file is not read."""
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error[bad-args] <input>: ") and captured.err.count("\n") == 1
    assert reason in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"]])
def test_help_still_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: nakayama") and captured.err == ""


@pytest.mark.parametrize("flags", [["--n-max", "3", "--n-min", "1"], ["--n-max", "3", "--c-max", "0"]])
def test_sweep_bad_bounds_end_in_an_error_line(flags, capsys):
    assert main(["sweep"] + flags) == 1
    captured = capsys.readouterr()
    assert captured.err == "error[bad-config] <input>: need n_min >= 2 and c_max >= 1\n"
    assert captured.out == ""


def test_sweep_near_max_vertices_ends_in_one_error_line(capsys):
    # the one series (1,) * 1000 is enumerated, then refused by the
    # relation complex's subset limit
    assert main(["sweep", "--n-min", "1000", "--n-max", "1000", "--c-max", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error[too-large] ") and captured.err.count("\n") == 1
    assert captured.out == ""


def test_sweep_level_past_max_subsets_stops_at_its_first_series(monkeypatch, capsys):
    """Every algebra on 30 vertices is refused by `verify`, so the level is
    its first series alone, (1,) * 30, refused by the relation complex's
    subset limit, instead of all 2^30 sequences in {1, 2}^30.  That series
    is taken in closed form: none is drawn from the class keys, the
    necklaces."""
    drawn = []

    def counted(walk):
        def walked(n, c_max):
            for c in walk(n, c_max):
                drawn.append(c)
                assert len(drawn) <= 10, "the level was enumerated past its first series"
                yield c

        return walked

    monkeypatch.setattr(harness, "_necklaces", counted(harness._necklaces))
    start = time.perf_counter()
    assert main(["sweep", "--n-min", "30", "--n-max", "30", "--c-max", "2"]) == 1
    assert time.perf_counter() - start < 10
    captured = capsys.readouterr()
    assert captured.err == "error[too-large] <input>: the relation complex would scan 2^30 - 1 subsets, over 65536\n"
    assert captured.out == ""
    assert drawn == []


@pytest.mark.parametrize("cls, relations", [("cyclic", 30), ("linear", 29)])
def test_class_filtered_sweep_level_past_max_subsets_ends_at_once(monkeypatch, capsys, cls, relations):
    """The first cyclic series on 30 vertices, (2,) * 30, follows the 2^29
    series that start with 1, and the first linear one, (1, 2, ..., 2),
    the 2^28 that start (1, 1); the level is refused at that series
    without walking the ones ahead of it.  (1, 2, ..., 2) has 29
    relations, as the path of length 2 at 30 contains the relation (1, 1).
    The class keys, the necklaces, are not listed."""

    def walked(n, c_max):
        raise AssertionError("the series ahead of the level's first member were walked")

    monkeypatch.setattr(harness, "_necklaces", walked)
    start = time.perf_counter()
    assert main(["sweep", "--n-min", "30", "--n-max", "30", "--c-max", "2", "--class", cls]) == 1
    assert time.perf_counter() - start < 10
    captured = capsys.readouterr()
    assert captured.err == (
        f"error[too-large] <input>: the relation complex would scan 2^{relations} - 1 subsets, over 65536\n"
    )
    assert captured.out == ""


@pytest.mark.parametrize("flags, code, err, out", [
    # the first series of the level, (1,) * 17, has 17 relations of length 1
    (["--c-max", "2"], 1, "error[too-large] <input>: the relation complex would scan 2^17 - 1 subsets, over 65536\n", ""),
    # (1,) * 17 is the one series and is not cyclic: an empty level passes
    (["--c-max", "1", "--class", "cyclic", "--format", "csv"], 0, "", ",".join(harness.CSV_COLUMNS) + "\n"),
])
def test_sweep_at_17_vertices(capsys, flags, code, err, out):
    assert main(["sweep", "--n-min", "17", "--n-max", "17", *flags]) == code
    captured = capsys.readouterr()
    assert (captured.err, captured.out) == (err, out)


@pytest.mark.parametrize("flags, code, err, out", [
    # the first level past MAX_SUBSETS, n = 17, holds no cyclic series, so
    # no later level holds one
    (["--n-max", "1000000", "--c-max", "1", "--class", "cyclic", "--format", "csv"], 0, "",
     ",".join(harness.CSV_COLUMNS) + "\n"),
    # (1,) * 100000 is refused by its size before it is built
    (["--n-min", "100000", "--n-max", "100000", "--c-max", "1"], 1,
     "error[too-large] <input>: quiver size 100000 is over 1024\n", ""),
])
def test_sweep_far_past_the_limits_ends_at_once(capsys, flags, code, err, out):
    start = time.perf_counter()
    assert main(["sweep", *flags]) == code
    assert time.perf_counter() - start < 10
    captured = capsys.readouterr()
    assert (captured.err, captured.out) == (err, out)


@pytest.mark.parametrize("command, flag, extra", [
    ("analyze", "--out", []),
    ("complex", "--out", []),
    ("hc", "--out", []),
    ("unamalgamate", "--out", ["--leaf", "5"]),
    ("reduce", "--out", []),
    ("quiver", "--dot", []),
    ("sweep", "--out", ["--n-max", "2", "--c-max", "2"]),
])
def test_unwritable_output_ends_in_an_error_line(l2_file, tmp_path, capsys, command, flag, extra):
    out = str(tmp_path / "missing" / "out")
    argv = [command] + ([] if command == "sweep" else [l2_file]) + extra + [flag, out]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[bad-file] ") and out in err
    assert err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


def test_sweep_writes_csv_and_json(tmp_path, capsys):
    base = str(tmp_path / "sweep")
    assert main(["sweep", "--n-max", "3", "--c-max", "3", "--out", base]) == 0
    csv_lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert csv_lines[0].startswith("n,kupisch,")
    data = json.loads((tmp_path / "sweep.json").read_text())
    assert data["ok"] is True
    assert "wrote" in capsys.readouterr().out


def test_sweep_stdout_json(capsys):
    assert main(["sweep", "--n-max", "2", "--c-max", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["algebra_count"] == 4


def test_counterexample_exit_code(l1_file, monkeypatch, capsys):
    real_verify = harness.verify

    def broken_verify(algebra, checks=harness.THEOREM_CHECKS, known=None, mirror=None):
        verdict = real_verify(algebra, checks, known, mirror)
        verdict.checks["A"] = False
        return verdict

    monkeypatch.setattr(harness, "verify", broken_verify)
    assert main(["analyze", l1_file]) == 2
    assert "A=FAIL" in capsys.readouterr().out
    assert main(["sweep", "--n-max", "2", "--c-max", "2"]) == 2
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is False and data["counterexamples"]


def test_sweep_honors_thread_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    monkeypatch.setenv("NAKAYAMA_THREADS", "2")
    assert harness.default_workers() == 2
    base = str(tmp_path / "par")
    assert main(["sweep", "--n-max", "4", "--c-max", "3", "--out", base]) == 0
    monkeypatch.setenv("NAKAYAMA_THREADS", "1")
    base2 = str(tmp_path / "ser")
    assert main(["sweep", "--n-max", "4", "--c-max", "3", "--out", base2]) == 0
    assert (tmp_path / "par.csv").read_text() == (tmp_path / "ser.csv").read_text()
    monkeypatch.setenv("NAKAYAMA_THREADS", "junk")
    assert harness.default_workers() == 1


@pytest.mark.parametrize("raw, cpus, expected", [
    ("64", 4, 4),
    ("3", 4, 3),
    ("0", 4, 1),
    ("-2", 4, 1),
    ("8", None, 1),
])
def test_default_workers_clamps_to_cpu_count(monkeypatch, capsys, raw, cpus, expected):
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
    monkeypatch.setenv("NAKAYAMA_THREADS", raw)
    assert harness.default_workers() == expected
    assert capsys.readouterr().err == ""


def test_default_workers_warns_on_junk(monkeypatch, capsys):
    monkeypatch.setenv("NAKAYAMA_THREADS", "two")
    assert harness.default_workers() == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "NAKAYAMA_THREADS" in err and "'two'" in err


_small = st.integers(-2, 8)
_json = st.recursive(
    st.none() | st.booleans() | _small | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)
_documents = st.one_of(
    _json,
    st.fixed_dictionaries({"kupisch": st.lists(_small, max_size=7) | _json}),
    st.fixed_dictionaries({
        "n": _small | _json,
        "relations": st.lists(st.lists(_small, min_size=2, max_size=2), max_size=6)
        | st.lists(_json, max_size=4),
    }),
)


@settings(max_examples=300, deadline=None)
@given(
    _documents,
    st.sampled_from(["gldim", "analyze", "complex", "hc", "quiver", "reduce", "unamalgamate"]),
    st.integers(-1, 9),
)
def test_any_document_ends_in_an_exit_code(tmp_path_factory, doc, command, leaf):
    """Whatever JSON a command reads, it returns 0, 1 or 2 and raises nothing."""
    path = tmp_path_factory.mktemp("fuzz") / "algebra.json"
    path.write_text(json.dumps(doc))
    argv = [command, str(path)] + (["--leaf", str(leaf)] if command == "unamalgamate" else [])
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert main(argv) in (0, 1, 2)
