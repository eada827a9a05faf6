import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nakayama
from nakayama import (
    NakayamaAlgebra,
    NotALeafError,
    ProjDim,
    Relation,
    TooSmallError,
    algebra_from_kupisch,
    global_dimension,
    kupisch_from_relations,
)
from nakayama.harness import AlgebraVerdict, SweepConfig, enumerate_kupisch, raw_complex_matches, verify
from nakayama.relation_complex import build_complex, euler_characteristic
from nakayama.resolution import build, leaves, targets
from nakayama.unamalgamation import (
    check_properties,
    reduce_fully,
    relabel_map,
    unamalgamate,
)

from enumeration_oracle import least_rotation
from leaf_oracle import delete_last_arrow, delete_letters, eliminate_redundant, reduction_dict, step_dict, word_path
from strategies import kupisch_series, raw_relation_lists, wrapping_kupisch_series

sys.path.insert(0, str(Path(__file__).parents[1] / "perfbench"))
import workloads  # noqa: E402  (the benchmark's request and digest code)


def _pairs(words):
    """Relation words as the (start, length) pairs a step keeps."""
    return tuple((r.start, r.length) for r in words)


def test_relabel_map_sends_leaf_to_n():
    phi = relabel_map(5, 2)
    assert phi[2 - 1] == 5
    assert phi == (4, 5, 1, 2, 3)


def test_delete_last_arrow_cases():
    # word x5 x1 x2 starting at the dropped vertex: prepend x4
    assert delete_last_arrow(Relation(5, 3), 5) == Relation(4, 3)
    # word x4 x5 x1 loses its middle letter
    assert delete_last_arrow(Relation(4, 3), 5) == Relation(4, 2)
    # word x1 x2 x3 is untouched
    assert delete_last_arrow(Relation(1, 3), 5) == Relation(1, 3)
    # a double-wrapping word starting at n loses both copies of x_n
    assert delete_last_arrow(Relation(3, 4), 3) == Relation(2, 3)


def test_delete_last_arrow_matches_the_letter_rule():
    """The count of x_n by floor division agrees with walking the word, at
    every start and every length up to three turns round the cycle."""
    for n in range(2, 11):
        for start in range(1, n + 1):
            for length in range(1, 3 * n + 1):
                rel = Relation(start, length)
                assert delete_last_arrow(rel, n) == delete_letters(rel, n), (n, rel)


def test_unamalgamate_lambda2(lambda2):
    step = unamalgamate(lambda2, 5)
    assert step.relabel == (1, 2, 3, 4, 5)
    assert step.raw_relations == ((1, 3), (2, 3), (4, 2), (4, 3))
    assert step.output.n == 4
    assert step.output.relations == (Relation(1, 3), Relation(2, 3), Relation(4, 2))
    assert step.eliminated == (((4, 3), (4, 2)),)


def test_unamalgamate_lambda1_properties(lambda1):
    for leaf in (1, 2):
        assert check_properties(lambda1, leaf).all_ok


def test_raw_complex_matches_reads_the_given_complex(lambda1, lambda2):
    for leaf in (1, 2):
        step = unamalgamate(lambda1, leaf)
        assert raw_complex_matches(*step, build_complex(lambda1), [0, 1, 2])
        assert not raw_complex_matches(*step, build_complex(lambda2), [0, 1, 2])


def test_unamalgamate_not_a_leaf(lambda3):
    # no arrow targets 0 or n + 1 either, but they are not vertices at all
    for vertex in range(0, 6):
        with pytest.raises(NotALeafError):
            unamalgamate(lambda3, vertex)


def test_unamalgamate_too_small():
    a = algebra_from_kupisch((2, 3))
    assert leaves(build(a)) == {2}
    with pytest.raises(TooSmallError):
        unamalgamate(a, 2)
    with pytest.raises(NotALeafError):
        unamalgamate(a, 1)


def test_eliminate_redundant_examples():
    kept, eliminated = eliminate_redundant(
        [(1, 3), (2, 3), (4, 2), (4, 3)], 4
    )
    assert kept == (Relation(1, 3), Relation(2, 3), Relation(4, 2))
    assert eliminated == ((Relation(4, 3), Relation(4, 2)),)

    kept, eliminated = eliminate_redundant([(1, 3), (2, 3)], 4)
    assert kept == (Relation(1, 3), Relation(2, 3)) and eliminated == ()

    kept, _ = eliminate_redundant([(1, 2), (1, 3)], 4)
    assert kept == (Relation(1, 2),)

    # (1,5) contains both kept words; the shorter one is the witness
    kept, eliminated = eliminate_redundant([(1, 5), (1, 3), (3, 2)], 6)
    assert kept == (Relation(1, 3), Relation(3, 2))
    assert eliminated == ((Relation(1, 5), Relation(3, 2)),)


def test_eliminate_redundant_contract():
    """Starts in 1..n and lengths >= 1; a start of 0 is not vertex n."""
    assert eliminate_redundant([], 4) == ((), ())
    for rels in ([(0, 2)], [(5, 2)], [(1, 2), (2, 0)]):
        with pytest.raises(ValueError):
            eliminate_redundant(rels, 4)


def test_eliminate_redundant_duplicates():
    kept, eliminated = eliminate_redundant([(1, 2), (1, 2)], 4)
    assert kept == (Relation(1, 2),)
    assert eliminated == ((Relation(1, 2), Relation(1, 2)),)


def _delete_orders(rels, n):
    """All irredundant sets reachable by deleting one containing relation at
    a time, in every order."""
    results = set()

    def walk(current):
        droppable = [
            i
            for i, r in enumerate(current)
            if any(r.contains(o, n) for j, o in enumerate(current) if j != i)
        ]
        if not droppable:
            results.add(tuple(sorted(set(current))))
            return
        for i in droppable:
            walk(current[:i] + current[i + 1:])

    walk(tuple(rels))
    return results


@given(raw_relation_lists())
def test_eliminate_redundant_is_confluent(data):
    n, pairs = data
    rels = [Relation(*p) for p in pairs]
    kept, eliminated = eliminate_redundant(rels, n)
    assert _delete_orders(rels, n) == {tuple(sorted(set(kept)))}
    # every input word is the first copy of a kept word or, in input order,
    # eliminated with the kept word it contains that is least by (length, start)
    expected, first = [], set()
    for r in rels:
        if r in kept and r not in first:
            first.add(r)
        else:
            witness = min((k for k in kept if r.contains(k, n)), key=lambda k: (k.length, k.start))
            expected.append((r, witness))
    assert eliminated == tuple(expected)


def test_check_properties_lambda2(lambda2):
    rep = check_properties(lambda2, 5)
    assert rep.quiver_match and rep.weight_match and rep.betti_match and rep.gldim_sandwich
    assert not global_dimension(lambda2).is_finite
    assert not global_dimension(rep.step.output).is_finite
    data = rep.to_dict()
    assert data["checks"] == {"quiver": True, "weight": True, "betti": True, "gldim": True}


def test_reduce_fully_lambda1(lambda1):
    result = reduce_fully(lambda1)
    assert len(result.steps) == 3  # the three off-cycle vertices of R
    assert result.terminal is not None and set(result.terminal.kupisch) == {1}
    assert result.semisimple
    assert result.terminal_kupisch == (1, 1)


def test_reduce_fully_lambda3(lambda3):
    result = reduce_fully(lambda3)
    assert result.steps == ()
    assert result.terminal == lambda3


def test_reduce_fully_lambda2(lambda2):
    result = reduce_fully(lambda2)
    terminal = result.terminal
    assert terminal is not None
    rq = build(terminal)
    assert not leaves(rq)
    assert set(rq.weights) == {2}
    assert not result.semisimple
    assert len(terminal.relations) == terminal.n


def test_reduce_fully_two_vertex_collapse():
    # finite global dimension: the final collapse ends at the one-point
    # semisimple algebra
    result = reduce_fully(algebra_from_kupisch((2, 3)))
    assert result.terminal is None
    assert result.terminal_kupisch == (1,)
    assert result.semisimple
    # infinite global dimension: the collapse remembers the nilpotency
    result = reduce_fully(algebra_from_kupisch((4, 3)))
    assert result.terminal is None
    assert result.terminal_kupisch == (2,)
    assert not result.semisimple


def test_reduction_goes_on_from_the_step_at_the_least_leaf():
    """For a finite-gldim algebra with n > 2 and a leaf, full reduction is
    the step at the least leaf followed by the full reduction of its output,
    and whether it ends semisimple is the same on every rotation of that
    output.  A sweep's Bprime check rests on this: it reads the answer off
    the table entry of the output's rotation class.  Checked on every such
    algebra at n <= 6, c <= 7."""
    checked = 0
    for algebra in enumerate_kupisch(SweepConfig(n_min=3, n_max=6, c_max=7)):
        lvs = leaves(build(algebra))
        if not lvs or not global_dimension(algebra).is_finite:
            continue
        step = unamalgamate(algebra, min(lvs))
        whole, rest = reduce_fully(algebra), reduce_fully(step.output)
        assert whole.steps == (step,) + rest.steps, algebra.kupisch
        assert whole.terminal_kupisch == rest.terminal_kupisch, algebra.kupisch
        canonical = algebra_from_kupisch(least_rotation(step.output.kupisch))
        assert whole.semisimple == reduce_fully(canonical).semisimple, algebra.kupisch
        checked += 1
    assert checked == 1646


ALL_TO_7 = SweepConfig(n_min=2, n_max=7, c_max=8)


def test_semisimple_builds_no_word(monkeypatch):
    """`reduce_fully(a).semisimple`, all that Bprime reads, walks the
    Kupisch series alone: no raw word is read and no `Relation` is built,
    on every algebra at n <= 7, c <= 8."""
    def unbuilt(*args, **kwargs):
        raise AssertionError("reduce_fully built a word")

    series = [a.kupisch for a in enumerate_kupisch(ALL_TO_7)]
    monkeypatch.setattr(nakayama.unamalgamation, "_raw_words", unbuilt)
    monkeypatch.setattr(nakayama.unamalgamation, "Relation", unbuilt, raising=False)
    monkeypatch.setattr(nakayama.algebra, "Relation", unbuilt)
    semisimple = sum(reduce_fully(NakayamaAlgebra(c)).semisimple for c in series)
    assert (len(series), semisimple) == (12600, 6735)


def test_reduction_json_is_the_word_paths():
    """The JSON of `reduce_fully`, raw words and eliminated words included,
    is the word path's reduction, on every algebra at n <= 7, c <= 8.  Its
    first step is the step `unamalgamate` returns at the least leaf, each
    step's output series is the next step's input series, and `last` is
    the last step's output, or the initial algebra when there is no step."""
    for algebra in enumerate_kupisch(ALL_TO_7):
        result = reduce_fully(algebra)
        got = result.to_dict()
        assert got == reduction_dict(algebra), algebra.kupisch
        steps = result.steps
        assert [step.to_dict() for step in steps] == got["steps"]
        if steps:
            assert steps[0] == unamalgamate(algebra, min(leaves(build(algebra)))), algebra.kupisch
            assert all(step.output_kupisch == after.kupisch for step, after in zip(steps, steps[1:]))
            assert result.last.kupisch == steps[-1].output_kupisch, algebra.kupisch
        else:
            assert result.last is algebra


@settings(max_examples=200, deadline=None)
@given(wrapping_kupisch_series(max_n=12))
def test_step_json_at_every_leaf_is_the_word_paths_up_to_n12(c):
    """The JSON of `check_properties` at every leaf, without its flags, is
    the word path's step JSON, on series with n <= 12 whose words wrap
    round the cycle up to three times, where a word passes x_n several
    times and the leaf's own word may be eliminated.  At n <= 7, c <= 8
    every leaf is checked, flags and all, by
    `test_leaf_check.test_check_properties_matches_the_oracle`."""
    algebra = algebra_from_kupisch(c)
    for leaf in sorted(set(range(1, algebra.n + 1)).difference(targets(c))):
        got = check_properties(algebra, leaf).to_dict()
        del got["checks"]
        assert got == step_dict(algebra, leaf)[0], (c, leaf)


@settings(max_examples=300, deadline=None)
@given(kupisch_series(max_n=8, max_c=9), st.integers(0, 7))
def test_verify_under_rotation_relabels_only_the_targets_and_leaves(c, k):
    """`verify` on a rotation of an algebra gives the verdict of the
    algebra but for the labels: every field that reads no label, the
    sorted weights, the checks and `semisimple` are equal, and the targets
    and leaves are the algebra's relabelled.  A sweep keeps one verdict per
    rotation class, which every row of the class reads, on this."""
    k %= len(c)
    n = len(c)
    algebra, rotated = algebra_from_kupisch(c), algebra_from_kupisch(c[k:] + c[:k])
    got, want = verify(algebra), verify(rotated)
    for name in ("f_vector", "betti", "gldim", "hc_dims", "basis_sizes", "checks", "semisimple"):
        assert getattr(got, name) == getattr(want, name), name
    assert sorted(got.weights) == sorted(want.weights)
    assert algebra.algebra_class is rotated.algebra_class

    # vertex i of the rotation is vertex i + k of the algebra
    def label(v):
        return (v - 1 - k) % n + 1

    assert want.targets == tuple(label(got.targets[(i + k) % n]) for i in range(n))
    assert want.leaves == tuple(sorted(map(label, got.leaves)))
    assert want.algebra.relations == tuple(
        sorted(Relation(label(r.start), r.length) for r in algebra.relations)
    )


def test_row_weights_read_several_weights_off_the_rows_quiver():
    """A sweep's CSV row reads its weights through its class verdict's
    `_row_weights`.  Only a counterexample to SameWeight has components of
    different weights, so this record is planted: its weights (1, 2)
    belong to no algebra of its series.  For its own series they are kept;
    for the rotation (2, 2, 4, 3, 3) they are read off that series'
    quiver, which has one component of weight 1, and the planted ones are
    not carried along.  Weights that are all equal are kept for every
    rotation, as their order is the same."""
    record = AlgebraVerdict(
        algebra_from_kupisch((3, 2, 2, 4, 3)), weights=(1, 2), f_vector=(), betti=(), gldim=ProjDim(None),
        hc_dims=(), basis_sizes=(),
    )
    rotated = (2, 2, 4, 3, 3)
    assert build(algebra_from_kupisch(rotated)).weights == (1,)
    assert record._row_weights(rotated) == (1,)
    assert record._row_weights((3, 2, 2, 4, 3)) == (1, 2)
    record.weights = (2, 2)
    assert record._row_weights(rotated) == (2, 2)


def test_properties_hold_at_every_leaf_small_sweep():
    for algebra in enumerate_kupisch(SweepConfig(n_min=3, n_max=5, c_max=4)):
        for leaf in sorted(leaves(build(algebra))):
            rep = check_properties(algebra, leaf)
            assert rep.all_ok, (algebra.kupisch, leaf)
            step = rep.step
            vertices = [i for i, r in enumerate(algebra.relations) if r.length <= algebra.n]
            assert raw_complex_matches(*step, build_complex(algebra), vertices), (
                algebra.kupisch, leaf
            )
            # one raw word per input relation, and the output is a sub-list
            assert len(step.raw_relations) == len(algebra.relations)
            assert set(_pairs(step.output.relations)) <= set(step.raw_relations)


def test_output_kupisch_counts_the_surviving_composition_factors():
    """The output of a step is the endomorphism algebra of the projectives
    other than P_leaf, so for i != leaf its projective at phi(i) has one
    composition factor per factor S_{i+t} (t < c_i) of P_i off the leaf.
    Its raw words are those of the word path.  Checked at every leaf of
    every algebra at n <= 6, c <= 7."""
    steps = 0
    for algebra in enumerate_kupisch(SweepConfig(n_min=3, n_max=6, c_max=7)):
        n, c = algebra.n, algebra.kupisch
        targets = {(i + c[i - 1] - 1) % n + 1 for i in range(1, n + 1)}
        for leaf in sorted(set(range(1, n + 1)) - targets):
            step = unamalgamate(algebra, leaf)
            for i in range(1, n + 1):
                if i != leaf:
                    expected = sum(1 for t in range(c[i - 1]) if (i + t - leaf) % n)
                    assert step.output.kupisch[step.relabel[i - 1] - 1] == expected, (c, leaf, i)
            assert step.raw_relations == _pairs(word_path(algebra, leaf)[0]), (c, leaf)
            steps += 1
    assert steps == 7128


@settings(max_examples=200, deadline=None)
@given(wrapping_kupisch_series())
def test_output_series_matches_the_word_path(c):
    """The output's series and the raw words, both read off the input's
    series, are those of the word path, on series whose words wrap round
    the cycle several times."""
    algebra = algebra_from_kupisch(c)
    n = algebra.n
    for leaf in sorted(set(range(1, n + 1)).difference(targets(c))):
        step = unamalgamate(algebra, leaf)
        words, series = word_path(algebra, leaf)
        assert step.output.kupisch == series, (c, leaf)
        assert step.raw_relations == _pairs(words), (c, leaf)
        raw = [Relation(*r) for r in step.raw_relations]
        assert step.output.kupisch == kupisch_from_relations(n - 1, raw), (c, leaf)


def test_euler_and_weight_one_count_invariant_under_steps():
    for algebra in enumerate_kupisch(SweepConfig(n_min=3, n_max=4, c_max=4)):
        chi = euler_characteristic(build_complex(algebra))
        w1 = sum(1 for w in build(algebra).weights if w == 1)
        for leaf in sorted(leaves(build(algebra))):
            out = unamalgamate(algebra, leaf).output
            assert euler_characteristic(build_complex(out)) == chi
            assert sum(1 for w in build(out).weights if w == 1) == w1


def test_terminal_weight_independent_of_leaf_policy():
    def reduce_with(algebra, pick):
        current = algebra
        while True:
            lvs = leaves(build(current))
            if not lvs or current.n == 2:
                return current
            current = unamalgamate(current, pick(lvs)).output

    for algebra in enumerate_kupisch(SweepConfig(n_min=3, n_max=5, c_max=4)):
        t_min = reduce_with(algebra, min)
        t_max = reduce_with(algebra, max)
        assert build(t_min).weights[0] == build(t_max).weights[0]
        assert t_min.n == t_max.n


def test_query_bundles_match_recorded_reference():
    """The JSON of `check_properties` at every leaf, `reduce_fully` and the
    relation complex report, for every linear and product-of-linear algebra
    with n <= 6, c <= 3, matches the digest in the benchmark's leafy-queries
    reference."""
    nk = SimpleNamespace(
        algebra=nakayama.algebra,
        relation_complex=nakayama.relation_complex,
        resolution=nakayama.resolution,
        unamalgamation=nakayama.unamalgamation,
    )
    expected = {c: h for c, h in workloads.load_leafy_reference().items() if len(c) <= 6}
    assert len(expected) == 390
    for c, digest in expected.items():
        assert workloads.digest(workloads.query_bundle(nk, c)) == digest, c
