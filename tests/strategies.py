"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st


@st.composite
def kupisch_series(draw, min_n=2, max_n=6, min_c=1, max_c=6):
    """A valid Kupisch series: entries in [min_c, max_c] with the cyclic
    constraint c_{i+1} >= c_i - 1.  Each c_j, j >= 2, is drawn at most
    c_1 + 1 + n - j, the bound `harness._necklaces` lists under: every
    prefix then extends to a series by stepping down, so every draw wraps
    (c_1 >= c_n - 1), and every series can still be drawn."""
    n = draw(st.integers(min_n, max_n))
    c = [draw(st.integers(min_c, max_c))]
    for j in range(2, n + 1):
        c.append(draw(st.integers(max(min_c, c[-1] - 1), min(max_c, c[0] + 1 + n - j))))
    return tuple(c)


@st.composite
def wrapping_kupisch_series(draw, min_n=3, max_n=40):
    """A valid Kupisch series with entries up to 3n, so that its relation
    words wrap round the cycle up to three times.  Its largest entry is
    drawn first and bounds the rest, which keeps the cyclic constraint
    without an `assume`; then the series is rotated."""
    n = draw(st.integers(min_n, max_n))
    c = [draw(st.integers(1, 3 * n))]
    for _ in range(n - 1):
        c.append(draw(st.integers(max(1, c[-1] - 1), c[0])))
    k = draw(st.integers(0, n - 1))
    return tuple(c[k:] + c[:k])


def cyclic_kupisch_series(min_n=2, max_n=6, max_c=6):
    return kupisch_series(min_n=min_n, max_n=max_n, min_c=2, max_c=max_c)


@st.composite
def raw_relation_lists(draw, max_n=6):
    """Small relation lists that may contain duplicates and subwords, the
    kind of input redundancy elimination has to cope with."""
    n = draw(st.integers(2, max_n))
    count = draw(st.integers(1, 5))
    rels = [
        (draw(st.integers(1, n)), draw(st.integers(1, n + 2)))
        for _ in range(count)
    ]
    return n, rels


@st.composite
def relation_lists(draw, max_n=8, words_only=False):
    """Relation lists on the n-cycle with repeated starts, repeated words,
    subwords and lengths up to 2n + 2.  Unless `words_only`, they may also
    be empty, n may be 1, and a start or a length may fall outside 1..n or
    below 1."""
    lo = 1 if words_only else 0
    n = draw(st.integers(2 if words_only else 1, max_n))
    count = draw(st.integers(lo, 6))
    rels = [
        (draw(st.integers(lo, n + 1 - lo)), draw(st.integers(lo, 2 * n + 2)))
        for _ in range(count)
    ]
    return n, rels


@st.composite
def cone_kupisch_series(draw, min_n=3, max_n=12, max_c=4):
    """A valid Kupisch series with at least one entry 1, a relation of
    length 1 and so a cone point of the relation complex.  It is drawn
    backwards from c_n = 1, each entry at most one more than the next, so
    the cyclic constraint holds, then rotated."""
    n = draw(st.integers(min_n, max_n))
    c = [1]
    for _ in range(n - 1):
        c.append(draw(st.integers(1, min(max_c, c[-1] + 1))))
    c.reverse()
    k = draw(st.integers(0, n - 1))
    return tuple(c[k:] + c[:k])
