"""Hypothesis strategies shared by the property tests."""

from hypothesis import assume
from hypothesis import strategies as st


@st.composite
def kupisch_series(draw, min_n=2, max_n=6, min_c=1, max_c=6):
    """A valid Kupisch series: entries in [min_c, max_c] with the cyclic
    constraint c_{i+1} >= c_i - 1."""
    n = draw(st.integers(min_n, max_n))
    c = [draw(st.integers(min_c, max_c))]
    for _ in range(n - 1):
        c.append(draw(st.integers(max(min_c, c[-1] - 1), max_c)))
    assume(c[0] >= c[-1] - 1)
    return tuple(c)


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
