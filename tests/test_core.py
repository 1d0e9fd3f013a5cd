import itertools
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wordsums import (
    Alphabet,
    FiniteWord,
    GuardError,
    Morphism,
    WordStream,
    apply_morphism,
    count_symbol,
    factor,
    from_finite,
    periodic,
    word_slope,
    word_sum,
)
from wordsums import core

words = st.lists(st.integers(-5, 5), min_size=1, max_size=60)


def test_alphabet_sorted_and_indexed():
    a = Alphabet([3, -1, 0, 3])
    assert a.symbols == (-1, 0, 3)
    assert a.index(0) == 1
    assert -1 in a and 2 not in a
    with pytest.raises(ValueError):
        a.index(7)
    with pytest.raises(ValueError):
        Alphabet([])


@given(words)
def test_prefix_sums_identity(xs):
    B = FiniteWord(xs)
    P = B.prefix_sums
    assert P[0] == 0
    assert all(P[i] - P[i - 1] == xs[i - 1] for i in range(1, len(xs) + 1))
    assert word_sum(B) == sum(xs)


@given(words)
def test_slope_and_counts(xs):
    B = FiniteWord(xs)
    assert word_slope(B) * len(B) == word_sum(B)
    ab = Alphabet(xs)
    assert sum(count_symbol(B, s) for s in ab) == len(B)


def test_count_symbol_refuses_symbols_that_are_not_integers():
    # int() used to truncate 1.9 to 1, which occurs twice
    with pytest.raises(ValueError, match="not an integer"):
        count_symbol(FiniteWord([1, 2, 1]), 1.9)
    assert count_symbol(FiniteWord([1, 2, 1]), np.int64(1)) == 2


def test_empty_slope_rejected():
    with pytest.raises(ValueError):
        word_slope(FiniteWord([]))


@given(words, st.data())
def test_factor_split_additivity(xs, data):
    w = from_finite(xs)
    n = data.draw(st.integers(1, len(xs)))
    m = data.draw(st.integers(1, n))
    B = factor(w, m, n)
    P = w.prefix_sums(len(xs))
    assert word_sum(B) == int(P[n]) - int(P[m - 1])
    if m < n:
        j = data.draw(st.integers(m, n - 1))
        assert factor(w, m, j) + factor(w, j + 1, n) == B


def test_factor_bounds_rejected():
    w = periodic([0, 1])
    with pytest.raises(ValueError):
        w.factor(0, 3)
    with pytest.raises(ValueError):
        w.factor(5, 4)
    with pytest.raises(ValueError):
        w.symbol(0)


def test_prefix_values_are_stable():
    w = periodic([0, 1, 2])
    first = w.prefix(7).copy()
    w.prefix(5000)
    assert np.array_equal(w.prefix(7), first)
    assert w.prefix(7).flags.writeable is False


def test_prefix_sums_match_symbols():
    w = periodic([2, -1, 3])
    P = w.prefix_sums(9)
    assert P.tolist() == [0, 2, 1, 4, 6, 5, 8, 10, 9, 12]


def test_finite_stream_ends():
    w = from_finite([1, 2, 3])
    assert w.factor(1, 3).symbols == (1, 2, 3)
    assert w.symbol(3) == 3
    with pytest.raises(ValueError):
        w.prefix(4)
    with pytest.raises(ValueError):
        w.symbol(4)


def _check_reads(w, xs, L, m):
    """prefix, symbol and factor of w(1..L) against xs and the differences of P."""
    P = w.prefix_sums(L)
    got = w.prefix(L)
    assert got.tolist() == xs[:L] == np.diff(P).tolist()
    assert got.dtype == np.int64 and got.flags.writeable is False
    assert [w.symbol(i) for i in range(1, L + 1)] == xs[:L]
    if L:
        assert w.factor(m, L).symbols == tuple(xs[m - 1 : L])
    # the cache keeps the range of every symbol it holds
    assert w._n == 0 or (w._lo, w._hi) == (min(xs[: w._n]), max(xs[: w._n]))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=1, max_size=60), st.data())
def test_chunked_cache_reads_its_differences(xs, data):
    # a 2**60 letter past three zeros: reading it is refused, reads before it are not
    ys = xs + [0, 0, 0, 2**60]
    reads = st.lists(st.integers(0, len(xs)), min_size=1, max_size=5)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_CHUNK", 3)
        w = from_finite(ys)
        for L in data.draw(reads):
            _check_reads(w, ys, L, data.draw(st.integers(1, max(L, 1))))
        with pytest.raises(GuardError):
            w.prefix(len(ys))
        for L in data.draw(reads):
            _check_reads(w, ys, L, data.draw(st.integers(1, max(L, 1))))


def test_cold_fill_holds_one_array():
    # 8 bytes a symbol: the prefix sums are the only cache
    w = periodic([0, 1, 1])
    tracemalloc.start()
    try:
        w.prefix_sums(10**6)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 10_000_000


def test_overflow_guard_trips():
    w = WordStream(lambda: itertools.repeat(2**40), label="huge")
    with pytest.raises(GuardError):
        w.prefix(5_000_000)


def test_refused_extension_loses_no_symbols():
    # the guard refuses 10^5 symbols of this ramp, but 8192 of them fit
    s = 2**62 // 20_000
    w = WordStream(lambda: itertools.count(s), label="ramp")
    with pytest.raises(GuardError):
        w.prefix(100_000)
    assert w.prefix(3).tolist() == [s, s + 1, s + 2]
    assert w.prefix_sums(3).tolist() == [0, s, 2 * s + 1, 3 * s + 3]


def test_failing_source_fails_again_at_the_same_place():
    # the letter 7 has no image; it sits past the first chunk
    src = [0, 1] * 10_000 + [7]
    w = apply_morphism(Morphism({0: (0,), 1: (1,)}), from_finite(src))
    assert w.prefix(10).tolist() == src[:10]
    for _ in range(2):
        with pytest.raises(ValueError, match="letter 7 has no image"):
            w.prefix(30_000)
    assert w.prefix(20_000).tolist() == src[:20_000]


@pytest.mark.parametrize("bad", [-(2**63), 2**63, -(2**63) - 1, 2**70])
def test_symbols_past_int64_are_refused(bad):
    # np.abs(-2**63) wraps to -2**63, and 2**63 does not fit int64 at all
    w = from_finite([bad, bad, 5])
    with pytest.raises(GuardError):
        w.prefix(3)
    # a derived word refuses a source symbol it keeps, not one it maps away
    src = from_finite([5, bad])
    with pytest.raises(GuardError):
        apply_morphism(Morphism({5: (5,), bad: (bad,)}), src).prefix(2)
    assert apply_morphism(Morphism({5: (5,), bad: (0,)}), src).prefix(2).tolist() == [5, 0]


@pytest.mark.parametrize("bad", [1.5, 2.0, "1", np.float64(3.0)])
def test_finite_word_refuses_symbols_that_are_not_integers(bad):
    # int() used to truncate them, so a 1.5 read as the letter 1
    with pytest.raises(ValueError, match="not an integer"):
        FiniteWord([1, bad])
    assert FiniteWord([np.int64(3), True]).symbols == (3, 1)


@pytest.mark.parametrize("bad", [1.5, 2.0, "1", np.float64(3.0)])
def test_alphabet_refuses_symbols_that_are_not_integers(bad):
    with pytest.raises(ValueError, match="not an integer"):
        Alphabet([1, bad])
    assert Alphabet([np.int64(3), 1]).symbols == (1, 3)


def test_from_finite_refuses_symbols_that_are_not_integers():
    with pytest.raises(ValueError, match="not an integer"):
        from_finite([1.5, 1.2, 3.9])


def test_stream_refuses_symbols_that_are_not_integers():
    # a bare stream over these read [1 1 3]
    w = WordStream(lambda: iter([1.5, 1.2, 3.9]))
    with pytest.raises(ValueError, match="a symbol of <word> is not an integer: 'float'"):
        w.prefix(1)
    with pytest.raises(ValueError, match="not an integer"):
        WordStream(lambda: iter([1, 2, "3"])).prefix(3)
    ok = WordStream(lambda: iter([np.int64(-2), 7, np.uint8(4)]))
    assert ok.prefix(3).tolist() == [-2, 7, 4]


def test_concurrent_extension_consistent():
    w = periodic(list(range(17)))
    results = []

    def worker(L):
        results.append(w.prefix_sums(L)[L])

    threads = [threading.Thread(target=worker, args=(30_000 + i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    expected = [int(periodic(list(range(17))).prefix_sums(30_000 + i)[30_000 + i]) for i in range(8)]
    assert sorted(results) == sorted(expected)


def test_observed_alphabet():
    w = periodic([4, -2, 4])
    assert w.observed_alphabet(6).symbols == (-2, 4)
