import ast
import gc
import itertools
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wordsums import (
    Alphabet,
    FiniteWord,
    GuardError,
    LatticeMap,
    Morphism,
    WordStream,
    apply_morphism,
    constant_complexity_word,
    count_symbol,
    factor,
    from_finite,
    morphic_fixed_point,
    parikh,
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


def test_alphabet_and_finite_word_equality_items_hash_and_repr():
    a = Alphabet([1, 0])
    assert a == Alphabet((0, 1, 1)) and a != Alphabet([0]) and a != (0, 1)
    assert hash(a) == hash(Alphabet([0, 1])) and repr(a) == "Alphabet([0, 1])"
    B = FiniteWord(range(30))
    assert B[3] == 3 and B[-1] == 29 and B[2:5] == FiniteWord([2, 3, 4])
    assert hash(B[:3]) == hash(FiniteWord([0, 1, 2]))
    assert repr(B) == "FiniteWord([" + ",".join(map(str, range(24))) + ",...] len=30)"
    assert repr(B[:2]) == "FiniteWord([0,1])"


def test_negative_prefix_length_is_refused():
    with pytest.raises(ValueError, match="negative prefix length -1"):
        periodic([0, 1]).prefix_sums(-1)


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


def test_a_finite_word_holds_only_its_symbols():
    # the cache is sized for a request before the word is known to end short of it
    w = from_finite(list(range(500)))
    with pytest.raises(ValueError, match="ends at length 500"):
        w.prefix(10**6)
    assert w._ps.size == 501 and int(w.prefix_sums(500)[-1]) == 499 * 500 // 2


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


def _held_after_fill(w, L=10**6):
    gc.collect()
    tracemalloc.start()
    try:
        w.prefix_sums(L)
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_cold_fill_holds_one_array():
    # 8 bytes a symbol: the prefix sums are the only cache
    assert _held_after_fill(periodic([0, 1, 1])) < 10_000_000
    # a fixed point also holds its lag, about half the word for Thue-Morse and CCSS, as
    # one byte a letter; a chunk's temporaries die with it.  The bounds are the held
    # memory of the letter-at-a-time pipeline (12.0, 11.2 and 7.7 MiB) plus 0.5 MiB
    tm = morphic_fixed_point(Morphism({0: (0, 1), 1: (1, 0)}), 0)
    ccss = morphic_fixed_point(Morphism({0: (0, 3), 1: (4, 3), 3: (1,), 4: (0, 1)}), 0)
    for w, mib in ((tm, 12.5), (ccss, 11.7), (constant_complexity_word(2), 8.2)):
        assert _held_after_fill(w) <= mib * 2**20, w.label


def test_cold_fill_pulls_bounded_chunks():
    # the cache is sized once for the request, and the factory's symbols go through
    # lists of at most 2^16: a one-list fill peaked near 24 MB
    w = periodic([0, 1, 1, 2, 3])
    tracemalloc.start()
    try:
        w.prefix_sums(10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12_000_000
    assert w.prefix_sums(10**6)[-1] == 7 * 10**6 // 5


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


def test_a_fresh_reader_keeps_what_its_skip_reads_past_the_held_symbols():
    # a chunk reader may return more than it is asked for, two more here: the skip of a
    # fresh reader over the 5 held symbols reads 7, and the last 2 go to the cache
    def counting():
        symbols = itertools.count()
        return lambda want: np.fromiter(itertools.islice(symbols, want + 2), np.int64)

    w = WordStream._chunked(counting, None, "<naturals>")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_CHUNK", 3)
        assert w.prefix(3).tolist() == [0, 1, 2] and w._n == 5
        w._read = None  # as a failed fill leaves it
        assert w.prefix(9).tolist() == list(range(9)) and w._n == 12


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


EDGES = [-(2**63) - 1, -(2**63), 2**63 - 1, 2**63, 2**70]
letters = st.one_of(st.integers(-20, 20), st.sampled_from(EDGES))


@settings(max_examples=200, deadline=None)
@given(st.lists(letters, min_size=1, max_size=12), st.data())
def test_ranks_match_a_dict_lookup(xs, data):
    # alphabets with gaps, negative letters and letters past int64; queries of other types
    # that a dict finds by value (np.int64, True, 1.0) or not (1.5, "1", None)
    a, table = Alphabet(xs), {s: i for i, s in enumerate(sorted(set(xs)))}
    in_int64 = [x for x in xs if -(2**63) <= x < 2**63]
    others = [True, False, 1.0, 1.5, -0.0, 2.0**70, "1", None]
    query = st.one_of(
        st.sampled_from(xs), letters, st.sampled_from(others), st.sampled_from(xs).map(float),
        st.sampled_from(in_int64 or [0]).map(np.int64))
    queries = data.draw(st.lists(query, max_size=8))
    for q in queries:  # every miss raises KeyError carrying that letter
        assert (q in a) == (q in table)
        if q in table:
            assert a.ranks([q]).tolist() == [table[q]]
        else:
            with pytest.raises(KeyError) as miss:
                a.ranks([q])
            assert miss.value.args[0] is q
    try:
        want = [table[q] for q in queries]
    except KeyError as e:
        with pytest.raises(KeyError) as miss:
            a.ranks(queries)
        assert miss.value.args[0] is e.args[0]  # the first miss, as it was given
    else:
        got = a.ranks(queries)
        assert got.dtype == np.intp and got.tolist() == want


def test_an_alphabet_tells_whether_its_letters_fit_int64():
    assert Alphabet([-(2**63), 2**63 - 1]).fits_int64
    assert not Alphabet([0, 2**63]).fits_int64
    assert not Alphabet([-(2**63) - 1, 0]).fits_int64


def _raw_letters(bad):
    """A word whose factory yields 0 and then bad, unchecked."""
    return WordStream(lambda: iter([0, bad]), label="<raw>")


@pytest.mark.parametrize("bad", ["1", None, 1.5, 2**70])
@pytest.mark.parametrize("call, message", [
    (lambda bad: apply_morphism(Morphism({0: (0, 1), 1: (1,)}), _raw_letters(bad)).prefix(3),
     "letter {} has no image"),
    (lambda bad: LatticeMap({0: (1,), 1: (2,)}).of_word([0, bad]),
     "symbol {} outside the map's alphabet"),
    (lambda bad: parikh([0, bad], Alphabet([0, 1])), "symbol {} outside alphabet (0, 1)"),
    (lambda bad: Alphabet([0, 1]).index(bad), "symbol {} not in alphabet (0, 1)"),
], ids=["apply_morphism", "of_word", "parikh", "index"])
def test_refusals_of_letters_keep_their_messages(bad, call, message):
    # a letter that is no number must be a miss, not a TypeError from ordering it
    with pytest.raises(ValueError) as refused:
        call(bad)
    assert str(refused.value) == message.format(bad)


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


@pytest.mark.parametrize("tier, xs, tail", [
    ("mask", [4, -2, 4, -2, 3], []),  # signed letters in a box of 7 values
    ("scan-mask", [5, -3, 5, 0], [1000]),  # the cache holds a letter past L: a wide box
    ("table", list(range(-50, 150)) * 3, []),
    ("sort", [-(2**40), 3, 2**40, 3], []),
])
def test_observed_alphabet_takes_each_reduction_tier(tier, xs, tail, reduction_tiers):
    w = from_finite(xs + tail)
    w.prefix(len(xs) + len(tail))
    assert w.observed_alphabet(len(xs)).symbols == tuple(sorted(set(xs)))
    assert reduction_tiers == [tier]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(-70, 70) | st.sampled_from([-(2**40), 2**40]), min_size=1,
                max_size=200),
       st.lists(st.integers(-(2**40), 2**40), max_size=3))
def test_observed_alphabet_is_the_set_of_the_prefix(xs, tail):
    w = from_finite(xs + tail)
    w.prefix(len(xs) + len(tail))  # the cache's range covers the tail
    assert w.observed_alphabet(len(xs)).symbols == tuple(sorted(set(xs)))


def test_observed_alphabet_of_no_symbols_is_refused():
    w = periodic([1, 2])
    with pytest.raises(ValueError, match="alphabet must be nonempty"):
        w.observed_alphabet(0)
    w.prefix(5)
    with pytest.raises(ValueError, match="alphabet must be nonempty"):
        w.observed_alphabet(0)


def test_distinct_rows_hold_no_sorted_copy_of_the_table():
    # rows were once gathered into a lexsorted copy of the whole table before they were
    # compared; a column at a time, the extra peak is an order and one gathered column
    rng = np.random.default_rng(5)
    table = rng.integers(0, 2, size=(200_000, 8), dtype=np.int64)
    tracemalloc.start()
    try:
        keep = core._distinct_rows(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = table[keep]
    assert peak < 0.75 * table.nbytes
    assert np.array_equal(rows, np.unique(table, axis=0))


def test_np_unique_is_called_only_for_the_mode_of_chi_factorization():
    # core._reduce finds distinct keys and rows; the chi coloring's mode is the one np.unique
    def unique_calls(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                yield from unique_calls(child, f"{where}.{child.name}")
                continue
            f = getattr(child, "func", None)
            if isinstance(f, ast.Attribute) and f.attr == "unique":
                if isinstance(f.value, ast.Name) and f.value.id == "np":
                    yield where
            yield from unique_calls(child, where)

    src = sorted((Path(__file__).resolve().parents[1] / "src" / "wordsums").glob("*.py"))
    callers = [c for p in src for c in unique_calls(ast.parse(p.read_text()), p.stem)]
    assert callers == ["slopes.chi_factorization"]
