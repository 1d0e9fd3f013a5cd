import contextlib
import gc
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from wordsums import (
    Alphabet,
    GuardError,
    LatticeMap,
    Morphism,
    PowerWitness,
    WordStream,
    constant_complexity_word,
    enumeration_word,
    find_additive_kpower,
    find_anchored_power,
    find_kpower_mod_mu,
    from_finite,
    monochromatic_ap,
    morphic_fixed_point,
    periodic,
    verify_power,
)
from wordsums import powers
from wordsums.complexity import _key_prefix

DEKKING3 = {0: (0, 0, 1, 2), 1: (1, 1, 2), 2: (0, 2, 2)}
# base-3 numbers with only the digits 0 and 1 hold no 3-term arithmetic progression
AP_FREE = [int(f"{i:b}", 3) for i in range(1, 2000)]

# tiles of a few cells
_SMALL_TILES = st.sampled_from([1, 2, 3, 5, 8, 13])


@contextlib.contextmanager
def _tiles(cells):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(powers, "_TILE_CELLS", cells)
        yield


def _bruteforce_kpower(xs, k, value=sum):
    L = len(xs)
    for start in range(1, L - k + 2):
        for b in range(1, (L - start + 1) // k + 1):
            sums = [
                value(xs[start - 1 + i * b : start - 1 + (i + 1) * b]) for i in range(k)
            ]
            if all(s == sums[0] for s in sums):
                return (start, b)
    return None


def test_thue_morse_square(thue_morse):
    wit = find_additive_kpower(thue_morse, 2, 100)
    assert (wit.start, wit.block_length, wit.value) == (1, 2, 1)
    assert verify_power(thue_morse, wit)


def test_kpower_scan_order():
    # squares exist at (2, 1), (3, 2) and elsewhere; the scan must
    # return the lexicographically least (start, b)
    w = from_finite([5, 2, 2, 1, 2, 1])
    wit = find_additive_kpower(w, 2, 6)
    assert (wit.start, wit.block_length) == (2, 1)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(-2, 2), min_size=2, max_size=200), st.integers(2, 4))
def test_kpower_matches_bruteforce(xs, k):
    w = from_finite(xs)
    wit = find_additive_kpower(w, k, len(xs))
    brute = _bruteforce_kpower(xs, k)
    if brute is None:
        assert wit is None
    else:
        assert (wit.start, wit.block_length) == brute
        assert verify_power(w, wit)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 30),
    st.lists(st.integers(-2, 2), min_size=2, max_size=170),
    st.integers(2, 4),
    _SMALL_TILES,
)
def test_kpower_past_a_power_free_prefix(quiet, tail, k, tiles):
    # distinct powers of two >= 2**12 outweigh any tail block, so no power
    # starts inside the quiet prefix and the scan must look past it; the
    # second scan runs in tiles of a few cells
    xs = [2 ** (12 + i) for i in range(quiet)] + tail
    brute = _bruteforce_kpower(xs, k)
    for budget in (contextlib.nullcontext(), _tiles(tiles)):
        with budget:
            wit = find_additive_kpower(from_finite(xs), k, len(xs))
        assert (wit and (wit.start, wit.block_length)) == brute


def test_witness_just_past_the_first_starts():
    # start 0 holds no power, so the one planted at 0-based start `at` is read from the
    # narrow copy, whose first start is 1.  Powers of two have no additive square, and
    # letters 4, 5, ... of images (2^(12+i), i) no mu-square
    for at in (1, 2, 16):
        xs = [2**i for i in range(at)] + [7, 7] + [2**i for i in range(20, 26)]
        wit = find_additive_kpower(from_finite(xs), 2, len(xs))
        assert (wit.start, wit.block_length) == (at + 1, 1) == _bruteforce_kpower(xs, 2)
        images = {0: (5, -3)} | {4 + i: (2 ** (12 + i), i) for i in range(at + 6)}
        letters = [4 + i for i in range(at)] + [0, 0] + [4 + i for i in range(at, at + 6)]
        wit = find_kpower_mod_mu(from_finite(letters), LatticeMap(images), 2, len(letters))
        assert (wit.start, wit.block_length) == (at + 1, 1)
        _check_mod_mu_against_bruteforce(letters, images, 2)
        colors = list(range(40))
        colors[at + 3] = colors[at]
        assert monochromatic_ap(colors, 2) == (at + 1, 3) == _bruteforce_ap(colors, 2, 1)


def test_later_gap_with_earlier_start_wins():
    # squares at (22, 1), (30, 1), (21, 2) and (20, 3): the least start wins
    xs = [2**i for i in range(40)]
    xs[29] = xs[30] = 3
    xs[19:25] = [1, 2, 4, 4, 2, 1]
    wit = find_additive_kpower(from_finite(xs), 2, len(xs))
    assert (wit.start, wit.block_length) == (20, 3) == _bruteforce_kpower(xs, 2)
    colors = list(range(40))
    colors[30], colors[22] = colors[29], colors[19]
    assert monochromatic_ap(colors, 2) == (20, 3) == _bruteforce_ap(colors, 2, 1)


def test_kpower_scan_refuses_a_word_of_float_symbols():
    # the truncated word [1 1 3] gave start 1, b = 1, for blocks of sums 1.5 and 1.2
    with pytest.raises(ValueError, match="not an integer"):
        find_additive_kpower(from_finite([1.5, 1.2, 3.9]), 2, 3)
    w = WordStream(lambda: iter([1.5, 1.2, 3.9]))
    with pytest.raises(ValueError, match="not an integer"):
        find_additive_kpower(w, 2, 3)


@pytest.mark.parametrize("call, message", [
    (lambda: find_additive_kpower(periodic([0, 1]), 2, 0), "need a nonempty prefix, got L = 0"),
    (lambda: find_anchored_power(periodic([0, 1]), Fraction(1, 2), 0, 2, 10),
     "the length divisor k must be >= 1"),
], ids=["L-below-1", "anchored-divisor-0"])
def test_refusals_name_their_cause(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_kpower_arg_checks():
    w = periodic([0, 1])
    with pytest.raises(ValueError):
        find_additive_kpower(w, 1, 100)
    assert find_additive_kpower(w, 3, 2) is None  # cannot fit: clean negative
    with pytest.raises(GuardError):
        find_additive_kpower(w, 2, 2_000_000)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=3, max_size=200), st.integers(2, 3))
def test_mod_mu_with_sum_map_equals_additive(xs, k):
    w = from_finite(xs)
    mu = LatticeMap.sum_map(Alphabet(xs))
    a = find_additive_kpower(w, k, len(xs))
    b = find_kpower_mod_mu(w, mu, k, len(xs))
    if a is None:
        assert b is None
    else:
        assert (a.start, a.block_length) == (b.start, b.block_length)
        assert b.value == (a.value,)


def _check_mod_mu_against_bruteforce(xs, images, k):
    w, mu = from_finite(xs), LatticeMap(images)
    wit = find_kpower_mod_mu(w, mu, k, len(xs))
    image_sum = lambda B: tuple(sum(images[s][c] for s in B) for c in range(2))  # noqa: E731
    brute = _bruteforce_kpower(xs, k, value=image_sum)
    if brute is None:
        assert wit is None
    else:
        assert (wit.start, wit.block_length) == brute
        assert verify_power(w, wit, mu)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 24),
    st.lists(st.integers(0, 3), min_size=2, max_size=200),
    st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=4, max_size=4),
    st.integers(2, 4),
    _SMALL_TILES,
)
def test_mod_mu_matches_bruteforce(quiet, tail, imgs, k, tiles):
    # letters 4, 5, ... of images (2^(12+i), i) keep powers out of the quiet prefix;
    # the second scan runs in tiles of a few cells
    images = dict(enumerate(imgs)) | {4 + i: (2 ** (12 + i), i) for i in range(quiet)}
    xs = [4 + i for i in range(quiet)] + tail
    for budget in (contextlib.nullcontext(), _tiles(tiles)):
        with budget:
            _check_mod_mu_against_bruteforce(xs, images, k)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 2), max_size=100), st.integers(2, 3))
def test_mod_mu_unpacked_rows_match_bruteforce(tail, k):
    # images near 2**40 in both columns leave no room for one int64 key per row
    xs = [0, 1] + tail
    images = {0: (2**40, 1), 1: (1, 2**40), 2: (2**40 - 1, 2**40)}
    # two pieces even at n_max = 1, the narrowest radices
    assert _key_prefix(from_finite(xs), LatticeMap(images), 1, len(xs))[0].shape[1] == 2
    _check_mod_mu_against_bruteforce(xs, images, k)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from([0, 1, 1, 0, 2]), min_size=24, max_size=90),
       st.integers(4, 5), _SMALL_TILES)
def test_mod_mu_keys_whose_prefix_wraps_int64(xs, k, tiles):
    # images spanning A, with A as large as one key piece allows at n_max = L/k: the
    # heavy letters 0 and 1 weigh about 2^62 / n_max each, so the key prefix of k * n_max
    # mostly heavy letters passes 2^63, while every block key fits
    n_max = len(xs) // k
    A = (2**31 - 2) // n_max
    images = {0: (A, 7), 1: (A - 3, A), 2: (0, 0)}
    radix = n_max * A + 1
    assert radix * radix < 2**62
    assume(sum(images[x][0] * radix + images[x][1] for x in xs) >= 2**63)
    for budget in (contextlib.nullcontext(), _tiles(tiles)):
        with budget:
            _check_mod_mu_against_bruteforce(xs, images, k)


def _image_prefix(xs, mu):
    """C[i] = mu(w(1..i)) for i = 0..len(xs), rows of int64."""
    images = np.array([mu.images[int(x)] for x in xs], dtype=np.int64)
    return np.concatenate((np.zeros((1, mu.dim), dtype=np.int64), np.cumsum(images, axis=0)))


def _gapwise_rows_kpower(C, k):
    """Every (start, b) cell checked one block length at a time: the first 1-based hit."""
    hits = []
    for b in range(1, (len(C) - 1) // k + 1):
        W = C[b:] - C[:-b]
        m = len(C) - k * b
        ok = np.ones(m, dtype=bool)
        for j in range(1, k):
            ok &= (W[j * b : j * b + m] == W[:m]).all(axis=1)
        if ok.any():
            hits.append((int(np.argmax(ok)) + 1, b))
    return min(hits, default=None)


def test_mod_mu_unpacked_rows_past_the_head():
    # Dekking's abelian-cube-free word under images too wide for one key: every start
    # past the first goes through the gap-major pass as rows of pieces
    w = morphic_fixed_point(Morphism(DEKKING3), 0)
    mu = LatticeMap({0: (2**40, 1), 1: (1, 2**40), 2: (2**40 - 1, 2**40)})
    assert _key_prefix(w, mu, 2000 // 3, 2000)[0].shape[1] == 2
    C = _image_prefix(w.prefix(2000), mu)
    assert find_kpower_mod_mu(w, mu, 3, 2000) is None
    assert _gapwise_rows_kpower(C, 3) is None
    # a cube planted at start 101 makes the first witness; one planted at start 2, the
    # first start of the copy, is the first witness
    for at, first in ((100, (6, 154)), (1, (2, 1))):
        xs = [int(x) for x in w.prefix(2000)]
        xs[at : at + 3] = [2, 2, 2]
        planted = from_finite(xs)
        wit = find_kpower_mod_mu(planted, mu, 3, 2000)
        C = _image_prefix(xs, mu)
        assert (wit.start, wit.block_length) == _gapwise_rows_kpower(C, 3) == first
        assert verify_power(planted, wit, mu)


@pytest.mark.parametrize(
    "rules, k, L, abelian",
    [
        # Cassaigne-Currie-Schaeffer-Shallit: no additive cube
        ({0: (0, 3), 1: (4, 3), 3: (1,), 4: (0, 1)}, 3, 3000, False),
        # Dekking 1979: no abelian 4th power (binary), no abelian cube (ternary)
        ({0: (0, 0, 0, 1), 1: (0, 1, 1)}, 4, 2000, True),
        (DEKKING3, 3, 2000, True),
    ],
)
def test_power_free_words_have_no_power(rules, k, L, abelian):
    w = morphic_fixed_point(Morphism(rules), 0)
    if abelian:
        mu = LatticeMap.parikh_map(Alphabet(rules))
        assert find_kpower_mod_mu(w, mu, k, L) is None
    else:
        assert find_additive_kpower(w, k, L) is None


def test_abelian_cube_in_thue_morse(thue_morse):
    mu = LatticeMap.parikh_map(Alphabet([0, 1]))
    wit = find_kpower_mod_mu(thue_morse, mu, 3, 10_000)
    assert wit is not None
    assert verify_power(thue_morse, wit, mu)


def test_mod_mu_refuses_overflowing_images():
    # images near 2**62 wrap the int64 prefix sums and would yield a false witness
    w = from_finite([0, 3, 0, 0, 0, 3, 1, 1])
    mu = LatticeMap({0: (2**62,), 1: (1,), 2: (2,), 3: (3,)})
    with pytest.raises(GuardError):
        find_kpower_mod_mu(w, mu, 2, 8)


def _bruteforce_ap(colors, terms, k):
    n = len(colors)
    for a in range(1, n + 1):
        g = k
        while a + (terms - 1) * g <= n:
            vals = {colors[a - 1 + j * g] for j in range(terms)}
            if len(vals) == 1:
                return (a, g)
            g += k
    return None


def test_monochromatic_ap_refuses_colors_that_are_not_int64():
    with pytest.raises(ValueError):
        monochromatic_ap([1.5, 1.2], 2)  # would truncate to (1, 1)
    with pytest.raises(ValueError):
        monochromatic_ap(np.array([1.0, 1.0]), 2)
    with pytest.raises(GuardError):
        monochromatic_ap([2**70, 1, 2**70], 2)
    with pytest.raises(GuardError):
        monochromatic_ap([2**63, -1, 2**63], 2)
    with pytest.raises(GuardError):
        monochromatic_ap(np.array([2**63, 1, 2**63], dtype=np.uint64), 2)
    assert monochromatic_ap(np.array([3, 1, 3], dtype=np.uint64), 2) == (1, 2)


def test_monochromatic_ap_at_the_int64_extremes():
    top, bottom = 2**63 - 1, -(2**63)
    assert monochromatic_ap([top, bottom, top], 2) == (1, 2)
    colors = list(range(30)) + [top, bottom, bottom, top, bottom]
    assert monochromatic_ap(colors, 2) == (31, 3) == _bruteforce_ap(colors, 2, 1)
    assert monochromatic_ap(colors, 3) is None is _bruteforce_ap(colors, 3, 1)


def test_monochromatic_ap_example():
    assert monochromatic_ap([0, 1, 0, 1, 0, 1, 0], 4, 2) == (1, 2)


def test_monochromatic_ap_none():
    assert monochromatic_ap([0, 1, 2, 3, 4, 5], 3) is None
    with pytest.raises(ValueError):
        monochromatic_ap([0, 1], 1)
    with pytest.raises(ValueError):
        monochromatic_ap([0, 1], 2, 0)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 3), min_size=2, max_size=300),
    st.integers(2, 5),
    st.integers(1, 3),
)
def test_monochromatic_ap_matches_bruteforce(colors, terms, k):
    assert monochromatic_ap(colors, terms, k) == _bruteforce_ap(colors, terms, k)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 60),
    st.lists(st.integers(0, 3), min_size=2, max_size=240),
    st.integers(2, 5),
    st.integers(1, 3),
    _SMALL_TILES,
)
def test_monochromatic_ap_past_a_distinct_prefix(quiet, tail, terms, k, tiles):
    colors = list(range(100, 100 + quiet)) + tail
    brute = _bruteforce_ap(colors, terms, k)
    assert monochromatic_ap(colors, terms, k) == brute
    with _tiles(tiles):
        assert monochromatic_ap(colors, terms, k) == brute


def test_anchored_power_structure():
    w = constant_complexity_word(1)
    wit = find_anchored_power(w, 1, 4, 3, 50_000)
    assert wit is not None
    assert wit.count == 3
    assert wit.block_length % 4 == 0
    assert verify_power(w, wit)
    # each block has slope exactly 1
    assert wit.value == wit.block_length


def test_anchored_power_guard():
    with pytest.raises(GuardError):
        find_anchored_power(periodic([0, 1]), Fraction(1, 2), 1, 2, 2_000_000)


def test_anchored_power_absent():
    # constant word at the wrong slope: no monochromatic progression can
    # exist because every chi value is distinct
    w = periodic([1])
    assert find_anchored_power(w, Fraction(1, 2), 1, 2, 40) is None
    # 7 // 2 = 3 q-blocks hold no 4-term progression
    assert find_anchored_power(periodic([0, 1]), Fraction(1, 2), 1, 3, 7) is None


def test_verify_power_rejects_wrong_witness(thue_morse):
    bogus = PowerWitness(start=1, block_length=1, count=2, value=0)
    assert not verify_power(thue_morse, bogus)


# -- the narrowed copy: each side of the int8, int16 and int32 limits ------------


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([8, 16, 32]),
    st.booleans(),
    st.integers(-(2**40), 2**40),
    st.integers(1, 24),
    st.integers(1, 3),
    st.sampled_from([2, 3]),
)
def test_colors_each_side_of_a_narrow_dtype(bits, wide, lo, s, g, terms):
    # colors lo and lo + span alternate along (s, g) in the narrow copy; with span = 2^bits
    # a wrap-around int<bits> compare would take them for one color
    span = 2**bits if wide else 2**bits - 1
    colors = [lo + 1 + i for i in range(40)]
    for j in range(terms):
        colors[s + j * g] = lo + span * (j % 2)
    assert monochromatic_ap(colors, terms) is None is _bruteforce_ap(colors, terms, 1)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([8, 16, 32]),
    st.booleans(),
    st.integers(1, 18),
    st.integers(1, 3),
    st.randoms(use_true_random=False),
)
def test_blocks_each_side_of_a_narrow_dtype(bits, wide, s, g, rnd):
    # prefix sums span, 0, span at (s, s+g, s+2g) make blocks -span and span, which
    # differ by 2*span = 2^bits when wide; every other prefix sum is AP_FREE scaled
    # into [1, span/4], each used twice at most, so the word holds no additive square
    span = 2 ** (bits - 1) if wide else 2 ** (bits - 1) - 1
    quiet = [v * 2 ** (bits - 8) for v in AP_FREE if v <= 31] * 2
    rnd.shuffle(quiet)
    planted, rest = {s: span, s + g: 0, s + 2 * g: span}, iter(quiet)
    X = [planted[p] if p in planted else next(rest) for p in range(25)]
    xs = [b - a for a, b in zip(X, X[1:])]
    assert find_additive_kpower(from_finite(xs), 2, len(xs)) is None is _bruteforce_kpower(xs, 2)


@pytest.mark.parametrize("images, L, dtype", [
    ({0: (1, 0), 1: (0, 1)}, 2100, np.int16),  # the Parikh map: int32 with both columns
    ({0: (1, -1), 1: (-1, 1)}, 60_000, np.int32),  # images that cancel: int64 with both
])
def test_hyperplane_keys_take_a_narrower_copy(images, L, dtype, monkeypatch):
    # both maps have one coordinate sum, so the key prefix of Dekking's binary word is
    # its first column alone, whose block differences fit the narrower dtype
    copies = []
    real = powers._narrow_copy
    monkeypatch.setattr(powers, "_narrow_copy", lambda *a: copies.append(real(*a)) or copies[-1])
    w = morphic_fixed_point(Morphism({0: (0, 0, 0, 1), 1: (0, 1, 1)}), 0)
    assert find_kpower_mod_mu(w, LatticeMap(images), 4, L) is None
    assert [X.dtype for X in copies] == [dtype]


@pytest.mark.parametrize("tiles", [None, 3, 13])
def test_least_start_beats_the_first_hit_of_the_gap_major_pass(tiles):
    # the gap-major pass meets the square at (60, 1) first; it must go on over starts
    # 1..59 at the larger gaps and return (30, 50) instead
    X = [100 + v for v in AP_FREE[:1400]]
    X[60:63] = [10**6, 10**6 + 1, 10**6 + 2]  # the only value progressions in X
    X[30], X[80], X[130] = 2 * 10**6, 2 * 10**6 + 5, 2 * 10**6 + 10
    xs = [b - a for a, b in zip(X, X[1:])]
    colors = list(range(1400))
    colors[61], colors[80] = colors[60], colors[30]
    with _tiles(tiles) if tiles else contextlib.nullcontext():
        wit = find_additive_kpower(from_finite(xs), 2, len(xs))
        assert monochromatic_ap(colors, 2) == (31, 50)
    assert (wit.start, wit.block_length) == (31, 50)
    assert _bruteforce_kpower(xs[:141], 2) == (31, 50)


def test_scans_hold_no_memory_after_they_return():
    w = morphic_fixed_point(Morphism(DEKKING3), 0)
    mu = LatticeMap.parikh_map(Alphabet(DEKKING3))
    enum = enumeration_word(2)
    scans = [lambda: find_kpower_mod_mu(w, mu, 3, 2000),
             lambda: find_anchored_power(enum, 1, 3, 4, 100_000)]
    for scan in scans:
        scan()  # materialize the prefixes first
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for scan in scans:
            for _ in range(20):
                scan()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        gc.enable()
    assert held < 2**20


def test_parikh_square_scan_holds_no_image_table():
    # thm11:k=2 has five letters, whose keys take two pieces at n_max = L/2: this scan
    # peaks near 7 words a letter, and one that also held an (L + 1) x 5 image table
    # would peak near 12
    w, L = constant_complexity_word(2), 10**5
    mu = LatticeMap.parikh_map(w.alphabet)
    w.prefix_sums(L)
    gc.collect()
    tracemalloc.start()
    try:
        wit = find_kpower_mod_mu(w, mu, 2, L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9 * 8 * L
    assert (wit.start, wit.block_length, wit.value) == (3, 8, (2, 1, 2, 1, 2))
    assert verify_power(w, wit, mu)
