import gc
import itertools
import math
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wordsums import (
    Alphabet,
    FiniteWord,
    GuardError,
    LatticeMap,
    Morphism,
    abelian_complexity,
    additive_complexity,
    constant_complexity_word,
    enumeration_word,
    factor_set_intersection,
    factors_with_slope,
    find_additive_kpower,
    find_kpower_mod_mu,
    from_finite,
    lattice_complexity,
    lattice_spread,
    morphic_fixed_point,
    naive_complexity_oracle,
    parikh,
    periodic,
    profile,
    sum_spread,
    unbounded_gap_word,
    window_images,
    window_sums,
)
from wordsums import complexity
from wordsums.complexity import _key_prefix, _points_diameter_sq

words = st.lists(st.integers(-3, 3), min_size=1, max_size=120)


def test_parikh():
    ab = Alphabet([0, 1, 2])
    assert parikh(FiniteWord([0, 1, 1, 0, 2]), ab) == (2, 2, 1)
    with pytest.raises(ValueError):
        parikh(FiniteWord([5]), ab)


def test_lattice_map_constructors():
    ab = Alphabet([-1, 2])
    sm = LatticeMap.sum_map(ab)
    assert sm.of_word(FiniteWord([-1, 2, 2])) == (3,)
    pk = LatticeMap.parikh_map(ab)
    assert pk.of_word(FiniteWord([-1, 2, 2])) == (1, 2)
    with pytest.raises(ValueError):
        LatticeMap({0: (1, 0), 1: (1,)})
    with pytest.raises(ValueError):
        pk.of_word(FiniteWord([7]))
    with pytest.raises(ValueError, match="outside the map's alphabet"):  # no image for 1
        lattice_complexity(periodic([0, 1]), LatticeMap({0: (1,)}), 1, 10)
    for images in ({0: (2**63,), 1: (0,)}, {2**63: (1,), 1: (0,)}):  # past int64
        with pytest.raises(ValueError):
            LatticeMap(images)


def test_lattice_maps_refuse_letters_and_images_past_int64_in_one_message():
    for images, spec in (({0: (2**63,)}, "0=9223372036854775808"),
                         ({0: (-(2**63) - 1,)}, "0=-9223372036854775809"),
                         ({-(2**63) - 1: (0,)}, "-9223372036854775809=0")):
        with pytest.raises(ValueError, match=f"^letters and images of mu:{spec} must fit int64$"):
            LatticeMap(images)
    with pytest.raises(ValueError, match="^letters and images of mu:0=1,0;1180591620717411303424=0,1"):
        LatticeMap.parikh_map([0, 2**70])  # the identity table fits; the letter does not
    edge = LatticeMap({-(2**63): (-(2**63), 2**63 - 1)})  # the int64 edges fit
    assert edge.images == {-(2**63): (-(2**63), 2**63 - 1)}


def test_lattice_map_refuses_letters_and_images_that_are_not_integers():
    with pytest.raises(ValueError, match="not an integer"):
        LatticeMap({0: (0.5,)})  # kept the image (0,)
    with pytest.raises(ValueError, match="not an integer"):
        LatticeMap({1.5: (1,)})


def test_lattice_map_guards_an_image_of_minus_2_63():
    # np.abs(-2**63) wraps to -2**63; the magnitude must come out as 2**63
    mu = LatticeMap({0: (-(2**63),), 1: (0,)})
    assert mu.max_abs() == 2**63
    w = periodic([0, 1])
    with pytest.raises(GuardError):
        lattice_spread(w, mu, 1, 3)
    assert "materialized=0" in repr(w)  # the guard needs no symbol


def test_key_prefix_past_the_memory_guard_is_refused(monkeypatch):
    # t = 4 Parikh columns pack into one key at n_max = 1 (profile, lattice_complexity)
    # and at n_max = L/k = 500 (the square scan): an (L + 1) x 1 prefix plus an L x 1
    # buffer of 8-byte keys, 16008 bytes at L = 1000
    w = enumeration_word(3)
    mu = LatticeMap.parikh_map(w.alphabet)
    calls = [lambda: profile(w, 1, 1000, kind="abelian").counts(),
             lambda: lattice_complexity(w, mu, 1, 1000),
             lambda: find_kpower_mod_mu(w, mu, 2, 1000).start]
    monkeypatch.setattr(complexity, "_WINDOW_BYTES_LIMIT", 16_007)
    for call in calls:
        with pytest.raises(GuardError, match="window keys for L=1000, t=4"):
            call()
    assert "materialized=0" in repr(w)  # refused before reading a symbol
    monkeypatch.setattr(complexity, "_WINDOW_BYTES_LIMIT", 16_008)
    assert [call() for call in calls] == [[4], 4, 1]


def test_periodic_profile_counts():
    prof = profile(periodic([0, 1]), 3, 1000)
    assert prof.counts() == [2, 1, 2]
    assert prof.spreads() == [1, 0, 1]


def test_thue_morse_abelian_pattern(thue_morse):
    # 3 classes at even lengths, 2 at odd lengths >= 3
    assert abelian_complexity(thue_morse, 2, 2000) == 3
    assert abelian_complexity(thue_morse, 3, 2000) == 2
    assert abelian_complexity(thue_morse, 4, 2000) == 3
    assert abelian_complexity(thue_morse, 5, 2000) == 2


def test_thue_morse_lattice_spread(thue_morse):
    mu = LatticeMap.parikh_map(Alphabet([0, 1]))
    # counts at n=2: (2,0), (1,1), (0,2); farthest pair differs by (2,-2)
    assert lattice_spread(thue_morse, mu, 2, 2000) == 8
    assert lattice_spread(thue_morse, mu, 3, 2000) == 2


def test_fibonacci_balanced(fibonacci):
    for n in (1, 2, 3, 10, 57):
        assert additive_complexity(fibonacci, n, 20000) <= 2
        assert sum_spread(fibonacci, n, 20000) <= 1


def test_window_sums_match_factors():
    w = periodic([2, -1, 0, 3])
    s = window_sums(w, 3, 12)
    expected = [sum(int(x) for x in w.prefix(12)[i : i + 3]) for i in range(10)]
    assert s.tolist() == expected
    with pytest.raises(ValueError):
        window_sums(w, 0, 5)
    with pytest.raises(ValueError):
        window_sums(w, 6, 5)


def test_sum_map_equals_additive():
    for letters in ([1, 0, 2, 1], [5, 3, 2, 7], [2, -3, 0, 5]):
        w = periodic(letters)
        mu = LatticeMap.sum_map(Alphabet(letters))
        # symbol-sum keys are the sums themselves: the cache, whatever the least letter
        S, lo, _, box = _key_prefix(w, None, 7, 500)
        assert (lo, box) == ([0], (min(letters), max(letters)))
        assert S.base is w._ps and len(S) == 501
        for n in (1, 2, 3, 7):
            assert lattice_complexity(w, mu, n, 500) == additive_complexity(w, n, 500)
            assert (S[n:] - S[:-n]).tolist() == window_sums(w, n, 500).tolist()


def test_symbol_sums_hold_no_copy_of_the_prefix():
    # sums over a least letter 2 once shifted an int64 copy of the whole prefix beside the
    # buffer; now the prefix is copied once into byte lanes, beside a byte buffer
    w, L = periodic([5, 3, 2, 7]), 10**6
    w.prefix_sums(L)
    gc.collect()
    tracemalloc.start()
    try:
        count = additive_complexity(w, 5, L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * L
    assert count == 4


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=1, max_size=200),
       st.sampled_from([-(2**40), -5, 3, 2**40]), st.integers(2, 3))
def test_shifted_letters_shift_every_sum(xs, c, k):
    # c added to every letter adds n * c to each length-n sum: counts, spreads and power
    # witnesses stay, with keys in a box of nonzero base, some near n * 2^40
    w, v, L = from_finite(xs), from_finite([x + c for x in xs]), len(xs)
    assert profile(v, L, L).rows == profile(w, L, L).rows
    a, b = find_additive_kpower(w, k, L), find_additive_kpower(v, k, L)
    if a is None:
        assert b is None
    else:
        assert (b.start, b.block_length) == (a.start, a.block_length)
        assert b.value == a.value + a.block_length * c


@settings(max_examples=80, deadline=None)
@given(words, st.data())
def test_oracle_matches_fast_path(xs, data):
    w = from_finite(xs)
    L = len(xs)
    n = data.draw(st.integers(1, L))
    assert naive_complexity_oracle(w, None, n, L) == additive_complexity(w, n, L)
    ab = Alphabet(xs)
    pk = LatticeMap.parikh_map(ab)
    assert naive_complexity_oracle(w, pk, n, L) == lattice_complexity(w, pk, n, L)
    mu = LatticeMap(
        {s: (data.draw(st.integers(-2, 2)), data.draw(st.integers(-2, 2))) for s in ab}
    )
    assert naive_complexity_oracle(w, mu, n, L) == lattice_complexity(w, mu, n, L)


@pytest.mark.parametrize("call, message", [
    (lambda: LatticeMap({}), "need at least one letter image"),
    (lambda: naive_complexity_oracle(periodic([0, 1]), LatticeMap({0: (1,)}), 1, 4),
     "symbol 1 outside the map's alphabet"),
], ids=["empty-map", "oracle-unknown-letter"])
def test_refusals_name_their_cause(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_letter_maps_take_any_iterable_and_look_letters_up_by_value():
    for build, letters in ((LatticeMap.parikh_map, [0, 1]), (LatticeMap.sum_map, [-1, 2])):
        mu, ref = build(letters), build(Alphabet(letters))
        for attr in ("alphabet", "dim", "images"):
            assert getattr(mu, attr) == getattr(ref, attr)
        assert repr(mu) == repr(ref)
        assert np.array_equal(mu._table, ref._table)
    with pytest.raises(ValueError, match="not an integer"):
        LatticeMap.parikh_map([1.5])
    mu = LatticeMap.parikh_map([0, 1])
    assert mu.of_word([np.int64(1), 1.0, 0]) == (1, 2)
    with pytest.raises(ValueError, match="symbol 1.5 outside the map's alphabet"):
        mu.of_word([1.5])  # was read as letter 1


def test_one_letter_of_a_large_parikh_map_reads_one_table_row():
    # the map once turned its whole 1000 x 1000 table into Python tuples: 16 MB
    mu = LatticeMap.parikh_map(range(1000))
    gc.collect()
    tracemalloc.start()
    try:
        img = mu.of_word([0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert img == (1,) + (0,) * 999


def test_a_parikh_map_holds_one_table():
    # the memory guard measures one k x k table, so the map may hold no second one
    letters = Alphabet(range(2000))
    gc.collect()
    tracemalloc.start()
    try:
        mu = LatticeMap.parikh_map(letters)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 2000 * 2000 * 8
    assert mu.of_word([0, 1999, 1999]) == (1,) + (0,) * 1998 + (2,)


def test_window_images_decode_in_place():
    # n * lo is added to the decoded table in place, not to a second answer-sized copy
    w, mu, L = constant_complexity_word(2), LatticeMap.parikh_map(range(5)), 10**5
    w.prefix_sums(L)
    gc.collect()
    tracemalloc.start()
    try:
        U = window_images(w, mu, 5, L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.3 * U.nbytes
    x = w.prefix(L)
    assert U.sum(axis=1).tolist() == [5] * (L - 4)
    for i in range(0, L - 4, 997):
        assert U[i].tolist() == np.bincount(x[i : i + 5], minlength=5).tolist(), i


def test_oracle_guard():
    with pytest.raises(GuardError):
        naive_complexity_oracle(periodic([0, 1]), None, 2, 20_001)


def test_window_table_guard(monkeypatch):
    # factor keys are one int64 per window, so a lowered table guard refuses neither count,
    # though binary rows of length 100 and rows of letters +-2^40 fill 1000 bytes of cells
    monkeypatch.setattr(complexity, "_WINDOW_BYTES_LIMIT", 1000)
    shared = factor_set_intersection(periodic([0, 1]), periodic([1, 0]), 100, 1000)
    assert shared == _bruteforce_shared([0, 1] * 500, [1, 0] * 500, 100) == 2
    xs = [2**40, -(2**40)] * 30
    slope_0 = {tuple(xs[i : i + n]) for n in range(1, 9) for i in range(61 - n)
               if sum(xs[i : i + n]) == 0}
    assert factors_with_slope(from_finite(xs), 0, 60, 8) == len(slope_0) == 8


def test_long_factors_intersect_through_their_pieces():
    # rows of 1000 letters were refused as an n * L table of cells; their keys re-rank as
    # they step, one int64 a window
    shared = factor_set_intersection(periodic([0, 1]), periodic([1, 0]), 1000, 30_000)
    assert shared == _bruteforce_shared([0, 1] * 15_000, [1, 0] * 15_000, 1000) == 2


def test_factor_intersection_of_rows_too_wide_to_pack_stays_small(thue_morse):
    # 40 letters over {0, 1, 2} span 3^40 > 2^62 keys, re-ranked once: a few MB of keys,
    # where a set of 10^5 row objects per word took 70 MB
    sec24 = unbounded_gap_word()
    gc.collect()
    tracemalloc.start()
    try:
        shared = factor_set_intersection(thue_morse, sec24, 40, 10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30_000_000
    assert shared == _bruteforce_shared(thue_morse.prefix(10**5).tolist(),
                                        sec24.prefix(10**5).tolist(), 40)


def test_packed_factor_count_is_not_refused_by_its_rows(monkeypatch):
    # 6 * 60 * 8 bytes of factor rows are past the lowered guard; their keys are one int64
    # a window, and are counted
    monkeypatch.setattr(complexity, "_WINDOW_BYTES_LIMIT", 1000)
    xs = [bin(i).count("1") % 2 for i in range(60)]
    ys = [bin(i).count("1") % 2 for i in range(101, 161)]
    shared = factor_set_intersection(from_finite(xs), from_finite(ys), 6, 60)
    assert shared == _bruteforce_shared(xs, ys, 6) > 0


TM = [bin(i).count("1") % 2 for i in range(2000)]  # Thue-Morse, and its complement below
TMC = [1 - x for x in TM]


@pytest.mark.parametrize("tier, xs, ys, tail, n", [
    ("mask", TM[:100], TMC[:100], [], 3),  # binary keys below 2^3
    ("mask", TM[:100], TMC[:100], [8], 2),  # the letter 8 past L is not ranked
    ("table", TM, TMC, [], 10),
    ("sort", TM[:300], TM[150:449] + [2], [], 20),
    ("sort", TM[:300], TMC[:300], [], 70),  # re-ranked at n = 62, then 2^8 times their number
    ("scan-mask", [0, 1] * 50, [1, 0] * 50, [], 7),  # keys 42 and 85 below 2^7
])
def test_factor_intersection_takes_each_reduction_tier(tier, xs, ys, tail, n, reduction_tiers):
    shared = factor_set_intersection(from_finite(xs + tail), from_finite(ys), n, len(xs))
    assert shared == _bruteforce_shared(xs, ys, n) > 0
    # the letters' ranks, one re-rank once binary keys reach 2^62, each word's keys, their union
    assert len(reduction_tiers) == 4 + (n >= 62)
    assert reduction_tiers[-3:-1] == [tier, tier]
    assert "pieces" not in reduction_tiers  # no 2-D table of keys


@pytest.mark.parametrize("letters, ns", [
    (2, (61, 62, 63)),  # (top + 1) * 2 first reaches 2^62 before n = 62
    (3, (39, 40, 41)),  # and (top + 1) * 3 before n = 40
])
def test_factor_intersection_on_each_side_of_the_first_rerank(letters, ns, reduction_tiers):
    # Thue-Morse against its complement, and the ternary word of 0 -> 012, 1 -> 120, 2 -> 201
    # against its image under 0 -> 1 -> 2 -> 0: each pair shares one factor set
    k = range(letters)
    rule = Morphism({a: tuple((a + b) % letters for b in k) for a in k})
    w1, w2, L = morphic_fixed_point(rule, 0), morphic_fixed_point(rule, 1), 300
    xs, ys = w1.prefix(L).tolist(), w2.prefix(L).tolist()
    for n in ns:
        reduction_tiers.clear()
        assert factor_set_intersection(w1, w2, n, L) == _bruteforce_shared(xs, ys, n) > 0
        assert len(reduction_tiers) == 4 + (n > ns[0])  # a re-rank from the middle length on


def test_no_factor_lies_across_the_junction_of_the_two_prefixes():
    # the keys of both prefixes are stepped as one word, whose only 0, 1 window is the junction
    assert factor_set_intersection(from_finite([0] * 50), from_finite([1] * 50), 2, 50) == 0


def test_factor_keys_that_pass_int64_after_a_rerank_are_refused(monkeypatch, thue_morse):
    # under a limit of 16, binary keys re-rank before n = 4 into the 6 factors of length 3,
    # then before n = 5 into the 10 of length 4, and 10 * 2 >= 16 is still past the limit
    monkeypatch.setattr(complexity, "_SUM_LIMIT", 16)
    xs = thue_morse.prefix(100).tolist()
    assert factor_set_intersection(thue_morse, thue_morse, 4, 100) == _bruteforce_shared(xs, xs, 4)
    with pytest.raises(GuardError, match="may overflow int64"):
        factor_set_intersection(thue_morse, thue_morse, 5, 100)
    with pytest.raises(GuardError, match="may overflow int64"):
        factors_with_slope(thue_morse, 1, 100, 5)


def test_parikh_map_past_the_memory_guard_is_refused():
    # 6000 images of 6000 coordinates are 288 MB of int64 cells
    with pytest.raises(GuardError, match="Parikh map of 6000 letters"):
        LatticeMap.parikh_map(Alphabet(range(6000)))
    assert LatticeMap.parikh_map(Alphabet(range(50))).dim == 50


def test_lattice_spread_exact_small():
    # images on a line: diameter is the squared spread of the sums
    w = periodic([0, 3])
    mu = LatticeMap({0: (0, 0), 3: (1, 1)})
    # windows of length 1: images (0,0) and (1,1); distance^2 = 2
    assert lattice_spread(w, mu, 1, 100) == 2


def _bruteforce_diameter(points):
    best = 0
    pts = list(points)
    for a, b in itertools.combinations(pts, 2):
        best = max(best, sum((x - y) ** 2 for x, y in zip(a, b)))
    return best


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-2, 2), min_size=2, max_size=40), st.integers(1, 5))
def test_lattice_spread_matches_bruteforce(xs, n):
    if n > len(xs):
        n = len(xs)
    w = from_finite(xs)
    ab = Alphabet(xs)
    mu = LatticeMap.parikh_map(ab)
    rows = []
    for i in range(len(xs) - n + 1):
        rows.append(parikh(FiniteWord(xs[i : i + n]), ab))
    assert lattice_spread(w, mu, n, len(xs)) == _bruteforce_diameter(set(rows))


def _bruteforce_shared(a, b, n):
    fa = {tuple(a[i : i + n]) for i in range(len(a) - n + 1)}
    fb = {tuple(b[i : i + n]) for i in range(len(b) - n + 1)}
    return len(fa & fb)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(-3, 1), min_size=4, max_size=60),
    st.lists(st.integers(-1, 4), min_size=4, max_size=60),
    st.integers(1, 4),
    st.sampled_from([0, -9, 7, 2**40]),
)
def test_intersection_matches_bruteforce(xs, ys, n, late):
    # words over other letter ranges; `late` sits past L, so only the second
    # stream's cached range holds it, and with 2^40 rows of n >= 2 do not pack
    L = min(len(xs), len(ys))
    w1, w2 = from_finite(xs), from_finite(ys[:L] + [late])
    w2.prefix(L + 1)
    assert factor_set_intersection(w1, w2, n, L) == _bruteforce_shared(
        xs[:L], ys[:L], n
    )


def test_profile_kinds(thue_morse):
    ab = profile(thue_morse, 6, 2000, kind="abelian")
    assert ab.counts() == [2, 3, 2, 3, 2, 3]
    mu = LatticeMap.sum_map(Alphabet([0, 1]))
    lat = profile(thue_morse, 4, 2000, kind="lattice", mu=mu)
    add = profile(thue_morse, 4, 2000)
    assert lat.counts() == add.counts()
    with pytest.raises(ValueError):
        profile(thue_morse, 4, 2000, kind="abelian", mu=mu)
    with pytest.raises(ValueError):
        profile(thue_morse, 4, 2000, kind="lattice")
    with pytest.raises(ValueError):
        profile(thue_morse, 4, 2000, kind="nope")
    with pytest.raises(ValueError):
        profile(thue_morse, 0, 2000)


def test_lattice_profile_spread_is_squared_distance(thue_morse):
    prof = profile(thue_morse, 3, 2000, kind="abelian")
    assert prof.spreads()[1] == 8  # n=2 from the spread test above


def _image_prefix(xs, images):
    """mu(w(1..i)) for i = 0..len(xs), summed in Python ints."""
    C = [(0,) * len(next(iter(images.values())))]
    for x in xs:
        C.append(tuple(a + b for a, b in zip(C[-1], images[x])))
    return C


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda t: st.lists(
            st.lists(st.integers(-5, 5), min_size=t, max_size=t), min_size=1, max_size=4
        )
    ),
    st.lists(st.integers(0, 3), min_size=1, max_size=12),
    st.integers(1, 12),
    st.sampled_from([1, 2**40]),
)
def test_key_prefix_separates_block_images(rows, xs, n_max, scale):
    # at scale 2^40, t = 2..3 columns have radix products past 2^62 and split into pieces
    images = {i: tuple(scale * v for v in rows[i % len(rows)]) for i in range(4)}
    S, lo, radix, _ = _key_prefix(from_finite(xs), LatticeMap(images), n_max, len(xs))
    C = _image_prefix(xs, images)
    for b in range(1, min(n_max, len(xs)) + 1):
        K = S[b:] - S[:-b]
        assert complexity._decode(K, b, lo, radix).tolist() == [
            [x - y for x, y in zip(C[i + b], C[i])] for i in range(len(xs) - b + 1)]
        for i, j in itertools.product(range(len(xs) - b + 1), repeat=2):
            same_images = all(C[i + b][c] - C[i][c] == C[j + b][c] - C[j][c]
                              for c in range(len(C[0])))
            assert same_images == np.array_equal(K[i], K[j])


def test_key_prefix_splits_keys_past_int64():
    # radices 2^40 + 1 per column multiply past 2^62: one piece per column
    w, mu = from_finite([0, 1]), LatticeMap({0: (0, 0), 1: (2**40, 2**40)})
    S = _key_prefix(w, mu, 1, 2)[0]
    assert S.shape[1] == 2
    assert S.tolist() == [[0, 0], [0, 0], [2**40, 2**40]]


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda t: st.lists(
            st.lists(st.integers(-5, 5) | st.integers(-5, 5).map(lambda d: d * 2**40 + 3),
                     min_size=t, max_size=t), min_size=3, max_size=3
        )
    ),
    st.lists(st.integers(0, 2), min_size=1, max_size=60),
    st.data(),
)
def test_window_images_match_bruteforce(rows, xs, data):
    # signed images, and images near +-2^42 whose radix products pass 2^62 into pieces;
    # n runs up to L, a single window
    images = dict(enumerate(rows))
    n = data.draw(st.integers(1, len(xs)))
    got = window_images(from_finite(xs), LatticeMap(images), n, len(xs))
    expected = [[sum(images[x][c] for x in xs[i : i + n]) for c in range(len(rows[0]))]
                for i in range(len(xs) - n + 1)]
    assert got.tolist() == expected


def test_window_images_table_guard_at_its_edge(monkeypatch):
    # the (L - n + 1) x t output: 991 x 4 cells of 8 bytes, past the 2001-key prefix
    w = enumeration_word(3)
    mu = LatticeMap.parikh_map(w.alphabet)
    monkeypatch.setattr(complexity, "_WINDOW_BYTES_LIMIT", 8 * 991 * 4 - 1)
    with pytest.raises(GuardError, match="window images for n=10, L=1000, t=4"):
        window_images(w, mu, 10, 1000)
    assert "materialized=0" in repr(w)
    monkeypatch.setattr(complexity, "_WINDOW_BYTES_LIMIT", 8 * 991 * 4)
    assert window_images(w, mu, 10, 1000).sum(axis=1).tolist() == [10] * 991


# -- images on a hyperplane: letter images that share one coordinate sum ----


def _hyperplane_images(c, rows, equal):
    """Letter i maps to rows[i] (rows[0] for every letter when `equal`), then c minus its
    sum, so every image has coordinate sum c."""
    rows = [rows[0]] * len(rows) if equal else rows
    return {i: tuple(r) + (c - sum(r),) for i, r in enumerate(rows)}


hyperplane_maps = st.builds(
    _hyperplane_images,
    st.integers(-3, 3),
    st.integers(2, 5).flatmap(lambda t: st.lists(
        st.lists(st.integers(-3, 3), min_size=t - 1, max_size=t - 1), min_size=2, max_size=4)),
    st.booleans(),
)


def _hyperplane_word(data, images, min_size=1):
    return data.draw(st.lists(st.integers(0, len(images) - 1), min_size=min_size, max_size=300))


@settings(max_examples=60, deadline=None)
@given(hyperplane_maps, st.data())
def test_hyperplane_profile_matches_bruteforce(images, data):
    xs = _hyperplane_word(data, images)
    n_max = data.draw(st.integers(1, min(len(xs), 10)))
    t = len(images[0])
    _, lo, radix, _ = _key_prefix(from_finite(xs), LatticeMap(images), n_max, len(xs))
    assert (len(lo), len(radix)) == (t, t - 1)  # the keys leave the last column out
    _check_profile(xs, "lattice", n_max, None, images)


@settings(max_examples=60, deadline=None)
@given(hyperplane_maps, st.data())
def test_hyperplane_window_images_match_bruteforce(images, data):
    xs = _hyperplane_word(data, images)
    n = data.draw(st.integers(1, len(xs)))
    C = _image_prefix(xs, images)
    got = window_images(from_finite(xs), LatticeMap(images), n, len(xs))
    assert got.tolist() == [[a - b for a, b in zip(C[i + n], C[i])]
                            for i in range(len(xs) - n + 1)]


def test_images_whose_sums_pass_int64_keep_every_column():
    # eight coordinates of +-2^60 sum to +-2^63, one value modulo 2^64, and n * c passes
    # int64 at n = 2: such images are not taken for a hyperplane, and decode exactly
    B = 2**60
    w, mu = from_finite([0, 1]), LatticeMap({0: (B,) * 8, 1: (-B,) * 8})
    _, lo, radix, _ = _key_prefix(w, mu, 2, 2)
    assert len(lo) == len(radix) == 8
    prof = profile(w, 2, 2, kind="lattice", mu=mu)
    assert prof.counts() == [2, 1] and prof.spreads() == [8 * (2 * B) ** 2, 0]
    assert window_images(w, mu, 2, 2).tolist() == [[0] * 8]


def _bruteforce_mu_kpower(xs, images, k):
    """First (start, b, image) of k adjacent length-b blocks with one image, from
    Python-int prefix images."""
    C, L = _image_prefix(xs, images), len(xs)
    for s in range(L):
        for b in range(1, (L - s) // k + 1):
            imgs = {tuple(x - y for x, y in zip(C[s + (j + 1) * b], C[s + j * b]))
                    for j in range(k)}
            if len(imgs) == 1:
                return s + 1, b, imgs.pop()
    return None


@settings(max_examples=60, deadline=None)
@given(hyperplane_maps, st.integers(2, 4), st.integers(0, 20), st.data())
def test_hyperplane_mod_mu_matches_bruteforce(images, k, quiet, data):
    # letters 4, 5, ... of images (2^(12+i), 0, ..., c - 2^(12+i)) stay on the
    # hyperplane and keep powers out of a quiet prefix, so later starts are scanned too
    t, c = len(images[0]), sum(images[0])
    xs = [4 + i for i in range(quiet)] + _hyperplane_word(data, images, min_size=2)
    images = images | {4 + i: (2 ** (12 + i),) + (0,) * (t - 2) + (c - 2 ** (12 + i),)
                       for i in range(quiet)}
    wit = find_kpower_mod_mu(from_finite(xs), LatticeMap(images), k, len(xs))
    assert (wit and (wit.start, wit.block_length, wit.value)) == \
        _bruteforce_mu_kpower(xs, images, k)


# -- the distinct-count kernel, one test per branch ------------------------

B40, B30 = 2**40, 2**30


def _branch(windows):
    """The packed-radix class of these window images, by the rule of the factor keys:
    "bincount" when the radix product of their column ranges fits the window count,
    "sort" when it does not, and "rows" when the keys take more than one piece.  The
    profile kernel picks its reduction tier by _tier below."""
    radix = 1
    for col in zip(*windows):
        radix *= max(col) - min(col) + 1
    if radix >= 2**62:
        return "rows"
    return "bincount" if radix <= len(windows) else "sort"


def _tier(xs, n, n_max, images):
    """The tier the profile kernel takes on the length-n rows of xs, by its rule, where
    `images` maps every letter the box covers to its image: "mask" when the row's box spans
    fewer values than 64 and than the key lanes have bits (the letter weights' range w at
    n = 1, and the last row's key span plus w after it; the lanes the narrowest of 8 to 64
    bits that hold n_max * w), "scan-mask" when the keys span fewer than 64 values, "table"
    when they span fewer values than there are windows, "sort" otherwise, and "pieces" past
    2^62."""
    cols = list(zip(*images.values()))
    if len(cols) > 1 and len(set(map(sum, images.values()))) == 1:
        cols.pop()  # images on a hyperplane weigh their first t - 1 columns
    radix = [n_max * (max(col) - min(col)) + 1 for col in cols]
    if len(radix) > 1 and math.prod(radix) >= 2**62:
        return "pieces"
    place = [math.prod(radix[c + 1 :]) for c in range(len(radix))]
    omega = {s: sum((v - min(col)) * p for v, col, p in zip(img, cols, place))
             for s, img in images.items()}

    def span(m):
        keys = {sum(omega[x] for x in xs[i : i + m]) for i in range(len(xs) - m + 1)}
        return max(keys) - min(keys)

    w = max(omega.values()) - min(omega.values())
    bits = next(b for b in (8, 16, 32, 64) if n_max * w < 2**b or b == 64)
    if w + (n > 1 and span(n - 1)) < min(64, bits):
        return "mask"
    if span(n) < 64:
        return "scan-mask"
    return "table" if span(n) < len(xs) - n + 1 else "sort"


def _check_profile(xs, kind, n_max, branch, images=None, branch_from=1, tier=None, tail=()):
    """Every row of profile(kind) against the oracle and a brute-force spread.

    Rows n >= branch_from must also have the given packed-radix class (see _branch),
    unless it is None, and take the given kernel tier (see _tier), unless it is None.
    Letters in `tail` follow the prefix: the cache, and so the box, holds them.
    """
    w, L = from_finite(list(xs) + list(tail)), len(xs)
    mu = LatticeMap(images) if kind == "lattice" else None
    prof = profile(w, n_max, L, kind=kind, mu=mu)
    if kind == "additive":
        imgs, oracle_mu = [(x,) for x in xs], None
        box = {x: (x,) for x in list(xs) + list(tail)}
    else:
        oracle_mu = mu or LatticeMap.parikh_map(Alphabet(list(xs) + list(tail)))
        imgs, box = [oracle_mu.images[x] for x in xs], oracle_mu.images
    assert [r.n for r in prof.rows] == list(range(1, n_max + 1))
    for row in prof.rows:
        n = row.n
        windows = [tuple(map(sum, zip(*imgs[i : i + n]))) for i in range(L - n + 1)]
        assert branch is None or n < branch_from or _branch(windows) == branch
        assert tier is None or n < branch_from or _tier(xs, n, n_max, box) == tier
        seen = set(windows)
        assert row.count == len(seen) == naive_complexity_oracle(w, oracle_mu, n, L)
        if kind == "additive":
            assert row.spread == max(seen)[0] - min(seen)[0]
        else:
            assert row.spread == _bruteforce_diameter(seen)


@pytest.mark.parametrize(
    "letters, n_lo, n_hi, branch",
    [
        ((0, 1, 2), 1, 3, "bincount"),  # at most 3^3 = 27 keys, at least 34 windows
        ((0, 9), 2, 4, "sort"),  # at least 10^2 keys, at most 55 windows
        ((-B40, 1, B40), 2, 4, "rows"),  # (2^41 + 1)^2 > 2^62
    ],
)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_intersection_branches_match_bruteforce(letters, n_lo, n_hi, branch, data):
    # both extremes up front, so every factor column spans the whole letter range
    head = [letters[0], letters[-1]] * 3
    body = st.lists(st.sampled_from(letters), min_size=30, max_size=50)
    xs, ys = head + data.draw(body), head + data.draw(body)
    n, L = data.draw(st.integers(n_lo, n_hi)), min(len(xs), len(ys))
    for word in (xs, ys):
        assert _branch([tuple(word[i : i + n]) for i in range(L - n + 1)]) == branch
    shared = factor_set_intersection(from_finite(xs), from_finite(ys), n, L)
    assert shared == _bruteforce_shared(xs[:L], ys[:L], n)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(0, 2), min_size=70, max_size=150),
    st.integers(1, 3),
    st.dictionaries(st.integers(0, 2), st.tuples(st.integers(0, 1), st.integers(0, 1)),
                    min_size=3, max_size=3),
)
def test_profile_small_ranges_take_bincount(xs, n_max, images):
    # each column spans at most n + 1 values, so (n+1)^3 <= 64 keys < 68 windows
    _check_profile(xs, "additive", n_max, "bincount")
    _check_profile(xs, "abelian", n_max, "bincount")
    _check_profile(xs, "lattice", n_max, "bincount", images)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from([-1, 1]), st.integers(-3, 3)), max_size=100),
    st.integers(1, 3),
    st.lists(st.integers(0, 4), max_size=60),
    st.integers(4, 6),
)
def test_profile_wide_ranges_take_the_sort(pairs, n_max, tail, n_ab):
    # three +2^40 and three -2^40 up front: every window length <= 3 spans > 2^41 sums
    xs = [B40] * 3 + [-B40] * 3 + [sgn * B40 + d for sgn, d in pairs]
    _check_profile(xs, "additive", n_max, "sort")
    images = {B40: (B30, 1), -B40: (-B30, 0)}
    images.update({x: (x // 1024, x % 5) for x in xs[6:]})
    _check_profile(xs, "lattice", n_max, "sort", images)
    # runs of 8 per letter: all five Parikh columns span 0..n, (n+1)^5 > 150 windows
    blocks = [s for s in range(5) for _ in range(8)] + tail
    _check_profile(blocks, "abelian", n_ab, "sort", branch_from=4)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(0, 3), max_size=60),
    st.lists(st.tuples(st.sampled_from([-1, 1]), st.integers(-9, 9)), min_size=6, max_size=6),
    st.integers(1, 3),
)
def test_profile_refuses_to_pack_t3_images_near_2_30(xs, offsets, n_max):
    # (B, B, B) and (-B, -B, -B) runs up front: three columns each spanning > 2^31
    signs = iter(offsets)
    images = {0: (B30, B30, B30), 1: (-B30, -B30, -B30)}
    images.update({s: tuple(sg * B30 + d for sg, d in (next(signs), next(signs), next(signs)))
                   for s in (2, 3)})
    word = [0, 0, 0, 1, 1, 1] + xs
    _check_profile(word, "lattice", n_max, "rows", images)


def test_profile_refuses_to_pack_keys_just_past_int64():
    # radix product (B + 1)^2 is about 2^63.06: packed keys would wrap past int64
    B = 3_100_000_000
    _check_profile([0, 1, 1, 0, 2], "lattice", 1, "rows", {0: (0, 0), 1: (B, B), 2: (B, 0)})


def _box_fits(imgs, n, L):
    """Whether the box [n * min, n * max] of the letter images fits the window count."""
    radix = 1
    for col in zip(*imgs):
        radix *= n * (max(col) - min(col)) + 1
    return radix <= L - n + 1


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["additive", "abelian", "lattice"]),
    st.integers(-6, 6),
    st.sampled_from([1, B40]),
    st.lists(st.integers(-2, 2), min_size=2, max_size=100),
    st.data(),
)
def test_profile_rows_on_both_sides_of_the_box_fit(kind, low, scale, ds, data):
    # letters low + scale*d: negative, a nonzero minimum, or near +-2^41; images in -3..3
    xs = [low + scale * d for d in ds]
    images = {x: data.draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3))) for x in set(xs)}
    if kind == "additive":
        imgs = [(x,) for x in set(xs)]
    elif kind == "abelian":
        imgs = list(LatticeMap.parikh_map(Alphabet(xs)).images.values())
    else:
        imgs = list(images.values())
    # the last n whose box fits, then one to three rows past it
    last_fit = max([n for n in range(1, len(xs) + 1) if _box_fits(imgs, n, len(xs))], default=0)
    n_max = min(len(xs), last_fit + data.draw(st.integers(1, 3)))
    _check_profile(xs, kind, n_max, None, images)


@pytest.mark.parametrize("late, fits", [((-1, 2), True), ((B40,), False)])
@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=8, max_size=80), st.integers(1, 6), st.data())
def test_additive_profile_when_the_cache_holds_wider_letters(late, fits, xs, n_max, data):
    # letters past L widen the cache's range, and so the box, but not the prefix's
    L = len(xs)
    tail = data.draw(st.lists(st.sampled_from(late), min_size=1, max_size=5))
    w = from_finite(xs + tail)
    w.prefix(L + len(tail))
    assert _box_fits([(x,) for x in xs + tail], 1, L) == fits
    assert profile(w, n_max, L) == profile(from_finite(xs), n_max, L)


# -- the reduction tiers of the profile kernel, one test per tier ----------


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(0, 2), min_size=1, max_size=120),
    st.integers(1, 3),
    st.dictionaries(st.integers(0, 2), st.tuples(st.integers(0, 1), st.integers(0, 1)),
                    min_size=3, max_size=3),
)
def test_profile_tier_mask_without_a_scan(xs, n_max, images):
    # letters 0..2 take byte lanes, masked with no scan while a row's box spans fewer than
    # 8 values: at most 2n for sums, 3n for Parikh keys in radix 3 (n_max <= 2) and 3 for
    # images in radix 2 (n_max = 1)
    n_max = min(n_max, len(xs))
    _check_profile(xs, "additive", n_max, None, tier="mask")
    _check_profile(xs, "abelian", min(n_max, 2), None, tier="mask")
    _check_profile(xs, "lattice", 1, None, images, tier="mask")


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=8, max_size=120), st.integers(1, 6))
def test_profile_tier_mask_after_the_scan(xs, n_max):
    # letters cached past L widen the box to a top of at least 64, while the keys of
    # binary windows span at most n_max * n_max <= 36 values
    xs = [0, 1] + xs
    _check_profile(xs, "additive", n_max, None, tier="scan-mask", tail=[100])
    images = {0: (5, 0), 1: (5, 1), 9: (-40, 40)}  # 9 is past L: column 0 is constant
    _check_profile(xs, "lattice", n_max, None, images, tier="scan-mask", tail=[9])
    # the Parikh column of -3 is the most significant of three, so the letter weights span
    # (n_max + 1)^3 >= 343 values: every row's box is that wide, past the last row's keys
    _check_profile(xs, "abelian", 6, None, tier="scan-mask", tail=[-3, -2, -1])


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 9), min_size=250, max_size=300))
def test_profile_tier_presence_table(body):
    # runs up front fix the extreme keys: sums span 9n, images 129n (top 97 + 32), and
    # ternary Parikh keys, which weigh the counts of 0 and 1 in radix 11 (a 1 past L puts
    # it in the alphabet), 11n; each stays below the window count
    xs = [0] * 10 + [9] * 10 + [8] * 10 + body
    _check_profile(xs, "additive", 10, None, tier="table", branch_from=8)
    images = {d: (d % 2, 8 * (d // 2)) for d in range(10)}
    _check_profile(xs, "lattice", 2, None, images, tier="table")
    _check_profile([x % 3 for x in xs], "abelian", 10, None, tier="table", branch_from=6,
                   tail=[1])


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 4), max_size=100), st.integers(1, 3))
def test_profile_tier_sort(tail, n_max):
    # images 2^13 apart weigh about 2^28 each, and letters 2^40 apart are wider still
    xs = [0] * 3 + [4] * 3 + tail
    images = {s: (s * 2**13, s * 2**13 - s) for s in range(5)}
    _check_profile(xs, "lattice", n_max, None, images, tier="sort")
    _check_profile([B40 * x - x for x in xs], "additive", n_max, None, tier="sort")
    # runs of 8 per letter: Parikh keys weigh the counts of 0..5 in radix at least 3, so
    # they span at least 3^5 n of at most 156 windows
    blocks = [s for s in range(7) for _ in range(8)] + tail
    _check_profile(blocks, "abelian", max(n_max, 2), None, tier="sort", branch_from=2)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(0, 62), max_size=80), st.integers(1, 3))
def test_profile_tier_pieces(tail, n_max):
    # images near 2^40 need radices past 2^41; 63 Parikh columns need (n_max + 1)^63
    xs = [0, 1, 2, 62] + tail
    images = {s: ((s - 31) * B40 + s, (s % 7) * B30 - s) for s in range(63)}
    _check_profile(xs, "lattice", n_max, None, images, tier="pieces")
    _check_profile(xs, "abelian", n_max, None, tier="pieces", tail=range(63))


# -- the kernel's narrow lanes: each unsigned rung, and boxes from the last row -----------


def _lanes(mp):
    """The key dtype of each later profile kernel call."""
    seen, real = [], complexity._narrowest
    mp.setattr(complexity, "_narrowest", lambda width: seen.append(real(width)) or seen[-1])
    return seen


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([1, 2**7, 2**14, 2**40]),
    st.integers(-(2**20), 2**20),
    st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 12)), min_size=1, max_size=20),
    st.data(),
)
def test_kernel_rows_match_the_oracle_in_every_lane(scale, shift, runs, data):
    # runs of letters shift + scale * d, often negative, spanning 6 * scale: n_max * 6 * scale
    # picks byte lanes at scale 1 up to n_max = 42, 2-byte lanes past it and at 2^7, 4-byte
    # lanes at 2^14 and 8-byte lanes at 2^40; runs spread the sums, so rows leave the mask
    # for the scan, the presence table or the sort
    xs = [shift + scale * d for d, r in runs for _ in range(r)]
    w, L = from_finite(xs), len(xs)
    n_max = data.draw(st.integers(1, min(L, 48)))
    P = list(itertools.accumulate(xs, initial=0))
    sums = {n: {P[i + n] - P[i] for i in range(L - n + 1)} for n in range(1, n_max + 1)}
    for row in profile(w, n_max, L).rows:
        assert row.count == naive_complexity_oracle(w, None, row.n, L) == len(sums[row.n])
        assert row.spread == max(sums[row.n]) - min(sums[row.n])
    n = data.draw(st.integers(1, n_max))  # one row alone, from the box n * [low, high]
    assert additive_complexity(w, n, L) == len(sums[n])
    assert sum_spread(w, n, L) == max(sums[n]) - min(sums[n])
    # 1-D lattice keys: images on a line, and Parikh vectors of at most 7 letters, whose
    # keys weigh their first columns in radix n_max + 1 <= 61
    mu = LatticeMap({x: (scale * data.draw(st.integers(-3, 3)),) for x in set(xs)})
    C = list(itertools.accumulate((mu.images[x][0] for x in xs), initial=0))
    images = {m: {C[i + m] - C[i] for i in range(L - m + 1)} for m in range(1, n_max + 1)}
    for row in profile(w, n_max, L, kind="lattice", mu=mu).rows:
        assert row.count == naive_complexity_oracle(w, mu, row.n, L) == len(images[row.n])
        assert row.spread == (max(images[row.n]) - min(images[row.n])) ** 2
    assert lattice_complexity(w, mu, n, L) == len(images[n])
    assert lattice_spread(w, mu, n, L) == (max(images[n]) - min(images[n])) ** 2
    pk = LatticeMap.parikh_map(Alphabet(xs))
    rows = profile(w, n_max, L, kind="abelian").rows
    assert [r.count for r in rows] == [naive_complexity_oracle(w, pk, r.n, L) for r in rows]
    vectors = {parikh(FiniteWord(xs[i : i + n]), pk.alphabet) for i in range(L - n + 1)}
    assert rows[n - 1].spread == lattice_spread(w, pk, n, L) == _bruteforce_diameter(vectors)
    assert abelian_complexity(w, n, L) == len(vectors)


@pytest.mark.parametrize("scale, n_max, lane", [
    (1, 42, np.uint8), (1, 43, np.uint16), (2**14, 2, np.uint32), (2**40, 1, np.uint64),
])
def test_kernel_keys_take_the_narrowest_lane(scale, n_max, lane):
    # letters -3, 3, 0 and 1 times scale: the keys of n_max rows span n_max * 6 * scale
    xs = [scale * d for d in (-3, 3, 0, 1)] * 20
    w = from_finite(xs)
    with pytest.MonkeyPatch.context() as mp:
        lanes = _lanes(mp)
        prof = profile(w, n_max, 80)
    assert lanes == [lane]
    assert prof.counts() == [naive_complexity_oracle(w, None, n, 80) for n in range(1, n_max + 1)]


def test_bounded_rows_stay_in_the_mask(thue_morse, reduction_tiers):
    # Thue-Morse's sums of one length span at most 2, so each row's box, the last row's
    # extremes widened by the letter range [0, 1], spans at most 3 values: every row takes
    # the mask with no scan, where the box n * [0, 1] needed one from n = 64
    prof = profile(thue_morse, 100, 2000)
    assert reduction_tiers == ["mask"] * 100
    assert prof.counts() == [2, 3] * 50 and prof.spreads() == [1, 2] * 50
    reduction_tiers.clear()  # one row alone starts from its a-priori box
    assert additive_complexity(thue_morse, 100, 2000) == 3
    assert reduction_tiers == ["scan-mask"]


def test_growing_rows_move_from_the_mask_to_the_table_and_the_sort(reduction_tiers):
    # 100 zeros, then 100 threes: the sums of length n span 3n over 201 - n windows, and
    # the box from the last row spans 3n too; keys up to 60 * 3 take byte lanes, so rows 1
    # and 2 take the mask with no scan, 3..21 the mask after it, 22..50 the presence table
    # and 51..60 the sort
    w = from_finite([0] * 100 + [3] * 100)
    prof = profile(w, 60, 200)
    assert reduction_tiers == (["mask"] * 2 + ["scan-mask"] * 19 + ["table"] * 29
                               + ["sort"] * 10)
    assert prof.counts() == [naive_complexity_oracle(w, None, n, 200) for n in range(1, 61)]
    assert prof.spreads() == [3 * n for n in range(1, 61)]


def test_thue_morse_profile_holds_byte_lanes(thue_morse):
    # 100 rows of 0/1 sums fit bytes: a copy of the prefix and a buffer of keys, 1 MB each,
    # where a buffer of 8-byte keys took 8 MB
    L = 10**6
    thue_morse.prefix_sums(L)
    gc.collect()
    tracemalloc.start()
    try:
        prof = profile(thue_morse, 100, L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000
    assert prof.counts() == [2, 3] * 50


def test_wide_rows_widen_their_keys_a_chunk_at_a_time(reduction_tiers):
    # CCSS's sums spread past 16 and then past 64 values: its rows, in 2-byte lanes, mask
    # their keys in wider lanes and then index the presence table by intp keys, 2^16 at a
    # time, beside a copy and a buffer of 2 bytes a key; whole 8-byte keys took 8 bytes a key
    w = morphic_fixed_point(Morphism({0: (0, 3), 1: (4, 3), 3: (1,), 4: (0, 1)}), 0)
    L = 10**6
    w.prefix_sums(L)
    gc.collect()
    tracemalloc.start()
    try:
        prof = profile(w, 100, L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * L
    assert {"scan-mask", "table"} <= set(reduction_tiers)
    for n in (1, 20, 100):
        sums = window_sums(w, n, L)
        assert prof.rows[n - 1].count == len(np.unique(sums))
        assert prof.rows[n - 1].spread == int(sums.max() - sums.min())


def test_lattice_keys_whose_prefix_wraps_int64():
    # images spanning 2^20 at n_max = 1024: each letter weighs up to about 2^50, so the
    # key prefix of 10^4 mostly heavy letters passes 2^63, while every key fits; a
    # period of 1009 keeps the distinct images, and so the spreads, few
    rng = np.random.default_rng(16)
    xs = (rng.choice(3, size=1009, p=[0.45, 0.45, 0.1]).tolist() * 10)[:10_000]
    images = {0: (2**20, 7), 1: (2**20 - 3, 2**20), 2: (0, 0)}
    radix = [1024 * 2**20 + 1, 1024 * 2**20 + 1]
    assert sum(images[x][0] * radix[1] + images[x][1] for x in xs) >= 2**63
    w, mu = from_finite(xs), LatticeMap(images)
    prof = profile(w, 1024, len(xs), kind="lattice", mu=mu)
    C = np.concatenate(([[0, 0]], np.cumsum([images[x] for x in xs], axis=0)))  # < 2^34
    for n in (1, 512, 1024):
        row = prof.rows[n - 1]
        seen = set(map(tuple, (C[n:] - C[:-n]).tolist()))
        assert row.count == len(seen) == naive_complexity_oracle(w, mu, n, len(xs))
        assert row.spread == _bruteforce_diameter(seen)
        assert lattice_complexity(w, mu, n, len(xs)) == row.count


def test_kernel_table_guard_at_its_edge(monkeypatch):
    # rows of two key pieces: a (L + 1) x 2 prefix and an L x 2 buffer of 8-byte cells,
    # past the (L + 1) x 2 image table the lattice guard also measures
    w = from_finite([0, 1] * 50)
    mu = LatticeMap({0: (B40, 0), 1: (0, B40 - 1)})
    monkeypatch.setattr(complexity, "_WINDOW_BYTES_LIMIT", 8 * 2 * 201 - 1)
    with pytest.raises(GuardError, match="window keys for L=100"):
        profile(w, 2, 100, kind="lattice", mu=mu)
    monkeypatch.setattr(complexity, "_WINDOW_BYTES_LIMIT", 8 * 2 * 201)
    assert profile(w, 2, 100, kind="lattice", mu=mu).counts() == [2, 1]
    # images that share their coordinate sum key only the first column: one piece
    mu = LatticeMap({0: (B40, 0), 1: (0, B40)})
    monkeypatch.setattr(complexity, "_WINDOW_BYTES_LIMIT", 8 * 201 - 1)
    with pytest.raises(GuardError, match="window keys for L=100"):
        profile(w, 2, 100, kind="lattice", mu=mu)
    monkeypatch.setattr(complexity, "_WINDOW_BYTES_LIMIT", 8 * 201)
    prof = profile(w, 2, 100, kind="lattice", mu=mu)
    assert prof.counts() == [2, 1] and prof.spreads() == [2 * B40**2, 0]
    # symbol sums of letters 0 and 1 at n_max = 1 take byte lanes: a copy of the 101 prefix
    # sums and a buffer of 100 keys, one byte each, from any least letter
    for xs in ([0, 1] * 50, [1, 2] * 50):
        w = from_finite(xs)
        monkeypatch.setattr(complexity, "_WINDOW_BYTES_LIMIT", 201 - 1)
        with pytest.raises(GuardError, match="window keys for L=100"):
            additive_complexity(w, 1, 100)
        monkeypatch.setattr(complexity, "_WINDOW_BYTES_LIMIT", 201)
        assert additive_complexity(w, 1, 100) == 2
    # letters 2^40 apart need 64-bit lanes, which read the cache in place: the buffer alone
    w = from_finite([0, B40] * 50)
    monkeypatch.setattr(complexity, "_WINDOW_BYTES_LIMIT", 8 * 100 - 1)
    with pytest.raises(GuardError, match="window keys for L=100"):
        additive_complexity(w, 1, 100)
    monkeypatch.setattr(complexity, "_WINDOW_BYTES_LIMIT", 8 * 100)
    assert additive_complexity(w, 1, 100) == 2


def test_abelian_profile_holds_no_image_table():
    # thm11:k=2 has five letters: an (L + 1) x 5 table alone would take 40 bytes a letter
    w, L = constant_complexity_word(2), 10**5
    w.prefix_sums(L)
    gc.collect()
    tracemalloc.start()
    try:
        prof = profile(w, 10, L, kind="abelian")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * L
    assert prof.counts()[:3] == [5, 9, 15]


def test_concurrent_profiles_see_the_range_of_what_they_read():
    # letters grow along the word, so every chunk widens the cached range that
    # profile reads without the lock
    xs = [i // 500 for i in range(40_000)]
    expected = {L: profile(from_finite(xs), 3, L) for L in range(2_000, 40_001, 2_000)}
    w, got, interval = from_finite(xs), {}, sys.getswitchinterval()
    threads = [threading.Thread(target=lambda L=L: got.update({L: profile(w, 3, L)}))
               for L in expected]
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == expected


def _decoded_points(monkeypatch):
    """Every point set the kernel decodes for a spread, in the order it reaches the diameter."""
    seen = []
    real = complexity._points_diameter_sq
    monkeypatch.setattr(complexity, "_points_diameter_sq", lambda U: seen.append(U) or real(U))
    return seen


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 3),
    st.lists(st.integers(-50, 50) | st.integers(-50, 50).map(lambda d: d + 2**40)
             | st.integers(-50, 50).map(lambda d: d - 2**40), min_size=3, max_size=3),
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
             min_size=1, max_size=150),
    st.integers(1, 3),
    st.sampled_from([1, 2**40]),
)
def test_distinct_images_with_and_without_a_box_match_unique(t, base, offs, slack, scale):
    # letter i maps to base + scale * offs[i]: bases near +-2^40 and offsets scaled by
    # 2^40 split rows of t >= 2 into pieces; rows n < n_max decode under radices looser
    # than their window range, as a box loose by n_max - n letters
    images = {i: tuple(b + scale * d for b, d in zip(base[:t], off)) for i, off in enumerate(offs)}
    xs = list(range(len(offs))) + list(range(len(offs) - 1, -1, -1))
    w, L = from_finite(xs), len(xs)
    n_max = min(L, slack + 1)
    before = w.prefix_sums(L).copy()
    with pytest.MonkeyPatch.context() as mp:
        points = _decoded_points(mp)
        prof = profile(w, n_max, L, kind="lattice", mu=LatticeMap(images))
    for row, U in zip(prof.rows, points):
        W = np.array([[sum(images[x][c] for x in xs[i : i + row.n]) for c in range(t)]
                      for i in range(L - row.n + 1)], dtype=np.int64)
        expected = np.unique(W, axis=0)
        assert np.array_equal(U[np.lexsort(U.T[::-1])], expected)
        assert row.count == len(expected)
    assert np.array_equal(w.prefix_sums(L), before)  # the kernel writes no cache


@settings(max_examples=60, deadline=None)
@given(words, st.data())
def test_t1_lattice_profile_equals_additive(xs, data):
    w, L = from_finite(xs), len(xs)
    n_max = data.draw(st.integers(1, L))
    add = profile(w, n_max, L)
    lat = profile(w, n_max, L, kind="lattice", mu=LatticeMap.sum_map(Alphabet(xs)))
    assert lat.counts() == add.counts()
    assert lat.spreads() == [s * s for s in add.spreads()]


@pytest.mark.parametrize(
    "D, t, span", [(513, 2, 100), (800, 2, 100), (600, 3, 100), (777, 3, 2**30), (1, 2, 100)]
)
def test_diameter_block_path_matches_bruteforce(D, t, span, monkeypatch):
    # span 2^30 at t = 3 keeps t * span^2 under 2^62, so the numpy path runs
    rng = np.random.default_rng(D)
    U = rng.integers(-span // 2, span // 2, size=(D, t))
    expected = _bruteforce_diameter(map(tuple, U.tolist()))
    assert _points_diameter_sq(U) == expected
    # one block row at a time
    monkeypatch.setattr(complexity, "_DIAMETER_BLOCK_BYTES", 64)
    assert _points_diameter_sq(U) == expected


def test_diameter_overflow_fallback_matches_bruteforce(monkeypatch):
    rng = np.random.default_rng(5)
    U = rng.integers(-(2**31), 2**31, size=(40, 3))
    assert 3 * (int(U.max()) - int(U.min())) ** 2 >= 2**62
    expected = _bruteforce_diameter(map(tuple, U.tolist()))
    assert _points_diameter_sq(U) == expected
    # blocks of three rows: the last one is short
    monkeypatch.setattr(complexity, "_DIAMETER_BLOCK_BYTES", 16 * 40 * 3)
    assert _points_diameter_sq(U) == expected


def test_diameter_refuses_too_many_points():
    U = np.stack([np.arange(100_001), np.zeros(100_001, dtype=np.int64)], axis=1)
    with pytest.raises(GuardError):
        _points_diameter_sq(U)


def test_unpacked_t1_rows_reduce_to_their_set(monkeypatch):
    # images near +-2^60 pass the overflow guard only up to L = 3; their keys span
    # 2^61 - 2 values over at most 3 windows, so they take the sort and decode exactly
    B = 2**60 - 1
    mu = LatticeMap({0: (B,), 1: (0,), 2: (-B,)})
    points = _decoded_points(monkeypatch)
    assert lattice_spread(from_finite([2, 1, 0]), mu, 1, 3) == (2 * B) ** 2
    assert points[0][:, 0].tolist() == [-B, 0, B]
    with pytest.raises(GuardError):
        lattice_spread(from_finite([2, 1, 0, 1]), mu, 1, 4)


def test_diameter_overflow_fallback_refuses_too_many_pairs():
    # 1100 points are 604450 pairs, past the pair guard of the Python fallback
    rng = np.random.default_rng(5)
    U = rng.integers(-(2**31), 2**31, size=(1100, 3))
    with pytest.raises(GuardError):
        _points_diameter_sq(U)


def test_multi_piece_count_gathers_no_distinct_rows():
    # 66 letters at n = 1000 need 11 key pieces; the count is read off the lexsort mask,
    # so beside the key prefix and its buffer it holds less than the distinct rows would
    w, L, n = enumeration_word(65), 10**5, 1000
    w.prefix_sums(L)
    gc.collect()
    tracemalloc.start()
    try:
        count = abelian_complexity(w, n, L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    pieces = 11
    assert len(complexity._pieces([n + 1] * 66)) == pieces
    assert peak - (2 * L + 1) * pieces * 8 < count * pieces * 8  # 11.1 MB past it when gathered
    assert count == 97195
