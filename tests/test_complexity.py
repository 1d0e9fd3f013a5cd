import itertools
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wordsums import (
    Alphabet,
    FiniteWord,
    GuardError,
    LatticeMap,
    abelian_complexity,
    additive_complexity,
    enumeration_word,
    factor_set_intersection,
    find_kpower_mod_mu,
    from_finite,
    lattice_complexity,
    lattice_spread,
    naive_complexity_oracle,
    parikh,
    periodic,
    profile,
    sum_spread,
    window_sums,
)
from wordsums import complexity
from wordsums.complexity import _distinct_images, _points_diameter_sq, pack_rows

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


def test_image_table_past_the_memory_guard_is_refused(monkeypatch):
    # an (L + 1) x t table of 8-byte images; t = 4 at L = 1000 takes 32032 bytes
    monkeypatch.setattr(complexity, "_WINDOW_BYTES_LIMIT", 32_000)
    w = enumeration_word(3)
    with pytest.raises(GuardError):
        profile(w, 1, 1000, kind="abelian")
    with pytest.raises(GuardError):
        lattice_complexity(w, LatticeMap.parikh_map(w.alphabet), 1, 1000)
    with pytest.raises(GuardError):
        find_kpower_mod_mu(w, LatticeMap.parikh_map(w.alphabet), 2, 1000)
    assert "materialized=0" in repr(w)  # refused before reading a symbol
    assert profile(w, 1, 998, kind="abelian").counts() == [4]  # 31968 bytes fit


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
    w = periodic([1, 0, 2, 1])
    mu = LatticeMap.sum_map(Alphabet([0, 1, 2]))
    for n in (1, 2, 3, 7):
        assert lattice_complexity(w, mu, n, 500) == additive_complexity(w, n, 500)


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


def test_oracle_guard():
    with pytest.raises(GuardError):
        naive_complexity_oracle(periodic([0, 1]), None, 2, 20_001)


def test_window_table_guard():
    # 1000 * 30000 * 8 bytes of factor rows is past the 2e8-byte guard
    with pytest.raises(GuardError):
        factor_set_intersection(periodic([0, 1]), periodic([1, 0]), 1000, 30_000)


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


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda t: st.lists(
            st.lists(st.integers(-5, 5), min_size=t, max_size=t), min_size=1, max_size=8
        )
    )
)
def test_pack_rows_separates_row_differences(rows):
    C = np.array(rows, dtype=np.int64)
    K = pack_rows(C)
    pairs = list(itertools.product(range(len(rows)), repeat=2))
    for (i, j), (k, l) in itertools.product(pairs, repeat=2):
        same_rows = np.array_equal(C[j] - C[i], C[l] - C[k])
        assert same_rows == (K[j] - K[i] == K[l] - K[k])


def test_pack_rows_refuses_keys_past_int64():
    C = np.array([[0, 0], [2**40, 2**40]], dtype=np.int64)
    assert pack_rows(C) is None


# -- the distinct-count kernel, one test per branch ------------------------

B40, B30 = 2**40, 2**30


def _branch(windows):
    """The branch the kernel takes on these window images, by its rule;
    "bincount" is the presence table, sized by the radix product."""
    radix = 1
    for col in zip(*windows):
        radix *= max(col) - min(col) + 1
    if radix >= 2**62:
        return "rows"
    return "bincount" if radix <= len(windows) else "sort"


def _check_profile(xs, kind, n_max, branch, images=None, branch_from=1):
    """Every row of profile(kind) against the oracle and a brute-force spread.

    Rows n >= branch_from must also take the given kernel branch, unless it is None.
    """
    w, L = from_finite(xs), len(xs)
    mu = LatticeMap(images) if kind == "lattice" else None
    prof = profile(w, n_max, L, kind=kind, mu=mu)
    if kind == "additive":
        imgs, oracle_mu = [(x,) for x in xs], None
    else:
        oracle_mu = mu or LatticeMap.parikh_map(Alphabet(xs))
        imgs = [oracle_mu.images[x] for x in xs]
    assert [r.n for r in prof.rows] == list(range(1, n_max + 1))
    for row in prof.rows:
        n = row.n
        windows = [tuple(map(sum, zip(*imgs[i : i + n]))) for i in range(L - n + 1)]
        assert branch is None or n < branch_from or _branch(windows) == branch
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


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 3),
    st.lists(st.integers(-50, 50), min_size=3, max_size=3),
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
             min_size=1, max_size=150),
    st.lists(st.integers(0, 2), min_size=6, max_size=6),
)
def test_distinct_images_with_and_without_a_box_match_unique(t, base, offs, slack):
    W = np.array(offs, dtype=np.int64)[:, :t] + np.array(base[:t], dtype=np.int64)
    lo, hi = W.min(axis=0).tolist(), W.max(axis=0).tolist()
    # a box loose by 0..2 on each side, which may or may not fit len(W), and a
    # zero lower corner, where t = 1 keys are the images themselves
    loose = ([x - a for x, a in zip(lo, slack)], [x + b for x, b in zip(hi, slack[3:])])
    for V, box in ((W, None), (W, loose), (W - lo, ([0] * t, [h - l for l, h in zip(lo, hi)]))):
        before = V.copy()
        expected = np.unique(V, axis=0)
        assert np.array_equal(_distinct_images(V, box), expected)
        assert complexity._distinct_count(V) == len(expected)
        assert np.array_equal(V, before)


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
    "D, t, span", [(513, 2, 100), (800, 2, 100), (600, 3, 100), (777, 3, 2**30)]
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


def test_unpacked_t1_rows_reduce_to_their_set():
    # no profile reaches this: the prefix guard keeps window-sum ranges under
    # max|s| * L < 2^62; the spread of these rows is 2^63, past int64
    W = np.array([[2**62], [0], [-(2**62)], [0], [2**62]], dtype=np.int64)
    U = _distinct_images(W)
    assert sorted(U[:, 0].tolist()) == [-(2**62), 0, 2**62]
    assert int(U.max()) - int(U.min()) == 2**63


def test_diameter_overflow_fallback_refuses_too_many_pairs():
    # 1100 points are 604450 pairs, past the pair guard of the Python fallback
    rng = np.random.default_rng(5)
    U = rng.integers(-(2**31), 2**31, size=(1100, 3))
    with pytest.raises(GuardError):
        _points_diameter_sq(U)
