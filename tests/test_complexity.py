import itertools

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
    factor_set_intersection,
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
from wordsums.complexity import pack_rows

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


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 2), min_size=4, max_size=60),
    st.lists(st.integers(0, 2), min_size=4, max_size=60),
    st.integers(1, 4),
)
def test_intersection_matches_bruteforce(xs, ys, n):
    w1, w2 = from_finite(xs), from_finite(ys)
    L = min(len(xs), len(ys))
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
