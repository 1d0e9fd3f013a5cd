from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wordsums import (
    Alphabet,
    GuardError,
    LatticeMap,
    Morphism,
    PowerWitness,
    constant_complexity_word,
    find_additive_kpower,
    find_anchored_power,
    find_kpower_mod_mu,
    from_finite,
    monochromatic_ap,
    morphic_fixed_point,
    periodic,
    verify_power,
)
from wordsums.complexity import image_prefix_sums, pack_rows


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
)
def test_kpower_past_a_power_free_prefix(quiet, tail, k):
    # distinct powers of two >= 2**12 outweigh any tail block, so no power
    # starts inside the quiet prefix and the scan must look past it
    xs = [2 ** (12 + i) for i in range(quiet)] + tail
    wit = find_additive_kpower(from_finite(xs), k, len(xs))
    brute = _bruteforce_kpower(xs, k)
    assert (wit and (wit.start, wit.block_length)) == brute


def test_witness_just_past_the_first_starts():
    # powers of two have no additive square; the one planted square starts at 17
    xs = [2**i for i in range(16)] + [7, 7] + [2**i for i in range(20, 26)]
    wit = find_additive_kpower(from_finite(xs), 2, len(xs))
    assert (wit.start, wit.block_length) == (17, 1) == _bruteforce_kpower(xs, 2)
    colors = list(range(40))
    colors[19] = colors[16]
    assert monochromatic_ap(colors, 2) == (17, 3) == _bruteforce_ap(colors, 2, 1)


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
    st.lists(st.integers(0, 3), min_size=2, max_size=200),
    st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=4, max_size=4),
    st.integers(2, 4),
)
def test_mod_mu_matches_bruteforce(xs, imgs, k):
    _check_mod_mu_against_bruteforce(xs, dict(enumerate(imgs)), k)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 2), max_size=100), st.integers(2, 3))
def test_mod_mu_unpacked_rows_match_bruteforce(tail, k):
    # images near 2**40 in both columns leave no room for a packed int64 key per row
    xs = [0, 1] + tail
    images = {0: (2**40, 1), 1: (1, 2**40), 2: (2**40 - 1, 2**40)}
    C = image_prefix_sums(from_finite(xs), LatticeMap(images), len(xs))
    assert pack_rows(C) is None
    _check_mod_mu_against_bruteforce(xs, images, k)


@pytest.mark.parametrize(
    "rules, k, L, abelian",
    [
        # Cassaigne-Currie-Schaeffer-Shallit: no additive cube
        ({0: (0, 3), 1: (4, 3), 3: (1,), 4: (0, 1)}, 3, 3000, False),
        # Dekking 1979: no abelian 4th power (binary), no abelian cube (ternary)
        ({0: (0, 0, 0, 1), 1: (0, 1, 1)}, 4, 2000, True),
        ({0: (0, 0, 1, 2), 1: (1, 1, 2), 2: (0, 2, 2)}, 3, 2000, True),
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
)
def test_monochromatic_ap_past_a_distinct_prefix(quiet, tail, terms, k):
    colors = list(range(100, 100 + quiet)) + tail
    assert monochromatic_ap(colors, terms, k) == _bruteforce_ap(colors, terms, k)


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
