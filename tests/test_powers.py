from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wordsums import (
    Alphabet,
    GuardError,
    LatticeMap,
    PowerWitness,
    constant_complexity_word,
    find_additive_kpower,
    find_anchored_power,
    find_kpower_mod_mu,
    from_finite,
    monochromatic_ap,
    periodic,
    verify_power,
)


def _bruteforce_kpower(xs, k):
    L = len(xs)
    for start in range(1, L - k + 2):
        for b in range(1, (L - start + 1) // k + 1):
            sums = [
                sum(xs[start - 1 + i * b : start - 1 + (i + 1) * b]) for i in range(k)
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
@given(st.lists(st.integers(-2, 2), min_size=2, max_size=40), st.integers(2, 4))
def test_kpower_matches_bruteforce(xs, k):
    w = from_finite(xs)
    wit = find_additive_kpower(w, k, len(xs))
    brute = _bruteforce_kpower(xs, k)
    if brute is None:
        assert wit is None
    else:
        assert (wit.start, wit.block_length) == brute
        assert verify_power(w, wit)


def test_kpower_arg_checks():
    w = periodic([0, 1])
    with pytest.raises(ValueError):
        find_additive_kpower(w, 1, 100)
    assert find_additive_kpower(w, 3, 2) is None  # cannot fit: clean negative
    with pytest.raises(GuardError):
        find_additive_kpower(w, 2, 2_000_000)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=3, max_size=30), st.integers(2, 3))
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
    st.lists(st.integers(0, 3), min_size=2, max_size=50),
    st.integers(2, 5),
    st.integers(1, 3),
)
def test_monochromatic_ap_matches_bruteforce(colors, terms, k):
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


def test_anchored_power_absent():
    # constant word at the wrong slope: no monochromatic progression can
    # exist because every chi value is distinct
    w = periodic([1])
    assert find_anchored_power(w, Fraction(1, 2), 1, 2, 40) is None


def test_verify_power_rejects_wrong_witness(thue_morse):
    bogus = PowerWitness(start=1, block_length=1, count=2, value=0)
    assert not verify_power(thue_morse, bogus)
