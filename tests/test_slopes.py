import gc
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from wordsums import (
    GuardError,
    block_slope,
    chi,
    chi_factorization,
    chi_sequence,
    constant_complexity_word,
    deviation_constant,
    factors_with_slope,
    find_anchored_power,
    from_finite,
    greedy_slope_cuts,
    periodic,
    slope_estimate,
    unbounded_gap_word,
)
from wordsums import complexity


def test_slope_estimate_periodic():
    est = slope_estimate(periodic([0, 1]), 64)
    assert est[0] == (1, Fraction(0))
    assert est[-1] == (64, Fraction(1, 2))
    ns = [n for n, _ in est]
    assert ns == [1, 2, 4, 8, 16, 32, 64]


def test_deviation_constant_alternating():
    dev = deviation_constant(periodic([0, 1]), Fraction(1, 2), 1000)
    assert dev.constant == Fraction(1, 2)
    # deviation against the wrong slope grows with L instead
    worse = deviation_constant(periodic([0, 1]), Fraction(1, 3), 999)
    assert worse.constant > 50


def test_chi_values():
    w = periodic([0, 1])
    assert [chi(w, Fraction(1, 2), m) for m in range(5)] == [0, 0, 0, 0, 0]
    assert chi(w, Fraction(1, 2), 0) == 0
    ug = unbounded_gap_word()
    assert chi_sequence(ug, 1, 8).tolist() == [-1, -1, 0, -1, -1, 0, -1, -1]
    w2 = periodic([1, 0])
    assert [chi(w2, Fraction(1, 2), m) for m in range(1, 5)] == [0, 0, 0, 0]
    assert chi(periodic([1, 1, 0]), Fraction(2, 3), 2) == 0


def test_chi_rejects_bad_args():
    with pytest.raises(ValueError):
        chi(periodic([0, 1]), Fraction(1, 2), -1)
    with pytest.raises(ValueError):
        chi_sequence(periodic([0, 1]), Fraction(1, 2), 0)
    with pytest.raises(GuardError):
        chi_sequence(periodic([0]), 2**61, 2)  # m*p reaches 2^62
    w = periodic([0, 1])
    with pytest.raises(GuardError):  # refused before a million symbols are read
        chi_sequence(w, Fraction(2**61), 10**6)
    assert "materialized=0" in repr(w)


def test_slopes_must_be_exact():
    w = periodic([0, 1])
    with pytest.raises(ValueError, match="exact rational"):
        deviation_constant(w, 0.4, 100)
    with pytest.raises(ValueError, match="exact rational"):
        chi(w, np.float64(0.5), 2)
    for alpha in (Fraction(1, 2), 1, np.int64(1)):
        assert deviation_constant(w, alpha, 100).alpha == alpha


def _chi_oracle(xs, alpha, m_max):
    """P[m q] - m p for m = 1..m_max, in Python ints."""
    p, q = alpha.numerator, alpha.denominator
    return [sum(xs[: m * q]) - m * p for m in range(1, m_max + 1)]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(-5, 5), min_size=1, max_size=400),
    st.integers(-100, 100),
    st.integers(1, 50),
    st.booleans(),
    st.data(),
)
def test_chi_sequence_matches_oracle(xs, p, q, whole, data):
    alpha = Fraction(p, q)
    q = alpha.denominator
    assume(len(xs) >= q)
    m_max = len(xs) // q
    if whole:  # the word ends exactly at m_max * q: the last color reads its last sum
        xs = xs[: m_max * q]
    else:
        m_max = data.draw(st.integers(1, m_max))
    assert chi_sequence(from_finite(xs), alpha, m_max).tolist() == _chi_oracle(xs, alpha, m_max)


def _bruteforce_anchored(xs, alpha, k, count, L):
    """The first (start, block length, value) of `count` blocks at a monochromatic
    progression of chi with k | gap, start ascending, then gap, as a reference scan."""
    p, q = alpha.numerator, alpha.denominator
    c = _chi_oracle(xs, alpha, L // q) if L >= q else []
    for a in range(1, len(c) + 1):
        for g in range(k, (len(c) - a) // count + 1, k):
            if all(c[a - 1 + j * g] == c[a - 1] for j in range(1, count + 1)):
                return q * a + 1, g * q, g * p
    return None


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 2000),
    st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1), Fraction(3, 5)]),
    st.integers(1, 3),
    st.integers(2, 4),
    st.randoms(use_true_random=False),
)
def test_anchored_power_matches_bruteforce(L, alpha, k, count, rnd):
    # letters 0 and 1 drawn with the slope's odds, so chi drifts slowly and repeats
    xs = [int(rnd.random() < alpha) for _ in range(L)]
    wit = find_anchored_power(from_finite(xs), alpha, k, count, L)
    got = wit and (wit.start, wit.block_length, wit.value)
    assert got == _bruteforce_anchored(xs, alpha, k, count, L)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(-2, 3), min_size=8, max_size=60),
    st.integers(-2, 3),
    st.integers(1, 3),
    st.data(),
)
def test_chi_equality_is_block_slope(xs, p, q, data):
    """chi(n) == chi(m) exactly when w(nq+1..mq) has slope p/q."""
    alpha = Fraction(p, q)
    w = from_finite(xs)
    m_max = len(xs) // alpha.denominator
    if m_max < 2:
        return
    n = data.draw(st.integers(1, m_max - 1))
    m = data.draw(st.integers(n + 1, m_max))
    q_ = alpha.denominator
    same = chi(w, alpha, n) == chi(w, alpha, m)
    assert same == (block_slope(w, n * q_ + 1, m * q_) == alpha)


def test_chi_factorization_blocks_have_the_slope():
    w = constant_complexity_word(1)
    fact = chi_factorization(w, 1, 5000)
    assert fact.color == 0
    assert fact.prefix_end == fact.cuts[0]
    for a, b in zip(fact.cuts[:50], fact.cuts[1:51]):
        assert block_slope(w, a + 1, b) == 1


def test_chi_factorization_tie_goes_to_smallest_color():
    # (1 1 0 0)^inf at slope 1/2: chi(m) alternates 1, 0, 1, 0, ...
    w = periodic([1, 1, 0, 0])
    fact = chi_factorization(w, Fraction(1, 2), 16)
    # m_max = 8 gives four 1s and four 0s; the tie resolves to color 0
    assert fact.color == 0
    assert fact.cuts == (4, 8, 12, 16)


def test_chi_factorization_needs_one_block():
    with pytest.raises(ValueError):
        chi_factorization(periodic([0, 1]), Fraction(1, 2), 1)


@pytest.mark.parametrize("call, message", [
    (lambda: slope_estimate(periodic([0, 1]), 0), "need L >= 1"),
    (lambda: greedy_slope_cuts(periodic([0, 1]), Fraction(1, 2), 0, 10), "start must be >= 1"),
    (lambda: greedy_slope_cuts(periodic([0, 1]), Fraction(1, 2), 5, 4), "need L >= start"),
], ids=["slope-estimate-L-0", "greedy-start-0", "greedy-L-below-start"])
def test_refusals_name_their_cause(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_greedy_cuts_alternating():
    g = greedy_slope_cuts(periodic([0, 1]), Fraction(1, 2), 1, 20)
    assert g.cuts == (2, 4, 6, 8, 10, 12, 14, 16, 18, 20)
    assert g.gaps == (2,) * 10
    assert g.max_gap() == 2
    assert not g.truncated


def test_greedy_cuts_from_inner_start():
    g = greedy_slope_cuts(periodic([0, 1]), Fraction(1, 2), 2, 21)
    # blocks starting at position 2 ("1 0" blocks): cuts at odd positions
    assert g.cuts == (3, 5, 7, 9, 11, 13, 15, 17, 19, 21)
    assert g.gaps[0] == 3 - 2 + 1


def test_greedy_cuts_truncated_flag():
    g = greedy_slope_cuts(periodic([0, 1]), Fraction(5, 1), 1, 50)
    assert g.truncated
    assert g.cuts == ()
    with pytest.raises(ValueError):
        g.max_gap()


def test_greedy_cut_blocks_have_the_slope():
    ug = unbounded_gap_word()
    g = greedy_slope_cuts(ug, 1, 1, 2000)
    assert not g.truncated
    prev = 0
    for c in g.cuts[:40]:
        assert block_slope(ug, prev + 1, c) == 1
        prev = c


def _bruteforce_slope_factors(xs, alpha, n_max):
    found = set()
    for n in range(1, n_max + 1):
        for i in range(len(xs) - n + 1):
            blk = tuple(xs[i : i + n])
            if Fraction(sum(blk), n) == alpha:
                found.add(blk)
    return len(found)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(-2, 2), min_size=4, max_size=50),
    st.integers(-2, 2),
    st.integers(1, 3),
    st.integers(1, 8),
    st.sampled_from([0, -7, 5, 2**40]),
)
def test_factors_with_slope_matches_bruteforce(xs, p, q, n_max, late):
    # the letter past L widens the box the rows are packed under, not the rows
    alpha = Fraction(p, q)
    n_max = min(n_max, len(xs))
    w = from_finite(xs + [late])
    w.prefix(len(xs) + 1)
    assert factors_with_slope(w, alpha, len(xs), n_max) == _bruteforce_slope_factors(
        xs, alpha, n_max
    )


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.sampled_from([-(2**40), -1, 0, 1, 2**40]), min_size=4, max_size=50),
    st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(1)]),
    st.integers(2, 8),
)
def test_factors_with_slope_on_unpacked_rows(xs, alpha, n_max):
    # at slope 0 the head's rows (B, -B) and (-B, B) span (2^41 + 1)^2 > 2^62,
    # so those counts always take one key piece per letter; slope 1/3 often does
    xs = [2**40, -(2**40), -(2**40), 2**40] + xs
    n_max = min(n_max, len(xs))
    w = from_finite(xs)
    assert factors_with_slope(w, alpha, len(xs), n_max) == _bruteforce_slope_factors(
        xs, alpha, n_max
    )


def test_packed_slope_count_is_not_refused_by_its_rows(monkeypatch):
    # 8 * 60 * 8 bytes of factor rows are past the lowered guard; binary rows pack
    # into one key each and are counted, while wider key tables are still refused
    monkeypatch.setattr(complexity, "_WINDOW_BYTES_LIMIT", 1000)
    xs = [bin(i).count("1") % 2 for i in range(60)]
    half = Fraction(1, 2)
    got = factors_with_slope(from_finite(xs), half, 60, 8)
    assert got == _bruteforce_slope_factors(xs, half, 8) > 0
    # letters +-2^40 take one piece each, and the first length of slope 0 past the guard
    # is n = 4, whose table of 57 * 4 pieces needs 1824 > 1000 bytes
    with pytest.raises(GuardError):
        factors_with_slope(from_finite([2**40, -(2**40)] * 30), 0, 60, 8)


def test_scaled_prefix_guard():
    w = periodic([10**9])
    with pytest.raises(GuardError):
        deviation_constant(w, Fraction(1, 10**9), 100_000)


def test_scaled_prefix_guards_a_denominator_past_int64():
    # prefix sums all 0 make q * bound vanish; q itself must still fit int64
    w = periodic([0])
    for q in (2**70, 2**62):
        with pytest.raises(GuardError):
            deviation_constant(w, Fraction(1, q), 10)
        with pytest.raises(GuardError):
            greedy_slope_cuts(w, Fraction(1, q), 1, 10)
    with pytest.raises(GuardError):
        deviation_constant(w, Fraction(2**70, 3), 0)  # p * j with j = [0]
    assert deviation_constant(w, Fraction(1, 2**62 - 1), 10).constant == Fraction(10, 2**62 - 1)
    assert greedy_slope_cuts(w, Fraction(1, 2**62 - 1), 1, 10).truncated


def test_scaled_prefix_is_built_in_place():
    # E = q*P - p*j is one array: no (L + 1)-sized temporaries beside it when q = 1
    w, L = constant_complexity_word(2), 10**6
    w.prefix_sums(L)
    gc.collect()
    tracemalloc.start()
    try:
        dev = deviation_constant(w, 2, L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * (L + 1)
    P = w.prefix_sums(L)
    E = P - 2 * np.arange(L + 1)
    assert dev.constant == int(E.max() - E.min())
