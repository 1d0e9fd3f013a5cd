"""Slopes of factors, deviation constants, and the chi coloring.

For a word of rational slope alpha = p/q the coloring
chi(m) = sum(w(1..mq)) - m*p is integer-valued, and chi(n) = chi(m)
exactly when the block w(nq+1 .. mq) has slope alpha.  That identity
turns slope questions into equalities of the integers E(j) = q*P(j) - p*j,
which is how everything below avoids floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from .complexity import _check_window, _factor_keys, window_sums
from .core import _SUM_LIMIT, GuardError, WordStream, _sorted_distinct, word_slope

Rational = Union[int, Fraction]


def _as_fraction(alpha: Rational) -> Fraction:
    if isinstance(alpha, float):
        raise ValueError(f"slope must be an exact rational, got {alpha!r}")
    return Fraction(alpha)


def _scaled_prefix(w: WordStream, alpha: Fraction, L: int) -> np.ndarray:
    """E[j] = q*P[j] - p*j for j = 0..L, exact in int64."""
    p, q = alpha.numerator, alpha.denominator
    P = w.prefix_sums(L)
    bound = abs(int(P.max())) + abs(int(P.min()))
    # q * P and p * j take q and p as int64 scalars, even when P or j is all 0
    if max(q, abs(p)) >= _SUM_LIMIT or q * bound + abs(p) * L >= _SUM_LIMIT:
        raise GuardError("q*P - p*j may overflow int64; reduce L or the slope")
    E = np.arange(L + 1, dtype=np.int64)
    E *= -p
    E += P if q == 1 else q * P
    return E


def slope_estimate(w: WordStream, L: int) -> list[tuple[int, Fraction]]:
    """Prefix slopes sum(w(1..n))/n at n = 1, 2, 4, ... and n = L."""
    if L < 1:
        raise ValueError("need L >= 1")
    ns = []
    n = 1
    while n < L:
        ns.append(n)
        n *= 2
    ns.append(L)
    P = w.prefix_sums(L)
    return [(n, Fraction(int(P[n]), n)) for n in ns]


@dataclass(frozen=True)
class DeviationStats:
    alpha: Fraction
    prefix_length: int
    constant: Fraction      # max over factors B of |sum(B) - alpha*|B||


def deviation_constant(w: WordStream, alpha: Rational, L: int) -> DeviationStats:
    """Largest |sum(B) - alpha*|B|| over factors of the length-L prefix.

    Equals (max E - min E)/q: any factor's deviation is a difference of
    two E values, and the extremes are attained by an actual factor.
    A finite constant M bounds every factor's slope within M/|B| of alpha.
    """
    a = _as_fraction(alpha)
    E = _scaled_prefix(w, a, L)
    return DeviationStats(a, L, Fraction(int(E.max() - E.min()), a.denominator))


def chi(w: WordStream, alpha: Rational, m: int) -> int:
    """chi(m) = sum(w(1..mq)) - m*p for alpha = p/q in lowest terms."""
    a = _as_fraction(alpha)
    if m < 0:
        raise ValueError("chi is defined for m >= 0")
    P = w.prefix_sums(m * a.denominator)
    return int(P[m * a.denominator]) - m * a.numerator


def chi_sequence(w: WordStream, alpha: Rational, m_max: int) -> np.ndarray:
    """chi(1..m_max) as an int64 array: -m * p plus the strided view P[q::q] of the cached
    prefix sums, so the answer is the one array built, with no index array or gather."""
    a = _as_fraction(alpha)
    if m_max < 1:
        raise ValueError("need m_max >= 1")
    p, q = a.numerator, a.denominator
    if abs(p) * m_max >= _SUM_LIMIT:
        raise GuardError("m*p may overflow int64")
    P = w.prefix_sums(m_max * q)
    colors = np.arange(1, m_max + 1, dtype=np.int64)
    colors *= -p
    colors += P[q::q]
    return colors


def block_slope(w: WordStream, a: int, b: int) -> Fraction:
    """Exact slope of the factor w(a..b)."""
    return word_slope(w.factor(a, b))


@dataclass(frozen=True)
class SlopeFactorization:
    """Cut positions x_i*q splitting w into A B_1 B_2 ... with slope(B_i) = alpha."""

    alpha: Fraction
    color: int              # the chi value shared by all cuts
    cuts: tuple[int, ...]   # positions x_i * q, strictly increasing

    @property
    def prefix_end(self) -> int:
        return self.cuts[0]


def chi_factorization(w: WordStream, alpha: Rational, L: int) -> SlopeFactorization:
    """Cut w at every m*q whose chi(m) equals the most frequent color.

    Between consecutive cuts the factor has slope exactly alpha, because
    its endpoints share one chi value.  Ties between equally frequent
    colors go to the smallest.  Needs L >= q.
    """
    a = _as_fraction(alpha)
    m_max = L // a.denominator
    if m_max < 1:
        raise ValueError(f"prefix length {L} is shorter than one q-block")
    colors = chi_sequence(w, a, m_max)
    values, counts = np.unique(colors, return_counts=True)
    color = int(values[np.argmax(counts)])
    cuts = (np.flatnonzero(colors == color) + 1) * a.denominator
    return SlopeFactorization(a, color, tuple(cuts.tolist()))


@dataclass(frozen=True)
class GreedyCuts:
    """Shortest-first equal-slope cuts starting at position start."""

    alpha: Fraction
    start: int
    cuts: tuple[int, ...]   # end positions j with slope(w(start..j)) = alpha
    gaps: tuple[int, ...]   # block lengths between consecutive cuts
    truncated: bool         # no cut existed within the scanned prefix

    def max_gap(self) -> int:
        if not self.gaps:
            raise ValueError("no cuts found; gaps are empty")
        return max(self.gaps)


def greedy_slope_cuts(w: WordStream, alpha: Rational, start: int, L: int) -> GreedyCuts:
    """All end positions j <= L with slope(w(start..j)) = alpha, in order.

    The greedy shortest-cut sequence: the first cut is the least such j,
    and each later block continues from the previous cut, which makes the
    cut set exactly { j : E(j) = E(start-1) }.  An empty cut set is
    returned flagged, not raised.
    """
    if start < 1:
        raise ValueError("start must be >= 1")
    if L < start:
        raise ValueError("need L >= start")
    a = _as_fraction(alpha)
    E = _scaled_prefix(w, a, L)
    cuts = np.flatnonzero(E[start:] == E[start - 1]) + start
    gaps = np.diff(cuts, prepend=start - 1)
    return GreedyCuts(
        a, start, tuple(cuts.tolist()), tuple(gaps.tolist()), truncated=cuts.size == 0
    )


def factors_with_slope(w: WordStream, alpha: Rational, L: int, n_max: int) -> int:
    """Count distinct factors of length <= n_max and slope exactly alpha.

    Only lengths divisible by alpha's denominator can qualify; candidate
    windows are located through the window kernel, and the distinct keys of
    their rows, packed under the word's letter box, are counted.
    """
    _check_window(n_max, L)
    a = _as_fraction(alpha)
    p, q = a.numerator, a.denominator
    prefix = w.prefix(L)
    total = 0
    for n in range(q, n_max + 1, q):
        hits = np.flatnonzero(window_sums(w, n, L) == p * (n // q))
        if hits.size:
            total += len(_sorted_distinct(_factor_keys(prefix, n, w._lo, w._hi)[hits]))
    return total
