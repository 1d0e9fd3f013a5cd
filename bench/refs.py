"""Pure-Python referees for the correctness gate.

Each function recomputes, from a reference symbol list, what a wordsums
call should return, in the normalized form the workloads digest results
into.  Nothing here calls the package except `oracle_count`, which
wraps the package's own brute-force oracle.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from typing import Optional, Sequence


def prefix_sums(syms: Sequence[int]) -> list[int]:
    return list(itertools.accumulate(syms, initial=0))


def _diameter_sq(points) -> int:
    pts = list(points)
    best = 0
    for i, a in enumerate(pts):
        for b in pts[i + 1:]:
            d = sum((x - y) ** 2 for x, y in zip(a, b))
            if d > best:
                best = d
    return best


def profile_row(syms: Sequence[int], n: int, images: Optional[dict] = None) -> tuple:
    """(n, count, spread) by a sliding window over the symbols.

    images=None sums symbols (spread max - min); otherwise each symbol
    maps to a vector and spread is the max squared distance.
    """
    L = len(syms)
    if images is None:
        s = sum(syms[:n])
        seen = {s}
        for i in range(n, L):
            s += syms[i] - syms[i - n]
            seen.add(s)
        return n, len(seen), max(seen) - min(seen)
    vecs = [images[s] for s in syms]
    t = len(vecs[0])
    cur = [sum(v[j] for v in vecs[:n]) for j in range(t)]
    seen = {tuple(cur)}
    for i in range(n, L):
        add, drop = vecs[i], vecs[i - n]
        for j in range(t):
            cur[j] += add[j] - drop[j]
        seen.add(tuple(cur))
    return n, len(seen), _diameter_sq(seen)


def parikh_images(syms: Sequence[int]) -> dict:
    letters = sorted(set(syms))
    return {s: tuple(int(s == u) for u in letters) for s in letters}


def oracle_count(stream, mu, n: int, L: int) -> int:
    from wordsums import naive_complexity_oracle

    return naive_complexity_oracle(stream, mu, n, L)


def slope_estimate(P: Sequence[int], L: int) -> tuple:
    ns, n = [], 1
    while n < L:
        ns.append(n)
        n *= 2
    ns.append(L)
    return tuple((n, Fraction(P[n], n)) for n in ns)


def _scaled(P: Sequence[int], alpha: Fraction, L: int) -> list[int]:
    p, q = alpha.numerator, alpha.denominator
    return [q * P[j] - p * j for j in range(L + 1)]


def deviation_constant(P, alpha: Fraction, L: int) -> Fraction:
    E = _scaled(P, alpha, L)
    return Fraction(max(E) - min(E), alpha.denominator)


def chi_factorization(P, alpha: Fraction, L: int) -> tuple:
    q = alpha.denominator
    colors = chi_colors(P, alpha, L // q)
    freq = Counter(colors)
    top = max(freq.values())
    color = min(c for c, f in freq.items() if f == top)
    cuts = tuple((m + 1) * q for m, c in enumerate(colors) if c == color)
    return alpha, color, len(cuts), hash(cuts)


def greedy_slope_cuts(P, alpha: Fraction, L: int) -> tuple:
    E = _scaled(P, alpha, L)
    cuts = tuple(j for j in range(1, L + 1) if E[j] == E[0])
    gaps = tuple(b - a for a, b in zip((0,) + cuts, cuts))
    return alpha, len(cuts), hash(cuts), hash(gaps), not cuts


def chi_colors(P, alpha: Fraction, m_max: int) -> list[int]:
    p, q = alpha.numerator, alpha.denominator
    return [P[m * q] - m * p for m in range(1, m_max + 1)]


def first_additive_power(P, k: int, L: int) -> Optional[tuple]:
    """Lexicographically first (start, b) run of k equal-sum blocks."""
    for start in range(1, L - k + 2):
        base = start - 1
        for b in range(1, (L - start + 1) // k + 1):
            v = P[base + b] - P[base]
            if all(P[base + (j + 1) * b] - P[base + j * b] == v for j in range(1, k)):
                return start, b, k, v
    return None


def first_anchored_power(P, alpha: Fraction, k: int, count: int, L: int) -> Optional[tuple]:
    p, q = alpha.numerator, alpha.denominator
    m_max = L // q
    if m_max < count + 1:
        return None
    c = chi_colors(P, alpha, m_max)
    n, terms = len(c), count + 1
    for a in range(1, n + 1):
        ca = c[a - 1]
        for g in range(k, (n - a) // (terms - 1) + 1, k):
            if c[a - 1 + g] == ca and all(c[a - 1 + j * g] == ca for j in range(2, terms)):
                return q * a + 1, g * q, count, g * p
    return None
