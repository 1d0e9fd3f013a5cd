"""Search for additive powers: k adjacent blocks of one length and one sum.

A witness (start, b, k) means the blocks w(start .. start+b-1), ...,
w(start+(k-1)b .. start+kb-1) all share the same sum (or the same
mu-image).  Scans go start-ascending, then block-length ascending, so
the returned witness is the lexicographically first one.  Words of
bounded sum spread still contain additive k-powers for every k; the
slope-constrained search finds them through monochromatic arithmetic
progressions in the chi coloring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .core import GuardError, WordStream, word_sum
from .complexity import LatticeMap, image_prefix_sums
from .slopes import Rational, _as_fraction, chi_sequence

_POWER_MAX_PREFIX = 1_000_000


@dataclass(frozen=True)
class PowerWitness:
    start: int                          # 1-based position of the first block
    block_length: int
    count: int                          # number of blocks k
    value: Union[int, tuple[int, ...]]  # the shared sum or mu-image


def _check_power_args(k: int, L: int, limit: int) -> None:
    if k < 2:
        raise ValueError(f"a power needs k >= 2 blocks, got {k}")
    if L < 1:
        raise ValueError(f"need a nonempty prefix, got L = {L}")
    if L > limit:
        raise GuardError(f"power scan is quadratic; refusing L = {L} > {limit}")


def find_additive_kpower(
    w: WordStream, k: int, L: int, limit: int = _POWER_MAX_PREFIX
) -> Optional[PowerWitness]:
    """First (start asc, then b asc) run of k equal-length equal-sum blocks."""
    _check_power_args(k, L, limit)
    P = w.prefix_sums(L)
    js = np.arange(k + 1, dtype=np.int64)
    for start in range(1, L - k + 2):
        bmax = (L - start + 1) // k
        if bmax < 1:
            break
        bs = np.arange(1, bmax + 1, dtype=np.int64)
        ends = P[(start - 1) + np.outer(bs, js)]
        sums = np.diff(ends, axis=1)
        ok = np.all(sums == sums[:, :1], axis=1)
        hit = int(np.argmax(ok))
        if ok[hit]:
            return PowerWitness(start, int(bs[hit]), k, int(sums[hit, 0]))
    return None


def find_kpower_mod_mu(
    w: WordStream, mu: LatticeMap, k: int, L: int, limit: int = _POWER_MAX_PREFIX
) -> Optional[PowerWitness]:
    """Like find_additive_kpower, but blocks must share their mu-image."""
    _check_power_args(k, L, limit)
    C = image_prefix_sums(w, mu, L)
    js = np.arange(k + 1, dtype=np.int64)
    for start in range(1, L - k + 2):
        bmax = (L - start + 1) // k
        if bmax < 1:
            break
        bs = np.arange(1, bmax + 1, dtype=np.int64)
        ends = C[(start - 1) + np.outer(bs, js)]
        sums = np.diff(ends, axis=1)
        ok = np.all(sums == sums[:, :1, :], axis=(1, 2))
        hit = int(np.argmax(ok))
        if ok[hit]:
            value = tuple(int(x) for x in sums[hit, 0])
            return PowerWitness(start, int(bs[hit]), k, value)
    return None


def monochromatic_ap(
    colors: Sequence[int], terms: int, gap_multiple: int = 1
) -> Optional[tuple[int, int]]:
    """First (start asc, then gap asc) constant arithmetic progression.

    Returns 1-based (start, gap) with colors[start], colors[start+gap],
    ..., colors[start+(terms-1)*gap] all equal and gap a positive
    multiple of gap_multiple, or None.
    """
    if terms < 2:
        raise ValueError("a progression needs at least 2 terms")
    if gap_multiple < 1:
        raise ValueError("gap_multiple must be >= 1")
    c = np.asarray(colors, dtype=np.int64)
    n = c.size
    js = np.arange(terms, dtype=np.int64)
    for a in range(1, n + 1):
        gmax = (n - a) // (terms - 1)
        if gmax < gap_multiple:
            continue
        gs = np.arange(gap_multiple, gmax + 1, gap_multiple, dtype=np.int64)
        rows = c[(a - 1) + np.outer(gs, js)]
        ok = np.all(rows == rows[:, :1], axis=1)
        hit = int(np.argmax(ok))
        if ok[hit]:
            return a, int(gs[hit])
    return None


def find_anchored_power(
    w: WordStream, alpha: Rational, k: int, count: int, L: int
) -> Optional[PowerWitness]:
    """An additive power of `count` blocks whose length is a multiple of k*q.

    For a word of slope alpha = p/q, a (count+1)-term monochromatic
    progression m, m+g, ..., m+count*g in chi with k | g yields blocks
    w(q*m+1 .. q*(m+g)), ... of length g*q and common sum g*p; the block
    slope is exactly alpha.
    """
    if k < 1:
        raise ValueError("the length divisor k must be >= 1")
    if count < 2:
        raise ValueError("a power needs at least 2 blocks")
    a = _as_fraction(alpha)
    p, q = a.numerator, a.denominator
    m_max = L // q
    if m_max < count + 1:
        return None
    colors = chi_sequence(w, a, m_max)
    ap = monochromatic_ap(colors, terms=count + 1, gap_multiple=k)
    if ap is None:
        return None
    m, g = ap
    return PowerWitness(start=q * m + 1, block_length=g * q, count=count, value=g * p)


def verify_power(
    w: WordStream, witness: PowerWitness, mu: Optional[LatticeMap] = None
) -> bool:
    """Recompute the block sums (or mu-images) from the raw symbols."""
    s, b, k = witness.start, witness.block_length, witness.count
    vals = []
    for i in range(k):
        B = w.factor(s + i * b, s + (i + 1) * b - 1)
        vals.append(word_sum(B) if mu is None else mu.of_word(B))
    return all(v == vals[0] for v in vals) and vals[0] == witness.value
