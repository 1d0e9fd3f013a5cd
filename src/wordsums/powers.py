"""Search for additive powers: k adjacent blocks of one length and one sum.

A witness (start, b, k) means the blocks w(start .. start+b-1), ...,
w(start+(k-1)b .. start+kb-1) all share the same sum (or the same
mu-image).  Every search is one progression scan, start ascending,
then gap (block length) ascending, so the returned witness is the
lexicographically first one.  A scan that finds nothing compares about
L^2/k cells, done gap by gap in numpy; the prefix guard (L <= 10^6
unless the caller raises `limit`) is what bounds that work.  mu-images
compare as one int64 key per prefix row (`complexity.pack_rows`: column
c in mixed radix 2*(max - min) + 1, so key differences identify row
differences), or as whole rows once that radix product reaches 2^62.
Words of bounded sum spread still contain additive k-powers for every k;
the slope-constrained search finds them through monochromatic arithmetic
progressions in the chi coloring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .core import GuardError, WordStream, word_sum
from .complexity import LatticeMap, _windows, image_prefix_sums, pack_rows
from .slopes import Rational, _as_fraction, chi_sequence

_POWER_MAX_PREFIX = 1_000_000
_HEAD_STARTS = 16


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


def _agree(vals: list) -> np.ndarray:
    """Mask where every array in vals equals vals[0]; rows compare as wholes."""
    ok = vals[1] == vals[0]
    for v in vals[2:]:
        ok &= v == vals[0]
    return ok.all(axis=-1) if ok.ndim > 1 else ok


def _first_progression(
    X: np.ndarray, terms: int, step: int, blocks: bool
) -> Optional[tuple[int, int]]:
    """Lexicographically first 0-based (start i, gap g) whose terms agree, or None.

    The terms are X[i + j*g] for j < terms, or with blocks=True the blocks
    X[i + (j+1)*g] - X[i + j*g]; g runs over the multiples of step.  The
    first _HEAD_STARTS starts go start by start, then the scan goes gap by
    gap over the starts before the best so far, and finishes start by start
    once fewer of those starts than gaps remain.
    """
    n = len(X)
    reach = terms if blocks else terms - 1  # a progression spans reach*g

    def start_by_start(starts: range, g0: int) -> Optional[tuple[int, int]]:
        for i in starts:
            gmax = (n - 1 - i) // reach
            if gmax < g0:
                return None
            gmax -= (gmax - g0) % step
            pts = [X[i + j * g0 : i + j * gmax + 1 : j * step] if j else X[i]
                   for j in range(reach + 1)]
            ok = _agree([b - a for a, b in zip(pts, pts[1:])] if blocks else pts)
            if ok.any():
                return i, g0 + step * int(np.argmax(ok))
        return None

    head = min(_HEAD_STARTS, n)
    best, g = start_by_start(range(head), step), step
    while (hi := min(n - reach * g, best[0] if best else n)) > head:  # starts [head, hi)
        m = hi - head
        # at one gap the blocks are values: block j of start i is B[i - head + j*g]
        B = _windows(X[head : hi + terms * g], g) if blocks else X[head:]
        ok = _agree([B[j * g : j * g + m] for j in range(terms)])
        if ok.any():
            best = (head + int(np.argmax(ok)), g)
        if best and best[0] - head < ((n - 1 - head) // reach - g) // step:
            return start_by_start(range(head, best[0]), g + step) or best
        g += step
    return best


def _block_power(X: np.ndarray, C: np.ndarray, k: int) -> Optional[PowerWitness]:
    """First k-power of blocks whose X-differences agree; its value is read from C."""
    hit = _first_progression(X, k, 1, blocks=True)
    if hit is None:
        return None
    i, b = hit
    v = C[i + b] - C[i]
    return PowerWitness(i + 1, b, k, int(v) if v.ndim == 0 else tuple(int(x) for x in v))


def find_additive_kpower(
    w: WordStream, k: int, L: int, limit: int = _POWER_MAX_PREFIX
) -> Optional[PowerWitness]:
    """First (start asc, then b asc) run of k equal-length equal-sum blocks."""
    _check_power_args(k, L, limit)
    P = w.prefix_sums(L)
    return _block_power(P, P, k)


def find_kpower_mod_mu(
    w: WordStream, mu: LatticeMap, k: int, L: int, limit: int = _POWER_MAX_PREFIX
) -> Optional[PowerWitness]:
    """Like find_additive_kpower, but blocks must share their mu-image."""
    _check_power_args(k, L, limit)
    C = image_prefix_sums(w, mu, L)
    K = pack_rows(C)
    return _block_power(C if K is None else K, C, k)


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
    hit = _first_progression(np.asarray(colors, dtype=np.int64), terms, gap_multiple, blocks=False)
    return None if hit is None else (hit[0] + 1, hit[1])


def find_anchored_power(
    w: WordStream, alpha: Rational, k: int, count: int, L: int, limit: int = _POWER_MAX_PREFIX
) -> Optional[PowerWitness]:
    """An additive power of `count` blocks whose length is a multiple of k*q.

    For a word of slope alpha = p/q, a (count+1)-term monochromatic
    progression m, m+g, ..., m+count*g in chi with k | g yields blocks
    w(q*m+1 .. q*(m+g)), ... of length g*q and common sum g*p; the block
    slope is exactly alpha.
    """
    if k < 1:
        raise ValueError("the length divisor k must be >= 1")
    _check_power_args(count, L, limit)
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
