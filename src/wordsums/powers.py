"""Search for additive powers: k adjacent blocks of one length and one sum.

A witness (start, b, k) means the blocks w(start .. start+b-1), ...,
w(start+(k-1)b .. start+kb-1) all share the same sum (or the same
mu-image).  Every search is one progression scan, start ascending, then
gap (block length) ascending, so the returned witness is the
lexicographically first one.  A scan that finds nothing compares about
L^2/k cells.  Each numpy call compares one tile of about 2^16 cells:
consecutive gaps × live starts, read as strided views.  The first start
reads the prefix in place, the rest go gap-major over one copy of it in
the narrowest integer dtype (int8 to int64) whose wrap-around equality is
still exact.  The prefix guard (L <= 10^6 unless the caller raises
`limit`) bounds that work.  Sums and mu-images share one search over block
differences of the key prefix (`complexity._key_prefix`): the word's own
prefix sums, or for mu one int64 or a row of key pieces per position: column
c of the letter images, in [lo_c, hi_c], takes mixed radix (L/k) * (hi_c -
lo_c) + 1, so two blocks of one length b <= L/k have equal keys exactly when
they have equal images.  When every letter image has one coordinate sum (a
Parikh map), the keys leave out the last column, which equal-length blocks
agree on once the others agree; the smaller keys fit a narrower copy.  Words of
bounded sum spread still contain additive k-powers for every k; the
slope-constrained search finds them through monochromatic arithmetic
progressions in the chi coloring, read as one strided view of the prefix sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .core import GuardError, WordStream, _int64, word_sum
from .complexity import LatticeMap, _decode, _key_prefix
from .slopes import Rational, _as_fraction, chi_sequence

_POWER_MAX_PREFIX = 1_000_000
_TILE_CELLS = 1 << 16


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


def _narrow_copy(X: np.ndarray, blocks: bool, pad: int) -> np.ndarray:
    """X, then pad zero rows, in the narrowest dtype whose wrap-around equality is exact.

    Two terms that compare differ by at most 2 * (max - min) of X for blocks and by
    max - min for values; below 2^bits that difference wraps to 0 only if it is 0.
    """
    reach = (int(X.max()) - int(X.min())) * (2 if blocks else 1)
    dt = next((dt for dt in (np.int8, np.int16, np.int32) if reach < 1 << np.iinfo(dt).bits),
              np.int64)
    Xp = np.zeros((len(X) + pad,) + X.shape[1:], dt)
    Xp[: len(X)] = X
    return Xp


def _first_progression(
    X: np.ndarray, terms: int, step: int, blocks: bool
) -> Optional[tuple[int, int]]:
    """Lexicographically first 0-based (start i, gap g) whose terms agree, or None.

    The terms are X[i + j*g] for j < terms, or with blocks=True the blocks
    X[i + (j+1)*g] - X[i + j*g]; g runs over the multiples of step.  Rows of a
    2-D X compare as wholes.  Start 0 reads X in place, so an early hit pays for
    no copy; starts 1..n-1 go in one gap-major pass over the _narrow_copy, where
    each hit narrows the pass to the starts before it.  Every numpy call compares
    one tile of about _TILE_CELLS cells: consecutive gaps × live starts.
    """
    n = len(X)
    reach = terms if blocks else terms - 1  # a progression spans reach*g
    tail = X.shape[1:]

    def view(buf: np.ndarray, shape: tuple, offset: int, row: int) -> np.ndarray:
        """buf[offset + t*row + i] for (t, i) in shape, in whole rows of X."""
        size = buf.itemsize
        rs = size * (tail[0] if tail else 1)
        return np.ndarray(shape + tail, buf.dtype, buf, offset * rs,
                          (row * rs, rs) + (size,) * len(tail))

    def tile(buf: np.ndarray, lo: int, m: int, g0: int, T: int) -> Optional[tuple[int, int]]:
        """First hit among starts [lo, lo+m) at gaps g0, g0+step, ..., of T gaps."""
        g1 = g0 + (T - 1) * step
        if blocks and g1 <= m:
            # the blocks overlap: one windows array W[t, p] = X[lo+p+g_t] - X[lo+p]
            # holds them all, block j of (t, i) at W[t, i + j*g_t]
            P = m + (terms - 1) * g1
            W = np.subtract(view(buf, (T, P), lo + g0, step), view(buf, (T, P), lo, 0),
                            order="C")
            vals = [view(W, (T, m), j * g0, P + j * step) for j in range(terms)]
        else:
            # values, or blocks that lie apart, where most cells of W would go unread:
            # one strided view per point of the progression; a block is two points' difference
            pts = [view(buf, (T, m), lo + j * g0, j * step) for j in range(reach + 1)]
            vals = [b - a for a, b in zip(pts, pts[1:])] if blocks else pts
        ok = vals[1] == vals[0]
        for v in vals[2:]:
            ok &= v == vals[0]
        if ok.ndim > 2:
            ok = ok.all(axis=-1)
        if not ok.any():
            return None
        c0 = max(0, n - lo - reach * g1)  # the staircase: columns past the word at g1
        if c0 < m:
            ends = n - lo - reach * (g0 + step * np.arange(T))
            ok[:, c0:] &= np.arange(c0, m) < ends[:, None]
            if not ok.any():
                return None
        c = int(np.argmax(ok.any(axis=0)))
        return lo + c, g0 + step * int(np.argmax(ok[:, c]))

    def scan(buf: np.ndarray, lo: int, hi: int) -> Optional[tuple[int, int]]:
        """First hit among starts [lo, hi), gap-major; each hit narrows hi to its start."""
        best, g = None, step
        while (m := min(hi, n - reach * g) - lo) > 0:
            gaps = ((n - 1 - lo) // reach - g) // step + 1  # gaps left for start lo
            T = min(gaps, max(1, _TILE_CELLS // m))
            hit = tile(buf, lo, m, g, T)
            g += T * step
            if hit:
                best, hi = hit, hit[0]
        return best

    # start 0 alone never reads past the word
    if (hit := scan(np.ascontiguousarray(X), 0, 1)) or n - reach * step <= 1:
        return hit
    # a tile of later starts reads at most this far past the word; a hit there is masked
    return scan(_narrow_copy(X, blocks, min(n, math.isqrt(_TILE_CELLS) * reach * step)), 1, n)


def _block_power(
    w: WordStream, mu: Optional[LatticeMap], k: int, L: int, limit: int
) -> Optional[PowerWitness]:
    """First run of k equal-length blocks with equal keys under mu, or symbol sums if None."""
    _check_power_args(k, L, limit)
    # blocks compared in one scan share a length b <= L/k, so equal keys mean equal images
    S, lo, radix, _ = _key_prefix(w, mu, L // k, L)
    hit = _first_progression(S, k, 1, blocks=True)
    if hit is None:
        return None
    i, b = hit
    key = S[i + b : i + b + 1] - S[i : i + 1]  # slices: scalars warn where lattice keys wrap
    v = int(key[0]) if mu is None else tuple(_decode(key, b, lo, radix)[0].tolist())
    return PowerWitness(i + 1, b, k, v)


def find_additive_kpower(
    w: WordStream, k: int, L: int, limit: int = _POWER_MAX_PREFIX
) -> Optional[PowerWitness]:
    """First (start asc, then b asc) run of k equal-length equal-sum blocks."""
    return _block_power(w, None, k, L, limit)


def find_kpower_mod_mu(
    w: WordStream, mu: LatticeMap, k: int, L: int, limit: int = _POWER_MAX_PREFIX
) -> Optional[PowerWitness]:
    """Like find_additive_kpower, but blocks must share their mu-image."""
    return _block_power(w, mu, k, L, limit)


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
    hit = _first_progression(_int64(colors, "a color"), terms, gap_multiple, blocks=False)
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
