"""Search for additive powers: k adjacent blocks of one length and one sum.

A witness (start, b, k) means the blocks w(start .. start+b-1), ...,
w(start+(k-1)b .. start+kb-1) all share the same sum (or the same
mu-image).  Every search is one progression scan, start ascending, then
gap (block length) ascending, so the returned witness is the
lexicographically first one.  A scan that finds nothing compares about
L^2/k cells.  Each numpy call compares one tile of at most 2^16 cells:
consecutive gaps × live starts, read as strided views.  The first start
reads the prefix in place, in growing tiles; the rest go gap-major over one
copy of it in the narrowest unsigned dtype (uint8 to uint64) whose wrap-around
equality is still exact, and a value scan may pair the starts before a hit
with later positions of their colors.  The prefix guard
(L <= 10^6 unless the caller raises
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

from .core import GuardError, WordStream, _int64, _narrowest, word_sum
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
    Xp = np.zeros((len(X) + pad,) + X.shape[1:], _narrowest(reach))
    Xp[: len(X)] = X
    return Xp


def _first_progression(
    X: np.ndarray, terms: int, step: int, blocks: bool
) -> Optional[tuple[int, int]]:
    """Lexicographically first 0-based (start i, gap g) whose terms agree, or None.

    The terms are X[i + j*g] for j < terms, or with blocks=True the blocks
    X[i + (j+1)*g] - X[i + j*g]; g runs over the multiples of step.  Rows of a
    2-D X compare as wholes.  Start 0 reads X in place, in tiles that grow from 32
    gaps; starts 1..n-1 go in one gap-major pass over the _narrow_copy, where each
    hit narrows the pass to the starts before it.  Every numpy call compares one tile
    of at most _TILE_CELLS cells: consecutive gaps × live starts, overlapping blocks
    through one table of adjacent-block equalities.  A value scan hands the starts
    before a hit to _by_color once the cells it has spent since would pay for that.
    """
    n = len(X)
    reach = terms if blocks else terms - 1  # a progression spans reach*g
    tail = X.shape[1:]

    def view(buf: np.ndarray, shape: tuple, offset: int, row: int, tail=tail) -> np.ndarray:
        """buf[offset + t*row + i] for (t, i) in shape, in whole rows of `tail` cells."""
        size = buf.itemsize
        rs = size * (tail[0] if tail else 1)
        return np.ndarray(shape + tail, buf.dtype, buf, offset * rs,
                          (row * rs, rs) + (size,) * len(tail))

    def tile(buf: np.ndarray, lo: int, m: int, g0: int, T: int) -> Optional[tuple[int, int]]:
        """First hit among starts [lo, lo+m) at gaps g0, g0+step, ..., of T gaps."""
        g1 = g0 + (T - 1) * step
        if blocks and g1 <= m:
            # the blocks overlap: windows W[t, p] = X[lo+p+g_t] - X[lo+p] hold block j of
            # (t, i) at W[t, i + j*g_t]; Z[t, p] = W[t, p+g_t] == W[t, p], and == is transitive
            P, Q = m + (terms - 1) * g1, m + (terms - 2) * g1
            W = np.subtract(view(buf, (T, P), lo + g0, step), view(buf, (T, P), lo, 0),
                            order="C")
            Z = np.equal(view(W, (T, Q), g0, P + step), view(W, (T, Q), 0, P), order="C")
            Z = Z.all(axis=-1) if tail else Z
            ok = view(Z, (T, m), 0, Q, ())
            for j in range(1, terms - 1):
                ok = ok & view(Z, (T, m), j * g0, Q + j * step, ())
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

    def scan(buf: np.ndarray, lo: int, hi: int, cells: int = _TILE_CELLS):
        """First hit among starts [lo, hi), gap-major, in tiles growing 64-fold from `cells`."""
        best, g, spent, retry = None, step, 0, 0
        while (m := min(hi, n - reach * g) - lo) > 0:
            gaps = ((n - 1 - lo) // reach - g) // step + 1  # gaps left for start lo
            T = min(gaps, max(1, cells // m))
            hit = tile(buf, lo, m, g, T)
            g, cells, spent = g + T * step, min(64 * cells, _TILE_CELLS), spent + T * m
            if hit:  # the color path costs about 16 cells a position to count, 64 a pair
                best, hi, spent, retry = hit, hit[0], 0, 16 * (hit[0] + (n - hit[0]) // reach - lo)
            elif best and not blocks and spent >= retry < (hi - lo) * (gaps - T):  # cells left
                by = _by_color(buf[:n], lo, best, reach, step, min(spent // 64, _TILE_CELLS))
                if isinstance(by, tuple):
                    return by
                retry = 64 * by if by <= _TILE_CELLS else math.inf
        return best

    # start 0 alone never reads past the word
    if (hit := scan(np.ascontiguousarray(X), 0, 1, 32)) or n - reach * step <= 1:
        return hit
    # a tile of later starts reads at most this far past the word; a hit there is masked
    return scan(_narrow_copy(X, blocks, min(n, math.isqrt(_TILE_CELLS) * reach * step)), 1, n)


def _by_color(
    X: np.ndarray, lo: int, hit: tuple[int, int], reach: int, step: int, cells: int
) -> Union[tuple[int, int], int]:
    """The least (i, g), lo <= i < hit[0], whose terms X[i + j*g], j <= reach, all agree, else
    hit; or the number of candidates if it is more than `cells`.  A candidate pairs a start with
    a later position of its color.  The starts are sorted by color once; in each sorted tile of
    positions, each start reads its color's run, to count the candidates and then to pair them."""
    n, s = len(X), hit[0]
    end = s + (n - s) // reach  # past every i + g with i < s and i + reach*g < n
    order = np.argsort(X[lo:s], kind="stable") + lo  # starts by color, ascending within one
    tiles = [(a, X[a : min(a + _TILE_CELLS, end)]) for a in range(lo + 1, end, _TILE_CELLS)]

    def runs(Y: np.ndarray, c: np.ndarray = X[order]) -> tuple[np.ndarray, np.ndarray]:
        L = np.searchsorted(Y, c)  # each start's run of its color c in Y
        return L, np.searchsorted(Y, c, "right") - L

    if (count := sum(int(runs(np.sort(R))[1].sum()) for _, R in tiles)) > cells:
        return count
    for a, R in tiles:
        at = np.argsort(R, kind="stable")  # positions by color; each start pairs with its run
        L, h = runs(R[at])
        i = np.repeat(order, h)
        g = at[np.repeat(L - np.cumsum(h) + h, h) + np.arange(len(i))] + a - i
        keep = (g > 0) & (g % step == 0) & (i + reach * g < n)
        for j in range(2, reach + 1):
            i, g = i[keep], g[keep]
            keep = X[i + j * g] == X[i]
        if keep.any():
            hit = min(hit, divmod(int(np.min((i * n + g)[keep])), n))
    return hit


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
