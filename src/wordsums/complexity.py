"""Sum-based complexity: how many window sums (or lattice images) occur.

For a word w and length n, the additive complexity is the number of
distinct sums over the length-n factors of a prefix, the abelian
complexity counts Parikh vectors, and both are instances of counting
images under an additive map mu: S* -> Z^t.  Bounded complexity is
equivalent to bounded spread, where spread is max - min of the sums
(t = 1) or the max squared Euclidean distance between images (t > 1).

Every count runs one kernel on one int64 key prefix per call, built by
`_key_prefix`, the only place letters become window keys: the key of a length-n
window is a difference S[i + n] - S[i] of that prefix, and for symbol sums, the
sum map's keys, that prefix is the word's own cached prefix sums.  Each length n
subtracts into one reused buffer, and the keys, all in the box [n * lo, n * hi]
for letter weights in [lo, hi], take one of four reductions: a 64-bit mask of
the keys when the box spans fewer than 64 values, with no min/max scan; the same
mask after a scan when the keys do; a boolean presence table when they span at
most the number of windows; and a sort otherwise (a lexsort for rows of pieces).
Sums read their count and spread off the mask or the sorted keys, and distinct
keys decode into image points only for the spreads of lattice images.  Images that
share one coordinate sum c (Parikh maps, c = 1) lie on a hyperplane, so their keys
weigh only the first t - 1 columns and decoding writes the last back as n * c minus
the others: fewer radices, so fewer key pieces and narrower power-scan copies.  The same
key prefix serves the additive and mod-mu power scans and `window_images`; the
unbounding guess in `morphisms` takes spreads of those Parikh images.  Factor-set
intersections count the shared keys of two words' factor rows, packed under one
letter box.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .core import (_SUM_LIMIT, Alphabet, FiniteWord, GuardError, WordStream, _distinct_rows,
                   _integer, _rank_letters, _sorted_distinct)

_ORACLE_MAX_PREFIX = 10_000
_DIAMETER_MAX_POINTS = 100_000
_DIAMETER_MAX_PAIRS = 500_000  # about 0.3 s of the Python-int overflow path
_DIAMETER_BLOCK_BYTES = 1 << 20  # cache-sized: faster and leaner than larger blocks
_WINDOW_BYTES_LIMIT = 200_000_000
_KEY_CHUNK = 1 << 14  # letters weighed per step of a lattice key prefix


class LatticeMap:
    """Additive map into Z^t determined by integer images of the letters, held as one
    k x t int64 table with a row per letter."""

    def __init__(self, images: Mapping[int, Sequence[int]]):
        if not images:
            raise ValueError("need at least one letter image")
        rows = {_integer(s): tuple(map(_integer, v)) for s, v in images.items()}
        dims = {len(v) for v in rows.values()}
        if len(dims) != 1 or 0 in dims:
            raise ValueError("all images must share one positive dimension")
        alphabet = Alphabet(rows)
        self._fill(alphabet, np.array([rows[s] for s in alphabet], dtype=object))

    def _fill(self, alphabet: Alphabet, table: np.ndarray) -> None:
        """Hold the letters and their k x t image table, one row per letter in sorted order;
        a letter or an image past int64 is refused, as no int64 word holds or weighs it."""
        inside = table.dtype != object or -(2**63) <= table.min() <= table.max() < 2**63
        if not (alphabet.fits_int64 and inside):
            raise ValueError(f"letters and images of mu:{_rules(zip(alphabet, table.tolist()))} "
                             "must fit int64")
        self.alphabet, self._table = alphabet, table.astype(np.int64, copy=False)
        self.dim = table.shape[1]

    @property
    def images(self) -> dict[int, tuple[int, ...]]:
        """Letter -> image in Python ints, read from the table on each call."""
        return dict(zip(self.alphabet, map(tuple, self._table.tolist())))

    @classmethod
    def sum_map(cls, letters: Iterable[int]) -> "LatticeMap":
        """t = 1 with mu(s) = s: plain symbol sums."""
        return cls({s: (s,) for s in letters})

    @classmethod
    def parikh_map(cls, letters: Iterable[int]) -> "LatticeMap":
        """Unit-vector images, an identity table: mu(B) is the Parikh vector of B."""
        alphabet = Alphabet(letters)
        k = len(alphabet)
        _check_table(k, k, f"the Parikh map of {k} letters")
        mu = cls.__new__(cls)
        mu._fill(alphabet, np.eye(k, dtype=np.int64))
        return mu

    def of_word(self, B: Iterable[int]) -> tuple[int, ...]:
        """mu(B), summed exactly in Python ints over the table rows of B's distinct letters;
        letters are looked up by value, so 1.0 finds 1 and 1.5 finds none."""
        counts = np.bincount(self._rows(list(B)), minlength=len(self.alphabet))
        rows = np.flatnonzero(counts)
        m = counts[rows].tolist()
        return tuple(sum(a * x for a, x in zip(m, col)) for col in self._table[rows].T.tolist())

    def _rows(self, letters: Sequence) -> np.ndarray:
        """Table row of each letter; a letter outside the map's alphabet raises ValueError."""
        return _rank_letters(self.alphabet, letters, "symbol {0} outside the map's alphabet")

    def max_abs(self) -> int:
        """Largest |image coordinate|, exact in Python ints."""
        return max(int(self._table.max()), -int(self._table.min()))

    def __repr__(self) -> str:
        return "mu:" + _rules(zip(self.alphabet, self._table.tolist()))


def _rules(images: Iterable[tuple[int, Sequence[int]]]) -> str:
    """The <s>=<v1,...>;... rules of letter images, as lattice maps and morphisms spell them."""
    return ";".join(f"{s}={','.join(map(str, v))}" for s, v in images)


@dataclass(frozen=True)
class ProfileRow:
    n: int
    count: int
    spread: int


@dataclass(frozen=True)
class ComplexityProfile:
    kind: str               # additive | abelian | lattice
    prefix_length: int
    rows: tuple[ProfileRow, ...]

    def counts(self) -> list[int]:
        return [r.count for r in self.rows]

    def spreads(self) -> list[int]:
        return [r.spread for r in self.rows]


def parikh(B: FiniteWord, alphabet: Alphabet) -> tuple[int, ...]:
    """Occurrence counts of each alphabet letter in B, in sorted letter order."""
    rows = _rank_letters(alphabet, list(B), "symbol {0} outside alphabet {1}")
    return tuple(np.bincount(rows, minlength=len(alphabet)).tolist())


def _check_window(n: int, L: int) -> None:
    if not 1 <= n <= L:
        raise ValueError(f"window lengths must lie in 1..L, got {n} with L = {L}")


def _check_table(rows: int, cols: int, what: str) -> None:
    """Refuse a table of rows x cols int64 cells past the memory guard, before it is built."""
    if rows * cols * 8 > _WINDOW_BYTES_LIMIT:
        raise GuardError(f"{what} exceeds the memory guard")


def window_sums(w: WordStream, n: int, L: int) -> np.ndarray:
    """Sums of w(i..i+n-1) for every window inside the length-L prefix."""
    _check_window(n, L)
    P = w.prefix_sums(L)
    return P[n:] - P[:-n]


def _pieces(radix: list[int]) -> list[tuple[int, int]]:
    """Greedy runs [a, b) of columns whose radix product stays below 2^62, or one column."""
    runs, a, size = [], 0, 1
    for c, r in enumerate(radix):
        if c > a and size * r >= _SUM_LIMIT:
            runs.append((a, c))
            a, size = c, 1
        size *= r
    return runs + [(a, len(radix))]


def _pack(W: np.ndarray, lo: list[int], radix: list[int]) -> np.ndarray:
    """Int64 keys of the rows of W - lo (each column must fit int64) in mixed radix, first
    column most significant: one per row, else an (N, p) table of one per `_pieces` run."""
    pieces = []
    for a, b in _pieces(radix):
        keys = W[:, a] - lo[a]
        for c in range(a + 1, b):
            keys *= radix[c]
            keys += W[:, c] - lo[c]
        pieces.append(keys)
    return pieces[0] if len(pieces) == 1 else np.stack(pieces, axis=1)


def _reduce(K: np.ndarray, low: int, high: int) -> tuple[int, int, Optional[np.ndarray]]:
    """The reduction of one row of keys K, each in the box [low, high], overwriting K.

    Returns (mask, base, None), where bit i of the Python int mask marks the key base + i,
    when the keys span fewer than 64 values; else (0, 0, the sorted distinct keys).  The
    box picks the tier first: a box narrower than 64 values needs no min/max scan.
    """
    base = 0 if 0 <= low and high < 64 else low  # keys already below 64 need no shift
    if high - base >= 64:
        base = int(K.min())
        span = int(K.max()) - base
        if span >= 64:
            if span >= len(K):
                return 0, 0, _sorted_distinct(K)
            seen = np.zeros(span + 1, dtype=bool)
            seen[np.subtract(K, base, out=K)] = True
            return 0, 0, np.flatnonzero(seen) + base
    if base:
        K -= base
    bits = K.view(np.uint64)
    np.left_shift(np.uint64(1), bits, out=bits)
    return int(np.bitwise_or.reduce(bits)), base, None


def _bits(mask: int) -> np.ndarray:
    """Positions of the set bits of a 64-bit mask, ascending."""
    octets = np.array([mask], dtype="<u8").view(np.uint8)
    return np.flatnonzero(np.unpackbits(octets, bitorder="little"))


def _decode(keys: np.ndarray, n: int, lo: list[int], radix: list[int]) -> np.ndarray:
    """Image points of length-n window keys (one per row, or a row of pieces), in columns.

    An offset past the radices is the coordinate sum c that every letter image shares: the
    keys leave that last column out, and it is written back in place as n * c minus the rest.
    """
    U = np.empty((len(keys), len(lo)), dtype=np.int64, order="F")
    t = len(radix)
    for (a, b), piece in zip(_pieces(radix), keys.reshape(len(keys), -1).T):
        for c in range(b - 1, a, -1):
            piece, U[:, c] = np.divmod(piece, radix[c])
        U[:, a] = piece
    U[:, :t] += np.array([n * x for x in lo[:t]], dtype=np.int64)
    if t < len(lo):
        last = np.sum(U[:, :t], axis=1, out=U[:, t])
        np.subtract(n * lo[t], last, out=last)
    return U


def _key_prefix(
    w: WordStream, mu: Optional[LatticeMap], n_max: int, L: int
) -> tuple[np.ndarray, list[int], list[int], tuple[int, int]]:
    """The weighted key prefix S of w(1..L) under mu, or of its symbol sums when mu is None,
    for windows of length <= n_max: the only builder of window keys.

    Returns (S, lo, radix, box).  Column c of the letter images spans [lo_c, hi_c], its
    radix is R_c = n_max * (hi_c - lo_c) + 1, and letter s weighs omega(s) = sum_c
    (mu(s)_c - lo_c) * place_c, with place_c the product of the radices after c; the box
    is the weight range [min omega, max omega].  So the key S[i + n] - S[i] of a length-n
    window lies in [n * min omega, n * max omega] and has digits in [0, n * (hi_c - lo_c)]
    below R_c: equal keys of equal-length windows mean equal images, and `_decode` reads
    them back.  When t >= 2 and every letter image has one coordinate sum c (c = 1 for a
    Parikh map), the images lie on a hyperplane: the last column is n * c minus the others,
    so only the first t - 1 columns are weighed, and lo gets c as a last entry past the t - 1
    radices.  Past 2^62 the weighed columns split into `_pieces` runs, one weighted prefix
    each.  Symbol sums weigh s itself: S is the cache, the offset lo is [0], and the box is
    the range of letters the cache holds.  A lattice S may wrap past int64, but every key lies
    in its box below 2^63 and differences are exact modulo 2^64.  Refuses images whose sums
    may overflow int64, and the lattice prefix it builds plus an L x p buffer of keys past
    the memory guard, before reading a symbol.
    """
    if mu is None:  # the box is the range the cache holds, read after the prefix
        S = w.prefix_sums(L)
        return S, [0], [n_max * (w._hi - w._lo) + 1], (w._lo, w._hi)
    top = mu.max_abs()
    if top * (L + 1) >= _SUM_LIMIT:
        raise GuardError("lattice prefix sums may overflow int64")
    T = mu._table
    sums = T.sum(axis=1)  # exact, and n * c fits int64, when t * top passes the same guard
    shared = mu.dim > 1 and mu.dim * top * (L + 1) < _SUM_LIMIT and bool((sums == sums[0]).all())
    if shared:  # on the hyperplane: the last column follows from the others
        T = T[:, :-1]
    lo, hi = T.min(axis=0).tolist(), T.max(axis=0).tolist()
    radix = [n_max * (h - l) + 1 for l, h in zip(lo, hi)]
    omega = _pack(T, lo, radix)
    if shared:
        lo.append(int(sums[0]))
    _check_table(2 * L + 1, len(_pieces(radix)), f"window keys for L={L}, t={mu.dim}")
    C = w.prefix_sums(L)
    S = np.empty((L + 1,) + omega.shape[1:], dtype=np.int64)
    S[0] = 0
    for a in range(0, L, _KEY_CHUNK):  # bounded temporaries: letter ranks per chunk
        seg = S[a + 1 : a + _KEY_CHUNK + 1]
        np.take(omega, mu._rows(np.diff(C[a : a + len(seg) + 1])), axis=0, out=seg)
        np.cumsum(seg, axis=0, out=seg)
        seg += S[a]
    return S, lo, radix, (int(omega.min()), int(omega.max()))


def window_images(w: WordStream, mu: LatticeMap, n: int, L: int) -> np.ndarray:
    """mu-images of all length-n windows, shape (L-n+1, t), decoded from the key prefix."""
    _check_window(n, L)
    _check_table(L - n + 1, mu.dim, f"window images for n={n}, L={L}, t={mu.dim}")
    S, lo, radix, _ = _key_prefix(w, mu, n, L)
    return _decode(S[n:] - S[:-n], n, lo, radix)


def _key_rows(
    w: WordStream, mu: Optional[LatticeMap], ns: range, L: int, spreads: bool
) -> Iterator[ProfileRow]:
    """The kernel: a ProfileRow for each n in ns, from one `_key_prefix` of w(1..L).

    Spreads are max - min for symbol sums (mu None); image spreads decode the distinct
    keys into points, and are 0 unless `spreads`.
    """
    S, lo, radix, (low, high) = _key_prefix(w, mu, ns[-1], L)
    _check_table(L, S[0].size, f"window keys for L={L}")  # the buffer, before it is built
    buf = np.empty((L,) + S.shape[1:], dtype=np.int64)
    for n in ns:
        K = np.subtract(S[n:], S[:-n], out=buf[: L - n + 1])
        mask, base, keys = (_reduce(K, n * low, n * high) if K.ndim == 1
                            else (0, 0, _distinct_rows(K)))  # rows of pieces: gathered only to decode
        count = mask.bit_count() if keys is None else len(keys)
        spread = 0
        if mu is None:  # straight off the mask or the sorted keys
            if keys is None:
                spread = mask.bit_length() - (mask & -mask).bit_length()
            else:
                spread = int(keys[-1]) - int(keys[0])
        elif spreads:
            if keys is None:
                keys = _bits(mask) + base
            spread = _points_diameter_sq(_decode(keys if K.ndim == 1 else K[keys], n, lo, radix))
        yield ProfileRow(n, count, spread)


def _row(w: WordStream, mu: Optional[LatticeMap], n: int, L: int, spreads: bool) -> ProfileRow:
    _check_window(n, L)
    return next(_key_rows(w, mu, range(n, n + 1), L, spreads))


def additive_complexity(w: WordStream, n: int, L: int) -> int:
    """Number of distinct length-n window sums in the length-L prefix."""
    return _row(w, None, n, L, False).count


def sum_spread(w: WordStream, n: int, L: int) -> int:
    """max - min of the length-n window sums; bounded iff complexity is."""
    return int(np.ptp(window_sums(w, n, L)))


def lattice_complexity(w: WordStream, mu: LatticeMap, n: int, L: int) -> int:
    """Number of distinct mu-images of length-n windows."""
    return _row(w, mu, n, L, False).count


def _abelian_map(w: WordStream, L: int) -> LatticeMap:
    """The Parikh map over w's alphabet (read off the length-L prefix when w has none)."""
    return LatticeMap.parikh_map(w.alphabet or w.observed_alphabet(L))


def abelian_complexity(w: WordStream, n: int, L: int) -> int:
    """Distinct Parikh vectors of length-n windows (lattice with unit images)."""
    return lattice_complexity(w, _abelian_map(w, L), n, L)


def _points_diameter_sq(U: np.ndarray) -> int:
    """Exact max squared distance between rows of the unique-point array."""
    D, t = U.shape
    if D == 1:
        return 0
    if t == 1:
        d = int(U.max()) - int(U.min())
        return d * d
    if D > _DIAMETER_MAX_POINTS:
        raise GuardError(f"{D} distinct images exceed the diameter guard")
    span = int(np.max(U)) - int(np.min(U))
    if t * span * span >= _SUM_LIMIT:
        if D * (D - 1) // 2 > _DIAMETER_MAX_PAIRS:
            raise GuardError(f"{D} distinct images too wide for the diameter's int64 path")
        U = U.astype(object)
    best = 0
    # Each block holds a (step, D) distance table and one column's differences.
    step = max(1, _DIAMETER_BLOCK_BYTES // (16 * D))
    for i in range(0, D, step):
        blk = U[i : i + step]
        d2 = np.zeros((len(blk), D - i), dtype=U.dtype)
        for c in range(t):
            diff = np.subtract.outer(blk[:, c], U[i:, c])
            diff *= diff
            d2 += diff
        best = max(best, int(d2.max()))
    return best


def lattice_spread(w: WordStream, mu: LatticeMap, n: int, L: int) -> int:
    """Max squared Euclidean distance between window images, exact."""
    return _row(w, mu, n, L, True).spread


def profile(
    w: WordStream,
    n_max: int,
    L: int,
    kind: str = "additive",
    mu: Optional[LatticeMap] = None,
) -> ComplexityProfile:
    """Counts and spreads for every window length n = 1..n_max.

    kind "additive" uses symbol sums, "abelian" the Parikh map over the
    word's alphabet, "lattice" the given mu.  Spread is max - min for
    additive and the max squared distance otherwise.
    """
    _check_window(n_max, L)
    if kind not in ("additive", "abelian", "lattice"):
        raise ValueError(f"unknown profile kind {kind!r}")
    if kind == "lattice" and mu is None:
        raise ValueError("kind='lattice' needs mu")
    if kind != "lattice" and mu is not None:
        raise ValueError("mu only applies to kind='lattice'")
    if kind == "abelian":
        mu = _abelian_map(w, L)
    return ComplexityProfile(kind, L, tuple(_key_rows(w, mu, range(1, n_max + 1), L, True)))


def naive_complexity_oracle(
    w: WordStream, mu: Optional[LatticeMap], n: int, L: int
) -> int:
    """Reference count computed per window, with no shared prefix sums.

    mu=None means plain symbol sums.  Every window is re-summed from the
    raw symbols, so this is an independent check of the fast path; it
    refuses prefixes past 10^4.
    """
    _check_window(n, L)
    if L > _ORACLE_MAX_PREFIX:
        raise GuardError(f"oracle is quadratic; refusing L = {L} > {_ORACLE_MAX_PREFIX}")
    syms = [int(x) for x in w.prefix(L)]
    if mu is None:
        return len({sum(syms[i : i + n]) for i in range(L - n + 1)})
    letter_images = {s: mu.of_word((s,)) for s in set(syms)}
    imgs = [letter_images[s] for s in syms]
    seen = set()
    for i in range(L - n + 1):
        seen.add(tuple(map(sum, zip(*imgs[i : i + n]))))
    return len(seen)


def _factor_keys(prefix: np.ndarray, n: int, lo: int, hi: int) -> np.ndarray:
    """Keys of the length-n factors of the prefix in the letter box [lo, hi], refused past
    the memory guard by the (L - n + 1) x p table of pieces they fill."""
    radix, R = [hi - lo + 1] * n, np.lib.stride_tricks.sliding_window_view(prefix, n)
    _check_table(len(R), len(_pieces(radix)), f"factor keys for n={n}, L={len(prefix)}")
    return _pack(R, [lo] * n, radix)


def factor_set_intersection(w1: WordStream, w2: WordStream, n: int, L: int) -> int:
    """How many distinct length-n factors the two prefixes share."""
    _check_window(n, L)
    X1, X2 = w1.prefix(L), w2.prefix(L)  # read first: the box is the range the caches hold
    lo, hi = min(w1._lo, w2._lo), max(w1._hi, w2._hi)  # one box, so equal rows get equal keys
    U1, U2 = (_sorted_distinct(_factor_keys(X, n, lo, hi)) for X in (X1, X2))
    return len(U1) + len(U2) - len(_sorted_distinct(np.concatenate((U1, U2))))
