"""Sum-based complexity: how many window sums (or lattice images) occur.

For a word w and length n, the additive complexity is the number of
distinct sums over the length-n factors of a prefix, the abelian
complexity counts Parikh vectors, and both are instances of counting
images under an additive map mu: S* -> Z^t.  Bounded complexity is
equivalent to bounded spread, where spread is max - min of the sums
(t = 1) or the max squared Euclidean distance between images (t > 1).

Every count runs one kernel.  The length-n window images W = C[n:] - C[:-n]
of the prefix sums C (built once per call) are shifted per column by a lower
bound and packed into one int64 key per row in mixed radix hi - lo + 1.
`profile` takes lo and hi from the box [n * min, n * max] of the letter
images (for symbol sums, the letter range the word's cache keeps) when its
radix product is at most the number of windows; other image counts measure
the min and max of W.  Keys are marked in a boolean presence table when
their range is at most the number of windows, else sorted; rows whose radix
product reaches 2^62 are not packed and are counted as a set of row bytes
instead.  Counts come from the keys, and distinct keys decode into image
points only for the spreads of t > 1 images.  Factor-set intersections
count the shared keys of two words' factor rows, packed under one letter
box; the unbounding guess in `morphisms` takes spreads of Parikh images.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .core import _SUM_LIMIT, Alphabet, FiniteWord, GuardError, WordStream, _integer

_ORACLE_MAX_PREFIX = 10_000
_DIAMETER_MAX_POINTS = 100_000
_DIAMETER_MAX_PAIRS = 500_000  # about 0.3 s of the Python-int overflow path
_DIAMETER_BLOCK_BYTES = 1 << 20  # cache-sized: faster and leaner than larger blocks
_WINDOW_BYTES_LIMIT = 200_000_000


class LatticeMap:
    """Additive map into Z^t determined by integer images of the letters."""

    def __init__(self, images: Mapping[int, Sequence[int]]):
        if not images:
            raise ValueError("need at least one letter image")
        rows = {}
        dim = None
        for s, vec in images.items():
            v = tuple(map(_integer, vec))
            if dim is None:
                dim = len(v)
            if len(v) != dim or dim == 0:
                raise ValueError("all images must share one positive dimension")
            rows[_integer(s)] = v
        self.images = dict(sorted(rows.items()))
        self.alphabet = Alphabet(self.images)
        self.dim = dim
        try:
            self._table = np.array([self.images[s] for s in self.alphabet], dtype=np.int64)
            self._syms = np.array(self.alphabet.symbols, dtype=np.int64)
        except OverflowError:
            raise ValueError(f"letters and images of {self!r} must fit int64") from None

    @classmethod
    def sum_map(cls, alphabet: Alphabet) -> "LatticeMap":
        """t = 1 with mu(s) = s: plain symbol sums."""
        return cls({s: (s,) for s in alphabet})

    @classmethod
    def parikh_map(cls, alphabet: Alphabet) -> "LatticeMap":
        """Unit-vector images: mu(B) is the Parikh vector of B."""
        k = len(alphabet)
        return cls(
            {s: tuple(1 if j == i else 0 for j in range(k)) for i, s in enumerate(alphabet)}
        )

    def of_word(self, B: FiniteWord) -> tuple[int, ...]:
        """mu(B), summed exactly in Python ints."""
        acc = [0] * self.dim
        for s in B:
            img = self.images.get(int(s))
            if img is None:
                raise ValueError(f"symbol {s} outside the map's alphabet")
            for j, x in enumerate(img):
                acc[j] += x
        return tuple(acc)

    def letter_indices(self, symbols: np.ndarray) -> np.ndarray:
        """Per-position row of each letter in the image table, shape (len,)."""
        idx = np.searchsorted(self._syms, symbols)
        idx = np.clip(idx, 0, len(self._syms) - 1)
        if not np.array_equal(self._syms[idx], symbols):
            bad = symbols[self._syms[idx] != symbols][0]
            raise ValueError(f"symbol {int(bad)} outside the map's alphabet")
        return idx

    def max_abs(self) -> int:
        """Largest |image coordinate|, exact in Python ints."""
        return max(abs(x) for v in self.images.values() for x in v)

    def __repr__(self) -> str:
        rules = ";".join(f"{s}={','.join(map(str, v))}" for s, v in self.images.items())
        return f"mu:{rules}"


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
    counts = dict.fromkeys(alphabet.symbols, 0)
    for s in B:
        if s not in counts:
            raise ValueError(f"symbol {s} outside alphabet {alphabet.symbols}")
        counts[s] += 1
    return tuple(counts[s] for s in alphabet.symbols)


def _check_window(n: int, L: int) -> None:
    if not 1 <= n <= L:
        raise ValueError(f"window lengths must lie in 1..L, got {n} with L = {L}")


def _check_window_table(n: int, L: int) -> None:
    _check_window(n, L)
    if n * L * 8 > _WINDOW_BYTES_LIMIT:
        raise GuardError(f"window table for n={n}, L={L} exceeds the memory guard")


def _windows(C: np.ndarray, n: int) -> np.ndarray:
    """The window kernel: images of every length-n window, from prefix sums C."""
    return C[n:] - C[:-n]


def window_sums(w: WordStream, n: int, L: int) -> np.ndarray:
    """Sums of w(i..i+n-1) for every window inside the length-L prefix."""
    _check_window(n, L)
    return _windows(w.prefix_sums(L), n)


def image_prefix_sums(w: WordStream, mu: LatticeMap, L: int) -> np.ndarray:
    """C[i] = mu(w(1..i)) for i = 0..L, column-major (L+1, t).

    Refuses int64 overflow and a table past the memory guard before reading a symbol."""
    if mu.max_abs() * (L + 1) >= _SUM_LIMIT:
        raise GuardError("lattice prefix sums may overflow int64")
    if (L + 1) * mu.dim * 8 > _WINDOW_BYTES_LIMIT:
        raise GuardError(f"image table for L={L}, t={mu.dim} exceeds the memory guard")
    idx = mu.letter_indices(w.prefix(L))
    C = np.zeros((L + 1, mu.dim), dtype=np.int64, order="F")
    for c in range(mu.dim):
        np.cumsum(mu._table[:, c][idx], out=C[1:, c])
    return C


def _pack(W: np.ndarray, lo: list[int], radix: list[int]) -> Optional[np.ndarray]:
    """One int64 key per row of W - lo in mixed radix, first column most significant;
    None once the radix product reaches 2^62, where the keys could overflow."""
    if math.prod(radix) >= _SUM_LIMIT:
        return None
    # t = 1 keys from lo = 0 are W's own column; wider keys are built in place
    keys = W[:, 0] - lo[0] if lo[0] or len(radix) > 1 else W[:, 0]
    for c in range(1, len(radix)):
        keys *= radix[c]
        keys += W[:, c] - lo[c]
    return keys


def pack_rows(C: np.ndarray) -> Optional[np.ndarray]:
    """One int64 key per row of C, linear in the row; None if a key may overflow.

    Column c gets radix 2*(max - min) + 1, so K[i] - K[j] identifies C[i] - C[j].
    """
    lo = C.min(axis=0).tolist()
    return _pack(C, lo, [2 * (h - l) + 1 for l, h in zip(lo, C.max(axis=0).tolist())])


def window_images(w: WordStream, mu: LatticeMap, n: int, L: int) -> np.ndarray:
    """mu-images of all length-n windows, shape (L-n+1, t)."""
    _check_window(n, L)
    return _windows(image_prefix_sums(w, mu, L), n)


def _distinct_keys(W: np.ndarray, box: Optional[tuple] = None) -> Optional[tuple]:
    """Sorted distinct packed keys of the rows of W with the lo and radix that decode
    them, or None for rows too wide to pack.  A per-column box (lo, hi) known to hold
    W replaces the min/max scans whenever its radix product fits the window count."""
    if box is None or math.prod(h - l + 1 for l, h in zip(*box)) > len(W):
        box = W.min(axis=0).tolist(), W.max(axis=0).tolist()
    lo, radix = box[0], [h - l + 1 for l, h in zip(*box)]
    keys = _pack(W, lo, radix)
    if keys is None:
        return None
    size = math.prod(radix)
    if size <= len(keys):
        seen = np.zeros(size, dtype=bool)
        seen[keys] = True
        keys = np.flatnonzero(seen)
    else:
        keys = np.unique(keys)
    return keys, lo, radix


def _row_bytes(W: np.ndarray) -> set:
    """The distinct rows of W as a set of bytes: the fallback for rows too wide to pack."""
    if W.strides[-1] != W.itemsize:
        W = np.ascontiguousarray(W)
    return set(W.view(np.dtype((np.void, W.itemsize * W.shape[1]))).ravel().tolist())


def _distinct_images(W: np.ndarray, box: Optional[tuple] = None) -> np.ndarray:
    """The reduction: distinct rows of the window images W, in lexicographic order
    when they pack; rows too wide to pack come from a set of row bytes, unordered."""
    packed = _distinct_keys(W, box)
    if packed is None:
        return np.frombuffer(b"".join(_row_bytes(W)), dtype=W.dtype).reshape(-1, W.shape[1])
    keys, lo, radix = packed
    U = np.empty((len(keys), len(radix)), dtype=np.int64)
    for c in range(len(radix) - 1, 0, -1):
        keys, U[:, c] = np.divmod(keys, radix[c])
    U[:, 0] = keys
    return U + np.array(lo, dtype=np.int64)


def _distinct_count(W: np.ndarray) -> int:
    """How many distinct rows W has; packed keys are counted without decoding them."""
    packed = _distinct_keys(W)
    return len(_row_bytes(W) if packed is None else packed[0])


def additive_complexity(w: WordStream, n: int, L: int) -> int:
    """Number of distinct length-n window sums in the length-L prefix."""
    return _distinct_count(window_sums(w, n, L)[:, None])


def sum_spread(w: WordStream, n: int, L: int) -> int:
    """max - min of the length-n window sums; bounded iff complexity is."""
    return int(np.ptp(window_sums(w, n, L)))


def lattice_complexity(w: WordStream, mu: LatticeMap, n: int, L: int) -> int:
    """Number of distinct mu-images of length-n windows."""
    return _distinct_count(window_images(w, mu, n, L))


def abelian_complexity(w: WordStream, n: int, L: int) -> int:
    """Distinct Parikh vectors of length-n windows (lattice with unit images)."""
    return lattice_complexity(w, LatticeMap.parikh_map(w.alphabet or w.observed_alphabet(L)), n, L)


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
    return _points_diameter_sq(_distinct_images(window_images(w, mu, n, L)))


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
        mu = LatticeMap.parikh_map(w.alphabet or w.observed_alphabet(L))
    # every length-n window image lies in the box [n * lo, n * hi]
    if mu is None:
        # the least and greatest letter cached: a range wider than the prefix's is still a box
        C, lo, hi = w.prefix_sums(L)[:, None], [w._lo], [w._hi]
    else:
        C, T = image_prefix_sums(w, mu, L), mu._table
        lo, hi = T.min(axis=0).tolist(), T.max(axis=0).tolist()
    rows = []
    for n in range(1, n_max + 1):
        W, box = _windows(C, n), ([n * x for x in lo], [n * x for x in hi])
        if kind == "additive":
            # window sums always pack: their range is at most max|s| * L < 2^62
            keys = _distinct_keys(W, box)[0]
            rows.append(ProfileRow(n, len(keys), int(keys[-1] - keys[0])))
        else:
            U = _distinct_images(W, box)
            rows.append(ProfileRow(n, len(U), _points_diameter_sq(U)))
    return ComplexityProfile(kind, L, tuple(rows))


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
    imgs = []
    for s in syms:
        img = mu.images.get(s)
        if img is None:
            raise ValueError(f"symbol {s} outside the map's alphabet")
        imgs.append(img)
    seen = set()
    for i in range(L - n + 1):
        seen.add(tuple(map(sum, zip(*imgs[i : i + n]))))
    return len(seen)


def factor_set_intersection(w1: WordStream, w2: WordStream, n: int, L: int) -> int:
    """How many distinct length-n factors the two prefixes share."""
    _check_window_table(n, L)
    R1, R2 = (np.lib.stride_tricks.sliding_window_view(w.prefix(L), n) for w in (w1, w2))
    lo, hi = min(w1._lo, w2._lo), max(w1._hi, w2._hi)  # one box, so equal rows get equal keys
    K1, K2 = (_pack(R, [lo] * n, [hi - lo + 1] * n) for R in (R1, R2))
    return len(_row_bytes(R1) & _row_bytes(R2) if K1 is None else np.intersect1d(K1, K2))
