"""Sum-based complexity: how many window sums (or lattice images) occur.

For a word w and length n, the additive complexity is the number of
distinct sums over the length-n factors of a prefix, the abelian
complexity counts Parikh vectors, and both are instances of counting
images under an additive map mu: S* -> Z^t.  Bounded complexity is
equivalent to bounded spread, where spread is max - min of the sums
(t = 1) or the max squared Euclidean distance between images (t > 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .core import Alphabet, FiniteWord, GuardError, WordStream

_ORACLE_MAX_PREFIX = 10_000
_DIAMETER_MAX_POINTS = 100_000
_WINDOW_BYTES_LIMIT = 200_000_000


class LatticeMap:
    """Additive map into Z^t determined by integer images of the letters."""

    def __init__(self, images: Mapping[int, Sequence[int]]):
        if not images:
            raise ValueError("need at least one letter image")
        rows = {}
        dim = None
        for s, vec in images.items():
            v = tuple(int(x) for x in vec)
            if dim is None:
                dim = len(v)
            if len(v) != dim or dim == 0:
                raise ValueError("all images must share one positive dimension")
            rows[int(s)] = v
        self.images = dict(sorted(rows.items()))
        self.alphabet = Alphabet(self.images)
        self.dim = dim
        self._table = np.array([self.images[s] for s in self.alphabet], dtype=np.int64)
        self._syms = np.array(self.alphabet.symbols, dtype=np.int64)

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

    def image_rows(self, symbols: np.ndarray) -> np.ndarray:
        """Per-position images, shape (len, t)."""
        idx = np.searchsorted(self._syms, symbols)
        idx = np.clip(idx, 0, len(self._syms) - 1)
        if not np.array_equal(self._syms[idx], symbols):
            bad = symbols[self._syms[idx] != symbols][0]
            raise ValueError(f"symbol {int(bad)} outside the map's alphabet")
        return self._table[idx]

    def max_abs(self) -> int:
        return int(np.max(np.abs(self._table))) if self._table.size else 0

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
        raise ValueError(f"need 1 <= n <= L, got n={n}, L={L}")


def window_sums(w: WordStream, n: int, L: int) -> np.ndarray:
    """Sums of w(i..i+n-1) for every window inside the length-L prefix."""
    _check_window(n, L)
    P = w.prefix_sums(L)
    return P[n:] - P[:-n]


def image_prefix_sums(w: WordStream, mu: LatticeMap, L: int) -> np.ndarray:
    """C[i] = mu(w(1..i)) for i = 0..L, shape (L+1, t); refuses int64 overflow."""
    rows = mu.image_rows(w.prefix(L))
    if mu.max_abs() and mu.max_abs() * (L + 1) >= 2**62:
        raise GuardError("lattice prefix sums may overflow int64")
    C = np.zeros((L + 1, mu.dim), dtype=np.int64)
    np.cumsum(rows, axis=0, out=C[1:])
    return C


def window_images(w: WordStream, mu: LatticeMap, n: int, L: int) -> np.ndarray:
    """mu-images of all length-n windows, shape (L-n+1, t)."""
    _check_window(n, L)
    C = image_prefix_sums(w, mu, L)
    return C[n:] - C[:-n]


def additive_complexity(w: WordStream, n: int, L: int) -> int:
    """Number of distinct length-n window sums in the length-L prefix."""
    return int(np.unique(window_sums(w, n, L)).size)


def sum_spread(w: WordStream, n: int, L: int) -> int:
    """max - min of the length-n window sums; bounded iff complexity is."""
    s = window_sums(w, n, L)
    return int(s.max() - s.min())


def lattice_complexity(w: WordStream, mu: LatticeMap, n: int, L: int) -> int:
    """Number of distinct mu-images of length-n windows."""
    W = window_images(w, mu, n, L)
    return int(np.unique(W, axis=0).shape[0])


def abelian_complexity(w: WordStream, n: int, L: int, alphabet: Optional[Alphabet] = None) -> int:
    """Distinct Parikh vectors of length-n windows (lattice with unit images)."""
    ab = alphabet or w.alphabet or w.observed_alphabet(L)
    return lattice_complexity(w, LatticeMap.parikh_map(ab), n, L)


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
    if D <= 512 or t * span * span >= 2**62:
        pts = [tuple(int(x) for x in row) for row in U]
        best = 0
        for i in range(len(pts)):
            pi = pts[i]
            for pj in pts[i + 1 :]:
                d = sum((a - b) ** 2 for a, b in zip(pi, pj))
                if d > best:
                    best = d
        return best
    best = 0
    step = 2048
    for i in range(0, D, step):
        blk = U[i : i + step]
        diff = blk[:, None, :] - U[None, :, :]
        np.square(diff, out=diff)
        best = max(best, int(diff.sum(axis=2).max()))
    return best


def lattice_spread(w: WordStream, mu: LatticeMap, n: int, L: int) -> int:
    """Max squared Euclidean distance between window images, exact."""
    W = window_images(w, mu, n, L)
    return _points_diameter_sq(np.unique(W, axis=0))


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
    if n_max < 1 or n_max > L:
        raise ValueError(f"need 1 <= n_max <= L, got n_max={n_max}, L={L}")
    if kind == "additive":
        if mu is not None:
            raise ValueError("mu only applies to kind='lattice'")
        rows = []
        P = w.prefix_sums(L)
        for n in range(1, n_max + 1):
            s = P[n:] - P[:-n]
            rows.append(ProfileRow(n, int(np.unique(s).size), int(s.max() - s.min())))
        return ComplexityProfile("additive", L, tuple(rows))
    if kind == "abelian":
        if mu is not None:
            raise ValueError("mu only applies to kind='lattice'")
        mu = LatticeMap.parikh_map(w.alphabet or w.observed_alphabet(L))
    elif kind == "lattice":
        if mu is None:
            raise ValueError("kind='lattice' needs mu")
    else:
        raise ValueError(f"unknown profile kind {kind!r}")
    rows = []
    for n in range(1, n_max + 1):
        U = np.unique(window_images(w, mu, n, L), axis=0)
        rows.append(ProfileRow(n, int(U.shape[0]), _points_diameter_sq(U)))
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
    _check_window(n, L)
    if n * L * 8 > _WINDOW_BYTES_LIMIT:
        raise GuardError(f"window table for n={n}, L={L} exceeds the memory guard")
    a = np.lib.stride_tricks.sliding_window_view(w1.prefix(L), n)
    b = np.lib.stride_tricks.sliding_window_view(w2.prefix(L), n)
    ua = np.unique(a, axis=0)
    ub = np.unique(b, axis=0)
    sa = {row.tobytes() for row in ua}
    return sum(1 for row in ub if row.tobytes() in sa)
