"""Finite and infinite words over integer alphabets, with exact prefix sums.

Positions in infinite words are 1-based: w(1) is the first symbol and
factor(w, m, n) is the inclusive block w(m)...w(n).  Finite words are
ordinary 0-based Python sequences.  Symbols are integers; a float or a
string is refused, not truncated.  All sums are exact: int64 prefix sums
back the long scans, with a guard that refuses lengths where max|s| * L
could approach 2**63, and everything crossing the API boundary is a
Python int or Fraction.
"""

from __future__ import annotations

import array
import collections
import itertools
import numbers
import threading
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

# int64 stays exact while |prefix sum| < 2**62; leave a factor-2 margin.
_SUM_LIMIT = 2**62

_CHUNK = 1 << 13


class GuardError(RuntimeError):
    """A computation would exceed a configured safety guard."""


def _integer(s, what: str = "symbol") -> int:
    """s as a Python int; ValueError naming `what` if s is no integer, so 1.5 is not truncated."""
    if type(s) is not int and not isinstance(s, numbers.Integral):  # ABC checks are slow
        raise ValueError(f"{what} {s!r} is not an integer")
    return int(s)


def _int64(values: Sequence[int], what: str) -> np.ndarray:
    """values as int64; ValueError if one is no integer, GuardError if one is past int64.

    `what` names one value in the message, e.g. "a color".  A list goes through
    array("q"), which takes only objects with __index__ and is faster than letting
    numpy infer a dtype; an integer ndarray is converted by numpy.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind in "biu":
        if values.dtype.kind == "u" and values.size and int(values.max()) >= 2**63:
            raise GuardError(f"{what} does not fit int64")
        return values.astype(np.int64, copy=False)
    try:
        return np.frombuffer(array.array("q", values), dtype=np.int64)
    except TypeError as e:
        raise ValueError(f"{what} is not an integer: {e}") from None
    except OverflowError:
        raise GuardError(f"{what} does not fit int64") from None


class Interval(NamedTuple):
    """Closed 1-based position interval [lo, hi]."""

    lo: int
    hi: int

    def __len__(self) -> int:
        return self.hi - self.lo + 1

    def validate(self) -> "Interval":
        if not (1 <= self.lo <= self.hi):
            raise ValueError(f"bad interval [{self.lo}, {self.hi}]")
        return self


class Alphabet:
    """A finite set of integer symbols, kept sorted ascending."""

    __slots__ = ("symbols", "_index")

    def __init__(self, symbols: Iterable[int]):
        syms = sorted(set(map(_integer, symbols)))
        if not syms:
            raise ValueError("alphabet must be nonempty")
        self.symbols: tuple[int, ...] = tuple(syms)
        self._index = {s: i for i, s in enumerate(self.symbols)}

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[int]:
        return iter(self.symbols)

    def __contains__(self, s: object) -> bool:
        return s in self._index

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Alphabet) and self.symbols == other.symbols

    def __hash__(self) -> int:
        return hash(self.symbols)

    def index(self, s: int) -> int:
        """Rank of s within the sorted alphabet (used for Parikh coordinates)."""
        try:
            return self._index[s]
        except KeyError:
            raise ValueError(f"symbol {s} not in alphabet {self.symbols}") from None

    def __repr__(self) -> str:
        return f"Alphabet({list(self.symbols)})"


class FiniteWord:
    """Immutable finite word; prefix sums are computed lazily and exactly."""

    __slots__ = ("symbols", "_psums")

    def __init__(self, symbols: Iterable[int]):
        self.symbols: tuple[int, ...] = tuple(map(_integer, symbols))
        self._psums: Optional[tuple[int, ...]] = None

    @property
    def prefix_sums(self) -> tuple[int, ...]:
        """P[0..n] with P[0] = 0 and P[i] = s_1 + ... + s_i, exact ints."""
        if self._psums is None:
            self._psums = tuple(itertools.accumulate(self.symbols, initial=0))
        return self._psums

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[int]:
        return iter(self.symbols)

    def __getitem__(self, i):
        got = self.symbols[i]
        return FiniteWord(got) if isinstance(i, slice) else got

    def __add__(self, other: "FiniteWord") -> "FiniteWord":
        return FiniteWord(self.symbols + other.symbols)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FiniteWord) and self.symbols == other.symbols

    def __hash__(self) -> int:
        return hash(self.symbols)

    def __repr__(self) -> str:
        if len(self.symbols) > 24:
            head = ",".join(map(str, self.symbols[:24]))
            return f"FiniteWord([{head},...] len={len(self.symbols)})"
        return f"FiniteWord([{','.join(map(str, self.symbols))}])"


class WordStream:
    """An infinite word, cached lazily as one int64 array of prefix sums.

    `factory` must return a fresh symbol iterator each call and always
    produce the same sequence; the word ends where that iterator stops.
    The cache only ever grows, so every reported value is stable across
    calls.  Symbols are read as differences of the prefix sums, and the
    least and greatest symbol held bound the overflow guard and the letter
    boxes that pack windows and factors.  Derived words iterate their sources' factories,
    not their caches, and so end where a finite source ends; only the word
    a caller reads holds a cache.  Extension is serialized with a lock so
    streams can be shared between threads.  A symbol that is no integer
    raises ValueError when it is read.  The label names the word: its
    canonical spec (see cli), or a <...> form for a word that no spec builds.
    """

    def __init__(
        self,
        factory: Callable[[], Iterator[int]],
        alphabet: Optional[Alphabet] = None,
        label: str = "<word>",
    ):
        self._factory = factory
        self._it: Optional[Iterator[int]] = None
        self._ps = np.zeros(1, dtype=np.int64)
        self._n = 0
        self._lo, self._hi = 2**63, -(2**63)  # the symbols' range: empty until a chunk
        self._exhausted = False
        self._lock = threading.Lock()
        self.alphabet = alphabet
        self.label = label

    # -- materialization ------------------------------------------------

    def _extend(self, n: int) -> None:
        """Take symbols from the factory until w(n) is held or the word ends; needs the lock."""
        if self._it is None:
            self._it = iter(self._factory())
            collections.deque(itertools.islice(self._it, self._n), maxlen=0)
        while self._n < n and not self._exhausted:
            chunk = list(itertools.islice(self._it, max(_CHUNK, n - self._n)))
            if not chunk:
                self._exhausted = True
                break
            arr = _int64(chunk, f"a symbol of {self.label}")
            # the range in Python ints: -lo and np.abs wrap at -2**63
            lo, hi = min(self._lo, int(arr.min())), max(self._hi, int(arr.max()))
            m = max(hi, -lo)
            total = self._n + arr.size
            if m * (total + _CHUNK) >= _SUM_LIMIT:
                raise GuardError(
                    f"prefix sums of {self.label} may overflow int64 at "
                    f"length {total} with max|s| = {m}"
                )
            if total >= self._ps.size:
                ps = np.empty(max(2 * self._ps.size, total + 1, _CHUNK), dtype=np.int64)
                ps[: self._n + 1] = self._ps[: self._n + 1]
                self._ps = ps
            np.cumsum(arr, out=self._ps[self._n + 1 : total + 1])
            self._ps[self._n + 1 : total + 1] += self._ps[self._n]
            # stored left to right: a lock-free reader that sees the new length sees its range
            self._lo, self._hi, self._n = lo, hi, total

    def _ensure(self, n: int) -> None:
        """Materialize up to w(n); ValueError if a finite word ends first.

        A failure drops the factory iterator; the next call starts a fresh one
        and skips the symbols already held, so no symbol is lost or repeated.
        """
        if n <= self._n:
            return
        with self._lock:
            try:
                self._extend(n)
            except BaseException:
                self._it = None
                raise
        if self._n < n:
            raise ValueError(
                f"{self.label} ends at length {self._n}; cannot reach position {n}"
            )

    # -- access ---------------------------------------------------------

    def symbol(self, i: int) -> int:
        """w(i), 1-based."""
        if i < 1:
            raise ValueError(f"positions are 1-based, got {i}")
        self._ensure(i)
        return int(self._ps[i] - self._ps[i - 1])

    def prefix(self, L: int) -> np.ndarray:
        """w(1..L) as a fresh read-only int64 array: the differences of P[0..L]."""
        syms = np.diff(self.prefix_sums(L))
        syms.setflags(write=False)
        return syms

    def prefix_sums(self, L: int) -> np.ndarray:
        """Read-only int64 view of P[0..L]."""
        if L < 0:
            raise ValueError(f"negative prefix length {L}")
        self._ensure(L)
        view = self._ps[: L + 1].view()
        view.setflags(write=False)
        return view

    def factor(self, m: int, n: int) -> FiniteWord:
        """w(m)...w(n) inclusive, 1-based."""
        if m < 1 or m > n:
            raise ValueError(f"bad factor bounds [{m}, {n}]")
        self._ensure(n)
        return FiniteWord(np.diff(self._ps[m - 1 : n + 1]).tolist())

    def observed_alphabet(self, L: int) -> Alphabet:
        """Alphabet of the symbols actually seen in w(1..L)."""
        return Alphabet(np.unique(self.prefix(L)).tolist())

    def __repr__(self) -> str:
        return f"WordStream({self.label!r}, materialized={self._n})"


# -- word-level operations ----------------------------------------------


def word_sum(B: FiniteWord) -> int:
    """Sum of the symbols of B."""
    return B.prefix_sums[len(B)]


def word_slope(B: FiniteWord) -> Fraction:
    """slope(B) = sum(B) / |B|, exact."""
    if len(B) == 0:
        raise ValueError("slope of the empty word is undefined")
    return Fraction(word_sum(B), len(B))


def count_symbol(B: FiniteWord, s: int) -> int:
    """Number of occurrences of s in B."""
    return B.symbols.count(_integer(s))


def factor(w: WordStream, m: int, n: int) -> FiniteWord:
    """w(m)...w(n) inclusive, 1-based."""
    return w.factor(m, n)


def from_finite(symbols: Sequence[int], label: str = "<finite word>") -> WordStream:
    """Wrap a finite symbol sequence as a (terminating) stream.

    Reads past the end raise ValueError; this backs file-fed words.
    """
    frozen = tuple(map(_integer, symbols))
    return WordStream(lambda: iter(frozen), alphabet=Alphabet(frozen) if frozen else None, label=label)
