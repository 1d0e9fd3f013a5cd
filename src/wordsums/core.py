"""Finite and infinite words over integer alphabets, with exact prefix sums.

Positions in infinite words are 1-based: w(1) is the first symbol and
factor(w, m, n) is the inclusive block w(m)...w(n).  Finite words are
ordinary 0-based Python sequences.  Symbols are integers; a float or a
string is refused, not truncated.  All sums are exact: int64 prefix sums
back the long scans, with a guard that refuses lengths where max|s| * L
could approach 2**63, and everything crossing the API boundary is a
Python int or Fraction.  `Alphabet.ranks` is the only place a letter
becomes a row: Parikh vectors, lattice images and morphisms read it.
"""

from __future__ import annotations

import array
import itertools
import numbers
import threading
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

# int64 stays exact while |prefix sum| < 2**62; leave a factor-2 margin.
_SUM_LIMIT = 2**62

_CHUNK = 1 << 13
_MAX_CHUNK = 1 << 16  # symbols pulled into one list: bounds the fill's temporaries


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


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """Distinct values of a 1-D array, ascending, or rows of a 2-D one, lexicographic: a sort
    and a neighbour mask, several times faster than the hash table np.unique uses."""
    if values.ndim > 1:
        return values[_distinct_rows(values)]
    values = np.sort(values)
    keep = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _distinct_rows(table: np.ndarray) -> np.ndarray:
    """Row numbers of one row per distinct row of a 2-D table, in lexicographic row order, so
    a count gathers no row."""
    order = np.lexsort(table.T[::-1])
    keep = np.zeros(len(order), dtype=bool)
    keep[:1] = True
    for column in table.T:  # gathered one at a time: no sorted copy of the table
        column = column[order]  # a row starts a new value where any of its columns does
        keep[1:] |= column[1:] != column[:-1]
    return order[keep]


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
    """A finite set of integer symbols, held as one sorted array: int64, or object dtype when
    a letter is past int64.  `ranks` is the only place a letter becomes a row."""

    __slots__ = ("_letters",)

    def __init__(self, symbols: Iterable[int]):
        syms = sorted(set(map(_integer, symbols)))
        if not syms:
            raise ValueError("alphabet must be nonempty")
        fits = -(2**63) <= syms[0] and syms[-1] < 2**63
        self._letters = np.array(syms, np.int64 if fits else object)

    @property
    def symbols(self) -> tuple[int, ...]:
        """The letters ascending, as Python ints."""
        return tuple(self._letters.tolist())

    @property
    def fits_int64(self) -> bool:
        """Whether every letter fits int64, as every symbol of a word does."""
        return self._letters.dtype != object

    def __len__(self) -> int:
        return len(self._letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.symbols)

    def __contains__(self, s: object) -> bool:
        try:
            self.ranks([s])
        except KeyError:
            return False
        return True

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Alphabet) and self.symbols == other.symbols

    def __hash__(self) -> int:
        return hash(self.symbols)

    def ranks(self, letters: Sequence) -> np.ndarray:
        """Row of each letter in the sorted alphabet, by one searchsorted and an equality check.
        Letters match by value, as dict keys do: True and 1.0 find 1; 1.5, '1' and None find
        none.  A miss raises KeyError with the first missing letter as it was given."""
        try:
            keys = _int64(letters, "a letter")
        except (ValueError, GuardError):  # a float, a letter past int64 or a non-number:
            # compared as Python numbers, a non-number as NaN, which equals nothing
            keys = np.array([(x.item() if isinstance(x, np.generic) else x)
                             if isinstance(x, numbers.Real) else np.nan for x in letters], object)
        rows = np.searchsorted(self._letters, keys)  # past the last letter only on a miss
        hit = self._letters.take(rows, mode="clip") == keys
        if not hit.all():
            raise KeyError(letters[int(np.argmin(hit))])
        return rows

    def index(self, s: int) -> int:
        """Rank of s within the sorted alphabet (used for Parikh coordinates)."""
        return int(_rank_letters(self, [s], "symbol {0} not in alphabet {1}")[0])

    def __repr__(self) -> str:
        return f"Alphabet({list(self.symbols)})"


def _rank_letters(alphabet: Alphabet, letters: Sequence, miss: str) -> np.ndarray:
    """alphabet.ranks(letters), a miss raised as ValueError(miss.format(letter, symbols)):
    each caller names a letter outside its alphabet in its own words."""
    try:
        return alphabet.ranks(letters)
    except KeyError as e:
        raise ValueError(miss.format(e.args[0], alphabet.symbols)) from None


class FiniteWord:
    """Immutable finite word, held as its tuple of symbols; sums are read from it exactly."""

    __slots__ = ("symbols",)

    def __init__(self, symbols: Iterable[int]):
        self.symbols: tuple[int, ...] = tuple(map(_integer, symbols))

    @property
    def prefix_sums(self) -> tuple[int, ...]:
        """P[0..n] with P[0] = 0 and P[i] = s_1 + ... + s_i, exact ints, accumulated per call."""
        return tuple(itertools.accumulate(self.symbols, initial=0))

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
    calls.  It is filled from int64 chunks: a chunk reader `read(want)`
    returns the word's next symbols as one int64 array, at most `want` of
    them unless one letter's image is longer, and an empty array where the
    word ends.  A symbol factory is read through one adapter that takes
    `want` symbols into a list; morphic words build their chunks natively
    (see generators).  A request sizes the cache once and asks for at most
    2^16 symbols a chunk, so a fill holds little beside the cache.  Symbols
    are read as differences of the prefix sums, and the least and greatest
    symbol held bound the overflow guard and the letter boxes of the
    complexity keys.  Derived words read their sources' factories or chunk
    readers, not their caches, and so end where a finite source ends; only
    the word a caller reads holds a cache.  Extension is serialized with a
    lock so streams can be shared between threads.  A symbol that is no
    integer raises ValueError when it is read.  The label names the word: its
    canonical spec (see cli), or a <...> form for a word that no spec builds.
    """

    def __init__(
        self,
        factory: Callable[[], Iterator[int]],
        alphabet: Optional[Alphabet] = None,
        label: str = "<word>",
    ):
        self._factory = factory
        self._chunks: Optional[Callable[[], Callable[[int], np.ndarray]]] = None
        self._read: Optional[Callable[[int], np.ndarray]] = None
        self._ps = np.zeros(1, dtype=np.int64)
        self._n = 0
        self._lo, self._hi = 2**63, -(2**63)  # the symbols' range: empty until a chunk
        self._exhausted = False
        self._lock = threading.Lock()
        self.alphabet = alphabet
        self.label = label

    @classmethod
    def _chunked(cls, chunks: Callable[[], Callable[[int], np.ndarray]],
                 alphabet: Optional[Alphabet], label: str) -> "WordStream":
        """A word built from native int64 chunks: chunks() returns a reader from its start."""
        w = cls(None, alphabet, label)
        w._chunks = chunks
        return w

    # -- materialization ------------------------------------------------

    def _open(self) -> Callable[[int], np.ndarray]:
        """A chunk reader from the word's start; a symbol factory goes through the adapter."""
        if self._chunks is not None:
            return self._chunks()
        it, what = iter(self._factory()), f"a symbol of {self.label}"
        return lambda want: _int64(list(itertools.islice(it, want)), what)

    def _symbols(self) -> Iterator[int]:
        """The word's symbols from its start, one at a time, for a derived word reading it."""
        if self._chunks is None:
            return iter(self._factory())
        chunks = itertools.takewhile(len, map(self._chunks(), itertools.repeat(_CHUNK)))
        return itertools.chain.from_iterable(map(np.ndarray.tolist, chunks))

    def _extend(self, n: int) -> None:
        """Take chunks from the reader until w(n) is held or the word ends; needs the lock."""
        if self._read is None:  # a fresh reader skips the held symbols, not past them
            self._read, skip = self._open(), self._n
            while skip > 0 and len(chunk := self._read(min(skip, _MAX_CHUNK))):
                skip -= len(chunk)
            if skip < 0:  # one long image ran past the held symbols
                self._append(chunk[skip:], n)
        while self._n < n and not self._exhausted:
            chunk = self._read(min(max(_CHUNK, n - self._n), _MAX_CHUNK))
            if len(chunk):
                self._append(chunk, n)
            else:  # the word ended: its cache shrinks to the symbols it holds
                self._exhausted = True
                self._ps = self._ps[: self._n + 1].copy()

    def _append(self, arr: np.ndarray, n: int) -> None:
        """Add one chunk's prefix sums to the cache, sized for a request of w(n)."""
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
            # sized once for the whole request, so later chunks fit: no chunk of it ends past
            # n + _CHUNK unless one letter's image is longer than that
            ps = np.empty(max(2 * self._ps.size, n + _CHUNK, total + 1), dtype=np.int64)
            ps[: self._n + 1] = self._ps[: self._n + 1]
            self._ps = ps
        np.cumsum(arr, out=self._ps[self._n + 1 : total + 1])
        self._ps[self._n + 1 : total + 1] += self._ps[self._n]
        # stored left to right: a lock-free reader that sees the new length sees its range
        self._lo, self._hi, self._n = lo, hi, total

    def _ensure(self, n: int) -> None:
        """Materialize up to w(n); ValueError if a finite word ends first.

        A failure drops the chunk reader; the next call opens a fresh one
        and skips the symbols already held, so no symbol is lost or repeated.
        """
        if n <= self._n:
            return
        with self._lock:
            try:
                self._extend(n)
            except BaseException:
                self._read = None
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
        return Alphabet(_sorted_distinct(self.prefix(L)).tolist())

    def __repr__(self) -> str:
        return f"WordStream({self.label!r}, materialized={self._n})"


# -- word-level operations ----------------------------------------------


def word_sum(B: FiniteWord) -> int:
    """Sum of the symbols of B."""
    return sum(B.symbols)


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
