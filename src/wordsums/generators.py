"""Constructors for the infinite words the analyses run on.

Each constructor returns a WordStream; nothing is materialized until a
prefix is requested.  Families: periodic words, morphic fixed points,
mechanical (Sturmian) words from continued fractions, enumeration words,
the paired-enumeration family with constant additive complexity 2k+1,
the bounded-spread word whose equal-slope cuts have unbounded gaps, the
staircase word with constant complexity n, plus the splice and contract
combinators.  Morphic words, fixed points and images alike, are computed in
int64 chunks by Morphism's gather over its flat image table.  Every other
family is a pipeline of itertools iterators, with no Python loop per
symbol, read through WordStream's chunk adapter.  Derived words read their
sources' symbols, never their caches, and end where a finite source ends.
An interval set is the lengths of the kept and deleted runs it cuts a word
into, and contract compresses its source by those runs, with no Python
step per interval.
Each stream's label is its canonical spec, e.g. thm11:k=2 (see cli), or
<nested enumeration word> for the one word no spec builds.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .core import Alphabet, GuardError, Interval, WordStream, _integer
from .morphisms import Morphism, apply_morphism

__all__ = [
    "periodic",
    "morphic_fixed_point",
    "mechanical",
    "cf_value",
    "enumeration_word",
    "mirror_anchor",
    "constant_complexity_word",
    "nested_enum_word",
    "unbounded_gap_word",
    "constant_tail_word",
    "SpliceSchedule",
    "splice",
    "SeparatedIntervalSet",
    "contract",
]

# A length-L prefix shows at most L letters, and the CLI reads at most 10^6 < 2^20
# symbols without --unsafe-large.  The families below build their whole alphabet
# before reading a symbol, so a larger one only exhausts memory.
_MAX_LETTERS = 2**20
_LAG_STEP = 1 << 15  # lagging letters a fixed point expands per step


def _check_letters(count: int, what: str) -> None:
    if count > _MAX_LETTERS:
        raise GuardError(f"{what} needs {count} letters, past the {_MAX_LETTERS}-letter guard")


def periodic(pattern: Sequence[int]) -> WordStream:
    """The word pattern pattern pattern ..."""
    pat = tuple(map(_integer, pattern))
    if not pat:
        raise ValueError("empty period")
    return WordStream(lambda: itertools.cycle(pat), alphabet=Alphabet(set(pat)),
                      label=f"periodic:{','.join(map(str, pat))}")


def morphic_fixed_point(phi: Morphism, seed: int) -> WordStream:
    """The fixed point phi^inf(seed); phi must be prolongable at seed.

    w = phi(w) is computed in int64 chunks, in step with the demand: each step expands at
    most 2^15 of the letters written but not yet expanded, the lag, through phi's gather
    table, and only that lag is held, as letter ranks in the narrowest dtype.  A letter is
    bounded when its iterated images keep length 1.  Once every lagging letter is bounded,
    w[t] = f(w[t - g]) for f = phi on those letters and g the lag, so the rest is emitted
    in blocks w[t : t + l] = f^(l/g)(w[t - l : t]), the letter table squared as l doubles
    up to 2^16: 0 -> 01, 1 -> 1 costs O(log L) steps, not one step per symbol.
    """
    if not phi.is_endomorphism():
        raise ValueError("fixed points need target symbols inside the source")
    head = phi.image(seed)
    if head.symbols[0] != seed or len(head) < 2:
        raise ValueError(f"phi is not prolongable at {seed}: phi({seed}) = {head}")
    return WordStream._chunked(functools.partial(_FixedPoint, phi, seed), alphabet=phi.source,
                               label=f"morphic:{phi!r};seed={seed}")


class _FixedPoint:
    """Chunk reader of a fixed point, in ranks of phi's source (see morphic_fixed_point)."""

    def __init__(self, phi: Morphism, seed: int):
        starts, lens, flat = phi._flat
        self._phi, self._step = phi, int(lens.max())
        self._ranks = phi.source.ranks(flat).astype(np.min_scalar_type(len(lens) - 1))
        self._syms = np.zeros(len(lens), dtype=np.int64)
        self._syms[self._ranks] = flat  # every letter written is some image's letter
        self._f = f = self._ranks[starts]  # each image's first letter: phi on bounded letters
        bounded = lens == 1
        for _ in range(len(lens).bit_length()):  # then a .. f^(2^j - 1)(a) all have length 1
            bounded, f = bounded & bounded[f], f[f]
        self._unbounded = ~bounded
        s = phi.source.index(seed)
        self._head = self._ranks[starts[s] : starts[s] + lens[s]]  # phi(seed), emitted first
        self._lag = self._head[1:]  # the last symbols written: the lag, then the block source
        self._pending = np.count_nonzero(self._unbounded[self._lag])  # unbounded lagging letters

    def __call__(self, want: int) -> np.ndarray:
        if self._head is not None:
            out, self._head = self._head, None
            return self._syms[out]
        lag, k = self._lag, 0
        if self._pending:  # expand the first k lagging letters
            k = min(_LAG_STEP, len(lag), max(1, want // self._step))
            out = self._ranks[self._phi._positions(lag[:k])]
            self._pending += (np.count_nonzero(self._unbounded[out])
                              - np.count_nonzero(self._unbounded[lag[:k]]))
        else:  # w[t] = F(w[t - l]), l = len(lag) and F = f^(l/g): a whole block doubles l
            out = self._f[lag[:want]]
            if len(out) == len(lag) <= _LAG_STEP:
                self._f = self._f[self._f]
            else:
                k = len(out)
        self._lag = np.concatenate((lag[k:], out))
        return self._syms[out]


def cf_value(cf: Sequence[int]) -> Fraction:
    """Value of the continued fraction [0; a1, a2, ...] for a finite list."""
    x = Fraction(0)
    for a in reversed(cf):
        x = Fraction(1, a + x)
    return x


def mechanical(cf: Sequence[int], repeat: Optional[int] = None) -> WordStream:
    """Lower mechanical word w(i) = floor(alpha*i) - floor(alpha*(i-1)), alpha = [0; a1, ...].

    Without a repeat marker alpha = p/q is rational and the word repeats the lower
    Christoffel word w(1..q).  With repeat=r the last r coefficients cycle forever and the
    word is 0 followed by the limit of the standard words s_n = s_{n-1}^{d_n} s_{n-2},
    with s_{-1} = 1, s_0 = 0, d_1 = a1 - 1 and d_n = a_n afterwards.  Either word is
    generated as it is read, so reading L symbols costs O(L) time and memory whatever
    the denominator q or the coefficients are.
    """
    cf = [_integer(a, "coefficient") for a in cf]
    if not cf or any(a < 1 for a in cf):
        raise ValueError(f"continued fraction coefficients must be >= 1: {cf}")
    if repeat is not None and not (1 <= repeat <= len(cf)):
        raise ValueError(f"repeat marker {repeat} out of range for {cf}")
    label = f"mechanical:cf={','.join(map(str, cf))}"
    if repeat is None:
        p, q = cf_value(cf).as_integer_ratio()

        def period() -> Iterator[int]:
            return itertools.cycle((p * i) // q - (p * (i - 1)) // q for i in range(1, q + 1))

        return WordStream(period, alphabet=Alphabet((0, 1) if q > 1 else (1,)), label=label)

    def gen() -> Iterator[int]:
        # s_0 = 0, s_1 = 0^(a1 - 1) 1; each s_n starts with s_{n-1}, so only its tail
        # s_{n-1}^(a_n - 1) s_{n-2} is new: it is emitted first and s_n is built after
        yield from itertools.repeat(0, cf[0])
        yield 1
        prev, cur = (0,), (0,) * (cf[0] - 1) + (1,)
        for a in itertools.chain(cf[1:], itertools.cycle(cf[len(cf) - repeat :])):
            yield from itertools.chain.from_iterable(itertools.repeat(cur, a - 1))
            yield from prev
            prev, cur = cur, cur * a + prev

    return WordStream(gen, alphabet=Alphabet((0, 1)), label=f"{label};repeat={repeat}")


def enumeration_word(k: int) -> WordStream:
    """All words over {0..k} concatenated in length-then-lexicographic order."""
    if k < 0:
        raise ValueError("alphabet bound k must be >= 0")
    _check_letters(k + 1, f"enum:k={k}")

    def gen() -> Iterator[int]:
        words = map(lambda ell: itertools.product(range(k + 1), repeat=ell), itertools.count(1))
        return itertools.chain.from_iterable(itertools.chain.from_iterable(words))

    return WordStream(gen, alphabet=Alphabet(range(k + 1)), label=f"enum:k={k}")


def mirror_anchor(k: int) -> Morphism:
    """i -> i (2k-i) on {0..k}: every image has slope k."""
    if k < 0:
        raise ValueError("weight k must be >= 0")
    _check_letters(2 * k + 1, f"mirror_anchor({k})")
    return Morphism({i: (i, 2 * k - i) for i in range(k + 1)}, target=Alphabet(range(2 * k + 1)))


def constant_complexity_word(k: int) -> WordStream:
    """Recurrent word over {0..2k} with exactly 2k+1 window sums at every length.

    Image of the enumeration word under i -> i (2k-i); each image pair
    sums to 2k, so length-n sums land on the 2k+1 values kn - k .. kn + k
    and all of them occur once every block pattern has been enumerated.
    """
    w = apply_morphism(mirror_anchor(k), enumeration_word(k))
    w.label = f"thm11:k={k}"
    return w


def nested_enum_word() -> WordStream:
    """Concatenation of all words over {1..n} of length n, for n = 1, 2, ..."""

    def gen() -> Iterator[int]:
        words = map(lambda n: itertools.product(range(1, n + 1), repeat=n), itertools.count(1))
        return itertools.chain.from_iterable(itertools.chain.from_iterable(words))

    return WordStream(gen, label="<nested enumeration word>")


def unbounded_gap_word() -> WordStream:
    """Bounded sum spread, but gaps between equal-slope cuts grow without bound.

    Each value v of the nested enumeration word becomes the block
    0 1^v 2 (v odd) or 2 1^v 0 (v even); block sums are all v + 2 while
    the runs of 1s inside grow, which pushes the slope-1 cut positions
    arbitrarily far apart.
    """
    feed = nested_enum_word()

    @functools.cache
    def block(v: int) -> tuple[int, ...]:
        return (0, *[1] * v, 2) if v % 2 else (2, *[1] * v, 0)

    return WordStream(lambda: itertools.chain.from_iterable(map(block, feed._symbols())),
                      alphabet=Alphabet((0, 1, 2)), label="sec24")


def constant_tail_word(n: int) -> WordStream:
    """The staircase 0 1 ... n-1 (n-1)^inf, with exactly n sums at every length.

    Length-1 windows give the n distinct letters; longer windows give
    n-1 strictly increasing sums along the ramp plus the constant tail
    value, so additive and abelian complexity both equal n everywhere.
    """
    if n < 1:
        raise ValueError("need at least one letter")
    _check_letters(n, f"ladder:n={n}")
    ramp = tuple(range(n))

    return WordStream(lambda: itertools.chain(ramp, itertools.repeat(n - 1)),
                      alphabet=Alphabet(ramp), label=f"ladder:n={n}")


@dataclass(frozen=True)
class SpliceSchedule:
    """Cyclic table of block lengths: rounds[r][i] symbols come from source i."""

    rounds: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rounds = tuple(tuple(_integer(x, "block length") for x in row) for row in self.rounds)
        object.__setattr__(self, "rounds", rounds)
        if not rounds:
            raise ValueError("schedule needs at least one round")
        if self.width == 0 or any(len(row) != self.width for row in rounds):
            raise ValueError("all schedule rounds must list every source")
        if any(x < 0 for row in rounds for x in row):
            raise ValueError("block lengths must be >= 0")
        if all(x == 0 for row in rounds for x in row):
            raise ValueError("schedule never emits a symbol")

    @property
    def width(self) -> int:
        return len(self.rounds[0])


def splice(sources: Sequence[WordStream], schedule: SpliceSchedule) -> WordStream:
    """Interleave blocks of the sources, each consumed left to right.

    Round r takes the next rounds[r][i] unread symbols from source i, in
    source order; the schedule table repeats until a finite source runs
    short, and the splice ends with that short block.  Splicing words of
    equal slope and bounded spread keeps the spread bounded.
    """
    if schedule.width != len(sources):
        raise ValueError(
            f"schedule width {schedule.width} != number of sources {len(sources)}"
        )

    def gen() -> Iterator[int]:
        # a block is ln reads of its source; unlike a bare map, yield from ends at a short one
        readers = [src._symbols() for src in sources]
        blocks = [(r, ln) for row in schedule.rounds for r, ln in zip(readers, row)]
        per_symbol = itertools.starmap(itertools.repeat, itertools.cycle(blocks))
        yield from map(next, itertools.chain.from_iterable(per_symbol))

    merged: Optional[Alphabet] = None
    if all(s.alphabet is not None for s in sources):
        merged = Alphabet(t for s in sources for t in s.alphabet)
    srcs = "|".join(s.label for s in sources)
    rows = ";".join(",".join(map(str, row)) for row in schedule.rounds)
    return WordStream(gen, alphabet=merged, label=f"splice:[{srcs}];sched={rows}")


class SeparatedIntervalSet:
    """Ascending 1-based intervals, at least one, with at least one position between them,
    held as the alternating lengths of the kept and deleted runs they cut a word into: a
    head read once, then a period repeated forever (empty for an explicit list)."""

    def __init__(self, intervals: Iterable[Union[Interval, tuple[int, int]]]):
        ivals = [Interval(_integer(a), _integer(b)).validate() for a, b in intervals]
        if not ivals:
            raise ValueError("an interval list needs at least one interval")
        for prev, nxt in zip(ivals, ivals[1:]):
            if prev.hi + 1 >= nxt.lo:
                raise ValueError(
                    f"intervals [{prev.lo},{prev.hi}] and [{nxt.lo},{nxt.hi}] "
                    "are not separated"
                )
        ends = [0, *itertools.chain.from_iterable((lo - 1, hi) for lo, hi in ivals)]
        self._runs = (tuple(b - a for a, b in zip(ends, ends[1:])), ())

    @classmethod
    def arithmetic(cls, start: int, period: int, width: int) -> "SeparatedIntervalSet":
        """[start + j*period, start + j*period + width - 1] for all j >= 0."""
        start, period, width = map(_integer, (start, period, width))
        if start < 1 or width < 1 or period < width + 1:
            raise ValueError(
                f"need start >= 1, width >= 1, period > width; got {start},{period},{width}"
            )
        obj = cls.__new__(cls)
        obj._runs = ((start - 1,), (width, period - width))
        return obj

    def _lengths(self) -> Iterator[int]:  # kept, deleted, kept, ...
        return itertools.chain(self._runs[0], itertools.cycle(self._runs[1]))

    def __iter__(self) -> Iterator[Interval]:
        ends = itertools.accumulate(self._lengths())
        return (Interval(a + 1, b) for a, b in zip(ends, ends))

    def __repr__(self) -> str:
        head, period = self._runs
        return (f"arith:{head[0] + 1},{sum(period)},{period[0]}" if period
                else ",".join(f"{lo}-{hi}" for lo, hi in self))


def contract(w: WordStream, intervals: SeparatedIntervalSet) -> WordStream:
    """Delete the given separated intervals from w and close the gaps.

    Deleting blocks whose boundary cuts share one chi color leaves the
    spread within the original bound plus twice the per-block sum error.
    The contracted word ends where a finite w ends.
    """

    def gen() -> Iterator[int]:  # keep, drop, ..., by the run lengths; then keep the rest
        runs = map(itertools.repeat, itertools.cycle((True, False)), intervals._lengths())
        keep = itertools.chain(itertools.chain.from_iterable(runs), itertools.repeat(True))
        return itertools.compress(w._symbols(), keep)

    label = f"contract:base=({w.label});ivals={intervals!r}"
    return WordStream(gen, alphabet=w.alphabet, label=label)
