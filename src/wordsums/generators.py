"""Constructors for the infinite words the analyses run on.

Each constructor returns a WordStream; nothing is materialized until a
prefix is requested.  Families: periodic words, morphic fixed points,
mechanical (Sturmian) words from continued fractions, enumeration words,
the paired-enumeration family with constant additive complexity 2k+1,
the bounded-spread word whose equal-slope cuts have unbounded gaps, the
staircase word with constant complexity n, plus the splice and contract
combinators.  Derived words iterate their sources' factories, never their
caches, apply images through Morphism.expand, and end where a finite
source ends.  Each stream's label is its canonical spec, e.g. thm11:k=2
(see cli), or <nested enumeration word> for the one word no spec builds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

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


def _check_letters(count: int, what: str) -> None:
    if count > _MAX_LETTERS:
        raise GuardError(f"{what} needs {count} letters, past the {_MAX_LETTERS}-letter guard")


def periodic(pattern: Sequence[int]) -> WordStream:
    """The word pattern pattern pattern ..."""
    pat = tuple(map(_integer, pattern))
    if not pat:
        raise ValueError("empty period")
    return WordStream(lambda: itertools.cycle(pat), alphabet=Alphabet(pat),
                      label=f"periodic:{','.join(map(str, pat))}")


def morphic_fixed_point(phi: Morphism, seed: int) -> WordStream:
    """The fixed point phi^inf(seed); phi must be prolongable at seed."""
    if not phi.is_endomorphism():
        raise ValueError("fixed points need target symbols inside the source")
    head = phi.image(seed)
    if head.symbols[0] != seed or len(head) < 2:
        raise ValueError(f"phi is not prolongable at {seed}: phi({seed}) = {head}")

    def gen() -> Iterator[int]:
        # out is the word itself and stays ahead of the letter read; one
        # extend per image beats appending phi.expand's symbols one by one.
        out = list(head.symbols)
        yield from out
        for s in itertools.islice(out, 1, None):
            img = phi.image(s).symbols
            out.extend(img)
            yield from img

    return WordStream(gen, alphabet=phi.source, label=f"morphic:{phi!r};seed={seed}")


def cf_value(cf: Sequence[int]) -> Fraction:
    """Value of the continued fraction [0; a1, a2, ...] for a finite list."""
    x = Fraction(0)
    for a in reversed(cf):
        x = Fraction(1, a + x)
    return x


def _directive(cf: Sequence[int], repeat: Optional[int]) -> Iterator[int]:
    # standard-word directive: d1 = a1 - 1, dn = an afterwards
    if repeat is None:
        coeffs: Iterable[int] = cf
    else:
        coeffs = itertools.chain(cf, itertools.cycle(cf[len(cf) - repeat :]))
    for i, a in enumerate(coeffs):
        yield a - 1 if i == 0 else a


def mechanical(cf: Sequence[int], repeat: Optional[int] = None) -> WordStream:
    """Lower mechanical word of slope alpha = [0; a1, a2, ...].

    Built through the standard-word recursion s_n = s_{n-1}^{d_n} s_{n-2}
    with s_{-1} = 1, s_0 = 0.  Without a repeat marker alpha = p/q is
    rational and the emitted period is 0 c 1 where s_last = c 10 or c 01;
    with repeat=r the last r coefficients cycle forever and the word is
    0 followed by the characteristic word.  Either way the output matches
    w(i) = floor(alpha*i) - floor(alpha*(i-1)).
    """
    cf = [_integer(a, "coefficient") for a in cf]
    if not cf or any(a < 1 for a in cf):
        raise ValueError(f"continued fraction coefficients must be >= 1: {cf}")
    if repeat is not None and not (1 <= repeat <= len(cf)):
        raise ValueError(f"repeat marker {repeat} out of range for {cf}")
    label = f"mechanical:cf={','.join(map(str, cf))}"
    if repeat is None:
        prev, cur = (1,), (0,)
        for d in _directive(cf, None):
            prev, cur = cur, cur * d + prev
        if len(cur) == 1:
            # slope is 0/1 or 1/1; the rotation below needs q >= 2
            period = cur
        else:
            period = (0,) + cur[:-2] + (1,)
        w = periodic(period)
        w.label = label
        return w

    def gen() -> Iterator[int]:
        yield 0
        emitted = 0
        prev, cur = (1,), (0,)
        for d in _directive(cf, repeat):
            prev, cur = cur, cur * d + prev
            yield from cur[emitted:]
            emitted = len(cur)

    return WordStream(gen, alphabet=Alphabet((0, 1)), label=f"{label};repeat={repeat}")


def enumeration_word(k: int) -> WordStream:
    """All words over {0..k} concatenated in length-then-lexicographic order."""
    if k < 0:
        raise ValueError("alphabet bound k must be >= 0")
    _check_letters(k + 1, f"enum:k={k}")

    def gen() -> Iterator[int]:
        for ell in itertools.count(1):
            for tup in itertools.product(range(k + 1), repeat=ell):
                yield from tup

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
        for n in itertools.count(1):
            for tup in itertools.product(range(1, n + 1), repeat=n):
                yield from tup

    return WordStream(gen, label="<nested enumeration word>")


def unbounded_gap_word() -> WordStream:
    """Bounded sum spread, but gaps between equal-slope cuts grow without bound.

    Each value v of the nested enumeration word becomes the block
    0 1^v 2 (v odd) or 2 1^v 0 (v even); block sums are all v + 2 while
    the runs of 1s inside grow, which pushes the slope-1 cut positions
    arbitrarily far apart.
    """
    feed = nested_enum_word()

    def gen() -> Iterator[int]:
        for v in feed._factory():
            first, last = (0, 2) if v % 2 else (2, 0)
            yield first
            yield from itertools.repeat(1, v)
            yield last

    return WordStream(gen, alphabet=Alphabet((0, 1, 2)), label="sec24")


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

    def gen() -> Iterator[int]:
        yield from ramp
        yield from itertools.repeat(n - 1)

    return WordStream(gen, alphabet=Alphabet(ramp), label=f"ladder:n={n}")


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
        readers = [iter(src._factory()) for src in sources]
        for row in itertools.cycle(schedule.rounds):
            for reader, ln in zip(readers, row):
                block = list(itertools.islice(reader, ln))
                yield from block
                if len(block) < ln:
                    return

    merged: Optional[Alphabet] = None
    if all(s.alphabet is not None for s in sources):
        merged = Alphabet(t for s in sources for t in s.alphabet)
    srcs = "|".join(s.label for s in sources)
    rows = ";".join(",".join(map(str, row)) for row in schedule.rounds)
    return WordStream(gen, alphabet=merged, label=f"splice:[{srcs}];sched={rows}")


class SeparatedIntervalSet:
    """Ascending 1-based intervals, at least one, with at least one position between them."""

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
        self._intervals: Callable[[], Iterator[Interval]] = lambda: iter(ivals)
        self._repr = ",".join(f"{i.lo}-{i.hi}" for i in ivals)

    @classmethod
    def arithmetic(cls, start: int, period: int, width: int) -> "SeparatedIntervalSet":
        """[start + j*period, start + j*period + width - 1] for all j >= 0."""
        start, period, width = map(_integer, (start, period, width))
        if start < 1 or width < 1 or period < width + 1:
            raise ValueError(
                f"need start >= 1, width >= 1, period > width; got {start},{period},{width}"
            )
        obj = cls.__new__(cls)
        obj._intervals = lambda: (
            Interval(lo, lo + width - 1) for lo in itertools.count(start, period)
        )
        obj._repr = f"arith:{start},{period},{width}"
        return obj

    def __iter__(self) -> Iterator[Interval]:
        return self._intervals()

    def __repr__(self) -> str:
        return self._repr


def contract(w: WordStream, intervals: SeparatedIntervalSet) -> WordStream:
    """Delete the given separated intervals from w and close the gaps.

    Deleting blocks whose boundary cuts share one chi color leaves the
    spread within the original bound plus twice the per-block sum error.
    The contracted word ends where a finite w ends.
    """

    def gen() -> Iterator[int]:
        # separated intervals: one step past iv.hi is never inside the next one
        ivals = iter(intervals)
        iv = next(ivals, None)
        for i, s in enumerate(w._factory(), start=1):
            if iv is not None and i > iv.hi:
                iv = next(ivals, None)
            if iv is None or i < iv.lo:
                yield s

    label = f"contract:base=({w.label});ivals={intervals!r}"
    return WordStream(gen, alphabet=w.alphabet, label=label)
