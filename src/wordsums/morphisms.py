"""Non-erasing morphisms and the equal-image-slope (anchor) test.

A morphism phi: S* -> T* is an anchor when all letter images share one
slope; applying an anchor preserves bounded sum spread, and the common
slope is its weight.  Everything here is exact: slopes are Fractions and
the incidence matrix is integer.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .complexity import LatticeMap, _check_table, _rules, window_images
from .core import Alphabet, FiniteWord, WordStream, _int64, _integer, _rank_letters

_NO_IMAGE = "letter {0} has no image"  # expand's and apply_morphism's message


class Morphism:
    """Non-erasing letter-to-word map, held as one letter -> symbol-tuple table; words are
    computed from the flat gather table built from it on first use."""

    def __init__(
        self,
        images: Mapping[int, Sequence[int]],
        target: Optional[Alphabet] = None,
    ):
        if not images:
            raise ValueError("morphism needs at least one letter image")
        self._table = {_integer(s): tuple(map(_integer, img)) for s, img in images.items()}
        for s, img in self._table.items():
            if not img:
                raise ValueError(f"erasing image for letter {s}")
        symbols = sorted(set(itertools.chain.from_iterable(self._table.values())))
        self.source = Alphabet(self._table)
        self.target = target if target is not None else Alphabet(symbols)
        _rank_letters(self.target, symbols, "image symbol {0} outside target alphabet")

    @property
    def images(self) -> dict[int, FiniteWord]:  # built from the table on each call
        return {s: FiniteWord(img) for s, img in self._table.items()}

    def image(self, s: int) -> FiniteWord:
        return FiniteWord(self.expand((s,)))

    def expand(self, letters: Iterable[int]) -> Iterator[int]:
        """phi(s1) phi(s2) ... for the letters s1 s2 ..., lazily and in C; a letter with no
        image raises ValueError where it is read."""
        try:
            yield from itertools.chain.from_iterable(map(self._table.__getitem__, letters))
        except KeyError as e:
            raise ValueError(_NO_IMAGE.format(e.args[0])) from None

    def __call__(self, B: FiniteWord) -> FiniteWord:
        return FiniteWord(self.expand(B))

    @functools.cached_property
    def _flat(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The gather table: image starts and lengths by source rank, and the images laid end
        to end as int64 symbols; an image symbol past int64 raises GuardError here."""
        images = [self._table[s] for s in self.source]
        lens = np.fromiter(map(len, images), np.intp, len(images))
        flat = _int64(list(itertools.chain.from_iterable(images)), "an image symbol")
        return np.cumsum(lens) - lens, lens, flat

    def _positions(self, ranks: np.ndarray) -> np.ndarray:
        """Where phi(s1) phi(s2) ... lie in the flat table, for letters of the given ranks: each
        image's start, repeated over its length, plus an arange."""
        starts, lens, _ = self._flat
        size = lens[ranks]
        ends = np.cumsum(size)
        pos = np.repeat(starts[ranks] - ends + size, size)
        pos += np.arange(len(pos))
        return pos

    def max_image_len(self) -> int:
        return max(map(len, self._table.values()))

    def image_slopes(self) -> dict[int, Fraction]:
        return {s: Fraction(sum(img), len(img)) for s, img in sorted(self._table.items())}

    def is_endomorphism(self) -> bool:
        try:
            self.source.ranks(self.target.symbols)
        except KeyError:
            return False
        return True

    def __repr__(self) -> str:
        return _rules(sorted(self._table.items()))


@dataclass(frozen=True)
class AnchorReport:
    is_anchor: bool
    weight: Optional[Fraction]          # common image slope, when it exists
    image_slopes: dict[int, Fraction]
    matrix: np.ndarray                  # counts of target letters per image
    witness: Optional[tuple[FiniteWord, FiniteWord]]


def apply_morphism(phi: Morphism, w: WordStream) -> WordStream:
    """The stream phi(w(1)) phi(w(2)) ...; symbols outside phi's source fail late.

    Each chunk is the gather of phi's flat image table over the next want // N letters of
    w, N the longest image, so no letter past the demand is read.  No spec builds an
    image, so its label is <image of ...>, naming w.
    """
    step = phi.max_image_len()

    def chunks() -> Callable[[int], np.ndarray]:
        letters = w._symbols()  # each chunk in one call, so its temporaries end with it
        return lambda want: phi._flat[2][phi._positions(_rank_letters(  # by value, like `expand`
            phi.source, list(itertools.islice(letters, max(1, want // step))), _NO_IMAGE))]

    return WordStream._chunked(chunks, alphabet=phi.target, label=f"<image of {w.label}>")


def anchor_matrix(phi: Morphism) -> tuple[np.ndarray, Callable[[Fraction], list[Fraction]]]:
    """Incidence matrix plus the t_alpha builder: row i of M is the Parikh vector of
    phi(s_i) over the target, so M[i, j] = |phi(s_i)|_{t_j}.

    phi is an anchor of weight alpha exactly when M @ t_alpha == 0, where
    t_alpha has components t_j - alpha.
    """
    T, images = phi.target, [phi._table[s] for s in phi.source]
    _check_table(len(images), len(T), f"the {len(images)} x {len(T)} anchor matrix")
    M = np.zeros((len(images), len(T)), dtype=np.int64)
    rows = np.repeat(np.arange(len(images)), list(map(len, images)))
    np.add.at(M, (rows, T.ranks(list(itertools.chain.from_iterable(images)))), 1)

    def t_alpha(alpha) -> list[Fraction]:
        a = Fraction(alpha)
        return [t - a for t in T]

    return M, t_alpha


def non_anchor_witness(phi: Morphism) -> tuple[FiniteWord, FiniteWord]:
    """Blocks B1, B2 with |phi(B1)| = |phi(B2)| but different image sums.

    Uses the smallest letter and the smallest letter whose image slope
    differs: B1 = s1^p, B2 = si^q with p*|phi(s1)| = q*|phi(si)| = lcm.
    """
    slopes = phi.image_slopes()
    letters = sorted(slopes)
    s1 = letters[0]
    si = next((s for s in letters[1:] if slopes[s] != slopes[s1]), None)
    if si is None:
        raise ValueError("all image slopes agree; no witness exists")
    l1, li = len(phi.image(s1)), len(phi.image(si))
    common = math.lcm(l1, li)
    B1 = FiniteWord([s1] * (common // l1))
    B2 = FiniteWord([si] * (common // li))
    return B1, B2


def is_anchor(phi: Morphism) -> AnchorReport:
    """Decide equal image slopes; on failure attach a length-matched witness."""
    M, _ = anchor_matrix(phi)  # refused past the memory guard before any slope is taken
    slopes = phi.image_slopes()
    vals = set(slopes.values())
    if len(vals) == 1:
        return AnchorReport(True, next(iter(vals)), slopes, M, None)
    return AnchorReport(False, None, slopes, M, non_anchor_witness(phi))


def unbounding_stream(phi: Morphism) -> WordStream:
    """B1 B2 B1^2 B2^2 B1^3 ... over phi's source, from the witness blocks.

    The image under the non-anchor phi has unbounded sum spread: the two
    blocks trade length-matched images with different sums, in runs that
    grow without bound.
    """
    B1, B2 = non_anchor_witness(phi)

    def gen() -> Iterator[int]:
        counts = itertools.chain.from_iterable(zip(itertools.count(1), itertools.count(1)))
        runs = map(itertools.repeat, itertools.cycle((B1.symbols, B2.symbols)), counts)
        return itertools.chain.from_iterable(itertools.chain.from_iterable(runs))

    return WordStream(gen, alphabet=phi.source, label=f"<unbounding word of {phi!r}>")


def anchor_spread_bound(phi: Morphism) -> int:
    """Spread bound for images of bounded-spread words under an anchor.

    With N = max image length and T the target alphabet: any two
    length-matched image factors differ by at most 2*M' + M, where
    M = (2N-2)*max|t| covers the ragged block edges and M' bounds the
    sum difference of words shorter than N.
    """
    N = phi.max_image_len()
    T = phi.target.symbols
    max_abs = max(abs(t) for t in T)
    hi = max(max(T), 0)
    lo = min(min(T), 0)
    M = (2 * N - 2) * max_abs
    M_short = (N - 1) * (hi - lo)
    return 2 * M_short + M


def abelian_unbounding_morphism(w: WordStream, L: int) -> Morphism:
    """Guess a letter-increment morphism that unbalances w's sums.

    Measures, for each letter, how much the spread of its occurrence
    counts over length-n windows (Parikh images from the complexity
    kernel) grows from n = L/256 to n = L/4, picks the steepest letter s
    (ties to the smallest), and returns s -> s+1 with every other letter
    fixed.  Purely advisory: the caller checks the image's spread.
    """
    if L < 8:
        raise ValueError("prefix too short to estimate count growth")
    ab = w.observed_alphabet(L)
    mu = LatticeMap.parikh_map(ab)
    # every letter's growth has the same denominator, so spread differences rank them
    first, last = (np.ptp(window_images(w, mu, n, L), axis=0)
                   for n in (max(1, L // 256), max(4, L // 4)))
    s = ab.symbols[int(np.argmax(last - first))]  # argmax keeps the smallest letter on ties
    images = {t: (t,) for t in ab if t != s}
    images[s] = (s + 1,)
    return Morphism(images)
