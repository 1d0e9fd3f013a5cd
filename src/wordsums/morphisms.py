"""Non-erasing morphisms and the equal-image-slope (anchor) test.

A morphism phi: S* -> T* is an anchor when all letter images share one
slope; applying an anchor preserves bounded sum spread, and the common
slope is its weight.  Everything here is exact: slopes are Fractions and
the incidence matrix is integer.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .complexity import LatticeMap, _windows, image_prefix_sums
from .core import Alphabet, FiniteWord, WordStream, word_slope, word_sum


class Morphism:
    """Letter-to-word map with nonempty images, applied by concatenation."""

    def __init__(
        self,
        images: Mapping[int, Sequence[int]],
        target: Optional[Alphabet] = None,
    ):
        if not images:
            raise ValueError("morphism needs at least one letter image")
        self.images: dict[int, FiniteWord] = {}
        seen: set[int] = set()
        for s, img in images.items():
            w = img if isinstance(img, FiniteWord) else FiniteWord(img)
            if len(w) == 0:
                raise ValueError(f"erasing image for letter {s}")
            self.images[int(s)] = w
            seen.update(w.symbols)
        self.source = Alphabet(self.images)
        self.target = target if target is not None else Alphabet(seen)
        for s in seen:
            if s not in self.target:
                raise ValueError(f"image symbol {s} outside target alphabet")

    def image(self, s: int) -> FiniteWord:
        try:
            return self.images[int(s)]
        except KeyError:
            raise ValueError(f"letter {s} has no image") from None

    def expand(self, letters: Iterable[int]) -> Iterator[int]:
        """phi(s1) phi(s2) ... for the letters s1 s2 ..., lazily."""
        for s in letters:
            yield from self.image(s).symbols

    def __call__(self, B: FiniteWord) -> FiniteWord:
        return FiniteWord(self.expand(B))

    def max_image_len(self) -> int:
        return max(len(w) for w in self.images.values())

    def image_slopes(self) -> dict[int, Fraction]:
        return {s: word_slope(w) for s, w in sorted(self.images.items())}

    def is_endomorphism(self) -> bool:
        return all(t in self.source for t in self.target)

    def __repr__(self) -> str:
        rules = ";".join(
            f"{s}={','.join(map(str, w.symbols))}" for s, w in sorted(self.images.items())
        )
        return rules


@dataclass(frozen=True)
class AnchorReport:
    is_anchor: bool
    weight: Optional[Fraction]          # common image slope, when it exists
    image_slopes: dict[int, Fraction]
    matrix: np.ndarray                  # counts of target letters per image
    witness: Optional[tuple[FiniteWord, FiniteWord]]


def apply_morphism(phi: Morphism, w: WordStream) -> WordStream:
    """The stream phi(w(1)) phi(w(2)) ...; symbols outside phi's source fail late."""
    return WordStream(
        lambda: phi.expand(w._factory()), alphabet=phi.target, label=f"image({w.label})"
    )


def anchor_matrix(phi: Morphism) -> tuple[np.ndarray, Callable[[Fraction], list[Fraction]]]:
    """Incidence matrix M[i, j] = |phi(s_i)|_{t_j} plus the t_alpha builder.

    phi is an anchor of weight alpha exactly when M @ t_alpha == 0, where
    t_alpha has components t_j - alpha.
    """
    S = phi.source.symbols
    T = phi.target.symbols
    M = np.zeros((len(S), len(T)), dtype=np.int64)
    for i, s in enumerate(S):
        for t in phi.image(s):
            M[i, phi.target.index(t)] += 1

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
    slopes = phi.image_slopes()
    vals = set(slopes.values())
    M, _ = anchor_matrix(phi)
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

    def gen():
        for n in itertools.count(1):
            for _ in range(n):
                yield from B1.symbols
            for _ in range(n):
                yield from B2.symbols

    return WordStream(gen, alphabet=phi.source, label="unbounding")


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
    C = image_prefix_sums(w, LatticeMap.parikh_map(ab), L)
    # every letter's growth has the same denominator, so spread differences rank them
    first, last = (np.ptp(_windows(C, n), axis=0) for n in (max(1, L // 256), max(4, L // 4)))
    s = ab.symbols[int(np.argmax(last - first))]  # argmax keeps the smallest letter on ties
    images = {t: (t,) for t in ab if t != s}
    images[s] = (s + 1,)
    return Morphism(images)
