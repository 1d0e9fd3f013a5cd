"""Word specs shared by the workloads.

A spec is a small tuple.  `build` turns it into a wordsums stream
through the public constructors, `reference` generates the same prefix
with plain Python lists from the family's definition (the gate's
referee), and `cli_spec` renders the canonical CLI spelling.

    ("periodic", pattern)
    ("mechanical", cf, repeat)          repeat None means a rational slope
    ("enum", k)
    ("morphic", rules, seed)            rules: ((letter, image), ...)
    ("thm11", k)
    ("sec24",)
    ("splice", sources, rounds)
    ("contract", base, (start, period, width))
"""

from __future__ import annotations

import itertools
from fractions import Fraction

TM = ("morphic", ((0, (0, 1)), (1, (1, 0))), 0)
# Cassaigne-Currie-Schaeffer-Shallit: additive-cube-free (arXiv:1106.5204).
CCSS = ("morphic", ((0, (0, 3)), (1, (4, 3)), (3, (1,)), (4, (0, 1))), 0)
# Dekking 1979: binary abelian-4th-power-free and ternary abelian-cube-free.
DEKKING4 = ("morphic", ((0, (0, 0, 0, 1)), (1, (0, 1, 1))), 0)
DEKKING3 = ("morphic", ((0, (0, 0, 1, 2)), (1, (1, 1, 2)), (2, (0, 2, 2))), 0)
SEC24 = ("sec24",)

# Seeded inputs vary the word but not the work: each splice source keeps
# its share of symbols and blocks, the contract keeps its density and the
# periodic pattern keeps its letters, so cost does not depend on the seed.
SPLICE_SOURCES = (("thm11", 1), SEC24, ("periodic", (0, 2)))


# Irrational slopes as (continued fraction, repeat): sqrt(2)-1, the golden
# ratio's inverse and three more quadratic irrationals.
MECHANICAL_IRRATIONAL = (((2,), 1), ((1,), 1), ((1, 2), 1), ((3,), 1), ((2, 1), 2))
# Rational slopes 3/13, 4/13 and 5/13: the same q, so the same work.
MECHANICAL_Q13 = ((4, 3), (3, 4), (2, 1, 1, 2))


def seeded_splice(rng):
    """Two rounds; each source gives 7 symbols per cycle in two blocks."""
    cuts = [rng.randint(1, 6) for _ in SPLICE_SOURCES]
    return "splice", SPLICE_SOURCES, (tuple(cuts), tuple(7 - c for c in cuts))


def seeded_contract(rng):
    """thm11:k=1 with 2 of every 17 symbols deleted, from a seeded start."""
    return "contract", ("thm11", 1), (rng.randint(1, 16), 17, 2)


def seeded_periodic(rng):
    """A seeded order of the letters 0,1,1,2,3: slope 7/5 whatever the seed."""
    pattern = [0, 1, 1, 2, 3]
    rng.shuffle(pattern)
    return "periodic", tuple(pattern)


FAMILY_SPAN = {
    "periodic": "generators.periodic",
    "mechanical": "generators.mechanical",
    "enum": "generators.enumeration_word",
    "morphic": "generators.morphic_fixed_point",
    "thm11": "morphisms.apply_morphism",
    "sec24": "generators.unbounded_gap_word",
    "splice": "generators.splice",
    "contract": "generators.contract",
}


def build(spec):
    """The wordsums stream for a spec; nothing is materialized yet."""
    import wordsums as ws

    kind = spec[0]
    if kind == "periodic":
        return ws.periodic(spec[1])
    if kind == "mechanical":
        return ws.mechanical(spec[1], spec[2])
    if kind == "enum":
        return ws.enumeration_word(spec[1])
    if kind == "morphic":
        return ws.morphic_fixed_point(ws.Morphism(dict(spec[1])), spec[2])
    if kind == "thm11":
        return ws.constant_complexity_word(spec[1])
    if kind == "sec24":
        return ws.unbounded_gap_word()
    if kind == "splice":
        return ws.splice([build(s) for s in spec[1]], ws.SpliceSchedule(spec[2]))
    if kind == "contract":
        return ws.contract(build(spec[1]), ws.SeparatedIntervalSet.arithmetic(*spec[2]))
    raise ValueError(f"unknown spec {spec!r}")


def _ints(xs) -> str:
    return ",".join(str(x) for x in xs)


def cli_spec(spec) -> str:
    """Canonical CLI spelling, as `--explain` echoes it."""
    kind = spec[0]
    if kind == "periodic":
        return f"periodic:{_ints(spec[1])}"
    if kind == "mechanical":
        tail = "" if spec[2] is None else f";repeat={spec[2]}"
        return f"mechanical:cf={_ints(spec[1])}{tail}"
    if kind == "enum":
        return f"enum:k={spec[1]}"
    if kind == "morphic":
        rules = ";".join(f"{s}={_ints(img)}" for s, img in sorted(spec[1]))
        return f"morphic:{rules};seed={spec[2]}"
    if kind == "thm11":
        return f"thm11:k={spec[1]}"
    if kind == "sec24":
        return "sec24"
    if kind == "splice":
        srcs = "|".join(cli_spec(s) for s in spec[1])
        return f"splice:[{srcs}];sched={';'.join(_ints(r) for r in spec[2])}"
    if kind == "contract":
        return f"contract:base=({cli_spec(spec[1])});ivals=arith:{_ints(spec[2])}"
    raise ValueError(f"unknown spec {spec!r}")


def cf_fraction(cf) -> Fraction:
    x = Fraction(0)
    for a in reversed(cf):
        x = Fraction(1, a + x)
    return x


def _floor_word(alpha: Fraction, L: int) -> list[int]:
    p, q = alpha.numerator, alpha.denominator
    return [(p * i) // q - (p * (i - 1)) // q for i in range(1, L + 1)]


def _mechanical(cf, repeat, L: int) -> list[int]:
    if repeat is None:
        return _floor_word(cf_fraction(cf), L)
    # A convergent with q far past L^2 floors alpha*i exactly for i <= L,
    # since a quadratic irrational keeps alpha*i at least c/i from integers.
    coeffs = list(cf)
    tail = cf[len(cf) - repeat:]
    while cf_fraction(coeffs).denominator < 10**6 * (L + 1) ** 2:
        coeffs.extend(tail)
    return _floor_word(cf_fraction(coeffs), L)


def _enum(k: int, L: int) -> list[int]:
    out: list[int] = []
    for ell in itertools.count(1):
        for tup in itertools.product(range(k + 1), repeat=ell):
            out.extend(tup)
        if len(out) >= L:
            return out[:L]


def _morphic(rules, seed: int, L: int) -> list[int]:
    phi = dict(rules)
    w = list(phi[seed])
    while len(w) < L:
        w = [t for s in w for t in phi[s]]
    return w[:L]


def _sec24(L: int) -> list[int]:
    out: list[int] = []
    for n in itertools.count(1):
        for tup in itertools.product(range(1, n + 1), repeat=n):
            for v in tup:
                if v % 2:
                    out += [0] + [1] * v + [2]
                else:
                    out += [2] + [1] * v + [0]
            if len(out) >= L:
                return out[:L]


def _splice(sources, rounds, L: int) -> list[int]:
    need = [0] * len(sources)
    total = 0
    for row in itertools.cycle(rounds):
        for i, ln in enumerate(row):
            need[i] += ln
            total += ln
        if total >= L:
            break
    refs = [reference(s, n) if n else [] for s, n in zip(sources, need)]
    pos = [0] * len(sources)
    out: list[int] = []
    for row in itertools.cycle(rounds):
        for i, ln in enumerate(row):
            out += refs[i][pos[i]:pos[i] + ln]
            pos[i] += ln
        if len(out) >= L:
            return out[:L]


def _contract(base, params, L: int) -> list[int]:
    start, period, width = params
    need = start + (L // (period - width) + 2) * period
    syms = reference(base, need)
    return [
        s for i, s in enumerate(syms, 1)
        if i < start or (i - start) % period >= width
    ][:L]


def reference(spec, L: int) -> list[int]:
    """w(1..L) from the family's definition, in plain Python."""
    kind = spec[0]
    if kind == "periodic":
        pat = list(spec[1])
        return (pat * (L // len(pat) + 1))[:L]
    if kind == "mechanical":
        return _mechanical(spec[1], spec[2], L)
    if kind == "enum":
        return _enum(spec[1], L)
    if kind == "morphic":
        return _morphic(spec[1], spec[2], L)
    if kind == "thm11":
        k = spec[1]
        return [t for s in _enum(k, L // 2 + 1) for t in (s, 2 * k - s)][:L]
    if kind == "sec24":
        return _sec24(L)
    if kind == "splice":
        return _splice(spec[1], spec[2], L)
    if kind == "contract":
        return _contract(spec[1], spec[2], L)
    raise ValueError(f"unknown spec {spec!r}")
