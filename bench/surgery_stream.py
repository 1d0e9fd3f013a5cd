"""surgery-stream: fresh streams materialized cold, then read warm.

Each item builds one stream from a family, fills its prefix to L in one
`prefix_sums` op (a cache write), then reads the warm prefix with the
four slope functions and one small additive `profile`.  Splice,
contract, sec24 and thm11 read their sources through factor/symbol while
they fill their own cache, so nested streams are written too.
"""

from __future__ import annotations

import random
from fractions import Fraction

import layers
import refs
from harness import Op, Tracer
from words import (CCSS, MECHANICAL_IRRATIONAL, SEC24, TM, build, reference, seeded_contract,
                   seeded_periodic, seeded_splice)

SETUP_REPS = 5
CHILD_RSS = False
PROFILE_L = 10**4
PROFILE_N = 4

# Only the two cheapest families go to 1e6, so that a run holds many passes.
_BIG = ("periodic", "enum")


def plan(seed: int) -> dict:
    rng = random.Random(seed)
    cf, repeat = rng.choice(MECHANICAL_IRRATIONAL)
    one = Fraction(1)
    # Slopes for the chi and cut reads: exact where the family has a rational
    # slope, 13/7 for CCSS, and 2/5 for every mechanical word so that the
    # seeded continued fraction does not change how much the reads do.
    families = {
        "periodic": (seeded_periodic(rng), Fraction(7, 5)),
        "mechanical": (("mechanical", cf, repeat), Fraction(2, 5)),
        "enum": (("enum", 2), one),
        "ccss": (CCSS, Fraction(13, 7)),
        "tm": (TM, Fraction(1, 2)),
        "thm11": (("thm11", 2), Fraction(2)),
        "sec24": (SEC24, one),
        "splice": (seeded_splice(rng), one),
        "contract": (seeded_contract(rng), one),
    }
    items = [(f, L) for f in families for L in (10**4, 10**5)]
    items += [(f, 10**6) for f in _BIG]
    return {"seed": seed, "families": families, "items": items, "refs": {}}


def setup(p: dict, tr) -> dict:
    return {}


def setup_counts(p: dict) -> dict:
    return {}


def _sample_digest(P) -> tuple:
    stride = max(1, (P.size - 1) // 1000)
    return P.size, int(P[-1]), tuple(P[::stride].tolist())


def _chi_digest(f) -> tuple:
    return f.alpha, f.color, len(f.cuts), hash(f.cuts)


def _greedy_digest(g) -> tuple:
    return g.alpha, len(g.cuts), hash(g.cuts), hash(g.gaps), g.truncated


def pass_ops(p: dict, state: dict, rng: random.Random, tr):
    import wordsums as ws

    items = list(p["items"])
    rng.shuffle(items)
    for fam, L in items:
        spec, alpha = p["families"][fam]
        streams: dict = {}
        base = {"family": fam, "L": L}
        yield Op(f"{fam}:{L}:materialize", None, _module(spec),
                 lambda spec=spec, L=L, s=streams: layers.materialize(tr, spec, L, s, "w"),
                 _sample_digest, {**base, "op": "materialize"})
        w = streams.get("w")
        if w is not None:
            layers.warm_reads(tr, w, L)
        reads = (
            ("slopes.slope_estimate", lambda: ws.slope_estimate(w, L), tuple),
            ("slopes.deviation_constant", lambda: ws.deviation_constant(w, alpha, L),
             lambda d: (d.alpha, d.prefix_length, d.constant)),
            ("slopes.chi_factorization", lambda: ws.chi_factorization(w, alpha, L), _chi_digest),
            ("slopes.greedy_slope_cuts", lambda: ws.greedy_slope_cuts(w, alpha, 1, L),
             _greedy_digest),
        )
        for span, call, digest in reads:
            yield Op(f"{fam}:{L}:{span}", span, "slopes", call, digest,
                     {**base, "op": span})
        n_L = min(L, PROFILE_L)
        yield Op(f"{fam}:{L}:profile", "complexity.profile", "complexity",
                 lambda: ws.profile(w, PROFILE_N, n_L), layers.profile_digest,
                 {**base, "op": "profile", "L": n_L, "n_max": PROFILE_N, "t": 1,
                  "stream_L": L})


def _module(spec) -> str:
    return "morphisms" if spec[0] == "thm11" else "generators"


def _refs(p: dict, fam: str, L: int):
    cache = p["refs"]
    key = ("P", fam, L)
    if key not in cache:
        big = max(l for f, l in p["items"] if f == fam)
        if ("syms", fam) not in cache:
            cache[("syms", fam)] = reference(p["families"][fam][0], big)
        cache[key] = refs.prefix_sums(cache[("syms", fam)][:L])
    return cache[("syms", fam)], cache[key]


def verify(p: dict, state: dict, meta: dict, digest) -> str | None:
    fam, op = meta["family"], meta["op"]
    L = meta.get("stream_L", meta["L"])
    alpha = p["families"][fam][1]
    syms, P = _refs(p, fam, L)
    cache = p["refs"]
    key = (fam, L, op)
    if op == "profile":
        return layers.check_profile(cache, (fam, meta["L"]), lambda: syms[:meta["L"]],
                                    build(p["families"][fam][0]), None, "additive", None, meta["L"], PROFILE_N, digest)
    if key not in cache:
        if op == "materialize":
            stride = max(1, L // 1000)
            cache[key] = (L + 1, P[L], tuple(P[::stride]))
        elif op == "slopes.slope_estimate":
            cache[key] = refs.slope_estimate(P, L)
        elif op == "slopes.deviation_constant":
            cache[key] = (alpha, L, refs.deviation_constant(P, alpha, L))
        elif op == "slopes.chi_factorization":
            cache[key] = refs.chi_factorization(P, alpha, L)
        else:
            cache[key] = refs.greedy_slope_cuts(P, alpha, L)
    if digest != cache[key]:
        return f"{op} disagrees with the reference"
    return None


def counts(p: dict, outcomes) -> dict:
    mats = [o.meta["L"] for o in outcomes if o.meta["op"] == "materialize"]
    out = layers.profile_counts(outcomes)
    out["core.symbols_materialized"] = sum(mats)
    out["core.bytes_held"] = max(16 * L + 8 for L in mats)
    return out


def extras(p: dict, state: dict, tr) -> None:
    for fam, L in p["items"]:
        streams: dict = {}
        layers.materialize(Tracer(False), p["families"][fam][0], min(L, PROFILE_L), streams, "w")
        layers.complexity_extras(tr, streams["w"], "additive", None, PROFILE_N, min(L, PROFILE_L))
