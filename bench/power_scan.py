"""power-scan: additive, abelian and anchored power searches.

Negative searches run on words known to hold no such power, so they
must return None after a full quadratic scan: the CCSS word (additive
cubes) and Dekking's two words (abelian 4th powers, abelian cubes) at a
few thousand symbols.  Most ops are positive searches at L = 1e5 with
early witnesses; `verify_power` re-checks each witness as its own op.
All prefixes are materialized in set-up.
"""

from __future__ import annotations

import random
from fractions import Fraction

import layers
import refs
from harness import Op
from words import CCSS, DEKKING3, DEKKING4, MECHANICAL_Q13, SEC24, TM, cf_fraction, reference

SETUP_REPS = 5
CHILD_RSS = False
BIG = 10**5



def plan(seed: int) -> dict:
    rng = random.Random(seed)
    cf = rng.choice(MECHANICAL_Q13)
    words = {
        "tm": TM, "thm11": ("thm11", 2), "sec24": SEC24, "mech": ("mechanical", cf, None),
        "enum1": ("enum", 1), "enum2": ("enum", 2), "enum3": ("enum", 3),
        "ccss": CCSS, "dekking4": DEKKING4, "dekking3": DEKKING3,
    }
    sizes = {w: (3000 if w in ("ccss", "dekking4", "dekking3") else BIG) for w in words}
    sizes["mech"] = 10 * BIG
    # The six negatives each take about the same time (170-190 ms on a
    # 2-core Xeon VM), so the 90th percentile lands inside their group.
    searches = [("ccss", "additive", 3, L, None) for L in (2900, 3000)]
    searches += [("dekking4", "parikh", 4, L, None) for L in (2000, 2100)]
    searches += [("dekking3", "parikh", 3, L, None) for L in (1900, 2000)]
    searches += [(w, "additive", k, BIG, None) for w in ("tm", "thm11") for k in (3, 4, 6)]
    alpha = cf_fraction(cf)
    searches += [("sec24", "anchored", k, BIG, (Fraction(1), c)) for k in (2, 3, 4) for c in (3, 4)]
    searches += [("mech", "anchored", k, 10 * BIG, (alpha, c)) for k, c in ((1, 3), (2, 3), (3, 4))]
    searches += [(f"enum{e}", "anchored", 3, BIG, (Fraction(e, 2), 4)) for e in (1, 2, 3)]
    return {"seed": seed, "words": words, "sizes": sizes, "searches": searches, "refs": {}}


def setup(p: dict, tr) -> dict:
    import wordsums as ws

    streams: dict = {}
    for name, spec in p["words"].items():
        layers.materialize(tr, spec, p["sizes"][name], streams, name)
    mus = {name: ws.LatticeMap.parikh_map(streams[name].alphabet)
           for name in ("dekking4", "dekking3")}
    return {"streams": streams, "mus": mus}


def setup_counts(p: dict) -> dict:
    held = p["sizes"].values()
    return {"core.symbols_materialized": sum(held),
            "core.bytes_held": sum(16 * L + 8 for L in held)}


def _digest(wit):
    if wit is None:
        return None
    return wit.start, wit.block_length, wit.count, wit.value


def pass_ops(p: dict, state: dict, rng: random.Random, tr):
    import wordsums as ws

    searches = list(p["searches"])
    rng.shuffle(searches)
    for word, kind, k, L, extra in searches:
        w = state["streams"][word]
        mu = state["mus"].get(word)
        layers.warm_reads(tr, w, L)
        key = f"{word}:{kind}:{k}:{L}" + (f":{extra[1]}" if extra else "")
        meta = {"word": word, "kind": kind, "k": k, "L": L, "extra": extra, "op": "search"}
        if kind == "additive":
            span, call = "powers.find_additive_kpower", lambda: ws.find_additive_kpower(w, k, L)
        elif kind == "parikh":
            span, call = "powers.find_kpower_mod_mu", lambda: ws.find_kpower_mod_mu(w, mu, k, L)
        else:
            span, call = "powers.find_anchored_power", \
                lambda: ws.find_anchored_power(w, extra[0], k, extra[1], L)
        found: list = []
        yield Op(key, span, "powers", lambda: found.append(call()) or found[0], _digest, meta)
        if word in ("ccss", "dekking4", "dekking3"):
            continue
        yield Op(key + ":verify", "powers.verify_power", "powers",
                 lambda: ws.verify_power(w, found[0], mu), bool, {**meta, "op": "verify"})


def _reference(p: dict, meta: dict):
    word, kind, k, L, extra = meta["word"], meta["kind"], meta["k"], meta["L"], meta["extra"]
    if word in ("ccss", "dekking4", "dekking3"):
        return None  # power-free by theorem
    cache = p["refs"]
    if word not in cache:
        cache[word] = refs.prefix_sums(reference(p["words"][word], p["sizes"][word]))
    P = cache[word]
    if kind == "additive":
        return refs.first_additive_power(P, k, L)
    return refs.first_anchored_power(P, extra[0], k, extra[1], L)


def verify(p: dict, state: dict, meta: dict, digest) -> str | None:
    if meta["op"] == "verify":
        return None if digest is True else "verify_power rejected the witness"
    key = ("search", meta["word"], meta["kind"], meta["k"], meta["L"], meta["extra"])
    cache = p["refs"]
    if key not in cache:
        cache[key] = _reference(p, meta)
    if digest != cache[key]:
        return f"witness {digest}, reference {cache[key]}"
    return None


def _cells(meta: dict, digest) -> int:
    """(start, block length) cells the scan visits, up to and including the hit."""
    k, L = meta["k"], meta["L"]
    if meta["kind"] == "anchored":
        alpha, count = meta["extra"]
        n, q, terms = L // alpha.denominator, alpha.denominator, count + 1
        stop = n + 1 if digest is None else (digest[0] - 1) // q
        cells = sum(((n - a) // (terms - 1)) // k for a in range(1, stop))
        return cells + (0 if digest is None else digest[1] // q // k)
    stop = L - k + 2 if digest is None else digest[0]
    cells = sum((L - s + 1) // k for s in range(1, stop))
    return cells + (0 if digest is None else digest[1])


def counts(p: dict, outcomes) -> dict:
    cache = p["refs"]
    cells = found = searches = 0
    for o in outcomes:
        if o.meta["op"] != "search":
            continue
        key = ("cells", o.key, o.digest)
        if key not in cache:
            cache[key] = _cells(o.meta, o.digest)
        cells += cache[key]
        searches += 1
        found += o.digest is not None
    return {"powers.cells_scanned": cells, "powers.found_ratio": found / searches}


def extras(p: dict, state: dict, tr) -> None:
    return None
