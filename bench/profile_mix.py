"""profile-mix: `profile()` calls on warm prefixes.

Most ops are additive at L = 1e4, 1e5 and 1e6; a fifth are abelian
(t = 2..5) or lattice with a seeded t = 2 map, at L <= 1e5.  The
prefixes are materialized in set-up, so the timed ops only read them.
"""

from __future__ import annotations

import random

import layers
from harness import Op
from words import CCSS, SEC24, TM, reference, seeded_splice

SETUP_REPS = 3
CHILD_RSS = False

# Costs fall in groups: 5 ops near 14 ms, 14 near 30 ms and 5 near 55 ms
# (additive), then 7 row ops, six near 115 ms and thm11, whose pure-Python
# diameter makes it about 200 ms.  The median lands in the middle of the
# 30 ms group and the 90th percentile among the 115 ms row ops.
_ADDITIVE = ((10**6, 1), (10**5, 10), (10**5, 20), (10**4, 50), (10**4, 100))
_ROW_OPS = (
    ("tm", "abelian", 10**4, 12),
    ("sec24", "abelian", 10**4, 9),
    ("ccss", "abelian", 10**4, 7),
    ("thm11", "abelian", 10**4, 10),
    ("tm", "abelian", 5 * 10**4, 2),
    ("splice", "lattice", 10**4, 12),
    ("ccss", "lattice", 5 * 10**4, 2),
)


def _seeded_map(rng: random.Random, letters) -> dict:
    """t = 2 images in [-3, 3] that do not all lie on one line."""
    while True:
        imgs = {s: (rng.randint(-3, 3), rng.randint(-3, 3)) for s in letters}
        vs = list(imgs.values())
        if any(a[0] * b[1] != a[1] * b[0] for a in vs for b in vs):
            return imgs


def plan(seed: int) -> dict:
    rng = random.Random(seed)
    splice = seeded_splice(rng)
    words = {
        "tm": (TM, 10**6),
        "ccss": (CCSS, 10**6),
        "thm11": (("thm11", 2), 10**6),
        "sec24": (SEC24, 10**6),
        "splice": (splice, 10**5),
    }
    ops = [(w, "additive", L, n) for w in ("tm", "ccss", "thm11", "sec24")
           for L, n in _ADDITIVE]
    ops += [("splice", "additive", L, n) for L, n in _ADDITIVE if L <= 10**5]
    ops += list(_ROW_OPS)
    maps = {"splice": _seeded_map(rng, (0, 1, 2)), "ccss": _seeded_map(rng, (0, 1, 3, 4))}
    return {"seed": seed, "words": words, "ops": ops, "maps": maps, "refs": {}}


def setup(p: dict, tr) -> dict:
    import wordsums as ws

    streams = {}
    for name, (spec, L) in p["words"].items():
        layers.materialize(tr, spec, L, streams, name)
    mus = {name: ws.LatticeMap(m) for name, m in p["maps"].items()}
    return {"streams": streams, "mus": mus}


def setup_counts(p: dict) -> dict:
    held = [L for _, L in p["words"].values()]
    return {"core.symbols_materialized": sum(held),
            "core.bytes_held": sum(16 * L + 8 for L in held)}


def _mu(state, word, kind):
    return state["mus"][word] if kind == "lattice" else None


def pass_ops(p: dict, state: dict, rng: random.Random, tr):
    import wordsums as ws

    ops = list(p["ops"])
    rng.shuffle(ops)
    for word, kind, L, n_max in ops:
        w = state["streams"][word]
        mu = _mu(state, word, kind)
        layers.warm_reads(tr, w, L)
        t = 1 if kind == "additive" else (mu.dim if mu else len(w.alphabet))
        yield Op(
            key=f"{word}:{kind}:{L}:{n_max}",
            span="complexity.profile",
            module="complexity",
            call=lambda w=w, n=n_max, L=L, k=kind, mu=mu: ws.profile(w, n, L, kind=k, mu=mu),
            digest=layers.profile_digest,
            meta={"word": word, "kind": kind, "L": L, "n_max": n_max, "t": t},
        )


def _ref_symbols(p: dict, word: str) -> list[int]:
    cache = p["refs"]
    if word not in cache:
        spec, L = p["words"][word]
        cache[word] = reference(spec, L)
    return cache[word]


def verify(p: dict, state: dict, meta: dict, digest) -> str | None:
    word, kind, L, n_max = meta["word"], meta["kind"], meta["L"], meta["n_max"]
    images = None
    if kind == "abelian":
        images = "parikh"
    elif kind == "lattice":
        images = p["maps"][word]
    return layers.check_profile(
        p["refs"], (word, L), lambda: _ref_symbols(p, word)[:L], state["streams"][word],
        _mu(state, word, kind), kind, images, L, n_max, digest,
        all_fives=(word == "thm11" and kind == "additive"),
    )


def counts(p: dict, outcomes) -> dict:
    return layers.profile_counts(outcomes)


def extras(p: dict, state: dict, tr) -> None:
    for word, kind, L, n_max in p["ops"]:
        w = state["streams"][word]
        layers.complexity_extras(tr, w, kind, _mu(state, word, kind), n_max, L)
