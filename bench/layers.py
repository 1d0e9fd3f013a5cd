"""Helpers shared by the in-process workloads.

Materialization and warm reads with their spans, the `profile` digest,
its referee, its exact counts, and the extra traced calls that split a
profile row into window, distinct-count and spread time.
"""

from __future__ import annotations

import refs
from words import FAMILY_SPAN, build

ORACLE_MAX = 10**4


def materialize(tr, spec, L: int, streams: dict, name: str):
    """Build a stream cold and fill its prefix to L, under the family's span."""
    with tr.span(FAMILY_SPAN[spec[0]]):
        w = build(spec)
        with tr.span("core.prefix_sums"):
            P = w.prefix_sums(L)
    streams[name] = w
    return P


def warm_reads(tr, w, L: int) -> None:
    """Traced runs only: time the warm prefix reads an op is about to make."""
    if tr.enabled:
        tr.timed("core.prefix_sums", lambda: w.prefix_sums(L))
        tr.timed("core.prefix", lambda: w.prefix(L))


def profile_digest(r) -> tuple:
    return r.kind, r.prefix_length, tuple((row.n, row.count, row.spread) for row in r.rows)


def _sampled(L: int, n_max: int) -> list[int]:
    if L <= ORACLE_MAX:
        return list(range(1, n_max + 1))
    return sorted({1, max(1, n_max // 2), n_max})


def check_profile(cache: dict, word_key, get_syms, stream, mu, kind: str, images,
                  L: int, n_max: int, digest, all_fives: bool = False):
    """None when the digest agrees with the referee, else the reason.

    Rows are checked against a pure-Python sliding window (every row up
    to L = 1e4, rows 1, n_max/2 and n_max above that); at L <= 1e4 the
    same sampled rows are also checked against naive_complexity_oracle.
    """
    import wordsums as ws

    got_kind, got_L, rows = digest
    if got_kind != kind or got_L != L or [r[0] for r in rows] != list(range(1, n_max + 1)):
        return f"profile shape {got_kind}/{got_L}/{len(rows)} rows"
    if all_fives and any(r[1] != 5 for r in rows):
        return "thm11:k=2 additive count is not 5 at every n"
    img_key = "parikh" if images == "parikh" else (None if images is None else tuple(sorted(images.items())))
    for n in _sampled(L, n_max):
        key = ("row", word_key, img_key, n)
        if key not in cache:
            syms = get_syms()
            im = refs.parikh_images(syms) if images == "parikh" else images
            cache[key] = refs.profile_row(syms, n, im)
        if rows[n - 1] != cache[key]:
            return f"row n={n}: got {rows[n - 1]}, reference {cache[key]}"
    if L <= ORACLE_MAX:
        if kind == "abelian":
            mu = ws.LatticeMap.parikh_map(stream.alphabet or stream.observed_alphabet(L))
        for n in sorted({1, max(1, n_max // 2), n_max}):
            key = ("oracle", word_key, img_key, n)
            if key not in cache:
                cache[key] = refs.oracle_count(stream, mu, n, L)
            if rows[n - 1][1] != cache[key]:
                return f"row n={n}: count {rows[n - 1][1]}, oracle {cache[key]}"
    return None


def profile_counts(outcomes) -> dict:
    """Windows sorted, distinct images found and window bytes, per pass."""
    windows = distinct = nbytes = 0
    for o in outcomes:
        if "n_max" not in o.meta or o.digest is None:
            continue
        L, t = o.meta["L"], o.meta["t"]
        for n, count, _ in o.digest[2]:
            windows += L - n + 1
            nbytes += 8 * t * (L - n + 1)
            distinct += count
    return {
        "complexity.windows_scanned": windows,
        "complexity.distinct_images": distinct,
        "complexity.distinct_ratio": distinct / windows if windows else 0.0,
        "complexity.window_bytes": nbytes,
    }


def complexity_extras(tr, w, kind: str, mu, n_max: int, L: int) -> None:
    """window_*, then *_complexity, then *_spread on the op's own inputs.

    Consecutive calls differ by one stage, so the differences of their
    span totals give the window, distinct-count and spread times.
    """
    import wordsums as ws

    if kind == "additive":
        for n in range(1, n_max + 1):
            tr.timed("complexity.window_sums", lambda: ws.window_sums(w, n, L))
            tr.timed("complexity.additive_complexity", lambda: ws.additive_complexity(w, n, L))
            tr.timed("complexity.sum_spread", lambda: ws.sum_spread(w, n, L))
        return
    if mu is None:
        mu = ws.LatticeMap.parikh_map(w.alphabet or w.observed_alphabet(L))
    for n in range(1, n_max + 1):
        tr.timed("complexity.window_images", lambda: ws.window_images(w, mu, n, L))
        tr.timed("complexity.lattice_complexity", lambda: ws.lattice_complexity(w, mu, n, L))
        tr.timed("complexity.lattice_spread", lambda: ws.lattice_spread(w, mu, n, L))
