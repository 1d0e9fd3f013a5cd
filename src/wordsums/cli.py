"""Command line front end: each command reads word specs and writes CSV or JSON.

Exit codes: 0 for success or an affirmative answer, 1 for a well-formed
negative answer (no power found, morphism is not an anchor), 2 for bad input.

A word spec is family:key=value;... with fields split on ';' outside
brackets; periodic takes a plain list instead and sec24 has no body.
Values are comma-separated integers, but [<spec>|<spec>|...] holds a list
of specs and (<spec>) nests one spec, at most _MAX_DEPTH brackets deep.  A
repeated key is an error.  The splice schedule is the last field: one row
per round, one length per source.  Whitespace around a separator or inside
a bracket is ignored, even beside a ':' in a file path, which may hold no
brackets.

    periodic:<c1,c2,...>
    morphic:<s>=<c,...>;...;seed=<s>
    mechanical:cf=<a1,...>[;repeat=<r>]
    enum:k=<k>
    thm11:k=<k>
    sec24
    ladder:n=<n>
    splice:[<spec>|<spec>|...];sched=<l11,l21,...;l12,...>
    contract:base=(<spec>);ivals=<lo-hi,...>|arith:<start>,<period>,<width>
    file:<path>

Morphisms are written <s>=<c,...>;<s>=<c,...> and lattice maps the same
with a mu: prefix.  Symbols may be negative.

Each library word is labelled with its canonical spec, which --explain
prints and error messages and repr name the word by.  A word with no spec
(an image, a finite word) has a label <...> that no spec parses to.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .core import GuardError, WordStream, from_finite
from .complexity import LatticeMap, factor_set_intersection, profile
from .generators import (
    SeparatedIntervalSet, SpliceSchedule, constant_complexity_word, constant_tail_word, contract,
    enumeration_word, mechanical, morphic_fixed_point, periodic, splice, unbounded_gap_word,
)
from .morphisms import Morphism, is_anchor
from .powers import find_additive_kpower, find_anchored_power, find_kpower_mod_mu, verify_power
from .slopes import chi_factorization, chi_sequence, slope_estimate

DEFAULT_PREFIX = 100_000
DEFAULT_NMAX = 100
LARGE_PREFIX = 1_000_000
_MAX_DEPTH = 32  # a few hundred levels exhaust the interpreter's recursion limit


class WordSpecError(ValueError):
    """Malformed word, morphism, or lattice-map spec."""


# -- spec grammar ---------------------------------------------------------


def _split_top(s: str, sep: str) -> list[str]:
    """Split on sep outside any [] or () nesting, at most _MAX_DEPTH deep; strip each part."""
    parts, start, depth = [], 0, 0
    for i, ch in enumerate(s):
        depth += (ch in "[(") - (ch in "])")
        if depth < 0:
            raise WordSpecError(f"unbalanced brackets in {s!r}")
        if depth > _MAX_DEPTH:
            raise WordSpecError(f"specs nest at most {_MAX_DEPTH} brackets deep")
        if ch == sep and depth == 0:
            parts.append(s[start:i].strip())
            start = i + 1
    if depth != 0:
        raise WordSpecError(f"unbalanced brackets in {s!r}")
    return parts + [s[start:].strip()]


def _ints(s: str, what: str) -> list[int]:
    try:
        return [int(tok) for tok in s.split(",")] if s else []
    except ValueError:
        raise WordSpecError(f"bad {what}: {s!r}") from None


def _fields(body: str, what: str, raw: tuple[str, ...] = ()) -> dict:
    """Split key=value;... into a dict; values become int lists, except keys in raw.

    A field without '=', a bad integer and a repeated key raise WordSpecError.
    """
    fields: dict = {}
    for field in _split_top(body, ";"):
        key, *val = _split_top(field, "=")
        if len(val) != 1:
            raise WordSpecError(f"bad {what} field {field!r}")
        if key in fields:
            raise WordSpecError(f"duplicate {what} field {key!r}")
        fields[key] = val[0] if key in raw else _ints(val[0], f"{what} field {key!r}")
    return fields


def _pop_int(fields: dict, key: str, usage: str) -> int:
    """Remove fields[key], which must hold one integer, and return that integer."""
    val = fields.pop(key, None)
    if val is None or len(val) != 1:
        raise WordSpecError(f"expected {usage}")
    return val[0]


def _letters(fields: dict, what: str) -> dict[int, list[int]]:
    """The <s>=<c,...> rules of a morphism or lattice map, keyed by integer letter."""
    try:
        rules = {int(k): v for k, v in fields.items()}
    except ValueError:
        raise WordSpecError(f"bad {what} letter in {sorted(fields)}") from None
    if len(rules) != len(fields):
        raise WordSpecError(f"duplicate {what} letter in {sorted(fields)}")
    return rules


def _spec_errors(parse):
    """Report a ValueError raised while parsing or building as a WordSpecError."""
    @functools.wraps(parse)
    def wrapped(spec: str):
        try:
            return parse(spec)
        except ValueError as e:  # a WordSpecError comes out as itself
            raise WordSpecError(str(e)) from None
    return wrapped


@_spec_errors
def parse_morphism_spec(spec: str) -> Morphism:
    """<s>=<c,...>;<s>=<c,...> with integer letters."""
    return Morphism(_letters(_fields(spec, "morphism"), "morphism"))


@_spec_errors
def parse_mu_spec(spec: str) -> LatticeMap:
    """mu:<s>=<v1,v2,...>;... lattice map images."""
    head, *body = _split_top(spec, ":")
    if head != "mu" or len(body) != 1:
        raise WordSpecError(f"lattice map spec must start with 'mu:': {spec!r}")
    return LatticeMap(_letters(_fields(body[0], "lattice map"), "lattice map"))


def parse_slope(s: str) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise WordSpecError(f"bad slope {s!r}; expected p/q or an integer") from None


def _morphic(body: str) -> WordStream:
    fields = _fields(body, "morphic")
    seed = _pop_int(fields, "seed", "morphic:<s>=<c,...>;...;seed=<s>")
    return morphic_fixed_point(Morphism(_letters(fields, "morphic")), seed)


def _mechanical(body: str) -> WordStream:
    usage = "mechanical:cf=<a1,...>[;repeat=<r>]"
    fields = _fields(body, "mechanical")
    cf = fields.pop("cf", None)
    repeat = _pop_int(fields, "repeat", usage) if "repeat" in fields else None
    if cf is None or fields:
        raise WordSpecError(f"expected {usage}")
    return mechanical(cf, repeat)


def _one_int(head: str, key: str, build, body: str) -> WordStream:
    """The families that take exactly one key=<int> field."""
    fields = _fields(body, head)
    val = _pop_int(fields, key, f"{head}:{key}=<int>")
    if fields:
        raise WordSpecError(f"unknown {head} fields {sorted(fields)}")
    return build(val)


def _splice(body: str) -> WordStream:
    srcs, *rows = _split_top(body, ";")
    sched = _fields(rows.pop(0), "splice") if rows else {}
    if not (srcs.startswith("[") and srcs.endswith("]") and list(sched) == ["sched"]):
        raise WordSpecError("expected splice:[<spec>|<spec>|...];sched=<l11,l21,...;l12,...>")
    sources = [parse_word_spec(sub)[0] for sub in _split_top(srcs[1:-1], "|")]
    rows = [sched["sched"], *(_ints(row, "schedule row") for row in rows)]
    return splice(sources, SpliceSchedule(rows))


def _contract(body: str) -> WordStream:
    fields = _fields(body, "contract", raw=("base", "ivals"))
    base, iv = fields.get("base", ""), fields.get("ivals")
    if set(fields) != {"base", "ivals"} or not (base.startswith("(") and base.endswith(")")):
        raise WordSpecError("expected contract:base=(<spec>);ivals=...")
    sub = parse_word_spec(base[1:-1])[0]
    if iv.startswith("arith:"):
        nums = _ints(iv[len("arith:") :], "arithmetic interval rule")
        if len(nums) != 3:
            raise WordSpecError("arith takes <start>,<period>,<width>")
        return contract(sub, SeparatedIntervalSet.arithmetic(*nums))
    pairs = [_ints(tok.replace("-", ",", 1), "interval lo-hi") for tok in iv.split(",")]
    if any(len(p) != 2 for p in pairs):
        raise WordSpecError(f"bad intervals {iv!r}; expected lo-hi,...")
    return contract(sub, SeparatedIntervalSet(pairs))


def _file(body: str) -> WordStream:
    try:
        symbols = [int(t) for t in Path(body).read_text().split()]
    except OSError as e:
        raise WordSpecError(f"cannot read {body!r}: {e}") from None
    except ValueError:
        raise WordSpecError(f"{body!r} must contain whitespace-separated integers") from None
    if not symbols:
        raise WordSpecError(f"{body!r} holds no symbols")
    return from_finite(symbols, label=f"file:{body}")


# family head -> builder(body) returning the stream, whose label is its canonical spec
_FAMILIES = {
    "periodic": lambda body: periodic(_ints(body, "period")),
    "morphic": _morphic,
    "mechanical": _mechanical,
    "enum": functools.partial(_one_int, "enum", "k", enumeration_word),
    "thm11": functools.partial(_one_int, "thm11", "k", constant_complexity_word),
    "sec24": lambda body: unbounded_gap_word(),
    "ladder": functools.partial(_one_int, "ladder", "n", constant_tail_word),
    "splice": _splice,
    "contract": _contract,
    "file": _file,
}


@_spec_errors
def parse_word_spec(spec: str) -> tuple[WordStream, str]:
    """Build the stream and return it with its label, the canonical form of the spec."""
    head, *rest = _split_top(spec, ":")
    if head.startswith("<"):
        raise WordSpecError(f"{':'.join([head, *rest])} labels a word that has no spec")
    if head not in _FAMILIES:
        raise WordSpecError(f"unknown word family {head!r}")
    if bool(rest) == (head == "sec24"):  # sec24 has no body, every other family has one
        raise WordSpecError(f"bad word spec {spec!r}")
    w = _FAMILIES[head](":".join(rest))
    return w, w.label


def _morphism_and_canon(spec: str) -> tuple[Morphism, str]:
    phi = parse_morphism_spec(spec)
    return phi, repr(phi)


# -- output helpers -------------------------------------------------------


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_table(header: list[str], rows: list[list], args) -> None:
    if args.format == "json":
        return _emit(json.dumps([dict(zip(header, r)) for r in rows], indent=2) + "\n", args.out)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    _emit(buf.getvalue(), args.out)


# -- commands -------------------------------------------------------------
# main parses the specs and passes the parsed objects; None returned means exit 0.


def _cmd_profile(args, w) -> Optional[int]:
    """profile and spread; spread leaves out the count column."""
    mu = parse_mu_spec(args.mu) if args.mu else None
    prof = profile(w, args.n_max, args.prefix_length, kind=args.kind, mu=mu)
    cols = ["n", "count", "spread"] if args.command == "profile" else ["n", "spread"]
    _emit_table(cols, [[getattr(r, c) for c in cols] for r in prof.rows], args)


def _cmd_slope(args, w) -> Optional[int]:
    rows = [[n, s.numerator, s.denominator] for n, s in slope_estimate(w, args.prefix_length)]
    _emit_table(["n", "slope_p", "slope_q"], rows, args)


def _cmd_chi(args, w) -> Optional[int]:
    alpha = parse_slope(args.slope)
    if args.m_max is not None and args.m_max < 1:
        raise WordSpecError(f"--m-max must be >= 1, got {args.m_max}")
    m_max = args.prefix_length // alpha.denominator if args.m_max is None else args.m_max
    if m_max < 1:
        raise WordSpecError(f"prefix too short for one q={alpha.denominator} block")
    if m_max * alpha.denominator > args.prefix_length and not args.unsafe_large:
        raise WordSpecError("m-max needs a prefix past L; raise -L or pass --unsafe-large")
    colors = chi_sequence(w, alpha, m_max)
    _emit_table(["m", "chi"], [[m + 1, int(c)] for m, c in enumerate(colors)], args)


def _cmd_factorize(args, w) -> Optional[int]:
    fact = chi_factorization(w, parse_slope(args.slope), args.prefix_length)
    if args.format == "json":
        payload = {"alpha": _frac_str(fact.alpha), "color": fact.color, "cuts": list(fact.cuts)}
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        _emit_table(["cut"], [[c] for c in fact.cuts], args)


def _cmd_anchor(args, phi) -> Optional[int]:
    report = is_anchor(phi)
    wit = report.witness
    payload = {
        "is_anchor": report.is_anchor,
        "weight": _frac_str(report.weight) if report.weight is not None else None,
        "image_slopes": {str(s): _frac_str(v) for s, v in report.image_slopes.items()},
        "source": list(phi.source.symbols),
        "target": list(phi.target.symbols),
        "matrix": report.matrix.tolist(),
        "witness": wit and {"b1": list(wit[0].symbols), "b2": list(wit[1].symbols)},
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0 if report.is_anchor else 1


def _cmd_powers(args, w) -> Optional[int]:
    if args.slope is not None and args.mu is not None:
        raise WordSpecError("--slope and --mu are mutually exclusive")
    if args.divisor is not None and args.slope is None:
        raise WordSpecError("--divisor needs --slope")
    mu = parse_mu_spec(args.mu) if args.mu else None
    limit = 100 * LARGE_PREFIX if args.unsafe_large else LARGE_PREFIX
    if args.slope is not None:
        alpha = parse_slope(args.slope)
        divisor = 1 if args.divisor is None else args.divisor
        witness = find_anchored_power(w, alpha, divisor, args.k, args.prefix_length, limit=limit)
    elif mu is not None:
        witness = find_kpower_mod_mu(w, mu, args.k, args.prefix_length, limit=limit)
    else:
        witness = find_additive_kpower(w, args.k, args.prefix_length, limit=limit)
    if witness is None:
        _emit(json.dumps({"found": False}, indent=2) + "\n", args.out)
        return 1
    verified = verify_power(w, witness, mu)
    payload = {"found": True, **dataclasses.asdict(witness), "verified": verified}
    _emit(json.dumps(payload, indent=2) + "\n", args.out)


def _cmd_intersect(args, w1, w2) -> Optional[int]:
    shared = factor_set_intersection(w1, w2, args.n, args.prefix_length)
    _emit_table(["n", "shared"], [[args.n, shared]], args)


# -- parser ---------------------------------------------------------------


def _command(subs, name: str, help: str, func, specs=("word",), table=True):
    """A subcommand taking word specs and the common prefix and output options;
    --format only where the output is a table (powers always prints JSON)."""
    sub = subs.add_parser(name, help=help)
    for spec in specs:
        sub.add_argument(spec, help="word spec (see module docs)")
    sub.add_argument("-L", "--prefix-length", type=int, default=DEFAULT_PREFIX,
                     help=f"analyzed prefix length (default {DEFAULT_PREFIX})")
    sub.add_argument("--out", help="write output to this file instead of stdout")
    if table:
        sub.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    sub.add_argument("--unsafe-large", action="store_true", help="lift the default prefix-size cap")
    sub.add_argument("--explain", action="store_true", help="print the canonical spec and exit")
    sub.set_defaults(func=func, specs=specs, parse=parse_word_spec)
    return sub


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wordsums",
        description="Sum-based complexity, slopes, colorings and power search for infinite words.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    for name, what in (("profile", "counts and spreads"), ("spread", "window-sum spreads")):
        p = _command(subs, name, f"{what} for n = 1..n-max", _cmd_profile)
        p.add_argument("--kind", choices=("additive", "abelian", "lattice"), default="additive")
        p.add_argument("--mu", help="lattice map spec mu:<s>=<v1,...>;... (kind=lattice)")
        p.add_argument("--n-max", type=int, default=DEFAULT_NMAX)

    _command(subs, "slope", "prefix slope estimates at doubling lengths", _cmd_slope)

    p = _command(subs, "chi", "chi coloring values for a rational slope", _cmd_chi)
    p.add_argument("--slope", required=True, help="exact rational p/q")
    p.add_argument("--m-max", type=int, help="how many chi values (default L//q)")

    p = _command(subs, "factorize", "equal-slope factorization cut positions", _cmd_factorize)
    p.add_argument("--slope", required=True, help="exact rational p/q")

    p = subs.add_parser("anchor", help="equal-image-slope report for a morphism")
    p.add_argument("morphism", help="morphism spec <s>=<c,...>;<s>=<c,...>")
    p.add_argument("--out", help="write output to this file instead of stdout")
    p.add_argument("--explain", action="store_true", help="print the canonical spec and exit")
    p.set_defaults(func=_cmd_anchor, specs=("morphism",), parse=_morphism_and_canon)

    p = _command(subs, "powers", "search for additive k-powers", _cmd_powers, table=False)
    p.add_argument("--k", type=int, required=True, help="number of blocks")
    p.add_argument("--mu", help="search modulo this lattice map instead of sums")
    p.add_argument("--slope", help="slope-constrained search: exact rational p/q")
    p.add_argument("--divisor", type=int,
                   help="with --slope: block length must be divisible by divisor*q (default 1)")

    p = _command(subs, "intersect", "count shared length-n factors of two words", _cmd_intersect,
                 specs=("word1", "word2"))
    p.add_argument("--n", type=int, required=True, help="factor length")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # The prelude of every command: check -L, parse the specs, then --explain.
        L = getattr(args, "prefix_length", 1)
        if L < 1:
            raise WordSpecError("prefix length must be >= 1")
        if L > LARGE_PREFIX and not args.unsafe_large:
            raise WordSpecError(f"L = {L} is past {LARGE_PREFIX}; pass --unsafe-large to proceed")
        parsed = [args.parse(getattr(args, name)) for name in args.specs]
        if args.explain:
            print("\n".join(canon for _, canon in parsed))
            return 0
        return args.func(args, *(obj for obj, _ in parsed)) or 0
    except (ValueError, GuardError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
