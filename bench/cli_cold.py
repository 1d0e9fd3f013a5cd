"""cli-cold: `python -m wordsums` as a subprocess, one command at a time.

Every command pays interpreter start-up, imports, spec parsing, cold
materialization and output formatting, as a user's command does.  The
mix covers anchor, slope, chi, factorize, profile, powers (found and not
found), intersect, --explain and guarded refusals.  Exit codes follow
the README table: 0 success or affirmative, 1 well-formed negative,
2 bad input or a guarded-size refusal.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
import subprocess
import sys
from fractions import Fraction

import refs
from harness import ROOT, Op, child_env
from words import (CCSS, MECHANICAL_IRRATIONAL, MECHANICAL_Q13, SEC24, TM, cf_fraction,
                   cli_spec, reference, seeded_contract, seeded_periodic, seeded_splice)

SETUP_REPS = 5
CHILD_RSS = True



def _frac(a: Fraction) -> str:
    return f"{a.numerator}/{a.denominator}"


def plan(seed: int) -> dict:
    rng = random.Random(seed)
    irr = ("mechanical", *rng.choice(MECHANICAL_IRRATIONAL))
    rat = ("mechanical", rng.choice(MECHANICAL_Q13), None)
    per = seeded_periodic(rng)
    spl = seeded_splice(rng)
    con = seeded_contract(rng)
    per_alpha = Fraction(7, 5)
    rat_alpha = cf_fraction(rat[1])
    thm1, thm2 = ("thm11", 1), ("thm11", 2)
    # name: (argv, expected exit code, what the output must hold)
    cmds = {
        "anchor-yes": (["anchor", "0=0,4;1=1,3;2=2,2"], 0, ("anchor", True)),
        "anchor-no": (["anchor", "0=0,1;1=1,1"], 1, ("anchor", False)),
        "slope": (["slope", cli_spec(irr), "-L", "20000"], 0, ("slope", irr, 20000)),
        "chi": (["chi", "sec24", "--slope", "1/1", "-L", "2000"], 0,
                ("chi", SEC24, Fraction(1), 2000)),
        "factorize-json": (["factorize", "thm11:k=1", "--slope", "1/1", "-L", "20000",
                            "--format", "json"], 0, ("factorize", thm1, Fraction(1), 20000)),
        "factorize-csv": (["factorize", cli_spec(per), "--slope", _frac(per_alpha),
                           "-L", "20000"], 0, ("factorize", per, per_alpha, 20000)),
        "profile-tm": (["profile", cli_spec(TM), "-L", "10000", "--n-max", "20"], 0,
                       ("profile", TM, None, 10000, 20)),
        "profile-thm11": (["profile", "thm11:k=2", "-L", "10000", "--n-max", "10",
                           "--format", "json"], 0, ("profile", thm2, None, 10000, 10)),
        "profile-abelian": (["profile", "sec24", "--kind", "abelian", "-L", "5000",
                             "--n-max", "5"], 0, ("profile", SEC24, "parikh", 5000, 5)),
        "powers-found": (["powers", "thm11:k=1", "--k", "4", "-L", "20000"], 0,
                         ("powers", thm1, 4, 20000, None)),
        "powers-none": (["powers", cli_spec(CCSS), "--k", "3", "-L", "1000"], 1,
                        ("powers", CCSS, 3, 1000, None)),
        "powers-anchored": (["powers", cli_spec(rat), "--k", "3", "--slope", _frac(rat_alpha),
                             "--divisor", "2", "-L", "20000"], 0,
                            ("powers", rat, 3, 20000, (rat_alpha, 2))),
        "intersect-periodic": (["intersect", "periodic:0,1", "periodic:1,0", "--n", "3",
                                "-L", "20000"], 0,
                               ("intersect", ("periodic", (0, 1)), ("periodic", (1, 0)), 3, 20000)),
        "intersect-splice": (["intersect", cli_spec(spl), "sec24", "--n", "4", "-L", "5000"], 0,
                             ("intersect", spl, SEC24, 4, 5000)),
        "explain": (["profile", cli_spec(con), "--explain"], 0, ("explain", cli_spec(con))),
        "refuse-powers": (["powers", "thm11:k=1", "--k", "3", "-L", "2000000"], 2, ("refused",)),
        "refuse-profile": (["profile", "sec24", "-L", "1500000"], 2, ("refused",)),
        "bad-spec": (["slope", "bogus:1"], 2, ("refused",)),
    }
    return {"seed": seed, "cmds": cmds, "refs": {}}


def setup(p: dict, tr) -> dict:
    return {}


def setup_counts(p: dict) -> dict:
    return {}


def _run(argv) -> tuple:
    out = subprocess.run([sys.executable, "-m", "wordsums", *argv], cwd=ROOT,
                         env=child_env(), capture_output=True, text=True, timeout=120)
    return out.returncode, out.stdout, out.stderr


def pass_ops(p: dict, state: dict, rng: random.Random, tr):
    names = list(p["cmds"])
    rng.shuffle(names)
    for name in names:
        argv = p["cmds"][name][0]
        yield Op(name, "cli.command", "cli", lambda argv=argv: _run(argv),
                 meta={"name": name})


def _syms(p: dict, spec, L: int) -> list[int]:
    key = ("syms", spec)
    cache = p["refs"]
    if key not in cache or len(cache[key]) < L:
        cache[key] = reference(spec, L)
    return cache[key][:L]


def _csv(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _check(p: dict, check, out: str) -> str | None:
    kind = check[0]
    if kind == "anchor":
        rep = json.loads(out)
        if rep["is_anchor"] is not check[1]:
            return "anchor verdict"
        if check[1]:
            return None if rep["weight"] == "2/1" and rep["witness"] is None else "anchor weight"
        rules = {0: (0, 1), 1: (1, 1)}
        b1, b2 = rep["witness"]["b1"], rep["witness"]["b2"]
        i1 = [t for s in b1 for t in rules[s]]
        i2 = [t for s in b2 for t in rules[s]]
        return None if len(i1) == len(i2) and sum(i1) != sum(i2) else "bad non-anchor witness"
    if kind == "slope":
        _, spec, L = check
        rows = _csv(out)
        P = refs.prefix_sums(_syms(p, spec, L))
        want = [[str(n), str(a.numerator), str(a.denominator)] for n, a in refs.slope_estimate(P, L)]
        return None if rows == [["n", "slope_p", "slope_q"]] + want else "slope rows"
    if kind == "chi":
        _, spec, alpha, L = check
        P = refs.prefix_sums(_syms(p, spec, L))
        colors = refs.chi_colors(P, alpha, L // alpha.denominator)
        want = [["m", "chi"]] + [[str(m), str(c)] for m, c in enumerate(colors, 1)]
        return None if _csv(out) == want else "chi rows"
    if kind == "factorize":
        _, spec, alpha, L = check
        ref = refs.chi_factorization(refs.prefix_sums(_syms(p, spec, L)), alpha, L)
        if out.lstrip().startswith("{"):
            rep = json.loads(out)
            got = (Fraction(rep["alpha"]), rep["color"], len(rep["cuts"]), hash(tuple(rep["cuts"])))
            return None if got == ref else "factorize json"
        rows = _csv(out)
        cuts = tuple(int(r[0]) for r in rows[1:])
        ok = rows[0] == ["cut"] and (len(cuts), hash(cuts)) == ref[2:]
        return None if ok else "factorize csv"
    if kind == "profile":
        _, spec, images, L, n_max = check
        if out.lstrip().startswith("["):
            rows = [(r["n"], r["count"], r["spread"]) for r in json.loads(out)]
        else:
            table = _csv(out)
            if table[0] != ["n", "count", "spread"]:
                return "profile header"
            rows = [tuple(map(int, r)) for r in table[1:]]
        syms = _syms(p, spec, L)
        im = refs.parikh_images(syms) if images == "parikh" else None
        want = [refs.profile_row(syms, n, im) for n in range(1, n_max + 1)]
        if spec == ("thm11", 2) and any(r[1] != 5 for r in rows):
            return "thm11:k=2 additive count is not 5"
        return None if rows == want else "profile rows"
    if kind == "powers":
        _, spec, k, L, anchored = check
        rep = json.loads(out)
        P = refs.prefix_sums(_syms(p, spec, L))
        if anchored is None:
            ref = None if spec == CCSS else refs.first_additive_power(P, k, L)
        else:
            ref = refs.first_anchored_power(P, anchored[0], anchored[1], k, L)
        if ref is None:
            return None if rep == {"found": False} else "expected no power"
        got = (rep["start"], rep["block_length"], rep["count"], rep["value"])
        return None if rep["found"] and rep["verified"] and got == ref else "power witness"
    if kind == "intersect":
        _, s1, s2, n, L = check
        a, b = _syms(p, s1, L), _syms(p, s2, L)
        fa = {tuple(a[i:i + n]) for i in range(L - n + 1)}
        fb = {tuple(b[i:i + n]) for i in range(L - n + 1)}
        return None if _csv(out) == [["n", "shared"], [str(n), str(len(fa & fb))]] else "intersect"
    if kind == "explain":
        return None if out == check[1] + "\n" else "explain echo"
    raise ValueError(kind)


def verify(p: dict, state: dict, meta: dict, digest) -> str | None:
    code, out, err = digest
    _, want_code, check = p["cmds"][meta["name"]]
    if code != want_code:
        return f"exit {code}, expected {want_code}: {err.strip()[:200]}"
    if check[0] == "refused":
        return None if not out and err.startswith("error:") else "refusal output"
    key = (meta["name"], out)
    if key not in p["refs"]:
        try:
            p["refs"][key] = _check(p, check, out)
        except (ValueError, KeyError, IndexError, TypeError) as e:
            p["refs"][key] = f"unparsable output: {type(e).__name__}: {e}"
    return p["refs"][key]


def counts(p: dict, outcomes) -> dict:
    return {}


def _timed_run(tr, name: str, argv) -> None:
    tr.timed(name, lambda: subprocess.run([sys.executable, *argv], cwd=ROOT, env=child_env(),
                                          capture_output=True, timeout=120))


def extras(p: dict, state: dict, tr) -> None:
    """Per command: bare interpreter, interpreter plus imports, the command
    itself, then in-process main, spec parsing and the intersect kernel."""
    from wordsums import cli
    from wordsums.complexity import factor_set_intersection

    sink = io.StringIO()
    for argv, _, check in p["cmds"].values():
        _timed_run(tr, "cli.interpreter", ["-c", "pass"])
        _timed_run(tr, "cli.import", ["-c", "import wordsums.cli"])
        _timed_run(tr, "cli.command", ["-m", "wordsums", *argv])
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            tr.timed("cli.main", lambda: cli.main(argv))
        sink.seek(0)
        sink.truncate()
        specs = [] if argv[0] == "anchor" else [a for a in argv[1:3] if ":" in a or a == "sec24"]
        for spec in specs:
            try:
                tr.timed("cli.parse_spec", lambda: cli.parse_word_spec(spec))
            except cli.WordSpecError:
                pass
        if check[0] == "intersect":
            w1, _ = cli.parse_word_spec(argv[1])
            w2, _ = cli.parse_word_spec(argv[2])
            tr.timed("complexity.factor_set_intersection",
                     lambda: factor_set_intersection(w1, w2, check[3], check[4]))
