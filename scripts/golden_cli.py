"""Record the golden transcripts: stdout, stderr and exit code of each command below and of
each README command line, and the stdout of each demo.

Regenerate with `PYTHONPATH=src python scripts/golden_cli.py` from the repository root; it
rewrites tests/golden/cli.json and tests/golden/demos.json, which tests/test_golden.py compares
byte for byte.  A change that alters a transcript says why in CHANGES.md.  The commands cover
what reads an Alphabet (anchor matrices, Parikh and lattice profiles, power scans modulo a
lattice map, and the refusals of maps and morphisms that exit 2), factor-set intersections
whose keys take each tier of the distinct-key reduction, slopes, chi colorings and
factorizations in both formats, a nested --explain, values that begin with '-' and a digit,
power scans that hit early, late or never, additive profiles over negative letters, into the
presence table and in 4-byte lanes, and each subcommand's refusals that exit 2.
"""

import contextlib
import hashlib
import io
import json
import re
import runpy
import shlex
from pathlib import Path

from wordsums.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
DEMOS = sorted((ROOT / "demos").glob("*.py"))
_MAX_STDOUT = 4096  # a longer stdout is kept as its SHA-256

BIG = str(2**70)  # a letter past int64
PARIKH3 = "mu:0=1,0,0;1=0,1,0;2=0,0,1"
DEKKING3 = "morphic:0=0,0,1,2;1=1,1,2;2=0,2,2;seed=0"
SHORT = ["-L", "10", "--n-max", "2"]
TM = "morphic:0=0,1;1=1,0;seed=0"
NEGATIVE = "-1=-1,3;1=1,1;3=3,-1"
CCSS = "morphic:0=0,3;1=4,3;3=1;4=0,1;seed=0"

COMMANDS = {
    "anchor": ["anchor", "0=0,4;1=1,3;2=2,2"],
    "anchor-negative-letters": ["anchor", "--", NEGATIVE],
    "anchor-negative-letters-without-dashes": ["anchor", NEGATIVE],
    "non-anchor": ["anchor", "0=0,1;1=1,1,2;2=2"],
    "anchor-image-past-int64": ["anchor", f"0={BIG},1"],
    "abelian-csv": ["profile", "thm11:k=1", "--kind", "abelian", "-L", "2000", "--n-max", "6"],
    "abelian-json": ["profile", "morphic:0=0,1;1=1,0;seed=0", "--kind", "abelian", "-L",
                     "1000", "--n-max", "5", "--format", "json"],
    "abelian-spread": ["spread", DEKKING3, "--kind", "abelian", "-L", "3000", "--n-max", "8"],
    "lattice": ["profile", "thm11:k=1", "--kind", "lattice", "--mu", "mu:0=1,0;1=0,1;2=1,1",
                "-L", "2000", "--n-max", "5"],
    "lattice-json": ["profile", "periodic:-2,0,0,5", "--kind", "lattice", "--mu",
                     "mu:-2=1,-1;0=0,0;5=-3,2", "-L", "500", "--n-max", "4", "--format", "json"],
    "source-letter-past-int64": ["profile", f"morphic:0=0,1;1=1,0;{BIG}=0;seed=0", "-L", "100",
                                 "--n-max", "3"],
    "powers-mu-found": ["powers", "thm11:k=1", "--k", "2", "--mu", PARIKH3, "-L", "2000"],
    "powers-mu-not-found": ["powers", DEKKING3, "--k", "3", "--mu", PARIKH3, "-L", "2000"],
    "refuse-word-letter-outside-mu": ["profile", "periodic:0,1,2", "--kind", "lattice", "--mu",
                                      "mu:0=1;1=2", "-L", "100", "--n-max", "2"],
    "refuse-powers-letter-outside-mu": ["powers", "periodic:0,1,2", "--k", "2", "--mu",
                                        "mu:0=1;1=1", "-L", "100"],
    "refuse-mu-letter-past-int64": ["profile", "periodic:0,1", "--kind", "lattice", "--mu",
                                    f"mu:0=1;{BIG}=2", "-L", "10", "--n-max", "2"],
    "refuse-mu-image-past-int64": ["profile", "periodic:0,1", "--kind", "lattice", "--mu",
                                   f"mu:0={BIG};1=2", "-L", "10", "--n-max", "2"],
    "refuse-mu-dimensions": ["profile", "periodic:0,1", "--kind", "lattice", "--mu",
                             "mu:0=1;1=2,3", "-L", "10", "--n-max", "2"],
    "refuse-mu-prefix": ["profile", "periodic:0,1", "--kind", "lattice", "--mu", "0=1;1=2",
                         "-L", "10", "--n-max", "2"],
    "refuse-mu-letter": ["profile", "periodic:0,1", "--kind", "lattice", "--mu", "mu:a=1;1=2",
                         "-L", "10", "--n-max", "2"],
    "refuse-abelian-source-past-int64": ["profile", f"morphic:0=0,1;1=1,0;{BIG}=0;seed=0",
                                         "--kind", "abelian", "-L", "100", "--n-max", "3"],
    "refuse-morphism-letter": ["anchor", "x=1;1=1"],
    "refuse-erasing-image": ["anchor", "0=0,1;1="],
    "refuse-not-prolongable": ["profile", "morphic:0=1,0;1=0;seed=0", *SHORT],
    "refuse-not-endomorphism": ["profile", "morphic:0=0,2;seed=0", *SHORT],
    "refuse-seed-outside-source": ["profile", "morphic:0=0,1;1=1;seed=5", *SHORT],
    "refuse-image-past-int64": ["profile", f"morphic:0=0,{BIG};{BIG}=0;seed=0", *SHORT],
    # each word's factor keys take one tier: a mask with no scan, a mask after the scan, a
    # presence table, a sort, and a sort of keys re-ranked past 2^62
    "intersect-mask": ["intersect", "periodic:0,1", "periodic:1,0", "--n", "3", "-L", "100"],
    "intersect-mask-after-scan": ["intersect", "periodic:0,1", "periodic:1,0", "--n", "7",
                                  "-L", "100"],
    "intersect-presence": ["intersect", TM, "morphic:0=0,1;1=1,0;seed=1", "--n", "10",
                           "-L", "2000"],
    "intersect-sort": ["intersect", TM, "sec24", "--n", "20", "-L", "5000", "--format", "json"],
    "intersect-pieces": ["intersect", "periodic:0,1", "periodic:1,0", "--n", "1000",
                         "-L", "30000"],
    # letters +-2^40 that rank to three, binary keys at n = 62, the first length after a
    # re-rank, and two prefixes whose concatenation holds the pair 0, 1 only at the junction
    "intersect-wide-letters": ["intersect", f"periodic:{2**40},{-2**40},0",
                               f"periodic:{2**40},{-2**40},0,0", "--n", "3", "-L", "100"],
    "intersect-past-the-rerank": ["intersect", TM, "morphic:0=0,1;1=1,0;seed=1", "--n", "62",
                                  "-L", "5000"],
    "intersect-across-the-junction": ["intersect", "periodic:0", "periodic:1", "--n", "2",
                                      "-L", "50"],
    "slope-csv": ["slope", "mechanical:cf=2,2", "-L", "5000"],
    "slope-json": ["slope", "sec24", "-L", "3000", "--format", "json"],
    "chi-csv": ["chi", "sec24", "--slope", "1/1", "--m-max", "40"],
    "chi-json": ["chi", "thm11:k=2", "--slope", "2", "-L", "30", "--format", "json"],
    "chi-negative-slope": ["chi", "periodic:-1,0", "--slope", "-1/2", "-L", "6"],
    "chi-negative-slope-with-equals": ["chi", "periodic:-1,0", "--slope=-1/2", "-L", "6"],
    "factorize-csv": ["factorize", "mechanical:cf=1,2", "--slope", "1/3", "-L", "60"],
    "factorize-json": ["factorize", "thm11:k=1", "--slope", "1/1", "-L", "200", "--format",
                       "json"],
    # power scans: an anchored hit past the first starts, the additive-cube-free word of
    # Cassaigne, Currie, Schaeffer and Shallit with no anchored or additive cube, and an early
    # hit at the first start of a long prefix
    "powers-anchored-enum": ["powers", "enum:k=2", "--k", "4", "--slope", "1/1", "--divisor", "3",
                             "-L", "100000"],
    "powers-anchored-not-found": ["powers", CCSS, "--k", "3", "--slope", "1/1", "-L", "20000"],
    "powers-additive-not-found": ["powers", CCSS, "--k", "3", "-L", "3000"],
    "powers-first-start": ["powers", TM, "--k", "2", "-L", "1000000"],
    # additive profiles in narrow key lanes: negative letters in 2-byte lanes, CCSS's rows
    # past the 64-value mask into the presence table, and letters 10^5 apart in 4-byte lanes
    "profile-negative-letters": ["profile", "periodic:-3,0,5", "--n-max", "40"],
    "profile-presence": ["profile", CCSS, "-L", "10000", "--n-max", "100"],
    "profile-wide-letters": ["profile", "periodic:0,100000", "--n-max", "100"],
    "refuse-slope-prefix-length": ["slope", "periodic:0,1", "-L", "0"],
    "refuse-slope-past-the-cap": ["slope", "periodic:0,1", "-L", "2000000"],
    "refuse-slope-overflow": ["slope", f"periodic:{2**63 - 1},1", "-L", "100"],
    "refuse-chi-bad-slope": ["chi", "sec24", "--slope", "1/0"],
    "refuse-chi-m-max": ["chi", "sec24", "--slope", "1/1", "--m-max", "0"],
    "refuse-chi-m-max-past-the-prefix": ["chi", "sec24", "--slope", "1/1", "-L", "10",
                                         "--m-max", "40"],
    "refuse-chi-short-prefix": ["chi", "sec24", "--slope", "1/7", "-L", "5"],
    "refuse-factorize-bad-slope": ["factorize", "sec24", "--slope", "x"],
    "refuse-factorize-short-prefix": ["factorize", "periodic:0,1", "--slope", "1/7", "-L", "5"],
    "refuse-intersect-length": ["intersect", "periodic:0,1", "periodic:1,0", "--n", "0",
                                "-L", "100"],
    "refuse-intersect-family": ["intersect", "periodic:0,1", "bogus:1", "--n", "2"],
    "refuse-spread-lattice-without-mu": ["spread", "periodic:0,1", "--kind", "lattice",
                                         "-L", "100"],
    "refuse-spread-mu-without-lattice": ["spread", "periodic:0,1", "--kind", "abelian", "--mu",
                                         "mu:0=1;1=1", "-L", "100"],
    "refuse-spread-length": ["spread", "periodic:0,1", "--n-max", "0", "-L", "100"],
    "explain-nested": ["profile", "splice:[ thm11:k=1 | contract:base=(periodic:0,1);"
                       "ivals=arith:1,5,2 ];sched=2,3", "--explain"],
}


def readme_command_lines() -> list[list[str]]:
    """argv of each line of the README's command-line block, without its leading `wordsums`."""
    readme = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"## Command line\n.*?```\n(.*?)```", readme, re.S)
    return [shlex.split(line)[1:] for line in block.splitlines() if line.strip()]


def transcript(argv: list[str]) -> dict:
    """argv's exit code, stdout and stderr, run in this process; a stdout past _MAX_STDOUT
    characters is kept as the SHA-256 of its UTF-8 bytes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    text = out.getvalue()
    stdout = ({"stdout": text} if len(text) <= _MAX_STDOUT
              else {"stdout_sha256": hashlib.sha256(text.encode()).hexdigest()})
    return {"argv": argv, "exit": code, **stdout, "stderr": err.getvalue()}


def demo_stdout(path: Path) -> str:
    """What the demo script at path prints, run in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    return out.getvalue()


def _write(name: str, golden: dict) -> None:
    (GOLDEN / name).write_text(json.dumps(golden, indent=1, ensure_ascii=False) + "\n")


if __name__ == "__main__":
    commands = {**COMMANDS, **{"readme: " + shlex.join(argv): argv
                               for argv in readme_command_lines()}}
    _write("cli.json", {name: transcript(argv) for name, argv in commands.items()})
    _write("demos.json", {path.name: demo_stdout(path) for path in DEMOS})
