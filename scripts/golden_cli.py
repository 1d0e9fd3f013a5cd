"""Record the CLI's golden transcripts: stdout, stderr and exit code of each command below.

Regenerate with `PYTHONPATH=src python scripts/golden_cli.py` from the repository root; it
rewrites tests/golden/cli.json, which tests/test_golden.py compares byte for byte.  A change
that alters a transcript says why in CHANGES.md.  The commands read an Alphabet: anchor
matrices, Parikh and lattice profiles, power scans modulo a lattice map, and the refusals of
maps and morphisms that exit 2.
"""

import contextlib
import io
import json
from pathlib import Path

from wordsums.cli import main

BIG = str(2**70)  # a letter past int64
PARIKH3 = "mu:0=1,0,0;1=0,1,0;2=0,0,1"
DEKKING3 = "morphic:0=0,0,1,2;1=1,1,2;2=0,2,2;seed=0"
SHORT = ["-L", "10", "--n-max", "2"]

COMMANDS = {
    "anchor": ["anchor", "0=0,4;1=1,3;2=2,2"],
    "anchor-negative-letters": ["anchor", "--", "-1=-1,3;1=1,1;3=3,-1"],
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
}


def transcript(argv: list[str]) -> dict:
    """argv's exit code, stdout and stderr, run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


if __name__ == "__main__":
    path = Path(__file__).resolve().parent.parent / "tests" / "golden" / "cli.json"
    golden = {name: transcript(argv) for name, argv in COMMANDS.items()}
    path.write_text(json.dumps(golden, indent=1, ensure_ascii=False) + "\n")
