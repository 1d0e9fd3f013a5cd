"""The CLI's golden transcripts: stdout, stderr and exit code, byte for byte.

tests/golden/cli.json holds one transcript per command of scripts/golden_cli.py.  Regenerate
it with `PYTHONPATH=src python scripts/golden_cli.py`, and say in CHANGES.md why it changed.
"""

import json
from pathlib import Path

import pytest

from wordsums.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden" / "cli.json").read_text())


@pytest.mark.parametrize("name", list(GOLDEN))
def test_cli_output_matches_its_golden_transcript(name, capsys):
    want = GOLDEN[name]
    code = main(want["argv"])
    got = capsys.readouterr()
    assert code == want["exit"]
    assert got.out == want["stdout"]
    assert got.err == want["stderr"]
