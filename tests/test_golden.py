"""The golden transcripts, byte for byte: each command's stdout, stderr and exit code, each
README command line's, and each demo's stdout; and the lines the README's quick start prints.

tests/golden/ holds what scripts/golden_cli.py recorded.  Regenerate it with
`PYTHONPATH=src python scripts/golden_cli.py`, and say in CHANGES.md why it changed.
"""

import json
import re
import runpy
import shlex
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORD = runpy.run_path(str(ROOT / "scripts" / "golden_cli.py"), run_name="golden_cli")
GOLDEN = json.loads((ROOT / "tests" / "golden" / "cli.json").read_text())
DEMOS = json.loads((ROOT / "tests" / "golden" / "demos.json").read_text())


@pytest.mark.parametrize("name", list(GOLDEN))
def test_cli_output_matches_its_golden_transcript(name):
    want = GOLDEN[name]
    assert RECORD["transcript"](want["argv"]) == want


def test_every_readme_command_line_has_a_golden_transcript():
    lines = ["readme: " + shlex.join(argv) for argv in RECORD["readme_command_lines"]()]
    assert lines == [name for name in GOLDEN if name.startswith("readme: ")]


@pytest.mark.parametrize("path", RECORD["DEMOS"], ids=lambda p: p.name)
def test_demo_stdout_matches_its_golden_transcript(path):
    assert RECORD["demo_stdout"](path) == DEMOS[path.name]


@pytest.mark.parametrize("name, dashed", [
    ("anchor-negative-letters-without-dashes", "anchor-negative-letters"),
    ("chi-negative-slope", "chi-negative-slope-with-equals"),
])
def test_a_value_that_begins_with_a_minus_and_a_digit_reads_as_its_dashed_form(name, dashed):
    got, want = (dict(GOLDEN[key], argv=None) for key in (name, dashed))
    assert got == want


def test_readme_quick_start_prints_what_its_comments_say(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == [
        "[5, 5, 5, 5, 5, 5, 5, 5, 5, 5]",
        "(2, 4, 5, 6, 8)",
        "2",
        "PowerWitness(start=1, block_length=2, count=4, value=4)",
    ]
