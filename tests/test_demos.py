"""Each script in demos/, the README's quick start and its command lines run to completion."""

import re
import runpy
import shlex
from pathlib import Path

import pytest

from wordsums.cli import main

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_readme_quick_start_prints_what_its_comments_say(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == [
        "[5, 5, 5, 5, 5, 5, 5, 5, 5, 5]",
        "(2, 4, 5, 6, 8)",
        "2",
        "PowerWitness(start=1, block_length=2, count=4, value=4)",
    ]


def test_readme_command_lines_exit_0_with_output(capsys):
    readme = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"## Command line\n.*?```\n(.*?)```", readme, re.S)
    lines = [shlex.split(line) for line in block.splitlines() if line.strip()]
    assert lines and all(argv[0] == "wordsums" for argv in lines)
    for argv in lines:
        assert main(argv[1:]) == 0, argv
        assert capsys.readouterr().out.strip(), argv
