"""Each script in demos/ and the README's quick start run to completion and print their tour."""

import re
import runpy
from pathlib import Path

import pytest

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
