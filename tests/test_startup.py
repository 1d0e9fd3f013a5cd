"""Cold start-up: what `import wordsums` and each CLI command load, and the lazy package surface.

Each load check runs in a fresh interpreter, because this process has long since imported
numpy and every submodule.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wordsums
from wordsums import cli, core

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = json.loads((ROOT / "tests" / "golden" / "cli.json").read_text())
SUBMODULES = ("complexity", "core", "generators", "morphisms", "powers", "slopes")

# what `from wordsums import *` bound before the package loaded its submodules lazily
EXPORTED = [
    "Alphabet", "AnchorReport", "ComplexityProfile", "DeviationStats", "FiniteWord",
    "GreedyCuts", "GuardError", "Interval", "LatticeMap", "Morphism", "PowerWitness",
    "ProfileRow", "SeparatedIntervalSet", "SlopeFactorization", "SpliceSchedule", "WordStream",
    "abelian_complexity", "abelian_unbounding_morphism", "additive_complexity", "anchor_matrix",
    "anchor_spread_bound", "apply_morphism", "block_slope", "cf_value", "chi",
    "chi_factorization", "chi_sequence", "complexity", "constant_complexity_word",
    "constant_tail_word", "contract", "core", "count_symbol", "deviation_constant",
    "enumeration_word", "factor", "factor_set_intersection", "factors_with_slope",
    "find_additive_kpower", "find_anchored_power", "find_kpower_mod_mu", "from_finite",
    "generators", "greedy_slope_cuts", "is_anchor", "lattice_complexity", "lattice_spread",
    "mechanical", "mirror_anchor", "monochromatic_ap", "morphic_fixed_point", "morphisms",
    "naive_complexity_oracle", "nested_enum_word", "non_anchor_witness", "parikh", "periodic",
    "powers", "profile", "slope_estimate", "slopes", "splice", "sum_spread",
    "unbounded_gap_word", "unbounding_stream", "verify_power", "window_images", "window_sums",
    "word_slope", "word_sum",
]

_LOADED = "sorted(m for m in sys.modules if m == 'numpy' or m.startswith('wordsums.'))"

# main(argv) in a fresh interpreter: its transcript and the modules loaded after it
_MAIN = f"""
import contextlib, io, json, sys
from wordsums.cli import main
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = main(sys.argv[1:])
print(json.dumps({{"transcript": {{"argv": sys.argv[1:], "exit": code, "stdout": out.getvalue(),
                                  "stderr": err.getvalue()}}, "loaded": {_LOADED}}}))
"""


def _fresh(code: str, *argv: str):
    """What code prints as JSON, run in a fresh interpreter that imports this checkout's package."""
    paths = [str(Path(wordsums.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                         timeout=120, env=env, check=True)
    return json.loads(out.stdout)


def test_import_loads_neither_numpy_nor_a_submodule():
    assert _fresh(f"import json, sys, wordsums; print(json.dumps({_LOADED}))") == []


@pytest.mark.parametrize("argv, stderr", [
    (GOLDEN["refuse-slope-past-the-cap"]["argv"], GOLDEN["refuse-slope-past-the-cap"]["stderr"]),
    (["powers", "thm11:k=1", "--k", "3", "-L", "2000000"],
     "error: L = 2000000 is past 1000000; pass --unsafe-large to proceed\n"),
    (["slope", "bogus:1"], "error: unknown word family 'bogus'\n"),
    (["slope", "splice:[periodic:1|periodic:0;sched=1,1"],
     "error: unbalanced brackets in 'splice:[periodic:1|periodic:0;sched=1,1'\n"),
    (["profile", "contract:base=(sec24));ivals=1-2"],
     "error: unbalanced brackets in 'contract:base=(sec24));ivals=1-2'\n"),
])
def test_prelude_refusals_load_no_library_module(argv, stderr):
    got = _fresh(_MAIN, *argv)
    assert got["transcript"] == {"argv": argv, "exit": 2, "stdout": "", "stderr": stderr}
    assert got["loaded"] == ["wordsums._errors", "wordsums.cli"]


@pytest.mark.parametrize("name, unused", [
    ("profile-presence", {"wordsums.slopes", "wordsums.powers"}),
    ("abelian-spread", {"wordsums.slopes", "wordsums.powers"}),
    ("intersect-mask", {"wordsums.slopes", "wordsums.powers"}),
    ("anchor", {"wordsums.slopes", "wordsums.powers", "wordsums.generators"}),
    ("slope-csv", {"wordsums.powers"}),
    ("chi-csv", {"wordsums.powers"}),
    ("factorize-json", {"wordsums.powers"}),
])
def test_each_command_loads_only_what_it_calls(name, unused):
    want = GOLDEN[name]
    got = _fresh(_MAIN, *want["argv"])
    assert got["transcript"] == want
    assert "numpy" in got["loaded"] and not unused & set(got["loaded"])


def test_the_exported_names_are_unchanged():
    assert wordsums.__all__ == EXPORTED
    assert set(EXPORTED) <= set(dir(wordsums))
    ns: dict = {}
    exec("from wordsums import *", ns)
    assert sorted(set(ns) - {"__builtins__"}) == EXPORTED


def test_each_name_is_its_submodules_object():
    for name in EXPORTED:
        if name in SUBMODULES:
            assert getattr(wordsums, name) is sys.modules[f"wordsums.{name}"]
        else:
            source = importlib.import_module(f"wordsums.{wordsums._SOURCE[name]}")
            assert getattr(wordsums, name) is getattr(source, name)


def test_an_unknown_attribute_raises_attribute_error():
    for name in ("no_such_name", "_SUM_LIMIT", "np"):
        with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
            getattr(wordsums, name)
    assert not hasattr(wordsums, "no_such_name")


def test_guard_error_is_one_class_and_main_reports_it(monkeypatch, capsys):
    assert wordsums.GuardError is core.GuardError is cli.GuardError

    def refuse(args, w):
        raise core.GuardError("past a guard")

    monkeypatch.setattr(cli, "_cmd_slope", refuse)
    assert cli.main(["slope", "periodic:0,1", "-L", "10"]) == 2
    assert capsys.readouterr().err == "error: past a guard\n"


def test_main_does_not_swallow_other_errors(monkeypatch):
    def recurse(args, w):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "_cmd_slope", recurse)
    with pytest.raises(RecursionError):
        cli.main(["slope", "periodic:0,1", "-L", "10"])


def test_threads_resolving_names_at_once_get_the_same_objects():
    code = """
import json, sys, threading
import wordsums
names = ["find_additive_kpower", "chi_sequence", "Morphism", "profile", "periodic",
         "GuardError", "PowerWitness", "window_sums"]
barrier = threading.Barrier(len(names))
got = [None] * len(names)

def resolve(i):
    barrier.wait()
    got[i] = {n: getattr(wordsums, n) for n in names[i:] + names[:i]}

sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=resolve, args=(i,)) for i in range(len(names))]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
want = {n: getattr(sys.modules["wordsums." + wordsums._SOURCE[n]], n) for n in names}
same = all(g is not None and all(g[n] is want[n] for n in names) for g in got)
print(json.dumps({"alive": sum(t.is_alive() for t in threads), "same": same}))
"""
    assert _fresh(code) == {"alive": 0, "same": True}
