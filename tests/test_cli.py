import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wordsums
from wordsums.cli import (
    WordSpecError,
    main,
    parse_morphism_spec,
    parse_mu_spec,
    parse_slope,
    parse_word_spec,
)
from wordsums.generators import (
    SeparatedIntervalSet, SpliceSchedule, constant_complexity_word, constant_tail_word, contract,
    enumeration_word, mechanical, morphic_fixed_point, periodic, splice, unbounded_gap_word,
)
from wordsums.morphisms import Morphism

SPECS = [
    "periodic:0,1",
    "periodic:-1,2,-1",
    "morphic:0=0,1;1=1,0;seed=0",
    "mechanical:cf=2,2",
    "mechanical:cf=1;repeat=1",
    "enum:k=1",
    "thm11:k=2",
    "sec24",
    "ladder:n=4",
    "splice:[periodic:1|periodic:0,2|periodic:2,0];sched=1,2,2",
    "splice:[periodic:1|periodic:0,2];sched=1,2;2,0",
    "contract:base=(thm11:k=1);ivals=2-4,7-9",
    "contract:base=(thm11:k=1);ivals=arith:1,10,3",
    "contract:base=(splice:[periodic:1|periodic:0];sched=1,1);ivals=arith:2,4,1",
]


@pytest.mark.parametrize("spec", SPECS)
def test_specs_parse_and_canonical_roundtrip(spec):
    w1, canon = parse_word_spec(spec)
    w2, canon2 = parse_word_spec(canon)
    assert canon == canon2
    assert np.array_equal(w1.prefix(10_000), w2.prefix(10_000))


def test_constructor_labels_are_canonical_specs():
    thm1, spl = constant_complexity_word(1), SpliceSchedule(((1, 2, 2), (3, 0, 1)))
    words = [
        periodic([-1, 2, -1]),
        morphic_fixed_point(Morphism({1: (1, 0), 0: (0, 1)}), 0),
        mechanical([4, 3]),
        mechanical([1]),
        mechanical([1, 2], repeat=1),
        enumeration_word(2),
        constant_complexity_word(2),
        unbounded_gap_word(),
        constant_tail_word(4),
        splice([thm1, unbounded_gap_word(), periodic([0, 2])], spl),
        contract(thm1, SeparatedIntervalSet([(2, 4), (7, 9)])),
        contract(splice([periodic([1]), thm1], SpliceSchedule(((1, 1),))),
                 SeparatedIntervalSet.arithmetic(2, 4, 1)),
    ]
    for w in words:
        parsed, canon = parse_word_spec(w.label)
        assert canon == parsed.label == w.label
        assert np.array_equal(parsed.prefix(10_000), w.prefix(10_000)), w.label


def test_word_spec_errors():
    for bad in [
        "nope:1",
        "periodic:",
        "periodic:a,b",
        "morphic:0=0,1;1=1,0",          # no seed
        "mechanical:repeat=1",           # no cf
        "mechanical:cf=0",
        "splice:periodic:1;sched=1",     # missing brackets
        "splice:[periodic:1];sched=",    # empty schedule row
        "contract:base=thm11:k=1;ivals=2-4",  # missing parens
        "contract:base=(thm11:k=1);ivals=4",
        "enum:n=1",
        "ladder:k=1",
        "sec24:x=1",
        "file:/does/not/exist-xyz",
        "morphic:x=0,1;seed=0",
        "morphic:0=0,1;1=1,0;seed=x",
        "enum:k=x",
        "mechanical:cf=1;repeat=x",
        "ladder:n=",
        "thm11:k=2;k=3",                 # duplicate key
        "morphic:0=0,1;1=1,0;seed=0;seed=1",
        "morphic:0=0,1;00=1,0;seed=0",   # the same letter once parsed
        "enum:k=2;x=1",
        "thm11:k",
        "splice:[periodic:0|periodic:1;sched=1,1",
        "contract:base=(periodic:0);ivals=arith:1,3",
    ]:
        with pytest.raises(WordSpecError):
            parse_word_spec(bad)


def test_file_spec(tmp_path):
    p = tmp_path / "w.txt"
    p.write_text("0 1 1 0\n1 0 -2 0\n")
    w, canon = parse_word_spec(f"file:{p}")
    assert canon == f"file:{p}"
    assert [int(x) for x in w.prefix(8)] == [0, 1, 1, 0, 1, 0, -2, 0]
    with pytest.raises(ValueError):
        w.prefix(9)
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1 x")
    with pytest.raises(WordSpecError):
        parse_word_spec(f"file:{bad}")
    empty = tmp_path / "empty.txt"
    empty.write_text(" \n")
    with pytest.raises(WordSpecError):
        parse_word_spec(f"file:{empty}")


def test_splice_of_a_file_names_its_spec_where_it_ends(tmp_path, capsys):
    p = tmp_path / "w3.txt"
    p.write_text("1 2 3")
    spec = f"splice:[file:{p}|periodic:0];sched=1,1"
    assert main(["slope", spec, "-L", "10"]) == 2
    assert f"error: {spec} ends at length 6; cannot reach position 10" in capsys.readouterr().err


def test_contract_of_a_file_ends_with_it(tmp_path):
    # runs in a subprocess so that a contraction spinning past the end of
    # its base fails on the timeout instead of hanging the suite
    p = tmp_path / "w20.txt"
    p.write_text(" ".join(map(str, range(1, 21))))
    spec = f"contract:base=(file:{p});ivals=arith:2,5,2"
    paths = [str(Path(wordsums.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}

    def run(L):
        return subprocess.run(
            [sys.executable, "-m", "wordsums", "slope", spec, "-L", str(L)],
            capture_output=True, text=True, timeout=60, env=env,
        )

    assert run(12).returncode == 0  # 20 symbols less the 8 at 2-3, 7-8, 12-13, 17-18
    past = run(40)
    assert past.returncode == 2 and f"error: {spec} ends at length 12" in past.stderr


def test_parse_helpers():
    phi = parse_morphism_spec("0=0,2;1=1,1")
    assert repr(phi) == "0=0,2;1=1,1"
    mu = parse_mu_spec("mu:0=1,0;1=0,1")
    assert mu.dim == 2
    with pytest.raises(WordSpecError):
        parse_mu_spec("0=1,0")
    assert parse_slope("3/4").denominator == 4
    assert parse_slope("-2") == -2
    with pytest.raises(WordSpecError):
        parse_slope("x")
    with pytest.raises(WordSpecError):
        parse_morphism_spec("0=")


def test_profile_csv(capsys):
    rc = main(["profile", "periodic:0,1", "--n-max", "3", "-L", "100"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines() == ["n,count,spread", "1,2,1", "2,1,0", "3,2,1"]


def test_profile_json(capsys):
    rc = main(["profile", "periodic:0,1", "--n-max", "2", "-L", "100", "--format", "json"])
    assert rc == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows == [
        {"n": 1, "count": 2, "spread": 1},
        {"n": 2, "count": 1, "spread": 0},
    ]


def test_profile_abelian_kind(capsys):
    rc = main(["profile", "morphic:0=0,1;1=1,0;seed=0", "--kind", "abelian", "--n-max", "2", "-L", "1000"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[1:] == ["1,2,2", "2,3,8"]


def test_profile_lattice_requires_mu(capsys):
    rc = main(["profile", "periodic:0,1", "--kind", "lattice", "-L", "100"])
    assert rc == 2
    # a map without an image for the letter 1
    rc = main(["profile", "periodic:0,1", "--kind", "lattice", "--mu", "mu:0=1", "-L", "100"])
    assert rc == 2
    assert "outside the map's alphabet" in capsys.readouterr().err


def test_abelian_image_table_past_the_memory_guard_exits_2(capsys):
    # 301 Parikh columns at L = 1e5 need a 241 MB image table
    argv = ["profile", "enum:k=300", "--kind", "abelian", "-L", "100000", "--n-max", "1"]
    assert main(argv) == 2
    assert "memory guard" in capsys.readouterr().err


def test_spread_csv(capsys):
    rc = main(["spread", "periodic:0,1", "--n-max", "2", "-L", "100"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines() == ["n,spread", "1,1", "2,0"]


def test_slope_csv(capsys):
    rc = main(["slope", "periodic:1", "-L", "8"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[0] == "n,slope_p,slope_q"
    assert out[1:] == ["1,1,1", "2,1,1", "4,1,1", "8,1,1"]


def test_chi_csv(capsys):
    rc = main(["chi", "sec24", "--slope", "1", "--m-max", "6", "-L", "100"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out == ["m,chi", "1,-1", "2,-1", "3,0", "4,-1", "5,-1", "6,0"]


@pytest.mark.parametrize("m_max", ["0", "-2"])
def test_chi_refuses_m_max_below_one(capsys, m_max):
    rc = main(["chi", "periodic:0,1", "--slope", "1/2", "--m-max", m_max, "-L", "10"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "--m-max" in captured.err


def test_factorize_csv_and_json(capsys):
    rc = main(["factorize", "thm11:k=1", "--slope", "1", "-L", "50"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[0] == "cut"
    cuts = [int(x) for x in out[1:]]
    assert cuts[:3] == [2, 3, 4]
    rc = main(["factorize", "thm11:k=1", "--slope", "1", "-L", "50", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["color"] == 0
    assert payload["cuts"][:3] == [2, 3, 4]
    assert payload["alpha"] == "1/1"


def test_anchor_exit_codes(capsys):
    rc = main(["anchor", "0=0,2;1=1,1"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["is_anchor"] is True
    assert payload["weight"] == "1/1"
    rc = main(["anchor", "0=0;1=1,1"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert payload["is_anchor"] is False
    assert payload["witness"] == {"b1": [0, 0], "b2": [1]}


def test_powers_found_and_not(capsys):
    rc = main(["powers", "morphic:0=0,1;1=1,0;seed=0", "--k", "2", "-L", "100"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["found"] and payload["verified"]
    rc = main(["powers", "periodic:1,2", "--k", "2", "-L", "3"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert payload == {"found": False}


def test_powers_mod_mu(capsys):
    rc = main([
        "powers", "morphic:0=0,1;1=1,0;seed=0", "--k", "3", "-L", "2000",
        "--mu", "mu:0=1,0;1=0,1",
    ])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["found"] and payload["verified"]
    assert isinstance(payload["value"], list)


def test_powers_anchored(capsys):
    rc = main([
        "powers", "thm11:k=1", "--k", "3", "--slope", "1", "--divisor", "4",
        "-L", "20000",
    ])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["block_length"] % 4 == 0
    assert payload["verified"]


def test_powers_takes_no_format(capsys):
    # powers always prints JSON, as anchor does
    with pytest.raises(SystemExit) as exc:
        main(["powers", "thm11:k=1", "--k", "4", "-L", "2000", "--format", "csv"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_powers_slope_mu_conflict(capsys):
    rc = main([
        "powers", "periodic:0,1", "--k", "2", "--slope", "1",
        "--mu", "mu:0=1;1=1", "-L", "100",
    ])
    assert rc == 2


def test_intersect(capsys):
    rc = main(["intersect", "periodic:0,1", "periodic:1,0", "--n", "3", "-L", "100"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out == ["n,shared", "3,2"]


def test_explain_prints_canonical(capsys):
    rc = main(["profile", "contract:base=( thm11:k=1 );ivals=arith:1,10,3", "--explain"])
    out = capsys.readouterr().out.strip()
    assert rc == 0
    assert out == "contract:base=(thm11:k=1);ivals=arith:1,10,3"


def test_out_file(tmp_path, capsys):
    target = tmp_path / "prof.csv"
    rc = main(["profile", "periodic:0,1", "--n-max", "1", "-L", "10", "--out", str(target)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    assert target.read_text().splitlines() == ["n,count,spread", "1,2,1"]


def test_large_prefix_needs_flag(capsys):
    rc = main(["profile", "periodic:0,1", "-L", "2000000", "--n-max", "1"])
    assert rc == 2
    rc = main(["profile", "periodic:0,1", "-L", "1500000", "--n-max", "1", "--unsafe-large"])
    assert rc == 0


@pytest.mark.parametrize("big", [-(2**63), 2**63])
def test_int64_extremes_exit_2(tmp_path, capsys, big):
    # -2^63 used to slip past the overflow guards, 2^63 to raise OverflowError
    p = tmp_path / "w.txt"
    p.write_text(f"{big} {big} 5")
    assert main(["slope", f"file:{p}", "-L", "3"]) == 2
    mu = f"mu:0={big};1=0"
    assert main(["profile", "periodic:0,1", "--kind", "lattice", "--mu", mu, "-L", "3"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("spec", ["enum:k=1048576", "thm11:k=524288", "ladder:n=1048577"])
def test_large_family_parameters_exit_2(capsys, spec):
    # each needs 2^20 + 1 letters, one past the alphabet guard
    assert main(["profile", spec, "-L", "10"]) == 2
    assert "letter guard" in capsys.readouterr().err


def test_bad_spec_exits_2(capsys):
    assert main(["profile", "wat:1"]) == 2
    assert main(["chi", "periodic:0,1", "--slope", "1/0"]) == 2
    assert main(["profile", "periodic:0,1", "-L", "0"]) == 2
