import contextlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wordsums
from wordsums.cli import (
    _MAX_DEPTH,
    WordSpecError,
    main,
    parse_morphism_spec,
    parse_mu_spec,
    parse_slope,
    parse_word_spec,
)
from wordsums.complexity import LatticeMap
from wordsums.core import WordStream, from_finite
from wordsums.generators import (
    SeparatedIntervalSet, SpliceSchedule, constant_complexity_word, constant_tail_word, contract,
    enumeration_word, mechanical, morphic_fixed_point, nested_enum_word, periodic, splice,
    unbounded_gap_word,
)
from wordsums.morphisms import Morphism, apply_morphism, unbounding_stream

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
    # the words no spec builds are marked <...>, and a spec holding one is refused by that label
    phi = Morphism({0: (0,), 1: (1, 1)})
    marked = [
        apply_morphism(phi, periodic([0, 1])),
        unbounding_stream(phi),
        nested_enum_word(),
        from_finite([1, 2, 3]),
        WordStream(lambda: itertools.repeat(1)),
    ]
    assert [w.label for w in marked] == [
        "<image of periodic:0,1>", "<unbounding word of 0=0;1=1,1>",
        "<nested enumeration word>", "<finite word>", "<word>",
    ]
    for w in marked:
        for outer in (w, splice([thm1, w], SpliceSchedule(((1, 1),))),
                      contract(w, SeparatedIntervalSet([(2, 4)]))):
            assert w.label in outer.label
            with pytest.raises(WordSpecError) as err:
                parse_word_spec(outer.label)
            assert w.label in str(err.value), outer.label


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
        "contract:base=(periodic:0,1);ivals=",
        "<image of thm11:k=1>",
        "splice:[<image of thm11:k=1>|periodic:0];sched=1,1",
        "periodic:0,1)",                  # a closing bracket before its opening one
        "splice:[periodic:1]|periodic:0];sched=1,1",
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


def test_file_path_with_a_bracket_exits_2(capsys):
    # a path is parsed by the spec grammar, so it may hold no brackets
    assert main(["slope", "file:a(b.txt"]) == 2
    assert "unbalanced brackets" in capsys.readouterr().err


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


def test_abelian_profile_of_301_letters_fits_the_key_guard(capsys):
    # 301 Parikh columns at n_max = 1 take 5 key pieces: 8 MB of key prefix and buffer
    # at L = 1e5, inside the guard
    argv = ["profile", "enum:k=300", "--kind", "abelian", "-L", "100000", "--n-max", "1"]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["1,301,2"]


def test_abelian_key_prefix_past_the_memory_guard_exits_2(capsys, monkeypatch):
    # at n_max = 100 the 301 columns take 34 pieces: 544 MB of keys at L = 1e6, refused
    # before a symbol is read
    reads, extend = [], WordStream._extend
    monkeypatch.setattr(WordStream, "_extend", lambda w, n: reads.append(n) or extend(w, n))
    argv = ["profile", "enum:k=300", "--kind", "abelian", "-L", "1000000", "--n-max", "100"]
    assert main(argv) == 2
    assert "window keys for L=1000000, t=301 exceeds the memory guard" in capsys.readouterr().err
    assert reads == []


def test_abelian_map_past_the_memory_guard_exits_2(capsys):
    # 100001 letters pass the 2^20-letter guard, but their Parikh map needs 10^10 cells
    argv = ["profile", "enum:k=100000", "--kind", "abelian", "-L", "10", "--n-max", "1"]
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


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


@pytest.mark.parametrize("command", [
    ["chi", "periodic:-1,0", "-L", "6"],
    ["factorize", "periodic:-1,0", "-L", "6"],
    ["powers", "periodic:-1,0", "--k", "2", "-L", "20"],
])
def test_a_negative_slope_reads_as_its_equals_form(command):
    # argparse reads a token of '-' and a digit as an option unless it is a plain number
    got = _main([*command, "--slope", "-1/2"])
    assert got == _main([*command, "--slope=-1/2"]) and got[0] in (0, 1) and got[1]


def test_a_negative_prefix_length_beside_a_negative_slope_is_still_refused(capsys):
    assert main(["chi", "periodic:-1,0", "--slope", "-1/2", "-L", "-5"]) == 2
    assert capsys.readouterr().err == "error: prefix length must be >= 1\n"


@pytest.mark.parametrize("argv, message", [
    (["profile", "contract:base=periodic:0;ivals=2-4"],
     "expected contract:base=(<spec>);ivals=..."),
    (["chi", "periodic:0,1", "--slope", "1/3", "-L", "2"], "prefix too short for one q=3 block"),
    (["chi", "periodic:0,1", "--slope", "1/2", "--m-max", "3", "-L", "5"],
     "m-max needs a prefix past L; raise -L or pass --unsafe-large"),
], ids=["contract-base-without-parentheses", "chi-L-below-q", "chi-m-max-past-L"])
def test_refusals_exit_2_with_their_message(capsys, argv, message):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


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


def test_powers_divisor_needs_a_slope(capsys):
    # only the slope search reads the divisor, so alone it is refused, not ignored
    assert main(["powers", "thm11:k=1", "--k", "4", "--divisor", "3", "-L", "2000"]) == 2
    assert capsys.readouterr() == ("", "error: --divisor needs --slope\n")
    argv = ["powers", "thm11:k=1", "--k", "3", "--slope", "1", "-L", "20000"]
    assert main(argv) == 0
    alone = capsys.readouterr().out
    assert main(argv + ["--divisor", "1"]) == 0
    assert capsys.readouterr().out == alone


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
    # factors of 1000 letters are counted through their key pieces
    rc = main(["intersect", "periodic:0,1", "periodic:1,0", "--n", "1000", "-L", "30000"])
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == ["n,shared", "1000,2"]


def test_explain_prints_canonical(capsys):
    rc = main(["profile", "contract:base=( thm11:k=1 );ivals=arith:1,10,3", "--explain"])
    out = capsys.readouterr().out.strip()
    assert rc == 0
    assert out == "contract:base=(thm11:k=1);ivals=arith:1,10,3"


def test_spaces_around_raw_values_are_stripped(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "w.txt").write_text("0 1 1 0\n")
    for spec, canon in [
        ("file: w.txt", "file:w.txt"),
        ("contract:base=(thm11:k=1);ivals= arith:1,10,3",
         "contract:base=(thm11:k=1);ivals=arith:1,10,3"),
        ("contract:base= (thm11:k=1) ;ivals=2-4, 7-9 ", "contract:base=(thm11:k=1);ivals=2-4,7-9"),
    ]:
        assert main(["profile", spec, "--explain"]) == 0
        assert capsys.readouterr().out.strip() == canon


def _main(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def test_specs_nest_up_to_the_depth_cap():
    def nest(depth, leaf="periodic:1"):
        for i in range(depth):
            leaf = f"splice:[{leaf}];sched=1" if i % 2 else f"contract:base=({leaf});ivals=1-1"
        return leaf

    at_cap = nest(_MAX_DEPTH)
    slopes = "n,slope_p,slope_q\n1,1,1\n2,1,1\n4,1,1\n"
    assert _main(["slope", at_cap, "-L", "4"]) == (0, slopes, "")
    assert _main(["profile", at_cap, "--explain"]) == (0, at_cap + "\n", "")
    # 250 nested splices or 340 contractions once raised RecursionError
    for past in (nest(_MAX_DEPTH + 1), nest(340), "splice:" + "[" * 2000):
        rc, out, err = _main(["profile", past])
        assert (rc, out, err[:7]) == (2, "", "error: ")


def _csv(xs) -> str:
    return ",".join(map(str, xs))


@st.composite
def _morphic_specs(draw):
    letters = sorted(draw(st.sets(st.integers(-2, 2), min_size=1, max_size=3)))
    seed = draw(st.sampled_from(letters))
    rules = []
    for s in letters:
        img = draw(st.lists(st.sampled_from(letters), min_size=1, max_size=3))
        rules.append(f"{s}={_csv([s, *img] if s == seed else img)}")  # prolongable at seed
    return f"morphic:{';'.join(rules)};seed={seed}"


@st.composite
def _mechanical_specs(draw):
    cf = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    repeat = draw(st.none() | st.integers(1, len(cf)))
    return f"mechanical:cf={_csv(cf)}" + ("" if repeat is None else f";repeat={repeat}")


@st.composite
def _splice_specs(draw, sources):
    srcs = draw(st.lists(sources, min_size=1, max_size=3))
    row = st.lists(st.integers(0, 2), min_size=len(srcs), max_size=len(srcs))
    rows = draw(st.lists(row, min_size=1, max_size=2))
    rows[0][0] = max(rows[0][0], 1)  # a schedule that never emits is refused
    return f"splice:[{'|'.join(srcs)}];sched={';'.join(map(_csv, rows))}"


@st.composite
def _contract_specs(draw, bases):
    base = draw(bases)
    if draw(st.booleans()):
        width = draw(st.integers(1, 2))
        period = draw(st.integers(2 * width, 2 * width + 3))  # deletes at most half of the base
        ivals = f"arith:{draw(st.integers(1, 4))},{period},{width}"
    else:
        pairs, lo = [], draw(st.integers(1, 4))
        for _ in range(draw(st.integers(1, 3))):
            hi = lo + draw(st.integers(0, 2))
            pairs.append(f"{lo}-{hi}")
            lo = hi + draw(st.integers(2, 5))
        ivals = ",".join(pairs)
    return f"contract:base=({base});ivals={ivals}"


def _spec_trees(path: str, depth: int = 3):
    """Canonical specs over every family, with splices and contractions nested up to depth."""
    leaves = st.one_of(
        st.lists(st.integers(-3, 3), min_size=1, max_size=4).map(lambda p: f"periodic:{_csv(p)}"),
        _morphic_specs(),
        _mechanical_specs(),
        st.integers(0, 2).map("enum:k={}".format),
        st.integers(0, 2).map("thm11:k={}".format),
        st.just("sec24"),
        st.integers(1, 4).map("ladder:n={}".format),
        st.just(f"file:{path}"),
    )
    if depth == 0:
        return leaves
    sub = _spec_trees(path, depth - 1)
    return st.one_of(leaves, _splice_specs(sub), _contract_specs(sub))


_WHITESPACE = st.sampled_from(["", "", " ", "  ", "\t", " \n"])
# every separator; a '-' is one between two digits (lo-hi), not a minus sign
_SEPARATORS = re.compile(r"[:;=,|\[\]()]|(?<=\d)-(?=\d)")


def _spaced(draw, spec: str) -> str:
    """spec with drawn whitespace on both sides of each separator and around the whole."""
    def pad(sep):
        return draw(_WHITESPACE) + sep.group() + draw(_WHITESPACE)

    return draw(_WHITESPACE) + _SEPARATORS.sub(pad, spec) + draw(_WHITESPACE)


def _head(w, n=2000):
    """w(1..n), or all of w if a file in it ends first."""
    try:
        return w.prefix(n)
    except ValueError:
        return w.prefix(w._n)


@pytest.fixture(scope="module")
def word_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("words") / "w.txt"
    p.write_text(" ".join(str(i * i % 7 - 3) for i in range(60)))
    assert not _SEPARATORS.search(str(p))
    return str(p)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_spec_trees_round_trip_through_their_labels_and_whitespace(word_file, data):
    spec = data.draw(_spec_trees(word_file))
    w, label = parse_word_spec(spec)
    assert label == spec  # the drawn spec is already canonical
    w2, label2 = parse_word_spec(label)
    assert label2 == label
    assert np.array_equal(_head(w), _head(w2))
    spaced = _spaced(data.draw, spec)
    assert _main(["profile", spaced, "--explain"]) == (0, spec + "\n", "")


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_a_mangled_spec_exits_0_or_2_never_with_a_traceback(word_file, data):
    spec = data.draw(_spec_trees(word_file, depth=2))
    i = data.draw(st.integers(0, len(spec)))
    cut = data.draw(st.integers(0, 1))
    mangled = spec[:i] + data.draw(st.sampled_from(list(" :;=,|[]()<>-0x"))) + spec[i + cut :]
    rc, out, err = _main(["profile", "--explain", "--", mangled])  # it may begin with '-'
    assert (rc, err) == (0, "") or (rc, out, err[:7]) == (2, "", "error: "), mangled


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_morphism_and_lattice_map_specs_round_trip_through_whitespace(data):
    letters = data.draw(st.lists(st.integers(-40, 40), min_size=1, max_size=4, unique=True))
    word = st.lists(st.integers(-40, 40), min_size=1, max_size=4)
    phi = Morphism({s: data.draw(word) for s in letters})
    assert parse_morphism_spec(_spaced(data.draw, repr(phi))).images == phi.images
    dim = data.draw(st.integers(1, 3))
    vec = st.lists(st.integers(-40, 40), min_size=dim, max_size=dim)
    mu = LatticeMap({s: data.draw(vec) for s in letters})
    assert parse_mu_spec(_spaced(data.draw, repr(mu))).images == mu.images


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
