import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wordsums import (
    GuardError,
    Morphism,
    SeparatedIntervalSet,
    SpliceSchedule,
    cf_value,
    constant_complexity_word,
    constant_tail_word,
    contract,
    enumeration_word,
    from_finite,
    mechanical,
    mirror_anchor,
    morphic_fixed_point,
    nested_enum_word,
    periodic,
    splice,
    unbounded_gap_word,
)
from wordsums import generators


def _prefix(w, L):
    return [int(x) for x in w.prefix(L)]


def test_periodic():
    assert _prefix(periodic([1, -2]), 5) == [1, -2, 1, -2, 1]
    with pytest.raises(ValueError):
        periodic([])


def test_periodic_refuses_symbols_that_are_not_integers():
    with pytest.raises(ValueError, match="not an integer"):
        periodic([1.5, 2])  # read as [1 2]


def test_thue_morse_prefix(thue_morse):
    assert _prefix(thue_morse, 8) == [0, 1, 1, 0, 1, 0, 0, 1]


def test_fibonacci_prefix(fibonacci):
    assert _prefix(fibonacci, 8) == [0, 1, 0, 0, 1, 0, 1, 0]


def test_morphic_rejects_bad_seeds():
    phi = Morphism({0: (0, 1), 1: (1, 0)})
    with pytest.raises(ValueError):
        morphic_fixed_point(phi, 2)
    with pytest.raises(ValueError):
        morphic_fixed_point(Morphism({0: (1, 0), 1: (1,)}), 0)
    # non-endomorphism: image symbol 2 has no image of its own
    with pytest.raises(ValueError):
        morphic_fixed_point(Morphism({0: (0, 2)}), 0)


def test_enumeration_word_prefix():
    assert _prefix(enumeration_word(1), 8) == [0, 1, 0, 0, 0, 1, 1, 0]
    # every word over {0,1} of length 2 appears inside the enumeration
    w = enumeration_word(1)
    seen = set()
    prefix = _prefix(w, 50)
    for i in range(len(prefix) - 1):
        seen.add(tuple(prefix[i : i + 2]))
    assert seen == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_constant_complexity_prefixes():
    assert _prefix(constant_complexity_word(1), 12) == [0, 2, 1, 1, 0, 2, 0, 2, 0, 2, 1, 1]
    assert _prefix(constant_complexity_word(2), 6) == [0, 4, 1, 3, 2, 2]


def test_nested_enum_prefix():
    assert _prefix(nested_enum_word(), 9) == [1, 1, 1, 1, 2, 2, 1, 2, 2]


def test_unbounded_gap_word_prefix():
    # values 1,1,1,1,2,... expand to 0 1^v 2 (odd) / 2 1^v 0 (even)
    assert _prefix(unbounded_gap_word(), 14) == [0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 2, 1]


def test_constant_tail_word():
    assert _prefix(constant_tail_word(3), 7) == [0, 1, 2, 2, 2, 2, 2]
    assert _prefix(constant_tail_word(1), 4) == [0, 0, 0, 0]
    with pytest.raises(ValueError):
        constant_tail_word(0)


def test_mechanical_rational_periods():
    assert _prefix(mechanical([2]), 6) == [0, 1, 0, 1, 0, 1]
    assert _prefix(mechanical([2, 2]), 10) == [0, 0, 1, 0, 1, 0, 0, 1, 0, 1]
    assert _prefix(mechanical([2, 1, 1, 2]), 13) == [0, 0, 1, 0, 0, 1, 0, 1, 0, 0, 1, 0, 1]
    assert _prefix(mechanical([1]), 5) == [1, 1, 1, 1, 1]


def test_cf_value():
    assert cf_value([2]) == Fraction(1, 2)
    assert cf_value([2, 2]) == Fraction(2, 5)
    assert cf_value([2, 1, 1, 2]) == Fraction(5, 13)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=6))
def test_mechanical_matches_floor_formula(cf):
    alpha = cf_value(cf)
    w = mechanical(cf)
    L = 4 * alpha.denominator + 20
    p, q = alpha.numerator, alpha.denominator
    floors = [(p * i) // q - (p * (i - 1)) // q for i in range(1, L + 1)]
    assert _prefix(w, L) == floors


def _isqrt_floor(mult, i, shift):
    # floor(i*sqrt(mult)) + shift*i, exactly
    return math.isqrt(mult * i * i) + shift * i


def test_mechanical_quadratic_irrationals():
    # alpha = sqrt(2) - 1 has continued fraction [0; 2, 2, 2, ...]
    w = mechanical([2], repeat=1)
    seq = _prefix(w, 2000)
    f = [_isqrt_floor(2, i, -1) for i in range(2001)]
    assert seq == [f[i] - f[i - 1] for i in range(1, 2001)]
    # alpha = (sqrt(5) - 1)/2 has continued fraction [0; 1, 1, 1, ...]
    w = mechanical([1], repeat=1)
    seq = _prefix(w, 2000)
    f = [(math.isqrt(5 * i * i) - i) // 2 for i in range(2001)]
    assert seq == [f[i] - f[i - 1] for i in range(1, 2001)]


def test_mechanical_rejects_bad_input():
    with pytest.raises(ValueError):
        mechanical([])
    with pytest.raises(ValueError):
        mechanical([2, 0])
    with pytest.raises(ValueError):
        mechanical([2], repeat=2)


def test_mechanical_refuses_coefficients_that_are_not_integers():
    # int() used to truncate them, so [2.7, 1.2] was labelled mechanical:cf=2,1
    with pytest.raises(ValueError, match="coefficient 2.7 is not an integer"):
        mechanical([2.7, 1.2])
    assert mechanical([np.int64(2), 1]).label == "mechanical:cf=2,1"


def test_splice_prefix():
    sp = splice(
        [periodic([1]), periodic([0, 2]), periodic([2, 0])],
        SpliceSchedule(((1, 2, 2),)),
    )
    assert _prefix(sp, 10) == [1, 0, 2, 2, 0, 1, 0, 2, 2, 0]


def test_splice_multi_round_consumes_in_order():
    sp = splice(
        [periodic([7]), periodic([0, 1, 2, 3])],
        SpliceSchedule(((1, 2), (0, 1))),
    )
    # round 1: 7 | 01 ; round 2: _ | 2 ; round 1: 7 | 30 ; round 2: _ | 1
    assert _prefix(sp, 9) == [7, 0, 1, 2, 7, 3, 0, 1, 7]


def test_splice_ends_with_a_finite_source():
    sp = splice([from_finite(range(1, 21)), periodic([0])], SpliceSchedule(((2, 1),)))
    assert _prefix(sp, 30) == [x for i in range(1, 21, 2) for x in (i, i + 1, 0)]
    with pytest.raises(ValueError):
        sp.prefix(31)


def test_splice_schedule_validation():
    with pytest.raises(ValueError):
        SpliceSchedule(())
    with pytest.raises(ValueError):
        SpliceSchedule(((1, 2), (1,)))
    with pytest.raises(ValueError):
        SpliceSchedule(((0, 0),))
    with pytest.raises(ValueError):
        SpliceSchedule(((1, -1),))
    with pytest.raises(ValueError):
        splice([periodic([1])], SpliceSchedule(((1, 1),)))


def test_splice_schedule_refuses_lengths_that_are_not_integers():
    # int() used to truncate them, so ((1.5, 1),) ran as ((1, 1),)
    with pytest.raises(ValueError, match="block length 1.5 is not an integer"):
        SpliceSchedule(((1.5, 1),))
    assert SpliceSchedule(((np.int64(1), 1),)).rounds == ((1, 1),)


def test_interval_set_validation():
    with pytest.raises(ValueError):
        SeparatedIntervalSet([(3, 2)])
    with pytest.raises(ValueError):
        SeparatedIntervalSet([(1, 3), (4, 6)])  # adjacent, not separated
    with pytest.raises(ValueError):
        SeparatedIntervalSet.arithmetic(1, 3, 3)
    s = SeparatedIntervalSet.arithmetic(2, 5, 2)
    first = [tuple(iv) for _, iv in zip(range(3), s)]
    assert first == [(2, 3), (7, 8), (12, 13)]


def _contract_oracle(symbols, intervals):
    dead = set()
    for lo, hi in intervals:
        dead.update(range(lo, hi + 1))
    return [s for i, s in enumerate(symbols, start=1) if i not in dead]


def test_contract_explicit():
    w = periodic(list(range(10)))
    out = contract(w, SeparatedIntervalSet([(2, 3), (5, 7)]))
    assert _prefix(out, 8) == _contract_oracle(_prefix(w, 13), [(2, 3), (5, 7)])[:8]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_contract_matches_oracle(data):
    finite = data.draw(st.booleans())
    base = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=30 if finite else 5))
    w = from_finite(base) if finite else periodic(base)
    ivals = []
    pos = data.draw(st.integers(1, 4))
    for _ in range(data.draw(st.integers(0, 4))):
        width = data.draw(st.integers(1, 3))
        ivals.append((pos, pos + width - 1))
        pos += width + data.draw(st.integers(1, 3))
    if not ivals:
        with pytest.raises(ValueError):  # its label would end in "ivals=", which is no spec
            SeparatedIntervalSet(ivals)
        return
    out = contract(w, SeparatedIntervalSet(ivals))
    if finite:
        # the whole contracted word, which may be empty, and nothing after it
        kept = _contract_oracle(base, ivals)
        assert _prefix(out, len(kept)) == kept
        with pytest.raises(ValueError):
            out.prefix(len(kept) + 1)
    else:
        L = 30
        assert _prefix(out, L) == _contract_oracle(_prefix(w, 200), ivals)[:L]


def test_contract_arithmetic_rule():
    w = periodic([0, 1, 2, 3, 4])
    # drop [1,2], [6,7], [11,12], ...: every round loses the first two of five
    out = contract(w, SeparatedIntervalSet.arithmetic(1, 5, 2))
    assert _prefix(out, 9) == [2, 3, 4] * 3


def test_derived_words_leave_their_sources_unmaterialized(monkeypatch):
    made = []

    def recorded(family):
        def build(*args):
            made.append(family(*args))
            return made[-1]

        return build

    for name in ("enumeration_word", "nested_enum_word"):
        monkeypatch.setattr(generators, name, recorded(getattr(generators, name)))
    sources = [periodic([0, 1]), from_finite(range(50_000))]
    words = [
        constant_complexity_word(2),
        unbounded_gap_word(),
        splice(sources, SpliceSchedule(((3, 1),))),
        contract(sources[1], SeparatedIntervalSet.arithmetic(3, 7, 2)),
    ]
    for w in words:
        w.prefix_sums(30_000)
    assert len(made) == 2
    for src in made + sources:
        assert repr(src).endswith("materialized=0)")


def test_large_alphabets_are_refused_before_they_are_built():
    # one letter past the 2^20-letter guard: the families refuse before allocating
    with pytest.raises(GuardError):
        enumeration_word(2**20)  # letters 0..2^20
    with pytest.raises(GuardError):
        mirror_anchor(2**19)  # target letters 0..2^20
    with pytest.raises(GuardError):
        constant_complexity_word(2**19)
    with pytest.raises(GuardError):
        constant_tail_word(2**20 + 1)
