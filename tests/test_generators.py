import gc
import hashlib
import itertools
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
    unbounding_stream,
)
from wordsums import core, generators


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


@pytest.mark.parametrize("call, message", [
    (lambda: enumeration_word(-1), "alphabet bound k must be >= 0"),
    (lambda: mirror_anchor(-1), "weight k must be >= 0"),
], ids=["enumeration-word", "mirror-anchor"])
def test_negative_family_parameters_are_refused(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


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


@st.composite
def _slopes(draw, top=5, size=5):
    cf = draw(st.lists(st.integers(1, top), min_size=1, max_size=size))
    return cf, draw(st.none() | st.integers(1, len(cf)))


@settings(max_examples=60, deadline=None)
@given(_slopes())
def test_mechanical_words_are_balanced(slope):
    # whatever builds them, equal-length windows differ by at most one 1
    cf, repeat = slope
    alpha = cf_value(cf)
    q = alpha.denominator
    L = 2000 if repeat is not None else max(2000, 3 * q)
    P = mechanical(cf, repeat).prefix_sums(L)
    for n in range(1, 41):
        sums = P[n:] - P[:-n]
        assert np.unique(sums).size <= 2 and np.ptp(sums) <= 1, n
    if repeat is None:  # slope p/q: each period holds p ones
        m = np.arange(L // q + 1)
        assert P[m * q].tolist() == (m * alpha.numerator).tolist()


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


@pytest.mark.parametrize(
    "cf, repeat, L",
    [
        ([1000, 1000], None, 10),  # q = 1,000,001
        ([2, 3000], 1, 6010),  # s_3 has 18 million symbols
        ([10**6], 1, 10),  # s_1 has a million symbols
    ],
)
def test_mechanical_words_are_generated_as_they_are_read(cf, repeat, L):
    # neither a long rational period nor a long standard word is built ahead of the reader
    gc.collect()
    tracemalloc.start()
    try:
        prefix = mechanical(cf, repeat).prefix(L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert prefix.tolist() == _eager_mechanical(cf, repeat, L)


def _eager_mechanical(cf, repeat, L):
    """The first L symbols of mechanical(cf, repeat), each standard word built before it is read."""
    if repeat is None:
        p, q = cf_value(cf).as_integer_ratio()
        return [(p * i) // q - (p * (i - 1)) // q for i in range(1, L + 1)]
    coefficients = itertools.chain(cf, itertools.cycle(cf[len(cf) - repeat :]))
    prev, cur, d = (1,), (0,), next(coefficients) - 1  # s_{-1}, s_0, d_1
    while len(cur) < L:  # s_n for n >= 1 is a prefix of every later one
        # only as many copies of s_{n-1} as reach past symbol L: a capped step is the last
        prev, cur, d = cur, cur * min(d, L // len(cur) + 1) + prev, next(coefficients)
    return [0, *cur[: L - 1]]


@settings(max_examples=100, deadline=None)
@given(_slopes(top=6, size=6))
def test_mechanical_matches_the_eager_standard_words(slope):
    cf, repeat = slope
    assert _prefix(mechanical(cf, repeat), 3000) == _eager_mechanical(cf, repeat, 3000)


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


@settings(max_examples=120, deadline=None)
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
    if data.draw(st.booleans()):  # or an arithmetic set, whose 200th interval starts past 200
        start, width = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 3))
        period = data.draw(st.integers(width + 1, 8))
        intervals = SeparatedIntervalSet.arithmetic(start, period, width)
        ivals = list(itertools.islice(intervals, 200))
        assert ivals == [(start + j * period, start + j * period + width - 1) for j in range(200)]
    elif not ivals:
        with pytest.raises(ValueError):  # its label would end in "ivals=", which is no spec
            SeparatedIntervalSet(ivals)
        return
    else:
        intervals = SeparatedIntervalSet(ivals)
    out = contract(w, intervals)
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


_TM = {0: (0, 1), 1: (1, 0)}
_CCSS = {0: (0, 3), 1: (4, 3), 3: (1,), 4: (0, 1)}
_DEKKING3 = {0: (0, 0, 1, 2), 1: (1, 1, 2), 2: (0, 2, 2)}


@pytest.mark.parametrize("build, digest", [
    (lambda: morphic_fixed_point(Morphism(_TM), 0),
     "76774cbe6999ba059b78aed4f08bd19be472d7619a423d3158533b12aa5ae2bd"),
    (lambda: morphic_fixed_point(Morphism(_CCSS), 0),
     "d05ec55ee274af1961ebf9dc947981abce469466df38105a637a2100e6de3607"),
    (lambda: morphic_fixed_point(Morphism(_DEKKING3), 0),
     "9d61d104999e9a5153d50114847a236603d92593fc7c4d547de2bb2e0c60f252"),
    (lambda: morphic_fixed_point(Morphism({0: (0, 1), 1: (1,)}), 0),
     "cdb18aaa252fbb4577581519b504e4daed28088dcb935b689247b9d73264f570"),
    (lambda: enumeration_word(2),
     "572b5c2916562d0c538fc04ab754fc64f80aa38302bd06cff1434d4edbafc283"),
    (lambda: constant_complexity_word(2),
     "8a1b108927f31f849b939c7dd3bd91a19f412a4d66b218967d926b4a66e7a9ec"),
    (unbounded_gap_word,
     "07ab9eb3e71d18d825e184d992cca5b1c77552877a1a30804d28c02eedaa67db"),
    (lambda: constant_tail_word(5),
     "b9abdbc92e06179073d7d7ee7acf2d4ced46564bbd0f9588cd7be42e1ec4c3b8"),
    (nested_enum_word,
     "8b821ce822ada9db1ac10dba4f7ebbcb5bca1743dc3e35c060caf3a6f6180375"),
    (lambda: unbounding_stream(Morphism({0: (0, 1), 1: (1, 1)})),
     "02c60a23d83d337b96e76f64ede4c9ba893858f608257f6eaaed25dabccfbb80"),
    (lambda: splice([constant_complexity_word(1), periodic([1, 1])], SpliceSchedule(((1, 1),))),
     "ab3bdb926903e27eb3558e48514c67b0c2678103f6abd29fe545d767993a4638"),
    (lambda: contract(constant_complexity_word(1), SeparatedIntervalSet.arithmetic(5, 9, 3)),
     "f14f8e21fb793c530af490953bfe2307e30f97e2836f0a3c55ba84896ea20ee1"),
])
def test_long_prefixes_are_frozen(build, digest):
    # 2e5 symbols cross several 2^16-symbol fill chunks, which the short frozen
    # prefixes above never reach
    assert hashlib.sha256(build().prefix(2 * 10**5).tobytes()).hexdigest() == digest


def _splice_reference(sources, rounds):
    """Plain-list splice: rounds repeat until a source runs short inside its block."""
    readers = [iter(src) for src in sources]
    out = []
    for row in itertools.cycle(rounds):
        for reader, ln in zip(readers, row):
            block = list(itertools.islice(reader, ln))
            out += block
            if len(block) < ln:
                return out


@st.composite
def _splices(draw):
    width = draw(st.integers(1, 3))
    # True: a finite word; False: a period
    kinds = draw(st.lists(st.booleans(), min_size=width, max_size=width))
    lists = [draw(st.lists(st.integers(-3, 3), min_size=1, max_size=8)) for _ in kinds]
    rounds = draw(st.lists(st.lists(st.integers(0, 3), min_size=width, max_size=width),
                           min_size=1, max_size=3).filter(lambda rs: any(map(any, rs))))
    return kinds, lists, rounds


@settings(max_examples=100, deadline=None)
@given(_splices())
def test_splice_matches_a_plain_list_splice(case):
    kinds, lists, rounds = case
    sp = splice([from_finite(xs) if finite else periodic(xs) for finite, xs in zip(kinds, lists)],
                SpliceSchedule(rounds))
    # a period of at most 8 symbols spelled out to 1000 outlasts any finite source here
    want = _splice_reference([xs if finite else xs * 1000 for finite, xs in zip(kinds, lists)],
                             rounds)
    # the splice is finite exactly when some finite source is read
    if any(finite and any(row[i] for row in rounds) for i, finite in enumerate(kinds)):
        assert _prefix(sp, len(want)) == want
        for _ in range(2):
            with pytest.raises(ValueError, match=f"ends at length {len(want)};"):
                sp.prefix(len(want) + 1)
    else:
        assert _prefix(sp, 60) == want[:60]


def test_fixed_point_of_a_linearly_growing_morphism():
    w = morphic_fixed_point(Morphism({0: (0, 1), 1: (1,)}), 0)
    assert _prefix(w, 2 * 10**5) == [0] + [1] * (2 * 10**5 - 1)


def test_fixed_points_hold_their_lag_not_the_word():
    # phi(0) = 01, phi(1) = 1: the letter read lags the symbol written by one,
    # so a cold 1e6 fill holds little beyond its 8e6-byte prefix sums
    w = morphic_fixed_point(Morphism({0: (0, 1), 1: (1,)}), 0)
    gc.collect()
    tracemalloc.start()
    try:
        w.prefix_sums(10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * 10**6


def _naive_fixed_point(images, seed, N):
    """The first N symbols of phi^n(seed), n = 2^j >= N, on FiniteWords: psi = phi^(2^j) by
    squaring, its images cut to N symbols (each image is nonempty, so the cut is exact)."""
    psi = Morphism(images)
    for _ in range(N.bit_length()):
        psi = Morphism({a: tuple(itertools.islice(psi.expand(psi.image(a)), N)) for a in images})
    return list(psi.image(seed).symbols[:N])


@st.composite
def _prolongable(draw):
    """2-4 letters with images of 1-3 of them, prolongable at the first; a letter whose
    iterated images keep length 1 is bounded, and such letters come up often."""
    letters = draw(st.lists(st.integers(-5, 9), min_size=2, max_size=4, unique=True))
    letter = st.sampled_from(letters)
    images = {a: tuple(draw(st.lists(letter, min_size=1, max_size=3))) for a in letters}
    images[letters[0]] = (letters[0], *draw(st.lists(letter, min_size=1, max_size=2)))
    return images, letters[0]


_reads = st.lists(st.tuples(st.integers(1, 5000), st.booleans()), max_size=4)


@settings(max_examples=60, deadline=None)
@given(_prolongable(), _reads, st.sampled_from([3, 8192]))
# bounded lags that phi permutes: each doubled block needs the squared letter table
@example(({0: (0, 1, 2), 1: (2,), 2: (1,)}, 0), [(40, True)], 3)
@example(({5: (5, 1), 1: (2,), 2: (-3,), -3: (1,)}, 5), [], 8192)
def test_fixed_points_match_a_naive_iteration(case, reads, chunk):
    images, seed = case
    want = _naive_fixed_point(images, seed, 5000)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_CHUNK", chunk)  # 3: demands below the lag and the doubling block
        w = morphic_fixed_point(Morphism(images), seed)
        for L, drop in reads:
            assert _prefix(w, L) == want[:L]
            if drop:  # as a failed fill does: a fresh reader skips the held symbols
                w._read = None
        assert _prefix(w, 5000) == want


def _chunks_pulled(w, L):
    """How many chunks a cold fill of w(1..L) takes from its reader."""
    pulled, chunks = [0], w._chunks

    def counted():
        read = chunks()
        return lambda want: pulled.__setitem__(0, pulled[0] + 1) or read(want)

    w._chunks = counted
    w.prefix_sums(L)
    return pulled[0]


@pytest.mark.parametrize("images", [
    {0: (0, 1), 1: (1, 0)},
    {0: (0, 3), 1: (4, 3), 3: (1,), 4: (0, 1)},
    {0: (0, 1), 1: (1,)},
    {0: (0, 1, 2), 1: (2,), 2: (1,)},
], ids=["thue-morse", "ccss", "0-01-1-1", "bounded-swap"])
def test_fixed_point_fill_takes_logarithmically_many_chunks(images):
    # 2^15 letters a step once the lag is that long; a bounded lag doubles its block
    L = 10**6
    assert _chunks_pulled(morphic_fixed_point(Morphism(images), 0), L) <= (
        2 * math.log2(L) + L / 2**15)


def test_a_slowly_lagging_fixed_point_takes_square_root_many_chunks():
    # 0 -> 01, 1 -> 12, 2 -> 2: the lag grows like sqrt(2t) and never becomes bounded
    L = 10**6
    w = morphic_fixed_point(Morphism({0: (0, 1), 1: (1, 2), 2: (2,)}), 0)
    assert _chunks_pulled(w, L) <= 2 * math.sqrt(L)
    ones = np.flatnonzero(w.prefix(L) == 1)
    assert np.array_equal(ones[:5], [1, 2, 4, 7, 11])  # 0 1 12 122 1222 ...


def test_a_refused_fixed_point_resumes_where_it_stopped():
    # Thue-Morse over {0, s}: the guard refuses 10^5 symbols but keeps the chunks it took
    # (2^15 symbols); a fresh reader skips them and goes on
    s = 2**62 // 50_000
    w = morphic_fixed_point(Morphism({0: (0, s), s: (s, 0)}), 0)
    with pytest.raises(GuardError):
        w.prefix(100_000)
    assert 0 < w._n < 40_000
    tm = _prefix(morphic_fixed_point(Morphism(_TM), 0), 40_000)
    assert _prefix(w, 40_000) == [s * x for x in tm]
