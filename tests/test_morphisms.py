import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wordsums import (
    Alphabet,
    FiniteWord,
    GuardError,
    Morphism,
    WordStream,
    abelian_unbounding_morphism,
    anchor_matrix,
    anchor_spread_bound,
    apply_morphism,
    from_finite,
    is_anchor,
    mirror_anchor,
    morphic_fixed_point,
    non_anchor_witness,
    parikh,
    periodic,
    sum_spread,
    unbounding_stream,
    word_slope,
    word_sum,
)
from wordsums import core
from wordsums import complexity


def test_morphism_validation():
    with pytest.raises(ValueError):
        Morphism({})
    with pytest.raises(ValueError):
        Morphism({0: ()})
    with pytest.raises(ValueError):
        Morphism({0: (0, 5)}, target=Alphabet([0, 1]))
    phi = Morphism({0: (0, 2), 1: (1, 1)})
    assert phi.source.symbols == (0, 1)
    assert phi.target.symbols == (0, 1, 2)
    assert phi(FiniteWord([0, 1])).symbols == (0, 2, 1, 1)
    with pytest.raises(ValueError):
        phi.image(9)


def test_morphism_refuses_letters_and_images_that_are_not_integers():
    with pytest.raises(ValueError, match="not an integer"):
        Morphism({0: (0.5, 1)})  # kept the image (0, 1)
    with pytest.raises(ValueError, match="not an integer"):
        Morphism({0.5: (1,)})


@pytest.mark.parametrize("call, message", [
    (lambda: abelian_unbounding_morphism(periodic([0, 1]), 7),
     "prefix too short to estimate count growth"),
    # letters are looked up by value: 1.5 was read as letter 1
    (lambda: Morphism({0: (0, 1), 1: (1, 0)}).image(1.5), "letter 1.5 has no image"),
    (lambda: apply_morphism(Morphism({0: (0, 1), 1: (1, 0)}),
                            WordStream(lambda: iter([1.5, 0]))).prefix(2),
     "letter 1.5 has no image"),
], ids=["unbounding-guess-L-below-8", "image-of-1.5", "apply-to-a-1.5-letter"])
def test_refusals_name_their_cause(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_letters_equal_to_an_integer_find_its_image():
    phi = Morphism({0: (0, 1), 1: (1, 0)})
    assert phi.image(np.int64(1)) == phi.image(1.0) == FiniteWord([1, 0])


def test_apply_morphism_stream():
    phi = Morphism({0: (0, 2), 1: (1, 1)})
    img = apply_morphism(phi, periodic([0, 1]))
    assert [int(x) for x in img.prefix(8)] == [0, 2, 1, 1, 0, 2, 1, 1]


def test_apply_morphism_finite_source():
    phi = Morphism({0: (0, 2), 1: (1, 1)})
    img = apply_morphism(phi, from_finite([0, 1, 1]))
    assert [int(x) for x in img.prefix(6)] == [0, 2, 1, 1, 1, 1]
    with pytest.raises(ValueError):
        img.prefix(7)


@st.composite
def _images_of(draw):
    """A morphism on 2-4 letters with images of 1-3 symbols, and a finite word over them."""
    letters = draw(st.lists(st.integers(-5, 9), min_size=2, max_size=4, unique=True))
    symbol = st.integers(-(2**40), 2**40) | st.sampled_from(letters)
    images = {a: tuple(draw(st.lists(symbol, min_size=1, max_size=3))) for a in letters}
    return images, draw(st.lists(st.sampled_from(letters), min_size=1, max_size=300))


@settings(max_examples=100, deadline=None)
@given(_images_of(), st.lists(st.tuples(st.integers(1, 900), st.booleans()), max_size=4),
       st.sampled_from([3, 8192]))
def test_apply_morphism_matches_the_finite_image(case, reads, chunk):
    images, xs = case
    phi = Morphism(images)
    want = list(phi(FiniteWord(xs)).symbols)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_CHUNK", chunk)
        img = apply_morphism(phi, from_finite(xs))
        for L, drop in reads:
            L = min(L, len(want))
            assert img.prefix(L).tolist() == want[:L]
            if drop:  # as a failed fill does: a fresh reader skips the held symbols
                img._read = None
        assert img.prefix(len(want)).tolist() == want
        with pytest.raises(ValueError, match=f"ends at length {len(want)};"):
            img.prefix(len(want) + 1)


def test_apply_morphism_foreign_symbol_fails_late():
    phi = Morphism({0: (0,)})
    img = apply_morphism(phi, periodic([0, 7]))  # constructing is fine
    with pytest.raises(ValueError):
        img.prefix(4)


def test_anchor_detection():
    rep = is_anchor(Morphism({0: (0, 2), 1: (1, 1)}))
    assert rep.is_anchor and rep.weight == 1 and rep.witness is None
    rep2 = is_anchor(Morphism({0: (0,), 1: (1, 1)}))
    assert not rep2.is_anchor and rep2.weight is None
    b1, b2 = rep2.witness
    assert b1.symbols == (0, 0) and b2.symbols == (1,)


def test_mirror_anchor_weights():
    for k in range(1, 11):
        rep = is_anchor(mirror_anchor(k))
        assert rep.is_anchor
        assert rep.weight == Fraction(k)


def test_anchor_matrix_identity():
    phi = mirror_anchor(2)
    M, t_alpha = anchor_matrix(phi)
    assert M.tolist() == [[1, 0, 0, 0, 1], [0, 1, 0, 1, 0], [0, 0, 2, 0, 0]]
    ta = t_alpha(2)
    assert ta == [-2, -1, 0, 1, 2]
    prods = [sum(int(M[i, j]) * ta[j] for j in range(M.shape[1])) for i in range(M.shape[0])]
    assert prods == [0, 0, 0]
    # a wrong alpha does not annihilate
    tb = t_alpha(1)
    assert any(sum(int(M[i, j]) * tb[j] for j in range(M.shape[1])) != 0 for i in range(M.shape[0]))


def test_an_image_symbol_outside_the_given_target_is_refused():
    # the smallest such symbol is named, whatever order the images list them in
    with pytest.raises(ValueError, match="^image symbol 5 outside target alphabet$"):
        Morphism({0: (7, 0), 1: (5,)}, target=Alphabet([0, 1]))
    assert Morphism({0: (1, 0)}, target=Alphabet([0, 1, 2])).target.symbols == (0, 1, 2)


def test_letters_past_int64_that_no_word_holds():
    # the source alphabet holds 2**70 as an object, but the fixed point never emits it
    tm = morphic_fixed_point(Morphism({0: (0, 1), 1: (1, 0), 2**70: (0,)}), 0)
    assert tm.prefix(8).tolist() == [0, 1, 1, 0, 1, 0, 0, 1]
    # the anchor matrix ranks image letters of the table, not of the int64 gather table
    assert anchor_matrix(Morphism({0: (2**70, 1)}))[0].tolist() == [[1, 1]]


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.integers(-5, 5),
                       st.lists(st.integers(-3, 3), min_size=1, max_size=4),
                       min_size=1, max_size=6))
def test_anchor_matrix_rows_are_parikh_vectors(images):
    phi = Morphism(images)
    M, _ = anchor_matrix(phi)
    assert M.shape == (len(phi.source), len(phi.target))
    assert [tuple(row) for row in M.tolist()] == [parikh(phi.image(s), phi.target)
                                                   for s in phi.source]


@pytest.mark.parametrize("phi", [mirror_anchor(3), Morphism({0: (0, 0, 1), 5: (-2, 1)})],
                         ids=["mirror-anchor-3", "repeated-symbols"])
def test_anchor_matrix_guard_at_its_edge(monkeypatch, phi):
    # a 2^18-letter mirror anchor, inside the 2^20-letter guard, once asked for a 1 TB matrix
    cells = len(phi.source) * len(phi.target)
    monkeypatch.setattr(complexity, "_WINDOW_BYTES_LIMIT", 8 * cells)
    assert is_anchor(phi).matrix.size == cells
    monkeypatch.setattr(complexity, "_WINDOW_BYTES_LIMIT", 8 * cells - 1)
    with pytest.raises(GuardError, match="anchor matrix exceeds the memory guard"):
        is_anchor(phi)


def test_witness_blocks_have_equal_image_length():
    phi = Morphism({0: (0, 1, 1), 1: (1, 1)})
    b1, b2 = non_anchor_witness(phi)
    assert len(phi(b1)) == len(phi(b2))
    assert word_sum(phi(b1)) != word_sum(phi(b2))
    with pytest.raises(ValueError):
        non_anchor_witness(mirror_anchor(1))


def test_unbounding_stream_layout():
    phi = Morphism({0: (0,), 1: (1, 1)})
    w = unbounding_stream(phi)
    # B1 = 00, B2 = 1: 00 1 0000 11 000000 111 ...
    assert [int(x) for x in w.prefix(12)] == [0, 0, 1, 0, 0, 0, 0, 1, 1, 0, 0, 0]


def test_unbounding_image_spread_grows():
    phi = Morphism({0: (0,), 1: (1, 1)})
    img = apply_morphism(phi, unbounding_stream(phi))
    spreads = []
    for L in (1000, 10000, 100000):
        best = 0
        n = 1
        while n <= L:
            best = max(best, sum_spread(img, n, L))
            n *= 2
        spreads.append(best)
    assert spreads[0] < spreads[1] < spreads[2]


def _random_anchor(rng):
    # equal image slopes by construction: images are shuffles of c copies
    # of a base block, so every image has the base block's slope
    base = [rng.randint(-2, 3) for _ in range(rng.randint(1, 3))]
    images = {}
    for s in range(rng.randint(2, 4)):
        reps = rng.randint(1, 3)
        img = base * reps
        rng.shuffle(img)
        images[s] = tuple(img)
    return Morphism(images)


def test_anchor_image_spread_bounded():
    rng = random.Random(7)
    src = periodic([0, 1])
    for _ in range(20):
        phi = _random_anchor(rng)
        rep = is_anchor(phi)
        assert rep.is_anchor
        img = apply_morphism(phi, src)
        bound = anchor_spread_bound(phi)
        for n in (1, 3, 10, 50, 200):
            assert sum_spread(img, n, 5000) <= bound


def test_abelian_unbounding_choice():
    # runs of 1s grow linearly while 0/2 stay interleaved: pick letter 1
    phi = Morphism({1: (1, 1), 0: (0, 2)})
    w = apply_morphism(phi, unbounding_stream(Morphism({0: (0,), 1: (1, 1)})))
    guess = abelian_unbounding_morphism(w, 20000)
    assert guess.image(1).symbols == (2,)
    assert guess.image(0).symbols == (0,)
    assert guess.image(2).symbols == (2,)


def test_abelian_unbounding_is_advisory_on_balanced_words():
    guess = abelian_unbounding_morphism(periodic([0, 1]), 5000)
    # some letter is returned incremented; the caller checks the image
    assert sorted(guess.images) == [0, 1]
    moved = [s for s, img in guess.images.items() if img.symbols != (s,)]
    assert len(moved) == 1
    assert guess.image(moved[0]).symbols == (moved[0] + 1,)


def _reference_unbounding_letter(xs):
    """The letter the per-letter loop picks: spreads at four checkpoints,
    Fraction growth from the first to the last, ties to the smallest."""
    L, prefix = len(xs), np.array(xs, dtype=np.int64)
    checkpoints = sorted({max(1, L // 256), max(2, L // 64), max(3, L // 16), max(4, L // 4)})
    best = None
    for s in np.unique(prefix).tolist():
        occ = np.concatenate([[0], np.cumsum(prefix == s)])
        spreads = []
        for n in checkpoints:
            win = occ[n:] - occ[:-n]
            spreads.append(int(win.max() - win.min()))
        growth = Fraction(spreads[-1] - spreads[0], checkpoints[-1] - checkpoints[0])
        if best is None or (growth, -s) > (best[0], -best[1]):
            best = (growth, s)
    return best[1]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 60)), min_size=1, max_size=40),
    st.data(),
)
def test_abelian_unbounding_matches_per_letter_reference(runs, data):
    # runs of one letter make the letters' growths differ; binary words tie
    xs = [s for s, r in runs for _ in range(r)]
    if len(xs) < 8:
        xs += [0] * 8
    L = data.draw(st.integers(8, len(xs)))
    guess = abelian_unbounding_morphism(from_finite(xs), L)
    s = _reference_unbounding_letter(xs[:L])
    assert guess.images == {t: FiniteWord([t + (t == s)]) for t in sorted(set(xs[:L]))}


def test_morphism_repr_roundtrip():
    phi = Morphism({0: (0, 2), 1: (1, 1)})
    assert repr(phi) == "0=0,2;1=1,1"
