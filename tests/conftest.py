import pytest

from wordsums import Morphism, complexity, core, morphic_fixed_point


@pytest.fixture
def thue_morse():
    return morphic_fixed_point(Morphism({0: (0, 1), 1: (1, 0)}), 0)


@pytest.fixture
def fibonacci():
    return morphic_fixed_point(Morphism({0: (0, 1), 1: (0,)}), 0)


@pytest.fixture
def reduction_tiers(monkeypatch):
    """The tier of each later `core._reduce` call, the profile kernel's too, by its rule:
    "pieces" for a table of key pieces, "mask" when the box spans fewer values than 64 and
    than the keys' lanes have bits, "scan-mask" when the keys span fewer than 64, "table"
    when they span fewer values than there are keys, and "sort" otherwise."""
    tiers, reduce = [], core._reduce

    def spy(K, low, high):
        if K.ndim > 1:
            tiers.append("pieces")
        elif high - low < min(64, 8 * K.itemsize):
            tiers.append("mask")
        else:
            span = int(K.max()) - int(K.min())
            tiers.append("scan-mask" if span < 64 else "table" if span < len(K) else "sort")
        return reduce(K, low, high)

    monkeypatch.setattr(core, "_reduce", spy)
    monkeypatch.setattr(complexity, "_reduce", spy)
    return tiers
