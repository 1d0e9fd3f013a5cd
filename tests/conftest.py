import pytest

from wordsums import Morphism, core, morphic_fixed_point


@pytest.fixture
def thue_morse():
    return morphic_fixed_point(Morphism({0: (0, 1), 1: (1, 0)}), 0)


@pytest.fixture
def fibonacci():
    return morphic_fixed_point(Morphism({0: (0, 1), 1: (0,)}), 0)


@pytest.fixture
def reduction_tiers(monkeypatch):
    """The tier of each later `core._reduce` call, by its rule: "pieces" for a table of key
    pieces, "mask" when the box spans fewer than 64 values, "scan-mask" when the keys do,
    "table" when they span fewer values than there are keys, and "sort" otherwise."""
    tiers, reduce = [], core._reduce

    def spy(K, low, high):
        if K.ndim > 1:
            tiers.append("pieces")
        elif high - (0 if 0 <= low and high < 64 else low) < 64:
            tiers.append("mask")
        else:
            span = int(K.max()) - int(K.min())
            tiers.append("scan-mask" if span < 64 else "table" if span < len(K) else "sort")
        return reduce(K, low, high)

    monkeypatch.setattr(core, "_reduce", spy)
    return tiers
