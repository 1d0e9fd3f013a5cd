"""Sum-based complexity of infinite words.

Generators for periodic, morphic, mechanical and enumeration-based
words; additive, abelian and lattice complexity profiles; slope
deviation constants and the chi coloring; the equal-image-slope test
for morphisms; and searches for additive powers.

`import wordsums` loads neither numpy nor any submodule.  Each exported
name is looked up in _EXPORTS, and its submodule is imported the first
time the name is read; `from wordsums import *` reads them all.
"""

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "core": (
        "Alphabet", "FiniteWord", "GuardError", "Interval", "WordStream", "count_symbol",
        "factor", "from_finite", "word_slope", "word_sum",
    ),
    "generators": (
        "SeparatedIntervalSet", "SpliceSchedule", "cf_value", "constant_complexity_word",
        "constant_tail_word", "contract", "enumeration_word", "mechanical", "mirror_anchor",
        "morphic_fixed_point", "nested_enum_word", "periodic", "splice", "unbounded_gap_word",
    ),
    "complexity": (
        "ComplexityProfile", "LatticeMap", "ProfileRow", "abelian_complexity",
        "additive_complexity", "factor_set_intersection", "lattice_complexity",
        "lattice_spread", "naive_complexity_oracle", "parikh", "profile", "sum_spread",
        "window_images", "window_sums",
    ),
    "slopes": (
        "DeviationStats", "GreedyCuts", "SlopeFactorization", "block_slope", "chi",
        "chi_factorization", "chi_sequence", "deviation_constant", "factors_with_slope",
        "greedy_slope_cuts", "slope_estimate",
    ),
    "morphisms": (
        "AnchorReport", "Morphism", "abelian_unbounding_morphism", "anchor_matrix",
        "anchor_spread_bound", "apply_morphism", "is_anchor", "non_anchor_witness",
        "unbounding_stream",
    ),
    "powers": (
        "PowerWitness", "find_additive_kpower", "find_anchored_power", "find_kpower_mod_mu",
        "monochromatic_ap", "verify_power",
    ),
}
_SOURCE = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_SOURCE])


def __getattr__(name: str):
    from importlib import import_module  # imported here so the package exports no extra name

    if name in _EXPORTS:  # the import binds the submodule in this module's globals
        return import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value  # later reads skip __getattr__
    return value


def __dir__():
    return sorted({*globals(), *__all__})
