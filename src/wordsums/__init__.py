"""Sum-based complexity of infinite words.

Generators for periodic, morphic, mechanical and enumeration-based
words; additive, abelian and lattice complexity profiles; slope
deviation constants and the chi coloring; the equal-image-slope test
for morphisms; and searches for additive powers.
"""

from .core import (
    Alphabet,
    FiniteWord,
    GuardError,
    Interval,
    WordStream,
    count_symbol,
    factor,
    from_finite,
    word_slope,
    word_sum,
)
from .generators import (
    SeparatedIntervalSet,
    SpliceSchedule,
    cf_value,
    constant_complexity_word,
    constant_tail_word,
    contract,
    enumeration_word,
    mechanical,
    mirror_anchor,
    morphic_fixed_point,
    nested_enum_word,
    periodic,
    splice,
    unbounded_gap_word,
)
from .complexity import (
    ComplexityProfile,
    LatticeMap,
    ProfileRow,
    abelian_complexity,
    additive_complexity,
    factor_set_intersection,
    lattice_complexity,
    lattice_spread,
    naive_complexity_oracle,
    parikh,
    profile,
    sum_spread,
    window_images,
    window_sums,
)
from .slopes import (
    DeviationStats,
    GreedyCuts,
    SlopeFactorization,
    block_slope,
    chi,
    chi_factorization,
    chi_sequence,
    deviation_constant,
    factors_with_slope,
    greedy_slope_cuts,
    slope_estimate,
)
from .morphisms import (
    AnchorReport,
    Morphism,
    abelian_unbounding_morphism,
    anchor_matrix,
    anchor_spread_bound,
    apply_morphism,
    is_anchor,
    non_anchor_witness,
    unbounding_stream,
)
from .powers import (
    PowerWitness,
    find_additive_kpower,
    find_anchored_power,
    find_kpower_mod_mu,
    monochromatic_ap,
    verify_power,
)

__version__ = "0.1.0"
