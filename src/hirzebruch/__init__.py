"""Exact decision procedures for moduli of sheaves on Hirzebruch surfaces.

Everything is exact big-rational arithmetic; no floats anywhere.
"""

from .lattice import (
    CH_O,
    ChernCharacter,
    DivisorClass,
    E,
    F,
    IntegralityError,
    canonical_divisor,
    character,
    dual,
    euler_char,
    euler_pair,
    format_rational,
    from_rank_slope_disc,
    hilbert_P,
    intersect,
    line_bundle,
    mu,
    parse_rational,
    polarization_divisor,
    reduced_hilbert_key,
    serre_dual,
    twist,
)
from .prioritary import (
    BogomolovViolation,
    GaetaExponents,
    PrioritaryReport,
    delta_p,
    gaeta_character,
    gaeta_exponents,
    general_cohomology,
    generic_prioritary_index,
    l0_and_psi,
    prioritary_nonempty,
    prioritary_report,
)
from .exceptional import (
    CacheError,
    ExceptionalRecord,
    ExceptionalTable,
    build_table,
    exceptional_character,
    is_exceptional,
    load_table,
    potential_characters,
    save_table,
    stability_interval,
)
from .dlp import DlpValue, dlp_below_rank, dlp_grid, dlp_line_bundles, dlp_single
from .existence import (
    BOGOMOLOV_VIOLATION,
    EMPTY,
    NO_PRIORITARY,
    NONEMPTY,
    DecisionCertificate,
    DeltaBracket,
    HNDecomposition,
    InternalError,
    clear_cache,
    delta_estimate,
    exists_above,
    hn_generic,
    is_wall,
    moduli_nonempty,
    validate_hn,
    verdict,
)
from .kronecker import (
    KroneckerDomainError,
    KroneckerParams,
    TriangleR,
    delta_closed_form,
    kronecker_characters,
    params_for_slope,
    wall_crossing_epsilon,
    wall_m_l,
    wall_m_v,
)
from .reduction import ReductionTrace, interval_transport, pi_map, reduce_character, reduce_decision

__all__ = [name for name in dir() if not name.startswith("_")]
