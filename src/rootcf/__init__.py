"""rootcf: exact continued fractions of integer m-th roots, with a
Bombieri-van der Poorten decomposition analyzer and verification harness."""

from .exact import (
    AlphaEnclosure,
    InconsistentEnclosureError,
    IntervalZeroDivisionError,
    InvalidDegreeError,
    PerfectPowerError,
    PrecisionCeilingError,
    RadicandSpec,
    Rational,
    RationalInterval,
    WrongDegreeError,
    alpha_floor_scaled,
    alpha_interval,
    int_nth_root,
    sign_linear_in_alpha,
    validate_spec,
)
from .engine import (
    Convergent,
    Expansion,
    Side,
    ThetaEnclosure,
    complete_quotient_interval,
    convergent_step,
    expand,
    expand_exact_oracle,
    next_partial_quotient,
    theta_enclosure,
    verify_quotient,
)
from .bvp import (
    CellSummary,
    ClaimStats,
    PredictionOutcome,
    ScanReport,
    SkippedCell,
    TermCheck,
    TheoremReport,
    ViolationRecord,
    algebraic_distance,
    certified_unit_remainder,
    cubic_correction,
    exact_unit_remainder,
    general_correction,
    leading_term,
    predict_next,
    remainder,
    remainder_enclosure,
    scan,
    shifted_leading_term,
    verify_theorems,
)

__version__ = "0.1.0"
