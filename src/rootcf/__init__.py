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
    complete_quotient_interval,
    convergent_step,
    expand,
    expand_exact_oracle,
    next_partial_quotient,
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
    cubic_correction,
    exact_unit_remainder,
    general_correction,
    leading_terms,
    predict_next,
    prediction,
    remainder,
    scan,
    verify_theorems,
)

__version__ = "0.1.0"
