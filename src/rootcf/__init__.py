"""rootcf: exact continued fractions of integer m-th roots, with a
Bombieri-van der Poorten decomposition analyzer and verification harness.

The routes the tests check the package against (interval arithmetic, an
exact-search expansion) live in tests/oracles.py.  The program never calls
`complete_quotient_interval`, `next_partial_quotient`, `general_correction`,
`cubic_correction` or `predict_next`; the benchmark's tracer wraps them.
"""

from .exact import (
    InconsistentEnclosureError,
    InvalidDegreeError,
    PerfectPowerError,
    PrecisionCeilingError,
    RadicandSpec,
    RationalInterval,
    WrongDegreeError,
    alpha_interval,
    int_nth_root,
    sign_linear_in_alpha,
    validate_spec,
)
from .engine import (
    Certificate,
    Convergent,
    Expansion,
    Side,
    certify,
    complete_quotient_interval,
    expand,
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
    scan,
    unit_threshold,
    verify_theorems,
)

__version__ = "0.1.0"
