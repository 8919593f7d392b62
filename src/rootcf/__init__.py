"""rootcf: exact continued fractions of integer m-th roots, with a
Bombieri-van der Poorten decomposition analyzer and verification harness.

A certified expansion is one record, `Expansion`: the partial quotients
`expand` proves and the bits it needed.  It stores no convergent;
`Expansion.convergents()` walks p_n/q_n from the quotients.

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
    Convergent,
    Expansion,
    Side,
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
    term_checks,
    unit_threshold,
    verify_theorems,
)

__version__ = "0.1.0"
