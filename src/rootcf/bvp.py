"""Bombieri-van der Poorten decomposition of complete quotients.

For each convergent p_n/q_n of alpha = k**(1/m) the complete quotient
splits as theta_n = H_n + R_n with the leading term

    H_n = m * p_n**(m-1) / (d_n * q_n),      d_n = |p_n**m - k*q_n**m|,

and the remainder R_n = W_n - q_{n-1}/q_n, where W_n is the linearization
error of the m-th power difference.  This module computes all of these
exactly (rationals) or as certified enclosures (alpha-dependent reals,
from the integers (S, S+1, 2**bits) of alpha's enclosure), and measures
every claimed bound, recording violations it can certify.  Each index
is worked once, on integers, by the one walk `verify` and `predict`
share (`index_walk`): `leading_terms` gives d_n, H_n and
A_n = H_n - q_{n-1}/q_n over one denominator, and `prediction` reads the
floor formula against the b_{n+1} that `expand` certified.  Each index's
verdicts are decided once, by `_verdicts` over that walk: |R_n| < 1 is
proven at q_n >= Q(k, m) (`unit_threshold`) and decided by exact signs
below it (`exact_unit_remainder`).  Each measured claim is one row of
`MEASURED_CLAIMS`.  `verify_theorems` tallies the verdicts and holds no
per-index record; `term_checks` reads them again to build each index's
`TermCheck`, its theta_n and R_n enclosures included, as a report writes
it, so a run never holds them all.  An enclosure decides nothing: R_n's
(`_analyze_term`) only shows the exact |R_n| < 1 verdict, and raises if
it contradicts it.  `predict_next`, `general_correction` and
`cubic_correction` stay public for the benchmark's tracer only.

Sign conventions: W_n carries the sign of alpha - x_n.  For cubics the
classical correction V_n = (q_n/d_n)(2x_n**2 - x_n*alpha - alpha**2)
satisfies V_n = -W_n and sgn(V_n) = sgn(x_n - alpha).
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator

from .exact import (
    DEFAULT_MAX_BITS,
    InconsistentEnclosureError,
    PrecisionCeilingError,
    RadicandSpec,
    RationalInterval,
    WrongDegreeError,
    _less,
    alpha_interval,
    fraction_string,
    refine,
    sign_linear_in_alpha,
    validate_spec,
)
from .engine import (
    Convergent,
    Expansion,
    Side,
    _prev_pq,
    _theta_corners,
    _theta_exceeds,
    expand,
    next_partial_quotient,
    verify_quotient,
)

# Violation kinds.
REMAINDER_BOUND = "remainder_bound"
WINDOW_ABOVE = "window_above"
WINDOW_BELOW = "window_below"
EPSILON_RANGE = "epsilon_range"

CLAIM_ABOVE_WINDOW = "above side: H_n - 2 < b_{n+1} <= H_n"
# Least q_n at which a stated bound is measured; q_0 = 1 sits outside them all.
Q_MIN = 2
CLAIM_REMAINDER = f"|R_n| < 1 for q_n >= {Q_MIN}"


def algebraic_distance(spec: RadicandSpec, conv: Convergent) -> int:
    """d_n = |p_n**m - k*q_n**m|, exact and strictly positive."""
    return abs(conv.p ** spec.m - spec.k * conv.q ** spec.m)


def leading_terms(
    spec: RadicandSpec, conv: Convergent, prev: Convergent | None
) -> tuple[int, int, int, int]:
    """(d_n, hn, hd, an): H_n = hn/hd and A_n = an/hd, unreduced, hd > 0.

    H_n = m*p_n**(m-1)/(d_n*q_n) is the leading term of theta_n, and
    A_n = H_n - q_{n-1}/q_n the quantity whose floor predicts b_{n+1}.
    """
    d = algebraic_distance(spec, conv)
    hn = spec.m * conv.p ** (spec.m - 1)
    return d, hn, d * conv.q, hn - _prev_pq(prev)[1] * d


def unit_threshold(spec: RadicandSpec, bits: int) -> int:
    """Q(k, m): the least Q >= Q_MIN with C(Q) <= Q, so |R_n| < 1 wherever q_n >= Q.

    |W_n| = c_n/q_n**2 with c_n = G(alpha, x_n)/S(x_n), S the m monomials
    of degree m-1 and G the m(m-1)/2 of degree m-2 in (alpha, x_n)
    (Bombieri & van der Poorten 1995).  |R_n| < 1 needs c_n < q_n**2
    below alpha (W_n > 0) and c_n < q_n(q_n - q_{n-1}) above (W_n < 0),
    so c_n < q_n suffices once q_n >= 2.  |x_n - alpha| < 1/q_n**2
    (Khinchin) gives c_n < C(Q) = ((m-1)/2)(a_hi + Q**-2)**(m-2) /
    (a_lo - Q**-2)**(m-1) for q_n >= Q, [a_lo, a_hi] = [lo, hi]/den
    alpha's enclosure at bits; C falls as Q grows, so c_n < C(Q) <= Q <= q_n.
    """
    m = spec.m
    lo, hi, den = alpha_interval(spec, bits)
    q = Q_MIN
    # C(Q) <= Q over [lo, hi]/den, times 2 (den Q**2)**(m-1)/Q > 0; lo >= den.
    while (m - 1) * den * q * (hi * q * q + den) ** (m - 2) > 2 * (lo * q * q - den) ** (m - 1):
        q += 1
    return q


def _power_sum(u: int, v: int, m: int) -> int:
    """sum_{j<m} u**(m-1-j) * v**j, by Horner's rule in u."""
    total = vj = 1
    for _ in range(m - 1):
        vj *= v
        total = total * u + vj
    return total


def _correction_ends(
    m: int, conv: Convergent, d: int, c: int, a: int, b: int, den: int
) -> list[tuple[int, int]]:
    """(P(s) - c*den**(m-1)) / (q_n d_n den**(m-1)) at s = a and s = b.

    With P(s) = sum_{j<m} (s*q_n)**(m-1-j) (den*p_n)**j and c = m*p_n**(m-1)
    this is W_n at alpha = s/den; each unit more in c subtracts 1/(q_n d_n).
    W_n increases with alpha > 0: for 0 < a <= b these are its least and
    greatest values on [a, b]/den, as (numerator, positive denominator).
    """
    scale = den ** (m - 1)
    p_den, w_den, shift = conv.p * den, conv.q * d * scale, c * scale
    return [(_power_sum(s * conv.q, p_den, m) - shift, w_den) for s in (a, b)]


def general_correction(
    spec: RadicandSpec, conv: Convergent, alpha_iv: tuple[int, int, int]
) -> RationalInterval:
    """Enclosure of the linearization error W_n on alpha_iv > 0, any degree m >= 2.

    alpha_iv is (a, b, den) for [a, b]/den, as `alpha_interval` gives it.
    W_n = (q_n**(m-2)/d_n) * (sum_{j<m} x_n**j * alpha**(m-1-j) - m*x_n**(m-1)),
    so that R_n = W_n - q_{n-1}/q_n; the endpoints are `_correction_ends`'.
    """
    d, c = algebraic_distance(spec, conv), spec.m * conv.p ** (spec.m - 1)
    lo, hi = _correction_ends(spec.m, conv, d, c, *alpha_iv)
    return RationalInterval.from_ends(lo, hi)


def cubic_correction(
    spec: RadicandSpec, conv: Convergent, alpha_iv: tuple[int, int, int]
) -> RationalInterval:
    """Enclosure of the cubic correction V_n on alpha_iv > 0 (degree 3 only).

    V_n = (q_n/d_n)(2x_n**2 - x_n*alpha - alpha**2) = -W_n.
    """
    if spec.m != 3:
        raise WrongDegreeError(f"cubic correction needs m = 3, got m = {spec.m}")
    (ln, ld), (hn, hd) = general_correction(spec, conv, alpha_iv).ends
    return RationalInterval.from_ends((-hn, hd), (-ln, ld))


def exact_unit_remainder(
    spec: RadicandSpec, conv: Convergent, prev: Convergent | None, hn: int, hd: int
) -> bool:
    """Exact |R_n| < 1 for the leading term H_n = hn/hd, by integer sign tests.

    |R_n| < 1 is H_n - 1 < theta_n < H_n + 1, and each side is the order
    of theta_n against a rational, two exact signs of linear forms in
    alpha.  theta_n is irrational, so it never equals H_n +- 1.
    """
    return (_theta_exceeds(spec, conv, prev, hn - hd, hd)
            and not _theta_exceeds(spec, conv, prev, hn + hd, hd))


class PredictionOutcome(namedtuple(
    "PredictionOutcome", "n side candidate epsilon predicted actual formula_held window_held"
)):
    """Result of predicting b_{n+1} from the floor of A_n.

    epsilon is actual - floor(A_n) when that is 0 or 1, else 0 with
    formula_held False (the formula's two-candidate window missed).

    n: int; side: Side; candidate, epsilon, predicted, actual: int;
    formula_held, window_held: bool.
    """

    __slots__ = ()


def prediction(conv: Convergent, hn: int, hd: int, an: int, actual: int) -> PredictionOutcome:
    """The floor formula b_{n+1} = floor(A_n) + eps read against actual = b_{n+1}.

    H_n = hn/hd and A_n = an/hd as `leading_terms` gives them; every
    comparison is cross-multiplied.  window_held reports the
    side-appropriate certain window implied by |R_n| < 1: H-2 < b <= H
    above, H-2 < b < H+1 below.
    """
    candidate = an // hd
    epsilon = actual - candidate if actual - candidate in (0, 1) else 0
    upper_ok = actual * hd <= hn if conv.side is Side.ABOVE else (actual - 1) * hd < hn
    return PredictionOutcome(
        n=conv.n,
        side=conv.side,
        candidate=candidate,
        epsilon=epsilon,
        predicted=candidate + epsilon,
        actual=actual,
        formula_held=(candidate + epsilon == actual),
        window_held=hn < (actual + 2) * hd and upper_ok,
    )


def index_walk(spec: RadicandSpec, exp: Expansion) -> Iterator[tuple]:
    """(prev, conv, d_n, hn, hd, an, outcome) for each index n = 1..N-1 of exp.

    The one walk of the indices: convergent n with its neighbour n - 1,
    `leading_terms`' integers, and the floor formula read against
    b_{n+1} = floor(theta_n), the next certified quotient.
    """
    convergents = exp.convergents()
    prev, conv = next(convergents, None), next(convergents, None)
    for following in convergents:
        d, hn, hd, an = leading_terms(spec, conv, prev)
        yield prev, conv, d, hn, hd, an, prediction(conv, hn, hd, an, following.b)
        prev, conv = conv, following


def predict_next(spec: RadicandSpec, conv: Convergent, prev: Convergent | None) -> PredictionOutcome:
    """`prediction` with b_{n+1} found by exact search from A_n alone.

    floor(A_n) and floor(A_n) + 1 are tried with `verify_quotient`, then
    a binary search on theta_n decides.  A test oracle: the program reads
    b_{n+1} from its certified expansion instead, and the tests check that
    both routes give the same outcome.
    """
    _, hn, hd, an = leading_terms(spec, conv, prev)
    candidate = an // hd
    for actual in (candidate, candidate + 1):
        if verify_quotient(spec, conv, prev, actual):
            break
    else:
        actual = next_partial_quotient(spec, conv, prev)
    return prediction(conv, hn, hd, an, actual)


class ViolationRecord(namedtuple(
    "ViolationRecord", "k m n quantity p q b_next distance observed claimed"
)):
    """A measured failure of a stated bound, with regeneration data.

    (k, m, n, p, q, b_next, distance) suffice to recompute the violation
    exactly; observed is the offending value (interval or integer).

    k, m, n: int; quantity: str; p, q, b_next, distance: int;
    observed: RationalInterval | int; claimed: str.
    """

    __slots__ = ()


class ClaimStats(namedtuple("ClaimStats", "claim passed failed failures")):
    """Measured pass/fail tally for one stated claim (never asserted).

    claim: str; passed, failed: int; failures: tuple[ViolationRecord, ...].
    """

    __slots__ = ()


class TermCheck(namedtuple("TermCheck", (
    "n b_next side p q distance leading shifted_leading theta remainder remainder_in_unit"
    " prediction q_at_least_2 window_above_ok below_window_ok above_epsilon_ok"
    " below_epsilon_ok general_window_ok universal_identity_ok cubic_sign_ok"
))):
    """Everything the verifier measured at one index.

    n, b_next: int; side: Side; p, q, distance: int;
    leading, shifted_leading: tuple[int, int]; theta, remainder: RationalInterval;
    remainder_in_unit: bool; prediction: PredictionOutcome; q_at_least_2: bool;
    window_above_ok, below_window_ok, above_epsilon_ok, below_epsilon_ok: bool | None;
    general_window_ok, universal_identity_ok: bool; cubic_sign_ok: bool | None.
    """

    __slots__ = ()


# The measured claims, in report order: tallied, never asserted.  Each row
# is (TheoremReport field, TermCheck flag deciding it, None off its side,
# violation kind, text).  Plain tuples: every record class is built again
# at each start-up.
MEASURED_CLAIMS = (
    ("above_epsilon", "above_epsilon_ok", EPSILON_RANGE,
     "above side: b_{n+1} = floor(A_n) + eps with eps in {0, 1}"),
    ("below_window", "below_window_ok", WINDOW_BELOW,
     "below side: H_n <= b_{n+1} < H_n + 2"),
    ("below_epsilon", "below_epsilon_ok", EPSILON_RANGE,
     "below side: b_{n+1} = floor(A_n) + eps with eps in {-1, 0}"),
)
# The TermCheck flags a walk step decides: window_above_ok to general_window_ok.
_STEP_FLAGS = TermCheck._fields[-7:-2]


class TheoremReport(namedtuple("TheoremReport", (
    "spec n_max expansion checked skipped violations above_epsilon below_window below_epsilon"
    " remainder_stable_from window_stable_from max_bits"
))):
    """Outcome of sweeping every stated bound over one expansion.

    violations holds certified failures of the unconditional claims
    (remainder bound; for cubics also the above-side window), and each
    of MEASURED_CLAIMS has a ClaimStats field, failures included.  The
    report holds no per-index record: `term_checks` makes each index's
    TermCheck from it, its enclosures refined under max_bits.

    spec: RadicandSpec; n_max: int; expansion: Expansion; checked, skipped: tuple[int, ...];
    violations: tuple[ViolationRecord, ...];
    above_epsilon, below_window, below_epsilon: ClaimStats;
    remainder_stable_from, window_stable_from: int | None; max_bits: int.
    """

    __slots__ = ()


def _analyze_term(
    spec: RadicandSpec, step: tuple, in_unit: bool, start_bits: int, max_bits: int
) -> tuple[RationalInterval, RationalInterval]:
    """(theta_n, R_n) certified for one `index_walk` step, R_n showing in_unit.

    Only the enclosures a report prints, theta_n and R_n, are built, and
    from the integers of alpha's enclosure [S, S+1]/2**bits: theta_n by
    `_theta_corners` (no answer if q_n*alpha - p_n is not separated from 0),
    and R_n as W_n - q_{n-1}/q_n (`_correction_ends`) intersected with
    theta_n - H_n; disjoint routes raise InconsistentEnclosureError.  The
    enclosures are refined until R_n lies strictly inside (-1, 1) or
    strictly outside [-1, 1]; in_unit is the exact verdict on |R_n| < 1
    (`_verdicts`), and an R_n on the other side raises
    InconsistentEnclosureError.
    """
    prev, conv, d, hn, hd, _, _ = step
    m = spec.m
    c = hn + _prev_pq(prev)[1] * d

    def attempt(bits: int):
        ends = alpha_interval(spec, bits)  # (S, S+1, 2**bits)
        corners = _theta_corners(conv, prev, *ends)
        if corners is None:
            return None
        via_w = _correction_ends(m, conv, d, c, *ends)
        via_theta = [(t * hd - hn * u, u * hd) for t, u in corners]
        r_lo = via_theta[0] if _less(via_w[0], via_theta[0]) else via_w[0]
        r_hi = via_w[1] if _less(via_w[1], via_theta[1]) else via_theta[1]
        if _less(r_hi, r_lo):
            raise InconsistentEnclosureError(f"remainder routes disjoint at n={conv.n}")
        inside = -r_lo[1] < r_lo[0] and r_hi[0] < r_hi[1]
        if not (inside or r_hi[0] < -r_hi[1] or r_lo[0] > r_lo[1]):
            return None
        if inside != in_unit:
            raise InconsistentEnclosureError(
                f"remainder enclosure contradicts the unit verdict at n={conv.n}"
            )
        return RationalInterval.from_ends(*corners), RationalInterval.from_ends(r_lo, r_hi)

    return refine(attempt, start_bits, max_bits)


def _verdicts(spec: RadicandSpec, exp: Expansion) -> Iterator[tuple]:
    """(step, flags, in_unit) for each `index_walk` step of exp: its verdicts.

    flags are the _STEP_FLAGS, None off their side; above alpha the side's
    window (the general window there too) and epsilon range are
    `prediction`'s.  in_unit is |R_n| < 1: proven at q_n >= Q(k, m)
    (`unit_threshold`, once per walk), exact signs below it.
    """
    q_unit = unit_threshold(spec, exp.precision_bits)
    for step in index_walk(spec, exp):
        prev, conv, _, hn, hd, _, outcome = step
        b_next = outcome.actual
        if conv.side is Side.ABOVE:
            flags = outcome.window_held, None, outcome.formula_held, None, outcome.window_held
        else:
            flags = (None, (b_next - 2) * hd < hn <= b_next * hd, None,
                     b_next - outcome.candidate in (-1, 0), b_next * hd <= hn < (b_next + 2) * hd)
        yield step, flags, conv.q >= q_unit or exact_unit_remainder(spec, conv, prev, hn, hd)


def _failure(spec: RadicandSpec, step: tuple, quantity: str, text: str) -> ViolationRecord:
    """The record of a claim failing at one `index_walk` step.

    It shows A_n and eps = b_{n+1} - floor(A_n) for an epsilon range, else
    H_n and b_{n+1}.  Positional: keywords cost a scan, which builds hundreds.
    """
    _, conv, d, hn, hd, an, outcome = step
    b_next = outcome.actual
    if quantity == EPSILON_RANGE:
        observed, claimed = b_next - outcome.candidate, f"{text}; A_n = {fraction_string(an, hd)}"
    else:
        observed, claimed = b_next, f"{text} with H_n = {fraction_string(hn, hd)}"
    return ViolationRecord(
        spec.k, spec.m, conv.n, quantity, conv.p, conv.q, b_next, d, observed, claimed
    )


def verify_theorems(
    spec: RadicandSpec, n_max: int, *, max_bits: int = DEFAULT_MAX_BITS
) -> TheoremReport:
    """Measure every stated bound for n = 1..n_max; `verify` and `scan` share it.

    Every verdict is `_verdicts`', decided before any report is written
    from `leading_terms`' d_n, H_n and A_n and the b_{n+1} of the
    certified expansion, whose floors are proven and whose last term
    `expand` re-checks exactly.  Each of MEASURED_CLAIMS is tallied from
    its flag over the checked indices, and the least index from which
    stability holds through n_max recorded.  The one enclosure built here
    is the observed R_n of each remainder_bound violation, from the
    expansion's bits; no per-index record is held (`term_checks` makes
    those).  Indices with q_n < Q_MIN, index 0 always among them, are
    excluded from claims and violations.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    exp = expand(spec, n_max + 1, max_bits=max_bits)

    violations: list[ViolationRecord] = []
    # The flags (_STEP_FLAGS) of each checked index, and with its walk step
    # where one is False: only failures need a step, so no other is held.
    step_flags: list[tuple] = []
    failing: list[tuple] = []
    checked: list[int] = []
    skipped: list[int] = [0]
    # One past the last index where |R_n| < 1, or the general window, fails;
    # stable through n_max only if that is not past the last checked index.
    remainder_from = window_from = 1

    for step, flags, in_unit in _verdicts(spec, exp):
        _, conv, d, _, _, _, outcome = step
        if conv.q < Q_MIN:
            skipped.append(conv.n)
            continue
        checked.append(conv.n)
        step_flags.append(flags)
        if False in flags:
            failing.append((flags, step))
            if flags[-1] is False:
                window_from = conv.n + 1
        if not in_unit:
            r_iv = _analyze_term(spec, step, False, exp.precision_bits, max_bits)[1]
            violations.append(ViolationRecord(
                k=spec.k, m=spec.m, n=conv.n, quantity=REMAINDER_BOUND, p=conv.p, q=conv.q,
                b_next=outcome.actual, distance=d, observed=r_iv, claimed=CLAIM_REMAINDER,
            ))
            remainder_from = conv.n + 1
        if spec.m == 3 and flags[0] is False:  # window_above_ok
            violations.append(_failure(spec, step, WINDOW_ABOVE, CLAIM_ABOVE_WINDOW))

    # Each flag's values over the checked indices; None off the claim's side.
    columns = {flag: values for flag, *values in zip(_STEP_FLAGS, *step_flags)}
    claims = {}
    for field, flag, quantity, text in MEASURED_CLAIMS:
        i = _STEP_FLAGS.index(flag)
        failures = tuple(_failure(spec, step, quantity, text)
                         for flags, step in failing if flags[i] is False)
        claims[field] = ClaimStats(text, columns[flag].count(True), len(failures), failures)
    last = checked[-1] if checked else 0
    return TheoremReport(
        spec=spec, n_max=n_max, expansion=exp,
        checked=tuple(checked), skipped=tuple(skipped), violations=tuple(violations),
        **claims,
        remainder_stable_from=remainder_from if remainder_from <= last else None,
        window_stable_from=window_from if window_from <= last else None,
        max_bits=max_bits,
    )


def term_checks(report: TheoremReport) -> Iterator[TermCheck]:
    """Each index's TermCheck, n = 1..n_max, made as it is asked for.

    The one builder of TermChecks: the indices are walked again by
    `_verdicts`, which decides every flag and |R_n| < 1 as it did for
    `verify_theorems`, and theta_n and R_n are enclosed from the
    expansion's bits under the report's max_bits, R_n's showing that
    verdict.  Two flags are exact integer tests.
    theta_n + q_{n-1}/q_n = 1/(q_n**2 |x_n - alpha|) holds exactly when
    q_n*p_{n-1} - p_n*q_{n-1} is the sign of q_n*alpha - p_n (-1 above,
    +1 below), the left side being that determinant over
    q_n*(q_n*alpha - p_n).  For cubics V_n = (q_n/d_n)(x_n - alpha)(2x_n + alpha)
    with 2x_n + alpha > 0, so sgn(V_n) = sgn(x_n - alpha) is one exact
    sign; a contradiction raises InconsistentEnclosureError.
    """
    spec, exp = report.spec, report.expansion
    for step, flags, in_unit in _verdicts(spec, exp):
        prev, conv, d, hn, hd, an, outcome = step
        theta_iv, r_iv = _analyze_term(spec, step, in_unit, exp.precision_bits, report.max_bits)
        above = conv.side is Side.ABOVE
        universal_ok = conv.q * prev.p - conv.p * prev.q == (-1 if above else 1)
        sign_ok = ((sign_linear_in_alpha(spec, -conv.q, conv.p) > 0) == above
                   if spec.m == 3 else None)
        if sign_ok is False:
            raise InconsistentEnclosureError(f"cubic correction sign contradicts side at n={conv.n}")
        yield TermCheck(
            conv.n, outcome.actual, conv.side, conv.p, conv.q, d, (hn, hd), (an, hd),
            theta_iv, r_iv, in_unit, outcome, conv.q >= Q_MIN, *flags, universal_ok, sign_ok,
        )


class CellSummary(namedtuple(
    "CellSummary", "k m n_max violations remainder_stable_from window_stable_from"
)):
    """One (k, m) cell of a scan.

    k, m, n_max, violations: int; remainder_stable_from, window_stable_from: int | None.
    """

    __slots__ = ()


class SkippedCell(namedtuple("SkippedCell", "k m reason precision_capped", defaults=(False,))):
    """A (k, m) pair rejected before analysis, or whose analysis hit the precision cap.

    k, m: int; reason: str; precision_capped: bool.
    """

    __slots__ = ()


class ScanReport(namedtuple("ScanReport", "cells skipped violations")):
    """Deterministic violation search over a (k, m) grid.

    cells: tuple[CellSummary, ...]; skipped: tuple[SkippedCell, ...];
    violations: tuple[ViolationRecord, ...].
    """

    __slots__ = ()


def _scan_cell(args) -> tuple[CellSummary | SkippedCell, tuple[ViolationRecord, ...]]:
    """(row, violations) of one (k, m) cell; its TheoremReport is never pickled."""
    k, m, n_max, max_bits = args
    try:
        spec = validate_spec(k, m)
    except ValueError as exc:
        return SkippedCell(k=k, m=m, reason=str(exc)), ()
    try:
        report = verify_theorems(spec, n_max, max_bits=max_bits)
    except PrecisionCeilingError as exc:
        return SkippedCell(k=k, m=m, reason=str(exc), precision_capped=True), ()
    row = CellSummary(
        k=k, m=m, n_max=n_max,
        violations=len(report.violations),
        remainder_stable_from=report.remainder_stable_from,
        window_stable_from=report.window_stable_from,
    )
    return row, report.violations


def scan(
    k_values,
    m_values,
    n_max: int,
    *,
    workers: int = 1,
    max_bits: int = DEFAULT_MAX_BITS,
) -> ScanReport:
    """Sweep verify_theorems over a grid of radicands and degrees.

    Invalid specs, and cells that hit the precision cap, are skipped and
    counted without stopping the others.  Each cell hands back only its
    row and violations (`_scan_cell`), merged in the (m, k) order the jobs
    are built in, so the report is identical however cells were scheduled.
    Violations here are the certified kinds only (remainder bound and,
    for cubics, the above-side window): the claims that are expected to
    hold whenever they are stated.
    """
    jobs = [
        (k, m, n_max, max_bits)
        for m in sorted(set(m_values))
        for k in sorted(set(k_values))
    ]
    # The pool starts all its workers at once; more than one per cell
    # would only start idle processes.
    workers = min(workers, len(jobs))
    if workers > 1:
        # Imported here: the pool pulls in multiprocessing, which every
        # other command would otherwise pay for at start-up.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_scan_cell, jobs, chunksize=4))
    else:
        results = [_scan_cell(job) for job in jobs]

    # Already in report order: jobs run in (m, k) order, which the serial
    # list and pool.map both keep, and verify_theorems lists a cell's
    # violations by n, remainder_bound before window_above at one n.
    cells: list[CellSummary] = []
    skipped: list[SkippedCell] = []
    violations: list[ViolationRecord] = []
    for row, cell_violations in results:
        (skipped if isinstance(row, SkippedCell) else cells).append(row)
        violations.extend(cell_violations)
    return ScanReport(cells=tuple(cells), skipped=tuple(skipped), violations=tuple(violations))
