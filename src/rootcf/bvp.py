"""Bombieri-van der Poorten decomposition of complete quotients.

For each convergent p_n/q_n of alpha = k**(1/m) the complete quotient
splits as theta_n = H_n + R_n with the leading term

    H_n = m * p_n**(m-1) / (d_n * q_n),      d_n = |p_n**m - k*q_n**m|,

and the remainder R_n = W_n - q_{n-1}/q_n, where W_n is the linearization
error of the m-th power difference.  This module computes all of these
exactly (rationals) or as certified enclosures (alpha-dependent reals),
and measures every claimed bound, recording violations it can certify.
Each index is worked once: `leading_terms` gives d_n, H_n and
A_n = H_n - q_{n-1}/q_n, and `prediction` reads the floor formula
b_{n+1} = floor(A_n) + eps against the b_{n+1} that `expand` certified.
`predict_next`, which finds b_{n+1} by its own exact search, and
`general_correction` and `cubic_correction` stay public for the
benchmark's tracer only; the tests compare them with tests/oracles.py.

Sign conventions: W_n carries the sign of alpha - x_n.  For cubics the
classical correction V_n = (q_n/d_n)(2x_n**2 - x_n*alpha - alpha**2)
satisfies V_n = -W_n and sgn(V_n) = sgn(x_n - alpha).
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .exact import (
    DEFAULT_MAX_BITS,
    InconsistentEnclosureError,
    InvalidDegreeError,
    PerfectPowerError,
    PrecisionCeilingError,
    RadicandSpec,
    RationalInterval,
    WrongDegreeError,
    alpha_interval,
    refine,
    sign_linear_in_alpha,
    validate_spec,
)
from .engine import (
    Convergent,
    Expansion,
    Side,
    _common_denominator,
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
CLAIM_ABOVE_EPSILON = "above side: b_{n+1} = floor(A_n) + eps with eps in {0, 1}"
CLAIM_BELOW_WINDOW = "below side: H_n <= b_{n+1} < H_n + 2"
CLAIM_BELOW_EPSILON = "below side: b_{n+1} = floor(A_n) + eps with eps in {-1, 0}"
# Least q_n at which a stated bound is measured; q_0 = 1 sits outside them all.
Q_MIN = 2
CLAIM_REMAINDER = f"|R_n| < 1 for q_n >= {Q_MIN}"


def algebraic_distance(spec: RadicandSpec, conv: Convergent) -> int:
    """d_n = |p_n**m - k*q_n**m|, exact and strictly positive."""
    return abs(conv.p ** spec.m - spec.k * conv.q ** spec.m)


def leading_terms(
    spec: RadicandSpec, conv: Convergent, prev: Convergent | None
) -> tuple[int, Fraction, Fraction]:
    """(d_n, H_n, A_n), the two rationals reduced.

    H_n = m*p_n**(m-1)/(d_n*q_n) is the leading term of theta_n, and
    A_n = H_n - q_{n-1}/q_n the quantity whose floor predicts b_{n+1}.
    """
    d = algebraic_distance(spec, conv)
    hn, hd = spec.m * conv.p ** (spec.m - 1), d * conv.q
    return d, Fraction(hn, hd), Fraction(hn - _prev_pq(prev)[1] * d, hd)


def _power_sum(u: int, v: int, m: int) -> int:
    """sum_{j<m} u**(m-1-j) * v**j, by Horner's rule in u."""
    total, vj = 0, 1
    for _ in range(m):
        total = total * u + vj
        vj *= v
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
    spec: RadicandSpec, conv: Convergent, alpha_iv: RationalInterval
) -> RationalInterval:
    """Enclosure of the linearization error W_n on alpha_iv > 0, any degree m >= 2.

    W_n = (q_n**(m-2)/d_n) * (sum_{j<m} x_n**j * alpha**(m-1-j) - m*x_n**(m-1)),
    so that R_n = W_n - q_{n-1}/q_n; the endpoints are `_correction_ends`'.
    """
    d, c = algebraic_distance(spec, conv), spec.m * conv.p ** (spec.m - 1)
    lo, hi = _correction_ends(spec.m, conv, d, c, *_common_denominator(alpha_iv))
    return RationalInterval(Fraction(*lo), Fraction(*hi))


def cubic_correction(
    spec: RadicandSpec, conv: Convergent, alpha_iv: RationalInterval
) -> RationalInterval:
    """Enclosure of the cubic correction V_n on alpha_iv > 0 (degree 3 only).

    V_n = (q_n/d_n)(2x_n**2 - x_n*alpha - alpha**2) = -W_n.
    """
    if spec.m != 3:
        raise WrongDegreeError(f"cubic correction needs m = 3, got m = {spec.m}")
    w = general_correction(spec, conv, alpha_iv)
    return RationalInterval(-w.hi, -w.lo)


def exact_unit_remainder(
    spec: RadicandSpec, conv: Convergent, prev: Convergent | None, h: Fraction
) -> bool:
    """Exact |R_n| < 1 for the leading term h = H_n, by integer sign tests.

    |R_n| < 1 is H_n - 1 < theta_n < H_n + 1, and each side is the order
    of theta_n against a rational, two exact signs of linear forms in
    alpha.  theta_n is irrational, so it never equals H_n +- 1.
    """
    return _theta_exceeds(spec, conv, prev, h - 1) and not _theta_exceeds(spec, conv, prev, h + 1)


class PredictionOutcome(NamedTuple):
    """Result of predicting b_{n+1} from the floor of A_n.

    epsilon is actual - floor(A_n) when that is 0 or 1, else 0 with
    formula_held False (the formula's two-candidate window missed).
    """

    n: int
    side: Side
    candidate: int
    epsilon: int
    predicted: int
    actual: int
    formula_held: bool
    window_held: bool


def prediction(conv: Convergent, h: Fraction, a: Fraction, actual: int) -> PredictionOutcome:
    """The floor formula b_{n+1} = floor(A_n) + eps read against actual = b_{n+1}.

    h and a are H_n and A_n.  window_held reports the side-appropriate
    certain window implied by |R_n| < 1: H-2 < b <= H above,
    H-2 < b < H+1 below.
    """
    candidate = math.floor(a)
    epsilon = actual - candidate if actual - candidate in (0, 1) else 0
    upper_ok = actual <= h if conv.side is Side.ABOVE else actual < h + 1
    return PredictionOutcome(
        n=conv.n,
        side=conv.side,
        candidate=candidate,
        epsilon=epsilon,
        predicted=candidate + epsilon,
        actual=actual,
        formula_held=(candidate + epsilon == actual),
        window_held=h - 2 < actual and upper_ok,
    )


def predict_next(spec: RadicandSpec, conv: Convergent, prev: Convergent | None) -> PredictionOutcome:
    """`prediction` with b_{n+1} found by exact search from A_n alone.

    floor(A_n) and floor(A_n) + 1 are tried with `verify_quotient`, then
    a binary search on theta_n decides.  A test oracle: the program reads
    b_{n+1} from its certified expansion instead, and the tests check that
    both routes give the same outcome.
    """
    _, h, a = leading_terms(spec, conv, prev)
    candidate = math.floor(a)
    for actual in (candidate, candidate + 1):
        if verify_quotient(spec, conv, prev, actual):
            break
    else:
        actual = next_partial_quotient(spec, conv, prev)
    return prediction(conv, h, a, actual)


class ViolationRecord(NamedTuple):
    """A measured failure of a stated bound, with regeneration data.

    (k, m, n, p, q, b_next, distance) suffice to recompute the violation
    exactly; observed is the offending value (interval or integer).
    """

    k: int
    m: int
    n: int
    quantity: str
    p: int
    q: int
    b_next: int
    distance: int
    observed: RationalInterval | int
    claimed: str


class ClaimStats(NamedTuple):
    """Measured pass/fail tally for one stated claim (never asserted)."""

    claim: str
    passed: int
    failed: int
    failures: tuple[ViolationRecord, ...]


class TermCheck(NamedTuple):
    """Everything the verifier measured at one index."""

    n: int
    b_next: int
    side: Side
    p: int
    q: int
    distance: int
    leading: Fraction
    shifted_leading: Fraction
    theta: RationalInterval
    remainder: RationalInterval
    remainder_in_unit: bool
    prediction: PredictionOutcome
    q_at_least_2: bool
    window_above_ok: bool | None
    below_window_ok: bool | None
    above_epsilon_ok: bool | None
    below_epsilon_ok: bool | None
    general_window_ok: bool
    universal_identity_ok: bool
    cubic_sign_ok: bool | None


class TheoremReport(NamedTuple):
    """Outcome of sweeping every stated bound over one expansion.

    violations holds certified failures of the unconditional claims
    (remainder bound; for cubics also the above-side window).  The
    epsilon-range and below-side claims are measured into ClaimStats,
    failures included, without being asserted.
    """

    spec: RadicandSpec
    n_max: int
    expansion: Expansion
    checked: tuple[int, ...]
    skipped: tuple[int, ...]
    violations: tuple[ViolationRecord, ...]
    above_epsilon: ClaimStats
    below_window: ClaimStats
    below_epsilon: ClaimStats
    remainder_stable_from: int | None
    window_stable_from: int | None
    terms: tuple[TermCheck, ...]


def _less(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """a < b for rationals given as (numerator, positive denominator)."""
    return a[0] * b[1] < b[0] * a[1]


def _analyze_term(
    spec: RadicandSpec,
    conv: Convergent,
    prev: Convergent | None,
    d: int,
    h: Fraction,
    start_bits: int,
    max_bits: int,
) -> tuple[RationalInterval, RationalInterval, bool, bool, bool | None]:
    """(theta, remainder, in_unit, universal_identity_ok, cubic_sign_ok) certified.

    d and h are d_n and H_n as `leading_terms` gives them.

    The two flags are exact integer tests.  The universal identity
    theta_n + q_{n-1}/q_n = 1/(q_n**2 |x_n - alpha|) holds exactly when
    q_n*p_{n-1} - p_n*q_{n-1} is the sign of q_n*alpha - p_n (-1 above,
    +1 below), since the left side is that determinant over
    q_n*(q_n*alpha - p_n).  For cubics
    V_n = (q_n/d_n)(x_n - alpha)(2x_n + alpha) with 2x_n + alpha > 0, so
    sgn(V_n) = sgn(x_n - alpha) is one exact sign.

    Only the enclosures a report prints, theta_n and R_n, are built, and
    from the integers of alpha's enclosure [S, S+1]/2**bits: theta_n by
    `_theta_corners` (no answer if q_n*alpha - p_n is not separated from 0),
    and R_n as W_n - q_{n-1}/q_n (`_correction_ends`) intersected with
    theta_n - H_n; disjoint routes raise InconsistentEnclosureError.  The
    enclosures are refined until R_n decides |R_n| < 1 on its own, and
    the caller checks that in_unit equals the exact verdict of
    `exact_unit_remainder`.
    """
    m, p, q = spec.m, conv.p, conv.q
    pp, qp = _prev_pq(prev)
    c = m * p ** (m - 1) + qp * d
    above = conv.side is Side.ABOVE
    universal_ok = q * pp - p * qp == (-1 if above else 1)
    sign_ok = (sign_linear_in_alpha(spec, -q, p) > 0) == above if m == 3 else None
    hn, hd = h.numerator, h.denominator

    def attempt(bits: int):
        ends = _common_denominator(alpha_interval(spec, bits))  # (S, S+1, 2**bits)
        corners = _theta_corners(conv, prev, *ends)
        if corners is None:
            return None
        via_w = _correction_ends(m, conv, d, c, *ends)
        via_theta = [(t * hd - hn * u, u * hd) for t, u in corners]
        r_lo = via_theta[0] if _less(via_w[0], via_theta[0]) else via_w[0]
        r_hi = via_w[1] if _less(via_w[1], via_theta[1]) else via_theta[1]
        if _less(r_hi, r_lo):
            raise InconsistentEnclosureError(f"remainder routes disjoint at n={conv.n}")
        in_unit = -r_lo[1] < r_lo[0] and r_hi[0] < r_hi[1]
        if not (in_unit or r_hi[0] < -r_hi[1] or r_lo[0] > r_lo[1]):
            return None
        theta_iv = RationalInterval(Fraction(*corners[0]), Fraction(*corners[1]))
        return theta_iv, RationalInterval(Fraction(*r_lo), Fraction(*r_hi)), in_unit

    return (*refine(attempt, start_bits, max_bits), universal_ok, sign_ok)


def _stable_from(failures: list[int], last_checked: int | None) -> int | None:
    """Least n0 with no failure in [n0, last_checked]; None if the last index fails."""
    if last_checked is None:
        return None
    if not failures:
        return 1
    worst = max(failures)
    return worst + 1 if worst < last_checked else None


def verify_theorems(
    spec: RadicandSpec,
    n_max: int,
    *,
    keep_terms: bool = True,
    max_bits: int = DEFAULT_MAX_BITS,
) -> TheoremReport:
    """Measure every stated bound for n = 1..n_max.

    Each index takes d_n, H_n and A_n once from `leading_terms` and
    b_{n+1} from the certified expansion, whose floors are proven and
    whose last term `expand` re-checks exactly.  It decides |R_n| < 1
    exactly (`exact_unit_remainder`), checks the above-side window
    exactly, measures the epsilon-range and below-side claims through
    `prediction`, and records the least index from which stability holds
    through n_max.  Enclosures are built only for values the result
    shows: theta_n and R_n of every term when keep_terms is set, and the
    observed R_n of each remainder_bound violation.  Each one is checked
    against the exact verdict (InconsistentEnclosureError if they differ).
    Indices with q_n < Q_MIN, index 0 always among them, are excluded
    from claims and violations.  Enclosures start at the precision the
    expansion needed.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    exp = expand(spec, n_max + 1, max_bits=max_bits)

    violations: list[ViolationRecord] = []
    # Failures of each measured claim, and checked indices of each side:
    # a claim passes at every index of its side that it does not fail.
    above_eps_failures: list[ViolationRecord] = []
    below_window_failures: list[ViolationRecord] = []
    below_eps_failures: list[ViolationRecord] = []
    checked_on = {Side.ABOVE: 0, Side.BELOW: 0}
    term_checks: list[TermCheck] = []
    remainder_failures: list[int] = []
    window_failures: list[int] = []
    checked: list[int] = []
    skipped: list[int] = [0]
    last_checked: int | None = None

    def record(n, conv, b_next, d, quantity, observed, claimed) -> ViolationRecord:
        return ViolationRecord(
            k=spec.k, m=spec.m, n=n, quantity=quantity,
            p=conv.p, q=conv.q, b_next=b_next, distance=d,
            observed=observed, claimed=claimed,
        )

    for n in range(1, n_max + 1):
        conv, prev = exp.pair(n)
        b_next = exp.terms[n + 1].b
        d, h, a_n = leading_terms(spec, conv, prev)
        outcome = prediction(conv, h, a_n, b_next)
        in_unit = exact_unit_remainder(spec, conv, prev, h)
        q_ok = conv.q >= Q_MIN
        if keep_terms or (q_ok and not in_unit):
            theta_iv, r_iv, iv_in_unit, universal_ok, sign_ok = _analyze_term(
                spec, conv, prev, d, h, exp.precision_bits, max_bits
            )
            if iv_in_unit != in_unit:
                raise InconsistentEnclosureError(
                    f"remainder enclosure contradicts the exact unit verdict at n={n}"
                )
            if sign_ok is False:
                raise InconsistentEnclosureError(f"cubic correction sign contradicts side at n={n}")

        true_eps = b_next - outcome.candidate
        above = conv.side is Side.ABOVE
        window_above = outcome.window_held if above else None  # H_n - 2 < b_{n+1} <= H_n
        below_window = (h <= b_next < h + 2) if not above else None
        above_eps = (true_eps in (0, 1)) if above else None
        below_eps = (true_eps in (-1, 0)) if not above else None
        general_window = b_next <= h and b_next + 2 > h

        if q_ok:
            checked.append(n)
            last_checked = n
            if not in_unit:
                remainder_failures.append(n)
                violations.append(
                    record(n, conv, b_next, d, REMAINDER_BOUND, r_iv, CLAIM_REMAINDER)
                )
            if not general_window:
                window_failures.append(n)
            checked_on[conv.side] += 1
            if above:
                if spec.m == 3 and not window_above:
                    violations.append(
                        record(n, conv, b_next, d, WINDOW_ABOVE, b_next,
                               f"{CLAIM_ABOVE_WINDOW} with H_n = {h}")
                    )
                if not above_eps:
                    above_eps_failures.append(
                        record(n, conv, b_next, d, EPSILON_RANGE, true_eps,
                               f"{CLAIM_ABOVE_EPSILON}; A_n = {a_n}")
                    )
            else:
                if not below_window:
                    below_window_failures.append(
                        record(n, conv, b_next, d, WINDOW_BELOW, b_next,
                               f"{CLAIM_BELOW_WINDOW} with H_n = {h}")
                    )
                if not below_eps:
                    below_eps_failures.append(
                        record(n, conv, b_next, d, EPSILON_RANGE, true_eps,
                               f"{CLAIM_BELOW_EPSILON}; A_n = {a_n}")
                    )
        else:
            skipped.append(n)

        if keep_terms:
            term_checks.append(
                TermCheck(
                    n=n, b_next=b_next, side=conv.side, p=conv.p, q=conv.q,
                    distance=d, leading=h,
                    shifted_leading=a_n,
                    theta=theta_iv, remainder=r_iv, remainder_in_unit=in_unit,
                    prediction=outcome, q_at_least_2=q_ok,
                    window_above_ok=window_above, below_window_ok=below_window,
                    above_epsilon_ok=above_eps, below_epsilon_ok=below_eps,
                    general_window_ok=general_window, universal_identity_ok=universal_ok,
                    cubic_sign_ok=sign_ok,
                )
            )

    def stats(claim: str, side: Side, failures: list[ViolationRecord]) -> ClaimStats:
        return ClaimStats(
            claim=claim, passed=checked_on[side] - len(failures), failed=len(failures),
            failures=tuple(failures),
        )

    return TheoremReport(
        spec=spec,
        n_max=n_max,
        expansion=exp,
        checked=tuple(checked),
        skipped=tuple(skipped),
        violations=tuple(violations),
        above_epsilon=stats(CLAIM_ABOVE_EPSILON, Side.ABOVE, above_eps_failures),
        below_window=stats(CLAIM_BELOW_WINDOW, Side.BELOW, below_window_failures),
        below_epsilon=stats(CLAIM_BELOW_EPSILON, Side.BELOW, below_eps_failures),
        remainder_stable_from=_stable_from(remainder_failures, last_checked),
        window_stable_from=_stable_from(window_failures, last_checked),
        terms=tuple(term_checks),
    )


class CellSummary(NamedTuple):
    """One (k, m) cell of a scan."""

    k: int
    m: int
    n_max: int
    violations: int
    remainder_stable_from: int | None
    window_stable_from: int | None


class SkippedCell(NamedTuple):
    """A (k, m) pair rejected before analysis, or whose analysis hit the precision cap."""

    k: int
    m: int
    reason: str
    precision_capped: bool = False


class ScanReport(NamedTuple):
    """Deterministic violation search over a (k, m) grid."""

    cells: tuple[CellSummary, ...]
    skipped: tuple[SkippedCell, ...]
    violations: tuple[ViolationRecord, ...]


def _scan_cell(args) -> tuple:
    k, m, n_max, max_bits = args
    try:
        spec = validate_spec(k, m)
    except (PerfectPowerError, InvalidDegreeError, ValueError) as exc:
        return k, m, None, SkippedCell(k=k, m=m, reason=str(exc))
    try:
        report = verify_theorems(spec, n_max, keep_terms=False, max_bits=max_bits)
    except PrecisionCeilingError as exc:
        return k, m, None, SkippedCell(k=k, m=m, reason=str(exc), precision_capped=True)
    return k, m, report, None


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
    counted without stopping the others; results are merged in (m, k)
    order so the report is identical no matter how cells were scheduled.
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

    cells: list[CellSummary] = []
    skipped: list[SkippedCell] = []
    violations: list[ViolationRecord] = []
    for k, m, report, skip in sorted(results, key=lambda r: (r[1], r[0])):
        if report is None:
            skipped.append(skip)
            continue
        violations.extend(report.violations)
        cells.append(
            CellSummary(
                k=k, m=m, n_max=n_max,
                violations=len(report.violations),
                remainder_stable_from=report.remainder_stable_from,
                window_stable_from=report.window_stable_from,
            )
        )
    violations.sort(key=lambda v: (v.m, v.k, v.n, v.quantity))
    return ScanReport(cells=tuple(cells), skipped=tuple(skipped), violations=tuple(violations))
