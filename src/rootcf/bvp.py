"""Bombieri-van der Poorten decomposition of complete quotients.

For each convergent p_n/q_n of alpha = k**(1/m) the complete quotient
splits as theta_n = H_n + R_n with the leading term

    H_n = m * p_n**(m-1) / (d_n * q_n),      d_n = |p_n**m - k*q_n**m|,

and the remainder R_n = W_n - q_{n-1}/q_n, where W_n is the linearization
error of the m-th power difference.  This module computes all of these
exactly (rationals) or as certified enclosures (alpha-dependent reals,
from the integers (S, S+1, 2**bits) of alpha's enclosure), and measures
every claimed bound, recording violations it can certify.  Each index
is worked once, on integers: `leading_terms` gives d_n, H_n and
A_n = H_n - q_{n-1}/q_n over one denominator, and `prediction` reads the
floor formula against the b_{n+1} that `expand` certified.  |R_n| < 1 is
proven at q_n >= Q(k, m) (`unit_threshold`) and decided by exact signs
below it (`exact_unit_remainder`).  `predict_next`, `general_correction`
and `cubic_correction` stay public for the benchmark's tracer only.

Sign conventions: W_n carries the sign of alpha - x_n.  For cubics the
classical correction V_n = (q_n/d_n)(2x_n**2 - x_n*alpha - alpha**2)
satisfies V_n = -W_n and sgn(V_n) = sgn(x_n - alpha).
"""
from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .exact import (
    DEFAULT_MAX_BITS,
    InconsistentEnclosureError,
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
    spec: RadicandSpec, conv: Convergent, alpha_iv: tuple[int, int, int]
) -> RationalInterval:
    """Enclosure of the linearization error W_n on alpha_iv > 0, any degree m >= 2.

    alpha_iv is (a, b, den) for [a, b]/den, as `alpha_interval` gives it.
    W_n = (q_n**(m-2)/d_n) * (sum_{j<m} x_n**j * alpha**(m-1-j) - m*x_n**(m-1)),
    so that R_n = W_n - q_{n-1}/q_n; the endpoints are `_correction_ends`'.
    """
    d, c = algebraic_distance(spec, conv), spec.m * conv.p ** (spec.m - 1)
    lo, hi = _correction_ends(spec.m, conv, d, c, *alpha_iv)
    return RationalInterval(Fraction(*lo), Fraction(*hi))


def cubic_correction(
    spec: RadicandSpec, conv: Convergent, alpha_iv: tuple[int, int, int]
) -> RationalInterval:
    """Enclosure of the cubic correction V_n on alpha_iv > 0 (degree 3 only).

    V_n = (q_n/d_n)(2x_n**2 - x_n*alpha - alpha**2) = -W_n.
    """
    if spec.m != 3:
        raise WrongDegreeError(f"cubic correction needs m = 3, got m = {spec.m}")
    w = general_correction(spec, conv, alpha_iv)
    return RationalInterval(-w.hi, -w.lo)


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
    hn: int,
    hd: int,
    start_bits: int,
    max_bits: int,
) -> tuple[RationalInterval, RationalInterval, bool, bool, bool | None]:
    """(theta, remainder, in_unit, universal_identity_ok, cubic_sign_ok) certified.

    d and H_n = hn/hd are as `leading_terms` gives them.

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
    the caller checks that in_unit equals its own verdict.
    """
    m, p, q = spec.m, conv.p, conv.q
    pp, qp = _prev_pq(prev)
    c = hn + qp * d
    above = conv.side is Side.ABOVE
    universal_ok = q * pp - p * qp == (-1 if above else 1)
    sign_ok = (sign_linear_in_alpha(spec, -q, p) > 0) == above if m == 3 else None

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
        in_unit = -r_lo[1] < r_lo[0] and r_hi[0] < r_hi[1]
        if not (in_unit or r_hi[0] < -r_hi[1] or r_lo[0] > r_lo[1]):
            return None
        theta_iv = RationalInterval(Fraction(*corners[0]), Fraction(*corners[1]))
        return theta_iv, RationalInterval(Fraction(*r_lo), Fraction(*r_hi)), in_unit

    return (*refine(attempt, start_bits, max_bits), universal_ok, sign_ok)


def _stable_from(failures: list[int], checked: list[int]) -> int | None:
    """Least n0 with no failure in [n0, checked[-1]]; None if that index fails."""
    if not checked or checked[-1] in failures:
        return None
    return max(failures, default=0) + 1


def verify_theorems(
    spec: RadicandSpec,
    n_max: int,
    *,
    keep_terms: bool = True,
    max_bits: int = DEFAULT_MAX_BITS,
) -> TheoremReport:
    """Measure every stated bound for n = 1..n_max.

    The convergents are walked once, each with its neighbours.  Each
    index takes d_n, H_n and A_n once, as integers, from `leading_terms`,
    and b_{n+1} from the certified expansion, whose floors are proven and
    whose last term `expand` re-checks exactly.
    |R_n| < 1 is proven where q_n >= Q(k, m) (`unit_threshold`, once per
    call) and decided exactly below Q (`exact_unit_remainder`).  The
    windows are checked exactly, the epsilon-range and below-side claims
    measured through `prediction`, and the least index from which
    stability holds through n_max recorded.  Enclosures are built only
    for values the result shows: theta_n and R_n of every term when
    keep_terms is set, and the observed R_n of each remainder_bound
    violation; each is checked against the verdict
    (InconsistentEnclosureError if they differ).  Indices with
    q_n < Q_MIN, index 0 always among them, are excluded from claims and
    violations.  Enclosures start at the precision the expansion needed.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    exp = expand(spec, n_max + 1, max_bits=max_bits)
    q_unit = unit_threshold(spec, exp.precision_bits)

    violations: list[ViolationRecord] = []
    # Failures of each measured claim, and checked indices of each side:
    # a claim passes at every index of its side that it does not fail.
    above_eps_failures: list[ViolationRecord] = []
    below_window_failures: list[ViolationRecord] = []
    below_eps_failures: list[ViolationRecord] = []
    checked_above = 0  # the other checked indices lie below alpha
    term_checks: list[TermCheck] = []
    window_failures: list[int] = []
    checked: list[int] = []
    skipped: list[int] = [0]

    def record(quantity, observed, claimed) -> ViolationRecord:
        """A failure at the index the loop is on."""
        return ViolationRecord(
            k=spec.k, m=spec.m, n=n, quantity=quantity, p=conv.p, q=conv.q,
            b_next=b_next, distance=d, observed=observed, claimed=claimed,
        )

    # Convergent n with its neighbours n - 1 and n + 1, for n = 1..n_max.
    convergents = exp.convergents()
    prev, conv = next(convergents), next(convergents)
    for following in convergents:
        n, b_next = conv.n, following.b
        d, hn, hd, an = leading_terms(spec, conv, prev)
        outcome = prediction(conv, hn, hd, an, b_next)
        q_ok = conv.q >= Q_MIN
        # Proven at q_n >= Q; a scan never reads the verdict at q_n < Q_MIN.
        in_unit = (conv.q >= q_unit or not (keep_terms or q_ok)
                   or exact_unit_remainder(spec, conv, prev, hn, hd))
        if keep_terms or not in_unit:
            theta_iv, r_iv, iv_in_unit, universal_ok, sign_ok = _analyze_term(
                spec, conv, prev, d, hn, hd, exp.precision_bits, max_bits
            )
            if iv_in_unit != in_unit:
                raise InconsistentEnclosureError(
                    f"remainder enclosure contradicts the unit verdict at n={n}"
                )
            if sign_ok is False:
                raise InconsistentEnclosureError(f"cubic correction sign contradicts side at n={n}")

        true_eps = b_next - outcome.candidate
        above = conv.side is Side.ABOVE
        general_window = b_next * hd <= hn < (b_next + 2) * hd  # H_n - 2 < b_{n+1} <= H_n
        window_above = general_window if above else None
        below_window = ((b_next - 2) * hd < hn <= b_next * hd) if not above else None
        above_eps = (true_eps in (0, 1)) if above else None
        below_eps = (true_eps in (-1, 0)) if not above else None

        if q_ok:
            checked.append(n)
            if not in_unit:
                violations.append(record(REMAINDER_BOUND, r_iv, CLAIM_REMAINDER))
            if not general_window:
                window_failures.append(n)
            checked_above += above
            if above:
                if spec.m == 3 and not window_above:
                    violations.append(record(
                        WINDOW_ABOVE, b_next, f"{CLAIM_ABOVE_WINDOW} with H_n = {Fraction(hn, hd)}"))
                if not above_eps:
                    above_eps_failures.append(record(
                        EPSILON_RANGE, true_eps, f"{CLAIM_ABOVE_EPSILON}; A_n = {Fraction(an, hd)}"))
            else:
                if not below_window:
                    below_window_failures.append(record(
                        WINDOW_BELOW, b_next, f"{CLAIM_BELOW_WINDOW} with H_n = {Fraction(hn, hd)}"))
                if not below_eps:
                    below_eps_failures.append(record(
                        EPSILON_RANGE, true_eps, f"{CLAIM_BELOW_EPSILON}; A_n = {Fraction(an, hd)}"))
        else:
            skipped.append(n)

        if keep_terms:
            term_checks.append(
                TermCheck(
                    n=n, b_next=b_next, side=conv.side, p=conv.p, q=conv.q,
                    distance=d, leading=Fraction(hn, hd),
                    shifted_leading=Fraction(an, hd),
                    theta=theta_iv, remainder=r_iv, remainder_in_unit=in_unit,
                    prediction=outcome, q_at_least_2=q_ok,
                    window_above_ok=window_above, below_window_ok=below_window,
                    above_epsilon_ok=above_eps, below_epsilon_ok=below_eps,
                    general_window_ok=general_window, universal_identity_ok=universal_ok,
                    cubic_sign_ok=sign_ok,
                )
            )
        prev, conv = conv, following

    def stats(claim: str, checked_on_side: int, failures: list[ViolationRecord]) -> ClaimStats:
        return ClaimStats(
            claim=claim, passed=checked_on_side - len(failures), failed=len(failures),
            failures=tuple(failures),
        )

    return TheoremReport(
        spec=spec, n_max=n_max, expansion=exp,
        checked=tuple(checked), skipped=tuple(skipped), violations=tuple(violations),
        above_epsilon=stats(CLAIM_ABOVE_EPSILON, checked_above, above_eps_failures),
        below_window=stats(CLAIM_BELOW_WINDOW, len(checked) - checked_above, below_window_failures),
        below_epsilon=stats(CLAIM_BELOW_EPSILON, len(checked) - checked_above, below_eps_failures),
        remainder_stable_from=_stable_from(
            [v.n for v in violations if v.quantity == REMAINDER_BOUND], checked),
        window_stable_from=_stable_from(window_failures, checked),
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


def _scan_cell(args) -> tuple[CellSummary | SkippedCell, tuple[ViolationRecord, ...]]:
    """(row, violations) of one (k, m) cell; its TheoremReport is never pickled."""
    k, m, n_max, max_bits = args
    try:
        spec = validate_spec(k, m)
    except ValueError as exc:
        return SkippedCell(k=k, m=m, reason=str(exc)), ()
    try:
        report = verify_theorems(spec, n_max, keep_terms=False, max_bits=max_bits)
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
