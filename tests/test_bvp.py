import concurrent.futures
import contextlib
import math
import pickle
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rootcf import bvp
from rootcf.bvp import (
    CLAIM_ABOVE_WINDOW,
    _analyze_term,
    _power_sum,
    _scan_cell,
    EPSILON_RANGE,
    Q_MIN,
    REMAINDER_BOUND,
    WINDOW_ABOVE,
    WINDOW_BELOW,
    CellSummary,
    PredictionOutcome,
    ScanReport,
    SkippedCell,
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
from rootcf.cli import parse_args, run
from rootcf.engine import (
    Convergent,
    Side,
    complete_quotient_interval,
    expand,
    next_partial_quotient,
)
from rootcf.exact import (
    DEFAULT_MAX_BITS,
    InconsistentEnclosureError,
    PrecisionCeilingError,
    WrongDegreeError,
    alpha_interval,
    fraction_string,
    refine,
    validate_spec,
)

import oracles
from conftest import leading_fractions, pair, spec_or_reject, walk_step, within

SPEC_50_10 = validate_spec(50, 10)
SPEC_2_3 = validate_spec(2, 3)

EXP_50 = expand(SPEC_50_10, 4)
EXP_2 = expand(SPEC_2_3, 8)


class TestExactQuantities:
    def test_distance_degree_ten(self):
        conv, _ = pair(EXP_50, 1)
        assert algebraic_distance(SPEC_50_10, conv) == 7849  # |59049 - 51200|

    def test_distance_cbrt2(self):
        conv0, _ = pair(EXP_2, 0)
        assert algebraic_distance(SPEC_2_3, conv0) == 1
        conv1, _ = pair(EXP_2, 1)
        assert algebraic_distance(SPEC_2_3, conv1) == 10  # |64 - 54|
        conv2, _ = pair(EXP_2, 2)
        assert algebraic_distance(SPEC_2_3, conv2) == 3  # |125 - 128|

    def test_leading_degree_ten(self):
        d, h, _ = leading_fractions(SPEC_50_10, *pair(EXP_50, 1))
        assert d == 7849
        assert h == Fraction(196830, 15698)
        assert abs(h - Fraction("12.5385")) <= Fraction(1, 10 ** 4)

    def test_leading_cbrt2(self):
        assert leading_fractions(SPEC_2_3, *pair(EXP_2, 0))[:2] == (1, 3)
        assert leading_fractions(SPEC_2_3, *pair(EXP_2, 1))[:2] == (10, Fraction(8, 5))

    def test_shifted_leading(self):
        assert leading_fractions(SPEC_2_3, *pair(EXP_2, 1))[2] == Fraction(19, 15)
        assert leading_fractions(SPEC_2_3, *pair(EXP_2, 2)) == (3, Fraction(25, 4), Fraction(11, 2))


def analyzed(spec, conv, prev, in_unit):
    """_analyze_term's (theta, R) from 64 bits, R showing the verdict in_unit."""
    return _analyze_term(spec, walk_step(spec, conv, prev), in_unit, 64, DEFAULT_MAX_BITS)


class TestRemainder:
    # The R_n values are read from the enclosures verify prints.
    def test_degree_ten_value(self):
        iv = next(term_checks(verify_theorems(SPEC_50_10, 1))).remainder
        assert oracles.width(iv) <= Fraction(1, 10 ** 3)
        # R_1 = -1.26960464...; endpoints within 1e-4 of the quoted -1.2696
        assert within(iv, Fraction("-1.2696"), Fraction(1, 10 ** 4))
        assert iv.hi < -1

    def test_cbrt2_above_inside_unit(self):
        iv = next(term_checks(verify_theorems(SPEC_2_3, 2))).remainder
        assert oracles.width(iv) <= Fraction(1, 10 ** 6)
        assert -1 < iv.lo and iv.hi < 0
        # theta_1 - 8/5 = -0.41981126...
        assert within(iv, Fraction("-0.4198113"), Fraction(1, 10 ** 5))

    def test_cbrt2_below_inside_unit(self):
        iv = list(term_checks(verify_theorems(SPEC_2_3, 2)))[1].remainder
        assert oracles.width(iv) <= Fraction(1, 10 ** 6)
        assert -1 < iv.lo and iv.hi < 0  # below side, still negative

    def test_certified_unit_check(self):
        _, iv = analyzed(SPEC_50_10, *pair(EXP_50, 1), False)
        assert iv.hi < -1
        _, iv2 = analyzed(SPEC_2_3, *pair(EXP_2, 2), True)
        assert -1 < iv2.lo and iv2.hi < 1
        # An R_n enclosure that decides against the verdict it is given raises.
        with pytest.raises(InconsistentEnclosureError, match="contradicts the unit verdict at n=1"):
            analyzed(SPEC_50_10, *pair(EXP_50, 1), True)
        with pytest.raises(InconsistentEnclosureError, match="contradicts the unit verdict at n=2"):
            analyzed(SPEC_2_3, *pair(EXP_2, 2), False)

    def test_two_routes_intersect_and_tighten(self):
        conv, prev = pair(EXP_2, 3)
        _, h, _ = leading_fractions(SPEC_2_3, conv, prev)
        shift = Fraction(prev.q, conv.q)
        for bits in (96, 192):
            a_iv = alpha_interval(SPEC_2_3, bits)
            via_w = oracles.as_interval(general_correction(SPEC_2_3, conv, a_iv)) - shift
            via_theta = oracles.as_interval(complete_quotient_interval(conv, prev, a_iv)) - h
            assert via_w.intersects(via_theta)
            combined = oracles.remainder(2, 3, conv.p, conv.q, prev.p, prev.q, oracles.as_interval(a_iv))
            assert via_w.contains_interval(combined)
            assert via_theta.contains_interval(combined)

    @given(k=st.integers(min_value=2, max_value=1000), m=st.integers(min_value=3, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_unit_verdict_matches_exact_oracle(self, k, m):
        # The R_n enclosure of `_analyze_term` must show the test-side
        # integer-sign decision of H_n - 1 < theta_n < H_n + 1, and raise on
        # its negation, and the package's exact verdict must equal it, for
        # every n in 1..14.
        spec = spec_or_reject(k, m)
        exp = expand(spec, 14)
        for n in range(1, 15):
            conv, prev = pair(exp, n)
            expected = oracles.unit_remainder_exact(k, m, conv.p, conv.q, prev.p, prev.q)
            analyzed(spec, conv, prev, expected)
            with pytest.raises(InconsistentEnclosureError):
                analyzed(spec, conv, prev, not expected)
            _, hn, hd, _ = leading_terms(spec, conv, prev)
            assert exact_unit_remainder(spec, conv, prev, hn, hd) == expected

    @given(
        k=st.integers(min_value=2, max_value=1000),
        m=st.integers(min_value=2, max_value=8),
        pq=st.lists(st.integers(min_value=1, max_value=10 ** 6), min_size=4, max_size=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_exact_verdict_on_arbitrary_pairs(self, k, m, pq):
        # On true convergents R_n stays far below +1, so the upper side of
        # H_n - 1 < theta_n < H_n + 1 never decides there.  The sign
        # argument holds for any p/q and p'/q', where both sides do.
        spec = spec_or_reject(k, m)
        p, q, pp, qp = pq
        conv = Convergent(n=1, b=1, p=p, q=q, side=Side(oracles.convergent_side(k, m, p, q)))
        prev = Convergent(n=0, b=1, p=pp, q=qp, side=Side(oracles.convergent_side(k, m, pp, qp)))
        _, hn, hd, _ = leading_terms(spec, conv, prev)
        assert exact_unit_remainder(spec, conv, prev, hn, hd) == oracles.unit_remainder_exact(k, m, p, q, pp, qp)


class TestUnitThreshold:
    # Q(k, m): |R_n| < 1 is proven at every q_n >= Q, and decided exactly below.
    def test_cbrt2(self):
        assert unit_threshold(SPEC_2_3, EXP_2.precision_bits) == 2

    def test_k2_over_degrees(self):
        # C falls as alpha grows, so k = 2 gives each degree's largest Q.
        got = [unit_threshold(validate_spec(2, m), 64) for m in range(3, 13)]
        assert got == [2, 3, 4, 4, 5, 6, 6, 7, 7, 8]

    def test_cubic_two_for_every_k(self):
        # The paper's cubic theorem: |R_n| < 1 wherever q_n >= 2.
        for k in range(2, 2001):
            if oracles.nth_root_bisect(k, 3) ** 3 != k:
                assert unit_threshold(validate_spec(k, 3), 64) == 2, k

    @given(
        k=st.integers(min_value=2, max_value=10 ** 5),
        m=st.integers(min_value=2, max_value=12),
        n=st.integers(min_value=1, max_value=60),
    )
    @settings(max_examples=80, deadline=None)
    @example(k=10, m=7, n=3)  # |R_1| > 1 at q_1 = 2, below Q = 4
    @example(k=2, m=12, n=20)  # the largest Q of the sweep, 8
    def test_verdict_matches_exact_test(self, k, m, n):
        # verify's verdict, proven at q_n >= Q and checked against the R_n
        # enclosure at every kept term, is the exact sign test's at every
        # index; Q is the oracle's, computed in Fractions.
        spec = spec_or_reject(k, m)
        report = verify_theorems(spec, n)
        bits = report.expansion.precision_bits
        q_unit = unit_threshold(spec, bits)
        assert q_unit == oracles.unit_threshold(k, m, bits)
        for t in term_checks(report):
            conv, prev = pair(report.expansion, t.n)
            exact = exact_unit_remainder(spec, conv, prev, *leading_terms(spec, conv, prev)[1:3])
            assert t.remainder_in_unit == exact
            assert exact or t.q < q_unit


class TestCubicCorrection:
    def test_above_positive(self):
        conv, _ = pair(EXP_2, 1)
        iv = cubic_correction(SPEC_2_3, conv, alpha_interval(SPEC_2_3, 200))
        # (3/10)(32/9 - (4/3)a - a**2) = 0.08647793...
        assert within(iv, Fraction("0.0864779"), Fraction(1, 10 ** 5))
        assert iv.lo > 0

    def test_below_negative(self):
        conv, _ = pair(EXP_2, 2)
        iv = cubic_correction(SPEC_2_3, conv, alpha_interval(SPEC_2_3, 200))
        # closed form (2x + a)/(q**2 (x**2 + xa + a**2)) = 0.04973648..., sign flipped
        assert within(iv, Fraction("-0.0497365"), Fraction(1, 10 ** 5))
        assert iv.hi < 0

    def test_sign_matches_integer_sign(self):
        a_iv = alpha_interval(SPEC_2_3, 300)
        for n in range(1, 9):
            conv, _ = pair(EXP_2, n)
            iv = cubic_correction(SPEC_2_3, conv, a_iv)
            integer_sign = 1 if conv.p ** 3 > 2 * conv.q ** 3 else -1
            assert (iv.lo > 0) == (integer_sign > 0)
            assert (iv.hi < 0) == (integer_sign < 0)

    def test_wrong_degree(self):
        conv, _ = pair(EXP_50, 1)
        with pytest.raises(WrongDegreeError):
            cubic_correction(SPEC_50_10, conv, alpha_interval(SPEC_50_10, 64))

    def test_negated_general_correction(self):
        # For m = 3, V_n = -W_n, and the oracle's closed form of V_n meets
        # its defining form.
        a_iv = alpha_interval(SPEC_2_3, 200)
        for n in range(1, 8):
            conv, _ = pair(EXP_2, n)
            v = oracles.as_interval(cubic_correction(SPEC_2_3, conv, a_iv))
            assert v == -oracles.as_interval(general_correction(SPEC_2_3, conv, a_iv))
            assert v == oracles.cubic_correction(2, conv.p, conv.q, oracles.as_interval(a_iv))

    @pytest.mark.parametrize("k", [2, 3, 17, 100])
    def test_quadratic_decay_bound(self, k):
        # |V_n| * q_n**2 stays below 2/alpha + 1 for n >= 2 (the closed form
        # tends to 1/alpha, so this bound has room to spare).
        spec = validate_spec(k, 3)
        exp = expand(spec, 12)
        a_iv = alpha_interval(spec, 256)
        cap = 2 / oracles.as_interval(a_iv).hi + 1
        for n in range(2, 12):
            conv, _ = pair(exp, n)
            v = cubic_correction(spec, conv, a_iv)
            scaled_magnitude = (v.hi if v.lo > 0 else -v.lo) * conv.q ** 2
            assert scaled_magnitude < cap


class TestGeneralCorrection:
    def test_degree_ten_value(self):
        conv, _ = pair(EXP_50, 1)
        iv = general_correction(SPEC_50_10, conv, alpha_interval(SPEC_50_10, 128))
        # W_1 = R_1 + q_0/q_1 = -1.26960464... + 1/2 = -0.76960464...
        assert within(iv, Fraction("-0.7696046"), Fraction(1, 10 ** 5))

    def test_vanishes_when_x_equals_alpha(self):
        # Replacing p/q by a point inside the alpha enclosure forces the
        # linearization error to cancel: the enclosure must contain 0.
        spec = validate_spec(7, 4)
        a_iv = alpha_interval(spec, 64)
        x = oracles.mid(oracles.as_interval(a_iv))
        conv = Convergent(n=1, b=1, p=x.numerator, q=x.denominator, side=Side.ABOVE)
        total = general_correction(spec, conv, a_iv)
        assert total.lo <= 0 <= total.hi

    def test_quadratic_degree(self):
        # m = 2: W_n = (alpha - x_n)/d_n, sign opposite to the side.
        spec = validate_spec(2, 2)
        exp = expand(spec, 6)
        a_iv = alpha_interval(spec, 128)
        for n in range(1, 6):
            conv, _ = pair(exp, n)
            iv = general_correction(spec, conv, a_iv)
            if conv.side is Side.ABOVE:
                assert iv.hi < 0
            else:
                assert iv.lo > 0

    def test_power_sum_is_the_sum_of_monomials(self):
        for m in range(2, 13):
            for u, v in ((3, 5), (-7, 2), (0, 4), (6, 0), (1 << 70, -(3 ** 40))):
                assert _power_sum(u, v, m) == sum(u ** (m - 1 - j) * v ** j for j in range(m))


class TestPredictNext:
    def test_cbrt2_first(self):
        conv, prev = pair(EXP_2, 1)
        out = predict_next(SPEC_2_3, conv, prev)
        assert (out.candidate, out.epsilon, out.predicted, out.actual) == (1, 0, 1, 1)
        assert out.formula_held and out.window_held

    def test_degree_ten_failure(self):
        conv, prev = pair(EXP_50, 1)
        out = predict_next(SPEC_50_10, conv, prev)
        assert out.candidate == 12
        assert out.actual == 11
        assert not out.formula_held
        assert out.predicted == 12

    def test_cbrt2_below_side(self):
        conv, prev = pair(EXP_2, 2)
        out = predict_next(SPEC_2_3, conv, prev)
        assert (out.candidate, out.epsilon, out.predicted, out.actual) == (5, 0, 5, 5)
        assert out.formula_held

    def test_cbrt3_integer_shift(self):
        # k = 3, n = 1: A_1 = 4 exactly but b_2 = 3; the two-candidate
        # window {floor(A), floor(A)+1} misses from above.
        spec = validate_spec(3, 3)
        conv, prev = pair(expand(spec, 2), 1)
        assert leading_fractions(spec, conv, prev)[2] == 4
        out = predict_next(spec, conv, prev)
        assert out.candidate == 4 and out.actual == 3
        assert not out.formula_held
        assert out.window_held  # H - 2 = 2.5 < 3 <= H = 4.5

    def test_invariants_across_expansion(self):
        exp = expand(SPEC_2_3, 15)
        for n in range(1, 15):
            conv, prev = pair(exp, n)
            out = predict_next(SPEC_2_3, conv, prev)
            assert out.predicted == out.candidate + out.epsilon
            assert out.formula_held == (out.predicted == out.actual)
            assert out.actual == exp.partial_quotients[n + 1]


def in_window(side, h, b):
    """The certain window, H-2 < b <= H above and H-2 < b < H+1 below,
    as integer ranges: floor(H)-1 <= b <= floor(H) above, and
    floor(H)-1 <= b <= ceil(H) below."""
    top = math.floor(h) if side is Side.ABOVE else math.ceil(h)
    return math.floor(h) - 1 <= b <= top


def searched_prediction(spec, conv, prev):
    """The floor-formula outcome from the closed forms of H_n and A_n,
    with b_{n+1} from the exact binary search alone.

    eps is 0 if b_{n+1} = floor(A_n), 1 if b_{n+1} = floor(A_n) + 1, and
    0 otherwise.
    """
    m, p, q = spec.m, conv.p, conv.q
    h = Fraction(m * p ** (m - 1), abs(p ** m - spec.k * q ** m) * q)
    candidate = math.floor(h - Fraction(prev.q, q))
    actual = next_partial_quotient(spec, conv, prev)
    eps = {candidate: 0, candidate + 1: 1}.get(actual, 0)
    return PredictionOutcome(
        n=conv.n, side=conv.side, candidate=candidate, epsilon=eps,
        predicted=candidate + eps, actual=actual,
        formula_held=candidate + eps == actual,
        window_held=in_window(conv.side, h, actual),
    )


class TestOneRoute:
    @given(
        k=st.integers(min_value=2, max_value=1000),
        m=st.integers(min_value=2, max_value=12),
        n=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=60, deadline=None)
    @example(k=3, m=3, n=1)  # A_1 = 4 but b_2 = 3: offset -1, so eps = 0
    @example(k=190, m=3, n=2)  # floor(A_2) = 0 and b_3 = 1: eps = 1
    @example(k=7, m=3, n=1)  # H_1 = 12 exactly, on the above side
    def test_certified_quotient_route_matches_exact_oracle(self, k, m, n):
        # verify and predict read b_{n+1} from the certified expansion and
        # compute d_n, H_n and A_n once.  Their outcome must equal
        # predict_next's, which searches b_{n+1} exactly, and a test-side
        # search from the closed forms.  The window rule is checked at
        # every integer near H_n, since on true convergents b_{n+1} never
        # reaches H_n on the above side.
        spec = spec_or_reject(k, m)
        exp = expand(spec, n + 1)
        conv, prev = pair(exp, n)
        d, hn, hd, an = leading_terms(spec, conv, prev)
        h = Fraction(hn, hd)
        assert d == algebraic_distance(spec, conv)
        assert h == Fraction(m * conv.p ** (m - 1), d * conv.q)
        assert Fraction(an, hd) == h - Fraction(prev.q, conv.q)
        outcome = prediction(conv, hn, hd, an, exp.partial_quotients[n + 1])
        assert outcome == predict_next(spec, conv, prev) == searched_prediction(spec, conv, prev)
        for b in range(math.floor(h) - 3, math.floor(h) + 4):
            assert prediction(conv, hn, hd, an, b).window_held == in_window(conv.side, h, b)
        report = verify_theorems(spec, n)
        for t in term_checks(report):
            assert t.prediction == predict_next(spec, *pair(exp, t.n))


class TestVerifyTheorems:
    def test_cbrt2_sweep_clean(self):
        report = verify_theorems(SPEC_2_3, 30)
        assert report.violations == ()
        assert report.remainder_stable_from == 1
        assert report.skipped == (0,)
        assert all(t.remainder_in_unit for t in term_checks(report))

    def test_degree_ten_golden_violation(self):
        report = verify_theorems(SPEC_50_10, 1)
        assert len(report.violations) == 1
        record = report.violations[0]
        assert record.quantity == REMAINDER_BOUND
        assert (record.k, record.m, record.n) == (50, 10, 1)
        assert (record.p, record.q, record.b_next, record.distance) == (3, 2, 11, 7849)
        assert record.observed.hi < -1
        assert report.remainder_stable_from is None

    def test_below_window_claim_fails_at_cbrt2_n2(self):
        report = verify_theorems(SPEC_2_3, 5)
        assert report.below_window.failed >= 1
        failure = report.below_window.failures[0]
        assert failure.n == 2
        assert failure.quantity == WINDOW_BELOW
        assert failure.b_next == 5
        assert "25/4" in failure.claimed
        assert failure.claimed.startswith(report.below_window.claim)
        # the certified companion fact: |R_2| < 1
        term = next(t for t in term_checks(report) if t.n == 2)
        assert term.remainder_in_unit

    def test_above_epsilon_claim_fails_at_cbrt3(self):
        report = verify_theorems(validate_spec(3, 3), 5)
        assert report.above_epsilon.failed == 1
        failure = report.above_epsilon.failures[0]
        assert failure.n == 1 and failure.quantity == EPSILON_RANGE
        assert failure.observed == -1
        assert report.violations == ()  # certified claims all hold

    @pytest.mark.parametrize("m", [3, 4])
    def test_window_above_failure_is_a_cubic_violation(self, monkeypatch, m):
        # Every certified above-side step holds its window, so the walk is
        # perturbed: the first checked above-side step reads b_{n+1} two
        # above the certified one.  For cubics that is a window_above
        # violation, listed after any remainder_bound record at its index;
        # for other degrees the window is no certified claim.
        walk = bvp.index_walk
        hit = []

        def perturbed(spec, exp):
            hit.clear()
            for step in walk(spec, exp):
                _, conv, _, hn, hd, an, outcome = step
                if not hit and conv.side is Side.ABOVE and conv.q >= Q_MIN:
                    hit.append((conv.n, hn, hd, outcome.actual + 2))
                    step = (*step[:-1], prediction(conv, hn, hd, an, outcome.actual + 2))
                yield step

        monkeypatch.setattr(bvp, "index_walk", perturbed)
        report = verify_theorems(validate_spec(2, m), 10)
        [(n, hn, hd, b_next)] = hit
        at_n = [v for v in report.violations if v.n == n]
        if m != 3:
            assert WINDOW_ABOVE not in [v.quantity for v in report.violations]
            return
        *before, record = at_n
        assert all(v.quantity == REMAINDER_BOUND for v in before)
        assert record.quantity == WINDOW_ABOVE
        assert record.observed == record.b_next == b_next
        assert record.claimed == f"{CLAIM_ABOVE_WINDOW} with H_n = {fraction_string(hn, hd)}"

    def test_degree_ten_threshold(self):
        report = verify_theorems(SPEC_50_10, 30)
        assert report.remainder_stable_from == 2
        assert not hasattr(report, "terms")  # the report holds no per-index record

    def test_term_records(self):
        terms = list(term_checks(verify_theorems(SPEC_50_10, 3)))
        assert [t.n for t in terms] == [1, 2, 3]
        t1 = terms[0]
        assert t1.side is Side.ABOVE
        assert not t1.remainder_in_unit
        assert t1.universal_identity_ok
        assert t1.general_window_ok  # 11 <= 12.53 and 13 > 12.53

    def test_term_checks_decide_the_unit_verdict_themselves(self):
        # |R_1| < 1 fails at 50^(1/10); term_checks decides that from the
        # expansion, not from the report's violations, which are dropped here.
        report = verify_theorems(SPEC_50_10, 1)
        assert [v.quantity for v in report.violations] == [REMAINDER_BOUND]
        assert next(term_checks(report._replace(violations=()))).remainder_in_unit is False

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            verify_theorems(SPEC_2_3, 0)

    @given(
        k=st.integers(min_value=2, max_value=1000),
        m=st.integers(min_value=2, max_value=12),
        n_max=st.integers(min_value=1, max_value=40),
        cap=st.sampled_from([64, 128, DEFAULT_MAX_BITS]),
    )
    @settings(max_examples=60, deadline=None)
    def test_scan_mode_matches_full_analysis(self, k, m, n_max, cap):
        # The report decides |R_n| < 1 by exact signs and encloses only
        # violations; `term_checks` encloses every index under the same
        # cap, each violation's R_n as the report does.  The exact
        # identity flag holds at every term, the exact cubic sign flag
        # agrees with the interval route, its oracle here, and the integer
        # floor formula and windows agree with the oracle's reduced
        # Fractions.
        spec = spec_or_reject(k, m)
        try:
            report = verify_theorems(spec, n_max, max_bits=cap)
        except PrecisionCeilingError:
            return
        terms = list(term_checks(report))
        assert [t.n for t in terms] == list(range(1, n_max + 1))
        for v in report.violations:
            if v.quantity == REMAINDER_BOUND:
                assert terms[v.n - 1].remainder == v.observed
        alpha = oracles.alpha_enclosure(k, m, 256)
        for t in terms:
            assert t.universal_identity_ok
            qp = pair(report.expansion, t.n)[1].q
            want = oracles.floor_prediction(k, m, t.p, t.q, qp, t.side.value, t.b_next)
            got = {**t._asdict(), **t.prediction._asdict(), "leading": Fraction(*t.leading),
                   "shifted_leading": Fraction(*t.shifted_leading)}
            assert {key: got[key] for key in want} == want
            if m == 3:
                v_iv = oracles.cubic_correction(k, t.p, t.q, alpha)
                assert t.cubic_sign_ok == ((v_iv.lo > 0) == (t.side is Side.ABOVE))
            else:
                assert t.cubic_sign_ok is None
        # Each measured claim is tallied from its flag over the checked
        # terms, and fails exactly where the flag is False.
        checked = [t for t in terms if t.q_at_least_2]
        assert [t.n for t in checked] == list(report.checked)
        for field, flag in (("above_epsilon", "above_epsilon_ok"),
                            ("below_window", "below_window_ok"),
                            ("below_epsilon", "below_epsilon_ok")):
            stats, held = getattr(report, field), [getattr(t, flag) for t in checked]
            assert (stats.passed, stats.failed) == (held.count(True), held.count(False))
            assert [f.n for f in stats.failures] == [t.n for t in checked if getattr(t, flag) is False]


def interval_route(spec, conv, prev, start_bits):
    """(theta, R, in_unit) by the oracles' interval arithmetic on their own
    enclosure of alpha, refined until R decides |R_n| < 1."""
    k, m = spec
    args = (conv.p, conv.q, prev.p, prev.q)

    def attempt(bits):
        alpha = oracles.alpha_enclosure(k, m, bits)
        try:
            r = oracles.remainder(k, m, *args, alpha)
        except ZeroDivisionError:
            return None
        in_unit = r.strictly_inside(-1, 1)
        if in_unit or r.hi < -1 or r.lo > 1:
            return oracles.complete_quotient_interval(*args, alpha), r, in_unit
        return None

    return refine(attempt, start_bits, DEFAULT_MAX_BITS)


class TestAnalyzeTerm:
    @given(
        k=st.integers(min_value=2, max_value=1000),
        m=st.integers(min_value=2, max_value=12),
        n=st.integers(min_value=1, max_value=40),
        start=st.one_of(st.none(), st.integers(min_value=1, max_value=160)),
    )
    @settings(max_examples=150, deadline=None)
    @example(k=2, m=3, n=6, start=8)  # q_6 = 227: 8 bits cannot separate q_n*alpha - p_n from 0
    def test_integer_endpoints_match_interval_route(self, k, m, n, start):
        # The integer-endpoint enclosures are the interval route's, to the last
        # endpoint, also where q_n*alpha - p_n is not separated from 0 at
        # `start` bits (None starts at the expansion's bits, as verify does),
        # and never contradict the route's verdict.
        spec = spec_or_reject(k, m)
        exp = expand(spec, n + 1)
        conv, prev = pair(exp, n)
        bits = start or exp.precision_bits
        *want, in_unit = interval_route(spec, conv, prev, bits)
        theta, r = _analyze_term(spec, walk_step(spec, conv, prev), in_unit, bits, DEFAULT_MAX_BITS)
        assert [oracles.as_interval(theta), oracles.as_interval(r)] == want

        a_iv = alpha_interval(spec, bits)
        alpha = oracles.alpha_enclosure(k, m, bits)
        assert oracles.as_interval(a_iv) == alpha
        try:
            want = oracles.complete_quotient_interval(conv.p, conv.q, prev.p, prev.q, alpha)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                complete_quotient_interval(conv, prev, a_iv)
        else:
            assert oracles.as_interval(complete_quotient_interval(conv, prev, a_iv)) == want
        want = oracles.general_correction(k, m, conv.p, conv.q, alpha)
        assert oracles.as_interval(general_correction(spec, conv, a_iv)) == want
        if m == 3:
            want = oracles.cubic_correction(k, conv.p, conv.q, alpha)
            assert oracles.as_interval(cubic_correction(spec, conv, a_iv)) == want

    def test_climbs_until_decided_and_raises_on_contradiction(self, monkeypatch):
        # 4784^(1/10) at n = 1 (p/q = 5/2), from 8 bits: q_1*alpha - p_1 is
        # separated from 0 there, but R_1's enclosure straddles -1; at 16
        # bits it decides |R_1| >= 1 (R_1 = -1.0065...), the exact verdict.
        spec = validate_spec(4784, 10)
        conv, prev = pair(expand(spec, 2), 1)
        assert (conv.p, conv.q) == (5, 2)
        step = walk_step(spec, conv, prev)
        assert not exact_unit_remainder(spec, conv, prev, *step[3:5])
        # Raises ZeroDivisionError unless 8 bits separate q_1*alpha - p_1 from 0.
        assert complete_quotient_interval(conv, prev, alpha_interval(spec, 8)).lo > 0
        calls = []

        def spy(spec, bits):
            calls.append(bits)
            return alpha_interval(spec, bits)

        monkeypatch.setattr(bvp, "alpha_interval", spy)
        r = _analyze_term(spec, step, False, 8, DEFAULT_MAX_BITS)[1]
        assert calls == [8, 16]
        assert r.hi < -1 and within(r, Fraction("-1.0065"), Fraction(1, 10 ** 4))
        with pytest.raises(InconsistentEnclosureError, match="contradicts the unit verdict at n=1"):
            _analyze_term(spec, step, True, 8, DEFAULT_MAX_BITS)


class TestScan:
    def test_empty_range(self):
        report = scan([], [], 5)
        assert report.cells == () and report.violations == () and report.skipped == ()

    def test_degree_ten_single_cell(self):
        report = scan([50], [10], 1)
        assert len(report.violations) == 1
        assert report.violations[0].quantity == REMAINDER_BOUND
        assert (report.violations[0].k, report.violations[0].m, report.violations[0].n) == (50, 10, 1)

    def test_small_cubic_grid_clean(self):
        report = scan(range(2, 30), [3], 12)
        assert report.violations == ()
        assert {c.k for c in report.cells} == set(range(2, 30)) - {8, 27}
        assert {s.k for s in report.skipped} == {8, 27}
        assert all(c.remainder_stable_from == 1 for c in report.cells)

    def test_deterministic_and_parallel_agree(self):
        serial = scan(range(2, 14), [3, 4], 8)
        parallel = scan(range(2, 14), [3, 4], 8, workers=2)
        assert serial == parallel

    def test_matches_per_cell_reference(self):
        # Built cell by cell in (m, k) order with nothing sorted: scan's
        # merge keeps the order its cells and violations come in.
        cells, skipped, violations = [], [], []
        for m in range(7, 13):
            for k in range(2, 61):
                try:
                    spec = validate_spec(k, m)
                except ValueError as exc:
                    skipped.append(SkippedCell(k=k, m=m, reason=str(exc)))
                    continue
                report = verify_theorems(spec, 6)
                cells.append(CellSummary(
                    k=k, m=m, n_max=6, violations=len(report.violations),
                    remainder_stable_from=report.remainder_stable_from,
                    window_stable_from=report.window_stable_from,
                ))
                violations.extend(report.violations)
        assert (len(cells), len(skipped), len(violations)) == (331, 23, 148)
        assert {v.quantity for v in violations} == {REMAINDER_BOUND}
        keys = [(v.m, v.k, v.n, v.quantity) for v in violations]
        assert keys == sorted(keys)
        want = ScanReport(cells=tuple(cells), skipped=tuple(skipped), violations=tuple(violations))
        for workers in (1, 2):
            assert scan(range(2, 61), range(7, 13), 6, workers=workers) == want

    def test_cell_result_is_small(self):
        # A cell hands back its row and violations only; its TheoremReport,
        # with 202 big-integer convergents here, never crosses the pool.
        result = _scan_cell((2, 3, 200, DEFAULT_MAX_BITS))
        assert len(pickle.dumps(result)) < 1024
        row, cell_violations = result
        assert isinstance(row, CellSummary) and cell_violations == ()

    def test_sorted_by_degree_then_radicand(self):
        report = scan([50, 2], [10, 3], 2)
        keys = [(c.m, c.k) for c in report.cells]
        assert keys == sorted(keys)

    def test_capped_cell_kept_as_skipped(self):
        # At a 64-bit cap, 18 terms of cbrt(k) fit for k = 2, 4, 7 only.
        # The other cells become skipped rows; the finished ones are kept.
        for workers in (1, 2):
            report = scan(range(2, 13), [3], 18, max_bits=64, workers=workers)
            assert [c.k for c in report.cells] == [2, 4, 7]
            assert [(s.k, s.precision_capped) for s in report.skipped] == [
                (3, True), (5, True), (6, True), (8, False),
                (9, True), (10, True), (11, True), (12, True),
            ]
            assert {s.reason for s in report.skipped if s.precision_capped} == {
                "precision refinement exceeded the 64-bit cap"
            }

    def test_pool_capped_at_cells(self, monkeypatch):
        # The pool starts all its workers at once.  A recorder that maps
        # serially stands in for it: this test starts no process.
        pools = []

        def serial_pool(max_workers):
            pools.append(max_workers)
            return contextlib.nullcontext(SimpleNamespace(map=lambda fn, jobs, chunksize: map(fn, jobs)))

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", serial_pool)
        assert scan([2, 3], [3], 5, workers=5000) == scan([2, 3], [3], 5)
        assert pools == [2]
        scan([2], [3], 5, workers=5000)  # one cell runs in this process
        assert pools == [2]
        payload = run(parse_args(["scan", "--m", "3", "--k-range", "2..3", "--terms", "5",
                                  "--workers", "5000"]))
        assert pools == [2, 2]
        assert payload["config"]["workers"] == 5000
