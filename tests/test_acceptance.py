"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`.  Criteria 4 and 5
measure stated claims that the harness refutes and assert the refutation:
criterion 4 pins the exact counterexamples to the above-side epsilon range
{0, 1} (W_n < 0 above, so the proven range is {-1, 0}), criterion 5 the
below-side window counterexample at (k=2, n=2).
"""
import subprocess
import sys
import time
from fractions import Fraction

from rootcf.bvp import (
    EPSILON_RANGE,
    REMAINDER_BOUND,
    WINDOW_ABOVE,
    WINDOW_BELOW,
    cubic_correction,
    general_correction,
    predict_next,
    term_checks,
    verify_theorems,
)
from rootcf.cli import parse_args, run
from rootcf.engine import (
    Side,
    complete_quotient_interval,
    expand,
)
from rootcf.exact import alpha_interval, validate_spec
from rootcf.report import emit

import oracles
from conftest import SWEEP_N_MAX, leading_fractions, pair, within


def report_line(cid: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {cid}: {status} - {detail}")
    assert ok, f"{cid} FAILED - {detail}"


def test_criterion_1_golden_degree_ten():
    """Degree-10 golden case reproduced exactly, in under a second."""
    t0 = time.perf_counter()
    spec = validate_spec(50, 10)
    exp = expand(spec, 3)
    conv, prev = pair(exp, 1)

    assert exp.partial_quotients == [1, 2, 11, 3]
    assert (conv.p, conv.q) == (3, 2)

    from rootcf.bvp import algebraic_distance

    assert algebraic_distance(spec, conv) == 7849

    _, h, _ = leading_fractions(spec, conv, prev)
    assert h == Fraction(196830, 15698)
    assert abs(h - Fraction("12.5385")) <= Fraction(1, 10 ** 4)

    # theta_1 and R_1 as verify encloses and prints them.
    term = next(term_checks(verify_theorems(spec, 1)))
    theta = term.theta
    assert oracles.width(theta) <= Fraction(1, 10 ** 3)
    assert within(theta, "11.2689", Fraction(1, 10 ** 4))

    r_iv = term.remainder
    assert oracles.width(r_iv) <= Fraction(1, 10 ** 3)
    assert within(r_iv, "-1.2696", Fraction(1, 10 ** 4))
    assert not term.remainder_in_unit and r_iv.hi < -1

    outcome = predict_next(spec, conv, prev)
    assert term.prediction == outcome
    import math

    assert math.floor(h) == 12
    assert outcome.actual == 11
    assert not outcome.formula_held

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    report_line(
        "criterion-1",
        True,
        f"degree-10 golden case exact (d=7849, H=196830/15698, theta~11.2689, "
        f"R~-1.2696 certified < -1, floor prediction 12 != 11) in {elapsed:.3f}s",
    )


def test_criterion_2_cubic_remainder_stability(cubic_sweep, cubic_sweep_terms):
    """All cubic remainders with q_n >= 2 certified strictly inside (-1, 1)."""
    bad = []
    checked = 0
    for k, report in cubic_sweep.items():
        assert not any(v.quantity == REMAINDER_BOUND for v in report.violations)
        for t in cubic_sweep_terms[k]:
            if t.q_at_least_2:
                checked += 1
                if not t.remainder_in_unit:
                    bad.append((k, t.n))
    report_line(
        "criterion-2",
        not bad,
        f"|R_n| < 1 certified for all {checked} cubic terms with q_n >= 2 "
        f"(k in [2, 200] non-cube, n <= {SWEEP_N_MAX}); failures: {bad}",
    )


def test_criterion_3_above_side_window(cubic_sweep, cubic_sweep_terms):
    """Every above-side cubic convergent satisfies H-2 < b_{n+1} <= H exactly."""
    bad = []
    checked = 0
    for k, report in cubic_sweep.items():
        assert not any(v.quantity == WINDOW_ABOVE for v in report.violations)
        for t in cubic_sweep_terms[k]:
            if t.q_at_least_2 and t.side is Side.ABOVE:
                checked += 1
                if not (Fraction(*t.leading) - 2 < t.b_next <= Fraction(*t.leading)):
                    bad.append((k, t.n))
    report_line(
        "criterion-3",
        not bad,
        f"exact window H-2 < b <= H held for all {checked} above-side terms; failures: {bad}",
    )


def test_criterion_4_above_side_epsilon_range(cubic_sweep, cubic_sweep_terms):
    """Above-side cubic offsets b_{n+1} - floor(A_n) lie in {-1, 0}, and the
    claimed range {0, 1} is refuted by exactly the documented counterexamples.

    theta_n = A_n + W_n, where W_n carries the sign of alpha - x_n, so
    -1 < W_n < 0 above (|W_n| < 1 for cubics with q_n >= 2).  Hence
    b_{n+1} = floor(theta_n) is floor(A_n) - 1 or floor(A_n), and an integer
    A_n forces floor(A_n) - 1.  The verifier's measured above_epsilon claim
    must list exactly the offset -1 terms; the sweep holds seven, all at
    n = 1 with A_1 an integer (k=3 is the smallest: A_1 = 4, b_2 = 3).
    """
    out_of_range = []
    refuted = set()
    checked = 0
    for k, report in cubic_sweep.items():
        own = set()
        for t in cubic_sweep_terms[k]:
            if t.q_at_least_2 and t.side is Side.ABOVE:
                checked += 1
                out = t.prediction
                offset = out.actual - out.candidate
                if offset not in (-1, 0):
                    out_of_range.append((k, t.n, offset))
                if Fraction(*t.shifted_leading).denominator == 1:
                    assert offset == -1, f"integer A_n with offset {offset} at k={k}, n={t.n}"
                if offset == -1:
                    own.add((k, t.n))
                    assert not out.formula_held and out.window_held
                elif offset == 0:
                    assert out.formula_held
        measured = {(f.k, f.n) for f in report.above_epsilon.failures}
        assert all(f.quantity == EPSILON_RANGE and f.observed == -1
                   for f in report.above_epsilon.failures)
        assert measured == own, f"k={k}: verifier lists {measured}, terms give {own}"
        refuted |= own
    assert not out_of_range, f"above-side offsets outside {{-1, 0}}: {out_of_range}"
    assert refuted == {(k, 1) for k in (3, 15, 42, 90, 91, 165, 166)}, sorted(refuted)

    payload = run(parse_args(["verify", "--k", "3", "--m", "3", "--terms", "3"]))
    claim = payload["results"][0]["claims"]["above_epsilon"]
    assert claim["failed"] == 1
    assert (claim["failures"][0]["n"], claim["failures"][0]["observed"]) == (1, -1)
    report_line(
        "criterion-4",
        True,
        f"above-side offsets in {{-1,0}} for all {checked} above-side predictions; "
        f"the claim eps in {{0,1}} is refuted by {len(refuted)} exact counterexamples "
        f"(offset -1): {sorted(refuted)}",
    )


def test_criterion_5_below_side_claim_discrepancy(cubic_sweep, cubic_sweep_terms):
    """The below-side window claim H <= b < H+2 is measured (not assumed)
    and fails at (k=2, m=3, n=2): H_2 = 25/4 while b_3 = 5; the companion
    fact |R_2| < 1 is certified alongside."""
    report = cubic_sweep[2]
    failure = next((f for f in report.below_window.failures if f.n == 2), None)
    assert failure is not None, "expected a measured below-window failure at n=2"
    assert failure.quantity == WINDOW_BELOW
    assert failure.b_next == 5
    assert leading_fractions(report.spec, *pair(report.expansion, 2))[1] == Fraction(25, 4)
    assert "25/4" in failure.claimed
    # measured, not asserted: it must NOT appear among certified violations
    assert not any(v.quantity == WINDOW_BELOW for v in report.violations)
    term = next(t for t in cubic_sweep_terms[2] if t.n == 2)
    assert term.remainder_in_unit
    # and the claim is also visible in the CLI verify report
    payload = run(parse_args(["verify", "--k", "2", "--m", "3", "--terms", "3"]))
    claim = payload["results"][0]["claims"]["below_window"]
    assert claim["failed"] >= 1 and claim["failures"][0]["n"] == 2
    report_line(
        "criterion-5",
        True,
        "below-side claim 'H <= b < H+2' measured and found failing at "
        "(k=2, n=2): H=25/4, b=5, with |R_2| < 1 certified alongside",
    )


def test_criterion_6_oracle_equivalence():
    """Interval engine and exact oracle agree on 100 terms; quadratic cases
    are periodic with the classical period and satisfy the Pell identity."""
    cases = [(2, 3), (3, 3), (5, 3), (2, 5), (50, 10), (2, 2), (5, 2)]
    for k, m in cases:
        spec = validate_spec(k, m)
        fast = expand(spec, 100)
        slow = oracles.expand_exact_oracle(k, m, 100)
        assert fast.partial_quotients == slow, f"disagreement at {(k, m)}"
        if m == 2:
            period = {2: 2, 5: 4}[k]
            assert all(b == period for b in fast.partial_quotients[1:])
            for t in fast.convergents():
                assert abs(t.p * t.p - k * t.q * t.q) == 1
    report_line(
        "criterion-6",
        True,
        f"expand == expand_exact_oracle on 100 terms for {cases}; "
        "quadratic cases periodic with Pell identity |p^2 - k q^2| = 1",
    )


def test_criterion_7_identity_suites(cubic_sweep, cubic_sweep_terms):
    """Determinant, side alternation, the q^-2 identity, both cubic forms,
    exact signs, and the two remainder routes, across the whole sweep."""
    for k, report in cubic_sweep.items():
        terms = tuple(report.expansion.convergents())
        for prev, cur in zip(terms, terms[1:]):
            assert abs(cur.p * prev.q - prev.p * cur.q) == 1
            assert cur.side is not prev.side
        for t in cubic_sweep_terms[k]:
            assert t.universal_identity_ok, f"universal identity overlap failed at k={k}, n={t.n}"
            assert t.cubic_sign_ok is True, f"cubic sign undetermined at k={k}, n={t.n}"
            sign = 1 if t.p ** 3 > k * t.q ** 3 else -1
            assert (t.side is Side.ABOVE) == (sign > 0)

    # Explicit dual-route checks with width halving on a sample.
    for k in (2, 3, 5, 11, 199):
        spec = validate_spec(k, 3)
        exp = expand(spec, 10)
        for n in range(1, 10):
            conv, prev = pair(exp, n)
            _, h, _ = leading_fractions(spec, conv, prev)
            widths = []
            for bits in (128, 256):
                a_iv = alpha_interval(spec, bits)
                w_iv = oracles.as_interval(general_correction(spec, conv, a_iv))
                via_w = w_iv - Fraction(prev.q, conv.q)
                via_theta = oracles.as_interval(complete_quotient_interval(conv, prev, a_iv)) - h
                assert via_w.intersects(via_theta)
                v_iv = oracles.as_interval(cubic_correction(spec, conv, a_iv))
                assert v_iv == -w_iv  # V = -W
                # the oracle checks its defining form against its closed form
                assert v_iv == oracles.cubic_correction(k, conv.p, conv.q, oracles.as_interval(a_iv))
                widths.append((oracles.width(via_w), oracles.width(via_theta)))
            assert widths[1][0] <= widths[0][0] / 2
            assert widths[1][1] <= widths[0][1] / 2
    report_line(
        "criterion-7",
        True,
        "determinant, alternation, q^-2 identity, cubic dual forms, exact "
        "signs, and dual remainder routes verified across the sweep; widths "
        "halve (and better) when precision doubles",
    )


def test_criterion_8_general_degree_thresholds():
    """Empirical stability onset n0 per (k, m), no a-priori value asserted;
    the degree-10 counterexample cell must have n0 > 1."""
    chosen = {
        4: [2, 3, 5, 6, 7],
        5: [2, 3, 4, 5, 6],
        6: [2, 3, 5, 6, 7],
        7: [2, 3, 4, 5, 6],
        8: [2, 3, 5, 6, 7],
        9: [2, 3, 4, 5, 6],
        10: [2, 3, 5, 6, 50],
    }
    thresholds = {}
    for m, ks in chosen.items():
        for k in ks:
            report = verify_theorems(validate_spec(k, m), 30)
            thresholds[(k, m)] = report.remainder_stable_from
            assert report.remainder_stable_from is not None, (
                f"(k={k}, m={m}): |R_n| < 1 not yet stable at n = 30"
            )
    assert thresholds[(50, 10)] > 1
    report_line(
        "criterion-8",
        True,
        f"empirical |R_n|<1 onset through n=30 per (k, m): "
        f"{sorted(thresholds.items(), key=lambda kv: (kv[0][1], kv[0][0]))}; "
        f"(50, 10) threshold = {thresholds[(50, 10)]} > 1",
    )


def test_criterion_9_report_determinism():
    """Identical config implies byte-identical reports, for every command."""
    argvs = [
        ["expand", "--k", "50", "--m", "10", "--terms", "5", "--format", "json"],
        ["predict", "--k", "2", "--m", "3", "--terms", "8", "--format", "csv"],
        ["verify", "--k-range", "2..6", "--m", "3", "--terms", "10", "--format", "json"],
        ["scan", "--k-range", "2..30", "--m-range", "3..4", "--terms", "8", "--format", "text"],
    ]
    for argv in argvs:
        cfg1, cfg2 = parse_args(argv), parse_args(argv)
        assert emit(run(cfg1), cfg1.format) == emit(run(cfg2), cfg2.format)
    cmd = [sys.executable, "-m", "rootcf", "scan", "--k-range", "48..52", "--m", "10",
           "--terms", "3", "--format", "json"]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    report_line(
        "criterion-9",
        True,
        "byte-identical reports across repeated runs for expand/predict/"
        "verify/scan, in-process and via subprocess",
    )
