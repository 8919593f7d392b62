"""The digit kernels (`rootcf.digits`) against independent routes.

The enclosure kernels work on unreduced integer pairs; the oracles in
tests/oracles.py print the same quantities from reduced Fractions.  The
convergent digits come from a decimal recurrence; `str(int)` of the
integers is the reference.
"""
import contextlib
import decimal
import itertools
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rootcf import digits
from rootcf.cli import parse_args, run
from rootcf.digits import (
    ROW_BATCH,
    convergent_digits,
    decimal_string,
    enclosure_json,
    justified_places,
    sci_string,
)
from rootcf.bvp import index_walk, term_checks, verify_theorems
from rootcf.engine import Convergent, Expansion, Side, expand
from rootcf.exact import RationalInterval, validate_spec
from rootcf.report import emit, predict_payload

import oracles
from conftest import RecordingStream, spec_or_reject


@contextlib.contextmanager
def unlimited_int_digits():
    """Lift CPython's 4300-digit int/str limit (3.11+, 3.10.7+) for the block."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


# Numerators of every sign and size, including 0; denominators >= 1; and a
# common factor that leaves the pair unreduced.
numerators = (
    st.integers(-(10 ** 60), 10 ** 60) | st.integers(-3, 3) | st.integers(-(1 << 700), 1 << 700)
)
denominators = st.integers(1, 10 ** 60) | st.integers(1, 4) | st.integers(1, 1 << 700)
factors = st.integers(1, 10 ** 30)
places = st.integers(0, 45)


class TestEnclosureKernels:
    @given(numerators, denominators, factors, places)
    def test_decimal_string_matches_fraction_oracle(self, num, den, g, d):
        assert decimal_string(num * g, den * g, d) == oracles.decimal_string(Fraction(num, den), d)

    @given(numerators, denominators, factors)
    def test_sci_string_matches_fraction_oracle(self, num, den, g):
        assert sci_string(num * g, den * g) == oracles.sci_string(Fraction(num, den))

    @given(numerators.map(abs), denominators, factors)
    def test_justified_places_matches_fraction_oracle(self, num, den, g):
        assert justified_places(num * g, den * g) == oracles.justified_places(Fraction(num, den))

    @given(st.integers(0, 45), st.integers(-2, 2), factors)
    def test_widths_at_and_beside_a_power_of_ten(self, d, offset, g):
        # 10**-d exactly, and one part in 10**50 either side of it.
        width = Fraction(1, 10 ** d) + Fraction(offset, 10 ** 50)
        num, den = width.numerator * g, width.denominator * g
        assert justified_places(num, den) == oracles.justified_places(width)
        assert sci_string(num, den) == oracles.sci_string(width)

    @given(st.integers(1, 10 ** 6), st.integers(1, 10 ** 6), factors)
    def test_widths_above_one(self, extra, den, g):
        num = den + extra
        assert justified_places(num * g, den * g) == 0
        assert oracles.justified_places(Fraction(num, den)) == 0

    def test_negative_width_is_refused(self):
        with pytest.raises(ValueError):
            justified_places(-1, 3)

    @given(numerators, denominators, numerators.map(abs), denominators)
    def test_enclosure_json_matches_fraction_oracle(self, ln, ld, wn, wd):
        lo = Fraction(ln, ld)
        hi = lo + Fraction(wn, wd)
        assert enclosure_json(RationalInterval(lo, hi)) == oracles.enclosure_digits(lo, hi)

    @given(numerators, denominators, st.integers(0, 200), st.integers(0, 200))
    @example(0, 7, 0, 0)
    @example(-6, 1, 0, 0)
    @example(5, 1, 90, 0)
    @example(3, 1, 0, 120)
    @example(-12, 40, 50, 30)
    @example(-12, 3, 2, 2)
    def test_fraction_string_matches_fraction(self, num, den, i, j):
        # Powers of two on the numerator, the denominator or both.
        num, den = num << i, den << j
        assert digits.fraction_string(num, den) == str(Fraction(num, den))
        x = Fraction(num, den)
        assert digits.exact_json(num, den) == {
            "rational": str(x), "decimal": oracles.decimal_string(x, 12), "width": "0"}

    @pytest.mark.parametrize("k, m, n_max", [(2, 3, 60), (50, 10, 20)])
    def test_kernel_ends_print_as_reduced_ends(self, k, m, n_max):
        # R_n's ends share the W_n route's denominator, theta_n's do not:
        # the shared-denominator path against the product path.
        terms = list(term_checks(verify_theorems(validate_spec(k, m), n_max)))
        assert all(t.remainder.ends[0][1] == t.remainder.ends[1][1] for t in terms)
        for iv in [t.theta for t in terms] + [t.remainder for t in terms]:
            assert enclosure_json(iv) == enclosure_json(RationalInterval(iv.lo, iv.hi))


def synthetic_terms(quotients: list[int]) -> tuple[Convergent, ...]:
    """Convergents of [b_0; b_1, ...] by the integer recurrence."""
    return tuple(
        Convergent(n=n, b=b, p=p, q=q, side=Side.ABOVE if n % 2 else Side.BELOW)
        for n, (b, (p, q)) in enumerate(zip(quotients, oracles.convergents_from_terms(quotients)))
    )


class _FaultyContext(decimal.Context):
    """The digits' exact context, with p_n off by one at one index n."""

    def __init__(self, n: int):
        super().__init__(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                         traps=[decimal.Inexact, decimal.Rounded])
        self.fault_at, self.calls = 2 * n + 1, 0  # two fma calls per index, p_n first

    def fma(self, a, b, c):
        self.calls += 1
        if self.calls == self.fault_at:
            c = super().add(c, 1)
        return super().fma(a, b, c)


class TestConvergentDigits:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 200), st.integers(2, 12), st.integers(0, 300))
    def test_matches_str_of_the_integers(self, k, m, count):
        exp = expand(spec_or_reject(k, m), count)
        assert list(convergent_digits(exp.convergents())) == [
            {"n": t.n, "b": t.b, "p": str(t.p), "q": str(t.q), "side": t.side.value}
            for t in exp.convergents()
        ]

    def test_huge_partial_quotients_past_the_str_limit(self):
        terms = synthetic_terms([3] + [10 ** 450 + 7 * n for n in range(1, 12)])
        with unlimited_int_digits():
            expected = [(str(t.p), str(t.q)) for t in terms]
        assert len(expected[-1][0]) > 4300
        assert [(r["p"], r["q"]) for r in convergent_digits(terms)] == expected

    def test_a_last_convergent_that_disagrees_is_refused(self, monkeypatch):
        terms = list(synthetic_terms([1, 2, 3, 4, 5]))
        terms[-1] = terms[-1]._replace(p=terms[-1].p + 1)
        with pytest.raises(ArithmeticError):
            list(convergent_digits(terms))
        # predict's digits are checked against the convergents its expansion walks.
        spec = validate_spec(2, 3)
        exp = expand(spec, 4)
        payload = predict_payload(exp, list(index_walk(spec, exp)))
        *walked, last = exp.convergents()
        faulty = [*walked, last._replace(q=last.q - 1)]
        monkeypatch.setattr(Expansion, "convergents", lambda self: iter(faulty))
        with pytest.raises(ArithmeticError):
            emit(payload, "json")

    @pytest.mark.parametrize("n", [0, ROW_BATCH - 1, ROW_BATCH, 1500])
    def test_a_faulty_digit_stops_its_batch(self, monkeypatch, n):
        exp = expand(validate_spec(2, 3), 2000)
        monkeypatch.setattr(digits, "_DIGITS", _FaultyContext(n))
        rows = convergent_digits(exp.convergents())
        start = n // ROW_BATCH * ROW_BATCH  # the fault's block starts here
        assert [row["n"] for row in itertools.islice(rows, start)] == list(range(start))
        with pytest.raises(ArithmeticError):
            next(rows)

    @pytest.mark.parametrize("fmt, row", [("json", '"n": 1472,'), ("csv", "\nterm,2,3,1472,"),
                                          ("text", "\n  n=1472 ")])
    def test_no_row_of_a_faulty_batch_is_written(self, monkeypatch, fmt, row):
        # The fault is at n = 1500, in the batch of rows 1472..1535.
        argv = ["expand", "--k", "2", "--m", "3", "--terms", "2000", "--format", fmt]
        whole = emit(run(parse_args(argv)), fmt)
        monkeypatch.setattr(digits, "_DIGITS", _FaultyContext(1500))
        out = RecordingStream()
        with pytest.raises(ArithmeticError):
            emit(run(parse_args(argv)), fmt, out)
        written = "".join(out.writes)
        assert written and whole.startswith(written)
        assert len(written) <= whole.index(row)

    def test_empty(self):
        assert list(convergent_digits([])) == []
