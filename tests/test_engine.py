from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootcf.bvp import _analyze_term, leading_terms, verify_theorems
from rootcf.engine import (
    _certify_at,
    _first_useful_bits,
    certify,
    complete_quotient_interval,
    expand,
    next_partial_quotient,
    verify_quotient,
)
from rootcf.exact import (
    DEFAULT_MAX_BITS,
    PrecisionCeilingError,
    alpha_interval,
    refine,
    validate_spec,
)

import oracles
from conftest import spec_or_reject


SPEC_50_10 = validate_spec(50, 10)
SPEC_2_3 = validate_spec(2, 3)
SPEC_2_2 = validate_spec(2, 2)


class TestExpand:
    def test_degree_ten_prefix(self):
        assert expand(SPEC_50_10, 3).partial_quotients == [1, 2, 11, 3]

    def test_cbrt2_prefix(self):
        # Frozen from the fixed-point oracle at 2000 bits.
        assert expand(SPEC_2_3, 6).partial_quotients == [1, 3, 1, 5, 1, 1, 4]

    def test_sqrt2_periodic(self):
        exp = expand(SPEC_2_2, 4)
        assert exp.partial_quotients == [1, 2, 2, 2, 2]
        for t in exp.terms:
            assert abs(t.p * t.p - 2 * t.q * t.q) == 1  # Pell identity

    def test_endpoint_on_the_floor_retries(self):
        # sqrt(2**128 + 1) = [2**64; 2**65, 2**65, ...] lies within 2**-65
        # of 2**64, so at 64 bits the lower endpoint is exactly b_0 and its
        # remainder is zero: the next term is unknown there, not an error.
        spec = validate_spec(2 ** 128 + 1, 2)
        exp = expand(spec, 3)
        assert exp.partial_quotients == [2 ** 64] + [2 ** 65] * 3
        assert exp.precision_bits == 512
        assert expand(spec, 0).precision_bits == 64

    @pytest.mark.parametrize(
        "k,m,frozen",
        [
            (2, 3, oracles.CF_CBRT2),
            (3, 3, oracles.CF_CBRT3),
            (5, 3, oracles.CF_CBRT5),
            (2, 5, oracles.CF_FIFTH2),
            (50, 10, oracles.CF_TENTH50),
        ],
    )
    def test_frozen_prefixes(self, k, m, frozen):
        assert expand(validate_spec(k, m), len(frozen) - 1).partial_quotients == frozen

    @pytest.mark.parametrize("k,m", [(2, 3), (7, 3), (2, 5), (50, 10), (123, 4)])
    def test_matches_fixed_point_oracle(self, k, m):
        count = 25
        got = expand(validate_spec(k, m), count).partial_quotients
        assert got == oracles.cf_terms_fixed_point(k, m, count)

    def test_precision_ceiling(self):
        with pytest.raises(PrecisionCeilingError):
            expand(SPEC_2_3, 40, max_bits=64)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 300), st.integers(2, 12), st.integers(0, 700))
    def test_skipped_levels_fail_and_bits_are_unchanged(self, k, m, count):
        # certify starts at _first_useful_bits: every level below it fails,
        # and starting at 64 instead gives the same quotients and bits.
        spec = spec_or_reject(k, m)
        start = _first_useful_bits(count)
        bits = 64
        while bits < start:
            assert _certify_at(spec, count, bits) is None
            bits *= 2
        from_64 = refine(lambda bits: _certify_at(spec, count, bits), 64, DEFAULT_MAX_BITS)
        assert certify(spec, count) == from_64
        exp = expand(spec, count)
        assert (exp.partial_quotients, exp.precision_bits) == from_64[1:]

    def test_first_useful_bits(self):
        # 2**B must exceed F_{N+1}*F_{N+2}: at N = 46 that product has 64
        # bits, at N = 47 it has 65, and at N = 2,000 it has 2,777.
        counts = (0, 1, 46, 47, 50, 2000)
        assert [_first_useful_bits(n) for n in counts] == [64, 64, 64, 128, 128, 4096]

    def test_precision_ceiling_below_the_first_useful_level(self):
        # Every level up to a 2,048-bit cap fails at 2,000 terms, so the cap
        # is reported without a try, as it was after trying them all.
        with pytest.raises(PrecisionCeilingError) as caught:
            expand(SPEC_2_3, 2000, max_bits=2048)
        assert caught.value.bits == 2048

    def test_convergent_values(self):
        exp = expand(SPEC_50_10, 3)
        pq = [(t.p, t.q) for t in exp.terms]
        assert pq == oracles.convergents_from_terms([1, 2, 11, 3])
        assert pq[1] == (3, 2)

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            expand(SPEC_2_3, -1)


class TestConvergentStep:
    # expand's convergents against the oracles' recurrence and side test.
    def test_seed_step(self):
        conv = expand(SPEC_2_3, 0).terms[0]
        assert oracles.convergents_from_terms([1]) == [(1, 1)]
        assert (conv.n, conv.p, conv.q) == (0, 1, 1)
        assert conv.side.value == oracles.convergent_side(2, 3, 1, 1) == "below"

    def test_cbrt2_second(self):
        conv = expand(SPEC_2_3, 1).terms[1]
        assert oracles.convergents_from_terms([1, 3])[1] == (conv.p, conv.q) == (4, 3)
        assert conv.side.value == oracles.convergent_side(2, 3, 4, 3) == "above"

    def test_degree_ten_second(self):
        conv = expand(SPEC_50_10, 1).terms[1]
        assert oracles.convergents_from_terms([1, 2])[1] == (conv.p, conv.q) == (3, 2)

    def test_rejects_zero_quotient(self):
        with pytest.raises(ValueError):
            oracles.convergents_from_terms([1, 0])


class TestThetaEnclosure:
    # Values of theta_n come from the enclosures verify prints (_analyze_term).
    def test_degree_ten_value(self):
        theta = verify_theorems(SPEC_50_10, 1).terms[0].theta
        assert oracles.width(theta) <= Fraction(1, 10 ** 6)
        # theta_1 = 11.26893529...; endpoints within 1e-4 of the 4dp value
        target = Fraction("11.2689")
        assert abs(theta.lo - target) <= Fraction(1, 10 ** 4)
        assert abs(theta.hi - target) <= Fraction(1, 10 ** 4)
        for end in (theta.lo, theta.hi):
            assert abs(end - Fraction("11.26893529")) <= Fraction(1, 10 ** 6)

    def test_cbrt2_first_quotient(self):
        conv, prev = expand(SPEC_2_3, 1).pair(0)
        assert prev is None
        d, hn, hd, _ = leading_terms(SPEC_2_3, conv, prev)
        theta = _analyze_term(SPEC_2_3, conv, prev, d, hn, hd, 64, DEFAULT_MAX_BITS)[0]
        assert oracles.width(theta) <= Fraction(1, 10 ** 8)
        # theta_0 = 1/(alpha - 1) = 3.84732210...
        assert abs(oracles.mid(theta) - Fraction("3.8473221")) < Fraction(1, 10 ** 6)

    def test_width_shrinks_with_precision(self):
        conv, prev = expand(SPEC_2_3, 8).pair(6)
        widths = []
        for bits in (64, 128, 256, 512):
            iv = complete_quotient_interval(conv, prev, alpha_interval(SPEC_2_3, bits))
            widths.append(oracles.width(iv))
        assert all(w2 <= w1 / 2 for w1, w2 in zip(widths, widths[1:]))

    def test_fractional_part(self):
        term = verify_theorems(SPEC_50_10, 1).terms[0]
        assert term.b_next == 11
        # theta_1 - b_2, the fractional tail, lies in (0, 1)
        assert term.b_next < term.theta.lo and term.theta.hi < term.b_next + 1


class TestVerifyQuotient:
    def test_degree_ten_eleven(self):
        conv, prev = expand(SPEC_50_10, 2).pair(1)
        assert verify_quotient(SPEC_50_10, conv, prev, 11)

    def test_degree_ten_twelve_rejected(self):
        conv, prev = expand(SPEC_50_10, 2).pair(1)
        assert not verify_quotient(SPEC_50_10, conv, prev, 12)

    def test_cbrt2(self):
        conv, prev = expand(SPEC_2_3, 2).pair(1)
        assert verify_quotient(SPEC_2_3, conv, prev, 1)
        assert not verify_quotient(SPEC_2_3, conv, prev, 2)
        assert not verify_quotient(SPEC_2_3, conv, prev, 0)

    def test_next_partial_quotient_search(self):
        exp = expand(SPEC_50_10, 8)
        for n in range(8):
            conv, prev = exp.pair(n)
            assert next_partial_quotient(SPEC_50_10, conv, prev) == exp.terms[n + 1].b


class TestOracleEquivalence:
    @pytest.mark.parametrize("k,m,count", [(50, 10, 3), (2, 3, 6), (2, 2, 10), (7, 3, 12)])
    def test_agreement(self, k, m, count):
        spec = validate_spec(k, m)
        assert expand(spec, count).partial_quotients == oracles.expand_exact_oracle(k, m, count)


class TestExpansionInvariants:
    SPECS = [(2, 3), (3, 3), (11, 3), (2, 5), (50, 10), (2, 2), (99, 7)]

    @pytest.mark.parametrize("k,m", SPECS)
    def test_determinant(self, k, m):
        terms = expand(validate_spec(k, m), 20).terms
        for prev, cur in zip(terms, terms[1:]):
            assert abs(cur.p * prev.q - prev.p * cur.q) == 1

    @pytest.mark.parametrize("k,m", SPECS)
    def test_sides_alternate(self, k, m):
        terms = expand(validate_spec(k, m), 20).terms
        for prev, cur in zip(terms, terms[1:]):
            assert cur.side is not prev.side

    @pytest.mark.parametrize("k,m", SPECS)
    def test_quotients_positive(self, k, m):
        exp = expand(validate_spec(k, m), 20)
        assert all(t.b >= 1 for t in exp.terms)

    @pytest.mark.parametrize("k,m", SPECS)
    def test_universal_identity(self, k, m):
        # theta_n + q_{n-1}/q_n and 1/(q_n**2 |x_n - alpha|) enclose the
        # same value: their intervals must overlap at every precision and
        # both must shrink onto it as precision doubles.
        spec = validate_spec(k, m)
        exp = expand(spec, 12)
        widths = {}
        for bits in (128, 256):
            a_iv = alpha_interval(spec, bits)
            alpha = oracles.as_interval(a_iv)
            for n in range(1, 12):
                conv, prev = exp.pair(n)
                lhs = oracles.as_interval(complete_quotient_interval(conv, prev, a_iv)) + Fraction(prev.q, conv.q)
                x = Fraction(conv.p, conv.q)
                gap = (x - alpha) if conv.side.value == "above" else (alpha - x)
                rhs = (gap * conv.q ** 2).reciprocal()
                assert lhs.intersects(rhs)
                previous = widths.get(n)
                if previous is not None:
                    assert oracles.width(lhs) <= previous[0] / 2
                    assert oracles.width(rhs) <= previous[1] / 2
                widths[n] = (oracles.width(lhs), oracles.width(rhs))

    @given(
        k=st.integers(min_value=2, max_value=1000),
        m=st.integers(min_value=2, max_value=12),
        count=st.one_of(st.integers(min_value=0, max_value=60), st.integers(min_value=61, max_value=400)),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_specs_certified(self, k, m, count):
        spec = spec_or_reject(k, m)
        exp = expand(spec, count)
        assert all(t.b >= 1 for t in exp.terms[1:])
        # Sides come from the parity of n; the exact power test must agree.
        assert all(t.side.value == oracles.convergent_side(k, m, t.p, t.q) for t in exp.terms)
        # The test-side endpoint oracle, run at 64 bits and doubled, first
        # answers at exactly the precision expand stopped at, with the same
        # quotients.
        for bits in (64 << i for i in range(12)):
            try:
                fixed = oracles.cf_terms_fixed_point(k, m, count, bits)
            except (AssertionError, ZeroDivisionError):
                continue
            break
        else:
            pytest.fail(f"fixed-point oracle exhausted at {bits} bits")
        assert (exp.precision_bits, exp.partial_quotients) == (bits, fixed)
        if count <= 60:
            assert exp.partial_quotients == oracles.expand_exact_oracle(k, m, count)
