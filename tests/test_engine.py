from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rootcf import engine
from rootcf.bvp import _analyze_term, leading_terms, verify_theorems
from rootcf.engine import (
    _Prefix,
    complete_quotient_interval,
    expand,
    next_partial_quotient,
    verify_quotient,
)
from rootcf.exact import (
    DEFAULT_MAX_BITS,
    PrecisionCeilingError,
    alpha_interval,
    validate_spec,
)

import oracles
from conftest import pair, spec_or_reject


SPEC_50_10 = validate_spec(50, 10)
SPEC_2_3 = validate_spec(2, 3)
SPEC_2_2 = validate_spec(2, 2)


def _lower_end(spec, bits):
    """(S, 2**bits): alpha's enclosure [S, S+1]/2**bits as `_Prefix.advance` reads it."""
    s, _, den = alpha_interval(spec, bits)
    return s, den


def _cap_before_any_try(count, **cap):
    """The cap of the PrecisionCeilingError that expand raises before its
    first try at `count` terms, or None if a try begins."""

    class TryRan(Exception):
        pass

    def no_try(spec, bits):
        raise TryRan

    with mock.patch.object(engine, "alpha_interval", no_try):
        try:
            expand(SPEC_2_3, count, **cap)
        except TryRan:
            return None
        except PrecisionCeilingError as exc:
            return exc.bits
    raise AssertionError("expand answered without a try")


class TestExpand:
    def test_degree_ten_prefix(self):
        assert expand(SPEC_50_10, 3).partial_quotients == [1, 2, 11, 3]

    def test_cbrt2_prefix(self):
        # Frozen from the fixed-point oracle at 2000 bits.
        assert expand(SPEC_2_3, 6).partial_quotients == [1, 3, 1, 5, 1, 1, 4]

    def test_sqrt2_periodic(self):
        exp = expand(SPEC_2_2, 4)
        assert exp.partial_quotients == [1, 2, 2, 2, 2]
        for t in exp.convergents():
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
    @example(2, 3, 2000)
    def test_bits_are_the_least_level_a_fresh_pass_certifies(self, k, m, count):
        # expand climbs from 64 bits, resuming its prefix; it answers at the
        # first level where a fresh pass certifies b_0..b_count, and a cap
        # below that level is reached without an answer.
        spec = spec_or_reject(k, m)
        bits = 64
        while not _Prefix().advance(*_lower_end(spec, bits), count):
            bits *= 2
        assert expand(spec, count).precision_bits == bits
        if bits > 64:
            with pytest.raises(PrecisionCeilingError):
                expand(spec, count, max_bits=bits // 2)

    def test_precision_ceiling_below_the_needed_level(self):
        # cbrt(2) needs 4,096 bits at 700 terms and 8,192 at 2,000.  At 700
        # terms the tries at 64..2,048 bits all fail; at 2,000 the count
        # bound (over 2,048 bits needed) refuses it before any try.  Both
        # report the 2,048-bit cap.
        assert _cap_before_any_try(2000, max_bits=2048) == 2048
        assert _cap_before_any_try(700, max_bits=2048) is None
        with pytest.raises(PrecisionCeilingError) as caught:
            expand(SPEC_2_3, 700, max_bits=2048)
        assert caught.value.bits == 2048

    def test_count_bound_refuses_only_what_no_level_certifies(self):
        # The reals that share b_0..b_N fill an interval of length
        # 1/(q_N*(q_N + q_{N-1})) <= 1/(F_{N+1}*F_{N+2}), since q_n >= F_{n+1}
        # (Fibonacci, F_1 = F_2 = 1): a try at B bits needs 2**B to exceed
        # that product.  The O(1) bound in expand grows with N, so it lets
        # every N up to 12,000 through at the least level 64*2**j that the
        # product allows (a higher cap only lets more through) if it lets
        # the largest N at each level through.
        largest = {}  # level -> the largest N that the product allows there
        f, g = 1, 1  # F_{n+1}, F_{n+2} at n = 0
        for count in range(12_001):
            least = (f * g).bit_length()  # 2**B > f*g exactly when B >= least
            level = 64
            while level < least:
                level *= 2
            largest[level] = count
            f, g = g, f + g
        assert len(largest) == 10  # 64 .. 32,768 bits
        for level, count in largest.items():
            assert _cap_before_any_try(count, max_bits=level) is None, (count, level)
        # A cap below 64 bits still gets the first try, at 64.
        assert _cap_before_any_try(largest[64], max_bits=1) is None

    def test_a_huge_count_is_refused_without_a_try(self):
        assert _cap_before_any_try(10 ** 6) == 2 ** 20

    def test_convergent_values(self):
        exp = expand(SPEC_50_10, 3)
        pq = [(t.p, t.q) for t in exp.convergents()]
        assert pq == oracles.convergents_from_terms([1, 2, 11, 3])
        assert pq[1] == (3, 2)

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            expand(SPEC_2_3, -1)


class TestEuclidPass:
    """The one Euclid pass against the reference two-chain route (tests/oracles.py)."""

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(2, 10 ** 5),
        m=st.integers(2, 12),
        count=st.integers(0, 300),
        bits=st.integers(64, 4096),
    )
    # At 64 bits with no step past the last term: S/2**64 = 2**64 exactly,
    # a zero remainder, which is no ambiguity there; (S+1)/2**64 = 2**64,
    # floors that part at step 0; and an upper end whose complete
    # quotient at step 1 is exactly 2 (more in the test below).
    @example(k=2 ** 128 + 1, m=2, count=0, bits=64)
    @example(k=2 ** 128 - 1, m=2, count=0, bits=64)
    @example(k=2 ** 124 + 2 ** 62, m=2, count=1, bits=64)
    def test_matches_two_chains(self, k, m, count, bits):
        spec = spec_or_reject(k, m)
        s, s1, den = alpha_interval(spec, bits)
        prefix = _Prefix()
        done = prefix.advance(s, den, count)
        assert (prefix.quotients if done else None) == oracles.euclid_quotients(s, s1, den, count)
        # Beside the quotients b_0..b_{j-1} (j <= count) that every later
        # step reads, the prefix holds convergents j-1 and j-2.
        j = min(len(prefix.quotients), count)
        seeds = [(0, 1), (1, 0)]
        assert (seeds + oracles.convergents_from_terms(prefix.quotients[:j]))[-2:] == [
            (prefix.pp, prefix.qp), (prefix.p, prefix.q)]
        if not done and j:
            # A failed pass keeps exactly the quotients certified before its failing step.
            assert oracles.euclid_quotients(s, s1, den, j - 1) == prefix.quotients

    @pytest.mark.parametrize("k,held", [
        (2 ** 128 + 1, []),             # the lower end's remainder is zero at step 0
        (2 ** 128 - 1, []),             # the floors part at step 0
        # alpha = 2**62 + 1/2 - 2**-65 + ...: the upper end's complete
        # quotient at step 1 is exactly 2, the lower end's just above it.
        (2 ** 124 + 2 ** 62, [2 ** 62]),
    ])
    def test_a_pass_stops_at_the_step_that_fails(self, k, held):
        s, s1, den = alpha_interval(validate_spec(k, 2), 64)
        prefix = _Prefix()
        assert not prefix.advance(s, den, 3)
        assert prefix.quotients == held
        assert oracles.euclid_quotients(s, s1, den, 3) is None

    @settings(max_examples=25, deadline=None)
    @given(k=st.integers(2, 10 ** 4), m=st.integers(2, 12), count=st.integers(0, 700))
    @example(k=2, m=3, count=2000)
    def test_resumed_expansion_equals_a_fresh_one(self, k, m, count):
        # One prefix carried up from 64 bits through every level that
        # fails holds, at each level, what a fresh pass there holds.
        spec = spec_or_reject(k, m)
        resumed, bits = _Prefix(), 64
        while True:
            s, den = _lower_end(spec, bits)
            fresh = _Prefix()
            done = resumed.advance(s, den, count)
            assert done == fresh.advance(s, den, count)
            assert resumed.quotients == fresh.quotients
            assert (resumed.p, resumed.q, resumed.pp, resumed.qp) == (
                fresh.p, fresh.q, fresh.pp, fresh.qp)
            if done:
                break
            bits *= 2
        assert expand(spec, count) == (spec, resumed.quotients, bits)

    @settings(max_examples=25, deadline=None)
    @given(k=st.integers(2, 10 ** 5), count=st.integers(0, 300))
    @example(k=2 ** 128 + 1, count=3)
    def test_quadratic_matches_pell(self, k, count):
        # m = 2: the classical periodic algorithm gives the same quotients,
        # and p_n**2 - k*q_n**2 = (-1)**(n+1) * d_{n+1} at every index.
        spec = spec_or_reject(k, 2)
        exp = expand(spec, count)
        terms, dens = oracles.sqrt_cf(k, count)
        assert exp.partial_quotients == terms
        for t in exp.convergents():
            assert t.p * t.p - k * t.q * t.q == (-1) ** (t.n + 1) * dens[t.n]


class TestConvergentStep:
    # expand's convergents against the oracles' recurrence and side test.
    def test_seed_step(self):
        conv, _ = pair(expand(SPEC_2_3, 0), 0)
        assert oracles.convergents_from_terms([1]) == [(1, 1)]
        assert (conv.n, conv.p, conv.q) == (0, 1, 1)
        assert conv.side.value == oracles.convergent_side(2, 3, 1, 1) == "below"

    def test_cbrt2_second(self):
        conv, _ = pair(expand(SPEC_2_3, 1), 1)
        assert oracles.convergents_from_terms([1, 3])[1] == (conv.p, conv.q) == (4, 3)
        assert conv.side.value == oracles.convergent_side(2, 3, 4, 3) == "above"

    def test_degree_ten_second(self):
        conv, _ = pair(expand(SPEC_50_10, 1), 1)
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
        conv, prev = pair(expand(SPEC_2_3, 1), 0)
        assert prev is None
        d, hn, hd, _ = leading_terms(SPEC_2_3, conv, prev)
        theta = _analyze_term(SPEC_2_3, conv, prev, d, hn, hd, 64, DEFAULT_MAX_BITS)[0]
        assert oracles.width(theta) <= Fraction(1, 10 ** 8)
        # theta_0 = 1/(alpha - 1) = 3.84732210...
        assert abs(oracles.mid(theta) - Fraction("3.8473221")) < Fraction(1, 10 ** 6)

    def test_width_shrinks_with_precision(self):
        conv, prev = pair(expand(SPEC_2_3, 8), 6)
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
        conv, prev = pair(expand(SPEC_50_10, 2), 1)
        assert verify_quotient(SPEC_50_10, conv, prev, 11)

    def test_degree_ten_twelve_rejected(self):
        conv, prev = pair(expand(SPEC_50_10, 2), 1)
        assert not verify_quotient(SPEC_50_10, conv, prev, 12)

    def test_cbrt2(self):
        conv, prev = pair(expand(SPEC_2_3, 2), 1)
        assert verify_quotient(SPEC_2_3, conv, prev, 1)
        assert not verify_quotient(SPEC_2_3, conv, prev, 2)
        assert not verify_quotient(SPEC_2_3, conv, prev, 0)

    def test_next_partial_quotient_search(self):
        exp = expand(SPEC_50_10, 8)
        for n in range(8):
            conv, prev = pair(exp, n)
            assert next_partial_quotient(SPEC_50_10, conv, prev) == exp.partial_quotients[n + 1]


class TestOracleEquivalence:
    @pytest.mark.parametrize("k,m,count", [(50, 10, 3), (2, 3, 6), (2, 2, 10), (7, 3, 12)])
    def test_agreement(self, k, m, count):
        spec = validate_spec(k, m)
        assert expand(spec, count).partial_quotients == oracles.expand_exact_oracle(k, m, count)


class TestExpansionInvariants:
    SPECS = [(2, 3), (3, 3), (11, 3), (2, 5), (50, 10), (2, 2), (99, 7)]

    @pytest.mark.parametrize("k,m", SPECS)
    def test_determinant(self, k, m):
        terms = tuple(expand(validate_spec(k, m), 20).convergents())
        for prev, cur in zip(terms, terms[1:]):
            assert abs(cur.p * prev.q - prev.p * cur.q) == 1

    @pytest.mark.parametrize("k,m", SPECS)
    def test_sides_alternate(self, k, m):
        terms = tuple(expand(validate_spec(k, m), 20).convergents())
        for prev, cur in zip(terms, terms[1:]):
            assert cur.side is not prev.side

    @pytest.mark.parametrize("k,m", SPECS)
    def test_quotients_positive(self, k, m):
        exp = expand(validate_spec(k, m), 20)
        assert all(t.b >= 1 for t in exp.convergents())

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
                conv, prev = pair(exp, n)
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
        assert all(b >= 1 for b in exp.partial_quotients[1:])
        # Sides come from the parity of n; the exact power test must agree.
        assert all(t.side.value == oracles.convergent_side(k, m, t.p, t.q) for t in exp.convergents())
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
