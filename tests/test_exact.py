import operator
import pickle
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rootcf import exact
from rootcf.exact import (
    InconsistentEnclosureError,
    InvalidDegreeError,
    PerfectPowerError,
    PrecisionCeilingError,
    RadicandSpec,
    RationalInterval,
    alpha_interval,
    int_nth_root,
    prime_divisors,
    refine,
    sign_linear_in_alpha,
    validate_spec,
)

from conftest import spec_or_reject
from oracles import Interval, as_interval, mid, nth_root_bisect, width


class TestIntNthRoot:
    def test_degree_ten_power(self):
        assert int_nth_root(59049, 10) == 3  # 3**10 = 59049

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 40])
    def test_one(self, m):
        assert int_nth_root(1, m) == 1

    def test_cube(self):
        assert int_nth_root(63, 3) == 3  # 27 <= 63 < 64

    def test_small_exhaustive(self):
        for x in range(0, 300):
            for m in range(1, 8):
                assert int_nth_root(x, m) == nth_root_bisect(x, m)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            int_nth_root(-1, 2)
        with pytest.raises(ValueError):
            int_nth_root(4, 0)

    @given(x=st.integers(min_value=0, max_value=10 ** 80), m=st.integers(min_value=1, max_value=40))
    def test_floor_property(self, x, m):
        r = int_nth_root(x, m)
        assert r >= 0
        assert r ** m <= x < (r + 1) ** m

    @given(r=st.integers(min_value=0, max_value=10 ** 20), m=st.integers(min_value=1, max_value=12))
    def test_exact_powers_roundtrip(self, r, m):
        assert int_nth_root(r ** m, m) == r

    # Up to 2**6000, far past the 64*m bits where the Newton start is
    # seeded from the root of the top bits; bit lengths are drawn first so
    # that every size is reached, not only the largest.
    @given(x=st.integers(min_value=0, max_value=6000).flatmap(lambda bits: st.integers(0, 2 ** bits)),
           m=st.integers(min_value=3, max_value=12))
    def test_floor_property_wide(self, x, m):
        r = int_nth_root(x, m)
        assert r ** m <= x < (r + 1) ** m

    @given(r=st.integers(min_value=1, max_value=2 ** 500), m=st.integers(min_value=3, max_value=12))
    def test_wide_powers_and_their_predecessors(self, r, m):
        assert int_nth_root(r ** m, m) == r
        assert int_nth_root(r ** m - 1, m) == r - 1


class TestValidateSpec:
    def test_degree_ten_case(self):
        spec = validate_spec(50, 10)
        assert (spec.k, spec.m) == (50, 10)

    def test_rejects_perfect_cube(self):
        with pytest.raises(PerfectPowerError):
            validate_spec(8, 3)

    def test_rejects_square_under_even_degree(self):
        # 4 = 2**2 and 2 | 10, so 4**(1/10) = 2**(1/5) has degree 5 < 10.
        with pytest.raises(PerfectPowerError):
            validate_spec(4, 10)

    def test_rejects_one(self):
        with pytest.raises(PerfectPowerError):
            validate_spec(1, 3)

    def test_rejects_low_degree(self):
        with pytest.raises(InvalidDegreeError):
            validate_spec(2, 1)

    def test_rejects_nonpositive_radicand(self):
        with pytest.raises(ValueError):
            validate_spec(0, 3)

    def test_quadratic_admitted(self):
        assert validate_spec(2, 2) == RadicandSpec(2, 2)

    def test_sixth_degree_mixed(self):
        # 16 = 2**4 is a square (2 | 6) even though it is not a cube.
        with pytest.raises(PerfectPowerError):
            validate_spec(16, 6)
        validate_spec(24, 6)

    def test_prime_divisors(self):
        assert prime_divisors(10) == (2, 5)
        assert prime_divisors(8) == (2,)
        assert prime_divisors(7) == (7,)


class TestAlphaEnclosure:
    def test_degree_ten_decimal_digits(self):
        # alpha = 50**(1/10) = 1.4787576366..., so the 8-digit floor ends in 63.
        assert int_nth_root(50 * 10 ** 80, 10) == nth_root_bisect(50 * 10 ** 80, 10) == 147875763

    def test_cbrt2_three_digits(self):
        assert nth_root_bisect(2 * 10 ** 9, 3) == 1259  # 1259**3 <= 2e9 < 1260**3

    def test_sqrt2_zero_digits(self):
        assert alpha_interval(validate_spec(2, 2), 0) == (1, 2, 1)

    @given(
        k=st.integers(min_value=2, max_value=500),
        m=st.integers(min_value=2, max_value=8),
        bits=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=60)
    def test_soundness(self, k, m, bits):
        spec = spec_or_reject(k, m)
        scaled = nth_root_bisect(k << (m * bits), m)
        assert alpha_interval(spec, bits) == (scaled, scaled + 1, 2 ** bits)
        assert scaled ** m <= k << (m * bits) < (scaled + 1) ** m
        assert width(as_interval(alpha_interval(spec, bits))) == Fraction(1, 2 ** bits)

    @given(
        k=st.integers(min_value=2, max_value=10 ** 5),
        m=st.integers(min_value=2, max_value=12),
        bits=st.integers(min_value=1, max_value=5000),
    )
    @settings(max_examples=80, deadline=None)
    @example(k=2, m=3, bits=1)
    @example(k=2, m=3, bits=64)
    @example(k=2, m=3, bits=65)
    @example(k=50, m=10, bits=129)
    @example(k=99999, m=12, bits=4097)
    @example(k=3, m=2, bits=5000)
    def test_wide_enclosures_are_exact_floors(self, k, m, bits):
        # Far past test_soundness's 100 bits, where int_nth_root's Newton
        # start is the root at about half the bits shifted up, and at every
        # B, powers of two or not: S is the floor by the exact power test.
        alpha_interval.cache_clear()
        scaled, upper, den = alpha_interval(spec_or_reject(k, m), bits)
        assert (upper, den) == (scaled + 1, 1 << bits)
        assert scaled ** m <= k << (m * bits) < upper ** m

    @given(
        k=st.integers(min_value=2, max_value=10 ** 5),
        m=st.integers(min_value=3, max_value=12),
        bits=st.integers(min_value=64, max_value=5000),
        warm=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    @example(k=2, m=3, bits=64, warm=True)
    @example(k=50, m=10, bits=8192, warm=True)
    @example(k=50, m=10, bits=8192, warm=False)
    @example(k=99999, m=3, bits=129, warm=True)
    def test_level_seeded_from_half_the_bits(self, k, m, bits, warm):
        # A precision climb doubles the bits: S is found by Newton from S
        # at half the bits, shifted up, cached or worked out first.  Either
        # way only the least level calls int_nth_root, and S is the floor
        # by the exact power test.
        spec = spec_or_reject(k, m)
        exact._scaled_alpha.cache_clear()
        if warm:
            exact._scaled_alpha(spec, bits // 2)
        with mock.patch.object(exact, "int_nth_root", wraps=exact.int_nth_root) as root:
            scaled = exact._scaled_alpha(spec, bits)
        assert scaled ** m <= k << (m * bits) < (scaled + 1) ** m
        assert root.call_count == (0 if warm else 1)

    def test_interval_contains_alpha(self):
        spec = validate_spec(2, 3)
        lo, hi, den = alpha_interval(spec, 50)
        # alpha in [lo, hi]/den iff lo**3 <= 2*den**3 <= hi**3
        assert lo ** 3 <= 2 * den ** 3 <= hi ** 3


class TestSignLinearInAlpha:
    def test_cbrt2_above_one(self):
        assert sign_linear_in_alpha(validate_spec(2, 3), 1, -1) == 1

    def test_three_cbrt2_below_four(self):
        assert sign_linear_in_alpha(validate_spec(2, 3), 3, -4) == -1

    def test_degree_ten_half_convergent(self):
        # 3/2 lies above alpha = 50**(1/10), so 2*alpha - 3 < 0.
        assert sign_linear_in_alpha(validate_spec(50, 10), 2, -3) == -1

    def test_zero_coefficient(self):
        spec = validate_spec(2, 3)
        assert sign_linear_in_alpha(spec, 0, 5) == 1
        assert sign_linear_in_alpha(spec, 0, -5) == -1
        assert sign_linear_in_alpha(spec, 0, 0) == 0

    def test_same_sign_fast_paths(self):
        spec = validate_spec(7, 5)
        assert sign_linear_in_alpha(spec, 3, 2) == 1
        assert sign_linear_in_alpha(spec, -3, -2) == -1

    @given(
        k=st.integers(min_value=2, max_value=100),
        m=st.integers(min_value=2, max_value=6),
        u=st.integers(min_value=-10 ** 12, max_value=10 ** 12),
        v=st.integers(min_value=-10 ** 12, max_value=10 ** 12),
    )
    @settings(max_examples=200)
    def test_agrees_with_enclosure(self, k, m, u, v):
        # Cross-validate against a 50-decimal-digit enclosure whenever the
        # enclosure separates the root -v/u.
        spec = spec_or_reject(k, m)
        scaled = nth_root_bisect(k * 10 ** (50 * m), m)
        at_lo, at_hi = (u * Fraction(s, 10 ** 50) + v for s in (scaled, scaled + 1))
        if at_lo == 0 or at_hi == 0 or (at_lo < 0) != (at_hi < 0):
            return
        expected = 1 if at_lo > 0 else -1
        assert sign_linear_in_alpha(spec, u, v) == expected


iv = Interval
OPS = [operator.add, operator.sub, operator.mul, operator.truediv]


class TestRationalInterval:
    # The oracles' Interval arithmetic, and the package's RationalInterval.
    def test_add(self):
        assert iv(1, 2) + iv(3, 4) == iv(4, 6)

    def test_mul_mixed_signs(self):
        assert iv(1, 2) * iv(-1, 1) == iv(-2, 2)

    def test_div(self):
        assert iv(1, 2) / iv(4, 8) == iv(Fraction(1, 8), Fraction(1, 2))

    def test_div_by_zero_interval(self):
        with pytest.raises(ZeroDivisionError):
            iv(1, 2) / iv(-1, 1)

    def test_sub_and_scalars(self):
        assert iv(1, 2) - 1 == iv(0, 1)
        assert 1 - iv(1, 2) == iv(-1, 0)
        assert Fraction(1, 2) * iv(2, 4) == iv(1, 2)
        assert 1 / iv(2, 4) == iv(Fraction(1, 4), Fraction(1, 2))

    def test_pow(self):
        assert iv(-2, 3) ** 2 == iv(0, 9)
        assert iv(-2, 3) ** 3 == iv(-8, 27)
        assert iv(-3, -2) ** 2 == iv(4, 9)
        assert iv(2, 3) ** 0 == iv(1, 1)

    def test_ordering_guard(self):
        for cls in (RationalInterval, Interval):
            with pytest.raises(ValueError):
                cls(2, 1)

    def test_integer_ends_are_kept_unreduced(self):
        box = RationalInterval.from_ends((-2, 4), (6, 4))
        assert box.ends == ((-2, 4), (6, 4))
        assert (box.lo, box.hi) == (Fraction(-1, 2), Fraction(3, 2))
        same = RationalInterval(Fraction(-1, 2), Fraction(3, 2))
        assert box == same and hash(box) == hash(same) and repr(box) == repr(same)
        assert str(box) == str(same) == "[-1/2, 3/2]"
        copy = pickle.loads(pickle.dumps(box))
        assert copy == box and copy.ends == box.ends
        assert RationalInterval.from_ends((1, 3), (1, 3)) == RationalInterval(Fraction(1, 3), Fraction(1, 3))

    def test_integer_ends_are_validated(self):
        for lo, hi in (((1, 0), (2, 1)), ((1, 2), (3, -4)), ((1, -2), (3, 4))):
            with pytest.raises(ValueError, match="denominators must be positive"):
                RationalInterval.from_ends(lo, hi)
        for lo, hi in (((3, 4), (1, 4)), ((2, 3), (3, 5))):
            with pytest.raises(ValueError, match="empty interval"):
                RationalInterval.from_ends(lo, hi)

    def test_membership_and_width(self):
        box = iv(1, 2)
        assert Fraction(3, 2) in box
        assert 3 not in box
        assert box.strictly_inside(0, 3)
        assert not box.strictly_inside(1, 3)
        for shown in (box, RationalInterval(1, 2)):
            assert width(shown) == 1
            assert mid(shown) == Fraction(3, 2)

    def test_intersection(self):
        assert iv(1, 3).intersect(iv(2, 5)) == iv(2, 3)
        assert iv(1, 2).intersect(iv(3, 4)) is None
        assert iv(1, 2).intersects(iv(2, 3))

    @given(
        a=st.tuples(st.integers(-50, 50), st.integers(0, 20)),
        b=st.tuples(st.integers(-50, 50), st.integers(0, 20)),
        grow_a=st.integers(0, 10),
        grow_b=st.integers(0, 10),
        op=st.sampled_from(OPS),
    )
    @settings(max_examples=200)
    def test_inclusion_monotone(self, a, b, grow_a, grow_b, op):
        inner_a = iv(a[0], a[0] + a[1])
        inner_b = iv(b[0], b[0] + b[1])
        outer_a = iv(a[0] - grow_a, a[0] + a[1] + grow_a)
        outer_b = iv(b[0] - grow_b, b[0] + b[1] + grow_b)
        if op is operator.truediv and 0 in outer_b:
            return
        assert op(outer_a, outer_b).contains_interval(op(inner_a, inner_b))

    @given(
        a=st.tuples(st.integers(-30, 30), st.integers(0, 15)),
        b=st.tuples(st.integers(-30, 30), st.integers(0, 15)),
        xa=st.fractions(min_value=0, max_value=1),
        xb=st.fractions(min_value=0, max_value=1),
        op=st.sampled_from(OPS),
    )
    @settings(max_examples=200)
    def test_containment_soundness(self, a, b, xa, xb, op):
        box_a = iv(a[0], a[0] + a[1])
        box_b = iv(b[0], b[0] + b[1])
        if op is operator.truediv and 0 in box_b:
            return
        point_a = box_a.lo + xa * width(box_a)
        point_b = box_b.lo + xb * width(box_b)
        assert op(point_a, point_b) in op(box_a, box_b)


def recording(outcome):
    """A refine attempt that records its bits and answers with outcome(bits)."""
    calls = []

    def attempt(bits):
        calls.append(bits)
        return outcome(bits)

    return attempt, calls


def coarse(bits):
    return None


class TestRefine:
    def test_doubles_from_start_until_answered(self):
        attempt, calls = recording(lambda bits: bits if bits >= 400 else None)
        assert refine(attempt, 50, 1000) == 400
        assert calls == [50, 100, 200, 400]

    def test_none_retries_up_to_cap(self):
        attempt, calls = recording(coarse)
        with pytest.raises(PrecisionCeilingError) as info:
            refine(attempt, 64, 1000)
        assert calls == [64, 128, 256, 512]
        assert info.value.bits == 1000

    def test_last_attempt_at_cap_itself(self):
        attempt, calls = recording(coarse)
        with pytest.raises(PrecisionCeilingError):
            refine(attempt, 64, 512)
        assert calls == [64, 128, 256, 512]

    def test_start_at_cap_gets_one_attempt(self):
        attempt, calls = recording(coarse)
        with pytest.raises(PrecisionCeilingError):
            refine(attempt, 256, 256)
        assert calls == [256]
        attempt, calls = recording(lambda bits: "ok")
        assert refine(attempt, 256, 256) == "ok"
        assert calls == [256]

    def test_other_errors_propagate_unretried(self):
        def inconsistent(bits):
            raise InconsistentEnclosureError("disjoint")

        attempt, calls = recording(inconsistent)
        with pytest.raises(InconsistentEnclosureError):
            refine(attempt, 64, 1 << 20)
        assert calls == [64]

    @pytest.mark.parametrize("answer", [False, 0])
    def test_falsy_answers_are_answers(self, answer):
        attempt, calls = recording(lambda bits: answer)
        assert refine(attempt, 64, 128) is answer
        assert calls == [64]


class TestPrecisionCeilingError:
    def test_pickle_round_trip(self):
        err = pickle.loads(pickle.dumps(PrecisionCeilingError(64)))
        assert type(err) is PrecisionCeilingError
        assert err.bits == 64
        assert str(err) == "precision refinement exceeded the 64-bit cap"
