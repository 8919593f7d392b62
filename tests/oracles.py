"""Independent test oracles.

Deliberately different mechanisms from the package: bisection instead of
Newton for integer roots, and a fixed-precision endpoint Gauss map on
plain Fractions instead of the adaptive interval engine.  Expected values
frozen into the tests were produced by these.
"""
from fractions import Fraction


def nth_root_bisect(x: int, m: int) -> int:
    """Integer m-th root by pure bisection."""
    if x < 0 or m < 1:
        raise ValueError
    if x == 0:
        return 0
    lo, hi = 0, 1
    while hi ** m <= x:
        hi <<= 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid ** m <= x:
            lo = mid
        else:
            hi = mid
    return lo


def cf_terms_fixed_point(k: int, m: int, count: int, bits: int = 0) -> list[int]:
    """First count+1 partial quotients of k**(1/m) at a fixed precision.

    Runs the exact Gauss map on both endpoints of a 2**-bits enclosure of
    alpha and keeps a term only when both runs agree on its floor.
    """
    bits = bits or (200 + 40 * count)
    scaled = nth_root_bisect(k << (m * bits), m)
    lo = Fraction(scaled, 1 << bits)
    hi = Fraction(scaled + 1, 1 << bits)
    terms = []
    for _ in range(count + 1):
        fl = lo.numerator // lo.denominator
        fh = hi.numerator // hi.denominator
        assert fl == fh, "oracle precision exhausted; raise bits"
        terms.append(fl)
        lo, hi = 1 / (hi - fl), 1 / (lo - fl)
    return terms


def convergents_from_terms(terms: list[int]) -> list[tuple[int, int]]:
    """(p_n, q_n) for each partial quotient via the standard recurrence."""
    ps, qs = [0, 1], [1, 0]
    for b in terms:
        ps.append(b * ps[-1] + ps[-2])
        qs.append(b * qs[-1] + qs[-2])
    return list(zip(ps[2:], qs[2:]))


def sign_u_alpha_plus_v(k: int, m: int, u: int, v: int) -> int:
    """Sign of u*k**(1/m) + v: u*alpha and -v compared through their m-th powers."""
    if u == 0:
        return (v > 0) - (v < 0)
    s = 1 if u > 0 else -1
    if s * v >= 0:
        return s
    return s if k * abs(u) ** m > abs(v) ** m else -s


def theta_exceeds_rational(k: int, m: int, p: int, q: int, pp: int, qp: int, t: Fraction) -> bool:
    """theta_n > t for rational t = a/b, b > 0, from two exact integer signs.

    theta_n = (p_{n-1} - q_{n-1}*alpha)/(q_n*alpha - p_n), so b*(theta_n - t)
    has the sign of (b*p_{n-1} + a*p_n) - (b*q_{n-1} + a*q_n)*alpha times
    the sign of q_n*alpha - p_n.
    """
    a, b = t.numerator, t.denominator
    num = sign_u_alpha_plus_v(k, m, -(b * qp + a * q), b * pp + a * p)
    den = sign_u_alpha_plus_v(k, m, q, -p)
    return num * den > 0


def unit_remainder_exact(k: int, m: int, p: int, q: int, pp: int, qp: int) -> bool:
    """|R_n| < 1, i.e. H_n - 1 < theta_n < H_n + 1, with no interval arithmetic.

    theta_n is irrational, so it never equals the rational H_n +- 1.
    """
    h = Fraction(m * p ** (m - 1), abs(p ** m - k * q ** m) * q)
    return (theta_exceeds_rational(k, m, p, q, pp, qp, h - 1)
            and not theta_exceeds_rational(k, m, p, q, pp, qp, h + 1))


# Frozen prefixes produced by cf_terms_fixed_point (bits = 2000).
CF_CBRT2 = [1, 3, 1, 5, 1, 1, 4, 1, 1, 8, 1, 14]
CF_CBRT3 = [1, 2, 3, 1, 4, 1, 5, 1]
CF_CBRT5 = [1, 1, 2, 2, 4, 3, 3, 1]
CF_FIFTH2 = [1, 6, 1, 2, 1, 1, 1, 3]
CF_TENTH50 = [1, 2, 11, 3, 1, 2, 1, 1, 4, 2, 3, 20, 1]
