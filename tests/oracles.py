"""Independent test oracles, which import nothing from the package.

Deliberately different mechanisms from it: bisection instead of Newton for
integer roots, a fixed-precision endpoint Gauss map on plain Fractions, an
expansion by exact search alone, interval arithmetic (`Interval`) where
the package encloses from integer endpoints, and report digits from
reduced Fractions where the package prints from unreduced integer pairs.
Expected values frozen into the tests were produced by these.  A side is
"above" or "below".
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
    alpha = alpha_enclosure(k, m, bits or (200 + 40 * count))
    lo, hi = alpha.lo, alpha.hi
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
    if any(b < 1 for b in terms[1:]):
        raise ValueError(f"partial quotients after b_0 must be >= 1: {terms}")
    ps, qs = [0, 1], [1, 0]
    for b in terms:
        ps.append(b * ps[-1] + ps[-2])
        qs.append(b * qs[-1] + qs[-2])
    return list(zip(ps[2:], qs[2:]))


def euclid_quotients(lo: int, hi: int, den: int, count: int) -> list[int] | None:
    """Partial quotients b_0..b_count shared by every point of [lo, hi]/den, den > 0.

    The reference for the package's one-pass Euclid: Euclid's algorithm
    runs on each endpoint's numerator and denominator, a divmod chain
    apiece, and a term is kept where both floors agree.  None once the
    floors part, or when an endpoint's remainder is zero before the last
    term (the enclosed complete quotient may then be an integer).
    """
    x, y, u, w = lo, den, hi, den
    quotients: list[int] = []
    for _ in range(count):
        b, r = divmod(x, y)
        c, s = divmod(u, w)
        if b != c or r == 0 or s == 0:
            return None
        quotients.append(b)
        x, y, u, w = y, r, w, s
    b = x // y
    if u // w != b:
        return None
    quotients.append(b)
    return quotients


def sqrt_cf(k: int, count: int) -> tuple[list[int], list[int]]:
    """b_0..b_count of sqrt(k), k not a square, by the classical periodic algorithm.

    Also returns d_1..d_{count+1}, the algorithm's denominators, for the
    Pell-type identity p_n**2 - k*q_n**2 = (-1)**(n+1) * d_{n+1}.
    """
    a0 = nth_root_bisect(k, 2)
    a, mn, d = a0, 0, 1
    terms, dens = [a0], []
    for _ in range(count + 1):
        mn = d * a - mn
        d = (k - mn * mn) // d
        a = (a0 + mn) // d
        terms.append(a)
        dens.append(d)
    return terms[:-1], dens


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


def convergent_side(k: int, m: int, p: int, q: int) -> str:
    """Where p/q lies against k**(1/m): p**m against k*q**m."""
    return "above" if p ** m > k * q ** m else "below"


def expand_exact_oracle(k: int, m: int, count: int) -> list[int]:
    """b_0..b_count by exact search alone, forming no enclosure of alpha:
    b_{n+1} = floor(theta_n), by doubling then bisection on theta_n > t."""
    terms = [nth_root_bisect(k, m)]
    while len(terms) <= count:
        (pp, qp), (p, q) = ([(1, 0)] + convergents_from_terms(terms))[-2:]
        lo, hi = 1, 2
        while theta_exceeds_rational(k, m, p, q, pp, qp, Fraction(hi)):
            lo, hi = hi, hi * 2
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if theta_exceeds_rational(k, m, p, q, pp, qp, Fraction(mid)) else (lo, mid)
        terms.append(lo)
    return terms


def unit_remainder_exact(k: int, m: int, p: int, q: int, pp: int, qp: int) -> bool:
    """|R_n| < 1, i.e. H_n - 1 < theta_n < H_n + 1, with no interval arithmetic.

    theta_n is irrational, so it never equals the rational H_n +- 1.
    """
    h = Fraction(m * p ** (m - 1), abs(p ** m - k * q ** m) * q)
    return (theta_exceeds_rational(k, m, p, q, pp, qp, h - 1)
            and not theta_exceeds_rational(k, m, p, q, pp, qp, h + 1))


def floor_prediction(k: int, m: int, p: int, q: int, qp: int, side: str, actual: int) -> dict:
    """The floor formula and its windows at b_{n+1} = actual, from reduced Fractions.

    H_n and A_n = H_n - q_{n-1}/q_n are built from their closed forms; eps
    is actual - floor(A_n) when that is 0 or 1, else 0.  The windows are the
    side's certain window (H-2 < b <= H above, H-2 < b < H+1 below), the
    general one H-2 < b <= H, and the below side's claim H <= b < H+2.
    """
    h = Fraction(m * p ** (m - 1), abs(p ** m - k * q ** m) * q)
    a = h - Fraction(qp, q)
    candidate = a.numerator // a.denominator
    eps = {candidate: 0, candidate + 1: 1}.get(actual, 0)
    above = side == "above"
    return {
        "leading": h,
        "shifted_leading": a,
        "candidate": candidate,
        "epsilon": eps,
        "predicted": candidate + eps,
        "formula_held": candidate + eps == actual,
        "window_held": h - 2 < actual and (actual <= h if above else actual < h + 1),
        "general_window_ok": h - 2 < actual <= h,
        "below_window_ok": None if above else h <= actual < h + 2,
    }


def unit_threshold(k: int, m: int, bits: int) -> int:
    """Least Q >= 2 with C(Q) <= Q, for
    C(Q) = ((m-1)/2)(a_hi + Q**-2)**(m-2) / (a_lo - Q**-2)**(m-1)
    evaluated in Fractions over alpha_enclosure(k, m, bits) = [a_lo, a_hi]."""
    alpha = alpha_enclosure(k, m, bits)
    q = 2
    while Fraction(m - 1, 2) * (alpha.hi + Fraction(1, q * q)) ** (m - 2) > (
        q * (alpha.lo - Fraction(1, q * q)) ** (m - 1)
    ):
        q += 1
    return q


def _decimal_exponent(x: Fraction) -> int:
    """e with 10**e <= x < 10**(e+1), for x > 0."""
    num, den = x.numerator, x.denominator
    e = (num.bit_length() - den.bit_length()) * 30103 // 100000  # ~ log10(2); the loops decide

    def at_least(exp: int) -> bool:
        return num >= den * 10 ** exp if exp >= 0 else num * 10 ** -exp >= den

    while not at_least(e):
        e -= 1
    while at_least(e + 1):
        e += 1
    return e


def decimal_string(x: Fraction, places: int) -> str:
    """Exact decimal truncation of x toward zero to `places` digits."""
    sign = "-" if x < 0 else ""
    scaled = abs(x.numerator) * 10 ** places // x.denominator
    if places == 0:
        return f"{sign}{scaled}"
    digits = str(scaled).rjust(places + 1, "0")
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def sci_string(x: Fraction) -> str:
    """Exact truncated two-digit scientific notation, e.g. '4.6e-06'; '0' for zero."""
    if x == 0:
        return "0"
    sign = "-" if x < 0 else ""
    ax = abs(Fraction(x))
    e = _decimal_exponent(ax)
    mantissa = ax / Fraction(10) ** e
    digits = str(mantissa.numerator * 10 // mantissa.denominator)
    return f"{sign}{digits[0]}.{digits[1:]}e{e:+03d}"


def justified_places(width: Fraction) -> int:
    """Largest d <= 40 with width <= 10**-d: digits the width certifies."""
    if width < 0:
        raise ValueError("width must be non-negative")
    if width == 0:
        return 40
    if width > 1:
        return 0
    e = _decimal_exponent(width)
    d = -e if width == Fraction(10) ** e else -e - 1
    return max(0, min(40, d))


def enclosure_digits(lo: Fraction, hi: Fraction) -> dict:
    """The digits a report shows for [lo, hi], from reduced Fraction midpoint and width."""
    width, mid = hi - lo, (lo + hi) / 2
    return {
        "decimal": decimal_string(mid, justified_places(width)),
        "width": sci_string(width),
        "lo": str(lo),
        "hi": str(hi),
    }


class Interval:
    """[lo, hi] with exact rational endpoints and exact interval arithmetic:
    each result is the tightest enclosure of the image set.  Scalars mix in
    as points; dividing by an interval that holds 0 raises ZeroDivisionError.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo, self.hi = Fraction(lo), Fraction(hi)
        if self.lo > self.hi:
            raise ValueError(f"empty interval: lo={lo} > hi={hi}")

    def __eq__(self, other):
        return isinstance(other, Interval) and (self.lo, self.hi) == (other.lo, other.hi)

    def __repr__(self):
        return f"Interval({self.lo}, {self.hi})"

    def __contains__(self, value) -> bool:
        return self.lo <= value <= self.hi

    def contains_interval(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def strictly_inside(self, lo, hi) -> bool:
        return lo < self.lo and self.hi < hi

    def intersects(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def intersect(self, other: "Interval") -> "Interval | None":
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        return Interval(lo, hi) if lo <= hi else None

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __add__(self, other):
        other = as_interval(other)
        return Interval(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -as_interval(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other = as_interval(other)
        products = [a * b for a in (self.lo, self.hi) for b in (other.lo, other.hi)]
        return Interval(min(products), max(products))

    __rmul__ = __mul__

    def reciprocal(self):
        if self.lo <= 0 <= self.hi:
            raise ZeroDivisionError(f"0 in {self}")
        return Interval(1 / self.hi, 1 / self.lo)

    def __truediv__(self, other):
        return self * as_interval(other).reciprocal()

    def __rtruediv__(self, other):
        return as_interval(other) * self.reciprocal()

    def __pow__(self, exponent: int):  # exponent >= 0
        powers = (self.lo ** exponent, self.hi ** exponent)
        straddles = exponent % 2 == 0 and self.lo < 0 < self.hi
        return Interval(0 if exponent and straddles else min(powers), max(powers))


def width(enclosure) -> Fraction:
    """hi - lo of an enclosure with lo and hi ends."""
    return enclosure.hi - enclosure.lo


def mid(enclosure) -> Fraction:
    """The midpoint of an enclosure with lo and hi ends."""
    return (enclosure.lo + enclosure.hi) / 2


def as_interval(value) -> Interval:
    """An Interval, an enclosure with lo and hi ends, the integers (lo, hi, den)
    of [lo, hi]/den, or a scalar as a point."""
    if isinstance(value, tuple):
        lo, hi, den = value
        return Interval(Fraction(lo, den), Fraction(hi, den))
    lo, hi = (value.lo, value.hi) if hasattr(value, "lo") else (value, value)
    return Interval(lo, hi)


def alpha_enclosure(k: int, m: int, bits: int) -> Interval:
    """[S, S+1]/2**bits with S = floor(k**(1/m) * 2**bits), by bisection."""
    scaled = nth_root_bisect(k << (m * bits), m)
    return Interval(Fraction(scaled, 1 << bits), Fraction(scaled + 1, 1 << bits))


def complete_quotient_interval(p: int, q: int, pp: int, qp: int, alpha: Interval) -> Interval:
    """theta_n = (p_{n-1} - q_{n-1}*alpha)/(q_n*alpha - p_n) on alpha."""
    return (pp - qp * alpha) / (q * alpha - p)


def general_correction(k: int, m: int, p: int, q: int, alpha: Interval) -> Interval:
    """W_n = (q_n**(m-2)/d_n) (sum_{j<m} x_n**j alpha**(m-1-j) - m x_n**(m-1)) on alpha."""
    x = Fraction(p, q)
    total = sum((alpha ** (m - 1 - j) * x ** j for j in range(m)), as_interval(-m * x ** (m - 1)))
    return total * Fraction(q ** (m - 2), abs(p ** m - k * q ** m))


def cubic_correction(k: int, p: int, q: int, alpha: Interval) -> Interval:
    """V_n = (q_n/d_n)(2x_n**2 - x_n*alpha - alpha**2) on alpha, degree 3, which
    must meet the closed form sgn(x_n - alpha)(2x + alpha)/(q**2 (x**2 + x*alpha + alpha**2))."""
    x = Fraction(p, q)
    defining = (2 * x * x - x * alpha - alpha ** 2) * Fraction(q, abs(p ** 3 - k * q ** 3))
    magnitude = (2 * x + alpha) / ((x * x + x * alpha + alpha ** 2) * q ** 2)
    closed = magnitude if convergent_side(k, 3, p, q) == "above" else -magnitude
    if not defining.intersects(closed):
        raise ArithmeticError(f"cubic correction forms disjoint: {defining} vs {closed}")
    return defining


def remainder(k: int, m: int, p: int, q: int, pp: int, qp: int, alpha: Interval) -> Interval:
    """R_n on alpha: W_n - q_{n-1}/q_n intersected with theta_n - H_n."""
    h = Fraction(m * p ** (m - 1), abs(p ** m - k * q ** m) * q)
    via_correction = general_correction(k, m, p, q, alpha) - Fraction(qp, q)
    via_quotient = complete_quotient_interval(p, q, pp, qp, alpha) - h
    out = via_correction.intersect(via_quotient)
    if out is None:
        raise ArithmeticError(f"remainder routes disjoint: {via_correction} vs {via_quotient}")
    return out


# Frozen prefixes produced by cf_terms_fixed_point (bits = 2000).
CF_CBRT2 = [1, 3, 1, 5, 1, 1, 4, 1, 1, 8, 1, 14]
CF_CBRT3 = [1, 2, 3, 1, 4, 1, 5, 1]
CF_CBRT5 = [1, 1, 2, 2, 4, 3, 3, 1]
CF_FIFTH2 = [1, 6, 1, 2, 1, 1, 1, 3]
CF_TENTH50 = [1, 2, 11, 3, 1, 2, 1, 1, 4, 2, 3, 20, 1]
