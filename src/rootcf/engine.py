"""Certified regular continued fraction expansion of alpha = k**(1/m).

`expand` climbs a ladder of precisions.  At each rung it runs one
integer Euclid pass on the lower end of alpha's binary enclosure
[S, S+1]/2**bits, taken as the integers `alpha_interval` returns, and
reads the upper end's remainders from the lower end's and the tracked
convergents; it keeps the quotients on which both ends agree.  The
ladder starts at 64 bits, and a rung that stops short hands its certified
prefix to the next, which resumes where it stopped; a count too large
for every rung under the cap is refused by an O(1) bound before any rung.
Once a rung answers, the last term is re-checked by the exact order test
`verify_quotient`.  Its `Expansion` holds the partial quotients b_0..b_N
and the bits, and no convergent: `Expansion.convergents()` walks the
`Convergent`s p_n/q_n from the quotients for whoever reads them
(`predict`, `verify`, library callers), and the `expand` command prints
them as it writes them.  The tests cross-certify the expansion against an
exact-search expansion, a fixed-precision one and the two-chain Euclid
route (tests/oracles.py).  `complete_quotient_interval` and
`next_partial_quotient` stay public for the benchmark's tracer only.
"""
from __future__ import annotations

from collections.abc import Iterator
from enum import Enum
from typing import NamedTuple

from .exact import (
    DEFAULT_MAX_BITS,
    DEFAULT_START_BITS,
    InconsistentEnclosureError,
    PrecisionCeilingError,
    RadicandSpec,
    RationalInterval,
    alpha_interval,
    int_nth_root,
    refine,
    sign_linear_in_alpha,
)


class Side(Enum):
    """Whether a convergent exceeds alpha or falls short of it."""

    ABOVE = "above"
    BELOW = "below"


class Convergent(NamedTuple):
    """One expansion term: partial quotient b_n with convergent p_n/q_n."""

    n: int
    b: int
    p: int
    q: int
    side: Side


# Convergents of an irrational number alternate about it, starting below
# with b_0 = floor(alpha): the side of convergent n is _SIDES[n & 1].
_SIDES = (Side.BELOW, Side.ABOVE)


def _prev_pq(prev: Convergent | None) -> tuple[int, int]:
    # Seed (p_{-1}, q_{-1}) = (1, 0) stands in for the term before index 0.
    return (prev.p, prev.q) if prev is not None else (1, 0)


class Expansion(NamedTuple):
    """Certified partial quotients b_0..b_N of alpha, and the bits that certified them."""

    spec: RadicandSpec
    partial_quotients: list[int]
    precision_bits: int

    def convergents(self) -> Iterator[Convergent]:
        """Convergents n = 0..N: p_n = b_n*p_{n-1} + p_{n-2}, q_n likewise.

        Each side is the parity of n (even below, odd above), which holds
        for every irrational alpha.  Each is built positionally, which
        halves the cost of the walk against keyword construction.
        """
        p, q, pp, qp = 1, 0, 0, 1
        new = tuple.__new__
        for n, b in enumerate(self.partial_quotients):
            p, q, pp, qp = b * p + pp, b * q + qp, p, q
            yield new(Convergent, (n, b, p, q, _SIDES[n & 1]))


def _theta_corners(
    conv: Convergent, prev: Convergent | None, a: int, b: int, den: int
) -> tuple[tuple[int, int], tuple[int, int]] | None:
    """Least and greatest of theta_n's corners over alpha in [a, b]/den, den > 0.

    theta_n = (p_{n-1} - q_{n-1}*alpha)/(q_n*alpha - p_n) spans the corners
    n_i/d_j, n_i = p_{n-1}*den - q_{n-1}*s_i, d_j = q_n*s_j - p_n*den, over
    s_0 = a, s_1 = b; each is returned as (numerator, positive denominator).
    None when d_0 <= 0 <= d_1: the denominator is not separated from 0.
    """
    pp, qp = _prev_pq(prev)
    p_den, pp_den = conv.p * den, pp * den
    d0, d1 = conv.q * a - p_den, conv.q * b - p_den
    n0, n1 = pp_den - qp * a, pp_den - qp * b  # n1 <= n0
    if d0 > 0:
        n_lo, n_hi, d_lo, d_hi = n1, n0, d0, d1
    elif d1 < 0:  # negate every corner's numerator and denominator
        n_lo, n_hi, d_lo, d_hi = -n0, -n1, -d1, -d0
    else:
        return None
    # Over positive denominators the least corner has the least
    # numerator, over the largest denominator if that numerator is >= 0.
    return (n_lo, d_hi if n_lo >= 0 else d_lo), (n_hi, d_lo if n_hi >= 0 else d_hi)


def complete_quotient_interval(
    conv: Convergent, prev: Convergent | None, alpha_iv: tuple[int, int, int]
) -> RationalInterval:
    """Enclosure of theta_n = (p_{n-1} - q_{n-1}*alpha)/(q_n*alpha - p_n) on alpha_iv.

    alpha_iv is (a, b, den) for [a, b]/den, as `alpha_interval` gives it.
    ZeroDivisionError when alpha_iv cannot separate the denominator from 0.
    """
    corners = _theta_corners(conv, prev, *alpha_iv)
    if corners is None:
        raise ZeroDivisionError(f"q_n*alpha - p_n is not separated from 0 at n={conv.n}")
    return RationalInterval.from_ends(*corners)


def _theta_exceeds(
    spec: RadicandSpec, conv: Convergent, prev: Convergent | None, a: int, b: int = 1
) -> bool:
    """Exact decision theta_n > a/b, b > 0, using integer signs only.

    b*(theta_n - a/b) has the sign of (b*p_{n-1} + a*p_n) - (b*q_{n-1} + a*q_n)*alpha
    divided by q_n*alpha - p_n.  The first sign is one exact test; the
    second is the convergent's side (negative above alpha, positive below).
    (a, b) need not be reduced: scaling both by g > 0 scales the linear
    form by g and keeps its sign.
    """
    pp, qp = _prev_pq(prev)
    num_sign = sign_linear_in_alpha(spec, -(b * qp + a * conv.q), b * pp + a * conv.p)
    return (num_sign < 0) if conv.side is Side.ABOVE else (num_sign > 0)


def verify_quotient(spec: RadicandSpec, conv: Convergent, prev: Convergent | None, t: int) -> bool:
    """Exact certificate that floor(theta_n) = t; no precision parameter."""
    if t < 1:
        return False
    return _theta_exceeds(spec, conv, prev, t) and not _theta_exceeds(spec, conv, prev, t + 1)


def next_partial_quotient(spec: RadicandSpec, conv: Convergent, prev: Convergent | None) -> int:
    """b_{n+1} = floor(theta_n) by doubling then binary search on the order test."""
    lo, hi = 1, 2
    while _theta_exceeds(spec, conv, prev, hi):
        lo, hi = hi, hi * 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _theta_exceeds(spec, conv, prev, mid):
            lo = mid
        else:
            hi = mid
    return lo


class _Prefix:
    """Quotients b_0..b_{j-1} certified so far, and the convergents j-1 and j-2.

    Enclosures [S, S+1]/2**B nest as B grows, and every point of one
    shares the certified quotients, so a try at more bits resumes at step
    j instead of redoing the prefix.  Before any step the convergents are
    the seeds (p_{-1}, q_{-1}) = (1, 0) and (p_{-2}, q_{-2}) = (0, 1).
    """

    __slots__ = ("quotients", "p", "q", "pp", "qp")

    def __init__(self):
        self.quotients: list[int] = []
        self.p, self.q, self.pp, self.qp = 1, 0, 0, 1

    def advance(self, s: int, den: int, count: int) -> bool:
        """Extend the prefix toward b_0..b_count, shared by every point of [s, s+1]/den.

        x -> 1/(x - b) is monotone on an interval that avoids b, so the
        Gauss map of an interval with exact rational endpoints is the
        Gauss map of each endpoint: Euclid on its numerator and
        denominator.  Euclid runs on (s, den) alone.  Step n divides
        x_n = (-1)**n (q_{n-2}*s - p_{n-2}*den) by
        y_n = -(-1)**n (q_{n-1}*s - p_{n-1}*den), and the s + 1 end's pair
        is (x_n, y_n) + (-1)**n (q_{n-2}, -q_{n-1}).  So that end has the
        same floor b_n exactly when its remainder r_n + (-1)**n q_n lies in
        [0, y_n - (-1)**n q_{n-1}).  Before the last term both remainders
        must be nonzero, or the enclosed complete quotient may be an
        integer.  True once the prefix holds b_0..b_count, with
        convergents count-1 and count-2; False where the floors part or a
        remainder is zero, the prefix then holding the steps before.
        """
        quotients = self.quotients
        p, q, pp, qp = self.p, self.q, self.pp, self.qp
        sign = -1 if len(quotients) & 1 else 1  # (-1)**n at step n
        x, y = sign * (qp * s - pp * den), sign * (p * den - q * s)
        for _ in range(len(quotients), count):
            b, r = divmod(x, y)
            qn = b * q + qp
            if r == 0 or not 0 < r + sign * qn < y - sign * q:
                break
            quotients.append(b)
            p, q, pp, qp = b * p + pp, qn, p, q
            x, y, sign = y, r, -sign
        self.p, self.q, self.pp, self.qp = p, q, pp, qp
        if len(quotients) < count:
            return False
        b, r = divmod(x, y)
        if not 0 <= r + sign * (b * q + qp) < y - sign * q:
            return False
        quotients.append(b)
        return True


def expand(
    spec: RadicandSpec,
    count: int,
    *,
    max_bits: int = DEFAULT_MAX_BITS,
) -> Expansion:
    """Certified partial quotients b_0..b_count by integer Euclid on enclosure endpoints.

    alpha is enclosed in [s, s+1]/2**bits, and one Euclid pass per try
    certifies the terms on which both endpoints' floors agree.  Tries run
    at 64 bits and then at doubled precision (`refine`), each resuming
    one `_Prefix` after the terms already certified: the finer enclosure
    nests in the coarser, so they stand, and the result is that of a
    fresh try at the finer level.  So every certified term is certain,
    not merely probable.  The final term is re-certified by the exact
    order test on the prefix's convergents N-1 and N-2.  No convergent is
    kept: `Expansion.convergents()` walks them from the quotients.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    # The reals that share b_0..b_N fill an interval of length
    # 1/(q_N*(q_N + q_{N-1})), and q_n >= F_{n+1} (Fibonacci), so a try at
    # B bits needs 2**B > F_{N+1}*F_{N+2} >= phi**(2N-1); 0.694 < log2(phi).
    # A count too large for every level up to the cap fails without a try.
    if (2 * count - 1) * 694 // 1000 >= max(max_bits, DEFAULT_START_BITS):
        raise PrecisionCeilingError(max_bits)
    prefix = _Prefix()

    def attempt(bits: int) -> int | None:
        s, _, den = alpha_interval(spec, bits)
        return bits if prefix.advance(s, den, count) else None

    bits = refine(attempt, DEFAULT_START_BITS, max_bits)
    quotients = prefix.quotients
    assert quotients[0] == int_nth_root(spec.k, spec.m)
    if count >= 1:
        n = count - 1
        conv = Convergent(n, quotients[n], prefix.p, prefix.q, _SIDES[n & 1])
        prev = None
        if n:
            prev = Convergent(n - 1, quotients[n - 1], prefix.pp, prefix.qp, _SIDES[(n - 1) & 1])
        if not verify_quotient(spec, conv, prev, quotients[-1]):
            raise InconsistentEnclosureError(
                "endpoint Euclid expansion disagrees with the exact oracle on the last term"
            )
    return Expansion(spec=spec, partial_quotients=quotients, precision_bits=bits)
