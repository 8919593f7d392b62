"""Certified regular continued fraction expansion of alpha = k**(1/m).

`expand` runs integer Euclid on both endpoints of alpha's binary
enclosure [S, S+1]/2**bits, taken as the integers `alpha_interval`
returns, and keeps the quotients on which they agree
(precision-adaptive); the last term is re-checked by the exact order test
`verify_quotient`.  Its `Expansion` holds the partial quotients b_0..b_N
and the bits, and no convergent: `Expansion.convergents()` walks the
`Convergent`s p_n/q_n from the quotients for whoever reads them
(`predict`, `verify`, library callers), and the `expand` command prints
them as it writes them.  The tests cross-certify the expansion against an
exact-search expansion and a fixed-precision one (tests/oracles.py).
`complete_quotient_interval` and `next_partial_quotient` stay public for
the benchmark's tracer only.
"""
from __future__ import annotations

from collections import deque
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


def _euclid_quotients(lo: int, hi: int, den: int, count: int) -> list[int] | None:
    """Partial quotients b_0..b_count shared by every point of [lo, hi]/den, den > 0.

    x -> 1/(x - b) is monotone on an interval that avoids b, so the Gauss
    map of an interval with exact rational endpoints is the Gauss map of
    each endpoint, and that is Euclid's algorithm on the endpoint's
    numerator and denominator.  Those need not be reduced: Euclid on
    (g*x, g*y) gives the quotients of (x, y) and remainders g times theirs.
    None once the two floors part, or when an endpoint's remainder is
    zero before the last term (the enclosed complete quotient may then be
    an integer).
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


def _expand_at(spec: RadicandSpec, count: int, bits: int) -> Expansion | None:
    """The certified quotients at one precision; None if some floor is ambiguous."""
    quotients = _euclid_quotients(*alpha_interval(spec, bits), count)
    if quotients is None:
        return None
    assert quotients[0] == int_nth_root(spec.k, spec.m)
    if count >= 1:
        # b_N = floor(theta_{N-1}) reads convergents N-1 and N-2 only.
        last = deque(Expansion(spec, quotients[:-1], bits).convergents(), 2)
        conv, prev = last.pop(), last.pop() if last else None
        if not verify_quotient(spec, conv, prev, quotients[-1]):
            raise InconsistentEnclosureError(
                "endpoint Euclid expansion disagrees with the exact oracle on the last term"
            )
    return Expansion(spec=spec, partial_quotients=quotients, precision_bits=bits)


def _first_useful_bits(count: int) -> int:
    """The least level 64*2**j at which expanding to b_count can succeed.

    The reals that share b_0..b_N with N = count fill a half-open interval
    between p_N/q_N and (p_N + p_{N-1})/(q_N + q_{N-1}), of length
    1/(q_N*(q_N + q_{N-1})).  Both ends of [S, S+1]/2**B must lie in it, so
    a try at B bits needs 2**B > q_N*(q_N + q_{N-1}) >= F_{N+1}*F_{N+2},
    since q_n >= F_{n+1} (Fibonacci, F_1 = F_2 = 1).  Every lower level
    fails, so starting here gives the same precision as starting at 64.
    """
    f, g = 1, 1  # F_{n+1}, F_{n+2} at n = 0
    for _ in range(count):
        f, g = g, f + g
    least = (f * g).bit_length()  # 2**B > f*g exactly when B >= least
    bits = DEFAULT_START_BITS
    while bits < least:
        bits *= 2
    return bits


def expand(
    spec: RadicandSpec,
    count: int,
    *,
    max_bits: int = DEFAULT_MAX_BITS,
) -> Expansion:
    """Certified partial quotients b_0..b_count by integer Euclid on enclosure endpoints.

    alpha is enclosed in [s, s+1]/2**bits and Euclid runs on both
    endpoints; a term is kept only where their floors agree.  When some
    floor is ambiguous the whole prefix is recomputed at doubled precision
    (`refine`), so every certified term is certain, not merely probable.
    The doubling starts at the first level that can succeed
    (`_first_useful_bits`).  The final term is re-certified by the exact
    order test.  No convergent is kept: `Expansion.convergents()` walks
    them from the quotients.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    start_bits = _first_useful_bits(count)
    if start_bits > max(max_bits, DEFAULT_START_BITS):
        # Every level up to the cap provably fails.
        raise PrecisionCeilingError(max_bits)
    return refine(lambda bits: _expand_at(spec, count, bits), start_bits, max_bits)
