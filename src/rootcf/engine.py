"""Certified regular continued fraction expansion of alpha = k**(1/m).

Two independent routes produce partial quotients: `expand` runs integer
Euclid on both endpoints of a binary enclosure of alpha and keeps the
quotients on which they agree (fast, precision-adaptive), while
`expand_exact_oracle` finds each quotient by binary search on an exact
integer order test and never forms an enclosure.  They must agree; tests
cross-certify them.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .exact import (
    DEFAULT_MAX_BITS,
    DEFAULT_START_BITS,
    InconsistentEnclosureError,
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


@dataclass(frozen=True)
class Convergent:
    """One expansion term: partial quotient b_n with convergent p_n/q_n."""

    n: int
    b: int
    p: int
    q: int
    side: Side

    def value(self) -> Fraction:
        return Fraction(self.p, self.q)


def _prev_pq(prev: Convergent | None) -> tuple[int, int]:
    # Seed (p_{-1}, q_{-1}) = (1, 0) stands in for the term before index 0.
    return (prev.p, prev.q) if prev is not None else (1, 0)


def convergent_side(spec: RadicandSpec, p: int, q: int) -> Side:
    """Exact classification of p/q against alpha: p**m vs k*q**m."""
    return Side.ABOVE if p ** spec.m > spec.k * q ** spec.m else Side.BELOW


def convergent_step(
    spec: RadicandSpec,
    prev: tuple[Convergent | None, Convergent | None],
    b: int,
) -> Convergent:
    """Apply the recurrence p_n = b*p_{n-1} + p_{n-2} (same for q).

    `prev` is (previous, one-before-previous); pass (None, None) to start
    from the seeds (1,0), (0,1).
    """
    if b < 1:
        raise ValueError(f"partial quotient must be >= 1, got {b}")
    p1, q1 = _prev_pq(prev[0])
    if prev[1] is not None:
        p2, q2 = prev[1].p, prev[1].q
    elif prev[0] is not None:
        p2, q2 = 1, 0  # n = 1: the term two back is the (1, 0) seed
    else:
        p2, q2 = 0, 1  # n = 0: the term two back is the (0, 1) seed
    n = prev[0].n + 1 if prev[0] is not None else 0
    p, q = b * p1 + p2, b * q1 + q2
    return Convergent(n=n, b=b, p=p, q=q, side=convergent_side(spec, p, q))


@dataclass(frozen=True)
class Expansion:
    """Partial quotients b_0..b_N of alpha with their convergents."""

    spec: RadicandSpec
    terms: tuple[Convergent, ...]
    precision_bits: int

    @property
    def partial_quotients(self) -> list[int]:
        return [t.b for t in self.terms]

    def pair(self, n: int) -> tuple[Convergent, Convergent | None]:
        """(convergent n, convergent n-1); the latter is None at n = 0."""
        return self.terms[n], self.terms[n - 1] if n >= 1 else None


def complete_quotient_interval(
    conv: Convergent, prev: Convergent | None, alpha_iv: RationalInterval
) -> RationalInterval:
    """Enclosure of theta_n = (p_{n-1} - q_{n-1}*alpha)/(q_n*alpha - p_n).

    Equivalent to 1/(q_n|q_n*alpha - p_n|) - q_{n-1}/q_n with the sign
    handled implicitly.  Raises IntervalZeroDivisionError when alpha_iv is
    too wide to separate the denominator from zero.
    """
    pp, qp = _prev_pq(prev)
    num = pp - qp * alpha_iv
    den = conv.q * alpha_iv - conv.p
    return num / den


def _theta_exceeds(
    spec: RadicandSpec, conv: Convergent, prev: Convergent | None, t: int | Fraction
) -> bool:
    """Exact decision theta_n > t for rational t = a/b using integer signs only.

    b*(theta_n - t) has the sign of (b*p_{n-1} + a*p_n) - (b*q_{n-1} + a*q_n)*alpha
    divided by q_n*alpha - p_n.  The first sign is one exact test; the
    second is the convergent's side (negative above alpha, positive below).
    """
    pp, qp = _prev_pq(prev)
    a, b = t.numerator, t.denominator
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


def _euclid_quotients(lo: Fraction, hi: Fraction, count: int) -> list[int] | None:
    """Partial quotients b_0..b_count shared by every point of [lo, hi].

    x -> 1/(x - b) is monotone on an interval that avoids b, so the Gauss
    map of an interval with exact rational endpoints is the Gauss map of
    each endpoint, and that is Euclid's algorithm on the endpoint's
    numerator and denominator.  None once the two floors part, or when an
    endpoint's remainder is zero before the last term (the enclosed
    complete quotient may then be an integer).
    """
    x, y = lo.numerator, lo.denominator
    u, w = hi.numerator, hi.denominator
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
    """The certified expansion at one precision; None if some floor is ambiguous."""
    alpha = alpha_interval(spec, bits)
    quotients = _euclid_quotients(alpha.lo, alpha.hi, count)
    if quotients is None:
        return None
    assert quotients[0] == int_nth_root(spec.k, spec.m)
    # Convergents of an irrational number alternate about it, starting
    # below with b_0 = floor(alpha): the side is the parity of n.
    terms: list[Convergent] = []
    p, q, pp, qp = 1, 0, 0, 1
    for n, b in enumerate(quotients):
        p, q, pp, qp = b * p + pp, b * q + qp, p, q
        terms.append(Convergent(n=n, b=b, p=p, q=q, side=Side.ABOVE if n % 2 else Side.BELOW))
    if count >= 1:
        certified = verify_quotient(
            spec, terms[-2], terms[-3] if count >= 2 else None, terms[-1].b
        )
        if not certified:
            raise InconsistentEnclosureError(
                "endpoint Euclid expansion disagrees with the exact oracle on the last term"
            )
    return Expansion(spec=spec, terms=tuple(terms), precision_bits=bits)


def expand(
    spec: RadicandSpec,
    count: int,
    *,
    max_bits: int = DEFAULT_MAX_BITS,
) -> Expansion:
    """Certified expansion b_0..b_count by integer Euclid on enclosure endpoints.

    alpha is enclosed in [s, s+1]/2**bits and Euclid runs on both
    endpoints; a term is kept only where their floors agree.  When some
    floor is ambiguous the whole prefix is recomputed at doubled precision
    (`refine`), so every emitted term is certain, not merely probable.
    The final term is re-certified by the exact oracle.  Each convergent's
    side is taken from the parity of n (even below, odd above), which
    holds for every irrational alpha; `convergent_side` is the exact test.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    return refine(lambda bits: _expand_at(spec, count, bits), DEFAULT_START_BITS, max_bits)


def expand_exact_oracle(spec: RadicandSpec, count: int) -> Expansion:
    """Expansion via the exact order test only; no interval arithmetic.

    Asymptotically slower than `expand`; exists to cross-certify it.
    precision_bits is reported as 0 because no enclosure is ever formed.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    terms: list[Convergent] = []
    prev: Convergent | None = None
    prev2: Convergent | None = None
    b = int_nth_root(spec.k, spec.m)
    for n in range(count + 1):
        conv = convergent_step(spec, (prev, prev2), b)
        terms.append(conv)
        prev2, prev = prev, conv
        if n < count:
            b = next_partial_quotient(spec, conv, prev2)
    return Expansion(spec=spec, terms=tuple(terms), precision_bits=0)
