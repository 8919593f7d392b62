"""Exact integer/rational kernel for alpha = k**(1/m).

No floats anywhere.  Order decisions against alpha are made by integer
power comparisons.  Every alpha-dependent real a report shows is a
`RationalInterval` built from the integer ends of [S, S+1]/2**bits,
certified to contain the true value.
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Callable, NamedTuple, TypeVar

T = TypeVar("T")

DEFAULT_START_BITS = 64
DEFAULT_MAX_BITS = 1 << 20


class InvalidDegreeError(ValueError):
    """Root degree m < 2."""


class PerfectPowerError(ValueError):
    """Radicand is a p-th power for some prime p dividing the degree."""


class PrecisionCeilingError(RuntimeError):
    """Adaptive refinement exceeded the configured bit cap."""

    def __init__(self, bits: int):
        super().__init__(f"precision refinement exceeded the {bits}-bit cap")
        self.bits = bits

    def __reduce__(self):
        # The default pickles self.args (the message) and would rebuild the
        # error by passing that message back in as `bits`.
        return type(self), (self.bits,)


class InconsistentEnclosureError(ArithmeticError):
    """Two enclosures of the same real value are disjoint; implementation bug."""


class WrongDegreeError(ValueError):
    """Cubic-only operation applied to a spec of different degree."""


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def int_nth_root(x: int, m: int) -> int:
    """Integer m-th root: the unique r >= 0 with r**m <= x < (r+1)**m.

    Newton's method on integers from an over-estimate seeded by the root
    of x's top bits, with a final exact adjustment; total for all x >= 0,
    m >= 1.
    """
    if x < 0:
        raise ValueError("x must be non-negative")
    if m < 1:
        raise ValueError("m must be positive")
    return _nth_root(x, m)


def _nth_root(x: int, m: int) -> int:
    if m == 1 or x < 2:
        return x
    if m == 2:
        return math.isqrt(x)
    if x.bit_length() <= m:
        return 1
    shift = x.bit_length() // m // 2
    if shift >= 32:
        # With y = x >> (m * shift): x < (y + 1) * 2**(m * shift) and
        # y + 1 <= (root(y) + 1)**m, so r > x**(1/m); about the top half
        # of r's bits are already right, so few Newton steps remain.
        r = (_nth_root(x >> (m * shift), m) + 1) << shift
    else:
        # 2**ceil(bits/m) >= x**(1/m).
        r = 1 << -(-x.bit_length() // m)
    # From above, the iteration decreases monotonically to the root.
    while True:
        s = ((m - 1) * r + x // r ** (m - 1)) // m
        if s >= r:
            break
        r = s
    while r ** m > x:
        r -= 1
    while (r + 1) ** m <= x:
        r += 1
    return r


def prime_divisors(m: int) -> tuple[int, ...]:
    """Distinct prime divisors of m >= 2, ascending."""
    primes = []
    p, rest = 2, m
    while p * p <= rest:
        if rest % p == 0:
            primes.append(p)
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        primes.append(rest)
    return tuple(primes)


class _SpecFields(NamedTuple):
    k: int
    m: int


class RadicandSpec(_SpecFields):
    """The pair (k, m) defining alpha = k**(1/m).

    Construction rejects k that is a p-th power for any prime p | m, so
    x**m - k is irreducible and alpha is irrational of degree exactly m.
    Degree 2 is admitted as a cross-check regime (periodic expansions).
    """

    __slots__ = ()

    def __new__(cls, k: int, m: int):
        if not isinstance(k, int) or not isinstance(m, int):
            raise TypeError("k and m must be integers")
        if m < 2:
            raise InvalidDegreeError(f"degree m must be >= 2, got {m}")
        if k < 1:
            raise ValueError(f"radicand k must be positive, got {k}")
        for p in prime_divisors(m):
            r = int_nth_root(k, p)
            if r ** p == k:
                raise PerfectPowerError(
                    f"k = {k} = {r}**{p} with prime {p} | m = {m}; "
                    f"alpha would be rational or of reduced degree"
                )
        return tuple.__new__(cls, (k, m))

    @classmethod
    def _make(cls, iterable):
        # `_replace` builds its result here; validate it like any other.
        return cls(*iterable)


def validate_spec(k: int, m: int) -> RadicandSpec:
    """Validate (k, m) and return a RadicandSpec; raises on degenerate input."""
    return RadicandSpec(k=k, m=m)


def sign_linear_in_alpha(spec: RadicandSpec, u: int, v: int) -> int:
    """Exact sign of u*alpha + v, decided by integer comparisons.

    For u != 0 the result is never 0 because alpha is irrational.
    """
    if u == 0:
        return _sign(v)
    if u > 0 and v >= 0:
        return 1
    if u < 0 and v <= 0:
        return -1
    # u, v have opposite signs: compare k*|u|**m against |v|**m.
    lhs = spec.k * abs(u) ** spec.m
    rhs = abs(v) ** spec.m
    if lhs == rhs:
        raise ArithmeticError(
            f"{abs(v)}/{abs(u)} equals alpha; spec ({spec.k},{spec.m}) is degenerate"
        )
    s = 1 if lhs > rhs else -1
    return s if u > 0 else -s


class RationalInterval:
    """Interval [lo, hi] with exact rational endpoints, as a report shows it.

    Immutable, and not a tuple: intervals have no total order to sort by.
    It has no arithmetic; the tests' oracles hold interval arithmetic.
    """

    __slots__ = ("lo", "hi")
    lo: Fraction
    hi: Fraction

    def __init__(self, lo, hi):
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise ValueError(f"empty interval: lo={lo} > hi={hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), (self.lo, self.hi)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __repr__(self):
        return f"RationalInterval(lo={self.lo!r}, hi={self.hi!r})"

    def __str__(self):
        return f"[{self.lo}, {self.hi}]"

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2


@functools.lru_cache(maxsize=32)
def _scaled_root(k: int, m: int, bits: int) -> int:
    # floor(alpha * 2**bits).  Memoised: verify encloses every index of an
    # expansion at one precision, and would otherwise take this root per index.
    return int_nth_root(k << (m * bits), m)


def alpha_interval(spec: RadicandSpec, bits: int) -> RationalInterval:
    """Binary enclosure [S, S+1]/2**bits of alpha, S = floor(alpha * 2**bits)."""
    scaled = _scaled_root(spec.k, spec.m, bits)
    return RationalInterval(Fraction(scaled, 1 << bits), Fraction(scaled + 1, 1 << bits))


def refine(attempt: Callable[[int], T | None], start_bits: int, max_bits: int) -> T:
    """Call attempt(bits) at start_bits, then at doubled bits, until it answers.

    This is the package's one precision policy.  An attempt that returns
    None found its enclosures too coarse and is retried at twice the bits;
    once the next precision would exceed max_bits,
    PrecisionCeilingError(max_bits) is raised.  The first attempt always
    runs.  Exceptions propagate unchanged.
    """
    bits = start_bits
    while True:
        result = attempt(bits)
        if result is not None:
            return result
        bits *= 2
        if bits > max_bits:
            raise PrecisionCeilingError(max_bits)
