"""Exact integer/rational kernel for alpha = k**(1/m).

No floats anywhere.  Order decisions against alpha are made by integer
power comparisons.  alpha is enclosed as the integers (S, S+1, 2**bits)
of [S, S+1]/2**bits (`alpha_interval`), and every alpha-dependent real a
report shows is a `RationalInterval` built from them, certified to
contain the true value.
"""
from __future__ import annotations

import functools
import math
from collections import namedtuple
from typing import TYPE_CHECKING, Callable, TypeVar

if TYPE_CHECKING:
    from fractions import Fraction

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
    of x's top bits, stopping at the first step at or below the root, with
    an exact confirmation; total for all x >= 0, m >= 1.
    """
    if x < 0:
        raise ValueError("x must be non-negative")
    if m < 1:
        raise ValueError("m must be positive")
    return _nth_root(x, m)


# The least shift at which a root is seeded from the root of fewer bits.
_MIN_SPLIT = 32


def _nth_root(x: int, m: int) -> int:
    if m == 1 or x < 2:
        return x
    if m == 2:
        return math.isqrt(x)
    if x.bit_length() <= m:
        return 1
    shift = x.bit_length() // m // 2
    if shift >= _MIN_SPLIT:
        # With y = x >> (m * shift): x < (y + 1) * 2**(m * shift) and
        # y + 1 <= (root(y) + 1)**m, so r > x**(1/m); about the top half
        # of r's bits are already right, so few Newton steps remain.
        r = (_nth_root(x >> (m * shift), m) + 1) << shift
    else:
        # 2**ceil(bits/m) >= x**(1/m).
        r = 1 << -(-x.bit_length() // m)
    return _root_from_above(x, m, r)


def _root_from_above(x: int, m: int, r: int) -> int:
    """The integer m-th root of x > 1, m >= 3, by Newton from r >= x**(1/m)."""
    # A step r - ceil((r**m - x) / (m*r**(m-1))) from above stays above
    # x**(1/m) - 1 (r**m is convex), so it never passes the floor, and the
    # first r with r**m <= x is the root.
    while (excess := (power := r ** (m - 1)) * r - x) > 0:
        r -= -(-excess // (m * power))
    # (r + 1)**m >= r**m + m*r**(m-1) confirms most roots without a power.
    if -excess >= m * power and (r + 1) ** m <= x:
        raise ArithmeticError(f"integer {m}-th root of a {x.bit_length()}-bit x failed its exact check")
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


class RadicandSpec(namedtuple("RadicandSpec", "k m")):
    """The pair (k, m) defining alpha = k**(1/m); k: int, m: int.

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

    Each end is kept as its maker gave it, a numerator over a positive
    denominator, unreduced (`ends`): a report prints the ends reduced
    (`fraction_string`), so reducing them here as well would run
    every gcd twice.  A pickled interval keeps its ends unreduced.  `lo`
    and `hi`, the reduced `Fraction`s, are for library callers only: they
    and the two-rational constructor import `fractions`, which no command
    loads.
    Immutable, and not a tuple: intervals have no total order to sort by.
    It has no arithmetic; the tests' oracles hold interval arithmetic.
    """

    __slots__ = ("ends",)
    ends: tuple[tuple[int, int], tuple[int, int]]

    def __init__(self, lo, hi):
        lo, hi = _fraction(lo), _fraction(hi)
        if lo > hi:
            raise ValueError(f"empty interval: lo={lo} > hi={hi}")
        object.__setattr__(self, "ends", ((lo.numerator, lo.denominator),
                                          (hi.numerator, hi.denominator)))

    @classmethod
    def from_ends(cls, lo: tuple[int, int], hi: tuple[int, int]) -> RationalInterval:
        """[lo, hi] from its ends as (numerator, denominator), kept unreduced."""
        if lo[1] <= 0 or hi[1] <= 0:
            raise ValueError(f"denominators must be positive: lo={lo}, hi={hi}")
        if _less(hi, lo):
            raise ValueError(f"empty interval: lo={_fraction(*lo)} > hi={_fraction(*hi)}")
        iv = object.__new__(cls)
        object.__setattr__(iv, "ends", (lo, hi))
        return iv

    @property
    def lo(self) -> Fraction:
        return _fraction(*self.ends[0])

    @property
    def hi(self) -> Fraction:
        return _fraction(*self.ends[1])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self).from_ends, self.ends

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(a * y == x * b for (a, b), (x, y) in zip(self.ends, other.ends))

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __repr__(self):
        return f"RationalInterval(lo={self.lo!r}, hi={self.hi!r})"

    def __str__(self):
        return f"[{self.lo}, {self.hi}]"


def _fraction(*args) -> Fraction:
    """Fraction(*args), importing `fractions` (and with it `decimal`) on first use."""
    from fractions import Fraction

    return Fraction(*args)


def fraction_string(num: int, den: int) -> str:
    """str(Fraction(num, den)) for den > 0, by a gcd of the odd parts alone.

    gcd(a*2**i, b*2**j) = 2**min(i, j) * gcd(a, b) for odd a, b: an end
    over q_n*d_n*2**(B(m-1)) runs its gcd against the odd part of q_n*d_n.
    """
    if num == 0:
        return "0"
    i, j = (num & -num).bit_length() - 1, (den & -den).bit_length() - 1
    g = math.gcd(num >> i, den >> j) << min(i, j)
    if g != 1:
        num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


def _less(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """a < b for rationals given as (numerator, positive denominator).

    Over one denominator the numerators alone decide.
    """
    if a[1] == b[1]:
        return a[0] < b[0]
    return a[0] * b[1] < b[0] * a[1]


def alpha_interval(spec: RadicandSpec, bits: int) -> tuple[int, int, int]:
    """(S, S + 1, 2**bits): alpha lies in [S, S+1]/2**bits, S = floor(alpha * 2**bits).

    Every consumer works on these integers; none builds the reduced
    endpoints.  S is `int_nth_root(k << m*bits, m)`, read from
    `_scaled_alpha`'s one cache per level, so verify, which encloses
    every index of an expansion at one precision, finds each root once.
    """
    scaled = _scaled_alpha(spec, bits)
    return scaled, scaled + 1, 1 << bits


@functools.lru_cache(maxsize=32)
def _scaled_alpha(spec: RadicandSpec, bits: int) -> int:
    """floor(alpha * 2**bits), memoised per level.

    Newton runs down from S at half the bits, shifted up: S_h + 1 >
    alpha * 2**h.  For k < 2**(2m-1) and even bits this is the start
    `int_nth_root(k << m*bits, m)` makes by its own recursion, so the
    steps and S are its own; read from here, a level that a precision
    climb has already reached is not worked out again.
    """
    k, m = spec
    half = bits // 2
    if m == 2 or half < _MIN_SPLIT:
        return int_nth_root(k << (m * bits), m)
    start = (_scaled_alpha(spec, half) + 1) << (bits - half)
    return _root_from_above(k << (m * bits), m, start)


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
