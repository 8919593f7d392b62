"""Every digit a report prints, worked out on integers.

An enclosure's digits come from its endpoints' numerators and
denominators: its midpoint truncated to the places its width justifies,
and the width in two-digit scientific notation.  A convergent's digits
come from an exact decimal recurrence over the certified partial
quotients, checked against the integers batch by batch.  No digit is
printed that these kernels did not certify.
"""
from __future__ import annotations

import decimal
from collections.abc import Iterable, Iterator

from .engine import Side


def _decimal_exponent(num: int, den: int) -> tuple[int, int]:
    """(e, 10**|e|) with 10**e <= num/den < 10**(e+1), for num, den > 0.

    The power is built once, for the first guess of e, and carried
    through each step by one multiplication or division by 10.
    """
    e = (num.bit_length() - den.bit_length()) * 30103 // 100000  # ~ log10(2); the loops decide
    power = 10 ** abs(e)

    def at_least(exp: int, pw: int) -> bool:  # pw = 10**|exp|
        return num >= den * pw if exp >= 0 else num * pw >= den

    while not at_least(e, power):
        e, power = e - 1, power // 10 if e > 0 else power * 10
    while at_least(e + 1, up := power * 10 if e >= 0 else power // 10):
        e, power = e + 1, up
    return e, power


def decimal_string(num: int, den: int, places: int) -> str:
    """Exact decimal truncation of num/den (den > 0) toward zero to `places` digits."""
    sign = "-" if num < 0 else ""
    scaled = abs(num) * 10 ** places // den
    if places == 0:
        return f"{sign}{scaled}"
    digits = str(scaled).rjust(places + 1, "0")
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def sci_string(num: int, den: int) -> str:
    """num/den (den > 0) in exact truncated two-digit scientific notation.

    For example '4.6e-06'; '0' for zero.
    """
    if num == 0:
        return "0"
    sign = "-" if num < 0 else ""
    num = abs(num)
    e, power = _decimal_exponent(num, den)
    # The mantissa's first two digits: floor(num/den * 10**(1-e)).
    digits = str(num * power * 10 // den if e <= 0 else num // (den * (power // 10)))
    return f"{sign}{digits[0]}.{digits[1:]}e{e:+03d}"


def justified_places(num: int, den: int) -> int:
    """Largest d <= 40 with num/den <= 10**-d (den > 0): digits the width certifies."""
    if num < 0:
        raise ValueError("width must be non-negative")
    if num * 10 ** 40 <= den:
        return 40
    if num > den:
        return 0
    e, power = _decimal_exponent(num, den)  # -40 <= e <= 0, power = 10**-e
    return -e if num * power == den else -e - 1


# A prime that the decimal convergents are checked against, modulo it.
_CHECK_PRIME = (1 << 61) - 1
# Convergent rows per batch: each batch is checked before it is passed on.
ROW_BATCH = 64
# Every operation on it is exact, so it never sets a flag: it is shared read-only.
_DIGITS = decimal.Context(
    prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact, decimal.Rounded]
)


def _checked(batch: list[dict], p: decimal.Decimal, q: decimal.Decimal, residues) -> list[dict]:
    """The batch, once its last p_n, q_n equal the integer residues modulo the prime."""
    prime = decimal.Decimal(_CHECK_PRIME)
    if (int(_DIGITS.remainder(p, prime)), int(_DIGITS.remainder(q, prime))) != residues:
        raise ArithmeticError(f"decimal convergent {batch[-1]['n']} disagrees with the integers")
    return batch


def convergent_digits(
    quotients: Iterable[int], ends: tuple[int, int] | None = None
) -> Iterator[list[dict]]:
    """Rows {n, b, p, q, side} of the convergents of [b_0; b_1, ...], in batches.

    str(int) takes time quadratic in the digits on CPython 3.11, which
    makes printing every convergent of an expansion cubic in its length.
    Here p_n = b_n*p_{n-1} + p_{n-2} and q_n likewise are rebuilt as
    integer Decimals, with every inexact or rounded operation trapped, and
    a Decimal prints its base-10 digits as they stand.  The same recurrence
    runs on the integers modulo a prime beside it.  Before each batch of
    up to ROW_BATCH rows is yielded, its last p_n and q_n are checked
    against those residues, so no unchecked digit is passed on.  `ends`,
    the integers (p_N, q_N) when the caller holds them, are checked too
    before the last batch.  The side is the parity of n (even below).
    """
    fma, sides = _DIGITS.fma, (Side.BELOW.value, Side.ABOVE.value)
    p, q, pp, qp = decimal.Decimal(1), decimal.Decimal(0), decimal.Decimal(0), decimal.Decimal(1)
    ip, iq, ipp, iqp = 1, 0, 0, 1  # the same, modulo the prime
    batch: list[dict] = []
    for n, b in enumerate(quotients):
        if len(batch) == ROW_BATCH:
            yield _checked(batch, p, q, (ip, iq))
            batch = []
        db = decimal.Decimal(b)
        p, q, pp, qp = fma(db, p, pp), fma(db, q, qp), p, q
        ip, iq, ipp, iqp = (b * ip + ipp) % _CHECK_PRIME, (b * iq + iqp) % _CHECK_PRIME, ip, iq
        batch.append({"n": n, "b": b, "p": str(p), "q": str(q), "side": sides[n % 2]})
    if ends is not None and (ends[0] % _CHECK_PRIME, ends[1] % _CHECK_PRIME) != (ip, iq):
        raise ArithmeticError("the last convergent disagrees with its partial quotients")
    if batch:
        yield _checked(batch, p, q, (ip, iq))


_ROW_JSON = ('"n": {n},', '"b": {b},', '"p": "{p}",', '"q": "{q}",', '"side": "{side}"')


def convergent_row_json(indent: str) -> str:
    """The str.format template of one convergent row, a JSON array item at `indent`.

    json.dumps(rows, indent=2) writes each row {n, b, p, q, side} exactly
    so: n and b by int.__repr__, which format() of an int equals, and p, q
    and side as strings that need no escaping (decimal digits, 'above' or
    'below').  A row starts with its newline; a batch is its rows joined by
    commas.
    """
    inner = "\n" + indent + "  "
    return "\n" + indent + "{{" + inner + inner.join(_ROW_JSON) + "\n" + indent + "}}"
