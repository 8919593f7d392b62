"""Every digit a report prints, worked out on integers.

An enclosure's digits come from its endpoints' numerators and
denominators: its midpoint truncated to the places its width justifies,
and the width in two-digit scientific notation.  A convergent's digits
come from an exact decimal recurrence over the walked convergents'
partial quotients, checked against their integers block by block.  No
digit is printed that these kernels did not certify.  The templates that write a
report's rows in JSON (`row_json`) are here too, beside the digits.
"""
from __future__ import annotations

import decimal
import math
from collections.abc import Callable, Iterable, Iterator
from itertools import islice

from .engine import Convergent
from .exact import RationalInterval


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


def enclosure_json(iv: RationalInterval) -> dict:
    """An enclosure's certified digits, worked out on its endpoints' integers.

    Over a common denominator den, left unreduced, the width is
    (hi_num - lo_num)/den and the midpoint (hi_num + lo_num)/(2*den).
    den is the ends' shared denominator when they have one, else their
    product.  Only the endpoints are printed, reduced.
    """
    (ln, ld), (hn, hd) = iv.ends
    if ld == hd:
        hi_num, lo_num, den = hn, ln, ld
    else:
        hi_num, lo_num, den = hn * ld, ln * hd, ld * hd
    width = hi_num - lo_num
    return {
        "decimal": decimal_string(hi_num + lo_num, 2 * den, justified_places(width, den)),
        "width": sci_string(width, den),
        "lo": fraction_string(ln, ld),
        "hi": fraction_string(hn, hd),
    }


def exact_json(num: int, den: int) -> dict:
    """An exact rational num/den (den > 0, unreduced), printed reduced and to 12 places."""
    return {"rational": fraction_string(num, den), "decimal": decimal_string(num, den, 12),
            "width": "0"}


# A prime that the decimal convergents are checked against, modulo it.
_CHECK_PRIME = (1 << 61) - 1
# Convergent rows per block: each block is checked before any of its rows is passed on.
ROW_BATCH = 64
# Every operation on it is exact, so it never sets a flag: it is shared read-only.
_DIGITS = decimal.Context(
    prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact, decimal.Rounded]
)


def convergent_digits(convergents: Iterable[Convergent]) -> Iterator[dict]:
    """Rows {n, b, p, q, side} of the convergents n = 0, 1, ... walked from b_0.

    str(int) takes time quadratic in the digits on CPython 3.11, which
    makes printing every convergent of an expansion cubic in its length.
    Here p_n = b_n*p_{n-1} + p_{n-2} and q_n likewise are rebuilt from the
    convergents' partial quotients as integer Decimals, with every inexact
    or rounded operation trapped, and a Decimal prints its base-10 digits
    as they stand.  The rows are made ROW_BATCH at a time, and before any
    row of a block is passed on, the block's last decimal p_n and q_n are
    checked against that convergent's integers modulo a prime, so no digit
    is passed on that disagrees with the integers it prints.
    """
    fma, prime = _DIGITS.fma, decimal.Decimal(_CHECK_PRIME)
    p, q, pp, qp = decimal.Decimal(1), decimal.Decimal(0), decimal.Decimal(0), decimal.Decimal(1)
    convergents = iter(convergents)
    while block := list(islice(convergents, ROW_BATCH)):
        rows = []
        for conv in block:
            db = decimal.Decimal(conv.b)
            p, q, pp, qp = fma(db, p, pp), fma(db, q, qp), p, q
            rows.append({"n": conv.n, "b": conv.b, "p": str(p), "q": str(q),
                         "side": conv.side.value})
        residues = (int(_DIGITS.remainder(p, prime)), int(_DIGITS.remainder(q, prime)))
        if residues != (conv.p % _CHECK_PRIME, conv.q % _CHECK_PRIME):
            raise ArithmeticError(f"decimal convergent {conv.n} disagrees with the integers")
        yield from rows


# JSON literals of a flag: json.dumps writes True, False and None so.
_JSON_LITERALS = {True: "true", False: "false", None: "null"}


def _object_json(obj: dict, indent: str, ref: str, flags: list[str] | None) -> str:
    """The str.format template of an object shaped like `obj` at `indent`, from its "{".

    A value is the keyword argument of its key, or its item in the one
    `ref` names.  A flag (True, False or None), at the top level only, is
    the next positional argument, its key appended to `flags`.
    """
    inner = "\n" + indent + "  "
    members = []
    for key, value in obj.items():
        field = f"{ref}[{key}]" if ref else key
        if isinstance(value, dict):
            slot = _object_json(value, indent + "  ", field, None)
        elif flags is not None and (value is None or isinstance(value, bool)):
            slot = "{%d}" % len(flags)
            flags.append(key)
        elif isinstance(value, str):
            slot = '"{' + field + '}"'
        elif type(value) is int:
            slot = "{" + field + "}"
        else:
            raise TypeError(f"no JSON row template for {key!r}: {value!r}")
        members.append(f'"{key}": {slot}')
    return "{{" + inner + ("," + inner).join(members) + "\n" + indent + "}}"


def row_json(first: dict, indent: str) -> Callable[[dict], str]:
    """The writer of rows shaped like `first`, each a JSON array item at `indent`.

    Every row must have the first row's keys, in its order, each holding
    the same kind of value: an int, a string, a flag (True, False or
    None), or a dict of ints and strings.  The keys are identifiers.  The
    writer writes a row, led by its newline, exactly as
    json.dumps(rows, indent=2) would: an int by int.__repr__, which
    format() of an int equals, a flag as true, false or null, and a
    string verbatim.  So every string must need no escaping, as decimal
    digits, a/b rationals, scientific widths and 'above' or 'below' do.
    A batch is its rows joined by commas.
    """
    flags: list[str] = []
    template = "\n" + indent + _object_json(first, indent, "", flags)
    if not flags:
        return template.format_map
    fmt, literal = template.format, _JSON_LITERALS.__getitem__
    return lambda row: fmt(*map(literal, map(row.__getitem__, flags)), **row)
