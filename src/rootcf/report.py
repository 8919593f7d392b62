"""Deterministic report rendering.

Reports never print an uncertified digit: every decimal shown for an
alpha-dependent quantity is the enclosure midpoint truncated to the digit
count its width justifies, with the width printed alongside.  Exact
rationals additionally appear verbatim as num/den.  Identical inputs
yield byte-identical output in every format.
"""
from __future__ import annotations

import json
from collections.abc import Iterable, Sequence
from fractions import Fraction
from typing import TextIO

from .bvp import Q_MIN, PredictionOutcome, ScanReport, TheoremReport, ViolationRecord
from .engine import Convergent, Expansion
from .exact import RationalInterval

REPORT_SCHEMA = 1
CSV_SCHEMA_LINE = "#schema=rootcf.csv.v1"

CSV_COLUMNS = [
    "kind", "k", "m", "n", "side", "b", "p", "q", "d",
    "leading", "shifted_leading",
    "theta", "theta_width", "remainder", "remainder_width", "remainder_in_unit",
    "candidate", "epsilon", "predicted", "actual", "formula_held", "window_held",
    "quantity", "observed", "claimed",
    "remainder_stable_from", "window_stable_from", "reason",
]

THETA_INDEX_NOTE = (
    "complete quotients are indexed so that theta[n] = [b[n+1]; b[n+2], ...]; "
    "the same quantity is sometimes labeled theta[n+1] (1-based tail labeling), "
    "so both indices are listed per item"
)


def _decimal_exponent(num: int, den: int) -> int:
    """e with 10**e <= num/den < 10**(e+1), for num, den > 0."""
    e = (num.bit_length() - den.bit_length()) * 30103 // 100000  # ~ log10(2); the loops decide

    def at_least(exp: int) -> bool:
        return num >= den * 10 ** exp if exp >= 0 else num * 10 ** -exp >= den

    while not at_least(e):
        e -= 1
    while at_least(e + 1):
        e += 1
    return e


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
    e = _decimal_exponent(num, den)
    # The mantissa's first two digits: floor(num/den * 10**(1-e)).
    digits = str(num * 10 ** (1 - e) // den if e <= 1 else num // (den * 10 ** (e - 1)))
    return f"{sign}{digits[0]}.{digits[1:]}e{e:+03d}"


def justified_places(num: int, den: int) -> int:
    """Largest d <= 40 with num/den <= 10**-d (den > 0): digits the width certifies."""
    if num < 0:
        raise ValueError("width must be non-negative")
    if num * 10 ** 40 <= den:
        return 40
    if num > den:
        return 0
    e = _decimal_exponent(num, den)  # -40 <= e <= 0
    return -e if num * 10 ** -e == den else -e - 1


def enclosure_json(iv: RationalInterval) -> dict:
    """An enclosure's certified digits, worked out on its endpoints' integers.

    Over the common denominator ld*hd, left unreduced, the width is
    (hn*ld - ln*hd)/(ld*hd) and the midpoint (hn*ld + ln*hd)/(2*ld*hd);
    only the endpoints are printed, and they are already reduced.
    """
    ln, ld = iv.lo.numerator, iv.lo.denominator
    hn, hd = iv.hi.numerator, iv.hi.denominator
    hi_num, lo_num, den = hn * ld, ln * hd, ld * hd
    width = hi_num - lo_num
    return {
        "decimal": decimal_string(hi_num + lo_num, 2 * den, justified_places(width, den)),
        "width": sci_string(width, den),
        "lo": str(iv.lo),
        "hi": str(iv.hi),
    }


def exact_json(x: Fraction) -> dict:
    digits = decimal_string(x.numerator, x.denominator, 12)
    return {"rational": str(x), "decimal": digits, "width": "0"}


def _observed_json(observed):
    if isinstance(observed, RationalInterval):
        return enclosure_json(observed)
    return observed


def violation_json(v: ViolationRecord) -> dict:
    return {
        "k": v.k,
        "m": v.m,
        "n": v.n,
        "quantity": v.quantity,
        "p": str(v.p),
        "q": str(v.q),
        "b_next": v.b_next,
        "d": str(v.distance),
        "observed": _observed_json(v.observed),
        "claimed": v.claimed,
    }


def claim_json(stats) -> dict:
    return {
        "claim": stats.claim,
        "passed": stats.passed,
        "failed": stats.failed,
        "failures": [violation_json(f) for f in stats.failures],
    }


# A prime that the last decimal convergent is checked against, modulo it.
_CHECK_PRIME = (1 << 61) - 1


def convergent_digits(terms: Sequence[Convergent]) -> list[tuple[str, str]]:
    """(str(p_n), str(q_n)) of each convergent, in time linear in its digits.

    str(int) takes time quadratic in the digits on CPython 3.11, which
    makes printing every convergent of an expansion cubic in its length.
    Here p_n = b_n*p_{n-1} + p_{n-2} and q_n likewise are rebuilt as
    integer Decimals from the certified partial quotients, with every
    inexact or rounded operation trapped, and a Decimal prints its base-10
    digits as they stand.  The last p_N and q_N are checked against the
    integers modulo a prime before any string is returned.
    """
    import decimal  # only convergent digits need it

    ctx = decimal.Context(
        prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact, decimal.Rounded]
    )
    p, q, pp, qp = decimal.Decimal(1), decimal.Decimal(0), decimal.Decimal(0), decimal.Decimal(1)
    digits = []
    for t in terms:
        b = decimal.Decimal(t.b)
        p, q, pp, qp = ctx.fma(b, p, pp), ctx.fma(b, q, qp), p, q
        digits.append((str(p), str(q)))
    if terms:
        prime, last = decimal.Decimal(_CHECK_PRIME), terms[-1]
        if (int(ctx.remainder(p, prime)), int(ctx.remainder(q, prime))) != (
            last.p % _CHECK_PRIME, last.q % _CHECK_PRIME
        ):
            raise ArithmeticError(f"decimal convergent {last.n} disagrees with the integers")
    return digits


def expand_payload(exp: Expansion) -> dict:
    return {
        "k": exp.spec.k,
        "m": exp.spec.m,
        "precision_bits": exp.precision_bits,
        "partial_quotients": exp.partial_quotients,
        "convergents": [
            {"n": t.n, "b": t.b, "p": p, "q": q, "side": t.side.value}
            for t, (p, q) in zip(exp.terms, convergent_digits(exp.terms))
        ],
    }


def outcome_json(outcome: PredictionOutcome) -> dict:
    """candidate, epsilon, predicted, actual, formula_held, window_held, in field order."""
    return dict(zip(outcome._fields[2:], outcome[2:]))


def prediction_json(outcome, pq: tuple[str, str], distance: int, hn: int, hd: int, an: int) -> dict:
    return {
        "n": outcome.n,
        "side": outcome.side.value,
        "p": pq[0],
        "q": pq[1],
        "d": str(distance),
        "leading": exact_json(Fraction(hn, hd)),
        "shifted_leading": exact_json(Fraction(an, hd)),
        **outcome_json(outcome),
    }


def predict_payload(exp: Expansion, predictions: list[tuple]) -> dict:
    """predictions: (outcome, convergent, d_n, hn, hd, an) rows, one per index."""
    digits = convergent_digits(exp.terms)
    return {
        "k": exp.spec.k,
        "m": exp.spec.m,
        "precision_bits": exp.precision_bits,
        "partial_quotients": exp.partial_quotients,
        "predictions": [
            prediction_json(outcome, digits[conv.n], *rest) for outcome, conv, *rest in predictions
        ],
    }


def verify_payload(report: TheoremReport) -> dict:
    items = []
    for t in report.terms:
        items.append(
            {
                "n": t.n,
                "theta_index_alt": t.n + 1,
                "side": t.side.value,
                "b_next": t.b_next,
                "p": str(t.p),
                "q": str(t.q),
                "d": str(t.distance),
                "q_at_least_2": t.q_at_least_2,
                "leading": exact_json(t.leading),
                "shifted_leading": exact_json(t.shifted_leading),
                "theta": enclosure_json(t.theta),
                "remainder": enclosure_json(t.remainder),
                "remainder_in_unit": t.remainder_in_unit,
                **outcome_json(t.prediction),
                "window_above_ok": t.window_above_ok,
                "below_window_ok": t.below_window_ok,
                "above_epsilon_ok": t.above_epsilon_ok,
                "below_epsilon_ok": t.below_epsilon_ok,
                "general_window_ok": t.general_window_ok,
                "universal_identity_ok": t.universal_identity_ok,
                "cubic_sign_ok": t.cubic_sign_ok,
            }
        )
    return {
        "k": report.spec.k,
        "m": report.spec.m,
        "terms": report.n_max,
        "q_min": Q_MIN,
        "precision_bits": report.expansion.precision_bits,
        "partial_quotients": report.expansion.partial_quotients,
        "note": THETA_INDEX_NOTE,
        "checked": list(report.checked),
        "skipped": list(report.skipped),
        "items": items,
        "violations": [violation_json(v) for v in report.violations],
        "claims": {
            "above_epsilon": claim_json(report.above_epsilon),
            "below_window": claim_json(report.below_window),
            "below_epsilon": claim_json(report.below_epsilon),
        },
        "remainder_stable_from": report.remainder_stable_from,
        "window_stable_from": report.window_stable_from,
    }


def scan_payload(report: ScanReport) -> dict:
    return {
        "cells": [
            {
                "k": c.k,
                "m": c.m,
                "terms": c.n_max,
                "violations": c.violations,
                "remainder_stable_from": c.remainder_stable_from,
                "window_stable_from": c.window_stable_from,
            }
            for c in report.cells
        ],
        "skipped": [{"k": s.k, "m": s.m, "reason": s.reason} for s in report.skipped],
        "violations": [violation_json(v) for v in report.violations],
    }


def count_by_kind(violations) -> dict:
    counts: dict[str, int] = {}
    for v in violations:
        counts[v["quantity"]] = counts.get(v["quantity"], 0) + 1
    return dict(sorted(counts.items()))


def build_report(tool_version: str, config: dict, results: list[dict], summary: dict) -> dict:
    return {
        "tool": {"name": "rootcf", "version": tool_version, "report_schema": REPORT_SCHEMA},
        "config": config,
        "results": results,
        "summary": summary,
    }


# --- emitters ---------------------------------------------------------------


BLOCK_CHARS = 1 << 16


def _emit_json(report: dict):
    yield from json.JSONEncoder(indent=2).iterencode(report)
    yield "\n"


def _csv_escape(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    text = str(value)
    if any(c in text for c in ",\"\n"):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _shown(value):
    """A payload value as text: exact 'num/den ~ decimal', enclosure 'decimal (width w)'.

    Any other value, a nested result included, is returned unchanged.
    """
    if not (isinstance(value, dict) and "decimal" in value):
        return value
    if "rational" in value:
        return f"{value['rational']} ~ {value['decimal']}"
    return f"{value['decimal']} (width {value['width']})"


def _csv_value(entry: dict, column: str):
    """The CSV cell of `column`: the entry's value of the same name.

    `b` falls back to `b_next`.  An exact value gives its rational; an
    enclosure gives its decimal, with its width in the `<name>_width`
    column where one exists and inline otherwise.
    """
    if column.endswith("_width") and column[: -len("_width")] in entry:
        return entry[column[: -len("_width")]]["width"]
    value = entry.get(column, entry.get("b_next") if column == "b" else None)
    if not isinstance(value, dict):
        return value
    if "rational" in value:
        return value["rational"]
    return value["decimal"] if f"{column}_width" in CSV_COLUMNS else _shown(value)


def _csv_rows(command: str, result: dict) -> list[tuple[str, Iterable[dict]]]:
    """(row kind, entries) of one result, in CSV order."""
    km = {"k": result.get("k"), "m": result.get("m")}
    if command == "expand":
        return [("term", ({**km, **t} for t in result["convergents"]))]
    if command == "predict":
        return [("prediction", ({**km, **pr} for pr in result["predictions"]))]
    violations = ("violation", result["violations"])
    if command == "verify":
        return [
            ("check", ({**km, **it} for it in result["items"])),
            violations,
            *(("claim_failure", claim["failures"]) for claim in result["claims"].values()),
            ("cell", [result]),
        ]
    return [violations, ("cell", result["cells"]), ("skipped", result["skipped"])]


def _emit_csv(report: dict):
    yield CSV_SCHEMA_LINE + "\n" + ",".join(CSV_COLUMNS) + "\n"
    for result in report["results"]:
        for kind, entries in _csv_rows(report["config"]["command"], result):
            for entry in entries:
                yield ",".join(
                    [kind] + [_csv_escape(_csv_value(entry, col)) for col in CSV_COLUMNS[1:]]
                ) + "\n"


def _text_rows(command: str, result: dict) -> list[tuple[str, list[dict]]]:
    """(line template, entries) of one result, in text order.

    A heading is a template over the result itself, or over nothing when
    the heading is left out.  Unlike CSV, scan lists its violations last.
    """
    quotients = "  b = {partial_quotients}"
    if command == "expand":
        return [
            ("\nalpha = {k}^(1/{m})  [certified at {precision_bits} bits]\n" + quotients, [result]),
            ("  n={n:<3d} b={b:<6d} side={side:<5s} p/q = {p}/{q}", result["convergents"]),
        ]
    if command == "predict":
        return [
            ("\nalpha = {k}^(1/{m})\n" + quotients, [result]),
            ("  n={n:<3d} side={side:<5s} H={leading}  A={shifted_leading}  "
             "floor(A)={candidate} eps={epsilon} predicted={predicted} actual={actual} "
             "formula_held={formula_held} window_held={window_held}", result["predictions"]),
        ]
    violations = result["violations"]
    if command == "verify":
        rows = [
            ("\nalpha = {k}^(1/{m})  terms<= {terms}\n" + quotients + "\n  note: {note}\n"
             "  skipped n (q < {q_min} or n = 0): {skipped}", [result]),
            ("  n={n:<3d} (theta index {n}/alt {theta_index_alt}) "
             "side={side:<5s} b_next={b_next} d={d}\n"
             "      H = {leading}   A = {shifted_leading}\n"
             "      theta = {theta}\n"
             "      R = {remainder}  |R|<1: {remainder_in_unit}\n"
             "      predict: floor(A)={candidate} eps={epsilon} predicted={predicted} "
             "actual={actual} formula_held={formula_held}", result["items"]),
            ("  violations:" if violations else "  violations: none", [result]),
            ("    n={n} {quantity}: observed {observed}; claimed: {claimed}", violations),
        ]
        for name, claim in result["claims"].items():
            rows.append(("  measured claim [{name}]: '{claim}' passed={passed} failed={failed}",
                         [{"name": name, **claim}]))
            rows.append(("    n={n}: observed {observed}", claim["failures"]))
        return rows + [("  remainder stable from n = {remainder_stable_from}; "
                        "window stable from n = {window_stable_from}", [result])]
    return [
        ("  k={k:<5d} m={m:<3d} violations={violations} "
         "remainder_stable_from={remainder_stable_from} "
         "window_stable_from={window_stable_from}", result["cells"]),
        ("  k={k:<5d} m={m:<3d} skipped: {reason}", result["skipped"]),
        ("  violations:", [result] if violations else []),
        ("    k={k} m={m} n={n} {quantity}: observed {observed}; claimed: {claimed}", violations),
    ]


def _emit_text(report: dict):
    cfg = report["config"]
    yield (
        f"rootcf {report['tool']['version']} -- {cfg['command']}\n"
        f"config: k={cfg['k'][0]}..{cfg['k'][1]} m={cfg['m'][0]}..{cfg['m'][1]} "
        f"terms={cfg['terms']} precision_cap={cfg['precision_cap']}\n"
    )
    for result in report["results"]:
        for template, entries in _text_rows(cfg["command"], result):
            for entry in entries:
                yield template.format(**{key: _shown(v) for key, v in entry.items()}) + "\n"
    yield "\nsummary: " + json.dumps(report["summary"]) + "\n"


_EMITTERS = {"json": _emit_json, "csv": _emit_csv, "text": _emit_text}


def emit(report: dict, fmt: str, out: TextIO | None = None) -> str | None:
    """Serialize a report deterministically as json, csv, or text.

    JSON is the standard library's encoder, the same bytes as
    json.dumps(report, indent=2) plus a newline.  With `out`, the report
    is written there as it is serialized, in blocks of about BLOCK_CHARS
    characters, and None is returned; without it, the whole report is
    returned as one string.
    """
    if fmt not in _EMITTERS:
        raise ValueError(f"unknown format: {fmt}")
    pieces = _EMITTERS[fmt](report)
    if out is None:
        return "".join(pieces)
    # Blocks, not a write per piece: stdout may be unbuffered, making each write a syscall.
    block, size = [], 0
    for piece in pieces:
        block.append(piece)
        size += len(piece)
        if size >= BLOCK_CHARS:
            out.write("".join(block))
            block, size = [], 0
    if block:
        out.write("".join(block))
    return None
