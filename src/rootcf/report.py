"""Deterministic report rendering.

Reports never print an uncertified digit: every decimal shown for an
alpha-dependent quantity is the enclosure midpoint truncated to the digit
count its width justifies, with the width printed alongside.  Exact
rationals additionally appear verbatim as num/den.  Identical inputs
yield byte-identical output in every format.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction

from .bvp import Q_MIN, ScanReport, TheoremReport, ViolationRecord
from .engine import Expansion
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


def _decimal_exponent(x: Fraction) -> int:
    """e with 10**e <= x < 10**(e+1), for x > 0."""
    num, den = x.numerator, x.denominator
    e = math.floor((num.bit_length() - den.bit_length()) * math.log10(2))

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


def enclosure_json(iv: RationalInterval) -> dict:
    width = iv.width
    return {
        "decimal": decimal_string(iv.mid, justified_places(width)),
        "width": sci_string(width),
        "lo": str(iv.lo),
        "hi": str(iv.hi),
    }


def exact_json(x: Fraction) -> dict:
    return {"rational": str(x), "decimal": decimal_string(x, 12), "width": "0"}


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


def expand_payload(exp: Expansion) -> dict:
    return {
        "k": exp.spec.k,
        "m": exp.spec.m,
        "precision_bits": exp.precision_bits,
        "partial_quotients": exp.partial_quotients,
        "convergents": [
            {"n": t.n, "b": t.b, "p": str(t.p), "q": str(t.q), "side": t.side.value}
            for t in exp.terms
        ],
    }


def prediction_json(outcome, conv, distance: int, leading: Fraction, shifted: Fraction) -> dict:
    return {
        "n": outcome.n,
        "side": outcome.side.value,
        "p": str(conv.p),
        "q": str(conv.q),
        "d": str(distance),
        "leading": exact_json(leading),
        "shifted_leading": exact_json(shifted),
        "candidate": outcome.candidate,
        "epsilon": outcome.epsilon,
        "predicted": outcome.predicted,
        "actual": outcome.actual,
        "formula_held": outcome.formula_held,
        "window_held": outcome.window_held,
    }


def predict_payload(exp: Expansion, predictions: list[tuple]) -> dict:
    return {
        "k": exp.spec.k,
        "m": exp.spec.m,
        "precision_bits": exp.precision_bits,
        "partial_quotients": exp.partial_quotients,
        "predictions": [prediction_json(o, c, d, h, a) for o, c, d, h, a in predictions],
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
                "candidate": t.prediction.candidate,
                "epsilon": t.prediction.epsilon,
                "predicted": t.prediction.predicted,
                "actual": t.prediction.actual,
                "formula_held": t.prediction.formula_held,
                "window_held": t.prediction.window_held,
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


def _emit_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


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


def _csv_rows(command: str, result: dict) -> list[tuple[str, list[dict]]]:
    """(row kind, entries) of one result, in CSV order."""
    km = {"k": result.get("k"), "m": result.get("m")}
    if command == "expand":
        return [("term", [{**km, **t} for t in result["convergents"]])]
    if command == "predict":
        return [("prediction", [{**km, **pr} for pr in result["predictions"]])]
    violations = ("violation", result["violations"])
    if command == "verify":
        return [
            ("check", [{**km, **it} for it in result["items"]]),
            violations,
            *(("claim_failure", claim["failures"]) for claim in result["claims"].values()),
            ("cell", [result]),
        ]
    return [violations, ("cell", result["cells"]), ("skipped", result["skipped"])]


def _emit_csv(report: dict) -> str:
    lines = [CSV_SCHEMA_LINE, ",".join(CSV_COLUMNS)]
    for result in report["results"]:
        for kind, entries in _csv_rows(report["config"]["command"], result):
            for entry in entries:
                lines.append(",".join(
                    [kind] + [_csv_escape(_csv_value(entry, col)) for col in CSV_COLUMNS[1:]]
                ))
    return "\n".join(lines) + "\n"


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


def _emit_text(report: dict) -> str:
    cfg = report["config"]
    out = [
        f"rootcf {report['tool']['version']} -- {cfg['command']}",
        f"config: k={cfg['k'][0]}..{cfg['k'][1]} m={cfg['m'][0]}..{cfg['m'][1]} "
        f"terms={cfg['terms']} precision_cap={cfg['precision_cap']}",
    ]
    for result in report["results"]:
        for template, entries in _text_rows(cfg["command"], result):
            for entry in entries:
                out.append(template.format(**{key: _shown(v) for key, v in entry.items()}))
    out.append("\nsummary: " + json.dumps(report["summary"]))
    return "\n".join(out) + "\n"


def emit(report: dict, fmt: str) -> str:
    """Serialize a report deterministically as json, csv, or text."""
    if fmt == "json":
        return _emit_json(report)
    if fmt == "csv":
        return _emit_csv(report)
    if fmt == "text":
        return _emit_text(report)
    raise ValueError(f"unknown format: {fmt}")
