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

from .bvp import ScanReport, TheoremReport, ViolationRecord
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


def sci_string(x: Fraction, sig: int = 2) -> str:
    """Exact truncated scientific notation, e.g. '4.6e-06'; '0' for zero."""
    if x == 0:
        return "0"
    sign = "-" if x < 0 else ""
    ax = abs(Fraction(x))
    e = _decimal_exponent(ax)
    mantissa = ax / Fraction(10) ** e
    digits = str(mantissa.numerator * 10 ** (sig - 1) // mantissa.denominator)
    return f"{sign}{digits[0]}.{digits[1:]}e{e:+03d}"


def justified_places(width: Fraction, cap: int = 40) -> int:
    """Largest d <= cap with width <= 10**-d: digits the width certifies."""
    if width < 0:
        raise ValueError("width must be non-negative")
    if width == 0:
        return cap
    if width > 1:
        return 0
    e = _decimal_exponent(width)
    d = -e if width == Fraction(10) ** e else -e - 1
    return max(0, min(cap, d))


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
        "q_min": report.q_min,
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
    """A payload value as text: exact 'num/den ~ decimal', enclosure 'decimal (width w)'."""
    if not isinstance(value, dict):
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


def _emit_text(report: dict) -> str:
    command = report["config"]["command"]
    out = [f"rootcf {report['tool']['version']} -- {command}"]
    cfg = report["config"]
    out.append(
        f"config: k={cfg['k'][0]}..{cfg['k'][1]} m={cfg['m'][0]}..{cfg['m'][1]} "
        f"terms={cfg['terms']} precision_cap={cfg['precision_cap']}"
    )
    for result in report["results"]:
        if command == "expand":
            out.append(f"\nalpha = {result['k']}^(1/{result['m']})  "
                       f"[certified at {result['precision_bits']} bits]")
            out.append("  b = " + str(result["partial_quotients"]))
            for t in result["convergents"]:
                out.append(f"  n={t['n']:<3d} b={t['b']:<6d} side={t['side']:<5s} "
                           f"p/q = {t['p']}/{t['q']}")
        elif command == "predict":
            out.append(f"\nalpha = {result['k']}^(1/{result['m']})")
            out.append("  b = " + str(result["partial_quotients"]))
            for pr in result["predictions"]:
                out.append(
                    f"  n={pr['n']:<3d} side={pr['side']:<5s} "
                    f"H={_shown(pr['leading'])}  A={_shown(pr['shifted_leading'])}  "
                    f"floor(A)={pr['candidate']} eps={pr['epsilon']} "
                    f"predicted={pr['predicted']} actual={pr['actual']} "
                    f"formula_held={pr['formula_held']} window_held={pr['window_held']}"
                )
        elif command == "verify":
            out.append(f"\nalpha = {result['k']}^(1/{result['m']})  terms<= {result['terms']}")
            out.append("  b = " + str(result["partial_quotients"]))
            out.append(f"  note: {result['note']}")
            out.append(f"  skipped n (q < {result['q_min']} or n = 0): {result['skipped']}")
            for it in result["items"]:
                out.append(
                    f"  n={it['n']:<3d} (theta index {it['n']}/alt {it['theta_index_alt']}) "
                    f"side={it['side']:<5s} b_next={it['b_next']} d={it['d']}"
                )
                out.append(f"      H = {_shown(it['leading'])}   A = {_shown(it['shifted_leading'])}")
                out.append(f"      theta = {_shown(it['theta'])}")
                out.append(f"      R = {_shown(it['remainder'])}  |R|<1: {it['remainder_in_unit']}")
                out.append(
                    f"      predict: floor(A)={it['candidate']} eps={it['epsilon']} "
                    f"predicted={it['predicted']} actual={it['actual']} "
                    f"formula_held={it['formula_held']}"
                )
            if result["violations"]:
                out.append("  violations:")
                for v in result["violations"]:
                    out.append(f"    n={v['n']} {v['quantity']}: observed {_shown(v['observed'])}; "
                               f"claimed: {v['claimed']}")
            else:
                out.append("  violations: none")
            for name, claim in result["claims"].items():
                out.append(
                    f"  measured claim [{name}]: '{claim['claim']}' "
                    f"passed={claim['passed']} failed={claim['failed']}"
                )
                for f in claim["failures"]:
                    out.append(f"    n={f['n']}: observed {_shown(f['observed'])}")
            out.append(f"  remainder stable from n = {result['remainder_stable_from']}; "
                       f"window stable from n = {result['window_stable_from']}")
        elif command == "scan":
            for c in result["cells"]:
                out.append(
                    f"  k={c['k']:<5d} m={c['m']:<3d} violations={c['violations']} "
                    f"remainder_stable_from={c['remainder_stable_from']} "
                    f"window_stable_from={c['window_stable_from']}"
                )
            for s in result["skipped"]:
                out.append(f"  k={s['k']:<5d} m={s['m']:<3d} skipped: {s['reason']}")
            if result["violations"]:
                out.append("  violations:")
                for v in result["violations"]:
                    out.append(
                        f"    k={v['k']} m={v['m']} n={v['n']} {v['quantity']}: "
                        f"observed {_shown(v['observed'])}; claimed: {v['claimed']}"
                    )
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
