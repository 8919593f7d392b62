"""Deterministic report rendering.

Reports never print an uncertified digit: every decimal shown for an
alpha-dependent quantity is the enclosure midpoint truncated to the digit
count its width justifies, with the width printed alongside.  Exact
rationals additionally appear verbatim as num/den.  Identical inputs
yield byte-identical output in every format.  The digits themselves are
worked out in `rootcf.digits`.
"""
from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from itertools import islice
from typing import TextIO

from .bvp import (
    MEASURED_CLAIMS, Q_MIN, PredictionOutcome, ScanReport, TheoremReport, ViolationRecord,
)
from .digits import convergent_digits, enclosure_json, exact_json, row_json
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


class Rows:
    """A JSON array whose items are made while the report is written.

    `make()` returns an iterator over the items.  It is called afresh for
    each pass, so a report that holds Rows can be emitted more than once.
    The items have one fixed shape, the first item's, and in JSON each is
    written by one template built from it (`digits.row_json`).  Indexing
    Rows makes every item once and holds them: from then on each pass
    yields those same items, so a change made to one through an index
    shows in the next emit.
    """

    __slots__ = ("make", "held")

    def __init__(self, make: Callable[[], Iterator]):
        self.make = make
        self.held = None

    def __iter__(self) -> Iterator:
        return self.make()

    def __getitem__(self, index):
        if self.held is None:
            self.held = list(self.make())
            self.make = self.held.__iter__
        return self.held[index]


# Rows per piece the JSON emitter writes of a row source: 16 items of
# cbrt(2) at 200 terms are up to 100 KB of JSON.
ITEM_BATCH = 16


def certificate_payload(exp: Expansion) -> dict:
    """`expand`'s payload from certified quotients alone.

    Its convergents are a row source: each block of rows is built, checked
    and written as the emitter reaches it, so no convergent of the whole
    expansion is held at once.
    """
    return {
        "k": exp.spec.k,
        "m": exp.spec.m,
        "precision_bits": exp.precision_bits,
        "partial_quotients": exp.partial_quotients,
        "convergents": Rows(lambda: convergent_digits(exp.convergents())),
    }


def expand_payload(exp: Expansion) -> dict:
    """`expand`'s payload with the convergents as a list of rows, all held at once."""
    payload = certificate_payload(exp)
    return {**payload, "convergents": list(payload["convergents"])}


def outcome_json(outcome: PredictionOutcome) -> dict:
    """candidate, epsilon, predicted, actual, formula_held, window_held, in field order."""
    return dict(zip(outcome._fields[2:], outcome[2:]))


def prediction_json(digits: dict, step: tuple) -> dict:
    """The item of one index: its convergent's digits row and its `bvp.index_walk` step."""
    _, _, distance, hn, hd, an, outcome = step
    return {
        "n": outcome.n,
        "side": outcome.side.value,
        "p": digits["p"],
        "q": digits["q"],
        "d": str(distance),
        "leading": exact_json(hn, hd),
        "shifted_leading": exact_json(an, hd),
        **outcome_json(outcome),
    }


def predict_payload(exp: Expansion, steps: list[tuple]) -> dict:
    """`predict`'s payload from the steps of `bvp.index_walk`, n = 1..N-1, all decided.

    The predictions are a row source: each item joins a step with its
    convergent's digits, made and checked a block at a time against the
    walked integers as the emitter reaches them, and in JSON each is
    written by one template.
    """
    return {
        "k": exp.spec.k,
        "m": exp.spec.m,
        "precision_bits": exp.precision_bits,
        "partial_quotients": exp.partial_quotients,
        # The digits rows start at n = 0, the steps at n = 1.
        "predictions": Rows(lambda: map(
            prediction_json, islice(convergent_digits(exp.convergents()), 1, None), steps
        )),
    }


def check_json(t) -> dict:
    """The report item of one checked index (a `bvp.TermCheck`)."""
    return {
        "n": t.n,
        "theta_index_alt": t.n + 1,
        "side": t.side.value,
        "b_next": t.b_next,
        "p": str(t.p),
        "q": str(t.q),
        "d": str(t.distance),
        "q_at_least_2": t.q_at_least_2,
        "leading": exact_json(*t.leading),
        "shifted_leading": exact_json(*t.shifted_leading),
        "theta": enclosure_json(t.theta),
        "remainder": enclosure_json(t.remainder),
        "remainder_in_unit": t.remainder_in_unit,
        **outcome_json(t.prediction),
        # The seven flags from window_above_ok to cubic_sign_ok, in field order.
        **dict(zip(t._fields[-7:], t[-7:])),
    }


def verify_payload(report: TheoremReport) -> dict:
    """`verify`'s payload from a report whose every verdict is already decided.

    Only the formatting of the items is left: they are a row source,
    each built from its `report.terms` entry as the emitter reaches it,
    and in JSON each is written by one template.  Violations and claim
    failures are lists.
    """
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
        "items": Rows(lambda: map(check_json, report.terms)),
        "violations": [violation_json(v) for v in report.violations],
        "claims": {field: claim_json(getattr(report, field)) for field, *_ in MEASURED_CLAIMS},
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
    """json.dumps(report, indent=2) plus a newline, piece by piece, Rows as arrays.

    The encoder hands each Rows to `default`, which pulls its first row
    (so the check of the row's block runs first) and returns a stand-in:
    [] for no rows, else [""].  The encoder's very next piece is then
    '[', a newline, the item indent and '""'.  In its place go the rows,
    ITEM_BATCH to a piece, each written by one template built from the
    first row for that indent.  The encoder closes the array itself.  A
    report string "" is never taken for a stand-in: only the piece right
    after a `default` call is replaced.
    """
    import json

    pending = []

    def default(value):
        if not isinstance(value, Rows):
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        rows = value.make()
        first = next(rows, None)
        if first is None:
            return []
        pending.append((first, rows))
        return [""]

    for piece in json.JSONEncoder(indent=2, default=default).iterencode(report):
        if not pending:
            yield piece
            continue
        # piece is '[\n' + indent + '""', indent being the items'.
        first, rows = pending.pop()
        row = row_json(first, piece[2:-2])
        yield "[" + row(first)
        while batch := list(islice(rows, ITEM_BATCH)):
            yield "," + ",".join(map(row, batch))
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
    import json

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
    json.dumps(report, indent=2) plus a newline, where each `Rows` in the
    report stands for the array of its items.  A `Rows` is a row source:
    its rows are built, checked and serialized as the emitter reaches
    them, so an `expand` report never holds its convergents whole, nor a
    `verify` or `predict` report its items or digits.  In JSON every row
    is written by a template, not by the encoder, ITEM_BATCH rows a piece.
    With `out`, the report is written there as it is serialized, in
    blocks of about BLOCK_CHARS characters, and None is returned; without
    it, the whole report is returned as one string.
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
