"""Command-line front end: expand, predict, verify, scan.

Exit codes partition the error space: 0 success, 1 invalid usage/config or
output that could not be written, 2 degenerate radicand (perfect power),
3 precision ceiling reached.  A scan whose cells hit the ceiling still
writes the report of every cell, the capped ones as skipped rows, and then
exits 3.
"""
from __future__ import annotations

import argparse
import os
import sys
from collections import namedtuple

from . import __version__
from .bvp import (
    ScanReport,
    SkippedCell,
    index_walk,
    scan,
    verify_theorems,
)
from .engine import expand
from .exact import (
    DEFAULT_MAX_BITS,
    InvalidDegreeError,
    PerfectPowerError,
    PrecisionCeilingError,
    validate_spec,
)
from .report import (
    build_report,
    certificate_payload,
    count_by_kind,
    emit,
    predict_payload,
    scan_payload,
    verify_payload,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PERFECT_POWER = 2
EXIT_PRECISION = 3

COMMANDS = ("expand", "predict", "verify", "scan")
FORMATS = ("json", "csv", "text")


class UsageError(ValueError):
    """Invalid command line or config values."""


class IncompleteReport(Exception):
    """A finished report that lacks the cells which hit the precision cap."""

    def __init__(self, report: dict, reason: str):
        super().__init__(reason)
        self.report = report


class RunConfig(namedtuple(
    "RunConfig", "command k_range m_range terms precision_cap format out workers"
)):
    """Validated run request: command, (k, m) ranges, sizes, output.

    command: str; k_range, m_range: tuple[int, int]; terms, precision_cap: int;
    format: str; out: str | None; workers: int.
    """

    __slots__ = ()

    def __new__(cls, command, k_range, m_range, terms, precision_cap, format, out, workers):
        if command not in COMMANDS:
            raise UsageError(f"unknown command {command!r}")
        if k_range[0] > k_range[1]:
            raise UsageError(f"empty k range {k_range[0]}..{k_range[1]}")
        if m_range[0] > m_range[1]:
            raise UsageError(f"empty m range {m_range[0]}..{m_range[1]}")
        if k_range[0] < 1:
            raise UsageError("k must be positive")
        if m_range[0] < 2:
            raise UsageError("m must be >= 2")
        if terms < 1:
            raise UsageError("terms must be >= 1")
        if precision_cap < 64:
            raise UsageError("precision cap must be >= 64 bits")
        if format not in FORMATS:
            raise UsageError(f"unknown format {format!r}")
        if workers < 1:
            raise UsageError("workers must be >= 1")
        return tuple.__new__(
            cls, (command, k_range, m_range, terms, precision_cap, format, out, workers)
        )

    @classmethod
    def _make(cls, iterable):
        # `_replace` builds its result here; validate it like any other.
        return cls(*iterable)

    def config_echo(self) -> dict:
        return {
            "command": self.command,
            "k": list(self.k_range),
            "m": list(self.m_range),
            "terms": self.terms,
            "precision_cap": self.precision_cap,
            "format": self.format,
            "out": self.out,
            "workers": self.workers,
        }


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split("..", 1)
        return int(lo), int(hi)
    except ValueError:
        raise UsageError(f"range must look like LO..HI, got {text!r}") from None


def parse_args(argv: list[str]) -> RunConfig:
    """Parse argv into a validated RunConfig; raises UsageError."""
    parser = _Parser(prog="rootcf", description=__doc__)
    parser.add_argument("--version", action="version", version=f"rootcf {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("expand", "certified continued fraction expansion"),
        ("predict", "floor-formula prediction of partial quotients"),
        ("verify", "measure every stated bound for one or more radicands"),
        ("scan", "search a (k, m) grid for bound violations"),
    ):
        p = sub.add_parser(name, help=text)
        kg = p.add_mutually_exclusive_group(required=True)
        kg.add_argument("--k", type=int, help="radicand")
        kg.add_argument("--k-range", type=str, help="radicand range LO..HI (inclusive)")
        mg = p.add_mutually_exclusive_group(required=True)
        mg.add_argument("--m", type=int, help="root degree (>= 2)")
        mg.add_argument("--m-range", type=str, help="degree range LO..HI (inclusive)")
        p.add_argument("--terms", type=int, default=10, help="term count N (default 10)")
        p.add_argument("--precision-cap", type=int, default=DEFAULT_MAX_BITS,
                       help="hard cap on enclosure precision in bits")
        p.add_argument("--format", choices=FORMATS, default="text")
        p.add_argument("--out", type=str, default=None, help="output path (default stdout)")
        if name == "scan":
            p.add_argument("--workers", type=int, default=1,
                           help="parallel worker processes for grid cells")
    ns = parser.parse_args(argv)
    k_range = (ns.k, ns.k) if ns.k is not None else _parse_range(ns.k_range)
    m_range = (ns.m, ns.m) if ns.m is not None else _parse_range(ns.m_range)
    return RunConfig(
        command=ns.command,
        k_range=k_range,
        m_range=m_range,
        terms=ns.terms,
        precision_cap=ns.precision_cap,
        format=ns.format,
        out=ns.out,
        workers=getattr(ns, "workers", 1),
    )


def _specs(config: RunConfig) -> tuple[list, list[SkippedCell]]:
    """Validated specs in (m, k) order; invalid cells recorded, not fatal.

    Raises if no cell in the requested ranges is a valid radicand.
    """
    specs, skipped = [], []
    last_error: Exception | None = None
    for m in range(config.m_range[0], config.m_range[1] + 1):
        for k in range(config.k_range[0], config.k_range[1] + 1):
            try:
                specs.append(validate_spec(k, m))
            except ValueError as exc:
                skipped.append(SkippedCell(k=k, m=m, reason=str(exc)))
                last_error = exc
    if not specs:
        raise last_error if last_error is not None else UsageError("empty spec grid")
    return specs, skipped


def run(config: RunConfig) -> dict:
    """Execute a validated config and return the report structure.

    An `expand` report holds only the certified partial quotients: its
    convergents are `report.Rows`, built, checked and written by `emit`.
    `verify`'s items and `predict`'s predictions are `report.Rows` too,
    over verdicts and predictions all decided here, before any write:
    both walk the indices by `bvp.index_walk`.  `verify`'s items, with
    their theta_n and R_n enclosures, and `predict`'s digits are made
    and checked block by block as `emit` reaches them.
    Raises IncompleteReport, carrying the report, when scan cells hit the
    precision cap.
    """
    cap = config.precision_cap
    results = []
    capped: list[SkippedCell] = []
    if config.command != "scan":
        specs, skipped = _specs(config)
        summary = {"specs": len(specs), "skipped_specs": len(skipped)}
    if config.command == "expand":
        results = [certificate_payload(expand(spec, config.terms, max_bits=cap)) for spec in specs]
        summary["terms_total"] = sum(len(r["partial_quotients"]) for r in results)
    elif config.command == "predict":
        held = total = 0
        for spec in specs:
            exp = expand(spec, config.terms, max_bits=cap)
            steps = list(index_walk(spec, exp))
            held += sum(step[-1].formula_held for step in steps)
            total += len(steps)
            results.append(predict_payload(exp, steps))
        summary.update(predictions=total, formula_held=held, formula_missed=total - held)
    elif config.command == "verify":
        results = [
            verify_payload(verify_theorems(spec, config.terms, max_bits=cap))
            for spec in specs
        ]
        violations = [v for r in results for v in r["violations"]]
        summary.update(violations=len(violations), violations_by_kind=count_by_kind(violations))
    else:  # scan, over a grid of its own
        report: ScanReport = scan(
            range(config.k_range[0], config.k_range[1] + 1),
            range(config.m_range[0], config.m_range[1] + 1),
            config.terms,
            workers=config.workers,
            max_bits=cap,
        )
        payload = scan_payload(report)
        results.append(payload)
        summary = {
            "cells": len(report.cells),
            "skipped_cells": len(report.skipped),
            "violations": len(report.violations),
            "violations_by_kind": count_by_kind(payload["violations"]),
        }
        capped = [s for s in report.skipped if s.precision_capped]
    built = build_report(__version__, config.config_echo(), results, summary)
    if capped:
        raise IncompleteReport(built, capped[0].reason)
    return built


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit status."""
    if hasattr(sys, "set_int_max_str_digits"):
        # The digits are the product: deep convergents and enclosure
        # endpoints pass CPython's default 4300-digit str() limit.
        sys.set_int_max_str_digits(0)
    try:
        config = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"rootcf: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    status, message = EXIT_OK, None
    try:
        try:
            report = run(config)
        except IncompleteReport as exc:
            report, status, message = exc.report, EXIT_PRECISION, f"rootcf: {exc}"
        if config.out is None:
            try:
                emit(report, config.format, sys.stdout)
                sys.stdout.flush()
            except OSError as exc:
                # A reader that closed stdout early, as `| head` does, needs no
                # message; a full device does.  Either way, point fd 1 at the
                # null device so the flush at interpreter exit is quiet.
                if not isinstance(exc, BrokenPipeError):
                    print(f"rootcf: cannot write stdout: {exc.strerror or exc}", file=sys.stderr)
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
                return EXIT_USAGE
        else:
            try:
                with open(config.out, "w", newline="") as fh:
                    emit(report, config.format, fh)
            except OSError as exc:
                print(f"rootcf: cannot write {config.out}: {exc.strerror or exc}", file=sys.stderr)
                return EXIT_USAGE
    except PerfectPowerError as exc:
        print(f"rootcf: degenerate radicand: {exc}", file=sys.stderr)
        return EXIT_PERFECT_POWER
    except PrecisionCeilingError as exc:
        # Raised by run, or by verify refining each item's enclosures as it is written.
        print(f"rootcf: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except (UsageError, InvalidDegreeError) as exc:
        print(f"rootcf: invalid config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if message is not None:
        print(message, file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
