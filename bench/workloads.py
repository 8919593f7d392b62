"""Benchmark workloads: the rootcf CLI invocations a seed gives, and the
independent checks on what they print.

Seed 0 gives the ROADMAP's inputs, cut to a size that runs in one to
three seconds, so that a run times many sets: the first 20 cells of the
cubic sweep, and expansions to 2,000 terms.  Any other seed draws inputs
of the same shape (the same degrees, cell count and term counts) with
radicands drawn from the ranges stated on each workload.  The program
sees only the generated arguments.

The checks do not trust rootcf: partial quotients are compared with the
fixed-precision oracle of the test suite (tests/oracles.py), and grid
membership with integer roots computed here.
"""
from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass

SCAN_M, SCAN_CELLS, SCAN_TERMS = 3, 20, 50
SCAN_LO_RANGE = (2, 180)          # window start; it ends at its 20th non-cube, inside the ROADMAP's 2..200
EXPAND_TERMS = 2000
EXPAND_DEGREES = (3, 10)
EXPAND_K_RANGE = (2, 100)
EXPAND_ORACLE_PREFIX = 300        # leading partial quotients compared with the oracle
VERIFY_M, VERIFY_TERMS = 3, 200
VERIFY_K_RANGE = (2, 100)


def _is_power(k: int, p: int) -> bool:
    r = round(k ** (1.0 / p))
    return any(c > 0 and c ** p == k for c in (r - 1, r, r + 1))


def _prime_divisors(m: int) -> list[int]:
    return [p for p in range(2, m + 1) if m % p == 0 and all(p % d for d in range(2, p))]


def valid_radicand(k: int, m: int) -> bool:
    """k**(1/m) has degree m: k is no p-th power for a prime p | m."""
    return k >= 2 and not any(_is_power(k, p) for p in _prime_divisors(m))


def _draw_radicand(rng: random.Random, m: int, k_range: tuple[int, int]) -> int:
    while True:
        k = rng.randint(*k_range)
        if valid_radicand(k, m):
            return k


@dataclass(frozen=True)
class Invocation:
    """One rootcf command line and the terms it analyses or expands."""

    args: tuple[str, ...]
    terms: int


def _expected_terms(k: int, m: int, count: int) -> list[int]:
    """b_0..b_count from the oracle, doubling its precision until it agrees
    with itself.  Its default precision grows as 40 bits per term, far more
    than the ~4 bits a term needs, and costs seconds at a few hundred terms.
    """
    import oracles  # tests/oracles.py; the entry point puts tests/ on sys.path

    bits = 8 * count + 64
    while True:
        try:
            return oracles.cf_terms_fixed_point(k, m, count, bits=bits)
        except AssertionError:
            bits *= 2


class Workload:
    """A named list of invocations; why each was chosen is in BENCHMARK.json."""

    name: str

    def invocations(self, seed: int) -> list[Invocation]:
        raise NotImplementedError

    def _rng(self, seed: int) -> random.Random:
        # Seeded by name too, so workloads draw independently for one seed.
        return random.Random(f"{self.name}-{seed}")

    def check(self, invocations: list[Invocation], outputs: list[bytes]) -> list[str]:
        """Problems found in the outputs of one run of the invocations."""
        raise NotImplementedError


class CubicScan(Workload):
    name = "cubic_scan"

    def invocations(self, seed: int) -> list[Invocation]:
        lo = SCAN_LO_RANGE[0] if seed == 0 else self._rng(seed).randint(*SCAN_LO_RANGE)
        hi, cells = lo - 1, 0
        while cells < SCAN_CELLS:
            hi += 1
            cells += valid_radicand(hi, SCAN_M)
        args = ("scan", "--m", str(SCAN_M), "--k-range", f"{lo}..{hi}",
                "--terms", str(SCAN_TERMS), "--format", "csv", "--workers", "1")
        return [Invocation(args, cells * SCAN_TERMS)]

    def check(self, invocations, outputs):
        lo, hi = map(int, invocations[0].args[4].split(".."))
        text = outputs[0].decode()
        if not text.startswith("#schema=rootcf.csv.v1\n"):
            return ["scan: missing CSV schema line"]
        rows = list(csv.DictReader(io.StringIO(text.split("\n", 1)[1])))
        kinds: dict[str, list[int]] = {}
        for row in rows:
            kinds.setdefault(row["kind"], []).append(int(row["k"]))
        want_cells = [k for k in range(lo, hi + 1) if valid_radicand(k, SCAN_M)]
        want_skipped = [k for k in range(lo, hi + 1) if not valid_radicand(k, SCAN_M)]
        problems = []
        if kinds.pop("cell", []) != want_cells:
            problems.append(f"scan: cells differ from the {len(want_cells)} non-cubes in {lo}..{hi}")
        if kinds.pop("skipped", []) != want_skipped:
            problems.append(f"scan: skipped cells differ from the cubes {want_skipped}")
        if kinds:
            problems.append(f"scan: unexpected rows {sorted(kinds)} (certified violations must be 0)")
        return problems


def _check_expansion(result: dict, k: int, m: int, count: int, prefix: int) -> list[str]:
    """Terms, convergents and sides of one expansion payload."""
    where = f"expand k={k} m={m}"
    if (result["k"], result["m"]) != (k, m):
        return [f"{where}: payload is for k={result['k']} m={result['m']}"]
    pq = result["partial_quotients"]
    if len(pq) != count + 1:
        return [f"{where}: {len(pq)} partial quotients, want {count + 1}"]
    problems = []
    if pq[:prefix + 1] != _expected_terms(k, m, prefix):
        problems.append(f"{where}: partial quotients differ from the oracle in the first {prefix + 1}")
    p1, q1, p2, q2 = 1, 0, 0, 1
    for n, (b, conv) in enumerate(zip(pq, result["convergents"])):
        p1, q1, p2, q2 = b * p1 + p2, b * q1 + q2, p1, q1
        side = "above" if p1 ** m > k * q1 ** m else "below"
        if (conv["n"], conv["b"], conv["p"], conv["q"], conv["side"]) != (n, b, str(p1), str(q1), side):
            problems.append(f"{where}: convergent {n} is wrong")
            break
    return problems


class DeepExpand(Workload):
    name = "deep_expand"

    def invocations(self, seed: int) -> list[Invocation]:
        if seed == 0:
            radicands = [(2, 3), (50, 10)]
        else:
            rng = self._rng(seed)
            radicands = [(_draw_radicand(rng, m, EXPAND_K_RANGE), m) for m in EXPAND_DEGREES]
        return [
            Invocation(("expand", "--k", str(k), "--m", str(m), "--terms", str(EXPAND_TERMS),
                        "--format", "json"), EXPAND_TERMS)
            for k, m in radicands
        ]

    def check(self, invocations, outputs):
        problems = []
        for inv, out in zip(invocations, outputs):
            k, m = int(inv.args[2]), int(inv.args[4])
            report = json.loads(out)
            if len(report["results"]) != 1:
                problems.append(f"expand k={k} m={m}: {len(report['results'])} results, want 1")
                continue
            problems += _check_expansion(report["results"][0], k, m, EXPAND_TERMS, EXPAND_ORACLE_PREFIX)
        return problems


class VerifyReport(Workload):
    name = "verify_report"

    def invocations(self, seed: int) -> list[Invocation]:
        k = 2 if seed == 0 else _draw_radicand(self._rng(seed), VERIFY_M, VERIFY_K_RANGE)
        args = ("verify", "--k", str(k), "--m", str(VERIFY_M), "--terms", str(VERIFY_TERMS),
                "--format", "json")
        return [Invocation(args, VERIFY_TERMS)]

    def check(self, invocations, outputs):
        k = int(invocations[0].args[2])
        report = json.loads(outputs[0])
        result = report["results"][0]
        expected = _expected_terms(k, VERIFY_M, VERIFY_TERMS + 1)
        problems = []
        if result["partial_quotients"] != expected:
            problems.append(f"verify k={k}: partial quotients differ from the oracle")
        items = result["items"]
        if [item["n"] for item in items] != list(range(1, VERIFY_TERMS + 1)):
            problems.append(f"verify k={k}: items are not n = 1..{VERIFY_TERMS}")
        elif any(item["b_next"] != expected[item["n"] + 1] for item in items):
            problems.append(f"verify k={k}: an item's b_next differs from the oracle expansion")
        if result["violations"]:
            problems.append(f"verify k={k}: {len(result['violations'])} certified violations")
        return problems


WORKLOADS = {w.name: w for w in (CubicScan(), DeepExpand(), VerifyReport())}
