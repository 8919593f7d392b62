"""rootcf benchmark: the CLI timed end to end, and per layer in a traced run.

One run of one workload:

    python3 bench/run.py --workload cubic_scan --seed 0 --seconds 30 --trace 0

Every workload, with end-to-end and per-layer metrics, sample counts and
check verdicts (add --record PATH to write them with the environment):

    python3 bench/run.py --all

A run starts with one untimed warm-up set of the workload's invocations.
It then runs the set again and again until --seconds have passed: a
closed loop with one client, each set starting when the previous one
has ended, and one child process at a time.  After each timed set it
times one `python -m rootcf --version`, the set-up time, and one run of
the fixed reference work in calibrate.py.  Every time is the median over
the run, scaled by how fast the reference ran (see REFERENCE_S).  With
--trace 1 it adds three sets run under bench/tracer.py, which record a
span per call of each wrapped function, each right after an untraced set
that it is compared with for the tracing overhead.

Every set's output is checked: the exit status, the bytes (identical in
every set of one seed, traced or not), and once per run an independent
check of the warm-up set's output.  The traced sets must agree exactly
on every work counter.  The last line printed is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
SPEC_PATH = ROOT / "BENCHMARK.json"

SETUP_PROBES = 9
REFERENCE_S = 0.125    # the reference work's wall time, calibrate.py, that times are scaled to
TRACED_SETS = 3
RUN_BUDGET_S = 165.0   # a run must end within 180 s, checks included

# Which end-to-end metric each layer's metrics should move, and where.
LAYER_MAP = {
    "bvp": "wall_s and terms_per_s on cubic_scan and verify_report; no change on deep_expand",
    "engine": "wall_s and peak_rss_mb on deep_expand; about 6% of cubic_scan",
    "exact": "wall_s on cubic_scan, where sign-test counts rise if verdicts move onto exact tests",
    "report": "wall_s on verify_report and deep_expand; about 0 on cubic_scan",
    "cli": "setup_s on every workload",
}

sys.path.append(str(TESTS))
import calibrate  # noqa: E402
from tracer import SPAN_PARENT, exact_counters, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Invocation  # noqa: E402


@dataclass
class Sample:
    """One child process: its wall and CPU time, peak memory and status."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    status: int
    timed_out: bool


class Launcher:
    """The process that spawns and times every child (see launcher.py)."""

    def __enter__(self) -> "Launcher":
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        return self

    def __exit__(self, *exc_info) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()

    def spawn(self, argv: list[str], stdout: Path, stderr: Path, timeout: float) -> Sample:
        self.proc.stdin.write(json.dumps([argv, str(stdout), str(stderr), timeout]) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the child launcher ended early")
        return Sample(**json.loads(line))


@dataclass
class SetResult:
    """One run of a workload's invocations."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    output_bytes: int = 0
    digests: list[str] = field(default_factory=list)
    outputs: list[bytes] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    spans: tuple[list[str], list[list]] | None = None


class Runner:
    """Runs a workload's invocations in a private work directory."""

    def __init__(self, launcher: Launcher, work: Path, deadline: float):
        self.launcher = launcher
        self.work = work
        self.deadline = deadline

    def spawn(self, argv: list[str], stdout: Path) -> Sample:
        return self.launcher.spawn(argv, stdout, self.work / "stderr", self.deadline - time.monotonic())

    def run_set(self, invocations: list[Invocation], traced: bool, keep: bool) -> SetResult:
        result = SetResult()
        names: list[str] = []
        spans: list[list] = []
        for i, inv in enumerate(invocations):
            out = self.work / f"out-{i}"
            spans_path = self.work / f"spans-{i}.json"
            if traced:
                argv = [sys.executable, str(BENCH / "tracer.py"), str(spans_path), "--", *inv.args]
            else:
                argv = [sys.executable, "-m", "rootcf", *inv.args]
            sample = self.spawn(argv, out)
            result.wall_s += sample.wall_s
            result.cpu_s += sample.cpu_s
            result.rss_mb = max(result.rss_mb, sample.rss_mb)
            data = out.read_bytes()
            result.output_bytes += len(data)
            result.digests.append(hashlib.sha256(data).hexdigest())
            if keep:
                result.outputs.append(data)
            if sample.timed_out:
                result.problems.append(f"{inv.args[0]}: timed out")
            elif sample.status != 0:
                message = (self.work / "stderr").read_text(errors="replace").strip().splitlines()[-1:] or [""]
                result.problems.append(f"{inv.args[0]}: exit status {sample.status}: {message[0]}")
            elif traced:
                loaded = json.loads(spans_path.read_text())
                offset = len(spans)
                for span in loaded["spans"]:
                    if span[SPAN_PARENT] >= 0:
                        span[SPAN_PARENT] += offset
                spans.extend(loaded["spans"])
                names = loaded["names"]
            if result.problems:
                break
        if traced and not result.problems:
            result.spans = (names, spans)
        return result


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


class Probe:
    """Wall times of a short child command that runs after each timed set.

    The first call is an untimed warm-up that fills the bytecode cache,
    as a user's second run would find it.  The timed ones are spread over
    the run, so that their median covers the same stretch of time as the
    workload's.  `expect` tells a correct output from a wrong one.
    """

    def __init__(self, runner: Runner, name: str, argv: list[str], expect):
        self.runner, self.name, self.argv, self.expect = runner, name, argv, expect
        self.walls: list[float] = []
        self.problems: list[str] = []
        self.output = ""
        self.probe(timed=False)

    def probe(self, timed: bool = True) -> None:
        out = self.runner.work / "probe"
        sample = self.runner.spawn(self.argv, out)
        self.output = out.read_text().strip()
        if sample.status != 0 or not self.expect(self.output):
            self.problems.append(f"{self.name}: exit status {sample.status}, printed {self.output!r}")
        elif timed:
            self.walls.append(sample.wall_s)


def measure(launcher: Launcher, workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns every measured value and check verdict."""
    workload = WORKLOADS[workload_name]
    invocations = workload.invocations(seed)
    start = time.monotonic()
    work = Path(tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT))
    try:
        runner = Runner(launcher, work, start + RUN_BUDGET_S)
        # Set-up time: interpreter start, imports and parser build.
        setup = Probe(runner, "--version", [sys.executable, "-m", "rootcf", "--version"],
                      lambda out: out.startswith("rootcf "))
        reference = Probe(runner, "reference work", [sys.executable, str(BENCH / "calibrate.py")],
                          lambda out: out == str(calibrate.CHECKSUM))

        # An untimed warm-up set, whose output the independent check reads.
        first = runner.run_set(invocations, traced=False, keep=True)
        independent = [] if first.problems else workload.check(invocations, first.outputs)
        first.outputs.clear()

        timed: list[SetResult] = []
        loop_start = time.monotonic()
        while not first.problems and (not timed or time.monotonic() - loop_start < seconds):
            timed.append(runner.run_set(invocations, traced=False, keep=False))
            if timed[-1].problems:
                break
            setup.probe()
            reference.probe()
        while len(setup.walls) < SETUP_PROBES and not setup.problems + reference.problems:
            setup.probe()
            reference.probe()

        # Each traced set follows an untraced one, its pair for the
        # tracing overhead, so that both meet the host in the same state.
        traced: list[SetResult] = []
        paired: list[SetResult] = []
        if trace and not first.problems:
            for _ in range(TRACED_SETS):
                paired.append(runner.run_set(invocations, traced=False, keep=False))
                traced.append(runner.run_set(invocations, traced=True, keep=False))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    sets = [first] + timed + paired + traced
    checks: dict[str, list[str]] = {"exit status": [p for s in sets for p in s.problems]}
    checks["setup and reference probes"] = setup.problems + reference.problems
    checks["independent check"] = independent
    differing = sum(s.digests != first.digests for s in sets if not s.problems)
    checks["output bytes identical across runs" + (" and traced runs" if trace else "")] = (
        [f"{differing} runs differ from the first"] if differing else [])
    # A set fails on its own problems or when its output differs from the
    # warm-up set's; if that output fails its independent check,
    # every set either repeats that output or differs from it, so all fail.
    probes = len(setup.walls) + len(reference.walls) + len(setup.problems) + len(reference.problems)
    failed = len(setup.problems) + len(reference.problems) + sum(
        bool(s.problems) or s.digests != first.digests or bool(independent)
        for s in sets)

    walls = [s.wall_s for s in timed if not s.problems]
    cpus = [s.cpu_s for s in timed if not s.problems]
    terms = sum(inv.terms for inv in invocations)
    # Times are scaled to a host on which the reference work takes
    # REFERENCE_S: the shared host's speed drifts by tens of percent over
    # minutes, and the reference, timed in the same stretch, drifts with it.
    scale = REFERENCE_S / _median(reference.walls)
    result = {
        "workload": workload_name,
        "seed": seed,
        "version": setup.output,
        "invocations": [" ".join(inv.args) for inv in invocations],
        "samples": len(walls),
        "setup_probes": len(setup.walls),
        "traced_sets": len(traced),
        "attempted": len(sets) + probes,
        "wall_samples": walls,
        "unscaled": {
            "wall_s": _median(walls),
            "cpu_s": _median(cpus),
            "setup_s": _median(setup.walls),
            "reference_s": _median(reference.walls),
        },
        "end_to_end": {
            "wall_s": _median(walls) * scale,
            "cpu_s": _median(cpus) * scale,
            "terms_per_s": terms / (_median(walls) * scale),
            "peak_rss_mb": _median([s.rss_mb for s in timed if not s.problems]),
            "setup_s": _median(setup.walls) * scale,
        },
    }
    if trace:
        runs = []
        for traced_set in traced:
            if traced_set.spans is not None:
                runs.append(layer_metrics(*traced_set.spans))
                runs[-1]["report.output_bytes"] = traced_set.output_bytes
        counters = [exact_counters(m) for m in runs]
        drift = sorted({name for c in counters[1:] for name in c if c[name] != counters[0][name]})
        checks["exact counters repeat"] = [f"drifted: {', '.join(drift)}"] if drift else []
        failed += bool(drift)
        # Counters repeat exactly, so they are taken as they are; times are medians.
        result["per_layer"] = {
            name: value if name in counters[0] else _median([m[name] for m in runs])
            for name, value in (runs[0].items() if runs else ())
        }
        if runs:
            result["per_layer"]["trace.overhead_frac"] = _median(
                [t.wall_s / u.wall_s - 1 for u, t in zip(paired, traced)])
    result["checks"] = checks
    result["failed"] = failed
    result["correct"] = not any(checks.values())
    return result


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def _units(spec: dict) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def print_result(result: dict, spec: dict) -> None:
    units = _units(spec)
    print(f"== {result['workload']}  seed {result['seed']}  ({result['version']})")
    for line in result["invocations"]:
        print(f"   rootcf {line}")
    print(f"   samples: {result['samples']} timed sets, {result['traced_sets']} traced sets, "
          f"{result['setup_probes']} set-up and reference probes each")
    for name, problems in result["checks"].items():
        print(f"   check {name}: {'ok' if not problems else 'FAILED: ' + '; '.join(problems)}")
    print(f"   failed_frac = {result['failed'] / result['attempted']:.4g} "
          f"({result['failed']} of {result['attempted']} runs)")
    walls = sorted(result["wall_samples"])
    if walls:
        # The highest percentile with at least ten sets beyond it, if any.
        p = 100 * (len(walls) - 10) // len(walls)
        tail = f", p{p} {statistics.quantiles(walls, n=100)[p - 1]:.4f}" if p > 50 else ""
        print(f"   unscaled wall_s per set: min {walls[0]:.4f}, median {_median(walls):.4f}{tail}, "
              f"max {walls[-1]:.4f} s over {len(walls)} sets")
    print("   unscaled medians: " + ", ".join(f"{k} {v:.4f} s" for k, v in result["unscaled"].items())
          + f"; times below are scaled to reference_s = {REFERENCE_S} s")
    for name, value in result["end_to_end"].items():
        print(f"   {name:<44} {value:>14.6g} {units[name]}")
    for name, value in result.get("per_layer", {}).items():
        print(f"   {name:<44} {value:>14.6g} {units[name]}")


def final_line(result: dict, spec: dict, trace: bool) -> dict:
    """The contract's last line: every metric of the mode's list, by name."""
    values = result["per_layer"] if trace else result["end_to_end"]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if not isinstance(values.get(m["name"]), (int, float)) or math.isnan(values[m["name"]]):
            result["correct"] = False
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def environment(version: str) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "rootcf": version,
        "git_commit": commit,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload, traced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, help="with --all, write the results here as JSON")
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")

    missing = [p for p in (SPEC_PATH, SRC / "rootcf" / "__init__.py", TESTS / "oracles.py")
               if not p.is_file()]
    if missing:
        print(f"bench: not a rootcf checkout, missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    with Launcher() as launcher:
        if args.workload:
            result = measure(launcher, args.workload, args.seed, seconds, bool(args.trace))
            print_result(result, spec)
            print(json.dumps(final_line(result, spec, bool(args.trace))))
            return 0
        results = []
        for name in WORKLOADS:
            results.append(measure(launcher, name, args.seed, seconds, trace=True))
            print_result(results[-1], spec)
    if args.record:
        why = {w["name"]: w["why"] for w in spec["workloads"]}
        record = {
            "environment": environment(results[0]["version"]),
            "seed": args.seed,
            "run_seconds": seconds,
            "reference_s": REFERENCE_S,
            "layer_map": LAYER_MAP,
            "workloads": {
                r["workload"]: {
                    "why": why[r["workload"]],
                    "invocations": r["invocations"],
                    "checks": {name: problems or "ok" for name, problems in r["checks"].items()},
                    "samples": r["samples"],
                    "unscaled": r["unscaled"],
                    "end_to_end": r["end_to_end"],
                    "per_layer": r["per_layer"],
                }
                for r in results
            },
        }
        args.record.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
