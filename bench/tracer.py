"""Span tracer for the rootcf benchmark.

The tracer wraps public functions of the rootcf modules from outside the
package: nothing under src/ knows it exists.  Each call of a wrapped
function records one span (name, start, end, parent, probed argument),
kept in memory and written out once the traced command has finished.

Run as a script, it executes one rootcf CLI command under the tracer:

    PYTHONPATH=src python3 bench/tracer.py SPANS.json -- scan --m 3 ...

The command's report goes to stdout exactly as `python -m rootcf` would
write it; the spans go to SPANS.json.
"""
from __future__ import annotations

import functools
import json
import statistics
import sys
import time

PACKAGE = "rootcf"

# Layer (package module) -> the public functions wrapped in it.
WRAPPED = {
    "exact": ("int_nth_root", "sign_linear_in_alpha", "alpha_interval"),
    "engine": ("expand", "complete_quotient_interval", "verify_quotient", "next_partial_quotient"),
    "bvp": ("verify_theorems", "predict_next", "general_correction", "cubic_correction"),
    "report": ("verify_payload", "expand_payload", "scan_payload", "emit"),
    "cli": ("parse_args", "run"),
}

# Argument kept with each span, as (position, keyword): the precision of
# an alpha enclosure and the number of indices a verification analyses.
PROBES = {
    "exact.alpha_interval": (1, "bits"),
    "bvp.verify_theorems": (1, "n_max"),
}

SPAN_NAME, SPAN_START, SPAN_END, SPAN_PARENT, SPAN_ARG = range(5)


class Tracer:
    """Context manager that routes every binding of each wrapped function
    through a span-recording wrapper, and restores the bindings on exit.

    Functions are imported by name into other modules (`cli.expand`,
    `bvp.verify_quotient`, `engine.sign_linear_in_alpha`, the package
    namespace), so every module attribute that is the original function
    object is replaced, not only the one in the defining module.
    """

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        modules = [
            module for name, module in list(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        try:
            for layer, functions in WRAPPED.items():
                home = sys.modules[f"{PACKAGE}.{layer}"]
                for fn_name in functions:
                    original = getattr(home, fn_name)
                    wrapper = self._wrap(f"{layer}.{fn_name}", original)
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                self._patched.append((module, attr, original))
                                setattr(module, attr, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._restore()

    def _restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        probe = PROBES.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            arg = None
            if probe is not None:
                position, keyword = probe
                arg = args[position] if len(args) > position else kwargs.get(keyword)
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1, arg]
            stack.append(len(spans))
            spans.append(span)
            span[SPAN_START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[SPAN_END] = clock()
                stack.pop()

        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh, separators=(",", ":"))


def summarise(names: list[str], spans: list[list]) -> dict[str, dict]:
    """Per wrapped name: calls, total time and self time, in seconds.

    A span's self time is its duration minus the durations of its direct
    children.  Children run inside their parent on one thread, so they do
    not overlap and the subtraction covers exactly the time they took.
    No wrapped function calls itself, so total time counts nothing twice.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[SPAN_PARENT] >= 0:
            child_time[span[SPAN_PARENT]] += span[SPAN_END] - span[SPAN_START]
    out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in names}
    for span, children in zip(spans, child_time):
        duration = span[SPAN_END] - span[SPAN_START]
        entry = out[names[span[SPAN_NAME]]]
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - children
    return out


def _has_ancestor(spans: list[list], index: int, name_id: int) -> bool:
    parent = spans[index][SPAN_PARENT]
    while parent >= 0:
        if spans[parent][SPAN_NAME] == name_id:
            return True
        parent = spans[parent][SPAN_PARENT]
    return False


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99) by statistics.quantiles; 0 if empty."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(names: list[str], spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced command, all by name.

    `<layer>.<fn>.calls|total_s|self_s` for every wrapped function, and
    the counters that say how much work the layers did.  The counters
    that must repeat exactly from run to run are listed in EXACT_COUNTERS.
    """
    ids = {name: i for i, name in enumerate(names)}
    alpha, expand, verify = ids["exact.alpha_interval"], ids["engine.expand"], ids["bvp.verify_theorems"]
    expand_attempts = enclosure_attempts = terms = 0
    bits_max = 0
    cells_ms = []
    for index, span in enumerate(spans):
        if span[SPAN_NAME] == alpha:
            bits_max = max(bits_max, span[SPAN_ARG])
            if _has_ancestor(spans, index, expand):
                expand_attempts += 1
            elif _has_ancestor(spans, index, verify):
                enclosure_attempts += 1
        elif span[SPAN_NAME] == verify:
            terms += span[SPAN_ARG]
            cells_ms.append((span[SPAN_END] - span[SPAN_START]) * 1e3)
    metrics: dict[str, float] = {}
    for name, entry in summarise(names, spans).items():
        for key, value in entry.items():
            metrics[f"{name}.{key}"] = value
    metrics.update({
        "bvp.terms_analysed": terms,
        "bvp.verify_theorems.cell_p50_ms": _quantile(cells_ms, 50),
        "bvp.verify_theorems.cell_p90_ms": _quantile(cells_ms, 90),
        "bvp.enclosure.attempts": enclosure_attempts,
        "bvp.enclosure.attempts_per_index": enclosure_attempts / terms if terms else 0.0,
        "engine.expand.attempts": expand_attempts,
        "exact.alpha_interval.bits_max": bits_max,
    })
    return metrics


# Work counters that, with every call count, must repeat exactly in every
# traced run of one seed: they tell "faster" apart from "did less work".
EXACT_COUNTERS = (
    "bvp.terms_analysed",
    "bvp.enclosure.attempts",
    "engine.expand.attempts",
    "exact.alpha_interval.bits_max",
    "report.output_bytes",
)


def exact_counters(metrics: dict[str, float]) -> dict[str, float]:
    """The metrics that depend only on the work done, never on timing."""
    return {
        name: value for name, value in metrics.items()
        if name.endswith(".calls") or name in EXACT_COUNTERS
    }


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- ROOTCF-ARGS...", file=sys.stderr)
        return 1
    import rootcf.cli

    with Tracer() as tracer:
        status = rootcf.cli.main(argv[2:])
    sys.stdout.flush()
    tracer.dump(argv[0])
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
