"""tests/oracles.py stands apart from the package and keeps the parameters
the benchmark calls it with.

The oracles are the independent side of every cross-check, so they must
not import rootcf: a fault shared by both routes would pass unseen.
bench/workloads.py calls them to check a benchmark run's output.  Both
files are read as source; nothing under bench/ is imported.
"""
import ast
import inspect
from pathlib import Path

import oracles

ROOT = Path(__file__).resolve().parents[1]


def test_oracle_contract():
    nodes = list(ast.walk(ast.parse((ROOT / "tests" / "oracles.py").read_text())))
    modules = [alias.name for node in nodes if isinstance(node, ast.Import) for alias in node.names]
    modules += ["." * node.level + (node.module or "") for node in nodes if isinstance(node, ast.ImportFrom)]
    assert "fractions" in modules
    assert [name for name in modules if name.split(".")[0] in ("rootcf", "")] == []

    assert list(inspect.signature(oracles.cf_terms_fixed_point).parameters) == ["k", "m", "count", "bits"]
    assert list(inspect.signature(oracles.nth_root_bisect).parameters) == ["x", "m"]
    # Every `oracles.<name>(...)` call in the benchmark binds to its signature.
    calls = [node for node in ast.walk(ast.parse((ROOT / "bench" / "workloads.py").read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and getattr(node.func.value, "id", None) == "oracles"]
    assert "cf_terms_fixed_point" in [call.func.attr for call in calls]
    for call in calls:
        keywords = dict.fromkeys(kw.arg for kw in call.keywords)
        inspect.signature(getattr(oracles, call.func.attr)).bind(*call.args, **keywords)
