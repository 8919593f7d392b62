"""tests/oracles.py stands apart from the package and keeps the parameters
the benchmark calls it with.

The oracles are the independent side of every cross-check, so they must
not import rootcf: a fault shared by both routes would pass unseen.
bench/workloads.py calls them to check a benchmark run's output.  Both
files are read as source; nothing under bench/ is imported.

The package itself holds no float: every order decision and every shown
digit comes from integers and Fractions, which its modules' source pins.
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


# math functions that return an int for int (or Fraction) arguments.
INTEGER_MATH = {"ceil", "comb", "factorial", "floor", "gcd", "isqrt", "lcm", "perm", "prod", "trunc"}


def float_sites(source: str) -> list[tuple[int, str]]:
    """(line, what) of each float literal, `float` name or float-valued math name."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            sites.append((node.lineno, repr(node.value)))
        elif isinstance(node, ast.Name) and node.id == "float":
            sites.append((node.lineno, "float"))
        elif (isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "math"
              and node.attr not in INTEGER_MATH):
            sites.append((node.lineno, f"math.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            sites += [(node.lineno, f"math.{a.name}") for a in node.names if a.name not in INTEGER_MATH]
    return sorted(sites)


def test_package_is_float_free():
    assert float_sites("x = 0.5 + float(math.log10(2)) + math.floor(y)\nfrom math import sqrt") == [
        (1, "0.5"), (1, "float"), (1, "math.log10"), (2, "math.sqrt"),
    ]
    found = {path.name: float_sites(path.read_text()) for path in sorted((ROOT / "src" / "rootcf").glob("*.py"))}
    assert len(found) >= 6
    assert {name: sites for name, sites in found.items() if sites} == {}
