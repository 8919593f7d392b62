"""The functions the benchmark's tracer wraps exist, with the probed parameters.

bench/tracer.py wraps `rootcf.<layer>.<name>` for every WRAPPED entry and
reads each PROBES argument by (position, keyword), so renaming or removing
one of those functions or parameters breaks every traced benchmark run.
The tracer imports `rootcf.cli` and then patches every binding of the
wrapped functions, so that import must load every layer, and a module
loaded later must bind none of them.
The tracer is compiled from its path and run in a fresh namespace, so
this test writes nothing under bench/.
"""
import importlib
import inspect
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = runpy.run_path(str(ROOT / "bench" / "tracer.py"))
WRAPPED = [(layer, name) for layer, names in TRACER["WRAPPED"].items() for name in names]


def _fresh(code: str) -> str:
    """stdout of `code` run in a fresh interpreter with only src/ on the path."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, check=True)
    return result.stdout


def _function(layer: str, name: str):
    return getattr(importlib.import_module(f"{TRACER['PACKAGE']}.{layer}"), name, None)


@pytest.mark.parametrize("layer, name", WRAPPED, ids=[".".join(w) for w in WRAPPED])
def test_wrapped_function_exists(layer, name):
    assert callable(_function(layer, name))


@pytest.mark.parametrize("qualname, probe", sorted(TRACER["PROBES"].items()))
def test_probe_matches_signature(qualname, probe):
    layer, name = qualname.split(".")
    assert (layer, name) in WRAPPED
    position, keyword = probe
    params = list(inspect.signature(_function(layer, name)).parameters.values())
    assert len(params) > position
    assert params[position].name == keyword
    assert params[position].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD


def test_cli_expand_calls_through_the_name_the_tracer_patches(monkeypatch):
    # The tracer counts `engine.expand` by replacing every binding of it,
    # `rootcf.cli.expand` among them; the `expand` command must call that.
    import rootcf.cli as cli

    specs = []
    original = cli.expand

    def spy(spec, *args, **kwargs):
        specs.append((spec.k, spec.m))
        return original(spec, *args, **kwargs)

    monkeypatch.setattr(cli, "expand", spy)
    cli.run(cli.parse_args(["expand", "--k-range", "6..9", "--m", "3", "--terms", "5"]))
    assert specs == [(6, 3), (7, 3), (9, 3)]  # 8 is a cube, skipped


def test_cli_import_loads_every_wrapped_layer():
    # The tracer imports rootcf.cli, then looks each WRAPPED layer up in
    # sys.modules: every one must be loaded, holding its wrapped names.
    code = (
        "import sys, rootcf.cli\n"
        f"wrapped = {WRAPPED!r}\n"
        "print([f'{layer}.{name}' for layer, name in wrapped\n"
        "       if not callable(getattr(sys.modules.get('rootcf.' + layer), name, None))])\n"
    )
    assert _fresh(code) == "[]\n"


def test_modules_loaded_on_first_use_bind_no_wrapped_function():
    # The tracer patches the bindings that exist when it starts.  A module
    # that rootcf.cli does not load is imported later, maybe while the
    # tracer runs, and a wrapper it bound then would outlive the tracer.
    code = (
        "import importlib, pkgutil, sys, rootcf, rootcf.cli\n"
        f"wrapped = {WRAPPED!r}\n"
        "originals = {id(getattr(sys.modules['rootcf.' + layer], name)) for layer, name in wrapped}\n"
        "later = sorted(f'rootcf.{info.name}' for info in pkgutil.iter_modules(rootcf.__path__)\n"
        "               if info.name != '__main__' and f'rootcf.{info.name}' not in sys.modules)\n"
        "for name in later:\n"
        "    bound = [a for a, v in vars(importlib.import_module(name)).items() if id(v) in originals]\n"
        "    print(name, bound)\n"
    )
    assert _fresh(code) == "rootcf.digits []\n"
