"""The functions the benchmark's tracer wraps exist, with the probed parameters.

bench/tracer.py wraps `rootcf.<layer>.<name>` for every WRAPPED entry and
reads each PROBES argument by (position, keyword), so renaming or removing
one of those functions or parameters breaks every traced benchmark run.
The tracer is compiled from its path and run in a fresh namespace, so
this test writes nothing under bench/.
"""
import importlib
import inspect
import runpy
from pathlib import Path

import pytest

TRACER = runpy.run_path(str(Path(__file__).resolve().parents[1] / "bench" / "tracer.py"))
WRAPPED = [(layer, name) for layer, names in TRACER["WRAPPED"].items() for name in names]


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
