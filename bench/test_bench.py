"""Tests of the benchmark itself, kept out of the tier-1 suite.

    python3 -m pytest bench -q
"""
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.append(str(ROOT / "tests"))

import rootcf  # noqa: E402
from rootcf.exact import validate_spec  # noqa: E402
from run import final_line, load_spec  # noqa: E402
from tracer import WRAPPED, Tracer, layer_metrics, summarise  # noqa: E402
from workloads import WORKLOADS, valid_radicand  # noqa: E402


def _rootcf_modules():
    return [m for name, m in sys.modules.items() if name == "rootcf" or name.startswith("rootcf.")]


def _originals():
    return {id(getattr(sys.modules[f"rootcf.{layer}"], fn)) for layer, fns in WRAPPED.items() for fn in fns}


def _bindings():
    return {(m.__name__, attr): value for m in _rootcf_modules() for attr, value in vars(m).items()}


def test_tracer_patches_every_binding_and_restores_them():
    import rootcf.cli  # noqa: F401  (loads every module, as the CLI does)

    originals = _originals()
    before = _bindings()
    imported = [("rootcf.cli", "expand"), ("rootcf.bvp", "expand"),
                ("rootcf.bvp", "verify_quotient"), ("rootcf.engine", "sign_linear_in_alpha"),
                ("rootcf", "verify_theorems")]
    with Tracer():
        during = _bindings()
        left = [key for key, value in during.items() if id(value) in originals]
        assert left == [], f"unpatched bindings: {left}"
        for module, attr in imported:
            assert during[(module, attr)] is not before[(module, attr)]
    assert _bindings() == before


def test_tracer_records_calls_made_through_imported_names():
    spec = validate_spec(2, 3)
    with Tracer() as tracer:
        rootcf.bvp.verify_theorems(spec, 4, keep_terms=False)
    metrics = layer_metrics(tracer.names, tracer.spans)
    assert metrics["bvp.verify_theorems.calls"] == 1
    assert metrics["engine.expand.calls"] == 1                 # bvp.expand
    assert metrics["bvp.predict_next.calls"] == 4
    assert metrics["engine.verify_quotient.calls"] >= 4        # bvp.verify_quotient
    assert metrics["exact.sign_linear_in_alpha.calls"] > 0     # engine.sign_linear_in_alpha
    assert metrics["bvp.terms_analysed"] == 4
    assert metrics["bvp.enclosure.attempts"] == 4
    assert metrics["exact.alpha_interval.calls"] == (
        metrics["engine.expand.attempts"] + metrics["bvp.enclosure.attempts"])


def test_tracer_restores_bindings_when_the_traced_code_raises():
    before = _bindings()
    with pytest.raises(ValueError):
        with Tracer():
            rootcf.engine.expand(validate_spec(2, 3), -1)
    assert _bindings() == before


def _span_tree():
    names = ["bvp.verify_theorems", "engine.expand", "exact.alpha_interval"]
    spans = [
        [0, 0.0, 10.0, -1, 5],    # verify_theorems, n_max = 5
        [1, 1.0, 4.0, 0, None],   #   expand
        [2, 2.0, 3.0, 1, 64],     #     alpha_interval, 64 bits
        [2, 5.0, 9.0, 0, 128],    #   alpha_interval, 128 bits
        [2, 9.5, 9.75, 0, 128],   #   alpha_interval, 128 bits
        [0, 11.0, 13.0, -1, 5],   # verify_theorems, n_max = 5
    ]
    return names, spans


def test_self_time_subtracts_direct_children_only():
    out = summarise(*_span_tree())
    assert out["bvp.verify_theorems"] == {"calls": 2, "total_s": 12.0, "self_s": 10 - 3 - 4 - 0.25 + 2}
    assert out["engine.expand"] == {"calls": 1, "total_s": 3.0, "self_s": 2.0}
    assert out["exact.alpha_interval"] == {"calls": 3, "total_s": 5.25, "self_s": 5.25}


def test_layer_counters_on_a_synthetic_tree():
    names, spans = _span_tree()
    for layer, fns in WRAPPED.items():
        names += [f"{layer}.{fn}" for fn in fns if f"{layer}.{fn}" not in names]
    metrics = layer_metrics(names, spans)
    assert metrics["engine.expand.attempts"] == 1
    assert metrics["bvp.enclosure.attempts"] == 2
    assert metrics["bvp.terms_analysed"] == 10
    assert metrics["bvp.enclosure.attempts_per_index"] == 0.2
    assert metrics["exact.alpha_interval.bits_max"] == 128
    assert metrics["bvp.verify_theorems.cell_p50_ms"] == pytest.approx(6000.0)
    assert metrics["cli.run.calls"] == 0


def test_seed_zero_gives_the_roadmap_inputs_at_benchmark_size():
    got = {name: [(" ".join(i.args), i.terms) for i in w.invocations(0)] for name, w in WORKLOADS.items()}
    assert got == {
        "cubic_scan": [("scan --m 3 --k-range 2..22 --terms 50 --format csv --workers 1", 1000)],
        "deep_expand": [("expand --k 2 --m 3 --terms 2000 --format json", 2000),
                        ("expand --k 50 --m 10 --terms 2000 --format json", 2000)],
        "verify_report": [("verify --k 2 --m 3 --terms 200 --format json", 200)],
    }


@pytest.mark.parametrize("seed", [1, 2, 17, 123456])
def test_other_seeds_keep_the_shape_and_repeat(seed):
    for name, workload in WORKLOADS.items():
        first, again, base = workload.invocations(seed), workload.invocations(seed), workload.invocations(0)
        assert first == again
        assert [len(i.args) for i in first] == [len(i.args) for i in base]
        for inv, ref in zip(first, base):
            args, ref_args = dict(zip(inv.args[1::2], inv.args[2::2])), dict(zip(ref.args[1::2], ref.args[2::2]))
            assert {k: v for k, v in args.items() if k not in ("--k", "--k-range")} == \
                   {k: v for k, v in ref_args.items() if k not in ("--k", "--k-range")}
            if "--k" in args:
                assert valid_radicand(int(args["--k"]), int(args["--m"]))
            else:
                lo, hi = map(int, args["--k-range"].split(".."))
                assert 2 <= lo and hi <= 200 and valid_radicand(hi, 3)
                assert sum(valid_radicand(k, 3) for k in range(lo, hi + 1)) == 20


def test_radicand_validity_matches_rootcf():
    for m in (3, 10):
        for k in range(2, 400):
            try:
                validate_spec(k, m)
                valid = True
            except ValueError:
                valid = False
            assert valid_radicand(k, m) == valid, (k, m)


def _scan_csv(lo, hi, extra=""):
    rows = ["#schema=rootcf.csv.v1", "kind,k,m,reason"]
    rows += [f"cell,{k},3," for k in range(lo, hi + 1) if valid_radicand(k, 3)]
    rows += [f"skipped,{k},3,cube" for k in range(lo, hi + 1) if not valid_radicand(k, 3)]
    return ("\n".join(rows) + "\n" + extra).encode()


def test_scan_check_rejects_violations_and_missing_cells():
    scan = WORKLOADS["cubic_scan"]
    invocations = scan.invocations(0)
    assert scan.check(invocations, [_scan_csv(2, 22)]) == []
    assert scan.check(invocations, [_scan_csv(2, 22, "violation,5,3,\n")])
    assert scan.check(invocations, [_scan_csv(3, 22)])


def test_verify_check_rejects_a_wrong_partial_quotient():
    from rootcf.cli import parse_args, run
    from rootcf.report import emit

    verify = WORKLOADS["verify_report"]
    invocations = verify.invocations(0)
    report = run(parse_args(list(invocations[0].args)))
    assert verify.check(invocations, [emit(report, "json").encode()]) == []
    report["results"][0]["items"][7]["b_next"] += 1
    assert verify.check(invocations, [emit(report, "json").encode()])


def test_benchmark_json_lists_exactly_the_metrics_measured():
    spec = load_spec()
    names, spans = _span_tree()
    for layer, fns in WRAPPED.items():
        names += [f"{layer}.{fn}" for fn in fns if f"{layer}.{fn}" not in names]
    measured = set(layer_metrics(names, spans)) | {"report.output_bytes", "trace.overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} == measured
    result = {"correct": True, "attempted": 3, "failed": 0,
              "end_to_end": {m["name"]: 1.5 for m in spec["end_to_end"]}}
    line = final_line(result, spec, trace=False)
    assert line["correct"] and set(line["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    json.dumps(line, allow_nan=False)


def test_expansion_check_rejects_a_wrong_convergent():
    from rootcf.engine import expand
    from rootcf.report import expand_payload
    from workloads import _check_expansion

    payload = expand_payload(expand(validate_spec(50, 10), 40))
    assert _check_expansion(payload, 50, 10, 40, 30) == []
    payload["convergents"][35]["q"] = str(int(payload["convergents"][35]["q"]) + 1)
    assert _check_expansion(payload, 50, 10, 40, 30)
    payload["partial_quotients"][3] += 1
    assert _check_expansion(payload, 50, 10, 40, 30)


def test_reference_work_matches_its_checksum():
    import calibrate

    assert calibrate.reference_work() == calibrate.CHECKSUM
