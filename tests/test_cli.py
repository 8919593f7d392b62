import json
import os
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootcf import bvp
from rootcf.bvp import index_walk, leading_terms, predict_next, scan
from rootcf.cli import (
    EXIT_OK,
    EXIT_PERFECT_POWER,
    EXIT_PRECISION,
    EXIT_USAGE,
    FORMATS,
    RunConfig,
    UsageError,
    main,
    parse_args,
    run,
)
from rootcf.engine import Expansion, expand
from rootcf.digits import (
    ROW_BATCH,
    decimal_string,
    justified_places,
    sci_string,
)
from rootcf.exact import validate_spec
from rootcf.report import (
    _EMITTERS,
    BLOCK_CHARS,
    CSV_COLUMNS,
    CSV_SCHEMA_LINE,
    ITEM_BATCH,
    Rows,
    build_report,
    certificate_payload,
    emit,
)
from fractions import Fraction

from conftest import RecordingStream, spec_or_reject

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


class TestParseArgs:
    def test_scan_range(self):
        cfg = parse_args(["scan", "--m", "3", "--k-range", "2..200", "--terms", "50"])
        assert cfg.command == "scan"
        assert cfg.k_range == (2, 200)
        assert cfg.m_range == (3, 3)
        assert cfg.terms == 50

    def test_empty_range_rejected(self):
        with pytest.raises(UsageError, match="empty k range 5..2"):
            parse_args(["scan", "--m", "3", "--k-range", "5..2", "--terms", "5"])
        with pytest.raises(UsageError, match="empty m range 5..3"):
            parse_args(["scan", "--m-range", "5..3", "--k", "2", "--terms", "5"])

    def test_golden_verify_config(self):
        cfg = parse_args(["verify", "--m", "10", "--k", "50", "--terms", "1", "--format", "json"])
        assert cfg == RunConfig(
            command="verify", k_range=(50, 50), m_range=(10, 10), terms=1,
            precision_cap=1 << 20, format="json", out=None, workers=1,
        )

    def test_unknown_flag_rejected(self):
        with pytest.raises(UsageError):
            parse_args(["expand", "--k", "2", "--m", "3", "--frobnicate"])

    def test_missing_k_rejected(self):
        with pytest.raises(UsageError):
            parse_args(["expand", "--m", "3"])

    def test_bad_range_syntax(self):
        with pytest.raises(UsageError):
            parse_args(["scan", "--m", "3", "--k-range", "27", "--terms", "2"])

    def test_invalid_values(self):
        with pytest.raises(UsageError):
            parse_args(["expand", "--k", "2", "--m", "3", "--terms", "0"])
        with pytest.raises(UsageError):
            parse_args(["expand", "--k", "2", "--m", "1"])
        with pytest.raises(UsageError):
            parse_args(["expand", "--k", "2", "--m", "3", "--precision-cap", "32"])
        with pytest.raises(UsageError, match="k must be positive"):
            parse_args(["expand", "--k", "0", "--m", "3"])


# The keys of a predict row, every one of them also a key of a verify item.
PREDICTION_KEYS = [
    "n", "side", "p", "q", "d", "leading", "shifted_leading",
    "candidate", "epsilon", "predicted", "actual", "formula_held", "window_held",
]


class TestRun:
    def test_expand_golden(self):
        report = run(parse_args(["expand", "--k", "50", "--m", "10", "--terms", "3"]))
        assert report["results"][0]["partial_quotients"] == [1, 2, 11, 3]

    def test_verify_golden(self):
        report = run(parse_args(["verify", "--k", "50", "--m", "10", "--terms", "1"]))
        violations = report["results"][0]["violations"]
        assert len(violations) == 1
        v = violations[0]
        assert v["quantity"] == "remainder_bound"
        assert v["d"] == "7849"
        assert v["observed"]["decimal"].startswith("-1.2696")
        assert report["summary"]["violations_by_kind"] == {"remainder_bound": 1}

    def test_expand_range_skips_invalid(self):
        report = run(parse_args(["expand", "--k-range", "7..9", "--m", "3", "--terms", "2"]))
        assert [r["k"] for r in report["results"]] == [7, 9]
        assert report["summary"]["skipped_specs"] == 1

    def test_predict_summary(self):
        report = run(parse_args(["predict", "--k", "3", "--m", "3", "--terms", "6"]))
        preds = report["results"][0]["predictions"]
        assert preds[0]["candidate"] == 4 and preds[0]["actual"] == 3
        assert not preds[0]["formula_held"]
        assert report["summary"]["formula_missed"] >= 1

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 200), st.integers(2, 8), st.integers(1, 40))
    def test_predict_rows_are_verify_items(self, k, m, terms):
        # verify and predict walk the indices by one walk: n = 1..N-1, each
        # read against the certified b_{n+1}.  predict's rows are verify's
        # items, less the keys only verify has.
        spec = spec_or_reject(k, m)
        exp = expand(spec, terms + 1)
        steps = list(index_walk(spec, exp))
        walked = list(exp.convergents())
        assert [conv for _, conv, *_ in steps] == walked[1:-1]
        assert [prev for prev, *_ in steps] == walked[:-2]
        assert [step[-1].actual for step in steps] == exp.partial_quotients[2:]
        for prev, conv, d, hn, hd, an, outcome in steps:
            assert (d, hn, hd, an) == leading_terms(spec, conv, prev)
            assert outcome == predict_next(spec, conv, prev)
        km = ["--k", str(k), "--m", str(m), "--format", "json"]
        predict, verify = (
            json.loads(emit(run(parse_args([command, *km, "--terms", str(n)])), "json"))
            for command, n in (("predict", terms + 1), ("verify", terms))
        )
        rows, items = predict["results"][0]["predictions"], verify["results"][0]["items"]
        assert len(rows) == len(items) == terms
        for row, item in zip(rows, items):
            assert list(row) == PREDICTION_KEYS
            assert row == {key: item[key] for key in PREDICTION_KEYS}


class TestMain:
    def test_exit_ok(self, capsys):
        assert main(["expand", "--k", "2", "--m", "3", "--terms", "3"]) == EXIT_OK
        assert "[1, 3, 1, 5]" in capsys.readouterr().out

    def test_exit_usage(self, capsys):
        assert main(["scan", "--m", "3", "--k-range", "5..2", "--terms", "5"]) == EXIT_USAGE
        assert "usage error" in capsys.readouterr().err

    def test_exit_perfect_power(self, capsys):
        assert main(["expand", "--k", "8", "--m", "3"]) == EXIT_PERFECT_POWER
        err = capsys.readouterr()
        assert err.out == ""  # no report body
        assert "degenerate radicand" in err.err

    def test_exit_precision_ceiling(self, capsys):
        code = main(["expand", "--k", "2", "--m", "3", "--terms", "60", "--precision-cap", "64"])
        assert code == EXIT_PRECISION

    @pytest.mark.parametrize("to_file", [False, True])
    def test_precision_ceiling_while_writing_items(self, monkeypatch, capsys, tmp_path, to_file):
        # verify refines each item's enclosures as the item is written.  One
        # that needs more bits than the cap ends the run as a capped run
        # does: exit 3 and the precision message, no traceback.  No real
        # input was found that gets there, so each enclosure's first
        # attempt is made to fail, under a cap of the expansion's own bits.
        bits = expand(validate_spec(2, 3), 41).precision_bits
        refine = bvp.refine
        monkeypatch.setattr(bvp, "refine", lambda attempt, start, cap: refine(
            lambda b: None if b == start else attempt(b), start, cap))
        argv = ["verify", "--k", "2", "--m", "3", "--terms", "40", "--precision-cap", str(bits)]
        if to_file:
            argv += ["--out", str(tmp_path / "report.txt")]
        assert main(argv) == EXIT_PRECISION
        assert capsys.readouterr().err == (
            f"rootcf: precision refinement exceeded the {bits}-bit cap\n")

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        assert main(["expand", "--k", "2", "--m", "2", "--terms", "4",
                     "--format", "json", "--out", str(path)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        data = json.loads(path.read_text())
        assert data["results"][0]["partial_quotients"] == [1, 2, 2, 2, 2]

    def test_out_unwritable(self, tmp_path, capsys):
        path = tmp_path / "missing" / "report.json"
        assert main(["expand", "--k", "2", "--m", "3", "--terms", "3",
                     "--out", str(path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"rootcf: cannot write {path}")
        assert not path.exists()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("terms", ["3", "500"])
    def test_out_full_device(self, capsys, terms):
        # 500 terms of CSV run past one block, so the error comes mid-stream.
        assert main(["expand", "--k", "2", "--m", "3", "--terms", terms, "--format", "csv",
                     "--out", "/dev/full"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "rootcf: cannot write /dev/full: No space left on device\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("terms", ["3", "500"])
    def test_stdout_full_device(self, terms):
        # As `rootcf ... > /dev/full`: 3 terms fail at the final flush, 500
        # mid-stream.  One message, no traceback, and a quiet flush at exit.
        cmd = [sys.executable, "-m", "rootcf", "expand", "--k", "2", "--m", "3",
               "--terms", terms, "--format", "csv"]
        env = {**os.environ, "PYTHONPATH": SRC}
        with open("/dev/full", "w") as full:
            result = subprocess.run(cmd, stdout=full, stderr=subprocess.PIPE, text=True, env=env)
        assert (result.returncode, result.stderr) == (
            EXIT_USAGE, "rootcf: cannot write stdout: No space left on device\n"
        )

    @pytest.mark.parametrize(
        "module", ["concurrent.futures.process", "dataclasses", "inspect", "rootcf.digits"]
    )
    def test_import_leaves_out(self, module):
        # Every command pays for what rootcf.cli imports at start-up.  Only
        # `scan --workers N` with N > 1 needs multiprocessing, the records
        # are named tuples, so nothing needs dataclasses (which would also
        # bring in inspect, ast and tokenize), and only a report that
        # prints digits needs rootcf.digits.
        code = f"import sys, rootcf.cli; print({module!r} in sys.modules)"
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, check=True, text=True)
        assert result.stdout == "False\n"

    @pytest.mark.parametrize("argv,loaded", [
        ("--version", []),
        ("scan --m 3 --k-range 2..30 --terms 50 --format csv", []),
        ("verify --k 2 --m 3 --terms 20 --format json", ["json", "rootcf.digits"]),
        ("expand --k 2 --m 3 --terms 20 --format json", ["decimal", "json", "rootcf.digits"]),
    ], ids=["version", "scan-csv", "verify-json", "expand-json"])
    def test_command_loads_only_the_stdlib_modules_it_runs(self, argv, loaded):
        # fractions (which imports decimal), decimal and json are loaded
        # where they are used: the library's Fraction accessors, convergent
        # digits, and JSON or text reports.  So is rootcf.digits, by the
        # report functions that print digits.  Each run pays only for its own.
        code = (
            "import runpy, sys\n"
            f"sys.argv = ['rootcf', *{argv.split()!r}]\n"
            "try:\n"
            "    runpy.run_module('rootcf', run_name='__main__')\n"
            "except SystemExit as done:\n"
            "    status = done.code\n"
            "names = ('fractions', 'decimal', 'json', 'rootcf.digits')\n"
            "print(status, sorted(name for name in names if name in sys.modules), file=sys.stderr)\n"
        )
        env = {**os.environ, "PYTHONPATH": SRC}
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert result.stderr == f"0 {loaded!r}\n"

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_reader_closing_stdout_early(self, unbuffered):
        # As `rootcf ... | head -c 10`: the 3,000-term CSV is megabytes,
        # far past what the pipe holds, so writing hits a closed pipe.
        cmd = [sys.executable, "-m", "rootcf", "expand", "--k", "2", "--m", "3",
               "--terms", "3000", "--format", "csv"]
        env = {**os.environ, "PYTHONUNBUFFERED": unbuffered}
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        head = proc.stdout.read(10)
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert head == CSV_SCHEMA_LINE.encode()[:10]
        assert (proc.returncode, err) == (EXIT_USAGE, b"")

    def test_report_past_the_int_str_digit_limit(self):
        # q_1300 of cbrt(2) has 668 digits, past the 640-digit limit set
        # here; the report must still print every digit and exit 0.
        cmd = [sys.executable, "-m", "rootcf", "expand", "--k", "2", "--m", "3",
               "--terms", "1300", "--format", "csv"]
        env = {**os.environ, "PYTHONINTMAXSTRDIGITS": "640"}
        result = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert (result.returncode, result.stderr) == (EXIT_OK, "")
        last = result.stdout.splitlines()[-1].split(",")
        q = tuple(expand(validate_spec(2, 3), 1300).convergents())[-1].q
        assert len(str(q)) == 668
        assert (last[3], last[7]) == ("1300", str(q))

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_precision_ceiling_message_from_workers(self, capsys, workers):
        code = main(["scan", "--m", "3", "--k-range", "2..6", "--terms", "50",
                     "--precision-cap", "64", "--workers", workers])
        assert code == EXIT_PRECISION
        assert capsys.readouterr().err == "rootcf: precision refinement exceeded the 64-bit cap\n"

    def test_capped_scan_writes_finished_cells(self, capsys):
        # Three cells finish within 64 bits, seven hit the cap, k = 8 is a cube.
        argv = ["scan", "--m", "3", "--k-range", "2..12", "--terms", "18",
                "--precision-cap", "64", "--format", "json"]
        outputs = []
        for workers in ("1", "2"):
            assert main(argv + ["--workers", workers]) == EXIT_PRECISION
            captured = capsys.readouterr()
            assert captured.err == "rootcf: precision refinement exceeded the 64-bit cap\n"
            outputs.append(json.loads(captured.out))
        payload = outputs[0]
        # Only the config echo of --workers may differ between the two runs.
        assert [(o["results"], o["summary"]) for o in outputs] == [
            (payload["results"], payload["summary"])
        ] * 2
        result = payload["results"][0]
        assert [c["k"] for c in result["cells"]] == [2, 4, 7]
        reasons = {s["k"]: s["reason"] for s in result["skipped"]}
        assert sorted(reasons) == [3, 5, 6, 8, 9, 10, 11, 12]
        assert reasons.pop(8).startswith("k = 8 = 2**3")
        assert set(reasons.values()) == {"precision refinement exceeded the 64-bit cap"}
        assert payload["summary"]["cells"] == 3
        assert payload["summary"]["skipped_cells"] == 8

    def test_scan_violation_enclosures_agree_across_workers(self, capsys):
        # A serial scan prints each violation's enclosure from the kernel's
        # unreduced ends; from a pool it arrives pickled, its ends unchanged.
        argv = ["scan", "--m", "11", "--k-range", "170..180", "--terms", "10", "--format", "json"]
        outputs = []
        for workers in ("1", "2"):
            assert main(argv + ["--workers", workers]) == EXIT_OK
            outputs.append(json.loads(capsys.readouterr().out))
        assert outputs[0]["results"] == outputs[1]["results"]
        assert outputs[0]["summary"] == outputs[1]["summary"]
        violations = outputs[0]["results"][0]["violations"]
        assert violations and all("lo" in v["observed"] for v in violations)
        serial, pooled = (scan(range(170, 181), [11], 10, workers=w).violations for w in (1, 2))
        assert pooled == serial
        assert [v.observed.ends for v in pooled] == [v.observed.ends for v in serial]

    def test_capped_scan_out_file(self, tmp_path, capsys):
        path = tmp_path / "scan.csv"
        assert main(["scan", "--m", "3", "--k-range", "2..12", "--terms", "18",
                     "--precision-cap", "64", "--format", "csv", "--out", str(path)]) == EXIT_PRECISION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "rootcf: precision refinement exceeded the 64-bit cap\n"
        rows = path.read_text().splitlines()
        assert [r.split(",")[1] for r in rows if r.startswith("cell,")] == ["2", "4", "7"]

    def test_no_command_builds_a_fraction(self, monkeypatch, capsys):
        # Every exact rational a report prints, H_n, A_n and enclosure ends,
        # in rows and in failure texts, is printed from the kernel's integer
        # pairs.  The argv print a violation enclosure, an epsilon failure,
        # a below-side window failure, A_n <= 0 and scans; scan's cells all
        # run in this process (one worker), where the patch holds.
        argvs = [
            "verify --k 11 --m 7 --terms 12 --format text",
            "verify --k 50 --m 4 --terms 6 --format text",
            "verify --k-range 7..9 --m 3 --terms 3 --format json",
            "predict --k-range 2..30 --m-range 3..6 --terms 8 --format csv",
            "scan --m-range 2..7 --k-range 2..25 --terms 10 --format json",
            "scan --m 11 --k-range 170..180 --terms 10 --format text",
            "verify --k 2 --m 3 --terms 40 --format csv",
            "expand --k 2 --m 3 --terms 50 --format csv",
        ]

        def refuse(cls, *args, **kwargs):
            raise AssertionError(f"Fraction{args} built")

        def runs():
            return [(main(argv.split()), capsys.readouterr().out) for argv in argvs]

        with monkeypatch.context() as patch:
            patch.setattr(Fraction, "__new__", refuse)
            patched = runs()
        assert patched == runs()


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: (st.lists(children, max_size=4) | st.tuples(children, children)
                      | st.dictionaries(st.text() | st.integers() | st.booleans() | st.none(),
                                        children, max_size=4)),
    max_leaves=40,
)
# Row source lengths: none, one, and either side of a written piece (the
# first row, then ITEM_BATCH rows a piece) and of a checked convergent block.
ROW_LENGTHS = (
    0, 1, ITEM_BATCH, ITEM_BATCH + 1, ITEM_BATCH + 2,
    ROW_BATCH - 1, ROW_BATCH, ROW_BATCH + 1, 2 * ROW_BATCH + 1,
)
# Convergent-shaped rows, their keys drawn in the order the template writes them.
# The digit strings are bounded: unbounded ones make a failure slow to shrink.
ROW_KEYS = ("n", "b", "p", "q", "side")
digit_strings = st.integers(0, 10 ** 40).map(str)
row_items = st.tuples(
    st.integers(), st.integers(), digit_strings, digit_strings,
    st.sampled_from(["above", "below"]),
).map(lambda values: dict(zip(ROW_KEYS, values)))


def _with_row_sources(value, data):
    """(lazy, plain): value with some of its arrays, at any depth, made Rows.

    Each chosen array takes convergent-shaped rows, written by their
    template, as many as it had items or a drawn length from
    ROW_LENGTHS.  `plain` is what `lazy` stands for.
    """
    if isinstance(value, dict):
        pairs = {key: _with_row_sources(v, data) for key, v in value.items()}
        return {k: pair[0] for k, pair in pairs.items()}, {k: pair[1] for k, pair in pairs.items()}
    if not isinstance(value, (list, tuple)):
        return value, value
    if not data.draw(st.booleans()):
        pairs = [_with_row_sources(v, data) for v in value]
        return [pair[0] for pair in pairs], [pair[1] for pair in pairs]
    n = len(value) if data.draw(st.booleans()) else data.draw(st.sampled_from(ROW_LENGTHS))
    items = data.draw(st.lists(row_items, min_size=n, max_size=n))
    return Rows(items.__iter__), items


def _expand_result(data):
    """(lazy, plain): an `expand` payload, its convergents as templated Rows and as a list.

    The quotients are certified for a drawn valid (k, m) to N terms, or
    are N synthetic quotients past 450 digits.
    """
    n = data.draw(st.sampled_from(ROW_LENGTHS))
    if data.draw(st.booleans()):
        quotients = data.draw(st.lists(st.integers(10 ** 450, 10 ** 451), min_size=n, max_size=n))
        exp = Expansion(validate_spec(2, 3), quotients, 64)
    else:
        k, m = data.draw(st.integers(2, 200)), data.draw(st.integers(2, 12))
        exp = expand(spec_or_reject(k, m), n)
    lazy = certificate_payload(exp)
    return lazy, {**lazy, "convergents": list(lazy["convergents"])}


# verify's and predict's row sources, by command.
ITEM_ROWS = {"verify": "items", "predict": "predictions"}
# Their lengths: one, and either side of the first and of the second
# written piece (the first row, then ITEM_BATCH rows a piece).
ITEM_LENGTHS = (1, ITEM_BATCH - 1, ITEM_BATCH, ITEM_BATCH + 1, ITEM_BATCH + 2, 2 * ITEM_BATCH + 1)


def _item_result(data):
    """(lazy, plain): a `verify` or `predict` payload, its items as templated Rows and as a list.

    The radicand is a drawn valid (k, m), and the items number a drawn
    length from ITEM_LENGTHS.
    """
    command = data.draw(st.sampled_from(sorted(ITEM_ROWS)))
    k, m = data.draw(st.integers(2, 200)), data.draw(st.integers(2, 12))
    spec_or_reject(k, m)
    n = data.draw(st.sampled_from(ITEM_LENGTHS))
    terms = n if command == "verify" else n + 1  # predict has no row for its last term
    argv = [command, "--k", str(k), "--m", str(m), "--terms", str(terms)]
    lazy = run(parse_args(argv))["results"][0]
    key = ITEM_ROWS[command]
    plain = {**lazy, key: list(lazy[key])}
    assert len(plain[key]) == n
    return lazy, plain


def _nested(pair, data):
    """(lazy, plain), each put the same drawn number of levels deep among drawn siblings."""
    lazy, plain = pair
    for _ in range(data.draw(st.integers(0, 3))):
        siblings = data.draw(st.lists(st.integers() | st.text(max_size=3), max_size=2))
        at = data.draw(st.integers(0, len(siblings)))
        as_dict = data.draw(st.booleans())

        def place(value):
            items = [*siblings[:at], value, *siblings[at:]]
            return {f"s{i}": item for i, item in enumerate(items)} if as_dict else items

        lazy, plain = place(lazy), place(plain)
    return lazy, plain


@pytest.fixture(scope="module")
def expansion_500():
    """An expand report past one block in every format."""
    return run(parse_args(["expand", "--k", "2", "--m", "3", "--terms", "500"]))


@pytest.fixture(scope="module")
def expansion_2000():
    return run(parse_args(["expand", "--k", "2", "--m", "3", "--terms", "2000"]))


class TestEmit:
    def test_json_shape(self):
        report = run(parse_args(["scan", "--k-range", "8..8", "--m", "3", "--terms", "2",
                                 "--format", "json"]))
        payload = json.loads(emit(report, "json"))
        assert list(payload.keys()) == ["tool", "config", "results", "summary"]
        assert payload["results"][0]["violations"] == []
        assert payload["summary"]["violations"] == 0
        assert payload["summary"]["cells"] == 0

    def test_csv_golden_row(self):
        report = run(parse_args(["verify", "--k", "50", "--m", "10", "--terms", "1"]))
        text = emit(report, "csv")
        lines = text.splitlines()
        assert lines[0] == CSV_SCHEMA_LINE
        assert lines[1] == ",".join(CSV_COLUMNS)
        violation_rows = [l for l in lines if l.startswith("violation")]
        assert len(violation_rows) == 1
        assert ",50,10,1," in violation_rows[0]
        assert ",7849," in violation_rows[0]

    def test_unknown_format(self, expansion_500):
        with pytest.raises(ValueError):
            emit({"config": {"command": "expand"}}, "yaml")
        out = RecordingStream()
        with pytest.raises(ValueError):
            emit(expansion_500, "yaml", out)
        assert out.writes == []

    @given(value=json_values)
    def test_json_matches_json_dumps(self, value):
        assert emit(value, "json") == json.dumps(value, indent=2) + "\n"

    @given(value=json_values, data=st.data())
    def test_json_splices_row_sources(self, value, data):
        lazy, plain = _with_row_sources(value, data)
        assert emit(lazy, "json") == json.dumps(plain, indent=2) + "\n"
        assert emit(lazy, "json") == emit(plain, "json")  # Rows can be emitted again

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_json_writes_templated_rows(self, data):
        # One to three expand, verify or predict results, each at a drawn depth in `results`.
        results = st.sampled_from([_expand_result, _item_result])
        pairs = [_nested(data.draw(results)(data), data) for _ in range(data.draw(st.integers(1, 3)))]
        config, summary = {"command": "expand"}, {"specs": len(pairs)}
        lazy = build_report("0", config, [pair[0] for pair in pairs], summary)
        plain = build_report("0", config, [pair[1] for pair in pairs], summary)
        assert emit(lazy, "json") == json.dumps(plain, indent=2) + "\n"
        assert emit(lazy, "json") == emit(plain, "json")

    @pytest.mark.parametrize("command", sorted(ITEM_ROWS))
    def test_an_indexed_item_is_the_one_written(self, command):
        # Indexing holds the items, so a change made through an index is printed.
        argv = [command, "--k", "2", "--m", "3", "--terms", str(2 * ITEM_BATCH + 2)]
        report, key, at = run(parse_args(argv)), ITEM_ROWS[command], ITEM_BATCH + 1
        expected = json.loads(emit(report, "json"))
        report["results"][0][key][at]["n"] = -7
        expected["results"][0][key][at]["n"] = -7
        assert emit(report, "json") == json.dumps(expected, indent=2) + "\n"
        assert ",2,3,-7," in emit(report, "csv")
        assert "\n  n=-7  " in emit(report, "text")

    def test_a_string_like_the_stand_in_is_a_string(self):
        # An array with rows is first encoded as [""]; a report's own "" stays "".
        rows = [dict(zip(ROW_KEYS, (n, n, "1", "2", "below"))) for n in range(3)]
        lazy = {"a": "", "b": Rows(rows.__iter__), "c": [""], "": Rows(lambda: iter(()))}
        plain = {"a": "", "b": rows, "c": [""], "": []}
        assert emit(lazy, "json") == json.dumps(plain, indent=2) + "\n"

    @pytest.mark.parametrize("value", [1.5, [1], {"flag": True}])
    def test_a_row_no_template_can_write_is_refused(self, value):
        # A float prints by float.__repr__, a list by the encoder, and a nested flag has no slot.
        with pytest.raises(TypeError):
            emit({"rows": Rows(lambda: iter([{"n": 1, "x": value}]))}, "json")

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_streams_in_blocks(self, expansion_500, fmt):
        whole = emit(expansion_500, fmt)
        assert len(whole) > BLOCK_CHARS
        out = RecordingStream()
        assert emit(expansion_500, fmt, out) is None
        assert "".join(out.writes) == whole
        assert len(out.writes) > 1
        largest_piece = max(map(len, _EMITTERS[fmt](expansion_500)))
        assert max(map(len, out.writes)) <= BLOCK_CHARS + largest_piece

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_streaming_stays_small(self, expansion_2000, fmt):
        # The whole report as one string allocates 4.4 to 4.8 MB here.
        with open(os.devnull, "w") as sink:
            tracemalloc.start()
            try:
                emit(expansion_2000, fmt, sink)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_expand_end_to_end_stays_small(self, fmt):
        # The whole run, certification included: 3.7 to 3.8 MiB when the
        # expansion and every row were built before the first write.
        argv = ["expand", "--k", "2", "--m", "3", "--terms", "2000", "--format", fmt]
        with open(os.devnull, "w") as sink:
            tracemalloc.start()
            try:
                emit(run(parse_args(argv)), fmt, sink)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_verify_end_to_end_stays_small(self, fmt):
        # The whole run, verdicts included: 2.10 to 2.26 MiB when every item
        # was built before the first write, 0.96 to 1.21 MiB when each
        # index's record, enclosures included, was held until then, and
        # 0.43 to 0.69 MiB with each record made as its item is written.
        argv = ["verify", "--k", "2", "--m", "3", "--terms", "200", "--format", fmt]
        with open(os.devnull, "w") as sink:
            tracemalloc.start()
            try:
                emit(run(parse_args(argv)), fmt, sink)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 1.0 * (1 << 20)

    def test_verify_builds_enclosures_as_it_writes(self, monkeypatch):
        # run decides every verdict and builds no display enclosure; each
        # emit builds every index's theta_n and R_n once, as it writes them.
        analyze, made = bvp._analyze_term, []

        def spy(spec, step, *args):
            made.append(step[1].n)
            return analyze(spec, step, *args)

        monkeypatch.setattr(bvp, "_analyze_term", spy)
        report = run(parse_args(["verify", "--k", "2", "--m", "3", "--terms", "40"]))
        assert made == []
        first = emit(report, "json")
        assert made == list(range(1, 41))
        assert emit(report, "json") == first
        assert made == list(range(1, 41)) * 2

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_predict_end_to_end_stays_small(self, fmt):
        # The whole run, predictions included: 2.27 to 2.47 MiB when every
        # convergent's digits were made before the first write, 1.69 to
        # 1.95 MiB with the digits made block by block as they are written.
        argv = ["predict", "--k", "2", "--m", "3", "--terms", "1000", "--format", fmt]
        with open(os.devnull, "w") as sink:
            tracemalloc.start()
            try:
                emit(run(parse_args(argv)), fmt, sink)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 2.1 * (1 << 20)

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_repeat_runs_byte_identical(self, fmt):
        argv = ["verify", "--k-range", "2..5", "--m", "3", "--terms", "6", "--format", fmt]
        first = emit(run(parse_args(argv)), fmt)
        second = emit(run(parse_args(argv)), fmt)
        assert first == second

    def test_subprocess_byte_identical(self):
        cmd = [sys.executable, "-m", "rootcf", "verify", "--k", "50", "--m", "10",
               "--terms", "2", "--format", "json"]
        first = subprocess.run(cmd, capture_output=True, check=True)
        second = subprocess.run(cmd, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert first.stdout


class TestRendering:
    def test_decimal_string_truncates(self):
        assert decimal_string(196830, 15698, 4) == "12.5385"
        assert decimal_string(-1, 3, 6) == "-0.333333"
        assert decimal_string(5, 1, 0) == "5"

    def test_sci_string(self):
        assert sci_string(0, 1) == "0"
        assert sci_string(1, 1024) == "9.7e-04"
        assert sci_string(12345, 10) == "1.2e+03"
        assert sci_string(-1, 2) == "-5.0e-01"

    def test_justified_places(self):
        assert justified_places(1, 1000) == 3
        assert justified_places(46, 10 ** 7) == 5
        assert justified_places(2, 1) == 0
        assert justified_places(0, 1) == 40

    def test_no_uncertified_digits(self):
        # A wide enclosure must print few digits: width 0.25 justifies none.
        from rootcf.digits import enclosure_json
        from rootcf.exact import RationalInterval

        entry = enclosure_json(RationalInterval(Fraction(1), Fraction(5, 4)))
        assert entry["decimal"] == "1"
        assert entry["width"] == "2.5e-01"
