"""The record types: immutable values that survive a pickle round trip.

`scan --workers N` pickles each cell's CellSummary or SkippedCell and
its ViolationRecords between processes; every record here must survive
the trip all the same.  Construction-time validation is tested next to
each type, in test_exact.py and test_cli.py; here `_replace` must
validate the same way.
"""
import pickle

import pytest

from rootcf.bvp import scan, verify_theorems
from rootcf.cli import UsageError, parse_args
from rootcf.engine import expand
from rootcf.exact import PerfectPowerError, validate_spec

RECORDS = [
    "RadicandSpec", "RationalInterval",
    "Convergent", "Expansion",
    "PredictionOutcome", "ViolationRecord", "ClaimStats", "TermCheck",
    "TheoremReport", "CellSummary", "SkippedCell", "ScanReport",
    "RunConfig",
]


@pytest.fixture(scope="module")
def records():
    spec = validate_spec(50, 10)
    exp = expand(spec, 3)
    report = verify_theorems(spec, 2, keep_terms=True)
    # 49 = 7**2 is skipped at m = 10; 50 keeps its n = 1 violation.
    grid = scan(range(49, 51), [10], 1)
    found = [
        spec, report.terms[0].theta, exp.terms[1], exp,
        report.terms[0].prediction, report.violations[0], report.below_window,
        report.terms[0], report, grid.cells[0], grid.skipped[0], grid,
        parse_args(["scan", "--m", "3", "--k-range", "2..20", "--workers", "2"]),
    ]
    return {type(r).__name__: r for r in found}


@pytest.mark.parametrize("name", RECORDS)
def test_immutable_and_picklable(records, name):
    record = records[name]
    field = "lo" if name == "RationalInterval" else type(record)._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    assert not hasattr(record, "__dict__")
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record)
    assert copy == record


def test_replace_validates(records):
    spec, config = records["RadicandSpec"], records["RunConfig"]
    assert spec._replace(k=51) == validate_spec(51, 10)
    with pytest.raises(PerfectPowerError):
        spec._replace(k=1024)
    assert config._replace(workers=1).workers == 1
    with pytest.raises(UsageError, match="workers must be >= 1"):
        config._replace(workers=0)
