import os
import sys
from fractions import Fraction

import pytest
from hypothesis import reject

sys.path.insert(0, os.path.dirname(__file__))

from rootcf.bvp import leading_terms, verify_theorems
from rootcf.exact import PerfectPowerError, validate_spec


def spec_or_reject(k, m):
    """validate_spec(k, m); a perfect power rejects the Hypothesis example."""
    try:
        return validate_spec(k, m)
    except PerfectPowerError:
        reject()


def within(iv, target, tol) -> bool:
    """Both ends of the enclosure iv lie within tol of target."""
    t, eps = Fraction(target), Fraction(tol)
    return abs(iv.lo - t) <= eps and abs(iv.hi - t) <= eps


class RecordingStream:
    """A text stream that keeps each write, to see what reached the output and when."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)


def leading_fractions(spec, conv, prev):
    """(d_n, H_n, A_n) from leading_terms' integers, the two rationals reduced."""
    d, hn, hd, an = leading_terms(spec, conv, prev)
    return d, Fraction(hn, hd), Fraction(an, hd)


SWEEP_K_MAX = 200
SWEEP_N_MAX = 50


@pytest.fixture(scope="session")
def cubic_sweep():
    """verify_theorems over every non-cube k in [2, 200] at N = 50.

    Shared by the acceptance criteria that all quantify over this sweep.
    """
    reports = {}
    for k in range(2, SWEEP_K_MAX + 1):
        try:
            spec = validate_spec(k, 3)
        except PerfectPowerError:
            continue
        reports[k] = verify_theorems(spec, SWEEP_N_MAX, keep_terms=True)
    return reports
