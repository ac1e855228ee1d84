"""The three-stage approximation tower for nu_2(S(n,5))."""

import csv
import math
from itertools import count, takewhile
from pathlib import Path

import pytest

from stirval import (
    approx_report,
    aux_indicators,
    err1,
    f1,
    f2,
    f3,
    i1_elements,
    in_I1,
    in_I2,
    lambda_p,
    nu_int,
    x1,
    x2,
)

GOLDEN = Path(__file__).parent / "fixtures" / "approx_golden.csv"


def test_golden_table():
    # 20 frozen values per function, generated once by an independent
    # implementation of the same formulas
    with GOLDEN.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 20
    for row in rows:
        m = int(row["m"])
        assert f1(m) == int(row["f1"]), f"f1({m})"
        assert f2(m) == int(row["f2"]), f"f2({m})"
        assert f3(m) == int(row["f3"]), f"f3({m})"
        assert x1(m) == int(row["x1"]), f"x1({m})"
        assert x2(m) == int(row["x2"]), f"x2({m})"


class TestIndicators:
    def test_lambda(self):
        assert lambda_p(2, 7) == 1
        assert lambda_p(2, 4) == 0
        assert lambda_p(3, 4) == 1
        assert lambda_p(3, 5) == 0

    def test_aux_examples(self):
        assert aux_indicators(1) == (0, 0, 1)
        assert aux_indicators(0) == (2, 0, 0)
        m3, alpha, _ = aux_indicators(4)
        assert (m3, alpha) == (0, 1)


class TestPredictors:
    def test_f1_values(self):
        assert f1(28) == 64
        assert f1(31) == 128
        assert f1(156) == 128

    def test_f2_f3_values(self):
        assert f2(0) == 208
        assert f3(0) == 0
        assert f3(1) == 86
        assert f3(4) == 95

    def test_x_values(self):
        assert [x1(m) for m in range(5)] == [156, 287, 412, 668, 799]
        assert x2(0) == 109
        assert x2(1) == 408

    def test_f3_vanishes_only_at_zero(self):
        # stage 3 reads f3 at x2(m) >= 109, so its valuation is always finite
        assert all(f3(m) >= 4 for m in range(1, 10**5 + 1))

    def test_domain(self):
        for fn in (f1, f2, f3, x1, x2):
            with pytest.raises(ValueError):
                fn(-1)

    def test_x_strictly_increasing(self):
        for fn in (x1, x2):
            prev = fn(0)
            for m in range(1, 10**4 + 1):
                cur = fn(m)
                assert cur > prev
                prev = cur


class TestExceptionSets:
    def test_membership(self):
        assert in_I1(156) and in_I1(287)
        assert not in_I1(157)
        assert in_I2(109) and in_I2(408)
        assert not in_I2(110)

    def test_i1_elements(self):
        assert i1_elements(800) == [156, 287, 412, 668, 799]

    def test_periods(self):
        assert all(x1(m + 3) - x1(m) == 512 for m in range(10**4 + 1))
        assert all(x2(m + 3) - x2(m) == 768 for m in range(10**4 + 1))

    def test_residue_tests_match_the_walked_sets(self):
        bound = 2 * 10**5
        walks = {x: list(takewhile(lambda v: v <= bound, map(x, count()))) for x in (x1, x2)}
        assert [n for n in range(bound + 1) if in_I1(n)] == walks[x1] == i1_elements(bound)
        assert [n for n in range(bound + 1) if in_I2(n)] == walks[x2]

    def test_membership_far_out(self):
        # a walk to n would take minutes here
        assert in_I1(x1(3 * 10**9))
        assert not in_I1(10**12)

    def test_parity_structure(self):
        # every third element (positions m == 1 mod 3) is odd; the even
        # elements all lie on the progression 256t + 156
        for m in range(1001):
            v = x1(m)
            if m % 3 == 1:
                assert v % 2 == 1
            else:
                assert v % 2 == 0
                assert v % 256 == 156


class TestTower:
    def test_err1_at_first_exception(self):
        assert err1(156) == 4

    def test_err1_domain(self):
        with pytest.raises(ValueError):
            err1(4)

    def test_report(self):
        report = approx_report(600)
        assert report.status == "CONSISTENT"
        stage1 = report.details["stage1"]
        assert stage1["disagreements"] == [156, 287, 412]
        assert stage1["disagreements"] == stage1["expected_I1"]
        stage2 = report.details["stage2"]
        assert [e["x1"] for e in stage2] == [156, 287, 412]
        assert all(e["err1"] == e["predicted"] for e in stage2)
        stage3 = report.details["stage3"]
        assert stage3["total"] == len(stage3["census"]) > 0
        for entry in stage3["census"]:
            assert entry["agrees"] == (entry["err2"] == entry["predicted"])

    def test_stage2_refuted_at_m_301(self):
        report = approx_report(52000)
        assert report.status == "COUNTEREXAMPLE"
        assert report.counterexamples == [
            {"stage": 2, "m": 301, "x1": 51487, "err1": 6, "predicted": 7, "m_in_I2": False}
        ]
        # err1 again from the exact sum 5! S(n, 5) = sum (-1)^(5-b) C(5,b) b^n, not the engine
        n = 51487
        total = sum((-1) ** (5 - b) * math.comb(5, b) * b**n for b in range(1, 6))
        v = nu_int(2, total) - nu_int(2, math.factorial(5))
        assert (v, nu_int(2, f1(n))) == (14, 8)
        assert v - nu_int(2, f1(n)) == 6

    def test_report_rejects_small_bound(self):
        with pytest.raises(ValueError):
            approx_report(100)
