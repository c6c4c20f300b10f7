"""Residual reductions: a NaN anywhere makes the check fail."""

import math

import numpy as np

from jetham.charts import identity_change
from jetham.expr import Point
from jetham.report import CheckRecord, Report, worst_residual
from jetham.spray import _verify_semispray_law


def test_worst_residual_is_the_largest():
    assert worst_residual([]) == 0.0
    assert worst_residual([1e-12, 3e-10, 2e-11]) == 3e-10


def test_worst_residual_propagates_nan():
    # max(0.0, nan) is 0.0; the reduction must not drop the NaN
    assert math.isnan(worst_residual([1e-12, math.nan, 1.0]))
    assert math.isnan(worst_residual([math.nan]))


def test_nan_residual_yields_a_failing_record():
    q = Point.make(1.0, [1.0, 1.5], [0.5, -0.5])

    def zeros(*_):
        return np.zeros((2, 2))

    def nans(_):
        return np.full((2, 2), math.nan)

    report = _verify_semispray_law(nans, zeros, zeros, identity_change(2), [q], 1e-9, "law")
    (record,) = report.records
    assert math.isnan(record.residual)
    assert not record.passed
    assert not report.passed


def test_report_maxima_propagate_nan():
    report = Report.of(
        [
            CheckRecord("a", "", (0.0,), 1e-12, True),
            CheckRecord("b", "", (0.0,), math.nan, False),
            CheckRecord("b", "", (1.0,), 1e-13, True),
        ]
    )
    assert math.isnan(report.max_residual)
    by_family = report.max_residual_by_family()
    assert by_family["a"] == 1e-12
    assert math.isnan(by_family["b"])
