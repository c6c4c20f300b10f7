"""Residual reductions: a NaN anywhere makes the check fail."""

import json
import math

import numpy as np

from jetham.charts import identity_change
from jetham.expr import Components, Point, const
from jetham.report import CheckRecord, Report, check_points, report_to_json, worst_residual
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

    # finite components whose doubled values overflow on both sides of the
    # law: the residual of inf against inf is NaN
    G = Components(2, [[const(1e308)] * 2] * 2)
    report = _verify_semispray_law(G, G, zeros, identity_change(2), [q], 1e-9, "law")
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


def test_check_points_records_each_check_at_each_point_in_order():
    points = [Point.make(t, [0.0], [0.0]) for t in (1.0, 2.0)]
    report = check_points(points, 0.5, ("a", "b"), lambda q: (q.t / 3, math.nan))
    assert [(r.check_id, r.point, r.passed) for r in report.records] == [
        ("a", (1.0, 0.0, 0.0), True),
        ("b", (1.0, 0.0, 0.0), False),
        ("a", (2.0, 0.0, 0.0), False),
        ("b", (2.0, 0.0, 0.0), False),
    ]
    assert [r.residual for r in report.records][::2] == [1.0 / 3, 2.0 / 3]
    assert all(math.isnan(r.residual) for r in report.records[1::2])


def test_json_writes_null_for_non_finite_residuals():
    report = Report.of(
        [
            CheckRecord("a", "", (0.0,), math.inf, False),
            CheckRecord("b", "", (0.0,), math.nan, False),
            CheckRecord("b", "", (1.0,), 1e-13, True),
        ]
    )
    payload = json.loads(report_to_json(report), parse_constant=_reject)
    assert [r["residual"] for r in payload["records"]] == [None, None, 1e-13]
    assert payload["summary"]["max_residual"] == {"a": None, "b": None}


def _reject(token):
    raise ValueError(f"invalid JSON constant {token}")
