"""Residual reductions: a NaN anywhere makes the check fail.  The JSON
writer: the bytes json.dumps writes."""

import json
import math

import numpy as np
import pytest

from helpers import identity_change, reference_report_json
from jetham.charts import transition
from jetham.expr import Components, Point, const
from jetham.report import (
    CheckRecord,
    Report,
    check_points,
    report_to_json,
    residual,
    stack,
    worst_residual,
    worst_residuals,
)
from jetham.spray import _verify_semispray_law


def test_worst_residual_is_the_largest():
    assert worst_residual([]) == 0.0
    assert worst_residual([1e-12, 3e-10, 2e-11]) == 3e-10


def test_worst_residual_propagates_nan():
    # max(0.0, nan) is 0.0; the reduction must not drop the NaN
    assert math.isnan(worst_residual([1e-12, math.nan, 1.0]))
    assert math.isnan(worst_residual([math.nan]))


def test_worst_residuals_compare_element_by_element_per_point():
    got = np.array([[[1.0, 2.0], [3.0, 4.0]], [[1.0, 2.0], [3.0, 4.0]]])
    want = np.array([[[1.0, 2.0 + 4e-16], [3.0, 4.4]], [[1e-7, 2.0], [3.0, 4.0]]])
    assert worst_residuals(got, want).tolist() == [residual(4.0, 4.4), residual(1.0, 1e-7)]
    # below ABS_FLOOR the residual is absolute
    assert worst_residuals(np.array([[1e-8]]), np.array([[0.0]])).tolist() == [1e-8]
    # inf against inf is NaN, and NaN wins over a larger finite residual
    inf = np.array([[math.inf, 1.0], [1.0, 1.0]])
    with np.errstate(invalid="ignore"):
        worst = worst_residuals(inf, np.array([[math.inf, 9.0], [1.0, 1.0]]))
    assert math.isnan(worst[0]) and worst[1] == 0.0
    with pytest.raises(ValueError, match="shapes"):
        worst_residuals(got, want[:1])


def test_stack_puts_points_first_field_by_field():
    c = identity_change(2)
    points = [Point.make(t, [1.0, 1.5], [0.5, -0.5]) for t in (1.0, 2.0, 3.0)]
    td = stack([transition(c, q) for q in points])
    assert td.dt_tilde_dt.tolist() == [1.0, 1.0, 1.0]
    assert td.jac.shape == td.dp_tilde_dx.shape == (3, 2, 2)
    assert td.dp_tilde_dt.shape == (3, 2)
    assert stack([q.p for q in points]).tolist() == [[0.5, -0.5]] * 3


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
    report = check_points(
        points, 0.5, ("a", "b"),
        lambda points: (np.array([q.t / 3 for q in points]), np.full(len(points), math.nan)),
        lambda a, b: (a, b),
    )
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


# -- the writer ------------------------------------------------------------------

def _record(chart="c0", point=(1.0, 0.5, -0.25), value=1e-13, check_id="a"):
    return CheckRecord(check_id, chart, point, value, value <= 1e-9)


@pytest.mark.parametrize(
    "records",
    [
        [],
        [_record(value=math.nan), _record(value=math.inf), _record(value=-math.inf)],
        [_record(chart='quote " and back\\slash'), _record(chart="Zeitachse \u00e4 \u2192 \U0001d70f")],
        [_record(check_id="\u00fcber", chart="\t\n"), _record(check_id="a")],
        [_record(point=(-0.0, 5e-324, 1e16)), _record(point=(0.0, -1e16, 1.7976931348623157e308))],
        [_record(point=(0.1, 2.5e-7, 123456789.0)), _record(value=0.0), _record(value=2.0)],
        # equal as tuples, yet each is written with its own sign
        [_record(point=(-0.0, 1.0, 2.0)), _record(point=(0.0, 1.0, 2.0))],
    ],
    ids=["empty", "non_finite", "chart_escapes", "check_id_escapes", "edge_coordinates",
         "mixed", "signed_zero_twins"],
)
def test_writer_matches_json_dumps(records):
    report = Report.of(records)
    assert report_to_json(report) == reference_report_json(report)


def test_writer_rejects_a_non_finite_point():
    # json.dumps with allow_nan=False refuses it too: JSON has no such number
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            report_to_json(Report.of([_record(point=(1.0, bad, 0.0))]))
