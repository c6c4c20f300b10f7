"""Residual reductions: a NaN anywhere makes the check fail.  The JSON
writer: the bytes json.dumps writes.  Reports as blocks: the records they
stand for, built only when read."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import identity_change, reference_report_json
from jetham.charts import transition
from jetham.expr import Components, Point, const, tvar
from jetham.report import (
    CheckBlock,
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
        lambda t: (t[:, 0] / 3, np.full(len(t), math.nan)),
        reads=(Components(1, [tvar()]),),
    )
    assert [(r.check_id, r.point, r.passed) for r in report.records] == [
        ("a", (1.0, 0.0, 0.0), True),
        ("b", (1.0, 0.0, 0.0), False),
        ("a", (2.0, 0.0, 0.0), False),
        ("b", (2.0, 0.0, 0.0), False),
    ]
    assert [r.residual for r in report.records][::2] == [1.0 / 3, 2.0 / 3]
    assert all(math.isnan(r.residual) for r in report.records[1::2])


def test_check_points_reads_at_the_points_and_at_the_images_the_visits_return():
    points = [Point.make(t, [0.0], [0.0]) for t in (1.0, 2.0)]
    t = Components(1, [tvar()])

    def law(shift, at_points, at_images):
        assert shift.tolist() == [10.0, 10.0] and at_points[:, 0].tolist() == [1.0, 2.0]
        return (at_images[:, 0] - at_points[:, 0] - shift,)

    report = check_points(
        points, 0.0, ("a",), law, reads=(t,), image_reads=(t,),
        visit=lambda q: (Point.make(q.t + 10, q.x, q.p), 10.0),
    )
    assert [(r.point, r.residual) for r in report.records] == [
        ((1.0, 0.0, 0.0), 0.0), ((2.0, 0.0, 0.0), 0.0)
    ]


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


# -- reports as blocks -------------------------------------------------------------

_NAMES = st.one_of(
    st.text(max_size=6),
    st.sampled_from(['quote " and back\\slash', "\t\n", "\u00fcber", "\U0001d70f", ""]),
)
_COORDINATES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16,
                     -1.7976931348623157e308]),
)
_RESIDUALS = st.one_of(
    st.floats(0.0, 2e-9),
    st.floats(),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e300]),
)
TOL = 1e-9


@st.composite
def _blocks(draw):
    """Blocks whose points are drawn from one pool of tuples, so blocks (and
    points of one block) share a tuple, as a verdict's blocks do."""
    pool = draw(st.lists(st.lists(_COORDINATES, min_size=1, max_size=3).map(tuple),
                         min_size=1, max_size=3))
    blocks = []
    for _ in range(draw(st.integers(0, 4))):
        check_ids = tuple(draw(st.lists(_NAMES, max_size=3)))
        points = tuple(draw(st.lists(st.sampled_from(pool), max_size=4)))
        values = draw(st.lists(_RESIDUALS, min_size=len(points) * len(check_ids),
                               max_size=len(points) * len(check_ids)))
        residuals = np.array(values, dtype=float).reshape(len(points), len(check_ids))
        blocks.append(CheckBlock(check_ids, draw(_NAMES), points, residuals, residuals <= TOL))
    return blocks


def _key(r: CheckRecord):
    # repr tells NaN from NaN-free values and -0.0 from 0.0
    return r.check_id, r.chart, repr(r.point), repr(r.residual), r.passed


@settings(max_examples=150, deadline=None)
@given(_blocks())
def test_blocks_stand_for_their_records(blocks):
    report = Report(tuple(blocks))
    # the records, point-major within each block, from the arrays by hand
    want = [
        CheckRecord(c, b.chart, q, float(r), bool(r <= TOL))
        for b in blocks
        for q, row in zip(b.points, b.residuals)
        for c, r in zip(b.check_ids, row)
    ]
    assert len(report.records) == len(want)
    assert list(map(_key, report.records)) == list(map(_key, want))
    assert [_key(report.records[k]) for k in range(-len(want), 0)] == list(map(_key, want))
    assert all(got.point is r.point for got, r in zip(report.records, want))
    assert list(map(_key, report.failures())) == [_key(r) for r in want if not r.passed]
    assert report.passed is all(r.passed for r in want)
    families = {}
    for r in want:
        families.setdefault(r.check_id, []).append(r.residual)
    by_family = report.max_residual_by_family()
    assert list(by_family) == list(families)
    assert list(map(repr, by_family.values())) == [
        repr(worst_residual(v)) for v in families.values()
    ]
    assert repr(report.max_residual) == repr(worst_residual(r.residual for r in want))
    text = report_to_json(report)
    assert text == reference_report_json(report)
    assert report_to_json(Report.of(report.records)) == text
    assert report_to_json(Report.of(want)) == text


def test_check_points_rejects_residuals_of_the_wrong_shape():
    points = [Point.make(t, [0.0], [0.0]) for t in (1.0, 2.0)]
    with pytest.raises(ValueError, match="shape"):
        check_points(points, 0.5, ("a", "b"), lambda t: (t[:, 0],), reads=(Components(1, [tvar()]),))
