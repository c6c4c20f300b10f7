"""Every law runs once over a stack of points.  Each residual it reports is
the float the law gave one point at a time (``helpers.reference_*``): equal
under ==, or both NaN."""

from __future__ import annotations

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    charts_for,
    identity_change,
    metric_pair,
    reference_blocks,
    reference_canonical_consistency,
    reference_connection,
    reference_dtensor,
    reference_duality,
    reference_law,
    reference_report_json,
    reference_semispray,
    reference_spatial_inhomogeneous,
    reference_temporal_inhomogeneous,
    sampled_points,
)
from jetham import cli
from jetham.charts import CoordChange
from jetham.dtensor import DTensor, IndexKind, verify_dtensor
from jetham.errors import JethamError
from jetham.expr import Point, const, parse, tvar
from jetham.frames import _verify_blocks
from jetham.nlconn import verify_connection_law
from jetham.problem import ChartSpec, Problem, load_problem
from jetham.report import report_to_json
from jetham.spray import verify_spatial_law, verify_temporal_law

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
ALL_SUITES = ("dtensor", "spray", "connection", "frames")


def _same(got: list[float], want: list[float]) -> bool:
    return len(got) == len(want) and all(
        a == b or (math.isnan(a) and math.isnan(b)) for a, b in zip(got, want)
    )


def _corrupted(N):
    """The connection with 1 added to its first temporal component, as
    ``verify --corrupt-connection`` builds it."""
    return replace(N, temporal=(N.temporal[0] + 1, *N.temporal[1:]))


def _law_pairs(problem: Problem):
    """(stacked report, reference residuals) for every law a verdict runs,
    plus the connection laws on a corrupted connection."""
    points, tol = problem.points, problem.tolerance
    charts = cli._charts(problem, ALL_SUITES)
    origin = charts[""]
    yield (
        cli._canonical_consistency(problem, origin),
        reference_law(
            reference_canonical_consistency, points, origin.connection, origin.spray_connection
        ),
    )
    yield cli._duality(problem, origin), reference_law(reference_duality, points, origin.connection)
    for spec in problem.charts:
        new, c = charts[spec.name], spec.change
        for name in cli._DTENSORS:
            old_T, new_T = getattr(origin, name), getattr(new, name)
            yield (
                verify_dtensor(old_T, new_T, c, points, tol),
                reference_law(reference_dtensor, points, old_T, new_T, c),
            )
        for law, part, inhom in (
            (verify_temporal_law, "temporal", reference_temporal_inhomogeneous),
            (verify_spatial_law, "spatial", reference_spatial_inhomogeneous),
        ):
            old_G, new_G = getattr(origin, part), getattr(new, part)
            yield (
                law(old_G, new_G, c, points, tol),
                reference_law(reference_semispray, points, old_G, new_G, inhom, c),
            )
        for N_new in (new.connection, _corrupted(new.connection)):
            N_old = origin.connection
            yield (
                verify_connection_law(N_old, N_new, c, points, tol),
                reference_law(reference_connection, points, N_old, N_new, c),
            )
            yield (
                _verify_blocks(N_old, N_new, c, points, tol),
                reference_law(reference_blocks, points, N_old, N_new, c),
            )


def _assert_laws_match(problem: Problem):
    for report, want in _law_pairs(problem):
        got = [r.residual for r in report.records]
        assert _same(got, want), (report.records[0].check_id, got, want)
        assert [r.passed for r in report.records] == [w <= problem.tolerance for w in want]


def _box_points(n: int, count: int) -> tuple:
    # t, x in [0.5, 2] and p in [-3, 3], the box the pinned problems sample
    return tuple(sampled_points(n, count, seed=1009 + n))


@pytest.mark.parametrize("count", [1, 2, 40])
@pytest.mark.parametrize("name", ["example", "full_n4", "hamiltonian_n2"])
def test_pinned_problems(name, count):
    problem = load_problem(PROBLEMS / f"{name}.json")
    problem = replace(problem, points=_box_points(problem.n, count))
    _assert_laws_match(problem)
    # the whole verdict, failing records included, in json.dumps's bytes
    report = cli.cmd_verify(problem, corrupt_connection=True)
    assert report_to_json(report) == reference_report_json(report)


@pytest.mark.parametrize("count", [1, 2, 40])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_chart_suites(n, count):
    h, g = metric_pair(n)
    charts = tuple(ChartSpec(name, c) for name, c in charts_for(n).items())
    problem = Problem(n, h, g, None, charts, _box_points(n, count), 1e-9)
    _assert_laws_match(problem)


def test_an_overflowing_law_fails_its_record_and_writes_null():
    # 1e308 against -1e308 differs by more than a double holds: inf; the
    # affine change triples 1e308 into inf, and inf against 1e308 is NaN
    def constant(value):
        return DTensor(1, np.array([const(value)], dtype=object), (IndexKind.SPACE_UP,))

    points = _box_points(1, 2)
    for c, new, kind in (
        (identity_change(1), constant(-1e308), math.isinf),
        (charts_for(1)["affine"], constant(1e308), math.isnan),
    ):
        old = constant(1e308)
        report = verify_dtensor(old, new, c, points)
        got = [r.residual for r in report.records]
        assert _same(got, reference_law(reference_dtensor, points, old, new, c))
        assert all(map(kind, got)) and not any(r.passed for r in report.records)
        payload = json.loads(report_to_json(report))
        assert [r["residual"] for r in payload["records"]] == [None, None]
        assert payload["summary"] == {"max_residual": {"dtensor": None}, "pass": False}


def _space_vector(text: str) -> DTensor:
    return DTensor(1, np.array([parse(text, 1)], dtype=object), (IndexKind.SPACE_UP,))


@pytest.mark.parametrize(
    "change, old, new, xs, error",
    [
        # the new values fail at the image of point 0, the old ones at point 1
        (identity_change(1), "1 / (x1 - 2)", "log(x1 - 1.5)", (1.0, 2.0), "log of a non-positive"),
        # the old values fail at point 0, the change is singular at point 1
        (
            CoordChange(1, tvar(), tvar(), (parse("x1^3", 1),), (parse("x1^(1/3)", 1),)),
            "1 / (x1 - 1)", "x1", (1.0, 0.0), "division by zero",
        ),
    ],
    ids=["values", "chart"],
)
def test_the_first_failing_point_raises_its_error(change, old, new, xs, error):
    # the values are read over all points at once, yet the error is the one
    # a point-by-point law meets first
    points = [Point.make(1.0, [x], [1.0]) for x in xs]
    with pytest.raises(JethamError, match=error):
        verify_dtensor(_space_vector(old), _space_vector(new), change, points)
