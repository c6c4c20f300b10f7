"""Every law runs once over a stack of points.  Each residual it reports is
the float the law gave one point at a time (``helpers.reference_*``): equal
under ==, or both NaN."""

from __future__ import annotations

import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

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
import jetham.expr
import jetham.report
from jetham import cli
from jetham.charts import CoordChange, TransitionData, induced_point, map_points, transition
from jetham.dtensor import DTensor, IndexKind, verify_dtensor
from jetham.errors import ChartInverseError, DomainError, JethamError, RegularityError
from jetham.expr import Components, Point, PointSet, const, parse, tvar
from jetham.frames import _verify_blocks
from jetham.nlconn import NonlinearConnection, verify_connection_law
from jetham.problem import ChartSpec, Problem, load_problem, problem_from_dict
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


_EXAMPLE_DOC = json.loads((PROBLEMS / "example.json").read_text())


@st.composite
def example_point_sets(draw):
    """1-20 points in the example's sample box: repeated points, pairs that
    differ only in the sign of a zero momentum, int-valued coordinates."""
    pool = []
    for _ in range(draw(st.integers(1, 8))):
        t, x1, x2 = (draw(st.one_of(st.integers(1, 2), st.floats(0.5, 2.0))) for _ in range(3))
        p = [draw(st.one_of(st.integers(-3, 3), st.floats(-3.0, 3.0))) for _ in range(2)]
        pool.append(Point.make(t, [x1, x2], p))
        pool.append(Point.make(t, [x1, x2], [-0.0 if v == 0 else v for v in p]))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=20))


def _example_verdict(points, batch: int):
    """The example's verdict at points, with ``BATCH_POINTS`` = batch, and
    each (stacked, column) of transition data its laws stacked."""
    stacks, stack = [], jetham.report.stack

    def recorded(values):
        stacked = stack(values)
        if isinstance(values[0], TransitionData):
            stacks.append((stacked, values))
        return stacked

    problem = replace(problem_from_dict(_EXAMPLE_DOC), points=PointSet(points))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(jetham.expr, "BATCH_POINTS", batch)
        patch.setattr(jetham.report, "stack", recorded)
        report = cli.cmd_verify(problem)
    return report, stacks


@settings(max_examples=60, deadline=None)
@given(points=example_point_sets(), batch=st.sampled_from([1, jetham.expr.BATCH_POINTS]))
def test_point_sets_read_as_arrays_match_the_point_by_point_path(points, batch):
    # each law's block and each stacked transition data, bit for bit, and
    # at distinct points each law's stack is its pass's array itself
    distinct = len({q.key for q in points}) == len(points)
    event("distinct points" if distinct else "a repeated point")
    verdicts = [_example_verdict(points, b) for b in (batch, len(points) + 1)]
    (report, stacks), (want_report, want_stacks) = verdicts
    assert [_block_bits(b) for b in report.blocks] == [_block_bits(b) for b in want_report.blocks]
    assert len(stacks) == len(want_stacks) == 14 * len(_EXAMPLE_DOC["charts"])
    for (stacked, column), (want, _) in zip(stacks, want_stacks):
        assert stacked.row.shape == want.row.shape and stacked.row.tobytes() == want.row.tobytes()
        if distinct:
            assert all(np.shares_memory(stacked.row, td.row) for td in column)


def _block_bits(block) -> tuple:
    return (
        block.check_ids, block.chart, [Point.from_flat(q, 2).key for q in block.points],
        block.residuals.tobytes(), block.passes.tobytes(),
    )


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


def _connection(text: str) -> NonlinearConnection:
    e = parse(text, 1)
    return NonlinearConnection(1, (e,), ((e,),))


def _semispray(text: str) -> Components:
    return Components(1, np.array([[parse(text, 1)]], dtype=object))


def _change(t_fwd: str, t_inv: str, x_fwd: str, x_inv: str) -> CoordChange:
    return CoordChange(1, parse(t_fwd, 1), parse(t_inv, 1), (parse(x_fwd, 1),), (parse(x_inv, 1),))


# the laws whose values are read at the points and then at the images
_FIRST_ERROR_LAWS = {
    "dtensor": lambda old, new, c, points: verify_dtensor(
        _space_vector(old), _space_vector(new), c, points
    ),
    "spray": lambda old, new, c, points: verify_temporal_law(
        _semispray(old), _semispray(new), c, points
    ),
    "connection": lambda old, new, c, points: verify_connection_law(
        _connection(old), _connection(new), c, points
    ),
    "frames": lambda old, new, c, points: _verify_blocks(
        _connection(old), _connection(new), c, points, 1e-9
    ),
}

# changes that pass at (t, x) = (1, 1) and fail at the point named, each in
# a stage of its own, and two more at the dt~/dt check, whose texts print a
# value that is not round and -0.0: (change, point, error type, the error's text)
_CHART_FAULTS = {
    "singular_dt": (
        ("t^3", "t^(1/3)", "x1", "x1"), (0.0, 1.0), RegularityError, "dt~/dt = 0.0 at t = 0.0"
    ),
    "near_singular_dt": (
        ("t^3", "t^(1/3)", "x1", "x1"), (1.1e-7, 1.0), RegularityError,
        "dt~/dt = 3.630000000000001e-14 at t = 1.1e-07",
    ),
    "negative_zero_dt": (
        ("2 - t^3", "(2 - t)^(1/3)", "x1", "x1"), (0.0, 1.0), RegularityError,
        "dt~/dt = -0.0 at t = 0.0",
    ),
    "singular_jacobian": (
        ("t", "t", "x1^3", "x1^(1/3)"), (1.0, 0.0), RegularityError,
        "det(dx~/dx) = 0.0 at x = (0.0,)",
    ),
    "forward_domain": (
        ("t", "t", "log(x1)", "exp(x1)"), (1.0, -1.0), DomainError,
        "log of a non-positive value in 'log(x1)'",
    ),
    "wrong_t_inv": (
        ("t^2", "t^(1/2)", "x1", "x1"), (-1.0, 1.0), ChartInverseError,
        "t_inv is not the inverse of t_fwd at t=-1.0: dt~/dt * dt/dt~ = -1.0",
    ),
    "wrong_x_inv": (
        ("t", "t", "x1^2", "x1^(1/2)"), (1.0, -1.0), ChartInverseError,
        "x_inv is not the inverse of x_fwd at x=(-1.0,)",
    ),
}


_FIRST_ERRORS = pytest.mark.parametrize(
    "change, old, new, points, error",
    [
        # the new values fail at the image of point 0, the old ones at point 1
        (
            lambda: identity_change(1), "1 / (x1 - 2)", "log(x1 - 1.5)", ((1.0, 1.0), (1.0, 2.0)),
            "log of a non-positive",
        ),
        # the old values fail at point 0, the change is singular at point 1
        (
            lambda: CoordChange(1, tvar(), tvar(), (parse("x1^3", 1),), (parse("x1^(1/3)", 1),)),
            "1 / (x1 - 1)", "x1", ((1.0, 1.0), (1.0, 0.0)), "division by zero",
        ),
    ]
    + [
        # point 0 passes, the change fails at point 1
        (lambda maps=maps: _change(*maps), "x1", "x1", ((1.0, 1.0), point), re.escape(text))
        for maps, point, _, text in _CHART_FAULTS.values()
    ],
    ids=["values", "chart", *_CHART_FAULTS],
)


@pytest.mark.parametrize("law", _FIRST_ERROR_LAWS)
@_FIRST_ERRORS
def test_the_first_failing_point_raises_its_error(change, old, new, points, error, law):
    # the values are read over all points at once, yet the error is the one
    # a point-by-point law meets first
    points = [Point.make(t, [x], [1.0]) for t, x in points]
    with pytest.raises(JethamError, match=f"^{error}"):
        _FIRST_ERROR_LAWS[law](old, new, change(), points)


@pytest.mark.parametrize("law", _FIRST_ERROR_LAWS)
@pytest.mark.parametrize("fault", _CHART_FAULTS)
def test_a_chart_fault_after_a_passing_point_is_the_per_point_error(law, fault):
    # the fault first, in the middle and last of a point set large enough
    # for Program.run_points passes: the pass over it keeps nothing, and a
    # fresh change taken one point at a time, as the laws visit, raises the
    # same error and keeps the same values
    maps, (t, x), kind, text = _CHART_FAULTS[fault]
    passing = [Point.make(1.0 + k / 8, [1.0 + k / 16], [1.0]) for k in range(11)]
    assert len(passing) + 1 >= jetham.expr.BATCH_POINTS
    for at in (0, 6, 11):
        points = [*passing[:at], Point.make(t, [x], [1.0]), *passing[at:]]
        c, law_change = _change(*maps), _change(*maps)
        assert map_points(law_change, points) == []
        assert _memo(law_change) == _memo(law_change.inverse()) == {}
        with pytest.raises(JethamError) as want:
            for q in points:
                image = induced_point(c, q)
                transition(c, q)
                if law in ("dtensor", "frames"):  # the laws that visit the inverse
                    transition(c.inverse(), image)
        with pytest.raises(JethamError) as got:
            _FIRST_ERROR_LAWS[law]("x1", "x1", law_change, points)
        assert type(got.value) is type(want.value) is kind
        assert str(got.value) == str(want.value) == text
        # and both keep the same values, in both directions
        for a, b in ((law_change, c), (law_change.inverse(), c.inverse())):
            assert _memo(a) == _memo(b)


# each program runs over each point set in one Program.run_points pass, which
# gives None wherever a run raises: the per-point path then raises the error
@pytest.mark.parametrize("law", _FIRST_ERROR_LAWS)
@_FIRST_ERRORS
def test_the_first_failing_point_raises_its_error_in_run_points_passes(
    monkeypatch, change, old, new, points, error, law
):
    monkeypatch.setattr(jetham.expr, "BATCH_POINTS", 1)
    test_the_first_failing_point_raises_its_error(change, old, new, points, error, law)


@pytest.mark.parametrize("law", _FIRST_ERROR_LAWS)
@pytest.mark.parametrize("fault", _CHART_FAULTS)
def test_a_chart_fault_is_the_per_point_error_in_run_points_passes(monkeypatch, law, fault):
    monkeypatch.setattr(jetham.expr, "BATCH_POINTS", 1)
    test_a_chart_fault_after_a_passing_point_is_the_per_point_error(law, fault)


def _memo(c: CoordChange) -> dict:
    """What c keeps per point: its regularity values, image and whether it
    has transition data."""
    mapped, regular = c._mapped, c._regular
    assert mapped.keys() <= regular.keys()
    return {
        key: (row.tolist(), mapped[key][0] if key in mapped else None, key in mapped)
        for key, row in regular.items()
    }
