"""Problem files: a JSON document with embedded DSL expressions.

Keys are exactly {n, time_metric, space_metric, hamiltonian?, charts,
sample, tolerance?}.  Sampling is seeded and boxed per problem so that
singular loci are excluded by configuration; a bad box fails loudly at
load time (metric invertibility and chart round trips are checked on the
actual sample points, never silently skipped).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .charts import CoordChange
from .dtensor import Hamiltonian
from .errors import DomainError, JethamError, ProblemFormatError
from .expr import Expr, Point, Program, parse
from .metrics import SpaceMetric, TimeMetric, space_metric_det
from .report import residual, worst_residual
from .sampling import Box, sample_points

__all__ = ["ChartSpec", "Problem", "load_problem", "problem_from_dict"]

REQUIRED_KEYS = {"n", "time_metric", "space_metric", "charts", "sample"}
OPTIONAL_KEYS = {"hamiltonian", "tolerance"}
CHART_KEYS = {"name", "t_fwd", "t_inv", "x_fwd", "x_inv"}

INVERTIBILITY_EPS = 1e-12
ROUND_TRIP_TOL = 1e-9


@dataclass(frozen=True)
class ChartSpec:
    name: str
    change: CoordChange


@dataclass(frozen=True)
class Problem:
    n: int
    time_metric: TimeMetric
    space_metric: SpaceMetric
    hamiltonian: Hamiltonian | None
    charts: tuple[ChartSpec, ...]
    points: tuple[Point, ...]
    tolerance: float


def _parse_expr(src, n: int, where: str) -> Expr:
    if not isinstance(src, str):
        raise ProblemFormatError(f"{where}: expected a DSL string, got {type(src).__name__}")
    try:
        return parse(src, n)
    except JethamError as ex:
        raise ProblemFormatError(f"{where}: {ex}") from ex


def _is_int(value) -> bool:
    # JSON true and false load as bool, which is an int subclass
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


def _interval(value, where: str) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2 or not all(map(_is_number, value)):
        raise ProblemFormatError(f"{where}: expected [lo, hi]")
    return float(value[0]), float(value[1])


def _axis_intervals(value, n: int, where: str) -> tuple[tuple[float, float], ...]:
    if isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_is_number, value)):
        return (_interval(value, where),) * n
    if isinstance(value, (list, tuple)) and len(value) == n:
        return tuple(_interval(v, f"{where}[{i}]") for i, v in enumerate(value))
    raise ProblemFormatError(f"{where}: expected [lo, hi] or a list of {n} intervals")


def _sample_points_from(doc, n: int) -> tuple[Point, ...]:
    if not isinstance(doc, dict):
        raise ProblemFormatError("sample: expected an object")
    if "points" in doc:
        extra = set(doc) - {"points"}
        if extra:
            raise ProblemFormatError(f"sample: unexpected keys {sorted(extra)}")
        pts = []
        for i, row in enumerate(doc["points"]):
            if (
                not isinstance(row, (list, tuple))
                or len(row) != 2 * n + 1
                or not all(map(_is_number, row))
            ):
                raise ProblemFormatError(
                    f"sample.points[{i}]: expected {2 * n + 1} numeric coordinates"
                )
            pts.append(Point.from_flat(row, n))
        if not pts:
            raise ProblemFormatError("sample.points: at least one point required")
        return tuple(pts)

    extra = set(doc) - {"seed", "count", "box"}
    if extra:
        raise ProblemFormatError(f"sample: unexpected keys {sorted(extra)}")
    for key in ("seed", "count"):
        if key not in doc or not _is_int(doc[key]):
            raise ProblemFormatError(f"sample.{key}: integer required")
    if doc["count"] < 1:
        raise ProblemFormatError("sample.count: must be >= 1")
    kwargs = {}
    box_doc = doc.get("box", {})
    if not isinstance(box_doc, dict) or set(box_doc) - {"t", "x", "p"}:
        raise ProblemFormatError("sample.box: expected keys among {t, x, p}")
    if "t" in box_doc:
        kwargs["t"] = _interval(box_doc["t"], "sample.box.t")
    if "x" in box_doc:
        kwargs["x"] = _axis_intervals(box_doc["x"], n, "sample.box.x")
    if "p" in box_doc:
        kwargs["p"] = _axis_intervals(box_doc["p"], n, "sample.box.p")
    box = Box(n, **kwargs)
    return tuple(sample_points(box, doc["count"], doc["seed"]))


def _load_chart(doc, n: int, index: int) -> ChartSpec:
    where = f"charts[{index}]"
    if not isinstance(doc, dict):
        raise ProblemFormatError(f"{where}: expected an object")
    if set(doc) != CHART_KEYS:
        raise ProblemFormatError(
            f"{where}: keys must be exactly {sorted(CHART_KEYS)}, got {sorted(doc)}"
        )
    name = doc["name"]
    if not isinstance(name, str) or not name:
        raise ProblemFormatError(f"{where}.name: non-empty string required")
    for key in ("x_fwd", "x_inv"):
        if not isinstance(doc[key], list) or len(doc[key]) != n:
            raise ProblemFormatError(f"{where}.{key}: expected {n} DSL strings")
    try:
        change = CoordChange(
            n,
            _parse_expr(doc["t_fwd"], n, f"{where}.t_fwd"),
            _parse_expr(doc["t_inv"], n, f"{where}.t_inv"),
            tuple(
                _parse_expr(s, n, f"{where}.x_fwd[{i}]") for i, s in enumerate(doc["x_fwd"])
            ),
            tuple(
                _parse_expr(s, n, f"{where}.x_inv[{i}]") for i, s in enumerate(doc["x_inv"])
            ),
        )
    except JethamError as ex:
        raise ProblemFormatError(f"{where}: {ex}") from ex
    return ChartSpec(name, change)


def _run_checked(program: Program, q: Point, prefix: str) -> list[float]:
    try:
        return program.run(q)
    except DomainError as ex:
        raise ProblemFormatError(f"{prefix}: {ex}") from ex


def _validate_on_points(problem: Problem):
    h = Program((problem.time_metric.h11,))
    det_g = Program((space_metric_det(problem.space_metric),))
    # negated tests, so that NaN (false under every comparison) is rejected
    for q in problem.points:
        singular = f"time metric is singular at t={q.t}"
        [hv] = _run_checked(h, q, singular)
        if not INVERTIBILITY_EPS < abs(hv) < math.inf:
            raise ProblemFormatError(f"{singular}: h11={hv}")
        singular = f"space metric is singular at x={q.x}"
        [dv] = _run_checked(det_g, q, singular)
        if not INVERTIBILITY_EPS < abs(dv) < math.inf:
            raise ProblemFormatError(f"{singular}: det={dv}")
    for spec in problem.charts:
        c = spec.change
        t_fwd, t_inv = Program((c.t_fwd,)), Program((c.t_inv,))
        x_fwd, x_inv = Program(c.x_fwd), Program(c.x_inv)
        t_trip = f"chart {spec.name!r}: t_inv(t_fwd(t))"
        x_trip = f"chart {spec.name!r}: x_inv(x_fwd(x))"
        for q in problem.points:
            [t_image] = _run_checked(t_fwd, q, t_trip)
            [t_round] = _run_checked(t_inv, Point(t_image, q.x, q.p), t_trip)
            if not residual(t_round, q.t) <= ROUND_TRIP_TOL:
                raise ProblemFormatError(f"{t_trip} = {t_round} != t = {q.t}")
            image_x = tuple(_run_checked(x_fwd, q, x_trip))
            x_round = _run_checked(x_inv, Point(q.t, image_x, q.p), x_trip)
            if not worst_residual(map(residual, x_round, q.x)) <= ROUND_TRIP_TOL:
                raise ProblemFormatError(f"{x_trip} != x at x={q.x}")


def problem_from_dict(doc) -> Problem:
    if not isinstance(doc, dict):
        raise ProblemFormatError("problem: expected a JSON object")
    keys = set(doc)
    missing = REQUIRED_KEYS - keys
    if missing:
        raise ProblemFormatError(f"problem: missing keys {sorted(missing)}")
    extra = keys - REQUIRED_KEYS - OPTIONAL_KEYS
    if extra:
        raise ProblemFormatError(f"problem: unexpected keys {sorted(extra)}")

    n = doc["n"]
    if not _is_int(n) or n < 1:
        raise ProblemFormatError("n: positive integer required")

    time_metric = TimeMetric(_parse_expr(doc["time_metric"], n, "time_metric"))

    g_doc = doc["space_metric"]
    if (
        not isinstance(g_doc, list)
        or len(g_doc) != n
        or any(not isinstance(row, list) or len(row) != n for row in g_doc)
    ):
        raise ProblemFormatError(f"space_metric: expected an {n}x{n} matrix of DSL strings")
    try:
        space_metric = SpaceMetric(
            n,
            tuple(
                tuple(
                    _parse_expr(g_doc[i][j], n, f"space_metric[{i}][{j}]")
                    for j in range(n)
                )
                for i in range(n)
            ),
        )
    except JethamError as ex:
        raise ProblemFormatError(f"space_metric: {ex}") from ex

    hamiltonian = None
    if "hamiltonian" in doc:
        hamiltonian = Hamiltonian(n, _parse_expr(doc["hamiltonian"], n, "hamiltonian"))

    if not isinstance(doc["charts"], list):
        raise ProblemFormatError("charts: expected a list")
    charts = tuple(_load_chart(cd, n, i) for i, cd in enumerate(doc["charts"]))
    names = [c.name for c in charts]
    if len(set(names)) != len(names):
        raise ProblemFormatError("charts: names must be unique")

    tolerance = doc.get("tolerance", 1e-9)
    if not _is_number(tolerance) or tolerance <= 0:
        raise ProblemFormatError("tolerance: positive number required")

    points = _sample_points_from(doc["sample"], n)
    problem = Problem(
        n=n,
        time_metric=time_metric,
        space_metric=space_metric,
        hamiltonian=hamiltonian,
        charts=charts,
        points=points,
        tolerance=float(tolerance),
    )
    _validate_on_points(problem)
    return problem


def load_problem(path: str | Path) -> Problem:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except OSError as ex:
        raise ProblemFormatError(f"cannot read {path}: {ex}") from ex
    except json.JSONDecodeError as ex:
        raise ProblemFormatError(f"{path}: invalid JSON: {ex}") from ex
    return problem_from_dict(doc)
