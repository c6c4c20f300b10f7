"""Check records, reports, and the shared residual metric.

Every verification operation returns a Report: a flat list of per-check
records plus summary accessors, built by ``check_points``, which also
gathers what every law reads: the transition data of its chart calls and
the values of the objects it names, at the points and at their images.
The residual metric is absolute when both compared values are tiny
(canonical objects vanish identically for flat metrics, where relative
error is undefined) and relative otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Sequence

import numpy as np

from .charts import TransitionData
from .errors import JethamError
from .expr import evaluate_together

__all__ = [
    "residual",
    "worst_residual",
    "worst_residuals",
    "stack",
    "CheckRecord",
    "Report",
    "check_points",
    "report_to_json",
]

ABS_FLOOR = 1e-6  # below this magnitude the residual is absolute


def residual(got: float, want: float) -> float:
    """Hybrid absolute/relative discrepancy between two values."""
    scale = max(abs(got), abs(want))
    err = abs(got - want)
    if scale < ABS_FLOOR:
        return err
    return err / scale


def worst_residual(residuals: Iterable[float]) -> float:
    """The largest residual (0.0 for none), or NaN as soon as one is NaN:
    max() keeps its running value against a NaN, which would let a check
    whose values were not numbers pass."""
    worst = 0.0
    for r in residuals:
        if r > worst:
            worst = r
        elif r != r:
            return math.nan
    return worst


def worst_residuals(got: np.ndarray, want: np.ndarray) -> np.ndarray:
    """Per point of a leading points axis, the worst ``residual`` between
    two stacks of one shape, element by element: NaN at a point as soon as
    one of its residuals is NaN (``check_points`` silences the warnings)."""
    if np.shape(got) != np.shape(want):
        raise ValueError(f"cannot compare shapes {np.shape(got)} and {np.shape(want)}")
    scale = np.maximum(np.abs(got), np.abs(want))
    err = np.abs(got - want)
    each = np.where(scale < ABS_FLOOR, err, err / scale)
    return each.reshape(len(each), -1).max(axis=1)


def stack(values: Sequence):
    """One value per point on a leading points axis, as one array: of
    ``TransitionData``, the array of their rows, whose views are its
    fields; of anything else, the values themselves."""
    first = values[0]
    if isinstance(first, TransitionData):
        return TransitionData.of_rows(np.array([td.row for td in values]), first.jac.shape[-1])
    return np.array(values)


@dataclass(frozen=True)
class CheckRecord:
    check_id: str
    chart: str
    point: tuple[float, ...]
    residual: float
    passed: bool


@dataclass(frozen=True)
class Report:
    records: tuple[CheckRecord, ...]

    @classmethod
    def of(cls, records: Iterable[CheckRecord]) -> "Report":
        return cls(tuple(records))

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    @property
    def max_residual(self) -> float:
        return worst_residual(r.residual for r in self.records)

    def max_residual_by_family(self) -> dict[str, float]:
        families: dict[str, list[float]] = {}
        for r in self.records:
            families.setdefault(r.check_id, []).append(r.residual)
        return {family: worst_residual(values) for family, values in families.items()}

    def failures(self) -> tuple[CheckRecord, ...]:
        return tuple(r for r in self.records if not r.passed)


def check_points(
    points: Sequence,
    tol: float,
    check_ids: Sequence[str],
    law: Callable[..., Sequence],
    chart: str = "",
    *,
    reads: Sequence = (),
    image_reads: Sequence = (),
    visit: Callable | None = None,
) -> Report:
    """The records of checks run over all points at once, in point order.

    visit(q), where given, is called at each point in turn (a law's chart
    calls, in its order) and returns the image of q, then the law's
    transition data.  Each object of reads is then read at the points and
    each of image_reads at the images, in one ``evaluate_together``, and
    law(*columns, *values at the points, *values at the images) is called
    once, column k stacking item k + 1 of every visit (``stack``).  Where a
    visit raises, the values are first read at the points before it, so the
    error raised is the first failing point's, and at that point the
    visit's.  law returns, in check_ids order, each check's worst residual
    at every point.  Each becomes a record of chart that passes when it is
    within tol.  Array arithmetic that overflows gives inf or NaN silently,
    as float arithmetic does: the residual it leads to fails the record.
    """
    points = tuple(points)
    if not points:
        return Report(())

    def values(points, images):
        return evaluate_together(
            [*((obj, points) for obj in reads), *((obj, images) for obj in image_reads)]
        )

    visits = []
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for q in points if visit else ():
                visits.append(visit(q))
        except JethamError:
            if visits:
                values(points[: len(visits)], [image for image, *_ in visits])
            raise
        images, *columns = zip(*visits) if visits else ((),)
        worst = law(*map(stack, columns), *values(points, images))
    records = []
    for q, row in zip(points, np.asarray(worst, dtype=float).T.tolist(), strict=True):
        flat = q.flat()
        for c, r in zip(check_ids, row, strict=True):
            records.append(CheckRecord(c, chart, flat, r, r <= tol))
    return Report(tuple(records))


def _number_or_null(value: float) -> str:
    return float.__repr__(value) if math.isfinite(value) else "null"


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _json_block(items: list[str], indent: str, brackets: str) -> str:
    """Rendered items as json.dumps(indent=2) lays out a list or object."""
    inner = f",\n{indent}  ".join(items)
    return f"{brackets[0]}\n{indent}  {inner}\n{indent}{brackets[1]}" if items else brackets


def _point_json(point: tuple[float, ...]) -> str:
    if not all(map(math.isfinite, point)):
        raise ValueError(f"point {point} is not finite: JSON has no value for it")
    return _json_block(list(map(float.__repr__, point)), "      ", "[]")


def report_to_json(report: Report) -> str:
    """Deterministic JSON rendering: fixed key order, canonical record order,
    the bytes ``json.dumps(payload, sort_keys=True, indent=2)`` writes for
    the report's fields, from a writer that knows their schema.  A
    non-finite residual or family maximum is written as null (its record
    already fails), so the output is always valid JSON.

    Each point's text is rendered once per report.  The records of one
    sample point share its tuple (``Point.flat``), so the text is kept by
    the tuple's identity: equality would confuse 0.0 with -0.0."""
    maxima = [
        f"{encode_basestring_ascii(family)}: {_number_or_null(value)}"
        for family, value in sorted(report.max_residual_by_family().items())
    ]
    summary = [
        f'"max_residual": {_json_block(maxima, "    ", "{}")}', f'"pass": {_bool(report.passed)}'
    ]
    tail = f',\n  "summary": {_json_block(summary, "  ", "{}")}\n}}\n'
    if not report.records:
        return '{\n  "records": []' + tail
    points: dict[int, str] = {}  # id of a point tuple -> its text
    texts = []
    for r in report.records:
        point = points.get(id(r.point))
        if point is None:
            point = points[id(r.point)] = _point_json(r.point)
        texts.append(
            f'{{\n      "chart": {encode_basestring_ascii(r.chart)},'
            f'\n      "check_id": {encode_basestring_ascii(r.check_id)},'
            f'\n      "pass": {_bool(r.passed)},'
            f'\n      "point": {point},'
            f'\n      "residual": {_number_or_null(r.residual)}\n    }}'
        )
    # one join of the records and one of the whole: the report is the
    # largest string a verdict builds, so it is copied no more than that
    return "".join(('{\n  "records": [\n    ', ",\n    ".join(texts), "\n  ]", tail))
