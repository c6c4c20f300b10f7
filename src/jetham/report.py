"""Check blocks, reports, and the shared residual metric.

Every verification operation returns a Report: a sequence of check blocks,
each the (points, checks) residual and pass arrays of one ``check_points``
call, plus summary accessors that read the arrays.  A report's per-check
records are a view, each ``CheckRecord`` built only when it is read.
``check_points`` also gathers what every law reads: the transition data
of its chart calls and the values of the objects it names, at the points
and at their images.
The residual metric is absolute when both compared values are tiny
(canonical objects vanish identically for flat metrics, where relative
error is undefined) and relative otherwise.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from operator import getitem

import numpy as np

from .charts import TransitionData
from .errors import JethamError
from .expr import PointSet, evaluate_together

__all__ = [
    "residual",
    "worst_residual",
    "worst_residuals",
    "stack",
    "CheckRecord",
    "CheckBlock",
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
    ``TransitionData``, the stacked data of their rows, whose views are its
    fields; of anything else, the values themselves.  Where the transition
    data are exactly one pass's rows, in pass order, that is the pass's own
    stacked data, and nothing is copied; otherwise (a repeated point, rows
    of several passes) their rows are copied into a new array."""
    first = values[0]
    if isinstance(first, TransitionData):
        whole = TransitionData.whole_pass(values)
        if whole is not None:
            return whole
        if any(td.row is None for td in values):
            raise ValueError("transition data built field by field have no row to stack")
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
class CheckBlock:
    """The results of checks run over points in one chart: residuals[i, j]
    is check_ids[j]'s worst residual at points[i] (``Point.flat`` tuples),
    and passes[i, j] whether it is within the tolerance.  Its records are
    point-major: each point's checks in check_ids order."""

    check_ids: tuple[str, ...]
    chart: str
    points: tuple[tuple[float, ...], ...]
    residuals: np.ndarray  # (points, checks), float
    passes: np.ndarray  # (points, checks), bool

    def record(self, index: int) -> CheckRecord:
        """The record at a point-major index into the block."""
        i, j = divmod(index, len(self.check_ids))
        return CheckRecord(
            self.check_ids[j], self.chart, self.points[i],
            float(self.residuals[i, j]), bool(self.passes[i, j]),
        )


class _Records(Sequence):
    """A report's records, in order, each built when it is read."""

    def __init__(self, blocks: tuple[CheckBlock, ...]):
        self._blocks = blocks
        self._len = sum(b.residuals.size for b in blocks)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self)[index]
        k = range(self._len)[index]  # IndexError outside, negative from the end
        for b in self._blocks:
            if k < b.residuals.size:
                return b.record(k)
            k -= b.residuals.size

    def __iter__(self):
        for b in self._blocks:
            yield from map(b.record, range(b.residuals.size))


@dataclass(frozen=True)
class Report:
    """A sequence of check blocks, one per ``check_points`` call, whose
    records in order are the report's."""

    blocks: tuple[CheckBlock, ...]

    @classmethod
    def of(cls, records: Iterable[CheckRecord]) -> "Report":
        """A report of the given records, one block each."""
        return cls(tuple(
            CheckBlock((r.check_id,), r.chart, (r.point,),
                       np.array([[r.residual]], dtype=float), np.array([[r.passed]]))
            for r in records
        ))

    @classmethod
    def join(cls, reports: Iterable["Report"]) -> "Report":
        """The reports' blocks, in order, as one report."""
        return cls(tuple(b for report in reports for b in report.blocks))

    @property
    def records(self) -> Sequence[CheckRecord]:
        return _Records(self.blocks)

    @property
    def passed(self) -> bool:
        return all(b.passes.all() for b in self.blocks)

    @property
    def max_residual(self) -> float:
        return worst_residual(self.max_residual_by_family().values())

    def max_residual_by_family(self) -> dict[str, float]:
        families: dict[str, list[float]] = {}
        for b in self.blocks:
            if len(b.points):  # a check at no point has no residual
                for family, column in zip(b.check_ids, b.residuals.T.tolist()):
                    families.setdefault(family, []).append(worst_residual(column))
        return {family: worst_residual(values) for family, values in families.items()}

    def failures(self) -> tuple[CheckRecord, ...]:
        return tuple(
            b.record(k) for b in self.blocks for k in np.flatnonzero(~b.passes).tolist()
        )


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
    """A report of one block: checks run over all points at once.

    visit(q), where given, is called at each point in turn (a law's chart
    calls, in its order) and returns the image of q, then the law's
    transition data.  Each object of reads is then read at the points and
    each of image_reads at the images, in one ``evaluate_together``, and
    law(*columns, *values at the points, *values at the images) is called
    once, column k stacking item k + 1 of every visit (``stack``).  Where a
    visit raises, the values are first read at the points before it, so the
    error raised is the first failing point's, and at that point the
    visit's.  law returns, in check_ids order, each check's worst residual
    at every point: the block's (points, checks) residual array, in chart.
    A check passes where its residual is within tol, so a NaN fails.  Array
    arithmetic that overflows gives inf or NaN silently, as float
    arithmetic does: the residual it leads to fails the check.
    """
    points = PointSet.of(points)
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
    residuals = np.asarray(worst, dtype=float).T
    if residuals.shape != (len(points), len(check_ids)):
        raise ValueError(
            f"a law gave residuals of shape {residuals.shape[::-1]}, "
            f"not {len(check_ids)} checks at {len(points)} points"
        )
    block = CheckBlock(tuple(check_ids), chart, points.flat(), residuals,
                       residuals <= tol)
    return Report((block,))


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

    The records are written from the blocks' arrays, point-major within a
    block, and no record is built.  Each (chart, check id, pass) prefix is
    rendered once per block, and each point's text once per report.  The
    blocks of one sample point share its tuple (``Point.flat``), so the
    text is kept by the tuple's identity: equality would confuse 0.0 with
    -0.0."""
    maxima = [
        f"{encode_basestring_ascii(family)}: {_number_or_null(value)}"
        for family, value in sorted(report.max_residual_by_family().items())
    ]
    summary = [
        f'"max_residual": {_json_block(maxima, "    ", "{}")}', f'"pass": {_bool(report.passed)}'
    ]
    tail = f',\n  "summary": {_json_block(summary, "  ", "{}")}\n}}\n'
    points: dict[int, str] = {}  # id of a point tuple -> its text, then the residual key
    # each record in turn as four pieces, head, point, residual and close, so
    # that the report, the largest string a verdict builds, is copied once
    pieces = ['{\n  "records": [\n    ']
    # every block's residuals and pass flags, in record order, in one list each
    residuals = np.concatenate([b.residuals.ravel() for b in report.blocks] or [[]])
    values = list(map(float.__repr__, residuals.tolist()))
    for k in np.flatnonzero(~np.isfinite(residuals)).tolist():
        values[k] = "null"
    passes = np.concatenate([b.passes.ravel() for b in report.blocks] or [[]]).tolist()
    start = 0
    for b in report.blocks:
        chart = encode_basestring_ascii(b.chart)
        heads = [  # by check, then pass flag (False, True)
            [
                f'{{\n      "chart": {chart},\n      "check_id": {encode_basestring_ascii(c)},'
                f'\n      "pass": {_bool(ok)},\n      "point": '
                for ok in (False, True)
            ]
            for c in b.check_ids
        ]
        texts = []
        for q in b.points:
            text = points.get(id(q))
            if text is None:
                text = points[id(q)] = f'{_point_json(q)},\n      "residual": '
            texts.append(text)
        end = start + len(heads) * len(texts)
        pieces += chain.from_iterable(zip(  # point-major, as the arrays are laid out
            map(getitem, heads * len(texts), passes[start:end]),
            chain.from_iterable(map(repeat, texts, repeat(len(heads)))),
            values[start:end],
            repeat("\n    },\n    "),
        ))
        start = end
    if len(pieces) == 1:
        return '{\n  "records": []' + tail
    pieces[-1] = "\n    }\n  ]" + tail
    return "".join(pieces)
