"""Check records, reports, and the shared residual metric.

Every verification operation returns a Report: a flat list of per-check
records plus summary accessors.  The residual metric is absolute when both
compared values are tiny (canonical objects vanish identically for flat
metrics, where relative error is undefined) and relative otherwise.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

__all__ = [
    "residual",
    "worst_residual",
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


@dataclass(frozen=True)
class CheckRecord:
    check_id: str
    chart: str
    point: tuple[float, ...]
    residual: float
    passed: bool

    def with_chart(self, chart: str) -> "CheckRecord":
        return replace(self, chart=chart)


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

    def merged_with(self, other: "Report") -> "Report":
        return Report(self.records + other.records)


def check_points(
    points: Sequence,
    tol: float,
    check_ids: Sequence[str],
    compare: Callable[..., Sequence[float]],
) -> Report:
    """The records of one comparison run at each point, in point order.

    compare(q) returns the worst residual of each check at q, in check_ids
    order; each becomes a record that passes when it is within tol.
    """
    records = []
    for q in points:
        for check_id, worst in zip(check_ids, compare(q), strict=True):
            records.append(CheckRecord(check_id, "", q.flat(), worst, worst <= tol))
    return Report.of(records)


def _finite_or_none(value: float) -> float | None:
    return value if math.isfinite(value) else None


def report_to_json(report: Report) -> str:
    """Deterministic JSON rendering: fixed key order, canonical record order.
    A non-finite residual or family maximum is written as null (its record
    already fails), so the output is always valid JSON."""
    by_family = report.max_residual_by_family()
    payload = {
        "summary": {
            "pass": report.passed,
            "max_residual": {f: _finite_or_none(v) for f, v in by_family.items()},
        },
        "records": [
            {
                "check_id": r.check_id,
                "chart": r.chart,
                "point": list(r.point),
                "residual": _finite_or_none(r.residual),
                "pass": r.passed,
            }
            for r in report.records
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
