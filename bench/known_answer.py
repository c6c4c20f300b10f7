"""Known-answer checker for ``verify --suite all`` reports.

The checker reads the rendered JSON report, never ``Report.passed``, and
compares every record against the answer the generator built in:

- the records come in the engine's canonical order, listed by hand below
  (families, then charts, then points), so their count is
  ``points * (2 + 10 * charts)``;
- every residual is a finite number;
- every residual that should pass is within the tolerance and flagged as
  passing;
- on a negative control (a corrupted new-chart connection) exactly the
  ``connection.temporal`` records fail: finite, above the tolerance and
  flagged as failing.  Everything else must still pass.

Each record is judged on its own, so a NaN anywhere cannot hide behind a
maximum (``max(0.0, nan)`` is ``0.0``).
"""

from __future__ import annotations

import json
import math

DTENSOR_IDS = (
    "dtensor.vertical_metrical",
    "dtensor.liouville",
    "dtensor.momentum_liouville",
    "dtensor.h_normalization",
)


def expected_records(charts: list[str], n_points: int, corrupt: bool):
    """(check_id, chart, point index, should_pass) in report order."""
    pts = range(n_points)
    out = []
    for c in charts:
        out += [(cid, c, k, True) for cid in DTENSOR_IDS for k in pts]
    for c in charts:
        out += [("spray.temporal", c, k, True) for k in pts]
        out += [("spray.spatial", c, k, True) for k in pts]
    out += [("connection.canonical_consistency", "", k, True) for k in pts]
    for c in charts:
        for k in pts:
            out.append(("connection.temporal", c, k, not corrupt))
            out.append(("connection.spatial", c, k, True))
    out += [("frames.duality", "", k, True) for k in pts]
    for c in charts:
        for k in pts:
            out.append(("frames.frame_tensoriality", c, k, True))
            out.append(("frames.coframe_tensoriality", c, k, True))
    return out


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} in the report")


def check_report(
    text: str,
    charts: list[str],
    points: list[list[float]],
    tolerance: float,
    corrupt: bool,
) -> list[str]:
    """Every way the rendered report differs from the known answer; an
    empty list means the verdict is correct."""
    try:
        payload = json.loads(text, parse_constant=_reject_constant)
        records = payload["records"]
        summary_pass = payload["summary"]["pass"]
    except (ValueError, KeyError, TypeError) as ex:
        return [f"unreadable report: {ex}"]

    want = expected_records(charts, len(points), corrupt)
    if len(records) != len(want):
        return [f"{len(records)} records, expected {len(want)}"]
    problems = []
    for i, (rec, (check_id, chart, k, should_pass)) in enumerate(zip(records, want)):
        where = f"record {i} ({check_id}, chart {chart or '-'}, point {k})"
        if rec.get("check_id") != check_id or rec.get("chart") != chart:
            problems.append(f"{where}: got {rec.get('check_id')!r} on {rec.get('chart')!r}")
            continue
        if rec.get("point") != list(points[k]):
            problems.append(f"{where}: wrong point {rec.get('point')}")
        r = rec.get("residual")
        if not isinstance(r, (int, float)) or isinstance(r, bool) or not math.isfinite(r):
            problems.append(f"{where}: non-finite residual {r!r}")
            continue
        if should_pass and not (r <= tolerance and rec.get("pass") is True):
            problems.append(f"{where}: should pass, residual {r:.3e} pass={rec.get('pass')}")
        if not should_pass and not (r > tolerance and rec.get("pass") is False):
            problems.append(f"{where}: should fail, residual {r:.3e} pass={rec.get('pass')}")
    if summary_pass is not (not corrupt):
        problems.append(f"summary pass={summary_pass!r}, expected {not corrupt}")
    return problems
