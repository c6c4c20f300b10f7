#!/usr/bin/env python3
"""Residual sweep: how tightly every transformation law closes across
dimensions and chart nonlinearity.

For each ambient dimension and each chart in the suite, builds a one-chart
problem of a metric pair, verifies every law with ``cmd_verify`` and
records the worst residual of each check-id family.  All residuals should
sit at machine-epsilon scale, far below the 1e-9 verification bar; the
table makes that margin visible.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from helpers import charts_for, metric_pair, sampled_points  # noqa: E402

from jetham.cli import cmd_verify  # noqa: E402
from jetham.problem import ChartSpec, Problem  # noqa: E402
from jetham.report import worst_residual  # noqa: E402

FAMILIES = ("dtensor", "temporal", "spatial", "connection", "frames")


def family(check_id: str) -> str:
    """The column of a check id: its prefix, or the law for a semispray."""
    prefix, _, law = check_id.partition(".")
    return law if prefix == "spray" else prefix


def sweep(n: int, count: int, seed: int):
    h, g = metric_pair(n)
    points = tuple(sampled_points(n, count, seed))
    rows = []
    for cname, c in charts_for(n).items():
        problem = Problem(n, h, g, None, (ChartSpec(cname, c),), points, 1e-9)
        by_family: dict[str, list[float]] = {f: [] for f in FAMILIES}
        for check_id, worst in cmd_verify(problem).max_residual_by_family().items():
            by_family[family(check_id)].append(worst)
        rows.append((cname, {f: worst_residual(v) for f, v in by_family.items()}))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=20, help="sample points per chart")
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--dims", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args()

    header = f"{'n':>2} {'chart':<10}" + "".join(f"{f:>12}" for f in FAMILIES)
    print(header)
    print("-" * len(header))
    worst = 0.0
    for n in args.dims:
        for cname, residuals in sweep(n, args.points, args.seed):
            cells = "".join(f"{residuals[f]:>12.2e}" for f in FAMILIES)
            print(f"{n:>2} {cname:<10}{cells}")
            worst = worst_residual([worst, *residuals.values()])
    print("-" * len(header))
    print(f"worst residual anywhere: {worst:.2e}  (verification bar: 1e-9)")
    return 0 if worst < 1e-9 else 2  # NaN fails too


if __name__ == "__main__":
    sys.exit(main())
