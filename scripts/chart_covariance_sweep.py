#!/usr/bin/env python3
"""Residual sweep: how tightly every transformation law closes across
dimensions and chart nonlinearity.

For each ambient dimension and each chart in the suite, builds the canonical
objects of a metric pair, pushes the metrics tensorially into the new chart,
rebuilds the objects there, and records the worst residual of each law.
All residuals should sit at machine-epsilon scale, far below the 1e-9
verification bar; the table makes that margin visible.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from helpers import charts_for, metric_pair, sampled_points  # noqa: E402

from jetham.dtensor import metric_hamiltonian, verify_dtensor, vertical_metrical, Hamiltonian  # noqa: E402
from jetham.charts import scalar_to_new_chart  # noqa: E402
from jetham.frames import verify_adapted_tensoriality  # noqa: E402
from jetham.metrics import transform_space_metric, transform_time_metric  # noqa: E402
from jetham.nlconn import canonical_connection, verify_connection_law  # noqa: E402
from jetham.report import worst_residual  # noqa: E402
from jetham.spray import (  # noqa: E402
    canonical_spatial,
    canonical_temporal,
    verify_spatial_law,
    verify_temporal_law,
)


def sweep(n: int, count: int, seed: int):
    h, g = metric_pair(n)
    ham = metric_hamiltonian(h, g)
    points = sampled_points(n, count, seed)
    # the old chart's objects are shared by every chart
    V, G1, G2 = vertical_metrical(ham), canonical_temporal(h, n), canonical_spatial(g)
    N = canonical_connection(h, g)
    rows = []
    for cname, c in charts_for(n).items():
        h_new = transform_time_metric(h, c)
        g_new = transform_space_metric(g, c)
        ham_new = Hamiltonian(n, scalar_to_new_chart(ham.expr, c))
        N_new = canonical_connection(h_new, g_new)
        residuals = {
            "dtensor": verify_dtensor(V, vertical_metrical(ham_new), c, points).max_residual,
            "temporal": verify_temporal_law(
                G1, canonical_temporal(h_new, n), c, points
            ).max_residual,
            "spatial": verify_spatial_law(G2, canonical_spatial(g_new), c, points).max_residual,
            "connection": verify_connection_law(N, N_new, c, points).max_residual,
            "frames": verify_adapted_tensoriality(N, N_new, c, points).max_residual,
        }
        rows.append((cname, residuals))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=20, help="sample points per chart")
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--dims", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args()

    families = ("dtensor", "temporal", "spatial", "connection", "frames")
    header = f"{'n':>2} {'chart':<10}" + "".join(f"{f:>12}" for f in families)
    print(header)
    print("-" * len(header))
    worst = 0.0
    for n in args.dims:
        for cname, residuals in sweep(n, args.points, args.seed):
            cells = "".join(f"{residuals[f]:>12.2e}" for f in families)
            print(f"{n:>2} {cname:<10}{cells}")
            worst = worst_residual([worst, *residuals.values()])
    print("-" * len(header))
    print(f"worst residual anywhere: {worst:.2e}  (verification bar: 1e-9)")
    return 0 if worst < 1e-9 else 2  # NaN fails too


if __name__ == "__main__":
    sys.exit(main())
