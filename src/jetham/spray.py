"""Temporal and spatial semisprays of momenta.

Semisprays are component families G_(j)i(t, x, p) that are tensors on the
phase space but NOT d-tensors: their transformation laws pick up an
inhomogeneous term built from the derivatives of the induced momentum
change (dp~/dt for the temporal family, dp~/dx for the spatial one).
The canonical families come from the metric pair: the temporal one from
the time Christoffel symbol, the spatial one from the Levi-Civita symbols.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .charts import CoordChange, induced_point, transition
from .errors import DimensionError
from .expr import Components, Expr, Point, const, esum, pvar
from .metrics import SpaceMetric, TimeMetric, christoffel_time
from .report import Report, check_points, worst_residuals

__all__ = [
    "MomentumSemispray",
    "canonical_temporal",
    "canonical_spatial",
    "verify_temporal_law",
    "verify_spatial_law",
]


@dataclass(frozen=True)
class MomentumSemispray:
    """A temporal and a spatial semispray over the same ambient dimension:
    temporal[j, k] = G_(j)k and spatial[j, i] = G_(j)i, each n x n."""

    temporal: Components
    spatial: Components

    def __post_init__(self):
        if self.temporal.n != self.spatial.n:
            raise DimensionError("temporal and spatial parts have different n")
        if any(G.comps.shape != (self.n, self.n) for G in (self.temporal, self.spatial)):
            raise DimensionError(f"semispray parts must be {self.n}x{self.n}")

    @property
    def n(self) -> int:
        return self.temporal.n


def canonical_temporal(h: TimeMetric, n: int) -> Components:
    """G_(j)k = (1/2) H_11^1 p_j p_k, quadratic in the momenta."""
    H = christoffel_time(h)
    half = const(0.5)
    rows: list[list[Expr]] = [[None] * n for _ in range(n)]  # type: ignore[list-item]
    for j in range(n):
        for k in range(j, n):
            entry = half * H * pvar(j) * pvar(k)
            rows[j][k] = entry
            rows[k][j] = entry
    return Components(n, rows)


def canonical_spatial(g: SpaceMetric) -> Components:
    """G_(j)k = -(1/2) gamma^i_jk p_i, linear in the momenta."""
    gamma = g.christoffel
    n = g.n
    half = const(0.5)
    rows: list[list[Expr]] = [[None] * n for _ in range(n)]  # type: ignore[list-item]
    for j in range(n):
        for k in range(j, n):
            entry = -(half * esum(gamma[i, j, k] * pvar(i) for i in range(n)))
            rows[j][k] = entry
            rows[k][j] = entry
    return Components(n, rows)


def _verify_semispray_law(
    G_old: Components,
    G_new: Components,
    inhomogeneous,
    c: CoordChange,
    points: Sequence[Point],
    tol: float,
    check_id: str,
    chart: str = "",
) -> Report:
    """One semispray law; inhomogeneous(td, p) gets stacks, points first."""
    if G_old.comps.shape != (c.n, c.n) or G_new.comps.shape != (c.n, c.n):
        raise DimensionError("semispray and change dimensions differ")

    def visit(q):
        return induced_point(c, q), transition(c, q)

    # both sides are doubled, as the laws are written: below ABS_FLOOR a
    # residual is absolute, so halving them would halve it
    def law(td, old, new):
        J = td.jac_inv
        homogeneous = td.dt_tilde_dt[:, None, None] * (J.mT @ old @ J)
        p = np.array([q.p for q in points])
        return (worst_residuals(2.0 * new, 2.0 * homogeneous - inhomogeneous(td, p)),)

    return check_points(
        points, tol, (check_id,), law, chart, reads=(G_old,), image_reads=(G_new,), visit=visit
    )


def verify_temporal_law(
    G_old: Components,
    G_new: Components,
    c: CoordChange,
    points: Sequence[Point],
    tol: float = 1e-9,
    chart: str = "",
) -> Report:
    """Both sides of the temporal law at each point:

        2 G~_(k)r = 2 G_(j)i (dt~/dt)(dx^i/dx~^r)(dx^j/dx~^k)
                    - (dx^i/dx~^r)(dp~_k/dt) p_i
    """
    def inhom(td, p):
        # [k][r] = (dx^i/dx~^r) (dp~_k/dt) p_i
        return td.dp_tilde_dt[:, :, None] * (td.jac_inv.mT @ p[:, :, None]).mT

    return _verify_semispray_law(G_old, G_new, inhom, c, points, tol, "spray.temporal", chart)


def verify_spatial_law(
    G_old: Components,
    G_new: Components,
    c: CoordChange,
    points: Sequence[Point],
    tol: float = 1e-9,
    chart: str = "",
) -> Report:
    """Both sides of the spatial law at each point:

        2 G~_(s)k = 2 G_(j)i (dt~/dt)(dx^i/dx~^k)(dx^j/dx~^s)
                    - (dx^i/dx~^k)(dp~_s/dx^i)
    """
    def inhom(td, p):
        # [s][k] = (dx^i/dx~^k)(dp~_s/dx^i)
        return td.dp_tilde_dx @ td.jac_inv

    return _verify_semispray_law(G_old, G_new, inhom, c, points, tol, "spray.spatial", chart)
