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
from .report import Report, check_points, residual, worst_residual

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
    H = christoffel_time(h).H111
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
    gamma = g.christoffel.gamma
    n = g.n
    half = const(0.5)
    rows: list[list[Expr]] = [[None] * n for _ in range(n)]  # type: ignore[list-item]
    for j in range(n):
        for k in range(j, n):
            entry = -(half * esum(gamma[i][j][k] * pvar(i) for i in range(n)))
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
) -> Report:
    n = c.n
    if G_old.comps.shape != (n, n) or G_new.comps.shape != (n, n):
        raise DimensionError("semispray and change dimensions differ")

    def compare(q):
        td = transition(c, q)
        image = induced_point(c, q)
        old = G_old.evaluate(q)
        new = G_new.evaluate(image)
        inhom = inhomogeneous(td, q)
        return (
            worst_residual(
                residual(
                    2.0 * float(new[k, r]),
                    2.0 * float(td.dt_tilde_dt * (td.jac_inv[:, k] @ old @ td.jac_inv[:, r]))
                    - float(inhom[k, r]),
                )
                for k in range(n)
                for r in range(n)
            ),
        )

    return check_points(points, tol, (check_id,), compare)


def verify_temporal_law(
    G_old: Components,
    G_new: Components,
    c: CoordChange,
    points: Sequence[Point],
    tol: float = 1e-9,
) -> Report:
    """Both sides of the temporal law at each point:

        2 G~_(k)r = 2 G_(j)i (dt~/dt)(dx^i/dx~^r)(dx^j/dx~^k)
                    - (dx^i/dx~^r)(dp~_k/dt) p_i
    """
    def inhom(td, q):
        p = np.array(q.p)
        # [k][r] = (dx^i/dx~^r) (dp~_k/dt) p_i
        return np.outer(td.dp_tilde_dt, td.jac_inv.T @ p)

    return _verify_semispray_law(G_old, G_new, inhom, c, points, tol, "spray.temporal")


def verify_spatial_law(
    G_old: Components,
    G_new: Components,
    c: CoordChange,
    points: Sequence[Point],
    tol: float = 1e-9,
) -> Report:
    """Both sides of the spatial law at each point:

        2 G~_(s)k = 2 G_(j)i (dt~/dt)(dx^i/dx~^k)(dx^j/dx~^s)
                    - (dx^i/dx~^k)(dp~_s/dx^i)
    """
    def inhom(td, q):
        # [s][k] = (dx^i/dx~^k)(dp~_s/dx^i)
        return td.dp_tilde_dx @ td.jac_inv

    return _verify_semispray_law(G_old, G_new, inhom, c, points, tol, "spray.spatial")
