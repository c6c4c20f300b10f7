"""Nonlinear connections and their correspondence with semisprays.

A nonlinear connection is a pair of component families, temporal[j] and
spatial[j][i], with inhomogeneous transformation laws; it is the component
description of a horizontal distribution complementary to the vertical
(momentum) one.  The spatial family is in exact factor-2 correspondence
with spatial semisprays.  The temporal direction is only "connected":
with a space metric fixed, a temporal semispray yields a temporal family
through a metric double contraction of its p-derivative, and projecting
back onto the semispray family reproduces it for momentum-quadratic
semisprays (Euler's homogeneity theorem is what closes that loop).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .charts import CoordChange, induced_point, transition
from .errors import DimensionError
from .expr import Expr, Point, Program, Var, const, esum, pvar
from .metrics import SpaceMetric, TimeMetric, christoffel_time
from .report import CheckRecord, Report, residual, worst_residual
from .spray import MomentumSemispray, SpatialSemispray, TemporalSemispray

__all__ = [
    "NonlinearConnection",
    "canonical_connection",
    "connection_from_spray",
    "spray_from_connection",
    "verify_connection_law",
]


@dataclass(frozen=True)
class NonlinearConnection:
    """temporal[j] = N_(j)1(t, x, p); spatial[j][i] = N_(j)i(t, x, p)."""

    n: int
    temporal: tuple[Expr, ...]
    spatial: tuple[tuple[Expr, ...], ...]

    def __post_init__(self):
        if len(self.temporal) != self.n:
            raise DimensionError(f"temporal part must have {self.n} components")
        if len(self.spatial) != self.n or any(len(r) != self.n for r in self.spatial):
            raise DimensionError(f"spatial part must be {self.n}x{self.n}")

    @cached_property
    def _temporal_program(self) -> Program:
        return Program(self.temporal)

    @cached_property
    def _spatial_program(self) -> Program:
        return Program(e for row in self.spatial for e in row)

    def evaluate_temporal(self, q: Point) -> np.ndarray:
        return np.array(self._temporal_program.run(q))

    def evaluate_spatial(self, q: Point) -> np.ndarray:
        return np.array(self._spatial_program.run(q)).reshape(self.n, self.n)


def canonical_connection(h: TimeMetric, g: SpaceMetric) -> NonlinearConnection:
    """temporal: H_11^1 p_j; spatial: -gamma^k_ji p_k (the metric pair's
    canonical connection, also produced by its canonical semisprays)."""
    n = g.n
    H = christoffel_time(h).H111
    gamma = g.christoffel.gamma
    temporal = tuple(H * pvar(j) for j in range(n))
    spatial = tuple(
        tuple(-esum(gamma[k][j][i] * pvar(k) for k in range(n)) for i in range(n))
        for j in range(n)
    )
    return NonlinearConnection(n, temporal, spatial)


def connection_from_spray(G: MomentumSemispray, g: SpaceMetric) -> NonlinearConnection:
    """temporal[r] = g^jk (dG1_(j)k / dp_i) g_ir;  spatial = 2 G2."""
    n = G.n
    if g.n != n:
        raise DimensionError("semispray and metric dimensions differ")
    ginv = g.inverse
    dG = [
        [
            [G.temporal.coeffs[j][k].diff(Var.momentum(i)) for i in range(n)]
            for k in range(n)
        ]
        for j in range(n)
    ]
    temporal = tuple(
        esum(
            ginv[j][k] * dG[j][k][i] * g.g[i][r]
            for j in range(n)
            for k in range(n)
            for i in range(n)
        )
        for r in range(n)
    )
    spatial = tuple(
        tuple(const(2) * e for e in row) for row in G.spatial.coeffs
    )
    return NonlinearConnection(n, temporal, spatial)


def spray_from_connection(N: NonlinearConnection) -> MomentumSemispray:
    """temporal G1_(i)j = (1/2) N_(i)1 p_j;  spatial G2 = (1/2) N2."""
    n = N.n
    half = const(0.5)
    temporal = TemporalSemispray(
        n,
        tuple(tuple(half * N.temporal[i] * pvar(j) for j in range(n)) for i in range(n)),
    )
    spatial = SpatialSemispray(
        n, tuple(tuple(half * e for e in row) for row in N.spatial)
    )
    return MomentumSemispray(temporal, spatial)


def verify_connection_law(
    N_old: NonlinearConnection,
    N_new: NonlinearConnection,
    c: CoordChange,
    points: Sequence[Point],
    tol: float = 1e-9,
) -> Report:
    """Both lines of the nonlinear-connection law at each point:

        N~_(j)1 = N_(k)1 (dx^k/dx~^j) - (dt/dt~)(dp~_j/dt)
        N~_(j)r = N_(k)i (dt~/dt)(dx^k/dx~^j)(dx^i/dx~^r) - (dx^i/dx~^r)(dp~_j/dx^i)
    """
    if N_old.n != c.n or N_new.n != c.n:
        raise DimensionError("connection and change dimensions differ")
    n = c.n
    records = []
    for q in points:
        td = transition(c, q)
        image = induced_point(c, q)
        old_t = N_old.evaluate_temporal(q)
        old_s = N_old.evaluate_spatial(q)
        new_t = N_new.evaluate_temporal(image)
        new_s = N_new.evaluate_spatial(image)

        worst = worst_residual(
            residual(
                float(new_t[j]),
                float(old_t @ td.jac_inv[:, j]) - td.dt_dt_tilde * float(td.dp_tilde_dt[j]),
            )
            for j in range(n)
        )
        records.append(
            CheckRecord("connection.temporal", "", q.flat(), worst, worst <= tol)
        )

        worst = worst_residual(
            residual(
                float(new_s[j, r]),
                td.dt_tilde_dt * float(td.jac_inv[:, j] @ old_s @ td.jac_inv[:, r])
                - float(td.dp_tilde_dx[j] @ td.jac_inv[:, r]),
            )
            for j in range(n)
            for r in range(n)
        )
        records.append(
            CheckRecord("connection.spatial", "", q.flat(), worst, worst <= tol)
        )
    return Report.of(records)
