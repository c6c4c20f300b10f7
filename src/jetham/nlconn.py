"""Nonlinear connections and their correspondence with semisprays.

A nonlinear connection is a pair of component families, temporal[j] and
spatial[j][i], with inhomogeneous transformation laws; it is the component
description of a horizontal distribution complementary to the vertical
(momentum) one.  The spatial family is in exact factor-2 correspondence
with spatial semisprays.  The temporal direction is only "connected":
with a space metric fixed, a temporal semispray yields a temporal family
through a metric double contraction of its p-derivative.  The converse,
a semispray from a connection, is a test reference
(``spray_from_connection`` in ``tests/helpers.py``): projecting back
reproduces momentum-quadratic semisprays (Euler's homogeneity theorem is
what closes that loop).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .charts import CoordChange, induced_point, map_points, transition
from .errors import DimensionError
from .expr import Components, Point, Var, const, diff, esum, pvar, symmetric
from .metrics import SpaceMetric, TimeMetric, christoffel_time
from .report import Report, check_points, worst_residuals
from .spray import MomentumSemispray

__all__ = [
    "NonlinearConnection",
    "canonical_connection",
    "connection_from_spray",
    "verify_connection_law",
]


@dataclass(frozen=True)
class NonlinearConnection:
    """temporal[j] = N_(j)1(t, x, p); spatial[j, i] = N_(j)i(t, x, p).

    Each part is one Components array with its own program; nested
    sequences of expressions are accepted and converted.
    """

    n: int
    temporal: Components
    spatial: Components

    def __post_init__(self):
        for name, shape in (("temporal", (self.n,)), ("spatial", (self.n, self.n))):
            part = getattr(self, name)
            if not isinstance(part, Components):
                part = Components(self.n, part)
                object.__setattr__(self, name, part)
            if part.comps.shape != shape:
                raise DimensionError(f"{name} part must have shape {shape}")


def canonical_connection(h: TimeMetric, g: SpaceMetric) -> NonlinearConnection:
    """temporal: H_11^1 p_j; spatial: -gamma^k_ji p_k (the metric pair's
    canonical connection, also produced by its canonical semisprays)."""
    n, H, S = g.n, christoffel_time(h), g.contracted_christoffel
    temporal = tuple(H * pvar(j) for j in range(n))
    return NonlinearConnection(n, temporal, symmetric(n, lambda j, i: -S[j][i]))


def connection_from_spray(G: MomentumSemispray, g: SpaceMetric) -> NonlinearConnection:
    """temporal[r] = g^jk (dG1_(j)k / dp_i) g_ir;  spatial = 2 G2."""
    n = G.n
    if g.n != n:
        raise DimensionError("semispray and metric dimensions differ")
    ginv = g.inverse
    memos = [{} for _ in range(n)]  # one per p_i, shared by every component
    # [j][k][i] = g^jk dG1_(j)k/dp_i, shared by every r
    weighted = [
        [
            [ginv[j][k] * diff(G.temporal[j, k], Var.momentum(i), memos[i]) for i in range(n)]
            for k in range(n)
        ]
        for j in range(n)
    ]
    temporal = tuple(
        esum(
            weighted[j][k][i] * g.g[i][r]
            for j in range(n)
            for k in range(n)
            for i in range(n)
        )
        for r in range(n)
    )
    two = const(2)
    spatial = tuple(tuple(two * e for e in row) for row in G.spatial)
    return NonlinearConnection(n, temporal, spatial)


def verify_connection_law(
    N_old: NonlinearConnection,
    N_new: NonlinearConnection,
    c: CoordChange,
    points: Sequence[Point],
    tol: float = 1e-9,
    chart: str = "",
) -> Report:
    """Both lines of the nonlinear-connection law at each point:

        N~_(j)1 = N_(k)1 (dx^k/dx~^j) - (dt/dt~)(dp~_j/dt)
        N~_(j)r = N_(k)i (dt~/dt)(dx^k/dx~^j)(dx^i/dx~^r) - (dx^i/dx~^r)(dp~_j/dx^i)
    """
    if N_old.n != c.n or N_new.n != c.n:
        raise DimensionError("connection and change dimensions differ")
    map_points(c, points)

    def visit(q):
        return induced_point(c, q), transition(c, q)

    def law(td, old_t, old_s, new_t, new_s):
        J = td.jac_inv
        want_t = (old_t[:, None, :] @ J)[:, 0] - td.dt_dt_tilde[:, None] * td.dp_tilde_dt
        homogeneous = td.dt_tilde_dt[:, None, None] * (J.mT @ old_s @ J)
        want_s = homogeneous - td.dp_tilde_dx @ J
        return worst_residuals(new_t, want_t), worst_residuals(new_s, want_s)

    return check_points(
        points, tol, ("connection.temporal", "connection.spatial"), law, chart,
        reads=(N_old.temporal, N_old.spatial), image_reads=(N_new.temporal, N_new.spatial),
        visit=visit,
    )
