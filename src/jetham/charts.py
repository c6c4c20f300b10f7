"""Coordinate changes on R x M and the change they induce on momenta.

A chart change is a pair of diffeomorphisms t~(t), x~(x) with explicit,
user-supplied inverses (no numeric root finding).  The momenta transform
with both the spatial Jacobian and the time reparametrization factor:

    p~_i = (dx^j/dx~^i) (dt~/dt) p_j

so this is a relativistic-time phase space: reparametrizing time rescales
momenta.  All transition factors, including the inhomogeneous ones
(dp~/dt needs the second derivative of t~), come from exact symbolic
differentiation of the composed momentum expression.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ChartInverseError, DimensionError, RegularityError
from .expr import Coord, Expr, Point, Var, check_vars, compose, esum
from .report import CheckRecord, Report

__all__ = [
    "CoordChange",
    "TransitionData",
    "identity_change",
    "compose_changes",
    "induced_point",
    "transition",
    "verify_frame_rules",
    "natural_frame_matrix",
    "natural_coframe_matrix",
    "scalar_to_new_chart",
]

REGULARITY_EPS = 1e-12
INVERSE_CHECK_TOL = 1e-9


@dataclass(frozen=True)
class CoordChange:
    """t~ = t~(t), x~^i = x~^i(x), with explicit inverse expressions.

    Inverse expressions are written in the same variable names, read as the
    tilde coordinates.  Inverses are cross-checked numerically at every
    point a transition is computed at.
    """

    n: int
    t_fwd: Expr
    t_inv: Expr
    x_fwd: tuple[Expr, ...]
    x_inv: tuple[Expr, ...]

    def __post_init__(self):
        if len(self.x_fwd) != self.n or len(self.x_inv) != self.n:
            raise DimensionError(f"need {self.n} spatial components")
        t_only = {Var.time()}
        x_only = {Var.space(i) for i in range(self.n)}
        check_vars(self.t_fwd, t_only, "t_fwd")
        check_vars(self.t_inv, t_only, "t_inv")
        for i in range(self.n):
            check_vars(self.x_fwd[i], x_only, f"x_fwd[{i}]")
            check_vars(self.x_inv[i], x_only, f"x_inv[{i}]")

    def inverse(self) -> "CoordChange":
        return CoordChange(self.n, self.t_inv, self.t_fwd, self.x_inv, self.x_fwd)

    # -- cached symbolic derivatives ----------------------------------------

    @cached_property
    def dt_fwd(self) -> Expr:
        return self.t_fwd.diff(Var.time())

    @cached_property
    def dt_inv(self) -> Expr:
        return self.t_inv.diff(Var.time())

    @cached_property
    def jac_fwd(self) -> tuple[tuple[Expr, ...], ...]:
        """[i][j] = dx~^i/dx^j, as expressions in the old x."""
        return tuple(
            tuple(self.x_fwd[i].diff(Var.space(j)) for j in range(self.n))
            for i in range(self.n)
        )

    @cached_property
    def jac_inv(self) -> tuple[tuple[Expr, ...], ...]:
        """[i][j] = dx^i/dx~^j, as expressions in the tilde x."""
        return tuple(
            tuple(self.x_inv[i].diff(Var.space(j)) for j in range(self.n))
            for i in range(self.n)
        )

    @cached_property
    def momentum_map(self) -> tuple[Expr, ...]:
        """p~_k(t, x, p): the induced momentum change in old coordinates."""
        x_subst = {Var.space(j): self.x_fwd[j] for j in range(self.n)}
        out = []
        for k in range(self.n):
            terms = []
            for j in range(self.n):
                # dx^j/dx~^k pulled back to the old chart
                factor = self.jac_inv[j][k].substitute(x_subst)
                terms.append(factor * self.dt_fwd * Coord(Var.momentum(j)))
            out.append(esum(terms))
        return tuple(out)

    @cached_property
    def dmomentum_dt(self) -> tuple[Expr, ...]:
        return tuple(e.diff(Var.time()) for e in self.momentum_map)

    @cached_property
    def dmomentum_dx(self) -> tuple[tuple[Expr, ...], ...]:
        return tuple(
            tuple(e.diff(Var.space(i)) for i in range(self.n))
            for e in self.momentum_map
        )


def identity_change(n: int) -> CoordChange:
    xs = tuple(Coord(Var.space(i)) for i in range(n))
    t = Coord(Var.time())
    return CoordChange(n, t, t, xs, xs)


def compose_changes(outer: CoordChange, inner: CoordChange) -> CoordChange:
    """The change applying inner first, then outer (expression-level)."""
    if outer.n != inner.n:
        raise DimensionError("cannot compose changes of different dimension")
    n = outer.n
    t_sub_fwd = {Var.time(): inner.t_fwd}
    x_sub_fwd = {Var.space(i): inner.x_fwd[i] for i in range(n)}
    t_sub_inv = {Var.time(): outer.t_inv}
    x_sub_inv = {Var.space(i): outer.x_inv[i] for i in range(n)}
    return CoordChange(
        n,
        outer.t_fwd.substitute(t_sub_fwd),
        inner.t_inv.substitute(t_sub_inv),
        tuple(e.substitute(x_sub_fwd) for e in outer.x_fwd),
        tuple(e.substitute(x_sub_inv) for e in inner.x_inv),
    )


@dataclass
class TransitionData:
    """All transition factors of a change, evaluated at one point.

    jac[i][j] = dx~^i/dx^j at x(q); jac_inv[i][j] = dx^i/dx~^j at x~(x(q));
    dp_tilde_dt[k] = dp~_k/dt and dp_tilde_dx[k][i] = dp~_k/dx^i, both taken
    from the composed momentum expression at fixed remaining coordinates.
    """

    dt_tilde_dt: float
    dt_dt_tilde: float
    jac: np.ndarray
    jac_inv: np.ndarray
    dp_tilde_dt: np.ndarray
    dp_tilde_dx: np.ndarray


def _require_regular(c: CoordChange, q: Point) -> tuple[float, np.ndarray]:
    dt = c.dt_fwd.eval(q)
    if abs(dt) <= REGULARITY_EPS:
        raise RegularityError(f"dt~/dt = {dt} at t = {q.t}")
    jac = np.array(
        [[c.jac_fwd[i][j].eval(q) for j in range(c.n)] for i in range(c.n)]
    )
    det = float(np.linalg.det(jac))
    if abs(det) <= REGULARITY_EPS:
        raise RegularityError(f"det(dx~/dx) = {det} at x = {q.x}")
    return dt, jac


def induced_point(c: CoordChange, q: Point) -> Point:
    """Image of q under the induced change on the dual 1-jet space."""
    if q.n != c.n:
        raise DimensionError(f"point has n={q.n}, change has n={c.n}")
    _require_regular(c, q)
    return Point(
        c.t_fwd.eval(q),
        tuple(e.eval(q) for e in c.x_fwd),
        tuple(e.eval(q) for e in c.momentum_map),
    )


def transition(c: CoordChange, q: Point) -> TransitionData:
    """Evaluate every transition factor of c at q (with inverse cross-checks)."""
    if q.n != c.n:
        raise DimensionError(f"point has n={q.n}, change has n={c.n}")
    n = c.n
    dt, jac = _require_regular(c, q)

    image = induced_point(c, q)
    dt_inv = c.dt_inv.eval(image)
    jac_inv = np.array(
        [[c.jac_inv[i][j].eval(image) for j in range(n)] for i in range(n)]
    )

    # user-supplied inverses are cross-checked, not trusted
    if abs(dt * dt_inv - 1.0) > INVERSE_CHECK_TOL:
        raise ChartInverseError(
            f"t_inv is not the inverse of t_fwd at t={q.t}: dt~/dt * dt/dt~ = {dt * dt_inv}"
        )
    if np.max(np.abs(jac @ jac_inv - np.eye(n))) > INVERSE_CHECK_TOL:
        raise ChartInverseError(f"x_inv is not the inverse of x_fwd at x={q.x}")

    return TransitionData(
        dt_tilde_dt=dt,
        dt_dt_tilde=dt_inv,
        jac=jac,
        jac_inv=jac_inv,
        dp_tilde_dt=np.array([e.eval(q) for e in c.dmomentum_dt]),
        dp_tilde_dx=np.array(
            [[c.dmomentum_dx[k][i].eval(q) for i in range(n)] for k in range(n)]
        ),
    )


def natural_frame_matrix(td: TransitionData) -> np.ndarray:
    """Rows: old natural frame vectors (d/dt, d/dx^i, d/dp_i) expressed in
    the new natural frame, in block order (t, x, p)."""
    n = td.jac.shape[0]
    m = np.zeros((2 * n + 1, 2 * n + 1))
    m[0, 0] = td.dt_tilde_dt
    m[0, n + 1 :] = td.dp_tilde_dt
    for i in range(n):
        m[1 + i, 1 : n + 1] = td.jac[:, i]
        m[1 + i, n + 1 :] = td.dp_tilde_dx[:, i]
    for i in range(n):
        m[n + 1 + i, n + 1 :] = td.jac_inv[i, :] * td.dt_tilde_dt
    return m


def natural_coframe_matrix(td: TransitionData, td_inv: TransitionData) -> np.ndarray:
    """Rows: old natural coframe covectors (dt, dx^i, dp_i) expressed in the
    new natural coframe.  td_inv holds the inverse change's factors at the
    image point (dp_i/dt~ and dp_i/dx~^j live there)."""
    n = td.jac.shape[0]
    m = np.zeros((2 * n + 1, 2 * n + 1))
    m[0, 0] = td.dt_dt_tilde
    for i in range(n):
        m[1 + i, 1 : n + 1] = td.jac_inv[i, :]
    for i in range(n):
        m[n + 1 + i, 0] = td_inv.dp_tilde_dt[i]
        m[n + 1 + i, 1 : n + 1] = td_inv.dp_tilde_dx[i, :]
        m[n + 1 + i, n + 1 :] = td.jac[:, i] * td.dt_dt_tilde
    return m


def verify_frame_rules(c: CoordChange, q: Point, tol: float = 1e-9) -> Report:
    """Check that the natural frame and coframe rules are mutually inverse.

    The frame rows (how old basis vectors expand in the new basis) and the
    coframe rows must pair to the identity; the report carries one record
    per matrix entry of coframe @ frame^T - I.
    """
    td = transition(c, q)
    td_inv = transition(c.inverse(), induced_point(c, q))
    frame = natural_frame_matrix(td)
    coframe = natural_coframe_matrix(td, td_inv)
    deviation = np.abs(coframe @ frame.T - np.eye(2 * c.n + 1))
    records = []
    flat = q.flat()
    for a in range(2 * c.n + 1):
        for b in range(2 * c.n + 1):
            r = float(deviation[a, b])
            records.append(
                CheckRecord(
                    check_id="frame_rules",
                    chart="",
                    point=flat,
                    residual=r,
                    passed=r <= tol,
                )
            )
    return Report.of(records)


def scalar_to_new_chart(e: Expr, c: CoordChange) -> Expr:
    """Re-express a scalar field on the phase space in the new chart's
    coordinates (the variables of the result are read as tilde ones)."""
    inv = c.inverse()
    subst = {Var.time(): c.t_inv}
    for j in range(c.n):
        subst[Var.space(j)] = c.x_inv[j]
        subst[Var.momentum(j)] = inv.momentum_map[j]
    return compose(e, subst)
