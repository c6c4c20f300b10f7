"""Coordinate changes on R x M and the change they induce on momenta.

A chart change is a pair of diffeomorphisms t~(t), x~(x) with explicit,
user-supplied inverses (no numeric root finding).  The momenta transform
with both the spatial Jacobian and the time reparametrization factor:

    p~_i = (dx^j/dx~^i) (dt~/dt) p_j

so this is a relativistic-time phase space: reparametrizing time rescales
momenta.  All transition factors, including the inhomogeneous ones
(dp~/dt needs the second derivative of t~), come from exact symbolic
differentiation of the composed momentum expression.

Each change compiles the expressions a transition evaluates into five
``Program`` stages and keeps, per point, the image and the transition data
it computed, so the laws that all contract with the same factors evaluate
them once per (change, point).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ChartInverseError, DimensionError, RegularityError
from .expr import Coord, Expr, Point, Program, Var, check_vars, compose, esum
from .report import Report, check_points

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
    point a transition is computed at, the first time it is computed there.

    The change memoizes its results per point, keyed on the exact float
    bits of the point (so -0.0 and 0.0 are different keys), for as long as
    the change lives.  Only successes are kept; a point that raised is
    evaluated again on the next call.
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
        """The reverse change: the same object on every call, so its cached
        derivatives, programs and memo are kept.  It holds no reference
        back to this change."""
        return self._inverse

    @cached_property
    def _inverse(self) -> "CoordChange":
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

    # -- compiled evaluation stages, in the order a transition runs them ----

    @cached_property
    def _dt_program(self) -> Program:
        return Program([self.dt_fwd])

    @cached_property
    def _jac_program(self) -> Program:
        return Program(_flat(self.jac_fwd))

    @cached_property
    def _image_program(self) -> Program:
        return Program((self.t_fwd, *self.x_fwd, *self.momentum_map))

    @cached_property
    def _inverse_factor_program(self) -> Program:
        """dt/dt~ and dx/dx~, run at the image point."""
        return Program((self.dt_inv, *_flat(self.jac_inv)))

    @cached_property
    def _momentum_derivative_program(self) -> Program:
        return Program((*self.dmomentum_dt, *_flat(self.dmomentum_dx)))

    # -- per-point memo -----------------------------------------------------

    @cached_property
    def _visits(self) -> dict[bytes, "_Visit"]:
        return {}


def _flat(rows: tuple[tuple[Expr, ...], ...]) -> list[Expr]:
    return [e for row in rows for e in row]


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


@dataclass(frozen=True)
class TransitionData:
    """All transition factors of a change, evaluated at one point.

    jac[i][j] = dx~^i/dx^j at x(q); jac_inv[i][j] = dx^i/dx~^j at x~(x(q));
    dp_tilde_dt[k] = dp~_k/dt and dp_tilde_dx[k][i] = dp~_k/dx^i, both taken
    from the composed momentum expression at fixed remaining coordinates.
    One object is shared by every caller at the same (change, point), so
    its arrays are read-only.
    """

    dt_tilde_dt: float
    dt_dt_tilde: float
    jac: np.ndarray
    jac_inv: np.ndarray
    dp_tilde_dt: np.ndarray
    dp_tilde_dx: np.ndarray


class _Visit:
    """What a change has computed at one point: the image and the regular
    forward factors, then the transition data once a transition succeeded."""

    __slots__ = ("image", "dt", "jac", "data")

    def __init__(self, image: Point, dt: float, jac: np.ndarray):
        self.image, self.dt, self.jac = image, dt, jac
        self.data: TransitionData | None = None


def _read_only(values: list[float], shape: tuple[int, ...]) -> np.ndarray:
    a = np.array(values).reshape(shape)
    a.flags.writeable = False
    return a


def _require_regular(c: CoordChange, q: Point) -> tuple[float, np.ndarray]:
    # negated tests, so that NaN (false under every comparison) is rejected
    (dt,) = c._dt_program.run(q)
    if not abs(dt) > REGULARITY_EPS:
        raise RegularityError(f"dt~/dt = {dt} at t = {q.t}")
    jac = _read_only(c._jac_program.run(q), (c.n, c.n))
    det = float(np.linalg.det(jac))
    if not abs(det) > REGULARITY_EPS:
        raise RegularityError(f"det(dx~/dx) = {det} at x = {q.x}")
    return dt, jac


def _visit(c: CoordChange, q: Point) -> _Visit:
    """c's memo entry for q; a miss checks regularity and maps q."""
    visit = c._visits.get(q.key)
    if visit is None:
        dt, jac = _require_regular(c, q)
        values = c._image_program.run(q)
        n = c.n
        image = Point(values[0], tuple(values[1 : n + 1]), tuple(values[n + 1 :]))
        visit = c._visits[q.key] = _Visit(image, dt, jac)
    return visit


def induced_point(c: CoordChange, q: Point) -> Point:
    """Image of q under the induced change on the dual 1-jet space."""
    if q.n != c.n:
        raise DimensionError(f"point has n={q.n}, change has n={c.n}")
    return _visit(c, q).image


def transition(c: CoordChange, q: Point) -> TransitionData:
    """Evaluate every transition factor of c at q (with inverse cross-checks)."""
    if q.n != c.n:
        raise DimensionError(f"point has n={q.n}, change has n={c.n}")
    image = induced_point(c, q)
    visit = _visit(c, q)
    if visit.data is None:
        visit.data = _transition_data(c, q, image, visit.dt, visit.jac)
    return visit.data


def _transition_data(
    c: CoordChange, q: Point, image: Point, dt: float, jac: np.ndarray
) -> TransitionData:
    n = c.n
    dt_inv, *inverse_jac = c._inverse_factor_program.run(image)
    jac_inv = _read_only(inverse_jac, (n, n))

    # user-supplied inverses are cross-checked, not trusted; the tests are
    # negated, so that NaN (false under every comparison) is rejected
    if not abs(dt * dt_inv - 1.0) <= INVERSE_CHECK_TOL:
        raise ChartInverseError(
            f"t_inv is not the inverse of t_fwd at t={q.t}: dt~/dt * dt/dt~ = {dt * dt_inv}"
        )
    if not np.max(np.abs(jac @ jac_inv - np.eye(n))) <= INVERSE_CHECK_TOL:
        raise ChartInverseError(f"x_inv is not the inverse of x_fwd at x={q.x}")

    dp = c._momentum_derivative_program.run(q)
    return TransitionData(
        dt_tilde_dt=dt,
        dt_dt_tilde=dt_inv,
        jac=jac,
        jac_inv=jac_inv,
        dp_tilde_dt=_read_only(dp[:n], (n,)),
        dp_tilde_dx=_read_only(dp[n:], (n, n)),
    )


def natural_frame_matrix(td: TransitionData) -> np.ndarray:
    """Rows: old natural frame vectors (d/dt, d/dx^i, d/dp_i) expressed in
    the new natural frame, in block order (t, x, p)."""
    n = td.jac.shape[0]
    m = np.zeros((2 * n + 1, 2 * n + 1))
    m[0, 0] = td.dt_tilde_dt
    m[0, n + 1 :] = td.dp_tilde_dt
    m[1 : n + 1, 1 : n + 1] = td.jac.T
    m[1 : n + 1, n + 1 :] = td.dp_tilde_dx.T
    m[n + 1 :, n + 1 :] = td.jac_inv * td.dt_tilde_dt
    return m


def natural_coframe_matrix(td: TransitionData, td_inv: TransitionData) -> np.ndarray:
    """Rows: old natural coframe covectors (dt, dx^i, dp_i) expressed in the
    new natural coframe.  td_inv holds the inverse change's factors at the
    image point (dp_i/dt~ and dp_i/dx~^j live there)."""
    n = td.jac.shape[0]
    m = np.zeros((2 * n + 1, 2 * n + 1))
    m[0, 0] = td.dt_dt_tilde
    m[1 : n + 1, 1 : n + 1] = td.jac_inv
    m[n + 1 :, 0] = td_inv.dp_tilde_dt
    m[n + 1 :, 1 : n + 1] = td_inv.dp_tilde_dx
    m[n + 1 :, n + 1 :] = td.jac.T * td.dt_dt_tilde
    return m


def verify_frame_rules(c: CoordChange, q: Point, tol: float = 1e-9) -> Report:
    """Check that the natural frame and coframe rules are mutually inverse.

    The frame rows (how old basis vectors expand in the new basis) and the
    coframe rows must pair to the identity; the report carries one record
    per matrix entry of coframe @ frame^T - I, in row-major order.
    """
    size = 2 * c.n + 1

    def compare(q):
        td = transition(c, q)
        td_inv = transition(c.inverse(), induced_point(c, q))
        pairing = natural_coframe_matrix(td, td_inv) @ natural_frame_matrix(td).T
        return np.abs(pairing - np.eye(size)).ravel().tolist()

    return check_points((q,), tol, ("frame_rules",) * size**2, compare)


def scalar_to_new_chart(e: Expr, c: CoordChange) -> Expr:
    """Re-express a scalar field on the phase space in the new chart's
    coordinates (the variables of the result are read as tilde ones)."""
    inv = c.inverse()
    subst = {Var.time(): c.t_inv}
    for j in range(c.n):
        subst[Var.space(j)] = c.x_inv[j]
        subst[Var.momentum(j)] = inv.momentum_map[j]
    return compose(e, subst)
