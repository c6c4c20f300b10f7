"""Coordinate changes on R x M and the change they induce on momenta.

A chart change is a pair of diffeomorphisms t~(t), x~(x) with explicit,
user-supplied inverses (no numeric root finding).  The momenta transform
with both the spatial Jacobian and the time reparametrization factor:

    p~_i = (dx^j/dx~^i) (dt~/dt) p_j

so this is a relativistic-time phase space: reparametrizing time rescales
momenta.  All transition factors, including the inhomogeneous ones
(dp~/dt needs the second derivative of t~), come from exact symbolic
differentiation of the composed momentum expression.

Each change compiles what a transition evaluates into two ``Program``s,
run in this order at a point new to it: the regularity program (dt~/dt,
checked, then the Jacobian, whose determinant is checked) and the forward
program (the image and the momentum derivatives).  A change's inverse is
one object whose inverse is the change, so dt/dt~ and dx/dx~ at the image
are the inverse's dt~/dt and Jacobian there, read by the cross-checks from
the inverse's memo, which its regularity run fills once per point.
Regularity runs apart from the momentum map, which usually leaves its
domain at a singular point (x~ = x^3 at x = 0), so that the error names
the cause.  Of two faults at one point, a Jacobian's DomainError comes
before a singular dt~/dt, and a momentum derivative that is not finite or
leaves its domain raises from ``induced_point``, before the inverse
cross-checks.  The change keeps, per point, what it computed, so the laws
that all contract with the same factors evaluate them once per (change,
point): the transition factors as one read-only float row, whose views
are the fields of its ``TransitionData``.

``map_points`` fills that memo for a whole point set in one pass: each
stage runs over all the points before the next, a program over a large
point set in one ``Program.run_points`` pass, the checks run on stacks
(one ``np.linalg.det`` call, the cross-checks summed left to right as
floats are), and the rows of one pass are the rows of one array.  A pass
either fills the memo at every point it was given, or keeps nothing and
raises.  The laws call it before visiting their points one by one, so
those visits find the memo filled.  On a miss, as after a failed pass,
``induced_point`` and ``transition`` make the same pass over their one
point, which raises the point's first error, so the error raised is the
one a point-by-point visit meets first.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from . import expr
from .errors import ChartInverseError, DimensionError, JethamError, RegularityError
from .expr import Expr, Point, PointSet, Program, Var, check_vars, compose, diff, esum, pvar

__all__ = [
    "CoordChange",
    "TransitionData",
    "induced_point",
    "map_points",
    "transition",
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
    the change lives: ``_mapped`` holds a point's image and transition
    data, ``_regular`` its regularity values.  A pass that fails keeps
    nothing: the next call at its points computes them again.
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
        derivatives, programs and memo are kept, and ``c.inverse().inverse()
        is c``.  The inverse holds this change by a weak reference; once this
        change is dropped, the inverse builds an equal one."""
        forward = vars(self).get("_forward")
        return (forward and forward()) or self._inverse

    @cached_property
    def _inverse(self) -> "CoordChange":
        inverse = CoordChange(self.n, self.t_inv, self.t_fwd, self.x_inv, self.x_fwd)
        vars(inverse)["_forward"] = weakref.ref(self)
        return inverse

    # -- cached symbolic derivatives ----------------------------------------

    @cached_property
    def dt_fwd(self) -> Expr:
        return self.t_fwd.diff(Var.time())

    @property
    def dt_inv(self) -> Expr:
        return self.inverse().dt_fwd

    @cached_property
    def jac_fwd(self) -> tuple[tuple[Expr, ...], ...]:
        """[i][j] = dx~^i/dx^j, as expressions in the old x."""
        return _jacobian(self.x_fwd, [Var.space(j) for j in range(self.n)])

    @property
    def jac_inv(self) -> tuple[tuple[Expr, ...], ...]:
        """[i][j] = dx^i/dx~^j, as expressions in the tilde x."""
        return self.inverse().jac_fwd

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
                terms.append(factor * self.dt_fwd * pvar(j))
            out.append(esum(terms))
        return tuple(out)

    @cached_property
    def dmomentum_dt(self) -> tuple[Expr, ...]:
        return tuple(row[0] for row in _jacobian(self.momentum_map, [Var.time()]))

    @cached_property
    def dmomentum_dx(self) -> tuple[tuple[Expr, ...], ...]:
        return _jacobian(self.momentum_map, [Var.space(i) for i in range(self.n)])

    # -- compiled evaluation programs, in the order a transition runs them --

    @cached_property
    def _regularity_program(self) -> Program:
        return Program((self.dt_fwd, *_flat(self.jac_fwd)))

    @cached_property
    def _forward_program(self) -> Program:
        image = (self.t_fwd, *self.x_fwd, *self.momentum_map)
        return Program((*image, *self.dmomentum_dt, *_flat(self.dmomentum_dx)))

    # -- per-point memo -----------------------------------------------------

    @cached_property
    def _mapped(self) -> dict[bytes, tuple[Point, "TransitionData"]]:
        return {}

    @cached_property
    def _regular(self) -> dict[bytes, np.ndarray]:
        return {}


def _jacobian(exprs, variables: list[Var]) -> tuple[tuple[Expr, ...], ...]:
    """[i][j] = d exprs[i] / d variables[j], with one derivative memo per
    variable, so a subtree the expressions share is differentiated once."""
    memos = [{} for _ in variables]
    return tuple(
        tuple(diff(e, v, memo) for v, memo in zip(variables, memos)) for e in exprs
    )


def _flat(rows: tuple[tuple[Expr, ...], ...]) -> list[Expr]:
    return [e for row in rows for e in row]


@dataclass(frozen=True)
class TransitionData:
    """All transition factors of a change, evaluated at one point.

    jac[i][j] = dx~^i/dx^j at x(q); jac_inv[i][j] = dx^i/dx~^j at x~(x(q));
    dp_tilde_dt[k] = dp~_k/dt and dp_tilde_dx[k][i] = dp~_k/dx^i, both taken
    from the composed momentum expression at fixed remaining coordinates.
    One object is shared by every caller at the same (change, point): its
    arrays are read-only views of one float64 row, ``row``, that holds
    (dt~/dt, dt/dt~, jac, jac_inv, dp~/dt, dp~/dx) flat, and its two time
    factors are floats.

    A change's pass over a point set keeps its rows as one stacked
    ``TransitionData`` (``of_rows``), whose fields have the points first,
    as the laws read them.  The data it hands out per point are views of
    its rows (``of_pass``), and each names its pass and its index there,
    outside the fields, so that ``report.stack`` of one pass's points in
    pass order is the pass's own stack (``whole_pass``), with no copy.
    Transition data built field by field have no row, and cannot be
    stacked.
    """

    dt_tilde_dt: float
    dt_dt_tilde: float
    jac: np.ndarray
    jac_inv: np.ndarray
    dp_tilde_dt: np.ndarray
    dp_tilde_dx: np.ndarray
    row: np.ndarray | None = field(default=None, repr=False, compare=False)
    # not fields: a per-point view's pass and its row's index there
    _pass = None
    _index = -1

    @classmethod
    def of_rows(cls, rows: np.ndarray, n: int) -> "TransitionData":
        """The transition data of rows (points, 2 + 3n^2 + n), one row per
        point: every field is a view of rows, with the points first."""
        return cls(rows[:, 0], rows[:, 1], *_array_views(rows, n), rows)

    def of_pass(self) -> list["TransitionData"]:
        """Per row of this stacked pass, the transition data at its point:
        views of the row, naming this pass and the row's index."""
        times = self.dt_tilde_dt.tolist(), self.dt_dt_tilde.tolist()
        views = zip(*times, self.jac, self.jac_inv, self.dp_tilde_dt, self.dp_tilde_dx, self.row)
        data = []
        for index, (dt, dt_inv, jac, jac_inv, dp_dt, dp_dx, row) in enumerate(views):
            # the fields __init__ sets, stored without its frozen-field setattr calls
            td = object.__new__(TransitionData)
            vars(td).update(dt_tilde_dt=dt, dt_dt_tilde=dt_inv, jac=jac, jac_inv=jac_inv,
                            dp_tilde_dt=dp_dt, dp_tilde_dx=dp_dx, row=row,
                            _pass=self, _index=index)
            data.append(td)
        return data

    @staticmethod
    def whole_pass(column: Sequence["TransitionData"]) -> "TransitionData | None":
        """The stacked pass whose rows column is, each once and in pass
        order, or None."""
        whole = column[0]._pass
        if whole is None or len(column) != len(whole.row):
            return None
        for index, td in enumerate(column):
            if td._pass is not whole or td._index != index:
                return None
        return whole


def _array_views(rows: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """jac, jac_inv, dp~/dt and dp~/dx as views of rows (..., 2 + 3n^2 + n)."""
    lead, nn = rows.shape[:-1], n * n
    return (
        rows[..., 2 : 2 + nn].reshape(*lead, n, n),
        rows[..., 2 + nn : 2 + 2 * nn].reshape(*lead, n, n),
        rows[..., 2 + 2 * nn : 2 + 2 * nn + n],
        rows[..., 2 + 2 * nn + n :].reshape(*lead, n, n),
    )


def induced_point(c: CoordChange, q: Point) -> Point:
    """Image of q under the induced change on the dual 1-jet space.  A point
    new to c is mapped by ``map_points`` over q alone, so the transition
    data there are computed and checked too."""
    if q.key not in c._mapped:  # a point of another dimension always misses
        map_points(c, (q,))
    return c._mapped[q.key][0]


def transition(c: CoordChange, q: Point) -> TransitionData:
    """Evaluate every transition factor of c at q (with inverse cross-checks):
    the data of the entry that ``induced_point`` finds or fills."""
    induced_point(c, q)
    return c._mapped[q.key][1]


def map_points(c: CoordChange, points: Sequence[Point]) -> list[Point]:
    """Fill c's memo at the points: each point's image, transition data and
    regularity values.  Returns the images of the points, in order, or []
    where the pass failed.

    The points c has not mapped are taken once each, in order, and every
    program runs once per point new to it, a whole stage over the points
    before the next (``_rows``): the regularity program, the checks of
    dt~/dt and of the Jacobian's determinant (one ``np.linalg.det`` over
    the stack), the forward program, the inverse's regularity program at
    the images, then the inverse cross-checks over the stack.  A pass fills
    the memo at every point it was given, or keeps nothing.  Over one point
    it raises the first error it meets, the one ``induced_point`` and
    ``transition`` raise; over more points it returns [], and each point's
    own one-point pass then raises its error as the laws visit the points.
    """
    mapped, todo = c._mapped, {}
    for q in points:
        if q.key not in mapped:
            todo.setdefault(q.key, q)
    if todo:
        try:
            # a set of new, distinct points keeps its array
            _fill(c, PointSet.of(points) if len(todo) == len(points) else PointSet(todo.values()))
        except JethamError:
            if len(points) == 1:
                raise
            return []
    return [mapped[q.key][0] for q in points]


def _fill(c: CoordChange, todo: PointSet) -> None:
    """``map_points`` over distinct points c has not mapped: raises the
    first failing point's error at the first stage that fails, keeping
    nothing, or keeps the pass at every point, and the inverse's
    regularity values at the images.  The pass's images are one
    ``PointSet``, built from the forward table's array, and its transition
    data one stacked ``TransitionData`` of one C-ordered array, whose views
    the memo keeps per point."""
    inverse, n = c.inverse(), c.n

    def check(ok: np.ndarray, error_at) -> None:
        """Raise error_at(k) at the first point k where ok is false."""
        if not ok.all():
            raise error_at(int(np.argmin(ok)))

    check(
        np.array([q.n == n for q in todo]),
        lambda k: DimensionError(f"point has n={todo[k].n}, change has n={n}"),
    )
    fwd, fresh = _regular_rows(c, todo)

    # negated tests, so that NaN (false under every comparison) is rejected
    check(
        np.abs(fwd[:, 0]) > REGULARITY_EPS,
        lambda k: RegularityError(f"dt~/dt = {float(fwd[k, 0])} at t = {todo[k].t}"),
    )
    jac = fwd[:, 1:].reshape(-1, n, n)
    det = np.linalg.det(jac)
    check(
        np.abs(det) > REGULARITY_EPS,
        lambda k: RegularityError(f"det(dx~/dx) = {float(det[k])} at x = {todo[k].x}"),
    )

    table = _rows(c._forward_program, todo)
    images = PointSet.of_rows(np.ascontiguousarray(table[:, : 2 * n + 1]), n)
    inv, at_images = _regular_rows(inverse, images)

    # user-supplied inverses are cross-checked, not trusted, as floats would
    # be: dt~/dt * dt/dt~, then each entry of jac @ jac_inv summed left to
    # right, as sum() adds
    with np.errstate(over="ignore", invalid="ignore"):
        check(
            np.abs(fwd[:, 0] * inv[:, 0] - 1.0) <= INVERSE_CHECK_TOL,
            lambda k: ChartInverseError(
                f"t_inv is not the inverse of t_fwd at t={todo[k].t}: "
                f"dt~/dt * dt/dt~ = {float(fwd[k, 0] * inv[k, 0])}"
            ),
        )
        jac_inv = inv[:, 1:].reshape(-1, n, n)
        product = jac[:, :, :1] * jac_inv[:, :1, :]
        for m in range(1, n):
            product = product + jac[:, :, m : m + 1] * jac_inv[:, m : m + 1, :]
        check(
            (np.abs(product - np.eye(n)) <= INVERSE_CHECK_TOL).all(axis=(1, 2)),
            lambda k: ChartInverseError(f"x_inv is not the inverse of x_fwd at x={todo[k].x}"),
        )

    # every check passed: keep the pass at every point, its rows in C order
    parts = fwd[:, :1], inv[:, :1], fwd[:, 1:], inv[:, 1:], table[:, 2 * n + 1 :]
    rows = np.ascontiguousarray(np.concatenate(parts, axis=1))
    rows.flags.writeable = False
    data = TransitionData.of_rows(rows, n).of_pass()
    c._mapped.update(zip([q.key for q in todo], zip(images, data)))
    c._regular.update(fresh)
    inverse._regular.update(at_images)


def _regular_rows(c: CoordChange, points: PointSet) -> tuple[np.ndarray, dict]:
    """c's regularity values at the points, one row per point, from c's memo
    or one ``_rows`` call over the other distinct points, with those rows."""
    known = c._regular
    new = {q.key: q for q in points if q.key not in known}
    runs = points if len(new) == len(points) else PointSet(new.values())  # keeps an array
    table = _rows(c._regularity_program, runs)
    ran = dict(zip(new, table))
    if len(table) < len(points):
        table = np.array([ran[q.key] if q.key in ran else known[q.key] for q in points])
    return table, ran


def _rows(program: Program, points: PointSet) -> np.ndarray:
    """program's values at the points, a C-ordered (points, roots) float64
    array: one ``Program.run_points`` pass over at least ``BATCH_POINTS``
    points, or else, where there are fewer or the pass gives None, one
    ``run`` per point, in order, so that the first point whose run raises
    raises."""
    if len(points) >= expr.BATCH_POINTS and (table := program.run_points(points)) is not None:
        return table
    return np.array([program.run(q) for q in points], dtype=float)


def natural_frame_matrix(td: TransitionData) -> np.ndarray:
    """Rows: old natural frame vectors (d/dt, d/dx^i, d/dp_i) expressed in
    the new natural frame, in block order (t, x, p).  For a stack of
    transition data, one matrix per point."""
    n = td.jac.shape[-1]
    m = np.zeros(td.jac.shape[:-2] + (2 * n + 1, 2 * n + 1))
    m[..., 0, 0] = td.dt_tilde_dt
    m[..., 0, n + 1 :] = td.dp_tilde_dt
    m[..., 1 : n + 1, 1 : n + 1] = td.jac.mT
    m[..., 1 : n + 1, n + 1 :] = td.dp_tilde_dx.mT
    m[..., n + 1 :, n + 1 :] = td.jac_inv * np.expand_dims(td.dt_tilde_dt, (-2, -1))
    return m


def natural_coframe_matrix(td: TransitionData, td_inv: TransitionData) -> np.ndarray:
    """Rows: old natural coframe covectors (dt, dx^i, dp_i) expressed in the
    new natural coframe.  td_inv holds the inverse change's factors at the
    image point (dp_i/dt~ and dp_i/dx~^j live there).  For stacks of
    transition data, one matrix per point."""
    n = td.jac.shape[-1]
    m = np.zeros(td.jac.shape[:-2] + (2 * n + 1, 2 * n + 1))
    m[..., 0, 0] = td.dt_dt_tilde
    m[..., 1 : n + 1, 1 : n + 1] = td.jac_inv
    m[..., n + 1 :, 0] = td_inv.dp_tilde_dt
    m[..., n + 1 :, 1 : n + 1] = td_inv.dp_tilde_dx
    m[..., n + 1 :, n + 1 :] = td.jac.mT * np.expand_dims(td.dt_dt_tilde, (-2, -1))
    return m


def scalar_to_new_chart(e: Expr, c: CoordChange) -> Expr:
    """Re-express a scalar field on the phase space in the new chart's
    coordinates (the variables of the result are read as tilde ones)."""
    inv = c.inverse()
    subst = {Var.time(): c.t_inv}
    for j in range(c.n):
        subst[Var.space(j)] = c.x_inv[j]
        subst[Var.momentum(j)] = inv.momentum_map[j]
    return compose(e, subst)
