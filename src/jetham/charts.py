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
point): the transition factors as one read-only float row, which the
fields of its ``TransitionData`` view.

``map_points`` fills that memo for a whole point set in one pass: each
stage runs over all the points before the next, a program over a large
point set in one ``Program.run_points`` pass, the checks run on stacks
(one ``np.linalg.det`` call, the cross-checks summed left to right as
floats are), and the rows of one pass are the rows of one array.  The
laws call it before visiting their points one by one, so those visits
find the memo filled.  On a miss, ``induced_point`` and ``transition``
make the same pass over their one point, which raises the point's first
error.  A pass over more points that meets an error keeps what the
one-point passes would have kept up to and at the first failing point,
and leaves that point to its own pass, so the error raised is still the
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
from .expr import Expr, Point, Program, Var, check_vars, compose, diff, esum, pvar

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
    the change lives.  Only programs that ran are kept; a check that failed
    is made again on the next call.
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
    def _visits(self) -> dict[bytes, "_Visit"]:
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
    factors are floats.  ``report.stack`` of several makes one array of
    their rows (``of_rows``), which gives every field a leading points axis,
    as the laws read them.  Transition data built field by field have no
    row, and cannot be stacked.
    """

    dt_tilde_dt: float
    dt_dt_tilde: float
    jac: np.ndarray
    jac_inv: np.ndarray
    dp_tilde_dt: np.ndarray
    dp_tilde_dx: np.ndarray
    row: np.ndarray | None = field(default=None, repr=False, compare=False)

    @classmethod
    def of_rows(cls, rows: np.ndarray, n: int) -> "TransitionData":
        """The transition data of rows (points, 2 + 3n^2 + n), one row per
        point: every field is a view of rows, with the points first."""
        return cls(rows[:, 0], rows[:, 1], *_array_views(rows, n), rows)


def _array_views(rows: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """jac, jac_inv, dp~/dt and dp~/dx as views of rows (..., 2 + 3n^2 + n)."""
    lead, nn = rows.shape[:-1], n * n
    return (
        rows[..., 2 : 2 + nn].reshape(*lead, n, n),
        rows[..., 2 + nn : 2 + 2 * nn].reshape(*lead, n, n),
        rows[..., 2 + 2 * nn : 2 + 2 * nn + n],
        rows[..., 2 + 2 * nn + n :].reshape(*lead, n, n),
    )


class _Visit:
    """What a change has computed at one point: its regularity program's
    values (dt~/dt, then the Jacobian row by row), then the image and dp~
    once the point is regular and mapped, then the transition data."""

    __slots__ = ("factors", "image", "dp", "data")

    def __init__(self, factors: list[float]):
        self.factors, self.image, self.dp, self.data = factors, None, [], None


def induced_point(c: CoordChange, q: Point) -> Point:
    """Image of q under the induced change on the dual 1-jet space.  A point
    new to c is mapped by ``map_points`` over q alone, so the transition
    data there are computed and checked too."""
    visit = c._visits.get(q.key)
    if visit is None or visit.image is None:  # a point of another dimension always misses
        map_points(c, (q,))
        visit = c._visits[q.key]
    return visit.image


def transition(c: CoordChange, q: Point) -> TransitionData:
    """Evaluate every transition factor of c at q (with inverse cross-checks)."""
    induced_point(c, q)
    visit = c._visits[q.key]  # the entry that call found or mapped
    if visit.data is None:  # its cross-checks failed before: make them again
        map_points(c, (q,))
    return visit.data


def map_points(c: CoordChange, points: Sequence[Point]) -> list[Point]:
    """Fill c's memo at the points: each point's regularity values, image
    and transition data.  Returns the images of the points, in order, up to
    the first point that failed.

    The points new to c are taken once each, in order, and every program
    runs once per point, a whole stage over the points before the next
    (over at least ``BATCH_POINTS`` of them, in one ``Program.run_points``
    pass, and point by point where the pass gives None):
    the regularity program, then the checks of dt~/dt and of the
    Jacobian's determinant (one ``np.linalg.det`` over the stack), then the
    forward program, then the inverse's regularity program at the images,
    then the inverse cross-checks over the stack.  Once a point fails a
    stage, the later stages run only at the points before it.  A pass over
    one point raises the first error it meets, the one ``induced_point``
    and ``transition`` raise.  A pass over more points keeps what the
    one-point passes before the first failing point would have kept, and
    what that point's pass keeps before it raises, and returns: the
    failing point's own one-point pass then raises its error.
    """
    memo, todo, images = c._visits, {}, []
    for q in points:
        visit = memo.get(q.key)
        if visit is None or visit.data is None:
            todo.setdefault(q.key, q)
        else:
            images.append(visit.image)
    if not todo:
        return images
    error = _fill(c, list(todo.values()))
    if error is not None and len(points) == 1:
        raise error
    images = []
    for q in points:
        visit = memo.get(q.key)
        if visit is None or visit.data is None:
            break
        images.append(visit.image)
    return images


def _fill(c: CoordChange, todo: list[Point]) -> JethamError | None:
    """``map_points`` over points new to c: the first failing point's error,
    or None."""
    memo, inverse, n = c._visits, c.inverse(), c.n
    stop, error = len(todo), None  # the first failing point, and its error

    def fail(k: int, exc: JethamError) -> None:
        nonlocal stop, error
        if k < stop:
            stop, error = k, exc

    def check(ok: np.ndarray, error_at) -> None:
        """Fail at the first point where ok is false, with error_at(k)."""
        if not ok.all():
            k = int(np.argmin(ok))
            fail(k, error_at(k))

    def each(step) -> list:
        """step(i) at each point before stop, up to the first that raises."""
        out = []
        try:
            for i in range(stop):
                out.append(step(i))
        except JethamError as exc:
            fail(len(out), exc)
        return out

    check(
        np.array([q.n == n for q in todo]),
        lambda k: DimensionError(f"point has n={todo[k].n}, change has n={n}"),
    )
    visits = [memo.get(q.key) for q in todo[:stop]]
    regular = _run_points(c._regularity_program, {i: todo[i] for i in range(stop) if not visits[i]})
    factors = each(
        lambda i: visits[i].factors if visits[i]
        else regular[i] if i in regular else c._regularity_program.run(todo[i])
    )

    # negated tests, so that NaN (false under every comparison) is rejected
    if stop:
        fwd = np.array(factors[:stop])
        check(
            np.abs(fwd[:, 0]) > REGULARITY_EPS,
            lambda k: RegularityError(f"dt~/dt = {factors[k][0]} at t = {todo[k].t}"),
        )
    if stop:
        det = np.linalg.det(fwd[:stop, 1:].reshape(stop, n, n))
        check(
            np.abs(det) > REGULARITY_EPS,
            lambda k: RegularityError(f"det(dx~/dx) = {float(det[k])} at x = {todo[k].x}"),
        )

    def unmapped(i: int) -> bool:
        return not visits[i] or visits[i].image is None

    forwarded = _run_points(c._forward_program, {i: todo[i] for i in range(stop) if unmapped(i)})

    def forward(i: int) -> tuple[Point, list[float]]:
        if not unmapped(i):
            return visits[i].image, visits[i].dp
        values = forwarded[i] if i in forwarded else c._forward_program.run(todo[i])
        image = Point(values[0], tuple(values[1 : n + 1]), tuple(values[n + 1 : 2 * n + 1]))
        return image, values[2 * n + 1 :]

    mapped = each(forward)
    # the inverse's regularity values at images new to its memo
    images = {image.key: image for image, _ in mapped[:stop] if image.key not in inverse._visits}
    ran = {
        key: _Visit(values)
        for key, values in _run_points(inverse._regularity_program, images).items()
    }

    def at_image(i: int) -> _Visit:
        image = mapped[i][0]
        visit = inverse._visits.get(image.key) or ran.get(image.key)
        if visit is None:
            visit = ran[image.key] = _Visit(inverse._regularity_program.run(image))
        return visit

    inverse_visits = each(at_image)

    # user-supplied inverses are cross-checked, not trusted, as floats would
    # be: dt~/dt * dt/dt~, then each entry of jac @ jac_inv summed left to
    # right, as sum() adds
    if stop:
        fwd, inv = fwd[:stop], np.array([v.factors for v in inverse_visits[:stop]])
        with np.errstate(over="ignore", invalid="ignore"):
            check(
                np.abs(fwd[:, 0] * inv[:, 0] - 1.0) <= INVERSE_CHECK_TOL,
                lambda k: ChartInverseError(
                    f"t_inv is not the inverse of t_fwd at t={todo[k].t}: "
                    f"dt~/dt * dt/dt~ = {factors[k][0] * inverse_visits[k].factors[0]}"
                ),
            )
            jac, jac_inv = fwd[:stop, 1:].reshape(-1, n, n), inv[:stop, 1:].reshape(-1, n, n)
            product = jac[:, :, :1] * jac_inv[:, :1, :]
            for m in range(1, n):
                product = product + jac[:, :, m : m + 1] * jac_inv[:, m : m + 1, :]
            check(
                (np.abs(product - np.eye(n)) <= INVERSE_CHECK_TOL).all(axis=(1, 2)),
                lambda k: ChartInverseError(f"x_inv is not the inverse of x_fwd at x={todo[k].x}"),
            )

    # keep what each point's own pass keeps: all of it before stop, and at
    # stop what its stages computed before the one that failed
    for i, q in enumerate(todo[: stop + 1]):
        if i < len(factors) and visits[i] is None:
            visits[i] = memo[q.key] = _Visit(factors[i])
        if i < len(mapped):
            visits[i].image, visits[i].dp = mapped[i]
        if i < len(inverse_visits):
            inverse._visits.setdefault(mapped[i][0].key, inverse_visits[i])
    if stop:
        fwd, inv, dp = fwd[:stop], inv[:stop], np.array([values for _, values in mapped[:stop]])
        rows = np.concatenate((fwd[:, :1], inv[:, :1], fwd[:, 1:], inv[:, 1:], dp), axis=1)
        rows.flags.writeable = False
        times = rows[:, 0].tolist(), rows[:, 1].tolist()
        for visit, *fields in zip(visits[:stop], *times, *_array_views(rows, n), rows):
            visit.data = TransitionData(*fields)
    return error


def _run_points(program: Program, points: dict) -> dict:
    """program's values at points, as run returns them and under the same
    keys, from one ``Program.run_points`` pass where there are at least
    ``BATCH_POINTS`` of them; {} where there are fewer, or where a run
    would raise, whose caller then runs the points one by one."""
    if len(points) < expr.BATCH_POINTS:
        return {}
    table = program.run_points(list(points.values()))
    return {} if table is None else dict(zip(points, table.tolist()))


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
