"""Semi-Riemannian metric pair (h_11(t), g_ij(x)) and its Christoffel symbols.

"Semi-Riemannian" means invertible, never positive: only |h| and |det g|
are required to stay away from zero on the sampling box.  Inverses are
exact closed-form expressions (adjugate over determinant), which limits
the spatial dimension to n <= 4 -- desk scale, but free of per-point
linear solves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .charts import CoordChange
from .errors import DimensionError
from .expr import Expr, Point, Program, Var, check_vars, const, esum
from .report import worst_residual

__all__ = [
    "TimeMetric",
    "SpaceMetric",
    "ChristoffelTime",
    "ChristoffelSpace",
    "inverse_time",
    "inverse_space",
    "space_metric_det",
    "christoffel_time",
    "christoffel_space",
    "compatibility_residual",
    "transform_time_metric",
    "transform_space_metric",
]

MAX_DIM = 4


@dataclass(frozen=True)
class TimeMetric:
    """One-component metric h_11 on the time axis, a function of t alone."""

    h11: Expr

    def __post_init__(self):
        check_vars(self.h11, {Var.time()}, "time metric")


@dataclass(frozen=True)
class SpaceMetric:
    """Symmetric matrix g_ij(x); symmetry must hold tree-for-tree."""

    n: int
    g: tuple[tuple[Expr, ...], ...]

    def __post_init__(self):
        if len(self.g) != self.n or any(len(row) != self.n for row in self.g):
            raise DimensionError(f"space metric must be {self.n}x{self.n}")
        allowed = {Var.space(i) for i in range(self.n)}
        for i, row in enumerate(self.g):
            for j, entry in enumerate(row):
                check_vars(entry, allowed, f"space metric entry [{i}][{j}]")
                mirror = self.g[j][i]
                # printed text, not the recursive structural ==
                if j > i and entry is not mirror and str(entry) != str(mirror):
                    raise DimensionError(
                        f"space metric entries [{i}][{j}] and [{j}][{i}] differ; "
                        "use identical expressions"
                    )

    # built once per metric object and shared by everything built from it
    @cached_property
    def inverse(self) -> tuple[tuple[Expr, ...], ...]:
        return inverse_space(self)

    @cached_property
    def christoffel(self) -> "ChristoffelSpace":
        return christoffel_space(self)

    @cached_property
    def derivatives(self) -> tuple[tuple[tuple[Expr, ...], ...], ...]:
        """derivatives[i][j][k] = dg_ij/dx^k."""
        n = self.n
        return tuple(
            tuple(tuple(self.g[i][j].diff(Var.space(k)) for k in range(n)) for j in range(n))
            for i in range(n)
        )

    @cached_property
    def _compatibility_program(self) -> Program:
        """The derivatives, then the entries, in index order."""
        return Program([*_flat(self.derivatives), *(e for row in self.g for e in row)])

    @classmethod
    def diagonal(cls, entries: tuple[Expr, ...]) -> "SpaceMetric":
        n = len(entries)
        zero = const(0)
        return cls(
            n,
            tuple(
                tuple(entries[i] if i == j else zero for j in range(n))
                for i in range(n)
            ),
        )


@dataclass(frozen=True)
class ChristoffelTime:
    """H_11^1(t) = (h^11 / 2) dh_11/dt, the single time Christoffel symbol."""

    H111: Expr


@dataclass(frozen=True)
class ChristoffelSpace:
    """gamma[i][j][k] = gamma^i_jk of the spatial metric, symmetric in (j, k)."""

    n: int
    gamma: tuple[tuple[tuple[Expr, ...], ...], ...]

    @cached_property
    def _program(self) -> Program:
        return Program(_flat(self.gamma))


def _flat(planes) -> list[Expr]:
    return [e for plane in planes for row in plane for e in row]


def inverse_time(h: TimeMetric) -> Expr:
    return h.h11 ** Fraction(-1)


def _minor(mat, rows, cols):
    return tuple(
        tuple(mat[r][c] for c in cols) for r in rows
    )


def _det(mat) -> Expr:
    n = len(mat)
    if n == 1:
        return mat[0][0]
    if n == 2:
        return mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
    # Laplace expansion along the first row; n <= 4 keeps this small
    total = None
    cols = tuple(range(n))
    for j in range(n):
        sub = _minor(mat, range(1, n), tuple(c for c in cols if c != j))
        term = mat[0][j] * _det(sub)
        signed = term if j % 2 == 0 else -term
        total = signed if total is None else total + signed
    return total


def space_metric_det(g: SpaceMetric) -> Expr:
    """Closed-form determinant of the spatial metric."""
    return _det(g.g)


def inverse_space(g: SpaceMetric) -> tuple[tuple[Expr, ...], ...]:
    """Closed-form inverse g^ij via adjugate / determinant (n <= 4)."""
    n = g.n
    if n > MAX_DIM:
        raise DimensionError(f"closed-form inverse limited to n <= {MAX_DIM}, got n={n}")
    det = _det(g.g)
    rows = tuple(range(n))
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            if n == 1:
                cof = const(1)
            else:
                sub = _minor(
                    g.g,
                    tuple(r for r in rows if r != j),
                    tuple(c for c in rows if c != i),
                )
                cof = _det(sub)
                if (i + j) % 2 == 1:
                    cof = -cof
            # adjugate is transposed cofactors; (i, j) swap above does it
            row.append(cof / det)
        out.append(tuple(row))
    return tuple(out)


def christoffel_time(h: TimeMetric) -> ChristoffelTime:
    return ChristoffelTime(
        const(0.5) * inverse_time(h) * h.h11.diff(Var.time())
    )


def christoffel_space(g: SpaceMetric) -> ChristoffelSpace:
    """Levi-Civita symbols of g: the unique symmetric metric-compatible
    connection coefficients.  Entries for (j, k) and (k, j) share trees."""
    n = g.n
    if n > MAX_DIM:
        raise DimensionError(f"Christoffel symbols limited to n <= {MAX_DIM}, got n={n}")
    ginv = g.inverse
    dg = g.derivatives
    gamma: list[list[list[Expr]]] = [
        [[None] * n for _ in range(n)] for _ in range(n)  # type: ignore[list-item]
    ]
    half = const(0.5)
    for i in range(n):
        for j in range(n):
            for k in range(j, n):
                entry = esum(
                    half * ginv[i][l] * (dg[l][j][k] + dg[l][k][j] - dg[j][k][l])
                    for l in range(n)
                )
                gamma[i][j][k] = entry
                gamma[i][k][j] = entry
    return ChristoffelSpace(
        n, tuple(tuple(tuple(row) for row in plane) for plane in gamma)
    )


def compatibility_residual(g: SpaceMetric, chr_space: ChristoffelSpace, q: Point) -> float:
    """Max |dg_ij/dx^k - gamma^l_ki g_lj - gamma^l_kj g_il| at q (zero for
    the Levi-Civita connection; NaN when a difference is not a number).
    Both objects compile their values once, on the first call."""
    n, m = g.n, g.n**3
    values = np.array(g._compatibility_program.run(q))
    dg_q = values[:m].reshape(n, n, n).tolist()
    g_q = values[m:].reshape(n, n).tolist()
    gamma_q = np.array(chr_space._program.run(q)).reshape(n, n, n).tolist()
    residuals = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                value = dg_q[i][j][k]
                for l in range(n):
                    value -= gamma_q[l][k][i] * g_q[l][j]
                    value -= gamma_q[l][k][j] * g_q[i][l]
                residuals.append(abs(value))
    return worst_residual(residuals)


def transform_time_metric(h: TimeMetric, c: CoordChange) -> TimeMetric:
    """The same time metric in the new chart: h~ = (dt/dt~)^2 h, written as
    a function of the tilde time."""
    t_sub = {Var.time(): c.t_inv}
    pulled = h.h11.substitute(t_sub)
    factor = c.dt_inv  # dt/dt~ as a function of t~
    return TimeMetric(pulled * factor * factor)


def transform_space_metric(g: SpaceMetric, c: CoordChange) -> SpaceMetric:
    """The same space metric in the new chart:
    g~_ij = g_ab (dx^a/dx~^i)(dx^b/dx~^j), written in the tilde x."""
    if g.n != c.n:
        raise DimensionError("metric and change dimensions differ")
    n = g.n
    x_sub = {Var.space(i): c.x_inv[i] for i in range(n)}
    pulled = [[g.g[a][b].substitute(x_sub) for b in range(n)] for a in range(n)]
    new: list[list[Expr]] = [[None] * n for _ in range(n)]  # type: ignore[list-item]
    for i in range(n):
        for j in range(i, n):
            entry = esum(
                pulled[a][b] * c.jac_inv[a][i] * c.jac_inv[b][j]
                for a in range(n)
                for b in range(n)
            )
            new[i][j] = entry
            new[j][i] = entry
    return SpaceMetric(n, tuple(tuple(row) for row in new))
