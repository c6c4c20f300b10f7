"""Semi-Riemannian metric pair (h_11(t), g_ij(x)) and its Christoffel symbols.

"Semi-Riemannian" means invertible, never positive: only |h| and |det g|
are required to stay away from zero on the sampling box.  Inverses are
exact closed-form expressions (adjugate over determinant), free of
per-point linear solves.  Each minor of g is built once per metric and
shared by the determinant and every cofactor.  Problem files are limited
to n <= 4 because printing expands shared subtrees: the Christoffel text
that ``jetham christoffel`` and ``jetham canonical`` print for a full
metric is about 0.14 MB at n=4, 1.4 MB at n=5 and 12 MB at n=6.

The symbols are one ``Components`` array, gamma[i, j, k] = gamma^i_jk,
checked against g over a stack of points by ``compatibility_residuals``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .charts import CoordChange
from .errors import DimensionError
from .expr import Components, Expr, Var, check_vars, const, diff, esum, pvar, symmetric

__all__ = [
    "TimeMetric",
    "SpaceMetric",
    "inverse_time",
    "inverse_space",
    "space_metric_det",
    "christoffel_time",
    "christoffel_space",
    "compatibility_residuals",
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

    @cached_property
    def christoffel(self) -> Expr:
        """H_11^1(t) = (h^11 / 2) dh_11/dt, built once per metric object."""
        return const(0.5) * inverse_time(self) * self.h11.diff(Var.time())


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
                # by printed text: nodes compare by identity
                if j > i and entry is not mirror and str(entry) != str(mirror):
                    raise DimensionError(
                        f"space metric entries [{i}][{j}] and [{j}][{i}] differ; "
                        "use identical expressions"
                    )
        # the upper entry stands for both, so what is built from a pair is built once
        object.__setattr__(self, "g", symmetric(self.n, lambda i, j: self.g[i][j]))

    # built once per metric object and shared by everything built from it
    @cached_property
    def inverse(self) -> tuple[tuple[Expr, ...], ...]:
        return inverse_space(self)

    @cached_property
    def christoffel(self) -> Components:
        return christoffel_space(self)

    @cached_property
    def contracted_christoffel(self) -> tuple[tuple[Expr, ...], ...]:
        """[j][k] = gamma^i_jk p_i, read by the canonical spatial semispray
        and by the canonical connection alike."""
        gamma = self.christoffel
        return symmetric(self.n, lambda j, k: esum(gamma[i, j, k] * pvar(i) for i in range(self.n)))

    @cached_property
    def _subdets(self) -> dict[tuple[tuple[int, ...], tuple[int, ...]], Expr]:
        """Determinants of square submatrices of g, keyed on (rows, cols)."""
        return {}

    @cached_property
    def derivatives(self) -> tuple[tuple[tuple[Expr, ...], ...], ...]:
        """derivatives[i][j][k] = dg_ij/dx^k."""
        n = self.n
        memos = [{} for _ in range(n)]  # one per x^k, shared by every entry
        return tuple(
            tuple(tuple(diff(self.g[i][j], Var.space(k), memos[k]) for k in range(n))
                  for j in range(n))
            for i in range(n)
        )

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


def inverse_time(h: TimeMetric) -> Expr:
    return h.h11 ** Fraction(-1)


def _subdet(g, rows: tuple[int, ...], cols: tuple[int, ...], table: dict) -> Expr:
    """Determinant of g's submatrix on (rows, cols) by Laplace expansion
    along its first row; each one is built once and kept in table."""
    det = table.get((rows, cols))
    if det is not None:
        return det
    if len(rows) == 1:
        return g[rows[0]][cols[0]]
    if len(rows) == 2:
        (a, b), (c, d) = rows, cols
        det = g[a][c] * g[b][d] - g[a][d] * g[b][c]
    else:
        for j, c in enumerate(cols):
            term = g[rows[0]][c] * _subdet(g, rows[1:], cols[:j] + cols[j + 1:], table)
            signed = term if j % 2 == 0 else -term
            det = signed if det is None else det + signed
    table[rows, cols] = det
    return det


def space_metric_det(g: SpaceMetric) -> Expr:
    """Closed-form determinant of the spatial metric."""
    full = tuple(range(g.n))
    return _subdet(g.g, full, full, g._subdets)


def inverse_space(g: SpaceMetric) -> tuple[tuple[Expr, ...], ...]:
    """Closed-form inverse g^ij via adjugate / determinant."""
    n = g.n
    det = space_metric_det(g)
    full = tuple(range(n))
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            if n == 1:
                cof = const(1)
            else:
                # adjugate is transposed cofactors: drop row j and column i
                cof = _subdet(g.g, full[:j] + full[j + 1:], full[:i] + full[i + 1:], g._subdets)
                if (i + j) % 2 == 1:
                    cof = -cof
            row.append(cof / det)
        out.append(tuple(row))
    return tuple(out)


def christoffel_time(h: TimeMetric) -> Expr:
    """H_11^1(t), the single time Christoffel symbol: the same object on
    every call with one metric."""
    return h.christoffel


def christoffel_space(g: SpaceMetric) -> Components:
    """Levi-Civita symbols gamma[i, j, k] = gamma^i_jk of g: the unique
    symmetric metric-compatible connection coefficients.  Entries for
    (j, k) and (k, j) share trees."""
    n = g.n
    ginv = g.inverse
    dg = g.derivatives
    gamma: list[list[list[Expr]]] = [
        [[None] * n for _ in range(n)] for _ in range(n)  # type: ignore[list-item]
    ]
    half = const(0.5)
    halves = [[half * ginv[i][l] for l in range(n)] for i in range(n)]
    for j in range(n):
        for k in range(j, n):
            # first-kind brackets [jk, l], shared by every i
            brackets = [dg[l][j][k] + dg[l][k][j] - dg[j][k][l] for l in range(n)]
            for i in range(n):
                entry = esum(halves[i][l] * brackets[l] for l in range(n))
                gamma[i][j][k] = entry
                gamma[i][k][j] = entry
    return Components(n, gamma)


def compatibility_residuals(dg: np.ndarray, gamma: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Per point of a leading points axis, max |dg_ij/dx^k - gamma^l_ki g_lj
    - gamma^l_kj g_il| over (i, j, k), from stacked dg[:, i, j, k],
    gamma[:, i, j, k] and g[:, i, j]: zero for the Levi-Civita connection,
    NaN as soon as one difference is not a number.  The l terms are
    subtracted in l order, so each difference is the float a loop over
    (i, j, k) and then l gives."""
    value = dg.copy()
    for l in range(g.shape[-1]):
        plane = gamma[:, l].mT  # plane[:, a, k] = gamma^l_ka
        value -= plane[:, :, None, :] * g[:, l][:, None, :, None]  # gamma^l_ki g_lj
        value -= plane[:, None, :, :] * g[:, :, l][:, :, None, None]  # gamma^l_kj g_il
    return np.abs(value).reshape(len(value), -1).max(axis=1)


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
    n, J = g.n, c.jac_inv
    x_sub = {Var.space(i): c.x_inv[i] for i in range(n)}
    images = {e: e.substitute(x_sub) for e in dict.fromkeys(e for row in g.g for e in row)}
    # [i][a][b] = g_ab (dx^a/dx~^i), shared by every j
    left = [[[images[g.g[a][b]] * J[a][i] for b in range(n)] for a in range(n)] for i in range(n)]
    return SpaceMetric(n, symmetric(n, lambda i, j: esum(
        left[i][a][b] * J[b][j] for a in range(n) for b in range(n)
    )))
