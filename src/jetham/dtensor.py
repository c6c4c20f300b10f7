"""Distinguished tensor fields and their multilinear transformation law.

A d-tensor carries a signature of six possible index kinds.  Time indices
range over the single value 1 and contribute a scaling factor but no array
axis; space and momentum indices contribute an axis of size n.  A momentum
index is a composite "double index" whose factor is the product of a
spatial Jacobian factor and a time factor -- the same combination the
induced momentum change itself uses, which is what makes the momenta
coordinates a d-tensor field (the Liouville-Hamilton tensor below).

Components transform multilinearly with one factor per slot and no
inhomogeneous terms; semisprays and nonlinear connections fail exactly
this law, which the negative-control tests exercise.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .charts import CoordChange, TransitionData, induced_point, map_points, transition
from .errors import SignatureMismatchError
from .expr import Components, Expr, Point, Var, const, diff, pvar
from .metrics import SpaceMetric, TimeMetric, inverse_time
from .report import Report, check_points, worst_residuals

__all__ = [
    "IndexKind",
    "DTensor",
    "transform_factor",
    "verify_dtensor",
    "vertical_metrical",
    "liouville",
    "momentum_liouville",
    "h_normalization",
    "metric_hamiltonian",
]


class IndexKind(Enum):
    TIME_UP = "time_up"
    TIME_DOWN = "time_down"
    SPACE_UP = "space_up"
    SPACE_DOWN = "space_down"
    MOM_UP = "mom_up"
    MOM_DOWN = "mom_down"

    @property
    def has_axis(self) -> bool:
        return self not in (IndexKind.TIME_UP, IndexKind.TIME_DOWN)


@dataclass(frozen=True, eq=False)
class DTensor(Components):
    """Index-signature-tagged array of expression components.

    comps has one axis of length n per space/momentum slot, in signature
    order; time slots are recorded in the signature only.
    """

    signature: tuple[IndexKind, ...]

    def __post_init__(self):
        super().__post_init__()
        rank = sum(1 for k in self.signature if k.has_axis)
        shape = self.comps.shape
        if len(shape) != rank or any(s != self.n for s in shape):
            raise SignatureMismatchError(
                f"components of shape {shape} do not match signature {self.signature}"
            )


def transform_factor(kind: IndexKind, td: TransitionData):
    """New-frame-in-terms-of-old factor for one index slot: a scalar for
    time kinds, an (new, old) matrix for space/momentum kinds; for a
    stack of td, each factor keeps its leading points axis."""
    if kind is IndexKind.TIME_UP:
        return td.dt_tilde_dt
    if kind is IndexKind.TIME_DOWN:
        return td.dt_dt_tilde
    if kind is IndexKind.SPACE_UP:
        return td.jac
    if kind is IndexKind.SPACE_DOWN:
        return td.jac_inv.mT
    if kind is IndexKind.MOM_UP:
        return td.jac * np.expand_dims(td.dt_dt_tilde, (-2, -1))
    return td.jac_inv.mT * np.expand_dims(td.dt_tilde_dt, (-2, -1))  # MOM_DOWN


def _transform(signature, td: TransitionData, values: np.ndarray) -> np.ndarray:
    """Contract stacked component values with one stacked factor per slot:
    per point, the product np.tensordot forms, in one matmul."""
    axis = 1
    for kind in signature:
        factor = transform_factor(kind, td)
        if kind.has_axis:
            moved = np.moveaxis(values, axis, 1)
            product = factor @ moved.reshape(*moved.shape[:2], -1)
            values = np.moveaxis(product.reshape(moved.shape), 1, axis)
            axis += 1
        else:
            values = values * factor.reshape(-1, *(1,) * (values.ndim - 1))
    return values


def verify_dtensor(
    T_old: DTensor,
    T_new: DTensor,
    c: CoordChange,
    points: Sequence[Point],
    tol: float = 1e-9,
    check_id: str = "dtensor",
    chart: str = "",
) -> Report:
    """Compare the pushed-forward old components against the new-chart
    components at each image point, and back again through the inverse
    change (the law read old-in-terms-of-new contracts with the inverse
    factors, so both readings are exercised)."""
    if T_old.signature != T_new.signature or T_old.n != T_new.n:
        raise SignatureMismatchError(
            f"signatures differ: {T_old.signature} vs {T_new.signature}"
        )
    inverse = c.inverse()
    map_points(inverse, map_points(c, points))

    def visit(q):
        image = induced_point(c, q)
        return image, transition(c, q), transition(inverse, image)

    def law(td, td_inverse, old, new):
        pushed = _transform(T_old.signature, td, old)
        pulled = _transform(T_new.signature, td_inverse, new)
        return (np.maximum(worst_residuals(pushed, new), worst_residuals(pulled, old)),)

    return check_points(
        points, tol, (check_id,), law, chart, reads=(T_old,), image_reads=(T_new,), visit=visit
    )


# ---------------------------------------------------------------------------
# The built-in d-tensor fields
# ---------------------------------------------------------------------------

def vertical_metrical(H: Expr, n: int) -> DTensor:
    """Half the p-Hessian of a Hamiltonian H(t, x, p) over n momenta:
    signature [MOM_UP, MOM_UP]."""
    comps = np.empty((n, n), dtype=object)
    half = const(0.5)
    memos = [{} for _ in range(n)]  # one per momentum, shared by both orders
    for i in range(n):
        di = diff(H, Var.momentum(i), memos[i])
        for j in range(i, n):
            entry = half * diff(di, Var.momentum(j), memos[j])
            comps[i, j] = entry
            comps[j, i] = entry
    return DTensor(n, comps, (IndexKind.MOM_UP, IndexKind.MOM_UP))


def liouville(n: int) -> DTensor:
    """The momenta coordinates themselves: signature [MOM_DOWN]."""
    comps = np.array([pvar(i) for i in range(n)], dtype=object)
    return DTensor(n, comps, (IndexKind.MOM_DOWN,))


def momentum_liouville(h: TimeMetric, n: int) -> DTensor:
    """h_11 p_j: signature [MOM_DOWN, TIME_DOWN, TIME_DOWN]."""
    comps = np.array([h.h11 * pvar(j) for j in range(n)], dtype=object)
    return DTensor(
        n, comps, (IndexKind.MOM_DOWN, IndexKind.TIME_DOWN, IndexKind.TIME_DOWN)
    )


def h_normalization(h: TimeMetric, n: int) -> DTensor:
    """h_11 delta^i_j: signature [MOM_UP, TIME_DOWN, SPACE_DOWN]."""
    zero = const(0)
    comps = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            comps[i, j] = h.h11 if i == j else zero
    return DTensor(
        n, comps, (IndexKind.MOM_UP, IndexKind.TIME_DOWN, IndexKind.SPACE_DOWN)
    )


def metric_hamiltonian(h: TimeMetric, g: SpaceMetric) -> Expr:
    """The kinetic-energy Hamiltonian h^11 g^ij p_i p_j of a metric pair."""
    n = g.n
    hinv = inverse_time(h)
    ginv = g.inverse
    total = const(0)
    for i in range(n):
        for j in range(n):
            total = total + hinv * ginv[i][j] * pvar(i) * pvar(j)
    return total
