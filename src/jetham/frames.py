"""Adapted frame and coframe of a nonlinear connection.

The adapted frame replaces d/dt and d/dx^i by their horizontal lifts
(delta/delta t, delta/delta x^i); the adapted coframe replaces dp_i by
delta p_i.  Vector and covector fields are handled extensionally, as
component arrays over the natural frame, and the frames themselves are
float matrices filled from the connection's values at a point, so every
claim about the frames (duality, unit triangularity, purely tensorial
transformation, three-way horizontal/vertical splitting) reduces to finite
linear algebra at a point.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

import numpy as np

from .charts import (
    CoordChange,
    induced_point,
    natural_coframe_matrix,
    natural_frame_matrix,
    transition,
)
from .errors import DimensionError
from .expr import Expr, Point, esum
from .nlconn import NonlinearConnection, verify_connection_law
from .report import Report, check_points

__all__ = [
    "adapted_frames",
    "pairing",
    "verify_adapted_tensoriality",
    "decompose",
    "reconstruct",
]


def adapted_frames(N: NonlinearConnection, q: Point) -> tuple[np.ndarray, np.ndarray]:
    """The adapted frame F and coframe C at q, filled from one evaluation of
    the connection.

    Row a of F holds the natural-frame components of adapted vector a,
    vectors ordered (delta/delta t, delta/delta x^i, d/dp_i):

        delta/delta t   = d/dt   - N_(j)1 d/dp_j
        delta/delta x^i = d/dx^i - N_(j)i d/dp_j

    Row a of C holds the natural-coframe components of adapted covector a,
    covectors ordered (dt, dx^i, delta p_i):

        delta p_i = dp_i + N_(i)1 dt + N_(i)j dx^j

    Both are unit triangular with determinant 1: the connection components
    fill the p-columns of F's t/x rows and the t/x-columns of C's p rows.
    """
    n = N.n
    N1, N2 = N.temporal.evaluate(q), N.spatial.evaluate(q)
    F, C = np.eye(2 * n + 1), np.eye(2 * n + 1)
    F[0, n + 1 :] = -N1
    F[1 : n + 1, n + 1 :] = -N2.T
    C[n + 1 :, 0] = N1
    C[n + 1 :, 1 : n + 1] = N2
    return F, C


def pairing(F: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Matrix of <covector a, vector b> values; the identity exactly when F
    and C come from the same connection at the same point."""
    if F.shape != C.shape:
        raise DimensionError("frame and coframe dimensions differ")
    return C @ F.T


def verify_adapted_tensoriality(
    N_old: NonlinearConnection,
    N_new: NonlinearConnection,
    c: CoordChange,
    points: Sequence[Point],
    tol: float = 1e-9,
) -> Report:
    """Check that adapted frames of a law-satisfying connection pair
    transform block-diagonally with the tensorial factors:

        delta/delta t   -> (dt~/dt) delta/delta t~
        delta/delta x^i -> (dx~^j/dx^i) delta/delta x~^j
        d/dp_i          -> (dt~/dt)(dx^i/dx~^j) d/dp~_j
        dt              -> (dt/dt~) dt~
        dx^i            -> (dx^i/dx~^j) dx~^j
        delta p_i       -> (dt/dt~)(dx~^j/dx^i) delta p~_j

    The claim presumes the connection law, which is checked first.  When
    the law fails at tol, its records are returned as
    frames.connection_precondition, so the failure surfaces as a failed
    check rather than an exception.
    """
    law = verify_connection_law(N_old, N_new, c, points, tol)
    if not law.passed:
        return Report.of(
            replace(r, check_id="frames.connection_precondition") for r in law.records
        )
    return _verify_blocks(N_old, N_new, c, points, tol)


def _verify_blocks(
    N_old: NonlinearConnection,
    N_new: NonlinearConnection,
    c: CoordChange,
    points: Sequence[Point],
    tol: float,
) -> Report:
    """The block comparison itself: residuals cover both the
    diagonal-block factors and all off-block mixing (which must vanish)."""
    # the diagonal (t, x, p) blocks, where the natural matrices hold the
    # tensorial factors
    block = np.repeat([0, 1, 2], [1, c.n, c.n])
    blocks = block[:, None] == block[None, :]

    def compare(q):
        td = transition(c, q)
        image = induced_point(c, q)
        td_inv = transition(c.inverse(), image)
        A = natural_frame_matrix(td)
        B = natural_coframe_matrix(td, td_inv)
        Fn, Cn = adapted_frames(N_new, image)
        F_old, C_old = adapted_frames(N_old, q)

        # old adapted vectors, re-expressed in the new adapted frame
        got_frame = np.linalg.solve(Fn.T, (F_old @ A).T).T
        frame = float(np.max(np.abs(got_frame - np.where(blocks, A, 0.0))))

        # old adapted covectors, re-expressed in the new adapted coframe
        got_co = np.linalg.solve(Cn.T, (C_old @ B).T).T
        coframe = float(np.max(np.abs(got_co - np.where(blocks, B, 0.0))))
        return frame, coframe

    return check_points(
        points, tol, ("frames.frame_tensoriality", "frames.coframe_tensoriality"), compare
    )


def decompose(
    v: Sequence[Expr], N: NonlinearConnection
) -> tuple[Expr, tuple[Expr, ...], tuple[Expr, ...]]:
    """Unique coefficients of a vector field over the adapted frame.

    v holds 2n+1 natural-frame components (t, x, p blocks); the result
    (h_R, h_M, w) satisfies v = h_R delta/delta t + h_M^i delta/delta x^i
    + w_j d/dp_j.  The frame is unit triangular, so this is a one-pass
    substitution, exact at the expression level.
    """
    n = N.n
    if len(v) != 2 * n + 1:
        raise DimensionError(f"vector field needs {2 * n + 1} components")
    h_R = v[0]
    h_M = tuple(v[1 + i] for i in range(n))
    w = tuple(
        v[n + 1 + j]
        + h_R * N.temporal[j]
        + esum(h_M[i] * N.spatial[j, i] for i in range(n))
        for j in range(n)
    )
    return h_R, h_M, w


def reconstruct(
    h_R: Expr, h_M: Sequence[Expr], w: Sequence[Expr], N: NonlinearConnection
) -> tuple[Expr, ...]:
    """Natural-frame components of h_R delta/delta t + h_M^i delta/delta x^i
    + w_j d/dp_j (the inverse of decompose)."""
    n = N.n
    p_comps = tuple(
        w[j]
        - h_R * N.temporal[j]
        - esum(h_M[i] * N.spatial[j, i] for i in range(n))
        for j in range(n)
    )
    return (h_R, *h_M, *p_comps)
