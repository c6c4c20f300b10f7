"""Adapted frame and coframe of a nonlinear connection.

The adapted frame replaces d/dt and d/dx^i by their horizontal lifts
(delta/delta t, delta/delta x^i); the adapted coframe replaces dp_i by
delta p_i.  The frames are float matrices filled from the connection's
values at a point, so every claim about them (duality, unit
triangularity, purely tensorial transformation) reduces to finite linear
algebra at a point.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

import numpy as np

from .charts import (
    CoordChange,
    induced_point,
    map_points,
    natural_coframe_matrix,
    natural_frame_matrix,
    transition,
)
from .errors import DimensionError
from .expr import Point
from .nlconn import NonlinearConnection, verify_connection_law
from .report import Report, check_points

__all__ = [
    "adapted_frames",
    "frames_from_values",
    "pairing",
    "verify_adapted_tensoriality",
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
    return frames_from_values(N.temporal.evaluate(q), N.spatial.evaluate(q))


def frames_from_values(N1: np.ndarray, N2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The adapted frame and coframe filled from the connection's values
    N1 (..., n) and N2 (..., n, n), one pair per point of a stack."""
    n = N1.shape[-1]
    F = np.broadcast_to(np.eye(2 * n + 1), N1.shape[:-1] + (2 * n + 1,) * 2).copy()
    C = F.copy()
    F[..., 0, n + 1 :] = -N1
    F[..., 1 : n + 1, n + 1 :] = -N2.mT
    C[..., n + 1 :, 0] = N1
    C[..., n + 1 :, 1 : n + 1] = N2
    return F, C


def pairing(F: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Matrix of <covector a, vector b> values; the identity exactly when F
    and C come from the same connection at the same point."""
    if F.shape != C.shape:
        raise DimensionError("frame and coframe dimensions differ")
    return C @ F.mT


def verify_adapted_tensoriality(
    N_old: NonlinearConnection,
    N_new: NonlinearConnection,
    c: CoordChange,
    points: Sequence[Point],
    tol: float = 1e-9,
    chart: str = "",
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
    the law fails at tol, its blocks are returned relabelled as
    frames.connection_precondition, so the failure surfaces as a failed
    check rather than an exception.
    """
    law = verify_connection_law(N_old, N_new, c, points, tol, chart)
    if not law.passed:
        return Report(tuple(
            replace(b, check_ids=("frames.connection_precondition",) * len(b.check_ids))
            for b in law.blocks
        ))
    return _verify_blocks(N_old, N_new, c, points, tol, chart)


def _verify_blocks(
    N_old: NonlinearConnection,
    N_new: NonlinearConnection,
    c: CoordChange,
    points: Sequence[Point],
    tol: float,
    chart: str = "",
) -> Report:
    """The block comparison itself: residuals cover both the
    diagonal-block factors and all off-block mixing (which must vanish)."""
    # the diagonal (t, x, p) blocks, where the natural matrices hold the
    # tensorial factors
    block = np.repeat([0, 1, 2], [1, c.n, c.n])
    blocks = block[:, None] == block[None, :]
    inverse = c.inverse()
    map_points(inverse, map_points(c, points))

    def visit(q):
        image = induced_point(c, q)
        return image, transition(c, q), transition(inverse, image)

    def law(td, td_inv, old_t, old_s, new_t, new_s):
        A = natural_frame_matrix(td)
        B = natural_coframe_matrix(td, td_inv)
        Fn, Cn = frames_from_values(new_t, new_s)
        F_old, C_old = frames_from_values(old_t, old_s)

        # old adapted vectors, re-expressed in the new adapted frame
        got_frame = np.linalg.solve(Fn.mT, (F_old @ A).mT).mT
        frame = np.max(np.abs(got_frame - np.where(blocks, A, 0.0)), axis=(1, 2))

        # old adapted covectors, re-expressed in the new adapted coframe
        got_co = np.linalg.solve(Cn.mT, (C_old @ B).mT).mT
        coframe = np.max(np.abs(got_co - np.where(blocks, B, 0.0)), axis=(1, 2))
        return frame, coframe

    return check_points(
        points, tol, ("frames.frame_tensoriality", "frames.coframe_tensoriality"), law, chart,
        reads=(N_old.temporal, N_old.spatial), image_reads=(N_new.temporal, N_new.spatial),
        visit=visit,
    )
