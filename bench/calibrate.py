"""Reference loop for scaling times to a fixed CPU speed.

The machines this benchmark runs on share their cores with other tenants,
and the speed of one core drifts by tens of percent over seconds.  Every
timed section is therefore bracketed by this reference loop, which does the
same kind of work as the engine (method dispatch over a tree of small
objects that does not fit the core's own caches, float arithmetic) and does
not touch the engine.  A time ``t``
measured between references of ``r0`` and ``r1`` seconds is reported as
``t * REFERENCE_S / ((r0 + r1) / 2)``: the time on a machine on which the
reference loop takes ``REFERENCE_S``.  The raw wall time is printed beside
it.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.012  # the scale the reported times refer to


class _Node:
    __slots__ = ("left", "right", "weight")

    def __init__(self, left, right, weight):
        self.left = left
        self.right = right
        self.weight = weight

    def eval(self, x: float) -> float:
        if self.left is None:
            return self.weight * x
        return self.left.eval(x) * 0.5 + self.right.eval(x) * self.weight


def _tree(depth: int, weight: float) -> _Node:
    if depth == 0:
        return _Node(None, None, weight)
    return _Node(_tree(depth - 1, weight * 0.9), _tree(depth - 1, weight * 1.1), weight)


_TREE = _tree(15, 1.0)  # 65,535 nodes: a working set beyond the core's own caches
_PASSES = 2


def reference_seconds() -> float:
    """Wall seconds of one pass of the reference loop (10 to 15 ms on a
    shared 2-core x86-64 virtual machine with Python 3.11)."""
    t0 = time.perf_counter()
    for k in range(_PASSES):
        _TREE.eval(1.0 + k * 1e-3)
    return time.perf_counter() - t0


def scale(elapsed: float, before: float, after: float) -> float:
    """``elapsed`` expressed at the reference speed."""
    return elapsed * REFERENCE_S / ((before + after) / 2)
