"""Seeded problem generators for the benchmark workloads.

Every workload is a stream of problem documents; problem ``index`` is a pure
function of ``(workload, seed, index)``.  Two random streams build it:

- the *shape* stream picks every structural choice (which metric family,
  which chart from the library, how many charts and points, the Hamiltonian's
  size, the negative controls).  It depends on ``index % period`` only, so
  every run sees the same repeating mix of tree shapes and the cost of a
  problem does not depend on the seed;
- the *value* stream, seeded by ``(workload, seed, index)``, draws every
  coefficient, every monomial exponent and every sample point.

The engine receives nothing but the generated dicts.  Validity is by
construction, not by filtering:

- space metrics are symmetric and strictly diagonally dominant with a
  positive diagonal on the sampling box (diagonal >= 2, off-diagonal
  entries |g_ij| <= 0.4, so a row's off-diagonal sum is <= 1.2 at n = 4):
  positive definite, det bounded away from zero;
- time metrics are positive for t > 0;
- every chart comes from the library below, whose maps are regular on the
  box and whose closed-form inverses are valid on the image of the box.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

DEFAULT_SEED = 1
# Reserved for confirming later gain claims; never used to tune the benchmark.
HELD_OUT_SEED = 7919

T_BOX = (0.5, 2.0)
X_BOX = (0.5, 2.0)
P_BOX = (-3.0, 3.0)
TOLERANCE = 1e-9


class Draw:
    """Structural choices from the shape stream, numbers from the value stream."""

    def __init__(self, shape: random.Random, values: random.Random):
        self.shape = shape
        self.values = values

    def kind(self, count: int) -> int:
        return self.shape.randrange(count)

    def num(self, lo: float, hi: float) -> str:
        return f"{self.values.uniform(lo, hi):.3f}"


# ---------------------------------------------------------------------------
# Metric families
# ---------------------------------------------------------------------------

def time_metric(d: Draw) -> str:
    """A positive h_11(t) for t > 0."""
    kind = d.kind(4)
    if kind == 0:
        return f"{d.num(0.5, 2)} + {d.num(0.1, 1)}*t^2"
    if kind == 1:
        return f"exp({d.num(0.2, 1)}*t)"
    if kind == 2:
        return f"{d.num(1.5, 3)} + {d.num(0.2, 1)}*sin(t)"
    return f"({d.num(0.5, 1.5)} + t)^2"


def _diag_entry(d: Draw, n: int) -> str:
    """g_ii >= 2 on X_BOX."""
    x = f"x{d.kind(n) + 1}"
    if d.kind(2) == 0:
        return f"{d.num(2, 4)} + {d.num(0.1, 1)}*{x}^2"
    return f"{d.num(2, 4)} + {d.num(0.1, 0.5)}*exp({d.num(0.2, 0.8)}*{x})"


def _off_entry(d: Draw, n: int) -> str:
    """|g_ij| <= 0.4 everywhere."""
    x = f"x{d.kind(n) + 1}"
    return f"{d.num(0.05, 0.4)}*{('sin', 'cos')[d.kind(2)]}({x})"


def space_metric(d: Draw, n: int, full: bool) -> list[list[str]]:
    """Symmetric, diagonally dominant g_ij(x); the same string on both sides
    of the diagonal keeps the trees equal, as the engine requires."""
    g = [["0"] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = _diag_entry(d, n)
        for j in range(i + 1, n):
            if full:
                g[i][j] = g[j][i] = _off_entry(d, n)
    return g


# ---------------------------------------------------------------------------
# Chart library: forward maps with closed-form inverses
# ---------------------------------------------------------------------------

def _time_map(d: Draw) -> tuple[str, str]:
    """t~(t) and its inverse; regular for t > 0, inverse valid on the image."""
    kind = d.kind(4)
    if kind == 0:
        a, b = d.num(0.5, 2), d.num(0, 1)
        return f"{a}*t + {b}", f"(t - {b})/{a}"
    if kind == 1:
        return "t^2", "t^(1/2)"
    if kind == 2:
        return "exp(t)", "log(t)"
    a = d.num(0.5, 2)
    return f"{a}*t^3", f"(t/{a})^(1/3)"


def _space_map(d: Draw, n: int) -> tuple[list[str], list[str]]:
    """x~(x) and its inverse; regular for x > 0, inverse valid on the image.

    Every coordinate is scaled, then one coordinate (or a pair) changes
    nonlinearly, as in the bundled example's charts.
    """
    xs = [f"x{k + 1}" for k in range(n)]
    scales = [d.num(0.5, 2) for _ in range(n)]
    fwd = [f"{a}*{x}" for a, x in zip(scales, xs)]
    inv = [f"{x}/{a}" for a, x in zip(scales, xs)]
    i = d.kind(n)
    j = (i + 1) % n
    x, y = xs[i], xs[j]
    kind = d.kind(4)
    if kind == 0:  # shear by the cube of the next coordinate
        s = d.num(0.05, 0.3)
        fwd[i], inv[i] = f"{x} + {s}*{y}^3", f"{x} - {s}*({inv[j]})^3"
    elif kind == 1:
        fwd[i], inv[i] = f"{x}^2", f"{x}^(1/2)"
    elif kind == 2:
        fwd[i], inv[i] = f"exp({x})", f"log({x})"
    else:  # product with the next coordinate
        fwd[j], inv[j] = f"{x}*{y}", f"{y}/({inv[i]})"
    return fwd, inv


def chart(d: Draw, n: int, name: str) -> dict:
    t_fwd, t_inv = _time_map(d)
    x_fwd, x_inv = _space_map(d, n)
    return {"name": name, "t_fwd": t_fwd, "t_inv": t_inv, "x_fwd": x_fwd, "x_inv": x_inv}


# ---------------------------------------------------------------------------
# Points and Hamiltonians
# ---------------------------------------------------------------------------

def points(d: Draw, n: int, count: int) -> list[list[float]]:
    rng = d.values
    return [
        [rng.uniform(*T_BOX)]
        + [rng.uniform(*X_BOX) for _ in range(n)]
        + [rng.uniform(*P_BOX) for _ in range(n)]
        for _ in range(count)
    ]


def polynomial_hamiltonian(d: Draw, n: int, terms: int) -> str:
    """A sum of positive monomials with even momentum powers (at least two
    in total), so the vertical Hessian is non-degenerate and its entries
    carry no cancellation between terms."""
    rng = d.values
    out = []
    for _ in range(terms):
        factors = [d.num(0.1, 1)]
        a = rng.randrange(3)
        if a:
            factors.append(f"t^{a}")
        for i in range(n):
            b = rng.randrange(3)
            if b:
                factors.append(f"x{i + 1}^{b}")
        p_pows = [2 * rng.randrange(3) for _ in range(n)]
        if not any(p_pows):
            p_pows[rng.randrange(n)] = 2
        for i, e in enumerate(p_pows):
            if e:
                factors.append(f"p{i + 1}^{e}")
        out.append("*".join(factors))
    return " + ".join(out)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Case:
    """One generated problem document and its known answer: every check
    passes, except that a corrupted connection fails exactly
    ``connection.temporal`` on every chart and point."""

    doc: dict
    corrupt_connection: bool


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: Callable[[Draw, int], Case]  # (draw, position in the cycle)
    # The shape stream repeats after this many problems.  A run verifies
    # whole cycles; with an odd period the median falls inside one shape's
    # block of copies instead of between two shapes' blocks.
    period: int
    cycle_s: float  # verdict seconds of one period, seed engine, reference speed
    setup_problems: int  # problems loaded by the set-up measurement

    def problems(self, seconds: float) -> int:
        """Whole periods worth about ``seconds`` of verdict time on the seed
        engine at the reference speed.  The count, not a deadline, bounds a
        run, so every version of the engine verifies the same problems."""
        return self.period * max(1, round(seconds / self.cycle_s))


def _problem(n, h, g, charts, pts, hamiltonian=None) -> dict:
    doc = {
        "n": n,
        "time_metric": h,
        "space_metric": g,
        "charts": charts,
        "sample": {"points": pts},
        "tolerance": TOLERANCE,
    }
    if hamiltonian is not None:
        doc["hamiltonian"] = hamiltonian
    return doc


# (charts, full metric, corrupted connection) for each position in the cycle
_POINTS_N2_CYCLE = (
    (2, False, False),
    (3, True, False),
    (4, False, False),
    (2, True, False),
    (3, False, False),
    (4, True, True),
    (3, True, False),
    (2, False, False),
)


def _points_n2(d: Draw, k: int) -> Case:
    n = 2
    charts, full, corrupt = _POINTS_N2_CYCLE[k]
    doc = _problem(
        n,
        time_metric(d),
        space_metric(d, n, full),
        [chart(d, n, f"c{i}") for i in range(charts)],
        points(d, n, 40),
    )
    return Case(doc, corrupt_connection=corrupt)


def _deep_n4(d: Draw, k: int) -> Case:
    n = 4
    doc = _problem(
        n,
        time_metric(d),
        space_metric(d, n, full=True),
        [chart(d, n, "c0")],
        points(d, n, 1 + k % 3),
    )
    return Case(doc, corrupt_connection=False)


def _hamiltonian_n2(d: Draw, k: int) -> Case:
    n = 2
    doc = _problem(
        n,
        time_metric(d),
        space_metric(d, n, full=k % 2 == 0),
        [chart(d, n, f"c{i}") for i in range(2)],
        points(d, n, 1 + k // 2 % 2),
        hamiltonian=polynomial_hamiltonian(d, n, 50 + 250 * k // 12),
    )
    return Case(doc, corrupt_connection=False)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "points_n2",
            "n=2, 2-4 charts, 40 points: small trees at many points, so per-point "
            "transition, evaluation and law loops dominate; 1 in 8 is a FAIL control",
            _points_n2,
            period=8,
            cycle_s=5.0,
            setup_problems=16,
        ),
        Workload(
            "deep_n4",
            "n=4 full metrics, 1 chart, 1-3 points: deep shared Christoffel trees, "
            "so expression evaluation dominates and transitions stay small",
            _deep_n4,
            period=13,
            cycle_s=6.5,
            setup_problems=12,
        ),
        Workload(
            "hamiltonian_n2",
            "n=2, 50-300 term polynomial Hamiltonian, 2 charts, 1-2 points: "
            "symbolic construction dominates and evaluation is small",
            _hamiltonian_n2,
            period=13,
            cycle_s=2.6,
            setup_problems=12,
        ),
    )
}


def case(workload: str, seed: int, index: int) -> Case:
    """Problem ``index`` of the workload's stream."""
    w = WORKLOADS[workload]
    k = index % w.period
    d = Draw(random.Random(f"{workload}:shape:{k}"), random.Random(f"{workload}:{seed}:{index}"))
    return w.make(d, k)
