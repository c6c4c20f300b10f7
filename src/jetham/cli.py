"""Command-line front end: construct the canonical objects of a problem
file and run the verification suites over its charts and sample points.

Exit codes: 0 all checks pass, 2 at least one residual check failed,
3 configuration or parse error, or a report file that cannot be written.
Reports are assembled in canonical order (chart index, then point
index), so identical problem files produce byte-identical JSON.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from functools import cached_property
from pathlib import Path

import click
import numpy as np

from .charts import scalar_to_new_chart
from .dtensor import (
    DTensor,
    Hamiltonian,
    h_normalization,
    liouville,
    metric_hamiltonian,
    momentum_liouville,
    verify_dtensor,
    vertical_metrical,
)
from .errors import JethamError
from .expr import Components, Point, Program, compile_together
from .frames import adapted_frames, pairing, verify_adapted_tensoriality
from .metrics import (
    SpaceMetric,
    TimeMetric,
    christoffel_time,
    compatibility_residual,
    inverse_time,
    transform_space_metric,
    transform_time_metric,
)
from .nlconn import (
    NonlinearConnection,
    canonical_connection,
    connection_from_spray,
    verify_connection_law,
)
from .problem import Problem, load_problem
from .report import (
    Report,
    check_points,
    report_to_json,
    residual,
    worst_array_residual,
    worst_residual,
)
from .spray import (
    MomentumSemispray,
    canonical_spatial,
    canonical_temporal,
    verify_spatial_law,
    verify_temporal_law,
)

__all__ = [
    "SUITES",
    "cmd_christoffel",
    "cmd_canonical",
    "cmd_verify",
    "cmd_eval",
    "main",
]

SUITES = ("dtensor", "spray", "connection", "frames", "all")

DUALITY_TOL = 1e-12

EXIT_VERIFICATION_FAILED = 2
EXIT_CONFIG_ERROR = 3


class _Chart:
    """A problem's canonical objects in one chart, each built on first use.
    A new chart refers to its origin, the problem's own chart, never the
    reverse, so a verdict's objects hold no reference cycle."""

    def __init__(self, problem: Problem, origin: "_Chart | None" = None, change=None):
        self.n, self.problem, self.origin, self.change = problem.n, problem, origin, change

    @cached_property
    def h(self) -> TimeMetric:
        h = self.problem.time_metric
        return h if self.change is None else transform_time_metric(h, self.change)

    @cached_property
    def g(self) -> SpaceMetric:
        g = self.problem.space_metric
        return g if self.change is None else transform_space_metric(g, self.change)

    @cached_property
    def hamiltonian(self) -> Hamiltonian:
        if self.origin is None:
            return self.problem.hamiltonian or metric_hamiltonian(self.h, self.g)
        return Hamiltonian(self.n, scalar_to_new_chart(self.origin.hamiltonian.expr, self.change))

    @cached_property
    def vertical_metrical(self) -> DTensor:
        return vertical_metrical(self.hamiltonian)

    @cached_property
    def liouville(self) -> DTensor:
        return liouville(self.n)

    @cached_property
    def momentum_liouville(self) -> DTensor:
        return momentum_liouville(self.h, self.n)

    @cached_property
    def h_normalization(self) -> DTensor:
        return h_normalization(self.h, self.n)

    @cached_property
    def temporal(self) -> Components:
        return canonical_temporal(self.h, self.n)

    @cached_property
    def spatial(self) -> Components:
        return canonical_spatial(self.g)

    @cached_property
    def connection(self) -> NonlinearConnection:
        return canonical_connection(self.h, self.g)

    @cached_property
    def spray_connection(self) -> NonlinearConnection:
        return connection_from_spray(MomentumSemispray(self.temporal, self.spatial), self.g)


_DTENSORS = ("vertical_metrical", "liouville", "momentum_liouville", "h_normalization")

# each suite's comparisons across a chart change, in verdict order: the
# object both charts hold, and the law that compares them.  A law is looked
# up by name when it is called, so a wrapper bound to that name later (as
# the benchmark's tracer binds one) is the one that runs.
_SUITES = {
    "dtensor": [
        (name, lambda *args, name=name: verify_dtensor(*args, f"dtensor.{name}"))
        for name in _DTENSORS
    ],
    "spray": [
        ("temporal", lambda *args: verify_temporal_law(*args)),
        ("spatial", lambda *args: verify_spatial_law(*args)),
    ],
    "connection": [("connection", lambda *args: verify_connection_law(*args))],
    "frames": [("connection", lambda *args: verify_adapted_tensoriality(*args))],
}


def _parts(obj) -> tuple[Components, ...]:
    return (obj.temporal, obj.spatial) if isinstance(obj, NonlinearConnection) else (obj,)


def _charts(problem: Problem, suites) -> dict[str, _Chart]:
    """A verdict's charts by name; "" is the problem's own chart.  Each chart
    compiles the objects the suites read, and only those, into one program."""
    charts = {"": _Chart(problem)}
    for spec in problem.charts:
        charts[spec.name] = _Chart(problem, charts[""], spec.change)
    for chart in charts.values():
        reads = [name for suite in suites for name, _ in _SUITES[suite]]
        if chart.origin is None and "connection" in suites:
            reads.append("spray_connection")
        compile_together(part for name in reads for part in _parts(getattr(chart, name)))
    return charts


# ---------------------------------------------------------------------------
# Verification families
# ---------------------------------------------------------------------------

def _canonical_consistency(problem: Problem, origin: _Chart) -> Report:
    """The connection built from the metrics against the one built from the
    canonical semispray, in the problem's own chart."""
    N, N_from_G = origin.connection, origin.spray_connection
    parts = ((N.temporal, N_from_G.temporal), (N.spatial, N_from_G.spatial))
    return check_points(
        problem.points, problem.tolerance, ("connection.canonical_consistency",),
        lambda q: (
            worst_residual(worst_array_residual(a.evaluate(q), b.evaluate(q)) for a, b in parts),
        ),
    )


def _duality(problem: Problem, origin: _Chart) -> Report:
    """The adapted coframe paired with the adapted frame is the identity."""
    N, size = origin.connection, 2 * problem.n + 1
    return check_points(
        problem.points, DUALITY_TOL, ("frames.duality",),
        lambda q: (float(np.max(np.abs(pairing(*adapted_frames(N, q)) - np.eye(size)))),),
    )


# the checks a suite runs in the problem's own chart before its laws
_OWN_CHART_CHECKS = {"connection": _canonical_consistency, "frames": _duality}


def _family(problem: Problem, charts: dict[str, _Chart], suite: str, corrupt=False) -> Report:
    """One suite's records: its own-chart check, then each chart change's
    laws.  corrupt adds 1 to each new-chart connection's first temporal
    component; that copy belongs to no chart's program."""
    origin = charts[""]
    own = _OWN_CHART_CHECKS.get(suite)
    records = list(own(problem, origin).records) if own else []
    for spec in problem.charts:
        for name, law in _SUITES[suite]:
            new = getattr(charts[spec.name], name)
            if corrupt:
                new = replace(new, temporal=(new.temporal[0] + 1, *new.temporal[1:]))
            rep = law(getattr(origin, name), new, spec.change, problem.points, problem.tolerance)
            records.extend(r.with_chart(spec.name) for r in rep.records)
    return Report.of(records)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_christoffel(problem: Problem) -> Report:
    """Print both Christoffel families and run the metric sanity checks."""
    n, tol = problem.n, problem.tolerance
    h, g = problem.time_metric, problem.space_metric
    H = christoffel_time(h)
    gamma = g.christoffel

    click.echo(f"time metric      h11 = {h.h11}")
    click.echo(f"time christoffel H_11^1 = {H.H111}")
    entries = [
        (f"gamma^{i + 1}_{j + 1}{k + 1}", gamma.gamma[i][j][k])
        for i in range(n)
        for j in range(n)
        for k in range(j, n)
    ]
    # each entry is printed once: a deep tree's text is costly
    nonzero = [(label, e, text) for label, e in entries if (text := str(e)) != "0"]
    for label, _, text in nonzero:
        click.echo(f"{label} = {text}")
    click.echo("values at sample points:")
    shown = Program([*(entry for _, entry, _ in nonzero), H.H111])
    for q in problem.points[:3]:
        *values, Hv = shown.run(q)
        gvals = [f"{label}={v:.6g}" for (label, _, _), v in zip(nonzero, values)]
        click.echo(f"  t={q.t:.4g} x={q.x}: H={Hv:.6g} " + " ".join(gvals))

    matrices = (e for m in (g.g, g.inverse) for row in m for e in row)
    inverses = Program([h.h11, inverse_time(h), *matrices])

    def compare(q):
        hv, hinv, *matrix_values = inverses.run(q)
        gmat, gimat = np.array(matrix_values).reshape(2, n, n)
        return (
            residual(hv * hinv, 1.0),
            float(np.max(np.abs(gmat @ gimat - np.eye(n)))),
            compatibility_residual(g, gamma, q),
        )

    checks = ("metrics.inverse_time", "metrics.inverse_space", "metrics.compatibility")
    return check_points(problem.points, tol, checks, compare)


def cmd_canonical(problem: Problem) -> Report:
    """Print canonical semisprays and connection; check their consistency."""
    n, charts = problem.n, _charts(problem, ("connection",))
    origin = charts[""]
    sprays = (("temporal", "G1", origin.temporal), ("spatial", "G2", origin.spatial))
    N = origin.connection
    for kind, tag, G in sprays:
        click.echo(f"canonical {kind} semispray:")
        for j in range(n):
            for k in range(n):
                click.echo(f"  {tag}_({j + 1}){k + 1} = {G[j, k]}")
    click.echo("canonical nonlinear connection:")
    for j in range(n):
        click.echo(f"  N1_({j + 1}) = {N.temporal[j]}")
    for j in range(n):
        for i in range(n):
            click.echo(f"  N2_({j + 1}){i + 1} = {N.spatial[j, i]}")
    q = problem.points[0]
    click.echo(f"at {q.flat()}:")
    for _, tag, G in sprays:
        click.echo(f"  {tag} = {G.evaluate(q).tolist()}")
    click.echo(f"  N1 = {N.temporal.evaluate(q).tolist()}")
    click.echo(f"  N2 = {N.spatial.evaluate(q).tolist()}")
    return _family(problem, charts, "connection")


def cmd_verify(problem: Problem, suite=("all",), corrupt_connection: bool = False) -> Report:
    """Run the selected verification families over all charts and points.

    corrupt_connection injects a +1 perturbation into one new-chart
    connection component; it exists so negative-control tests can exercise
    the failure path end to end.
    """
    if not problem.charts:
        raise JethamError("verification needs at least one chart")
    chosen = set(suite)
    unknown = chosen - set(SUITES)
    if unknown:
        raise JethamError(f"unknown suite(s) {sorted(unknown)}; choose from {SUITES}")
    # in a fixed order, so that each chart's program is the same every run
    chosen = [s for s in _SUITES if s in chosen or "all" in chosen]
    charts = _charts(problem, chosen)
    return Report.of(
        r
        for s in chosen
        for r in _family(problem, charts, s, corrupt_connection and s == "connection").records
    )


# object name -> its components at a point, read from the problem's own chart
_EVAL_OBJECTS = {
    **{name: (lambda o, q, name=name: getattr(o, name).evaluate(q)) for name in _DTENSORS},
    "temporal_spray": lambda o, q: o.temporal.evaluate(q),
    "spatial_spray": lambda o, q: o.spatial.evaluate(q),
    "connection": lambda o, q: (
        o.connection.temporal.evaluate(q), o.connection.spatial.evaluate(q)
    ),
    "frame": lambda o, q: adapted_frames(o.connection, q)[0],
    "coframe": lambda o, q: adapted_frames(o.connection, q)[1],
    "pairing": lambda o, q: pairing(*adapted_frames(o.connection, q)),
}


def cmd_eval(problem: Problem, object_name: str, at: Point) -> None:
    """Print the numeric components of a built object at one point."""
    if at.n != problem.n:
        raise JethamError(f"point has n={at.n}, problem has n={problem.n}")
    if object_name not in _EVAL_OBJECTS:
        raise JethamError(f"unknown object {object_name!r}; choose from {tuple(_EVAL_OBJECTS)}")
    values = _EVAL_OBJECTS[object_name](_Chart(problem), at)
    if object_name == "connection":
        click.echo(f"N1 = {values[0].tolist()}")
        click.echo(f"N2 = {values[1].tolist()}")
    else:
        click.echo(f"{object_name} = {np.asarray(values).tolist()}")


# ---------------------------------------------------------------------------
# click wiring
# ---------------------------------------------------------------------------

def _finish(report: Report, json_path: str | None):
    failures = report.failures()
    for r in failures[:10]:
        click.echo(
            f"FAIL {r.check_id} chart={r.chart or '-'} point={r.point} residual={r.residual:.3e}"
        )
    by_family = report.max_residual_by_family()
    for family in sorted(by_family):
        click.echo(f"{family}: max residual {by_family[family]:.3e}")
    click.echo(f"overall: {'PASS' if report.passed else 'FAIL'} ({len(report.records)} checks)")
    if json_path:
        text = report_to_json(report)
        try:
            Path(json_path).write_text(text)
        except OSError as ex:
            click.echo(f"error: cannot write {json_path}: {ex}", err=True)
            sys.exit(EXIT_CONFIG_ERROR)
    if not report.passed:
        sys.exit(EXIT_VERIFICATION_FAILED)


@click.group()
def main():
    """Canonical geometry of a time-dependent metric pair on the momentum
    phase space, with numeric verification of every transformation law."""


@main.command()
@click.option("--problem", "problem_path", required=True, type=click.Path())
@click.option("--json", "json_path", default=None, type=click.Path())
def christoffel(problem_path, json_path):
    """Print Christoffel symbols and check metric invertibility."""
    problem = _run_guarded(load_problem, problem_path)
    _finish(_run_guarded(cmd_christoffel, problem), json_path)


@main.command()
@click.option("--problem", "problem_path", required=True, type=click.Path())
@click.option("--json", "json_path", default=None, type=click.Path())
def canonical(problem_path, json_path):
    """Print canonical semisprays and connection; check consistency."""
    problem = _run_guarded(load_problem, problem_path)
    _finish(_run_guarded(cmd_canonical, problem), json_path)


@main.command()
@click.option("--problem", "problem_path", required=True, type=click.Path())
@click.option(
    "--suite",
    multiple=True,
    default=("all",),
    type=click.Choice(SUITES),
    help="verification families to run (repeatable)",
)
@click.option("--json", "json_path", default=None, type=click.Path())
@click.option("--corrupt-connection", is_flag=True, hidden=True)
def verify(problem_path, suite, json_path, corrupt_connection):
    """Run transformation-law verification over all charts and points."""
    problem = _run_guarded(load_problem, problem_path)
    report = _run_guarded(
        cmd_verify, problem, suite, corrupt_connection=corrupt_connection
    )
    _finish(report, json_path)


@main.command("eval")
@click.option("--problem", "problem_path", required=True, type=click.Path())
@click.option("--object", "object_name", required=True)
@click.option("--at", "at_text", required=True, help="comma-separated t,x...,p...")
def eval_command(problem_path, object_name, at_text):
    """Evaluate a built object at a point."""
    problem = _run_guarded(load_problem, problem_path)
    try:
        values = [float(v) for v in at_text.split(",")]
        at = Point.from_flat(values, problem.n)
    except (ValueError, JethamError) as ex:
        click.echo(f"error: bad --at point: {ex}", err=True)
        sys.exit(EXIT_CONFIG_ERROR)
    _run_guarded(cmd_eval, problem, object_name, at)


def _run_guarded(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except JethamError as ex:
        click.echo(f"error: {ex}", err=True)
        sys.exit(EXIT_CONFIG_ERROR)


if __name__ == "__main__":
    main()
