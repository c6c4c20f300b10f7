"""Command-line front end: construct the canonical objects of a problem
file and run the verification suites over its charts and sample points.

Exit codes: 0 all checks pass, 2 at least one residual check failed,
3 configuration or parse error.  Reports are assembled in canonical order
(chart index, then point index), so identical problem files produce
byte-identical JSON.
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
from .expr import Components, Point, Program
from .frames import (
    adapted_coframe,
    adapted_frame,
    pairing,
    verify_adapted_tensoriality,
)
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


def _charts(problem: Problem) -> dict[str, _Chart]:
    """A verdict's charts by name; "" is the problem's own chart."""
    charts = {"": _Chart(problem)}
    for spec in problem.charts:
        charts[spec.name] = _Chart(problem, charts[""], spec.change)
    return charts


_DTENSORS = ("vertical_metrical", "liouville", "momentum_liouville", "h_normalization")


# ---------------------------------------------------------------------------
# Verification families
# ---------------------------------------------------------------------------

def _dtensor_family(problem: Problem, charts: dict[str, _Chart]) -> Report:
    origin, records = charts[""], []
    for spec in problem.charts:
        for name in _DTENSORS:
            rep = verify_dtensor(
                getattr(origin, name), getattr(charts[spec.name], name), spec.change,
                problem.points, problem.tolerance, f"dtensor.{name}",
            )
            records.extend(r.with_chart(spec.name) for r in rep.records)
    return Report.of(records)


def _spray_family(problem: Problem, charts: dict[str, _Chart]) -> Report:
    tol, origin, records = problem.tolerance, charts[""], []
    for spec in problem.charts:
        c, new = spec.change, charts[spec.name]
        rep_t = verify_temporal_law(origin.temporal, new.temporal, c, problem.points, tol)
        rep_s = verify_spatial_law(origin.spatial, new.spatial, c, problem.points, tol)
        records.extend(r.with_chart(spec.name) for r in rep_t.records + rep_s.records)
    return Report.of(records)


def _connection_family(problem: Problem, charts: dict[str, _Chart], corrupt: bool) -> Report:
    tol, origin = problem.tolerance, charts[""]
    N = origin.connection

    # produced-by-semispray consistency, chart-independent
    N_from_G = connection_from_spray(MomentumSemispray(origin.temporal, origin.spatial), origin.g)

    def consistency(q):
        parts = ((N.temporal, N_from_G.temporal), (N.spatial, N_from_G.spatial))
        return (
            worst_residual(worst_array_residual(a.evaluate(q), b.evaluate(q)) for a, b in parts),
        )

    records = list(
        check_points(
            problem.points, tol, ("connection.canonical_consistency",), consistency
        ).records
    )

    for spec in problem.charts:
        N_new = charts[spec.name].connection
        if corrupt:
            N_new = replace(N_new, temporal=(N_new.temporal[0] + 1, *N_new.temporal[1:]))
        rep = verify_connection_law(N, N_new, spec.change, problem.points, tol)
        records.extend(r.with_chart(spec.name) for r in rep.records)
    return Report.of(records)


def _frames_family(problem: Problem, charts: dict[str, _Chart]) -> Report:
    N = charts[""].connection
    F, C = adapted_frame(N), adapted_coframe(N)
    size = 2 * problem.n + 1
    records = list(
        check_points(
            problem.points, DUALITY_TOL, ("frames.duality",),
            lambda q: (float(np.max(np.abs(pairing(F, C, q) - np.eye(size)))),),
        ).records
    )
    for spec in problem.charts:
        rep = verify_adapted_tensoriality(
            N, charts[spec.name].connection, spec.change, problem.points, problem.tolerance
        )
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
    n, charts = problem.n, _charts(problem)
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
    return _connection_family(problem, charts, corrupt=False)


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
    if "all" in chosen:
        chosen = {"dtensor", "spray", "connection", "frames"}

    charts = _charts(problem)
    report = Report.of(())
    if "dtensor" in chosen:
        report = report.merged_with(_dtensor_family(problem, charts))
    if "spray" in chosen:
        report = report.merged_with(_spray_family(problem, charts))
    if "connection" in chosen:
        report = report.merged_with(_connection_family(problem, charts, corrupt_connection))
    if "frames" in chosen:
        report = report.merged_with(_frames_family(problem, charts))
    return report


# object name -> its components at a point, read from the problem's own chart
_EVAL_OBJECTS = {
    **{name: (lambda o, q, name=name: getattr(o, name).evaluate(q)) for name in _DTENSORS},
    "temporal_spray": lambda o, q: o.temporal.evaluate(q),
    "spatial_spray": lambda o, q: o.spatial.evaluate(q),
    "connection": lambda o, q: (
        o.connection.temporal.evaluate(q), o.connection.spatial.evaluate(q)
    ),
    "frame": lambda o, q: adapted_frame(o.connection).evaluate(q),
    "coframe": lambda o, q: adapted_coframe(o.connection).evaluate(q),
    "pairing": lambda o, q: pairing(adapted_frame(o.connection), adapted_coframe(o.connection), q),
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
        Path(json_path).write_text(report_to_json(report))
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
