"""Command-line front end: construct the canonical objects of a problem
file and run the verification suites over its charts and sample points.

Exit codes: 0 all checks pass, 2 at least one residual check failed,
3 configuration or parse error.  Reports are assembled in canonical order
(chart index, then point index), so identical problem files produce
byte-identical JSON.
"""

from __future__ import annotations

import sys
from pathlib import Path

import click
import numpy as np

from .charts import scalar_to_new_chart
from .dtensor import (
    Hamiltonian,
    h_normalization,
    liouville,
    metric_hamiltonian,
    momentum_liouville,
    verify_dtensor,
    vertical_metrical,
)
from .errors import JethamError
from .expr import Point
from .frames import (
    adapted_coframe,
    adapted_frame,
    pairing,
    verify_adapted_tensoriality,
)
from .metrics import (
    christoffel_space,
    christoffel_time,
    compatibility_residual,
    inverse_space,
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
from .report import CheckRecord, Report, report_to_json, residual, worst_residual
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


def _hamiltonian_of(problem: Problem) -> Hamiltonian:
    if problem.hamiltonian is not None:
        return problem.hamiltonian
    return metric_hamiltonian(problem.time_metric, problem.space_metric)


def _canonical_objects(problem: Problem):
    h, g = problem.time_metric, problem.space_metric
    G = MomentumSemispray(canonical_temporal(h, problem.n), canonical_spatial(g))
    N = canonical_connection(h, g)
    return G, N


# ---------------------------------------------------------------------------
# Verification families
# ---------------------------------------------------------------------------

def _dtensor_family(problem: Problem) -> Report:
    n, tol = problem.n, problem.tolerance
    h = problem.time_metric
    ham = _hamiltonian_of(problem)
    records = []
    for spec in problem.charts:
        c = spec.change
        h_new = transform_time_metric(h, c)
        ham_new = Hamiltonian(n, scalar_to_new_chart(ham.expr, c))
        pairs = (
            ("dtensor.vertical_metrical", vertical_metrical(ham), vertical_metrical(ham_new)),
            ("dtensor.liouville", liouville(n), liouville(n)),
            ("dtensor.momentum_liouville", momentum_liouville(h, n), momentum_liouville(h_new, n)),
            ("dtensor.h_normalization", h_normalization(h, n), h_normalization(h_new, n)),
        )
        for check_id, t_old, t_new in pairs:
            rep = verify_dtensor(t_old, t_new, c, problem.points, tol, check_id)
            records.extend(r.with_chart(spec.name) for r in rep.records)
    return Report.of(records)


def _spray_family(problem: Problem) -> Report:
    n, tol = problem.n, problem.tolerance
    h, g = problem.time_metric, problem.space_metric
    records = []
    for spec in problem.charts:
        c = spec.change
        temporal_new = canonical_temporal(transform_time_metric(h, c), n)
        spatial_new = canonical_spatial(transform_space_metric(g, c))
        rep_t = verify_temporal_law(canonical_temporal(h, n), temporal_new, c, problem.points, tol)
        rep_s = verify_spatial_law(canonical_spatial(g), spatial_new, c, problem.points, tol)
        records.extend(r.with_chart(spec.name) for r in rep_t.records)
        records.extend(r.with_chart(spec.name) for r in rep_s.records)
    return Report.of(records)


def _connection_family(problem: Problem, corrupt: bool = False) -> Report:
    tol = problem.tolerance
    h, g = problem.time_metric, problem.space_metric
    G, N = _canonical_objects(problem)
    records = []

    # produced-by-semispray consistency, chart-independent
    N_from_G = connection_from_spray(G, g)
    for q in problem.points:
        pairs = (
            (N.evaluate_temporal(q), N_from_G.evaluate_temporal(q)),
            (N.evaluate_spatial(q), N_from_G.evaluate_spatial(q)),
        )
        worst = worst_residual(
            residual(float(a), float(b))
            for got, want in pairs
            for a, b in zip(got.ravel(), want.ravel())
        )
        records.append(
            CheckRecord("connection.canonical_consistency", "", q.flat(), worst, worst <= tol)
        )

    for spec in problem.charts:
        c = spec.change
        N_new = canonical_connection(
            transform_time_metric(h, c), transform_space_metric(g, c)
        )
        if corrupt:
            N_new = NonlinearConnection(
                N_new.n,
                (N_new.temporal[0] + 1, *N_new.temporal[1:]),
                N_new.spatial,
            )
        rep = verify_connection_law(N, N_new, c, problem.points, tol)
        records.extend(r.with_chart(spec.name) for r in rep.records)
    return Report.of(records)


def _frames_family(problem: Problem) -> Report:
    tol = problem.tolerance
    h, g = problem.time_metric, problem.space_metric
    _, N = _canonical_objects(problem)
    F, C = adapted_frame(N), adapted_coframe(N)
    size = 2 * problem.n + 1
    records = []
    for q in problem.points:
        dev = float(np.max(np.abs(pairing(F, C, q) - np.eye(size))))
        records.append(
            CheckRecord("frames.duality", "", q.flat(), dev, dev <= DUALITY_TOL)
        )
    for spec in problem.charts:
        c = spec.change
        N_new = canonical_connection(
            transform_time_metric(h, c), transform_space_metric(g, c)
        )
        # the tensoriality claim presumes the connection law; when the law
        # fails at the configured tolerance, report those residuals instead
        # of raising, so the failure surfaces through the exit-2 path
        law = verify_connection_law(N, N_new, c, problem.points, tol)
        if law.passed:
            rep = verify_adapted_tensoriality(
                N, N_new, c, problem.points, tol, check_precondition=False
            )
            records.extend(r.with_chart(spec.name) for r in rep.records)
        else:
            records.extend(
                CheckRecord(
                    "frames.connection_precondition", spec.name, r.point, r.residual, r.passed
                )
                for r in law.records
            )
    return Report.of(records)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_christoffel(problem: Problem) -> Report:
    """Print both Christoffel families and run the metric sanity checks."""
    n, tol = problem.n, problem.tolerance
    h, g = problem.time_metric, problem.space_metric
    H = christoffel_time(h)
    gamma = christoffel_space(g)

    click.echo(f"time metric      h11 = {h.h11}")
    click.echo(f"time christoffel H_11^1 = {H.H111}")
    for i in range(n):
        for j in range(n):
            for k in range(j, n):
                entry = gamma.gamma[i][j][k]
                if str(entry) != "0":
                    click.echo(f"gamma^{i + 1}_{j + 1}{k + 1} = {entry}")
    click.echo("values at sample points:")
    for q in problem.points[:3]:
        gvals = [
            f"gamma^{i + 1}_{j + 1}{k + 1}={gamma.gamma[i][j][k].eval(q):.6g}"
            for i in range(n)
            for j in range(n)
            for k in range(j, n)
            if str(gamma.gamma[i][j][k]) != "0"
        ]
        click.echo(f"  t={q.t:.4g} x={q.x}: H={H.H111.eval(q):.6g} " + " ".join(gvals))

    hinv = inverse_time(h)
    ginv = inverse_space(g)
    records = []
    for q in problem.points:
        r = residual(h.h11.eval(q) * hinv.eval(q), 1.0)
        records.append(CheckRecord("metrics.inverse_time", "", q.flat(), r, r <= tol))
        gmat = np.array([[e.eval(q) for e in row] for row in g.g])
        gimat = np.array([[e.eval(q) for e in row] for row in ginv])
        r = float(np.max(np.abs(gmat @ gimat - np.eye(n))))
        records.append(CheckRecord("metrics.inverse_space", "", q.flat(), r, r <= tol))
        r = compatibility_residual(g, gamma, q)
        records.append(CheckRecord("metrics.compatibility", "", q.flat(), r, r <= tol))
    return Report.of(records)


def cmd_canonical(problem: Problem) -> Report:
    """Print canonical semisprays and connection; check their consistency."""
    n = problem.n
    G, N = _canonical_objects(problem)
    click.echo("canonical temporal semispray:")
    for j in range(n):
        for k in range(n):
            click.echo(f"  G1_({j + 1}){k + 1} = {G.temporal.coeffs[j][k]}")
    click.echo("canonical spatial semispray:")
    for j in range(n):
        for k in range(n):
            click.echo(f"  G2_({j + 1}){k + 1} = {G.spatial.coeffs[j][k]}")
    click.echo("canonical nonlinear connection:")
    for j in range(n):
        click.echo(f"  N1_({j + 1}) = {N.temporal[j]}")
    for j in range(n):
        for i in range(n):
            click.echo(f"  N2_({j + 1}){i + 1} = {N.spatial[j][i]}")
    q = problem.points[0]
    click.echo(f"at {q.flat()}:")
    click.echo(f"  G1 = {G.temporal.evaluate(q).tolist()}")
    click.echo(f"  G2 = {G.spatial.evaluate(q).tolist()}")
    click.echo(f"  N1 = {N.evaluate_temporal(q).tolist()}")
    click.echo(f"  N2 = {N.evaluate_spatial(q).tolist()}")
    return _connection_family(problem)


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

    report = Report.of(())
    if "dtensor" in chosen:
        report = report.merged_with(_dtensor_family(problem))
    if "spray" in chosen:
        report = report.merged_with(_spray_family(problem))
    if "connection" in chosen:
        report = report.merged_with(_connection_family(problem, corrupt=corrupt_connection))
    if "frames" in chosen:
        report = report.merged_with(_frames_family(problem))
    return report


_EVAL_OBJECTS = (
    "vertical_metrical",
    "liouville",
    "momentum_liouville",
    "h_normalization",
    "temporal_spray",
    "spatial_spray",
    "connection",
    "frame",
    "coframe",
    "pairing",
)


def cmd_eval(problem: Problem, object_name: str, at: Point) -> None:
    """Print the numeric components of a built object at one point."""
    if at.n != problem.n:
        raise JethamError(f"point has n={at.n}, problem has n={problem.n}")
    n = problem.n
    h, g = problem.time_metric, problem.space_metric
    if object_name == "vertical_metrical":
        values = vertical_metrical(_hamiltonian_of(problem)).evaluate(at)
    elif object_name == "liouville":
        values = liouville(n).evaluate(at)
    elif object_name == "momentum_liouville":
        values = momentum_liouville(h, n).evaluate(at)
    elif object_name == "h_normalization":
        values = h_normalization(h, n).evaluate(at)
    elif object_name == "temporal_spray":
        values = canonical_temporal(h, n).evaluate(at)
    elif object_name == "spatial_spray":
        values = canonical_spatial(g).evaluate(at)
    elif object_name == "connection":
        N = canonical_connection(h, g)
        click.echo(f"N1 = {N.evaluate_temporal(at).tolist()}")
        click.echo(f"N2 = {N.evaluate_spatial(at).tolist()}")
        return
    elif object_name == "frame":
        values = adapted_frame(canonical_connection(h, g)).evaluate(at)
    elif object_name == "coframe":
        values = adapted_coframe(canonical_connection(h, g)).evaluate(at)
    elif object_name == "pairing":
        N = canonical_connection(h, g)
        values = pairing(adapted_frame(N), adapted_coframe(N), at)
    else:
        raise JethamError(
            f"unknown object {object_name!r}; choose from {_EVAL_OBJECTS}"
        )
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


def _load(problem_path: str) -> Problem:
    try:
        return load_problem(problem_path)
    except JethamError as ex:
        click.echo(f"error: {ex}", err=True)
        sys.exit(EXIT_CONFIG_ERROR)


@click.group()
def main():
    """Canonical geometry of a time-dependent metric pair on the momentum
    phase space, with numeric verification of every transformation law."""


@main.command()
@click.option("--problem", "problem_path", required=True, type=click.Path())
@click.option("--json", "json_path", default=None, type=click.Path())
def christoffel(problem_path, json_path):
    """Print Christoffel symbols and check metric invertibility."""
    report = _run_guarded(cmd_christoffel, _load(problem_path))
    _finish(report, json_path)


@main.command()
@click.option("--problem", "problem_path", required=True, type=click.Path())
@click.option("--json", "json_path", default=None, type=click.Path())
def canonical(problem_path, json_path):
    """Print canonical semisprays and connection; check consistency."""
    report = _run_guarded(cmd_canonical, _load(problem_path))
    _finish(report, json_path)


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
    problem = _load(problem_path)
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
    problem = _load(problem_path)
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
