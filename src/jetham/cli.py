"""Command-line front end: construct the canonical objects of a problem
file and run the verification suites over its charts and sample points.

Exit codes: 0 all checks pass, 2 at least one residual check failed,
3 configuration or parse error, a usage error, or a report file that
cannot be written; 1 where stdout is a closed pipe or the run is
interrupted (Ctrl-C).
Reports are assembled in canonical order (chart index, then point
index), so identical problem files produce byte-identical JSON.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from contextlib import suppress
from dataclasses import replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .charts import scalar_to_new_chart
from .dtensor import (
    DTensor,
    h_normalization,
    liouville,
    metric_hamiltonian,
    momentum_liouville,
    verify_dtensor,
    vertical_metrical,
)
from .errors import JethamError
from .expr import NUMBER, Components, Expr, Point, compile_together, evaluate_together
from .frames import adapted_frames, frames_from_values, pairing, verify_adapted_tensoriality
from .metrics import (
    SpaceMetric,
    TimeMetric,
    christoffel_time,
    compatibility_residuals,
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
from .report import Report, check_points, report_to_json, worst_residuals
from .spray import (
    MomentumSemispray,
    canonical_spatial,
    canonical_temporal,
    verify_spatial_law,
    verify_temporal_law,
)

__all__ = ["SUITES", "cmd_christoffel", "cmd_canonical", "cmd_verify", "cmd_eval", "main"]

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
    def hamiltonian(self) -> Expr:
        if self.origin is not None:
            return scalar_to_new_chart(self.origin.hamiltonian, self.change)
        H = self.problem.hamiltonian
        return metric_hamiltonian(self.h, self.g) if H is None else H

    @cached_property
    def vertical_metrical(self) -> DTensor:
        return vertical_metrical(self.hamiltonian, self.n)

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
        (name, lambda *args, chart, name=name: verify_dtensor(*args, f"dtensor.{name}", chart))
        for name in _DTENSORS
    ],
    "spray": [
        ("temporal", lambda *args, chart: verify_temporal_law(*args, chart)),
        ("spatial", lambda *args, chart: verify_spatial_law(*args, chart)),
    ],
    "connection": [("connection", lambda *args, chart: verify_connection_law(*args, chart))],
    "frames": [("connection", lambda *args, chart: verify_adapted_tensoriality(*args, chart))],
}


def _parts(obj) -> tuple[Components, ...]:
    return (obj.temporal, obj.spatial) if isinstance(obj, NonlinearConnection) else (obj,)


def _charts(problem: Problem, suites, shown=()) -> dict[str, _Chart]:
    """A verdict's charts by name; "" is the problem's own chart.  Each chart
    compiles the objects the suites read, and only those, into one program;
    the own chart's program also holds the objects shown names, which a
    printout reads."""
    charts = {"": _Chart(problem)}
    for spec in problem.charts:
        charts[spec.name] = _Chart(problem, charts[""], spec.change)
    for chart in charts.values():
        reads = [name for suite in suites for name, _ in _SUITES[suite]]
        if chart.origin is None:
            reads += shown
            if "connection" in suites:
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
    return check_points(
        problem.points, problem.tolerance, ("connection.canonical_consistency",),
        lambda a, b, c, d: (np.maximum(worst_residuals(a, b), worst_residuals(c, d)),),
        reads=(N.temporal, N_from_G.temporal, N.spatial, N_from_G.spatial),
    )


def _duality(problem: Problem, origin: _Chart) -> Report:
    """The adapted coframe paired with the adapted frame is the identity."""
    N, size = origin.connection, 2 * problem.n + 1
    return check_points(
        problem.points, DUALITY_TOL, ("frames.duality",),
        lambda N1, N2: (
            np.max(np.abs(pairing(*frames_from_values(N1, N2)) - np.eye(size)), axis=(1, 2)),
        ),
        reads=_parts(N),
    )


# the checks a suite runs in the problem's own chart before its laws
_OWN_CHART_CHECKS = {"connection": _canonical_consistency, "frames": _duality}


def _family(problem: Problem, charts: dict[str, _Chart], suite: str, corrupt=False) -> Report:
    """One suite's report: its own-chart check, then each chart change's
    laws.  corrupt adds 1 to each new-chart connection's first temporal
    component; that copy belongs to no chart's program."""
    origin = charts[""]
    own = _OWN_CHART_CHECKS.get(suite)
    reports = [own(problem, origin)] if own else []
    for spec in problem.charts:
        for name, law in _SUITES[suite]:
            new = getattr(charts[spec.name], name)
            if corrupt:
                new = replace(new, temporal=(new.temporal[0] + 1, *new.temporal[1:]))
            old = getattr(origin, name)
            reports.append(
                law(old, new, spec.change, problem.points, problem.tolerance, chart=spec.name)
            )
    return Report.join(reports)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_christoffel(problem: Problem) -> Report:
    """Print both Christoffel families; check h_11 h^11 = 1, g g^-1 = I and
    the symbols' metric compatibility, all read from one program."""
    n, h, g = problem.n, problem.time_metric, problem.space_metric
    H = christoffel_time(h)
    gamma = g.christoffel

    print(f"time metric      h11 = {h.h11}")
    print(f"time christoffel H_11^1 = {H}")
    entries = [
        (f"gamma^{i + 1}_{j + 1}{k + 1}", gamma[i, j, k])
        for i in range(n)
        for j in range(n)
        for k in range(j, n)
    ]
    # each entry is printed once: a deep tree's text is costly
    nonzero = [(label, e, text) for label, e in entries if (text := str(e)) != "0"]
    for label, _, text in nonzero:
        print(f"{label} = {text}")
    print("values at sample points:")
    shown = Components(n, [*(entry for _, entry, _ in nonzero), H])
    checked = (
        Components(n, [h.h11, inverse_time(h)]),
        *(Components(n, m) for m in (g.g, g.inverse, g.derivatives, gamma.comps)),
    )
    compile_together((shown, *checked))
    # the first rows of the table the checks read too
    for q, row in zip(problem.points[:3], shown.evaluate(problem.points)):
        *values, Hv = row.tolist()
        gvals = [f"{label}={v:.6g}" for (label, _, _), v in zip(nonzero, values)]
        print(f"  t={q.t:.4g} x={q.x}: H={Hv:.6g} " + " ".join(gvals))

    return check_points(
        problem.points, problem.tolerance,
        ("metrics.inverse_time", "metrics.inverse_space", "metrics.compatibility"),
        lambda pair, gmat, ginv, dg, symbols: (
            worst_residuals(pair[:, :1] * pair[:, 1:], np.ones((len(pair), 1))),
            np.max(np.abs(gmat @ ginv - np.eye(n)), axis=(1, 2)),
            compatibility_residuals(dg, symbols, gmat),
        ),
        reads=checked,
    )


def cmd_canonical(problem: Problem) -> Report:
    """Print canonical semisprays and connection; check their consistency."""
    n, charts = problem.n, _charts(problem, ("connection",), shown=("temporal", "spatial"))
    origin = charts[""]
    sprays = (("temporal", "G1", origin.temporal), ("spatial", "G2", origin.spatial))
    N = origin.connection
    for kind, tag, G in sprays:
        print(f"canonical {kind} semispray:")
        for j in range(n):
            for k in range(n):
                print(f"  {tag}_({j + 1}){k + 1} = {G[j, k]}")
    print("canonical nonlinear connection:")
    for j in range(n):
        print(f"  N1_({j + 1}) = {N.temporal[j]}")
    for j in range(n):
        for i in range(n):
            print(f"  N2_({j + 1}){i + 1} = {N.spatial[j, i]}")
    print(f"at {problem.points[0].flat()}:")
    # the first rows of the table the consistency check reads too
    parts = (origin.temporal, origin.spatial, *_parts(N))
    values = evaluate_together((part, problem.points) for part in parts)
    for tag, v in zip(("G1", "G2", "N1", "N2"), values):
        print(f"  {tag} = {v[0].tolist()}")
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
    return Report.join(
        _family(problem, charts, s, corrupt_connection and s == "connection") for s in chosen
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
        print(f"N1 = {values[0].tolist()}")
        print(f"N2 = {values[1].tolist()}")
    else:
        print(f"{object_name} = {np.asarray(values).tolist()}")


# ---------------------------------------------------------------------------
# argparse wiring
# ---------------------------------------------------------------------------

_COMMANDS = {
    "christoffel": "Print Christoffel symbols and check metric invertibility.",
    "canonical": "Print canonical semisprays and connection; check consistency.",
    "verify": "Run transformation-law verification over all charts and points.",
    "eval": "Evaluate a built object at a point.",
}


def _run(args) -> int:
    """Run a parsed command line: print the verdict, write the report."""
    problem = load_problem(args.problem)
    if args.command == "eval":
        try:
            values = args.at.split(",")  # each an optional ASCII sign, then a DSL number
            if not all(re.fullmatch(f"[+-]?{NUMBER}", v) for v in values):
                raise ValueError(f"{args.at!r} has a coordinate that is not a number")
            at = Point.from_flat([float(v) for v in values], problem.n)
            if not all(map(math.isfinite, at.flat())):
                raise ValueError(f"{args.at!r} has a coordinate that is not finite")
        except (ValueError, JethamError) as ex:
            raise JethamError(f"bad --at point: {ex}") from None
        cmd_eval(problem, args.object, at)
        return 0
    if args.command == "verify":
        report = cmd_verify(problem, args.suite or ("all",), args.corrupt_connection)
    else:
        report = (cmd_christoffel if args.command == "christoffel" else cmd_canonical)(problem)
    for r in report.failures()[:10]:
        print(f"FAIL {r.check_id} chart={r.chart or '-'} point={r.point} residual={r.residual:.3e}")
    by_family = report.max_residual_by_family()
    for family in sorted(by_family):
        print(f"{family}: max residual {by_family[family]:.3e}")
    print(f"overall: {'PASS' if report.passed else 'FAIL'} ({len(report.records)} checks)")
    if args.json:
        text = report_to_json(report)
        try:
            Path(args.json).write_text(text)
        except OSError as ex:
            raise JethamError(f"cannot write {args.json}: {ex}") from None
    return 0 if report.passed else EXIT_VERIFICATION_FAILED


class _ArgumentParser(argparse.ArgumentParser):
    """argparse's parser, except that a usage error (an unknown option,
    command or choice, a missing option) exits 3, not 2, the code of a failed
    check, and that a command names an option it does not know under its own
    usage line, where argparse would hand it back to the top-level parser,
    and before a missing one, which argparse would name first."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG_ERROR, f"{self.prog}: error: {message}\n")

    def parse_known_args(self, args=None, namespace=None):
        # a command's parser: _joined has joined each value to its option
        if self._subparsers is None:
            known = self._option_string_actions
            unknown = [a for a in args if a.startswith("-") and a.split("=")[0] not in known]
            if unknown:
                self.error(f"unrecognized arguments: {' '.join(unknown)}")
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="jetham",
        description="Canonical geometry of a time-dependent metric pair on the momentum "
        "phase space, with numeric verification of every transformation law.",
        allow_abbrev=False,
    )
    parser.valued = set()  # the options that take a value, for _joined
    parser.options = {"-h", "--help"}  # every option a command defines

    def option(sub, *names, **kwargs):
        if sub.add_argument(*names, **kwargs).nargs != 0:
            parser.valued.update(names)
        parser.options.update(names)

    commands = parser.add_subparsers(title="commands", dest="command", required=True)
    for name, summary in _COMMANDS.items():
        sub = commands.add_parser(name, help=summary, description=summary, allow_abbrev=False)
        option(sub, "--problem", required=True, metavar="PATH", help="problem file (JSON)")
        if name == "verify":
            option(sub, "--suite", action="append", choices=SUITES,
                   help="verification families to run (repeatable; default: all)")
            option(sub, "--corrupt-connection", action="store_true", help=argparse.SUPPRESS)
        if name == "eval":
            option(sub, "--object", required=True, help=f"one of {', '.join(_EVAL_OBJECTS)}")
            option(sub, "--at", required=True, metavar="T,X...,P...",
                   help="the point, comma-separated")
        else:
            option(sub, "--json", metavar="PATH", help="write the JSON report to this file")
    return parser


def _joined(argv: list[str], valued: set[str], options: set[str]) -> list[str]:
    """argv with each valued option joined to the token after it ("--at
    -1.2,..." -> "--at=-1.2,..."): argparse would read a value that starts
    with "-" as an option.  A token that names an option ("--json",
    "--at=...") is the next option, not a value, so the option before it is
    left missing one; any other token, "--,1.1,..." too, is the value."""
    joined: list[str] = []
    for arg in argv:
        if joined and joined[-1] in valued and arg.split("=")[0] not in options:
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def main(argv: list[str] | None = None) -> int:
    """Run one command line; return its exit code (see the module docstring)."""
    try:
        parser = _parser()
        argv = sys.argv[1:] if argv is None else argv
        args = parser.parse_args(_joined(argv, parser.valued, parser.options))
        code = _run(args)
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
        return code
    except SystemExit as ex:  # argparse exits after --help (0) and a usage error (3)
        return ex.code
    except JethamError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except BrokenPipeError:  # the reader has gone, as with "| head"
        # what stdout still buffers would fail again, loudly, at exit
        with suppress(OSError):  # unless stdout has no file descriptor
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except KeyboardInterrupt:
        print("Aborted!", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
