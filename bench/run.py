"""The jetham benchmark: verdict latency and throughput, and per-layer spans.

Usage, from the root of a checkout:

    python3 bench/run.py --workload points_n2 --seed 1 --seconds 20 --trace 0

One client feeds generated problem documents through the public API
(``problem_from_dict`` -> ``cli.cmd_verify`` -> ``report_to_json``) in a
closed loop in this process and checks every verdict against the problem's
known answer.  Every problem in a run is a different document; see
``workloads.py``.

``--trace 0`` reports the end-to-end metrics.  The run verifies a fixed
number of problems: whole cycles of the workload's shapes, as many as take
about ``--seconds`` of verdict time on the seed engine.  Every version of
the engine therefore verifies the same problems for a given seed (unless
the machine is so contended that the run passes twice ``--seconds`` of wall
time; it then stops after the current cycle and says so).  Times are scaled
to a reference CPU speed by the loop in ``calibrate.py``, which brackets
every timed section; raw wall times are printed beside them.

- ``setup_s``: median over fresh interpreters of ``import jetham`` plus
  ``problem_from_dict`` on the workload's first problems;
- ``verdict_p50_ms`` / ``verdict_tail_ms``: per-problem time of
  ``cmd_verify`` + ``report_to_json``, median and the highest percentile
  with at least 10 problems beyond it;
- ``checks_per_s``: report records per second of verdict time;
- ``peak_rss_mb``: peak resident memory of this process.

``failed_ratio`` (failed / attempted problems; an exception counts as a
failure) is printed and carried by the ``failed`` and ``attempted`` keys.

``--trace 1`` reports per-layer metrics instead, for problems started within
``--seconds``.  Each problem is verified three times from fresh ``Problem``
objects: untraced, traced (spans around the public functions of every
module, see ``tracer.py``), and with the expression-node counter.  Times
and calls are per problem.  The run first traces ``problems/example.json``
and fails if any rebinding was missed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit code 0 when a
result was printed; 2 when the engine sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import reference_seconds, scale
from known_answer import check_report
from tracer import FUNCTIONS, SPAN_NAMES, VERIFIERS, NodeCounter, Tracer, tree_stats
from workloads import DEFAULT_SEED, WORKLOADS, case

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXAMPLE = ROOT / "problems" / "example.json"

SETUP_REPEATS = 5
TAIL_BEYOND = 10
WALL_LIMIT = 2.0  # times --seconds
HASH_SEED = "0"


class SetupError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def import_engine():
    sys.path.insert(0, str(SRC))
    import jetham
    import jetham.cli  # the package does not import its command layer

    if not Path(jetham.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"imported jetham from {jetham.__file__}, not from {SRC}")
    return jetham


def measure_setup(docs: list[dict]) -> tuple[float, float]:
    """Median seconds, over fresh interpreters, to import the engine and load
    every document: at the reference speed, and raw.  One extra first run
    fills the bytecode cache."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    payload = json.dumps(docs)
    scaled, wall = [], []
    for k in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py")],
            input=payload,
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        if done.returncode != 0:
            raise SetupError(f"set-up probe failed:\n{done.stderr}")
        result = json.loads(done.stdout.splitlines()[-1])
        if not Path(result["module"]).resolve().is_relative_to(SRC):
            raise SetupError(f"set-up probe imported jetham from {result['module']}")
        if k:
            scaled.append(result["setup_s"])
            wall.append(result["wall_s"])
    return statistics.median(scaled), statistics.median(wall)


def verdict(jetham, problem, corrupt: bool) -> tuple[str, int]:
    """One verdict through the public API, looked up at call time so that
    installed wrappers are used."""
    report = jetham.cli.cmd_verify(problem, corrupt_connection=corrupt)
    return jetham.report.report_to_json(report), len(report.records)


def judge(c, text: str) -> list[str]:
    doc = c.doc
    return check_report(
        text,
        [ch["name"] for ch in doc["charts"]],
        doc["sample"]["points"],
        doc["tolerance"],
        c.corrupt_connection,
    )


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# End-to-end run
# ---------------------------------------------------------------------------

def latency_stats(values: list[float]) -> tuple[float, float, float]:
    """Median, the highest percentile with at least TAIL_BEYOND values beyond
    it (the maximum when there are too few values), and that percentile."""
    ordered = sorted(values)
    n = len(ordered)
    beyond = TAIL_BEYOND if n > TAIL_BEYOND else 0
    return statistics.median(ordered), ordered[n - beyond - 1], 100.0 * (n - beyond) / n


def run_plain(workload: str, seed: int, seconds: float) -> dict:
    w = WORKLOADS[workload]
    setup_s, setup_wall = measure_setup(
        [case(workload, seed, i).doc for i in range(w.setup_problems)]
    )
    jetham = import_engine()

    scaled: list[float] = []  # verdict seconds at the reference speed
    wall: list[float] = []
    records = attempted = failed = 0
    notes: list[str] = []
    # on a machine so contended that the count takes twice its wall budget,
    # stop after the current cycle, so a run still ends in bounded time
    wall_limit = time.perf_counter() + WALL_LIMIT * seconds
    before = reference_seconds()
    for index in range(w.problems(seconds)):
        if index % w.period == 0 and index and time.perf_counter() > wall_limit:
            notes.append(f"stopped after {index} problems at the wall-time limit")
            break
        attempted += 1
        c = case(workload, seed, index)
        try:
            problem = jetham.problem_from_dict(c.doc)
            gc.collect()
            t0 = time.perf_counter()
            text, count = verdict(jetham, problem, c.corrupt_connection)
            elapsed = time.perf_counter() - t0
        except Exception as ex:  # an exception is a failed verdict, not a crash
            failed += 1
            notes.append(f"problem {index}: {type(ex).__name__}: {ex}")
            before = reference_seconds()
            continue
        after = reference_seconds()
        wrong = judge(c, text)
        if wrong:
            failed += 1
            notes.append(f"problem {index}: {wrong[0]}")
        scaled.append(scale(elapsed, before, after))
        wall.append(elapsed)
        records += count
        before = after
    if not scaled:
        return {"lines": notes[:10], "correct": False, "attempted": attempted,
                "failed": failed, "metrics": {}}

    n = len(scaled)
    p50, tail, pct = latency_stats(scaled)
    wall_p50, wall_tail, _ = latency_stats(wall)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "verdict_p50_ms": metric(1000 * p50, "ms"),
        "verdict_tail_ms": metric(1000 * tail, "ms"),
        "checks_per_s": metric(records / sum(scaled), "1/s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    lines = [
        f"workload {workload}, seed {seed}: {n} problems timed "
        f"({n // w.period} cycles of {w.period} shapes), {records} records",
        "times are at the reference speed (see calibrate.py); raw wall times in brackets",
        f"setup_s         {setup_s:.4f} s [{setup_wall:.4f} s] "
        f"(median of {SETUP_REPEATS} fresh interpreters, {w.setup_problems} problems loaded)",
        f"verdict_p50_ms  {1000 * p50:.2f} ms [{1000 * wall_p50:.2f} ms] ({n} problems)",
        f"verdict_tail_ms {1000 * tail:.2f} ms [{1000 * wall_tail:.2f} ms] "
        f"(p{pct:.1f} of {n} problems)",
        f"checks_per_s    {records / sum(scaled):.1f} 1/s [{records / sum(wall):.1f} 1/s]",
        f"peak_rss_mb     {rss_mb:.1f} MB",
        f"failed_ratio    {failed / attempted:.4f} ({failed} of {attempted})",
    ]
    return {
        "lines": lines + notes[:10],
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

def trace_example(jetham) -> tuple[dict, list[str]]:
    """Trace one verdict of the bundled example; return its counts and any
    instrumentation fault (a missed rebinding or a wrong verdict)."""
    tracer = Tracer()
    tracer.install()
    try:
        faults = [f"not rebound: {name}" for name in tracer.unbound()]
        problem = jetham.problem_from_dict(json.loads(EXAMPLE.read_text()))
        text, count = verdict(jetham, problem, corrupt=False)
    finally:
        tracer.uninstall()
    faults += check_report(
        text,
        [spec.name for spec in problem.charts],
        [list(q.flat()) for q in problem.points],
        problem.tolerance,
        corrupt=False,
    )
    spans = tracer.summary()
    counts = {
        "example.charts.transition.calls": spans["charts.transition"]["calls"],
        "example.charts.induced_point.calls": spans["charts.induced_point"]["calls"],
        "example.report.records": count,
    }
    return counts, faults


def run_traced(workload: str, seed: int, seconds: float) -> dict:
    jetham = import_engine()
    deadline = time.perf_counter() + seconds
    example, faults = trace_example(jetham)

    built: list[list] = []
    current = {}

    def on_build(name, args, result):
        if name == "charts.scalar_to_new_chart":
            built.append([result])
        elif args and args[0] is not current["problem"].time_metric:
            built.append(list(result.temporal) + [e for row in result.spatial for e in row])

    tracer = Tracer(on_build)
    nodes = NodeCounter()

    def timed(c, traced: bool) -> tuple[float, str]:
        """Wall seconds and report of one verdict from a fresh Problem."""
        gc.collect()
        if traced:
            tracer.install()
        try:
            current["problem"] = problem = jetham.problem_from_dict(c.doc)
            t0 = time.perf_counter()
            text, _ = verdict(jetham, problem, c.corrupt_connection)
            return time.perf_counter() - t0, text
        finally:
            if traced:
                tracer.uninstall()

    totals = {name: dict.fromkeys(("calls", "s", "self_s"), 0.0) for name in SPAN_NAMES}
    plain_s = traced_s = 0.0
    tree_nodes = distinct_nodes = built_objects = 0
    attempted = failed = measured = 0
    pairs = needed_connections = 0
    notes: list[str] = []
    before = reference_seconds()
    while time.perf_counter() < deadline:
        c = case(workload, seed, attempted)
        attempted += 1
        tracer.clear()
        built.clear()
        runs = {}
        try:
            # alternate which verdict of the pair goes first, so order effects cancel
            for traced in (False, True) if attempted % 2 else (True, False):
                elapsed, text = timed(c, traced)
                after = reference_seconds()
                runs[traced] = (scale(elapsed, before, after), elapsed, text)
                before = after
            problem = jetham.problem_from_dict(c.doc)
            nodes.install()
            try:
                verdict(jetham, problem, c.corrupt_connection)
            finally:
                nodes.uninstall()
        except Exception as ex:  # an exception is a failed verdict, not a crash
            failed += 1
            notes.append(f"problem {attempted - 1}: {type(ex).__name__}: {ex}")
            before = reference_seconds()
            continue
        wrong = judge(c, runs[False][2]) + judge(c, runs[True][2])
        if wrong:
            failed += 1
            notes.append(f"problem {attempted - 1}: {wrong[0]}")
        plain_s += runs[False][0]
        traced_s += runs[True][0]
        factor = runs[True][0] / runs[True][1]  # span times at the reference speed
        for name, entry in tracer.summary().items():
            total = totals[name]
            total["calls"] += entry["calls"]
            total["s"] += entry["s"] * factor
            total["self_s"] += entry["self_s"] * factor
        for forest in built:
            t, d = tree_stats(forest, jetham.expr.Expr)
            tree_nodes += t
            distinct_nodes += d
        built_objects += len(built)
        n_charts = len(c.doc["charts"])
        pairs += n_charts * len(c.doc["sample"]["points"])
        needed_connections += n_charts + 1
        measured += 1

    per = max(measured, 1)
    metrics = {}
    for name, total in totals.items():
        metrics[f"{name}.calls"] = metric(total["calls"] / per, "calls/problem")
        metrics[f"{name}.s"] = metric(total["s"] / per, "s/problem")
        if name in VERIFIERS:
            metrics[f"{name}.self_s"] = metric(total["self_s"] / per, "s/problem")

    def ratio(useful, calls):
        return metric(useful / calls if calls else 0.0, "ratio")

    metrics["charts.transition.useful_ratio"] = ratio(pairs, totals["charts.transition"]["calls"])
    metrics["charts.induced_point.useful_ratio"] = ratio(
        pairs, totals["charts.induced_point"]["calls"]
    )
    metrics["nlconn.canonical_connection.useful_ratio"] = ratio(
        needed_connections, totals["nlconn.canonical_connection"]["calls"]
    )
    metrics["expr.eval.nodes"] = metric(nodes.count / per, "nodes/problem")
    metrics["expr.tree_nodes"] = metric(tree_nodes / max(built_objects, 1), "nodes/object")
    metrics["expr.distinct_nodes"] = metric(
        distinct_nodes / max(built_objects, 1), "nodes/object"
    )
    for module in FUNCTIONS:
        metrics[f"{module}.errors"] = metric(tracer.errors[module], "count")
    metrics["trace.overhead_ratio"] = metric(traced_s / plain_s if plain_s else 0.0, "ratio")
    for name, value in example.items():
        metrics[name] = metric(value, "count")

    lines = [
        f"workload {workload}, seed {seed}, traced: {attempted} problems, {failed} failed",
        f"tracing overhead {metrics['trace.overhead_ratio']['value']:.3f} "
        f"(traced {traced_s:.2f} s / untraced {plain_s:.2f} s verdict time, reference speed)",
        "example: " + ", ".join(f"{k} = {v}" for k, v in example.items()),
    ] + [f"not in this engine, reported as 0: {name}" for name in tracer.missing]
    return {
        "lines": lines + faults + notes[:10],
        "correct": failed == 0 and measured > 0 and not faults,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashing is randomized per process, and with it the engine's
        # set and dict orders: verdict times of one problem differed by up to
        # 15% between processes.  Pin it, so every run measures the same way.
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        argv = sys.argv[1:] if argv is None else argv
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv], env)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "jetham" / "__init__.py").is_file():
        print(f"error: engine sources not found under {SRC}", file=sys.stderr)
        return 2
    run = run_traced if args.trace else run_plain
    try:
        result = run(args.workload, args.seed, args.seconds)
    except SetupError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    for line in result.pop("lines"):
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
