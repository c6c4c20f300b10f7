"""End-to-end CLI behaviour: commands, exit codes, report files."""

import copy
import gc
import hashlib
import io
import json
import math
import os
import random
import struct
import subprocess
import sys
import tempfile
import time
import weakref
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jetham.charts
import jetham.cli
import jetham.dtensor
import jetham.expr
import jetham.frames
import jetham.metrics
import jetham.nlconn
import jetham.report
import jetham.spray
from jetham.charts import TransitionData, induced_point, transition
from jetham.cli import SUITES, cmd_canonical, cmd_christoffel, cmd_verify, main
from jetham.expr import Components, Point, PointSet, parse
from jetham.metrics import christoffel_time
from jetham.nlconn import NonlinearConnection
from jetham.problem import load_problem, problem_from_dict
from jetham.report import CheckRecord, report_to_json

from helpers import (
    InProcessRunner,
    bench_module,
    node_parts,
    node_snapshot,
    random_expr,
    reference_adapted_frames,
    reference_eval,
    structures,
)

EXAMPLE = Path(__file__).resolve().parent.parent / "problems" / "example.json"
FULL_N4 = EXAMPLE.with_name("full_n4.json")
HAMILTONIAN_N2 = EXAMPLE.with_name("hamiltonian_n2.json")


@pytest.fixture
def runner():
    return InProcessRunner()


def write_problem(tmp_path, doc):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    return str(path)


def small_doc(**overrides):
    doc = {
        "n": 2,
        "time_metric": "exp(2*t)",
        "space_metric": [["1", "0"], ["0", "x1^2"]],
        "charts": [
            {
                "name": "shear",
                "t_fwd": "t^2",
                "t_inv": "t^(1/2)",
                "x_fwd": ["x1 + x2^3", "x2"],
                "x_inv": ["x1 - x2^3", "x2"],
            }
        ],
        "sample": {"seed": 3, "count": 5},
        "tolerance": 1e-9,
    }
    doc.update(overrides)
    return doc


class TestVerify:
    def test_bundled_example_passes(self, runner):
        result = runner.invoke(main, ["verify", "--problem", str(EXAMPLE)])
        assert result.exit_code == 0, result.output
        assert "overall: PASS" in result.output

    def test_json_report_deterministic(self, runner, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        r1 = runner.invoke(main, ["verify", "--problem", str(EXAMPLE), "--json", str(out1)])
        r2 = runner.invoke(main, ["verify", "--problem", str(EXAMPLE), "--json", str(out2)])
        assert r1.exit_code == 0 and r2.exit_code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_report_schema(self, runner, tmp_path):
        out = tmp_path / "report.json"
        runner.invoke(main, ["verify", "--problem", str(EXAMPLE), "--json", str(out)])
        payload = json.loads(out.read_text())
        assert set(payload) == {"summary", "records"}
        assert set(payload["summary"]) == {"pass", "max_residual"}
        assert payload["summary"]["pass"] is True
        record = payload["records"][0]
        assert set(record) == {"check_id", "chart", "point", "residual", "pass"}

    def test_suite_subset(self, runner, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(
            main,
            ["verify", "--problem", str(EXAMPLE), "--suite", "dtensor", "--json", str(out)],
        )
        assert result.exit_code == 0
        families = {r["check_id"] for r in json.loads(out.read_text())["records"]}
        assert families == {
            "dtensor.vertical_metrical",
            "dtensor.liouville",
            "dtensor.momentum_liouville",
            "dtensor.h_normalization",
        }

    def test_corrupted_connection_exits_2_and_identifies_failure(self, runner, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(
            main,
            [
                "verify", "--problem", str(EXAMPLE),
                "--suite", "connection",
                "--corrupt-connection",
                "--json", str(out),
            ],
        )
        assert result.exit_code == 2
        payload = json.loads(out.read_text())
        assert payload["summary"]["pass"] is False
        failing = [r for r in payload["records"] if not r["pass"]]
        assert failing
        assert all(r["chart"] for r in failing)  # chart identified
        assert all(len(r["point"]) == 5 for r in failing)  # point identified

    def test_overtight_tolerance_exits_2(self, runner, tmp_path):
        # machine-epsilon residuals exceed an impossible tolerance: the
        # failure path reports honest residuals rather than being faked
        path = write_problem(tmp_path, small_doc(tolerance=1e-18))
        result = runner.invoke(main, ["verify", "--problem", path])
        assert result.exit_code == 2
        assert "FAIL" in result.output

    def test_empty_charts_exit_3(self, runner, tmp_path):
        path = write_problem(tmp_path, small_doc(charts=[]))
        result = runner.invoke(main, ["verify", "--problem", path])
        assert result.exit_code == 3

    def test_malformed_problem_exit_3(self, runner, tmp_path):
        path = write_problem(tmp_path, small_doc(time_metric="exp(2*t"))
        result = runner.invoke(main, ["verify", "--problem", path])
        assert result.exit_code == 3
        assert "time_metric" in result.stderr

    @pytest.mark.parametrize(
        "hamiltonian, message",
        [
            ("p1 + * p2", "hamiltonian: unexpected '*' (at offset 5)"),
            ("p\u0661^2 + p2^2", "hamiltonian: unexpected character '\u0661' (at offset 1)"),
        ],
        ids=["operator", "arabic_indic_digit"],
    )
    def test_hamiltonian_syntax_error_exits_3(self, runner, tmp_path, hamiltonian, message):
        # p\u0661 is no p1: a digit outside ASCII is not read as one
        path = write_problem(tmp_path, small_doc(hamiltonian=hamiltonian))
        result = runner.invoke(main, ["verify", "--problem", path])
        assert result.exit_code == 3
        assert message in result.stderr

    @pytest.mark.parametrize(
        "hamiltonian, message",
        [
            # exp(380)^2 overflows to inf, and inf - inf is NaN: this used to
            # pass with residual 0
            (
                "p1^2*(1 + exp(200*x1)*exp(200*x1) - exp(200*x1)*exp(200*x1)) + p2^2",
                "non-finite value inf in 'exp(200 * x1) * exp(200 * x1)'",
            ),
            # math.cos raises ValueError on inf: this used to exit 1 with a
            # traceback
            ("p1^2*cos(exp(300*x1)*exp(300*x1)) + p2^2", "cos of an infinite value"),
        ],
    )
    def test_non_finite_value_exits_3(self, runner, tmp_path, hamiltonian, message):
        doc = small_doc(
            hamiltonian=hamiltonian, sample={"points": [[1.2, 1.9, 1.1, 0.7, -1.3]]}
        )
        result = runner.invoke(main, ["verify", "--problem", write_problem(tmp_path, doc)])
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert message in result.stderr
        assert "PASS" not in result.output

    @pytest.mark.parametrize("suite", ["all", "dtensor"])
    def test_non_finite_transition_factor_exits_3(self, runner, tmp_path, suite):
        # at t = 0.0069, t~ = 1e-300*exp(1e5*t) is 0.46 and dt~/dt is 4.6e4,
        # so the chart loads, but d2t~/dt2 (in dp~/dt) overflows to inf.
        # This used to exit 2 with a NaN residual, or pass with --suite
        # dtensor, whose laws never read dp~/dt
        chart = {
            "name": "steep_time",
            "t_fwd": "1e-300*exp(100000*t)",
            "t_inv": "(log(t) + 300*log(10))/100000",
            "x_fwd": ["x1", "x2"],
            "x_inv": ["x1", "x2"],
        }
        doc = small_doc(charts=[chart], sample={"points": [[0.0069, 1.9, 1.1, 0.7, -1.3]]})
        path = write_problem(tmp_path, doc)
        result = runner.invoke(main, ["verify", "--problem", path, "--suite", suite])
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert "non-finite value inf in 'exp(100000 * t) * 100000 * 100000'" in result.stderr
        assert "PASS" not in result.output

    def test_n5_dimension_error_exit_3(self, runner, tmp_path):
        def identity_doc(n):
            return {
                "n": n,
                "time_metric": "1",
                "space_metric": [["1" if i == j else "0" for j in range(n)] for i in range(n)],
                "charts": [
                    {
                        "name": "ident",
                        "t_fwd": "t",
                        "t_inv": "t",
                        "x_fwd": [f"x{i + 1}" for i in range(n)],
                        "x_inv": [f"x{i + 1}" for i in range(n)],
                    }
                ],
                "sample": {"seed": 1, "count": 3},
            }

        unparsable = identity_doc(5)
        unparsable["space_metric"][0][0] = "1 +"
        # the dimension is checked before anything is parsed: an n=11
        # determinant takes minutes to build, and a parse error must not
        # hide the limit
        for doc in (identity_doc(5), identity_doc(11), unparsable):
            path = write_problem(tmp_path, doc)
            result = runner.invoke(main, ["verify", "--problem", path])
            assert result.exit_code == 3
            assert "n <= 4" in result.stderr


    @pytest.mark.parametrize(
        "sample, message",
        [
            ({"points": 5}, "sample.points: expected a list of points"),
            ({"points": None}, "sample.points: expected a list of points"),
            ({"points": True}, "sample.points: expected a list of points"),
            ({"seed": 3, "count": 10**12}, "sample.count: at most 10000 points allowed"),
            (
                {"points": [[1.0, 1.0, 1.0, 2.0, 3.0]] * 10_001},
                "sample.points: at most 10000 points allowed",
            ),
        ],
    )
    def test_bad_sample_exits_3_at_once(self, runner, tmp_path, sample, message):
        path = write_problem(tmp_path, small_doc(sample=sample))
        start = time.perf_counter()
        result = runner.invoke(main, ["verify", "--problem", path])
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert message in result.stderr

    def test_unwritable_json_path_exits_3(self, runner, tmp_path):
        target = tmp_path / "no" / "such" / "dir" / "r.json"
        result = runner.invoke(
            main, ["verify", "--problem", str(EXAMPLE), "--json", str(target)]
        )
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert f"error: cannot write {target}: " in result.stderr
        assert not target.exists()

    def test_non_finite_residual_writes_valid_json(self, runner, tmp_path):
        # 2 G overflows on both sides of the temporal semispray law, so its
        # residual is NaN; the report must still be strict JSON
        doc = small_doc(
            n=1,
            time_metric="exp(200*t)",
            space_metric=[["1"]],
            charts=[{"name": "shift", "t_fwd": "t + 1", "t_inv": "t - 1",
                     "x_fwd": ["x1 + 1"], "x_inv": ["x1 - 1"]}],
            sample={"points": [[1.0, 0.5, 1.4e153]]},
        )
        out = tmp_path / "report.json"
        result = runner.invoke(
            main, ["verify", "--problem", write_problem(tmp_path, doc), "--json", str(out)]
        )
        assert result.exit_code == 2

        def reject(token):
            raise ValueError(f"invalid JSON constant {token}")

        payload = json.loads(out.read_text(), parse_constant=reject)
        failing = [(r["check_id"], r["residual"]) for r in payload["records"] if not r["pass"]]
        assert failing == [("spray.temporal", None)]
        assert payload["summary"]["max_residual"]["spray.temporal"] is None


class TestChristoffel:
    def test_prints_symbols_and_passes(self, runner):
        result = runner.invoke(main, ["christoffel", "--problem", str(EXAMPLE)])
        assert result.exit_code == 0
        assert "H_11^1" in result.output
        assert "gamma^1_22" in result.output
        assert "overall: PASS" in result.output

    def test_flat_problem_prints_zero(self, runner, tmp_path):
        doc = small_doc(
            time_metric="1",
            space_metric=[["1", "0"], ["0", "1"]],
        )
        path = write_problem(tmp_path, doc)
        result = runner.invoke(main, ["christoffel", "--problem", path])
        assert result.exit_code == 0
        assert "H_11^1 = 0" in result.output

    def test_malformed_expression_diagnostic(self, runner, tmp_path):
        path = write_problem(tmp_path, small_doc(space_metric=[["1", "0"], ["0", "x1^"]]))
        result = runner.invoke(main, ["christoffel", "--problem", path])
        assert result.exit_code == 3
        assert "space_metric" in result.stderr

    def test_overflowing_metric_derivative_exits_3(self, runner, tmp_path):
        # at x1 = 6.9e-8 the metric is finite, but its derivative overflows:
        # this used to print gamma^1_22=-inf and then PASS with residual 0
        g22 = "x1^2 + 1e-300*exp(10000000000*x1)"
        doc = small_doc(
            space_metric=[["1", "0"], ["0", g22]],
            sample={"points": [[1.2, 6.9e-8, 1.1, 0.7, -1.3]]},
        )
        result = runner.invoke(main, ["christoffel", "--problem", write_problem(tmp_path, doc)])
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert "non-finite value inf" in result.stderr
        assert "PASS" not in result.output

    def test_metric_is_differentiated_once(self, monkeypatch):
        problem = problem_from_dict(small_doc(sample={"seed": 3, "count": 20}))
        seen = _count_calls(monkeypatch, jetham.expr, "diff")
        report = cmd_christoffel(problem)
        assert report.passed and len(report.records) == 3 * 20
        # dh_11/dt once, and each of the n^3 first derivatives of g once,
        # however many points are checked
        assert len(seen) == 1 + 2**3

    def test_programs_are_compiled_once(self, monkeypatch):
        seen = _count_calls(monkeypatch, jetham.expr, "Program")
        compiled = []
        for count in (1, 20):
            problem = problem_from_dict(small_doc(sample={"seed": 3, "count": count}))
            before = len(seen)
            cmd_christoffel(problem)
            compiled.append(len(seen) - before)
        # however many points are checked
        assert compiled[0] == compiled[1]


class TestCanonical:
    def test_prints_canonical_objects(self, runner):
        result = runner.invoke(main, ["canonical", "--problem", str(EXAMPLE)])
        assert result.exit_code == 0
        assert "N1_(1)" in result.output
        assert "G2_(1)2" in result.output
        assert "overall: PASS" in result.output

    def test_flat_pair_all_zero(self, runner, tmp_path):
        doc = small_doc(time_metric="1", space_metric=[["1", "0"], ["0", "1"]])
        path = write_problem(tmp_path, doc)
        result = runner.invoke(main, ["canonical", "--problem", path])
        assert result.exit_code == 0
        assert "N1_(1) = 0" in result.output

    def test_exp_time_flat_space_prints_momenta(self, runner, tmp_path):
        # h = exp(2t), flat g: N1 evaluates to the point's momenta, N2 = 0
        doc = small_doc(space_metric=[["1", "0"], ["0", "1"]])
        doc["sample"] = {"points": [[1.0, 1.0, 1.0, 3.0, 5.0]]}
        path = write_problem(tmp_path, doc)
        result = runner.invoke(main, ["canonical", "--problem", path])
        assert result.exit_code == 0
        assert "N1 = [3.0, 5.0]" in result.output
        assert "N2_(1)1 = 0" in result.output


class TestEval:
    def test_pairing_is_identity(self, runner):
        result = runner.invoke(
            main, ["eval", "--problem", str(EXAMPLE), "--object", "pairing", "--at", "1,2,1,3,5"]
        )
        assert result.exit_code == 0
        payload = result.output.strip().split(" = ", 1)[1]
        matrix = json.loads(payload)
        assert matrix == [[1.0 if i == j else 0.0 for j in range(5)] for i in range(5)]

    def test_liouville_values(self, runner):
        result = runner.invoke(
            main, ["eval", "--problem", str(EXAMPLE), "--object", "liouville", "--at", "1,2,1,3,5"]
        )
        assert result.exit_code == 0
        assert json.loads(result.output.split(" = ", 1)[1]) == [3.0, 5.0]

    def test_frame_matches_module_values(self, runner):
        result = runner.invoke(
            main, ["eval", "--problem", str(EXAMPLE), "--object", "frame", "--at", "1,2,1,3,5"]
        )
        assert result.exit_code == 0
        matrix = json.loads(result.output.split(" = ", 1)[1])
        # h = exp(2t): N1 = p, so the first row ends with (-3, -5)
        assert matrix[0] == [1.0, 0.0, 0.0, -3.0, -5.0]

    @pytest.mark.parametrize("name", list(jetham.cli._EVAL_OBJECTS))
    def test_every_object_matches_the_reference(self, runner, name):
        at = "1.2,1.1,1.3,0.7,-1.3"
        result = runner.invoke(
            main, ["eval", "--problem", str(EXAMPLE), "--object", name, "--at", at]
        )
        assert result.exit_code == 0, result.output
        # the same objects, evaluated by the recursive reference
        origin = jetham.cli._Chart(load_problem(EXAMPLE))
        q = Point.from_flat([float(v) for v in at.split(",")], origin.n)

        def ref(components):
            return np.vectorize(lambda e: reference_eval(e, q), otypes=[float])(
                components.comps
            )

        N = origin.connection
        frame, coframe = (ref(Components(N.n, rows)) for rows in reference_adapted_frames(N))
        want = {
            "temporal_spray": lambda: ref(origin.temporal),
            "spatial_spray": lambda: ref(origin.spatial),
            "connection": lambda: (ref(N.temporal), ref(N.spatial)),
            "frame": lambda: frame,
            "coframe": lambda: coframe,
            "pairing": lambda: coframe @ frame.T,
        }.get(name, lambda: ref(getattr(origin, name)))()
        if name == "connection":
            expected = f"N1 = {want[0].tolist()}\nN2 = {want[1].tolist()}\n"
        else:
            expected = f"{name} = {want.tolist()}\n"
        assert result.output == expected  # float reprs: bit for bit

    def test_unknown_object_exit_3(self, runner):
        result = runner.invoke(
            main, ["eval", "--problem", str(EXAMPLE), "--object", "nope", "--at", "1,2,1,3,5"]
        )
        assert result.exit_code == 3

    def test_bad_point_exit_3(self, runner):
        result = runner.invoke(
            main, ["eval", "--problem", str(EXAMPLE), "--object", "liouville", "--at", "1,2"]
        )
        assert result.exit_code == 3


def _count_calls(monkeypatch, module, name):
    """Wrap module.name under every name a jetham module holds it by, as the
    benchmark's tracer does, and return the list of first arguments seen."""
    original = getattr(module, name)
    seen = []

    def counted(*args, **kwargs):
        seen.append(args[0])
        return original(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("jetham"):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return seen


class TestBuildOnce:
    """One verdict builds each canonical object once (example: 2 charts, so
    3 metric pairs)."""

    def _counts(self, monkeypatch, suite):
        seen = {
            name: _count_calls(monkeypatch, module, name)
            for module, name in (
                (jetham.nlconn, "canonical_connection"),
                (jetham.dtensor, "vertical_metrical"),
                (jetham.metrics, "christoffel_space"),
            )
        }
        report = cmd_verify(load_problem(EXAMPLE), suite)
        assert report.passed
        return seen

    def test_all_suites(self, monkeypatch):
        seen = self._counts(monkeypatch, ("all",))
        assert len(seen["canonical_connection"]) == 3
        assert len(seen["vertical_metrical"]) == 3
        metrics = seen["christoffel_space"]
        assert len(metrics) == 3
        assert len({id(g) for g in metrics}) == 3

    def test_dtensor_suite_builds_no_connection(self, monkeypatch):
        seen = self._counts(monkeypatch, ("dtensor",))
        assert seen["canonical_connection"] == []
        assert seen["christoffel_space"] == []
        assert len(seen["vertical_metrical"]) == 3

    def test_frames_compile_nothing_after_the_connection_family(self, monkeypatch):
        # the frames are filled from connection values the connection suite
        # has already compiled programs for
        problem = load_problem(EXAMPLE)
        charts = jetham.cli._charts(problem, ("connection", "frames"))
        jetham.cli._family(problem, charts, "connection")
        # the inverse changes' transitions at the images, which the frames
        # check alone reads, compile the charts' own programs
        for spec in problem.charts:
            for q in problem.points:
                transition(spec.change.inverse(), induced_point(spec.change, q))
        compiled = _count_calls(monkeypatch, jetham.expr, "Program")
        report = jetham.cli._family(problem, charts, "frames")
        assert report.passed and len(report.records) == 100
        assert compiled == []

    def test_objects_freed_without_gc(self, monkeypatch):
        # the verdict's objects hold no reference cycle, so dropping them
        # frees them at once
        refs = []
        build = jetham.cli.canonical_connection

        def tracked(*args):
            N = build(*args)
            refs.append(weakref.ref(N))
            return N

        monkeypatch.setattr(jetham.cli, "canonical_connection", tracked)
        problem = load_problem(EXAMPLE)
        gc.disable()
        try:
            cmd_verify(problem)
            assert len(refs) == 3
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()


def _eval_every_object(problem):
    with redirect_stdout(io.StringIO()):
        for name in jetham.cli._EVAL_OBJECTS:
            jetham.cli.cmd_eval(problem, name, problem.points[0])
    return True


# every command that builds objects from the problem's nodes, and whether it passed
_BUILDING_COMMANDS = {
    "verify": lambda problem: cmd_verify(problem).passed,
    "canonical": lambda problem: cmd_canonical(problem).passed,
    "christoffel": lambda problem: cmd_christoffel(problem).passed,
    "eval": _eval_every_object,
}


@pytest.mark.parametrize("command", sorted(_BUILDING_COMMANDS))
@pytest.mark.parametrize("path", [EXAMPLE, HAMILTONIAN_N2], ids=lambda p: p.stem)
def test_no_command_mutates_a_node(path, command):
    # nodes are immutable by contract, not by a guard: no command may assign
    # to a field of a node the problem holds
    problem, run = load_problem(path), _BUILDING_COMMANDS[command]
    before = node_snapshot(problem)
    assert run(problem)
    # the nodes the first run left reachable, through what the problem's
    # metrics and chart changes cache
    between = node_snapshot(problem)
    assert run(problem)
    assert len(between) > len(before) > 0
    for snapshot in (before, between):
        assert {key: parts for key, (_, parts) in snapshot.items()} == {
            key: node_parts(node) for key, (node, _) in snapshot.items()
        }


def test_charts_leave_at_most_one_tracked_object_per_node():
    # a node is the only object construction and compilation leave behind
    # per node for the cycle collector: no derivative memo outlives the
    # build that made it
    problem = load_problem(HAMILTONIAN_N2)
    suites = [suite for suite in SUITES if suite != "all"]
    gc.disable()
    try:
        gc.collect()
        before = gc.get_objects()  # held, so that no id is reused
        known = {id(obj) for obj in before}
        charts = jetham.cli._charts(problem, suites)
        left = [obj for obj in gc.get_objects() if id(obj) not in known]
    finally:
        gc.enable()
    nodes = len(node_snapshot(charts))
    assert nodes > 10_000
    assert len(left) <= nodes


class TestSharedStructures:
    """The builders hand out one object for each structure they repeat: a
    metric's mirrored entries, one contraction gamma^i_jk p_i, one time
    Christoffel symbol, the inverse change's derivatives."""

    def test_each_chart_group_holds_few_duplicates(self):
        # a program has a slot per node object, and each duplicate of a
        # structure runs again; building each repeated structure anew gives
        # 1.27-1.39 slots per distinct structure in these groups
        problem = load_problem(FULL_N4)
        charts = jetham.cli._charts(problem, [suite for suite in SUITES if suite != "all"])
        for chart in charts.values():
            parts = [
                part
                for value in vars(chart).values()
                if isinstance(value, (Components, NonlinearConnection))
                for part in jetham.cli._parts(value)
            ]
            (program,) = {id(part._span[0]): part._span[0] for part in parts}.values()
            roots = [e for part in parts for e in part.comps.flat]
            assert len(program) <= 1.10 * structures(roots)

    def test_repeated_structures_are_one_object(self):
        problem = load_problem(FULL_N4)
        g, h = problem.space_metric, problem.time_metric
        assert g.g[1][0] is g.g[0][1]
        assert christoffel_time(h) is christoffel_time(h)
        for spec in problem.charts:
            c = spec.change
            assert c.inverse().jac_fwd is c.jac_inv and c.inverse().jac_inv is c.jac_fwd
            assert c.inverse().dt_fwd is c.dt_inv and c.inverse().dt_inv is c.dt_fwd
        origin = jetham.cli._charts(problem, ("connection",))[""]
        N, G = origin.connection, origin.spatial
        assert N.spatial[0, 1] is N.spatial[1, 0]
        # -gamma^k_ji p_k and -(1/2) gamma^i_jk p_i negate one contraction
        S = g.contracted_christoffel
        assert N.spatial[0, 1].arg is S[0][1] is G[0, 1].arg.right


class TestOneEvaluation:
    """A verdict compiles the objects each chart's suites read into one
    program, and runs each program once per point."""

    @pytest.mark.parametrize(
        "suite, corrupt",
        [(("all",), False), (("all",), True)]
        + [((name,), False) for name in ("dtensor", "spray", "connection", "frames")],
    )
    def test_one_run_per_program_and_point(self, monkeypatch, suite, corrupt):
        problem = load_problem(EXAMPLE)
        runs = counted_runs(monkeypatch)
        # components are compiled inside expr; charts compile their own
        compiled = counted_programs(monkeypatch, jetham.expr)
        report = cmd_verify(problem, suite, corrupt_connection=corrupt)
        assert report.passed is not corrupt
        assert_one_run_each(runs)
        # one components program per chart, and the corrupted component of
        # each new chart's connection compiles its own
        assert len(compiled) == 1 + len(problem.charts) * (1 + corrupt)

    @pytest.mark.parametrize("command", [cmd_christoffel, cmd_canonical],
                             ids=["christoffel", "canonical"])
    def test_printouts_read_the_tables_of_the_checks(self, monkeypatch, command):
        problem = load_problem(EXAMPLE)
        runs = counted_runs(monkeypatch)
        assert command(problem).passed
        assert_one_run_each(runs)

    def test_canonical_compiles_one_program_per_chart(self, monkeypatch):
        # the printed sprays are rows of the problem's own chart's table
        compiled = counted_programs(monkeypatch, jetham.expr)
        problem = load_problem(EXAMPLE)
        assert cmd_canonical(problem).passed
        assert len(compiled) == 1 + len(problem.charts) == 3

    def test_two_programs_per_chart_change(self, monkeypatch):
        # regularity and forward, for each change and its inverse
        compiled = counted_programs(monkeypatch, jetham.charts)
        problem = load_problem(EXAMPLE)
        assert cmd_verify(problem).passed
        changes = [c for spec in problem.charts for c in (spec.change, spec.change.inverse())]
        kept = [v for c in changes for v in vars(c).values() if isinstance(v, jetham.expr.Program)]
        assert len(compiled) == len(kept) == 2 * 2 * len(problem.charts) == 8

    def test_repeated_and_signed_zero_points(self, monkeypatch):
        # a point given twice is one point of every memo and table, and 0.0
        # and -0.0 are two; the verdict compiles the example's programs
        problem = problem_from_dict(repeated_points_doc())
        runs = counted_runs(monkeypatch)
        programs, init = [], jetham.expr.Program.__init__

        def recorded(self, roots):
            init(self, roots)
            programs.append(self)

        monkeypatch.setattr(jetham.expr.Program, "__init__", recorded)
        report = cmd_verify(problem)
        assert report.passed and len(report.records) == 88
        assert_one_run_each(runs)
        got = (len(programs), sum(map(len, programs)), _program_digest(programs))
        assert got == VERIFY_PROGRAMS["example.json"]
        changes = [c for spec in problem.charts for c in (spec.change, spec.change.inverse())]
        kept = [v for c in changes for v in vars(c).values() if isinstance(v, jetham.expr.Program)]
        assert len(kept) == 8
        for c in changes[::2]:  # each change ran at the three distinct points
            assert len({key for p, key in runs if p is c._forward_program}) == 3

    def test_one_run_per_program_and_point_above_the_crossover(self, monkeypatch):
        # the generated points_n2 problems sample 40 points, so each program
        # runs over them in one pass, and no pass runs a pair twice
        case = bench_module("workloads").case("points_n2", 1, 0)
        problem = problem_from_dict(case.doc)
        assert len(problem.points) >= jetham.expr.BATCH_POINTS
        runs = counted_runs(monkeypatch)
        passes, run_points = [], jetham.expr.Program.run_points

        def recorded(self, points):
            passes.append(len(points))
            return run_points(self, points)

        monkeypatch.setattr(jetham.expr.Program, "run_points", recorded)
        report = cmd_verify(problem, corrupt_connection=case.corrupt_connection)
        assert report.passed is not case.corrupt_connection
        assert passes and len(runs) == sum(passes)  # no program ran point by point
        assert_one_run_each(runs)


class TestNoRecordsBuilt:
    """A verdict keeps its results as residual blocks: rendering and counting
    them builds no ``CheckRecord``, and the failures build only their own."""

    @staticmethod
    def counted_records(monkeypatch) -> list:
        built, init = [], CheckRecord.__init__

        def counted(self, *args):
            init(self, *args)
            built.append(self)

        monkeypatch.setattr(CheckRecord, "__init__", counted)
        return built

    def test_a_passing_verdict_builds_no_record(self, monkeypatch):
        problem = load_problem(EXAMPLE)
        built = self.counted_records(monkeypatch)
        report = cmd_verify(problem)
        report_to_json(report)
        assert report.passed and len(report.records) == 440
        assert built == []
        assert report.records[-1] == built[0]  # the counter sees the records read

    def test_a_failing_verdict_builds_its_failures(self, monkeypatch):
        problem = load_problem(EXAMPLE)
        built = self.counted_records(monkeypatch)
        report = cmd_verify(problem, corrupt_connection=True)
        report_to_json(report)
        assert not report.passed and len(report.records) == 440 and built == []
        failures = report.failures()
        assert failures and built == list(failures)


def counted_chart_calls(monkeypatch) -> Counter:
    """Later calls of ``charts.transition`` and ``charts.induced_point``,
    under every name an engine module binds them to, as ``bench/tracer.py``
    counts them: the law modules import both by name, and ``transition``
    calls ``induced_point`` in its own module."""
    calls = Counter()
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "jetham" and m]
    for name in ("transition", "induced_point"):
        original = getattr(jetham.charts, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
        for law_module in (jetham.dtensor, jetham.spray, jetham.nlconn, jetham.frames):
            assert getattr(law_module, name) is counted
    return calls


class TestPassArrays:
    """Every law reads its chart change's pass as one array, while each law
    still makes every per-point chart call that the benchmark's call pins
    count."""

    def test_law_chart_calls_are_pinned(self, monkeypatch):
        # 14 transition and 23 induced_point calls per (chart, point): the
        # 560 and 920 of bench/test_bench.py's example pins
        problem = load_problem(EXAMPLE)
        calls = counted_chart_calls(monkeypatch)
        assert cmd_verify(problem).passed
        pairs = len(problem.charts) * len(problem.points)
        assert calls == {"transition": 14 * pairs, "induced_point": 23 * pairs}
        assert calls == {"transition": 560, "induced_point": 920}

    @pytest.mark.parametrize(
        "workload, law_stacks", [("points_n2", 322), ("deep_n4", 182), ("hamiltonian_n2", 364)]
    )
    def test_law_stacks_are_their_passes(self, monkeypatch, workload, law_stacks):
        # over one seed-1 period, each law's stack of transition data is its
        # pass's own array, and each run_points pass reads a set's array alone
        workloads = bench_module("workloads")
        stacks, stack = [], jetham.report.stack

        def recorded(values):
            stacked = stack(values)
            if isinstance(values[0], TransitionData):
                stacks.append(all(td.row.base is stacked.row for td in values))
            return stacked

        run_points = jetham.expr.Program.run_points

        class ArrayOnly:  # a point set's array, and no Point to read
            def __init__(self, coords):
                self.coords = coords

        def array_only(self, points):
            assert type(points) is PointSet and points.coords is not None
            return run_points(self, ArrayOnly(points.coords))

        monkeypatch.setattr(jetham.report, "stack", recorded)
        monkeypatch.setattr(jetham.expr.Program, "run_points", array_only)
        for index in range(workloads.WORKLOADS[workload].period):
            c = workloads.case(workload, 1, index)
            cmd_verify(problem_from_dict(c.doc), corrupt_connection=c.corrupt_connection)
        assert len(stacks) == law_stacks and all(stacks)


def repeated_points_doc() -> dict:
    """The example problem at a point given twice and a pair of points that
    differ only in the sign of the zero momenta."""
    doc = json.loads(EXAMPLE.read_text())
    point = [1.2, 1.1, 1.3, 0.7, -1.3]
    doc["sample"] = {
        "points": [point, point, [1.2, 1.1, 1.3, -0.0, 0.0], [1.2, 1.1, 1.3, 0.0, 0.0]]
    }
    return doc


def counted_runs(monkeypatch) -> list:
    """Every later ``Program.run``, and each point of every later
    ``Program.run_points`` pass, as (program, point bits); the list keeps
    the programs, so no id is reused."""
    runs, run, run_points = [], jetham.expr.Program.run, jetham.expr.Program.run_points

    def bits(q):
        return struct.pack(f"{2 * q.n + 1}d", q.t, *q.x, *q.p)

    def counted_run(self, q):
        runs.append((self, bits(q)))
        return run(self, q)

    def counted_run_points(self, points):
        runs.extend((self, bits(q)) for q in points)
        return run_points(self, points)

    monkeypatch.setattr(jetham.expr.Program, "run", counted_run)
    monkeypatch.setattr(jetham.expr.Program, "run_points", counted_run_points)
    return runs


def assert_one_run_each(runs) -> None:
    """No program runs twice at one point, and no two programs run the same
    root nodes at one point (a program keeps its nodes, so no id is reused)."""
    assert len(runs) == len({(id(p), key) for p, key in runs})
    assert len(runs) == len({(tuple(id(p._nodes[s]) for s in p._roots), key) for p, key in runs})


def counted_programs(monkeypatch, module) -> list:
    """The roots of every later ``Program`` that module compiles."""
    compiled, program = [], module.Program

    def counted_program(roots):
        compiled.append(roots)
        return program(roots)

    monkeypatch.setattr(module, "Program", counted_program)
    return compiled


def test_each_law_runs_through_its_name_in_cli(monkeypatch):
    # a wrapper bound to a law's name after import (as the benchmark's tracer
    # binds one) sees every call of that law: one per object and chart change
    laws = ("verify_dtensor", "verify_temporal_law", "verify_spatial_law",
            "verify_connection_law", "verify_adapted_tensoriality")
    calls = dict.fromkeys(laws, 0)
    for name in laws:
        def counted(*args, _law=getattr(jetham.cli, name), _name=name, **kwargs):
            calls[_name] += 1
            return _law(*args, **kwargs)

        monkeypatch.setattr(jetham.cli, name, counted)
    assert cmd_verify(load_problem(EXAMPLE)).passed
    assert calls == {"verify_dtensor": 8, "verify_temporal_law": 2, "verify_spatial_law": 2,
                     "verify_connection_law": 2, "verify_adapted_tensoriality": 2}


def test_corrupt_connection_stays_local_to_connection_family():
    # the +1 perturbation must not reach the frames family, which shares the
    # new-chart connections with the connection family
    problem = load_problem(EXAMPLE)
    report = cmd_verify(problem, corrupt_connection=True)
    failing = sorted((r.check_id, r.chart, r.point) for r in report.failures())
    expected = sorted(
        ("connection.temporal", spec.name, q.flat())
        for spec in problem.charts
        for q in problem.points
    )
    assert failing == expected
    frames = [r for r in report.records if r.check_id.startswith("frames.")]
    assert frames and all(r.passed for r in frames)


# sha256 of the example's JSON report, plain and with the corrupted
# connection.  A change that moves a single byte of either report must
# update the pin here, in a commit that says why the bytes moved.
EXAMPLE_REPORT_SHA256 = {
    False: "e87779bc5c057de108e2dabed56b74ea2592a0ea1e34349701681898362b8c09",
    True: "c4a5e051724d72b59687a9c65ce78a02771012e4d53226778ec7ba8b4f8db877",
}


@pytest.mark.parametrize("corrupt", [False, True], ids=["plain", "corrupt_connection"])
def test_example_report_bytes_are_pinned(corrupt):
    report = cmd_verify(load_problem(EXAMPLE), corrupt_connection=corrupt)
    text = report_to_json(report)
    assert hashlib.sha256(text.encode()).hexdigest() == EXAMPLE_REPORT_SHA256[corrupt]


# sha256 of the JSON report of problems/full_n4.json: a full 4x4 metric, one
# chart and three points, so the inverse and the Christoffel symbols are
# built from every minor of g.
FULL_N4_REPORT_SHA256 = "44b0919e6d77f3a171e4832e2ea6f2293950d57f3d5312a168fc02ef766cbf2e"


def test_full_n4_report_bytes_are_pinned():
    text = report_to_json(cmd_verify(load_problem(FULL_N4)))
    assert hashlib.sha256(text.encode()).hexdigest() == FULL_N4_REPORT_SHA256


# sha256 of the JSON report of problems/hamiltonian_n2.json, a 300-term
# Hamiltonian with a full metric, two charts and one point, and of the stdout
# of its vertical metrical d-tensor at that point: the Hessian of the
# Hamiltonian in the problem's chart.
HAMILTONIAN_N2_SHA256 = {
    "report": "a379cd15e3586941852c6ba8b01d4f2b3be3407d22c74aed3e5ba04834f1877e",
    "vertical_metrical": "d7aa4ab35fe7cd5d92f4a36b08b4dcdf483fb22fd2f138efbb9dae8f2a6bd6d6",
}


def test_hamiltonian_n2_report_bytes_are_pinned():
    text = report_to_json(cmd_verify(load_problem(HAMILTONIAN_N2)))
    assert hashlib.sha256(text.encode()).hexdigest() == HAMILTONIAN_N2_SHA256["report"]


# sha256 over the JSON reports of one period of each benchmark workload, in
# stream order, at the default seed and the held-out seed.  Each report is
# also judged against its known answer, so a pin is never taken of a wrong
# verdict.
WORKLOAD_REPORTS_SHA256 = {
    ("points_n2", 1): "4a7beb5e4a2b2fc13a73daab75c1b097f4a33e72c21eced5411ed30081577b95",
    ("points_n2", 7919): "deae2b93a71cb2163ad4c9734c6bbf58fbbf21948c4c09fbe5350b6977bfe147",
    ("deep_n4", 1): "ee3f6d0bf78e4accbdcfa107b6a1f9136eed90aa3afe02ff970cfb3e84461a19",
    ("deep_n4", 7919): "10375cfd6c6919d7661344d8b5d5e8b163d39132bfc82892d526870ad874c6b9",
    ("hamiltonian_n2", 1): "13c0bf146b1c77be003f41ce3f9542b49d34e9212942e084c2262c286da548d1",
    ("hamiltonian_n2", 7919): "76daf00a963e04e4bcd9f061018af5e62122b89469f10aae3bce020906189890",
}


@pytest.mark.parametrize("workload, seed", sorted(WORKLOAD_REPORTS_SHA256))
def test_workload_report_bytes_are_pinned(workload, seed):
    workloads, known_answer = bench_module("workloads"), bench_module("known_answer")
    h = hashlib.sha256()
    for index in range(workloads.WORKLOADS[workload].period):
        c = workloads.case(workload, seed, index)
        report = cmd_verify(problem_from_dict(c.doc), corrupt_connection=c.corrupt_connection)
        text = report_to_json(report)
        charts = [chart["name"] for chart in c.doc["charts"]]
        assert known_answer.check_report(
            text, charts, c.doc["sample"]["points"], c.doc["tolerance"], c.corrupt_connection
        ) == [], index
        h.update(text.encode())
    assert h.hexdigest() == WORKLOAD_REPORTS_SHA256[workload, seed]


def _dsl_strings(doc):
    """Every DSL string of a problem document, in document order: the time
    metric, the space metric's entries row by row, the Hamiltonian and each
    chart's four maps."""
    yield doc["time_metric"]
    for row in doc["space_metric"]:
        yield from row
    if "hamiltonian" in doc:
        yield doc["hamiltonian"]
    for chart_doc in doc["charts"]:
        yield chart_doc["t_fwd"]
        yield chart_doc["t_inv"]
        yield from chart_doc["x_fwd"]
        yield from chart_doc["x_inv"]


# sha256 over the program compiled from each parsed DSL string of one period
# of each benchmark workload, in stream order, at the default seed and the
# held-out seed.  A program has one slot per node object, so the digest pins
# each parse's tree, its association and its sharing; the generated
# Hamiltonians run to 300 terms, where the bundled problems hold one.
WORKLOAD_PARSES_SHA256 = {
    ("points_n2", 1): "ce1501091b6ac2e7213e5d486e057f896df62985c5ed8baf988e90772ca38fd1",
    ("points_n2", 7919): "de7a368fd6b4b2b20782737fe6901eac937f0477a180310107ceba82d50f6e8a",
    ("deep_n4", 1): "b4602d6690757b811933769294560b50794c1c91d0a7e311d4995acdee876e4d",
    ("deep_n4", 7919): "d9d05ac48b1f77d24bebdbd356c5388d3b3180bba23c0eede9e1a64abee84d0a",
    ("hamiltonian_n2", 1): "30e3ef4eba924c195258ecbe168d17810bc452e842d982a6b1ab3c130bdff275",
    ("hamiltonian_n2", 7919): "0e2be6aaa29819f9e18e51a972b1c14b4f04af594c6c8ab3203c0dc92c3b63db",
}


@pytest.mark.parametrize("workload, seed", sorted(WORKLOAD_PARSES_SHA256))
def test_workload_parses_are_pinned(workload, seed):
    workloads = bench_module("workloads")
    programs = []
    for index in range(workloads.WORKLOADS[workload].period):
        doc = workloads.case(workload, seed, index).doc
        programs += (jetham.expr.Program([parse(s, doc["n"])]) for s in _dsl_strings(doc))
    assert _program_digest(programs) == WORKLOAD_PARSES_SHA256[workload, seed]


def _program_digest(programs) -> str:
    """sha256 over programs in compile order: each one's slot count, every
    instruction (opcode, destination slot or "check", operand slots,
    exponent, a load's variable name), the constant bits of its template
    and its root slots."""
    h = hashlib.sha256()
    for program in programs:
        h.update(f"program {len(program)}\n".encode())
        for op, dst, a, b in zip(*program._code):
            if op == jetham.expr._CHECK:
                dst = "check"
            elif op == jetham.expr._LOAD:
                a = a.name
            h.update(f"{op} {dst} {a} {b!r}\n".encode())
        h.update(struct.pack(f"<{len(program)}d", *program._template))
        h.update(f"roots {program._roots}\n".encode())
    return h.hexdigest()


# sha256 of every program that verify compiles for each bundled problem, the
# per-chart programs and each chart change's transition programs, in compile
# order, and their number and total slots.  The trees that diff, substitute
# and the smart constructors build, and Program's slot numbering, decide
# every byte; the reports above pin only their values.
VERIFY_PROGRAMS = {
    "example.json":
        (11, 623, "b531deecf8b9005980624dd83165b3aff2b8242d8ac3d34b21709cf308d9dc91"),
    "full_n4.json":
        (6, 1968, "0c55feaa967cca015752c978b8c6f3e0aa3ec7668775aea77b8246b0f54d3f4c"),
    "hamiltonian_n2.json":
        (11, 9501, "a3e74af7196318a9eea714ce2e97c9adc42efd4e055939a7b6d1aeb42295be03"),
}


@pytest.mark.parametrize("name", sorted(VERIFY_PROGRAMS))
def test_verify_programs_are_pinned(monkeypatch, name):
    problem = load_problem(EXAMPLE.with_name(name))
    programs = []
    init = jetham.expr.Program.__init__

    def recorded(self, roots):
        init(self, roots)
        programs.append(self)

    monkeypatch.setattr(jetham.expr.Program, "__init__", recorded)
    cmd_verify(problem)
    got = (len(programs), sum(map(len, programs)), _program_digest(programs))
    assert got == VERIFY_PROGRAMS[name]


def test_hamiltonian_n2_vertical_metrical_is_pinned(runner):
    point = json.loads(HAMILTONIAN_N2.read_text())["sample"]["points"][0]
    at = ",".join(repr(v) for v in point)
    result = runner.invoke(
        main,
        ["eval", "--problem", str(HAMILTONIAN_N2), "--object", "vertical_metrical", "--at", at],
    )
    assert result.exit_code == 0, result.output
    digest = hashlib.sha256(result.output.encode()).hexdigest()
    assert digest == HAMILTONIAN_N2_SHA256["vertical_metrical"]


# sha256 of the text that christoffel and canonical print, which no report
# holds: the printed expressions and their values at sample points.  A change
# that moves a byte of it must update the pin, in a commit that says why.
PRINTED_SHA256 = {
    ("christoffel", "example.json"):
        "11896cef7f9e164f7f14bc265f0e1f3f3cd44ac88edf3169c8144b0d132cf626",
    ("canonical", "example.json"):
        "d045d578cecf2ac34adc7245e99e6198b86b0b2ab9cf824915a969a3f93f63e2",
    ("christoffel", "full_n4.json"):
        "92d1736b7016cd555d55c2d6cab78e8b327706c573f95c7a05ea63952101702e",
    ("canonical", "full_n4.json"):
        "f823e36dc4eef5683a66bb40291e308ef3188493abe1f8a2e5147295d6ef22d0",
    ("christoffel", "hamiltonian_n2.json"):
        "784112328e7ff0d8b8c9f4745998fd68e561b542de1b6eb65ad8ac2e2bc5dbb7",
}


@pytest.mark.parametrize("command, name", sorted(PRINTED_SHA256))
def test_printed_text_is_pinned(runner, command, name):
    result = runner.invoke(main, [command, "--problem", str(EXAMPLE.with_name(name))])
    assert result.exit_code == 0, result.output
    digest = hashlib.sha256(result.output.encode()).hexdigest()
    assert digest == PRINTED_SHA256[command, name]


# sha256 of the JSON report of christoffel on each bundled problem: the
# inverse-time, inverse-space and compatibility residual at every point.
CHRISTOFFEL_REPORT_SHA256 = {
    "example.json": "317ac1f9d6be6af18537624f69eb6188a74b41087d61f3ef32b664b90ebf0c1b",
    "full_n4.json": "c6dd912e08a6ecfbbf2f899cd4318026d83e15d63f43879fbac133f555e76498",
    "hamiltonian_n2.json": "47963879284962300a6366bf7a04ade813555aceb07fed5b8bb91aa34c0a8c3f",
}


@pytest.mark.parametrize("name", sorted(CHRISTOFFEL_REPORT_SHA256))
def test_christoffel_report_bytes_are_pinned(runner, tmp_path, name):
    out = tmp_path / "report.json"
    args = ["christoffel", "--problem", str(EXAMPLE.with_name(name)), "--json", str(out)]
    assert runner.invoke(main, args).exit_code == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == CHRISTOFFEL_REPORT_SHA256[name]


def _deep_documents():
    """The example, at one point and one chart, with deep expressions."""
    example = json.loads(EXAMPLE.read_text())
    example["charts"] = example["charts"][:1]
    example["sample"] = {"points": [[1.2, 0.9, 1.1, 0.7, -1.3]]}
    polynomial = " + ".join(f"x1^{k}" for k in range(1, 1501))
    long_diagonal = copy.deepcopy(example)
    long_diagonal["space_metric"][0][0] = polynomial
    long_pair = copy.deepcopy(example)
    long_pair["space_metric"][0][1] = long_pair["space_metric"][1][0] = polynomial
    nested = copy.deepcopy(example)
    nested["time_metric"] = "(" * 300 + example["time_metric"] + ")" * 300
    return {"long_diagonal": long_diagonal, "long_pair": long_pair, "nested": nested}


@pytest.mark.parametrize("document", ["long_diagonal", "long_pair", "nested"])
@pytest.mark.parametrize(
    "command",
    [
        ["verify"],
        ["christoffel"],
        ["canonical"],
        ["eval", "--object", "connection", "--at", "1.2,0.9,1.1,0.7,-1.3"],
    ],
    ids=["verify", "christoffel", "canonical", "eval"],
)
def test_deep_input_ends_without_traceback(runner, tmp_path, document, command):
    # each of these used to end in a RecursionError traceback (exit 1)
    path = write_problem(tmp_path, _deep_documents()[document])
    result = runner.invoke(main, [*command, "--problem", path])
    assert result.exit_code in (0, 2, 3), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


def _bad_exponent_documents():
    """The example with an exponent the engine cannot use as a double."""
    example = json.loads(EXAMPLE.read_text())
    zeros = "0" * 400
    places = {
        "zero_denominator": ("space_metric", "x1^(1/0)"),
        "zero_over_zero": ("hamiltonian", "p1^(0/0)"),
        "too_large": ("hamiltonian", f"p1^1{zeros}"),
        "too_large_fraction": ("time_metric", f"t^(1{zeros}/3)"),
        "too_many_digits": ("space_metric", "x1^" + "1" * 5000),
    }
    documents = {}
    for name, (key, text) in places.items():
        doc = copy.deepcopy(example)
        if key == "space_metric":
            doc["space_metric"][1][1] = text
        else:
            doc[key] = text
        documents[name] = doc
    return documents


@pytest.mark.parametrize("document", sorted(_bad_exponent_documents()))
@pytest.mark.parametrize("command", ["verify", "christoffel"])
def test_bad_exponent_exits_3(runner, tmp_path, document, command):
    # each of these used to end in a ZeroDivisionError, OverflowError or
    # ValueError traceback (exit 1)
    path = write_problem(tmp_path, _bad_exponent_documents()[document])
    result = runner.invoke(main, [command, "--problem", path])
    assert result.exit_code == 3, result.output
    assert isinstance(result.exception, SystemExit)
    assert "exponent" in result.output


def test_long_json_integer_exits_3(runner, tmp_path):
    # more digits than the interpreter converts to an int: json raises a
    # plain ValueError, which used to end in a traceback (exit 1)
    text = EXAMPLE.read_text().replace('"count": 20', '"count": 1' + "0" * 5000)
    path = tmp_path / "problem.json"
    path.write_text(text)
    result = runner.invoke(main, ["verify", "--problem", str(path)])
    assert result.exit_code == 3, result.output
    assert isinstance(result.exception, SystemExit)
    assert "invalid JSON" in result.output


@pytest.mark.parametrize(
    "command",
    [["verify"], ["eval", "--object", "liouville", "--at", "1.2,1.1,1.3,0.7,-1.3"]],
    ids=["verify", "eval"],
)
def test_deeply_nested_json_exits_3(runner, tmp_path, command):
    # json raises RecursionError past the interpreter's limit, which used to
    # end in a traceback (exit 1)
    path = tmp_path / "problem.json"
    path.write_text('{"n": ' + "[" * 3000 + "]" * 3000 + "}")
    result = runner.invoke(main, [command[0], "--problem", str(path), *command[1:]])
    assert result.exit_code == 3, result.output
    assert isinstance(result.exception, SystemExit)
    assert "invalid JSON: nested too deeply" in result.stderr


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--bogus"],
        ["verify", "--problem", str(EXAMPLE), "--suite", "nope"],
        ["verify"],  # no --problem
        ["verify", "--problem", str(EXAMPLE), "--bogus"],
        ["eval", "--problem", str(EXAMPLE), "--bogus"],  # no --object, --at
        [],  # no command
        ["nope"],
        ["eval", "--problem", str(EXAMPLE), "--object", "liouville", "--at", "1", "-x"],
        ["verify", "--json", "--problem", str(EXAMPLE)],  # --json has no path
        ["verify", "--problem", "--suite", "dtensor"],  # --problem has no path
    ],
)
def test_usage_error_exits_3(runner, args):
    # exit 2 is a failed check; a typo must not read as one
    result = runner.invoke(main, args)
    assert result.exit_code == 3, result.output
    assert isinstance(result.exception, SystemExit)
    # a command names the option it does not know under its own usage line
    command = args[0] if args and args[0] in _COMMAND_LINES else "[-h]"
    assert result.stderr.startswith(f"usage: jetham {command} "), result.stderr
    # an unknown option is named even where a required one is missing
    if "--bogus" in args:
        assert "unrecognized arguments: --bogus" in result.stderr, result.stderr
    # an option followed by another option is named as missing its value
    for option, following in zip(args, args[1:]):
        if option in ("--json", "--problem") and following.split("=")[0] in _OPTIONS:
            assert f"argument {option}: expected one argument" in result.stderr, result.stderr


@pytest.mark.parametrize(
    "args",
    [
        ["eval", "--problem", str(EXAMPLE), "--object", "liouville", "--at", "--,1.1,1.3,0.7,-1.3"],
        ["verify", "--problem", "--no-such-problem.json"],
    ],
)
def test_a_value_that_starts_with_two_minuses_is_a_bad_value(runner, args):
    # only a token that names an option ends the option before it; any other
    # token is its value, so a bad one is reported as such, not as a usage error
    result = runner.invoke(main, args)
    assert result.exit_code == 3, result.output
    assert "usage:" not in result.stderr, result.stderr
    assert result.stderr.startswith("error: "), result.stderr


@pytest.mark.parametrize(
    "obj, at",
    [("liouville", "nan,1.1,1.3,0.7,-1.3"), ("vertical_metrical", "1.2,1.1,1.3,0.7,nan"),
     ("liouville", "1_2,1.1,1.3,0.7,-1.3"), ("liouville", "\u0661.2,1.1,1.3,0.7,-1.3")],
)
def test_a_non_finite_at_point_is_a_bad_value(runner, obj, at):
    # as in a problem file, where the same point is an input error too; a
    # coordinate is an optional ASCII sign and a DSL number, so neither an
    # underscore nor a digit outside ASCII (ARABIC-INDIC DIGIT ONE) is read
    result = runner.invoke(main, ["eval", "--problem", str(EXAMPLE), "--object", obj, "--at", at])
    assert result.exit_code == 3, result.output
    assert result.stdout == ""
    assert result.stderr.startswith("error: bad --at point: "), result.stderr


@settings(max_examples=25, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False), st.integers(0, 4))
def test_the_repr_of_every_finite_float_is_an_at_coordinate(value, index):
    # so a point printed with repr, as the docs' --at examples are, reads back;
    # the object's values there may still be out of its domain
    coordinates = _AT.split(",")
    coordinates[index] = repr(value)
    args = ["eval", "--problem", str(EXAMPLE), "--object", "liouville", "--at", ",".join(coordinates)]
    result = InProcessRunner().invoke(main, args)
    assert "bad --at point" not in result.stderr, result.stderr


@pytest.mark.parametrize("args", [["--help"], ["verify", "--help"]])
def test_help_exits_0(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0
    assert "usage:" in result.output


def test_help_hides_the_negative_control(runner):
    result = runner.invoke(main, ["verify", "--help"])
    assert result.exit_code == 0 and "--suite" in result.output
    assert "--corrupt-connection" not in result.output


def test_at_may_start_with_a_minus(runner):
    # argparse reads a token that starts with "-" as an option unless it is
    # a plain negative number; "--at -1.2,..." must still be a value
    at = "-1.2,1.1,1.3,0.7,-1.3"
    args = ["eval", "--problem", str(EXAMPLE), "--object", "connection"]
    separate = runner.invoke(main, [*args, "--at", at])
    joined = runner.invoke(main, [*args, f"--at={at}"])
    assert separate.exit_code == joined.exit_code == 0, separate.output
    assert separate.output == joined.output
    assert separate.output.startswith("N1 = [0.7, -1.3]\n")


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: a write, or only the flush of
    buffered writes, raises."""

    def __init__(self, failing: str):
        super().__init__()
        self.failing = failing

    def write(self, text):
        if self.failing == "write":
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("failing", ["write", "flush"])
def test_closed_pipe_exits_1_quietly(failing):
    # as "jetham canonical ... | head" does: no traceback, nothing on stderr
    err = io.StringIO()
    with redirect_stdout(_ClosedPipe(failing)), redirect_stderr(err):
        code = main(["canonical", "--problem", str(EXAMPLE)])
    assert code == 1
    assert err.getvalue() == ""


def test_closed_pipe_exits_1_quietly_in_a_process():
    # "jetham canonical ... | head -c 100": the output (over 64 KiB, more
    # than a pipe holds) stops at a closed pipe; what stdout still buffers
    # must not fail again, with a message on stderr, as the interpreter exits
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(jetham.cli.__file__).parents[1]), *filter(None, [env.get("PYTHONPATH")])]
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "jetham.cli", "canonical", "--problem", str(FULL_N4)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert stderr == b""


def test_interrupt_exits_1_with_aborted(runner, monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(jetham.cli, "cmd_verify", interrupted)
    result = runner.invoke(main, ["verify", "--problem", str(EXAMPLE)])
    assert result.exit_code == 1
    assert result.stderr == "Aborted!\n"


@pytest.mark.parametrize("command", [
    ["verify", "--suite", "dtensor"],
    ["eval", "--object", "vertical_metrical", "--at", "1.2,1.1,1.3,0.7,-1.3"],
], ids=["verify", "eval"])
def test_overflowing_fold_is_named(runner, tmp_path, command):
    # the second p1-derivative of 1e308*p1^2 folds 1e308 * 2, which used to
    # build Const(inf): the error then named only 'inf'
    doc = json.loads(EXAMPLE.read_text())
    doc["hamiltonian"] = "1e308*p1^2 + p2^2"
    result = runner.invoke(main, [*command, "--problem", write_problem(tmp_path, doc)])
    assert result.exit_code == 3, result.output
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert "non-finite value inf in '1e+308 * 2'" in result.stderr
    assert "'inf'" not in result.stderr


# -- every command line ends in a documented exit code ------------------------

_AT = "1.2,1.1,1.3,0.7,-1.3"
_COMMAND_LINES = {
    "christoffel": ["--problem", str(EXAMPLE)],
    "canonical": ["--problem", str(EXAMPLE)],
    "verify": ["--problem", str(EXAMPLE), "--suite", "dtensor"],
    "eval": ["--problem", str(EXAMPLE), "--object", "liouville", "--at", _AT],
}
_OPTIONS = {"--problem", "--json", "--suite", "--object", "--at", "--corrupt-connection", "--help"}
_WORDS = st.from_regex(r"[a-z][a-z-]{0,8}", fullmatch=True)


def _option_values(options):
    """A command's options as (option, value) pairs, in order."""
    return list(zip(options[::2], options[1::2]))


@st.composite
def _argv_mutations(draw):
    """One change to a command line, as a function of the command and its
    options that gives the argv and whether it is a usage error."""
    kind = draw(st.sampled_from(
        ["drop", "unknown_option", "unknown_command", "suite", "at", "json", "repeat"]
    ))
    index = draw(st.integers(0, 10))
    if kind == "drop":  # a required option
        def mutate(command, options):
            pairs = _option_values(options)
            required = [p for p in pairs if p[0] != "--suite"]
            pairs.remove(required[index % len(required)])
            return [command, *(token for pair in pairs for token in pair)], True
    elif kind == "unknown_option":
        option = "--" + draw(_WORDS.filter(lambda w: "--" + w not in _OPTIONS))
        def mutate(command, options):
            at = 2 * (index % (len(options) // 2 + 1))
            return [command, *options[:at], option, *options[at:]], True
    elif kind == "unknown_command":
        word = draw(_WORDS.filter(lambda w: w not in _COMMAND_LINES))
        def mutate(command, options):
            return [word, *options], True
    elif kind == "suite":
        suite = draw(_WORDS.filter(lambda w: w not in SUITES))
        def mutate(command, options):
            return [command, *options, "--suite", suite], True
    elif kind == "at":
        values = _AT.split(",")
        shape = draw(st.sampled_from(["count", "not_a_number", "leading_minus"]))
        if shape == "count":
            values = draw(st.sampled_from([values[:1], values[:4], values + ["1.0"]]))
        elif shape == "not_a_number":
            values[index % 5] = draw(st.sampled_from(["x", "", "1..2", "--", "0x1"]))
        else:
            values[0] = "-" + values[0]
        at = ",".join(values)
        def mutate(command, options):
            if command != "eval":  # no --at there
                return [command, *options, "--at", at], True
            return [command, *options[:-1], at], False
    elif kind == "json":  # in a directory that does not exist
        target = str(EXAMPLE.parent / "no-such-dir" / "report.json")
        def mutate(command, options):
            return [command, *options, "--json", target], command == "eval"
    else:
        def mutate(command, options):
            pairs = _option_values(options)
            return [command, *options, *pairs[index % len(pairs)]], False
    return mutate


@settings(max_examples=40, deadline=None)
@given(_argv_mutations())
def test_every_command_line_ends_in_a_documented_exit_code(mutate):
    for command, options in _COMMAND_LINES.items():
        argv, usage_error = mutate(command, options)
        result = InProcessRunner().invoke(main, argv)
        assert result.exit_code in (0, 2, 3), (argv, result.output)
        assert result.exception is None or isinstance(result.exception, SystemExit), argv
        assert "Traceback" not in result.output
        assert ("usage:" in result.stderr) is usage_error, (argv, result.output)
        if usage_error:
            assert result.exit_code == 3, argv


# -- every problem document ends in a documented exit code --------------------

_TYPE_CHANGES = [None, True, 7, 1.5, "x1", [], {}]
_DSL_EDGES = [
    lambda s: f"({s})^(1/0)",
    lambda s: f"{s} + {'9' * 400}",
    lambda s: f"{s} + 1e999",
    lambda s: f"{s} * x9",
]


def _locations(doc):
    """Every (container, key) of a JSON document, depth first."""
    found, stack = [], [doc]
    while stack:
        node = stack.pop()
        keys = node if isinstance(node, dict) else range(len(node))
        for key in keys:
            found.append((node, key))
            if isinstance(node[key], (dict, list)):
                stack.append(node[key])
    return found


@st.composite
def _broken_examples(draw):
    """A pinned problem at two sample points, with one part broken: a key
    dropped, a value of another type, an edge token in a DSL string, a
    random expression's text in a DSL string, or a sample point that is
    not finite or not 2n + 1 long."""
    doc = json.loads(draw(st.sampled_from([EXAMPLE, FULL_N4, HAMILTONIAN_N2])).read_text())
    n, sample = doc["n"], doc["sample"]
    if "points" in sample:
        sample["points"] = sample["points"][:2]
    else:
        sample["count"] = 2
    kind = draw(st.sampled_from(["drop", "type", "dsl", "random", "point"]))
    places = _locations(doc)
    if kind == "drop":
        node, key = draw(st.sampled_from([(n, k) for n, k in places if isinstance(n, dict)]))
        del node[key]
    elif kind == "type":
        node, key = draw(st.sampled_from(places))
        node[key] = draw(st.sampled_from(_TYPE_CHANGES))
    elif kind in ("dsl", "random"):
        strings = [(n, k) for n, k in places if isinstance(n[k], str) and k != "name"]
        node, key = draw(st.sampled_from(strings))
        if kind == "dsl":
            node[key] = draw(st.sampled_from(_DSL_EDGES))(node[key])
        else:
            # a generated tree's text, run through parse, diff, substitute
            # and Program by whichever object the field feeds
            node[key] = str(random_expr(random.Random(draw(st.integers(0, 2**32 - 1))), n))
    else:
        row = [1.2, *[1.1] * n, *[0.7] * n]
        if draw(st.booleans()):
            row[draw(st.integers(0, 2 * n))] = draw(
                st.sampled_from([math.nan, math.inf, -math.inf])
            )
        else:
            row = draw(st.sampled_from([row[: 2 * n - 1], row[: 2 * n], row + [1.0]]))
        doc["sample"] = {"points": [row]}
    return doc


@settings(max_examples=50, deadline=None)
@given(_broken_examples())
def test_every_document_ends_in_a_documented_exit_code(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "problem.json"
        path.write_text(json.dumps(doc))
        result = InProcessRunner().invoke(main, ["verify", "--problem", str(path)])
    assert result.exit_code in (0, 2, 3), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    for line in result.stderr.splitlines():
        # "charts[0]: charts[0].t_fwd: ..." names one field twice
        parts = line.removeprefix("error: ").split(": ")
        for a, b in zip(parts, parts[1:]):
            assert not b.startswith((a + ".", a + "[")), line


# every pinned report above, with each program run over each point set in one
# Program.run_points pass (a crossover of one point) and point by point (a
# crossover above every point count): the two paths give the same bytes
PINNED_REPORTS = {
    "example_plain": lambda runner, tmp_path: test_example_report_bytes_are_pinned(False),
    "example_corrupt_connection":
        lambda runner, tmp_path: test_example_report_bytes_are_pinned(True),
    "hamiltonian_n2": lambda runner, tmp_path: test_hamiltonian_n2_report_bytes_are_pinned(),
    **{
        f"christoffel_{name}": lambda runner, tmp_path, name=name:
            test_christoffel_report_bytes_are_pinned(runner, tmp_path, name)
        for name in CHRISTOFFEL_REPORT_SHA256
    },
    **{
        f"{workload}_{seed}": lambda runner, tmp_path, workload=workload, seed=seed:
            test_workload_report_bytes_are_pinned(workload, seed)
        for workload, seed in WORKLOAD_REPORTS_SHA256
    },
}


@pytest.mark.parametrize("crossover", [1, 10**9], ids=["batched", "per_point"])
@pytest.mark.parametrize("pin", sorted(PINNED_REPORTS))
def test_report_pins_hold_on_both_paths(monkeypatch, runner, tmp_path, pin, crossover):
    monkeypatch.setattr(jetham.expr, "BATCH_POINTS", crossover)
    PINNED_REPORTS[pin](runner, tmp_path)
