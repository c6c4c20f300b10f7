"""Tests of the benchmark's own parts: the known-answer checker, the
generator and the outside-in tracer.

Run from the root of the repository:

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import math
import re

import pytest

import run
from known_answer import check_report, expected_records
from tracer import Tracer, tree_stats
from workloads import HELD_OUT_SEED, WORKLOADS, case

jetham = run.import_engine()


def _verdict(c):
    problem = jetham.problem_from_dict(c.doc)
    text, _ = run.verdict(jetham, problem, c.corrupt_connection)
    return text


@pytest.fixture(scope="module")
def small_case():
    return case("hamiltonian_n2", 1, 0)


@pytest.fixture(scope="module")
def small_report(small_case):
    return json.loads(_verdict(small_case))


def _check(c, payload):
    text = json.dumps(payload)  # writes NaN as the bare token, as the engine would
    return run.judge(c, text)


# -- known-answer checker ------------------------------------------------------

def test_checker_accepts_the_engine_verdict(small_case, small_report):
    assert _check(small_case, small_report) == []


def test_checker_rejects_nan_residual(small_case, small_report):
    doctored = json.loads(json.dumps(small_report))
    doctored["records"][5]["residual"] = math.nan
    assert _check(small_case, doctored)


def test_checker_rejects_nan_even_when_flagged_pass(small_case, small_report):
    doctored = json.loads(json.dumps(small_report))
    doctored["records"][-1]["residual"] = math.nan
    doctored["records"][-1]["pass"] = True
    assert _check(small_case, doctored)


def test_checker_rejects_residual_over_tolerance(small_case, small_report):
    doctored = json.loads(json.dumps(small_report))
    doctored["records"][0]["residual"] = 1e-6
    assert _check(small_case, doctored)


def test_checker_rejects_wrong_count_and_order(small_case, small_report):
    dropped = json.loads(json.dumps(small_report))
    dropped["records"].pop()
    assert _check(small_case, dropped)
    swapped = json.loads(json.dumps(small_report))
    recs = swapped["records"]
    recs[0], recs[-1] = recs[-1], recs[0]
    assert _check(small_case, swapped)


def test_record_count_formula():
    for charts in (1, 2, 4):
        for points in (1, 3, 40):
            names = [f"c{k}" for k in range(charts)]
            assert len(expected_records(names, points, False)) == points * (2 + 10 * charts)


def test_negative_control_fails_exactly_connection_temporal():
    c = case("points_n2", 1, 5)
    assert c.corrupt_connection
    payload = json.loads(_verdict(c))
    assert _check(c, payload) == []
    failing = {r["check_id"] for r in payload["records"] if not r["pass"]}
    assert failing == {"connection.temporal"}
    # a failure anywhere else is a wrong verdict
    spatial = next(r for r in payload["records"] if r["check_id"] == "connection.spatial")
    spatial["residual"], spatial["pass"] = 1.0, False
    assert _check(c, payload)


def test_checker_rejects_a_pass_on_a_negative_control(small_case, small_report):
    assert check_report(
        json.dumps(small_report),
        [ch["name"] for ch in small_case.doc["charts"]],
        small_case.doc["sample"]["points"],
        small_case.doc["tolerance"],
        corrupt=True,
    )


# -- generator -------------------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generator_is_seeded(workload):
    assert case(workload, 3, 4) == case(workload, 3, 4)
    assert case(workload, 3, 4).doc != case(workload, HELD_OUT_SEED, 4).doc


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generated_problems_load(workload):
    for index in range(WORKLOADS[workload].period):
        jetham.problem_from_dict(case(workload, HELD_OUT_SEED, index).doc)


def test_shapes_do_not_depend_on_the_seed():
    def shape(doc):
        # values, sample points and monomial exponents come from the seed
        masked = dict(doc, sample=len(doc["sample"]["points"]))
        if "hamiltonian" in doc:
            masked["hamiltonian"] = doc["hamiltonian"].count("+")
        return re.sub(r"\d+\.\d+", "#", json.dumps(masked))

    for workload in WORKLOADS:
        assert shape(case(workload, 1, 2).doc) == shape(case(workload, 2, 2).doc)


# -- tracer ----------------------------------------------------------------------

def test_example_counts_match_the_engine_figures():
    """A missed rebinding shows up here as a lower count."""
    counts, faults = run.trace_example(jetham)
    assert faults == []
    assert counts == {
        "example.charts.transition.calls": 560,
        "example.charts.induced_point.calls": 920,
        "example.report.records": 440,
    }


def test_uninstall_restores_every_binding():
    original = jetham.charts.transition
    tracer = Tracer()
    tracer.install()
    assert tracer.unbound() == []
    assert jetham.dtensor.transition.__wrapped__ is original
    tracer.uninstall()
    for module in (jetham, jetham.charts, jetham.dtensor, jetham.spray, jetham.frames):
        assert module.transition is original


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.names += ["cli.cmd_verify", "charts.transition", "charts.transition"]
    tracer.start += [0.0, 1.0, 3.0]
    tracer.end += [10.0, 2.0, 6.0]
    tracer.parent += [-1, 0, 0]
    summary = tracer.summary()
    assert summary["cli.cmd_verify"]["self_s"] == pytest.approx(6.0)
    assert summary["charts.transition"]["calls"] == 2
    assert summary["charts.transition"]["s"] == pytest.approx(4.0)


def test_tree_stats_counts_sharing():
    x = jetham.parse("x1", 1)
    square = x * x
    total = square + square  # one Mul object used twice
    assert tree_stats([total], jetham.Expr) == (7, 3)
    # structurally equal but separately built trees are one distinct node each
    parsed = jetham.parse("x1*x1 + x1*x1", 1)
    assert tree_stats([parsed], jetham.Expr) == (7, 3)


def test_tree_stats_walks_deep_trees_without_recursion():
    e = jetham.parse("x1", 1)
    for k in range(5000):
        e = e + jetham.const(k + 1)
    assert tree_stats([e], jetham.Expr) == (10001, 10001)


# -- BENCHMARK.json --------------------------------------------------------------

def test_benchmark_file_matches_what_the_runs_emit():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    traced = run.run_traced("hamiltonian_n2", 1, 0)
    assert traced["correct"] is False  # no problem was measured in zero seconds
    assert [m["name"] for m in spec["per_layer"]] == list(traced["metrics"])
    plain = run.run_plain("hamiltonian_n2", 1, 0)
    assert plain["correct"]
    assert {m["name"] for m in spec["end_to_end"]} == set(plain["metrics"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        emitted = {**traced["metrics"], **plain["metrics"]}[m["name"]]
        assert m["unit"] == emitted["unit"]
