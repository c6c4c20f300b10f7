"""Acceptance criteria for the verification engine, one test per criterion.

Each test prints a single PASS line once its assertions hold (run with -s to
see them); every tolerance is pinned here, nothing is deferred.  Desk scale:
n in {1, 2, 3}, 20 seeded points per chart, whole module under 10 s.
"""

import json
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from jetham.charts import induced_point, scalar_to_new_chart
from jetham.dtensor import (
    DTensor,
    IndexKind,
    h_normalization,
    liouville,
    metric_hamiltonian,
    momentum_liouville,
    verify_dtensor,
    vertical_metrical,
)
from jetham.expr import Components, Point, ZERO, const, diff, evaluate, pvar
from jetham.frames import (
    _verify_blocks,
    adapted_frames,
    pairing,
    verify_adapted_tensoriality,
)
from jetham.metrics import transform_space_metric, transform_time_metric
from jetham.nlconn import (
    NonlinearConnection,
    canonical_connection,
    connection_from_spray,
)
from jetham.spray import (
    MomentumSemispray,
    canonical_spatial,
    canonical_temporal,
    verify_spatial_law,
    verify_temporal_law,
)

from helpers import (
    central_diff,
    compose_changes,
    derivative_pairs,
    metric_pair,
    nonlinear_charts_for,
    random_expr,
    sampled_points,
    spray_from_connection,
)

EXAMPLE_PROBLEM = Path(__file__).resolve().parent.parent / "problems" / "example.json"


def report(criterion: int, text: str):
    print(f"PASS criterion {criterion}: {text}")


def test_c1_derivative_exactness():
    checked = 0
    for e, v, q in derivative_pairs(seed=20260810, count=1000):
        exact = evaluate(diff(e, v), q)
        fd = central_diff(e, v, q)
        if abs(exact) < 1e-3:
            assert abs(fd - exact) <= 1e-9, (str(e), v, exact, fd)
        else:
            assert abs(fd - exact) / abs(exact) <= 1e-6, (str(e), v, exact, fd)
        checked += 1
    assert checked == 1000
    report(1, "symbolic derivatives match central finite differences on "
              "1000 randomized expression/point pairs (rel 1e-6)")


def test_c2_induced_momentum_structure():
    for n in (1, 2, 3):
        suite = list(nonlinear_charts_for(n).values())
        points = sampled_points(n, 20, seed=301)
        for c in suite:
            for q in points:
                image = induced_point(c, q)
                # linearity in p: scaling by 2 is exact in IEEE arithmetic
                doubled = induced_point(c, Point(q.t, q.x, tuple(2.0 * v for v in q.p)))
                assert doubled.t == image.t and doubled.x == image.x
                assert doubled.p == tuple(2.0 * v for v in image.p)
                # general scaling at 1e-12 relative
                a = 1.618
                scaled = induced_point(c, Point(q.t, q.x, tuple(a * v for v in q.p)))
                for got, want in zip(scaled.p, image.p):
                    assert got == pytest.approx(a * want, rel=1e-12, abs=1e-12)
        # functoriality under expression-level chart composition
        c1, c2 = suite[0], suite[1]
        composed = compose_changes(c2, c1)
        for q in points:
            direct = induced_point(composed, q)
            stepped = induced_point(c2, induced_point(c1, q))
            for got, want in zip(direct.flat(), stepped.flat()):
                assert got == pytest.approx(want, rel=1e-9, abs=1e-9)
    report(2, "induced momentum map is linear in p (exact) and functorial "
              "under chart composition (1e-9)")


def test_c3_dtensor_suite():
    n = 2
    h, g = metric_pair(n)
    ham = metric_hamiltonian(h, g)
    charts = nonlinear_charts_for(n)
    assert len(charts) >= 3
    points = sampled_points(n, 20, seed=307)
    for cname, c in charts.items():
        h_new = transform_time_metric(h, c)
        ham_new = scalar_to_new_chart(ham, c)
        pairs = {
            "vertical_metrical": (vertical_metrical(ham, n), vertical_metrical(ham_new, n)),
            "liouville": (liouville(n), liouville(n)),
            "momentum_liouville": (momentum_liouville(h, n), momentum_liouville(h_new, n)),
            "h_normalization": (h_normalization(h, n), h_normalization(h_new, n)),
        }
        for tname, (t_old, t_new) in pairs.items():
            rep = verify_dtensor(t_old, t_new, c, points, tol=1e-9)
            assert rep.passed, (cname, tname, rep.max_residual)
    # negative control: one perturbed component must fail
    comps = liouville(n).comps.copy()
    comps[1] = comps[1] + 1
    bad = DTensor(n, comps, (IndexKind.MOM_DOWN,))
    assert not verify_dtensor(liouville(n), bad, charts["shear"], points).passed
    report(3, "all four built-in d-tensors pass their law over 3 nonlinear "
              "charts x 20 points at 1e-9; perturbed control fails")


def test_c4_semispray_covariance():
    for n in (1, 2, 3):
        h, g = metric_pair(n)
        G_t, G_s = canonical_temporal(h, n), canonical_spatial(g)
        points = sampled_points(n, 20, seed=311)
        for cname, c in nonlinear_charts_for(n).items():
            t_new = canonical_temporal(transform_time_metric(h, c), n)
            s_new = canonical_spatial(transform_space_metric(g, c))
            assert verify_temporal_law(G_t, t_new, c, points, tol=1e-9).passed, cname
            assert verify_spatial_law(G_s, s_new, c, points, tol=1e-9).passed, cname
    # negative control: identical components without the inhomogeneous
    # correction must fail under t~ = t + t^3
    n = 2
    h, g = metric_pair(n)
    cubic = nonlinear_charts_for(n)["cubic_t"]
    points = sampled_points(n, 20, seed=313)
    assert not verify_temporal_law(
        canonical_temporal(h, n), canonical_temporal(h, n), cubic, points
    ).passed
    assert not verify_spatial_law(
        canonical_spatial(g), canonical_spatial(g), cubic, points
    ).passed
    report(4, "canonical semisprays satisfy the inhomogeneous laws at 1e-9; "
              "uncorrected components fail under t~ = t + t^3")


def test_c5_canonical_connection_consistency():
    for n in (1, 2, 3):
        h, g = metric_pair(n)
        G = MomentumSemispray(canonical_temporal(h, n), canonical_spatial(g))
        N_from_G = connection_from_spray(G, g)
        N_canonical = canonical_connection(h, g)
        for q in sampled_points(n, 20, seed=317):
            assert N_from_G.temporal.evaluate(q) == pytest.approx(
                N_canonical.temporal.evaluate(q), rel=1e-9, abs=1e-9
            )
            assert N_from_G.spatial.evaluate(q) == pytest.approx(
                N_canonical.spatial.evaluate(q), rel=1e-9, abs=1e-9
            )
            # h = exp(2t) has time Christoffel identically 1: N1_i = p_i
            assert N_from_G.temporal.evaluate(q) == pytest.approx(
                np.array(q.p), rel=1e-9, abs=1e-9
            )
    report(5, "connection produced by the canonical semisprays equals the "
              "canonical connection at 1e-9 (incl. N1 = p for h = exp(2t))")


def test_c6_round_trips():
    n = 2
    h, g = metric_pair(n)
    N = canonical_connection(h, g)
    G = MomentumSemispray(canonical_temporal(h, n), canonical_spatial(g))
    points = sampled_points(n, 20, seed=331)
    # spatial: exact identity in both directions (x0.5 then x2 is exact)
    N_back = connection_from_spray(spray_from_connection(N), g)
    G_back = spray_from_connection(connection_from_spray(G, g))
    for q in points:
        assert np.array_equal(N_back.spatial.evaluate(q), N.spatial.evaluate(q))
        assert np.array_equal(G_back.spatial.evaluate(q), G.spatial.evaluate(q))
    # temporal: the semispray -> connection -> semispray map is a projection;
    # one application stabilizes every p-quadratic semispray
    rng = random.Random(337)
    for _ in range(3):
        rows = tuple(
            tuple(
                sum(
                    (const(round(rng.uniform(-2, 2), 3)) * pvar(a) * pvar(b)
                     for a in range(n) for b in range(n)),
                    ZERO,
                )
                for _ in range(n)
            )
            for _ in range(n)
        )
        G_quad = MomentumSemispray(Components(n, rows), canonical_spatial(g))
        N1 = connection_from_spray(G_quad, g)
        N2 = connection_from_spray(spray_from_connection(N1), g)
        for q in points:
            assert N2.temporal.evaluate(q) == pytest.approx(
                N1.temporal.evaluate(q), rel=1e-9, abs=1e-9
            )
    report(6, "spatial semispray<->connection is the exact identity both "
              "ways; temporal direction is an idempotent projection (1e-9)")


def test_c7_duality():
    rng = random.Random(347)
    from jetham.errors import DomainError

    cases = []
    for n in (1, 2, 3):
        h, g = metric_pair(n)
        cases.append((n, NonlinearConnection(n, (ZERO,) * n, ((ZERO,) * n,) * n)))
        cases.append((n, canonical_connection(h, g)))
    randomized = 0
    while randomized < 5:
        n = rng.choice([1, 2, 3])
        N = NonlinearConnection(
            n,
            tuple(random_expr(rng, n, depth=3) for _ in range(n)),
            tuple(tuple(random_expr(rng, n, depth=3) for _ in range(n)) for _ in range(n)),
        )
        try:
            for q in sampled_points(n, 10, seed=349):
                pairing(*adapted_frames(N, q))
        except DomainError:
            continue
        cases.append((n, N))
        randomized += 1
    for n, N in cases:
        for q in sampled_points(n, 10, seed=349):
            dev = np.max(np.abs(pairing(*adapted_frames(N, q)) - np.eye(2 * n + 1)))
            assert dev <= 1e-12
    report(7, "adapted frame/coframe pairing is the identity at 1e-12 for "
              "zero, canonical, and 5 randomized connections")


def test_c8_adapted_frame_tensoriality():
    for n in (1, 2, 3):
        h, g = metric_pair(n)
        N = canonical_connection(h, g)
        points = sampled_points(n, 20, seed=353)
        for cname, c in nonlinear_charts_for(n).items():
            N_new = canonical_connection(
                transform_time_metric(h, c), transform_space_metric(g, c)
            )
            rep = verify_adapted_tensoriality(N, N_new, c, points, tol=1e-9)
            assert rep.passed, (n, cname, rep.max_residual)
    # negative control: violated connection mixes blocks and fails
    n = 2
    h, g = metric_pair(n)
    N = canonical_connection(h, g)
    c = nonlinear_charts_for(n)["shear"]
    N_new = canonical_connection(transform_time_metric(h, c), transform_space_metric(g, c))
    bad = NonlinearConnection(n, (N_new.temporal[0] + 1, N_new.temporal[1]), N_new.spatial)
    rep = _verify_blocks(N, bad, c, sampled_points(n, 20, seed=359), 1e-9)
    assert not rep.passed
    report(8, "adapted frames transform block-diagonally with the stated "
              "factors at 1e-9; violated connection fails")


def test_c9_cli_end_to_end(tmp_path):
    def run(json_out):
        return subprocess.run(
            [
                sys.executable, "-m", "jetham.cli", "verify",
                "--problem", str(EXAMPLE_PROBLEM),
                "--json", str(json_out),
            ],
            capture_output=True,
            text=True,
        )

    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    run1, run2 = run(out1), run(out2)
    assert run1.returncode == 0, run1.stdout + run1.stderr
    assert run2.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["summary"]["pass"] is True
    report(9, "bundled example problem verifies end to end with exit 0 and "
              "byte-identical JSON on repeated runs")
