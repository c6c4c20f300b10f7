"""Canonical semisprays and their inhomogeneous transformation laws."""

import numpy as np
import pytest

from jetham.errors import DimensionError
from jetham.expr import Components, Point, const, parse
from jetham.metrics import (
    SpaceMetric,
    TimeMetric,
    transform_space_metric,
    transform_time_metric,
)
from jetham.spray import (
    MomentumSemispray,
    canonical_spatial,
    canonical_temporal,
    verify_spatial_law,
    verify_temporal_law,
)

from helpers import (
    chart,
    charts_for,
    identity_change,
    curved_metric_2d,
    metric_pair,
    nonlinear_charts_for,
    same_structure,
    sampled_points,
)


class TestCanonicalTemporal:
    def test_flat_time_metric_vanishes(self):
        G = canonical_temporal(TimeMetric(const(1)), 2)
        assert all(str(e) == "0" for e in G.comps.flat)

    def test_exponential_metric_values(self):
        # H = 1 identically, so G_(j)k = p_j p_k / 2
        G = canonical_temporal(TimeMetric(parse("exp(2*t)", 2)), 2)
        got = G.evaluate(Point.make(0.7, [1, 1], [1, 2]))
        assert got == pytest.approx(np.array([[0.5, 1.0], [1.0, 2.0]]), rel=1e-12)

    def test_t_squared_metric_value(self):
        # H = 1/t: at t=2, p=(2,0): G_(1)1 = 0.5 * 0.5 * 4 = 1
        G = canonical_temporal(TimeMetric(parse("t^2", 2)), 2)
        assert G.evaluate(Point.make(2.0, [1, 1], [2, 0]))[0, 0] == pytest.approx(1.0)

    def test_homogeneous_degree_two_exact(self):
        G = canonical_temporal(TimeMetric(parse("exp(2*t)", 2)), 2)
        q = Point.make(1.3, [0.8, 1.1], [1.7, -2.3])
        q2 = Point(q.t, q.x, tuple(2.0 * v for v in q.p))
        assert np.array_equal(G.evaluate(q2), 4.0 * G.evaluate(q))

    def test_symmetric_components(self):
        G = canonical_temporal(TimeMetric(parse("t^2", 2)), 2)
        assert same_structure(G[0, 1], G[1, 0])


class TestCanonicalSpatial:
    def test_flat_metric_vanishes(self):
        G = canonical_spatial(SpaceMetric.diagonal((const(1), const(1))))
        assert all(str(e) == "0" for e in G.comps.flat)

    def test_polar_style_values(self):
        g = SpaceMetric.diagonal((const(1), parse("x1^2", 2)))
        G = canonical_spatial(g)
        q = Point.make(1.0, [2.0, 1.0], [3.0, 5.0])
        got = G.evaluate(q)
        # G_(2)2 = -gamma^1_22 p_1 / 2 = 3; G_(1)2 = -gamma^2_12 p_2 / 2 = -1.25
        assert got[1, 1] == pytest.approx(3.0, rel=1e-12)
        assert got[0, 1] == pytest.approx(-1.25, rel=1e-12)

    def test_homogeneous_degree_one_exact(self):
        G = canonical_spatial(curved_metric_2d())
        q = Point.make(1.0, [0.9, 1.2], [2.0, -1.5])
        q2 = Point(q.t, q.x, tuple(2.0 * v for v in q.p))
        assert np.array_equal(G.evaluate(q2), 2.0 * G.evaluate(q))


class TestTemporalLaw:
    def test_identity_change_zero_residual(self):
        h, _ = metric_pair(2)
        G = canonical_temporal(h, 2)
        report = verify_temporal_law(G, G, identity_change(2), sampled_points(2, 5, seed=7))
        assert report.passed and report.max_residual == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_canonical_covariance_full_suite(self, n):
        h, _ = metric_pair(n)
        G = canonical_temporal(h, n)
        points = sampled_points(n, 20, seed=103)
        for cname, c in charts_for(n).items():
            G_new = canonical_temporal(transform_time_metric(h, c), n)
            report = verify_temporal_law(G, G_new, c, points)
            assert report.passed, (n, cname, report.max_residual)
            assert report.max_residual < 1e-9

    def test_negative_control_missing_correction(self):
        # same components in both charts under t~ = t + t^3: the nonzero
        # second derivative makes the inhomogeneous term essential
        n = 2
        h, _ = metric_pair(n)
        G = canonical_temporal(h, n)
        c = nonlinear_charts_for(n)["cubic_t"]
        report = verify_temporal_law(G, G, c, sampled_points(n, 10, seed=107))
        assert not report.passed

    def test_dimension_guard(self):
        h, _ = metric_pair(2)
        with pytest.raises(DimensionError):
            verify_temporal_law(
                canonical_temporal(h, 2),
                canonical_temporal(h, 2),
                identity_change(3),
                sampled_points(3, 2, seed=1),
            )


class TestSpatialLaw:
    def test_identity_change(self):
        g = curved_metric_2d()
        G = canonical_spatial(g)
        report = verify_spatial_law(G, G, identity_change(2), sampled_points(2, 5, seed=19))
        assert report.passed and report.max_residual == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_canonical_covariance_full_suite(self, n):
        _, g = metric_pair(n)
        G = canonical_spatial(g)
        points = sampled_points(n, 20, seed=109)
        for cname, c in charts_for(n).items():
            G_new = canonical_spatial(transform_space_metric(g, c))
            report = verify_spatial_law(G, G_new, c, points)
            assert report.passed, (n, cname, report.max_residual)

    def test_curved_offdiagonal_metric(self):
        g = curved_metric_2d()
        G = canonical_spatial(g)
        for cname, c in nonlinear_charts_for(2).items():
            G_new = canonical_spatial(transform_space_metric(g, c))
            report = verify_spatial_law(G, G_new, c, sampled_points(2, 10, seed=113))
            assert report.passed, (cname, report.max_residual)

    def test_negative_control_mis_scaled(self):
        g = curved_metric_2d()
        G = canonical_spatial(g)
        c = chart(2, "t", "t", ["2*x1", "2*x2"], ["x1/2", "x2/2"])
        bad = Components(
            2, [[const(2) * e for e in row] for row in canonical_spatial(
                transform_space_metric(g, c))]
        )
        report = verify_spatial_law(G, bad, c, sampled_points(2, 10, seed=127))
        assert not report.passed


class TestMomentumSemispray:
    def test_dimension_match_enforced(self):
        h, _ = metric_pair(2)
        _, g1 = metric_pair(1)
        with pytest.raises(DimensionError):
            MomentumSemispray(canonical_temporal(h, 2), canonical_spatial(g1))

    def test_carries_both_parts(self):
        h, g = metric_pair(2)
        G = MomentumSemispray(canonical_temporal(h, 2), canonical_spatial(g))
        assert G.n == 2
