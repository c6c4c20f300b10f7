"""Nonlinear connections: canonical construction, semispray correspondence,
round trips, and the connection transformation law."""

import random

import numpy as np
import pytest

from jetham.charts import scalar_to_new_chart
from jetham.expr import Components, Point, Var, const, esum, parse, pvar, tvar, xvar
from jetham.metrics import (
    SpaceMetric,
    TimeMetric,
    transform_space_metric,
    transform_time_metric,
)
from jetham.nlconn import (
    NonlinearConnection,
    canonical_connection,
    connection_from_spray,
    verify_connection_law,
)
from jetham.spray import (
    MomentumSemispray,
    canonical_spatial,
    canonical_temporal,
    verify_spatial_law,
    verify_temporal_law,
)

from helpers import (
    charts_for,
    identity_change,
    metric_pair,
    nonlinear_charts_for,
    sampled_points,
    spray_from_connection,
)

Q = Point.make(1.0, [2.0, 1.0], [3.0, 5.0])


def canonical_pair(n):
    h, g = metric_pair(n)
    G = MomentumSemispray(canonical_temporal(h, n), canonical_spatial(g))
    return h, g, G, canonical_connection(h, g)


def random_quadratic_semispray(rng, n, g):
    """Temporal semispray quadratic in p (the class the temporal projection
    is idempotent on) paired with the metric's canonical spatial part."""
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            row.append(
                esum(
                    const(round(rng.uniform(-2, 2), 3)) * pvar(a) * pvar(b)
                    for a in range(n)
                    for b in range(n)
                )
            )
        rows.append(tuple(row))
    return MomentumSemispray(Components(n, rows), canonical_spatial(g))


class TestCanonicalConnection:
    def test_flat_pair_vanishes(self):
        N = canonical_connection(
            TimeMetric(const(1)), SpaceMetric.diagonal((const(1), const(1)))
        )
        assert all(str(e) == "0" for e in N.temporal)
        assert all(str(e) == "0" for row in N.spatial for e in row)

    def test_exponential_time_metric_gives_momenta(self):
        h, g = metric_pair(2)
        N = canonical_connection(h, g)
        assert N.temporal.evaluate(Q) == pytest.approx([3.0, 5.0], rel=1e-12)

    def test_polar_style_spatial_component(self):
        g = SpaceMetric.diagonal((const(1), parse("x1^2", 2)))
        N = canonical_connection(TimeMetric(const(1)), g)
        assert N.spatial.evaluate(Q)[0, 1] == pytest.approx(-2.5, rel=1e-12)


class TestCorrespondence:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_canonical_semisprays_produce_canonical_connection(self, n):
        h, g, G, N = canonical_pair(n)
        N_from_G = connection_from_spray(G, g)
        for q in sampled_points(n, 20, seed=131):
            assert N_from_G.temporal.evaluate(q) == pytest.approx(
                N.temporal.evaluate(q), rel=1e-9, abs=1e-9
            )
            assert N_from_G.spatial.evaluate(q) == pytest.approx(
                N.spatial.evaluate(q), rel=1e-9, abs=1e-9
            )

    def test_exponential_closed_form(self):
        # h = exp(2t) makes the time Christoffel identically 1: N1_i = p_i
        h, g, G, _ = canonical_pair(2)
        N = connection_from_spray(G, g)
        for q in sampled_points(2, 10, seed=137):
            assert N.temporal.evaluate(q) == pytest.approx(np.array(q.p), rel=1e-9)

    def test_zero_spatial_semispray(self):
        _, g = metric_pair(2)
        G = MomentumSemispray(
            canonical_temporal(TimeMetric(const(1)), 2),
            Components(2, ((const(0),) * 2,) * 2),
        )
        N = connection_from_spray(G, g)
        assert all(str(e) == "0" for row in N.spatial for e in row)

    def test_hand_contraction_n1(self):
        # g = 1, G1_(1)1 = H p1^2 / 2 with H = 1: N1 = g^11 (H p1) g_11 = H p1
        g = SpaceMetric.diagonal((const(1),))
        G = MomentumSemispray(
            canonical_temporal(TimeMetric(parse("exp(2*t)", 1)), 1),
            canonical_spatial(g),
        )
        N = connection_from_spray(G, g)
        q = Point.make(0.8, [1.0], [2.5])
        assert N.temporal.evaluate(q)[0] == pytest.approx(2.5, rel=1e-12)

    def test_spray_from_connection_formulas(self):
        _, _, _, N = canonical_pair(2)
        G = spray_from_connection(N)
        for q in sampled_points(2, 5, seed=139):
            NT = N.temporal.evaluate(q)
            for i in range(2):
                for j in range(2):
                    assert G.temporal.evaluate(q)[i, j] == pytest.approx(
                        0.5 * NT[i] * q.p[j], rel=1e-12
                    )
            assert G.spatial.evaluate(q) == pytest.approx(0.5 * N.spatial.evaluate(q))

    def test_zero_connection_gives_zero_spray(self):
        N = NonlinearConnection(
            1, (const(0),), ((const(0),),)
        )
        G = spray_from_connection(N)
        assert str(G.temporal[0, 0]) == "0"
        assert str(G.spatial[0, 0]) == "0"


class TestRoundTrips:
    def test_spatial_exact_both_ways(self):
        _, g, G, N = canonical_pair(2)
        # N2 -> G2 -> N2: exact (multiplication by 0.5 then 2 is exact in IEEE)
        back = connection_from_spray(spray_from_connection(N), g)
        for q in sampled_points(2, 10, seed=149):
            assert np.array_equal(back.spatial.evaluate(q), N.spatial.evaluate(q))
        # G2 -> N2 -> G2
        G2_back = spray_from_connection(connection_from_spray(G, g)).spatial
        for q in sampled_points(2, 10, seed=151):
            assert np.array_equal(G2_back.evaluate(q), G.spatial.evaluate(q))

    def test_temporal_fixes_scalar_times_momenta_family(self):
        # N1_j = f(t, x) p_j is reproduced exactly by the double contraction
        n = 2
        _, g = metric_pair(n)
        f = parse("exp(t) + x1^2", n)
        N = NonlinearConnection(
            n,
            tuple(f * pvar(j) for j in range(n)),
            ((const(0),) * n,) * n,
        )
        back = connection_from_spray(spray_from_connection(N), g)
        for q in sampled_points(n, 10, seed=157):
            assert back.temporal.evaluate(q) == pytest.approx(
                N.temporal.evaluate(q), rel=1e-9
            )

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_temporal_projection_idempotent_on_quadratic_sprays(self, n):
        # the projection G -> N -> (N p / 2) stabilizes after one step for
        # semisprays quadratic in p (Euler's theorem closes the loop)
        rng = random.Random(163 + n)
        _, g = metric_pair(n)
        for _ in range(3):
            G = random_quadratic_semispray(rng, n, g)
            N1 = connection_from_spray(G, g)
            projected = spray_from_connection(N1)
            N2 = connection_from_spray(projected, g)
            for q in sampled_points(n, 10, seed=167):
                assert N2.temporal.evaluate(q) == pytest.approx(
                    N1.temporal.evaluate(q), rel=1e-9, abs=1e-9
                )

    def test_temporal_not_injective_in_general(self):
        # two different temporal semisprays mapping to the same connection:
        # the correspondence is a projection, not a bijection
        n = 1
        g = SpaceMetric.diagonal((const(1),))
        G1 = MomentumSemispray(
            Components(1, ((const(0.5) * pvar(0) * pvar(0),),)),
            canonical_spatial(g),
        )
        # add a p-free term: same p-derivative contraction
        G2 = MomentumSemispray(
            Components(1, ((const(0.5) * pvar(0) * pvar(0) + tvar(),),)),
            canonical_spatial(g),
        )
        N1 = connection_from_spray(G1, g)
        N2 = connection_from_spray(G2, g)
        q = Point.make(1.5, [1.0], [2.0])
        assert N1.temporal.evaluate(q) == pytest.approx(N2.temporal.evaluate(q))


class TestConnectionLaw:
    def test_identity_change_zero_residual(self):
        _, _, _, N = canonical_pair(2)
        report = verify_connection_law(N, N, identity_change(2), sampled_points(2, 5, seed=173))
        assert report.passed and report.max_residual == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_canonical_connections_satisfy_law(self, n):
        h, g, _, N = canonical_pair(n)
        points = sampled_points(n, 20, seed=179)
        for cname, c in charts_for(n).items():
            N_new = canonical_connection(
                transform_time_metric(h, c), transform_space_metric(g, c)
            )
            report = verify_connection_law(N, N_new, c, points)
            assert report.passed, (n, cname, report.max_residual)
            assert report.max_residual < 1e-9

    def test_negative_control(self):
        h, g, _, N = canonical_pair(2)
        c = nonlinear_charts_for(2)["cubic_t"]
        report = verify_connection_law(N, N, c, sampled_points(2, 10, seed=181))
        assert not report.passed

    def test_consistency_with_spray_laws(self):
        # if the canonical semisprays satisfy their laws under c, the induced
        # connections satisfy the connection law under c
        n = 2
        h, g, G, _ = canonical_pair(n)
        points = sampled_points(n, 15, seed=191)
        for cname, c in nonlinear_charts_for(n).items():
            h_new = transform_time_metric(h, c)
            g_new = transform_space_metric(g, c)
            G_new = MomentumSemispray(
                canonical_temporal(h_new, n), canonical_spatial(g_new)
            )
            assert verify_temporal_law(G.temporal, G_new.temporal, c, points).passed
            assert verify_spatial_law(G.spatial, G_new.spatial, c, points).passed
            N_old = connection_from_spray(G, g)
            N_new = connection_from_spray(G_new, g_new)
            report = verify_connection_law(N_old, N_new, c, points)
            assert report.passed, (cname, report.max_residual)


def random_entry(rng, n):
    """A random sum of t, x and p terms; entries drawn in turn are related by
    no symmetry."""
    a, b = rng.randrange(n), rng.randrange(n)
    k1, k2, k3 = (const(round(rng.uniform(-2, 2), 3)) for _ in range(3))
    return k1 * pvar(a) * pvar(b) + k2 * xvar(a) * pvar(b) + k3 * tvar() * xvar(b)


def old_chart_factors(c):
    """dt~/dt, dt/dt~ and J[k][j] = dx^k/dx~^j, written in the old chart."""
    to_old_x = {Var.space(i): c.x_fwd[i] for i in range(c.n)}
    J = [[e.substitute(to_old_x) for e in row] for row in c.jac_inv]
    return c.dt_fwd, const(1) / c.dt_fwd, J


def in_new_chart(rows, c):
    return Components(c.n, [[scalar_to_new_chart(e, c) for e in row] for row in rows])


class TestNonSymmetricFamilies:
    """Every canonical family is symmetric in its two indices, so a law that
    contracted the transposed old family would pass on them.  These families
    are random and carry their new-chart components, built symbolically by
    the law itself; a transposed contraction fails them."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_connection_law(self, n):
        rng = random.Random(211 + n)
        points = sampled_points(n, 8, seed=223)
        old_t = [random_entry(rng, n) for _ in range(n)]
        old_s = [[random_entry(rng, n) for _ in range(n)] for _ in range(n)]
        N = NonlinearConnection(n, old_t, old_s)
        assert str(N.spatial[0, 1]) != str(N.spatial[1, 0])
        for cname, c in charts_for(n).items():
            dt, dt_inv, J = old_chart_factors(c)
            idx = range(n)
            new_t = [
                esum(old_t[k] * J[k][j] for k in idx) - dt_inv * c.dmomentum_dt[j]
                for j in idx
            ]
            new_s = [
                [
                    esum(old_s[k][i] * dt * J[k][j] * J[i][r] for k in idx for i in idx)
                    - esum(J[i][r] * c.dmomentum_dx[j][i] for i in idx)
                    for r in idx
                ]
                for j in idx
            ]
            N_new = NonlinearConnection(
                n, in_new_chart([new_t], c)[0], in_new_chart(new_s, c)
            )
            report = verify_connection_law(N, N_new, c, points)
            assert report.passed, (cname, report.max_residual_by_family())

    @pytest.mark.parametrize("n", [2, 3])
    def test_semispray_laws(self, n):
        rng = random.Random(227 + n)
        points = sampled_points(n, 8, seed=229)
        G1 = [[random_entry(rng, n) for _ in range(n)] for _ in range(n)]
        G2 = [[random_entry(rng, n) for _ in range(n)] for _ in range(n)]
        half = const(0.5)
        for cname, c in charts_for(n).items():
            dt, _, J = old_chart_factors(c)
            idx = range(n)

            def homogeneous(G, k, r):
                return esum(G[j][i] * dt * J[j][k] * J[i][r] for j in idx for i in idx)

            # 2 G~_(k)r = 2 G_(j)i (dt~/dt) J[j][k] J[i][r] - J[i][r] (dp~_k/dt) p_i
            new_t = [
                [
                    homogeneous(G1, k, r)
                    - half * esum(J[i][r] * c.dmomentum_dt[k] * pvar(i) for i in idx)
                    for r in idx
                ]
                for k in idx
            ]
            # 2 G~_(s)k = 2 G_(j)i (dt~/dt) J[j][s] J[i][k] - J[i][k] (dp~_s/dx^i)
            new_s = [
                [
                    homogeneous(G2, s, k)
                    - half * esum(J[i][k] * c.dmomentum_dx[s][i] for i in idx)
                    for k in idx
                ]
                for s in idx
            ]
            temporal = verify_temporal_law(Components(n, G1), in_new_chart(new_t, c), c, points)
            spatial = verify_spatial_law(Components(n, G2), in_new_chart(new_s, c), c, points)
            assert temporal.passed, (cname, temporal.max_residual)
            assert spatial.passed, (cname, spatial.max_residual)
