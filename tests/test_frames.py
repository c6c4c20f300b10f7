"""Adapted frames and coframes: duality, triangularity, tensoriality,
and the three-way decomposition of vector fields."""

import random

import numpy as np
import pytest

from jetham.errors import DimensionError, DomainError
from jetham.expr import Const, Point, ZERO, ONE, const, parse
from jetham.frames import (
    _verify_blocks,
    adapted_frames,
    pairing,
    verify_adapted_tensoriality,
)
from jetham.metrics import SpaceMetric, TimeMetric, transform_space_metric, transform_time_metric
from jetham.nlconn import NonlinearConnection, canonical_connection, verify_connection_law
from helpers import (
    charts_for,
    decompose,
    identity_change,
    metric_pair,
    nonlinear_charts_for,
    random_expr,
    reconstruct,
    reference_adapted_frames,
    reference_eval,
    same_structure,
    sampled_points,
)

Q = Point.make(1.0, [2.0, 1.0], [3.0, 5.0])


def zero_connection(n):
    return NonlinearConnection(
        n, (ZERO,) * n, ((ZERO,) * n,) * n
    )


def random_connection(rng, n, zeros=0.0):
    """Random components; a share `zeros` of them are the constants +0.0
    and -0.0, whose signs the frames must keep."""

    def component():
        if zeros and rng.random() < zeros:
            return Const(rng.choice((0.0, -0.0)))
        return random_expr(rng, n, depth=3, at_root=True)

    temporal = tuple(component() for _ in range(n))
    spatial = tuple(tuple(component() for _ in range(n)) for _ in range(n))
    return NonlinearConnection(n, temporal, spatial)


def reference_matrices(N, q):
    """reference_eval of the symbolic reference rows of frame and coframe."""
    return tuple(
        np.array([[reference_eval(e, q) for e in row] for row in rows])
        for rows in reference_adapted_frames(N)
    )


class TestAdaptedFrame:
    def test_zero_connection_is_natural_frame(self):
        F, _ = adapted_frames(zero_connection(2), Q)
        assert np.array_equal(F, np.eye(5))

    def test_canonical_delta_t_row(self):
        h, g = metric_pair(2)
        F, _ = adapted_frames(canonical_connection(h, g), Q)
        row = F[0]
        # h = exp(2t): N1 = p, so the p-columns carry -p = (-3, -5)
        assert row == pytest.approx([1.0, 0.0, 0.0, -3.0, -5.0])

    def test_canonical_delta_x_row(self):
        g = SpaceMetric.diagonal((const(1), parse("x1^2", 2)))
        N = canonical_connection(TimeMetric(const(1)), g)
        F, _ = adapted_frames(N, Q)
        # entry (x1-row, p2-col) = -N_(2)1 = gamma^k_21 p_k = 2.5 at Q
        assert F[1, 4] == pytest.approx(2.5, rel=1e-12)

    def test_unit_triangular_determinant_one(self):
        rng = random.Random(199)
        for n in (1, 2, 3):
            done = 0
            while done < 3:
                N = random_connection(rng, n)
                try:
                    mats = [adapted_frames(N, q)[0] for q in sampled_points(n, 5, seed=211)]
                except DomainError:
                    continue  # random expressions may leave their domain; redraw
                for m in mats:
                    assert np.linalg.det(m) == pytest.approx(1.0, rel=1e-12)
                    assert np.array_equal(np.diag(m), np.ones(2 * n + 1))
                    # only the p-columns of the t/x rows may be nonzero off-diagonal
                    off = m - np.diag(np.diag(m))
                    off[: n + 1, n + 1 :] = 0.0
                    assert np.all(off == 0.0)
                done += 1


class TestAdaptedCoframe:
    def test_zero_connection_is_natural_coframe(self):
        _, C = adapted_frames(zero_connection(2), Q)
        assert np.array_equal(C, np.eye(5))

    def test_delta_p_row_carries_connection_in_dt_column(self):
        h, g = metric_pair(2)
        _, C = adapted_frames(canonical_connection(h, g), Q)
        # delta p_1 = dp_1 + N_(1)1 dt + N_(1)j dx^j with N1_1 = p_1 = 3
        assert C[3, 0] == pytest.approx(3.0, rel=1e-12)

    def test_unit_triangular(self):
        rng = random.Random(223)
        N = random_connection(rng, 2)
        for q in sampled_points(2, 5, seed=227):
            _, m = adapted_frames(N, q)
            assert np.array_equal(np.diag(m), np.ones(5))
            off = m - np.diag(np.diag(m))
            off[3:, :3] = 0.0  # p-rows may carry entries in t/x columns
            assert np.all(off == 0.0)


class TestPairing:
    def test_same_connection_identity_exact(self):
        h, g = metric_pair(2)
        N = canonical_connection(h, g)
        for q in sampled_points(2, 10, seed=229):
            assert np.array_equal(pairing(*adapted_frames(N, q)), np.eye(5))

    def test_randomized_connections_identity(self):
        rng = random.Random(233)
        done = 0
        while done < 5:
            n = rng.choice([1, 2, 3])
            N = random_connection(rng, n)
            try:
                for q in sampled_points(n, 5, seed=239):
                    dev = np.max(np.abs(pairing(*adapted_frames(N, q)) - np.eye(2 * n + 1)))
                    assert dev <= 1e-12
            except DomainError:
                continue  # random expressions may leave their domain; redraw
            done += 1

    def test_zero_connection(self):
        assert np.array_equal(pairing(*adapted_frames(zero_connection(2), Q)), np.eye(5))

    def test_mismatched_connections_show_difference(self):
        h, g = metric_pair(2)
        N = canonical_connection(h, g)
        N0 = zero_connection(2)
        P = pairing(adapted_frames(N0, Q)[0], adapted_frames(N, Q)[1])
        # <delta' p_i, delta/delta t> = (N' - N)_i with N = 0 on the frame side
        assert P[3, 0] == pytest.approx(N.temporal.evaluate(Q)[0])
        assert P[4, 0] == pytest.approx(N.temporal.evaluate(Q)[1])
        # spatial block mismatch
        assert P[3, 1] == pytest.approx(N.spatial.evaluate(Q)[0, 0])

    def test_dimension_mismatch_raises(self):
        F, _ = adapted_frames(zero_connection(2), Q)
        _, C = adapted_frames(zero_connection(1), Point.make(1.0, [2.0], [3.0]))
        with pytest.raises(DimensionError):
            pairing(F, C)


class TestFilledFrames:
    """adapted_frames against reference_eval of the symbolic reference rows,
    bit for bit.  N2 is drawn asymmetric, so an N_(j)i taken for N_(i)j in
    either matrix shows; a canonical connection's N2 is symmetric and
    could not tell them apart."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_reference_rows_bit_for_bit(self, n):
        rng = random.Random(281 + n)
        negative_zeros = 0
        done = 0
        while done < 10:
            N = random_connection(rng, n, zeros=0.3)
            points = sampled_points(n, 4, seed=rng.randrange(1 << 30))
            # zero momenta, of either sign, make -N a signed zero
            points = [
                Point(q.t, q.x, tuple(rng.choice((v, 0.0, -0.0)) for v in q.p)) for q in points
            ]
            try:
                want = [reference_matrices(N, q) for q in points]
                got = [adapted_frames(N, q) for q in points]
            except DomainError:
                continue  # random expressions may leave their domain; redraw
            N2 = [N.spatial.evaluate(q) for q in points]
            if n > 1 and all(np.array_equal(m, m.T) for m in N2):
                continue
            for (F, C), (F_ref, C_ref) in zip(got, want):
                assert F.dtype == C.dtype == np.float64
                assert F.tobytes() == F_ref.tobytes()
                assert C.tobytes() == C_ref.tobytes()
                negative_zeros += int(np.sum((F == 0.0) & np.signbit(F)))
            done += 1
        assert negative_zeros > 0


class TestTensoriality:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_canonical_pairs_transform_block_diagonally(self, n):
        h, g = metric_pair(n)
        N = canonical_connection(h, g)
        points = sampled_points(n, 15, seed=241)
        for cname, c in charts_for(n).items():
            N_new = canonical_connection(
                transform_time_metric(h, c), transform_space_metric(g, c)
            )
            report = verify_adapted_tensoriality(N, N_new, c, points)
            assert report.passed, (n, cname, report.max_residual)
            assert report.max_residual < 1e-9

    def test_identity_change_trivial(self):
        h, g = metric_pair(2)
        N = canonical_connection(h, g)
        report = verify_adapted_tensoriality(
            N, N, identity_change(2), sampled_points(2, 5, seed=251)
        )
        assert report.passed

    def test_violated_connection_reports_precondition(self):
        h, g = metric_pair(2)
        N = canonical_connection(h, g)
        c = nonlinear_charts_for(2)["shear"]
        N_new = canonical_connection(
            transform_time_metric(h, c), transform_space_metric(g, c)
        )
        bad = NonlinearConnection(
            2, (N_new.temporal[0] + 1, N_new.temporal[1]), N_new.spatial
        )
        points = sampled_points(2, 5, seed=257)
        report = verify_adapted_tensoriality(N, bad, c, points)
        # the failed law comes back as records, not as an exception
        assert {r.check_id for r in report.records} == {"frames.connection_precondition"}
        law = verify_connection_law(N, bad, c, points)
        assert [r.residual for r in report.records] == [r.residual for r in law.records]
        assert not report.passed

    def test_violated_connection_mixes_blocks(self):
        h, g = metric_pair(2)
        N = canonical_connection(h, g)
        c = nonlinear_charts_for(2)["shear"]
        N_new = canonical_connection(
            transform_time_metric(h, c), transform_space_metric(g, c)
        )
        bad = NonlinearConnection(
            2, (N_new.temporal[0] + 1, N_new.temporal[1]), N_new.spatial
        )
        # the block comparison itself, without the law checked first
        report = _verify_blocks(N, bad, c, sampled_points(2, 5, seed=263), 1e-9)
        assert not report.passed


class TestDecompose:
    def setup_method(self):
        h, g = metric_pair(2)
        self.N = canonical_connection(h, g)
        self.n = 2

    def test_dt_vector(self):
        v = (ONE, ZERO, ZERO, ZERO, ZERO)
        h_R, h_M, w = decompose(v, self.N)
        assert same_structure(h_R, ONE) and all(same_structure(e, ZERO) for e in h_M)
        # d/dt = delta/delta t + N1_j d/dp_j
        for j in range(self.n):
            assert reference_eval(w[j], Q) == self.N.temporal.evaluate(Q)[j]

    def test_dp_vector(self):
        v = (ZERO, ZERO, ZERO, ONE, ZERO)
        h_R, h_M, w = decompose(v, self.N)
        assert same_structure(h_R, ZERO) and all(same_structure(e, ZERO) for e in h_M)
        assert same_structure(w[0], ONE) and same_structure(w[1], ZERO)

    def test_adapted_row_round_trip(self):
        row = reference_adapted_frames(self.N)[0][1]  # delta/delta x^1
        h_R, h_M, w = decompose(row, self.N)
        assert reference_eval(h_R, Q) == 0.0
        assert [reference_eval(e, Q) for e in h_M] == [1.0, 0.0]
        assert all(reference_eval(e, Q) == 0.0 for e in w)

    def test_reconstruct_inverts_decompose_exactly_on_frame_vectors(self):
        for row in reference_adapted_frames(self.N)[0]:
            h_R, h_M, w = decompose(row, self.N)
            rebuilt = reconstruct(h_R, h_M, w, self.N)
            for got, want in zip(rebuilt, row):
                assert reference_eval(got, Q) == reference_eval(want, Q)

    def test_round_trip_random_fields(self):
        rng = random.Random(269)
        done = 0
        while done < 10:
            v = tuple(random_expr(rng, 2, depth=2) for _ in range(5))
            h_R, h_M, w = decompose(v, self.N)
            rebuilt = reconstruct(h_R, h_M, w, self.N)
            try:
                for q in sampled_points(2, 5, seed=271):
                    for got, want in zip(rebuilt, v):
                        scale = max(1.0, abs(reference_eval(want, q)))
                        error = abs(reference_eval(got, q) - reference_eval(want, q))
                        assert error / scale < 1e-12
            except DomainError:
                continue
            done += 1

    def test_decomposition_coefficients_unique(self):
        # coefficients solve a unit-triangular system; cross-check with numpy
        rng = random.Random(277)
        v = tuple(random_expr(rng, 2, depth=2) for _ in range(5))
        h_R, h_M, w = decompose(v, self.N)
        F, _ = adapted_frames(self.N, Q)
        vals = np.array([reference_eval(e, Q) for e in v])
        coeffs = np.linalg.solve(F.T, vals)
        got = np.array([reference_eval(e, Q) for e in (h_R, *h_M, *w)])
        assert got == pytest.approx(coeffs, rel=1e-12, abs=1e-12)
