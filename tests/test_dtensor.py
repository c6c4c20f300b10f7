"""The d-tensor transformation law, its verifier, and the built-in fields."""

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
    transform_factor,
    verify_dtensor,
    vertical_metrical,
)
from jetham.errors import SignatureMismatchError
from jetham.expr import Point, const, evaluate, parse
from jetham.metrics import SpaceMetric, TimeMetric, inverse_time, transform_time_metric
from jetham.problem import load_problem
from jetham.spray import canonical_temporal

from helpers import (
    charts_for,
    compose_changes,
    identity_change,
    metric_pair,
    nonlinear_charts_for,
    push_forward,
    random_expr,
    sampled_points,
)
import random
from pathlib import Path

Q = Point.make(1.2, [2.0, 1.3], [3.0, 5.0])
EXAMPLE = Path(__file__).resolve().parent.parent / "problems" / "example.json"


def dtensor_pairs(n, h, g, hamiltonian, c):
    """The four built-in d-tensors in the old chart and, independently
    constructed, in the new chart (the two-chart oracle)."""
    h_new = transform_time_metric(h, c)
    ham_new = scalar_to_new_chart(hamiltonian, c)
    return {
        "vertical_metrical": (vertical_metrical(hamiltonian, n), vertical_metrical(ham_new, n)),
        "liouville": (liouville(n), liouville(n)),
        "momentum_liouville": (momentum_liouville(h, n), momentum_liouville(h_new, n)),
        "h_normalization": (h_normalization(h, n), h_normalization(h_new, n)),
    }


class TestPushForward:
    def test_identity_change_is_identity(self):
        T = liouville(2)
        got = push_forward(T, identity_change(2), Q)
        assert np.array_equal(got, T.evaluate(Q))

    def test_scalar_needs_no_factors(self):
        T = DTensor(2, np.array(parse("t*p1", 2), dtype=object), ())
        c = nonlinear_charts_for(2)["shear"]
        assert push_forward(T, c, Q) == pytest.approx(evaluate(parse("t*p1", 2), Q))

    def test_momentum_down_factor_reproduces_induced_momenta(self):
        # single MOM_DOWN contraction must be the momentum change itself
        for c in charts_for(2).values():
            for q in sampled_points(2, 5, seed=65):
                pushed = push_forward(liouville(2), c, q)
                assert pushed == pytest.approx(np.array(induced_point(c, q).p), rel=1e-12)

    def test_momup_momdown_factors_contract_to_identity(self):
        from jetham.charts import transition

        c = nonlinear_charts_for(2)["stretch"]
        td = transition(c, Q)
        up = transform_factor(IndexKind.MOM_UP, td)
        down = transform_factor(IndexKind.MOM_DOWN, td)
        assert np.max(np.abs(up @ down.T - np.eye(2))) < 1e-9

    def test_composition_of_changes(self):
        n = 2
        h, g = metric_pair(n)
        T = momentum_liouville(h, n)
        suite = list(nonlinear_charts_for(n).values())
        c1, c2 = suite[0], suite[1]
        composed = compose_changes(c2, c1)
        for q in sampled_points(n, 5, seed=67):
            one_shot = push_forward(T, composed, q)
            # two-step route: push through c1, then evaluate the pushed values
            # by building the intermediate tensor numerically via c2's factors
            from jetham.charts import transition

            mid = induced_point(c1, q)
            td2 = transition(c2, mid)
            step1 = push_forward(T, c1, q)
            factors = [transform_factor(k, td2) for k in T.signature]
            two_step = step1
            axis = 0
            for kind, f in zip(T.signature, factors):
                if kind.has_axis:
                    two_step = np.moveaxis(np.tensordot(f, two_step, axes=(1, axis)), 0, axis)
                    axis += 1
                else:
                    two_step = two_step * f
            assert one_shot == pytest.approx(two_step, rel=1e-9)


class TestVerifyDTensor:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_all_four_builtins_pass_full_suite(self, n):
        h, g = metric_pair(n)
        ham = metric_hamiltonian(h, g)
        points = sampled_points(n, 20, seed=71)
        for cname, c in nonlinear_charts_for(n).items():
            for tname, (t_old, t_new) in dtensor_pairs(n, h, g, ham, c).items():
                report = verify_dtensor(t_old, t_new, c, points)
                assert report.passed, (n, cname, tname, report.max_residual)
                assert report.max_residual < 1e-9

    def test_liouville_under_time_scaling(self):
        c = charts_for(1)["affine"]
        report = verify_dtensor(liouville(1), liouville(1), c, sampled_points(1, 10, seed=73))
        assert report.passed

    def test_liouville_under_space_scaling_hand_factor(self):
        # x~ = 2x, t~ = t: factor (dx/dx~)(dt~/dt) = 1/2, so p~ = p/2
        from helpers import chart

        c = chart(1, "t", "t", ["2*x1"], ["x1/2"])
        q = Point.make(1.0, [1.5], [4.0])
        pushed = push_forward(liouville(1), c, q)
        assert pushed[0] == pytest.approx(2.0, rel=1e-12)
        report = verify_dtensor(liouville(1), liouville(1), c, [q])
        assert report.passed

    def test_perturbed_component_fails(self):
        n = 2
        c = nonlinear_charts_for(n)["shear"]
        comps = liouville(n).comps.copy()
        comps[0] = comps[0] + 1
        bad = DTensor(n, comps, (IndexKind.MOM_DOWN,))
        report = verify_dtensor(liouville(n), bad, c, sampled_points(n, 10, seed=79))
        assert not report.passed

    def test_signature_mismatch_rejected(self):
        with pytest.raises(SignatureMismatchError):
            verify_dtensor(liouville(2), h_normalization(TimeMetric(const(1)), 2),
                           identity_change(2), [Q])

    def test_semispray_is_not_a_dtensor(self):
        # negative control: temporal semispray components pushed as if they
        # formed a [MOM_DOWN, SPACE_DOWN] d-tensor must fail whenever the
        # time change has nonzero second derivative
        n = 2
        h, _ = metric_pair(n)
        G = canonical_temporal(h, n)
        T = DTensor(n, G.comps, (IndexKind.MOM_DOWN, IndexKind.SPACE_DOWN))
        c = nonlinear_charts_for(n)["cubic_t"]  # t~ = t + t^3
        h_new = transform_time_metric(h, c)
        T_new = DTensor(n, canonical_temporal(h_new, n).comps,
                        (IndexKind.MOM_DOWN, IndexKind.SPACE_DOWN))
        report = verify_dtensor(T, T_new, c, sampled_points(n, 10, seed=83))
        assert not report.passed

    def test_semispray_is_a_dtensor_under_affine_time(self):
        # for affine t~ and linear x~ the inhomogeneous term vanishes and the
        # homogeneous factors are exactly MOM_DOWN x SPACE_DOWN
        n = 2
        h, _ = metric_pair(n)
        c = charts_for(n)["affine"]
        T = DTensor(n, canonical_temporal(h, n).comps,
                    (IndexKind.MOM_DOWN, IndexKind.SPACE_DOWN))
        h_new = transform_time_metric(h, c)
        T_new = DTensor(n, canonical_temporal(h_new, n).comps,
                        (IndexKind.MOM_DOWN, IndexKind.SPACE_DOWN))
        report = verify_dtensor(T, T_new, c, sampled_points(n, 10, seed=89))
        assert report.passed, report.max_residual

    @pytest.mark.parametrize(
        "second, passes",
        [(IndexKind.TIME_UP, True), (IndexKind.TIME_DOWN, False)],
        ids=["time_up", "time_down"],
    )
    def test_inverse_time_metric_has_two_upper_time_indices(self, second, passes):
        # h^11 = 1/h_11 scales by (dt~/dt)^2 under a change of t, so it
        # passes as [TIME_UP, TIME_UP] and fails with one index lowered
        problem = load_problem(EXAMPLE)
        signature = (IndexKind.TIME_UP, second)

        def h_up(h):
            comps = np.empty((), dtype=object)
            comps[()] = inverse_time(h)
            return DTensor(problem.n, comps, signature)

        h = problem.time_metric
        for spec in problem.charts:
            h_new = transform_time_metric(h, spec.change)
            report = verify_dtensor(h_up(h), h_up(h_new), spec.change, problem.points)
            assert report.passed is passes, (spec.name, report.max_residual)
            if passes:
                assert report.max_residual < 1e-12
            else:
                assert report.max_residual > 0.5


class TestContractionInvariance:
    def test_momup_momdown_scalar(self):
        n = 2
        rng = random.Random(97)
        up = DTensor(n, [random_expr(rng, n, depth=2) for _ in range(n)], (IndexKind.MOM_UP,))
        down = liouville(n)
        for c in nonlinear_charts_for(n).values():
            for q in sampled_points(n, 5, seed=101):
                lhs = float(push_forward(up, c, q) @ push_forward(down, c, q))
                rhs = float(up.evaluate(q) @ down.evaluate(q))
                assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


class TestBuiltins:
    def test_vertical_metrical_of_pure_kinetic(self):
        H = parse("p1^2", 1)
        assert vertical_metrical(H, 1).evaluate(Q_1()) == pytest.approx(np.array([[1.0]]))

    def test_vertical_metrical_momentum_free(self):
        H = parse("t + x1", 2)
        assert np.all(vertical_metrical(H, 2).evaluate(Q) == 0.0)

    def test_vertical_metrical_metric_hamiltonian(self):
        g = SpaceMetric.diagonal((const(1), parse("x1^2", 2)))
        H = metric_hamiltonian(TimeMetric(const(1)), g)
        got = vertical_metrical(H, 2).evaluate(Q)
        assert got == pytest.approx(np.diag([1.0, 0.25]), abs=1e-12)

    def test_liouville_values(self):
        assert liouville(2).evaluate(Q) == pytest.approx(np.array([3.0, 5.0]))

    def test_momentum_liouville_values(self):
        h = TimeMetric(const(1))
        assert momentum_liouville(h, 2).evaluate(Q) == pytest.approx([3.0, 5.0])
        h2 = TimeMetric(parse("exp(2*t)", 2))
        q0 = Point.make(0.0, [1.0, 1.0], [3.0, 5.0])
        assert momentum_liouville(h2, 2).evaluate(q0) == pytest.approx([3.0, 5.0])

    def test_h_normalization_structure(self):
        h = TimeMetric(const(1))
        T = h_normalization(h, 2)
        assert T.evaluate(Q) == pytest.approx(np.eye(2))
        assert str(T.comps[0, 1]) == "0" and str(T.comps[1, 0]) == "0"


def Q_1():
    return Point.make(1.2, [2.0], [3.0])
