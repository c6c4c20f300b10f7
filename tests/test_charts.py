"""Coordinate changes, induced momenta, transition factors, frame rules."""

import dataclasses
import gc
import math
import struct
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jetham.charts
from jetham.charts import (
    CoordChange,
    TransitionData,
    induced_point,
    scalar_to_new_chart,
    transition,
)
from jetham.errors import ChartInverseError, DimensionError, DomainError, RegularityError
from jetham.expr import Point, Program, evaluate, parse

from helpers import (
    CARDANO_X1,
    chart,
    charts_for,
    compose_changes,
    identity_change,
    nonlinear_charts_for,
    reference_eval,
    sampled_points,
    verify_frame_rules,
)


def simple_chart_1d(t_fwd, t_inv, x_fwd, x_inv):
    return chart(1, t_fwd, t_inv, [x_fwd], [x_inv])


class TestInducedPoint:
    def test_identity(self):
        q = Point.make(1.3, [0.7, 1.1], [2.0, -3.0])
        assert induced_point(identity_change(2), q) == q

    def test_time_scaling_scales_momenta(self):
        c = simple_chart_1d("2*t", "t/2", "x1", "x1")
        assert induced_point(c, Point.make(1, [1], [3])) == Point.make(2, [1], [6])

    def test_space_scaling_divides_momenta(self):
        c = simple_chart_1d("t", "t", "2*x1", "x1/2")
        assert induced_point(c, Point.make(1, [1], [3])) == Point.make(1, [2, ], [1.5])

    def test_momentum_part_linear_in_p_power_of_two(self):
        c = nonlinear_charts_for(2)["stretch"]
        q = Point.make(0.9, [1.2, 0.8], [1.7, -2.4])
        doubled = Point(q.t, q.x, tuple(2.0 * v for v in q.p))
        img, img2 = induced_point(c, q), induced_point(c, doubled)
        assert img2.t == img.t and img2.x == img.x
        assert img2.p == tuple(2.0 * v for v in img.p)  # exact: scaling by 2

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.floats(min_value=-8.0, max_value=8.0, allow_nan=False),
        b=st.floats(min_value=-8.0, max_value=8.0, allow_nan=False),
    )
    def test_momentum_part_linear_in_p_general(self, a, b):
        # additivity and homogeneity of the momentum block in one identity
        c = nonlinear_charts_for(2)["shear"]
        q1 = Point.make(0.9, [1.2, 0.8], [1.7, -2.4])
        q2 = Point.make(0.9, [1.2, 0.8], [-0.6, 3.1])
        mixed = Point(q1.t, q1.x, tuple(a * u + b * v for u, v in zip(q1.p, q2.p)))
        img = induced_point(c, mixed)
        img1, img2 = induced_point(c, q1), induced_point(c, q2)
        for got, w1, w2 in zip(img.p, img1.p, img2.p):
            assert got == pytest.approx(a * w1 + b * w2, rel=1e-12, abs=1e-12)

    def test_functoriality(self):
        for n in (1, 2):
            suite = list(nonlinear_charts_for(n).values())
            c1, c2 = suite[0], suite[1]
            composed = compose_changes(c2, c1)
            for q in sampled_points(n, 10, seed=4):
                direct = induced_point(composed, q)
                stepped = induced_point(c2, induced_point(c1, q))
                for a, b in zip(direct.flat(), stepped.flat()):
                    assert a == pytest.approx(b, rel=1e-9, abs=1e-9)

    def test_regularity_error(self):
        c = simple_chart_1d("t^2", "t^(1/2)", "x1", "x1")
        with pytest.raises(RegularityError):
            induced_point(c, Point.make(0.0, [1.0], [1.0]))

    def test_singular_change_reports_regularity_not_domain(self):
        # at x = 0 the pulled-back inverse Jacobian (x1^3)^(-2/3) of the
        # momentum map leaves its domain; the singular Jacobian is the cause
        c = simple_chart_1d("t", "t", "x1^3", "x1^(1/3)")
        q = Point.make(1.0, [0.0], [1.0])
        with pytest.raises(DomainError, match="fractional power of a non-positive base"):
            Program(c.momentum_map).run(q)
        for call in (induced_point, transition):
            with pytest.raises(RegularityError, match=r"det\(dx~/dx\) = 0\.0 at x = \(0\.0,\)"):
                call(c, q)

    def test_round_trip_through_inverse(self):
        c = nonlinear_charts_for(2)["cubic_t"]
        for q in sampled_points(2, 10, seed=8):
            back = induced_point(c.inverse(), induced_point(c, q))
            for a, b in zip(back.flat(), q.flat()):
                assert a == pytest.approx(b, rel=1e-9)


class TestTransition:
    def test_identity_factors(self):
        td = transition(identity_change(2), Point.make(1.0, [1.0, 2.0], [3.0, 4.0]))
        assert td.dt_tilde_dt == 1.0 and td.dt_dt_tilde == 1.0
        assert np.array_equal(td.jac, np.eye(2))
        assert np.all(td.dp_tilde_dt == 0.0) and np.all(td.dp_tilde_dx == 0.0)

    def test_time_square_inhomogeneous_factor(self):
        c = simple_chart_1d("t^2", "t^(1/2)", "x1", "x1")
        td = transition(c, Point.make(1.0, [1.0], [1.0]))
        assert td.dt_tilde_dt == 2.0
        # p~ = 2 t p, so dp~/dt = 2p = 2
        assert td.dp_tilde_dt[0] == pytest.approx(2.0, rel=1e-12)

    def test_space_square_momentum_gradient(self):
        c = simple_chart_1d("t", "t", "x1^2", "x1^(1/2)")
        td = transition(c, Point.make(1.0, [2.0], [1.0]))
        # p~ = p/(2x): dp~/dx = -p/(2x^2) = -0.125
        assert td.dp_tilde_dx[0, 0] == pytest.approx(-0.125, rel=1e-12)

    def test_jacobian_pair_inverse(self):
        for n in (1, 2, 3):
            for c in charts_for(n).values():
                for q in sampled_points(n, 5, seed=11):
                    td = transition(c, q)
                    assert np.max(np.abs(td.jac @ td.jac_inv - np.eye(n))) < 1e-9
                    assert abs(td.dt_tilde_dt * td.dt_dt_tilde - 1.0) < 1e-12

    def test_transition_factors_match_finite_differences(self):
        c = nonlinear_charts_for(2)["stretch"]
        q = Point.make(0.8, [1.1, 1.6], [2.0, -1.0])
        td = transition(c, q)
        h = 1e-6
        for k in range(2):
            up = induced_point(c, Point(q.t + h, q.x, q.p)).p[k]
            down = induced_point(c, Point(q.t - h, q.x, q.p)).p[k]
            assert td.dp_tilde_dt[k] == pytest.approx((up - down) / (2 * h), rel=1e-6)
            for i in range(2):
                x_up = list(q.x)
                x_up[i] += h
                x_down = list(q.x)
                x_down[i] -= h
                up = induced_point(c, Point(q.t, tuple(x_up), q.p)).p[k]
                down = induced_point(c, Point(q.t, tuple(x_down), q.p)).p[k]
                assert td.dp_tilde_dx[k, i] == pytest.approx(
                    (up - down) / (2 * h), rel=1e-6, abs=1e-8
                )

    def test_inverse_change_gives_blockwise_matrix_inverse(self):
        c = nonlinear_charts_for(2)["shear"]
        for q in sampled_points(2, 5, seed=13):
            td = transition(c, q)
            td_back = transition(c.inverse(), induced_point(c, q))
            assert td_back.dt_tilde_dt == pytest.approx(td.dt_dt_tilde, rel=1e-9)
            assert np.max(np.abs(td_back.jac - td.jac_inv)) < 1e-9

    def test_wrong_inverse_is_caught(self):
        c = simple_chart_1d("2*t", "t/3", "x1", "x1")  # t_inv is wrong
        with pytest.raises(ChartInverseError):
            transition(c, Point.make(1.0, [1.0], [1.0]))

    def test_wrong_spatial_inverse_is_caught(self):
        c = simple_chart_1d("t", "t", "2*x1", "x1/3")
        with pytest.raises(ChartInverseError):
            transition(c, Point.make(1.0, [1.0], [1.0]))


def eval_reference(c: CoordChange, q: Point) -> tuple[Point, TransitionData]:
    """The image and the transition factors through the recursive reference."""
    image = Point(
        reference_eval(c.t_fwd, q),
        tuple(reference_eval(e, q) for e in c.x_fwd),
        tuple(reference_eval(e, q) for e in c.momentum_map),
    )
    td = TransitionData(
        dt_tilde_dt=reference_eval(c.dt_fwd, q),
        dt_dt_tilde=reference_eval(c.dt_inv, image),
        jac=np.array([[reference_eval(e, q) for e in row] for row in c.jac_fwd]),
        jac_inv=np.array([[reference_eval(e, image) for e in row] for row in c.jac_inv]),
        dp_tilde_dt=np.array([reference_eval(e, q) for e in c.dmomentum_dt]),
        dp_tilde_dx=np.array([[reference_eval(e, q) for e in row] for row in c.dmomentum_dx]),
    )
    return image, td


def bits(image: Point, td: TransitionData) -> tuple[bytes, ...]:
    """Exact float bits, so that -0.0 and 0.0 differ."""
    flat = image.flat() + (td.dt_tilde_dt, td.dt_dt_tilde)
    arrays = (td.jac, td.jac_inv, td.dp_tilde_dt, td.dp_tilde_dx)
    return (struct.pack(f"{len(flat)}d", *flat),) + tuple(
        np.asarray(a, dtype=np.float64).tobytes() for a in arrays
    )


# invertible pieces with closed-form inverses, regular for t, x in [0.5, 2];
# {a} is a coefficient in [0.5, 2]
TIME_MAPS = [
    ("{a}*t", "t/{a}"),
    ("{a}*t^3", "(t/{a})^(1/3)"),
    ("exp({a}*t)", "log(t)/{a}"),
    ("t^2 + {a}*t", "(t + {a}^2/4)^(1/2) - {a}/2"),
]
SPACE_MAPS = {
    1: [
        (["{a}*x1 + 1"], ["(x1 - 1)/{a}"]),
        (["exp({a}*x1)"], ["log(x1)/{a}"]),
        (["x1 + x1^3"], [CARDANO_X1]),
    ],
    2: [
        (["{a}*x1", "x2/{a}"], ["x1/{a}", "{a}*x2"]),
        (["x1 + {a}*x2^3", "x2"], ["x1 - {a}*x2^3", "x2"]),
        (["{a}*x1", "x1*x2"], ["x1/{a}", "{a}*x2/x1"]),
        (["x1*exp({a}*x2)", "x2"], ["x1/exp({a}*x2)", "x2"]),
    ],
}
# well-conditioned on any image of the pieces above
OUTER_SPACE_MAPS = {1: SPACE_MAPS[1][:1], 2: SPACE_MAPS[2][:2]}
coefficients = st.floats(min_value=0.5, max_value=2.0)


@st.composite
def random_charts(draw):
    n = draw(st.sampled_from([1, 2]))
    t_fwd, t_inv = draw(st.sampled_from(TIME_MAPS))
    x_fwd, x_inv = draw(st.sampled_from(SPACE_MAPS[n]))
    a, b = draw(coefficients), draw(coefficients)
    c = chart(
        n,
        t_fwd.format(a=a),
        t_inv.format(a=a),
        [s.format(a=b) for s in x_fwd],
        [s.format(a=b) for s in x_inv],
    )
    if draw(st.booleans()):  # deeper trees: a second change on top
        x2_fwd, x2_inv = draw(st.sampled_from(OUTER_SPACE_MAPS[n]))
        d = draw(coefficients)
        outer = chart(
            n, "t", "t", [s.format(a=d) for s in x2_fwd], [s.format(a=d) for s in x2_inv]
        )
        c = compose_changes(outer, c)
    return c


@st.composite
def random_points(draw, n):
    box = st.floats(min_value=0.5, max_value=2.0)
    # zero momenta keep their sign through the linear momentum map
    momenta = st.one_of(st.floats(min_value=-3.0, max_value=3.0), st.just(0.0))
    return Point(draw(box), tuple(draw(box) for _ in range(n)), tuple(draw(momenta) for _ in range(n)))


def negative_zeros(q: Point) -> Point:
    return Point(q.t, q.x, tuple(-0.0 if v == 0.0 else v for v in q.p))


class TestCompiledTransition:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), c=random_charts(), image_first=st.booleans())
    def test_matches_recursive_eval_bit_for_bit(self, data, c, image_first):
        q = data.draw(random_points(c.n))
        for point in (q, negative_zeros(q)):
            image, td = eval_reference(c, point)
            want = bits(image, td)
            if image_first:
                first = (induced_point(c, point), transition(c, point))
            else:
                td_first = transition(c, point)
                first = (induced_point(c, point), td_first)
            assert bits(*first) == want
            # repeated calls hit the memo and return the stored objects
            again = (induced_point(c, point), transition(c, point))
            assert again[0] is first[0] and again[1] is first[1]
            assert bits(*again) == want
        assert c.inverse() is c.inverse()
        back = induced_point(c, q)
        assert bits(induced_point(c.inverse(), back), transition(c.inverse(), back)) == bits(
            *eval_reference(c.inverse(), back)
        )

    def test_negative_zero_is_its_own_point(self):
        c = simple_chart_1d("2*t", "t/2", "3*x1", "x1/3")
        q = Point(0.0, (1.0,), (0.0,))
        q_neg = Point(-0.0, (1.0,), (-0.0,))
        image, image_neg = induced_point(c, q), induced_point(c, q_neg)
        assert image == image_neg  # equal values ...
        assert math.copysign(1.0, image.t) == 1.0 and math.copysign(1.0, image.p[0]) == 1.0
        assert math.copysign(1.0, image_neg.t) == -1.0
        assert math.copysign(1.0, image_neg.p[0]) == -1.0  # ... different bits

    def test_regularity_checked_once_per_point(self, monkeypatch):
        calls = []
        original = jetham.charts._require_regular

        def counted(c, q):
            calls.append(q)
            return original(c, q)

        monkeypatch.setattr(jetham.charts, "_require_regular", counted)
        c = nonlinear_charts_for(2)["stretch"]
        q = Point.make(0.8, [1.1, 1.6], [2.0, -1.0])
        for _ in range(3):
            transition(c, q)
            induced_point(c, q)
        assert calls == [q]

    def test_returned_arrays_are_read_only(self):
        td = transition(nonlinear_charts_for(2)["stretch"], Point.make(0.8, [1.1, 1.6], [2.0, -1.0]))
        for name in ("jac", "jac_inv", "dp_tilde_dt", "dp_tilde_dx"):
            with pytest.raises(ValueError):
                getattr(td, name)[0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            td.jac = np.eye(2)

    def test_failures_are_not_stored(self):
        # the image is stored, the failed transition is computed again
        c = simple_chart_1d("2*t", "t/3", "x1", "x1")  # t_inv is wrong
        q = Point.make(1.0, [1.0], [1.0])
        for _ in range(2):
            with pytest.raises(ChartInverseError):
                transition(c, q)
        assert induced_point(c, q) == Point.make(2.0, [1.0], [2.0])

    def test_change_freed_without_gc(self):
        # a change, its cached inverse and its memo hold no reference cycle,
        # so dropping the change frees them at once
        gc.disable()
        try:
            c = chart(2, "exp(t)", "log(t)", ["2*x1", "x1*x2"], ["x1/2", "2*x2/x1"])
            q = Point.make(0.8, [1.1, 1.6], [2.0, -1.0])
            inv = c.inverse()
            image = induced_point(c, q)
            kept = [c, inv, image, transition(c, q), transition(inv, image)]
            refs = [weakref.ref(obj) for obj in kept]
            del c, inv, image, kept
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()


class _Stage:
    """Stands in for a compiled stage whose output no chart can produce."""

    def __init__(self, values):
        self.values = values

    def run(self, q):
        return list(self.values)


def with_stage(c: CoordChange, name: str, values) -> CoordChange:
    vars(c)[name] = _Stage(values)
    return c


class TestNonFiniteChecks:
    """Every check rejects NaN (false under every comparison).  Compiled
    stages never return a non-finite value, so one is patched in."""

    q = Point.make(1.0, [1.0, 1.0], [1.0, 1.0])

    def test_time_inverse_check(self):
        c = with_stage(identity_change(2), "_inverse_factor_program", [math.nan, 1.0, 0.0, 0.0, 1.0])
        with pytest.raises(ChartInverseError, match="t_inv"):
            transition(c, self.q)

    def test_space_inverse_check(self):
        c = with_stage(identity_change(2), "_inverse_factor_program", [1.0, math.nan, 0.0, 0.0, 1.0])
        with pytest.raises(ChartInverseError, match="x_inv"):
            transition(c, self.q)

    def test_time_regularity(self):
        c = with_stage(identity_change(2), "_regularity_program", [math.nan, 1.0, 0.0, 0.0, 1.0])
        with pytest.raises(RegularityError, match="dt~/dt"):
            induced_point(c, self.q)

    def test_jacobian_regularity(self):
        c = with_stage(identity_change(2), "_regularity_program", [1.0, math.nan, 0.0, 0.0, 1.0])
        # numpy's det warns of the NaN it is given, then the check rejects it
        with (
            pytest.warns(RuntimeWarning, match="invalid value encountered in det"),
            pytest.raises(RegularityError, match=r"det\(dx~/dx\)"),
        ):
            induced_point(c, self.q)


class TestFrameRules:
    def test_identity_change_zero_residual(self):
        report = verify_frame_rules(identity_change(2), Point.make(1, [1, 1], [2, 3]))
        assert report.passed and report.max_residual == 0.0

    def test_linear_change(self):
        c = simple_chart_1d("2*t", "t/2", "3*x1", "x1/3")
        report = verify_frame_rules(c, Point.make(0.7, [1.9], [-2.0]))
        assert report.passed and report.max_residual < 1e-9

    def test_nonlinear_n2(self):
        c = nonlinear_charts_for(2)["shear"]
        for q in sampled_points(2, 10, seed=17):
            report = verify_frame_rules(c, q)
            assert report.passed, report.max_residual

    def test_reports_every_entry(self):
        report = verify_frame_rules(identity_change(2), Point.make(1, [1, 1], [2, 3]))
        assert len(report.records) == 5 * 5

    def test_oracle_brute_force_matrix_inverse(self):
        # independent route: invert the frame matrix numerically and compare
        # against the coframe matrix built from the inverse change
        from jetham.charts import natural_coframe_matrix, natural_frame_matrix

        c = nonlinear_charts_for(2)["cubic_t"]
        q = Point.make(1.1, [0.9, 1.4], [2.5, -0.5])
        td = transition(c, q)
        td_inv = transition(c.inverse(), induced_point(c, q))
        frame = natural_frame_matrix(td)
        coframe = natural_coframe_matrix(td, td_inv)
        assert np.max(np.abs(coframe - np.linalg.inv(frame).T)) < 1e-9


class TestScalarTransport:
    def test_scalar_value_is_chart_invariant(self):
        c = nonlinear_charts_for(2)["stretch"]
        e = parse("p1^2*exp(t) + x2*p2", 2)
        moved = scalar_to_new_chart(e, c)
        for q in sampled_points(2, 10, seed=23):
            assert evaluate(moved, induced_point(c, q)) == pytest.approx(
                evaluate(e, q), rel=1e-9
            )


class TestValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            CoordChange(2, parse("t", 2), parse("t", 2), (parse("x1", 2),), (parse("x1", 2),))

    def test_t_map_cannot_use_x(self):
        with pytest.raises(DimensionError):
            chart(1, "t*x1", "t", ["x1"], ["x1"])

    def test_x_map_cannot_use_t(self):
        with pytest.raises(DimensionError):
            chart(1, "t", "t", ["x1*t"], ["x1"])

    def test_point_dimension_checked(self):
        with pytest.raises(DimensionError):
            induced_point(identity_change(2), Point.make(1, [1], [1]))
