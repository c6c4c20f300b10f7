"""Coordinate changes, induced momenta, transition factors, frame rules."""

import dataclasses
import gc
import math
import struct
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jetham.charts
import jetham.expr
from jetham.charts import (
    CoordChange,
    TransitionData,
    induced_point,
    map_points,
    scalar_to_new_chart,
    transition,
)
from jetham.errors import ChartInverseError, DimensionError, DomainError, RegularityError
from jetham.expr import Point, Program, evaluate, parse
from jetham.problem import load_problem
from jetham.report import stack

from helpers import (
    CARDANO_X1,
    chart,
    charts_for,
    compose_changes,
    identity_change,
    nonlinear_charts_for,
    reference_eval,
    reference_stack,
    sampled_points,
    verify_frame_rules,
)


PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


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

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("error, caught", [(2e-9, True), (5e-10, False)])
    def test_spatial_inverse_check_at_its_tolerance(self, n, error, caught):
        # x_inv's last component gains error * x1, so one entry of
        # jac @ jac_inv - I is off by error (the diagonal one at n = 1)
        x = [f"x{i + 1}" for i in range(n)]
        c = chart(n, "2*t", "t/2", x, [*x[:-1], f"{x[-1]} + {error!r}*x1"])
        q = Point.make(1.0, [1.0] * n, [1.0] * n)
        if caught:
            with pytest.raises(ChartInverseError, match="x_inv"):
                transition(c, q)
        else:
            transition(c, q)


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
        # one run of the regularity program and one determinant, however
        # often the point is asked for
        runs, run = [], Program.run
        monkeypatch.setattr(Program, "run", lambda self, p: runs.append((self, p)) or run(self, p))
        dets, det = [], np.linalg.det
        monkeypatch.setattr(np.linalg, "det", lambda a: dets.append(a) or det(a))
        c = nonlinear_charts_for(2)["stretch"]
        q = Point.make(0.8, [1.1, 1.6], [2.0, -1.0])
        for _ in range(3):
            transition(c, q)
            induced_point(c, q)
        assert [p for program, p in runs if program is c._regularity_program] == [q]
        assert len(dets) == 1

    def test_returned_arrays_are_read_only(self):
        td = transition(nonlinear_charts_for(2)["stretch"], Point.make(0.8, [1.1, 1.6], [2.0, -1.0]))
        for name in ("jac", "jac_inv", "dp_tilde_dt", "dp_tilde_dx"):
            with pytest.raises(ValueError):
                getattr(td, name)[0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            td.jac = np.eye(2)

    def test_failures_are_not_stored(self, monkeypatch):
        # a failed pass keeps nothing: the transition is computed again from
        # its regularity program on, and induced_point raises its error too
        c = simple_chart_1d("2*t", "t/3", "x1", "x1")  # t_inv is wrong
        q = Point.make(1.0, [1.0], [1.0])
        runs, run = [], Program.run
        monkeypatch.setattr(Program, "run", lambda self, p: runs.append(self) or run(self, p))
        for _ in range(2):
            with pytest.raises(ChartInverseError):
                transition(c, q)
        assert runs.count(c._regularity_program) == 2
        with pytest.raises(ChartInverseError):
            induced_point(c, q)

    def test_inverse_factors_are_the_inverse_change_factors_at_the_image(self):
        # dt/dt~ and dx/dx~ at the image are read from the inverse's own
        # regularity run there, so both transitions hold the same bits
        for c in nonlinear_charts_for(2).values():
            for q in sampled_points(2, 3, seed=37):
                td, image = transition(c, q), induced_point(c, q)
                td_inv = transition(c.inverse(), image)
                assert same_bits(td.dt_dt_tilde, td_inv.dt_tilde_dt)
                assert same_bits(td.jac_inv, td_inv.jac)

    def test_change_freed_without_gc(self):
        # a change, its cached inverse and its memo hold no reference cycle,
        # so dropping the change frees them at once
        gc.disable()
        try:
            c = chart(2, "exp(t)", "log(t)", ["2*x1", "x1*x2"], ["x1/2", "2*x2/x1"])
            q = Point.make(0.8, [1.1, 1.6], [2.0, -1.0])
            inv = c.inverse()
            assert inv.inverse() is c
            image = induced_point(c, q)
            kept = [c, inv, image, transition(c, q), transition(inv, image)]
            refs = [weakref.ref(obj) for obj in kept]
            del c, inv, image, kept
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()


class TestPointSetPass:
    """One ``map_points`` pass over a point set keeps, at each point, the
    bits that a fresh change taken at that point alone computes, for the
    change at the points and for its inverse at the images, and runs each
    program once per distinct point."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_chart_suites(self, monkeypatch, n):
        for c in charts_for(n).values():
            self.assert_pass_matches_one_point_changes(
                monkeypatch, c, sampled_points(n, 4, seed=41 + n)
            )

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_chart_suites_in_run_points_passes(self, monkeypatch, n):
        # each stage runs over its point set in one Program.run_points pass
        monkeypatch.setattr(jetham.expr, "BATCH_POINTS", 1)
        self.test_chart_suites(monkeypatch, n)

    @pytest.mark.parametrize("path", sorted(PROBLEMS.glob("*.json")), ids=lambda p: p.stem)
    def test_bundled_problems(self, monkeypatch, path):
        problem = load_problem(path)
        for spec in problem.charts:
            self.assert_pass_matches_one_point_changes(
                monkeypatch, spec.change, list(problem.points[:3])
            )

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_memo_hits_after_a_pass_run_nothing(self, monkeypatch, n):
        # after a run_points pass and a point-by-point pass, for the change
        # at the points and for its inverse at the images, every
        # induced_point and transition there reads the memo: no program runs,
        # and each row is its pass's row, of one C-ordered array
        tables, run_points = [], Program.run_points

        def counted_run_points(self, points):
            tables.append(run_points(self, points))
            return tables[-1]

        for c in charts_for(n).values():
            inv, passes = c.inverse(), []
            for count in (jetham.expr.BATCH_POINTS, 2):
                points = sampled_points(n, count, seed=53 + count)
                with monkeypatch.context() as patch:
                    patch.setattr(Program, "run_points", counted_run_points)
                    images = map_points(c, points)
                    passes += [(c, points, images), (inv, images, map_points(inv, images))]
                # the large pass's four stages are run_points passes
                assert len(tables) >= 4 if count >= jetham.expr.BATCH_POINTS else not tables
                assert all(table is not None for table in tables)
                tables.clear()
            rows = [[transition(d, q).row for q in points] for d, points, _ in passes]

            def ran(*args):
                pytest.fail("a memo hit ran a program")

            with monkeypatch.context() as patch:
                patch.setattr(Program, "run", ran)
                patch.setattr(Program, "run_points", ran)
                for (d, points, images), pass_rows in zip(passes, rows):
                    array = pass_rows[0].base
                    assert array.shape[0] == len(points) and array.flags.c_contiguous
                    for k, (q, image, row) in enumerate(zip(points, images, pass_rows)):
                        assert induced_point(d, q).key == image.key
                        td = transition(d, q)
                        assert td.row is row and row.base is array
                        assert same_bits(td.row, array[k])

    @staticmethod
    def assert_pass_matches_one_point_changes(monkeypatch, c, points):
        # a repeated point, and a pair that differs only in the sign of zero
        zero = Point(points[0].t, points[0].x, (0.0,) * c.n)
        points = [*points, points[-1], zero, negative_zeros(zero)]
        runs, run, run_points, inv = [], Program.run, Program.run_points, c.inverse()

        def counted_run(self, p):
            runs.append((self, p.key))
            return run(self, p)

        def counted_run_points(self, pass_points):
            runs.extend((self, p.key) for p in pass_points)
            return run_points(self, pass_points)

        with monkeypatch.context() as patch:
            patch.setattr(Program, "run", counted_run)
            patch.setattr(Program, "run_points", counted_run_points)
            images = map_points(c, points)
            assert map_points(inv, images) == [induced_point(inv, image) for image in images]
        # each program once per distinct point, in order (the change's
        # regularity program also runs at round trips that miss q's bits)
        assert len(runs) == len(set(runs))
        distinct = list(dict.fromkeys(q.key for q in points))
        for program in (c._regularity_program, c._forward_program):
            assert [key for p, key in runs if p is program][: len(distinct)] == distinct
        assert len(images) == len(points)
        for q, image in zip(points, images):
            fresh = CoordChange(c.n, c.t_fwd, c.t_inv, c.x_fwd, c.x_inv)
            fresh_image = induced_point(fresh, q)
            assert bits(image, transition(c, q)) == bits(fresh_image, transition(fresh, q))
            fresh_inv = fresh.inverse()
            assert bits(induced_point(inv, image), transition(inv, image)) == bits(
                induced_point(fresh_inv, fresh_image), transition(fresh_inv, fresh_image)
            )
        assert transition(c, points[-1]) is not transition(c, points[-2])
        assert bits(images[-1], transition(c, points[-1])) != bits(
            images[-2], transition(c, points[-2])
        )


class TestInverse:
    """A change and its inverse are one object each: the inverse of the
    inverse is the change, and each direction's derivatives, programs and
    memo serve both."""

    @pytest.mark.parametrize("path", sorted(PROBLEMS.glob("*.json")), ids=lambda p: p.stem)
    def test_inverse_of_the_inverse_is_the_change(self, path):
        for spec in load_problem(path).charts:
            c, inv = spec.change, spec.change.inverse()
            assert inv.inverse() is c and c.inverse() is inv
            assert c.dt_inv is inv.dt_fwd and c.jac_inv is inv.jac_fwd
            assert inv.dt_inv is c.dt_fwd and inv.jac_inv is c.jac_fwd

    def test_round_trip_reads_the_change_memo(self, monkeypatch):
        # the inverse's cross-checks at the round trip read the change's
        # own entry there, made by its regularity run at q (this round trip
        # is exact in floats); its regularity run at the image was made by
        # the change's cross-checks, so only its forward program runs
        c = chart(2, "2*t", "t/2", ["x1 + x2", "x2"], ["x1 - x2", "x2"])
        q = Point.make(0.75, [1.5, 1.25], [2.0, -1.0])
        td, image = transition(c, q), induced_point(c, q)
        runs, run = [], Program.run
        monkeypatch.setattr(Program, "run", lambda self, p: runs.append(self) or run(self, p))
        td_inv = transition(c.inverse(), image)
        assert induced_point(c.inverse(), image).key == q.key
        assert runs == [c.inverse()._forward_program]
        assert same_bits(td_inv.dt_dt_tilde, td.dt_tilde_dt) and same_bits(td_inv.jac_inv, td.jac)

    def test_a_dropped_change_is_built_again(self):
        # the inverse holds its change by a weak reference: once the change
        # is dropped, the inverse builds an equal one, whose inverse it is
        gc.disable()
        try:
            c = chart(2, "exp(t)", "log(t)", ["2*x1", "x1*x2"], ["x1/2", "2*x2/x1"])
            q = Point.make(0.8, [1.1, 1.6], [2.0, -1.0])
            fields = [getattr(c, f.name) for f in dataclasses.fields(c)]
            want = bits(induced_point(c, q), transition(c, q))
            inv, image = c.inverse(), induced_point(c, q)
            ref = weakref.ref(c)
            del c
            assert ref() is None
            again = inv.inverse()
            assert [getattr(again, f.name) for f in dataclasses.fields(again)] == fields
            assert again.inverse() is inv and inv.inverse() is again
            transition(inv, image)
            assert bits(induced_point(again, q), transition(again, q)) == want
        finally:
            gc.enable()


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestTransitionRows:
    """A change keeps its factors at a point as one read-only float64 row,
    (dt~/dt, dt/dt~, jac, jac_inv, dp~/dt, dp~/dx) flat, and a stack of
    transition data is one array of their rows.  Rows made by one pass over
    a point set are rows of one array, so a field views its row's memory
    rather than the row object itself."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_fields_are_read_only_views_of_one_row(self, n):
        shapes = {"jac": (n, n), "jac_inv": (n, n), "dp_tilde_dt": (n,), "dp_tilde_dx": (n, n)}
        for c in charts_for(n).values():
            points = sampled_points(n, 3, seed=29)
            map_points(c, points[1:])  # one row alone, then two rows of one pass
            for q in points:
                td = transition(c, q)
                row = td.row
                assert row.shape == (2 + 3 * n * n + n,) and row.dtype == np.float64
                assert not row.flags.writeable
                assert type(td.dt_tilde_dt) is float and type(td.dt_dt_tilde) is float
                arrays, start = [], 2
                for name, shape in shapes.items():
                    a = getattr(td, name)
                    assert a.shape == shape and a.dtype == np.float64 and a.flags.c_contiguous
                    assert not a.flags.writeable
                    # in row order, the fields tile the row's memory
                    assert byte_offset(a, row) == 8 * start
                    start += a.size
                    arrays.append(a.ravel())
                assert start == row.size
                assert same_bits(np.concatenate([[td.dt_tilde_dt, td.dt_dt_tilde], *arrays]), row)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_stack_equals_the_field_by_field_stack(self, n):
        negative_zeros_seen = 0
        for c in charts_for(n).values():
            points = sampled_points(n, 4, seed=31)
            points += [negative_zeros(Point(q.t, q.x, (0.0,) * n)) for q in points[:2]]
            images = [induced_point(c, q) for q in points]
            for column in (
                [transition(c, q) for q in points],
                [transition(c.inverse(), image) for image in images],
            ):
                got, want = stack(column), reference_stack(column)
                assert got.row.shape == (len(points), 2 + 3 * n * n + n)
                for field in dataclasses.fields(TransitionData):
                    value = getattr(got, field.name)
                    assert value is got.row or value.base is got.row
                    assert same_bits(value, getattr(want, field.name)), field.name
                negative_zeros_seen += np.count_nonzero((got.row == 0.0) & np.signbit(got.row))
        assert negative_zeros_seen  # -0.0 is among the stacked bits


def test_stack_of_transition_data_without_rows_is_a_value_error():
    td = transition(identity_change(2), Point.make(1.0, [1.0, 2.0], [0.5, -0.5]))
    fields = [getattr(td, f.name) for f in dataclasses.fields(TransitionData)][:-1]
    for column in ([TransitionData(*fields)] * 2, [td, TransitionData(*fields)]):
        with pytest.raises(ValueError, match="^transition data built field by field have no row"):
            stack(column)


def byte_offset(a: np.ndarray, row: np.ndarray) -> int:
    """Where a's memory starts in row's, which must hold all of it."""
    offset = a.__array_interface__["data"][0] - row.__array_interface__["data"][0]
    assert 0 <= offset and offset + a.nbytes <= row.nbytes
    return offset


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

    # the inverse cross-checks read the inverse's regularity values at the
    # image, unchecked: a NaN there is a ChartInverseError, not a RegularityError
    def test_time_inverse_check(self):
        c = identity_change(2)
        with_stage(c.inverse(), "_regularity_program", [math.nan, 1.0, 0.0, 0.0, 1.0])
        with pytest.raises(ChartInverseError, match="t_inv"):
            transition(c, self.q)

    def test_space_inverse_check(self):
        c = identity_change(2)
        with_stage(c.inverse(), "_regularity_program", [1.0, math.nan, 0.0, 0.0, 1.0])
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
