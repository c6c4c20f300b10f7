"""Metric pair, exact inverses, and both Christoffel families."""

import math
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetham.errors import DimensionError, DomainError
from jetham.expr import Components, Point, Program, Var, const, evaluate, parse, xvar
from jetham.metrics import (
    SpaceMetric,
    TimeMetric,
    christoffel_space,
    christoffel_time,
    compatibility_residuals,
    inverse_space,
    inverse_time,
    space_metric_det,
    transform_space_metric,
    transform_time_metric,
)

from helpers import (
    central_diff,
    charts_for,
    curved_metric_2d,
    random_expr,
    random_point,
    reference_christoffel,
    reference_compatibility_residual,
    reference_det,
    reference_eval,
    reference_inverse,
    same_structure,
    sampled_points,
)

Q = Point.make(2.0, [2.0, 1.3], [3.0, 5.0])


def polar_style() -> SpaceMetric:
    return SpaceMetric.diagonal((const(1), parse("x1^2", 2)))


def eval_matrix(rows, q):
    return np.array([[evaluate(e, q) for e in row] for row in rows])


class TestInverseTime:
    def test_constant(self):
        assert evaluate(inverse_time(TimeMetric(const(1))), Q) == 1.0

    def test_exponential(self):
        h = TimeMetric(parse("exp(2*t)", 2))
        assert evaluate(inverse_time(h), Point.make(1.0, [1, 1], [0, 0])) == pytest.approx(
            np.exp(-2.0), rel=1e-12
        )

    def test_t_squared(self):
        assert evaluate(inverse_time(TimeMetric(parse("t^2", 2))), Q) == 0.25


class TestInverseSpace:
    def test_identity(self):
        g = SpaceMetric.diagonal((const(1), const(1)))
        assert np.array_equal(eval_matrix(inverse_space(g), Q), np.eye(2))

    def test_polar_style_against_adjugate_by_hand(self):
        # 2x2 adjugate oracle: inv(diag(1, x1^2)) = diag(1, x1^-2)
        gi = eval_matrix(inverse_space(polar_style()), Q)
        assert gi == pytest.approx(np.diag([1.0, 0.25]), rel=1e-12)

    def test_constant_metric_hand_inverse(self):
        g = SpaceMetric(2, ((const(2), const(1)), (const(1), const(1))))
        gi = eval_matrix(inverse_space(g), Q)
        assert gi == pytest.approx(np.array([[1.0, -1.0], [-1.0, 2.0]]), abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_against_numpy_inverse(self, n):
        # numpy is the independent oracle for the closed-form adjugate route
        entries = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                e = parse(f"x{min(i, j) + 1} + {2 if i == j else 0} + 1", n)
                entries[i][j] = entries[j][i] = e
        g = SpaceMetric(n, tuple(tuple(row) for row in entries))
        for q in sampled_points(n, 5, seed=31):
            gmat = eval_matrix(g.g, q)
            gi = eval_matrix(inverse_space(g), q)
            assert np.max(np.abs(gi - np.linalg.inv(gmat))) < 1e-9

    def test_delta_property_on_samples(self):
        g = curved_metric_2d()
        gi = inverse_space(g)
        for q in sampled_points(2, 10, seed=37):
            prod = eval_matrix(g.g, q) @ eval_matrix(gi, q)
            assert np.max(np.abs(prod - np.eye(2))) < 1e-9

    def test_builds_past_the_problem_limit(self):
        # problem files stop at n <= 4; the library builds any n
        g = SpaceMetric.diagonal(tuple(parse(f"1 + x{i + 1}^2", 5) for i in range(5)))
        q = Point.make(1.0, [0.5, 1.0, 1.5, 2.0, 2.5], [0.0] * 5)
        want = np.diag([1.0 / (1.0 + x * x) for x in q.x])
        assert eval_matrix(inverse_space(g), q) == pytest.approx(want, rel=1e-12)

    def test_determinant_matches_numpy(self):
        g = curved_metric_2d()
        for q in sampled_points(2, 5, seed=41):
            want = np.linalg.det(eval_matrix(g.g, q))
            assert evaluate(space_metric_det(g), q) == pytest.approx(want, rel=1e-12)


class TestChristoffelTime:
    def test_flat(self):
        assert str(christoffel_time(TimeMetric(const(1)))) == "0"

    def test_exponential_is_identically_one(self):
        H = christoffel_time(TimeMetric(parse("exp(2*t)", 2)))
        for tval in (0.5, 1.0, 1.7, 2.0):
            assert evaluate(H, Point.make(tval, [1, 1], [0, 0])) == pytest.approx(
                1.0, rel=1e-12
            )

    def test_t_squared(self):
        H = christoffel_time(TimeMetric(parse("t^2", 2)))
        assert evaluate(H, Q) == pytest.approx(0.5, rel=1e-12)

    def test_against_finite_differences(self):
        # oracle: H = h^-1 h' / 2 with h' from central differences
        h_expr = parse("exp(t) + t^2", 1)
        H = christoffel_time(TimeMetric(h_expr))
        for q in sampled_points(1, 10, seed=43):
            fd = central_diff(h_expr, Var.time(), q)
            want = 0.5 * fd / evaluate(h_expr, q)
            assert evaluate(H, q) == pytest.approx(want, rel=1e-6)


class TestChristoffelSpace:
    def test_flat(self):
        cs = christoffel_space(SpaceMetric.diagonal((const(1), const(1))))
        assert all(
            str(cs[i, j, k]) == "0"
            for i in range(2) for j in range(2) for k in range(2)
        )

    def test_constant_coefficients(self):
        g = SpaceMetric(2, ((const(2), const(1)), (const(1), const(1))))
        cs = christoffel_space(g)
        assert all(
            evaluate(cs[i, j, k], Q) == 0.0
            for i in range(2) for j in range(2) for k in range(2)
        )

    def test_polar_style_closed_form(self):
        cs = christoffel_space(polar_style())
        got = {
            (i, j, k): evaluate(cs[i, j, k], Q)
            for i in range(2) for j in range(2) for k in range(2)
        }
        want = {(0, 1, 1): -2.0, (1, 0, 1): 0.5, (1, 1, 0): 0.5}
        for key, value in got.items():
            assert value == pytest.approx(want.get(key, 0.0), abs=1e-12), key

    def test_symmetry_is_tree_level(self):
        cs = christoffel_space(curved_metric_2d())
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    assert cs[i, j, k] is cs[i, k, j] or cs[i, j, k] == cs[i, k, j]

    def test_against_finite_difference_levi_civita(self):
        # independent oracle: assemble gamma from numeric derivatives of g
        g = curved_metric_2d()
        cs = christoffel_space(g)
        n = 2
        for q in sampled_points(n, 5, seed=47):
            dg = np.empty((n, n, n))
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        dg[i, j, k] = central_diff(g.g[i][j], Var.space(k), q)
            ginv = np.linalg.inv(eval_matrix(g.g, q))
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        want = 0.5 * sum(
                            ginv[i, l] * (dg[l, j, k] + dg[l, k, j] - dg[j, k, l])
                            for l in range(n)
                        )
                        assert evaluate(cs[i, j, k], q) == pytest.approx(
                            want, rel=1e-6, abs=1e-6
                        )

    def test_metric_compatibility(self):
        for g in (polar_style(), curved_metric_2d()):
            cs = christoffel_space(g)
            points = sampled_points(2, 10, seed=53)
            dg, gamma, gmat = (
                np.array([obj.evaluate(q) for q in points])
                for obj in (Components(2, g.derivatives), cs, Components(2, g.g))
            )
            assert np.all(compatibility_residuals(dg, gamma, gmat) < 1e-9)

    def test_compatibility_residual_propagates_nan(self):
        # every value is finite, but at (i, j, k) = (0, 1, 1) the products
        # gamma^0_11 g_00 and gamma^1_10 g_11 are +inf and -inf, so the
        # residual is NaN; the residuals before it are 0, and a maximum that
        # keeps its running value against a NaN (as max() does) would give 0
        zero, big = const(0), const(1e200)
        g = SpaceMetric.diagonal((big, big))
        gamma = [[[zero, zero], [zero, zero]] for _ in range(2)]
        gamma[0][1][1], gamma[1][1][0] = big, -big
        dg, symbols, gmat = (
            Components(2, m).evaluate(Q)[None] for m in (g.derivatives, gamma, g.g)
        )
        with np.errstate(over="ignore", invalid="ignore"):  # as check_points runs a law
            assert math.isnan(compatibility_residuals(dg, symbols, gmat)[0])

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_stacked_residuals_are_the_loops_bit_for_bit(self, n):
        rng, checked = random.Random(7000 + n), 0
        while checked < 3:
            g = random_space_metric(rng, n)
            values = []
            for q in sampled_points(n, 6, seed=rng.randrange(10**9)):
                try:
                    want = reference_compatibility_residual(g, g.christoffel, q)
                except DomainError:  # a point off a random metric's domain
                    continue
                objects = (Components(n, g.derivatives), g.christoffel, Components(n, g.g))
                values.append((want, *(obj.evaluate(q) for obj in objects)))
            if not values:
                continue
            want, *stacks = zip(*values)
            with np.errstate(over="ignore", invalid="ignore"):
                got = compatibility_residuals(*map(np.array, stacks)).tolist()
            bits = [struct.pack("<d", v) if v == v else "NaN" for v in (*got, *want)]
            assert bits[: len(got)] == bits[len(got):], (n, got, want)
            checked += 1

    def test_builds_past_the_problem_limit(self):
        # diag(1 + x_i^2): gamma^i_ii = x_i / (1 + x_i^2), every other is 0
        g = SpaceMetric.diagonal(tuple(parse(f"1 + x{i + 1}^2", 5) for i in range(5)))
        q = Point.make(1.0, [0.5, 1.0, 1.5, 2.0, 2.5], [0.0] * 5)
        gamma = christoffel_space(g)
        for i, j, k in np.ndindex(5, 5, 5):
            x = q.x[i]
            want = x / (1.0 + x * x) if i == j == k else 0.0
            assert evaluate(gamma[i, j, k], q) == pytest.approx(want, rel=1e-12)


def random_space_metric(rng: random.Random, n: int) -> SpaceMetric:
    """Entries from random_expr with t and p renamed to x; each symmetric
    pair is one object."""
    to_x = {Var.time(): xvar(0), **{Var.momentum(i): xvar(i) for i in range(n)}}
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = random_expr(rng, n, depth=3).substitute(to_x)
    return SpaceMetric(n, tuple(map(tuple, rows)))


def _outcome(e, q):
    """The bits of e's value at q, or the error that evaluation raises."""
    try:
        return struct.pack("<d", reference_eval(e, q))
    except DomainError as ex:
        return str(ex)


def _flat(rows):
    return [e for row in rows for e in row]


class TestSharedMinors:
    """Each minor, each 1/2 g^il and each first-kind bracket is built once,
    yet every tree is the unshared reference's, node for node."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**9), st.integers(1, 4))
    def test_same_trees_as_the_reference_from_fewer_slots(self, seed, n):
        rng = random.Random(seed)
        g = random_space_metric(rng, n)
        inverse, gamma = inverse_space(g), christoffel_space(g).comps.tolist()
        want_inverse, want_gamma = reference_inverse(g), reference_christoffel(g)
        pairs = [(space_metric_det(g), reference_det(g.g))]
        pairs += zip(_flat(inverse), _flat(want_inverse))
        pairs += zip(_flat(_flat(gamma)), _flat(_flat(want_gamma)))
        q = random_point(rng, n)
        for got, want in pairs:
            assert same_structure(got, want)
            assert _outcome(got, q) == _outcome(want, q)
        if n >= 3:
            shared = _flat(inverse) + _flat(_flat(gamma))
            unshared = _flat(want_inverse) + _flat(_flat(want_gamma))
            # a program gives each node object a slot of its own
            assert len(Program(shared)) < len(Program(unshared))


ORACLE_REL_TOL = 1e-10


def _oracle_metric_pair(rng: random.Random, n: int) -> tuple[str, list[list[str]]]:
    """A time metric and a diagonally dominant space metric, as DSL text."""

    def term():
        c, k = round(rng.uniform(0.05, 0.4), 3), rng.randrange(n) + 1
        return rng.choice(
            [f"{c}*cos(x{k})", f"{c}*sin(x{k})", f"{c}*x{k}^2", f"{c}*exp({c}*x{k})"]
        )

    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = f"{2 * n + 2} + {term()}"
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = f"{rng.choice(['', '-'])}{term()}"
    c = round(rng.uniform(0.5, 1.5), 3)
    h = rng.choice([f"({c} + t)^2", f"exp({c}*t)", f"{c} + t^2"])
    return h, rows


def _close(got, want) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return np.max(np.abs(got - want)) <= ORACLE_REL_TOL * np.max(np.abs(want))


class TestSympyOracle:
    """An independent route to every object built here: sympy derivatives
    of the DSL text, numpy's det and inverse of g at the point, and both
    Christoffel formulas in floats."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_against_sympy_and_numpy(self, n, seed):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(seed)
        h_text, g_text = _oracle_metric_pair(rng, n)
        q = random_point(rng, n)
        t, xs = sympy.Symbol("t"), sympy.symbols(f"x1:{n + 1}")
        names = {"t": t, **{str(x): x for x in xs}}

        def to_sympy(text):
            return sympy.sympify(text.replace("^", "**"), locals=names)

        at = {t: q.t, **dict(zip(xs, q.x))}
        h_sym = to_sympy(h_text)
        g_sym = [[to_sympy(e) for e in row] for row in g_text]
        G = np.array([[float(e.subs(at)) for e in row] for row in g_sym])
        dG = np.array(
            [[[float(sympy.diff(e, x).subs(at)) for x in xs] for e in row] for row in g_sym]
        )
        G_inv = np.linalg.inv(G)
        want_gamma = np.zeros((n, n, n))
        for i, j, k in np.ndindex(n, n, n):
            want_gamma[i, j, k] = 0.5 * sum(
                G_inv[i, l] * (dG[l, j, k] + dG[l, k, j] - dG[j, k, l]) for l in range(n)
            )
        want_time = 0.5 / float(h_sym.subs(at)) * float(sympy.diff(h_sym, t).subs(at))

        g = SpaceMetric(n, tuple(tuple(parse(e, n) for e in row) for row in g_text))
        got_inverse = np.array(Program(_flat(inverse_space(g))).run(q))
        got_gamma = christoffel_space(g).evaluate(q).ravel()
        got_time = evaluate(christoffel_time(TimeMetric(parse(h_text, n))), q)
        assert _close(evaluate(space_metric_det(g), q), np.linalg.det(G))
        assert _close(got_inverse, G_inv.ravel())
        assert _close(got_gamma, want_gamma.ravel())
        assert _close(got_time, want_time)


class TestTransform:
    def test_time_metric_transport_is_tensorial(self):
        h = TimeMetric(parse("exp(2*t)", 2))
        for c in charts_for(2).values():
            ht = transform_time_metric(h, c)
            from jetham.charts import induced_point
            for q in sampled_points(2, 5, seed=59):
                image = induced_point(c, q)
                got = evaluate(ht.h11, image) * evaluate(c.dt_fwd, q) ** 2
                assert got == pytest.approx(evaluate(h.h11, q), rel=1e-9)

    def test_space_metric_transport_is_tensorial(self):
        g = curved_metric_2d()
        for c in charts_for(2).values():
            gt = transform_space_metric(g, c)
            from jetham.charts import induced_point, transition
            for q in sampled_points(2, 5, seed=61):
                td = transition(c, q)
                image = induced_point(c, q)
                pulled = td.jac.T @ eval_matrix(gt.g, image) @ td.jac
                assert np.max(np.abs(pulled - eval_matrix(g.g, q))) < 1e-9


class TestValidation:
    def test_symmetry_required(self):
        with pytest.raises(DimensionError, match="differ"):
            SpaceMetric(2, ((const(1), parse("x1", 2)), (parse("x2", 2), const(1))))

    def test_long_pair_compared_without_recursion(self):
        # 3,000-term left-deep sums: structural == would recurse past the limit
        text = " + ".join(f"{k}*x1^{k}" for k in range(1, 3001))
        a, b = parse(text, 2), parse(text, 2)
        assert a is not b
        SpaceMetric(2, ((const(1), a), (b, const(1))))
        with pytest.raises(DimensionError, match="differ"):
            SpaceMetric(2, ((const(1), a), (parse(text + " + x2", 2), const(1))))

    def test_time_metric_must_depend_on_t_only(self):
        with pytest.raises(DimensionError):
            TimeMetric(parse("x1", 2))

    def test_space_metric_must_depend_on_x_only(self):
        with pytest.raises(DimensionError):
            SpaceMetric.diagonal((parse("t", 1),))
