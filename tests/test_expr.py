"""Expression DSL: parsing, evaluation, exact differentiation, substitution."""

import dataclasses
import gc
import math
import operator
import random
import re
import struct
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import jetham.expr
from jetham.cli import _Chart
from jetham.errors import (
    DimensionError,
    DomainError,
    ExprSyntaxError,
    JethamError,
    MissingSubstitutionError,
)
from jetham.expr import (
    MAX_NESTING,
    ZERO,
    Add,
    Components,
    Const,
    Coord,
    Cos,
    Div,
    Exp,
    Log,
    Mul,
    Neg,
    Point,
    PointSet,
    Pow,
    Program,
    Sin,
    Sub,
    Var,
    compile_together,
    compose,
    const,
    diff,
    evaluate,
    evaluate_together,
    parse,
    pvar,
    tvar,
    xvar,
)

from jetham.problem import load_problem

from helpers import (
    central_diff,
    children,
    derivative_pairs,
    distinct_nodes,
    random_expr,
    random_point,
    reference_diff,
    reference_eval,
    reference_parse,
    reference_substitute,
    same_structure,
    structures,
)

Q1 = Point.make(0.0, [1.0], [1.0])


def q_of(t=1.0, x=(1.0,), p=(1.0,)):
    return Point.make(t, x, p)


class TestParse:
    def test_time_atom(self):
        assert same_structure(parse("t", 2), Coord(Var.time()))

    def test_product_tree_variables(self):
        e = parse("x1^2 * p2", 2)
        assert e.free_vars() == {Var.space(0), Var.momentum(1)}
        assert evaluate(e, Point.make(0.0, [3.0, 0.0], [0.0, 1.0])) == 9.0

    def test_exp_at_zero(self):
        assert evaluate(parse("exp(2*t)", 1), Q1) == 1.0

    def test_whitespace_insensitive(self):
        assert same_structure(parse(" x1 +  2*p1 ", 1), parse("x1+2*p1", 1))

    def test_one_based_indices(self):
        assert same_structure(parse("x1", 3), Coord(Var.space(0)))
        assert same_structure(parse("p3", 3), Coord(Var.momentum(2)))

    def test_rational_exponents(self):
        e = parse("x1^(1/2)", 1)
        assert isinstance(e, Pow) and e.exponent == Fraction(1, 2)
        assert parse("x1^-2", 1).exponent == Fraction(-2)
        assert parse("x1^(-3)", 1).exponent == Fraction(-3)

    def test_unary_minus_binds_before_power(self):
        # per the grammar, "-2^2" is (-2)^2
        assert evaluate(parse("-2^2", 1), Q1) == 4.0

    def test_precedence(self):
        assert evaluate(parse("1 + 2*3", 1), Q1) == 7.0
        assert evaluate(parse("(1 + 2)*3", 1), Q1) == 9.0
        assert evaluate(parse("2 - 1 - 1", 1), Q1) == 0.0
        assert evaluate(parse("8 / 2 / 2", 1), Q1) == 2.0

    def test_syntax_error_carries_offset(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("x1 + ", 1)
        assert err.value.offset == 5

    def test_unknown_identifier(self):
        with pytest.raises(ExprSyntaxError, match="unknown identifier"):
            parse("foo + 1", 2)

    def test_index_out_of_range(self):
        with pytest.raises(ExprSyntaxError, match="out of range"):
            parse("x3", 2)
        with pytest.raises(ExprSyntaxError, match="out of range"):
            parse("p9", 2)

    def test_unexpected_character(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("x1 @ 2", 1)
        assert err.value.offset == 3

    @pytest.mark.parametrize(
        "src, offset",
        [("x1 + @", 5), ("x1 +\n@", 5), ("x1\n  + $1", 7)],
        ids=["space", "newline", "indented_line"],
    )
    def test_unexpected_character_after_whitespace(self, src, offset):
        with pytest.raises(ExprSyntaxError) as err:
            parse(src, 1)
        assert err.value.offset == offset
        assert str(err.value).startswith(f"unexpected character {src[offset]!r}")

    @pytest.mark.parametrize(
        "src, message",
        [
            ("x1^(1/0)", "exponent has a zero denominator"),
            ("x1^-(0/0)", "exponent has a zero denominator"),
            ("x1^1" + "0" * 400, "exponent is too large for a double"),
            ("x1^(1" + "0" * 400 + "/3)", "exponent is too large for a double"),
            ("x1^" + "1" * 5000, "exponent has too many digits"),
            ("x1^(1/" + "1" * 5000 + ")", "exponent has too many digits"),
        ],
        ids=["one_over_zero", "zero_over_zero", "too_large", "too_large_fraction",
             "too_many_digits", "too_many_digits_in_denominator"],
    )
    def test_exponent_must_be_a_double(self, src, message):
        with pytest.raises(ExprSyntaxError, match=message) as err:
            parse(src, 1)
        assert err.value.offset == 3

    @pytest.mark.parametrize(
        "src, message, offset",
        [
            ("x1 + 1e999", "number '1e999' is not a finite double", 5),
            ("1e999*t", "number '1e999' is not a finite double", 0),
            ("1e308*10", r"'\*' folds to inf, not a finite double", 5),
            ("x1 - (1e308 + 1e308)", r"'\+' folds to inf, not a finite double", 12),
            ("-1e308 - 1e308", "'-' folds to -inf, not a finite double", 7),
        ],
        ids=["literal", "leading_literal", "fold", "nested_fold", "negative_fold"],
    )
    def test_number_must_be_a_finite_double(self, src, message, offset):
        with pytest.raises(ExprSyntaxError, match=message) as err:
            parse(src, 1)
        assert err.value.offset == offset

    @pytest.mark.parametrize("parser", [parse, reference_parse], ids=["parse", "reference"])
    def test_a_fold_that_returns_an_operand_is_no_overflow(self, parser):
        # x*1 and x/1 return x, whose left operand is a constant here
        assert str(parser("2*p1^2*1", 1)) == "2 * p1^2"
        assert str(parser("1/cos(2)/1", 1)) == "1 / cos(2)"
        with pytest.raises(ExprSyntaxError) as err:
            parser("1e300*1e300*1", 1)
        assert str(err.value) == "'*' folds to inf, not a finite double (at offset 5)"

    def test_underflow_and_large_powers_still_parse(self):
        assert str(parse("1e-999 + x1", 1)) == "x1"
        assert str(parse("10^400 * t", 1)) == "10^400 * t"

    def test_large_exponent_still_parses(self):
        assert parse("x1^99999999999999999999", 1).exponent == 99999999999999999999

    @pytest.mark.parametrize(
        "src, offset",
        [
            ("p\u0661^2 + p2^2", 1),
            ("x\u0663", 1),
            ("1\u0662 * t", 1),
            ("x1^\u0662", 3),
            ("x1\u00a0+ 1", 2),
            ("x1 +\u2003x2", 4),
            ("t\u0085", 1),
        ],
        ids=["arabic_indic_one", "arabic_indic_three", "digit_in_number", "exponent_digit",
             "no_break_space", "em_space", "next_line"],
    )
    def test_digits_and_spaces_are_ascii(self, src, offset):
        # p\u0661 is not p1, nor x\u0663 x3, and a no-break space is no space
        with pytest.raises(ExprSyntaxError) as err:
            parse(src, 3)
        assert str(err.value) == f"unexpected character {src[offset]!r} (at offset {offset})"
        assert err.value.offset == offset

    @pytest.mark.parametrize("src", ["x1 +\x1c x2", "\x1fx1\x1d\x1e+\x0bx2\x0c\r"])
    def test_ascii_separators_are_spaces(self, src):
        # every ASCII character that str.isspace accepts separates tokens
        assert same_structure(parse(src, 2), parse("x1 + x2", 2))

    def test_index_past_the_digit_limit_is_a_syntax_error(self):
        # int() refuses more than 4,300 digits; its ValueError must not escape
        with pytest.raises(ExprSyntaxError, match=r"^index of 'x' has too many digits \(at offset 4\)$"):
            parse("t + x" + "1" * 5000, 2)

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError):
            parse("x1 2", 1)

    def test_function_needs_parentheses(self):
        with pytest.raises(ExprSyntaxError):
            parse("exp t", 1)


class TestEval:
    def test_constant(self):
        assert evaluate(const(7), q_of()) == 7.0

    @pytest.mark.parametrize(
        "build, text",
        [
            (lambda: const(1e308) * 2, "1e+308 * 2"),
            (lambda: const(1e308) + 1e308, "1e+308 + 1e+308"),
            (lambda: const(-1e308) - 1e308, "-1e+308 - 1e+308"),
            (lambda: const(1e308) / 1e-10, "1e+308 / 1e-10"),
        ],
        ids=["mul", "add", "sub", "div"],
    )
    def test_overflowing_fold_stays_an_operation(self, build, text):
        # a fold to Const(inf) left evaluation nothing to name but 'inf'
        e = build()
        assert type(e) is not Const and str(e) == text
        with pytest.raises(DomainError, match=f"non-finite value -?inf in '{re.escape(text)}'"):
            evaluate(e, q_of())

    def test_square(self):
        assert evaluate(parse("t^2", 1), q_of(t=2.0)) == 4.0

    def test_division_by_zero(self):
        with pytest.raises(DomainError, match="division by zero"):
            evaluate(parse("x1/t", 1), q_of(t=0.0))

    def test_log_domain(self):
        with pytest.raises(DomainError, match="log"):
            evaluate(parse("log(t - 2)", 1), q_of(t=1.0))

    def test_zero_to_negative_power(self):
        with pytest.raises(DomainError, match="negative power"):
            evaluate(parse("t^-1", 1), q_of(t=0.0))

    def test_fractional_power_needs_positive_base(self):
        with pytest.raises(DomainError, match="fractional power"):
            evaluate(parse("(t - 2)^(1/2)", 1), q_of(t=1.0))

    def test_error_reports_subexpression(self):
        with pytest.raises(DomainError, match=r"x1 / \(t - 1\)"):
            evaluate(parse("x1/(t - 1)", 1), q_of(t=1.0))

    def test_deterministic(self):
        e = parse("sin(x1*p1) + exp(t)^(1/3)", 1)
        q = q_of(t=1.37, x=(0.77,), p=(-2.1,))
        assert evaluate(e, q) == evaluate(e, q)

    def test_point_dimension_guard(self):
        with pytest.raises(DimensionError):
            evaluate(parse("x2", 2), q_of())  # n=1 point, index 2 variable


class TestDiff:
    def test_exp_chain_rule(self):
        d = diff(parse("exp(2*t)", 1), Var.time())
        assert evaluate(d, Q1) == 2.0

    def test_product_momentum(self):
        # oracle: central finite difference
        e = parse("x1^2 * p2", 2)
        q = Point.make(0.5, [3.0, 1.0], [1.0, -2.0])
        d = diff(e, Var.momentum(1))
        assert evaluate(d, q) == 9.0
        assert evaluate(d, q) == pytest.approx(central_diff(e, Var.momentum(1), q), rel=1e-9)

    def test_momentum_is_own_coordinate(self):
        assert same_structure(diff(parse("p1", 1), Var.momentum(0)), const(1))

    def test_derivative_of_unrelated_var(self):
        assert same_structure(diff(parse("x1", 2), Var.space(1)), const(0))

    @pytest.mark.parametrize("src", ["t^3", "sin(t)", "cos(2*t)", "log(t + 1)",
                                     "t^(1/2)", "exp(t^2)", "t/(1 + t^2)", "t^-2"])
    def test_against_finite_differences(self, src):
        e = parse(src, 1)
        for tval in (0.5, 1.0, 1.7):
            q = q_of(t=tval)
            assert evaluate(diff(e, Var.time()), q) == pytest.approx(
                central_diff(e, Var.time(), q), rel=1e-6, abs=1e-9
            )

    def test_randomized_against_finite_differences(self):
        # 200 here; the full 1000-pair battery runs in the acceptance suite
        for e, v, q in derivative_pairs(seed=1203, count=200):
            exact = evaluate(diff(e, v), q)
            fd = central_diff(e, v, q)
            if abs(exact) < 1e-3:
                assert abs(fd - exact) <= 1e-9
            else:
                assert abs(fd - exact) / abs(exact) <= 1e-6

    def test_linearity(self):
        rng = random.Random(77)
        for _ in range(50):
            n = rng.choice([1, 2])
            e1, e2 = random_expr(rng, n), random_expr(rng, n)
            a = rng.uniform(-2, 2)
            combined = const(a) * e1 + e2
            v = Var.time()
            q = random_point(rng, n)
            try:
                lhs = evaluate(diff(combined, v), q)
                rhs = a * evaluate(diff(e1, v), q) + evaluate(diff(e2, v), q)
            except DomainError:
                continue
            if not (math.isfinite(lhs) and math.isfinite(rhs)):
                continue
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestCompose:
    def test_identity_scaling(self):
        e = compose(parse("t", 1), {Var.time(): parse("2*t", 1)})
        assert evaluate(e, q_of(t=3.0)) == 6.0

    def test_momentum_substitution(self):
        e = compose(parse("p1", 1), {Var.momentum(0): parse("x1*p1", 1)})
        assert evaluate(e, Point.make(0.0, [2.0], [5.0])) == 10.0

    def test_identity_substitution_is_noop(self):
        e = parse("exp(t)*p1 + x1^2", 1)
        ident = {
            Var.time(): tvar(),
            Var.space(0): xvar(0),
            Var.momentum(0): pvar(0),
        }
        q = q_of(t=0.3, x=(1.4,), p=(-0.5,))
        assert evaluate(compose(e, ident), q) == evaluate(e, q)

    def test_missing_substitution(self):
        with pytest.raises(MissingSubstitutionError, match="p1"):
            compose(parse("t*p1", 1), {Var.time(): const(2)})

    def test_simultaneous_not_sequential(self):
        # swap x1 and p1: must not cascade
        e = parse("x1 - p1", 1)
        swapped = compose(e, {Var.space(0): pvar(0), Var.momentum(0): xvar(0)})
        assert evaluate(swapped, Point.make(0.0, [3.0], [10.0])) == 7.0

    def test_chain_rule_through_composition(self):
        rng = random.Random(31)
        t = Var.time()
        for _ in range(30):
            outer = random_expr(rng, 1, depth=3)
            inner = random_expr(rng, 1, depth=3)
            subst = {t: inner, Var.space(0): xvar(0), Var.momentum(0): pvar(0)}
            q = random_point(rng, 1)
            try:
                composed = compose(outer, subst)
                lhs = evaluate(diff(composed, t), q)
                # chain rule: (d outer/dt)(inner(q)) * d inner/dt + direct x/p parts = 0 here
                inner_q = Point(reference_eval(inner, q), q.x, q.p)
                rhs = evaluate(diff(outer, t), inner_q) * evaluate(diff(inner, t), q) + (
                    evaluate(diff(outer, Var.space(0)), inner_q) * 0.0
                )
            except DomainError:
                continue
            if not (math.isfinite(lhs) and math.isfinite(rhs)) or abs(lhs) > 1e8:
                continue
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


class TestNesting:
    # the text that opens and closes one level, and the width of the opening
    @pytest.mark.parametrize(
        "open_level, close_level, width",
        [("(", ")", 1), ("exp(", ")", 4), ("-", "", 1)],
        ids=["parentheses", "calls", "unary_minus"],
    )
    def test_nesting_is_capped(self, open_level, close_level, width):
        def nested(levels):
            return open_level * levels + "x1" + close_level * levels

        assert str(parse(nested(MAX_NESTING), 1)).count("x1") == 1
        deep = 300 if open_level != "-" else 1200
        with pytest.raises(ExprSyntaxError, match="nesting deeper than 100 levels") as err:
            parse(nested(deep), 1)
        assert err.value.offset == MAX_NESTING * width

    @pytest.mark.parametrize(
        "level", ["-x1", "-(x1)", "(x1)", "exp(x1)"], ids=["minus", "minus_group", "group", "call"]
    )
    def test_closed_levels_do_not_count(self, level):
        # 150 levels side by side, none of them open at once
        assert str(parse(" + ".join([level] * 150), 1)).count("x1") == 150


class TestPrinting:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10**9), st.integers(1, 3))
    def test_print_parse_round_trip(self, seed, n):
        rng = random.Random(seed)
        e = random_expr(rng, n)
        text = str(e)
        reparsed = parse(text, n)
        for _ in range(3):
            q = random_point(rng, n)
            try:
                want = reference_eval(e, q)
            except DomainError:
                with pytest.raises(DomainError):
                    reference_eval(reparsed, q)
                continue
            assert reference_eval(reparsed, q) == want  # bit-identical

    def test_long_sum_prints_without_recursion(self):
        terms = [f"{k} * x1^{k}" for k in range(2, 3002)]
        e = parse(" + ".join(terms), 1)  # a left-deep chain of 3,000 sums
        assert str(e) == " + ".join(terms)

    def test_repr_is_the_printed_text(self):
        assert repr(parse("x1 * 2 + t", 1)) == "<Add x1 * 2 + t>"
        assert repr(const(-2.5)) == "<Const -2.5>"

    def test_repr_of_a_deep_sum_does_not_recurse(self):
        # the generated dataclass repr recursed into every operand
        e = parse(" + ".join(f"x1^{k}" for k in range(1, 1501)), 2)
        assert repr(e) == f"<Add {e}>"

    @pytest.mark.parametrize(
        "value, named",
        [(math.inf, "constant inf"), (-math.inf, "constant -inf"), (math.nan, "constant nan"),
         (10**400, "integer constant of 1329 bits")],
    )
    def test_non_finite_constant_is_refused(self, value, named):
        # the printed text of inf or nan would not parse back
        for build in (lambda: const(value), lambda: value + tvar(), lambda: xvar(0) * value):
            with pytest.raises(JethamError, match=f"^{named} is not a finite double$"):
                build()

    @pytest.mark.parametrize(
        "exponent, message",
        [(math.inf, "exponent inf is not a finite double"),
         (-math.inf, "exponent -inf is not a finite double"),
         (math.nan, "exponent nan is not a finite double"),
         (10**400, "exponent is too large for a double: 1329 bits"),
         (-(10**400), "exponent is too large for a double: 1329 bits"),
         (Fraction(10**400, 3), "exponent is too large for a double: 1329 bits"),
         (10**5000, "exponent is too large for a double: 16610 bits"),
         (Fraction(10**5000 + 1, 10**5000), "exponent has too many digits: 16610 bits")],
        ids=["inf", "minus_inf", "nan", "huge_int", "huge_negative_int", "huge_fraction",
             "int_past_digit_limit", "fraction_past_digit_limit"],
    )
    def test_bad_exponent_is_refused(self, exponent, message):
        # as the parser refuses it: a Pow whose exponent overflows a double
        # could not be differentiated, and one whose terms are past the
        # limit on digits could not be printed
        with pytest.raises(JethamError, match=f"^{re.escape(message)}$"):
            xvar(0) ** exponent

    def test_exponent_with_a_finite_double_is_kept_exactly(self):
        r = Fraction(10**400 + 1, 10**400)
        assert (xvar(0) ** r).exponent == r
        assert (xvar(0) ** 0.5).exponent == Fraction(1, 2)

    def test_negative_constant_round_trip(self):
        e = const(-2.5) * xvar(0)
        assert evaluate(parse(str(e), 1), q_of(x=(2.0,))) == -5.0


class TestImmutability:
    def test_concurrent_shared_reads(self):
        # trees are immutable and evaluation is pure: hammering one shared
        # tree from several threads must give bit-identical results
        import concurrent.futures

        e = parse("exp(t)*p1 + sin(x1^2) - t/(1 + p1^2)", 1)
        q = q_of(t=1.1, x=(0.9,), p=(2.3,))
        want = evaluate(e, q)
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda _: evaluate(e, q), range(200)))
        assert all(r == want for r in results)

    def test_nodes_are_hashable_and_comparable(self):
        a = parse("x1 + t", 1)
        b = parse("x1 + t", 1)
        assert same_structure(a, b)
        assert not same_structure(a, parse("t + x1", 1))
        assert same_structure(Const(0.0), Const(-0.0))

    def test_two_parses_are_two_nodes_of_one_structure(self):
        # nodes compare and hash by identity; structure is the tests' own
        a = parse("x1 + t", 1)
        b = parse("x1 + t", 1)
        assert a != b and len({a, b}) == 2
        assert same_structure(a, b)

    def test_deep_sum_compares_and_hashes_without_recursion(self):
        src = " + ".join(f"x1^{k}" for k in range(1, 1501))
        a, b = parse(src, 2), parse(src, 2)
        assert same_structure(a, b) and len({a, b}) == 2
        assert not same_structure(a, parse(src + " + 1", 2))

    def test_operator_sugar_builds_fresh_trees(self):
        base = xvar(0)
        e1 = base + 1
        e2 = base + 2
        assert not same_structure(e1, e2)
        assert evaluate(base, q_of(x=(4.0,))) == 4.0


_NODE_CLASSES = [
    cls for cls in vars(jetham.expr).values()
    if isinstance(cls, type) and issubclass(cls, jetham.expr.Expr) and cls is not jetham.expr.Expr
]


class TestPlainStores:
    """Nodes are immutable by contract, not frozen: building one is plain
    slot stores.  ``test_cli.test_no_command_mutates_a_node`` checks the
    contract."""

    def test_every_node_class_is_found(self):
        assert {cls.__name__ for cls in _NODE_CLASSES} == {
            "Const", "Coord", "Add", "Sub", "Mul", "Div", "Pow", "Neg", "Exp", "Log", "Sin", "Cos",
        }

    @pytest.mark.parametrize("cls", _NODE_CLASSES, ids=lambda cls: cls.__name__)
    def test_node_class_stores_plainly(self, cls):
        assert cls.__setattr__ is object.__setattr__
        # a generic walk of a node's parts reads them by its fields
        assert tuple(f.name for f in dataclasses.fields(cls)) == cls.__slots__

    def test_coordinate_vars_stay_frozen(self):
        # a Var hashes by value: it keys substitute's mappings
        with pytest.raises(dataclasses.FrozenInstanceError):
            Var.space(1).index = 2
        with pytest.raises(ValueError, match="non-negative"):
            Var.space(-1)


# -- compiled programs ---------------------------------------------------------

_LEAVES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.5, 2.0, 300.0, 1e200, 1e-200]).map(Const),
    st.sampled_from([Var.time(), Var.space(0), Var.space(1), Var.momentum(0)]).map(Coord),
)
_UNARY = (Neg, Exp, Log, Sin, Cos)
_BINARY = (Add, Sub, Mul, Div)
_EXPONENTS = [Fraction(e) for e in (0, 1, 2, 3, -1, -2)] + [Fraction(1, 2), Fraction(-1, 3)]


@st.composite
def shared_dags(draw):
    """Root lists over a pool in which every new node takes its operands
    from the earlier nodes, so subtrees are shared within and across roots.
    Raw constructors keep the shapes the smart ones fold (x/0, x^0,
    log(0), log(1), x/1e-200, ...)."""
    pool = draw(st.lists(_LEAVES, min_size=1, max_size=4))
    for _ in range(draw(st.integers(1, 12))):
        pick = st.sampled_from(pool)
        cls = draw(st.sampled_from(_UNARY + _BINARY + (Pow,)))
        if cls is Pow:
            pool.append(Pow(draw(pick), draw(st.sampled_from(_EXPONENTS))))
        elif cls in _BINARY:
            pool.append(cls(draw(pick), draw(pick)))
        else:
            pool.append(cls(draw(pick)))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))


_COORDS = st.sampled_from([0.0, -0.0, 0.5, -1.0, 1.3, 2.0, 400.0])


def _bits(values):
    return [struct.pack("<d", v) for v in values]


class TestProgram:
    @settings(max_examples=400, deadline=None)
    @given(shared_dags(), _COORDS, _COORDS, _COORDS, _COORDS)
    def test_matches_recursive_eval_bit_for_bit(self, roots, t, x1, x2, p1):
        q = Point.make(t, [x1, x2], [p1, 0.0])
        try:
            want = [reference_eval(r, q) for r in roots]
        except DomainError as ref:
            with pytest.raises(DomainError) as err:
                Program(roots).run(q)
            assert str(err.value) == str(ref)
            return
        try:
            got = Program(roots).run(q)
        except DomainError as err:
            # the reference lets a NaN or an infinity through; the program names it
            assert "non-finite value" in str(err)
            assert not math.isfinite(reference_eval(err.subexpr, q))
            return
        assert _bits(got) == _bits(want)

    def test_shared_node_has_one_slot(self):
        s = parse("x1*p1 + t", 1)  # x1, p1, *, t, +
        e = s * s + s  # two more nodes; s counts once
        prog = Program([e, s, s])
        assert len(prog) == 7
        q = q_of(t=0.5, x=(1.5,), p=(2.0,))
        assert prog.run(q) == [reference_eval(r, q) for r in (e, s, s)]

    def test_deep_chain_without_recursion(self):
        x = xvar(0)
        e = x
        for _ in range(2500):
            e = (e + x) * 0.5  # left-deep: 5,000 operator nodes
        q = q_of(x=(1.0,))
        assert evaluate(e, q) == 1.0
        assert evaluate(diff(e, Var.space(0)), q) == 1.0
        assert e.free_vars() == {Var.space(0)}
        assert evaluate(e.substitute({Var.space(0): const(1.0)}), q) == 1.0

    def test_non_finite_value_names_first_node(self):
        e = parse("1 + exp(200*x1)*exp(200*x1) - exp(200*x1)*exp(200*x1)", 1)
        with pytest.raises(DomainError, match=r"non-finite value inf in 'exp\(200 \* x1\) \* exp"):
            evaluate(e, q_of(x=(1.9,)))

    @pytest.mark.parametrize("fn", ["sin", "cos"])
    def test_sin_and_cos_of_infinity(self, fn):
        e = parse(f"{fn}(exp(300*x1)*exp(300*x1))", 1)
        q = q_of(x=(1.9,))
        with pytest.raises(DomainError, match=f"{fn} of an infinite value"):
            evaluate(e, q)
        with pytest.raises(DomainError, match=f"{fn} of an infinite value"):
            reference_eval(e, q)

    def test_denominator_is_checked_before_numerator(self):
        # the reference reads the denominator first, so the division error wins
        e = Div(Log(Const(-1.0)), Sub(xvar(0), xvar(0)))
        with pytest.raises(DomainError, match="division by zero"):
            reference_eval(e, Q1)
        with pytest.raises(DomainError, match="division by zero"):
            evaluate(e, Q1)

    def test_overflowing_sum_of_finite_values_is_not_an_error(self):
        assert Program([const(1e308), const(1e308)]).run(Q1) == [1e308, 1e308]

    @pytest.mark.parametrize(
        "text, x1",
        [("x1^-2", 1e-200), ("x1^(3/2)", 1e300)],
        ids=["negative_integer", "fractional"],
    )
    def test_overflowing_power_names_its_node(self, text, x1):
        # float ** raises OverflowError here, where * and + give inf
        e = parse(text, 1)
        q = q_of(x=(x1,))
        for run in (lambda: Program([e]).run(q), lambda: reference_eval(e, q)):
            with pytest.raises(DomainError) as err:
                run()
            assert str(err.value) == f"overflow in power in '{text}'"


# coordinates that leave most trees finite, and some that make a run raise:
# zeros for division, logs and negative powers, a negative base for
# fractional powers, 400 for exp and 1e200 for powers
_SET_COORDS = st.sampled_from([0.5, -1.0, 1.3, 2.0, -0.7, 0.0, -0.0, 400.0, 1e200])


@st.composite
def point_sets(draw):
    """Point sets over a small pool, so that points repeat, in which each
    point's twin with the signs of its zeros flipped may stand beside it."""
    pool = []
    for coords in draw(st.lists(st.tuples(*[_SET_COORDS] * 5), min_size=1, max_size=5)):
        pool.append(Point.make(coords[0], coords[1:3], coords[3:]))
        flipped = [-v if v == 0.0 else v for v in coords]
        pool.append(Point.make(flipped[0], flipped[1:3], flipped[3:]))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=16))


def _run_each(program, points):
    """Each point's run values, or its error; None for a point that raised."""
    values, first_error = [], None
    for q in points:
        try:
            values.append(program.run(q))
        except JethamError as exc:
            values.append(None)
            first_error = first_error or exc
    return values, first_error


class TestRunPoints:
    """``Program.run_points`` is the per-point ``run`` over a points axis:
    the same bits wherever no run raises, and None, silently, wherever one
    does, for the caller to take the per-point path for the error."""

    @settings(max_examples=400, deadline=None)
    @given(st.integers(0, 10**9), point_sets())
    def test_matches_run_at_each_point(self, seed, points):
        rng = random.Random(seed)
        roots = [random_expr(rng, 2) for _ in range(rng.randint(1, 3))]
        program = Program(roots)
        values, first_error = _run_each(program, points)
        event("a run raises" if first_error else "no run raises")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = program.run_points(PointSet(points))
        assert caught == []
        if first_error is not None:
            assert got is None
        else:
            assert got.dtype == np.float64 and got.shape == (len(points), len(roots))
            assert [_bits(row) for row in got.tolist()] == [_bits(row) for row in values]
        # and evaluate_together, batched at every point set, reads the same
        # values or raises the first failing point's error, as point by point
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(jetham.expr, "BATCH_POINTS", 1)
            obj = Components(2, roots)
            if first_error is not None:
                with pytest.raises(type(first_error)) as err:
                    obj.evaluate(points)
                assert str(err.value) == str(first_error)
            else:
                assert [_bits(row) for row in obj.evaluate(points).tolist()] == [
                    _bits(row) for row in values
                ]

    def test_points_of_another_dimension(self):
        program = Program([parse("x2 + t", 2)])
        wide, narrow = Point.make(1.0, [1.0, 2.0], [0.0, 0.0]), Point.make(1.0, [1.0], [0.0])
        assert program.run_points(PointSet([wide, wide])).tolist() == [[3.0], [3.0]]
        assert program.run_points(PointSet([wide, narrow])) is None
        assert program.run_points(PointSet([narrow, narrow])) is None
        with pytest.raises(DimensionError):
            program.run(narrow)

    def test_coordinates_that_are_not_floats(self):
        # a point holds floats, so -x1 at x1 = 0 is -0.0 on both paths
        program = Program([Neg(xvar(0))])
        assert _bits(program.run(Point(1, (0,), (0,)))) == _bits([-0.0])
        assert _bits(program.run_points(PointSet([Point(1, (0,), (0,))]))[0]) == _bits([-0.0])

    def test_an_int_point_and_its_float_read_the_same_values(self):
        # their keys are equal, so the table built at the int point serves
        # the float point: it holds the float point's values
        obj = Components(1, [Neg(xvar(0))])
        for q in (Point(1, (0,), (0,)), Point.make(1, [0], [0])):
            assert _bits(obj.evaluate([q]).ravel().tolist()) == _bits([-0.0])

    def test_overflow_is_silent(self):
        # array arithmetic overflows to inf where run names the first slot
        e = parse("1 + exp(200*x1)*exp(200*x1) - exp(200*x1)*exp(200*x1)", 1)
        points = [q_of(x=(1.9,)), q_of(x=(0.5,))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert Program([e]).run_points(PointSet(points)) is None
            assert Program([e]).run_points(PointSet(points[1:])).tolist() == [
                Program([e]).run(points[1])
            ]


class TestIdentitySlots:
    """A program gives each node object its own slot: equal trees built
    apart are compiled and run once each."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10**9), _COORDS, _COORDS, _COORDS, _COORDS, _COORDS)
    def test_equal_structures_built_apart_keep_their_own_slots(self, seed, t, x1, x2, p1, p2):
        # each root parsed twice from its text: equal trees, distinct objects
        rng = random.Random(seed)
        texts = [str(random_expr(rng, 2)) for _ in range(rng.randint(1, 3))]
        first, second = ([parse(text, 2) for text in texts] for _ in range(2))
        assert all(a is not b and same_structure(a, b) for a, b in zip(first, second))
        roots = first + second
        program = Program(roots)
        assert len(program) == len(Program(first)) + len(Program(second))
        q = Point.make(t, [x1, x2], [p1, p2])
        try:
            want = [reference_eval(r, q) for r in roots]
        except DomainError as ref:
            with pytest.raises(DomainError) as err:
                program.run(q)
            assert str(err.value) == str(ref)
            return
        try:
            got = program.run(q)
        except DomainError as err:
            assert "non-finite value" in str(err)
            assert not math.isfinite(reference_eval(err.subexpr, q))
            return
        assert _bits(got) == _bits(want)

    def test_signed_zeros_keep_their_bits(self):
        program = Program([Const(0.0), Const(-0.0), Const(0.0), Const(-0.0)])
        assert len(program) == 4
        assert _bits(program.run(Q1)) == _bits([0.0, -0.0, 0.0, -0.0])

    def test_one_check_per_denominator_object(self):
        # one shared denominator, three divisions: one zero test
        x, y, p = xvar(0), xvar(1), pvar(0)
        shared = Sub(x, y)
        program = Program([Div(x, shared), Div(p, shared), Div(y, shared)])
        assert program._code[0].count(jetham.expr._CHECK) == 1
        q = Point.make(1.0, [2.0, 2.0], [1.0, 1.0])
        with pytest.raises(DomainError, match=r"division by zero in 'x1 / \(x1 - x2\)'"):
            program.run(q)
        # equal denominators built apart: one zero test each, the first wins
        program = Program([Div(x, Sub(x, y)), Div(p, Sub(x, y)), Div(y, Sub(x, y))])
        assert program._code[0].count(jetham.expr._CHECK) == 3
        with pytest.raises(DomainError, match=r"division by zero in 'x1 / \(x1 - x2\)'"):
            program.run(q)


class TestValueNumberKeys:
    """Distinct operations never share a slot, whatever their opcodes,
    operand slots and exponents."""

    @settings(max_examples=300, deadline=None)
    @given(shared_dags(), shared_dags())
    def test_one_slot_per_node_object(self, first, second):
        roots = first + second
        assert len(Program(roots)) == distinct_nodes(roots)

    def test_powers_of_one_base_keep_a_slot_each(self):
        x = xvar(0)
        exponents = [Fraction(2), Fraction(-2), Fraction(1, 2), Fraction(-1, 2),
                     Fraction(10**18), Fraction(10**18 + 1), Fraction(-(10**18)),
                     Fraction(2**63), Fraction(2**63 + 2)]
        program = Program([Pow(x, r) for r in exponents])
        assert len(program) == 1 + len(exponents)
        integral = [r for r in exponents if r.denominator == 1]
        got = Program([Pow(x, r) for r in integral]).run(q_of(x=(-1.0,)))
        assert got == [(-1.0) ** int(r) for r in integral]

    def test_operand_order_keeps_two_slots(self):
        a, b = xvar(0), pvar(0)
        program = Program([Sub(a, b), Sub(b, a), Div(a, b), Div(b, a)])
        assert len(program) == 2 + 4
        assert program.run(q_of(x=(3.0,), p=(2.0,))) == [1.0, -1.0, 1.5, 2.0 / 3.0]

    def test_every_ordered_pair_of_many_operands_keeps_a_slot(self):
        leaves = [Const(float(k)) for k in range(1, 65)]
        pairs = [Sub(a, b) for a in leaves for b in leaves if a is not b]
        powers = [Pow(a, Fraction(e)) for a in leaves for e in (2, 3, 10**18)]
        assert len(Program([*pairs, *powers])) == len(leaves) + len(pairs) + len(powers)

    def test_each_function_of_one_operand_keeps_a_slot(self):
        x = xvar(0)
        roots = [x, *(cls(x) for cls in _UNARY), Add(x, x), Mul(x, x), Pow(x, Fraction(0))]
        program = Program(roots)
        assert len(program) == len(roots)
        q = q_of(x=(0.5,))
        assert program.run(q) == [reference_eval(r, q) for r in roots]

    def test_signed_zero_operands_keep_two_slots(self):
        x = xvar(0)
        roots = [Add(x, Const(0.0)), Add(x, Const(-0.0)), Mul(Const(0.0), x), Mul(Const(-0.0), x)]
        program = Program(roots)
        assert len(program) == 1 + 4 + 4 == distinct_nodes(roots)
        got = program.run(q_of(x=(-0.0,)))
        assert _bits(got) == _bits([0.0, -0.0, -0.0, 0.0])


HAMILTONIAN_N2 = Path(__file__).resolve().parent.parent / "problems" / "hamiltonian_n2.json"


class TestSharedParse:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10**9), _COORDS, _COORDS, _COORDS, _COORDS, _COORDS)
    def test_each_structure_is_one_object(self, seed, t, x1, x2, p1, p2):
        # each text twice in one string; the same texts parsed one by one
        # and joined by the smart constructors give the unshared tree
        rng = random.Random(seed)
        texts = [str(random_expr(rng, 2)) for _ in range(rng.randint(1, 3))] * 2
        rng.shuffle(texts)
        src, unshared = f"({texts[0]})", parse(texts[0], 2)
        for text in texts[1:]:
            op = rng.choice("+-*")
            src = f"({src}) {op} ({text})"
            unshared = {"+": operator.add, "-": operator.sub, "*": operator.mul}[op](
                unshared, parse(text, 2)
            )
        e = parse(src, 2)
        assert same_structure(e, unshared)
        assert distinct_nodes([e]) == structures([e])
        q = Point.make(t, [x1, x2], [p1, p2])
        try:
            want = reference_eval(unshared, q)
        except DomainError as ref:
            with pytest.raises(DomainError) as err:
                evaluate(e, q)
            assert str(err.value) == str(ref)
            return
        try:
            got = evaluate(e, q)
        except DomainError as err:
            assert "non-finite value" in str(err)
            assert not math.isfinite(reference_eval(err.subexpr, q))
            return
        assert _bits([got]) == _bits([want])

    @pytest.mark.parametrize(
        "src, cls",
        [
            ("0 - x1 + -x1", Neg),
            ("(x1 + x2)*1 + (x1 + x2)", Add),
            ("x1^2*1 + x1^2", Pow),
            ("2*3*x1 + 6*x1", Mul),
        ],
        ids=["neg", "add", "pow", "mul"],
    )
    def test_folded_result_is_filed_under_its_structure(self, src, cls):
        # 0 - y, y*1 and 2*3 fold to a node of another class than the one
        # parsed; the table files it under its own structure too, so the
        # equal subterm parsed after it is the same object
        e = parse(src, 2)
        assert type(e) is Add and type(e.left) is cls
        assert e.left is e.right

    def test_spellings_of_one_exponent_are_one_node(self):
        # a small exponent is read from a table, any other one is built;
        # both are keyed by the exponent's value
        e = parse("x1^2 * x1^(2) * x1^(4/2) * x1^02 * x1^-(-2)", 1)
        assert distinct_nodes([e]) == structures([e]) == 6  # x1, x1^2 and four products

    def test_signed_zeros_stay_two_objects(self):
        # a table keyed on the value alone would give sin(0) - sin(0) = 0.0
        assert _bits([evaluate(parse("sin(-0) - sin(0)", 1), Q1)]) == _bits([-0.0])

    def test_hamiltonian_hessians_hold_few_duplicates(self):
        # a parser that builds each repeated p1^2 or t^2 anew gives 2.3-2.5
        # objects per slot in these Hessians
        problem = load_problem(HAMILTONIAN_N2)
        origin = _Chart(problem)
        hamiltonian = origin.hamiltonian
        assert distinct_nodes([hamiltonian]) == structures([hamiltonian])
        for chart in [origin, *(_Chart(problem, origin, spec.change) for spec in problem.charts)]:
            comps = list(chart.vertical_metrical.comps.flat)
            assert distinct_nodes(comps) <= 1.1 * structures(comps)


# in printed text: an exponent or a function name, kept whole, or a leaf
_EXPONENT_NAME_OR_LEAF = re.compile(
    r"\^(?:\([^)]*\)|-?[0-9]+)|[a-z]+(?=\()|([a-z]+[0-9]*|[0-9]+(?:\.[0-9]*)?(?:e[+-]?[0-9]+)?)"
)
# what a corruption writes in place of one character
_CORRUPTIONS = "+-*/^()., @0123456789"


def _spelled(rng: random.Random, e) -> str:
    """The printed text of e with its spaces varied and redundant
    parentheses around some leaves and around the whole."""
    text = _EXPONENT_NAME_OR_LEAF.sub(
        lambda m: f"({m[1]})" if m[1] and rng.random() < 0.3 else m[0], str(e)
    )
    text = re.sub(" ", lambda m: rng.choice(["", " ", "  ", "\t", "\n "]), text)
    wraps = rng.randrange(3)
    return rng.choice(["", " "]) + "(" * wraps + text + ")" * wraps + rng.choice(["", "\n"])


def _parsed(parser, src: str, n: int):
    """The tree, or the text and offset of the syntax error."""
    try:
        return parser(src, n)
    except ExprSyntaxError as err:
        return (str(err), err.offset)


class TestReferenceParse:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10**9), st.integers(1, 3))
    @example(seed=4945, n=1)  # a fold that returns its left operand: 1/cos(2)/1
    def test_parse_matches_the_recursive_descent_reference(self, seed, n):
        # the same tree and the same sharing for a printed tree, and for each
        # corruption of its text the same error, or the same tree again
        rng = random.Random(seed)
        src = _spelled(rng, random_expr(rng, n))
        e = parse(src, n)
        assert same_structure(e, reference_parse(src, n))
        assert distinct_nodes([e]) == structures([e])
        for _ in range(8):
            k = rng.randrange(len(src))
            written = rng.choice(["", src[k] * 2, rng.choice(_CORRUPTIONS)])  # delete, double, replace
            corrupt = src[:k] + written + src[k + 1:]
            got, want = _parsed(parse, corrupt, n), _parsed(reference_parse, corrupt, n)
            if type(want) is tuple:
                assert got == want, corrupt
            else:
                assert same_structure(got, want), corrupt
                assert distinct_nodes([got]) == structures([got])


class TestComponentsCompiledTogether:
    def _pair(self):
        x = xvar(0)
        return Components(1, [Sin(x), Neg(x)]), Components(1, [[x * x]])

    def test_signed_zero_points_are_two_points(self):
        grouped, other = self._pair()
        compile_together([grouped, other])
        points = [Point.make(1.0, [x], [1.0]) for x in (0.0, -0.0, 0.0)]
        alone, alone_other = self._pair()
        assert _bits(grouped.evaluate(points).ravel()) == _bits(alone.evaluate(points).ravel())
        assert _bits(other.evaluate(points).ravel()) == _bits(alone_other.evaluate(points).ravel())
        assert _bits(grouped.evaluate(points)[1]) == _bits([-0.0, 0.0])
        # a point set read alone is its own table, under its own signs
        for x in (0.0, -0.0):
            (row,) = grouped.evaluate([Point.make(1.0, [x], [1.0])])
            assert _bits(row) == _bits([x, -x])

    def test_returned_array_is_the_callers(self):
        grouped, other = self._pair()
        compile_together([grouped, other])
        points = [Point.make(1.0, [x], [1.0]) for x in (0.5, 1.5)]
        first = grouped.evaluate(points)
        first[:] = 99.0
        other.evaluate(points)[0, 0, 0] = 99.0
        assert grouped.evaluate(points).tolist() == [[math.sin(x), -x] for x in (0.5, 1.5)]
        assert other.evaluate(points).tolist() == [[[0.25]], [[2.25]]]

    def test_one_program_runs_once_per_point(self, monkeypatch):
        grouped, other = self._pair()
        compile_together([grouped, other, grouped])
        runs = []
        run = Program.run
        monkeypatch.setattr(
            Program, "run", lambda self, q: runs.append((self, q.x)) or run(self, q)
        )
        points = [Point.make(1.0, [x], [1.0]) for x in (0.5, 0.5, 1.5)]
        for _ in range(2):
            grouped.evaluate(points), other.evaluate(points)
        evaluate_together([(grouped, points), (other, points)])
        assert [x for _, x in runs] == [(0.5,), (1.5,)] and runs[0][0] is runs[1][0]


_VARS = st.sampled_from(
    [Var.time(), Var.space(0), Var.space(1), Var.momentum(0), Var.momentum(1)]
)


def _same_bits(a, b) -> bool:
    """Structural equality in which constants match bit for bit, so that
    -0.0 is told apart from 0.0."""
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        cls = type(a)
        if type(b) is not cls:
            return False
        if cls is Const:
            if _bits([a.value]) != _bits([b.value]):
                return False
        elif cls is Coord:
            if a.var != b.var:
                return False
        elif cls is Pow and a.exponent != b.exponent:
            return False
        else:
            stack.extend(zip(children(a), children(b)))
    return True


class TestKeptDerivatives:
    @settings(max_examples=400, deadline=None)
    @given(shared_dags(), _VARS, _VARS)
    # the shapes whose rules build no zero from operands free of the variable
    @example([Div(Neg(xvar(0)), Const(-1e-200))], Var.momentum(0), Var.time())
    @example([Add(Log(Const(0.0)), pvar(0))], Var.time(), Var.momentum(0))
    @example([Neg(Log(Const(1.0)))], Var.space(0), Var.space(0))
    def test_diff_matches_the_recursive_rules_node_for_node(self, roots, v, w):
        for root in roots:
            first = reference_diff(root, v)
            assert _same_bits(diff(root, v), first)
            assert _same_bits(diff(diff(root, v), w), reference_diff(first, w))

    def test_roots_sharing_a_subtree_get_one_derivative_through_one_memo(self):
        shared = parse("sin(x1*p1) * exp(p2) / (1 + p1^2)", 2)
        a, b = shared * xvar(0), shared + pvar(1)
        memo = {}
        da = diff(a, Var.momentum(0), memo)
        db = diff(b, Var.momentum(0), memo)
        assert da.left is db  # d(shared) * x1 and d(shared) + 0: one object
        assert memo[shared] is db
        # the same roots in calls of their own share nothing
        assert diff(a, Var.momentum(0)).left is not diff(b, Var.momentum(0))

    def test_kept_derivatives_hold_no_reference_cycle(self):
        # dropping an expression and its derivatives frees them at once
        gc.disable()
        try:
            gc.collect()
            e = parse("exp(x1*p1) * sin(p1) + log(cos(x1) + 2) / p1", 1)
            diff(diff(e, Var.momentum(0)), Var.space(0))
            del e
            assert gc.collect() == 0
        finally:
            gc.enable()

    @settings(max_examples=300, deadline=None)
    @given(shared_dags())
    @example([Add(Log(Const(0.0)), pvar(0))])
    @example([Mul(Div(xvar(0), Const(1e-200)), tvar())])
    def test_free_vars_are_the_variables_of_a_walk(self, roots):
        for root in roots:
            stack, seen = [root], set()
            while stack:
                node = stack.pop()
                if node not in seen:
                    seen.add(node)
                    stack.extend(children(node))
            assert root.free_vars() == {node.var for node in seen if type(node) is Coord}

    def test_derivative_free_of_the_variable_skips_the_tree(self):
        e = parse(" + ".join(f"x1^{k}" for k in range(1, 3001)), 1)
        memo = {}
        assert diff(e, Var.momentum(0), memo) is ZERO
        assert memo == {e: ZERO}  # nothing below the root was walked


class TestSharing:
    def test_diff_shares_the_derivative_of_a_shared_subtree(self):
        s = parse("sin(x1*p1)", 1)
        d = diff(s * s, Var.space(0))  # ds*s + s*ds
        assert d.left.left is d.right.right

    @settings(max_examples=400, deadline=None)
    @given(shared_dags(), shared_dags(), st.lists(_VARS, unique=True, max_size=5))
    def test_substitute_matches_the_recursive_reference_node_for_node(
        self, roots, values, replaced
    ):
        mapping = {v: values[i % len(values)] for i, v in enumerate(replaced)}
        for root in roots:
            got = root.substitute(mapping)
            assert _same_bits(got, reference_substitute(root, mapping))
            # one image per node object: a shared subtree stays one object
            shared = reference_substitute(root, mapping, memo={})
            assert distinct_nodes([got]) == distinct_nodes([shared])

    def test_substitute_keeps_shared_subtrees_shared(self):
        s = parse("exp(x1) + t", 1)
        r = (s * s).substitute({Var.space(0): parse("2*x1", 1)})
        assert r.left is r.right
        assert same_structure(r, parse("(exp(2*x1) + t) * (exp(2*x1) + t)", 1))
