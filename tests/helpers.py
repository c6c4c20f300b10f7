"""Shared fixtures: chart suites per dimension, metric pairs, the seeded
random expression generator, the recursive references for evaluation,
derivatives and adapted frames, the recursive-descent reference parser, the unshared references for the metric's
determinant, inverse and Christoffel symbols, the point-by-point metric
compatibility residual, the natural frame rules
check, the paper objects no command runs (the identity and composed chart
changes, the push-forward of a d-tensor, the semispray of a connection, and
the split of a vector field over the adapted frame), the point-by-point
references for every law and for the JSON report, counts of distinct node
objects and of distinct structures, a snapshot of every node an object holds, the structural
comparison of two trees, the finite-difference oracle, an in-process
runner for the command line, and the benchmark's modules, loaded unedited."""

from __future__ import annotations

import importlib.util
import io
import json
import math
import operator
import random
import re
import struct
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Sequence

import numpy as np

from jetham.errors import DimensionError, DomainError, ExprSyntaxError, JethamError
from jetham.expr import (
    MAX_NESTING,
    Add,
    Components,
    Const,
    Coord,
    Cos,
    Div,
    Exp,
    Expr,
    Log,
    Mul,
    Neg,
    ONE,
    Point,
    Pow,
    Sin,
    Sub,
    Var,
    ZERO,
    const,
    diff,
    esum,
    parse,
    pvar,
    _ARITHMETIC,
    _FUNCS,
    _REBUILDERS,
    _exponent,
    _neg,
    _pow,
    _structure,
)
from jetham.charts import (
    CoordChange,
    TransitionData,
    induced_point,
    natural_coframe_matrix,
    natural_frame_matrix,
    transition,
)
from jetham.dtensor import DTensor, IndexKind
from jetham.metrics import SpaceMetric, TimeMetric
from jetham.nlconn import NonlinearConnection
from jetham.report import Report, check_points, residual, worst_residual
from jetham.spray import MomentumSemispray

# Cardano's closed-form inverse of y = s + s^3 (written in the DSL with the
# negative cube root folded into a difference of positive roots)
CARDANO_T = (
    "(t/2 + (t^2/4 + (1/27))^(1/2))^(1/3)"
    " - ((t^2/4 + (1/27))^(1/2) - t/2)^(1/3)"
)
CARDANO_X1 = (
    "(x1/2 + (x1^2/4 + (1/27))^(1/2))^(1/3)"
    " - ((x1^2/4 + (1/27))^(1/2) - x1/2)^(1/3)"
)


def chart(n: int, t_fwd: str, t_inv: str, x_fwd: list[str], x_inv: list[str]) -> CoordChange:
    return CoordChange(
        n,
        parse(t_fwd, n),
        parse(t_inv, n),
        tuple(parse(s, n) for s in x_fwd),
        tuple(parse(s, n) for s in x_inv),
    )


def charts_for(n: int) -> dict[str, CoordChange]:
    """Chart suite: one affine change plus three genuinely nonlinear ones,
    all regular on the sampling box t, x in [0.5, 2]."""
    if n == 1:
        return {
            "affine": chart(1, "2*t", "t/2", ["3*x1"], ["x1/3"]),
            "squares": chart(1, "t^2", "t^(1/2)", ["x1^2"], ["x1^(1/2)"]),
            "cubic_t": chart(1, "t + t^3", CARDANO_T, ["2*x1"], ["x1/2"]),
            "exp_t": chart(1, "exp(t)", "log(t)", ["x1 + x1^3"], [CARDANO_X1]),
        }
    if n == 2:
        return {
            "affine": chart(2, "2*t", "t/2", ["3*x1", "x2/2"], ["x1/3", "2*x2"]),
            "shear": chart(
                2, "t^2", "t^(1/2)", ["x1 + x2^3", "x2"], ["x1 - x2^3", "x2"]
            ),
            "stretch": chart(
                2, "exp(t)", "log(t)", ["2*x1", "x1*x2"], ["x1/2", "2*x2/x1"]
            ),
            "cubic_t": chart(
                2, "t + t^3", CARDANO_T, ["x1*exp(x2)", "x2"], ["x1/exp(x2)", "x2"]
            ),
        }
    if n == 3:
        return {
            "affine": chart(
                3, "2*t", "t/2",
                ["3*x1", "x2/2", "x3"], ["x1/3", "2*x2", "x3"],
            ),
            "shear": chart(
                3, "t^2", "t^(1/2)",
                ["x1 + x3^3", "x2", "x3"], ["x1 - x3^3", "x2", "x3"],
            ),
            "stretch": chart(
                3, "exp(t)", "log(t)",
                ["2*x1", "x2*exp(x3)", "x3"], ["x1/2", "x2/exp(x3)", "x3"],
            ),
            "cubic_t": chart(
                3, "t + t^3", CARDANO_T,
                ["x1", "x1*x2", "x3"], ["x1", "x2/x1", "x3"],
            ),
        }
    if n == 4:
        return {
            "affine": chart(
                4, "2*t", "t/2",
                ["3*x1", "x2/2", "x3", "2*x4"], ["x1/3", "2*x2", "x3", "x4/2"],
            ),
            "shear": chart(
                4, "t^2", "t^(1/2)",
                ["x1 + x4^3", "x2", "x3 + x2^2", "x4"],
                ["x1 - x4^3", "x2", "x3 - x2^2", "x4"],
            ),
            "stretch": chart(
                4, "exp(t)", "log(t)",
                ["2*x1", "x2*exp(x3)", "x3", "x1*x4"],
                ["x1/2", "x2/exp(x3)", "x3", "2*x4/x1"],
            ),
            "cubic_t": chart(
                4, "t + t^3", CARDANO_T,
                ["x1", "x1*x2", "x3", "x4*exp(x2)"],
                ["x1", "x2/x1", "x3", "x4/exp(x2/x1)"],
            ),
        }
    raise ValueError(f"no chart suite for n={n}")


def nonlinear_charts_for(n: int) -> dict[str, CoordChange]:
    return {k: v for k, v in charts_for(n).items() if k != "affine"}


def metric_pair(n: int) -> tuple[TimeMetric, SpaceMetric]:
    h = TimeMetric(parse("exp(2*t)", n))
    if n == 1:
        g = SpaceMetric.diagonal((parse("1 + x1^2", 1),))
    elif n == 2:
        g = SpaceMetric.diagonal((const(1), parse("x1^2", 2)))
    elif n == 3:
        g = SpaceMetric.diagonal((const(1), parse("x1^2", 3), parse("exp(2*x2)", 3)))
    elif n == 4:
        # strictly diagonally dominant on the box (diagonal >= 3.25, each
        # row's off-diagonal sum <= 1.5), so positive definite there
        rows = (
            ("3 + x1^2", "x1*x2/4", "0", "x4/4"),
            ("x1*x2/4", "3 + x2^2", "x3/4", "0"),
            ("0", "x3/4", "2 + exp(x3)", "x3*x4/4"),
            ("x4/4", "0", "x3*x4/4", "3 + x4^2"),
        )
        g = SpaceMetric(4, tuple(tuple(parse(e, 4) for e in row) for row in rows))
    else:
        raise ValueError(f"no metric pair for n={n}")
    return h, g


def curved_metric_2d() -> SpaceMetric:
    """Non-diagonal metric with det = 1 + x1^2 + x2^2 > 0 everywhere."""
    off = parse("x1*x2", 2)
    return SpaceMetric(
        2,
        (
            (parse("1 + x2^2", 2), off),
            (off, parse("1 + x1^2", 2)),
        ),
    )


# ---------------------------------------------------------------------------
# Recursive reference evaluator
# ---------------------------------------------------------------------------

def reference_eval(e: Expr, q: Point) -> float:
    """Evaluate e node by node by recursion: the same IEEE double operation
    per node and the same DomainError checks, in the same order, as a
    compiled ``Program``, but no sharing and no non-finite check.  Compiled
    programs and chart transitions are compared against it bit for bit."""
    cls = type(e)
    if cls is Const:
        return e.value
    if cls is Coord:
        return q.coord(e.var)
    if cls is Div:
        denom = reference_eval(e.right, q)
        if denom == 0.0:
            raise DomainError("division by zero", e)
        return reference_eval(e.left, q) / denom
    if cls in (Add, Sub, Mul):
        a, b = reference_eval(e.left, q), reference_eval(e.right, q)
        return a + b if cls is Add else a - b if cls is Sub else a * b
    if cls is Pow:
        b, r = reference_eval(e.base, q), e.exponent
        if r.denominator == 1 and b == 0.0 and r < 0:
            raise DomainError("zero raised to a negative power", e)
        if r.denominator != 1 and b <= 0.0:
            raise DomainError("fractional power of a non-positive base", e)
        try:
            return b ** int(r) if r.denominator == 1 else b ** float(r)
        except OverflowError:
            raise DomainError("overflow in power", e) from None
    value = reference_eval(e.arg, q)
    if cls is Neg:
        return -value
    if cls is Exp:
        try:
            return math.exp(value)
        except OverflowError:
            raise DomainError("overflow in exp", e) from None
    if cls is Log:
        if value <= 0.0:
            raise DomainError("log of a non-positive value", e)
        return math.log(value)
    fn = math.sin if cls is Sin else math.cos
    try:
        return fn(value)
    except ValueError:  # math.sin and math.cos raise on +-inf
        raise DomainError(f"{fn.__name__} of an infinite value", e) from None


# ---------------------------------------------------------------------------
# Recursive-descent reference parser
# ---------------------------------------------------------------------------

# Unicode \s and \d, which on ASCII text match what parse's ASCII classes match
_REFERENCE_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z]+\d*)
  | (?P<op>[-+*/^()])
  | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)

# the binary operators of each precedence level, loosest first
_LEVELS = ({"+": Add, "-": Sub}, {"*": Mul, "/": Div})


def reference_parse(src: str, n: int) -> Expr:
    """Parse src by recursive descent over a list of (kind, text, offset)
    tokens, one method per grammar rule: the trees, the sharing and every
    ExprSyntaxError of ``parse`` on ASCII text, the reference it is
    compared against."""
    return _ReferenceParser(src, n).parse()


class _ReferenceParser:
    def __init__(self, src: str, n: int):
        self.src = src
        self.n = n
        self.tokens: list[tuple[str, str, int]] = []  # (kind, text, offset)
        self._lex()
        self.pos = 0
        self.depth = 0  # open parentheses, calls and unary minus signs
        self.shared: dict = {}  # see _share; it lives only as long as the parse

    def _lex(self):
        for m in _REFERENCE_TOKEN_RE.finditer(self.src):
            kind = m.lastgroup
            if kind == "bad":
                raise ExprSyntaxError(f"unexpected character {m.group()!r}", m.start())
            if kind != "ws":
                self.tokens.append((kind, m.group(), m.start()))
        self.tokens.append(("eof", "", len(self.src)))

    def _share(self, key, cls, build, a, b=None) -> Expr:
        """The node for key, built by build(a) or build(a, b) the first
        time, so each distinct structure in the string is one object.  An
        operation's key is its class, its operands' ids (the operands are
        shared already) and its exponent; a constant's is its value and
        sign, an identifier's its text.  A node of another class than cls
        is a folded result (x*1, 2*3, 0 - y), which is also filed under its
        own structure, so it too is one object."""
        node = self.shared.get(key)
        if node is None:
            node = build(a) if b is None else build(a, b)
            if type(node) is not cls:
                node = self.shared.setdefault(_structure(node), node)
            self.shared[key] = node
        return node

    def _peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def _next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _expect(self, text: str):
        kind, got, offset = self._peek()
        if got != text:
            raise ExprSyntaxError(f"expected {text!r}, found {got or 'end of input'!r}", offset)
        self._next()

    def parse(self) -> Expr:
        e = self.expr()
        kind, text, offset = self._peek()
        if kind != "eof":
            raise ExprSyntaxError(f"unexpected {text!r} after expression", offset)
        return e

    def expr(self, level: int = 0) -> Expr:
        """Operands joined from the left by one precedence level's
        operators: terms by + and - at level 0, factors by * and / at 1."""
        ops = _LEVELS[level]
        operand = partial(self.expr, level + 1) if level + 1 < len(_LEVELS) else self.factor
        e = operand()
        while self._peek()[1] in ops:
            _, op, offset = self._next()
            cls = ops[op]
            lhs, rhs = e, operand()
            e = self._share((cls, id(lhs), id(rhs)), cls, _REBUILDERS[cls], lhs, rhs)
            # the operands the join received: a fold may return one of them
            # (x*1, x/1), whose own left is no operand of this join
            if type(e) is cls and type(lhs) is type(rhs) is Const and rhs.value != 0.0:
                value = _ARITHMETIC[cls](lhs.value, rhs.value)  # overflowed, not x/0
                raise ExprSyntaxError(f"{op!r} folds to {value}, not a finite double", offset)
        return e

    def factor(self) -> Expr:
        e = self.base()
        if self._peek()[1] == "^":
            self._next()
            r = self.rational()
            e = self._share((Pow, id(e), r.numerator, r.denominator), Pow, _pow, e, r)
        return e

    def base(self) -> Expr:
        kind, text, offset = self._next()
        if text == "-":
            arg = self._nested(self.base, offset)
            return self._share((Neg, id(arg)), Neg, _neg, arg)
        if text == "(":
            e = self._nested(self.expr, offset)
            self._expect(")")
            return e
        if kind == "number":
            value = float(text)  # a literal has no sign
            if not math.isfinite(value):
                raise ExprSyntaxError(f"number {text!r} is not a finite double", offset)
            return self._share((value, 1.0), Const, Const, value)
        if kind == "ident":
            if text in _FUNCS:
                self._expect("(")
                arg = self._nested(self.expr, offset)
                self._expect(")")
                cls = _FUNCS[text]
                return self._share((cls, id(arg)), cls, cls, arg)
            return self._share(text, Coord, self._coord, text, offset)
        raise ExprSyntaxError(f"unexpected {text or 'end of input'!r}", offset)

    def _nested(self, rule, offset: int) -> Expr:
        # each level costs a few interpreter frames, so depth is capped
        if self.depth == MAX_NESTING:
            raise ExprSyntaxError(f"nesting deeper than {MAX_NESTING} levels", offset)
        self.depth += 1
        e = rule()
        self.depth -= 1
        return e

    def _coord(self, text: str, offset: int) -> Coord:
        # x1 and x01 are one variable
        var = self._resolve_var(text, offset)
        return self.shared.setdefault(var, Coord(var))

    def _resolve_var(self, text: str, offset: int) -> Var:
        if text == "t":
            return Var.time()
        head, digits = text[0], text[1:]
        if head in ("x", "p") and digits.isdigit():
            index = int(digits)
            if not 1 <= index <= self.n:
                raise ExprSyntaxError(
                    f"index of {text!r} out of range for dimension n={self.n}", offset
                )
            return Var(head, index - 1)
        raise ExprSyntaxError(f"unknown identifier {text!r}", offset)

    def rational(self) -> Fraction:
        start = self._peek()[2]  # errors in the exponent's value point here
        sign = 1
        if self._peek()[1] == "-":
            self._next()
            sign = -1
        kind, text, offset = self._peek()
        if kind == "number" and text.isdigit():
            num, den = self._integer(start), 1
        elif text == "(":
            self._next()
            num = self._integer(start)
            den = 1
            if self._peek()[1] == "/":
                self._next()
                den = self._integer(start)
            self._expect(")")
        else:
            raise ExprSyntaxError("expected an integer or (integer/integer) exponent", offset)
        if den == 0:
            raise ExprSyntaxError("exponent has a zero denominator", start)
        try:
            return _exponent(Fraction(sign * num, den))
        except JethamError as ex:
            raise ExprSyntaxError(str(ex), start) from None

    def _integer(self, start: int) -> int:
        sign = 1
        if self._peek()[1] == "-":
            self._next()
            sign = -1
        kind, text, offset = self._next()
        if kind != "number" or not text.isdigit():
            raise ExprSyntaxError("expected an integer", offset)
        try:
            return sign * int(text)
        except ValueError:  # past the interpreter's limit on digits
            raise ExprSyntaxError("exponent has too many digits", start) from None


# ---------------------------------------------------------------------------
# Symbolic reference frames
# ---------------------------------------------------------------------------

def reference_adapted_frames(N: NonlinearConnection) -> tuple[list[list[Expr]], list[list[Expr]]]:
    """The adapted frame and coframe as rows of expressions, entry by entry
    from their defining formulas.

    Frame rows (delta/delta t, delta/delta x^i, d/dp_i) over the natural
    frame: delta/delta t = d/dt - N_(j)1 d/dp_j, delta/delta x^i = d/dx^i
    - N_(j)i d/dp_j.  Coframe rows (dt, dx^i, delta p_i) over the natural
    coframe: delta p_i = dp_i + N_(i)1 dt + N_(i)j dx^j.  The filled
    matrices of ``frames.adapted_frames`` are compared against
    ``reference_eval`` of these rows bit for bit.
    """
    n = N.n
    size = 2 * n + 1
    F = [[ONE if a == b else ZERO for b in range(size)] for a in range(size)]
    C = [[ONE if a == b else ZERO for b in range(size)] for a in range(size)]
    for j in range(n):
        F[0][n + 1 + j] = -N.temporal[j]
        C[n + 1 + j][0] = N.temporal[j]
        for i in range(n):
            F[1 + i][n + 1 + j] = -N.spatial[j, i]
            C[n + 1 + j][1 + i] = N.spatial[j, i]
    return F, C


# ---------------------------------------------------------------------------
# Unshared references for the determinant, inverse and Christoffel symbols
# ---------------------------------------------------------------------------

def _reference_minor(mat, rows, cols):
    return tuple(tuple(mat[r][c] for c in cols) for r in rows)


def reference_det(mat) -> Expr:
    """Laplace expansion along the first row, with every minor built again
    wherever it is needed.  ``metrics.space_metric_det`` is compared
    against it node for node."""
    n = len(mat)
    if n == 1:
        return mat[0][0]
    if n == 2:
        return mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
    total = None
    cols = tuple(range(n))
    for j in range(n):
        sub = _reference_minor(mat, range(1, n), tuple(c for c in cols if c != j))
        term = mat[0][j] * reference_det(sub)
        signed = term if j % 2 == 0 else -term
        total = signed if total is None else total + signed
    return total


def reference_inverse(g: SpaceMetric) -> tuple[tuple[Expr, ...], ...]:
    """Adjugate over determinant, each cofactor built by ``reference_det``."""
    n = g.n
    det = reference_det(g.g)
    rows = tuple(range(n))
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            if n == 1:
                cof = const(1)
            else:
                sub = _reference_minor(
                    g.g,
                    tuple(r for r in rows if r != j),
                    tuple(c for c in rows if c != i),
                )
                cof = reference_det(sub)
                if (i + j) % 2 == 1:
                    cof = -cof
            # adjugate is transposed cofactors; (i, j) swap above does it
            row.append(cof / det)
        out.append(tuple(row))
    return tuple(out)


def reference_christoffel(g: SpaceMetric) -> list[list[list[Expr]]]:
    """gamma^i_jk = sum_l (1/2 g^il)(dg_lj/dx^k + dg_lk/dx^j - dg_jk/dx^l),
    with both factors built again for every (i, j, k, l)."""
    n = g.n
    ginv = reference_inverse(g)
    dg = g.derivatives
    gamma = [[[None] * n for _ in range(n)] for _ in range(n)]
    half = const(0.5)
    for i in range(n):
        for j in range(n):
            for k in range(j, n):
                entry = esum(
                    half * ginv[i][l] * (dg[l][j][k] + dg[l][k][j] - dg[j][k][l])
                    for l in range(n)
                )
                gamma[i][j][k] = entry
                gamma[i][k][j] = entry
    return gamma


def reference_compatibility_residual(g: SpaceMetric, gamma: Components, q: Point) -> float:
    """Max |dg_ij/dx^k - gamma^l_ki g_lj - gamma^l_kj g_il| at q, by a loop
    over (i, j, k) and then l, reduced by ``worst_residual`` (NaN as soon as
    one difference is NaN).  ``metrics.compatibility_residuals`` is compared
    against it bit for bit."""
    n = g.n
    dg_q = Components(n, g.derivatives).evaluate(q).tolist()
    g_q = Components(n, g.g).evaluate(q).tolist()
    gamma_q = gamma.evaluate(q).tolist()
    residuals = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                value = dg_q[i][j][k]
                for l in range(n):
                    value -= gamma_q[l][k][i] * g_q[l][j]
                    value -= gamma_q[l][k][j] * g_q[i][l]
                residuals.append(abs(value))
    return worst_residual(residuals)


# ---------------------------------------------------------------------------
# Recursive reference derivative
# ---------------------------------------------------------------------------

def reference_diff(e: Expr, v: Var) -> Expr:
    """Apply each node's own derivative rule by recursion, with no memo and
    no pruning of subtrees free of v.  ``diff`` is compared against it node
    for node."""
    return e._derivative(lambda k: reference_diff(k, v), v)


# ---------------------------------------------------------------------------
# Recursive reference substitution
# ---------------------------------------------------------------------------

_OPERATORS = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: operator.truediv}


def reference_substitute(e: Expr, mapping, memo: dict | None = None) -> Expr:
    """Rebuild each node by recursion with the operator of its class, which
    goes through the same smart constructor, and keep variables absent from
    mapping.  With no memo every path is rebuilt apart; with a memo (by node
    identity) each node object has one image.  ``substitute`` is compared
    against it node for node."""
    if memo is not None and id(e) in memo:
        return memo[id(e)]
    cls = type(e)
    if cls is Coord:
        image = mapping.get(e.var, e)
    elif cls is Const:
        image = e
    elif cls is Pow:
        image = reference_substitute(e.base, mapping, memo) ** e.exponent
    elif cls in _OPERATORS:
        left = reference_substitute(e.left, mapping, memo)
        right = reference_substitute(e.right, mapping, memo)
        image = _OPERATORS[cls](left, right)
    elif cls is Neg:
        image = -reference_substitute(e.arg, mapping, memo)
    else:  # exp, log, sin and cos build their node as it is
        image = cls(reference_substitute(e.arg, mapping, memo))
    if memo is not None:
        memo[id(e)] = image
    return image


# ---------------------------------------------------------------------------
# Natural frame rules
# ---------------------------------------------------------------------------

def verify_frame_rules(c: CoordChange, q: Point, tol: float = 1e-9) -> Report:
    """Check that the natural frame and coframe rules are mutually inverse.

    The frame rows (how old basis vectors expand in the new basis) and the
    coframe rows must pair to the identity; the report carries one record
    per matrix entry of coframe @ frame^T - I, in row-major order.
    """
    size = 2 * c.n + 1

    def visit(q):
        image = induced_point(c, q)
        return image, transition(c, q), transition(c.inverse(), image)

    def law(td, td_inv):
        pairings = natural_coframe_matrix(td, td_inv) @ natural_frame_matrix(td).mT
        # one residual per matrix entry, row-major, at every point
        return np.abs(pairings - np.eye(size)).reshape(len(pairings), -1).T

    return check_points((q,), tol, ("frame_rules",) * size**2, law, visit=visit)


# ---------------------------------------------------------------------------
# Paper objects no command runs
# ---------------------------------------------------------------------------

def identity_change(n: int) -> CoordChange:
    xs = tuple(Coord(Var.space(i)) for i in range(n))
    t = Coord(Var.time())
    return CoordChange(n, t, t, xs, xs)


def compose_changes(outer: CoordChange, inner: CoordChange) -> CoordChange:
    """The change applying inner first, then outer (expression-level)."""
    if outer.n != inner.n:
        raise DimensionError("cannot compose changes of different dimension")
    n = outer.n
    t_sub_fwd = {Var.time(): inner.t_fwd}
    x_sub_fwd = {Var.space(i): inner.x_fwd[i] for i in range(n)}
    t_sub_inv = {Var.time(): outer.t_inv}
    x_sub_inv = {Var.space(i): outer.x_inv[i] for i in range(n)}
    return CoordChange(
        n,
        outer.t_fwd.substitute(t_sub_fwd),
        inner.t_inv.substitute(t_sub_inv),
        tuple(e.substitute(x_sub_fwd) for e in outer.x_fwd),
        tuple(e.substitute(x_sub_inv) for e in inner.x_inv),
    )


def push_forward(T: DTensor, c: CoordChange, q: Point) -> np.ndarray:
    """Numeric components of T in the tilde frame at the image of q."""
    return reference_apply_factors(T.signature, transition(c, q), T.evaluate(q))


def spray_from_connection(N: NonlinearConnection) -> MomentumSemispray:
    """temporal G1_(i)j = (1/2) N_(i)1 p_j;  spatial G2 = (1/2) N2: the
    converse of ``nlconn.connection_from_spray``."""
    n = N.n
    half = const(0.5)
    temporal = Components(
        n, [[half * N.temporal[i] * pvar(j) for j in range(n)] for i in range(n)]
    )
    spatial = Components(n, [[half * e for e in row] for row in N.spatial])
    return MomentumSemispray(temporal, spatial)


def decompose(
    v: Sequence[Expr], N: NonlinearConnection
) -> tuple[Expr, tuple[Expr, ...], tuple[Expr, ...]]:
    """Unique coefficients of a vector field over the adapted frame.

    v holds 2n+1 natural-frame components (t, x, p blocks); the result
    (h_R, h_M, w) satisfies v = h_R delta/delta t + h_M^i delta/delta x^i
    + w_j d/dp_j.  The frame is unit triangular, so this is a one-pass
    substitution, exact at the expression level.
    """
    n = N.n
    if len(v) != 2 * n + 1:
        raise DimensionError(f"vector field needs {2 * n + 1} components")
    h_R = v[0]
    h_M = tuple(v[1 + i] for i in range(n))
    w = tuple(
        v[n + 1 + j]
        + h_R * N.temporal[j]
        + esum(h_M[i] * N.spatial[j, i] for i in range(n))
        for j in range(n)
    )
    return h_R, h_M, w


def reconstruct(
    h_R: Expr, h_M: Sequence[Expr], w: Sequence[Expr], N: NonlinearConnection
) -> tuple[Expr, ...]:
    """Natural-frame components of h_R delta/delta t + h_M^i delta/delta x^i
    + w_j d/dp_j (the inverse of decompose)."""
    n = N.n
    p_comps = tuple(
        w[j]
        - h_R * N.temporal[j]
        - esum(h_M[i] * N.spatial[j, i] for i in range(n))
        for j in range(n)
    )
    return (h_R, *h_M, *p_comps)


# ---------------------------------------------------------------------------
# Point-by-point references for the laws and the report
# ---------------------------------------------------------------------------
#
# Each law in ``src`` runs once over a stack of points.  These are the laws
# as they ran one point at a time, with np.tensordot and 2-D matmul: every
# stacked residual must equal the reference's exactly (or both be NaN).
# Each takes the values the law reads at q, evaluated by the objects' own
# programs, and returns the worst residual of each check at q.

def reference_stack(values: Sequence):
    """One value per point on a leading points axis, built field by field:
    a dataclass (such as ``TransitionData``) one ``np.array`` per field,
    anything else as one array.  ``report.stack`` must give the same bits."""
    first = values[0]
    if is_dataclass(first):
        return type(first)(
            *(reference_stack([getattr(v, f.name) for v in values]) for f in fields(first))
        )
    return np.array(values)


def reference_worst_array_residual(got: np.ndarray, want: np.ndarray) -> float:
    """The worst ``residual`` between two arrays of one shape, element by
    element in ravel order, in Python floats (NaN as soon as one is NaN)."""
    assert np.shape(got) == np.shape(want)
    return worst_residual(map(residual, np.ravel(got).tolist(), np.ravel(want).tolist()))


def _reference_factor(kind: IndexKind, td: TransitionData):
    if kind is IndexKind.TIME_UP:
        return td.dt_tilde_dt
    if kind is IndexKind.TIME_DOWN:
        return td.dt_dt_tilde
    if kind is IndexKind.SPACE_UP:
        return td.jac
    if kind is IndexKind.SPACE_DOWN:
        return td.jac_inv.T
    if kind is IndexKind.MOM_UP:
        return td.jac * td.dt_dt_tilde
    return td.jac_inv.T * td.dt_tilde_dt


def reference_apply_factors(signature, td: TransitionData, values: np.ndarray) -> np.ndarray:
    """Contract one point's component values with one factor per slot."""
    axis = 0
    for kind in signature:
        factor = _reference_factor(kind, td)
        if kind.has_axis:
            values = np.moveaxis(np.tensordot(factor, values, axes=(1, axis)), 0, axis)
            axis += 1
        else:
            values = values * factor
    return values


def reference_dtensor(T_old: DTensor, T_new: DTensor, c: CoordChange, q: Point):
    image = induced_point(c, q)
    td = transition(c, q)
    old, new = T_old.evaluate(q), T_new.evaluate(image)
    pushed = reference_apply_factors(T_old.signature, td, old)
    pulled = reference_apply_factors(T_new.signature, transition(c.inverse(), image), new)
    pairs = ((pushed, new), (pulled, old))
    return (worst_residual(reference_worst_array_residual(a, b) for a, b in pairs),)


def reference_temporal_inhomogeneous(td: TransitionData, q: Point) -> np.ndarray:
    return np.outer(td.dp_tilde_dt, td.jac_inv.T @ np.array(q.p))


def reference_spatial_inhomogeneous(td: TransitionData, q: Point) -> np.ndarray:
    return td.dp_tilde_dx @ td.jac_inv


def reference_semispray(G_old, G_new, inhomogeneous, c: CoordChange, q: Point):
    td = transition(c, q)
    image = induced_point(c, q)
    J = td.jac_inv
    old, new = G_old.evaluate(q), G_new.evaluate(image)
    want = 2.0 * (td.dt_tilde_dt * (J.T @ old @ J)) - inhomogeneous(td, q)
    return (reference_worst_array_residual(2.0 * new, want),)


def reference_connection(N_old, N_new, c: CoordChange, q: Point):
    td = transition(c, q)
    image = induced_point(c, q)
    J = td.jac_inv
    old_t, old_s = N_old.temporal.evaluate(q), N_old.spatial.evaluate(q)
    new_t, new_s = N_new.temporal.evaluate(image), N_new.spatial.evaluate(image)
    want_t = old_t @ J - td.dt_dt_tilde * td.dp_tilde_dt
    want_s = td.dt_tilde_dt * (J.T @ old_s @ J) - td.dp_tilde_dx @ J
    return (
        reference_worst_array_residual(new_t, want_t),
        reference_worst_array_residual(new_s, want_s),
    )


def _reference_frames(N: NonlinearConnection, q: Point):
    n = N.n
    N1, N2 = N.temporal.evaluate(q), N.spatial.evaluate(q)
    F, C = np.eye(2 * n + 1), np.eye(2 * n + 1)
    F[0, n + 1 :] = -N1
    F[1 : n + 1, n + 1 :] = -N2.T
    C[n + 1 :, 0] = N1
    C[n + 1 :, 1 : n + 1] = N2
    return F, C


def _reference_natural_matrices(td: TransitionData, td_inv: TransitionData):
    n = td.jac.shape[0]
    A, B = np.zeros((2 * n + 1, 2 * n + 1)), np.zeros((2 * n + 1, 2 * n + 1))
    A[0, 0] = td.dt_tilde_dt
    A[0, n + 1 :] = td.dp_tilde_dt
    A[1 : n + 1, 1 : n + 1] = td.jac.T
    A[1 : n + 1, n + 1 :] = td.dp_tilde_dx.T
    A[n + 1 :, n + 1 :] = td.jac_inv * td.dt_tilde_dt
    B[0, 0] = td.dt_dt_tilde
    B[1 : n + 1, 1 : n + 1] = td.jac_inv
    B[n + 1 :, 0] = td_inv.dp_tilde_dt
    B[n + 1 :, 1 : n + 1] = td_inv.dp_tilde_dx
    B[n + 1 :, n + 1 :] = td.jac.T * td.dt_dt_tilde
    return A, B


def reference_blocks(N_old, N_new, c: CoordChange, q: Point):
    block = np.repeat([0, 1, 2], [1, c.n, c.n])
    blocks = block[:, None] == block[None, :]
    td = transition(c, q)
    image = induced_point(c, q)
    A, B = _reference_natural_matrices(td, transition(c.inverse(), image))
    Fn, Cn = _reference_frames(N_new, image)
    F_old, C_old = _reference_frames(N_old, q)
    got_frame = np.linalg.solve(Fn.T, (F_old @ A).T).T
    got_co = np.linalg.solve(Cn.T, (C_old @ B).T).T
    return (
        float(np.max(np.abs(got_frame - np.where(blocks, A, 0.0)))),
        float(np.max(np.abs(got_co - np.where(blocks, B, 0.0)))),
    )


def reference_canonical_consistency(N, N_from_G, q: Point):
    parts = ((N.temporal, N_from_G.temporal), (N.spatial, N_from_G.spatial))
    return (
        worst_residual(
            reference_worst_array_residual(a.evaluate(q), b.evaluate(q)) for a, b in parts
        ),
    )


def reference_duality(N: NonlinearConnection, q: Point):
    F, C = _reference_frames(N, q)
    return (float(np.max(np.abs(C @ F.T - np.eye(2 * N.n + 1)))),)


def reference_law(reference, points, *args) -> list[float]:
    """The reference's residuals at each point, in record order, computed
    with array overflow silenced as the laws compute theirs."""
    with np.errstate(over="ignore", invalid="ignore"):
        return [r for q in points for r in reference(*args, q)]


def reference_report_json(report: Report) -> str:
    """The report as ``json.dumps`` writes it: ``report_to_json`` must give
    these bytes."""

    def finite_or_none(value):
        return value if math.isfinite(value) else None

    payload = {
        "summary": {
            "pass": report.passed,
            "max_residual": {
                f: finite_or_none(v) for f, v in report.max_residual_by_family().items()
            },
        },
        "records": [
            {
                "check_id": r.check_id,
                "chart": r.chart,
                "point": list(r.point),
                "residual": finite_or_none(r.residual),
                "pass": r.passed,
            }
            for r in report.records
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# Finite-difference oracle
# ---------------------------------------------------------------------------

FD_REL_STEP = 1e-6


def shift(q: Point, v: Var, delta: float) -> Point:
    if v.kind == "t":
        return Point(q.t + delta, q.x, q.p)
    if v.kind == "x":
        x = list(q.x)
        x[v.index] += delta
        return Point(q.t, tuple(x), q.p)
    p = list(q.p)
    p[v.index] += delta
    return Point(q.t, q.x, tuple(p))


def central_diff(e: Expr, v: Var, q: Point) -> float:
    h = FD_REL_STEP * max(1.0, abs(q.coord(v)))
    return (reference_eval(e, shift(q, v, h)) - reference_eval(e, shift(q, v, -h))) / (2.0 * h)


# ---------------------------------------------------------------------------
# Seeded random expression generator (generate-and-filter)
# ---------------------------------------------------------------------------

EXPONENTS = (
    Fraction(-2),
    Fraction(-1),
    Fraction(2),
    Fraction(3),
    Fraction(1, 2),
    Fraction(1, 3),
)

MAGNITUDE_CAP = 1e3  # on every subexpression of e, e', e'' at the point


def children(e: Expr):
    if isinstance(e, (Add, Sub, Mul, Div)):
        return (e.left, e.right)
    if isinstance(e, Pow):
        return (e.base,)
    if isinstance(e, (Neg, Exp, Log, Sin, Cos)):
        return (e.arg,)
    return ()


def distinct_nodes(roots) -> int:
    """Number of distinct node objects in the trees of roots, counted
    without recursion; structurally equal objects count once each."""
    seen, stack = set(), list(roots)
    while stack:
        e = stack.pop()
        if id(e) not in seen:
            seen.add(id(e))
            stack.extend(children(e))
    return len(seen)


def structures(roots) -> int:
    """Number of distinct structures in the trees of roots, each numbered
    by a tuple of its class and its operands' numbers, a constant by its
    bits; structurally equal objects count once together."""
    numbers: dict[int, int] = {}  # id(node) -> its structure's number
    table: dict[tuple, int] = {}
    stack = list(roots)
    while stack:
        node = stack[-1]
        if id(node) in numbers:
            stack.pop()
            continue
        operands = children(node)
        pending = [e for e in operands if id(e) not in numbers]
        if pending:
            stack += pending
            continue
        stack.pop()
        cls = type(node)
        if cls is Const:
            key = (cls, struct.pack("<d", node.value))
        elif cls is Coord:
            key = (cls, node.var)
        else:
            key = (cls, getattr(node, "exponent", None), *(numbers[id(e)] for e in operands))
        numbers[id(node)] = table.setdefault(key, len(table))
    return len(table)


def node_parts(e: Expr) -> tuple:
    """Every field of e and its free-variable mask: an operand by
    identity, any other part by its repr, so that 0.0 and -0.0 differ."""
    parts = [getattr(e, f.name) for f in fields(e)]
    return (e._mask, *(("node", id(p)) if isinstance(p, Expr) else repr(p) for p in parts))


def node_snapshot(root) -> dict[int, tuple[Expr, tuple]]:
    """Every node reachable from root, by id, with its ``node_parts``.
    The walk goes through containers, object arrays, the attributes of the
    engine's own objects and node operands."""
    snapshot, seen, stack = {}, set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, Expr):
            snapshot[id(obj)] = (obj, node_parts(obj))
            stack.extend(children(obj))
        elif isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif isinstance(obj, np.ndarray):
            if obj.dtype == object:
                stack.extend(obj.flat)
        elif type(obj).__module__.startswith("jetham."):
            if hasattr(obj, "__dict__"):
                stack.extend(vars(obj).values())
            for cls in type(obj).__mro__:
                stack.extend(getattr(obj, name) for name in getattr(cls, "__slots__", ())
                             if hasattr(obj, name))
    return snapshot


def same_structure(a: Expr, b: Expr) -> bool:
    """Structural equality, pair by pair without recursion; a pair of
    objects met before is not compared again.  Nodes compare by identity,
    so this is the reference that tests compare trees built apart against;
    0.0 and -0.0 are equal here."""
    seen = set()
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        cls = type(a)
        if a is b:
            continue
        if type(b) is not cls:
            return False
        if cls is Const:
            # as in a tuple comparison: one float object equals itself
            if a.value is not b.value and a.value != b.value:
                return False
        elif cls is Coord:
            if a.var != b.var:
                return False
        elif cls is Pow and a.exponent != b.exponent:
            return False
        elif (id(a), id(b)) not in seen:
            seen.add((id(a), id(b)))
            stack.extend(zip(children(a), children(b)))
    return True


def max_abs_subvalue(e: Expr, q: Point) -> float:
    worst = abs(reference_eval(e, q))
    for child in children(e):
        worst = max(worst, max_abs_subvalue(child, q))
    return worst


def random_expr(rng: random.Random, n: int, depth: int = 4, at_root: bool = True) -> Expr:
    """Leaves uniform over variables and constants in [-2, 2]; operators
    uniform with log and division excluded at the root."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Const(round(rng.uniform(-2.0, 2.0), 4))
        kind = rng.choice(["t", "x", "p"])
        idx = rng.randrange(n)
        return Coord(Var(kind, idx if kind != "t" else 0))
    ops = ["add", "sub", "mul", "div", "pow", "exp", "log", "sin", "cos", "neg"]
    if at_root:
        ops = [op for op in ops if op not in ("log", "div")]
    op = rng.choice(ops)
    a = random_expr(rng, n, depth - 1, False)
    if op == "add":
        return a + random_expr(rng, n, depth - 1, False)
    if op == "sub":
        return a - random_expr(rng, n, depth - 1, False)
    if op == "mul":
        return a * random_expr(rng, n, depth - 1, False)
    if op == "div":
        return a / random_expr(rng, n, depth - 1, False)
    if op == "pow":
        return a ** rng.choice(EXPONENTS)
    if op == "exp":
        return Exp(a)
    if op == "log":
        return Log(a)
    if op == "sin":
        return Sin(a)
    if op == "cos":
        return Cos(a)
    return -a


def random_point(rng: random.Random, n: int) -> Point:
    """t, x in [0.5, 2], p in [-3, 3]: the singularity-avoiding box."""
    return Point(
        rng.uniform(0.5, 2.0),
        tuple(rng.uniform(0.5, 2.0) for _ in range(n)),
        tuple(rng.uniform(-3.0, 3.0) for _ in range(n)),
    )


def derivative_pairs(seed: int, count: int):
    """Yield `count` well-conditioned (expr, var, point) triples.

    Candidates are rejected when any subexpression of the expression or of
    its first two derivatives exceeds MAGNITUDE_CAP at the point (or at the
    finite-difference stencil points), which keeps the central-difference
    comparison meaningful.
    """
    rng = random.Random(seed)
    produced = 0
    while produced < count:
        n = rng.choice([1, 2, 3])
        e = random_expr(rng, n)
        q = random_point(rng, n)
        variables = sorted(e.free_vars(), key=lambda v: (v.kind, v.index))
        if not variables:
            continue
        v = rng.choice(variables)
        h = FD_REL_STEP * max(1.0, abs(q.coord(v)))
        try:
            de = diff(e, v)
            d2e = diff(de, v)
            magnitude = max(
                max_abs_subvalue(e, q),
                max_abs_subvalue(e, shift(q, v, h)),
                max_abs_subvalue(e, shift(q, v, -h)),
                max_abs_subvalue(de, q),
                max_abs_subvalue(d2e, q),
            )
            derivative = reference_eval(de, q)
        except DomainError:
            continue
        if magnitude > MAGNITUDE_CAP or not math.isfinite(derivative):
            continue
        produced += 1
        yield e, v, q


def sampled_points(n: int, count: int, seed: int) -> list[Point]:
    rng = random.Random(seed)
    return [random_point(rng, n) for _ in range(count)]


class _Tee(io.StringIO):
    """A captured stream that also copies each write to a shared one."""

    def __init__(self, both: io.StringIO):
        super().__init__()
        self.both = both

    def write(self, text: str) -> int:
        self.both.write(text)
        return super().write(text)


@dataclass
class CliResult:
    exit_code: int
    stdout: str
    stderr: str
    output: str  # stdout and stderr, interleaved as written
    exception: BaseException | None


class InProcessRunner:
    """Runs ``main(argv) -> int`` in this process as its console script
    does, ``sys.exit(main(argv))``, and captures what it writes.  An
    exception that escapes main is recorded with exit code 1, as the
    interpreter ends on its traceback; a non-zero exit keeps its SystemExit."""

    def invoke(self, main, args) -> CliResult:
        both = io.StringIO()
        out, err = _Tee(both), _Tee(both)
        exception = None
        try:
            with redirect_stdout(out), redirect_stderr(err):
                sys.exit(main(list(args)))
        except SystemExit as ex:
            code, exception = ex.code, ex if ex.code else None
        except Exception as ex:
            code, exception = 1, ex
        return CliResult(code, out.getvalue(), err.getvalue(), both.getvalue(), exception)


def bench_module(name: str):
    """A module of bench/, read from its file and not edited: the generated
    problems of workloads.py are richer than the bundled ones (2-4 charts,
    40 points, 300-term Hamiltonians, a negative control), and
    known_answer.py judges each report against the answer they were built
    with."""
    path = Path(__file__).resolve().parent.parent / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module
