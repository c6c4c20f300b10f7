"""Closed-form scalar expressions over (t, x^1..x^n, p_1..p_n).

Expressions are immutable trees supporting exact symbolic differentiation,
IEEE-double evaluation at a point, and simultaneous substitution.  The node
set (constants, coordinates, +, -, *, /, rational powers, exp, log, sin,
cos, negation) is closed under differentiation, so every derivative an
operation needs is again a tree of the same kind and carries no
differentiation error.

Objects built from one another share subtrees by object identity, so the
trees are really DAGs.  A parse gives each distinct structure in its
string one object, so a term repeated in the text (``p1^2``, ``t^2``) is
one node that every later walk meets once.  Each node knows its free
variables from the moment it is built and keeps every derivative taken of
it, so differentiation skips subtrees free of the variable and
differentiates each node object once per variable over its lifetime.
Substitution rebuilds each node object once per call, and a compiled
``Program`` evaluates each distinct structure once per point; it is the
only evaluator.  None of these, nor printing, recurses, so depth is not
limited by the interpreter's stack; the parser caps nesting at
``MAX_NESTING`` levels instead.

Construction goes through smart constructors that fold the 0/1 identities
(x+0, x*1, x*0, x^1, ...).  No further simplification is attempted:
correctness is defined by evaluation, not by canonical form.
"""

from __future__ import annotations

import math
import operator
import re
import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .errors import (
    DimensionError,
    DomainError,
    ExprSyntaxError,
    JethamError,
    MissingSubstitutionError,
)

__all__ = [
    "Var",
    "Point",
    "Expr",
    "Const",
    "Coord",
    "const",
    "tvar",
    "xvar",
    "pvar",
    "esum",
    "parse",
    "diff",
    "evaluate",
    "compose",
    "Program",
    "Components",
    "evaluate_together",
    "compile_together",
]


# ---------------------------------------------------------------------------
# Variables and points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Var:
    """A coordinate variable: the time t, a position x^i, or a momentum p_i."""

    kind: str  # "t", "x", or "p"
    index: int = 0

    def __post_init__(self):
        if self.kind not in ("t", "x", "p"):
            raise ValueError(f"unknown variable kind {self.kind!r}")
        if self.index < 0:
            raise ValueError("variable index must be non-negative")

    @classmethod
    def time(cls) -> "Var":
        return cls("t")

    @classmethod
    def space(cls, i: int) -> "Var":
        return cls("x", i)

    @classmethod
    def momentum(cls, i: int) -> "Var":
        return cls("p", i)

    @property
    def name(self) -> str:
        # 1-based in the surface syntax, 0-based internally
        return "t" if self.kind == "t" else f"{self.kind}{self.index + 1}"


@dataclass(frozen=True)
class Point:
    """A point (t, x, p) on the time-dependent phase space of momenta."""

    t: float
    x: tuple[float, ...]
    p: tuple[float, ...]

    def __post_init__(self):
        if len(self.x) != len(self.p):
            raise DimensionError(
                f"x has length {len(self.x)} but p has length {len(self.p)}"
            )

    @classmethod
    def make(cls, t: float, x: Iterable[float], p: Iterable[float]) -> "Point":
        return cls(float(t), tuple(float(v) for v in x), tuple(float(v) for v in p))

    @classmethod
    def from_flat(cls, values: Iterable[float], n: int) -> "Point":
        vals = [float(v) for v in values]
        if len(vals) != 2 * n + 1:
            raise DimensionError(f"expected {2 * n + 1} coordinates, got {len(vals)}")
        return cls(vals[0], tuple(vals[1 : n + 1]), tuple(vals[n + 1 :]))

    @property
    def n(self) -> int:
        return len(self.x)

    @cached_property
    def key(self) -> bytes:
        """The exact float bits of the point, the key of every memo and
        table by point: 0.0 and -0.0 are two points."""
        return struct.pack(f"{2 * self.n + 1}d", self.t, *self.x, *self.p)

    def flat(self) -> tuple[float, ...]:
        """(t, x..., p...): one tuple per point, the same on every call."""
        return self._flat

    @cached_property
    def _flat(self) -> tuple[float, ...]:
        return (self.t, *self.x, *self.p)

    def coord(self, v: Var) -> float:
        if v.kind == "t":
            return self.t
        axis = self.x if v.kind == "x" else self.p
        if v.index >= len(axis):
            raise DimensionError(f"variable {v.name} out of range for n={self.n}")
        return axis[v.index]


# ---------------------------------------------------------------------------
# Expression nodes
# ---------------------------------------------------------------------------

Number = Union[int, float]


class Expr:
    """Base class; all nodes are immutable and compare and hash by
    identity: two trees built apart are two objects, whatever their
    structure.  A structure is decided only by a parse's table of shared
    nodes and by ``Program``'s value numbers.  ``repr`` is the printed
    text behind the node's class name, so it does not recurse.

    Every node carries a free-variable mask, set when it is built, and the
    derivatives ``diff`` has taken of it, kept for as long as it lives as
    a flat tuple (bit, derivative, bit, derivative, ...), a quarter of the
    memory of a dict.
    """

    __slots__ = ("_mask", "_derivs")

    # -- construction sugar -------------------------------------------------
    def __add__(self, other):
        return _add(self, _coerce(other))

    def __radd__(self, other):
        return _add(_coerce(other), self)

    def __sub__(self, other):
        return _sub(self, _coerce(other))

    def __rsub__(self, other):
        return _sub(_coerce(other), self)

    def __mul__(self, other):
        return _mul(self, _coerce(other))

    def __rmul__(self, other):
        return _mul(_coerce(other), self)

    def __truediv__(self, other):
        return _div(self, _coerce(other))

    def __rtruediv__(self, other):
        return _div(_coerce(other), self)

    def __pow__(self, exponent):
        return _pow(self, Fraction(exponent))

    def __neg__(self):
        return _neg(self)

    # -- core operations ----------------------------------------------------
    def diff(self, v: Var) -> "Expr":
        return diff(self, v)

    def __str__(self) -> str:
        return _to_text(self)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {_to_text(self)}>"

    def substitute(self, mapping: Mapping[Var, "Expr"]) -> "Expr":
        """Simultaneous substitution; variables absent from the map are kept.
        Memoized by node identity, so shared subtrees stay shared."""
        return _rebuild(self, lambda node, done: _substituted(node, done, mapping))

    def free_vars(self) -> frozenset[Var]:
        mask = self._mask
        if mask < 0:
            mask = _walked_mask(self)
        return frozenset(_var_of_bit(k) for k in range(1, mask.bit_length()) if mask >> k & 1)

    # -- per-node rules -------------------------------------------------------
    def _derivative(self, d, v: Var) -> "Expr":
        """The derivative by v, given d(operand), the derivative of each
        operand."""
        raise NotImplementedError


# Free-variable masks.  The variable t has bit 1, x^i bit 2i+2 and p_i bit
# 2i+3.  Bit 0 is not a variable: it says that the node's derivative by a
# variable outside its mask is -0.0 rather than 0.0, the zero the node's
# rule builds from its operands' zeros.  A mask of every bit (a negative
# int) marks a node whose rule builds no zero at all; ``diff`` never skips
# it, nor any node above it.
_SIGN = 1
_EVERY = -1


def _bit(v: Var) -> int:
    if v.kind == "t":
        return 2
    return 1 << (2 * v.index + (2 if v.kind == "x" else 3))


def _var_of_bit(k: int) -> Var:
    if k == 1:
        return Var.time()
    i, momentum = divmod(k - 2, 2)
    return Var("p" if momentum else "x", i)


def _walked_mask(e: "Expr") -> int:
    """The variables of e, read below the nodes marked with every bit."""
    mask = 0
    seen = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if node._mask >= 0:
            mask |= node._mask
        elif id(node) not in seen:
            seen.add(id(node))
            stack.extend(_operands(node))
    return mask & ~_SIGN


_set = object.__setattr__

# Each node class writes its own __init__, which sets its fields, its mask
# from its operands' masks, and no kept derivative yet: the generated one
# followed by a __post_init__ cost about a third more per node.
_node = dataclass(frozen=True, slots=True, eq=False, repr=False, init=False)


@_node
class Const(Expr):
    value: float

    def __init__(self, value: float):
        _set(self, "value", value)
        _set(self, "_mask", 0)
        _set(self, "_derivs", ())

    def _derivative(self, d, v):
        return ZERO


@_node
class Coord(Expr):
    var: Var

    def __init__(self, var: Var):
        _set(self, "var", var)
        _set(self, "_mask", _bit(var))
        _set(self, "_derivs", ())

    def _derivative(self, d, v):
        return ONE if self.var == v else ZERO


@_node
class Add(Expr):
    left: Expr
    right: Expr

    def __init__(self, left: Expr, right: Expr):
        _set(self, "left", left)
        _set(self, "right", right)
        # the sum of two zeros is the right one (_add drops a zero left)
        _set(self, "_mask", (left._mask | right._mask) & ~_SIGN | right._mask & _SIGN)
        _set(self, "_derivs", ())

    def _derivative(self, d, v):
        return _add(d(self.left), d(self.right))


@_node
class Sub(Expr):
    left: Expr
    right: Expr

    def __init__(self, left: Expr, right: Expr):
        _set(self, "left", left)
        _set(self, "right", right)
        # the difference of two zeros is the left one (_sub drops a zero right)
        _set(self, "_mask", (left._mask | right._mask) & ~_SIGN | left._mask & _SIGN)
        _set(self, "_derivs", ())

    def _derivative(self, d, v):
        return _sub(d(self.left), d(self.right))


@_node
class Mul(Expr):
    left: Expr
    right: Expr

    def __init__(self, left: Expr, right: Expr):
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "_mask", (left._mask | right._mask) & ~_SIGN)
        _set(self, "_derivs", ())

    def _derivative(self, d, v):
        return _add(
            _mul(d(self.left), self.right),
            _mul(self.left, d(self.right)),
        )


@_node
class Div(Expr):
    left: Expr
    right: Expr

    def __init__(self, left: Expr, right: Expr):
        _set(self, "left", left)
        _set(self, "right", right)
        # over a constant whose square is 0.0 the rule builds 0 / 0.0,
        # which _div keeps as a Div
        if type(right) is Const and abs(right.value) < 1.0 and right.value ** 2 == 0.0:
            _set(self, "_mask", _EVERY)
        else:
            _set(self, "_mask", (left._mask | right._mask) & ~_SIGN)
        _set(self, "_derivs", ())

    def _derivative(self, d, v):
        num = _sub(
            _mul(d(self.left), self.right),
            _mul(self.left, d(self.right)),
        )
        return _div(num, _pow(self.right, Fraction(2)))


@_node
class Pow(Expr):
    """base^r with an exact rational exponent.

    Integer exponents accept any base (except 0 to a negative power);
    fractional exponents require a strictly positive base at evaluation.
    """

    base: Expr
    exponent: Fraction

    def __init__(self, base: Expr, exponent: Fraction):
        _set(self, "base", base)
        _set(self, "exponent", exponent)
        _set(self, "_mask", base._mask & ~_SIGN)
        _set(self, "_derivs", ())

    def _derivative(self, d, v):
        r = self.exponent
        return _mul(
            _mul(Const(float(r)), _pow(self.base, r - 1)),
            d(self.base),
        )


@_node
class Neg(Expr):
    arg: Expr

    def __init__(self, arg: Expr):
        _set(self, "arg", arg)
        _set(self, "_mask", arg._mask ^ _SIGN)
        _set(self, "_derivs", ())

    def _derivative(self, d, v):
        return _neg(d(self.arg))


@_node
class Exp(Expr):
    arg: Expr

    def __init__(self, arg: Expr):
        _set(self, "arg", arg)
        _set(self, "_mask", arg._mask & ~_SIGN)
        _set(self, "_derivs", ())

    def _derivative(self, d, v):
        # a new exp node: a derivative kept on this one must not refer back
        # to it, or the two would be freed only by the cycle collector
        return _mul(Exp(self.arg), d(self.arg))


@_node
class Log(Expr):
    arg: Expr

    def __init__(self, arg: Expr):
        _set(self, "arg", arg)
        # of the constant 0 the rule builds 0 / 0, which _div keeps
        if type(arg) is Const and arg.value == 0.0:
            _set(self, "_mask", _EVERY)
        else:
            _set(self, "_mask", arg._mask & ~_SIGN)
        _set(self, "_derivs", ())

    def _derivative(self, d, v):
        return _div(d(self.arg), self.arg)


@_node
class Sin(Expr):
    arg: Expr

    def __init__(self, arg: Expr):
        _set(self, "arg", arg)
        _set(self, "_mask", arg._mask & ~_SIGN)
        _set(self, "_derivs", ())

    def _derivative(self, d, v):
        return _mul(Cos(self.arg), d(self.arg))


@_node
class Cos(Expr):
    arg: Expr

    def __init__(self, arg: Expr):
        _set(self, "arg", arg)
        # the rule negates a zero product: -0.0
        _set(self, "_mask", arg._mask | _SIGN)
        _set(self, "_derivs", ())

    def _derivative(self, d, v):
        return _neg(_mul(Sin(self.arg), d(self.arg)))


ZERO = Const(0.0)
ONE = Const(1.0)
_NEG_ZERO = Const(-0.0)

_BINARY = (Add, Sub, Mul, Div)
_LEAVES = (Const, Coord)


def _operands(e: Expr) -> tuple[Expr, ...]:
    cls = type(e)
    if cls in _BINARY:
        return (e.left, e.right)
    if cls is Pow:
        return (e.base,)
    if cls in _LEAVES:
        return ()
    return (e.arg,)


def _trig(fn, value: float, node: Expr) -> float:
    try:
        return fn(value)
    except ValueError:  # math.sin and math.cos raise on +-inf
        raise DomainError(f"{fn.__name__} of an infinite value", node) from None


_FUNCS = {"exp": Exp, "log": Log, "sin": Sin, "cos": Cos}


# ---------------------------------------------------------------------------
# Smart constructors: fold the 0/1 identities and literal arithmetic
# ---------------------------------------------------------------------------

def _coerce(value) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float)):
        return const(value)
    raise TypeError(f"cannot use {type(value).__name__} as an expression")


def _is_const(e: Expr, value: float | None = None) -> bool:
    return isinstance(e, Const) and (value is None or e.value == value)


_ARITHMETIC = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: operator.truediv}


def _fold(cls, a: Const, b: Const) -> Expr:
    # a fold that is not finite stays an operation, which evaluation (or the
    # parser) names when it rejects it; a Const(inf) would name nothing
    value = _ARITHMETIC[cls](a.value, b.value)
    return Const(value) if math.isfinite(value) else cls(a, b)


def _add(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return _fold(Add, a, b)
    return Add(a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return _neg(b)
    if isinstance(a, Const) and isinstance(b, Const):
        return _fold(Sub, a, b)
    return Sub(a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return _fold(Mul, a, b)
    return Mul(a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 1.0):
        return a
    if _is_const(a, 0.0) and not _is_const(b, 0.0):
        return ZERO
    if isinstance(a, Const) and isinstance(b, Const) and b.value != 0.0:
        return _fold(Div, a, b)
    return Div(a, b)


def _pow(base: Expr, exponent: Fraction) -> Expr:
    if exponent == 1:
        return base
    if exponent == 0:
        return ONE
    if (
        isinstance(base, Const)
        and exponent.denominator == 1
        and (base.value != 0.0 or exponent > 0)
    ):
        try:
            return Const(base.value ** int(exponent))
        except OverflowError:
            pass
    return Pow(base, exponent)


def _neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def const(value: Number) -> Expr:
    """A constant, which must be a finite double: the printed text of an
    infinity or a NaN does not parse back."""
    try:
        number = float(value)
    except OverflowError:  # an int too large for a double
        bits = value.bit_length()
        raise JethamError(f"integer constant of {bits} bits is not a finite double") from None
    if not math.isfinite(number):
        raise JethamError(f"constant {value!r} is not a finite double")
    return Const(number)


def tvar() -> Expr:
    return Coord(Var.time())


def xvar(i: int) -> Expr:
    return Coord(Var.space(i))


def pvar(i: int) -> Expr:
    return Coord(Var.momentum(i))


def esum(terms: Iterable[Expr]) -> Expr:
    """Fold a sum, dropping structural zeros."""
    total: Expr = ZERO
    for term in terms:
        total = _add(total, term)
    return total


# ---------------------------------------------------------------------------
# Module-level operations
# ---------------------------------------------------------------------------

def diff(e: Expr, v: Var) -> Expr:
    """Exact algebraic derivative of e with respect to the variable v.

    The walk is iterative, and each node keeps its derivative by v for as
    long as it lives: a subtree shared by several parents, or met again
    in a later call, is differentiated once, and its derivative is shared
    in turn.  A subtree free of v is not walked; its derivative is the
    zero its rules would build, sign included.  Each node's rule and the
    smart constructors decide the result, so it equals a node-by-node
    recursive derivative and differs only in sharing.
    """
    bit = _bit(v)

    def d(node: Expr) -> Expr | None:
        """node's derivative by v if it is known without a walk."""
        mask = node._mask
        if not mask & bit:
            return _NEG_ZERO if mask & _SIGN else ZERO
        if type(node) is Coord:
            return ONE
        kept = node._derivs  # (bit, derivative, bit, derivative, ...)
        for i in range(0, len(kept), 2):
            if kept[i] == bit:
                return kept[i + 1]
        return None

    stack = [(e, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            _set(node, "_derivs", node._derivs + (bit, node._derivative(d, v)))
        elif d(node) is None:
            stack.append((node, True))
            stack.extend((k, False) for k in _operands(node) if d(k) is None)
    return d(e)


def _rebuild(e: Expr, rule) -> Expr:
    """The image of e under a per-node rule, built bottom-up without
    recursion.  rule(node, done) returns the image of node given
    done[id(operand)] for each of its operands; every node object is
    visited once, however many parents share it."""
    done: dict[int, Expr] = {}
    stack = [(e, False)]
    while stack:
        node, expanded = stack.pop()
        key = id(node)
        if expanded:
            done[key] = rule(node, done)
        elif key not in done:
            if type(node) in _LEAVES:
                done[key] = rule(node, done)
                continue
            stack.append((node, True))
            for k in _operands(node):
                if id(k) in done:
                    continue
                if type(k) in _LEAVES:  # settled here, never stacked
                    done[id(k)] = rule(k, done)
                else:
                    stack.append((k, False))
    return done[id(e)]


# the smart constructor that rebuilds each node class from new operands
_REBUILDERS = {Add: _add, Sub: _sub, Mul: _mul, Div: _div, Neg: _neg,
               Exp: Exp, Log: Log, Sin: Sin, Cos: Cos}


def _substituted(node: Expr, done: dict[int, Expr], mapping: Mapping[Var, Expr]) -> Expr:
    """The image of node under a substitution, given done[id(operand)]."""
    cls = type(node)
    if cls is Coord:
        return mapping.get(node.var, node)
    if cls is Const:
        return node
    if cls is Pow:
        return _pow(done[id(node.base)], node.exponent)
    if cls in _BINARY:
        return _REBUILDERS[cls](done[id(node.left)], done[id(node.right)])
    return _REBUILDERS[cls](done[id(node.arg)])


def evaluate(e: Expr, q: Point) -> float:
    """IEEE double value of e at q; raises DomainError outside the domain
    and on a non-finite value anywhere in e."""
    return Program((e,)).run(q)[0]


def check_vars(e: Expr, allowed: set[Var], what: str) -> None:
    """Raise DimensionError when e depends on a variable outside allowed."""
    extra = e.free_vars() - allowed
    if extra:
        names = ", ".join(sorted(v.name for v in extra))
        raise DimensionError(f"{what} may not depend on {names}")


def compose(e: Expr, subst: Mapping[Var, Expr]) -> Expr:
    """Simultaneous substitution; every variable of e must be covered."""
    missing = e.free_vars() - set(subst)
    if missing:
        names = ", ".join(sorted(v.name for v in missing))
        raise MissingSubstitutionError(f"no substitution for variable(s) {names}")
    return e.substitute(subst)


# ---------------------------------------------------------------------------
# Compiled evaluation: each distinct node object once per point
# ---------------------------------------------------------------------------

# opcodes, in the order Program.run tests them (most frequent first)
(
    _MUL, _ADD, _POW, _SUB, _NEG, _CHECK, _DIV, _NPOW, _FPOW,
    _EXP, _LOG, _SIN, _COS, _LOAD,
) = range(14)

_OPCODES = {Add: _ADD, Sub: _SUB, Mul: _MUL, Div: _DIV, Neg: _NEG,
            Exp: _EXP, Log: _LOG, Sin: _SIN, Cos: _COS}


class Program:
    """A list of root expressions compiled to one straight-line program.

    Slots are value-numbered: one per distinct structure, so a subtree
    shared by many parents or roots, or built twice as equal trees, runs
    once per point.  A node's number is its opcode, operand slots and
    exponent, found bottom-up with no deep comparison; a constant's is
    its value and sign, so 0.0 and -0.0 keep two slots.  Slots fill in
    depth-first order, operands left to right, but a ``Div`` tests its
    denominator for zero (once per denominator slot) before it walks its
    numerator.  That order decides which DomainError comes first, and a
    duplicate never runs before its original.  Each node has one IEEE
    double operation and its domain checks.

    ``run`` also rejects non-finite values: a NaN or an infinity in any
    slot raises DomainError naming the first node that produced one.
    Compilation and ``run`` both work without recursion.
    """

    __slots__ = ("_code", "_template", "_nodes", "_roots")

    def __init__(self, roots: Iterable[Expr]):
        roots = tuple(roots)
        slots: dict[int, int] = {}  # id(node) -> slot
        numbers: dict[tuple, int] = {}  # value number -> slot
        checked: set[int] = set()  # denominator slots tested for zero
        template: list[float] = []  # constants in place, 0.0 elsewhere
        nodes: list[Expr] = []  # slot -> first node computing it
        # instruction k is (ops[k], dsts[k], lhs[k], rhs[k]); four flat
        # lists hold a large program in less memory than one tuple each
        ops: list[int] = []
        dsts: list = []
        lhs: list = []
        rhs: list = []

        def emit(op, dst, a, b):
            ops.append(op)
            dsts.append(dst)
            lhs.append(a)
            rhs.append(b)

        for root in roots:
            # (node, step): 0 visits the node, 1 numbers it once its
            # operands have slots, 2 tests a Div's denominator before its
            # numerator is visited
            stack = [(root, 0)]
            while stack:
                node, step = stack.pop()
                cls = type(node)
                if step == 2:
                    denominator = slots[id(node.right)]
                    if denominator not in checked:
                        checked.add(denominator)
                        # a check carries its Div node where others carry a slot
                        emit(_CHECK, node, denominator, 0)
                    continue
                if step == 0 and id(node) in slots:
                    continue
                if step == 0 and cls not in _LEAVES:
                    if cls is Div:
                        stack += ((node, 1), (node.left, 0), (node, 2), (node.right, 0))
                    elif cls in _BINARY:
                        stack += ((node, 1), (node.right, 0), (node.left, 0))
                    else:
                        stack += ((node, 1), (node.base if cls is Pow else node.arg, 0))
                    continue
                # a leaf, or an operation whose operands have slots
                if cls is Const:
                    key = (node.value, math.copysign(1.0, node.value))
                elif cls is Coord:
                    key = (_LOAD, node.var, 0)
                elif cls is Pow:
                    key = _power(node.exponent, slots[id(node.base)])
                elif cls in _BINARY:
                    key = (_OPCODES[cls], slots[id(node.left)], slots[id(node.right)])
                else:
                    key = (_OPCODES[cls], slots[id(node.arg)], 0)
                slot = numbers.get(key)
                if slot is None:
                    numbers[key] = slot = len(template)
                    template.append(node.value if cls is Const else 0.0)
                    nodes.append(node)
                    if cls is not Const:
                        emit(key[0], slot, key[1], key[2])
                slots[id(node)] = slot
        self._code = (ops, dsts, lhs, rhs)
        self._template = template
        self._nodes = nodes
        self._roots = [slots[id(r)] for r in roots]

    def __len__(self) -> int:
        """Number of value slots: one per distinct structure."""
        return len(self._template)

    def run(self, q: Point) -> list[float]:
        """Values of the roots at q, in root order."""
        v = self._template.copy()
        for op, dst, a, b in zip(*self._code):
            if op == _MUL:
                v[dst] = v[a] * v[b]
            elif op == _ADD:
                v[dst] = v[a] + v[b]
            elif op == _POW:  # non-negative integer exponent b
                try:
                    v[dst] = v[a] ** b
                except OverflowError:
                    raise DomainError("overflow in power", self._nodes[dst]) from None
            elif op == _SUB:
                v[dst] = v[a] - v[b]
            elif op == _NEG:
                v[dst] = -v[a]
            elif op == _CHECK:
                if v[a] == 0.0:
                    raise DomainError("division by zero", dst)
            elif op == _DIV:
                v[dst] = v[a] / v[b]
            elif op == _NPOW:  # negative integer exponent b
                if v[a] == 0.0:
                    raise DomainError("zero raised to a negative power", self._nodes[dst])
                try:
                    v[dst] = v[a] ** b
                except OverflowError:
                    raise DomainError("overflow in power", self._nodes[dst]) from None
            elif op == _FPOW:  # fractional exponent, as a float b
                if v[a] <= 0.0:
                    raise DomainError(
                        "fractional power of a non-positive base", self._nodes[dst]
                    )
                try:
                    v[dst] = v[a] ** b
                except OverflowError:
                    raise DomainError("overflow in power", self._nodes[dst]) from None
            elif op == _EXP:
                try:
                    v[dst] = math.exp(v[a])
                except OverflowError:
                    raise DomainError("overflow in exp", self._nodes[dst]) from None
            elif op == _LOG:
                if v[a] <= 0.0:
                    raise DomainError("log of a non-positive value", self._nodes[dst])
                v[dst] = math.log(v[a])
            elif op == _SIN:
                v[dst] = _trig(math.sin, v[a], self._nodes[dst])
            elif op == _COS:
                v[dst] = _trig(math.cos, v[a], self._nodes[dst])
            else:  # _LOAD of coordinate a
                v[dst] = q.coord(a)
        if not math.isfinite(sum(v)):
            self._raise_non_finite(v)
        return [v[i] for i in self._roots]

    def _raise_non_finite(self, v: list[float]):
        # a finite sum can overflow; only a non-finite slot is an error
        for slot, value in enumerate(v):
            if not math.isfinite(value):
                raise DomainError(f"non-finite value {value!r}", self._nodes[slot])


def _power(r: Fraction, base: int) -> tuple[int, int, int | float]:
    if r.denominator != 1:
        return (_FPOW, base, float(r))
    e = int(r)
    return (_POW if e >= 0 else _NPOW, base, e)


@dataclass(frozen=True, eq=False)
class Components:
    """An array of expression components over the ambient dimension n.

    Every object on the phase space -- a d-tensor, either family of a
    semispray, either part of a nonlinear connection -- is such an array;
    the rule by which it changes under a chart change belongs to the law
    that checks it.  comps is coerced to an object array of Expr, of
    whatever shape the object needs; indexing and iteration go to it.

    Its components are a span of one program's roots, whose values at a
    point set are one table with the points on its first axis:
    ``compile_together`` gives several objects one program and one table
    per point set, and an object evaluated before any such call compiles
    its own.
    """

    n: int
    comps: np.ndarray  # object array of Expr

    def __post_init__(self):
        object.__setattr__(self, "comps", np.asarray(self.comps, dtype=object))

    def __getitem__(self, index):
        return self.comps[index]

    def __iter__(self):
        return iter(self.comps)

    @cached_property
    def _span(self) -> tuple[Program, dict[bytes, np.ndarray], int, int]:
        return Program(self.comps.flat), {}, 0, self.comps.size

    def evaluate(self, points: Point | Sequence[Point]) -> np.ndarray:
        """Component values at each point, stacked on a leading points axis
        in the shape of comps, as a new array; one Point gives its values
        alone.  See ``evaluate_together``."""
        if isinstance(points, Point):
            return evaluate_together([(self, (points,))])[0][0]
        return evaluate_together([(self, points)])[0]


def evaluate_together(reads: Iterable[tuple[Components, Sequence[Point]]]) -> list[np.ndarray]:
    """The values of each (object, points) read, stacked on a leading points
    axis in the shape of its comps, as new arrays.

    Each read is a slice of its program's table at that point set, built
    once: one run per distinct point (0.0 and -0.0 are two points), kept
    while the program lives.  The programs still without a table run in
    step, point by point and, at each point, in read order, so the error
    raised is the one a point-by-point read of the objects meets first.  A
    table whose runs raised is not kept.
    """
    reads = [(obj, tuple(points)) for obj, points in reads]
    spans, builds = [], {}
    for obj, points in reads:
        program, tables, start, stop = obj._span
        key = b"".join(q.key for q in points)
        spans.append((tables, key, start, stop))
        if key not in tables:
            # a table to build: its program's root values by point key
            builds.setdefault((id(tables), key), (program, points, tables, key, {}))
    builds = list(builds.values())
    for i in range(max((len(points) for _, points, *_ in builds), default=0)):
        for program, points, _, _, values in builds:
            if i < len(points) and points[i].key not in values:
                values[points[i].key] = program.run(points[i])
    for program, points, tables, key, values in builds:
        table = np.array([values[q.key] for q in points], dtype=float)
        tables[key] = table.reshape(len(points), len(program._roots))
    return [
        np.array(tables[key][:, start:stop]).reshape(len(points), *obj.comps.shape)
        for (obj, points), (tables, key, start, stop) in zip(reads, spans)
    ]


def compile_together(objects: Iterable[Components]) -> None:
    """Compile the objects' components into one program, whose table of
    values per point set every object reads its span of.  Neither holds an
    object, so objects sharing them form no reference cycle."""
    objects = list(dict.fromkeys(objects))
    program, tables, start = Program(e for obj in objects for e in obj.comps.flat), {}, 0
    for obj in objects:
        vars(obj)["_span"] = (program, tables, start, start + obj.comps.size)  # preset the cache
        start += obj.comps.size


# ---------------------------------------------------------------------------
# Printing support
# ---------------------------------------------------------------------------

_PRECEDENCE = {
    Add: 1,
    Sub: 1,
    Mul: 2,
    Div: 2,
    Neg: 1,  # "-" binds a whole base; parenthesize whenever it is an operand
    Pow: 3,
}


def _prec(e: Expr) -> int:
    if isinstance(e, Const):
        return 1 if e.value < 0 else 4
    return _PRECEDENCE.get(type(e), 4)


_SYMBOLS = {Add: " + ", Sub: " - ", Mul: " * ", Div: " / "}
_FUNC_NAMES = {cls: name for name, cls in _FUNCS.items()}


def _to_text(e: Expr) -> str:
    """Surface syntax of e; parsing it back gives the same tree.

    The left operand of a binary node is parenthesized below the node's
    precedence and the right one at or below it, so the reparsed
    association (and hence float evaluation) is identical.  The walk keeps
    its own stack of pending text and (node, least precedence) pairs, so
    depth is not limited by the interpreter's stack.
    """
    out: list[str] = []
    stack: list = [(e, 0)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        node, at_least = item
        cls = type(node)
        if _prec(node) < at_least:
            out.append("(")
            stack.append(")")
        if cls is Const:
            out.append(_fmt_number(node.value))
        elif cls is Coord:
            out.append(node.var.name)
        elif cls in _BINARY:
            prec = _PRECEDENCE[cls]
            stack += ((node.right, prec + 1), _SYMBOLS[cls], (node.left, prec))
        elif cls is Pow:
            r = node.exponent
            stack.append(f"^{r}" if r.denominator == 1 else f"^({r})")
            stack.append((node.base, 4))
        elif cls is Neg:
            out.append("-")
            stack.append((node.arg, 4))
        else:
            out.append(f"{_FUNC_NAMES[cls]}(")
            stack += (")", (node.arg, 0))
    return "".join(out)


def _fmt_number(value: float) -> str:
    # the size test first: int() of an infinity or a NaN raises
    if abs(value) < 1e16 and value == int(value):
        return str(int(value))
    return repr(value)


# ---------------------------------------------------------------------------
# Parser: recursive descent over the surface grammar
#
#   expr   := term (("+"|"-") term)*
#   term   := factor (("*"|"/") factor)*
#   factor := base ("^" rational)?
#   base   := number | ident | "(" expr ")" | func "(" expr ")" | "-" base
#   ident  := "t" | "x" digits | "p" digits      (1-based indices)
#
# Parentheses, function calls and unary minus signs nest at most
# MAX_NESTING deep.
# ---------------------------------------------------------------------------

MAX_NESTING = 100

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z]+\d*)
  | (?P<op>[-+*/^()])
  | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


def _structure(node: Expr):
    """The key of node in a parse's table of shared nodes: a constant's
    value and sign, as ``Program`` numbers it, a coordinate's variable, and
    an operation's class, operand ids and exponent."""
    cls = type(node)
    if cls is Const:
        return (node.value, math.copysign(1.0, node.value))
    if cls is Coord:
        return node.var
    if cls is Pow:
        return (Pow, id(node.base), node.exponent.numerator, node.exponent.denominator)
    return (cls, *map(id, _operands(node)))


class _Parser:
    def __init__(self, src: str, n: int):
        self.src = src
        self.n = n
        self.tokens: list[tuple[str, str, int]] = []  # (kind, text, offset)
        self._lex()
        self.pos = 0
        self.depth = 0  # open parentheses, calls and unary minus signs
        self.shared: dict = {}  # see _share; it lives only as long as the parse

    def _lex(self):
        for m in _TOKEN_RE.finditer(self.src):
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

    def expr(self) -> Expr:
        e = self.term()
        while self._peek()[1] in ("+", "-"):
            _, op, offset = self._next()
            cls = Add if op == "+" else Sub
            rhs = self.term()
            e = self._share((cls, id(e), id(rhs)), cls, _REBUILDERS[cls], e, rhs)
            if type(rhs) is Const and type(e) is cls and type(e.left) is Const and rhs.value != 0.0:
                value = _ARITHMETIC[cls](e.left.value, rhs.value)  # overflowed, not x/0
                raise ExprSyntaxError(f"{op!r} folds to {value}, not a finite double", offset)
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self._peek()[1] in ("*", "/"):
            _, op, offset = self._next()
            cls = Mul if op == "*" else Div
            rhs = self.factor()
            e = self._share((cls, id(e), id(rhs)), cls, _REBUILDERS[cls], e, rhs)
            if type(rhs) is Const and type(e) is cls and type(e.left) is Const and rhs.value != 0.0:
                value = _ARITHMETIC[cls](e.left.value, rhs.value)  # overflowed, not x/0
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
        r = Fraction(sign * num, den)
        try:
            float(r)  # derivatives and programs use it as a double
        except OverflowError:
            raise ExprSyntaxError("exponent is too large for a double", start) from None
        return r

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


def parse(src: str, n: int) -> Expr:
    """Parse DSL source into an expression tree for ambient dimension n.

    Within src, each distinct structure is one object: a repeated subterm
    is built once and shared.  Two calls share nothing."""
    if n < 1:
        raise DimensionError(f"ambient dimension must be >= 1, got {n}")
    return _Parser(src, n).parse()
