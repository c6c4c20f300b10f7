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
one node that every later walk meets once.  The builders' leaves are
shared too: ``tvar``, ``xvar`` and ``pvar`` return one ``Coord`` per
variable, while two parses share nothing.  Each node knows its free
variables from the moment it is built, so differentiation skips subtrees
free of the variable.  ``diff`` keeps the derivatives it takes in a memo
the caller may pass: a builder that differentiates several roots by one
variable passes one memo per variable for as long as it runs, so a
subtree shared by those roots is differentiated once, and the memo is
dropped with the build.  Substitution rebuilds each node object once per
call, and a compiled ``Program`` evaluates each node object once per
point; it is the only evaluator.  None of these, nor printing,
recurses, so depth is not limited by the interpreter's stack; the parser
caps nesting at ``MAX_NESTING`` levels instead.

Construction goes through smart constructors that fold the 0/1 identities
(x+0, x*1, x*0, x^1, ...).  No further simplification is attempted:
correctness is defined by evaluation, not by canonical form.

Nodes are immutable by contract, not by a runtime guard: nothing assigns
to a node's fields once it is built.  A node holds its operands and its
fields alone, so it is the only object a build leaves behind per node
for the cycle collector to walk.  Every node is shared by identity among
the objects, memos and programs built from it, so a change to one would
change all of them.  The node classes are not frozen dataclasses because
a frozen class's stores go through ``object.__setattr__``, at about twice
the cost of a plain slot store, and those stores in every constructor
were the largest per-node cost of ``diff``.
"""

from __future__ import annotations

import math
import operator
import re
import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice
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
    "PointSet",
    "Expr",
    "Const",
    "Coord",
    "const",
    "tvar",
    "xvar",
    "pvar",
    "esum",
    "symmetric",
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
        # floats, so that an int and its float, whose keys are equal, are
        # one point with one set of values (-0 is 0, where -0.0 is not 0.0)
        if {type(self.t), *map(type, self.x), *map(type, self.p)} != {float}:
            object.__setattr__(self, "t", float(self.t))
            object.__setattr__(self, "x", tuple(map(float, self.x)))
            object.__setattr__(self, "p", tuple(map(float, self.p)))

    @classmethod
    def make(cls, t: float, x: Iterable[float], p: Iterable[float]) -> "Point":
        return cls(t, tuple(x), tuple(p))

    @classmethod
    def from_flat(cls, values: Iterable[float], n: int) -> "Point":
        vals = list(values)
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


class PointSet(tuple):
    """Points in order, and their coordinates as one array: a tuple of
    ``Point``s whose ``coords`` is a read-only, C-ordered (points, 2n+1)
    float64 array, row k holding point k's ``flat()`` values, and whose
    ``key`` is the points' keys joined, the bytes of that array.  Both are
    built once per set, from the points' keys (``coords`` is None for
    points of mixed dimension), or come with the points from ``of_rows``.
    A ``Program.run_points`` pass reads the array alone, and a table of
    values at the set is keyed by ``key``."""

    @classmethod
    def of(cls, points: Iterable[Point]) -> "PointSet":
        """points itself where it is a PointSet, so its array is kept."""
        return points if isinstance(points, cls) else cls(points)

    @classmethod
    def of_rows(cls, coords: np.ndarray, n: int) -> "PointSet":
        """The points whose coordinates are the rows of coords, a C-ordered
        (points, 2n+1) float64 array, which the set keeps read-only.  Each
        point and its key are built from its row, without ``Point``'s
        checks: a row of floats of one width needs none."""
        coords.flags.writeable = False
        data, width, points = coords.tobytes(), 8 * (2 * n + 1), []
        for start, values in zip(range(0, len(data), width), coords.tolist()):
            q = object.__new__(Point)
            vars(q).update(t=values[0], x=tuple(values[1 : n + 1]), p=tuple(values[n + 1 :]),
                           key=data[start : start + width])
            points.append(q)
        points = cls(points)
        vars(points).update(coords=coords, key=data)
        return points

    @cached_property
    def key(self) -> bytes:
        return b"".join(q.key for q in self)

    def flat(self) -> tuple[tuple[float, ...], ...]:
        """Each point's ``flat()`` tuple, in order: one tuple, the same on
        every call."""
        return self._flat

    @cached_property
    def _flat(self) -> tuple[tuple[float, ...], ...]:
        return tuple(q.flat() for q in self)

    @cached_property
    def coords(self) -> np.ndarray | None:
        if len(set(map(len, map(operator.attrgetter("x"), self)))) != 1:
            return None  # mixed dimensions, or no point
        return np.frombuffer(self.key, dtype=float).reshape(len(self), -1)


# ---------------------------------------------------------------------------
# Expression nodes
# ---------------------------------------------------------------------------

Number = Union[int, float]


class Expr:
    """Base class; all nodes are immutable and compare and hash by
    identity: two trees built apart are two objects, whatever their
    structure, and a ``Program`` gives each its own slots.  Only a parse's
    table of shared nodes decides a structure.  ``repr`` is the printed
    text behind the node's class name, so it does not recurse.

    Immutability is a contract, not a guard: assigning to a field does not
    raise, and no code does so once the node is built (see the module
    docstring).

    Besides its fields, every node carries only a free-variable mask, set
    when it is built; the derivatives taken of it live in the memo of the
    ``diff`` call or build that took them.
    """

    __slots__ = ("_mask",)

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
        return _pow(self, _exponent(exponent))

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
        return _substitute(self, mapping)

    def free_vars(self) -> frozenset[Var]:
        mask = self._mask
        return frozenset(_var_of_bit(k) for k in range(2, mask.bit_length()) if mask >> k & 1)

    # -- per-node rules -------------------------------------------------------
    def _derivative(self, d, v: Var) -> "Expr":
        """The derivative by v, given d(operand), the derivative of each
        operand."""
        raise NotImplementedError


# Free-variable masks.  The variable t has bit 2, x^i bit 2i+3 and p_i bit
# 2i+4.  Bit 0 says that the node's derivative by a variable outside its
# mask is -0.0 rather than 0.0, the zero the node's rule builds from its
# operands' zeros.  Bit 1 marks a node whose rule builds no zero at all;
# it passes to every node above, as a variable's bit does, and ``diff``
# never skips a node that carries it.
_SIGN = 1
_NO_SKIP = 2


def _bit(v: Var) -> int:
    if v.kind == "t":
        return 4
    return 1 << (2 * v.index + (3 if v.kind == "x" else 4))


def _var_of_bit(k: int) -> Var:
    if k == 2:
        return Var.time()
    i, momentum = divmod(k - 3, 2)
    return Var("p" if momentum else "x", i)


# Each node class writes its own __init__, which sets its fields and its
# mask from its operands' masks: the generated one followed by a
# __post_init__ cost about a third more per node.  These are
# plain slot stores, as nodes are not frozen (see the module docstring).
# They stay dataclasses, whose fields name each node's parts for a generic
# walk.
_node = dataclass(slots=True, eq=False, repr=False, init=False)


@_node
class Const(Expr):
    value: float

    def __init__(self, value: float):
        self.value = value
        self._mask = 0

    def _derivative(self, d, v):
        return ZERO


@_node
class Coord(Expr):
    var: Var

    def __init__(self, var: Var):
        self.var = var
        self._mask = _bit(var)

    def _derivative(self, d, v):
        return ONE if self.var == v else ZERO


@_node
class Add(Expr):
    left: Expr
    right: Expr

    def __init__(self, left: Expr, right: Expr):
        self.left = left
        self.right = right
        # the sum of two zeros is the right one (_add drops a zero left)
        self._mask = (left._mask | right._mask) & ~_SIGN | right._mask & _SIGN

    def _derivative(self, d, v):
        return _add(d(self.left), d(self.right))


@_node
class Sub(Expr):
    left: Expr
    right: Expr

    def __init__(self, left: Expr, right: Expr):
        self.left = left
        self.right = right
        # the difference of two zeros is the left one (_sub drops a zero right)
        self._mask = (left._mask | right._mask) & ~_SIGN | left._mask & _SIGN

    def _derivative(self, d, v):
        return _sub(d(self.left), d(self.right))


@_node
class Mul(Expr):
    left: Expr
    right: Expr

    def __init__(self, left: Expr, right: Expr):
        self.left = left
        self.right = right
        self._mask = (left._mask | right._mask) & ~_SIGN

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
        self.left = left
        self.right = right
        self._mask = (left._mask | right._mask) & ~_SIGN
        # over a constant whose square is 0.0 the rule builds 0 / 0.0,
        # which _div keeps as a Div
        if type(right) is Const and abs(right.value) < 1.0 and right.value ** 2 == 0.0:
            self._mask |= _NO_SKIP

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
        self.base = base
        self.exponent = exponent
        self._mask = base._mask & ~_SIGN

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
        self.arg = arg
        self._mask = arg._mask ^ _SIGN

    def _derivative(self, d, v):
        return _neg(d(self.arg))


@_node
class Exp(Expr):
    arg: Expr

    def __init__(self, arg: Expr):
        self.arg = arg
        self._mask = arg._mask & ~_SIGN

    def _derivative(self, d, v):
        return _mul(self, d(self.arg))


@_node
class Log(Expr):
    arg: Expr

    def __init__(self, arg: Expr):
        self.arg = arg
        # of the constant 0 the rule builds 0 / 0, which _div keeps
        self._mask = _NO_SKIP if type(arg) is Const and arg.value == 0.0 else arg._mask & ~_SIGN

    def _derivative(self, d, v):
        return _div(d(self.arg), self.arg)


@_node
class Sin(Expr):
    arg: Expr

    def __init__(self, arg: Expr):
        self.arg = arg
        self._mask = arg._mask & ~_SIGN

    def _derivative(self, d, v):
        return _mul(Cos(self.arg), d(self.arg))


@_node
class Cos(Expr):
    arg: Expr

    def __init__(self, arg: Expr):
        self.arg = arg
        # the rule negates a zero product: -0.0
        self._mask = arg._mask | _SIGN

    def _derivative(self, d, v):
        return _neg(_mul(Sin(self.arg), d(self.arg)))


ZERO = Const(0.0)
ONE = Const(1.0)
_NEG_ZERO = Const(-0.0)

_BINARY = frozenset((Add, Sub, Mul, Div))
_LEAVES = frozenset((Const, Coord))


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


_ARITHMETIC = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: operator.truediv}


def _fold(cls, a: Const, b: Const) -> Expr:
    # a fold that is not finite stays an operation, which evaluation (or the
    # parser) names when it rejects it; a Const(inf) would name nothing
    value = _ARITHMETIC[cls](a.value, b.value)
    return Const(value) if math.isfinite(value) else cls(a, b)


# The smart constructors test each operand's class once, by type.  The
# order of the folds decides some results, so it must not change: -0.0 * 1
# is ZERO, the zero fold, not the operand -0.0 that the one fold returns.

def _add(a: Expr, b: Expr) -> Expr:
    if type(a) is Const:
        if a.value == 0.0:
            return b
        if type(b) is Const:
            return a if b.value == 0.0 else _fold(Add, a, b)
    elif type(b) is Const and b.value == 0.0:
        return a
    return Add(a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if type(b) is Const:
        if b.value == 0.0:
            return a
        if type(a) is Const:
            return _neg(b) if a.value == 0.0 else _fold(Sub, a, b)
    elif type(a) is Const and a.value == 0.0:
        return _neg(b)
    return Sub(a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if type(a) is Const:
        x = a.value
        if x == 0.0:
            return ZERO
        if type(b) is Const:
            y = b.value
            if y == 0.0:
                return ZERO
            if x == 1.0:
                return b
            return a if y == 1.0 else _fold(Mul, a, b)
        if x == 1.0:
            return b
    elif type(b) is Const:
        y = b.value
        if y == 0.0:
            return ZERO
        if y == 1.0:
            return a
    return Mul(a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if type(b) is Const:
        y = b.value
        if y == 1.0:
            return a
        if y != 0.0 and type(a) is Const:
            return ZERO if a.value == 0.0 else _fold(Div, a, b)
    elif type(a) is Const and a.value == 0.0:
        return ZERO
    return Div(a, b)


def _pow(base: Expr, exponent: Fraction) -> Expr:
    if exponent == 1:
        return base
    if exponent == 0:
        return ONE
    if (
        type(base) is Const
        and exponent.denominator == 1
        and (base.value != 0.0 or exponent > 0)
    ):
        try:
            return Const(base.value ** int(exponent))
        except OverflowError:
            pass
    return Pow(base, exponent)


def _neg(a: Expr) -> Expr:
    cls = type(a)
    if cls is Const:
        return Const(-a.value)
    if cls is Neg:
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


def _exponent(value) -> Fraction:
    """value as an exact rational exponent, for ``**`` and the parser alike.

    It must have a finite double, which derivatives and programs use, and
    printed text that parses back.  One that has not is named by the bits
    of its larger term, as its digits may be too many to print."""
    try:
        # the parser passes a Fraction: copying it would cost 1.5 us per exponent
        r = value if type(value) is Fraction else Fraction(value)
    except (OverflowError, ValueError):  # an infinity or a NaN
        raise JethamError(f"exponent {value!r} is not a finite double") from None
    try:
        float(r)
    except OverflowError:
        raise JethamError(f"exponent is too large for a double: {_bits(r)} bits") from None
    try:
        str(r)
    except ValueError:  # a term past the interpreter's limit on digits
        raise JethamError(f"exponent has too many digits: {_bits(r)} bits") from None
    return r


def _bits(r: Fraction) -> int:
    return max(r.numerator.bit_length(), r.denominator.bit_length())


# the builders' leaves: one Coord per variable, built on first use.  A
# parse makes its own, so two parses share nothing.
_SHARED_COORDS: dict[tuple[str, int], Coord] = {}


def _shared_coord(kind: str, i: int) -> Coord:
    leaf = _SHARED_COORDS.get((kind, i))
    if leaf is None:
        leaf = _SHARED_COORDS[kind, i] = Coord(Var(kind, i))
    return leaf


def tvar() -> Expr:
    """The time leaf: the same ``Coord`` on every call."""
    return _shared_coord("t", 0)


def xvar(i: int) -> Expr:
    """The leaf of x^(i+1): the same ``Coord`` on every call."""
    return _shared_coord("x", i)


def pvar(i: int) -> Expr:
    """The leaf of p_(i+1): the same ``Coord`` on every call."""
    return _shared_coord("p", i)


def esum(terms: Iterable[Expr]) -> Expr:
    """Fold a sum, dropping structural zeros."""
    total: Expr = ZERO
    for term in terms:
        total = _add(total, term)
    return total


def symmetric(n: int, entry) -> tuple[tuple[Expr, ...], ...]:
    """The n x n rows whose [j][k] and [k][j] are one object, entry(j, k)
    for j <= k, built in row order."""
    rows: list[list] = [[None] * n for _ in range(n)]
    for j in range(n):
        for k in range(j, n):
            rows[j][k] = rows[k][j] = entry(j, k)
    return tuple(map(tuple, rows))


# ---------------------------------------------------------------------------
# Module-level operations
# ---------------------------------------------------------------------------

def diff(e: Expr, v: Var, memo: dict | None = None) -> Expr:
    """Exact algebraic derivative of e with respect to the variable v.

    The walk is iterative and keeps each node's derivative by v in memo,
    a dict from node to derivative: a subtree shared by several parents
    is differentiated once, and its derivative is shared in turn.  A
    builder that differentiates several roots by v passes one memo to
    every call, so a subtree the roots share, or a root met again, is
    differentiated once over the build; the memo is for v alone and is
    dropped with the build.  Without one, the call keeps its own.  A
    subtree free of v is not walked; its derivative is the zero its rules
    would build, sign included.  Each node's rule and the smart
    constructors decide the result, so it equals a node-by-node recursive
    derivative and differs only in sharing.
    """
    bit = _bit(v) | _NO_SKIP
    # node -> its derivative by v
    done: dict[Expr, Expr] = {} if memo is None else memo
    d = done.__getitem__  # how each rule reads its operands' derivatives
    # a node, or None over a node whose operands are all in done
    stack: list = [e]
    while stack:
        node = stack.pop()
        if node is None:
            node = stack.pop()
        elif node in done:  # stacked by two parents
            continue
        else:
            mask = node._mask
            if not mask & bit:
                done[node] = _NEG_ZERO if mask & _SIGN else ZERO
                continue
            cls = type(node)
            if cls is Coord:
                done[node] = ONE
                continue
            if cls in _BINARY:
                left, right = node.left, node.right
                if right not in done:
                    stack += (node, None, right)
                    if left not in done:
                        stack.append(left)
                    continue
                if left not in done:
                    stack += (node, None, left)
                    continue
            else:
                arg = node.base if cls is Pow else node.arg
                if arg not in done:
                    stack += (node, None, arg)
                    continue
        done[node] = node._derivative(d, v)
    return done[e]


# the smart constructor that rebuilds each node class from new operands
_REBUILDERS = {Add: _add, Sub: _sub, Mul: _mul, Div: _div, Neg: _neg,
               Exp: Exp, Log: Log, Sin: Sin, Cos: Cos}


def _substitute(e: Expr, mapping: Mapping[Var, Expr]) -> Expr:
    """The image of e under a simultaneous substitution, built bottom-up
    without recursion; every node object is rebuilt once, however many
    parents share it."""
    done: dict[Expr, Expr] = {}  # node -> its image
    # a node, or None over a node whose operands are all in done
    stack: list = [e]
    while stack:
        node = stack.pop()
        if node is None:
            node = stack.pop()
            cls = type(node)
        elif node in done:  # stacked by two parents
            continue
        else:
            cls = type(node)
            if cls is Coord:
                done[node] = mapping.get(node.var, node)
                continue
            if cls is Const:
                done[node] = node
                continue
            if cls in _BINARY:
                left, right = node.left, node.right
                if right not in done:
                    stack += (node, None, right)
                    if left not in done:
                        stack.append(left)
                    continue
                if left not in done:
                    stack += (node, None, left)
                    continue
            else:
                arg = node.base if cls is Pow else node.arg
                if arg not in done:
                    stack += (node, None, arg)
                    continue
        if cls is Pow:
            done[node] = _pow(done[node.base], node.exponent)
        elif cls in _BINARY:
            done[node] = _REBUILDERS[cls](done[node.left], done[node.right])
        else:
            done[node] = _REBUILDERS[cls](done[node.arg])
    return done[e]


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

_MATH = {_EXP: math.exp, _LOG: math.log, _SIN: math.sin, _COS: math.cos}

_TEST = object()  # Program's stack mark for a Div's denominator test

# The number of distinct points from which a program runs over a point set
# in one Program.run_points pass rather than point by point: below it the
# pass's fixed cost, about one array operation per instruction, outweighs
# the per-point runs it saves.  The 35 multi-point group programs of one
# seed-1 points_n2 period (numpy 2, CPython 3.11, one core of a shared
# 2-core x86 machine) ran at 1, 3, 8 and 40 points in 0.86, 2.6, 4.3 and
# 22 ms point by point and 5.9, 4.0, 4.3 and 6.4 ms in passes.
BATCH_POINTS = 8


class Program:
    """A list of root expressions compiled to one straight-line program.

    Slots are numbered by identity: one per node object reached from the
    roots, so a subtree shared by many parents or roots runs once per
    point, while two equal trees built apart run once each.  Sharing is
    the builders' and the parser's to give.  Slots fill in depth-first
    order, operands left to right, but a ``Div`` tests its denominator
    for zero (once per denominator slot) before it walks its numerator.
    That order decides which DomainError comes first.  Each node has one
    IEEE double operation and its domain checks.

    ``run`` also rejects non-finite values: a NaN or an infinity in any
    slot raises DomainError naming the first node that produced one.
    Compilation and ``run`` both work without recursion.

    ``run_points`` is ``run`` over a points axis: the same instructions,
    each over every point at once, with the same bits at each point.  It
    never raises: where ``run`` would raise at any of the points it gives
    None, and its caller takes the per-point path, so ``run`` stays the
    only source of errors.  ``evaluate_together`` and ``charts.map_points``
    take it for point sets of at least ``BATCH_POINTS`` distinct points;
    smaller sets run point by point.
    """

    __slots__ = ("_code", "_template", "_nodes", "_roots")

    def __init__(self, roots: Iterable[Expr]):
        roots = tuple(roots)
        slots: dict[Expr, int] = {}  # node -> slot
        checked: set[int] = set()  # denominator slots tested for zero
        template: list[float] = []  # constants in place, 0.0 elsewhere
        nodes: list[Expr] = []  # slot -> its node
        # instruction k is (ops[k], dsts[k], lhs[k], rhs[k]); four flat
        # lists hold a large program in less memory than one tuple each
        ops: list[int] = []
        dsts: list = []
        lhs: list = []
        rhs: list = []
        for root in roots:
            # a node to visit, None over an operation whose operands have
            # slots, or _TEST over a Div whose denominator has one
            stack: list = [root]
            while stack:
                node = stack.pop()
                if node is None:
                    node = stack.pop()
                    cls = type(node)
                elif node is _TEST:
                    node = stack.pop()
                    denominator = slots[node.right]
                    if denominator not in checked:
                        checked.add(denominator)
                        # a check carries its Div node where others carry a slot
                        ops.append(_CHECK)
                        dsts.append(node)
                        lhs.append(denominator)
                        rhs.append(0)
                    continue
                elif node in slots:
                    continue
                else:
                    cls = type(node)
                    # operands without slots, visited left to right, but a
                    # Div's denominator first
                    if cls is Div:
                        stack += (node, None, node.left, node, _TEST, node.right)
                        continue
                    if cls in _BINARY:
                        left, right = node.left, node.right
                        if right not in slots:
                            stack += (node, None, right)
                            if left not in slots:
                                stack.append(left)
                            continue
                        if left not in slots:
                            stack += (node, None, left)
                            continue
                    elif cls not in _LEAVES:
                        arg = node.base if cls is Pow else node.arg
                        if arg not in slots:
                            stack += (node, None, arg)
                            continue
                # a leaf, or an operation whose operands have slots
                slots[node] = slot = len(template)
                nodes.append(node)
                if cls is Const:
                    template.append(node.value)
                    continue
                if cls is Coord:
                    op, a, b = _LOAD, node.var, 0
                elif cls is Pow:
                    r, a = node.exponent, slots[node.base]
                    if r.denominator == 1:
                        b = int(r)
                        op = _POW if b >= 0 else _NPOW
                    else:
                        op, b = _FPOW, float(r)
                elif cls in _BINARY:
                    op, a, b = _OPCODES[cls], slots[node.left], slots[node.right]
                else:
                    op, a, b = _OPCODES[cls], slots[node.arg], 0
                template.append(0.0)
                ops.append(op)
                dsts.append(slot)
                lhs.append(a)
                rhs.append(b)
        self._code = (ops, dsts, lhs, rhs)
        self._template = template
        self._nodes = nodes
        self._roots = [slots[r] for r in roots]

    def __len__(self) -> int:
        """Number of value slots: one per distinct node object."""
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

    def run_points(self, points: PointSet) -> np.ndarray | None:
        """Values of the roots at each of points, as a C-ordered (points,
        roots) float64 array whose row k is ``run(points[k])`` bit for bit;
        or None where ``run`` would raise at any of the points, whose caller
        then runs them one by one for the error.  Raises and warns nothing.

        It reads the set's ``coords`` array, and no ``Point``.  The
        instructions are walked once.  ``+ - * /`` and negation are one
        float64 array operation over the points, which rounds as the float
        operation does; a power, exp, log, sin or cos makes run's own call
        per point, on floats, so that the C library rounds every value as
        it does in ``run``.  Points of mixed dimension take the None path
        too.
        """
        coords = points.coords
        if coords is None:
            return None
        count, width = coords.shape
        n = width // 2
        columns = coords.T  # row k holds coordinate k of every point
        v = np.empty((len(self._template), count))
        v[:] = np.array(self._template)[:, None]
        rows = list(v)  # one view per slot
        with np.errstate(all="ignore"):
            for op, dst, a, b in zip(*self._code):
                if op == _MUL:
                    np.multiply(rows[a], rows[b], out=rows[dst])
                elif op == _ADD:
                    np.add(rows[a], rows[b], out=rows[dst])
                elif op == _POW or op == _NPOW or op == _FPOW:
                    if op == _NPOW and np.count_nonzero(rows[a]) < count:
                        return None
                    if op == _FPOW and (rows[a] <= 0.0).any():
                        return None
                    try:
                        rows[dst][:] = [x ** b for x in rows[a].tolist()]
                    except OverflowError:
                        return None
                elif op == _SUB:
                    np.subtract(rows[a], rows[b], out=rows[dst])
                elif op == _NEG:
                    np.negative(rows[a], out=rows[dst])
                elif op == _CHECK:
                    if np.count_nonzero(rows[a]) < count:
                        return None
                elif op == _DIV:
                    np.divide(rows[a], rows[b], out=rows[dst])
                elif op != _LOAD:  # exp, log, sin or cos
                    if op == _LOG and (rows[a] <= 0.0).any():
                        return None
                    try:
                        rows[dst][:] = list(map(_MATH[op], rows[a].tolist()))
                    except (OverflowError, ValueError):
                        return None
                elif a.kind == "t":
                    rows[dst][:] = columns[0]
                elif a.index < n:
                    rows[dst][:] = columns[1 + a.index + (n if a.kind == "p" else 0)]
                else:  # run's DimensionError
                    return None
            if not np.isfinite(v).all():
                return None
        return v[self._roots].T.copy()  # C order: matmul may round strided views otherwise

    def _raise_non_finite(self, v: list[float]):
        # a finite sum can overflow; only a non-finite slot is an error
        for slot, value in enumerate(v):
            if not math.isfinite(value):
                raise DomainError(f"non-finite value {value!r}", self._nodes[slot])


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
    once and kept while the program lives, keyed by the set (``PointSet``):
    one C-ordered (points, roots) array, with one run per distinct point
    (0.0 and -0.0 are two points).  A table of at least ``BATCH_POINTS``
    distinct points is one ``Program.run_points`` pass over them, which
    reads the set's array.  The programs still without values, because
    their point sets are smaller or a pass gave None, run in step, point by
    point and, at each point, in read order, so the error raised is the one
    a point-by-point read of the objects meets first.  No table is kept
    where a run raised.
    """
    reads = [(obj, PointSet.of(points)) for obj, points in reads]
    spans, builds = [], {}
    for obj, points in reads:
        program, tables, start, stop = obj._span
        spans.append((tables, points.key, start, stop))
        if points.key not in tables:
            # a table to build: its program's root values by point key
            builds.setdefault((id(tables), points.key), (program, points, tables, {}))
    builds, passes = list(builds.values()), {}
    for k, (program, points, _, _) in enumerate(builds):
        distinct = {q.key: q for q in points}
        if len(distinct) >= BATCH_POINTS:
            whole = len(distinct) == len(points)
            table = program.run_points(points if whole else PointSet(distinct.values()))
            if table is not None:
                if not whole:  # a row per point, repeated points included
                    row = {key: i for i, key in enumerate(distinct)}
                    table = table[[row[q.key] for q in points]]
                passes[k] = table
    for i in range(max((len(points) for _, points, *_ in builds), default=0)):
        for k, (program, points, _, values) in enumerate(builds):
            if k not in passes and i < len(points) and points[i].key not in values:
                values[points[i].key] = program.run(points[i])
    for k, (program, points, tables, values) in enumerate(builds):
        if k not in passes:
            table = np.array([values[q.key] for q in points], dtype=float)
            passes[k] = table.reshape(len(points), len(program._roots))
        tables[points.key] = passes[k]
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
# Parser: one lexing pass and one loop over the tokens
#
#   expr   := term (("+"|"-") term)*
#   term   := factor (("*"|"/") factor)*
#   factor := base ("^" rational)?
#   base   := number | ident | "(" expr ")" | func "(" expr ")" | "-" base
#   ident  := "t" | "x" digits | "p" digits      (1-based indices)
#
# Digits, letters and spaces are ASCII.  One findall lexes the string, and a
# token's offset is found again only for an error.  The loop climbs
# precedence with explicit stacks, in the manner of Pratt (POPL 1973): a left
# operand waits with its operator until one that binds no tighter arrives,
# so each node is built where recursive descent would build it.
# Parentheses, calls and unary minus signs nest at most MAX_NESTING deep.
# ---------------------------------------------------------------------------

MAX_NESTING = 100

_SPACES = "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f "  # the ASCII characters str.isspace accepts
NUMBER = r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"  # a literal, ASCII, unsigned
_TOKEN_RE = re.compile(  # spaces, then a number, an identifier or one other character
    rf"[\t-\r\x1c- ]*({NUMBER}|[A-Za-z]+[0-9]*|[^\t-\r\x1c- ])"
)
_DIGITS = frozenset("0123456789")
_LETTERS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")
_TOKEN_CHARS = _DIGITS | _LETTERS | frozenset("+-*/^()")  # the one-character tokens
# a binary operator's (precedence, class, smart constructor); any other token
# ends the group, and each group's floor on the operator stack stops a join
_INFIX = {"+": (0, Add, _add), "-": (0, Sub, _sub), "*": (1, Mul, _mul), "/": (1, Div, _div)}
_GROUP_END, _FLOOR = (-1, None, None), (-2, None, None, None)
_SMALL_POWERS = {str(k): (Fraction(k), k, 1) for k in range(10)}  # (r, numerator, denominator)


class _Fault(Exception):
    """A syntax error's message and token index; parse finds the offset."""


def _structure(node: Expr):
    """The key of node in a parse's table of shared nodes: a constant's
    value and sign, so 0.0 and -0.0 stay two nodes, a coordinate's
    variable, and an operation's class, operand ids and exponent."""
    cls = type(node)
    if cls is Const:
        return (node.value, math.copysign(1.0, node.value))
    if cls is Coord:
        return node.var
    if cls is Pow:
        return (Pow, id(node.base), node.exponent.numerator, node.exponent.denominator)
    return (cls, *map(id, _operands(node)))


def _filed(shared: dict, key, cls, node: Expr) -> Expr:
    """node, just built, filed under key.  A node of another class than cls
    is a folded result (x*1, 2*3, 0 - y), filed under its own structure too
    so that it also is one object."""
    if type(node) is not cls:
        node = shared.setdefault(_structure(node), node)
    shared[key] = node
    return node


def parse(src: str, n: int) -> Expr:
    """Parse DSL source into an expression tree for ambient dimension n.

    Within src, each distinct structure is one object: a repeated subterm
    is built once and shared.  Two calls share nothing."""
    if n < 1:
        raise DimensionError(f"ambient dimension must be >= 1, got {n}")
    text = src.rstrip(_SPACES)  # so that no match backtracks over trailing spaces
    tokens = _TOKEN_RE.findall(text) + [""]  # and the end of the input
    try:
        return _parse_tokens(tokens, n)
    except _Fault as fault:
        message, k = fault.args
    for j, tok in enumerate(tokens):  # a character that begins no token is the error
        if len(tok) == 1 and tok not in _TOKEN_CHARS:
            message, k = f"unexpected character {tok!r}", j
            break
    m = next(islice(_TOKEN_RE.finditer(text), k, None), None)
    raise ExprSyntaxError(message, len(src) if m is None else m.start(1))


def _parse_tokens(tokens: list[str], n: int) -> Expr:
    # The shared nodes, for this parse only: a constant is keyed by its value
    # and sign, an identifier by its text and then by its variable, and an
    # operation by its class, its (shared) operands' ids and its exponent.
    shared: dict = {}
    get = shared.get
    lefts: list[Expr] = []  # left operands waiting for their right operand
    ops: list[tuple] = [_FLOOR]  # their (precedence, class, build, token index)
    groups: list[tuple] = []  # each open group's outer minus signs and function
    negs = depth = i = 0  # minus signs before this base; open groups and signs
    while True:
        tok = tokens[i]
        node = get(tok)  # an identifier read before
        if node is None:
            if tok == "-" or tok == "(" or tok in _FUNCS:
                at, func = i, _FUNCS.get(tok)
                if func is not None:
                    i += 1
                    if tokens[i] != "(":
                        raise _Fault(f"expected '(', found {tokens[i] or 'end of input'!r}", i)
                if depth == MAX_NESTING:
                    raise _Fault(f"nesting deeper than {MAX_NESTING} levels", at)
                depth += 1
                i += 1
                if tok == "-":
                    negs += 1
                else:
                    groups.append((negs, func))
                    ops.append(_FLOOR)
                    negs = 0
                continue
            c = tok[:1]
            if c in _LETTERS:
                var = _var(tok, i, n)
                node = shared[tok] = shared.setdefault(var, Coord(var))
            elif c in _DIGITS or c == "." and tok != ".":
                value = float(tok)  # a literal has no sign
                if not math.isfinite(value):
                    raise _Fault(f"number {tok!r} is not a finite double", i)
                node = get((value, 1.0)) or _filed(shared, (value, 1.0), Const, Const(value))
            else:
                raise _Fault(f"unexpected {tok or 'end of input'!r}", i)
        i += 1
        while True:  # node is a whole base
            while negs:  # its minus signs, innermost first
                key = (Neg, id(node))
                node = get(key) or _filed(shared, key, Neg, _neg(node))
                negs -= 1
                depth -= 1
            tok = tokens[i]
            if tok == "^":
                power = _SMALL_POWERS.get(tokens[i + 1])
                if power is None:
                    power, i = _rational(tokens, i + 1)
                else:
                    i += 2
                r, num, den = power
                key = (Pow, id(node), num, den)
                node = get(key) or _filed(shared, key, Pow, _pow(node, r))
                tok = tokens[i]
            prec, cls, build = _INFIX.get(tok, _GROUP_END)
            while ops[-1][0] >= prec:  # join the operands that bind at least as tight
                _, op, join, at = ops.pop()
                left, right = lefts.pop(), node
                key = (op, id(left), id(right))
                node = get(key) or _filed(shared, key, op, join(left, right))
                if type(node) is op and type(left) is type(right) is Const and right.value != 0.0:
                    value = _ARITHMETIC[op](left.value, right.value)  # overflowed, not x/0
                    raise _Fault(f"{tokens[at]!r} folds to {value}, not a finite double", at)
            if prec >= 0:
                lefts.append(node)
                ops.append((prec, cls, build, i))
                i += 1
                break
            if not groups:
                if tok:
                    raise _Fault(f"unexpected {tok!r} after expression", i)
                return node
            if tok != ")":
                raise _Fault(f"expected ')', found {tok or 'end of input'!r}", i)
            ops.pop()  # the group's floor
            negs, func = groups.pop()
            depth -= 1
            i += 1
            if func is not None:
                key = (func, id(node))
                node = get(key) or _filed(shared, key, func, func(node))


def _var(text: str, i: int, n: int) -> Var:
    # x1 and x01 are one variable
    if text == "t":
        return Var.time()
    head, digits = text[0], text[1:]
    if head not in ("x", "p") or not digits.isdigit():
        raise _Fault(f"unknown identifier {text!r}", i)
    try:
        index = int(digits)
    except ValueError:  # past the interpreter's limit on digits
        raise _Fault(f"index of {head!r} has too many digits", i) from None
    if not 1 <= index <= n:
        raise _Fault(f"index of {text!r} out of range for dimension n={n}", i)
    return Var(head, index - 1)


def _rational(tokens: list[str], i: int) -> tuple[tuple, int]:
    """The exponent at token i as (r, numerator, denominator), and the index
    past it.  An error in its value names token i."""
    start, sign = i, 1
    if tokens[i] == "-":
        i, sign = i + 1, -1
    if tokens[i] == "(":
        num, i = _integer(tokens, i + 1, start)
        den, i = _integer(tokens, i + 1, start) if tokens[i] == "/" else (1, i)
        if tokens[i] != ")":
            raise _Fault(f"expected ')', found {tokens[i] or 'end of input'!r}", i)
        i += 1
    elif tokens[i].isdigit() and tokens[i].isascii():
        (num, i), den = _integer(tokens, i, start), 1
    else:
        raise _Fault("expected an integer or (integer/integer) exponent", i)
    if den == 0:
        raise _Fault("exponent has a zero denominator", start)
    try:
        r = _exponent(Fraction(sign * num, den))
    except JethamError as ex:
        raise _Fault(str(ex), start) from None
    return (r, r.numerator, r.denominator), i


def _integer(tokens: list[str], i: int, start: int) -> tuple[int, int]:
    sign = 1
    if tokens[i] == "-":
        i, sign = i + 1, -1
    if not (tokens[i].isdigit() and tokens[i].isascii()):  # isdigit alone takes "\u0662"
        raise _Fault("expected an integer", i)
    try:
        return sign * int(tokens[i]), i + 1
    except ValueError:  # past the interpreter's limit on digits
        raise _Fault("exponent has too many digits", start) from None
