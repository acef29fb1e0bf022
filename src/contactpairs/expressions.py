"""Small arithmetic expression language for coefficient functions on charts.

Supported syntax: real literals, ``pi``, variables ``x0 .. x{n-1}``, the
binary operators ``+ - * /``, unary minus, ``^`` with a nonnegative integer
literal exponent, and the functions ``sin``, ``cos``, ``exp``.  Precedence is
``^`` above unary minus above ``* /`` above ``+ -``; binary operators of equal
precedence associate to the left.

Expressions are immutable trees.  Differentiation is exact and symbolic;
evaluation raises instead of ever returning a non-finite value silently.
Trees are walked recursively, so ``parse`` rejects text nested deeper than
``MAX_DEPTH`` (brackets, calls, unary minus) or whose tree is deeper than
``MAX_DEPTH`` (a chain of n binary operators is n deep): the second
derivatives the checks take stay well inside Python's recursion limit.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Expr",
    "ParseError",
    "EvaluationError",
    "parse",
    "evaluate",
    "evaluate_many",
    "partial",
    "to_string",
    "const",
    "variable",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "power",
    "call",
    "is_zero",
    "variables_of",
    "shift_variables",
]

_FUNCTIONS = ("sin", "cos", "exp")

MAX_DEPTH = 100


class ParseError(ValueError):
    """Malformed expression text; ``position`` is the 0-based character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvaluationError(ArithmeticError):
    """Division by zero or a non-finite intermediate during evaluation."""


@dataclass(frozen=True, slots=True)
class Expr:
    """Base node; concrete nodes are the dataclasses below."""


@dataclass(frozen=True, slots=True)
class Const(Expr):
    value: float


@dataclass(frozen=True, slots=True)
class Var(Expr):
    index: int


@dataclass(frozen=True, slots=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True, slots=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Pow(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True, slots=True)
class Call(Expr):
    func: str
    arg: Expr


_ZERO = Const(0.0)
_ONE = Const(1.0)


def const(value: float) -> Expr:
    return Const(float(value))


def variable(index: int) -> Expr:
    return Var(int(index))


def is_zero(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 0.0


def _is_one(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 1.0


# Smart constructors fold literal zeros/ones so that derivative trees and
# constant-coefficient fields stay small.  No other simplification is done.

def add(a: Expr, b: Expr) -> Expr:
    if is_zero(a):
        return b
    if is_zero(b):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if is_zero(b):
        return a
    if is_zero(a):
        return neg(b)
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    return Sub(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if is_zero(a) or is_zero(b):
        return _ZERO
    if _is_one(a):
        return b
    if _is_one(b):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    if is_zero(a):
        return _ZERO
    if _is_one(b):
        return a
    return Div(a, b)


def neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def power(base: Expr, exponent: int) -> Expr:
    if exponent < 0:
        raise ValueError("exponent must be a nonnegative integer")
    if exponent == 0:
        return _ONE
    if exponent == 1:
        return base
    if isinstance(base, Const):
        return Const(base.value**exponent)
    return Pow(base, int(exponent))


def call(func: str, arg: Expr) -> Expr:
    if func not in _FUNCTIONS:
        raise ValueError(f"unknown function {func!r}")
    if isinstance(arg, Const):
        return Const(getattr(math, func)(arg.value))
    return Call(func, arg)


# ---------------------------------------------------------------------------
# parsing

_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_INT_RE = re.compile(r"\d+")


class _Parser:
    def __init__(self, text: str, n: int):
        self.text = text
        self.n = n
        self.pos = 0
        self.nesting = 0

    def fail(self, message, position=None):
        raise ParseError(message, self.pos if position is None else position)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch):
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expression(self) -> Expr:
        node = self.term()
        while True:
            if self.take("+"):
                node = add(node, self.term())
            elif self.take("-"):
                node = sub(node, self.term())
            else:
                return node

    def term(self) -> Expr:
        node = self.unary()
        while True:
            if self.take("*"):
                node = mul(node, self.unary())
            elif self.take("/"):
                node = div(node, self.unary())
            else:
                return node

    def nested(self, parse, start):
        """``parse()`` one nesting level down."""
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            self.fail(f"expression nested deeper than {MAX_DEPTH} levels", start)
        node = parse()
        self.nesting -= 1
        return node

    def unary(self) -> Expr:
        if self.take("-"):
            return neg(self.nested(self.unary, self.pos - 1))
        return self.power_chain()

    def power_chain(self) -> Expr:
        node = self.atom()
        while self.take("^"):
            node = power(node, self.integer_literal())
        return node

    def integer_literal(self) -> int:
        self.skip_ws()
        m = _INT_RE.match(self.text, self.pos)
        if not m:
            self.fail("exponent must be a nonnegative integer literal")
        end = m.end()
        if end < len(self.text) and self.text[end] == ".":
            self.fail("exponent must be a nonnegative integer literal")
        self.pos = end
        return int(m.group())

    def atom(self) -> Expr:
        self.skip_ws()
        if self.pos >= len(self.text):
            self.fail("unexpected end of input")
        ch = self.text[self.pos]
        if ch == "(":
            self.pos += 1
            node = self.nested(self.expression, self.pos - 1)
            if not self.take(")"):
                self.fail("expected ')'")
            return node
        m = _NUMBER_RE.match(self.text, self.pos)
        if m:
            value = float(m.group())
            if not math.isfinite(value):
                self.fail(f"number {m.group()} is out of range", self.pos)
            self.pos = m.end()
            return Const(value)
        m = _IDENT_RE.match(self.text, self.pos)
        if m:
            name = m.group()
            start = self.pos
            self.pos = m.end()
            if name == "pi":
                return Const(math.pi)
            if name in _FUNCTIONS:
                if not self.take("("):
                    self.fail(f"function {name!r} requires parentheses", start)
                node = self.nested(self.expression, start)
                if not self.take(")"):
                    self.fail("expected ')'")
                return call(name, node)
            if name[0] == "x" and name[1:].isdigit():
                index = int(name[1:])
                if index >= self.n:
                    self.fail(f"variable x{index} out of range for dimension {self.n}", start)
                return Var(index)
            self.fail(f"unknown identifier {name!r}", start)
        self.fail(f"unexpected character {ch!r}")


def parse(text: str, n: int) -> Expr:
    """Parse ``text`` as an expression in the variables ``x0 .. x{n-1}``."""
    p = _Parser(text, n)
    try:
        node = p.expression()
    except OverflowError:  # folding constants, as in exp(1000) or 10^400
        p.fail("constant out of range")
    p.skip_ws()
    if p.pos < len(text):
        p.fail("unexpected trailing input")
    if len(text) > MAX_DEPTH and _depth(node) > MAX_DEPTH:  # each level takes a character
        p.fail(f"expression tree deeper than {MAX_DEPTH} levels (a long chain of operators)", 0)
    return node


def _depth(e: Expr) -> int:
    """Height of the tree, found without recursion."""
    best, stack = 0, [(e, 1)]
    while stack:
        node, d = stack.pop()
        best = max(best, d)
        stack.extend((c, d + 1) for c in (getattr(node, f) for f in node.__slots__) if isinstance(c, Expr))
    return best


# ---------------------------------------------------------------------------
# evaluation

def _eval(e: Expr, pts: np.ndarray):
    match e:
        case Const(value=v):
            return v
        case Var(index=i):
            if i >= pts.shape[1]:
                raise EvaluationError(f"variable x{i} out of range for point dimension {pts.shape[1]}")
            return pts[:, i]
        case Neg(arg=u):
            return -_eval(u, pts)
        case Add(left=a, right=b):
            return _eval(a, pts) + _eval(b, pts)
        case Sub(left=a, right=b):
            return _eval(a, pts) - _eval(b, pts)
        case Mul(left=a, right=b):
            return _eval(a, pts) * _eval(b, pts)
        case Div(left=a, right=b):
            den = _eval(b, pts)
            if np.any(np.asarray(den) == 0.0):
                raise EvaluationError("division by zero")
            return _eval(a, pts) / den
        case Pow(base=b, exponent=k):
            return _eval(b, pts) ** k
        case Call(func=f, arg=u):
            return getattr(np, f)(_eval(u, pts))
    raise TypeError(f"not an expression node: {e!r}")


def evaluate_many(e: Expr, points) -> np.ndarray:
    """Evaluate at a batch of points, shape (P, n); returns shape (P,)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-d array (P, n)")
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        out = _eval(e, pts)
    out = np.asarray(out, dtype=float)
    if out.ndim == 0:
        out = np.full(pts.shape[0], float(out))
    if not np.all(np.isfinite(out)):
        raise EvaluationError("expression evaluated to a non-finite value")
    return out


def evaluate(e: Expr, point) -> float:
    """Evaluate at a single point (sequence of n reals)."""
    pt = np.asarray(point, dtype=float)
    if pt.ndim != 1:
        raise ValueError("point must be a 1-d sequence")
    return float(evaluate_many(e, pt[None, :])[0])


# ---------------------------------------------------------------------------
# differentiation

def partial(e: Expr, axis: int) -> Expr:
    """Exact symbolic partial derivative with respect to ``x{axis}``."""
    match e:
        case Const():
            return _ZERO
        case Var(index=i):
            return _ONE if i == axis else _ZERO
        case Neg(arg=u):
            return neg(partial(u, axis))
        case Add(left=a, right=b):
            return add(partial(a, axis), partial(b, axis))
        case Sub(left=a, right=b):
            return sub(partial(a, axis), partial(b, axis))
        case Mul(left=a, right=b):
            return add(mul(partial(a, axis), b), mul(a, partial(b, axis)))
        case Div(left=a, right=b):
            num = sub(mul(partial(a, axis), b), mul(a, partial(b, axis)))
            return div(num, power(b, 2))
        case Pow(base=b, exponent=k):
            return mul(Const(float(k)), mul(power(b, k - 1), partial(b, axis)))
        case Call(func=f, arg=u):
            du = partial(u, axis)
            if f == "sin":
                return mul(call("cos", u), du)
            if f == "cos":
                return neg(mul(call("sin", u), du))
            return mul(e, du)
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# structural helpers

def variables_of(e: Expr) -> set[int]:
    match e:
        case Const():
            return set()
        case Var(index=i):
            return {i}
        case Neg(arg=u) | Call(arg=u) | Pow(base=u):
            return variables_of(u)
        case Add(left=a, right=b) | Sub(left=a, right=b) | Mul(left=a, right=b) | Div(left=a, right=b):
            return variables_of(a) | variables_of(b)
    raise TypeError(f"not an expression node: {e!r}")


def shift_variables(e: Expr, offset: int) -> Expr:
    """Rename every variable ``xi`` to ``x{i+offset}``."""
    match e:
        case Const():
            return e
        case Var(index=i):
            return Var(i + offset)
        case Neg(arg=u):
            return Neg(shift_variables(u, offset))
        case Add(left=a, right=b):
            return Add(shift_variables(a, offset), shift_variables(b, offset))
        case Sub(left=a, right=b):
            return Sub(shift_variables(a, offset), shift_variables(b, offset))
        case Mul(left=a, right=b):
            return Mul(shift_variables(a, offset), shift_variables(b, offset))
        case Div(left=a, right=b):
            return Div(shift_variables(a, offset), shift_variables(b, offset))
        case Pow(base=b, exponent=k):
            return Pow(shift_variables(b, offset), k)
        case Call(func=f, arg=u):
            return Call(f, shift_variables(u, offset))
    raise TypeError(f"not an expression node: {e!r}")


# levels for the printer: + - / * / unary - / ^ / atoms
_LVL_ADD, _LVL_MUL, _LVL_NEG, _LVL_POW, _LVL_ATOM = 1, 2, 3, 4, 5


def _fmt(e: Expr) -> tuple[str, int]:
    match e:
        case Const(value=v):
            s = repr(v)
            return (f"({s})", _LVL_ATOM) if v < 0 else (s, _LVL_ATOM)
        case Var(index=i):
            return f"x{i}", _LVL_ATOM
        case Call(func=f, arg=u):
            return f"{f}({_fmt(u)[0]})", _LVL_ATOM
        case Pow(base=b, exponent=k):
            bs, bl = _fmt(b)
            if bl < _LVL_ATOM:
                bs = f"({bs})"
            return f"{bs}^{k}", _LVL_POW
        case Neg(arg=u):
            us, ul = _fmt(u)
            if ul < _LVL_NEG:
                us = f"({us})"
            return f"-{us}", _LVL_NEG
        case Mul(left=a, right=b):
            return _fmt_binary(a, b, "*", _LVL_MUL, right_strict=False), _LVL_MUL
        case Div(left=a, right=b):
            return _fmt_binary(a, b, "/", _LVL_MUL, right_strict=True), _LVL_MUL
        case Add(left=a, right=b):
            return _fmt_binary(a, b, " + ", _LVL_ADD, right_strict=False), _LVL_ADD
        case Sub(left=a, right=b):
            return _fmt_binary(a, b, " - ", _LVL_ADD, right_strict=True), _LVL_ADD
    raise TypeError(f"not an expression node: {e!r}")


def _fmt_binary(a: Expr, b: Expr, op: str, level: int, right_strict: bool) -> str:
    al, all_ = _fmt(a)
    bl, bll = _fmt(b)
    if all_ < level:
        al = f"({al})"
    if bll < level or (right_strict and bll == level):
        bl = f"({bl})"
    return f"{al}{op}{bl}"


def to_string(e: Expr) -> str:
    """Render to text that reparses to a semantically equal expression."""
    return _fmt(e)[0]
