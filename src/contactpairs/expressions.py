"""Small arithmetic expression language for coefficient functions on charts.

Supported syntax: real literals, ``pi``, variables ``x0 .. x{n-1}``, the
binary operators ``+ - * /``, unary minus, ``^`` with a nonnegative integer
literal exponent, and the functions ``sin``, ``cos``, ``exp``.  Precedence is
``^`` above unary minus above ``* /`` above ``+ -``; binary operators of equal
precedence associate to the left.

Expressions are immutable trees.  Differentiation is exact and symbolic;
evaluation raises instead of ever returning a non-finite value silently.
A derivative tree shares subtrees (that of a quotient refers to the
numerator, the denominator and their derivatives), so ``partial``,
``evaluate_many``, ``variables_of``, ``shift_variables`` and ``to_string``
visit each node once per call: they remember what they found per node
object, by ``id``, not by equality, which would take ``Const(-0.0)`` for
``Const(0.0)``; a ``Known`` carries values across ``evaluate_many`` calls
on one point set, by structure.  ``shift_variables`` shares the copy of a shared subtree
as the original shares it, so a pulled-back derivative keeps its sharing.  ``evaluate_many`` keeps the
values of a shared node only until its last reference.
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
    "Known",
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


def _children(e: Expr):
    """The subexpressions e refers to, in field order."""
    return (c for c in (getattr(e, f) for f in e.__slots__) if isinstance(c, Expr))


def _depth(e: Expr) -> int:
    """Height of the tree, found without recursion."""
    best, stack = 0, [(e, 1)]
    while stack:
        node, d = stack.pop()
        best = max(best, d)
        stack.extend((c, d + 1) for c in _children(node))
    return best


# ---------------------------------------------------------------------------
# evaluation

def _shared_nodes(e: Expr) -> dict:
    """id(node) -> [references, None] for each inner node of e that more
    than one parent refers to, found in one walk over the distinct nodes."""
    refs, stack = {}, [e]
    while stack:
        for child in _children(stack.pop()):
            if not isinstance(child, (Const, Var)):
                seen = refs.get(id(child), 0)
                refs[id(child)] = seen + 1
                if not seen:
                    stack.append(child)
    return {key: [count, None] for key, count in refs.items() if count > 1}


def _eval(e: Expr, pts: np.ndarray, shared: dict, known: Known | None = None):
    """The values of e at pts.  ``shared`` (``_shared_nodes``) keeps the
    values of a node that several parents refer to from its evaluation to
    its last reference, so that it is evaluated once and dropped then; the
    values of every other node are dropped once their parent has used them,
    as in a walk of a tree.  A call node is looked up in ``known`` and
    recorded there.  Values are never written to."""
    match e:
        case Const(value=v):
            return v
        case Var(index=i):
            if i >= pts.shape[1]:
                raise EvaluationError(f"variable x{i} out of range for point dimension {pts.shape[1]}")
            return pts[:, i]
    entry = shared.get(id(e))
    if entry is not None and entry[1] is not None:
        entry[0] -= 1
        if not entry[0]:
            del shared[id(e)]
        return entry[1]
    match e:
        case Neg(arg=u):
            out = -_eval(u, pts, shared, known)
        case Add(left=a, right=b):
            out = _eval(a, pts, shared, known) + _eval(b, pts, shared, known)
        case Sub(left=a, right=b):
            out = _eval(a, pts, shared, known) - _eval(b, pts, shared, known)
        case Mul(left=a, right=b):
            out = _eval(a, pts, shared, known) * _eval(b, pts, shared, known)
        case Div(left=a, right=b):
            den = _eval(b, pts, shared, known)
            if np.any(np.asarray(den) == 0.0):
                raise EvaluationError("division by zero")
            out = _eval(a, pts, shared, known) / den
        case Pow(base=b, exponent=k):
            out = _eval(b, pts, shared, known) ** k
        case Call(func=f, arg=u):
            out = None if known is None else known.get(e)
            if out is None:
                out = getattr(np, f)(_eval(u, pts, shared, known))
                if known is not None:
                    known.add(e, out)
        case _:
            raise TypeError(f"not an expression node: {e!r}")
    if entry is not None:
        entry[0] -= 1
        entry[1] = out
    return out


class Known:
    """Values at one point set of the call nodes (sin, cos, exp) that
    ``evaluate_many`` evaluated with it, and of the expressions ``add``
    recorded, found again by structure: node by node, a constant by its
    value and sign, so ``Const(-0.0)`` is not ``Const(0.0)``.  A node object
    is keyed once and held, so that its ``id`` is not reused."""

    def __init__(self):
        # id(node) -> (node, key); (type, fields with keys for children) -> key; key -> values
        self._nodes, self._keys, self._values = {}, {}, {}

    def key(self, e: Expr) -> int:
        found = self._nodes.get(id(e))
        if found is None:
            parts = tuple(self.key(v) if isinstance(v, Expr) else (v, math.copysign(1.0, v)) if isinstance(v, float)
                          else v for v in (getattr(e, f) for f in e.__slots__))
            found = self._nodes[id(e)] = e, self._keys.setdefault((type(e), parts), len(self._keys))
        return found[1]

    def get(self, e: Expr):
        return self._values.get(self.key(e))

    def add(self, e: Expr, values) -> None:
        self._values[self.key(e)] = values


def evaluate_many(e: Expr, points, known: Known | None = None) -> np.ndarray:
    """Evaluate at a batch of points, shape (P, n); returns shape (P,).
    A call node whose values ``known`` holds for these points is read from
    it, and every other is recorded there."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-d array (P, n)")
    out = _values(e, pts, known)
    if not np.all(np.isfinite(out)):
        raise EvaluationError("expression evaluated to a non-finite value")
    return out


def _values(e: Expr, pts: np.ndarray, known: Known | None = None) -> np.ndarray:
    """The values of e at the (P, n) points pts, inf or NaN where it overflows."""
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        out = _eval(e, pts, _shared_nodes(e), known)
    out = np.asarray(out, dtype=float)
    return np.full(pts.shape[0], float(out)) if out.ndim == 0 else out


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
    return _partial(e, axis, {})


def _partial(e: Expr, axis: int, memo: dict) -> Expr:
    """partial(e, axis); ``memo`` maps id(node) to the derivative of each
    node taken so far in this call, so a shared subtree is differentiated
    once and its derivative shared in turn."""
    match e:
        case Const():
            return _ZERO
        case Var(index=i):
            return _ONE if i == axis else _ZERO
        case _ if id(e) in memo:
            return memo[id(e)]
        case Neg(arg=u):
            out = neg(_partial(u, axis, memo))
        case Add(left=a, right=b):
            out = add(_partial(a, axis, memo), _partial(b, axis, memo))
        case Sub(left=a, right=b):
            out = sub(_partial(a, axis, memo), _partial(b, axis, memo))
        case Mul(left=a, right=b):
            out = add(mul(_partial(a, axis, memo), b), mul(a, _partial(b, axis, memo)))
        case Div(left=a, right=b):
            num = sub(mul(_partial(a, axis, memo), b), mul(a, _partial(b, axis, memo)))
            out = div(num, power(b, 2))
        case Pow(base=b, exponent=k):
            out = mul(Const(float(k)), mul(power(b, k - 1), _partial(b, axis, memo)))
        case Call(func=f, arg=u):
            du = _partial(u, axis, memo)
            if f == "sin":
                out = mul(call("cos", u), du)
            elif f == "cos":
                out = neg(mul(call("sin", u), du))
            else:
                out = mul(e, du)
        case _:
            raise TypeError(f"not an expression node: {e!r}")
    memo[id(e)] = out
    return out


# ---------------------------------------------------------------------------
# structural helpers

def variables_of(e: Expr) -> set[int]:
    return _variables(e, {})


def _variables(e: Expr, memo: dict) -> set[int]:
    """The variables of e; ``memo`` maps id(node) to those of each inner
    node visited so far in this call, which are never written to."""
    match e:
        case Const():
            return set()
        case Var(index=i):
            return {i}
        case _ if id(e) in memo:
            return memo[id(e)]
        case Neg(arg=u) | Call(arg=u) | Pow(base=u):
            out = _variables(u, memo)
        case Add(left=a, right=b) | Sub(left=a, right=b) | Mul(left=a, right=b) | Div(left=a, right=b):
            out = _variables(a, memo) | _variables(b, memo)
        case _:
            raise TypeError(f"not an expression node: {e!r}")
    memo[id(e)] = out
    return out


def shift_variables(e: Expr, offset: int) -> Expr:
    """Rename every variable ``xi`` to ``x{i+offset}``."""
    return _shift(e, offset, {})


def _shift(e: Expr, offset: int, memo: dict) -> Expr:
    """shift_variables(e, offset); ``memo`` maps id(node) to the copy of
    each inner node made so far in this call, so a shared subtree is copied
    once and its copy shared in turn."""
    match e:
        case Const():
            return e
        case Var(index=i):
            return Var(i + offset)
        case _ if id(e) in memo:
            return memo[id(e)]
        case Neg(arg=u):
            out = Neg(_shift(u, offset, memo))
        case Add(left=a, right=b):
            out = Add(_shift(a, offset, memo), _shift(b, offset, memo))
        case Sub(left=a, right=b):
            out = Sub(_shift(a, offset, memo), _shift(b, offset, memo))
        case Mul(left=a, right=b):
            out = Mul(_shift(a, offset, memo), _shift(b, offset, memo))
        case Div(left=a, right=b):
            out = Div(_shift(a, offset, memo), _shift(b, offset, memo))
        case Pow(base=b, exponent=k):
            out = Pow(_shift(b, offset, memo), k)
        case Call(func=f, arg=u):
            out = Call(f, _shift(u, offset, memo))
        case _:
            raise TypeError(f"not an expression node: {e!r}")
    memo[id(e)] = out
    return out


# levels for the printer: + - / * / unary - / ^ / atoms
_LVL_ADD, _LVL_MUL, _LVL_NEG, _LVL_POW, _LVL_ATOM = 1, 2, 3, 4, 5


def _fmt(e: Expr, memo: dict) -> tuple[str, int]:
    """(text, level) of e; ``memo`` maps id(node) to those of each inner
    node printed so far in this call."""
    match e:
        case Const(value=v):
            s = repr(v)
            return (f"({s})", _LVL_ATOM) if v < 0 else (s, _LVL_ATOM)
        case Var(index=i):
            return f"x{i}", _LVL_ATOM
        case _ if id(e) in memo:
            return memo[id(e)]
        case Call(func=f, arg=u):
            out = f"{f}({_fmt(u, memo)[0]})", _LVL_ATOM
        case Pow(base=b, exponent=k):
            bs, bl = _fmt(b, memo)
            if bl < _LVL_ATOM:
                bs = f"({bs})"
            out = f"{bs}^{k}", _LVL_POW
        case Neg(arg=u):
            us, ul = _fmt(u, memo)
            if ul < _LVL_NEG:
                us = f"({us})"
            out = f"-{us}", _LVL_NEG
        case Mul(left=a, right=b):
            out = _fmt_binary(a, b, "*", _LVL_MUL, False, memo), _LVL_MUL
        case Div(left=a, right=b):
            out = _fmt_binary(a, b, "/", _LVL_MUL, True, memo), _LVL_MUL
        case Add(left=a, right=b):
            out = _fmt_binary(a, b, " + ", _LVL_ADD, False, memo), _LVL_ADD
        case Sub(left=a, right=b):
            out = _fmt_binary(a, b, " - ", _LVL_ADD, True, memo), _LVL_ADD
        case _:
            raise TypeError(f"not an expression node: {e!r}")
    memo[id(e)] = out
    return out


def _fmt_binary(a: Expr, b: Expr, op: str, level: int, right_strict: bool, memo: dict) -> str:
    al, all_ = _fmt(a, memo)
    bl, bll = _fmt(b, memo)
    if all_ < level:
        al = f"({al})"
    if bll < level or (right_strict and bll == level):
        bl = f"({bl})"
    return f"{al}{op}{bl}"


def to_string(e: Expr) -> str:
    """Render to text that reparses to a semantically equal expression."""
    return _fmt(e, {})[0]
