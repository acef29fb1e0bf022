"""Shared subtrees are walked once: a derivative tree refers to subtrees
more than once, and ``partial``, ``evaluate_many``, ``variables_of``,
``shift_variables`` and ``to_string`` visit each node object once per
call, keyed by identity.  Their results must equal, bit for bit and sign
of zero included, those of the plain walk per reference, which is kept
here as the reference."""

import time

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from contactpairs import expressions as ex  # noqa: E402



def _tree_eval(e, pts):
    """Evaluation that walks a shared subtree once per reference to it: the
    reference the memoised walk of ``evaluate_many`` must equal bit for bit."""
    match e:
        case ex.Const(value=v):
            return v
        case ex.Var(index=i):
            return pts[:, i]
        case ex.Neg(arg=u):
            return -_tree_eval(u, pts)
        case ex.Add(left=a, right=b):
            return _tree_eval(a, pts) + _tree_eval(b, pts)
        case ex.Sub(left=a, right=b):
            return _tree_eval(a, pts) - _tree_eval(b, pts)
        case ex.Mul(left=a, right=b):
            return _tree_eval(a, pts) * _tree_eval(b, pts)
        case ex.Div(left=a, right=b):
            den = _tree_eval(b, pts)
            if np.any(np.asarray(den) == 0.0):
                raise ex.EvaluationError("division by zero")
            return _tree_eval(a, pts) / den
        case ex.Pow(base=b, exponent=k):
            return _tree_eval(b, pts) ** k
        case ex.Call(func=f, arg=u):
            return getattr(np, f)(_tree_eval(u, pts))


def _tree_evaluate_many(e, pts):
    """``evaluate_many`` on ``_tree_eval``: its values, or the error class."""
    try:
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            out = np.asarray(_tree_eval(e, pts), dtype=float)
    except ex.EvaluationError:
        return ex.EvaluationError
    if out.ndim == 0:
        out = np.full(pts.shape[0], float(out))
    return out if np.all(np.isfinite(out)) else ex.EvaluationError


def _tree_partial(e, axis):
    """Differentiation that walks a shared subtree once per reference."""
    match e:
        case ex.Const():
            return ex.const(0.0)
        case ex.Var(index=i):
            return ex.const(1.0 if i == axis else 0.0)
        case ex.Neg(arg=u):
            return ex.neg(_tree_partial(u, axis))
        case ex.Add(left=a, right=b):
            return ex.add(_tree_partial(a, axis), _tree_partial(b, axis))
        case ex.Sub(left=a, right=b):
            return ex.sub(_tree_partial(a, axis), _tree_partial(b, axis))
        case ex.Mul(left=a, right=b):
            return ex.add(ex.mul(_tree_partial(a, axis), b), ex.mul(a, _tree_partial(b, axis)))
        case ex.Div(left=a, right=b):
            num = ex.sub(ex.mul(_tree_partial(a, axis), b), ex.mul(a, _tree_partial(b, axis)))
            return ex.div(num, ex.power(b, 2))
        case ex.Pow(base=b, exponent=k):
            return ex.mul(ex.const(k), ex.mul(ex.power(b, k - 1), _tree_partial(b, axis)))
        case ex.Call(func=f, arg=u):
            du = _tree_partial(u, axis)
            if f == "sin":
                return ex.mul(ex.call("cos", u), du)
            if f == "cos":
                return ex.neg(ex.mul(ex.call("sin", u), du))
            return ex.mul(e, du)


def _tree_shift(e, offset):
    """Renaming that copies a shared subtree once per reference."""
    match e:
        case ex.Const():
            return e
        case ex.Var(index=i):
            return ex.Var(i + offset)
        case ex.Pow(base=b, exponent=k):
            return ex.Pow(_tree_shift(b, offset), k)
        case ex.Call(func=f, arg=u):
            return ex.Call(f, _tree_shift(u, offset))
    return type(e)(*(_tree_shift(getattr(e, f), offset) for f in e.__slots__))


_LEVELS = {ex.Add: 1, ex.Sub: 1, ex.Mul: 2, ex.Div: 2}
_OPS = {ex.Add: " + ", ex.Sub: " - ", ex.Mul: "*", ex.Div: "/"}


def _tree_fmt(e):
    """Printing that walks a shared subtree once per reference: (text, level)."""
    match e:
        case ex.Const(value=v):
            return (f"({v!r})" if v < 0 else repr(v)), 5
        case ex.Var(index=i):
            return f"x{i}", 5
        case ex.Call(func=f, arg=u):
            return f"{f}({_tree_fmt(u)[0]})", 5
        case ex.Pow(base=b, exponent=k):
            bs, bl = _tree_fmt(b)
            return f"{bs if bl == 5 else f'({bs})'}^{k}", 4
        case ex.Neg(arg=u):
            us, ul = _tree_fmt(u)
            return f"-{us if ul >= 3 else f'({us})'}", 3
    level = _LEVELS[type(e)]
    (al, a_level), (bl, b_level) = _tree_fmt(e.left), _tree_fmt(e.right)
    if a_level < level:
        al = f"({al})"
    if b_level < level or (isinstance(e, (ex.Sub, ex.Div)) and b_level == level):
        bl = f"({bl})"
    return f"{al}{_OPS[type(e)]}{bl}", level


def _same_tree(a, b) -> bool:
    """Structural equality that tells the constant -0.0 from +0.0."""
    if type(a) is not type(b):
        return False
    if isinstance(a, ex.Const):
        return repr(a.value) == repr(b.value)
    return all(
        _same_tree(x, y) if isinstance(x, ex.Expr) else x == y
        for x, y in ((getattr(a, f), getattr(b, f)) for f in a.__slots__)
    )


def _tree_variables(e) -> set:
    if isinstance(e, ex.Var):
        return {e.index}
    return set().union(*(_tree_variables(getattr(e, f)) for f in e.__slots__ if isinstance(getattr(e, f), ex.Expr)))


def test_second_partial_of_a_deep_quotient_chain_takes_linear_time():
    # the chain x0/(2+x0)/.../(2+x0), 98 quotients deep: its derivatives
    # share subtrees, which a walk per reference took seconds to evaluate
    e = ex.parse("x0" + "/(2+x0)" * 98, 1)
    start = time.perf_counter()
    d2 = ex.partial(ex.partial(e, 0), 0)
    value = ex.evaluate_many(d2, np.array([[0.3]]))
    assert ex.variables_of(d2) == {0}
    assert time.perf_counter() - start < 2.0
    assert np.isfinite(value).all()


def test_pulled_back_second_partial_of_a_deep_chain_shifts_and_evaluates_in_budget():
    # the 49-deep chain x0/(2+x0)/..., its second partial renamed to x3 as a
    # pullback to the right factor of a product does: a walk per reference
    # took about 0.4 s to shift and 0.9 s to evaluate the copy, whose shared
    # subtrees it had unshared
    d2 = ex.partial(ex.partial(ex.parse("x0" + "/(2+x0)" * 49, 1), 0), 0)
    pts = np.array([[0.0, 0.0, 0.0, 0.3], [0.0, 0.0, 0.0, -0.7]])
    start = time.perf_counter()
    shifted = ex.shift_variables(d2, 3)
    values = ex.evaluate_many(shifted, pts)
    assert time.perf_counter() - start < 0.25
    assert ex.variables_of(shifted) == {3}
    assert values.tobytes() == ex.evaluate_many(d2, pts[:, 3:]).tobytes()


def test_shift_and_print_equal_the_walk_per_reference():
    d2 = ex.partial(ex.partial(ex.parse("x0" + "/(2+x0)" * 12 + "*sin(x1)", 2), 0), 1)
    pts = np.random.default_rng(12).uniform(-1.0, 1.0, (64, 6))
    got, want = ex.shift_variables(d2, 4), _tree_shift(d2, 4)
    assert _same_tree(got, want)
    assert ex.evaluate_many(got, pts).tobytes() == _tree_evaluate_many(want, pts).tobytes()
    assert ex.to_string(d2) == _tree_fmt(d2)[0]
    assert ex.to_string(got) == _tree_fmt(want)[0]


def test_deep_chain_derivatives_equal_the_walk_per_reference():
    e = ex.parse("x0" + "/(2+x0)" * 12 + "*sin(x1)", 2)
    pts = np.random.default_rng(11).uniform(-1.0, 1.0, (64, 2))
    for axes in ((0,), (0, 0), (0, 1), (1, 1)):
        got = want = e
        for axis in axes:
            got, want = ex.partial(got, axis), _tree_partial(want, axis)
        assert _same_tree(got, want)
        assert ex.evaluate_many(got, pts).tobytes() == _tree_evaluate_many(want, pts).tobytes()
        assert ex.variables_of(got) == _tree_variables(want)


def test_shared_subtrees_are_told_apart_by_identity_not_equality():
    # Const(-0.0) == Const(0.0), yet -0.0 * x0 and 0.0 * x0 differ in sign:
    # a memo keyed by equality would give both the sign of the first
    x = ex.Var(0)
    e = ex.Sub(ex.Mul(ex.Const(-0.0), x), ex.Mul(ex.Const(0.0), x))
    assert ex.Mul(ex.Const(-0.0), x) == ex.Mul(ex.Const(0.0), x)
    got = ex.evaluate_many(e, np.array([[1.0], [2.0]]))
    assert np.signbit(got).all() and not got.any()  # (-0.0) - (+0.0) = -0.0
    assert got.tobytes() == _tree_evaluate_many(e, np.array([[1.0], [2.0]])).tobytes()
    # so are the copy of a shift and the text of a print
    y = ex.Var(1)
    assert _same_tree(ex.shift_variables(e, 1), ex.Sub(ex.Mul(ex.Const(-0.0), y), ex.Mul(ex.Const(0.0), y)))
    assert ex.to_string(e) == "-0.0*x0 - 0.0*x0"


_LEAVES = [ex.Var(0), ex.Var(1), ex.Var(2), ex.Const(0.0), ex.Const(-0.0), ex.Const(1.0), ex.Const(-2.5), ex.Const(0.5)]


@st.composite
def _dags(draw):
    """An expression whose nodes reuse earlier nodes as children, so that
    subtrees are shared as in a derivative tree."""
    nodes = list(_LEAVES)
    for _ in range(draw(st.integers(1, 14))):
        op = draw(st.sampled_from(("add", "sub", "mul", "div", "neg", "pow", "sin", "cos", "exp")))
        a, b = draw(st.sampled_from(nodes)), draw(st.sampled_from(nodes))
        if op in ("neg",):
            nodes.append(ex.Neg(a))
        elif op == "pow":
            nodes.append(ex.Pow(a, draw(st.integers(2, 3))))
        elif op in ("sin", "cos", "exp"):
            nodes.append(ex.Call(op, a))
        else:
            nodes.append({"add": ex.Add, "sub": ex.Sub, "mul": ex.Mul, "div": ex.Div}[op](a, b))
    return nodes[-1]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_dags(), st.integers(0, 2**32 - 1))
def test_memoised_walks_equal_the_walk_per_reference(e, seed):
    pts = np.random.default_rng(seed).uniform(-2.0, 2.0, (16, 3))
    got = want = e
    for axis in (None, 0, 2):
        if axis is not None:
            got, want = ex.partial(got, axis), _tree_partial(want, axis)
        assert _same_tree(got, want)
        assert ex.variables_of(got) == _tree_variables(want)
        assert _same_tree(ex.shift_variables(got, 3), _tree_shift(want, 3))
        assert ex.to_string(got) == _tree_fmt(want)[0]
        reference = _tree_evaluate_many(want, pts)
        if reference is ex.EvaluationError:
            with pytest.raises(ex.EvaluationError):
                ex.evaluate_many(got, pts)
        else:
            values = ex.evaluate_many(got, pts)
            assert values.tobytes() == reference.tobytes()
