import math

import numpy as np
import pytest

from contactpairs import expressions as ex


def test_parse_eval_basics():
    assert ex.evaluate(ex.parse("cos(x0)", 3), (0.0, 0.0, 0.0)) == 1.0
    assert ex.evaluate(ex.parse("x0*x1 + 2^3", 2), (1.0, 1.0)) == 9.0
    assert ex.evaluate(ex.parse("pi", 1), (0.0,)) == pytest.approx(math.pi, abs=0)


def test_trig_identity():
    e = ex.parse("sin(x0)^2 + cos(x0)^2", 1)
    rng = np.random.default_rng(3)
    for x in rng.uniform(-10, 10, 25):
        assert ex.evaluate(e, (x,)) == pytest.approx(1.0, abs=1e-15)


def test_variable_out_of_range():
    with pytest.raises(ex.ParseError) as err:
        ex.parse("x5", 3)
    assert err.value.position == 0


def test_syntax_error_position():
    with pytest.raises(ex.ParseError) as err:
        ex.parse("x0 + * 2", 2)
    assert err.value.position == 5


def test_unknown_identifier():
    with pytest.raises(ex.ParseError):
        ex.parse("tan(x0)", 1)


def test_division_by_zero():
    e = ex.parse("1/x0", 1)
    with pytest.raises(ex.EvaluationError):
        ex.evaluate(e, (0.0,))
    assert ex.evaluate(e, (2.0,)) == 0.5


def test_nonfinite_is_an_error():
    with pytest.raises(ex.EvaluationError):
        ex.evaluate(ex.parse("exp(x0)", 1), (1e6,))


def test_power_is_integer_literal_only():
    with pytest.raises(ex.ParseError):
        ex.parse("x0^2.5", 1)
    with pytest.raises(ex.ParseError):
        ex.parse("x0^-1", 1)
    # chained powers associate left: (2^3)^2
    assert ex.evaluate(ex.parse("2^3^2", 1), (0.0,)) == 64.0


def test_precedence():
    assert ex.evaluate(ex.parse("-2^2", 1), (0.0,)) == -4.0  # ^ binds above unary minus
    assert ex.evaluate(ex.parse("2 + 3*4", 1), (0.0,)) == 14.0
    assert ex.evaluate(ex.parse("10 - 2 - 3", 1), (0.0,)) == 5.0
    assert ex.evaluate(ex.parse("12/2/3", 1), (0.0,)) == 2.0


def test_partial_product_chain_rule():
    e = ex.parse("x0*sin(x1)", 2)
    d = ex.partial(e, 1)
    expected = ex.parse("x0*cos(x1)", 2)
    rng = np.random.default_rng(11)
    pts = rng.uniform(-3, 3, size=(100, 2))
    np.testing.assert_allclose(
        ex.evaluate_many(d, pts), ex.evaluate_many(expected, pts), atol=1e-12
    )


def test_partial_of_constant():
    assert ex.is_zero(ex.partial(ex.parse("pi*2", 1), 0))


@pytest.mark.parametrize(
    "text",
    [
        "sin(x0)*cos(x1) + x2^3",
        "exp(x0/4)*x1 - 2*x2",
        "(x0 + x1)^2/(1 + x2^2)",
        "cos(sin(x0)) + exp(x1*x2/8)",
    ],
)
def test_partial_matches_central_difference(text):
    e = ex.parse(text, 3)
    rng = np.random.default_rng(17)
    pts = rng.uniform(-1.5, 1.5, size=(40, 3))
    h = 1e-5
    for axis in range(3):
        d = ex.partial(e, axis)
        shift = np.zeros(3)
        shift[axis] = h
        fd = (ex.evaluate_many(e, pts + shift) - ex.evaluate_many(e, pts - shift)) / (2 * h)
        np.testing.assert_allclose(ex.evaluate_many(d, pts), fd, atol=1e-6)


def test_mixed_partials_commute():
    e = ex.parse("exp(x0*x1/8)*sin(x1 + x2)", 3)
    rng = np.random.default_rng(23)
    pts = rng.uniform(-2, 2, size=(50, 3))
    for i in range(3):
        for j in range(i + 1, 3):
            a = ex.partial(ex.partial(e, i), j)
            b = ex.partial(ex.partial(e, j), i)
            np.testing.assert_allclose(
                ex.evaluate_many(a, pts), ex.evaluate_many(b, pts), atol=1e-10
            )


@pytest.mark.parametrize(
    "text",
    [
        "x0",
        "-x0 + 2",
        "sin(x0)^2 + cos(x1)^2",
        "x0*x1/(1 + x2^2)",
        "-(x0 + x1)*exp(x2/4)",
        "2^3 - x1^4",
    ],
)
def test_round_trip(text):
    e = ex.parse(text, 3)
    back = ex.parse(ex.to_string(e), 3)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-2, 2, size=(100, 3))
    np.testing.assert_allclose(ex.evaluate_many(back, pts), ex.evaluate_many(e, pts), rtol=1e-14)


def test_round_trip_of_derivatives():
    e = ex.parse("x0^3*sin(x1)/(2 + cos(x2))", 3)
    rng = np.random.default_rng(7)
    pts = rng.uniform(-2, 2, size=(60, 3))
    for axis in range(3):
        d = ex.partial(e, axis)
        back = ex.parse(ex.to_string(d), 3)
        np.testing.assert_allclose(ex.evaluate_many(back, pts), ex.evaluate_many(d, pts), rtol=1e-14)


def test_batch_matches_scalar():
    e = ex.parse("sin(x0)*x1 + exp(x1/3)", 2)
    rng = np.random.default_rng(2)
    pts = rng.uniform(-2, 2, size=(10, 2))
    batch = ex.evaluate_many(e, pts)
    for row, val in zip(pts, batch):
        assert ex.evaluate(e, row) == pytest.approx(val, abs=0)


def test_shift_variables():
    e = ex.parse("sin(x0)*x1", 2)
    shifted = ex.shift_variables(e, 3)
    assert ex.variables_of(shifted) == {3, 4}
    pts = np.array([[9.0, 9.0, 9.0, 0.5, 2.0]])
    assert ex.evaluate_many(shifted, pts)[0] == pytest.approx(math.sin(0.5) * 2.0)


DEEP_TEXTS = {
    "unary-minus": "-" * 3000 + "x0",
    "calls": "sin(" * 3000 + "x0" + ")" * 3000,
    "product": "*".join(["x0"] * 3000),
    "powers": "x0" + "^2" * 3000,
}


@pytest.mark.parametrize("text", DEEP_TEXTS.values(), ids=DEEP_TEXTS.keys())
def test_deep_text_is_a_parse_error(text):
    with pytest.raises(ex.ParseError, match=f"deeper than {ex.MAX_DEPTH} levels"):
        ex.parse(text, 1)


def test_second_derivative_at_the_depth_limit_evaluates():
    # each derivative of a product chain doubles its depth: 100 -> 295 here
    e = ex.parse("*".join(["x0"] * ex.MAX_DEPTH), 1)
    d2 = ex.partial(ex.partial(e, 0), 0)
    assert ex.evaluate_many(d2, np.array([[1.0]]))[0] == ex.MAX_DEPTH * (ex.MAX_DEPTH - 1)
