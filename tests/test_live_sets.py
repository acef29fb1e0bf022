"""Property test of the carried live sets: sampled forms whose coefficients
include the constant +0, the constant -0 and the numerically zero x0-x0.

Only the components that are not the constant +0 are formed and read
(``FormField.live``, ``SampledFamily.at``, the carried chains), and every
array must be byte for byte, signs of zero included, that of a dense
reference in which every component is live: the forms evaluated coefficient
by coefficient, and the samples at t formed as closed + t * direction on
every component.  So must the Reeb pair and its residual, whose kernels
read the live sets of the chains.
"""

import copy

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from contactpairs import expressions as ex  # noqa: E402
from contactpairs.contact import SampledPair  # noqa: E402
from contactpairs.deformation import DeformationFamily, SampledFamily  # noqa: E402
from contactpairs.fields import FormField  # noqa: E402
from contactpairs.models import torus  # noqa: E402
from test_reeb_formula import dense_reeb_pair  # noqa: E402

MODEL = torus(6)
ZEROS = ("0", "-0", "x0-x0")
# closed: constant coefficients, or one of the zeros
CLOSED = ZEROS + ("1.5", "-0.5")
DIRECTION = ZEROS + ("1.5", "sin(x1)", "0.5*cos(x2)", "x4-x3", "cos(x0)*sin(x5)")
# t = 1e308 overflows the chains, inf makes every component live
T_GRID = (-10.0, -1.0, -0.01, 0.5, 1.0, 1e308, np.inf)


def same(got, want) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return (
        got.shape == want.shape
        and got.tobytes() == want.tobytes()
        and np.array_equal(np.signbit(got), np.signbit(want))
    )


def dense_values(form: FormField, pts) -> np.ndarray:
    """Every coefficient evaluated, the constants filled in as they are."""
    return np.column_stack([ex.evaluate_many(c, pts) for c in form.coeffs])


def dense(pair: SampledPair) -> SampledPair:
    """The pair with every component live and the plain scales as bounds."""
    arrays = (pair.alpha, pair.beta, pair.dalpha, pair.dbeta)
    live = tuple((tuple(range(v.shape[-1])), np.max(np.abs(v), axis=(-2, -1))) for v in arrays)
    return SampledPair(pair.points, pair.n, [np.moveaxis(v, -1, 0) for v in arrays], live, forms=pair.forms)


def certified(pair: SampledPair) -> tuple:
    """The certificate arrays of type (1, 1) of the pair and its Reeb pair
    with the residual."""
    arrays, chains = pair.certificate_arrays(1, 1)
    return (*arrays, *dense_reeb_pair(pair, chains))


def one_form(draw, choices, fixed=None):
    coeffs = [draw(st.sampled_from(choices)) for _ in range(MODEL.n)]
    if fixed is not None:
        coeffs[fixed] = "1"
    return FormField(MODEL, 1, coeffs)


@st.composite
def families(draw):
    # alpha0 = dx0 + .., beta0 = dx3 + ..: closed, and independent unless
    # the constants line up (then the family is skipped)
    alpha0, beta0 = one_form(draw, CLOSED, 0), one_form(draw, CLOSED, 3)
    alpha, beta = one_form(draw, DIRECTION), one_form(draw, DIRECTION)
    return DeformationFamily(alpha0, beta0, alpha, beta, 1, 1)


@settings(max_examples=24, deadline=None, derandomize=True)
@given(families(), st.sampled_from((1, 2049, 10_000)), st.integers(0, 2**32 - 1))
def test_the_live_path_equals_the_dense_reference(family, count, seed):
    pts = np.random.default_rng(seed).uniform(0.0, 2 * np.pi, (count, MODEL.n))
    try:
        sampled = SampledFamily(family, pts, 1e-8)
    except ValueError:
        assume(False)  # alpha0 and beta0 dependent somewhere
    for pair, forms in ((sampled.closed, (family.alpha0, family.beta0)), (sampled.direction, (family.alpha, family.beta))):
        fields = (*forms, forms[0].d(), forms[1].d())
        for values, rows, field in zip((pair.alpha, pair.beta, pair.dalpha, pair.dbeta), pair.rows, fields):
            assert same(values, dense_values(field, pts))
            # component-major rows of the live components alone
            assert rows.flags.c_contiguous and same(rows, values.T[list(field.live)])
        assert all(same(a, b) for a, b in zip(pair.scales(), dense(pair).scales()))

    reference = copy.copy(sampled)
    reference.closed, reference.direction = dense(sampled.closed), dense(sampled.direction)
    reference._plans, reference._buffers = {}, {}  # plans of every component, from the dense pairs
    c, d = sampled.closed, sampled.direction
    with np.errstate(over="ignore", invalid="ignore"):
        for t in T_GRID:
            s = sampled.at(t)
            for got, closed, direction in zip(
                (s.alpha, s.beta, s.dalpha, s.dbeta), (c.alpha, c.beta, c.dalpha, c.dbeta),
                (d.alpha, d.beta, d.dalpha, d.dbeta),
            ):
                assert same(got, closed + t * direction)
            assert all(same(a, b) for a, b in zip(s.scales(), dense(s).scales()))
            assert all(same(a, b) for a, b in zip(certified(s), certified(dense(s))))
        for (t, s, (arrays, chains)), (t_ref, r, (want, want_chains)) in zip(
            sampled.batches(T_GRID), reference.batches(T_GRID)
        ):
            assert t == t_ref
            for got, expected in zip((s.alpha, s.beta, s.dalpha, s.dbeta), (r.alpha, r.beta, r.dalpha, r.dbeta)):
                assert same(got, expected)
            assert all(same(a, b) for a, b in zip(arrays, want))
            assert all(same(a, b) for a, b in zip(dense_reeb_pair(s, chains), dense_reeb_pair(r, want_chains)))
    got, want = sampled.volume_polynomial(), reference.volume_polynomial()
    assert all(same(getattr(got, k), getattr(want, k)) for k in ("quad", "lin", "const"))
