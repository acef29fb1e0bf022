"""Property test of the exterior kernels on sparse and non-finite operands:
columns that are all +0.0, all -0.0 or mixed signed zeros, zero only at the
first point, nonzero but summing to 0, or holding an inf, a NaN or values
whose products overflow.
Every wedge and interior product is bit-identical to the per-column formula
over the full table, so skipping the terms that are ±0 at every point
changes no bit and loses no NaN.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from contactpairs import exterior as xt  # noqa: E402
from test_exterior import same_bits, strided_interior, strided_wedge  # noqa: E402


COLUMN_KINDS = ("random", "+0", "-0", "signed zeros", "zero first", "cancelling", "inf", "-inf", "nan",
                "huge")


def column(rng, kind, points):
    values = rng.standard_normal(points)
    if kind in ("+0", "-0", "signed zeros"):
        values[:] = {"+0": 0.0, "-0": -0.0}.get(kind, 0.0)
        if kind == "signed zeros":
            values[rng.random(points) < 0.5] = -0.0
    elif kind == "huge":
        values *= 1e300  # products overflow
    elif kind == "zero first":
        values[:1] = 0.0  # nonzero only after the first point
    elif kind == "cancelling":
        values[:] = 0.0  # pairs k, -k of small integers: the column sums to exactly 0
        pairs = points // 2
        values[0 : 2 * pairs : 2] = rng.integers(1, 5, pairs)
        values[1 : 2 * pairs : 2] = -values[0 : 2 * pairs : 2]
    elif kind != "random" and points:
        values[rng.integers(points)] = float(kind)
    return values


def operand(rng, kinds, points):
    return np.column_stack([column(rng, kind, points) for kind in kinds]).reshape(points, len(kinds))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(1, 7), points=st.sampled_from((0, 1, 2, 5)),
       seed=st.integers(0, 2**32 - 1))
def test_sparse_and_non_finite_operands_are_bit_identical(data, n, points, seed):
    rng = np.random.default_rng(seed)
    p = data.draw(st.integers(0, n))
    q = data.draw(st.integers(0, n - p))
    kinds = st.sampled_from(COLUMN_KINDS)
    a = operand(rng, data.draw(st.lists(kinds, min_size=xt.form_count(n, p),
                                        max_size=xt.form_count(n, p))), points)
    b = operand(rng, data.draw(st.lists(kinds, min_size=xt.form_count(n, q),
                                        max_size=xt.form_count(n, q))), points)
    with np.errstate(invalid="ignore", over="ignore"):
        assert same_bits(xt.wedge_values(n, p, q, a, b), strided_wedge(n, p, q, a, b))
        if p >= 1:
            x = operand(rng, data.draw(st.lists(kinds, min_size=n, max_size=n)), points)
            assert same_bits(xt.interior_values(n, p, x, a), strided_interior(n, p, x, a))
