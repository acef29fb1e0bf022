import contextlib
import io
import json
import math
import tracemalloc
from itertools import permutations

import numpy as np
import pytest

from contactpairs import exterior as xt
from contactpairs.cli import main
from contactpairs.contact import SampledPair
from contactpairs.deformation import DeformationFamily, SampledFamily, sweep_rows, verify_converse, verify_forward
from contactpairs.fields import form_from_expressions
from contactpairs.models import default_tolerance, sample_points, torus
from contactpairs.registry import build_example


def random_form(rng, n, p):
    return xt.FormValue(n, p, rng.standard_normal(xt.form_count(n, p)))


def random_vector(rng, n):
    return xt.VectorValue(rng.standard_normal(n))


def perm_sign(perm):
    sign = 1
    perm = list(perm)
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def wedge_by_shuffles(a, b, vectors):
    """Definitional (p,q)-shuffle sum, used as an independent oracle."""
    p, q = a.p, b.p
    total = 0.0
    for perm in permutations(range(p + q)):
        if list(perm[:p]) != sorted(perm[:p]) or list(perm[p:]) != sorted(perm[p:]):
            continue  # not a shuffle
        left = [vectors[i] for i in perm[:p]]
        right = [vectors[i] for i in perm[p:]]
        total += perm_sign(perm) * xt.evaluate(a, left) * xt.evaluate(b, right)
    return total


def test_basis_wedge():
    a = xt.basis_form(3, (0,))
    b = xt.basis_form(3, (1,))
    w = xt.wedge(a, b)
    np.testing.assert_array_equal(w.coeffs, [1.0, 0.0, 0.0])
    np.testing.assert_array_equal(xt.wedge(b, a).coeffs, [-1.0, 0.0, 0.0])


def test_wedge_example_r3():
    # (dz + x*dy) ^ (dx^dy) = dx^dy^dz at x = 2
    x = 2.0
    alpha = xt.FormValue(3, 1, [0.0, x, 1.0])
    dxdy = xt.basis_form(3, (0, 1))
    w = xt.wedge(alpha, dxdy)
    np.testing.assert_array_equal(w.coeffs, [1.0])


def test_wedge_matches_shuffle_definition():
    rng = np.random.default_rng(0)
    for n, p, q in [(3, 1, 1), (3, 1, 2), (4, 2, 2), (4, 1, 2), (5, 2, 1)]:
        a = random_form(rng, n, p)
        b = random_form(rng, n, q)
        w = xt.wedge(a, b)
        vectors = [random_vector(rng, n) for _ in range(p + q)]
        assert xt.evaluate(w, vectors) == pytest.approx(
            wedge_by_shuffles(a, b, vectors), rel=1e-10, abs=1e-10
        )


def test_graded_commutativity_and_associativity():
    rng = np.random.default_rng(1)
    for n, p, q in [(4, 1, 1), (4, 1, 2), (5, 2, 2), (6, 1, 3)]:
        a = random_form(rng, n, p)
        b = random_form(rng, n, q)
        lhs = xt.wedge(a, b).coeffs
        rhs = (-1.0) ** (p * q) * xt.wedge(b, a).coeffs
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)
    for n in (4, 5):
        a, b, c = (random_form(rng, n, 1) for _ in range(3))
        left = xt.wedge(xt.wedge(a, b), c).coeffs
        right = xt.wedge(a, xt.wedge(b, c)).coeffs
        np.testing.assert_allclose(left, right, atol=1e-12)


def test_wedge_errors():
    a = xt.basis_form(3, (0, 1))
    b = xt.basis_form(3, (0, 2))
    with pytest.raises(xt.DimensionError):
        xt.wedge(a, b)  # degree 4 > 3
    with pytest.raises(xt.DimensionError):
        xt.wedge(a, xt.basis_form(4, (0,)))


def test_interior_basics():
    dz_x_dy = xt.FormValue(3, 1, [0.0, 2.0, 1.0])  # dz + 2*dy
    ez = xt.basis_vector(3, 2)
    assert xt.interior(ez, dz_x_dy).coeffs[0] == 1.0
    assert xt.norm_inf(xt.interior(ez, xt.basis_form(3, (0, 1)))) == 0.0
    with pytest.raises(xt.DimensionError):
        xt.interior(ez, xt.FormValue(3, 0, [1.0]))


def test_interior_twice_is_zero():
    rng = np.random.default_rng(2)
    for n, p in [(4, 2), (5, 3), (6, 2)]:
        w = random_form(rng, n, p)
        x = random_vector(rng, n)
        out = xt.interior(x, xt.interior(x, w))
        assert xt.norm_inf(out) < 1e-12


def test_antiderivation():
    rng = np.random.default_rng(3)
    for n, p, q in [(4, 1, 2), (5, 2, 2), (6, 1, 1)]:
        a = random_form(rng, n, p)
        b = random_form(rng, n, q)
        x = random_vector(rng, n)
        lhs = xt.interior(x, xt.wedge(a, b)).coeffs
        rhs = (
            xt.wedge(xt.interior(x, a), b).coeffs
            + (-1.0) ** p * xt.wedge(a, xt.interior(x, b)).coeffs
        )
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_evaluate_alternating():
    w = xt.basis_form(4, (0, 1))
    e0, e1 = xt.basis_vector(4, 0), xt.basis_vector(4, 1)
    assert xt.evaluate(w, [e0, e1]) == 1.0
    assert xt.evaluate(w, [e1, e0]) == -1.0
    rng = np.random.default_rng(4)
    v = random_vector(rng, 4)
    u = random_vector(rng, 4)
    w2 = random_form(rng, 4, 3)
    assert xt.evaluate(w2, [v, v, u]) == pytest.approx(0.0, abs=1e-12)


def test_evaluate_consistent_with_interior():
    rng = np.random.default_rng(5)
    w = random_form(rng, 5, 3)
    vs = [random_vector(rng, 5) for _ in range(3)]
    via_interior = xt.evaluate(xt.interior(vs[0], w), vs[1:])
    assert xt.evaluate(w, vs) == pytest.approx(via_interior, rel=1e-12)


def test_evaluate_arity_error():
    with pytest.raises(xt.DimensionError):
        xt.evaluate(xt.basis_form(3, (0, 1)), [xt.basis_vector(3, 0)])


def test_wedge_power():
    w = xt.basis_form(4, (0, 1))
    assert np.array_equal(xt.wedge_power(w, 1).coeffs, w.coeffs)
    # (dx0^dx1 + dx2^dx3)^2 = 2 dx0^dx1^dx2^dx3, by brute-force expansion
    coeffs = np.zeros(xt.form_count(4, 2))
    coeffs[xt.index_position(4, 2)[(0, 1)]] = 1.0
    coeffs[xt.index_position(4, 2)[(2, 3)]] = 1.0
    s = xt.FormValue(4, 2, coeffs)
    sq = xt.wedge_power(s, 2)
    np.testing.assert_array_equal(sq.coeffs, [2.0])
    vectors = [xt.basis_vector(4, i) for i in range(4)]
    assert wedge_by_shuffles(s, s, vectors) == pytest.approx(2.0)

    assert xt.wedge_power(s, 0).coeffs[0] == 1.0
    with pytest.raises(xt.DimensionError):
        xt.wedge_power(s, 3)
    with pytest.raises(xt.DimensionError):
        xt.wedge_power(xt.basis_form(4, (0,)), 1)


def test_norm_inf():
    assert xt.norm_inf(xt.zero_form(3, 2)) == 0.0
    assert xt.norm_inf(xt.FormValue(3, 1, [0.0, 2.0, 1.0])) == 2.0


def test_norm_inf_wedge_bound():
    # sanity bound: |a^b|_inf <= (#table terms per output) * |a|_inf * |b|_inf
    rng = np.random.default_rng(6)
    for n, p, q in [(4, 1, 1), (5, 2, 1), (6, 2, 2)]:
        a = random_form(rng, n, p)
        b = random_form(rng, n, q)
        w = xt.wedge(a, b)
        bound = (
            xt.form_count(p + q, p) * xt.norm_inf(a) * xt.norm_inf(b)
        )  # shuffles hitting one output index
        assert xt.norm_inf(w) <= bound + 1e-12


def test_bilinearity():
    rng = np.random.default_rng(7)
    n, p, q = 5, 1, 2
    a1, a2 = random_form(rng, n, p), random_form(rng, n, p)
    b = random_form(rng, n, q)
    s, t = 0.7, -1.3
    combined = xt.wedge(s * a1 + t * a2, b).coeffs
    split = s * xt.wedge(a1, b).coeffs + t * xt.wedge(a2, b).coeffs
    np.testing.assert_allclose(combined, split, atol=1e-12)
    x1, x2 = random_vector(rng, n), random_vector(rng, n)
    lhs = xt.interior(xt.VectorValue(s * x1.components + t * x2.components), b).coeffs
    rhs = s * xt.interior(x1, b).coeffs + t * xt.interior(x2, b).coeffs
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_form_value_validation():
    with pytest.raises(xt.DimensionError):
        xt.FormValue(3, 4, [1.0])
    with pytest.raises(xt.DimensionError):
        xt.FormValue(3, 1, [1.0, 2.0])
    v = xt.FormValue(3, 1, [1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        v.coeffs[0] = 5.0  # frozen storage


def test_multi_index_order():
    assert xt.multi_indices(4, 2) == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    assert xt.multi_indices(3, 0) == ((),)


# --- component-major kernels: bit-identical to the per-column formulas -----------

def same_bits(got, want):
    """Equal shapes and equal bit patterns: unlike ``np.array_equal`` this
    tells -0.0 from +0.0 and compares NaN."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and np.array_equal(
        np.ascontiguousarray(got).view(np.int64), np.ascontiguousarray(want).view(np.int64)
    )


def strided(table, count, a, b):
    """The per-column formula the blocked kernel replaces, over the full
    table: out[..., io] += sign * a * b, with each term added or subtracted
    as a * b.  For every value but NaN that is bit-identical to adding
    (sign * a) * b; a NaN can come out with another sign bit, since the
    negation then meets a different operand."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    out = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]) + (count,))
    for ia, ib, io, sign in table:
        if sign > 0:
            out[..., io] += a[..., ia] * b[..., ib]
        else:
            out[..., io] -= a[..., ia] * b[..., ib]
    return out


def strided_wedge(n, p, q, a, b):
    return strided(xt._wedge_table(n, p, q), xt.form_count(n, p + q), a, b)


def strided_interior(n, p, x, w):
    return strided(xt._interior_table(n, p), xt.form_count(n, p - 1), x, w)


def strided_matrices(n, coeffs):
    coeffs = np.asarray(coeffs, dtype=float)
    out = np.zeros(coeffs.shape[:-1] + (n, n))
    for pos, (i, j) in enumerate(xt.multi_indices(n, 2)):
        out[..., i, j] = coeffs[..., pos]
        out[..., j, i] = -coeffs[..., pos]
    return out


BLOCK_SIZES = (1, 3, xt._BLOCK - 1, xt._BLOCK, xt._BLOCK + 1, 2 * xt._BLOCK + 5)


def sample(rng, points, count):
    # signed zeros, ties and wide exponents, so that any reordering shows
    values = rng.standard_normal((points, count)) * 10.0 ** rng.integers(-3, 4, (points, count))
    values[rng.random((points, count)) < 0.05] = -0.0
    return values


def test_signed_terms_equal_negated_factors_but_for_nan_bits():
    # the reference adds or subtracts a * b; the formula adds (sign * a) * b
    rng = np.random.default_rng(11)
    for n, p, q in [(6, 1, 2), (6, 2, 2), (7, 3, 2)]:
        a, b = sample(rng, 9, xt.form_count(n, p)), sample(rng, 9, xt.form_count(n, q))
        a[0, 0], a[1, 1], b[2, 0] = np.inf, np.nan, -np.inf
        out = np.zeros((9, xt.form_count(n, p + q)))
        with np.errstate(invalid="ignore"):
            for ia, ib, io, sign in xt._wedge_table(n, p, q):
                out[..., io] += sign * a[..., ia] * b[..., ib]
            want = strided_wedge(n, p, q, a, b)
        nan = np.isnan(out)
        assert nan.any() and (nan == np.isnan(want)).all() and same_bits(out[~nan], want[~nan])


@pytest.mark.parametrize("points", BLOCK_SIZES)
def test_wedge_values_is_bit_identical_to_the_strided_formula(points):
    rng = np.random.default_rng(points)
    for n in range(1, 8):
        for p in range(n + 1):
            for q in range(n - p + 1):
                a = sample(rng, points, xt.form_count(n, p))
                b = sample(rng, points, xt.form_count(n, q))
                got = xt.wedge_values(n, p, q, a, b)
                assert got.shape == (points, xt.form_count(n, p + q))
                assert same_bits(got, strided_wedge(n, p, q, a, b)), (n, p, q)


def test_wedge_values_on_one_point_and_against_one_operand():
    rng = np.random.default_rng(1)
    a, da = rng.standard_normal(6), rng.standard_normal(15)
    got = xt.wedge_values(6, 1, 2, a, da)  # the 1-d path of fields._structure_matrix
    assert got.shape == (20,) and same_bits(got, strided_wedge(6, 1, 2, a, da))
    many_a = rng.standard_normal((xt._BLOCK + 7, 6))
    many_da = rng.standard_normal((xt._BLOCK + 7, 15))
    for left, right in ((a, many_da), (many_a, da)):
        got = xt.wedge_values(6, 1, 2, left, right)
        assert got.shape == (xt._BLOCK + 7, 20)
        assert same_bits(got, strided_wedge(6, 1, 2, left, right))


def test_wedge_values_on_fortran_ordered_and_strided_views():
    rng = np.random.default_rng(2)
    a = np.asfortranarray(rng.standard_normal((xt._BLOCK + 3, 6)))
    b = rng.standard_normal((2 * (xt._BLOCK + 3), 30))[::2, ::2]  # non-contiguous (P, 15)
    assert not a.flags.c_contiguous and not b.flags.c_contiguous
    assert same_bits(xt.wedge_values(6, 1, 2, a, b), strided_wedge(6, 1, 2, a, b))
    stacked = rng.standard_normal((3, 5, 15))  # leading axes beyond one
    assert same_bits(
        xt.wedge_values(6, 2, 2, stacked, stacked[0]), strided_wedge(6, 2, 2, stacked, stacked[0])
    )


def test_chain_of_four_factors_is_bit_identical():
    rng = np.random.default_rng(3)
    points = xt._BLOCK + 11
    a, b = sample(rng, points, 6), sample(rng, points, 6)
    da, db = sample(rng, points, 15), sample(rng, points, 15)
    want = strided_wedge(6, 4, 2, strided_wedge(6, 3, 1, strided_wedge(6, 1, 2, a, da), b), db)
    got = xt.chain(6, (1, a), (2, da), (1, b), (2, db))
    assert got.shape == (points, 1)
    assert same_bits(got, want)


@pytest.mark.parametrize("points", (1, xt._BLOCK + 1))
def test_interior_and_matrices_are_bit_identical(points):
    rng = np.random.default_rng(points)
    for n in range(1, 8):
        x = sample(rng, points, n)
        for p in range(1, n + 1):
            w = sample(rng, points, xt.form_count(n, p))
            assert same_bits(xt.interior_values(n, p, x, w), strided_interior(n, p, x, w))
        coeffs = sample(rng, points, xt.form_count(n, 2))
        got = xt.two_form_matrices(n, coeffs)
        assert got.shape == (points, n, n) and got.flags.c_contiguous
        assert same_bits(got, strided_matrices(n, coeffs))
    one = coeffs[0, :6]
    assert same_bits(xt.two_form_matrices(4, one), strided_matrices(4, one))


# --- live rows: terms that are ±0 at every point are skipped, bit for bit -----------

def with_zero_columns(rng, points, count):
    """A sample in which about half the columns are all +0.0, all -0.0 or
    mixed signed zeros."""
    values = sample(rng, points, count)
    for col in np.flatnonzero(rng.random(count) < 0.5):
        mixed = rng.random() < 0.5
        values[:, col] = rng.choice([0.0, -0.0], size=points if mixed else None)
    return values


@pytest.mark.parametrize("points", (0, 1, xt._BLOCK + 1))
def test_zero_columns_are_skipped_bit_for_bit(points):
    rng = np.random.default_rng(17 + points)
    for n in range(1, 8):
        for p in range(n + 1):
            for q in range(n - p + 1):
                a = with_zero_columns(rng, points, xt.form_count(n, p))
                b = with_zero_columns(rng, points, xt.form_count(n, q))
                assert same_bits(xt.wedge_values(n, p, q, a, b), strided_wedge(n, p, q, a, b)), (n, p, q)
                zero = -0.0 * a  # ±0 everywhere
                assert same_bits(xt.wedge_values(n, p, q, zero, b), strided_wedge(n, p, q, zero, b))
        x = with_zero_columns(rng, points, n)
        for p in range(1, n + 1):
            w = with_zero_columns(rng, points, xt.form_count(n, p))
            assert same_bits(xt.interior_values(n, p, x, w), strided_interior(n, p, x, w)), (n, p)


@pytest.mark.parametrize("bad", (np.inf, -np.inf, np.nan))
def test_zero_column_against_a_non_finite_partner_stays_nan(bad):
    rng = np.random.default_rng(5)
    points, at = xt._BLOCK + 3, xt._BLOCK + 1
    a, da = rng.standard_normal((points, 6)), rng.standard_normal((points, 15))
    a[:, 0] = 0.0  # dx0 is absent everywhere ...
    da[at, xt.index_position(6, 2)[(1, 2)]] = bad  # ... and dx1^dx2 is not finite at one point
    with np.errstate(invalid="ignore"):
        got, want = xt.wedge_values(6, 1, 2, a, da), strided_wedge(6, 1, 2, a, da)
    assert same_bits(got, want)
    assert np.isnan(got[at, xt.index_position(6, 3)[(0, 1, 2)]])
    assert np.isfinite(np.delete(got, at, axis=0)).all()

    # a chain intermediate that overflows at one point, wedged with a zero column
    big = np.full(6, 1e200)
    b = rng.standard_normal((points, 6))
    b[:, 3] = -0.0
    with np.errstate(invalid="ignore", over="ignore"):
        got = xt.chain(6, (1, big), (1, big * [1, -1, 1, 1, 1, 1]), (1, b))
        want = strided_wedge(6, 2, 1, strided_wedge(6, 1, 1, big, big * [1, -1, 1, 1, 1, 1]), b)
    assert same_bits(got, want) and np.isnan(got).any()


def test_zero_column_skip_keeps_non_finite_values_of_the_interior():
    x = np.array([[0.0, 1.0, 2.0], [0.0, 3.0, 4.0]])
    w = np.array([[np.inf, 1.0, 2.0], [5.0, np.nan, 6.0]])  # dx0^dx1, dx0^dx2, dx1^dx2
    with np.errstate(invalid="ignore"):
        got, want = xt.interior_values(3, 2, x, w), strided_interior(3, 2, x, w)
    assert same_bits(got, want) and np.isnan(got).any()


def test_rows_drop_only_zero_columns_against_finite_partners():
    # a: all ±0, cancelling, finite with an overflowing sum; b: all +0, inf and NaN, finite
    a = np.array([[0.0, 1.0, 1e308], [-0.0, -1.0, 1e308]])
    b = np.array([[0.0, np.inf, 2.0], [0.0, np.nan, 0.0]])
    live = xt._rows(xt._wedge_table, (3, 1, 1), a, b)[0]
    # the rows (ia, ib) that go: dx0 ∧ dx2 and dx1 ∧ dx0, an all-zero column
    # against a finite one; the zero dx0 of a meets an inf and a NaN, the
    # cancelling dx1 of a is not zero, and the overflowing dx2 of a reads as
    # not finite, so those rows stay
    assert [row[:2] for row in live] == [(0, 1), (1, 2), (2, 0), (2, 1)]
    assert live == tuple(row for row in xt._wedge_table(3, 1, 1) if row[:2] in {(0, 1), (1, 2), (2, 0), (2, 1)})
    with np.errstate(invalid="ignore", over="ignore"):
        assert same_bits(xt.wedge_values(3, 1, 1, a, b), strided_wedge(3, 1, 1, a, b))
    assert xt._rows(xt._wedge_table, (3, 1, 1), np.zeros((0, 3)), np.zeros((0, 3))) == ((), ())


def test_dense_operands_run_the_full_table_without_a_scan(monkeypatch):
    rng = np.random.default_rng(9)
    a, da = rng.standard_normal((xt._BLOCK + 5, 6)), rng.standard_normal((xt._BLOCK + 5, 15))

    def no_scan(*args):
        raise AssertionError("operands without a zero at their first point were scanned")

    monkeypatch.setattr(xt, "_column_states", no_scan)
    assert len(xt._rows(xt._wedge_table, (6, 1, 2), a, da)[0]) == 60
    assert same_bits(xt.wedge_values(6, 1, 2, a, da), strided_wedge(6, 1, 2, a, da))
    da[1:, 3] = 0.0  # zero after the first point only: not a zero column
    assert len(xt._rows(xt._wedge_table, (6, 1, 2), a, da)[0]) == 60
    assert same_bits(xt.wedge_values(6, 1, 2, a, da), strided_wedge(6, 1, 2, a, da))
    monkeypatch.undo()
    da[0, 3] = -0.0  # now all zero: the four rows that read dx0^dx4 are dropped
    assert len(xt._rows(xt._wedge_table, (6, 1, 2), a, da)[0]) == 56
    assert same_bits(xt.wedge_values(6, 1, 2, a, da), strided_wedge(6, 1, 2, a, da))


def count_rows(monkeypatch, argv):
    """(rows run, rows in the full tables) over every kernel call of one
    verdict, after a first run has filled the per-process caches (a Lie
    model's structure constants are built once)."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*argv, "--seed", "0"]) == 0
    counts = [0, 0]
    rows_of = xt._rows

    def counting(table_of, dims, *operands):
        rows, outputs = rows_of(table_of, dims, *operands)
        counts[0] += len(rows)
        counts[1] += len(table_of(*dims))
        return rows, outputs

    monkeypatch.setattr(xt, "_rows", counting)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*argv, "--seed", "0"]) == 0
    return tuple(counts)


def test_builtin_pairs_run_only_their_live_rows(monkeypatch):
    # product and Lie coframe pairs leave most terms identically zero; a
    # regression to dense work runs the full tables.  The one-point Lie
    # model certifies its whole t grid in one batch, one kernel pass for
    # all eight t.  The counts take in the Reeb pair's chains and residual
    # contractions, whose factors carry live sets instead of being scanned:
    # looser than a scan, which also finds the columns that cancel, but read
    # from no operand.  The four compatibility pairings of deform are
    # contractions too: on heisenberg6-pair each reads the 6 rows of its
    # table and runs none.  verify-pair's commutator forms no D_X factor on
    # t6-pair-compatible (each Reeb field is dead along the axes of the
    # partials), so its product rule runs no row
    assert count_rows(monkeypatch, ["deform", "--example", "heisenberg6-pair"]) == (13, 750)
    assert count_rows(monkeypatch, ["verify-pair", "--example", "t6-pair-compatible"]) == (22, 408)


# --- carried live sets: the rows a factor's live set and bound allow --------------------

def component_major(values):
    """values as the (P, C) view of a component-major (C, P) buffer, the
    layout of sampled forms."""
    return np.ascontiguousarray(np.asarray(values, dtype=float).T).T


def test_a_dead_column_against_a_partner_holding_an_inf_keeps_the_nan_term():
    rng = np.random.default_rng(23)
    points, at = xt._BLOCK + 3, xt._BLOCK + 1
    a = component_major(rng.standard_normal((points, 6)))
    a[:, 0] = 0.0  # dx0 is dead: not in the live set of a
    da = component_major(rng.standard_normal((points, 15)))
    da[at, xt.index_position(6, 2)[(1, 2)]] = np.inf
    live_a = ((1, 2, 3, 4, 5), float(np.max(np.abs(a))))
    # the partner holds an inf: scanned, or carried with the bound it has
    for live_da in (None, (tuple(range(15)), float(np.max(np.abs(da))))):
        with np.errstate(invalid="ignore"):
            got, want = xt.chain(6, (1, a, live_a), (2, da, live_da)), strided_wedge(6, 1, 2, a, da)
        assert same_bits(got, want)
        assert np.isnan(got[at, xt.index_position(6, 3)[(0, 1, 2)]])
    # against a partner known finite the dead column's rows are not run
    finite = np.delete(da, at, axis=0)
    rows, _ = xt._rows(xt._wedge_table, (6, 1, 2), a[:-1], finite, live_a, (tuple(range(15)), 1.0))
    assert len(rows) == 60 - 10 and all(row[0] != 0 for row in rows)


def test_a_chain_whose_bound_overflows_keeps_its_rows():
    rng = np.random.default_rng(29)
    points = 5
    a, b, c = (component_major(rng.standard_normal((points, 6))) for _ in range(3))
    a[:, 2:] = b[:, 2:] = 0.0
    a[:, 0] = b[:, 1] = 1e200  # dx0 ∧ dx1 of a ∧ b overflows at every point
    c[:, 5] = 0.0  # dx5 is dead in c
    factors = [(1, a, ((0, 1), 1e200)), (1, b, ((0, 1), 1e200)), (1, c, ((0, 1, 2, 3, 4), float(np.max(np.abs(c)))))]
    with np.errstate(invalid="ignore", over="ignore"):
        degree, got, (live, bound) = xt.chain_factor(6, *factors)
        want = strided_wedge(6, 2, 1, strided_wedge(6, 1, 1, a, b), c)
        _, product, (_, product_bound) = xt.chain_factor(6, *factors[:2])
    assert product_bound == np.inf and np.isinf(product).any()
    # inf ∧ the dead dx5 is NaN: that row is kept, so the NaN is there
    assert degree == 3 and got.shape == (points, len(live)) and same_bits(xt._scatter(got, live, 20), want)
    assert np.isnan(got[:, live.index(xt.index_position(6, 3)[(0, 1, 5)])]).all()
    assert xt.index_position(6, 3)[(0, 1, 5)] in live and bound == np.inf


# --- compact products: a chain_factor product holds its live components alone ------------

def random_factor(rng, n, p, shape, kind):
    """(factor, dense values) of degree p with leading axes shape: about
    half the components dead (+0.0), a live one sometimes all -0.0 and
    sometimes inf or NaN at one point.  kind "carried" gives the live set
    with its bound (NaN or inf where a value is not finite), "overflowed"
    with bound inf, "scanned" no live set."""
    count = xt.form_count(n, p)
    values = sample(rng, max(1, math.prod(shape)), count).reshape(shape + (count,))
    live = tuple(int(c) for c in np.flatnonzero(rng.random(count) < 0.5))
    values[..., [c for c in range(count) if c not in live]] = 0.0
    if live and rng.random() < 0.3:
        values[..., live[0]] = -0.0
    if live and rng.random() < 0.3:
        values.reshape(-1, count)[-1, live[-1]] = rng.choice([np.inf, -np.inf, np.nan])
    if kind == "scanned":
        return (p, values), values
    bound = np.inf if kind == "overflowed" else float(np.max(np.abs(values[..., list(live)]), initial=0.0))
    return (p, component_major(values.reshape(-1, count)).reshape(values.shape), (live, bound)), values


@pytest.mark.parametrize("shapes", [
    ((xt._BLOCK + 1,),) * 4,  # more than one block of points
    ((1,),) * 4,  # one point
    ((), (5,), (5,), ()),  # one-point operands broadcast against five points
    ((3, 7),) * 4,  # a leading t axis
    ((3, 7), (7,), (3, 7), (7,)),  # a t axis against operands without one
])
def test_chain_factor_products_scattered_are_the_strided_chain(shapes):
    # against the strided formula, and bit for bit against wedge_values on
    # the dense values, which reads no live set
    rng = np.random.default_rng(len(shapes[0]) + sum(map(sum, shapes)))
    for trial in range(40):
        n = 6
        degrees = [(1, 2, 1, 2), (2, 1, 1, 0), (1, 1, 2, 1), (2, 2, 2, 0), (0, 1, 2, 3)][trial % 5]
        kinds = rng.choice(["carried", "carried", "overflowed", "scanned"], size=4)
        made = [random_factor(rng, n, p, shape, kind) for p, shape, kind in zip(degrees, shapes, kinds)]
        factors, dense = [f for f, _ in made], [v for _, v in made]
        want, unread, p = dense[0], dense[0], degrees[0]
        with np.errstate(invalid="ignore", over="ignore"):
            for m in range(1, 4):
                want, p = strided_wedge(n, p, degrees[m], want, dense[m]), p + degrees[m]
                unread = xt.wedge_values(n, p - degrees[m], degrees[m], unread, dense[m])
                degree, got, (live, bound) = xt.chain_factor(n, *factors[: m + 1])
                assert degree == p and got.shape[-1] == len(live), (trial, m)
                scattered = xt._scatter(got, live, xt.form_count(n, p))
                assert same_bits(scattered, unread) and same_bits_but_nan(scattered, want), (trial, m)
                assert same_bits(xt.chain(n, *factors[: m + 1]), scattered), (trial, m)
                # a compact product is a factor in turn
                again = xt.chain_factor(n, (degree, got, (live, bound)), factors[0])[1:]
                assert same_bits(xt._scatter(again[0], again[1][0], xt.form_count(n, p + degrees[0])),
                                 xt.wedge_values(n, p, degrees[0], unread, dense[0])), (trial, m)


def same_bits_but_nan(got, want):
    """NaN at the same entries and the same bits at every other: the
    strided formula runs on strided columns, where a NaN can come out with
    another sign bit than in the contiguous kernel, compact or dense."""
    nan = np.isnan(want)
    return got.shape == want.shape and (np.isnan(got) == nan).all() and same_bits(got[~nan], want[~nan])


def test_a_product_without_live_outputs_allocates_no_buffer(monkeypatch):
    # alpha ∧ d alpha and the like: on t6-pair-compatible many products
    # of the certificate reach no live output; each is an empty array
    objs = build_example("t6-pair-compatible")
    pts = sample_points(objs["alpha"].model, np.random.default_rng(0))
    dead, live, bilinear = [], [], xt._bilinear

    def recording(a, b, rows, count):
        if rows:
            out = bilinear(a, b, rows, count)
            live.append(out.shape[-1] == count)
            return out
        tracemalloc.start()
        out = bilinear(a, b, rows, count)
        dead.append((count, out.size, tracemalloc.get_traced_memory()[1]))
        tracemalloc.stop()
        return out

    monkeypatch.setattr(xt, "_bilinear", recording)
    SampledPair.of(objs["alpha"], objs["beta"], pts).certificate_arrays(1, 1)
    assert dead and live and all(live)
    # no output, no values, and far less than one float per point allocated
    assert all(count == 0 and size == 0 and peak < len(pts) for count, size, peak in dead), dead


def test_an_overflowing_t_still_fails_non_finite_with_its_witness(capsys):
    argv = ["deform", "--example", "t6-pair-compatible", "--t-grid=1,1e308", "--format", "structured"]
    assert main(argv) == 1
    task = json.loads(capsys.readouterr().out)["tasks"][0]
    (item,) = [i for i in task["result"]["conclusions"] if i["name"] == "(alpha_t,beta_t) is a contact pair at t=1e+308"]
    assert item["passed"] is False
    assert item["witness"] == {"condition": "non-finite", "t": 1e308}
    assert item["note"] == "a sample, its scale or a wedge chain is not finite"


def test_a_negative_zero_coefficient_keeps_its_column():
    model = torus(3)
    form = form_from_expressions(model, 1, {0: "-0", 1: "cos(x0)"})
    assert form.live == (0, 1)  # the +0 of dx2 is dead, the -0 of dx0 is not
    pts = sample_points(model, np.random.default_rng(0))
    values = form.values(pts)
    assert np.signbit(values[:, 0]).all() and (values[:, 0] == 0).all()
    assert not np.signbit(values[:, 2]).any() and (values[:, 2] == 0).all()
    assert np.shares_memory(values, values.T) and values.T.flags.c_contiguous  # component-major
    assert SampledPair.of(form, form, pts).live[0] == ((0, 1), 1.0)
    # a family's samples at t: -0 + t * (+0) is -0 for t < 0 and +0 for t > 0
    plane = torus(2)
    alpha0 = form_from_expressions(plane, 1, {0: "1", 1: "-0"})
    beta0 = form_from_expressions(plane, 1, {1: "1"})
    alpha, beta = (form_from_expressions(plane, 1, {i: "sin(x0)"}) for i in (0, 1))
    sampled = SampledFamily(DeformationFamily(alpha0, beta0, alpha, beta, 0, 0), sample_points(plane), 1e-8)
    assert np.signbit(sampled.at(-1.0).alpha[:, 1]).all()
    assert not np.signbit(sampled.at(1.0).alpha[:, 1]).any()


def test_the_deformation_kernels_scan_no_operand(monkeypatch):
    # certificate_arrays, volume_polynomial, sweep's volume chain and the
    # family's independence wedge read only carried live sets
    for name in ("t6-pair-compatible", "heisenberg6-pair", "t6-pair-incompatible"):
        family = build_example(name)["family"]
        pts = sample_points(family.model, np.random.default_rng(0))
        SampledFamily(family, pts, default_tolerance(family.model))  # builds d and the structure constants
        scans, scan = [], xt._column_states
        monkeypatch.setattr(xt, "_column_states", lambda x: scans.append(x.shape) or scan(x))
        sampled = SampledFamily(family, pts, default_tolerance(family.model))
        for _ in sampled.batches([-1.0, 0.5, 1e308]):
            pass
        sampled.volume_polynomial()
        sweep_rows(family, [0.5, 1e308], points=pts)
        verify_forward(family, points=pts)
        verify_converse(family, points=pts)
        assert scans == [], name
        monkeypatch.undo()
