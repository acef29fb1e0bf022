from itertools import permutations

import numpy as np
import pytest

from contactpairs import exterior as xt


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

def strided_wedge(n, p, q, a, b):
    """The per-column wedge formula the blocked kernel replaces."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    out = np.zeros(shape + (xt.form_count(n, p + q),))
    for ia, ib, io, sign in xt._wedge_table(n, p, q):
        out[..., io] += sign * a[..., ia] * b[..., ib]
    return out


def strided_interior(n, p, x, w):
    x, w = np.asarray(x, dtype=float), np.asarray(w, dtype=float)
    shape = np.broadcast_shapes(x.shape[:-1], w.shape[:-1])
    out = np.zeros(shape + (xt.form_count(n, p - 1),))
    for axis, iw, io, sign in xt._interior_table(n, p):
        out[..., io] += sign * x[..., axis] * w[..., iw]
    return out


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
                assert np.array_equal(got, strided_wedge(n, p, q, a, b)), (n, p, q)


def test_wedge_values_on_one_point_and_against_one_operand():
    rng = np.random.default_rng(1)
    a, da = rng.standard_normal(6), rng.standard_normal(15)
    got = xt.wedge_values(6, 1, 2, a, da)  # the 1-d path of fields._structure_matrix
    assert got.shape == (20,) and np.array_equal(got, strided_wedge(6, 1, 2, a, da))
    many_a = rng.standard_normal((xt._BLOCK + 7, 6))
    many_da = rng.standard_normal((xt._BLOCK + 7, 15))
    for left, right in ((a, many_da), (many_a, da)):
        got = xt.wedge_values(6, 1, 2, left, right)
        assert got.shape == (xt._BLOCK + 7, 20)
        assert np.array_equal(got, strided_wedge(6, 1, 2, left, right))


def test_wedge_values_on_fortran_ordered_and_strided_views():
    rng = np.random.default_rng(2)
    a = np.asfortranarray(rng.standard_normal((xt._BLOCK + 3, 6)))
    b = rng.standard_normal((2 * (xt._BLOCK + 3), 30))[::2, ::2]  # non-contiguous (P, 15)
    assert not a.flags.c_contiguous and not b.flags.c_contiguous
    assert np.array_equal(xt.wedge_values(6, 1, 2, a, b), strided_wedge(6, 1, 2, a, b))
    stacked = rng.standard_normal((3, 5, 15))  # leading axes beyond one
    assert np.array_equal(
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
    assert np.array_equal(got, want)


@pytest.mark.parametrize("points", (1, xt._BLOCK + 1))
def test_interior_and_matrices_are_bit_identical(points):
    rng = np.random.default_rng(points)
    for n in range(1, 8):
        x = sample(rng, points, n)
        for p in range(1, n + 1):
            w = sample(rng, points, xt.form_count(n, p))
            assert np.array_equal(xt.interior_values(n, p, x, w), strided_interior(n, p, x, w))
        coeffs = sample(rng, points, xt.form_count(n, 2))
        got = xt.two_form_matrices(n, coeffs)
        assert got.shape == (points, n, n) and got.flags.c_contiguous
        assert np.array_equal(got, strided_matrices(n, coeffs))
    one = coeffs[0, :6]
    assert np.array_equal(xt.two_form_matrices(4, one), strided_matrices(4, one))
