"""The Reeb systems are solved in blocks of ``exterior._BLOCK`` points.

The Reeb pair, the commutator's derivative solve, the Reeb field of one
contact form and the leaf-restricted solve of a Jacobi side share one block
loop, and no other code in the package solves a linear system.  Every solution bit must equal that of
one least-squares call on the full row stack, written out below as it stood
before the solve was blocked, and the solve must never hold the full row
stack.
"""

import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import contactpairs
from contactpairs import contact
from contactpairs.contact import (
    SampledPair,
    _contact_reeb,
    _norm_inf_rows,
    _solve_blocks,
    _solve_reeb,
    torus_contact,
)
from contactpairs.deformation import SampledFamily
from contactpairs.exterior import _BLOCK, two_form_matrices
from contactpairs.models import random_points
from contactpairs.registry import build_example
from test_exterior import same_bits

POINTS = (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3)


def one_shot(a, b, compute_sigma=False):
    """least_squares_batch on a whole stack, as one call."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    a_t = np.swapaxes(a, 1, 2)
    gram = a_t @ a
    rhs = a_t @ b
    try:
        x = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        x = np.linalg.pinv(gram, hermitian=True) @ rhs
    residual = a @ x
    residual -= b
    residual_inf = _norm_inf_rows(residual, axis=1)
    sigma_min = sigma_max = None
    if compute_sigma:
        sigma = np.linalg.svd(a, compute_uv=False)
        sigma_min = sigma[:, -1]
        sigma_max = sigma[:, 0]
    return x, residual_inf, sigma_min, sigma_max


def reference(s, compute_sigma):
    """The Reeb pair of s from one call on the full row stack."""
    x, residual, sigma_min, sigma_max = one_shot(s.reeb_rows(), np.eye(2 * s.n + 2, 2), compute_sigma)
    return x[..., 0], x[..., 1], residual, sigma_min, sigma_max


def single_reference(av, da_m):
    """The Reeb field of one contact form from one call on the full row stack."""
    rows = np.concatenate([av[:, None, :], np.swapaxes(da_m, 1, 2)], axis=1)
    x, residual, _, _ = one_shot(rows, np.eye(rows.shape[1], 1))
    return x[..., 0], residual[..., 0]


def assert_same(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g is None) == (w is None)
        assert g is None or same_bits(g, w)


@pytest.fixture(scope="module")
def family_samples():
    objs = build_example("t6-pair-compatible")
    pts = random_points(objs["model"], 4 * _BLOCK, np.random.default_rng(3))
    return SampledFamily(objs["family"], pts)


@pytest.fixture(scope="module")
def contact_form_samples():
    """alpha and the matrices of d alpha at 2B + 3 torus-contact points."""
    _, alpha = torus_contact()
    pts = random_points(alpha.model, 2 * _BLOCK + 3, np.random.default_rng(5))
    return alpha.values(pts), two_form_matrices(3, alpha.d().values(pts))


def head(s: SampledPair, points: int) -> SampledPair:
    """The first points of s, as fresh arrays."""
    parts = (s.points, s.alpha, s.beta, s.dalpha, s.dbeta)
    return SampledPair(*(np.array(v[:points]) for v in parts))


@pytest.mark.parametrize("compute_sigma", (False, True))
@pytest.mark.parametrize("points", POINTS)
def test_blocked_solve_has_the_bits_of_one_call(family_samples, points, compute_sigma):
    s = head(family_samples.at(0.7), points)
    assert_same(_solve_reeb(s, compute_sigma), reference(s, compute_sigma))


@pytest.mark.parametrize("compute_sigma", (False, True))
@pytest.mark.parametrize("points", POINTS)
def test_blocked_solve_of_overflowing_rows(family_samples, points, compute_sigma):
    s = head(family_samples.at(1e308), points)
    with np.errstate(over="ignore", invalid="ignore"):
        want = reference(s, compute_sigma)
        assert not np.all(np.isfinite(want[2]))  # the Gram matrices overflow
        assert_same(_solve_reeb(s, compute_sigma), want)


@pytest.mark.parametrize("compute_sigma", (False, True))
@pytest.mark.parametrize("points", (_BLOCK + 1, 2 * _BLOCK + 3))
def test_one_singular_gram_in_the_last_block_sends_every_block_to_pinv(family_samples, points, compute_sigma):
    s = head(family_samples.at(0.7), points)
    for v in (s.alpha, s.beta, s.dalpha, s.dbeta):
        v[-1] = 0.0  # the last system is all zero: its Gram matrix is exactly singular
    want = reference(s, compute_sigma)
    assert_same(_solve_reeb(s, compute_sigma), want)
    # the test can see the rule: per-block fallback would change the bits of
    # the first block, which is regular
    first = head(s, _BLOCK)
    assert not same_bits(reference(first, compute_sigma)[0], want[0][:_BLOCK])


def test_per_point_right_hand_sides_are_blocked_too(family_samples):
    s = head(family_samples.at(0.7), 2 * _BLOCK + 3)
    w = np.random.default_rng(4).standard_normal((2 * _BLOCK + 3, 2 * s.n + 2, 1))
    assert_same(_solve_blocks(s.reeb_rows, len(s.points), w, False), one_shot(s.reeb_rows(), w))


def test_blocked_single_form_solve_has_the_bits_of_one_call(contact_form_samples):
    av, da_m = contact_form_samples
    assert_same(_contact_reeb(av, da_m), single_reference(av, da_m))


def test_one_singular_single_form_system_sends_every_block_to_pinv(contact_form_samples):
    av, da_m = (np.array(v) for v in contact_form_samples)
    av[-1], da_m[-1] = 0.0, 0.0  # the last system is all zero
    want = single_reference(av, da_m)
    assert_same(_contact_reeb(av, da_m), want)
    # a per-block fallback would change the bits of the regular first block
    assert not same_bits(single_reference(av[:_BLOCK], da_m[:_BLOCK])[0], want[0][:_BLOCK])


def test_every_block_is_one_least_squares_call(family_samples, contact_form_samples, monkeypatch):
    systems = []
    solve = contact.least_squares_batch

    def counted(a, *args, **kwargs):
        systems.append(np.shape(a)[0])
        return solve(a, *args, **kwargs)

    monkeypatch.setattr(contact, "least_squares_batch", counted)
    _solve_reeb(head(family_samples.at(0.7), 2 * _BLOCK + 3), True)
    assert systems == [_BLOCK, _BLOCK, 3]
    systems.clear()
    _contact_reeb(*contact_form_samples)
    assert systems == [_BLOCK, _BLOCK, 3]


def test_blocked_solve_stays_below_one_full_row_stack(family_samples):
    s = head(family_samples.at(0.7), 4 * _BLOCK)
    points, n = s.alpha.shape
    stack = points * (2 * n + 2) * n * 8
    _solve_reeb(s, True)  # warm up: no first-call allocations are measured
    tracemalloc.start()
    try:
        _solve_reeb(s, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < stack, (peak, stack)


def _linalg_solve_sites():
    """(module, enclosing function) of every np.linalg.solve or
    np.linalg.pinv in the package, and the names imported from
    numpy.linalg directly."""
    sites, imported = [], []
    for path in sorted(Path(contactpairs.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))

        def visit(node, function):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function = node.name
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
                imported.extend((path.stem, alias.name) for alias in node.names)
            if (isinstance(node, ast.Attribute) and node.attr in ("solve", "pinv")
                    and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"):
                sites.append((path.stem, function, node.attr))
            for child in ast.iter_child_nodes(node):
                visit(child, function)

        visit(tree, None)
    return sites, imported


def test_only_least_squares_batch_solves_linear_systems():
    sites, imported = _linalg_solve_sites()
    assert sorted(sites) == [
        ("contact", "least_squares_batch", "pinv"),
        ("contact", "least_squares_batch", "solve"),
    ]
    assert imported == []
