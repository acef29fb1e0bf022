"""The Reeb systems are solved in blocks of ``exterior._BLOCK // 2`` points,
shared between the calling thread and, on two cores or more, one worker
thread.

The Reeb pair, the commutator's derivative solve, the Reeb field of one
contact form and the leaf-restricted solve of a Jacobi side share one block
loop, and no other code in the package solves a linear system.  Every solution bit must equal that of
one least-squares call on the full row stack, written out below as it stood
before the solve was blocked, on any number of cores, and the solve must
never hold the full row stack.  The core count is what ``contact`` reads
from ``os.sched_getaffinity`` (``os.cpu_count`` where that is missing),
replaced here by ``use_cores``.
"""

import ast
import threading
import time
import tracemalloc
import warnings
from collections import Counter
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
from contactpairs.models import default_tolerance, random_points
from contactpairs.registry import build_example
from test_exterior import same_bits

HALF = _BLOCK // 2
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


def single_rows(av, da_m):
    """The full row stack of the Reeb systems of one contact form."""
    return np.concatenate([av[:, None, :], np.swapaxes(da_m, 1, 2)], axis=1)


def single_reference(av, da_m):
    """The Reeb field of one contact form from one call on the full row stack."""
    rows = single_rows(av, da_m)
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
    return SampledFamily(objs["family"], pts, default_tolerance(objs["model"]))


@pytest.fixture(scope="module")
def contact_form_samples():
    """alpha and the matrices of d alpha at 2B + 3 torus-contact points."""
    _, alpha = torus_contact()
    pts = random_points(alpha.model, 2 * _BLOCK + 3, np.random.default_rng(5))
    return alpha.values(pts), two_form_matrices(3, alpha.d().values(pts))


def head(s: SampledPair, points: int) -> SampledPair:
    """The first points of s, as fresh arrays, with the live sets of s."""
    parts = (s.points, s.alpha, s.beta, s.dalpha, s.dbeta)
    return SampledPair(*(np.array(v[:points]) for v in parts), live=s.live)


def use_cores(monkeypatch, cores: int) -> None:
    """Let contact see an affinity mask of ``cores`` CPUs."""
    monkeypatch.setattr(contact.os, "sched_getaffinity", lambda pid: set(range(cores)))


def zero_system(s: SampledPair, index: int) -> None:
    """Make the Reeb system of point ``index`` all zero: its Gram matrix is
    exactly singular."""
    for v in (s.alpha, s.beta, s.dalpha, s.dbeta):
        v[index] = 0.0


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
    zero_system(s, -1)
    want = reference(s, compute_sigma)
    assert_same(_solve_reeb(s, compute_sigma), want)
    # the test can see the rule: per-block fallback would change the bits of
    # the first block, which is regular
    first = head(s, HALF)
    assert not same_bits(reference(first, compute_sigma)[0], want[0][:HALF])


@pytest.mark.parametrize("cores", (1, 2, 8))
def test_a_singular_gram_in_the_first_block_starts_no_further_lu_block(family_samples, monkeypatch, cores):
    use_cores(monkeypatch, cores)
    s = head(family_samples.at(0.7), 2 * _BLOCK + 3)
    zero_system(s, 0)
    want = reference(s, True)
    calls, failed = [], threading.Event()
    solve = contact.least_squares_batch

    def recorded(a, b, compute_sigma=False, pinv=False):
        calls.append((len(a), pinv))
        if not pinv and np.any(a[0]):
            failed.wait(30)  # a regular LU block ends only after the singular one failed
        try:
            return solve(a, b, compute_sigma, pinv)
        except contact._SingularGram:
            failed.set()
            raise

    monkeypatch.setattr(contact, "least_squares_batch", recorded)
    got = _solve_reeb(s, True)
    # one LU call per thread at most: the block that failed and the one in
    # flight; then every block by the pseudo-inverse
    lu = sum(not pinv for _, pinv in calls)
    assert 1 <= lu <= min(cores, 2)
    assert not any(pinv for _, pinv in calls[:lu])
    assert Counter(size for size, _ in calls[lu:]) == Counter({HALF: 4, 3: 1})
    assert_same(got, want)


@pytest.mark.parametrize("cores", (1, 2))
def test_an_error_in_any_block_reaches_the_caller(family_samples, monkeypatch, cores):
    use_cores(monkeypatch, cores)
    solve = contact.least_squares_batch

    def fails_on_the_last_block(a, *args):
        if len(a) == 3:
            raise MemoryError("the last block")
        return solve(a, *args)

    monkeypatch.setattr(contact, "least_squares_batch", fails_on_the_last_block)
    with pytest.raises(MemoryError, match="the last block"):
        _solve_reeb(head(family_samples.at(0.7), 2 * _BLOCK + 3), True)


@pytest.mark.parametrize("singular_first", (True, False))
@pytest.mark.parametrize("cores", (2, 8))
def test_the_first_failing_block_decides_what_the_caller_gets(family_samples, monkeypatch, cores, singular_first):
    # blocks 0 and 1 fail, one with a singular Gram matrix and one with
    # MemoryError; block 1 fails first in time, yet the caller must get what a
    # serial loop would give: the outcome of block 0
    use_cores(monkeypatch, cores)
    s = head(family_samples.at(0.7), 2 * _BLOCK + 3)
    zero_system(s, 0 if singular_first else HALF)
    rows = s.reeb_rows()
    first_rows = {rows[0].tobytes(): 0, rows[HALF].tobytes(): 1}
    block_one_failed = threading.Event()
    solve = contact.least_squares_batch

    def failing(a, b, compute_sigma=False, pinv=False):
        block = None if pinv else first_rows.get(a[0].tobytes())
        if block == 0:
            block_one_failed.wait(30)
            time.sleep(0.05)  # let block 1's error be recorded first
            if not singular_first:
                raise MemoryError("block 0")
        try:
            if block == 1 and singular_first:
                raise MemoryError("block 1")
            return solve(a, b, compute_sigma, pinv)
        finally:
            if block == 1:
                block_one_failed.set()

    monkeypatch.setattr(contact, "least_squares_batch", failing)
    if singular_first:
        assert_same(_solve_reeb(s, True), reference(s, True))
    else:
        with pytest.raises(MemoryError, match="block 0"):
            _solve_reeb(s, True)


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
    assert not same_bits(single_reference(av[:HALF], da_m[:HALF])[0], want[0][:HALF])


def test_every_block_is_one_least_squares_call(family_samples, contact_form_samples, monkeypatch):
    # blocks are taken in no fixed order, so the partition is pinned as a
    # multiset of block sizes, the same on any number of cores, and each
    # point's rows are found in exactly one call
    calls = []
    solve_batch = contact.least_squares_batch

    def recorded(a, b, compute_sigma=False, pinv=False):
        calls.append((a, pinv))
        return solve_batch(a, b, compute_sigma, pinv)

    monkeypatch.setattr(contact, "least_squares_batch", recorded)
    s = head(family_samples.at(0.7), 2 * _BLOCK + 3)
    for cores in (1, 2, 4):
        use_cores(monkeypatch, cores)
        for solve, rows in (
            (lambda: _solve_reeb(s, True), s.reeb_rows()),
            (lambda: _contact_reeb(*contact_form_samples), single_rows(*contact_form_samples)),
        ):
            calls.clear()
            solve()
            assert Counter(len(a) for a, _ in calls) == Counter({HALF: 4, 3: 1})
            assert not any(pinv for _, pinv in calls)
            assert sorted(r.tobytes() for a, _ in calls for r in a) == sorted(r.tobytes() for r in rows)


@pytest.mark.parametrize("cores", (1, 2, 4))
def test_the_bits_do_not_depend_on_the_core_count(family_samples, contact_form_samples, monkeypatch, cores):
    use_cores(monkeypatch, cores)
    s = head(family_samples.at(0.7), 2 * _BLOCK + 3)
    assert_same(_solve_reeb(s, True), reference(s, True))
    w = np.random.default_rng(4).standard_normal((2 * _BLOCK + 3, 2 * s.n + 2, 1))
    assert_same(_solve_blocks(s.reeb_rows, len(s.points), w, False), one_shot(s.reeb_rows(), w))
    assert_same(_contact_reeb(*contact_form_samples), single_reference(*contact_form_samples))


def started_threads(monkeypatch) -> list:
    """The threads contact starts from now on."""
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(contact.threading, "Thread", Counted)
    return started


@pytest.mark.parametrize(
    "cores, points, workers",
    ((1, 2 * _BLOCK + 3, 0), (4, HALF, 0), (2, 2 * _BLOCK + 3, 1), (4, 2 * _BLOCK + 3, 1), (8, _BLOCK + 1, 1)),
)
def test_at_most_one_worker_and_none_for_one_block(family_samples, monkeypatch, cores, points, workers):
    # two blocks in flight at most, on any number of cores
    use_cores(monkeypatch, cores)
    started = started_threads(monkeypatch)
    _solve_reeb(head(family_samples.at(0.7), points), False)
    assert len(started) == workers


@pytest.mark.parametrize("cpu_count, workers", ((None, 0), (1, 0), (2, 1), (8, 1)))
def test_without_an_affinity_mask_the_cpu_count_is_read(family_samples, monkeypatch, cpu_count, workers):
    # os.sched_getaffinity exists on Linux only
    monkeypatch.delattr(contact.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(contact.os, "cpu_count", lambda: cpu_count)
    started = started_threads(monkeypatch)
    s = head(family_samples.at(0.7), 2 * _BLOCK + 3)
    assert_same(_solve_reeb(s, True), reference(s, True))
    assert len(started) == workers


def test_workers_run_under_the_callers_errstate(family_samples, monkeypatch):
    # a worker that ignored the caller's np.errstate would warn of the
    # overflow, which is raised here and handed back to the caller
    use_cores(monkeypatch, 2)
    s = head(family_samples.at(1e308), 2 * _BLOCK + 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore", invalid="ignore"):
            want = reference(s, True)
            assert_same(_solve_reeb(s, True), want)


def test_blocked_solve_stays_below_one_full_row_stack(family_samples, monkeypatch):
    # on the cores this process may use, then on 1, 2 and 8: at most two
    # blocks of _BLOCK // 2 points are in flight, the rows of one _BLOCK;
    # tracemalloc sees the allocations of every thread
    s = head(family_samples.at(0.7), 4 * _BLOCK)
    points, n = s.alpha.shape
    stack = points * (2 * n + 2) * n * 8
    for cores in (None, 1, 2, 8):
        if cores is not None:
            use_cores(monkeypatch, cores)
        _solve_reeb(s, True)  # warm up: no first-call allocations are measured
        tracemalloc.start()
        try:
            _solve_reeb(s, True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < stack, (cores, peak, stack)


def test_the_scaled_residual_terms_take_the_blocks_of_the_solve(family_samples):
    objs = build_example("t6-pair-compatible")
    pts = family_samples.points[: 2 * _BLOCK + 3]
    sampled = SampledFamily(objs["family"], pts, default_tolerance(objs["model"]))
    z = np.zeros((len(pts), 6))
    blocks = [block for block, _, _ in sampled.reeb_terms(z, z)]
    assert blocks == contact._blocks(len(pts))
    assert Counter(b.stop - b.start for b in blocks) == Counter({HALF: 4, 3: 1})


def test_the_block_partition_is_written_once():
    # every blocked loop over the Reeb rows reads contact._blocks, and
    # every batch of a family's t grid contact._t_batch
    sites = []
    for path in sorted(Path(contactpairs.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            if isinstance(function, ast.FunctionDef):
                sites += [
                    (path.stem, function.name) for node in ast.walk(function)
                    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv)
                    and getattr(node.left, "id", None) == "_BLOCK"
                ]
    assert sites == [("contact", "_blocks"), ("contact", "_t_batch")]


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
