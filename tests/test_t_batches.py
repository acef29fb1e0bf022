"""A family's t grid is certified in batches of t: the samples of a batch
are formed by one broadcast over a leading t axis and the arrays of its
pair certificates by one pass of the exterior kernels, yet every per-t
certificate is bit for bit the one of that t's own samples
(``SampledFamily.at(t)``)."""

import ast
import json

import numpy as np
import pytest
from test_contact import dense_samples
from test_gates import PACKAGE, _sites
from test_reeb_formula import dense_reeb_pair

from contactpairs import contact, deformation
from contactpairs.contact import ContactPairError, SampledPair, _certify, _peaks, _reeb_pair, _t_batch
from contactpairs.deformation import (
    CONVERSE_T_GRID,
    FORWARD_T_GRID,
    SampledFamily,
    sweep_rows,
    verify_converse,
    verify_forward,
)
from contactpairs.models import default_tolerance, random_points, sample_points
from contactpairs.registry import build_example


def _setup(name, count):
    """The family and its points: the one formal point of a Lie model, or
    ``count`` random points of a chart."""
    family = build_example(name)["family"]
    rng = np.random.default_rng(5)
    if count == 1:
        pts = sample_points(family.model, rng)
        assert len(pts) == 1
    else:
        pts = random_points(family.model, count, rng)
    return family, pts


def _record_certify(monkeypatch):
    """Record (samples, Reeb pair, certificate or error) of every
    certificate a verdict makes, as its Reeb step completes it."""
    calls = []
    real = contact._reeb_step

    def recording(s, gated, reeb, chains=None):
        try:
            cert = real(s, gated, reeb, chains)
        except ContactPairError as err:
            calls.append((s, reeb, err))
            raise
        calls.append((s, reeb, cert))
        return cert

    for module in (contact, deformation):
        monkeypatch.setattr(module, "_reeb_step", recording)
    return calls, real


def _item(t, make):
    """The per-t item of ``make`` as JSON text, which keeps every bit of its
    floats, and its Reeb pair as bytes (None on failure)."""
    item, cert = deformation._cert_item(f"(alpha_t,beta_t) is a contact pair at t={t:g}", make)
    reeb = None if cert is None else (cert.reeb_alpha_values.tobytes(), cert.reeb_beta_values.tobytes())
    return json.dumps(item.to_dict()), reeb


def _recorded(result):
    def make():
        if isinstance(result, ContactPairError):
            raise result
        return result
    return make


def _assert_batched_equals_per_t(monkeypatch, family, pts, verify, grid):
    calls, reeb_step = _record_certify(monkeypatch)
    verify(family, t_grid=grid, points=pts)
    # the base pair is certified first (forward) or last (converse)
    per_t = calls[1:] if verify is verify_forward else calls[:-1]
    assert len(per_t) == len(grid)
    tol = default_tolerance(family.model)
    sampled = SampledFamily(family, pts, tol)
    for t, (s, reeb, got) in zip(grid, per_t):
        alone = sampled.at(t)  # t's own samples, gated as a batch of one
        arrays, chains = alone.certificate_arrays(family.k, family.l)
        gated = _certify(alone, family.k, family.l, tol, arrays)[0]
        ea, eb, residual = _reeb_pair(alone, chains)
        want = _item(t, lambda: reeb_step(alone, gated, (ea, eb, _peaks(residual)[0])))
        assert _item(t, _recorded(got)) == want
    return per_t


# (example, sample points): one point certifies a whole grid in one batch,
# two points 2048 t per batch, 1365 points 3, and from 2049 points on a
# batch holds one t
SIZES = [("heisenberg6-pair", 1)] + [
    (name, count)
    for name in ("t6-pair-compatible", "t6-pair-incompatible")
    for count in (2, 1365, 2049, 10_000)
]


@pytest.mark.parametrize("verify", [verify_forward, verify_converse])
@pytest.mark.parametrize("name,count", SIZES)
def test_batched_certificates_equal_the_per_t_certificates(monkeypatch, verify, name, count):
    family, pts = _setup(name, count)
    grid = list(FORWARD_T_GRID if verify is verify_forward else CONVERSE_T_GRID)
    _assert_batched_equals_per_t(monkeypatch, family, pts, verify, grid)


BATCH_SIZES = {
    # points: forward batches (8 t), converse batches (4 t)
    1: ([8], [4]),
    2: ([8], [4]),
    1365: ([3, 3, 2], [3, 1]),
    2049: ([1] * 8, [1] * 4),
    10_000: ([1] * 8, [1] * 4),
}


@pytest.mark.parametrize("count", sorted(BATCH_SIZES))
def test_the_t_grid_is_sampled_and_certified_in_batches_of_block_over_points(monkeypatch, count):
    family, pts = _setup("heisenberg6-pair" if count == 1 else "t6-pair-compatible", count)
    assert _t_batch(len(pts)) == max(1, 4096 // count)
    shapes, passes = [], []
    real_at, real_arrays = SampledFamily.at, SampledPair.certificate_arrays

    def recording_at(self, t):
        shapes.append(np.shape(t))
        return real_at(self, t)

    def recording_arrays(self, k, l):
        if self.rows[0].ndim == 3:  # the kernel pass of a batch
            passes.append(self.rows[0].shape[1])
        return real_arrays(self, k, l)

    monkeypatch.setattr(SampledFamily, "at", recording_at)
    monkeypatch.setattr(SampledPair, "certificate_arrays", recording_arrays)
    for verify, sizes in zip((verify_forward, verify_converse), BATCH_SIZES[count]):
        shapes.clear()
        passes.clear()
        verify(family, points=pts)
        # a batch of one t is sampled and certified as a batch too
        assert shapes == [(size, 1, 1) for size in sizes]
        assert passes == sizes


def _bits(values):
    return [(np.shape(v), np.asarray(v).tobytes()) for v in values]


@pytest.mark.parametrize("count", [1, 2, 1365, 2049])
def test_batches_yield_the_samples_and_arrays_of_each_t_alone(monkeypatch, count):
    family, pts = _setup("heisenberg6-pair" if count == 1 else "t6-pair-compatible", count)
    sampled = SampledFamily(family, pts, default_tolerance(family.model))
    shapes = []
    real_at = SampledFamily.at

    def recording_at(self, t):
        shapes.append(np.shape(t))
        return real_at(self, t)

    monkeypatch.setattr(SampledFamily, "at", recording_at)
    for grid, sizes in zip((FORWARD_T_GRID, CONVERSE_T_GRID), BATCH_SIZES[count]):
        shapes.clear()
        yielded = list(sampled.batches(list(grid)))
        assert shapes == [(size, 1, 1) for size in sizes]
        assert [t for batch_t, _, _ in yielded for t in batch_t] == list(grid)
        assert all(batch.rows[0].shape[1] == len(batch_t) for batch_t, batch, _ in yielded)
        per_t = [
            (batch.t_slice(i), [v[i] for v in (*arrays, *dense_reeb_pair(batch, chains))])
            for batch_t, batch, (arrays, chains) in yielded for i in range(len(batch_t))
        ]
        for t, (s, arrays) in zip(grid, per_t):
            assert s.points is sampled.points
            # closed + t * direction, formed for t alone
            assert _affine_bits(sampled, s, t)
            alone = real_at(sampled, t)
            want, chains = alone.certificate_arrays(family.k, family.l)
            # the arrays and the Reeb pair with its residual
            assert _bits(arrays) == _bits((*want, *dense_reeb_pair(alone, chains)))


@pytest.mark.parametrize("verify", [verify_forward, verify_converse])
@pytest.mark.parametrize("name,count", [("heisenberg6-pair", 1), ("t6-pair-compatible", 1365)])
def test_an_overflowing_t_leaves_the_finite_t_of_its_batch_unchanged(monkeypatch, verify, name, count):
    family, pts = _setup(name, count)
    assert _t_batch(len(pts)) >= 2  # both t in one batch
    per_t = _assert_batched_equals_per_t(monkeypatch, family, pts, verify, [1.0, 1e308])
    (_, _, finite), (_, _, overflow) = per_t
    assert isinstance(overflow, ContactPairError) and overflow.condition == "non-finite"
    assert not isinstance(finite, ContactPairError)
    # and t = 1 reads as in a grid of its own
    verdict = verify(family, t_grid=[1.0, 1e308], points=pts)
    alone = verify(family, t_grid=[1.0], points=pts)
    items = verdict.conclusions if verify is verify_forward else verdict.hypotheses
    items_alone = alone.conclusions if verify is verify_forward else alone.hypotheses
    name_1 = "(alpha_t,beta_t) is a contact pair at t=1"
    assert [json.dumps(i.to_dict()) for i in items if i.name == name_1] == [
        json.dumps(i.to_dict()) for i in items_alone if i.name == name_1
    ]
    (failed,) = [i for i in items if i.name == "(alpha_t,beta_t) is a contact pair at t=1e+308"]
    assert failed.passed is False and failed.witness["t"] == 1e308


def _dense_reeb(sampled, t, tol):
    """The dense (E_alpha, E_beta) of t's certificate alone."""
    cert = contact._certificate(sampled.at(t), sampled.k, sampled.l, tol, False)
    return cert.reeb_alpha_values, cert.reeb_beta_values


@pytest.mark.parametrize("name,count", [("heisenberg6-pair", 1), ("t6-pair-compatible", 1365)])
def test_the_converse_compares_reeb_pairs_as_the_dense_fields_do(name, count):
    # the drift of t * E_t across t and the (E_alpha,E_beta) = (X,Y) item
    # read compact fields; each defect is that of np.abs(a - b) on the
    # dense (P, n) fields of the certificates, bit for bit (the forward
    # "Reeb scaling" items are compared so in test_batched_gates)
    family, pts = _setup(name, count)
    tol = default_tolerance(family.model)
    sampled = SampledFamily(family, pts, tol)
    scaled = [(t * a, t * b) for t in CONVERSE_T_GRID for a, b in [_dense_reeb(sampled, t, tol)]]
    x, y = scaled[0]
    drift = max(max(float(np.max(np.abs(a - x))), float(np.max(np.abs(b - y)))) for a, b in scaled[1:])
    base = deformation._base_item(sampled, tol)[1]
    defect = max(float(np.max(np.abs(base.reeb_alpha_values - x))), float(np.max(np.abs(base.reeb_beta_values - y))))
    verdict = verify_converse(family, points=pts)
    items = {i.name: i for i in verdict.hypotheses + verdict.conclusions}
    scale = max(1.0, float(np.max(np.abs(x))), float(np.max(np.abs(y))))
    assert items["t * E_{alpha_t}, t * E_{beta_t} constant across t"].defect == drift
    matched = items["(E_alpha,E_beta) = (X,Y)"]
    assert (matched.defect, matched.threshold) == (defect, tol * scale)


@pytest.mark.parametrize("verify,t_count", [(verify_forward, 8), (verify_converse, 4)])
def test_a_batch_is_released_once_its_t_are_certified(monkeypatch, verify, t_count):
    # one t per batch at 2049 points: the samples of the previous t are gone
    # by the time the next t's samples are formed, so each t is formed in
    # the buffers of the first
    family, pts = _setup("t6-pair-compatible", 2049)
    formed = []
    real_at = SampledFamily.at

    def recording(self, t):
        s = real_at(self, t)
        formed.append([id(rows) for rows in s.rows])
        return s

    monkeypatch.setattr(SampledFamily, "at", recording)
    verify(family, points=pts)
    assert len(formed) == t_count and all(ids == formed[0] for ids in formed)


def _affine_bits(sampled, s, t):
    """Whether the samples s hold closed + t * direction, bit for bit."""
    closed, direction = dense_samples(sampled.closed), dense_samples(sampled.direction)
    return _bits(dense_samples(s)) == _bits([c + t * d for c, d in zip(closed, direction)])


@pytest.mark.parametrize("verify", [verify_forward, verify_converse])
def test_samples_held_past_the_next_batch_keep_their_bytes(monkeypatch, verify):
    # every certificate, with its samples, is held to the end of the
    # verdict: one t per batch, so each later batch is formed in new buffers
    family, pts = _setup("t6-pair-compatible", 2049)
    calls, _ = _record_certify(monkeypatch)
    verify(family, points=pts)
    grid = FORWARD_T_GRID if verify is verify_forward else CONVERSE_T_GRID
    per_t = calls[1:] if verify is verify_forward else calls[:-1]
    sampled = SampledFamily(family, pts, default_tolerance(family.model))
    assert len(per_t) == len(grid)
    assert all(_affine_bits(sampled, s, t) for t, (s, _, _) in zip(grid, per_t))


def test_a_dropped_batch_lends_its_buffers_to_the_next():
    family, pts = _setup("t6-pair-compatible", 2049)
    sampled = SampledFamily(family, pts, default_tolerance(family.model))
    owners = []
    for t, batch, arrays in sampled.batches([0.5, -1.0, 2.0]):
        assert _affine_bits(sampled, batch.t_slice(0), t[0])
        owners.append([id(rows) for rows in batch.rows])
        del batch, arrays  # the chains of a power of one factor are that factor's samples
    assert owners[0] == owners[1] == owners[2] == [id(b) for b in sampled._buffers[(True, (1,))]]


def test_a_non_finite_t_leaves_every_dead_component_zero():
    # a t that is not finite forms every component, in buffers of its own:
    # the finite batches before and after it hold +0.0 outside their live
    # components
    family, pts = _setup("t6-pair-compatible", 2)
    sampled = SampledFamily(family, pts, default_tolerance(family.model))
    c, d = sampled.closed, sampled.direction
    counts = [v.shape[-1] for v in dense_samples(c)]
    dead = [[i for i in range(count) if i not in {*cl[0], *dl[0]}] for count, cl, dl in zip(counts, c.live, d.live)]
    assert all(dead)
    for t in (1.0, np.inf, 1.0, np.nan, -2.0):
        s = sampled.at(np.array([t])[:, None, None])
        arrays = dense_samples(s)
        if np.isfinite(t):
            assert _affine_bits(sampled, s.t_slice(0), t)
            assert all(np.all(v[..., d] == 0.0) and not np.any(np.signbit(v[..., d])) for v, d in zip(arrays, dead))
            assert [len(rows) for rows in s.rows] == [count - len(d) for count, d in zip(counts, dead)]
        else:
            assert [comps for comps, _ in s.live] == [tuple(range(count)) for count in counts]
            assert not all(np.isfinite(v).all() for v in arrays)
        del s, arrays


@pytest.mark.parametrize("count", [1, 2049])
def test_sweep_forms_its_samples_in_batches_of_t(monkeypatch, count):
    # one formal Lie point sweeps its whole grid with one `at` and one
    # kernel pass; from 2049 points on each batch holds one t
    family, pts = _setup("heisenberg6-pair" if count == 1 else "t6-pair-compatible", count)
    shapes, real_at = [], SampledFamily.at
    monkeypatch.setattr(SampledFamily, "at", lambda self, t: shapes.append(np.shape(t)) or real_at(self, t))
    rows = sweep_rows(family, CONVERSE_T_GRID, points=pts)
    step = _t_batch(count)
    assert [row["t"] for row in rows] == list(CONVERSE_T_GRID)
    assert shapes == [(len(CONVERSE_T_GRID[lo : lo + step]), 1, 1) for lo in range(0, len(CONVERSE_T_GRID), step)]
    assert len(shapes) == (1 if count == 1 else len(CONVERSE_T_GRID))


def test_certificate_arrays_are_computed_on_one_path():
    # the t of a family's grid get theirs from batches, every other
    # certificate computes its own
    assert _sites(lambda node: isinstance(node, ast.Attribute) and node.attr == "certificate_arrays") == [
        ("contact", "_certificate"),
        ("deformation", "batches"),
    ]


def test_a_sampled_pair_keeps_only_its_samples_forms_and_partials():
    tree = ast.parse((PACKAGE / "contact.py").read_text(encoding="utf-8"))
    (cls,) = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "SampledPair"]
    stored = [
        (method.name, node.attr)
        for method in cls.body
        if isinstance(method, ast.FunctionDef)
        for node in ast.walk(method)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
    ]
    assert stored == [("__init__", name) for name in ("points", "n", "rows", "live", "forms", "_partials")] + [
        ("partials", "_partials")]
