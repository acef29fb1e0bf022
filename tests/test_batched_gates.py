"""A batch of t is gated once: the pair certificate's gates reduce the
(T, P) arrays of a batch along the points axis, and each t then walks the
gates in order on its own reductions.  Every per-t item must be the one of
certifying that t alone with scalar gates on its own rows, which is kept
here as the reference: name, passed, defect, threshold, witness and note,
in t order, for batches that mix passing, failing, marginal and
overflowing t."""

import json
import types

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, event, given, settings, strategies as st  # noqa: E402

from contactpairs import contact, deformation  # noqa: E402
from contactpairs.contact import (  # noqa: E402
    ContactPairError,
    _reeb_pair,
    _t_batch,
    _witness,
    marginal,
)
from contactpairs.deformation import (  # noqa: E402
    DeformationFamily,
    SampledFamily,
    sweep_rows,
    verify_converse,
    verify_forward,
)
from contactpairs.fields import FormField, constant_form  # noqa: E402
from contactpairs.models import (  # noqa: E402
    ProductModel,
    default_tolerance,
    heisenberg3,
    random_points,
    sample_points,
)
from contactpairs.registry import build_example  # noqa: E402
from test_reeb_formula import dense_reeb_pair  # noqa: E402

# --- the reference: one t certified alone, each bound on its own row ----------------


def _vanishing(condition, message, res, threshold, pts):
    defect = float(np.max(res))
    if not defect <= threshold:
        idx = int(np.argmax(res))
        raise ContactPairError(condition, message, _witness(pts, idx, value=defect), defect, threshold)
    return defect


def _nonvanishing(condition, message, values, threshold, pts):
    idx = int(np.argmin(np.abs(values)))
    defect = float(np.abs(values[idx]))
    if not defect > threshold:
        raise ContactPairError(condition, message, _witness(pts, idx, value=float(values[idx])), defect, threshold)
    return defect


def _reference_certificate(s, k, l, tol):
    """The per-t certificate of s with scalar gates: (reeb_residual,
    residual_threshold, E_alpha, E_beta), or the failure."""
    pts = s.points
    (scale_a, scale_b, scale_da, scale_db, a_rows, b_rows, da_res, db_res, vol), chains = s.certificate_arrays(k, l)
    with np.errstate(over="ignore", invalid="ignore"):
        res_scale = max(1.0, scale_a, scale_b, scale_da, scale_db)
        da_threshold = tol * scale_da ** (k + 1)
        db_threshold = tol * scale_db ** (l + 1)
        vol_scale = scale_a * scale_b * scale_da**k * scale_db**l
        checked = (vol_scale, da_threshold, db_threshold, da_res, db_res, vol)
    if not all(np.all(np.isfinite(v)) for v in checked):
        raise ContactPairError("non-finite", "a sample, its scale or a wedge chain is not finite")
    for name, rows, scale in (("alpha", a_rows, scale_a), ("beta", b_rows, scale_b)):
        _nonvanishing(f"{name}-nonvanishing", f"{name} vanishes at a sample point", rows, tol * scale, pts)
    _vanishing("dalpha-power", f"(d alpha)^{k + 1} does not vanish", da_res, da_threshold, pts)
    _vanishing("dbeta-power", f"(d beta)^{l + 1} does not vanish", db_res, db_threshold, pts)
    _nonvanishing("volume", "volume coefficient vanishes at a sample point", vol, tol * vol_scale, pts)
    if vol.min() < 0.0 < vol.max():
        raise ContactPairError("orientation", "volume coefficient changes sign across sample points", {
            "negative": _witness(pts, int(np.argmin(vol)), value=float(vol.min())),
            "positive": _witness(pts, int(np.argmax(vol)), value=float(vol.max())),
        })
    res_threshold = tol * res_scale
    ea, eb, res = dense_reeb_pair(s, chains)
    defect = _vanishing("reeb-residual", contact._INCONSISTENT, res, res_threshold, pts)
    return defect, res_threshold, ea, eb


def _reference_items(sampled, t, tol, forward, base):
    """The contact-pair item at t and, in a forward verdict, its Reeb
    scaling item against the Reeb pair ``base`` of the base certificate
    (None when it failed)."""
    outcome = None

    def make():
        nonlocal outcome
        outcome = _reference_certificate(sampled.at(t), sampled.k, sampled.l, tol)
        return types.SimpleNamespace(reeb_residual=outcome[0], residual_threshold=outcome[1])

    item, cert = deformation._cert_item(f"(alpha_t,beta_t) is a contact pair at t={t:g}", make)
    if cert is None and item.witness["condition"] == "non-finite":
        item.witness["t"] = t
    items = [item]
    if forward:
        name = f"Reeb scaling at t={t:g}"
        if cert is None or base is None:
            items.append(deformation.CheckItem(name, None, note="not evaluated (no certificate)"))
        else:
            ea0, eb0 = base
            diff = np.maximum(
                np.max(np.abs(t * outcome[2] - ea0), axis=1), np.max(np.abs(t * outcome[3] - eb0), axis=1)
            )
            scale = max(1.0, float(np.max(np.abs(ea0))), float(np.max(np.abs(eb0))))
            point = [float(v) for v in sampled.points[int(np.argmax(diff))]]
            items.append(deformation._gate(name, float(np.max(diff)), tol * scale, {"t": t, "point": point}))
    return items


def _text(items):
    """Items as JSON text, which keeps every bit of their floats."""
    return [json.dumps(i.to_dict()) for i in items]


def _assert_items_equal_the_reference(monkeypatch, family, pts, verify, grid):
    """Run the verdict and compare each per-t item with certifying that t
    alone; returns the verdict's per-t contact-pair items."""
    verdict = verify(family, t_grid=grid, points=pts)
    tol = default_tolerance(family.model)
    sampled = SampledFamily(family, pts, tol)
    forward = verify is verify_forward
    # the base pair is certified first (forward) or last (converse)
    base_item = verdict.hypotheses[0] if forward else verdict.conclusions[0]
    base_pair = None
    if forward and base_item.passed:
        cert = deformation._base_item(sampled, tol)[1]
        base_pair = (cert.reeb_alpha_values, cert.reeb_beta_values)
    items = verdict.conclusions if forward else verdict.hypotheses[: len(grid)]
    per_t = [i for i in items if i.name.startswith("(alpha_t,beta_t)")]
    assert [i.name for i in per_t] == [f"(alpha_t,beta_t) is a contact pair at t={t:g}" for t in grid]
    # each t's outcome goes through the Reeb step, which raises a failed gate
    want = []
    for t in grid:
        want += _reference_items(sampled, t, tol, forward, base_pair)
    assert _text(items if forward else per_t) == _text(want)
    return per_t


def _kind(item) -> str:
    if item.passed:
        return "pass"
    if item.witness["condition"] == "non-finite":
        return "overflow"
    return "marginal" if marginal(item.defect, item.threshold) else "fail"


# --- random Lie and chart families ----------------------------------------------------

H6 = ProductModel(heisenberg3("hl"), heisenberg3("hr"))
CLOSED_H6_AXES = (0, 1, 3, 4)  # the closed invariant coframe directions of h3 x h3
T6 = build_example("t6-pair-compatible")["model"]  # T^3 x T^3, whose quadrature grid is capped
POOL = (0.0, 0.0, 1.0, -1.0, 0.5, 2.0)
CHART_DIRECTION = ("0", "0", "0.5", "sin(x1)", "0.25*cos(x2)", "x4-x3")
# small t near the marginal band of the volume gate, moderate t, and t
# whose chains overflow
SMALL_T = tuple(float(f"{t:.1e}") for t in np.geomspace(1e-6, 1e-2, 14))
MODERATE_T = (0.01, 0.5, 1.0, 2.0, 10.0)
HUGE_T = (1e154, 1e200, 1e308)


@st.composite
def lie_families(draw):
    closed = [[0.0] * 6, [0.0] * 6]
    for row in closed:
        for axis in CLOSED_H6_AXES:
            row[axis] = draw(st.sampled_from(POOL))
    alpha = [draw(st.sampled_from(POOL)) for _ in range(6)]
    beta = [draw(st.sampled_from(POOL)) for _ in range(6)]
    alpha[2], beta[5] = 1.0, draw(st.sampled_from((1.0, -2.0)))  # contact on each factor, mostly
    forms = [constant_form(H6, 1, c) for c in (*closed, alpha, beta)]
    return DeformationFamily(*forms, 1, 1), sample_points(H6)


@st.composite
def chart_families(draw):
    alpha0 = ["1", "0", "0", draw(st.sampled_from(("0", "0.5"))), "0", "0"]
    beta0 = ["0", draw(st.sampled_from(("0", "-1"))), "0", "1", "0", "0"]
    alpha = ["0", "cos(x0)", "sin(x0)", "0", "0", "0"]
    beta = ["0", "0", "0", "0", "cos(x3)", "sin(x3)"]
    for form in (alpha, beta):
        axis = draw(st.integers(0, 5))
        form[axis] = f"{form[axis]}+{draw(st.sampled_from(CHART_DIRECTION))}"
    forms = [FormField(T6, 1, c) for c in (alpha0, beta0, alpha, beta)]
    count = draw(st.integers(1, 40))
    pts = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(0.0, 2 * np.pi, (count, 6))
    return DeformationFamily(*forms, 1, 1), pts


@st.composite
def grids(draw, forward):
    sign = st.sampled_from((1.0, -1.0)) if forward else st.just(1.0)
    small = draw(st.lists(st.sampled_from(SMALL_T), min_size=1, max_size=4, unique=True))
    moderate = draw(st.lists(st.sampled_from(MODERATE_T), min_size=1, max_size=2, unique=True))
    huge = draw(st.lists(st.sampled_from(HUGE_T), min_size=1, max_size=2, unique=True))
    grid = [draw(sign) * t for t in small + moderate + huge]
    return draw(st.permutations(grid))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.one_of(lie_families(), chart_families()), st.booleans(), st.data())
def test_batched_items_equal_each_t_certified_alone(family_points, forward, data):
    family, pts = family_points
    try:
        SampledFamily(family, pts, default_tolerance(family.model))
    except ValueError:
        assume(False)  # alpha0 and beta0 not closed or dependent
    grid = data.draw(grids(forward))
    assert _t_batch(len(pts)) >= len(grid)  # the grid is one batch
    with pytest.MonkeyPatch.context() as monkeypatch:
        per_t = _assert_items_equal_the_reference(
            monkeypatch, family, pts, verify_forward if forward else verify_converse, grid
        )
    for kind in sorted({_kind(item) for item in per_t}):
        event(kind)


def test_one_batch_mixes_passing_failing_marginal_and_overflowing_t(monkeypatch):
    # heisenberg6-pair's one point: t = 1e-5 fails the volume gate by far,
    # 1e-4 within the marginal factor, 1 passes and 1e308 overflows, all in
    # one batch
    family = build_example("heisenberg6-pair")["family"]
    pts = sample_points(family.model)
    grid = [1e-5, 1.0, 1e-4, 1e308]
    for verify in (verify_forward, verify_converse):
        per_t = _assert_items_equal_the_reference(monkeypatch, family, pts, verify, grid)
        assert [_kind(item) for item in per_t] == ["fail", "pass", "marginal", "overflow"]


# --- one gate pass and one Reeb pair formula per batch --------------------------------


def _count(monkeypatch, modules, name):
    """Record the arguments of every call of ``name`` through its binding
    in each of ``modules``."""
    calls = []
    real = getattr(modules[0], name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counting)
    return calls


def test_a_one_point_forward_verdict_gates_each_batch_once(monkeypatch):
    family = build_example("heisenberg6-pair")["family"]
    pts = sample_points(family.model)
    counts = []
    for grid in ([1.0], [0.5, 2.0], [-10.0, -1.0, -0.1, -0.01, 0.01, 0.1, 1.0, 10.0]):
        gates = _count(monkeypatch, (contact, deformation), "_certify")
        reductions = [_count(monkeypatch, (contact,), name) for name in ("_peaks", "_troughs")]
        verify_forward(family, t_grid=grid, points=pts)
        monkeypatch.undo()
        # the base pair, then the grid's one batch
        assert [len(args[4][0]) if np.ndim(args[4][0]) else None for args in gates] == [None, len(grid)]
        counts.append([len(calls) for calls in reductions])
    # the reductions of the gates do not grow with the t of a batch
    assert counts[0] == counts[1] == counts[2]


@pytest.mark.parametrize("count", [1, 2049])
def test_a_sweep_forms_each_batchs_reeb_pairs_at_once(monkeypatch, count):
    family = build_example("heisenberg6-pair" if count == 1 else "t6-pair-compatible")["family"]
    rng = np.random.default_rng(4)
    pts = sample_points(family.model, rng) if count == 1 else random_points(family.model, count, rng)
    grid = [0.01, 0.1, 1.0, 10.0]
    pairs = _count(monkeypatch, (deformation,), "_reeb_pair")
    rows = sweep_rows(family, grid, points=pts)
    step = _t_batch(len(pts))
    assert [s.alpha.shape[:-1] for s, _ in pairs] == [
        (len(grid[lo : lo + step]), len(pts)) for lo in range(0, len(grid), step)
    ]
    monkeypatch.undo()
    sampled = SampledFamily(family, pts, default_tolerance(family.model))
    for t, row in zip(grid, rows):
        alone = sampled.at(t)
        assert row["max_reeb_residual"] == float(np.max(_reeb_pair(alone, alone.chains(1, 1))[2]))
