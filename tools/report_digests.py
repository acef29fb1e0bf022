"""Digest the reports of a fixed matrix of CLI runs, to check byte identity.

    python tools/report_digests.py > digests.txt

runs ``contactpairs.cli.main`` in-process, with ``--format structured``, at
seeds 0 and 7 over this matrix:

- classify, verify-pair, deform forward/converse/single and sweep on every
  builtin example;
- deform single with ``--alpha0 1,0,0`` on the three 3-dimensional contact
  forms;
- jacobi on both sides of both T^3 x T^3 pairs and of the type (0,0)
  pair on T^2, whose sides have 1-dimensional leaves (X_f = f E), on
  torus-contact at resolution 32, on darboux1 at resolution 24 and on
  darboux2 at resolution 10 (the periodic and box grids of the jacobi
  benchmark), and on both sides of t6-pair-compatible at resolution 5,
  an odd resolution: the verdict checks the 5 x 5 samples of x0 and x3,
  the axes the forms mention;
- all seven task kinds on both shipped configs;
- sweep, deform forward and deform converse with ``--t-grid=1,1e308`` on
  heisenberg6-pair and t6-pair-compatible, and deform single with
  ``--alpha0 1,0,0 --t-grid=1,1e308`` on torus-contact: at t = 1e308 the
  wedge chains overflow, so an identically zero component meets an
  infinite partner, the case in which the exterior kernels must keep a
  term that is zero elsewhere (0 * inf is NaN);
- deform converse with ``--t-grid=5,10`` on t6-pair-incompatible: both t
  pass every gate before the Reeb step, so the converse compares
  t * E_t of two Reeb pairs of a pair whose Reeb fields do not scale as
  1/t, and the "t * E constant" item fails on numbers of its own;
- verify-pair, deform and sweep on a copy of
  ``configs/t6_explicit_family.json`` with ``samples.random_count`` =
  8193, written to a temporary directory: 2 * 4096 + 1 points, more than
  one block of ``exterior._BLOCK`` = 4096, so every t of a deformation
  grid is a batch of its own (the exterior kernel runs each table row
  over all 8193 points at once, so crosses no block);
- deform forward, deform converse and sweep on a copy with
  ``samples.random_count`` = 1365: a family's t grid is certified in
  batches of 4096 // 1365 = 3 values of t, so the config's four t make a
  full batch and a one-t batch;
- jacobi on torus-contact with ``--resolution 3``, without and with
  ``--config configs/heisenberg6_builtin.json``: the flags' task is no task
  of the file, so its error names the flag, ``--resolution``, not
  ``tasks[0].resolution``;
- verify-pair, deform forward, deform converse and sweep on a copy of the
  t6 config in which ``alpha_l`` also has ``"0": "-0"`` and ``beta_r`` has
  ``"0": "x0-x0"``: a constant -0 is a live component whose samples keep
  their sign, and x0-x0 one that is numerically zero, so these runs pin
  the samples and kernels on components that are zero but not dead;
- deform forward, deform converse and sweep with ``--t-grid=0.01,10,0.1,1``
  on a copy with ``samples.random_count`` = 1365 whose closed alpha0 is
  ``dx1`` instead of ``dx0``, the incompatible pair: its first batch of
  three t fails the orientation gate at t = 0.01 and 0.1 beside a pass at
  t = 10, and t = 1 fails the volume gate in a batch of its own, so each
  gate outcome of a batch is its own t's;
- deform converse on a copy whose closed forms are ``dx0 + 0.5 cos(x1)
  dx1`` and ``dx0 + 0.25 sin(x2) dx2``, with coefficients that are not
  constant: the family mentions 4 of the 6 axes, so the quadrature of the
  converse runs on a sub-grid of 8^4 of the 8^6 nodes;
- verify-pair, deform forward, deform converse and sweep on a copy whose
  beta is the shear ``cos(u) dx4 + sin(u) dx5``, u = x3 + 0.3 sin(x1 +
  x4), of tests/test_contact.py, and whose beta0 is ``dx3``: a pair that is
  no product, whose wedge chains have wider live sets than those of a
  product pair;
- verify-pair, deform forward, deform converse and sweep on a copy whose
  ``alpha_l`` and ``alpha0_l`` are multiplied by 1e-8: (c alpha, beta)
  is a contact pair for every c != 0, and every gate scales with c, so
  all four pass as on the original;
- deform forward, deform converse and sweep on a copy whose alpha0 and
  beta0 are both ``1e200 dx0 + 1e200 dx3`` on T^6: alpha0 ∧ beta0 is
  inf - inf = NaN, which fails the independence premise (exit 2);
- jacobi on a config of its own that holds torus-contact's form times
  1e-4: its volume 1e-8 is gated at tol |alpha| |d alpha|^k, the scale of
  the pair certificate and of classify, so the verdict passes.

It prints one line per run,
``seed exit statuses sha256(body) sha256(stderr) argv``, where statuses are
the report's task statuses joined by commas (``-`` when the run printed no
report), the body is the report without its ``timing`` field and warnings
are written to stderr as ``Category: message``.  Run it in two checkouts and
``diff`` the outputs: equal lines mean equal exit codes, task statuses,
report bodies and stderr, and a changed body shows whether it also moved a
status.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from contactpairs import cli, reporting  # noqa: E402
from contactpairs.registry import example_names  # noqa: E402

SEEDS = (0, 7)
CONFIGS = ("configs/heisenberg6_builtin.json", "configs/t6_explicit_family.json")
TASK_COMMANDS = (
    ("classify",),
    ("verify-pair",),
    ("deform", "--mode", "forward"),
    ("deform", "--mode", "converse"),
    ("deform", "--mode", "single"),
    ("sweep",),
    ("jacobi",),
)
# t = 1e308 overflows the wedge chains
OVERFLOW_GRID = "--t-grid=1,1e308"
# on t6-pair-incompatible both t reach the converse's Reeb step
REEB_STEP_GRID = "--t-grid=5,10"
# copies of the t6 config with another random sample count, each named by
# its file name in the matrix and the digest lines and written to a
# temporary directory: 2 * 4096 + 1 samples make every t a batch of its
# own, and 1365 make t batches of 3
BLOCK_EDGE_CONFIG = "t6_explicit_family_8193.json"
BATCH_EDGE_CONFIG = "t6_explicit_family_1365.json"
MIXED_BATCH_CONFIG = "t6_explicit_family_1365_dx1.json"
RANDOM_COUNTS = {BLOCK_EDGE_CONFIG: 2 * 4096 + 1, BATCH_EDGE_CONFIG: 1365, MIXED_BATCH_CONFIG: 1365}
# the mixed batch copy deforms the incompatible closed pair (dx1, dx0) of
# the t6-pair-incompatible example; its grid puts failing t beside a
# passing one in the batch of three
MIXED_BATCH_ALPHA0 = {"1": "1"}
MIXED_BATCH_GRID = "--t-grid=0.01,10,0.1,1"
# a copy of the t6 config with dx0 coefficients that are zero but not the
# constant +0, which the samples treat as live
ZERO_COEFFICIENT_CONFIG = "t6_explicit_family_zeros.json"
ZERO_COEFFICIENTS = {"alpha_l": "-0", "beta_r": "x0-x0"}
# a copy of the t6 config whose closed forms have coefficients that are not
# constant, so the converse's quadrature holds axes x2 and x4 only
CLOSED_PAIR_CONFIG = "t6_explicit_family_closed_pair.json"
CLOSED_PAIR = {"alpha0_l": {"0": "1", "1": "0.5*cos(x1)"}, "beta0_r": {"0": "1", "2": "0.25*sin(x2)"}}
# a copy of the t6 config whose beta is sheared along x1 and x4 and whose
# beta0 is dx3, forms on the product model itself
SHEARED_CONFIG = "t6_explicit_family_sheared.json"
SHEARED_FORMS = {
    "beta": {"model": "t6", "degree": 1,
             "coefficients": {"4": "cos(x3 + 0.3*sin(x1 + x4))", "5": "sin(x3 + 0.3*sin(x1 + x4))"}},
    "beta0": {"model": "t6", "degree": 1, "coefficients": {"3": "1"}},
}
# a copy of the t6 config whose alpha_l and alpha0_l are scaled by a constant
SCALED_CONFIG = "t6_explicit_family_scaled.json"
SCALED_FORMS, SCALE = ("alpha_l", "alpha0_l"), "1e-8"
# a copy of the t6 config whose closed forms are equal and so large that
# their wedge is NaN
NAN_PREMISE_CONFIG = "t6_explicit_family_nan_premise.json"
NAN_PREMISE_FORM = {"model": "t6", "degree": 1, "coefficients": {"0": "1e200", "3": "1e200"}}
# torus-contact's form times 1e-4, with a jacobi task
SCALED_CONTACT_CONFIG = "torus_contact_scaled.json"
SCALED_CONTACT = {
    "schema_version": 1,
    "models": {"t3": {"kind": "builtin", "name": "torus3"}},
    "forms": {"alpha": {"model": "t3", "degree": 1, "coefficients": {"1": "1e-4*cos(x0)", "2": "1e-4*sin(x0)"}}},
    "tasks": [{"task": "jacobi", "form": "alpha"}],
}


def matrix() -> list[tuple[str, ...]]:
    """The argv of every run, without --format and --seed."""
    runs = [
        cmd + ("--example", name)
        for name in example_names()
        for cmd in TASK_COMMANDS
        if cmd != ("jacobi",)
    ]
    for name in ("darboux1", "torus-contact", "heisenberg3"):
        runs.append(("deform", "--mode", "single", "--example", name, "--alpha0", "1,0,0"))
    for name in ("t6-pair-compatible", "t6-pair-incompatible", "t2-pair-type00"):
        runs.append(("jacobi", "--example", name))
        runs.append(("jacobi", "--example", name, "--side", "beta"))
    runs.append(("jacobi", "--example", "torus-contact", "--resolution", "32"))
    runs.append(("jacobi", "--example", "darboux1", "--resolution", "24"))
    runs.append(("jacobi", "--example", "darboux2", "--resolution", "10"))
    for side in ((), ("--side", "beta")):
        runs.append(("jacobi", "--example", "t6-pair-compatible", "--resolution", "5", *side))
    runs += [cmd + ("--config", path) for path in CONFIGS for cmd in TASK_COMMANDS]
    for name in ("heisenberg6-pair", "t6-pair-compatible"):
        for cmd in (("sweep",), ("deform",), ("deform", "--mode", "converse")):
            runs.append(cmd + ("--example", name, OVERFLOW_GRID))
    runs.append(("deform", "--mode", "single", "--example", "torus-contact",
                 "--alpha0", "1,0,0", OVERFLOW_GRID))
    runs.append(("deform", "--mode", "converse", "--example", "t6-pair-incompatible", REEB_STEP_GRID))
    runs += [(cmd, "--config", BLOCK_EDGE_CONFIG) for cmd in ("verify-pair", "deform", "sweep")]
    for cmd in (("deform",), ("deform", "--mode", "converse"), ("sweep",)):
        runs.append(cmd + ("--config", BATCH_EDGE_CONFIG))
    for config in ((), ("--config", CONFIGS[0])):
        runs.append(("jacobi", *config, "--example", "torus-contact", "--resolution", "3"))
    for cmd in (("verify-pair",), ("deform",), ("deform", "--mode", "converse"), ("sweep",)):
        runs.append(cmd + ("--config", ZERO_COEFFICIENT_CONFIG))
    for cmd in (("deform",), ("deform", "--mode", "converse"), ("sweep",)):
        runs.append(cmd + ("--config", MIXED_BATCH_CONFIG, MIXED_BATCH_GRID))
    runs.append(("deform", "--mode", "converse", "--config", CLOSED_PAIR_CONFIG))
    for config in (SHEARED_CONFIG, SCALED_CONFIG):
        runs += [cmd + ("--config", config) for cmd in TASK_COMMANDS[1:4] + TASK_COMMANDS[5:6]]
    runs += [cmd + ("--config", NAN_PREMISE_CONFIG) for cmd in TASK_COMMANDS[2:4] + TASK_COMMANDS[5:6]]
    runs.append(("jacobi", "--config", SCALED_CONTACT_CONFIG))
    return runs


def write_config(directory, name) -> str:
    """Write the t6 config changed as ``name`` says into directory as
    ``name`` and return its path: with the random sample count of
    ``RANDOM_COUNTS`` (and, for the mixed batch copy, the coefficients
    ``MIXED_BATCH_ALPHA0`` of alpha0), with the ``ZERO_COEFFICIENTS``
    added as dx0 coefficients, with the closed forms of ``CLOSED_PAIR``,
    with the forms of ``SHEARED_FORMS``, with those of ``SCALED_FORMS``
    times ``SCALE`` or with ``NAN_PREMISE_FORM`` as alpha0 and beta0; or
    the config ``SCALED_CONTACT``."""
    doc = json.loads((ROOT / CONFIGS[1]).read_text(encoding="utf-8"))
    if name == SCALED_CONTACT_CONFIG:
        doc = SCALED_CONTACT
    elif name == NAN_PREMISE_CONFIG:
        doc["forms"].update(alpha0=NAN_PREMISE_FORM, beta0=NAN_PREMISE_FORM)
    elif name == ZERO_COEFFICIENT_CONFIG:
        for form, value in ZERO_COEFFICIENTS.items():
            doc["forms"][form]["coefficients"]["0"] = value
    elif name == CLOSED_PAIR_CONFIG:
        for form, coefficients in CLOSED_PAIR.items():
            doc["forms"][form]["coefficients"] = coefficients
    elif name == SHEARED_CONFIG:
        doc["forms"].update(SHEARED_FORMS)
    elif name == SCALED_CONFIG:
        for form in SCALED_FORMS:
            coefficients = doc["forms"][form]["coefficients"]
            doc["forms"][form]["coefficients"] = {i: f"{SCALE}*({c})" for i, c in coefficients.items()}
    else:
        doc["samples"]["random_count"] = RANDOM_COUNTS[name]
    if name == MIXED_BATCH_CONFIG:
        doc["forms"]["alpha0_l"]["coefficients"] = MIXED_BATCH_ALPHA0
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest_line(seed: int, argv, paths=None) -> str:
    """Run one verdict and return its ``seed exit statuses body stderr argv``
    line; ``paths`` maps a name in argv to the file the run reads instead."""
    run = [(paths or {}).get(arg, arg) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = cli.main([*run, "--format", "structured", "--seed", str(seed)])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception as exc:  # a run that raises is recorded, not fatal
            code = f"raised:{type(exc).__name__}"
    stderr = err.getvalue() + "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    body, statuses = out.getvalue(), "-"
    try:
        report = json.loads(body)
        body = reporting.render_structured(reporting.strip_timing(report))
        statuses = ",".join(task["status"] for task in report["tasks"])
    except ValueError:
        pass  # not a report: digest the raw text
    return f"{seed} {code} {statuses} {_sha(body)} {_sha(stderr)} {' '.join(argv)}"


def digest_lines(runs, seeds=SEEDS) -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        paths = {
            name: write_config(tmp, name)
            for name in (*RANDOM_COUNTS, ZERO_COEFFICIENT_CONFIG, CLOSED_PAIR_CONFIG, SHEARED_CONFIG, SCALED_CONFIG,
                         NAN_PREMISE_CONFIG, SCALED_CONTACT_CONFIG)
        }
        return [digest_line(seed, argv, paths) for seed in seeds for argv in runs]


def main() -> int:
    os.chdir(ROOT)  # the config paths of the matrix are relative to the checkout
    for line in digest_lines(matrix()):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
