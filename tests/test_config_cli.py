import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from test_contact import reeb_rows

from contactpairs import cli
from contactpairs.cli import build_parser, main
from contactpairs.config import ConfigError, load_config, parse_config
from contactpairs.contact import ContactPairError, product_contact_pair, torus_contact, verify_contact_pair
from contactpairs.fields import coframe
from contactpairs.registry import _heisenberg_factor, build_example, example_names, list_examples
from contactpairs.reporting import render_structured, strip_timing
from contactpairs.runner import run


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


HEISENBERG_STRUCTURE = [
    [[0, 0, 0], [0, 0, 1], [0, 0, 0]],
    [[0, 0, -1], [0, 0, 0], [0, 0, 0]],
    [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
]


def product_pair_doc(beta_coeffs):
    return {
        "schema_version": 1,
        "tolerance": 1e-6,
        "models": {
            "hl": {"kind": "lie", "structure": HEISENBERG_STRUCTURE},
            "hr": {"kind": "lie", "structure": HEISENBERG_STRUCTURE},
            "prod": {"kind": "product", "left": "hl", "right": "hr"},
        },
        "forms": {
            "alpha": {"model": "prod", "degree": 1, "coefficients": [0, 0, 1, 0, 0, 0]},
            "beta": {"model": "prod", "degree": 1, "coefficients": beta_coeffs},
        },
        "tasks": [{"task": "verify-pair", "alpha": "alpha", "beta": "beta", "type": [1, 1]}],
    }


# --- registry -----------------------------------------------------------------

def test_registry_contains_required_names():
    names = set(example_names())
    assert {
        "darboux1",
        "darboux2",
        "torus-contact",
        "heisenberg3",
        "heisenberg6-pair",
        "t6-pair-compatible",
        "t6-pair-incompatible",
        "t2-pair-type00",
    } <= names


def test_registry_metadata():
    infos = {e.name: e for e in list_examples()}
    assert infos["t2-pair-type00"].type_label == "type (0,0)"
    assert infos["heisenberg6-pair"].type_label == "type (1,1)"
    assert infos["heisenberg6-pair"].dimension == 6


def test_build_example_resolves_family():
    objs = build_example("heisenberg6-pair")
    assert objs["family"].k == 1 and objs["family"].l == 1
    assert objs["model"].n == 6
    with pytest.raises(KeyError):
        build_example("nope")


# --- config validation ----------------------------------------------------------

@pytest.mark.parametrize("name, left, right", [
    ("heisenberg6-pair", lambda: _heisenberg_factor("h3-left"), lambda: _heisenberg_factor("h3-right")),
    ("t6-pair-compatible", torus_contact, torus_contact),
    ("t6-pair-incompatible", torus_contact, torus_contact),
])
def test_builtin_product_factors_pass_the_class_check(name, left, right):
    # the registry builds its products without the check; it accepts the
    # factors and gives the same pair
    (m1, a1), (m2, a2) = left(), right()
    model, alpha, beta = product_contact_pair(m1, a1, m2, a2)
    objs = build_example(name)
    assert alpha.coeffs == objs["alpha"].coeffs and beta.coeffs == objs["beta"].coeffs
    assert model.axes == objs["model"].axes and model.name == objs["model"].name
    # and it still rejects a factor that is not contact
    with pytest.raises(ContactPairError) as err:
        product_contact_pair(m1, a1, m2, coframe(m2, 0))  # closed: class 1
    assert err.value.condition == "beta-class"


def test_load_valid_config(tmp_path):
    doc = {
        "schema_version": 1,
        "models": {"t3": {"kind": "chart", "axes": [{"periodic": True}] * 3}},
        "forms": {
            "alpha": {"model": "t3", "degree": 1, "coefficients": {"1": "cos(x0)", "2": "sin(x0)"}}
        },
        "tasks": [{"task": "classify", "form": "alpha"}],
    }
    cfg = load_config(write_config(tmp_path, doc))
    assert cfg.forms["alpha"].model.n == 3
    assert cfg.tasks[0].task == "classify"


def test_config_collects_all_errors(tmp_path):
    doc = {
        "schema_version": 1,
        "models": {
            "t5": {"kind": "chart", "axes": [{"periodic": True}] * 5},
            "bad": {"kind": "product", "left": "t5", "right": "missing"},
        },
        "forms": {
            "alpha": {"model": "t5", "degree": 1, "coefficients": {"0": "cos(x9)"}},
            "beta": {"model": "nope", "degree": 1, "coefficients": {"0": "1"}},
            "gamma": {"model": "t5", "degree": 1, "coefficients": {"0": "sin(x0"}},
            "ok": {"model": "t5", "degree": 1, "coefficients": {"0": "1"}},
        },
        "tasks": [
            {"task": "verify-pair", "alpha": "ok", "beta": "ok", "type": [1, 1]},
            {"task": "does-not-exist"},
            {"task": "classify", "form": "zeta"},
        ],
    }
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, doc))
    messages = "\n".join(err.value.errors)
    assert len(err.value.errors) >= 5
    assert "unresolved factor reference" in messages
    assert "out of range" in messages  # x9 on a 5-dim model
    assert "position" in messages  # parse error with location
    assert "nope" in messages
    assert "needs dimension 6" in messages  # type (1,1) on the 5-dim model
    assert "does-not-exist" in messages


def test_config_dimension_error_for_family(tmp_path):
    doc = {
        "models": {"t5": {"kind": "chart", "axes": [{"periodic": True}] * 5}},
        "forms": {
            "a": {"model": "t5", "degree": 1, "coefficients": {"0": "1"}},
            "b": {"model": "t5", "degree": 1, "coefficients": {"1": "1"}},
        },
        "families": {
            "fam": {"alpha0": "a", "beta0": "b", "alpha": "a", "beta": "b", "type": [1, 1]}
        },
        "tasks": [],
    }
    with pytest.raises(ConfigError, match="needs dimension 6"):
        load_config(write_config(tmp_path, doc))


def test_config_json_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON parse error"):
        load_config(str(path))


def test_builtin_model_reference():
    cfg = parse_config(
        {
            "models": {"h": {"kind": "builtin", "name": "heisenberg3"}},
            "forms": {"a": {"model": "h", "degree": 1, "coefficients": [0, 0, 1]}},
            "tasks": [{"task": "classify", "form": "a"}],
        }
    )
    report, code = run(cfg)
    assert code == 0
    assert report["tasks"][0]["result"]["k"] == 1


# --- exit codes -------------------------------------------------------------------

def test_exit_zero_on_pass():
    cfg = parse_config({"tasks": [{"task": "deform-forward", "example": "heisenberg6-pair"}]})
    report, code = run(cfg)
    assert code == 0
    assert report["tasks"][0]["status"] == "pass"


def test_exit_one_on_not_applicable():
    cfg = parse_config({"tasks": [{"task": "deform-forward", "example": "t6-pair-incompatible"}]})
    report, code = run(cfg)
    assert code == 1
    assert report["tasks"][0]["status"] == "not-applicable"
    hyp = report["tasks"][0]["result"]["hypotheses"]
    broken = [h for h in hyp if h["passed"] is False]
    assert broken and "witness" in broken[0]


def test_exit_two_on_input_error(tmp_path):
    assert main(["classify", "--config", str(tmp_path / "missing.json")]) == 2


def test_exit_three_on_marginal_failure(tmp_path):
    # leak 3e-6 of the left contact direction into beta: (d beta)^2 picks up
    # a 6e-6 defect, above the 1e-6 tolerance but inside the 10x band
    doc = product_pair_doc([0, 0, 3e-6, 0, 0, 1])
    cfg = load_config(write_config(tmp_path, doc))
    report, code = run(cfg)
    assert report["tasks"][0]["status"] == "inconclusive"
    assert code == 3


def leaky_family_doc(leak):
    """product_pair_doc with beta = leak * e2 + f2, plus the family
    (alpha0, beta0) = (e0, f0) along (alpha, beta) and its two deform tasks."""
    doc = product_pair_doc([0, 0, leak, 0, 0, 1])
    doc["forms"]["alpha0"] = {"model": "prod", "degree": 1, "coefficients": [1, 0, 0, 0, 0, 0]}
    doc["forms"]["beta0"] = {"model": "prod", "degree": 1, "coefficients": [0, 0, 0, 1, 0, 0]}
    doc["families"] = {
        "fam": {"alpha0": "alpha0", "beta0": "beta0", "alpha": "alpha", "beta": "beta", "type": [1, 1]}
    }
    doc["tasks"] += [{"task": "deform-forward", "family": "fam"}, {"task": "deform-converse", "family": "fam"}]
    return doc


@pytest.mark.parametrize("leak, statuses, code", [
    # (d beta)^2 fails at 6x its threshold in every certificate: marginal
    (3e-6, ["inconclusive", "inconclusive", "inconclusive"], 3),
    # 600x past the threshold: falsified, and the deform hypotheses fail
    (3e-4, ["fail", "not-applicable", "not-applicable"], 1),
])
def test_marginal_certificate_failure_is_graded_alike_in_verify_and_deform(tmp_path, leak, statuses, code):
    report, exit_code = run(load_config(write_config(tmp_path, leaky_family_doc(leak))))
    assert [t["status"] for t in report["tasks"]] == statuses
    assert exit_code == code
    for task in report["tasks"][1:]:
        result = task["result"]
        failed = [i for i in result["hypotheses"] + result["conclusions"] if i["passed"] is False]
        assert failed and all(i["witness"]["condition"] == "dbeta-power" for i in failed)
        assert all(i["defect"] > i["threshold"] for i in failed)


def degenerate_t2_doc(tolerance):
    # (dx0, dx0) on T^2 is not a contact pair: it fails the volume check at
    # any finite positive tolerance
    return {
        "schema_version": 1,
        "tolerance": tolerance,
        "models": {"t2": {"kind": "builtin", "name": "torus2"}},
        "forms": {"a": {"model": "t2", "degree": 1, "coefficients": [1, 0]}},
        "tasks": [{"task": "verify-pair", "alpha": "a", "beta": "a", "type": [0, 0]}],
    }


def test_nan_tolerance_is_an_input_error(tmp_path, capsys):
    path = write_config(tmp_path, degenerate_t2_doc(float("nan")))
    assert main(["verify-pair", "--config", path]) == 2
    assert "tolerance" in capsys.readouterr().err


def test_non_numeric_tolerance_is_an_input_error(tmp_path, capsys):
    path = write_config(tmp_path, degenerate_t2_doc("abc"))
    assert main(["verify-pair", "--config", path]) == 2
    assert "tolerance" in capsys.readouterr().err


def test_negative_tolerance_is_an_input_error(tmp_path, capsys):
    path = write_config(tmp_path, degenerate_t2_doc(-1))
    assert main(["verify-pair", "--config", path]) == 2
    assert "tolerance" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "-1", "0", "inf"])
def test_bad_tol_flag_is_an_input_error(value, capsys):
    assert main(["verify-pair", "--example", "t2-pair-type00", f"--tol={value}"]) == 2
    assert "--tol" in capsys.readouterr().err


def test_marginal_machinery_leaves_clean_pairs_alone(tmp_path):
    doc = product_pair_doc([0, 0, 0, 0, 0, 1])
    cfg = load_config(write_config(tmp_path, doc))
    report, code = run(cfg)
    assert code == 0 and report["tasks"][0]["status"] == "pass"


# --- determinism --------------------------------------------------------------------

def test_reports_are_byte_identical():
    # one task of every kind, so the full report surface serializes
    doc = {
        "seed": 42,
        "tasks": [
            {"task": "deform-forward", "example": "t6-pair-compatible"},
            {"task": "deform-converse", "example": "heisenberg6-pair"},
            {"task": "classify", "example": "torus-contact"},
            {"task": "verify-pair", "example": "t2-pair-type00"},
            {"task": "single-deform", "example": "torus-contact",
             "alpha0_coefficients": ["1", "0", "0"]},
            {"task": "jacobi", "example": "torus-contact", "resolution": 8},
            {"task": "sweep", "example": "heisenberg6-pair"},
        ],
    }
    r1, c1 = run(parse_config(doc))
    r2, c2 = run(parse_config(doc))
    assert c1 == c2 == 0
    assert render_structured(strip_timing(r1)) == render_structured(strip_timing(r2))
    assert "timing" in r1


def test_seed_is_recorded():
    cfg = parse_config({"seed": 7, "tasks": [{"task": "classify", "example": "torus-contact"}]})
    report, _ = run(cfg)
    assert report["seed"] == 7


# --- CLI ------------------------------------------------------------------------------

def test_cli_examples_listing(capsys):
    assert main(["examples"]) == 0
    out = capsys.readouterr().out
    for name in example_names():
        assert name in out


def test_cli_classify_example(capsys):
    assert main(["classify", "--example", "darboux1"]) == 0
    out = capsys.readouterr().out
    assert "k: 1" in out


def test_cli_verify_pair_structured(capsys):
    assert main(["verify-pair", "--example", "heisenberg6-pair", "--format", "structured"]) == 0
    result = json.loads(capsys.readouterr().out)["tasks"][0]["result"]
    assert result["type"] == [1, 1]
    # the report takes no singular values; the bound holds in-process
    assert "sigma_min" not in result
    objs = build_example("heisenberg6-pair")
    cert = verify_contact_pair(objs["alpha"], objs["beta"], 1, 1)
    assert np.min(np.linalg.svd(reeb_rows(cert.sampled), compute_uv=False)[:, -1]) > 0.1


def test_cli_deform_single_modes(capsys):
    assert main(["deform", "--example", "torus-contact", "--mode", "single", "--alpha0", "1,0,0"]) == 0
    capsys.readouterr()
    code = main(["deform", "--example", "torus-contact", "--mode", "single", "--alpha0", "0,1,0"])
    out = capsys.readouterr().out
    assert code == 1
    assert "condition_ii: no" in out


def test_cli_deform_converse(capsys):
    assert main(["deform", "--example", "heisenberg6-pair", "--mode", "converse"]) == 0
    capsys.readouterr()


def test_cli_jacobi(capsys):
    assert main(["jacobi", "--example", "torus-contact", "--resolution", "12"]) == 0
    out = capsys.readouterr().out
    assert "jacobi_identity_defect" in out


def test_cli_sweep_writes_csv(tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    code = main(
        ["sweep", "--example", "heisenberg6-pair", "--t-grid", "0.5,1,2", "--out", str(out_csv)]
    )
    capsys.readouterr()
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "t,min_volume_coeff,max_volume_coeff,max_reeb_residual"
    assert len(lines) == 4
    assert float(lines[2].split(",")[1]) == pytest.approx(1.0)


def test_main_keeps_no_flag_or_default_between_calls(monkeypatch, capsys):
    seen = []

    def fake_run(cfg, out_path=None):
        spec = cfg.tasks[0]
        seen.append((spec.task, dict(spec.params), cfg.seed, cfg.tolerance, cfg.t_grid))
        return {"tasks": []}, 0

    monkeypatch.setattr(cli, "run", fake_run)
    calls = [
        ["deform", "--example", "t6-pair-compatible", "--mode", "converse", "--seed", "3",
         "--tol", "1e-5", "--t-grid", "1,2", "--format", "structured"],
        ["deform", "--example", "t6-pair-compatible"],
        ["jacobi", "--example", "t6-pair-compatible", "--resolution", "5", "--side", "beta"],
        ["jacobi", "--example", "t6-pair-compatible"],
        ["classify", "--example", "darboux1", "--format", "structured"],
        ["classify", "--example", "darboux1"],
    ]
    in_turn = []
    for argv in calls:
        assert main(argv) == 0
        in_turn.append(capsys.readouterr().out)
    alone = []
    for argv in calls:
        cli._main_parser.cache_clear()  # each call on a parser of its own
        assert main(argv) == 0
        alone.append(capsys.readouterr().out)
    assert in_turn == alone
    assert seen[: len(calls)] == seen[len(calls):]
    assert [task for task, *_ in seen[: len(calls)]] == [
        "deform-converse", "deform-forward", "jacobi", "jacobi", "classify", "classify"]
    assert seen[1][2:] != seen[0][2:] and "resolution" not in seen[3][1]
    assert in_turn[4].startswith("{") and not in_turn[5].startswith("{")
    assert build_parser() is not build_parser()


def test_cli_requires_example_or_config(capsys):
    with pytest.raises(SystemExit):
        main(["classify"])


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_cli_flag_task_is_validated_against_config(tmp_path, capsys):
    # the --form of a config without a classify task must name one of its forms
    path = CONFIGS / "t6_explicit_family.json"
    assert main(["classify", "--config", str(path), "--form", "nope"]) == 2
    assert "  - --form: unresolved form reference 'nope'\n" in capsys.readouterr().err
    assert main(["classify", "--config", str(path), "--form", "alpha_l"]) == 0


@pytest.mark.parametrize("config", [[], ["--config", str(CONFIGS / "heisenberg6_builtin.json")]])
def test_cli_flag_task_errors_name_the_flag(capsys, config):
    # the flags' task is no task of the config file: its error names the flag
    assert main(["jacobi", *config, "--example", "torus-contact", "--resolution", "3"]) == 2
    assert capsys.readouterr().err == "invalid configuration:\n  - --resolution: must be an integer >= 4, got 3\n"


@pytest.mark.parametrize(
    "name,argv,kind,flags",
    [
        ("heisenberg6_builtin.json", ["deform", "--mode", "single"], "single-deform", "--example"),
        ("heisenberg6_builtin.json", ["sweep"], "sweep", "--example"),
        ("heisenberg6_builtin.json", ["jacobi"], "jacobi", "--example"),
        ("t6_explicit_family.json", ["classify"], "classify", "--example or --form"),
        ("t6_explicit_family.json", ["deform", "--mode", "single"], "single-deform", "--example"),
        ("t6_explicit_family.json", ["jacobi"], "jacobi", "--example"),
    ],
)
def test_cli_config_without_a_task_of_the_kind_names_the_file_and_the_kind(capsys, name, argv, kind, flags):
    path = str(CONFIGS / name)
    assert kind not in [t["task"] for t in json.loads((CONFIGS / name).read_text(encoding="utf-8"))["tasks"]]
    assert main(argv + ["--config", path]) == 2
    assert capsys.readouterr().err == (
        f"invalid configuration:\n  - --config {path}: the file has no {kind} task; {flags} can describe one\n"
    )


def test_cli_config_task_selection(tmp_path, capsys):
    doc = {
        "models": {"t3": {"kind": "chart", "axes": [{"periodic": True}] * 3}},
        "forms": {
            "alpha": {"model": "t3", "degree": 1, "coefficients": {"1": "cos(x0)", "2": "sin(x0)"}}
        },
        "tasks": [{"task": "classify", "form": "alpha"}],
    }
    path = write_config(tmp_path, doc)
    assert main(["classify", "--config", path, "--format", "structured"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tasks"][0]["result"]["k"] == 1


@pytest.mark.parametrize(
    "name", ["heisenberg6_builtin.json", "t6_explicit_family.json"]
)
def test_shipped_configs_pass(name):
    path = Path(__file__).resolve().parent.parent / "configs" / name
    cfg = load_config(str(path))
    report, code = run(cfg)
    assert code == 0
    assert all(t["status"] == "pass" for t in report["tasks"])


def test_classify_on_huge_coefficients_reads_the_class_past_an_overflowing_threshold(tmp_path, capsys):
    # |d alpha| ~ 1e150, so tol * |d alpha|^3 is past the float range: that
    # threshold is inf, and (d alpha)^2 = 0 keeps alpha of class 3
    doc = json.loads((CONFIGS / "t6_explicit_family.json").read_text(encoding="utf-8"))
    doc["forms"]["alpha_l"]["coefficients"] = {"1": "1e150*cos(x0)", "2": "1e150*sin(x0)"}
    assert main(["classify", "--config", write_config(tmp_path, doc), "--form", "alpha", "--format", "structured"]) == 0
    task = json.loads(capsys.readouterr().out)["tasks"][0]
    assert task["status"] == "pass"
    assert (task["result"]["k"], task["result"]["class"], task["result"]["max_residual"]) == (1, 3, 0.0)


def _has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


# In a fresh process, the minor page faults of the second of two 1 MiB
# arrays after a first main(), while the heap is still small, then of the
# third of three deform runs.  The heap holds the array only where both
# thresholds are raised: trim alone would keep mmap at the threshold it had.
_REPEATED_DEFORM_FAULTS = """
import contextlib, io, resource
import numpy as np
from contactpairs import cli
def faults_of(work):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(io.StringIO()):
        result = work()
    return result, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
faults_of(lambda: cli.main(["examples"]))
for _ in range(2):
    _, array_faults = faults_of(lambda: np.ones(1 << 17))
for _ in range(3):
    code, faults = faults_of(lambda: cli.main(["deform", "--example", "t6-pair-compatible", "--format", "structured"]))
print(code, faults, array_faults)
"""


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_repeated_verdicts_reuse_their_heap_pages():
    # a fresh interpreter, so that this process's allocator state plays no
    # part; under glibc's default thresholds the third run faults in hundreds of pages
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", _REPEATED_DEFORM_FAULTS], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    code, faults, array_faults = map(int, out.split())
    assert code == 0 and faults < 100 and array_faults < 100


def _no_c_library(name):
    raise TypeError("no C library by None")


@pytest.mark.parametrize("cdll", [lambda name: object(), _no_c_library], ids=["no-mallopt", "no-cdll-none"])
def test_main_runs_where_the_allocator_cannot_be_set(monkeypatch, capsys, cdll):
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    cli._fix_malloc_thresholds.cache_clear()
    try:
        assert main(["verify-pair", "--example", "heisenberg6-pair", "--format", "structured"]) == 0
        assert json.loads(capsys.readouterr().out)["tasks"][0]["status"] == "pass"
    finally:
        cli._fix_malloc_thresholds.cache_clear()


def test_cli_report_to_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["classify", "--example", "heisenberg3", "--format", "structured", "--out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert doc["tasks"][0]["status"] == "pass"
