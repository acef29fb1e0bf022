"""The byte-identity tool: tools/report_digests.py digests each run of its
matrix into one line, the same line for the same code."""

import importlib.util
import json
from pathlib import Path

import numpy as np

from contactpairs import cli
from contactpairs.config import load_config
from contactpairs.models import sample_points
from contactpairs.contact import _t_batch, marginal
from contactpairs.exterior import _BLOCK

TOOL = Path(__file__).resolve().parent.parent / "tools" / "report_digests.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("report_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_lines_repeat_exactly():
    tool = load_tool()
    subset = [("jacobi", "--example", "t6-pair-compatible", "--side", "beta"),
              ("verify-pair", "--example", "darboux1")]
    assert all(run in tool.matrix() for run in subset)
    first = tool.digest_lines(subset)
    assert first == tool.digest_lines(subset)
    assert len(first) == len(tool.SEEDS) * len(subset)
    fields = [line.split(" ", 5) for line in first]
    # a passing jacobi verdict and an input error (a contact form is not a
    # pair), which prints no report
    assert [(seed, code, statuses) for seed, code, statuses, *_ in fields] == [
        ("0", "0", "pass"), ("0", "2", "-"), ("7", "0", "pass"), ("7", "2", "-"),
    ]
    assert all(len(body) == len(err) == 64 for _, _, _, body, err, _ in fields)
    assert [argv for *_, argv in fields[:2]] == [" ".join(run) for run in subset]


def test_digest_line_lists_every_task_status(tmp_path):
    tool = load_tool()
    doc = {
        "models": {"t3": {"kind": "builtin", "name": "torus3"}},
        "forms": {
            "contact": {"model": "t3", "coefficients": [0, "cos(x0)", "sin(x0)"]},
            "vanishing": {"model": "t3", "coefficients": [0, "sin(x0)", 0]},  # 0 at x0 = 0
        },
        "tasks": [{"task": "classify", "form": "contact"}, {"task": "classify", "form": "vanishing"}],
    }
    path = tmp_path / "two_classify.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    line = tool.digest_line(0, ("classify", "--config", "two.json"), {"two.json": str(path)})
    assert line.split(" ")[:3] == ["0", "1", "pass,fail"]
    assert line.endswith(" classify --config two.json")


def test_block_edge_config_ends_in_a_one_point_kernel_block(tmp_path):
    tool = load_tool()
    assert [run for run in tool.matrix() if tool.BLOCK_EDGE_CONFIG in run] == [
        (cmd, "--config", tool.BLOCK_EDGE_CONFIG) for cmd in ("verify-pair", "deform", "sweep")
    ]
    doc = json.loads(open(tool.write_config(tmp_path, tool.BLOCK_EDGE_CONFIG), encoding="utf-8").read())
    assert doc["samples"]["random_count"] == 2 * _BLOCK + 1
    original = json.loads((tool.ROOT / "configs" / "t6_explicit_family.json").read_text(encoding="utf-8"))
    original["samples"]["random_count"] = doc["samples"]["random_count"]
    assert doc == original


def test_batch_edge_config_certifies_uneven_t_batches(tmp_path):
    tool = load_tool()
    assert [run for run in tool.matrix() if tool.BATCH_EDGE_CONFIG in run] == [
        cmd + ("--config", tool.BATCH_EDGE_CONFIG)
        for cmd in (("deform",), ("deform", "--mode", "converse"), ("sweep",))
    ]
    doc = json.loads(open(tool.write_config(tmp_path, tool.BATCH_EDGE_CONFIG), encoding="utf-8").read())
    original = json.loads((tool.ROOT / "configs" / "t6_explicit_family.json").read_text(encoding="utf-8"))
    original["samples"]["random_count"] = 1365
    assert doc == original
    # three t per batch, so the config's four t make a batch of 3 and one of 1
    assert _t_batch(1365) == 3 and len(doc["t_grid"]) == 4


def test_two_t_converse_run_compares_two_reeb_pairs(capsys):
    tool = load_tool()
    run = ("deform", "--mode", "converse", "--example", "t6-pair-incompatible", tool.REEB_STEP_GRID)
    assert run in tool.matrix()
    for seed in tool.SEEDS:
        assert tool.digest_line(seed, run).split(" ")[1:3] == ["1", "not-applicable"]
        assert cli.main([*run, "--format", "structured", "--seed", str(seed)]) == 1
        hypotheses = json.loads(capsys.readouterr().out)["tasks"][0]["result"]["hypotheses"]
        # both t reach the Reeb step and pass; t * E_t then differs across t
        assert [(item["name"], item["passed"]) for item in hypotheses] == [
            ("(alpha_t,beta_t) is a contact pair at t=5", True),
            ("(alpha_t,beta_t) is a contact pair at t=10", True),
            ("t * E_{alpha_t}, t * E_{beta_t} constant across t", False),
        ]


def test_flag_task_runs_pin_the_error_that_names_the_flag():
    tool = load_tool()
    runs = [run for run in tool.matrix() if run[-2:] == ("--resolution", "3")]
    assert runs == [
        ("jacobi", "--example", "torus-contact", "--resolution", "3"),
        ("jacobi", "--config", tool.CONFIGS[0], "--example", "torus-contact", "--resolution", "3"),
    ]
    err = tool._sha("invalid configuration:\n  - --resolution: must be an integer >= 4, got 3\n")
    for run in runs:
        line = tool.digest_line(0, run, {tool.CONFIGS[0]: str(tool.ROOT / tool.CONFIGS[0])})
        assert line.split(" ")[1:5] == ["2", "-", tool._sha(""), err]


def test_zero_coefficient_config_has_a_negative_zero_and_a_numerical_zero(tmp_path):
    tool = load_tool()
    assert [run for run in tool.matrix() if tool.ZERO_COEFFICIENT_CONFIG in run] == [
        cmd + ("--config", tool.ZERO_COEFFICIENT_CONFIG)
        for cmd in (("verify-pair",), ("deform",), ("deform", "--mode", "converse"), ("sweep",))
    ]
    path = tool.write_config(tmp_path, tool.ZERO_COEFFICIENT_CONFIG)
    doc = json.loads(open(path, encoding="utf-8").read())
    original = json.loads((tool.ROOT / "configs" / "t6_explicit_family.json").read_text(encoding="utf-8"))
    original["forms"]["alpha_l"]["coefficients"]["0"] = "-0"
    original["forms"]["beta_r"]["coefficients"]["0"] = "x0-x0"
    assert doc == original
    # both coefficients are live in the family's samples: alpha's dx0 holds
    # -0.0, beta's dx3 the +0.0 of x0 - x0
    cfg = load_config(path)
    family = cfg.families["fam"]
    assert family.alpha.live == (0, 1, 2) and family.beta.live == (3, 4, 5)
    values = family.alpha.values(sample_points(family.model))
    assert np.signbit(values[:, 0]).all() and not values[:, 0].any()
    for seed in tool.SEEDS:
        assert tool.digest_line(seed, ("deform", "--config", "zeros.json"), {"zeros.json": path}).split(" ")[1:3] == [
            "0", "pass",
        ]


def test_mixed_batch_config_fails_some_t_of_a_batch_beside_a_passing_one(tmp_path, capsys):
    tool = load_tool()
    assert [run for run in tool.matrix() if tool.MIXED_BATCH_CONFIG in run] == [
        cmd + ("--config", tool.MIXED_BATCH_CONFIG, tool.MIXED_BATCH_GRID)
        for cmd in (("deform",), ("deform", "--mode", "converse"), ("sweep",))
    ]
    path = tool.write_config(tmp_path, tool.MIXED_BATCH_CONFIG)
    doc = json.loads(open(path, encoding="utf-8").read())
    original = json.loads((tool.ROOT / "configs" / "t6_explicit_family.json").read_text(encoding="utf-8"))
    original["samples"]["random_count"] = 1365
    original["forms"]["alpha0_l"]["coefficients"] = {"1": "1"}  # dx1: the incompatible closed pair
    assert doc == original
    grid = [float(t) for t in tool.MIXED_BATCH_GRID.split("=")[1].split(",")]
    assert _t_batch(1365) == 3 and grid == [0.01, 10.0, 0.1, 1.0]
    for cmd, section in ((("deform",), "conclusions"), (("deform", "--mode", "converse"), "hypotheses")):
        argv = [*cmd, "--config", path, tool.MIXED_BATCH_GRID, "--format", "structured", "--seed", "0"]
        assert cli.main(argv) == 1
        (task,) = json.loads(capsys.readouterr().out)["tasks"]
        items = [i for i in task["result"][section] if i["name"].startswith("(alpha_t,beta_t)")]
        # the batch of three fails at 0.01 and 0.1 around the pass at 10;
        # t = 1 fails alone, by a margin no gate reads as marginal
        assert [(i["passed"], i.get("witness", {}).get("condition")) for i in items] == [
            (False, "orientation"), (True, None), (False, "orientation"), (False, "volume"),
        ]
        assert not marginal(items[3]["defect"], items[3]["threshold"])


def test_closed_pair_config_integrates_on_a_sub_grid(tmp_path, capsys):
    tool = load_tool()
    run = ("deform", "--mode", "converse", "--config", tool.CLOSED_PAIR_CONFIG)
    assert [r for r in tool.matrix() if tool.CLOSED_PAIR_CONFIG in r] == [run]
    path = tool.write_config(tmp_path, tool.CLOSED_PAIR_CONFIG)
    doc = json.loads(open(path, encoding="utf-8").read())
    original = json.loads((tool.ROOT / "configs" / "t6_explicit_family.json").read_text(encoding="utf-8"))
    original["forms"]["alpha0_l"]["coefficients"] = {"0": "1", "1": "0.5*cos(x1)"}
    original["forms"]["beta0_r"]["coefficients"] = {"0": "1", "2": "0.25*sin(x2)"}
    assert doc == original
    assert cli.main([*run[:-1], path, "--format", "structured", "--seed", "0"]) == 1
    (task,) = json.loads(capsys.readouterr().out)["tasks"]
    assert task["status"] == "not-applicable"
    quadrature = [i for i in task["result"]["conclusions"] if i["name"].startswith("quadrature")]
    assert len(quadrature) == 2 and all(i["passed"] for i in quadrature)


def test_scaled_config_passes_every_pair_task(tmp_path):
    # (1e-8 alpha, beta) is a contact pair, and every gate scales with 1e-8
    tool = load_tool()
    commands = (("verify-pair",), ("deform", "--mode", "forward"), ("deform", "--mode", "converse"), ("sweep",))
    runs = [cmd + ("--config", tool.SCALED_CONFIG) for cmd in commands]
    assert [run for run in tool.matrix() if tool.SCALED_CONFIG in run] == runs
    path = tool.write_config(tmp_path, tool.SCALED_CONFIG)
    doc = json.loads(open(path, encoding="utf-8").read())
    original = json.loads((tool.ROOT / "configs" / "t6_explicit_family.json").read_text(encoding="utf-8"))
    original["forms"]["alpha_l"]["coefficients"] = {"1": "1e-8*(cos(x0))", "2": "1e-8*(sin(x0))"}
    original["forms"]["alpha0_l"]["coefficients"] = {"0": "1e-8*(1)"}
    assert doc == original
    for run in runs:
        assert tool.digest_line(0, run, {tool.SCALED_CONFIG: path}).split(" ")[1:3] == ["0", "pass"]


def test_nan_premise_and_scaled_contact_runs_end_as_the_rule_decides(tmp_path):
    # a NaN alpha0 ∧ beta0 fails the independence premise (exit 2); the
    # 1e-4 scaled contact form passes jacobi at the certificate's scale
    tool = load_tool()
    commands = (("deform", "--mode", "forward"), ("deform", "--mode", "converse"), ("sweep",))
    nan_runs = [cmd + ("--config", tool.NAN_PREMISE_CONFIG) for cmd in commands]
    scaled_run = ("jacobi", "--config", tool.SCALED_CONTACT_CONFIG)
    assert [run for run in tool.matrix() if tool.NAN_PREMISE_CONFIG in run] == nan_runs
    assert [run for run in tool.matrix() if tool.SCALED_CONTACT_CONFIG in run] == [scaled_run]
    paths = {name: tool.write_config(tmp_path, name) for name in (tool.NAN_PREMISE_CONFIG, tool.SCALED_CONTACT_CONFIG)}
    for run in nan_runs:
        assert tool.digest_line(0, run, paths).split(" ")[1:3] == ["2", "error"]
    assert tool.digest_line(0, scaled_run, paths).split(" ")[1:3] == ["0", "pass"]
