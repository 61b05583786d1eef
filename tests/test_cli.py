import json
import os

import numpy as np
import pytest

from guided_dynamics import cli
from guided_dynamics.cli import load_config, main
from guided_dynamics.errors import SchemaError

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def cfg(name):
    return os.path.join(CONFIGS, name)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_all_example_configs_load():
    for name in sorted(os.listdir(CONFIGS)):
        assert load_config(cfg(name)) is not None


def test_probe_rational_exit_one(capsys):
    code, out, _ = run(capsys, ["probe", "--config",
                                cfg("circle_rational.json"), "--eps",
                                "0.01", "--no-meta"])
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "not_minimal"
    assert len(doc["witness"]) == 4


def test_probe_irrational_exit_zero(capsys):
    code, out, _ = run(capsys, ["probe", "--config",
                                cfg("circle_irrational.json"),
                                "--no-meta"])
    assert code == 0
    assert json.loads(out)["verdict"] == "minimal_evidence"


def test_solve_ivp_writes_csv(tmp_path, capsys):
    out_csv = tmp_path / "f.csv"
    code, out, _ = run(capsys, [
        "solve-ivp", "--config", cfg("standard_pconf.json"),
        "--h", "(t*t-1)/2", "--c", "0", "--mu", "0",
        "--grid", "1024", "--out", str(out_csv), "--no-meta"])
    assert code == 0
    data = np.loadtxt(out_csv, delimiter=",", skiprows=1)
    assert np.max(np.abs(data[:, 1] - data[:, 0] ** 2)) < 1e-5
    doc = json.loads(out)
    assert doc["residual"] < 1e-5


def test_missing_config_exit_two(capsys):
    code, _, err = run(capsys, ["solve-bvp", "--config", "missing.json"])
    assert code == 2
    assert "config error" in err


def test_unknown_key_exit_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"mapz": []}))
    code, _, err = run(capsys, ["probe", "--config", str(path)])
    assert code == 2
    assert "/mapz" in err


def test_bad_expression_pointer_and_offset(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "space": {"type": "interval", "a": -1, "b": 1},
        "maps": ["2*+3"]}))
    code, _, err = run(capsys, ["probe", "--config", str(path)])
    assert code == 2
    assert "/maps/0" in err
    assert "offset 2" in err


def test_schema_error_via_loader(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"space": {"type": "interval",
                                          "a": 0, "b": 1, "radius": 2}}))
    with pytest.raises(SchemaError) as exc:
        load_config(str(path))
    assert exc.value.pointer == "/space/radius"


def test_reports_deterministic(capsys):
    argv = ["probe", "--config", cfg("circle_rational.json"),
            "--seed", "7", "--no-meta"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert (code1, out1) == (code2, out2)


def test_overdet_jensen(capsys):
    code, out, _ = run(capsys, ["overdet", "--config", cfg("jensen.json"),
                                "--depth", "14", "--no-meta"])
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "consistent"
    assert doc["points"] >= 2 ** 12 + 1


def test_overdet_inconsistent_exit_one(tmp_path, capsys):
    path = tmp_path / "additive.json"
    path.write_text(json.dumps({
        "problem": {"kind": "affine", "interval": [1.0, 2.0],
                    "A": 1.0, "B": 0.3,
                    "rules": [
                        {"map": "(1+t)/2", "cA": 1.0, "cv": 1.0},
                        {"map": "(t+2)/2", "cB": 1.0, "cv": 1.0}]}}))
    code, out, _ = run(capsys, ["overdet", "--config", str(path),
                                "--depth", "2", "--no-meta"])
    assert code == 1
    assert json.loads(out)["verdict"] == "inconsistent"


def test_affine_analyze_report(capsys):
    code, out, _ = run(capsys, ["affine-analyze", "--config",
                                cfg("affine_scalar.json"), "--no-meta"])
    assert code == 0
    doc = json.loads(out)
    assert doc["gamma"] == 0.5
    assert doc["radius"] == 5


def test_certify_exit_codes(tmp_path, capsys):
    code, out, _ = run(capsys, ["certify", "--config",
                                cfg("standard_funceq.json"), "--no-meta"])
    assert code == 0
    assert json.loads(out)["m"] == 1
    # coefficients summing to one never certify
    path = tmp_path / "half.json"
    path.write_text(json.dumps({
        "space": {"type": "interval", "a": -1.0, "b": 1.0},
        "maps": ["(t+1)/2", "(t-1)/2"],
        "coeffs": ["0.5", "0.5"],
        "budgets": {"m_max": 16}}))
    code, out, _ = run(capsys, ["certify", "--config", str(path),
                                "--no-meta"])
    assert code == 1


def test_solve_fe_csv(tmp_path, capsys):
    out_csv = tmp_path / "f.csv"
    code, out, _ = run(capsys, ["solve-fe", "--config",
                                cfg("standard_funceq.json"),
                                "--h", "t", "--grid", "512",
                                "--out", str(out_csv), "--no-meta"])
    assert code == 0
    data = np.loadtxt(out_csv, delimiter=",", skiprows=1)
    assert np.max(np.abs(data[:, 1] - (4.0 / 3.0) * data[:, 0])) < 1e-9


def test_solve_bvp_report_keys(tmp_path, capsys):
    out_csv = tmp_path / "u.csv"
    code, out, _ = run(capsys, ["solve-bvp", "--config",
                                cfg("straight_bvp.json"), "--grid", "256",
                                "--out", str(out_csv), "--no-meta"])
    assert code == 0
    doc = json.loads(out)
    for key in ("boundary_defect", "pde_residual", "verdict"):
        assert key in doc
    assert doc["verdict"] == "solvable"
    data = np.loadtxt(out_csv, delimiter=",", skiprows=1)
    err = np.abs(data[:, 2] - (data[:, 0] - data[:, 1]) ** 2)
    assert np.max(err) < 1e-5


def test_analyze_bvp_cycle_exit_one(capsys):
    code, out, _ = run(capsys, ["analyze-bvp", "--config",
                                cfg("cycle_bvp.json"), "--no-meta"])
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "not_solvable"
    assert doc["cycles"]


def test_validate_pconf_commands(capsys, tmp_path):
    code, out, _ = run(capsys, ["validate-pconf", "--config",
                                cfg("quadratic_pconf.json"), "--no-meta"])
    assert code == 0
    assert json.loads(out)["valid"]
    path = tmp_path / "bad_pconf.json"
    path.write_text(json.dumps({
        "space": {"type": "interval", "a": 0.0, "b": 1.0},
        "maps": ["t/2", "t/2"],
        "problem": {"anchors": [0.0, 0.5, 1.0]}}))
    code, out, _ = run(capsys, ["validate-pconf", "--config", str(path),
                                "--no-meta"])
    assert code == 1
    assert not json.loads(out)["valid"]


def test_graph_min(capsys):
    code, out, _ = run(capsys, ["graph-min", "--config",
                                cfg("graph_chain.json"), "--no-meta"])
    assert code == 0
    assert json.loads(out)["minimal_subsystems"] == [[2]]


def test_verify_conjugacy_command(capsys):
    code, out, _ = run(capsys, ["verify-conjugacy", "--config",
                                cfg("curved_bvp.json"), "--no-meta"])
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"]
    assert doc["map_defect"] < 1e-9
    assert doc["properness_violations"] == 0


def test_weak_attractor_command(capsys):
    code, out, _ = run(capsys, ["weak-attractor", "--config",
                                cfg("circle_rational.json"),
                                "--x0", "0.3", "--no-meta"])
    assert code == 1
    assert json.loads(out)["verdict"] == "no"


def test_cycles_command(capsys):
    code, out, _ = run(capsys, ["cycles", "--config",
                                cfg("circle_rational.json"), "--no-meta"])
    assert code == 1
    doc = json.loads(out)
    assert doc["cycles"]


def test_orbit_command_csv(tmp_path, capsys):
    out_csv = tmp_path / "cloud.csv"
    code, out, _ = run(capsys, ["orbit", "--config",
                                cfg("circle_rational.json"),
                                "--x0", "0.0", "--depth", "50",
                                "--out", str(out_csv), "--no-meta"])
    assert code == 0
    doc = json.loads(out)
    assert doc["points"] == 2
    pts = np.loadtxt(out_csv, skiprows=1)
    assert pts.shape == (2,)


def test_solve_ivp_accepts_csv_grid_h(tmp_path, capsys):
    from guided_dynamics.funceq import GridFunction
    from guided_dynamics.gds import Interval
    h_csv = tmp_path / "h.csv"
    GridFunction.from_callable(Interval(-1.0, 1.0), 512,
                               lambda t: (t * t - 1) / 2).to_csv(h_csv)
    out_csv = tmp_path / "f.csv"
    code, out, _ = run(capsys, [
        "solve-ivp", "--config", cfg("standard_pconf.json"),
        "--h", str(h_csv), "--grid", "512", "--out", str(out_csv),
        "--no-meta"])
    assert code == 0
    data = np.loadtxt(out_csv, delimiter=",", skiprows=1)
    assert np.max(np.abs(data[:, 1] - data[:, 0] ** 2)) < 1e-4


def test_numeric_failure_exit_three(tmp_path, capsys):
    path = tmp_path / "half.json"
    path.write_text(json.dumps({
        "space": {"type": "interval", "a": -1.0, "b": 1.0},
        "maps": ["(t+1)/2", "(t-1)/2"],
        "coeffs": ["0.5", "0.5"]}))
    code, _, err = run(capsys, ["solve-fe", "--config", str(path),
                                "--h", "t", "--no-meta"])
    assert code == 3
    assert "numeric failure" in err


def test_affine_analyze_missing_keys_exit_two(capsys):
    code, _, err = run(capsys, ["affine-analyze", "--config",
                                cfg("jensen.json"), "--no-meta"])
    assert code == 2
    assert "config error" in err and "A1" in err


def test_overdet_missing_keys_exit_two(tmp_path, capsys):
    path = tmp_path / "jensen_no_values.json"
    path.write_text(json.dumps({
        "problem": {"kind": "jensen", "interval": [0.0, 1.0]}}))
    code, _, err = run(capsys, ["overdet", "--config", str(path),
                                "--no-meta"])
    assert code == 2
    assert "missing keys ['A', 'B']" in err
    path.write_text(json.dumps({
        "problem": {"kind": "affine", "interval": [1.0, 2.0], "A": 1.0,
                    "B": 0.3, "rules": [{"cA": 1.0}]}}))
    code, _, err = run(capsys, ["overdet", "--config", str(path),
                                "--no-meta"])
    assert code == 2
    assert "/problem/rules/0" in err


@pytest.mark.parametrize("command,problem,pointer", [
    ("overdet", {"kind": "jensen", "interval": 5, "A": 0.0, "B": 1.0},
     "/problem/interval"),
    ("overdet", {"kind": "geometric_mean", "interval": [1.0, "4"],
                 "A": 0.0, "B": 2.0}, "/problem/interval"),
    ("overdet", {"kind": "jensen", "interval": [0.0, 1.0], "A": "0",
                 "B": 1.0}, "/problem/A"),
    ("overdet", {"kind": "jensen", "interval": [0.0, 1.0], "A": 0.0,
                 "B": 1.0, "weight": True}, "/problem/weight"),
    ("overdet", {"kind": "cauchy", "B": [0.5]}, "/problem/B"),
    ("affine-analyze", {"A1": [[1.0], [1.0, 2.0]], "A2": [[1.0]],
                        "b1": [0.0], "b2": [1.0]}, "/problem/A1"),
    ("affine-analyze", {"A1": [[1.0]], "A2": [[[1.0]]], "b1": [0.0],
                        "b2": [1.0]}, "/problem/A2"),
    ("affine-analyze", {"A1": [[1.0]], "A2": [[1.0]], "b1": [0.0],
                        "b2": "1"}, "/problem/b2"),
])
def test_ill_typed_problem_values_exit_two(tmp_path, capsys, command,
                                           problem, pointer):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"problem": problem}))
    code, _, err = run(capsys, [command, "--config", str(path),
                                "--no-meta"])
    assert code == 2
    assert err.startswith("config error:") and f"(at {pointer})" in err


def test_debug_flag_prints_traceback(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli.HANDLERS, "probe", broken)
    argv = ["probe", "--config", cfg("circle_rational.json"), "--no-meta"]
    code, out, err = run(capsys, argv)
    assert code == 3
    assert err == "internal error: RuntimeError: boom\n"
    code, out, err = run(capsys, argv + ["--debug"])
    assert code == 3
    assert err.startswith("internal error: RuntimeError: boom\n")
    assert "Traceback (most recent call last)" in err
    assert "in broken" in err


@pytest.mark.parametrize("command,config", [
    ("solve-ivp", "standard_pconf.json"),
    ("certify", "standard_funceq.json"),
    ("solve-fe", "standard_funceq.json"),
    ("solve-bvp", "straight_bvp.json"),
    ("graph-min", "graph_chain.json"),
])
@pytest.mark.parametrize("grid", ["0", "-4", "2.5", "many"])
def test_grid_must_be_positive_int(capsys, command, config, grid):
    code, out, err = run(capsys, [command, "--config", cfg(config),
                                  "--grid", grid, "--no-meta"])
    assert code == 2
    assert out == ""
    assert "argument --grid: expected a positive integer" in err


@pytest.mark.parametrize("argv,grid", [
    (["solve-ivp", "--config", cfg("standard_pconf.json")], 512),
    (["solve-ivp", "--config", cfg("standard_pconf.json"), "--grid", "1"],
     1),
    (["certify", "--config", cfg("standard_funceq.json")], 1024),
    (["certify", "--config", cfg("standard_funceq.json"), "--grid", "3"],
     3),
])
def test_grid_default_only_when_absent(capsys, argv, grid):
    code, out, _ = run(capsys, argv + ["--no-meta"])
    assert code == 0
    assert json.loads(out)["grid"] == grid


def test_singular_ivp_factor_is_numeric_failure(monkeypatch, capsys):
    from guided_dynamics import pconf

    def singular(matrix):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(pconf, "splu", singular)
    code, out, err = run(capsys, ["solve-ivp", "--config",
                                  cfg("standard_pconf.json"), "--grid",
                                  "64", "--no-meta"])
    assert code == 3
    assert out == ""
    assert err.startswith("numeric failure: ")
    assert "singular" in err
