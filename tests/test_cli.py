import dataclasses
import functools
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from guided_dynamics import cauchy, cli, funceq, gds
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


@pytest.mark.parametrize("config", ["circle_rational.json",
                                    "exmplfe_circle.json"])
def test_probe_report_has_no_numpy_reprs(capsys, config):
    # the note names the seed of the witness as a plain float
    code, out, _ = run(capsys, ["probe", "--config", cfg(config),
                                "--no-meta"])
    assert code == 1
    notes = [v for v in json.loads(out).values() if isinstance(v, str)]
    assert notes and not any("np." in v for v in notes)
    assert "np." not in out


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


@pytest.mark.parametrize("config,key,other", [
    ("standard_pconf.json", "condition_bound", "condition_estimate"),
    ("quadratic_pconf.json", "condition_estimate", "condition_bound")])
def test_solve_ivp_reports_its_route_condition_key(capsys, config, key,
                                                   other):
    # the affine route reports the certificate's bound of kappa_inf(S),
    # the factored route its estimate of kappa_1(S)
    code, out, _ = run(capsys, ["solve-ivp", "--config", cfg(config),
                                "--h", "0", "--no-meta"])
    assert code == 0
    doc = json.loads(out)
    assert other not in doc
    if key == "condition_bound":
        # ||I - L|| = 3/2, m = 1, q = 1/2
        assert doc[key] == 3.0
    else:
        assert np.isfinite(doc[key])


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
    argv = ["analyze-bvp", "--config", cfg("straight_bvp.json"),
            "--seed", "7", "--no-meta"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == 0
    assert (code1, out1) == (code2, out2)


BASE_CONFIG = {"space": {"type": "interval", "a": -1.0, "b": 1.0},
               "maps": ["(t+1)/2", "(t-1)/2"]}


@pytest.mark.parametrize("command,replaced,pointer", [
    ("probe", {"space": 5}, "/space"),
    ("probe", {"space": {"type": "interval", "b": 1.0}}, "/space"),
    ("probe", {"space": {"type": "interval", "a": -1.0}}, "/space"),
    ("probe", {"space": {"type": "interval", "a": "x", "b": 1.0}},
     "/space/a"),
    ("probe", {"space": {"type": "interval", "a": 1.0, "b": -1.0}},
     "/space/b"),
    ("probe", {"space": {"type": ["interval"]}}, "/space/type"),
    ("probe", {"space": {"type": "circle", "period": -1}}, "/space/period"),
    ("probe", {"space": {"type": "graph", "nodes": "x",
                         "tables": [[0]]}}, "/space/nodes"),
    ("probe", {"space": {"type": "graph", "nodes": 3,
                         "tables": [[1, 2]]}}, "/space/tables/0"),
    ("probe", {"guiding": 5}, "/guiding"),
    ("probe", {"guiding": [5]}, "/guiding/0"),
    ("probe", {"guiding": [[["a", "b"]]]}, "/guiding/0/0"),
    ("probe", {"guiding": [[], [[0.5, 0.2]]]}, "/guiding/1/0"),
    ("probe", {"maps": "t/2"}, "/maps"),
    ("certify", {"coeffs": []}, "/coeffs"),
    ("validate-pconf", {"problem": 5}, "/problem"),
    ("validate-pconf", {"problem": {"anchors": "x"}}, "/problem/anchors"),
    ("solve-ivp", {"problem": {"anchors": [-1, 0, 1], "c": "x"}},
     "/problem/c"),
    ("build-bvp", {"problem": {"alpha1": "(1+z)/2", "alpha2": "(1-z)/2",
                               "m": "x", "n": 1.0, "g1": "t^2", "g2": "t^2",
                               "gGamma": "z^2"}}, "/problem/m"),
    ("probe", {"space": {"type": "graph", "nodes": 3,
                         "tables": [[0, 1, 2], [5, 0, 0]]}},
     "/space/tables/1"),
    ("probe", {"space": {"type": "graph", "nodes": 3,
                         "tables": [[0, -1, 2]]}}, "/space/tables/0"),
    ("solve-ivp", {"maps": ["(t-1)/2", "(t+1)/2"],
                   "problem": {"anchors": [-1, 0, 1], "h": "(t*t-1)/2",
                               "c": 5.0}}, "/problem/c"),
    # a functional equation needs one coefficient per map, on an
    # interval or a circle
    ("certify", {"coeffs": ["0.25"]}, "/coeffs"),
    ("solve-fe", {"coeffs": ["0.25"]}, "/coeffs"),
    ("certify", {"space": {"type": "graph", "nodes": 2,
                           "tables": [[0, 1], [1, 0]]},
                 "coeffs": ["0.25", "0.25"]}, "/space/type"),
    ("solve-fe", {"space": {"type": "graph", "nodes": 2,
                            "tables": [[0, 1], [1, 0]]},
                  "coeffs": ["0.25", "0.25"]}, "/space/type"),
    # a misspelt problem key would otherwise run at the default it meant
    # to replace
    ("solve-ivp", {"problem": {"anchors": [-1, 0, 1], "h": "(t*t-1)/2",
                               "Mu": 5.0}}, "/problem/Mu"),
    ("overdet", {"problem": {"kind": "jensen", "interval": [0.0, 1.0],
                             "A": 0.0, "B": 1.0, "wieght": 0.3}},
     "/problem/wieght"),
])
def test_malformed_section_is_config_error(tmp_path, capsys, command,
                                           replaced, pointer):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**BASE_CONFIG, **replaced}))
    code, out, err = run(capsys, [command, "--config", str(path),
                                  "--no-meta"])
    assert code == 2 and out == ""
    assert err.startswith("config error:") and f"(at {pointer})" in err


def test_interval_space_whose_length_overflows_is_config_error(tmp_path,
                                                               capsys):
    # b - a = 2e308 overflows to inf: refused as the config's fault, not
    # run into a NaN grid
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "space": {"type": "interval", "a": -1e308, "b": 1e308},
        "maps": ["t/2", "(1+t)/2"]}))
    code, out, err = run(capsys, ["probe", "--config", str(path),
                                  "--no-meta"])
    assert (code, out) == (2, "")
    assert err == ("config error: the length 'b' - 'a' must be finite "
                   "(at /space)\n")


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


def test_affine_analyze_near_degenerate(tmp_path, capsys):
    path = tmp_path / "affine_near_degenerate.json"
    path.write_text(json.dumps({"problem": {
        "A1": [[1.0]], "A2": [[1e-6]], "b1": [0.0], "b2": [1.0]}}))
    code, out, _ = run(capsys, ["affine-analyze", "--config", str(path),
                                "--no-meta"])
    assert code == 0
    doc = json.loads(out)
    assert doc["d_tilde1"][0] == pytest.approx(-1e6, rel=1e-9)
    assert doc["d_tilde2"][0] == pytest.approx(1.0, rel=1e-12)


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


def funceq_config(tmp_path, coeffs, maps=("(t+1)/2", "(t-1)/2")):
    """standard_funceq.json with its coefficients (and maps) replaced."""
    with open(cfg("standard_funceq.json"), encoding="utf-8") as fh:
        raw = json.load(fh)
    path = tmp_path / "coeffs.json"
    path.write_text(json.dumps({**raw, "coeffs": coeffs, "maps": maps}))
    return str(path)


def test_certify_reads_no_guiding_sets(tmp_path, capsys):
    # both coefficients vanish at -1 and 1, so their zero sets meet; the
    # grid operator reads no guiding set, and A 1 = (1 - t^2) / 2
    path = funceq_config(tmp_path, ["0.25*(1 - t^2)", "0.25*(1 - t^2)"])
    code, out, _ = run(capsys, ["certify", "--config", path, "--no-meta"])
    assert code == 0
    doc = json.loads(out)
    assert (doc["certified"], doc["m"], doc["norm"]) == (True, 1, 0.5)


@pytest.mark.parametrize("coeffs,witness", [
    # -1.55 at node 1 of the 1024-cell grid, and >= 0 at every point of a
    # 513-point sample of [-1, 1]
    (["0.45 - 2*exp(-((t - (-0.998046875))/0.0001)^2)", "0.45"],
     "-1.55 at node t=-0.998046875"),
    (["t", "0.25"], "-1.0 at node t=-1.0"),
])
def test_coefficient_negative_at_a_node_is_rejected(tmp_path, capsys,
                                                    coeffs, witness):
    # ||A^m|| = ||A^m 1|| needs every matrix entry >= 0
    path = funceq_config(tmp_path, coeffs)
    for argv in (["certify"], ["solve-fe", "--h", "1"]):
        code, out, err = run(capsys, argv + ["--config", path, "--no-meta"])
        assert (code, out) == (1, "")
        assert err == (f"rejected: hypothesis failed: coefficients are "
                       f"nonnegative (coefficient 0 is {witness})\n")


# exp(1000 t) overflows at the nodes t > 0.7098, first at node 0.7109375
@pytest.mark.parametrize("coeffs,maps,code,err", [
    (["0.25 + 0*exp(1000*t)", "0.25"], ["(t+1)/2", "(t-1)/2"], 1,
     "rejected: hypothesis failed: coefficients are finite (coefficient 0 "
     "is nan at node t=0.7109375)"),
    (["0.25 + exp(1000*t)", "0.25"], ["(t+1)/2", "(t-1)/2"], 1,
     "rejected: hypothesis failed: coefficients are finite (coefficient 0 "
     "is inf at node t=0.7109375)"),
    (["0.25", "0.25"], ["(t+1)/2 + 0*exp(1000*t)", "(t-1)/2"], 3,
     "numeric failure: map 0 has no finite image at node t=0.7109375 "
     "(image nan)"),
], ids=["nan_coefficient", "inf_coefficient", "nan_image"])
def test_non_finite_node_value_is_refused(tmp_path, capsys, coeffs, maps,
                                          code, err):
    # NaN passes every comparison that bounds a value, so a NaN or inf
    # entry would reach the matrix, and a NaN image its cell index. The
    # refusal is the one line on stderr: the overflow of exp is expected
    # where the node tables are evaluated, and warns nothing
    path = funceq_config(tmp_path, coeffs, maps)
    for argv in (["certify"], ["solve-fe", "--h", "1"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = run(capsys, argv + ["--config", path, "--no-meta"])
        assert got == (code, "", err + "\n")


# h'' = (1400 + (1400 t)^2) exp(700 t^2) overflows at both ends, where
# h = exp(700) is still finite; the CSV h (SPIKE_CSV) is finite, but its
# spike of 1e305 at t = 0 overflows the second differences around it
@pytest.mark.parametrize("argv,detail", [
    (["solve-fe", "--config", cfg("standard_funceq.json"), "--h",
      "exp(1000*t)"], "h is inf at node t=0.7109375"),
    (["solve-ivp", "--config", cfg("standard_pconf.json"), "--h",
      "exp(1000*t)-exp(1000*t)"], "h is nan at node t=0.7109375"),
    (["solve-ivp", "--config", cfg("standard_pconf.json"), "--h",
      "exp(700*t^2)"], "h'' is inf at node t=-1.0"),
    (["solve-ivp", "--config", cfg("standard_pconf.json"), "--h",
      "SPIKE_CSV", "--grid", "512"], "h'' is inf at node t=-0.00390625"),
], ids=["solve_fe_h", "solve_ivp_h", "solve_ivp_h2", "solve_ivp_csv_h2"])
def test_non_finite_right_hand_side_is_refused(tmp_path, capsys, argv,
                                               detail):
    # the tabulated right-hand side would reach the solve; its overflow is
    # expected where it is tabulated, and the refusal is the one line
    if "SPIKE_CSV" in argv:
        from guided_dynamics.funceq import GridFunction
        from guided_dynamics.gds import Interval
        vals = np.zeros(513)
        vals[256] = 1e305
        h_csv = tmp_path / "h.csv"
        GridFunction(Interval(-1.0, 1.0), vals).to_csv(h_csv)
        argv = [str(h_csv) if a == "SPIKE_CSV" else a for a in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = run(capsys, argv + ["--no-meta"])
    assert got == (1, "", f"rejected: hypothesis failed: right-hand side "
                          f"is finite ({detail})\n")


@pytest.mark.parametrize("maps,coeffs,named", [
    # a coefficient that differs at t = 0 and t = period
    (["t + 1", "t + 2"], ["0.5 + 0.1*t/(2*pi)", "0.3"], "coefficient 0"),
    # a map whose image at t = period is not its image at t = 0
    (["t + 1", "1.1*t"], ["0.4", "0.4"], "map 1"),
])
def test_certify_rejects_circle_grid_that_does_not_close(tmp_path, capsys,
                                                         maps, coeffs, named):
    path = tmp_path / "open.json"
    path.write_text(json.dumps({
        "space": {"type": "circle", "period": 2 * np.pi},
        "maps": maps, "coeffs": coeffs}))
    for argv in (["certify"], ["solve-fe", "--h", "1"]):
        code, out, err = run(capsys, argv + ["--config", str(path),
                                             "--no-meta"])
        assert code == 3
        assert out == ""
        assert named in err and "does not close up" in err


def test_solve_fe_csv(tmp_path, capsys):
    out_csv = tmp_path / "f.csv"
    code, out, _ = run(capsys, ["solve-fe", "--config",
                                cfg("standard_funceq.json"),
                                "--h", "t", "--grid", "512",
                                "--out", str(out_csv), "--no-meta"])
    assert code == 0
    data = np.loadtxt(out_csv, delimiter=",", skiprows=1)
    assert np.max(np.abs(data[:, 1] - (4.0 / 3.0) * data[:, 0])) < 1e-9


@pytest.mark.parametrize("command,config", [
    ("solve-fe", "standard_funceq.json"), ("solve-ivp", "standard_pconf.json")])
def test_missing_h_is_config_error(tmp_path, capsys, command, config):
    with open(cfg(config), encoding="utf-8") as fh:
        raw = json.load(fh)
    raw.get("problem", {}).pop("h", None)
    path = tmp_path / config
    path.write_text(json.dumps(raw))
    code, out, err = run(capsys, [command, "--config", str(path),
                                  "--no-meta"])
    assert code == 2
    assert out == ""
    assert f"{command} needs h" in err and "/problem/h" in err


DEEP_SOURCES = {"sum of 2000 terms": " + ".join(["t"] * 2000),
                "400 parentheses": "(" * 400 + "t" + ")" * 400}


@pytest.mark.parametrize("source", DEEP_SOURCES.values(), ids=DEEP_SOURCES)
def test_deep_expression_is_a_config_error(tmp_path, capsys, source):
    path = tmp_path / "deep_map.json"
    path.write_text(json.dumps({
        "space": {"type": "interval", "a": -1.0, "b": 1.0},
        "maps": ["(t+1)/2", source], "coeffs": ["0.25", "0.25"]}))
    for argv, pointer in (
            (["--config", cfg("standard_funceq.json"), "--h", source],
             "/problem/h"),
            (["--config", str(path), "--h", "t"], "/maps/1")):
        code, out, err = run(capsys, ["solve-fe"] + argv + ["--no-meta"])
        assert code == 2
        assert out == ""
        assert "config error" in err and "nested deeper" in err
        assert pointer in err


def test_solve_fe_with_a_300_term_h(tmp_path, capsys):
    out_csv = tmp_path / "f.csv"
    code, _, _ = run(capsys, ["solve-fe", "--config",
                              cfg("standard_funceq.json"),
                              "--h", " + ".join(["0.001*t"] * 300),
                              "--grid", "512", "--out", str(out_csv),
                              "--no-meta"])
    assert code == 0
    data = np.loadtxt(out_csv, delimiter=",", skiprows=1)
    # h = 0.3 t, so f = 0.4 t
    assert np.max(np.abs(data[:, 1] - 0.4 * data[:, 0])) < 1e-9


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


def test_probe_graph_cycle_is_minimal_evidence(capsys):
    # the 5-cycle is one terminal SCC holding every node
    code, out, _ = run(capsys, ["probe", "--config", cfg("graph_cycle.json"),
                                "--no-meta"])
    assert code == 0
    doc = json.loads(out)
    assert (doc["verdict"], doc["via"], doc["coverage"]) == (
        "minimal_evidence", "terminal_scc", 1.0)
    assert doc["witness_nodes"] is None


def test_verify_conjugacy_command(capsys):
    code, out, _ = run(capsys, ["verify-conjugacy", "--config",
                                cfg("curved_bvp.json"), "--no-meta"])
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"]
    assert doc["map_defect"] < 1e-9
    assert doc["properness_violations"] == 0


@pytest.mark.parametrize("config", ["straight_bvp.json", "curved_bvp.json",
                                    "cycle_bvp.json"])
def test_only_the_gamma_side_commands_build_the_gamma_system(
        tmp_path, capsys, monkeypatch, config):
    # analyze-bvp and solve-bvp read the interval system alone; build-bvp
    # and verify-conjugacy check the Gamma system against it, once each
    from guided_dynamics import bvp
    built, checked = [], []
    guided, check = bvp.GuidedSystem, bvp.verify_conjugacy

    def spy_guided(*args, **kwargs):
        built.append(guided(*args, **kwargs))
        return built[-1]

    def spy_check(*args, **kwargs):
        checked.append(args[0])
        return check(*args, **kwargs)

    monkeypatch.setattr(bvp, "GuidedSystem", spy_guided)
    monkeypatch.setattr(bvp, "verify_conjugacy", spy_check)
    for command, gamma_side in (("analyze-bvp", False), ("solve-bvp", False),
                                ("build-bvp", True),
                                ("verify-conjugacy", True)):
        built.clear()
        checked.clear()
        code, _, _ = run(capsys, [command, "--config", cfg(config), "--out",
                                  str(tmp_path / command), "--no-meta"])
        assert code in (0, 1)
        # the interval system, then the Gamma system that the check reads
        assert len(built) == 1 + gamma_side
        assert checked == built[1:]


@pytest.mark.parametrize("config", ["straight_bvp.json", "cycle_bvp.json"])
def test_analyze_bvp_draws_from_its_own_seed(capsys, monkeypatch, config):
    # the solvability analysis starts a fresh stream at --seed; no check
    # draws from it first
    from guided_dynamics import bvp
    fresh = np.random.default_rng(7).bit_generator.state
    contraction = bvp.check_contraction_minimality
    states = []

    def spy(system, rng=None):
        states.append(rng.bit_generator.state)
        return contraction(system, rng=rng)

    monkeypatch.setattr(bvp, "check_contraction_minimality", spy)
    code, out, _ = run(capsys, ["analyze-bvp", "--config", cfg(config),
                                "--seed", "7", "--no-meta"])
    assert states == [fresh]
    rep = bvp.analyze_solvability(
        bvp.build_boundary_system(cli._bvp_problem(load_config(cfg(config)))),
        rng=np.random.default_rng(7))
    want = {"command": "analyze-bvp", "status": rep.status,
            "route": rep.route, "grade": rep.grade,
            "fixed_points": [dataclasses.asdict(fp)
                             for fp in rep.fixed_points],
            "cycles": [{"points": c.points, "generators": list(c.gens)}
                       for c in rep.cycle_report.cycles],
            "notes": rep.notes}
    assert json.loads(out) == json.loads(json.dumps(cli._jsonable(want)))
    assert code == (1 if rep.status == "not_solvable" else 0)


def test_weak_attractor_command(capsys):
    code, out, _ = run(capsys, ["weak-attractor", "--config",
                                cfg("circle_rational.json"),
                                "--x0", "0.3", "--no-meta"])
    assert code == 1
    assert json.loads(out)["verdict"] == "no"


# certified at m = 2, so m_max = 1 refuses the certificate
QUADRATIC_COEFFS = {"coeffs": ["t*t/2", "0.5"]}
# subcommand -> config, keys replaced in it, flags, and the library call
# that its budgets reach
BUDGET_RUNS = {
    "orbit": ("circle_irrational.json", {}, ["--x0", "0.3"],
              gds, "guided_orbit_set"),
    "probe": ("circle_irrational.json", {}, [], gds, "probe_minimality"),
    "weak-attractor": ("circle_irrational.json", {}, ["--x0", "0.3"],
                       gds, "probe_weak_attractor"),
    "overdet": ("jensen.json", {}, [], cauchy, "propagate_values"),
    "certify": ("standard_funceq.json", QUADRATIC_COEFFS, [],
                funceq, "certify_contraction"),
    "solve-fe": ("standard_funceq.json", QUADRATIC_COEFFS, ["--h", "t"],
                 funceq, "solve_neumann"),
    "cycles": ("circle_rational.json", {}, [], gds, "find_guided_cycles"),
}
LIBRARY_KEYWORD = {"cell_cap": "cell_cap", "max_iter": "max_iter",
                   "m_max": "m_max", "max_cycle_len": "max_len"}


@pytest.mark.parametrize("budget,command", [
    (budget, command) for budget, (_, commands) in cli.BUDGETS.items()
    for command in commands])
def test_cell_cap_budget_reaches_probes(tmp_path, capsys, monkeypatch,
                                        budget, command):
    # a budget of 1 in the config gives the run the library call gives
    # with that keyword set to 1, and the default gives another run
    config, replaced, flags, module, name = BUDGET_RUNS[command]
    with open(cfg(config), encoding="utf-8") as fh:
        doc = {**json.load(fh), **replaced}
    base, capped = tmp_path / "base.json", tmp_path / "capped.json"
    base.write_text(json.dumps(doc))
    capped.write_text(json.dumps({**doc, "budgets": {budget: 1}}))
    argv = [command, *flags, "--no-meta", "--config"]
    got = run(capsys, argv + [str(capped)])
    default = run(capsys, argv + [str(base)])
    monkeypatch.setattr(module, name, functools.partial(
        getattr(module, name), **{LIBRARY_KEYWORD[budget]: 1}))
    assert got == run(capsys, argv + [str(base)]) != default


def test_cycles_command(capsys):
    code, out, _ = run(capsys, ["cycles", "--config",
                                cfg("circle_rational.json"), "--no-meta"])
    assert code == 1
    doc = json.loads(out)
    assert doc["cycles"]


def _cycles_with_budget(tmp_path, capsys, budget, *flags):
    with open(cfg("circle_rational.json"), encoding="utf-8") as fh:
        raw = json.load(fh)
    raw["budgets"] = {"max_cycle_len": budget}
    path = tmp_path / "cycles.json"
    path.write_text(json.dumps(raw))
    return run(capsys, ["cycles", "--config", str(path), *flags,
                        "--no-meta"])


def test_cycles_max_len_flag_overrides_budget(tmp_path, capsys):
    for flags, want in (((), 2), (("--max-len", "4"), 4)):
        _, out, _ = _cycles_with_budget(tmp_path, capsys, 2, *flags)
        assert json.loads(out)["max_len"] == want


def test_cycles_max_len_below_one_is_config_error(tmp_path, capsys):
    code, _, err = _cycles_with_budget(tmp_path, capsys, 0)
    assert code == 2 and "/budgets/max_cycle_len" in err
    for flag in ("0", "-3"):
        code, _, err = run(capsys, ["cycles", "--config",
                                    cfg("circle_rational.json"),
                                    "--max-len", flag])
        assert code == 2 and "positive integer" in err


@pytest.mark.parametrize("argv,config,budgets", [
    (["orbit", "--x0", "0.3"], "circle_irrational.json", {"cell_cap": 0}),
    (["orbit", "--x0", "0.3"], "circle_irrational.json", {"cell_cap": -5}),
    (["orbit", "--x0", "0.3"], "circle_irrational.json",
     {"cell_cap": True}),
    (["certify"], "exmplfe_circle.json", {"m_max": 0}),
    (["solve-fe"], "standard_funceq.json", {"max_iter": 1.0}),
    (["cycles"], "circle_rational.json", {"max_cycle_len": "x"}),
    (["cycles"], "circle_rational.json", {"max_cycle_len": 2.5}),
])
def test_budget_not_a_positive_integer_is_config_error(tmp_path, capsys,
                                                      argv, config,
                                                      budgets):
    with open(cfg(config), encoding="utf-8") as fh:
        raw = json.load(fh)
    raw["budgets"] = budgets
    path = tmp_path / "budget.json"
    path.write_text(json.dumps(raw))
    code, _, err = run(capsys, argv + ["--config", str(path), "--no-meta"])
    (key,) = budgets
    assert code == 2 and f"/budgets/{key}" in err


@pytest.mark.parametrize("value", [float("nan"), "x", None, -1.0])
def test_tolerance_not_a_finite_nonnegative_number_is_config_error(
        tmp_path, capsys, value):
    # json.dumps writes NaN, which json.load reads back
    with open(cfg("circle_rational.json"), encoding="utf-8") as fh:
        raw = json.load(fh)
    raw["tolerances"] = {"tol_lambda": value}
    path = tmp_path / "tol.json"
    path.write_text(json.dumps(raw))
    code, _, err = run(capsys, ["probe", "--config", str(path), "--eps",
                                "0.05", "--no-meta"])
    assert code == 2 and "/tolerances/tol_lambda" in err


def test_corner_tol_is_an_unknown_tolerance(tmp_path, capsys):
    with open(cfg("straight_bvp.json"), encoding="utf-8") as fh:
        raw = json.load(fh)
    raw["tolerances"] = {"corner_tol": 1e-7}
    path = tmp_path / "tol.json"
    path.write_text(json.dumps(raw))
    code, _, err = run(capsys, ["build-bvp", "--config", str(path)])
    assert code == 2 and "/tolerances/corner_tol" in err


def test_tol_lambda_reaches_guided_systems(tmp_path):
    with open(cfg("standard_funceq.json"), encoding="utf-8") as fh:
        raw = json.load(fh)
    raw["tolerances"] = {"tol_lambda": 1e-6}
    path = tmp_path / "tol.json"
    path.write_text(json.dumps(raw))
    config = load_config(str(path))
    assert config.guided_system().tol_lambda == 1e-6


@pytest.mark.parametrize("text", [
    "t,value\n",                              # header only
    "t,value\n0.5,1\n",                      # one row
    "t\n-1\n0\n1\n",                         # one column
    "t,value\n-1,0\n0.1,0\n1,0\n",           # not uniform
    "t,value\n-1,0\n-0.5,0\n0,0\n",          # zeros sampled on [-1, 0]
    "t,value\n0,0\n0.5,0.25\n1,1\n",         # t^2 sampled on [0, 1]
])
def test_solve_ivp_malformed_csv_h_is_config_error(tmp_path, capsys, text):
    h_csv = tmp_path / "h.csv"
    h_csv.write_text(text)
    code, _, err = run(capsys, ["solve-ivp", "--config",
                                cfg("standard_pconf.json"), "--h",
                                str(h_csv), "--no-meta"])
    assert code == 2 and "/problem/h" in err


def test_header_only_csv_h_prints_only_the_config_error(tmp_path, capsys):
    h_csv = tmp_path / "h.csv"
    h_csv.write_text("t,value\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["solve-ivp", "--config",
                                      cfg("standard_pconf.json"), "--h",
                                      str(h_csv), "--no-meta"])
    assert code == 2 and out == ""
    assert err.startswith("config error:") and err.count("\n") == 1


# subcommand -> config and flags of one run that ends in a report
OUT_RUNS = {
    "orbit": ("circle_rational.json", ["--x0", "0.0", "--depth", "50"]),
    "probe": ("circle_rational.json", []),
    "weak-attractor": ("circle_rational.json", ["--x0", "0.0"]),
    "cycles": ("circle_rational.json", []),
    "graph-min": ("graph_chain.json", []),
    "certify": ("standard_funceq.json", []),
    "solve-fe": ("standard_funceq.json", ["--h", "t"]),
    "solve-ivp": ("standard_pconf.json", []),
    "validate-pconf": ("standard_pconf.json", []),
    "overdet": ("jensen.json", []),
    "affine-analyze": ("affine_scalar.json", []),
    "build-bvp": ("straight_bvp.json", []),
    "analyze-bvp": ("straight_bvp.json", []),
    "solve-bvp": ("straight_bvp.json", []),
    "verify-conjugacy": ("straight_bvp.json", []),
}
CSV_COMMANDS = {"orbit", "solve-fe", "solve-ivp", "overdet", "solve-bvp"}


# subcommand -> the flags it reads besides --config --out --no-meta --debug
READS = {
    "orbit": {"--x0", "--eps", "--depth"},
    "probe": {"--eps", "--depth"},
    "weak-attractor": {"--x0", "--eps", "--depth"},
    "cycles": {"--max-len"},
    "graph-min": {"--grid"},
    "certify": {"--grid"},
    "solve-fe": {"--h", "--grid", "--tol"},
    "solve-ivp": {"--h", "--c", "--mu", "--grid"},
    "validate-pconf": set(),
    "overdet": {"--eps", "--depth", "--tol"},
    "affine-analyze": set(),
    "build-bvp": {"--seed"},
    "analyze-bvp": {"--seed", "--eps", "--depth"},
    "solve-bvp": {"--grid", "--mu", "--eps", "--depth"},
    "verify-conjugacy": {"--seed"},
}
# numeric and seed flags; a subcommand that does not read one rejects it
FORMER_COMMON = ("--eps", "--depth", "--grid", "--tol", "--seed")


def test_each_subcommand_takes_only_the_flags_it_reads():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a.choices, dict))
    for command, parser in sub.choices.items():
        flags = {f for a in parser._actions for f in a.option_strings}
        assert flags == READS[command] | {
            "-h", "--help", "--config", "--out", "--no-meta", "--debug"}


def _full_parser_run(capsys, argv):
    """Exit code and stderr of argv under the parser of every subcommand."""
    try:
        cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code, capsys.readouterr().err
    raise AssertionError(f"{argv} parsed")


def _bad_flag_runs(command):
    """Argument lists that the parser of `command` refuses."""
    yield [command]                                    # no --config
    yield [command, "--config", "c.json", "--bogus", "1"]
    yield [command, "--config", "c.json", "--out"]     # no value
    for flag, default in cli.COMMANDS[command][1].items():
        if cli.FLAG_TYPES[flag] is not str:
            yield [command, "--config", "c.json", flag, "x"]
        if default is ...:
            yield [command, "--config", "c.json"]      # required flag


@pytest.mark.parametrize("command", sorted(cli.HANDLERS))
def test_one_subcommand_parser_errs_as_the_full_parser(capsys, command):
    sub = next(a for a in cli.build_parser(command)._actions
               if isinstance(a.choices, dict))
    assert list(sub.choices) == [command]
    for argv in _bad_flag_runs(command):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert _full_parser_run(capsys, argv) == (2, err)


def test_help_lists_every_subcommand(capsys):
    code, out, err = run(capsys, ["--help"])
    assert (code, err) == (0, "")
    assert "{" + ",".join(cli.COMMANDS) + "}" in out
    assert len(cli.COMMANDS) == 15


@pytest.mark.parametrize("argv", [["bogus"], ["bogus", "--config", "c"],
                                  ["--no-meta", "probe"], []])
def test_unknown_or_missing_command_exits_two(capsys, argv):
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert _full_parser_run(capsys, argv) == (2, err)
    assert ("invalid choice: 'bogus'" in err if argv[:1] == ["bogus"]
            else "error:" in err)


@pytest.mark.parametrize("command,flag", [
    (command, flag) for command in sorted(cli.HANDLERS)
    for flag in FORMER_COMMON if flag not in READS[command]])
def test_unread_flag_is_usage_error(capsys, command, flag):
    config, flags = OUT_RUNS[command]
    code, out, err = run(capsys, [command, "--config", cfg(config), *flags,
                                  flag, "1", "--no-meta"])
    assert code == 2
    assert out == ""
    assert f"unrecognized arguments: {flag} 1\n" in err


@pytest.mark.parametrize("command", sorted(cli.HANDLERS))
def test_out_takes_the_csv_or_else_the_report(tmp_path, capsys, command):
    config, flags = OUT_RUNS[command]
    argv = [command, "--config", cfg(config), *flags, "--no-meta"]
    code, report, _ = run(capsys, argv)
    out = tmp_path / "out"
    assert run(capsys, argv + ["--out", str(out)]) == (
        (code, report, "") if command in CSV_COMMANDS else (code, "", ""))
    json.loads(report)
    written = out.read_text()
    if command in CSV_COMMANDS:
        assert written.count("\n") > 1 and "{" not in written
    else:
        assert written == report


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


def test_orbit_stops_at_full_coverage(capsys):
    # the chain 0 -> 1 -> 2, entered at node 0, touches its last node at
    # level 2 and stops there, with saturation untested
    code, out, _ = run(capsys, ["orbit", "--config", cfg("graph_chain.json"),
                                "--x0", "0", "--no-meta"])
    assert code == 0
    doc = json.loads(out)
    assert (doc["coverage"], doc["saturated"], doc["depth_used"]) == \
        (1.0, False, 2)


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
    path.write_text(json.dumps({
        "problem": {"kind": "affine", "interval": [1.0, 2.0], "A": 1.0,
                    "B": 0.3}}))
    code, _, err = run(capsys, ["overdet", "--config", str(path),
                                "--no-meta"])
    assert code == 2
    assert "(at /problem/rules)" in err


STRAIGHT_BVP = {"alpha1": "(1+z)/2", "alpha2": "(1-z)/2", "m": 1.0,
                "n": 1.0, "g1": "t^2", "g2": "t^2", "gGamma": "z^2"}


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
    ("overdet", {"kind": ["jensen"]}, "/problem/kind"),
    ("build-bvp", {**STRAIGHT_BVP, "m": -1}, "/problem/m"),
    ("analyze-bvp", {**STRAIGHT_BVP, "n": 0}, "/problem/n"),
    ("solve-bvp", {**STRAIGHT_BVP, "m": 0.0}, "/problem/m"),
    ("verify-conjugacy", {**STRAIGHT_BVP, "n": -2.5}, "/problem/n"),
    ("build-bvp", {**STRAIGHT_BVP, "m": float("inf")}, "/problem/m"),
    ("overdet", {"kind": "jensen", "interval": [1.0, 0.0], "A": 0.0,
                 "B": 1.0}, "/problem/interval"),
    ("overdet", {"kind": "geometric_mean", "interval": [0.0, 4.0],
                 "A": 0.0, "B": 2.0}, "/problem/interval"),
    ("overdet", {"kind": "jensen", "interval": [0.0, float("inf")],
                 "A": 0.0, "B": 1.0}, "/problem/interval"),
    ("overdet", {"kind": "jensen", "interval": [-1e308, 1e308], "A": 0.0,
                 "B": 1.0}, "/problem/interval"),
    ("overdet", {"kind": "jensen", "interval": [0.0, 1.0],
                 "A": float("nan"), "B": 1.0}, "/problem/A"),
    ("overdet", {"kind": "jensen", "interval": [0.0, 1.0],
                 "A": float("inf"), "B": 1.0}, "/problem/A"),
    ("affine-analyze", {"A1": [[float("nan")]], "A2": [[1.0]],
                        "b1": [0.0], "b2": [1.0]}, "/problem/A1"),
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
    def broken(cfg, args):
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
    def singular(matrix):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr("scipy.sparse.linalg.splu", singular)
    code, out, err = run(capsys, ["solve-ivp", "--config",
                                  cfg("quadratic_pconf.json"), "--h", "0",
                                  "--grid", "64", "--no-meta"])
    assert code == 3
    assert out == ""
    assert err.startswith("numeric failure: ")
    assert "singular" in err


@pytest.mark.parametrize("command,config", [
    ("overdet", "jensen.json"),
    ("probe", "circle_rational.json"),
    ("analyze-bvp", "straight_bvp.json"),
    ("solve-bvp", "straight_bvp.json"),
    ("solve-fe", "standard_funceq.json"),
])
@pytest.mark.parametrize("flag,value,expected", [
    ("--eps", "0", "a positive finite number"),
    ("--eps", "-1", "a positive finite number"),
    ("--eps", "nan", "a positive finite number"),
    ("--eps", "inf", "a positive finite number"),
    ("--tol", "0", "a positive finite number"),
    ("--tol", "-1e-9", "a positive finite number"),
    ("--depth", "-1", "a non-negative integer"),
    ("--depth", "2.5", "a non-negative integer"),
])
def test_numeric_flags_rejected(capsys, command, config, flag, value,
                                expected):
    code, out, err = run(capsys, [command, "--config", cfg(config),
                                  f"{flag}={value}", "--no-meta"])
    assert code == 2
    assert out == ""
    if flag in READS[command]:
        assert f"argument {flag}: expected {expected}" in err
    else:
        assert f"unrecognized arguments: {flag}={value}\n" in err


@pytest.mark.parametrize("flags,points", [
    ([], 8192),
    (["--depth", "0"], 2),
    (["--depth", "3"], 9),
    (["--eps", "0.5", "--depth", "20"], 4),
])
def test_overdet_flags_used_as_given(capsys, flags, points):
    code, out, _ = run(capsys, ["overdet", "--config", cfg("jensen.json"),
                                "--no-meta"] + flags)
    assert code == 0
    assert json.loads(out)["points"] == points


@pytest.mark.parametrize("eps", ["3", "2"])
def test_overdet_eps_too_coarse_is_usage_error(capsys, eps):
    # eps >= 2 * length puts both endpoint seeds in one eps/2-cell
    code, out, err = run(capsys, ["overdet", "--config", cfg("jensen.json"),
                                  "--eps", eps, "--no-meta"])
    assert code == 2
    assert out == ""
    assert "argument --eps" in err and "interval length 1.0" in err


def test_overdet_eps_below_twice_length_runs(capsys):
    code, out, _ = run(capsys, ["overdet", "--config", cfg("jensen.json"),
                                "--eps", "1.99", "--no-meta"])
    assert code == 0
    assert json.loads(out)["points"] == 2


def test_overdet_counts_every_collision(capsys):
    # depth 16 at eps 2^-14 collides 32 770 times, past the old 10 000 cap
    code, out, _ = run(capsys, ["overdet", "--config", cfg("jensen.json"),
                                "--eps", repr(2.0 ** -14), "--depth", "16",
                                "--no-meta"])
    assert code == 0
    assert json.loads(out)["n_collisions"] > 10000


@pytest.mark.parametrize("rules,pointer", [
    (5, "/problem/rules"),
    ({"map": "t/2"}, "/problem/rules"),
    ([3], "/problem/rules/0"),
    ([{"map": "t/2", "cA": 0.5, "cv": 0.5},
      {"map": "(1+t)/2", "cv": 0.5, "c0": "t"}], "/problem/rules/1/c0"),
    ([{"map": "t/2", "cA": [1], "cv": 0.5}], "/problem/rules/0/cA"),
    ([{"map": "t/2", "cA": 0.5, "cv": None}], "/problem/rules/0/cv"),
    ([{"map": "t/2", "cA": 0.5, "cB": True}], "/problem/rules/0/cB"),
    ([], "/problem/rules"),
    ([{"map": "t/2", "cA": float("nan"), "cv": 0.5}],
     "/problem/rules/0/cA"),
    # a misspelt coefficient is not a rule with c_v = 0
    ([{"map": "t/2", "cA": 0.5, "cv": 0.5},
      {"map": "(1+t)/2", "cB": 0.5, "cV": 0.5}], "/problem/rules/1/cV"),
])
def test_overdet_affine_rule_schema(tmp_path, capsys, rules, pointer):
    path = tmp_path / "affine.json"
    path.write_text(json.dumps({"problem": {
        "kind": "affine", "interval": [0.0, 1.0], "A": 0.0, "B": 1.0,
        "rules": rules}}))
    code, out, err = run(capsys, ["overdet", "--config", str(path),
                                  "--no-meta"])
    assert code == 2
    assert out == ""
    assert err.startswith("config error:") and f"(at {pointer})" in err


@pytest.mark.parametrize("maps,condition", [
    # the Cantor function's data are consistent, but its maps leave the
    # middle third uncovered
    (["t/3", "(2+t)/3"], "map ranges cover the interval (uncovered gap "
                         "0.333"),
    (["2*t", "t/2"], "maps stay inside the interval (rule 0)"),
    # monotone, with end-to-end slope 0.46 but slope 10.45 at t = 0.5
    (["0.45*t + 0.005*(1+tanh(2000*(t-0.5)))", "0.45+0.55*t"],
     "strict contraction (rule 0)"),
])
def test_overdet_hypothesis_gate_exit_one(tmp_path, capsys, maps,
                                          condition):
    path = tmp_path / "affine.json"
    path.write_text(json.dumps({"problem": {
        "kind": "affine", "interval": [0.0, 1.0], "A": 0.0, "B": 1.0,
        "rules": [{"map": maps[0], "cv": 0.5},
                  {"map": maps[1], "cB": 0.5, "cv": 0.5}]}}))
    code, out, err = run(capsys, ["overdet", "--config", str(path),
                                  "--no-meta"])
    assert code == 1
    assert out == ""
    assert err.startswith(f"rejected: hypothesis failed: {condition}")


@pytest.mark.parametrize("command,config,flag,value", [
    ("orbit", "circle_irrational.json", "--x0", "nan"),
    ("weak-attractor", "circle_irrational.json", "--x0", "inf"),
    ("solve-ivp", "standard_pconf.json", "--mu", "nan"),
    ("solve-ivp", "standard_pconf.json", "--c", "-inf"),
    ("solve-bvp", "straight_bvp.json", "--mu", "nan"),
])
def test_non_finite_flag_is_usage_error(capsys, command, config, flag,
                                        value):
    code, out, err = run(capsys, [command, "--config", cfg(config),
                                  f"{flag}={value}", "--no-meta"])
    assert code == 2
    assert out == ""
    assert f"argument {flag}: expected a finite number, got {value!r}" \
        in err


@pytest.mark.parametrize("grid", ["1", "2", "3"])
def test_solve_bvp_small_grids(capsys, grid):
    argv = ["solve-bvp", "--config", cfg("straight_bvp.json"), "--grid",
            grid, "--no-meta"]
    first = run(capsys, argv)
    assert first[0] == 0
    assert json.loads(first[1])["grid"] == int(grid)
    assert run(capsys, argv) == first


# prefix of a fresh-interpreter test script: record(step) notes the step
# with the scipy and guided_dynamics modules loaded so far
MODULES_SCRIPT = """\
import contextlib, io, json, sys
steps = []
def record(step):
    steps.append([step, sorted(m for m in sys.modules
                               if m in ("scipy", "concurrent.futures") or
                               m.startswith(("scipy.", "guided_dynamics.")))])
"""


def fresh_modules(code, *args):
    """[[step, loaded modules], ...] recorded by `code` (appended to
    MODULES_SCRIPT) in a fresh interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", MODULES_SCRIPT + code + "print(json.dumps("
         "steps))\n", *args], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True, timeout=300)
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_and_config_load_leave_scipy_unloaded():
    # SciPy loads when a subcommand uses it, never with the package, and
    # concurrent.futures (5-7 ms to import) not at all
    steps = fresh_modules(
        "import guided_dynamics\n"
        "record('import guided_dynamics')\n"
        "from guided_dynamics import cli\n"
        "record('from guided_dynamics import cli')\n"
        "for path in sys.argv[1:]:\n"
        "    cli.load_config(path)\n"
        "record('cli.load_config')\n",
        *(cfg(name) for name in sorted(os.listdir(CONFIGS))))
    assert len(steps) == 3
    for step, modules in steps:
        assert modules == ["guided_dynamics." + name for name in
                           ("bvp", "cauchy", "cli", "errors", "exprlang",
                            "funceq", "gds", "pconf")], step


def test_cli_import_leaves_scipy_optimize_unloaded():
    # a zero-band scan with nothing to refine needs no solver
    steps = fresh_modules(
        "from guided_dynamics.gds import Interval, zero_band_guiding\n"
        "record(zero_band_guiding(lambda t: 0.5 + t * t,\n"
        "                         Interval(-1.0, 1.0)).is_empty)\n")
    assert steps[0][0] is True
    assert "scipy.optimize" not in steps[0][1]


SCIPY_FREE_RUNS = [
    [command, "--config", cfg(config), *x0]
    for config in ("circle_irrational.json", "circle_rational.json")
    for command, x0 in (("probe", []), ("orbit", ["--x0", "0.3"]),
                        ("weak-attractor", ["--x0", "0.3"]), ("cycles", []))
] + [["overdet", "--config", cfg("jensen.json")],
     ["affine-analyze", "--config", cfg("cauchy_gamma_star.json")],
     ["affine-analyze", "--config", cfg("affine_scalar.json")]]


def test_subcommands_without_linear_algebra_leave_scipy_unloaded():
    # one interpreter runs them in turn: modules only accumulate, so a
    # step that loads SciPy is the first step that lists it
    steps = fresh_modules(
        "from guided_dynamics import cli\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.main(argv + ['--no-meta'])\n"
        "    record([argv, code])\n", json.dumps(SCIPY_FREE_RUNS))
    assert len(steps) == len(SCIPY_FREE_RUNS)
    for (argv, code), modules in steps:
        assert code != cli.NUMERIC_FAILURE_EXIT, argv
        assert not [m for m in modules if m.startswith("scipy")], argv


def test_package_names_resolve():
    import guided_dynamics as g
    assert all(getattr(g, name) is not None for name in g.__all__)
    assert g.GridFunction is g.funceq.GridFunction
    assert g.parse is g.exprlang.parse
    star = {}
    exec("from guided_dynamics import *", star)
    assert set(g.__all__) <= set(star)
    with pytest.raises(AttributeError, match="no_such_name"):
        g.no_such_name


# public functions, methods and properties that no code in src/ reaches,
# each kept for its reason
UNCALLED_PUBLIC = {
    "funceq.apply_operator": "perfbench/tracer.py wraps it by name, so "
                             "every --trace 1 run needs it",
    "cauchy.orbit_convergence_rates": "the per-step contraction ratios of "
                                      "the affine Cauchy analysis are a "
                                      "stated acceptance criterion",
    "cauchy.PropagationCloud.recompute": "the cloud's provenance: it "
                                         "replays the derivation of a "
                                         "value from its seed",
    "bvp.BvpSolution.field": "the solution u(x, y) at any point of the "
                             "domain; the CSV samples it on one lattice",
}


def test_every_public_function_has_a_caller_in_src():
    # a public function or method that only tests call is never run by
    # the report snapshots that check refactors: it is a claim no `gds`
    # run reaches
    import ast
    import inspect
    import guided_dynamics as g
    src = os.path.dirname(g.__file__)
    called, attributes = set(), set()
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        # names imported under another name (`parse as parse_expr`)
        alias = {a.asname: a.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) for a in node.names}
        # (node, name of the outermost def it sits in: a top-level
        # function or a method, if any)
        scopes = [(node, None) for node in tree.body]
        while scopes:
            node, owner = scopes.pop()
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id",
                                 getattr(node.func, "attr", None))
                callee = alias.get(callee, callee)
                if callee != owner:
                    called.add(callee)
            # a method or property is reached as `obj.name`
            if isinstance(node, ast.Attribute) and node.attr != owner:
                attributes.add(node.attr)
            if owner is None and isinstance(node, ast.FunctionDef):
                owner = node.name
            scopes.extend((child, owner)
                          for child in ast.iter_child_nodes(node))
    uncalled = set()
    for mod in ("exprlang", "gds", "funceq", "pconf", "cauchy", "bvp"):
        module = getattr(g, mod)
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj) and name not in called:
                uncalled.add(f"{mod}.{name}")
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                uncalled |= {
                    f"{mod}.{name}.{member}"
                    for member, value in vars(obj).items()
                    if not member.startswith("_")
                    and (inspect.isfunction(value) or isinstance(
                        value, (property, classmethod, staticmethod)))
                    and member not in attributes}
    assert not uncalled - UNCALLED_PUBLIC.keys(), \
        f"no caller in src/: {sorted(uncalled - UNCALLED_PUBLIC.keys())}"
    # the allowlist names only functions and methods that still need it
    assert uncalled == UNCALLED_PUBLIC.keys()


def unread_imports(root):
    """`path:line: name` for every name that a module of src/, tests/ or
    tools/ under `root` imports and never reads; names in the module's
    `__all__` and `from __future__` imports are exempt."""
    import ast
    found = []
    for folder in ("src/guided_dynamics", "tests", "tools"):
        for name in sorted(os.listdir(os.path.join(root, folder))):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(root, folder, name),
                      encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            imported, read = {}, set()
            for node in ast.walk(tree):
                if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                        getattr(node, "module", None) != "__future__":
                    for a in node.names:
                        # `import a.b` binds a
                        imported[a.asname or a.name.split(".")[0]] = \
                            node.lineno
                elif isinstance(node, ast.Name) and \
                        not isinstance(node.ctx, ast.Store):
                    read.add(node.id)
                elif isinstance(node, ast.Assign) and any(
                        getattr(t, "id", None) == "__all__"
                        for t in node.targets):
                    read |= set(ast.literal_eval(node.value))
            found += [f"{folder}/{name}:{line}: {bound}"
                      for bound, line in sorted(imported.items())
                      if bound not in read]
    return found


def test_every_imported_name_is_read():
    # no linter runs here: an import that its module never reads hides
    # what the module really depends on
    root = os.path.join(os.path.dirname(__file__), "..")
    assert unread_imports(root) == []


@pytest.mark.parametrize("command", ["orbit", "weak-attractor"])
@pytest.mark.parametrize("config,x0", [
    ("graph_chain.json", "2.7"), ("graph_chain.json", "-0.5"),
    ("graph_chain.json", "5"), ("graph_chain.json", "-3"),
    ("standard_pconf.json", "5"), ("standard_pconf.json", "-1.5")])
def test_x0_off_the_space_is_a_usage_error(capsys, command, config, x0):
    # a fraction of a node is no node, and a node past either end of the
    # graph or a point past the interval is no point of the space
    code, out, err = run(capsys, [command, "--config", cfg(config), "--x0",
                                  x0, "--no-meta"])
    assert code == 2 and out == ""
    assert err.startswith("usage error: argument --x0")


@pytest.mark.parametrize("c", ["5", "-1.5", "1.0000001"])
def test_c_off_the_interval_is_a_usage_error(capsys, c):
    # f'(c) = mu is imposed at a point of the interval [-1, 1]
    code, out, err = run(capsys, ["solve-ivp", "--config",
                                  cfg("standard_pconf.json"), "--c", c,
                                  "--no-meta"])
    assert code == 2 and out == ""
    assert err.startswith(f"usage error: argument --c: {float(c)!r} is "
                          f"not in the interval [-1.0, 1.0]")


@pytest.mark.parametrize("command", ["orbit", "weak-attractor"])
@pytest.mark.parametrize("config,x0,seed", [
    ("graph_chain.json", "1", 1.0), ("graph_chain.json", "2", 2.0),
    ("standard_pconf.json", "1", 1.0), ("standard_pconf.json", "-1", -1.0),
    ("circle_irrational.json", "-55.5", -55.5),
    ("circle_irrational.json", "100", 100.0)])
def test_x0_on_the_space_runs(capsys, command, config, x0, seed):
    # every node, both ends of an interval, and any angle of a circle
    code, out, _ = run(capsys, [command, "--config", cfg(config), "--x0",
                                x0, "--no-meta"])
    assert code in (0, 1)
    doc = json.loads(out)
    assert doc["seed" if command == "orbit" else "x0"] == seed


def test_graph_min_grid_below_two_is_a_usage_error(capsys):
    code, out, err = run(capsys, ["graph-min", "--config",
                                  cfg("circle_irrational.json"), "--grid",
                                  "1", "--no-meta"])
    assert code == 2 and out == ""
    assert err.startswith("usage error: argument --grid")
    # a graph has its own nodes and ignores the grid
    code, out, _ = run(capsys, ["graph-min", "--config",
                                cfg("graph_chain.json"), "--grid", "1",
                                "--no-meta"])
    assert code == 0 and json.loads(out)["n_nodes"] == 3
