"""CLI behaviour: exit codes, outputs, determinism, validation messages."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from shwave.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


def write_config(tmp_path, cfg, name="run.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


def run_cli(tmp_path, cfg, *extra):
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    code = main(["--config", str(cfg_path), "--output-dir", str(out), *extra])
    return code, out


def base_config(task, **kw):
    cfg = {
        "schema": "shwave-run/1",
        "profile": {"name": "exp_density",
                    "params": {"rho_inf": 1.0, "drho": 5.0, "d": 1.0}},
        "task": task,
        "output": {"basename": "run"},
    }
    cfg.update(kw)
    return cfg


def load_report(out):
    return json.loads((out / "run.json").read_text())


def test_constant_profile_modes_exit_3(tmp_path):
    cfg = base_config("modes", k=2.0)
    cfg["profile"] = {"name": "constant", "params": {"rho": 1.0, "mu": 1.0}}
    code, out = run_cli(tmp_path, cfg)
    assert code == 3
    rep = load_report(out)
    assert "nonexistence" in rep["verdict"]
    assert rep["modes"] == []


def test_modes_task_with_fixture_comparison(tmp_path):
    cfg = base_config("modes", k=1.0)
    code, out = run_cli(tmp_path, cfg, "--fixtures", str(FIXTURES))
    assert code == 0
    rep = load_report(out)
    assert len(rep["modes"]) == 2
    comp = rep["oracle_comparison"]
    assert any(row.get("status") == "compared" and row["max_rel_diff"] < 1e-6
               for row in comp)
    rows = list(csv.DictReader((out / "run.csv").open()))
    assert len(rows) == 2
    for row in rows:
        assert float(row["residual"]) <= 1e-8
        lo, hi = rep["interval"]
        assert lo < float(row["Omega"]) < hi
        assert 0 < float(row["y_bar"]) <= float(row["y_tail"])
        assert abs(float(row["omega"]) - math.sqrt(float(row["Omega"]))) < 1e-12


def test_branches_task_csv_svg(tmp_path):
    cfg = base_config("branches", k_grid=[1.0, 2.0, 3.0, 4.0])
    cfg["tolerances"] = {"omega_grid_n": 64}
    code, out = run_cli(tmp_path, cfg, "--plot")
    assert code == 0
    rep = load_report(out)
    assert rep["branches"]
    rows = list(csv.DictReader((out / "run.csv").open()))
    keys = [(float(r["k"]), int(r["mode_index"])) for r in rows]
    assert keys == sorted(keys)
    c_hi = 1.0
    for r in rows:
        ratio = float(r["omega"]) / float(r["k"])
        assert math.sqrt(1.0 / 6.0) < ratio < c_hi
    svg = (out / "run.svg").read_text()
    assert svg.startswith("<svg")
    assert svg.count("<polyline") == len(rep["branches"])


def test_malformed_table_line_number(tmp_path, capsys):
    bad = tmp_path / "table.txt"
    bad.write_text("0.0 2.0 1.0\n1.0 1.5 1.0\n0.5 1.2 1.0\n2.0 1.0 1.0\n")
    cfg = base_config("modes", k=1.0)
    cfg["profile"] = {"name": "table", "path": "table.txt",
                      "params": {"rho_inf": 1.0, "mu_inf": 1.0}}
    cfg_path = write_config(tmp_path, cfg)
    code = main(["--config", str(cfg_path), "--output-dir", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert "row 3" in err


def test_non_finite_table_value_is_config_error(tmp_path, capsys):
    (tmp_path / "table.txt").write_text("0.0 2.0 1.0\n1 nan 1\n2.0 1.0 1.0\n")
    cfg = base_config("modes", k=1.0)
    cfg["profile"] = {"name": "table", "path": "table.txt"}
    cfg_path = write_config(tmp_path, cfg)
    code = main(["--config", str(cfg_path), "--output-dir", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: table values must be finite (row 2)"]


def test_three_column_requirement(tmp_path, capsys):
    bad = tmp_path / "table.txt"
    bad.write_text("0.0 2.0 1.0\n1.0 1.0\n")
    cfg = base_config("modes", k=1.0)
    cfg["profile"] = {"name": "table", "path": "table.txt"}
    cfg_path = write_config(tmp_path, cfg)
    code = main(["--config", str(cfg_path), "--output-dir", str(tmp_path / "o")])
    assert code == 1
    assert ":2:" in capsys.readouterr().err


def test_bad_schema_and_task(tmp_path):
    code, _ = run_cli(tmp_path, {"schema": "nope", "task": "modes"})
    assert code == 1
    cfg = base_config("unknown_task")
    code, _ = run_cli(tmp_path, cfg)
    assert code == 1


def test_unknown_tolerance_key_rejected(tmp_path, capsys):
    cfg = base_config("modes", k=1.0)
    cfg["tolerances"] = {"root_tol": 1e-8, "max_step": 0.1}
    code, out = run_cli(tmp_path, cfg)
    assert code == 1
    err = capsys.readouterr().err
    assert "max_step" in err and "omega_grid_n" in err
    assert not out.exists()


@pytest.mark.parametrize("task, change", [
    ("modes", {"k": "abc"}),
    ("branches", {"k_grid": {"start": 1, "stop": 2}}),
    ("modes", {"k": 1.0, "tolerances": {"max_modes": "x"}}),
    ("modes", {"k": 1.0, "space": "z"}),
    ("classify", {"profile": {"name": "exp_density", "params": {}}}),
    ("modes", {"k": 1.0, "tolerances": {"root_tol": -1}}),
    ("modes", {"k": 1.0, "tolerances": {"max_modes": 0}}),
    ("modes", {"k": 1.0, "tolerances": {"max_modes": 2.5}}),
    ("modes", {"k": 1.0, "tolerances": {"max_modes": True}}),
    ("modes", {"k": 1.0, "tolerances": {"omega_grid_n": True}}),
    ("modes", {"k": 1.0, "tolerances": {"omega_grid_n": 64.5}}),
    ("modes", {"k": 1.0, "tolerances": {"omega_grid_n": 7}}),
    ("branches", {"k_grid": {"start": 1, "stop": 2, "num": 2.5}}),
    ("branches", {"k_grid": {"start": 1, "stop": 2, "num": True}}),
    ("modes", {"k": 1.0, "tolerances": {"root_tol": True, "rel_tol": True}}),
    ("modes", {"k": 1.0, "tolerances": {"rel_tol": math.inf}}),
    ("modes", {"k": 1.0, "tolerances": {"residual_tol": math.inf}}),
    ("modes", {"k": True}),
    ("modes", {"k": math.inf}),
    ("branches", {"k_grid": [True, 2]}),
    ("branches", {"k_grid": [1, math.inf]}),
    ("branches", {"k_grid": {"start": True, "stop": 2, "num": 3}}),
    ("modes", {"k": 1e200}),
    ("estimate", {"k": 1e200}),
    ("branches", {"k_grid": [1, 1e200]}),
], ids=["k_text", "k_grid_no_num", "max_modes_text", "space_z",
        "missing_param", "negative_root_tol", "zero_max_modes",
        "fractional_max_modes", "bool_max_modes", "bool_omega_grid_n",
        "fractional_omega_grid_n", "omega_grid_n_7", "fractional_num",
        "bool_num", "bool_tolerances", "infinite_rel_tol",
        "infinite_residual_tol", "bool_k", "infinite_k", "bool_k_grid_entry",
        "infinite_k_grid_entry", "bool_start", "k_square_overflows",
        "estimate_k_square_overflows", "k_grid_entry_square_overflows"])
def test_malformed_config_is_config_error(tmp_path, capsys, task, change):
    code, _ = run_cli(tmp_path, base_config(task, **change))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("config", [
    [base_config("classify")],
    base_config("classify", profile={"name": "exp_density",
                                     "params": {"drho": "x"}}),
    base_config("classify", profile={"name": "exp_density",
                                     "params": {"drho": None}}),
    base_config("classify", profile={"name": "exp_density",
                                     "params": [1, 2]}),
    base_config("classify", profile={"name": "table", "params": {
        "rows": [[0, 2, 1], [1, "a", 1], [2, 1, 1]]}}),
    base_config("classify", tolerances=[1]),
    base_config("classify", output={"basename": 3}),
    base_config("classify", output=["run"]),
], ids=["list_config", "text_param", "null_param", "list_params",
        "text_table_value", "list_tolerances", "number_basename",
        "list_output"])
def test_non_object_config_is_config_error(tmp_path, capsys, config):
    code, out = run_cli(tmp_path, config)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


def test_classify_task(tmp_path):
    cfg = base_config("classify")
    code, out = run_cli(tmp_path, cfg)
    assert code == 0
    rep = load_report(out)
    assert rep["classification"]["monotonicity_at_inf"] == "positive"
    assert rep["assumptions"]["integrable"]


def test_estimate_task(tmp_path):
    cfg = base_config("estimate", k=4.0)
    code, out = run_cli(tmp_path, cfg)
    rep = load_report(out)
    est = rep["estimates"][0]["estimate"]
    assert abs(est - 2 * math.sqrt(5 * 16.0) / math.pi) < 1e-6


def test_oscillation_task(tmp_path):
    cfg = base_config("oscillation")
    cfg["profile"] = {"name": "power_density",
                      "params": {"rho_inf": 1.0, "c": 3.0, "p": 1.5}}
    code, out = run_cli(tmp_path, cfg)
    rep = load_report(out)
    assert rep["oscillation"]["verdict"] == "oscillatory"


def test_determinism_across_worker_counts(tmp_path):
    cfg = base_config("branches", k_grid=[1.0, 2.0, 3.0])
    cfg["tolerances"] = {"omega_grid_n": 64}
    reports = []
    for i, workers in enumerate((1, 2)):
        cfg_path = write_config(tmp_path, cfg, "c%d.json" % i)
        out = tmp_path / ("out%d" % i)
        code = main(["--config", str(cfg_path), "--output-dir", str(out),
                     "--workers", str(workers)])
        assert code == 0
        rep = json.loads((out / "run.json").read_text())
        rep.pop("generated_at")
        reports.append(json.dumps(rep, sort_keys=True))
        csv_text = (out / "run.csv").read_text()
        reports.append(csv_text)
    assert reports[0] == reports[2]
    assert reports[1] == reports[3]


@pytest.mark.parametrize("workers", ["abc", 0, -3, True, 2.5, None])
def test_workers_must_be_positive_integer(tmp_path, capsys, workers):
    code, _ = run_cli(tmp_path, base_config("classify", workers=workers))
    assert code == 1
    assert capsys.readouterr().err.startswith(
        "error: workers must be a positive integer")


def test_workers_flag_must_be_positive_integer(tmp_path, capsys):
    cfg = base_config("classify", workers=2)
    assert run_cli(tmp_path, cfg, "--workers", "3")[0] == 0
    assert run_cli(tmp_path, cfg, "--workers", "0")[0] == 1
    assert "error: workers must be a positive integer" in capsys.readouterr().err


def test_entry_point_runs():
    # the repo's src first, so an uninstalled checkout runs too
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "shwave.cli", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "--config" in proc.stdout


def test_public_names_resolve():
    # a name dropped from the package must leave __all__ with it
    import shwave

    missing = [name for name in shwave.__all__ if not hasattr(shwave, name)]
    assert missing == []


def test_table_from_file_modes(tmp_path):
    ys = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 8.0, 12.0, 18.0, 22.0]
    lines = []
    for y in ys:
        rho = 1.0 + 5.0 * math.exp(-y) if y < 22.0 else 1.0
        lines.append("%r %r 1.0" % (y, rho))
    (tmp_path / "prof.txt").write_text("# depth density modulus\n" +
                                       "\n".join(lines) + "\n")
    cfg = base_config("modes", k=1.0)
    cfg["profile"] = {"name": "table", "path": "prof.txt",
                      "params": {"rho_inf": 1.0, "mu_inf": 1.0}}
    cfg["tolerances"] = {"omega_grid_n": 64, "rel_tol": 1e-8, "abs_tol": 1e-10,
                         "root_tol": 1e-8, "residual_tol": 1e-3}
    code, out = run_cli(tmp_path, cfg)
    assert code == 0
    rep = load_report(out)
    # coarse sampling of the exponential profile still traps modes in
    # the right neighbourhoods
    assert 1 <= len(rep["modes"]) <= 3


def test_solver_error_writes_diagnostic(tmp_path, monkeypatch):
    import shwave.cli as cli_mod
    from shwave.errors import ShwaveError

    def boom(*a, **k):
        raise ShwaveError("synthetic failure")

    monkeypatch.setattr(cli_mod, "find_modes", boom)
    cfg = base_config("modes", k=1.0)
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    code = main(["--config", str(cfg_path), "--output-dir", str(out)])
    assert code == 2
    diag = json.loads((out / "run.json").read_text())
    assert diag["error"]["message"] == "synthetic failure"


def test_missing_config_file(tmp_path, capsys):
    code = main(["--config", str(tmp_path / "nope.json")])
    assert code == 1
    assert "cannot load config" in capsys.readouterr().err


def test_branches_plot_with_no_branches(tmp_path):
    cfg = base_config("branches", k_grid=[1.0, 2.0])
    cfg["profile"] = {"name": "constant", "params": {"rho": 1.0, "mu": 1.0}}
    code, out = run_cli(tmp_path, cfg, "--plot")
    assert code == 0
    assert (out / "run.svg").read_text().startswith("<svg")
    assert load_report(out)["branches"] == []


def test_estimate_task_with_grid(tmp_path):
    cfg = base_config("estimate", k_grid=[1.0, 2.0, 4.0])
    code, out = run_cli(tmp_path, cfg)
    rep = load_report(out)
    ests = [row["estimate"] for row in rep["estimates"]]
    assert ests == sorted(ests)
    assert abs(ests[0] - 2 * math.sqrt(5.0) / math.pi) < 1e-6
