import json
import math

import pytest

from grazing_lab import cli


def test_validate_defaults():
    cfg = cli.validate_config({})
    assert cfg["experiment"] == "identities"
    assert cfg["kernel"]["gamma"] == 0.0


def test_validate_rejects_with_field_paths():
    with pytest.raises(cli.ConfigError, match="experiment"):
        cli.validate_config({"experiment": "bogus"})
    with pytest.raises(cli.ConfigError, match="kernel.gamma"):
        cli.validate_config({"kernel": {"gamma": 2.0}})
    with pytest.raises(cli.ConfigError, match="kernel.eps_list"):
        cli.validate_config({"kernel": {"eps_list": [0.5, 1.0]}})
    with pytest.raises(cli.ConfigError, match="density.components"):
        cli.validate_config({"density": {"family": "gaussian_mixture",
                                         "components": [[0.4, [0, 0, 0], [1, 1, 1]]]}})
    with pytest.raises(cli.ConfigError, match="quadrature"):
        cli.validate_config({"quadrature": {"pair_nodes": 2}})
    with pytest.raises(cli.ConfigError, match="format"):
        cli.validate_config({"format": "xml"})


def test_identities_experiment_passes(tmp_path):
    out = tmp_path / "report.json"
    report = cli.run({"experiment": "identities", "output": str(out)})
    assert report.all_pass()
    data = json.loads(out.read_text())
    assert data["metadata"]["experiment"] == "identities"
    assert data["summary"]


def test_reports_are_reproducible():
    cfg = {"experiment": "identities"}
    a = cli.run(dict(cfg))
    b = cli.run(dict(cfg))
    assert a.body_bytes() == b.body_bytes()
    # metadata carries the timestamp and is excluded from the body
    assert "timestamp" in a.metadata


def test_projection_experiment_reproducible(tmp_path):
    cfg = {"experiment": "projection", "kernel": {"gamma": -1.0},
           "params": {"lmax": 10, "n_shells": 3, "n_y": 3}}
    a = cli.run(dict(cfg))
    b = cli.run(dict(cfg))
    assert a.all_pass()
    assert a.body_bytes() == b.body_bytes()


def test_csv_output(tmp_path):
    out = tmp_path / "report.csv"
    report = cli.run({"experiment": "identities", "output": str(out), "format": "csv"})
    text = out.read_text()
    assert "# summary" in text
    assert "check,measured,threshold,verdict" in text
    # floats at 17 significant digits
    row = [l for l in text.splitlines() if l.startswith("momentum_transfer")]
    assert row and len(row[0].split(",")[2]) >= 17
    assert report.all_pass()


def test_emit_plot_data_limit_check():
    report = cli.Report(metadata={"experiment": "limit_check"})
    report.rows = [{"eps": 1.0, "q_boltz": -1.0, "q_landau": -1.1, "abs_err": 0.1, "psi": 0},
                   {"eps": 0.5, "q_boltz": -1.05, "q_landau": -1.1, "abs_err": 0.05, "psi": 0}]
    report.summary = [{"check": "x", "measured": 0.0, "threshold": 1.0, "verdict": "pass"}]
    text = cli.emit_plot_data(report)
    lines = text.strip().splitlines()
    assert lines[0] == "x,y,series"
    assert len(lines) == 3
    assert "abs_err_psi0" in lines[1]


def test_emit_plot_data_dissipation():
    report = cli.Report(metadata={"experiment": "dissipation_study"})
    report.rows = [{"eps": 1.0, "D_B_eps": 8.0, "D_L": 9.0}]
    report.summary = []
    text = cli.emit_plot_data(report)
    assert "D_B_eps" in text and "D_L" in text


def test_emit_plot_data_identities_summary_only():
    report = cli.Report(metadata={"experiment": "identities"})
    report.summary = [{"check": "x", "measured": 0.0, "threshold": 1.0, "verdict": "pass"}]
    text = cli.emit_plot_data(report)
    assert text.strip() == "x,y,series"


def test_emit_plot_data_empty_report_errors():
    with pytest.raises(ValueError, match="empty report"):
        cli.emit_plot_data(cli.Report(metadata={}))


def test_main_validate(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"experiment": "identities"}))
    assert cli.main(["validate", "--config", str(cfg)]) == 0
    cfg.write_text(json.dumps({"experiment": "nope"}))
    assert cli.main(["validate", "--config", str(cfg)]) == 2
    assert cli.main(["validate", "--config", str(tmp_path / "missing.json")]) == 2


def test_main_run_exit_codes(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"experiment": "identities"}))
    assert cli.main(["run", "--config", str(cfg)]) == 0

    # the log-cutoff kernel genuinely fails the fixed-eps transfer identity,
    # so the identities suite reports a failed check and exits nonzero
    cfg.write_text(json.dumps({
        "experiment": "identities",
        "kernel": {"gamma": -3.0, "nu": 2.0, "variant": "coulomb_log_cutoff",
                   "epsilon": 0.5},
        "params": {"transfer_eps": [0.5, 0.25]},
    }))
    code = cli.main(["run", "--config", str(cfg)])
    assert code == 1


def test_main_writes_requested_output(tmp_path):
    cfg = tmp_path / "c.json"
    out = tmp_path / "r.json"
    cfg.write_text(json.dumps({"experiment": "identities"}))
    assert cli.main(["run", "--config", str(cfg), "--output", str(out)]) == 0
    assert json.loads(out.read_text())["summary"]


def test_add_check_fails_non_finite():
    report = cli.Report(metadata={})
    report.add_check("nan", float("nan"), 1.0, True)
    report.add_check("inf", float("inf"), 1.0, True)
    report.add_check("finite", 0.5, 1.0, True)
    assert [s["verdict"] for s in report.summary] == ["fail", "fail", "pass"]


def test_worst_propagates_nan():
    nan = float("nan")
    assert cli._worst(max, 0.0, 2.0) == 2.0
    assert cli._worst(min, float("inf"), 2.0) == 2.0
    # Python's own max(0.0, nan) is 0.0 and would hide the NaN
    assert math.isnan(cli._worst(max, 0.0, nan))
    assert math.isnan(cli._worst(min, float("inf"), nan))
    assert math.isnan(cli._worst(max, 1.0, nan, 0.5))


def test_metric_affine_landau_rows_have_positive_action():
    report = cli.run({"experiment": "metric_affine",
                      "quadrature": {"pair_nodes": 5, "theta_panels": 1,
                                     "theta_nodes_per_panel": 4, "sphere_phi_nodes": 4},
                      "params": {"n_pairs": 4}})
    landau = [row for row in report.rows if row["kind"] == "landau"]
    assert len(landau) == 2
    assert all(row["action"] > 0.0 for row in landau)
    assert all(row["ok"] == "pass" for row in report.rows)
