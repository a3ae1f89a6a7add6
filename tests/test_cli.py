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


@pytest.mark.parametrize("kernel, field", [
    ({"eps_list": [4.0, 0.5, 0.25]}, r"kernel.eps_list\[0\]"),
    ({"eps_list": [1.0, 0.5, -0.1]}, r"kernel.eps_list\[2\]"),
    ({"epsilon": 0.0}, "kernel.epsilon"),
    ({"epsilon": 3.5}, "kernel.epsilon"),
    ({"gamma": -3.0, "nu": 2.0, "variant": "coulomb_log_cutoff", "epsilon": 1.0},
     "kernel.epsilon"),
    ({"gamma": -3.0, "nu": 2.0, "variant": "coulomb_log_cutoff", "epsilon": 0.5,
      "eps_list": [0.9, 0.5, 0.0]}, r"kernel.eps_list\[2\]"),
])
def test_validate_rejects_eps_outside_variant_range(kernel, field):
    with pytest.raises(cli.ConfigError, match=field):
        cli.validate_config({"experiment": "dissipation_study", "kernel": kernel})


def test_validate_limit_check_needs_three_eps(tmp_path):
    short = {"experiment": "limit_check", "kernel": {"eps_list": [1.0, 0.5]}}
    with pytest.raises(cli.ConfigError, match="kernel.eps_list"):
        cli.validate_config(short)
    cli.validate_config({**short, "experiment": "dissipation_study"})
    cli.validate_config({**short, "kernel": {"eps_list": [1.0, 0.5, 0.25]}})
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(short))
    assert cli.main(["validate", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("component", [
    [1.0, [0.0, 0.0], [1.0, 1.0, 1.0]],
    [1.0, [float("nan"), 0.0, 0.0], [1.0, 1.0, 1.0]],
    [1.0, [0.0, 0.0, 0.0], [1.0, float("inf"), 1.0]],
    [1.0, [0.0, 0.0, 0.0], [1.0, 1.0]],
    [1.0, [0.0, 0.0, 0.0]],
    [float("nan"), [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]],
    ["1.0", [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]],
])
def test_validate_rejects_components_that_cannot_run(component, tmp_path):
    """A weight that is not finite, or a mean or covariance diagonal that is
    not 3 finite numbers, is refused with the component named, and `validate`
    exits 2."""
    config = {"density": {"family": "gaussian_mixture", "components": [component]}}
    with pytest.raises(cli.ConfigError, match=r"density\.components\[0\]"):
        cli.validate_config(config)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    assert cli.main(["validate", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("density, field", [
    ({"temperature": -1}, r"density\.temperature"),
    ({"temperature": 0.0}, r"density\.temperature"),
    ({"temperature": "hot"}, r"density\.temperature"),
    ({"temperature": "1.5"}, r"density\.temperature"),
    ({"temperature": float("inf")}, r"density\.temperature"),
    ({"mean": [0, 0]}, r"density\.mean"),
    ({"mean": [float("nan"), 0, 0]}, r"density\.mean"),
    ({"mean": ["0", "0", "0"]}, r"density\.mean"),
])
def test_validate_rejects_maxwellians_that_cannot_run(density, field, tmp_path):
    """A maxwellian mean that is not 3 finite numbers, or a temperature that
    is not a finite number > 0, is refused with the field named, and
    `validate` exits 2; a valid one builds."""
    config = {"density": {"family": "maxwellian", **density}}
    with pytest.raises(cli.ConfigError, match=field):
        cli.validate_config(config)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    assert cli.main(["validate", "--config", str(cfg)]) == 2
    ok = cli.validate_config({"density": {"family": "maxwellian", "mean": [1, 0, 0],
                                          "temperature": 2}})
    assert cli.build_density(ok).cov_diags.tolist() == [[2.0, 2.0, 2.0]]


@pytest.mark.parametrize("name", ["pair_nodes", "theta_nodes_per_panel", "sphere_phi_nodes"])
def test_validate_rejects_node_counts_without_a_coarse_level(name):
    """coarsened() floors node counts at 4, so at 4 a pair sweep's coarse
    level is its fine level and its error estimate reads exactly 0; such a
    spec is refused with the field named, and 5 is accepted."""
    with pytest.raises(cli.ConfigError, match=rf"quadrature\.{name}"):
        cli.validate_config({"quadrature": {name: 4}})
    cli.validate_config({"quadrature": {name: 5}})


@pytest.mark.parametrize("config, field", [
    ({"experiment": "compactness", "params": {"s_eps_grid": [1.0, 0.5]}},
     r"params\.s_eps_grid"),
    ({"experiment": "compactness", "params": {"z_grid": []}}, r"params\.z_grid"),
    ({"experiment": "compactness", "params": {"avg_eps_grid": []}}, r"params\.avg_eps_grid"),
    ({"experiment": "compactness", "params": {"xi_norms": []}}, r"params\.xi_norms"),
    ({"experiment": "compactness", "params": {"seminorm_eps_grid": [0.5]}},
     r"params\.seminorm_eps_grid"),
    ({"experiment": "metric_affine", "params": {"n_pairs": 0}}, r"params\.n_pairs"),
    ({"experiment": "limit_check", "testfns": []}, "testfns"),
    ({"experiment": "metric_affine", "testfns": []}, "testfns"),
])
def test_validate_rejects_summary_lines_that_cannot_fail(config, field):
    """Grids that would leave a summary line measuring 0.0 (or a report with
    no verdict) are refused, naming the field; the defaults pass."""
    with pytest.raises(cli.ConfigError, match=field):
        cli.validate_config(config)
    cli.validate_config({"experiment": config["experiment"]})


def test_validate_rejects_removed_quadrature_fields(tmp_path):
    """QuadratureSpec has no velocity_rule or half_width; a config that sets
    either is refused under `quadrature`."""
    for extra in ({"velocity_rule": "gauss_legendre"}, {"half_width": 8.0}):
        with pytest.raises(cli.ConfigError, match="quadrature"):
            cli.validate_config({"quadrature": extra})
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"quadrature": {"velocity_rule": "gauss_hermite"}}))
    assert cli.main(["validate", "--config", str(cfg)]) == 2


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
                                     "theta_nodes_per_panel": 5, "sphere_phi_nodes": 5},
                      "params": {"n_pairs": 4}})
    landau = [row for row in report.rows if row["kind"] == "landau"]
    assert len(landau) == 2
    assert all(row["action"] > 0.0 for row in landau)
    assert all(row["ok"] == "pass" for row in report.rows)


def test_compactness_report_is_strict_json():
    """Every value of a compactness report is finite, so to_json needs none
    of the non-JSON constants NaN/Infinity; the truncation constant is checked
    against its closed form."""
    report = cli.run({"experiment": "compactness",
                      "kernel": {"gamma": -1.0, "kinetic_cutoff": True},
                      "quadrature": {"pair_nodes": 5, "theta_panels": 1,
                                     "theta_nodes_per_panel": 5, "sphere_phi_nodes": 5},
                      "params": {"z_grid": [0.5, 2.0], "s_eps_grid": [0.5, 1e-3],
                                 "avg_eps_grid": [1.0], "xi_norms": [1.0],
                                 "fourier_n": 128, "seminorm_eps_grid": [1.0, 0.5]}})

    def reject(name):
        raise ValueError(f"non-JSON constant {name}")

    body = json.loads(report.to_json(), parse_constant=reject)
    trunc = [s for s in body["summary"] if s["check"].startswith("truncation constant")]
    assert len(trunc) == 1 and trunc[0]["verdict"] == "pass"



def test_compactness_seminorm_ratio_line_is_a_bound():
    """The seminorm/(D_B+1) line measures max/min of the ratio over the eps
    sweep against the fixed bound 2, so its verdict depends on the sweep."""
    report = cli.run({"experiment": "compactness",
                      "kernel": {"gamma": -1.0, "kinetic_cutoff": True},
                      "quadrature": {"pair_nodes": 5, "theta_panels": 1,
                                     "theta_nodes_per_panel": 5, "sphere_phi_nodes": 5},
                      "params": {"z_grid": [0.5], "s_eps_grid": [1e-3], "avg_eps_grid": [1.0],
                                 "xi_norms": [1.0], "fourier_n": 128,
                                 "seminorm_eps_grid": [1.0, 0.25]}})
    ratios = [row["ratio"] for row in report.rows if row["quantity"] == "seminorm_ratio"]
    line = [s for s in report.summary if s["check"].startswith("seminorm/(D_B+1)")]
    assert len(ratios) == 2 and len(line) == 1
    assert line[0]["measured"] == max(ratios) / min(ratios)
    assert line[0]["threshold"] == 2.0
    assert line[0]["verdict"] == ("pass" if max(ratios) / min(ratios) < 2.0 else "fail")

def test_to_json_rejects_nan():
    report = cli.Report(metadata={})
    report.add_check("nan", float("nan"), 1.0, True)
    with pytest.raises(ValueError):
        report.to_json()
