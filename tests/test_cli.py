import csv
import dataclasses
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from grazing_lab import cli
from grazing_lab import kernels as kn
from grazing_lab import operators as op
from grazing_lab.quadrature import IntegralResult


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
])
def test_validate_rejects_eps_outside_variant_range(kernel, field):
    with pytest.raises(cli.ConfigError, match=field):
        cli.validate_config({"experiment": "dissipation_study", "kernel": kernel})


@pytest.mark.parametrize("exp", list(cli._EXPERIMENTS))
def test_validate_refuses_other_kernel_variants(exp, tmp_path):
    """Every verdict is written for the rescaled kernel, so kernel.variant
    has one value, 'rescaled': any other is refused in every experiment,
    naming kernel.variant, before the kernel is built."""
    kernel = {"nu": 2.0, "variant": "coulomb_log_cutoff", "epsilon": 0.5}
    with pytest.raises(cli.ConfigError, match=r"^kernel\.variant: must be 'rescaled', "
                                              r"got 'coulomb_log_cutoff'$"):
        cli.validate_config({"experiment": exp, "kernel": kernel})
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"experiment": exp, "kernel": kernel}))
    assert cli.main(["validate", "--config", str(cfg)]) == 2
    cli.validate_config({"experiment": exp, "kernel": {"variant": "rescaled"}})


@pytest.mark.parametrize("exp", ["limit_check", "dissipation_study"])
def test_validate_refuses_kinetic_cutoff_in_eps_studies(exp, tmp_path):
    """Both eps-sweep studies compare the Boltzmann side with a Landau side
    that weights each pair by |v - v*|^(2+gamma) and never reads the kinetic
    cutoff, so under the cutoff the two sides meet no common limit: refused,
    naming kernel.kinetic_cutoff. compactness still requires the cutoff,
    and the other experiments keep accepting it."""
    kernel = {"gamma": -1.0, "kinetic_cutoff": True}
    with pytest.raises(cli.ConfigError, match=r"kernel\.kinetic_cutoff"):
        cli.validate_config({"experiment": exp, "kernel": kernel})
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"experiment": exp, "kernel": kernel}))
    assert cli.main(["validate", "--config", str(cfg)]) == 2
    cli.validate_config({"experiment": exp, "kernel": {**kernel, "kinetic_cutoff": False}})
    for other in ("identities", "metric_affine", "projection", "compactness"):
        cli.validate_config({"experiment": other, "kernel": kernel})


def test_cli_import_leaves_scipy_special_unimported():
    """Only a SphereTransform reads scipy.special, so importing the command
    line module does not pay for it."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys, grazing_lab.cli; assert 'scipy.special' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})


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
    # a polynomial or DS psi whose form is c I has dbar psi = 0 at every collision
    ({"experiment": "limit_check", "testfns": [{"kind": "DS", "support": {"delta": 0.4, "R": 5.0}}]},
     r"testfns\[0\]: its quadratic form is a multiple of I"),
    ({"experiment": "limit_check",
      "testfns": [{"kind": "poly", "quad": [[0, 0, 0], [0, 0, 0], [0, 0, 1.0]]},
                  {"kind": "poly", "const": 1.0, "linear": [1.0, 0, 0],
                   "quad": [[2.0, 0, 0], [0, 2.0, 0], [0, 0, 2.0]]}]},
     r"testfns\[1\]: its quadratic form"),
    ({"experiment": "limit_check", "testfns": [{"kind": "poly", "linear": [0, 0, 1.0]}]},
     r"testfns\[0\]: its quadratic form"),
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


GAUSSIAN = {"kind": "gaussian", "const": 1.0, "quad": [[0, 0, 0], [0, 0, 0], [0, 0, 1.0]]}
DS = {"kind": "DS", "support": {"delta": 0.4, "R": 5.0}}
AS = {"kind": "AS", "support": {"delta": 0.4, "R": 5.0}}


def test_limit_check_accepts_a_form_whose_dbar_lives():
    """Only a form c I is refused: a polynomial with a form that is not a
    multiple of I, and a Gaussian whose form is I (its envelope moves with
    the collision), pass `validate`; so does a c I polynomial in
    metric_affine, which does not pair it with the Landau value."""
    poly_iso = {"kind": "poly", "quad": [[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]]}
    cli.validate_config({"experiment": "limit_check",
                         "testfns": [{"kind": "poly", "quad": [[1.0, 0, 0], [0, 1.0, 0],
                                                               [0, 0, 2.0]]},
                                     {**poly_iso, "kind": "gaussian"}]})
    cli.validate_config({"experiment": "metric_affine", "testfns": [poly_iso]})


@pytest.mark.parametrize("config, field", [
    # fields the experiment's defaults do not name
    ({"experimnt": "compactness"}, "experimnt"),
    ({"kernel": {"eps_lst": [1.0, 0.5]}}, r"kernel\.eps_lst"),
    ({"density": {"components": [[1.0, [0, 0, 0], [1, 1, 1]]], "weights": [1.0]}},
     r"density\.weights"),
    ({"quadrature": {"pair_node": 6}}, r"quadrature\.pair_node"),
    ({"experiment": "metric_affine", "params": {"n_pair": 4}}, r"params\.n_pair"),
    ({"experiment": "compactness", "params": {"n_pairs": 4}}, r"params\.n_pairs"),
    ({"experiment": "limit_check", "params": {"samples": 10}}, r"params\.samples"),
    # values unlike their default, or outside what the run accepts
    ({"kernel": 0.5}, "kernel: must be an object"),
    ([], "config: must be an object"),
    ({"testfns": 5}, "testfns: must be a list"),
    ({"kernel": {"gamma": "abc"}}, r"kernel\.gamma"),
    ({"kernel": {"nu": None}}, r"kernel\.nu"),
    ({"kernel": {"epsilon": [0.5]}}, r"kernel\.epsilon"),
    ({"kernel": {"eps_list": ["a"]}}, r"kernel\.eps_list"),
    ({"kernel": {"eps_list": 0.5}}, r"kernel\.eps_list"),
    ({"kernel": {"kinetic_cutoff": "no"}}, r"kernel\.kinetic_cutoff"),
    ({"kernel": {"family": "tabulated"}}, r"kernel\.family"),
    ({"experiment": "compactness", "kernel": {"kinetic_cutoff": False}},
     r"kernel\.kinetic_cutoff"),
    ({"experiment": "dissipation_study", "kernel": {"eps_list": []}}, r"kernel\.eps_list"),
    ({"experiment": "metric_affine", "params": {"n_pairs": "x"}}, r"params\.n_pairs"),
    ({"experiment": "identities", "params": {"transfer_eps": [0.5, None]}},
     r"params\.transfer_eps"),
    ({"experiment": "projection", "params": {"as_matrix": [[1.0, 0.0], [0.0, 1.0]]}},
     r"params\.as_matrix"),
    ({"experiment": "compactness", "params": {"fourier_n": float("nan")}},
     r"params\.fourier_n"),
    # test functions the run could not build, or a non-DS dissipation one
    ({"experiment": "limit_check", "testfns": [{"kind": "bogus"}]}, r"testfns\[0\]"),
    ({"experiment": "limit_check", "testfns": [GAUSSIAN, {**GAUSSIAN, "widht": 4.0}]},
     r"testfns\[1\]"),
    ({"experiment": "metric_affine",
      "testfns": [{**GAUSSIAN, "quad": [[0, 1, 0], [0, 0, 0], [0, 0, 1.0]]}]}, r"testfns\[0\]"),
    ({"experiment": "dissipation_study", "ds_testfns": [GAUSSIAN]}, r"ds_testfns\[0\]"),
    ({"experiment": "dissipation_study",
      "ds_testfns": [{"kind": "DS", "support": {"delta": 5.0, "R": 0.4}}]},
     r"ds_testfns\[0\]"),
    # the final-gap verdict reads the last two rows
    ({"experiment": "dissipation_study", "kernel": {"eps_list": [0.5]}},
     r"kernel\.eps_list: dissipation_study needs at least 2"),
    # the report path: a boolean would open file descriptor 1 and close stdout
    ({"output": True}, r"^output: must be a string or null, got True"),
    ({"output": 7}, r"^output: must be a string or null, got 7"),
    ({"output": ["a"]}, r"^output: must be a string or null, got \['a'\]"),
    # json.load reads Infinity; a bump whose support or y ball is infinite
    # would run the whole study and fail only on writing its report
    ({"experiment": "dissipation_study", "ds_testfns": [{**DS, "y_radius": float("inf")}]},
     r"ds_testfns\[0\]: y_radius must be a finite number"),
    ({"experiment": "dissipation_study",
      "ds_testfns": [{"kind": "DS", "support": {"delta": 0.4, "R": float("inf")}}]},
     r"ds_testfns\[0\]: support\.R must be a finite number"),
    ({"experiment": "dissipation_study",
      "ds_testfns": [{"kind": "DS", "support": {"delta": float("-inf"), "R": 5.0}}]},
     r"ds_testfns\[0\]: support\.delta must be a finite number"),
    ({"experiment": "limit_check",
      "testfns": [{"kind": "Cc_single", "support": {"delta": 0.1, "R": float("inf")}}]},
     r"testfns\[0\]: support\.R must be a finite number"),
])
def test_validate_refuses_with_the_field_named(config, field, tmp_path):
    """The experiment's defaults are the schema: a field they do not name, a
    value unlike its default, and a test-function entry the run could not
    build are refused with the dotted path named and exit status 2, never a
    traceback."""
    with pytest.raises(cli.ConfigError, match=field):
        cli.validate_config(config)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    assert cli.main(["validate", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("config, field", [
    ({"kernel": {"nu": 2.0}}, r"kernel\.nu"),
    ({"params": {"transfer_eps": [5.0]}}, r"params\.transfer_eps\[0\]"),
    ({"params": {"transfer_eps": [0.0]}}, r"params\.transfer_eps\[0\]"),
    ({"experiment": "compactness", "params": {"s_eps_grid": [5.0, 1e-3]}},
     r"params\.s_eps_grid\[0\]"),
    ({"experiment": "compactness", "params": {"avg_eps_grid": [1.0, 0.0]}},
     r"params\.avg_eps_grid\[1\]"),
    ({"experiment": "compactness", "params": {"seminorm_eps_grid": [5.0, 1.0]}},
     r"params\.seminorm_eps_grid\[0\]"),
    ({"experiment": "compactness", "params": {"avg_eps_grid": [1.0, 2.0]}},
     r"params\.avg_eps_grid\[1\]"),
    ({"experiment": "projection", "params": {"n_shells": 0}}, r"params\.n_shells"),
    ({"experiment": "identities", "params": {"samples": 0}}, r"params\.samples"),
    ({"experiment": "compactness", "params": {"cutoff_R": -1.0}}, r"params\.cutoff_R"),
    ({"experiment": "compactness", "params": {"cutoff_R": 7.5}}, r"params\.cutoff_R: grid"),
    ({"experiment": "compactness", "params": {"fourier_n": 1}}, r"params\.fourier_n"),
    ({"experiment": "compactness", "params": {"fourier_half_width": 0.0}},
     r"params\.fourier_half_width"),
    ({"experiment": "projection", "params": {"delta": 5.0, "R": 4.0}}, r"params\.delta"),
    ({"experiment": "projection", "params": {"R": -1.0}}, r"params\.R"),
    ({"experiment": "projection", "params": {"y_radius": -3.0}}, r"params\.y_radius"),
    ({"experiment": "projection", "params": {"ds_x_quad": [[1.0, 0.5, 0], [0, 1.0, 0], [0, 0, 1.0]]}},
     r"params\.ds_x_quad"),
    # test-function fields the run would misread or fail on mid-sweep
    ({"experiment": "limit_check", "testfns": [{**GAUSSIAN, "center": [0, 0]}]},
     r"testfns\[0\]: center"),
    ({"experiment": "limit_check", "testfns": [{**GAUSSIAN, "const": float("nan")}]},
     r"testfns\[0\]: const"),
    ({"experiment": "limit_check", "testfns": [{**GAUSSIAN, "width": -2.0}]},
     r"testfns\[0\]: width"),
    ({"experiment": "limit_check", "testfns": [{**GAUSSIAN, "width": float("inf")}]},
     r"testfns\[0\]: width"),
    ({"experiment": "limit_check", "testfns": [{**GAUSSIAN, "width": 0.0}]},
     r"testfns\[0\]: width"),
    ({"experiment": "limit_check", "testfns": [{"kind": "poly", "linear": [1.0, 2.0]}]},
     r"testfns\[0\]: linear"),
    ({"experiment": "limit_check", "testfns": [{**GAUSSIAN, "width": 1e200}]},
     r"testfns\[0\]: width"),
    ({"experiment": "limit_check", "testfns": [{**GAUSSIAN, "width": 1e-100}]},
     r"testfns\[0\]: width"),
    ({"experiment": "dissipation_study",
      "ds_testfns": [{**DS, "modulation": {"const": float("nan")}}]}, r"ds_testfns\[0\]: const"),
    ({"experiment": "limit_check", "testfns": [{**DS, "modulation": {"const": float("nan")}}]},
     r"testfns\[0\]: const"),
    ({"experiment": "limit_check",
      "testfns": [{**AS, "modulation": {"matrix": [[float("nan"), 0, 0], [0, 1, 0], [0, 0, 1]]}}]},
     r"testfns\[0\]: matrix"),
    ({"experiment": "limit_check", "testfns": [{**AS, "modulation": {"matrix": [1, 2]}}]},
     r"testfns\[0\]: matrix"),
    # a vector field where the experiments pair a scalar test function
    ({"experiment": "limit_check", "testfns": [AS]}, r"testfns\[0\]: kind 'AS'"),
    ({"experiment": "metric_affine", "testfns": [GAUSSIAN, AS]}, r"testfns\[1\]: kind 'AS'"),
])
def test_validate_refuses_what_the_run_would_refuse(config, field, tmp_path):
    """`validate` builds the density, the kernel, every test function, the
    projection's shell grid and bumps, and the compactness cut density and
    Fourier box as the run does, and sets the kernel to every eps the
    experiment passes it, so a config the run would refuse, misread or fail
    on is refused before it starts, naming the field, exit 2."""
    with pytest.raises(cli.ConfigError, match=field):
        cli.validate_config(config)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    assert cli.main(["validate", "--config", str(cfg)]) == 2
    assert cli.main(["run", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("config, field", [
    ({"experiment": "projection", "params": {"lmax": 16.7}}, r"params\.lmax"),
    ({"experiment": "dissipation_study",
      "ds_testfns": [{"kind": "DS", "support": {"delta": 0.4, "R": 5.0},
                      "modulation": {"const": 0.0, "x_qaud": [[1.0, 0, 0], [0, 1.0, 0], [0, 0, -2.0]]}}]},
     r"ds_testfns\[0\]: modulation\.x_qaud"),
    ({"quadrature": {"velocity_nodes": 20}}, r"quadrature\.velocity_nodes"),
])
def test_validate_refuses_what_the_run_would_misread(config, field, tmp_path):
    """A count that is not an integer, a modulation key the test function
    does not read, and `quadrature.velocity_nodes`, which no experiment
    reads, would each be truncated or ignored by the run; `validate` refuses
    them, naming the field, exit 2."""
    with pytest.raises(cli.ConfigError, match=field):
        cli.validate_config(config)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    assert cli.main(["validate", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("seed", [1, 7])
def test_benchmark_workload_configs_validate(seed, monkeypatch):
    """Every config the benchmark runs passes `validate`."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    for name in workloads.WORKLOADS:
        for config in workloads.configs(name, seed):
            cli.validate_config(config)


def test_metadata_echoes_every_default():
    """Omitted fields, params and the eps sweep included, are filled from the
    experiment's defaults and echoed into the report metadata."""
    report = cli.run({"experiment": "identities", "params": {"transfer_eps": [1.0]}})
    params = report.metadata["config"]["params"]
    assert params["transfer_eps"] == [1.0] and params["samples"] > 0
    assert set(params) == {"samples", "transfer_eps"}
    assert len(report.metadata["config"]["quadrature"]) == 5
    study = cli.validate_config({"experiment": "dissipation_study"})
    assert len(study["kernel"]["eps_list"]) == 8 and study["params"] == {}


def test_identities_experiment_passes(tmp_path):
    out = tmp_path / "report.json"
    report = cli.run({"experiment": "identities", "output": str(out)})
    assert report.all_pass()
    data = json.loads(out.read_text())
    assert data["metadata"]["experiment"] == "identities"
    assert data["summary"]


def test_identities_catches_a_shifted_post_collision_velocity(monkeypatch):
    """identities checks the frame the sweeps run: 1e-9 added to every v'
    in CollisionNode._post fails the conservation and x'/y' checks."""
    verdicts = {s["check"]: s["verdict"] for s in cli.run({"experiment": "identities"}).summary}
    assert set(verdicts.values()) == {"pass"}

    post = op.CollisionNode.__dict__["_post"].func

    def shifted(node):
        vp, vsp = post(node)
        return vp + 1e-9, vsp

    monkeypatch.setattr(op.CollisionNode, "_post", property(shifted))
    report = cli.run({"experiment": "identities"})
    verdicts = {s["check"]: s["verdict"] for s in report.summary}
    assert verdicts["collision conservation (relative)"] == "fail"
    assert verdicts["x' = |x| sigma and y' = y"] == "fail"
    assert not report.all_pass()


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


@pytest.mark.parametrize("config", [
    {"experiment": "projection", "params": {"n_shells": 2, "n_y": 3, "lmax": 4}},
    {"experiment": "compactness", "quadrature": {"pair_nodes": 5}},
], ids=["projection", "compactness"])
def test_csv_output_of_mixed_rows(config, tmp_path):
    """Both experiments write rows of more than one shape: the header holds
    every key, a row lacking one leaves its cell empty, and both tables read
    back with one record per report row or summary line."""
    out = tmp_path / "report.csv"
    report = cli.run({**config, "output": str(out), "format": "csv"})
    lines = out.read_text().splitlines()
    cut = lines.index("# summary")
    rows = list(csv.DictReader(line for line in lines[:cut] if not line.startswith("# ")))
    summary = list(csv.DictReader(lines[cut + 1:]))
    assert len(rows) == len(report.rows) and len(summary) == len(report.summary)
    for got, row in zip(rows, report.rows):
        assert {k for k, v in got.items() if v} == set(row)
    assert [s["check"] for s in summary] == [s["check"] for s in report.summary]


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


STUDY_TAIL = {"experiment": "dissipation_study", "kernel": {"eps_list": [1e-4, 1e-5]},
              "quadrature": {"pair_nodes": 6, "theta_panels": 2, "theta_nodes_per_panel": 8,
                             "sphere_phi_nodes": 8}}


def _shift_landau(landau_pieces):
    # _landau_pieces is the study's one Landau pass per quadrature level
    def shifted(*args):
        out = landau_pieces(*args)
        return {**out, "D_L": out["D_L"] + 1e-9}
    return shifted


def _shift_identity(study_pieces, by=1e-9):
    # _study_pieces sweeps every eps of the study at once, one dict per eps
    def shifted(*args):
        return [{**out, "D_id": out["D_id"] + by} for out in study_pieces(*args)]
    return shifted


def _shift_identity_1e12(study_pieces):
    return _shift_identity(study_pieces, 1e-12)


def _shift_reduced(study_pieces):
    def shifted(*args):
        return [{**out, "D_R": out["D_R"] + 1e-9} for out in study_pieces(*args)]
    return shifted


@pytest.mark.parametrize("target,shift,check", [
    ("_landau_pieces", _shift_landau,
     "final gap follows the eps^2 law within quadrature error x10"),
    ("_study_pieces", _shift_identity,
     "|D_B_eps - D_B^id| within quadrature error x10 at every eps"),
    ("_study_pieces", _shift_reduced, "chain 0 <= affine <= D_B^R <= D_B_eps at every eps"),
    ("_study_pieces", _shift_identity_1e12,
     "|D_B_eps - D_B^id| within quadrature error x10 at every eps"),
], ids=["eps2_law", "identity", "chain", "identity_1e-12"])
def test_dissipation_study_verdicts_can_fail(monkeypatch, target, shift, check):
    """On the pinned Gaussian the eps^2-law verdict on the last two gaps, the
    two-route D_B verdict and the chain pass; D_L, D_B^id or D_B^R moved by
    1e-9 fails them. At eps = 1e-5 the gap is (9/28) eps^2 = 3.2e-11, which
    the quadrature resolves to ~1e-14, so no error estimate can excuse it;
    D_B^R and D_B agree to O(eps^3) there, well inside the chain's additive
    1e-10. D_B^id, whose angular integral is closed-form, meets D_B to
    roundoff with an error estimate of the same size, so a 1e-12 move fails
    the two-route line too."""
    from grazing_lab import dissipation as dp

    def verdict():
        return {s["check"]: s["verdict"] for s in cli.run(STUDY_TAIL).summary}[check]

    assert verdict() == "pass"
    monkeypatch.setattr(dp, target, shift(getattr(dp, target)))
    assert verdict() == "fail"


MAXWELLIAN_STUDY = {"experiment": "dissipation_study", "density": {"family": "maxwellian"},
                    "kernel": {"eps_list": [1.0, 0.5, 0.25]}, "quadrature": {"pair_nodes": 5}}


def test_dissipation_study_passes_on_a_maxwellian():
    """At equilibrium every D_B and D_L is roundoff, |Pi G|^2 included, and
    each summary line passes; the affine_landau line shows the threshold it
    applies, D_L + 10 err + 1e-10, not D_L."""
    report = cli.run(MAXWELLIAN_STUDY)
    assert [s["verdict"] for s in report.summary] == ["pass"] * len(report.summary)
    assert all(0.0 <= row["D_L"] < 1e-25 for row in report.rows)
    line = next(s for s in report.summary if s["check"] == "affine_landau(psi0) <= D_L")
    assert line["threshold"] >= report.rows[0]["D_L"] + 1e-10


def test_dissipation_study_chain_reports_its_worst_margin(monkeypatch):
    """The chain line measures the largest violation over rows of
    0 <= affine <= D_B^R + tol and D_B^R <= D_B + tol, against 0: negative
    on the pinned Gaussian, and the 1e-9 shift of D_B^R less the row's
    slack once D_B^R is moved past D_B."""
    from grazing_lab import dissipation as dp

    def chain(report):
        return next(s for s in report.summary if s["check"].startswith("chain"))

    before = cli.run(STUDY_TAIL)
    slack = min(row["D_B_eps"] - row["D_B_R"] for row in before.rows)
    line = chain(before)
    assert line["threshold"] == 0.0 and line["verdict"] == "pass"
    assert -1e-9 < line["measured"] < 0.0
    monkeypatch.setattr(dp, "_study_pieces", _shift_reduced(dp._study_pieces))
    line = chain(cli.run(STUDY_TAIL))
    assert line["verdict"] == "fail"
    assert line["measured"] == pytest.approx(1e-9 - slack - 1e-10, rel=1e-3)


def test_dissipation_study_growing_gap_fails(monkeypatch):
    """A gap of roundoff that grows by 1e-12 at the last eps is far above the
    step tolerance the Maxwellian's errors allow (~1e-29), and the line
    reports that step's rise against its tolerance."""
    from grazing_lab import dissipation as dp

    study_pieces = dp._study_pieces

    def shifted(f, kernels, spec, psis):
        outs = study_pieces(f, kernels, spec, psis)
        for kernel, out in zip(kernels, outs):
            if kernel.angular.epsilon == 0.25:
                out["D_B"] += 1e-12
        return outs

    monkeypatch.setattr(dp, "_study_pieces", shifted)
    line = next(s for s in cli.run(MAXWELLIAN_STUDY).summary
                if s["check"] == "|D_B_eps - D_L| decreasing along sweep")
    assert line["verdict"] == "fail"
    assert line["measured"] == pytest.approx(1e-12, rel=1e-3)
    assert line["threshold"] < 1e-20


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


def test_main_run_exit_codes(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"experiment": "identities"}))
    assert cli.main(["run", "--config", str(cfg)]) == 0

    # a momentum transfer off 8/pi fails its identity line, so the run
    # reports a failed check and exits nonzero
    monkeypatch.setattr(kn, "momentum_transfer", lambda kernel, spec: 2.5)
    assert cli.main(["run", "--config", str(cfg)]) == 1


def test_main_writes_requested_output(tmp_path):
    cfg = tmp_path / "c.json"
    out = tmp_path / "r.json"
    cfg.write_text(json.dumps({"experiment": "identities"}))
    assert cli.main(["run", "--config", str(cfg), "--output", str(out)]) == 0
    assert json.loads(out.read_text())["summary"]


@pytest.mark.parametrize("flag", [["--format", "csv"], ["--output", "x"]])
@pytest.mark.parametrize("text", ["[1, 2]", '"x"'])
def test_main_run_refuses_a_non_object_config_under_overrides(tmp_path, capsys, text, flag):
    """--format and --output go into the config only once it is an object:
    a list or a string is refused with exit status 2, as without the flag."""
    cfg = tmp_path / "c.json"
    cfg.write_text(text)
    assert cli.main(["run", "--config", str(cfg), *flag]) == 2
    assert "invalid config: config: must be an object" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_add_check_fails_non_finite():
    report = cli.Report(metadata={})
    report.add_check("nan", float("nan"), "<", 1.0)
    report.add_check("inf", float("inf"), ">", 1.0)
    report.add_check("finite", 0.5, "<", 1.0)
    assert [s["verdict"] for s in report.summary] == ["fail", "fail", "pass"]


def test_worst_propagates_nan():
    nan = float("nan")
    assert cli._worst(max, 0.0, 2.0) == 2.0
    assert cli._worst(min, float("inf"), 2.0) == 2.0
    # Python's own max(0.0, nan) is 0.0 and would hide the NaN
    assert math.isnan(cli._worst(max, 0.0, nan))
    assert math.isnan(cli._worst(min, float("inf"), nan))
    assert math.isnan(cli._worst(max, 1.0, nan, 0.5))


METRIC_AFFINE_LIGHT = {"experiment": "metric_affine",
                       "quadrature": {"pair_nodes": 5, "theta_panels": 1,
                                      "theta_nodes_per_panel": 5, "sphere_phi_nodes": 5},
                       "params": {"n_pairs": 4}}


def test_metric_affine_landau_rows_have_positive_action():
    report = cli.run(METRIC_AFFINE_LIGHT)
    landau = [row for row in report.rows if row["kind"] == "landau"]
    assert len(landau) == 2
    assert all(row["action"] > 0.0 for row in landau)
    assert all(row["ok"] == "pass" for row in report.rows)


def test_compactness_report_is_strict_json():
    """Every value of a compactness report is finite, so to_json needs none
    of the non-JSON constants NaN/Infinity; the truncation constant row meets
    its closed form 150 pi 2E mass (8/pi) to 1e-6 relative."""
    config = {"experiment": "compactness",
              "kernel": {"gamma": -1.0, "kinetic_cutoff": True},
              "quadrature": {"pair_nodes": 5, "theta_panels": 1,
                             "theta_nodes_per_panel": 5, "sphere_phi_nodes": 5},
              "params": {"z_grid": [0.5, 2.0], "s_eps_grid": [0.5, 1e-3],
                         "avg_eps_grid": [1.0], "xi_norms": [1.0],
                         "fourier_n": 128, "seminorm_eps_grid": [1.0, 0.5]}}
    report = cli.run(config)

    def reject(name):
        raise ValueError(f"non-JSON constant {name}")

    body = json.loads(report.to_json(), parse_constant=reject)
    trunc = [r for r in body["rows"] if r["quantity"] == "truncation_constant"]
    f = cli.build_density(cli.validate_config(config))
    closed = 150.0 * np.pi * (2.0 * f.moments.energy * f.moments.mass) * kn.TRANSFER
    assert len(trunc) == 1 and abs(trunc[0]["value"] - closed) <= 1e-6 * closed



def test_compactness_angular_average_line_reports_its_margin(monkeypatch):
    """The angular-average line measures the smallest lhs - rhs over its
    (eps, xi) rows against 0: a bound raised past its average at one row
    fails it, and the line shows by how much."""
    from grazing_lab import compactness as cp

    bound = cp.fourier_avg_lower_bound

    def raised(xi, kernel, spec):
        lhs, rhs = bound(xi, kernel, spec)
        return lhs, (lhs + 0.01 if xi[0] == 10.0 else rhs)

    monkeypatch.setattr(cp, "fourier_avg_lower_bound", raised)
    report = cli.run({"experiment": "compactness",
                      "kernel": {"gamma": -1.0, "kinetic_cutoff": True},
                      "quadrature": {"pair_nodes": 5, "theta_panels": 1,
                                     "theta_nodes_per_panel": 5, "sphere_phi_nodes": 5},
                      "params": {"z_grid": [0.5], "s_eps_grid": [1e-3], "avg_eps_grid": [1.0],
                                 "xi_norms": [1.0, 10.0], "fourier_n": 128,
                                 "seminorm_eps_grid": [1.0, 0.5]}})
    rows = [row for row in report.rows if row["quantity"] == "avg_lower_bound"]
    line = next(s for s in report.summary if s["check"].startswith("angular-average"))
    assert [row["lhs"] >= row["rhs"] for row in rows] == [True, False]
    assert line["measured"] == min(row["lhs"] - row["rhs"] for row in rows)
    assert line["measured"] == pytest.approx(-0.01)
    assert line["threshold"] == 0.0 and line["verdict"] == "fail"


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
    report.add_check("nan", float("nan"), "<", 1.0)
    with pytest.raises(ValueError):
        report.to_json()


@pytest.mark.parametrize("excess, verdict", [(1e-13, "pass"), (1e-11, "fail")])
def test_metric_affine_duality_line_can_fail(monkeypatch, excess, verdict):
    """The duality line reports the worst (dual - A)/max(1, |A|) over the rows
    against the 1e-12 it applies, and each row's ok applies the same rule:
    the first Landau pair's dual set above its action by excess max(1, |A|)
    fails both at 1e-11 and passes both at 1e-13."""
    from grazing_lab import dissipation as dp

    batched = dp.landau_actions_and_duals

    def shifted(f, pairs, gamma, spec):
        out = batched(f, pairs, gamma, spec)
        act = out[0][0]
        return [(act, act + excess * max(1.0, abs(act)))] + out[1:]

    monkeypatch.setattr(dp, "landau_actions_and_duals", shifted)
    report = cli.run(METRIC_AFFINE_LIGHT)
    line = report.summary[0]
    assert line["check"] == "metric_affine <= action on random pairs"
    assert (line["threshold"], line["verdict"]) == (1e-12, verdict)
    assert line["measured"] == pytest.approx(excess, rel=1e-2)
    assert [row["ok"] for row in report.rows] == ["pass", verdict, "pass", "pass"]


PROJECTION_LIGHT = {"experiment": "projection", "kernel": {"gamma": -1.0},
                    "params": {"n_shells": 3, "n_y": 3, "lmax": 8}}


def _shift_diag(key, by, scale=None):
    # project_vector_field's diagnostics, with diag[key] moved by `by`, or by
    # `by` times diag[scale]
    def wrap(project):
        def shifted(*args):
            field, diag = project(*args)
            return field, {**diag, key: diag[key] + by * (diag[scale] if scale else 1.0)}
        return shifted
    return wrap


def _shift_potential(project):
    # a constant 1e-4 Y_00 = 2.8e-5 added to the projected potential on
    # every shell and y node
    def shifted(*args):
        field, diag = project(*args)
        coeffs = field.coefficients.copy()
        coeffs[..., 0, coeffs.shape[-2] - 1] += 1e-4
        return dataclasses.replace(field, coefficients=coeffs), diag
    return shifted


@pytest.mark.parametrize("shift,check", [
    (_shift_diag("max_spectral_residual", 1e-9), "per-shell spectral residual"),
    (_shift_diag("max_odd_degree_coeff", 1e-9), "odd-degree coefficients"),
    (_shift_diag("norm_residual_sq", 1e-5, "norm_projected_V_sq"),
     "orthogonal decomposition (relative)"),
    (_shift_potential, "gradient-type round trip"),
], ids=["spectral_residual", "odd_degree", "orthogonal", "round_trip"])
def test_projection_verdicts_can_fail(monkeypatch, shift, check):
    """Each projection line passes at roundoff on a light shell grid and
    fails once its input moves past the threshold: the spectral residual or
    the odd-degree coefficient by 1e-9 (threshold 1e-10), the residual norm
    by 1e-5 of ||Pi V||^2 (threshold 1e-6 relative), the round trip's
    potential by a constant 2.8e-5 (threshold 1e-6)."""
    from grazing_lab import projection as pj

    def verdict():
        return {s["check"]: s["verdict"] for s in cli.run(PROJECTION_LIGHT).summary}[check]

    assert verdict() == "pass"
    monkeypatch.setattr(pj, "project_vector_field", shift(pj.project_vector_field))
    assert verdict() == "fail"



def test_projection_fails_a_grid_that_misses_the_support(tmp_path):
    """At n_y 2 the box's y nodes have |y| = y_radius up to roundoff, on the
    edge of the AS field's y-support: at y_radius 3 all 8 lie one ulp inside
    the ball, where the y-bump underflows to 0, and at y_radius 0.5 none lies
    inside, so the y rule is empty. Either way every diagnostic reads 0, the
    other four lines pass, and only the grid-norm line fails, with exit
    status 1."""
    for y_radius, n_ball in ((3.0, 8), (0.5, 0)):
        params = {"n_shells": 2, "n_y": 2, "lmax": 4, "y_radius": y_radius}
        config = {"experiment": "projection", "params": params}
        assert cli.build_projection(cli.validate_config(config))[0].y_nodes.shape[0] == n_ball
        report = cli.run(config)
        assert all(v == 0.0 for row in report.rows for v in row.values()
                   if isinstance(v, float))
        verdicts = {s["check"]: s["verdict"] for s in report.summary}
        assert verdicts.pop("|Pi V|^2 on the grid > 0") == "fail"
        assert set(verdicts.values()) == {"pass"} and len(verdicts) == 4
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        assert cli.main(["run", "--config", str(cfg), "--output", str(tmp_path / "r.json")]) == 1


@pytest.mark.parametrize("nu,theta_nodes", [(1.98, 8), (1.99, 8), (1.999, 5), (1.975, 16)])
def test_validate_names_nu_near_two(nu, theta_nodes):
    """Near nu = 2 the profile at the first theta node leaves the float
    range; validate refuses the config naming kernel.nu, before numpy
    overflows (the suite turns a RuntimeWarning into an error)."""
    config = {"kernel": {"nu": nu}, "quadrature": {"theta_nodes_per_panel": theta_nodes}}
    with pytest.raises(cli.ConfigError, match=r"^kernel\.nu: at nu = "):
        cli.validate_config(config)

COMPACTNESS_LIGHT = {
    "experiment": "compactness",
    "density": {"family": "gaussian_mixture",
                "components": [[0.5, [2.0, 0.0, 0.0], [1.0, 1.0, 1.0]],
                               [0.5, [-2.0, 0.0, 0.0], [1.0, 1.0, 1.0]]]},
    "kernel": {"gamma": -1.0, "kinetic_cutoff": True},
    "quadrature": {"pair_nodes": 5, "theta_panels": 1, "theta_nodes_per_panel": 5,
                   "sphere_phi_nodes": 5},
    "params": {"z_grid": [0.5, 2.0], "s_eps_grid": [1.0, 1e-3], "avg_eps_grid": [1.0],
               "xi_norms": [1.0], "fourier_n": 96, "seminorm_eps_grid": [1.0, 0.5]}}


def _shift_s_eps(eps, by):
    # S_eps(|z| = 1/2) moved by `by` at one eps
    def wrap(s_eps):
        def shifted(z, kernel, spec):
            s = s_eps(z, kernel, spec)
            return s + by if (kernel.angular.epsilon, z) == (eps, 0.5) else s
        return shifted
    return wrap


def _shift_lhs(check):
    def shifted(*args):
        lhs, rhs, d_bs = check(*args)
        return IntegralResult(lhs.value + 11.0, lhs.error_estimate), rhs, d_bs
    return shifted


def _shift_rhs(check):
    def shifted(*args):
        lhs, rhs, d_bs = check(*args)
        return lhs, IntegralResult(rhs.value + 14.0, rhs.error_estimate), d_bs
    return shifted


def _shift_gap(gap):
    return lambda f, xi: gap(f, xi) - 0.01


@pytest.mark.parametrize("target,shift,check", [
    ("s_eps", _shift_s_eps(1.0, 7.0), "|S_eps| <= 12 on the (z, eps) grid"),
    ("s_eps", _shift_s_eps(1e-3, 0.12),
     "S_eps -> 6 (|z| < 1), 2(3+gamma)|z|^gamma (|z| >= 1) within 1% at eps=1e-3"),
    ("cancellation_identity_check", _shift_lhs, "|cancellation lhs| <= 12"),
    ("cancellation_identity_check", _shift_rhs, "cancellation identity gap"),
    ("fourier_positivity_gap", _shift_gap, "positivity gap has a positive fitted floor"),
], ids=["s_eps_bound", "s_eps_limit", "cancellation_lhs", "cancellation_gap",
        "positivity_floor"])
def test_compactness_verdicts_can_fail(monkeypatch, target, shift, check):
    """On the bimodal mixture at a light spec each compactness line passes
    (|S_eps| 6.15, S_eps's limit met to 2.5e-8, lhs 1.85, the cancellation
    gap 0.017 against its tolerance 13.3, floor 0.90) and fails once its
    input moves: S_eps at eps = 1 by +7 (past 12), S_eps at eps = 1e-3 by
    +0.12 (2 % of its limit 6), the cancellation lhs by +11 (past 12), its
    rhs by +14 (past 13.3), every positivity gap by -0.01 (the gap at
    |xi| = 0.05 is about 0.002)."""
    from grazing_lab import compactness as cp

    def verdict():
        return {s["check"]: s["verdict"] for s in cli.run(COMPACTNESS_LIGHT).summary}[check]

    assert verdict() == "pass"
    monkeypatch.setattr(cp, target, shift(getattr(cp, target)))
    assert verdict() == "fail"


def test_compactness_fails_fast_on_a_box_that_aliases(monkeypatch):
    """validate cannot see aliasing without the transform, so the run takes
    the seminorm first: on a 48-node box the bimodal mixture aliases, and
    the run raises before any sweep, naming the box."""
    from grazing_lab import compactness as cp

    def never(*args):
        raise AssertionError("the cancellation sweep ran before the seminorm")

    monkeypatch.setattr(cp, "cancellation_identity_check", never)
    cfg = {**COMPACTNESS_LIGHT, "params": {**COMPACTNESS_LIGHT["params"], "fourier_n": 48}}
    cli.validate_config(cfg)
    with pytest.raises(cp.CompactnessError,
                       match=r"^aliasing detected: .* n = 48, half width 8\.0"):
        cli.run(cfg)


LIMIT_LIGHT = {"experiment": "limit_check",
               "testfns": [{"kind": "poly", "quad": [[0, 0, 0], [0, 0, 0], [0, 0, 1.0]]}],
               "quadrature": {"pair_nodes": 5, "theta_panels": 1, "theta_nodes_per_panel": 5,
                              "sphere_phi_nodes": 5}}
IDENTITIES_LIGHT = {"experiment": "identities", "params": {"samples": 500}}


def _lower_order(study):
    # every fitted order lowered by 1.2
    def lowered(*args):
        out = study(*args)
        return {**out, "fitted_order": [order - 1.2 for order in out["fitted_order"]]}
    return lowered


def _shift_gradient_dual(batched):
    # the dual of the gradient-type pair, the last of the batch, moved below
    # its action by 1e-5 |A|
    def shifted(*args):
        out = batched(*args)
        act, dual = out[-1]
        return out[:-1] + [(act, dual - 1e-5 * abs(act))]
    return shifted


def _shift_transfer(transfer):
    # the momentum transfer at eps = 0.1 moved by 2e-6
    def shifted(kernel, spec):
        t = transfer(kernel, spec)
        return t + 2e-6 if kernel.epsilon == 0.1 else t
    return shifted


def _leak_beta(beta):
    # beta_eps raised by 1e-12 at every theta, past eps/2 too
    return lambda kernel, theta: beta(kernel, theta) + 1e-12


@pytest.mark.parametrize("config,module,target,shift,check", [
    (LIMIT_LIGHT, "operators", "grazing_limit_study", _lower_order,
     "psi0: fitted order >= 0.9"),
    (METRIC_AFFINE_LIGHT, "dissipation", "actions_and_duals", _shift_gradient_dual,
     "equality at gradient-type mobility (boltzmann)"),
    (METRIC_AFFINE_LIGHT, "dissipation", "landau_actions_and_duals", _shift_gradient_dual,
     "equality at gradient-type mobility (landau)"),
    (IDENTITIES_LIGHT, "kernels", "momentum_transfer", _shift_transfer,
     "momentum transfer == 8/pi across eps"),
    (IDENTITIES_LIGHT, "kernels", "beta_eps", _leak_beta, "beta_eps support in (0, eps/2)"),
], ids=["fitted_order", "equality_boltzmann", "equality_landau", "momentum_transfer",
        "beta_support"])
def test_summary_lines_can_fail(monkeypatch, config, module, target, shift, check):
    """Each line passes at a light spec (fitted order 1.99, both equalities
    at roundoff, the momentum transfer 8/pi to 4e-16, beta_eps exactly 0
    past eps/2) and fails once its input moves through the module attribute
    the run calls: the fitted order by -1.2 (to 0.79, under 0.9), the
    gradient-type dual by -1e-5 |A| (threshold 1e-6 relative), the momentum
    transfer at eps = 0.1 by 2e-6 (threshold 1e-6), beta_eps by 1e-12
    (threshold 0)."""
    mod = importlib.import_module(f"grazing_lab.{module}")

    def verdict():
        return {s["check"]: s["verdict"] for s in cli.run(config).summary}[check]

    assert verdict() == "pass"
    monkeypatch.setattr(mod, target, shift(getattr(mod, target)))
    assert verdict() == "fail"
