"""Configuration-driven harness: experiments, reports, and the command line.

One JSON config describes the kernel, density, test functions, quadrature,
and experiment; `run` produces a Report whose body (rows + summary) is
byte-reproducible for identical configs. Every summary line carries the
measured value, its threshold, and a verdict; the process exit status is
zero exactly when all verdicts pass.
"""

from __future__ import annotations

import argparse
import copy
import csv
import io
import json
import math
import operator
import sys
import time
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import compactness as cp
from . import dissipation as dp
from . import functions as fn
from . import kernels as kn
from . import operators as op
from . import projection as pj
from .quadrature import QuadratureSpec, error_tolerance

TOOL_VERSION = "0.1.0"


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# configuration

DEFAULT_CONFIG = {
    "experiment": "identities",
    "format": "json",
    "output": None,
    "kernel": {
        "gamma": 0.0,
        "nu": 0.5,
        "family": "power_law",
        "variant": "rescaled",
        "epsilon": 0.5,
        "kinetic_cutoff": False,
        "eps_list": [],
    },
    "density": {
        "family": "gaussian_mixture",
        "components": [[1.0, [0.0, 0.0, 0.0], [1.0, 1.0, 4.0]]],
        "mean": [0.0, 0.0, 0.0],
        "temperature": 1.0,
    },
    "testfns": [
        {"kind": "poly", "quad": [[0, 0, 0], [0, 0, 0], [0, 0, 1.0]]},
        {"kind": "gaussian", "const": 1.0, "quad": [[0, 0, 0], [0, 0, 0], [0, 0, 1.0]],
         "width": 4.0},
    ],
    "ds_testfns": [
        {"kind": "DS", "support": {"delta": 0.4, "R": 5.0},
         "modulation": {"const": 0.0, "x_quad": [[1.0, 0, 0], [0, 1.0, 0], [0, 0, -2.0]]},
         "y_radius": 6.0},
    ],
    "quadrature": {
        "pair_nodes": 10,
        "theta_panels": 2,
        "theta_nodes_per_panel": 8,
        "sphere_phi_nodes": 8,
        "seed": 0,
    },
    "params": {},
}

# what each experiment adds to DEFAULT_CONFIG: its params, the eps sweep of
# the two sweep experiments, and the kinetic cutoff compactness needs
_EXPERIMENTS = {
    "identities": {"params": {"samples": 10_000, "transfer_eps": [1.0, 0.3, 0.1, 0.03, 0.01]}},
    "limit_check": {"kernel": {"eps_list": [1.0, 0.5, 0.25, 0.125]}},
    "dissipation_study": {
        "kernel": {"eps_list": [1.0, 0.5, 0.25, 0.125, 1e-2, 1e-3, 1e-4, 1e-5]}},
    "metric_affine": {"params": {"n_pairs": 50}},
    "projection": {"params": {
        "delta": 0.5, "R": 4.0, "y_radius": 3.0, "n_shells": 5, "n_y": 5, "lmax": 16,
        "as_matrix": [[0.0, 1.0, 0.3], [-0.5, 0.2, 0.0], [0.1, -0.7, 0.4]],
        "ds_x_quad": [[1.0, 0, 0], [0, -0.3, 0], [0, 0, -0.7]]}},
    "compactness": {"kernel": {"kinetic_cutoff": True}, "params": {
        "z_grid": [0.25, 0.5, 1.0, 2.0, 4.0], "s_eps_grid": [1.0, 0.5, 0.1, 1e-2, 1e-3],
        "avg_eps_grid": [1.0, 0.1], "xi_norms": [0.1, 1.0, 10.0], "cutoff_R": 5.0,
        "fourier_n": 160, "fourier_half_width": 8.0, "seminorm_eps_grid": [1.0, 0.5, 0.25, 0.125]}},
}
# the params whose values the experiment passes to the kernel as eps
_EPS_PARAMS = ("transfer_eps", "s_eps_grid", "avg_eps_grid", "seminorm_eps_grid")
# the params an experiment's constructors take under another argument name
_PARAM_OF = {"projection": {"x_quad": "ds_x_quad"},
             "compactness": {"R": "cutoff_R", "n": "fourier_n", "half_width": "fourier_half_width"}}


def merge_defaults(config: dict) -> dict:
    """Overlay the user config on its experiment's defaults (deep for dicts)."""
    out = copy.deepcopy(DEFAULT_CONFIG)

    def merge(dst, src):
        for key, val in src.items():
            if isinstance(val, dict) and isinstance(dst.get(key), dict):
                merge(dst[key], val)
            else:
                dst[key] = copy.deepcopy(val)

    merge(out, _EXPERIMENTS[config.get("experiment", out["experiment"])])
    merge(out, config)
    return out


def _check_fields(given: dict, schema: dict, path: str = "") -> None:
    """Refuse, naming its dotted path, a field the schema does not name or a
    value unlike its default: an object, a boolean, an integer (>= 1 if the
    default is positive, else >= 0), finite numbers of the default's rank (a
    list of numbers may have any length), a list, or (default null) a string
    or null."""
    for key, val in given.items():
        if key not in schema:
            raise ConfigError(f"{path}{key}: unknown field; expected one of {sorted(schema)}")
        default = schema[key]
        if isinstance(default, dict):
            if not isinstance(val, dict):
                raise ConfigError(f"{path}{key}: must be an object, got {val!r}")
            _check_fields(val, default, f"{path}{key}.")
        elif isinstance(default, bool) and not isinstance(val, bool):
            raise ConfigError(f"{path}{key}: must be true or false, got {val!r}")
        elif type(default) is int:
            least = min(default, 1)
            if isinstance(val, bool) or not isinstance(val, (int, np.integer)) or val < least:
                raise ConfigError(f"{path}{key}: must be an integer >= {least}, got {val!r}")
        elif (want := fn.finite_shape(default)) is not None:
            got = fn.finite_shape(val)
            if got is None or len(got) != len(want) or (len(want) == 2 and got != want):
                what = ("a finite number", "a list of finite numbers", "a 3x3 array of them")
                raise ConfigError(f"{path}{key}: must be {what[len(want)]}, got {val!r}")
        elif isinstance(default, list) and not isinstance(val, (list, tuple)):
            raise ConfigError(f"{path}{key}: must be a list, got {val!r}")
        elif default is None and not (val is None or isinstance(val, str)):
            raise ConfigError(f"{path}{key}: must be a string or null, got {val!r}")


def _dbar_vanishes(psi) -> bool:
    """A polynomial or DS psi whose form Q is c I: its pair sum is a collision
    invariant plus 2 E c |x|^2, which the collision keeps, so dbar psi is 0."""
    if psi.quad is None or fn.is_gaussian(psi):
        return False
    return bool(np.array_equal(psi.quad, psi.quad[0, 0] * np.eye(3)))


def _validate_params(cfg: dict) -> None:
    """Build the test functions, and reject parameters that would leave a
    summary line unable to fail."""
    exp, params = cfg["experiment"], cfg["params"]
    for name in ("testfns", "ds_testfns"):
        for i, entry in enumerate(cfg[name]):
            try:
                psi = build_testfn(entry)
            except (TypeError, ValueError, ArithmeticError) as exc:
                raise ConfigError(f"{name}[{i}]: {exc}") from exc
            if name == "ds_testfns" and not isinstance(psi, fn.PairScalarTestFunction):
                raise ConfigError(f"ds_testfns[{i}]: must be of kind 'DS'")
            if isinstance(psi, fn.PairVectorField):
                raise ConfigError(f"testfns[{i}]: kind 'AS' is a vector field; the "
                                  f"experiments pair only scalar test functions")
            if exp == "limit_check" and name == "testfns" and _dbar_vanishes(psi):
                raise ConfigError(f"testfns[{i}]: its quadratic form is a multiple of I, so "
                                  f"dbar psi vanishes at every collision and limit_check "
                                  f"would compare two zeros")
    if exp in ("limit_check", "metric_affine") and not cfg["testfns"]:
        raise ConfigError(f"testfns: {exp} needs at least one test function")
    if exp == "compactness":
        for grid in ("z_grid", "avg_eps_grid", "xi_norms"):
            if not params[grid]:
                raise ConfigError(f"params.{grid}: must not be empty")
        if 1e-3 not in params["s_eps_grid"]:
            raise ConfigError("params.s_eps_grid: must contain 1e-3, where S_eps meets its limit")
        if len(params["seminorm_eps_grid"]) < 2:
            raise ConfigError("params.seminorm_eps_grid: needs at least 2 values")


def _config_object(config) -> dict:
    """config itself, refused unless it is a JSON object."""
    if not isinstance(config, dict):
        raise ConfigError(f"config: must be an object, got {config!r}")
    return config


def validate_config(config: dict) -> dict:
    """Fill and validate against the experiment's defaults, building what the
    run builds; raises ConfigError with field paths."""
    exp = _config_object(config).get("experiment", DEFAULT_CONFIG["experiment"])
    if not (isinstance(exp, str) and exp in _EXPERIMENTS):
        raise ConfigError(f"experiment: unknown experiment {exp!r}; "
                          f"choose one of {tuple(_EXPERIMENTS)}")
    _check_fields(config, merge_defaults({"experiment": exp}))
    cfg = merge_defaults(config)
    if cfg["format"] not in ("csv", "json"):
        raise ConfigError(f"format: must be 'csv' or 'json', got {cfg['format']!r}")
    k = cfg["kernel"]
    if exp == "compactness" and not k["kinetic_cutoff"]:
        raise ConfigError("kernel.kinetic_cutoff: compactness needs the kinetic cutoff")
    if exp in ("limit_check", "dissipation_study") and k["kinetic_cutoff"]:
        raise ConfigError(f"kernel.kinetic_cutoff: {exp} compares the Boltzmann side with a "
                          f"Landau side whose |v - v*|^(2+gamma) weight has no cutoff")
    if k["family"] != "power_law":
        raise ConfigError(f"kernel.family: must be 'power_law', got {k['family']!r}")
    if k["variant"] != "rescaled":
        raise ConfigError(f"kernel.variant: must be 'rescaled', got {k['variant']!r}")
    lst = k["eps_list"]
    try:
        op.check_eps_list(lst, {"limit_check": 3, "dissipation_study": 2}.get(exp, 0), exp)
    except op.OperatorError as exc:
        raise ConfigError(f"kernel.{exc}") from exc
    if cfg["density"]["family"] not in ("gaussian_mixture", "maxwellian"):
        raise ConfigError(f"density.family: unknown family {cfg['density']['family']!r}")
    try:
        spec = QuadratureSpec(**cfg["quadrature"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"quadrature: {exc}") from exc
    # coarsened() floors node counts at 4: at 4 the coarse level is the fine
    # level and every pair-sweep error estimate reads exactly 0
    for name in ("pair_nodes", "theta_nodes_per_panel", "sphere_phi_nodes"):
        if (n := getattr(spec, name)) < 5:
            raise ConfigError(f"quadrature.{name}: must be at least 5, so that the error "
                              f"estimate's coarse level differs from it; got {n}")
    try:
        f = build_density(cfg)
        kernel = build_kernel(cfg, spec)
    except (fn.FunctionError, kn.KernelError) as exc:
        part = "density" if isinstance(exc, fn.FunctionError) else "kernel"
        raise ConfigError(f"{part}.{exc.field}: {exc}" if exc.field else f"{part}: {exc}") from exc
    try:
        if exp == "projection":
            build_projection(cfg)
        elif exp == "compactness":
            f_R, grid = build_seminorm_grid(cfg, f)
            cp.check_support(f_R, grid)
    except (fn.FunctionError, pj.ProjectionError, cp.CompactnessError) as exc:
        name = getattr(exc, "field", None)
        name = _PARAM_OF[exp].get(name, name)
        raise ConfigError(f"params.{name}: {exc}" if name else f"params: {exc}") from exc
    eps_fields = [(f"kernel.eps_list[{i}]", e) for i, e in enumerate(lst)]
    eps_fields += [(f"params.{p}[{i}]", e) for p, grid in cfg["params"].items()
                   if p in _EPS_PARAMS for i, e in enumerate(grid)]
    for name, eps in eps_fields:
        try:
            kernel.with_epsilon(eps)
            if name.startswith("params.avg_eps_grid"):
                cp.check_avg_epsilon(eps)
        except (kn.KernelError, cp.CompactnessError) as exc:
            raise ConfigError(f"{name}: {exc}") from exc
    _validate_params(cfg)
    return cfg


def build_density(cfg: dict) -> fn.GaussianMixture:
    d = cfg["density"]
    if d["family"] == "maxwellian":
        return fn.maxwellian(mean=d["mean"], temperature=d["temperature"])
    return fn.gaussian_mixture(d["components"])


def build_kernel(cfg: dict, spec: QuadratureSpec) -> kn.CollisionKernel:
    """The configured kernel at kernel.epsilon; with_epsilon gives it at any
    other eps, with the same normalized profile."""
    k = cfg["kernel"]
    return kn.build_kernel(gamma=float(k["gamma"]), nu=float(k["nu"]), epsilon=float(k["epsilon"]),
                           kinetic_cutoff=k["kinetic_cutoff"], spec=spec)


def build_projection(cfg: dict) -> tuple[pj.ShellGrid, fn.PairVectorField,
                                          fn.PairScalarTestFunction]:
    """The projection's shell grid, its generic AS field and the DS bump of
    its gradient-type round trip."""
    params = cfg["params"]
    support = {"delta": float(params["delta"]), "R": float(params["R"])}
    y_radius = float(params["y_radius"])
    V = fn.bump_testfn("AS", support, y_radius=y_radius,
                       modulation={"matrix": np.asarray(params["as_matrix"], dtype=float)})
    phi = fn.bump_testfn("DS", support, y_radius=y_radius,
                         modulation={"const": 0.0,
                                     "x_quad": np.asarray(params["ds_x_quad"], dtype=float)})
    grid = pj.shell_grid(support["delta"], support["R"], n_shells=int(params["n_shells"]),
                         y_radius=y_radius, n_y=int(params["n_y"]), lmax=int(params["lmax"]))
    return grid, V, phi


def build_seminorm_grid(cfg: dict, f: fn.GaussianMixture) -> tuple[cp.CutoffDensity, cp.FourierGrid]:
    """The cut density of the compactness seminorm and its Fourier box."""
    params = cfg["params"]
    return (cp.CutoffDensity(f, R=float(params["cutoff_R"])),
            cp.FourierGrid(n=int(params["fourier_n"]),
                           half_width=float(params["fourier_half_width"])))


def build_testfn(entry: dict):
    """The test function of one testfns entry: its fields besides kind are
    the factory's keyword arguments, so the factory's defaults apply."""
    args = dict(entry)
    kind = args.pop("kind", None)
    # looked up per call: a caller may rebind the factories on the module
    factory = {"poly": fn.polynomial_testfn, "gaussian": fn.gaussian_testfn}.get(kind)
    if factory is not None:
        return factory(**args)
    if kind in ("DS", "AS", "Cc_single"):
        return fn.bump_testfn(kind, **args)
    raise ConfigError(f"kind: unknown test-function kind {kind!r}")


# ---------------------------------------------------------------------------
# reports


_RELATIONS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


@dataclass
class Report:
    metadata: dict
    rows: list = field(default_factory=list)
    summary: list = field(default_factory=list)

    def add_check(self, name: str, measured: float, relation: str, threshold: float) -> None:
        """Record the verdict `measured relation threshold`, relation one of
        <, <=, > and >=; a non-finite measured value always fails."""
        ok = math.isfinite(measured) and _RELATIONS[relation](measured, threshold)
        self.summary.append({"check": name, "measured": measured,
                             "threshold": threshold, "verdict": "pass" if ok else "fail"})

    def all_pass(self) -> bool:
        return all(s["verdict"] == "pass" for s in self.summary)

    def body_bytes(self) -> bytes:
        """Canonical serialization of rows + summary (metadata excluded, so
        two runs of the same config are byte-identical here)."""
        return json.dumps({"rows": self.rows, "summary": self.summary},
                          sort_keys=True, separators=(",", ":")).encode()

    def to_json(self) -> str:
        """The full report as strict JSON; a NaN or infinite value raises
        ValueError instead of writing the non-JSON tokens NaN/Infinity."""
        return json.dumps({"metadata": self.metadata, "rows": self.rows,
                           "summary": self.summary}, sort_keys=True, indent=1,
                          allow_nan=False)

    def to_csv(self) -> str:
        """Metadata as `# key: json` lines, then the rows and the summary as
        CSV tables. Rows of one report may differ in shape: the header holds
        every row key in first-seen order, and a row lacking one leaves its
        cell empty."""
        def fmt(x):
            if isinstance(x, float):
                return format(x, ".17g")
            return str(x)

        buf = io.StringIO()
        buf.writelines(f"# {key}: {json.dumps(val, sort_keys=True)}\n"
                       for key, val in sorted(self.metadata.items()))
        if self.rows:
            cols = list(dict.fromkeys(c for row in self.rows for c in row))
            rows = csv.DictWriter(buf, cols, restval="", lineterminator="\n")
            rows.writeheader()
            rows.writerows({c: fmt(x) for c, x in row.items()} for row in self.rows)
        buf.write("# summary\n")
        summary = csv.writer(buf, lineterminator="\n")
        summary.writerow(["check", "measured", "threshold", "verdict"])
        summary.writerows([s["check"], fmt(s["measured"]), fmt(s["threshold"]), s["verdict"]]
                          for s in self.summary)
        return buf.getvalue()


def emit_plot_data(report: Report) -> str:
    """Long-format (x, y, series) CSV for the numeric series of a report."""
    if not report.rows and not report.summary:
        raise ValueError("empty report")
    lines = ["x,y,series"]
    exp = report.metadata.get("experiment")
    if exp == "limit_check":
        for row in report.rows:
            lines.append(f"{row['eps']!r},{row['abs_err']!r},abs_err_psi{row['psi']}")
    elif exp == "dissipation_study":
        for row in report.rows:
            lines.append(f"{row['eps']!r},{row['D_B_eps']!r},D_B_eps")
            lines.append(f"{row['eps']!r},{row['D_L']!r},D_L")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# experiments


def _worst(pick, *values):
    """pick (max or min) of the values, or NaN if any is NaN: Python's
    max(0.0, nan) is 0.0, which would turn a NaN into a pass."""
    return math.nan if any(math.isnan(x) for x in values) else pick(values)


def _run_identities(cfg: dict, spec: QuadratureSpec, report: Report) -> None:
    """The collision-frame identities on the frame the sweeps run: one
    PairChunk of `samples` random pairs, its azimuths, and its CollisionNodes
    at the configured kernel's theta nodes plus theta = pi/2, so the checks
    cover the whole hemisphere; then the kernel's momentum transfer."""
    rng = np.random.default_rng(spec.seed)
    n = int(cfg["params"]["samples"])
    v = rng.normal(size=(n, 3))
    vs = rng.normal(size=(n, 3)) + np.array([1.5, 0, 0])
    kernel = build_kernel(cfg, spec)
    chunk = op.PairChunk(v, vs, kernel=kernel)

    n_phi = spec.sphere_phi_nodes
    p, k = chunk.azimuths(n_phi), chunk.k
    circle = (2.0 * np.pi / n_phi) * np.einsum("cai,caj->cij", p, p)
    worst = float(np.abs(circle - np.pi * (np.eye(3) - k[:, :, None] * k[:, None, :])).max())
    report.add_check("(2pi/n) sum p p^T == pi*Pi[k]", worst, "<", 1e-12)

    v3, vs3, k3, y3 = v[:, None, :], vs[:, None, :], k[:, None, :], 0.5 * (v + vs)[:, None, :]
    mom_scale = np.maximum(np.abs(v + vs).max(axis=1), 1.0)[:, None]
    en_scale = np.sum(v**2 + vs**2, axis=1)[:, None]
    x_len = np.sqrt(np.sum((0.5 * (v - vs)) ** 2, axis=1))[:, None, None]
    edge = op.CollisionNode(chunk, np.pi / 2, n_phi, kernel)
    angle = cons = bob = 0.0
    for node in chain((node for _, node in op.collision_nodes(chunk, spec, kernel)), [edge]):
        sigma, vp, vsp = node.sigma, node.vp, node.vsp
        equiv = np.abs(np.sum((sigma - k3) ** 2, axis=2) - 2.0 * (1.0 - np.sum(k3 * sigma, axis=2)))
        mom = np.abs(vp + vsp - v3 - vs3).max(axis=2) / mom_scale
        en = np.abs(np.sum(vp**2 + vsp**2 - v3**2 - vs3**2, axis=2)) / en_scale
        xp = np.abs(0.5 * (vp - vsp) - x_len * sigma).max()
        yp = np.abs(0.5 * (vp + vsp) - y3).max()
        angle = _worst(max, angle, float(equiv.max()))
        cons = _worst(max, cons, float(mom.max()), float(en.max()))
        bob = _worst(max, bob, float(xp), float(yp))
    report.add_check("|sigma-k|^2 == 2(1-k.sigma)", angle, "<", 1e-12)
    report.add_check("collision conservation (relative)", cons, "<", 1e-10)

    report.add_check("x' = |x| sigma and y' = y", bob, "<", 1e-12)

    worst = 0.0
    for eps in cfg["params"]["transfer_eps"]:
        t = kn.momentum_transfer(kernel.with_epsilon(float(eps)).angular, spec)
        worst = _worst(max, worst, abs(t - kn.TRANSFER))
        report.rows.append({"check": "momentum_transfer", "eps": float(eps), "value": t})
    report.add_check("momentum transfer == 8/pi across eps", worst, "<", 1e-6)

    thetas = np.linspace(kernel.angular.epsilon / 2 * 1.0000001, np.pi / 2, 500)
    sup = float(np.abs(kn.beta_eps(kernel.angular, thetas)).max())
    # sup is a max of absolute values: <= 0 is == 0
    report.add_check("beta_eps support in (0, eps/2)", sup, "<=", 0.0)


def _run_limit_check(cfg: dict, spec: QuadratureSpec, report: Report) -> None:
    f = build_density(cfg)
    eps_list = cfg["kernel"]["eps_list"]
    kernel = build_kernel(cfg, spec).with_epsilon(float(eps_list[0]))
    psis = [build_testfn(entry) for entry in cfg["testfns"]]
    study = op.grazing_limit_study(f, psis, kernel, eps_list, spec)
    report.rows += study["rows"]
    for jp, (landau, floor, order) in enumerate(zip(study["landau"], study["noise_floor"],
                                                    study["fitted_order"])):
        errs = [row["abs_err"] for row in study["rows"] if row["psi"] == jp]
        if all(e <= floor for e in errs) or abs(landau) <= floor:
            # equilibrium-style pairing: the errors, or the Landau value they
            # are measured from, live at the quadrature noise floor, so
            # neither decrease nor an order is meaningful; every error must
            # stay at the floor
            largest = _worst(max, *errs)
            report.add_check(f"psi{jp}: errors at noise floor (flagged, no order)",
                             largest, "<=", floor)
        else:
            # the worst step's rise, negative when every step falls
            rise = _worst(max, *(b - a for a, b in zip(errs, errs[1:])))
            report.add_check(f"psi{jp}: |Q_B_eps - Q_L| strictly decreasing", rise, "<", 0.0)
            # -1.0 stands for no fitted order, and fails
            report.add_check(f"psi{jp}: fitted order >= 0.9",
                             order if order is not None else -1.0, ">=", 0.9)


def _run_dissipation_study(cfg: dict, spec: QuadratureSpec, report: Report) -> None:
    f = build_density(cfg)
    eps_list = cfg["kernel"]["eps_list"]
    kernel = build_kernel(cfg, spec).with_epsilon(float(eps_list[0]))
    psis = [build_testfn(e) for e in cfg["ds_testfns"]]
    study = dp.dissipation_study(f, kernel, eps_list, psis, spec)

    # each row's largest violation of 0 <= affine <= D_B^R + tol and
    # D_B^R <= D_B + tol (<= 0 where the chain holds); the worst row is reported
    margin = -math.inf
    for row in study["rows"]:
        aff = _worst(max, *row["affine_boltzmann"]) if row["affine_boltzmann"] else 0.0
        tol = error_tolerance(row["err_D_B"], row["err_D_R"]) + 1e-10
        worst = _worst(max, -aff, aff - row["D_B_R"] - tol, row["D_B_R"] - row["D_B_eps"] - tol)
        ok = worst <= 0.0
        margin = _worst(max, margin, worst)
        report.rows.append({
            "eps": row["eps"], "D_B_eps": row["D_B_eps"], "D_B_id": row["D_B_id"],
            "D_B_R": row["D_B_R"], "D_L": row["D_L"], "affine_max": aff,
            "err_D_B": row["err_D_B"], "err_D_B_id": row["err_D_B_id"],
            "ordering": "pass" if ok else "fail",
        })
    report.add_check("chain 0 <= affine <= D_B^R <= D_B_eps at every eps", margin, "<=", 0.0)
    # the two D_B routes, with the row where they are furthest apart
    # relative to their errors
    routes = [(abs(row["D_B_eps"] - row["D_B_id"]),
               error_tolerance(row["err_D_B"], row["err_D_B_id"])) for row in study["rows"]]
    diff, tol = max(routes, key=lambda dt: dt[0] - dt[1])
    report.add_check("|D_B_eps - D_B^id| within quadrature error x10 at every eps",
                     diff, "<=", tol)
    for j, av in enumerate(study["affine_landau"]):
        limit = study["landau"] + error_tolerance(study["landau_error"]) + 1e-10
        report.add_check(f"affine_landau(psi{j}) <= D_L", av, "<=", limit)
    # each step of the gap may rise by at most the two rows' quadrature error
    # x10, with D_L's counted at both ends: where every gap is roundoff (a
    # Maxwellian) nothing else bounds a step; the step nearest to failing is
    # reported
    steps = [(b["gap"] - a["gap"],
              error_tolerance(a["err_D_B"], b["err_D_B"], 2.0 * study["landau_error"]))
             for a, b in zip(study["rows"], study["rows"][1:])]
    rise, tol = max(steps, key=lambda st: st[0] - st[1])
    report.add_check("|D_B_eps - D_L| decreasing along sweep", rise, "<=", tol)
    # the last gap is the c eps^2 grazing gap the one before predicts, up to
    # quadrature error; once the quadrature resolves the gap, the error at
    # the last eps alone cannot explain it
    prev, last = study["rows"][-2:]
    rho2 = (last["eps"] / prev["eps"]) ** 2
    dev = abs(last["gap"] - rho2 * prev["gap"])
    tol = error_tolerance(last["err_D_B"], rho2 * prev["err_D_B"], 2.0 * study["landau_error"])
    report.add_check("final gap follows the eps^2 law within quadrature error x10",
                     dev, "<=", tol)


def _random_shape_mobility(rng) -> dp.Mobility:
    """Random bounded shape times the natural weight Lambda(f) B_eps, i.e. a
    random admissible collision rate."""
    coef = rng.normal(size=4)
    e = rng.normal(size=3)
    e /= np.linalg.norm(e)

    def field(node):
        # sigma . e as one 2-D gemv over the (C, n_phi) 3-vectors, not a
        # stacked matmul of C n_phi vectors: the same bits, less dispatch
        sigma = node.sigma
        shape = (coef[0] + coef[1] * (sigma.reshape(-1, 3) @ e).reshape(sigma.shape[:-1])
                 + coef[2] * np.exp(-0.1 * node.r2) + coef[3] * np.cos(node.theta))
        return shape * node.lam_b

    return dp.Mobility(kind="boltzmann", field=field)


def _random_landau_mobility(rng, gamma: float) -> dp.Mobility:
    """Random bounded shape times a gradient-type grazing rate."""
    coef = rng.normal(size=3)
    # (grad - grad_*) of a linear function vanishes, so the base shape is
    # quadratic: c v1^2 gives 2c (v1 - v1*) e1
    base = dp.gradient_mobility_landau(
        fn.polynomial_testfn(quad=np.diag([coef[2], 0.0, 0.0])), gamma)

    def field(chunk):
        shape = coef[0] + coef[1] * np.exp(-0.1 * chunk.r2)
        return shape[..., None] * base.field(chunk)

    return dp.Mobility(kind="landau", field=field)


def _run_metric_affine(cfg: dict, spec: QuadratureSpec, report: Report) -> None:
    f = build_density(cfg)
    kernel = build_kernel(cfg, spec)
    rng = np.random.default_rng(spec.seed)
    n_pairs = int(cfg["params"]["n_pairs"])
    gamma = kernel.gamma

    # every random pair is drawn first; pair i is Boltzmann for even i and
    # Landau for odd i. The gradient-type pair of the equality checks goes
    # last on each side, and each side's pairs share one batched sweep (or
    # pair reduction): both checks hold in the discrete sums, so no coarse
    # level is needed
    sides: tuple[list, list] = ([], [])
    for i in range(n_pairs):
        w = float(rng.uniform(2.5, 5.0))
        quad = np.diag(rng.normal(size=3))
        psi = fn.gaussian_testfn(const=float(rng.normal()), quad=quad, width=w)
        M = _random_shape_mobility(rng) if i % 2 == 0 else _random_landau_mobility(rng, gamma)
        sides[i % 2].append((M, psi))
    psi = build_testfn(cfg["testfns"][1] if len(cfg["testfns"]) > 1 else cfg["testfns"][0])
    sides[0].append((dp.gradient_mobility_boltzmann(psi), psi))
    sides[1].append((dp.gradient_mobility_landau(psi, gamma), psi))
    results = (dp.actions_and_duals(f, sides[0], kernel, spec),
               dp.landau_actions_and_duals(f, sides[1], gamma, spec))

    # each row's excess of the dual over the action, relative to max(1, |A|)
    rels = []
    for i in range(n_pairs):
        act, aff = results[i % 2][i // 2]
        rel = (aff - act) / max(1.0, abs(act))
        rels.append(rel)
        report.rows.append({"pair": i, "kind": "boltzmann" if i % 2 == 0 else "landau",
                            "action": act, "metric_affine": aff,
                            "ok": "pass" if rel <= 1e-12 else "fail"})
    worst = _worst(max, *rels)
    report.add_check("metric_affine <= action on random pairs", worst, "<=", 1e-12)

    for side, (act, aff) in zip(("boltzmann", "landau"), (results[0][-1], results[1][-1])):
        rel = abs(act - aff) / max(abs(act), 1e-300)
        report.add_check(f"equality at gradient-type mobility ({side})", rel, "<", 1e-6)


def _run_projection(cfg: dict, spec: QuadratureSpec, report: Report) -> None:
    gamma = float(cfg["kernel"]["gamma"])
    grid, V, phi = build_projection(cfg)
    _, diag = pj.project_vector_field(V, grid, gamma)
    gap = abs(diag["norm_projected_V_sq"] - diag["norm_gradient_sq"] - diag["norm_residual_sq"])
    rel = gap / max(diag["norm_projected_V_sq"], 1e-300)
    report.rows.append({"case": "generic", **{k: float(v) for k, v in diag.items()}})
    # a grid that samples none of V's support reads 0 on every other line
    report.add_check("|Pi V|^2 on the grid > 0", diag["norm_projected_V_sq"], ">", 0.0)
    report.add_check("per-shell spectral residual", diag["max_spectral_residual"], "<", 1e-10)
    report.add_check("odd-degree coefficients", diag["max_odd_degree_coeff"], "<", 1e-10)
    report.add_check("orthogonal decomposition (relative)", rel, "<", 1e-6)

    Vg = fn.gradient_type_field(phi, gamma)
    field2, diag2 = pj.project_vector_field(Vg, grid, gamma)
    tr = grid.transform()
    err = 0.0
    for a, r in enumerate(grid.radii):
        pv = phi.value(*pj.shell_pairs(float(r), grid.y_nodes, tr))
        sums = (tr.quad_weights * pv).reshape(pv.shape[0], tr.n_theta * tr.n_phi).sum(-1)
        mean = sums / (4.0 * np.pi)
        rec = tr.synthesize(field2.coefficients[a])
        err = _worst(max, err, float(np.abs(rec - (pv - mean[:, None, None])).max(initial=0.0)))
    report.rows.append({"case": "round_trip", "max_error": err,
                        "residual_sq": diag2["norm_residual_sq"]})
    report.add_check("gradient-type round trip", err, "<", 1e-6)


def _run_compactness(cfg: dict, spec: QuadratureSpec, report: Report) -> None:
    f = build_density(cfg)
    params = cfg["params"]
    kernel = build_kernel(cfg, spec)
    # first, so that a Fourier box that aliases fails before any sweep runs
    fR, grid = build_seminorm_grid(cfg, f)
    sn = cp.weighted_seminorm(fR, kernel.angular.base.nu, grid)

    worst = 0.0
    lim_err = 0.0
    for eps in params["s_eps_grid"]:
        ker = kernel.with_epsilon(eps)
        for z in params["z_grid"]:
            s = cp.s_eps(z, ker, spec)
            worst = _worst(max, worst, abs(s))
            report.rows.append({"quantity": "s_eps", "eps": float(eps), "z": float(z),
                                "value": s})
            if eps == 1e-3:
                lim = 6.0 if z < 1.0 else 2.0 * (3.0 + kernel.gamma) * z ** kernel.gamma
                lim_err = _worst(max, lim_err, abs(s - lim) / lim)
    report.add_check("|S_eps| <= 12 on the (z, eps) grid", worst, "<=", 12.0)
    report.add_check("S_eps -> 6 (|z| < 1), 2(3+gamma)|z|^gamma (|z| >= 1) within 1% "
                     "at eps=1e-3", lim_err, "<", 0.01)

    # one sweep per level gives the cancellation's left side and the D_B of
    # the seminorm ratios below
    eps_grid = params["seminorm_eps_grid"]
    lhs, rhs, dBs = cp.cancellation_identity_check(f, kernel, spec, eps_grid)
    gap = abs(lhs.value - rhs.value)
    tol = error_tolerance(lhs.error_estimate, rhs.error_estimate) + 1e-9
    report.rows.append({"quantity": "cancellation", "lhs": lhs.value, "rhs": rhs.value,
                        "gap": gap})
    report.add_check("cancellation identity gap", gap, "<=", tol)
    report.add_check("|cancellation lhs| <= 12", abs(lhs.value), "<=", 12.0)

    # the smallest lhs - rhs over the (eps, xi) rows
    slack = math.inf
    for eps in params["avg_eps_grid"]:
        ker = kernel.with_epsilon(eps)
        for xn in params["xi_norms"]:
            lhs_a, rhs_a = cp.fourier_avg_lower_bound([xn, 0.0, 0.0], ker, spec)
            slack = _worst(min, slack, lhs_a - rhs_a)
            report.rows.append({"quantity": "avg_lower_bound", "eps": float(eps),
                                "xi": float(xn), "lhs": lhs_a, "rhs": rhs_a})
    report.add_check("angular-average lower bound lhs >= rhs", slack, ">=", 0.0)

    floor = np.inf
    for xn in np.geomspace(0.05, 20.0, 12):
        gapv = cp.fourier_positivity_gap(f, [xn / np.sqrt(3)] * 3)
        ratio = gapv / min(xn**2, 1.0)
        floor = _worst(min, floor, ratio)
    report.rows.append({"quantity": "positivity_floor", "C_f": float(floor)})
    report.add_check("positivity gap has a positive fitted floor", float(floor), ">", 0.0)

    ratios = []
    for eps, dB in zip(eps_grid, dBs):
        ratios.append(sn / (dB + 1.0))
        report.rows.append({"quantity": "seminorm_ratio", "eps": float(eps),
                            "seminorm": sn, "D_B_eps": dB,
                            "ratio": ratios[-1]})
    c_r = _worst(max, *ratios)
    report.rows.append({"quantity": "fitted_C_R", "value": float(c_r)})
    spread = float(c_r / _worst(min, *ratios))
    report.add_check("seminorm/(D_B+1) max/min across sweep < 2", spread, "<", 2.0)
    c2 = cp.truncation_constant(f, kernel, spec)
    report.rows.append({"quantity": "truncation_constant", "value": float(c2)})


# ---------------------------------------------------------------------------
# driver


def run(config: dict) -> Report:
    """Validate the config, execute the experiment, persist the report."""
    cfg = validate_config(config)
    spec = QuadratureSpec(**cfg["quadrature"])
    report = Report(metadata={
        "experiment": cfg["experiment"],
        "tool_version": TOOL_VERSION,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "config": {k: v for k, v in cfg.items() if k not in ("output",)},
    })
    runner = {
        "identities": _run_identities,
        "limit_check": _run_limit_check,
        "dissipation_study": _run_dissipation_study,
        "metric_affine": _run_metric_affine,
        "projection": _run_projection,
        "compactness": _run_compactness,
    }[cfg["experiment"]]
    runner(cfg, spec, report)
    out = cfg["output"]
    if out:
        text = report.to_csv() if cfg["format"] == "csv" else report.to_json()
        with open(out, "w") as fh:
            fh.write(text)
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="grazing-lab",
                                     description="collision-operator workbench")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a configured experiment")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--output", default=None)
    p_run.add_argument("--format", choices=("csv", "json"), default=None)
    p_val = sub.add_parser("validate", help="validate a config without running")
    p_val.add_argument("--config", required=True)
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        try:
            validate_config(config)
        except ConfigError as exc:
            print(f"invalid config: {exc}", file=sys.stderr)
            return 2
        print("config ok")
        return 0

    overrides = {key: val for key, val in (("output", args.output), ("format", args.format))
                 if val}
    try:
        report = run({**_config_object(config), **overrides})
    except ConfigError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # numerical failures propagate with context
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    for s in report.summary:
        print(f"[{s['verdict']}] {s['check']}: measured={s['measured']:.6g} "
              f"threshold={s['threshold']:.6g}")
    return 0 if report.all_pass() else 1


if __name__ == "__main__":
    sys.exit(main())
