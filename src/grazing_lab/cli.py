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
import json
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import compactness as cp
from . import dissipation as dp
from . import functions as fn
from . import geometry as geo
from . import kernels as kn
from . import operators as op
from . import projection as pj
from .quadrature import QuadratureSpec

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
    },
    "density": {
        "family": "gaussian_mixture",
        "components": [[1.0, [0.0, 0.0, 0.0], [1.0, 1.0, 4.0]]],
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
    },
    "params": {},
}

_EXPERIMENTS = ("identities", "limit_check", "dissipation_study", "metric_affine",
                "projection", "compactness")

# the compactness grids, at the values the experiment uses when params omits one
_COMPACTNESS_GRIDS = {"z_grid": [0.25, 0.5, 1.0, 2.0, 4.0],
                      "s_eps_grid": [1.0, 0.5, 0.1, 1e-2, 1e-3], "avg_eps_grid": [1.0, 0.1],
                      "xi_norms": [0.1, 1.0, 10.0], "seminorm_eps_grid": [1.0, 0.5, 0.25, 0.125]}


def merge_defaults(config: dict) -> dict:
    """Overlay the user config on the documented defaults (deep for dicts)."""
    out = copy.deepcopy(DEFAULT_CONFIG)

    def merge(dst, src):
        for key, val in src.items():
            if isinstance(val, dict) and isinstance(dst.get(key), dict):
                merge(dst[key], val)
            else:
                dst[key] = copy.deepcopy(val)

    merge(out, config)
    return out


def _finite(value, shape: tuple) -> bool:
    """True when value is an array of finite numbers of the given shape."""
    try:
        a = np.asarray(value)
    except (TypeError, ValueError):
        return False
    return a.dtype.kind in "iuf" and a.shape == shape and bool(np.all(np.isfinite(a)))


def _compactness_grids(params: dict) -> dict:
    return {name: params.get(name, val) for name, val in _COMPACTNESS_GRIDS.items()}


def _validate_params(cfg: dict) -> None:
    """Reject parameters that would leave a summary line unable to fail."""
    exp, params = cfg["experiment"], cfg["params"]
    grids = _compactness_grids(params)
    if exp in ("limit_check", "metric_affine") and not cfg["testfns"]:
        raise ConfigError(f"testfns: {exp} needs at least one test function")
    if exp == "metric_affine" and int(params.get("n_pairs", 50)) < 1:
        raise ConfigError(f"params.n_pairs: must be at least 1, got {params['n_pairs']}")
    if exp == "compactness":
        for name in ("z_grid", "avg_eps_grid", "xi_norms"):
            if not grids[name]:
                raise ConfigError(f"params.{name}: must not be empty")
        if 1e-3 not in grids["s_eps_grid"]:
            raise ConfigError("params.s_eps_grid: must contain 1e-3, where S_eps meets its limit")
        if len(grids["seminorm_eps_grid"]) < 2:
            raise ConfigError("params.seminorm_eps_grid: needs at least 2 values")


def validate_config(config: dict) -> dict:
    """Fill defaults and validate; raises ConfigError with field paths."""
    cfg = merge_defaults(config)
    if cfg["experiment"] not in _EXPERIMENTS:
        raise ConfigError(f"experiment: unknown experiment {cfg['experiment']!r}; "
                          f"choose one of {_EXPERIMENTS}")
    if cfg["format"] not in ("csv", "json"):
        raise ConfigError(f"format: must be 'csv' or 'json', got {cfg['format']!r}")
    k = cfg["kernel"]
    if not (-4.0 <= float(k["gamma"]) <= 0.0):
        raise ConfigError(f"kernel.gamma: must lie in [-4, 0], got {k['gamma']}")
    if not (0.0 < float(k["nu"]) <= 2.0):
        raise ConfigError(f"kernel.nu: must lie in (0, 2], got {k['nu']}")
    if k["variant"] not in ("rescaled", "coulomb_log_cutoff"):
        raise ConfigError(f"kernel.variant: unknown variant {k['variant']!r}")
    if k["family"] not in ("power_law", "tabulated"):
        raise ConfigError(f"kernel.family: unknown family {k['family']!r}")
    eps_fields = [("kernel.epsilon", float(k["epsilon"]))]
    if "eps_list" in k:
        lst = [float(e) for e in k["eps_list"]]
        if any(b >= a for a, b in zip(lst, lst[1:])):
            raise ConfigError("kernel.eps_list: must be strictly decreasing")
        if cfg["experiment"] == "limit_check" and len(lst) < 3:
            raise ConfigError(f"kernel.eps_list: limit_check needs at least 3 values, "
                              f"got {len(lst)}")
        eps_fields += [(f"kernel.eps_list[{i}]", e) for i, e in enumerate(lst)]
    for name, eps in eps_fields:
        try:
            kn.check_epsilon(k["variant"], eps)
        except kn.KernelError as exc:
            raise ConfigError(f"{name}: {exc}") from exc
    d = cfg["density"]
    if d["family"] not in ("gaussian_mixture", "maxwellian"):
        raise ConfigError(f"density.family: unknown family {d['family']!r}")
    if d["family"] == "gaussian_mixture":
        comps = d.get("components")
        if not comps:
            raise ConfigError("density.components: at least one component required")
        for i, c in enumerate(comps):
            if not (isinstance(c, (list, tuple)) and len(c) == 3 and _finite(c[0], ())
                    and _finite(c[1], (3,)) and _finite(c[2], (3,))):
                raise ConfigError(f"density.components[{i}]: needs a finite weight, mean "
                                  f"and covariance diagonal, the last two of 3 numbers")
        weights = [c[0] for c in comps]
        if any(w <= 0 for w in weights):
            raise ConfigError("density.components: weights must be positive")
        if abs(sum(weights) - 1.0) > 1e-8:
            raise ConfigError(f"density.components: weights sum to {sum(weights)}, expected 1")
        if any(min(c[2]) <= 0 for c in comps):
            raise ConfigError("density.components: covariance diagonals must be positive")
    if d["family"] == "maxwellian":
        if not _finite(d.get("mean", (0, 0, 0)), (3,)):
            raise ConfigError(f"density.mean: must be 3 finite numbers, got {d['mean']!r}")
        temperature = d.get("temperature", 1.0)
        if not (_finite(temperature, ()) and temperature > 0):
            raise ConfigError(f"density.temperature: must be a finite number > 0, "
                              f"got {temperature!r}")
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
    _validate_params(cfg)
    return cfg


def build_density(cfg: dict) -> fn.GaussianMixture:
    d = cfg["density"]
    if d["family"] == "maxwellian":
        return fn.maxwellian(mean=d.get("mean", (0, 0, 0)),
                             temperature=d.get("temperature", 1.0))
    return fn.gaussian_mixture([(c[0], c[1], c[2]) for c in d["components"]])


def build_kernel(cfg: dict, spec: QuadratureSpec, epsilon: float | None = None) -> kn.CollisionKernel:
    k = cfg["kernel"]
    return kn.build_kernel(gamma=float(k["gamma"]), nu=float(k["nu"]),
                           epsilon=float(epsilon if epsilon is not None else k["epsilon"]),
                           variant=k["variant"], kinetic_cutoff=bool(k.get("kinetic_cutoff", False)),
                           spec=spec, family=k["family"],
                           theta_grid=np.asarray(k["theta_grid"]) if "theta_grid" in k else None,
                           values=np.asarray(k["values"]) if "values" in k else None)


def build_testfn(entry: dict):
    kind = entry.get("kind")
    if kind == "poly":
        return fn.polynomial_testfn(const=entry.get("const", 0.0),
                                    linear=entry.get("linear"),
                                    quad=np.asarray(entry["quad"], dtype=float) if "quad" in entry else None)
    if kind == "gaussian":
        return fn.gaussian_testfn(const=entry.get("const", 0.0),
                                  linear=entry.get("linear"),
                                  quad=np.asarray(entry["quad"], dtype=float) if "quad" in entry else None,
                                  center=entry.get("center", (0.0, 0.0, 0.0)),
                                  width=entry.get("width", 2.0))
    if kind in ("DS", "AS", "Cc_single"):
        mod = entry.get("modulation", {})
        mod = {key: (np.asarray(val, dtype=float) if isinstance(val, list) else val)
               for key, val in mod.items()}
        return fn.bump_testfn(kind, entry["support"], modulation=mod,
                              y_radius=entry.get("y_radius", 6.0))
    raise ConfigError(f"testfns.kind: unknown test-function kind {kind!r}")


# ---------------------------------------------------------------------------
# reports


@dataclass
class Report:
    metadata: dict
    rows: list = field(default_factory=list)
    summary: list = field(default_factory=list)

    def add_check(self, name: str, measured: float, threshold: float, ok: bool) -> None:
        """Record a verdict; a non-finite measured value always fails."""
        ok = ok and math.isfinite(measured)
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
        def fmt(x):
            if isinstance(x, float):
                return format(x, ".17g")
            return str(x)

        lines = [f"# {key}: {json.dumps(val, sort_keys=True)}"
                 for key, val in sorted(self.metadata.items())]
        if self.rows:
            cols = list(self.rows[0].keys())
            lines.append(",".join(cols))
            for row in self.rows:
                lines.append(",".join(fmt(row[c]) for c in cols))
        lines.append("# summary")
        lines.append("check,measured,threshold,verdict")
        for s in self.summary:
            lines.append(",".join([s["check"], fmt(s["measured"]), fmt(s["threshold"]),
                                   s["verdict"]]))
        return "\n".join(lines) + "\n"


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
    rng = np.random.default_rng(spec.seed)
    n = int(cfg["params"].get("samples", 10_000))

    ks = rng.normal(size=(64, 3))
    ks /= np.linalg.norm(ks, axis=1)[:, None]
    worst = max(float(np.abs(geo.circle_average_pp(k, 8) - np.pi * geo.projector(k)).max())
                for k in ks)
    report.add_check("circle_average_pp == pi*Pi[k]", worst, 1e-12, worst < 1e-12)

    v = rng.normal(size=(n, 3))
    vs = rng.normal(size=(n, 3)) + np.array([1.5, 0, 0])
    theta = rng.uniform(0, np.pi / 2, size=n)
    phi = rng.uniform(0, 2 * np.pi, size=n)
    u = v - vs
    r = np.sqrt(np.sum(u**2, axis=1))
    k = u / r[:, None]
    sigma, p = geo.sigma_from_angles(k, theta, phi)
    vp, vsp = geo.post_collision(v, vs, sigma)
    equiv = np.abs(np.sum((sigma - k) ** 2, axis=1) - 2.0 * (1.0 - np.sum(k * sigma, axis=1)))
    report.add_check("|sigma-k|^2 == 2(1-k.sigma)", float(equiv.max()), 1e-12, float(equiv.max()) < 1e-12)

    mom = np.abs(vp + vsp - v - vs).max(axis=1) / np.maximum(np.abs(v + vs).max(axis=1), 1.0)
    en = np.abs(np.sum(vp**2 + vsp**2 - v**2 - vs**2, axis=1)) / np.sum(v**2 + vs**2, axis=1)
    worst = float(max(mom.max(), en.max()))
    report.add_check("collision conservation (relative)", worst, 1e-10, worst < 1e-10)

    th = np.linspace(1e-6, np.pi, 2001)
    lo = (2.0 / np.pi**2) * th**2 <= 1.0 - np.cos(th) + 1e-15
    hi = 1.0 - np.cos(th) <= 0.5 * th**2 + 1e-15
    th2 = np.linspace(1e-6, np.pi / 2, 1001)
    sin_lo = (2.0 / np.pi) * th2 <= np.sin(th2) + 1e-15
    sin_hi = np.sin(th2) <= th2 + 1e-15
    ok = bool(lo.all() and hi.all() and sin_lo.all() and sin_hi.all())
    report.add_check("cosine/sine sandwich bounds", 0.0 if ok else 1.0, 0.5, ok)

    x = 0.5 * u
    xp = 0.5 * (vp - vsp)
    yp = 0.5 * (vp + vsp)
    bob = max(float(np.abs(xp - np.sqrt(np.sum(x**2, axis=1))[:, None] * sigma).max()),
              float(np.abs(yp - 0.5 * (v + vs)).max()))
    report.add_check("x' = |x| sigma and y' = y", bob, 1e-12, bob < 1e-12)

    eps_list = cfg["params"].get("transfer_eps", [1.0, 0.3, 0.1, 0.03, 0.01])
    worst = 0.0
    for eps in eps_list:
        ker = build_kernel(cfg, spec, epsilon=eps)
        t = kn.momentum_transfer(ker.angular, spec)
        worst = _worst(max, worst, abs(t - kn.TRANSFER))
        report.rows.append({"check": "momentum_transfer", "eps": float(eps), "value": t})
    report.add_check("momentum transfer == 8/pi across eps", worst, 1e-6, worst < 1e-6)

    ker = build_kernel(cfg, spec)
    if ker.angular.variant == "rescaled":
        thetas = np.linspace(ker.angular.epsilon / 2 * 1.0000001, np.pi / 2, 500)
        sup = float(np.abs(kn.beta_eps(ker.angular, thetas)).max())
        report.add_check("beta_eps support in (0, eps/2)", sup, 0.0, sup == 0.0)
    grid_th = np.logspace(-8, np.log10(np.pi / 2), 200)
    prof = ker.angular.base
    bound = float((prof(grid_th) * grid_th ** (1.0 + prof.nu)).min())
    report.add_check("singularity lower bound c1", bound, prof.c1 * (1 - 1e-9),
                     bound >= prof.c1 * (1 - 1e-9))


def _run_limit_check(cfg: dict, spec: QuadratureSpec, report: Report) -> None:
    f = build_density(cfg)
    eps_list = cfg["kernel"].get("eps_list", [1.0, 0.5, 0.25, 0.125])
    kernel = build_kernel(cfg, spec, epsilon=eps_list[0])
    for jp, entry in enumerate(cfg["testfns"]):
        psi = build_testfn(entry)
        rep = op.grazing_limit_study(f, psi, kernel, eps_list, spec)
        for row in rep.rows():
            row["psi"] = jp
            report.rows.append(row)
        at_floor = all(e <= rep.metadata["noise_floor"] for e in rep.abs_errors)
        decreasing = all(b < a for a, b in zip(rep.abs_errors, rep.abs_errors[1:]))
        if at_floor:
            # equilibrium-style pairing: errors live at the quadrature noise
            # floor, so neither decrease nor an order is meaningful
            report.add_check(f"psi{jp}: errors at noise floor (flagged, no order)",
                             0.0, 0.5, rep.fitted_order is None)
        else:
            report.add_check(f"psi{jp}: |Q_B_eps - Q_L| strictly decreasing",
                             0.0 if decreasing else 1.0, 0.5, decreasing)
            report.add_check(f"psi{jp}: fitted order >= 0.9",
                             rep.fitted_order if rep.fitted_order is not None else -1.0,
                             0.9, rep.fitted_order is not None and rep.fitted_order >= 0.9)


def _run_dissipation_study(cfg: dict, spec: QuadratureSpec, report: Report) -> None:
    f = build_density(cfg)
    eps_list = cfg["kernel"].get("eps_list",
                                 [1.0, 0.5, 0.25, 0.125, 1e-2, 1e-3, 1e-4, 1e-5])
    kernel = build_kernel(cfg, spec, epsilon=eps_list[0])
    psis = [build_testfn(e) for e in cfg["ds_testfns"]]
    study = dp.dissipation_study(f, kernel, eps_list, psis, spec)

    chain_ok = True
    for row in study["rows"]:
        aff = _worst(max, *row["affine_boltzmann"]) if row["affine_boltzmann"] else 0.0
        tol = 10.0 * (row["err_D_B"] + row["err_D_R"]) + 1e-10
        ok = (0.0 <= aff <= row["D_B_R"] + tol) and (row["D_B_R"] <= row["D_B_eps"] + tol)
        chain_ok = chain_ok and ok
        report.rows.append({
            "eps": row["eps"], "D_B_eps": row["D_B_eps"], "D_B_R": row["D_B_R"],
            "D_L": row["D_L"], "affine_max": aff, "err_D_B": row["err_D_B"],
            "ordering": "pass" if ok else "fail",
        })
    report.add_check("chain 0 <= affine <= D_B^R <= D_B_eps at every eps",
                     0.0 if chain_ok else 1.0, 0.5, chain_ok)
    for j, av in enumerate(study["affine_landau"]):
        ok = av <= study["landau"] + 10.0 * study["landau_error"] + 1e-10
        report.add_check(f"affine_landau(psi{j}) <= D_L", av, study["landau"], ok)
    gaps = [row["gap"] for row in study["rows"]]
    decreasing = all(b < a for a, b in zip(gaps, gaps[1:]))
    report.add_check("|D_B_eps - D_L| decreasing along sweep",
                     0.0 if decreasing else 1.0, 0.5, decreasing)
    last = study["rows"][-1]
    tol = 10.0 * (last["err_D_B"] + study["landau_error"])
    report.add_check("final gap explained by quadrature error x10", last["gap"], tol,
                     last["gap"] <= tol)


def _random_shape_mobility(rng) -> dp.Mobility:
    """Random bounded shape times the natural weight Lambda(f) B_eps, i.e. a
    random admissible collision rate."""
    coef = rng.normal(size=4)
    e = rng.normal(size=3)
    e /= np.linalg.norm(e)

    def field(node):
        r2 = fn.sq3(node.v - node.v_star)
        shape = (coef[0] + coef[1] * (node.sigma @ e)
                 + coef[2] * np.exp(-0.1 * r2) + coef[3] * np.cos(node.theta))
        return shape * node.lam_b

    return dp.Mobility(kind="boltzmann", field=field)


def _run_metric_affine(cfg: dict, spec: QuadratureSpec, report: Report) -> None:
    f = build_density(cfg)
    kernel = build_kernel(cfg, spec)
    rng = np.random.default_rng(spec.seed)
    n_pairs = int(cfg["params"].get("n_pairs", 50))
    gamma = kernel.gamma

    worst_viol = 0.0
    for i in range(n_pairs):
        w = float(rng.uniform(2.5, 5.0))
        quad = np.diag(rng.normal(size=3))
        psi = fn.gaussian_testfn(const=float(rng.normal()), quad=quad, width=w)
        if i % 2 == 0:
            M = _random_shape_mobility(rng)
            act, aff = dp._action_and_dual(f, M, psi, kernel, spec)
        else:
            coef = rng.normal(size=3)
            # (grad - grad_*) of a linear function vanishes, so the base
            # shape is quadratic: c v1^2 gives 2c (v1 - v1*) e1
            base = dp.gradient_mobility_landau(
                fn.polynomial_testfn(quad=np.diag([coef[2], 0.0, 0.0])), gamma)

            def lfield(chunk, _c=coef, _base=base):
                shape = _c[0] + _c[1] * np.exp(-0.1 * fn.sq3(chunk.v - chunk.v_star))
                return shape[..., None] * _base.field(chunk)

            M = dp.Mobility(kind="landau", field=lfield)
            act, aff = dp._landau_action_and_dual(f, M, psi, gamma, spec)
        viol = aff.value - act.value
        worst_viol = _worst(max, worst_viol, viol)
        report.rows.append({"pair": i, "kind": "boltzmann" if i % 2 == 0 else "landau",
                            "action": act.value, "metric_affine": aff.value,
                            "ok": "pass" if viol <= 1e-12 * max(1.0, abs(act.value)) else "fail"})
    report.add_check("metric_affine <= action on random pairs", worst_viol, 0.0,
                     worst_viol <= 1e-12)

    psi = build_testfn(cfg["testfns"][1] if len(cfg["testfns"]) > 1 else cfg["testfns"][0])
    act, aff = dp._action_and_dual(f, dp.gradient_mobility_boltzmann(psi), psi, kernel, spec)
    rel = abs(act.value - aff.value) / max(abs(act.value), 1e-300)
    report.add_check("equality at gradient-type mobility (boltzmann)", rel, 1e-6, rel < 1e-6)
    actL, affL = dp._landau_action_and_dual(f, dp.gradient_mobility_landau(psi, gamma), psi,
                                            gamma, spec)
    relL = abs(actL.value - affL.value) / max(abs(actL.value), 1e-300)
    report.add_check("equality at gradient-type mobility (landau)", relL, 1e-6, relL < 1e-6)


def _run_projection(cfg: dict, spec: QuadratureSpec, report: Report) -> None:
    params = cfg["params"]
    gamma = float(cfg["kernel"]["gamma"])
    delta = float(params.get("delta", 0.5))
    R = float(params.get("R", 4.0))
    y_radius = float(params.get("y_radius", 3.0))
    grid = pj.shell_grid(delta, R, n_shells=int(params.get("n_shells", 5)),
                         y_radius=y_radius, n_y=int(params.get("n_y", 5)),
                         lmax=int(params.get("lmax", 16)))

    A = np.asarray(params.get("as_matrix", [[0.0, 1.0, 0.3], [-0.5, 0.2, 0.0],
                                            [0.1, -0.7, 0.4]]), dtype=float)
    V = fn.bump_testfn("AS", {"delta": delta, "R": R}, modulation={"matrix": A},
                       y_radius=y_radius)
    _, diag = pj.project_vector_field(V, grid, gamma)
    gap = abs(diag["norm_projected_V_sq"] - diag["norm_gradient_sq"] - diag["norm_residual_sq"])
    rel = gap / max(diag["norm_projected_V_sq"], 1e-300)
    report.rows.append({"case": "generic", **{k: float(v) for k, v in diag.items()}})
    report.add_check("per-shell spectral residual", diag["max_spectral_residual"], 1e-10,
                     diag["max_spectral_residual"] < 1e-10)
    report.add_check("odd-degree coefficients", diag["max_odd_degree_coeff"], 1e-10,
                     diag["max_odd_degree_coeff"] < 1e-10)
    report.add_check("orthogonal decomposition (relative)", rel, 1e-6, rel < 1e-6)

    xq = np.asarray(params.get("ds_x_quad", [[1.0, 0, 0], [0, -0.3, 0], [0, 0, -0.7]]),
                    dtype=float)
    phi = fn.bump_testfn("DS", {"delta": delta, "R": R},
                         modulation={"const": 0.0, "x_quad": xq}, y_radius=y_radius)
    Vg = fn.gradient_type_field(phi, gamma)
    field2, diag2 = pj.project_vector_field(Vg, grid, gamma)
    tr = grid.transform()
    err = 0.0
    for a, r in enumerate(grid.radii):
        pv = phi.value(*pj.shell_pairs(float(r), grid.y_nodes, tr))
        mean = (tr.quad_weights * pv).reshape(pv.shape[0], -1).sum(-1) / (4.0 * np.pi)
        rec = tr.synthesize(field2.coefficients[a])
        err = _worst(max, err, float(np.abs(rec - (pv - mean[:, None, None])).max()))
    report.rows.append({"case": "round_trip", "max_error": err,
                        "residual_sq": diag2["norm_residual_sq"]})
    report.add_check("gradient-type round trip", err, 1e-6, err < 1e-6)


def _run_compactness(cfg: dict, spec: QuadratureSpec, report: Report) -> None:
    f = build_density(cfg)
    params = cfg["params"]
    kernel = build_kernel(cfg, spec)
    if not kernel.kinetic_cutoff:
        kernel = kn.CollisionKernel(gamma=kernel.gamma, angular=kernel.angular,
                                    kinetic_cutoff=True)

    grids = _compactness_grids(params)
    worst = 0.0
    lim_err = 0.0
    for eps in grids["s_eps_grid"]:
        ker = kernel.with_epsilon(eps)
        for z in grids["z_grid"]:
            s = cp.s_eps(z, ker, spec)
            worst = _worst(max, worst, abs(s))
            report.rows.append({"quantity": "s_eps", "eps": float(eps), "z": float(z),
                                "value": s})
            if eps == 1e-3:
                lim = 6.0 if z < 1.0 else 2.0 * (3.0 + kernel.gamma) * z ** kernel.gamma
                lim_err = _worst(max, lim_err, abs(s - lim) / lim)
    report.add_check("|S_eps| <= 12 on the (z, eps) grid", worst, 12.0, worst <= 12.0)
    report.add_check("S_eps -> 6 (|z| < 1), 2(3+gamma)|z|^gamma (|z| >= 1) within 1% "
                     "at eps=1e-3", lim_err, 0.01, lim_err < 0.01)

    lhs, rhs = cp.cancellation_identity_check(f, kernel, spec)
    gap = abs(lhs.value - rhs.value)
    tol = 10.0 * (lhs.error_estimate + rhs.error_estimate) + 1e-9
    report.rows.append({"quantity": "cancellation", "lhs": lhs.value, "rhs": rhs.value,
                        "gap": gap})
    report.add_check("cancellation identity gap", gap, tol, gap <= tol)
    report.add_check("|cancellation lhs| <= 12", abs(lhs.value), 12.0, abs(lhs.value) <= 12.0)

    ok = True
    for eps in grids["avg_eps_grid"]:
        ker = kernel.with_epsilon(eps)
        for xn in grids["xi_norms"]:
            lhs_a, rhs_a = cp.fourier_avg_lower_bound([xn, 0.0, 0.0], ker, spec)
            ok = ok and (lhs_a >= rhs_a)
            report.rows.append({"quantity": "avg_lower_bound", "eps": float(eps),
                                "xi": float(xn), "lhs": lhs_a, "rhs": rhs_a})
    report.add_check("angular-average lower bound lhs >= rhs", 0.0 if ok else 1.0, 0.5, ok)

    floor = np.inf
    for xn in np.geomspace(0.05, 20.0, 12):
        gapv = cp.fourier_positivity_gap(f, [xn / np.sqrt(3)] * 3)
        ratio = gapv / min(xn**2, 1.0)
        floor = _worst(min, floor, ratio)
    report.rows.append({"quantity": "positivity_floor", "C_f": float(floor)})
    report.add_check("positivity gap has a positive fitted floor", float(floor), 0.0,
                     floor > 0.0)

    R = float(params.get("cutoff_R", 5.0))
    fR = cp.CutoffDensity(f, R=R)
    grid = cp.FourierGrid(n=int(params.get("fourier_n", 160)),
                          half_width=float(params.get("fourier_half_width", 8.0)))
    sn = cp.weighted_seminorm(fR, kernel.angular.base.nu, grid)
    ratios = []
    for eps in grids["seminorm_eps_grid"]:
        dB = dp.boltzmann_dissipation(f, kernel.with_epsilon(eps), spec)
        ratios.append(sn / (dB.value + 1.0))
        report.rows.append({"quantity": "seminorm_ratio", "eps": float(eps),
                            "seminorm": sn, "D_B_eps": dB.value,
                            "ratio": ratios[-1]})
    c_r = _worst(max, *ratios)
    report.rows.append({"quantity": "fitted_C_R", "value": float(c_r)})
    spread = float(c_r / _worst(min, *ratios))
    report.add_check("seminorm/(D_B+1) max/min across sweep < 2", spread, 2.0, spread < 2.0)
    c2 = cp.truncation_constant(f, kernel, spec)
    report.rows.append({"quantity": "truncation_constant", "value": float(c2)})
    closed = 150.0 * np.pi * (2.0 * f.moments.energy * f.moments.mass) * kn.TRANSFER
    rel = abs(c2 - closed) / closed
    report.add_check("truncation constant = 150 pi 2E mass (8/pi) (relative)", rel, 1e-6,
                     rel <= 1e-6)


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
    out = cfg.get("output")
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

    if args.output:
        config["output"] = args.output
    if args.format:
        config["format"] = args.format
    try:
        report = run(config)
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
