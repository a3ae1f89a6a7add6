"""Pinned workload configs and the checks run on their reports.

Each workload is a list of `grazing_lab.cli.run` configs. Every field the
experiments read is written out here rather than left to the program's
defaults, so a change of defaults cannot change what is measured. The only
input drawn from the workload seed is `quadrature.seed`, which sets
`metric_affine`'s random mobility/test pairs; the other experiments ignore it.

The checks read the in-process reports (rows and summary dicts) and compare
them against `reference` or against properties the method must have. This
module does not import `grazing_lab`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import reference as ref

QUADRATURE = {"pair_nodes": 6, "theta_panels": 2, "theta_nodes_per_panel": 8,
              "sphere_phi_nodes": 8}

ANISO = [[1.0, [0.0, 0.0, 0.0], [1.0, 1.0, 4.0]]]
MIXTURE = [[0.5, [2.0, 0.0, 0.0], [1.0, 1.0, 1.0]],
           [0.5, [-2.0, 0.0, 0.0], [1.0, 1.0, 1.0]]]

TESTFNS = [
    {"kind": "poly", "quad": [[0, 0, 0], [0, 0, 0], [0, 0, 1.0]]},
    {"kind": "gaussian", "const": 1.0, "quad": [[0, 0, 0], [0, 0, 0], [0, 0, 1.0]],
     "width": 4.0},
]
DS_TESTFNS = [
    {"kind": "DS", "support": {"delta": 0.4, "R": 5.0},
     "modulation": {"const": 0.0, "x_quad": [[1.0, 0, 0], [0, 1.0, 0], [0, 0, -2.0]]},
     "y_radius": 6.0},
]

LIMIT_EPS = [1.0, 0.5, 0.25, 0.125]
STUDY_EPS = [1.0, 0.5, 0.25, 0.125, 1e-2, 1e-3, 1e-4, 1e-5]
DUALITY_PAIRS = 4
NU = 0.5


def _kernel(gamma: float, **extra) -> dict:
    return {"gamma": gamma, "nu": NU, "family": "power_law", "variant": "rescaled",
            "epsilon": 0.5, "kinetic_cutoff": False, **extra}


def _config(experiment: str, seed: int, kernel: dict, components, params=None) -> dict:
    return {
        "experiment": experiment,
        "format": "json",
        "output": None,
        "kernel": kernel,
        "density": {"family": "gaussian_mixture", "components": components},
        "testfns": TESTFNS,
        "ds_testfns": DS_TESTFNS,
        "quadrature": {**QUADRATURE, "seed": int(seed)},
        "params": params or {},
    }


PROJECTION_PARAMS = {"delta": 0.5, "R": 4.0, "y_radius": 3.0, "n_shells": 5, "n_y": 5,
                     "lmax": 16}
COMPACTNESS_PARAMS = {
    "z_grid": [0.25, 0.5, 1.0, 2.0, 4.0],
    "s_eps_grid": [1.0, 0.5, 0.1, 1e-2, 1e-3],
    "avg_eps_grid": [1.0, 0.1],
    "xi_norms": [0.1, 1.0, 10.0],
    "cutoff_R": 5.0,
    "fourier_n": 160,
    "fourier_half_width": 8.0,
    "seminorm_eps_grid": [1.0, 0.5, 0.25, 0.125],
}
# the xi magnitudes `compactness` scans for its positivity floor
POSITIVITY_XI = list(np.geomspace(0.05, 20.0, 12))


def configs(workload: str, seed: int) -> list[dict]:
    """The cli configs one round of `workload` runs, in order."""
    if workload == "eps-sweep":
        return [
            _config("limit_check", seed, _kernel(0.0, eps_list=LIMIT_EPS), ANISO),
            _config("dissipation_study", seed, _kernel(0.0, eps_list=STUDY_EPS), ANISO),
        ]
    if workload == "duality":
        return [_config("metric_affine", seed, _kernel(0.0), ANISO,
                        {"n_pairs": DUALITY_PAIRS})]
    if workload == "soft-mixture":
        return [
            _config("projection", seed, _kernel(-1.0), ANISO, PROJECTION_PARAMS),
            _config("compactness", seed, _kernel(-1.0, kinetic_cutoff=True), MIXTURE,
                    COMPACTNESS_PARAMS),
        ]
    raise KeyError(workload)


WORKLOADS = ("eps-sweep", "duality", "soft-mixture")


# ---------------------------------------------------------------------------
# checks


@dataclass
class Check:
    """One operation: a check that passes only on finite measured values."""

    name: str
    ok: bool
    measured: float
    limit: float
    known_fault: bool = False

    def as_dict(self) -> dict:
        def num(x):
            x = float(x)
            return x if math.isfinite(x) else repr(x)

        return {"name": self.name, "ok": bool(self.ok), "measured": num(self.measured),
                "limit": num(self.limit), "known_fault": self.known_fault}


def _finite(*xs) -> bool:
    return all(math.isfinite(float(x)) for x in xs)


def _worst(values) -> float:
    """Largest of `values`, or nan if any is non-finite (never max(0, nan))."""
    values = [float(v) for v in values]
    if not values:
        return math.nan
    if not all(math.isfinite(v) for v in values):
        return math.nan
    return max(values)


def _at_most(name: str, measured: float, limit: float, known_fault: bool = False) -> Check:
    ok = _finite(measured) and float(measured) <= limit
    return Check(name, ok, measured, limit, known_fault)


def _numbers(obj):
    """Every number in a nest of rows (dicts and lists)."""
    if isinstance(obj, dict):
        for v in obj.values():
            yield from _numbers(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _numbers(v)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield float(obj)


def _report_sound(experiment: str, report) -> Check:
    """Every summary verdict passes on a finite measured value, and every
    number in the rows is finite."""
    bad = sum(1 for s in report.summary
              if s["verdict"] != "pass" or not _finite(s["measured"]))
    bad += sum(1 for x in _numbers(report.rows) if not math.isfinite(x))
    ok = bad == 0 and len(report.summary) > 0
    return Check(f"{experiment}: every verdict passes, every number finite", ok, bad, 0)


def _summary(report, name: str) -> float:
    for s in report.summary:
        if s["check"] == name:
            return float(s["measured"])
    return math.nan


# tolerances, stated once; each is far below the effect it guards
TOL_ISSERLIS = 1e-9        # relative, q_landau and D_L against closed forms
TOL_GAP = 1e-5             # q_boltz(psi0) against -24 R(eps), relative to 24 (1 - R)
TOL_ORDER = 0.05           # fitted order against the rate 2
TOL_D_B_LIMIT = 1e-6       # relative, D_B at the smallest eps against D_L = 9
TOL_CHAIN = 1e-12          # relative slack on the dissipation chain
TOL_S_LEMMA = 1e-6         # relative, S_eps rows against the lemma
TOL_CLOSED_FORM = 1e-9     # relative, positivity floor against the closed form
TOL_TRANSFER = 1e-6        # relative, truncation constant via the transfer 8/pi


def check_eps_sweep(reports: dict) -> list[Check]:
    lim = reports["limit_check"]
    study = reports["dissipation_study"]
    q_l = ref.landau_quadratic_moment(ANISO, 2)
    d_l = ref.landau_dissipation_gaussian(ANISO[0][2])
    psi0 = [r for r in lim.rows if r["psi"] == 0]
    checks = [_report_sound("limit_check", lim), _report_sound("dissipation_study", study)]

    checks.append(_at_most(
        f"q_landau(v3^2) = {q_l:g} (Isserlis)",
        _worst(abs(r["q_landau"] - q_l) / abs(q_l) for r in psi0), TOL_ISSERLIS))
    checks.append(_at_most(
        f"D_L = {d_l:g} (Isserlis)",
        _worst(abs(r["D_L"] - d_l) / d_l for r in study.rows), TOL_ISSERLIS))

    eps_seen = [r["eps"] for r in psi0]
    q_ok = eps_seen == LIMIT_EPS
    # both against the eps-gap 24 (1 - R(eps)), which they must resolve
    def gap(r):
        return abs(q_l) * ref.one_minus_r(r["eps"], NU)

    checks.append(_at_most(
        "q_boltz(v3^2) = -24 R(eps) at every eps (relative to the gap)",
        _worst(abs(r["q_boltz"] - ref.boltzmann_quadratic_moment(ANISO, 2, r["eps"], NU))
               / gap(r) for r in psi0) if q_ok else math.nan, TOL_GAP))
    checks.append(_at_most(
        "abs_err(v3^2) = 24 (1 - R(eps)) at every eps (relative)",
        _worst(abs(r["abs_err"] - gap(r)) / gap(r) for r in psi0) if q_ok else math.nan,
        TOL_GAP))
    checks.append(_at_most(
        "fitted order(v3^2) near 2",
        abs(_summary(lim, "psi0: fitted order >= 0.9") - 2.0), TOL_ORDER))

    eps_ok = [r["eps"] for r in study.rows] == STUDY_EPS
    last = study.rows[-1]
    checks.append(_at_most(
        f"D_B(eps={STUDY_EPS[-1]:g}) approaches D_L = {d_l:g}",
        abs(last["D_B_eps"] - d_l) / d_l if eps_ok else math.nan, TOL_D_B_LIMIT))

    def chain_slack(r):
        # positive where 0 <= affine <= D_B^R <= D_B_eps is violated
        scale = TOL_CHAIN * max(abs(r["D_B_eps"]), 1.0)
        return max(-r["affine_max"], r["affine_max"] - r["D_B_R"],
                   r["D_B_R"] - r["D_B_eps"]) - scale

    checks.append(_at_most("0 <= affine <= D_B^R <= D_B at every eps",
                           _worst(chain_slack(r) for r in study.rows), 0.0))
    return checks


def check_duality(reports: dict) -> list[Check]:
    rep = reports["metric_affine"]
    kinds = [r["kind"] for r in rep.rows]
    expect = ["boltzmann" if i % 2 == 0 else "landau" for i in range(DUALITY_PAIRS)]
    shape_ok = kinds == expect

    def excess(r):
        return (r["metric_affine"] - r["action"]) / max(1.0, abs(r["action"]))

    return [
        _report_sound("metric_affine", rep),
        _at_most("metric_affine <= action on every random pair",
                 _worst(excess(r) for r in rep.rows) if shape_ok else math.nan, 1e-12),
        _at_most("action >= 0 on every random pair",
                 _worst(-r["action"] for r in rep.rows) if shape_ok else math.nan, 0.0),
        _at_most("equality at gradient-type mobility (boltzmann)",
                 _summary(rep, "equality at gradient-type mobility (boltzmann)"), 1e-6),
        _at_most("equality at gradient-type mobility (landau)",
                 _summary(rep, "equality at gradient-type mobility (landau)"), 1e-6),
    ]


def check_soft_mixture(reports: dict) -> list[Check]:
    proj = reports["projection"]
    comp = reports["compactness"]
    gamma = -1.0
    generic = next((r for r in proj.rows if r.get("case") == "generic"), None)
    trip = next((r for r in proj.rows if r.get("case") == "round_trip"), None)
    nan = math.nan

    s_rows = [r for r in comp.rows if r.get("quantity") == "s_eps"]
    grid = [(e, z) for e in COMPACTNESS_PARAMS["s_eps_grid"] for z in COMPACTNESS_PARAMS["z_grid"]]
    s_ok = [(r["eps"], r["z"]) for r in s_rows] == grid

    def s_err(r):
        want = ref.cancellation_s(r["z"], r["eps"], gamma, NU)
        return abs(r["value"] - want) / abs(want)

    if generic is not None:
        n_v, n_g, n_r = (generic[k] for k in
                         ("norm_projected_V_sq", "norm_gradient_sq", "norm_residual_sq"))
        ortho = abs(n_v - n_g - n_r) / n_v
    floor_row = next((r for r in comp.rows if r.get("quantity") == "positivity_floor"), None)
    trunc_row = next((r for r in comp.rows if r.get("quantity") == "truncation_constant"), None)
    floor_ref = ref.positivity_floor(MIXTURE, POSITIVITY_XI)
    trunc_ref = ref.truncation_constant(MIXTURE)

    return [
        _report_sound("projection", proj),
        _report_sound("compactness", comp),
        _at_most("every S_eps row agrees with the cancellation lemma's S(z)",
                 _worst(s_err(r) for r in s_rows) if s_ok else nan, TOL_S_LEMMA,
                 known_fault=True),
        _at_most("projection: per-shell spectral residual",
                 generic["max_spectral_residual"] if generic else nan, 1e-10),
        _at_most("projection: odd-degree coefficients",
                 generic["max_odd_degree_coeff"] if generic else nan, 1e-10),
        _at_most("projection: |PiV|^2 = |grad psi|^2 + |residual|^2 (relative)",
                 ortho if generic else nan, 1e-6),
        _at_most("projection: gradient-type round trip",
                 trip["max_error"] if trip else nan, 1e-6),
        _at_most("positivity floor = closed-form characteristic function (relative)",
                 abs(floor_row["C_f"] - floor_ref) / floor_ref if floor_row else nan,
                 TOL_CLOSED_FORM),
        _at_most("truncation constant = 150 pi 2E (8/pi) (relative)",
                 abs(trunc_row["value"] - trunc_ref) / trunc_ref if trunc_row else nan,
                 TOL_TRANSFER),
    ]


CHECKS = {"eps-sweep": check_eps_sweep, "duality": check_duality,
          "soft-mixture": check_soft_mixture}


def check(workload: str, reports: dict) -> list[Check]:
    return CHECKS[workload](reports)
