"""Entropy dissipations, their affine (dual) representations, and actions.

The Boltzmann dissipation is assembled in product form
(difference x log-difference), never by dividing by the logarithmic mean, so
nodes with matched pre/post densities cost nothing. Every node term reads
the sweep's Delta = log f'f*' - log ff* and F = f f*, with f'f*' = F e^Delta:

    D_B    (f'f*' - ff*)(log f'f*' - log ff*)   = F expm1(Delta) Delta
    D_B^R  (sqrt(f'f*') - sqrt(ff*))^2           = F expm1(Delta/2)^2
    Lambda (f'f*' - ff*)/(log f'f*' - log ff*)  = F expm1(Delta)/Delta

so a small Delta loses no digits to the difference f'f*' - ff*. The
entropy-dissipation identity D_B = -1/2 int int F int Delta B_eps (the
pre/post involution maps F' Delta to -F Delta) is a second route to D_B
from the same sweep.

Affine representations are evaluated for explicit test functions; suprema
are taken over configured finite families (optionally with the optimal
scalar rescaling, which keeps every reported affine value nonnegative and
as tight as the family allows).

Actions and their metric-affine duals share one set of angular nodes, so the
pointwise Young inequality makes the duality hold exactly in the discrete
sums, with equality at gradient-type mobilities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .functions import GaussianMixture, PairScalarTestFunction, dot3, sq3
from .kernels import CollisionKernel
from .operators import _log_mean, collision_sweep, collision_sweeps, pair_grid, pair_reduce
from .quadrature import IntegralResult, QuadratureSpec, coarse_fine


class DissipationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# scalar building blocks


def log_mean(a, b):
    """Logarithmic mean (b - a)/(log b - log a), defined as a when a = b.

    The formula the sweep's Lambda(f) runs: a expm1(d)/d with
    d = log b - log a, which keeps its relative accuracy for ratios near
    one, exactly where small-deflection collisions live. Accepts scalars or
    arrays; inputs must be positive.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any(a <= 0.0) or np.any(b <= 0.0):
        raise DissipationError("log_mean needs positive arguments")
    out = _log_mean(a, np.log(b) - np.log(a))
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# dissipations


def _diss_term(node):
    return np.expm1(node.dlogF) * node.dlogF


def _reduced_term(node):
    return np.expm1(0.5 * node.dlogF) ** 2


def _identity_term(node):
    return node.dlogF


def _kin(chunk):
    return chunk.kin


def _F_kin(chunk):
    return chunk.F * chunk.kin


def _sqF_kin(chunk):
    return chunk.sqF * chunk.kin


def _affine_terms(psis: list[PairScalarTestFunction]) -> tuple[dict, dict]:
    """Terms and pair factors of both affine Boltzmann pieces of each psi_j:
    lin{j} = int sqrt(ff*) int dbar psi_j B_eps, quad{j} = int int |dbar psi_j|^2 B_eps."""
    terms, factors = {}, {}
    for j, psi in enumerate(psis):
        terms[f"lin{j}"] = lambda n, _psi=psi: n.dbar(_psi)
        terms[f"quad{j}"] = lambda n, _psi=psi: n.dbar(_psi) ** 2
        factors[f"lin{j}"] = _sqF_kin
        factors[f"quad{j}"] = _kin
    return terms, factors


def _study_pieces(f: GaussianMixture, kernels: list[CollisionKernel], spec: QuadratureSpec,
                  psis: list[PairScalarTestFunction]) -> list[dict[str, float]]:
    """One batched sweep computing, for each kernel, D_B, D_B^R, the identity
    route D_B^id and both affine pieces for every psi."""
    terms, factors = _affine_terms(psis)
    outs = collision_sweeps(
        pair_grid(f, spec), kernels, spec,
        terms={"diss": _diss_term, "reduced": _reduced_term, "ident": _identity_term, **terms},
        pair_factors={"diss": _F_kin, "reduced": _F_kin, "ident": _F_kin, **factors})
    return [{"D_B": 0.25 * out.pop("diss"), "D_R": out.pop("reduced"),
             "D_id": -0.5 * out.pop("ident"), **out} for out in outs]


def boltzmann_dissipations(f: GaussianMixture, kernels: list[CollisionKernel],
                           spec: QuadratureSpec) -> list[IntegralResult]:
    """boltzmann_dissipation for each kernel of a batch that differs only in
    eps, from one coarse and one fine batched sweep."""
    def level(s):
        outs = collision_sweeps(pair_grid(f, s), kernels, s, terms={"diss": _diss_term},
                                pair_factors={"diss": _F_kin})
        return [0.25 * out["diss"] for out in outs]

    return coarse_fine(level, spec)


def boltzmann_dissipation(f: GaussianMixture, kernel: CollisionKernel,
                          spec: QuadratureSpec) -> IntegralResult:
    """D_B_eps(f) = 1/4 int int int (f'f*' - ff*)(log f'f*' - log ff*) B_eps."""
    return boltzmann_dissipations(f, [kernel], spec)[0]


def reduced_boltzmann_dissipation(f: GaussianMixture, kernel: CollisionKernel,
                                  spec: QuadratureSpec) -> IntegralResult:
    """D_B^R(f) = int int int (sqrt(f'f*') - sqrt(ff*))^2 B_eps, a pointwise
    lower bound of the full dissipation."""
    return coarse_fine(lambda s: _study_pieces(f, [kernel], s, [])[0], spec)["D_R"]


def _landau_dissipation_at(f: GaussianMixture, gamma: float, spec: QuadratureSpec) -> float:
    def term(c):
        # |Pi G|^2 as |G - (k.G) k|^2, nonnegative by construction: the
        # difference |G|^2 - (k.G)^2 is roundoff of either sign where G || k
        # (a Maxwellian)
        G = f.grad_log(c.v) - f.grad_log(c.v_star)
        pg2 = sq3(G - dot3(c.k, G)[..., None] * c.k)
        return c.pair_value * c.r ** (2.0 + gamma) * pg2

    return 0.5 * pair_reduce(pair_grid(f, spec), {"d": term})["d"]


def landau_dissipation(f: GaussianMixture, gamma: float, spec: QuadratureSpec) -> IntegralResult:
    """D_L(f) = 2 int int |v-v*|^(2+gamma) |Pi (grad - grad_*) sqrt(ff*)|^2,
    evaluated through the analytic log-gradient
    (grad - grad_*) sqrt(ff*) = (1/2) sqrt(ff*) (grad log f - grad_* log f*)."""
    return coarse_fine(lambda s: _landau_dissipation_at(f, gamma, s), spec)


# ---------------------------------------------------------------------------
# affine (dual) representations of the dissipations


def _affine_landau_pieces(f: GaussianMixture, arg, gamma: float,
                          spec: QuadratureSpec) -> tuple[float, float]:
    """(linear, quadratic) with affine value = -4*linear - 2*quadratic."""
    grid = pair_grid(f, spec)
    if arg.kind == "DS":
        def lin(c):
            return c.sqF * (c.r ** (2.0 + gamma) * c.div_pi_grad(arg))

        def quad(c):
            return sq3(c.dtilde(arg, gamma))
    elif arg.kind == "AS":
        def lin(c):
            return c.sqF * c.r ** (1.0 + 0.5 * gamma) * c.div_projected(arg)

        def quad(c):
            return sq3(arg.value(c.x, c.y))
    else:
        raise DissipationError("affine_landau needs a DS scalar or AS vector field")
    out = pair_reduce(grid, {"lin": lin, "quad": quad})
    return out["lin"], out["quad"]


def affine_landau(f: GaussianMixture, arg, gamma: float, spec: QuadratureSpec) -> IntegralResult:
    """Affine lower-bound value for the Landau dissipation.

    DS scalar psi: -4 int sqrt(ff*) dtilde.dtilde psi - 2 int |dtilde psi|^2.
    AS field xi:   -4 int sqrt(ff*) |v-v*|^(1+gamma/2) div(Pi xi) - 2 int |xi|^2.
    Always <= D_L(f) up to quadrature tolerance.
    """
    def level(s):
        lin, quad = _affine_landau_pieces(f, arg, gamma, s)
        return -4.0 * lin - 2.0 * quad

    return coarse_fine(level, spec)


def _affine_boltzmann_pieces(f: GaussianMixture, psi: PairScalarTestFunction,
                             kernel: CollisionKernel, spec: QuadratureSpec) -> tuple[float, float]:
    """(linear, quadratic) with affine value = -2*linear - quadratic/4."""
    out = collision_sweep(pair_grid(f, spec), kernel, spec, *_affine_terms([psi]))
    return out["lin0"], out["quad0"]


def affine_boltzmann(f: GaussianMixture, psi: PairScalarTestFunction,
                     kernel: CollisionKernel, spec: QuadratureSpec) -> IntegralResult:
    """Affine lower-bound value for the Boltzmann dissipation:

        -2 int int sqrt(ff*) (int dbar psi B_eps) - 1/4 int int int |dbar psi|^2 B_eps

    for DS test functions; <= D_B^R(f) <= D_B_eps(f) up to quadrature tolerance.
    """
    if psi.kind != "DS":
        raise DissipationError("affine_boltzmann needs a DS test function")

    def level(s):
        lin, quad = _affine_boltzmann_pieces(f, psi, kernel, s)
        return -2.0 * lin - 0.25 * quad

    return coarse_fine(level, spec)


def optimal_scaling(linear: float, quadratic: float, kind: str) -> tuple[float, float]:
    """Best scalar s for the affine value of s*psi, and the value there.

    Boltzmann: value(s) = -2 L s - (Q/4) s^2, maximized at s = -4L/Q.
    Landau:    value(s) = -4 L s - 2 Q s^2,  maximized at s = -L/Q.
    """
    if quadratic <= 0.0:
        return 0.0, 0.0
    if kind == "boltzmann":
        s = -4.0 * linear / quadratic
        return s, 4.0 * linear**2 / quadratic
    s = -linear / quadratic
    return s, 2.0 * linear**2 / quadratic


# ---------------------------------------------------------------------------
# mobilities, actions, metric-affine duals


@dataclass(frozen=True)
class Mobility:
    """A collision rate (scalar on pairs x sphere) or grazing rate (vector on pairs).

    boltzmann kind: field(node) -> (C, n_phi) scalar, reading the sweep's
        operators.CollisionNode (v, v*, sigma, theta, dbar psi, Lambda B_eps);
        the swapped value M(v*, v, -sigma) is field(node.swapped)
    landau kind:    field(chunk) -> (C, 3) vector, reading the sweep's
        operators.PairChunk
    Both are evaluated through node.m / chunk.m, once per node or chunk.
    """

    kind: str
    field: Callable

    def __post_init__(self) -> None:
        if self.kind not in ("boltzmann", "landau"):
            raise DissipationError(f"unknown mobility kind {self.kind!r}")


def gradient_mobility_boltzmann(psi) -> Mobility:
    """The optimal-rate shape M = dbar(psi) * Lambda(f) * B_eps, for the density
    and kernel of the sweep that reads it."""
    return Mobility(kind="boltzmann", field=lambda node: node.dbar(psi) * node.lam_b)


def gradient_mobility_landau(psi, gamma: float) -> Mobility:
    """The optimal-rate shape M = dtilde(psi) * f f*, for the density of the
    sweep that reads it."""
    return Mobility(kind="landau",
                    field=lambda chunk: chunk.pair_value[..., None] * chunk.dtilde(psi, gamma))


def _action_metric_pieces(f: GaussianMixture, M: Mobility, psi, kernel: CollisionKernel,
                          spec: QuadratureSpec) -> dict[str, float]:
    """One sweep for the Boltzmann action and, given psi, its metric-affine dual.

    All pieces read the same node state (the mobility values, Lambda,
    beta_eps and dbar psi), so Young's inequality holds exactly in the
    discrete sums and each field is evaluated once per node.
    """
    def action_term(node):
        m, msym = node.m(M), node.m_sym(M)
        m2 = 0.5 * (m**2 + msym**2)
        return m2 * node.sin_theta ** 2 / (node.lam * node.beta**2)

    def pair_m(node):
        return 0.5 * (node.m(M) + node.m_sym(M)) * node.dbar(psi) * node.sin_theta / node.beta

    def quad_term(node):
        return node.dbar(psi) ** 2 * node.lam

    terms: dict[str, Callable] = {"action": action_term}
    factors: dict[str, Callable] = {"action": lambda c: 1.0 / c.kin}
    if psi is not None:
        terms["m_dpsi"] = pair_m
        factors["m_dpsi"] = lambda c: np.ones(c.r.shape)
        terms["dpsi2_lam"] = quad_term
        factors["dpsi2_lam"] = _kin
    out = collision_sweep(pair_grid(f, spec), kernel, spec, terms=terms, pair_factors=factors)
    pieces = {"action": 0.25 * out["action"]}
    if psi is not None:
        pieces["dual"] = 0.5 * out["m_dpsi"] - 0.25 * out["dpsi2_lam"]
    return pieces


def _action_and_dual(f: GaussianMixture, M: Mobility, psi, kernel: CollisionKernel,
                     spec: QuadratureSpec) -> tuple[IntegralResult, IntegralResult | None]:
    """The Boltzmann action and (for psi not None) its metric-affine dual,
    from one coarse and one fine sweep."""
    if M.kind != "boltzmann":
        raise DissipationError("the Boltzmann action and its dual need a boltzmann-kind mobility")
    out = coarse_fine(lambda s: _action_metric_pieces(f, M, psi, kernel, s), spec)
    return out["action"], out.get("dual")


def boltzmann_action(f: GaussianMixture, M: Mobility, kernel: CollisionKernel,
                     spec: QuadratureSpec) -> IntegralResult:
    """A_B(f, M) = 1/4 int int int |M|^2 / (Lambda(f) B_eps), restricted to the
    kernel's angular support (B_eps vanishes outside it)."""
    return _action_and_dual(f, M, None, kernel, spec)[0]


def metric_affine_boltzmann(f: GaussianMixture, M: Mobility, psi, kernel: CollisionKernel,
                            spec: QuadratureSpec) -> IntegralResult:
    """1/2 int M dbar(psi) - 1/4 int |dbar psi|^2 Lambda(f) B_eps; at most the
    action for every psi, with equality at the matching gradient-type M."""
    return _action_and_dual(f, M, psi, kernel, spec)[1]


def _landau_action_pieces(f: GaussianMixture, M: Mobility, psi, gamma: float,
                          spec: QuadratureSpec) -> dict[str, float]:
    """One pair reduction for the Landau action and, given psi, its dual; the
    mobility, dtilde psi and f f* are read once per chunk."""
    fns = {"action": lambda c: sq3(c.m(M)) / c.pair_value}
    if psi is not None:
        fns["m_dpsi"] = lambda c: dot3(c.m(M), c.dtilde(psi, gamma))
        fns["quad"] = lambda c: sq3(c.dtilde(psi, gamma)) * c.pair_value
    out = pair_reduce(pair_grid(f, spec), fns)
    pieces = {"action": 0.5 * out["action"]}
    if psi is not None:
        pieces["dual"] = out["m_dpsi"] - 0.5 * out["quad"]
    return pieces


def _landau_action_and_dual(f: GaussianMixture, M: Mobility, psi, gamma: float,
                            spec: QuadratureSpec) -> tuple[IntegralResult, IntegralResult | None]:
    """The Landau action and (for psi not None) its metric-affine dual, from
    one coarse and one fine reduction."""
    if M.kind != "landau":
        raise DissipationError("the Landau action and its dual need a landau-kind mobility")
    out = coarse_fine(lambda s: _landau_action_pieces(f, M, psi, gamma, s), spec)
    return out["action"], out.get("dual")


def landau_action(f: GaussianMixture, M: Mobility, spec: QuadratureSpec) -> IntegralResult:
    """A_L(f, M) = 1/2 int int |M|^2 / (f f*)."""
    return _landau_action_and_dual(f, M, None, 0.0, spec)[0]


def metric_affine_landau(f: GaussianMixture, M: Mobility, psi, gamma: float,
                         spec: QuadratureSpec) -> IntegralResult:
    """int M . dtilde(psi) - 1/2 int |dtilde psi|^2 f f*; at most the Landau
    action, with equality at the matching gradient-type M."""
    return _landau_action_and_dual(f, M, psi, gamma, spec)[1]


def dissipation_study(f: GaussianMixture, kernel: CollisionKernel, eps_list: list[float],
                      psis: list[PairScalarTestFunction], spec: QuadratureSpec) -> dict:
    """Epsilon sweep of the dissipation chain.

    Per eps: D_B_eps, its identity route D_B^id = -1/2 int int F int Delta
    B_eps, D_B^R, and for every DS psi the affine value with the optimal
    scalar rescaling (so reported affine values are nonnegative and the
    chain 0 <= affine <= D_B^R <= D_B_eps can be checked directly).
    The eps-free Landau quantities are computed once, and every eps comes
    from one coarse and one fine batched sweep.
    """
    eps_list = [float(e) for e in eps_list]
    if any(e2 >= e1 for e1, e2 in zip(eps_list, eps_list[1:])):
        raise DissipationError("eps_list must be strictly decreasing")
    gamma = kernel.gamma
    dL = landau_dissipation(f, gamma, spec)
    affine_L = []
    for psi in psis:
        lv, qv = _affine_landau_pieces(f, psi, gamma, spec)
        _, best = optimal_scaling(lv, qv, "landau")
        affine_L.append(best)
    kernels = [kernel.with_epsilon(eps) for eps in eps_list]
    pieces = coarse_fine(lambda s: _study_pieces(f, kernels, s, psis), spec)
    rows = []
    for eps, res in zip(eps_list, pieces):
        d_b, d_id, d_r = res["D_B"], res["D_id"], res["D_R"]
        affine_vals = []
        for j in range(len(psis)):
            _, best = optimal_scaling(res[f"lin{j}"].value, res[f"quad{j}"].value, "boltzmann")
            affine_vals.append(best)
        rows.append({
            "eps": eps,
            "D_B_eps": d_b.value,
            "D_B_id": d_id.value,
            "D_B_R": d_r.value,
            "D_L": dL.value,
            "err_D_B": d_b.error_estimate,
            "err_D_B_id": d_id.error_estimate,
            "err_D_R": d_r.error_estimate,
            "affine_boltzmann": affine_vals,
            "gap": abs(d_b.value - dL.value),
        })
    return {
        "rows": rows,
        "landau": dL.value,
        "landau_error": dL.error_estimate,
        "affine_landau": affine_L,
    }
