"""Entropy dissipations, their affine (dual) representations, and actions.

The Boltzmann dissipation is assembled in product form
(difference x log-difference), never by dividing by the logarithmic mean, so
nodes with matched pre/post densities cost nothing. Affine representations
are evaluated for explicit test functions; suprema are taken over configured
finite families (optionally with the optimal scalar rescaling, which keeps
every reported affine value nonnegative and as tight as the family allows).

Actions and their metric-affine duals share one set of angular nodes, so the
pointwise Young inequality makes the duality hold exactly in the discrete
sums, with equality at gradient-type mobilities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .functions import GaussianMixture, PairScalarTestFunction, PairVectorField, dot3, sq3
from .kernels import CollisionKernel, beta_eps
from .operators import (PairChunk, _log_mean_from_logs, _pair_grad, collision_nodes,
                        collision_sweep, dtilde, dtilde_div_dtilde, pair_grid, pair_reduce)
from .quadrature import IntegralResult, QuadratureSpec


class DissipationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# scalar building blocks


def log_mean(a, b):
    """Logarithmic mean (b - a)/(log b - log a), defined as a when a = b.

    Computed as (b - a)/log1p((b - a)/a), which is cancellation-free at any
    argument ratio (the naive quotient loses ~1e-10 of relative accuracy for
    ratios near one, exactly where small-deflection collisions live).
    Accepts scalars or arrays; inputs must be positive.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any(a <= 0.0) or np.any(b <= 0.0):
        raise DissipationError("log_mean needs positive arguments")
    r = (b - a) / a
    near = np.abs(r) < 1e-14
    safe = np.where(near, 1.0, np.log1p(np.where(near, 0.0, r)))
    out = np.where(near, a * (1.0 + 0.5 * r), (b - a) / safe)
    return float(out) if out.ndim == 0 else out


def entropy(f: GaussianMixture, spec: QuadratureSpec) -> float:
    """H[f] = int f log f, integrated per mixture component."""
    from .functions import mixture_expectation

    return mixture_expectation(f, f.log_value, spec).value


# ---------------------------------------------------------------------------
# dissipations


def _diss_term(node):
    pair = node.pair
    return (np.exp(node.logFp) - pair.F[:, None]) * (node.logFp - pair.logF[:, None])


def _reduced_term(node):
    return (np.exp(0.5 * node.logFp) - node.pair.sqF[:, None]) ** 2


def _kin(chunk):
    return chunk.kin


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


def _boltzmann_dissipations_at(f: GaussianMixture, kernel: CollisionKernel,
                               spec: QuadratureSpec) -> tuple[float, float]:
    out = collision_sweep(pair_grid(f, spec), kernel, spec,
                          terms={"diss": _diss_term, "reduced": _reduced_term},
                          pair_factors={"diss": _kin, "reduced": _kin})
    return 0.25 * out["diss"], out["reduced"]


def boltzmann_dissipation(f: GaussianMixture, kernel: CollisionKernel,
                          spec: QuadratureSpec) -> IntegralResult:
    """D_B_eps(f) = 1/4 int int int (f'f*' - ff*)(log f'f*' - log ff*) B_eps."""
    coarse, _ = _boltzmann_dissipations_at(f, kernel, spec.coarsened())
    value, _ = _boltzmann_dissipations_at(f, kernel, spec)
    return IntegralResult(value=value, error_estimate=abs(value - coarse),
                          node_count=pair_grid(f, spec).n_pairs)


def reduced_boltzmann_dissipation(f: GaussianMixture, kernel: CollisionKernel,
                                  spec: QuadratureSpec) -> IntegralResult:
    """D_B^R(f) = int int int (sqrt(f'f*') - sqrt(ff*))^2 B_eps, a pointwise
    lower bound of the full dissipation."""
    _, coarse = _boltzmann_dissipations_at(f, kernel, spec.coarsened())
    _, value = _boltzmann_dissipations_at(f, kernel, spec)
    return IntegralResult(value=value, error_estimate=abs(value - coarse),
                          node_count=pair_grid(f, spec).n_pairs)


def _landau_dissipation_at(f: GaussianMixture, gamma: float, spec: QuadratureSpec) -> float:
    grid = pair_grid(f, spec)

    def term(c):
        F = f.pair_value(c.v, c.v_star)
        G = f.grad_log(c.v) - f.grad_log(c.v_star)
        pg2 = sq3(G) - dot3(c.k, G) ** 2
        return F * c.r ** (2.0 + gamma) * pg2

    return 0.5 * pair_reduce(grid, {"d": term})["d"]


def landau_dissipation(f: GaussianMixture, gamma: float, spec: QuadratureSpec) -> IntegralResult:
    """D_L(f) = 2 int int |v-v*|^(2+gamma) |Pi (grad - grad_*) sqrt(ff*)|^2,
    evaluated through the analytic log-gradient
    (grad - grad_*) sqrt(ff*) = (1/2) sqrt(ff*) (grad log f - grad_* log f*)."""
    coarse = _landau_dissipation_at(f, gamma, spec.coarsened())
    value = _landau_dissipation_at(f, gamma, spec)
    return IntegralResult(value=value, error_estimate=abs(value - coarse),
                          node_count=pair_grid(f, spec).n_pairs)


# ---------------------------------------------------------------------------
# affine (dual) representations of the dissipations


def div_projected(V: PairVectorField, v: np.ndarray, v_star: np.ndarray) -> np.ndarray:
    """(grad - grad_*) . (Pi[v-v*] V) = div_x(Pi[x] V) for an AS field."""
    v = np.asarray(v, dtype=float)
    v_star = np.asarray(v_star, dtype=float)
    u = v - v_star
    r = np.sqrt(sq3(u))
    live = r > 1e-12
    rs = np.where(live, r, 1.0)
    uhat = u / rs[..., None]
    val = V.value(v, v_star)
    J = V.jac_x(v, v_star)
    trJ = J[..., 0, 0] + J[..., 1, 1] + J[..., 2, 2]
    uJu = dot3(uhat, np.einsum("...i,...ij->...j", uhat, J))
    out = trJ - uJu - (4.0 / rs) * dot3(uhat, val)
    return np.where(live, out, 0.0)


def _affine_landau_pieces(f: GaussianMixture, arg, gamma: float,
                          spec: QuadratureSpec) -> tuple[float, float]:
    """(linear, quadratic) with affine value = -4*linear - 2*quadratic."""
    grid = pair_grid(f, spec)
    if arg.kind == "DS":
        def lin(c):
            return c.sqF * dtilde_div_dtilde(arg, c.v, c.v_star, gamma)

        def quad(c):
            return sq3(dtilde(arg, c.v, c.v_star, gamma))
    elif arg.kind == "AS":
        def lin(c):
            return c.sqF * c.r ** (1.0 + 0.5 * gamma) * div_projected(arg, c.v, c.v_star)

        def quad(c):
            return sq3(arg.value(c.v, c.v_star))
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
    lc, qc = _affine_landau_pieces(f, arg, gamma, spec.coarsened())
    lv, qv = _affine_landau_pieces(f, arg, gamma, spec)
    value = -4.0 * lv - 2.0 * qv
    coarse = -4.0 * lc - 2.0 * qc
    return IntegralResult(value=value, error_estimate=abs(value - coarse),
                          node_count=pair_grid(f, spec).n_pairs)


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
    lc, qc = _affine_boltzmann_pieces(f, psi, kernel, spec.coarsened())
    lv, qv = _affine_boltzmann_pieces(f, psi, kernel, spec)
    value = -2.0 * lv - 0.25 * qv
    coarse = -2.0 * lc - 0.25 * qc
    return IntegralResult(value=value, error_estimate=abs(value - coarse),
                          node_count=pair_grid(f, spec).n_pairs)


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

    boltzmann kind: field(v, v_star, sigma, theta) -> (...,) scalar
    landau kind:    field(v, v_star) -> (..., 3) vector
    """

    kind: str
    field: Callable

    def __post_init__(self) -> None:
        if self.kind not in ("boltzmann", "landau"):
            raise DissipationError(f"unknown mobility kind {self.kind!r}")


@dataclass(frozen=True)
class LiftSpec:
    """Exponents of the angular-moment lift from collision rates to grazing rates.

    q = 1 on gamma in [-2, 0), q = 2 on gamma in [-4, -2);
    delta must lie in (0, -gamma/2) resp. (0, -gamma/2 - 1).
    """

    q: int
    delta: float

    def validate(self, gamma: float) -> None:
        if -2.0 <= gamma < 0.0:
            q_req, d_max = 1, -gamma / 2.0
        elif -4.0 <= gamma < -2.0:
            q_req, d_max = 2, -gamma / 2.0 - 1.0
        else:
            raise DissipationError("lift needs gamma in [-4, 0)")
        if self.q != q_req:
            raise DissipationError(f"invalid lift bracket: q must be {q_req} for gamma={gamma}")
        if not (0.0 < self.delta < d_max):
            raise DissipationError(f"invalid lift bracket: delta must lie in (0, {d_max})")


def lift_spec_for(gamma: float, delta: float | None = None) -> LiftSpec:
    """Canonical lift exponents for gamma, with delta at half its upper bound
    unless given."""
    q = 1 if gamma >= -2.0 else 2
    spec = LiftSpec(q=q, delta=delta if delta is not None else 0.5 * (-gamma / 2.0 - (q - 1)))
    spec.validate(gamma)
    return spec


def gradient_mobility_boltzmann(f: GaussianMixture, psi, kernel: CollisionKernel) -> Mobility:
    """The optimal-rate shape M = dbar(psi) * Lambda(f) * B_eps."""
    def field(v, v_star, sigma, theta):
        v = np.asarray(v, dtype=float)
        v_star = np.asarray(v_star, dtype=float)
        u = v - v_star
        r = np.sqrt(sq3(u))
        mid = 0.5 * (v + v_star)
        half = (0.5 * r)[..., None] * np.asarray(sigma, dtype=float)
        vp, vsp = mid + half, mid - half
        if psi.kind == "single":
            dpsi = psi.value(vp) + psi.value(vsp) - psi.value(v) - psi.value(v_star)
        else:
            dpsi = (psi.value(vp, vsp) + psi.value(vsp, vp)
                    - psi.value(v, v_star) - psi.value(v_star, v))
        logF = f.log_value(v) + f.log_value(v_star)
        logFp = f.log_value(vp) + f.log_value(vsp)
        lam = _log_mean_from_logs(np.exp(logF), np.exp(logFp), logF, logFp)
        big_b = kernel.kinetic_factor(r) * beta_eps(kernel.angular, theta) / np.sin(theta)
        return dpsi * lam * big_b

    return Mobility(kind="boltzmann", field=field)


def gradient_mobility_landau(f: GaussianMixture, psi, gamma: float) -> Mobility:
    """The optimal-rate shape M = dtilde(psi) * f f*."""
    def field(v, v_star):
        return f.pair_value(v, v_star)[..., None] * dtilde(psi, v, v_star, gamma)

    return Mobility(kind="landau", field=field)


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
    return collision_sweep(pair_grid(f, spec), kernel, spec, terms=terms, pair_factors=factors)


def _action_and_dual(f: GaussianMixture, M: Mobility, psi, kernel: CollisionKernel,
                     spec: QuadratureSpec) -> tuple[IntegralResult, IntegralResult | None]:
    """The Boltzmann action and (for psi not None) its metric-affine dual,
    from one coarse and one fine sweep."""
    if M.kind != "boltzmann":
        raise DissipationError("the Boltzmann action and its dual need a boltzmann-kind mobility")
    coarse = _action_metric_pieces(f, M, psi, kernel, spec.coarsened())
    fine = _action_metric_pieces(f, M, psi, kernel, spec)
    n = pair_grid(f, spec).n_pairs
    action = IntegralResult(value=0.25 * fine["action"],
                            error_estimate=0.25 * abs(fine["action"] - coarse["action"]),
                            node_count=n)
    if psi is None:
        return action, None
    value = 0.5 * fine["m_dpsi"] - 0.25 * fine["dpsi2_lam"]
    value_c = 0.5 * coarse["m_dpsi"] - 0.25 * coarse["dpsi2_lam"]
    return action, IntegralResult(value=value, error_estimate=abs(value - value_c), node_count=n)


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
    grid = pair_grid(f, spec)

    def action(c):
        m = M.field(c.v, c.v_star)
        return sq3(m) / f.pair_value(c.v, c.v_star)

    fns = {"action": action}
    if psi is not None:
        def m_dpsi(c):
            return dot3(M.field(c.v, c.v_star), dtilde(psi, c.v, c.v_star, gamma))

        def quad(c):
            return sq3(dtilde(psi, c.v, c.v_star, gamma)) * f.pair_value(c.v, c.v_star)

        fns["m_dpsi"] = m_dpsi
        fns["quad"] = quad
    return pair_reduce(grid, fns)


def landau_action(f: GaussianMixture, M: Mobility, spec: QuadratureSpec) -> IntegralResult:
    """A_L(f, M) = 1/2 int int |M|^2 / (f f*)."""
    if M.kind != "landau":
        raise DissipationError("landau_action needs a landau-kind mobility")
    coarse = _landau_action_pieces(f, M, None, 0.0, spec.coarsened())["action"]
    value = _landau_action_pieces(f, M, None, 0.0, spec)["action"]
    return IntegralResult(value=0.5 * value, error_estimate=0.5 * abs(value - coarse),
                          node_count=pair_grid(f, spec).n_pairs)


def metric_affine_landau(f: GaussianMixture, M: Mobility, psi, gamma: float,
                         spec: QuadratureSpec) -> IntegralResult:
    """int M . dtilde(psi) - 1/2 int |dtilde psi|^2 f f*; at most the Landau
    action, with equality at the matching gradient-type M."""
    if M.kind != "landau":
        raise DissipationError("metric_affine_landau needs a landau-kind mobility")
    pc = _landau_action_pieces(f, M, psi, gamma, spec.coarsened())
    pv = _landau_action_pieces(f, M, psi, gamma, spec)
    value = pv["m_dpsi"] - 0.5 * pv["quad"]
    coarse = pc["m_dpsi"] - 0.5 * pc["quad"]
    return IntegralResult(value=value, error_estimate=abs(value - coarse),
                          node_count=pair_grid(f, spec).n_pairs)


# ---------------------------------------------------------------------------
# the lift from collision rates to grazing rates


def lift_mobility(M: Mobility, lift: LiftSpec, gamma: float, kernel: CollisionKernel,
                  spec: QuadratureSpec) -> Mobility:
    """L_{q,delta}: collision rates to grazing rates by a weighted angular moment,

        |v-v*|^(-gamma/2-q) / (4 (1 + [|v|^2+|v*|^2]^(delta/2))) int M p d(sigma),

    integrated over the kernel's angular support.
    """
    if M.kind != "boltzmann":
        raise DissipationError("lift acts on boltzmann-kind mobilities")
    lift.validate(gamma)

    def field(v, v_star):
        c = PairChunk(v, v_star, kernel=kernel)
        acc = np.zeros(c.v.shape)
        for wnode, node in collision_nodes(c, kernel, spec):
            # d(sigma) = sin(theta) d(theta) d(phi); nodes absorb beta_eps
            w = wnode * node.sin_theta / node.beta
            acc += w * np.sum(node.m(M)[..., None] * node.p, axis=-2)
        e2 = sq3(c.v) + sq3(c.v_star)
        pref = c.r ** (-0.5 * gamma - lift.q) / (4.0 * (1.0 + e2 ** (0.5 * lift.delta)))
        return pref[..., None] * acc

    return Mobility(kind="landau", field=field)


def scaled_mobility(M: Mobility, q: int, delta: float) -> Mobility:
    """|v-v*|^q (1 + [|v|^2+|v*|^2]^(delta/2)) theta M, the combination whose
    lift reproduces the grazing pairing."""
    def field(v, v_star, sigma, theta):
        v = np.asarray(v, dtype=float)
        v_star = np.asarray(v_star, dtype=float)
        r = np.sqrt(sq3(v - v_star))
        e2 = sq3(v) + sq3(v_star)
        return r**q * (1.0 + e2 ** (0.5 * delta)) * theta * M.field(v, v_star, sigma, theta)

    return Mobility(kind="boltzmann", field=field)


def _study_pieces(f: GaussianMixture, kernel: CollisionKernel, spec: QuadratureSpec,
                  psis: list[PairScalarTestFunction]) -> dict[str, float]:
    """One sweep computing D_B, D_B^R, and both affine pieces for every psi."""
    terms, factors = _affine_terms(psis)
    return collision_sweep(pair_grid(f, spec), kernel, spec,
                           terms={"diss": _diss_term, "reduced": _reduced_term, **terms},
                           pair_factors={"diss": _kin, "reduced": _kin, **factors})


def dissipation_study(f: GaussianMixture, kernel: CollisionKernel, eps_list: list[float],
                      psis: list[PairScalarTestFunction], spec: QuadratureSpec) -> dict:
    """Epsilon sweep of the dissipation chain.

    Per eps: D_B_eps, D_B^R, and for every DS psi the affine value with the
    optimal scalar rescaling (so reported affine values are nonnegative and
    the chain 0 <= affine <= D_B^R <= D_B_eps can be checked directly).
    The eps-free Landau quantities are computed once.
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
    from .operators import parallel_map

    def one_eps(eps):
        ker = kernel.with_epsilon(eps)
        return (_study_pieces(f, ker, spec, psis),
                _study_pieces(f, ker, spec.coarsened(), psis))

    pieces = parallel_map(one_eps, eps_list)
    rows = []
    for eps, (fine, coarse) in zip(eps_list, pieces):
        d_b = 0.25 * fine["diss"]
        d_r = fine["reduced"]
        err_b = abs(d_b - 0.25 * coarse["diss"])
        affine_vals = []
        for j in range(len(psis)):
            _, best = optimal_scaling(fine[f"lin{j}"], fine[f"quad{j}"], "boltzmann")
            affine_vals.append(best)
        rows.append({
            "eps": eps,
            "D_B_eps": d_b,
            "D_B_R": d_r,
            "D_L": dL.value,
            "err_D_B": err_b,
            "err_D_R": abs(d_r - coarse["reduced"]),
            "affine_boltzmann": affine_vals,
            "gap": abs(d_b - dL.value),
        })
    return {
        "rows": rows,
        "landau": dL.value,
        "landau_error": dL.error_estimate,
        "affine_landau": affine_L,
    }


def lift_pairing(f: GaussianMixture, M: Mobility, psi, lift: LiftSpec, gamma: float,
                 kernel: CollisionKernel, spec: QuadratureSpec) -> tuple[float, float]:
    """Both sides of the grazing-pairing bookkeeping at fixed eps.

    Left: int int L_{q,delta}(scaled M) . dtilde(psi).
    Right: 1/2 int int int M * [theta |v-v*| p.(grad-grad_*)psi / 2] d(sigma),
    i.e. the pairing with the small-angle linearization of dbar(psi) with the
    same theta weights inserted. The two are algebraically identical sums.
    """
    lifted = lift_mobility(scaled_mobility(M, lift.q, lift.delta), lift, gamma, kernel, spec)
    grid = pair_grid(f, spec)

    lhs = pair_reduce(grid, {
        "v": lambda c: dot3(lifted.field(c.v, c.v_star), dtilde(psi, c.v, c.v_star, gamma))
    })["v"]

    def rhs_term(node):
        pair = node.pair
        g = _pair_grad(psi, pair.v, pair.v_star)[:, None, :]
        p = (node.sigma - np.cos(node.theta) * pair.k[:, None, :]) / node.sin_theta
        lin = node.theta * 0.5 * pair.r[:, None] * dot3(p, g)
        return node.m(M) * lin * node.sin_theta / node.beta

    rhs = 0.5 * collision_sweep(grid, kernel, spec, terms={"v": rhs_term},
                                pair_factors={"v": lambda c: np.ones(c.r.shape)})["v"]
    return lhs, rhs
