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

Each quantity has one route. D_B^R, D_B^id and the affine Boltzmann pieces
come from the study's batched sweep (_study_pieces), the affine pieces and,
for one Gaussian, D_B^id in closed form in the angles; D_B alone from
boltzmann_dissipation (compactness takes it from its cancellation sweep),
and D_L with the affine Landau pieces from one pair reduction
(_landau_pieces; affine_landau reads the same terms).

Actions and their metric-affine duals share one set of angular nodes, so the
pointwise Young inequality makes the duality hold exactly in the discrete
sums, with equality at gradient-type mobilities. Neither comparison reads a
quadrature error, so actions and duals are plain floats at the one given
level: actions_and_duals and landau_actions_and_duals take a batch of
(mobility, test function) pairs in one sweep or reduction, each pair's sums
having the bits of its own; boltzmann_action, metric_affine_boltzmann,
landau_action and metric_affine_landau are their one-pair cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .functions import GaussianMixture, PairScalarTestFunction, dot3, sq3
from .kernels import CollisionKernel
from .operators import (DbarPower, _F_kin, _inv_kin, _kin, _log_mean, _one, check_eps_list,
                        collision_sweep, collision_sweeps, pair_grid, pair_reduce)
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


# the sweep term of 4 D_B: F expm1(Delta) Delta, with F in the pair factor
_DISS = (_diss_term, _F_kin)


def _reduced_term(node):
    return np.expm1(0.5 * node.dlogF) ** 2


def _identity_term(node):
    return node.dlogF


def _sqF_kin(chunk):
    return chunk.sqF * chunk.kin


def _affine_terms(psis: list[PairScalarTestFunction]) -> dict[str, tuple]:
    """Both affine Boltzmann pieces of each DS psi_j as sweep terms:
    lin{j} = int sqrt(ff*) int dbar psi_j B_eps, quad{j} = int int |dbar psi_j|^2 B_eps.
    The affine value -2 lin{j} - quad{j}/4 is <= D_B^R(f) <= D_B_eps(f) up to
    quadrature tolerance."""
    terms = {}
    for j, psi in enumerate(psis):
        terms[f"lin{j}"] = (DbarPower(psi, 1), _sqF_kin)
        terms[f"quad{j}"] = (DbarPower(psi, 2), _kin)
    return terms


def _study_pieces(f: GaussianMixture, kernels: list[CollisionKernel], spec: QuadratureSpec,
                  psis: list[PairScalarTestFunction]) -> list[dict[str, float]]:
    """One batched sweep computing, for each kernel, D_B, D_B^R, the identity
    route D_B^id and both affine pieces for every psi. For one Gaussian,
    Delta is dbar of the density's log_pair_form, so the identity term, like
    the affine pieces, is taken in closed form (DbarPower)."""
    form = f.log_pair_form
    ident = _identity_term if form is None else DbarPower(form)
    terms = {"diss": _DISS, "reduced": (_reduced_term, _F_kin), "ident": (ident, _F_kin),
             **_affine_terms(psis)}
    outs = collision_sweeps(pair_grid(f, spec), spec, dict.fromkeys(kernels, terms))
    return [{"D_B": 0.25 * out.pop("diss"), "D_R": out.pop("reduced"),
             "D_id": -0.5 * out.pop("ident"), **out} for out in outs.values()]


def boltzmann_dissipation(f: GaussianMixture, kernel: CollisionKernel,
                          spec: QuadratureSpec) -> IntegralResult:
    """D_B_eps(f) = 1/4 int int int (f'f*' - ff*)(log f'f*' - log ff*) B_eps."""
    return coarse_fine(
        lambda s: 0.25 * collision_sweep(pair_grid(f, s), kernel, s, {"diss": _DISS})["diss"], spec)


def _affine_landau_terms(args: list, gamma: float) -> dict[str, Callable]:
    """The pair integrands of both affine Landau pieces of each args[j], with
    affine value -4 lin{j} - 2 quad{j}: for a DS scalar psi
    lin = sqrt(ff*) dtilde.dtilde psi and quad = |dtilde psi|^2, for an AS
    field xi lin = sqrt(ff*) |v-v*|^(1+gamma/2) div(Pi xi) and quad = |xi|^2."""
    terms = {}
    for j, arg in enumerate(args):
        if arg.kind == "DS":
            terms[f"lin{j}"] = lambda c, a=arg: c.sqF * (c.r ** (2.0 + gamma) * c.div_pi_grad(a))
            terms[f"quad{j}"] = lambda c, a=arg: sq3(c.dtilde(a, gamma))
        elif arg.kind == "AS":
            terms[f"lin{j}"] = lambda c, a=arg: (c.sqF * c.r ** (1.0 + 0.5 * gamma)
                                                 * a.div_pi(c.r, c.k, c.y))
            terms[f"quad{j}"] = lambda c, a=arg: sq3(a.value(c.r, c.k, c.y))
        else:
            raise DissipationError("affine_landau needs a DS scalar or AS vector field")
    return terms


def _landau_pieces(f: GaussianMixture, gamma: float, spec: QuadratureSpec,
                   args: list) -> dict[str, float]:
    """One pair reduction for D_L and both affine Landau pieces lin{j},
    quad{j} of every args[j]; each term's chunk sums are those of a
    reduction of that term alone."""
    def diss(c):
        # f f* |v-v*|^(2+gamma) |Pi G|^2 with G = grad log f - grad_* log f*,
        # and |Pi G|^2 as |G - (k.G) k|^2, nonnegative by construction: the
        # difference |G|^2 - (k.G)^2 is roundoff of either sign where G || k
        # (a Maxwellian)
        G = f.grad_log(c.v) - f.grad_log(c.v_star)
        pg2 = sq3(G - dot3(c.k, G)[..., None] * c.k)
        return c.F * c.r ** (2.0 + gamma) * pg2

    out = pair_reduce(pair_grid(f, spec), {"D_L": diss, **_affine_landau_terms(args, gamma)})
    return {"D_L": 0.5 * out.pop("D_L"), **out}


def landau_dissipation(f: GaussianMixture, gamma: float, spec: QuadratureSpec) -> IntegralResult:
    """D_L(f) = 2 int int |v-v*|^(2+gamma) |Pi (grad - grad_*) sqrt(ff*)|^2,
    evaluated through the analytic log-gradient
    (grad - grad_*) sqrt(ff*) = (1/2) sqrt(ff*) (grad log f - grad_* log f*)."""
    return coarse_fine(lambda s: _landau_pieces(f, gamma, s, [])["D_L"], spec)


# ---------------------------------------------------------------------------
# affine (dual) representations of the dissipations


def affine_landau(f: GaussianMixture, arg, gamma: float, spec: QuadratureSpec) -> IntegralResult:
    """Affine lower-bound value for the Landau dissipation.

    DS scalar psi: -4 int sqrt(ff*) dtilde.dtilde psi - 2 int |dtilde psi|^2.
    AS field xi:   -4 int sqrt(ff*) |v-v*|^(1+gamma/2) div(Pi xi) - 2 int |xi|^2.
    Always <= D_L(f) up to quadrature tolerance.
    """
    def level(s):
        out = _landau_pieces(f, gamma, s, [arg])
        return -4.0 * out["lin0"] - 2.0 * out["quad0"]

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


@dataclass(frozen=True, eq=False)
class Mobility:
    """A collision rate (scalar on pairs x sphere) or grazing rate (vector on pairs).

    boltzmann kind: field(node) -> (C, n_phi) scalar, reading the sweep's
        operators.CollisionNode (v, v*, sigma, theta, dbar psi, Lambda B_eps);
        the swapped value M(v*, v, -sigma) is field(node.swapped)
    landau kind:    field(chunk) -> (C, 3) vector, reading the sweep's
        operators.PairChunk
    Both are evaluated through node.m / chunk.m, once per node or chunk,
    keyed by the mobility itself: it hashes by identity.
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
                    field=lambda chunk: chunk.F[..., None] * chunk.dtilde(psi, gamma))


def _action_metric_pieces(f: GaussianMixture, pairs: list[tuple], kernel: CollisionKernel,
                          spec: QuadratureSpec) -> dict[str, float]:
    """One sweep for the Boltzmann action of every (M, psi) pair and, where
    psi is not None, its metric-affine dual: pair i's pieces are action{i}
    and dual{i}.

    All pieces read the same node state (each mobility's values, Lambda,
    beta_eps and each dbar psi), so Young's inequality holds exactly in the
    discrete sums, each field is evaluated once per node, and the chunk's
    azimuths, log f and every node's Lambda B_eps serve all the pairs. Each
    term's chunk sums are the ones a sweep of its pair alone forms.
    """
    # each term is formed in place, left to right: the bits of its expression,
    # with fewer node-sized temporaries on top of the batch's node fields
    def action_term(node, M):
        # 0.5 (m^2 + m_sym^2) sin^2(theta) / (Lambda beta^2)
        out = node.m(M) ** 2
        out += node.m_sym(M) ** 2
        out *= 0.5
        out *= node.sin_theta ** 2
        out /= node.lam * node.beta**2
        return out

    def pair_m(node, M, psi):
        # 0.5 (m + m_sym) dbar(psi) sin(theta) / beta
        out = node.m(M) + node.m_sym(M)
        out *= 0.5
        out *= node.dbar(psi)
        out *= node.sin_theta
        out /= node.beta
        return out

    def quad_term(node, psi):
        out = node.dbar(psi) ** 2
        out *= node.lam
        return out

    terms: dict[str, tuple] = {}
    for i, (M, psi) in enumerate(pairs):
        terms[f"action{i}"] = (lambda n, _M=M: action_term(n, _M), _inv_kin)
        if psi is not None:
            terms[f"m_dpsi{i}"] = (lambda n, _M=M, _psi=psi: pair_m(n, _M, _psi), _one)
            terms[f"dpsi2_lam{i}"] = (lambda n, _psi=psi: quad_term(n, _psi), _kin)
    out = collision_sweep(pair_grid(f, spec), kernel, spec, terms)
    pieces = {}
    for i, (_, psi) in enumerate(pairs):
        pieces[f"action{i}"] = 0.25 * out[f"action{i}"]
        if psi is not None:
            pieces[f"dual{i}"] = 0.5 * out[f"m_dpsi{i}"] - 0.25 * out[f"dpsi2_lam{i}"]
    return pieces


# a pair's chunk-level forms and node fields stay alive through its sweep, so
# a batch is swept in groups of at most this many pairs: memory stays
# O(chunk) whatever the number of pairs
_PAIRS_PER_SWEEP = 8

# an action and its metric-affine dual (None for a pair without psi)
_ActionDual = tuple[float, float | None]


def _in_groups(pieces: Callable, pairs: list[tuple]) -> list[_ActionDual]:
    """Each pair's (action, dual or None), in order, from one pieces(group)
    per group of at most _PAIRS_PER_SWEEP pairs."""
    results = []
    for start in range(0, len(pairs), _PAIRS_PER_SWEEP):
        group = pairs[start:start + _PAIRS_PER_SWEEP]
        out = pieces(group)
        results += [(out[f"action{i}"], out.get(f"dual{i}")) for i in range(len(group))]
    return results


def actions_and_duals(f: GaussianMixture, pairs: list[tuple], kernel: CollisionKernel,
                      spec: QuadratureSpec) -> list[_ActionDual]:
    """The Boltzmann action and (for psi not None) the metric-affine dual of
    each (M, psi) pair, in order; up to _PAIRS_PER_SWEEP pairs share one
    sweep."""
    if any(M.kind != "boltzmann" for M, _ in pairs):
        raise DissipationError("the Boltzmann action and its dual need a boltzmann-kind mobility")
    return _in_groups(lambda group: _action_metric_pieces(f, group, kernel, spec), pairs)


def boltzmann_action(f: GaussianMixture, M: Mobility, kernel: CollisionKernel,
                     spec: QuadratureSpec) -> float:
    """A_B(f, M) = 1/4 int int int |M|^2 / (Lambda(f) B_eps), restricted to the
    kernel's angular support (B_eps vanishes outside it)."""
    return actions_and_duals(f, [(M, None)], kernel, spec)[0][0]


def metric_affine_boltzmann(f: GaussianMixture, M: Mobility, psi, kernel: CollisionKernel,
                            spec: QuadratureSpec) -> float:
    """1/2 int M dbar(psi) - 1/4 int |dbar psi|^2 Lambda(f) B_eps; at most the
    action for every psi, with equality at the matching gradient-type M."""
    return actions_and_duals(f, [(M, psi)], kernel, spec)[0][1]


def _landau_action_pieces(f: GaussianMixture, pairs: list[tuple], gamma: float,
                          spec: QuadratureSpec) -> dict[str, float]:
    """One pair reduction for the Landau action of every (M, psi) pair and,
    where psi is not None, its dual (pieces action{i} and dual{i}); each
    mobility, dtilde psi and f f* are read once per chunk."""
    fns: dict[str, Callable] = {}
    for i, (M, psi) in enumerate(pairs):
        fns[f"action{i}"] = lambda c, _M=M: sq3(c.m(_M)) / c.F
        if psi is not None:
            fns[f"m_dpsi{i}"] = lambda c, _M=M, _psi=psi: dot3(c.m(_M), c.dtilde(_psi, gamma))
            fns[f"quad{i}"] = lambda c, _psi=psi: sq3(c.dtilde(_psi, gamma)) * c.F
    out = pair_reduce(pair_grid(f, spec), fns)
    pieces = {}
    for i, (_, psi) in enumerate(pairs):
        pieces[f"action{i}"] = 0.5 * out[f"action{i}"]
        if psi is not None:
            pieces[f"dual{i}"] = out[f"m_dpsi{i}"] - 0.5 * out[f"quad{i}"]
    return pieces


def landau_actions_and_duals(f: GaussianMixture, pairs: list[tuple], gamma: float,
                             spec: QuadratureSpec) -> list[_ActionDual]:
    """The Landau action and (for psi not None) the metric-affine dual of each
    (M, psi) pair, in order; up to _PAIRS_PER_SWEEP pairs share one pair
    reduction."""
    if any(M.kind != "landau" for M, _ in pairs):
        raise DissipationError("the Landau action and its dual need a landau-kind mobility")
    return _in_groups(lambda group: _landau_action_pieces(f, group, gamma, spec), pairs)


def landau_action(f: GaussianMixture, M: Mobility, spec: QuadratureSpec) -> float:
    """A_L(f, M) = 1/2 int int |M|^2 / (f f*)."""
    return landau_actions_and_duals(f, [(M, None)], 0.0, spec)[0][0]


def metric_affine_landau(f: GaussianMixture, M: Mobility, psi, gamma: float,
                         spec: QuadratureSpec) -> float:
    """int M . dtilde(psi) - 1/2 int |dtilde psi|^2 f f*; at most the Landau
    action, with equality at the matching gradient-type M."""
    return landau_actions_and_duals(f, [(M, psi)], gamma, spec)[0][1]


def dissipation_study(f: GaussianMixture, kernel: CollisionKernel, eps_list: list[float],
                      psis: list[PairScalarTestFunction], spec: QuadratureSpec) -> dict:
    """Epsilon sweep of the dissipation chain.

    Per eps: D_B_eps, its identity route D_B^id = -1/2 int int F int Delta
    B_eps, D_B^R, and for every DS psi the affine value with the optimal
    scalar rescaling (so reported affine values are nonnegative and the
    chain 0 <= affine <= D_B^R <= D_B_eps can be checked directly).
    Each quadrature level takes D_L and every psi's affine Landau pieces in
    one pair reduction, beside one batched sweep over every eps, and one
    coarse_fine pairs the levels. An eps_list that is empty or not strictly
    decreasing and a psi that is not DS are refused before anything is
    swept.
    """
    eps_list = check_eps_list(eps_list, 1, "dissipation_study")
    for j, psi in enumerate(psis):
        if psi.kind != "DS":
            raise DissipationError(f"psis[{j}]: the dissipation study needs a DS test "
                                   f"function, got kind {psi.kind!r}")
    kernels = [kernel.with_epsilon(eps) for eps in eps_list]
    study = coarse_fine(lambda s: {"landau": _landau_pieces(f, kernel.gamma, s, psis),
                                   "pieces": _study_pieces(f, kernels, s, psis)}, spec)
    landau, pieces = study["landau"], study["pieces"]
    dL = landau["D_L"]
    affine_L = [optimal_scaling(landau[f"lin{j}"].value, landau[f"quad{j}"].value, "landau")[1]
                for j in range(len(psis))]
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
