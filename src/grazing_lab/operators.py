"""Discrete and grazing collision gradients, weak-form operators, limit studies.

The four-point collision difference

    dbar psi = psi(v') + psi(v*') - psi(v) - psi(v*)

and the projected relative-velocity gradient

    dtilde psi = |v-v*|^(1+gamma/2) Pi[v-v*] (grad psi - grad_* psi)

are the two derivative notions paired with densities in the weak Boltzmann
and Landau forms. Every sigma-integral is evaluated in (theta, phi)
coordinates with the angular profile absorbed into the theta nodes, so the
kernel's endpoint singularity is handled once, in quadrature.

R^6 x S^2 integrals stream over fixed-size pair chunks; partial sums feed a
fixed-shape pairwise tree, so results are deterministic and memory stays
O(chunk) regardless of grid size. Sweep terms read one lazily filled
collision state per chunk and angular node instead of rebuilding it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .functions import GaussianMixture, dot3, sq3
from .geometry import CollisionConfiguration, GeometryError
from .kernels import CollisionKernel, angular_nodes, beta_eps
from .quadrature import IntegralResult, QuadratureSpec, pairwise_sum, r3_nodes

CHUNK = 4096


class OperatorError(RuntimeError):
    pass


def thread_count() -> int:
    """Worker count from GRAZING_LAB_THREADS (default 1); anything but a
    positive integer is rejected."""
    import os

    raw = os.environ.get("GRAZING_LAB_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise OperatorError(f"GRAZING_LAB_THREADS must be a positive integer, got {raw!r}")
    return n


def parallel_map(fnc, items):
    """Map a pure function over items, optionally with a thread pool.

    Results keep list order regardless of scheduling, and every evaluation is
    pure, so the output is identical to the serial run.
    """
    items = list(items)
    n = thread_count()
    if n == 1 or len(items) <= 1:
        return [fnc(x) for x in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=n) as ex:
        return list(ex.map(fnc, items))


# ---------------------------------------------------------------------------
# pointwise gradients


def dbar(psi, config: CollisionConfiguration) -> float:
    """Four-point collision difference at one configuration.

    Two-variable test functions use the symmetrized extension
    psi(v',v*') + psi(v*',v') - psi(v,v*) - psi(v*,v).
    """
    if psi.kind == "single":
        return float(psi.value(config.v_post) + psi.value(config.v_star_post)
                     - psi.value(config.v) - psi.value(config.v_star))
    return float(psi.value(config.v_post, config.v_star_post)
                 + psi.value(config.v_star_post, config.v_post)
                 - psi.value(config.v, config.v_star)
                 - psi.value(config.v_star, config.v))


def _pair_grad(psi, v: np.ndarray, v_star: np.ndarray) -> np.ndarray:
    """(grad - grad_*) psi as a batch over pairs."""
    if psi.kind == "single":
        return psi.gradient(v) - psi.gradient(v_star)
    return psi.grad_x(v, v_star)


def _pair_hess(psi, v: np.ndarray, v_star: np.ndarray) -> np.ndarray:
    """(grad - grad_*) (x) (grad - grad_*) psi as a batch over pairs."""
    if psi.kind == "single":
        return psi.hessian(v) + psi.hessian(v_star)
    return psi.hess_xx(v, v_star)


def dtilde(psi, v: np.ndarray, v_star: np.ndarray, gamma: float) -> np.ndarray:
    """|v-v*|^(1+gamma/2) Pi[v-v*] (grad - grad_*) psi."""
    v = np.asarray(v, dtype=float)
    v_star = np.asarray(v_star, dtype=float)
    u = v - v_star
    r = np.sqrt(sq3(u))
    if np.any(r == 0.0):
        raise GeometryError("zero relative velocity")
    uhat = u / r[..., None]
    g = _pair_grad(psi, v, v_star)
    pg = g - dot3(uhat, g)[..., None] * uhat
    return (r ** (1.0 + 0.5 * gamma))[..., None] * pg


def dtilde_div_dtilde(psi, v: np.ndarray, v_star: np.ndarray, gamma: float) -> np.ndarray:
    """The scalar dtilde . dtilde psi = |v-v*|^(2+gamma) div_x(Pi[x] grad_x psi).

    Uses the analytic Hessian together with
    div_x(Pi[x] g) = tr(Pi H) - (2/|x|) xhat.g, where x = (v - v*)/2.
    """
    v = np.asarray(v, dtype=float)
    v_star = np.asarray(v_star, dtype=float)
    u = v - v_star
    r = np.sqrt(sq3(u))
    if np.any(r == 0.0):
        raise GeometryError("zero relative velocity")
    uhat = u / r[..., None]
    g = _pair_grad(psi, v, v_star)
    H = _pair_hess(psi, v, v_star)
    trH = H[..., 0, 0] + H[..., 1, 1] + H[..., 2, 2]
    uHu = dot3(uhat, np.einsum("...ij,...j->...i", H, uhat))
    return r ** (2.0 + gamma) * (trH - uHu - (4.0 / r) * dot3(uhat, g))


# ---------------------------------------------------------------------------
# streaming pair grids


def _log_mean_from_logs(fa, fb, log_fa, log_fb):
    """Logarithmic mean from precomputed logs: fa * expm1(d)/d, d = log(fb/fa)."""
    d = log_fb - log_fa
    near = np.abs(d) < 1e-14
    safe = np.where(near, 1.0, d)
    return np.where(near, fa, fa * np.expm1(safe) / safe)


def _memo(store: dict, tag: str, obj, compute: Callable) -> np.ndarray:
    """The field `tag` of a test function or mobility `obj`, computed on first
    use; keyed by identity, since those objects hold callables and arrays."""
    key = (tag, id(obj))
    if key not in store:
        store[key] = compute()
    return store[key]


class PairChunk:
    """A batch of pairs in their collision frames, with the pair-level fields
    the sweep terms read.

    Geometry (r = |v - v*|, the frame k, h, i and y = (v + v*)/2) is
    built eagerly. The density fields (needing f) and the kinetic factor
    (needing the kernel) are computed on first use, once per chunk.
    Exact-diagonal pairs get zero weight and a placeholder frame; every
    collision formula vanishes with the weight.
    """

    def __init__(self, v: np.ndarray, v_star: np.ndarray, w: np.ndarray | None = None,
                 f: GaussianMixture | None = None, kernel: CollisionKernel | None = None):
        self.v = v = np.asarray(v, dtype=float)
        self.v_star = v_star = np.asarray(v_star, dtype=float)
        u = v - v_star
        r = np.sqrt(sq3(u))
        live = r > 1e-12
        self.w = np.where(live, np.ones(r.shape) if w is None else w, 0.0)
        self.r = rs = np.where(live, r, 1.0)
        self.k = k = u / rs[..., None]
        idx = np.argmin(np.abs(k), axis=-1)
        e = np.eye(3)[idx]
        h = e - dot3(e, k)[..., None] * k
        h /= np.sqrt(sq3(h))[..., None]
        self.h, self.i = h, np.cross(k, h)
        self.y = 0.5 * (v + v_star)
        self.f, self.kernel = f, kernel
        self._memo: dict = {}

    @cached_property
    def logF(self) -> np.ndarray:
        """log f(v) + log f(v*)."""
        return self.f.log_value(self.v) + self.f.log_value(self.v_star)

    @cached_property
    def F(self) -> np.ndarray:
        """f f* as exp(log F), consistent with logF."""
        return np.exp(self.logF)

    @cached_property
    def sqF(self) -> np.ndarray:
        return np.exp(0.5 * self.logF)

    @cached_property
    def pair_value(self) -> np.ndarray:
        """f f* as GaussianMixture.pair_value forms it."""
        return self.f.pair_value(self.v, self.v_star)

    @cached_property
    def f_v(self) -> np.ndarray:
        return self.f.value(self.v)

    @cached_property
    def f_star(self) -> np.ndarray:
        return self.f.value(self.v_star)

    @cached_property
    def kin(self) -> np.ndarray:
        """The kinetic factor |v - v*|^gamma (or its cutoff form)."""
        return self.kernel.kinetic_factor(self.r)

    def psi_pre(self, psi) -> np.ndarray:
        """psi(v) + psi(v*), or 2 psi(v, v*) for a (symmetric) pair function."""
        def compute():
            if psi.kind == "single":
                return psi.value(self.v) + psi.value(self.v_star)
            return 2.0 * psi.value(self.v, self.v_star)

        return _memo(self._memo, "psi_pre", psi, compute)


class CollisionNode:
    """The collision state at one theta node of a chunk, all azimuths batched.

    sigma, v', v*' have shape (..., n_phi, 3) and node fields (..., n_phi);
    pair fields are read through `pair` and broadcast with a trailing None.
    Every field is computed on first use, so terms that share one (log F',
    Lambda, dbar psi, a mobility value) evaluate it once per node.
    """

    def __init__(self, pair: PairChunk, theta, cos_t, sin_t, p: np.ndarray):
        self.pair, self.theta, self.p = pair, theta, p
        self.sin_theta = np.sin(theta)
        self._cos_t, self._sin_t = cos_t, sin_t
        self._memo: dict = {}

    @cached_property
    def sigma(self) -> np.ndarray:
        return self._cos_t * self.pair.k[..., None, :] + self._sin_t * self.p

    @cached_property
    def _post(self) -> tuple[np.ndarray, np.ndarray]:
        half = (0.5 * self.pair.r)[..., None, None] * self.sigma
        y3 = self.pair.y[..., None, :]
        return y3 + half, y3 - half

    @property
    def vp(self) -> np.ndarray:
        return self._post[0]

    @property
    def vsp(self) -> np.ndarray:
        return self._post[1]

    @cached_property
    def beta(self) -> np.ndarray:
        """beta_eps at this node's theta."""
        return beta_eps(self.pair.kernel.angular, np.asarray(self.theta))

    @cached_property
    def logFp(self) -> np.ndarray:
        """log f(v') + log f(v*')."""
        f = self.pair.f
        return f.log_value(self.vp) + f.log_value(self.vsp)

    @cached_property
    def lam(self) -> np.ndarray:
        """Lambda(f) = logarithmic mean of f f* and f' f*'."""
        pair = self.pair
        return _log_mean_from_logs(pair.F[..., None], np.exp(self.logFp), pair.logF[..., None],
                                   self.logFp)

    def dbar(self, psi) -> np.ndarray:
        """dbar psi = psi(v') + psi(v*') - psi(v) - psi(v*). Two-variable test
        functions are symmetric by construction (DS class), so
        psi(v',v*') + psi(v*',v') collapses to 2 psi(v',v*')."""
        def compute():
            pre = self.pair.psi_pre(psi)[..., None]
            if psi.kind == "single":
                return psi.value(self.vp) + psi.value(self.vsp) - pre
            return 2.0 * psi.value(self.vp, self.vsp) - pre

        return _memo(self._memo, "dbar", psi, compute)

    def m(self, M) -> np.ndarray:
        """The mobility M(v, v*, sigma, theta)."""
        pair = self.pair
        return _memo(self._memo, "m", M,
                     lambda: M.field(pair.v[..., None, :], pair.v_star[..., None, :],
                                     self.sigma, self.theta))

    def m_sym(self, M) -> np.ndarray:
        """The swapped mobility M(v*, v, -sigma, theta)."""
        pair = self.pair
        return _memo(self._memo, "m_sym", M,
                     lambda: M.field(pair.v_star[..., None, :], pair.v[..., None, :],
                                     -self.sigma, self.theta))


def collision_nodes(pair: PairChunk, kernel: CollisionKernel, spec: QuadratureSpec,
                    n_phi: int | None = None):
    """Yield (weight, CollisionNode) for each theta node of the kernel's
    angular rule; weight * sum over azimuths approximates the
    int int . beta_eps d(theta) d(phi) of the node's values.

    Nodes are built empty and fill on use, so one node's fields are released
    before the next node computes its own.
    """
    theta, wtheta = angular_nodes(kernel.angular, spec)
    n_phi = n_phi or spec.sphere_phi_nodes
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    wphi = 2.0 * np.pi / n_phi
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    p = (pair.h[..., None, :] * np.cos(phi)[:, None]
         + pair.i[..., None, :] * np.sin(phi)[:, None])
    for a in range(theta.size):
        yield wtheta[a] * wphi, CollisionNode(pair, theta[a], cos_t[a], sin_t[a], p)


@dataclass(frozen=True)
class PairGrid:
    """Lazy tensor grid over unordered pairs {v, v*}.

    Only the R^3 factor is materialized. Off-diagonal pairs are enumerated
    once (i < j) with doubled weight, which is exact for every collision
    integrand because they are invariant under the swap
    (v, v*, sigma) -> (v*, v, -sigma); non-symmetric integrands must be
    symmetrized by the caller. Diagonal pairs carry zero collision weight.
    The chunks carry the density f for their lazily computed fields.
    """

    pts: np.ndarray
    wgt: np.ndarray
    f: GaussianMixture | None = None

    @property
    def n_pairs(self) -> int:
        m = self.pts.shape[0]
        return m * (m - 1) // 2

    def _indices(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """(i, j) of pairs start..stop-1 in the row-major i < j enumeration."""
        m = self.pts.shape[0]
        t = np.arange(start, stop)
        rows = np.arange(m - 1)
        row_start = rows * m - rows * (rows + 1) // 2
        i = np.searchsorted(row_start, t, side="right") - 1
        return i, t - row_start[i] + i + 1

    def chunk(self, start: int, stop: int, kernel: CollisionKernel | None = None) -> PairChunk:
        i, j = self._indices(start, stop)
        return PairChunk(self.pts[i], self.pts[j], 2.0 * self.wgt[i] * self.wgt[j],
                         f=self.f, kernel=kernel)

    def chunks(self, kernel: CollisionKernel | None = None, size: int = CHUNK):
        for start in range(0, self.n_pairs, size):
            yield self.chunk(start, min(start + size, self.n_pairs), kernel)


def pair_grid(f: GaussianMixture, spec: QuadratureSpec, n: int | None = None) -> PairGrid:
    """Pair grid in the density's Gaussian frame."""
    center, scale = f.quadrature_frame()
    pts, wgt = r3_nodes(spec, center, scale, n=n or spec.pair_nodes)
    return PairGrid(pts=pts, wgt=wgt, f=f)


def pair_reduce(grid: PairGrid, fns: dict[str, Callable]) -> dict[str, float]:
    """sum over pairs of w * fn(chunk) for each named integrand."""
    partials = {name: [] for name in fns}
    for chunk in grid.chunks():
        for name, fn in fns.items():
            partials[name].append(pairwise_sum(chunk.w * fn(chunk)))
    return {name: pairwise_sum(np.array(vals)) for name, vals in partials.items()}


# ---------------------------------------------------------------------------
# the angular sweep


def collision_sweep(grid: PairGrid, kernel: CollisionKernel, spec: QuadratureSpec,
                    terms: dict[str, Callable], pair_factors: dict[str, Callable],
                    n_phi: int | None = None) -> dict[str, float]:
    """Reduce sum_pairs w * pair_factor * (int int term beta_eps d(theta) d(phi)).

    terms[name](node) -> (C, n_phi) is evaluated at every theta node of
    every chunk; `node` is a CollisionNode holding sigma, v', v*', log F',
    Lambda, beta_eps, dbar psi and mobility values, each computed once per
    node however many terms read it, with the pair fields (F, log F, sqrt F,
    kinetic factor, psi at the pre-collision pair) on node.pair.
    pair_factors[name](chunk) -> (C,) multiplies the angular integral before
    the pair reduction; it reads the same PairChunk.
    """
    partials = {name: [] for name in terms}
    for chunk in grid.chunks(kernel):
        acc = {name: np.zeros(chunk.r.shape[0]) for name in terms}
        for wnode, node in collision_nodes(chunk, kernel, spec, n_phi):
            for name, fn in terms.items():
                acc[name] += wnode * np.sum(fn(node), axis=1)
        for name in terms:
            partials[name].append(pairwise_sum(chunk.w * pair_factors[name](chunk) * acc[name]))
    return {name: pairwise_sum(np.array(vals)) for name, vals in partials.items()}


def sigma_average(v: np.ndarray, v_star: np.ndarray, kernel: CollisionKernel,
                  spec: QuadratureSpec, term: Callable, n_phi: int | None = None) -> np.ndarray:
    """Pointwise int_{S^2} term(node) * B_eps d(sigma) for a batch of pairs
    (kinetic factor included)."""
    chunk = PairChunk(np.atleast_2d(v), np.atleast_2d(v_star), kernel=kernel)
    if np.any(chunk.w == 0.0):
        raise GeometryError("zero relative velocity")
    acc = np.zeros(chunk.r.shape[0])
    for wnode, node in collision_nodes(chunk, kernel, spec, n_phi):
        acc += wnode * np.sum(term(node), axis=1)
    return chunk.kin * acc


# ---------------------------------------------------------------------------
# weak-form collision operators


def _boltzmann_weak_value(f: GaussianMixture, psi, kernel: CollisionKernel,
                          spec: QuadratureSpec, form: str) -> tuple[float, int]:
    """One quadrature level of the weak Boltzmann pairing.

    second_order = 1/2 int int f f* int dbar(psi) B_eps
    first_order  = -1/8 int int int dbar(f f*) dbar(psi) B_eps
    """
    grid = pair_grid(f, spec)
    if form == "second_order":
        out = collision_sweep(grid, kernel, spec, terms={"dpsi": lambda n: n.dbar(psi)},
                              pair_factors={"dpsi": lambda c: c.pair_value * c.kin})
        return 0.5 * out["dpsi"], grid.n_pairs

    def term_pair(node):
        dF = 2.0 * (f.pair_value(node.vp, node.vsp) - node.pair.pair_value[:, None])
        return dF * node.dbar(psi)

    out = collision_sweep(grid, kernel, spec, terms={"dF_dpsi": term_pair},
                          pair_factors={"dF_dpsi": lambda c: c.kin})
    return -0.125 * out["dF_dpsi"], grid.n_pairs


def boltzmann_weak(f: GaussianMixture, psi, kernel: CollisionKernel, spec: QuadratureSpec,
                   form: str = "second_order") -> IntegralResult:
    """Weak pairing <Q_B_eps(f,f), psi> in the requested form.

    The value is computed at the configured level; the error estimate is the
    difference against the next-coarser level.
    """
    if form not in ("second_order", "first_order"):
        raise OperatorError(f"unknown form {form!r}")
    coarse, _ = _boltzmann_weak_value(f, psi, kernel, spec.coarsened(), form)
    value, n = _boltzmann_weak_value(f, psi, kernel, spec, form)
    return IntegralResult(value=value, error_estimate=abs(value - coarse), node_count=n)


def _landau_chunk_terms(f: GaussianMixture, psi, gamma: float) -> dict[str, Callable]:
    def second(c: PairChunk) -> np.ndarray:
        F = f.pair_value(c.v, c.v_star)
        g = _pair_grad(psi, c.v, c.v_star)
        H = _pair_hess(psi, c.v, c.v_star)
        trH = H[..., 0, 0] + H[..., 1, 1] + H[..., 2, 2]
        uHu = dot3(c.k, np.einsum("...ij,...j->...i", H, c.k))
        return F * c.r ** (2.0 + gamma) * (trH - uHu - (4.0 / c.r) * dot3(c.k, g))

    def first(c: PairChunk) -> np.ndarray:
        g = _pair_grad(psi, c.v, c.v_star)
        a = (f.value(c.v_star)[:, None] * f.gradient(c.v)
             - f.value(c.v)[:, None] * f.gradient(c.v_star))
        ag = dot3(a, g) - dot3(c.k, a) * dot3(c.k, g)
        return c.r ** (2.0 + gamma) * ag

    return {"second": second, "first": first}


def _landau_weak_value(f: GaussianMixture, psi, gamma: float,
                       spec: QuadratureSpec, form: str) -> tuple[float, int]:
    grid = pair_grid(f, spec)
    terms = _landau_chunk_terms(f, psi, gamma)
    if form == "second_order":
        out = pair_reduce(grid, {"v": terms["second"]})
        return 0.5 * out["v"], grid.n_pairs
    out = pair_reduce(grid, {"v": terms["first"]})
    return -0.5 * out["v"], grid.n_pairs


def landau_weak(f: GaussianMixture, psi, gamma: float, spec: QuadratureSpec,
                form: str = "second_order") -> IntegralResult:
    """Weak pairing <Q_L(f,f), psi> in the requested form."""
    if form not in ("second_order", "first_order"):
        raise OperatorError(f"unknown form {form!r}")
    coarse, _ = _landau_weak_value(f, psi, gamma, spec.coarsened(), form)
    value, n = _landau_weak_value(f, psi, gamma, spec, form)
    return IntegralResult(value=value, error_estimate=abs(value - coarse), node_count=n)


# ---------------------------------------------------------------------------
# pointwise kernel averages (the grazing-limit building blocks)


def dbar_kernel_average(psi, v: np.ndarray, v_star: np.ndarray,
                        kernel: CollisionKernel, spec: QuadratureSpec) -> float:
    """int_{S^2} dbar(psi) B_eps d(sigma) at one pair; tends to
    2 dtilde . dtilde psi as eps drops."""
    return float(sigma_average(v, v_star, kernel, spec, lambda n: n.dbar(psi))[0])


def dbar_sq_kernel_average(psi, v: np.ndarray, v_star: np.ndarray,
                           kernel: CollisionKernel, spec: QuadratureSpec) -> float:
    """int_{S^2} |dbar(psi)|^2 B_eps d(sigma) at one pair; tends to
    8 |dtilde psi|^2 as eps drops."""
    return float(sigma_average(v, v_star, kernel, spec, lambda n: n.dbar(psi) ** 2)[0])


# ---------------------------------------------------------------------------
# epsilon sweep


@dataclass(frozen=True)
class ConvergenceReport:
    """One grazing-limit study: weak Boltzmann values against the Landau value."""

    epsilons: list[float]
    boltzmann_values: list[float]
    boltzmann_errors: list[float]
    landau_value: float
    landau_error: float
    abs_errors: list[float]
    fitted_order: float | None
    metadata: dict

    def rows(self) -> list[dict]:
        return [
            {"eps": e, "q_boltz": qb, "q_landau": self.landau_value, "abs_err": ae}
            for e, qb, ae in zip(self.epsilons, self.boltzmann_values, self.abs_errors)
        ]


def fit_order(eps: list[float], errors: list[float], floor: float) -> float | None:
    """Least-squares slope of log(err) against log(eps), ignoring errors below
    the noise floor (10x the quadrature error estimate)."""
    pts = [(e, r) for e, r in zip(eps, errors) if r > floor]
    if len(pts) < 3:
        return None
    x = np.log([p[0] for p in pts])
    y = np.log([p[1] for p in pts])
    return float(np.polyfit(x, y, 1)[0])


def grazing_limit_study(f: GaussianMixture, psi, kernel: CollisionKernel,
                        eps_list: list[float], spec: QuadratureSpec,
                        form: str = "second_order") -> ConvergenceReport:
    """Sweep eps downward and compare <Q_B_eps, psi> with <Q_L, psi>."""
    eps_list = [float(e) for e in eps_list]
    if len(eps_list) < 3:
        raise OperatorError("eps_list needs at least 3 decreasing values")
    if any(e2 >= e1 for e1, e2 in zip(eps_list, eps_list[1:])):
        raise OperatorError("eps_list must be strictly decreasing")
    ql = landau_weak(f, psi, kernel.gamma, spec, form=form)
    results = parallel_map(
        lambda eps: boltzmann_weak(f, psi, kernel.with_epsilon(eps), spec, form=form),
        eps_list)
    qb_vals = [r.value for r in results]
    qb_errs = [r.error_estimate for r in results]
    abs_errs = [abs(v - ql.value) for v in qb_vals]
    floor = 10.0 * (max(qb_errs) + ql.error_estimate)
    order = fit_order(eps_list, abs_errs, floor)
    meta = {
        "form": form,
        "gamma": kernel.gamma,
        "noise_floor": floor,
        "order_defined": order is not None,
    }
    return ConvergenceReport(epsilons=eps_list, boltzmann_values=qb_vals,
                             boltzmann_errors=qb_errs, landau_value=ql.value,
                             landau_error=ql.error_estimate, abs_errors=abs_errs,
                             fitted_order=order, metadata=meta)
