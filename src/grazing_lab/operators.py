"""Discrete and grazing collision gradients, weak-form operators, limit studies.

The four-point collision difference

    dbar psi = psi(v') + psi(v*') - psi(v) - psi(v*)

and the projected relative-velocity gradient

    dtilde psi = |v-v*|^(1+gamma/2) Pi[v-v*] (grad psi - grad_* psi)

are the two derivative notions paired with densities in the weak Boltzmann
and Landau forms. A collision keeps y = (v + v*)/2 and |v - v*| and turns
x = (v - v*)/2 to |x| sigma, so the sweep takes dbar psi in closed form in
the collision frame for every test function built from a quadratic: for
quadratic polynomials and DS bumps, whose pair sum is a collision invariant
plus 2 E x^T Q x with E unchanged by the collision, and for Gaussians
P(u) exp(-|u|^2/(2 w^2)), whose envelope at v' is its value at v times
exp(-(s' - s)) and at v*' its value at v* times exp(s' - s), with
s = (y - c).x/w^2. Only the Cc_single bump is evaluated at the four points.
The pointwise four-point difference, which forms its own v' and v*', is a
test oracle beside the sweep (tests/collision_oracle.py), as is the
one-pair sigma average of a node term.

The density enters a node through one field, Delta = log f'f*' - log ff*,
never through log f' itself: f'f*' = F e^Delta with F = f f*, so the
dissipations, Lambda(f) and dbar(f f*) read F and expm1(Delta). For one
Gaussian, log f(v) + log f(v*) is a collision invariant minus x^T P x
(P = Sigma^-1), so Delta is dbar of the quadratic -v^T P v/2 and takes the
same closed form, with no density evaluation at v' or v*'. A mixture's
Delta goes through the responsibilities pi_k: the collision moves v by
delta and v* by -delta, each component's log changes by a quadratic d_k in
delta, and f(v')/f(v) = sum_k pi_k(v) e^(d_k), so no mixture density is
evaluated at a post-collision point either.

Every sigma-integral is evaluated in (theta, phi) coordinates with the
angular profile absorbed into the theta nodes, so the kernel's endpoint
singularity is handled once, in quadrature. This module holds the one
collision frame: PairChunk forms the axis k and the azimuths p (from
orthonormal_frame), and CollisionNode forms
sigma = cos(theta) k + sin(theta) p, v' and v*'.

R^6 x S^2 integrals stream over fixed-size pair chunks; partial sums feed a
fixed-shape pairwise tree, so results are deterministic and memory stays
O(chunk) regardless of grid size. Every pair sum, with or without an
angular integral, runs the one serial chunk loop (_reduce_chunks), and every
angular integral on nodes the one theta x phi loop (_angular_sums). Sweep
terms read one lazily filled collision state per chunk and angular node
instead of rebuilding it; a field of a test function or mobility is keyed
by that object itself (they hash by identity), so it cannot be read for
another. A term linear or quadratic in dbar psi of a
non-Gaussian quadratic form (DbarPower) needs no node at all: its angular
integral is a per-pair azimuth mean times a theta-moment of the kernel,
exact in phi. A sweep takes a plan, a batch of kernels that differ only in
eps, each with its own terms: chunks stream in the outer loop and kernels
in the inner one, so a chunk's pair-level state (F, sqrt F, the kinetic
factor, the azimuths, the collision-frame forms, each pair factor) is built
once and serves every eps; only the theta nodes, beta_eps and the terms are
the kernel's. Each kernel's partial sums keep the one-kernel order, so a
batched eps sweep gives the bits of one sweep per eps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, wraps
from typing import Callable

import numpy as np

from .functions import (GaussianMixture, dot3, ds_projected_divergence, ds_projected_gradient,
                        is_gaussian, sq3)
from .kernels import CollisionKernel, angular_moments, angular_nodes, beta_eps
from .quadrature import (IntegralResult, QuadratureError, QuadratureSpec, coarse_fine,
                         error_tolerance, pairwise_sum, r3_nodes)

CHUNK = 4096

_EYE3 = np.eye(3)


class OperatorError(RuntimeError):
    pass


class GeometryError(ValueError):
    pass


def parallel_map(fnc, items):
    """[fnc(x) for x in items]. The chunk loop maps its chunk builder over
    the chunk starts through this name, one item per chunk, so that
    perfbench/tracer.py counts the chunks by patching it."""
    return [fnc(x) for x in items]


# ---------------------------------------------------------------------------
# streaming pair grids


def _log_mean(fa, d):
    """Logarithmic mean of fa and fb = fa e^d from the log ratio d = log(fb/fa):
    fa * expm1(d)/d, formed in one buffer of d's shape (fa broadcasts to it)
    with the operations in that order, so the bits are the expression's."""
    near = np.abs(d) < 1e-14
    safe = np.where(near, 1.0, d)
    out = np.expm1(safe, out=np.empty(safe.shape))
    out *= fa
    out /= safe
    np.copyto(out, fa, where=near)
    return out


# the largest exponent a node feeds to expm1: e^700 ~ 1e304 stays finite
# times any weight <= 1 and summed over fewer than 17,000 terms
_EXP_CAP = 700.0


def _post_ratio(terms: list[tuple]) -> tuple[np.ndarray, np.ndarray]:
    """(L, S) = (log f(w')/f(w), f(w')/f(w) - 1) at one end w of a pair, from
    each component's (log pi_k, pi_k, d_k), since f(w')/f(w) = sum_k pi_k e^(d_k).

    S = sum_k pi_k expm1(d_k) and L = log1p(S) keep their digits where the
    d_k are small (grazing collisions). Where S < -1/2, log1p(S) would lose
    digits as S -> -1, and where some d_k passes _EXP_CAP, expm1 would
    overflow; those elements alone take L = log sum_k e^(log pi_k + d_k),
    shifted by its largest term, and S = expm1(L). S is inf only where
    f(w')/f(w) itself is past the float range.
    """
    capped = max(float(d.max()) for *_, d in terms) > _EXP_CAP
    s = None
    for _, pi, d in terms:
        e = np.expm1(np.minimum(d, _EXP_CAP) if capped else d)
        e *= pi
        s = e if s is None else np.add(s, e, out=s)
    far = s < -0.5
    if capped:
        for *_, d in terms:
            far |= d > _EXP_CAP
    log_ratio = np.maximum(s, -0.5)
    np.log1p(log_ratio, out=log_ratio)
    at = np.flatnonzero(far)
    if at.size:
        logs = [log_pi.ravel()[at // s.shape[-1]] + d.ravel()[at] for log_pi, _, d in terms]
        top = logs[0]
        for a in logs[1:]:
            top = np.maximum(top, a)
        far_log = top + np.log(sum(np.exp(a - top) for a in logs))
        log_ratio.ravel()[at] = far_log
        with np.errstate(over="ignore"):
            s.ravel()[at] = np.expm1(far_log)
    return log_ratio, s


def _memoised(method: Callable) -> Callable:
    """A field method of a chunk or node, computed on first use and stored in
    self._memo under (method, *args). The key holds the arguments themselves
    (test functions and mobilities hash by identity), so they stay alive as
    long as the chunk or node and no later object can take their key."""
    @wraps(method)
    def field(self, *args):
        key = (method, *args)
        if key not in self._memo:
            self._memo[key] = method(self, *args)
        return self._memo[key]

    return field


def orthonormal_frame(k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic orthonormal pair (h, i) spanning {k}^perp for unit axes
    k of shape (C, 3).

    Picks the standard basis vector least aligned with k, Gram-Schmidts it
    into h, and sets i = k x h; components within 1e-9 count as tied and go
    to the lowest index, so no last bit of the input decides a tie. The rule
    is deterministic so that any phi-parametrized quadrature is reproducible.
    """
    e = _EYE3[np.argmin(np.abs(k) + [0.0, 1e-9, 2e-9], axis=-1)]
    h = e - np.sum(e * k, axis=-1, keepdims=True) * k
    h = h / np.sqrt(np.sum(h**2, axis=-1))[..., None]
    return h, np.cross(k, h)


class PairChunk:
    """A batch of pairs in their collision frames, with the pair-level fields
    the sweep terms and landau-kind mobilities read.

    The one place that forms r2 = |v - v*|^2, r = |v - v*| and the axis
    k = (v - v*)/r; they, x = (v - v*)/2 and y = (v + v*)/2 are built
    eagerly, and (r, k, y) is the frame DS and AS fields take. The density
    fields (needing f), the kinetic factor (needing the kernel),
    test-function derivatives, the azimuths with the collision-frame forms of
    dbar psi and of a mixture's log ratio, and mobility values are computed
    on first use, once per chunk, keyed by the test function, mobility and
    node count they belong to (_memoised). A pair with r <= 1e-12 has no
    collision frame and is refused, naming the first one.
    """

    def __init__(self, v: np.ndarray, v_star: np.ndarray, w: np.ndarray | None = None,
                 f: GaussianMixture | None = None, kernel: CollisionKernel | None = None):
        self.v = v = np.asarray(v, dtype=float)
        self.v_star = v_star = np.asarray(v_star, dtype=float)
        u = v - v_star
        self.r2 = sq3(u)
        self.r = r = np.sqrt(self.r2)
        diagonal = r <= 1e-12
        if diagonal.any():
            at = tuple(np.argwhere(diagonal)[0])
            raise GeometryError(f"zero relative velocity at pair v={v[at]}, v*={v_star[at]}")
        self.w = np.ones(r.shape) if w is None else w
        self.k = u / r[..., None]
        self.x = 0.5 * u
        self.y = 0.5 * (v + v_star)
        self.f, self.kernel = f, kernel
        self._memo: dict = {}

    @cached_property
    def log_f_v(self) -> np.ndarray:
        return self.f.log_value(self.v)

    @cached_property
    def log_f_star(self) -> np.ndarray:
        return self.f.log_value(self.v_star)

    @cached_property
    def logF(self) -> np.ndarray:
        """log f(v) + log f(v*)."""
        return self.log_f_v + self.log_f_star

    @cached_property
    def F(self) -> np.ndarray:
        """f f* as exp(log F), consistent with logF."""
        return np.exp(self.logF)

    @cached_property
    def sqF(self) -> np.ndarray:
        return np.exp(0.5 * self.logF)

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

    @_memoised
    def psi_pre(self, psi) -> np.ndarray:
        """psi(v) + psi(v*) for a single-variable psi."""
        return psi.value(self.v) + psi.value(self.v_star)

    @_memoised
    def azimuths(self, n_phi: int) -> np.ndarray:
        """The unit vectors p perpendicular to k at n_phi equispaced azimuths,
        shape (C, n_phi, 3)."""
        phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
        h, i = orthonormal_frame(self.k)
        return h[..., None, :] * np.cos(phi)[:, None] + i[..., None, :] * np.sin(phi)[:, None]

    @_memoised
    def dbar_forms(self, psi, n_phi: int) -> tuple[np.ndarray, np.ndarray]:
        """(c (p.Qp - k.Qk), c k.Qp) over the azimuths p, shape (C, n_phi), with
        c = E r^2/2 and Q = psi.quad (E = 1 for a single-variable psi, the
        envelope for a DS bump). For a psi whose pair sum is a collision
        invariant plus 2 E x^T Q x (a quadratic polynomial, a DS bump), dbar
        psi at deflection theta is sin^2(theta) a + sin(2 theta) b, free of
        the four-point cancellation; for a Gaussian that sum is
        2 (P_e' - P_e), the change of the even part of its quadratic (see
        gaussian_forms)."""
        c = self.form_scale(psi)
        p = self.azimuths(n_phi)
        Qk = self.k @ psi.quad
        a = dot3(p @ psi.quad, p) - dot3(self.k, Qk)[:, None]
        return c[:, None] * a, c[:, None] * dot3(p, Qk[:, None, :])

    @_memoised
    def form_scale(self, psi) -> np.ndarray:
        """c = E r^2/2 of a psi with a quadratic form, shape (C,): E = 1 for
        a single-variable psi, the envelope at the pairs for a DS bump, read
        once per chunk whichever route takes dbar psi."""
        c = 0.5 * self.r**2
        if psi.kind == "DS":
            c = c * self.envelope(psi)
        return c

    @_memoised
    def envelope(self, psi) -> np.ndarray:
        """The envelope of a DS bump at the pairs, the one DS callable read."""
        return psi.envelope(self.r, self.y)

    @_memoised
    def dbar_means(self, psi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(c<a>, c^2<a^2>, c^2<b^2>) per pair: the means over the circle of
        azimuths p of the dbar_forms of a psi with a quadratic form Q, with
        a = p.Qp - k.Qk, b = k.Qp and c = form_scale(psi). With kappa = k.Qk,
        tQ = tr Q - kappa and t2 = tr Q^2 - 2|Qk|^2 + kappa^2 (the trace of Q
        and of Q^2 on the plane of p)

            <a>   = tr Q/2 - 3 kappa/2,
            <a^2> = tQ^2/8 + t2/4 - kappa tQ + kappa^2,
            <b^2> = (|Qk|^2 - kappa^2)/2,

        and <b> = <ab> = 0. a and b do not change when a multiple of I is
        added to Q, so Q is taken traceless (tQ = -kappa, <a^2> =
        17 kappa^2/8 + t2/4): every term is then of the size of the means,
        and a Q near a multiple of I keeps its relative accuracy, where the
        full-trace terms would cancel. a^2 is a trigonometric polynomial of
        degree 4 in the azimuth, so an n_phi-node trapezoid gives these means
        exactly for n_phi >= 5; no azimuth is formed here."""
        Q = psi.quad - (np.trace(psi.quad) / 3.0) * _EYE3
        c = self.form_scale(psi)
        Qk = self.k @ Q
        kap = dot3(self.k, Qk)
        qk2 = sq3(Qk)
        t2 = float(np.sum(Q * Q)) - 2.0 * qk2 + kap**2
        return (c * (-1.5 * kap), c**2 * (2.125 * kap**2 + 0.25 * t2),
                c**2 * (0.5 * (qk2 - kap**2)))

    @_memoised
    def gaussian_forms(self, psi, n_phi: int) -> tuple | None:
        """The pair-level pieces of dbar psi for a Gaussian psi = P(u) g(u),
        u = v - c, P(u) = c0 + b.u + u^T Q u, g(u) = exp(-|u|^2/(2 w^2)).

        With z = y - c, x = (r/2) k and s = z.x/w^2, the pair sum is
        psi(v) + psi(v*) = 2 E (P_e cosh s - P_o sinh s), where
        E = exp(-(|z|^2 + |x|^2)/(2 w^2)) is unchanged by the collision,
        P_e = c0 + b.z + z^T Q z + x^T Q x and P_o = (b + 2 Q z).x. The
        collision moves x by (r/2)(sin(theta) p - 2 sin^2(theta/2) k), so
        g(u') = g(u) e^(-ds) and g(u*') = g(u*) e^(ds) with
        ds = s' - s = sin(theta) t - 2 sin^2(theta/2) s, t = (r/2) z.p/w^2;
        P(u') - P(u) = dP_e + dP_o and P(u*') - P(u*) = dP_e - dP_o, with
        2 dP_e from dbar_forms and 2 dP_o = sin(theta) G.p - 2 sin^2(theta/2) G.k,
        G = r (b + 2 Q z). CollisionNode.dbar sums the differences term by
        term, so nothing cancels at small theta.

        Returns t and G.p over the azimuths, and s, G.k, g(u)/2, psi(v),
        g(u*)/2, psi(v*) shaped (C, 1); None when some |ds| could pass 700,
        where e^(ds) overflows, and the node evaluates psi at the four points
        instead.
        """
        iw2, b, Q = psi.inv_w2, psi.linear, psi.quad
        z = self.y - psi.center
        if np.max(self.r * np.sqrt(sq3(z))) * iw2 > 700.0:
            return None
        p = self.azimuths(n_phi)
        G = self.r[:, None] * (b + 2.0 * z @ Q)
        t = (0.5 * iw2 * self.r)[:, None] * dot3(p, z[:, None, :])
        pair = [0.5 * iw2 * self.r * dot3(z, self.k), dot3(G, self.k)]
        for v in (self.v, self.v_star):
            u = v - psi.center
            g = np.exp(-0.5 * iw2 * sq3(u))
            pair += [0.5 * g, (psi.const + u @ b + dot3(u @ Q, u)) * g]
        return (t, dot3(p, G[:, None, :]), *(f[:, None] for f in pair))

    @_memoised
    def mixture_forms(self, n_phi: int) -> list[tuple]:
        """The pair-level pieces of log f(v')/f(v) and log f(v*')/f(v*) for the
        density f = sum_k w_k N(mu_k, Sigma_k), one (stack, weights) pair per
        component.

        The collision moves v by delta = (r/2)(sin(theta) p - 2 sin^2(theta/2) k)
        and v* by -delta, so with P = Sigma_k^-1, u = v - mu_k and u* = v* - mu_k

            d_k  = log N_k(v') - log N_k(v)   = -(P u).delta  - delta^T P delta/2,
            d*_k = log N_k(v*') - log N_k(v*) =  (P u*).delta - delta^T P delta/2,

        and f(v')/f(v) = sum_k pi_k(v) e^(d_k), with pi_k(v) = w_k N_k(v)/f(v)
        the responsibilities. Per component this returns a stack of seven
        node-shaped (C, n_phi) pieces, the linear ones
        U_p = -+(r/2) (P u).p at v and v*, U_k = -+(r/2) (P u).k at v and v*,
        and the quadratic ones (r^2/8) p.Pp, (r^2/4) p.Pk, (r^2/8) k.Pk, so
        that at deflection theta, with a = sin(theta) and
        b = 2 sin^2(theta/2),

            d = a U_p - b U_k - (a^2 (r^2/8) p.Pp - a b (r^2/4) p.Pk + b^2 (r^2/8) k.Pk)

        at either end is one contraction of the stack. weights holds, for v
        and for v*, the log responsibility log pi_k and pi_k, each of shape
        (C, 1), which the node fields broadcast.
        """
        f, h = self.f, 0.5 * self.r[:, None]
        p = self.azimuths(n_phi)
        log_pis = (f.log_responsibilities(self.v, self.log_f_v),
                   f.log_responsibilities(self.v_star, self.log_f_star))
        out = []
        for c in range(f.weights.size):
            prec = 1.0 / f.cov_diags[c]
            Pk = self.k * prec
            stack = np.empty((7,) + p.shape[:2])
            for i, (sign_h, v) in enumerate(((-h, self.v), (h, self.v_star))):
                Pu = (v - f.means[c]) * prec
                stack[i] = sign_h * dot3(p, Pu[:, None, :])
                stack[2 + i] = sign_h * dot3(Pu, self.k)[:, None]
            stack[4] = (0.5 * h * h) * dot3(p * prec, p)
            stack[5] = (h * h) * dot3(p, Pk[:, None, :])
            stack[6] = (0.5 * h * h) * dot3(self.k, Pk)[:, None]
            out.append((stack, [(lp[c][:, None], np.exp(lp[c][:, None])) for lp in log_pis]))
        return out

    @_memoised
    def grad(self, psi) -> np.ndarray:
        """(grad - grad_*) psi at the pairs, for a single-variable psi."""
        return psi.gradient(self.v) - psi.gradient(self.v_star)

    @_memoised
    def dtilde(self, psi, gamma: float) -> np.ndarray:
        """dtilde psi = |v-v*|^(1+gamma/2) Pi[v-v*] (grad - grad_*) psi; for a
        DS bump, 2 r^(1+gamma/2) E Pi[k] Q x in closed form."""
        scale = self.r ** (1.0 + 0.5 * gamma)
        if psi.kind == "DS":
            return ds_projected_gradient(psi, self.envelope(psi), 2.0 * scale, self.x, self.k)
        g = self.grad(psi)
        pg = g - dot3(self.k, g)[..., None] * self.k
        return scale[..., None] * pg

    @_memoised
    def div_pi_grad(self, psi) -> np.ndarray:
        """The bracket of dtilde . dtilde psi = r^(2+gamma) * bracket:
        tr H - k.H k - (4/r) k.g, with g = (grad - grad_*) psi and H its
        Hessian, for a single-variable psi; 2 E (tr Q - 3 k.Q k) for a DS
        bump."""
        if psi.kind == "DS":
            return ds_projected_divergence(psi, self.envelope(psi), 2.0, self.k)
        # (grad - grad_*) (x) (grad - grad_*) psi
        H = psi.hessian(self.v) + psi.hessian(self.v_star)
        trH = H[..., 0, 0] + H[..., 1, 1] + H[..., 2, 2]
        kHk = dot3(self.k, np.einsum("...ij,...j->...i", H, self.k))
        return trH - kHk - (4.0 / self.r) * dot3(self.k, self.grad(psi))

    @_memoised
    def m(self, M) -> np.ndarray:
        """The landau-kind mobility M at the pairs, shape (C, 3)."""
        return M.field(self)


class CollisionNode:
    """The collision state at one theta node of a chunk, all azimuths batched.

    sigma = cos(theta) k + sin(theta) p over the chunk's azimuths p, v' and
    v*' have shape (C, n_phi, 3) and node fields (C, n_phi); the pair's v, v*,
    r, r2 = |v - v*|^2 and kinetic factor are seen here with broadcast shapes
    (C, 1, 3) and (C, 1); beta is the given kernel's, whose theta node this
    is. The density's node fields are Delta = log f'f*' - log ff* (dlogF)
    and the ratios f'/f - 1 and f*'/f* - 1 (ratio_m1); none of them builds
    v' or v*', which are built only for what is evaluated there (the
    Cc_single bump, the identities checks). Every field is computed on first
    use, so terms and mobilities that share one (Delta, Lambda, Lambda B_eps,
    dbar psi, a mobility value) evaluate it once per node; dbar psi and the
    mobility values are keyed by psi and M themselves. The node is built from
    theta alone and forms sin(theta), cos(theta) and the versine
    2 sin^2(theta/2) once. `swapped` is the same node seen from (v*, v, -sigma).
    """

    def __init__(self, pair: PairChunk, theta, n_phi: int, kernel: CollisionKernel):
        self.pair, self.theta, self.n_phi, self.kernel = pair, theta, n_phi, kernel
        self.p = pair.azimuths(n_phi)
        self.sin_theta, self.cos_theta = np.sin(theta), np.cos(theta)
        # 2 sin^2(theta/2) = 1 - cos(theta), without its cancellation at small theta
        self.versine = 2.0 * np.sin(0.5 * theta) ** 2
        self.v, self.v_star = pair.v[..., None, :], pair.v_star[..., None, :]
        self.r, self.r2 = pair.r[..., None], pair.r2[..., None]
        self._memo: dict = {}

    @property
    def kin(self) -> np.ndarray:
        return self.pair.kin[..., None]

    @cached_property
    def sigma(self) -> np.ndarray:
        # cos(theta) k + sin(theta) p, summed in place: the same bits, and
        # one (C, n_phi, 3) temporary fewer per node
        out = self.sin_theta * self.p
        out += self.cos_theta * self.pair.k[..., None, :]
        return out

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
        """beta_eps of the node's kernel at this node's theta."""
        return beta_eps(self.kernel.angular, np.asarray(self.theta))

    @cached_property
    def _post_ratios(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """(log f(v')/f(v), f(v')/f(v) - 1) and the same at v*, from the
        chunk's mixture_forms: no v' or v*' is built and no density is
        evaluated at a post-collision point."""
        a, b = self.sin_theta, self.versine
        coef = np.array([[a, 0.0, -b, 0.0, -a * a, a * b, -b * b],
                         [0.0, a, 0.0, -b, -a * a, a * b, -b * b]])
        ends = ([], [])
        for stack, weights in self.pair.mixture_forms(self.n_phi):
            # one pass over the pieces gives d at both ends
            d = (coef @ stack.reshape(7, -1)).reshape((2,) + stack.shape[1:])
            for terms, d_end, (log_pi, pi) in zip(ends, d, weights):
                terms.append((log_pi, pi, d_end))
        return tuple(_post_ratio(terms) for terms in ends)

    @property
    def ratio_m1(self) -> tuple[np.ndarray, np.ndarray]:
        """(S, S*) = (f(v')/f(v) - 1, f(v*')/f(v*) - 1), so that
        f(v') - f(v) = f(v) S without f at v'."""
        return self._post_ratios[0][1], self._post_ratios[1][1]

    @cached_property
    def dlogF(self) -> np.ndarray:
        """Delta = log f'f*' - log ff*, the node field every reader of the
        post-collision density takes (f'f*' = F e^Delta). For one Gaussian it
        is dbar of the density's log_pair_form; for a mixture it is
        log1p(S) + log1p(S*) through the responsibilities (mixture_forms).
        Both are taken in the collision frame, with no v', v*' and no
        cancellation at small theta."""
        form = self.pair.f.log_pair_form
        if form is None:
            (log_ratio, _), (log_ratio_star, _) = self._post_ratios
            return log_ratio + log_ratio_star
        return self.dbar(form)

    @cached_property
    def lam(self) -> np.ndarray:
        """Lambda(f) = logarithmic mean of f f* and f' f*'."""
        return _log_mean(self.pair.F[..., None], self.dlogF)

    @cached_property
    def lam_b(self) -> np.ndarray:
        """Lambda(f) B_eps = Lambda |v-v*|^gamma beta_eps / sin(theta), the
        natural weight of a collision rate."""
        out = self.lam * self.kin
        out *= self.beta
        out /= self.sin_theta
        return out

    @_memoised
    def dbar(self, psi) -> np.ndarray:
        """dbar psi = psi(v') + psi(v*') - psi(v) - psi(v*), or for a DS psi
        psi(v',v*') + psi(v*',v') - psi(v,v*) - psi(v*,v). A Gaussian reads
        its chunk's gaussian_forms, and any other psi with a quadratic form
        (psi.quad: quadratic polynomials and DS bumps) its dbar_forms; neither
        builds v' or v*'. A psi without one (Cc_single) is evaluated at v' and
        v*', as is a Gaussian on a chunk where its exponents could overflow."""
        gaussian = is_gaussian(psi)
        forms = self.pair.gaussian_forms(psi, self.n_phi) if gaussian else None
        if psi.quad is None or (gaussian and forms is None):
            pre = self.pair.psi_pre(psi)[..., None]
            return psi.value(self.vp) + psi.value(self.vsp) - pre
        sin_t, cos_t, vers = self.sin_theta, self.cos_theta, self.versine
        a, b = self.pair.dbar_forms(psi, self.n_phi)
        dpe = (sin_t**2) * a
        dpe += (2.0 * sin_t * cos_t) * b
        if not gaussian:
            return dpe
        t, Gp, s, Gk, h, psi_v, h_star, psi_star = forms
        dpo = sin_t * Gp
        dpo -= vers * Gk
        ds = sin_t * t
        ds -= vers * s
        em = np.expm1(ds)
        em_neg = np.expm1(np.negative(ds, out=ds), out=ds)
        # h (dpe + dpo)(1 + em_neg) + psi_v em_neg + h* (dpe - dpo)(1 + em)
        # + psi* em, summed left to right in place: the bits of the
        # expression, with a few node-sized temporaries instead of ~15
        out = dpe + dpo
        dpe -= dpo
        out *= h
        # dpo is read for the last time above; its buffer takes 1 + em_neg
        one_plus = np.add(em_neg, 1.0, out=dpo)
        out *= one_plus
        em_neg *= psi_v
        out += em_neg
        dpe *= h_star
        dpe *= np.add(em, 1.0, out=one_plus)
        out += dpe
        em *= psi_star
        out += em
        return out

    @property
    def swapped(self) -> "SwappedNode":
        """This node seen from (v*, v, -sigma). A new view on each access: a
        view cached here would make a reference cycle and keep every node's
        arrays alive until the cyclic garbage collector runs."""
        return SwappedNode(self)

    @_memoised
    def m(self, M) -> np.ndarray:
        """The boltzmann-kind mobility M at this node."""
        return M.field(self)

    @_memoised
    def m_sym(self, M) -> np.ndarray:
        """M at the swapped node, i.e. M(v*, v, -sigma, theta)."""
        return M.field(self.swapped)


def _shared(name: str) -> property:
    return property(lambda self: getattr(self.swapped, name))


class SwappedNode:
    """A CollisionNode seen from (v*, v, -sigma), the other orientation of
    the same unordered pair. The fields invariant under that swap (theta,
    beta_eps, Lambda, Lambda B_eps, dbar psi, r, r2, the kinetic factor) are
    the node's own, so reading them here computes nothing new.
    """

    theta, sin_theta, beta, r, r2, kin, lam, lam_b = map(_shared, (
        "theta", "sin_theta", "beta", "r", "r2", "kin", "lam", "lam_b"))

    def __init__(self, node: CollisionNode):
        self.swapped = node
        self.v, self.v_star = node.v_star, node.v

    @cached_property
    def sigma(self) -> np.ndarray:
        return -self.swapped.sigma

    def dbar(self, psi) -> np.ndarray:
        return self.swapped.dbar(psi)


def collision_nodes(pair: PairChunk, spec: QuadratureSpec, kernel: CollisionKernel):
    """Yield (weight, CollisionNode) for each theta node of the kernel's
    angular rule, at spec.sphere_phi_nodes azimuths, each node built with
    that kernel; weight * sum over azimuths approximates the
    int int . beta_eps d(theta) d(phi) of the node's values.

    Nodes are built empty and fill on use, so one node's fields are released
    before the next node computes its own. The kernel must share the pair
    kernel's kinetic factor, which the pair holds.
    """
    theta, wtheta = angular_nodes(kernel.angular, spec)
    n_phi = spec.sphere_phi_nodes
    wphi = 2.0 * np.pi / n_phi
    for a in range(theta.size):
        yield wtheta[a] * wphi, CollisionNode(pair, theta[a], n_phi, kernel)


@dataclass(frozen=True)
class PairGrid:
    """Lazy tensor grid over unordered pairs {v, v*}.

    Only the R^3 factor is materialized. Off-diagonal pairs are enumerated
    once (i < j) with doubled weight, which is exact for every collision
    integrand because they are invariant under the swap
    (v, v*, sigma) -> (v*, v, -sigma); non-symmetric integrands must be
    symmetrized by the caller. Diagonal pairs are never enumerated.
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


def pair_grid(f: GaussianMixture, spec: QuadratureSpec) -> PairGrid:
    """Pair grid in the density's Gaussian frame."""
    center, scale = f.quadrature_frame()
    pts, wgt = r3_nodes(spec.pair_nodes, center, scale)
    return PairGrid(pts=pts, wgt=wgt, f=f)


def _chunk_sum(name: str, chunk: PairChunk, values: np.ndarray) -> float:
    """The pairwise sum of one chunk's weighted values; a non-finite sum
    raises QuadratureError naming the term and its first non-finite pair."""
    total = pairwise_sum(values)
    if not np.isfinite(total):
        bad = np.flatnonzero(~np.isfinite(values))
        where = (f"at pair v={chunk.v[bad[0]]}, v*={chunk.v_star[bad[0]]}" if bad.size
                 else "(the sum overflowed)")
        raise QuadratureError(f"non-finite partial sum of {name!r} {where}")
    return total


def _reduce_chunks(grid: PairGrid, kernel: CollisionKernel | None,
                   partials: Callable) -> list[dict[str, float]]:
    """The one loop over a grid's pair chunks. partials(chunk) gives a list
    of dicts of chunk sums, the same outputs and names for every chunk; each
    (output, name) is then summed over the chunks in a pairwise tree.

    The chunks are mapped through parallel_map in order, each built inside
    the mapped function and dropped once its sums are taken, so one chunk is
    alive at a time and memory stays O(chunk) whatever the grid's size.
    """
    def one(start: int) -> list[dict[str, float]]:
        return partials(grid.chunk(start, min(start + CHUNK, grid.n_pairs), kernel))

    per_chunk = parallel_map(one, range(0, grid.n_pairs, CHUNK))
    return [{name: pairwise_sum(np.array([p[i][name] for p in per_chunk])) for name in sums}
            for i, sums in enumerate(per_chunk[0])]


def pair_reduce(grid: PairGrid, fns: dict[str, Callable]) -> dict[str, float]:
    """sum over pairs of w * fn(chunk) for each named integrand; a non-finite
    chunk sum raises QuadratureError."""
    def partials(chunk: PairChunk) -> list[dict[str, float]]:
        return [{name: _chunk_sum(name, chunk, chunk.w * fn(chunk)) for name, fn in fns.items()}]

    return _reduce_chunks(grid, None, partials)[0]


# ---------------------------------------------------------------------------
# the angular sweep


def azimuth_sum(a: np.ndarray) -> np.ndarray:
    """np.sum(a, axis=1) of a (C, n) array, in numpy's own summation order so
    the bits are the same, without numpy's per-row reduction machinery.

    numpy sums each C-contiguous row pairwise: sequentially below 8 terms;
    up to 128 terms with eight accumulators, r_j = a_j + a_(j+8) + ..., then
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)) and the leftover terms
    in sequence. Here each step adds whole columns. Past 128 terms, or for
    another layout, where numpy's order differs, this is np.sum itself.
    """
    n = a.shape[1]
    if n > 128 or not a.flags.c_contiguous:
        return np.sum(a, axis=1)
    if n < 8:
        out = a[:, 0].copy()
        for i in range(1, n):
            out += a[:, i]
        return out
    blocks = n - n % 8
    r = a[:, :8]
    if blocks > 8:
        r = r.copy()
        for i in range(8, blocks, 8):
            r += a[:, i:i + 8]
    out = (r[:, 0] + r[:, 1]) + (r[:, 2] + r[:, 3])
    out += (r[:, 4] + r[:, 5]) + (r[:, 6] + r[:, 7])
    for i in range(blocks, n):
        out += a[:, i]
    return out


class DbarPower:
    """The sweep term (dbar psi)^power, power 1 or 2, which takes its own
    route.

    For a psi with a quadratic form that is not a Gaussian (a quadratic
    polynomial, a DS bump, one Gaussian density's log_pair_form), dbar psi
    at (theta, p) is sin^2(theta) a + sin(2 theta) b in the chunk's
    dbar_forms, so its angular integral is a pair field times a theta-moment
    of the kernel (angular_moments):

        int int dbar psi beta_eps d(theta) d(phi)     = 2 pi M2 c<a>,
        int int (dbar psi)^2 beta_eps d(theta) d(phi) = 2 pi (M4 c^2<a^2> + M22 c^2<b^2>)

    with the chunk's dbar_means. collision_sweeps takes such a term so, with
    no theta x phi node; the trapezoid in phi is exact on these terms for
    n_phi >= 5, so only roundoff differs from the node sum (at n_phi = 4 this
    is the exact phi-integral, where the node sum aliases a^2). Any other
    psi, and a call on a node, takes the node's dbar psi.
    """

    def __init__(self, psi, power: int = 1):
        if power not in (1, 2):
            raise OperatorError(f"DbarPower takes power 1 or 2, got {power!r}")
        self.psi, self.power = psi, power

    def __call__(self, node: CollisionNode) -> np.ndarray:
        d = node.dbar(self.psi)
        return d if self.power == 1 else d**2

    @property
    def closed_form(self) -> bool:
        return self.psi.quad is not None and not is_gaussian(self.psi)

    def angular_sum(self, chunk: PairChunk, kernel: CollisionKernel,
                    spec: QuadratureSpec) -> np.ndarray:
        """Per pair, the closed-form int int term beta_eps d(theta) d(phi)."""
        m2, m4, m22 = angular_moments(kernel.angular, spec)
        lin, a2, b2 = chunk.dbar_means(self.psi)
        if self.power == 1:
            return (2.0 * np.pi * m2) * lin
        return (2.0 * np.pi) * (m4 * a2 + m22 * b2)


def _angular_sums(chunk: PairChunk, kernel: CollisionKernel, spec: QuadratureSpec,
                  terms: dict[str, Callable]) -> dict[str, np.ndarray]:
    """The one loop over the theta x phi nodes: per pair, each term's
    int int term beta_eps d(theta) d(phi) by the kernel's rule, theta nodes
    summed in order, azimuths by azimuth_sum."""
    acc = {name: np.zeros(chunk.r.shape[0]) for name in terms}
    for wnode, node in collision_nodes(chunk, spec, kernel):
        for name, fn in terms.items():
            acc[name] += wnode * azimuth_sum(fn(node))
    return acc


def _kin(chunk: PairChunk) -> np.ndarray:
    return chunk.kin


def _F_kin(chunk: PairChunk) -> np.ndarray:
    return chunk.F * chunk.kin


def _inv_kin(chunk: PairChunk) -> np.ndarray:
    return 1.0 / chunk.kin


def _one(chunk: PairChunk) -> np.ndarray:
    return np.ones(chunk.r.shape)


SweepTerms = dict[str, tuple[Callable, Callable]]


def collision_sweeps(grid: PairGrid, spec: QuadratureSpec,
                     plan: dict[CollisionKernel, SweepTerms]) -> dict[CollisionKernel, dict]:
    """collision_sweep for a batch of kernels that differ only in eps, in one
    pass over the pair chunks: plan[kernel] holds that kernel's own terms,
    and the result one dict of its term sums per kernel, keyed like the plan.
    Kernels that share a term set share one terms dict.

    Each chunk is built once and its pair-level state (F, sqrt F, the
    kinetic factor, the azimuths, the collision-frame forms of dbar psi and
    of a mixture's log ratio) serves every kernel, and each pair factor
    function is formed once per chunk, whatever terms and kernels carry it;
    the theta nodes and beta_eps are each kernel's own. The chunks go
    through _reduce_chunks and each kernel's nodes through _angular_sums,
    the loops pair_reduce and the test oracle's sigma_average run too; a
    closed-form DbarPower term skips the nodes and reads the chunk's azimuth
    means and the kernel's theta-moments in the same pass. Each kernel's partial sums are
    the ones its own sweep forms, in the same order, so every value has the
    bits of a one-kernel sweep. A batch whose kernels differ in gamma or
    kinetic_cutoff is refused: the kinetic factor is the chunk's.
    """
    first, *rest = plan
    for k in rest:
        if (k.gamma, k.kinetic_cutoff) != (first.gamma, first.kinetic_cutoff):
            raise OperatorError("a batched sweep needs one gamma and one kinetic_cutoff, got "
                                f"({first.gamma}, {first.kinetic_cutoff}) and "
                                f"({k.gamma}, {k.kinetic_cutoff})")

    def split(terms: SweepTerms) -> tuple[dict, dict]:
        closed = {name: t for name, (t, _) in terms.items()
                  if isinstance(t, DbarPower) and t.closed_form}
        return closed, {name: t for name, (t, _) in terms.items() if name not in closed}

    routes = {kernel: split(terms) for kernel, terms in plan.items()}
    factors = dict.fromkeys(factor for terms in plan.values() for _, factor in terms.values())

    def partials(chunk: PairChunk) -> list[dict[str, float]]:
        weights = {factor: chunk.w * factor(chunk) for factor in factors}
        out = []
        for kernel, terms in plan.items():
            closed, nodal = routes[kernel]
            acc = _angular_sums(chunk, kernel, spec, nodal) if nodal else {}
            for name, term in closed.items():
                acc[name] = term.angular_sum(chunk, kernel, spec)
            out.append({name: _chunk_sum(name, chunk, weights[factor] * acc[name])
                        for name, (_, factor) in terms.items()})
        return out

    return dict(zip(plan, _reduce_chunks(grid, first, partials)))


def collision_sweep(grid: PairGrid, kernel: CollisionKernel, spec: QuadratureSpec,
                    terms: SweepTerms) -> dict[str, float]:
    """Reduce sum_pairs w * pair_factor * (int int term beta_eps d(theta) d(phi))
    for each terms[name] = (term, pair_factor).

    term(node) -> (C, n_phi) is evaluated at every theta node of every
    chunk, except a DbarPower term of a psi with a non-Gaussian quadratic
    form, whose angular integral is taken in closed form; `node` is a
    CollisionNode holding sigma, Delta = log f'f*' - log ff*, the ratios
    f'/f - 1 and f*'/f* - 1, Lambda, Lambda B_eps, beta_eps, dbar psi and
    mobility values (M at the node and at node.swapped), each computed once
    per node however many terms read it, with the pair fields (F, log F,
    sqrt F, kinetic factor, the azimuths, the collision-frame forms of dbar
    psi and of a mixture's log ratio) on node.pair. v' and v*' are built
    only for a term that reads them. pair_factor(chunk) -> (C,) multiplies
    the angular integral before the pair reduction; it reads the same
    PairChunk. A non-finite chunk sum raises QuadratureError. The one-kernel
    plan of collision_sweeps, which serves a batch of eps with one pass over
    the chunks.
    """
    return collision_sweeps(grid, spec, {kernel: terms})[kernel]


# ---------------------------------------------------------------------------
# weak-form collision operators


def _boltzmann_weak_values(f: GaussianMixture, psis: list, kernels: list[CollisionKernel],
                           spec: QuadratureSpec, form: str) -> list[list[float]]:
    """One quadrature level of the weak Boltzmann pairing at each kernel of a
    batch (the outer list) of each psi (the inner one): one collision_sweeps
    pass with one term weak{j} per psi, so each value has the bits of a
    sweep of its psi alone.

    second_order = 1/2 int int f f* int dbar(psi) B_eps
    first_order  = -1/8 int int int dbar(f f*) dbar(psi) B_eps
    """
    if form == "second_order":
        term, scale = DbarPower, 0.5
    else:
        # dbar(f f*) = 2 F expm1(Delta), with F in the pair factor
        term, scale = (lambda psi: lambda node: 2.0 * np.expm1(node.dlogF) * node.dbar(psi)), -0.125
    terms = {f"weak{j}": (term(psi), _F_kin) for j, psi in enumerate(psis)}
    outs = collision_sweeps(pair_grid(f, spec), spec, dict.fromkeys(kernels, terms))
    return [[scale * outs[k][f"weak{j}"] for j in range(len(psis))] for k in kernels]


def boltzmann_weak(f: GaussianMixture, psi, kernel: CollisionKernel, spec: QuadratureSpec,
                   form: str = "second_order") -> IntegralResult:
    """Weak pairing <Q_B_eps(f,f), psi> in the requested form.

    The value is computed at the configured level; the error estimate is the
    difference against the next-coarser level.
    """
    if form not in ("second_order", "first_order"):
        raise OperatorError(f"unknown form {form!r}")
    return coarse_fine(lambda s: _boltzmann_weak_values(f, [psi], [kernel], s, form)[0][0], spec)


def _landau_weak_values(f: GaussianMixture, psis: list, gamma: float,
                        spec: QuadratureSpec, form: str) -> list[float]:
    """One quadrature level of the weak Landau pairing of each psi: one
    pair_reduce with one term weak{j} per psi, so each value has the bits of
    a reduction of its psi alone.

    second_order = 1/2 int int f f* dtilde . dtilde psi
    first_order  = -1/2 int int |v-v*|^(2+gamma) Pi (f* grad f - f grad_* f*) . (grad - grad_*) psi
    """
    def second(psi):
        return lambda c: c.F * c.r ** (2.0 + gamma) * c.div_pi_grad(psi)

    def first(psi):
        def term(c: PairChunk) -> np.ndarray:
            a = c.f_star[:, None] * f.gradient(c.v) - c.f_v[:, None] * f.gradient(c.v_star)
            return c.r ** (1.0 + 0.5 * gamma) * dot3(a, c.dtilde(psi, gamma))
        return term

    term, scale = (second, 0.5) if form == "second_order" else (first, -0.5)
    out = pair_reduce(pair_grid(f, spec), {f"weak{j}": term(psi) for j, psi in enumerate(psis)})
    return [scale * out[f"weak{j}"] for j in range(len(psis))]


def landau_weak(f: GaussianMixture, psi, gamma: float, spec: QuadratureSpec,
                form: str = "second_order") -> IntegralResult:
    """Weak pairing <Q_L(f,f), psi> in the requested form."""
    if form not in ("second_order", "first_order"):
        raise OperatorError(f"unknown form {form!r}")
    return coarse_fine(lambda s: _landau_weak_values(f, [psi], gamma, s, form)[0], spec)


# ---------------------------------------------------------------------------
# epsilon sweep


def check_eps_list(eps_list: list[float], least: int, study: str) -> list[float]:
    """The eps of a sweep as floats; refuses a list that is not strictly
    decreasing, or that has fewer than `least` values for `study`."""
    eps_list = [float(e) for e in eps_list]
    if any(e2 >= e1 for e1, e2 in zip(eps_list, eps_list[1:])):
        raise OperatorError("eps_list: must be strictly decreasing")
    if len(eps_list) < least:
        raise OperatorError(f"eps_list: {study} needs at least {least} values, got {len(eps_list)}")
    return eps_list


def fit_order(eps: list[float], errors: list[float], floor: float) -> float | None:
    """Least-squares slope of log(err) against log(eps), ignoring errors below
    the noise floor (error_tolerance of the quadrature error estimates)."""
    pts = [(e, r) for e, r in zip(eps, errors) if r > floor]
    if len(pts) < 3:
        return None
    x = np.log([p[0] for p in pts])
    y = np.log([p[1] for p in pts])
    return float(np.polyfit(x, y, 1)[0])


def grazing_limit_study(f: GaussianMixture, psis: list, kernel: CollisionKernel,
                        eps_list: list[float], spec: QuadratureSpec) -> dict:
    """Sweep eps downward and compare <Q_B_eps, psi> with <Q_L, psi> for every
    psi, both in the second-order weak form: one coarse_fine over a level
    that takes every psi at every eps in one batched sweep and every <Q_L, psi>
    in one pair reduction.

    rows holds (eps, q_boltz, q_landau, abs_err, psi), psi-major; landau,
    noise_floor (error_tolerance of the largest Boltzmann error and the
    Landau one) and fitted_order (None below 3 errors past the floor) hold
    one entry per psi.
    """
    eps_list = check_eps_list(eps_list, 3, "grazing_limit_study")
    kernels = [kernel.with_epsilon(eps) for eps in eps_list]
    results = coarse_fine(lambda s: {
        "boltzmann": _boltzmann_weak_values(f, psis, kernels, s, "second_order"),
        "landau": _landau_weak_values(f, psis, kernel.gamma, s, "second_order")}, spec)
    study: dict = {"rows": [], "landau": [], "noise_floor": [], "fitted_order": []}
    for j, ql in enumerate(results["landau"]):
        qbs = [at_eps[j] for at_eps in results["boltzmann"]]
        abs_errs = [abs(qb.value - ql.value) for qb in qbs]
        floor = error_tolerance(max(qb.error_estimate for qb in qbs), ql.error_estimate)
        study["rows"] += [{"eps": e, "q_boltz": qb.value, "q_landau": ql.value, "abs_err": ae,
                           "psi": j} for e, qb, ae in zip(eps_list, qbs, abs_errs)]
        study["landau"].append(ql.value)
        study["noise_floor"].append(floor)
        study["fitted_order"].append(fit_order(eps_list, abs_errs, floor))
    return study
