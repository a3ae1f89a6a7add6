"""Closed-form densities and smooth test functions.

Densities are strictly positive Gaussian mixtures with analytic value,
gradient, and log-gradient; positivity matters because every dissipation
takes logs and square roots of the density.

Test functions come in three classes:

  single  scalar psi(v) with analytic gradient and Hessian;
  DS      symmetric two-variable scalar psi(v, v*) = psi(v*, v) vanishing
          for |v - v*| <= delta, with analytic derivatives in the
          relative coordinate x = (v - v*)/2;
  AS      anti-symmetric vector field V(v, v*) = -V(v*, v) vanishing for
          |v - v*| <= delta, with the analytic x-Jacobian.

Compact supports are built from the standard exp(-1/(1-t^2)) mollifier in
the radial coordinates of x = (v - v*)/2 and y = (v + v*)/2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np


class FunctionError(ValueError):
    pass


def dot3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Componentwise dot product along the last axis of length 3.

    Faster than np.sum(a*b, axis=-1) for the hot (N, 3) case."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def sq3(a: np.ndarray) -> np.ndarray:
    return a[..., 0] ** 2 + a[..., 1] ** 2 + a[..., 2] ** 2


# ---------------------------------------------------------------------------
# densities


@dataclass(frozen=True)
class Moments:
    mass: float
    momentum: np.ndarray
    energy: float


@dataclass(frozen=True)
class GaussianMixture:
    """Mixture of axis-aligned Gaussians; always a probability density."""

    weights: np.ndarray
    means: np.ndarray
    cov_diags: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if np.any(w <= 0):
            raise FunctionError("mixture weights must be positive")
        if abs(w.sum() - 1.0) > 1e-8:
            raise FunctionError(f"mixture weights sum to {w.sum()!r}, expected 1")
        if np.any(np.asarray(self.cov_diags) <= 0):
            raise FunctionError("covariance diagonals must be positive")

    @cached_property
    def _log_amps(self) -> np.ndarray:
        """log(w_k) + log of each component's normalization."""
        return np.log(self.weights) - 0.5 * np.sum(np.log(2.0 * np.pi * self.cov_diags), axis=-1)

    def _comp_logs(self, v: np.ndarray) -> list[np.ndarray]:
        """Per-component log(w_k N_k(v)); v may have any leading shape."""
        v = np.asarray(v, dtype=float)
        out = []
        for k in range(self.weights.size):
            mu, d = self.means[k], self.cov_diags[k]
            q = ((v[..., 0] - mu[0]) ** 2 / d[0]
                 + (v[..., 1] - mu[1]) ** 2 / d[1]
                 + (v[..., 2] - mu[2]) ** 2 / d[2])
            out.append(self._log_amps[k] - 0.5 * q)
        return out

    def value(self, v: np.ndarray) -> np.ndarray:
        logs = self._comp_logs(v)
        out = np.exp(logs[0])
        for lc in logs[1:]:
            out += np.exp(lc)
        return out

    def pair_value(self, v: np.ndarray, v_star: np.ndarray) -> np.ndarray:
        """f(v) f(v*), with a single exponential in the one-component case."""
        if self.weights.size == 1:
            logs = self._comp_logs(v)[0] + self._comp_logs(v_star)[0]
            return np.exp(logs)
        return self.value(v) * self.value(v_star)

    def log_value(self, v: np.ndarray) -> np.ndarray:
        logs = self._comp_logs(v)
        if len(logs) == 1:
            return logs[0]
        m = logs[0]
        for lc in logs[1:]:
            m = np.maximum(m, lc)
        acc = np.exp(logs[0] - m)
        for lc in logs[1:]:
            acc += np.exp(lc - m)
        return m + np.log(acc)

    def gradient(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        logs = self._comp_logs(v)
        out = np.zeros(v.shape)
        for k, lc in enumerate(logs):
            pull = -(v - self.means[k]) / self.cov_diags[k]
            out += np.exp(lc)[..., None] * pull
        return out

    def grad_log(self, v: np.ndarray) -> np.ndarray:
        """grad log f, computed through component responsibilities (stable in
        the tails where f itself underflows)."""
        v = np.asarray(v, dtype=float)
        logs = self._comp_logs(v)
        if len(logs) == 1:
            return -(v - self.means[0]) / self.cov_diags[0]
        m = logs[0]
        for lc in logs[1:]:
            m = np.maximum(m, lc)
        total = np.zeros(m.shape)
        out = np.zeros(v.shape)
        for k, lc in enumerate(logs):
            r = np.exp(lc - m)
            total += r
            out += r[..., None] * (-(v - self.means[k]) / self.cov_diags[k])
        return out / total[..., None]

    @property
    def moments(self) -> Moments:
        w = self.weights
        momentum = np.sum(w[:, None] * self.means, axis=0)
        energy = float(np.sum(w * (np.sum(self.means**2, axis=1) + np.sum(self.cov_diags, axis=1))))
        return Moments(mass=1.0, momentum=momentum, energy=energy)

    def quadrature_frame(self) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
        """Gaussian reference (center, per-axis scale) covering the mixture."""
        mean = np.sum(self.weights[:, None] * self.means, axis=0)
        var = np.sum(self.weights[:, None] * (self.cov_diags + (self.means - mean) ** 2), axis=0)
        return tuple(mean), tuple(np.sqrt(var))


def mixture_expectation(f: "GaussianMixture", h: Callable, spec) -> "IntegralResult":
    """int f(v) h(v) dv, integrating each mixture component in its own
    Gaussian frame (exact framing regardless of component separation)."""
    from .quadrature import IntegralResult, integrate_r3

    total, err = 0.0, 0.0
    for k in range(f.weights.size):
        comp = GaussianMixture(weights=np.ones(1), means=f.means[k:k + 1],
                               cov_diags=f.cov_diags[k:k + 1])
        w = float(f.weights[k])
        r = integrate_r3(lambda v: comp.value(v) * np.asarray(h(v), dtype=float),
                         spec, tuple(f.means[k]), tuple(np.sqrt(f.cov_diags[k])))
        total += w * r.value
        err += w * r.error_estimate
    return IntegralResult(value=total, error_estimate=err)


def gaussian_mixture(components: list[tuple[float, np.ndarray, np.ndarray]]) -> GaussianMixture:
    """Build a mixture density from (weight, mean, covariance-diagonal) triples."""
    if not components:
        raise FunctionError("mixture needs at least one component")
    w = np.array([c[0] for c in components], dtype=float)
    mu = np.array([np.asarray(c[1], dtype=float) for c in components])
    cov = np.array([np.asarray(c[2], dtype=float) for c in components])
    if np.any(w <= 0):
        raise FunctionError("mixture weights must be positive")
    if abs(w.sum() - 1.0) > 1e-8:
        raise FunctionError(f"mixture weights sum to {w.sum()!r}, expected 1")
    return GaussianMixture(weights=w / w.sum(), means=mu, cov_diags=cov)


def maxwellian(mean: np.ndarray = (0.0, 0.0, 0.0), temperature: float = 1.0) -> GaussianMixture:
    """Isotropic Gaussian equilibrium with covariance T*I."""
    return gaussian_mixture([(1.0, np.asarray(mean, dtype=float), temperature * np.ones(3))])


# ---------------------------------------------------------------------------
# mollifier building blocks


def _bump(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """exp(-1/(1-rho)) on rho < 1 (rho = t^2), with first two rho-derivatives."""
    rho = np.asarray(rho, dtype=float)
    inside = rho < 1.0
    safe = np.where(inside, rho, 0.0)
    one_m = 1.0 - safe
    val = np.where(inside, np.exp(-1.0 / one_m), 0.0)
    d1 = np.where(inside, -val / one_m**2, 0.0)
    d2 = np.where(inside, val * (1.0 / one_m**4 - 2.0 / one_m**3), 0.0)
    return val, d1, d2


_STEP_T = np.linspace(-1.0, 1.0, 4001)
_STEP_CDF = None


def smooth_step(t: np.ndarray) -> np.ndarray:
    """Normalized antiderivative of the mollifier: 0 for t <= -1, 1 for t >= 1.

    Max slope is b(0)/int b ~ 0.829, so a transition over width w has
    Lipschitz constant ~ 1.66/w.
    """
    global _STEP_CDF
    if _STEP_CDF is None:
        vals = _bump(_STEP_T**2)[0]
        cdf = np.concatenate([[0.0], np.cumsum((vals[1:] + vals[:-1]) * 0.5 * np.diff(_STEP_T))])
        _STEP_CDF = cdf / cdf[-1]
    return np.interp(np.asarray(t, dtype=float), _STEP_T, _STEP_CDF)


# ---------------------------------------------------------------------------
# test functions


@dataclass(frozen=True)
class Support:
    delta: float
    R: float

    def __post_init__(self) -> None:
        if not (0.0 < self.delta < self.R):
            raise FunctionError(f"support needs 0 < delta < R; got ({self.delta}, {self.R})")


@dataclass(frozen=True)
class SingleTestFunction:
    """Scalar psi(v) with analytic gradient and Hessian.

    quad is the symmetric Q of a polynomial of degree at most two, whose pair
    sum psi(v) + psi(v*) is a collision invariant plus 2 x^T Q x in
    x = (v - v*)/2; None for every other psi.
    """

    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]
    kind: str = "single"
    support: Support | None = None
    quad: np.ndarray | None = None


@dataclass(frozen=True)
class PairScalarTestFunction:
    """Symmetric scalar psi(v, v*) = E(v, v*) (c0 + x^T Q x); derivatives are
    in x = (v - v*)/2.

    grad_x equals (grad - grad_*) psi and hess_xx the corresponding
    second difference, which is all the collision operators ever use. The
    envelope E depends on |v - v*| and y = (v + v*)/2 only, so a collision
    leaves it unchanged; quad is the symmetric Q.
    """

    value: Callable[[np.ndarray, np.ndarray], np.ndarray]
    grad_x: Callable[[np.ndarray, np.ndarray], np.ndarray]
    hess_xx: Callable[[np.ndarray, np.ndarray], np.ndarray]
    support: Support
    quad: np.ndarray
    envelope: Callable[[np.ndarray, np.ndarray], np.ndarray]
    kind: str = "DS"


@dataclass(frozen=True)
class PairVectorField:
    """Anti-symmetric vector field V(v, v*) with analytic x-Jacobian.

    jac_x[..., i, j] = d V_j / d x_i.
    """

    value: Callable[[np.ndarray, np.ndarray], np.ndarray]
    jac_x: Callable[[np.ndarray, np.ndarray], np.ndarray]
    support: Support
    kind: str = "AS"


TestFunction = SingleTestFunction | PairScalarTestFunction | PairVectorField


def _symmetric_form(Q, key: str) -> np.ndarray:
    """The 3x3 quadratic form given as `key` (zero if None); the derivatives
    use 2 Q x, which holds only for symmetric Q."""
    Q = np.zeros((3, 3)) if Q is None else np.asarray(Q, dtype=float)
    if not np.allclose(Q, Q.T, atol=1e-14):
        raise FunctionError(f"{key}: quadratic form must be symmetric")
    return Q


def polynomial_testfn(const: float = 0.0, linear: np.ndarray | None = None,
                      quad: np.ndarray | None = None) -> SingleTestFunction:
    """psi = const + b.v + v^T Q v (Q symmetric). Collision invariants 1, v.e,
    |v|^2 are special cases."""
    b = np.zeros(3) if linear is None else np.asarray(linear, dtype=float)
    Q = _symmetric_form(quad, "quad")

    has_b = bool(np.any(b != 0.0))
    has_q = bool(np.any(Q != 0.0))

    def value(v):
        v = np.asarray(v, dtype=float)
        out = np.full(v.shape[:-1], const)
        if has_b:
            out = out + v @ b
        if has_q:
            out = out + dot3(v @ Q, v)
        return out

    def gradient(v):
        v = np.asarray(v, dtype=float)
        return b + 2.0 * v @ Q

    def hessian(v):
        v = np.asarray(v, dtype=float)
        return np.broadcast_to(2.0 * Q, v.shape[:-1] + (3, 3)).copy()

    return SingleTestFunction(value=value, gradient=gradient, hessian=hessian, quad=Q)


def gaussian_testfn(const: float = 0.0, linear: np.ndarray | None = None,
                    quad: np.ndarray | None = None,
                    center: np.ndarray = (0.0, 0.0, 0.0),
                    width: float = 2.0) -> SingleTestFunction:
    """Schwartz-class psi = (const + b.u + u^T Q u) exp(-|u|^2/(2 w^2)),
    u = v - center. Smooth with rapid decay but not compactly supported;
    admitted for limit studies, not for the strict DS/AS machinery."""
    b = np.zeros(3) if linear is None else np.asarray(linear, dtype=float)
    Q = _symmetric_form(quad, "quad")
    c = np.asarray(center, dtype=float)
    iw2 = 1.0 / width**2
    has_b = bool(np.any(b != 0.0))
    has_q = bool(np.any(Q != 0.0))

    def _poly(u):
        poly = np.full(u.shape[:-1], const)
        if has_b:
            poly = poly + u @ b
        if has_q:
            poly = poly + dot3(u @ Q, u)
        return poly

    def value(v):
        u = np.asarray(v, dtype=float) - c
        return _poly(u) * np.exp(-0.5 * iw2 * sq3(u))

    def gradient(v):
        u = np.asarray(v, dtype=float) - c
        g = np.exp(-0.5 * iw2 * sq3(u))
        dpoly = b + 2.0 * u @ Q
        return g[..., None] * (dpoly - iw2 * _poly(u)[..., None] * u)

    def hessian(v):
        u = np.asarray(v, dtype=float) - c
        g = np.exp(-0.5 * iw2 * sq3(u))
        poly = _poly(u)
        dpoly = b + 2.0 * u @ Q
        eye = np.eye(3)
        cross = dpoly[..., :, None] * u[..., None, :] + u[..., :, None] * dpoly[..., None, :]
        hg = iw2**2 * u[..., :, None] * u[..., None, :] - iw2 * eye
        return g[..., None, None] * (2.0 * Q - iw2 * cross + poly[..., None, None] * hg)

    return SingleTestFunction(value=value, gradient=gradient, hessian=hessian)


def _window(s: np.ndarray, sup: Support) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mollifier window on s in (delta, R), zero outside, with s-derivatives."""
    scale = 2.0 / (sup.R - sup.delta)
    t = (2.0 * s - (sup.R + sup.delta)) / (sup.R - sup.delta)
    B, B1, B2 = _bump(t**2)
    w = B
    w1 = B1 * 2.0 * t * scale
    w2 = (B2 * 4.0 * t**2 + 2.0 * B1) * scale**2
    return w, w1, w2


def _radial_bump(u: np.ndarray, radius: float) -> np.ndarray:
    """Compact bump in |u| < radius (value only)."""
    rho = np.sum(np.asarray(u, dtype=float) ** 2, axis=-1) / radius**2
    return _bump(rho)[0]


def bump_testfn(kind: str, support: Support | dict, modulation: dict | None = None,
                y_radius: float = 6.0) -> TestFunction:
    """Compactly supported test function of the requested class.

    kind "Cc_single": radial bump in v of radius support.R around the origin
        times an even polynomial (delta is ignored).
    kind "DS": psi(v,v*) = W(|v-v*|) * bump(|y|/y_radius) * (c0 + x^T Q x),
        symmetric, vanishing for |v-v*| outside (delta, R).
    kind "AS": V(v,v*) = W(|v-v*|) * bump(|y|/y_radius) * (A x),
        anti-symmetric, same support annulus.

    modulation keys: "const" (c0), "x_quad" (3x3 symmetric, DS),
    "matrix" (3x3, AS), "v_quad" (3x3 symmetric, Cc_single).
    """
    if isinstance(support, dict):
        support = Support(**support)
    mod = modulation or {}

    if kind == "Cc_single":
        Q = _symmetric_form(mod.get("v_quad"), "v_quad")
        c0 = float(mod.get("const", 1.0))
        R2 = support.R**2

        def value(v):
            v = np.asarray(v, dtype=float)
            B = _bump(np.sum(v**2, axis=-1) / R2)[0]
            return B * (c0 + np.sum((v @ Q) * v, axis=-1))

        def gradient(v):
            v = np.asarray(v, dtype=float)
            B, B1, _ = _bump(np.sum(v**2, axis=-1) / R2)
            poly = c0 + np.sum((v @ Q) * v, axis=-1)
            return (B1 * poly)[..., None] * (2.0 * v / R2) + B[..., None] * (2.0 * v @ Q)

        def hessian(v):
            v = np.asarray(v, dtype=float)
            B, B1, B2 = _bump(np.sum(v**2, axis=-1) / R2)
            poly = c0 + np.sum((v @ Q) * v, axis=-1)
            dpoly = 2.0 * v @ Q
            drho = 2.0 * v / R2
            out = (B2 * poly)[..., None, None] * drho[..., :, None] * drho[..., None, :]
            out += (B1 * poly)[..., None, None] * (2.0 / R2) * np.eye(3)
            out += B1[..., None, None] * (drho[..., :, None] * dpoly[..., None, :]
                                          + dpoly[..., :, None] * drho[..., None, :])
            out += B[..., None, None] * 2.0 * Q
            return out

        return SingleTestFunction(value=value, gradient=gradient, hessian=hessian,
                                  support=support)

    if kind == "DS":
        Q = _symmetric_form(mod.get("x_quad"), "x_quad")
        c0 = float(mod.get("const", 1.0))
        sup = support

        def _xy(v, v_star):
            v = np.asarray(v, dtype=float)
            v_star = np.asarray(v_star, dtype=float)
            return 0.5 * (v - v_star), 0.5 * (v + v_star)

        def envelope(v, v_star):
            x, y = _xy(v, v_star)
            s = 2.0 * np.sqrt(np.sum(x**2, axis=-1))
            return _window(s, sup)[0] * _radial_bump(y, y_radius)

        def value(v, v_star):
            x, _ = _xy(v, v_star)
            return envelope(v, v_star) * (c0 + np.sum((x @ Q) * x, axis=-1))

        def grad_x(v, v_star):
            x, y = _xy(v, v_star)
            r = np.sqrt(np.sum(x**2, axis=-1))
            s = 2.0 * r
            W, W1, _ = _window(s, sup)
            live = W != 0.0
            xhat = np.where(live[..., None], x / np.where(live, r, 1.0)[..., None], 0.0)
            m = c0 + np.sum((x @ Q) * x, axis=-1)
            dm = 2.0 * x @ Q
            Gy = _radial_bump(y, y_radius)
            return Gy[..., None] * ((W1 * m)[..., None] * 2.0 * xhat + W[..., None] * dm)

        def hess_xx(v, v_star):
            x, y = _xy(v, v_star)
            r = np.sqrt(np.sum(x**2, axis=-1))
            s = 2.0 * r
            W, W1, W2 = _window(s, sup)
            live = W != 0.0
            rsafe = np.where(live, r, 1.0)
            xhat = np.where(live[..., None], x / rsafe[..., None], 0.0)
            m = c0 + np.sum((x @ Q) * x, axis=-1)
            dm = 2.0 * x @ Q
            Gy = _radial_bump(y, y_radius)
            eye = np.eye(3)
            proj = eye - xhat[..., :, None] * xhat[..., None, :]
            out = (W2 * m)[..., None, None] * 4.0 * xhat[..., :, None] * xhat[..., None, :]
            out += (W1 * m / rsafe)[..., None, None] * 2.0 * proj
            out += (2.0 * W1)[..., None, None] * (xhat[..., :, None] * dm[..., None, :]
                                                  + dm[..., :, None] * xhat[..., None, :])
            out += W[..., None, None] * 2.0 * Q
            return Gy[..., None, None] * np.where(live[..., None, None], out, 0.0)

        return PairScalarTestFunction(value=value, grad_x=grad_x, hess_xx=hess_xx,
                                      support=support, quad=Q, envelope=envelope)

    if kind == "AS":
        A = np.asarray(mod.get("matrix", np.eye(3)), dtype=float)
        sup = support

        def _xy(v, v_star):
            v = np.asarray(v, dtype=float)
            v_star = np.asarray(v_star, dtype=float)
            return 0.5 * (v - v_star), 0.5 * (v + v_star)

        def value(v, v_star):
            x, y = _xy(v, v_star)
            s = 2.0 * np.sqrt(np.sum(x**2, axis=-1))
            W = _window(s, sup)[0]
            return (W * _radial_bump(y, y_radius))[..., None] * (x @ A.T)

        def jac_x(v, v_star):
            x, y = _xy(v, v_star)
            r = np.sqrt(np.sum(x**2, axis=-1))
            s = 2.0 * r
            W, W1, _ = _window(s, sup)
            live = W != 0.0
            xhat = np.where(live[..., None], x / np.where(live, r, 1.0)[..., None], 0.0)
            Ax = x @ A.T
            Gy = _radial_bump(y, y_radius)
            out = (2.0 * W1)[..., None, None] * xhat[..., :, None] * Ax[..., None, :]
            out += W[..., None, None] * np.broadcast_to(A.T, out.shape)
            return Gy[..., None, None] * out

        return PairVectorField(value=value, jac_x=jac_x, support=support)

    raise FunctionError(f"unknown test-function class {kind!r}")


def gradient_type_field(phi: PairScalarTestFunction, gamma: float) -> PairVectorField:
    """The field |v-v*|^(1+gamma/2) Pi[v-v*] (grad - grad_*) phi.

    For symmetric phi this is anti-symmetric, so it lands in the AS class;
    it is the canonical 'already a gradient' input for projection round
    trips.
    """
    alpha = 1.0 + 0.5 * gamma

    def _parts(v, v_star):
        v = np.asarray(v, dtype=float)
        v_star = np.asarray(v_star, dtype=float)
        x = 0.5 * (v - v_star)
        r = np.sqrt(np.sum(x**2, axis=-1))
        live = r > 0.25 * phi.support.delta
        rsafe = np.where(live, r, 1.0)
        xhat = np.where(live[..., None], x / rsafe[..., None], 0.0)
        return x, rsafe, xhat, live

    def value(v, v_star):
        x, r, xhat, live = _parts(v, v_star)
        g = phi.grad_x(v, v_star)
        pg = g - np.sum(xhat * g, axis=-1)[..., None] * xhat
        return np.where(live[..., None], ((2.0 * r) ** alpha)[..., None] * pg, 0.0)

    def jac_x(v, v_star):
        x, r, xhat, live = _parts(v, v_star)
        g = phi.grad_x(v, v_star)
        H = phi.hess_xx(v, v_star)
        s = 2.0 * r
        kg = np.sum(xhat * g, axis=-1)
        pg = g - kg[..., None] * xhat
        proj = np.eye(3) - xhat[..., :, None] * xhat[..., None, :]
        # d_i (Pi_jk g_k) = -(Pi_ij (xhat.g) + xhat_j (Pi g)_i)/r + (Pi H)_{ji}
        dpig = -(proj * kg[..., None, None] + xhat[..., None, :] * pg[..., :, None]) / r[..., None, None]
        dpig = dpig + np.einsum("...jk,...ki->...ij", proj, H)
        out = (2.0 * alpha * s ** (alpha - 1.0))[..., None, None] * xhat[..., :, None] * pg[..., None, :]
        out += (s**alpha)[..., None, None] * dpig
        return np.where(live[..., None, None], out, 0.0)

    return PairVectorField(value=value, jac_x=jac_x, support=phi.support)
