"""Closed-form densities and smooth test functions.

Densities are strictly positive Gaussian mixtures with analytic value,
gradient, and log-gradient; positivity matters because every dissipation
takes logs and square roots of the density.

Test functions come in three classes:

  single  scalar psi(v) with analytic gradient and Hessian;
  DS      symmetric two-variable scalar psi(v, v*) = psi(v*, v) vanishing
          for |v - v*| <= delta, with its projected gradient and that
          gradient's divergence in closed form;
  AS      anti-symmetric vector field V(v, v*) = -V(v*, v) vanishing for
          |v - v*| <= delta, with its projected divergence div_x(Pi[x] V)
          in closed form.

Each class writes its calculus once. Every single psi is an envelope times a
quadratic, psi = P(u) g(u) with u = v - center and
P = const + b.u + u^T Q u, and `_enveloped_quadratic` holds its value,
gradient and Hessian. An envelope returns (g, a, c) with grad g = a g u and
Hess g = g (c u u^T + a I):

  polynomial   g = 1, a = c = 0;
  Gaussian     g = exp(-|u|^2/(2 w^2)), a = -1/w^2, c = 1/w^4;
  Cc_single    g = exp(-1/(1 - rho)), rho = |v|^2/R^2, with
               a = -2/(R^2 (1-rho)^2), c = 4 (1/(1-rho)^4 - 2/(1-rho)^3)/R^4
               inside the ball and g = a = c = 0 outside.

DS and AS fields, and gradient-type fields built from a DS bump, take the
frame (s, k, y) of a pair (v, v*): s = |v - v*| > 0, the unit axis
k = (v - v*)/s and y = (v + v*)/2. Their callers hold that frame already
(PairChunk its r, k and y; a projection shell s = 2r, the sphere grid's
unit k and the y nodes), so no field rebuilds it. The window W(s) reads s,
the y-bump reads y, and a form in x = (v - v*)/2 = (s/2) k reads s and k.
No pair field has a Jacobian or a Hessian: a vector field carries
div_x(Pi[x] V) in closed form, and a DS bump's projected gradient and its
divergence are written once, from its envelope and Q. s, k and y need only
broadcast together, and each piece is evaluated at the shape of what it
reads: on a projection shell the window once, the y-bump once per node,
and only the final products at the full shape. Compact supports are built
from the standard exp(-1/(1-t^2)) mollifier in s and |y|.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np


class FunctionError(ValueError):
    """A refused argument; field, when set, names it (`temperature`, `components[1]`)."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


def finite_shape(value) -> tuple | None:
    """The shape of value as an array of finite numbers; None if it is not one."""
    try:
        a = np.asarray(value)
    except (TypeError, ValueError):
        return None
    return a.shape if a.dtype.kind in "iuf" and bool(np.all(np.isfinite(a))) else None


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
        bad = np.flatnonzero((w <= 0) | np.any(np.asarray(self.cov_diags) <= 0, axis=-1))
        if bad.size:
            raise FunctionError("mixture weights and covariance diagonals must be positive",
                                f"components[{bad[0]}]")
        if abs(w.sum() - 1.0) > 1e-8:
            raise FunctionError(f"mixture weights sum to {w.sum()}, expected 1", "components")

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

    def _shifted(self, v: np.ndarray) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
        """The log-sum-exp shift: m = max_k log(w_k N_k(v)), the shifted
        terms exp(log(w_k N_k(v)) - m) and their sum."""
        logs = self._comp_logs(v)
        m = logs[0]
        for lc in logs[1:]:
            m = np.maximum(m, lc)
        terms = [np.exp(lc - m) for lc in logs]
        return m, terms, sum(terms, np.zeros(m.shape))

    def log_responsibilities(self, v: np.ndarray, log_f: np.ndarray) -> list[np.ndarray]:
        """log pi_k(v) = log(w_k N_k(v)) - log f(v), given log f(v); finite
        in the tails, where pi_k itself may underflow."""
        return [lc - log_f for lc in self._comp_logs(v)]

    @cached_property
    def log_pair_form(self) -> SingleTestFunction | None:
        """For one component, the quadratic psi = -v^T P v/2 (P = Sigma^-1)
        whose dbar is log f(v')f(v*') - log f(v)f(v*): log f(v) + log f(v*)
        is a collision invariant minus x^T P x, x = (v - v*)/2. None for a
        mixture, whose log is a log-sum-exp; the sweep takes its Delta through
        the responsibilities (PairChunk.mixture_forms)."""
        if self.weights.size != 1:
            return None
        return polynomial_testfn(quad=np.diag(-0.5 / self.cov_diags[0]))

    def log_value(self, v: np.ndarray) -> np.ndarray:
        m, _, total = self._shifted(v)
        return m + np.log(total)

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
        _, terms, total = self._shifted(v)
        out = np.zeros(v.shape)
        for k, r in enumerate(terms):
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


def gaussian_mixture(components: list[tuple[float, np.ndarray, np.ndarray]]) -> GaussianMixture:
    """Build a mixture density from (weight, mean, covariance-diagonal) triples."""
    for i, c in enumerate(components):
        if not (isinstance(c, (list, tuple)) and len(c) == 3 and finite_shape(c[0]) == ()
                and finite_shape(c[1]) == (3,) and finite_shape(c[2]) == (3,)):
            raise FunctionError("needs a finite weight, mean and covariance diagonal, the last "
                                f"two of 3 numbers; got {c!r}", f"components[{i}]")
    w, mu, cov = (np.array([c[j] for c in components], dtype=float) for j in range(3))
    # GaussianMixture checks the sum too, but only after the normalization below
    if abs(w.sum() - 1.0) > 1e-8:
        raise FunctionError(f"mixture weights sum to {w.sum()}, expected 1", "components")
    return GaussianMixture(weights=w / w.sum(), means=mu, cov_diags=cov)


def maxwellian(mean: np.ndarray = (0.0, 0.0, 0.0), temperature: float = 1.0) -> GaussianMixture:
    """Isotropic Gaussian equilibrium with covariance T*I."""
    if finite_shape(mean) != (3,):
        raise FunctionError(f"mean must be 3 finite numbers, got {mean!r}", "mean")
    if finite_shape(temperature) != () or temperature <= 0:
        raise FunctionError(f"temperature must be finite and > 0, got {temperature!r}", "temperature")
    return gaussian_mixture([(1.0, mean, temperature * np.ones(3))])


# ---------------------------------------------------------------------------
# mollifier building blocks


def _bump(rho: np.ndarray) -> np.ndarray:
    """exp(-1/(1-rho)) on rho < 1 (rho = t^2), 0 elsewhere."""
    rho = np.asarray(rho, dtype=float)
    inside = rho < 1.0
    one_m = 1.0 - np.where(inside, rho, 0.0)
    return np.where(inside, np.exp(-1.0 / one_m), 0.0)


_STEP_T = np.linspace(-1.0, 1.0, 4001)
_STEP_CDF = None


def smooth_step(t: np.ndarray) -> np.ndarray:
    """Normalized antiderivative of the mollifier: 0 for t <= -1, 1 for t >= 1.

    Max slope is b(0)/int b ~ 0.829, so a transition over width w has
    Lipschitz constant ~ 1.66/w.
    """
    global _STEP_CDF
    if _STEP_CDF is None:
        vals = _bump(_STEP_T**2)
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
        for name in ("delta", "R"):
            if finite_shape(value := getattr(self, name)) != ():
                raise FunctionError(f"support.{name} must be a finite number, got {value!r}", name)
        if not (0.0 < self.delta < self.R):
            raise FunctionError(f"support needs 0 < delta < R; got ({self.delta}, {self.R})",
                                "R" if self.R <= 0.0 else "delta")


@dataclass(frozen=True, eq=False)
class SingleTestFunction:
    """Scalar psi(v) with analytic gradient and Hessian.

    psi = P(u) g(u) with u = v - center and P = const + linear.u + u^T quad u.
    The collision sweeps read these coefficients to take dbar psi in the
    collision frame, so quad is set only where that form exists: the
    symmetric Q of a polynomial (g = 1, inv_w2 = 0), whose pair sum
    psi(v) + psi(v*) is a collision invariant plus 2 x^T Q x in
    x = (v - v*)/2, and of a Gaussian, g = exp(-|u|^2 inv_w2/2) with
    inv_w2 = 1/w^2 > 0. quad is None for every other psi (Cc_single), which
    the sweeps evaluate at the four points. Test functions hash by identity,
    the key of their fields on a chunk or node.
    """

    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]
    kind: str = "single"
    quad: np.ndarray | None = None
    const: float = 0.0
    linear: np.ndarray | None = None
    center: np.ndarray | None = None
    inv_w2: float = 0.0


def is_gaussian(psi) -> bool:
    """Whether psi is a Gaussian test function (inv_w2 > 0), whose dbar has
    no closed form in the angles, unlike the other quadratic forms."""
    return psi.kind == "single" and psi.inv_w2 > 0.0


@dataclass(frozen=True, eq=False)
class PairScalarTestFunction:
    """Symmetric scalar psi = E (c0 + x^T Q x), x = (v - v*)/2 = (s/2) k,
    value taking the pair frame (s, k, y) (s = |v - v*| > 0, |k| = 1) and
    the envelope E (s, y) only, so a collision leaves E unchanged; quad is
    the symmetric Q. The collision operators read E and Q alone.
    """

    value: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    quad: np.ndarray
    envelope: Callable[[np.ndarray, np.ndarray], np.ndarray]
    kind: str = "DS"


@dataclass(frozen=True, eq=False)
class PairVectorField:
    """Anti-symmetric vector field V(v, v*) = -V(v*, v) with its projected
    divergence in closed form, both callables taking the pair frame
    (s, k, y) (s = |v - v*| > 0, |k| = 1), so anti-symmetry reads
    V(s, -k, y) = -V(s, k, y).

    div_pi(s, k, y) = div_x(Pi[x] V) = (grad - grad_*) . (Pi[v-v*] V), of the
    broadcast shape of s, k and y without k's last axis; it is the scalar
    the projection's shell right-hand side and the AS affine Landau value
    read.
    """

    value: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    div_pi: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    kind: str = "AS"


TestFunction = SingleTestFunction | PairScalarTestFunction | PairVectorField


def _symmetric_form(Q, key: str) -> np.ndarray:
    """The 3x3 quadratic form given as `key` (zero if None); the derivatives
    use 2 Q x, which holds only for symmetric Q."""
    if Q is None:
        return np.zeros((3, 3))
    if finite_shape(Q) != (3, 3):
        raise FunctionError(f"{key}: must be a 3x3 array of finite numbers, got {Q!r}", key)
    Q = np.asarray(Q, dtype=float)
    if not np.allclose(Q, Q.T, atol=1e-14):
        raise FunctionError(f"{key}: quadratic form must be symmetric", key)
    return Q


def _enveloped_quadratic(envelope: Callable, const: float, linear: np.ndarray | None,
                         Q: np.ndarray, center=(0.0, 0.0, 0.0), **fields) -> SingleTestFunction:
    """psi = P(u) g(u) with P = const + b.u + u^T Q u (Q symmetric), u = v - center.

    envelope(u) returns (g, a, c) with grad g = a g u and
    Hess g = g (c u u^T + a I); a and c are scalars or arrays shaped like g.
    const must be a finite number and linear (if given) and center 3 finite
    numbers; the returned psi carries all three.
    """
    if finite_shape(const) != ():
        raise FunctionError(f"const: must be a finite number, got {const!r}", "const")
    for key, vec in (("linear", linear), ("center", center)):
        if vec is not None and finite_shape(vec) != (3,):
            raise FunctionError(f"{key}: must be 3 finite numbers, got {vec!r}", key)
    const = float(const)
    b = np.zeros(3) if linear is None else np.asarray(linear, dtype=float)
    center = np.asarray(center, dtype=float)
    has_b = bool(np.any(b != 0.0))
    has_q = bool(np.any(Q != 0.0))
    eye = np.eye(3)

    def _poly(u):
        poly = np.full(u.shape[:-1], const)
        if has_b:
            poly = poly + u @ b
        if has_q:
            poly = poly + dot3(u @ Q, u)
        return poly

    def value(v):
        u = np.asarray(v, dtype=float) - center
        return _poly(u) * envelope(u)[0]

    def gradient(v):
        u = np.asarray(v, dtype=float) - center
        g, a, _ = envelope(u)
        dpoly = b + 2.0 * u @ Q
        return g[..., None] * (dpoly + (a * _poly(u))[..., None] * u)

    def hessian(v):
        u = np.asarray(v, dtype=float) - center
        g, a, c = (np.asarray(t)[..., None, None] for t in envelope(u))
        poly = _poly(u)
        dpoly = b + 2.0 * u @ Q
        cross = dpoly[..., :, None] * u[..., None, :] + u[..., :, None] * dpoly[..., None, :]
        hg = c * u[..., :, None] * u[..., None, :] + a * eye
        return g * (2.0 * Q + a * cross + poly[..., None, None] * hg)

    return SingleTestFunction(value=value, gradient=gradient, hessian=hessian, const=const,
                              linear=b, center=center, **fields)


def _flat(u):
    """The polynomial's envelope, g = 1."""
    return np.float64(1.0), 0.0, 0.0


def polynomial_testfn(const: float = 0.0, linear: np.ndarray | None = None,
                      quad: np.ndarray | None = None) -> SingleTestFunction:
    """psi = const + b.v + v^T Q v (Q symmetric). Collision invariants 1, v.e,
    |v|^2 are special cases."""
    Q = _symmetric_form(quad, "quad")
    return _enveloped_quadratic(_flat, const, linear, Q, quad=Q)


def gaussian_testfn(const: float = 0.0, linear: np.ndarray | None = None,
                    quad: np.ndarray | None = None,
                    center: np.ndarray = (0.0, 0.0, 0.0),
                    width: float = 2.0) -> SingleTestFunction:
    """Schwartz-class psi = (const + b.u + u^T Q u) exp(-|u|^2/(2 w^2)),
    u = v - center. Smooth with rapid decay but not compactly supported;
    admitted for limit studies, not for the strict DS/AS machinery. width
    must be finite and > 0, with 1/w^2 and 1/w^4 finite and > 0 in floats."""
    if finite_shape(width) != () or not width > 0.0:
        raise FunctionError(f"width: must be finite and > 0, got {width!r}", "width")
    try:
        iw2 = 1.0 / float(width) ** 2
        # the envelope's Hessian reads iw2^2
        in_range = iw2 > 0.0 and bool(np.isfinite(iw2**2))
    except (OverflowError, ZeroDivisionError):
        in_range = False
    if not in_range:
        raise FunctionError(f"width: 1/width^2 and its square must be finite and > 0, "
                            f"got width {width!r}", "width")

    def envelope(u):
        return np.exp(-0.5 * iw2 * sq3(u)), -iw2, iw2**2

    Q = _symmetric_form(quad, "quad")
    return _enveloped_quadratic(envelope, const, linear, Q, center, quad=Q, inv_w2=iw2)


def _window(s: np.ndarray, sup: Support) -> np.ndarray:
    """Mollifier window on s in (delta, R), zero outside."""
    return _bump(((2.0 * s - (sup.R + sup.delta)) / (sup.R - sup.delta)) ** 2)


def y_rho(y, y_radius: float) -> np.ndarray:
    """|y|^2/y_radius^2, the argument of the y-factor G(y) = bump(|y|/y_radius)
    of the DS and AS fields: G is exactly 0 wherever this is not < 1."""
    return np.sum(np.asarray(y, dtype=float) ** 2, axis=-1) / y_radius**2


def _half(s, k) -> np.ndarray:
    """x = (v - v*)/2 = (s/2) k from the pair frame's s and k."""
    return np.expand_dims(0.5 * s, -1) * k


def bump_testfn(kind: str, support: Support | dict, modulation: dict | None = None,
                y_radius: float = 6.0) -> TestFunction:
    """Compactly supported test function of the requested class.

    kind "Cc_single": radial bump in v of radius support.R around the origin
        times an even polynomial (delta is ignored).
    kind "DS": psi(s, k, y) = E(s, y) (c0 + x^T Q x) in the pair frame
        (s > 0, |k| = 1, x = (s/2) k), envelope E = W(s) bump(|y|/y_radius),
        symmetric, vanishing for s = |v-v*| outside (delta, R).
    kind "AS": V(s, k, y) = E(s, y) (A x), anti-symmetric, same support
        annulus. Its div_pi is bump * W (tr A - 3 k^T A k): Pi removes the
        radial W' term, and div_x(k k^T A x) = 3 k^T A k.

    modulation keys: "const" (c0), "x_quad" (3x3 symmetric, DS),
    "matrix" (3x3, AS), "v_quad" (3x3 symmetric, Cc_single); a key the kind
    does not read is refused.
    """
    keys = {"DS": ("const", "x_quad"), "AS": ("matrix",), "Cc_single": ("const", "v_quad")}
    if kind not in keys:
        raise FunctionError(f"unknown test-function class {kind!r}")
    if isinstance(support, dict):
        support = Support(**support)
    if finite_shape(y_radius) != () or not y_radius > 0.0:
        raise FunctionError(f"y_radius must be a finite number > 0, got {y_radius!r}", "y_radius")
    mod = modulation or {}
    for key in mod:
        if key not in keys[kind]:
            raise FunctionError(f"modulation.{key}: {kind} reads only {list(keys[kind])}")

    if kind == "Cc_single":
        R2 = support.R**2

        def envelope(u):
            # g = exp(-1/(1 - rho)), rho = |u|^2/R^2, and its log-derivatives
            rho = sq3(u) / R2
            inside = rho < 1.0
            one_m = 1.0 - np.where(inside, rho, 0.0)
            g = np.where(inside, np.exp(-1.0 / one_m), 0.0)
            a = np.where(inside, -2.0 / (R2 * one_m**2), 0.0)
            c = np.where(inside, 4.0 * (1.0 / one_m**4 - 2.0 / one_m**3) / R2**2, 0.0)
            return g, a, c

        return _enveloped_quadratic(envelope, float(mod.get("const", 1.0)), None,
                                    _symmetric_form(mod.get("v_quad"), "v_quad"))

    def pair_envelope(s, y):
        return _window(s, support) * _bump(y_rho(y, y_radius))

    if kind == "DS":
        Q = _symmetric_form(mod.get("x_quad"), "x_quad")
        c0 = mod.get("const", 1.0)
        if finite_shape(c0) != ():
            raise FunctionError(f"const: must be a finite number, got {c0!r}", "const")
        c0 = float(c0)

        def value(s, k, y):
            x = _half(s, k)
            return pair_envelope(s, y) * (c0 + np.sum((x @ Q) * x, axis=-1))

        return PairScalarTestFunction(value=value, quad=Q, envelope=pair_envelope)

    A = mod.get("matrix", np.eye(3))
    if finite_shape(A) != (3, 3):
        raise FunctionError(f"matrix: must be a 3x3 array of finite numbers, got {A!r}", "matrix")
    A = np.asarray(A, dtype=float)
    trA = float(np.trace(A))

    def value(s, k, y):
        return pair_envelope(s, y)[..., None] * (_half(s, k) @ A.T)

    def div_pi(s, k, y):
        return _bump(y_rho(y, y_radius)) * (_window(s, support) * (trA - 3.0 * dot3(k @ A.T, k)))

    return PairVectorField(value=value, div_pi=div_pi)


def ds_projected_gradient(phi: PairScalarTestFunction, E, c, x, k) -> np.ndarray:
    """c E Pi[k] Q x for the envelope E of phi at x = (v - v*)/2 with axis
    k = x/|x| and a radial factor c, shaped like x. With c = 2 it is
    Pi[x] (grad - grad_*) phi: the gradient in x of phi = E (c0 + x^T Q x)
    is 2 E Q x plus a radial term, which Pi[x] removes with c0 and E'."""
    qx = x @ phi.quad
    pqx = qx - dot3(k, qx)[..., None] * k
    return E[..., None] * (c[..., None] * pqx)


def ds_projected_divergence(phi: PairScalarTestFunction, E, c, k) -> np.ndarray:
    """div_x of ds_projected_gradient, c E (tr Q - 3 k^T Q k): the gradient
    of c E is radial, normal to Pi Q x, and div_x(k k^T Q x) = 3 k^T Q k."""
    return E * (c * (np.trace(phi.quad) - 3.0 * dot3(k @ phi.quad, k)))


def gradient_type_field(phi: PairScalarTestFunction, gamma: float) -> PairVectorField:
    """The field |v-v*|^(1+gamma/2) Pi[v-v*] (grad - grad_*) phi, taking the
    pair frame (s, k, y) like phi, with s > 0 and |k| = 1.

    With alpha = 1 + gamma/2 it is ds_projected_gradient at c = 2 s^alpha
    and x = (s/2) k, and div_pi ds_projected_divergence: only phi.envelope
    and phi.quad are read.

    For symmetric phi this is anti-symmetric, so it lands in the AS class;
    it is the canonical 'already a gradient' input for projection round
    trips.
    """
    alpha = 1.0 + 0.5 * gamma

    def value(s, k, y):
        c = 2.0 * np.asarray(s, dtype=float) ** alpha
        return ds_projected_gradient(phi, phi.envelope(s, y), c, _half(s, k), k)

    def div_pi(s, k, y):
        return ds_projected_divergence(phi, phi.envelope(s, y), 2.0 * s**alpha, k)

    return PairVectorField(value=value, div_pi=div_pi)
