"""Angular collision-kernel families and their concentration scaling.

A collision kernel factorizes as B(r, theta) sin(theta) = r^gamma beta(theta)
with an angular profile beta on [0, pi/2] carrying a nonintegrable endpoint
singularity beta(theta) >= c1 theta^(-1-nu), 0 < nu < 2. It concentrates
by rescaling: beta_eps(theta) = (pi^3/eps^3) beta(pi theta / eps) on
(0, eps/2), zero elsewhere, which preserves the momentum transfer integral
for every eps.

Profiles are normalized once at construction so that the angular momentum
transfer equals 8/pi; every downstream operator assumes that normalization.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

import numpy as np

from .quadrature import IntegralResult, QuadratureSpec, coarse_fine, pairwise_sum, read_only

TRANSFER = 8.0 / np.pi
_LOG_MAX = float(np.log(np.finfo(float).max))


class KernelError(ValueError):
    """A refused kernel; field, when set, names the `build_kernel` argument at fault."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class AngularProfile:
    """The power-law profile beta(theta) = scale * theta^(-1-nu).

    nu is the singularity exponent: nu = 1/2 is the Maxwellian-molecule row
    of the inverse-power-law table; at nu = 2 (the Coulomb row) the transfer
    integral diverges. The raw profile has scale 1; normalize sets it.
    """

    nu: float
    scale: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 < self.nu < 2.0):
            raise KernelError(f"nu must lie in (0, 2); got {self.nu}", "nu")
        if not self.scale > 0:
            raise KernelError(f"scale must be positive; got {self.scale}")

    @property
    def c1(self) -> float:
        """The best constant with c1 * theta^(-1-nu) <= beta(theta) on (0, pi/2]."""
        return self.scale

    def __call__(self, theta: np.ndarray) -> np.ndarray:
        return self.scale * np.asarray(theta, dtype=float) ** (-1.0 - self.nu)


@dataclass(frozen=True)
class ScaledKernel:
    """An angular profile together with its concentration parameter."""

    base: AngularProfile
    epsilon: float

    def __post_init__(self) -> None:
        if not (0.0 < self.epsilon <= np.pi):
            raise KernelError(f"epsilon must lie in (0, pi], got {self.epsilon}", "epsilon")

    def with_epsilon(self, eps: float) -> "ScaledKernel":
        return replace(self, epsilon=eps)


@dataclass(frozen=True)
class CollisionKernel:
    """Full kernel B_eps(r, theta) sin(theta) = r^gamma beta_eps(theta).

    With kinetic_cutoff the kinetic factor is |z|^gamma_kin = min(1, |z|^gamma),
    i.e. 1 for |z| <= 1 and |z|^gamma for |z| >= 1 (gamma <= 0), which is
    pointwise below the plain power.
    """

    gamma: float
    angular: ScaledKernel
    kinetic_cutoff: bool = False

    def __post_init__(self) -> None:
        if not (-4.0 <= self.gamma <= 0.0):
            raise KernelError(f"gamma must lie in [-4, 0]; got {self.gamma}", "gamma")

    def kinetic_factor(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        if self.kinetic_cutoff:
            return np.maximum(r, 1.0) ** self.gamma
        return r**self.gamma

    def with_epsilon(self, eps: float) -> "CollisionKernel":
        return replace(self, angular=self.angular.with_epsilon(eps))


def beta_eps(kernel: ScaledKernel, theta: np.ndarray) -> np.ndarray:
    """Evaluate the concentrated profile; zero outside its support."""
    theta = np.asarray(theta, dtype=float)
    if np.any(theta <= 0.0):
        raise KernelError("angle out of domain: theta must be positive")
    eps = kernel.epsilon
    inside = theta < eps / 2.0
    safe = np.where(inside, theta, eps / 4.0)
    vals = (np.pi**3 / eps**3) * kernel.base(np.pi * safe / eps)
    return np.where(inside, vals, 0.0)


@lru_cache(maxsize=128)
def _panel_gl(panels: int, nodes: int, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    t, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(lo, hi, panels + 1)
    xs, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        xs.append(0.5 * (b - a) * t + 0.5 * (a + b))
        ws.append(0.5 * (b - a) * w)
    return read_only(np.concatenate(xs), np.concatenate(ws))


def base_angular_nodes(profile: AngularProfile,
                       spec: QuadratureSpec) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights with beta absorbed: sum w_i g(chi_i) ~ int g beta d(chi)
    over (0, pi/2).

    Uses the substitution t = chi^(2-nu), which turns the critical
    chi^(1-nu)-type integrands into bounded (for pure power laws, constant)
    functions of t.
    """
    q = 2.0 - profile.nu
    t, wt = _panel_gl(spec.theta_panels, spec.theta_nodes_per_panel, 0.0, (np.pi / 2.0)**q)
    # beta(chi) = scale t^(-(1+nu)/q) at the first node, taken in logs: near
    # nu = 2 it leaves the float range, and chi itself underflows
    if np.log(profile.scale) - (1.0 + profile.nu) / q * np.log(t[0]) >= _LOG_MAX:
        raise KernelError(f"at nu = {profile.nu} the profile at the first theta node "
                          f"exceeds the float range; this theta rule needs a smaller nu", "nu")
    chi = t ** (1.0 / q)
    dchi_dt = (1.0 / q) * t ** (1.0 / q - 1.0)
    return chi, wt * dchi_dt * profile(chi)


@lru_cache(maxsize=256)
def angular_nodes(kernel: ScaledKernel, spec: QuadratureSpec) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights absorbing beta_eps over the kernel's angular support.

    sum_i w_i g(theta_i) approximates int g(theta) beta_eps(theta) d(theta).
    """
    eps = kernel.epsilon
    chi, w = base_angular_nodes(kernel.base, spec)
    # theta = eps*chi/pi maps the support onto (0, pi/2) uniformly in eps
    return read_only(eps * chi / np.pi, (np.pi**2 / eps**2) * w)


@lru_cache(maxsize=256)
def angular_moments(kernel: ScaledKernel, spec: QuadratureSpec) -> tuple[float, float, float]:
    """(M2, M4, M22) = sums of w_i sin^2(theta_i), w_i sin^4(theta_i) and
    w_i sin^2(2 theta_i) over angular_nodes(kernel, spec): the theta-moments
    a sweep term linear or quadratic in a quadratic-form dbar psi reads."""
    theta, w = angular_nodes(kernel, spec)
    s2 = np.sin(theta) ** 2
    return (pairwise_sum(w * s2), pairwise_sum(w * s2**2),
            pairwise_sum(w * np.sin(2.0 * theta) ** 2))


def _theta_moment(nodes: Callable, spec: QuadratureSpec) -> IntegralResult:
    """int theta^2 against the nodes' weight, valued at spec.refined() with
    the error against spec."""
    def level(s):
        theta, w = nodes(s)
        return pairwise_sum(w * theta**2)

    return coarse_fine(level, spec.refined())


def momentum_transfer(kernel: ScaledKernel, spec: QuadratureSpec) -> float:
    """The angular momentum transfer int theta^2 beta_eps(theta) d(theta).

    Equals 8/pi for every eps (after normalization). Raises KernelError
    unless the refinement error is within 1e-6 relative.
    """
    t = _theta_moment(lambda s: angular_nodes(kernel, s), spec)
    if not np.isfinite(t.value) or t.error_estimate > 1e-6 * max(abs(t.value), 1e-300):
        raise KernelError(f"momentum transfer quadrature did not converge: {t!r}")
    return t.value


def normalize(profile: AngularProfile, spec: QuadratureSpec) -> AngularProfile:
    """Rescale the profile so that int theta^2 beta = 8/pi on [0, pi/2].

    Idempotent.
    """
    t = _theta_moment(lambda s: base_angular_nodes(profile, s), spec)
    if not np.isfinite(t.value) or t.error_estimate > 1e-8 * abs(t.value):
        raise KernelError(f"transfer integral did not converge: {t!r}", "nu")
    return replace(profile, scale=profile.scale * (TRANSFER / t.value))


def build_kernel(gamma: float, nu: float, epsilon: float, spec: QuadratureSpec,
                 kinetic_cutoff: bool = False) -> CollisionKernel:
    """Construct a power-law collision kernel, normalized with spec's theta rule."""
    prof = normalize(AngularProfile(nu), spec)
    return CollisionKernel(gamma=gamma, angular=ScaledKernel(prof, epsilon),
                           kinetic_cutoff=kinetic_cutoff)
