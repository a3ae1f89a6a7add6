"""Fourier-side diagnostics: cancellation quantity, weighted seminorm, averages.

These are the desk-scale ingredients of the strong-compactness estimate: the
kinetic-cutoff cancellation convolution kernel and its uniform bound, the
weighted H^(nu/2)-type seminorm of the cut square-root density, the angular
average lower bound in frequency, and the positivity gap of characteristic
functions. Constants that theory only proves to exist are fitted and
reported, never asserted as specific numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .functions import GaussianMixture, smooth_step, sq3
from .kernels import CollisionKernel, angular_nodes
from .operators import collision_sweep, pair_grid
from .quadrature import QuadratureSpec, integrate_r6, pairwise_sum


class CompactnessError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# smooth cutoff


@dataclass(frozen=True)
class CutoffDensity:
    """f * chi_R with a smooth radial indicator: chi = 1 on B_R(center), zero
    outside B_{R+1}(center), Lipschitz constant <= 2 (transition width 0.95)."""

    base: GaussianMixture
    R: float
    center: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self) -> None:
        if self.R <= 0:
            raise CompactnessError("cutoff radius must be positive")

    def chi(self, v: np.ndarray) -> np.ndarray:
        r = np.sqrt(sq3(np.asarray(v, dtype=float) - np.asarray(self.center)))
        t = (2.0 * r - (2.0 * self.R + 1.0)) / 0.95
        return 1.0 - smooth_step(t)

    def value(self, v: np.ndarray) -> np.ndarray:
        return self.base.value(v) * self.chi(v)

    def sqrt_value(self, v: np.ndarray) -> np.ndarray:
        return np.sqrt(self.base.value(v)) * np.sqrt(self.chi(v))


# ---------------------------------------------------------------------------
# cancellation quantity


def s_eps(z_norm: float, kernel: CollisionKernel, spec: QuadratureSpec) -> float:
    """S_eps(z) = 2 pi |z|^gamma_kin int [cos^-3(theta/2) - 1] beta_eps d(theta).

    Bounded by 12 uniformly (the integrand is below (3/4) theta^2 times the
    momentum transfer); tends to 6 |z|^gamma_kin as eps drops.
    """
    if not kernel.kinetic_cutoff:
        raise CompactnessError("cancellation quantity needs the kinetic-cutoff kernel")
    theta, w = angular_nodes(kernel.angular, spec)
    s0 = 2.0 * np.pi * pairwise_sum(w * (np.cos(0.5 * theta) ** (-3.0) - 1.0))
    return float(kernel.kinetic_factor(np.asarray(z_norm)) * s0)


def cancellation_identity_check(f: GaussianMixture, kernel: CollisionKernel,
                                spec: QuadratureSpec) -> tuple[float, float, float]:
    """Both sides of int int int B_eps f_* (f' - f) = int int f f_* S_eps(v - v*).

    Returns (lhs, rhs, gap). The left side is a full pair-times-sphere sweep;
    the right side factorizes through the one-dimensional cancellation
    integral. Does not vanish at equilibrium.
    """
    if not kernel.kinetic_cutoff:
        raise CompactnessError("cancellation identity needs the kinetic-cutoff kernel")
    grid = pair_grid(f, spec)

    def term(node):
        # symmetrized over pair orientation for the unordered-pair grid
        fv, fvs = node.pair.f_v[:, None], node.pair.f_star[:, None]
        return 0.5 * (fvs * (f.value(node.vp) - fv) + fv * (f.value(node.vsp) - fvs))

    lhs = collision_sweep(grid, kernel, spec, terms={"v": term},
                          pair_factors={"v": lambda c: c.kin})["v"]

    theta, w = angular_nodes(kernel.angular, spec)
    s0 = 2.0 * np.pi * pairwise_sum(w * (np.cos(0.5 * theta) ** (-3.0) - 1.0))
    # the right side has no collision difference, so the tensor diagonal
    # carries real weight: use the full pair rule, not the collision grid
    center, scale = f.quadrature_frame()
    moment = integrate_r6(
        lambda v, vs: f.pair_value(v, vs) * kernel.kinetic_factor(np.sqrt(sq3(v - vs))),
        spec, center, scale)
    rhs = s0 * moment.value
    return float(lhs), float(rhs), float(abs(lhs - rhs))


# ---------------------------------------------------------------------------
# Fourier machinery


@dataclass(frozen=True)
class FourierGrid:
    """Uniform box DFT approximating the continuous transform
    F[g](xi) = int g(v) exp(-i v.xi) dv."""

    n: int = 160
    half_width: float = 8.0

    @cached_property
    def x_axis(self) -> np.ndarray:
        h = 2.0 * self.half_width / self.n
        return -self.half_width + h * np.arange(self.n)

    @cached_property
    def xi_axis(self) -> np.ndarray:
        h = 2.0 * self.half_width / self.n
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=h)

    def transform(self, g_values: np.ndarray) -> np.ndarray:
        h = 2.0 * self.half_width / self.n
        G = np.fft.fftn(g_values) * h**3
        phase = np.exp(1j * self.xi_axis * self.half_width)
        return G * phase[:, None, None] * phase[None, :, None] * phase[None, None, :]

    def sample(self, func) -> np.ndarray:
        ax = self.x_axis
        pts = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1)
        return func(pts)


def weighted_seminorm(f_R: CutoffDensity, nu: float, grid: FourierGrid,
                      aliasing_tol: float = 1e-8) -> float:
    """int |F[sqrt(f_R)](xi)|^2 min(|xi|^2, |xi|^nu) d(xi) on the DFT box.

    Errors out when the cutoff support leaks past the box or when spectral
    energy piles up at the grid boundary (aliasing).
    """
    if f_R.R + 1.0 > grid.half_width:
        raise CompactnessError("grid does not resolve the support: R + 1 exceeds the box")
    g = grid.sample(f_R.sqrt_value)
    G2 = np.abs(grid.transform(g)) ** 2
    n = grid.n
    boundary = np.zeros((n, n, n), dtype=bool)
    edge = n // 2
    for axis in range(3):
        sl = [slice(None)] * 3
        sl[axis] = edge
        boundary[tuple(sl)] = True
    total = float(G2.sum())
    if total > 0 and float(G2[boundary].sum()) / total > aliasing_tol:
        raise CompactnessError("aliasing detected: boundary spectral energy above threshold")
    xi = grid.xi_axis
    xi2 = xi[:, None, None] ** 2 + xi[None, :, None] ** 2 + xi[None, None, :] ** 2
    weight = np.minimum(xi2, xi2 ** (0.5 * nu))
    dxi = (np.pi / grid.half_width) ** 3
    return float((G2 * weight).sum() * dxi)


def characteristic_function(f: GaussianMixture, xi: np.ndarray) -> np.ndarray:
    """F[f](xi) for a Gaussian mixture, in closed form."""
    xi = np.asarray(xi, dtype=float)
    out = np.zeros(xi.shape[:-1], dtype=complex)
    for wk, mu, d in zip(f.weights, f.means, f.cov_diags):
        out += wk * np.exp(-1j * (xi @ mu) - 0.5 * np.sum(xi**2 * d, axis=-1))
    return out


def fourier_positivity_gap(f: GaussianMixture, xi: np.ndarray, spec: QuadratureSpec | None = None) -> float:
    """F[f](0) - |F[f](xi)| for a probability density; nonnegative, and
    bounded below by a density-dependent multiple of min(|xi|^2, 1)."""
    return float(1.0 - np.abs(characteristic_function(f, np.asarray(xi, dtype=float))))


def fourier_avg_lower_bound(xi: np.ndarray, kernel: CollisionKernel,
                            spec: QuadratureSpec) -> tuple[float, float]:
    """Angular average int b_eps(xihat.sigma) min(|xi^-|^2, 1) d(sigma) and its
    singularity-constant lower bound.

    With |xi^-|^2 = (|xi|^2/2)(1 - xihat.sigma) the average is a theta
    integral against beta_eps; the bound is
    (2 c1/pi) ((pi/2)^(2-nu)/(2-nu)) min(|xi|^2, |xi|^nu) for eps <= 1.
    """
    if kernel.angular.epsilon > 1.0:
        raise CompactnessError("the angular-average bound holds for eps <= 1")
    xi = np.asarray(xi, dtype=float)
    xn2 = float(np.sum(xi**2))
    theta, w = angular_nodes(kernel.angular, spec)
    lhs = 2.0 * np.pi * pairwise_sum(w * np.minimum(0.5 * xn2 * (1.0 - np.cos(theta)), 1.0))
    prof = kernel.angular.base
    const = (2.0 * prof.c1 / np.pi) * (np.pi / 2.0) ** (2.0 - prof.nu) / (2.0 - prof.nu)
    rhs = const * min(xn2, xn2 ** (0.5 * prof.nu))
    return float(lhs), float(rhs)


def truncation_constant(f: GaussianMixture, kernel: CollisionKernel,
                        spec: QuadratureSpec) -> float:
    """150 pi (int int (|v|^2+|v*|^2) f f*) (int theta^2 beta_eps d(theta)),
    the additive constant of the truncation step; finite and eps-independent
    for the rescaled kernel."""
    from .kernels import momentum_transfer

    moment = 2.0 * f.moments.energy * f.moments.mass
    return float(150.0 * np.pi * moment * momentum_transfer(kernel.angular, spec))
