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
from .dissipation import _DISS
from .operators import _kin, collision_sweeps, pair_grid
from .quadrature import QuadratureSpec, coarse_fine, pairwise_sum, sum_r6


class CompactnessError(RuntimeError):
    """A refusal; field, when set, names the constructor argument at fault."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


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
            raise CompactnessError(f"cutoff radius must be positive, got {self.R}", "R")

    def chi(self, v: np.ndarray) -> np.ndarray:
        r = np.sqrt(sq3(np.asarray(v, dtype=float) - np.asarray(self.center)))
        t = (2.0 * r - (2.0 * self.R + 1.0)) / 0.95
        return 1.0 - smooth_step(t)

    def sqrt_value(self, v: np.ndarray) -> np.ndarray:
        return np.sqrt(self.base.value(v)) * np.sqrt(self.chi(v))


# ---------------------------------------------------------------------------
# cancellation quantity


def _s_bracket(r, kernel: CollisionKernel, theta) -> np.ndarray:
    """The cancellation lemma's bracket cos^-3(theta/2) k(r/cos(theta/2)) - k(r),
    k(r) = max(r, 1)^gamma, as k(r) expm1(log of the ratio): with
    log cos(theta/2) = log1p(-2 sin^2(theta/4)) it keeps its relative accuracy
    as theta -> 0."""
    log_c = np.log1p(-2.0 * np.sin(0.25 * theta) ** 2)
    with np.errstate(divide="ignore"):
        log_r = np.log(r)
    # log k(r/c) - log k(r) = gamma (log max(r, c) - log max(r, 1) - log c)
    log_k = kernel.gamma * ((np.maximum(log_r, log_c) - np.maximum(log_r, 0.0)) - log_c)
    return kernel.kinetic_factor(r) * np.expm1(log_k - 3.0 * log_c)


def s_eps(z_norm: float, kernel: CollisionKernel, spec: QuadratureSpec) -> float:
    """S_eps(z) = 2 pi int [cos^-3(theta/2) k(|z|/cos(theta/2)) - k(|z|)] beta_eps d(theta),
    k the cutoff kinetic factor.

    Bounded by 12 uniformly; tends to 6 for |z| < 1 and to
    2 (3 + gamma) |z|^gamma for |z| >= 1 as eps drops.
    """
    if not kernel.kinetic_cutoff:
        raise CompactnessError("cancellation quantity needs the kinetic-cutoff kernel")
    theta, w = angular_nodes(kernel.angular, spec)
    return float(2.0 * np.pi * pairwise_sum(w * _s_bracket(abs(float(z_norm)), kernel, theta)))


def cancellation_identity_check(f: GaussianMixture, kernel: CollisionKernel,
                                spec: QuadratureSpec, dissipation_eps: list[float] = ()) -> tuple:
    """Both sides of int int int B_eps f_* (f' - f) = int int f f_* S_eps(v - v*),
    and D_B_eps(f) at each of dissipation_eps.

    Returns (lhs, rhs, D_B), lhs and rhs each valued at spec with the error
    against spec.coarsened(). The left side is a full pair-times-sphere
    sweep; the right side is an R^6 integral of the one-dimensional
    cancellation integral S_eps(|v - v*|). Does not vanish at equilibrium.

    D_B is boltzmann_dissipation(...).value at each of dissipation_eps, bit
    for bit, and empty without them. The fine pass's plan carries the D_B
    term at each of dissipation_eps and the cancellation term at the kernel's
    own eps only, which joins the batch when it is not among them; the coarse
    pass, whose D_B no estimate reads, sweeps the cancellation term alone. A
    kernel's partial sums do not depend on the rest of its plan: the bits hold.
    """
    if not kernel.kinetic_cutoff:
        raise CompactnessError("cancellation identity needs the kinetic-cutoff kernel")
    center, scale = f.quadrature_frame()

    def term(node):
        # symmetrized over pair orientation for the unordered-pair grid;
        # f(v') - f(v) = f(v) S with S = f(v')/f(v) - 1 from the node, so no
        # density is evaluated at v' or v*'
        fv, fvs = node.pair.f_v[:, None], node.pair.f_star[:, None]
        s, s_star = node.ratio_m1
        return 0.5 * (fvs * (fv * s) + fv * (fvs * s_star))

    kernels = [kernel.with_epsilon(float(eps)) for eps in dissipation_eps]
    plan = {k: {"diss": _DISS} for k in kernels}
    plan[kernel] = {**plan.get(kernel, {}), "v": (term, _kin)}
    sweeps = {}  # each level's collision_sweeps output, keyed by its spec

    def level(s):
        outs = sweeps[s] = collision_sweeps(pair_grid(f, s), s, plan if s == spec
                                            else {kernel: {"v": plan[kernel]["v"]}})
        theta, w = angular_nodes(kernel.angular, s)

        def f_f_s(v, vs):
            r = np.sqrt(sq3(v - vs))
            acc = np.zeros(r.shape)
            for t, wt in zip(theta, w):
                acc += wt * _s_bracket(r, kernel, t)
            return f.pair_value(v, vs) * (2.0 * np.pi) * acc

        # the right side has no collision difference, so the tensor diagonal
        # carries real weight: use the full pair rule, one level finer in
        # pairs than the sweep, not the collision grid
        return {"lhs": outs[kernel]["v"], "rhs": sum_r6(f_f_s, s.refined(), center, scale)}

    out = coarse_fine(level, spec)
    return out["lhs"], out["rhs"], [0.25 * sweeps[spec][k]["diss"] for k in kernels]


# ---------------------------------------------------------------------------
# Fourier machinery


# planes per slab when sampling, transforming and squaring: each slab's
# temporaries stay a few MiB while the half spectrum is the one grid held
# whole (at 16 planes the density's temporaries on a slab of the pinned 160^3
# box take the seminorm's peak from 41 to 50 MiB, for no gain in time)
SLAB = 8


@dataclass(frozen=True)
class FourierGrid:
    """Uniform box DFT approximating the continuous transform
    F[g](xi) = int g(v) exp(-i v.xi) dv."""

    n: int = 160
    half_width: float = 8.0

    def __post_init__(self) -> None:
        if self.n < 2:
            raise CompactnessError(f"the box needs at least 2 nodes per axis, got {self.n}", "n")
        if not self.half_width > 0:
            raise CompactnessError(f"half width must be positive, got {self.half_width}",
                                   "half_width")

    @cached_property
    def x_axis(self) -> np.ndarray:
        h = 2.0 * self.half_width / self.n
        return -self.half_width + h * np.arange(self.n)

    @cached_property
    def xi_axis(self) -> np.ndarray:
        h = 2.0 * self.half_width / self.n
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=h)

    def node_range(self, lo: float, hi: float) -> slice:
        """The indices of the x_axis nodes in [lo, hi], and at most one more
        on each side, clipped to the box."""
        h = 2.0 * self.half_width / self.n
        return slice(max(int(np.floor((lo + self.half_width) / h)), 0),
                     min(int(np.ceil((hi + self.half_width) / h)) + 1, self.n))

    def transform(self, func, box: tuple[slice, slice, slice]) -> np.ndarray:
        """The half spectrum, shape (n, n, n//2 + 1), of g on the frequencies
        xi_axis x xi_axis x xi_axis[:n//2 + 1], g = func on the nodes of box
        (three index ranges with explicit ends) and 0 elsewhere:
        F[g](xi) is exp(-i a.xi), a the box corner, times it, and the rest of
        the spectrum is its complex conjugate at -xi.

        func takes points of shape (..., 3). It is sampled one x slab of box
        at a time into one reused real buffer, which is transformed straight
        into the spectrum (the last axis, then axis 1); axis 0 follows a
        column block at a time. Every 1-D line is rfftn's, so the spectrum is
        rfftn's of the full real box, bit for bit, without ever holding it."""
        n = self.n
        bx, by, bz = box
        ax = self.x_axis
        out = np.zeros((n, n, n // 2 + 1), dtype=complex)
        buf = np.zeros((SLAB, by.stop - by.start, n))
        pts = np.empty((SLAB, by.stop - by.start, bz.stop - bz.start, 3))
        pts[..., 1] = ax[by, None]
        pts[..., 2] = ax[bz]
        for i in range(bx.start, bx.stop, SLAB):
            k = min(SLAB, bx.stop - i)
            pts[:k, ..., 0] = ax[i:i + k, None, None]
            buf[:k, :, bz] = func(pts[:k])
            np.fft.rfft(buf[:k], axis=2, out=out[i:i + k, by])
            np.fft.fft(out[i:i + k], axis=1, out=out[i:i + k])
        del buf, pts
        for j in range(0, n, SLAB):
            s = (slice(None), slice(j, j + SLAB))
            np.fft.fft(out[s], axis=0, out=out[s])
        out *= (2.0 * self.half_width / n) ** 3
        return out


def check_support(f_R: CutoffDensity, grid: FourierGrid) -> None:
    """Raise CompactnessError unless the cutoff support B_(R+1)(center) fits
    in the box: |center_d| + R + 1 <= half width on every axis d."""
    reach = f_R.R + 1.0
    if reach > grid.half_width:
        raise CompactnessError(f"grid does not resolve the support: R + 1 = {reach} exceeds "
                               f"the box half width {grid.half_width}", "R")
    for d, c in enumerate(f_R.center):
        if abs(c) + reach > grid.half_width:
            raise CompactnessError(f"grid does not resolve the support: |center[{d}]| + R + 1 "
                                   f"= {abs(c) + reach} exceeds the box half width "
                                   f"{grid.half_width}", "center")


def weighted_seminorm(f_R: CutoffDensity, nu: float, grid: FourierGrid) -> float:
    """int |F[sqrt(f_R)](xi)|^2 min(|xi|^2, |xi|^nu) d(xi) on the DFT box.

    Sums the half spectrum with conjugate-symmetry weights: on the last axis
    bin 0 and the even-n Nyquist bin count once, every other bin twice.
    Errors out when the cutoff support leaks past the box or when spectral
    energy piles up at the grid boundary (aliasing): the planes of the
    highest frequency magnitude on any axis, n//2 bins from zero.

    sqrt(f_R) is exactly 0 outside B_(R+1)(center), so only the box around
    that ball is sampled. The spectrum is the one full grid held: |F|^2 goes
    slab by slab over the first half of its own float buffer, where plane i
    covers planes <= i of the spectrum, already read, and the weight is
    multiplied in place. Each float keeps its value and the C-contiguous
    layout keeps numpy's summation order.
    """
    check_support(f_R, grid)
    n, m = grid.n, grid.n // 2 + 1
    reach = f_R.R + 1.0
    G = grid.transform(f_R.sqrt_value,
                       tuple(grid.node_range(c - reach, c + reach) for c in f_R.center))
    G2 = G.view(float).reshape(-1)[:G.size].reshape(G.shape)
    for i in range(0, n, SLAB):
        s = slice(i, i + SLAB)
        g2 = G[s].real ** 2 + G[s].imag ** 2
        g2[..., 1:(n + 1) // 2] *= 2.0
        G2[s] = g2
    del G, g2
    top = np.abs(np.fft.fftfreq(n, 1.0 / n)) == n // 2
    boundary = top[:, None, None] | top[None, :, None] | top[None, None, :m]
    total = float(G2.sum())
    if total > 0 and float(G2[boundary].sum()) / total > 1e-8:
        raise CompactnessError(f"aliasing detected: boundary spectral energy above threshold on "
                               f"the box of n = {grid.n}, half width {grid.half_width}")
    xi = grid.xi_axis
    for i in range(0, n, SLAB):
        s = slice(i, i + SLAB)
        xi2 = xi[s, None, None] ** 2 + xi[None, :, None] ** 2 + xi[None, None, :m] ** 2
        G2[s] *= np.minimum(xi2, xi2 ** (0.5 * nu))
    dxi = (np.pi / grid.half_width) ** 3
    return float(G2.sum() * dxi)


def characteristic_function(f: GaussianMixture, xi: np.ndarray) -> np.ndarray:
    """F[f](xi) for a Gaussian mixture, in closed form."""
    xi = np.asarray(xi, dtype=float)
    out = np.zeros(xi.shape[:-1], dtype=complex)
    for wk, mu, d in zip(f.weights, f.means, f.cov_diags):
        out += wk * np.exp(-1j * (xi @ mu) - 0.5 * np.sum(xi**2 * d, axis=-1))
    return out


def fourier_positivity_gap(f: GaussianMixture, xi: np.ndarray) -> float:
    """F[f](0) - |F[f](xi)| for a probability density; nonnegative, and
    bounded below by a density-dependent multiple of min(|xi|^2, 1)."""
    return float(1.0 - np.abs(characteristic_function(f, np.asarray(xi, dtype=float))))


def check_avg_epsilon(eps: float) -> None:
    """Raise CompactnessError unless eps lies where the angular-average bound holds."""
    if eps > 1.0:
        raise CompactnessError(f"the angular-average bound holds for eps <= 1, got {eps}")


def fourier_avg_lower_bound(xi: np.ndarray, kernel: CollisionKernel,
                            spec: QuadratureSpec) -> tuple[float, float]:
    """Angular average int b_eps(xihat.sigma) min(|xi^-|^2, 1) d(sigma) and its
    singularity-constant lower bound.

    With |xi^-|^2 = (|xi|^2/2)(1 - xihat.sigma) the average is a theta
    integral against beta_eps; the bound is
    (2 c1/pi) ((pi/2)^(2-nu)/(2-nu)) min(|xi|^2, |xi|^nu) for eps <= 1.
    """
    check_avg_epsilon(kernel.angular.epsilon)
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
