"""Projection of anti-symmetric fields onto the image of the grazing gradient.

On each shell |v - v*| = const the first-order condition of

    min_psi || dtilde(psi) - Pi[v-v*] V ||^2

is a Poisson problem for the Laplace-Beltrami operator in the direction
k = (v-v*)/|v-v*|, solved spectrally: degree l divides by -l(l+1), degree 0
is pinned to zero (the compact-manifold solvability/uniqueness convention).
The mean coordinate y = (v+v*)/2 and the shell radius enter as parameters,
so shells and y nodes solve independently.

Anti-symmetry of V forces the solution to be even in k, i.e. symmetric under
swapping v and v*; odd-degree coefficients vanish to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._sphharm import SphereTransform
from .functions import PairVectorField, dot3, sq3
from .operators import PairChunk


class ProjectionError(RuntimeError):
    pass


@dataclass(frozen=True)
class ShellGrid:
    """Shells in the half-relative-velocity radius r = |x| = |v - v*|/2,
    a tensor grid of mean velocities y, and the spherical resolution."""

    radii: np.ndarray
    radial_weights: np.ndarray
    y_nodes: np.ndarray
    y_weights: np.ndarray
    lmax: int
    n_theta: int
    n_phi: int

    def __post_init__(self) -> None:
        if np.any(np.diff(self.radii) <= 0):
            raise ProjectionError("shell radii must be strictly increasing")
        if np.any(self.radii <= 0):
            raise ProjectionError("shell radii must be positive")

    def transform(self) -> SphereTransform:
        return SphereTransform(lmax=self.lmax, n_theta=self.n_theta, n_phi=self.n_phi)


def shell_grid(delta: float, R: float, n_shells: int = 6, y_radius: float = 6.0,
               n_y: int = 5, lmax: int = 16, n_theta: int | None = None,
               n_phi: int | None = None) -> ShellGrid:
    """Gauss-Legendre shells on [delta/2, R/2] and a tensor y box covering
    the support ball |y| < y_radius."""
    t, w = np.polynomial.legendre.leggauss(n_shells)
    lo, hi = 0.5 * delta, 0.5 * R
    radii = 0.5 * (hi - lo) * t + 0.5 * (hi + lo)
    rw = 0.5 * (hi - lo) * w
    ty, wy = np.polynomial.legendre.leggauss(n_y)
    axis = y_radius * ty
    aw = y_radius * wy
    Y = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    WY = (aw[:, None, None] * aw[None, :, None] * aw[None, None, :]).reshape(-1)
    return ShellGrid(radii=radii, radial_weights=rw, y_nodes=Y, y_weights=WY,
                     lmax=lmax, n_theta=n_theta or lmax + 4, n_phi=n_phi or 2 * lmax + 8)


@dataclass(frozen=True)
class SphereField:
    """Per-(shell, y) spherical-harmonic coefficients of the projected potential."""

    coefficients: np.ndarray  # (n_r, n_y, lmax+1, 2*lmax+1)
    grid: ShellGrid

    def max_odd_degree(self) -> float:
        ls = np.arange(self.grid.lmax + 1)
        return float(np.abs(self.coefficients[:, :, ls % 2 == 1, :]).max(initial=0.0))


def _rhs_values(V: PairVectorField, r: float, y: np.ndarray, gamma: float,
                transform: SphereTransform) -> np.ndarray:
    """Right-hand side 2^(-1-gamma/2) r^(-gamma/2) div_omega(Pi[k] V) sampled
    on the transform grid; div_omega(Pi V) = r * div_x(Pi[x] V)."""
    k, _, _ = transform.unit_vectors()
    x = r * k
    y3 = np.broadcast_to(np.asarray(y, dtype=float), x.shape)
    div_x = PairChunk(y3 + x, y3 - x).div_projected(V)
    return 2.0 ** (-1.0 - 0.5 * gamma) * r ** (-0.5 * gamma) * r * div_x


def sphere_rhs(V: PairVectorField, r: float, y: np.ndarray, gamma: float,
               transform: SphereTransform, solvability_tol: float = 1e-8) -> np.ndarray:
    """Forward transform of the shell Poisson right-hand side.

    The degree-0 coefficient must vanish (the right-hand side is a surface
    divergence); a nonzero mean signals a field outside the AS class.
    """
    if V.kind != "AS":
        raise ProjectionError("projection needs an AS vector field")
    coeffs = transform.analyze(_rhs_values(V, r, y, gamma, transform))
    scale = float(np.abs(coeffs).max(initial=0.0))
    if abs(coeffs[0, transform.lmax]) > max(solvability_tol * scale, 1e-13):
        raise ProjectionError(
            f"non-solvable RHS: degree-0 coefficient {coeffs[0, transform.lmax]:.3e} "
            f"(scale {scale:.3e}) -- field is not in the AS class")
    return coeffs


def sphere_poisson_solve(rhs_coeffs: np.ndarray, solvability_tol: float = 1e-8) -> tuple[np.ndarray, float]:
    """Divide coefficient-wise by the Laplace-Beltrami symbol -l(l+1).

    Returns (psi_coeffs, residual) where the residual is the coefficient-space
    norm of Delta psi - rhs including the pinned degree-0 entry.
    """
    lmax = rhs_coeffs.shape[0] - 1
    scale = float(np.abs(rhs_coeffs).max(initial=0.0))
    c00 = rhs_coeffs[0, lmax]
    if abs(c00) > max(solvability_tol * scale, 1e-13):
        raise ProjectionError(f"nonzero mean input: degree-0 coefficient {c00:.3e}")
    ls = np.arange(lmax + 1, dtype=float)
    eig = -(ls * (ls + 1.0))
    psi = np.zeros_like(rhs_coeffs)
    psi[1:, :] = rhs_coeffs[1:, :] / eig[1:, None]
    residual_sq = (psi * eig[:, None] - rhs_coeffs) ** 2
    residual_sq[0, lmax] = c00**2
    return psi, float(np.sqrt(residual_sq.sum()))


def project_vector_field(V: PairVectorField, grid: ShellGrid, gamma: float) -> tuple[SphereField, dict]:
    """Shell-by-shell solve assembling the projected potential psi(v, v*).

    Diagnostics carry the worst spectral residual and solvability defect,
    the largest odd-degree coefficient (anti-symmetry of V makes psi even),
    and the three squared norms of the orthogonal decomposition.
    """
    tr = grid.transform()
    n_r, n_y = grid.radii.size, grid.y_nodes.shape[0]
    coeffs = np.zeros((n_r, n_y, grid.lmax + 1, 2 * grid.lmax + 1))
    worst_residual = 0.0
    worst_defect = 0.0
    for a, r in enumerate(grid.radii):
        for b in range(n_y):
            rhs = sphere_rhs(V, float(r), grid.y_nodes[b], gamma, tr)
            worst_defect = max(worst_defect, abs(rhs[0, tr.lmax]))
            psi, res = sphere_poisson_solve(rhs)
            worst_residual = max(worst_residual, res)
            coeffs[a, b] = psi
    field = SphereField(coefficients=coeffs, grid=grid)
    norms = pythagoras_check(V, field, gamma)
    diagnostics = {
        "max_spectral_residual": worst_residual,
        "max_solvability_defect": worst_defect,
        "max_odd_degree_coeff": field.max_odd_degree(),
        "norm_projected_V_sq": norms[0],
        "norm_gradient_sq": norms[1],
        "norm_residual_sq": norms[2],
    }
    return field, diagnostics


def pythagoras_check(V: PairVectorField, psi: SphereField, gamma: float,
                     oversample: int = 2) -> tuple[float, float, float]:
    """The three squared norms of the orthogonal decomposition

        ||Pi[v-v*] V||^2 = ||dtilde psi||^2 + ||Pi[v-v*] V - dtilde psi||^2

    in L^2(dv dv*), evaluated on an oversampled sphere grid per shell.
    On each shell dtilde(psi) = 2^(1+gamma/2) r^(gamma/2) grad_{S^2} psi.
    """
    grid = psi.grid
    fine = SphereTransform(lmax=grid.lmax, n_theta=oversample * grid.n_theta,
                           n_phi=oversample * grid.n_phi)
    k, _, _ = fine.unit_vectors()
    wq = fine.quad_weights
    nV = nG = nR = 0.0
    for a, r in enumerate(grid.radii):
        c = 2.0 ** (1.0 + 0.5 * gamma) * r ** (0.5 * gamma)
        shell_w = 8.0 * grid.radial_weights[a] * r**2
        x = float(r) * k
        for b in range(grid.y_nodes.shape[0]):
            y3 = np.broadcast_to(grid.y_nodes[b], x.shape)
            val = V.value(y3 + x, y3 - x)
            vt = val - dot3(k, val)[..., None] * k
            gt = c * fine.surface_gradient(psi.coefficients[a, b])
            wyb = shell_w * grid.y_weights[b]
            nV += wyb * float((wq * sq3(vt)).sum())
            nG += wyb * float((wq * sq3(gt)).sum())
            nR += wyb * float((wq * sq3(vt - gt)).sum())
    return nV, nG, nR
