"""Projection of anti-symmetric fields onto the image of the grazing gradient.

On each shell |v - v*| = const the first-order condition of

    min_psi || dtilde(psi) - Pi[v-v*] V ||^2

is a Poisson problem for the Laplace-Beltrami operator in the direction
k = (v-v*)/|v-v*|, solved spectrally: degree l divides by -l(l+1), degree 0
is pinned to zero (the compact-manifold solvability/uniqueness convention).
The mean coordinate y = (v+v*)/2 and the shell radius enter as parameters,
so shells and y nodes solve independently; each shell solves its y nodes
in blocks of Y_BLOCK, one array batch per block.

Anti-symmetry of V forces the solution to be even in k, i.e. symmetric under
swapping v and v*; odd-degree coefficients vanish to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._sphharm import SphereTransform
from .functions import PairVectorField, dot3, sq3, y_rho


class ProjectionError(RuntimeError):
    pass


# a degree-0 coefficient above this share of its set's largest one is not roundoff
SOLVABILITY_TOL = 1e-8

# y nodes per array batch: the items of a batch are independent, so the block
# size bounds a shell's transients without changing a bit of the results
Y_BLOCK = 25


@dataclass(frozen=True)
class ShellGrid:
    """Shells in the half-relative-velocity radius r = |x| = |v - v*|/2,
    a rule for the mean velocities y, and the spherical resolution."""

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
        if np.any(self.y_weights <= 0):
            raise ProjectionError("y weights must be positive")

    def transform(self) -> SphereTransform:
        return SphereTransform(lmax=self.lmax, n_theta=self.n_theta, n_phi=self.n_phi)


def shell_grid(delta: float, R: float, n_shells: int = 6, y_radius: float = 6.0,
               n_y: int = 5, lmax: int = 16) -> ShellGrid:
    """Gauss-Legendre shells on [delta/2, R/2], a y rule on the support ball
    |y| < y_radius, and a (lmax + 4) x (2 lmax + 8) sphere grid.

    The y rule is the n_y^3 Gauss-Legendre tensor rule of the box
    [-y_radius, y_radius]^3 restricted to the nodes inside the open ball,
    by the float test that decides where a DS or AS field's y-factor
    bump(|y|/y_radius) is nonzero. For a field supported in |y| < y_radius
    every dropped node carries an exact 0, so the restricted rule gives the
    box rule's sums bit for bit. It keeps 7 of 27 nodes at n_y 3, 32 of 64
    at n_y 4 and 33 of 125 at n_y 5. At n_y 2 the 8 nodes lie on the
    sphere |y| = y_radius up to roundoff, so it keeps all of them (at
    y_radius 3 they sit one ulp inside, where the bump underflows to 0) or
    none.
    """
    t, w = np.polynomial.legendre.leggauss(n_shells)
    lo, hi = 0.5 * delta, 0.5 * R
    radii = 0.5 * (hi - lo) * t + 0.5 * (hi + lo)
    rw = 0.5 * (hi - lo) * w
    ty, wy = np.polynomial.legendre.leggauss(n_y)
    axis = y_radius * ty
    aw = y_radius * wy
    Y = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    WY = (aw[:, None, None] * aw[None, :, None] * aw[None, None, :]).reshape(-1)
    ball = y_rho(Y, y_radius) < 1.0
    return ShellGrid(radii=radii, radial_weights=rw, y_nodes=Y[ball], y_weights=WY[ball],
                     lmax=lmax, n_theta=lmax + 4, n_phi=2 * lmax + 8)


@dataclass(frozen=True)
class SphereField:
    """Per-(shell, y) spherical-harmonic coefficients of the projected potential."""

    coefficients: np.ndarray  # (n_r, n_y, lmax+1, 2*lmax+1)
    grid: ShellGrid

    def max_odd_degree(self) -> float:
        ls = np.arange(self.grid.lmax + 1)
        return float(np.abs(self.coefficients[:, :, ls % 2 == 1, :]).max(initial=0.0))


def shell_pairs(r: float, y: np.ndarray,
                transform: SphereTransform) -> tuple[float, np.ndarray, np.ndarray]:
    """The pair frame (s, k, y) of the pairs (v, v*) = (y + r k, y - r k) at
    the transform's grid nodes k, for each mean velocity y: s = 2r, k of
    shape (n_theta, n_phi, 3) and y of shape y.shape[:-1] + (1, 1, 3). They
    broadcast to y.shape[:-1] + (n_theta, n_phi, 3), which is never formed,
    so a pair field evaluates what reads s once per shell, k once per
    sphere grid and y once per node."""
    return 2.0 * r, transform.unit_vectors()[0], np.asarray(y, dtype=float)[..., None, None, :]


def _y_blocks(n_y: int) -> list[slice]:
    """The y-node index blocks of a shell, in order."""
    return [slice(b, b + Y_BLOCK) for b in range(0, n_y, Y_BLOCK)]


def _grid_sum(values: np.ndarray) -> np.ndarray:
    """Sum over the last two axes (a sphere grid or a coefficient set) for
    each item of the leading axes, in the order a sum of one item takes."""
    return values.reshape(values.shape[:-2] + (-1,)).sum(-1)


def _degree0(coeffs: np.ndarray, name: str) -> np.ndarray:
    """The degree-0 coefficient of each set, after checking that every
    coefficient is finite and that each degree-0 one is roundoff against its
    set's largest: a surface divergence has zero mean."""
    if not np.all(np.isfinite(coeffs)):
        raise ProjectionError(f"non-finite {name} coefficient")
    c00 = coeffs[..., 0, coeffs.shape[-2] - 1]
    scale = np.abs(coeffs).reshape(coeffs.shape[:-2] + (-1,)).max(-1, initial=0.0)
    bad = np.abs(c00) > np.maximum(SOLVABILITY_TOL * scale, 1e-13)
    if np.any(bad):
        i = np.argmax(bad)
        raise ProjectionError(f"non-solvable {name}: nonzero mean, degree-0 coefficient "
                              f"{c00.flat[i]:.3e} (scale {scale.flat[i]:.3e})")
    return c00


def sphere_rhs(V: PairVectorField, r: float, y: np.ndarray, gamma: float,
               transform: SphereTransform) -> np.ndarray:
    """Forward transform of the shell Poisson right-hand side
    2^(-1-gamma/2) r^(-gamma/2) div_omega(Pi[k] V), with
    div_omega(Pi V) = r div_x(Pi[x] V) = r V.div_pi, at each mean velocity y: shape
    y.shape[:-1] + (lmax+1, 2*lmax+1).

    The degree-0 coefficient must vanish (the right-hand side is a surface
    divergence); a nonzero mean signals a field outside the AS class.
    """
    if V.kind != "AS":
        raise ProjectionError("projection needs an AS vector field")
    div_x = V.div_pi(*shell_pairs(r, y, transform))
    coeffs = transform.analyze(2.0 ** (-1.0 - 0.5 * gamma) * r ** (-0.5 * gamma) * r * div_x)
    _degree0(coeffs, "RHS")
    return coeffs


def sphere_poisson_solve(rhs_coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Divide coefficient-wise by the Laplace-Beltrami symbol -l(l+1), over
    any leading batch axes.

    Returns (psi_coeffs, residual) where the residual is the coefficient-space
    norm of Delta psi - rhs including the pinned degree-0 entry, one per set.
    """
    lmax = rhs_coeffs.shape[-2] - 1
    c00 = _degree0(rhs_coeffs, "Poisson input")
    ls = np.arange(lmax + 1, dtype=float)
    eig = -(ls * (ls + 1.0))
    psi = np.zeros_like(rhs_coeffs)
    psi[..., 1:, :] = rhs_coeffs[..., 1:, :] / eig[1:, None]
    residual_sq = (psi * eig[:, None] - rhs_coeffs) ** 2
    residual_sq[..., 0, lmax] = c00**2
    return psi, np.sqrt(_grid_sum(residual_sq))


def project_vector_field(V: PairVectorField, grid: ShellGrid, gamma: float) -> tuple[SphereField, dict]:
    """Shell-by-shell solve assembling the projected potential psi(v, v*),
    the y nodes of a shell in blocks of Y_BLOCK.

    Diagnostics carry the worst spectral residual and solvability defect
    (NaN if any is NaN), the largest odd-degree coefficient (anti-symmetry of
    V makes psi even), and the three squared norms of the orthogonal
    decomposition.
    """
    tr = grid.transform()
    n_y = grid.y_nodes.shape[0]
    coeffs = np.zeros((grid.radii.size, n_y, grid.lmax + 1, 2 * grid.lmax + 1))
    residuals, defects = np.zeros((2, grid.radii.size, n_y))
    for a, r in enumerate(grid.radii):
        for b in _y_blocks(n_y):
            rhs = sphere_rhs(V, float(r), grid.y_nodes[b], gamma, tr)
            defects[a, b] = np.abs(rhs[:, 0, tr.lmax])
            coeffs[a, b], residuals[a, b] = sphere_poisson_solve(rhs)
    field = SphereField(coefficients=coeffs, grid=grid)
    norms = pythagoras_check(V, field, gamma)
    # a y rule with no node in the ball reads 0, as the box rule's zeros do
    diagnostics = {
        "max_spectral_residual": float(residuals.max(initial=0.0)),
        "max_solvability_defect": float(defects.max(initial=0.0)),
        "max_odd_degree_coeff": field.max_odd_degree(),
        "norm_projected_V_sq": norms[0],
        "norm_gradient_sq": norms[1],
        "norm_residual_sq": norms[2],
    }
    return field, diagnostics


def pythagoras_check(V: PairVectorField, psi: SphereField, gamma: float) -> tuple[float, float, float]:
    """The three squared norms of the orthogonal decomposition

        ||Pi[v-v*] V||^2 = ||dtilde psi||^2 + ||Pi[v-v*] V - dtilde psi||^2

    in L^2(dv dv*), evaluated per shell and y block on a sphere grid
    oversampled twice. On each shell
    dtilde(psi) = 2^(1+gamma/2) r^(gamma/2) grad_{S^2} psi.
    The (shell, y) terms are added in that order, one after the other.
    """
    grid = psi.grid
    fine = SphereTransform(lmax=grid.lmax, n_theta=2 * grid.n_theta, n_phi=2 * grid.n_phi)
    k, _, _ = fine.unit_vectors()
    wq = fine.quad_weights
    terms = [np.zeros((1, 3))]  # the running sum starts at 0, which an empty y rule reads
    for a, r in enumerate(grid.radii):
        c = 2.0 ** (1.0 + 0.5 * gamma) * r ** (0.5 * gamma)
        for b in _y_blocks(grid.y_nodes.shape[0]):
            val = V.value(*shell_pairs(float(r), grid.y_nodes[b], fine))
            vt = val - dot3(k, val)[..., None] * k
            gt = c * fine.surface_gradient(psi.coefficients[a, b])
            wy = 8.0 * grid.radial_weights[a] * r**2 * grid.y_weights[b]
            terms.append(np.stack([wy * _grid_sum(wq * sq3(vt)), wy * _grid_sum(wq * sq3(gt)),
                                   wy * _grid_sum(wq * sq3(vt - gt))], axis=-1))
    # a running sum, unlike np.sum's pairwise one, keeps the per-term order
    nV, nG, nR = np.cumsum(np.concatenate(terms), axis=0)[-1]
    return float(nV), float(nG), float(nR)
