"""Real spherical-harmonic analysis/synthesis on Gauss-Legendre x uniform grids.

Basis: orthonormal real harmonics

    Y_{l,0}  = N_{l,0} P_l(cos th)
    Y_{l,m}  = sqrt(2) N_{l,m} P_l^m(cos th) cos(m ph),  m > 0
    Y_{l,-m} = sqrt(2) N_{l,m} P_l^m(cos th) sin(m ph),  m > 0

with N_{l,m} = sqrt((2l+1)/(4 pi) (l-m)!/(l+m)!). Coefficient arrays are
indexed [l, m + lmax], after any leading batch axes. Analysis is exact for
band-limited fields when n_theta >= lmax + 1 and n_phi >= 2 lmax + 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .quadrature import read_only


@lru_cache(maxsize=16)
def _legendre_tables(lmax: int, n_theta: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes mu, weights, and normalized P / dP/d(theta) tables.

    Tables have shape (n_theta, lmax+1, lmax+1) indexed [node, m, l], already
    scaled by N_{l,m} (and the sqrt(2) for m > 0 is applied in the transform).
    """
    from scipy.special import assoc_legendre_p_all, gammaln  # only projection pays the import
    mu, wmu = np.polynomial.legendre.leggauss(n_theta)
    # scipy's [l, m, node] (P, dP/dx) taken to [node, m, l], C-contiguous so
    # that every table built from them keeps its layout
    out = assoc_legendre_p_all(lmax, lmax, mu, diff_n=1)[:, :, :lmax + 1]
    P, dP_dx = np.ascontiguousarray(out.transpose(0, 3, 2, 1))
    dP_dtheta = -np.sqrt(1.0 - mu**2)[:, None, None] * dP_dx
    ls = np.arange(lmax + 1)
    norm = np.zeros((lmax + 1, lmax + 1))
    for m in range(lmax + 1):
        l_ok = ls >= m
        ln = 0.5 * (np.log(2 * ls + 1.0) - np.log(4 * np.pi)
                    + gammaln(ls - m + 1.0) - gammaln(ls + m + 1.0))
        norm[m, l_ok] = np.exp(ln[l_ok])
    P *= norm[None, :, :]
    dP_dtheta *= norm[None, :, :]
    return read_only(mu, wmu, P, dP_dtheta)


def _gemv(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A @ x over the leading batch axes of x, one matrix-vector product each."""
    return (A @ x[..., None])[..., 0]


@dataclass(frozen=True)
class SphereTransform:
    """Fixed-grid forward/inverse transform with tangential-gradient synthesis."""

    lmax: int
    n_theta: int
    n_phi: int
    _tables: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n_theta < self.lmax + 1 or self.n_phi < 2 * self.lmax + 1:
            raise ValueError("grid too coarse for the requested degree: need "
                             "n_theta >= lmax+1 and n_phi >= 2*lmax+1")
        lmax = self.lmax
        mu, wmu, P, dP = _legendre_tables(lmax, self.n_theta)
        phi = 2.0 * np.pi * np.arange(self.n_phi) / self.n_phi
        m = np.arange(1, lmax + 1)
        # the transforms stack the azimuthal orders as rows
        # j = (0, cos 1..lmax, sin 1..lmax): coefficient column order[j] of a
        # set, its (P, dP) table scaled by sqrt(2) for m > 0, and 1, cos(m ph)
        # or sin(m ph)
        order = np.r_[lmax:2 * lmax + 1, lmax - 1:-1:-1]
        ms = np.r_[0, m, m]
        scale = np.where(ms > 0, np.sqrt(2.0), 1.0)[:, None, None]
        radial = np.concatenate([P[:, ms, :], dP[:, ms, :]], axis=0).transpose(1, 0, 2) * scale
        azimuthal = np.concatenate([np.ones((1, self.n_phi)), np.cos(m[:, None] * phi),
                                    np.sin(m[:, None] * phi)])
        object.__setattr__(self, "_tables", read_only(mu, wmu, phi, order, ms, radial, azimuthal))

    # -- grid geometry ------------------------------------------------------

    @property
    def quad_weights(self) -> np.ndarray:
        """(n_theta, n_phi) weights integrating over the unit sphere."""
        wmu = self._tables[1]
        return np.broadcast_to(wmu[:, None] * (2.0 * np.pi / self.n_phi),
                               (self.n_theta, self.n_phi))

    def unit_vectors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(k, e_theta, e_phi) at grid nodes, each (n_theta, n_phi, 3) and
        read-only, built once per transform."""
        return self._frame

    @cached_property
    def _frame(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        mu, _, phi = self._tables[:3]
        st = np.sqrt(1.0 - mu**2)
        ct = mu
        cp, sp = np.cos(phi), np.sin(phi)
        k = np.stack([st[:, None] * cp[None, :], st[:, None] * sp[None, :],
                      np.broadcast_to(ct[:, None], (self.n_theta, self.n_phi))], axis=-1)
        e_t = np.stack([ct[:, None] * cp[None, :], ct[:, None] * sp[None, :],
                        np.broadcast_to(-st[:, None], (self.n_theta, self.n_phi))], axis=-1)
        e_p = np.stack([np.broadcast_to(-sp[None, :], (self.n_theta, self.n_phi)),
                        np.broadcast_to(cp[None, :], (self.n_theta, self.n_phi)),
                        np.zeros((self.n_theta, self.n_phi))], axis=-1)
        return read_only(k, e_t, e_p)

    # -- transforms ---------------------------------------------------------
    #
    # Every transform takes leading batch axes. Each matrix-vector product is
    # the stacked matmul (A @ x[..., None])[..., 0], one gemv per batch item,
    # and each contraction X @ A one matmul per item, so a batch gives the
    # same bits as its items one at a time (x @ A.T on a 2-D x or an einsum
    # would run one gemm over the batch and move the roundoff).

    def analyze(self, values: np.ndarray) -> np.ndarray:
        """Forward transform of (..., n_theta, n_phi) samples to [..., l, m+lmax]."""
        _, wmu, _, order, _, radial, azimuthal = self._tables
        wphi = 2.0 * np.pi / self.n_phi
        fw = values * wmu[:, None]
        # the azimuthal projections, one column per row j of the tables
        rows = np.concatenate([(fw.sum(axis=-1) * wphi)[..., None],
                               fw @ azimuthal[1:].T * wphi], axis=-1)
        coeffs = np.empty(values.shape[:-2] + (self.lmax + 1, 2 * self.lmax + 1))
        proj = np.swapaxes(radial[:, :self.n_theta], -1, -2)
        coeffs[..., order] = np.swapaxes(_gemv(proj, np.swapaxes(rows, -1, -2)), -1, -2)
        return coeffs

    def _radial(self, coeffs: np.ndarray, n_rows: int) -> np.ndarray:
        """The first n_rows of the stacked (P, dP/dtheta) table times each
        azimuthal order's coefficients, [..., j, :n_rows]: n_theta rows give
        the P factors, 2 n_theta also the dP ones in [..., j, n_theta:]."""
        order, _, radial, _ = self._tables[3:]
        return _gemv(radial[:, :n_rows], np.swapaxes(coeffs[..., order], -1, -2))

    def _azimuthal_sum(self, rows: np.ndarray) -> np.ndarray:
        """sum_j rows[..., j, t] (1, cos(m ph), sin(m ph))_j: one contraction
        of (..., J, T) rows against the stacked azimuthal table, giving
        (..., T, n_phi)."""
        return np.swapaxes(rows, -1, -2) @ self._tables[6]

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """Inverse transform of [..., l, m+lmax] to (..., n_theta, n_phi) samples."""
        return self._azimuthal_sum(self._radial(coeffs, self.n_theta))

    def surface_gradient(self, coeffs: np.ndarray) -> np.ndarray:
        """Tangential gradient of the synthesized field at the grid nodes,
        returned as (..., n_theta, n_phi, 3) Cartesian vectors.

        The theta component sums the dP rows; the phi component is
        (1/sin th) d/dph, which maps a cos(m ph) row to -m sin(m ph) and a
        sin(m ph) row to m cos(m ph). Both run in one contraction."""
        mu, ms = self._tables[0], self._tables[4]
        lmax, n_theta = self.lmax, self.n_theta
        rad = self._radial(coeffs, 2 * n_theta)
        p_rows = rad[..., :n_theta] * (ms[:, None] / np.sqrt(1.0 - mu**2))
        d_phi = np.concatenate([np.zeros_like(p_rows[..., :1, :]), p_rows[..., lmax + 1:, :],
                                -p_rows[..., 1:lmax + 1, :]], axis=-2)
        g = self._azimuthal_sum(np.concatenate([rad[..., n_theta:], d_phi], axis=-1))
        _, e_t, e_p = self.unit_vectors()
        return g[..., :n_theta, :, None] * e_t + g[..., n_theta:, :, None] * e_p
