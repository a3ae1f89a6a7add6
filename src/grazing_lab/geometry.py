"""Elastic binary-collision geometry.

Post-collision velocity maps, the spherical (theta, phi) parametrization of
the deflection direction sigma about the relative-velocity axis k, the
orthogonal projector onto ``{z}^perp``, and the exact circle average of
``p (x) p`` over the unit circle orthogonal to an axis.

All functions are pure and accept either single vectors of shape ``(3,)`` or
batches of shape ``(..., 3)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

UNIT_TOL = 1e-12
RENORM_TOL = 1e-9

_EYE3 = np.eye(3)


class GeometryError(ValueError):
    pass


def norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norm along the last axis."""
    return np.sqrt(np.sum(np.asarray(v, dtype=float) ** 2, axis=-1))


def require_unit(v: np.ndarray, name: str = "vector") -> np.ndarray:
    """Validate that ``v`` has unit length along the last axis.

    Accepts deviations up to ``UNIT_TOL`` as-is, renormalizes deviations up
    to ``RENORM_TOL`` (roundoff accumulation in long sweeps), and rejects
    anything worse.
    """
    v = np.asarray(v, dtype=float)
    n = norm(v)
    err = np.abs(n - 1.0)
    if np.all(err <= UNIT_TOL):
        return v
    if np.all(err <= RENORM_TOL):
        return v / n[..., None]
    raise GeometryError(f"{name} is not a unit vector: |v| deviates by {float(np.max(err)):.3e}")


def post_collision(v: np.ndarray, v_star: np.ndarray, sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map pre-collision velocities (v, v*) and direction sigma to (v', v*').

    v'  = (v + v*)/2 + (|v - v*|/2) sigma
    v*' = (v + v*)/2 - (|v - v*|/2) sigma

    Momentum and kinetic energy are conserved up to roundoff.
    """
    v = np.asarray(v, dtype=float)
    v_star = np.asarray(v_star, dtype=float)
    sigma = require_unit(sigma, "sigma")
    rel = norm(v - v_star)
    if np.any(rel == 0.0):
        raise GeometryError("zero relative velocity: v = v_star has no collision geometry")
    mid = 0.5 * (v + v_star)
    half = 0.5 * rel[..., None] * sigma
    return mid + half, mid - half


def orthonormal_frame(k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic orthonormal pair (h, i) spanning ``{k}^perp``.

    Picks the standard basis vector least aligned with k, Gram-Schmidts it
    into h, and sets i = k x h. The rule is deterministic so that any
    phi-parametrized quadrature is reproducible.
    """
    k = require_unit(k, "k")
    k2 = np.atleast_2d(k)
    idx = np.argmin(np.abs(k2), axis=-1)
    e = _EYE3[idx]
    h = e - np.sum(e * k2, axis=-1, keepdims=True) * k2
    h = h / norm(h)[..., None]
    i = np.cross(k2, h)
    if k.ndim == 1:
        return h[0], i[0]
    return h.reshape(k.shape), i.reshape(k.shape)


def sigma_from_angles(k: np.ndarray, theta: float | np.ndarray, phi: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Build sigma = cos(theta) k + sin(theta) p with p = cos(phi) h + sin(phi) i.

    Returns (sigma, p). theta is the polar angle off the axis k, restricted
    to [0, pi/2]; phi is the azimuth within ``{k}^perp`` measured in the
    deterministic frame of :func:`orthonormal_frame`.
    """
    theta = np.asarray(theta, dtype=float)
    if np.any(theta < -UNIT_TOL) or np.any(theta > np.pi / 2 + 1e-9):
        raise GeometryError("theta out of [0, pi/2]")
    phi = np.asarray(phi, dtype=float)
    h, i = orthonormal_frame(k)
    p = np.cos(phi)[..., None] * h + np.sin(phi)[..., None] * i
    sigma = np.cos(theta)[..., None] * np.asarray(k, dtype=float) + np.sin(theta)[..., None] * p
    return sigma, p


def projector(z: np.ndarray) -> np.ndarray:
    """Orthogonal projector Pi[z] = I - (z (x) z)/|z|^2 onto ``{z}^perp``.

    Symmetric, idempotent, trace 2, and Pi[z] z = 0.
    """
    z = np.asarray(z, dtype=float)
    n2 = np.sum(z**2, axis=-1)
    if np.any(n2 == 0.0):
        raise GeometryError("undefined projector: zero axis")
    outer = z[..., :, None] * z[..., None, :]
    return _EYE3 - outer / n2[..., None, None]


def circle_average_pp(k: np.ndarray, n_nodes: int) -> np.ndarray:
    """Uniform-node quadrature of the circle integral of p (x) p over ``S^1_{k^perp}``.

    The integrand is a degree-2 trigonometric polynomial in the azimuth, so
    any uniform rule with >= 4 nodes is exact; the result equals pi*Pi[k].
    """
    if n_nodes < 4:
        raise GeometryError("insufficient nodes for exactness: need n_nodes >= 4")
    k = require_unit(k, "k")
    phi = 2.0 * np.pi * np.arange(n_nodes) / n_nodes
    h, i = orthonormal_frame(k)
    p = np.cos(phi)[:, None] * h + np.sin(phi)[:, None] * i
    return (2.0 * np.pi / n_nodes) * np.einsum("ai,aj->ij", p, p)


@dataclass(frozen=True)
class CollisionConfiguration:
    """One collision event: velocities, angles, and the local frame.

    x = (v - v*)/2 and y = (v + v*)/2 are the relative/mean coordinates in
    which the post-collision map reads x' = |x| sigma, y' = y.
    """

    v: np.ndarray
    v_star: np.ndarray
    sigma: np.ndarray
    k: np.ndarray
    theta: float
    phi: float
    p: np.ndarray
    v_post: np.ndarray
    v_star_post: np.ndarray
    x: np.ndarray
    y: np.ndarray

    @classmethod
    def from_angles(cls, v: np.ndarray, v_star: np.ndarray, theta: float, phi: float) -> "CollisionConfiguration":
        v = np.asarray(v, dtype=float)
        v_star = np.asarray(v_star, dtype=float)
        u = v - v_star
        r = norm(u)
        if r == 0.0:
            raise GeometryError("zero relative velocity")
        k = u / r
        sigma, p = sigma_from_angles(k, theta, phi)
        vp, vsp = post_collision(v, v_star, sigma)
        return cls(v=v, v_star=v_star, sigma=sigma, k=k, theta=float(theta),
                   phi=float(np.mod(phi, 2.0 * np.pi)), p=p, v_post=vp, v_star_post=vsp,
                   x=0.5 * u, y=0.5 * (v + v_star))

    @classmethod
    def from_sigma(cls, v: np.ndarray, v_star: np.ndarray, sigma: np.ndarray) -> "CollisionConfiguration":
        v = np.asarray(v, dtype=float)
        v_star = np.asarray(v_star, dtype=float)
        sigma = require_unit(sigma, "sigma")
        u = v - v_star
        r = norm(u)
        if r == 0.0:
            raise GeometryError("zero relative velocity")
        k = u / r
        c = float(np.clip(np.dot(k, sigma), -1.0, 1.0))
        theta = float(np.arccos(c))
        h, i = orthonormal_frame(k)
        s = np.sqrt(max(1.0 - c * c, 0.0))
        if s > 1e-14:
            p = (sigma - c * k) / s
        else:
            p = h
        phi = float(np.mod(np.arctan2(np.dot(p, i), np.dot(p, h)), 2.0 * np.pi))
        vp, vsp = post_collision(v, v_star, sigma)
        return cls(v=v, v_star=v_star, sigma=sigma, k=k, theta=theta, phi=phi, p=p,
                   v_post=vp, v_star_post=vsp, x=0.5 * u, y=0.5 * (v + v_star))
