"""Deterministic quadrature over velocity pairs in R^6 and the deflection angle.

Pair integrals use a Gauss-Hermite tensor rule referenced to a Gaussian
frame (center, per-axis scale). All reductions go through a fixed-shape
pairwise tree so results are bit-identical across runs regardless of how node
evaluations are scheduled.

Error estimates are refinement differences (one extra level), not rigorous
bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache, reduce
from operator import add
from typing import Any, Callable

import numpy as np


class QuadratureError(RuntimeError):
    pass


@dataclass(frozen=True)
class QuadratureSpec:
    """Node counts for every integration domain; the five fields of a
    config's `quadrature` section.

    pair_nodes: per-axis Gauss-Hermite count for R^6 tensor integrals over
        pairs (v, v*); cost grows as the sixth power.
    sphere_phi_nodes: the azimuthal count used by the collision-operator
        sweeps.
    theta_panels / theta_nodes_per_panel: composite Gauss-Legendre rule in
        the substituted angular variable t = chi^(2-nu) that absorbs the
        kernel's endpoint singularity.
    seed: seed for randomized spot checks only; deterministic rules ignore it.
    """

    pair_nodes: int = 10
    sphere_phi_nodes: int = 8
    theta_panels: int = 4
    theta_nodes_per_panel: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("pair_nodes", "sphere_phi_nodes"):
            if getattr(self, name) < 4:
                raise ValueError(f"{name} must be >= 4")
        if self.theta_panels < 1 or self.theta_nodes_per_panel < 4:
            raise ValueError("angular rule needs >= 1 panel and >= 4 nodes per panel")

    def refined(self) -> "QuadratureSpec":
        """One refinement level up, used for error estimates on cheap rules."""
        return replace(
            self,
            pair_nodes=self.pair_nodes + 1,
            sphere_phi_nodes=self.sphere_phi_nodes + 2,
            theta_nodes_per_panel=self.theta_nodes_per_panel + 2,
        )

    def coarsened(self) -> "QuadratureSpec":
        """One refinement level down, the inverse of refined() (node counts
        floored at 4).

        Expensive R^6 x S^2 reductions report the value at the configured
        level and estimate the error against this cheaper level, so the
        estimate costs a fraction of the value instead of a multiple.
        """
        return replace(
            self,
            pair_nodes=max(4, self.pair_nodes - 1),
            sphere_phi_nodes=max(4, self.sphere_phi_nodes - 2),
            theta_nodes_per_panel=max(4, self.theta_nodes_per_panel - 2),
        )


@dataclass(frozen=True)
class IntegralResult:
    """Quadrature value with a refinement-difference error estimate."""

    value: float
    error_estimate: float

    def __post_init__(self) -> None:
        if self.error_estimate < 0:
            raise ValueError("error_estimate must be nonnegative")


def _paired(fine: Any, coarse: Any) -> Any:
    if isinstance(fine, dict):
        return {name: _paired(val, coarse[name]) for name, val in fine.items()}
    if isinstance(fine, list):
        return [_paired(val, c) for val, c in zip(fine, coarse)]
    return IntegralResult(value=fine, error_estimate=abs(fine - coarse))


def coarse_fine(level: Callable[[QuadratureSpec], Any], spec: QuadratureSpec) -> Any:
    """IntegralResult(value, |value - coarse|) from level(spec) and
    level(spec.coarsened()).

    level returns a value, or a dict or list of values (nested: a batched
    sweep gives a list with a dict per eps) that all come from the same
    sweeps; each value then gets its own result, in the same shape.
    """
    coarse = level(spec.coarsened())
    return _paired(level(spec), coarse)


def error_tolerance(*estimates: float) -> float:
    """The gap every verdict allows: 10 times the sum of the coarse/fine
    error estimates it rests on, added left to right."""
    return 10.0 * reduce(add, estimates)


def pairwise_sum(values: np.ndarray) -> float:
    """Fixed-shape binary-tree reduction.

    The array is zero-padded to a power of two and folded in halves, so the
    summation tree depends only on the length, never on chunking or
    scheduling; identical inputs give bit-identical sums.
    """
    a = np.asarray(values, dtype=float).ravel()
    if a.size == 0:
        return 0.0
    n = 1 << (int(a.size) - 1).bit_length()
    if n != a.size:
        a = np.concatenate([a, np.zeros(n - a.size)])
    while a.size > 1:
        half = a.size // 2
        a = a[:half] + a[half:]
    return float(a[0])


def _check_finite(values: np.ndarray, points: np.ndarray, what: str) -> None:
    bad = ~np.isfinite(values)
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise QuadratureError(
            f"non-finite {what} evaluation at node {np.asarray(points).reshape(-1, points.shape[-1])[idx]}"
        )


def read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only: every caller shares a cached node table."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=64)
def _axis_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """1D Gauss-Hermite nodes/weights for integrating dt against unit scale
    and center 0."""
    t, w = np.polynomial.hermite.hermgauss(n)
    # absorb the e^{-t^2} weight so that sum w_i g(t_i) ~ int g(t) dt
    return read_only(np.sqrt(2.0) * t, np.sqrt(2.0) * w * np.exp(t**2))


@lru_cache(maxsize=32)
def _r3_grid(n: int, center: tuple[float, float, float],
             scale: tuple[float, float, float]) -> tuple[np.ndarray, np.ndarray]:
    axes = []
    weights = []
    for c, s in zip(center, scale):
        t, w = _axis_rule(n)
        axes.append(c + s * t)
        weights.append(s * w)
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    wgt = (weights[0][:, None, None] * weights[1][None, :, None] * weights[2][None, None, :]).reshape(-1)
    return read_only(pts, wgt)


def r3_nodes(n: int, center: tuple[float, float, float] = (0.0, 0.0, 0.0),
             scale: tuple[float, float, float] = (1.0, 1.0, 1.0)) -> tuple[np.ndarray, np.ndarray]:
    """Tensor nodes/weights on R^3, n per axis, in the Gaussian frame (center, scale)."""
    return _r3_grid(n, tuple(float(c) for c in center), tuple(float(s) for s in scale))


def sum_r6(g: Callable[[np.ndarray, np.ndarray], np.ndarray], spec: QuadratureSpec,
           center: tuple[float, float, float] = (0.0, 0.0, 0.0),
           scale: tuple[float, float, float] = (1.0, 1.0, 1.0)) -> float:
    """One level of integrate_r6: the full tensor sum over pairs (v, v*) at
    spec.pair_nodes."""
    pts, wgt = r3_nodes(spec.pair_nodes, center, scale)
    m = pts.shape[0]
    v, v_star = np.repeat(pts, m, axis=0), np.tile(pts, (m, 1))
    vals = np.asarray(g(v, v_star), dtype=float)
    _check_finite(vals, v, "integrand")
    return pairwise_sum((wgt[:, None] * wgt[None, :]).reshape(-1) * vals)


def integrate_r6(g: Callable[[np.ndarray, np.ndarray], np.ndarray], spec: QuadratureSpec,
                 center: tuple[float, float, float] = (0.0, 0.0, 0.0),
                 scale: tuple[float, float, float] = (1.0, 1.0, 1.0)) -> IntegralResult:
    """Integrate g over R^6 = (v, v*) pairs. g maps (N,3),(N,3) -> (N,). The
    value is taken at spec.refined(), the error against spec."""
    return coarse_fine(lambda s: sum_r6(g, s, center, scale), spec.refined())
