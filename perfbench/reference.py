"""Reference values computed apart from grazing_lab (numpy and scipy only).

Every function here is derived by hand from the formulas the workbench
implements, so the benchmark can check the program's reports against numbers
it did not produce. Nothing in this module imports `grazing_lab`.

Conventions shared with the program: the rescaled angular kernel is
beta_eps(theta) = C theta^(-1-nu) on (0, eps/2), normalized so that the
momentum transfer int theta^2 beta_eps d(theta) equals 8/pi. All angular
integrals substitute theta = (eps/2) s and integrate s^(1-nu) h(s) against
scipy's algebraic weight, with h smooth and computed without cancellation,
because plain `quad` on theta loses digits once eps is ~1e-3.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate

TRANSFER = 8.0 / math.pi

_QUAD = dict(epsabs=0.0, epsrel=1e-13, limit=200)


def _alg_quad(h, nu: float, points=None) -> float:
    """int_0^1 s^(1-nu) h(s) ds, split at `points` (each piece on its own
    algebraic weight only at s = 0)."""
    edges = [0.0] + sorted(p for p in (points or []) if 0.0 < p < 1.0) + [1.0]
    total = 0.0
    for k, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        if k == 0:
            # weight (s - lo)^(1-nu) with lo = 0
            val, _ = integrate.quad(h, lo, hi, weight="alg", wvar=(1.0 - nu, 0.0), **_QUAD)
        else:
            val, _ = integrate.quad(lambda s: s ** (1.0 - nu) * h(s), lo, hi, **_QUAD)
        total += val
    return total


def _one_minus_sinc2(x: float) -> float:
    """1 - (sin x / x)^2 without cancellation at small x."""
    if abs(x) < 1e-2:
        x2 = x * x
        # series of 1 - sinc^2: x^2/3 - 2x^4/45 + x^6/315 - 2x^8/14175
        return x2 * (1.0 / 3.0 - x2 * (2.0 / 45.0 - x2 * (1.0 / 315.0 - x2 * 2.0 / 14175.0)))
    s = math.sin(x) / x
    return 1.0 - s * s


def one_minus_r(eps: float, nu: float = 0.5) -> float:
    """1 - R(eps), with R(eps) = int theta^(-1-nu) sin^2(theta) / int theta^(1-nu)
    over (0, eps/2): the share of the momentum transfer that the sin^2 moment
    misses. Tends to 0 like eps^2 (2-nu) / (12 (4-nu))."""
    a = 0.5 * float(eps)
    # int_0^1 s^(1-nu) ds = 1/(2-nu)
    return (2.0 - nu) * _alg_quad(lambda s: _one_minus_sinc2(a * s), nu)


def r_eps(eps: float, nu: float = 0.5) -> float:
    return 1.0 - one_minus_r(eps, nu)


def mixture_covariance(components) -> np.ndarray:
    """Diagonal of the total covariance of a Gaussian mixture given as
    (weight, mean, covariance-diagonal) triples."""
    w = np.array([float(c[0]) for c in components])
    mu = np.array([np.asarray(c[1], dtype=float) for c in components])
    d = np.array([np.asarray(c[2], dtype=float) for c in components])
    mean = (w[:, None] * mu).sum(axis=0)
    return (w[:, None] * (d + (mu - mean) ** 2)).sum(axis=0)


def energy(components) -> float:
    """int |v|^2 f for a Gaussian mixture."""
    return float(sum(float(c[0]) * (np.sum(np.square(c[1])) + np.sum(c[2]))
                     for c in components))


def boltzmann_quadratic_moment(components, axis: int, eps: float, nu: float = 0.5) -> float:
    """<Q_B_eps(f, f), v_axis^2> at gamma = 0: 4 R(eps) (sum Var - 3 Var_axis).

    For a quadratic observable the sigma-average of the collision difference
    is |x|^2 sin^2(theta) (tr Q / 2 - 3/2 k.Qk), and u = v - v* has
    covariance twice that of f, for any mixture.
    """
    var = mixture_covariance(components)
    return 4.0 * r_eps(eps, nu) * (float(var.sum()) - 3.0 * float(var[axis]))


def landau_quadratic_moment(components, axis: int) -> float:
    """<Q_L(f, f), v_axis^2> at gamma = 0: 4 (sum Var - 3 Var_axis), the
    eps -> 0 limit of `boltzmann_quadratic_moment`."""
    var = mixture_covariance(components)
    return 4.0 * (float(var.sum()) - 3.0 * float(var[axis]))


def landau_dissipation_gaussian(cov_diag) -> float:
    """D_L for one Gaussian N(m, Sigma) at gamma = 0, exact by Isserlis.

    With A = Sigma^-1 and u ~ N(0, C), C = 2 Sigma:
    D_L = 1/2 (E[|u|^2 u.A^2 u] - E[(u.A u)^2])
        = 1/2 (tr C tr(A^2 C) + 2 tr(A^2 C^2) - tr(AC)^2 - 2 tr(ACAC)).
    """
    s = np.asarray(cov_diag, dtype=float)
    a = 1.0 / s
    c = 2.0 * s
    first = c.sum() * (a * a * c).sum() + 2.0 * (a * a * c * c).sum()
    second = (a * c).sum() ** 2 + 2.0 * (a * c * a * c).sum()
    return float(0.5 * (first - second))


def _pow_cos_minus_one(theta: float, n: float) -> float:
    """cos(theta/2)^(-n) - 1, exact to rounding at small theta:
    log cos(t) = log1p(-2 sin^2(t/2))."""
    log_c = math.log1p(-2.0 * math.sin(0.25 * theta) ** 2)
    return math.expm1(-n * log_c)


def cancellation_s(z: float, eps: float, gamma: float, nu: float = 0.5) -> float:
    """The cancellation lemma's S(z) for the kinetic-cutoff kernel:

        S(z) = 2 pi int [cos^-3(theta/2) k(|z|/cos(theta/2)) - k(|z|)] beta_eps d(theta),

    k(r) = max(r, 1)^gamma. For |z| >= 1 this is |z|^gamma times the
    cos^(-3-gamma) integral; for |z| < 1 the bracket switches form where
    cos(theta/2) = |z|. Tends to 2(3 + gamma)|z|^gamma (|z| >= 1) as eps -> 0.
    """
    z = abs(float(z))
    a = 0.5 * float(eps)
    kz = max(z, 1.0) ** gamma

    def bracket_over_theta2(s: float) -> float:
        th = max(a * s, 1e-100)  # g/theta^2 has a finite limit at 0
        c_half = math.cos(0.5 * th)
        if z >= 1.0:
            g = kz * _pow_cos_minus_one(th, 3.0 + gamma)
        elif z <= c_half:
            g = _pow_cos_minus_one(th, 3.0)
        else:
            g = c_half ** -3.0 * (z / c_half) ** gamma - 1.0
        return g / (th * th)

    # the bracket changes form where cos(theta/2) = |z| (only for |z| < 1)
    points = []
    if z < 1.0 and 2.0 * math.acos(z) < a:
        points.append(2.0 * math.acos(z) / a)
    # 2 pi C int theta^(-1-nu) g = 2 pi (8/pi)(2-nu) int s^(1-nu) g/theta^2 ds
    return 2.0 * math.pi * TRANSFER * (2.0 - nu) * _alg_quad(bracket_over_theta2, nu, points)


def characteristic_function(components, xi) -> complex:
    """F[f](xi) = int f(v) exp(-i v.xi) dv for a Gaussian mixture."""
    xi = np.asarray(xi, dtype=float)
    out = 0.0 + 0.0j
    for c in components:
        mu = np.asarray(c[1], dtype=float)
        d = np.asarray(c[2], dtype=float)
        out += float(c[0]) * np.exp(-1j * float(xi @ mu) - 0.5 * float(np.sum(xi**2 * d)))
    return complex(out)


def positivity_floor(components, xi_norms) -> float:
    """min over |xi| of (1 - |F[f](xi)|) / min(|xi|^2, 1), xi along (1,1,1)/sqrt 3."""
    vals = []
    for xn in xi_norms:
        xi = np.full(3, float(xn) / math.sqrt(3.0))
        gap = 1.0 - abs(characteristic_function(components, xi))
        vals.append(gap / min(float(xn) ** 2, 1.0))
    return float(min(vals))


def truncation_constant(components) -> float:
    """150 pi (int int (|v|^2 + |v*|^2) f f*) (momentum transfer)
    = 150 pi * 2 E * 8/pi for a probability density with energy E."""
    return 150.0 * math.pi * 2.0 * energy(components) * TRANSFER
