"""Tests of the independent reference values (run: python3 -m pytest perfbench)."""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference as ref  # noqa: E402

ANISO = [[1.0, [0.0, 0.0, 0.0], [1.0, 1.0, 4.0]]]
MIXTURE = [[0.5, [2.0, 0.0, 0.0], [1.0, 1.0, 1.0]],
           [0.5, [-2.0, 0.0, 0.0], [1.0, 1.0, 1.0]]]


@pytest.mark.parametrize("nu", [0.5, 1.0, 1.5])
def test_r_tends_to_one_like_eps_squared(nu):
    c = (2.0 - nu) / (12.0 * (4.0 - nu))
    for eps in (1e-2, 1e-3, 1e-4):
        assert ref.one_minus_r(eps, nu) / eps**2 == pytest.approx(c, rel=10 * eps**2)
    assert ref.r_eps(1e-5, nu) < 1.0


def test_r_matches_plain_quadrature_at_moderate_eps():
    from scipy import integrate

    for eps in (1.0, 0.5, 0.25):
        a = eps / 2.0
        num, _ = integrate.quad(lambda t: t**-1.5 * math.sin(t) ** 2, 0.0, a, epsrel=1e-13)
        den = a**1.5 / 1.5
        assert ref.r_eps(eps) == pytest.approx(num / den, rel=1e-11)


def test_boltzmann_moment_of_the_anisotropic_gaussian():
    # -24 R(1/2), the value the direct sweep reproduces to ~3e-7
    assert ref.boltzmann_quadratic_moment(ANISO, 2, 0.5) == pytest.approx(-23.786846937, abs=1e-8)
    assert ref.landau_quadratic_moment(ANISO, 2) == -24.0


def test_isserlis_values():
    assert ref.landau_dissipation_gaussian([1.0, 1.0, 4.0]) == pytest.approx(9.0, rel=1e-15)
    # D_L vanishes at equilibrium
    assert ref.landau_dissipation_gaussian([2.0, 2.0, 2.0]) == pytest.approx(0.0, abs=1e-12)
    assert ref.landau_quadratic_moment(MIXTURE, 2) == pytest.approx(16.0)


@pytest.mark.parametrize("z", [0.25, 1.0, 4.0])
def test_cancellation_s_limit_at_gamma_zero(z):
    for eps in (1e-2, 1e-3):
        assert ref.cancellation_s(z, eps, 0.0) == pytest.approx(6.0, rel=10 * eps**2)


def test_cancellation_s_soft_potential():
    # kinetic factor at |z|/cos(theta/2): cos^(-3-gamma), so 2 (3 + gamma) |z|^gamma
    assert ref.cancellation_s(1.0, 1e-3, -1.0) == pytest.approx(4.0, rel=1e-6)
    assert ref.cancellation_s(4.0, 1e-3, -1.0) == pytest.approx(1.0, rel=1e-6)
    # below |z| = 1 the kinetic factor is 1 on the whole support
    assert ref.cancellation_s(0.5, 1e-3, -1.0) == pytest.approx(6.0, rel=1e-6)


def test_cancellation_s_matches_plain_quadrature():
    from scipy import integrate

    eps, gamma, z = 1.0, -1.0, 0.99
    a = eps / 2.0
    c = ref.TRANSFER * 1.5 / a**1.5  # beta_eps = c theta^-1.5 on (0, a)

    def k(r):
        return max(r, 1.0) ** gamma

    def g(t):
        ch = math.cos(0.5 * t)
        return (ch**-3 * k(z / ch) - k(z)) * c * t**-1.5

    brk = 2.0 * math.acos(z)
    val = sum(integrate.quad(g, lo, hi, epsrel=1e-12)[0] for lo, hi in ((0.0, brk), (brk, a)))
    assert ref.cancellation_s(z, eps, gamma) == pytest.approx(2.0 * math.pi * val, rel=1e-8)


def test_transfer_and_closed_forms():
    assert ref.TRANSFER == 8.0 / math.pi
    assert ref.truncation_constant(MIXTURE) == pytest.approx(150.0 * 14.0 * 8.0)
    # |F[f]| of the mixture is exp(-|xi|^2/2) |cos(2 xi_1)|
    xi = [0.3, 0.3, 0.3]
    want = math.exp(-0.5 * 0.27) * abs(math.cos(0.6))
    assert abs(ref.characteristic_function(MIXTURE, xi)) == pytest.approx(want, rel=1e-14)
