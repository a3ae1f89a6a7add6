import numpy as np
import pytest
from numpy.testing import assert_allclose

from grazing_lab import kernels as kn
from grazing_lab.quadrature import QuadratureSpec, pairwise_sum

SPEC = QuadratureSpec()


def test_beta_eps_support():
    prof = kn.normalize(kn.AngularProfile(0.5), SPEC)
    ker = kn.ScaledKernel(prof, 0.5)
    theta = np.linspace(0.25 * 1.0000001, np.pi / 2, 400)
    assert np.all(kn.beta_eps(ker, theta) == 0.0)
    inside = np.linspace(1e-4, 0.2499, 400)
    assert np.all(kn.beta_eps(ker, inside) > 0.0)


def test_angular_nodes_one_minus_cos_ratio():
    # theta = eps chi/pi, so the nodes give sum w (1 - cos theta) =
    # (pi^2/eps^2) sum w_chi (1 - cos(eps chi/pi)) -> (1/2) sum w_chi chi^2
    # as eps drops
    prof = kn.normalize(kn.AngularProfile(0.5), SPEC)
    chi, w = kn.base_angular_nodes(prof, SPEC)
    half_chi2_moment = 0.5 * pairwise_sum(w * chi**2)
    ratios = []
    for eps in (0.5, 0.1, 0.02):
        theta, wt = kn.angular_nodes(kn.ScaledKernel(prof, eps), SPEC)
        ratios.append(pairwise_sum(wt * (1.0 - np.cos(theta))) / half_chi2_moment)
    assert abs(ratios[-1] - 1.0) < 1e-4
    assert abs(ratios[0] - 1.0) > abs(ratios[-1] - 1.0)


def test_beta_eps_raw_value():
    # raw Maxwellian-row shape, eps = pi/2, theta = pi/8:
    # (pi^3/eps^3) * (pi*theta/eps)^(-3/2) = 8 * (pi/4)^(-3/2)
    prof = kn.AngularProfile(0.5)
    ker = kn.ScaledKernel(prof, np.pi / 2)
    got = float(kn.beta_eps(ker, np.asarray(np.pi / 8)))
    assert_allclose(got, 8.0 * (np.pi / 4.0) ** -1.5, rtol=1e-14)


def test_beta_eps_rejects_nonpositive_angle():
    prof = kn.normalize(kn.AngularProfile(0.5), SPEC)
    ker = kn.ScaledKernel(prof, 0.5)
    with pytest.raises(kn.KernelError, match="angle out of domain"):
        kn.beta_eps(ker, np.asarray(0.0))


def test_momentum_transfer_eps_invariance():
    prof = kn.normalize(kn.AngularProfile(0.5), SPEC)
    for eps in (1.0, 0.3, 0.1, 0.03, 0.01):
        t = kn.momentum_transfer(kn.ScaledKernel(prof, eps), SPEC)
        assert abs(t - 8.0 / np.pi) < 1e-9


def test_normalize_closed_form():
    prof = kn.normalize(kn.AngularProfile(0.5), SPEC)
    raw_transfer = (2.0 / 3.0) * (np.pi / 2.0) ** 1.5
    assert_allclose(prof.scale, (8.0 / np.pi) / raw_transfer, rtol=1e-12)


def test_kernels_from_one_config_share_angular_nodes():
    """A kernel is its numbers: two built from one config compare equal and
    hit one angular_nodes cache entry."""
    a = kn.build_kernel(gamma=0.0, nu=0.5, epsilon=0.3, spec=SPEC)
    b = kn.build_kernel(gamma=0.0, nu=0.5, epsilon=0.3, spec=SPEC)
    assert a == b and hash(a) == hash(b)
    kn.angular_nodes(a.angular, SPEC)
    misses = kn.angular_nodes.cache_info().misses
    kn.angular_nodes(b.angular, SPEC)
    assert kn.angular_nodes.cache_info().misses == misses


def test_normalize_idempotent():
    prof = kn.normalize(kn.AngularProfile(0.5), SPEC)
    again = kn.normalize(prof, SPEC)
    assert abs(again.scale - prof.scale) < 1e-10


def test_normalize_rejects_divergent():
    # at nu = 2 the transfer integral of theta^(-1-nu) diverges at 0
    with pytest.raises(kn.KernelError, match=r"\(0, 2\)") as exc:
        kn.AngularProfile(2.0)
    assert exc.value.field == "nu"


def test_singularity_lower_bound():
    prof = kn.normalize(kn.AngularProfile(0.5), SPEC)
    theta = np.logspace(-8, np.log10(np.pi / 2), 300)
    assert np.all(prof(theta) * theta**1.5 >= prof.c1 * (1 - 1e-12))


def test_kinetic_cutoff_ordering():
    spec = SPEC
    ker = kn.build_kernel(gamma=-2.0, nu=0.5, epsilon=0.5, kinetic_cutoff=True, spec=spec)
    bare = kn.build_kernel(gamma=-2.0, nu=0.5, epsilon=0.5, kinetic_cutoff=False, spec=spec)
    r = np.array([0.25, 0.5, 1.0, 2.0, 4.0])
    assert np.all(ker.kinetic_factor(r) <= bare.kinetic_factor(r) + 1e-15)
    assert_allclose(ker.kinetic_factor(np.array([0.5])), [1.0])


def test_build_kernel_validation():
    with pytest.raises(kn.KernelError, match="gamma"):
        kn.CollisionKernel(gamma=1.0, angular=kn.ScaledKernel(
            kn.normalize(kn.AngularProfile(0.5), SPEC), 0.5))
    with pytest.raises(kn.KernelError):
        kn.ScaledKernel(kn.AngularProfile(0.5), 0.0)
