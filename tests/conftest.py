import numpy as np
import pytest

from grazing_lab import functions as fn
from grazing_lab import kernels as kn
from grazing_lab import operators as op
from grazing_lab.quadrature import QuadratureSpec


@pytest.fixture(scope="session")
def light_spec():
    """Cheap spec for inequality/identity checks that hold at any resolution."""
    return QuadratureSpec(pair_nodes=6, theta_panels=1,
                          theta_nodes_per_panel=8, sphere_phi_nodes=6)


@pytest.fixture(scope="session")
def work_spec():
    """Moderate spec for value-accuracy checks."""
    return QuadratureSpec(pair_nodes=8, theta_panels=2,
                          theta_nodes_per_panel=8, sphere_phi_nodes=8)


@pytest.fixture(scope="session")
def maxwellian():
    return fn.maxwellian()


@pytest.fixture(scope="session")
def aniso():
    """The anisotropic Gaussian used as the workhorse non-equilibrium density."""
    return fn.gaussian_mixture([(1.0, [0.0, 0.0, 0.0], [1.0, 1.0, 4.0])])


@pytest.fixture(scope="session")
def mixture():
    return fn.gaussian_mixture([(0.5, [2.0, 0.0, 0.0], [1.0, 1.0, 1.0]),
                                (0.5, [-2.0, 0.0, 0.0], [1.0, 1.0, 1.0])])


@pytest.fixture(scope="session")
def kernel_light(light_spec):
    return kn.build_kernel(gamma=0.0, nu=0.5, epsilon=0.5, spec=light_spec)


@pytest.fixture(scope="session")
def kernel_work(work_spec):
    return kn.build_kernel(gamma=0.0, nu=0.5, epsilon=0.5, spec=work_spec)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def sigma_at():
    """sigma_at(v, v_star, theta, phi) -> (sigma, k, p) for one pair: the
    deflection sigma = cos(theta) k + sin(theta) p about the axis
    k = (v - v*)/|v - v*|, with p = cos(phi) h + sin(phi) i in
    operators.orthonormal_frame's (h, i). phi may be an array of azimuths."""
    def build(v, v_star, theta, phi):
        u = np.asarray(v, dtype=float) - np.asarray(v_star, dtype=float)
        k = u / np.sqrt(np.sum(u**2))
        h, i = op.orthonormal_frame(k[None])
        p = np.cos(phi)[..., None] * h[0] + np.sin(phi)[..., None] * i[0]
        return np.cos(theta) * k + np.sin(theta) * p, k, p

    return build
