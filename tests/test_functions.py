import numpy as np
import pytest
from numpy.testing import assert_allclose

from grazing_lab import functions as fn
from grazing_lab.dissipation import entropy
from grazing_lab.quadrature import QuadratureSpec


def test_maxwellian_moments(maxwellian):
    m = maxwellian.moments
    assert m.mass == 1.0
    assert_allclose(m.momentum, 0.0, atol=1e-15)
    assert_allclose(m.energy, 3.0)


def test_maxwellian_entropy(maxwellian):
    assert_allclose(entropy(maxwellian, QuadratureSpec()), -1.5 * np.log(2 * np.pi * np.e), atol=1e-9)


def test_scaled_entropy():
    for T in (0.5, 2.0):
        f = fn.maxwellian(temperature=T)
        assert_allclose(entropy(f, QuadratureSpec()), -1.5 * np.log(2 * np.pi * np.e * T), atol=1e-8)


def test_mixture_momentum_cancels(mixture):
    assert_allclose(mixture.moments.momentum, 0.0, atol=1e-15)
    assert np.isfinite(entropy(mixture, QuadratureSpec()))


def test_mixture_mass_by_quadrature(mixture):
    spec = QuadratureSpec()
    mass = fn.mixture_expectation(mixture, lambda v: np.ones(v.shape[:-1]), spec)
    assert abs(mass.value - 1.0) < 1e-10


def test_mixture_validation():
    with pytest.raises(fn.FunctionError):
        fn.gaussian_mixture([(1.0, [0, 0, 0], [1.0, -1.0, 1.0])])
    with pytest.raises(fn.FunctionError):
        fn.gaussian_mixture([(0.4, [0, 0, 0], [1, 1, 1])])
    with pytest.raises(fn.FunctionError):
        fn.gaussian_mixture([])


def test_density_derivatives(mixture, rng):
    v = rng.normal(size=(100, 3)) * 2.0
    h = 1e-5
    grad = mixture.gradient(v)
    glog = mixture.grad_log(v)
    val = mixture.value(v)
    for axis in range(3):
        dv = np.zeros(3)
        dv[axis] = h
        num = (mixture.value(v + dv) - mixture.value(v - dv)) / (2 * h)
        assert_allclose(grad[:, axis], num, rtol=1e-6, atol=1e-9)
    assert_allclose(glog, grad / val[:, None], rtol=1e-10)


def test_pair_value_consistency(aniso, rng):
    v = rng.normal(size=(50, 3))
    vs = rng.normal(size=(50, 3))
    assert_allclose(aniso.pair_value(v, vs), aniso.value(v) * aniso.value(vs), rtol=1e-13)


def _fd_gradient(valuefn, v, vs, h=1e-5):
    out = np.zeros(v.shape)
    for axis in range(3):
        dv = np.zeros(3)
        dv[axis] = h
        # derivative in x = (v - v*)/2 equals (grad - grad_*), i.e. moving v
        # by +h/2 and v* by -h/2 per unit x step
        out[:, axis] = (valuefn(v + dv, vs - dv) - valuefn(v - dv, vs + dv)) / (2 * h)
    return out


class TestBumpDS:
    delta, R = 0.5, 4.0

    @pytest.fixture(scope="class")
    def psi(self):
        return fn.bump_testfn("DS", {"delta": self.delta, "R": self.R},
                              modulation={"const": 0.5, "x_quad": np.diag([1.0, -0.5, 0.25])},
                              y_radius=5.0)

    def test_support_inner(self, psi, rng):
        y = rng.normal(size=(200, 3))
        x = rng.normal(size=(200, 3))
        x *= (0.5 * self.delta / 2) / np.linalg.norm(x, axis=1)[:, None]
        vals = psi.value(y + x, y - x)
        assert np.all(vals == 0.0)

    def test_support_outer(self, psi, rng):
        y = rng.normal(size=(200, 3))
        x = rng.normal(size=(200, 3))
        x *= (self.R / 2 * 1.01) / np.linalg.norm(x, axis=1)[:, None]
        assert np.all(psi.value(y + x, y - x) == 0.0)

    def test_symmetry(self, psi, rng):
        v = rng.normal(size=(1000, 3)) * 2
        vs = rng.normal(size=(1000, 3)) * 2
        assert_allclose(psi.value(v, vs), psi.value(vs, v), atol=1e-15)

    def test_gradient_fd(self, psi, rng):
        v = rng.normal(size=(100, 3))
        vs = rng.normal(size=(100, 3)) + np.array([1.5, 0, 0])
        num = _fd_gradient(psi.value, v, vs)
        ana = psi.grad_x(v, vs)
        assert_allclose(ana, num, rtol=1e-6, atol=1e-8)

    def test_hessian_fd(self, psi, rng):
        v = rng.normal(size=(60, 3))
        vs = rng.normal(size=(60, 3)) + np.array([1.5, 0, 0])
        h = 1e-5
        H = psi.hess_xx(v, vs)
        for axis in range(3):
            dv = np.zeros(3)
            dv[axis] = h
            num = (psi.grad_x(v + dv, vs - dv) - psi.grad_x(v - dv, vs + dv)) / (2 * h)
            assert_allclose(H[:, axis, :], num, rtol=1e-5, atol=1e-7)


class TestBumpAS:
    @pytest.fixture(scope="class")
    def V(self):
        A = np.array([[0.2, 1.0, -0.3], [0.5, -0.1, 0.0], [0.0, 0.7, 0.4]])
        return fn.bump_testfn("AS", {"delta": 0.5, "R": 4.0},
                              modulation={"matrix": A}, y_radius=5.0)

    def test_antisymmetry(self, V, rng):
        v = rng.normal(size=(1000, 3)) * 2
        vs = rng.normal(size=(1000, 3)) * 2
        assert_allclose(V.value(v, vs) + V.value(vs, v), 0.0, atol=1e-15)

    def test_inner_support(self, V, rng):
        y = rng.normal(size=(100, 3))
        x = rng.normal(size=(100, 3))
        x *= 0.1 / np.linalg.norm(x, axis=1)[:, None]
        assert np.all(V.value(y + x, y - x) == 0.0)

    def test_jacobian_fd(self, V, rng):
        v = rng.normal(size=(60, 3))
        vs = rng.normal(size=(60, 3)) + np.array([1.5, 0, 0])
        J = V.jac_x(v, vs)
        h = 1e-5
        for axis in range(3):
            dv = np.zeros(3)
            dv[axis] = h
            num = (V.value(v + dv, vs - dv) - V.value(v - dv, vs + dv)) / (2 * h)
            assert_allclose(J[:, axis, :], num, rtol=1e-6, atol=1e-8)


def test_bump_requires_ordered_support():
    with pytest.raises(fn.FunctionError):
        fn.bump_testfn("DS", {"delta": 2.0, "R": 1.0})


def test_quadratic_forms_must_be_symmetric(rng):
    """grad_x/gradient use 2 Q x, so a non-symmetric form is rejected by name;
    for the DS form below 2 Q x misses the central difference by ~8%."""
    Q = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -2.0]])
    with pytest.raises(fn.FunctionError, match="x_quad"):
        fn.bump_testfn("DS", {"delta": 0.4, "R": 5.0}, modulation={"x_quad": Q})
    with pytest.raises(fn.FunctionError, match="v_quad"):
        fn.bump_testfn("Cc_single", {"delta": 0.1, "R": 3.0}, modulation={"v_quad": Q})
    with pytest.raises(fn.FunctionError, match="quad"):
        fn.polynomial_testfn(quad=Q)
    with pytest.raises(fn.FunctionError, match="quad"):
        fn.gaussian_testfn(quad=Q)


def test_ds_value_is_envelope_times_form(rng):
    """psi = E (c0 + x^T Q x), with E unchanged when x turns on its sphere."""
    Q = np.array([[1.0, 0.2, 0.0], [0.2, -0.5, 0.1], [0.0, 0.1, 0.25]])
    psi = fn.bump_testfn("DS", {"delta": 0.5, "R": 4.0},
                         modulation={"const": 0.5, "x_quad": Q}, y_radius=5.0)
    v = rng.normal(size=(200, 3))
    vs = rng.normal(size=(200, 3)) + np.array([1.5, 0, 0])
    x, y = 0.5 * (v - vs), 0.5 * (v + vs)
    E = psi.envelope(v, vs)
    assert np.count_nonzero(E) > 100
    assert_allclose(psi.value(v, vs), E * (0.5 + np.einsum("ni,ij,nj->n", x, Q, x)),
                    rtol=1e-14, atol=1e-300)
    turn = rng.normal(size=(200, 3))
    xt = np.linalg.norm(x, axis=1)[:, None] * turn / np.linalg.norm(turn, axis=1)[:, None]
    assert_allclose(psi.envelope(y + xt, y - xt), E, rtol=1e-10, atol=1e-300)
    assert np.array_equal(psi.quad, Q)


def test_unknown_class_rejected():
    with pytest.raises(fn.FunctionError, match="unknown test-function class"):
        fn.bump_testfn("XX", {"delta": 0.5, "R": 2.0})


def test_single_gaussian_derivatives(rng):
    """The gradient and Hessian of each envelope-times-quadratic family
    (Gaussian, polynomial with b and Q, Cc_single bump) match central
    differences of its value and gradient."""
    Q = np.array([[1.0, 0.2, 0], [0.2, -0.5, 0], [0, 0, 0.3]])
    families = [
        fn.gaussian_testfn(const=0.7, linear=[0.2, -0.1, 0.4], quad=Q,
                           center=[0.1, 0.0, -0.2], width=2.5),
        fn.polynomial_testfn(const=0.7, linear=[0.2, -0.1, 0.4], quad=Q),
        fn.bump_testfn("Cc_single", {"delta": 0.1, "R": 3.0},
                       modulation={"const": 1.0, "v_quad": np.diag([0.5, 0, -0.2])}),
    ]
    v = rng.normal(size=(100, 3)) * 2
    h = 1e-5
    for psi in families:
        g = psi.gradient(v)
        H = psi.hessian(v)
        for axis in range(3):
            dv = np.zeros(3)
            dv[axis] = h
            num_g = (psi.value(v + dv) - psi.value(v - dv)) / (2 * h)
            assert_allclose(g[:, axis], num_g, rtol=1e-6, atol=1e-9)
            num_h = (psi.gradient(v + dv) - psi.gradient(v - dv)) / (2 * h)
            assert_allclose(H[:, axis, :], num_h, rtol=1e-5, atol=1e-8)


def test_single_bump_derivatives(rng):
    psi = fn.bump_testfn("Cc_single", {"delta": 0.1, "R": 3.0},
                         modulation={"const": 1.0, "v_quad": np.diag([0.5, 0, -0.2])})
    v = rng.normal(size=(100, 3))
    h = 1e-5
    g = psi.gradient(v)
    for axis in range(3):
        dv = np.zeros(3)
        dv[axis] = h
        num = (psi.value(v + dv) - psi.value(v - dv)) / (2 * h)
        assert_allclose(g[:, axis], num, rtol=1e-5, atol=1e-8)
    assert psi.value(np.array([3.5, 0, 0])) == 0.0


def test_gradient_type_field_class(rng):
    phi = fn.bump_testfn("DS", {"delta": 0.5, "R": 4.0},
                         modulation={"const": 0.0, "x_quad": np.diag([1.0, 0, -1.0])},
                         y_radius=5.0)
    V = fn.gradient_type_field(phi, gamma=-1.0)
    v = rng.normal(size=(400, 3))
    vs = rng.normal(size=(400, 3)) + np.array([1.0, 0, 0])
    assert_allclose(V.value(v, vs) + V.value(vs, v), 0.0, atol=1e-14)
    J = V.jac_x(v[:50], vs[:50])
    h = 1e-5
    for axis in range(3):
        dv = np.zeros(3)
        dv[axis] = h
        num = (V.value(v[:50] + dv, vs[:50] - dv) - V.value(v[:50] - dv, vs[:50] + dv)) / (2 * h)
        assert_allclose(J[:, axis, :], num, rtol=2e-5, atol=1e-7)


def test_smooth_step_profile():
    t = np.linspace(-2, 2, 2001)
    s = fn.smooth_step(t)
    assert np.all(s[t <= -1.0] == 0.0)
    assert np.all(s[t >= 1.0] == 1.0)
    assert np.all(np.diff(s) >= -1e-15)
    slope = np.diff(s) / np.diff(t)
    assert slope.max() < 0.9  # mollifier step: max slope ~ 0.829 per unit
