import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from divergence_oracle import at_x, central_gradient, projected_divergence
from grazing_lab import functions as fn


def test_maxwellian_moments(maxwellian):
    m = maxwellian.moments
    assert m.mass == 1.0
    assert_allclose(m.momentum, 0.0, atol=1e-15)
    assert_allclose(m.energy, 3.0)


def test_mixture_momentum_cancels(mixture):
    assert_allclose(mixture.moments.momentum, 0.0, atol=1e-15)


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


def _frame(v, vs):
    """The pair frame (s, k, y) = (|v - v*|, (v - v*)/s, (v + v*)/2) pair
    fields take."""
    s = np.linalg.norm(v - vs, axis=-1)
    return s, (v - vs) / s[..., None], 0.5 * (v + vs)


def _unit(rng, n):
    k = rng.normal(size=(n, 3))
    return k / np.linalg.norm(k, axis=1)[:, None]


class TestBumpDS:
    delta, R = 0.5, 4.0

    @pytest.fixture(scope="class")
    def psi(self):
        return fn.bump_testfn("DS", {"delta": self.delta, "R": self.R},
                              modulation={"const": 0.5, "x_quad": np.diag([1.0, -0.5, 0.25])},
                              y_radius=5.0)

    def test_support_inner(self, psi, rng):
        y = rng.normal(size=(200, 3))
        vals = psi.value(0.5 * self.delta, _unit(rng, 200), y)
        assert np.all(vals == 0.0)

    def test_support_outer(self, psi, rng):
        y = rng.normal(size=(200, 3))
        assert np.all(psi.value(1.01 * self.R, _unit(rng, 200), y) == 0.0)

    def test_symmetry(self, psi, rng):
        s, k, y = _frame(rng.normal(size=(1000, 3)) * 2, rng.normal(size=(1000, 3)) * 2)
        assert_allclose(psi.value(s, k, y), psi.value(s, -k, y), atol=1e-15)


class TestBumpAS:
    @pytest.fixture(scope="class")
    def V(self):
        A = np.array([[0.2, 1.0, -0.3], [0.5, -0.1, 0.0], [0.0, 0.7, 0.4]])
        return fn.bump_testfn("AS", {"delta": 0.5, "R": 4.0},
                              modulation={"matrix": A}, y_radius=5.0)

    def test_antisymmetry(self, V, rng):
        s, k, y = _frame(rng.normal(size=(1000, 3)) * 2, rng.normal(size=(1000, 3)) * 2)
        assert_allclose(V.value(s, k, y) + V.value(s, -k, y), 0.0, atol=1e-15)

    def test_inner_support(self, V, rng):
        y = rng.normal(size=(100, 3))
        assert np.all(V.value(0.2, _unit(rng, 100), y) == 0.0)

    def test_div_pi_fd(self, V, rng):
        """The closed form G W (tr A - 3 k^T A k) for a non-symmetric A
        against the generic formula on a central-difference Jacobian in x."""
        v, vs = rng.normal(size=(60, 3)), rng.normal(size=(60, 3)) + np.array([1.5, 0, 0])
        want = projected_divergence(at_x(V.value))(0.5 * (v - vs), 0.5 * (v + vs))
        assert np.abs(want).max() > 0.1
        assert_allclose(V.div_pi(*_frame(v, vs)), want, rtol=1e-6, atol=1e-8)


def test_bump_requires_ordered_support():
    with pytest.raises(fn.FunctionError):
        fn.bump_testfn("DS", {"delta": 2.0, "R": 1.0})


@pytest.mark.parametrize("support, y_radius, field", [
    ({"delta": 0.4, "R": np.inf}, 6.0, "R"), ({"delta": np.nan, "R": 5.0}, 6.0, "delta"),
    ({"delta": 0.4, "R": "5"}, 6.0, "R"), ({"delta": 0.4, "R": 5.0}, np.inf, "y_radius"),
    ({"delta": 0.4, "R": 5.0}, "6", "y_radius")])
def test_bump_refuses_a_support_or_y_radius_that_is_not_a_finite_number(support, y_radius, field):
    """An infinite R would leave the window's argument inf - inf = NaN, and
    an infinite support or y ball would run a study whose report cannot be
    written as JSON; each is refused naming its field."""
    for kind in ("DS", "AS", "Cc_single"):
        with pytest.raises(fn.FunctionError) as info:
            fn.bump_testfn(kind, support, y_radius=y_radius)
        assert info.value.field == field


def test_quadratic_forms_must_be_symmetric(rng):
    """The DS closed forms and `gradient` use 2 Q x, so a non-symmetric form
    is rejected by name; for the DS form below 2 Q x misses the central
    difference by ~8%."""
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
    """psi = E (c0 + x^T Q x) with x = (s/2) k at every axis k, for the one
    envelope E(s, y), which a collision (a turn of k) leaves unchanged."""
    Q = np.array([[1.0, 0.2, 0.0], [0.2, -0.5, 0.1], [0.0, 0.1, 0.25]])
    psi = fn.bump_testfn("DS", {"delta": 0.5, "R": 4.0},
                         modulation={"const": 0.5, "x_quad": Q}, y_radius=5.0)
    s, k, y = _frame(rng.normal(size=(200, 3)),
                     rng.normal(size=(200, 3)) + np.array([1.5, 0, 0]))
    E = psi.envelope(s, y)
    assert np.count_nonzero(E) > 100

    def reference(axis):
        x = 0.5 * s[:, None] * axis
        return E * (0.5 + np.einsum("ni,ij,nj->n", x, Q, x))

    assert_allclose(psi.value(s, k, y), reference(k), rtol=1e-14, atol=1e-300)
    turned = _unit(rng, 200)
    # c0 + x^T Q x cancels near the cone x^T Q x = -c0: roundoff of 1e-16 there
    assert_allclose(psi.value(s, turned, y), reference(turned), rtol=1e-14, atol=1e-16)
    assert np.array_equal(psi.quad, Q)


def test_unknown_class_rejected():
    with pytest.raises(fn.FunctionError, match="unknown test-function class"):
        fn.bump_testfn("XX", {"delta": 0.5, "R": 2.0})


@pytest.mark.parametrize("kind, key", [("DS", "matrix"), ("DS", "x_qaud"), ("AS", "const"),
                                       ("Cc_single", "x_quad")])
def test_bump_refuses_modulation_keys_it_does_not_read(kind, key):
    """Each kind reads its own modulation keys; any other key is refused by
    name instead of leaving its form at the default."""
    with pytest.raises(fn.FunctionError, match=rf"modulation\.{key}"):
        fn.bump_testfn(kind, {"delta": 0.5, "R": 2.0}, modulation={key: np.eye(3)})


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
    """The gradient-type field of a DS bump with c0 != 0 is anti-symmetric,
    its value is s^alpha Pi g, g the central-difference x-gradient of
    phi.value (x = (v - v*)/2), and its closed-form
    divergence 2 s^alpha E (tr Q - 3 k^T Q k) matches the generic
    formula on a central-difference Jacobian in x."""
    phi = fn.bump_testfn("DS", {"delta": 0.5, "R": 4.0},
                         modulation={"const": 0.7, "x_quad": np.diag([1.0, 0, -1.0])},
                         y_radius=5.0)
    V = fn.gradient_type_field(phi, gamma=-1.0)
    v, vs = rng.normal(size=(400, 3)), rng.normal(size=(400, 3)) + np.array([1.0, 0, 0])
    s, k, y = _frame(v, vs)
    x = 0.5 * (v - vs)
    assert_allclose(V.value(s, k, y) + V.value(s, -k, y), 0.0, atol=1e-14)
    g = central_gradient(at_x(phi.value))(x, y)
    want = s[:, None] ** 0.5 * (g - np.sum(k * g, axis=-1)[:, None] * k)
    assert np.abs(want).max() > 0.1
    assert_allclose(V.value(s, k, y), want, rtol=1e-6, atol=1e-8)
    div = projected_divergence(at_x(V.value))(x[:50], y[:50])
    assert np.abs(div).max() > 0.1
    assert_allclose(V.div_pi(s[:50], k[:50], y[:50]), div, rtol=2e-5, atol=1e-7)


@pytest.mark.parametrize("gamma", [0.0, -3.0])
def test_pair_fields_vanish_off_the_annulus(gamma, rng):
    """At s in (0, delta] and s >= R the DS value, the AS value and div_pi,
    and both gradient-type callables are exact zeros, with no RuntimeWarning,
    however small s is (s^(1 + gamma/2) reaches 1e150 at gamma = -3)."""
    delta, R = 0.5, 4.0
    phi = fn.bump_testfn("DS", {"delta": delta, "R": R}, y_radius=5.0,
                         modulation={"const": 0.7, "x_quad": np.diag([1.0, 0.2, -1.0])})
    V = fn.bump_testfn("AS", {"delta": delta, "R": R}, y_radius=5.0,
                       modulation={"matrix": [[0.2, 1.0, -0.3], [0.5, -0.1, 0.0], [0.0, 0.7, 0.4]]})
    Vg = fn.gradient_type_field(phi, gamma)
    s = np.array([1e-300, 1e-12, 1e-3, 0.25 * delta, 0.999 * delta, delta,
                  R, 1.001 * R, 10.0 * R, 1e3 * R])
    k, y = _unit(rng, s.size), 0.5 * rng.normal(size=(s.size, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, got in (("DS value", phi.value(s, k, y)), ("AS value", V.value(s, k, y)),
                          ("AS div_pi", V.div_pi(s, k, y)),
                          ("gradient-type value", Vg.value(s, k, y)),
                          ("gradient-type div_pi", Vg.div_pi(s, k, y))):
            assert np.count_nonzero(got) == 0, name
    inside = np.array([1.0, 2.0])
    assert np.all(phi.envelope(inside, y[:2]) > 0.0)


def test_smooth_step_profile():
    t = np.linspace(-2, 2, 2001)
    s = fn.smooth_step(t)
    assert np.all(s[t <= -1.0] == 0.0)
    assert np.all(s[t >= 1.0] == 1.0)
    assert np.all(np.diff(s) >= -1e-15)
    slope = np.diff(s) / np.diff(t)
    assert slope.max() < 0.9  # mollifier step: max slope ~ 0.829 per unit
