import numpy as np
import pytest
from numpy.testing import assert_allclose

from grazing_lab import functions as fn
from grazing_lab import operators as op
from grazing_lab.geometry import CollisionConfiguration, GeometryError

INVARIANTS = [
    fn.polynomial_testfn(const=1.0),
    fn.polynomial_testfn(linear=[1.0, 0, 0]),
    fn.polynomial_testfn(quad=np.eye(3)),
]


def test_dbar_collision_invariants(rng):
    for _ in range(50):
        v = rng.normal(size=3)
        vs = rng.normal(size=3) + np.array([1.0, 0, 0])
        cfg = CollisionConfiguration.from_angles(v, vs, rng.uniform(0, np.pi / 2),
                                                 rng.uniform(0, 2 * np.pi))
        for psi in INVARIANTS:
            assert abs(op.dbar(psi, cfg)) < 1e-12


def test_dbar_quadratic_example():
    psi = fn.polynomial_testfn(quad=np.diag([1.0, 0, 0]))
    cfg = CollisionConfiguration.from_sigma([1.0, 0, 0], [-1.0, 0, 0], [0.0, 1.0, 0])
    assert_allclose(op.dbar(psi, cfg), -2.0, atol=1e-14)


def test_dtilde_kills_energy_gradient(rng):
    psi = fn.polynomial_testfn(quad=np.eye(3))
    v = rng.normal(size=(20, 3))
    vs = rng.normal(size=(20, 3)) + np.array([1.0, 0, 0])
    assert_allclose(op.dtilde(psi, v, vs, 0.0), 0.0, atol=1e-13)


def test_dtilde_constant_gradient():
    psi = fn.polynomial_testfn(linear=[1.0, 0, 0])
    out = op.dtilde(psi, np.array([0.3, 0.7, -0.2]), np.array([1.0, 0.1, 0.5]), -1.0)
    assert_allclose(out, 0.0, atol=1e-15)


def test_dtilde_hand_value():
    # psi = v1^2, v=(1,1,0), v*=(0,-1,0), gamma=0: u=(1,2,0), |u|=sqrt(5),
    # grad difference (2,0,0), projection leaves sqrt(5)*(8/5, -4/5, 0)
    psi = fn.polynomial_testfn(quad=np.diag([1.0, 0, 0]))
    out = op.dtilde(psi, np.array([1.0, 1.0, 0]), np.array([0.0, -1.0, 0]), 0.0)
    assert_allclose(out, np.sqrt(5.0) * np.array([1.6, -0.8, 0.0]), rtol=1e-14)


def test_dtilde_rejects_coincident():
    psi = fn.polynomial_testfn(quad=np.eye(3))
    with pytest.raises(GeometryError):
        op.dtilde(psi, np.ones(3), np.ones(3), 0.0)


def test_dtilde_div_dtilde_energy_and_constant(rng):
    v = rng.normal(size=(20, 3))
    vs = rng.normal(size=(20, 3)) + np.array([1.0, 0, 0])
    assert_allclose(op.dtilde_div_dtilde(fn.polynomial_testfn(quad=np.eye(3)), v, vs, 0.0),
                    0.0, atol=1e-12)
    assert_allclose(op.dtilde_div_dtilde(fn.polynomial_testfn(const=3.0), v, vs, -1.0),
                    0.0, atol=1e-15)


def test_dtilde_div_dtilde_fd_oracle(rng):
    """Central-difference divergence of |2x|^(2+gamma) Pi[x] grad_x(psi)."""
    psi = fn.bump_testfn("DS", {"delta": 0.5, "R": 4.0},
                         modulation={"const": 0.3, "x_quad": np.diag([1.0, -0.4, 0.2])},
                         y_radius=5.0)
    gamma = -1.0
    h = 1e-5

    def field(v, vs):
        u = v - vs
        r = np.sqrt(np.sum(u**2, axis=-1))
        uhat = u / r[..., None]
        g = psi.grad_x(v, vs)
        pg = g - np.sum(uhat * g, axis=-1)[..., None] * uhat
        return (r ** (2.0 + gamma))[..., None] * pg

    for _ in range(10):
        v = rng.normal(size=(1, 3))
        vs = v + np.array([[1.2, -0.4, 0.3]]) * rng.uniform(0.8, 1.4)
        num = 0.0
        for axis in range(3):
            dv = np.zeros(3)
            dv[axis] = h
            # d/dx_i = d/dv_i - d/dv*_i
            num += (field(v + dv, vs - dv)[0, axis] - field(v - dv, vs + dv)[0, axis]) / (2 * h)
        ana = float(op.dtilde_div_dtilde(psi, v, vs, gamma)[0])
        assert abs(ana - num) < 1e-5 * max(1.0, abs(ana))


def test_boltzmann_weak_invariants(aniso, kernel_light, light_spec):
    for psi in INVARIANTS:
        r = op.boltzmann_weak(aniso, psi, kernel_light, light_spec)
        tol = max(1e-8, 10 * r.error_estimate)
        assert abs(r.value) < tol


def test_boltzmann_weak_equilibrium(maxwellian, kernel_light, light_spec):
    psi = fn.gaussian_testfn(const=1.0, quad=np.diag([0, 0, 1.0]), width=4.0)
    r = op.boltzmann_weak(maxwellian, psi, kernel_light, light_spec)
    assert abs(r.value) < max(1e-8, 10 * r.error_estimate)


def test_landau_weak_equilibrium(maxwellian, light_spec):
    psi = fn.gaussian_testfn(const=1.0, quad=np.diag([0, 0, 1.0]), width=4.0)
    r = op.landau_weak(maxwellian, psi, 0.0, light_spec)
    assert abs(r.value) < max(1e-8, 10 * r.error_estimate)


def test_landau_weak_closed_form(aniso, work_spec):
    """<Q_L(f,f), v3^2> = -24 for the diag(1,1,4) Gaussian (Gaussian moment
    algebra: (1/2) E[4|u|^2 - 12 u3^2] with u ~ N(0, 2 Sigma))."""
    psi = fn.polynomial_testfn(quad=np.diag([0, 0, 1.0]))
    for form in ("second_order", "first_order"):
        r = op.landau_weak(aniso, psi, 0.0, work_spec, form=form)
        assert_allclose(r.value, -24.0, rtol=1e-10)


def test_landau_form_equivalence(aniso, work_spec):
    psi = fn.gaussian_testfn(const=1.0, quad=np.diag([0, 0, 1.0]), width=4.0)
    r2 = op.landau_weak(aniso, psi, 0.0, work_spec)
    r1 = op.landau_weak(aniso, psi, 0.0, work_spec, form="first_order")
    assert abs(r2.value - r1.value) / abs(r2.value) < 1e-5


def test_boltzmann_weak_isotropization_sign(aniso, kernel_work, work_spec):
    # the hot axis sheds energy: pairing with a v3^2-type observable is negative
    psi = fn.gaussian_testfn(const=0.0, quad=np.diag([0, 0, 1.0]), width=4.0)
    r = op.boltzmann_weak(aniso, psi, kernel_work, work_spec)
    assert r.value < 0
    cold = fn.gaussian_testfn(const=0.0, quad=np.diag([1.0, 0, 0]), width=4.0)
    r1 = op.boltzmann_weak(aniso, cold, kernel_work, work_spec)
    assert r1.value > 0


def test_unknown_form_rejected(aniso, kernel_light, light_spec):
    with pytest.raises(op.OperatorError):
        op.boltzmann_weak(aniso, INVARIANTS[0], kernel_light, light_spec, form="third")


def test_pointwise_kernel_averages_converge_ds(kernel_work, work_spec, rng):
    """For two-variable DS psi: int dbar(psi) B_eps -> 2 dtilde.dtilde psi and
    int |dbar psi|^2 B_eps -> 8 |dtilde psi|^2 (the symmetrized four-point
    difference doubles against the single-variable limits), residuals
    contracting by at least 0.6 per eps halving."""
    psi = fn.bump_testfn("DS", {"delta": 0.5, "R": 4.0},
                         modulation={"const": 1.0, "x_quad": np.diag([0.4, 0, -0.6])},
                         y_radius=5.0)
    for _ in range(20):
        x = rng.normal(size=3)
        x *= rng.uniform(0.6, 1.6) / np.linalg.norm(x)
        y = rng.normal(size=3) * 0.8
        v, vs = y + x, y - x
        lim1 = 2.0 * float(op.dtilde_div_dtilde(psi, v[None], vs[None], 0.0)[0])
        tls = op.dtilde(psi, v[None], vs[None], 0.0)[0]
        lim2 = 8.0 * float(tls @ tls)
        floor = 1e-9 * (1.0 + abs(lim1) + abs(lim2))
        res1, res2 = [], []
        for eps in (0.25, 0.125, 0.0625):
            ker = kernel_work.with_epsilon(eps)
            a1 = op.dbar_kernel_average(psi, v, vs, ker, work_spec)
            a2 = op.dbar_sq_kernel_average(psi, v, vs, ker, work_spec)
            res1.append(abs(a1 - lim1))
            res2.append(abs(a2 - lim2))
        for r in (res1, res2):
            for a, b in zip(r, r[1:]):
                if a > floor:
                    assert b <= 0.6 * a + floor


def test_pointwise_kernel_averages_single_variable(kernel_work, work_spec, rng):
    """Single-variable psi carries half the four-point difference, so the
    limits lose the factors: int dbar(psi) B_eps -> dtilde.dtilde psi and
    int |dbar psi|^2 B_eps -> 2 |dtilde psi|^2."""
    psi = fn.gaussian_testfn(const=1.0, quad=np.diag([0.5, 0, 1.0]), width=3.0)
    for _ in range(5):
        v = rng.normal(size=3)
        vs = rng.normal(size=3) + np.array([1.5, 0, 0])
        lim1 = float(op.dtilde_div_dtilde(psi, v[None], vs[None], 0.0)[0])
        tls = op.dtilde(psi, v[None], vs[None], 0.0)[0]
        lim2 = 2.0 * float(tls @ tls)
        ker = kernel_work.with_epsilon(0.02)
        a1 = op.dbar_kernel_average(psi, v, vs, ker, work_spec)
        a2 = op.dbar_sq_kernel_average(psi, v, vs, ker, work_spec)
        assert abs(a1 - lim1) < 0.01 * (1.0 + abs(lim1))
        assert abs(a2 - lim2) < 0.01 * (1.0 + abs(lim2))


def test_first_difference_estimates(aniso, rng):
    """|dbar psi| <= Lip_x(psi) |2x| |sigma-k| and the Hessian variant,
    with sampled sups standing in for the true Lipschitz constants."""
    psi = fn.bump_testfn("DS", {"delta": 0.5, "R": 4.0},
                         modulation={"const": 1.0, "x_quad": np.diag([0.5, 0, -0.5])},
                         y_radius=5.0)
    # sample the gradient/Hessian sups over the support with headroom
    xs = rng.normal(size=(200_000, 3))
    ys = rng.normal(size=(200_000, 3))
    g = psi.grad_x(ys + xs, ys - xs)
    H = psi.hess_xx(ys[:50_000] + xs[:50_000], ys[:50_000] - xs[:50_000])
    lip = 1.05 * float(np.sqrt((g**2).sum(axis=1)).max())
    hnorm = 1.05 * float(np.abs(np.linalg.eigvalsh(H)).max())

    for _ in range(300):
        v = rng.normal(size=3)
        vs = rng.normal(size=3)
        if np.linalg.norm(v - vs) < 1e-6:
            continue
        theta = rng.uniform(0, np.pi / 2)
        phi = rng.uniform(0, 2 * np.pi)
        cfg = CollisionConfiguration.from_angles(v, vs, theta, phi)
        d = abs(op.dbar(psi, cfg))
        two_x = np.linalg.norm(v - vs)
        sk = np.linalg.norm(cfg.sigma - cfg.k)
        assert d <= lip * two_x * sk + 1e-12
        assert d <= hnorm * two_x**2 * sk + 1e-12


def test_circle_average_second_order_estimate(rng):
    """|(1/2pi) int dbar psi dp| <= ||D2_x psi|| |2x|^2 |sigma-k|^2."""
    psi = fn.bump_testfn("DS", {"delta": 0.5, "R": 4.0},
                         modulation={"const": 1.0, "x_quad": np.diag([0.5, 0, -0.5])},
                         y_radius=5.0)
    xs = rng.normal(size=(50_000, 3))
    ys = rng.normal(size=(50_000, 3))
    H = psi.hess_xx(ys + xs, ys - xs)
    hnorm = 1.05 * float(np.abs(np.linalg.eigvalsh(H)).max())
    nphi = 64
    phis = 2 * np.pi * np.arange(nphi) / nphi
    for _ in range(50):
        v = rng.normal(size=3)
        vs = rng.normal(size=3) + np.array([1.2, 0, 0])
        theta = rng.uniform(0, np.pi / 2)
        vals = [op.dbar(psi, CollisionConfiguration.from_angles(v, vs, theta, p))
                for p in phis]
        avg = abs(float(np.mean(vals)))
        two_x = np.linalg.norm(v - vs)
        sk2 = 2.0 * (1.0 - np.cos(theta))
        assert avg <= hnorm * two_x**2 * sk2 + 1e-12


def test_scaled_difference_limits(rng):
    """(1/eps) dbar psi tends to (chi/2pi)|v-v*| p.(grad-grad_*)psi and the
    circle average of dbar/( eps^2 chi^2) to the projected second difference;
    residuals shrink by at least 0.6 per halving."""
    psi = fn.gaussian_testfn(const=1.0, quad=np.diag([1.0, -0.3, 0.5]), width=3.0)
    chi = 1.1
    nphi = 64
    phis = 2 * np.pi * np.arange(nphi) / nphi
    for _ in range(10):
        v = rng.normal(size=3)
        vs = rng.normal(size=3) + np.array([1.5, 0, 0])
        u = v - vs
        r = np.linalg.norm(u)
        g = op._pair_grad(psi, v[None], vs[None])[0]
        res_first, res_avg = [], []
        for eps in (0.0625, 0.03125, 0.015625, 0.0078125):
            theta = eps * chi / np.pi
            cfg = CollisionConfiguration.from_angles(v, vs, theta, 0.7)
            lim = (chi / (2 * np.pi)) * r * float(cfg.p @ g)
            res_first.append(abs(op.dbar(psi, cfg) / eps - lim))
            vals = [op.dbar(psi, CollisionConfiguration.from_angles(v, vs, theta, p))
                    for p in phis]
            circ = float(np.sum(vals)) * (2 * np.pi / nphi)
            lim_avg = (1.0 / (8 * np.pi)) * float(
                op.dtilde_div_dtilde(psi, v[None], vs[None], 0.0)[0])
            res_avg.append(abs(circ / (eps**2 * chi**2) - lim_avg))
        # first-order remainder is O(eps), the averaged one O(eps^2); nearby
        # coefficient cancellations can stall one halving, so check the
        # contraction end-to-end over the window (three halvings)
        for seq, rate in ((res_first, 0.5), (res_avg, 0.25)):
            floor = 1e-10 * (1.0 + seq[0])
            if seq[0] > floor:
                assert seq[-1] <= 2.0 * rate**3 * seq[0] + floor


def test_grazing_limit_study_polynomial(aniso, kernel_work, work_spec):
    psi = fn.polynomial_testfn(quad=np.diag([0, 0, 1.0]))
    rep = op.grazing_limit_study(aniso, psi, kernel_work, [1.0, 0.5, 0.25, 0.125],
                                 work_spec)
    assert all(b < a for a, b in zip(rep.abs_errors, rep.abs_errors[1:]))
    assert rep.fitted_order is not None and rep.fitted_order >= 0.9
    assert len(rep.rows()) == 4


def test_grazing_limit_study_equilibrium(maxwellian, kernel_light, light_spec):
    psi = fn.polynomial_testfn(quad=np.diag([0, 0, 1.0]))
    rep = op.grazing_limit_study(maxwellian, psi, kernel_light, [0.5, 0.25, 0.125],
                                 light_spec)
    assert all(e <= rep.metadata["noise_floor"] for e in rep.abs_errors)
    assert rep.fitted_order is None
    assert rep.metadata["order_defined"] is False


def test_grazing_limit_study_validation(aniso, kernel_light, light_spec):
    psi = INVARIANTS[0]
    with pytest.raises(op.OperatorError):
        op.grazing_limit_study(aniso, psi, kernel_light, [1.0, 0.5], light_spec)
    with pytest.raises(op.OperatorError):
        op.grazing_limit_study(aniso, psi, kernel_light, [0.5, 1.0, 0.25], light_spec)


def test_pair_grid_symmetrization_consistency(aniso, light_spec):
    """The unordered-pair grid with doubled weights reproduces the ordered
    tensor quadrature for a symmetric collision integrand."""
    grid = op.pair_grid(aniso, light_spec)

    def integrand(c):
        return aniso.pair_value(c.v, c.v_star) * c.r**2

    total = op.pair_reduce(grid, {"v": integrand})["v"]
    from grazing_lab.quadrature import integrate_r6
    center, scale = aniso.quadrature_frame()
    full = integrate_r6(lambda v, vs: aniso.pair_value(v, vs) * np.sum((v - vs)**2, axis=-1),
                        light_spec, center, scale)
    # the tensor diagonal contributes nothing to an r^2-weighted integrand
    assert abs(total - full.value) < max(1e-9, 10 * full.error_estimate)


@pytest.mark.parametrize("raw", ["two", "0", "-1"])
def test_thread_count_rejects_bad_value(raw, monkeypatch):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool started")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    monkeypatch.setenv("GRAZING_LAB_THREADS", raw)
    with pytest.raises(op.OperatorError, match="GRAZING_LAB_THREADS"):
        op.parallel_map(abs, [-1, -2])


def test_thread_count_accepts_positive(monkeypatch):
    monkeypatch.setenv("GRAZING_LAB_THREADS", "2")
    assert op.thread_count() == 2
    assert op.parallel_map(abs, [-1, -2, 3]) == [1, 2, 3]
