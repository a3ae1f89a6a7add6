import numpy as np
import pytest
from numpy.testing import assert_allclose

from grazing_lab import dissipation as dp
from grazing_lab import functions as fn
from grazing_lab import kernels as kn
from grazing_lab import operators as op

# frozen reference values from a refined run (pair 13, angular 2x12, phi 12)
REF_D_B_EPS025 = 8.979937331050056
REF_D_B_R_EPS025 = 8.954796298587805
REF_QB_GAUSS4_EPS05 = -14.128045211620709


@pytest.fixture(scope="module")
def ds_psi():
    return fn.bump_testfn("DS", {"delta": 0.4, "R": 5.0},
                          modulation={"const": 0.0, "x_quad": np.diag([1.0, 1.0, -2.0])},
                          y_radius=6.0)


def test_log_mean_values():
    assert dp.log_mean(2.0, 2.0) == 2.0
    assert_allclose(dp.log_mean(1.0, np.e), np.e - 1.0, rtol=1e-14)


def test_log_mean_between_means():
    lm = dp.log_mean(1.0, np.e)
    assert np.sqrt(np.e) < lm < (1 + np.e) / 2


def test_log_mean_bulk_ordering(rng):
    a = np.exp(rng.uniform(-8, 8, size=10_000))
    b = np.exp(rng.uniform(-8, 8, size=10_000))
    lm = dp.log_mean(a, b)
    geo = np.sqrt(a * b)
    ari = 0.5 * (a + b)
    assert np.all(lm >= geo - 1e-14 * ari)
    assert np.all(lm <= ari + 1e-14 * ari)
    distinct = np.abs(a / b - 1) > 1e-3
    assert np.all(lm[distinct] > geo[distinct])
    assert np.all(lm[distinct] < ari[distinct])


def test_log_mean_stable_near_equal():
    # series: L(1, 1+d) = 1 + d/2 - d^2/12 + O(d^3)
    for d in (1e-12, 1e-8, 1e-6):
        exact = 1.0 + d / 2.0 - d**2 / 12.0
        assert abs(dp.log_mean(1.0, 1.0 + d) - exact) < 1e-14 * exact
    assert dp.log_mean(3.0, 3.0) == 3.0


def test_log_mean_rejects_nonpositive():
    with pytest.raises(dp.DissipationError):
        dp.log_mean(-1.0, 2.0)
    with pytest.raises(dp.DissipationError):
        dp.log_mean(1.0, 0.0)


def test_entropy_oracles(work_spec):
    assert_allclose(dp.entropy(fn.maxwellian(), work_spec),
                    -1.5 * np.log(2 * np.pi * np.e), atol=1e-9)
    assert_allclose(dp.entropy(fn.maxwellian(temperature=2.0), work_spec),
                    -1.5 * np.log(2 * np.pi * np.e * 2.0), atol=1e-9)


def test_entropy_mixture_finite(mixture, work_spec):
    assert np.isfinite(dp.entropy(mixture, work_spec))


def test_boltzmann_dissipation_equilibrium(maxwellian, kernel_light, light_spec):
    r = dp.boltzmann_dissipation(maxwellian, kernel_light, light_spec)
    assert abs(r.value) < 1e-12


def test_dissipations_nonnegative(mixture, kernel_light, light_spec):
    assert dp.boltzmann_dissipation(mixture, kernel_light, light_spec).value >= 0.0
    assert dp.reduced_boltzmann_dissipation(mixture, kernel_light, light_spec).value >= 0.0
    assert dp.landau_dissipation(mixture, 0.0, light_spec).value >= 0.0


def test_reduced_below_full(aniso, mixture, kernel_light, light_spec):
    # pointwise (x-y)(log x - log y) >= 4 (sqrt x - sqrt y)^2 makes the
    # ordering exact at shared quadrature nodes
    for f in (aniso, mixture):
        d = dp.boltzmann_dissipation(f, kernel_light, light_spec).value
        r = dp.reduced_boltzmann_dissipation(f, kernel_light, light_spec).value
        assert r <= d + 1e-12 * max(1.0, d)


def test_landau_dissipation_closed_form(aniso, work_spec):
    """D_L = 9 for the diag(1,1,4) Gaussian at gamma=0 (Gaussian moment
    algebra: (1/2) E[|u|^2 |S^-1 u|^2 - (u.S^-1 u)^2], u ~ N(0, 2 Sigma))."""
    r = dp.landau_dissipation(aniso, 0.0, work_spec)
    assert_allclose(r.value, 9.0, rtol=1e-10)


def test_landau_dissipation_equilibrium(maxwellian, light_spec):
    assert abs(dp.landau_dissipation(maxwellian, 0.0, light_spec).value) < 1e-12


def test_dissipation_regression(aniso, work_spec):
    ker = kn.build_kernel(gamma=0.0, nu=0.5, epsilon=0.25, spec=work_spec)
    d = dp.boltzmann_dissipation(aniso, ker, work_spec)
    assert abs(d.value - REF_D_B_EPS025) < max(1e-4, 10 * d.error_estimate)
    r = dp.reduced_boltzmann_dissipation(aniso, ker, work_spec)
    assert abs(r.value - REF_D_B_R_EPS025) < max(1e-4, 10 * r.error_estimate)


def test_weak_regression(aniso, work_spec):
    psi = fn.gaussian_testfn(const=1.0, quad=np.diag([0, 0, 1.0]), width=4.0)
    ker = kn.build_kernel(gamma=0.0, nu=0.5, epsilon=0.5, spec=work_spec)
    r = op.boltzmann_weak(aniso, psi, ker, work_spec)
    assert r.value < 0
    assert abs(r.value - REF_QB_GAUSS4_EPS05) < max(3e-4, 10 * r.error_estimate)


def test_lambda_bounds_random(aniso, rng):
    """sqrt(F F') <= Lambda <= (F + F')/2 at random collision configurations,
    strict when the arguments differ."""
    from grazing_lab.geometry import CollisionConfiguration

    viol = 0
    for _ in range(10_000):
        v = rng.normal(size=3)
        vs = rng.normal(size=3) + np.array([0.5, 0, 0])
        cfg = CollisionConfiguration.from_angles(v, vs, rng.uniform(0, np.pi / 2),
                                                 rng.uniform(0, 2 * np.pi))
        F = float(aniso.pair_value(cfg.v[None], cfg.v_star[None])[0])
        Fp = float(aniso.pair_value(cfg.v_post[None], cfg.v_star_post[None])[0])
        lam = dp.log_mean(F, Fp)
        geo, ari = np.sqrt(F * Fp), 0.5 * (F + Fp)
        if not (geo - 1e-14 * ari <= lam <= ari + 1e-14 * ari):
            viol += 1
        if abs(F / Fp - 1) > 1e-3 and not (geo < lam < ari):
            viol += 1
    assert viol == 0


def test_affine_landau_zero_argument(aniso, light_spec):
    V0 = fn.bump_testfn("AS", {"delta": 0.5, "R": 4.0},
                        modulation={"matrix": np.zeros((3, 3))}, y_radius=5.0)
    r = dp.affine_landau(aniso, V0, 0.0, light_spec)
    assert r.value == 0.0


def test_affine_landau_below_dissipation(aniso, ds_psi, light_spec):
    dL = dp.landau_dissipation(aniso, 0.0, light_spec)
    aff = dp.affine_landau(aniso, ds_psi, 0.0, light_spec)
    assert aff.value <= dL.value + 10 * (dL.error_estimate + aff.error_estimate) + 1e-9
    V = fn.bump_testfn("AS", {"delta": 0.5, "R": 4.0},
                       modulation={"matrix": np.diag([1.0, -0.5, 0.3])}, y_radius=5.0)
    affv = dp.affine_landau(aniso, V, 0.0, light_spec)
    assert affv.value <= dL.value + 10 * (dL.error_estimate + affv.error_estimate) + 1e-9


def test_affine_landau_rejects_single(aniso, light_spec):
    with pytest.raises(dp.DissipationError):
        dp.affine_landau(aniso, fn.polynomial_testfn(const=1.0), 0.0, light_spec)


def test_affine_boltzmann_chain(aniso, ds_psi, kernel_light, light_spec):
    aff = dp.affine_boltzmann(aniso, ds_psi, kernel_light, light_spec)
    red = dp.reduced_boltzmann_dissipation(aniso, kernel_light, light_spec)
    tol = 10 * (aff.error_estimate + red.error_estimate) + 1e-9
    assert aff.value <= red.value + tol
    lv, qv = dp._affine_boltzmann_pieces(aniso, ds_psi, kernel_light, light_spec)
    _, best = dp.optimal_scaling(lv, qv, "boltzmann")
    assert 0.0 <= best <= red.value + tol


def test_affine_boltzmann_zero(aniso, kernel_light, light_spec):
    psi0 = fn.bump_testfn("DS", {"delta": 0.5, "R": 4.0},
                          modulation={"const": 0.0, "x_quad": np.zeros((3, 3))},
                          y_radius=5.0)
    assert dp.affine_boltzmann(aniso, psi0, kernel_light, light_spec).value == 0.0


def test_affine_boltzmann_rejects_non_ds(aniso, kernel_light, light_spec):
    with pytest.raises(dp.DissipationError):
        dp.affine_boltzmann(aniso, fn.polynomial_testfn(const=1.0), kernel_light,
                            light_spec)


def test_action_zero_and_homogeneity(aniso, kernel_light, light_spec):
    psi = fn.gaussian_testfn(const=1.0, quad=np.diag([0, 0, 1.0]), width=4.0)
    M = dp.gradient_mobility_boltzmann(aniso, psi, kernel_light)
    act = dp.boltzmann_action(aniso, M, kernel_light, light_spec)
    M2 = dp.Mobility(kind="boltzmann",
                     field=lambda v, vs, s, t: 2.0 * M.field(v, vs, s, t))
    act2 = dp.boltzmann_action(aniso, M2, kernel_light, light_spec)
    assert_allclose(act2.value, 4.0 * act.value, rtol=1e-13)
    M0 = dp.Mobility(kind="boltzmann", field=lambda v, vs, s, t: 0.0 * M.field(v, vs, s, t))
    assert dp.boltzmann_action(aniso, M0, kernel_light, light_spec).value == 0.0


def test_landau_action_homogeneity(aniso, light_spec):
    psi = fn.gaussian_testfn(const=1.0, quad=np.diag([0, 0, 1.0]), width=4.0)
    M = dp.gradient_mobility_landau(aniso, psi, 0.0)
    act = dp.landau_action(aniso, M, light_spec)
    M2 = dp.Mobility(kind="landau", field=lambda v, vs: 2.0 * M.field(v, vs))
    assert_allclose(dp.landau_action(aniso, M2, light_spec).value, 4.0 * act.value,
                    rtol=1e-13)


def test_gradient_type_duality_exact(aniso, kernel_light, light_spec):
    psi = fn.gaussian_testfn(const=0.5, quad=np.diag([1.0, 0, -0.5]), width=3.0)
    M = dp.gradient_mobility_boltzmann(aniso, psi, kernel_light)
    act = dp.boltzmann_action(aniso, M, kernel_light, light_spec)
    aff = dp.metric_affine_boltzmann(aniso, M, psi, kernel_light, light_spec)
    assert abs(act.value - aff.value) <= 1e-12 * abs(act.value)
    ML = dp.gradient_mobility_landau(aniso, psi, 0.0)
    actL = dp.landau_action(aniso, ML, light_spec)
    affL = dp.metric_affine_landau(aniso, ML, psi, 0.0, light_spec)
    assert abs(actL.value - affL.value) <= 1e-12 * abs(actL.value)


def test_metric_affine_below_action(aniso, kernel_light, light_spec, rng):
    psi_a = fn.gaussian_testfn(const=0.5, quad=np.diag([1.0, 0, -0.5]), width=3.0)
    M = dp.gradient_mobility_boltzmann(aniso, psi_a, kernel_light)
    for _ in range(5):
        psi_b = fn.gaussian_testfn(const=float(rng.normal()),
                                   quad=np.diag(rng.normal(size=3)),
                                   width=float(rng.uniform(2.5, 4.5)))
        act = dp.boltzmann_action(aniso, M, kernel_light, light_spec)
        aff = dp.metric_affine_boltzmann(aniso, M, psi_b, kernel_light, light_spec)
        assert aff.value <= act.value + 1e-12 * abs(act.value)


def test_mobility_kind_checks(aniso, kernel_light, light_spec):
    psi = fn.polynomial_testfn(const=1.0)
    ML = dp.gradient_mobility_landau(aniso, psi, 0.0)
    with pytest.raises(dp.DissipationError):
        dp.boltzmann_action(aniso, ML, kernel_light, light_spec)
    MB = dp.gradient_mobility_boltzmann(aniso, psi, kernel_light)
    with pytest.raises(dp.DissipationError):
        dp.landau_action(aniso, MB, light_spec)


def test_lift_spec_brackets():
    dp.LiftSpec(q=1, delta=0.3).validate(-1.0)
    dp.LiftSpec(q=2, delta=0.2).validate(-3.0)
    with pytest.raises(dp.DissipationError, match="invalid lift bracket"):
        dp.LiftSpec(q=2, delta=0.3).validate(-1.0)
    with pytest.raises(dp.DissipationError, match="invalid lift bracket"):
        dp.LiftSpec(q=1, delta=0.9).validate(-1.0)
    with pytest.raises(dp.DissipationError):
        dp.lift_spec_for(0.0)
    spec = dp.lift_spec_for(-3.0)
    assert spec.q == 2 and 0 < spec.delta < 0.5


def test_lift_zero_mobility(aniso, light_spec):
    ker = kn.build_kernel(gamma=-1.0, nu=0.5, epsilon=0.5, spec=light_spec)
    M0 = dp.Mobility(kind="boltzmann", field=lambda v, vs, s, t: 0.0 * fn.sq3(np.asarray(s)))
    lifted = dp.lift_mobility(M0, dp.lift_spec_for(-1.0), -1.0, ker, light_spec)
    out = lifted.field(np.array([[1.0, 0, 0]]), np.array([[0.0, 0, 0]]))
    assert_allclose(out, 0.0)


def test_lift_circle_closed_form(light_spec):
    """M = c sin(theta) (p.e): the azimuthal moment integral reduces to
    pi Pi[k] e times int sin^2 over the support."""
    gamma = -1.0
    ker = kn.build_kernel(gamma=gamma, nu=0.5, epsilon=0.5, spec=light_spec)
    e = np.array([0.0, 1.0, 0.5])
    c = 0.7

    def field(v, vs, sigma, theta):
        u = np.asarray(v) - np.asarray(vs)
        r = np.sqrt(fn.sq3(u))
        k = u / r[..., None]
        p = (sigma - np.cos(theta) * k) / np.sin(theta)
        return c * np.sin(theta) * (p @ e)

    M = dp.Mobility(kind="boltzmann", field=field)
    lift = dp.lift_spec_for(gamma)
    lifted = dp.lift_mobility(M, lift, gamma, ker, light_spec)
    v = np.array([[1.2, 0.1, -0.3]])
    vs = np.array([[-0.4, 0.6, 0.2]])
    got = lifted.field(v, vs)[0]
    u = (v - vs)[0]
    r = np.linalg.norm(u)
    k = u / r
    proj_e = e - (k @ e) * k
    upper = ker.angular.epsilon / 2.0
    sin2_int = upper / 2.0 - np.sin(2 * upper) / 4.0
    e2 = float(np.sum(v**2) + np.sum(vs**2))
    pref = r ** (-0.5 * gamma - lift.q) / (4.0 * (1.0 + e2 ** (0.5 * lift.delta)))
    expected = pref * c * np.pi * sin2_int * proj_e
    assert_allclose(got, expected, rtol=1e-8)


def test_lift_pairing_identity(aniso, light_spec):
    gamma = -1.0
    ker = kn.build_kernel(gamma=gamma, nu=0.5, epsilon=0.5, spec=light_spec)
    psi = fn.gaussian_testfn(const=1.0, quad=np.diag([0, 0, 1.0]), width=4.0)
    M = dp.gradient_mobility_boltzmann(aniso, psi, ker)
    lift = dp.lift_spec_for(gamma)
    lhs, rhs = dp.lift_pairing(aniso, M, psi, lift, gamma, ker, light_spec)
    assert_allclose(lhs, rhs, rtol=1e-10)


def test_liminf_at_smallest_eps(aniso, work_spec):
    ker = kn.build_kernel(gamma=0.0, nu=0.5, epsilon=1e-3, spec=work_spec)
    dB = dp.boltzmann_dissipation(aniso, ker, work_spec)
    dL = dp.landau_dissipation(aniso, 0.0, work_spec)
    assert dB.value >= dL.value - 10 * (dB.error_estimate + dL.error_estimate) - 1e-6


# recorded at light_spec before the sweep shared its node state
REF_ACTION_LIGHT = 25.50506880376146
REF_ACTION_ERR_LIGHT = 1.4540860990016
REF_DUAL_LIGHT = -67.0431281869499
REF_DUAL_ERR_LIGHT = 3.0033866151227357


def _light_pair(aniso, kernel_light):
    psi_a = fn.gaussian_testfn(const=0.5, quad=np.diag([1.0, 0, -0.5]), width=3.0)
    psi_b = fn.gaussian_testfn(const=1.0, quad=np.diag([0, 0, 1.0]), width=4.0)
    return dp.gradient_mobility_boltzmann(aniso, psi_a, kernel_light), psi_b


def test_action_and_dual_regression(aniso, kernel_light, light_spec):
    M, psi = _light_pair(aniso, kernel_light)
    act = dp.boltzmann_action(aniso, M, kernel_light, light_spec)
    aff = dp.metric_affine_boltzmann(aniso, M, psi, kernel_light, light_spec)
    assert_allclose([act.value, act.error_estimate], [REF_ACTION_LIGHT, REF_ACTION_ERR_LIGHT],
                    rtol=1e-14)
    assert_allclose([aff.value, aff.error_estimate], [REF_DUAL_LIGHT, REF_DUAL_ERR_LIGHT],
                    rtol=1e-14)
    act2, aff2 = dp._action_and_dual(aniso, M, psi, kernel_light, light_spec)
    assert (act2, aff2) == (act, aff)


def _node_visits(f, kernel, spec) -> int:
    """(chunk, theta node) visits of one coarse and one fine sweep."""
    total = 0
    for s in (spec.coarsened(), spec):
        chunks = -(-op.pair_grid(f, s).n_pairs // op.CHUNK)
        total += chunks * kn.angular_nodes(kernel.angular, s)[0].size
    return total


def test_action_and_dual_share_mobility_values(aniso, kernel_light, light_spec):
    """The fused action/dual sweep evaluates M.field as often as the action
    alone: once for M and once for its swap at every node."""
    base, psi = _light_pair(aniso, kernel_light)
    calls = []

    def field(v, vs, s, t):
        calls.append(1)
        return base.field(v, vs, s, t)

    M = dp.Mobility(kind="boltzmann", field=field)
    dp.boltzmann_action(aniso, M, kernel_light, light_spec)
    alone = len(calls)
    calls.clear()
    dp._action_and_dual(aniso, M, psi, kernel_light, light_spec)
    assert len(calls) == alone == 2 * _node_visits(aniso, kernel_light, light_spec)


def test_dissipation_logs_once_per_node(aniso, kernel_light, light_spec, monkeypatch):
    """D_B and D_B^R share log f at the post-collision nodes: two calls
    (v', v*') per node, not four."""
    log_value = fn.GaussianMixture.log_value
    node_calls = []

    def counted(self, v):
        if np.ndim(v) == 3:
            node_calls.append(1)
        return log_value(self, v)

    monkeypatch.setattr(fn.GaussianMixture, "log_value", counted)
    dp.boltzmann_dissipation(aniso, kernel_light, light_spec)
    assert len(node_calls) == 2 * _node_visits(aniso, kernel_light, light_spec)
