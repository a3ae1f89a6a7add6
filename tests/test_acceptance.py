"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated at runtime.
"""

from itertools import chain

import numpy as np
import pytest
from collision_oracle import sigma_average

from grazing_lab import compactness as cp
from grazing_lab import dissipation as dp
from grazing_lab import functions as fn
from grazing_lab import kernels as kn
from grazing_lab import operators as op
from grazing_lab import projection as pj
from grazing_lab import cli
from grazing_lab.quadrature import QuadratureSpec

SPEC = QuadratureSpec(pair_nodes=8, theta_panels=2,
                      theta_nodes_per_panel=8, sphere_phi_nodes=8)
SPEC_FORMS = QuadratureSpec(pair_nodes=10, theta_panels=2,
                            theta_nodes_per_panel=8, sphere_phi_nodes=8)
SPEC_DUAL = QuadratureSpec(pair_nodes=6, theta_panels=1,
                           theta_nodes_per_panel=8, sphere_phi_nodes=6)

ANISO = fn.gaussian_mixture([(1.0, [0.0, 0.0, 0.0], [1.0, 1.0, 4.0])])
MAXW = fn.maxwellian()
KERNEL = kn.build_kernel(gamma=0.0, nu=0.5, epsilon=0.5, spec=SPEC)

PSI_HOT = fn.polynomial_testfn(quad=np.diag([0.0, 0.0, 1.0]))
PSI_COLD = fn.polynomial_testfn(quad=np.diag([1.0, 0.0, 0.0]))
PSI_GAUSS = fn.gaussian_testfn(const=1.0, quad=np.diag([0.0, 0.0, 1.0]), width=4.0)

DS_PSIS = [
    fn.bump_testfn("DS", {"delta": 0.4, "R": 5.0},
                   modulation={"const": 0.0, "x_quad": np.diag([1.0, 1.0, -2.0])},
                   y_radius=6.0),
    fn.bump_testfn("DS", {"delta": 0.3, "R": 6.0},
                   modulation={"const": 0.0, "x_quad": np.diag([0.0, 0.0, 1.0])},
                   y_radius=6.0),
]


def _line(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {name}: {detail}"


def test_criterion_01_geometry_identities():
    """The identities on the frame the sweeps run: the chunk's azimuths and
    its nodes at the kernel's theta rule plus theta = pi/2."""
    rng = np.random.default_rng(11)
    n = 10_000
    v = rng.normal(size=(n, 3))
    vs = rng.normal(size=(n, 3)) + np.array([1.0, 0, 0])
    chunk = op.PairChunk(v, vs, kernel=KERNEL)
    k, n_phi = chunk.k, SPEC.sphere_phi_nodes
    p = chunk.azimuths(n_phi)
    circle = (2.0 * np.pi / n_phi) * np.einsum("cai,caj->cij", p, p)
    worst_circle = float(np.abs(circle - np.pi * (np.eye(3) - k[:, :, None] * k[:, None, :])).max())
    edge = op.CollisionNode(chunk, np.pi / 2, n_phi, KERNEL)
    nodes = chain((node for _, node in op.collision_nodes(chunk, SPEC, KERNEL)), [edge])
    v3, vs3, k3 = v[:, None, :], vs[:, None, :], k[:, None, :]
    ang = mom = en = 0.0
    for node in nodes:
        sigma, vp, vsp = node.sigma, node.vp, node.vsp
        ang = max(ang, float(np.abs(np.sum((sigma - k3) ** 2, axis=2)
                                    - 2.0 * (1.0 - np.sum(k3 * sigma, axis=2))).max()))
        mom = max(mom, float((np.abs(vp + vsp - v3 - vs3).max(axis=2)
                              / np.maximum(np.abs(v + vs).max(axis=1), 1.0)[:, None]).max()))
        en = max(en, float((np.abs(np.sum(vp**2 + vsp**2 - v3**2 - vs3**2, axis=2))
                            / np.sum(v**2 + vs**2, axis=1)[:, None]).max()))
    ok = worst_circle < 1e-12 and ang < 1e-12 and max(mom, en) < 1e-10
    _line(1, "geometry identities", ok,
          f"circle {worst_circle:.1e}, angle {ang:.1e}, conservation {max(mom, en):.1e}")


def test_criterion_02_kernel_normalization():
    worst = 0.0
    for eps in (1.0, 0.3, 0.1, 0.03, 0.01):
        t = kn.momentum_transfer(KERNEL.angular.with_epsilon(eps), SPEC)
        worst = max(worst, abs(t - kn.TRANSFER))
    _line(2, "kernel normalization", worst < 1e-6, f"max |T - 8/pi| = {worst:.1e}")


def test_criterion_03_invariants_and_equilibrium():
    worst = 0.0
    details = []
    for name, psi in (("1", fn.polynomial_testfn(const=1.0)),
                      ("v1", fn.polynomial_testfn(linear=[1.0, 0, 0])),
                      ("|v|^2", fn.polynomial_testfn(quad=np.eye(3)))):
        r = op.boltzmann_weak(ANISO, psi, KERNEL, SPEC)
        tol = max(1e-8, 10 * r.error_estimate)
        worst = max(worst, abs(r.value) / tol)
        details.append(f"{name}: {r.value:.1e}")
    rb = op.boltzmann_weak(MAXW, PSI_GAUSS, KERNEL, SPEC)
    tolb = max(1e-8, 10 * rb.error_estimate)
    rl = op.landau_weak(MAXW, PSI_GAUSS, 0.0, SPEC)
    toll = max(1e-8, 10 * rl.error_estimate)
    ok = worst <= 1.0 and abs(rb.value) <= tolb and abs(rl.value) <= toll
    _line(3, "collision invariants and equilibrium", ok,
          "; ".join(details) + f"; eq B {rb.value:.1e}, eq L {rl.value:.1e}")


def test_criterion_04_weak_form_equivalence():
    worst = 0.0
    for psi in (PSI_GAUSS, PSI_HOT):
        b2 = op.boltzmann_weak(ANISO, psi, KERNEL, SPEC_FORMS)
        b1 = op.boltzmann_weak(ANISO, psi, KERNEL, SPEC_FORMS, form="first_order")
        worst = max(worst, abs(b2.value - b1.value) / abs(b2.value))
        l2 = op.landau_weak(ANISO, psi, 0.0, SPEC_FORMS)
        l1 = op.landau_weak(ANISO, psi, 0.0, SPEC_FORMS, form="first_order")
        worst = max(worst, abs(l2.value - l1.value) / abs(l2.value))
    ok = worst < 1e-5
    _line(4, "weak-form equivalence", ok, f"worst relative form gap {worst:.2e}")


def test_criterion_05_grazing_limit():
    eps_list = [1.0, 0.5, 0.25, 0.125]
    study = op.grazing_limit_study(ANISO, [PSI_HOT, PSI_COLD], KERNEL, eps_list, SPEC)
    oks, details = [], []
    for j, name in enumerate(("v3^2", "v1^2")):
        abs_errors = [row["abs_err"] for row in study["rows"] if row["psi"] == j]
        fitted_order = study["fitted_order"][j]
        decreasing = all(b < a for a, b in zip(abs_errors, abs_errors[1:]))
        order_ok = fitted_order is not None and fitted_order >= 0.9
        oks.append(decreasing and order_ok)
        details.append(f"{name}: errs {abs_errors[0]:.2e}->{abs_errors[-1]:.2e}, "
                       f"order {fitted_order:.2f}")
    _line(5, "grazing limit of the weak forms", all(oks), "; ".join(details))


def test_criterion_06_dissipation_chain():
    eps_list = [1.0, 0.5, 0.25, 0.125, 1e-2, 1e-3, 1e-5]
    study = dp.dissipation_study(ANISO, KERNEL, eps_list, DS_PSIS, SPEC)
    chain_ok = True
    for row in study["rows"]:
        tol = 10.0 * (row["err_D_B"] + row["err_D_R"]) + 1e-10
        aff = max(row["affine_boltzmann"])
        chain_ok &= (0.0 <= aff <= row["D_B_R"] + tol)
        chain_ok &= (row["D_B_R"] <= row["D_B_eps"] + tol)
    land_ok = all(av <= study["landau"] + 10 * study["landau_error"] + 1e-10
                  for av in study["affine_landau"])
    gaps = [row["gap"] for row in study["rows"]]
    decreasing = all(b < a for a, b in zip(gaps, gaps[1:]))
    # the last gap is the eps^2 grazing gap the one before predicts
    prev, last = study["rows"][-2:]
    rho2 = (last["eps"] / prev["eps"]) ** 2
    final_dev = abs(last["gap"] - rho2 * prev["gap"])
    final_tol = 10.0 * (last["err_D_B"] + rho2 * prev["err_D_B"] + 2.0 * study["landau_error"])
    final_ok = final_dev <= final_tol
    # the product form and the entropy-dissipation identity, two routes to D_B
    ident_ok = all(abs(row["D_B_eps"] - row["D_B_id"])
                   <= 10.0 * (row["err_D_B"] + row["err_D_B_id"]) for row in study["rows"])
    ok = chain_ok and ident_ok and land_ok and decreasing and final_ok
    _line(6, "dissipation chain and gap decay", ok,
          f"chain {chain_ok}, identity {ident_ok}, affine_L<=D_L {land_ok}, "
          f"gaps {gaps[0]:.2e}->{gaps[-1]:.2e} decreasing {decreasing}, "
          f"final eps^2 law {final_dev:.2e} <= {final_tol:.2e}")


def test_criterion_07_limit_pieces():
    rng = np.random.default_rng(23)
    psi = DS_PSIS[0]
    eps_seq = (0.25, 0.125, 0.0625)
    ok = True
    worst_ratio = 0.0
    for _ in range(20):
        x = rng.normal(size=3)
        x *= rng.uniform(0.6, 1.8) / np.linalg.norm(x)
        y = rng.normal(size=3) * 0.8
        v, vs = y + x, y - x
        chunk = op.PairChunk(v[None], vs[None])
        lim1 = 2.0 * float((chunk.r ** 2.0 * chunk.div_pi_grad(psi))[0])
        t = chunk.dtilde(psi, 0.0)[0]
        lim2 = 8.0 * float(t @ t)
        floor = 1e-9 * (1.0 + abs(lim1) + abs(lim2))
        for lim, power in ((lim1, 1), (lim2, 2)):
            res = [abs(float(sigma_average(v, vs, KERNEL.with_epsilon(e), SPEC,
                                           lambda n: n.dbar(psi) ** power)[0]) - lim)
                   for e in eps_seq]
            for a, b in zip(res, res[1:]):
                if a > floor:
                    ok &= (b <= 0.6 * a + floor)
                    worst_ratio = max(worst_ratio, b / a)
    _line(7, "kernel-average limit pieces", ok,
          f"worst contraction ratio {worst_ratio:.3f} (need <= 0.6)")


def test_criterion_08_log_mean_properties():
    rng = np.random.default_rng(31)
    a = np.exp(rng.uniform(-10, 10, size=10_000))
    b = np.exp(rng.uniform(-10, 10, size=10_000))
    lm = op._log_mean(a, np.log(b) - np.log(a))
    geo_m = np.sqrt(a * b)
    ari = 0.5 * (a + b)
    bounds_ok = bool(np.all(lm >= geo_m - 1e-13 * ari) and np.all(lm <= ari + 1e-13 * ari))
    distinct = np.abs(a / b - 1.0) > 1e-6
    strict_ok = bool(np.all(lm[distinct] > geo_m[distinct])
                     and np.all(lm[distinct] < ari[distinct]))
    # the Lambda the sweeps read, at every node of 10,000 random pairs
    chunk = op.PairChunk(rng.normal(size=(10_000, 3)),
                         rng.normal(size=(10_000, 3)) + np.array([0.5, 0, 0]),
                         f=ANISO, kernel=KERNEL)
    viol = 0
    for _, node in op.collision_nodes(chunk, SPEC, KERNEL):
        Fp = np.exp(ANISO.log_value(node.vp) + ANISO.log_value(node.vsp))
        F, lam = chunk.F[:, None], node.lam
        g, m = np.sqrt(F * Fp), 0.5 * (F + Fp)
        viol += int(np.count_nonzero((lam < g - 5e-14 * lam) | (lam > m + 5e-14 * lam)))
        distinct = np.abs(F / Fp - 1.0) > 1e-6
        viol += int(np.count_nonzero(distinct & ~((g < lam) & (lam < m))))
    ok = bounds_ok and strict_ok and viol == 0
    _line(8, "logarithmic-mean bounds", ok,
          f"bounds {bounds_ok}, strict {strict_ok}, config violations {viol}")


def test_criterion_09_projection():
    grid = pj.shell_grid(0.5, 4.0, n_shells=5, y_radius=3.0, n_y=3, lmax=16)
    A = np.array([[0.0, 1.0, 0.3], [-0.5, 0.2, 0.0], [0.1, -0.7, 0.4]])
    V = fn.bump_testfn("AS", {"delta": 0.5, "R": 4.0}, modulation={"matrix": A},
                       y_radius=3.0)
    _, diag = pj.project_vector_field(V, grid, -1.0)
    pyth = abs(diag["norm_projected_V_sq"] - diag["norm_gradient_sq"]
               - diag["norm_residual_sq"]) / diag["norm_projected_V_sq"]
    phi = fn.bump_testfn("DS", {"delta": 0.5, "R": 4.0},
                         modulation={"const": 0.0, "x_quad": np.diag([1.0, -0.3, -0.7])},
                         y_radius=3.0)
    field, _ = pj.project_vector_field(fn.gradient_type_field(phi, -1.0), grid, -1.0)
    tr = grid.transform()
    k3, _, _ = tr.unit_vectors()
    round_trip = 0.0
    for a, r in enumerate(grid.radii):
        for b in range(grid.y_nodes.shape[0]):
            target = phi.value(2.0 * float(r), k3, grid.y_nodes[b])
            target = target - float((tr.quad_weights * target).sum()) / (4 * np.pi)
            round_trip = max(round_trip, float(
                np.abs(tr.synthesize(field.coefficients[a, b]) - target).max()))
    ok = (diag["max_spectral_residual"] < 1e-10 and round_trip < 1e-6
          and pyth < 1e-6 and diag["max_odd_degree_coeff"] < 1e-10)
    _line(9, "sphere-Poisson projection", ok,
          f"residual {diag['max_spectral_residual']:.1e}, round trip {round_trip:.1e}, "
          f"orthogonality {pyth:.1e}, odd {diag['max_odd_degree_coeff']:.1e}")


def test_criterion_10_metric_duality():
    rng = np.random.default_rng(47)
    kernel = kn.build_kernel(gamma=0.0, nu=0.5, epsilon=0.25, spec=SPEC_DUAL)
    worst_viol = -np.inf
    for i in range(50):
        psi = fn.gaussian_testfn(const=float(rng.normal()),
                                 quad=np.diag(rng.normal(size=3)),
                                 width=float(rng.uniform(2.5, 5.0)))
        if i % 2 == 0:
            shape_psi = fn.gaussian_testfn(const=float(rng.normal()),
                                           quad=np.diag(rng.normal(size=3)),
                                           width=float(rng.uniform(2.5, 5.0)))
            M = dp.gradient_mobility_boltzmann(shape_psi)
            act = dp.boltzmann_action(ANISO, M, kernel, SPEC_DUAL)
            aff = dp.metric_affine_boltzmann(ANISO, M, psi, kernel, SPEC_DUAL)
        else:
            shape_psi = fn.gaussian_testfn(const=float(rng.normal()),
                                           linear=rng.normal(size=3),
                                           width=float(rng.uniform(2.5, 5.0)))
            M = dp.gradient_mobility_landau(shape_psi, 0.0)
            act = dp.landau_action(ANISO, M, SPEC_DUAL)
            aff = dp.metric_affine_landau(ANISO, M, psi, 0.0, SPEC_DUAL)
        worst_viol = max(worst_viol, (aff - act) / max(abs(act), 1e-300))
    Mg = dp.gradient_mobility_boltzmann(PSI_GAUSS)
    act = dp.boltzmann_action(ANISO, Mg, kernel, SPEC_DUAL)
    aff = dp.metric_affine_boltzmann(ANISO, Mg, PSI_GAUSS, kernel, SPEC_DUAL)
    eq_b = abs(act - aff) / abs(act)
    MgL = dp.gradient_mobility_landau(PSI_GAUSS, 0.0)
    actL = dp.landau_action(ANISO, MgL, SPEC_DUAL)
    affL = dp.metric_affine_landau(ANISO, MgL, PSI_GAUSS, 0.0, SPEC_DUAL)
    eq_l = abs(actL - affL) / abs(actL)
    ok = worst_viol <= 1e-12 and eq_b < 1e-6 and eq_l < 1e-6
    _line(10, "metric-derivative duality", ok,
          f"worst (affine - action)/action = {worst_viol:.1e}, "
          f"gradient-type equality {eq_b:.1e} / {eq_l:.1e}")


def test_criterion_11_compactness_diagnostics():
    kernel = kn.build_kernel(gamma=-1.0, nu=0.5, epsilon=0.5, kinetic_cutoff=True,
                             spec=SPEC)
    bound_ok, lim_ok = True, True
    for eps in (1.0, 0.5, 0.1, 1e-2, 1e-3):
        for z in (0.25, 0.5, 1.0, 2.0, 4.0):
            s = cp.s_eps(z, kernel.with_epsilon(eps), SPEC)
            bound_ok &= abs(s) <= 12.0
            if eps == 1e-3:
                # the lemma's limit: 6 for |z| < 1, 2(3+gamma)|z|^gamma for |z| >= 1
                lim = 6.0 if z < 1.0 else 2.0 * (3.0 + kernel.gamma) * z**kernel.gamma
                lim_ok &= abs(s - lim) <= 0.01 * lim

    kernel_g0 = kn.build_kernel(gamma=0.0, nu=0.5, epsilon=0.5, kinetic_cutoff=True,
                                spec=SPEC)
    lhs, rhs, _ = cp.cancellation_identity_check(ANISO, kernel_g0, SPEC)
    gap = abs(lhs.value - rhs.value)
    cancel_tol = 10.0 * (lhs.error_estimate + rhs.error_estimate) + 1e-9
    cancel_ok = gap <= cancel_tol

    avg_ok = True
    for eps in (1.0, 0.1):
        for xn in (0.1, 1.0, 10.0):
            l, r = cp.fourier_avg_lower_bound([xn, 0.0, 0.0],
                                              kernel.with_epsilon(eps), SPEC)
            avg_ok &= l >= r

    floor = np.inf
    for xn in np.geomspace(0.05, 20.0, 15):
        g = cp.fourier_positivity_gap(ANISO, [xn / np.sqrt(3)] * 3)
        floor = min(floor, g / min(xn**2, 1.0))
    floor_ok = floor > 0.0

    sn = cp.weighted_seminorm(cp.CutoffDensity(ANISO, R=5.0), 0.5, cp.FourierGrid())
    ratios = []
    for eps in (1.0, 0.5, 0.25, 0.125):
        dB = dp.boltzmann_dissipation(ANISO, kernel_g0.with_epsilon(eps), SPEC)
        ratios.append(sn / (dB.value + 1.0))
    c_r = max(ratios)
    ratio_ok = np.isfinite(c_r) and max(ratios) / min(ratios) < 2.0

    ok = bound_ok and lim_ok and cancel_ok and avg_ok and floor_ok and ratio_ok
    _line(11, "compactness diagnostics", ok,
          f"|S|<=12 {bound_ok}, limit {lim_ok}, cancellation {gap:.1e}<={cancel_tol:.1e}, "
          f"avg bound {avg_ok}, C_f floor {floor:.3f}, C_R {c_r:.2f}")


def test_criterion_12_reproducibility():
    ok = True
    for cfg in ({"experiment": "identities"},
                {"experiment": "projection", "kernel": {"gamma": -1.0},
                 "params": {"lmax": 10, "n_shells": 3, "n_y": 3}}):
        a = cli.run(dict(cfg))
        b = cli.run(dict(cfg))
        ok &= (a.body_bytes() == b.body_bytes())
    _line(12, "byte-identical report bodies", ok, "two runs compared per experiment")
