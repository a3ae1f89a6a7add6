import ast
import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from collision_oracle import dbar, sigma_average
from divergence_oracle import at_x, central_gradient, central_hessian, projected_divergence
from grazing_lab import dissipation as dp
from grazing_lab import functions as fn
from grazing_lab import kernels as kn
from grazing_lab import operators as op
from grazing_lab.quadrature import QuadratureSpec

INVARIANTS = [
    fn.polynomial_testfn(const=1.0),
    fn.polynomial_testfn(linear=[1.0, 0, 0]),
    fn.polynomial_testfn(quad=np.eye(3)),
]


def test_dbar_collision_invariants(rng, sigma_at):
    for _ in range(50):
        v = rng.normal(size=3)
        vs = rng.normal(size=3) + np.array([1.0, 0, 0])
        sigma, _, _ = sigma_at(v, vs, rng.uniform(0, np.pi / 2), rng.uniform(0, 2 * np.pi))
        for psi in INVARIANTS:
            assert abs(dbar(psi, v, vs, sigma)) < 1e-12


def test_dbar_quadratic_example():
    psi = fn.polynomial_testfn(quad=np.diag([1.0, 0, 0]))
    d = dbar(psi, np.array([1.0, 0, 0]), np.array([-1.0, 0, 0]), np.array([0.0, 1.0, 0]))
    assert_allclose(d, -2.0, atol=1e-14)


def test_dbar_pair_field_rejects_coincident():
    """A pair field lives on v != v*; dbar refuses a diagonal pair by name."""
    psi = fn.bump_testfn("DS", {"delta": 0.5, "R": 4.0})
    v = np.array([0.3, -0.2, 0.1])
    with pytest.raises(op.GeometryError, match="zero relative velocity"):
        dbar(psi, v, v.copy(), np.array([0.0, 0.0, 1.0]))


def test_pair_chunk_refuses_a_diagonal_pair():
    """A pair with v = v* has no collision frame: the chunk refuses it,
    naming the first such pair, instead of carrying it at zero weight."""
    v = np.array([[0.0, 0.0, 0.0], [0.25, -0.5, 1.0], [2.0, 0.0, 0.0]])
    vs = np.array([[1.0, 0.0, 0.0], [0.25, -0.5, 1.0], [2.0, 0.0, 0.0]])
    with pytest.raises(op.GeometryError,
                       match=re.escape(f"zero relative velocity at pair v={v[1]}, v*={vs[1]}")):
        op.PairChunk(v, vs)


def test_dtilde_kills_energy_gradient(rng):
    psi = fn.polynomial_testfn(quad=np.eye(3))
    v = rng.normal(size=(20, 3))
    vs = rng.normal(size=(20, 3)) + np.array([1.0, 0, 0])
    assert_allclose(op.PairChunk(v, vs).dtilde(psi, 0.0), 0.0, atol=1e-13)


def test_dtilde_constant_gradient():
    psi = fn.polynomial_testfn(linear=[1.0, 0, 0])
    out = op.PairChunk(np.array([0.3, 0.7, -0.2]), np.array([1.0, 0.1, 0.5])).dtilde(psi, -1.0)
    assert_allclose(out, 0.0, atol=1e-15)


def test_dtilde_hand_value():
    # psi = v1^2, v=(1,1,0), v*=(0,-1,0), gamma=0: u=(1,2,0), |u|=sqrt(5),
    # grad difference (2,0,0), projection leaves sqrt(5)*(8/5, -4/5, 0)
    psi = fn.polynomial_testfn(quad=np.diag([1.0, 0, 0]))
    out = op.PairChunk(np.array([1.0, 1.0, 0]), np.array([0.0, -1.0, 0])).dtilde(psi, 0.0)
    assert_allclose(out, np.sqrt(5.0) * np.array([1.6, -0.8, 0.0]), rtol=1e-14)


def test_dtilde_rejects_coincident():
    psi = fn.polynomial_testfn(quad=np.eye(3))
    with pytest.raises(op.GeometryError):
        op.PairChunk(np.ones(3), np.ones(3)).dtilde(psi, 0.0)


def test_dtilde_div_dtilde_energy_and_constant(rng):
    v = rng.normal(size=(20, 3))
    vs = rng.normal(size=(20, 3)) + np.array([1.0, 0, 0])
    chunk = op.PairChunk(v, vs)
    assert_allclose(chunk.r ** 2.0 * chunk.div_pi_grad(fn.polynomial_testfn(quad=np.eye(3))),
                    0.0, atol=1e-12)
    assert_allclose(chunk.r ** 1.0 * chunk.div_pi_grad(fn.polynomial_testfn(const=3.0)),
                    0.0, atol=1e-15)


# A field of a test function or mobility is keyed by the object itself. The
# tests below pass temporaries, freed after their call: fresh copies of a
# live object (dataclasses.replace), so that the next copy is built with
# almost no allocation in between and usually takes the freed one's address.
# A field keyed by that address would be read for the wrong object.
TRIALS = 200


def _pairs(rng):
    return rng.normal(size=(20, 3)), rng.normal(size=(20, 3)) + np.array([1.0, 0, 0])


def test_div_pi_grad_of_a_temporary_psi_is_its_own(rng):
    """After div_pi_grad of a temporary |v|^2, div_pi_grad of a temporary
    constant on the same chunk reads exactly 0, on each of 200 fresh chunks."""
    v, vs = _pairs(rng)
    energy, constant = fn.polynomial_testfn(quad=np.eye(3)), fn.polynomial_testfn(const=3.0)
    for _ in range(TRIALS):
        chunk = op.PairChunk(v, vs)
        chunk.div_pi_grad(dataclasses.replace(energy))
        bracket = chunk.div_pi_grad(dataclasses.replace(constant))
        assert np.all(bracket == 0.0)


def test_node_dbar_of_a_temporary_psi_is_its_own(rng):
    """dbar of two temporary quadratics on one node equals, bit for bit, each
    one's dbar on a fresh node, on each of 200 fresh chunks."""
    v, vs = _pairs(rng)
    psis = [fn.polynomial_testfn(quad=np.diag([1.0, -0.5, 0.25])),
            fn.polynomial_testfn(quad=np.eye(3)[[1, 0, 2]] - np.diag([0.0, 0.0, 1.0]))]

    def node():
        return op.CollisionNode(op.PairChunk(v, vs), 0.7, 8, None)

    refs = [node().dbar(psi) for psi in psis]
    for _ in range(TRIALS):
        at = node()
        values = [at.dbar(dataclasses.replace(psi)) for psi in psis]
        assert all(np.array_equal(d, ref) for d, ref in zip(values, refs))


def test_mobility_values_of_a_temporary_mobility_are_its_own(rng):
    """chunk.m, node.m and node.m_sym of two temporary mobilities read each
    one's own field, on each of 200 fresh chunks."""
    v, vs = _pairs(rng)
    fields = {c: (lambda at, c=c: np.full(at.r.shape, c)) for c in (1.0, 2.0)}
    for _ in range(TRIALS):
        chunk = op.PairChunk(v, vs)
        node = op.CollisionNode(chunk, 0.7, 8, None)
        for c, field in fields.items():
            values = (chunk.m(dp.Mobility("landau", field)),
                      node.m(dp.Mobility("boltzmann", field)),
                      node.m_sym(dp.Mobility("boltzmann", field)))
            assert all(np.all(m == c) for m in values)


def test_no_identity_keys_in_src():
    """No module of grazing_lab calls the builtin id: a cache keyed by an
    object's address reads a freed object's value for a later one."""
    src = Path(op.__file__).parent
    calls = [f"{path.name}:{node.lineno}" for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "id"]
    assert not calls, calls


def test_dtilde_div_dtilde_fd_oracle(rng):
    """dtilde.dtilde psi of a DS bump against |v-v*|^(2+gamma) times the
    generic bracket tr H - k.H k - (4/|v-v*|) k.g, with g and H central
    differences of psi.value in x = (v - v*)/2."""
    psi = fn.bump_testfn("DS", {"delta": 0.5, "R": 4.0},
                         modulation={"const": 0.3, "x_quad": np.diag([1.0, -0.4, 0.2])},
                         y_radius=5.0)
    gamma = -1.0
    psi_x = at_x(psi.value)
    bracket = projected_divergence(central_gradient(psi_x), central_hessian(psi_x))
    for _ in range(10):
        v = rng.normal(size=(1, 3))
        vs = v + np.array([[1.2, -0.4, 0.3]]) * rng.uniform(0.8, 1.4)
        r = np.linalg.norm(v - vs)
        num = float(r ** (2.0 + gamma) * bracket(0.5 * (v - vs), 0.5 * (v + vs))[0])
        chunk = op.PairChunk(v, vs)
        ana = float((chunk.r ** (2.0 + gamma) * chunk.div_pi_grad(psi))[0])
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
        chunk = op.PairChunk(v[None], vs[None])
        lim1 = 2.0 * float((chunk.r ** 2.0 * chunk.div_pi_grad(psi))[0])
        tls = chunk.dtilde(psi, 0.0)[0]
        lim2 = 8.0 * float(tls @ tls)
        floor = 1e-9 * (1.0 + abs(lim1) + abs(lim2))
        res1, res2 = [], []
        for eps in (0.25, 0.125, 0.0625):
            ker = kernel_work.with_epsilon(eps)
            a1 = float(sigma_average(v, vs, ker, work_spec, lambda n: n.dbar(psi))[0])
            a2 = float(sigma_average(v, vs, ker, work_spec, lambda n: n.dbar(psi) ** 2)[0])
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
        chunk = op.PairChunk(v[None], vs[None])
        lim1 = float((chunk.r ** 2.0 * chunk.div_pi_grad(psi))[0])
        tls = chunk.dtilde(psi, 0.0)[0]
        lim2 = 2.0 * float(tls @ tls)
        ker = kernel_work.with_epsilon(0.02)
        a1 = float(sigma_average(v, vs, ker, work_spec, lambda n: n.dbar(psi))[0])
        a2 = float(sigma_average(v, vs, ker, work_spec, lambda n: n.dbar(psi) ** 2)[0])
        assert abs(a1 - lim1) < 0.01 * (1.0 + abs(lim1))
        assert abs(a2 - lim2) < 0.01 * (1.0 + abs(lim2))


def test_first_difference_estimates(aniso, rng, sigma_at):
    """|dbar psi| <= Lip_x(psi) |2x| |sigma-k| and the Hessian variant,
    with sampled sups standing in for the true Lipschitz constants."""
    psi = fn.bump_testfn("DS", {"delta": 0.5, "R": 4.0},
                         modulation={"const": 1.0, "x_quad": np.diag([0.5, 0, -0.5])},
                         y_radius=5.0)
    # sample the gradient/Hessian sups over the support with headroom, by
    # central differences of psi.value
    xs = rng.normal(size=(200_000, 3))
    ys = rng.normal(size=(200_000, 3))
    g = central_gradient(at_x(psi.value))(xs, ys)
    H = central_hessian(at_x(psi.value))(xs[:50_000], ys[:50_000])
    lip = 1.05 * float(np.sqrt((g**2).sum(axis=1)).max())
    hnorm = 1.05 * float(np.abs(np.linalg.eigvalsh(H)).max())

    for _ in range(300):
        v = rng.normal(size=3)
        vs = rng.normal(size=3)
        if np.linalg.norm(v - vs) < 1e-6:
            continue
        theta = rng.uniform(0, np.pi / 2)
        phi = rng.uniform(0, 2 * np.pi)
        sigma, k, _ = sigma_at(v, vs, theta, phi)
        d = abs(dbar(psi, v, vs, sigma))
        two_x = np.linalg.norm(v - vs)
        sk = np.linalg.norm(sigma - k)
        assert d <= lip * two_x * sk + 1e-12
        assert d <= hnorm * two_x**2 * sk + 1e-12


def test_circle_average_second_order_estimate(rng, sigma_at):
    """|(1/2pi) int dbar psi dp| <= ||D2_x psi|| |2x|^2 |sigma-k|^2."""
    psi = fn.bump_testfn("DS", {"delta": 0.5, "R": 4.0},
                         modulation={"const": 1.0, "x_quad": np.diag([0.5, 0, -0.5])},
                         y_radius=5.0)
    xs = rng.normal(size=(50_000, 3))
    ys = rng.normal(size=(50_000, 3))
    H = central_hessian(at_x(psi.value))(xs, ys)
    hnorm = 1.05 * float(np.abs(np.linalg.eigvalsh(H)).max())
    nphi = 64
    phis = 2 * np.pi * np.arange(nphi) / nphi
    for _ in range(50):
        v = rng.normal(size=3)
        vs = rng.normal(size=3) + np.array([1.2, 0, 0])
        theta = rng.uniform(0, np.pi / 2)
        vals = dbar(psi, v, vs, sigma_at(v, vs, theta, phis)[0])
        avg = abs(float(np.mean(vals)))
        two_x = np.linalg.norm(v - vs)
        sk2 = 2.0 * (1.0 - np.cos(theta))
        assert avg <= hnorm * two_x**2 * sk2 + 1e-12


def test_scaled_difference_limits(rng, sigma_at):
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
        chunk = op.PairChunk(v[None], vs[None])
        g = chunk.grad(psi)[0]
        res_first, res_avg = [], []
        for eps in (0.0625, 0.03125, 0.015625, 0.0078125):
            theta = eps * chi / np.pi
            sigma, _, p = sigma_at(v, vs, theta, 0.7)
            lim = (chi / (2 * np.pi)) * r * float(p @ g)
            res_first.append(abs(float(dbar(psi, v, vs, sigma)) / eps - lim))
            vals = dbar(psi, v, vs, sigma_at(v, vs, theta, phis)[0])
            circ = float(np.sum(vals)) * (2 * np.pi / nphi)
            lim_avg = (1.0 / (8 * np.pi)) * float((chunk.r ** 2.0 * chunk.div_pi_grad(psi))[0])
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
    study = op.grazing_limit_study(aniso, [psi], kernel_work, [1.0, 0.5, 0.25, 0.125],
                                   work_spec)
    abs_errors = [row["abs_err"] for row in study["rows"]]
    assert all(b < a for a, b in zip(abs_errors, abs_errors[1:]))
    assert study["fitted_order"][0] is not None and study["fitted_order"][0] >= 0.9
    assert len(study["rows"]) == 4


def test_grazing_limit_study_equilibrium(maxwellian, kernel_light, light_spec):
    psi = fn.polynomial_testfn(quad=np.diag([0, 0, 1.0]))
    study = op.grazing_limit_study(maxwellian, [psi], kernel_light, [0.5, 0.25, 0.125],
                                   light_spec)
    assert all(row["abs_err"] <= study["noise_floor"][0] for row in study["rows"])
    assert study["fitted_order"] == [None]


def test_grazing_limit_study_validation(aniso, kernel_light, light_spec):
    psi = INVARIANTS[0]
    with pytest.raises(op.OperatorError):
        op.grazing_limit_study(aniso, [psi], kernel_light, [1.0, 0.5], light_spec)
    with pytest.raises(op.OperatorError):
        op.grazing_limit_study(aniso, [psi], kernel_light, [0.5, 1.0, 0.25], light_spec)


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


def _nan_at(pair_v, pair_vs):
    """A pair mask selecting exactly the pair (pair_v, pair_vs)."""
    def mask(v, vs):
        return np.all(v == pair_v, axis=-1) & np.all(vs == pair_vs, axis=-1)
    return mask


def test_pair_reduce_rejects_nonfinite_chunk(aniso, light_spec):
    from grazing_lab.quadrature import QuadratureError

    grid = op.pair_grid(aniso, light_spec)
    hit = _nan_at(grid.pts[2], grid.pts[5])

    def term(c):
        return np.where(hit(c.v, c.v_star), np.nan, c.r**2)

    with pytest.raises(QuadratureError, match="'bad'") as exc:
        op.pair_reduce(grid, {"good": lambda c: c.r**2, "bad": term})
    assert f"v={grid.pts[2]}, v*={grid.pts[5]}" in str(exc.value)


def test_pair_reduce_fans_chunks_out_with_the_same_bits(mixture, light_spec, monkeypatch):
    """pair_reduce maps its chunks through parallel_map, one item per chunk:
    on the mixture, the Landau dissipation runs one pair_reduce per
    quadrature level and a Landau action one at the given level, each over
    more than one chunk."""
    items = []
    parallel_map = op.parallel_map

    def counted(fnc, starts):
        starts = list(starts)
        items.append(len(starts))
        return parallel_map(fnc, starts)

    monkeypatch.setattr(op, "parallel_map", counted)
    M = dp.gradient_mobility_landau(fn.gaussian_testfn(const=1.0, quad=np.diag([0, 0, 1.0]),
                                                       width=4.0), -1.0)
    dp.landau_dissipation(mixture, -1.0, light_spec)
    dp.landau_action(mixture, M, light_spec)
    chunks = [-(-op.pair_grid(mixture, s).n_pairs // op.CHUNK)
              for s in (light_spec.coarsened(), light_spec)]
    assert items == chunks + chunks[1:] and min(chunks) > 1


def test_collision_sweep_rejects_nonfinite_chunk(aniso, kernel_light, light_spec):
    from grazing_lab.quadrature import QuadratureError

    grid = op.pair_grid(aniso, light_spec)
    hit = _nan_at(grid.pts[1], grid.pts[40])

    def term(node):
        nan = np.where(hit(node.pair.v, node.pair.v_star), np.nan, 0.0)[:, None]
        return node.dbar(INVARIANTS[0]) + nan

    with pytest.raises(QuadratureError, match="'bad'") as exc:
        op.collision_sweep(grid, kernel_light, light_spec, {"bad": (term, lambda c: c.kin)})
    assert f"v={grid.pts[1]}, v*={grid.pts[40]}" in str(exc.value)


def test_pair_chunk_forms_landau_fields_from_its_frame(rng):
    """dtilde psi and the dtilde.dtilde bracket of a DS bump, the chunk's
    closed forms in its envelope and Q, match the generic formulas
    r^(1+gamma/2) Pi g and tr(Pi H) - (4/r) k.g built from scratch, with g
    and H central differences of psi.value."""
    psi = fn.bump_testfn("DS", {"delta": 0.4, "R": 5.0},
                         modulation={"const": 0.0, "x_quad": np.diag([1.0, 0.5, -1.5])},
                         y_radius=6.0)
    v = rng.normal(size=(50, 3))
    vs = rng.normal(size=(50, 3))
    c = op.PairChunk(v, vs)
    u = v - vs
    r = np.linalg.norm(u, axis=-1)
    k = u / r[:, None]
    proj = np.eye(3) - k[:, :, None] * k[:, None, :]
    x, y = 0.5 * u, 0.5 * (v + vs)
    g = central_gradient(at_x(psi.value))(x, y)
    assert_allclose(c.dtilde(psi, -1.0),
                    (r ** 0.5)[:, None] * np.einsum("nij,nj->ni", proj, g), rtol=1e-6,
                    atol=1e-8)
    H = central_hessian(at_x(psi.value))(x, y)
    bracket = np.einsum("nij,nji->n", proj, H) - 4.0 / r * np.sum(k * g, axis=-1)
    assert np.abs(bracket).max() > 0.1
    assert_allclose(c.div_pi_grad(psi), bracket, rtol=1e-5, atol=1e-7)


# a DS bump on the annulus (7/4, 15/4): R - delta = 2, so at |v - v*| = 7a,
# a = 1/4 + eta, the window's argument is t = 7 eta - 1 and t^2 is exact
EDGE_DELTA, EDGE_R = 1.75, 3.75
EDGE_C0 = 0.7
EDGE_Q = [[0.9, 0.05, -0.05], [0.05, 0.9, 0.05], [-0.05, 0.05, -0.3]]


def _edge_pairs():
    """Pairs with |v - v*| = 7 (1/4 + eta), 0.1 % to 0.8 % above delta, along
    the directions (2, 3, 6)/7 up to order and sign, where every float step
    from (v, v*) to the window's 1 - t^2 is exact: the window is
    exp(-1/(1 - t^2)), whose relative condition number in |v - v*| is ~1e5
    this close to delta, so a rounded |v - v*| alone would move it by 1e-11."""
    import itertools

    dirs = [np.array(p, dtype=float) * sign
            for p in itertools.permutations((2.0, 3.0, 6.0))
            for sign in (np.array([1.0, 1.0, 1.0]), np.array([-1.0, 1.0, -1.0]))]
    ys = [np.array([0.5, -0.25, 0.75]), np.array([-1.0, 0.5, 0.25]), np.array([0.125, 1.5, -0.5])]
    v, vs = [], []
    for i, (eta, d) in enumerate(itertools.product(2.0 ** -np.arange(9, 13), dirs)):
        u = (0.25 + eta) * d
        v.append(ys[i % 3] + 0.5 * u)
        vs.append(ys[i % 3] - 0.5 * u)
    return np.array(v), np.array(vs)


def _mp_ds_landau(v, vs, gamma):
    """(dtilde psi, tr H - k.H k - (4/r) k.g) of the EDGE bump at one pair,
    in mpmath at 50 digits from the generic g = (grad - grad_*) psi and its
    Hessian H in x = (v - v*)/2, with the window's W' and W'' by mpmath's
    numerical differentiation."""
    import mpmath as mp

    with mp.workdps(50):
        v, vs = mp.matrix(v.tolist()), mp.matrix(vs.tolist())
        x, y = (v - vs) / 2, (v + vs) / 2
        rho = mp.norm(x)
        xhat = x / rho
        Q = mp.matrix(EDGE_Q)

        def W(s):
            t = (2 * s - (EDGE_R + EDGE_DELTA)) / (EDGE_R - EDGE_DELTA)
            return mp.exp(-1 / (1 - t**2))

        s = 2 * rho
        W0, W1, W2 = W(s), mp.diff(W, s, 1), mp.diff(W, s, 2)
        G = mp.exp(-1 / (1 - (y.T * y)[0] / 36))
        m = EDGE_C0 + (x.T * Q * x)[0]
        dm = 2 * Q * x
        # psi = W(2|x|) G m: g and H by the chain rule in x
        g = G * (2 * W1 * m * xhat + W0 * dm)
        eye = mp.eye(3)
        H = G * (4 * W2 * m * xhat * xhat.T + (2 * W1 * m / rho) * (eye - xhat * xhat.T)
                 + 2 * W1 * (xhat * dm.T + dm * xhat.T) + 2 * W0 * Q)
        kg = (xhat.T * g)[0]
        bracket = sum(H[i, i] for i in range(3)) - (xhat.T * H * xhat)[0] - (2 / rho) * kg
        dtilde = s ** (1 + mp.mpf(gamma) / 2) * (g - kg * xhat)
        return np.array([float(c) for c in dtilde]), float(bracket)


def test_ds_landau_pieces_near_delta_match_mpmath():
    """Just above delta the DS dtilde psi and dtilde.dtilde bracket, taken
    from the envelope and Q alone, meet the generic formula in W, W' and W''
    evaluated in mpmath at 50 digits to 1e-13 relative (c0 != 0, tr Q != 0).
    There W'/W ~ 1e5 and W''/W ~ 1e10, and those terms cancel in Pi g and in
    the bracket only analytically, so a float route through W' and W''
    misses both by far more."""
    psi = fn.bump_testfn("DS", {"delta": EDGE_DELTA, "R": EDGE_R},
                         modulation={"const": EDGE_C0, "x_quad": EDGE_Q})
    gamma = -1.0
    v, vs = _edge_pairs()
    chunk = op.PairChunk(v, vs)
    dtilde, bracket = chunk.dtilde(psi, gamma), chunk.div_pi_grad(psi)
    assert np.all(chunk.r > EDGE_DELTA) and np.all(chunk.r < 1.008 * EDGE_DELTA)
    for i in range(v.shape[0]):
        want_dtilde, want_bracket = _mp_ds_landau(v[i], vs[i], gamma)
        assert want_bracket != 0.0
        assert abs(bracket[i] - want_bracket) <= 1e-13 * abs(want_bracket), i
        assert np.abs(dtilde[i] - want_dtilde).max() <= 1e-13 * np.abs(want_dtilde).max(), i


GAUSSIAN = {"const": 0.7, "linear": [0.2, -0.1, 0.4],
            "quad": [[0.5, 0.1, 0.0], [0.1, -0.3, 0.2], [0.0, 0.2, 1.0]],
            "center": [0.3, -0.4, 0.5], "width": 2.5}

COLLISION_FRAME_CASES = {
    "DS": fn.bump_testfn("DS", {"delta": 0.4, "R": 5.0},
                         modulation={"const": 0.3, "x_quad": [[1.0, 0.2, 0.0], [0.2, 1.0, 0.0],
                                                              [0.0, 0.0, -2.0]]},
                         y_radius=6.0),
    "poly": fn.polynomial_testfn(const=1.0, linear=[0.3, -0.2, 0.1],
                                 quad=[[0.5, 0.1, 0.0], [0.1, 0.0, 0.2], [0.0, 0.2, 1.0]]),
    "gaussian": fn.gaussian_testfn(**GAUSSIAN),
}


def _node_dbar_against_four_point(psi, f, eps, spec):
    """max |node.dbar - four-point difference| and max |node.dbar| over the
    theta nodes of one chunk. The four-point side is collision_oracle.dbar,
    which forms its own v' and v*' from the node's sigma, so a fault in
    CollisionNode._post shows here."""
    ker = kn.build_kernel(gamma=0.0, nu=0.5, epsilon=eps, spec=spec)
    chunk = op.pair_grid(f, spec).chunk(0, op.CHUNK, ker)
    worst = largest = 0.0
    for _, node in op.collision_nodes(chunk, spec, ker):
        four = dbar(psi, node.v, node.v_star, node.sigma)
        d = node.dbar(psi)
        worst = max(worst, float(np.abs(d - four).max()))
        largest = max(largest, float(np.abs(d).max()))
    return worst, largest


FRAME_SPEC = QuadratureSpec(pair_nodes=6, theta_panels=2, theta_nodes_per_panel=8,
                            sphere_phi_nodes=8)


@pytest.mark.parametrize("name", ["DS", "poly", "gaussian"])
def test_collision_frame_dbar_matches_four_point(aniso, name):
    """The collision-frame dbar of a DS bump, a quadratic polynomial and a
    general Gaussian agrees with the four-point difference of psi.value at
    v', v*' to within the four-point rounding at a wide kernel, and for the
    first two at a grazing one. At eps = 1e-5 the Gaussian's four-point
    difference is itself off by ~1e-10 of the largest |dbar| (a few ulp of
    |psi(v')|), so its grazing check is against mpmath (below)."""
    psi = COLLISION_FRAME_CASES[name]
    worst_wide, scale = _node_dbar_against_four_point(psi, aniso, 0.5, FRAME_SPEC)
    assert worst_wide <= 1e-13 * scale
    if name != "gaussian":
        worst_grazing, _ = _node_dbar_against_four_point(psi, aniso, 1e-5, FRAME_SPEC)
        assert worst_grazing <= 1e-13 * scale


def _mp_dbar(fn_mp, y, r, k, p, theta):
    """The four-point difference fn(v') + fn(v*') - fn(v) - fn(v*) in mpmath
    at 60 digits, at the collision with centre y, |v - v*| = r, axis k,
    azimuth p and deflection theta; fn_mp takes and returns mpmath values.
    k and p are orthonormalised in mpmath, so the rounding of the float
    frame stays out of the reference."""
    import mpmath as mp

    with mp.workdps(60):
        y, r, th = mp.matrix(y.tolist()), mp.mpf(float(r)), mp.mpf(float(theta))
        k = mp.matrix(k.tolist())
        k = k / mp.norm(k)
        p = mp.matrix(p.tolist())
        p = p - (k.T * p)[0] * k
        p = p / mp.norm(p)
        sigma = mp.cos(th) * k + mp.sin(th) * p
        d = (fn_mp(y + r / 2 * sigma) + fn_mp(y - r / 2 * sigma)
             - fn_mp(y + r / 2 * k) - fn_mp(y - r / 2 * k))
        return float(d)


def _mp_gaussian_dbar(y, r, k, p, theta):
    """The four-point dbar of the GAUSSIAN case in mpmath at 60 digits."""
    import mpmath as mp

    def psi(v):
        c0, w = mp.mpf(GAUSSIAN["const"]), mp.mpf(GAUSSIAN["width"])
        b, c = mp.matrix(GAUSSIAN["linear"]), mp.matrix(GAUSSIAN["center"])
        u = v - c
        return ((c0 + (b.T * u)[0] + (u.T * mp.matrix(GAUSSIAN["quad"]) * u)[0])
                * mp.exp(-(u.T * u)[0] / (2 * w**2)))

    return _mp_dbar(psi, y, r, k, p, theta)


def test_gaussian_collision_frame_dbar_at_grazing_matches_mpmath(aniso):
    """At eps = 1e-5 the collision-frame dbar of the general Gaussian meets
    the four-point difference taken in mpmath at 60 digits to 1e-12 of the
    largest |dbar| sampled, at six (pair, azimuth) samples of every theta
    node of one chunk; the float four-point difference misses it by ~1e-10."""
    psi = COLLISION_FRAME_CASES["gaussian"]
    ker = kn.build_kernel(gamma=0.0, nu=0.5, epsilon=1e-5, spec=FRAME_SPEC)
    chunk = op.pair_grid(aniso, FRAME_SPEC).chunk(0, op.CHUNK, ker)
    rng = np.random.default_rng(5)
    worst = largest = 0.0
    for _, node in op.collision_nodes(chunk, FRAME_SPEC, ker):
        d = node.dbar(psi)
        for i, j in zip(rng.integers(0, chunk.r.size, 6), rng.integers(0, node.n_phi, 6)):
            ref = _mp_gaussian_dbar(chunk.y[i], chunk.r[i], chunk.k[i], node.p[i, j], node.theta)
            worst = max(worst, abs(d[i, j] - ref))
            largest = max(largest, abs(ref))
    assert largest > 0.0
    assert worst <= 1e-12 * largest


@pytest.mark.parametrize("eps", [0.5, 1e-5])
def test_node_dlogF_matches_mpmath(aniso, eps):
    """For one Gaussian, node.dlogF (dbar of -v^T P v/2 in the collision
    frame) meets log f(v') + log f(v*') - log f(v) - log f(v*) taken in
    mpmath at 60 digits to 1e-14 of the largest |Delta| sampled, at six
    (pair, azimuth) samples of every theta node of one chunk of the pinned
    N(0, diag(1, 1, 4)), with no density evaluation at v' or v*'."""
    import mpmath as mp

    assert aniso.log_pair_form is not None
    mu, cov = aniso.means[0], aniso.cov_diags[0]

    def log_f(v):
        # the normalisation cancels in the four-point difference
        return -sum((v[i] - mp.mpf(mu[i])) ** 2 / (2 * mp.mpf(cov[i])) for i in range(3))

    ker = kn.build_kernel(gamma=0.0, nu=0.5, epsilon=eps, spec=FRAME_SPEC)
    chunk = op.pair_grid(aniso, FRAME_SPEC).chunk(0, op.CHUNK, ker)
    rng = np.random.default_rng(11)
    worst = largest = 0.0
    for _, node in op.collision_nodes(chunk, FRAME_SPEC, ker):
        d = node.dlogF
        assert "_post" not in node.__dict__
        for i, j in zip(rng.integers(0, chunk.r.size, 6), rng.integers(0, node.n_phi, 6)):
            ref = _mp_dbar(log_f, chunk.y[i], chunk.r[i], chunk.k[i], node.p[i, j], node.theta)
            worst = max(worst, abs(d[i, j] - ref))
            largest = max(largest, abs(ref))
    assert largest > 0.0
    assert worst <= 1e-14 * largest


def _mp_log_mixture(f):
    """log f in mpmath for a mixture of axis-aligned Gaussians."""
    import mpmath as mp

    def log_f(v):
        total = 0
        for w, mu, d in zip(f.weights, f.means, f.cov_diags):
            q = sum((v[i] - mp.mpf(mu[i])) ** 2 / mp.mpf(d[i]) for i in range(3))
            norm = mp.sqrt((2 * mp.pi) ** 3 * mp.mpf(d[0]) * mp.mpf(d[1]) * mp.mpf(d[2]))
            total += mp.mpf(w) * mp.exp(-q / 2) / norm
        return mp.log(total)

    return log_f


# unequal weights and anisotropic covariances, so that p.P k != 0
SKEW_MIXTURE = fn.gaussian_mixture([(0.3, [1.0, 0.5, 0.0], [1.0, 0.5, 2.0]),
                                    (0.7, [-1.0, 0.0, 0.5], [2.0, 1.0, 0.5])])


@pytest.mark.parametrize("eps", [0.5, 1e-5])
@pytest.mark.parametrize("skew", [False, True], ids=["pinned", "skew"])
def test_mixture_node_dlogF_matches_mpmath(mixture, skew, eps):
    """For the two-component 1/2 N((+-2, 0, 0), I), and for a mixture with
    unequal weights and anisotropic covariances, node.dlogF, taken through
    the responsibilities in the collision frame, meets log f(v') + log f(v*')
    - log f(v) - log f(v*) taken in mpmath at 60 digits to 1e-14 of the
    largest |Delta| sampled, at six (pair, azimuth) samples of every theta
    node of one chunk, with no density evaluation at v' or v*'. At
    eps = 1e-5 the float log-sum-exp at the four points is off by ~2e-10 of
    the largest |Delta|."""
    mixture = SKEW_MIXTURE if skew else mixture
    assert mixture.log_pair_form is None
    log_f = _mp_log_mixture(mixture)
    ker = kn.build_kernel(gamma=0.0, nu=0.5, epsilon=eps, spec=FRAME_SPEC)
    chunk = op.pair_grid(mixture, FRAME_SPEC).chunk(0, op.CHUNK, ker)
    rng = np.random.default_rng(11)
    worst = largest = 0.0
    for _, node in op.collision_nodes(chunk, FRAME_SPEC, ker):
        d = node.dlogF
        assert "_post" not in node.__dict__
        for i, j in zip(rng.integers(0, chunk.r.size, 6), rng.integers(0, node.n_phi, 6)):
            ref = _mp_dbar(log_f, chunk.y[i], chunk.r[i], chunk.k[i], node.p[i, j], node.theta)
            worst = max(worst, abs(d[i, j] - ref))
            largest = max(largest, abs(ref))
    assert largest > 0.0
    assert worst <= 1e-14 * largest


def _right_angle_node(f, v, v_star):
    """The theta = pi/2 node of a PairChunk of the given pairs, at 8 azimuths;
    for a pair along e3 the first azimuth is e1."""
    chunk = op.PairChunk(np.array(v, dtype=float), np.array(v_star, dtype=float), f=f)
    return chunk, op.CollisionNode(chunk, np.pi / 2, 8, None)


def _dlogF_against_mpmath(f, chunk, node):
    """max over the node's (pair, azimuth) of |dlogF - mpmath| / max(1, |mpmath|)."""
    log_f = _mp_log_mixture(f)
    d = node.dlogF
    assert np.all(np.isfinite(d))
    worst = 0.0
    for i in range(chunk.r.size):
        for j in range(node.n_phi):
            ref = _mp_dbar(log_f, chunk.y[i], chunk.r[i], chunk.k[i], node.p[i, j], node.theta)
            worst = max(worst, abs(d[i, j] - ref) / max(1.0, abs(ref)))
    return worst


def test_mixture_dlogF_where_expm1_would_overflow():
    """A narrow component N((3, 0, 0), 1e-3 I) next to N(0, I): the pair
    (0, 0, +-3) sends v' onto the narrow mode at theta = pi/2, where
    d_k = log N_k(v') - log N_k(v) is ~9000 and expm1(d_k) overflows. The
    node takes log sum_k e^(log pi_k + d_k) there, with no overflow warning
    (a RuntimeWarning fails the test), and Delta meets mpmath to 1e-12
    relative, the rounding of its ~9000-sized exponents."""
    f = fn.gaussian_mixture([(0.5, [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]),
                             (0.5, [3.0, 0.0, 0.0], [1e-3, 1e-3, 1e-3])])
    chunk, node = _right_angle_node(f, [[0.0, 0.0, 3.0], [0.5, 0.2, 2.0]],
                                    [[0.0, 0.0, -3.0], [-0.4, 0.1, -2.5]])
    up, _, uk, _, qpp, qpk, qkk = chunk.mixture_forms(8)[1][0]
    # d_k at v for the narrow component; at theta = pi/2, sin(theta) = 2 sin^2(theta/2) = 1
    assert np.max(up - uk - (qpp - qpk + qkk)) > 700.0
    assert _dlogF_against_mpmath(f, chunk, node) <= 1e-12


def test_mixture_dlogF_where_the_ratio_vanishes(mixture):
    """At theta = pi/2 the pair v = (2, 0, 0), v* = (2, 0, 16) sends v from
    a mode to (10, 0, 8), where f(v')/f(v) ~ e^-64: S = f(v')/f(v) - 1 rounds
    to -1 and log1p(S) would be -inf. The node takes
    log sum_k e^(log pi_k + d_k) there, and Delta meets mpmath to 1e-13."""
    chunk, node = _right_angle_node(mixture, [[2.0, 0.0, 0.0], [-2.0, 1.0, 0.0]],
                                    [[2.0, 0.0, 16.0], [-2.0, -1.0, 15.0]])
    s, _ = node.ratio_m1
    assert s.min() == -1.0
    assert _dlogF_against_mpmath(mixture, chunk, node) <= 1e-13


def test_narrow_gaussian_takes_the_four_points(aniso):
    """Where e^(s' - s) could overflow on a chunk (r |y - c| / w^2 > 700), a
    Gaussian's node.dbar evaluates psi at v' and v*' instead and agrees with
    collision_oracle.dbar. At w = 0.1 the collision-frame form would overflow
    in expm1 at some nodes of this chunk."""
    post_calls = []
    narrow = fn.gaussian_testfn(const=1.0, linear=[0.5, 0.0, 0.0], width=0.1)

    def counted(v, _value=narrow.value):
        if np.ndim(v) == 3:
            post_calls.append(1)
        return _value(v)

    psi = dataclasses.replace(narrow, value=counted)
    ker = kn.build_kernel(gamma=0.0, nu=0.5, epsilon=0.5, spec=FRAME_SPEC)
    chunk = op.pair_grid(aniso, FRAME_SPEC).chunk(0, op.CHUNK, ker)
    assert chunk.gaussian_forms(psi, FRAME_SPEC.sphere_phi_nodes) is None
    for _, node in op.collision_nodes(chunk, FRAME_SPEC, ker):
        d = node.dbar(psi)
        assert np.all(np.isfinite(d))
        assert_allclose(d, dbar(narrow, node.v, node.v_star, node.sigma), rtol=0, atol=1e-15)
    assert post_calls

