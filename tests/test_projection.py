import dataclasses
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from divergence_oracle import on_frame, projected_divergence
from grazing_lab import cli
from grazing_lab import functions as fn
from grazing_lab import projection as pj
from grazing_lab._sphharm import SphereTransform, _legendre_tables
from grazing_lab.functions import sq3

GAMMA = -1.0
DELTA, R = 0.5, 4.0
PINNED = Path(__file__).resolve().parent / "golden" / "projection.json"


@pytest.fixture(scope="module")
def grid():
    return pj.shell_grid(DELTA, R, n_shells=4, y_radius=3.0, n_y=3, lmax=12)


@pytest.fixture(scope="module")
def generic_V():
    A = np.array([[0.0, 1.0, 0.3], [-0.5, 0.2, 0.0], [0.1, -0.7, 0.4]])
    return fn.bump_testfn("AS", {"delta": DELTA, "R": R},
                          modulation={"matrix": A}, y_radius=3.0)


def test_sphere_transform_round_trip():
    tr = SphereTransform(lmax=10, n_theta=14, n_phi=24)
    k, _, _ = tr.unit_vectors()
    g = k[..., 0] ** 2 - k[..., 1] * k[..., 2]
    assert np.abs(tr.synthesize(tr.analyze(g)) - g).max() < 1e-13


def _laplacian_coeffs(tr, coeffs):
    """Spectral Laplace-Beltrami: degree l times -l(l+1)."""
    ls = np.arange(tr.lmax + 1)
    return coeffs * (-(ls * (ls + 1.0)))[:, None]


def test_sphere_transform_eigenvalue():
    tr = SphereTransform(lmax=10, n_theta=14, n_phi=24)
    k, _, _ = tr.unit_vectors()
    g = k[..., 0] * k[..., 1]  # degree-2 harmonic
    lap = tr.synthesize(_laplacian_coeffs(tr, tr.analyze(g)))
    assert np.abs(lap + 6.0 * g).max() < 1e-12


def test_rhs_zero_field(grid):
    V0 = fn.bump_testfn("AS", {"delta": DELTA, "R": R},
                        modulation={"matrix": np.zeros((3, 3))}, y_radius=3.0)
    tr = grid.transform()
    coeffs = pj.sphere_rhs(V0, 1.0, np.zeros(3), GAMMA, tr)
    assert np.abs(coeffs).max() == 0.0


def test_rhs_divergence_free_rotation(grid):
    """W(|2x|) (x x c) is tangentially divergence-free on every shell, so the
    right-hand side vanishes identically and the projection is zero."""
    c = np.array([0.3, -1.0, 0.7])
    sup = fn.Support(DELTA, R)

    def value(x, y):
        s = 2.0 * np.sqrt(np.sum(x**2, axis=-1))
        W = fn._window(s, sup)
        return W[..., None] * np.cross(x, c)

    def jac_x(x, y):
        r = np.sqrt(np.sum(x**2, axis=-1))
        s = 2.0 * r
        W = fn._window(s, sup)
        # W = exp(-1/(1 - t^2)) with t = (2s - R - delta)/(R - delta)
        t = (2.0 * s - (R + DELTA)) / (R - DELTA)
        W1 = W * (-2.0 * t / np.where(W > 0.0, 1.0 - t**2, 1.0) ** 2) * (2.0 / (R - DELTA))
        xhat = x / np.maximum(r, 1e-300)[..., None]
        cross = np.cross(x, c)
        eps = np.zeros((3, 3, 3))
        eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1.0
        eps[0, 2, 1] = eps[2, 1, 0] = eps[1, 0, 2] = -1.0
        dcross = np.einsum("ikj,k->ij", eps, c)
        out = (2.0 * W1)[..., None, None] * xhat[..., :, None] * cross[..., None, :]
        out = out + W[..., None, None] * dcross
        return out

    V = fn.PairVectorField(value=on_frame(value),
                           div_pi=on_frame(projected_divergence(value, jac_x)))
    tr = grid.transform()
    coeffs = pj.sphere_rhs(V, 1.0, np.array([0.2, 0.1, -0.3]), GAMMA, tr)
    assert np.abs(coeffs).max() < 1e-13
    psi, res = pj.sphere_poisson_solve(coeffs)
    assert np.abs(psi).max() < 1e-13
    assert res < 1e-13


def test_rhs_mean_vanishes(grid, generic_V):
    tr = grid.transform()
    for r in grid.radii:
        coeffs = pj.sphere_rhs(generic_V, float(r), np.array([0.5, -0.2, 0.1]),
                               GAMMA, tr)
        mean = coeffs[0, tr.lmax] / np.sqrt(4 * np.pi)
        assert abs(mean) < 1e-10


def test_solve_eigen_examples():
    lmax = 8
    rhs = np.zeros((lmax + 1, 2 * lmax + 1))
    rhs[1, lmax + 1] = 3.0
    psi, res = pj.sphere_poisson_solve(rhs)
    assert_allclose(psi[1, lmax + 1], -1.5)
    assert res < 1e-14
    rhs = np.zeros((lmax + 1, 2 * lmax + 1))
    rhs[2, lmax - 2] = 6.0
    psi, _ = pj.sphere_poisson_solve(rhs)
    assert_allclose(psi[2, lmax - 2], -1.0)
    psi, res = pj.sphere_poisson_solve(np.zeros((lmax + 1, 2 * lmax + 1)))
    assert np.all(psi == 0.0) and res == 0.0


def test_solve_rejects_nonzero_mean():
    lmax = 8
    rhs = np.zeros((lmax + 1, 2 * lmax + 1))
    rhs[0, lmax] = 1.0
    with pytest.raises(pj.ProjectionError, match="mean"):
        pj.sphere_poisson_solve(rhs)


def test_rhs_rejects_non_as_class(grid):
    sup = fn.Support(DELTA, R)

    def value(x, y):
        # purely radial field: Pi kills it pointwise, but the projected
        # divergence keeps -(2/|x|) k.V, whose spherical mean is nonzero
        r = np.sqrt(np.sum(x**2, axis=-1))
        s = 2.0 * r
        W = fn._window(s, sup)
        khat = x / np.maximum(r, 1e-300)[..., None]
        return W[..., None] * khat

    V = fn.PairVectorField(value=on_frame(value),
                           div_pi=on_frame(projected_divergence(value, h=1e-6)))
    tr = grid.transform()
    with pytest.raises(pj.ProjectionError, match="non-solvable"):
        pj.sphere_rhs(V, 1.0, np.zeros(3), GAMMA, tr)


def test_projection_diagnostics(grid, generic_V):
    field, diag = pj.project_vector_field(generic_V, grid, GAMMA)
    assert diag["max_spectral_residual"] < 1e-10
    assert diag["max_odd_degree_coeff"] < 1e-10
    total = diag["norm_projected_V_sq"]
    gap = abs(total - diag["norm_gradient_sq"] - diag["norm_residual_sq"])
    assert gap < 1e-6 * total


def test_projection_round_trip(grid):
    phi = fn.bump_testfn("DS", {"delta": DELTA, "R": R},
                         modulation={"const": 0.0, "x_quad": np.diag([1.0, -0.3, -0.7])},
                         y_radius=3.0)
    Vg = fn.gradient_type_field(phi, GAMMA)
    field, diag = pj.project_vector_field(Vg, grid, GAMMA)
    assert diag["norm_residual_sq"] < 1e-12 * max(diag["norm_projected_V_sq"], 1e-300)
    tr = grid.transform()
    k, _, _ = tr.unit_vectors()
    for a, r in enumerate(grid.radii):
        for b in range(grid.y_nodes.shape[0]):
            target = phi.value(2.0 * float(r), k, grid.y_nodes[b])
            target = target - float((tr.quad_weights * target).sum()) / (4 * np.pi)
            rec = tr.synthesize(field.coefficients[a, b])
            assert np.abs(rec - target).max() < 1e-6


def test_pythagoras_zero_field(grid):
    V0 = fn.bump_testfn("AS", {"delta": DELTA, "R": R},
                        modulation={"matrix": np.zeros((3, 3))}, y_radius=3.0)
    field, _ = pj.project_vector_field(V0, grid, GAMMA)
    nV, nG, nR = pj.pythagoras_check(V0, field, GAMMA)
    assert nV == 0.0 and nG == 0.0 and nR == 0.0


def test_shell_grid_validation():
    with pytest.raises(pj.ProjectionError):
        pj.ShellGrid(radii=np.array([1.0, 0.5]), radial_weights=np.ones(2),
                     y_nodes=np.zeros((1, 3)), y_weights=np.ones(1),
                     lmax=8, n_theta=12, n_phi=20)
    with pytest.raises(pj.ProjectionError, match="y weights"):
        pj.shell_grid(DELTA, R, n_shells=3, y_radius=-3.0, n_y=3, lmax=8)


def _pinned_projection(n_y: int):
    """The pinned projection config at n_y, filled, and its grid and fields."""
    config = json.loads(PINNED.read_text())["config"]
    config["params"]["n_y"] = n_y
    cfg = cli.validate_config(config)
    return (cfg, *cli.build_projection(cfg))


def _box_grid(grid: pj.ShellGrid, y_radius: float, n_y: int) -> tuple[pj.ShellGrid, np.ndarray]:
    """grid with the whole n_y^3 Gauss-Legendre tensor rule of the box
    [-y_radius, y_radius]^3 as its y rule, and the mask of the box nodes that
    grid keeps, read from its nodes' coordinates."""
    t, w = np.polynomial.legendre.leggauss(n_y)
    axis, aw = y_radius * t, y_radius * w
    Y = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    WY = (aw[:, None, None] * aw[None, :, None] * aw[None, None, :]).reshape(-1)
    kept = {tuple(y) for y in grid.y_nodes}
    mask = np.array([tuple(y) in kept for y in Y])
    assert np.array_equal(Y[mask], grid.y_nodes) and np.array_equal(WY[mask], grid.y_weights)
    return dataclasses.replace(grid, y_nodes=Y, y_weights=WY), mask


def test_dropped_y_nodes_carry_exact_zeros():
    """At each of the 92 box nodes the pinned grid drops, the AS field's and
    the gradient-type field's value and div_pi, and the DS bump's value, are
    exactly 0.0 on every shell, at the solve's sphere grid and at the
    Pythagoras check's 2x grid."""
    cfg, grid, V, phi = _pinned_projection(5)
    box, kept = _box_grid(grid, cfg["params"]["y_radius"], 5)
    assert (kept.size, int(kept.sum())) == (125, 33)
    Vg = fn.gradient_type_field(phi, cfg["kernel"]["gamma"])
    tr = grid.transform()
    fine = SphereTransform(lmax=grid.lmax, n_theta=2 * grid.n_theta, n_phi=2 * grid.n_phi)
    for r in grid.radii:
        for sphere in (tr, fine):
            pairs = pj.shell_pairs(float(r), box.y_nodes[~kept], sphere)
            for name, call in (("AS value", V.value), ("AS div_pi", V.div_pi),
                               ("gradient-type value", Vg.value),
                               ("gradient-type div_pi", Vg.div_pi), ("DS value", phi.value)):
                assert np.count_nonzero(call(*pairs)) == 0, (name, r)


@pytest.mark.parametrize("n_y, n_ball", [(3, 7), (5, 33)])
def test_ball_grid_matches_the_box(n_y, n_ball):
    """On the pinned config, project_vector_field on the whole box tensor
    rule equals the run on shell_grid's ball: the same diagnostics, the same
    coefficients at the kept y nodes, and exact zeros at the dropped ones."""
    cfg, grid, V, phi = _pinned_projection(n_y)
    assert grid.y_nodes.shape[0] == n_ball
    box, kept = _box_grid(grid, cfg["params"]["y_radius"], n_y)
    gamma = cfg["kernel"]["gamma"]
    for field in (V, fn.gradient_type_field(phi, gamma)):
        ball_psi, ball_diag = pj.project_vector_field(field, grid, gamma)
        box_psi, box_diag = pj.project_vector_field(field, box, gamma)
        assert box_diag == ball_diag
        assert np.array_equal(box_psi.coefficients[:, kept], ball_psi.coefficients)
        assert np.count_nonzero(box_psi.coefficients[:, ~kept]) == 0


def test_radial_angular_split_consistency(rng):
    """div_x(Pi[x] grad_x phi) equals r^-2 times the spherical Laplacian of
    the restricted field: central differences against the spectral operator."""
    tr = SphereTransform(lmax=24, n_theta=30, n_phi=52)
    k, _, _ = tr.unit_vectors()
    r0 = 1.3

    def phi(x):
        return np.sin(x[..., 0]) * np.cos(0.7 * x[..., 1]) + 0.3 * x[..., 2] ** 2

    def grad_phi(x):
        g = np.zeros(x.shape)
        g[..., 0] = np.cos(x[..., 0]) * np.cos(0.7 * x[..., 1])
        g[..., 1] = -0.7 * np.sin(x[..., 0]) * np.sin(0.7 * x[..., 1])
        g[..., 2] = 0.6 * x[..., 2]
        return g

    x = r0 * k
    vals = phi(x)
    lap_spec = tr.synthesize(_laplacian_coeffs(tr, tr.analyze(vals))) / r0**2

    h = 1e-4

    def H(pt):
        rr = np.sqrt(np.sum(pt**2, axis=-1))
        hat = pt / rr[..., None]
        g = grad_phi(pt)
        return g - np.sum(hat * g, axis=-1)[..., None] * hat

    div_fd = np.zeros(vals.shape)
    for axis in range(3):
        dx = np.zeros(3)
        dx[axis] = h
        div_fd += (H(x + dx)[..., axis] - H(x - dx)[..., axis]) / (2 * h)

    denom = np.abs(lap_spec).max()
    assert np.abs(div_fd - lap_spec).max() < 1e-4 * denom


# recorded on this light grid before the right-hand side read PairChunk
REF_DIAGNOSTICS_LIGHT = {
    "max_spectral_residual": 3.94053425015214e-17,
    "max_solvability_defect": 2.42861286636753e-17,
    "max_odd_degree_coeff": 1.3877787807814457e-17,
    "norm_projected_V_sq": 35.44346980310161,
    "norm_gradient_sq": 6.598959834535315,
    "norm_residual_sq": 28.844509968566296,
}


def test_projection_diagnostics_regression(generic_V):
    """The three norms are pinned; the residual, defect and odd-degree
    entries are roundoff, whose bits any change of evaluation order moves,
    so they are held to roundoff level instead."""
    light = pj.shell_grid(DELTA, R, n_shells=3, y_radius=3.0, n_y=3, lmax=8)
    _, diag = pj.project_vector_field(generic_V, light, GAMMA)
    for name, value in REF_DIAGNOSTICS_LIGHT.items():
        if name.startswith("norm_"):
            assert_allclose(diag[name], value, rtol=1e-14, err_msg=name)
        else:
            assert 0.0 <= diag[name] < 1e-15, name


def test_transforms_batch_matches_items(rng):
    """A (2, 3) batch gives the same bits as its items one at a time."""
    tr = SphereTransform(lmax=10, n_theta=14, n_phi=28)
    values = rng.standard_normal((2, 3, tr.n_theta, tr.n_phi))
    coeffs = rng.standard_normal((2, 3, tr.lmax + 1, 2 * tr.lmax + 1))
    for method, batch in (("analyze", values), ("synthesize", coeffs),
                          ("surface_gradient", coeffs)):
        got = getattr(tr, method)(batch)
        items = [[getattr(tr, method)(batch[i, j]) for j in range(3)] for i in range(2)]
        assert np.array_equal(got, np.array(items)), method


def test_pair_fields_on_a_broadcast_shell(grid, generic_V):
    """DS, AS and gradient-type fields at the shell's broadcast pair frame
    (s, k, y) = (2r, k, y) equal the same callables at the materialised
    arrays."""
    phi = fn.bump_testfn("DS", {"delta": DELTA, "R": R}, y_radius=3.0,
                         modulation={"const": 0.4, "x_quad": np.diag([1.0, -0.3, -0.7])})
    Vg = fn.gradient_type_field(phi, GAMMA)
    tr = grid.transform()
    s, k, y = pj.shell_pairs(float(grid.radii[1]), grid.y_nodes[:7], tr)
    assert s == 2.0 * grid.radii[1]
    assert k.shape == (tr.n_theta, tr.n_phi, 3) and y.shape == (7, 1, 1, 3)
    full = np.broadcast_shapes(k.shape, y.shape)
    sm = np.full(full[:-1], s)
    km, ym = np.broadcast_to(k, full).copy(), np.broadcast_to(y, full).copy()

    def envelope(s, k, y):
        # the envelope reads no k: one value per (shell, y node)
        return phi.envelope(s, y) * np.ones(k.shape[:-1])

    for name, call in (("DS value", phi.value), ("DS envelope", envelope),
                       ("AS value", generic_V.value), ("AS div_pi", generic_V.div_pi),
                       ("gradient-type value", Vg.value), ("gradient-type div_pi", Vg.div_pi)):
        want = call(sm, km, ym)
        got = call(s, k, y)
        assert got.shape == want.shape, name
        assert np.abs(want).max() > 0.0, name
        assert_allclose(got, want, rtol=1e-15, atol=0.0, err_msg=name)


def test_surface_gradient_of_low_degree_harmonics():
    """The tangential gradient of k3 (degree 1) is e3 - k3 k and that of
    k1 k2 (degree 2) is (k2, k1, 0) - 2 k1 k2 k."""
    tr = SphereTransform(lmax=10, n_theta=14, n_phi=24)
    k, _, _ = tr.unit_vectors()
    e3 = np.array([0.0, 0.0, 1.0])
    want1 = e3 - k[..., 2:3] * k
    want2 = (np.stack([k[..., 1], k[..., 0], np.zeros(k.shape[:-1])], axis=-1)
             - 2.0 * (k[..., 0] * k[..., 1])[..., None] * k)
    for g, want in ((k[..., 2], want1), (k[..., 0] * k[..., 1], want2)):
        got = tr.surface_gradient(tr.analyze(g))
        assert np.abs(got - want).max() < 1e-13


def test_synthesis_contraction_matches_the_m_loop(rng):
    """synthesize and surface_gradient sum the azimuthal orders in one
    contraction; a loop over m of outer products, on the transform's own
    Legendre tables, gives the same fields up to roundoff."""
    tr = SphereTransform(lmax=12, n_theta=16, n_phi=32)
    mu, _, P, dP = _legendre_tables(tr.lmax, tr.n_theta)
    phi = 2.0 * np.pi * np.arange(tr.n_phi) / tr.n_phi
    cos_m, sin_m = (f(np.arange(1, tr.lmax + 1)[:, None] * phi) for f in (np.cos, np.sin))
    coeffs = rng.standard_normal((3, tr.lmax + 1, 2 * tr.lmax + 1))
    L, rt2 = tr.lmax, np.sqrt(2.0)
    st = np.sqrt(1.0 - mu**2)
    val = np.einsum("tl,bl->bt", P[:, 0, :], coeffs[..., L])[..., None] * np.ones(tr.n_phi)
    g_t = np.einsum("tl,bl->bt", dP[:, 0, :], coeffs[..., L])[..., None] * np.ones(tr.n_phi)
    g_p = np.zeros(g_t.shape)
    for m in range(1, L + 1):
        c, s_ = (rt2 * np.einsum("tl,bl->bt", P[:, m, :], coeffs[..., L + sgn * m])
                 for sgn in (1, -1))
        dc, ds = (rt2 * np.einsum("tl,bl->bt", dP[:, m, :], coeffs[..., L + sgn * m])
                  for sgn in (1, -1))
        val += c[..., None] * cos_m[m - 1] + s_[..., None] * sin_m[m - 1]
        g_t += dc[..., None] * cos_m[m - 1] + ds[..., None] * sin_m[m - 1]
        g_p += m * ((s_ / st)[..., None] * cos_m[m - 1] - (c / st)[..., None] * sin_m[m - 1])
    _, e_t, e_p = tr.unit_vectors()
    grad = g_t[..., None] * e_t + g_p[..., None] * e_p
    assert_allclose(tr.synthesize(coeffs), val, rtol=0.0, atol=1e-13 * np.abs(val).max())
    assert_allclose(tr.surface_gradient(coeffs), grad, rtol=0.0,
                    atol=1e-13 * np.abs(grad).max())


def test_rhs_batch_matches_items(grid, generic_V):
    tr = grid.transform()
    ys = grid.y_nodes[:4]
    got = pj.sphere_rhs(generic_V, 1.1, ys, GAMMA, tr)
    assert np.array_equal(got, np.array([pj.sphere_rhs(generic_V, 1.1, y, GAMMA, tr)
                                         for y in ys]))


def _counted(V, calls):
    def wrap(name):
        inner = getattr(V, name)

        def counted(*args):
            calls[name] += 1
            return inner(*args)
        return counted

    return fn.PairVectorField(value=wrap("value"), div_pi=wrap("div_pi"))


def test_one_field_evaluation_per_y_block(generic_V):
    """V is evaluated once per (shell, y block), never once per y node: at
    n_y 4 the ball keeps 32 y nodes, which make two blocks per shell."""
    light = pj.shell_grid(DELTA, R, n_shells=3, y_radius=3.0, n_y=4, lmax=8)
    n_y = light.y_nodes.shape[0]
    blocks = -(-n_y // pj.Y_BLOCK)
    assert n_y == 32 and blocks == 2
    calls = {"value": 0, "div_pi": 0}
    V = _counted(generic_V, calls)
    field, _ = pj.project_vector_field(V, light, GAMMA)
    assert calls["div_pi"] == light.radii.size * blocks
    calls["value"] = 0
    pj.pythagoras_check(V, field, GAMMA)
    assert calls["value"] == light.radii.size * blocks


def test_y_block_size_keeps_the_bits(generic_V, monkeypatch):
    """Blocks of one y node and one block of every y node give the same
    diagnostics bit for bit: the items are independent and the running sum
    adds the (shell, y) terms in one order."""
    light = pj.shell_grid(DELTA, R, n_shells=3, y_radius=3.0, n_y=3, lmax=8)
    runs = []
    for block in (1, light.y_nodes.shape[0]):
        monkeypatch.setattr(pj, "Y_BLOCK", block)
        field, diag = pj.project_vector_field(generic_V, light, GAMMA)
        runs.append((field.coefficients, diag))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert runs[0][1] == runs[1][1]


def test_pythagoras_peak_memory():
    """The pinned projection grid (delta 1/2, R 4, 5 shells, n_y 5, lmax 16)
    and gradient-type field in y blocks: a shell's 125 box y nodes at once
    took 132 MiB."""
    grid = pj.shell_grid(0.5, 4.0, n_shells=5, y_radius=3.0, n_y=5, lmax=16)
    phi = fn.bump_testfn("DS", {"delta": 0.5, "R": 4.0}, y_radius=3.0,
                         modulation={"const": 0.0, "x_quad": np.diag([1.0, -0.3, -0.7])})
    V = fn.gradient_type_field(phi, -1.0)
    shape = (grid.radii.size, grid.y_nodes.shape[0], grid.lmax + 1, 2 * grid.lmax + 1)
    field = pj.SphereField(coefficients=np.zeros(shape), grid=grid)
    tracemalloc.start()
    try:
        pj.pythagoras_check(V, field, -1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 60 * 2**20


def test_projection_rejects_nan_at_one_y_node(generic_V):
    """A field that is NaN at one y node fails loudly; Python's
    max(0.0, nan) == 0.0 once let its diagnostics read finite."""
    light = pj.shell_grid(DELTA, R, n_shells=3, y_radius=3.0, n_y=3, lmax=8)
    y0 = light.y_nodes[4]

    def value(s, k, y):
        return np.where((sq3(y - y0) < 1e-18)[..., None], np.nan, generic_V.value(s, k, y))

    def div_pi(s, k, y):
        return np.where(sq3(y - y0) < 1e-18, np.nan, generic_V.div_pi(s, k, y))

    V = fn.PairVectorField(value=value, div_pi=div_pi)
    with pytest.raises(pj.ProjectionError, match="non-finite"):
        pj.project_vector_field(V, light, GAMMA)


def test_solve_rejects_non_finite():
    lmax = 8
    rhs = np.zeros((lmax + 1, 2 * lmax + 1))
    rhs[3, lmax + 2] = np.inf
    with pytest.raises(pj.ProjectionError, match="non-finite"):
        pj.sphere_poisson_solve(rhs)
