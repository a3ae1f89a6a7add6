import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from grazing_lab import compactness as cp
from grazing_lab import dissipation as dp
from grazing_lab import functions as fn
from grazing_lab import kernels as kn
from grazing_lab.quadrature import QuadratureSpec

SPEC = QuadratureSpec(pair_nodes=8, theta_panels=2, theta_nodes_per_panel=8,
                      sphere_phi_nodes=8)


@pytest.fixture(scope="module")
def cutoff_kernel():
    return kn.build_kernel(gamma=-1.0, nu=0.5, epsilon=0.5, kinetic_cutoff=True,
                           spec=SPEC)


@pytest.fixture(scope="module")
def cutoff_kernel_g0():
    return kn.build_kernel(gamma=0.0, nu=0.5, epsilon=0.5, kinetic_cutoff=True,
                           spec=SPEC)


def test_s_eps_uniform_bound(cutoff_kernel):
    for eps in (1.0, 0.5, 0.1, 1e-2, 1e-3):
        ker = cutoff_kernel.with_epsilon(eps)
        for z in (0.25, 0.5, 1.0, 2.0, 8.0):
            assert abs(cp.s_eps(z, ker, SPEC)) <= 12.0


def test_s_eps_small_eps_limit(cutoff_kernel):
    """The lemma's limit at gamma = -1: 6 for |z| < 1, 2(3+gamma)|z|^gamma
    for |z| >= 1."""
    ker = cutoff_kernel.with_epsilon(1e-3)
    for z, lim in ((0.25, 6.0), (1.0, 4.0), (2.0, 2.0)):
        assert abs(cp.s_eps(z, ker, SPEC) - lim) < 0.01 * lim


def test_s_eps_kinetic_scaling(cutoff_kernel):
    """S_eps is constant below |z| = cos(theta/2) and scales as |z|^gamma
    for |z| >= 1."""
    ker = cutoff_kernel.with_epsilon(1e-3)
    assert_allclose(cp.s_eps(0.25, ker, SPEC), cp.s_eps(0.5, ker, SPEC), rtol=1e-12)
    base = cp.s_eps(1.0, ker, SPEC)
    assert_allclose(cp.s_eps(2.0, ker, SPEC), base * 2.0**-1.0, rtol=1e-12)
    assert_allclose(cp.s_eps(4.0, ker, SPEC), base * 4.0**-1.0, rtol=1e-12)


def test_s_eps_requires_cutoff():
    bare = kn.build_kernel(gamma=-1.0, nu=0.5, epsilon=0.5, kinetic_cutoff=False,
                           spec=SPEC)
    with pytest.raises(cp.CompactnessError, match="kinetic-cutoff"):
        cp.s_eps(1.0, bare, SPEC)


def test_cancellation_identity_gamma0(maxwellian, cutoff_kernel_g0):
    """With gamma = 0 the kinetic factor is constant, so the identity holds
    exactly and both sides are nonzero at equilibrium."""
    lhs, rhs, _ = cp.cancellation_identity_check(maxwellian, cutoff_kernel_g0, SPEC)
    assert abs(lhs.value) > 1.0
    assert abs(lhs.value - rhs.value) < 1e-6 * abs(rhs.value)
    assert abs(lhs.value) <= 12.0
    assert_allclose(rhs.value, cp.s_eps(1.0, cutoff_kernel_g0, SPEC), rtol=1e-9)


def test_cancellation_identity_concentrated(cutoff_kernel):
    """For gamma < 0 the factorized convolution kernel is exact only where
    the kinetic cutoff saturates; a density concentrated inside the unit
    relative-velocity ball keeps the mismatch region negligible."""
    cold = fn.maxwellian(temperature=0.02)
    lhs, rhs, _ = cp.cancellation_identity_check(cold, cutoff_kernel, SPEC)
    assert abs(lhs.value - rhs.value) < 1e-4 * abs(rhs.value)


def test_cancellation_bilinearity(maxwellian, cutoff_kernel_g0):
    """Both sides scale with the square of the density mass."""
    lhs, rhs, _ = cp.cancellation_identity_check(maxwellian, cutoff_kernel_g0, SPEC)

    m = 0.3

    class Scaled:
        weights = maxwellian.weights
        means = maxwellian.means
        cov_diags = maxwellian.cov_diags

        def value(self, v):
            return m * maxwellian.value(v)

        def pair_value(self, v, vs):
            return m**2 * maxwellian.pair_value(v, vs)

        # the sweep's f(v')/f(v) reads log f and the responsibilities, which
        # the scale leaves unchanged
        def log_value(self, v):
            return np.log(m) + maxwellian.log_value(v)

        def log_responsibilities(self, v, log_f):
            return maxwellian.log_responsibilities(v, log_f - np.log(m))

        def quadrature_frame(self):
            return maxwellian.quadrature_frame()

    lhs_s, rhs_s, _ = cp.cancellation_identity_check(Scaled(), cutoff_kernel_g0, SPEC)
    assert_allclose(lhs_s.value, m**2 * lhs.value, rtol=1e-12)
    assert_allclose(rhs_s.value, m**2 * rhs.value, rtol=1e-12)


def test_cancellation_reads_no_post_collision_density(mixture, cutoff_kernel, monkeypatch):
    """The left side's f(v') - f(v) is f(v) S, with S = f(v')/f(v) - 1 from
    the node's responsibilities: on the two-component mixture no density
    value or log is taken at a (C, n_phi, 3) post-collision point, and the
    left side meets the four-point value f(v') - f(v) to 1e-13 relative."""
    from grazing_lab import operators as op

    calls = []
    for name in ("value", "log_value"):
        method = getattr(fn.GaussianMixture, name)

        def counted(self, v, _method=method):
            if np.ndim(v) == 3:
                calls.append(1)
            return _method(self, v)

        monkeypatch.setattr(fn.GaussianMixture, name, counted)
    spec = QuadratureSpec(pair_nodes=5, theta_panels=1, theta_nodes_per_panel=5,
                          sphere_phi_nodes=5)
    lhs, _, _ = cp.cancellation_identity_check(mixture, cutoff_kernel, spec)
    assert calls == []
    monkeypatch.undo()

    def four_point(node):
        fv, fvs = node.pair.f_v[:, None], node.pair.f_star[:, None]
        return 0.5 * (fvs * (mixture.value(node.vp) - fv) + fv * (mixture.value(node.vsp) - fvs))

    ref = op.collision_sweep(op.pair_grid(mixture, spec), cutoff_kernel, spec,
                             {"v": (four_point, lambda c: c.kin)})["v"]
    assert_allclose(lhs.value, ref, rtol=1e-13)


class TestSeminorm:
    @pytest.fixture(scope="class")
    def grid(self):
        return cp.FourierGrid()

    def test_basic_value(self, aniso, grid):
        sn = cp.weighted_seminorm(cp.CutoffDensity(aniso, R=5.0), 0.5, grid)
        assert sn > 0.0 and np.isfinite(sn)

    def test_quadratic_scaling(self, aniso, grid):
        fR = cp.CutoffDensity(aniso, R=5.0)
        sn = cp.weighted_seminorm(fR, 0.5, grid)

        class Scaled:
            R = fR.R
            center = fR.center

            def sqrt_value(self, v):
                return 2.0 * fR.sqrt_value(v)

        assert_allclose(cp.weighted_seminorm(Scaled(), 0.5, grid), 4.0 * sn, rtol=1e-12)

    def test_translation_invariance(self, grid):
        """|F| is translation invariant; on a lattice shift the DFT values
        coincide exactly."""
        f0 = fn.gaussian_mixture([(1.0, [0, 0, 0], [1, 1, 4])])
        shift = (0.7, -0.3, 0.2)  # multiples of the grid spacing 0.1
        fs = fn.gaussian_mixture([(1.0, list(shift), [1, 1, 4])])
        sn0 = cp.weighted_seminorm(cp.CutoffDensity(f0, R=5.0), 0.5, grid)
        sn1 = cp.weighted_seminorm(cp.CutoffDensity(fs, R=5.0, center=shift), 0.5, grid)
        assert_allclose(sn1, sn0, rtol=1e-12)

    def test_smoothing_reduces_seminorm(self, grid):
        rough = cp.CutoffDensity(fn.maxwellian(temperature=0.05), R=1.0)
        smooth = cp.CutoffDensity(fn.maxwellian(temperature=0.15), R=1.0)
        assert cp.weighted_seminorm(smooth, 0.5, grid) < cp.weighted_seminorm(rough, 0.5, grid)

    def test_support_guard(self, aniso):
        small = cp.FourierGrid(n=64, half_width=4.0)
        with pytest.raises(cp.CompactnessError, match="support") as info:
            cp.weighted_seminorm(cp.CutoffDensity(aniso, R=5.0), 0.5, small)
        assert info.value.field == "R"

    def test_support_guard_reads_the_center(self, grid):
        """N(c, I) cut at R = 5 around c: every center whose support fits in
        the half width 8 gives the centered value, and one whose support
        crosses the box edge on some axis is refused, not summed."""
        def seminorm(c):
            f_c = fn.gaussian_mixture([(1.0, list(c), [1, 1, 1])])
            return cp.weighted_seminorm(cp.CutoffDensity(f_c, R=5.0, center=c), 0.5, grid)

        sn0 = seminorm((0.0, 0.0, 0.0))
        assert_allclose(seminorm((1.5, 0.0, 0.0)), sn0, rtol=1e-12)
        assert_allclose(seminorm((0.0, -2.0, 0.0)), sn0, rtol=1e-12)
        for c in ((2.5, 0.0, 0.0), (0.0, 0.0, -3.0)):
            with pytest.raises(cp.CompactnessError, match="support") as info:
                seminorm(c)
            assert info.value.field == "center"

    def test_aliasing_guard(self, aniso):
        coarse = cp.FourierGrid(n=32, half_width=8.0)
        with pytest.raises(cp.CompactnessError, match="aliasing"):
            cp.weighted_seminorm(cp.CutoffDensity(aniso, R=5.0), 0.5, coarse)

    def test_ratio_bounded_across_sweep(self, aniso, grid, cutoff_kernel_g0):
        sn = cp.weighted_seminorm(cp.CutoffDensity(aniso, R=5.0), 0.5, grid)
        ratios = []
        for eps in (1.0, 0.5, 0.25):
            dB = dp.boltzmann_dissipation(aniso, cutoff_kernel_g0.with_epsilon(eps), SPEC)
            ratios.append(sn / (dB.value + 1.0))
        assert np.isfinite(max(ratios))
        assert max(ratios) / min(ratios) < 2.0


def _full_spectrum_seminorm(f_R, nu, grid):
    """The seminorm and the boundary energy share from one complex fftn of
    the whole box, with the corner phases, summed over every bin. The
    boundary is the planes of frequency magnitude n//2 on any axis: one plane
    per axis for even n, the two planes +-n//2 for odd n."""
    n = grid.n
    ax = grid.x_axis
    pts = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1)
    G = np.fft.fftn(f_R.sqrt_value(pts)) * (2.0 * grid.half_width / n) ** 3
    del pts
    phase = np.exp(1j * grid.xi_axis * grid.half_width)
    G2 = np.abs(G * phase[:, None, None] * phase[None, :, None] * phase[None, None, :]) ** 2
    del G
    top = np.abs(np.fft.fftfreq(n, 1.0 / n)) == n // 2
    boundary = top[:, None, None] | top[None, :, None] | top[None, None, :]
    xi = grid.xi_axis
    xi2 = xi[:, None, None] ** 2 + xi[None, :, None] ** 2 + xi[None, None, :] ** 2
    value = (G2 * np.minimum(xi2, xi2 ** (0.5 * nu))).sum() * (np.pi / grid.half_width) ** 3
    return float(value), float(G2[boundary].sum() / G2.sum())


@pytest.mark.parametrize("case, n, aliases", [("mixture", 160, False), ("narrow", 64, False),
                                              ("narrow", 63, False), ("aniso", 32, True),
                                              ("mixture", 63, True)])
def test_half_spectrum_seminorm_matches_full_spectrum(case, n, aliases, mixture, aniso):
    """The half-spectrum seminorm equals a full-spectrum fftn to 1e-13, and
    its aliasing verdict is the full spectrum's: the pinned n = 160 mixture,
    an even and an odd n that pass, and an even and an odd n that alias."""
    f = {"mixture": mixture, "aniso": aniso, "narrow": fn.maxwellian(temperature=0.5)}[case]
    f_R = cp.CutoffDensity(f, R=5.0)
    grid = cp.FourierGrid(n=n)
    ref, share = _full_spectrum_seminorm(f_R, 0.5, grid)
    assert (share > 1e-8) == aliases
    if aliases:
        with pytest.raises(cp.CompactnessError, match="aliasing"):
            cp.weighted_seminorm(f_R, 0.5, grid)
    else:
        assert_allclose(cp.weighted_seminorm(f_R, 0.5, grid), ref, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("n", [40, 63])
def test_slab_transform_is_rfftn(n, rng):
    """The slab-by-slab half spectrum of a function on the box nodes is
    rfftn's of its samples, bit for bit, at an n that is not a multiple of
    the slab and at an odd n: on the whole box, and on an index box that
    leaves planes out on every side, the samples outside it set to 0."""
    grid = cp.FourierGrid(n=n, half_width=3.0)
    g = rng.standard_normal((n, n, n))

    def func(pts):
        i = np.rint((pts + 3.0) / (6.0 / n)).astype(int)
        return g[i[..., 0], i[..., 1], i[..., 2]]

    whole = (slice(0, n),) * 3
    assert np.array_equal(grid.transform(func, whole), np.fft.rfftn(g) * (6.0 / n) ** 3)
    box = (slice(3, n - 11), slice(0, n - 2), slice(5, n))
    inside = np.zeros_like(g)
    inside[box] = g[box]
    assert np.array_equal(grid.transform(func, box), np.fft.rfftn(inside) * (6.0 / n) ** 3)


def test_node_range_covers_the_interval():
    grid = cp.FourierGrid(n=160)
    for lo, hi in ((-6.0, 6.0), (-5.3, 6.7), (-8.0, 8.0), (-9.0, -7.95)):
        r = grid.node_range(lo, hi)
        ax = grid.x_axis
        inside = np.flatnonzero((ax >= lo) & (ax <= hi))
        assert r.start <= inside[0] and inside[-1] < r.stop
        assert inside[0] - r.start <= 1 and r.stop - 1 - inside[-1] <= 1


@pytest.mark.parametrize("n", [64, 63])
def test_streamed_seminorm_is_the_dense_box_bit_for_bit(n):
    """On an off-center cutoff the seminorm sampled on the support box only,
    squared over its own spectrum, equals one rfftn of the densely sampled
    full box summed with full-size weight arrays, bit for bit."""
    c = (0.7, -0.3, 0.2)
    f_R = cp.CutoffDensity(fn.maxwellian(mean=list(c), temperature=0.5), R=5.0, center=c)
    grid = cp.FourierGrid(n=n)
    m = n // 2 + 1
    ax = grid.x_axis
    pts = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1)
    G = np.fft.rfftn(f_R.sqrt_value(pts)) * (2.0 * grid.half_width / n) ** 3
    del pts
    G2 = G.real**2 + G.imag**2
    G2[..., 1:(n + 1) // 2] *= 2.0
    xi = grid.xi_axis
    xi2 = xi[:, None, None] ** 2 + xi[None, :, None] ** 2 + xi[None, None, :m] ** 2
    dense = float((G2 * np.minimum(xi2, xi2 ** 0.25)).sum() * (np.pi / grid.half_width) ** 3)
    assert cp.weighted_seminorm(f_R, 0.5, grid) == dense


def test_pinned_seminorm_value(mixture):
    """The soft-mixture workload's seminorm, bit for bit."""
    sn = cp.weighted_seminorm(cp.CutoffDensity(mixture, R=5.0), 0.5, cp.FourierGrid())
    assert sn == 137.79222420458254


def test_seminorm_peak_memory(mixture):
    """The pinned 160^3 seminorm holds its 31.6 MiB half spectrum and slabs:
    a full-box point array and a full complex spectrum once took its peak to
    281 MiB, and the full real box held beside the spectrum to 65 MiB."""
    f_R = cp.CutoffDensity(mixture, R=5.0)
    tracemalloc.start()
    try:
        cp.weighted_seminorm(f_R, 0.5, cp.FourierGrid())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20


def test_fourier_grid_refuses_bad_box():
    with pytest.raises(cp.CompactnessError, match="2 nodes") as info:
        cp.FourierGrid(n=1)
    assert info.value.field == "n"
    with pytest.raises(cp.CompactnessError, match="half width") as info:
        cp.FourierGrid(half_width=0.0)
    assert info.value.field == "half_width"


def test_characteristic_function_values(maxwellian):
    val = cp.characteristic_function(maxwellian, np.array([1.0, 0, 0]))
    assert_allclose(val, np.exp(-0.5), rtol=1e-14)
    assert_allclose(cp.characteristic_function(maxwellian, np.zeros(3)), 1.0)


def test_positivity_gap_values(maxwellian):
    assert cp.fourier_positivity_gap(maxwellian, np.zeros(3)) == 0.0
    assert_allclose(cp.fourier_positivity_gap(maxwellian, [1.0, 0, 0]),
                    1.0 - np.exp(-0.5), rtol=1e-12)


def test_positivity_gap_floor(aniso, mixture):
    for f in (aniso, mixture):
        floor = np.inf
        for xn in np.geomspace(0.05, 20.0, 15):
            gap = cp.fourier_positivity_gap(f, [xn / np.sqrt(3)] * 3)
            assert gap >= 0.0
            floor = min(floor, gap / min(xn**2, 1.0))
        assert floor > 0.0


def test_avg_lower_bound_holds(cutoff_kernel):
    for eps in (1.0, 0.1):
        ker = cutoff_kernel.with_epsilon(eps)
        for xn in (0.1, 1.0, 10.0):
            lhs, rhs = cp.fourier_avg_lower_bound([xn, 0.0, 0.0], ker, SPEC)
            assert lhs >= rhs > 0.0
    lhs, rhs = cp.fourier_avg_lower_bound([0.0, 0.0, 0.0], cutoff_kernel, SPEC)
    assert lhs == 0.0 and rhs == 0.0


def test_avg_lower_bound_constant_closed_form(cutoff_kernel):
    # for nu = 1/2 the profile integral is (pi/2)^(3/2) / (3/2)
    prof = cutoff_kernel.angular.base
    expected = (2.0 * prof.c1 / np.pi) * (np.pi / 2.0) ** 1.5 / 1.5
    _, rhs = cp.fourier_avg_lower_bound([1.0, 0.0, 0.0], cutoff_kernel, SPEC)
    assert_allclose(rhs, expected * 1.0, rtol=1e-14)


def test_avg_lower_bound_needs_small_eps(cutoff_kernel):
    ker = kn.CollisionKernel(gamma=cutoff_kernel.gamma,
                             angular=kn.ScaledKernel(cutoff_kernel.angular.base, 2.0),
                             kinetic_cutoff=True)
    with pytest.raises(cp.CompactnessError, match="eps <= 1"):
        cp.fourier_avg_lower_bound([1.0, 0, 0], ker, SPEC)


def test_truncation_constant(aniso, cutoff_kernel):
    c2 = cp.truncation_constant(aniso, cutoff_kernel, SPEC)
    # 150 pi * 2 * energy * 8/pi = 2400 * energy
    assert_allclose(c2, 2400.0 * aniso.moments.energy, rtol=1e-9)
    # eps-independence of the rescaled transfer
    c2b = cp.truncation_constant(aniso, cutoff_kernel.with_epsilon(0.01), SPEC)
    assert_allclose(c2, c2b, rtol=1e-12)


def test_cutoff_density_profile(aniso):
    fR = cp.CutoffDensity(aniso, R=5.0)
    inner = np.array([[4.9, 0, 0], [0, 0, 4.9], [1.0, 1.0, 1.0]])
    assert_allclose(fR.chi(inner), 1.0)
    outer = np.array([[6.1, 0, 0], [0, 6.1, 0]])
    assert_allclose(fR.chi(outer), 0.0)
    r = np.linspace(4.5, 6.5, 400)
    pts = np.stack([r, np.zeros_like(r), np.zeros_like(r)], axis=-1)
    vals = fR.chi(pts)
    lip = np.abs(np.diff(vals) / np.diff(r)).max()
    assert lip <= 2.0
    with pytest.raises(cp.CompactnessError):
        cp.CutoffDensity(aniso, R=-1.0)


@pytest.mark.parametrize("eps_grid", [[1.0, 0.5, 0.25], [1.0, 0.25]], ids=["in_grid", "joins"])
def test_cancellation_sweep_carries_the_dissipations(mixture, cutoff_kernel, eps_grid,
                                                     monkeypatch):
    """With dissipation_eps the cancellation's sweep also gives D_B at each
    of those eps, one collision_sweeps pass per level, whether the kernel's
    eps (1/2) is among them or joins the batch: lhs and rhs keep the bits of
    the check alone, whose D_B list is empty, and each D_B is a float with
    the bits of boltzmann_dissipation's value at its eps."""
    from grazing_lab import operators as op

    spec = QuadratureSpec(pair_nodes=5, theta_panels=1, theta_nodes_per_panel=5,
                          sphere_phi_nodes=5)
    alone = cp.cancellation_identity_check(mixture, cutoff_kernel, spec)
    d_bs = [dp.boltzmann_dissipation(mixture, cutoff_kernel.with_epsilon(e), spec)
            for e in eps_grid]
    passes = []
    sweeps = op.collision_sweeps

    def counted(*args):
        passes.append(1)
        return sweeps(*args)

    monkeypatch.setattr(cp, "collision_sweeps", counted)
    lhs, rhs, joint = cp.cancellation_identity_check(mixture, cutoff_kernel, spec, eps_grid)
    assert alone == (lhs, rhs, [])
    assert joint == [d.value for d in d_bs]
    assert len(passes) == 2


@pytest.mark.parametrize("eps_grid", [[1.0, 0.5, 0.25], [1.0, 0.25]], ids=["in_grid", "joins"])
def test_coarse_pass_sweeps_the_cancellation_term_alone(mixture, cutoff_kernel, eps_grid,
                                                        monkeypatch):
    """Only the fine level's D_B is read, so the coarse pass's plan is the
    cancellation term at the kernel alone, and the fine pass's plan carries
    the D_B term at each of dissipation_eps besides."""
    from grazing_lab import operators as op

    spec = QuadratureSpec(pair_nodes=5, theta_panels=1, theta_nodes_per_panel=5,
                          sphere_phi_nodes=5)
    plans = {}
    sweeps = op.collision_sweeps

    def recorded(grid, s, plan):
        plans[s] = {k: set(terms) for k, terms in plan.items()}
        return sweeps(grid, s, plan)

    monkeypatch.setattr(cp, "collision_sweeps", recorded)
    cp.cancellation_identity_check(mixture, cutoff_kernel, spec, eps_grid)
    fine = {cutoff_kernel.with_epsilon(e): {"diss"} for e in eps_grid}
    fine[cutoff_kernel] = fine.get(cutoff_kernel, set()) | {"v"}
    assert plans == {spec.coarsened(): {cutoff_kernel: {"v"}}, spec: fine}


@pytest.mark.parametrize("eps_grid", [[1.0, 0.5, 0.25, 0.125], [1.0, 0.25, 0.125, 0.0625]],
                         ids=["in_grid", "joins"])
def test_cancellation_term_is_swept_at_its_own_kernel(mixture, cutoff_kernel, eps_grid,
                                                      monkeypatch):
    """The cancellation term, the one sweep term that reads a node's
    post-collision ratios f'/f - 1 and f*'/f* - 1, is formed at the theta
    nodes of the kernel's own eps only, not at the other eps of its batch:
    D_B reads Delta, and nothing reads the cancellation sums at those eps."""
    from grazing_lab import operators as op

    spec = QuadratureSpec(pair_nodes=5, theta_panels=1, theta_nodes_per_panel=5,
                          sphere_phi_nodes=5)
    ratio_m1 = op.CollisionNode.ratio_m1
    read_at = []

    def counted(node):
        read_at.append((node.kernel, node.theta))
        return ratio_m1.fget(node)

    monkeypatch.setattr(op.CollisionNode, "ratio_m1", property(counted))
    cp.cancellation_identity_check(mixture, cutoff_kernel, spec, eps_grid)
    assert {k for k, _ in read_at} == {cutoff_kernel}
    # once per chunk and theta node of the kernel's rule, at each level
    assert len(read_at) == sum(-(-op.pair_grid(mixture, s).n_pairs // op.CHUNK)
                               * kn.angular_nodes(cutoff_kernel.angular, s)[0].size
                               for s in (spec, spec.coarsened()))
