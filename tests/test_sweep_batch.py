"""The batched eps sweep: azimuth sums in numpy's order, one pass over the
chunks for every eps, and the bits of one sweep per eps."""

import numpy as np
import pytest

from grazing_lab import cli
from grazing_lab import dissipation as dp
from grazing_lab import functions as fn
from grazing_lab import kernels as kn
from grazing_lab import operators as op
from grazing_lab.quadrature import QuadratureSpec, coarse_fine

# two chunks per level, so a sweep streams more than one chunk
SPEC = QuadratureSpec(pair_nodes=5, theta_panels=1, theta_nodes_per_panel=6, sphere_phi_nodes=8)
EPS = [1.0, 0.25, 1e-3]


def _spread(rng, shape):
    """Signed values whose magnitudes span 1e-13 to 1e13."""
    return rng.normal(size=shape) * 10.0 ** rng.uniform(-13, 13, size=shape)


@pytest.mark.parametrize("n", range(4, 141))
def test_azimuth_sum_is_numpy_sum(n, rng):
    """Sequential below 8 columns, eight accumulators up to 128, np.sum past
    128: the same bits as np.sum(a, axis=1) on a C-contiguous (C, n) array,
    the layout every sweep term returns, and on one pair, which
    collision_oracle.sigma_average passes."""
    for a in (_spread(rng, (257, n)), _spread(rng, (1, n))):
        assert np.array_equal(op.azimuth_sum(a), np.sum(a, axis=1))


def test_azimuth_sum_other_layouts_fall_back(rng):
    """A transposed or strided array, where numpy orders its sum otherwise,
    gets np.sum itself."""
    base = _spread(rng, (16, 300))
    for a in (base.T[:, :12], base[:, ::2][:, :10], np.asfortranarray(base[:, :9])):
        assert not a.flags.c_contiguous
        assert np.array_equal(op.azimuth_sum(a), np.sum(a, axis=1))


GAUSS_PSI = fn.gaussian_testfn(const=1.0, quad=np.diag([0.0, 0.0, 1.0]), width=4.0)
DS_PSI = fn.bump_testfn("DS", {"delta": 0.4, "R": 5.0},
                        modulation={"const": 0.0, "x_quad": np.diag([1.0, 1.0, -2.0])},
                        y_radius=6.0)
POLY_PSI = fn.polynomial_testfn(quad=[[1.0, 0.3, -0.2], [0.3, 0.0, 0.5], [-0.2, 0.5, 2.0]])
CC_PSI = fn.bump_testfn("Cc_single", {"delta": 0.1, "R": 4.0},
                        modulation={"v_quad": np.diag([0.0, 0.0, 1.0])})
ANISO = fn.gaussian_mixture([(1.0, [0.0, 0.0, 0.0], [1.0, 1.0, 4.0])])
MIXTURE = fn.gaussian_mixture([(0.5, [2.0, 0.0, 0.0], [1.0, 1.0, 1.0]),
                               (0.5, [-2.0, 0.0, 0.0], [1.0, 1.0, 1.0])])


def _terms(psi):
    """Terms reading the density's Delta and Lambda B_eps (so beta_eps) and
    psi's collision-frame dbar, with pair factors reading F, sqrt F and the
    kinetic factor."""
    return {"diss": (lambda n: np.expm1(n.dlogF) * n.dlogF, lambda c: c.F * c.kin),
            "lam_b": (lambda n: n.lam_b * n.dbar(psi), lambda c: c.sqF),
            "dpsi2": (lambda n: n.dbar(psi) ** 2, lambda c: c.kin)}


@pytest.mark.parametrize("f,psi", [(ANISO, GAUSS_PSI), (ANISO, DS_PSI), (MIXTURE, DS_PSI)],
                         ids=["gaussian", "ds_bump", "mixture"])
def test_batched_sweep_is_one_sweep_per_eps(f, psi):
    """Every eps of a batched sweep has the bits of its own one-kernel sweep."""
    kernel = kn.build_kernel(gamma=-1.0, nu=0.5, epsilon=EPS[0], spec=SPEC)
    kernels = [kernel.with_epsilon(e) for e in EPS]
    grid = op.pair_grid(f, SPEC)
    assert grid.n_pairs > op.CHUNK
    batch = op.collision_sweeps(grid, SPEC, dict.fromkeys(kernels, _terms(psi)))
    assert list(batch.values()) == [op.collision_sweep(grid, k, SPEC, _terms(psi))
                                    for k in kernels]


def test_batched_sweep_refuses_mixed_gamma_or_cutoff():
    grid = op.pair_grid(ANISO, SPEC)
    kernel = kn.build_kernel(gamma=0.0, nu=0.5, epsilon=0.5, spec=SPEC)
    terms = _terms(DS_PSI)
    for other in (kn.build_kernel(gamma=-1.0, nu=0.5, epsilon=0.25, spec=SPEC),
                  kn.build_kernel(gamma=0.0, nu=0.5, epsilon=0.25, kinetic_cutoff=True,
                                  spec=SPEC)):
        with pytest.raises(op.OperatorError, match="one gamma and one kinetic_cutoff"):
            op.collision_sweeps(grid, SPEC, dict.fromkeys([kernel, other], terms))


def test_one_chunk_is_alive_at_a_time(monkeypatch):
    """The chunk loop builds each chunk in turn and drops it once its sums
    are taken, with no reference cycle to wait for the garbage collector:
    inside every partials call of a multi-chunk batched sweep and of a
    pair_reduce, the chunk being summed is the only one alive."""
    import gc
    import weakref

    built = []
    init = op.PairChunk.__init__

    def tracked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(weakref.ref(self))

    alive = []
    reduce_chunks = op._reduce_chunks

    def watched(grid, kernel, partials):
        def one(chunk):
            alive.append([ref() for ref in built if ref() is not None] == [chunk])
            return partials(chunk)
        return reduce_chunks(grid, kernel, one)

    monkeypatch.setattr(op.PairChunk, "__init__", tracked)
    monkeypatch.setattr(op, "_reduce_chunks", watched)
    kernel = kn.build_kernel(gamma=-1.0, nu=0.5, epsilon=EPS[0], spec=SPEC)
    grid = op.pair_grid(MIXTURE, SPEC)
    n_chunks = -(-grid.n_pairs // op.CHUNK)
    assert n_chunks > 1
    gc.disable()
    try:
        op.collision_sweeps(grid, SPEC, dict.fromkeys([kernel.with_epsilon(e) for e in EPS],
                                                      _terms(DS_PSI)))
        op.pair_reduce(grid, {"F": lambda c: c.F, "r2": lambda c: c.r2})
    finally:
        gc.enable()
    assert alive == [True] * (2 * n_chunks) and len(built) == 2 * n_chunks


def test_a_pair_factor_is_formed_once_per_chunk():
    """Terms and kernels that carry one pair factor function share its
    product with the pair weights: one call per chunk, not one per term."""
    calls = []

    def factor(chunk):
        calls.append(1)
        return chunk.kin

    terms = {"lin": (op.DbarPower(POLY_PSI, 1), factor),
             "quad": (op.DbarPower(POLY_PSI, 2), factor)}
    kernel = kn.build_kernel(gamma=0.0, nu=0.5, epsilon=1.0, spec=SPEC)
    grid = op.pair_grid(ANISO, SPEC)
    op.collision_sweeps(grid, SPEC, dict.fromkeys([kernel.with_epsilon(e) for e in EPS], terms))
    assert len(calls) == -(-grid.n_pairs // op.CHUNK)


def _batched_dissipations(f, kernels, spec):
    """D_B at each kernel from one batched sweep of the D_B term alone."""
    outs = op.collision_sweeps(op.pair_grid(f, spec), spec,
                               dict.fromkeys(kernels, {"diss": dp._DISS}))
    return [0.25 * out["diss"] for out in outs.values()]


def test_pair_fields_are_built_once_per_level(monkeypatch):
    """Batched D_B and study sweeps over four eps build each chunk's azimuth
    frame, its log f at v and at v*, and the DS envelope once per quadrature
    level, as over one eps."""
    import dataclasses

    counts = {"frame": 0, "log_f": 0, "envelope": 0}

    def counted(key, fnc):
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return fnc(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(op, "orthonormal_frame", counted("frame", op.orthonormal_frame))
    monkeypatch.setattr(fn.GaussianMixture, "log_value",
                        counted("log_f", fn.GaussianMixture.log_value))
    psi = dataclasses.replace(DS_PSI, envelope=counted("envelope", DS_PSI.envelope))
    kernel = kn.build_kernel(gamma=0.0, nu=0.5, epsilon=1.0, spec=SPEC)
    chunks = sum(-(-op.pair_grid(ANISO, s).n_pairs // op.CHUNK)
                 for s in (SPEC, SPEC.coarsened()))

    def sweep_counts(eps_list):
        counts.update(dict.fromkeys(counts, 0))
        kernels = [kernel.with_epsilon(e) for e in eps_list]
        coarse_fine(lambda s: _batched_dissipations(ANISO, kernels, s), SPEC)
        coarse_fine(lambda s: dp._study_pieces(ANISO, kernels, s, [psi]), SPEC)
        return dict(counts)

    assert sweep_counts([1.0, 0.5, 0.25, 0.125]) == sweep_counts([1.0]) == {
        "frame": 2 * chunks, "log_f": 4 * chunks, "envelope": chunks}


def test_batched_studies_match_their_one_eps_routes():
    """A mixed batch (a polynomial in closed form, a Gaussian on the node
    loop, a Cc_single bump at the four points) gives, value and error
    estimate, bit for bit what boltzmann_weak of each psi alone gives per
    eps, and what landau_weak of each psi alone gives in either form, and
    grazing_limit_study reports those values; the batched dissipations give
    what boltzmann_dissipation gives per eps."""
    kernel = kn.build_kernel(gamma=0.0, nu=0.5, epsilon=1.0, spec=SPEC)
    kernels = [kernel.with_epsilon(e) for e in EPS]
    psis = [POLY_PSI, GAUSS_PSI, CC_PSI]
    batch = coarse_fine(
        lambda s: op._boltzmann_weak_values(ANISO, psis, kernels, s, "second_order"), SPEC)
    study = op.grazing_limit_study(ANISO, psis, kernel, EPS, SPEC)
    assert [row["psi"] for row in study["rows"]] == [0, 0, 0, 1, 1, 1, 2, 2, 2]
    for j, psi in enumerate(psis):
        single = [op.boltzmann_weak(ANISO, psi, k, SPEC) for k in kernels]
        assert [at_eps[j] for at_eps in batch] == single
        rows = study["rows"][j * len(EPS):(j + 1) * len(EPS)]
        assert [row["eps"] for row in rows] == EPS
        assert [row["q_boltz"] for row in rows] == [r.value for r in single]
    for form in ("second_order", "first_order"):
        landau = coarse_fine(
            lambda s: op._landau_weak_values(ANISO, psis, kernel.gamma, s, form), SPEC)
        assert landau == [op.landau_weak(ANISO, psi, kernel.gamma, SPEC, form) for psi in psis]
        if form == "second_order":
            assert study["landau"] == [ql.value for ql in landau]
            assert [row["q_landau"] for row in study["rows"]] == [
                ql.value for ql in landau for _ in EPS]
    assert (coarse_fine(lambda s: _batched_dissipations(MIXTURE, kernels, s), SPEC)
            == [dp.boltzmann_dissipation(MIXTURE, k, SPEC) for k in kernels])


LIMIT = {"experiment": "limit_check",
         "testfns": [{"kind": "poly", "quad": [[0, 0, 0], [0, 0, 0], [0, 0, 1.0]]}],
         "quadrature": {"pair_nodes": 5, "theta_panels": 2, "theta_nodes_per_panel": 8,
                        "sphere_phi_nodes": 8}}


def _limit_line(cfg, name):
    return next(s for s in cli.run(cfg).summary if s["check"] == name)


def test_limit_check_decreasing_line_reports_its_worst_rise(monkeypatch):
    """The line measures max(e_(i+1) - e_i) against 0: negative on the
    anisotropic Gaussian, and exactly 0 once Q_B at the last eps is moved to
    its value at the eps before, at both quadrature levels."""
    name = "psi0: |Q_B_eps - Q_L| strictly decreasing"
    line = _limit_line(LIMIT, name)
    assert line["verdict"] == "pass" and line["threshold"] == 0.0 and line["measured"] < 0.0
    values = op._boltzmann_weak_values

    def stalled(*args):
        out = values(*args)
        return out[:-1] + out[-2:-1]

    monkeypatch.setattr(op, "_boltzmann_weak_values", stalled)
    line = _limit_line(LIMIT, name)
    assert line["verdict"] == "fail" and line["measured"] == 0.0


def test_limit_check_noise_floor_line_reports_its_largest_error(monkeypatch):
    """At equilibrium Q_L sits at the noise floor, and the line measures the
    largest |Q_B - Q_L| against the floor: roundoff on a Maxwellian, and a
    1e-9 shift of Q_B at one eps, at both quadrature levels, fails it."""
    cfg = {**LIMIT, "density": {"family": "maxwellian"}}
    name = "psi0: errors at noise floor (flagged, no order)"
    line = _limit_line(cfg, name)
    assert line["verdict"] == "pass" and 0.0 < line["measured"] < line["threshold"] < 1e-11
    values = op._boltzmann_weak_values

    def shifted(*args):
        # the batch's values at each eps, one per test function
        out = values(*args)
        return [[v + (1e-9 if i == 2 else 0.0) for v in at_eps] for i, at_eps in enumerate(out)]

    monkeypatch.setattr(op, "_boltzmann_weak_values", shifted)
    line = _limit_line(cfg, name)
    assert line["verdict"] == "fail"
    assert line["measured"] == pytest.approx(1e-9, rel=1e-3)


@pytest.mark.parametrize("n_psi", [1, 3])
def test_limit_check_sweeps_once_per_level(monkeypatch, n_psi):
    """A limit_check run makes two collision_sweeps passes and two
    pair_reduce calls, coarse and fine, whatever the number of test
    functions: every Landau pairing of a level is one reduction."""
    sweeps, reduce = op.collision_sweeps, op.pair_reduce
    calls, reductions = [], []

    def counted(*args):
        calls.append(args[1])
        return sweeps(*args)

    def reduced(grid, fns):
        reductions.append((grid.n_pairs, len(fns)))
        return reduce(grid, fns)

    monkeypatch.setattr(op, "collision_sweeps", counted)
    monkeypatch.setattr(op, "pair_reduce", reduced)
    cfg = {**LIMIT, "testfns": (LIMIT["testfns"] + [
        {"kind": "gaussian", "const": 1.0, "quad": [[0, 0, 0], [0, 0, 0], [0, 0, 1.0]],
         "width": 4.0},
        {"kind": "Cc_single", "support": {"delta": 0.1, "R": 4.0},
         "modulation": {"v_quad": [[0, 0, 0], [0, 0, 0], [0, 0, 1.0]]}}])[:n_psi]}
    report = cli.run(cfg)
    assert len({row["psi"] for row in report.rows}) == n_psi
    spec = QuadratureSpec(**cfg["quadrature"])
    assert calls == [spec.coarsened(), spec]
    f = cli.build_density(cli.merge_defaults(cfg))
    assert reductions == [(op.pair_grid(f, s).n_pairs, n_psi) for s in (spec.coarsened(), spec)]


def test_dissipation_study_takes_one_level_per_quadrature_level(monkeypatch):
    """dissipation_study makes one Landau reduction and one batched sweep per
    quadrature level, coarse and fine, each with every DS psi."""
    psis = [DS_PSI, fn.bump_testfn("DS", {"delta": 0.4, "R": 5.0}, y_radius=6.0,
                                   modulation={"const": 0.0, "x_quad": np.diag([1.0, -1.0, 0.0])})]
    calls = []

    def counted(name, fnc):
        def wrapped(f, first, spec, got):
            calls.append((name, spec, got))
            return fnc(f, first, spec, got)
        return wrapped

    monkeypatch.setattr(dp, "_landau_pieces", counted("landau", dp._landau_pieces))
    monkeypatch.setattr(dp, "_study_pieces", counted("study", dp._study_pieces))
    kernel = kn.build_kernel(gamma=0.0, nu=0.5, epsilon=1.0, spec=SPEC)
    dp.dissipation_study(ANISO, kernel, EPS, psis, SPEC)
    assert calls == [(name, s, psis) for s in (SPEC.coarsened(), SPEC)
                     for name in ("landau", "study")]


# ---------------------------------------------------------------------------
# closed-form angular moments


def _moment_terms(form, case):
    """(closed, node) term dicts of a case's linear and quadratic pieces, with
    their shared pair factors: the closed-form DbarPower terms and the same
    integrands on the theta x phi nodes."""
    if case == "log_pair_form":
        node = {"lin": lambda n: n.dlogF, "quad": lambda n: n.dlogF ** 2}
    else:
        node = {"lin": lambda n: n.dbar(form), "quad": lambda n: n.dbar(form) ** 2}
    closed = {"lin": op.DbarPower(form, 1), "quad": op.DbarPower(form, 2)}
    factors = {"lin": lambda c: c.sqF * c.kin, "quad": lambda c: c.kin}
    return ({name: (closed[name], factors[name]) for name in factors},
            {name: (node[name], factors[name]) for name in factors})


CASES = {"poly": POLY_PSI, "ds_bump": DS_PSI, "log_pair_form": ANISO.log_pair_form}


@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("gamma", [0.0, -1.0])
@pytest.mark.parametrize("n_phi", [5, 6, 7, 8])
def test_closed_form_moments_match_the_node_loop(case, gamma, n_phi):
    """For n_phi >= 5 the phi trapezoid is exact on (dbar psi)^1 and ^2 of a
    quadratic form, so the closed-form terms meet the node loop's sums to
    roundoff: 1e-13 relative for a quadratic polynomial, a DS bump and one
    Gaussian's Delta, at every eps of a batch."""
    spec = QuadratureSpec(pair_nodes=5, theta_panels=1, theta_nodes_per_panel=6,
                          sphere_phi_nodes=n_phi)
    kernel = kn.build_kernel(gamma=gamma, nu=0.5, epsilon=1.0, spec=spec)
    kernels = [kernel.with_epsilon(e) for e in (1.0, 0.25)]
    closed, node = _moment_terms(CASES[case], case)
    grid = op.pair_grid(ANISO, spec)
    for got, want in zip(op.collision_sweeps(grid, spec, dict.fromkeys(kernels, closed)).values(),
                         op.collision_sweeps(grid, spec, dict.fromkeys(kernels, node)).values()):
        for name in ("lin", "quad"):
            assert abs(got[name] - want[name]) <= 1e-13 * abs(want[name])


@pytest.mark.parametrize("case", list(CASES))
def test_closed_form_moments_are_the_exact_phi_integral(case):
    """At n_phi = 4, which coarsened() reaches from 5 or 6, the 4-node
    trapezoid aliases the cos(4 phi) part of a^2; the closed form is the
    exact phi-integral, which a 64-node trapezoid gives to roundoff."""
    spec4 = QuadratureSpec(pair_nodes=5, theta_panels=1, theta_nodes_per_panel=6,
                           sphere_phi_nodes=4)
    spec64 = QuadratureSpec(pair_nodes=5, theta_panels=1, theta_nodes_per_panel=6,
                            sphere_phi_nodes=64)
    kernel = kn.build_kernel(gamma=-1.0, nu=0.5, epsilon=0.5, spec=spec4)
    closed, node = _moment_terms(CASES[case], case)
    got = op.collision_sweep(op.pair_grid(ANISO, spec4), kernel, spec4, closed)
    want = op.collision_sweep(op.pair_grid(ANISO, spec64), kernel, spec64, node)
    aliased = op.collision_sweep(op.pair_grid(ANISO, spec4), kernel, spec4, node)
    for name in ("lin", "quad"):
        assert abs(got[name] - want[name]) <= 1e-13 * abs(want[name])
    assert abs(aliased["quad"] - want["quad"]) > 1e-6 * want["quad"]


@pytest.mark.parametrize("e", [1e-3, 1e-5])
def test_closed_form_keeps_a_near_isotropic_form(e):
    """Q = I + e diag(0, 1/2, 1): dbar psi reads only Q's traceless part, of
    size e, so the closed form works on that part and meets the node loop
    (64 azimuths) to 1e-10 relative; the full-trace terms, of size 1,
    cancel to about 1e-16/e^2 in the quadratic piece."""
    spec = QuadratureSpec(pair_nodes=5, theta_panels=1, theta_nodes_per_panel=6,
                          sphere_phi_nodes=64)
    kernel = kn.build_kernel(gamma=0.0, nu=0.5, epsilon=0.5, spec=spec)
    psi = fn.polynomial_testfn(quad=np.diag([1.0, 1.0 + 0.5 * e, 1.0 + e]))
    closed, node = _moment_terms(psi, "poly")
    grid = op.pair_grid(ANISO, spec)
    got = op.collision_sweep(grid, kernel, spec, closed)
    want = op.collision_sweep(grid, kernel, spec, node)
    for name in ("lin", "quad"):
        assert abs(got[name] - want[name]) <= 1e-10 * abs(want[name])


def test_closed_form_terms_skip_the_node_loop(monkeypatch):
    """A sweep of closed-form terms alone builds no collision node at any
    eps; a Gaussian psi still takes the nodes."""
    built = []
    monkeypatch.setattr(op, "collision_nodes", lambda *a: built.append(1) or iter(()))
    kernel = kn.build_kernel(gamma=0.0, nu=0.5, epsilon=1.0, spec=SPEC)
    kernels = [kernel.with_epsilon(e) for e in EPS]
    op._boltzmann_weak_values(ANISO, [POLY_PSI], kernels, SPEC, "second_order")
    assert built == []
    op._boltzmann_weak_values(ANISO, [GAUSS_PSI], kernels, SPEC, "second_order")
    assert built
