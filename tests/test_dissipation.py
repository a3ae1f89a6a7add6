import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from grazing_lab import dissipation as dp
from grazing_lab import functions as fn
from grazing_lab import kernels as kn
from grazing_lab import operators as op
from grazing_lab.quadrature import QuadratureSpec, coarse_fine

# frozen reference values from a refined run (pair 13, angular 2x12, phi 12)
REF_D_B_EPS025 = 8.979937331050056
REF_D_B_R_EPS025 = 8.954796298587805
REF_QB_GAUSS4_EPS05 = -14.128045211620709


@pytest.fixture(scope="module")
def ds_psi():
    return fn.bump_testfn("DS", {"delta": 0.4, "R": 5.0},
                          modulation={"const": 0.0, "x_quad": np.diag([1.0, 1.0, -2.0])},
                          y_radius=6.0)


def _study(f, kernel, spec, psis=()):
    """The study sweep's pieces at one kernel, valued at spec with the error
    against its coarse level, and each psi_j's affine Boltzmann value
    affine{j} = -2 lin{j} - quad{j}/4 formed at each level."""
    def level(s):
        out = dp._study_pieces(f, [kernel], s, list(psis))[0]
        return {**out, **{f"affine{j}": -2.0 * out[f"lin{j}"] - 0.25 * out[f"quad{j}"]
                          for j in range(len(psis))}}

    return coarse_fine(level, spec)


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


def test_boltzmann_dissipation_equilibrium(maxwellian, kernel_light, light_spec):
    r = dp.boltzmann_dissipation(maxwellian, kernel_light, light_spec)
    assert abs(r.value) < 1e-12


def test_dissipations_nonnegative(mixture, kernel_light, light_spec):
    assert dp.boltzmann_dissipation(mixture, kernel_light, light_spec).value >= 0.0
    assert _study(mixture, kernel_light, light_spec)["D_R"].value >= 0.0
    assert dp.landau_dissipation(mixture, 0.0, light_spec).value >= 0.0


def test_reduced_below_full(aniso, mixture, kernel_light, light_spec):
    # pointwise (x-y)(log x - log y) >= 4 (sqrt x - sqrt y)^2 makes the
    # ordering exact at shared quadrature nodes
    for f in (aniso, mixture):
        d = dp.boltzmann_dissipation(f, kernel_light, light_spec).value
        r = _study(f, kernel_light, light_spec)["D_R"].value
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
    r = _study(aniso, ker, work_spec)["D_R"]
    assert abs(r.value - REF_D_B_R_EPS025) < max(1e-4, 10 * r.error_estimate)


def test_weak_regression(aniso, work_spec):
    psi = fn.gaussian_testfn(const=1.0, quad=np.diag([0, 0, 1.0]), width=4.0)
    ker = kn.build_kernel(gamma=0.0, nu=0.5, epsilon=0.5, spec=work_spec)
    r = op.boltzmann_weak(aniso, psi, ker, work_spec)
    assert r.value < 0
    assert abs(r.value - REF_QB_GAUSS4_EPS05) < max(3e-4, 10 * r.error_estimate)


def test_lambda_bounds_random(aniso, rng, kernel_light, light_spec):
    """sqrt(F F') <= Lambda <= (F + F')/2 for the sweep's Lambda at every node
    of random pairs, strict when the arguments differ."""
    chunk = op.PairChunk(rng.normal(size=(10_000, 3)),
                         rng.normal(size=(10_000, 3)) + np.array([0.5, 0, 0]),
                         f=aniso, kernel=kernel_light)
    viol = 0
    for _, node in op.collision_nodes(chunk, light_spec, kernel_light):
        Fp = np.exp(aniso.log_value(node.vp) + aniso.log_value(node.vsp))
        F, lam = chunk.F[:, None], node.lam
        geo, ari = np.sqrt(F * Fp), 0.5 * (F + Fp)
        viol += int(np.count_nonzero((lam < geo - 1e-14 * ari) | (lam > ari + 1e-14 * ari)))
        distinct = np.abs(F / Fp - 1) > 1e-3
        viol += int(np.count_nonzero(distinct & ~((geo < lam) & (lam < ari))))
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
    out = _study(aniso, kernel_light, light_spec, [ds_psi])
    aff, red = out["affine0"], out["D_R"]
    tol = 10 * (aff.error_estimate + red.error_estimate) + 1e-9
    assert aff.value <= red.value + tol
    _, best = dp.optimal_scaling(out["lin0"].value, out["quad0"].value, "boltzmann")
    assert 0.0 <= best <= red.value + tol


def test_affine_boltzmann_zero(aniso, kernel_light, light_spec):
    psi0 = fn.bump_testfn("DS", {"delta": 0.5, "R": 4.0},
                          modulation={"const": 0.0, "x_quad": np.zeros((3, 3))},
                          y_radius=5.0)
    assert _study(aniso, kernel_light, light_spec, [psi0])["affine0"].value == 0.0


@pytest.mark.parametrize("bad", [
    fn.bump_testfn("AS", {"delta": 0.5, "R": 4.0}, modulation={"matrix": np.eye(3)},
                   y_radius=5.0),
    fn.polynomial_testfn(const=1.0),
], ids=["AS", "poly"])
def test_dissipation_study_refuses_non_ds(aniso, ds_psi, kernel_light, light_spec, monkeypatch,
                                          bad):
    """A psi that is not DS is refused by name before any pair is swept."""
    swept = []
    for name in ("pair_reduce", "collision_sweeps"):
        monkeypatch.setattr(dp, name, lambda *a, _n=name, **k: swept.append(_n))
    with pytest.raises(dp.DissipationError, match=r"psis\[1\]: .* DS test function"):
        dp.dissipation_study(aniso, kernel_light, [0.5], [ds_psi, bad], light_spec)
    assert swept == []


def test_dissipation_study_refuses_no_eps(aniso, ds_psi, kernel_light, light_spec):
    """A study needs at least one eps to sweep: an empty list is refused
    by name, not left to fail inside the sweep."""
    with pytest.raises(op.OperatorError, match=r"^eps_list: dissipation_study needs at least 1"):
        dp.dissipation_study(aniso, kernel_light, [], [ds_psi], light_spec)


def test_action_zero_and_homogeneity(aniso, kernel_light, light_spec):
    psi = fn.gaussian_testfn(const=1.0, quad=np.diag([0, 0, 1.0]), width=4.0)
    M = dp.gradient_mobility_boltzmann(psi)
    act = dp.boltzmann_action(aniso, M, kernel_light, light_spec)
    M2 = dp.Mobility(kind="boltzmann", field=lambda node: 2.0 * M.field(node))
    act2 = dp.boltzmann_action(aniso, M2, kernel_light, light_spec)
    assert_allclose(act2, 4.0 * act, rtol=1e-13)
    M0 = dp.Mobility(kind="boltzmann", field=lambda node: 0.0 * M.field(node))
    assert dp.boltzmann_action(aniso, M0, kernel_light, light_spec) == 0.0


def test_landau_action_homogeneity(aniso, light_spec):
    psi = fn.gaussian_testfn(const=1.0, quad=np.diag([0, 0, 1.0]), width=4.0)
    M = dp.gradient_mobility_landau(psi, 0.0)
    act = dp.landau_action(aniso, M, light_spec)
    M2 = dp.Mobility(kind="landau", field=lambda chunk: 2.0 * M.field(chunk))
    assert_allclose(dp.landau_action(aniso, M2, light_spec), 4.0 * act, rtol=1e-13)


def test_gradient_type_duality_exact(aniso, kernel_light, light_spec):
    psi = fn.gaussian_testfn(const=0.5, quad=np.diag([1.0, 0, -0.5]), width=3.0)
    M = dp.gradient_mobility_boltzmann(psi)
    act = dp.boltzmann_action(aniso, M, kernel_light, light_spec)
    aff = dp.metric_affine_boltzmann(aniso, M, psi, kernel_light, light_spec)
    assert abs(act - aff) <= 1e-12 * abs(act)
    ML = dp.gradient_mobility_landau(psi, 0.0)
    actL = dp.landau_action(aniso, ML, light_spec)
    affL = dp.metric_affine_landau(aniso, ML, psi, 0.0, light_spec)
    assert abs(actL - affL) <= 1e-12 * abs(actL)


def test_metric_affine_below_action(aniso, kernel_light, light_spec, rng):
    psi_a = fn.gaussian_testfn(const=0.5, quad=np.diag([1.0, 0, -0.5]), width=3.0)
    M = dp.gradient_mobility_boltzmann(psi_a)
    for _ in range(5):
        psi_b = fn.gaussian_testfn(const=float(rng.normal()),
                                   quad=np.diag(rng.normal(size=3)),
                                   width=float(rng.uniform(2.5, 4.5)))
        act = dp.boltzmann_action(aniso, M, kernel_light, light_spec)
        aff = dp.metric_affine_boltzmann(aniso, M, psi_b, kernel_light, light_spec)
        assert aff <= act + 1e-12 * abs(act)


def test_mobility_kind_checks(aniso, kernel_light, light_spec):
    psi = fn.polynomial_testfn(const=1.0)
    ML = dp.gradient_mobility_landau(psi, 0.0)
    with pytest.raises(dp.DissipationError):
        dp.boltzmann_action(aniso, ML, kernel_light, light_spec)
    MB = dp.gradient_mobility_boltzmann(psi)
    with pytest.raises(dp.DissipationError):
        dp.landau_action(aniso, MB, light_spec)


def test_liminf_at_smallest_eps(aniso, work_spec):
    ker = kn.build_kernel(gamma=0.0, nu=0.5, epsilon=1e-3, spec=work_spec)
    dB = dp.boltzmann_dissipation(aniso, ker, work_spec)
    dL = dp.landau_dissipation(aniso, 0.0, work_spec)
    assert dB.value >= dL.value - 10 * (dB.error_estimate + dL.error_estimate) - 1e-6


# recorded at light_spec before the sweep shared its node state
REF_ACTION_LIGHT = 25.50506880376146
REF_DUAL_LIGHT = -67.0431281869499


def _light_pair(aniso, kernel_light):
    psi_a = fn.gaussian_testfn(const=0.5, quad=np.diag([1.0, 0, -0.5]), width=3.0)
    psi_b = fn.gaussian_testfn(const=1.0, quad=np.diag([0, 0, 1.0]), width=4.0)
    return dp.gradient_mobility_boltzmann(psi_a), psi_b


def test_action_and_dual_regression(aniso, kernel_light, light_spec):
    M, psi = _light_pair(aniso, kernel_light)
    act = dp.boltzmann_action(aniso, M, kernel_light, light_spec)
    aff = dp.metric_affine_boltzmann(aniso, M, psi, kernel_light, light_spec)
    assert_allclose([act, aff], [REF_ACTION_LIGHT, REF_DUAL_LIGHT], rtol=1e-14)
    assert dp.actions_and_duals(aniso, [(M, psi)], kernel_light, light_spec) == [(act, aff)]


def _level_node_visits(f, kernel, spec) -> int:
    """(chunk, theta node) visits of one sweep at spec."""
    chunks = -(-op.pair_grid(f, spec).n_pairs // op.CHUNK)
    return chunks * kn.angular_nodes(kernel.angular, spec)[0].size


def _node_visits(f, kernel, spec) -> int:
    """(chunk, theta node) visits of one coarse and one fine sweep."""
    return sum(_level_node_visits(f, kernel, s) for s in (spec.coarsened(), spec))


def test_action_and_dual_share_mobility_values(aniso, kernel_light, light_spec):
    """The fused action/dual sweep evaluates M.field as often as the action
    alone: once for M and once for its swap at every node. A batch of three
    pairs, one without psi, still evaluates each mobility twice per node."""
    base, psi = _light_pair(aniso, kernel_light)
    calls = []

    def counted(tag):
        def field(node):
            calls.append(tag)
            return base.field(node)

        return dp.Mobility(kind="boltzmann", field=field)

    M = counted(0)
    dp.boltzmann_action(aniso, M, kernel_light, light_spec)
    alone = len(calls)
    calls.clear()
    dp.actions_and_duals(aniso, [(M, psi)], kernel_light, light_spec)
    assert len(calls) == alone == 2 * _level_node_visits(aniso, kernel_light, light_spec)
    calls.clear()
    dp.actions_and_duals(aniso, [(counted(1), psi), (counted(2), None), (counted(3), psi)],
                         kernel_light, light_spec)
    assert [calls.count(tag) for tag in (1, 2, 3)] == [alone] * 3


@pytest.mark.parametrize("threads", ["1", "2"])
def test_batched_actions_equal_one_pair_values(aniso, mixture, kernel_light, light_spec,
                                               monkeypatch, threads):
    """A batch of (M, psi) pairs gives each pair the action and dual of its
    own one-pair sweep, bit for bit: a random-shape rate, a gradient-type
    rate and a psi-less action, on one Gaussian and on the mixture, on the
    Boltzmann side and on the Landau side."""
    from grazing_lab import cli

    monkeypatch.setenv("GRAZING_LAB_THREADS", threads)
    rng = np.random.default_rng(5)
    psi_a = fn.gaussian_testfn(const=0.5, quad=np.diag([1.0, 0, -0.5]), width=3.0)
    psi_b = fn.gaussian_testfn(const=1.0, quad=np.diag([0, 0, 1.0]), width=4.0)
    boltzmann = [(cli._random_shape_mobility(rng), psi_b),
                 (dp.gradient_mobility_boltzmann(psi_a), psi_a),
                 (cli._random_shape_mobility(rng), None)]
    landau = [(cli._random_landau_mobility(rng, 0.0), psi_b),
              (dp.gradient_mobility_landau(psi_a, 0.0), psi_a),
              (cli._random_landau_mobility(rng, 0.0), None)]
    for f in (aniso, mixture):
        batched = dp.actions_and_duals(f, boltzmann, kernel_light, light_spec)
        assert batched == [dp.actions_and_duals(f, [pair], kernel_light, light_spec)[0]
                           for pair in boltzmann]
        assert batched[2][1] is None
        batched = dp.landau_actions_and_duals(f, landau, 0.0, light_spec)
        assert batched == [dp.landau_actions_and_duals(f, [pair], 0.0, light_spec)[0]
                           for pair in landau]
        assert batched[2][1] is None


def test_long_batches_sweep_in_groups(aniso, kernel_light, light_spec, monkeypatch):
    """A batch longer than _PAIRS_PER_SWEEP is swept in groups of that many
    pairs, one sweep each, with the same values."""
    psi = fn.gaussian_testfn(const=1.0, quad=np.diag([0, 0, 1.0]), width=4.0)
    pairs = [(dp.gradient_mobility_boltzmann(fn.polynomial_testfn(quad=np.diag([c, 0, 0]))), psi)
             for c in (1.0, 2.0, 3.0)]
    whole = dp.actions_and_duals(aniso, pairs, kernel_light, light_spec)
    sweeps = []
    sweep = dp.collision_sweep
    monkeypatch.setattr(dp, "collision_sweep", lambda *a, **k: sweeps.append(1) or sweep(*a, **k))
    monkeypatch.setattr(dp, "_PAIRS_PER_SWEEP", 2)
    assert dp.actions_and_duals(aniso, pairs, kernel_light, light_spec) == whole
    assert len(sweeps) == 2


def test_metric_affine_sweeps_once_per_level(monkeypatch):
    """metric_affine takes every Boltzmann pair, the equality pair included,
    from one collision_sweep, and every Landau pair from one pair_reduce: no
    pass runs at a coarse level, since no verdict reads an error estimate."""
    from collections import Counter

    from grazing_lab import cli

    counts = Counter()

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(dp, "collision_sweep")
    count(dp, "pair_reduce")
    # every pass over the pair chunks, whichever name reaches it
    count(op, "collision_sweeps")
    count(dp, "collision_sweeps")
    report = cli.run({"experiment": "metric_affine",
                      "quadrature": {"pair_nodes": 5, "theta_panels": 1,
                                     "theta_nodes_per_panel": 5, "sphere_phi_nodes": 5},
                      "params": {"n_pairs": 4}})
    assert counts == {"collision_sweep": 1, "collision_sweeps": 1, "pair_reduce": 1}
    assert len(report.rows) == 4 and report.all_pass()


def test_dissipation_study_makes_one_landau_pass_per_level(aniso, ds_psi, kernel_light,
                                                           light_spec, monkeypatch):
    """D_L and the affine Landau pieces of every psi share one pair_reduce per
    quadrature level, and every eps one collision_sweeps: two of each per
    study, however many psis."""
    from collections import Counter

    counts = Counter()
    for name in ("pair_reduce", "collision_sweeps"):
        original = getattr(dp, name)
        monkeypatch.setattr(dp, name, lambda *a, _n=name, _o=original, **k:
                            counts.update([_n]) or _o(*a, **k))
    psi2 = fn.bump_testfn("DS", {"delta": 0.5, "R": 4.0},
                          modulation={"const": 0.0, "x_quad": np.diag([1.0, -0.5, 0.3])},
                          y_radius=5.0)
    study = dp.dissipation_study(aniso, kernel_light, [0.5, 0.25], [ds_psi, psi2], light_spec)
    assert counts == {"pair_reduce": 2, "collision_sweeps": 2}
    assert len(study["affine_landau"]) == 2 and len(study["rows"]) == 2


def test_boltzmann_dissipation_sweeps_its_own_term(mixture, kernel_light, light_spec):
    """boltzmann_dissipation sweeps D_B alone; value and error estimate are
    bit-identical to the D_B of the study's sweep, which also carries D_B^R."""
    alone = dp.boltzmann_dissipation(mixture, kernel_light, light_spec)
    study = coarse_fine(lambda s: dp._study_pieces(mixture, [kernel_light], s, [])[0],
                        light_spec)
    assert alone == study["D_B"]


def _count_node_logs(monkeypatch) -> list:
    """Record each GaussianMixture.log_value call at (C, n_phi, 3)
    post-collision points."""
    log_value = fn.GaussianMixture.log_value
    node_calls = []

    def counted(self, v):
        if np.ndim(v) == 3:
            node_calls.append(1)
        return log_value(self, v)

    monkeypatch.setattr(fn.GaussianMixture, "log_value", counted)
    return node_calls


def test_dissipation_logs_once_per_node(aniso, kernel_light, light_spec, monkeypatch):
    """For one Gaussian, D_B reads Delta = log f'f*' - log ff* in the
    collision frame: no log f at any post-collision node."""
    node_calls = _count_node_logs(monkeypatch)
    dp.boltzmann_dissipation(aniso, kernel_light, light_spec)
    assert node_calls == []


def test_mixture_dissipation_logs_once_per_node(mixture, kernel_light, light_spec, monkeypatch):
    """A mixture's D_B and D_B^R share Delta, taken through the
    responsibilities in the collision frame: no log f at any post-collision
    node."""
    node_calls = _count_node_logs(monkeypatch)
    _study(mixture, kernel_light, light_spec)
    assert node_calls == []


def test_random_rate_reads_node_logs(aniso, kernel_light, light_spec, monkeypatch):
    """A random admissible rate reads Lambda B_eps from the node: for one
    Gaussian the fused action/dual sweep evaluates log f at no v' or v*'."""
    from grazing_lab import cli

    M = cli._random_shape_mobility(np.random.default_rng(3))
    psi = fn.gaussian_testfn(const=1.0, quad=np.diag([0, 0, 1.0]), width=4.0)
    node_calls = _count_node_logs(monkeypatch)
    dp.actions_and_duals(aniso, [(M, psi)], kernel_light, light_spec)
    assert node_calls == []


def test_mixture_random_rate_reads_node_logs(mixture, kernel_light, light_spec, monkeypatch):
    """For a mixture too the fused action/dual sweep evaluates log f at no
    v' or v*'."""
    from grazing_lab import cli

    M = cli._random_shape_mobility(np.random.default_rng(3))
    psi = fn.gaussian_testfn(const=1.0, quad=np.diag([0, 0, 1.0]), width=4.0)
    node_calls = _count_node_logs(monkeypatch)
    dp.actions_and_duals(mixture, [(M, psi)], kernel_light, light_spec)
    assert node_calls == []


def _count_post_values(psi, calls: list):
    """psi with its value counting the calls at (C, n_phi, 3) post-collision points."""
    value = psi.value

    def counted(v):
        if np.ndim(v) == 3:
            calls.append(1)
        return value(v)

    return dataclasses.replace(psi, value=counted)


def test_gaussian_dbar_reads_no_post_collision_values(aniso, kernel_light, light_spec):
    """A Gaussian psi takes dbar in the collision frame: neither the weak
    Boltzmann sweep nor the fused action/dual sweep (a gradient-type rate of
    one Gaussian, the dual of another) evaluates psi at v' or v*'."""
    calls = []
    psi_a = _count_post_values(fn.gaussian_testfn(const=0.5, quad=np.diag([1.0, 0, -0.5]),
                                                  width=3.0), calls)
    psi_b = _count_post_values(fn.gaussian_testfn(const=1.0, linear=[0.2, 0.0, -0.1],
                                                  quad=np.diag([0, 0, 1.0]),
                                                  center=[0.5, 0.0, 0.0], width=4.0), calls)
    op.boltzmann_weak(aniso, psi_b, kernel_light, light_spec)
    dp.actions_and_duals(aniso, [(dp.gradient_mobility_boltzmann(psi_a), psi_b)], kernel_light,
                         light_spec)
    assert calls == []


def test_cc_single_dbar_takes_the_four_points(aniso, kernel_light, light_spec):
    """A Cc_single bump has no collision-frame form: the weak Boltzmann sweep
    evaluates it at v' and v*', two calls per node, and its pairing is
    finite."""
    calls = []
    psi = _count_post_values(fn.bump_testfn("Cc_single", {"delta": 0.1, "R": 3.0},
                                            modulation={"const": 1.0,
                                                        "v_quad": np.diag([0.5, 0, -0.2])}),
                             calls)
    q = op.boltzmann_weak(aniso, psi, kernel_light, light_spec)
    assert np.isfinite(q.value) and q.value != 0.0
    assert len(calls) == 2 * _node_visits(aniso, kernel_light, light_spec)


def test_swapped_node_orientation(aniso, kernel_light, light_spec):
    """node.m_sym reads the node from (v*, v, -sigma): for a rate that is not
    swap-symmetric it equals the rate evaluated there from scratch."""
    e = np.array([0.3, -0.5, 0.8])

    def direct(v, vs, sigma, theta):
        r = np.sqrt(fn.sq3(v - vs))
        mid, half = 0.5 * (v + vs), 0.5 * r[..., None] * sigma
        lam = dp.log_mean(aniso.value(v) * aniso.value(vs),
                          aniso.value(mid + half) * aniso.value(mid - half))
        big_b = kernel_light.kinetic_factor(r) * kn.beta_eps(kernel_light.angular, theta)
        return (sigma @ e + fn.sq3(v)) * lam * big_b / np.sin(theta)

    M = dp.Mobility(kind="boltzmann",
                    field=lambda node: (node.sigma @ e + fn.sq3(node.v)) * node.lam_b)
    chunk = op.pair_grid(aniso, light_spec).chunk(0, op.CHUNK, kernel_light)
    _, node = next(op.collision_nodes(chunk, light_spec, kernel_light))
    v, vs = chunk.v[:, None, :], chunk.v_star[:, None, :]
    assert_allclose(node.m(M), direct(v, vs, node.sigma, node.theta), rtol=1e-12)
    assert_allclose(node.m_sym(M), direct(vs, v, -node.sigma, node.theta), rtol=1e-12)
    assert not np.allclose(node.m(M), node.m_sym(M))


def test_action_group_forms_three_pair_factors(aniso, kernel_light, light_spec, monkeypatch):
    """A full group of (M, psi) pairs shares its pair factors: its plan
    carries 1/kin, 1 and kin once each, so a chunk forms 3 factor arrays
    whatever the number of pairs."""
    psi = fn.polynomial_testfn(quad=np.eye(3))
    M = dp.gradient_mobility_boltzmann(psi)
    plans = []

    def sweep(grid, kernel, spec, terms):
        plans.append(terms)
        return dict.fromkeys(terms, 0.0)

    monkeypatch.setattr(dp, "collision_sweep", sweep)
    dp.actions_and_duals(aniso, [(M, psi)] * dp._PAIRS_PER_SWEEP, kernel_light, light_spec)
    (terms,) = plans
    assert len(terms) == 3 * dp._PAIRS_PER_SWEEP
    assert len({factor for _, factor in terms.values()}) == 3


def test_node_freed_after_swapped_read(aniso, kernel_light, light_spec):
    """Reading a node through its swapped view leaves no reference cycle, so
    the node and its arrays go as soon as the sweep moves on, not when the
    cyclic garbage collector next runs."""
    import gc
    import weakref

    M = dp.gradient_mobility_boltzmann(fn.polynomial_testfn(quad=np.eye(3)))
    chunk = op.pair_grid(aniso, light_spec).chunk(0, op.CHUNK, kernel_light)
    _, node = next(op.collision_nodes(chunk, light_spec, kernel_light))
    gc.disable()
    try:
        node.m_sym(M)
        ref = weakref.ref(node)
        del node
        assert ref() is None
    finally:
        gc.enable()


# recorded at light_spec before landau-kind mobilities read the pair chunk
REF_LANDAU_ACTION_LIGHT = 25.810593487152403
REF_LANDAU_DUAL_LIGHT = -67.65987796309716


def test_landau_action_and_dual_regression(aniso, light_spec):
    psi_a = fn.gaussian_testfn(const=0.5, quad=np.diag([1.0, 0, -0.5]), width=3.0)
    psi_b = fn.gaussian_testfn(const=1.0, quad=np.diag([0, 0, 1.0]), width=4.0)
    base = dp.gradient_mobility_landau(psi_a, 0.0)
    calls = []

    def field(chunk):
        calls.append(1)
        return base.field(chunk)

    M = dp.Mobility(kind="landau", field=field)
    (act, aff), = dp.landau_actions_and_duals(aniso, [(M, psi_b)], 0.0, light_spec)
    assert len(calls) == -(-op.pair_grid(aniso, light_spec).n_pairs // op.CHUNK)
    assert_allclose([act, aff], [REF_LANDAU_ACTION_LIGHT, REF_LANDAU_DUAL_LIGHT], rtol=1e-14)
    assert dp.landau_action(aniso, M, light_spec) == act
    assert dp.metric_affine_landau(aniso, M, psi_b, 0.0, light_spec) == aff


# recorded at light_spec before the Landau-side quantities read PairChunk; the
# landau_dissipation error re-recorded when |Pi G|^2 became |G - (k.G) k|^2,
# which moved the coarse level by 6.7e-16 (the value kept its bits)
REF_LANDAU_SIDE_LIGHT = {
    "landau_weak_second": (-2.969984595014588, 0.1455199603563142),
    "landau_weak_first": (-3.0437512506249647, 0.06092321771242748),
    "landau_dissipation": (1.8477529509821946, 0.008109376086260722),
    "affine_landau_ds": (-55045.03947155757, 5880.725363968952),
    "affine_landau_as": (-272.9615553639321, 10.825105275004944),
}


def test_landau_side_regression(aniso, ds_psi, light_spec):
    gamma = -1.0
    psi = fn.gaussian_testfn(const=1.0, quad=np.diag([0, 0, 1.0]), width=4.0)
    V = fn.bump_testfn("AS", {"delta": 0.5, "R": 4.0},
                       modulation={"matrix": np.diag([1.0, -0.5, 0.3])}, y_radius=5.0)
    got = {
        "landau_weak_second": op.landau_weak(aniso, psi, gamma, light_spec),
        "landau_weak_first": op.landau_weak(aniso, psi, gamma, light_spec, form="first_order"),
        "landau_dissipation": dp.landau_dissipation(aniso, gamma, light_spec),
        "affine_landau_ds": dp.affine_landau(aniso, ds_psi, gamma, light_spec),
        "affine_landau_as": dp.affine_landau(aniso, V, gamma, light_spec),
    }
    for name, (value, err) in REF_LANDAU_SIDE_LIGHT.items():
        assert_allclose([got[name].value, got[name].error_estimate], [value, err], rtol=1e-14,
                        err_msg=name)


def test_affine_landau_ds_reads_envelope_once_per_chunk(aniso, ds_psi, light_spec):
    """dtilde psi and the dtilde.dtilde bracket of a DS psi are closed forms
    in its envelope and Q: the chunk reads the envelope once and calls no
    other callable of psi."""
    calls = {}

    def counted(name, call):
        def wrapped(*args):
            calls[name] = calls.get(name, 0) + 1
            return call(*args)
        return wrapped

    psi = dataclasses.replace(ds_psi, **{
        f.name: counted(f.name, getattr(ds_psi, f.name)) for f in dataclasses.fields(ds_psi)
        if callable(getattr(ds_psi, f.name))})
    dp.affine_landau(aniso, psi, -1.0, light_spec)
    chunks = sum(-(-op.pair_grid(aniso, s).n_pairs // op.CHUNK)
                 for s in (light_spec.coarsened(), light_spec))
    assert calls == {"envelope": chunks}


def test_ds_sweep_evaluates_value_on_pairs_only(aniso, ds_psi, kernel_light, light_spec):
    """A DS psi's dbar comes from its collision-frame form: a _study_pieces
    sweep never calls psi.value on (C, n_phi) node arrays, and reads the
    envelope once per chunk at the pairs."""
    import dataclasses

    value_dims, envelope_dims = [], []

    def value(s, k, y):
        value_dims.append(np.ndim(k))
        return ds_psi.value(s, k, y)

    def envelope(s, y):
        envelope_dims.append(np.ndim(s))
        return ds_psi.envelope(s, y)

    psi = dataclasses.replace(ds_psi, value=value, envelope=envelope)
    out, = dp._study_pieces(aniso, [kernel_light], light_spec, [psi])
    assert out["quad0"] > 0.0
    assert all(d == 2 for d in value_dims)
    chunks = -(-op.pair_grid(aniso, light_spec).n_pairs // op.CHUNK)
    assert envelope_dims == [1] * chunks


def test_affine_pieces_reach_landau_limit(aniso, ds_psi):
    """At eps = 1e-5 the optimally scaled affine Boltzmann value equals the
    affine Landau value to 1e-9 relative (the N(0, diag(1, 1, 4)) density,
    DS psi and spec of the eps-sweep benchmark)."""
    spec = QuadratureSpec(pair_nodes=6, theta_panels=2, theta_nodes_per_panel=8,
                          sphere_phi_nodes=8)
    ker = kn.build_kernel(gamma=0.0, nu=0.5, epsilon=1e-5, spec=spec)
    study = dp.dissipation_study(aniso, ker, [1e-5], [ds_psi], spec)
    boltz = study["rows"][0]["affine_boltzmann"][0]
    landau = study["affine_landau"][0]
    assert abs(boltz - landau) <= 1e-9 * abs(landau)


def _r_eps(eps: float, nu: float = 0.5) -> float:
    """R(eps) = int theta^(-1-nu) sin^2(theta) / int theta^(1-nu) over
    (0, eps/2), as 1 - (2 - nu) int_0^1 s^(1-nu) (1 - sinc^2(eps s/2)) ds:
    the algebraic weight on scipy's quad and a series for 1 - sinc^2 at
    small arguments, with no cancellation."""
    from scipy import integrate

    a = 0.5 * eps

    def one_minus_sinc2(s):
        x = a * s
        if abs(x) < 1e-2:
            x2 = x * x
            return x2 * (1.0 / 3.0 - x2 * (2.0 / 45.0 - x2 * (1.0 / 315.0 - x2 * 2.0 / 14175.0)))
        return 1.0 - (np.sin(x) / x) ** 2

    val, _ = integrate.quad(one_minus_sinc2, 0.0, 1.0, weight="alg", wvar=(1.0 - nu, 0.0),
                            epsabs=0.0, epsrel=1e-13, limit=200)
    return 1.0 - (2.0 - nu) * val


def test_identity_route_is_exact_to_roundoff(aniso):
    """On N(0, diag(1, 1, 4)) at gamma = 0, D_B^id = -1/2 int int F int Delta B_eps
    is 9 R(eps): Delta is a quadratic form, so the pair rule integrates it
    exactly and the closed-form theta-moment leaves only roundoff, 1e-13 at
    eps = 1e-4 and 1e-5 (the node loop's azimuth sum left 4.6e-11 at 1e-5)."""
    spec = QuadratureSpec(pair_nodes=6, theta_panels=2, theta_nodes_per_panel=8,
                          sphere_phi_nodes=8)
    ker = kn.build_kernel(gamma=0.0, nu=0.5, epsilon=1e-4, spec=spec)
    study = dp.dissipation_study(aniso, ker, [1e-4, 1e-5], [], spec)
    for row in study["rows"]:
        assert abs(row["D_B_id"] - 9.0 * _r_eps(row["eps"])) <= 1e-13
