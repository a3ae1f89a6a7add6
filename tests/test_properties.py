"""Property tests over random collisions, mobilities and Maxwellians.

Each property holds for every input, so hypothesis draws the inputs; with
derandomize=True the examples are the same on every run, which keeps the
suite deterministic. The sweeps run at a light spec: the properties hold at
any resolution.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from grazing_lab import dissipation as dp
from grazing_lab import functions as fn
from grazing_lab import kernels as kn
from grazing_lab import operators as op
from grazing_lab.quadrature import QuadratureSpec

LIGHT = QuadratureSpec(pair_nodes=5, theta_panels=1,
                       theta_nodes_per_panel=6, sphere_phi_nodes=6)
ANISO = fn.gaussian_mixture([(1.0, [0.0, 0.0, 0.0], [1.0, 1.0, 4.0])])

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)
SWEEP = settings(derandomize=True, database=None, deadline=None, max_examples=25)

coef = st.floats(-3.0, 3.0)
vec3 = st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3).map(np.array)
theta = st.floats(1e-6, np.pi / 2)
phi = st.floats(0.0, 2.0 * np.pi)


@st.composite
def pairs(draw):
    """(v, v*) with |v - v*| >= 0.1, so the collision frame is defined."""
    v, v_star = draw(vec3), draw(vec3)
    if np.linalg.norm(v - v_star) < 0.1:
        v_star = v + np.array([0.5, 0.0, 0.0])
    return v, v_star


# a symmetric 3x3 form from its 6 upper-triangle entries
sym3 = st.lists(coef, min_size=6, max_size=6).map(
    lambda q: np.array([[q[0], q[3], q[4]], [q[3], q[1], q[5]], [q[4], q[5], q[2]]]))

# a nonzero constant term keeps psi from vanishing identically
gaussian_psi = st.builds(
    lambda const, b, q, center, width: fn.gaussian_testfn(const=const, linear=b, quad=q,
                                                          center=center, width=width),
    st.floats(0.5, 3.0), vec3, sym3, vec3, st.floats(0.5, 5.0))


@PROPERTY
@given(a=coef, b=vec3, c=coef, pair=pairs(), theta=theta, phi=phi)
def test_collision_invariants_have_zero_dbar(sigma_at, a, b, c, pair, theta, phi):
    """dbar of a + b.v + c|v|^2 is roundoff, on both routes: the four-point
    operators.dbar and the collision-frame CollisionNode.dbar. The scale is the
    size of psi's terms, |a| + |b||v| + |c||v|^2, which bounds |psi(v)| and
    does not vanish where the terms cancel: for psi = 1 - |v|^2 at
    |v| = |v*| = 1, psi(v) = psi(v*) = 0 while |v'|^2 is 1 only to roundoff."""
    v, v_star = pair
    psi = fn.polynomial_testfn(const=a, linear=b, quad=c * np.eye(3))

    def scale(u):
        return abs(a) + np.linalg.norm(b) * np.linalg.norm(u) + abs(c) * (u @ u)

    bound = 1e-12 * (scale(v) + scale(v_star))
    assert abs(op.dbar(psi, v, v_star, sigma_at(v, v_star, theta, phi)[0])) <= bound
    chunk = op.PairChunk(v[None], v_star[None])
    node = op.CollisionNode(chunk, theta, LIGHT.sphere_phi_nodes, None)
    assert np.abs(node.dbar(psi)).max() <= bound


@PROPERTY
@given(psi=gaussian_psi, pair=pairs(), theta=theta, phi=phi)
def test_dbar_swap_symmetry(sigma_at, psi, pair, theta, phi):
    """dbar psi at (v, v*, sigma) equals dbar psi at (v*, v, -sigma): the
    same collision seen from the other particle."""
    v, v_star = pair
    sigma = sigma_at(v, v_star, theta, phi)[0]
    y, half = 0.5 * (v + v_star), 0.5 * np.linalg.norm(v - v_star) * sigma
    size = sum(abs(float(psi.value(u))) for u in (v, v_star, y + half, y - half))
    swapped = op.dbar(psi, v_star, v, -sigma)
    assert abs(op.dbar(psi, v, v_star, sigma) - swapped) <= 1e-12 * size + 1e-300


@PROPERTY
@given(psi=gaussian_psi, pair=pairs(), theta=theta)
def test_gaussian_node_dbar_matches_four_point(psi, pair, theta):
    """The collision-frame dbar of a Gaussian (CollisionNode.dbar, which
    builds no v' or v*') equals the four-point difference of psi.value
    (operators.dbar) at every azimuth of the node, within 1e-12 of the sum
    of |psi| at the four points."""
    v, v_star = pair
    chunk = op.PairChunk(v[None], v_star[None])
    node = op.CollisionNode(chunk, theta, LIGHT.sphere_phi_nodes, None)
    four = op.dbar(psi, node.v, node.v_star, node.sigma)
    size = sum(np.abs(psi.value(u)) for u in (node.v, node.v_star, node.vp, node.vsp))
    assert np.all(np.abs(node.dbar(psi) - four) <= 1e-12 * size + 1e-300)


@SWEEP
@given(c=st.lists(coef, min_size=4, max_size=4), e=vec3, psi=gaussian_psi,
       mix=st.sampled_from([0.0, 1e-2, 1.0]), eps=st.sampled_from([1.0, 0.5, 0.1]),
       gamma=st.sampled_from([0.0, -1.0]))
def test_metric_affine_dual_at_most_action(c, e, psi, mix, eps, gamma):
    """Young's inequality: the metric-affine dual is at most the action. The
    collision rate is the gradient-type rate of psi plus mix times a random
    shape, so at mix 0 the two are equal and a slack in either side shows."""
    e = e / max(np.linalg.norm(e), 1e-12)
    kernel = kn.build_kernel(gamma=gamma, nu=0.5, epsilon=eps, spec=LIGHT)

    def field(node):
        shape = (c[0] + c[1] * (node.sigma @ e)
                 + c[2] * np.exp(-0.1 * fn.sq3(node.v - node.v_star)) + c[3] * np.cos(node.theta))
        return (node.dbar(psi) + mix * shape) * node.lam_b

    (act, dual), = dp.actions_and_duals(ANISO, [(dp.Mobility(kind="boltzmann", field=field), psi)],
                                        kernel, LIGHT)
    assert dual <= act + 1e-12 * max(1.0, abs(act))


@SWEEP
@given(mean=vec3, temperature=st.floats(0.5, 2.0), eps=st.sampled_from([1.0, 0.5, 0.1]))
def test_maxwellian_dissipation_vanishes(mean, temperature, eps):
    """A Maxwellian is an equilibrium: its Boltzmann entropy dissipation is
    zero up to roundoff, whatever its mean and temperature."""
    f = fn.maxwellian(mean=mean, temperature=temperature)
    kernel = kn.build_kernel(gamma=0.0, nu=0.5, epsilon=eps, spec=LIGHT)
    assert abs(dp.boltzmann_dissipation(f, kernel, LIGHT).value) <= 1e-12
