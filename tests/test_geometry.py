"""The collision frame the sweeps run: PairChunk's axis k and azimuths p,
and CollisionNode's sigma, v' and v*'."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose
from test_golden import load, mismatches

from grazing_lab import cli
from grazing_lab import functions as fn
from grazing_lab import kernels as kn
from grazing_lab import operators as op
from grazing_lab.quadrature import QuadratureSpec

SPEC = QuadratureSpec(pair_nodes=6, theta_panels=2, theta_nodes_per_panel=8, sphere_phi_nodes=8)
KERNEL = kn.build_kernel(gamma=0.0, nu=0.5, epsilon=0.5, spec=SPEC)


def random_chunk(rng, n):
    v = rng.normal(size=(n, 3))
    vs = rng.normal(size=(n, 3)) + np.array([1.0, -0.5, 0.25])
    return op.PairChunk(v, vs, kernel=KERNEL)


def one_pair(v, v_star):
    return op.PairChunk(np.array([v], dtype=float), np.array([v_star], dtype=float))


def node_at(chunk, theta, n_phi=8):
    return op.CollisionNode(chunk, theta, n_phi, KERNEL)


def sweep_nodes(chunk):
    """The chunk's nodes at the kernel's theta rule, plus theta = pi/2."""
    yield from (node for _, node in op.collision_nodes(chunk, SPEC, KERNEL))
    yield node_at(chunk, np.pi / 2, SPEC.sphere_phi_nodes)


def test_post_collision_identity_direction():
    chunk = one_pair([1.0, 0, 0], [-1.0, 0, 0])
    node = node_at(chunk, 0.0)
    assert_allclose(node.sigma[0], np.broadcast_to(chunk.k[0], (8, 3)))
    assert_allclose(node.vp[0], np.broadcast_to([1.0, 0, 0], (8, 3)))
    assert_allclose(node.vsp[0], np.broadcast_to([-1.0, 0, 0], (8, 3)))


def test_post_collision_right_angle():
    node = node_at(one_pair([1.0, 0, 0], [-1.0, 0, 0]), np.pi / 2)
    # azimuth 0 is h = e2, the basis vector least aligned with k = e1
    assert_allclose(node.vp[0, 0], [0, 1, 0], atol=1e-15)
    assert_allclose(node.vsp[0, 0], [0, -1, 0], atol=1e-15)


def test_post_collision_head_on_exchange():
    node = node_at(one_pair([1.0, 0, 0], [-1.0, 0, 0]), np.pi)
    assert_allclose(node.vp[0], np.broadcast_to([-1.0, 0, 0], (8, 3)), atol=1e-15)
    assert_allclose(node.vsp[0], np.broadcast_to([1.0, 0, 0], (8, 3)), atol=1e-15)


def test_post_collision_rejects_coincident():
    psi = fn.polynomial_testfn(quad=np.eye(3))
    with pytest.raises(op.GeometryError, match="zero relative velocity"):
        op.dbar_kernel_average(psi, np.ones(3), np.ones(3), KERNEL, SPEC)


def test_conservation_bulk(rng):
    chunk = random_chunk(rng, 10_000)
    v, vs = chunk.v[:, None, :], chunk.v_star[:, None, :]
    scale = np.sum(v**2 + vs**2, axis=2)
    for node in sweep_nodes(chunk):
        vp, vsp = node.vp, node.vsp
        assert np.abs(vp + vsp - v - vs).max() < 1e-10
        assert (np.abs(np.sum(vp**2 + vsp**2 - v**2 - vs**2, axis=2)) / scale).max() < 1e-10


def test_angle_identity_bulk(rng):
    chunk = random_chunk(rng, 10_000)
    k = chunk.k[:, None, :]
    p = chunk.azimuths(SPEC.sphere_phi_nodes)
    assert np.abs(fn.sq3(p) - 1.0).max() < 1e-12
    assert np.abs(fn.dot3(p, k)).max() < 1e-12
    for node in sweep_nodes(chunk):
        sigma = node.sigma
        lhs = fn.sq3(sigma - k)
        rhs = 2.0 * (1.0 - fn.dot3(k, sigma))
        assert np.abs(lhs - rhs).max() < 1e-12
        assert np.abs(np.sqrt(fn.sq3(sigma)) - 1).max() < 1e-12


def test_sigma_from_angles_poles(rng):
    chunk = random_chunk(rng, 50)
    h, _ = op.orthonormal_frame(chunk.k)
    assert_allclose(node_at(chunk, 0.0).sigma, np.broadcast_to(chunk.k[:, None, :], (50, 8, 3)),
                    atol=1e-15)
    assert_allclose(node_at(chunk, np.pi / 2).sigma[:, 0], h, atol=1e-15)


def test_sigma_angle_round_trip(rng):
    chunk = random_chunk(rng, 100)
    for node in sweep_nodes(chunk):
        assert np.abs(fn.dot3(chunk.k[:, None, :], node.sigma) - np.cos(node.theta)).max() < 1e-12


def _circle_sum(chunk, n):
    p = chunk.azimuths(n)
    return (2.0 * np.pi / n) * np.einsum("cai,caj->cij", p, p)


def test_circle_average_exactness():
    assert_allclose(_circle_sum(one_pair([1.0, 0, 0], [0, 0, 0]), 8)[0],
                    np.pi * np.diag([0.0, 1, 1]), atol=1e-12)
    assert_allclose(_circle_sum(one_pair([0, 0, 1.0], [0, 0, 0]), 4)[0],
                    np.pi * np.diag([1.0, 1, 0]), atol=1e-12)


def test_circle_average_trace(rng):
    chunk = random_chunk(rng, 20)
    proj = np.eye(3) - chunk.k[:, :, None] * chunk.k[:, None, :]
    for n in (4, 8, 16):
        M = _circle_sum(chunk, n)
        assert np.abs(np.trace(M, axis1=1, axis2=2) - 2 * np.pi).max() < 1e-12
        assert_allclose(M, np.pi * proj, atol=1e-12)


def test_circle_average_min_nodes():
    """A uniform azimuth rule is exact for p (x) p from four nodes on; the
    spec refuses fewer."""
    with pytest.raises(ValueError, match="sphere_phi_nodes must be >= 4"):
        QuadratureSpec(sphere_phi_nodes=3)


def test_cosine_sandwich():
    th = np.linspace(1e-9, np.pi, 5001)
    assert np.all((2 / np.pi**2) * th**2 <= 1 - np.cos(th) + 1e-15)
    assert np.all(1 - np.cos(th) <= 0.5 * th**2 + 1e-15)
    th2 = np.linspace(1e-9, np.pi / 2, 5001)
    assert np.all((2 / np.pi) * th2 <= np.sin(th2) + 1e-15)
    assert np.all(np.sin(th2) <= th2 + 1e-15)


def test_relative_velocity_map():
    v, vs = np.array([1.2, -0.3, 0.4]), np.array([-0.5, 0.8, 0.1])
    node = node_at(one_pair(v, vs), 0.6)
    x_post = 0.5 * (node.vp[0] - node.vsp[0])
    y_post = 0.5 * (node.vp[0] + node.vsp[0])
    assert_allclose(x_post, np.linalg.norm(0.5 * (v - vs)) * node.sigma[0], atol=1e-12)
    assert_allclose(y_post, np.broadcast_to(0.5 * (v + vs), (8, 3)), atol=1e-12)


def test_frame_is_deterministic(rng):
    chunk = random_chunk(rng, 1)
    k = chunk.k
    h1, i1 = op.orthonormal_frame(k)
    h2, i2 = op.orthonormal_frame(k.copy())
    assert_allclose(h1, h2)
    assert_allclose(i1, i2)
    assert abs(fn.dot3(h1, k)[0]) < 1e-14
    assert_allclose(np.cross(k, h1), i1, atol=1e-14)
    # the sweep's azimuth 0 is h, and a second chunk of the same pair has the same azimuths
    assert_allclose(chunk.azimuths(8)[:, 0], h1)
    again = op.PairChunk(chunk.v.copy(), chunk.v_star.copy())
    assert np.array_equal(again.azimuths(8), chunk.azimuths(8))


def test_frame_tie_rule_does_not_read_the_last_bit():
    """On the pair grid of a density with scale (1, 1, 2), many axes have
    |k_1| = |k_2| up to roundoff, and the tie rule picks their azimuths. With
    the third covariance entry one ulp below 4, every value of the pinned
    dissipation_study, its error estimates included, stays where the golden
    body has it."""
    golden = load("dissipation_study")
    config = json.loads(json.dumps(golden["config"]))
    config["density"]["components"][0][2][2] = 4.0 - 2.0**-51
    assert mismatches(golden["body"], json.loads(cli.run(config).body_bytes())) == []
