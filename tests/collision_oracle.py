"""The pointwise collision difference and sigma-average, for tests.

The sweeps take dbar psi in the collision frame (CollisionNode.dbar), from
forms built once per chunk, and never form v' and v*' for a test function
with a quadratic form. This module gives the same quantities the plain way:

    dbar psi = psi(v') + psi(v*') - psi(v) - psi(v*),

with v' = y + (r/2) sigma and v*' = y - (r/2) sigma formed here from
(v, v*, sigma), so a fault in the collision frame or in CollisionNode's v'
shows against it; and the one-pair sigma-average int term(node) B_eps
d(sigma) of a node term, whose eps -> 0 limits are the Landau pieces.
"""

import numpy as np

from grazing_lab import operators as op
from grazing_lab.functions import sq3


def dbar(psi, v, v_star, sigma):
    """Four-point collision difference at (v, v*, sigma), broadcast over the
    leading axes.

    Two-variable test functions use the symmetrized extension
    psi(v',v*') + psi(v*',v') - psi(v,v*) - psi(v*,v), in the pair frame
    (r, axis, y) they take (sigma a unit vector); v == v* is refused.
    """
    v, v_star = np.asarray(v, dtype=float), np.asarray(v_star, dtype=float)
    r, y = np.sqrt(sq3(v - v_star)), 0.5 * (v + v_star)
    if psi.kind == "single":
        half = (0.5 * r)[..., None] * sigma
        return psi.value(y + half) + psi.value(y - half) - psi.value(v) - psi.value(v_star)
    if np.any(r == 0.0):
        raise op.GeometryError("zero relative velocity")
    # psi(v*, v) is psi at the axis -k
    k = (v - v_star) / r[..., None]
    return (psi.value(r, sigma, y) + psi.value(r, -sigma, y)
            - psi.value(r, k, y) - psi.value(r, -k, y))


def sigma_average(v, v_star, kernel, spec, term):
    """int_{S^2} term(node) B_eps d(sigma) for a batch of pairs (kinetic
    factor included), on the sweep's theta x phi nodes; a pair with v = v*
    is refused. With term = node.dbar(psi) it tends to 2 dtilde . dtilde psi
    for a DS psi as eps drops, and with its square to 8 |dtilde psi|^2."""
    chunk = op.PairChunk(np.atleast_2d(v), np.atleast_2d(v_star), kernel=kernel)
    return chunk.kin * op._angular_sums(chunk, kernel, spec, {"t": term})["t"]
