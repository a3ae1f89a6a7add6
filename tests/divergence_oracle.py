"""The generic projected divergence of a pair vector field, for tests.

A PairVectorField carries div_x(Pi[x] V) in closed form. This module gives the
same scalar by the generic formula

    div_x(Pi[x] V) = tr J - xhat.J xhat - (2/|x|) xhat.V,    J[..., i, j] = dV_j/dx_i,

with J from a given Jacobian or from central differences of V.value, so that
the closed forms have an oracle that shares none of their algebra, and a
test can build a field from its value alone.
"""

import numpy as np


def projected_divergence(value, jac_x=None, h=1e-5):
    """div_pi(x, y) for the field `value`, by the generic formula. J is
    jac_x(x, y) if given, else central differences of value with step h.
    The result has the broadcast shape of x and y without the last axis and
    is 0 where x = 0."""
    def div_pi(x, y):
        x = np.asarray(x, dtype=float)
        shape = np.broadcast_shapes(x.shape, np.shape(y))
        if jac_x is None:
            J = np.stack([(value(x + h * e, y) - value(x - h * e, y)) / (2.0 * h)
                          for e in np.eye(3)], axis=-2)
        else:
            J = jac_x(x, y)
        J = np.broadcast_to(J, shape + (3,))
        val = np.broadcast_to(value(x, y), shape)
        r = np.broadcast_to(np.sqrt(np.sum(x**2, axis=-1)), shape[:-1])
        live = r > 0.0
        rs = np.where(live, r, 1.0)
        k = np.broadcast_to(x, shape) / rs[..., None]
        out = (np.trace(J, axis1=-2, axis2=-1) - np.einsum("...i,...ij,...j->...", k, J, k)
               - (2.0 / rs) * np.sum(k * val, axis=-1))
        return np.where(live, out, 0.0)

    return div_pi
