"""The generic projected divergence of a pair vector field, for tests.

A PairVectorField carries div_x(Pi[x] V) in closed form. This module gives the
same scalar by the generic formula

    div_x(Pi[x] V) = tr J - xhat.J xhat - (2/|x|) xhat.V,    J[..., i, j] = dV_j/dx_i,

with J from a given Jacobian or from central differences of V.value, so that
the closed forms have an oracle that shares none of their algebra, and a
test can build a field from its value alone. For a DS bump psi, V is the
x-gradient g of psi and J its Hessian H, both central differences of
psi.value (central_gradient, central_hessian), and the formula is the
bracket tr H - xhat.H xhat - (2/|x|) xhat.g of dtilde . dtilde psi.

Pair fields take the pair frame (s, k, y) = (|v - v*|, (v - v*)/|v - v*|, y)
while the differences here step in x = (v - v*)/2: at_x reads a pair-frame
callable at (x, y), and on_frame gives an (x, y) callable the pair frame.
"""

import numpy as np


def at_x(field):
    """(x, y) -> field(2|x|, x/|x|, y), for x != 0."""
    def call(x, y):
        x = np.asarray(x, dtype=float)
        r = np.sqrt(np.sum(x**2, axis=-1))
        return field(2.0 * r, x / r[..., None], y)

    return call


def on_frame(field):
    """(s, k, y) -> field((s/2) k, y)."""
    def call(s, k, y):
        return field(np.expand_dims(0.5 * np.asarray(s, dtype=float), -1) * k, y)

    return call


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


def central_gradient(value, h=1e-5):
    """(x, y) -> the x-gradient of the scalar pair field `value` by central
    differences with step h, shaped like the broadcast x."""
    def grad(x, y):
        x = np.asarray(x, dtype=float)
        return np.stack([(value(x + h * e, y) - value(x - h * e, y)) / (2.0 * h)
                         for e in np.eye(3)], axis=-1)

    return grad


def central_hessian(value, h=2e-4):
    """(x, y) -> the x-Hessian of the scalar pair field `value`: the
    four-point central second difference D(step) at steps h and 2h,
    combined to fourth order as (4 D(h) - D(2h))/3."""
    def second(x, y, step):
        e = step * np.eye(3)
        H = np.empty(np.broadcast_shapes(x.shape, np.shape(y)) + (3,))
        for i in range(3):
            for j in range(i, 3):
                a, b = e[i], e[j]
                H[..., i, j] = H[..., j, i] = (
                    value(x + a + b, y) - value(x + a - b, y)
                    - value(x - a + b, y) + value(x - a - b, y)) / (4.0 * step * step)
        return H

    def hess(x, y):
        x = np.asarray(x, dtype=float)
        return (4.0 * second(x, y, h) - second(x, y, 2.0 * h)) / 3.0

    return hess
