"""Numerical workbench for binary-collision operators in velocity space.

The package evaluates weak-form Boltzmann and Landau collision operators,
their entropy dissipations and dual (affine) representations, mobility
actions, a per-shell sphere-Poisson projection, and Fourier-side
compactness diagnostics, with a configuration-driven harness on top.
"""

__version__ = "0.1.0"

__all__ = [
    "kernels",
    "functions",
    "quadrature",
    "operators",
    "dissipation",
    "projection",
    "compactness",
    "cli",
]
