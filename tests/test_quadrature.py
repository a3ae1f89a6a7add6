import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grazing_lab import cli
from grazing_lab import kernels as kn
from grazing_lab.functions import maxwellian, sq3
from grazing_lab.quadrature import (IntegralResult, QuadratureError, QuadratureSpec,
                                    integrate_r6, pairwise_sum)

SPEC = QuadratureSpec(pair_nodes=8)
M = maxwellian()


def test_r6_product_density():
    r = integrate_r6(lambda v, vs: M.value(v) * M.value(vs), SPEC)
    assert abs(r.value - 1.0) < 1e-9


def test_r6_relative_speed_moment():
    # E|v - v*|^2 = 2 tr(I) = 6 for independent standard Gaussians
    r = integrate_r6(lambda v, vs: sq3(v - vs) * M.value(v) * M.value(vs), SPEC)
    assert abs(r.value - 6.0) < 1e-6


def test_r6_antisymmetric_vanishes():
    r = integrate_r6(lambda v, vs: (v[:, 0] - vs[:, 0]) * M.value(v) * M.value(vs), SPEC)
    assert abs(r.value) < 1e-10


def test_reproducibility_bitwise():
    a = integrate_r6(lambda v, vs: sq3(v - vs) * M.value(v) * M.value(vs), SPEC)
    b = integrate_r6(lambda v, vs: sq3(v - vs) * M.value(v) * M.value(vs), SPEC)
    assert a.value == b.value
    assert a.error_estimate == b.error_estimate


def test_nonfinite_integrand_reports_node():
    def bad(v, vs):
        out = M.value(v) * M.value(vs)
        out[3] = np.inf
        return out

    with pytest.raises(QuadratureError, match="non-finite"):
        integrate_r6(bad, SPEC)


def test_pairwise_sum_matches_fsum(rng):
    import math

    a = rng.normal(size=1001) * np.exp(rng.uniform(-8, 8, size=1001))
    assert abs(pairwise_sum(a) - math.fsum(a)) < 1e-12 * np.abs(a).sum()
    assert pairwise_sum(np.array([])) == 0.0


def test_integral_result_validation():
    with pytest.raises(ValueError):
        IntegralResult(value=1.0, error_estimate=-1.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(pair_nodes=3)


def test_spec_fields_are_the_config_fields():
    """QuadratureSpec holds exactly what a config's `quadrature` section sets."""
    assert {f.name for f in dataclasses.fields(QuadratureSpec)} == set(cli.DEFAULT_CONFIG["quadrature"])


@settings(max_examples=200, deadline=None)
@given(st.builds(QuadratureSpec,
                 pair_nodes=st.integers(4, 400),
                 sphere_phi_nodes=st.integers(4, 400),
                 theta_panels=st.integers(1, 50), theta_nodes_per_panel=st.integers(4, 400),
                 seed=st.integers(0, 2**31)))
def test_coarsened_inverts_refined(spec):
    """coarse_fine(level, spec.refined()) evaluates level at spec and at
    spec.refined(), so integrate_r6 and the kernel's transfer moment keep
    their two levels."""
    assert spec.refined().coarsened() == spec


def test_integrate_levels_are_spec_and_refined():
    center, scale = (0.0, 0.0, 0.0), (1.0, 1.0, 1.0)
    seen = []

    def g(v, vs):
        seen.append(v.shape[0])
        return M.value(v) * M.value(vs)

    integrate_r6(g, SPEC, center, scale)
    assert sorted(seen) == [SPEC.pair_nodes**6, SPEC.refined().pair_nodes**6]


def test_cached_node_arrays_are_read_only():
    from grazing_lab import _sphharm
    from grazing_lab.quadrature import _axis_rule, _r3_grid

    prof = kn.normalize(kn.AngularProfile(0.5), SPEC)
    tables = [_axis_rule(6), _r3_grid(4, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
              kn._panel_gl(2, 8, 0.0, 1.0),
              kn.angular_nodes(kn.ScaledKernel(prof, 0.5), SPEC),
              _sphharm._legendre_tables(6, 10)]
    for arrays in tables:
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = a[0]  # a no-op write, so a failure corrupts no cache
