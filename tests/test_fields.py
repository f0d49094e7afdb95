"""Tests for grids, fields, and discrete norms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rspde.fields import (
    Field,
    SpatialGrid,
    discrete_laplacian,
    h2_norm,
    h_norm,
    l1_norm,
    lap_series,
    laplacian_values,
    linf_norm,
    sup_series,
    v_norm,
    v_series,
)


def sine_field(J: int, k: int = 1, d: int = 1, component: int = 0) -> Field:
    grid = SpatialGrid(J=J, d=d)
    vals = np.zeros((d, J))
    vals[component] = np.sin(k * math.pi * grid.xs)
    return Field(grid, vals)


def test_grid_spacing_and_points() -> None:
    grid = SpatialGrid(J=63)
    assert grid.dx == 1.0 / 64
    assert grid.xs[0] == pytest.approx(grid.dx)
    assert grid.xs[-1] == pytest.approx(1.0 - grid.dx)
    with pytest.raises(ValueError):
        SpatialGrid(J=2)


def test_field_shape_is_enforced() -> None:
    grid = SpatialGrid(J=5, d=2)
    with pytest.raises(ValueError):
        Field(grid, np.zeros((2, 4)))


def discrete_eigenvalue(J: int, k: int = 1) -> float:
    dx = 1.0 / (J + 1)
    return (2.0 / dx**2) * (1.0 - math.cos(k * math.pi * dx))


def test_laplacian_eigenpair() -> None:
    # sin(pi j dx) is an exact eigenvector of the three-point stencil with
    # eigenvalue -(2/dx^2)(1 - cos(pi dx)); oracle: the closed form.
    for J in (7, 31, 63):
        f = sine_field(J)
        lap = discrete_laplacian(f)
        mu = discrete_eigenvalue(J)
        assert np.max(np.abs(lap.values + mu * f.values)) <= 1e-9 * mu


def test_laplacian_eigenvalue_approaches_pi_squared() -> None:
    assert discrete_eigenvalue(255) == pytest.approx(math.pi**2, rel=1e-4)


def test_sine_norms_match_closed_forms() -> None:
    # h_norm^2 of sin(pi x) is exactly dx*(J+1)/2 = 1/2 on any grid; the
    # v and h2 norms follow from the eigenvalue identity v^2 = mu h^2,
    # (h2)^2 = mu^2 h^2, and approach pi^2/2 and pi^4/2.
    J = 127
    f = sine_field(J)
    mu = discrete_eigenvalue(J)
    assert h_norm(f) ** 2 == pytest.approx(0.5, rel=1e-13)
    assert v_norm(f) ** 2 == pytest.approx(mu * 0.5, rel=1e-12)
    assert v_norm(f) ** 2 == pytest.approx(math.pi**2 / 2, rel=1e-3)
    assert h2_norm(f) ** 2 == pytest.approx(mu**2 * 0.5, rel=1e-12)
    assert h2_norm(f) ** 2 == pytest.approx(math.pi**4 / 2, rel=1e-2)


def test_summation_by_parts() -> None:
    # <-lap f, f>_H = v_norm(f)^2 exactly (both sides share the zero ghosts).
    rng = np.random.Generator(np.random.Philox(7))
    grid = SpatialGrid(J=21, d=2)
    vals = rng.normal(size=(2, 21))
    f = Field(grid, vals)
    lhs = -grid.dx * float(np.sum(laplacian_values(vals.copy(), grid.dx) * vals))
    assert lhs == pytest.approx(v_norm(f) ** 2, rel=1e-12)


@given(hnp.arrays(np.float64, (1, 15), elements=st.floats(-50.0, 50.0)))
@settings(max_examples=60)
def test_norm_ordering_scalar_fields(vals) -> None:
    # l1 <= h <= linf on [0, 1] for scalar fields (Cauchy-Schwarz and
    # dx * J < 1).  The linf bound is a componentwise statement, so the
    # ordering chain is asserted for d = 1.
    f = Field(SpatialGrid(J=15, d=1), vals)
    assert l1_norm(f) <= h_norm(f) + 1e-12
    assert h_norm(f) <= linf_norm(f) + 1e-12


@given(hnp.arrays(np.float64, (3, 9), elements=st.floats(-10.0, 10.0)))
@settings(max_examples=40)
def test_l1_below_h_for_vector_fields(vals) -> None:
    f = Field(SpatialGrid(J=9, d=3), vals)
    assert l1_norm(f) <= h_norm(f) + 1e-12


def test_sobolev_surrogate_constant() -> None:
    # linf^2 <= eps * v^2 + C(eps) * h^2.  Fit C on one batch, check the
    # bound on a fresh batch; the continuum constant is 1/eps, so the fit
    # must stay within a small multiple of it.
    rng = np.random.Generator(np.random.Philox(8))
    grid = SpatialGrid(J=63, d=1)

    def batch(n):
        out = []
        for _ in range(n):
            f = Field(grid, rng.normal(size=(1, 63)))
            out.append((linf_norm(f) ** 2, v_norm(f) ** 2, h_norm(f) ** 2))
        return out

    for eps in (0.1, 0.01):
        fit = max((li - eps * v) / h for li, v, h in batch(200))
        c_eps = max(fit, 0.0)
        assert c_eps <= 3.0 / eps
        for li, v, h in batch(200):
            assert li <= eps * v + 1.05 * c_eps * h + 1e-12


def test_series_match_per_field_norms() -> None:
    rng = np.random.Generator(np.random.Philox(9))
    grid = SpatialGrid(J=17, d=2)
    stack = rng.normal(size=(5, 2, 17))
    hs = sup_series(stack, grid.dx)
    vs = v_series(stack, grid.dx)
    ls = lap_series(stack, grid.dx)
    for k in range(5):
        f = Field(grid, stack[k])
        assert hs[k] == pytest.approx(h_norm(f) ** 2, rel=1e-12)
        assert vs[k] == pytest.approx(v_norm(f) ** 2, rel=1e-12)
        assert ls[k] == pytest.approx(h2_norm(f) ** 2, rel=1e-12)
