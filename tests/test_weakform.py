"""Tests for weak-form residuals and the variational-inequality check."""

import math

import numpy as np
import pytest

from conftest import (
    forced_coeffs,
    free_domain,
    heat_coeffs,
    interval_domain,
    normal_gamma,
    sine_start,
    zero_start,
)
from rspde.coefficients import make_coefficients
from rspde.controls import constant_control
from rspde.fields import Field, SpatialGrid
from rspde.geometry import Ball, Box, Intersection, ObliqueField, build_oblique_matrix
from rspde.solvers import sample_brownian, solve_penalized_spde
from rspde.weakform import (
    WeakTestFunction,
    variational_inequality_check,
    weak_form_residual,
)


def heat_run(J, dt, steps):
    dom = free_domain()
    return solve_penalized_spde(heat_coeffs(), dom, normal_gamma(dom),
                                sine_start(J), n_pen=4.0, dt=dt, steps=steps)


def test_residual_small_for_heat_run() -> None:
    traj = heat_run(J=31, dt=1e-3, steps=100)
    phi = WeakTestFunction(traj.grid, mode=1)
    res = weak_form_residual(traj, phi, heat_coeffs())
    # O(dt + dx^2) scale for this configuration
    assert res <= 5e-3


def test_residual_halves_under_refinement() -> None:
    # Halving dt and dx together must reduce the defect by >= 2x.
    coarse = heat_run(J=31, dt=2e-3, steps=50)
    fine = heat_run(J=63, dt=1e-3, steps=100)
    r_coarse = weak_form_residual(coarse, WeakTestFunction(coarse.grid, 1), heat_coeffs())
    r_fine = weak_form_residual(fine, WeakTestFunction(fine.grid, 1), heat_coeffs())
    assert r_fine <= r_coarse / 2.0


def test_residual_sees_control_and_measure_terms() -> None:
    # A controlled run against a tight interval: the identity only closes
    # when both the control integral and the measure pairing are included.
    dom = interval_domain(0.3)
    coeffs = forced_coeffs(s=1.0, c=2.0)
    ctl = constant_control(0.2, [1.0])
    traj_kwargs = dict(n_pen=128.0, dt=1e-3, steps=200)
    traj = solve_penalized_spde(coeffs, dom, normal_gamma(dom),
                                zero_start(31), control=ctl, **traj_kwargs)
    assert traj.measure.total_variation > 0  # reflection engaged
    phi = WeakTestFunction(traj.grid, mode=1)
    closed = weak_form_residual(traj, phi, coeffs, control=ctl)
    without_control = weak_form_residual(traj, phi, coeffs, control=None)
    assert closed <= 2e-2
    assert without_control >= 10.0 * closed


def test_residual_noise_sensitivity() -> None:
    # Corrupting one Brownian increment by 1e-3 must move the residual by
    # about sqrt(eps) * <sigma, phi> * 1e-3; oracle: the explicit Ito sum
    # term computed directly below.
    dom = free_domain()
    coeffs = forced_coeffs(s=1.0)
    eps = 0.25
    noise = sample_brownian(1, 400, 2.5e-4, seed=3)
    traj = solve_penalized_spde(coeffs, dom, normal_gamma(dom), zero_start(31),
                                n_pen=4.0, dt=2.5e-4, steps=400, epsilon=eps,
                                noise=noise)
    phi = WeakTestFunction(traj.grid, mode=1)
    r_ref = weak_form_residual(traj, phi, coeffs, noise=noise)

    corrupted = sample_brownian(1, 400, 2.5e-4, seed=3)
    corrupted.increments[0, 57] += 1e-3
    r_corr = weak_form_residual(traj, phi, coeffs, noise=corrupted)

    u = traj.states[57]
    sig_phi = float(np.einsum("dmj,dj->", coeffs.diffusion(u), phi.at(traj.times[57])))
    expected = math.sqrt(eps) * traj.grid.dx * abs(sig_phi) * 1e-3
    moved = abs(r_corr - r_ref)
    # |.| folding allows the base defect to eat at most 2 * r_ref of it
    assert expected - 2.0 * r_ref <= moved <= expected + 1e-12
    assert moved >= 1e-4 * math.sqrt(eps)


def test_time_dependent_probe_still_closes() -> None:
    # phi(t, x) = (1 + t) sin(pi x): the d_t phi coupling keeps the
    # residual at discretization scale.
    traj = heat_run(J=31, dt=1e-3, steps=100)
    phi = WeakTestFunction(traj.grid, mode=1, t_poly=(1.0, 1.0))
    res = weak_form_residual(traj, phi, heat_coeffs())
    assert res <= 5e-3


def test_vi_value_zero_without_reflection() -> None:
    traj = heat_run(J=15, dt=1e-3, steps=20)
    dom = free_domain()
    a_field = build_oblique_matrix(dom, normal_gamma(dom), samples=32, seed=1)
    probe = Field.zeros(SpatialGrid(J=15, d=1))
    res = variational_inequality_check(traj, a_field, [probe])
    assert res.value == 0.0
    assert res.passed


def test_vi_nonnegative_for_normal_reflection() -> None:
    dom = interval_domain(0.25)
    gamma = normal_gamma(dom)
    coeffs = forced_coeffs(c=4.0)
    traj = solve_penalized_spde(coeffs, dom, gamma, zero_start(31),
                                n_pen=256.0, dt=1.5e-3, steps=200)
    assert traj.measure.total_variation > 0
    a_field = build_oblique_matrix(dom, gamma, samples=16, seed=2)

    # probe = pi(u) itself: for gamma = n the matrix is the identity on
    # the contact set, so the pairing integrates n_pen * dist^2 dt dx;
    # oracle: that quadrature from the stored series.
    proj_states = np.empty_like(traj.states)
    for k in range(traj.steps + 1):
        proj_states[k] = dom.project_many(traj.states[k].T).T
    zero_probe = Field.zeros(traj.grid)
    res = variational_inequality_check(traj, a_field, [zero_probe, proj_states])
    assert res.passed
    oracle = traj.n_pen * traj.dt * traj.grid.dx * float(
        np.sum(np.sum((traj.states[:-1] - proj_states[:-1]) ** 2, axis=(1, 2))))
    assert min(res.per_probe) >= -res.tol
    assert res.per_probe[1] == pytest.approx(oracle, rel=1e-10)


def test_vi_rotated_gamma_on_ball_box() -> None:
    # d = 2, gamma the normal rotated by 0.2 rad, a drift pressing the
    # state out of a ball-box intersection.  Where a gamma = n, the probe
    # pi(u) pairs to n_pen * dist^2 dt dx as for normal reflection (the
    # oracle); each probe's value also equals the per-point sum with the
    # matrix field on one-row batches.
    dom = Intersection([Ball(center=[0.0, 0.0], radius=0.5),
                        Box(lower=[-0.4, -0.45], upper=[0.45, 0.4])])
    gamma = ObliqueField(dom, "rotated_normal", angle=0.2)
    coeffs = make_coefficients(2, 2, b={"name": "constant", "value": [4.0, 3.0]},
                               sigma={"name": "zero"})
    traj = solve_penalized_spde(coeffs, dom, gamma, zero_start(31, d=2),
                                n_pen=256.0, dt=1.5e-3, steps=200)
    a_field = build_oblique_matrix(dom, gamma, samples=64, seed=4)
    proj_states = np.stack([dom.project_many(u.T).T for u in traj.states])
    probes = [np.zeros_like(traj.states), proj_states]
    res = variational_inequality_check(traj, a_field, probes)
    assert res.passed and min(res.per_probe) > 0.0
    oracle = traj.n_pen * traj.dt * traj.grid.dx * float(
        np.sum((traj.states[:-1] - proj_states[:-1]) ** 2))
    assert res.per_probe[1] == pytest.approx(oracle, rel=1e-12)
    active = np.argwhere(traj.measure.magnitude > 0.0)
    assert len(active) > 100
    for arr, value in zip(probes, res.per_probe):
        pointwise = 0.0
        for k, j in active:
            u = traj.states[k, :, j]
            a = a_field.at_many(u[None, :])[0]
            inc = traj.measure.increments[k, :, j]
            pointwise += float((u - arr[k, :, j]) @ (a @ inc))
        assert value == pytest.approx(pointwise, rel=1e-12)


def test_vi_rejects_probes_outside_domain() -> None:
    dom = interval_domain(0.25)
    gamma = normal_gamma(dom)
    traj = solve_penalized_spde(forced_coeffs(c=4.0), dom, gamma, zero_start(15),
                                n_pen=64.0, dt=2e-3, steps=50)
    a_field = build_oblique_matrix(dom, gamma, samples=16, seed=3)
    bad = Field(traj.grid, np.full((1, 15), 0.9))  # outside [-0.25, 0.25]
    with pytest.raises(ValueError, match="probe"):
        variational_inequality_check(traj, a_field, [bad])
