"""Tests for the penalized semi-implicit solvers."""

import math

import numpy as np
import pytest
from scipy.linalg import solve_banded

from conftest import (
    forced_coeffs,
    free_domain,
    heat_coeffs,
    interval_domain,
    normal_gamma,
    sine_start,
    zero_start,
)
from rspde.coefficients import ModelCoefficients, make_coefficients
from rspde.controls import (Control, constant_control, tabulated_control,
                            zero_control)
from rspde.fields import Field, SpatialGrid, lap_series, sup_series, v_series
from rspde.geometry import Ball, Box, Intersection, ObliqueField
from rspde.solvers import (
    NoisePath,
    ReplicaPlan,
    SolverError,
    resolve_time_grid,
    sample_brownian,
    solve_penalized_skeleton,
    solve_penalized_spde,
    solve_skeleton,
)
from rspde.trajectory import TrajectorySeries, state_gap


def run_heat(J=31, dt=1e-3, steps=100, n_pen=4.0):
    dom = free_domain()
    return solve_penalized_spde(heat_coeffs(), dom, normal_gamma(dom),
                                sine_start(J), n_pen=n_pen, dt=dt, steps=steps)


# ---------------------------------------------------------------------------
# deterministic heat flow


def test_heat_matches_exact_discrete_decay() -> None:
    # sin(pi x) is an eigenvector of the implicit step, so the scheme's
    # output is exactly (1 + mu dt)^{-K} sin(pi x) with mu the discrete
    # eigenvalue; the oracle is that closed form evaluated directly.
    J, dt, steps = 31, 1e-3, 200
    traj = run_heat(J=J, dt=dt, steps=steps)
    dx = 1.0 / (J + 1)
    mu = (2.0 / dx**2) * (1.0 - math.cos(math.pi * dx))
    expected = (1.0 + mu * dt) ** (-steps) * sine_start(J).values
    assert np.max(np.abs(traj.states[-1] - expected)) <= 1e-11


def test_heat_close_to_continuum_solution() -> None:
    traj = run_heat(J=63, dt=1e-4, steps=1000)
    xs = traj.grid.xs
    exact = math.exp(-math.pi**2 * 0.1) * np.sin(math.pi * xs)
    assert np.max(np.abs(traj.states[-1][0] - exact)) <= 2e-3


def test_times_and_shapes() -> None:
    traj = run_heat(steps=50)
    assert traj.states.shape == (51, 1, 31)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(0.05)
    assert traj.series.h_sq.shape == (51,)
    assert traj.measure.increments.shape == (50, 1, 31)


def test_penalty_inactive_means_zero_measure() -> None:
    traj = run_heat()
    assert traj.measure.total_variation == 0.0
    assert np.max(traj.series.pen_h) == 0.0


# ---------------------------------------------------------------------------
# validation and failure modes


def test_stability_bound_rejected_at_entry() -> None:
    dom = free_domain()
    with pytest.raises(SolverError, match="stability"):
        solve_penalized_spde(heat_coeffs(), dom, normal_gamma(dom),
                             sine_start(15), n_pen=1000.0, dt=1e-3, steps=10)


def test_initial_state_must_lie_in_domain() -> None:
    dom = interval_domain(0.5)
    with pytest.raises(SolverError, match="initial"):
        solve_penalized_spde(heat_coeffs(), dom, normal_gamma(dom),
                             sine_start(15, amplitude=2.0), n_pen=4.0,
                             dt=1e-3, steps=10)


def test_blow_up_reports_step_index() -> None:
    # trips the 1e150 guard before a step, where the reference loop does
    err = blow_up(gain=200.0, amplitude=1.0)
    assert err.step is not None and err.step > 0


def test_overflow_reports_step_index() -> None:
    # overflows within the first step: the finiteness test after it fires
    assert blow_up(gain=1e308, amplitude=50.0).step == 1


def blow_up(gain, amplitude) -> SolverError:
    """The solver's blow-up error for a linear drift b(u) = gain * u,
    checked against the reference loop's (defined below)."""
    dom = free_domain()
    coeffs = ModelCoefficients(d=1, m=1, b_name="linear", sigma_name="zero",
                               b_params={"matrix": [[gain]]}, sigma_params={},
                               lipschitz=gain)
    kwargs = dict(coeffs=coeffs, domain=dom, gamma=normal_gamma(dom),
                  u0=sine_start(15, amplitude), n_pen=1.0, dt=0.25, steps=2000)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SolverError) as want:
            reference_solve(**kwargs)
        with pytest.raises(SolverError) as got:
            solve_penalized_spde(**kwargs)
    assert got.value.step == want.value.step
    assert str(got.value) == str(want.value)
    return got.value


def test_noise_grid_mismatch_rejected() -> None:
    dom = free_domain()
    noise = sample_brownian(1, 9, 1e-3, seed=1)
    with pytest.raises(SolverError, match="noise shape"):
        solve_penalized_spde(forced_coeffs(), dom, normal_gamma(dom),
                             sine_start(15), n_pen=4.0, dt=1e-3, steps=10,
                             epsilon=0.5, noise=noise)


def test_control_grid_must_divide_steps() -> None:
    dom = free_domain()
    ctl = Control(T=0.01, values=np.ones((1, 3)))
    with pytest.raises(ValueError, match="multiple"):
        solve_penalized_skeleton(heat_coeffs(), dom, normal_gamma(dom),
                                 sine_start(15), ctl, n_pen=4.0,
                                 dt=1e-3, steps=10)


# ---------------------------------------------------------------------------
# noise paths and replica seeding


def test_brownian_moments_and_independence() -> None:
    # Seeded, hence deterministic: mean within the 4-sigma CLT band,
    # variance within 5%, cross-component correlation within 0.02.
    m, K, dt = 3, 100000, 1e-3
    path = sample_brownian(m, K, dt, seed=42)
    inc = path.increments
    band = 4.0 * math.sqrt(dt / K)
    assert np.max(np.abs(inc.mean(axis=1))) <= band
    assert np.max(np.abs(inc.var(axis=1) / dt - 1.0)) <= 0.05
    corr = np.corrcoef(inc)
    off = corr[~np.eye(m, dtype=bool)]
    assert np.max(np.abs(off)) <= 0.02


def test_noise_reproducible_and_generator_sensitive() -> None:
    a = sample_brownian(2, 64, 1e-3, seed=7)
    b = sample_brownian(2, 64, 1e-3, seed=7)
    c = sample_brownian(2, 64, 1e-3, seed=8)
    d = sample_brownian(2, 64, 1e-3, seed=7, generator="pcg64")
    assert np.array_equal(a.increments, b.increments)
    assert not np.array_equal(a.increments, c.increments)
    assert not np.array_equal(a.increments, d.increments)


def test_replica_plan_seeds_are_stable_and_distinct() -> None:
    plan = ReplicaPlan(base_seed=123, count=8)
    seeds = [plan.seed_for(i) for i in range(8)]
    assert len(set(seeds)) == 8
    assert seeds == [plan.seed_for(i) for i in range(8)]


# ---------------------------------------------------------------------------
# the shared code path and linearity


def test_skeleton_equals_spde_at_zero_epsilon() -> None:
    dom = interval_domain(0.4)
    gamma = normal_gamma(dom)
    coeffs = forced_coeffs(s=0.5, c=2.0)
    ctl = constant_control(0.1, [1.0], K=4)
    kwargs = dict(n_pen=64.0, dt=1e-3, steps=100)
    a = solve_penalized_skeleton(coeffs, dom, gamma, zero_start(31), ctl, **kwargs)
    noise = sample_brownian(1, 100, 1e-3, seed=5)
    b = solve_penalized_spde(coeffs, dom, gamma, zero_start(31), epsilon=0.0,
                             noise=noise, control=ctl, **kwargs)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.measure.increments, b.measure.increments)


def test_zero_diffusion_ignores_the_noise_path() -> None:
    dom = interval_domain(0.4)
    gamma = normal_gamma(dom)
    coeffs = heat_coeffs()
    kwargs = dict(n_pen=16.0, dt=1e-3, steps=50)
    a = solve_penalized_spde(coeffs, dom, gamma, sine_start(15, 0.3), epsilon=1.0,
                             noise=sample_brownian(1, 50, 1e-3, seed=1), **kwargs)
    b = solve_penalized_spde(coeffs, dom, gamma, sine_start(15, 0.3), epsilon=1.0,
                             noise=sample_brownian(1, 50, 1e-3, seed=2), **kwargs)
    assert np.array_equal(a.states, b.states)


def test_control_contribution_is_linear() -> None:
    # With constant sigma the control enters the explicit step linearly,
    # so doubling hdot doubles the response u(h) - u(0).
    dom = free_domain()
    gamma = normal_gamma(dom)
    coeffs = forced_coeffs(s=1.0)
    base = zero_control(0.05, 1)
    one = constant_control(0.05, [1.0])
    two = constant_control(0.05, [2.0])
    kwargs = dict(n_pen=4.0, dt=1e-3, steps=50)
    u0 = zero_start(31)
    r0 = solve_penalized_skeleton(coeffs, dom, gamma, u0, base, **kwargs).states
    r1 = solve_penalized_skeleton(coeffs, dom, gamma, u0, one, **kwargs).states
    r2 = solve_penalized_skeleton(coeffs, dom, gamma, u0, two, **kwargs).states
    assert np.allclose(r2 - r0, 2.0 * (r1 - r0), rtol=1e-12, atol=1e-14)


# ---------------------------------------------------------------------------
# penetration decay and the penalty sweep


def test_penetration_decays_with_penalty_strength() -> None:
    # Outward drift against a tight interval: sup_t |u - pi(u)|_H should
    # decay at least like n^{-1/2} (log-log slope <= -0.4).
    dom = interval_domain(0.25)
    gamma = normal_gamma(dom)
    coeffs = forced_coeffs(c=4.0)
    ns = [16.0, 64.0, 256.0]
    dt = 0.5 / ns[-1]
    steps = int(round(0.3 / dt))
    sups = []
    for n in ns:
        traj = solve_penalized_spde(coeffs, dom, gamma, zero_start(31),
                                    n_pen=n, dt=dt, steps=steps)
        sups.append(np.max(traj.series.pen_h))
    slope = np.polyfit(np.log(ns), np.log(sups), 1)[0]
    assert slope <= -0.4


def test_sweep_inactive_reflection_converges_immediately() -> None:
    dom = free_domain()
    res = solve_skeleton(heat_coeffs(), dom, normal_gamma(dom), sine_start(15),
                         zero_control(0.05, 1), dt=1e-3, T=0.05,
                         n_start=4.0, factor=2.0, n_max=64.0, tol_cauchy=1e-8)
    assert res.converged
    assert len(res.rows) == 2  # first comparison settles it
    assert res.rows[0].cauchy_to_next == 0.0


def test_sweep_zero_tolerance_never_converges() -> None:
    dom = free_domain()
    res = solve_skeleton(heat_coeffs(), dom, normal_gamma(dom), sine_start(15),
                         zero_control(0.05, 1), dt=1e-3, T=0.05,
                         n_start=4.0, factor=2.0, n_max=64.0, tol_cauchy=0.0)
    assert not res.converged
    assert len(res.rows) == 5  # 4, 8, 16, 32, 64 all visited


def test_sweep_gaps_decrease_with_active_reflection() -> None:
    dom = interval_domain(0.25)
    res = solve_skeleton(forced_coeffs(c=4.0), dom, normal_gamma(dom),
                         zero_start(31), zero_control(0.4, 1), dt=2e-3, T=0.4,
                         n_start=32.0, factor=2.0, n_max=1024.0, tol_cauchy=0.0)
    gaps = [r.cauchy_to_next for r in res.rows[:-1]]
    assert all(g > 0 for g in gaps)
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    ns = [r.n_pen for r in res.rows]
    assert ns == [32.0, 64.0, 128.0, 256.0, 512.0, 1024.0]


def test_sweep_shares_one_time_grid() -> None:
    K, dt = resolve_time_grid(0.4, 2e-3, 1024.0, control_K=1)
    assert dt <= 0.5 / 1024.0
    assert K * dt == pytest.approx(0.4)
    K2, dt2 = resolve_time_grid(0.4, 2e-3, 16.0, control_K=5)
    assert K2 % 5 == 0
    assert dt2 <= 2e-3 + 1e-15


def test_state_gap_requires_matching_grids() -> None:
    a = run_heat(J=15, steps=10)
    b = run_heat(J=31, steps=10)
    with pytest.raises(ValueError):
        state_gap(a, b)


# ---------------------------------------------------------------------------
# the step loop against a reference


def reference_solve(coeffs, domain, gamma, u0, n_pen, dt, steps, epsilon=0.0,
                    noise=None, control=None):
    """The scheme evaluated plainly: banded solve, drift, diffusion, penalty
    and its projection each step, as solve_penalized_spde first did it.

    Returns (states, series, increments, magnitude); raises SolverError
    with the step index on blow-up.
    """
    dx = u0.grid.dx
    d, J = u0.grid.d, u0.grid.J
    hdot = control.values_on(steps) if control is not None else None
    use_noise = epsilon > 0.0
    sqrt_eps = math.sqrt(epsilon)
    r = dt / (dx * dx)
    ab = np.zeros((3, J))
    ab[0, 1:] = -r
    ab[1, :] = 1.0 + 2.0 * r
    ab[2, :-1] = -r
    states = np.empty((steps + 1, d, J))
    states[0] = u0.values
    pen = np.empty((4, steps + 1))
    increments = np.empty((steps, d, J))
    magnitude = np.empty((steps, J))

    def penalty(u, k):
        proj = domain.project_many(u.T)
        diff_t = u.T - proj
        dist = np.sqrt(np.einsum("jd,jd->j", diff_t, diff_t))
        gam = gamma.grid_values(u.T, proj, dist).T
        pen[:, k] = (math.sqrt(dx * float(np.sum(dist * dist))),
                     dx * float(np.sum(dist)),
                     float(np.max(np.abs(diff_t))),
                     dx * float(np.einsum("dj,dj->", u, dist * gam)))
        return dist, gam

    u = u0.values.copy()
    for k in range(steps):
        if float(np.max(np.abs(u))) > 1e150:
            raise SolverError(f"state blew up at step {k}", step=k)
        dist, gam = penalty(u, k)
        pen_drift = (n_pen * dist) * gam
        increments[k] = (dt * dx) * pen_drift
        magnitude[k] = (n_pen * dt * dx) * dist
        rhs = u + dt * (coeffs.drift(u) - pen_drift)
        if hdot is not None or use_noise:
            sig = coeffs.diffusion(u)
            if hdot is not None:
                rhs += dt * np.einsum("dmj,m->dj", sig, hdot[:, k])
            if use_noise:
                rhs += sqrt_eps * np.einsum("dmj,m->dj", sig, noise.increments[:, k])
        u = solve_banded((1, 1), ab, rhs.T, check_finite=False).T
        if not np.all(np.isfinite(u)):
            raise SolverError(f"state blew up at step {k + 1}", step=k + 1)
        states[k + 1] = u
    penalty(u, steps)
    series = TrajectorySeries(sup_series(states, dx), v_series(states, dx),
                              lap_series(states, dx), *pen)
    return states, series, increments, magnitude


def _free_noisy():
    dom = free_domain()
    coeffs = make_coefficients(1, 1, b={"name": "zero"},
                               sigma={"name": "constant", "matrix": [[1.0]]})
    return dict(coeffs=coeffs, domain=dom, gamma=normal_gamma(dom),
                u0=sine_start(15, 0.4), n_pen=256.0, dt=1.0 / 512.0, steps=128,
                epsilon=0.01, noise=sample_brownian(1, 128, 1.0 / 512.0, seed=3))


def _oblique_intersection():
    dom = Intersection([Ball(center=[0.0, 0.0], radius=0.5),
                        Box(lower=[-0.4, -0.45], upper=[0.45, 0.4])])
    coeffs = make_coefficients(
        2, 2, b={"name": "linear", "matrix": [[8.0, 1.0], [-1.0, 6.0]]},
        sigma={"name": "diag_affine", "base": [0.4, 0.3], "slope": [0.5, -0.2]})
    grid = SpatialGrid(J=31, d=2)
    u0 = Field(grid, np.stack([0.2 * np.sin(np.pi * grid.xs),
                               0.1 * np.sin(2.0 * np.pi * grid.xs)]))
    return dict(coeffs=coeffs, domain=dom,
                gamma=ObliqueField(dom, "rotated_normal", angle=0.2), u0=u0,
                n_pen=256.0, dt=1e-3, steps=400, epsilon=0.05,
                noise=sample_brownian(2, 400, 1e-3, seed=11),
                control=constant_control(0.4, [12.0, 10.0], K=4))


def _box_3d():
    dom = Box(lower=[-0.3, -0.4, -0.5], upper=[0.3, 0.4, 0.5])
    coeffs = make_coefficients(
        3, 2, b={"name": "constant", "value": [-6.0, 1.0, 0.5]},
        sigma={"name": "constant",
               "matrix": [[0.6, 0.2], [-0.3, 0.5], [0.1, -0.4]]})
    ctl = tabulated_control(0.3, [[1.0, -2.0, 0.5, 3.0, 0.0, 1.5],
                                  [0.5, 1.0, -1.0, 2.0, -0.5, 0.0]])
    return dict(coeffs=coeffs, domain=dom, gamma=normal_gamma(dom),
                u0=zero_start(15, d=3), n_pen=128.0, dt=2.5e-3, steps=120,
                epsilon=0.1, noise=sample_brownian(2, 120, 2.5e-3, seed=4),
                control=ctl)


@pytest.mark.parametrize("case, rtol", [(_free_noisy, 0.0),
                                        (_oblique_intersection, 1e-12),
                                        (_box_3d, 1e-12)])
def test_step_loop_matches_reference(case, rtol) -> None:
    kwargs = case()
    traj = solve_penalized_spde(**kwargs)
    states, series, increments, magnitude = reference_solve(**kwargs)
    got = [traj.states, traj.measure.increments, traj.measure.magnitude]
    want = [states, increments, magnitude]
    for name in TrajectorySeries.FIELDS:
        got.append(getattr(traj.series, name))
        want.append(getattr(series, name))
    for g, w in zip(got, want):
        if rtol == 0.0:
            assert np.array_equal(g, w)
        else:
            np.testing.assert_allclose(g, w, rtol=rtol, atol=0.0)
    if case is not _free_noisy:
        # both branches of the loop ran: steps inside and steps outside
        assert 0 < np.count_nonzero(series.pen_h) < len(series.pen_h)
