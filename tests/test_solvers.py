"""Tests for the penalized semi-implicit solvers."""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded, solveh_banded

from conftest import (
    forced_coeffs,
    free_domain,
    heat_coeffs,
    interval_domain,
    normal_gamma,
    same_bits,
    sine_start,
    zero_start,
)
from rspde import solvers
from rspde.coefficients import ModelCoefficients, make_coefficients
from rspde.controls import (Control, constant_control, tabulated_control,
                            zero_control)
from rspde.fields import Field, SpatialGrid, lap_series, sup_series, v_series
from rspde.geometry import Ball, Box, Intersection, ObliqueField, Polytope
from rspde.solvers import (
    NoisePath,
    ReplicaPlan,
    SolverError,
    resolve_time_grid,
    sample_brownian,
    solve_penalized_spde,
    solve_skeleton,
)
from rspde.diagnostics import energy_report, penetration_report
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


def test_chunk_blow_up_reports_lowest_member_at_its_own_step() -> None:
    # member 0 stays at zero, and member 2 blows up before member 1: the
    # chunk reports member 1 at its own step, as solving them in order does
    dom = free_domain()
    coeffs = make_coefficients(1, 1, b={"name": "linear", "matrix": [[200.0]]},
                               sigma={"name": "constant", "matrix": [[1.0]]})
    steps = 400

    def kick(size):
        inc = np.zeros((1, steps))
        inc[0, 0] = size
        return NoisePath(dt=0.25, increments=inc, seed=0)

    kwargs = dict(coeffs=coeffs, domain=dom, gamma=normal_gamma(dom),
                  u0=zero_start(15), n_pen=1.0, dt=0.25, steps=steps,
                  epsilon=1.0)
    paths = [kick(0.0), kick(1e-100), kick(1.0)]
    with np.errstate(over="ignore", invalid="ignore"):
        assert not solve_penalized_spde(noise=paths[0], **kwargs).states.any()
        want = []
        for path in paths[1:]:
            with pytest.raises(SolverError) as err:
                solve_penalized_spde(noise=path, **kwargs)
            want.append(err.value)
        with pytest.raises(SolverError) as got:
            solve_penalized_spde(noise=paths, **kwargs)
    assert want[1].step < want[0].step
    assert got.value.step == want[0].step
    assert str(got.value) == str(want[0])


def test_ladder_blow_up_reports_lowest_member_at_its_own_step() -> None:
    # b(u) = 55 u outgrows the penalty of n_pen = 20 and 1 but not that of
    # n_pen = 50; the n_pen = 1 member blows up first, and the chunk reports
    # the n_pen = 20 member at its own step, as solving them in order does
    dom = interval_domain(0.5)
    coeffs = make_coefficients(1, 1, b={"name": "linear", "matrix": [[55.0]]},
                               sigma={"name": "zero"})
    kwargs = dict(coeffs=coeffs, domain=dom, gamma=normal_gamma(dom),
                  u0=sine_start(15, 0.1), dt=0.01, steps=1800)
    pens = [50.0, 20.0, 1.0]
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isfinite(solve_penalized_spde(n_pen=pens[0], **kwargs).states).all()
        want = []
        for n in pens[1:]:
            with pytest.raises(SolverError) as err:
                solve_penalized_spde(n_pen=n, **kwargs)
            want.append(err.value)
        with pytest.raises(SolverError) as got:
            solve_penalized_spde(n_pen=pens, **kwargs)
    assert want[1].step < want[0].step
    assert got.value.step == want[0].step
    assert str(got.value) == str(want[0])


def test_ladder_stability_bound_uses_the_stiffest_member() -> None:
    dom = free_domain()
    kwargs = dict(coeffs=heat_coeffs(), domain=dom, gamma=normal_gamma(dom),
                  u0=sine_start(15), dt=1e-3, steps=10)
    # 500 * 1e-3 = 1/2 holds; 1024 * 1e-3 breaks it, whatever its position
    assert solve_penalized_spde(n_pen=[16.0, 500.0], **kwargs).steps == 20
    for ladder in ([16.0, 64.0, 1024.0], [1024.0, 16.0]):
        with pytest.raises(SolverError, match=r"stability.*n_pen = 1024"):
            solve_penalized_spde(n_pen=ladder, **kwargs)
    with pytest.raises(SolverError, match="positive"):
        solve_penalized_spde(n_pen=[16.0, 0.0], **kwargs)
    with pytest.raises(SolverError, match="at least one member"):
        solve_penalized_spde(n_pen=[], **kwargs)
    with pytest.raises(SolverError, match="2 n_pen values for 3 noise paths"):
        solve_penalized_spde(n_pen=[16.0, 64.0],
                             noise=[sample_brownian(1, 10, 1e-3, seed=s)
                                    for s in range(3)], **kwargs)


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


@pytest.mark.parametrize("chunk", [False, True])
def test_noise_step_mismatch_rejected(chunk) -> None:
    # increments drawn at dt = 0.5 for a solve at dt = 1/512
    dom = free_domain()
    wrong = sample_brownian(1, 128, 0.5, seed=3)
    noise = ([sample_brownian(1, 128, 1.0 / 512.0, seed=2), wrong]
             if chunk else wrong)
    with pytest.raises(SolverError, match="noise dt"):
        solve_penalized_spde(forced_coeffs(), dom, normal_gamma(dom),
                             sine_start(15), n_pen=4.0, dt=1.0 / 512.0,
                             steps=128, epsilon=0.5, noise=noise)


def test_control_grid_must_divide_steps() -> None:
    dom = free_domain()
    ctl = Control(T=0.01, values=np.ones((1, 3)))
    with pytest.raises(ValueError, match="multiple"):
        solve_penalized_spde(heat_coeffs(), dom, normal_gamma(dom),
                             sine_start(15), n_pen=4.0, dt=1e-3, steps=10,
                             control=ctl)


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
    assert np.array_equal(a.increments, b.increments)
    assert not np.array_equal(a.increments, c.increments)
    # the increments are the normal draws of Philox under the key
    philox = np.random.Generator(np.random.Philox(key=7))
    assert np.array_equal(a.increments,
                          philox.normal(0.0, math.sqrt(1e-3), size=(2, 64)))


def test_replica_plan_seeds_are_stable_and_distinct() -> None:
    plan = ReplicaPlan(base_seed=123)
    seeds = [plan.seed_for(i) for i in range(8)]
    assert len(set(seeds)) == 8
    assert seeds == [plan.seed_for(i) for i in range(8)]


def philox_path(key: int, m: int, K: int, dt: float) -> np.ndarray:
    """The increments of a Philox generator keyed on its own."""
    rng = np.random.Generator(np.random.Philox(key=key))
    return rng.normal(0.0, math.sqrt(dt), size=(m, K))


# base seeds and replica indices at the edges of the 64-bit key words and
# of their low uint32 words
EDGE_BASES = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
EDGE_INDICES = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]


@pytest.mark.parametrize("base", EDGE_BASES)
def test_replica_keys_are_base_and_index_words(base) -> None:
    plan = ReplicaPlan(base_seed=base)
    keys = plan.seed_for(EDGE_INDICES)
    assert keys == [base + (i << 64) for i in EDGE_INDICES]
    assert all(type(k) is int for k in keys)
    assert [k % 2**64 for k in keys] == [base] * len(EDGE_INDICES)
    assert [k >> 64 for k in keys] == EDGE_INDICES
    # an index array, a range and single indices give the same keys
    assert plan.seed_for(np.array(EDGE_INDICES, dtype=np.uint64)) == keys
    assert plan.seed_for(range(2)) == keys[:2]
    assert [plan.seed_for(i) for i in EDGE_INDICES] == keys
    # replica 0 draws the base seed's own Philox stream
    assert plan.seed_for(0) == base
    assert (sample_brownian(2, 30, 1e-3, plan.seed_for(0)).increments
            .tobytes() == philox_path(base, 2, 30, 1e-3).tobytes())


def test_seed_derivation_refuses_what_it_does_not_cover() -> None:
    plan = ReplicaPlan(base_seed=5)
    for bad in (-1, -2**64, 2**64, 2**64 + 1, 2**128 + 3, 2**200 + 7):
        with pytest.raises(ValueError):
            plan.seed_for(bad)
        with pytest.raises(ValueError):
            plan.seed_for([0, bad])
        with pytest.raises(ValueError):
            ReplicaPlan(base_seed=bad).seed_for([0, 1])
    for bad in (-1, 2**128):
        with pytest.raises(ValueError):
            sample_brownian(1, 4, 0.1, bad)
        with pytest.raises(ValueError):
            sample_brownian(1, 4, 0.1, [3, bad])
    with pytest.raises(TypeError):
        plan.seed_for(1.0)
    with pytest.raises(TypeError):
        sample_brownian(1, 4, 0.1, [3, 1.0])


@pytest.mark.parametrize("m", [1, 2])
def test_chunk_brownian_equals_each_seeds_philox(m) -> None:
    # the keys of replicas at the words' edges, and the widest keys
    keys = ([k for base in EDGE_BASES
             for k in ReplicaPlan(base_seed=base).seed_for(EDGE_INDICES)]
            + [2**128 - 1, 2**64, 2**64 - 1]
            + ReplicaPlan(base_seed=9).seed_for(range(8)))
    dt = 1e-3
    paths = sample_brownian(m, 50, dt, keys)
    assert [p.seed for p in paths] == keys
    for path, key in zip(paths, keys):
        assert path.dt == dt and type(path.seed) is int
        assert path.increments.tobytes() == philox_path(key, m, 50, dt).tobytes()
    # a numpy uint64 array of the keys that fit in it gives the same
    # paths, with int seeds, as the list of those keys
    small = [k for k in keys if k < 2**64]
    again = sample_brownian(m, 50, dt, np.array(small, dtype=np.uint64))
    assert [p.seed for p in again] == small
    assert all(type(p.seed) is int for p in again)
    by_key = {p.seed: p.increments.tobytes() for p in paths}
    assert [p.increments.tobytes() for p in again] == [by_key[k] for k in small]
    # a single key is the chunk of one
    one = sample_brownian(m, 50, dt, keys[3])
    assert one.seed == keys[3]
    assert one.increments.tobytes() == paths[3].increments.tobytes()


@settings(max_examples=30, deadline=None)
@given(base=st.integers(0, 2**64 - 1),
       indices=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=5))
def test_chunk_brownian_equals_philox_on_random_seeds(base, indices) -> None:
    keys = ReplicaPlan(base_seed=base).seed_for(indices)
    paths = sample_brownian(2, 9, 0.01, keys)
    assert [p.increments.tobytes() for p in paths] == [
        philox_path(k, 2, 9, 0.01).tobytes() for k in keys]


@pytest.mark.parametrize("base, index", [(0, 0), (6161, 2**32 - 1),
                                         (2**64 - 2, 2**64 - 2)])
def test_neighbouring_keys_draw_uncorrelated_paths(base, index) -> None:
    # replicas (s, i), (s, i + 1) and (s + 1, i): keys one apart in either
    # word give streams with no sample correlation beyond 5 standard
    # errors over their N = 200 * 128 draws each
    keys = [ReplicaPlan(base_seed=b).seed_for(i)
            for b, i in ((base, index), (base, index + 1), (base + 1, index))]
    draws = np.array([p.increments.ravel()
                      for p in sample_brownian(200, 128, 1.0 / 512.0, keys)])
    bound = 5.0 / math.sqrt(draws.shape[1])
    corr = np.corrcoef(draws)
    for a, b in ((0, 1), (0, 2), (1, 2)):
        assert not np.array_equal(draws[a], draws[b])
        assert abs(corr[a, b]) < bound, (a, b, corr[a, b])


# ---------------------------------------------------------------------------
# the shared code path and linearity


def test_zero_epsilon_ignores_the_noise_path() -> None:
    # the skeleton is the epsilon = 0 solve: a noise path changes nothing
    dom = interval_domain(0.4)
    gamma = normal_gamma(dom)
    coeffs = forced_coeffs(s=0.5, c=2.0)
    ctl = constant_control(0.1, [1.0], K=4)
    kwargs = dict(n_pen=64.0, dt=1e-3, steps=100, control=ctl)
    a = solve_penalized_spde(coeffs, dom, gamma, zero_start(31), **kwargs)
    noise = sample_brownian(1, 100, 1e-3, seed=5)
    b = solve_penalized_spde(coeffs, dom, gamma, zero_start(31), epsilon=0.0,
                             noise=noise, **kwargs)
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
    r0, r1, r2 = (solve_penalized_spde(coeffs, dom, gamma, u0, control=ctl,
                                       **kwargs).states
                  for ctl in (base, one, two))
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


def test_oblique_reflection_leaves_the_component_orthogonal_to_gamma_free(
        ) -> None:
    # Ball(0, 0.5) cut by the face nu.x <= 0.3, nu = (-sin 0.6, -cos 0.6),
    # with far faces at offset 2: on that face gamma = R(0.6) nu = (0, -1),
    # so the penalty has no e_1 part, and for a state-free b and sigma
    # component 0 of every run is the free scheme's, at every n.  This is
    # the half-space Skorokhod problem with a constant oblique direction
    # (Harrison & Reiman, Ann. Probab. 9, 1981); it holds while a path
    # touches that face alone.
    theta = 0.6
    nu = np.array([-math.sin(theta), -math.cos(theta)])
    dom = Intersection([Ball([0.0, 0.0], 0.5),
                        Polytope([nu, [1.0, 0.0], [0.0, 1.0]], [0.3, 2.0, 2.0])])
    coeffs = make_coefficients(
        2, 2, b={"name": "constant", "value": [0.0, -6.0]},
        sigma={"name": "constant", "matrix": [[1.0, 0.0], [0.5, 1.0]]})
    ladder = [16.0, 64.0, 256.0, 1024.0]
    steps, dt = resolve_time_grid(0.15, 1.0, ladder[-1])
    paths = sample_brownian(2, steps, dt, ReplicaPlan(29).seed_for(range(20)))
    model = dict(u0=zero_start(15, d=2), dt=dt, steps=steps, epsilon=0.02)
    wide = Ball([0.0, 0.0], 100.0)
    free = solve_penalized_spde(coeffs, wide, normal_gamma(wide),
                                n_pen=ladder[0], noise=paths, **model)

    def gaps(rule, angle=0.0):
        """sup |u_0 - free u_0| / max|u| of each (rung, path), the runs'
        states by (rung, path), and their chunk."""
        chunk = solve_penalized_spde(
            coeffs, dom, ObliqueField(dom, rule, angle=angle),
            n_pen=[n for n in ladder for _ in paths],
            noise=paths * len(ladder), **model)
        states = chunk.states.reshape(len(ladder), len(paths), steps + 1, 2, 15)
        gap = np.abs(states[:, :, :, 0] - free.states[:, :, 0]).max(axis=(2, 3))
        return gap / np.abs(states).max(axis=(2, 3, 4)), states, chunk

    rel, states, chunk = gaps("rotated_normal", theta)
    # every run penetrates the face
    assert (chunk.series.pen_h.max(axis=1) > 0.0).all()
    # no path reaches the ball: each point's projection onto the face's
    # half-plane lies inside it, so the body's projection is the face's
    beyond = np.maximum(np.einsum("d,rpkdj->rpkj", nu, states) - 0.3, 0.0)
    onto_face = states - beyond[:, :, :, None, :] * nu[:, None]
    assert np.sqrt((onto_face ** 2).sum(axis=3)).max() < 0.5
    assert rel.max() <= 1e-12
    # with gamma the normal, the penalty moves component 0
    assert gaps("normal")[0].min() > 1e-12


def test_sweep_inactive_reflection_converges_immediately() -> None:
    dom = free_domain()
    res = solve_skeleton(heat_coeffs(), dom, normal_gamma(dom), sine_start(15),
                         zero_control(0.05, 1), dt=1e-3, T=0.05,
                         n_start=4.0, factor=2.0, n_max=64.0, tol_cauchy=1e-8)
    assert res.converged
    assert len(res.rows) == 2  # first comparison settles it
    assert res.rows[0]["cauchy_to_next"] == 0.0


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
    gaps = [r["cauchy_to_next"] for r in res.rows[:-1]]
    assert all(g > 0 for g in gaps)
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    ns = [r["n_pen"] for r in res.rows]
    assert ns == [32.0, 64.0, 128.0, 256.0, 512.0, 1024.0]


def sequential_sweep(coeffs, domain, gamma, u0, control, dt, T, ns,
                     tol_cauchy):
    """The sweep one member at a time: single solves, compared in order,
    stopping after the first pair that is Cauchy within tol_cauchy."""
    steps, dt_eff = resolve_time_grid(T, dt, ns[-1], control.K)
    runs = [solve_penalized_spde(coeffs, domain, gamma, u0, n_pen=n,
                                 dt=dt_eff, steps=steps, control=control)
            for n in ns]

    def row(traj, ch=math.nan, cv=math.nan):
        return {"n_pen": traj.n_pen, **energy_report(traj),
                **penetration_report(traj), "cauchy_H": ch, "cauchy_V": cv,
                "cauchy_to_next": ch + cv}

    rows = []
    for prev, cur in zip(runs, runs[1:]):
        ch, cv = state_gap(prev, cur)
        rows.append(row(prev, ch, cv))
        if ch + cv < tol_cauchy:
            return rows + [row(cur)], cur
    return rows + [row(runs[-1])], runs[-1]


def test_sweep_chunk_matches_sequential_solves() -> None:
    dom = interval_domain(0.25)
    model = dict(coeffs=forced_coeffs(c=4.0), domain=dom,
                 gamma=normal_gamma(dom), u0=zero_start(31),
                 control=zero_control(0.4, 1), dt=2e-3, T=0.4)
    ns = [32.0, 64.0, 128.0, 256.0, 512.0, 1024.0]
    full = solve_skeleton(n_start=32.0, factor=2.0, n_max=1024.0,
                          tol_cauchy=0.0, **model)
    gaps = [r["cauchy_to_next"] for r in full.rows[:-1]]
    # 0: every member reported; between the 2nd and 3rd gaps: stops early
    for tol, reported in ((0.0, 6), (math.sqrt(gaps[1] * gaps[2]), 4)):
        res = solve_skeleton(n_start=32.0, factor=2.0, n_max=1024.0,
                             tol_cauchy=tol, **model)
        rows, traj = sequential_sweep(ns=ns, tol_cauchy=tol, **model)
        assert len(res.rows) == len(rows) == reported
        assert res.converged == (reported < len(ns))
        np.testing.assert_equal(res.rows, rows)
        got = res.trajectory
        assert (got.n_pen, got.dt, got.meta) == (traj.n_pen, traj.dt, traj.meta)
        assert np.array_equal(got.states, traj.states)
        assert np.array_equal(got.measure.increments, traj.measure.increments)
        assert np.array_equal(got.measure.magnitude, traj.measure.magnitude)
        for name in TrajectorySeries.FIELDS:
            assert np.array_equal(getattr(got.series, name),
                                  getattr(traj.series, name))
        # it owns its arrays: no view keeps the ladder's chunk alive
        owned = [got.states, got.measure.increments, got.measure.magnitude]
        owned += [getattr(got.series, name) for name in TrajectorySeries.FIELDS]
        assert all(a.base is None for a in owned)


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


def test_solves_on_one_grid_and_step_share_one_inverse(monkeypatch) -> None:
    seen = []

    def spy(J, r):
        seen.append(real(J, r))
        return seen[-1]

    real = solvers._heat_inverse
    monkeypatch.setattr(solvers, "_heat_inverse", spy)
    a, b = run_heat(J=15, steps=5), run_heat(J=15, steps=5)
    run_heat(J=15, dt=2e-3, steps=5)
    assert seen[0] is seen[1] and seen[2] is not seen[0]
    assert not seen[0].flags.writeable and not seen[2].flags.writeable
    assert np.array_equal(a.states, b.states)
    r = 1e-3 * 16.0**2
    assert np.allclose(seen[0], heat_inverse(r, 15), rtol=1e-13, atol=0.0)


# ---------------------------------------------------------------------------
# the step loop against a reference


def heat_inverse(r, J):
    """(I - dt Lap_h)^{-1} on J points, with r = dt / dx^2."""
    return np.linalg.inv((1.0 + 2.0 * r) * np.eye(J)
                         - r * (np.eye(J, k=1) + np.eye(J, k=-1)))


def padded_rows(rows):
    """``rows`` with one zero row below it when it has a single row: numpy
    sends a one-row product to gemv, and the padded one goes to gemm."""
    padded = np.zeros((max(len(rows), 2), rows.shape[1]))
    padded[:len(rows)] = rows
    return padded


def inverse_solve(r, rhs):
    """(I - dt Lap_h)^{-1} rhs, with r = dt / dx^2, as the step loop forms
    it: the d rows of rhs.T, padded, times the operator's inverse in one
    gemm."""
    rows = rhs.T
    return np.dot(padded_rows(rows), heat_inverse(r, len(rhs)))[:len(rows)].T


def ldlt_solve(r, rhs):
    """The same solve by LAPACK ptsv (dpttrf then dpttrs, the symmetric
    positive definite L D L^T): the upper banded form holds -r above the
    diagonal 1 + 2r."""
    ab = np.empty((2, len(rhs)))
    ab[0] = -r
    ab[1] = 1.0 + 2.0 * r
    return solveh_banded(ab, rhs, check_finite=False)


def lu_solve(r, rhs):
    """The same solve by LAPACK gtsv, the pivoted LU of a general
    tridiagonal matrix (dgttrf then dgttrs)."""
    ab = np.zeros((3, len(rhs)))
    ab[0, 1:] = ab[2, :-1] = -r
    ab[1] = 1.0 + 2.0 * r
    return solve_banded((1, 1), ab, rhs, check_finite=False)


def reference_solve(coeffs, domain, gamma, u0, n_pen, dt, steps, epsilon=0.0,
                    noise=None, control=None, solve=inverse_solve):
    """The scheme evaluated plainly: implicit solve, drift, diffusion, penalty
    and its projection each step, as solve_penalized_spde first did it.
    ``solve(r, rhs)`` is the implicit step's solve of the (J, d)
    right-hand sides.

    Returns (states, series, increments, magnitude); raises SolverError
    with the step index on blow-up.
    """
    dx = u0.grid.dx
    d, J = u0.grid.d, u0.grid.J
    hdot = control.values_on(steps) if control is not None else None
    use_noise = epsilon > 0.0
    sqrt_eps = math.sqrt(epsilon)
    r = dt / (dx * dx)
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
        u = solve(r, rhs.T).T
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


def _outward_return():
    # configs/outward_drift.json's outward drift in an off-centre interval
    # [-0.25, 0.35], whose inscribed cube is [-0.25, 0.25], with noise and
    # a control that turns the forcing round halfway: the state starts in
    # the cube, leaves it, penetrates the upper end and comes back through
    # the cube.  In d = 1 the loop's penalty is the reference's bit for bit.
    dom = Ball(center=[0.05], radius=0.3)
    coeffs = make_coefficients(1, 1, b={"name": "constant", "value": [4.0]},
                               sigma={"name": "constant", "matrix": [[1.0]]})
    return dict(coeffs=coeffs, domain=dom, gamma=normal_gamma(dom),
                u0=zero_start(31), n_pen=512.0, dt=5e-4, steps=1000,
                epsilon=0.01, noise=sample_brownian(1, 1000, 5e-4, seed=5),
                control=tabulated_control(0.5, [[0.0, -16.0]]))


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


def _normal_intersection():
    dom = Intersection([Ball(center=[0.1, 0.0], radius=0.6),
                        Box(lower=[-0.5, -0.4], upper=[0.5, 0.45])])
    coeffs = make_coefficients(
        2, 1, b={"name": "constant", "value": [5.0, 4.0]},
        sigma={"name": "constant", "matrix": [[0.5], [-0.3]]})
    return dict(coeffs=coeffs, domain=dom, gamma=normal_gamma(dom),
                u0=zero_start(31, d=2), n_pen=256.0, dt=1e-3, steps=300,
                epsilon=0.05, noise=sample_brownian(1, 300, 1e-3, seed=9))


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


def _diamond_replicas():
    # 60 replicas in |x| + |y| <= 1: members cross the faces in different
    # steps, so the rows a face projects vary from step to step
    s = math.sqrt(0.5)
    dom = Polytope(normals=[[s, s], [s, -s], [-s, s], [-s, -s]],
                   offsets=[s] * 4)
    coeffs = make_coefficients(
        2, 2, b={"name": "constant", "value": [0.5, 0.2]},
        sigma={"name": "constant", "matrix": [[1.0, 0.0], [0.0, 1.0]]})
    plan = ReplicaPlan(11)
    return dict(coeffs=coeffs, domain=dom, gamma=normal_gamma(dom),
                u0=zero_start(5, d=2), n_pen=64.0, dt=1.0 / 512.0, steps=128,
                epsilon=2.0,
                noise=[sample_brownian(2, 128, 1.0 / 512.0, plan.seed_for(i))
                       for i in range(60)])


def _chunk(case, members=3):
    """The case's model with a chunk of noise paths: the case's own path
    and members - 1 more drawn on its grid."""
    def chunked():
        kwargs = case()
        path = kwargs["noise"]
        m, steps = path.increments.shape
        kwargs["noise"] = [path] + [
            sample_brownian(m, steps, path.dt, seed=path.seed + 100 + i)
            for i in range(members - 1)]
        return kwargs
    chunked.__name__ = case.__name__ + "_chunk"
    return chunked


def _controls(case, scales=(1.0, 0.0, -0.5)):
    """The case's chunk with one control per member: the case's control
    (a constant one where it has none) times each scale."""
    def controlled():
        kwargs = _chunk(case, len(scales))()
        T = kwargs["steps"] * kwargs["dt"]
        ctl = kwargs.get("control") or constant_control(
            T, [4.0] * kwargs["coeffs"].m, K=4)
        kwargs["control"] = [ctl.scaled(c) for c in scales]
        return kwargs
    controlled.__name__ = case.__name__ + "_controls"
    return controlled


def _ladder(case, pens=(16.0, 64.0, 256.0)):
    """The case's model, noise path and control shared by a chunk with one
    n_pen per member."""
    def laddered():
        return dict(case(), n_pen=list(pens))
    laddered.__name__ = case.__name__ + "_ladder"
    return laddered


REFERENCE_CASES = [(_free_noisy, 0.0), (_outward_return, 0.0),
                   (_oblique_intersection, 1e-12),
                   (_normal_intersection, 1e-12), (_box_3d, 1e-12)]


@pytest.mark.parametrize("case, rtol", REFERENCE_CASES + [
    (_chunk(case), rtol) for case, rtol in REFERENCE_CASES] + [
    # constant sigma (free and in a box, m = 2), and state-dependent sigma
    # on ball-box with oblique gamma, where members of some controls
    # penetrate and the unforced one does not
    (_controls(_free_noisy), 0.0), (_controls(_box_3d), 1e-12),
    (_controls(_oblique_intersection), 1e-12),
    # a penalty ladder sharing one noise path and control
    (_ladder(_oblique_intersection), 1e-12),
    (_ladder(_normal_intersection), 1e-12),
    (_diamond_replicas, 1e-12)])
def test_step_loop_matches_reference(case, rtol) -> None:
    kwargs = case()
    penetrates = not case.__name__.startswith("_free_noisy")
    result = solve_penalized_spde(**kwargs)
    chunked = [key for key in ("noise", "control", "n_pen")
               if isinstance(kwargs.get(key), list)]
    if not chunked:
        check_against_reference(result, kwargs, rtol, penetrates)
        return
    # a chunk: each member against its own reference run, and bitwise
    # against its own single solve
    B = len(kwargs[chunked[0]])
    per = {key: kwargs[key] if key in chunked else [kwargs.get(key)] * B
           for key in ("noise", "control", "n_pen")}
    assert len(result.metas) == B
    assert result.steps == B * kwargs["steps"]
    if penetrates and "n_pen" in chunked:
        # the members leave together, and a stiffer one penetrates less
        assert result.measure.increments.flags.c_contiguous
        assert (np.diff(result.series.pen_h.max(axis=1)) < 0).all()
    elif penetrates:
        # some step penetrates in some members only
        hits = result.series.pen_h[:, :-1] > 0
        assert (hits.any(axis=0) & ~hits.all(axis=0)).any()
    if case.__name__ == "_oblique_intersection_controls":
        hit = result.series.pen_h.any(axis=1)
        assert hit.any() and not hit.all()
    for b, (path, ctl, n) in enumerate(zip(*per.values())):
        member = result.member(b)
        assert member.meta["seed"] == path.seed
        assert member.n_pen == n
        alone = dict(kwargs, noise=path, control=ctl, n_pen=n)
        # only an unforced member of a controls case, or a diamond
        # replica, may stay inside
        may_stay = (case is _diamond_replicas
                    or (case.__name__.endswith("_controls")
                        and not ctl.values.any()))
        check_against_reference(member, alone, rtol,
                                penetrates and not may_stay)
        single = solve_penalized_spde(**alone)
        assert np.array_equal(member.states, single.states)
        assert np.array_equal(member.measure.increments,
                              single.measure.increments)
        assert np.array_equal(member.measure.magnitude,
                              single.measure.magnitude)
        for name in TrajectorySeries.FIELDS:
            assert np.array_equal(getattr(member.series, name),
                                  getattr(single.series, name))


def check_close_to_banded_solve(case, solve) -> None:
    """Every state of every member of the case's run within 1e-12 of the
    run's max |u| of the reference run with the banded ``solve``: the loop
    multiplies by the inverse, which rounds unlike a banded solve."""
    kwargs = case()
    result = solve_penalized_spde(**kwargs)
    paths = kwargs["noise"] if isinstance(kwargs["noise"], list) else [
        kwargs["noise"]]
    got = result.states.reshape((len(paths),) + result.states.shape[-3:])
    for member, path in zip(got, paths):
        want = reference_solve(**dict(kwargs, noise=path), solve=solve)[0]
        assert np.abs(member - want).max() <= 1e-12 * np.abs(want).max()


BANDED_CASES = [case for case, _ in REFERENCE_CASES] + [
    _chunk(case) for case, _ in REFERENCE_CASES]


@pytest.mark.parametrize("case", BANDED_CASES)
def test_step_loop_is_close_to_the_lu_solve(case) -> None:
    check_close_to_banded_solve(case, lu_solve)


@pytest.mark.parametrize("case", BANDED_CASES)
def test_step_loop_is_close_to_the_ldlt_solve(case) -> None:
    check_close_to_banded_solve(case, ldlt_solve)


@pytest.mark.parametrize("J", [7, 15, 31, 64])
def test_step_product_rounds_each_row_as_its_lone_product(J) -> None:
    # Members never mix only if gemm computes each row of the step's
    # product in the same order at any row count: every row of a 1..70-row
    # product equals that row's own padded product bit for bit
    inv = heat_inverse((J + 1) ** 2 / 512.0, J)     # dt = 1/512
    rng = np.random.default_rng(J)
    for n in range(1, 71):
        rows = rng.standard_normal((n, J))
        got = np.empty((max(n, 2), J))
        np.dot(padded_rows(rows), inv, out=got)
        for i, row in enumerate(rows):
            alone = np.dot(padded_rows(row[None]), inv)[0]
            assert np.array_equal(got[i], alone), (
                f"row {i} of a {n}-row product rounds unlike its lone product")


def test_outward_return_leaves_and_reenters_the_cube() -> None:
    kwargs = _outward_return()
    traj = solve_penalized_spde(**kwargs)
    top = np.abs(traj.states).max(axis=(1, 2))
    in_cube = top <= kwargs["domain"].cube_half_width
    outside = traj.series.pen_h > 0
    first = int(np.argmax(outside))
    assert in_cube[0] and outside[first] and in_cube[first:].any()
    # states outside the cube and inside the domain, skipped by neither test
    assert (~in_cube & ~outside).any()


def test_free_chunk_makes_no_projections(monkeypatch) -> None:
    # every state of the free interval lies in the domain's inscribed cube,
    # so the step loop never projects; a penetrating run does
    calls = []
    project = Ball.project_many

    def counted(self, points):
        calls.append(len(points))
        return project(self, points)

    monkeypatch.setattr(Ball, "project_many", counted)
    result = solve_penalized_spde(**_chunk(_free_noisy)())
    assert calls == [] and not result.series.pen_h.any()
    kwargs = _outward_return()
    solve_penalized_spde(**kwargs)
    assert 0 < len(calls) < kwargs["steps"] + 1


def test_the_solve_computes_each_norm_once_on_the_whole_chunk(
        monkeypatch) -> None:
    calls = []
    for name in ("sup_series", "v_series", "lap_series"):
        def counted(states, dx, name=name, series_of=getattr(solvers, name)):
            calls.append((name, states.shape))
            return series_of(states, dx)
        monkeypatch.setattr(solvers, name, counted)
    kwargs = _chunk(_outward_return)()
    chunk = solve_penalized_spde(**kwargs)
    stack = (3 * (kwargs["steps"] + 1), 1, 31)
    assert calls == [(name, stack)
                     for name in ("sup_series", "v_series", "lap_series")]
    assert chunk.series.pen_h.any()
    # each member's seven series are its single solve's bit for bit, and a
    # deep copy of a member owns its arrays
    for b, path in enumerate(kwargs["noise"]):
        copied = copy.deepcopy(chunk.member(b))
        single = solve_penalized_spde(**dict(kwargs, noise=path))
        for name in TrajectorySeries.FIELDS:
            got = getattr(copied.series, name)
            assert got.base is None
            assert same_bits(got, getattr(single.series, name))
    # a chunk that keeps u(T) alone computes none
    calls.clear()
    solve_penalized_spde(**kwargs, path=False)
    assert calls == []


def test_control_list_is_checked() -> None:
    kwargs = _controls(_box_3d)()
    controls, paths = kwargs.pop("control"), kwargs.pop("noise")
    T = kwargs["steps"] * kwargs["dt"]
    with pytest.raises(SolverError, match="at least one member"):
        solve_penalized_spde(control=[], noise=paths, **kwargs)
    with pytest.raises(SolverError, match="at least one member"):
        solve_penalized_spde(control=[], **dict(kwargs, epsilon=0.0))
    wrong_m = constant_control(T, [1.0, 2.0, 3.0], K=2)
    wrong_T = constant_control(2.0 * T, [1.0, 2.0], K=2)
    for bad in (wrong_m, wrong_T):
        with pytest.raises(SolverError, match="control"):
            solve_penalized_spde(control=controls[:2] + [bad], noise=paths,
                                 **kwargs)
    with pytest.raises(SolverError, match="3 controls for 2 noise paths"):
        solve_penalized_spde(control=controls, noise=paths[:2], **kwargs)


def check_against_reference(traj, kwargs, rtol, penetrates) -> None:
    """Every state, series and measure column of ``traj`` against the
    reference loop's run of ``kwargs``: bitwise when rtol = 0."""
    states, series, increments, magnitude = reference_solve(**kwargs)
    got = [traj.states, traj.measure.increments, traj.measure.magnitude]
    want = [states, increments, magnitude]
    for name in TrajectorySeries.FIELDS:
        got.append(getattr(traj.series, name))
        want.append(getattr(series, name))
    steps, (d, J) = kwargs["steps"], kwargs["u0"].values.shape
    assert traj.measure.increments.shape == (steps, d, J)
    assert traj.measure.increments.flags.c_contiguous
    for g, w in zip(got, want):
        if rtol == 0.0:
            assert np.array_equal(g, w)
        else:
            np.testing.assert_allclose(g, w, rtol=rtol, atol=0.0)
    if penetrates:
        # both branches of the loop ran: steps inside and steps outside
        assert 0 < np.count_nonzero(series.pen_h) < len(series.pen_h)
