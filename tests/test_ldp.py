"""Events, the action minimizer, and Monte Carlo against a Gaussian oracle."""

import copy
import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rspde.config import ExperimentConfig
from rspde.coefficients import make_coefficients
from rspde.controls import (Control, constant_control, sine_control,
                            tabulated_control)
from rspde.diagnostics import penetration_report, weighted_distance
from rspde.fields import Field, h_norm
from rspde.geometry import Box
from rspde import cli, ldp
from rspde.ldp import (TRAJECTORY_FUNCTIONALS, EventSpec,
                       MCResult, RateResult, _replicas, _sup_h_norm, ldp_compare, mc_rows, minimize_rate,
                       rate_functional, stray_flags, summarize_rows,
                       summarize_weighted, weighted_rows)
from rspde.solvers import (ReplicaPlan, SolverError, resolve_time_grid,
                           sample_brownian, solve_penalized_spde)
from rspde.trajectory import gap_series, state_gap

from conftest import (ball_box_2d_chunk, forced_coeffs, free_domain,
                      heat_coeffs, interval_domain, normal_gamma, same_bits,
                      zero_start)


def small_run():
    """A controlled run, as a chunk of one."""
    dom = free_domain()
    coeffs = forced_coeffs(s=1.0)
    ctrl = constant_control(0.05, [2.0], K=5)
    steps, dt = resolve_time_grid(0.05, 1e-3, 16.0, ctrl.K)
    return solve_penalized_spde(coeffs, dom, normal_gamma(dom),
                                zero_start(15), n_pen=16.0, dt=dt,
                                steps=steps, control=[ctrl])


# -- event semantics ---------------------------------------------------


def test_terminal_ball_event_and_complement():
    run = small_run()
    r = h_norm(Field(run.grid, run.states[0, -1]))
    assert r > 0.0
    inside = EventSpec("terminal_ball", radius=2 * r)
    outside = EventSpec("terminal_ball", radius=2 * r, complement=True)
    assert inside.occurred(run) and not outside.occurred(run)
    assert inside.shortfall(run) == 0.0
    assert outside.shortfall(run) == pytest.approx(r, rel=1e-12)
    tight = EventSpec("terminal_ball", radius=0.5 * r, complement=True)
    assert tight.occurred(run) and tight.shortfall(run) == 0.0
    centered = EventSpec("terminal_ball", radius=1e-9,
                         center=run.states[0, -1].copy())
    assert centered.occurred(run)


def test_sup_exceed_event_matches_series():
    run = small_run()
    sup = math.sqrt(float(np.max(run.series.h_sq)))
    hit = EventSpec("sup_exceed", radius=0.5 * sup)
    miss = EventSpec("sup_exceed", radius=2.0 * sup)
    assert hit.occurred(run) and not miss.occurred(run)
    assert miss.shortfall(run) == pytest.approx(sup, rel=1e-12)


def test_functional_threshold_event():
    run = small_run()
    mean = run.grid.dx * float(np.sum(run.states[0, -1, 0]))
    assert mean > 0.0
    ev = EventSpec("functional_threshold", functional="terminal_mean",
                   level=0.5 * mean)
    assert ev.occurred(run) and ev.shortfall(run) == 0.0
    ev2 = EventSpec("functional_threshold", functional="terminal_mean",
                    level=2.0 * mean)
    assert ev2.shortfall(run) == pytest.approx(mean, rel=1e-12)


def _box_3d():
    # a box in d = 3 with constant sigma (m = 2): the members with the
    # strongest controls penetrate
    dom = Box(lower=[-0.3, -0.4, -0.5], upper=[0.3, 0.4, 0.5])
    coeffs = make_coefficients(
        3, 2, b={"name": "zero"},
        sigma={"name": "constant",
               "matrix": [[0.6, 0.2], [-0.3, 0.5], [0.1, -0.4]]})
    ctl = tabulated_control(0.3, [[1.0, -2.0, 0.5, 3.0, 0.0, 1.5],
                                  [0.5, 1.0, -1.0, 2.0, -0.5, 0.0]])
    return dict(coeffs=coeffs, domain=dom, gamma=normal_gamma(dom),
                u0=zero_start(15, d=3), n_pen=128.0, dt=2.5e-3, steps=120,
                epsilon=0.01, control=[ctl.scaled(c) for c in (4.0, 0.0, -3.0, 1.0, 6.0)],
                noise=[sample_brownian(2, 120, 2.5e-3, 40 + s) for s in range(5)])


# the single-run forms of the functionals, read on one trajectory
SINGLE_RUN_FUNCTIONALS = {
    "terminal_h_norm": lambda tr: h_norm(Field(tr.grid, tr.states[-1])),
    "sup_h_norm": lambda tr: math.sqrt(float(np.max(tr.series.h_sq))),
    "eta_mass": lambda tr: penetration_report(tr)["eta_total_variation"],
    "terminal_mean": lambda tr: tr.grid.dx * float(np.sum(tr.states[-1][0])),
}


def single_run_margin(event, traj) -> float:
    """The event's signed margin on one trajectory, computed as a single
    run reads it: Python floats from whole-array sums."""
    dx = traj.grid.dx
    if event.kind == "terminal_ball":
        diff = traj.states[-1]
        if event.center is not None:
            diff = diff - event.center
        dist = math.sqrt(dx * float(np.sum(diff * diff)))
        return dist - event.radius if event.complement else event.radius - dist
    if event.kind == "sup_exceed":
        states = traj.states
        diff = states if event.reference is None else states - event.reference
        sq = np.einsum("kdj,kdj->k", diff, diff)
        return math.sqrt(dx * float(np.max(sq))) - event.radius
    return SINGLE_RUN_FUNCTIONALS[event.functional](traj) - event.level


def mixed_events(members) -> list:
    """Every event kind, each with its threshold at the median of the
    members' distinct values, so it occurs in some members and not in
    others (with an odd count, a member sits exactly on the threshold)."""
    d, J = members[0].states.shape[1:]
    profile = 0.05 * np.cos(np.arange(d * J)).reshape(d, J)
    specs = [dict(kind="terminal_ball"),
             dict(kind="terminal_ball", complement=True),
             dict(kind="terminal_ball", center=profile),
             dict(kind="terminal_ball", center=profile, complement=True),
             dict(kind="sup_exceed"),
             dict(kind="sup_exceed", reference=profile)]
    specs += [dict(kind="functional_threshold", functional=name)
              for name in sorted(TRAJECTORY_FUNCTIONALS)]
    events = []
    for spec in specs:
        key = "level" if spec["kind"] == "functional_threshold" else "radius"
        # at threshold 0 the margin is the value the threshold meets
        probe = EventSpec(**spec, **{key: 0.0})
        values = [single_run_margin(probe, m) for m in members]
        if probe.kind == "terminal_ball" and not probe.complement:
            values = [-v for v in values]          # the margin is radius - dist
        events.append(EventSpec(**spec, **{key: float(np.median(np.unique(values)))}))
    return events


@pytest.mark.parametrize("model", [ball_box_2d_chunk, _box_3d],
                         ids=["_ball_box_2d", "_box_3d"])
def test_chunk_event_reads_equal_single_run_reads(model):
    assert SINGLE_RUN_FUNCTIONALS.keys() == TRAJECTORY_FUNCTIONALS.keys()
    kwargs = model()
    chunk = solve_penalized_spde(**kwargs)
    terminal = solve_penalized_spde(**kwargs, path=False)
    B = len(kwargs["noise"])
    pen = chunk.series.pen_h.max(axis=1)
    assert (pen > 0).any() and (pen == 0).any()
    members = [chunk.member(b) for b in range(B)]
    alone = [solve_penalized_spde(**dict(kwargs, noise=[path], control=[ctl]))
             for path, ctl in zip(kwargs["noise"], kwargs["control"])]
    events = mixed_events(members)
    assert sum(not event.reads_path for event in events) == 7
    for event in events:
        margins = [single_run_margin(event, m) for m in members]
        hits = [m >= 0.0 for m in margins]
        assert any(hits) and not all(hits), event.describe()
        shortfalls = [max(0.0, -m) for m in margins]
        assert event.occurred(chunk).tolist() == hits
        assert same_bits(event.shortfall(chunk), shortfalls)
        for b, run in enumerate(alone):
            assert event.occurred(run).tolist() == [hits[b]]
            assert same_bits(event.shortfall(run), [shortfalls[b]])
        # a chunk that keeps u(T) alone reads every other event the same
        if not event.reads_path:
            assert event.occurred(terminal).tolist() == hits
            assert same_bits(event.shortfall(terminal), shortfalls)
    # every event reads the states or the measure: no norm series is computed
    assert all("_norms" in vars(run.series) for run in alone)


def test_path_free_chunk_keeps_what_its_readers_read():
    kwargs = ball_box_2d_chunk()
    chunk = solve_penalized_spde(**kwargs)
    terminal = solve_penalized_spde(**kwargs, path=False)
    B, count = chunk.series.pen_h.shape
    assert terminal.steps == chunk.steps == B * (count - 1)
    assert same_bits(terminal.states, chunk.states[:, -1:])
    for name in ("pen_h", "pen_l1", "pen_linf"):
        assert same_bits(getattr(terminal.series, name),
                         getattr(chunk.series, name))
    for name in ("increments", "magnitude"):
        assert same_bits(getattr(terminal.measure, name),
                         getattr(chunk.measure, name))
    # the series of every state read as NaN, from one shared value
    for name in ("h_sq", "v_sq", "lap_sq", "pen_gamma"):
        series = getattr(terminal.series, name)
        assert series.shape == (B, count) and np.isnan(series).all()
        assert not series.flags.writeable and series.strides == (0, 0)
    assert terminal.members(slice(1, 3)).steps == 2 * (count - 1)
    with pytest.raises(SolverError, match="only a chunk"):
        solve_penalized_spde(**dict(kwargs, noise=kwargs["noise"][0],
                                    control=kwargs["control"][0]), path=False)


def test_path_readers_refuse_a_path_free_chunk():
    kwargs = ball_box_2d_chunk()
    chunk = solve_penalized_spde(**kwargs)
    terminal = solve_penalized_spde(**kwargs, path=False)
    for read in (lambda: state_gap(terminal, chunk),
                 lambda: gap_series(chunk, terminal),
                 lambda: weighted_distance(terminal, chunk.member(0), 1.0),
                 lambda: _sup_h_norm(terminal),
                 lambda: terminal.member(0),
                 lambda: terminal.members(slice(1, 2)).member(0)):
        with pytest.raises(ValueError, match="path=False"):
            read()
    sup = EventSpec("sup_exceed", radius=0.1)
    assert sup.reads_path
    with pytest.raises(ValueError, match="path=False"):
        sup.occurred(terminal)


def test_monte_carlo_rows_keep_no_state_stack():
    # the model of the benchmark's mc-free-1d workload: 200 replicas of
    # 128 steps on the free interval, J = 15, a terminal-mean event
    dom = interval_domain(100.0)
    coeffs = make_coefficients(1, 1, b={"name": "zero"},
                               sigma={"name": "constant", "matrix": [[1.0]]})
    event = EventSpec("functional_threshold", functional="terminal_mean",
                      level=0.025)
    assert not event.reads_path
    steps, dt = resolve_time_grid(0.25, 1.0 / 512.0, 256.0)
    args = (coeffs, dom, normal_gamma(dom), zero_start(15), event, 0.01,
            256.0, dt, steps, ReplicaPlan(11), 0, 200)
    stack = 200 * (steps + 1) * 15 * 8
    assert steps == 128
    assert ldp._chunks(range(200), steps, zero_start(15).grid) == [range(200)]
    mc_rows(*args)                      # caches the heat inverse
    tracemalloc.start()
    try:
        rows = mc_rows(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 200 and 0 < sum(r["event"] for r in rows) < 200
    assert peak < stack, f"mc_rows peaked at {peak} bytes, one stack is {stack}"


def test_event_constructor_rejects_bad_specs():
    with pytest.raises(ValueError):
        EventSpec("nonsense", radius=1.0)
    with pytest.raises(ValueError):
        EventSpec("terminal_ball")
    with pytest.raises(ValueError):
        EventSpec("functional_threshold", functional="no_such", level=1.0)
    with pytest.raises(ValueError):
        EventSpec("functional_threshold", functional="terminal_mean")


# -- rate functional ---------------------------------------------------


def test_rate_functional_closed_form():
    # I(h) = 1/2 int |hdot|^2: constant rate c on [0,T] gives c^2 T / 2
    ctrl = constant_control(0.4, [3.0], K=8)
    assert rate_functional(ctrl) == pytest.approx(0.5 * 9.0 * 0.4, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(c=st.floats(min_value=-8, max_value=8,
                   allow_nan=False, allow_infinity=False))
def test_rate_functional_quadratic_scaling(c):
    base = sine_control(T=0.3, m=2, K=16, rate=2, amplitude=1.5, component=1)
    assert rate_functional(base.scaled(c)) == pytest.approx(
        c * c * rate_functional(base), rel=1e-9, abs=1e-12)


# -- action minimization ----------------------------------------------


def planted_setup(K=4, T=0.05):
    dom = free_domain()
    coeffs = forced_coeffs(s=1.0)
    g = normal_gamma(dom)
    u0 = zero_start(15)
    planted = constant_control(T, [2.0], K=K)
    steps, dt = resolve_time_grid(T, 1e-3, 16.0, K)
    target = solve_penalized_spde(coeffs, dom, g, u0, n_pen=16.0, dt=dt,
                                  steps=steps, control=planted)
    return coeffs, dom, g, u0, planted, target


def test_minimize_rate_beats_planted_control():
    coeffs, dom, g, u0, planted, target = planted_setup()
    i_plant = rate_functional(planted)
    radius = 0.2 * h_norm(Field(target.grid, target.states[-1]))
    event = EventSpec("terminal_ball", radius=radius,
                      center=target.states[-1].copy())
    res = minimize_rate(coeffs, dom, g, u0, event, T=0.05, K=4,
                        dt=1e-3, n_pen=16.0, max_iters=80)
    assert res.feasible
    assert res.violation <= 1e-3
    assert res.rate <= 1.15 * i_plant
    assert res.rate > 0.0
    (summary,) = res.trace
    assert summary["iterations"] >= 1


def test_minimize_rate_flags_unreachable_event():
    dom = free_domain()
    coeffs = heat_coeffs()  # sigma = 0: controls cannot move the state
    event = EventSpec("terminal_ball", radius=0.1, complement=True)
    res = minimize_rate(coeffs, dom, normal_gamma(dom), zero_start(15),
                        event, T=0.05, K=4, dt=1e-3, n_pen=16.0)
    assert not res.feasible
    assert res.violation == pytest.approx(0.1, rel=1e-12)
    # forward differences bias the quadratic's minimizer by O(fd_step)
    assert res.rate <= 1e-10


# rate problems as configs: the benchmark's rate workload (terminal-ball
# exit on the free interval) and configs/small_noise.json, each with a
# closed form; a sup_exceed event in d = 2 on ball-box with rotated gamma,
# whose batches mix members that reach the wall and members that do not;
# and sigma = 0, where no control moves the state
FREE = {"domain": {"kind": "ball", "center": [0.0], "radius": 100.0},
        "gamma": {"rule": "normal"}, "u0": {"kind": "zero"},
        "replicas": {"base_seed": 1, "count": 1}}
SMALL_NOISE = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                           "small_noise.json")
with open(SMALL_NOISE, encoding="utf-8") as _fh:
    _SMALL_NOISE_RAW = json.load(_fh)
RATE_PROBLEMS = {
    "rate-free-1d": dict(
        FREE,
        coefficients={"d": 1, "m": 1, "b": {"name": "zero"},
                      "sigma": {"name": "constant", "matrix": [[1.0]]}},
        grid={"J": 15, "dt": 2e-3, "T": 0.25}, penalty={"n_event": 256.0},
        event={"kind": "terminal_ball", "radius": 0.17982651009675618,
               "complement": True},
        rate={"K": 4}),
    "small-noise": _SMALL_NOISE_RAW,
    "ball-box-sup": {
        "domain": {"kind": "intersection", "members": [
            {"kind": "ball", "center": [0.0, 0.0], "radius": 0.5},
            {"kind": "box", "lower": [-0.4, -0.45], "upper": [0.45, 0.4]}]},
        "gamma": {"rule": "rotated_normal", "angle": 0.2},
        "coefficients": {"d": 2, "m": 2, "b": {"name": "zero"},
                         "sigma": {"name": "constant",
                                   "matrix": [[1.0, 0.3], [-0.2, 0.8]]}},
        "u0": {"kind": "zero"},
        "grid": {"J": 15, "dt": 2e-3, "T": 0.1},
        "penalty": {"n_event": 256.0},
        "replicas": {"base_seed": 1, "count": 1},
        "event": {"kind": "sup_exceed", "radius": 0.38},
        "rate": {"K": 2, "max_iters": 10}},
    "unreachable": dict(
        FREE,
        coefficients={"d": 1, "m": 1, "b": {"name": "zero"},
                      "sigma": {"name": "zero"}},
        grid={"J": 15, "dt": 1e-3, "T": 0.05}, penalty={"n_event": 16.0},
        event={"kind": "terminal_ball", "radius": 0.1, "complement": True},
        rate={"K": 4}),
}


def rate_call(name):
    """minimize_rate's arguments for a rate problem, as the CLI passes them."""
    cfg = ExperimentConfig.from_dict(copy.deepcopy(RATE_PROBLEMS[name]))
    dom = cfg.build_domain()
    args = (cfg.build_coefficients(), dom, cfg.build_gamma(dom),
            cfg.build_u0(), cfg.build_event())
    opts = cfg.rate_options
    kwargs = dict(T=cfg.T, K=opts["K"], dt=cfg.dt, n_pen=cfg.n_event,
                  fd_step=opts["fd_step"], max_iters=opts["max_iters"],
                  feas_tol=opts["feas_tol"])
    return cfg, args, kwargs


@pytest.mark.parametrize("name", ["rate-free-1d", "small-noise"])
def test_minimizer_meets_closed_form_at_stated_radius(name, monkeypatch):
    # the SQP iterates end on the constraint, so I* is the closed form at
    # the event's own radius, not at the radius reached
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__),
                                             os.pardir, "bench"))
    import reference

    cfg, args, kwargs = rate_call(name)
    res = minimize_rate(*args, **kwargs)
    want = reference.closed_form_rate(cfg.raw["grid"]["J"], res.dt,
                                      res.steps, kwargs["K"], cfg.T,
                                      cfg.raw["event"]["radius"])
    assert res.feasible and not res.stagnated
    assert res.violation <= 1e-12
    assert abs(res.rate - want) <= 1e-9 * want
    # the multiplier is dI*/d(radius), and I* is quadratic in the radius
    (summary,) = res.trace
    assert summary["multiplier"] == pytest.approx(
        2.0 * want / cfg.raw["event"]["radius"], rel=1e-6)


def test_minimizer_reaches_ball_box_sup_event():
    # a non-smooth sup over time on a penetrating problem, within its 10
    # iterations: feasible, and no higher than the 2.125749507188183 of the
    # quadratic-penalty continuation this minimiser replaced
    _, args, kwargs = rate_call("ball-box-sup")
    res = minimize_rate(*args, **kwargs)
    assert res.feasible and res.violation <= kwargs["feas_tol"]
    assert 0.0 < res.rate <= 2.125749507188183


def test_minimizer_stops_on_met_event_after_one_solve(monkeypatch):
    # the zero control already leaves the ball: I* = 0, from the first batch
    _, args, kwargs = rate_call("rate-free-1d")
    met = EventSpec("terminal_ball", radius=0.1)
    calls = []
    solve = ldp.solve_penalized_spde

    def solve_counting(*a, **kw):
        calls.append(len(kw["control"]))
        return solve(*a, **kw)

    monkeypatch.setattr(ldp, "solve_penalized_spde", solve_counting)
    res = minimize_rate(*args[:4], met, **kwargs)
    assert len(calls) == 1
    assert res.rate == 0.0 and res.violation == 0.0
    assert res.feasible and not res.stagnated
    assert not np.any(res.control.values)
    assert res.trace[0]["iterations"] == 0


@pytest.mark.parametrize("name", sorted(RATE_PROBLEMS))
def test_minimizer_does_not_depend_on_chunks(name, monkeypatch):
    # the result, trace and control bit for bit, with the default chunks
    # and with chunks of one member
    cfg, args, kwargs = rate_call(name)
    steps, _ = resolve_time_grid(cfg.T, cfg.dt, cfg.n_event, kwargs["K"])
    grid = args[3].grid
    member = 8 * (steps + 1) * grid.d * grid.J
    mixed = []
    solve = ldp.solve_penalized_spde

    def solve_recording(*a, **kw):
        chunk = solve(*a, **kw)
        hit = chunk.series.pen_h.any(axis=1)
        mixed.append(hit.any() and not hit.all())
        return chunk

    monkeypatch.setattr(ldp, "solve_penalized_spde", solve_recording)
    want = minimize_rate(*args, **kwargs).to_dict()
    monkeypatch.setattr(ldp, "CHUNK_BYTES", member)
    assert minimize_rate(*args, **kwargs).to_dict() == want
    assert want["feasible"] == (name != "unreachable")
    if name == "ball-box-sup":
        # some batches hold members that reach the wall beside members
        # that do not
        assert any(mixed)


def test_minimizer_solves_one_control_value_per_step(monkeypatch):
    # configs/small_noise.json at m * K = 128, one control value per time
    # step: the discrete model's own infimum, which no cap on the control
    # dimension rejects
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__),
                                             os.pardir, "bench"))
    import reference

    cfg, args, kwargs = rate_call("small-noise")
    res = minimize_rate(*args, **{**kwargs, "K": 128})
    assert (res.control.m * res.control.K, res.steps) == (128, 128)
    assert res.feasible and not res.stagnated
    want = reference.closed_form_rate(cfg.raw["grid"]["J"], res.dt,
                                      res.steps, 128, cfg.T,
                                      cfg.raw["event"]["radius"])
    assert abs(res.rate - want) <= 1e-9 * want


def test_minimum_energy_scales_quadratically_in_radius():
    dom = free_domain()
    coeffs = forced_coeffs(s=1.0)
    g = normal_gamma(dom)
    u0 = zero_start(15)
    rates = []
    for delta in (0.02, 0.04):
        event = EventSpec("terminal_ball", radius=delta, complement=True)
        res = minimize_rate(coeffs, dom, g, u0, event, T=0.05, K=4,
                            dt=1e-3, n_pen=16.0, max_iters=80)
        assert res.feasible
        rates.append(res.rate)
    exponent = math.log(rates[1] / rates[0]) / math.log(2.0)
    assert 1.7 <= exponent <= 2.3


# -- Monte Carlo -------------------------------------------------------


def dense_propagator(J, dt):
    """(I - dt Lap_h)^{-1} assembled densely, independent of the solver."""
    dx = 1.0 / (J + 1)
    lap = (np.diag(-2.0 * np.ones(J)) + np.diag(np.ones(J - 1), 1)
           + np.diag(np.ones(J - 1), -1)) / dx ** 2
    return np.linalg.inv(np.eye(J) - dt * lap)


def mc_estimate(coeffs, dom, gamma, u0, event, epsilon, n_pen, dt, T, seed,
                count):
    """P(event) on the path ``rspde mc`` takes: the time grid, one row per
    replica of ``count`` under the base seed, then the summary."""
    steps, dt_eff = resolve_time_grid(T, dt, n_pen, 1)
    rows = mc_rows(coeffs, dom, gamma, u0, event, epsilon, n_pen, dt_eff,
                   steps, ReplicaPlan(seed), 0, count)
    return summarize_rows(rows, count)


def test_mc_probability_matches_gaussian_oracle():
    # b = 0, sigma = 1: the terminal spatial mean is exactly Gaussian with
    # variance eps * dt * sum_k (dx 1^T M^(K-k) 1)^2 under the scheme.
    J, K, dt, eps = 15, 50, 1e-3, 1.0
    M = dense_propagator(J, dt)
    ones = np.ones(J)
    dx = 1.0 / (J + 1)
    weights = []
    v = ones.copy()
    for _ in range(K):
        v = M @ v
        weights.append(dx * float(ones @ v))  # k steps of smoothing
    s = math.sqrt(eps * dt * sum(w * w for w in weights))
    level = 0.84 * s
    p_exact = 0.5 * math.erfc(level / (s * math.sqrt(2.0)))

    dom = free_domain()
    event = EventSpec("functional_threshold", functional="terminal_mean",
                      level=level)
    res = mc_estimate(forced_coeffs(s=1.0), dom, normal_gamma(dom),
                      zero_start(J), event, epsilon=eps, n_pen=16.0,
                      dt=dt, T=K * dt, seed=7, count=2000)
    assert res.replicas == 2000
    assert abs(res.p_hat - p_exact) <= 4.0 * res.stderr + 1e-12
    assert res.stderr == pytest.approx(
        math.sqrt(res.p_hat * (1 - res.p_hat) / 2000), rel=1e-12)


def test_mc_zero_hits_reports_rule_of_three():
    dom = free_domain()
    event = EventSpec("terminal_ball", radius=50.0, complement=True)
    res = mc_estimate(forced_coeffs(s=1.0), dom, normal_gamma(dom),
                      zero_start(15), event, epsilon=0.01, n_pen=16.0,
                      dt=1e-3, T=0.02, seed=1, count=60)
    assert res.hits == 0 and res.p_hat == 0.0 and res.stderr == 0.0
    assert res.upper_bound == pytest.approx(3.0 / 60)


def test_mc_agrees_with_large_replica_oracle():
    # Frozen reference: the same reflected model run once at 20000
    # replicas (base_seed 505050) gave p_hat = 0.26535 +- 0.00312 for
    # the terminal spatial mean crossing 0.203 at eps = 0.1.  A fresh
    # 2000-replica estimate must land within three of its own standard
    # errors of that value.
    p_oracle = 0.26535
    dom = interval_domain(0.25)
    event = EventSpec("functional_threshold", functional="terminal_mean",
                      level=0.203)
    res = mc_estimate(forced_coeffs(s=1.0, c=4.0), dom,
                      normal_gamma(dom), zero_start(15), event,
                      epsilon=0.1, n_pen=256.0, dt=2e-3, T=0.12,
                      seed=606060, count=2000)
    assert res.hits > 0
    assert abs(res.p_hat - p_oracle) <= 3.0 * res.stderr


def test_mc_rows_chunking_reproduces_serial_run():
    dom = free_domain()
    coeffs = forced_coeffs(s=1.0)
    g = normal_gamma(dom)
    event = EventSpec("terminal_ball", radius=0.05, complement=True)
    plan = ReplicaPlan(base_seed=11)
    steps, dt = resolve_time_grid(0.02, 1e-3, 16.0, 1)
    whole = mc_rows(coeffs, dom, g, zero_start(15), event, 0.5, 16.0,
                    dt, steps, plan, 0, 24)
    parts = (mc_rows(coeffs, dom, g, zero_start(15), event, 0.5, 16.0,
                     dt, steps, plan, 0, 9)
             + mc_rows(coeffs, dom, g, zero_start(15), event, 0.5, 16.0,
                       dt, steps, plan, 9, 24))
    assert whole == parts
    agg = summarize_rows(whole, 24)
    assert agg.hits == sum(r["event"] for r in parts)


# -- comparisons -------------------------------------------------------


def manual_rate_result(T=0.05, n_pen=32.0):
    ctrl = constant_control(T, [2.0], K=5)
    steps, dt = resolve_time_grid(T, 1e-3, n_pen, ctrl.K)
    return RateResult(control=ctrl, rate=rate_functional(ctrl),
                      violation=0.0, feasible=True, stagnated=False,
                      trace=[], n_pen=n_pen, dt=dt, steps=steps)


def compare(coeffs, dom, gamma, u0, event, rate, epsilons, seed, count,
            ldp1_delta_sq, ldp1_replicas):
    """The table on the path ``rspde ldp-compare`` takes: each epsilon
    estimated from ``count`` replicas on the rate's time grid, the stray
    flags of ldp1_replicas replicas seeded from base seed + 1 at the
    rate's control, then ldp_compare."""
    estimates = [(eps, summarize_rows(
        mc_rows(coeffs, dom, gamma, u0, event, eps, rate.n_pen, rate.dt,
                rate.steps, ReplicaPlan(seed), 0, count), count))
        for eps in epsilons]
    strays = stray_flags(coeffs, dom, gamma, u0, rate.control, epsilons,
                         ReplicaPlan(seed + 1), ldp1_delta_sq, rate.n_pen,
                         rate.dt, rate.steps, 0, ldp1_replicas)
    return ldp_compare(rate, estimates, strays)


def test_ldp_compare_rows_and_zero_hit_marking():
    dom = interval_domain(1.0)
    coeffs = forced_coeffs(s=1.0)
    g = normal_gamma(dom)
    rate = manual_rate_result()
    reachable = EventSpec("terminal_ball", radius=0.01, complement=True)
    rows = compare(coeffs, dom, g, zero_start(15), reachable, rate,
                   epsilons=[0.5], seed=3, count=60,
                   ldp1_delta_sq=0.05, ldp1_replicas=12)
    (row,) = rows
    assert row["I_star"] == rate.rate
    assert 0.0 <= row["ldp1_prob"] <= 1.0
    assert row["p_hat"] > 0.0 and math.isfinite(row["neg_eps_log_p"])
    assert row["neg_eps_log_p"] == pytest.approx(-0.5 * math.log(row["p_hat"]))

    impossible = EventSpec("terminal_ball", radius=40.0, complement=True)
    rows = compare(coeffs, dom, g, zero_start(15), impossible, rate,
                   epsilons=[0.1], seed=3, count=30,
                   ldp1_delta_sq=0.01, ldp1_replicas=5)
    assert rows[0]["p_hat"] == 0.0 and math.isnan(rows[0]["neg_eps_log_p"])
    # the row stays in the table, its NaN written as such
    assert cli._cell(rows[0]["neg_eps_log_p"]) == "nan"


def test_ldp1_deviation_probability_falls_with_epsilon():
    dom = interval_domain(1.0)
    coeffs = forced_coeffs(s=1.0)
    rate = manual_rate_result()
    event = EventSpec("terminal_ball", radius=0.01, complement=True)
    rows = compare(coeffs, dom, normal_gamma(dom), zero_start(15), event,
                   rate, epsilons=[1.0, 0.01],
                   seed=5, count=10,
                   ldp1_delta_sq=0.01, ldp1_replicas=25)
    assert rows[0]["ldp1_prob"] >= rows[1]["ldp1_prob"]
    assert rows[1]["ldp1_prob"] == 0.0


def test_stray_flags_split_reproduces_serial_run():
    dom = interval_domain(0.25)
    coeffs = forced_coeffs(s=1.0, c=4.0)
    rate = manual_rate_result()
    plan = ReplicaPlan(base_seed=4)
    args = (coeffs, dom, normal_gamma(dom), zero_start(15), rate.control,
            [1.0, 0.1], plan, 0.01, rate.n_pen, rate.dt, rate.steps)
    whole = stray_flags(*args, 0, 7)
    parts = [stray_flags(*args, lo, hi) for lo, hi in ((0, 3), (3, 7))]
    assert whole == [a + b for a, b in zip(*parts)]
    assert [len(level) for level in whole] == [7, 7]
    assert any(whole[0]) and not all(whole[1])


def test_weighted_trend_decreases_with_epsilon():
    dom = interval_domain(1.0)
    coeffs = forced_coeffs(s=1.0)
    ctrl = sine_control(T=0.05, m=1, K=50, rate=1, amplitude=2.0)
    epsilons = [1.0, 0.1, 0.01]
    levels = weighted_rows(coeffs, dom, normal_gamma(dom), zero_start(15),
                           ctrl, epsilons, plan=ReplicaPlan(base_seed=9),
                           lam=1.0, n_pen=32.0, dt=1e-3, T=0.05, start=0,
                           stop=10)
    rows = summarize_weighted(epsilons, levels, 10)
    sups = [r["mean_weighted_sup"] for r in rows]
    ints = [r["mean_weighted_int"] for r in rows]
    assert sups[0] > sups[1] > sups[2] > 0.0
    assert ints[0] > ints[1] > ints[2] > 0.0
    # the controlled runs converge to the skeleton linearly in sqrt(eps)
    assert sups[2] <= 0.2 * sups[0]


def test_noisy_penetration_falls_with_penalty_on_common_seeds():
    # the same five replica seeds at every penalty level: the mean
    # sup_t |u - pi(u)|_H falls from n = 32 to n = 128
    dom = interval_domain(0.25)
    coeffs = forced_coeffs(s=0.5, c=4.0)
    plan = ReplicaPlan(base_seed=2)
    means = []
    for n in (32.0, 128.0):
        steps, dt = resolve_time_grid(0.12, 1e-3, n, 1)
        sups = _replicas(lambda part, chunk: chunk.series.pen_h.max(axis=1).tolist(),
                         coeffs, dom, normal_gamma(dom), zero_start(15), plan,
                         range(5), 0.1, n, dt, steps)
        means.append(math.fsum(sups) / 5)
    assert means[0] > means[1] > 0.0
