"""Estimate reports against closed forms, and their serialization."""

import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rspde import trajectory
from rspde.controls import constant_control, sine_control, zero_control
from rspde.diagnostics import (continuity_experiment, energy_report,
                               estimate_report, penetration_report,
                               weighted_distance)
from rspde.ldp import TRAJECTORY_FUNCTIONALS
from rspde.solvers import SolverError, solve_penalized_spde
from rspde.trajectory import Trajectory, state_gap

from conftest import (ball_box_2d_chunk, forced_coeffs, free_domain,
                      heat_coeffs, interval_domain, normal_gamma,
                      outward_drift_chunk, same_bits, sine_start, zero_start)


def heat_run(J=15, dt=1e-3, steps=50):
    dom = free_domain()
    return solve_penalized_spde(heat_coeffs(), dom, normal_gamma(dom),
                                sine_start(J), n_pen=4.0, dt=dt, steps=steps)


def reflecting_run(steps=200, n_pen=64.0):
    """Constant upward forcing against a ball of radius 0.25: the drift
    would settle at max height 0.5 unconstrained, so the penalty works."""
    dom = interval_domain(0.25)
    coeffs = forced_coeffs(s=0.0, c=4.0)
    return solve_penalized_spde(coeffs, dom, normal_gamma(dom), zero_start(31),
                                n_pen=n_pen, dt=1e-3, steps=steps)


# -- energy report against the discrete eigenpair ----------------------


def test_energy_report_closed_form():
    J, dt, steps = 15, 1e-3, 50
    traj = heat_run(J, dt, steps)
    dx = 1.0 / (J + 1)
    mu = 2.0 / dx ** 2 * (1.0 - math.cos(math.pi * dx))
    rep = energy_report(traj)
    # the decaying eigenmode peaks at t = 0 where |u|_H^2 = 1/2 exactly
    assert rep["sup_H4"] == pytest.approx(0.25, rel=1e-12)
    assert rep["sup_V2"] == pytest.approx(mu * 0.5, rel=1e-12)
    # |Delta_h u_k|_H^2 = mu^2/2 * (1+mu dt)^(-2k), summed geometrically
    q = (1.0 + mu * dt) ** -2
    exact = dt * mu ** 2 * 0.5 * (1.0 - q ** steps) / (1.0 - q)
    assert rep["int_H2"] == pytest.approx(exact, rel=1e-10)


def test_sup_h4_squares_as_a_python_float():
    # sweep.csv and report.json have always squared sup |u|_H^2 as a
    # Python float, whose pow rounds this value unlike numpy's x * x
    top = 0.42672114373024106
    assert top ** 2 != float(np.square(top))
    traj = heat_run()
    traj.series.h_sq[:] = top
    assert energy_report(traj)["sup_H4"] == top ** 2


def test_penetration_report_zero_when_inactive():
    rep = penetration_report(heat_run())
    for key in ("sup_pen_H", "sup_pen_Linf", "n_l1_integral",
                "n2_h2_integral", "eta_total_variation",
                "n_weighted_energy_integral"):
        assert rep[key] == 0.0


def test_measure_mass_matches_series_quadrature():
    traj = reflecting_run()
    rep = penetration_report(traj)
    assert rep["eta_total_variation"] > 0.0
    # total variation of the vector measure vs the L1 series, reordered sums
    assert rep["eta_total_variation"] == pytest.approx(rep["n_l1_integral"],
                                                       rel=1e-12)
    bare = Trajectory(grid=traj.grid, dt=traj.dt, n_pen=traj.n_pen,
                      states=traj.states, series=traj.series, measure=None)
    fallback = penetration_report(bare)
    assert fallback["eta_total_variation"] == pytest.approx(
        rep["eta_total_variation"], rel=1e-12)


def test_report_survives_serialization(tmp_path):
    traj = reflecting_run(steps=120)
    before = estimate_report(traj)
    traj.save(tmp_path / "run")
    after = estimate_report(Trajectory.load(tmp_path / "run"))
    assert set(before) == set(after)
    for key, val in before.items():
        assert after[key] == pytest.approx(val, rel=1e-12, abs=1e-300)


def test_saved_states_round_trip_bitwise(tmp_path):
    traj = reflecting_run(steps=120)
    traj.save(tmp_path / "run")
    assert sorted(os.listdir(tmp_path / "run")) == ["index.json", "series.csv",
                                                    "states.npy"]
    back = Trajectory.load(tmp_path / "run")
    assert same_bits(back.states, traj.states)
    for name in back.series.FIELDS:
        assert same_bits(getattr(back.series, name), getattr(traj.series, name))
    # the text files match a per-value repr() rendering
    lines = ["t," + ",".join(traj.series.FIELDS)]
    for k, t in enumerate(traj.times):
        lines.append(",".join([repr(float(t))] + [
            repr(float(getattr(traj.series, name)[k])) for name in traj.series.FIELDS]))
    assert (tmp_path / "run" / "series.csv").read_text() == "\n".join(lines) + "\n"
    # no per-step list: series.csv's t column and states.npy's shape hold them
    index_path = tmp_path / "run" / "index.json"
    index = json.loads(index_path.read_text())
    assert sorted(index) == ["J", "d", "dt", "epsilon", "eta_total_variation",
                             "meta", "n_pen", "steps"]
    # an index.json in the earlier layout, with its stride and per-step
    # lists, still loads
    index.update(stride=1, snapshot_steps=list(range(traj.steps + 1)),
                 times=[repr(float(t)) for t in traj.times])
    index_path.write_text(json.dumps(index, indent=1, sort_keys=True) + "\n")
    old = Trajectory.load(tmp_path / "run")
    assert same_bits(old.states, traj.states)
    for name in old.series.FIELDS:
        assert same_bits(getattr(old.series, name), getattr(traj.series, name))


@pytest.mark.parametrize("reshape", [lambda a: a[:-1],
                                     lambda a: a.transpose(0, 2, 1)])
def test_load_rejects_states_disagreeing_with_index(tmp_path, reshape):
    reflecting_run(steps=40).save(tmp_path / "run")
    path = tmp_path / "run" / "states.npy"
    np.save(path, reshape(np.load(path)))
    with pytest.raises(ValueError, match="states.npy"):
        Trajectory.load(tmp_path / "run")


# -- two-trajectory distances ------------------------------------------


def two_runs(Js=31, steps=100):
    dom = interval_domain(0.25)
    coeffs = forced_coeffs(s=0.0, c=4.0)
    g = normal_gamma(dom)
    a = solve_penalized_spde(coeffs, dom, g, zero_start(Js), n_pen=32.0,
                             dt=1e-3, steps=steps)
    b = solve_penalized_spde(coeffs, dom, g, sine_start(Js, amplitude=0.1),
                             n_pen=32.0, dt=1e-3, steps=steps)
    return a, b


def test_weighted_distance_at_lam_zero_is_cauchy():
    a, b = two_runs()
    cauchy_h, cauchy_v = state_gap(a, b)
    wgt = weighted_distance(a, b, 0.0)
    assert wgt["weighted_sup"] == cauchy_h
    assert wgt["weighted_int"] == cauchy_v


def test_weighted_distance_monotone_in_lam():
    a, b = two_runs()
    lams = [0.0, 0.5, 2.0, 8.0]
    sups = [weighted_distance(a, b, lam)["weighted_sup"] for lam in lams]
    ints = [weighted_distance(a, b, lam)["weighted_int"] for lam in lams]
    assert all(x >= y for x, y in zip(sups, sups[1:]))
    assert all(x > y for x, y in zip(ints, ints[1:]))


def test_weighted_distance_rejects_negative_rate():
    a, b = two_runs(steps=5)
    with pytest.raises(ValueError):
        weighted_distance(a, b, -1.0)


def test_weighted_distance_of_run_with_itself_is_zero():
    a, _ = two_runs(steps=5)
    wgt = weighted_distance(a, a, 1.0)
    assert wgt["weighted_sup"] == 0.0
    assert wgt["weighted_int"] == 0.0


@settings(max_examples=10, deadline=None)
@given(lam=st.floats(min_value=0.0, max_value=50.0),
       extra=st.floats(min_value=1e-3, max_value=10.0))
def test_weighted_distance_discount_property(lam, extra):
    a, b = two_runs(steps=20)
    lo = weighted_distance(a, b, lam)
    hi = weighted_distance(a, b, lam + extra)
    assert hi["weighted_sup"] <= lo["weighted_sup"] * (1 + 1e-12)
    assert hi["weighted_int"] <= lo["weighted_int"] * (1 + 1e-12)


# -- readers of a whole chunk -------------------------------------------


def readings(x, reference) -> dict:
    """Every reader's values on a run or chunk x, by name: the Cauchy gap
    and the weighted distance to the run ``reference``, both reports and
    the reflection measure's total variation."""
    gap_h, gap_v = state_gap(x, reference)
    weighted = weighted_distance(x, reference, 2.0)
    return {"gap_H": gap_h, "gap_V": gap_v, **weighted,
            **energy_report(x), **penetration_report(x),
            "total_variation": x.measure.total_variation}


@pytest.mark.parametrize("slice_bytes", [trajectory.SLICE_BYTES, 1])
@pytest.mark.parametrize("model", [outward_drift_chunk, ball_box_2d_chunk])
def test_chunk_readers_equal_single_run_reads(model, slice_bytes,
                                              monkeypatch):
    # each member of a penetrating chunk, one of which stays inside, read
    # whole (with slices of one row at a time too) against its own run
    kwargs = model()
    alone = [solve_penalized_spde(**dict(kwargs, noise=path, control=ctl))
             for path, ctl in zip(kwargs["noise"], kwargs["control"])]
    skeleton = solve_penalized_spde(**dict(kwargs, epsilon=0.0, noise=None,
                                           control=kwargs["control"][0]))
    want = [readings(run, skeleton) for run in alone]
    want_pairs = [state_gap(run, nxt) for run, nxt in zip(alone, alone[1:])]
    monkeypatch.setattr(trajectory, "SLICE_BYTES", slice_bytes)
    chunk = solve_penalized_spde(**kwargs)
    pen = chunk.series.pen_h.max(axis=1)
    assert len(alone) >= 3 and (pen > 0).any() and (pen == 0).any()
    got = readings(chunk, skeleton)
    assert got.keys() == want[0].keys()
    for name, values in got.items():
        assert all(type(w[name]) is float for w in want), name
        assert values.shape == (len(alone),), name
        assert same_bits(values, [w[name] for w in want]), name
    assert same_bits(TRAJECTORY_FUNCTIONALS["eta_mass"](chunk),
                     [w["eta_total_variation"] for w in want])
    # consecutive members, as a penalty sweep compares its ladder
    gap_h, gap_v = state_gap(chunk.members(slice(None, -1)),
                             chunk.members(slice(1, None)))
    assert same_bits(np.column_stack([gap_h, gap_v]), want_pairs)


# -- continuity of the control-to-solution map -------------------------


def test_continuity_distances_shrink_with_the_control():
    dom = interval_domain(1.0)
    coeffs = forced_coeffs(s=1.0)
    base = sine_control(T=0.05, m=1, K=50, rate=1.0, amplitude=4.0)
    family = [(f"x{c}", base.scaled(c)) for c in (1.0, 0.5, 0.25)]
    rows = continuity_experiment(coeffs, dom, normal_gamma(dom), zero_start(15),
                                 family, zero_control(T=0.05, m=1, K=50),
                                 dt=1e-3, T=0.05, n_start=16.0, n_max=64.0,
                                 tol_cauchy=1e-8)
    assert [r["label"] for r in rows] == ["x1.0", "x0.5", "x0.25"]
    assert all(r["rho_sq"] == r["gap_H"] + r["gap_V"] for r in rows)
    gaps = [r["rho_sq"] for r in rows]
    assert gaps[0] > gaps[1] > gaps[2] > 0.0
    # the noise-free forced problem is linear in the control here, so the
    # solution gap scales like the control's squared CM gap
    assert rows[0]["cm_gap_sq"] == pytest.approx(4 * rows[1]["cm_gap_sq"],
                                              rel=1e-12)
    assert gaps[0] == pytest.approx(4 * gaps[1], rel=1e-6)


def test_continuity_rejects_mismatched_control_grids():
    dom = interval_domain(1.0)
    with pytest.raises(SolverError):
        continuity_experiment(forced_coeffs(), dom, normal_gamma(dom),
                              zero_start(15),
                              [("bad", constant_control(T=0.05, vector=[1.0],
                                                        K=25))],
                              zero_control(T=0.05, m=1, K=50),
                              dt=1e-3, T=0.05)
