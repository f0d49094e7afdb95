"""Reports of the a-priori estimates, all computed on the solver's grid.

Each report is a plain dict so it can be merged into a JSON document
without ceremony.  Quantities that bound expectations in the continuum
(fourth-moment energy, penalty work, reflection mass) are reported per
trajectory (``estimate_report`` merges them); the weighted distance
compares two trajectories on the same grid, as does the Cauchy gap
``trajectory.state_gap``.

Every report and distance reads a run or a whole chunk (see
``trajectory``): floats for a run, and for a chunk (B,) arrays whose
values are bit for bit those of each member's own run.

Left-endpoint quadrature is used for every time integral, matching the
explicit terms of the stepping scheme, so a report recomputed from a
serialized trajectory agrees with the in-memory one exactly.
"""

from __future__ import annotations

import numpy as np

from .controls import Control
from .trajectory import gap_series, member_sums, per_member, state_gap


def energy_report(traj) -> dict:
    """sup |u|_H^4, sup |u|_V^2 and int |Delta_h u|_H^2 dt."""
    s = traj.series
    h_sq, v_sq, lap_sq = (np.atleast_2d(a) for a in (s.h_sq, s.v_sq, s.lap_sq))
    # squared as Python floats, whose pow can round unlike numpy's x * x
    sup_h4 = [top ** 2 for top in h_sq.max(axis=1).tolist()]
    values = {"sup_H4": np.array(sup_h4), "sup_V2": v_sq.max(axis=1),
              "int_H2": member_sums(lap_sq[:, :-1]) * traj.dt}
    chunk = traj.states.ndim == 4
    return {name: per_member(chunk, v) for name, v in values.items()}


def penetration_report(traj) -> dict:
    """How far the run leaves the domain, and how hard the penalty works.

    sup_pen_H / sup_pen_Linf track the raw penetration |u - pi(u)| (these
    should vanish like 1/n_pen); the n- and n^2-weighted integrals and the
    reflection-measure mass are the quantities that stay bounded uniformly
    in n_pen.  When a run was loaded without its measure, the total
    variation falls back to the series quadrature
    n_pen * int |u - pi(u)|_{L1} dt, which is the same sum reordered.
    """
    s = traj.series
    pen_h, pen_l1, pen_linf, pen_gamma, h_sq = (
        np.atleast_2d(a) for a in (s.pen_h, s.pen_l1, s.pen_linf,
                                   s.pen_gamma, s.h_sq))
    dt = traj.dt
    n = np.array(traj.n_pen, dtype=float, ndmin=1)
    n_l1 = n * member_sums(pen_l1[:, :-1]) * dt
    if traj.measure is not None:
        eta_tv = np.atleast_1d(traj.measure.total_variation)
    elif "eta_total_variation" in traj.meta:
        eta_tv = np.array([float(traj.meta["eta_total_variation"])])
    else:
        eta_tv = n_l1
    values = {
        "sup_pen_H": pen_h.max(axis=1),
        "sup_pen_Linf": pen_linf.max(axis=1),
        "n_l1_integral": n_l1,
        "n2_h2_integral": n * n * member_sums(pen_h[:, :-1] ** 2) * dt,
        "eta_total_variation": eta_tv,
        "n_weighted_energy_integral":
            n * member_sums(h_sq[:, :-1] * pen_gamma[:, :-1]) * dt,
    }
    chunk = traj.states.ndim == 4
    return {name: per_member(chunk, v) for name, v in values.items()}


def weighted_distance(a, b, lam: float) -> dict:
    """Exponentially discounted distance between runs or chunks a and b
    (a run against a chunk is compared with each of its members).

    The weight
        psi(t_k) = exp(-lam * sum_{i<k} (|u_a(t_i)|_V^2 + |u_b(t_i)|_V^2) dt)
    starts at 1 and is non-increasing, discounting late-time separation by
    the accumulated gradient energy of both runs.  Returns the weighted
    sup of |u_a - u_b|_H^2 and the weighted integral of |u_a - u_b|_V^2.
    """
    if lam < 0.0:
        raise ValueError("the discount rate lam must be non-negative")
    h, v = gap_series(a, b)
    dt = a.dt
    burden = np.atleast_2d(a.series.v_sq + b.series.v_sq)
    # psi[k] discounts by the energy of steps strictly before t_k.
    spent = np.zeros_like(burden)
    np.cumsum(burden[:, :-1], axis=1, out=spent[:, 1:])
    psi = np.exp(-lam * dt * spent)
    chunk = max(a.states.ndim, b.states.ndim) == 4
    return {
        "weighted_sup": per_member(chunk, (psi * h).max(axis=1)),
        "weighted_int": per_member(
            chunk, member_sums(psi[:, :-1] * v[:, :-1]) * dt),
    }


def estimate_report(traj) -> dict:
    """Every estimate of a run or chunk: energy_report merged with
    penetration_report."""
    return {**energy_report(traj), **penetration_report(traj)}


def continuity_experiment(coeffs, domain, gamma, u0, family, limit: Control,
                          dt: float, T: float, n_start: float = 16.0,
                          factor: float = 2.0, n_max: float = 1024.0,
                          tol_cauchy: float = 1e-6) -> list:
    """Distance from skeleton(h_r) to skeleton(h) for a family of controls.

    ``family`` is a list of (label, Control) pairs.  Every control must
    share the limit's step count so all runs land on one time grid; each
    run is a full penalty sweep.  One row per member: its label,
    cm_gap_sq = |h_r - h|_CM^2 between the controls themselves,
    gap_H = sup_t |u_r - u|_H^2, gap_V = int |u_r - u|_V^2 dt, their sum
    rho_sq, and whether both sweeps reached their Cauchy tolerance (rows
    of a sweep that did not are flagged rather than dropped).
    """
    from .solvers import SolverError, solve_skeleton

    for label, ctrl in family:
        if ctrl.K != limit.K or ctrl.values.shape[0] != limit.m:
            raise SolverError(
                f"control {label!r} is not on the limit control's grid")

    def sweep(ctrl):
        return solve_skeleton(coeffs, domain, gamma, u0, ctrl, dt=dt, T=T,
                              n_start=n_start, factor=factor, n_max=n_max,
                              tol_cauchy=tol_cauchy)

    base = sweep(limit)
    rows = []
    for label, ctrl in family:
        res = sweep(ctrl)
        gap_h, gap_v = state_gap(res.trajectory, base.trajectory)
        delta = ctrl.values - limit.values
        cm_gap = float(np.sum(delta * delta)) * limit.dt
        rows.append({"label": label, "cm_gap_sq": cm_gap, "gap_H": gap_h,
                     "gap_V": gap_v, "rho_sq": gap_h + gap_v,
                     "converged": res.converged and base.converged})
    return rows
