"""Reports of the a-priori estimates, all computed on the solver's grid.

Each report is a plain dict of floats so it can be merged into a JSON
document without ceremony.  Quantities that bound expectations in the
continuum (fourth-moment energy, penalty work, reflection mass) are
reported per trajectory (``estimate_report`` merges them); the weighted
distance compares two trajectories on the same grid, as does the Cauchy
gap ``trajectory.state_gap``.

Left-endpoint quadrature is used for every time integral, matching the
explicit terms of the stepping scheme, so a report recomputed from a
serialized trajectory agrees with the in-memory one exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .controls import Control
from .trajectory import Trajectory, state_gap


def energy_report(traj: Trajectory) -> dict:
    """sup |u|_H^4, sup |u|_V^2 and int |Delta_h u|_H^2 dt."""
    s = traj.series
    return {
        "sup_H4": float(np.max(s.h_sq)) ** 2,
        "sup_V2": float(np.max(s.v_sq)),
        "int_H2": float(np.sum(s.lap_sq[:-1])) * traj.dt,
    }


def penetration_report(traj: Trajectory) -> dict:
    """How far the run leaves the domain, and how hard the penalty works.

    sup_pen_H / sup_pen_Linf track the raw penetration |u - pi(u)| (these
    should vanish like 1/n_pen); the n- and n^2-weighted integrals and the
    reflection-measure mass are the quantities that stay bounded uniformly
    in n_pen.  When the trajectory was loaded without its measure, the
    total variation falls back to the series quadrature
    n_pen * int |u - pi(u)|_{L1} dt, which is the same sum reordered.
    """
    s = traj.series
    dt = traj.dt
    n = traj.n_pen
    if traj.measure is not None:
        eta_tv = traj.measure.total_variation
    elif "eta_total_variation" in traj.meta:
        eta_tv = float(traj.meta["eta_total_variation"])
    else:
        eta_tv = n * float(np.sum(s.pen_l1[:-1])) * dt
    return {
        "sup_pen_H": float(np.max(s.pen_h)),
        "sup_pen_Linf": float(np.max(s.pen_linf)),
        "n_l1_integral": n * float(np.sum(s.pen_l1[:-1])) * dt,
        "n2_h2_integral": n * n * float(np.sum(s.pen_h[:-1] ** 2)) * dt,
        "eta_total_variation": eta_tv,
        "n_weighted_energy_integral":
            n * float(np.sum(s.h_sq[:-1] * s.pen_gamma[:-1])) * dt,
    }


def weighted_distance(a: Trajectory, b: Trajectory, lam: float) -> dict:
    """Exponentially discounted distance between two runs.

    The weight
        psi(t_k) = exp(-lam * sum_{i<k} (|u_a(t_i)|_V^2 + |u_b(t_i)|_V^2) dt)
    starts at 1 and is non-increasing, discounting late-time separation by
    the accumulated gradient energy of both runs.  Returns the weighted
    sup of |u_a - u_b|_H^2 and the weighted integral of |u_a - u_b|_V^2.
    """
    if lam < 0.0:
        raise ValueError("the discount rate lam must be non-negative")
    if a.states.shape != b.states.shape or a.dt != b.dt:
        raise ValueError("weighted_distance needs identical grids and time steps")
    from .fields import sup_series, v_series

    dt = a.dt
    burden = a.series.v_sq + b.series.v_sq
    # psi[k] discounts by the energy of steps strictly before t_k.
    psi = np.exp(-lam * dt * np.concatenate(([0.0], np.cumsum(burden[:-1]))))
    diff = a.states - b.states
    h = sup_series(diff, a.grid.dx)
    v = v_series(diff, a.grid.dx)
    return {
        "weighted_sup": float(np.max(psi * h)),
        "weighted_int": float(np.sum(psi[:-1] * v[:-1])) * dt,
    }


def estimate_report(traj: Trajectory) -> dict:
    """Every single-run estimate: energy_report merged with
    penetration_report."""
    return {**energy_report(traj), **penetration_report(traj)}


@dataclass
class ContinuityRow:
    """One member of a control family compared against the limit run."""

    label: str
    cm_gap_sq: float   # |h_r - h|_CM^2 between the controls themselves
    gap_H: float       # sup_t |u_r - u|_H^2
    gap_V: float       # int |u_r - u|_V^2 dt
    converged: bool    # penalty sweep of this member hit its tolerance

    @property
    def rho_sq(self) -> float:
        return self.gap_H + self.gap_V


def continuity_experiment(coeffs, domain, gamma, u0, family, limit: Control,
                          dt: float, T: float, n_start: float = 16.0,
                          factor: float = 2.0, n_max: float = 1024.0,
                          tol_cauchy: float = 1e-6) -> list:
    """Distance from skeleton(h_r) to skeleton(h) for a family of controls.

    ``family`` is a list of (label, Control) pairs.  Every control must
    share the limit's step count so all runs land on one time grid; each
    run is a full penalty sweep and rows coming from a sweep that did not
    reach its Cauchy tolerance are flagged rather than dropped.
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
        rows.append(ContinuityRow(label=label, cm_gap_sq=cm_gap,
                                  gap_H=gap_h, gap_V=gap_v,
                                  converged=res.converged and base.converged))
    return rows
