"""The benchmark's workloads: the config each one generates from its seed,
the subcommand it runs, and the check its outputs must pass.

The seed reaches the program only through ``replicas.base_seed``.  On
``mc-free-1d`` it picks the Brownian paths; on the other two it changes
nothing the solve reads, so their inputs are the same for every seed.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np

import reference

# mc-free-1d: one small noise level and a threshold on the terminal mean
# that the reference law puts near 9%, about 18 hits per call.  The
# estimate must fall within 5 standard errors of the reference, the
# standard error taken under the reference law: the estimate's own
# (Wald) error is unreliable at this size, and with it a correct program
# would fail on about 1 seed in 360; this way it fails on 1 in 200,000.
MC_EPSILON = 0.01
MC_LEVEL = 0.025
MC_REPLICAS = 200
MC_TOLERANCE_SE = 5.0

# rate-free-1d: the model and terminal-ball event of configs/small_noise.json
# on a coarser control grid, with a shorter stall window and two penalty
# stages so one solve-heavy run lasts a few seconds.
RATE_DELTA = 0.17982651009675618
RATE_K = 4
RATE_OPTIONS = {"K": RATE_K, "mu_schedule": [1e2, 1e4], "stag_window": 10}
RATE_REL_TOL = 1e-3

# sweep-oblique-2d: Ball(0, 0.5) cut by an off-centre box; the drift
# points into the corner the ball cuts off.
SWEEP_RADIUS = 0.5
SWEEP_LOWER = [-0.4, -0.45]
SWEEP_UPPER = [0.45, 0.4]
SWEEP_LADDER = [4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0]
SWEEP_PEN_TOL = 1e-8


class CheckFailed(Exception):
    """An output that disagrees with the reference."""


def _free_interval(seed: int, dt: float, count: int) -> dict:
    return {
        "domain": {"kind": "ball", "center": [0.0], "radius": 100.0},
        "gamma": {"rule": "normal"},
        "coefficients": {"d": 1, "m": 1, "b": {"name": "zero"},
                         "sigma": {"name": "constant", "matrix": [[1.0]]}},
        "u0": {"kind": "zero"},
        "grid": {"J": 15, "dt": dt, "T": 0.25},
        "penalty": {"n_event": 256.0},
        "replicas": {"base_seed": seed, "count": count},
    }


def mc_config(seed: int) -> dict:
    raw = _free_interval(seed, 1.0 / 512.0, MC_REPLICAS)
    raw["epsilons"] = [MC_EPSILON]
    raw["event"] = {"kind": "functional_threshold",
                    "functional": "terminal_mean", "level": MC_LEVEL}
    return raw


def rate_config(seed: int) -> dict:
    raw = _free_interval(seed, 2e-3, 1)
    raw["event"] = {"kind": "terminal_ball", "radius": RATE_DELTA,
                    "complement": True}
    raw["rate"] = dict(RATE_OPTIONS)
    return raw


def sweep_config(seed: int) -> dict:
    return {
        "domain": {"kind": "intersection", "members": [
            {"kind": "ball", "center": [0.0, 0.0], "radius": SWEEP_RADIUS},
            {"kind": "box", "lower": SWEEP_LOWER, "upper": SWEEP_UPPER}]},
        "gamma": {"rule": "rotated_normal", "angle": 0.2},
        "coefficients": {"d": 2, "m": 2,
                         "b": {"name": "constant", "value": [4.0, 3.0]},
                         "sigma": {"name": "zero"}},
        "u0": {"kind": "zero"},
        "grid": {"J": 31, "dt": 5e-4, "T": 0.5},
        "penalty": {"sweep": {"n_start": SWEEP_LADDER[0], "factor": 4.0,
                              "n_max": SWEEP_LADDER[-1], "tol_cauchy": 0.0}},
        "replicas": {"base_seed": seed, "count": 1},
    }


def _read_json(out: str, name: str) -> dict:
    with open(os.path.join(out, name), encoding="utf-8") as fh:
        return json.load(fh)


def _read_csv(out: str, name: str) -> list:
    with open(os.path.join(out, name), newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_mc(out: str, raw: dict) -> None:
    report = _read_json(out, "report.json")
    rows = _read_csv(out, "mc.csv")
    count = raw["replicas"]["count"]
    _require(len(rows) == count, f"mc.csv has {len(rows)} rows, expected {count}")
    _require(all(float(r["sup_pen_H"]) == 0.0 for r in rows),
             "a replica left the ball (sup_pen_H > 0)")
    hits = sum(int(r["event"]) for r in rows)
    _require(hits == report["hits"], "report hits disagree with mc.csv")
    grid = raw["grid"]
    steps, dt = reference.time_grid(grid["T"], grid["dt"],
                                    raw["penalty"]["n_event"])
    std = reference.terminal_mean_std(grid["J"], dt, steps, raw["epsilons"][0])
    p = reference.gaussian_tail(raw["event"]["level"], std)
    stderr = math.sqrt(p * (1.0 - p) / count)
    gap = abs(report["p_hat"] - p)
    _require(gap <= MC_TOLERANCE_SE * stderr,
             f"p_hat {report['p_hat']!r} is {gap:.4g} from the Gaussian "
             f"law's {p:.6g}, more than {MC_TOLERANCE_SE} standard errors "
             f"({stderr:.4g})")


def check_rate(out: str, raw: dict) -> None:
    res = _read_json(out, "rate.json")
    _require(res["feasible"] is True,
             f"rate run is infeasible (violation {res['violation']!r})")
    grid = raw["grid"]
    K = raw["rate"]["K"]
    steps, dt = reference.time_grid(grid["T"], grid["dt"],
                                    raw["penalty"]["n_event"], K)
    _require(res["steps"] == steps and res["control_K"] == K
             and abs(res["dt"] - dt) <= 1e-15,
             f"rate grid ({res['steps']}, {res['dt']!r}) != ({steps}, {dt!r})")
    reached = raw["event"]["radius"] - res["violation"]
    want = reference.closed_form_rate(grid["J"], dt, steps, K, grid["T"],
                                      reached)
    rel = abs(res["I_star"] - want) / want
    _require(rel <= RATE_REL_TOL,
             f"I* {res['I_star']!r} is {rel:.3g} from the closed form "
             f"{want!r} at radius {reached!r}")


def check_sweep(out: str, raw: dict) -> None:
    rows = _read_csv(out, "sweep.csv")
    ns = [float(r["n_pen"]) for r in rows]
    _require(ns == SWEEP_LADDER, f"sweep members {ns} != {SWEEP_LADDER}")
    pen = np.array([float(r["sup_pen_H"]) for r in rows])
    _require(bool(np.all(pen > 0)), "sup_pen_H is not positive on every member")
    slope = float(np.polyfit(np.log(ns), np.log(pen), 1)[0])
    _require(slope <= -0.4, f"sup_pen_H decays with slope {slope:.3f} > -0.4")

    gaps = np.array([float(r["cauchy_to_next"]) for r in rows[:-1]])
    top = int(np.argmax(gaps))
    tail = gaps[top:]
    _require(bool(np.all(np.diff(tail) < 0)),
             f"Cauchy gaps after the largest do not fall strictly: {tail}")
    _require(tail[-1] * 10.0 <= tail[0],
             f"last Cauchy gap {tail[-1]:.3g} is not 10x below {tail[0]:.3g}")

    mass = np.array([float(r["n_l1_integral"]) for r in rows])
    _require(bool(np.all(mass > 0) and np.all(mass <= 2.0 * mass[-1])),
             f"n * int |u - pi(u)|_L1 dt leaves 2x the finest member: {mass}")

    from rspde.trajectory import Trajectory

    traj = Trajectory.load(os.path.join(out, "trajectory"))
    _require(traj.n_pen == SWEEP_LADDER[-1], "saved trajectory is not the finest")
    _require(bool(np.all(np.isfinite(traj.states))),
             "saved trajectory is missing states")
    want = reference.penetration_h(traj.states, SWEEP_RADIUS, SWEEP_LOWER,
                                   SWEEP_UPPER)
    worst = float(np.max(np.abs(want - traj.series.pen_h)))
    _require(worst <= SWEEP_PEN_TOL,
             f"pen_h differs from the exact projection by {worst:.3g}")


@dataclass(frozen=True)
class Workload:
    subcommand: str
    make_config: object
    check: object


WORKLOADS = {
    "mc-free-1d": Workload("mc", mc_config, check_mc),
    "rate-free-1d": Workload("rate", rate_config, check_rate),
    "sweep-oblique-2d": Workload("penalty-sweep", sweep_config, check_sweep),
}

