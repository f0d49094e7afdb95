"""Ten end-to-end checks, one per shipped claim, each printing a single
PASS/FAIL line with its headline numbers and its wall-clock budget.

Desk-scale but full-pipeline: the slowest tests (cold-start rate
minimization, the 4000-replica small-noise comparison) run for minutes.
`pytest -s tests/test_acceptance.py` shows the lines as they appear.
"""

import csv
import json
import math
import os
import time

import numpy as np
import pytest

from rspde.cli import main
from rspde.coefficients import make_coefficients
from rspde.controls import (constant_control, sine_control, tabulated_control,
                            zero_control)
from rspde.diagnostics import continuity_experiment
from rspde.fields import Field, SpatialGrid
from rspde.geometry import (Ball, Box, Intersection, ObliqueField, Polytope,
                            boundary_points, build_oblique_matrix,
                            exterior_points, interior_points)
from rspde.ldp import (EventSpec, ReplicaPlan, minimize_rate, rate_functional,
                       summarize_weighted, weighted_rows)
from rspde.solvers import (resolve_time_grid, sample_brownian,
                           solve_penalized_spde, solve_skeleton)
from rspde.trajectory import TrajectorySeries


def report(num, ok, detail, elapsed, budget):
    line = (f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {detail}  "
            f"[{elapsed:.1f}s / {budget:.0f}s]")
    print(line, flush=True)
    assert ok, line


def interval(radius):
    return Ball(center=[0.0], radius=radius)


def oblique(dom):
    return ObliqueField(dom, "normal")


def drift_sigma(c, s):
    return make_coefficients(1, 1, b={"name": "constant", "value": [c]},
                             sigma={"name": "constant", "matrix": [[s]]})


def test_criterion_01_geometry_suite():
    t0 = time.perf_counter()
    domains = [
        Ball(center=[0.3, -0.2], radius=1.1),
        Box(lower=[-1.0, -0.5, -0.3], upper=[0.5, 1.5, 2.0]),
        Polytope(normals=[[0.0, -1.0],
                          [math.sqrt(0.5), math.sqrt(0.5)],
                          [-math.sqrt(0.5), math.sqrt(0.5)]],
                 offsets=[0.5, 0.7, 0.7]),
        Intersection([Ball(center=[0.0, 0.0], radius=1.0),
                      Box(lower=[-0.8, -0.9], upper=[0.8, 0.9])]),
    ]
    per_c = 100_000 // len(domains)
    per_i = 10_000 // len(domains)
    contract = idem = convex = 0.0
    for s, dom in enumerate(domains):
        x = exterior_points(dom, per_c, seed=100 + s)
        y = exterior_points(dom, per_c, seed=200 + s)
        px, py = dom.project_many(x), dom.project_many(y)
        contract = max(contract, float(np.max(
            np.linalg.norm(px - py, axis=1) - np.linalg.norm(x - y, axis=1))))
        xi = exterior_points(dom, per_i, seed=300 + s)
        pxi = dom.project_many(xi)
        idem = max(idem, float(np.max(
            np.linalg.norm(dom.project_many(pxi) - pxi, axis=1))))
        yi = interior_points(dom, per_i, seed=400 + s)
        convex = max(convex, float(np.max(
            np.einsum("ij,ij->i", xi - pxi, yi - pxi))))
    align = 0.0
    theta_min = math.inf
    for s, dom in enumerate(domains):
        gam = (ObliqueField(dom, "rotated_normal", angle=0.3) if s == 0
               else ObliqueField(dom, "normal"))
        mat = build_oblique_matrix(dom, gam, samples=250, seed=500 + s)
        theta_min = min(theta_min, mat.theta_hat)
        pts, normals, _ = boundary_points(dom, 250, seed=500 + s)
        a_gamma = np.einsum("nde,ne->nd", mat.at_many(pts), gam.at_many(pts))
        align = max(align, float(np.max(np.linalg.norm(a_gamma - normals, axis=1))))
    el = time.perf_counter() - t0
    ok = (contract <= 1e-9 and idem <= 1e-7 and convex <= 1e-7
          and align <= 1e-9 and theta_min > 0.0 and el < 5.0)
    report(1, ok,
           f"contract {contract:.1e} idem {idem:.1e} convex {convex:.1e} "
           f"a*gamma-n {align:.1e} theta {theta_min:.3f}", el, 5.0)


def test_criterion_02_heat_kernel_oracle():
    t0 = time.perf_counter()
    dom = interval(100.0)
    gam = oblique(dom)
    coeffs = make_coefficients(1, 1, b={"name": "zero"},
                               sigma={"name": "zero"})
    dt, T = 1e-4, 0.1
    steps = round(T / dt)

    def run(J):
        grid = SpatialGrid(J, 1)
        vals = np.zeros((1, J))
        vals[0] = np.sin(np.pi * grid.xs)
        traj = solve_penalized_spde(coeffs, dom, gam, Field(grid, vals),
                                    n_pen=16.0, dt=dt, steps=steps,
                                    control=zero_control(T, 1))
        ks = np.arange(steps + 1)
        sine = np.sin(np.pi * grid.xs)[None, :]
        exact = np.exp(-np.pi**2 * ks * dt)[:, None] * sine
        # the same time discretization with the exact spatial eigenvalue
        # isolates the dx-driven part of the error
        semi = (1.0 + np.pi**2 * dt) ** (-ks.astype(float))
        total = float(np.max(np.abs(traj.states[:, 0, :] - exact)))
        spatial = float(np.max(np.abs(traj.states[:, 0, :] - semi[:, None] * sine)))
        return total, spatial

    total63, spatial63 = run(63)
    _, spatial127 = run(127)
    ratio = spatial63 / spatial127
    el = time.perf_counter() - t0
    ok = total63 <= 2e-3 and ratio >= 3.0 and el < 10.0
    report(2, ok, f"sup error {total63:.2e} <= 2e-3, dx-halving ratio "
                  f"{ratio:.2f} >= 3", el, 10.0)


@pytest.fixture(scope="module")
def drift_ladder():
    """One penalty ladder n = 4, 16, ..., 4096 for the outward-drift
    interval, shared by the decay and contraction checks.

    The spacing is four, not two: consecutive-member gaps peak near
    n = mu_1/sqrt(2) (mu_1 ~ pi^2 being the slowest restoring rate of the
    Laplacian), so a factor-2 ladder starting at n = 4 puts its first
    pair below that hump and the gap sequence is not monotone.  With
    factor 4 the first pair already clears it.
    """
    dom = interval(0.25)
    coeffs = make_coefficients(1, 1, b={"name": "constant", "value": [4.0]},
                               sigma={"name": "zero"})
    u0 = Field.zeros(SpatialGrid(31, 1))
    t0 = time.perf_counter()
    res = solve_skeleton(coeffs, dom, oblique(dom), u0,
                         zero_control(0.5, 1), dt=5e-4, T=0.5, n_start=4.0,
                         factor=4.0, n_max=4096.0, tol_cauchy=0.0)
    return res, time.perf_counter() - t0


def test_criterion_03_penetration_decay(drift_ladder):
    res, el = drift_ladder
    rows = res.rows
    ns = np.log([r["n_pen"] for r in rows])
    slope = float(np.polyfit(ns, np.log([r["sup_pen_H"] for r in rows]), 1)[0])
    l1 = [r["n_l1_integral"] for r in rows]
    h2 = [r["n2_h2_integral"] for r in rows]
    # uniform-bound reading: every member stays within 2x of the finest,
    # which is the best available proxy for the limiting reflection mass
    l1x = max(l1) / l1[-1]
    h2x = max(h2) / h2[-1]
    ok = slope <= -0.4 and l1x <= 2.0 and h2x <= 2.0 and el < 60.0
    report(3, ok, f"slope {slope:.3f} <= -0.4, n*L1 within {l1x:.2f}x, "
                  f"n^2*H2 within {h2x:.2f}x", el, 60.0)


def test_criterion_04_cauchy_contraction(drift_ladder):
    res, el = drift_ladder
    gaps = [r["cauchy_to_next"] for r in res.rows[:-1]]
    decreasing = all(a > b for a, b in zip(gaps, gaps[1:]))
    ok = decreasing and gaps[-1] < 1e-4
    report(4, ok, f"gaps strictly decreasing ({gaps[0]:.1e} -> "
                  f"{gaps[-1]:.1e} < 1e-4)", el, 60.0)


def test_criterion_05_zero_noise_identity():
    t0 = time.perf_counter()
    grid1 = SpatialGrid(15, 1)
    sine = np.zeros((1, 15))
    sine[0] = 0.2 * np.sin(np.pi * grid1.xs)
    box2 = Box(lower=[-0.4, -0.45], upper=[0.45, 0.4])
    cases = [
        (drift_sigma(4.0, 1.0), interval(0.25), Field(grid1, sine),
         sine_control(0.12, 1, 4, rate=1), 64.0, 0.12),
        (make_coefficients(2, 2,
                           b={"name": "linear",
                              "matrix": [[-0.5, 0.2], [0.1, -0.3]]},
                           sigma={"name": "diag_affine",
                                  "base": [0.3, 0.2], "slope": [0.5, -0.4]}),
         Intersection([Ball(center=[0.0, 0.0], radius=0.5), box2]),
         Field.zeros(SpatialGrid(9, 2)),
         constant_control(0.08, [0.4, -0.3], K=4), 32.0, 0.08),
        (make_coefficients(3, 2, b={"name": "zero"},
                           sigma={"name": "constant",
                                  "matrix": [[1.0, 0.0], [0.0, 0.5],
                                             [0.25, 0.25]]}),
         Box(lower=[-0.3, -0.3, -0.3], upper=[0.3, 0.3, 0.3]),
         Field.zeros(SpatialGrid(7, 3)),
         tabulated_control(0.06, [[0.5, -0.2, 0.1], [0.0, 0.3, -0.4]]),
         16.0, 0.06),
    ]
    identical = 0
    for i, (coeffs, dom, u0, ctrl, n_pen, T) in enumerate(cases):
        gam = (ObliqueField(dom, "rotated_normal", angle=0.2)
               if dom.dim == 2 else oblique(dom))
        steps, dt = resolve_time_grid(T, 2e-3, n_pen, ctrl.K)
        noise = sample_brownian(coeffs.m, steps, dt, seed=77 + i)
        spde = solve_penalized_spde(coeffs, dom, gam, u0, n_pen=n_pen, dt=dt,
                                    steps=steps, epsilon=0.0, noise=noise,
                                    control=ctrl)
        skel = solve_penalized_spde(coeffs, dom, gam, u0, n_pen=n_pen, dt=dt,
                                    steps=steps, control=ctrl)
        same = spde.states.tobytes() == skel.states.tobytes()
        for name in TrajectorySeries.FIELDS:
            same = same and (getattr(spde.series, name).tobytes()
                             == getattr(skel.series, name).tobytes())
        same = same and (spde.measure.increments.tobytes()
                         == skel.measure.increments.tobytes())
        identical += same
    el = time.perf_counter() - t0
    ok = identical == len(cases)
    report(5, ok, f"eps=0 run equals skeleton bit-for-bit on "
                  f"{identical}/{len(cases)} configs", el, 60.0)


def test_criterion_06_continuity_of_the_limit_map():
    t0 = time.perf_counter()
    dom = interval(0.25)
    coeffs = make_coefficients(1, 1, b={"name": "zero"},
                               sigma={"name": "constant", "matrix": [[1.0]]})
    u0 = Field.zeros(SpatialGrid(31, 1))
    T, K = 1.0, 64
    family = [(f"r{r}", sine_control(T, 1, K, rate=r))
              for r in (1, 2, 4, 8, 16)]
    rows = continuity_experiment(coeffs, dom, oblique(dom), u0, family,
                                 zero_control(T, 1, K), dt=1e-3, T=T)
    el = time.perf_counter() - t0
    rho = [r["rho_sq"] for r in rows]
    mono = all(b <= 1.1 * a for a, b in zip(rho, rho[1:]))
    ok = all(r["converged"] for r in rows) and mono and el < 120.0
    report(6, ok, f"rho^2 falls {rho[0]:.2e} -> {rho[-1]:.2e} "
                  f"monotone within 10%", el, 120.0)


def test_criterion_07_planted_rate_bound():
    t0 = time.perf_counter()
    dom = interval(100.0)
    gam = oblique(dom)
    coeffs = make_coefficients(1, 1, b={"name": "zero"},
                               sigma={"name": "constant", "matrix": [[1.0]]})
    u0 = Field.zeros(SpatialGrid(15, 1))
    T, K = 0.25, 16
    planted = constant_control(T, [2.0], K=K)
    assert rate_functional(planted) == 0.5
    steps, dt = resolve_time_grid(T, 2e-3, 256.0, K)
    g = solve_penalized_spde(coeffs, dom, gam, u0, n_pen=256.0, dt=dt,
                             steps=steps, control=planted)
    gterm = math.sqrt(g.grid.dx * float(np.sum(g.states[-1] ** 2)))
    event = EventSpec(kind="terminal_ball", radius=0.98 * gterm,
                      complement=True)
    res = minimize_rate(coeffs, dom, gam, u0, event, T=T, K=K, dt=2e-3,
                        n_pen=256.0)
    el = time.perf_counter() - t0
    ok = res.feasible and res.rate <= 0.55 and el < 300.0
    report(7, ok, f"I* {res.rate:.3f} <= 0.55 for a planted candidate at "
                  f"0.5 (violation {res.violation:.1e})", el, 300.0)


def test_criterion_08_weighted_distance_trend():
    t0 = time.perf_counter()
    dom = interval(0.25)
    coeffs = drift_sigma(4.0, 1.0)
    u0 = Field.zeros(SpatialGrid(15, 1))
    epsilons = (1.0, 0.3, 0.1, 0.03)
    levels = weighted_rows(coeffs, dom, oblique(dom), u0,
                           sine_control(0.25, 1, 25, rate=1), epsilons,
                           ReplicaPlan(base_seed=20260823),
                           lam=1.0, n_pen=256.0, dt=2e-3, T=0.25, start=0,
                           stop=50)
    rows = summarize_weighted(epsilons, levels, 50)
    el = time.perf_counter() - t0
    sups = [r["mean_weighted_sup"] for r in rows]
    ok = (all(a >= b for a, b in zip(sups, sups[1:]))
          and sups[-1] <= 0.1 * sups[0] and el < 300.0)
    report(8, ok, f"mean weighted sup non-increasing, final/initial "
                  f"{sups[-1] / sups[0]:.3f} <= 0.1", el, 300.0)


SMALL_NOISE = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                           "small_noise.json")


def test_criterion_09_small_noise_trend(tmp_path):
    # configs/small_noise.json: free interval, additive noise, and a
    # terminal-ball exit event whose radius puts the minimal rate for its
    # grid (J=15, T=0.25, dt=1/512) at 0.4
    t0 = time.perf_counter()
    out = str(tmp_path / "cmp")
    assert main(["ldp-compare", "--config", SMALL_NOISE, "--out", out,
                 "--workers", "2", "--quiet"]) == 0
    with open(os.path.join(out, "rate.json")) as fh:
        rate = json.load(fh)
    with open(os.path.join(out, "comparison.csv")) as fh:
        rows = list(csv.DictReader(fh))
    el = time.perf_counter() - t0
    i_star = rate["I_star"]
    negs = [float(r["neg_eps_log_p"]) for r in rows]
    gaps = [abs(a - i_star) for a in negs]
    ldp1 = [float(r["ldp1_prob"]) for r in rows]
    ok = (rate["feasible"] and len(rows) == 3
          and all(map(math.isfinite, negs))
          and all(b < a for a, b in zip(gaps, gaps[1:]))
          and gaps[-1] <= 0.5 * i_star
          and all(a >= b for a, b in zip(ldp1, ldp1[1:]))
          and el < 600.0)
    report(9, ok, f"-eps log p {negs[0]:.3f} -> {negs[-1]:.3f} toward I* "
                  f"{i_star:.3f} (gap {gaps[-1] / i_star:.0%}), ldp1 "
                  f"{ldp1[0]:.2f} -> {ldp1[-1]:.2f}", el, 600.0)


FULL_CONFIG = {
    "domain": {"kind": "ball", "center": [0.0], "radius": 0.25},
    "gamma": {"rule": "normal"},
    "coefficients": {
        "d": 1, "m": 1,
        "b": {"name": "constant", "value": [4.0]},
        "sigma": {"name": "constant", "matrix": [[1.0]]},
    },
    "u0": {"kind": "zero"},
    "grid": {"J": 15, "dt": 2e-3, "T": 0.12},
    "penalty": {"n_event": 64.0,
                "sweep": {"n_start": 8.0, "n_max": 64.0, "tol_cauchy": 0.0}},
    "replicas": {"base_seed": 11, "count": 20},
    "epsilons": [0.5, 0.2],
    "control": {"kind": "sine", "rate": 1, "K": 8},
    "control_family": {"kind": "sine_rates", "rates": [1, 2], "K": 8},
    "event": {"kind": "terminal_ball", "radius": 0.05, "complement": True},
    "rate": {"K": 4, "max_iters": 20},
    "weighted": {"lam": 1.0},
    "validation": {"samples": 500},
}


def test_criterion_10_pipeline_determinism(tmp_path):
    t0 = time.perf_counter()
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(FULL_CONFIG))
    outs = [str(tmp_path / "run1"), str(tmp_path / "run2")]
    for out in outs:
        assert main(["all", "--config", str(cfg), "--out", out,
                     "--quiet"]) == 0

    def tree(root):
        files = {}
        for dirpath, _, names in os.walk(root):
            for name in names:
                full = os.path.join(dirpath, name)
                files[os.path.relpath(full, root)] = full
        return files

    t1, t2 = tree(outs[0]), tree(outs[1])
    mismatched = sorted(set(t1) ^ set(t2))
    for rel in sorted(set(t1) & set(t2)):
        with open(t1[rel], "rb") as fh:
            da = fh.read()
        with open(t2[rel], "rb") as fh:
            db = fh.read()
        if os.path.basename(rel) == "manifest.json":
            ja, jb = json.loads(da), json.loads(db)
            for key in ("started_unix", "wall_time_seconds"):
                ja.pop(key, None)
                jb.pop(key, None)
            if ja != jb:
                mismatched.append(rel)
        elif da != db:
            mismatched.append(rel)
    el = time.perf_counter() - t0
    ok = not mismatched
    report(10, ok, f"{len(t1)} files byte-identical across two `all` runs"
           + (f"; mismatches {mismatched}" if mismatched else ""), el, 600.0)
