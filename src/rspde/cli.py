"""Experiment runner: one config file in, one artifact directory out.

Every subcommand reads a schema-validated JSON config, writes its outputs
under --out with fixed names, and always leaves a manifest.json recording
the config hash, effective seed, library versions, wall time, and status
(also on failure paths: a config, geometry or solver error is mirrored
in error.json, and any other exception is recorded, then re-raised).  Floats
in JSON and CSV output go through repr(), and trajectory states are
written as exact float64 .npy arrays, so identical (config, seed) runs
produce byte-identical files; wall-time fields in the manifest are the
only exception.

Every P(event) estimate, of ``mc`` and of the ``ldp-compare`` table,
goes through ``_estimate``, and the ``weighted.csv`` replicas through
``_cmd_weighted``: both split the replica index range across --workers
processes (``_fan_out``) and merge the results in index order, so the
output does not depend on the worker count.  One run estimates each
(epsilon, time grid) pair once, so ``all`` reuses the comparison's
estimate for ``mc`` when the two grids agree.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import scipy

from . import __version__
from .config import ConfigError, ExperimentConfig
from .controls import zero_control
from .diagnostics import continuity_experiment, estimate_report
from .geometry import GeometryError, build_oblique_matrix, validate_oblique_field
from .ldp import (CompareRow, ReplicaRow, WeightedTrendRow, ldp_compare,
                  mc_rows, minimize_rate, summarize_rows, summarize_weighted,
                  weighted_rows)
from .solvers import (ReplicaPlan, SolverError, resolve_time_grid,
                      sample_brownian, solve_penalized_spde, solve_skeleton)

SUBCOMMANDS = ("validate-domain", "skeleton", "spde", "penalty-sweep",
               "cauchy", "continuity", "rate", "mc", "ldp-compare", "all")

SWEEP_HEADER = ("n_pen,sup_pen_H,n_l1_integral,n2_h2_integral,"
                "sup_H4,sup_V2,int_H2,cauchy_to_next")
CAUCHY_HEADER = "n_pen,n_next,cauchy_H,cauchy_V,cauchy_total"
CONTINUITY_HEADER = "label,cm_gap_sq,gap_H,gap_V,rho_sq,converged"


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _write_csv(path, header, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for line in lines:
            fh.write(line + "\n")


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


# -- subcommand bodies (each returns the list of files it wrote) -------


def _validation_report(cfg: ExperimentConfig, args, out: str) -> dict:
    """Certify the config's gamma, write the payload as report.json and
    return it; raise GeometryError (after writing) when it fails."""
    dom = cfg.build_domain()
    gamma = cfg.build_gamma(dom)
    val = cfg.validation
    seed = args.seed if args.seed is not None else val["seed"]
    tol = cfg.tolerances
    report = validate_oblique_field(dom, gamma, samples=val["samples"],
                                    seed=seed, rho_min=tol["rho_min"],
                                    delta_min=tol["delta_min"])
    payload = report.to_dict()
    payload["passed"] = report.passed
    if report.passed:
        matrix = build_oblique_matrix(dom, gamma)
        payload["theta_hat"] = float(matrix.theta_hat)
    _write_json(os.path.join(out, "report.json"), payload)
    _say(args, f"validate-domain: rho_hat={payload['rho_hat']!r} "
               f"delta_hat={payload['delta_hat']!r} passed={report.passed}")
    if not report.passed:
        raise GeometryError(
            f"oblique field validation failed: {payload['violations']}")
    return payload


def _cmd_validate_domain(cfg: ExperimentConfig, args, out: str) -> list:
    _validation_report(cfg, args, out)
    return ["report.json"]


def _solver_pieces(cfg: ExperimentConfig):
    dom = cfg.build_domain()
    return cfg.build_coefficients(), dom, cfg.build_gamma(dom), cfg.build_u0()


def _cmd_solve(cfg: ExperimentConfig, args, out: str) -> list:
    """One penalized solve at n_event: ``skeleton`` is noise-free
    (epsilon = 0), ``spde`` runs at the first epsilon on replica 0's
    Brownian path."""
    coeffs, dom, gamma, u0 = _solver_pieces(cfg)
    control = cfg.build_control()
    ctl_K = control.K if control is not None else 1
    steps, dt = resolve_time_grid(cfg.T, cfg.dt, cfg.n_event, ctl_K)
    eps, noise = 0.0, None
    if args.subcommand == "spde":
        eps = cfg.epsilons[0]
        noise = sample_brownian(coeffs.m, steps, dt,
                                ReplicaPlan(base_seed=args.base_seed,
                                            count=1).seed_for(0))
    traj = solve_penalized_spde(coeffs, dom, gamma, u0, n_pen=cfg.n_event,
                                dt=dt, steps=steps, epsilon=eps, noise=noise,
                                control=control, stride=cfg.snapshot_stride)
    traj.save(os.path.join(out, "trajectory"))
    _write_json(os.path.join(out, "report.json"), estimate_report(traj))
    _say(args, f"{args.subcommand}: epsilon={eps!r}, {steps} steps at "
               f"dt={dt!r}, n_pen={cfg.n_event!r}")
    return ["report.json", "trajectory"]


def _run_sweep(cfg: ExperimentConfig):
    coeffs, dom, gamma, u0 = _solver_pieces(cfg)
    control = cfg.build_control()
    if control is None:
        control = zero_control(cfg.T, coeffs.m)
    sw = cfg.sweep
    return solve_skeleton(coeffs, dom, gamma, u0, control, dt=cfg.dt,
                          T=cfg.T, n_start=sw["n_start"], factor=sw["factor"],
                          n_max=sw["n_max"], tol_cauchy=sw["tol_cauchy"],
                          stride=cfg.snapshot_stride)


def _sweep_lines(rows) -> list:
    return [f"{r.n_pen!r},{r.sup_pen_H!r},{r.n_times_l1_integral!r},"
            f"{r.n2_times_h2_integral!r},{r.sup_H4!r},{r.sup_V2!r},"
            f"{r.int_H2!r},{r.cauchy_to_next!r}" for r in rows]


def _emit_sweep(res, out: str) -> dict:
    _write_csv(os.path.join(out, "sweep.csv"), SWEEP_HEADER,
               _sweep_lines(res.rows))
    res.trajectory.save(os.path.join(out, "trajectory"))
    return {"converged": res.converged, "tol_cauchy": res.tol_cauchy,
            "final_cauchy": res.final_cauchy,
            "members": [r.n_pen for r in res.rows],
            **estimate_report(res.trajectory)}


def _emit_cauchy(res, out: str) -> dict:
    lines = []
    for cur, nxt in zip(res.rows[:-1], res.rows[1:]):
        lines.append(f"{cur.n_pen!r},{nxt.n_pen!r},{cur.cauchy_H_to_next!r},"
                     f"{cur.cauchy_V_to_next!r},{cur.cauchy_to_next!r}")
    _write_csv(os.path.join(out, "cauchy.csv"), CAUCHY_HEADER, lines)
    return {"converged": res.converged, "tol_cauchy": res.tol_cauchy,
            "final_cauchy": res.final_cauchy,
            "members": [r.n_pen for r in res.rows]}


def _cmd_penalty_sweep(cfg: ExperimentConfig, args, out: str) -> list:
    res = _run_sweep(cfg)
    _write_json(os.path.join(out, "report.json"), _emit_sweep(res, out))
    _say(args, f"penalty-sweep: {len(res.rows)} members, "
               f"converged={res.converged}")
    return ["report.json", "sweep.csv", "trajectory"]


def _cmd_cauchy(cfg: ExperimentConfig, args, out: str) -> list:
    res = _run_sweep(cfg)
    _write_json(os.path.join(out, "report.json"), _emit_cauchy(res, out))
    _say(args, f"cauchy: final gap {res.final_cauchy!r} "
               f"(tol {res.tol_cauchy!r})")
    return ["cauchy.csv", "report.json"]


def _cmd_continuity(cfg: ExperimentConfig, args, out: str) -> list:
    coeffs, dom, gamma, u0 = _solver_pieces(cfg)
    family = cfg.build_control_family()
    if not family:
        raise ConfigError("continuity needs a 'control_family' section")
    limit = cfg.build_control()
    if limit is None:
        limit = zero_control(cfg.T, coeffs.m, K=family[0][1].K)
    sw = cfg.sweep
    rows = continuity_experiment(coeffs, dom, gamma, u0, family, limit,
                                 dt=cfg.dt, T=cfg.T, n_start=sw["n_start"],
                                 factor=sw["factor"], n_max=sw["n_max"],
                                 tol_cauchy=sw["tol_cauchy"])
    lines = [f"{r.label},{r.cm_gap_sq!r},{r.gap_H!r},{r.gap_V!r},"
             f"{r.rho_sq!r},{int(r.converged)}" for r in rows]
    _write_csv(os.path.join(out, "continuity.csv"), CONTINUITY_HEADER, lines)
    _say(args, f"continuity: {len(rows)} family members")
    return ["continuity.csv"]


def _compute_rate(cfg: ExperimentConfig, out: str, coeffs, dom, gamma, u0):
    """Minimize the action for the config's event and write rate.json."""
    event = cfg.build_event()
    if event is None:
        raise ConfigError("this subcommand needs an 'event' section")
    opts = cfg.rate_options
    res = minimize_rate(coeffs, dom, gamma, u0, event, T=cfg.T, K=opts["K"],
                        dt=cfg.dt, n_pen=cfg.n_event, fd_step=opts["fd_step"],
                        max_iters=opts["max_iters"], feas_tol=opts["feas_tol"],
                        max_dim=opts["max_dim"])
    payload = res.to_dict()
    payload["event"] = event.describe()
    _write_json(os.path.join(out, "rate.json"), payload)
    return res


def _cmd_rate(cfg: ExperimentConfig, args, out: str) -> list:
    res = _compute_rate(cfg, out, *_solver_pieces(cfg))
    _say(args, f"rate: I*={res.rate!r} feasible={res.feasible}")
    return ["rate.json"]


def _mc_chunk(payload):
    """Worker body: rebuild the model from the raw config and run a
    contiguous replica range on the time grid (n_pen, dt, steps).
    Module-level so it pickles."""
    raw, seed, eps, (n_pen, dt, steps), start, stop = payload
    cfg = ExperimentConfig.from_dict(raw)
    coeffs, dom, gamma, u0 = _solver_pieces(cfg)
    plan = ReplicaPlan(base_seed=seed, count=cfg.replica_count)
    return mc_rows(coeffs, dom, gamma, u0, cfg.build_event(), eps, n_pen, dt,
                   steps, plan, start, stop)


def _fan_out(body, cfg: ExperimentConfig, args, count: int, *params) -> list:
    """body((raw config, base seed, *params, lo, hi)) of each of the
    --workers contiguous ranges [lo, hi) that split the replica indices
    [0, count), in index order; each range runs in its own process when
    there are several workers."""
    workers = max(1, args.workers)
    bounds = [count * i // workers for i in range(workers + 1)]
    payloads = [(cfg.raw, args.base_seed, *params, lo, hi)
                for lo, hi in zip(bounds[:-1], bounds[1:]) if lo < hi]
    if workers == 1:
        return list(map(body, payloads))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(body, payloads))


def _estimate(cfg: ExperimentConfig, args, eps, grid, estimates: dict):
    """P(event) at noise level eps on the time grid (n_pen, dt, steps),
    with the replica range fanned out over --workers processes.  Each
    (eps, grid) pair is computed once per ``estimates`` dict, which lives
    for one run."""
    key = (eps, grid)
    if key in estimates:
        return estimates[key]
    count = cfg.replica_count
    chunks = _fan_out(_mc_chunk, cfg, args, count, eps, grid)
    estimates[key] = summarize_rows([r for c in chunks for r in c], count)
    return estimates[key]


def _emit_mc(cfg: ExperimentConfig, args, out: str, estimates=None) -> dict:
    if cfg.build_event() is None:
        raise ConfigError("mc needs an 'event' section")
    eps = cfg.epsilons[0]
    steps, dt = resolve_time_grid(cfg.T, cfg.dt, cfg.n_event, 1)
    res = _estimate(cfg, args, eps, (cfg.n_event, dt, steps),
                    {} if estimates is None else estimates)
    _write_csv(os.path.join(out, "mc.csv"), ReplicaRow.CSV_HEADER,
               [r.csv_line() for r in res.rows])
    _say(args, f"mc: p_hat={res.p_hat!r} +- {res.stderr!r} "
               f"({res.hits}/{res.replicas} hits)")
    return {"epsilon": eps, "seed": args.base_seed, **res.to_dict()}


def _cmd_mc(cfg: ExperimentConfig, args, out: str) -> list:
    fragment = _emit_mc(cfg, args, out)
    _write_json(os.path.join(out, "report.json"), fragment)
    return ["mc.csv", "report.json"]


def _emit_compare(cfg: ExperimentConfig, args, out: str,
                  estimates=None) -> list:
    """Rate minimization plus the across-epsilon table, estimated on the
    rate's time grid; writes rate.json and comparison.csv."""
    coeffs, dom, gamma, u0 = _solver_pieces(cfg)
    rate = _compute_rate(cfg, out, coeffs, dom, gamma, u0)
    grid = (rate.n_pen, rate.dt, rate.steps)
    estimates = {} if estimates is None else estimates
    ldp1 = cfg.ldp1
    rows = ldp_compare(coeffs, dom, gamma, u0, rate,
                       [(eps, _estimate(cfg, args, eps, grid, estimates))
                        for eps in cfg.epsilons],
                       base_seed=args.base_seed, ldp1_delta_sq=ldp1["delta_sq"],
                       ldp1_replicas=ldp1["replicas"])
    _write_csv(os.path.join(out, "comparison.csv"), CompareRow.CSV_HEADER,
               [r.csv_line() for r in rows])
    _say(args, "ldp-compare: " + " ".join(
        f"eps={r.epsilon!r}:{r.neg_eps_log_p!r}" for r in rows))
    return ["rate.json", "comparison.csv"]


def _weighted_plan(cfg: ExperimentConfig, seed: int) -> tuple:
    """The weighted trend's noise levels and replica plan."""
    w = cfg.weighted
    return (w.get("epsilons", cfg.epsilons),
            ReplicaPlan(base_seed=seed, count=w.get("replicas", cfg.replica_count)))


def _weighted_chunk(payload):
    """Worker body: rebuild the model from the raw config and return the
    weighted distances of a contiguous replica range at every noise level.
    Module-level so it pickles."""
    raw, seed, start, stop = payload
    cfg = ExperimentConfig.from_dict(raw)
    coeffs, dom, gamma, u0 = _solver_pieces(cfg)
    epsilons, plan = _weighted_plan(cfg, seed)
    return weighted_rows(coeffs, dom, gamma, u0, cfg.build_control(),
                         epsilons, plan, lam=cfg.weighted["lam"],
                         n_pen=cfg.n_event, dt=cfg.dt, T=cfg.T, start=start,
                         stop=stop)


def _cmd_weighted(cfg: ExperimentConfig, args, out: str) -> list:
    if cfg.build_control() is None:
        return []
    epsilons, plan = _weighted_plan(cfg, args.base_seed)
    parts = _fan_out(_weighted_chunk, cfg, args, plan.count)
    levels = [[w for part in parts for w in part[e]]
              for e in range(len(epsilons))]
    rows = summarize_weighted(epsilons, levels, plan.count)
    _write_csv(os.path.join(out, "weighted.csv"), WeightedTrendRow.CSV_HEADER,
               [r.csv_line() for r in rows])
    _say(args, f"weighted: {len(rows)} noise levels")
    return ["weighted.csv"]


def _cmd_all(cfg: ExperimentConfig, args, out: str) -> list:
    """Every stage the config supports, sharing one report.json with a
    section per stage (one penalty sweep feeding both CSV views, and one
    Monte Carlo estimate per (epsilon, time grid) pair)."""
    report = {"validate_domain": _validation_report(cfg, args, out)}
    res = _run_sweep(cfg)
    report["penalty_sweep"] = _emit_sweep(res, out)
    report["cauchy"] = _emit_cauchy(res, out)
    outputs = {"sweep.csv", "cauchy.csv", "trajectory"}
    if cfg.raw.get("control_family"):
        outputs |= set(_cmd_continuity(cfg, args, out))
    if cfg.raw.get("control"):
        outputs |= set(_cmd_weighted(cfg, args, out))
    if cfg.raw.get("event") is not None:
        estimates = {}
        report["mc"] = _emit_mc(cfg, args, out, estimates)
        outputs.add("mc.csv")
        if "rate" in cfg.raw:
            outputs |= set(_emit_compare(cfg, args, out, estimates))
    _write_json(os.path.join(out, "report.json"), report)
    outputs.add("report.json")
    return sorted(outputs)


_HANDLERS = {
    "validate-domain": _cmd_validate_domain,
    "skeleton": _cmd_solve,
    "spde": _cmd_solve,
    "penalty-sweep": _cmd_penalty_sweep,
    "cauchy": _cmd_cauchy,
    "continuity": _cmd_continuity,
    "rate": _cmd_rate,
    "mc": _cmd_mc,
    "ldp-compare": _emit_compare,
    "all": _cmd_all,
}


def _nonnegative_int(text: str) -> int:
    """argparse type of --seed: the schema's base_seed >= 0, checked when
    the arguments are parsed."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The runner's argument parser, built once per process; parsing does
    not change it, so every ``main`` call shares it."""
    parser = argparse.ArgumentParser(
        prog="rspde",
        description="Penalized reflected SPDE laboratory: run experiments "
                    "from a JSON config into an output directory.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to config JSON")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--workers", type=int, default=os.cpu_count() or 1)
        p.add_argument("--seed", type=_nonnegative_int, default=None,
                       help="override the config's base seed (an integer >= 0)")
        p.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as err:
        return err.code if err.code is not None else 2

    out = args.out
    os.makedirs(out, exist_ok=True)
    started = time.time()
    manifest = {
        "subcommand": args.subcommand,
        "config_hash": None,
        "seed": args.seed,
        "versions": {"python": sys.version.split()[0],
                     "numpy": np.__version__, "scipy": scipy.__version__,
                     "rspde": __version__},
        "status": "ok",
        "outputs": [],
        "started_unix": started,
        "wall_time_seconds": None,
    }
    code = 0
    try:
        cfg = ExperimentConfig.from_file(args.config)
        manifest["config_hash"] = cfg.config_hash()
        # the run's base seed, which validate-domain does not use: it
        # falls back to validation.seed instead
        args.base_seed = manifest["seed"] = (
            cfg.base_seed if args.seed is None else args.seed)
        outputs = _HANDLERS[args.subcommand](cfg, args, out)
        manifest["outputs"] = sorted(set(outputs))
    except (ConfigError, GeometryError, SolverError, OSError, ValueError) as err:
        manifest["status"] = "error"
        manifest["error"] = f"{type(err).__name__}: {err}"
        _write_json(os.path.join(out, "error.json"),
                    {"error": type(err).__name__, "detail": str(err)})
        if not args.quiet:
            print(f"error: {err}", file=sys.stderr)
        code = 1
    except Exception as err:                      # a defect: record, re-raise
        manifest["status"] = "error"
        manifest["error"] = f"{type(err).__name__}: {err}"
        raise
    finally:
        manifest["wall_time_seconds"] = time.time() - started
        _write_json(os.path.join(out, "manifest.json"), manifest)
    return code


if __name__ == "__main__":
    sys.exit(main())
