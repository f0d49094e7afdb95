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

The runner is one table of stages, STAGES.  A stage writes its own
artifacts and returns its report.json section (or None) and the names of
the files it wrote.  A subcommand runs its stage, and its section is the
report.json; ``all`` runs, in table order, every stage whose config
sections are present and nests their sections under the stages' keys.
One ``run`` dict per ``main`` call holds what stages share: the penalty
sweep (``penalty-sweep`` and ``cauchy``), each (epsilon, time grid) Monte
Carlo estimate (``mc`` and ``ldp-compare``), the report's sections and
the process pool.  Every CSV row is a dict keyed by column name, and
``_write_csv`` is the only code that formats one, from COLUMNS.

Every replica goes through ``_fan_out``: it splits a replica index range
across --workers processes, runs one of ``ldp``'s readers on each range
(the Monte Carlo rows of every P(event) estimate, the ldp1 stray flags,
the ``weighted.csv`` distances) and returns the results in index order,
so the output does not depend on the worker count.  The first fan-out
with more than one range starts the run's one process pool of --workers
processes, and ``main`` shuts it down when the call ends.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .config import MAX_BASE_SEED, ConfigError, ExperimentConfig
from .controls import zero_control
from .diagnostics import continuity_experiment, estimate_report
from .geometry import GeometryError, build_oblique_matrix, validate_oblique_field
from .ldp import (ldp_compare, mc_rows, minimize_rate, stray_flags,
                  summarize_rows, summarize_weighted, weighted_rows)
from .solvers import (ReplicaPlan, SolverError, resolve_time_grid,
                      sample_brownian, solve_penalized_spde, solve_skeleton)

# the columns of every CSV artifact, in order
COLUMNS = {
    "sweep.csv": ("n_pen", "sup_pen_H", "n_l1_integral", "n2_h2_integral",
                  "sup_H4", "sup_V2", "int_H2", "cauchy_to_next"),
    "cauchy.csv": ("n_pen", "n_next", "cauchy_H", "cauchy_V", "cauchy_total"),
    "continuity.csv": ("label", "cm_gap_sq", "gap_H", "gap_V", "rho_sq",
                       "converged"),
    "mc.csv": ("replica", "sup_pen_H", "terminal_H_norm", "event"),
    "comparison.csv": ("epsilon", "p_hat", "stderr", "neg_eps_log_p",
                       "I_star", "ldp1_prob"),
    "weighted.csv": ("epsilon", "mean_weighted_sup", "mean_weighted_int"),
}


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _cell(value) -> str:
    """A CSV cell: a str as it is, a bool as 0/1, anything else by repr()."""
    if isinstance(value, str):
        return value
    return repr(int(value) if isinstance(value, bool) else value)


def _write_csv(out: str, name: str, rows) -> str:
    """Write ``rows`` (dicts keyed by column name) as the CSV file ``name``
    under ``out``, in COLUMNS[name], and return ``name``."""
    columns = COLUMNS[name]
    with open(os.path.join(out, name), "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_cell(row[c]) for c in columns) + "\n")
    return name


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _solver_pieces(cfg: ExperimentConfig):
    dom = cfg.build_domain()
    return cfg.build_coefficients(), dom, cfg.build_gamma(dom), cfg.build_u0()


# -- the stages: each is (cfg, args, out, run) -> (section, files) ---------


def _validate_domain(cfg: ExperimentConfig, args, out: str, run: dict):
    """Certify the config's gamma.  A failed certification raises
    GeometryError, and its section is still the run's report."""
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
        payload["theta_hat"] = float(build_oblique_matrix(dom, gamma).theta_hat)
    _say(args, f"validate-domain: rho_hat={payload['rho_hat']!r} "
               f"delta_hat={payload['delta_hat']!r} passed={report.passed}")
    if not report.passed:
        run["report"]["validate_domain"] = payload
        raise GeometryError(
            f"oblique field validation failed: {payload['violations']}")
    return payload, []


def _solve(cfg: ExperimentConfig, args, out: str, run: dict):
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
                                ReplicaPlan(args.base_seed).seed_for(0))
    traj = solve_penalized_spde(coeffs, dom, gamma, u0, n_pen=cfg.n_event,
                                dt=dt, steps=steps, epsilon=eps, noise=noise,
                                control=control)
    traj.save(os.path.join(out, "trajectory"))
    _say(args, f"{args.subcommand}: epsilon={eps!r}, {steps} steps at "
               f"dt={dt!r}, n_pen={cfg.n_event!r}")
    return estimate_report(traj), ["trajectory"]


def _sweep(cfg: ExperimentConfig, run: dict):
    """The config's penalty sweep, solved once per run, and the section
    that ``penalty-sweep`` and ``cauchy`` share."""
    if "sweep" not in run:
        coeffs, dom, gamma, u0 = _solver_pieces(cfg)
        control = cfg.build_control()
        if control is None:
            control = zero_control(cfg.T, coeffs.m)
        sw = cfg.sweep
        run["sweep"] = solve_skeleton(
            coeffs, dom, gamma, u0, control, dt=cfg.dt, T=cfg.T,
            n_start=sw["n_start"], factor=sw["factor"], n_max=sw["n_max"],
            tol_cauchy=sw["tol_cauchy"])
    res = run["sweep"]
    return res, {"converged": res.converged, "tol_cauchy": res.tol_cauchy,
                 "final_cauchy": res.final_cauchy,
                 "members": [r["n_pen"] for r in res.rows]}


def _penalty_sweep(cfg: ExperimentConfig, args, out: str, run: dict):
    res, section = _sweep(cfg, run)
    _write_csv(out, "sweep.csv", res.rows)
    res.trajectory.save(os.path.join(out, "trajectory"))
    _say(args, f"penalty-sweep: {len(res.rows)} members, "
               f"converged={res.converged}")
    return ({**section, **estimate_report(res.trajectory)},
            ["sweep.csv", "trajectory"])


def _cauchy(cfg: ExperimentConfig, args, out: str, run: dict):
    res, section = _sweep(cfg, run)
    pairs = [{**cur, "n_next": nxt["n_pen"],
              "cauchy_total": cur["cauchy_to_next"]}
             for cur, nxt in zip(res.rows[:-1], res.rows[1:])]
    _say(args, f"cauchy: final gap {res.final_cauchy!r} "
               f"(tol {res.tol_cauchy!r})")
    return section, [_write_csv(out, "cauchy.csv", pairs)]


def _continuity(cfg: ExperimentConfig, args, out: str, run: dict):
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
    _say(args, f"continuity: {len(rows)} family members")
    return None, [_write_csv(out, "continuity.csv", rows)]


def _weighted(cfg: ExperimentConfig, args, out: str, run: dict):
    w = cfg.weighted
    parts = _fan_out(weighted_rows, cfg, args, run, args.base_seed,
                     w["replicas"], control=cfg.build_control(),
                     epsilons=w["epsilons"], lam=w["lam"], n_pen=cfg.n_event,
                     dt=cfg.dt, T=cfg.T)
    # each level's lists, joined over the ranges in index order
    levels = [sum(level, []) for level in zip(*parts)]
    rows = summarize_weighted(w["epsilons"], levels, w["replicas"])
    _say(args, f"weighted: {len(rows)} noise levels")
    return None, [_write_csv(out, "weighted.csv", rows)]


def _compute_rate(cfg: ExperimentConfig, out: str):
    """Minimize the action for the config's event and write rate.json."""
    coeffs, dom, gamma, u0 = _solver_pieces(cfg)
    event = cfg.build_event()
    if event is None:
        raise ConfigError("this subcommand needs an 'event' section")
    opts = cfg.rate_options
    res = minimize_rate(coeffs, dom, gamma, u0, event, T=cfg.T, K=opts["K"],
                        dt=cfg.dt, n_pen=cfg.n_event, fd_step=opts["fd_step"],
                        max_iters=opts["max_iters"], feas_tol=opts["feas_tol"])
    payload = res.to_dict()
    payload["event"] = event.describe()
    _write_json(os.path.join(out, "rate.json"), payload)
    return res


def _rate(cfg: ExperimentConfig, args, out: str, run: dict):
    res = _compute_rate(cfg, out)
    _say(args, f"rate: I*={res.rate!r} feasible={res.feasible}")
    return None, ["rate.json"]


def _read_range(payload):
    """Worker body: build the model from the validated config and read one
    contiguous replica range of the plan.  Module-level so it pickles."""
    read, cfg, seed, params, lo, hi = payload
    return read(*_solver_pieces(cfg), plan=ReplicaPlan(seed), start=lo,
                stop=hi, **params)


def _fan_out(read, cfg: ExperimentConfig, args, run: dict, seed: int,
             count: int, **params) -> list:
    """read(coeffs, domain, gamma, u0, plan=ReplicaPlan(seed), start=lo,
    stop=hi, **params) of each of the at most --workers contiguous ranges
    [lo, hi) that split the replica indices [0, count), in index order.
    One range runs in this process.  Several run in the run's process
    pool, which the first such fan-out starts (the pool module is
    imported only then) and ``main`` shuts down.  The validated config
    pickles as it is, so a worker does not validate it again."""
    ranges = min(args.workers, count)
    bounds = [count * i // ranges for i in range(ranges + 1)]
    payloads = [(read, cfg, seed, params, lo, hi)
                for lo, hi in zip(bounds[:-1], bounds[1:])]
    if ranges == 1:
        return [_read_range(payloads[0])]
    if "pool" not in run:
        from concurrent.futures import ProcessPoolExecutor

        run["pool"] = run["exit"].enter_context(
            ProcessPoolExecutor(max_workers=args.workers))
    return list(run["pool"].map(_read_range, payloads))


def _estimate(cfg: ExperimentConfig, args, run: dict, eps, grid):
    """P(event) at noise level eps on the time grid (n_pen, dt, steps),
    with the replica range fanned out over --workers processes; each
    (eps, grid) pair is computed once per run."""
    key = (eps, grid)
    if key not in run["estimates"]:
        count = cfg.replica_count
        n_pen, dt, steps = grid
        chunks = _fan_out(mc_rows, cfg, args, run, args.base_seed, count,
                          event=cfg.build_event(), epsilon=eps, n_pen=n_pen,
                          dt=dt, steps=steps)
        run["estimates"][key] = summarize_rows([r for c in chunks for r in c],
                                               count)
    return run["estimates"][key]


def _mc(cfg: ExperimentConfig, args, out: str, run: dict):
    if cfg.build_event() is None:
        raise ConfigError("mc needs an 'event' section")
    eps = cfg.epsilons[0]
    steps, dt = resolve_time_grid(cfg.T, cfg.dt, cfg.n_event, 1)
    res = _estimate(cfg, args, run, eps, (cfg.n_event, dt, steps))
    written = _write_csv(out, "mc.csv", res.rows)
    _say(args, f"mc: p_hat={res.p_hat!r} +- {res.stderr!r} "
               f"({res.hits}/{res.replicas} hits)")
    return {"epsilon": eps, "seed": args.base_seed, **res.to_dict()}, [written]


def _ldp_compare(cfg: ExperimentConfig, args, out: str, run: dict):
    """Rate minimization plus the across-epsilon table, estimated on the
    rate's time grid, and the ldp1 stray flags of the replicas seeded from
    base seed + 1 at the optimizer's control."""
    rate = _compute_rate(cfg, out)
    grid = (rate.n_pen, rate.dt, rate.steps)
    levels = [(eps, _estimate(cfg, args, run, eps, grid))
              for eps in cfg.epsilons]
    ldp1 = cfg.ldp1
    strays = _fan_out(stray_flags, cfg, args, run, args.base_seed + 1,
                      ldp1["replicas"], control=rate.control,
                      epsilons=cfg.epsilons, delta_sq=ldp1["delta_sq"],
                      n_pen=rate.n_pen, dt=rate.dt, steps=rate.steps)
    rows = ldp_compare(rate, levels,
                       [sum(level, []) for level in zip(*strays)])
    written = _write_csv(out, "comparison.csv", rows)
    _say(args, "ldp-compare: " + " ".join(
        f"eps={r['epsilon']!r}:{r['neg_eps_log_p']!r}" for r in rows))
    return None, ["rate.json", written]


# stage -> (its section's key in all's report.json, the config sections
# on which ``all`` runs it, or None when ``all`` skips it, the stage);
# every stage but ``weighted`` is a subcommand
STAGES = {
    "validate-domain": ("validate_domain", (), _validate_domain),
    "skeleton": ("skeleton", None, _solve),
    "spde": ("spde", None, _solve),
    "penalty-sweep": ("penalty_sweep", (), _penalty_sweep),
    "cauchy": ("cauchy", (), _cauchy),
    "continuity": (None, ("control_family",), _continuity),
    "weighted": (None, ("control",), _weighted),
    "rate": (None, None, _rate),
    "mc": ("mc", ("event",), _mc),
    "ldp-compare": (None, ("event", "rate"), _ldp_compare),
}
SUBCOMMANDS = (*(name for name in STAGES if name != "weighted"), "all")


def _run(cfg: ExperimentConfig, args, out: str, run: dict) -> list:
    """Run the subcommand's stage, or every stage ``all`` runs on the
    config, and write report.json from their sections, also when a stage
    fails; return the names of the files written."""
    names = [args.subcommand]
    if args.subcommand == "all":
        names = [name for name, (_, needs, _) in STAGES.items()
                 if needs is not None and all(s in cfg.raw for s in needs)]
    sections, files = run["report"], []
    try:
        for name in names:
            key, _, stage = STAGES[name]
            section, written = stage(cfg, args, out, run)
            if section is not None:
                sections[key] = section
            files += written
    finally:
        if sections:
            flat = args.subcommand != "all"
            _write_json(os.path.join(out, "report.json"),
                        next(iter(sections.values())) if flat else sections)
            files.append("report.json")
    return files


def _int_in(lowest: int, highest: int = None):
    """argparse type of an integer flag that must lie in [lowest, highest]
    (no upper bound when highest is None), checked when the arguments are
    parsed: --seed (the schema's base_seed range, or >= 0 for
    validate-domain) and --workers (>= 1)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = lowest - 1
        if value < lowest:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {lowest}, got {text!r}")
        if highest is not None and value > highest:
            raise argparse.ArgumentTypeError(
                f"expected an integer <= {highest}, got {text!r}")
        return value
    return parse


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
        p.add_argument("--workers", type=_int_in(1),
                       default=os.cpu_count() or 1)
        # validate-domain's --seed replaces validation.seed (no maximum)
        top = None if name == "validate-domain" else MAX_BASE_SEED
        p.add_argument("--seed", type=_int_in(0, top), default=None,
                       help="override the config's base seed (an integer "
                            f"in [0, {MAX_BASE_SEED}]; validate-domain: "
                            "validation.seed, >= 0)")
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
                     "numpy": np.__version__, "rspde": __version__},
        "status": "ok",
        "outputs": [],
        "started_unix": started,
        "wall_time_seconds": None,
    }
    code = 0
    # what the call's stages share; "exit" shuts down its process pool
    run = {"report": {}, "estimates": {}, "exit": contextlib.ExitStack()}
    try:
        cfg = ExperimentConfig.from_file(args.config)
        manifest["config_hash"] = cfg.config_hash()
        # the run's base seed, which validate-domain does not use: it
        # falls back to validation.seed instead
        args.base_seed = manifest["seed"] = (
            cfg.base_seed if args.seed is None else args.seed)
        manifest["outputs"] = sorted(set(_run(cfg, args, out, run)))
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
        run["exit"].close()
        manifest["wall_time_seconds"] = time.time() - started
        _write_json(os.path.join(out, "manifest.json"), manifest)
    return code


if __name__ == "__main__":
    sys.exit(main())
