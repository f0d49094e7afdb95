"""Runner behavior: exit codes, artifact layout, and reproducibility."""

import concurrent.futures
import copy
import json
import math
import os

import numpy as np
import pytest

from rspde import cli, config, ldp, solvers
from rspde.cli import build_parser, main
from rspde.config import MAX_BASE_SEED, ExperimentConfig
from rspde.solvers import (ReplicaPlan, SolverError, resolve_time_grid,
                           sample_brownian, solve_penalized_spde)

BASE = {
    "domain": {"kind": "ball", "center": [0.0], "radius": 0.25},
    "gamma": {"rule": "normal"},
    "coefficients": {
        "d": 1, "m": 1,
        "b": {"name": "constant", "value": [4.0]},
        "sigma": {"name": "constant", "matrix": [[1.0]]},
    },
    "u0": {"kind": "zero"},
    "grid": {"J": 15, "dt": 1e-3, "T": 0.12},
    "penalty": {"n_event": 64.0,
                "sweep": {"n_start": 8.0, "n_max": 64.0, "tol_cauchy": 0.0}},
    "replicas": {"base_seed": 3, "count": 12},
    "epsilons": [0.5],
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(tmp_path, sub, payload=None, extra=(), name="out"):
    cfg = write_config(tmp_path, BASE if payload is None else payload,
                       name=f"cfg_{name}.json")
    out = str(tmp_path / name)
    code = main([sub, "--config", cfg, "--out", out, "--quiet", *extra])
    return code, out


def read_json(out, name):
    with open(os.path.join(out, name)) as fh:
        return json.load(fh)


def read_bytes(out, name):
    with open(os.path.join(out, name), "rb") as fh:
        return fh.read()


def test_validate_domain_unit_ball_normal(tmp_path):
    payload = copy.deepcopy(BASE)
    payload["domain"] = {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0}
    payload["coefficients"]["d"] = 2
    payload["coefficients"]["sigma"] = {"name": "constant",
                                        "matrix": [[1.0], [0.0]]}
    code, out = run(tmp_path, "validate-domain", payload)
    assert code == 0
    rep = read_json(out, "report.json")
    assert rep["rho_hat"] == pytest.approx(1.0, rel=1e-12)
    assert rep["passed"] is True
    assert rep["theta_hat"] == pytest.approx(1.0)
    man = read_json(out, "manifest.json")
    assert man["status"] == "ok" and man["outputs"] == ["report.json"]
    assert man["config_hash"]
    # numpy is the only library a run loads, so scipy's version is not listed
    assert "scipy" not in man["versions"]


def test_unknown_subcommand_exits_2(tmp_path, capsys):
    assert main(["frobnicate", "--config", "x", "--out", "y"]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_missing_config_flag_exits_2(tmp_path):
    assert main(["skeleton", "--out", str(tmp_path / "o")]) == 2


def test_malformed_config_exits_1_with_reports(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{broken")
    out = str(tmp_path / "out")
    assert main(["skeleton", "--config", str(cfg), "--out", out,
                 "--quiet"]) == 1
    err = read_json(out, "error.json")
    assert err["error"] == "ConfigError"
    man = read_json(out, "manifest.json")
    assert man["status"] == "error" and "error" in man


def test_unknown_config_key_reports_field(tmp_path):
    payload = copy.deepcopy(BASE)
    payload["grid"]["Jay"] = 3
    code, out = run(tmp_path, "skeleton", payload)
    assert code == 1
    assert "grid" in read_json(out, "error.json")["detail"]


MISSING_FIELDS = {
    "ball-center": ("validate-domain", "domain",
                    {"kind": "ball", "radius": 0.25}, "center"),
    "box-upper": ("validate-domain", "domain",
                  {"kind": "intersection", "members": [
                      {"kind": "ball", "center": [0.0], "radius": 0.25},
                      {"kind": "box", "lower": [-0.2]}]}, "upper"),
    "constant-control-vector": ("skeleton", "control",
                                {"kind": "constant", "K": 2}, "vector"),
    "sine-control-K": ("skeleton", "control",
                       {"kind": "sine", "rate": 1}, "K"),
    "constant-drift-value": ("skeleton", "coefficients",
                             dict(BASE["coefficients"],
                                  b={"name": "constant"}), "value"),
}


@pytest.mark.parametrize("case", sorted(MISSING_FIELDS))
def test_missing_kind_field_is_a_config_error(tmp_path, case):
    sub, section, spec, field = MISSING_FIELDS[case]
    payload = copy.deepcopy(BASE)
    payload[section] = spec
    code, out = run(tmp_path, sub, payload)
    assert code == 1
    err = read_json(out, "error.json")
    assert err["error"] == "ConfigError" and repr(field) in err["detail"]
    assert read_json(out, "manifest.json")["status"] == "error"


SHORT_VECTORS = {
    "constant-drift-value": ({"name": "constant", "value": [4.0]},
                             {"name": "zero"}),
    "diag-affine-base": ({"name": "zero"},
                         {"name": "diag_affine", "base": [0.1], "slope": [0.5, 0.5]}),
    "diag-affine-slope": ({"name": "zero"},
                          {"name": "diag_affine", "base": [0.1, 0.1], "slope": [0.5]}),
}


@pytest.mark.parametrize("case", sorted(SHORT_VECTORS))
def test_coefficient_vector_of_wrong_length_is_a_config_error(tmp_path, case):
    # a length-1 vector at d = 2 is rejected, not broadcast to [v, v]
    b, sigma = SHORT_VECTORS[case]
    payload = copy.deepcopy(BASE)
    payload["domain"] = {"kind": "ball", "center": [0.0, 0.0], "radius": 0.25}
    payload["coefficients"] = {"d": 2, "m": 2, "b": b, "sigma": sigma}
    code, out = run(tmp_path, "skeleton", payload)
    assert code == 1
    err = read_json(out, "error.json")
    assert err["error"] == "ConfigError" and "coefficients" in err["detail"]
    assert "(2,)" in err["detail"]
    assert read_json(out, "manifest.json")["status"] == "error"


def test_unlisted_exception_is_recorded_then_raised(tmp_path, monkeypatch):
    def broken(cfg, args, out, run):
        raise RuntimeError("handler defect")

    monkeypatch.setitem(cli.STAGES, "skeleton", ("skeleton", None, broken))
    with pytest.raises(RuntimeError, match="handler defect"):
        run(tmp_path, "skeleton")
    man = read_json(str(tmp_path / "out"), "manifest.json")
    assert man["status"] == "error"
    assert man["error"] == "RuntimeError: handler defect"


def test_skeleton_writes_trajectory_and_report(tmp_path):
    code, out = run(tmp_path, "skeleton")
    assert code == 0
    rep = read_json(out, "report.json")
    for key in ("sup_H4", "sup_pen_H", "eta_total_variation"):
        assert key in rep
    idx = read_json(out, os.path.join("trajectory", "index.json"))
    assert idx["n_pen"] == 64.0
    assert os.path.exists(os.path.join(out, "trajectory", "series.csv"))
    assert os.path.exists(os.path.join(out, "trajectory", "states.npy"))
    assert not os.path.exists(os.path.join(out, "trajectory", "snapshots"))


def test_spde_states_follow_the_seeded_replica_path(tmp_path):
    code, out = run(tmp_path, "spde", extra=("--seed", "17"), name="s17")
    assert code == 0
    assert sorted(os.listdir(os.path.join(out, "trajectory"))) == [
        "index.json", "series.csv", "states.npy"]
    assert "eta_total_variation" in read_json(out, "report.json")
    cfg = ExperimentConfig.from_dict(copy.deepcopy(BASE))
    coeffs, dom = cfg.build_coefficients(), cfg.build_domain()
    steps, dt = resolve_time_grid(cfg.T, cfg.dt, cfg.n_event)
    noise = sample_brownian(coeffs.m, steps, dt,
                            ReplicaPlan(base_seed=17).seed_for(0))
    traj = solve_penalized_spde(coeffs, dom, cfg.build_gamma(dom),
                                cfg.build_u0(), n_pen=cfg.n_event, dt=dt,
                                steps=steps, epsilon=cfg.epsilons[0],
                                noise=noise)
    states = np.load(os.path.join(out, "trajectory", "states.npy"))
    assert states.tobytes() == traj.states.tobytes()
    _, other = run(tmp_path, "spde", extra=("--seed", "18"), name="s18")
    assert not np.array_equal(
        np.load(os.path.join(other, "trajectory", "states.npy")), states)


def test_penalty_sweep_csv_columns(tmp_path):
    code, out = run(tmp_path, "penalty-sweep")
    assert code == 0
    lines = read_bytes(out, "sweep.csv").decode().splitlines()
    header = lines[0].split(",")
    assert header[:4] == ["n_pen", "sup_pen_H", "n_l1_integral",
                          "n2_h2_integral"]
    rows = [line.split(",") for line in lines[1:]]
    ns = [float(r[0]) for r in rows]
    assert ns == [8.0, 16.0, 32.0, 64.0]
    sup = [float(r[1]) for r in rows]
    assert all(a > b for a, b in zip(sup, sup[1:]))
    assert lines[-1].split(",")[7] == "nan"


def test_cauchy_pairs_match_sweep_members(tmp_path):
    code, out = run(tmp_path, "cauchy")
    assert code == 0
    lines = read_bytes(out, "cauchy.csv").decode().splitlines()
    assert lines[0] == "n_pen,n_next,cauchy_H,cauchy_V,cauchy_total"
    pairs = [tuple(map(float, l.split(",")[:2])) for l in lines[1:]]
    assert pairs == [(8.0, 16.0), (16.0, 32.0), (32.0, 64.0)]
    totals = [float(l.split(",")[4]) for l in lines[1:]]
    assert all(math.isfinite(t) and t >= 0 for t in totals)


def test_mc_outputs_and_worker_invariance(tmp_path):
    payload = copy.deepcopy(BASE)
    payload["event"] = {"kind": "terminal_ball", "radius": 0.05,
                        "complement": True}
    code, out1 = run(tmp_path, "mc", payload, extra=("--workers", "1"),
                     name="w1")
    assert code == 0
    code, out3 = run(tmp_path, "mc", payload, extra=("--workers", "3"),
                     name="w3")
    assert code == 0
    assert read_bytes(out1, "mc.csv") == read_bytes(out3, "mc.csv")
    assert read_bytes(out1, "report.json") == read_bytes(out3, "report.json")
    rep = read_json(out1, "report.json")
    assert rep["replicas"] == 12 and 0.0 <= rep["p_hat"] <= 1.0
    lines = read_bytes(out1, "mc.csv").decode().splitlines()
    assert lines[0] == "replica,sup_pen_H,terminal_H_norm,event"
    assert len(lines) == 13


# BASE with a reachable event, two noise levels and a rate section whose
# control grid (K = 4) refines to the same 120 steps of 1e-3 as the mc
# grid, so `all` needs each noise level's estimate once
COMPARE = {**copy.deepcopy(BASE),
           "epsilons": [0.5, 0.2],
           "event": {"kind": "terminal_ball", "radius": 0.05,
                     "complement": True},
           "rate": {"K": 4, "max_iters": 20, "stag_window": 8},
           "ldp1": {"delta_sq": 0.05, "replicas": 5}}


def test_ldp_compare_outputs_do_not_depend_on_workers(tmp_path):
    code, out1 = run(tmp_path, "ldp-compare", COMPARE,
                     extra=("--workers", "1"), name="w1")
    assert code == 0
    code, out3 = run(tmp_path, "ldp-compare", COMPARE,
                     extra=("--workers", "3"), name="w3")
    assert code == 0
    for name in ("comparison.csv", "rate.json"):
        assert read_bytes(out1, name) == read_bytes(out3, name)
    lines = read_bytes(out1, "comparison.csv").decode().splitlines()
    assert [float(l.split(",")[0]) for l in lines[1:]] == [0.5, 0.2]


# ball-box in d = 2 with rotated gamma, a linear drift, a state-dependent
# sigma and a control: the replicas penetrate (some of them), so the
# chunked penalty and coefficient paths run
CHUNKED = {
    "domain": {"kind": "intersection", "members": [
        {"kind": "ball", "center": [0.0, 0.0], "radius": 0.5},
        {"kind": "box", "lower": [-0.4, -0.45], "upper": [0.45, 0.4]}]},
    "gamma": {"rule": "rotated_normal", "angle": 0.2},
    "coefficients": {
        "d": 2, "m": 2,
        "b": {"name": "linear", "matrix": [[8.0, 1.0], [-1.0, 6.0]]},
        "sigma": {"name": "diag_affine", "base": [0.4, 0.3],
                  "slope": [0.5, -0.2]}},
    "u0": {"kind": "sine", "amplitude": 0.35},
    "grid": {"J": 15, "dt": 2e-3, "T": 0.1},
    "penalty": {"n_event": 64.0,
                "sweep": {"n_start": 16.0, "factor": 4.0, "n_max": 64.0,
                          "tol_cauchy": 0.0}},
    "replicas": {"base_seed": 5, "count": 20},
    "epsilons": [2.0, 0.5],
    "control": {"kind": "constant", "vector": [12.0, 10.0]},
    "event": {"kind": "terminal_ball", "radius": 0.2, "complement": True},
    "rate": {"K": 2, "max_iters": 5, "mu_schedule": [10.0, 100.0]},
    "ldp1": {"delta_sq": 0.01, "replicas": 9},
    "validation": {"samples": 200},
}

# multiplicative noise on a linear drift: replica 0 runs through, and
# several later replicas blow up, higher indices at earlier steps
BLOWING = {
    "domain": {"kind": "ball", "center": [0.0], "radius": 1e100},
    "gamma": {"rule": "normal"},
    "coefficients": {
        "d": 1, "m": 1, "b": {"name": "linear", "matrix": [[2000.0]]},
        "sigma": {"name": "diag_affine", "base": [0.0], "slope": [200.0]}},
    "u0": {"kind": "sine", "amplitude": 0.1},
    "grid": {"J": 15, "dt": 0.01, "T": 1.3},
    "penalty": {"n_event": 50.0},
    "replicas": {"base_seed": 3, "count": 12},
    "epsilons": [1.0],
    "event": {"kind": "terminal_ball", "radius": 0.2, "complement": True},
}


def chunk_budgets(raw) -> list:
    """CHUNK_BYTES for chunks of one member, of seven, and the default,
    which must hold every replica of ``raw`` in one chunk."""
    cfg = ExperimentConfig.from_dict(copy.deepcopy(raw))
    steps, _ = resolve_time_grid(cfg.T, cfg.dt, cfg.n_event, 1)
    member = 8 * (steps + 1) * raw["coefficients"]["d"] * raw["grid"]["J"]
    assert ldp.CHUNK_BYTES >= cfg.replica_count * member
    return [member, 7 * member, ldp.CHUNK_BYTES]


def test_outputs_do_not_depend_on_chunk_composition(tmp_path, monkeypatch):
    outs = []
    for budget in chunk_budgets(CHUNKED):
        monkeypatch.setattr(ldp, "CHUNK_BYTES", budget)
        code, out = run(tmp_path, "all", CHUNKED, extra=("--workers", "1"),
                        name=f"chunk{budget}")
        assert code == 0
        outs.append(out)
    for name in ("mc.csv", "comparison.csv", "weighted.csv"):
        assert [read_bytes(o, name) for o in outs[1:]] == [read_bytes(outs[0], name)] * 2
    pen = [float(line.split(",")[1]) for line in
           read_bytes(outs[0], "mc.csv").decode().splitlines()[1:]]
    assert 0 < sum(p > 0.0 for p in pen) < len(pen)


def test_blow_up_error_does_not_depend_on_chunk_composition(tmp_path,
                                                            monkeypatch):
    # the error of a solve of the replicas one at a time, in order
    cfg = ExperimentConfig.from_dict(copy.deepcopy(BLOWING))
    coeffs, dom, u0 = cfg.build_coefficients(), cfg.build_domain(), cfg.build_u0()
    steps, dt = resolve_time_grid(cfg.T, cfg.dt, cfg.n_event, 1)
    plan = ReplicaPlan(base_seed=cfg.base_seed)
    failed = []
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(cfg.replica_count):
            try:
                solve_penalized_spde(
                    coeffs, dom, cfg.build_gamma(dom), u0, n_pen=cfg.n_event,
                    dt=dt, steps=steps, epsilon=cfg.epsilons[0],
                    noise=sample_brownian(1, steps, dt, plan.seed_for(i)))
            except SolverError as err:
                failed.append((i, err))
        assert failed[0][0] > 0
        assert min(err.step for _, err in failed) < failed[0][1].step
        errors = []
        for budget in chunk_budgets(BLOWING):
            monkeypatch.setattr(ldp, "CHUNK_BYTES", budget)
            code, out = run(tmp_path, "mc", BLOWING, extra=("--workers", "1"),
                            name=f"blow{budget}")
            assert code == 1
            errors.append(read_json(out, "error.json"))
    assert errors == [{"error": "SolverError",
                       "detail": str(failed[0][1])}] * 3


def test_all_estimates_each_noise_level_once(tmp_path, monkeypatch):
    cfg = ExperimentConfig.from_dict(copy.deepcopy(COMPARE))
    mc_grid = resolve_time_grid(cfg.T, cfg.dt, cfg.n_event, 1)
    assert mc_grid == resolve_time_grid(cfg.T, cfg.dt, cfg.n_event,
                                        cfg.rate_options["K"])
    noisy = []
    solve = ldp.solve_penalized_spde

    def counted(*args, **kwargs):
        # solved members: a chunk's noise is a list with one path each
        noise = kwargs.get("noise")
        members = len(noise) if isinstance(noise, list) else 1
        noisy.append(members if kwargs.get("epsilon", 0.0) > 0.0 else 0)
        return solve(*args, **kwargs)

    monkeypatch.setattr(ldp, "solve_penalized_spde", counted)
    outs, counts = [], []
    for name in ("a", "b"):
        noisy.clear()
        code, out = run(tmp_path, "all", COMPARE, extra=("--workers", "1"),
                        name=name)
        assert code == 0
        outs.append(out)
        counts.append(sum(noisy))
    # every replica at every noise level, plus the ldp1 replicas
    expected = (cfg.replica_count * len(cfg.epsilons)
                + cfg.ldp1["replicas"] * len(cfg.epsilons))
    assert counts == [expected, expected]
    # mc.csv holds the comparison's first row
    mc = read_json(outs[0], "report.json")["mc"]
    first = read_bytes(outs[0], "comparison.csv").decode().splitlines()[1]
    assert first.split(",")[1:3] == [repr(mc["p_hat"]), repr(mc["stderr"])]
    for name in ("mc.csv", "comparison.csv", "report.json"):
        assert read_bytes(outs[0], name) == read_bytes(outs[1], name)


# the free interval at additive noise (the benchmark's mc and rate model):
# a terminal-ball exit event, read from the terminal states alone
FREE = {**copy.deepcopy(BASE),
        "domain": {"kind": "ball", "center": [0.0], "radius": 100.0},
        "coefficients": {"d": 1, "m": 1, "b": {"name": "zero"},
                         "sigma": {"name": "constant", "matrix": [[1.0]]}},
        "penalty": {"n_event": 256.0,
                    "sweep": {"n_start": 64.0, "n_max": 256.0,
                              "tol_cauchy": 0.0}},
        "replicas": {"base_seed": 3, "count": 40},
        "event": {"kind": "terminal_ball", "radius": 0.05,
                  "complement": True},
        "rate": {"K": 2, "max_iters": 5, "mu_schedule": [100.0]}}


@pytest.mark.parametrize("sub, reads_norms", [
    ("mc", False), ("rate", False), ("penalty-sweep", True)])
def test_norm_series_are_computed_only_for_readers(tmp_path, monkeypatch,
                                                   sub, reads_norms):
    # mc and rate read the penetration series and the states, never
    # h_sq, v_sq or lap_sq; a sweep reports and saves all three
    calls = []
    for name in ("sup_series", "v_series", "lap_series"):
        def counted(states, dx, name=name, series_of=getattr(solvers, name)):
            calls.append(name)
            return series_of(states, dx)
        monkeypatch.setattr(solvers, name, counted)
    code, out = run(tmp_path, sub, FREE, extra=("--workers", "1"))
    assert code == 0
    if reads_norms:
        assert set(calls) == {"sup_series", "v_series", "lap_series"}
    else:
        assert calls == []


def test_rate_ignores_deprecated_continuation_keys(tmp_path):
    # mu_schedule and stag_window steered the quadratic-penalty
    # continuation; they still validate, and rate.json does not change
    with_keys = copy.deepcopy(FREE)
    with_keys["rate"].update(mu_schedule=[100.0, 10000.0], stag_window=10)
    without = copy.deepcopy(FREE)
    without["rate"] = {k: v for k, v in without["rate"].items()
                       if k not in ("mu_schedule", "stag_window")}
    outs = []
    for name, payload in (("with", with_keys), ("without", without)):
        code, out = run(tmp_path, "rate", payload, name=name)
        assert code == 0
        outs.append(read_bytes(out, "rate.json"))
    assert outs[0] == outs[1]
    assert read_json(out, "rate.json")["feasible"] is True


@pytest.mark.parametrize("per_chunk", [70, 200])
def test_mc_seeds_and_samples_a_chunk_in_one_call(tmp_path, monkeypatch,
                                                   per_chunk):
    # 200 free replicas in chunks of 70 (70, 70, 60) or in one chunk: one
    # call of each of the names the benchmark's tracer wraps per chunk
    payload = {**copy.deepcopy(FREE), "replicas": {"base_seed": 6161, "count": 200}}
    member = chunk_budgets(payload)[0]
    monkeypatch.setattr(ldp, "CHUNK_BYTES", per_chunk * member)
    calls, keys = [], []

    def seed_for(plan, index, seed_for=solvers.ReplicaPlan.seed_for):
        calls.append(("seed_for", len(index)))
        return seed_for(plan, index)

    def sample_brownian(m, K, dt, seeds, sample=ldp.sample_brownian):
        calls.append(("sample_brownian", len(seeds)))
        keys.extend(seeds)
        return sample(m, K, dt, seeds)

    monkeypatch.setattr(solvers.ReplicaPlan, "seed_for", seed_for)
    monkeypatch.setattr(ldp, "sample_brownian", sample_brownian)
    code, out = run(tmp_path, "mc", payload, extra=("--workers", "1"))
    assert code == 0
    sizes = [min(per_chunk, 200 - lo) for lo in range(0, 200, per_chunk)]
    assert calls == [(name, size) for size in sizes
                     for name in ("seed_for", "sample_brownian")]
    # replica i is keyed by the words (base seed, i), and mc.csv's rows
    # are the replicas in index order
    assert keys == [6161 + (i << 64) for i in range(200)]
    rows = read_bytes(out, "mc.csv").decode().splitlines()[1:]
    assert [int(row.split(",")[0]) for row in rows] == list(range(200))


def test_mc_validates_its_config_once(tmp_path, monkeypatch):
    # the replica ranges are handed the validated config, not its raw
    # dict to validate again
    calls = []

    def counted(payload, validate=config.validate_config):
        calls.append(payload)
        return validate(payload)

    monkeypatch.setattr(config, "validate_config", counted)
    code, _ = run(tmp_path, "mc", FREE, extra=("--workers", "1"))
    assert code == 0
    assert len(calls) == 1


def test_negative_seed_flag_is_a_usage_error(tmp_path, capsys):
    for bad in ("-5", "x"):
        code, out = run(tmp_path, "mc", FREE, extra=("--seed", bad))
        assert code == 2
        assert f"--seed: expected an integer >= 0, got '{bad}'" in capsys.readouterr().err
        assert not os.path.exists(out)
    # above the schema's largest base seed, 2**64 - 2
    for bad in ("18446744073709551616", "18446744073709551615"):
        code, out = run(tmp_path, "mc", FREE, extra=("--seed", bad))
        assert code == 2
        assert (f"--seed: expected an integer <= {MAX_BASE_SEED}, got '{bad}'"
                in capsys.readouterr().err)
        assert not os.path.exists(out)
    for good in (0, MAX_BASE_SEED):
        assert build_parser().parse_args(
            ["mc", "--config", "c", "--out", "o", "--seed", str(good)]).seed == good


def test_validate_domain_seed_is_not_capped_at_the_base_seed_range(tmp_path):
    # validate-domain's --seed replaces validation.seed, which has no
    # maximum; only the subcommands that key Philox by it are capped
    for seed in (MAX_BASE_SEED + 1, 2**64):
        code, out = run(tmp_path, "validate-domain",
                        extra=("--seed", str(seed)), name=f"v{seed}")
        assert code == 0
        assert read_json(out, "manifest.json")["seed"] == seed
    assert build_parser().parse_args(
        ["validate-domain", "--config", "c", "--out", "o",
         "--seed", str(2**64)]).seed == 2**64


def test_ldp_compare_runs_at_the_largest_seed(tmp_path):
    # the ldp1 strays run from base seed + 1, still a 64-bit key word
    code, out = run(tmp_path, "ldp-compare", COMPARE,
                    extra=("--seed", str(MAX_BASE_SEED), "--workers", "1"))
    assert code == 0
    assert read_json(out, "manifest.json")["seed"] == MAX_BASE_SEED
    lines = read_bytes(out, "comparison.csv").decode().splitlines()
    assert len(lines) == 1 + len(COMPARE["epsilons"])


class RecordingPool:
    """An in-process stand-in for ProcessPoolExecutor that records each
    map's reader, pool size and replica ranges."""

    maps = []

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, body, payloads):
        payloads = list(payloads)
        self.maps.append((payloads[0][0].__name__, self.max_workers,
                          [p[-2:] for p in payloads]))
        return map(body, payloads)


def test_weighted_replicas_fan_out_over_workers(tmp_path, monkeypatch):
    payload = {**copy.deepcopy(BASE), "epsilons": [0.5, 0.2],
               "control": {"kind": "constant", "vector": [4.0]}}
    code, out1 = run(tmp_path, "all", payload, extra=("--workers", "1"),
                     name="w1")
    assert code == 0
    code, out3 = run(tmp_path, "all", payload, extra=("--workers", "3"),
                     name="w3")
    assert code == 0
    assert read_bytes(out1, "weighted.csv") == read_bytes(out3, "weighted.csv")
    lines = read_bytes(out1, "weighted.csv").decode().splitlines()
    assert [float(line.split(",")[0]) for line in lines[1:]] == [0.5, 0.2]
    # the 12 replicas went to three workers in contiguous ranges
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    RecordingPool.maps.clear()
    code, out = run(tmp_path, "all", payload, extra=("--workers", "3"),
                    name="recorded")
    assert code == 0
    assert RecordingPool.maps == [("weighted_rows", 3, [(0, 4), (4, 8), (8, 12)])]
    assert read_bytes(out, "weighted.csv") == read_bytes(out1, "weighted.csv")
    # one task per non-empty range in the call's pool of --workers
    # processes, and no pool for a single range
    RecordingPool.maps.clear()
    code, out = run(tmp_path, "all", payload, extra=("--workers", "16"),
                    name="sixteen")
    assert code == 0
    assert RecordingPool.maps == [
        ("weighted_rows", 16, [(i, i + 1) for i in range(12)])]
    assert read_bytes(out, "weighted.csv") == read_bytes(out1, "weighted.csv")
    RecordingPool.maps.clear()
    code, _ = run(tmp_path, "all", {**payload, "weighted": {"replicas": 1}},
                  extra=("--workers", "3"), name="single")
    assert code == 0
    assert RecordingPool.maps == []


def test_ldp_compare_replicas_fan_out_over_workers(tmp_path, monkeypatch):
    # every noise level's Monte Carlo replicas, then the 5 ldp1 stray
    # replicas (seeded from base seed + 1), split into three ranges each
    code, out1 = run(tmp_path, "ldp-compare", COMPARE,
                     extra=("--workers", "1"), name="w1")
    assert code == 0
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    RecordingPool.maps.clear()
    code, out = run(tmp_path, "ldp-compare", COMPARE,
                    extra=("--workers", "3"), name="recorded")
    assert code == 0
    mc = ("mc_rows", 3, [(0, 4), (4, 8), (8, 12)])
    assert RecordingPool.maps == [mc, mc,
                                  ("stray_flags", 3, [(0, 1), (1, 3), (3, 5)])]
    for name in ("comparison.csv", "rate.json"):
        assert read_bytes(out, name) == read_bytes(out1, name)


def test_one_process_pool_per_call(tmp_path, monkeypatch):
    # the weighted replicas, two noise levels' Monte Carlo and the ldp1
    # strays fan out in one pool, started by the first fan-out and shut
    # down when the call ends; one worker starts none
    payload = {**COMPARE, "control": {"kind": "constant", "vector": [4.0]}}
    pools = []

    def counted(max_workers, pool=concurrent.futures.ProcessPoolExecutor):
        pools.append(pool(max_workers=max_workers))
        return pools[-1]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counted)
    outs = []
    for workers, started in (("2", 1), ("1", 0)):
        pools.clear()
        code, out = run(tmp_path, "all", payload,
                        extra=("--workers", workers), name=f"w{workers}")
        assert code == 0 and len(pools) == started
        for pool in pools:
            with pytest.raises(RuntimeError, match="shutdown"):
                pool.submit(int)
        outs.append(out)
    for name in ("mc.csv", "comparison.csv", "weighted.csv", "report.json"):
        assert read_bytes(outs[0], name) == read_bytes(outs[1], name)


def test_workers_below_one_is_a_usage_error(tmp_path, capsys):
    for bad in ("0", "-2", "x"):
        code, out = run(tmp_path, "mc", FREE, extra=("--workers", bad))
        assert code == 2
        assert (f"--workers: expected an integer >= 1, got '{bad}'"
                in capsys.readouterr().err)
        assert not os.path.exists(out)


def test_consecutive_main_calls_parse_independently(tmp_path, capsys):
    # one parser serves every call in the process; no call's subcommand,
    # --quiet or --seed carries over to the next
    assert build_parser() is build_parser()
    payload = copy.deepcopy(BASE)
    payload["event"] = {"kind": "terminal_ball", "radius": 0.05,
                        "complement": True}
    cfg = write_config(tmp_path, payload)
    calls = [(["mc", "--seed", "101", "--quiet"], "mc", 101, ""),
             (["validate-domain"], "validate-domain", 3, "validate-domain: "),
             (["mc"], "mc", 3, "mc: p_hat="),
             (["validate-domain", "--seed", "7", "--quiet"],
              "validate-domain", 7, "")]
    for i, (argv, sub, seed, said) in enumerate(calls):
        out = str(tmp_path / f"call{i}")
        assert main([*argv, "--config", cfg, "--out", out]) == 0
        manifest = read_json(out, "manifest.json")
        assert (manifest["subcommand"], manifest["seed"]) == (sub, seed)
        if sub == "mc":
            assert read_json(out, "report.json")["seed"] == seed
        printed = capsys.readouterr().out
        assert printed.startswith(said) and bool(printed) == bool(said)


def test_seed_flag_overrides_config(tmp_path):
    payload = copy.deepcopy(BASE)
    payload["event"] = {"kind": "terminal_ball", "radius": 0.05,
                        "complement": True}
    _, out_a = run(tmp_path, "mc", payload, extra=("--seed", "101"), name="a")
    _, out_b = run(tmp_path, "mc", payload, extra=("--seed", "101"), name="b")
    _, out_c = run(tmp_path, "mc", payload, extra=("--seed", "102"), name="c")
    assert read_bytes(out_a, "mc.csv") == read_bytes(out_b, "mc.csv")
    assert read_bytes(out_a, "mc.csv") != read_bytes(out_c, "mc.csv")
    assert read_json(out_a, "manifest.json")["seed"] == 101


def test_repeat_runs_byte_identical_outside_wall_time(tmp_path):
    code, out1 = run(tmp_path, "penalty-sweep", name="r1")
    code2, out2 = run(tmp_path, "penalty-sweep", name="r2")
    assert code == code2 == 0
    assert read_bytes(out1, "sweep.csv") == read_bytes(out2, "sweep.csv")
    assert read_bytes(out1, "report.json") == read_bytes(out2, "report.json")
    states = os.path.join("trajectory", "states.npy")
    assert read_bytes(out1, states) == read_bytes(out2, states)
    m1, m2 = read_json(out1, "manifest.json"), read_json(out2, "manifest.json")
    for key in ("started_unix", "wall_time_seconds"):
        m1.pop(key), m2.pop(key)
    assert m1 == m2


def test_continuity_requires_family(tmp_path):
    code, out = run(tmp_path, "continuity")
    assert code == 1
    assert "control_family" in read_json(out, "error.json")["detail"]


def test_continuity_writes_table(tmp_path):
    payload = copy.deepcopy(BASE)
    payload["domain"]["radius"] = 2.0
    payload["control_family"] = {"kind": "sine_rates", "rates": [1, 2],
                                 "K": 10, "amplitude": 1.0}
    payload["control"] = {"kind": "zero", "K": 10}
    payload["penalty"]["sweep"] = {"n_start": 8.0, "n_max": 32.0,
                                   "tol_cauchy": 1e-8}
    code, out = run(tmp_path, "continuity", payload)
    assert code == 0
    lines = read_bytes(out, "continuity.csv").decode().splitlines()
    assert lines[0] == "label,cm_gap_sq,gap_H,gap_V,rho_sq,converged"
    assert [l.split(",")[0] for l in lines[1:]] == ["r1", "r2"]


def test_rate_subcommand_writes_result(tmp_path):
    payload = copy.deepcopy(BASE)
    payload["domain"]["radius"] = 5.0
    payload["event"] = {"kind": "terminal_ball", "radius": 0.02,
                        "complement": True}
    payload["rate"] = {"K": 2, "max_iters": 25, "stag_window": 8}
    payload["penalty"]["n_event"] = 32.0
    code, out = run(tmp_path, "rate", payload)
    assert code == 0
    rate = read_json(out, "rate.json")
    assert rate["I_star"] >= 0.0
    assert isinstance(rate["feasible"], bool)
    assert rate["event"]["kind"] == "terminal_ball"
    assert len(rate["control_values"][0]) == 2


def test_all_merges_stage_reports(tmp_path):
    payload = copy.deepcopy(BASE)
    payload["event"] = {"kind": "terminal_ball", "radius": 0.05,
                        "complement": True}
    code, out = run(tmp_path, "all", payload)
    assert code == 0
    rep = read_json(out, "report.json")
    assert set(rep) == {"validate_domain", "penalty_sweep", "cauchy", "mc"}
    assert rep["validate_domain"]["passed"] is True
    man = read_json(out, "manifest.json")
    assert "sweep.csv" in man["outputs"] and "mc.csv" in man["outputs"]
    assert os.path.exists(os.path.join(out, "cauchy.csv"))
