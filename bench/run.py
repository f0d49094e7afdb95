#!/usr/bin/env python3
"""The rspde benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload mc-free-1d --seed 7 --seconds 20 --trace 0

Run it from the root of a checkout; it runs the package under ``src``
without installing it.  The seed makes the workload's config; fresh
processes time the set-up; one more fresh process calls
``rspde.cli.main`` in whole rounds until ``--seconds`` have passed and
checks every call's output against the references in ``reference.py``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Outputs go under ``.bench_out/`` in the checkout; only a
traced run's span file is left there.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

# Thread pools of BLAS and OpenMP builds, pinned to one thread: the
# reference machine has two cores and the load is a single process.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")

# Set-up is timed in this many set-up-only processes plus the measured
# run's own process, and reported as the median.
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 60
# The measured process may overrun --seconds by one round of calls.
WORKER_TIMEOUT_S = 150

MB = float(1 << 20)


def _fail(message):
    print(f"error: {message}", file=sys.stderr)
    return 1


def _worker(argv, env, timeout):
    proc = subprocess.run([sys.executable, WORKER] + argv, cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {argv[0]} exited with {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _end_to_end(ops, setups, peak_rss_mb):
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(o["wall_s"] for o in ops),
        "steps_per_s": sum(o["steps"] for o in ops) / sum(o["wall_s"] for o in ops),
        "peak_rss_mb": peak_rss_mb,
        "output_mb": statistics.median(o["output_bytes"] for o in ops) / MB,
    }


def _per_layer(untraced, traced):
    out = {name: statistics.median(o["layers"][name] for o in traced)
           for name in traced[0]["layers"]}
    out["trace.overhead_s"] = (statistics.median(o["wall_s"] for o in traced)
                               - statistics.median(o["wall_s"] for o in untraced))
    return out


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative (it becomes replicas.base_seed)")

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "rspde", "cli.py")):
        return _fail(f"no rspde sources under {src}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, HERE, os.environ.get("PYTHONPATH")) if p)

    from workloads import WORKLOADS

    tag = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    out_root = os.path.join(ROOT, ".bench_out")
    work = os.path.join(out_root, tag)
    os.makedirs(work)
    try:
        config = os.path.join(work, "config.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(WORKLOADS[args.workload].make_config(args.seed), fh,
                      indent=1)
        setups = [_worker(["setup", "--config", config], env, PROBE_TIMEOUT_S)
                  ["setup_s"] for _ in range(SETUP_PROBES)]
        run_argv = ["run", "--workload", args.workload, "--config", config,
                    "--work", work, "--seconds", str(args.seconds),
                    "--trace", str(args.trace)]
        if args.trace:
            os.makedirs(os.path.join(out_root, "spans"), exist_ok=True)
            run_argv += ["--spans", os.path.join(out_root, "spans", tag + ".npz")]
        result = _worker(run_argv, env, WORKER_TIMEOUT_S)
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as err:
        return _fail(str(err))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = result["ops"]
    for i, op in enumerate(ops):
        if op["error"]:
            print(f"call {i} failed: {op['error']}", file=sys.stderr)
    untraced = [o for o in ops if not o["traced"]]
    if args.trace:
        values = _per_layer(untraced, [o for o in ops if o["traced"]])
        wanted = spec["per_layer"]
    else:
        values = _end_to_end(untraced, setups + [result["setup_s"]],
                             result["peak_rss_mb"])
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        return _fail(f"metrics not measured: {missing}")
    failed = sum(1 for o in ops if o["error"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
