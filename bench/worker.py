"""One fresh benchmark process.

    worker.py setup --config PATH
        import rspde.cli, load the config and build the model; print the
        time that took.
    worker.py run --workload NAME --config PATH --work DIR --seconds S --trace 0|1
        the same set-up, then whole rounds of ``rspde.cli.main`` calls until
        S seconds have passed; print one JSON summary of every call.

Only the standard library is imported before the set-up clock stops, so
the import of numpy, scipy and jsonschema counts as set-up.  The caller
puts the checkout's ``src`` on PYTHONPATH and pins BLAS threads to 1.
"""

import argparse
import json
import os
import resource
import shutil
import time
import traceback


def set_up(config_path):
    """Seconds to import rspde.cli, load the config and build the model."""
    t0 = time.perf_counter()
    import rspde.cli  # noqa: F401
    from rspde.config import ExperimentConfig

    cfg = ExperimentConfig.from_file(config_path)
    dom = cfg.build_domain()
    cfg.build_gamma(dom)
    cfg.build_coefficients()
    cfg.build_u0()
    cfg.build_control()
    cfg.build_event()
    return time.perf_counter() - t0


def run(args):
    setup_s = set_up(args.config)

    import rspde.cli as cli
    from tracing import StepCounter, Tracer, tree_size
    from workloads import WORKLOADS, CheckFailed

    workload = WORKLOADS[args.workload]
    with open(args.config, encoding="utf-8") as fh:
        raw = json.load(fh)
    counter = StepCounter()
    counter.install()
    tracer = Tracer() if args.trace else None

    def operation(index, traced):
        out = os.path.join(args.work, f"op{index}")
        argv = [workload.subcommand, "--config", args.config, "--out", out,
                "--workers", "1", "--quiet"]
        counter.reset()
        if traced:
            tracer.install()
            tracer.begin_op()
        error = None
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # an escaped exception fails this call, not the run
            code = 1
            error = traceback.format_exc(limit=-1).strip()
        finally:
            wall = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        if code != 0:
            error = error or f"rspde exited with code {code}"
        else:
            try:
                workload.check(out, raw)
            except CheckFailed as err:
                error = str(err)
            except Exception:  # a malformed output fails the check
                error = traceback.format_exc(limit=-1).strip()
        record = {"traced": traced, "wall_s": wall, "steps": counter.steps,
                  "exit_code": code, "error": error,
                  "output_bytes": tree_size([out])[1]}
        if traced:
            record["layers"] = tracer.end_op(out, counter.steps)
        shutil.rmtree(out, ignore_errors=True)
        return record

    # An untraced call precedes each traced one, so a traced run measures
    # its own overhead against the same round.
    round_ = (False, True) if args.trace else (False,)
    ops = []
    began = time.perf_counter()
    while True:
        for traced in round_:
            ops.append(operation(len(ops), traced))
        if time.perf_counter() - began >= args.seconds:
            break
    counter.uninstall()
    if tracer is not None:
        tracer.write(args.spans)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"setup_s": setup_s, "peak_rss_mb": peak_kb / 1024.0, "ops": ops}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    p_setup = sub.add_parser("setup")
    p_setup.add_argument("--config", required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("--workload", required=True)
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--work", required=True)
    p_run.add_argument("--seconds", type=float, required=True)
    p_run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p_run.add_argument("--spans", default=None)
    args = ap.parse_args()
    if args.mode == "setup":
        result = {"setup_s": set_up(args.config)}
    else:
        result = run(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
