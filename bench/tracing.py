"""Step counting and span tracing around rspde's public functions.

Both install wrappers from outside the package, on the names where the
program looks them up (a module attribute such as
``rspde.solvers.solve_banded``, or a method on a class such as
``ObliqueField.grid_values``), and put the originals back on
``uninstall``.  Geometry queries are wrapped on the body each
``ExperimentConfig.build_domain`` call returns, which is the object the
solver queries, so an intersection's member projections inside Dykstra's
scheme run unwrapped and count toward the outer query.

``StepCounter`` stays installed in every run, traced or not: it adds the
``steps`` of each ``solve_penalized_spde`` result, which is what
``steps_per_s`` divides by.

``Tracer`` records one span (name, start, end, parent) per wrapped call
into flat arrays kept in memory, and writes them to one ``.npz`` file at
the end of the run.  A span's self time is its duration minus the
durations of its children; calls run on one thread, so children never
overlap.  Inside a geometry or config span, calls into the same layer
(an intersection's membership test, ``from_file`` calling ``from_dict``)
are not recorded again, so a layer's time is never counted twice.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from array import array

import numpy as np

MB = float(1 << 20)

_SOLVE_SITES = ("rspde.solvers", "rspde.ldp", "rspde.cli")
_NO_NESTING = ("geometry", "config")


def _module(name):
    return importlib.import_module(name)


def _replace(target, attr, make):
    """Swap target.attr for make(original) and return what to restore."""
    raw = target.__dict__[attr] if isinstance(target, type) else getattr(target, attr)
    if isinstance(raw, classmethod):
        setattr(target, attr, classmethod(make(raw.__func__)))
    else:
        setattr(target, attr, make(raw))
    return target, attr, raw


def _restore(saved):
    for target, attr, raw in reversed(saved):
        setattr(target, attr, raw)


class StepCounter:
    """Counts the time steps that solver results hold."""

    def __init__(self):
        self.steps = 0
        self._saved = []

    def install(self):
        for name in _SOLVE_SITES:
            self._saved.append(_replace(_module(name), "solve_penalized_spde",
                                        self._wrap))

    def uninstall(self):
        _restore(self._saved)
        self._saved = []

    def reset(self):
        self.steps = 0

    def _wrap(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            traj = fn(*args, **kwargs)
            self.steps += traj.steps
            return traj
        return counted


class Tracer:
    """In-memory span recorder plus the per-layer counts taken beside it."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = []
        self._saved = []
        self.ops = []  # (first span, end span) of each traced operation
        self._reset_counts()

    def _reset_counts(self):
        self.points_queried = 0
        self.points_moved = 0
        self.state_bytes = 0
        self.iterations = 0
        self.saved_dirs = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- wrappers --------------------------------------------------------

    def _wrapper(self, name, after=None):
        nid = self._id(name)
        layer = name.split(".")[0]
        skip_ids = ({self._id(n) for n in self.names if n.startswith(layer + ".")}
                    if layer in _NO_NESTING else None)
        stack, name_id = self._stack, self.name_id
        start, end, parent = self.start, self.end, self.parent

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if skip_ids is not None and stack and name_id[stack[-1]] in skip_ids:
                    return fn(*args, **kwargs)
                idx = len(start)
                name_id.append(nid)
                parent.append(stack[-1] if stack else -1)
                end.append(0.0)
                stack.append(idx)
                start.append(time.perf_counter())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end[idx] = time.perf_counter()
                    stack.pop()
                if after is not None:
                    after(args, result)
                return result
            return traced
        return make

    def _after_solve(self, args, traj):
        s = traj.series
        nbytes = traj.states.nbytes + sum(getattr(s, f).nbytes for f in s.FIELDS)
        if traj.measure is not None:
            nbytes += traj.measure.increments.nbytes + traj.measure.magnitude.nbytes
        self.state_bytes = max(self.state_bytes, nbytes)

    def _after_project(self, args, result):
        points = args[0]
        self.points_queried += points.shape[0]
        self.points_moved += int(np.count_nonzero(np.any(result != points, axis=1)))

    def _after_save(self, args, result):
        self.saved_dirs.append(args[1])

    def _after_minimize(self, args, result):
        self.iterations += sum(t["iterations"] for t in result.trace)

    def _sites(self):
        solvers = _module("rspde.solvers")
        ldp = _module("rspde.ldp")
        cli = _module("rspde.cli")
        fields = _module("rspde.fields")
        sites = []
        for name in _SOLVE_SITES:
            sites.append((_module(name), "solve_penalized_spde", "solvers.solve",
                          self._after_solve))
        sites += [
            (solvers, "solve_banded", "solvers.banded", None),
            (ldp, "sample_brownian", "solvers.brownian", None),
            (cli, "sample_brownian", "solvers.brownian", None),
            (solvers.ReplicaPlan, "seed_for", "solvers.seed", None),
        ]
        coeffs = _module("rspde.coefficients").ModelCoefficients
        sites += [
            (_module("rspde.geometry").ObliqueField, "grid_values", "geometry.gamma", None),
            (coeffs, "drift", "coefficients.drift", None),
            (coeffs, "diffusion", "coefficients.diffusion", None),
        ]
        for target, attr in ((solvers, "sup_series"), (solvers, "v_series"),
                             (solvers, "lap_series"), (fields, "sup_series"),
                             (fields, "v_series")):
            sites.append((target, attr, "fields.series", None))
        sites.append((_module("rspde.trajectory").Trajectory, "save",
                      "trajectory.save", self._after_save))
        for target in (solvers, ldp, _module("rspde.diagnostics")):
            sites.append((target, "state_gap", "trajectory.state_gap", None))
        config = _module("rspde.config").ExperimentConfig
        sites += [
            (config, "build_domain", None, None),
            (cli, "estimate_report", "diagnostics.report", None),
            (cli, "mc_rows", "ldp.mc_rows", None),
            (cli, "minimize_rate", "ldp.minimize_rate", self._after_minimize),
            (ldp.EventSpec, "occurred", "ldp.event", None),
            (ldp.EventSpec, "shortfall", "ldp.event", None),
            (config, "from_file", "config.load", None),
            (config, "from_dict", "config.load", None),
            (cli, "main", "cli.main", None),
        ]
        return sites

    def _instrument_domain(self, fn):
        """Wrap the queries of each body the config builds, on the instance,
        so the calls the solver makes are traced and the member queries
        inside Dykstra's scheme pay nothing."""
        project = self._wrapper("geometry.project", self._after_project)
        contains = self._wrapper("geometry.contains")

        @functools.wraps(fn)
        def build_domain(cfg):
            domain = fn(cfg)
            domain.project_many = project(domain.project_many)
            domain.contains_many = contains(domain.contains_many)
            return domain
        return build_domain

    def install(self):
        sites = self._sites()
        for name in ("geometry.project", "geometry.contains"):
            self._id(name)
        for _, _, name, _ in sites:
            if name is not None:
                self._id(name)
        for target, attr, name, after in sites:
            make = (self._instrument_domain if name is None
                    else self._wrapper(name, after))
            self._saved.append(_replace(target, attr, make))

    def uninstall(self):
        _restore(self._saved)
        self._saved = []

    # -- one traced operation --------------------------------------------

    def begin_op(self):
        self._reset_counts()
        self._op_first = len(self.start)

    def end_op(self, out_dir, steps):
        """Per-layer metrics of the operation since ``begin_op``."""
        lo, hi = self._op_first, len(self.start)
        self.ops.append((lo, hi))
        ids = np.array(self.name_id[lo:hi], dtype=np.int64)
        start = np.array(self.start[lo:hi])
        dur = np.array(self.end[lo:hi]) - start
        parent = np.array(self.parent[lo:hi], dtype=np.int64) - lo
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        own = dur - child

        def pick(name):
            return ids == self._ids[name]

        def total(name):
            return float(dur[pick(name)].sum())

        def own_total(name):
            return float(own[pick(name)].sum())

        def count(name):
            return int(np.count_nonzero(pick(name)))

        solves = pick("solvers.solve")
        evals = 0
        for i in np.flatnonzero(pick("ldp.minimize_rate")):
            inside = (start >= start[i]) & (start < start[i] + dur[i])
            evals += int(np.count_nonzero(solves & inside))
        files, nbytes = tree_size(self.saved_dirs)
        out_files, _ = tree_size([out_dir])
        return {
            "solvers.calls": count("solvers.solve"),
            "solvers.steps": steps,
            "solvers.self_s": own_total("solvers.solve"),
            "solvers.us_per_step": 1e6 * total("solvers.solve") / max(steps, 1),
            "solvers.banded_s": total("solvers.banded"),
            "solvers.brownian_s": total("solvers.brownian"),
            "solvers.seed_s": total("solvers.seed"),
            "solvers.state_mb": self.state_bytes / MB,
            "geometry.project_calls": count("geometry.project"),
            "geometry.points_queried": self.points_queried,
            "geometry.exterior_ratio": (self.points_moved / self.points_queried
                                        if self.points_queried else 0.0),
            "geometry.project_s": total("geometry.project"),
            "geometry.contains_s": total("geometry.contains"),
            "geometry.gamma_s": total("geometry.gamma"),
            "coefficients.drift_s": total("coefficients.drift"),
            "coefficients.diffusion_s": total("coefficients.diffusion"),
            "fields.series_s": total("fields.series"),
            "trajectory.save_s": total("trajectory.save"),
            "trajectory.files_written": files,
            "trajectory.bytes_written": nbytes,
            "trajectory.state_gap_s": total("trajectory.state_gap"),
            "diagnostics.report_s": total("diagnostics.report"),
            "ldp.mc_self_s": own_total("ldp.mc_rows"),
            "ldp.event_s": total("ldp.event"),
            "ldp.objective_evals": evals,
            "ldp.iterations": self.iterations,
            "ldp.evals_per_iteration": (evals / self.iterations
                                        if self.iterations else 0.0),
            "ldp.minimize_self_s": own_total("ldp.minimize_rate"),
            "config.load_s": total("config.load"),
            "cli.self_s": own_total("cli.main"),
            "cli.output_files": out_files,
            "trace.spans": hi - lo,
        }

    def write(self, path):
        """All spans of the run in one file."""
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.array(self.name_id),
            start=np.array(self.start), end=np.array(self.end),
            parent=np.array(self.parent),
            ops=np.array(self.ops, dtype=np.int64).reshape(-1, 2))


def tree_size(dirs):
    """(files, bytes) under the given directories."""
    files = 0
    nbytes = 0
    for top in dirs:
        for root, _, names in os.walk(top):
            for name in names:
                files += 1
                nbytes += os.path.getsize(os.path.join(root, name))
    return files, nbytes
