"""Time-discrete trajectories, reflection measures, and their serialization.

A trajectory stores every time-step state (K+1 of them, including t = 0)
together with per-step diagnostic series, so every report downstream is
computed on the solver's own time grid and is invariant under the
snapshot stride, which only thins the serialized output.  The saved
states are one float64 ``states.npy`` array, so they load back exactly.

The reflection measure collects the penalty increments

    eta(step k, point j) = n_pen * gamma(u) * |u - pi(u)| * dt * dx

as a vector density per (step, point), plus the scalar magnitude channel
k with the same increments stripped of their direction.  Its total
variation is the sum of the Euclidean norms of the vector increments.
"""

from __future__ import annotations

import copy
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .fields import Field, SpatialGrid


@dataclass
class ReflectionMeasure:
    grid: SpatialGrid
    dt: float
    increments: np.ndarray  # (K, d, J) vector increments, dt*dx included
    magnitude: np.ndarray   # (K, J) scalar channel increments

    @property
    def total_variation(self) -> float:
        norms = np.sqrt(np.einsum("kdj,kdj->kj", self.increments, self.increments))
        return float(np.sum(norms))


@dataclass
class TrajectorySeries:
    """Per-state diagnostic series, each of length K+1 ((B, K+1) in a
    chunk).

    h_sq/v_sq/lap_sq are the squared H, V, and discrete-H^2 norms of the
    state; pen_* measure the penetration u - pi(u) in the H, L^1, and
    sup norms; pen_gamma is the alignment integral
    dx * sum_j <u_j, gamma(u_j)> |u_j - pi(u_j)| feeding the
    energy-weighted penetration estimate.

    A solve's series is ``deferred``: its three norms are computed, for
    every member of the chunk at once, the first time any of them is
    read, so a caller that reads only the penetration series or the
    states never pays for them.  A deep copy computes them first and
    owns every array.
    """

    h_sq: np.ndarray
    v_sq: np.ndarray
    lap_sq: np.ndarray
    pen_h: np.ndarray
    pen_l1: np.ndarray
    pen_linf: np.ndarray
    pen_gamma: np.ndarray

    FIELDS = ("h_sq", "v_sq", "lap_sq", "pen_h", "pen_l1", "pen_linf", "pen_gamma")
    NORMS = FIELDS[:3]

    @classmethod
    def deferred(cls, norms, **pen) -> "TrajectorySeries":
        """The series with the pen_* arrays ``pen`` whose h_sq, v_sq and
        lap_sq are ``norms()``, called once, on the first read of any."""
        series = cls.__new__(cls)
        series.__dict__.update(pen, _norms=norms)
        return series

    def __getattr__(self, name):
        # reached only for an attribute not set: a norm not yet computed.
        # The thunk is dropped only once it has returned, so a failed
        # computation raises its own error again on the next read.
        norms = self.__dict__.get("_norms") if name in self.NORMS else None
        if norms is None:
            raise AttributeError(name)
        try:
            values = norms()
        except AttributeError as exc:
            # not "no such field": getattr and hasattr would swallow it
            raise RuntimeError(f"computing {name} failed") from exc
        self.h_sq, self.v_sq, self.lap_sq = values
        del self.__dict__["_norms"]
        return self.__dict__[name]

    def __deepcopy__(self, memo):
        return TrajectorySeries(*[copy.deepcopy(getattr(self, name), memo)
                                  for name in self.FIELDS])


@dataclass
class Trajectory:
    grid: SpatialGrid
    dt: float
    n_pen: float
    states: np.ndarray  # (K+1, d, J)
    series: TrajectorySeries
    measure: ReflectionMeasure = None
    stride: int = 1
    epsilon: float = 0.0
    meta: dict = field(default_factory=dict)

    @property
    def steps(self) -> int:
        return self.states.shape[0] - 1

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.steps + 1) * self.dt

    @property
    def T(self) -> float:
        return self.steps * self.dt

    @property
    def terminal(self) -> Field:
        return Field(self.grid, self.states[-1])

    def snapshot_indices(self) -> np.ndarray:
        idx = np.arange(0, self.steps + 1, self.stride)
        if idx[-1] != self.steps:
            idx = np.append(idx, self.steps)
        return idx

    # -- serialization -------------------------------------------------

    def save(self, directory) -> None:
        """Write the snapshot states, an index JSON, and the per-step series.

        Layout: index.json, series.csv, and states.npy holding the
        (snapshots, d, J) float64 states at the stride-spaced step indices
        listed in index.json (terminal state always included).
        """
        os.makedirs(directory, exist_ok=True)
        idx = self.snapshot_indices()
        np.save(os.path.join(directory, "states.npy"), self.states[idx])
        # one line of repr() text per step: t, then the series in FIELDS
        # order; index.json's times are the first cells of the snapshot lines
        table = np.column_stack([self.times] + [getattr(self.series, name)
                                                for name in TrajectorySeries.FIELDS])
        lines = [",".join(map(repr, row)) for row in table.tolist()]
        index = {
            "times": [lines[k].split(",", 1)[0] for k in idx],
            "J": self.grid.J,
            "d": self.grid.d,
            "dt": repr(float(self.dt)),
            "n_pen": self.n_pen,
            "stride": self.stride,
            "epsilon": self.epsilon,
            "steps": self.steps,
            "snapshot_steps": [int(k) for k in idx],
            "eta_total_variation": (repr(self.measure.total_variation)
                                    if self.measure is not None else None),
            "meta": self.meta,
        }
        with open(os.path.join(directory, "index.json"), "w") as fh:
            # dumps, not dump: with indent set, dump writes every token separately
            fh.write(json.dumps(index, indent=1, sort_keys=True) + "\n")
        with open(os.path.join(directory, "series.csv"), "w", newline="") as fh:
            fh.write("t," + ",".join(TrajectorySeries.FIELDS) + "\n")
            fh.writelines(line + "\n" for line in lines)

    @classmethod
    def load(cls, directory) -> "Trajectory":
        """Rebuild a trajectory from ``save`` output.

        States are populated at the serialized snapshot steps (all steps
        when stride = 1) and are NaN elsewhere; both the states and the
        diagnostic series (thanks to repr round-tripping) come back exactly.
        """
        with open(os.path.join(directory, "index.json")) as fh:
            index = json.load(fh)
        grid = SpatialGrid(J=index["J"], d=index["d"])
        steps = index["steps"]
        snaps = index["snapshot_steps"]
        saved = np.load(os.path.join(directory, "states.npy"))
        if saved.shape != (len(snaps), grid.d, grid.J):
            raise ValueError(
                f"states.npy shape {saved.shape} does not match index.json "
                f"({len(snaps)}, {grid.d}, {grid.J})")
        states = np.full((steps + 1, grid.d, grid.J), np.nan)
        states[snaps] = saved
        raw = np.loadtxt(os.path.join(directory, "series.csv"),
                         delimiter=",", skiprows=1)
        raw = np.atleast_2d(raw)
        series = TrajectorySeries(*[raw[:, i + 1] for i in range(len(TrajectorySeries.FIELDS))])
        meta = dict(index["meta"])
        if index.get("eta_total_variation") is not None:
            meta["eta_total_variation"] = float(index["eta_total_variation"])
        return cls(grid=grid, dt=float(index["dt"]), n_pen=index["n_pen"],
                   states=states, series=series, measure=None,
                   stride=index["stride"], epsilon=index["epsilon"], meta=meta)


@dataclass
class TrajectoryChunk:
    """B independent runs on one grid and time step, held as batch arrays:
    states (B, K+1, d, J), each series field (B, K+1) and the measure's
    increments (B, K, d, J) and magnitude (B, K, J).  The runs may differ
    in their noise paths, their controls and their penalty levels;
    ``n_pen`` lists each run's.

    ``member(b)`` is run b as a Trajectory whose arrays are views of
    these, so every single-run report applies to it unchanged; its norm
    series are computed, for every member, when any member first reads
    one (see ``TrajectorySeries``).  ``steps``
    counts the scheme steps the chunk holds summed over its members,
    B * K, as a solve of the B runs one at a time would.
    """

    grid: SpatialGrid
    dt: float
    n_pen: list
    states: np.ndarray
    series: TrajectorySeries
    measure: ReflectionMeasure
    metas: list
    stride: int = 1
    epsilon: float = 0.0

    @property
    def steps(self) -> int:
        return self.states.shape[0] * (self.states.shape[1] - 1)

    def member(self, b: int) -> Trajectory:
        s, m = self.series, self.measure
        return Trajectory(
            grid=self.grid, dt=self.dt, n_pen=self.n_pen[b],
            states=self.states[b],
            series=TrajectorySeries.deferred(
                lambda: tuple(getattr(s, f)[b] for f in s.NORMS),
                **{f: getattr(s, f)[b] for f in s.FIELDS if f not in s.NORMS}),
            measure=ReflectionMeasure(grid=self.grid, dt=self.dt,
                                      increments=m.increments[b],
                                      magnitude=m.magnitude[b]),
            stride=self.stride, epsilon=self.epsilon, meta=self.metas[b])


def state_gap(a: Trajectory, b: Trajectory) -> tuple:
    """Cauchy gap between two runs on identical grids and time steps:

        cauchy_H = sup_t |u_a - u_b|_H^2
        cauchy_V = int_0^T |u_a - u_b|_V^2 dt   (left endpoint)
    """
    if a.states.shape != b.states.shape or a.dt != b.dt:
        raise ValueError("state_gap needs identical grids and time steps")
    from .fields import sup_series, v_series

    diff = a.states - b.states
    h = sup_series(diff, a.grid.dx)
    v = v_series(diff, a.grid.dx)
    return float(np.max(h)), float(np.sum(v[:-1]) * a.dt)
