"""Time-discrete trajectories, reflection measures, and their serialization.

A trajectory stores every time-step state (K+1 of them, including t = 0)
together with per-step diagnostic series, so every report downstream is
computed on the solver's own time grid.  It saves every state as one
float64 ``states.npy`` array, so the states load back exactly.

The reflection measure collects the penalty increments

    eta(step k, point j) = n_pen * gamma(u) * |u - pi(u)| * dt * dx

as a vector density per (step, point), plus the scalar magnitude channel
k with the same increments stripped of their direction.  Its total
variation is the sum of the Euclidean norms of the vector increments.

Every reader of solver output (the total variation, ``state_gap``, and
the reports of ``diagnostics``) takes a run or a chunk of B runs and is
written once over the chunk's leading member axis: it returns a float for
a run and a (B,) array for a chunk, each member's value bit for bit what
that member alone gives, since each sums its own block (``member_sums``).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .fields import SpatialGrid

# Chunk computations whose temporaries are the size of their input (state
# differences, penalty diagnostics) run on slices of at most this many
# bytes of it, so that no temporary copies a large chunk whole.
SLICE_BYTES = 1 << 20


def row_slices(rows: int, row_bytes: int) -> list:
    """Slices of range(rows) of at most SLICE_BYTES (at least one row)."""
    per = max(1, SLICE_BYTES // row_bytes)
    return [slice(lo, lo + per) for lo in range(0, rows, per)]


def member_sums(values: np.ndarray) -> np.ndarray:
    """The sum of each member's block of a (B, ...) array, each summed as
    np.sum sums that block alone."""
    return values.reshape(len(values), -1).sum(axis=1)


def per_member(chunk: bool, values: np.ndarray):
    """``values``, one per member of a (B,) array, as they are for a
    chunk, or for a run (B = 1) its one value as a Python float."""
    return values if chunk else float(values[0])


@dataclass
class ReflectionMeasure:
    grid: SpatialGrid
    dt: float
    increments: np.ndarray  # (K, d, J) vector increments, dt*dx included
    magnitude: np.ndarray   # (K, J) scalar channel increments

    @property
    def total_variation(self):
        chunk = self.increments.ndim == 4
        inc = self.increments if chunk else self.increments[None]
        # on the 4-d array: reshaping the shared zeros of a chunk that
        # never penetrated would copy them
        norms = np.einsum("bkdj,bkdj->bkj", inc, inc)
        return per_member(chunk, member_sums(np.sqrt(norms, out=norms)))


@dataclass
class TrajectorySeries:
    """Per-state diagnostic series, each of length K+1 ((B, K+1) in a
    chunk).

    h_sq/v_sq/lap_sq are the squared H, V, and discrete-H^2 norms of the
    state; pen_* measure the penetration u - pi(u) in the H, L^1, and
    sup norms; pen_gamma is the alignment integral
    dx * sum_j <u_j, gamma(u_j)> |u_j - pi(u_j)| feeding the
    energy-weighted penetration estimate.
    """

    h_sq: np.ndarray
    v_sq: np.ndarray
    lap_sq: np.ndarray
    pen_h: np.ndarray
    pen_l1: np.ndarray
    pen_linf: np.ndarray
    pen_gamma: np.ndarray

    FIELDS = ("h_sq", "v_sq", "lap_sq", "pen_h", "pen_l1", "pen_linf", "pen_gamma")


@dataclass
class Trajectory:
    grid: SpatialGrid
    dt: float
    n_pen: float
    states: np.ndarray  # (K+1, d, J)
    series: TrajectorySeries
    measure: ReflectionMeasure = None
    epsilon: float = 0.0
    meta: dict = field(default_factory=dict)

    @property
    def steps(self) -> int:
        return self.states.shape[0] - 1

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.steps + 1) * self.dt

    # -- serialization -------------------------------------------------

    def save(self, directory) -> None:
        """Write every state, an index JSON, and the per-step series.

        Layout: index.json, series.csv (one line of repr() text per step:
        t, then the series in FIELDS order) and states.npy holding the
        (K+1, d, J) float64 states.
        """
        os.makedirs(directory, exist_ok=True)
        np.save(os.path.join(directory, "states.npy"), self.states)
        index = {
            "J": self.grid.J,
            "d": self.grid.d,
            "dt": repr(float(self.dt)),
            "n_pen": self.n_pen,
            "epsilon": self.epsilon,
            "steps": self.steps,
            "eta_total_variation": (repr(self.measure.total_variation)
                                    if self.measure is not None else None),
            "meta": self.meta,
        }
        with open(os.path.join(directory, "index.json"), "w") as fh:
            # dumps, not dump: with indent set, dump writes every token separately
            fh.write(json.dumps(index, indent=1, sort_keys=True) + "\n")
        table = np.column_stack([self.times] + [getattr(self.series, name)
                                                for name in TrajectorySeries.FIELDS])
        with open(os.path.join(directory, "series.csv"), "w", newline="") as fh:
            fh.write("t," + ",".join(TrajectorySeries.FIELDS) + "\n")
            fh.writelines(",".join(map(repr, row)) + "\n" for row in table.tolist())

    @classmethod
    def load(cls, directory) -> "Trajectory":
        """Rebuild a trajectory from ``save`` output: the states and the
        diagnostic series (thanks to repr round-tripping) come back exactly.
        Other index.json keys (the stride, snapshot_steps and times of
        older saves) are ignored.
        """
        with open(os.path.join(directory, "index.json")) as fh:
            index = json.load(fh)
        grid = SpatialGrid(J=index["J"], d=index["d"])
        states = np.load(os.path.join(directory, "states.npy"))
        shape = (index["steps"] + 1, grid.d, grid.J)
        if states.shape != shape:
            raise ValueError(f"states.npy shape {states.shape} does not match "
                             f"index.json {shape}")
        raw = np.loadtxt(os.path.join(directory, "series.csv"),
                         delimiter=",", skiprows=1)
        raw = np.atleast_2d(raw)
        series = TrajectorySeries(*[raw[:, i + 1] for i in range(len(TrajectorySeries.FIELDS))])
        meta = dict(index["meta"])
        if index.get("eta_total_variation") is not None:
            meta["eta_total_variation"] = float(index["eta_total_variation"])
        return cls(grid=grid, dt=float(index["dt"]), n_pen=index["n_pen"],
                   states=states, series=series, measure=None,
                   epsilon=index["epsilon"], meta=meta)


@dataclass
class TrajectoryChunk:
    """B independent runs on one grid and time step, held as batch arrays:
    states (B, K+1, d, J), each series field (B, K+1) and the measure's
    increments (B, K, d, J) and magnitude (B, K, J).  The runs may differ
    in their noise paths, their controls and their penalty levels;
    ``n_pen`` lists each run's.

    ``member(b)`` is run b as a Trajectory, and ``members(index)`` the
    runs a slice selects as a chunk, each of views of these arrays.  Every
    reader takes the chunk itself, so ``member`` is for handing a single
    run out.  ``steps`` counts the scheme steps the chunk holds summed over
    its members, B * K, as a solve of the B runs one at a time would.

    A chunk solved without its ``path`` keeps u(T) alone: its states are
    (B, 1, d, J), and the series that need every state (the three norms
    and pen_gamma) are one read-only NaN view of shape (B, K+1).  u(T),
    pen_h, pen_l1, pen_linf and the measure are those of the full solve.
    The readers of the path (``path_states``, and ``member``) raise
    ValueError on it.
    """

    grid: SpatialGrid
    dt: float
    n_pen: list
    states: np.ndarray
    series: TrajectorySeries
    measure: ReflectionMeasure
    metas: list
    epsilon: float = 0.0
    path: bool = True

    @property
    def steps(self) -> int:
        # pen_h has one value per state, kept or not
        return len(self.states) * (self.series.pen_h.shape[1] - 1)

    def member(self, b: int) -> Trajectory:
        path_states(self)
        return Trajectory(grid=self.grid, dt=self.dt, n_pen=self.n_pen[b],
                          epsilon=self.epsilon, meta=self.metas[b],
                          **self._views(b))

    def members(self, index: slice) -> "TrajectoryChunk":
        return replace(self, n_pen=self.n_pen[index], metas=self.metas[index],
                       **self._views(index))

    def _views(self, index) -> dict:
        """The states, series and measure of the members ``index`` selects,
        as views of this chunk's arrays."""
        s, m = self.series, self.measure
        return dict(
            states=self.states[index],
            series=TrajectorySeries(*[getattr(s, f)[index] for f in s.FIELDS]),
            measure=ReflectionMeasure(grid=self.grid, dt=self.dt,
                                      increments=m.increments[index],
                                      magnitude=m.magnitude[index]))


def path_states(run) -> np.ndarray:
    """Every state of a run or chunk, (K+1, d, J) or (B, K+1, d, J); a
    chunk solved without its path raises ValueError rather than pass
    u(T) off as a path."""
    if isinstance(run, TrajectoryChunk) and not run.path:
        raise ValueError("this chunk was solved with path=False and keeps "
                         "u(T) alone, not its path")
    return run.states


def gap_series(a, b) -> tuple:
    """h_norm^2 and v_norm^2 of u_a - u_b, (B, K+1) each, for runs or
    chunks on identical grids and time steps (a run against a chunk is
    compared with each member), formed a slice of members at a time."""
    states = path_states(a), path_states(b)
    if states[0].shape[-3:] != states[1].shape[-3:] or a.dt != b.dt:
        raise ValueError("two runs compared need identical grids and time steps")
    from .fields import sup_series, v_series

    sa, sb = np.broadcast_arrays(*(s if s.ndim == 4 else s[None]
                                   for s in states))
    B, count, d, J = sa.shape
    h, v = np.empty((B, count)), np.empty((B, count))
    for part in row_slices(B, sa[0].nbytes):
        diff = (sa[part] - sb[part]).reshape(-1, d, J)
        h[part] = sup_series(diff, a.grid.dx).reshape(-1, count)
        v[part] = v_series(diff, a.grid.dx).reshape(-1, count)
    return h, v


def state_gap(a, b) -> tuple:
    """Cauchy gap between runs or chunks on identical grids and time steps:

        cauchy_H = sup_t |u_a - u_b|_H^2
        cauchy_V = int_0^T |u_a - u_b|_V^2 dt   (left endpoint)
    """
    h, v = gap_series(a, b)
    chunk = max(a.states.ndim, b.states.ndim) == 4
    return (per_member(chunk, h.max(axis=1)),
            per_member(chunk, member_sums(v[:, :-1]) * a.dt))
