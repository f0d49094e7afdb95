"""Semi-implicit solvers for the penalized heat equation on [0, 1].

State u(t) is a d-component field with homogeneous Dirichlet ends,
confined to a convex body O by the penalty drift

    -n_pen * gamma(u) * |u - pi(u)|,

which converges to oblique reflection along gamma as n_pen -> infinity.
One step of the scheme treats the Laplacian implicitly and everything
else explicitly at the pre-step state:

    (I - dt * Lap_h) u_{k+1} = u_k + dt * [ b(u_k) + sigma(u_k) hdot_k
                               - n_pen gamma(u_k) |u_k - pi(u_k)| ]
                               + sqrt(eps) * sigma(u_k) dB_k

One loop steps a chunk of B independent members, which share the model
and the grid and may differ in their noise paths and in their controls,
as one (d, B * J) state; a single run is the chunk of one.  The
coefficients and the projection act pointwise, so every step evaluates
them once on the chunk's B * J points.  I - dt * Lap_h is the same
tridiagonal matrix for every component, member and step, so each solve
factors it once (LAPACK dgttrf) and every step only back-substitutes
(dgttrs), all B * d columns at once.  Work that does not depend on the
state is done before the loop: a zero or constant drift is evaluated
once, and for a constant sigma the control and noise terms of every step
come from one product per path (sigma = 0 adds nothing).  Members never
mix: each member's states equal those of its own single run bit for bit.
A chunk comes back as a TrajectoryChunk, whose ``steps`` counts
member-steps (B * K); the Monte Carlo replicas and the rate minimizer's
skeleton solves (one control per member) size their chunks by
``ldp.CHUNK_BYTES``.

Each step projects the state once.  A step with no point outside skips
the penalty; otherwise every member takes dist * gamma, zero at its
inside points.  dist * gamma needs only the gap u - pi(u): for both
supported gamma rules it is a fixed linear map of it
(``ObliqueField.scaled_directions``), so no direction field is formed.
The gaps of the penetrating states are stored, and the penetration
series (pen_h, pen_l1, pen_linf, pen_gamma) and the reflection measure
are computed from them after the loop; a chunk that never penetrates
stores nothing and shares one array of zeros among its members.
Stability of the explicit penalty relaxation requires
dt * n_pen <= 1/2, enforced at entry.

The skeleton map (controlled, noise-free) is ``solve_penalized_spde`` at
its default epsilon = 0, where the noise path is ignored, so the skeleton
and the stochastic map are one code path.

``solve_skeleton`` drives n_pen through a geometric sweep and stops when
consecutive members are Cauchy in  sup_t |.|_H^2 + int |.|_V^2 dt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs
# Unused here; kept importable because benchmark tracing patches it by name.
from scipy.linalg import solve_banded  # noqa: F401

from .coefficients import ModelCoefficients
from .controls import Control
from .diagnostics import energy_report, penetration_report
from .fields import Field, lap_series, sup_series, v_series
from .geometry import ConvexDomain, ObliqueField
from .trajectory import (ReflectionMeasure, Trajectory, TrajectoryChunk,
                         TrajectorySeries, state_gap)

# Explicit penalty relaxation factor dt * n_pen must stay at or below this.
PENALTY_STABILITY = 0.5


class SolverError(RuntimeError):
    """Raised for invalid solver input or a detected blow-up."""

    def __init__(self, message: str, step: int = None):
        super().__init__(message)
        self.step = step


@dataclass
class NoisePath:
    """Brownian increments (m, K) with their seed.

    Reproducible bit for bit from (seed, shape): increments are i.i.d.
    N(0, dt) drawn from numpy's counter-based Philox generator.
    """

    dt: float
    increments: np.ndarray
    seed: int


def sample_brownian(m: int, K: int, dt: float, seed: int) -> NoisePath:
    rng = np.random.Generator(np.random.Philox(seed))
    inc = rng.normal(0.0, math.sqrt(dt), size=(m, K))
    return NoisePath(dt=dt, increments=inc, seed=seed)


@dataclass
class ReplicaPlan:
    """Replica count with counter-based per-replica seed derivation.

    seed_for(i) mixes (base_seed, i) through numpy's SeedSequence spawn
    keys, so replica i's stream is independent of every other index and
    of the order or worker the replicas run on.
    """

    base_seed: int
    count: int

    def seed_for(self, index: int) -> int:
        ss = np.random.SeedSequence(self.base_seed, spawn_key=(index,))
        return int(ss.generate_state(1, np.uint64)[0])


def resolve_time_grid(T: float, dt_target: float, n_pen: float,
                      control_K: int = 1) -> tuple:
    """Pick (K, dt) with dt <= min(dt_target, stability bound) and K an
    integer multiple of the control grid so refinement is exact."""
    if not T > 0:
        raise SolverError("horizon T must be positive")
    bound = PENALTY_STABILITY / n_pen
    dt_cap = min(dt_target, bound)
    dt_ctl = T / control_K
    per = max(1, math.ceil(dt_ctl / dt_cap - 1e-12))
    K = control_K * per
    return K, T / K


def solve_penalized_spde(coeffs: ModelCoefficients, domain: ConvexDomain,
                         gamma: ObliqueField, u0: Field, n_pen: float,
                         dt: float, steps: int, epsilon: float = 0.0,
                         noise: NoisePath | list = None,
                         control: Control | list = None,
                         stride: int = 1) -> Trajectory | TrajectoryChunk:
    """Run the penalized semi-implicit scheme for ``steps`` steps of ``dt``.

    ``noise`` and ``control`` are each one value, and the result one
    Trajectory; or either is a list with one entry per member of a chunk
    that shares everything else, and the result a TrajectoryChunk.  A
    single value is shared by every member; two lists must have the same
    length.  With epsilon = 0 the noise is ignored and the run coincides
    with the skeleton solve for the same control.  Raises SolverError
    when the initial state leaves the domain, the stability bound fails,
    the control or noise grids are incompatible, or the state blows up
    (the offending step index is attached; in a chunk, that of the
    lowest-index member that blows up).
    """
    grid = u0.grid
    d, J = grid.d, grid.J
    dx = grid.dx
    controls = control if isinstance(control, list) else [control]
    members = noise if isinstance(noise, list) else [noise] * len(controls)
    B = len(members)
    if not B or not controls:
        raise SolverError("a chunk needs at least one member")
    if isinstance(control, list) and len(controls) != B:
        raise SolverError(f"{len(controls)} controls for {B} noise paths")
    if not n_pen > 0:
        raise SolverError("n_pen must be positive")
    if dt * n_pen > PENALTY_STABILITY * (1 + 1e-12):
        raise SolverError(
            f"dt = {dt:g} violates the penalty stability bound "
            f"{PENALTY_STABILITY:g}/n_pen = {PENALTY_STABILITY / n_pen:g}")
    if domain.dim != d:
        raise SolverError("domain dimension does not match the field")
    if not domain.contains_many(u0.values.T, tol=1e-9).all():
        raise SolverError("initial state leaves the domain")
    if epsilon < 0:
        raise SolverError("epsilon must be nonnegative")

    if control is not None:
        for ctl in controls:
            if ctl.m != coeffs.m:
                raise SolverError(
                    "control dimension does not match the noise dimension")
            if abs(ctl.T - steps * dt) > 1e-9 * max(1.0, ctl.T):
                raise SolverError("control horizon does not match steps * dt")
    use_noise = epsilon > 0.0
    if use_noise:
        for path in members:
            if path is None:
                raise SolverError("epsilon > 0 needs a noise path")
            if path.increments.shape != (coeffs.m, steps):
                raise SolverError(
                    f"noise shape {path.increments.shape} != ({coeffs.m}, {steps})")
            if abs(path.dt - dt) > 1e-12 * dt:
                raise SolverError(f"noise dt {path.dt!r} != solver dt {dt!r}")
        sqrt_eps = math.sqrt(epsilon)

    # I - dt*Lap_h is one tridiagonal matrix for every component, member
    # and step: factor it here, back-substitute all B*d columns per step.
    r = dt / (dx * dx)
    off = np.full(J - 1, -r)
    *lu, info = dgttrf(off, np.full(J, 1.0 + 2.0 * r), off)
    if info != 0:
        raise SolverError(f"heat operator factorization failed (info = {info})")

    # state-independent work, done once: a zero or constant drift, and for
    # a constant sigma the control and noise terms of every step
    b_fixed = coeffs.state_free_drift()
    if b_fixed is not None:
        b_fixed = b_fixed[:, None]
    paths = []                       # (scale, (1 or B, m, steps) paths)
    if control is not None:
        paths.append((dt, np.stack([ctl.values_on(steps) for ctl in controls])))
    if use_noise:
        paths.append((sqrt_eps, np.stack([p.increments for p in members])))
    sig_fixed = coeffs.state_free_diffusion()
    state_sig = sig_fixed is None and bool(paths)
    terms = []
    if sig_fixed is not None:
        if not sig_fixed.any():
            paths = []
        # each (steps, d, 1 or B, 1), stacked from one path's product at a
        # time, as a single run forms it
        terms = [np.stack([c * np.einsum("dm,mk->kd", sig_fixed, path)
                           for path in stack], axis=2)[..., None]
                 for c, stack in paths]

    # The state is one (d, B * J) array, member b in columns b*J:(b+1)*J,
    # updated in place: u.T is the (B * J, d) batch of points, ``blocks``
    # its (d, B, J) view by member, and ``cols`` its (J, B * d) view, the
    # right-hand sides that dgttrs overwrites with the next state.  The
    # states are stored by member, (B, steps + 1, d, J), through their
    # (steps + 1, d, B, J) view ``by_step``.
    u = np.empty((d, B * J))
    blocks = u.reshape(d, B, J)
    cols = u.reshape(d * B, J).T
    blocks[:] = u0.values[:, None, :]
    states = np.empty((B, steps + 1, d, J))
    by_step = states.transpose(1, 2, 0, 3)
    by_step[0] = blocks
    # u - pi(u) of every state, (steps + 1, B * J, d), allocated at the
    # first state that penetrates; the penalty diagnostics come from it
    # after the loop
    gaps = None

    def record_gap(k):
        """Store u - pi(u) of state k and return it as one (B * J, d)
        array, or None when every grid point lies inside the domain."""
        nonlocal gaps
        points = u.T
        proj = domain.project_many(points)
        if proj is points:                        # all inside, returned as is
            return None
        gap = points - proj
        if not gap.any():
            return None
        if gaps is None:
            gaps = np.zeros((steps + 1, B * J, d))
        gaps[k] = gap
        return gap

    blown = {}                                    # member -> step

    def retire(bad, step):
        """Record the members flagged in ``bad`` as blown up at ``step``.
        Member 0's failure is final; any other member restarts from u0 so
        the rest run on, and the loop's end reports the lowest member."""
        for b in np.flatnonzero(bad):
            blown.setdefault(int(b), step)
        if 0 in blown:
            raise SolverError(f"state blew up at step {step}", step=step)
        blocks[:, bad] = u0.values[:, None, :]
        return float(np.abs(u).max())

    top = float(np.abs(u).max())
    for k in range(steps):
        # guard before any squaring can overflow
        if top > 1e150:
            top = retire(np.abs(blocks).max(axis=(0, 2)) > 1e150, k)
        # everything the step reads from u_k, before u is overwritten
        b = coeffs.drift(u) if b_fixed is None else b_fixed
        if state_sig:
            sig = coeffs.diffusion(u).reshape(d, coeffs.m, B, J)
        gap = record_gap(k)
        if gap is None:
            u += dt * b
        else:                                     # dist * gamma, 0 inside
            u += dt * (b - n_pen * gamma.scaled_directions(gap).T)
        for term in terms:
            blocks += term[k]
        if state_sig:
            for c, stack in paths:
                blocks += c * np.einsum("dmbj,bm->dbj", sig, stack[:, :, k])
        dgttrs(*lu, cols, overwrite_b=True)       # solves in place: u is u_{k+1}
        top = float(np.abs(u).max())
        if not math.isfinite(top):
            top = retire(~np.isfinite(np.abs(blocks).max(axis=(0, 2))), k + 1)
        by_step[k + 1] = blocks
    if blown:
        first = blown[min(blown)]
        raise SolverError(f"state blew up at step {first}", step=first)

    # terminal penetration for the sup statistics
    record_gap(steps)

    if gaps is not None:
        gaps = gaps.reshape(steps + 1, B, J, d).transpose(1, 0, 2, 3)
    flat = states.reshape(B * (steps + 1), d, J)
    pen, increments, magnitude = _penalty_diagnostics(states, gaps, gamma,
                                                      n_pen, dt, dx)
    series = TrajectorySeries(
        h_sq=sup_series(flat, dx).reshape(B, steps + 1),
        v_sq=v_series(flat, dx).reshape(B, steps + 1),
        lap_sq=lap_series(flat, dx).reshape(B, steps + 1), **pen)
    measure = ReflectionMeasure(grid=grid, dt=dt, increments=increments,
                                magnitude=magnitude)
    info = {"b": coeffs.b_name, "sigma": coeffs.sigma_name,
            "controlled": control is not None}
    metas = [dict(info, seed=p.seed, generator="philox") if use_noise
             else dict(info) for p in members]
    chunk = TrajectoryChunk(grid=grid, dt=dt, n_pen=n_pen, states=states,
                            series=series, measure=measure, metas=metas,
                            stride=stride, epsilon=epsilon)
    return (chunk if isinstance(noise, list) or isinstance(control, list)
            else chunk.member(0))


def _penalty_diagnostics(states, gaps, gamma: ObliqueField, n_pen: float,
                         dt: float, dx: float) -> tuple:
    """The pen_* series of every member's states and the reflection
    measure's (increments, magnitude), from the gaps u - pi(u) of every
    state ((B, steps + 1, J, d), or None when no state penetrated).
    All members are computed as one (B * (steps + 1), J, d) stack, a
    member that stays inside getting zeros from its zero gaps; when none
    penetrated, the members share one array of zeros."""
    B, count, d, J = states.shape
    steps = count - 1
    if gaps is None:
        zero = _shared_zeros(B, (count,))
        return (dict.fromkeys(("pen_h", "pen_l1", "pen_linf", "pen_gamma"), zero),
                _shared_zeros(B, (steps, d, J)), _shared_zeros(B, (steps, J)))
    gaps = np.ascontiguousarray(gaps).reshape(B * count, J, d)
    dist = np.sqrt(np.einsum("kjd,kjd->kj", gaps, gaps))
    scaled = gamma.scaled_directions(gaps)        # dist * gamma
    pen = {"pen_h": np.sqrt(dx * np.sum(dist * dist, axis=1)),
           "pen_l1": dx * np.sum(dist, axis=1),
           "pen_linf": np.abs(gaps).max(axis=(1, 2)),
           "pen_gamma": dx * np.einsum("kdj,kjd->k",
                                       states.reshape(B * count, d, J), scaled)}
    push = (n_pen * scaled).reshape(B, count, J, d)[:, :steps]
    increments = np.empty((B, steps, d, J))
    np.multiply(dt * dx, push.transpose(0, 1, 3, 2), out=increments)
    magnitude = (n_pen * dt * dx) * dist.reshape(B, count, J)[:, :steps]
    pen = {name: value.reshape(B, count) for name, value in pen.items()}
    return pen, increments, magnitude


def _shared_zeros(B: int, shape: tuple) -> np.ndarray:
    """Zeros of shape (B,) + shape, one row that the B members share (a
    read-only view when B > 1)."""
    zero = np.zeros((1,) + shape)
    return zero if B == 1 else np.broadcast_to(zero, (B,) + shape)


@dataclass
class PenaltySweepRow:
    """Diagnostics for one sweep member, plus the Cauchy gap to the next."""

    n_pen: float
    sup_pen_H: float
    n_times_l1_integral: float
    n2_times_h2_integral: float
    cauchy_to_next: float  # NaN for the final member
    sup_H4: float
    sup_V2: float
    int_H2: float
    cauchy_H_to_next: float = math.nan  # sup-H^2 part of the gap
    cauchy_V_to_next: float = math.nan  # integral-V^2 part


@dataclass
class SkeletonResult:
    trajectory: Trajectory
    rows: list
    converged: bool
    tol_cauchy: float

    @property
    def final_cauchy(self) -> float:
        vals = [r.cauchy_to_next for r in self.rows if not math.isnan(r.cauchy_to_next)]
        return vals[-1] if vals else math.nan


def _sweep_row(traj: Trajectory, cauchy_to_next: float,
               ch: float = math.nan, cv: float = math.nan) -> PenaltySweepRow:
    energy = energy_report(traj)
    pen = penetration_report(traj)
    return PenaltySweepRow(
        n_pen=traj.n_pen,
        sup_pen_H=pen["sup_pen_H"],
        n_times_l1_integral=pen["n_l1_integral"],
        n2_times_h2_integral=pen["n2_h2_integral"],
        cauchy_to_next=cauchy_to_next,
        sup_H4=energy["sup_H4"],
        sup_V2=energy["sup_V2"],
        int_H2=energy["int_H2"],
        cauchy_H_to_next=ch,
        cauchy_V_to_next=cv,
    )


def solve_skeleton(coeffs: ModelCoefficients, domain: ConvexDomain,
                   gamma: ObliqueField, u0: Field, control: Control,
                   dt: float, T: float, n_start: float = 16.0,
                   factor: float = 2.0, n_max: float = 4096.0,
                   tol_cauchy: float = 1e-6, stride: int = 1) -> SkeletonResult:
    """Penalty sweep n_pen = n_start, n_start*factor, ... up to n_max.

    All members share one time grid, fine enough for the stiffest member
    (dt <= 1/(2 n_max)), so consecutive trajectories compare directly.
    The sweep stops once  sup_t |u_n - u_{n f}|_H^2 + int |u_n - u_{n f}|_V^2 dt
    drops strictly below tol_cauchy; reaching n_max without that flags the
    result as non-converged but still returns the finest trajectory.
    """
    if factor <= 1.0:
        raise SolverError("sweep factor must exceed 1")
    if control is None:
        raise SolverError("the skeleton sweep needs a control (possibly zero)")
    steps, dt_eff = resolve_time_grid(T, dt, n_max, control.K)

    def run(n):
        return solve_penalized_spde(coeffs, domain, gamma, u0, n_pen=n,
                                    dt=dt_eff, steps=steps, control=control,
                                    stride=stride)

    ns = []
    n = float(n_start)
    while n <= n_max * (1 + 1e-12):
        ns.append(n)
        n *= factor
    if len(ns) < 2:
        raise SolverError("sweep range contains fewer than two members")

    rows = []
    prev = run(ns[0])
    converged = False
    for n_next in ns[1:]:
        cur = run(n_next)
        ch, cv = state_gap(prev, cur)
        rows.append(_sweep_row(prev, ch + cv, ch, cv))
        prev = cur
        if ch + cv < tol_cauchy:
            converged = True
            break
    rows.append(_sweep_row(prev, math.nan))
    return SkeletonResult(trajectory=prev, rows=rows, converged=converged,
                          tol_cauchy=tol_cauchy)
