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

One loop steps a chunk of B independent members, which share the model,
the grid and the time step and may differ in their noise paths, their
controls and their penalty levels n_pen, as one (d, B * J) state; a
single run is the chunk of one.  The coefficients and the projection act
pointwise, so every step evaluates them once on the chunk's B * J
points.  I - dt * Lap_h is one J x J matrix for every component, member
and step: it is inverted once per (J, dt) (numpy.linalg.inv) and shared
by every solve, and each step is one BLAS product (gemm) of the state's
B * d rows of length J with the inverse.  Work that does not depend on
the state is done before the loop: a zero or constant drift is
evaluated once, and for a constant sigma the control terms of every step
and member come from one product, as do the noise terms (sigma = 0 adds
nothing).  Members never mix: gemm computes each row of a product in the
same order at any row count (the solver tests check this), so each
member's states equal those of its own single run bit for bit.  A chunk
comes back as a TrajectoryChunk, whose ``steps`` counts member-steps
(B * K); the Monte Carlo replicas and the rate minimizer's skeleton
solves (one control per member) size their chunks by ``ldp.CHUNK_BYTES``,
and a penalty sweep is one chunk (one n_pen per member).

A step does only the work that can change the state.  The blow-up guard
already takes max |u| of every state; when it is at most the half-width
of the cube that the domain contains (``ConvexDomain.cube_half_width``),
every grid point is inside, so the state is not projected and the step
has no penalty.  Otherwise the state is projected once, and a step with
no point outside skips the penalty too.  A step without penalty adds
nothing for a zero drift (with a penalty, b - n * dist * gamma is formed
as it stands, since 0 - x and -x differ in the sign of zero).  A step
with a point outside gives every member its own n_pen times
dist * gamma, zero at its inside points.  dist * gamma needs only the
gap u - pi(u): for both supported gamma rules it is a fixed linear map
of it (``ObliqueField.scaled_directions``), so no direction field is
formed.  The gaps of the penetrating states are stored by member, and
the penetration series (pen_h, pen_l1, pen_linf, pen_gamma) and the
reflection measure are computed from them after the loop, for the whole
chunk in slices of its states; a chunk that never penetrates stores
nothing and shares one array of zeros among its members.  Stability of
the explicit penalty relaxation requires dt * n_pen <= 1/2 for every
member, enforced at entry.

A solve computes only what its readers use.  The norm series h_sq, v_sq
and lap_sq are computed the first time any member's is read, for every
member at once, through this module's ``sup_series``, ``v_series`` and
``lap_series``: a sweep's reports, ``Trajectory.save`` and the weighted
distance read them, while Monte Carlo and the rate minimizer, which read
the states and the penetration series, never pay for them.

The skeleton map (controlled, noise-free) is ``solve_penalized_spde`` at
its default epsilon = 0, where the noise path is ignored, so the skeleton
and the stochastic map are one code path.

``solve_skeleton`` solves a geometric ladder of n_pen as one chunk and
reports it up to the first pair of consecutive members that are Cauchy
in  sup_t |.|_H^2 + int |.|_V^2 dt; the members after that pair are
speculative work.  One report call on the ladder and one ``state_gap``
call on its consecutive pairs give every row.
"""

from __future__ import annotations

import copy
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .coefficients import ModelCoefficients
from .controls import Control
from .diagnostics import estimate_report
from .fields import Field, lap_series, sup_series, v_series
from .geometry import ConvexDomain, ObliqueField
from .trajectory import (ReflectionMeasure, Trajectory, TrajectoryChunk,
                         TrajectorySeries, row_slices, state_gap)

# Explicit penalty relaxation factor dt * n_pen must stay at or below this.
PENALTY_STABILITY = 0.5


def __getattr__(name):
    """``solve_banded``, imported from scipy.linalg only when read: the
    benchmark's tracer patches it by name, and nothing here calls it."""
    if name == "solve_banded":
        from scipy.linalg import solve_banded
        return solve_banded
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class SolverError(RuntimeError):
    """Raised for invalid solver input or a detected blow-up."""

    def __init__(self, message: str, step: int = None):
        super().__init__(message)
        self.step = step


@functools.lru_cache(maxsize=8)
def _heat_inverse(J: int, r: float) -> np.ndarray:
    """(I - dt*Lap_h)^{-1} on J interior nodes, r = dt / dx**2: formed once
    per (J, r) and shared, read-only, by every solve on that grid and step."""
    inv = np.linalg.inv(np.diag(np.full(J, 1.0 + 2.0 * r))
                        + np.diag(np.full(J - 1, -r), 1)
                        + np.diag(np.full(J - 1, -r), -1))
    inv.flags.writeable = False
    return inv


@dataclass
class NoisePath:
    """Brownian increments (m, K) with their seed.

    ``seed`` is the path's 128-bit Philox key, and the increments are
    i.i.d. N(0, dt): ``Generator(Philox(key=seed)).normal(0, sqrt(dt),
    (m, K))`` bit for bit.
    """

    dt: float
    increments: np.ndarray
    seed: int


def sample_brownian(m: int, K: int, dt: float, seed) -> NoisePath | list:
    """The NoisePath of Philox key ``seed``, or for a sequence of keys one
    NoisePath per key, whose increments are views of one (B, m, K) array.

    Path b's increments are ``Generator(Philox(key=seed_b)).normal(0,
    sqrt(dt), (m, K))`` bit for bit, for any key in [0, 2**128); a
    replica's key is its ``ReplicaPlan.seed_for``.  One Philox is reseated
    through its state dict (the key's two 64-bit words, low word first,
    with counter 0 and an empty buffer, as a new Philox starts) before
    each path is drawn from one Generator.  A single key is the chunk of
    one.  A key outside [0, 2**128) raises ValueError.
    """
    scalar = np.ndim(seed) == 0
    keys = [operator.index(s) for s in ([seed] if scalar else seed)]
    if keys and (min(keys) < 0 or max(keys) >> 128):
        raise ValueError("Philox keys must lie in [0, 2**128)")
    bitgen = np.random.Philox(key=0)
    rng = np.random.Generator(bitgen)
    fresh = bitgen.state
    inc = np.empty((len(keys), m, K))
    scale = math.sqrt(dt)
    for b, key in enumerate(keys):
        high, low = divmod(key, 1 << 64)
        fresh["state"]["key"] = [low, high]
        bitgen.state = fresh
        inc[b] = rng.normal(0.0, scale, size=(m, K))
    paths = [NoisePath(dt=dt, increments=i, seed=k) for i, k in zip(inc, keys)]
    return paths[0] if scalar else paths


@dataclass
class ReplicaPlan:
    """Counter-based per-replica Philox keys under one base seed.

    Replica i's key is ``base_seed + (i << 64)``, whose two 64-bit words
    are (base_seed, i), so replica 0 draws from ``Philox(key=base_seed)``.
    Philox streams under distinct keys are independent by design (Salmon,
    Moraes, Dror & Shaw, "Parallel random numbers: as easy as 1, 2, 3",
    SC 2011), so the key needs no hash, and a replica's stream does not
    depend on the order or the worker the replicas run on.
    """

    base_seed: int

    def seed_for(self, index):
        """Replica ``index``'s Philox key as a Python int, or for a
        sequence of indices the list of their keys; a single index is the
        chunk of one.  A base seed or an index outside [0, 2**64) raises
        ValueError."""
        scalar = np.ndim(index) == 0
        indices = [operator.index(i) for i in ([index] if scalar else index)]
        words = [operator.index(self.base_seed), *indices]
        if min(words) < 0 or max(words) >> 64:
            raise ValueError("base seeds and replica indices must lie in "
                             "[0, 2**64)")
        keys = [words[0] + (i << 64) for i in indices]
        return keys[0] if scalar else keys


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
                         gamma: ObliqueField, u0: Field, n_pen: float | list,
                         dt: float, steps: int, epsilon: float = 0.0,
                         noise: NoisePath | list = None,
                         control: Control | list = None,
                         stride: int = 1) -> Trajectory | TrajectoryChunk:
    """Run the penalized semi-implicit scheme for ``steps`` steps of ``dt``.

    ``n_pen``, ``noise`` and ``control`` are each one value, and the result
    one Trajectory; or any of them is a list with one entry per member of
    a chunk that shares everything else, and the result a TrajectoryChunk.
    A single value is shared by every member; lists must have the same
    length.  With epsilon = 0 the noise is ignored and the run coincides
    with the skeleton solve for the same control.  Raises SolverError
    when the initial state leaves the domain, the stability bound fails
    (for the stiffest member), the control or noise grids are
    incompatible, or the state blows up (the offending step index is
    attached; in a chunk, that of the lowest-index member that blows up).
    """
    grid = u0.grid
    d, J = grid.d, grid.J
    dx = grid.dx
    lists = [(name, value) for name, value in (
        ("noise paths", noise), ("controls", control), ("n_pen values", n_pen))
        if isinstance(value, list)]
    if any(not value for _, value in lists):
        raise SolverError("a chunk needs at least one member")
    B = len(lists[0][1]) if lists else 1
    for name, value in lists[1:]:
        if len(value) != B:
            raise SolverError(f"{len(value)} {name} for {B} {lists[0][0]}")
    controls = control if isinstance(control, list) else [control]
    members = noise if isinstance(noise, list) else [noise] * B
    pens = list(n_pen) if isinstance(n_pen, list) else [n_pen] * B
    if not all(n > 0 for n in pens):
        raise SolverError("n_pen must be positive")
    stiffest = max(pens)
    if dt * stiffest > PENALTY_STABILITY * (1 + 1e-12):
        raise SolverError(
            f"dt = {dt:g} violates the penalty stability bound "
            f"{PENALTY_STABILITY:g}/n_pen = {PENALTY_STABILITY / stiffest:g} "
            f"for n_pen = {stiffest:g}")
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

    # the operator is symmetric, so a step solves every row x of the
    # state as the product x @ inv
    inv = _heat_inverse(J, dt / (dx * dx))

    # state-independent work, done once: a zero or constant drift, and for
    # a constant sigma the control and noise terms of every step
    b_fixed = coeffs.state_free_drift()
    if b_fixed is not None:
        b_fixed = b_fixed[:, None]
    zero_drift = b_fixed is not None and not b_fixed.any()
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
        # each (steps, d, 1 or B, 1), one product for all members
        terms = [c * np.einsum("dm,bmk->kdb", sig_fixed, stack)[..., None]
                 for c, stack in paths]

    # The state is one (d, B * J) array u, member b in columns
    # b*J:(b+1)*J: u.T is the (B * J, d) batch of points and ``blocks`` its
    # (d, B, J) view by member.  u is the first B * d rows of a C-contiguous
    # (rows, J) buffer; a step writes the product of the buffer with inv
    # into a second buffer, and the two swap with their views.  numpy sends
    # a one-row product to gemv, which rounds unlike gemm, so a lone row
    # gets a zero row below it and every row goes through gemm.  The states
    # are stored by member, (B, steps + 1, d, J), through their
    # (steps + 1, d, B, J) view ``by_step``.
    bufs = np.zeros((2, max(B * d, 2), J))
    views = [(buf, buf[:B * d].reshape(d, B * J), buf[:B * d].reshape(d, B, J))
             for buf in bufs]
    rows, u, blocks = views[0]
    blocks[:] = u0.values[:, None, :]
    states = np.empty((B, steps + 1, d, J))
    by_step = states.transpose(1, 2, 0, 3)
    by_step[0] = blocks
    # u - pi(u) of every state, stored by member as (B, steps + 1, J, d)
    # and allocated at the first state that penetrates; the penalty
    # diagnostics come from it after the loop
    gaps = None

    def record_gap(k, top):
        """Store u - pi(u) of state k, whose max |u_i| is ``top``, and
        return it as one (B * J, d) array, or None when every grid point
        lies inside the domain (at once when they lie in its inscribed
        cube, with no projection)."""
        nonlocal gaps
        if top <= domain.cube_half_width:
            return None
        points = u.T
        proj = domain.project_many(points)
        if proj is points:                        # all inside, returned as is
            return None
        gap = points - proj
        if not gap.any():
            return None
        if gaps is None:
            gaps = np.zeros((B, steps + 1, J, d))
        gaps[:, k] = gap.reshape(B, J, d)
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

    n_cols = np.repeat(np.asarray(pens, dtype=float), J)  # n_pen per point
    top = float(np.abs(u).max())
    for k in range(steps):
        # guard before any squaring can overflow
        if top > 1e150:
            top = retire(np.abs(blocks).max(axis=(0, 2)) > 1e150, k)
        # everything the step reads from u_k, before u is updated in place
        b = coeffs.drift(u) if b_fixed is None else b_fixed
        if state_sig:
            sig = coeffs.diffusion(u).reshape(d, coeffs.m, B, J)
        gap = record_gap(k, top)
        if gap is not None:                       # n * dist * gamma, 0 inside
            u += dt * (b - n_cols * gamma.scaled_directions(gap).T)
        elif not zero_drift:
            u += dt * b
        for term in terms:
            blocks += term[k]
        if state_sig:
            for c, stack in paths:
                blocks += c * np.einsum("dmbj,bm->dbj", sig, stack[:, :, k])
        nxt = views[(k + 1) % 2]
        np.dot(rows, inv, out=nxt[0])
        rows, u, blocks = nxt                     # u is u_{k+1}
        top = float(np.abs(u).max())
        if not math.isfinite(top):
            top = retire(~np.isfinite(np.abs(blocks).max(axis=(0, 2))), k + 1)
        by_step[k + 1] = blocks
    if blown:
        first = blown[min(blown)]
        raise SolverError(f"state blew up at step {first}", step=first)

    # terminal penetration for the sup statistics
    record_gap(steps, top)

    pen, increments, magnitude = _penalty_diagnostics(states, gaps, gamma,
                                                      pens, dt, dx)
    series = TrajectorySeries.deferred(
        functools.partial(_state_norms, states, dx), **pen)
    measure = ReflectionMeasure(grid=grid, dt=dt, increments=increments,
                                magnitude=magnitude)
    info = {"b": coeffs.b_name, "sigma": coeffs.sigma_name,
            "controlled": control is not None}
    metas = [dict(info, seed=p.seed, generator="philox") if use_noise
             else dict(info) for p in members]
    chunk = TrajectoryChunk(grid=grid, dt=dt, n_pen=pens, states=states,
                            series=series, measure=measure, metas=metas,
                            stride=stride, epsilon=epsilon)
    return chunk if lists else chunk.member(0)


def _state_norms(states, dx: float) -> tuple:
    """h_sq, v_sq and lap_sq, (B, K+1) each, of every state of a
    (B, K+1, d, J) stack, through this module's names for the three
    series, which wrappers may replace."""
    B, count, d, J = states.shape
    flat = states.reshape(B * count, d, J)
    return tuple(series_of(flat, dx).reshape(B, count)
                 for series_of in (sup_series, v_series, lap_series))


def _penalty_diagnostics(states, gaps, gamma: ObliqueField, pens: list,
                         dt: float, dx: float) -> tuple:
    """The pen_* series of every member's states and the reflection
    measure's (increments, magnitude), from the gaps u - pi(u) of every
    state ((B, steps + 1, J, d), or None when no state penetrated) and
    each member's n_pen.  Every series reduces one state's points, so it
    is computed on slices of the chunk's B * (steps + 1) states (keeping
    the temporaries small), each state as its single run computes it; a
    member that stays inside gets zeros from its zero gaps, and when none
    penetrated the members share one array of zeros.  The gaps are
    overwritten with n * dist * gamma and the magnitude is a view of the
    scaled distances, so the increments are the only new array of the
    gaps' size."""
    B, count, d, J = states.shape
    steps = count - 1
    if gaps is None:
        zero = _shared_zeros(B, (count,))
        return (dict.fromkeys(("pen_h", "pen_l1", "pen_linf", "pen_gamma"), zero),
                _shared_zeros(B, (steps, d, J)), _shared_zeros(B, (steps, J)))
    rows = B * count
    flat_states, flat_gaps = states.reshape(rows, d, J), gaps.reshape(rows, J, d)
    pen = {name: np.empty(rows)
           for name in ("pen_h", "pen_l1", "pen_linf", "pen_gamma")}
    dist = np.empty((rows, J))
    for part in row_slices(rows, flat_gaps[0].nbytes):
        gap, r = flat_gaps[part], dist[part]
        np.sqrt(np.einsum("kjd,kjd->kj", gap, gap), out=r)
        pen["pen_h"][part] = np.sqrt(dx * np.sum(r * r, axis=1))
        pen["pen_l1"][part] = dx * np.sum(r, axis=1)
        pen["pen_linf"][part] = np.abs(gap).max(axis=(1, 2))
        gap[...] = gamma.scaled_directions(gap)   # dist * gamma
        pen["pen_gamma"][part] = dx * np.einsum("kdj,kjd->k",
                                                flat_states[part], gap)
    pen = {name: series.reshape(B, count) for name, series in pen.items()}
    dist = dist.reshape(B, count, J)
    n = np.asarray(pens, dtype=float)[:, None, None]
    gaps *= n[..., None]
    dist *= n * dt * dx
    increments = np.empty((B, steps, d, J))
    np.multiply(dt * dx, gaps[:, :steps].transpose(0, 1, 3, 2), out=increments)
    return pen, increments, dist[:, :steps]


def _shared_zeros(B: int, shape: tuple) -> np.ndarray:
    """Zeros of shape (B,) + shape, one row that the B members share (a
    read-only view when B > 1)."""
    zero = np.zeros((1,) + shape)
    return zero if B == 1 else np.broadcast_to(zero, (B,) + shape)


@dataclass
class SkeletonResult:
    trajectory: Trajectory
    rows: list
    converged: bool
    tol_cauchy: float

    @property
    def final_cauchy(self) -> float:
        vals = [r["cauchy_to_next"] for r in self.rows
                if not math.isnan(r["cauchy_to_next"])]
        return vals[-1] if vals else math.nan


def solve_skeleton(coeffs: ModelCoefficients, domain: ConvexDomain,
                   gamma: ObliqueField, u0: Field, control: Control,
                   dt: float, T: float, n_start: float = 16.0,
                   factor: float = 2.0, n_max: float = 4096.0,
                   tol_cauchy: float = 1e-6, stride: int = 1) -> SkeletonResult:
    """Penalty sweep n_pen = n_start, n_start*factor, ... up to n_max.

    All members share one time grid, fine enough for the stiffest member
    (dt <= 1/(2 n_max)), so consecutive trajectories compare directly, and
    the whole ladder is solved as one chunk with one n_pen per member.
    The rows stop once  sup_t |u_n - u_{n f}|_H^2 + int |u_n - u_{n f}|_V^2 dt
    drops strictly below tol_cauchy (the members after that pair were
    solved speculatively and are not reported); reaching n_max without
    that flags the result as non-converged but still returns the finest
    trajectory.  Each row is a dict of the member's n_pen, its
    ``estimate_report`` values, and the gap to the next member: cauchy_H
    (the sup-H^2 part), cauchy_V (the integral-V^2 part) and their sum
    cauchy_to_next, all NaN for the final member.
    """
    if factor <= 1.0:
        raise SolverError("sweep factor must exceed 1")
    if control is None:
        raise SolverError("the skeleton sweep needs a control (possibly zero)")
    steps, dt_eff = resolve_time_grid(T, dt, n_max, control.K)

    ns = []
    n = float(n_start)
    while n <= n_max * (1 + 1e-12):
        ns.append(n)
        n *= factor
    if len(ns) < 2:
        raise SolverError("sweep range contains fewer than two members")

    chunk = solve_penalized_spde(coeffs, domain, gamma, u0, n_pen=ns,
                                 dt=dt_eff, steps=steps, control=control,
                                 stride=stride)
    # the estimates before the gaps: the norms they compute have the
    # largest temporaries, whose memory the gaps' slices then reuse
    est = {name: v.tolist() for name, v in estimate_report(chunk).items()}
    gap_h, gap_v = state_gap(chunk.members(slice(None, -1)),
                             chunk.members(slice(1, None)))
    cauchy = np.flatnonzero(gap_h + gap_v < tol_cauchy)
    last = int(cauchy[0]) + 1 if cauchy.size else len(ns) - 1
    ch, cv = (g[:last].tolist() + [math.nan] for g in (gap_h, gap_v))
    rows = [{"n_pen": ns[i], **{name: v[i] for name, v in est.items()},
             "cauchy_H": ch[i], "cauchy_V": cv[i],
             "cauchy_to_next": ch[i] + cv[i]} for i in range(last + 1)]
    # a copy, not views of the ladder's chunk, so the chunk is freed here
    return SkeletonResult(trajectory=copy.deepcopy(chunk.member(last)),
                          rows=rows, converged=bool(cauchy.size),
                          tol_cauchy=tol_cauchy)
