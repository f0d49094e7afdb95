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
and step: each solve inverts it once (numpy.linalg.inv), and each step is
one BLAS product (gemm) of the state's B * d rows of length J with the
inverse.  Work that does not depend on the state is done before the
loop: a zero or constant drift is evaluated once, and for a constant
sigma the control terms of every step and member come from one product,
as do the noise terms (sigma = 0 adds nothing).  Members never mix: gemm
computes each row of a product in the same order at any row count (the
solver tests check this), so each member's states equal those of its own
single run bit for bit.  A chunk comes back as a TrajectoryChunk, whose
``steps`` counts member-steps (B * K); the Monte Carlo replicas
and the rate minimizer's skeleton solves (one control per member) size
their chunks by ``ldp.CHUNK_BYTES``, and a penalty sweep is one chunk
(one n_pen per member).

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


@dataclass
class NoisePath:
    """Brownian increments (m, K) with their seed.

    Reproducible bit for bit from (seed, shape): increments are i.i.d.
    N(0, dt) drawn from numpy's counter-based Philox generator.
    """

    dt: float
    increments: np.ndarray
    seed: int


# numpy's SeedSequence (numpy/random/bit_generator.pyx): a pool of four
# uint32 words, the hash constants of mix_entropy/hashmix and of
# generate_state, the multipliers of mix, and the 16-bit xor-shift.
_POOL = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)


def _int_words(n: int) -> list:
    """The uint32 words of a non-negative integer, least significant
    first, [0] for 0, as numpy's SeedSequence splits its entropy."""
    if n < 0:
        raise ValueError(f"expected a non-negative integer, got {n}")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _seed_sequence_state(entropy: list, n_words: int) -> np.ndarray:
    """``SeedSequence(row).generate_state(n_words, np.uint32)`` of B rows
    at once, as a (B, n_words) array; ``entropy`` holds the rows' words
    as columns, one (B,) uint32 array per word.  The hash constant's
    progression is the same for every row, so it stays a Python int
    masked to 32 bits, and every product is one of two uint32 operands,
    which wraps as numpy's uint32_t arithmetic does."""
    B = len(entropy[0])
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        value = value * np.uint32(const)
        return value ^ value >> _SHIFT

    def mix(x, y):
        value = _MIX_L * x - _MIX_R * y
        return value ^ value >> _SHIFT

    # mix_entropy: the pool from the first words (zeros past the last),
    # every pool word into every other, then each remaining word in turn
    pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros(B, np.uint32))
            for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    out = np.empty((B, n_words), np.uint32)
    const = _INIT_B
    for i in range(n_words):
        value = pool[i % _POOL] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value = value * np.uint32(const)
        out[:, i] = value ^ value >> _SHIFT
    return out


def _spawned_uint64(prefix: list, values: list, n_words: int) -> np.ndarray:
    """(B, n_words) uint64: ``SeedSequence(prefix + words(v))
    .generate_state(n_words, np.uint64)`` for each of B Python ints v in
    [0, 2**64), where ``prefix`` is a list of uint32 words shared by all.
    Values below 2**32 have one entropy word and the others two; each
    group is hashed in one pass."""
    if values and (min(values) < 0 or max(values) >> 64):
        raise ValueError("seeds and replica indices must lie in [0, 2**64)")
    v = np.array(values, dtype=np.uint64)
    low = (v & np.uint64(_MASK32)).astype(np.uint32)
    high = (v >> np.uint64(32)).astype(np.uint32)
    words = np.empty((len(values), 2 * n_words), np.uint32)
    for wide in (False, True):
        rows = np.flatnonzero((high != 0) == wide)
        if rows.size:
            cols = [np.full(rows.size, w, np.uint32) for w in prefix]
            cols += [low[rows], high[rows]] if wide else [low[rows]]
            words[rows] = _seed_sequence_state(cols, 2 * n_words)
    # generate_state's uint64 words: little-endian pairs of uint32 words
    return (words[:, 0::2].astype(np.uint64)
            | words[:, 1::2].astype(np.uint64) << np.uint64(32))


def sample_brownian(m: int, K: int, dt: float, seed) -> NoisePath | list:
    """The NoisePath of ``seed``, or for a sequence of seeds one NoisePath
    per seed, whose increments are views of one (B, m, K) array.

    Path b's increments are ``Generator(Philox(seed_b)).normal(0, sqrt(dt),
    (m, K))`` bit for bit, for any seed in [0, 2**64).  ``Philox(seed)``
    keys itself with ``SeedSequence(seed).generate_state(2, np.uint64)``;
    here every path's key comes from one vectorised pass of that hash,
    and one Philox is reseated through its state dict (the key, counter
    0 and an empty buffer, as Philox(seed) starts) before each path is
    drawn from one Generator.  A single seed is the chunk of one.
    """
    scalar = np.ndim(seed) == 0
    seeds = [operator.index(s) for s in ([seed] if scalar else seed)]
    keys = _spawned_uint64([], seeds, 2).tolist()
    bitgen = np.random.Philox(key=0)
    rng = np.random.Generator(bitgen)
    fresh = {"bit_generator": "Philox",
             "state": {"counter": [0, 0, 0, 0], "key": None},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    inc = np.empty((len(seeds), m, K))
    scale = math.sqrt(dt)
    for b, key in enumerate(keys):
        fresh["state"]["key"] = key
        bitgen.state = fresh
        inc[b] = rng.normal(0.0, scale, size=(m, K))
    paths = [NoisePath(dt=dt, increments=i, seed=s) for i, s in zip(inc, seeds)]
    return paths[0] if scalar else paths


@dataclass
class ReplicaPlan:
    """Replica count with counter-based per-replica seed derivation.

    Replica i's seed is ``SeedSequence(base_seed, spawn_key=(i,))
    .generate_state(1, np.uint64)[0]``, so its stream is independent of
    every other index and of the order or worker the replicas run on.
    ``seed_for`` computes a whole chunk's seeds in one vectorised pass
    of that hash, bit for bit equal to numpy's.
    """

    base_seed: int
    count: int

    def seed_for(self, index):
        """Replica ``index``'s seed as a Python int, or for a sequence of
        indices (each in [0, 2**64)) the list of their seeds; a single
        index is the chunk of one.  A negative base seed or index raises
        ValueError."""
        scalar = np.ndim(index) == 0
        indices = [operator.index(i) for i in ([index] if scalar else index)]
        # with a spawn key, numpy pads the base seed's words to the pool
        prefix = _int_words(self.base_seed)
        prefix += [0] * (_POOL - len(prefix))
        seeds = _spawned_uint64(prefix, indices, 1)[:, 0].tolist()
        return seeds[0] if scalar else seeds


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

    # (I - dt*Lap_h)^{-1}, formed once; the operator is symmetric, so a
    # step solves every row x of the state as the product x @ inv
    r = dt / (dx * dx)
    inv = np.linalg.inv(np.diag(np.full(J, 1.0 + 2.0 * r))
                        + np.diag(np.full(J - 1, -r), 1)
                        + np.diag(np.full(J - 1, -r), -1))

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
    trajectory.
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
    rows = [PenaltySweepRow(
                n_pen=ns[i], sup_pen_H=est["sup_pen_H"][i],
                n_times_l1_integral=est["n_l1_integral"][i],
                n2_times_h2_integral=est["n2_h2_integral"][i],
                cauchy_to_next=ch[i] + cv[i], sup_H4=est["sup_H4"][i],
                sup_V2=est["sup_V2"][i], int_H2=est["int_H2"][i],
                cauchy_H_to_next=ch[i], cauchy_V_to_next=cv[i])
            for i in range(last + 1)]
    # a copy, not views of the ladder's chunk, so the chunk is freed here
    return SkeletonResult(trajectory=copy.deepcopy(chunk.member(last)),
                          rows=rows, converged=bool(cauchy.size),
                          tol_cauchy=tol_cauchy)
