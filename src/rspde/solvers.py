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

I - dt * Lap_h is the same tridiagonal matrix for every component and
step, so each solve factors it once (LAPACK dgttrf) and every step only
back-substitutes (dgttrs), all components at once.  Work that does not
depend on the state is done before the loop: a zero or constant drift is
evaluated once, and for a constant sigma the control and noise terms of
every step come from one product each (sigma = 0 adds nothing).  A step
in which no grid point lies outside O skips the direction field and the
penalty arithmetic and records zero penetration.  Stability of the
explicit penalty relaxation requires dt * n_pen <= 1/2, enforced at
entry.

The skeleton map (controlled, noise-free) and the stochastic map share
this single code path: ``solve_penalized_skeleton`` simply calls
``solve_penalized_spde`` with epsilon = 0, so the two agree bit for bit.

``solve_skeleton`` drives n_pen through a geometric sweep and stops when
consecutive members are Cauchy in  sup_t |.|_H^2 + int |.|_V^2 dt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs
# Unused here; kept importable because benchmark tracing patches it by name.
from scipy.linalg import solve_banded  # noqa: F401

from .coefficients import ModelCoefficients
from .controls import Control
from .fields import Field, SpatialGrid, lap_series, sup_series, v_series
from .geometry import ConvexDomain, ObliqueField
from .trajectory import ReflectionMeasure, Trajectory, TrajectorySeries, state_gap

# Explicit penalty relaxation factor dt * n_pen must stay at or below this.
PENALTY_STABILITY = 0.5


class SolverError(RuntimeError):
    """Raised for invalid solver input or a detected blow-up."""

    def __init__(self, message: str, step: int = None):
        super().__init__(message)
        self.step = step


@dataclass
class NoisePath:
    """Brownian increments (m, K) with their provenance.

    Reproducible bit for bit from (seed, generator, shape): increments are
    i.i.d. N(0, dt) drawn from the named counter-based generator.
    """

    dt: float
    increments: np.ndarray
    seed: int
    generator: str = "philox"

    @property
    def m(self) -> int:
        return self.increments.shape[0]

    @property
    def K(self) -> int:
        return self.increments.shape[1]


_GENERATORS = {"philox": np.random.Philox, "pcg64": np.random.PCG64}


def sample_brownian(m: int, K: int, dt: float, seed: int,
                    generator: str = "philox") -> NoisePath:
    if generator not in _GENERATORS:
        raise SolverError(f"unknown generator {generator!r}")
    rng = np.random.Generator(_GENERATORS[generator](seed))
    inc = rng.normal(0.0, math.sqrt(dt), size=(m, K))
    return NoisePath(dt=dt, increments=inc, seed=seed, generator=generator)


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
                         noise: NoisePath = None, control: Control = None,
                         stride: int = 1, meta: dict = None) -> Trajectory:
    """Run the penalized semi-implicit scheme for ``steps`` steps of ``dt``.

    With epsilon = 0 the noise path is ignored and the run coincides with
    the skeleton solve for the same control.  Raises SolverError when the
    initial state leaves the domain, the stability bound fails, the
    control or noise grids are incompatible, or the state blows up (the
    offending step index is attached).
    """
    grid = u0.grid
    d, J = grid.d, grid.J
    dx = grid.dx
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

    hdot = None
    if control is not None:
        if control.m != coeffs.m:
            raise SolverError("control dimension does not match the noise dimension")
        if abs(control.T - steps * dt) > 1e-9 * max(1.0, control.T):
            raise SolverError("control horizon does not match steps * dt")
        hdot = control.values_on(steps)
    use_noise = epsilon > 0.0
    if use_noise:
        if noise is None:
            raise SolverError("epsilon > 0 needs a noise path")
        if noise.increments.shape != (coeffs.m, steps):
            raise SolverError(
                f"noise shape {noise.increments.shape} != ({coeffs.m}, {steps})")
        sqrt_eps = math.sqrt(epsilon)

    # I - dt*Lap_h is one tridiagonal matrix for every component and step:
    # factor it here, back-substitute per step.
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
    paths = []                                    # (scale, (m, steps) path)
    if hdot is not None:
        paths.append((dt, hdot))
    if use_noise:
        paths.append((sqrt_eps, noise.increments))
    sig_fixed = coeffs.state_free_diffusion()
    if sig_fixed is not None:
        if not sig_fixed.any():
            paths = []
        terms = [(c * np.einsum("dm,mk->kd", sig_fixed, path))[:, :, None]
                 for c, path in paths]            # each (steps, d, 1)

    states = np.empty((steps + 1, d, J))
    states[0] = u0.values
    pen_h = np.zeros(steps + 1)
    pen_l1 = np.zeros(steps + 1)
    pen_linf = np.zeros(steps + 1)
    pen_gamma = np.zeros(steps + 1)
    increments = np.zeros((steps, d, J))
    magnitude = np.zeros((steps, J))

    def penetrate(u, k):
        """Fill the step-k penalty series and return (dist, gamma), or
        None when no grid point lies outside the domain."""
        ut = u.T
        proj = domain.project_many(ut)
        if proj is ut:                            # all inside, returned as is
            return None
        diff_t = ut - proj                        # (J, d)
        if not diff_t.any():
            return None
        dist = np.sqrt(np.einsum("jd,jd->j", diff_t, diff_t))
        gam = gamma.grid_values(ut, proj, dist).T  # (d, J)
        pen_h[k] = math.sqrt(dx * float(np.sum(dist * dist)))
        pen_l1[k] = dx * float(np.sum(dist))
        pen_linf[k] = float(np.max(np.abs(diff_t)))
        pen_gamma[k] = dx * float(np.einsum("dj,dj->", u, dist * gam))
        return dist, gam

    u = u0.values.copy()
    top = float(np.abs(u).max())
    for k in range(steps):
        # guard before any squaring can overflow to inf
        if top > 1e150:
            raise SolverError(f"state blew up at step {k}", step=k)
        b = coeffs.drift(u) if b_fixed is None else b_fixed
        pen = penetrate(u, k)
        if pen is None:
            rhs = u + dt * b
        else:
            dist, gam = pen
            pen_drift = (n_pen * dist) * gam
            increments[k] = (dt * dx) * pen_drift
            magnitude[k] = (n_pen * dt * dx) * dist
            rhs = u + dt * (b - pen_drift)
        if sig_fixed is not None:
            for term in terms:
                rhs += term[k]
        elif paths:
            sig = coeffs.diffusion(u)             # (d, m, J)
            for c, path in paths:
                rhs += c * np.einsum("dmj,m->dj", sig, path[:, k])
        u = dgttrs(*lu, rhs.T, overwrite_b=True)[0].T
        top = float(np.abs(u).max())
        if not math.isfinite(top):
            raise SolverError(f"state blew up at step {k + 1}", step=k + 1)
        states[k + 1] = u

    # terminal penetration for the sup statistics
    penetrate(u, steps)

    series = TrajectorySeries(
        h_sq=sup_series(states, dx),
        v_sq=v_series(states, dx),
        lap_sq=lap_series(states, dx),
        pen_h=pen_h, pen_l1=pen_l1, pen_linf=pen_linf, pen_gamma=pen_gamma)
    measure = ReflectionMeasure(grid=grid, dt=dt, increments=increments,
                                magnitude=magnitude)
    info = dict(meta or {})
    info.update({"b": coeffs.b_name, "sigma": coeffs.sigma_name,
                 "controlled": control is not None})
    if use_noise:
        info.update({"seed": noise.seed, "generator": noise.generator})
    return Trajectory(grid=grid, dt=dt, n_pen=n_pen, states=states,
                      series=series, measure=measure, stride=stride,
                      epsilon=epsilon, meta=info)


def solve_penalized_skeleton(coeffs: ModelCoefficients, domain: ConvexDomain,
                             gamma: ObliqueField, u0: Field, control: Control,
                             n_pen: float, dt: float, steps: int,
                             stride: int = 1, meta: dict = None) -> Trajectory:
    """Controlled, noise-free solve: the epsilon = 0 branch of the shared
    stepping routine, so it matches the stochastic solver bit for bit."""
    return solve_penalized_spde(coeffs, domain, gamma, u0, n_pen=n_pen,
                                dt=dt, steps=steps, epsilon=0.0, noise=None,
                                control=control, stride=stride, meta=meta)


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
    s = traj.series
    dt = traj.dt
    n = traj.n_pen
    return PenaltySweepRow(
        n_pen=n,
        sup_pen_H=float(np.max(s.pen_h)),
        n_times_l1_integral=n * float(np.sum(s.pen_l1[:-1])) * dt,
        n2_times_h2_integral=n * n * float(np.sum(s.pen_h[:-1] ** 2)) * dt,
        cauchy_to_next=cauchy_to_next,
        sup_H4=float(np.max(s.h_sq)) ** 2,
        sup_V2=float(np.max(s.v_sq)),
        int_H2=float(np.sum(s.lap_sq[:-1])) * dt,
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
        return solve_penalized_skeleton(coeffs, domain, gamma, u0, control,
                                        n_pen=n, dt=dt_eff, steps=steps,
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
