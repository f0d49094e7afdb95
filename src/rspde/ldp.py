"""Small-noise machinery: rare events, the rate functional, its minimizer,
and Monte Carlo estimates that the two sides can be compared on.

The controlled noise-free solution map

    G0 : h  |->  skeleton solution driven by hdot

is evaluated at one fixed penalty level (EVENT_N_PEN by default), so an
"event" always refers to the penalized dynamics at that level, for both
the optimizer and the stochastic replicas.  The action of a control is

    I(h) = 1/2 |h|_CM^2 = 1/2 int_0^T |hdot(t)|^2 dt,

and the constrained minimum  I* = inf { I(h) : G0(h) realizes the event }
is approached by quadratic-penalty continuation: minimize

    1/2 |h|_CM^2 + mu * shortfall(G0(h))^2

over the control's (m, K) table by gradient descent with forward-difference
gradients and Armijo backtracking, for an increasing schedule of mu.  The
dim perturbed controls of a gradient are solved as one batch, and the
backtrack solves a ladder of LADDER step sizes as one batch, speculatively:
it accepts the first that passes, as the sequential search would, and the
members after it are wasted.

Monte Carlo runs the stochastic solver over a ReplicaPlan, so replica
seeds are independent of worker count and order, and the same replica
index reuses the same Brownian path across noise levels.  Replicas, and
the minimizer's controls, are solved in chunks: one batched solve steps
as many of them as CHUNK_BYTES of (B, steps + 1, d, J) state stack holds,
and a chunk's members do not interact, so no result depends on how they
are chunked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import ModelCoefficients
from .controls import Control
from .diagnostics import penetration_report, weighted_distance
from .fields import h_norm
from .geometry import ConvexDomain, ObliqueField
from .solvers import (ReplicaPlan, resolve_time_grid, sample_brownian,
                      solve_penalized_spde)
from .trajectory import Trajectory, state_gap

# Penalty level at which rare events are posed (config can override).
EVENT_N_PEN = 1024.0

# Replicas and the minimizer's controls are stepped as chunks of one
# batched solve: as many members as keep a chunk's state stack, members *
# (steps + 1) * d * J float64 values, within this many bytes (at least one
# member).
CHUNK_BYTES = 1 << 19

# minimize_rate: Armijo sufficient-decrease constant, and the relative
# objective drop below which an accepted step counts toward stagnation.
ARMIJO_C1 = 1e-4
STAG_REL = 1e-8

# minimize_rate tries this many halvings of the step as one batch, step,
# step/2, ...; a backtrack rarely needs more, and the members after the
# accepted one are wasted solves.
LADDER = 4


def _chunks(items, steps: int, grid) -> list:
    """``items`` in consecutive slices of as many members as keep a chunk's
    state stack within CHUNK_BYTES (at least one member each)."""
    per = max(1, CHUNK_BYTES // (8 * (steps + 1) * grid.d * grid.J))
    return [items[lo:lo + per] for lo in range(0, len(items), per)]


def _terminal_mean(traj: Trajectory) -> float:
    return traj.grid.dx * float(np.sum(traj.states[-1][0]))


TRAJECTORY_FUNCTIONALS = {
    "terminal_h_norm": lambda tr: h_norm(tr.terminal),
    "sup_h_norm": lambda tr: math.sqrt(float(np.max(tr.series.h_sq))),
    "eta_mass": lambda tr: penetration_report(tr)["eta_total_variation"],
    "terminal_mean": _terminal_mean,
}


@dataclass
class EventSpec:
    """A rare event, stated on the trajectory of the penalized dynamics.

    kind = "terminal_ball":  |u(T) - center|_H <= radius   (event is the
        closed ball; with complement=True the event is |.| >= radius);
    kind = "sup_exceed":     sup_t |u(t) - reference|_H >= radius;
    kind = "functional_threshold":  F(u) >= level for a named functional
        from TRAJECTORY_FUNCTIONALS.

    ``shortfall`` is the continuous margin by which the event is missed:
    zero exactly when the event occurred, positive otherwise.  The
    optimizer squares it; Monte Carlo thresholds it at zero.
    """

    kind: str
    radius: float = None
    center: np.ndarray = None
    complement: bool = False
    reference: np.ndarray = None
    functional: str = None
    level: float = None

    def __post_init__(self):
        if self.kind not in ("terminal_ball", "sup_exceed",
                             "functional_threshold"):
            raise ValueError(f"unknown event kind {self.kind!r}")
        if self.kind in ("terminal_ball", "sup_exceed"):
            if self.radius is None or self.radius < 0:
                raise ValueError(f"{self.kind} needs a non-negative radius")
        if self.kind == "functional_threshold":
            if self.functional not in TRAJECTORY_FUNCTIONALS:
                raise ValueError(
                    f"unknown functional {self.functional!r}; have "
                    f"{sorted(TRAJECTORY_FUNCTIONALS)}")
            if self.level is None:
                raise ValueError("functional_threshold needs a level")

    def _margin(self, traj: Trajectory) -> float:
        """Signed margin, >= 0 exactly when the event occurred."""
        dx = traj.grid.dx
        if self.kind == "terminal_ball":
            diff = traj.states[-1]
            if self.center is not None:
                diff = diff - self.center
            dist = math.sqrt(dx * float(np.sum(diff * diff)))
            return dist - self.radius if self.complement else self.radius - dist
        if self.kind == "sup_exceed":
            states = traj.states
            diff = states if self.reference is None else states - self.reference
            sup = math.sqrt(dx * float(np.max(np.einsum("kdj,kdj->k", diff, diff))))
            return sup - self.radius
        value = TRAJECTORY_FUNCTIONALS[self.functional](traj)
        return value - self.level

    def occurred(self, traj: Trajectory) -> bool:
        return self._margin(traj) >= 0.0

    def shortfall(self, traj: Trajectory) -> float:
        return max(0.0, -self._margin(traj))

    def describe(self) -> dict:
        out = {"kind": self.kind}
        if self.kind in ("terminal_ball", "sup_exceed"):
            out["radius"] = self.radius
            out["complement"] = bool(self.complement)
            out["centered"] = self.center is not None or self.reference is not None
        else:
            out["functional"] = self.functional
            out["level"] = self.level
        return out


def rate_functional(control: Control) -> float:
    """I(h) = 1/2 |h|_CM^2, exactly as stored on the control grid."""
    return 0.5 * control.cm_norm_sq()


@dataclass
class RateResult:
    control: Control
    rate: float
    violation: float
    feasible: bool
    stagnated: bool
    trace: list
    n_pen: float
    dt: float
    steps: int

    def to_dict(self) -> dict:
        return {
            "I_star": self.rate,
            "violation": self.violation,
            "feasible": self.feasible,
            "stagnated": self.stagnated,
            "n_pen": self.n_pen,
            "dt": self.dt,
            "steps": self.steps,
            "control_K": self.control.K,
            "control_m": self.control.m,
            "trace": self.trace,
            "control_values": [[float(v) for v in row]
                               for row in self.control.values],
        }


def minimize_rate(coeffs: ModelCoefficients, domain: ConvexDomain,
                  gamma: ObliqueField, u0, event: EventSpec, T: float, K: int,
                  dt: float, n_pen: float = EVENT_N_PEN,
                  mu_schedule=(1e1, 1e2, 1e3, 1e4), fd_step: float = 1e-4,
                  max_iters: int = 150, stag_window: int = 50,
                  feas_tol: float = 1e-3, max_dim: int = 64) -> RateResult:
    """Penalized minimization of the action over controls on an (m, K) grid.

    Gradient descent with numerical gradients is deliberate: it treats the
    solver as a black box, so the same routine works for every event kind
    and every coefficient choice.  The control dimension m * K is capped:
    each gradient costs dim skeleton solves, run as one batch of controls.
    The Armijo backtrack solves LADDER halvings of the step as one batch
    and accepts the first that passes, which is the step the sequential
    search would accept; the members after it are wasted.  Each member of
    a batch equals its own single solve bit for bit, so the iterates do
    not depend on the batching.

    When no control can realize the event (e.g. sigma = 0), the shortfall
    cannot be driven down and the result comes back feasible=False with
    the shortfall reported; callers must check the flag before quoting
    the rate.
    """
    m = coeffs.m
    dim = m * K
    if dim > max_dim:
        raise ValueError(f"control dimension m*K = {dim} exceeds {max_dim}; "
                         "coarsen the control grid")
    steps, dt_eff = resolve_time_grid(T, dt, n_pen, K)

    def control_at(x):
        return Control(T=T, values=x.reshape(m, K))

    def objective(ctrl, v, mu):
        return rate_functional(ctrl) + mu * v * v

    def evaluate(points, mu):
        """(objective, shortfall) at each point, the skeleton solves run a
        chunk of controls at a time."""
        out = []
        for part in _chunks(points, steps, u0.grid):
            ctrls = [control_at(x) for x in part]
            chunk = solve_penalized_spde(coeffs, domain, gamma, u0,
                                         n_pen=n_pen, dt=dt_eff, steps=steps,
                                         control=ctrls)
            for b, ctrl in enumerate(ctrls):
                v = event.shortfall(chunk.member(b))
                out.append((objective(ctrl, v, mu), v))
        return out

    def backtrack(x, grad, fcur, gnorm_sq, mu, step):
        """(step, point, objective, shortfall) of the first of step,
        step/2, ... (down to 1e-14) that passes the Armijo test, or None,
        trying LADDER of them per batch."""
        halvings = []
        while step > 1e-14:
            halvings.append(step)
            step *= 0.5
        for lo in range(0, len(halvings), LADDER):
            ladder = halvings[lo:lo + LADDER]
            trials = [x - s * grad for s in ladder]
            for s, trial, (f, v) in zip(ladder, trials, evaluate(trials, mu)):
                if f <= fcur - ARMIJO_C1 * s * gnorm_sq:
                    return s, trial, f, v
        return None

    x = np.zeros(dim)
    ((_, vcur),) = evaluate([x], 0.0)
    trace = []
    stagnated = False
    step0 = 1.0
    for stage, mu in enumerate(mu_schedule):
        fcur = objective(control_at(x), vcur, mu)
        stall = 0
        iters_done = 0
        for _ in range(max_iters):
            iters_done += 1
            points = []
            for i in range(dim):
                xp = x.copy()
                xp[i] += fd_step
                points.append(xp)
            grad = np.array([(fp - fcur) / fd_step
                             for fp, _ in evaluate(points, mu)])
            gnorm_sq = float(grad @ grad)
            if gnorm_sq < 1e-24:
                break
            accepted = backtrack(x, grad, fcur, gnorm_sq, mu, step0)
            if accepted is None:
                break
            step, trial, ftrial, vtrial = accepted
            rel_drop = (fcur - ftrial) / max(abs(fcur), 1e-30)
            x, fcur, vcur = trial, ftrial, vtrial
            step0 = min(4.0 * step, 1e3)
            stall = stall + 1 if rel_drop < STAG_REL else 0
            if stall >= stag_window:
                stagnated = True
                break
        trace.append({"mu": float(mu), "objective": float(fcur),
                      "shortfall": float(vcur), "iterations": iters_done})
        if vcur <= feas_tol and stage > 0:
            # already feasible at this stiffness; later stages would only
            # re-verify the same point
            break

    ctrl = control_at(x)
    return RateResult(control=ctrl, rate=rate_functional(ctrl),
                      violation=vcur, feasible=vcur <= feas_tol,
                      stagnated=stagnated, trace=trace, n_pen=n_pen,
                      dt=dt_eff, steps=steps)


# -- Monte Carlo -------------------------------------------------------


@dataclass
class ReplicaRow:
    replica: int
    seed: int
    sup_pen_H: float
    terminal_H_norm: float
    event: int

    CSV_HEADER = "replica,seed,sup_pen_H,terminal_H_norm,event"

    def csv_line(self) -> str:
        return (f"{self.replica},{self.seed},{self.sup_pen_H!r},"
                f"{self.terminal_H_norm!r},{self.event}")


@dataclass
class MCResult:
    p_hat: float
    stderr: float
    hits: int
    replicas: int
    rows: list
    upper_bound: float = None  # 3/R rule when no replica hit the event

    def to_dict(self) -> dict:
        out = {"p_hat": self.p_hat, "stderr": self.stderr, "hits": self.hits,
               "replicas": self.replicas}
        if self.upper_bound is not None:
            out["upper_bound"] = self.upper_bound
        return out


def _replicas(read, coeffs, domain, gamma, u0, plan: ReplicaPlan, indices,
              epsilon: float, n_pen: float, dt: float, steps: int,
              control: Control = None) -> list:
    """read(index, seed, trajectory) of each replica index, in order.

    Each replica's noise depends only on its own plan seed.  The replicas
    are solved a chunk at a time, as many members as CHUNK_BYTES of state
    stack holds; a chunk's arrays are dropped before the next one starts,
    so ``read`` must not keep the trajectory it is given.  The sampler and
    the solver are looked up in this module's namespace, where wrappers
    may replace them.
    """
    out = []
    for part in _chunks(indices, steps, u0.grid):
        seeds = [plan.seed_for(i) for i in part]
        chunk = solve_penalized_spde(
            coeffs, domain, gamma, u0, n_pen=n_pen, dt=dt, steps=steps,
            epsilon=epsilon, control=control,
            noise=[sample_brownian(coeffs.m, steps, dt, s) for s in seeds])
        out += [read(i, s, chunk.member(b))
                for b, (i, s) in enumerate(zip(part, seeds))]
        del chunk
    return out


def mc_rows(coeffs, domain, gamma, u0, event: EventSpec, epsilon: float,
            n_pen: float, dt: float, steps: int, plan: ReplicaPlan,
            start: int, stop: int, control: Control = None) -> list:
    """Replica rows for indices [start, stop) of the plan.

    Splitting a plan across workers and concatenating the row lists in
    index order reproduces the serial run exactly, because every replica's
    noise depends only on its own plan seed and a chunk's members do not
    interact.  The runner estimates every P(event), the comparison table's
    too, by fanning replica ranges out to its workers and passing the
    merged rows to ``summarize_rows``.
    """
    def row(i, seed, traj):
        return ReplicaRow(replica=i, seed=seed,
                          sup_pen_H=float(np.max(traj.series.pen_h)),
                          terminal_H_norm=h_norm(traj.terminal),
                          event=int(event.occurred(traj)))

    return _replicas(row, coeffs, domain, gamma, u0, plan, range(start, stop),
                     epsilon, n_pen, dt, steps, control)


def summarize_rows(rows: list, replicas: int) -> MCResult:
    hits = sum(r.event for r in rows)
    p_hat = hits / replicas
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / replicas)
    upper = 3.0 / replicas if hits == 0 else None
    return MCResult(p_hat=p_hat, stderr=stderr, hits=hits, replicas=replicas,
                    rows=rows, upper_bound=upper)


# -- comparisons across noise levels -----------------------------------


@dataclass
class CompareRow:
    """One noise level of the rate-versus-sampling comparison.

    neg_eps_log_p is NaN when no replica hit the event; such rows are
    kept in the table (the upper bound still carries information) but are
    excluded from any trend assertion.
    """

    epsilon: float
    p_hat: float
    stderr: float
    neg_eps_log_p: float
    i_star: float
    ldp1_prob: float

    CSV_HEADER = "epsilon,p_hat,stderr,neg_eps_log_p,I_star,ldp1_prob"

    def csv_line(self) -> str:
        return (f"{self.epsilon!r},{self.p_hat!r},{self.stderr!r},"
                f"{self.neg_eps_log_p!r},{self.i_star!r},{self.ldp1_prob!r}")


def ldp_compare(coeffs, domain, gamma, u0, rate: RateResult, estimates,
                base_seed: int, ldp1_delta_sq: float,
                ldp1_replicas: int) -> list:
    """One row per (epsilon, MCResult) pair of ``estimates``: sampled
    -eps*log P(event) against I*, plus the fraction of controlled
    replicas that stray from the skeleton.

    The estimates must come from the rate result's own time grid and
    penalty level, which the stray count uses too.  ldp1_prob estimates
        P( sup|Y^eps - Z|_H^2 + int |Y^eps - Z|_V^2 dt > delta^2 )
    for Y^eps the controlled stochastic solution at the optimizer's h and
    Z = G0(h), on ldp1_replicas replicas seeded from base_seed + 1 (the
    same paths at every epsilon); it should fall to zero with epsilon.
    """
    n_pen, dt, steps = rate.n_pen, rate.dt, rate.steps
    h_star = rate.control
    skeleton = solve_penalized_spde(coeffs, domain, gamma, u0, n_pen=n_pen,
                                    dt=dt, steps=steps, control=h_star)
    ldp1_plan = ReplicaPlan(base_seed=base_seed + 1, count=ldp1_replicas)

    def stray(i, seed, y):
        gh, gv = state_gap(y, skeleton)
        return int(gh + gv > ldp1_delta_sq)

    out = []
    for eps, res in estimates:
        neg = -eps * math.log(res.p_hat) if res.p_hat > 0 else math.nan
        strays = sum(_replicas(stray, coeffs, domain, gamma, u0, ldp1_plan,
                               range(ldp1_replicas), eps, n_pen, dt, steps,
                               h_star))
        out.append(CompareRow(epsilon=float(eps), p_hat=res.p_hat,
                              stderr=res.stderr, neg_eps_log_p=neg,
                              i_star=rate.rate,
                              ldp1_prob=strays / ldp1_replicas))
    return out


@dataclass
class WeightedTrendRow:
    epsilon: float
    mean_weighted_sup: float
    mean_weighted_int: float

    CSV_HEADER = "epsilon,mean_weighted_sup,mean_weighted_int"

    def csv_line(self) -> str:
        return (f"{self.epsilon!r},{self.mean_weighted_sup!r},"
                f"{self.mean_weighted_int!r}")


def weighted_trend(coeffs, domain, gamma, u0, control: Control, epsilons,
                   plan: ReplicaPlan, lam: float, n_pen: float, dt: float,
                   T: float) -> list:
    """Mean discounted distance between the controlled stochastic solution
    and its skeleton, per noise level (common Brownian paths across
    levels).  The discount rate lam multiplies the accumulated gradient
    energy of both runs; see diagnostics.weighted_distance."""
    steps, dt_eff = resolve_time_grid(T, dt, n_pen, control.K)
    skeleton = solve_penalized_spde(coeffs, domain, gamma, u0, n_pen=n_pen,
                                    dt=dt_eff, steps=steps, control=control)
    out = []
    for eps in epsilons:
        ws = _replicas(lambda i, seed, y: weighted_distance(y, skeleton, lam),
                       coeffs, domain, gamma, u0, plan, range(plan.count),
                       eps, n_pen, dt_eff, steps, control)
        sups = [w["weighted_sup"] for w in ws]
        ints = [w["weighted_int"] for w in ws]
        out.append(WeightedTrendRow(
            epsilon=float(eps),
            mean_weighted_sup=math.fsum(sups) / plan.count,
            mean_weighted_int=math.fsum(ints) / plan.count))
    return out
