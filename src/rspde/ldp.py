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
are chunked.  A chunk's seeds and Philox keys come from one vectorised
pass of numpy's SeedSequence hash, and its paths from one reseated
generator, bit for bit what each replica's own SeedSequence and Philox
give.  Events, their shortfalls and the Monte Carlo rows are read from
the whole chunk at once, one value per member, each bit for bit the
value a read of that member alone gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import ModelCoefficients
from .controls import Control
from .diagnostics import weighted_distance
from .geometry import ConvexDomain, ObliqueField
from .solvers import (ReplicaPlan, resolve_time_grid, sample_brownian,
                      solve_penalized_spde)
from .trajectory import TrajectoryChunk, state_gap

# Penalty level at which rare events are posed (config can override).
EVENT_N_PEN = 1024.0

# Replicas and the minimizer's controls are stepped as chunks of one
# batched solve: as many members as keep a chunk's state stack, members *
# (steps + 1) * d * J float64 values, within this many bytes (at least one
# member).  4 MiB holds the 200 replicas of a 128-step, J = 15 free
# interval (3.1 MB of states) in one solve, for about 3 MB more peak RSS
# of `rspde mc` than 512 KiB chunks.  Arrays the budget does not count
# grow with it: a penetrating chunk's gaps and reflection increments, and
# the norm series' temporaries when a reader computes the norms, as the
# weighted trend's distances do.  The weighted step of `rspde all` on
# configs/controlled_wall.json peaks at 86.5 MB against 66.3 MB with
# 512 KiB chunks, about 5 MB of the difference the norms'.
CHUNK_BYTES = 1 << 22

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


def _member_sums(values: np.ndarray) -> np.ndarray:
    """The sum of each member's block of a (B, ...) array, each summed as
    np.sum sums that block alone."""
    return values.reshape(len(values), -1).sum(axis=1)


def _terminal_h_norm(chunk: TrajectoryChunk) -> np.ndarray:
    terminal = chunk.states[:, -1]
    return np.sqrt(chunk.grid.dx * _member_sums(terminal * terminal))


def _eta_mass(chunk: TrajectoryChunk) -> np.ndarray:
    # on the 4-d array: reshaping the shared zeros of a chunk that never
    # penetrated would copy them
    inc = chunk.measure.increments
    return _member_sums(np.sqrt(np.einsum("bkdj,bkdj->bkj", inc, inc)))


# Each maps a chunk to one value per member, equal to what the single-run
# form (h_norm of the terminal state, penetration_report's total
# variation, ...) gives that member alone.
TRAJECTORY_FUNCTIONALS = {
    "terminal_h_norm": _terminal_h_norm,
    "sup_h_norm": lambda ch: np.sqrt(ch.series.h_sq.max(axis=1)),
    "eta_mass": _eta_mass,
    "terminal_mean": lambda ch: ch.grid.dx * ch.states[:, -1, 0].sum(axis=1),
}


@dataclass
class EventSpec:
    """A rare event, stated on the trajectory of the penalized dynamics.

    kind = "terminal_ball":  |u(T) - center|_H <= radius   (event is the
        closed ball; with complement=True the event is |.| >= radius);
    kind = "sup_exceed":     sup_t |u(t) - reference|_H >= radius;
    kind = "functional_threshold":  F(u) >= level for a named functional
        from TRAJECTORY_FUNCTIONALS.

    ``occurred`` and ``shortfall`` read a whole TrajectoryChunk (a single
    run is a chunk of one) and return one value per member.  The
    shortfall is the continuous margin by which the event is missed: zero
    exactly when the event occurred, positive otherwise.  The optimizer
    squares it; Monte Carlo thresholds it at zero.
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

    def _margin(self, chunk: TrajectoryChunk) -> np.ndarray:
        """Signed margin of each member, >= 0 exactly when the event
        occurred."""
        dx = chunk.grid.dx
        if self.kind == "terminal_ball":
            diff = chunk.states[:, -1]
            if self.center is not None:
                diff = diff - self.center
            dist = np.sqrt(dx * _member_sums(diff * diff))
            return dist - self.radius if self.complement else self.radius - dist
        if self.kind == "sup_exceed":
            states = chunk.states
            diff = states if self.reference is None else states - self.reference
            B, count, d, J = diff.shape
            flat = diff.reshape(B * count, d, J)
            sq = np.einsum("kdj,kdj->k", flat, flat).reshape(B, count)
            return np.sqrt(dx * sq.max(axis=1)) - self.radius
        value = TRAJECTORY_FUNCTIONALS[self.functional](chunk)
        return value - self.level

    def occurred(self, chunk: TrajectoryChunk) -> np.ndarray:
        return self._margin(chunk) >= 0.0

    def shortfall(self, chunk: TrajectoryChunk) -> np.ndarray:
        margin = self._margin(chunk)
        return np.where(margin < 0.0, -margin, 0.0)

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
            for ctrl, v in zip(ctrls, event.shortfall(chunk).tolist()):
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
    """The replica indices' values in order: read(indices, seeds, chunk)
    gives one value per member of each chunk that is solved.

    Each replica's noise depends only on its own plan seed.  The replicas
    are solved a chunk at a time, as many members as CHUNK_BYTES of state
    stack holds; a chunk's seeds come from one ``seed_for`` call and its
    noise paths from one ``sample_brownian`` call, each a vectorised pass
    over the chunk that equals the per-replica derivation bit for bit.  A
    chunk's arrays are dropped before the next one starts, so ``read``
    must not keep the chunk it is given.  The sampler and the solver are
    looked up in this module's namespace, where wrappers may replace them.
    """
    out = []
    for part in _chunks(indices, steps, u0.grid):
        seeds = plan.seed_for(part)
        chunk = solve_penalized_spde(
            coeffs, domain, gamma, u0, n_pen=n_pen, dt=dt, steps=steps,
            epsilon=epsilon, control=control,
            noise=sample_brownian(coeffs.m, steps, dt, seeds))
        out += read(part, seeds, chunk)
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
    merged rows to ``summarize_rows``.  Each column is read from the
    whole chunk at once.
    """
    def rows(part, seeds, chunk):
        columns = (chunk.series.pen_h.max(axis=1).tolist(),
                   _terminal_h_norm(chunk).tolist(),
                   event.occurred(chunk).tolist())
        return [ReplicaRow(replica=i, seed=seed, sup_pen_H=pen,
                           terminal_H_norm=norm, event=int(hit))
                for i, seed, pen, norm, hit in zip(part, seeds, *columns)]

    return _replicas(rows, coeffs, domain, gamma, u0, plan,
                     range(start, stop), epsilon, n_pen, dt, steps, control)


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

    def stray(part, seeds, chunk):
        gaps = (state_gap(chunk.member(b), skeleton) for b in range(len(part)))
        return [int(gh + gv > ldp1_delta_sq) for gh, gv in gaps]

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


def weighted_rows(coeffs, domain, gamma, u0, control: Control, epsilons,
                  plan: ReplicaPlan, lam: float, n_pen: float, dt: float,
                  T: float, start: int, stop: int) -> list:
    """For each noise level, the discounted distances (weighted_distance
    dicts) between the controlled stochastic solutions of replicas
    [start, stop) of the plan and their skeleton (common Brownian paths
    across levels).  The discount rate lam multiplies the accumulated
    gradient energy of both runs.

    As with ``mc_rows``, splitting the plan across workers and joining
    each level's lists in index order reproduces the serial run; the
    runner fans the replica ranges out and passes the joined lists to
    ``summarize_weighted``.
    """
    steps, dt_eff = resolve_time_grid(T, dt, n_pen, control.K)
    skeleton = solve_penalized_spde(coeffs, domain, gamma, u0, n_pen=n_pen,
                                    dt=dt_eff, steps=steps, control=control)

    def distances(part, seeds, chunk):
        return [weighted_distance(chunk.member(b), skeleton, lam)
                for b in range(len(part))]

    return [_replicas(distances, coeffs, domain, gamma, u0, plan,
                      range(start, stop), eps, n_pen, dt_eff, steps, control)
            for eps in epsilons]


def summarize_weighted(epsilons, levels: list, count: int) -> list:
    """One row per noise level: the means over its ``count`` replicas of
    ``levels``' weighted distances (as ``weighted_rows`` returns them),
    summed exactly, so the order of the replicas does not matter."""
    return [WeightedTrendRow(
                epsilon=float(eps),
                mean_weighted_sup=math.fsum(w["weighted_sup"] for w in ws) / count,
                mean_weighted_int=math.fsum(w["weighted_int"] for w in ws) / count)
            for eps, ws in zip(epsilons, levels)]
