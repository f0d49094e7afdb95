"""Small-noise machinery: rare events, the rate functional, its minimizer,
and Monte Carlo estimates that the two sides can be compared on.

The controlled noise-free solution map

    G0 : h  |->  skeleton solution driven by hdot

is evaluated at one fixed penalty level (EVENT_N_PEN by default), so an
"event" always refers to the penalized dynamics at that level, for both
the optimizer and the stochastic replicas.  The action of a control is

    I(h) = 1/2 |h|_CM^2 = 1/2 int_0^T |hdot(t)|^2 dt,

and the constrained minimum  I* = inf { I(h) : G0(h) realizes the event }
is one smooth objective under one constraint, the event's signed margin
c(h) >= 0.  It is solved by sequential quadratic programming over the
control's (m, K) table: each iteration solves its trial controls with
their forward-difference points as one batch, steps to the minimum-norm
point of the linearised constraint, and guards the step with an l1 merit
line search whose ladder of step sizes is one more batch, solved only
when the full step fails.  Two starts run side by side in the same
batches, and the iterates end on the constraint, not short of it.

Monte Carlo runs the stochastic solver over a ReplicaPlan, so a
replica's noise stream, Philox keyed by (base seed, replica index), is
independent of worker count and order, and the same replica index reuses
the same Brownian path across noise levels.  The readers ``mc_rows``,
``weighted_rows`` and ``stray_flags`` take the model, their own
parameters and ``plan, start, stop``, and return their values for
replicas [start, stop), so one fan-out serves all three.  Replicas, and
the minimizer's controls, are solved in chunks: one batched solve steps
as many of them as CHUNK_BYTES of (B, steps + 1, d, J) state stack would
hold, and a chunk's members do not interact, so no result depends on how
they are chunked.  The Monte Carlo rows and the minimizer read u(T), the
penetration series and the reflection measure, so their chunks keep
u(T) alone, not the stack, unless the event reads the path
(``EventSpec.reads_path``); the stray flags and the weighted distances
compare whole paths and keep them.  A chunk's keys come from one
``seed_for`` call and its paths from one reseated generator, bit for bit
what each replica's own Philox gives.  Every read of a chunk (events,
their shortfalls, the Monte Carlo rows, the ldp1 stray flags' Cauchy gaps
and the weighted distances) is one call on the whole chunk, one value per
member, each bit for bit the value a read of that member alone gives.

Every table row here (a replica of ``mc_rows``, a noise level of
``ldp_compare`` or ``summarize_weighted``) is a dict keyed by the name of
its column in ``cli``'s CSV files, and ``cli`` alone formats them.
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
from .trajectory import TrajectoryChunk, member_sums, path_states, state_gap

# Penalty level at which rare events are posed (config can override).
EVENT_N_PEN = 1024.0

# Replicas and the minimizer's controls are stepped as chunks of one
# batched solve: as many members as keep a chunk's state stack, members *
# (steps + 1) * d * J float64 values, within this many bytes (at least one
# member).  4 MiB holds the 200 replicas of a 128-step, J = 15 free
# interval (3.1 MB of states) in one solve.  A chunk solved without its
# path stores no stack, and the budget then bounds the gaps u - pi(u)
# that a penetrating chunk stores, which have the stack's size.  Arrays
# the budget does not count grow with it: a penetrating chunk's
# reflection increments, and the temporaries of the norm series that a
# solve with its path computes, as the weighted trend's solves are.  The
# weighted step of `rspde all` on configs/controlled_wall.json peaks at
# 86.5 MB against 66.3 MB with 512 KiB chunks, about 5 MB of the
# difference the norms'.
CHUNK_BYTES = 1 << 22

# minimize_rate: the Armijo constant of the merit test; the halvings of a
# rejected step solved as one batch; the size of the two starts; and the
# margin and relative step below which a start has converged.
ARMIJO_C1 = 1e-4
LADDER = 4
START_SIZE = 1e-3
STOP_MARGIN = 1e-12
STOP_STEP = 1e-6


def _chunks(items, steps: int, grid) -> list:
    """``items`` in consecutive slices of as many members as keep a chunk's
    state stack within CHUNK_BYTES (at least one member each)."""
    per = max(1, CHUNK_BYTES // (8 * (steps + 1) * grid.d * grid.J))
    return [items[lo:lo + per] for lo in range(0, len(items), per)]


def _terminal_h_norm(chunk: TrajectoryChunk, center=None) -> np.ndarray:
    """|u(T) - center|_H of each member, |u(T)|_H without a center."""
    terminal = chunk.states[:, -1]
    diff = terminal if center is None else terminal - center
    return np.sqrt(chunk.grid.dx * member_sums(diff * diff))


def _sup_h_norm(chunk: TrajectoryChunk, reference=None) -> np.ndarray:
    """sup_t |u(t) - reference|_H of each member, sup_t |u(t)|_H without a
    reference, from the states alone: no norm series is computed."""
    states = path_states(chunk)
    diff = states if reference is None else states - reference
    B, count, d, J = diff.shape
    flat = diff.reshape(B * count, d, J)
    sq = np.einsum("kdj,kdj->k", flat, flat).reshape(B, count)
    return np.sqrt(chunk.grid.dx * sq.max(axis=1))


# Each maps a chunk to one value per member, bit for bit what that
# member's own run gives.  eta_mass is the single-run form itself, the
# measure's total variation, which reads a run or a chunk; the others are
# h_norm of the terminal state, the largest h_norm over time and the mean
# of the terminal state's first component.
TRAJECTORY_FUNCTIONALS = {
    "terminal_h_norm": _terminal_h_norm,
    "sup_h_norm": _sup_h_norm,
    "eta_mass": lambda ch: ch.measure.total_variation,
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
    exactly when the event occurred, positive otherwise.  The optimizer's
    constraint is the signed ``margin``; Monte Carlo thresholds it at
    zero.  ``reads_path`` says whether the margin reads every state, so
    that its chunks must be solved with their path.
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

    def margin(self, chunk: TrajectoryChunk) -> np.ndarray:
        """Signed margin of each member, >= 0 exactly when the event
        occurred."""
        if self.kind == "terminal_ball":
            dist = _terminal_h_norm(chunk, self.center)
            return dist - self.radius if self.complement else self.radius - dist
        if self.kind == "sup_exceed":
            return _sup_h_norm(chunk, self.reference) - self.radius
        value = TRAJECTORY_FUNCTIONALS[self.functional](chunk)
        return value - self.level

    @property
    def reads_path(self) -> bool:
        """True for a sup over time; the other margins read u(T) or the
        reflection measure."""
        return self.kind == "sup_exceed" or self.functional == "sup_h_norm"

    def occurred(self, chunk: TrajectoryChunk) -> np.ndarray:
        return self.margin(chunk) >= 0.0

    def shortfall(self, chunk: TrajectoryChunk) -> np.ndarray:
        margin = self.margin(chunk)
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


@dataclass
class _Start:
    """One start of the rate search: its accepted control table x with
    margin c, the multiplier lam and merit weight nu there, the step to try
    next with the merit's slope along it, and how the start ended (None
    while it runs, then "converged", "unreachable" or "stalled")."""

    x: np.ndarray
    c: float
    lam: float = 0.0
    nu: float = 0.0
    step: np.ndarray = None
    slope: float = 0.0
    end: str = None


def minimize_rate(coeffs: ModelCoefficients, domain: ConvexDomain,
                  gamma: ObliqueField, u0, event: EventSpec, T: float, K: int,
                  dt: float, n_pen: float = EVENT_N_PEN, fd_step: float = 1e-4,
                  max_iters: int = 150, feas_tol: float = 1e-3) -> RateResult:
    """I* = min 1/2 |h|_CM^2 subject to the event's margin c(h) >= 0, by
    sequential quadratic programming over the control's (m, K) table x.

    The action is 1/2 w |x|^2 (w = T/K), so each step has a closed form:
    it goes to y = ((g.x - c)/|g|^2) g, the minimum-norm point of the
    constraint linearised with the forward-difference gradient g, and
    lam = w (g.x - c)/|g|^2 is the multiplier, dI*/d(margin).  One batch
    solves every start's trial y with its dim difference points.  A trial
    that fails the Armijo test of the l1 merit 1/2 w |x|^2 + nu max(0, -c)
    (nu twice the largest |lam| seen) costs one more batch, LADDER
    halvings of its step: the first that passes is solved again, with its
    gradient, in the next batch, and when none passes the start stalls.  A
    start converges when |c| <= STOP_MARGIN and |y - x| <= STOP_STEP
    (1 + |x|).

    The problem is not convex, so the starts +-START_SIZE (1, ..., 1) /
    sqrt(dim) run side by side and the lowest feasible result is
    reported.  The first batch also solves the zero control: an event it
    meets has I* = 0.  A start whose gradient vanishes while it misses the
    event ends at the zero control, which is the result when no start
    meets the event (e.g. sigma = 0): feasible=False with violation
    -c(0); callers must check the flag before quoting the rate.
    ``stagnated`` marks a reported start that stalled or ran out of
    max_iters, and the one ``trace`` entry holds the iterations (batches
    after the first), the ladder batches and the multiplier.  Batch
    members equal their single solves bit for bit, so nothing depends on
    the chunking.
    """
    m = coeffs.m
    dim = m * K
    steps, dt_eff = resolve_time_grid(T, dt, n_pen, K)
    w = T / K
    zero = np.zeros(dim)
    offsets = np.vstack([zero, fd_step * np.eye(dim)])

    def control_at(x):
        return Control(T=T, values=x.reshape(m, K))

    def margins(points) -> np.ndarray:
        out = []
        for part in _chunks(points, steps, u0.grid):
            chunk = solve_penalized_spde(
                coeffs, domain, gamma, u0, n_pen=n_pen, dt=dt_eff,
                steps=steps, control=[control_at(x) for x in part],
                path=event.reads_path)
            out += event.margin(chunk).tolist()
        return np.array(out)

    def probe(points, lead=()):
        """The margins at ``lead``, then the margin and its gradient at
        each point, from one list of members."""
        c = margins([*lead, *(x + e for x in points for e in offsets)])
        at = c[len(lead):].reshape(len(points), dim + 1)
        return c[:len(lead)], at[:, 0], (at[:, 1:] - at[:, :1]) / fd_step

    def passes(st, x, c, slope):
        """The Armijo test of the merit at x, from st's accepted point."""
        def merit(x, c):
            return 0.5 * w * float(x @ x) + st.nu * max(0.0, -c)
        return merit(x, c) <= merit(st.x, st.c) + ARMIJO_C1 * slope

    def plan(st, g):
        """The next step of st from its accepted point, or its end."""
        gg = float(g @ g)
        if gg == 0.0:
            if st.c >= 0.0:
                st.end = "converged"
            else:
                st.x, st.c, st.end = zero, c_zero, "unreachable"
            return
        st.lam = w * (float(g @ st.x) - st.c) / gg
        st.step = (st.lam / w) * g - st.x
        if (abs(st.c) <= STOP_MARGIN and math.sqrt(st.step @ st.step)
                <= STOP_STEP * (1.0 + math.sqrt(st.x @ st.x))):
            st.end = "converged"
            return
        st.nu = max(st.nu, 2.0 * abs(st.lam))
        st.slope = w * float(st.x @ st.step) - st.nu * max(0.0, -st.c)

    unit = np.full(dim, START_SIZE / math.sqrt(dim))
    (c_zero,), c, g = probe([unit, -unit], lead=[zero])
    if c_zero >= 0.0:
        # the zero control already meets the event
        starts = [_Start(zero, c_zero, end="converged")]
    else:
        starts = [_Start(x, cx) for x, cx in zip((unit, -unit), c)]
        for st, gx in zip(starts, g):
            plan(st, gx)

    rungs = [0.5 ** k for k in range(1, LADDER + 1)]
    iterations = ladders = 0
    live = [st for st in starts if st.end is None]
    while live and iterations < max_iters:
        iterations += 1
        trials = [st.x + st.step for st in live]
        _, c, g = probe(trials)
        rejected = []
        for st, x, cx, gx in zip(live, trials, c, g):
            if passes(st, x, cx, st.slope):
                st.x, st.c = x, cx
                plan(st, gx)
            else:
                rejected.append(st)
        if rejected:
            ladders += 1
            c = margins([st.x + a * st.step for st in rejected for a in rungs])
            for st, c_rungs in zip(rejected, c.reshape(-1, LADDER)):
                passed = [a for a, ca in zip(rungs, c_rungs)
                          if passes(st, st.x + a * st.step, ca, a * st.slope)]
                if passed:
                    st.step, st.slope = passed[0] * st.step, passed[0] * st.slope
                else:
                    st.end = "stalled"
        live = [st for st in starts if st.end is None]

    def rank(st):
        """Feasible starts by rate, then the others by violation."""
        v = max(0.0, -st.c)
        return (v > feas_tol,
                rate_functional(control_at(st.x)) if v <= feas_tol else v)

    best = min(starts, key=rank)
    ctrl = control_at(best.x)
    violation = max(0.0, -float(best.c))
    trace = [{"iterations": iterations, "ladders": ladders,
              "multiplier": float(best.lam)}]
    return RateResult(control=ctrl, rate=rate_functional(ctrl),
                      violation=violation, feasible=violation <= feas_tol,
                      stagnated=best.end in (None, "stalled"), trace=trace,
                      n_pen=n_pen, dt=dt_eff, steps=steps)


# -- Monte Carlo -------------------------------------------------------


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
              control: Control = None, path: bool = True) -> list:
    """The replica indices' values in order: read(indices, chunk) gives
    one value per member of each chunk that is solved, with its path or
    (path=False) u(T) alone.

    Each replica's noise depends only on its own plan key.  The replicas
    are solved a chunk at a time, as many members as CHUNK_BYTES of state
    stack holds; a chunk's keys come from one ``seed_for`` call and its
    noise paths from one ``sample_brownian`` call, each path bit for bit
    its replica's own.  A chunk's arrays are dropped before the next one
    starts, so ``read`` must not keep the chunk it is given.  The sampler
    and the solver are looked up in this module's namespace, where
    wrappers may replace them.
    """
    out = []
    for part in _chunks(indices, steps, u0.grid):
        chunk = solve_penalized_spde(
            coeffs, domain, gamma, u0, n_pen=n_pen, dt=dt, steps=steps,
            epsilon=epsilon, control=control, path=path,
            noise=sample_brownian(coeffs.m, steps, dt, plan.seed_for(part)))
        out += read(part, chunk)
        del chunk
    return out


def mc_rows(coeffs, domain, gamma, u0, event: EventSpec, epsilon: float,
            n_pen: float, dt: float, steps: int, plan: ReplicaPlan,
            start: int, stop: int) -> list:
    """Replica rows for indices [start, stop) of the plan: dicts of the
    replica index (its noise stream is named by the index and the run's
    base seed), sup_pen_H, terminal_H_norm and whether the event occurred.

    Splitting a plan across workers and concatenating the row lists in
    index order reproduces the serial run exactly, because every replica's
    noise depends only on its own plan key and a chunk's members do not
    interact.  Each column is read from the whole chunk at once, and the
    chunks keep u(T) alone unless the event reads the path.
    """
    def rows(part, chunk):
        columns = (chunk.series.pen_h.max(axis=1).tolist(),
                   _terminal_h_norm(chunk).tolist(),
                   event.occurred(chunk).tolist())
        return [{"replica": i, "sup_pen_H": pen, "terminal_H_norm": norm,
                 "event": hit} for i, pen, norm, hit in zip(part, *columns)]

    return _replicas(rows, coeffs, domain, gamma, u0, plan,
                     range(start, stop), epsilon, n_pen, dt, steps,
                     path=event.reads_path)


def summarize_rows(rows: list, replicas: int) -> MCResult:
    hits = sum(r["event"] for r in rows)
    p_hat = hits / replicas
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / replicas)
    upper = 3.0 / replicas if hits == 0 else None
    return MCResult(p_hat=p_hat, stderr=stderr, hits=hits, replicas=replicas,
                    rows=rows, upper_bound=upper)


# -- comparisons across noise levels -----------------------------------


def ldp_compare(rate: RateResult, estimates, strays) -> list:
    """One row per (epsilon, MCResult) pair of ``estimates`` and that
    level's ``stray_flags``, all on the rate result's time grid: sampled
    -eps*log P(event) against I*, and the fraction of flags set.

    neg_eps_log_p is NaN when no replica hit the event; such rows are
    kept in the table (the upper bound still carries information) but are
    excluded from any trend assertion.
    """
    out = []
    for (eps, res), flags in zip(estimates, strays):
        neg = -eps * math.log(res.p_hat) if res.p_hat > 0 else math.nan
        out.append({"epsilon": float(eps), "p_hat": res.p_hat,
                    "stderr": res.stderr, "neg_eps_log_p": neg,
                    "I_star": rate.rate, "ldp1_prob": sum(flags) / len(flags)})
    return out


def _controlled(read, coeffs, domain, gamma, u0, control: Control, epsilons,
                plan: ReplicaPlan, n_pen: float, dt: float, steps: int,
                start: int, stop: int) -> list:
    """For each noise level, read(chunk, G0(control)) of the controlled
    solutions of replicas [start, stop) (common paths across levels).  As
    with ``mc_rows``, joining ranges' lists in index order is the serial
    run."""
    skeleton = solve_penalized_spde(coeffs, domain, gamma, u0, n_pen=n_pen,
                                    dt=dt, steps=steps, control=control)
    return [_replicas(lambda part, chunk: read(chunk, skeleton),
                      coeffs, domain, gamma, u0, plan, range(start, stop),
                      eps, n_pen, dt, steps, control)
            for eps in epsilons]


def stray_flags(coeffs, domain, gamma, u0, control: Control, epsilons,
                plan: ReplicaPlan, delta_sq: float, n_pen: float, dt: float,
                steps: int, start: int, stop: int) -> list:
    """For each noise level, the ldp1 test of each controlled solution
    Y^eps of replicas [start, stop) against Z = G0(control),
        sup|Y^eps - Z|_H^2 + int |Y^eps - Z|_V^2 dt > delta_sq;
    the fraction set should fall to zero with epsilon."""
    def strays(chunk, skeleton):
        gap_h, gap_v = state_gap(chunk, skeleton)
        return (gap_h + gap_v > delta_sq).tolist()

    return _controlled(strays, coeffs, domain, gamma, u0, control, epsilons,
                       plan, n_pen, dt, steps, start, stop)


def weighted_rows(coeffs, domain, gamma, u0, control: Control, epsilons,
                  plan: ReplicaPlan, lam: float, n_pen: float, dt: float,
                  T: float, start: int, stop: int) -> list:
    """For each noise level, the discounted distances (weighted_distance
    dicts) between the controlled solutions of replicas [start, stop) and
    their skeleton, on the control's time grid.  The discount rate lam
    multiplies the accumulated gradient energy of both runs."""
    def distances(chunk, skeleton):
        w = weighted_distance(chunk, skeleton, lam)
        return [{"weighted_sup": sup, "weighted_int": integral}
                for sup, integral in zip(w["weighted_sup"].tolist(),
                                         w["weighted_int"].tolist())]

    steps, dt_eff = resolve_time_grid(T, dt, n_pen, control.K)
    return _controlled(distances, coeffs, domain, gamma, u0, control,
                       epsilons, plan, n_pen, dt_eff, steps, start, stop)


def summarize_weighted(epsilons, levels: list, count: int) -> list:
    """One row per noise level: the means over its ``count`` replicas of
    ``levels``' weighted distances (as ``weighted_rows`` returns them),
    summed exactly, so the order of the replicas does not matter."""
    return [{"epsilon": float(eps),
             "mean_weighted_sup": math.fsum(w["weighted_sup"] for w in ws) / count,
             "mean_weighted_int": math.fsum(w["weighted_int"] for w in ws) / count}
            for eps, ws in zip(epsilons, levels)]
