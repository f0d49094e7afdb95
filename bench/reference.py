"""Reference computations for the benchmark's output checks.

Everything here uses numpy alone and none of rspde, so a fault in the
program cannot hide in its own check.  Three closed forms back the three
workloads:

* On the free interval with additive noise the semi-implicit scheme is
  linear, u_{k+1} = M (u_k + sqrt(eps) sigma dB_k 1) with the dense
  propagator M = (I - dt Lap_h)^-1, so the terminal mean
  dx 1^T u_K is exactly Gaussian with variance
  eps sigma^2 dt sum_{k=1..K} (dx 1^T M^k 1)^2.
* The noise-free controlled map is linear as well, u_K = A h for a
  piecewise-constant control h on K_c intervals, so the least action
  that reaches |u_K|_H >= delta is
  I* = 1/2 delta^2 (T / K_c) / (dx sigma_max(A)^2).
* The Euclidean projection onto Ball(0, r) intersected with an
  axis-aligned box in the plane has a three-case closed form.
"""

from __future__ import annotations

import math

import numpy as np


def time_grid(T: float, dt_target: float, n_pen: float, control_K: int = 1):
    """(steps, dt): the largest dt <= min(dt_target, 1/(2 n_pen)) that puts
    a whole number of steps in each of control_K equal intervals."""
    dt_cap = min(dt_target, 0.5 / n_pen)
    per = max(1, math.ceil((T / control_K) / dt_cap - 1e-12))
    steps = control_K * per
    return steps, T / steps


def heat_propagator(J: int, dt: float) -> np.ndarray:
    """Dense (I - dt Lap_h)^-1 for the three-point Dirichlet Laplacian on
    the J interior points of [0, 1]."""
    dx = 1.0 / (J + 1)
    r = dt / (dx * dx)
    system = ((1.0 + 2.0 * r) * np.eye(J) - r * np.eye(J, k=1)
              - r * np.eye(J, k=-1))
    return np.linalg.inv(system)


def terminal_mean_std(J: int, dt: float, steps: int, epsilon: float,
                      sigma: float = 1.0) -> float:
    """Standard deviation of the terminal mean dx 1^T u_K started at 0."""
    dx = 1.0 / (J + 1)
    M = heat_propagator(J, dt)
    w = np.ones(J)
    total = 0.0
    for _ in range(steps):
        w = M @ w
        total += (dx * float(w.sum())) ** 2
    return math.sqrt(epsilon * sigma * sigma * dt * total)


def gaussian_tail(level: float, std: float) -> float:
    """P(N(0, std^2) >= level)."""
    return 0.5 * math.erfc(level / (std * math.sqrt(2.0)))


def control_matrix(J: int, dt: float, steps: int, control_K: int,
                   sigma: float = 1.0) -> np.ndarray:
    """A with u_K = A h for the noise-free scheme started at 0, h the
    control value on each of control_K equal intervals."""
    if steps % control_K:
        raise ValueError("steps must be a multiple of the control grid")
    per = steps // control_K
    M = heat_propagator(J, dt)
    A = np.zeros((J, control_K))
    w = np.ones(J)
    # step k contributes M^(steps - k) 1 dt sigma h_{k // per}
    for k in range(steps - 1, -1, -1):
        w = M @ w
        A[:, k // per] += dt * sigma * w
    return A


def closed_form_rate(J: int, dt: float, steps: int, control_K: int, T: float,
                     delta: float, sigma: float = 1.0) -> float:
    """Least action 1/2 |h|_CM^2 with |u_K|_H >= delta."""
    dx = 1.0 / (J + 1)
    A = control_matrix(J, dt, steps, control_K, sigma)
    smax = float(np.linalg.svd(A, compute_uv=False)[0])
    return 0.5 * delta * delta * (T / control_K) / (dx * smax * smax)


def project_ball_box(points, radius: float, lower, upper) -> np.ndarray:
    """Exact projection of (n, 2) points onto Ball(0, radius) cut with the
    box [lower, upper].

    The box clip is the answer when it lies in the ball, and the radial
    ball projection when it lies in the box; otherwise the nearest point
    lies on both boundaries, so it is the nearest crossing of the circle
    with a box edge.
    """
    pts = np.asarray(points, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    slack = 1e-12 * (radius + 1.0)
    clip = np.clip(pts, lower, upper)
    in_ball = np.hypot(clip[:, 0], clip[:, 1]) <= radius + slack
    norm = np.hypot(pts[:, 0], pts[:, 1])
    scale = np.divide(radius, norm, out=np.ones_like(norm), where=norm > 0)
    radial = pts * scale[:, None]
    in_box = np.all((radial >= lower - slack) & (radial <= upper + slack),
                    axis=1)
    crossings = _circle_box_crossings(radius, lower, upper)
    if len(crossings):
        gaps = np.linalg.norm(pts[:, None, :] - crossings[None, :, :], axis=2)
        corner = crossings[np.argmin(gaps, axis=1)]
    else:
        corner = radial
    return np.where(in_ball[:, None], clip,
                    np.where(in_box[:, None], radial, corner))


def _circle_box_crossings(radius, lower, upper) -> np.ndarray:
    found = []
    for axis in (0, 1):
        other = 1 - axis
        for level in (lower[axis], upper[axis]):
            if abs(level) > radius:
                continue
            reach = math.sqrt(radius * radius - level * level)
            for sign in (1.0, -1.0):
                p = np.empty(2)
                p[axis] = level
                p[other] = sign * reach
                if lower[other] <= p[other] <= upper[other]:
                    found.append(p)
    return np.array(found).reshape(-1, 2)


def penetration_h(states, radius: float, lower, upper) -> np.ndarray:
    """sqrt(dx sum_j |u_j - pi(u_j)|^2) for each (2, J) state of a stack."""
    states = np.asarray(states, dtype=float)
    dx = 1.0 / (states.shape[-1] + 1)
    pts = np.moveaxis(states, 1, 2).reshape(-1, 2)
    gap = pts - project_ball_box(pts, radius, lower, upper)
    per_state = np.sum((gap * gap).reshape(states.shape[0], -1), axis=1)
    return np.sqrt(dx * per_state)
