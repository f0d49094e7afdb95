"""Property tests of the benchmark's reference computations.

    python3 -m pytest bench/test_reference.py
"""

import math

import numpy as np
import pytest

import reference

J = 15
T = 0.25
STEPS, DT = reference.time_grid(T, 1.0 / 512.0, 256.0)


def test_time_grid_matches_the_free_interval_runs():
    assert (STEPS, DT) == (128, 1.0 / 512.0)
    assert reference.time_grid(T, 2e-3, 256.0, 4) == (128, 1.0 / 512.0)


def test_gaussian_variance_matches_directly_propagated_sums():
    eps = 0.01
    paths = 20000
    M = reference.heat_propagator(J, DT)
    rng = np.random.Generator(np.random.Philox(7))
    u = np.zeros((paths, J))
    for _ in range(STEPS):
        dB = rng.normal(0.0, math.sqrt(DT), size=paths)
        u = (u + math.sqrt(eps) * dB[:, None]) @ M.T
    means = u.sum(axis=1) / (J + 1)
    want = reference.terminal_mean_std(J, DT, STEPS, eps) ** 2
    # the sample variance has relative spread sqrt(2 / paths) = 1%
    assert abs(np.var(means, ddof=1) / want - 1.0) < 0.05


def test_gaussian_tail_is_the_normal_survival_function():
    assert reference.gaussian_tail(0.0, 2.0) == 0.5
    assert reference.gaussian_tail(1.959963984540054, 1.0) == pytest.approx(0.025)


@pytest.mark.parametrize("K", [1, 2, 4, 16])
def test_closed_form_rate_is_at_most_any_control_reaching_the_radius(K):
    delta = 0.17982651009675618
    dx = 1.0 / (J + 1)
    A = reference.control_matrix(J, DT, STEPS, K)
    best = reference.closed_form_rate(J, DT, STEPS, K, T, delta)

    def action_reaching(h):
        reach = math.sqrt(dx) * np.linalg.norm(A @ h)
        return 0.5 * float(np.sum(h * h)) * (T / K) * (delta / reach) ** 2

    constant = action_reaching(np.ones(K))
    assert best <= constant * (1 + 1e-12)
    if K == 1:
        assert best == pytest.approx(constant, rel=1e-12)
    rng = np.random.Generator(np.random.Philox(K))
    for h in rng.normal(size=(50, K)):
        assert best <= action_reaching(h) * (1 + 1e-12)


DOMAINS = [(0.5, [-0.4, -0.45], [0.45, 0.4]),
           (1.0, [-0.9, -0.5], [0.8, 0.95])]


@pytest.mark.parametrize("radius,lower,upper", DOMAINS)
def test_ball_box_projection(radius, lower, upper):
    lo, hi = np.array(lower), np.array(upper)
    rng = np.random.Generator(np.random.Philox(3))
    pts = rng.uniform(-2.0 * radius, 2.0 * radius, size=(400, 2))
    proj = reference.project_ball_box(pts, radius, lo, hi)

    # lands in both sets, and projecting again moves nothing
    assert np.all(np.hypot(proj[:, 0], proj[:, 1]) <= radius + 1e-12)
    assert np.all((proj >= lo - 1e-12) & (proj <= hi + 1e-12))
    np.testing.assert_allclose(
        reference.project_ball_box(proj, radius, lo, hi), proj, atol=1e-12)

    # no sampled feasible point is closer, boundary samples included
    cand = rng.uniform(lo, hi, size=(6000, 2))
    angles = rng.uniform(0.0, 2.0 * math.pi, size=3000)
    cand = np.vstack([cand, radius * np.column_stack([np.cos(angles),
                                                      np.sin(angles)])])
    cand = np.clip(cand, lo, hi)
    cand = cand[np.hypot(cand[:, 0], cand[:, 1]) <= radius]
    best = np.linalg.norm(pts - proj, axis=1)
    for i, x in enumerate(pts):
        nearest = np.min(np.linalg.norm(cand - x, axis=1))
        assert best[i] <= nearest + 1e-12


def test_penetration_is_zero_inside_and_exact_outside():
    radius, lo, hi = DOMAINS[0]
    states = np.zeros((2, 2, 7))
    states[1, 0, 3] = 1.0  # one point at (1, 0): the box clip (0.45, 0) is in the ball
    pen = reference.penetration_h(states, radius, lo, hi)
    assert pen[0] == 0.0
    assert pen[1] == pytest.approx(math.sqrt((1.0 - 0.45) ** 2 / 8.0))
