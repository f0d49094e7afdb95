"""Tests for convex-domain geometry: projections, normals, oblique fields."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rspde.geometry import (
    Ball,
    Box,
    GeometryError,
    Intersection,
    ObliqueField,
    Polytope,
    boundary_points,
    build_oblique_matrix,
    exterior_points,
    interior_points,
    unit_directions,
    validate_oblique_field,
)


def unit_ball(d=2):
    return Ball(center=np.zeros(d), radius=1.0)


def sym_box(d=2):
    return Box(lower=-np.ones(d), upper=np.ones(d))


def diamond():
    # |x| + |y| <= 1 as four halfspaces.
    s = math.sqrt(0.5)
    normals = np.array([[s, s], [s, -s], [-s, s], [-s, -s]])
    return Polytope(normals=normals, offsets=np.full(4, s))


def diamond_3d():
    # |x| + |y| + |z| <= 1.2 as eight halfspaces.
    normals = np.array([[a, b, c] for a in (-1, 1) for b in (-1, 1)
                        for c in (-1, 1)]) / math.sqrt(3.0)
    return Polytope(normals=normals, offsets=np.full(8, 1.2 / math.sqrt(3.0)))


DOMAINS = {
    "ball2": unit_ball(2),
    "ball3": Ball(center=[0.1, -0.2, 0.0], radius=1.5),
    "box2": sym_box(2),
    "box1": Box(lower=[-0.25], upper=[0.25]),
    "polytope": diamond(),
    "intersection": Intersection([unit_ball(2), sym_box(2)]),
}


# ---------------------------------------------------------------------------
# projection basics


def test_ball_projection_pulls_to_sphere() -> None:
    dom = unit_ball(2)
    assert np.array_equal(dom.project([2.0, 0.0]), [1.0, 0.0])


def test_interior_point_is_fixed() -> None:
    dom = unit_ball(2)
    y = np.array([0.3, -0.1])
    assert np.array_equal(dom.project(y), y)


def test_box_corner_distance() -> None:
    # (2, 3) against [-1, 1]^2 projects to the corner (1, 1).
    dom = sym_box(2)
    assert np.array_equal(dom.project([2.0, 3.0]), [1.0, 1.0])
    assert dom.distance([2.0, 3.0]) == pytest.approx(math.sqrt(5.0), rel=1e-15)


def test_distance_zero_inside_positive_outside() -> None:
    for name, dom in DOMAINS.items():
        inner = interior_points(dom, 50, seed=3)
        assert np.all(dom.distance_many(inner) == 0.0), name
        outer = exterior_points(dom, 50, seed=4)
        assert np.all(dom.distance_many(outer) > 0.0), name


@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_projection_contraction(name) -> None:
    # |P(x) - P(y)| <= |x - y| + 1e-12 on randomized pairs.
    dom = DOMAINS[name]
    rng = np.random.Generator(np.random.Philox(11))
    scale = 3.0 * dom.bounding_radius
    x = rng.uniform(-scale, scale, size=(2000, dom.dim))
    y = rng.uniform(-scale, scale, size=(2000, dom.dim))
    px, py = dom.project_many(x), dom.project_many(y)
    lhs = np.linalg.norm(px - py, axis=1)
    rhs = np.linalg.norm(x - y, axis=1)
    assert np.all(lhs <= rhs + 1e-12), name


@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_projection_idempotent(name) -> None:
    dom = DOMAINS[name]
    rng = np.random.Generator(np.random.Philox(12))
    scale = 3.0 * dom.bounding_radius
    x = rng.uniform(-scale, scale, size=(500, dom.dim))
    p1 = dom.project_many(x)
    p2 = dom.project_many(p1)
    if name in ("polytope", "intersection"):
        assert np.max(np.abs(p2 - p1)) <= 1e-12
    else:
        assert np.array_equal(p1, p2), name


@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_projection_lands_inside(name) -> None:
    dom = DOMAINS[name]
    rng = np.random.Generator(np.random.Philox(13))
    x = rng.uniform(-3.0, 3.0, size=(500, dom.dim)) * dom.bounding_radius
    p = dom.project_many(x)
    assert dom.contains_many(p, tol=1e-9).all(), name


def test_box_polytope_projection_agree() -> None:
    # The same box written as four halfspaces must project identically
    # (Dykstra vs componentwise clamp), an independent check of Dykstra.
    box = sym_box(2)
    poly = Polytope(normals=[[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                    offsets=[1.0, 1.0, 1.0, 1.0])
    rng = np.random.Generator(np.random.Philox(14))
    x = rng.uniform(-3.0, 3.0, size=(400, 2))
    assert np.max(np.abs(box.project_many(x) - poly.project_many(x))) <= 1e-12


@given(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))
@settings(max_examples=80)
def test_ball_projection_hypothesis(x, y) -> None:
    dom = unit_ball(2)
    p = dom.project([x, y])
    assert np.linalg.norm(p) <= 1.0 + 1e-12
    r = math.hypot(x, y)
    if r > 1.0 + 1e-9:
        # exterior points land on the sphere
        assert np.linalg.norm(p) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# normals


def test_ball_normal_is_radial() -> None:
    dom = unit_ball(2)
    res = dom.outward_normal([0.0, 1.0])
    assert np.allclose(res.vector, [0.0, 1.0])
    assert not res.nonsmooth


def test_box_corner_normal_tie_break() -> None:
    s = math.sqrt(0.5)
    res = sym_box(2).outward_normal([1.0, 1.0])
    assert np.allclose(res.vector, [s, s], atol=1e-12)
    assert res.nonsmooth


def test_normal_rejects_off_boundary_points() -> None:
    with pytest.raises(GeometryError):
        unit_ball(2).outward_normal([0.5, 0.0])
    with pytest.raises(GeometryError):
        sym_box(2).outward_normal([0.5, 0.2])


@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_convexity_inequality(name) -> None:
    # <x - y, n(x)> >= -1e-10 for boundary x and interior y.
    dom = DOMAINS[name]
    pts, normals, _ = boundary_points(dom, 200, seed=21)
    ys = interior_points(dom, 200, seed=22)
    vals = np.einsum("nd,nd->n", pts - ys, normals)
    assert np.min(vals) >= -1e-10, name


def test_unit_directions_are_unit_and_spread() -> None:
    for d in (1, 2, 3):
        dirs = unit_directions(d, 128, seed=5)
        assert dirs.shape == (128, d)
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)
        # at least both half-spaces visited in every coordinate
        assert (dirs > 0).any(axis=0).all() and (dirs < 0).any(axis=0).all()


def test_boundary_points_lie_on_boundary() -> None:
    for name, dom in DOMAINS.items():
        pts, normals, _ = boundary_points(dom, 100, seed=6)
        assert np.max(np.abs([dom.interior_gap(p) for p in pts])) <= 1e-9, name
        assert np.allclose(np.linalg.norm(normals, axis=1), 1.0, atol=1e-9), name


# The per-point queries the batch ray cast replaced, kept as its reference.


def _reference_gap(dom, x):
    if isinstance(dom, Ball):
        return dom.radius - float(np.linalg.norm(x - dom.center))
    if isinstance(dom, Box):
        return float(min(np.min(x - dom.lower), np.min(dom.upper - x)))
    if isinstance(dom, Polytope):
        return float(np.min(dom.offsets - dom.normals @ x))
    return min(_reference_gap(m, x) for m in dom.members)


def _reference_ray_exit(dom, u):
    if isinstance(dom, Ball):
        b = float(u @ dom.center)
        return b + math.sqrt(b * b - float(dom.center @ dom.center) + dom.radius ** 2)
    if isinstance(dom, Box):
        t = np.inf
        for i in range(dom.dim):
            if u[i] > 0:
                t = min(t, dom.upper[i] / u[i])
            elif u[i] < 0:
                t = min(t, dom.lower[i] / u[i])
        return t
    if isinstance(dom, Polytope):
        dots = dom.normals @ u
        pos = dots > 0
        return float(np.min(dom.offsets[pos] / dots[pos])) if pos.any() else np.inf
    return min(_reference_ray_exit(m, u) for m in dom.members)


def _reference_normal(dom, x):
    """(vector, nonsmooth) at boundary point x."""
    if isinstance(dom, Ball):
        v = x - dom.center
        return v / np.linalg.norm(v), False
    if isinstance(dom, Box):
        lo = np.abs(x - dom.lower) <= 1e-9
        hi = np.abs(dom.upper - x) <= 1e-9
        v = hi.astype(float) - lo.astype(float)
        return v / np.linalg.norm(v), int(lo.sum() + hi.sum()) > 1
    if isinstance(dom, Polytope):
        active = dom.offsets - dom.normals @ x <= 1e-9
        v = dom.normals[active].sum(axis=0)
        return v / np.linalg.norm(v), int(active.sum()) > 1
    parts = [_reference_normal(m, x) for m in dom.members
             if _reference_gap(m, x) <= 1e-9]
    v = np.sum([p[0] for p in parts], axis=0)
    nv = np.linalg.norm(v)
    if nv < 1e-12:
        raise GeometryError("degenerate corner")
    return v / nv, len(parts) > 1 or any(p[1] for p in parts)


RAY_CAST_DOMAINS = {
    "polytope": diamond(),
    "triangle": Polytope(normals=[[0.0, -1.0], [math.sqrt(0.5), math.sqrt(0.5)],
                                  [-math.sqrt(0.5), math.sqrt(0.5)]],
                         offsets=[0.5, 0.7, 0.7]),
    "ball-box": Intersection([unit_ball(2), Box(lower=[-0.8, -0.9], upper=[0.8, 0.9])]),
    "ball-box-3d": Intersection([Ball(center=[0.0, 0.1, 0.0], radius=1.0),
                                 Box(lower=[-0.7, -0.9, -0.6], upper=[0.8, 0.6, 0.9]),
                                 diamond_3d()]),
}


@pytest.mark.parametrize("name", sorted(RAY_CAST_DOMAINS))
def test_ray_cast_boundary_matches_pointwise_reference(name) -> None:
    dom = RAY_CAST_DOMAINS[name]
    pts, normals, nonsmooth = boundary_points(dom, 500, seed=8)
    dirs = unit_directions(dom.dim, 500, seed=8)
    ref = [_reference_ray_exit(dom, u) * u for u in dirs]
    assert np.max(np.abs(pts - ref)) <= 1e-15
    ref = [_reference_normal(dom, p) for p in ref]
    assert np.max(np.abs(normals - [r[0] for r in ref])) <= 1e-15
    assert np.array_equal(nonsmooth, [r[1] for r in ref])
    # sampled directions miss corners and edges; these hit some
    k = dom.dim
    dirs = np.vstack([np.eye(k), -np.eye(k), [[0.8, 0.6] + [0.0] * (k - 2)]])
    corners = dom.ray_exit_many(dirs)[:, None] * dirs
    normals, nonsmooth = dom.outward_normal_many(corners)
    ref = [_reference_normal(dom, p) for p in corners]
    assert np.max(np.abs(normals - [r[0] for r in ref])) <= 1e-15
    assert np.array_equal(nonsmooth, [r[1] for r in ref]) and nonsmooth.any()


def test_ray_cast_rejects_degenerate_corners() -> None:
    # A slab 8e-10 thick: both faces are active at once and their normals
    # cancel, in the batch and in the per-point reference alike.
    slab = Intersection([Box(lower=[-1.0, -1.0], upper=[4e-10, 1.0]),
                         Box(lower=[-4e-10, -1.0], upper=[1.0, 1.0])])
    u = unit_directions(2, 1, seed=0)[0]
    with pytest.raises(GeometryError, match="degenerate"):
        _reference_normal(slab, _reference_ray_exit(slab, u) * u)
    with pytest.raises(GeometryError, match="degenerate"):
        boundary_points(slab, 16, seed=0)


# ---------------------------------------------------------------------------
# oblique fields


def test_normal_field_on_exterior_points() -> None:
    dom = unit_ball(2)
    gamma = ObliqueField(dom, "normal")
    v = gamma.at([3.0, 0.0])
    assert np.allclose(v, [1.0, 0.0], atol=1e-12)


def test_normal_field_validation_is_tight() -> None:
    # gamma = n: rho_hat = 1 and, for the unit ball, delta_hat = 1 because
    # <pi(x), n(pi(x))> = |pi(x)| = 1 on the unit sphere.
    dom = unit_ball(2)
    gamma = ObliqueField(dom, "normal")
    rep = validate_oblique_field(dom, gamma, samples=400, seed=7)
    assert rep.passed
    assert rep.rho_hat == pytest.approx(1.0, abs=1e-9)
    assert rep.delta_hat == pytest.approx(1.0, abs=1e-9)
    assert rep.violations == []


def test_rotated_field_rho_hat_matches_cosine() -> None:
    # Rotating the normal by an angle phi gives <gamma, n> = cos(phi)
    # everywhere on a sphere; oracle: the cosine itself.
    dom = unit_ball(2)
    for deg in (30.0, 80.0):
        gamma = ObliqueField(dom, "rotated_normal", angle=math.radians(deg))
        rep = validate_oblique_field(dom, gamma, samples=300, seed=8)
        assert rep.rho_hat == pytest.approx(math.cos(math.radians(deg)), abs=1e-9)


def test_rotated_80_degrees_fails_threshold() -> None:
    dom = unit_ball(2)
    gamma = ObliqueField(dom, "rotated_normal", angle=math.radians(80.0))
    rep = validate_oblique_field(dom, gamma, samples=300, seed=9, rho_min=0.2)
    assert not rep.passed
    assert rep.rho_hat == pytest.approx(math.cos(math.radians(80.0)), abs=1e-9)
    assert any(v["check"] == "rho" for v in rep.violations)


def test_validation_report_serializes() -> None:
    dom = unit_ball(2)
    rep = validate_oblique_field(dom, ObliqueField(dom, "normal"), samples=64, seed=10)
    d = rep.to_dict()
    assert set(d) == {"rho_hat", "delta_hat", "theta_hat", "violations"}


# ---------------------------------------------------------------------------
# symmetrizing matrix field


def test_matrix_maps_gamma_to_normal() -> None:
    # a(x) gamma(x) = n(x) on boundary samples, |residual| <= 1e-10.
    dom = unit_ball(2)
    gamma = ObliqueField(dom, "rotated_normal", angle=math.radians(30.0))
    a_field = build_oblique_matrix(dom, gamma, samples=200, seed=15)
    pts, normals, _ = boundary_points(dom, 200, seed=15)
    for p, n in zip(pts, normals):
        a = a_field.at(p)
        assert np.allclose(a, a.T, atol=0.0)
        assert np.max(np.abs(a @ gamma.at(p) - n)) <= 1e-10


def test_matrix_example_at_unit_point() -> None:
    # x = (1, 0), gamma = (cos 30deg, sin 30deg): a gamma = n and the
    # smallest eigenvalue equals cos 30 - sin 30 (oracle: eigvalsh below,
    # and the closed form c - |n - c*gamma| with c = <n, gamma>).
    dom = unit_ball(2)
    gamma = ObliqueField(dom, "rotated_normal", angle=math.radians(30.0))
    a_field = build_oblique_matrix(dom, gamma, samples=100, seed=16)
    x = np.array([1.0, 0.0])
    a = a_field.at(x)
    g = gamma.at(x)
    assert np.max(np.abs(a @ g - x)) <= 1e-12
    lam_min = np.linalg.eigvalsh(a)[0]
    c = float(x @ g)
    closed_form = c - np.linalg.norm(x - c * g)
    assert lam_min == pytest.approx(closed_form, abs=1e-12)
    assert lam_min == pytest.approx(math.cos(math.radians(30.0)) - math.sin(math.radians(30.0)),
                                    abs=1e-12)
    assert a_field.theta_hat == pytest.approx(lam_min, abs=1e-9)


def test_matrix_construction_rejects_wide_angles() -> None:
    # 50 degrees exceeds the 45-degree validity limit.
    dom = unit_ball(2)
    gamma = ObliqueField(dom, "rotated_normal", angle=math.radians(50.0))
    with pytest.raises(GeometryError):
        build_oblique_matrix(dom, gamma, samples=100, seed=17)


def test_matrix_eigenvalue_floor_positive_across_samples() -> None:
    dom = Ball(center=[0.1, 0.0], radius=1.2)
    gamma = ObliqueField(dom, "rotated_normal", angle=math.radians(20.0))
    a_field = build_oblique_matrix(dom, gamma, samples=300, seed=18)
    assert a_field.theta_hat > 0.0
    pts, _, _ = boundary_points(dom, 300, seed=18)
    lam = [np.linalg.eigvalsh(a_field.at(p))[0] for p in pts]
    assert min(lam) >= a_field.theta_hat - 1e-12


def test_lions_sznitman_inequality_with_certified_matrix() -> None:
    # C0 |x-y|^2 + <a(x)(x - y), gamma(x)> >= -1e-10 with C0 = 0 for a
    # convex body: a gamma = n reduces it to the convexity inequality.
    dom = unit_ball(2)
    gamma = ObliqueField(dom, "rotated_normal", angle=math.radians(25.0))
    a_field = build_oblique_matrix(dom, gamma, samples=150, seed=19)
    pts, _, _ = boundary_points(dom, 150, seed=19)
    ys = interior_points(dom, 150, seed=20)
    for x, y in zip(pts, ys):
        val = (x - y) @ (a_field.at(x) @ gamma.at(x))
        assert val >= -1e-10


# ---------------------------------------------------------------------------
# invalid constructions


def test_domain_validation_errors() -> None:
    with pytest.raises(GeometryError):
        Ball(center=[2.0, 0.0], radius=1.0)  # origin outside
    with pytest.raises(GeometryError):
        Box(lower=[0.5, -1.0], upper=[1.0, 1.0])  # origin outside
    with pytest.raises(GeometryError):
        Polytope(normals=[[1.0, 0.0]], offsets=[1.0])  # unbounded
    with pytest.raises(GeometryError):
        Polytope(normals=[[2.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                 offsets=[1.0, 1.0, 1.0, 1.0])  # non-unit normal
    with pytest.raises(GeometryError):
        ObliqueField(unit_ball(3), "rotated_normal", angle=0.3)  # d != 2
