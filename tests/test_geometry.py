"""Tests for convex-domain geometry: projections, normals, oblique fields."""

import itertools
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
    ObliqueMatrixField,
    Polytope,
    _dykstra,
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


def distances(dom, points):
    return np.linalg.norm(points - dom.project_many(points), axis=1)


def test_ball_projection_pulls_to_sphere() -> None:
    dom = unit_ball(2)
    assert np.array_equal(dom.project_many(np.array([[2.0, 0.0]])), [[1.0, 0.0]])


def test_interior_point_is_fixed() -> None:
    dom = unit_ball(2)
    y = np.array([[0.3, -0.1]])
    assert np.array_equal(dom.project_many(y), y)


def test_box_corner_distance() -> None:
    # (2, 3) against [-1, 1]^2 projects to the corner (1, 1).
    dom = sym_box(2)
    x = np.array([[2.0, 3.0]])
    assert np.array_equal(dom.project_many(x), [[1.0, 1.0]])
    assert distances(dom, x)[0] == pytest.approx(math.sqrt(5.0), rel=1e-15)


def test_distance_zero_inside_positive_outside() -> None:
    for name, dom in DOMAINS.items():
        inner = interior_points(dom, 50, seed=3)
        assert np.all(distances(dom, inner) == 0.0), name
        outer = exterior_points(dom, 50, seed=4)
        assert np.all(distances(dom, outer) > 0.0), name


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


INTERSECTIONS = {
    "ball-box": Intersection([Ball(center=[0.0, 0.0], radius=0.5),
                              Box(lower=[-0.4, -0.45], upper=[0.45, 0.4])]),
    "ball-box-3d": Intersection([Ball(center=[0.0, 0.0, 0.0], radius=1.0),
                                 Box(lower=[-0.7, -0.9, -0.6], upper=[0.8, 0.6, 0.9])]),
    "offcentre-ball-box": Intersection([Ball(center=[0.2, -0.1], radius=1.2),
                                        sym_box(2)]),
    "ball-ball": Intersection([Ball(center=[0.3, 0.0], radius=1.0),
                               Ball(center=[-0.4, 0.1], radius=0.9)]),
    "box-polytope": Intersection([Box(lower=[-0.6, -1.0], upper=[1.0, 0.7]),
                                  diamond()]),
    # a polytope is the intersection of its halfspaces
    "diamond": diamond(),
    "diamond-3d": diamond_3d(),
}


@pytest.mark.parametrize("name", sorted(INTERSECTIONS))
def test_intersection_projection_matches_dykstra(name) -> None:
    # Exact member projections where one member (or face) is active,
    # Dykstra's scheme where several are: the result must agree with
    # Dykstra's scheme run on every exterior point.
    dom = INTERSECTIONS[name]
    members = dom.members
    rng = np.random.Generator(np.random.Philox(15))
    scale = 2.5 * dom.bounding_radius
    x = rng.uniform(-scale, scale, size=(2000, dom.dim))
    inside = dom.contains_many(x)
    one_active = np.zeros(len(x), dtype=bool)
    for m in members:
        one_active |= dom.contains_many(m.project_many(x))
    # the batch covers inside points, one active member and several
    assert inside.any() and (one_active & ~inside).any(), name
    assert (~one_active & ~inside).any(), name
    p = dom.project_many(x)
    assert np.max(np.abs(p[~inside] - _dykstra(x[~inside], members))) <= 1e-12, name
    assert np.array_equal(p[inside], x[inside]), name
    batch = x[inside]
    assert dom.project_many(batch) is batch, name


def test_dykstra_row_held_by_an_inactive_face_is_projected() -> None:
    # x projects to the corner (-0.4, 0.85) of x >= -0.4 and y <= 0.85.  A
    # face 1e-4 short of active there, swept first, takes a large Dykstra
    # correction that drains by about its margin per sweep, past the sweep
    # cap; the row is projected again onto the faces active at its iterate.
    slant = np.array([-1.0, 2.0]) / math.sqrt(5.0)
    dom = Polytope(normals=[slant, [-1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, -1.0]],
                   offsets=[slant @ [-0.4, 0.85] + 1e-4, 0.4, 0.85, 1.0, 1.0])
    x = np.array([[-1.7, 2.7]])
    assert np.max(np.abs(dom.project_many(x) - [-0.4, 0.85])) <= 1e-15


BODIES = {**DOMAINS, **INTERSECTIONS}


def _rows_match_batch(query, batch) -> None:
    """Each array a query returns for a one-row batch equals its row of
    the query of the whole batch, bit for bit."""
    def arrays(result):
        return result if isinstance(result, tuple) else (result,)
    rows = [arrays(query(row[None, :])) for row in batch]
    for i, whole in enumerate(arrays(query(batch))):
        assert np.array_equal(np.concatenate([r[i] for r in rows]), whole)


@pytest.mark.parametrize("name", sorted(BODIES))
def test_projection_of_a_point_does_not_depend_on_its_batch(name) -> None:
    # Each row leaves Dykstra's scheme on its own displacement, and face
    # products are summed row by row, so a one-row batch projects bit for
    # bit like its row of a large batch; so do membership, face margin,
    # ray exit and the outward normal.
    dom = BODIES[name]
    rng = np.random.Generator(np.random.Philox(16))
    scale = 2.5 * dom.bounding_radius
    x = rng.uniform(-scale, scale, size=(800, dom.dim))
    _rows_match_batch(dom.contains_many, x)
    _rows_match_batch(dom.interior_gap_many, x)
    _rows_match_batch(dom.ray_exit_many, unit_directions(dom.dim, 800, seed=16))
    _rows_match_batch(dom.outward_normal_many, boundary_points(dom, 800, seed=16)[0])
    x = x[~dom.contains_many(x)]
    if name in INTERSECTIONS:
        one_active = np.zeros(len(x), dtype=bool)
        for m in dom.members:
            one_active |= dom.contains_many(m.project_many(x))
        assert np.count_nonzero(~one_active) >= 50, name  # rows for Dykstra
    _rows_match_batch(dom.project_many, x)


@given(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))
@settings(max_examples=80)
def test_ball_projection_hypothesis(x, y) -> None:
    dom = unit_ball(2)
    p = dom.project_many(np.array([[x, y]]))[0]
    assert np.linalg.norm(p) <= 1.0 + 1e-12
    r = math.hypot(x, y)
    if r > 1.0 + 1e-9:
        # exterior points land on the sphere
        assert np.linalg.norm(p) == pytest.approx(1.0, abs=1e-12)


@st.composite
def bounded_bodies(draw):
    """A polytope with 3-8 random unit normals and offsets in [0.3, 1],
    bounded whatever the draw by the faces +-e_i at offset 2, or its
    intersection with a ball that contains the origin.  The normals point
    along integer vectors of [-2, 2]^d, so faces that are not parallel
    meet at 15 degrees or more: Dykstra's scheme converges at a rate set
    by that angle, and rows at two faces 1e-6 rad apart take seconds per
    batch."""
    d = draw(st.integers(2, 3))
    k = draw(st.integers(3, 8))
    vector = st.lists(st.integers(-2, 2), min_size=d, max_size=d).filter(any)
    normals = np.array(draw(st.lists(vector, min_size=k, max_size=k)), dtype=float)
    offsets = draw(st.lists(st.floats(0.3, 1.0), min_size=k, max_size=k))
    eye = np.eye(d)
    poly = Polytope(np.vstack([normals / np.linalg.norm(normals, axis=1)[:, None],
                               eye, -eye]),
                    np.concatenate([offsets, np.full(2 * d, 2.0)]))
    if not draw(st.booleans()):
        return poly
    center = draw(st.lists(st.floats(-0.2, 0.2), min_size=d, max_size=d))
    return Intersection([Ball(center, draw(st.floats(0.5, 1.5))), poly])


@given(dom=bounded_bodies(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_projection_properties_on_random_bodies(dom, seed) -> None:
    # The projection pi onto a closed convex body O: <x - pi x, y - pi x>
    # <= 0 for y in O, firm nonexpansiveness |pi x - pi z|^2 <=
    # <pi x - pi z, x - z>, and pi(pi x) = pi x, to 1e-12 because Dykstra's
    # scheme stops on a 1e-13 displacement.
    rng = np.random.Generator(np.random.Philox(seed))
    x, z = rng.uniform(-3.0, 3.0, size=(2, 8, dom.dim))
    px, pz = dom.project_many(x), dom.project_many(z)
    ys = np.vstack([interior_points(dom, 8, seed), pz])
    obtuse = np.einsum("nd,nmd->nm", x - px, ys[None, :, :] - px[:, None, :])
    assert obtuse.max() <= 1e-10
    gap = px - pz
    assert np.all(np.einsum("nd,nd->n", gap, gap)
                  <= np.einsum("nd,nd->n", gap, x - z) + 1e-10)
    assert np.max(np.abs(dom.project_many(px) - px)) <= 1e-12


def skew_triangle():
    # three halfspaces whose normals lie on no axis
    angles = np.radians([20.0, 140.0, 255.0])
    return Polytope(normals=np.stack([np.cos(angles), np.sin(angles)], axis=1),
                    offsets=[0.5, 0.8, 0.6])


CUBE_BODIES = {
    "offcentre-ball": Ball(center=[0.3, -0.2, 0.1], radius=1.1),
    "box": Box(lower=[-0.4, -0.7], upper=[0.9, 0.5]),
    "skew-triangle": skew_triangle(),
    "ball-triangle": Intersection([Ball(center=[0.1, 0.2], radius=0.9),
                                   skew_triangle()]),
}


@pytest.mark.parametrize("name", sorted(CUBE_BODIES))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_inscribed_cube_lies_inside(name, data) -> None:
    # points of [-a, a]^d, its corners included, are members that the
    # projection leaves as they are
    dom = CUBE_BODIES[name]
    a, d = dom.cube_half_width, dom.dim
    coords = data.draw(st.lists(st.floats(-a, a), min_size=d, max_size=20 * d)
                       .map(lambda xs: xs[:len(xs) - len(xs) % d]))
    corners = itertools.product((-a, a), repeat=d)
    x = np.vstack([np.reshape(coords, (-1, d)), list(corners)])
    assert dom.contains_many(x).all(), name
    proj = dom.project_many(x)
    if isinstance(dom, Box):                      # clipped into a copy
        assert np.array_equal(proj, x)
    else:
        assert proj is x, name


def test_inscribed_cube_half_widths() -> None:
    ball = CUBE_BODIES["offcentre-ball"]
    assert ball.cube_half_width == pytest.approx(
        (1.1 - math.sqrt(0.14)) / math.sqrt(3.0), rel=1e-15)
    assert CUBE_BODIES["box"].cube_half_width == 0.4
    assert diamond().cube_half_width == pytest.approx(0.5, rel=1e-15)
    inter = CUBE_BODIES["ball-triangle"]
    assert inter.cube_half_width == min(m.cube_half_width for m in inter.members)
    # the largest such cube for boxes and polytopes: grown by 1e-9, one of
    # its corners leaves the body
    for dom in (CUBE_BODIES["box"], CUBE_BODIES["skew-triangle"], diamond()):
        corners = np.array(list(itertools.product((-1.0, 1.0), repeat=dom.dim)))
        grown = (1.0 + 1e-9) * dom.cube_half_width * corners
        assert not dom.contains_many(grown, tol=0.0).all()


# ---------------------------------------------------------------------------
# normals


def test_ball_normal_is_radial() -> None:
    normals, nonsmooth = unit_ball(2).outward_normal_many(np.array([[0.0, 1.0]]))
    assert np.allclose(normals, [[0.0, 1.0]])
    assert not nonsmooth.any()


def test_box_corner_normal_tie_break() -> None:
    s = math.sqrt(0.5)
    normals, nonsmooth = sym_box(2).outward_normal_many(np.array([[1.0, 1.0]]))
    assert np.allclose(normals, [[s, s]], atol=1e-12)
    assert nonsmooth.all()


def test_normal_rejects_off_boundary_points() -> None:
    with pytest.raises(GeometryError):
        unit_ball(2).outward_normal_many(np.array([[1.0, 0.0], [0.5, 0.0]]))
    with pytest.raises(GeometryError):
        sym_box(2).outward_normal_many(np.array([[0.5, 0.2]]))


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
    # d = 2: equally spaced angles, turned by an offset that the seed sets
    angles = np.sort(np.arctan2(*unit_directions(2, 128, seed=5).T[::-1]))
    assert np.allclose(np.diff(angles), 2 * np.pi / 128, rtol=0, atol=1e-12)
    assert not np.allclose(unit_directions(2, 8, seed=1), unit_directions(2, 8, seed=2))


def test_polytope_audit_radius_is_close_at_every_offset() -> None:
    # the audit's 512 equally spaced rays find the square's radius sqrt(2)
    # within 1e-2 whatever offset the seed turns them by
    square = Polytope([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 1, 1, 1])
    assert abs(square.bounding_radius - np.sqrt(2)) < 1e-2
    for seed in range(50):
        radius = np.max(square.ray_exit_many(unit_directions(2, 512, seed)))
        assert np.sqrt(2) - 1e-2 < radius <= np.sqrt(2), seed


def test_boundary_points_lie_on_boundary() -> None:
    for name, dom in DOMAINS.items():
        pts, normals, _ = boundary_points(dom, 100, seed=6)
        assert np.max(np.abs(dom.interior_gap_many(pts))) <= 1e-9, name
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


def _reference_anchored_normal(dom, x):
    """(anchor, normal) at one boundary or exterior point: the per-point
    rule that the batch ``at_many`` methods implement."""
    p = dom.project_many(x[None, :])[0]
    diff = x - p
    dist = float(np.linalg.norm(diff))
    if dist > 1e-9:
        return p, diff / dist
    return p, _reference_normal(dom, x)[0]


def _reference_gamma(gamma, x):
    n = _reference_anchored_normal(gamma.domain, x)[1]
    if gamma.rule == "rotated_normal":
        c, s = math.cos(gamma.angle), math.sin(gamma.angle)
        return np.array([[c, -s], [s, c]]) @ n
    return n


def _reference_matrix(gamma, x):
    p, n = _reference_anchored_normal(gamma.domain, x)
    g = _reference_gamma(gamma, p)
    c = float(n @ g)
    q = n - c * g
    return c * np.eye(len(n)) + np.outer(g, q) + np.outer(q, g)


OBLIQUE_DOMAINS = {
    "ball": Ball(center=[0.1, 0.0], radius=1.2),
    "box": Box(lower=[-1.0, -0.5], upper=[0.8, 1.0]),
    "polytope": diamond(),
    "ball-box": Intersection([unit_ball(2), Box(lower=[-0.8, -0.9], upper=[0.8, 0.9])]),
}


def _oblique_probe_points(dom):
    """(points, dykstra): boundary, exterior, near-boundary (0 < dist <=
    1e-9) and scattered exterior points, corner regions included; the
    flag marks rows whose projection goes through Dykstra's scheme."""
    pts, normals, _ = boundary_points(dom, 200, seed=21)
    rng = np.random.Generator(np.random.Philox(22))
    near = pts + rng.uniform(1e-12, 9e-10, size=200)[:, None] * normals
    scale = 2.5 * dom.bounding_radius
    far = rng.uniform(-scale, scale, size=(600, 2))
    far = far[~dom.contains_many(far)]
    x = np.vstack([pts, exterior_points(dom, 200, seed=21), near, far])
    dist = distances(dom, x)
    assert ((dist > 0) & (dist <= 1e-9)).sum() >= 100
    # exterior points whose projection is a corner or kink
    corners = np.count_nonzero(dom.outward_normal_many(dom.project_many(far))[1])
    assert corners == 0 if isinstance(dom, Ball) else corners >= 20
    dykstra = np.zeros(len(x), dtype=bool)
    if isinstance(dom, Intersection) and not isinstance(dom, Box):  # a box clips
        one_active = np.zeros(len(x), dtype=bool)
        for m in dom.members:
            one_active |= dom.contains_many(m.project_many(x))
        dykstra = ~one_active & ~dom.contains_many(x)
    return x, dykstra


@pytest.mark.parametrize("rule", ["normal", "rotated_normal"])
@pytest.mark.parametrize("name", sorted(OBLIQUE_DOMAINS))
def test_at_many_matches_pointwise_reference(name, rule) -> None:
    # Both batch methods equal the per-point rule within 1e-14, rows
    # projected through Dykstra's scheme included.
    dom = OBLIQUE_DOMAINS[name]
    gamma = ObliqueField(dom, rule, angle=0.3)
    a_field = ObliqueMatrixField(dom, gamma, theta_hat=0.0)
    x, dykstra = _oblique_probe_points(dom)
    assert dykstra.any() == (name in ("polytope", "ball-box")), name
    gam = gamma.at_many(x)
    mat = a_field.at_many(x)
    assert gam.shape == x.shape and mat.shape == (len(x), 2, 2)
    gam_err = np.max(np.abs(gam - [_reference_gamma(gamma, p) for p in x]), axis=1)
    mat_err = np.max(np.abs(mat - [_reference_matrix(gamma, p) for p in x]), axis=(1, 2))
    assert np.max(gam_err) <= 1e-14, name
    assert np.max(mat_err) <= 1e-14, name
    assert np.array_equal(mat, mat.transpose(0, 2, 1))
    # a point's values do not depend on the batch it comes in
    gam_rows = np.vstack([gamma.at_many(p[None, :]) for p in x])
    mat_rows = np.vstack([a_field.at_many(p[None, :]) for p in x])
    assert np.array_equal(gam_rows, gam), name
    assert np.array_equal(mat_rows, mat), name


@pytest.mark.parametrize("rule", ["normal", "rotated_normal"])
def test_rule_rows_do_not_depend_on_their_batch(rule) -> None:
    # gamma of a one-row batch, and dist * gamma of a one-row batch of
    # gaps, equal their rows of a 2-D batch and of a 3-D stack bit for bit
    dom = OBLIQUE_DOMAINS["ball-box"]
    gamma = ObliqueField(dom, rule, angle=0.3)
    x, _ = _oblique_probe_points(dom)
    gaps = x - dom.project_many(x)
    for method, batch in ((gamma.at_many, x), (gamma.scaled_directions, gaps)):
        rows = np.vstack([method(p[None, :]) for p in batch])
        assert np.array_equal(rows, method(batch))
    n = len(gaps) - len(gaps) % 4
    stack = gamma.scaled_directions(gaps[:n].reshape(4, -1, 2))
    assert np.array_equal(stack.reshape(n, 2), rows[:n])


@pytest.mark.parametrize("name", sorted(OBLIQUE_DOMAINS))
def test_fields_reject_interior_rows(name) -> None:
    # gamma and a are defined on the boundary and outside; one interior
    # row, the origin or a point near the boundary, fails the whole batch.
    dom = OBLIQUE_DOMAINS[name]
    pts, _, _ = boundary_points(dom, 50, seed=23)
    inner = np.vstack([np.zeros(2), interior_points(dom, 50, seed=23)])
    gap = dom.interior_gap_many(inner)
    inner = inner[[0, int(np.argmin(gap))]]
    assert gap.min() > 1e-9
    for rule in ("normal", "rotated_normal"):
        gamma = ObliqueField(dom, rule, angle=0.3)
        a_field = ObliqueMatrixField(dom, gamma, theta_hat=0.0)
        assert gamma.at_many(pts).shape == pts.shape
        for row in inner:
            x = np.vstack([pts, row, exterior_points(dom, 5, seed=24)])
            for at_many in (gamma.at_many, a_field.at_many):
                with pytest.raises(GeometryError, match="boundary"):
                    at_many(x)
                with pytest.raises(GeometryError, match="boundary"):
                    at_many(row[None, :])


def test_normal_field_on_exterior_points() -> None:
    dom = unit_ball(2)
    gamma = ObliqueField(dom, "normal")
    v = gamma.at_many(np.array([[3.0, 0.0]]))
    assert np.allclose(v, [[1.0, 0.0]], atol=1e-12)


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


def test_violations_list_ties_in_sample_order() -> None:
    # gamma rotated by 0.2 rad on the benchmark's ball-box body: <gamma, n>
    # takes a handful of values, each shared by many boundary samples, so
    # the ten worst are mostly exact ties and must come in sample order.
    dom = Intersection([Ball(center=[0.0, 0.0], radius=0.5),
                        Box(lower=[-0.4, -0.45], upper=[0.45, 0.4])])
    gamma = ObliqueField(dom, "rotated_normal", angle=0.2)
    rep = validate_oblique_field(dom, gamma, samples=1000, seed=0, rho_min=0.99)
    pts, _, _ = boundary_points(dom, 1000, seed=0)
    listed = [v for v in rep.violations if v["check"] == "rho"]
    assert len(listed) == 10
    values = [v["value"] for v in listed]
    assert len(set(values)) < len(values)
    order = [int(np.flatnonzero((pts == v["point"]).all(axis=1))[0])
             for v in listed]
    # values non-decreasing, and tied values in sample order
    assert list(zip(values, order)) == sorted(zip(values, order))


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
    a = a_field.at_many(pts)
    assert np.array_equal(a, a.transpose(0, 2, 1))
    a_gamma = np.einsum("nde,ne->nd", a, gamma.at_many(pts))
    assert np.max(np.abs(a_gamma - normals)) <= 1e-10


def test_matrix_example_at_unit_point() -> None:
    # x = (1, 0), gamma = (cos 30deg, sin 30deg): a gamma = n and the
    # smallest eigenvalue equals cos 30 - sin 30 (oracle: eigvalsh below,
    # and the closed form c - |n - c*gamma| with c = <n, gamma>).
    dom = unit_ball(2)
    gamma = ObliqueField(dom, "rotated_normal", angle=math.radians(30.0))
    a_field = build_oblique_matrix(dom, gamma, samples=100, seed=16)
    x = np.array([1.0, 0.0])
    a = a_field.at_many(x[None, :])[0]
    g = gamma.at_many(x[None, :])[0]
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
    lam = np.linalg.eigvalsh(a_field.at_many(pts))[:, 0]
    assert lam.min() >= a_field.theta_hat - 1e-12


def test_lions_sznitman_inequality_with_certified_matrix() -> None:
    # C0 |x-y|^2 + <a(x)(x - y), gamma(x)> >= -1e-10 with C0 = 0 for a
    # convex body: a gamma = n reduces it to the convexity inequality.
    dom = unit_ball(2)
    gamma = ObliqueField(dom, "rotated_normal", angle=math.radians(25.0))
    a_field = build_oblique_matrix(dom, gamma, samples=150, seed=19)
    pts, _, _ = boundary_points(dom, 150, seed=19)
    ys = interior_points(dom, 150, seed=20)
    a_gamma = np.einsum("nde,ne->nd", a_field.at_many(pts), gamma.at_many(pts))
    assert np.einsum("nd,nd->n", pts - ys, a_gamma).min() >= -1e-10


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
