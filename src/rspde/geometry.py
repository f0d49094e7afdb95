"""Convex-domain geometry: projections, normals, oblique reflection fields.

The solvers confine a vector-valued field to a closed bounded convex body
O in R^d with 0 in its interior.  Everything downstream reduces to four
queries: the Euclidean projection pi onto O (a contraction), the distance
dist(x) = |x - pi(x)|, the outward unit normal n on the boundary, and an
oblique direction field gamma with the nontangentiality bound
<gamma(x), n(x)> >= rho > 0.  A symmetric matrix field a(x) satisfying
a(x) gamma(x) = n(x) on the boundary symmetrizes oblique reflection in the
variational-inequality diagnostics; it is built as a rank-two correction
of the identity and certified through its smallest eigenvalue on boundary
samples.

Every query takes a point batch of shape (n, d); a single point is a
one-row batch.  gamma and a are defined once (``at_many``), from the
normals of ``_anchored_normals``, on boundary and exterior points only:
the penalty acts outside O, and certification and the
variational-inequality check query the boundary and the exterior.

Supported bodies: balls, and finite intersections of balls and
halfspaces.  Boxes and polytopes are intersections of their halfspace
faces, so every query (membership, face margin, outward normal, ray exit,
projection) has one implementation over members.  Balls and boxes project
in closed form.  Every other intersection projects each exterior point
onto its members (bodies or faces) in turn, keeping a member's projection
when it lies in every other member (the nearest point of a superset that
lies in the body is the nearest point of the body); only points where two
or more members are active go through Dykstra's alternating scheme, where
each point's iteration stops on its own displacement.  Face and centre
products are summed row by row, so no point's answer depends on the batch
it came in.

Each body also records the half-width of a cube centred at 0 that it
contains (``cube_half_width``), so a caller can tell from max |x_i| alone
that a batch lies inside and needs no projection.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

# Active-set tolerance for deciding which faces meet a boundary point, and
# for the boundary-membership precondition of outward_normal_many.
BOUNDARY_ATOL = 1e-9

# Dykstra's alternating projections: per-sweep displacement threshold and
# sweep cap.  The displacement tolerance sits below the 1e-8 accuracy
# promised to callers so that re-projection is a fixed point within it.
DYKSTRA_TOL = 1e-13
DYKSTRA_MAX_SWEEPS = 10000

_EPS = np.finfo(float).eps


class GeometryError(RuntimeError):
    """Raised for invalid domains, off-boundary normal queries, or failed
    oblique-field certification."""


def _row_norms(points):
    # np.linalg.norm(points, axis=1), the same arithmetic without that
    # function's dispatch cost: ball queries run on every solver step.
    return np.sqrt(np.add.reduce(points * points, axis=1))


class ConvexDomain:
    """Closed bounded convex body in R^d with 0 in its interior.

    ``cube_half_width`` is the half-width a of a cube [-a, a]^d centred
    at 0 that the body contains, computed once when the body is built:
    (r - |c|)/sqrt(d) for a ball, b/|n|_1 for a halfspace face, and the
    minimum over the members of an intersection (for a box or polytope,
    the largest such cube).  A batch with
    max |x_i| <= a lies inside, so ``project_many`` moves none of its
    points; the membership slack covers the rounding of a.
    """

    dim: int
    cube_half_width: float

    # -- core queries -------------------------------------------------

    def project_many(self, points: np.ndarray) -> np.ndarray:
        """Projections of a batch.  When every point lies inside, a body
        may return ``points`` itself, so callers must not write to it."""
        raise NotImplementedError

    def contains_many(self, points: np.ndarray, tol: float = None) -> np.ndarray:
        raise NotImplementedError

    def interior_gap_many(self, points: np.ndarray) -> np.ndarray:
        """Minimal face margin of each point (negative when it violates a face).

        For points inside the body this is zero exactly on the boundary
        and positive in the interior; it is the active-set criterion used
        by normal queries, not a distance function for exterior points.
        """
        raise NotImplementedError

    def outward_normal_many(self, points: np.ndarray) -> tuple:
        """(normals, nonsmooth) for a batch of boundary points.

        ``nonsmooth`` marks rows where more than one face is active (a
        corner or edge); their normal is the normalized sum of the active
        face normals.  Raises GeometryError when any row is off the
        boundary, interior rows included.
        """
        raise NotImplementedError

    def ray_exit_many(self, directions: np.ndarray) -> np.ndarray:
        """t > 0 per row u such that t*u lies on the boundary (0 interior)."""
        raise NotImplementedError

    @property
    def bounding_radius(self) -> float:
        raise NotImplementedError

    def _set_membership_slack(self) -> None:
        # A few ulps at the scale of the body: projections that land on the
        # boundary must test as members, so project(project(x)) == project(x)
        # bit for bit for the closed-form bodies.  Bodies do not change once
        # built, so this is computed once, at the end of __init__.
        self._slack = 32.0 * _EPS * (self.bounding_radius + 1.0)


class Ball(ConvexDomain):
    def __init__(self, center, radius: float):
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)
        if self.center.ndim != 1:
            raise GeometryError("ball center must be a vector")
        if not self.radius > 0:
            raise GeometryError("ball radius must be positive")
        if np.linalg.norm(self.center) >= self.radius:
            raise GeometryError("ball must contain the origin in its interior")
        self.dim = self.center.size
        # |x - c| <= |x| + |c| <= a sqrt(d) + |c| = r on the cube
        self.cube_half_width = ((self.radius - float(np.linalg.norm(self.center)))
                                / math.sqrt(self.dim))
        self._set_membership_slack()

    def contains_many(self, points, tol=None):
        if tol is None:
            tol = self._slack
        return _row_norms(points - self.center) <= self.radius + tol

    def project_many(self, points):
        diff = points - self.center
        dist = _row_norms(diff)
        inside = dist <= self.radius + self._slack
        if inside.all():
            return points
        # r / dist on the exterior rows; the maximum keeps the inside rows,
        # which np.where takes from points, away from 0 / 0
        scale = self.radius / np.maximum(dist, self.radius)
        return np.where(inside[:, None], points, self.center + diff * scale[:, None])

    def interior_gap_many(self, points):
        return self.radius - np.linalg.norm(points - self.center, axis=1)

    def outward_normal_many(self, points):
        v = points - self.center
        nv = np.linalg.norm(v, axis=1)
        if np.any(np.abs(self.radius - nv) > BOUNDARY_ATOL):
            raise GeometryError("outward_normal: point is not on the boundary")
        return v / nv[:, None], np.zeros(len(points), dtype=bool)

    def ray_exit_many(self, directions):
        # <u, c> summed row by row, as a halfspace sums its face products
        b = np.add.reduce(directions * self.center, axis=1)
        c = float(self.center @ self.center) - self.radius ** 2
        return b + np.sqrt(b * b - c)

    @property
    def bounding_radius(self):
        return float(np.linalg.norm(self.center)) + self.radius


class Intersection(ConvexDomain):
    """Intersection of members: bodies, or the halfspace faces of a box
    or polytope.  Every query is answered over the members."""

    def __init__(self, members):
        members = list(members)
        if not members:
            raise GeometryError("intersection needs at least one member")
        dims = {m.dim for m in members}
        if len(dims) != 1:
            raise GeometryError("intersection members disagree on dimension")
        self.members = members
        self.dim = dims.pop()
        self.cube_half_width = min(m.cube_half_width for m in members)
        self._set_membership_slack()
        for m in members:
            if isinstance(m, _Halfspace):    # no scale of its own
                m._slack = self._slack

    def contains_many(self, points, tol=None):
        out = np.ones(points.shape[0], dtype=bool)
        for m in self.members:
            out &= m.contains_many(points, tol)
        return out

    def project_many(self, points):
        return _project_onto_members(points, self.members)

    def interior_gap_many(self, points):
        return np.min([m.interior_gap_many(points) for m in self.members], axis=0)

    def outward_normal_many(self, points):
        gaps = np.array([m.interior_gap_many(points) for m in self.members])
        if np.any(gaps < -BOUNDARY_ATOL):
            raise GeometryError("outward_normal: point is outside the intersection")
        active = gaps <= BOUNDARY_ATOL                # (members, n)
        n_active = active.sum(axis=0)
        if np.any(n_active == 0):
            raise GeometryError("outward_normal: point is not on the boundary")
        v = np.zeros_like(points)
        nonsmooth = n_active > 1
        for m, rows in zip(self.members, active):
            if rows.any():
                part, part_nonsmooth = m.outward_normal_many(points[rows])
                v[rows] += part
                nonsmooth[rows] |= part_nonsmooth
        nv = np.linalg.norm(v, axis=1)
        if np.any(nv < 1e-12):
            raise GeometryError("outward_normal: active normals cancel (degenerate corner)")
        return v / nv[:, None], nonsmooth

    def ray_exit_many(self, directions):
        return np.min([m.ray_exit_many(directions) for m in self.members], axis=0)

    @property
    def bounding_radius(self):
        return min(m.bounding_radius for m in self.members)


class _Halfspace:
    """Halfspace <normal, x> <= offset: a face of a box or polytope, with
    the queries of a member.  It has no scale of its own, so it takes the
    membership slack of the body it bounds.

    <normal, x> is summed row by row: ``points @ normal`` rounds a one-row
    batch differently from a larger one, so a point's answers would
    depend on the other rows of its batch."""

    def __init__(self, normal, offset):
        self.normal = normal
        self.offset = offset
        self.dim = normal.size
        # <n, x> <= |n|_1 a <= b on the cube
        self.cube_half_width = float(offset / np.add.reduce(np.abs(normal)))

    def _dots(self, points):
        return np.add.reduce(points * self.normal, axis=1)

    def contains_many(self, points, tol=None):
        return self._dots(points) <= self.offset + (self._slack if tol is None else tol)

    def project_many(self, points):
        excess = self._dots(points) - self.offset
        np.maximum(excess, 0.0, out=excess)
        return points - excess[:, None] * self.normal[None, :]

    def interior_gap_many(self, points):
        return self.offset - self._dots(points)

    def outward_normal_many(self, points):
        # its body asks only on the rows where this face is active
        return (np.broadcast_to(self.normal, points.shape),
                np.zeros(len(points), dtype=bool))

    def ray_exit_many(self, directions):
        dots = self._dots(directions)
        with np.errstate(divide="ignore"):
            return np.where(dots > 0, self.offset / dots, np.inf)


class Box(Intersection):
    """lower <= x <= upper: the faces x_i <= upper_i and -x_i <= -lower_i,
    with a closed-form projection, membership and bounding radius."""

    def __init__(self, lower, upper):
        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)
        if self.lower.shape != self.upper.shape or self.lower.ndim != 1:
            raise GeometryError("box bounds must be vectors of equal length")
        if not np.all(self.lower < 0) or not np.all(self.upper > 0):
            raise GeometryError("box must contain the origin in its interior")
        eye = np.eye(self.lower.size)
        super().__init__(map(_Halfspace, np.vstack([eye, -eye]),
                             np.concatenate([self.upper, -self.lower])))
        self._slack_bounds = (self.lower - self._slack, self.upper + self._slack)

    def contains_many(self, points, tol=None):
        if tol is None:
            lo, hi = self._slack_bounds
        else:
            lo, hi = self.lower - tol, self.upper + tol
        return ((points >= lo) & (points <= hi)).all(axis=1)

    def project_many(self, points):
        return np.clip(points, self.lower, self.upper)

    @property
    def bounding_radius(self):
        return float(np.linalg.norm(np.maximum(np.abs(self.lower), np.abs(self.upper))))


class Polytope(Intersection):
    """Intersection of halfspaces <n_i, x> <= b_i with unit normals n_i."""

    def __init__(self, normals, offsets):
        normals = np.asarray(normals, dtype=float)
        offsets = np.asarray(offsets, dtype=float)
        if normals.ndim != 2 or offsets.ndim != 1 or normals.shape[0] != offsets.size:
            raise GeometryError("polytope needs (k, d) normals and (k,) offsets")
        lengths = np.linalg.norm(normals, axis=1)
        if np.any(np.abs(lengths - 1.0) > 1e-6):
            raise GeometryError("halfspace normals must have unit length")
        self.normals = normals / lengths[:, None]
        self.offsets = offsets
        if not np.all(self.offsets > 0):
            raise GeometryError("polytope must contain the origin in its interior")
        super().__init__(map(_Halfspace, self.normals, self.offsets))

    @functools.cached_property
    def bounding_radius(self):
        # Numerical boundedness audit, run when the membership slack is
        # set in __init__: every sampled direction must exit.  In d = 2 the
        # 512 directions are equally spaced, so every corner lies within
        # pi/512 of one: a square's radius comes out at most 0.0086 low.
        t = self.ray_exit_many(unit_directions(self.dim, max(512, 32 * self.dim), seed=0))
        if not np.all(np.isfinite(t)):
            raise GeometryError("polytope appears unbounded (no exit along a sampled direction)")
        return float(np.max(t))


def _project_onto_members(points, members):
    """Projection onto the intersection of ``members``: exact member
    projections where one member is active, Dykstra's scheme for the rest.

    A member's projection of a point is the nearest point of a superset
    of the body, so when it lies in every other member it is the
    projection onto the body.  Each member tries the rows it excludes that
    no earlier member resolved; rows left over (two or more members
    active) go through ``_dykstra``.  Inside rows are returned unchanged,
    and an all-inside batch returns ``points`` itself.
    """
    holds = [m.contains_many(points) for m in members]
    pending = ~functools.reduce(np.logical_and, holds)
    left = np.count_nonzero(pending)
    if not left:
        return points
    out = points.copy()
    for m, inside_m in zip(members, holds):
        rows = np.flatnonzero(pending & ~inside_m)
        if not rows.size:
            continue
        candidates = m.project_many(points[rows])
        exact = np.ones(rows.size, dtype=bool)
        for other in members:
            if other is not m:
                exact &= other.contains_many(candidates)
        if not exact.all():
            rows, candidates = rows[exact], candidates[exact]
        out[rows] = candidates
        pending[rows] = False
        left -= rows.size
        if not left:
            return out
    rows = np.flatnonzero(pending)
    out[rows] = _dykstra(points[rows], members)
    return out


def _dykstra(points, sets):
    """Dykstra's alternating projections onto the intersection of ``sets``.

    Vectorized over the batch; each row stops when its own displacement
    over a full sweep drops below DYKSTRA_TOL and leaves the sweep, so a
    row's result does not depend on the other rows of its batch.
    """
    x = out = np.array(points, dtype=float)
    rows = np.arange(len(out))
    corrections = [np.zeros_like(x) for _ in sets]
    for _ in range(DYKSTRA_MAX_SWEEPS):
        delta = np.zeros(len(x))
        for i, s in enumerate(sets):
            y = x + corrections[i]
            x_new = s.project_many(y)
            corrections[i] = y - x_new
            np.maximum(delta, np.max(np.abs(x_new - x), axis=1), out=delta)
            x = x_new
        going = delta >= DYKSTRA_TOL
        out[rows[~going]] = x[~going]
        if not going.any():
            return out
        rows, x = rows[going], x[going]
        corrections = [c[going] for c in corrections]
    # A row still moving usually sits at its answer already, while the
    # correction of a set inactive there drains by about its margin per
    # sweep.  It is projected again onto the sets active at its iterate
    # alone, and the result kept where the other sets contain it (the
    # nearest point of a superset that lies in the body).
    active = np.array([s.interior_gap_many(x) <= BOUNDARY_ATOL for s in sets]).T
    for pattern in np.unique(active, axis=0):
        take = rows[(active == pattern).all(axis=1)]
        if pattern.any() and not pattern.all():
            out[take] = _dykstra(points[take], [s for s, a in zip(sets, pattern) if a])
            if all(s.contains_many(out[take]).all()
                   for s, a in zip(sets, pattern) if not a):
                continue
        raise GeometryError(
            f"Dykstra projection did not converge in {DYKSTRA_MAX_SWEEPS} sweeps "
            f"(last sweep displacement {delta.max():.3e})")
    return out


# ---------------------------------------------------------------------------
# sampling


def unit_directions(d: int, count: int, seed: int) -> np.ndarray:
    """Unit vectors in R^d spread over the sphere, deterministic for a
    given seed.

    d = 1 alternates the two directions; d = 2 takes ``count`` equally
    spaced angles turned by a seeded offset, a point set exactly uniform on
    the circle; d >= 3 normalizes Gaussian draws from Philox(seed).
    """
    if d == 1:
        signs = np.where(np.arange(count) % 2 == 0, 1.0, -1.0)
        return signs[:, None]
    rng = np.random.Generator(np.random.Philox(seed))
    if d == 2:
        angles = 2.0 * np.pi * (rng.random() + np.arange(count) / count)
        return np.column_stack([np.cos(angles), np.sin(angles)])
    g = rng.standard_normal((count, d))
    return g / np.linalg.norm(g, axis=1)[:, None]


def boundary_points(domain: ConvexDomain, count: int, seed: int):
    """Boundary samples with their outward normals: (points, normals, nonsmooth).

    Balls place ``unit_directions`` on their sphere; intersections, boxes
    and polytopes included, ray-cast them from the origin.
    """
    dirs = unit_directions(domain.dim, count, seed)
    if isinstance(domain, Ball):
        return domain.center + domain.radius * dirs, dirs, np.zeros(count, dtype=bool)
    pts = domain.ray_exit_many(dirs)[:, None] * dirs
    normals, nonsmooth = domain.outward_normal_many(pts)
    return pts, normals, nonsmooth


def exterior_points(domain: ConvexDomain, count: int, seed: int, shell: float = 0.5):
    """Points strictly outside the body: boundary samples pushed along
    their outward normals by seeded offsets up to shell*bounding_radius."""
    pts, normals, _ = boundary_points(domain, count, seed)
    rng = np.random.Generator(np.random.Philox(seed + 1))
    s = rng.uniform(0.02, 1.0, size=count) * shell * domain.bounding_radius
    return pts + s[:, None] * normals


def interior_points(domain: ConvexDomain, count: int, seed: int):
    """Points in the interior, spread by ``unit_directions`` and a
    volume-corrected radial factor."""
    dirs = unit_directions(domain.dim, count, seed)
    rng = np.random.Generator(np.random.Philox(seed + 2))
    radial = rng.uniform(0.0, 1.0, size=count) ** (1.0 / domain.dim)
    return (0.999 * radial * domain.ray_exit_many(dirs))[:, None] * dirs


# ---------------------------------------------------------------------------
# oblique direction fields


def _unit_gaps(points, projections, dists):
    """(x - pi(x)) / dist(x) per row where dist > BOUNDARY_ATOL, and the
    first basis vector as a filler elsewhere."""
    outside = dists > BOUNDARY_ATOL
    out = np.zeros_like(points)
    out[:, 0] = 1.0
    if outside.any():
        out[outside] = (points[outside] - projections[outside]) / dists[outside, None]
    return out


def _anchored_normals(domain: ConvexDomain, points: np.ndarray) -> tuple:
    """(anchors, normals) for an (n, d) batch of boundary and exterior
    points: pi(x), and the outward unit normal there.

    Exterior rows (dist > BOUNDARY_ATOL) take (x - pi(x)) / dist; the
    rest take n(x), and ``outward_normal_many`` raises GeometryError if
    any of them lies in the interior, where gamma and a are not defined.
    """
    points = np.asarray(points, dtype=float)
    anchors = domain.project_many(points)
    dists = _row_norms(points - anchors)
    normals = _unit_gaps(points, anchors, dists)
    near = dists <= BOUNDARY_ATOL
    if near.any():
        normals[near] = domain.outward_normal_many(points[near])[0]
    return anchors, normals


class ObliqueField:
    """Unit direction field gamma used by the reflection penalty.

    ``rule`` is one of:

    * ``normal`` -- gamma(x) = n(pi(x)); for exterior x this is the exact
      direction (x - pi(x)) / dist(x).
    * ``rotated_normal`` -- the normal rotated by a fixed angle (d = 2).

    ``at_many`` defines gamma on a batch of boundary and exterior points
    and raises GeometryError on an interior row.  The time stepping uses
    ``scaled_directions``, which maps the gaps x - pi(x) straight to
    dist * gamma; ``grid_values`` takes precomputed projections and puts
    a unit filler where dist <= BOUNDARY_ATOL.  All three apply the rule
    through ``_apply_rule``.
    """

    def __init__(self, domain: ConvexDomain, rule: str = "normal",
                 angle: float = 0.0):
        self.domain = domain
        self.rule = rule
        self.angle = float(angle)
        if rule == "rotated_normal":
            if domain.dim != 2:
                raise GeometryError("rotated_normal is only defined for d = 2")
            c, s = math.cos(self.angle), math.sin(self.angle)
            self._rot = np.array([[c, -s], [s, c]])
        elif rule != "normal":
            raise GeometryError(f"unknown oblique field rule {rule!r}")

    def _apply_rule(self, vectors: np.ndarray) -> np.ndarray:
        """The rule as a fixed linear map of the last axis: the identity
        for ``normal`` (the input itself is returned), the rotation for
        ``rotated_normal``."""
        if self.rule == "rotated_normal":
            # R x as two elementwise products and one sum per row, so a
            # row rounds alike in every batch (a matrix product rounds a
            # one-row batch differently from a larger one)
            return (vectors[..., :1] * self._rot[:, 0]
                    + vectors[..., 1:] * self._rot[:, 1])
        return vectors

    def at_many(self, points: np.ndarray) -> np.ndarray:
        """gamma at each row of an (n, d) batch of boundary and exterior
        points."""
        return self._apply_rule(_anchored_normals(self.domain, points)[1])

    def scaled_directions(self, gaps: np.ndarray) -> np.ndarray:
        """dist(x) * gamma(x) from the gaps x - pi(x) (last axis d).

        A zero gap maps to zero, so no filler direction is needed.
        """
        return self._apply_rule(gaps)

    def grid_values(self, points: np.ndarray, projections: np.ndarray,
                    dists: np.ndarray) -> np.ndarray:
        """Vectorized directions for a batch, given precomputed projections.

        Entries with dists <= BOUNDARY_ATOL receive the first basis vector
        as a filler direction; callers multiply by the penetration
        magnitude which vanishes there.
        """
        return self._apply_rule(_unit_gaps(points, projections, dists))


@dataclass
class ValidationReport:
    """Sampled certification of an oblique field against its domain.

    rho_hat: min over boundary samples of <gamma, n> (nontangentiality).
    delta_hat: min over exterior samples of <pi(x), gamma(x)>.
    theta_hat: certified eigenvalue floor of the symmetrizing matrix field,
        filled in when the matrix field is built.
    """

    rho_hat: float
    delta_hat: float
    theta_hat: float = None
    violations: list = field(default_factory=list)
    passed: bool = True

    def to_dict(self) -> dict:
        return {
            "rho_hat": self.rho_hat,
            "delta_hat": self.delta_hat,
            "theta_hat": self.theta_hat,
            "violations": self.violations,
        }


def _boundary_rho(domain: ConvexDomain, gamma: ObliqueField, samples: int,
                  seed: int) -> tuple:
    """Boundary samples and <gamma, n> at each of them."""
    pts, normals, _ = boundary_points(domain, samples, seed)
    return pts, np.einsum("nd,nd->n", gamma.at_many(pts), normals)


def validate_oblique_field(domain: ConvexDomain, gamma: ObliqueField,
                           samples: int = 1000, seed: int = 0,
                           rho_min: float = 0.0, delta_min: float = 0.0,
                           ) -> ValidationReport:
    """Certify nontangentiality and outward alignment on sampled points.

    rho_hat is measured on boundary samples; the alignment bound
    delta_hat = min <pi(x), gamma(x)> is measured on exterior samples
    only, where the penalty actually acts.  The report fails when either
    statistic is non-positive or drops below the configured thresholds.
    """
    pts, rho_vals = _boundary_rho(domain, gamma, samples, seed)
    ext = exterior_points(domain, samples, seed)
    delta_vals = np.einsum("nd,nd->n", domain.project_many(ext), gamma.at_many(ext))

    rho_hat = float(np.min(rho_vals))
    delta_hat = float(np.min(delta_vals))
    violations = []
    rho_floor = max(rho_min, 0.0)
    delta_floor = max(delta_min, 0.0)
    for vals, points, floor, check in (
            (rho_vals, pts, rho_floor, "rho"),
            (delta_vals, ext, delta_floor, "delta")):
        bad = np.nonzero(vals <= floor)[0]
        # stable: exact ties are listed in sample order
        worst = bad[np.argsort(vals[bad], kind="stable")][:10]
        for i in worst:
            violations.append({"point": points[i].tolist(),
                               "value": float(vals[i]),
                               "check": check})
    passed = rho_hat > rho_floor and delta_hat > delta_floor
    return ValidationReport(rho_hat=rho_hat, delta_hat=delta_hat,
                            violations=violations, passed=passed)


class ObliqueMatrixField:
    """Symmetric a(x) with a gamma = n on the boundary and eigenvalues
    bounded below by theta = <n, gamma> - |n - <n, gamma> gamma|.

    Construction: a = <n, gamma> I + gamma q^T + q gamma^T with
    q = n - <n, gamma> gamma, n the normal of ``_anchored_normals`` and
    gamma evaluated at its anchor.  The correction is rank two, so the
    spectrum is {<n,gamma> +- |q|} on span{gamma, q} and <n,gamma>
    elsewhere; positivity needs the angle between gamma and n to stay
    below 45 degrees.
    """

    def __init__(self, domain: ConvexDomain, gamma: ObliqueField, theta_hat: float):
        self.domain = domain
        self.gamma = gamma
        self.theta_hat = theta_hat

    def at_many(self, points: np.ndarray) -> np.ndarray:
        """a at each row of an (n, d) batch of boundary and exterior
        points, shape (n, d, d)."""
        anchors, n = _anchored_normals(self.domain, points)
        g = self.gamma.at_many(anchors)
        c = np.einsum("nd,nd->n", n, g)
        q = n - c[:, None] * g
        gq = g[:, :, None] * q[:, None, :]
        return c[:, None, None] * np.eye(self.domain.dim) + gq + gq.transpose(0, 2, 1)


SQRT_HALF = math.sqrt(0.5)


def build_oblique_matrix(domain: ConvexDomain, gamma: ObliqueField,
                         samples: int = 1000, seed: int = 0) -> ObliqueMatrixField:
    """Build the symmetrizing matrix field and certify it on boundary samples.

    Raises GeometryError when the sampled nontangentiality rho_hat is not
    above sqrt(1/2) (the 45-degree validity limit of the rank-two
    construction) or when the sampled eigenvalue floor theta_hat is not
    positive; the offending sample is reported.
    """
    pts, rho_vals = _boundary_rho(domain, gamma, samples, seed)
    i = int(np.argmin(rho_vals))
    if not rho_vals[i] > SQRT_HALF:
        raise GeometryError(
            f"oblique matrix construction needs <gamma, n> > sqrt(1/2) on the "
            f"boundary; sampled minimum {rho_vals[i]:.6f} at {pts[i]}")
    field_obj = ObliqueMatrixField(domain, gamma, theta_hat=np.inf)
    lam = np.linalg.eigvalsh(field_obj.at_many(pts))[:, 0]
    i = int(np.argmin(lam))
    if not lam[i] > 0:
        raise GeometryError(
            f"certified eigenvalue floor is not positive: {lam[i]:.6f} "
            f"at {pts[i]}")
    field_obj.theta_hat = float(lam[i])
    return field_obj
