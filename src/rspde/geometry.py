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

Supported bodies: balls, axis-aligned boxes, halfspace polytopes, and
finite intersections of those.  Projections onto polytopes and
intersections use Dykstra's alternating scheme, vectorized over batches
of query points.

Point batches use shape (n, d) throughout this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import qmc

# Active-set tolerance for deciding which faces meet a boundary point, and
# for the boundary-membership precondition of outward_normal.
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


@dataclass(frozen=True)
class NormalResult:
    """Outward unit normal at a boundary point.

    ``nonsmooth`` is set when more than one face is active (corner/edge);
    the vector is then the normalized sum of the active face normals.
    """

    vector: np.ndarray
    nonsmooth: bool = False


def _row_norms(points):
    # np.linalg.norm(points, axis=1), the same arithmetic without that
    # function's dispatch cost: ball queries run on every solver step.
    return np.sqrt(np.add.reduce(points * points, axis=1))


def _as_batch(points):
    p = np.asarray(points, dtype=float)
    if p.ndim == 1:
        return p[None, :], True
    if p.ndim != 2:
        raise ValueError(f"expected point or (n, d) batch, got shape {p.shape}")
    return p, False


class ConvexDomain:
    """Closed bounded convex body in R^d with 0 in its interior."""

    dim: int

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

        Raises GeometryError when any point is off the boundary; see
        NormalResult for the vector at corners and edges.
        """
        raise NotImplementedError

    def ray_exit_many(self, directions: np.ndarray) -> np.ndarray:
        """t > 0 per row u such that t*u lies on the boundary (0 interior)."""
        raise NotImplementedError

    @property
    def bounding_radius(self) -> float:
        raise NotImplementedError

    def boundary_anchor(self, x: np.ndarray) -> np.ndarray:
        """A deterministic boundary point associated with an interior x.

        Only used to give direction fields a finite value at points where
        the penalty vanishes anyway; any measurable, deterministic rule
        is acceptable.
        """
        raise NotImplementedError

    # -- convenience wrappers -----------------------------------------

    def interior_gap(self, x) -> float:
        return float(self.interior_gap_many(_as_batch(x)[0])[0])

    def outward_normal(self, x) -> NormalResult:
        vectors, nonsmooth = self.outward_normal_many(_as_batch(x)[0])
        return NormalResult(vectors[0], bool(nonsmooth[0]))

    def ray_exit(self, direction) -> float:
        return float(self.ray_exit_many(_as_batch(direction)[0])[0])

    def project(self, y) -> np.ndarray:
        batch, squeeze = _as_batch(y)
        out = self.project_many(batch)
        return out[0] if squeeze else out

    def distance_many(self, points: np.ndarray) -> np.ndarray:
        diff = points - self.project_many(points)
        return np.sqrt(np.einsum("nd,nd->n", diff, diff))

    def distance(self, y) -> float:
        batch, squeeze = _as_batch(y)
        out = self.distance_many(batch)
        return float(out[0]) if squeeze else out

    def contains(self, y, tol: float = None) -> bool:
        batch, squeeze = _as_batch(y)
        out = self.contains_many(batch, tol)
        return bool(out[0]) if squeeze else out

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
        scale = np.ones_like(dist)
        np.divide(self.radius, dist, out=scale, where=~inside)
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
        b = directions @ self.center
        c = float(self.center @ self.center) - self.radius ** 2
        return b + np.sqrt(b * b - c)

    @property
    def bounding_radius(self):
        return float(np.linalg.norm(self.center)) + self.radius

    def boundary_anchor(self, x):
        v = np.asarray(x, dtype=float) - self.center
        nv = np.linalg.norm(v)
        if nv == 0.0:
            v = np.zeros(self.dim)
            v[0] = 1.0
            nv = 1.0
        return self.center + self.radius * v / nv


class Box(ConvexDomain):
    def __init__(self, lower, upper):
        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)
        if self.lower.shape != self.upper.shape or self.lower.ndim != 1:
            raise GeometryError("box bounds must be vectors of equal length")
        if not np.all(self.lower < 0) or not np.all(self.upper > 0):
            raise GeometryError("box must contain the origin in its interior")
        self.dim = self.lower.size
        self._set_membership_slack()

    def contains_many(self, points, tol=None):
        if tol is None:
            tol = self._slack
        return np.all((points >= self.lower - tol) & (points <= self.upper + tol), axis=1)

    def project_many(self, points):
        return np.clip(points, self.lower, self.upper)

    def interior_gap_many(self, points):
        return np.minimum(np.min(points - self.lower, axis=1),
                          np.min(self.upper - points, axis=1))

    def outward_normal_many(self, points):
        lo_active = np.abs(points - self.lower) <= BOUNDARY_ATOL
        hi_active = np.abs(self.upper - points) <= BOUNDARY_ATOL
        if np.any(self.interior_gap_many(points) < -BOUNDARY_ATOL):
            raise GeometryError("outward_normal: point is outside the box")
        n_active = lo_active.sum(axis=1) + hi_active.sum(axis=1)
        if np.any(n_active == 0):
            raise GeometryError("outward_normal: point is not on the boundary")
        v = hi_active.astype(float) - lo_active.astype(float)
        return v / np.linalg.norm(v, axis=1)[:, None], n_active > 1

    def ray_exit_many(self, directions):
        with np.errstate(divide="ignore"):
            t = np.where(directions > 0, self.upper / directions,
                         np.where(directions < 0, self.lower / directions, np.inf))
        return np.min(t, axis=1)

    @property
    def bounding_radius(self):
        return float(np.linalg.norm(np.maximum(np.abs(self.lower), np.abs(self.upper))))

    def boundary_anchor(self, x):
        x = np.asarray(x, dtype=float).copy()
        lo_margin = x - self.lower
        hi_margin = self.upper - x
        # Push the smallest margin to its face; ties break to the lowest
        # index, low face first.
        i_lo = int(np.argmin(lo_margin))
        i_hi = int(np.argmin(hi_margin))
        if lo_margin[i_lo] <= hi_margin[i_hi]:
            x[i_lo] = self.lower[i_lo]
        else:
            x[i_hi] = self.upper[i_hi]
        return x


class Polytope(ConvexDomain):
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
        self.dim = normals.shape[1]
        self._bounding_radius = self._audit_bounded()
        self._set_membership_slack()

    def _audit_bounded(self) -> float:
        # Numerical boundedness audit: every sampled direction must exit.
        dirs = unit_directions(self.dim, max(64, 32 * self.dim), seed=0)
        t = self.ray_exit_many(dirs)
        if not np.all(np.isfinite(t)):
            raise GeometryError("polytope appears unbounded (no exit along a sampled direction)")
        return float(np.max(t))

    def contains_many(self, points, tol=None):
        if tol is None:
            tol = self._slack
        slack = self.offsets[None, :] - points @ self.normals.T
        return np.all(slack >= -tol, axis=1)

    def project_many(self, points):
        return _dykstra(points, [_HalfspaceSet(self.normals[i], self.offsets[i])
                                 for i in range(self.offsets.size)],
                        inside=self.contains_many(points))

    def interior_gap_many(self, points):
        return np.min(self.offsets - points @ self.normals.T, axis=1)

    def outward_normal_many(self, points):
        slack = self.offsets - points @ self.normals.T
        if np.any(slack < -BOUNDARY_ATOL):
            raise GeometryError("outward_normal: point is outside the polytope")
        active = slack <= BOUNDARY_ATOL
        n_active = active.sum(axis=1)
        if np.any(n_active == 0):
            raise GeometryError("outward_normal: point is not on the boundary")
        v = active.astype(float) @ self.normals
        return v / np.linalg.norm(v, axis=1)[:, None], n_active > 1

    def ray_exit_many(self, directions):
        dots = directions @ self.normals.T
        with np.errstate(divide="ignore"):
            t = np.where(dots > 0, self.offsets / dots, np.inf)
        return np.min(t, axis=1)

    @property
    def bounding_radius(self):
        return self._bounding_radius

    def boundary_anchor(self, x):
        x = np.asarray(x, dtype=float)
        slack = self.offsets - self.normals @ x
        i = int(np.argmin(slack))
        return x + slack[i] * self.normals[i]


class Intersection(ConvexDomain):
    def __init__(self, members):
        members = list(members)
        if not members:
            raise GeometryError("intersection needs at least one member")
        dims = {m.dim for m in members}
        if len(dims) != 1:
            raise GeometryError("intersection members disagree on dimension")
        self.members = members
        self.dim = dims.pop()
        self._set_membership_slack()

    def contains_many(self, points, tol=None):
        out = np.ones(points.shape[0], dtype=bool)
        for m in self.members:
            out &= m.contains_many(points, tol)
        return out

    def project_many(self, points):
        return _dykstra(points, self.members, inside=self.contains_many(points))

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

    def boundary_anchor(self, x):
        gaps = [m.interior_gap(x) for m in self.members]
        return self.members[int(np.argmin(gaps))].boundary_anchor(x)


class _HalfspaceSet:
    """Single halfspace wrapped with the batch-projection interface."""

    def __init__(self, normal, offset):
        self.normal = normal
        self.offset = offset

    def project_many(self, points):
        excess = points @ self.normal - self.offset
        np.maximum(excess, 0.0, out=excess)
        return points - excess[:, None] * self.normal[None, :]


def _dykstra(points, sets, inside=None):
    """Dykstra's alternating projections onto the intersection of ``sets``.

    Vectorized over the batch; converges when the largest point
    displacement over a full sweep drops below DYKSTRA_TOL.  Points
    already inside are returned unchanged (bitwise), which also makes
    re-projection a fixed point.
    """
    points = np.asarray(points, dtype=float)
    if inside is not None and inside.all():
        return points
    work = points if inside is None else points[~inside]
    x = work.copy()
    corrections = [np.zeros_like(x) for _ in sets]
    for _ in range(DYKSTRA_MAX_SWEEPS):
        delta = 0.0
        for i, s in enumerate(sets):
            y = x + corrections[i]
            x_new = s.project_many(y)
            corrections[i] = y - x_new
            delta = max(delta, float(np.max(np.abs(x_new - x))) if x.size else 0.0)
            x = x_new
        if delta < DYKSTRA_TOL:
            break
    else:
        raise GeometryError(
            f"Dykstra projection did not converge in {DYKSTRA_MAX_SWEEPS} sweeps "
            f"(last sweep displacement {delta:.3e})")
    if inside is None:
        return x
    out = points.copy()
    out[~inside] = x
    return out


# ---------------------------------------------------------------------------
# sampling


def unit_directions(d: int, count: int, seed: int) -> np.ndarray:
    """Low-discrepancy unit vectors in R^d, deterministic for a given seed.

    d = 1 alternates the two directions; d >= 2 maps a scrambled Sobol
    sequence through the Gaussian inverse CDF and normalizes.
    """
    if d == 1:
        signs = np.where(np.arange(count) % 2 == 0, 1.0, -1.0)
        return signs[:, None]
    sob = qmc.Sobol(d, scramble=True, seed=seed)
    m = 1 << max(1, (count - 1).bit_length())
    u = sob.random(m)[:count]
    # Clip away exact 0/1 before the inverse CDF.
    u = np.clip(u, 1e-12, 1.0 - 1e-12)
    from scipy.special import ndtri

    g = ndtri(u)
    norms = np.linalg.norm(g, axis=1)
    norms[norms == 0] = 1.0
    return g / norms[:, None]


def boundary_points(domain: ConvexDomain, count: int, seed: int):
    """Boundary samples with their outward normals: (points, normals, nonsmooth).

    Balls use low-discrepancy directions; boxes stratify across faces
    proportionally to face area; polytopes and intersections ray-cast
    low-discrepancy directions from the origin.
    """
    if isinstance(domain, Ball):
        dirs = unit_directions(domain.dim, count, seed)
        pts = domain.center + domain.radius * dirs
        return pts, dirs, np.zeros(count, dtype=bool)
    if isinstance(domain, Box):
        return _box_boundary(domain, count, seed)
    dirs = unit_directions(domain.dim, count, seed)
    pts = domain.ray_exit_many(dirs)[:, None] * dirs
    normals, nonsmooth = domain.outward_normal_many(pts)
    return pts, normals, nonsmooth


def _box_boundary(box: Box, count: int, seed: int):
    d = box.dim
    extent = box.upper - box.lower
    faces = []
    for i in range(d):
        area = float(np.prod(np.delete(extent, i))) if d > 1 else 1.0
        faces.append((i, box.lower[i], -1.0, area))
        faces.append((i, box.upper[i], +1.0, area))
    total = sum(f[3] for f in faces)
    # Largest-remainder allocation of samples to faces.
    quotas = [count * f[3] / total for f in faces]
    counts = [int(q) for q in quotas]
    remainders = sorted(range(len(faces)), key=lambda k: quotas[k] - counts[k], reverse=True)
    for k in remainders[: count - sum(counts)]:
        counts[k] += 1
    rng = np.random.Generator(np.random.Philox(seed))
    pts = np.empty((count, d))
    normals = np.zeros((count, d))
    row = 0
    for (axis, level, sign, _), c in zip(faces, counts):
        if c == 0:
            continue
        block = rng.uniform(box.lower, box.upper, size=(c, d))
        block[:, axis] = level
        pts[row:row + c] = block
        normals[row:row + c, axis] = sign
        row += c
    return pts, normals, np.zeros(count, dtype=bool)


def exterior_points(domain: ConvexDomain, count: int, seed: int, shell: float = 0.5):
    """Points strictly outside the body: boundary samples pushed along
    their outward normals by seeded offsets up to shell*bounding_radius."""
    pts, normals, _ = boundary_points(domain, count, seed)
    rng = np.random.Generator(np.random.Philox(seed + 1))
    s = rng.uniform(0.02, 1.0, size=count) * shell * domain.bounding_radius
    return pts + s[:, None] * normals


def interior_points(domain: ConvexDomain, count: int, seed: int):
    """Points in the interior, spread by low-discrepancy directions and a
    volume-corrected radial factor."""
    dirs = unit_directions(domain.dim, count, seed)
    rng = np.random.Generator(np.random.Philox(seed + 2))
    radial = rng.uniform(0.0, 1.0, size=count) ** (1.0 / domain.dim)
    return (0.999 * radial * domain.ray_exit_many(dirs))[:, None] * dirs


# ---------------------------------------------------------------------------
# oblique direction fields


class ObliqueField:
    """Unit direction field gamma used by the reflection penalty.

    ``rule`` is one of:

    * ``normal`` -- gamma(x) = n(pi(x)); for exterior x this is the exact
      direction (x - pi(x)) / dist(x).
    * ``rotated_normal`` -- the normal rotated by a fixed angle (d = 2).
    * ``custom`` -- a user callable x -> unit vector.

    ``grid_values`` is the vectorized path used inside time stepping: for
    entries with dist <= tol the returned direction is an arbitrary unit
    filler, which is safe because the penalty multiplies it by the
    penetration magnitude (zero there).
    """

    def __init__(self, domain: ConvexDomain, rule: str = "normal",
                 angle: float = 0.0, fn=None):
        self.domain = domain
        self.rule = rule
        self.angle = float(angle)
        self.fn = fn
        if rule == "rotated_normal":
            if domain.dim != 2:
                raise GeometryError("rotated_normal is only defined for d = 2")
            c, s = math.cos(self.angle), math.sin(self.angle)
            self._rot = np.array([[c, -s], [s, c]])
        elif rule == "custom":
            if fn is None:
                raise GeometryError("custom oblique field needs a callable")
        elif rule != "normal":
            raise GeometryError(f"unknown oblique field rule {rule!r}")

    def _normal_at(self, x: np.ndarray) -> np.ndarray:
        p = self.domain.project(x)
        diff = np.asarray(x, dtype=float) - p
        dist = float(np.linalg.norm(diff))
        if dist > BOUNDARY_ATOL:
            return diff / dist
        if abs(self.domain.interior_gap(x)) <= BOUNDARY_ATOL:
            return self.domain.outward_normal(x).vector
        anchor = self.domain.boundary_anchor(x)
        return self.domain.outward_normal(anchor).vector

    def at(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.rule == "custom":
            v = np.asarray(self.fn(x), dtype=float)
            nv = np.linalg.norm(v)
            if nv < 1e-12:
                raise GeometryError("custom oblique field returned a null direction")
            return v / nv
        n = self._normal_at(x)
        if self.rule == "rotated_normal":
            return self._rot @ n
        return n

    def grid_values(self, points: np.ndarray, projections: np.ndarray,
                    dists: np.ndarray) -> np.ndarray:
        """Vectorized directions for a batch, given precomputed projections.

        Entries with dists <= BOUNDARY_ATOL receive the first basis vector
        as a filler direction; callers multiply by the penetration
        magnitude which vanishes there.
        """
        if self.rule == "custom":
            out = np.empty_like(points)
            for i in range(points.shape[0]):
                out[i] = self.at(points[i])
            return out
        outside = dists > BOUNDARY_ATOL
        out = np.zeros_like(points)
        out[:, 0] = 1.0
        if outside.any():
            out[outside] = (points[outside] - projections[outside]) / dists[outside, None]
        if self.rule == "rotated_normal":
            return out @ self._rot.T
        return out


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
    pts, normals, _ = boundary_points(domain, samples, seed)
    rho_vals = np.empty(samples)
    for i in range(samples):
        rho_vals[i] = gamma.at(pts[i]) @ normals[i]
    ext = exterior_points(domain, samples, seed)
    delta_vals = np.empty(samples)
    proj = domain.project_many(ext)
    for i in range(samples):
        delta_vals[i] = proj[i] @ gamma.at(ext[i])

    rho_hat = float(np.min(rho_vals))
    delta_hat = float(np.min(delta_vals))
    violations = []
    rho_floor = max(rho_min, 0.0)
    delta_floor = max(delta_min, 0.0)
    for vals, points, floor, check in (
            (rho_vals, pts, rho_floor, "rho"),
            (delta_vals, ext, delta_floor, "delta")):
        bad = np.nonzero(vals <= floor)[0]
        worst = bad[np.argsort(vals[bad])][:10]
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
    q = n - <n, gamma> gamma, all quantities evaluated at pi(x).  The
    correction is rank two, so the spectrum is {<n,gamma> +- |q|} on
    span{gamma, q} and <n,gamma> elsewhere; positivity needs the angle
    between gamma and n to stay below 45 degrees.
    """

    def __init__(self, domain: ConvexDomain, gamma: ObliqueField, theta_hat: float):
        self.domain = domain
        self.gamma = gamma
        self.theta_hat = theta_hat

    def _parts_at(self, x):
        x = np.asarray(x, dtype=float)
        p = self.domain.project(x)
        diff = x - p
        dist = float(np.linalg.norm(diff))
        if dist > BOUNDARY_ATOL:
            n = diff / dist
        elif abs(self.domain.interior_gap(x)) <= BOUNDARY_ATOL:
            n = self.domain.outward_normal(x).vector
        else:
            anchor = self.domain.boundary_anchor(x)
            n = self.domain.outward_normal(anchor).vector
            p = anchor
        return p, n

    def at(self, x) -> np.ndarray:
        p, n = self._parts_at(x)
        g = self.gamma.at(p)
        c = float(n @ g)
        q = n - c * g
        return c * np.eye(self.domain.dim) + np.outer(g, q) + np.outer(q, g)


SQRT_HALF = math.sqrt(0.5)


def build_oblique_matrix(domain: ConvexDomain, gamma: ObliqueField,
                         samples: int = 1000, seed: int = 0) -> ObliqueMatrixField:
    """Build the symmetrizing matrix field and certify it on boundary samples.

    Raises GeometryError when the sampled nontangentiality rho_hat is not
    above sqrt(1/2) (the 45-degree validity limit of the rank-two
    construction) or when the sampled eigenvalue floor theta_hat is not
    positive; the offending sample is reported.
    """
    pts, normals, _ = boundary_points(domain, samples, seed)
    rho_hat = np.inf
    rho_argmin = None
    for i in range(samples):
        r = float(gamma.at(pts[i]) @ normals[i])
        if r < rho_hat:
            rho_hat, rho_argmin = r, pts[i]
    if not rho_hat > SQRT_HALF:
        raise GeometryError(
            f"oblique matrix construction needs <gamma, n> > sqrt(1/2) on the "
            f"boundary; sampled minimum {rho_hat:.6f} at {rho_argmin}")
    field_obj = ObliqueMatrixField(domain, gamma, theta_hat=np.inf)
    theta_hat = np.inf
    theta_argmin = None
    for i in range(samples):
        a = field_obj.at(pts[i])
        lam = float(np.linalg.eigvalsh(a)[0])
        if lam < theta_hat:
            theta_hat, theta_argmin = lam, pts[i]
    if not theta_hat > 0:
        raise GeometryError(
            f"certified eigenvalue floor is not positive: {theta_hat:.6f} "
            f"at {theta_argmin}")
    field_obj.theta_hat = theta_hat
    return field_obj
