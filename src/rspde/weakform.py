"""Weak-form residuals and the variational-inequality check.

The solution property being verified: for smooth probes phi vanishing at
the ends of [0, 1],

    <u(T), phi(T)> - <u(0), phi(0)>
        = int_0^T [ <u, d_t phi> + <u, phi_xx> + <b(u), phi> ] dt
          + sum_k int_0^T <sigma_k(u), phi> hdot_k dt
          + sqrt(eps) * sum_k <sigma_k(u(t_j)), phi(t_j)> dB_k   (Ito sums)
          - int int <phi, d eta>

with eta the reflection measure.  ``weak_form_residual`` evaluates the
absolute defect of this identity on the solver's own time grid with
left-endpoint quadrature; for the semi-implicit scheme it decays like
O(dt + dx^2).  The d_t phi coupling vanishes for time-constant probes,
which is the configuration all bundled diagnostics use.

The variational inequality replaces phi by domain-valued probes and
weighs the measure with the symmetrizing matrix field a:

    int int < u(t, x) - phi(t, x), a(u(t, x)) eta(dt, dx) >  >=  -tol,

nonnegative in the limit because a gamma = n and the domain is convex.
``variational_inequality_check`` evaluates a(u) eta once, in one
``ObliqueMatrixField.at_many`` call over every (step, point) the measure
charges, and pairs it with each probe in one sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import Field, SpatialGrid
from .geometry import ObliqueMatrixField
from .trajectory import Trajectory


@dataclass
class WeakTestFunction:
    """phi(t, x) = p(t) * sin(mode * pi * x) * e_component.

    ``t_poly`` lists polynomial coefficients of p in ascending order, so
    the default (1.0,) is constant in time.  Second space and first time
    derivatives are analytic.
    """

    grid: SpatialGrid
    mode: int
    component: int = 0
    t_poly: tuple = (1.0,)

    def __post_init__(self):
        if not 0 <= self.component < self.grid.d:
            raise ValueError("test function component out of range")
        if self.mode < 1:
            raise ValueError("spatial mode must be a positive integer")
        self._profile = np.sin(self.mode * np.pi * self.grid.xs)

    def _poly(self, t: float) -> float:
        return sum(c * t**i for i, c in enumerate(self.t_poly))

    def _poly_dt(self, t: float) -> float:
        return sum(i * c * t ** (i - 1) for i, c in enumerate(self.t_poly) if i >= 1)

    def _lift(self, profile_scale: float) -> np.ndarray:
        vals = np.zeros((self.grid.d, self.grid.J))
        vals[self.component] = profile_scale * self._profile
        return vals

    def at(self, t: float) -> np.ndarray:
        return self._lift(self._poly(t))

    def dxx_at(self, t: float) -> np.ndarray:
        return self._lift(-((self.mode * np.pi) ** 2) * self._poly(t))

    def dt_at(self, t: float) -> np.ndarray:
        return self._lift(self._poly_dt(t))

    @property
    def time_constant(self) -> bool:
        return all(c == 0.0 for c in self.t_poly[1:])


def weak_form_residual(traj: Trajectory, phi: WeakTestFunction, coeffs,
                       control=None, noise=None) -> float:
    """Absolute defect of the weak formulation along a trajectory.

    Pass the same control and noise path the run used; the noise term is
    scaled by sqrt(traj.epsilon).  All time integrals use left-endpoint
    quadrature on the trajectory's own grid.
    """
    grid = traj.grid
    dx, dt = grid.dx, traj.dt
    K = traj.steps
    times = traj.times

    phi_k = np.stack([phi.at(t) for t in times])          # (K+1, d, J)
    total = dx * float(np.sum(traj.states[-1] * phi_k[-1]))
    total -= dx * float(np.sum(traj.states[0] * phi_k[0]))

    lap_phi = np.stack([phi.dxx_at(t) for t in times[:-1]])
    total -= dt * dx * float(np.sum(traj.states[:-1] * lap_phi))
    if not phi.time_constant:
        dphi = np.stack([phi.dt_at(t) for t in times[:-1]])
        total -= dt * dx * float(np.sum(traj.states[:-1] * dphi))

    hdot = control.values_on(K) if control is not None else None
    sqrt_eps = np.sqrt(traj.epsilon) if traj.epsilon > 0 else 0.0
    for k in range(K):
        u = traj.states[k]
        total -= dt * dx * float(np.sum(coeffs.drift(u) * phi_k[k]))
        if hdot is not None or (sqrt_eps > 0 and noise is not None):
            sig = coeffs.diffusion(u)                      # (d, m, J)
            sig_phi = np.einsum("dmj,dj->m", sig, phi_k[k])
            if hdot is not None:
                total -= dt * dx * float(sig_phi @ hdot[:, k])
            if sqrt_eps > 0 and noise is not None:
                total -= sqrt_eps * dx * float(sig_phi @ noise.increments[:, k])

    if traj.measure is not None:
        total += float(np.sum(phi_k[:-1] * traj.measure.increments))
    return abs(total)


@dataclass
class VICheckResult:
    value: float
    tol: float
    passed: bool
    per_probe: list


def _probe_states(probe, steps: int, grid: SpatialGrid) -> np.ndarray:
    if isinstance(probe, Trajectory):
        arr = probe.states
    elif isinstance(probe, Field):
        arr = np.broadcast_to(probe.values, (steps + 1,) + probe.values.shape)
    else:
        arr = np.asarray(probe, dtype=float)
        if arr.shape == (grid.d, grid.J):
            arr = np.broadcast_to(arr, (steps + 1, grid.d, grid.J))
    if arr.shape != (steps + 1, grid.d, grid.J):
        raise ValueError(f"probe shape {arr.shape} does not match the trajectory")
    return arr


def variational_inequality_check(traj: Trajectory, a_field: ObliqueMatrixField,
                                 probes, tol: float = None) -> VICheckResult:
    """min over probes of  sum <u - phi, a(u) . eta increment>  >= -tol.

    Probes must take values in the domain (checked to 1e-9); they may be
    constant-in-time fields or full trajectories (e.g. pi(u) itself).
    The default tolerance is 1e-8 times the measure's total variation.
    """
    if traj.measure is None:
        raise ValueError("trajectory carries no reflection measure")
    K = traj.steps
    tv = traj.measure.total_variation
    if tol is None:
        tol = 1e-8 * tv
    domain = a_field.domain

    k, j = np.nonzero(traj.measure.magnitude > 0.0)
    u = traj.states[k, :, j]
    a_eta = np.einsum("nde,ne->nd", a_field.at_many(u),
                      traj.measure.increments[k, :, j])
    per_probe = []
    for probe in probes:
        arr = _probe_states(probe, K, traj.grid)
        flat = arr.transpose(0, 2, 1).reshape(-1, traj.grid.d)
        if not domain.contains_many(flat, tol=1e-9).all():
            raise ValueError("probe leaves the domain")
        per_probe.append(float(np.einsum("nd,nd->", u - arr[k, :, j], a_eta)))
    value = min(per_probe) if per_probe else 0.0
    return VICheckResult(value=value, tol=tol, passed=value >= -tol,
                         per_probe=per_probe)
