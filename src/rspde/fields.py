"""Spatial grids, vector-valued fields on [0, 1], and discrete norms.

Fields carry Dirichlet boundary conditions implicitly: values are stored
only at the J interior points x_j = j*dx, dx = 1/(J+1), and both
endpoints are treated as zero by every difference operator and norm.

Discrete norms (f is a d x J array, |f_j| the Euclidean norm in R^d):

    h_norm^2    = dx * sum_j |f_j|^2                     (L^2 surrogate)
    v_norm^2    = dx * sum_{j=0..J} |(f_{j+1}-f_j)/dx|^2 (H^1_0, zero ends)
    h2_norm     = h_norm of the discrete Laplacian       (H^2 surrogate)
    l1_norm     = dx * sum_j |f_j|
    linf_norm   = max_{i,j} |f_{i,j}|                    (componentwise)

The three-point Laplacian with zero ghost values has the exact discrete
eigenpair  f_j = sin(pi j dx),  eigenvalue -(2/dx^2)(1 - cos(pi dx)),
which the tests lean on as an oracle.

Fields are not serialized one by one: a trajectory saves its snapshot
states as a single array (see ``trajectory.Trajectory.save``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SpatialGrid:
    """Interior grid of [0, 1]: J >= 3 interior points, d components."""

    J: int
    d: int = 1

    def __post_init__(self):
        if self.J < 3:
            raise ValueError("grid needs at least 3 interior points")
        if self.d < 1:
            raise ValueError("fields need at least one component")

    @property
    def dx(self) -> float:
        return 1.0 / (self.J + 1)

    @property
    def xs(self) -> np.ndarray:
        return np.arange(1, self.J + 1) * self.dx


class Field:
    """d x J array of interior values on a SpatialGrid."""

    def __init__(self, grid: SpatialGrid, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.d, grid.J):
            raise ValueError(
                f"field shape {values.shape} does not match grid ({grid.d}, {grid.J})")
        self.grid = grid
        self.values = values

    @classmethod
    def zeros(cls, grid: SpatialGrid) -> "Field":
        return cls(grid, np.zeros((grid.d, grid.J)))


# ---------------------------------------------------------------------------
# difference operators and norms (array backends used by the hot loops)


def laplacian_values(values: np.ndarray, dx: float) -> np.ndarray:
    """Three-point Laplacian with zero ghost values, along the last axis."""
    out = -2.0 * values
    out[..., :-1] += values[..., 1:]
    out[..., 1:] += values[..., :-1]
    out /= dx * dx
    return out


def h_norm_sq(values: np.ndarray, dx: float) -> float:
    return dx * float(np.sum(values * values))


def v_norm_sq(values: np.ndarray, dx: float) -> float:
    d = np.diff(values, axis=-1)
    total = float(np.sum(d * d))
    # boundary differences against the zero endpoint values
    total += float(np.sum(values[..., 0] * values[..., 0]))
    total += float(np.sum(values[..., -1] * values[..., -1]))
    return total / dx


def discrete_laplacian(f: Field) -> Field:
    return Field(f.grid, laplacian_values(f.values, f.grid.dx))


def h_norm(f: Field) -> float:
    return float(np.sqrt(h_norm_sq(f.values, f.grid.dx)))


def v_norm(f: Field) -> float:
    return float(np.sqrt(v_norm_sq(f.values, f.grid.dx)))


def h2_norm(f: Field) -> float:
    return h_norm(discrete_laplacian(f))


def l1_norm(f: Field) -> float:
    pointwise = np.linalg.norm(f.values, axis=0)
    return f.grid.dx * float(np.sum(pointwise))


def linf_norm(f: Field) -> float:
    return float(np.max(np.abs(f.values))) if f.values.size else 0.0


def sup_series(values_per_state: np.ndarray, dx: float) -> np.ndarray:
    """h_norm^2 of every state in a (K+1, d, J) stack."""
    return dx * np.einsum("kij,kij->k", values_per_state, values_per_state)


def v_series(values_per_state: np.ndarray, dx: float) -> np.ndarray:
    """v_norm^2 of every state in a (K+1, d, J) stack."""
    v = values_per_state
    # differences against the zero end values, formed in one array
    d = np.empty(v.shape[:-1] + (v.shape[-1] + 1,))
    d[..., 0] = v[..., 0]
    np.subtract(v[..., 1:], v[..., :-1], out=d[..., 1:-1])
    np.negative(v[..., -1], out=d[..., -1])
    return np.einsum("kij,kij->k", d, d) / dx


def lap_series(values_per_state: np.ndarray, dx: float) -> np.ndarray:
    """h2_norm^2 of every state in a (K+1, d, J) stack."""
    lap = laplacian_values(values_per_state, dx)
    return dx * np.einsum("kij,kij->k", lap, lap)
