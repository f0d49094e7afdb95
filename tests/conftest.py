"""Shared model builders for the test suite."""

import numpy as np
import pytest

from rspde.coefficients import make_coefficients
from rspde.controls import constant_control
from rspde.fields import Field, SpatialGrid
from rspde.geometry import Ball, Box, Intersection, ObliqueField
from rspde.solvers import sample_brownian


def interval_domain(radius: float) -> Ball:
    """Symmetric interval [-radius, radius] as a 1-d ball."""
    return Ball(center=[0.0], radius=radius)


def free_domain() -> Ball:
    """A domain so large the reflection penalty never activates."""
    return Ball(center=[0.0], radius=100.0)


def normal_gamma(domain) -> ObliqueField:
    return ObliqueField(domain, "normal")


def heat_coeffs(d: int = 1, m: int = 1):
    return make_coefficients(d, m, b={"name": "zero"}, sigma={"name": "zero"})


def forced_coeffs(d: int = 1, m: int = 1, s: float = 1.0, c: float = 0.0):
    """Constant drift c (first component) and constant diffusion s."""
    b = ({"name": "zero"} if c == 0.0
         else {"name": "constant", "value": [c] + [0.0] * (d - 1)})
    mat = np.zeros((d, m))
    mat[0, 0] = s
    return make_coefficients(d, m, b=b, sigma={"name": "constant", "matrix": mat.tolist()})


def sine_start(J: int, amplitude: float = 1.0, d: int = 1) -> Field:
    grid = SpatialGrid(J=J, d=d)
    vals = np.zeros((d, J))
    vals[0] = amplitude * np.sin(np.pi * grid.xs)
    return Field(grid, vals)


def zero_start(J: int, d: int = 1) -> Field:
    return Field.zeros(SpatialGrid(J=J, d=d))


def outward_drift_chunk():
    """An outward drift of 4 in the off-centre interval [-0.25, 0.35], d = 1,
    with noise: four members whose controls add 0, -4, 2 and -1 to the
    drift.  The member with no net drift stays inside; the others
    penetrate the upper end."""
    dom = Ball(center=[0.05], radius=0.3)
    coeffs = make_coefficients(1, 1, b={"name": "constant", "value": [4.0]},
                               sigma={"name": "constant", "matrix": [[1.0]]})
    ctl = constant_control(0.25, [1.0], K=4)
    return dict(coeffs=coeffs, domain=dom, gamma=normal_gamma(dom),
                u0=zero_start(31), n_pen=512.0, dt=5e-4, steps=500,
                epsilon=0.01, control=[ctl.scaled(c) for c in (0.0, -4.0, 2.0, -1.0)],
                noise=[sample_brownian(1, 500, 5e-4, seed) for seed in range(4)])


def ball_box_2d_chunk():
    """Oblique reflection on ball-box in d = 2 with a state-dependent sigma:
    the forced members penetrate, the unforced one does not."""
    dom = Intersection([Ball(center=[0.0, 0.0], radius=0.5),
                        Box(lower=[-0.4, -0.45], upper=[0.45, 0.4])])
    coeffs = make_coefficients(
        2, 2, b={"name": "linear", "matrix": [[8.0, 1.0], [-1.0, 6.0]]},
        sigma={"name": "diag_affine", "base": [0.4, 0.3], "slope": [0.5, -0.2]})
    ctl = constant_control(0.2, [12.0, 10.0], K=4)
    return dict(coeffs=coeffs, domain=dom,
                gamma=ObliqueField(dom, "rotated_normal", angle=0.2),
                u0=sine_start(15, 0.2, d=2), n_pen=256.0, dt=1e-3, steps=200,
                epsilon=0.05, control=[ctl.scaled(c) for c in (1.0, 0.0, -0.5, 0.6, 0.3)],
                noise=[sample_brownian(2, 200, 1e-3, seed) for seed in range(5)])


def same_bits(got, want) -> bool:
    """Whether ``got`` holds the float64 bits of ``want``."""
    return np.asarray(got).tobytes() == np.asarray(want, dtype=float).tobytes()


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(20260823))
