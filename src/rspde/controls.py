"""Piecewise-constant Cameron-Martin controls on [0, T].

A control stores the derivative hdot as an (m, K) array of values held
constant on each of the K equal subintervals; its squared Cameron-Martin
norm is sum_k |hdot_k|^2 * dt, computed exactly for this class.  Refining
the time grid by an integer factor repeats values and leaves the norm
unchanged bit for bit in exact arithmetic, which is what lets the solvers
subdivide dt for penalty stiffness without touching the control energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class Control:
    """hdot values (m, K) on K equal subintervals of [0, T]."""

    T: float
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError("control values must be an (m, K) array")
        if not self.T > 0:
            raise ValueError("control horizon must be positive")

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def K(self) -> int:
        return self.values.shape[1]

    @property
    def dt(self) -> float:
        return self.T / self.K

    def cm_norm_sq(self) -> float:
        """Exact squared Cameron-Martin norm of the piecewise-constant hdot."""
        return float(np.sum(self.values * self.values)) * self.dt

    def values_on(self, steps: int) -> np.ndarray:
        """hdot per solver step for a grid of ``steps`` equal steps.

        Requires steps to be an integer multiple of K so the refinement is
        exact (each control interval covers a whole number of steps).
        """
        if steps % self.K != 0:
            raise ValueError(
                f"solver steps {steps} must be a multiple of the control grid {self.K}")
        return np.repeat(self.values, steps // self.K, axis=1)

    def scaled(self, c: float) -> "Control":
        return Control(self.T, c * self.values)


def zero_control(T: float, m: int, K: int = 1) -> Control:
    return Control(T, np.zeros((m, K)))


def constant_control(T: float, vector, K: int = 1) -> Control:
    v = np.asarray(vector, dtype=float)
    return Control(T, np.tile(v[:, None], (1, K)))


def sine_control(T: float, m: int, K: int, rate: int, amplitude: float = 1.0,
                 component: int = 0) -> Control:
    """hdot_component(t) = amplitude * sin(2 pi rate t / T), sampled at the
    left endpoint of each subinterval.

    The family rate = 1, 2, 4, ... converges weakly to the zero control;
    it drives the continuity experiments.
    """
    vals = np.zeros((m, K))
    t_left = np.arange(K) * (T / K)
    vals[component] = amplitude * np.sin(2.0 * math.pi * rate * t_left / T)
    return Control(T, vals)


def tabulated_control(T: float, values) -> Control:
    return Control(T, np.asarray(values, dtype=float))
