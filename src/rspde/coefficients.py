"""Drift and diffusion coefficient registries with a Lipschitz audit.

Both coefficients act pointwise on the state vector u in R^d:

    b : R^d -> R^d          drift
    sigma : R^d -> R^{d x m}  diffusion against an m-dimensional
                              Brownian motion (noise depends on time only)

Grid-vectorized evaluation: b maps a (d, J) state block to (d, J), sigma
to (d, m, J).  Registry entries are declared with a Lipschitz constant
that ``audit_lipschitz`` spot-checks on random pairs.  The ``zero`` and
``constant`` rules do not read the state; ``state_free_drift`` and
``state_free_diffusion`` return their value once, so the solvers can
take that work out of the time-step loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class ModelCoefficients:
    """Pointwise drift/diffusion pair with declared Lipschitz constant."""

    d: int
    m: int
    b_name: str
    sigma_name: str
    b_params: dict
    sigma_params: dict
    lipschitz: float

    def drift(self, u: np.ndarray) -> np.ndarray:
        """b(u) for a (d, J) state block -> (d, J)."""
        return _B_RULES[self.b_name](u, self.b_params)

    def diffusion(self, u: np.ndarray) -> np.ndarray:
        """sigma(u) for a (d, J) state block -> (d, m, J)."""
        return _SIGMA_RULES[self.sigma_name](u, self.m, self.sigma_params)

    def state_free_drift(self):
        """b as a (d,) vector when the rule ignores the state, else None."""
        if self.b_name not in _STATE_FREE:
            return None
        return np.array(self.drift(np.zeros((self.d, 1)))[:, 0])

    def state_free_diffusion(self):
        """sigma as a (d, m) matrix when the rule ignores the state, else None."""
        if self.sigma_name not in _STATE_FREE:
            return None
        return np.array(self.diffusion(np.zeros((self.d, 1)))[:, :, 0])


def _b_zero(u, params):
    return np.zeros_like(u)


def _b_constant(u, params):
    c = np.asarray(params["value"], dtype=float)
    return np.broadcast_to(c[:, None], u.shape)


def _b_linear(u, params):
    a = np.asarray(params["matrix"], dtype=float)
    return np.einsum("de,ej->dj", a, u)


_B_RULES = {"zero": _b_zero, "constant": _b_constant, "linear": _b_linear}


def _sigma_zero(u, m, params):
    return np.zeros((u.shape[0], m, u.shape[1]))


def _sigma_constant(u, m, params):
    s = np.asarray(params["matrix"], dtype=float)
    if s.shape != (u.shape[0], m):
        raise ValueError(f"sigma matrix shape {s.shape} != ({u.shape[0]}, {m})")
    return np.broadcast_to(s[:, :, None], (u.shape[0], m, u.shape[1]))


def _sigma_diag_affine(u, m, params):
    # sigma_ii(u) = base_i + slope_i * u_i on the diagonal (needs m == d);
    # affine in the state, Lipschitz constant max|slope|.
    d = u.shape[0]
    if m != d:
        raise ValueError("diag_affine diffusion needs m == d")
    base = np.asarray(params["base"], dtype=float)
    slope = np.asarray(params["slope"], dtype=float)
    out = np.zeros((d, d, u.shape[1]))
    idx = np.arange(d)
    out[idx, idx, :] = base[:, None] + slope[:, None] * u
    return out


_SIGMA_RULES = {"zero": _sigma_zero, "constant": _sigma_constant,
                "diag_affine": _sigma_diag_affine}

# Rules, in both registries, whose value does not depend on the state.
_STATE_FREE = frozenset({"zero", "constant"})


def make_coefficients(d: int, m: int, b: dict, sigma: dict) -> ModelCoefficients:
    """Build a coefficient pair from registry specs {name, params...}.

    The declared Lipschitz constant is derived from the entry parameters:
    zero/constant contribute 0, linear drifts their spectral norm,
    diag_affine diffusions their largest |slope|.  Each rule is evaluated
    once on a zero state, so a parameter it needs but the spec lacks
    raises here and not inside a solve.
    """
    b_name, b_params = b["name"], {k: v for k, v in b.items() if k != "name"}
    s_name, s_params = sigma["name"], {k: v for k, v in sigma.items() if k != "name"}
    if b_name not in _B_RULES:
        raise ValueError(f"unknown drift rule {b_name!r}")
    if s_name not in _SIGMA_RULES:
        raise ValueError(f"unknown diffusion rule {s_name!r}")
    lip = 0.0
    if b_name == "linear":
        lip += float(np.linalg.norm(np.asarray(b_params["matrix"]), 2))
    if s_name == "diag_affine":
        lip += float(np.max(np.abs(s_params["slope"])))
    coeffs = ModelCoefficients(d=d, m=m, b_name=b_name, sigma_name=s_name,
                               b_params=b_params, sigma_params=s_params,
                               lipschitz=lip)
    zero = np.zeros((d, 1))
    coeffs.drift(zero)
    coeffs.diffusion(zero)
    return coeffs


def audit_lipschitz(coeffs: ModelCoefficients, pairs: int = 10000,
                    seed: int = 0, box: float = 10.0) -> float:
    """Check |b(u)-b(v)| + |sigma(u)-sigma(v)| <= C |u-v| on random pairs.

    Returns the worst observed ratio; raises ValueError when it exceeds
    the declared constant beyond rounding slack.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    u = rng.uniform(-box, box, size=(coeffs.d, pairs))
    v = rng.uniform(-box, box, size=(coeffs.d, pairs))
    db = coeffs.drift(u) - coeffs.drift(v)
    ds = coeffs.diffusion(u) - coeffs.diffusion(v)
    num = (np.sqrt(np.einsum("dj,dj->j", db, db))
           + np.sqrt(np.einsum("dmj,dmj->j", ds, ds)))
    den = np.sqrt(np.einsum("dj,dj->j", u - v, u - v))
    ok = den > 1e-12
    worst = float(np.max(num[ok] / den[ok])) if ok.any() else 0.0
    if worst > coeffs.lipschitz * (1 + 1e-9) + 1e-12:
        raise ValueError(
            f"coefficient pair violates its declared Lipschitz constant: "
            f"observed {worst:.6g} > declared {coeffs.lipschitz:.6g}")
    return worst
