"""The Lipschitz audit of coefficient pairs against their declared constant."""

import dataclasses

import numpy as np
import pytest

from rspde.coefficients import audit_lipschitz, make_coefficients


def affine_pair():
    return make_coefficients(
        2, 2, b={"name": "linear", "matrix": [[1.0, 2.0], [0.0, -1.0]]},
        sigma={"name": "diag_affine", "base": [0.5, 0.5], "slope": [0.3, -0.7]})


def test_audit_passes_linear_diag_affine():
    # declared constant: spectral norm of the drift matrix + max |slope|
    coeffs = affine_pair()
    want = np.linalg.norm([[1.0, 2.0], [0.0, -1.0]], 2) + 0.7
    assert coeffs.lipschitz == pytest.approx(want, rel=1e-15)
    worst = audit_lipschitz(coeffs, pairs=2000, seed=1)
    assert 0.0 < worst <= coeffs.lipschitz


def test_audit_rejects_constant_below_the_true_one():
    coeffs = affine_pair()
    worst = audit_lipschitz(coeffs, pairs=2000, seed=1)
    low = dataclasses.replace(coeffs, lipschitz=0.9 * worst)
    with pytest.raises(ValueError, match="Lipschitz"):
        audit_lipschitz(low, pairs=2000, seed=1)
