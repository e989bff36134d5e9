"""Affine sections as an exact oracle.

For phi(z) = a z + b, C_phi maps the polynomials of degree < N into
themselves, so the order-N section is C_phi restricted to an invariant
subspace, not an approximation of it.  With p = b/(1 - a) the fixed point,
phi(z) - p = a (z - p), so C_phi (z - p)^j = a^j (z - p)^j exactly: the
section's eigenvalues are a^j, j < N, and its eigenvectors the coefficient
vectors of (z - p)^j.  The difference quotient Q_p f = (f - f(p))/(z - p)
lowers degrees, so it maps the section's space into itself too, and
C_phi Q_p = a^-1 Q_p C_phi holds on it exactly.  These tests hold
composition_matrix, the spectral layer and intertwining_residual to that
algebra on the whole section, with no block or margin, at orders the
50-digit oracle cannot reach cheaply.
"""
import cmath
import math

import numpy as np
import pytest

from compext import (
    LinearFractionalMap,
    OperatorMatrix,
    SpaceSpec,
    composition_matrix,
    intertwining_residual,
    op_norm,
    standard_form,
)
from compext.spaces import monomial_norms

SPACES = (SpaceSpec("hardy"), SpaceSpec("bergman"), SpaceSpec("fock"))
ORDERS = (48, 128, 256)


def _draw(space: SpaceSpec, seed: int) -> LinearFractionalMap:
    """A seeded affine symbol a z + b, 0.3 <= |a| <= 0.9: a self-map of the
    disk (|a| + |b| < 1) on Hardy and Bergman, |b| <= 1 on Fock."""
    rng = np.random.default_rng([seed, SPACES.index(space)])
    a = rng.uniform(0.3, 0.9) * cmath.exp(2j * math.pi * rng.random())
    reach = 1.0 if space.kind == "fock" else 0.9 * (1 - abs(a))
    b = reach * rng.random() * cmath.exp(2j * math.pi * rng.random())
    return LinearFractionalMap(a, b, 0, 1)


# the seeded draws, then hyperbolic-na-1 (0.6 z + 0.4), whose fixed point
# p = 1 lies on the circle
SYMBOLS = [(space, n, seed) for space in SPACES for n in ORDERS for seed in (0, 1, "na-1")]


def _section(space: SpaceSpec, n: int, seed):
    phi = standard_form("hyperbolic-na-1", r=0.6) if seed == "na-1" else _draw(space, seed)
    return phi, composition_matrix(phi, space, n)


@pytest.mark.parametrize("space,n,seed", SYMBOLS, ids=lambda v: getattr(v, "kind", str(v)))
def test_affine_section_eigenvalues_are_the_powers_of_a(space, n, seed):
    phi, C = _section(space, n, seed)
    w = C.eig_reliability[0]
    diagonal = np.diag(C.entries)
    assert np.array_equal(np.sort(w), np.sort(diagonal))
    powers = phi.a ** np.arange(n)
    assert np.all(np.abs(diagonal - powers) <= 1e-12 * np.abs(powers))
    nearest = np.abs(w[:, None] - powers[None, :]) / np.abs(powers[None, :])
    assert nearest.min(axis=1).max() <= 1e-12


@pytest.mark.parametrize("space,n,seed", SYMBOLS, ids=lambda v: getattr(v, "kind", str(v)))
def test_affine_section_eigenvectors_are_the_powers_of_z_minus_p(space, n, seed):
    phi, C = _section(space, n, seed)
    p = phi.b / (1 - phi.a)
    norms = monomial_norms(space, n)
    V = np.zeros((n, n), dtype=complex)
    for j in range(n):
        # (z - p)^j = sum_m C(j, m) (-p)^(j - m) z^m, in orthonormal coordinates
        V[: j + 1, j] = [math.comb(j, m) * (-p) ** (j - m) * norms[m] for m in range(j + 1)]
    V /= np.abs(V).max(axis=0)  # Fock at N = 256 would overflow the norms below
    lam = phi.a ** np.arange(n)
    residual = np.linalg.norm(C.entries @ V - V * lam, axis=0)
    assert np.all(residual <= 1e-14 * op_norm(C) * np.linalg.norm(V, axis=0))


def _difference_quotient(space: SpaceSpec, n: int, p: complex) -> OperatorMatrix:
    """Q_p on the order-n section: Q_p z^j = sum_{i<j} p^(j-1-i) z^i, in
    orthonormal coordinates."""
    i, j = np.indices((n, n))
    norms = monomial_norms(space, n)
    Q = np.where(i < j, complex(p) ** np.maximum(j - 1 - i, 0), 0) * norms[:, None] / norms[None, :]
    return OperatorMatrix(space, n, Q, f"difference-quotient:{p}")


# (a, p): phi(z) = a (z - p) + p, a self-map of the disk with fixed point p
QUOTIENT_SYMBOLS = [(0.6, 0.3), (0.5, 0.5), (0.2, 0.7), (0.5j, 0.2)]


@pytest.mark.parametrize("a,p", QUOTIENT_SYMBOLS)
@pytest.mark.parametrize("n", ORDERS)
@pytest.mark.parametrize("space", SPACES, ids=lambda space: space.kind)
def test_difference_quotient_intertwines_the_affine_section(space, n, a, p):
    C = composition_matrix(LinearFractionalMap(a, p * (1 - a), 0, 1), space, n)
    Q = _difference_quotient(space, n, p)
    assert intertwining_residual(C, Q, 1 / a, 0) <= 1e-14
    assert intertwining_residual(C, Q, 1.1 / a, 0) >= 100 * 1e-14
