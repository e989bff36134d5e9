"""Tests for truncated power series and the eigenfunction coefficient families.

Frozen reference values come from independent routes: numpy.polynomial
arithmetic, closed forms, and a 512-point trapezoidal Cauchy integral on
|z| = 0.5 for the exponential family.
"""
import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from compext import (
    DomainError,
    LinearFractionalMap,
    binomial_power,
    cayley_power,
    compose_series,
    exp_series,
    lft_taylor,
    monomial,
    parabolic_eigenfunction,
    standard_form,
)


def _ps(*coeffs):
    return np.asarray(coeffs, dtype=complex)


def _mul(p, q):
    """Cauchy product, truncated to p's order."""
    return np.convolve(p, q)[: p.size]


def test_monomial_and_constant():
    np.testing.assert_allclose(monomial(2, 5), [0, 0, 1, 0, 0])


# ---------------------------------------------------------------------------
# exp


def test_exp_of_linear_is_exponential():
    a = 0.7 + 0.2j
    got = exp_series(_ps(0, a, 0, 0, 0, 0, 0, 0))
    want = [a**n / math.factorial(n) for n in range(8)]
    np.testing.assert_allclose(got, want, rtol=1e-13)


def test_exp_is_multiplicative():
    rng = np.random.default_rng(4)
    p = np.asarray(np.concatenate([[0], rng.standard_normal(9) * 0.3]), dtype=complex)
    q = np.asarray(np.concatenate([[0], rng.standard_normal(9) * 0.3]), dtype=complex)
    lhs = exp_series(p + q)
    rhs = _mul(exp_series(p), exp_series(q))
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


# ---------------------------------------------------------------------------
# Taylor coefficients of a linear fractional map


def test_lft_taylor_closed_form():
    # (z + 0.5)/(1 + 0.5 z): c0 = 1/2 and c_n = 0.75 (-1/2)^(n-1) for n >= 1
    f = standard_form("hyperbolic-automorphism", r=0.5)
    got = lft_taylor(f, 8)
    want = [0.5] + [0.75 * (-0.5) ** (n - 1) for n in range(1, 8)]
    np.testing.assert_allclose(got, want, atol=1e-15)


def test_lft_taylor_affine_is_exact():
    f = LinearFractionalMap(0.5, 1.0, 0, 1)
    got = lft_taylor(f, 5)
    np.testing.assert_allclose(got, [1.0, 0.5, 0, 0, 0], atol=0)


def test_lft_taylor_pole_inside_disk_rejected():
    with pytest.raises(DomainError, match="meets the closed disk"):
        lft_taylor(LinearFractionalMap(1, 0, -2, 1), 6)  # pole at 1/2


def test_lft_taylor_matches_evaluation():
    f = standard_form("loxodromic", a=0.3 + 0.3j, c=0.1)
    p = lft_taylor(f, 40)
    for z in (0.2, -0.3 + 0.1j, 0.5j):
        want = (f.a * z + f.b) / (f.c * z + f.d)
        assert P.polyval(z, p) == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# eigenfunction coefficient families


def test_binomial_power_integer_cases():
    np.testing.assert_allclose(binomial_power(1.0, 4), [1, -1, 0, 0], atol=1e-15)
    np.testing.assert_allclose(binomial_power(2.0, 4), [1, -2, 1, 0], atol=1e-14)


def test_binomial_power_half_frozen():
    # (1 - z)^(1/2) via exp(0.5 log(1-z)) with numpy.polynomial arithmetic
    want = [1.0, -0.5, -0.125, -0.0625, -0.0390625, -0.02734375,
            -0.0205078125, -0.01611328125]
    np.testing.assert_allclose(binomial_power(0.5, 8), want, atol=1e-14)


def test_binomial_power_complex_exponent_multiplies():
    # (1-z)^u (1-z)^v = (1-z)^(u+v)
    u, v = 1 + 1j, 0.5 - 2j
    lhs = _mul(binomial_power(u, 12), binomial_power(v, 12))
    rhs = binomial_power(u + v, 12)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_cayley_power_one_is_the_cayley_transform():
    # (1+z)/(1-z) = 1 + 2z + 2z^2 + ...
    got = cayley_power(1.0, 6)
    np.testing.assert_allclose(got, [1, 2, 2, 2, 2, 2], atol=1e-13)


def test_cayley_power_satisfies_its_ode():
    # f = ((1+z)/(1-z))^w satisfies (1 - z^2) f' = 2 w f
    w = 0.7 - 1.3j
    f = cayley_power(w, 20)
    fp = np.append(P.polyder(f), 0.0)
    one_minus_z2 = _ps(*([1, 0, -1] + [0] * 17))
    lhs = _mul(one_minus_z2, fp)
    rhs = 2 * w * f[:19]
    np.testing.assert_allclose(lhs[:18], rhs[:18], atol=1e-10)


def test_cayley_power_negative_exponent_is_reciprocal():
    w = 0.4 + 0.9j
    prod = _mul(cayley_power(w, 16), cayley_power(-w, 16))
    want = np.zeros(16)
    want[0] = 1.0
    np.testing.assert_allclose(prod, want, atol=1e-11)


def test_parabolic_eigenfunction_frozen_contour_values():
    # Taylor coefficients of exp(-(1+z)/(1-z)) from a 512-point trapezoid
    # rule for the Cauchy integral on the circle |z| = 1/2
    want = [0.36787944117144233, -0.7357588823428847, 0.0,
            0.24525296078096148, 0.24525296078096148, 0.1471517764685768,
            0.03270039477079356, -0.05839356209070412]
    got = parabolic_eigenfunction(1.0, 8)
    np.testing.assert_allclose(got, want, atol=1e-13)


def test_parabolic_eigenfunction_t_zero_is_one():
    got = parabolic_eigenfunction(0.0, 5)
    np.testing.assert_allclose(got, [1, 0, 0, 0, 0], atol=0)


def test_parabolic_eigenfunction_adds_in_t():
    lhs = _mul(parabolic_eigenfunction(1.0, 14), parabolic_eigenfunction(2.0, 14))
    rhs = parabolic_eigenfunction(3.0, 14)
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_parabolic_eigenfunction_rejects_negative_t():
    with pytest.raises(DomainError, match="t must be >= 0"):
        parabolic_eigenfunction(-0.5, 6)


# ---------------------------------------------------------------------------
# composition


def test_compose_with_rotation_scales_coefficients():
    g = _ps(*np.arange(1.0, 9.0))
    w = np.exp(0.4j)
    rot = LinearFractionalMap(w, 0, 0, 1)
    got = compose_series(g, rot, 8)
    want = g * w ** np.arange(8)
    np.testing.assert_allclose(got, want, atol=1e-13)


def test_compose_matches_pointwise_evaluation():
    f = standard_form("hyperbolic-na-1", r=0.5)
    g = binomial_power(1 + 1j, 96)
    h = compose_series(g, f, 24)
    for z in (0.1, 0.2 - 0.1j):
        w = f.a * z + f.b
        assert P.polyval(z, h) == pytest.approx(P.polyval(w, g), abs=1e-10)


def test_compose_order_shortfall_rejected():
    g = _ps(1, 2, 3)
    f = standard_form("hyperbolic-automorphism", r=0.5)
    with pytest.raises(DomainError, match="generator has order 3, need at least 8"):
        compose_series(g, f, 8)


def test_compose_requires_a_self_map():
    g = _ps(*np.ones(8))
    with pytest.raises(DomainError, match="neither a disk self-map nor a Fock symbol"):
        compose_series(g, LinearFractionalMap(2, 0, 0, 1), 8)


def test_compose_accepts_fock_symbol():
    # affine expansion-free symbol is fine even though it is not a disk self-map
    g = _ps(*np.ones(8))
    out = compose_series(g, LinearFractionalMap(0.5, 1.0, 0, 1), 8)
    assert out.shape == (8,)
