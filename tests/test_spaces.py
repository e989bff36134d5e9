"""Tests for the three norm models and their reproducing kernels."""
import math

import numpy as np
import pytest

from compext import (
    OrderMismatchError,
    PointOutsideDomainError,
    PowerSeries,
    SpaceSpec,
    coeffs_to_coordinates,
    coordinates_to_series,
    inner_product,
    monomial,
    monomial_norm,
    monomial_norms,
    norm,
    reproducing_kernel_coeffs,
)

HARDY = SpaceSpec("hardy")
BERGMAN = SpaceSpec("bergman")
FOCK = SpaceSpec("fock")


def test_monomial_norm_values():
    assert monomial_norm(HARDY, 0) == 1.0
    assert monomial_norm(HARDY, 7) == 1.0
    assert monomial_norm(BERGMAN, 1) == pytest.approx(1 / math.sqrt(2))
    assert monomial_norm(BERGMAN, 4) == pytest.approx(1 / math.sqrt(5))
    assert monomial_norm(FOCK, 2) == pytest.approx(math.sqrt(2))
    assert monomial_norm(SpaceSpec("fock", alpha=2.0), 3) == pytest.approx(
        math.sqrt(6 / 8)
    )


def test_fock_norm_ratio_recurrence():
    # ||z^(n+1)|| / ||z^n|| = sqrt((n+1)/alpha); checks the log-gamma route
    sp = SpaceSpec("fock", alpha=0.7)
    for n in range(0, 40, 7):
        ratio = monomial_norm(sp, n + 1) / monomial_norm(sp, n)
        assert ratio == pytest.approx(math.sqrt((n + 1) / 0.7), rel=1e-12)


def test_monomial_norms_vector():
    for sp in (HARDY, BERGMAN, FOCK):
        v = monomial_norms(sp, 9)
        assert v.shape == (9,)
        np.testing.assert_allclose(v, [monomial_norm(sp, n) for n in range(9)])


def test_coordinates_round_trip():
    rng = np.random.default_rng(6)
    p = PowerSeries(rng.standard_normal(10) + 1j * rng.standard_normal(10))
    for sp in (HARDY, BERGMAN, FOCK):
        q = coordinates_to_series(coeffs_to_coordinates(p, sp), sp)
        np.testing.assert_allclose(q.coeffs, p.coeffs, atol=1e-14)


def test_norm_examples():
    one_plus_z = PowerSeries(np.array([1.0, 1.0], dtype=complex))
    assert norm(one_plus_z, HARDY) == pytest.approx(math.sqrt(2))
    assert norm(monomial(1, 4), BERGMAN) == pytest.approx(1 / math.sqrt(2))
    assert norm(monomial(2, 4), FOCK) == pytest.approx(math.sqrt(2))


def test_norm_is_the_coordinate_length():
    rng = np.random.default_rng(7)
    p = PowerSeries(rng.standard_normal(12) + 1j * rng.standard_normal(12))
    for sp in (HARDY, BERGMAN, FOCK):
        assert norm(p, sp) == pytest.approx(np.linalg.norm(coeffs_to_coordinates(p, sp)))


def test_monomials_are_orthogonal():
    for sp in (HARDY, BERGMAN, FOCK):
        assert inner_product(monomial(2, 6), monomial(3, 6), sp) == pytest.approx(0.0)
        sq = inner_product(monomial(3, 6), monomial(3, 6), sp)
        assert sq == pytest.approx(monomial_norm(sp, 3) ** 2)


def test_inner_product_is_hermitian():
    rng = np.random.default_rng(8)
    p = PowerSeries(rng.standard_normal(7) + 1j * rng.standard_normal(7))
    q = PowerSeries(rng.standard_normal(7) + 1j * rng.standard_normal(7))
    for sp in (HARDY, BERGMAN, FOCK):
        assert inner_product(p, q, sp) == pytest.approx(
            np.conj(inner_product(q, p, sp))
        )


def test_inner_product_length_mismatch():
    with pytest.raises(OrderMismatchError):
        inner_product(monomial(1, 4), monomial(1, 5), HARDY)


# ---------------------------------------------------------------------------
# reproducing kernels


def test_kernel_closed_forms():
    w = 0.4 - 0.3j
    n = np.arange(8)
    np.testing.assert_allclose(
        reproducing_kernel_coeffs(HARDY, w, 8).coeffs, np.conj(w) ** n, atol=1e-14
    )
    np.testing.assert_allclose(
        reproducing_kernel_coeffs(BERGMAN, w, 8).coeffs,
        (n + 1) * np.conj(w) ** n,
        atol=1e-14,
    )
    alpha = 1.3
    sp = SpaceSpec("fock", alpha=alpha)
    want = [(alpha * np.conj(w)) ** k / math.factorial(k) for k in range(8)]
    np.testing.assert_allclose(
        reproducing_kernel_coeffs(sp, w, 8).coeffs, want, atol=1e-14
    )


def test_reproducing_property():
    rng = np.random.default_rng(9)
    order = 24
    for sp in (HARDY, BERGMAN, FOCK):
        for _ in range(10):
            p = PowerSeries(rng.standard_normal(order) + 1j * rng.standard_normal(order))
            w = complex(*rng.uniform(-0.55, 0.55, size=2))
            k = reproducing_kernel_coeffs(sp, w, order)
            assert inner_product(p, k, sp) == pytest.approx(p(w), abs=1e-9)


def test_fock_kernel_accepts_large_points():
    # entire functions: the kernel exists at any center
    p = reproducing_kernel_coeffs(FOCK, 3.0 + 2.0j, 12)
    assert np.isfinite(p.coeffs).all()


def test_disk_kernels_reject_boundary_and_outside():
    for sp in (HARDY, BERGMAN):
        with pytest.raises(PointOutsideDomainError):
            reproducing_kernel_coeffs(sp, 1.0, 8)
        with pytest.raises(PointOutsideDomainError):
            reproducing_kernel_coeffs(sp, 1.2j, 8)


def test_space_spec_validation_and_json():
    with pytest.raises(ValueError):
        SpaceSpec("dirichlet")
    with pytest.raises(ValueError):
        SpaceSpec("fock", alpha=0.0)
    # alpha is stored as a float, so JSON output reads 2.0, not 2
    assert type(SpaceSpec("fock", alpha=2).alpha) is float
