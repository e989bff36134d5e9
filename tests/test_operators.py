"""Tests for finite matrix truncations of the operator families.

The composition-matrix oracle below recomputes columns independently:
Taylor coefficients of the symbol by FFT on a circle, powers by
numpy.polynomial multiplication, then the norm rescaling.
"""
import math
import time

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P

from compext import (
    DomainError,
    LinearFractionalMap,
    OperatorMatrix,
    SpaceSpec,
    adjoint,
    basis_shift_matrix,
    binomial_power,
    build_witness,
    compose,
    composition_matrix,
    direct_sum,
    intertwining_residual,
    matmul,
    matrix_power,
    monomial_norms,
    multiplication_matrix,
    op_norm,
    operator_to_matrix_market,
    quasi_diff_matrix,
    quasi_mult_matrix,
    shifted_quasi_mult,
    sigma_shift_matrix,
    standard_form,
)
from compext.extspec import WITNESSES, _split
from compext.operators import monomial_support, singular_values
import oracle

HARDY = SpaceSpec("hardy")
BERGMAN = SpaceSpec("bergman")
FOCK = SpaceSpec("fock")
ROTATION7 = LinearFractionalMap(np.exp(2j * np.pi / 7), 0, 0, 1)
FOCK_AFFINE = LinearFractionalMap(0.6 * np.exp(0.3j), 0.5 - 0.2j, 0, 1)


def _fft_taylor(f: LinearFractionalMap, order: int, radius: float = 0.9) -> np.ndarray:
    m = 4096
    zs = radius * np.exp(2j * np.pi * np.arange(m) / m)
    vals = (f.a * zs + f.b) / (f.c * zs + f.d)
    return (np.fft.fft(vals) / m / radius ** np.arange(m))[:order]


def _composition_oracle(f, space, order):
    taylor = _fft_taylor(f, order)
    nm = monomial_norms(space, order)
    out = np.zeros((order, order), dtype=complex)
    for j in range(order):
        pj = P.polypow(taylor, j)[:order] if j else np.array([1.0 + 0j])
        col = np.zeros(order, dtype=complex)
        col[: len(pj)] = pj
        out[:, j] = col * nm / nm[j]
    return out


# ---------------------------------------------------------------------------
# composition matrices


def test_rotation_composition_is_diagonal():
    w = np.exp(2j * np.pi / 5)
    rot = LinearFractionalMap(w, 0, 0, 1)
    for sp in (HARDY, BERGMAN, FOCK):
        C = composition_matrix(rot, sp, 12)
        np.testing.assert_allclose(C.entries, np.diag(w ** np.arange(12)), atol=1e-15)


def test_bergman_composition_frozen_entries():
    # oracle: FFT Taylor coefficients + polynomial powers + norm scaling
    C = composition_matrix(standard_form("hyperbolic-automorphism", r=0.5), BERGMAN, 6)
    frozen = {
        (0, 0): 1.0,
        (0, 1): 0.7071067811865476,
        (1, 1): 0.7500000000000001,
        (2, 1): -0.3061862178478973,
        (1, 2): 0.9185586535436918,
        (3, 3): -0.2812499999999998,
        (5, 2): -0.16572815184059708,
    }
    for (i, j), v in frozen.items():
        assert C.entries[i, j] == pytest.approx(v, abs=1e-12)


def test_composition_matches_independent_oracle():
    f = standard_form("loxodromic", a=0.3 + 0.3j, c=0.1)
    for sp in (HARDY, BERGMAN):
        got = composition_matrix(f, sp, 10).entries
        want = _composition_oracle(f, sp, 10)
        np.testing.assert_allclose(got, want, atol=1e-10)


ORACLE_CASES = [
    pytest.param(standard_form("elliptic-automorphism", w=np.exp(2j * np.pi / 7)), BERGMAN, id="bergman-elliptic"),
    pytest.param(standard_form("hyperbolic-automorphism", r=0.5), BERGMAN, id="bergman-hyperbolic-aut"),
    pytest.param(standard_form("hyperbolic-na-1", r=0.5), BERGMAN, id="bergman-na-1"),
    pytest.param(standard_form("parabolic-automorphism", a=2j), BERGMAN, id="bergman-parabolic-aut"),
    pytest.param(standard_form("hyperbolic-na-3", a=0.5, c=0.2), BERGMAN, id="bergman-na-3"),
    pytest.param(standard_form("loxodromic", a=0.5j, c=0.2), BERGMAN, id="bergman-loxodromic"),
    pytest.param(LinearFractionalMap(np.exp(2j * np.pi / 7), 0, 0, 1), FOCK, id="fock-rotation"),
    pytest.param(FOCK_AFFINE, FOCK, id="fock-affine"),
]
# every case at orders 32 and 48; the worst case also at orders 1 and 2,
# which build no product, 3, and 64
ORACLE_ORDERS = [
    pytest.param(*case.values, order, id=f"{case.id}-{order}") for case in ORACLE_CASES for order in (32, 48)
] + [pytest.param(FOCK_AFFINE, FOCK, order, id=f"fock-affine-{order}") for order in (1, 2, 3, 64)]


@pytest.mark.parametrize("phi, space, order", ORACLE_ORDERS)
def test_composition_matches_the_50_digit_oracle(phi, space, order):
    # error relative to each column's largest entry; the Fock affine
    # contraction is the worst case, at 1.3e-14 (order 48) and 3.6e-14
    # (order 64; 6.5e-14 at 96), and every Bergman case and the Fock
    # rotation stay at or below 1.3e-15
    want = oracle.composition_entries(phi, space, order)
    got = composition_matrix(phi, space, order).entries
    assert (np.abs(got - want).max(axis=0) / np.abs(want).max(axis=0)).max() <= 1e-13


def _negative_zeros(a: np.ndarray) -> int:
    parts = np.concatenate([a.real.ravel(), a.imag.ravel()])
    return int(np.count_nonzero((parts == 0) & np.signbit(parts)))


@pytest.mark.parametrize("space", [HARDY, BERGMAN, FOCK])
def test_affine_composition_keeps_its_structural_zeros_exact(space):
    # phi^j has degree j: the truncation is upper triangular, and diagonal
    # for a rotation (the probe's exact route reads that), with every
    # structural zero written as 0.0, never -0.0, in Matrix Market text too
    affine = FOCK_AFFINE if space.kind == "fock" else LinearFractionalMap(0.5, 0.4, 0, 1)
    rotation = composition_matrix(ROTATION7, space, 256).entries
    assert np.array_equal(rotation, np.diag(np.diag(rotation)))
    C = composition_matrix(affine, space, 256).entries
    assert not np.tril(C, -1).any()
    assert _negative_zeros(rotation) == 0 and _negative_zeros(C) == 0
    for phi in (ROTATION7, affine):
        assert "-0.0" not in operator_to_matrix_market(composition_matrix(phi, space, 64)).split()


def _column_error(got: np.ndarray, want: np.ndarray) -> float:
    """Entrywise error relative to each column's largest entry; a column the
    oracle holds at zero must be zero."""
    scale = np.abs(want).max(axis=0)
    assert not got[:, scale == 0].any()
    return (np.abs(got - want).max(axis=0)[scale > 0] / scale[scale > 0]).max(initial=0.0)


# sigma-power is centred at phi's interior fixed point c = 0.8; the Fock
# weight 0.5 shows a misplaced alpha, which alpha = 1 would hide
SIGMA_PHI = LinearFractionalMap(0.5, 0.4, 0, 1)
MULT_WITNESSES = ["mult:binomial,0.5+3i", "mult:cayley,0.3+1i", "mult:exponential,1.0", "mult:monomial,3",
                  "mult:sigma-power,5"]
WITNESS_CASES = [
    pytest.param(text, space, id=f"{space.kind}-{text}")
    for space in (HARDY, BERGMAN, SpaceSpec("fock", alpha=0.5))
    for text in MULT_WITNESSES
] + [
    pytest.param(text, SpaceSpec("fock", alpha=0.5), id=f"fock-{text}")
    for text in ("qdiff:2", "qmult-shifted:1+1i,3")
]


def test_the_oracle_covers_every_multiplier_and_fock_witness():
    # a form added to WITNESSES fails here until the oracle and WITNESS_CASES
    # cover it; identity and shift are exact, and sigma_shift_entries checks
    # sigma-shift
    heads = {_split(form)[0] for form in WITNESSES}
    assert {f"mult:{family}" for family in oracle._MULTIPLIERS} == {h for h in heads if h.startswith("mult:")}
    assert {_split(case.values[0])[0] for case in WITNESS_CASES} == heads - {"identity", "shift", "sigma-shift"}


@pytest.mark.parametrize("order", [32, 64])
@pytest.mark.parametrize("text, space", WITNESS_CASES)
def test_witnesses_match_the_50_digit_oracle(text, space, order):
    # worst 5.4e-14, the Fock exponential at order 64 (its norm ratios);
    # at most 4.4e-16 on Hardy and Bergman and 3.2e-16 for the Fock pair
    want = oracle.witness_entries(text, SIGMA_PHI, space, order)
    assert _column_error(build_witness(text, SIGMA_PHI, space, order).entries, want) <= 1e-13


QUARTER_TURN = LinearFractionalMap(1j, 0, 0, 1)
RESIDUAL_CASES = [
    # exact witnesses whose float products are exact: both residuals are 0
    pytest.param(QUARTER_TURN, FOCK, "shift:1", -1j, 0, 16, id="fock-rotation-shift"),
    pytest.param(QUARTER_TURN, SpaceSpec("fock", alpha=0.5), "mult:monomial,1", 1j, 0, 8, id="fock-rotation-z"),
    pytest.param(LinearFractionalMap(0.5, 0, 0, 1), FOCK, "qdiff:1", 2.0, 0, 8, id="fock-dilation-qdiff"),
    # residuals of 1e-2 and more: a wrong lambda, truncated non-banded witnesses
    pytest.param(ROTATION7, FOCK, "shift:1", np.exp(2j * np.pi / 7), 0, 16, id="fock-rotation-wrong-lambda"),
    pytest.param(standard_form("hyperbolic-automorphism", r=0.5), BERGMAN, "mult:cayley,1i", 3.0**-1j, 2, 8,
                 id="bergman-hyperbolic-cayley"),
    pytest.param(SIGMA_PHI, BERGMAN, "mult:sigma-power,2", 0.25, 0, 8, id="bergman-affine-sigma-power"),
]


@pytest.mark.parametrize("phi, space, text, lam, margin, order", RESIDUAL_CASES)
def test_intertwining_residual_matches_the_50_digit_oracle(phi, space, text, lam, margin, order):
    # the oracle reads the same float entries, so only the residual's own
    # products and SVDs are checked
    A = composition_matrix(phi, space, order)
    X = build_witness(text, phi, space, order)
    want = oracle.intertwining_residual(A.entries, X.entries, lam, margin)
    got = intertwining_residual(A, X, lam, margin)
    if want < 1e-15:
        assert abs(got - want) <= 1e-17
    else:
        assert want >= 1e-2 and abs(got - want) <= 1e-14 * want


def test_composition_homomorphism_on_leading_block():
    # C maps f to f(phi), so composing symbols multiplies matrices in reverse;
    # truncation noise lives near the cut, the leading half-block is clean
    f1 = standard_form("hyperbolic-automorphism", r=0.4)
    f2 = standard_form("loxodromic", a=0.4j, c=0.2)
    n = 32
    lhs = composition_matrix(compose(f1, f2), HARDY, n).entries
    rhs = composition_matrix(f2, HARDY, n).entries @ composition_matrix(f1, HARDY, n).entries
    half = n // 2
    assert np.abs((lhs - rhs)[:half, :half]).max() < 1e-8


def test_composition_rejects_bad_symbols():
    with pytest.raises(DomainError, match="phi is not a self-map of the unit disk"):
        composition_matrix(LinearFractionalMap(2, 0, 0, 1), BERGMAN, 8)
    with pytest.raises(DomainError, match=r"fock composition needs phi = w z \+ b"):
        # disk automorphism, but not an affine expansion-free symbol
        composition_matrix(standard_form("hyperbolic-automorphism", r=0.5), FOCK, 8)


def test_fock_accepts_affine_contraction():
    C = composition_matrix(LinearFractionalMap(0.5, 1, 0, 1), FOCK, 8)
    assert C.order == 8 and C.space == FOCK


# ---------------------------------------------------------------------------
# multiplication matrices


def test_multiplication_by_z_subdiagonal():
    z = np.array([0, 1, 0, 0, 0, 0], dtype=complex)
    sub = np.diag(multiplication_matrix(z, BERGMAN, 6).entries, -1)
    want = [math.sqrt((j + 1) / (j + 2)) for j in range(5)]
    np.testing.assert_allclose(sub, want, rtol=1e-14)
    sub_h = np.diag(multiplication_matrix(z, HARDY, 6).entries, -1)
    np.testing.assert_allclose(sub_h, np.ones(5), rtol=0)


def test_multiplication_is_lower_triangular_and_acts_correctly():
    rng = np.random.default_rng(10)
    b = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    p = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    for sp in (HARDY, BERGMAN, FOCK):
        M = multiplication_matrix(b, sp, 7)
        assert np.allclose(np.triu(M.entries, 1), 0)
        nm = monomial_norms(sp, 7)
        got = M.entries @ (p * nm) / nm
        want = P.polymul(b, p)[:7]
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_multiplication_by_constant_is_scalar():
    b = np.array([2.5 - 1j, 0, 0, 0], dtype=complex)
    M = multiplication_matrix(b, HARDY, 4)
    np.testing.assert_allclose(M.entries, (2.5 - 1j) * np.eye(4), atol=0)


def _multiplication_by_columns(b: np.ndarray, space: SpaceSpec, order: int) -> np.ndarray:
    """M_b one column at a time: entry (i, j) = b_(i-j) ||z^i|| / ||z^j||."""
    nm = monomial_norms(space, order)
    entries = np.zeros((order, order), dtype=np.complex128)
    for j in range(order):
        top = min(order, j + b.size)
        i = np.arange(j, top)
        entries[i, j] = b[: top - j] * nm[i] / nm[j]
    return entries


@pytest.mark.parametrize("space", [HARDY, BERGMAN, SpaceSpec("fock", alpha=0.5), SpaceSpec("fock", alpha=3)],
                         ids=lambda sp: f"{sp.kind}-{sp.alpha:g}")
@pytest.mark.parametrize("order", [8, 64, 256])
def test_multiplication_is_bit_identical_to_the_column_loop(space, order):
    # every bit, the sign of zero included, for symbols shorter and longer
    # than the order, one of them with signed zeros among its coefficients
    rng = np.random.default_rng(order)
    signed = np.array([-0.0 - 0.0j, 1.5 - 0.0j, -0.0 + 2j])
    for size in (1, 3, order // 2, order, 2 * order):
        b = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        for symbol in (b, np.concatenate([signed, b])):
            got = multiplication_matrix(symbol, space, order).entries
            want = _multiplication_by_columns(symbol, space, order)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# ---------------------------------------------------------------------------
# shifts


def test_basis_shift_is_backward():
    X = basis_shift_matrix(2, HARDY, 6)
    np.testing.assert_allclose(X.entries, np.eye(6, k=2), atol=0)
    # z^m goes to z^(m-2), low powers die (hardy coordinates are coefficients)
    z4 = np.eye(6, dtype=complex)[4]
    np.testing.assert_allclose(X.entries @ z4, np.eye(6, dtype=complex)[2], atol=0)
    z1 = np.eye(6, dtype=complex)[1]
    np.testing.assert_allclose(X.entries @ z1, np.zeros(6), atol=0)


def test_basis_shift_range_checks():
    with pytest.raises(DomainError, match="need 1 <= k < order, got k=0, order=6"):
        basis_shift_matrix(0, HARDY, 6)
    with pytest.raises(DomainError, match="need 1 <= k < order, got k=6, order=6"):
        basis_shift_matrix(6, HARDY, 6)


def test_rotation_shift_intertwining_is_exact():
    # with C the rotation matrix and X the backward 2-shift,
    # C X = w^(-2) X C holds entry by entry at machine precision
    w = np.exp(0.7j)
    C = composition_matrix(LinearFractionalMap(w, 0, 0, 1), HARDY, 32)
    X = basis_shift_matrix(2, HARDY, 32)
    R = C.entries @ X.entries - w ** (-2.0) * X.entries @ C.entries
    assert np.abs(R).max() <= 5e-15
    assert intertwining_residual(C, X, w ** (-2.0)) <= 5e-15


def test_sigma_shift_at_zero_center_reduces_to_basis_shift():
    # it maps z^m to z^(m-k) as a series operation; in the coordinate basis
    # that is the plain backward shift on hardy and an nm-weighted one else
    S = sigma_shift_matrix(0.0, 3, HARDY, 8)
    np.testing.assert_allclose(
        S.entries, basis_shift_matrix(3, HARDY, 8).entries, atol=1e-14
    )
    nm = monomial_norms(BERGMAN, 8)
    want = np.zeros((8, 8))
    for i in range(5):
        want[i, i + 3] = nm[i] / nm[i + 3]
    np.testing.assert_allclose(
        sigma_shift_matrix(0.0, 3, BERGMAN, 8).entries, want, atol=1e-14
    )


def test_sigma_shift_steps_down_the_sigma_powers():
    # coefficients of (z-c)^3 map to coefficients of (z-c)^2
    c, order = 0.3, 8
    S = sigma_shift_matrix(c, 1, BERGMAN, order)
    p = np.zeros(order, dtype=complex)
    p[:4] = P.polypow([-c, 1.0], 3)
    nm = monomial_norms(BERGMAN, order)
    q = S.entries @ (p * nm) / nm
    want = np.zeros(order, dtype=complex)
    want[:3] = P.polypow([-c, 1.0], 2)
    np.testing.assert_allclose(q, want, atol=1e-12)


@pytest.mark.parametrize("space", [HARDY, BERGMAN, SpaceSpec("fock", alpha=0.5)], ids=lambda sp: sp.kind)
@pytest.mark.parametrize("c", [0.3, -0.3j, 0.2 - 0.2j, 0.0])
def test_sigma_shift_matches_the_50_digit_oracle_where_it_is_accurate(space, c):
    # the change of basis W S W^-1 cancels terms of size (1 + |c|)^order, so
    # the builder is checked only at order <= 24 and |c| <= 0.3; worst
    # 1.0e-12, Bergman with c = -0.3i at order 24 (at order 48 it reads
    # 1.6e-8 for c = 0.3, and 3.9 for c = 0.7)
    for k in (1, 2, 3):
        for order in (16, 24):
            want = oracle.sigma_shift_entries(c, k, space, order)
            assert _column_error(sigma_shift_matrix(c, k, space, order).entries, want) <= 1.5e-12


def _sigma_shift_entry_by_entry(c: complex, k: int, space: SpaceSpec, order: int) -> np.ndarray:
    # the builder as first written: W and W^-1 one entry at a time from
    # math.comb and Python's complex powers, then W @ X_k @ W^-1
    n = order
    W = np.zeros((n, n), dtype=np.complex128)
    Winv = np.zeros((n, n), dtype=np.complex128)
    for j in range(n):
        for m in range(j + 1):
            W[m, j] = math.comb(j, m) * (-c) ** (j - m)
            Winv[m, j] = math.comb(j, m) * c ** (j - m)
    shift = np.eye(n, k=k, dtype=np.complex128)
    on_coeffs = W @ shift @ Winv
    nm = monomial_norms(space, n)
    return (nm[:, None] * on_coeffs) / nm[None, :]


# +0.0 and -0.0 parts, |c| up to 0.95, and c = 0
_SIGMA_CENTERS = [
    complex(0.3, 0.0), complex(0.3, -0.0), complex(-0.0, 0.6), complex(0.0, -0.6),
    complex(-0.7, -0.0), 0.95 * np.exp(2.1j), 0.6 + 0.2j, complex(-0.0, -0.0),
]


@pytest.mark.parametrize("space", [HARDY, BERGMAN, SpaceSpec("fock", alpha=0.5)], ids=lambda sp: sp.kind)
@pytest.mark.parametrize("order", [2, 24, 64, 130])
def test_sigma_shift_is_bit_identical_to_the_entry_by_entry_build(space, order):
    # orders past j = 57 (binomials above 2^53, rounded from exact integers)
    # and past exponent 100 (where CPython's complex power turns polar);
    # compared as bit patterns, so signed zeros count
    for c in _SIGMA_CENTERS:
        for k in sorted({1, 2, order - 1} & set(range(1, order))):
            got = sigma_shift_matrix(c, k, space, order).entries
            want = _sigma_shift_entry_by_entry(complex(c), k, space, order)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (c, k)


def test_sigma_shift_is_bit_identical_on_random_draws():
    rng = np.random.default_rng(22)
    spaces = [HARDY, BERGMAN, FOCK]
    for draw in range(30):
        order = int(rng.integers(2, 140))
        c = complex(rng.uniform(0, 0.95) * np.exp(2j * np.pi * rng.uniform()))
        c = [c, complex(c.real, -0.0), complex(-0.0, c.imag)][draw % 3]
        k = int(rng.integers(1, order))
        space = spaces[draw % 3]
        got = sigma_shift_matrix(c, k, space, order).entries
        want = _sigma_shift_entry_by_entry(c, k, space, order)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (space, order, c, k)


def test_sigma_shift_calls_math_comb_only_for_the_order_guard(monkeypatch):
    # the binomials come from one Pascal table, not one math.comb per entry
    calls = []
    comb = math.comb

    def counting(*args):
        calls.append(args)
        return comb(*args)

    monkeypatch.setattr(math, "comb", counting)
    sigma_shift_matrix(0.6 + 0.2j, 3, BERGMAN, 256)
    assert len(calls) <= 1


def test_sigma_shift_center_must_be_inside():
    with pytest.raises(DomainError, match=r"\|c\| = 1.0 must be < 1"):
        sigma_shift_matrix(1.0, 1, BERGMAN, 6)


def test_sigma_shift_binomials_past_the_float_range_are_refused_at_once():
    # C(1030, 515) > 1.8e308: refused before the O(order^2) basis change
    start = time.perf_counter()
    with pytest.raises(DomainError, match="leave the float range at order 1031"):
        sigma_shift_matrix(0.5, 1, BERGMAN, 1031)
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# quasi derivative / multiplication pair


def test_quasi_pair_entries_and_commutator():
    D = quasi_diff_matrix(FOCK, 6)
    X = quasi_mult_matrix(FOCK, 6)
    np.testing.assert_allclose(
        np.diag(D.entries, 1), [math.sqrt(n) / 2j for n in range(1, 6)], atol=1e-15
    )
    np.testing.assert_allclose(
        np.diag(X.entries, -1), [math.sqrt(n + 1) for n in range(5)], atol=1e-15
    )
    # canonical commutation on the leading block: [D, X] = I/(2i)
    comm = D.entries @ X.entries - X.entries @ D.entries
    np.testing.assert_allclose(np.diag(comm)[:5], [-0.5j] * 5, atol=1e-14)


def test_quasi_pair_scaling_with_alpha():
    alpha = 2.0
    sp = SpaceSpec("fock", alpha=alpha)
    D = quasi_diff_matrix(sp, 5)
    X = quasi_mult_matrix(sp, 5)
    np.testing.assert_allclose(
        np.diag(D.entries, 1),
        [math.sqrt(n * alpha) / (2 * alpha * 1j) for n in range(1, 5)],
        atol=1e-15,
    )
    np.testing.assert_allclose(
        np.diag(X.entries, -1), [math.sqrt((n + 1) / alpha) for n in range(4)],
        atol=1e-15,
    )


def test_quasi_pair_requires_fock():
    with pytest.raises(DomainError, match="quasi_diff_matrix only acts on a fock space"):
        quasi_diff_matrix(HARDY, 6)
    with pytest.raises(DomainError, match="quasi_mult_matrix only acts on a fock space"):
        quasi_mult_matrix(BERGMAN, 6)
    with pytest.raises(DomainError, match="quasi_mult_matrix only acts on a fock space"):
        shifted_quasi_mult(HARDY, 0.5, 6)


def test_shifted_quasi_mult_is_a_shift_of_the_pair():
    tau = 0.7 - 0.2j
    X = quasi_mult_matrix(FOCK, 6)
    Xs = shifted_quasi_mult(FOCK, tau, 6)
    np.testing.assert_allclose(Xs.entries, X.entries - tau * np.eye(6), atol=0)


def test_quasi_diff_intertwines_rotation():
    w = np.exp(2j * np.pi / 7)
    C = composition_matrix(LinearFractionalMap(w, 0, 0, 1), FOCK, 24)
    D = quasi_diff_matrix(FOCK, 24)
    assert intertwining_residual(C, D, 1 / w, margin=1) < 1e-12


# ---------------------------------------------------------------------------
# generic matrix algebra


def test_adjoint_conjugates_the_spectrum():
    f = standard_form("loxodromic", a=0.5j, c=0.2)
    C = composition_matrix(f, BERGMAN, 10)
    np.testing.assert_allclose(adjoint(C).entries, C.entries.conj().T, atol=0)
    mu = np.sort_complex(np.linalg.eigvals(C.entries))
    nu = np.sort_complex(np.conj(np.linalg.eigvals(adjoint(C).entries)))
    np.testing.assert_allclose(mu, nu, atol=1e-10)


def test_matrix_power_matches_repeated_product():
    f = standard_form("hyperbolic-na-1", r=0.5)
    C = composition_matrix(f, HARDY, 8)
    P3 = matrix_power(C, 3)
    np.testing.assert_allclose(
        P3.entries, C.entries @ (C.entries @ C.entries), atol=1e-13
    )
    np.testing.assert_allclose(matrix_power(C, 0).entries, np.eye(8), atol=0)


def test_direct_sum_stacks_spectra():
    A = composition_matrix(LinearFractionalMap(1j, 0, 0, 1), HARDY, 4)
    B = composition_matrix(standard_form("hyperbolic-na-1", r=0.5), HARDY, 4)
    S = direct_sum(A, B)
    assert S.order == 8
    got = np.sort_complex(np.linalg.eigvals(S.entries))
    want = np.sort_complex(
        np.concatenate(
            [np.linalg.eigvals(A.entries), np.linalg.eigvals(B.entries)]
        )
    )
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_direct_sum_requires_matching_space():
    A = composition_matrix(LinearFractionalMap(1j, 0, 0, 1), HARDY, 4)
    B = composition_matrix(LinearFractionalMap(1j, 0, 0, 1), BERGMAN, 4)
    with pytest.raises(DomainError, match=r"spaces SpaceSpec\(kind='hardy'.* and SpaceSpec\(kind='bergman'.* differ"):
        direct_sum(A, B)


def test_op_norm_is_largest_singular_value():
    rng = np.random.default_rng(12)
    M = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    A = OperatorMatrix(HARDY, 7, M, "random")
    assert op_norm(A) == pytest.approx(np.linalg.svd(M, compute_uv=False)[0])


def test_operator_matrix_owns_its_entries():
    # series and builder arrays stay writable; the matrix copies and freezes
    # its entries, so neither they nor the cached spectra can change later
    rng = np.random.default_rng(13)
    M = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    want = M.copy()
    A = OperatorMatrix(HARDY, 6, M, "random")
    M[:] = 0
    np.testing.assert_array_equal(A.entries, want)
    np.testing.assert_array_equal(A.svdvals, np.linalg.svd(want, compute_uv=False))
    with pytest.raises(ValueError):
        A.entries[0, 0] = 1.0
    b = binomial_power(0.5, 6)
    B = multiplication_matrix(b, BERGMAN, 6)
    b[:] = 0
    assert np.count_nonzero(np.tril(B.entries)) == 21


# ---------------------------------------------------------------------------
# monomial truncations: singular values and eigenvalues read off the entries


def _permuted_diagonal(seed: int, n: int) -> np.ndarray:
    """P D: a random permutation times a random complex diagonal with zeros
    and repeated moduli, its first column's entry nonzero."""
    rng = np.random.default_rng(seed)
    d = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 10.0 ** rng.integers(-3, 4, n)
    d[rng.random(n) < 0.2] = 0
    repeat = rng.random(n) < 0.3
    d[repeat] = np.abs(d[0]) * np.exp(2j * np.pi * rng.random(np.count_nonzero(repeat)))
    d[0] = d[0] or 1.0
    return np.eye(n)[:, rng.permutation(n)] * d[None, :]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 64))
def test_monomial_svdvals_match_lapack(seed, n):
    a = _permuted_diagonal(seed, n)
    A = OperatorMatrix(HARDY, n, a)
    assert A.monomial is not None
    want = np.linalg.svd(a, compute_uv=False)
    got = A.svdvals
    assert not got.flags.writeable
    assert np.all(got[:-1] >= got[1:])
    assert np.abs(got - want).max() <= 4 * np.finfo(float).eps * want[0]
    assert op_norm(A) == got[0]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 32), spoil=st.sampled_from(["off-pattern", "nan", "inf"]))
def test_spoiled_monomial_matrices_take_lapack(seed, n, spoil):
    # one more nonzero in an occupied column, or a non-finite entry anywhere:
    # the result is LAPACK's, or LAPACK's error
    a = _permuted_diagonal(seed, n)
    rng = np.random.default_rng(seed)
    if spoil == "off-pattern":
        row = np.flatnonzero(a[:, 0])[0]
        a[(row + 1 + rng.integers(n - 1)) % n, 0] = 0.5 - 0.25j
    else:
        a[rng.integers(n), rng.integers(n)] = complex(spoil)
    assert monomial_support(a) is None
    A = OperatorMatrix(HARDY, n, a)
    try:
        want = np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        with pytest.raises(type(exc)):
            A.svdvals
    else:
        assert np.array_equal(A.svdvals, want, equal_nan=True)


def test_monomial_support_positions():
    a = np.zeros((4, 4), dtype=complex)
    assert [x.tolist() for x in monomial_support(a)] == [[], []]
    a[2, 0], a[0, 3] = 1j, -2.0
    assert [x.tolist() for x in monomial_support(a)] == [[0, 2], [3, 0]]
    a[3, 0] = 1.0  # a second nonzero in column 0
    assert monomial_support(a) is None
    assert monomial_support(np.ones((4, 4))) is None


def _scipy_eig_route(A: OperatorMatrix):
    """(eigenvalues, error estimates) by the general route: scipy's left and
    right eigenvectors, err = eps ||A|| / rcond."""
    w, vl, vr = scipy.linalg.eig(A.entries, left=True, right=True)
    overlap = np.abs(np.einsum("ij,ij->j", vl.conj(), vr))
    norms = np.linalg.norm(vl, axis=0) * np.linalg.norm(vr, axis=0)
    rcond = overlap / np.where(norms == 0, 1.0, norms)
    eps = np.finfo(float).eps
    return w, np.where(rcond > 0, eps * A.svdvals[0] / np.where(rcond == 0, 1.0, rcond), np.inf)


@pytest.mark.parametrize("order", [16, 64, 256])
@pytest.mark.parametrize("space", [HARDY, BERGMAN, FOCK], ids=lambda sp: sp.kind)
def test_rotation_eig_reliability_is_the_scipy_route_bit_for_bit(space, order):
    for w in (np.exp(2j * np.pi / 7), np.exp(2j), -1.0):
        A = composition_matrix(LinearFractionalMap(w, 0, 0, 1), space, order)
        assert A.is_diagonal
        got, want = A.eig_reliability, _scipy_eig_route(A)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("space", [HARDY, BERGMAN, FOCK], ids=lambda sp: sp.kind)
def test_rotation_shift_residual_reads_no_svd(space, monkeypatch):
    # every norm of a rotation/shift residual is read off monomial entries;
    # it matches the dense-SVD reading of the same matrices and block
    w = np.exp(0.7j)
    phi = LinearFractionalMap(w, 0, 0, 1)
    order, margin = 48, 4

    def norm(m):
        return np.linalg.svd(m, compute_uv=False)[0]

    for lam in (w**-2, 1.1 * w**-2, 0.3 - 2j):
        A = composition_matrix(phi, space, order)
        X = build_witness("shift:2", phi, space, order)
        R = A.entries @ X.entries - lam * (X.entries @ A.entries)
        want = norm(R[: order - margin, : order - margin]) / (norm(A.entries) * norm(X.entries))
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "svd", None)
            got = intertwining_residual(A, X, lam, margin)
        assert abs(got - want) <= 4 * np.finfo(float).eps * max(want, 1e-16)


def test_matmul_requires_matching_shapes():
    A = composition_matrix(LinearFractionalMap(1j, 0, 0, 1), HARDY, 4)
    B = composition_matrix(LinearFractionalMap(1j, 0, 0, 1), HARDY, 6)
    with pytest.raises(DomainError, match="orders 4 and 6 differ"):
        matmul(A, B)


# ---------------------------------------------------------------------------
# dense truncations: LAPACK's SVD on a copy lifted by an exact power of two


def _graded_inputs():
    """Graded pool truncations at N = 256, whose entries fall by hundreds of
    decades, as pytest params: a Fock C_{wz+b} with its qmult-shifted
    witness's residual block, and a Bergman hyperbolic-na-3 C with its
    sigma-power witness's."""
    cases = [
        ("fock-qmult-shifted", LinearFractionalMap(0.5134245814149371 + 0.07549246468288481j,
                                                   0.525573 + 0.927267j, 0, 1),
         FOCK, "qmult-shifted:0.7660366772497926+2.0245515066660937i,1", 0.5134245814149371 + 0.07549246468288481j, 1),
        ("bergman-hyperbolic-na-3", LinearFractionalMap(0.448424, -0.04859912123455994 - 0.13097748250025606j, 0, 1),
         BERGMAN, "mult:sigma-power,3", 0.09017092918316902, 3),
    ]
    for name, phi, space, witness, lam, margin in cases:
        C = composition_matrix(phi, space, 256)
        X = build_witness(witness, phi, space, 256)
        R = C.entries @ X.entries - lam * (X.entries @ C.entries)
        yield pytest.param(C.entries, id=f"{name}-C")
        # a strided view, as intertwining_residual's block is
        yield pytest.param(R[: 256 - margin, : 256 - margin], id=f"{name}-block")


def _lapack(a):
    return np.linalg.svd(a, compute_uv=False)


@pytest.mark.parametrize("a", list(_graded_inputs()))
def test_lifted_svd_is_lapack_bit_for_bit_on_graded_truncations(a):
    assert np.abs(a[a != 0]).min() < 1e-100 * np.abs(a).max()  # graded
    assert np.array_equal(singular_values(a, None), _lapack(a))


@pytest.mark.parametrize("scale", [1e-300, 2.0**470, 1e-310], ids=["1e-300", "2^470", "subnormal"])
def test_lifted_svd_agrees_with_lapack_at_any_scale(scale):
    # below 2^-459 and above 2^459 xGESDD rescales the input itself; a
    # subnormal largest entry needs a lift by more than 2^1023
    rng = np.random.default_rng(7)
    a = (rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))) * scale
    got, want = singular_values(a, None), _lapack(a)
    assert np.abs(got - want).max() <= 8 * np.finfo(float).eps * want[0]


@pytest.mark.filterwarnings("error")
def test_lifted_svd_of_zero_and_non_finite_input_is_lapacks():
    z = np.zeros((6, 6), dtype=complex)
    assert np.array_equal(singular_values(z, None), np.zeros(6))
    rng = np.random.default_rng(8)
    for bad in (math.nan, math.inf, -math.inf, complex(0, math.inf), complex(math.nan, 1)):
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        a[2, 3] = bad
        try:
            want = _lapack(a)
        except np.linalg.LinAlgError as exc:
            with pytest.raises(type(exc)):
                singular_values(a, None)
        else:
            assert np.array_equal(singular_values(a, None), want, equal_nan=True)


def test_lapack_receives_a_lifted_copy(monkeypatch):
    # white box: every finite dense input reaches LAPACK with its largest
    # entry in [2^449, 2^459), inside the range xGESDD leaves unscaled
    seen, svd = [], np.linalg.svd

    def spy(a, *args, **kwargs):
        seen.append(np.abs(a).max())
        return svd(a, *args, **kwargs)

    rng = np.random.default_rng(9)
    inputs = [param.values[0] for param in _graded_inputs()]
    inputs += [(rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))) * s for s in (1e-310, 1e-300, 1.0)]
    monkeypatch.setattr(np.linalg, "svd", spy)
    for a in inputs:
        singular_values(a, None)
    assert len(seen) == len(inputs)
    assert all(2.0**449 <= peak < 2.0**459 for peak in seen)


# ---------------------------------------------------------------------------
# serialization


def test_matrix_market_format():
    A = composition_matrix(LinearFractionalMap(1j, 0, 0, 1), BERGMAN, 4)
    text = operator_to_matrix_market(A)
    lines = text.splitlines()
    assert lines[0] == "%%MatrixMarket matrix coordinate complex general"
    assert lines[2] == "4 4 16"
    assert lines[3] == "1 1 1.0 0.0"
    assert len(lines) == 3 + 16
    # no numpy scalar reprs may leak into the text form
    assert "np.float" not in text
