"""Finite truncations of the operators under study, as dense matrices.

Every factory returns an OperatorMatrix: the order-N compression of an
operator A to the span of the first N orthonormal basis vectors of the
chosen space, with entries[i, j] = <A e_j, e_i>.  Columns are images of
basis vectors, so matrices act on coordinate vectors from the left.

Factories:
    composition_matrix    C_phi f = f o phi     (phi linear fractional)
    multiplication_matrix M_b f = b f           (b a polynomial symbol)
    basis_shift_matrix    X_k e_n = e_{n-k}     (monomial backward shift)
    sigma_shift_matrix    backward shift of sigma-powers, sigma = (z-c)/1
    quasi_diff_matrix     D f = f'/(2 alpha i)          (Fock)
    quasi_mult_matrix     X f = z f                     (Fock)
    shifted_quasi_mult    X - tau I                     (Fock)

The Fock pair satisfies [D*, D] like annihilation/creation up to the
1/(2 alpha i) twist; its commutation with C_{wz+b} is what the extended
eigenvalue tests exercise.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .lft import DomainError, LinearFractionalMap, is_fock_symbol, is_self_map_of_disk
from .series import lft_taylor
from .spaces import SpaceSpec, monomial_norms


@dataclass(frozen=True)
class OperatorMatrix:
    space: SpaceSpec
    order: int
    entries: np.ndarray = field(repr=False)
    label: str = ""

    def __post_init__(self):
        arr = np.array(self.entries, dtype=np.complex128)
        if arr.shape != (self.order, self.order):
            raise DomainError(
                f"entries shape {arr.shape} does not match order {self.order}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @cached_property
    def monomial(self) -> tuple[np.ndarray, np.ndarray] | None:
        """monomial_support(entries), computed once per truncation."""
        return monomial_support(self.entries)

    @property
    def is_diagonal(self) -> bool:
        """Monomial with every nonzero on the diagonal (a rotation's truncation,
        the identity, a zero matrix)."""
        return self.monomial is not None and np.array_equal(*self.monomial)

    @cached_property
    def svdvals(self) -> np.ndarray:
        """Singular values in descending order, computed once per truncation
        (the entries are read-only, so the cache cannot go stale).  A monomial
        truncation (see monomial_support: a rotation's C, the shift:k,
        mult:monomial, qdiff:k and identity witnesses) reads them off its
        entries; every other one takes LAPACK's SVD of a copy lifted by an
        exact power of two, which keeps a graded truncation out of subnormal
        arithmetic (see singular_values)."""
        sv = singular_values(self.entries, self.monomial)
        sv.flags.writeable = False
        return sv

    @cached_property
    def eig_reliability(self) -> tuple:
        """(eigenvalues, forward-error estimates), computed once per
        truncation by _eig_with_reliability and read-only, like svdvals."""
        w, err = _eig_with_reliability(self)
        w.flags.writeable = False
        err.flags.writeable = False
        return w, err

    def relabel(self, label: str) -> "OperatorMatrix":
        return replace(self, label=label)


def monomial_support(a: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(rows, cols) of the nonzero entries of a, in row order, when a is
    monomial -- each row and each column holds at most one nonzero -- and
    every entry is finite; None otherwise.

    The nonzeros are counted first, so a matrix with more of them than rows
    or columns (every dense truncation) pays only that count.  Monomial
    matrices here are the rotations' truncations (diagonal) and the
    shift:k, mult:monomial, qdiff:k and identity witnesses.
    """
    if np.count_nonzero(a) > min(a.shape):
        return None
    rows, cols = np.nonzero(a)  # rows come sorted; np.unique would import numpy.ma
    sorted_cols = np.sort(cols)
    repeated = (rows[1:] == rows[:-1]).any() or (sorted_cols[1:] == sorted_cols[:-1]).any()
    return None if repeated or not np.isfinite(a[rows, cols]).all() else (rows, cols)


_LIFT = 450  # binary exponent a dense SVD input is lifted to, below LAPACK's 2^459


def singular_values(a: np.ndarray, support: tuple[np.ndarray, np.ndarray] | None) -> np.ndarray:
    """Singular values of a in descending order, given support =
    monomial_support(a).  A monomial a has orthogonal columns, each with at
    most one nonzero, so its singular values are the moduli of its nonzeros
    (its column maxima) and zeros; every other a takes LAPACK's SVD.

    That SVD runs on a lifted copy, 2^k a, and its values are scaled back by
    2^-k, both exactly (np.ldexp on the real and imaginary parts).  k brings
    the largest part to [2^449, 2^450), just inside the range that xGESDD
    leaves unscaled (it rescales a largest entry outside [2^-459, 2^459]
    itself), and is 0 when that part is already at or above 2^449.  Graded
    truncations (a Fock C_{wz+b}, a Bergman affine contraction, their
    residual blocks) hold entries hundreds of decades below their largest,
    and the lift keeps LAPACK's reduction of them out of subnormal
    arithmetic, which costs several times a normal one.  A zero or
    non-finite a goes to LAPACK as it is, so its values, or LAPACK's error,
    are unchanged."""
    if support is None:
        lifted = np.array(a, order="C")  # a copy, whatever a's strides
        parts = lifted.view(lifted.real.dtype)  # the real and imaginary parts
        peak = max(parts.max(initial=0.0), -parts.min(initial=0.0))  # nan or inf if an entry is
        k = _LIFT - math.frexp(peak)[1] if 0 < peak < math.inf else 0
        if k <= 0:
            return np.linalg.svd(a, compute_uv=False)
        np.ldexp(parts, k, out=parts)
        return np.ldexp(np.linalg.svd(lifted, compute_uv=False), -k)
    sv = np.zeros(min(a.shape))
    sv[: support[0].size] = np.sort(np.abs(a[support]))[::-1]
    return sv


def _eig_with_reliability(A: OperatorMatrix):
    """Eigenvalues plus a forward-error estimate for each one.

    err_j ~ eps ||A|| / rcond_j, where rcond_j = |y^H x| / (||x|| ||y||) is the
    reciprocal condition number from the left/right eigenvector pair.  This is
    the standard first-order perturbation bound; for severely nonnormal
    truncations the unreliable eigenvalues show err far above |mu|.
    A diagonal A (A.is_diagonal) has its diagonal as eigenvalues and unit
    vectors as eigenvector pairs, rcond_j = 1, so it is read off directly:
    LAPACK returns the same values, in the same order.
    Read it through OperatorMatrix.eig_reliability, which computes it once.
    scipy.linalg is imported here, not with the package: most commands never
    need it, and it costs more than the rest of the import together.
    """
    eps = np.finfo(float).eps
    if A.is_diagonal:
        return np.diag(A.entries).copy(), np.full(A.order, eps * A.svdvals[0])
    import scipy.linalg

    w, vl, vr = scipy.linalg.eig(A.entries, left=True, right=True)
    overlap = np.abs(np.einsum("ij,ij->j", vl.conj(), vr))
    norms = np.linalg.norm(vl, axis=0) * np.linalg.norm(vr, axis=0)
    rcond = overlap / np.where(norms == 0, 1.0, norms)
    err = np.where(rcond > 0, eps * A.svdvals[0] / np.where(rcond == 0, 1.0, rcond), np.inf)
    return w, err


def _check_compatible(A: OperatorMatrix, B: OperatorMatrix):
    if A.order != B.order:
        raise DomainError(f"orders {A.order} and {B.order} differ")
    if A.space != B.space:
        raise DomainError(f"spaces {A.space} and {B.space} differ")


def matmul(A: OperatorMatrix, B: OperatorMatrix) -> OperatorMatrix:
    _check_compatible(A, B)
    label = f"({A.label})({B.label})" if A.label and B.label else ""
    return OperatorMatrix(A.space, A.order, A.entries @ B.entries, label)


def adjoint(A: OperatorMatrix) -> OperatorMatrix:
    label = f"adj({A.label})" if A.label else ""
    return OperatorMatrix(A.space, A.order, A.entries.conj().T, label)


def matrix_power(A: OperatorMatrix, k: int) -> OperatorMatrix:
    if k < 0:
        raise DomainError(f"need a nonnegative power, got {k}")
    label = f"({A.label})^{k}" if A.label else ""
    return OperatorMatrix(A.space, A.order, np.linalg.matrix_power(A.entries, k), label)


def direct_sum(A: OperatorMatrix, B: OperatorMatrix) -> OperatorMatrix:
    """Block-diagonal sum.  Both blocks must live on the same space kind;
    the result's order is the sum of the orders."""
    if A.space != B.space:
        raise DomainError(f"spaces {A.space} and {B.space} differ")
    n, m = A.order, B.order
    out = np.zeros((n + m, n + m), dtype=np.complex128)
    out[:n, :n] = A.entries
    out[n:, n:] = B.entries
    label = f"{A.label}(+){B.label}" if A.label and B.label else ""
    return OperatorMatrix(A.space, n + m, out, label)


def op_norm(A: OperatorMatrix) -> float:
    """Largest singular value of the truncation, A.svdvals[0]: the largest
    modulus of its entries when A is monomial (monomial_support), else
    LAPACK's, on a copy of A lifted by an exact 2^k and scaled back
    (singular_values), so that the SVD of a graded truncation stays out of
    subnormal arithmetic."""
    return float(A.svdvals[0])


# ---------------------------------------------------------------------------
# factories


def _toeplitz(v: np.ndarray, order: int) -> np.ndarray:
    """The order x order lower-triangular Toeplitz matrix of v, T[i, j] =
    v[i - j] for 0 <= i - j < v.size and 0 elsewhere, as a read-only view of
    one zero-padded copy of v."""
    m = min(v.size, order)
    padded = np.zeros(2 * order - 1, dtype=v.dtype)
    padded[order - m : order] = v[:m][::-1]
    return sliding_window_view(padded, order)[::-1]


_ROW_BLOCK = 64  # rows per product, so that each skips its block's zeros of T


def _powers(t: np.ndarray, order: int, affine: bool) -> np.ndarray:
    """The order x order array whose column j holds the Taylor coefficients
    of phi^j, phi's own being t.

    Built by doubling: once phi^0 .. phi^(k-1) are known, phi^k .. phi^(2k-2)
    are phi^(k-1) phi^m for m = 1 .. k-1, one product of the lower-triangular
    Toeplitz matrix T of phi^(k-1) with those columns, about log2(order)
    products in all, each in one reused workspace.  Each product is taken in
    blocks of rows, each block against the columns of T up to its diagonal
    only; for affine phi phi^m has degree m, so the zero rows of the
    right-hand block and of the result are skipped too.
    """
    powers = np.zeros((order, order), dtype=np.complex128)
    powers[0, 0] = 1.0
    if order > 1:
        powers[:, 1] = t
    work = np.empty((order, order), dtype=np.complex128)
    k = 2
    while k < order:
        cols = min(k - 1, order - k)
        # nonzero rows: of phi^1 .. phi^(k-1), and of the new columns
        depth, rows = (k, min(2 * k - 1, order)) if affine else (order, order)
        T = work[:rows, :depth]
        np.copyto(T, _toeplitz(powers[:, k - 1], order)[:rows, :depth])
        for r0 in range(0, rows, _ROW_BLOCK):
            r1 = min(r0 + _ROW_BLOCK, rows)
            inner = min(r1, depth)
            powers[r0:r1, k : k + cols] = T[r0:r1, :inner] @ powers[:inner, 1 : 1 + cols]
        k += cols
    return powers


def composition_matrix(phi: LinearFractionalMap, space: SpaceSpec, order: int) -> OperatorMatrix:
    """Truncation of C_phi: column j holds the coordinates of phi^j / ||z^j||,
    the coefficients of the powers from _powers (Toeplitz doubling) scaled by
    the norm ratios ||z^i|| / ||z^j|| as one array.

    Admissibility: a self-map of the disk for hardy/bergman, an affine
    contraction (or rotation) for fock.  For phi(z) = w z the matrix is
    exactly diagonal, and for any affine phi exactly upper triangular, its
    zeros written as 0.0.  Raises DomainError when an entry leaves the float
    range (a Fock translation b whose powers b^j outgrow the norm ratios
    ||z^j||, say).
    """
    if space.kind == "fock":
        if not is_fock_symbol(phi):
            raise DomainError(
                "fock composition needs phi = w z + b with |w| < 1, or |w| = 1, b = 0"
            )
    else:
        if not is_self_map_of_disk(phi):
            raise DomainError("phi is not a self-map of the unit disk")
    t = lft_taylor(phi, order)
    nm = monomial_norms(space, order)
    with np.errstate(over="ignore", invalid="ignore"):  # reported by the check below
        entries = _powers(t, order, phi.c == 0)
        entries *= nm[:, None]
        entries /= nm[None, :]
    if not np.isfinite(entries).all():
        raise DomainError(
            f"entries of C_phi leave the float range on {space.kind} space "
            f"at alpha = {space.alpha:g}, order {order}"
        )
    return OperatorMatrix(space, order, entries, label=f"C[{phi}]")


def multiplication_matrix(b: np.ndarray, space: SpaceSpec, order: int) -> OperatorMatrix:
    """Truncation of M_b for a polynomial symbol b, given as its coefficient
    array (coefficients past its end are treated as zero).

    Lower triangular: entry (i, j) = b_{i-j} ||z^i|| / ||z^j|| for i >= j.
    """
    nm = monomial_norms(space, order)
    entries = _toeplitz(b, order) * nm[:, None]
    entries /= nm[None, :]
    return OperatorMatrix(space, order, entries, label="M[poly]")


def basis_shift_matrix(k: int, space: SpaceSpec, order: int) -> OperatorMatrix:
    """X_k: e_n -> e_{n-k} for n >= k, annihilating e_0..e_{k-1}."""
    if not 1 <= k < order:
        raise DomainError(f"need 1 <= k < order, got k={k}, order={order}")
    entries = np.eye(order, k=k, dtype=np.complex128)
    return OperatorMatrix(space, order, entries, label=f"X_{k}")


def _binomials(order: int) -> np.ndarray:
    """The order x order table F[m, j] = C(j, m) for m <= j, 0 below the
    diagonal, each entry the correctly rounded float of the exact integer.

    Pascal's rule runs on exact Python integers in one object buffer, a row
    at a time, and each row is rounded into its column of F as soon as it
    is made, so no table of integers is kept.
    """
    F = np.zeros((order, order))
    F[0, 0] = 1.0
    row = np.zeros(order, dtype=object)
    row[0] = 1
    for j in range(1, order):
        np.add(row[1 : j + 1], row[:j], out=row[1 : j + 1])
        F[: j + 1, j] = row[: j + 1]
    return F


def sigma_shift_matrix(c: complex, k: int, space: SpaceSpec, order: int) -> OperatorMatrix:
    """Backward shift of sigma-powers, sigma(z) = z - c with |c| < 1:
    sigma^n -> sigma^{n-k} for n >= k, sigma^n -> 0 for n < k.

    Built by conjugating the plain backward shift with the unitriangular
    change of basis between monomials and sigma-powers, W[m, j] =
    C(j, m) (-c)^(j-m) and W^-1[m, j] = C(j, m) c^(j-m): one binomial table
    (_binomials) times the upper Toeplitz matrices of two power vectors,
    (-c)^e and c^e.  W's columns moved k places right stand for W X_k, and
    one product with W^-1 remains.  With c = 0 it reduces to
    basis_shift_matrix up to the norm weights on monomials.

    The entries cancel from terms of size (1 + |c|)^order.  On Bergman with
    k = 1 the error relative to each column's largest entry is 2.8e-13 at
    order 24 and 1.6e-8 at order 48 for c = 0.3, and 3.8 at order 48 for
    c = 0.7.  The closed form of ROADMAP item 2(a) replaces this
    construction.  The binomials C(j, m), j < order, leave the float range
    from order 1031 on, which is a DomainError.
    """
    c = complex(c)
    if abs(c) >= 1.0:
        raise DomainError(f"|c| = {abs(c)} must be < 1")
    if not 1 <= k < order:
        raise DomainError(f"need 1 <= k < order, got k={k}, order={order}")
    n = order
    if math.comb(n - 1, (n - 1) // 2) > sys.float_info.max:
        raise DomainError(f"binomial coefficients of (z - c)^j leave the float range at order {n}")
    F = _binomials(n)
    # CPython's own powers (repeated squaring up to exponent 100, polar
    # form above); np.power's differ from them in the last bits
    neg = np.array([(-c) ** e for e in range(n)], dtype=np.complex128)
    pos = np.array([c ** e for e in range(n)], dtype=np.complex128)
    # W X_k[:, j] = W[:, j - k]; W[m, j] is the coefficient of z^m in (z - c)^j
    WX = np.zeros((n, n), dtype=np.complex128)
    np.multiply(F[:, : n - k], _toeplitz(neg, n).T[:, : n - k], out=WX[:, k:])
    # W^-1[m, j] is the coefficient of sigma^m in z^j
    Winv = F * _toeplitz(pos, n).T
    entries = WX @ Winv
    nm = monomial_norms(space, n)
    entries *= nm[:, None]
    entries /= nm[None, :]
    return OperatorMatrix(space, n, entries, label=f"S[sigma,{k}]")


def _require_fock(space: SpaceSpec, who: str):
    if space.kind != "fock":
        raise DomainError(f"{who} only acts on a fock space")


def quasi_diff_matrix(space: SpaceSpec, order: int) -> OperatorMatrix:
    """D f = f' / (2 alpha i) on the Fock space: entry (n-1, n) = sqrt(n alpha)/(2 alpha i)."""
    _require_fock(space, "quasi_diff_matrix")
    a = space.alpha
    entries = np.zeros((order, order), dtype=np.complex128)
    for n in range(1, order):
        entries[n - 1, n] = math.sqrt(n * a) / (2j * a)
    return OperatorMatrix(space, order, entries, label="D")


def quasi_mult_matrix(space: SpaceSpec, order: int) -> OperatorMatrix:
    """X f = z f on the Fock space: entry (n+1, n) = sqrt((n+1)/alpha).

    The top-degree column is truncated away, as with any multiplication.
    """
    _require_fock(space, "quasi_mult_matrix")
    a = space.alpha
    entries = np.zeros((order, order), dtype=np.complex128)
    for n in range(order - 1):
        entries[n + 1, n] = math.sqrt((n + 1) / a)
    return OperatorMatrix(space, order, entries, label="X")


def shifted_quasi_mult(space: SpaceSpec, tau: complex, order: int) -> OperatorMatrix:
    """X - tau I on the Fock space."""
    base = quasi_mult_matrix(space, order)
    entries = base.entries - complex(tau) * np.eye(order)
    return OperatorMatrix(space, order, entries, label=f"X-({tau})I")


# ---------------------------------------------------------------------------
# serialization


def operator_to_matrix_market(A: OperatorMatrix) -> str:
    """Dense MatrixMarket-style text: header, comment with space/label,
    size line, then row-major 'i j re im' lines (1-based indices)."""
    lines = [
        "%%MatrixMarket matrix coordinate complex general",
        f"% space={A.space.kind} alpha={A.space.alpha} label={A.label}",
        f"{A.order} {A.order} {A.order * A.order}",
    ]
    real, imag = A.entries.real.tolist(), A.entries.imag.tolist()  # rows of Python floats
    for i, (re_row, im_row) in enumerate(zip(real, imag), start=1):
        lines.extend(f"{i} {j} {x!r} {y!r}" for j, (x, y) in enumerate(zip(re_row, im_row), start=1))
    return "\n".join(lines) + "\n"
