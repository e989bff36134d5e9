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
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
import scipy.linalg

from .lft import DomainError, LinearFractionalMap, is_fock_symbol, is_self_map_of_disk
from .series import PowerSeries, lft_taylor
from .spaces import NormRangeError, SpaceSpec, coeffs_to_coordinates, coordinates_to_series, monomial_norms


class SymbolNotAdmissibleError(DomainError):
    """The symbol does not induce a bounded composition operator on the space."""


class BadShiftError(DomainError):
    """Shift index k out of range (need 1 <= k < order)."""


class CenterOutsideDiskError(DomainError):
    """A sigma center (a sigma-shift's c, or the interior fixed point a
    sigma-power witness needs) must lie in the open unit disk."""


class WrongSpaceError(DomainError):
    """Operator only defined on a particular space kind."""


class DimensionMismatchError(DomainError):
    """Operands live on different spaces or have different orders."""


@dataclass(frozen=True)
class OperatorMatrix:
    space: SpaceSpec
    order: int
    entries: np.ndarray = field(repr=False)
    label: str = ""

    def __post_init__(self):
        arr = np.array(self.entries, dtype=np.complex128)
        if arr.shape != (self.order, self.order):
            raise DimensionMismatchError(
                f"entries shape {arr.shape} does not match order {self.order}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @cached_property
    def svdvals(self) -> np.ndarray:
        """Singular values in descending order, computed once per truncation
        (the entries are read-only, so the cache cannot go stale)."""
        sv = np.linalg.svd(self.entries, compute_uv=False)
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

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return matmul(self, other)


def _eig_with_reliability(A: OperatorMatrix):
    """Eigenvalues plus a forward-error estimate for each one.

    err_j ~ eps ||A|| / rcond_j, where rcond_j = |y^H x| / (||x|| ||y||) is the
    reciprocal condition number from the left/right eigenvector pair.  This is
    the standard first-order perturbation bound; for severely nonnormal
    truncations the unreliable eigenvalues show err far above |mu|.
    Read it through OperatorMatrix.eig_reliability, which computes it once.
    """
    w, vl, vr = scipy.linalg.eig(A.entries, left=True, right=True)
    overlap = np.abs(np.einsum("ij,ij->j", vl.conj(), vr))
    norms = np.linalg.norm(vl, axis=0) * np.linalg.norm(vr, axis=0)
    rcond = overlap / np.where(norms == 0, 1.0, norms)
    eps = np.finfo(float).eps
    err = np.where(rcond > 0, eps * A.svdvals[0] / np.where(rcond == 0, 1.0, rcond), np.inf)
    return w, err


def _check_compatible(A: OperatorMatrix, B: OperatorMatrix):
    if A.order != B.order:
        raise DimensionMismatchError(f"orders {A.order} and {B.order} differ")
    if A.space != B.space:
        raise DimensionMismatchError(f"spaces {A.space} and {B.space} differ")


def matmul(A: OperatorMatrix, B: OperatorMatrix) -> OperatorMatrix:
    _check_compatible(A, B)
    label = f"({A.label})({B.label})" if A.label and B.label else ""
    return OperatorMatrix(A.space, A.order, A.entries @ B.entries, label)


def adjoint(A: OperatorMatrix) -> OperatorMatrix:
    label = f"adj({A.label})" if A.label else ""
    return OperatorMatrix(A.space, A.order, A.entries.conj().T, label)


def matrix_power(A: OperatorMatrix, k: int) -> OperatorMatrix:
    if k < 0:
        raise ValueError("negative powers not supported")
    label = f"({A.label})^{k}" if A.label else ""
    return OperatorMatrix(A.space, A.order, np.linalg.matrix_power(A.entries, k), label)


def direct_sum(A: OperatorMatrix, B: OperatorMatrix) -> OperatorMatrix:
    """Block-diagonal sum.  Both blocks must live on the same space kind;
    the result's order is the sum of the orders."""
    if A.space != B.space:
        raise DimensionMismatchError(f"spaces {A.space} and {B.space} differ")
    n, m = A.order, B.order
    out = np.zeros((n + m, n + m), dtype=np.complex128)
    out[:n, :n] = A.entries
    out[n:, n:] = B.entries
    label = f"{A.label}(+){B.label}" if A.label and B.label else ""
    return OperatorMatrix(A.space, n + m, out, label)


def op_norm(A: OperatorMatrix) -> float:
    """Largest singular value of the truncation."""
    return float(A.svdvals[0])


def apply_to_series(A: OperatorMatrix, p: PowerSeries) -> PowerSeries:
    if p.order != A.order:
        raise DimensionMismatchError(f"series order {p.order} != matrix order {A.order}")
    x = coeffs_to_coordinates(p, A.space)
    return coordinates_to_series(A.entries @ x, A.space)


# ---------------------------------------------------------------------------
# factories


def composition_matrix(phi: LinearFractionalMap, space: SpaceSpec, order: int) -> OperatorMatrix:
    """Truncation of C_phi: column j holds the coordinates of phi^j / ||z^j||.

    Admissibility: a self-map of the disk for hardy/bergman, an affine
    contraction (or rotation) for fock.  For phi(z) = w z the matrix is
    exactly diagonal with entries w^j.  Raises NormRangeError when an entry
    leaves the float range (a Fock translation b whose powers b^j outgrow
    the norm ratios ||z^j||, say).
    """
    if space.kind == "fock":
        if not is_fock_symbol(phi):
            raise SymbolNotAdmissibleError(
                "fock composition needs phi = w z + b with |w| < 1, or |w| = 1, b = 0"
            )
    else:
        if not is_self_map_of_disk(phi):
            raise SymbolNotAdmissibleError("phi is not a self-map of the unit disk")
    t = lft_taylor(phi, order).coeffs
    nm = monomial_norms(space, order)
    entries = np.zeros((order, order), dtype=np.complex128)
    cur = np.zeros(order, dtype=np.complex128)
    cur[0] = 1.0
    entries[0, 0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):  # reported by the check below
        for j in range(1, order):
            cur = np.convolve(cur, t)[:order]
            entries[:, j] = cur * nm / nm[j]
    if not np.isfinite(entries).all():
        raise NormRangeError(
            f"entries of C_phi leave the float range on {space.kind} space "
            f"at alpha = {space.alpha:g}, order {order}"
        )
    return OperatorMatrix(space, order, entries, label=f"C[{phi}]")


def multiplication_matrix(b: PowerSeries, space: SpaceSpec, order: int) -> OperatorMatrix:
    """Truncation of M_b for a polynomial symbol b (given as a series whose
    coefficients beyond its order are treated as zero).

    Lower triangular: entry (i, j) = b_{i-j} ||z^i|| / ||z^j|| for i >= j.
    """
    nm = monomial_norms(space, order)
    bc = b.coeffs
    entries = np.zeros((order, order), dtype=np.complex128)
    for j in range(order):
        top = min(order, j + bc.size)
        i = np.arange(j, top)
        entries[i, j] = bc[: top - j] * nm[i] / nm[j]
    return OperatorMatrix(space, order, entries, label="M[poly]")


def basis_shift_matrix(k: int, space: SpaceSpec, order: int) -> OperatorMatrix:
    """X_k: e_n -> e_{n-k} for n >= k, annihilating e_0..e_{k-1}."""
    if not 1 <= k < order:
        raise BadShiftError(f"need 1 <= k < order, got k={k}, order={order}")
    entries = np.eye(order, k=k, dtype=np.complex128)
    return OperatorMatrix(space, order, entries, label=f"X_{k}")


def sigma_shift_matrix(c: complex, k: int, space: SpaceSpec, order: int) -> OperatorMatrix:
    """Backward shift of sigma-powers, sigma(z) = z - c with |c| < 1:
    sigma^n -> sigma^{n-k} for n >= k, sigma^n -> 0 for n < k.

    Built by conjugating the plain backward shift with the unitriangular
    change of basis between monomials and sigma-powers; with c = 0 it
    reduces to basis_shift_matrix up to the norm weights on monomials.
    """
    c = complex(c)
    if abs(c) >= 1.0:
        raise CenterOutsideDiskError(f"|c| = {abs(c)} must be < 1")
    if not 1 <= k < order:
        raise BadShiftError(f"need 1 <= k < order, got k={k}, order={order}")
    n = order
    # W[m, j] = monomial coefficient of z^m in (z - c)^j
    W = np.zeros((n, n), dtype=np.complex128)
    Winv = np.zeros((n, n), dtype=np.complex128)
    for j in range(n):
        for m in range(j + 1):
            W[m, j] = math.comb(j, m) * (-c) ** (j - m)
            Winv[m, j] = math.comb(j, m) * c ** (j - m)  # z^j = sum_m C(j,m) c^{j-m} sigma^m
    shift = np.eye(n, k=k, dtype=np.complex128)
    on_coeffs = W @ shift @ Winv
    nm = monomial_norms(space, n)
    entries = (nm[:, None] * on_coeffs) / nm[None, :]
    return OperatorMatrix(space, n, entries, label=f"S[sigma,{k}]")


def _require_fock(space: SpaceSpec, who: str):
    if space.kind != "fock":
        raise WrongSpaceError(f"{who} only acts on a fock space")


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
    for i in range(A.order):
        for j in range(A.order):
            z = A.entries[i, j]
            lines.append(f"{i + 1} {j + 1} {float(z.real)!r} {float(z.imag)!r}")
    return "\n".join(lines) + "\n"
