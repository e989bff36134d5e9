"""Truncated power series with complex coefficients.

A PowerSeries of order N carries coefficients (c_0, ..., c_{N-1}); all
arithmetic truncates back to the shorter operand's order is NOT done --
operands must agree (OrderMismatchError), except scalar operations.  The
special constructors at the bottom build the eigenfunction families used
by the operator-level tests: binomial powers (1 - z)^w, Cayley powers
((1 + z)/(1 - z))^w, and the exponential family exp(-t (1 + z)/(1 - z)).

Complex powers of positive reals are taken on the principal branch
throughout, e.g. r**w means exp(w log r) with real log r.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lft import DomainError, LinearFractionalMap, is_fock_symbol, is_self_map_of_disk


class OrderMismatchError(DomainError):
    """Binary operation on series of different truncation orders."""


class ZeroConstantTermError(DomainError):
    """Reciprocal of a series whose constant term is (numerically) zero."""


class PoleInsideDiskError(DomainError):
    """Taylor expansion requested for a map whose pole meets the closed disk."""


class NegativeParameterError(DomainError):
    """Parameter must be nonnegative."""


@dataclass(frozen=True)
class PowerSeries:
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.array(self.coeffs, dtype=np.complex128)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coefficients must form a nonempty 1-d array")
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    @property
    def order(self) -> int:
        return int(self.coeffs.size)

    def __repr__(self):
        head = ", ".join(f"{c:.6g}" for c in self.coeffs[:4])
        tail = ", ..." if self.order > 4 else ""
        return f"PowerSeries([{head}{tail}], order={self.order})"

    def __mul__(self, other):
        if isinstance(other, PowerSeries):
            return mul(self, other)
        return scalar_mul(other, self)

    __rmul__ = __mul__

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __call__(self, z: complex) -> complex:
        """Evaluate the truncated polynomial at z (Horner)."""
        acc = 0j
        for c in self.coeffs[::-1]:
            acc = acc * z + c
        return acc


def _check_orders(p: PowerSeries, q: PowerSeries):
    if p.order != q.order:
        raise OrderMismatchError(f"orders {p.order} and {q.order} differ")


def mul(p: PowerSeries, q: PowerSeries) -> PowerSeries:
    """Cauchy product, truncated to the common order."""
    _check_orders(p, q)
    return PowerSeries(np.convolve(p.coeffs, q.coeffs)[: p.order])


def add(p: PowerSeries, q: PowerSeries) -> PowerSeries:
    _check_orders(p, q)
    return PowerSeries(p.coeffs + q.coeffs)


def sub(p: PowerSeries, q: PowerSeries) -> PowerSeries:
    _check_orders(p, q)
    return PowerSeries(p.coeffs - q.coeffs)


def scalar_mul(s: complex, p: PowerSeries) -> PowerSeries:
    return PowerSeries(complex(s) * p.coeffs)


def derivative(p: PowerSeries) -> PowerSeries:
    """Termwise derivative, order drops by one (order-1 input gives order-1 zero)."""
    if p.order == 1:
        return PowerSeries(np.zeros(1))
    n = np.arange(1, p.order)
    return PowerSeries(n * p.coeffs[1:])


def monomial(k: int, order: int) -> PowerSeries:
    c = np.zeros(order, dtype=np.complex128)
    c[k] = 1.0
    return PowerSeries(c)


def constant(value: complex, order: int) -> PowerSeries:
    c = np.zeros(order, dtype=np.complex128)
    c[0] = value
    return PowerSeries(c)


def reciprocal(p: PowerSeries) -> PowerSeries:
    """1/p as a truncated series; requires |p_0| > 1e-14."""
    p0 = p.coeffs[0]
    if abs(p0) <= 1e-14:
        raise ZeroConstantTermError(f"constant term {p0!r} too small to invert")
    n = p.order
    q = np.zeros(n, dtype=np.complex128)
    q[0] = 1.0 / p0
    for k in range(1, n):
        q[k] = -np.dot(p.coeffs[1 : k + 1], q[k - 1 :: -1]) / p0
    return PowerSeries(q)


def exp_series(p: PowerSeries) -> PowerSeries:
    """exp(p), by the first-order recurrence f' = p' f with f(0) = exp(p_0)."""
    n = p.order
    f = np.zeros(n, dtype=np.complex128)
    f[0] = np.exp(p.coeffs[0])
    # (k+1) f_{k+1} = sum_{j=0..k} (j+1) p_{j+1} f_{k-j}
    dp = np.arange(1, n) * p.coeffs[1:]  # coefficients of p', index j -> (j+1) p_{j+1}
    for k in range(n - 1):
        f[k + 1] = np.dot(dp[: k + 1], f[k::-1]) / (k + 1)
    return PowerSeries(f)


def lft_taylor(f: LinearFractionalMap, order: int) -> PowerSeries:
    """Taylor coefficients of (a z + b)/(c z + d) about 0.

    Requires the pole -d/c strictly outside the closed unit disk (or c = 0),
    so the expansion converges on the disk.
    """
    a, b, c, d = f.a, f.b, f.c, f.d
    if c != 0 and abs(-d / c) <= 1.0:
        raise PoleInsideDiskError(f"pole at {-d / c!r} meets the closed disk")
    num = np.zeros(order, dtype=np.complex128)
    num[0] = b
    if order > 1:
        num[1] = a
    den = np.zeros(order, dtype=np.complex128)
    den[0] = d
    if order > 1:
        den[1] = c
    return mul(PowerSeries(num), reciprocal(PowerSeries(den)))


def binomial_power(w: complex, order: int) -> PowerSeries:
    """(1 - z)^w on the principal branch: c_0 = 1, c_{n+1} = c_n (n - w)/(n + 1)."""
    w = complex(w)
    c = np.zeros(order, dtype=np.complex128)
    c[0] = 1.0
    for n in range(order - 1):
        c[n + 1] = c[n] * (n - w) / (n + 1)
    return PowerSeries(c)


def cayley_power(w: complex, order: int) -> PowerSeries:
    """((1 + z)/(1 - z))^w: c_0 = 1 and (n+1) c_{n+1} = 2 w c_n + (n-1) c_{n-1}.

    The recurrence comes from (1 - z^2) f' = 2 w f.
    """
    w = complex(w)
    c = np.zeros(order, dtype=np.complex128)
    c[0] = 1.0
    for n in range(order - 1):
        prev = c[n - 1] if n >= 1 else 0.0
        c[n + 1] = (2 * w * c[n] + (n - 1) * prev) / (n + 1)
    return PowerSeries(c)


def parabolic_eigenfunction(t: float, order: int) -> PowerSeries:
    """exp(-t (1 + z)/(1 - z)) for t >= 0; constant term exp(-t)."""
    t = float(t)
    if t < 0:
        raise NegativeParameterError("t must be >= 0 for a bounded function on the disk")
    # -t (1 + z)/(1 - z) = -t - 2 t (z + z^2 + ...)
    p = np.full(order, -2.0 * t, dtype=np.complex128)
    p[0] = -t
    return exp_series(PowerSeries(p))


def compose_series(g: PowerSeries, f: LinearFractionalMap, order: int) -> PowerSeries:
    """Coefficients of g(f(z)) through z^{order-1}, by Horner over g's coefficients.

    `f` must be a self-map of the disk or an admissible Fock symbol, and `g`
    must carry at least `order` coefficients.  When f(0) != 0, every retained
    coefficient of the result mixes with the *discarded* tail of g, so only a
    leading block of the output is trustworthy at a given generator order;
    supplying g well beyond `order` (4x to 6x) pushes that error below 1e-9
    on the leading half.  When f(0) = 0 the leading `order` coefficients are
    exact given g's first `order` coefficients.
    """
    if g.order < order:
        raise OrderMismatchError(
            f"generator has order {g.order}, need at least {order}"
        )
    if not (is_self_map_of_disk(f) or is_fock_symbol(f)):
        raise PoleInsideDiskError("symbol is neither a disk self-map nor a Fock symbol")
    t = lft_taylor(f, order)
    acc = np.zeros(order, dtype=np.complex128)
    acc[0] = g.coeffs[g.order - 1]
    for k in range(g.order - 2, -1, -1):
        acc = np.convolve(acc, t.coeffs)[:order]
        acc[0] += g.coeffs[k]
    return PowerSeries(acc)

