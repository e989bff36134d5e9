"""Truncated power series with complex coefficients.

A truncated series of order N is a 1-d complex128 array of its coefficients
(c_0, ..., c_{N-1}); sums and scalar multiples are plain array arithmetic.
The special constructors at the bottom build the eigenfunction families used
by the operator-level tests: binomial powers (1 - z)^w, Cayley powers
((1 + z)/(1 - z))^w, and the exponential family exp(-t (1 + z)/(1 - z)).

Complex powers of positive reals are taken on the principal branch
throughout, e.g. r**w means exp(w log r) with real log r.
"""

from __future__ import annotations

import math

import numpy as np

from .lft import DomainError, LinearFractionalMap, is_fock_symbol, is_self_map_of_disk


def monomial(k: int, order: int) -> np.ndarray:
    """z^k truncated to order; raises DomainError unless 0 <= k < order."""
    if not 0 <= k < order:
        raise DomainError(f"need 0 <= k < order, got k={k}, order={order}")
    c = np.zeros(order, dtype=np.complex128)
    c[k] = 1.0
    return c


def exp_series(p: np.ndarray) -> np.ndarray:
    """exp(p), by the first-order recurrence f' = p' f with f(0) = exp(p_0)."""
    n = p.size
    f = np.zeros(n, dtype=np.complex128)
    f[0] = np.exp(p[0])
    # (k+1) f_{k+1} = sum_{j=0..k} (j+1) p_{j+1} f_{k-j}
    dp = np.arange(1, n) * p[1:]  # coefficients of p', index j -> (j+1) p_{j+1}
    for k in range(n - 1):
        f[k + 1] = np.dot(dp[: k + 1], f[k::-1]) / (k + 1)
    return f


def lft_taylor(f: LinearFractionalMap, order: int) -> np.ndarray:
    """Taylor coefficients of (a z + b)/(c z + d) about 0, in closed form:
    b/d, then (a d - b c)/d^2 (-c/d)^(n-1) at z^n, the powers of -c/d taken
    by successive products (exactly zero past z^1 when c = 0).

    Requires the pole -d/c strictly outside the closed unit disk (or c = 0),
    so the expansion converges on the disk.
    """
    a, b, c, d = f.a, f.b, f.c, f.d
    if c != 0 and abs(-d / c) <= 1.0:
        raise DomainError(f"pole at {-d / c!r} meets the closed disk")
    t = np.zeros(order, dtype=np.complex128)
    t[:1] = b / d
    n = order if c != 0 else min(order, 2)
    if n > 1:
        ratios = np.full(n - 1, -c / d)
        ratios[0] = 1.0
        t[1:n] = (a * d - b * c) / d**2 * np.cumprod(ratios)
    return t


def binomial_power(w: complex, order: int) -> np.ndarray:
    """(1 - z)^w on the principal branch: c_0 = 1, c_{n+1} = c_n (n - w)/(n + 1)."""
    w = complex(w)
    c = np.zeros(order, dtype=np.complex128)
    c[0] = 1.0
    for n in range(order - 1):
        c[n + 1] = c[n] * (n - w) / (n + 1)
    return c


def cayley_power(w: complex, order: int) -> np.ndarray:
    """((1 + z)/(1 - z))^w: c_0 = 1 and (n+1) c_{n+1} = 2 w c_n + (n-1) c_{n-1}.

    The recurrence comes from (1 - z^2) f' = 2 w f.
    """
    w = complex(w)
    c = np.zeros(order, dtype=np.complex128)
    c[0] = 1.0
    for n in range(order - 1):
        prev = c[n - 1] if n >= 1 else 0.0
        c[n + 1] = (2 * w * c[n] + (n - 1) * prev) / (n + 1)
    return c


def parabolic_eigenfunction(t: float, order: int) -> np.ndarray:
    """exp(-t (1 + z)/(1 - z)) for finite t >= 0; constant term exp(-t)."""
    t = float(t)
    if not math.isfinite(t):
        raise DomainError(f"t must be finite, got {t!r}")
    if t < 0:
        raise DomainError("t must be >= 0 for a bounded function on the disk")
    # -t (1 + z)/(1 - z) = -t - 2 t (z + z^2 + ...)
    p = np.full(order, -2.0 * t, dtype=np.complex128)
    p[0] = -t
    return exp_series(p)


def compose_series(g: np.ndarray, f: LinearFractionalMap, order: int) -> np.ndarray:
    """Coefficients of g(f(z)) through z^{order-1}, by Horner over g's coefficients.

    `f` must be a self-map of the disk or an admissible Fock symbol, and `g`
    must carry at least `order` coefficients.  When f(0) != 0, every retained
    coefficient of the result mixes with the *discarded* tail of g, so only a
    leading block of the output is trustworthy at a given generator order;
    supplying g well beyond `order` (4x to 6x) pushes that error below 1e-9
    on the leading half.  When f(0) = 0 the leading `order` coefficients are
    exact given g's first `order` coefficients.
    """
    if g.size < order:
        raise DomainError(
            f"generator has order {g.size}, need at least {order}"
        )
    if not (is_self_map_of_disk(f) or is_fock_symbol(f)):
        raise DomainError("symbol is neither a disk self-map nor a Fock symbol")
    t = lft_taylor(f, order)
    acc = np.zeros(order, dtype=np.complex128)
    acc[0] = g[g.size - 1]
    for k in range(g.size - 2, -1, -1):
        acc = np.convolve(acc, t)[:order]
        acc[0] += g[k]
    return acc

