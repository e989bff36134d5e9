"""Weighted sequence models of the Hardy, Bergman and Fock Hilbert spaces.

Everything is expressed through the monomial norms: a function
f = sum p_k z^k has coordinates x_k = p_k * ||z^k|| against the orthonormal
basis e_k = z^k / ||z^k||, and all inner products reduce to weighted
l^2 sums of coefficients.

    hardy:    ||z^n|| = 1
    bergman:  ||z^n|| = 1/sqrt(n+1)          (normalized area measure)
    fock:     ||z^n|| = sqrt(n!/alpha^n)     (Gaussian weight exp(-alpha|z|^2))
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lft import DomainError
from .series import OrderMismatchError, PowerSeries

KINDS = ("hardy", "bergman", "fock")


class PointOutsideDomainError(DomainError):
    """Kernel requested at a point outside the space's domain."""


class NormRangeError(DomainError):
    """A monomial norm, the ratio of two, or an operator entry built from
    them leaves the float range."""


@dataclass(frozen=True)
class SpaceSpec:
    kind: str
    alpha: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown space kind {self.kind!r}")
        if self.kind == "fock" and not self.alpha > 0:
            raise ValueError("fock weight alpha must be positive")
        object.__setattr__(self, "alpha", float(self.alpha))


def monomial_norm(space: SpaceSpec, n: int) -> float:
    if n < 0:
        raise ValueError("monomial degree must be >= 0")
    if space.kind == "hardy":
        return 1.0
    if space.kind == "bergman":
        return 1.0 / math.sqrt(n + 1)
    # fock: sqrt(n!/alpha^n), via lgamma to dodge overflow at large n
    return math.exp(0.5 * (math.lgamma(n + 1) - n * math.log(space.alpha)))


def monomial_norms(space: SpaceSpec, order: int) -> np.ndarray:
    """Vector (||z^0||, ..., ||z^{order-1}||); raises NormRangeError when
    one of them (a Fock norm, for alpha far from 1), or the ratio of the
    largest to the smallest, which the operators divide by, leaves the
    float range."""
    try:
        norms = np.array([monomial_norm(space, n) for n in range(order)])
    except OverflowError:
        norms = np.array([math.inf])
    lo, hi = float(norms.min(initial=1.0)), float(norms.max(initial=1.0))
    if not (lo > 0 and hi / lo < math.inf):
        raise NormRangeError(
            f"fock norms sqrt(n!/alpha^n) leave the float range at alpha = {space.alpha:g}, order {order}"
        )
    return norms


def coeffs_to_coordinates(p: PowerSeries, space: SpaceSpec) -> np.ndarray:
    """Coordinates against the orthonormal basis: x_k = p_k ||z^k||."""
    return p.coeffs * monomial_norms(space, p.order)


def coordinates_to_series(x: np.ndarray, space: SpaceSpec) -> PowerSeries:
    x = np.asarray(x, dtype=np.complex128)
    return PowerSeries(x / monomial_norms(space, x.size))


def inner_product(p: PowerSeries, q: PowerSeries, space: SpaceSpec) -> complex:
    """<p, q> = sum_k p_k conj(q_k) ||z^k||^2."""
    if p.order != q.order:
        raise OrderMismatchError(f"orders {p.order} and {q.order} differ")
    w = monomial_norms(space, p.order) ** 2
    return complex(np.sum(p.coeffs * np.conj(q.coeffs) * w))


def norm(p: PowerSeries, space: SpaceSpec) -> float:
    return math.sqrt(max(inner_product(p, p, space).real, 0.0))


def reproducing_kernel_coeffs(space: SpaceSpec, w: complex, order: int) -> PowerSeries:
    """Taylor coefficients of K_w, the kernel at w: coefficient k is
    conj(w)^k / ||z^k||^2, so that <p, K_w> = p(w) for polynomials p.

    Hardy and Bergman kernels live on the open disk (|w| < 1); the Fock
    kernel is entire.
    """
    w = complex(w)
    if space.kind in ("hardy", "bergman") and abs(w) >= 1.0:
        raise PointOutsideDomainError(f"|w| = {abs(w)} is outside the open unit disk")
    k = np.arange(order)
    powers = np.conj(w) ** k
    return PowerSeries(powers / monomial_norms(space, order) ** 2)
