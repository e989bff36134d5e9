"""Weighted sequence models of the Hardy, Bergman and Fock Hilbert spaces.

Everything is expressed through the monomial norms: a function
f = sum p_k z^k has coordinates x_k = p_k * ||z^k|| against the orthonormal
basis e_k = z^k / ||z^k||, so that the space's norm is the l^2 norm of the
coordinates.

    hardy:    ||z^n|| = 1
    bergman:  ||z^n|| = 1/sqrt(n+1)          (normalized area measure)
    fock:     ||z^n|| = sqrt(n!/alpha^n)     (Gaussian weight exp(-alpha|z|^2))
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lft import DomainError

KINDS = ("hardy", "bergman", "fock")


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
    """Vector (||z^0||, ..., ||z^{order-1}||); raises DomainError when
    one of them (a Fock norm, for alpha far from 1), or the ratio of the
    largest to the smallest, which the operators divide by, leaves the
    float range."""
    try:
        norms = np.array([monomial_norm(space, n) for n in range(order)])
    except OverflowError:
        norms = np.array([math.inf])
    lo, hi = float(norms.min(initial=1.0)), float(norms.max(initial=1.0))
    if not (lo > 0 and hi / lo < math.inf):
        raise DomainError(
            f"fock norms sqrt(n!/alpha^n) leave the float range at alpha = {space.alpha:g}, order {order}"
        )
    return norms

