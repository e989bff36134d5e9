"""High-precision oracles for the matrix builders, in 50-digit mpmath.

Each double input (a symbol's coefficients, the Fock weight) is taken
exactly, so an oracle differs from the exact truncation only by 50-digit
rounding, far below any double-precision error it is compared with.
Nothing in the package calls this module; tests import it as
`from oracle import composition_entries`.
"""
import mpmath
import numpy as np

from compext import LinearFractionalMap, SpaceSpec

DIGITS = 50


def _norms(space: SpaceSpec, order: int) -> list:
    """||z^n|| for n < order: 1 (hardy), 1/sqrt(n+1) (bergman), sqrt(n!/alpha^n) (fock)."""
    if space.kind == "hardy":
        return [mpmath.mpf(1)] * order
    if space.kind == "bergman":
        return [1 / mpmath.sqrt(n + 1) for n in range(order)]
    alpha = mpmath.mpf(space.alpha)
    return [mpmath.sqrt(mpmath.factorial(n) / alpha**n) for n in range(order)]


def _taylor(phi: LinearFractionalMap, order: int) -> list:
    """Taylor coefficients of (a z + b)/(c z + d) in closed form: b/d, then
    (a d - b c)/d^2 (-c/d)^(n-1) at z^n."""
    a, b, c, d = (mpmath.mpc(v) for v in (phi.a, phi.b, phi.c, phi.d))
    det, ratio = (a * d - b * c) / d**2, -c / d
    return [b / d] + [det * ratio ** (n - 1) for n in range(1, order)]


def composition_entries(phi: LinearFractionalMap, space: SpaceSpec, order: int) -> np.ndarray:
    """The truncation of C_phi, entries[i, j] = (phi^j)_i ||z^i|| / ||z^j||,
    with each power formed by exact convolution, rounded to complex128 only
    at the end."""
    with mpmath.workdps(DIGITS):
        t = _taylor(phi, order)
        terms = [(k, tk) for k, tk in enumerate(t) if tk != 0]
        nm = _norms(space, order)
        cur = [mpmath.mpc(1)] + [mpmath.mpc(0)] * (order - 1)
        entries = np.zeros((order, order), dtype=np.complex128)
        for j in range(order):
            if j:
                cur = [mpmath.fsum(cur[i - k] * tk for k, tk in terms if k <= i) for i in range(order)]
            for i in range(order):
                entries[i, j] = complex(cur[i] * nm[i] / nm[j])
    return entries
