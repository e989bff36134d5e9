"""High-precision oracles for the matrix builders, in 50-digit mpmath.

Each double input (a symbol's coefficients, a witness parameter, the Fock
weight, a matrix entry) is taken exactly, so an oracle differs from the
exact value only by 50-digit rounding, far below any double-precision error
it is compared with.  Each builder is recomputed from a closed form other
than the package's recurrence: Laguerre sums for the exponential family,
products of binomial series for the Cayley powers, factorial ratios for
the Fock pair, one binomial coefficient per entry for the sigma-shift.
Nothing in the package calls this module; tests import it as
`import oracle`.
"""
from math import comb

import mpmath
import numpy as np

from compext import LinearFractionalMap, SpaceSpec
from compext.lft import parse_complex

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


def sigma_shift_entries(c: complex, k: int, space: SpaceSpec, order: int) -> np.ndarray:
    """The truncation of the backward shift of sigma-powers, sigma = z - c,
    in closed form: entry (i, j) = C(j-1-i, k-1) c^(j-k-i) ||z^i|| / ||z^j||
    for i <= j - k, and 0 otherwise (exact on polynomials of degree < order)."""
    with mpmath.workdps(DIGITS):
        c = mpmath.mpc(c)
        nm = _norms(space, order)
        entries = np.zeros((order, order), dtype=np.complex128)
        for j in range(k, order):
            for i in range(j - k + 1):
                entries[i, j] = complex(comb(j - 1 - i, k - 1) * c ** (j - k - i) * nm[i] / nm[j])
    return entries


def _interior_fixed_point(phi: LinearFractionalMap):
    """The root of c z^2 + (d - a) z - b nearest 0 (b/(d - a) when c = 0)."""
    a, b, c, d = (mpmath.mpc(v) for v in (phi.a, phi.b, phi.c, phi.d))
    if c == 0:
        return b / (d - a)
    disc = mpmath.sqrt((d - a) ** 2 + 4 * b * c)
    return min(((a - d + disc) / (2 * c), (a - d - disc) / (2 * c)), key=abs)


def _exponential(t: float, order: int) -> list:
    """exp(-t (1+z)/(1-z)) = e^-t sum_n L_n^(-1)(2t) z^n, with the Laguerre
    sum L_n^(-1)(x) = sum_{i=1..n} (-1)^i C(n-1, i-1) x^i / i! for n >= 1."""
    x = 2 * mpmath.mpf(t)
    power = [(-x) ** i / mpmath.factorial(i) for i in range(order)]
    lag = [mpmath.mpf(1)] + [
        mpmath.fsum(comb(n - 1, i - 1) * power[i] for i in range(1, n + 1)) for n in range(1, order)
    ]
    return [mpmath.exp(-x / 2) * v for v in lag]


def _cayley(w: complex, order: int) -> list:
    """((1+z)/(1-z))^w as the product of (1+z)^w = sum C(w, k) z^k and
    (1-z)^-w = sum C(-w, m) (-1)^m z^m."""
    w = mpmath.mpc(w)
    up = [mpmath.binomial(w, k) for k in range(order)]
    down = [mpmath.binomial(-w, m) * (-1) ** m for m in range(order)]
    return [mpmath.fsum(up[k] * down[n - k] for k in range(n + 1)) for n in range(order)]


# multiplier coefficients b_n, n < order, of each mult:family,param witness
_MULTIPLIERS = {
    "monomial": lambda param, phi, order: [mpmath.mpf(n == int(param)) for n in range(order)],
    "binomial": lambda param, phi, order: [
        (-1) ** n * mpmath.binomial(mpmath.mpc(parse_complex(param)), n) for n in range(order)
    ],
    "cayley": lambda param, phi, order: _cayley(parse_complex(param), order),
    "exponential": lambda param, phi, order: _exponential(float(param), order),
    "sigma-power": lambda param, phi, order: [
        mpmath.binomial(int(param), n) * (-_interior_fixed_point(phi)) ** (int(param) - n) for n in range(order)
    ],
}


def witness_entries(text: str, phi: LinearFractionalMap, space: SpaceSpec, order: int) -> np.ndarray:
    """The order-`order` truncation of the witness named by `text`, for the
    families mult:<family>,param (entry (i, j) = b_(i-j) ||z^i|| / ||z^j||),
    qdiff:m (D^m on Fock: entry (j-m, j) = sqrt(j! alpha^m/(j-m)!) / (2 alpha i)^m)
    and qmult-shifted:tau,m ((X - tau)^m on Fock: entry (j+k, j) =
    C(m, k) (-tau)^(m-k) sqrt((j+k)!/(j! alpha^k)))."""
    name, _, args = text.partition(":")
    with mpmath.workdps(DIGITS):
        alpha = mpmath.mpf(space.alpha)
        fact = [mpmath.factorial(n) for n in range(order)]

        def ratio(i, j):  # ||z^i|| / ||z^j|| on the Fock space
            return mpmath.sqrt(fact[i] / fact[j] / alpha ** (i - j))

        if name == "qdiff":  # z^j -> j!/(j-m)! z^(j-m) / (2 alpha i)^m
            m = int(args)
            entries = {
                (j - m, j): fact[j] / fact[j - m] * ratio(j - m, j) / (2j * alpha) ** m for j in range(m, order)
            }
        elif name == "qmult-shifted":
            tau_text, m_text = args.split(",")
            tau, m = mpmath.mpc(parse_complex(tau_text)), int(m_text)
            entries = {
                (j + k, j): mpmath.binomial(m, k) * (-tau) ** (m - k) * ratio(j + k, j)
                for j in range(order)
                for k in range(min(m, order - 1 - j) + 1)
            }
        else:
            family, param = args.split(",")
            b = _MULTIPLIERS[family](param, phi, order)
            nm = _norms(space, order)
            entries = {(i, j): b[i - j] * nm[i] / nm[j] for j in range(order) for i in range(j, order)}
    out = np.zeros((order, order), dtype=np.complex128)
    for (i, j), v in entries.items():
        out[i, j] = complex(v)
    return out


def _largest_singular_value(rows) -> mpmath.mpf:
    return max(mpmath.svd_c(mpmath.matrix(rows), compute_uv=False))


def intertwining_residual(A: np.ndarray, X: np.ndarray, lam: complex, margin: int = 0) -> float:
    """||P (A X - lam X A) P|| / (||A|| ||X||) from the float entries of A and
    X, every product and singular value in 50 digits."""
    with mpmath.workdps(DIGITS):
        a, x = mpmath.matrix(A.tolist()), mpmath.matrix(X.tolist())
        r = a * x - mpmath.mpc(lam) * (x * a)
        keep = A.shape[0] - margin
        block = [[r[i, j] for j in range(keep)] for i in range(keep)]
        num = _largest_singular_value(block)
        return float(num / (_largest_singular_value(A.tolist()) * _largest_singular_value(X.tolist())))
