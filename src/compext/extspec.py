"""Extended eigenvalues of operator truncations: witnesses, scans, predictions.

A complex number lambda is an extended eigenvalue of A when A X = lambda X A
has a nonzero solution X.  For a finite truncation everything is decidable:
with eigenvalues mu_1..mu_N (diagonalizable case) the finite answer is the
ratio set {mu_i / mu_j}.  Two numerical probes are provided:

  * ratio_distance  -- distance from a trial lambda to the ratio set of the
    truncation, with an eigenvalue reliability filter for the nonnormal
    truncations this package actually produces (see ratio_set);
  * SylvesterProbe -- smallest singular value of X -> A X - lambda X A,
    normalized by ||A|| (1 + |lambda|).

Both probes are scanned over grids by ext_scan.  The probe settles each
Sylvester value by the first of its routes that applies to the truncation:
certificate, exact, dense or iteration (see SylvesterProbe).  The reported
value is an upper bound on the true value, exact on the exact and dense
routes -- apart from the 0.0 the iteration returns when a solve overflows.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .lft import (
    DomainError,
    LinearFractionalMap,
    classify,
    format_complex,
    is_fock_symbol,
    parse_complex,
)
from .operators import (
    OperatorMatrix,
    _complex_schur,
    _eig_with_reliability,  # noqa: F401 -- bench/tracing.py wraps the eig layer by this name
    _lapack,
    basis_shift_matrix,
    composition_matrix,
    matrix_power,
    monomial_support,
    multiplication_matrix,
    op_norm,
    quasi_diff_matrix,
    shifted_quasi_mult,
    sigma_shift_matrix,
    singular_values,
)
from .series import (
    binomial_power,
    cayley_power,
    monomial,
    parabolic_eigenfunction,
)
from .spaces import SpaceSpec


class SingularTruncationError(DomainError):
    """Strict ratio_set's refusal: the truncation is numerically singular, so
    the ratios of all its eigenvalues are noise.  The filtered mode never
    raises it; ext_scan falls back to that mode, so no command ends on it."""


class UnresolvedClassError(ValueError):
    """No prediction is implemented for this symbol class on this space."""


MAX_PROBE_ORDER = 128  # the Sylvester probe's order cap
ITERATION_STEPS = 5  # the most inverse-iteration steps a probe takes per lambda
SYLVESTER_THRESHOLD = 1e-6  # a normalized Sylvester sigma_min at or below this flags
RELIABILITY_TOL = 1e-6  # the eigenvalue error estimate, relative to |mu|, a scan trusts


# ---------------------------------------------------------------------------
# residual of the intertwining relation


def intertwining_residual(
    A: OperatorMatrix, X: OperatorMatrix, lam: complex, margin: int = 0
) -> float:
    """||P (A X - lambda X A) P|| / (||A|| ||X||), with P the projection onto
    the leading order-margin coordinates.

    The margin exists because truncation corrupts the entries of A X and
    X A whose inner sums reach past the cut.  When A or X is banded (shifts,
    polynomial multipliers, rotations) only the last few rows/columns are
    affected, and a fixed margin removes them.  When neither is (C_phi for
    the hyperbolic and parabolic automorphisms or for 0.5z+0.5 on Bergman,
    with a non-polynomial multiplier as witness) every kept row couples to
    the discarded columns, and a block that grows with the order (margin =
    order/2, say) keeps the same share of that coupling at every order.
    There, hold the kept block fixed (margin = order - block) and grow the
    order to see an exact witness converge.

    Every norm here is a largest singular value, read off the entries when
    its matrix is monomial (operators.monomial_support): ||A|| and ||X||
    through op_norm, the block directly.  For a rotation with a shift:k,
    mult:monomial, qdiff:k or identity witness all three are monomial (the
    products' zeros are exact zeros), so no SVD runs.  Every other norm is
    LAPACK's, on a copy lifted by an exact power of two
    (operators.singular_values): the blocks of graded truncations hold
    entries hundreds of decades below their largest, which would otherwise
    take LAPACK into subnormal arithmetic.

    The last bits of the residual depend on the operand order of the
    product with lambda, which numpy's temporary elision picks:
    `complex(lam) * (X @ A)` runs as multiply(lam, Q) while Q is below
    256 KiB (order < 128) and, from order 128 on, in place as
    multiply(Q, lam).  numpy's complex multiply is not bit-commutative (the
    two orders differ on random matrices of order 32, 128 and 256), so a
    rewrite that changes the order moves residuals by an ulp or so: row-slab
    products (X[:keep] @ A)[:, :keep] moved 86 extcheck and 7 verify
    residuals of the benchmark pools by up to 1.1e-16, and with the
    multiply's operands put in the order above they moved none.

    Raises DomainError when an entry of the kept block leaves the float
    range.
    """
    if A.order != X.order or A.space != X.space:
        raise DomainError("witness and operator must match in space and order")
    if not 0 <= margin < A.order:
        raise DomainError(f"margin must lie in [0, {A.order - 1}]")
    keep = A.order - margin
    with np.errstate(over="ignore", invalid="ignore"):  # reported by the check below
        R = A.entries @ X.entries - complex(lam) * (X.entries @ A.entries)
    block = R[:keep, :keep]
    if not np.isfinite(block).all():
        raise DomainError(
            f"entries of A X - lambda X A leave the float range at lambda = {format_complex(lam)}"
        )
    denom = op_norm(A) * op_norm(X)
    if denom == 0:
        raise DomainError("zero operator has no meaningful residual")
    return float(singular_values(block, monomial_support(block))[0]) / denom


# ---------------------------------------------------------------------------
# eigenvalue ratios


def _dedup_sorted(values: np.ndarray, tol: float) -> np.ndarray:
    """The distinct values to tolerance tol, sorted by (re, im).

    Each value is snapped to a square cell of side tol, and each cell keeps
    its (re, im)-smallest value.  Two kept values within tol lie at most two
    cells apart; such pairs are resolved greedily in (re, im) order, each
    value dropped when it lies within tol of an earlier one that was kept.
    The result is a subset of the input in which no two values lie within
    tol, and it does not depend on the input's order.
    """
    if values.size == 0:
        return values
    # presorting by the real part leaves the cell keys nearly sorted, which
    # the stable sort below then orders in close to linear time
    vals = values[np.argsort(values.real)]
    cells = np.floor(vals.real / tol) + 1j * np.floor(vals.imag / tol)
    perm = np.argsort(cells, kind="stable")  # complex keys sort by (re, im)
    cells = cells[perm]
    starts = np.flatnonzero(np.r_[True, cells[1:] != cells[:-1]])
    keys = cells[starts]
    # np.minimum orders complex values by (re, im)
    reps = np.minimum.reduceat(vals[perm], starts)
    rank = np.empty(reps.size, dtype=np.intp)
    rank[np.argsort(reps)] = np.arange(reps.size)
    # rounding in v / tol and |u - v| can put values within tol two cells apart
    pairs = []
    for offset in (dx + 1j * dy for dx in range(3) for dy in range(-2, 3) if (dx, dy) > (0, 0)):
        nb = np.searchsorted(keys, keys + offset)
        hit = nb < keys.size
        hit[hit] = keys[nb[hit]] == keys[hit] + offset
        i = np.flatnonzero(hit)
        j = nb[hit]
        close = np.abs(reps[i] - reps[j]) <= tol
        pairs.extend(zip(i[close].tolist(), j[close].tolist()))
    earlier = {}
    for i, j in pairs:
        lo, hi = sorted((i, j), key=rank.__getitem__)
        earlier.setdefault(hi, []).append(lo)
    keep = np.ones(reps.size, dtype=bool)
    for hi in sorted(earlier, key=rank.__getitem__):
        keep[hi] = not keep[earlier[hi]].any()
    return np.sort(reps[keep])


def reliable(A: OperatorMatrix) -> np.ndarray:
    """Which eigenvalues mu of A.eig_reliability to trust: the nonzero ones
    whose error estimate is at most RELIABILITY_TOL |mu|.  A zero mu is never
    trusted: its test reads 0 <= 0 when the estimate is 0 (a diagonal A's is
    eps ||A||, so a zero matrix's is), and it would put 0/0 ratios in
    ratio_set."""
    w, err = A.eig_reliability
    return (err <= RELIABILITY_TOL * np.abs(w)) & (w != 0)


def ratio_set(A: OperatorMatrix, *, filtered: bool = False) -> np.ndarray:
    """The distinct eigenvalue ratios mu_i / mu_j of the truncation, to 1e-9
    (see _dedup_sorted), sorted by (re, im).  For a rotation z -> w z these
    are the powers w^k, |k| < N: 2N - 1 values when those powers are
    distinct to 1e-9.

    Two modes:

    * strict (the default): requires sigma_min(A) > 1e-12 and uses every
      eigenvalue; raises SingularTruncationError otherwise.
      This is the right mode for honest small matrices.

    * filtered (filtered=True): keeps the eigenvalues that reliable(A)
      marks.  This is the only usable mode for the hyperbolic/parabolic
      composition truncations, whose smallest singular values underflow.
      When no eigenvalue survives the ratio set is the empty complex array.

    A diagonal truncation (A.is_diagonal) reads its eigenvalues from
    A.eig_reliability, its diagonal, in either mode.
    """
    if not filtered:
        smin = float(A.svdvals[-1])
        if smin <= 1e-12:
            raise SingularTruncationError(
                f"sigma_min = {smin:.3e} <= 1.000e-12; "
                "eigenvalue ratios of this truncation are noise "
                "(pass filtered=True to filter instead)"
            )
        mu = A.eig_reliability[0] if A.is_diagonal else np.linalg.eigvals(A.entries)
    else:
        mu = A.eig_reliability[0][reliable(A)]
    ratios = (mu[:, None] / mu[None, :]).ravel()
    return _dedup_sorted(ratios, 1e-9)


_BLOCK = 2**16  # differences per abs temporary in _nearest (1 MiB complex)
_TILE = 32  # grid points measured together
_STRIP = 512  # grid points per strip of neighbouring real parts
_NEIGHBOURS = 3  # ratios measured on each side of a point's argument
_SAFE = (1e-100, 1e100)  # moduli at which the argument bound's arithmetic is safe
_EPS = float(np.finfo(float).eps)
_TINY = 5e-324  # the smallest subnormal


def _nearest(lam: np.ndarray, ratios: np.ndarray) -> np.ndarray:
    """np.abs(lam[:, None] - ratios[None, :]).min(axis=1) for a nonempty ratio
    set, in blocks of at most _BLOCK differences."""
    if lam.size * ratios.size <= _BLOCK:
        return np.abs(lam[:, None] - ratios[None, :]).min(axis=1)
    out = np.full(lam.size, np.inf)
    rows = max(1, _BLOCK // ratios.size)
    cols = _BLOCK // rows
    for i in range(0, lam.size, rows):
        part = out[i : i + rows]
        for j in range(0, ratios.size, cols):
            np.minimum(part, np.abs(lam[i : i + rows, None] - ratios[None, j : j + cols]).min(axis=1), out=part)
    return out


def ratio_distance(lam, ratios) -> np.ndarray:
    """Distance from each trial point to the nearest ratio: bit for bit
    np.abs(lam[:, None] - ratios[None, :]).min(axis=1), and +inf for an empty
    ratio set.

    Only the ratios that can be nearest are measured, in two passes.  The
    first measures each point against the _NEIGHBOURS ratios on each side of
    its argument (the ratios in their order by np.angle, taken round the
    circle) and keeps the result where a lower bound on every other ratio
    certifies it.  The second, a tile walk, measures the points left.  An
    input of one tile (at most _TILE points), of one block (lam.size *
    ratios.size <= _BLOCK) or of at most 2 _NEIGHBOURS ratios, or one that
    holds a nan or an infinity, is measured against the whole set without
    sorting.

    The bound.  Every ratio q outside a point's window lies at least delta
    from it in argument, delta being the smaller of the angles to the two
    ratios just outside the window (these two angles and the window's span
    make up one turn, so delta <= pi), and |q| lies in [lo, hi], the range
    of the set.  So |lam - q|^2 >= (rho - m cos delta)^2 + (m sin delta)^2
    with m = |lam|, and the bound is the right side at rho = m cos delta
    clamped to [lo, hi].  The bound moves by at most the error in m, lo or
    hi, and by at most hi times the error in delta; those errors are ulps,
    and sin, cos, clip and hypot add ulps of m + hi more, so the computed
    bound lies above the exact one by far less than 1e-12 (m + hi) plus a
    relative 1e-12.  A computed |lam - q| lies within two ulps of the exact
    one.  So where the window's smallest distance lies below the bound less
    both margins, every abs left out is larger, and the minimum over the
    same abs values is unchanged.  The bound is trusted only where m, lo and
    hi lie in _SAFE: there no product, square or hypot under- or overflows,
    and the margin is a normal number.  Every other point goes to the tile
    walk.

    The tile walk.  The points are sorted by real part into strips of
    _STRIP, each strip by imaginary part, and walked in tiles of _TILE.  A
    tile's candidates are the ratios inside its bounding box widened by w on
    each side: a searchsorted slice of the ratios sorted by (re, im), then a
    mask on the imaginary part; w starts a quarter above the previous tile's
    largest nearest distance.  A ratio left out differs from every point of
    the tile by more than w in its real or its imaginary part alone (the
    box's bounds are rounded, but a ratio is a float too, so none within w
    of the tile falls outside them), and complex abs is never below either
    part.  So when the tile's largest distance to its candidates lies below w
    by a few ulps (relative, and absolute for subnormals), the minimum over
    the same abs values is unchanged.  Otherwise w grows to that distance
    plus the margin and the tile is measured again, which always certifies:
    each point's first nearest ratio lies within the new w, so no distance
    grows and the largest stays below w by more than the margin.  A distance
    that overflows to inf makes w inf, and then that pass measures the whole
    set.

    An abs temporary of the argument pass holds one difference per point;
    every other holds at most _BLOCK, so at the CLI's 4096 points the
    temporaries stay near 1.5 MiB."""
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    ratios = np.atleast_1d(np.asarray(ratios, dtype=complex))
    if ratios.size == 0:
        return np.full(lam.shape, np.inf)
    if (lam.size <= _TILE or lam.size * ratios.size <= _BLOCK or ratios.size <= 2 * _NEIGHBOURS
            or not (np.isfinite(lam).all() and np.isfinite(ratios).all())):
        return _nearest(lam, ratios)
    out, rest = _by_argument(lam, ratios)
    if rest.size:
        out[rest] = _walk(lam[rest], ratios)
    return out


def _by_argument(lam: np.ndarray, ratios: np.ndarray) -> tuple:
    """(out, rest): each point's distance to the nearest of the 2k ratios
    next to it in argument, k = _NEIGHBOURS, and the indices of the points
    where the bound of ratio_distance does not certify it as the distance to
    the whole set."""
    k = _NEIGHBOURS
    theta = np.angle(ratios)
    order = np.argsort(theta)
    ts = theta[order]
    # the sorted set with its last and first k + 1 ratios repeated a turn
    # away on either side, so that no window wraps: the window of the point
    # that sorts at p is [p + 1, p + 2k], and the ratios just outside it are
    # at p and p + 2k + 1
    t = np.concatenate((ts[-k - 1 :] - 2 * np.pi, ts, ts[: k + 1] + 2 * np.pi))
    rs = ratios[np.concatenate((order[-k - 1 :], order, order[: k + 1]))]
    alpha = np.angle(lam)
    pos = ts.searchsorted(alpha)
    out = np.abs(lam - rs[pos + 1])
    for j in range(2, 2 * k + 1):
        np.minimum(out, np.abs(lam - rs[pos + j]), out=out)
    rho = np.abs(ratios)
    lo, hi = float(rho.min()), float(rho.max())
    m = np.abs(lam)
    delta = np.minimum(alpha - t[pos], t[pos + 2 * k + 1] - alpha)
    near = m * np.cos(delta)  # the modulus nearest to lam at angle delta
    bound = np.hypot(np.clip(near, lo, hi) - near, m * np.sin(delta))
    sure = ((out < bound * (1 - 1e-12) - 1e-12 * (m + hi))
            & (np.minimum(m, lo) >= _SAFE[0]) & (np.maximum(m, hi) <= _SAFE[1]))
    return out, np.flatnonzero(~sure)


def _walk(lam: np.ndarray, ratios: np.ndarray) -> np.ndarray:
    """The tile walk of ratio_distance, for finite points and ratios."""
    rs = np.sort(ratios)  # by (re, im): a slice of it is a range of real parts
    rank = np.empty(lam.size, dtype=np.intp)
    rank[np.argsort(lam.real, kind="stable")] = np.arange(lam.size)
    order = np.lexsort((lam.imag, rank // _STRIP))
    starts = np.arange(0, lam.size, _TILE)
    # (x0, y0, x1, y1) of each tile
    boxes = zip(*(f.reduceat(part[order], starts).tolist()
                  for f in (np.minimum, np.maximum) for part in (lam.real, lam.imag)))
    out = np.empty(lam.size)
    w = 0.0
    for start, (x0, y0, x1, y1) in zip(starts.tolist(), boxes):
        idx = order[start : start + _TILE]
        tile = lam[idx]
        for _ in range(2):
            lo = int(rs.searchsorted(complex(x0 - w, -math.inf)))
            hi = int(rs.searchsorted(complex(x1 + w, math.inf), "right"))
            near = rs[lo:hi]
            near = near[(near.imag >= y0 - w) & (near.imag <= y1 + w)]
            if near.size == 0:  # none in the box: its neighbours by real part bound the distances
                near = rs[max(lo - 1, 0) : hi + 1]
            d = _nearest(tile, near)
            top = float(d.max())
            if top * (1 + 4 * _EPS) + 4 * _TINY < w:
                break
            w = top * (1 + 8 * _EPS) + 8 * _TINY
        out[idx] = d
        w = 1.25 * top  # a quarter wider than the last tile needed spares most second passes
    return out


# ---------------------------------------------------------------------------
# Sylvester probe


def __getattr__(name: str):
    """`lapack`, the LAPACK wrappers operators._lapack() loads (scipy's
    _flapack extension, without importing scipy.linalg), is resolved on first
    access and kept as a module global, which tests and tracers may rebind;
    loading it with the package would put scipy in every `import compext`."""
    if name == "lapack":
        globals()["lapack"] = lapack = _lapack()
        return lapack
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class SylvesterProbe:
    """Normalized sigma_min of X -> A X - lambda X A, reusable across lambdas.

    A probe takes the first route that applies to A, names it in `route`, and
    builds only what that route reads:

      certificate  sigma_min(A)/||A|| is at or below SYLVESTER_THRESHOLD.
                   X = v u^H built from A's smallest right and left singular
                   vectors gives ||A X - lambda X A|| <= sigma_min(A)(1+|lambda|),
                   so the value at every lambda is the certified bound
                   sigma_min(A)/||A|| (0.0 for a zero A), and every lambda
                   flags.  No Schur form or eigenvalue is computed.
      exact        A is diagonal (A.is_diagonal: the rotations' truncations;
                   see operators.monomial_support), with entries mu.  The
                   operator is then diagonal too, with entries
                   mu_i - lambda mu_j, so sigma_min is min |mu_i - lambda mu_j|:
                   O(n^2) per lambda and exact to roundoff.
      dense        order <= 16: SVD of the n^2 x n^2 Kronecker matrix.
      iteration    a complex Schur form A = Q T Q^H, computed once, then per
                   lambda at most ITERATION_STEPS steps of inverse power
                   iteration on the lifted normal equations from a start drawn
                   from `seed`, each step two triangular Sylvester solves
                   (ztrsyl).  The estimate is an upper bound accurate to a
                   small factor -- ample against thresholds here, which sit
                   many orders away from the values they test -- and 0.0 when
                   a solve overflows.

    So a near-singular A reads the certificate bound even where it is
    diagonal or small enough for the exact or dense value.  Truncations of
    the hyperbolic and parabolic composition operators are exponentially
    close to singular and always take the certificate: there the probe cannot
    tell lambdas apart, ext_scan's candidate-limiting default exists because
    of this, and scan output should be read as candidate localization, not as
    membership proof.
    """

    def __init__(self, A: OperatorMatrix, seed: int = 0):
        n = A.order
        if n > MAX_PROBE_ORDER:
            raise DomainError(f"order {n} > {MAX_PROBE_ORDER}: the lifted problem has order {n * n}")
        smin, smax = A.svdvals[-1], A.svdvals[0]
        self.norm_a = float(smax)
        if smin <= SYLVESTER_THRESHOLD * smax:
            self.route = "certificate"
            self.bound = float(smin / smax) if smax > 0 else 0.0
        elif A.is_diagonal:
            self.route = "exact"
            self.mu = A.eig_reliability[0]
        elif n <= 16:
            self.route = "dense"
            self.a = A.entries
            self.eye = np.eye(n)
        else:
            self.route = "iteration"
            self.t = _complex_schur(A.entries)
            rng = np.random.default_rng(seed)
            v0 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            self.v0 = v0 / np.linalg.norm(v0)

    def _solve(self, lam: complex, c: np.ndarray, adjoint_eq: bool) -> np.ndarray | None:
        # trsyl solves op(A) X + isgn X op(B) = scale C for triangular A, B;
        # with B = -lam T, tranb="C" already conjugates lam, giving the
        # adjoint equation T^H Y - conj(lam) Y T^H = C.  lapack is looked up on
        # the module, where __getattr__ loads it and a rebinding replaces it
        tr = "C" if adjoint_eq else "N"
        x, scale, info = sys.modules[__name__].lapack.ztrsyl(self.t, -lam * self.t, c, trana=tr, tranb=tr, isgn=1)
        if info < 0 or not np.all(np.isfinite(x)) or scale == 0:
            return None
        return x / scale

    def sigma_min(self, lam: complex) -> float:
        """sigma_min(Sylv_lambda) / (||A|| (1 + |lambda|)), by the probe's route."""
        if self.route == "certificate":
            return self.bound
        lam = complex(lam)
        scale = self.norm_a * (1.0 + abs(lam))
        if self.route == "exact":
            return float(np.abs(self.mu[:, None] - lam * self.mu[None, :]).min()) / scale
        if self.route == "dense":
            m = np.kron(self.eye, self.a) - lam * np.kron(self.a.T, self.eye)
            return float(np.linalg.svd(m, compute_uv=False)[-1]) / scale

        v = self.v0
        prev = None
        for _ in range(ITERATION_STEPS):
            y = self._solve(lam, v, adjoint_eq=True)
            if y is None:
                return 0.0
            z = self._solve(lam, y, adjoint_eq=False)
            if z is None:
                return 0.0
            nz = np.linalg.norm(z)
            if not np.isfinite(nz) or nz == 0:
                return 0.0
            v = z / nz
            resid = self.t @ v - lam * (v @ self.t)
            est = float(np.linalg.norm(resid))
            if prev is not None and abs(est - prev) <= 0.01 * prev:
                prev = est
                break
            prev = est
        return prev / scale


# ---------------------------------------------------------------------------
# scan grids


GRID_SHAPES = ("circle", "annulus", "disk")


@dataclass(frozen=True)
class GridSpec:
    shape: str = "circle"
    points: int = 360
    rmin: float = 0.2
    rmax: float = 1.0

    def __post_init__(self):
        if self.shape not in GRID_SHAPES:
            raise ValueError(f"unknown grid shape {self.shape!r}")
        if self.points < 2:
            raise ValueError("need at least 2 grid points")
        if not (math.isfinite(self.rmin) and math.isfinite(self.rmax)):
            raise ValueError("rmin and rmax must be finite")
        if self.shape == "annulus" and not 0 < self.rmin <= self.rmax:
            raise ValueError("annulus needs 0 < rmin <= rmax")
        if self.shape == "annulus" and not math.isfinite(self.rmax / self.rmin):
            raise ValueError("annulus needs a finite rmax/rmin")
        if self.shape in ("circle", "disk") and not self.rmax > 0:
            raise ValueError("need rmax > 0")


def make_grid(spec: GridSpec):
    """Return (points, step): a grid that never contains 0, and the largest
    nearest-neighbor spacing, which scan thresholds are measured against.
    A grid whose points or step leave the float range (a radius near the
    float maximum), or that holds 0 (a radius so small that a point
    underflows), is a ValueError.

    circle   -- spec.points equally spaced on |z| = rmax
    annulus  -- log-spaced rings between rmin and rmax, ring count balancing
                radial against angular spacing
    disk     -- equally spaced rings rmax/n_r, 2 rmax/n_r, ..., rmax
    """
    n = spec.points
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.shape == "circle":
            radii, gap = np.array([spec.rmax]), 0.0
        elif spec.shape == "annulus":
            n_r = max(1, round(math.sqrt(n * math.log(spec.rmax / spec.rmin) / (2 * math.pi))))
            radii = np.geomspace(spec.rmin, spec.rmax, n_r)
            gap = float(np.diff(radii).max()) if n_r > 1 else 0.0
        else:  # disk
            n_r = max(1, round(math.sqrt(n / 4)))
            radii = spec.rmax * np.arange(1, n_r + 1) / n_r
            gap = spec.rmax / n_r
        # rings of n_t equally spaced points each; step the larger of the
        # radial gap and the chord between neighbours on the outer ring
        n_t = max(2, math.ceil(n / radii.size))
        angles = 2 * np.pi * np.arange(n_t) / n_t
        pts = (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()
        step = max(gap, 2 * spec.rmax * math.sin(math.pi / n_t))
    if not (math.isfinite(step) and np.isfinite(pts).all()):
        raise ValueError(f"{spec.shape} grid leaves the float range at rmax = {spec.rmax:g}")
    if np.any(pts == 0):
        raise ValueError("grid must exclude 0")
    return pts, float(step)


# ---------------------------------------------------------------------------
# predictions


@dataclass(frozen=True)
class PredictedExt:
    """Shape of the predicted extended spectrum for an admissible symbol.

    kinds: discrete-cyclic (powers of `base`), unit-circle,
    closed-punctured-disk (0 < |lambda| <= 1).  `metadata` carries
    point-spectrum side information that is *recorded, not asserted* --
    those facts come from a different space than the operator may act on,
    and their transfer is open.
    """

    kind: str
    base: complex | None = None
    metadata: dict = field(default_factory=dict)


def _power_members(base: complex, lo: float, hi: float, pad: float) -> np.ndarray:
    """All powers base^j, |j| <= 64, whose modulus lies in [lo - pad, hi + pad]."""
    out = []
    for j in range(-64, 65):
        try:
            v = complex(base) ** j
        except (OverflowError, ZeroDivisionError):
            continue
        if np.isfinite(v) and lo - pad <= abs(v) <= hi + pad:
            out.append(v)
    return np.array(out, dtype=complex)


def _resolve(phi: LinearFractionalMap, space: SpaceSpec) -> tuple:
    """(class label, multiplier, fixed points) of a resolved (space, class)
    pair, the label a key of _RECIPES; raises UnresolvedClassError for every
    other pair.  On fock the multiplier is w of the affine symbol w z + b and
    no fixed points are computed; on bergman all three come from one classify.
    """
    if space.kind == "fock":
        if not is_fock_symbol(phi):
            raise UnresolvedClassError("no prediction for non-affine symbols on fock space")
        w = phi.a / phi.d
        label = "fock-rotation" if abs(abs(w) - 1.0) <= 1e-12 else "fock-affine-contraction"
        return label, w, ()
    if space.kind != "bergman":
        raise UnresolvedClassError(f"no prediction on {space.kind} space")
    cls = classify(phi)
    if cls.kind not in _RECIPES:
        raise UnresolvedClassError(f"no prediction for class {cls.kind!r} on bergman space")
    return cls.kind, cls.multiplier, cls.fixed_points


def predicted_ext(phi: LinearFractionalMap, space: SpaceSpec) -> PredictedExt:
    """Predicted extended spectrum of C_phi on the given space.

    Resolved cases (everything else raises UnresolvedClassError):

      fock     affine w z + b, |w| < 1, or |w| = 1 with b = 0:
               discrete-cyclic with base w
      bergman  elliptic-automorphism w z: discrete-cyclic base w
               hyperbolic-automorphism:   unit-circle
               hyperbolic-na-1:           closed punctured disk
               hyperbolic-na-3 / loxodromic: discrete-cyclic base phi'(c)
               parabolic-automorphism:    unit-circle

    The hardy case is deliberately unresolved here: the point-spectrum facts
    this module records as metadata originate there, and turning them into
    extended-spectrum predictions is exactly the open part.

    The elliptic recipe's witness rows, shift:k and mult:monomial,k,
    intertwine rotations about 0 only.  A conjugated elliptic automorphism
    (interior fixed point c != 0) is predicted here, but verify_theorem_suite
    fails those rows on it until witnesses read off its fixed points exist
    (ROADMAP item 17).
    """
    label, mult, _ = _resolve(phi, space)
    return _RECIPES[label].predict(mult)


# Recipes, one per resolved (space, class).  rows(phi, m, fixed_points,
# order) yields the witness rows (check, witness text, lambda, margin,
# threshold) that verify checks, each threshold calibrated to what its
# identity achieves in floating point.  scan(m, order, points) gives the
# scan's grid (points, when not None, overriding its default point count),
# its candidates for ext_scan and the check that reads the scan into rows.


def _fock_rotation_rows(phi, w, fixed_points, order):
    for k in range(1, 6):
        yield "shift-intertwines", f"shift:{k}", w ** (-k), 0, 1e-10
        yield "qdiff-power-intertwines", f"qdiff:{k}", w ** (-k), k, 1e-10
    yield "qmult-intertwines", "qmult-shifted:0,1", w, 0, 1e-10


def _fock_affine_rows(phi, w, fixed_points, order):
    tau = (phi.b / phi.d) / (1 - w)
    yield "qdiff-intertwines", "qdiff:1", 1.0 / w, 1, 1e-10
    for k in range(1, 4):
        yield "shifted-qmult-power-intertwines", f"qmult-shifted:{format_complex(tau)},{k}", w**k, k, 1e-9


def _elliptic_rows(phi, w, fixed_points, order):
    for k in range(1, 6):
        yield "shift-intertwines", f"shift:{k}", w ** (-k), 0, 1e-10
        yield "monomial-mult-intertwines", f"mult:monomial,{k}", w**k, k, 1e-10


def _cayley_rows(phi, mult, fixed_points, order):
    big_r = 1.0 / mult.real  # multiplier is 1/R, real positive
    for w_exp in (1j, 2j):
        lam = complex(big_r) ** w_exp
        yield "cayley-mult-intertwines", f"mult:cayley,{format_complex(w_exp)}", lam, order - order // 8, 1e-6


def _binomial_rows(phi, mult, fixed_points, order):
    r = mult.real
    for w_exp in (1.0, 2.0, 1 + 1j):
        lam = r**w_exp if isinstance(w_exp, float) else complex(r) ** w_exp
        yield "binomial-mult-intertwines", f"mult:binomial,{format_complex(w_exp)}", lam, 3 * order // 4, 1e-6


def _sigma_rows(phi, a, fixed_points, order):
    c = _interior_fixed_point(fixed_points)
    for k in range(1, 4):
        yield "sigma-shift-intertwines", f"sigma-shift:{format_complex(c)},{k}", a ** (-k), k, 1e-9
        yield "sigma-power-mult-intertwines", f"mult:sigma-power,{k}", a**k, k, 1e-9


def _exponential_rows(phi, mult, fixed_points, order):
    phi0 = phi.b / phi.d  # phi(0)
    a = (1 + phi0) / (1 - phi0) - 1.0  # half-plane translation length
    for t in (1.0, 2.0):
        # the 1e-3 threshold covers the order-64 reading of this m = 8
        # block (about 1e-4); the witness is exact, and since C is not
        # banded only a fixed block converges as the order grows: the
        # same m = 8 block reads 1.6e-16 (t = 1) at order 256
        yield "exponential-mult-intertwines", f"mult:exponential,{t}", cmath.exp(-a * t), order - order // 8, 1e-3


def _fock_metadata(w: complex) -> dict:
    return {"point_spectrum": "w^n, n >= 0", "symbol": "affine"}


def _sigma_metadata(a: complex) -> dict:
    return {"point_spectrum": "phi'(c)^n, n >= 0"}


def _annulus_metadata(mult: complex) -> dict:
    big_r = 1.0 / mult.real  # from R, as the cayley rows are, not from mult**0.5
    return {"point_spectrum_annulus": [big_r**-0.5, big_r**0.5], "point_spectrum_source": "hardy"}


def _disk_metadata(r: complex) -> dict:
    return {"point_spectrum_disk_radius": r.real**-0.5, "point_spectrum_source": "hardy"}


def _scan_near(report: ExtScanReport, name: str, distance: Callable, suffix: str = "") -> CheckRow:
    """Scan check: every flagged point within one grid step of the target,
    distance(flags) giving each flag's distance to it.  A target set of
    powers is never empty: it holds 1 (w^0 or m^0, inside every window)."""
    fl = report.flagged_points()
    if fl.size == 0:
        return CheckRow(name, False, math.inf, "no points flagged at all")
    worst = float(distance(fl).max())
    return CheckRow(name, worst <= report.step, worst, f"{fl.size} flagged points{suffix}")


def _rotation_circle(w, order, points):
    """The circle |lambda| = 1, 504 points, probed as ext_scan's default
    does; every flag within one step of w^k, |k| < order, the ratio set of
    the section, which is diagonal with entries w^j, on fock as on bergman."""
    near = np.unique(np.round(w ** np.arange(-(order - 1), order), 12))

    def check(rep):
        return [_scan_near(rep, "scan-flags-near-powers", lambda fl: ratio_distance(fl, near))]

    return GridSpec("circle", points or 504, rmax=1.0), None, check


def _power_annulus(m, order, points):
    """The annulus |m|^1.5 .. 1.1/|m|, 600 points; every flag within one
    step of a power of m."""
    grid = GridSpec("annulus", points or 600, rmin=abs(m) ** 1.5, rmax=1.1 / abs(m))

    def check(rep):
        targets = _power_members(m, grid.rmin, grid.rmax, rep.step)
        return [_scan_near(rep, "scan-flags-near-powers", lambda fl: ratio_distance(fl, targets))]

    # sigma_min of these truncations is exponentially small (on fock the
    # truncation is triangular with entries w^n), so probing every grid
    # point would flag all of them; only the ratio-nearest points are
    # worth confirming
    return grid, 50, check


def _unit_circle_annulus(m, order, points):
    """The annulus 0.2 .. 5, 1500 points; every flag within one step of
    |lambda| = 1."""

    def check(rep):
        return [_scan_near(rep, "scan-flags-on-unit-circle", lambda fl: np.abs(np.abs(fl) - 1.0),
                           "; worst distance from |lambda|=1")]

    return GridSpec("annulus", points or 1500, rmin=0.2, rmax=5.0), 50, check


def _closed_disk(r, order, points):
    """The disk |lambda| <= 1, 600 points; every flag inside, and a flag
    within one step of each of r and r^2."""

    def check(rep):
        fl = rep.flagged_points()
        inside = fl.size > 0 and bool(np.all(np.abs(fl) <= 1.0 + rep.step))
        worst = float(np.abs(fl).max()) if fl.size else math.inf
        targets = np.array([r.real**1.0, r.real**2.0], dtype=complex)
        miss = float(ratio_distance(targets, fl).max()) if fl.size else math.inf
        return [
            CheckRow("scan-flags-inside-closed-disk", inside, worst, f"{fl.size} flagged points"),
            CheckRow("scan-flags-present-at-powers", miss <= rep.step, miss,
                     f"{targets.size} targets" if fl.size else "no flags or no targets"),
        ]

    return GridSpec("disk", points or 600, rmax=1.0), 50, check


@dataclass(frozen=True)
class _Recipe:
    """How one resolved class is predicted and verified, given its multiplier
    m: the prediction has this kind, metadata(m) and, when discrete-cyclic,
    base m; rows and scan as above."""

    kind: str
    rows: Callable
    scan: Callable
    metadata: Callable = lambda m: {}

    def predict(self, mult: complex) -> PredictedExt:
        base = mult if self.kind == "discrete-cyclic" else None
        return PredictedExt(self.kind, base=base, metadata=self.metadata(mult))


_RECIPES = {
    "fock-rotation": _Recipe("discrete-cyclic", _fock_rotation_rows, _rotation_circle, _fock_metadata),
    "fock-affine-contraction": _Recipe("discrete-cyclic", _fock_affine_rows, _power_annulus, _fock_metadata),
    "elliptic-automorphism": _Recipe("discrete-cyclic", _elliptic_rows, _rotation_circle),
    "hyperbolic-automorphism": _Recipe("unit-circle", _cayley_rows, _unit_circle_annulus, _annulus_metadata),
    "hyperbolic-na-1": _Recipe("closed-punctured-disk", _binomial_rows, _closed_disk, _disk_metadata),
    "hyperbolic-na-3": _Recipe("discrete-cyclic", _sigma_rows, _power_annulus, _sigma_metadata),
    "loxodromic": _Recipe("discrete-cyclic", _sigma_rows, _power_annulus, _sigma_metadata),
    "parabolic-automorphism": _Recipe("unit-circle", _exponential_rows, _unit_circle_annulus),
}


# ---------------------------------------------------------------------------
# scanning


@dataclass
class ExtScanReport:
    """What one scan measured: the grid step and points, each point's ratio
    distance, Sylvester value (nan where not probed) and flag, the ratio
    threshold (0.999 of the step) and the probe budget as resolved from its
    default.  A point flags when its Sylvester value is at most
    SYLVESTER_THRESHOLD or its ratio distance is below the ratio threshold."""

    step: float
    lam: np.ndarray
    ratio_dist: np.ndarray
    sylvester: np.ndarray
    flagged: np.ndarray
    ratio_threshold: float
    candidates: int | str
    notes: list

    def flagged_points(self) -> np.ndarray:
        return self.lam[self.flagged]


def ext_scan(
    A: OperatorMatrix, grid: GridSpec, candidates: int | str | None = None, seed: int = 0
) -> ExtScanReport:
    """Scan a grid for extended-eigenvalue candidates of a truncation.

    Flag rule: a grid point flags when its normalized Sylvester sigma_min is
    at most SYLVESTER_THRESHOLD, or its distance to the eigenvalue ratio set
    is below 0.999 of the grid step, so that grid points adjacent to a ratio
    do not flag by adjacency alone.

    The Sylvester probe runs on the `candidates` grid points with the
    smallest ratio distance ("all" for every point; default: all points for
    order <= 48, else 50; none above order MAX_PROBE_ORDER).  One probe,
    built when there is a point to probe, settles every value by its route:
    certificate, exact, dense or iteration (see SylvesterProbe).  Ratios use
    the strict mode of ratio_set when the truncation allows it, falling back to
    the reliability filter at RELIABILITY_TOL -- the normal path for
    hyperbolic and parabolic symbols, whose truncations are exponentially
    singular.  The notes say which: the filtered set, or, when it is empty,
    that every ratio distance is +inf.  The report holds what the scan
    measured; the caller keeps what it passed in.
    """
    lam, step = make_grid(grid)
    notes = []
    rt = 0.999 * step

    try:
        ratios = ratio_set(A)
    except SingularTruncationError:
        ratios = ratio_set(A, filtered=True)
        notes.append(
            "ratio set from reliability-filtered eigenvalues "
            f"(tol={RELIABILITY_TOL:g}); strict mode found the truncation singular"
            if ratios.size
            else "no reliable eigenvalues; ratio distances are +inf"
        )

    rd = ratio_distance(lam, ratios)

    if candidates is None:
        candidates = "all" if A.order <= 48 else 50
    sylv = np.full(lam.size, np.nan)
    if A.order > MAX_PROBE_ORDER:
        notes.append(f"order > {MAX_PROBE_ORDER}: sylvester probe skipped, flags are ratio-only")
    else:
        if candidates == "all" or ratios.size == 0:
            chosen = np.arange(lam.size)
            if candidates != "all":
                notes.append("no ratio ranking available: probing every grid point")
        else:
            k = min(int(candidates), lam.size)
            chosen = np.sort(np.argsort(rd, kind="stable")[:k])
        if chosen.size:
            probe = SylvesterProbe(A, seed=seed)
            for i in chosen:
                sylv[i] = probe.sigma_min(lam[i])

    sylv_flag = np.where(np.isnan(sylv), np.inf, sylv) <= SYLVESTER_THRESHOLD
    ratio_flag = rd < rt
    flagged = sylv_flag | ratio_flag

    return ExtScanReport(step, lam, rd, sylv, flagged, rt, candidates, notes)


# ---------------------------------------------------------------------------
# witnesses by name, and the per-class verification driver


def _sigma_power_series(phi: LinearFractionalMap, k: int, order: int) -> np.ndarray:
    """Coefficients of (z - c)^k below degree `order`, c = phi's interior fixed
    point: C(k, m) (-c)^(k - m) at z^m.  A C(k, m) past the float range is
    formed from logarithms, where the term under- or overflows as a float does.
    A negative k is refused: (z - c)^k then has its pole inside the disk."""
    c = _interior_fixed_point(classify(phi).fixed_points)
    if k < 0:
        raise DomainError(f"need k >= 0, got k={k}")
    coeffs = np.zeros(order, dtype=np.complex128)
    for m in range(min(k, order - 1) + 1):
        binom = math.comb(k, m)
        try:
            coeffs[m] = binom * (-c) ** (k - m)
        except OverflowError:
            if c != 0:  # else the term is 0: k - m > 0, because C(k, k) = 1 fits
                coeffs[m] = np.exp(math.log(binom) + (k - m) * cmath.log(-c))
    return coeffs


def _interior_fixed_point(fixed_points: tuple) -> complex:
    """The first fixed point inside the open disk, where a sigma-power
    witness is centered; a DomainError when there is none."""
    for p in fixed_points:
        if abs(p) < 1.0 - 1e-9:
            return p
    raise DomainError("symbol has no fixed point inside the open disk")


# The witness grammar, form -> (parameter types, builder); complex parameters
# are written x+yi.  A builder takes space, order and the parameters, then phi
# and the parameter text by keyword; a mult builder returns the multiplier's
# coefficients.  Builders call the factories by module-global name as they run,
# so a rebound attribute of this module (the benchmark's tracer) is called.
WITNESSES = {
    "identity": ((), lambda space, order, **_: OperatorMatrix(space, order, np.eye(order), label="I")),
    "shift:k": ((int,), lambda space, order, k, **_: basis_shift_matrix(k, space, order)),
    "sigma-shift:c,k": ((parse_complex, int), lambda space, order, c, k, **_: sigma_shift_matrix(c, k, space, order)),
    "qdiff:m": (
        (int,),
        lambda space, order, m, **_: replace(matrix_power(quasi_diff_matrix(space, order), m), label=f"D^{m}"),
    ),
    "qmult-shifted:tau,m": (
        (parse_complex, int),
        lambda space, order, tau, m, params, **_: replace(
            matrix_power(shifted_quasi_mult(space, tau, order), m), label="(X-{})^{}".format(*params.split(","))
        ),
    ),
    "mult:monomial,k": ((int,), lambda space, order, k, **_: monomial(k, order)),
    "mult:binomial,w": ((parse_complex,), lambda space, order, w, **_: binomial_power(w, order)),
    "mult:cayley,w": ((parse_complex,), lambda space, order, w, **_: cayley_power(w, order)),
    "mult:exponential,t": ((float,), lambda space, order, t, **_: parabolic_eigenfunction(t, order)),
    "mult:sigma-power,k": ((int,), lambda space, order, k, phi, **_: _sigma_power_series(phi, k, order)),
}


def _split(text: str) -> tuple[str, str]:
    """A witness text or form as (head, parameter text): 'mult:cayley,2i' gives ('mult:cayley', '2i')."""
    name, _, params = text.partition(":")
    if name == "mult":
        family, _, params = params.partition(",")
        name = f"mult:{family}"
    return name, params


_FORMS = {_split(form)[0]: form for form in WITNESSES}


def build_witness(text: str, phi: LinearFractionalMap, space: SpaceSpec, order: int) -> OperatorMatrix:
    """Construct the witness operator that `text` names in the grammar of
    WITNESSES.  A text outside the grammar or a bad parameter is a ValueError
    (a bad complex literal keeps parse_complex's message); an entry of the
    witness past the float range is a DomainError."""
    text = text.strip()
    head, params = _split(text)
    form = _FORMS.get(head)
    if form is None and head.startswith("mult:"):
        raise ValueError(f"unknown multiplication family {head.removeprefix('mult:')!r}")
    if form is None or (text != head and not WITNESSES[form][0]):
        raise ValueError(f"unknown witness {text!r}")
    types, build = WITNESSES[form]
    parts = params.split(",") if types else []
    bad = ValueError(f"bad witness {text!r}: expected {form}")
    if len(parts) != len(types) or not all(parts):
        raise bad
    values = []
    for conv, part in zip(types, parts):
        try:
            values.append(conv(part))
        except ValueError:
            if conv is parse_complex:
                raise
            raise bad from None
    with np.errstate(over="ignore", invalid="ignore"):  # reported by the check below
        X = build(space, order, *values, phi=phi, params=params)
        if head.startswith("mult:"):
            X = replace(multiplication_matrix(X, space, order), label=f"M[{head.removeprefix('mult:')},{params}]")
    if not np.isfinite(X.entries).all():
        raise DomainError(
            f"entries of witness {text!r} leave the float range on {space.kind} space "
            f"at alpha = {space.alpha:g}, order {order}"
        )
    return X


@dataclass
class CheckRow:
    name: str
    passed: bool
    worst: float
    detail: str = ""


@dataclass
class VerifyRow:
    check: str
    witness: str
    lam: complex = field(metadata={"json": "lambda"})
    margin: int
    residual: float
    threshold: float
    passed: bool


@dataclass
class VerifyReport:
    symbol: str
    space: SpaceSpec
    order: int
    kind: str = field(metadata={"json": "class"})
    rows: list
    scan_rows: list = field(metadata={"json": "scan_checks"})
    predicted: PredictedExt | None

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows) and all(r.passed for r in self.scan_rows)


def witness_row(
    C: OperatorMatrix, phi: LinearFractionalMap, check: str, text: str, lam: complex, margin: int, threshold: float
) -> VerifyRow:
    """The witness that text names, on C's space and order, read as the
    residual of C X - lam X C (intertwining_residual) against threshold."""
    X = build_witness(text, phi, C.space, C.order)
    res = intertwining_residual(C, X, lam, margin)
    return VerifyRow(check, text, complex(lam), margin, res, threshold, res <= threshold)


def verify_theorem_suite(
    phi: LinearFractionalMap,
    space: SpaceSpec,
    order: int,
    seed: int = 0,
    scan_points: int | None = None,
) -> VerifyReport:
    """Check, on an order-`order` truncation, every intertwining identity the
    symbol's class is known to satisfy, plus a scan-localization check
    against the predicted extended spectrum.

    The class's recipe (_RECIPES) gives the prediction, the witness rows,
    each a residual of C X - lambda X C against a threshold calibrated to what
    the identity achieves in floating point, and the scan: one of
    _rotation_circle, _power_annulus, _unit_circle_annulus and _closed_disk,
    each giving its grid (scan_points overrides the default point count),
    its probe budget and its check.  The witness rows run first, then one
    ext_scan, and the recipe's check reads it into the scan rows.  These are
    strict localization statements and genuinely fail for the hyperbolic and
    parabolic automorphism classes, where finite sections cannot see the
    predicted unit circle.  The elliptic rows, shift:k and mult:monomial,k,
    intertwine rotations about 0 only, so they fail on a conjugated elliptic
    automorphism (interior fixed point c != 0; see predicted_ext).  Raises
    UnresolvedClassError for classes/spaces with no resolved prediction.

    What a scan row can show: a truncation's extended eigenvalues are exactly
    its eigenvalue ratios, since X -> C X - lambda X C is singular iff
    sigma(C) meets lambda sigma(C).  So a scan row checks the section's ratio
    set against the prediction; the witness rows carry the paper's content.
    """
    label, mult, fixed_points = _resolve(phi, space)
    recipe = _RECIPES[label]
    C = composition_matrix(phi, space, order)
    rows = [witness_row(C, phi, *row) for row in recipe.rows(phi, mult, fixed_points, order)]
    grid, candidates, scan_check = recipe.scan(mult, order, scan_points)
    scan_rows = scan_check(ext_scan(C, grid, candidates=candidates, seed=seed))
    return VerifyReport(str(phi), space, order, label, rows, scan_rows, recipe.predict(mult))
