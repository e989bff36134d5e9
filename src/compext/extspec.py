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

Both probes are scanned over grids by ext_scan, which settles each Sylvester
value by the first of three routes that applies (see SylvesterProbe):

  * certificate -- sigma_min(A)/||A|| <= the flag threshold.  X = v u^H from
    A's smallest right and left singular vectors gives sigma_min(Sylv) <=
    (1+|lambda|) sigma_min(A), so every lambda flags and the reported value
    is that certified upper bound.  Truncations of the hyperbolic and
    parabolic composition operators are exponentially close to singular and
    always take this route: there the probe cannot tell lambdas apart, the
    candidate-limiting default exists because of this, and scan output
    should be read as candidate localization, not as membership proof.
  * exact -- A is normal (rotations: diagonal truncations), and sigma_min is
    min |mu_i - lambda mu_j| over the eigenvalues.
  * iteration -- inverse iteration with triangular Sylvester solves, an
    upper-bound estimate accurate to a small factor (a dense Kronecker SVD
    at small orders).

The reported Sylvester value is thus an upper bound on the true value, and
exact for normal truncations -- apart from the 0.0 the iteration returns when
a solve overflows.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .lft import (
    DomainError,
    LinearFractionalMap,
    classify,
    format_complex,
    is_fock_symbol,
    parse_complex,
)
from .operators import (
    CenterOutsideDiskError,
    DimensionMismatchError,
    OperatorMatrix,
    _eig_with_reliability,  # noqa: F401 -- bench/tracing.py wraps the eig layer by this name
    adjoint,
    basis_shift_matrix,
    composition_matrix,
    direct_sum,
    matrix_power,
    multiplication_matrix,
    op_norm,
    quasi_diff_matrix,
    shifted_quasi_mult,
    sigma_shift_matrix,
)
from .series import (
    PowerSeries,
    binomial_power,
    cayley_power,
    monomial,
    parabolic_eigenfunction,
)
from .spaces import SpaceSpec


class SingularTruncationError(DomainError):
    """Ratio set is meaningless: the truncation is numerically singular."""


class TooLargeError(DomainError):
    """Sylvester probe above order MAX_PROBE_ORDER (the lifted problem is order N^2)."""


class EmptyGridError(ValueError):
    """Scan grid is empty or badly parameterized."""


class UnresolvedClassError(ValueError):
    """No prediction is implemented for this symbol class on this space."""


MAX_PROBE_ORDER = 128  # the Sylvester probe's order cap


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
    """
    if A.order != X.order or A.space != X.space:
        raise DimensionMismatchError("witness and operator must match in space and order")
    if not 0 <= margin < A.order:
        raise DimensionMismatchError(f"margin must lie in [0, {A.order - 1}]")
    keep = A.order - margin
    R = A.entries @ X.entries - complex(lam) * (X.entries @ A.entries)
    block = R[:keep, :keep]
    denom = op_norm(A) * op_norm(X)
    if denom == 0:
        raise DimensionMismatchError("zero operator has no meaningful residual")
    return float(np.linalg.svd(block, compute_uv=False)[0]) / denom


# ---------------------------------------------------------------------------
# eigenvalue ratios


def _dedup_sorted(values: np.ndarray, tol: float) -> np.ndarray:
    """The distinct values to tolerance tol, sorted by (re, im).

    Each value is snapped to a square cell of side tol, and each cell keeps
    its (re, im)-smallest value.  Two kept values within tol lie at most two
    cells apart; such pairs are resolved greedily in (re, im) order, each
    value dropped when it lies within tol of an earlier one that was kept.
    The result is a subset of the input in which no two values lie within
    tol, and it does not depend on the input's order.  tol <= 0 merges
    exact duplicates only.
    """
    if values.size == 0:
        return values
    if tol <= 0:
        return np.unique(values)  # complex values sort by (re, im)
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


def ratio_set(A: OperatorMatrix, *, reliability_tol: float | None = None) -> np.ndarray:
    """The distinct eigenvalue ratios mu_i / mu_j of the truncation, to 1e-9
    (see _dedup_sorted), sorted by (re, im).  For a rotation z -> w z these
    are the powers w^k, |k| < N: 2N - 1 values when those powers are
    distinct to 1e-9.

    Two modes:

    * strict (reliability_tol=None): requires sigma_min(A) > 1e-12 and uses
      every eigenvalue; raises SingularTruncationError otherwise.
      This is the right mode for honest small matrices.

    * filtered (reliability_tol=t): keeps eigenvalue mu_j only when its
      perturbation-theory error estimate is at most t |mu_j|.  This is the
      only usable mode for the hyperbolic/parabolic composition truncations,
      whose smallest singular values underflow; raises
      SingularTruncationError when no eigenvalue survives.  The eigenvalues
      and estimates are A.eig_reliability, computed once per truncation.
    """
    if reliability_tol is None:
        smin = float(A.svdvals[-1])
        if smin <= 1e-12:
            raise SingularTruncationError(
                f"sigma_min = {smin:.3e} <= 1.000e-12; "
                "eigenvalue ratios of this truncation are noise "
                "(pass reliability_tol to filter instead)"
            )
        mu = np.linalg.eigvals(A.entries)
    else:
        w, err = A.eig_reliability
        keep = err <= reliability_tol * np.abs(w)
        mu = w[keep]
        if mu.size == 0:
            raise SingularTruncationError(
                "no eigenvalue of the truncation passes the reliability filter"
            )
    ratios = (mu[:, None] / mu[None, :]).ravel()
    return _dedup_sorted(ratios, 1e-9)


def ratio_distance(lam, ratios: np.ndarray) -> np.ndarray:
    """Distance from each trial point to the nearest ratio: exactly
    np.abs(lam[:, None] - ratios[None, :]).min(axis=1), computed in blocks of
    about 2**16 differences, so that the temporaries stay near 1 MB."""
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    if ratios.size == 0:
        return np.full(lam.shape, np.inf)
    out = np.empty(lam.size)
    block = max(1, 2**16 // ratios.size)
    for start in range(0, lam.size, block):
        chunk = lam[start : start + block]
        out[start : start + block] = np.abs(chunk[:, None] - ratios[None, :]).min(axis=1)
    return out


# ---------------------------------------------------------------------------
# Sylvester probe


class SylvesterProbe:
    """Normalized sigma_min of X -> A X - lambda X A, reusable across lambdas.

    A complex Schur form A = Q T Q^H is computed once; each lambda then takes
    the first route that applies:

      exact      A is normal (T diagonal to roundoff: ||strict_upper(T)||_F <=
                 n eps ||T||_F).  X -> Q^H X Q turns the operator into the
                 diagonal one with entries mu_i - lambda mu_j, so sigma_min is
                 min |mu_i - lambda mu_j| -- O(n^2) per lambda and, sigma_min
                 being 1-Lipschitz, within about n eps of the truth.
      dense      order <= 16: SVD of the n^2 x n^2 Kronecker matrix.
      iteration  inverse power iteration on the lifted normal equations, each
                 step two triangular Sylvester solves (ztrsyl).  The estimate
                 is an upper bound accurate to a small factor -- ample against
                 thresholds here, which sit many orders away from the values
                 they test.

    One closed form needs no probe at all: when sigma_min(A)/||A|| is at or
    below the flag threshold, X = v u^H built from A's smallest right and
    left singular vectors gives ||A X - lambda X A|| <= sigma_min(A)(1+|lambda|),
    so every lambda flags with the certified bound sigma_min(A)/||A||.
    ext_scan applies that certificate before it builds a probe.
    """

    def __init__(self, A: OperatorMatrix, seed: int = 0):
        n = A.order
        if n > MAX_PROBE_ORDER:
            raise TooLargeError(f"order {n} > {MAX_PROBE_ORDER}: the lifted problem has order {n * n}")
        self.n = n
        self.norm_a = float(A.svdvals[0])
        self.t, _ = scipy.linalg.schur(A.entries, output="complex")
        off = np.linalg.norm(np.triu(self.t, 1))
        normal = off <= n * np.finfo(float).eps * np.linalg.norm(self.t)
        self.mu = np.diag(self.t).copy() if normal else None
        self.dense = not normal and n <= 16
        if self.dense:
            self.a = A.entries
            self.eye = np.eye(n)
        rng = np.random.default_rng(seed)
        v0 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        self.v0 = v0 / np.linalg.norm(v0)

    def _solve(self, lam: complex, c: np.ndarray, adjoint_eq: bool) -> np.ndarray | None:
        # trsyl solves op(A) X + isgn X op(B) = scale C for triangular A, B;
        # with B = -lam T, tranb="C" already conjugates lam, giving the
        # adjoint equation T^H Y - conj(lam) Y T^H = C
        tr = "C" if adjoint_eq else "N"
        x, scale, info = lapack.ztrsyl(self.t, -lam * self.t, c, trana=tr, tranb=tr, isgn=1)
        if info < 0 or not np.all(np.isfinite(x)) or scale == 0:
            return None
        return x / scale

    def sigma_min(self, lam: complex, iters: int = 8) -> float:
        """sigma_min(Sylv_lambda) / (||A|| (1 + |lambda|)): exact for normal A
        and for small orders, an upper-bound estimate otherwise."""
        lam = complex(lam)
        scale = self.norm_a * (1.0 + abs(lam))
        if scale == 0:
            return 0.0
        if self.mu is not None:
            return float(np.abs(self.mu[:, None] - lam * self.mu[None, :]).min()) / scale
        if self.dense:
            m = np.kron(self.eye, self.a) - lam * np.kron(self.a.T, self.eye)
            return float(np.linalg.svd(m, compute_uv=False)[-1]) / scale

        v = self.v0
        prev = None
        for _ in range(max(1, iters)):
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
            raise EmptyGridError(f"unknown grid shape {self.shape!r}")
        if self.points < 2:
            raise EmptyGridError("need at least 2 grid points")
        if not (math.isfinite(self.rmin) and math.isfinite(self.rmax)):
            raise EmptyGridError("rmin and rmax must be finite")
        if self.shape == "annulus" and not 0 < self.rmin <= self.rmax:
            raise EmptyGridError("annulus needs 0 < rmin <= rmax")
        if self.shape == "annulus" and not math.isfinite(self.rmax / self.rmin):
            raise EmptyGridError("annulus needs a finite rmax/rmin")
        if self.shape in ("circle", "disk") and not self.rmax > 0:
            raise EmptyGridError("need rmax > 0")


def make_grid(spec: GridSpec):
    """Return (points, step): a grid that never contains 0, and the largest
    nearest-neighbor spacing, which scan thresholds are measured against.

    circle   -- spec.points equally spaced on |z| = rmax
    annulus  -- log-spaced rings between rmin and rmax, ring count balancing
                radial against angular spacing
    disk     -- equally spaced rings rmax/n_r, 2 rmax/n_r, ..., rmax
    """
    n = spec.points
    if spec.shape == "circle":
        angles = 2 * np.pi * np.arange(n) / n
        pts = spec.rmax * np.exp(1j * angles)
        step = 2 * spec.rmax * math.sin(math.pi / n)
        return pts, float(step)
    if spec.shape == "annulus":
        span = math.log(spec.rmax / spec.rmin) if spec.rmax > spec.rmin else 0.0
        n_r = max(1, round(math.sqrt(n * span / (2 * math.pi)))) if span > 0 else 1
        n_t = max(2, math.ceil(n / n_r))
        radii = np.geomspace(spec.rmin, spec.rmax, n_r)
        angles = 2 * np.pi * np.arange(n_t) / n_t
        pts = (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()
        radial_gap = float(np.diff(radii).max()) if n_r > 1 else 0.0
        chord = 2 * spec.rmax * math.sin(math.pi / n_t)
        return pts, float(max(radial_gap, chord))
    # disk
    n_r = max(1, round(math.sqrt(n / 4)))
    n_t = max(2, math.ceil(n / n_r))
    radii = spec.rmax * np.arange(1, n_r + 1) / n_r
    angles = 2 * np.pi * np.arange(n_t) / n_t
    pts = (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()
    step = max(spec.rmax / n_r, 2 * spec.rmax * math.sin(math.pi / n_t))
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
    """All powers base^j whose modulus lies in [lo - pad, hi + pad]."""
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


def _scan_near_set(report: ExtScanReport, targets: np.ndarray, name: str) -> CheckRow:
    """Scan check: every flagged point within one grid step of the target set."""
    fl = report.flagged_points()
    if fl.size == 0:
        return CheckRow(name, False, math.inf, "no points flagged at all")
    if targets.size == 0:
        return CheckRow(name, False, math.inf, "empty target set")
    worst = float(ratio_distance(fl, targets).max())
    return CheckRow(name, worst <= report.step, worst, f"{fl.size} flagged points")


def _rotation_circle(w, order, points, targets):
    """The circle |lambda| = 1, 504 points, probed as ext_scan's default
    does; every flag within one step of targets(w, order)."""
    near = targets(w, order)

    def check(rep):
        return [_scan_near_set(rep, near, "scan-flags-near-powers")]

    return GridSpec("circle", points or 504, rmax=1.0), None, check


def _power_annulus(m, order, points):
    """The annulus |m|^1.5 .. 1.1/|m|, 600 points; every flag within one
    step of a power of m."""
    grid = GridSpec("annulus", points or 600, rmin=abs(m) ** 1.5, rmax=1.1 / abs(m))

    def check(rep):
        targets = _power_members(m, grid.rmin, grid.rmax, rep.step)
        return [_scan_near_set(rep, targets, "scan-flags-near-powers")]

    # sigma_min of these truncations is exponentially small (on fock the
    # truncation is triangular with entries w^n), so probing every grid
    # point would flag all of them; only the ratio-nearest points are
    # worth confirming
    return grid, 50, check


def _unit_circle_annulus(m, order, points):
    """The annulus 0.2 .. 5, 1500 points; every flag within one step of
    |lambda| = 1."""

    def check(rep):
        fl = rep.flagged_points()
        if fl.size == 0:
            worst, detail = math.inf, "no points flagged at all"
        else:
            worst = float(np.abs(np.abs(fl) - 1.0).max())
            detail = f"{fl.size} flagged points; worst distance from |lambda|=1"
        return [CheckRow("scan-flags-on-unit-circle", worst <= rep.step, worst, detail)]

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
    # the two rotations target the powers of w in different forms: every
    # w^j, |j| <= 64, on fock, and w^k, |k| < order, rounded, on bergman
    "fock-rotation": _Recipe(
        "discrete-cyclic",
        _fock_rotation_rows,
        partial(_rotation_circle, targets=lambda w, order: _power_members(w, 1.0, 1.0, 1e-9)),
        _fock_metadata,
    ),
    "fock-affine-contraction": _Recipe("discrete-cyclic", _fock_affine_rows, _power_annulus, _fock_metadata),
    "elliptic-automorphism": _Recipe(
        "discrete-cyclic",
        _elliptic_rows,
        partial(
            _rotation_circle,
            targets=lambda w, order: np.unique(np.round(w ** np.arange(-(order - 1), order), 12)),
        ),
    ),
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
    distance, Sylvester value (nan where not probed) and flag, and the ratio
    threshold and probe budget as resolved from their defaults."""

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
    A: OperatorMatrix,
    grid: GridSpec,
    sylvester_threshold: float = 1e-6,
    ratio_threshold: float | None = None,
    candidates: int | str | None = None,
    seed: int = 0,
) -> ExtScanReport:
    """Scan a grid for extended-eigenvalue candidates of a truncation.

    Flag rule: a grid point flags when its normalized Sylvester sigma_min is
    at most sylvester_threshold, or its distance to the eigenvalue ratio set
    is below ratio_threshold (default: 0.999 of the grid step, so that grid
    points adjacent to a ratio do not flag by adjacency alone).

    The Sylvester probe runs on the `candidates` grid points with the
    smallest ratio distance ("all" for every point; default: all points for
    order <= 48, else 50; none above order MAX_PROBE_ORDER), each probe at
    most 5 inverse-iteration steps.  Ratios use the strict mode of ratio_set
    when the truncation allows it, falling back to the reliability filter at
    1e-6 (recorded in notes) -- the fallback is the normal path for
    hyperbolic and parabolic symbols, whose truncations are exponentially
    singular.  The report holds what the scan measured; the caller keeps
    what it passed in.
    """
    lam, step = make_grid(grid)
    if lam.size == 0:
        raise EmptyGridError("grid has no points")
    if np.any(lam == 0):
        raise EmptyGridError("grid must exclude 0")
    notes = []
    rt = 0.999 * step if ratio_threshold is None else float(ratio_threshold)

    try:
        ratios = ratio_set(A)
    except SingularTruncationError:
        try:
            ratios = ratio_set(A, reliability_tol=1e-6)
            notes.append(
                "ratio set from reliability-filtered eigenvalues "
                "(tol=1e-06); strict mode found the truncation singular"
            )
        except SingularTruncationError:
            ratios = np.array([], dtype=complex)
            notes.append("no reliable eigenvalues; ratio distances are +inf")

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
        smin, smax = A.svdvals[-1], A.svdvals[0]
        if smin <= sylvester_threshold * smax:
            # rank-one certificate (see SylvesterProbe): every lambda flags
            sylv[chosen] = smin / smax if smax > 0 else 0.0
        else:
            probe = SylvesterProbe(A, seed=seed)
            for i in chosen:
                sylv[i] = probe.sigma_min(lam[i], iters=5)

    sylv_flag = np.where(np.isnan(sylv), np.inf, sylv) <= sylvester_threshold
    ratio_flag = rd < rt
    flagged = sylv_flag | ratio_flag

    return ExtScanReport(step, lam, rd, sylv, flagged, rt, candidates, notes)


# ---------------------------------------------------------------------------
# structural checks (finite-dimensional lemmas, exercised by random matrices)


@dataclass
class CheckRow:
    name: str
    passed: bool
    worst: float
    detail: str = ""


@dataclass
class SuiteReport:
    rows: list

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)


def _random_diagonalizable(rng: np.random.Generator, n: int, space: SpaceSpec) -> OperatorMatrix:
    """Well-conditioned diagonalizable matrix with separated eigenvalue ratios."""
    for _ in range(200):
        mu = rng.uniform(0.6, 1.8, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
        ratios = (mu[:, None] / mu[None, :]).ravel()
        d = np.abs(ratios[:, None] - ratios[None, :])
        # distinct ratios must stay at least 0.1 apart (exact duplicates fine)
        close = d[d > 1e-12]
        if close.size and close.min() < 0.1:
            continue
        v = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if np.linalg.cond(v) > 25:
            continue
        a = v @ np.diag(mu) @ np.linalg.inv(v)
        return OperatorMatrix(space, n, a, label="random-diagonalizable")
    raise RuntimeError("could not draw a separated diagonalizable matrix")


def lemma_suite(A: OperatorMatrix | None = None, seed: int = 0, draws: int = 10, size: int = 6) -> SuiteReport:
    """Exercise the ratio-set identities on random diagonalizable matrices
    (or a single provided one):

      adjoint      ratios of A* are conjugate reciprocals of ratios of A
      scaling      ratios of alpha A equal ratios of A
      membership   every flagged grid point lies near the ratio set
      direct-sum   ratios of the blocks flag in a scan of the block sum
      nonsingular  sylvester probe at 0 stays above threshold

    Distances compare against 1e-10 except where noted.
    """
    space = SpaceSpec("hardy")
    rng = np.random.default_rng(seed)
    if A is not None:
        mats = [A]
    else:
        mats = [_random_diagonalizable(rng, size, space) for _ in range(draws)]

    def _setdist(xs: np.ndarray, ys: np.ndarray) -> float:
        if xs.size == 0 and ys.size == 0:
            return 0.0
        if xs.size == 0 or ys.size == 0:
            return math.inf
        return float(max(ratio_distance(xs, ys).max(), ratio_distance(ys, xs).max()))

    rows = []
    worst_adj = worst_scale = worst_member = worst_sum = 0.0
    worst_nonsing = math.inf
    member_ok = sum_ok = True
    for idx, M in enumerate(mats):
        r = ratio_set(M)
        # adjoint: conj(1/rho)
        r_adj = ratio_set(adjoint(M))
        expected = _dedup_sorted(np.conj(1.0 / r), 1e-9)
        worst_adj = max(worst_adj, _setdist(r_adj, expected))
        # scaling
        alpha = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
        Ms = OperatorMatrix(M.space, M.order, alpha * M.entries, label="scaled")
        worst_scale = max(worst_scale, _setdist(ratio_set(Ms), r))
        # membership: scan over ratios plus decoys; flags must sit on the ratio set
        decoys = r * np.exp(1j * 0.19) * 1.07
        grid_pts = np.concatenate([r, decoys])
        probe = SylvesterProbe(M, seed=seed)
        for lam in grid_pts:
            sv = probe.sigma_min(lam)
            rdist = float(np.abs(r - lam).min())
            flag = sv <= 1e-6 or rdist <= 1e-9
            if flag:
                worst_member = max(worst_member, rdist)
                if rdist > 1e-8:
                    member_ok = False
        # direct sum: every block ratio flags in the sum's scan
        if A is None and idx % 2 == 1:
            prev = mats[idx - 1]
            S = direct_sum(prev, M)
            probe_s = SylvesterProbe(S, seed=seed)
            union = _dedup_sorted(np.concatenate([ratio_set(prev), r]), 1e-9)
            for lam in union:
                sv = probe_s.sigma_min(lam)
                worst_sum = max(worst_sum, sv)
                if sv > 1e-6:
                    sum_ok = False
        # nonsingularity of the probe at lambda = 0
        worst_nonsing = min(worst_nonsing, probe.sigma_min(0.0))

    rows.append(CheckRow("adjoint-conjugate-reciprocal", worst_adj <= 1e-10, worst_adj))
    rows.append(CheckRow("scaling-invariance", worst_scale <= 1e-10, worst_scale))
    rows.append(CheckRow("flagged-points-lie-on-ratio-set", member_ok, worst_member))
    rows.append(CheckRow("direct-sum-union-flags", sum_ok, worst_sum))
    rows.append(
        CheckRow(
            "sylvester-probe-nonsingular-at-0",
            worst_nonsing > 1e-6,
            worst_nonsing,
            "normalized sigma_min at lambda=0",
        )
    )
    return SuiteReport(rows)


# ---------------------------------------------------------------------------
# witnesses by name, and the per-class verification driver


def _sigma_power_series(c: complex, k: int, order: int) -> PowerSeries:
    coeffs = np.zeros(order, dtype=np.complex128)
    for m in range(min(k, order - 1) + 1):
        coeffs[m] = math.comb(k, m) * (-c) ** (k - m)
    return PowerSeries(coeffs)


def _interior_fixed_point(fixed_points: tuple) -> complex:
    for p in fixed_points:
        if not isinstance(p, complex):
            continue
        if abs(p) < 1.0 - 1e-9:
            return p
    raise CenterOutsideDiskError("symbol has no fixed point inside the open disk")


def build_witness(text: str, phi: LinearFractionalMap, space: SpaceSpec, order: int) -> OperatorMatrix:
    """Construct a witness operator from its textual name.

    Grammar (complex parameters in x+yi form):

        identity
        shift:k                   monomial backward shift by k
        sigma-shift:c,k           sigma-power backward shift, sigma = z - c
        qdiff:m                   D^m on fock
        qmult-shifted:tau,m       (X - tau I)^m on fock
        mult:monomial,k           M_{z^k}
        mult:binomial,w           M_{(1-z)^w}
        mult:cayley,w             M_{((1+z)/(1-z))^w}
        mult:exponential,t        M_{exp(-t (1+z)/(1-z))}
        mult:sigma-power,k        M_{(z-c)^k}, c = phi's interior fixed point
    """
    text = text.strip()
    name, _, args = text.partition(":")
    if name == "identity":
        return OperatorMatrix(space, order, np.eye(order), label="I")
    if name == "shift":
        return basis_shift_matrix(int(args), space, order)
    if name == "sigma-shift":
        c_s, k_s = args.split(",")
        return sigma_shift_matrix(parse_complex(c_s), int(k_s), space, order)
    if name == "qdiff":
        return matrix_power(quasi_diff_matrix(space, order), int(args)).relabel(
            f"D^{int(args)}"
        )
    if name == "qmult-shifted":
        tau_s, m_s = args.split(",")
        base = shifted_quasi_mult(space, parse_complex(tau_s), order)
        return matrix_power(base, int(m_s)).relabel(f"(X-{tau_s})^{m_s}")
    if name == "mult":
        family, _, param = args.partition(",")
        if family == "monomial":
            b = monomial(int(param), order)
        elif family == "binomial":
            b = binomial_power(parse_complex(param), order)
        elif family == "cayley":
            b = cayley_power(parse_complex(param), order)
        elif family == "exponential":
            b = parabolic_eigenfunction(float(param), order)
        elif family == "sigma-power":
            b = _sigma_power_series(_interior_fixed_point(classify(phi).fixed_points), int(param), order)
        else:
            raise ValueError(f"unknown multiplication family {family!r}")
        return multiplication_matrix(b, space, order).relabel(f"M[{family},{param}]")
    raise ValueError(f"unknown witness {text!r}")


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
    predicted unit circle.  Raises UnresolvedClassError for classes/spaces
    with no resolved prediction.
    """
    label, mult, fixed_points = _resolve(phi, space)
    recipe = _RECIPES[label]
    C = composition_matrix(phi, space, order)
    rows = []
    for check, text, lam, margin, threshold in recipe.rows(phi, mult, fixed_points, order):
        X = build_witness(text, phi, space, order)
        res = intertwining_residual(C, X, lam, margin)
        rows.append(VerifyRow(check, text, complex(lam), margin, res, threshold, res <= threshold))
    grid, candidates, scan_check = recipe.scan(mult, order, scan_points)
    scan_rows = scan_check(ext_scan(C, grid, candidates=candidates, seed=seed))
    return VerifyReport(str(phi), space, order, label, rows, scan_rows, recipe.predict(mult))
