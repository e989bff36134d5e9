"""Acceptance gate: nine criteria, one pass/fail line each.

Each test prints a single `[Cn] PASS/FAIL` line with per-clause detail and
then asserts every clause, so the printed verdicts and the pytest verdicts
agree.  Truncations are cached at module level because the convergence-trend
criterion re-reads the same matrices at several orders.
"""
import cmath
import math
from functools import lru_cache

import numpy as np

from compext import (
    GridSpec,
    LinearFractionalMap,
    SpaceSpec,
    basis_shift_matrix,
    binomial_power,
    build_witness,
    cayley_power,
    compose_series,
    composition_matrix,
    ext_scan,
    format_complex,
    intertwining_residual,
    matrix_power,
    multiplication_matrix,
    op_norm,
    parabolic_eigenfunction,
    quasi_diff_matrix,
    shifted_quasi_mult,
    standard_form,
    ratio_set,
)
from lemmas import lemma_suite

BERGMAN = SpaceSpec("bergman")
FOCK = SpaceSpec("fock")

W7 = cmath.exp(2j * cmath.pi / 7)
PHI_ROT = LinearFractionalMap(W7, 0, 0, 1)
PHI_AFFINE = LinearFractionalMap(0.5, 1, 0, 1)
PHI_LOX = standard_form("hyperbolic-na-3", a=0.5, c=0.2)
PHI_HA = standard_form("hyperbolic-automorphism", r=0.5)
PHI_HNA1 = standard_form("hyperbolic-na-1", r=0.5)
PHI_PA = standard_form("parabolic-automorphism", a=2j)

# series identities are checked against generator expansions long enough
# that the compose truncation error sits far below the stated tolerances
GENERATOR_FACTOR = 6


@lru_cache(maxsize=None)
def _matrix(tag: str, order: int):
    phi, space = {
        "rot-fock": (PHI_ROT, FOCK),
        "affine-fock": (PHI_AFFINE, FOCK),
        "rot-bergman": (PHI_ROT, BERGMAN),
        "lox": (PHI_LOX, BERGMAN),
        "ha": (PHI_HA, BERGMAN),
        "hna1": (PHI_HNA1, BERGMAN),
        "pa": (PHI_PA, BERGMAN),
    }[tag]
    return composition_matrix(phi, space, order)


def _report(cid: str, clauses):
    ok = all(c[1] for c in clauses)
    detail = "; ".join(
        f"{name} {'ok' if good else 'FAIL'} ({val:.3e})" for name, good, val in clauses
    )
    line = f"[{cid}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def _circular_clusters(flag_idx: np.ndarray, npts: int) -> int:
    if flag_idx.size == 0:
        return 0
    present = np.zeros(npts, dtype=bool)
    present[flag_idx] = True
    breaks = int(np.sum(present & ~np.roll(present, 1)))
    return breaks


def _fixed_block_residual(tag: str, phi, block: int, witnesses, order: int = 256) -> float:
    """Worst residual of (witness text, lambda) pairs, read on the leading
    block x block corner of order-`order` truncations.

    C_phi is not banded for the hyperbolic and parabolic symbols, so a block
    that grows with the order keeps the same share of coupling to the
    discarded columns; a fixed block converges as the order grows.
    """
    C = _matrix(tag, order)
    return max(
        intertwining_residual(
            C, build_witness(text, phi, BERGMAN, order), lam, margin=order - block
        )
        for text, lam in witnesses
    )


def _circle_coverage(report, npts: int = 64) -> float:
    """Largest distance from npts equally spaced points of |lam| = 1 to a flag."""
    fl = report.flagged_points()
    if fl.size == 0:
        return math.inf
    circle = np.exp(2j * np.pi * np.arange(npts) / npts)
    return float(np.abs(circle[:, None] - fl[None, :]).min(axis=1).max())


# ---------------------------------------------------------------------------


def test_c1_elliptic_fock():
    n = 48
    C = _matrix("rot-fock", n)
    D = quasi_diff_matrix(FOCK, n)
    clauses = []
    worst_shift = worst_diff = 0.0
    for k in range(1, 6):
        lam = W7 ** (-k)
        worst_shift = max(
            worst_shift,
            intertwining_residual(C, basis_shift_matrix(k, FOCK, n), lam),
        )
        worst_diff = max(
            worst_diff,
            intertwining_residual(C, matrix_power(D, k), lam, margin=k),
        )
    clauses.append(("shift residuals <= 1e-12", worst_shift <= 1e-12, worst_shift))
    clauses.append(("qdiff residuals <= 1e-12", worst_diff <= 1e-12, worst_diff))

    rep = ext_scan(C, GridSpec("circle", 504, rmax=1.0))
    roots = W7 ** np.arange(7)
    fl = rep.flagged_points()
    d_to_roots = np.abs(fl[:, None] - roots[None, :]).min(axis=1)
    cover = np.abs(roots[:, None] - fl[None, :]).min(axis=1)
    nclusters = _circular_clusters(np.where(rep.flagged)[0], 504)
    confined = fl.size > 0 and d_to_roots.max() <= rep.step
    covered = cover.max() <= rep.step
    clauses.append(("flags confined to 7 roots", confined, float(d_to_roots.max())))
    clauses.append(("all 7 roots flagged", covered, float(cover.max())))
    clauses.append(("exactly 7 clusters", nclusters == 7, float(nclusters)))
    _report("C1", clauses)


def test_c2_affine_fock():
    n = 64
    C = _matrix("affine-fock", n)
    clauses = []
    r = intertwining_residual(C, quasi_diff_matrix(FOCK, n), 2.0, margin=1)
    clauses.append(("qdiff residual <= 1e-10", r <= 1e-10, r))
    Xs = shifted_quasi_mult(FOCK, 2.0, n)
    worst = 0.0
    for k in (1, 2, 3):
        worst = max(
            worst,
            intertwining_residual(C, matrix_power(Xs, k), 2.0 ** (-k), margin=k),
        )
    clauses.append(("shifted-mult residuals <= 1e-9", worst <= 1e-9, worst))

    rs = ratio_set(C, filtered=True)
    expo = np.round(np.log2(np.abs(rs)))
    dist = np.abs(rs - 2.0**expo).max()
    clauses.append(("ratios within 1e-8 of powers of 2", dist <= 1e-8, float(dist)))
    present = {int(e) for e in expo}
    clauses.append(
        ("ratios include 2^-1, 2^0, 2^1", {-1, 0, 1} <= present, float(len(present)))
    )
    _report("C2", clauses)


def test_c3_elliptic_bergman():
    n = 48
    C = _matrix("rot-bergman", n)
    clauses = []
    worst_shift = worst_mult = 0.0
    for k in range(1, 6):
        worst_shift = max(
            worst_shift,
            intertwining_residual(C, basis_shift_matrix(k, BERGMAN, n), W7 ** (-k)),
        )
        Xk = build_witness(f"mult:monomial,{k}", PHI_ROT, BERGMAN, n)
        worst_mult = max(
            worst_mult, intertwining_residual(C, Xk, W7**k, margin=k)
        )
    # "exact zero" reads as exact up to float roundoff of w^i - w^-k w^(i+k)
    clauses.append(("shift residuals at machine zero", worst_shift <= 5e-15, worst_shift))
    clauses.append(("monomial-mult residuals <= 1e-12", worst_mult <= 1e-12, worst_mult))
    _report("C3", clauses)


def test_c4_loxodromic_bergman():
    n = 64
    a, c = 0.5, 0.2
    C = _matrix("lox", n)
    clauses = []
    worst_s = worst_m = 0.0
    for k in (1, 2, 3):
        S = build_witness(f"sigma-shift:{c},{k}", PHI_LOX, BERGMAN, n)
        worst_s = max(
            worst_s, intertwining_residual(C, S, a ** (-k), margin=k)
        )
        M = build_witness(f"mult:sigma-power,{k}", PHI_LOX, BERGMAN, n)
        worst_m = max(worst_m, intertwining_residual(C, M, a**k, margin=k))
    clauses.append(("sigma-shift residuals <= 1e-10", worst_s <= 1e-10, worst_s))
    clauses.append(("sigma-power residuals <= 1e-10", worst_m <= 1e-10, worst_m))

    rep = ext_scan(C, GridSpec("annulus", 1200, 0.35, 2.2))
    powers = np.array([a**j for j in range(-6, 7)], dtype=complex)
    in_range = powers[(np.abs(powers) >= 0.35) & (np.abs(powers) <= 2.2)]
    fl = rep.flagged_points()
    # confinement is against every power (flags may hug a power sitting just
    # outside the grid radii); coverage only asks for the reachable ones
    conf = np.abs(fl[:, None] - powers[None, :]).min(axis=1).max()
    cover = np.abs(in_range[:, None] - fl[None, :]).min(axis=1).max()
    clauses.append(("flags near powers of a", conf <= rep.step, float(conf)))
    clauses.append(("in-range powers flagged", cover <= rep.step, float(cover)))
    _report("C4", clauses)


def test_c5_hyperbolic_automorphism_bergman():
    """Predicted extended spectrum: the unit circle.

    Inclusion is confirmed by the Cayley witnesses at lambda = 3^w (w = i,
    2i, -i) and by scan flags covering the circle.  A truncation cannot
    confirm the exclusion half (no lambda off the circle is an extended
    eigenvalue): its eigenvalue ratios are genuine extended eigenvalues of
    the matrix, many of them off the circle.  That half is checked only
    through the witness-norm contrast: compressions of the bounded M_g for
    w = i stay below sup|g| = e^(pi/2), while those for w = 0.3+i
    (|lambda| = 3^0.3) grow without bound as the order doubles.
    """
    n = 64
    C = _matrix("ha", n)
    clauses = []

    worst = 0.0
    for w in (1j, 2j, -1j):
        g = cayley_power(w, GENERATOR_FACTOR * n)
        composed = compose_series(g, PHI_HA, n)
        target = complex(3.0) ** w * cayley_power(w, n)
        worst = max(worst, np.abs(composed[:32] - target[:32]).max())
    clauses.append(("series identity (32 coeffs) <= 1e-8", worst <= 1e-8, worst))

    worst_r = _fixed_block_residual(
        "ha", PHI_HA, 32,
        [(f"mult:cayley,{format_complex(w)}", complex(3.0) ** w) for w in (1j, 2j, -1j)],
    )
    clauses.append(
        ("cayley-mult residuals <= 1e-6 on 32x32 block at K=256", worst_r <= 1e-6, worst_r)
    )

    orders = (64, 128, 256, 512)
    on = [op_norm(build_witness("mult:cayley,1i", PHI_HA, BERGMAN, k)) for k in orders]
    off = [op_norm(build_witness("mult:cayley,0.3+1i", PHI_HA, BERGMAN, k)) for k in orders]
    clauses.append(
        ("w=i witness norm <= e^(pi/2)", max(on) <= math.exp(math.pi / 2), max(on))
    )
    growth = min(b / a for a, b in zip(off, off[1:]))
    clauses.append(("w=0.3+i witness norm grows >= 1.15x per doubling", growth >= 1.15, growth))

    rep = ext_scan(C, GridSpec("annulus", 2000, 0.2, 5.0))
    cover = _circle_coverage(rep)
    clauses.append(("64 points of |lam|=1 flagged", cover <= rep.step, cover))
    _report("C5", clauses)


def test_c6_affine_contraction_bergman():
    n = 128
    C = _matrix("hna1", n)
    clauses = []

    worst = 0.0
    for w in (1.0, 2.0, 0.5 + 3j):
        g = binomial_power(w, GENERATOR_FACTOR * n)
        composed = compose_series(g, PHI_HNA1, n)
        target = 0.5 ** complex(w) * binomial_power(w, n)
        worst = max(worst, np.abs(composed[:64] - target[:64]).max())
    clauses.append(("series identity (64 coeffs) <= 1e-9", worst <= 1e-9, worst))

    worst_r = _fixed_block_residual(
        "hna1", PHI_HNA1, 64,
        [(f"mult:binomial,{format_complex(complex(w))}", 0.5 ** complex(w))
         for w in (1.0, 2.0, 0.5 + 3j)],
    )
    clauses.append(
        ("binomial-mult residuals <= 1e-6 on 64x64 block at K=256", worst_r <= 1e-6, worst_r)
    )

    rep = ext_scan(C, GridSpec("disk", 600, rmax=1.0), candidates="all")
    fl = rep.flagged_points()
    inside = fl.size > 0 and np.abs(fl).max() <= 1.0 + rep.step
    clauses.append(
        ("flags inside closed disk", inside, float(np.abs(fl).max() if fl.size else 0))
    )
    samples = np.array([0.5 ** complex(w) for w in (1.0, 2.0, 0.5 + 3j)])
    present = np.abs(samples[:, None] - fl[None, :]).min(axis=1).max()
    clauses.append(("interior sample points flagged", present <= rep.step, float(present)))
    _report("C6", clauses)


def test_c7_parabolic_automorphism_bergman():
    """Predicted extended spectrum: the unit circle.

    Inclusion is confirmed by the exponential witnesses at lambda = e^(-2it)
    (t = 1, 2) and by scan flags covering the circle.  The exclusion half is
    not checked: the truncation's off-circle eigenvalue ratios are genuine
    extended eigenvalues of the matrix, and the exponential family has no
    off-circle member (it takes only real t >= 0) to contrast with.
    """
    n = 64
    C = _matrix("pa", n)
    clauses = []

    worst = 0.0
    for t in (0.0, 1.0, 2.0):
        g = parabolic_eigenfunction(t, GENERATOR_FACTOR * n)
        composed = compose_series(g, PHI_PA, n)
        target = cmath.exp(-2j * t) * parabolic_eigenfunction(t, n)
        worst = max(worst, np.abs(composed[:32] - target[:32]).max())
    clauses.append(("series identity (32 coeffs) <= 1e-7", worst <= 1e-7, worst))

    worst_r = _fixed_block_residual(
        "pa", PHI_PA, 32,
        [(f"mult:exponential,{t}", cmath.exp(-2j * t)) for t in (1.0, 2.0)],
        order=512,
    )
    clauses.append(
        ("exponential-mult residuals <= 1e-6 on 32x32 block at K=512", worst_r <= 1e-6, worst_r)
    )

    rep = ext_scan(C, GridSpec("annulus", 2000, 0.2, 5.0))
    cover = _circle_coverage(rep)
    clauses.append(("64 points of |lam|=1 flagged", cover <= rep.step, cover))
    _report("C7", clauses)


def test_c8_lemma_suite():
    report = lemma_suite(seed=0, draws=10, size=6)
    clauses = [(row.name, row.passed, row.worst) for row in report.rows]
    _report("C8", clauses)


def test_c9_convergence_trend():
    floor = 1e-14
    clauses = []

    def trend(name, values, shrink=1.0):
        ok = all(b <= a / shrink or b <= floor for a, b in zip(values, values[1:]))
        clauses.append((name, ok, values[-1]))

    # criterion 2 witnesses
    res = {}
    for n in (32, 64):
        C = _matrix("affine-fock", n)
        vals = [intertwining_residual(C, quasi_diff_matrix(FOCK, n), 2.0, margin=1)]
        Xs = shifted_quasi_mult(FOCK, 2.0, n)
        vals += [
            intertwining_residual(C, matrix_power(Xs, k), 2.0 ** (-k), margin=k)
            for k in (1, 2, 3)
        ]
        res[n] = vals
    for i, tag in enumerate(["qdiff", "xs1", "xs2", "xs3"]):
        trend(f"affine-fock {tag}", [res[32][i], res[64][i]])

    # criterion 4 witnesses
    res = {}
    for n in (32, 64):
        C = _matrix("lox", n)
        vals = []
        for k in (1, 2, 3):
            S = build_witness(f"sigma-shift:0.2,{k}", PHI_LOX, BERGMAN, n)
            vals.append(intertwining_residual(C, S, 0.5 ** (-k), margin=k))
        for k in (1, 2, 3):
            M = build_witness(f"mult:sigma-power,{k}", PHI_LOX, BERGMAN, n)
            vals.append(intertwining_residual(C, M, 0.5**k, margin=k))
        res[n] = vals
    for i, tag in enumerate(["s1", "s2", "s3", "m1", "m2", "m3"]):
        trend(f"lox {tag}", [res[32][i], res[64][i]])

    # criterion 5 and 6 witnesses whose C_phi is not banded are read on the
    # fixed blocks C5 and C6 use: a block that grows with N keeps the same
    # share of coupling to the discarded columns and never converges.  On a
    # fixed block an exact witness falls to roundoff, while a wrong lambda
    # levels off at its true residual (slowly decreasing, 1.41 -> 1.36 for
    # lambda = 3^-i), so these rows ask for a 10x fall per doubling
    ha = [
        _fixed_block_residual("ha", PHI_HA, 32, [("mult:cayley,1i", complex(3.0) ** 1j)], order=k)
        for k in (64, 128, 256)
    ]
    trend("ha cayley-mult 32x32 block", ha, shrink=10.0)

    # criterion 6 witnesses, through order 128
    res = {}
    for n in (32, 64, 128):
        C = _matrix("hna1", n)
        vals = []
        for w in (1.0, 2.0):
            X = build_witness(
                f"mult:binomial,{format_complex(complex(w))}", PHI_HNA1, BERGMAN, n
            )
            vals.append(intertwining_residual(C, X, 0.5 ** complex(w), margin=n // 2))
        res[n] = vals
    for i, tag in enumerate(["w=1", "w=2"]):
        trend(f"hna1 binomial {tag}", [res[32][i], res[64][i], res[128][i]])
    w = 0.5 + 3j
    hna1 = [
        _fixed_block_residual(
            "hna1", PHI_HNA1, 64, [(f"mult:binomial,{format_complex(w)}", 0.5**w)], order=k
        )
        for k in (128, 256)
    ]
    trend("hna1 binomial w=0.5+3i 64x64 block", hna1, shrink=10.0)

    _report("C9", clauses)
