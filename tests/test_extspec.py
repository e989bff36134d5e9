"""Tests for ratio sets, Sylvester probes, grids, scans, and the verification
suites.

Dense Sylvester reference values were computed from the full Kronecker matrix
with scipy.linalg.svdvals; the probe reports sigma_min / (||A|| (1 + |lam|)),
so the frozen raw values are normalized the same way inside the assertions.
"""
import cmath
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compext import (
    DomainError,
    GridSpec,
    LinearFractionalMap,
    OperatorMatrix,
    SingularTruncationError,
    SpaceSpec,
    SylvesterProbe,
    UnresolvedClassError,
    basis_shift_matrix,
    build_witness,
    classify,
    composition_matrix,
    ext_scan,
    format_complex,
    format_lft,
    intertwining_residual,
    make_grid,
    op_norm,
    predicted_ext,
    ratio_distance,
    ratio_set,
    standard_form,
    verify_theorem_suite,
)
from compext.cli import main
from compext.extspec import (
    GRID_SHAPES,
    WITNESSES,
    _BLOCK,
    _by_argument,
    _dedup_sorted,
    _power_members,
    _rotation_circle,
    reliable,
)
import draws
from lemmas import lemma_suite

HARDY = SpaceSpec("hardy")
BERGMAN = SpaceSpec("bergman")
FOCK = SpaceSpec("fock")


def _op(entries, space=HARDY, label="test"):
    entries = np.asarray(entries, dtype=complex)
    return OperatorMatrix(space, entries.shape[0], entries, label)


def _diagonalizable(mu, seed=0, cond_target=5.0):
    rng = np.random.default_rng(seed)
    n = len(mu)
    while True:
        V = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if np.linalg.cond(V) < cond_target * n:
            break
    return _op(V @ np.diag(mu) @ np.linalg.inv(V))


# ---------------------------------------------------------------------------
# ratio sets


def test_ratio_set_matches_brute_force():
    rng = np.random.default_rng(21)
    for trial in range(8):
        mu = rng.uniform(0.5, 2.0, size=5) * np.exp(2j * np.pi * rng.random(5))
        A = _diagonalizable(mu, seed=trial)
        got = ratio_set(A)
        want = np.array(sorted({complex(a / b) for a in mu for b in mu},
                               key=lambda z: (z.real, z.imag)))
        # dedup tolerances differ slightly; compare as symmetric set distance
        assert np.abs(got[:, None] - want[None, :]).min(axis=1).max() < 1e-7
        assert np.abs(want[:, None] - got[None, :]).min(axis=1).max() < 1e-7


def test_ratio_set_contains_one_and_reciprocals():
    A = _diagonalizable([1.0, 0.7j, -1.3], seed=3)
    rs = ratio_set(A)
    assert np.abs(rs - 1.0).min() < 1e-9
    for r in rs:
        assert np.abs(rs - 1 / r).min() < 1e-7


def test_ratio_set_singular_truncation_raises():
    A = _op(np.diag([1.0, 0.5, 0.0]))
    with pytest.raises(SingularTruncationError):
        ratio_set(A)


def test_ratio_set_reliability_filter_drops_noise_eigenvalues():
    A = _op(np.diag([1.0, 0.5, 0.0]))
    rs = ratio_set(A, filtered=True)
    np.testing.assert_allclose(sorted(rs.real), [0.5, 1.0, 2.0], atol=1e-12)


def test_ratio_set_with_no_reliable_eigenvalue_is_empty():
    # on Fock 0.1 z + 3 with alpha = 10 at n = 8 no eigenvalue passes the
    # filter: the empty set is a value, not an error
    C = composition_matrix(LinearFractionalMap(0.1, 3, 0, 1), SpaceSpec("fock", alpha=10), 8)
    rs = ratio_set(C, filtered=True)
    assert rs.shape == (0,) and rs.dtype == np.complex128


@pytest.mark.filterwarnings("error")
def test_zero_matrix_has_no_reliable_eigenvalue():
    # its error estimates are eps ||A|| = 0, so err <= tol |mu| reads 0 <= 0;
    # a zero eigenvalue is never trusted, so no 0/0 ratio is made
    Z = _op(np.zeros((8, 8)))
    assert not reliable(Z).any()
    assert ratio_set(Z, filtered=True).shape == (0,)
    rep = ext_scan(Z, GridSpec("circle", 16, rmax=1.0))
    assert np.all(rep.ratio_dist == np.inf)
    assert "no reliable eigenvalues; ratio distances are +inf" in rep.notes


def test_reliable_ratios_of_affine_symbol_are_powers():
    # triangular truncation: raw eigenvalue ratios drift, but the reliable
    # subset reproduces integer powers of the derivative exactly
    C = composition_matrix(LinearFractionalMap(0.5, 1, 0, 1), FOCK, 32)
    rs = ratio_set(C, filtered=True)
    assert rs.size == 25  # 13 reliable eigenvalues, exponents -12..12
    expo = np.round(np.log2(np.abs(rs))).astype(int)
    assert expo.min() == -12 and expo.max() == 12
    np.testing.assert_allclose(rs, 2.0 ** expo.astype(float), atol=1e-10)


def _naive_distance(lam, ratios):
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    return np.array([np.abs(z - ratios).min() for z in lam])


def test_ratio_distance_matches_brute_force():
    # bit for bit, not to a tolerance
    rng = np.random.default_rng(4)
    ratios = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    lam = rng.standard_normal(23) + 1j * rng.standard_normal(23)
    got = ratio_distance(lam, ratios)
    assert np.array_equal(got, np.abs(lam[:, None] - ratios[None, :]).min(axis=1))
    # a 700 x 200 grid is 140,000 differences: several blocks
    ratios = rng.standard_normal(200) + 1j * rng.standard_normal(200)
    lam = 2 * (rng.standard_normal(700) + 1j * rng.standard_normal(700))
    assert np.array_equal(ratio_distance(lam, ratios), _naive_distance(lam, ratios))
    # more ratios than one block holds: one grid point per block
    many = rng.standard_normal(70_000) + 1j * rng.standard_normal(70_000)
    assert np.array_equal(ratio_distance(lam[:5], many), _naive_distance(lam[:5], many))
    # duplicated ratios, a ratio on a grid point, and exact ties
    dup = np.array([1.0, 1.0, -1.0, 1j, 1j, -1j], dtype=complex)
    pts = np.array([0.0, 1.0, 0.5 + 0.5j, 2.0, 1j], dtype=complex)
    got = ratio_distance(pts, dup)
    assert np.array_equal(got, _naive_distance(pts, dup))
    assert got[0] == 1.0 and got[1] == 0.0 and got[4] == 0.0
    # a scalar lambda and an empty ratio set
    assert np.array_equal(ratio_distance(0.3 + 0.1j, ratios), _naive_distance(0.3 + 0.1j, ratios))
    empty = ratio_distance(pts, np.array([], dtype=complex))
    assert empty.shape == pts.shape and np.all(np.isinf(empty))


def test_ratio_distance_coerces_the_ratio_set_like_lambda():
    # lists, a numpy scalar and a 0-d array are ratio sets too
    assert np.array_equal(ratio_distance([0.5, 1j], [1, 2j]), [0.5, 1.0])
    assert np.array_equal(ratio_distance([0.5, 2.0], np.complex128(1j)), np.abs(np.array([0.5, 2.0]) - 1j))
    assert np.array_equal(ratio_distance(3.0, np.array(1.0)), [2.0])


def _formula(lam, ratios):
    return np.abs(lam[:, None] - ratios[None, :]).min(axis=1)


_SPECIALS = (math.nan, math.inf, -math.inf)


def _values(rng, n, scale, on_lattice, specials):
    """n complex values: integer lattice points times scale (duplicates, ties,
    points on ratios) or uniform ones, and `specials` entries with a nan or an
    infinity in the real or the imaginary part."""
    if on_lattice:
        re, im = rng.integers(-8, 9, n) * scale, rng.integers(-8, 9, n) * scale
    else:
        re, im = rng.uniform(-8, 8, n) * scale, rng.uniform(-8, 8, n) * scale
    z = re + 1j * im
    for i in rng.integers(0, n, min(specials, n)):
        bad = _SPECIALS[rng.integers(3)]
        z[i] = complex(bad, z[i].imag) if rng.integers(2) else complex(z[i].real, bad)
    return z


# sizes reach 400 x 400, past the one-block limit of 2**16 differences, so
# that the tiles are drawn as well as the single block
@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    n_lam=st.integers(0, 400),
    n_rat=st.integers(0, 400),
    lam_scale=st.sampled_from([5e-324, 1e-310, 1e-300, 1e-8, 1.0, 3e5, 1e300, 2e307]) | st.floats(5e-324, 1e300),
    rat_scale=st.sampled_from([5e-324, 1e-310, 1.0, 1e300, 2e307]) | st.floats(5e-324, 1e300),
    lattice=st.tuples(st.booleans(), st.booleans()),
    specials=st.tuples(st.sampled_from([0, 0, 0, 1, 3]), st.sampled_from([0, 0, 0, 1, 3])),
    seed=st.integers(0, 2**32 - 1),
)
def test_ratio_distance_is_the_formula_bit_for_bit(n_lam, n_rat, lam_scale, rat_scale, lattice, specials, seed):
    rng = np.random.default_rng(seed)
    lam = _values(rng, n_lam, lam_scale, lattice[0], specials[0])
    ratios = _values(rng, n_rat, rat_scale, lattice[1], specials[1])
    with np.errstate(invalid="ignore"):  # inf - inf, as in the formula
        got = ratio_distance(lam, ratios)
        want = _formula(lam, ratios) if n_rat else np.full(n_lam, np.inf)
    assert got.shape == (n_lam,)
    # array_equal with equal_nan: nan where the formula gives nan, and every other value bit for bit
    assert np.array_equal(got, want, equal_nan=True)


def _rotation_powers(turns):
    return cmath.exp(2j * math.pi * turns) ** np.arange(-255, 256)


def test_ratio_distance_full_scale_grids():
    # every grid shape at the CLI's 4096 points against the two ratio-set
    # shapes of the spectral-limit workload: a rotation's w^k, |k| < 256, on
    # the unit circle (three angles), and a scattered parabolic-like set,
    # moduli 0.05..11
    rng = np.random.default_rng(11)
    scattered = np.exp(rng.uniform(math.log(0.05), math.log(11), 8000) + 2j * math.pi * rng.random(8000))
    sets = [_rotation_powers(turns) for turns in ((math.sqrt(5) - 1) / 2, 0.137035, -0.41)] + [scattered]
    # each shape at its defaults, and the spectral-limit pool's annulus
    for spec in [GridSpec(shape, 4096) for shape in GRID_SHAPES] + [GridSpec("annulus", 4096, rmin=0.5, rmax=2.0)]:
        lam, _ = make_grid(spec)
        for ratios in sets:
            assert np.array_equal(ratio_distance(lam, ratios), _naive_distance(lam, ratios)), spec


def test_rotation_scans_measure_few_differences(monkeypatch):
    # the 4096-point disk against the 511 ratios w^k of a rotation: each point
    # is measured against the ratios next to its argument, and the tile walk
    # only where the bound leaves one, so far fewer than the 2,093,056
    # differences of the formula are taken
    import compext.extspec as extspec

    counted = []
    nearest = extspec._nearest

    def counting(lam, ratios):
        counted.append(lam.size * ratios.size)
        return nearest(lam, ratios)

    monkeypatch.setattr(extspec, "_nearest", counting)
    lam, _ = make_grid(GridSpec("disk", 4096))
    ratios = _rotation_powers((math.sqrt(5) - 1) / 2)
    ratio_distance(lam, ratios)
    window = lam.size * 2 * extspec._NEIGHBOURS
    assert sum(counted) + window <= lam.size * ratios.size // 6


def _assert_formula(lam, ratios):
    got = ratio_distance(lam, ratios)
    want = np.concatenate([_formula(lam[i : i + 512], ratios) for i in range(0, lam.size, 512)])
    assert np.array_equal(got, want)


def _edge_case(name):
    """(points, ratios) of one case the argument pass must get bit for bit."""
    powers = _rotation_powers((math.sqrt(5) - 1) / 2)
    disk, _ = make_grid(GridSpec("disk", 4096))
    circle, _ = make_grid(GridSpec("circle", 4096))
    rng = np.random.default_rng(3)
    if name.startswith("pi"):
        # arguments of exactly +pi and -pi: -x + 0.0j and -x - 0.0j
        sr, sp = (0.0 if sign == "+" else -0.0 for sign in name[2:])
        ratios = np.concatenate((powers, [complex(-1, sr)]))
        ends = np.array([complex(-x, sp) for x in np.linspace(0.01, 3, 64)])
        return np.concatenate((disk, ends)), ratios
    if name == "moduli-1+-1e-12":
        return np.concatenate((disk, circle)), powers * (1 + 1e-12 * rng.choice([-1, 1], powers.size))
    if name == "near-0":
        return 1e-3 * np.concatenate((disk, rng.random(64) * np.exp(2j * math.pi * rng.random(64)))), powers
    if name == "ring-through-ratios":
        return np.concatenate((circle, powers, powers * (1 + 1e-15))), powers
    if name == "three-ratios":
        # fewer ratios than a window holds; past one block only at 21846 points
        return np.concatenate([r * disk for r in range(1, 7)]), powers[:3]
    if name == "duplicated-ratios":
        return disk, np.concatenate((powers, powers, powers[:7], _rotation_powers(0.37)))
    if name == "past-float-range":
        # every distance overflows to inf, so each tile's second pass measures
        # the whole set and still leaves its largest distance at w = inf
        jitter = 1e306 * (rng.random(4116) + 1j * rng.random(4116))
        return 1e308 + jitter[:4096], -1e308 - jitter[4096:]
    if name == "concentric-rings":
        # one on the other's angles, one between them
        return np.concatenate((disk, 2 * disk)), np.concatenate((powers, 1.5 * powers, 0.5 * powers * cmath.exp(0.003j)))
    # every sixth of 512 equally spaced ratios moved out to radius 1.05: on
    # that circle a moved ratio is nearest while three nearer in argument sit
    # on the inner ring
    ring = np.exp(2j * math.pi * np.arange(512) / 512)
    ring[::6] *= 1.05
    return 1.05 * circle, ring


@pytest.mark.parametrize("name", ["pi++", "pi+-", "pi-+", "pi--", "moduli-1+-1e-12", "near-0",
                                  "ring-through-ratios", "three-ratios", "duplicated-ratios", "past-float-range",
                                  "concentric-rings", "nearest-third-by-argument"])
def test_ratio_distance_by_argument_edge_cases(name):
    # past-float-range: the formula overflows too, and the bound's margin is inf - inf
    with np.errstate(over="ignore", invalid="ignore"):
        _assert_formula(*_edge_case(name))


@pytest.mark.parametrize("points, ratios", [(1e-120, 1e-120), (1e120, 1e120), (1e-310, 1.0)],
                         ids=["ratios-of-modulus-1e-120", "ratios-of-modulus-1e120", "subnormal-points"])
def test_argument_bound_is_trusted_only_in_the_safe_range(points, ratios):
    # white box: outside _SAFE the bound's products, squares and margin may
    # under- or overflow, so the argument pass certifies no point and the
    # tile walk measures them all, bit for bit the formula
    disk, _ = make_grid(GridSpec("disk", 4096))
    lam, rs = points * disk, ratios * np.exp(2j * math.pi * np.arange(64) / 64)
    _, rest = _by_argument(lam, rs)
    assert np.array_equal(rest, np.arange(lam.size))
    _assert_formula(lam, rs)


def _window_case(alpha, delta, band):
    """(point, ratios, lower, upper): the point e^{i alpha}, and ratios for
    which the argument bound at it reads sin(delta), as _by_argument computes
    it: the ratio just outside the point's window above sits at the bound's
    minimizer cos(delta) e^{i(alpha + delta)}, the one below at twice the
    angle, the window's others at modulus 0.3.  The window's nearest ratio
    is placed at the middle of band(bound, d, margin) = (lower, upper), d
    being the computed distance to the minimizer and margin the absolute
    one, 1e-12 (|point| + the largest modulus)."""
    lam = cmath.exp(1j * alpha)
    q_out = math.cos(delta) * cmath.exp(1j * (alpha + delta))
    turns = delta * np.array([0.25, 0.5, -0.25, -0.5, -0.75, -2.0])
    far = -np.exp(1j * (alpha + np.linspace(-0.5, 0.5, 17)))  # far in argument, at modulus 1
    rs = np.concatenate((0.3 * np.exp(1j * (alpha + turns)), [q_out], far))
    bound = abs(lam) * float(np.sin(np.angle(q_out) - np.angle(lam)))
    margin = 1e-12 * (abs(lam) + float(np.abs(rs).max()))
    lower, upper = band(bound, abs(lam - q_out), margin)
    # the window's nearest, a little above the point in argument
    nearest = lam - (lower + upper) / 2 * cmath.exp(1j * (alpha - 0.1))
    return lam, np.append(rs, nearest), lower, upper


_MARGIN_BANDS = {
    # a window distance that the bound less the absolute margin alone would certify
    "relative": (0.0, 0.5, lambda bound, d, margin: (bound * (1 - 1e-12) - margin, bound - margin)),
    # one that the bound less the relative margin alone would certify
    "absolute": (0.0, 0.5, lambda bound, d, margin: (bound - margin, bound * (1 - 1e-12))),
    # found by a search over alpha: the computed angle of the point is off
    # by an ulp of 2.6, which at delta = 1e-4 puts the computed bound 13,405
    # ulps above the computed distance to the minimizer; a bound with no
    # margin would certify the window's nearest, which is not the nearest
    "no-margin-certifies-a-wrong-minimum": (2.600154193064055, 1e-4, lambda bound, d, margin: (d, bound)),
}


@pytest.mark.parametrize("name", list(_MARGIN_BANDS))
def test_argument_bound_margins_leave_their_bands_to_the_tile_walk(name):
    # white box: the point's window distance lies in a band that the margins
    # of the bound keep uncertified, so the argument pass leaves the point to
    # the tile walk, and ratio_distance stays bit for bit the formula
    point, rs, lower, upper = _window_case(*_MARGIN_BANDS[name])
    disk, _ = make_grid(GridSpec("disk", 4096))
    lam = np.append(disk, point)
    out, rest = _by_argument(lam, rs)
    assert lower < out[-1] < upper
    assert rest[-1] == lam.size - 1
    _assert_formula(lam, rs)
    if name.startswith("no-margin"):
        assert _formula(lam[-1:], rs)[0] < out[-1]  # the window's nearest is not the nearest


def test_ratio_distance_past_one_block_of_points():
    # more points than one _BLOCK, which the argument pass once measured in
    # chunks: a rotation's ratios, where the window certifies most points,
    # and a dense set, where the tile walk measures most
    lam, _ = make_grid(GridSpec("annulus", 70000, rmin=0.5, rmax=2.0))
    assert lam.size > _BLOCK
    rng = np.random.default_rng(7)
    dense = rng.uniform(-2, 2, 400) + 1j * rng.uniform(-2, 2, 400)
    for ratios, certified in ((_rotation_powers(0.137035), True), (dense, False)):
        _, rest = _by_argument(lam, ratios)
        assert (rest.size < lam.size // 2) == certified
        _assert_formula(lam, ratios)


def test_ratio_distance_temporaries_stay_capped():
    # numpy reports its buffers to tracemalloc; every abs temporary holds at
    # most 2**16 differences (1.5 MiB with the complex differences), so the
    # peak stays under 2 MiB even where a tile's candidates are most of the
    # set (the annulus lies far outside the ratios), and for a rotation's
    # ratio set, which the argument pass measures
    rng = np.random.default_rng(5)
    scattered = np.exp(rng.uniform(math.log(0.05), math.log(11), 11557) + 2j * math.pi * rng.random(11557))
    rotation = _rotation_powers((math.sqrt(5) - 1) / 2)
    for ratios in (scattered, rotation):
        for spec in (GridSpec("disk", 4096), GridSpec("annulus", 4096, rmin=3.0, rmax=40.0),
                     GridSpec("annulus", 4096, rmin=0.5, rmax=2.0)):
            lam, _ = make_grid(spec)
            tracemalloc.start()
            try:
                ratio_distance(lam, ratios)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2 * 2**20, (ratios.size, spec, peak)


# values on a 0.05 lattice, or anywhere, so that many pairs fall within
# DEDUP_TOL, exactly on it, or across cell boundaries
_coords = st.integers(-6, 6).map(lambda k: 0.05 * k) | st.floats(-0.4, 0.4)
_points = st.builds(complex, _coords, _coords)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(_points, max_size=40), st.lists(_points, min_size=1, max_size=12))
def test_ratio_distance_equals_oracle_on_random_sets(ratios, lam):
    ratios, lam = np.array(ratios, dtype=complex), np.array(lam, dtype=complex)
    got = ratio_distance(lam, ratios)
    if ratios.size == 0:
        assert np.all(np.isinf(got))
    else:
        assert np.array_equal(got, _naive_distance(lam, ratios))


DEDUP_TOL = 0.1


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(_points, max_size=60), st.randoms(use_true_random=False))
def test_dedup_properties(values, rnd):
    vals = np.array(values, dtype=complex)
    out = _dedup_sorted(vals, DEDUP_TOL)
    # a subset of the input
    assert all(z in values for z in out.tolist())
    # no two outputs within tol
    if out.size > 1:
        d = np.abs(out[:, None] - out[None, :])
        assert d[~np.eye(out.size, dtype=bool)].min() > DEDUP_TOL
    # sorted by (re, im)
    keys = [(z.real, z.imag) for z in out.tolist()]
    assert keys == sorted(keys)
    # every input lies near an output: within tol of its cell's
    # representative, which lies within tol of a kept value
    if vals.size:
        near = np.abs(vals[:, None] - out[None, :]).min(axis=1)
        assert near.max() <= (1 + math.sqrt(2)) * DEDUP_TOL
    # independent of the input order
    shuffled = list(values)
    rnd.shuffle(shuffled)
    assert np.array_equal(_dedup_sorted(np.array(shuffled, dtype=complex), DEDUP_TOL), out)


def test_dedup_merges_interleaved_conjugate_clusters():
    # roundoff copies of w and conj(w) share the real part; sorted by (re, im)
    # they interleave, which a merge against the last kept value cannot undo
    w = np.exp(0.7j)
    jitter = np.array([0.0, 3e-16, -2e-16, 5e-16])
    vals = np.concatenate([w.real + jitter + 1j * (w.imag + jitter[::-1]),
                           w.real - jitter + 1j * (-w.imag + jitter)])
    out = _dedup_sorted(vals, 1e-9)
    assert out.size == 2
    np.testing.assert_allclose(np.sort_complex(out), [np.conj(w), w], atol=1e-15)


@pytest.mark.parametrize("space", [BERGMAN, FOCK])
def test_rotation_ratio_set_has_two_n_minus_one_values(space):
    # w = e^{2 pi i 0.1234567}: the powers w^k, |k| < 256, are 511 distinct values
    w = np.exp(2j * np.pi * 0.1234567)
    C = composition_matrix(LinearFractionalMap(w, 0, 0, 1), space, 256)
    rs = ratio_set(C)
    assert rs.size == 511
    assert np.abs(np.abs(rs) - 1.0).max() < 1e-12
    assert ratio_set(C, filtered=True).size == 511


# ---------------------------------------------------------------------------
# the Sylvester probe


def test_sylvester_frozen_diagonal_values():
    A = _op(np.diag([1.0, 2.0]))
    # dense Kronecker SVD gives sigma_min 0, 1, 0, 0 at these probes
    assert SylvesterProbe(A).sigma_min(2.0) == pytest.approx(0.0, abs=1e-12)
    assert SylvesterProbe(A).sigma_min(0.5) == pytest.approx(0.0, abs=1e-12)
    assert SylvesterProbe(A).sigma_min(1.0) == pytest.approx(0.0, abs=1e-12)
    want = 1.0 / (op_norm(A) * (1 + 3.0))
    assert SylvesterProbe(A).sigma_min(3.0) == pytest.approx(want, rel=1e-10)


def test_sylvester_frozen_nonnormal_values():
    A4 = _op([[1, 1, 0, 0], [0, 2, 1, 0], [0, 0, 3, 1], [0, 0, 0, 4]])
    # ratios of {1,2,3,4} include 2, 1.5, 0.25, 3: all singular directions
    for lam in (2.0, 1.5, 0.25, 3.0):
        assert SylvesterProbe(A4).sigma_min(lam) < 1e-12
    # frozen dense value away from the ratio set
    lam = 1.0 + 1.0j
    want = 0.5144295475593064 / (op_norm(A4) * (1 + abs(lam)))
    assert SylvesterProbe(A4).sigma_min(lam) == pytest.approx(want, rel=1e-6)


def test_probe_estimator_agrees_with_dense_kronecker():
    import scipy.linalg as sla

    rng = np.random.default_rng(17)
    n = 24  # above the dense cutoff, so the solver path is exercised
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    M += 3.0 * np.eye(n)  # keep the truncation comfortably nonsingular
    A = _op(M)
    probe = SylvesterProbe(A, seed=0)
    for lam in (0.3 + 0.1j, 1.7, -2.0 + 0.5j):
        S = np.kron(np.eye(n), M) - lam * np.kron(M.T, np.eye(n))
        want = sla.svdvals(S)[-1] / (op_norm(A) * (1 + abs(lam)))
        got = probe.sigma_min(lam)
        # inverse iteration approaches sigma_min from above and stops once
        # the estimate is stable; the contract is order of magnitude, which
        # is what the flag threshold comparison consumes
        assert 0.9 * want <= got <= 4.0 * want


def test_probe_order_cap():
    A = _op(np.eye(129))
    with pytest.raises(DomainError, match="order 129 > 128: the lifted problem has order 16641"):
        SylvesterProbe(A)


def _dense_sigma_min(M, lam):
    """Oracle: normalized sigma_min of the full n^2 x n^2 Kronecker matrix."""
    import scipy.linalg as sla

    n = M.shape[0]
    S = np.kron(np.eye(n), M) - lam * np.kron(M.T, np.eye(n))
    return sla.svdvals(S)[-1] / (sla.svdvals(M)[0] * (1 + abs(lam)))


def _nonnormal_with_eigenvalues(mu, coupling, seed):
    """Q U Q^H with U upper triangular, diag(U) = mu and strict upper part of
    size `coupling`: non-normal, with eigenvalues mu to roundoff."""
    rng = np.random.default_rng(seed)
    n = len(mu)
    noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    U = np.diag(mu) + coupling * np.triu(noise, 1)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return Q @ U @ Q.conj().T


@pytest.fixture
def ztrsyl_calls(monkeypatch):
    """The info of each triangular Sylvester solve the probe makes."""
    from types import SimpleNamespace

    import compext.extspec as extspec

    calls = []
    real = extspec.lapack.ztrsyl

    def ztrsyl(*args, **kwargs):
        answer = real(*args, **kwargs)
        calls.append(answer[2])
        return answer

    monkeypatch.setattr(extspec, "lapack", SimpleNamespace(ztrsyl=ztrsyl))
    return calls


def test_adjoint_solve_conjugates_lambda():
    rng = np.random.default_rng(5)
    n = 20
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) + 3.0 * np.eye(n)
    probe = SylvesterProbe(_op(M))
    T = probe.t
    lam = 0.3 + 0.7j
    c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    y = probe._solve(lam, c, adjoint_eq=True)
    TH = T.conj().T
    assert np.linalg.norm(TH @ y - np.conj(lam) * (y @ TH) - c) <= 1e-10 * np.linalg.norm(c)
    x = probe._solve(lam, c, adjoint_eq=False)
    assert np.linalg.norm(T @ x - lam * (x @ T) - c) <= 1e-10 * np.linalg.norm(c)


def test_iteration_flags_complex_singular_lambda_like_dense_oracle(ztrsyl_calls):
    # spectrum w^k (w = e^{2 pi i/7}) with a 1e-12 coupling: not diagonal,
    # so at order 20 the iteration runs, yet close enough to normal that a
    # misconjugated adjoint solve misses the null direction (it reported
    # 2.9e-6 to 3.3e-5 here)
    w = np.exp(2j * np.pi / 7)
    M = _nonnormal_with_eigenvalues(w ** np.arange(20), coupling=1e-12, seed=1)
    probe = SylvesterProbe(_op(M), seed=0)
    assert probe.route == "iteration"
    for lam in (w, w**2, w**3):  # exactly singular: lam = mu_{k+j} / mu_j
        assert _dense_sigma_min(M, lam) <= 1e-13
        assert probe.sigma_min(lam) <= 1e-12
    assert ztrsyl_calls
    # at a nearby nonsingular complex lambda the estimate still brackets
    off = w**2 * 1.1 * np.exp(0.05j)
    want = _dense_sigma_min(M, off)
    assert 0.9 * want <= probe.sigma_min(off) <= 4.0 * want


@pytest.mark.parametrize("space", [FOCK, BERGMAN], ids=["fock", "bergman"])
def test_normal_route_is_exact(space, ztrsyl_calls):
    w = np.exp(2j * np.pi / 7)
    C = composition_matrix(LinearFractionalMap(w, 0, 0, 1), space, 24)
    probe = SylvesterProbe(C)
    assert probe.route == "exact"
    for lam in (w**2, w**-3, 0.3 + 0.7j, 1.1 * np.exp(0.4j)):
        assert probe.sigma_min(lam) == pytest.approx(_dense_sigma_min(C.entries, lam), abs=1e-12)
    assert not ztrsyl_calls


def test_only_the_iteration_computes_a_schur_form(monkeypatch):
    import compext.extspec as extspec

    calls = []
    real = extspec._complex_schur

    def schur(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(extspec, "_complex_schur", schur)
    rotation = composition_matrix(LinearFractionalMap(np.exp(2j * np.pi / 7), 0, 0, 1), FOCK, 48)
    assert SylvesterProbe(rotation).route == "exact"
    assert SylvesterProbe(_diagonalizable(np.arange(1.0, 17.0), seed=2)).route == "dense"
    assert not calls
    probe = SylvesterProbe(composition_matrix(LinearFractionalMap(0.9, 0.05, 0, 1), FOCK, 24))
    assert probe.route == "iteration"
    assert len(calls) == 1


# one section per route of the probe
_ROUTE_SECTIONS = {
    "certificate": lambda: composition_matrix(standard_form("hyperbolic-automorphism", r=0.5), BERGMAN, 24),
    "exact": lambda: composition_matrix(LinearFractionalMap(np.exp(2j * np.pi / 7), 0, 0, 1), FOCK, 24),
    "dense": lambda: _diagonalizable(np.arange(1.0, 17.0), seed=2),
    "iteration": lambda: composition_matrix(LinearFractionalMap(0.9, 0.05, 0, 1), FOCK, 24),
}


@pytest.mark.parametrize("route", list(_ROUTE_SECTIONS))
def test_scan_reads_every_sylvester_value_from_the_probe(route):
    A = _ROUTE_SECTIONS[route]()
    probe = SylvesterProbe(A, seed=0)
    assert probe.route == route
    rep = ext_scan(A, GridSpec("annulus", 16, rmin=0.5, rmax=2.0), candidates=5)
    chosen = np.flatnonzero(~np.isnan(rep.sylvester))
    assert chosen.size == 5
    assert np.array_equal(rep.sylvester[chosen], [probe.sigma_min(z) for z in rep.lam[chosen]])


# what a stubbed ztrsyl returns on each call, from the real answer (x, scale,
# info), and what the iteration then gives
_FAILED_SOLVES = {
    "non-finite-first-solve": ([lambda x, scale, info: (np.full_like(x, np.nan), scale, info)], 0.0),
    "zero-scale-second-solve": ([lambda *answer: answer, lambda x, scale, info: (x, 0.0, info)], 0.0),
    "illegal-argument": ([lambda x, scale, info: (x, scale, -1)], ValueError),
    "zero-solution": ([lambda x, scale, info: (np.zeros_like(x), scale, info)] * 2, 0.0),
}


@pytest.mark.parametrize("answers, outcome", list(_FAILED_SOLVES.values()), ids=list(_FAILED_SOLVES))
def test_iteration_reads_zero_on_overflow_and_raises_on_an_illegal_argument(monkeypatch, answers, outcome):
    # a solve that overflows (scale 0, or a non-finite or zero iterate) ends
    # the iteration at once with the bound 0.0; an illegal argument (info < 0)
    # raises as zgees and zgeev do; no request reaches either
    from types import SimpleNamespace

    import compext.extspec as extspec

    calls = []
    real = extspec.lapack.ztrsyl

    def ztrsyl(*args, **kwargs):
        calls.append(1)
        return answers[len(calls) - 1](*real(*args, **kwargs))

    monkeypatch.setattr(extspec, "lapack", SimpleNamespace(ztrsyl=ztrsyl))
    probe = SylvesterProbe(_ROUTE_SECTIONS["iteration"](), seed=0)
    assert probe.route == "iteration"
    if outcome is ValueError:
        with pytest.raises(ValueError, match="illegal value in 1-th argument of internal trsyl"):
            probe.sigma_min(0.5 + 0.5j)
    else:
        assert probe.sigma_min(0.5 + 0.5j) == outcome
    assert len(calls) == len(answers)


@pytest.mark.parametrize(
    "phi, space, order",
    [
        ((0.9, 0.05), FOCK, 17),
        ((0.9, 0.05), FOCK, 24),
        ((0.95, 0.1), FOCK, 24),
        ((0.9, 0.05), BERGMAN, 24),
    ],
    ids=["fock-0.9-17", "fock-0.9-24", "fock-0.95-24", "bergman-0.9-24"],
)
def test_iteration_value_is_an_upper_bound(ztrsyl_calls, phi, space, order):
    # the estimate is ||T v - lam v T|| at a unit v, so it never reads below
    # the dense sigma_min, neither at an exact eigenvalue ratio mu_i/mu_j,
    # where ztrsyl perturbs the near-singular system (info 1), nor off the
    # spectrum (info 0).  An affine section is upper triangular, so mu is its
    # diagonal
    C = composition_matrix(LinearFractionalMap(*phi, 0, 1), space, order)
    probe = SylvesterProbe(C, seed=0)
    assert probe.route == "iteration"
    mu = np.diag(C.entries)
    ratios = [mu[i] / mu[j] for i, j in ((1, 0), (3, 1), (0, 2), (2, 7))]
    off = [0.5 + 0.5j, -0.3 + 0.8j, 1.2j, 0.95 * np.exp(0.3j), 2 - 1j]
    for lams, info in ((ratios, 1), (off, 0)):
        ztrsyl_calls.clear()
        for lam in lams:
            assert probe.sigma_min(lam) >= (1 - 1e-9) * _dense_sigma_min(C.entries, lam)
        assert set(ztrsyl_calls) == {info}


def test_certificate_route_reads_the_bound_at_every_lambda(monkeypatch):
    import compext.extspec as extspec

    monkeypatch.setattr(extspec, "_complex_schur", None)  # the certificate computes no Schur form
    C = _ROUTE_SECTIONS["certificate"]()
    probe = SylvesterProbe(C)
    for lam in (0.3 + 0.7j, -2.0 + 0.5j, 1.0, 0.0):
        assert probe.sigma_min(lam) == C.svdvals[-1] / C.svdvals[0]
    # a zero matrix reads 0.0; diag(1, 1e-7) reads its bound 1e-7 even though
    # it is diagonal, where the exact route would give |1e-7 - 2e-7| / 3 at 2
    for entries, want in ((np.zeros((8, 8)), 0.0), (np.diag([1.0, 1e-7]), 1e-7)):
        probe = SylvesterProbe(_op(entries))
        assert probe.route == "certificate"
        assert probe.sigma_min(2.0) == probe.sigma_min(0.3 + 0.7j) == want


def test_singular_certificate_bounds_dense_sigma_min(ztrsyl_calls):
    C = composition_matrix(standard_form("hyperbolic-automorphism", r=0.5), BERGMAN, 24)
    bound = C.svdvals[-1] / C.svdvals[0]
    rep = ext_scan(C, GridSpec("annulus", 12, rmin=0.3, rmax=3.0), candidates="all")
    assert np.all(rep.sylvester == bound) and rep.flagged.all()
    for lam in rep.lam[::3]:
        assert _dense_sigma_min(C.entries, lam) <= bound <= 1e-6  # the default threshold
    assert not ztrsyl_calls


def test_acceptance_scan_shapes_make_no_solves(ztrsyl_calls):
    # C1: Fock rotation (normal, exact route); C6: 0.5z+0.5 on Bergman
    # (singular, certificate): neither needs a single triangular solve
    w7 = np.exp(2j * np.pi / 7)
    C1 = composition_matrix(LinearFractionalMap(w7, 0, 0, 1), FOCK, 48)
    ext_scan(C1, GridSpec("circle", 504, rmax=1.0))
    C6 = composition_matrix(standard_form("hyperbolic-na-1", r=0.5), BERGMAN, 128)
    ext_scan(C6, GridSpec("disk", 600, rmax=1.0), candidates="all")
    assert not ztrsyl_calls
    rng = np.random.default_rng(17)
    M = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24)) + 3.0 * np.eye(24)
    ext_scan(_op(M), GridSpec("circle", 4, rmax=1.0), candidates="all")
    assert ztrsyl_calls


def test_small_truncation_equivalence():
    # at tiny orders the probe and the eigenvalue-ratio criterion agree:
    # sigma_min vanishes iff lam sits on the ratio set
    mu = np.array([1.0, 1.5j, -0.8, 0.6 - 0.6j])
    A = _diagonalizable(mu, seed=9)
    ratios = np.array([a / b for a in mu for b in mu])
    on = ratios[5]
    off = 2.7 - 1.9j
    assert SylvesterProbe(A).sigma_min(on) < 1e-10
    assert SylvesterProbe(A).sigma_min(off) > 1e-4
    assert np.abs(ratios - off).min() > 0.1


# ---------------------------------------------------------------------------
# grids


def test_circle_grid_geometry():
    pts, step = make_grid(GridSpec("circle", 140, rmax=1.0))
    assert pts.shape == (140,)
    np.testing.assert_allclose(np.abs(pts), 1.0, atol=1e-14)
    assert step == pytest.approx(2 * math.sin(math.pi / 140))
    # step is the chord between neighbours
    assert abs(pts[1] - pts[0]) == pytest.approx(step)


def test_annulus_grid_geometry():
    spec = GridSpec("annulus", 600, rmin=0.25, rmax=4.0)
    pts, step = make_grid(spec)
    # ring x angle factorization rounds; the total stays near the request
    assert 480 <= pts.size <= 720
    mods = np.abs(pts)
    assert mods.min() >= 0.25 * (1 - 1e-12) and mods.max() <= 4.0 * (1 + 1e-12)
    # rings are log-spaced, so the set is closed under modulus inversion
    assert np.abs(mods.min() * mods.max() - 1.0) < 1e-9


def test_disk_grid_excludes_origin():
    pts, step = make_grid(GridSpec("disk", 600, rmax=1.0))
    assert np.abs(pts).min() > 0
    assert np.abs(pts).max() <= 1.0 + 1e-12
    # the inner rings of the smallest subnormal radius underflow to 0
    with pytest.raises(ValueError, match="grid must exclude 0"):
        make_grid(GridSpec("disk", 16, rmax=5e-324))


def test_grid_validation():
    with pytest.raises(ValueError, match="need at least 2 grid points"):
        GridSpec("circle", 1, rmax=1.0)
    with pytest.raises(ValueError, match="annulus needs 0 < rmin <= rmax"):
        GridSpec("annulus", 100, rmin=2.0, rmax=1.0)
    with pytest.raises(ValueError, match="annulus needs 0 < rmin <= rmax"):
        GridSpec("annulus", 100, rmin=0.0, rmax=1.0)
    with pytest.raises(ValueError, match="unknown grid shape 'nonagon'"):
        GridSpec("nonagon", 100, rmax=1.0)
    for rmin, rmax in ((0.2, math.inf), (0.2, math.nan), (math.inf, math.inf)):
        with pytest.raises(ValueError, match="must be finite"):
            GridSpec("circle", 100, rmin=rmin, rmax=rmax)
    with pytest.raises(ValueError, match="finite rmax/rmin"):
        GridSpec("annulus", 100, rmin=1e-300, rmax=1e300)


# ---------------------------------------------------------------------------
# scans


def test_scan_identity_flags_only_one():
    A = _op(np.eye(8))
    rep = ext_scan(A, GridSpec("circle", 90, rmax=1.0))
    idx = np.where(rep.flagged)[0]
    np.testing.assert_array_equal(idx, [0])
    assert rep.lam[0] == pytest.approx(1.0)


def test_scan_seventh_roots_frozen_geometry():
    # diag(w^n) with w = exp(2 pi i/7): flags exactly at the seven roots,
    # grid indices 0, 20, ..., 120 on a 140-point circle
    w = np.exp(2j * np.pi / 7)
    A = _op(np.diag(w ** np.arange(12)))
    rep = ext_scan(A, GridSpec("circle", 140, rmax=1.0))
    np.testing.assert_array_equal(np.where(rep.flagged)[0], np.arange(0, 140, 20))
    assert rep.step == pytest.approx(0.04487612859160987)


def test_scan_flags_are_scale_invariant():
    w = np.exp(2j * np.pi / 5)
    A = _op(np.diag(w ** np.arange(9)))
    B = _op((3.0 - 1.0j) * np.diag(w ** np.arange(9)))
    grid = GridSpec("circle", 60, rmax=1.0)
    np.testing.assert_array_equal(
        ext_scan(A, grid).flagged, ext_scan(B, grid).flagged
    )


def test_scan_always_flags_one_when_gridded():
    A = composition_matrix(standard_form("loxodromic", a=0.4j, c=0.2), BERGMAN, 20)
    rep = ext_scan(A, GridSpec("circle", 64, rmax=1.0))
    assert rep.flagged[0]  # grid point 0 is exactly lambda = 1


def test_scan_large_order_is_ratio_only():
    A = _op(np.diag(np.exp(1j * np.arange(130))))
    rep = ext_scan(A, GridSpec("circle", 32, rmax=1.0))
    assert np.isnan(rep.sylvester).all()
    assert any("ratio-only" in note for note in rep.notes)


def test_scan_candidate_budget_limits_probing():
    w = np.exp(2j * np.pi / 7)
    A = _op(np.diag(w ** np.arange(60)))  # order > 48: default budget is 50
    rep = ext_scan(A, GridSpec("circle", 140, rmax=1.0))
    assert np.isfinite(rep.sylvester).sum() == 50
    np.testing.assert_array_equal(np.where(rep.flagged)[0], np.arange(0, 140, 20))


def test_scan_without_candidates_builds_no_probe(monkeypatch):
    import compext.extspec as extspec

    A = composition_matrix(LinearFractionalMap(0.9, 0.05, 0, 1), FOCK, 48)
    assert A.svdvals[-1] > extspec.SYLVESTER_THRESHOLD * A.svdvals[0]  # no certificate
    grid = GridSpec("circle", 16, rmax=1.0)
    probes = []
    init = extspec.SylvesterProbe.__init__

    def counting_init(self, *args, **kwargs):
        probes.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(extspec.SylvesterProbe, "__init__", counting_init)
    assert np.isnan(ext_scan(A, grid, candidates=0).sylvester).all()
    assert probes == []
    assert np.isfinite(ext_scan(A, grid, candidates=1).sylvester).sum() == 1
    assert probes == [1]


@pytest.fixture
def ratio_side_calls(monkeypatch):
    """Count ratio_set calls and eigendecompositions with reliability."""
    import compext.extspec as extspec
    import compext.operators as operators

    calls = []
    for module, name in ((extspec, "ratio_set"), (operators, "_eig_with_reliability")):
        def counting(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    return calls


def _hyperbolic_48():
    return composition_matrix(standard_form("hyperbolic-automorphism", r=0.5), BERGMAN, 48)


@pytest.mark.parametrize("candidates", [None, "all", 16, 50])
def test_certificate_scan_of_every_point_leaves_the_ratio_side_unread(ratio_side_calls, candidates):
    # the certificate flags every point it probes, so no flag needs a ratio
    # distance, and the scan computes no ratio set and no eigenvalue
    C = _hyperbolic_48()
    rep = ext_scan(C, GridSpec("circle", 16), candidates=candidates)
    assert rep.flagged.all() and np.isfinite(rep.sylvester).all()
    assert ratio_side_calls == []
    assert "eig_reliability" not in C.__dict__
    rep.ratio_dist
    assert ratio_side_calls.count("ratio_set") == 2  # strict, then filtered
    rep.notes
    assert ratio_side_calls.count("ratio_set") == 2  # computed once


_FILTERED = ("ratio set from reliability-filtered eigenvalues (tol=1e-06); "
             "strict mode found the truncation singular")
_NO_RELIABLE = "no reliable eigenvalues; ratio distances are +inf"
_ROTATION = LinearFractionalMap(cmath.exp(2j * math.pi * 0.1234), 0, 0, 1)

# case -> (truncation, candidates, whether the scan leaves its ratio side unread, notes)
DEFERRAL_CASES = {
    "certificate": (_hyperbolic_48, "all", True, [_FILTERED]),
    "exact": (lambda: composition_matrix(_ROTATION, BERGMAN, 24), None, False, []),
    "order-past-probe": (lambda: composition_matrix(_ROTATION, BERGMAN, 130), None, False,
                         ["order > 128: sylvester probe skipped, flags are ratio-only"]),
    "ranking": (lambda: composition_matrix(LinearFractionalMap(0.9, 0.05, 0, 1), FOCK, 24), 3, False, []),
    "zero": (lambda: _op(np.zeros((8, 8))), None, True, [_NO_RELIABLE]),
    "empty-ratio-set": (lambda: composition_matrix(LinearFractionalMap(0.1, 3, 0, 1), SpaceSpec("fock", alpha=10), 8),
                        50, True, [_NO_RELIABLE, "no ratio ranking available: probing every grid point"]),
}


@pytest.mark.parametrize("case", DEFERRAL_CASES)
def test_ratio_side_read_later_equals_the_eager_one(ratio_side_calls, case):
    make, candidates, deferred, notes = DEFERRAL_CASES[case]
    rep = ext_scan(make(), GridSpec("circle", 16), candidates=candidates)
    assert ("ratio_set" not in ratio_side_calls) == deferred
    A = make()
    try:
        ratios = ratio_set(A)
    except SingularTruncationError:
        ratios = ratio_set(A, filtered=True)
    assert np.array_equal(rep.ratio_dist, ratio_distance(rep.lam, ratios))
    assert rep.notes == notes
    assert np.array_equal(rep.flagged, (rep.sylvester <= 1e-6) | (rep.ratio_dist < rep.ratio_threshold))


def test_scan_report_serialization_round_trip(capsys, tmp_path):
    w = np.exp(2j * np.pi / 3)
    phi = LinearFractionalMap(w, 0, 0, 1)  # C_phi is diag(w^k) on hardy
    rep = ext_scan(composition_matrix(phi, HARDY, 8), GridSpec("circle", 24, rmax=1.0))
    argv = ["extscan", f"--phi={format_lft(phi)}", "--space", "hardy", "--n", "8", "--points", "24"]
    assert main(argv) == 0
    blob = json.loads(capsys.readouterr().out)["result"]
    assert blob["flagged_count"] == int(rep.flagged.sum())
    assert len(blob["rows"]) == 24
    rows = np.array(blob["rows"], dtype=float)  # null sylvester values read as nan
    np.testing.assert_array_equal(rows[:, 0] + 1j * rows[:, 1], rep.lam)
    np.testing.assert_array_equal(rows[:, 2], rep.ratio_dist)
    np.testing.assert_array_equal(rows[:, 3], rep.sylvester)
    np.testing.assert_array_equal(rows[:, 4].astype(bool), rep.flagged)
    assert main(argv + ["--out", str(tmp_path / "scan.json")]) == 0
    csv = (tmp_path / "scan.grid.csv").read_text()
    lines = csv.splitlines()
    assert lines[0] == ",".join(blob["columns"])
    assert len(lines) == 25
    assert "np.float" not in csv
    np.testing.assert_array_equal(np.array([line.split(",") for line in lines[1:]], dtype=float), rows)
    fp = rep.flagged_points()
    assert fp.size == int(rep.flagged.sum())


# ---------------------------------------------------------------------------
# predictions


def test_predicted_ext_dispatch():
    pe = predicted_ext(LinearFractionalMap(0.5, 1, 0, 1), FOCK)
    assert pe.kind == "discrete-cyclic" and pe.base == pytest.approx(0.5)
    pe = predicted_ext(standard_form("elliptic-automorphism", w=1j), BERGMAN)
    assert pe.kind == "discrete-cyclic" and pe.base == pytest.approx(1j)
    pe = predicted_ext(standard_form("hyperbolic-automorphism", r=0.5), BERGMAN)
    assert pe.kind == "unit-circle"
    assert "point_spectrum_annulus" in pe.metadata
    pe = predicted_ext(standard_form("hyperbolic-na-1", r=0.5), BERGMAN)
    assert pe.kind == "closed-punctured-disk"
    pe = predicted_ext(standard_form("loxodromic", a=0.5j, c=0.2), BERGMAN)
    assert pe.kind == "discrete-cyclic" and pe.base == pytest.approx(0.5j)
    pe = predicted_ext(standard_form("parabolic-automorphism", a=2j), BERGMAN)
    assert pe.kind == "unit-circle"


def _close(got, want) -> bool:
    """Strings and None equal, numbers (and lists of them) to 1e-9 relative."""
    if isinstance(want, list):
        return len(got) == len(want) and all(map(_close, got, want))
    if want is None or isinstance(want, str):
        return got == want
    return abs(got - want) <= 1e-9 * abs(want)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(draws.STANDARD_BERGMAN)), st.integers(0, 2**32 - 1))
def test_conjugation_keeps_the_class_and_the_prediction(kind, seed):
    # psi = phi_b o phi o phi_b has C_psi = C_{phi_b} C_phi C_{phi_b}, so its
    # class and predicted extended spectrum are phi's
    phi = draws.STANDARD_BERGMAN[kind]
    psi = draws.conjugate(phi, draws.conjugator(np.random.default_rng(seed)))
    assert classify(psi).kind == classify(phi).kind == kind
    got, want = predicted_ext(psi, BERGMAN), predicted_ext(phi, BERGMAN)
    assert got.kind == want.kind and _close(got.base, want.base)
    assert got.metadata.keys() == want.metadata.keys()
    assert all(_close(got.metadata[key], value) for key, value in want.metadata.items())


def test_predicted_ext_unresolved_cases():
    with pytest.raises(UnresolvedClassError):
        predicted_ext(standard_form("elliptic-automorphism", w=1j), HARDY)
    with pytest.raises(UnresolvedClassError):
        predicted_ext(standard_form("hyperbolic-na-2", r=0.5), BERGMAN)
    with pytest.raises(UnresolvedClassError):
        predicted_ext(standard_form("parabolic-non-automorphism", a=1.0), BERGMAN)
    with pytest.raises(UnresolvedClassError):
        predicted_ext(standard_form("hyperbolic-automorphism", r=0.5), FOCK)


def test_power_members_discrete_cyclic():
    w = np.exp(2j * np.pi / 5)
    pe = predicted_ext(standard_form("elliptic-automorphism", w=w), BERGMAN)
    m = _power_members(pe.base, 1.0, 1.0, 1e-9)
    assert np.abs(m - 1.0).min() < 1e-12
    # all five fifth roots of unity, and only those
    roots = np.exp(2j * np.pi * np.arange(5) / 5)
    assert np.abs(m[:, None] - roots[None, :]).min(axis=1).max() < 1e-12
    assert np.abs(roots[:, None] - m[None, :]).min(axis=1).max() < 1e-12
    # powers of a contraction, cut to the modulus window
    a = _power_members(0.5, 0.2, 3.0, 0.0)
    np.testing.assert_allclose(np.sort(a.real), [0.25, 0.5, 1.0, 2.0])


# ---------------------------------------------------------------------------
# structural checks


def test_lemma_suite_passes():
    report = lemma_suite(seed=0, draws=6, size=6)
    for row in report.rows:
        assert row.passed, f"{row.name}: worst={row.worst:g} {row.detail}"
    assert report.passed


def test_lemma_suite_accepts_explicit_operator():
    A = composition_matrix(standard_form("loxodromic", a=0.4j, c=0.1), BERGMAN, 12)
    report = lemma_suite(A=A, seed=1, draws=4, size=5)
    assert report.passed


def test_direct_sum_flags_are_the_union():
    w5, w3 = np.exp(2j * np.pi / 5), np.exp(2j * np.pi / 3)
    A = _op(np.diag(w5 ** np.arange(10)))
    B = _op(np.diag(w3 ** np.arange(10)))
    zero = np.zeros((10, 10))
    grid = GridSpec("circle", 60, rmax=1.0)
    fa = ext_scan(A, grid).flagged
    fb = ext_scan(B, grid).flagged
    fs = ext_scan(_op(np.block([[A.entries, zero], [zero, B.entries]])), grid).flagged
    # union is a subset of the sum's flags (cross ratios may add more)
    assert np.all(fs[fa | fb])


# ---------------------------------------------------------------------------
# witnesses and intertwining residuals


HNA1 = standard_form("hyperbolic-na-1", r=0.5)
LOX = standard_form("loxodromic", a=0.4j, c=0.2)  # interior fixed point 0.2
# form -> (a text of that form, phi, space, its label); the labels spell
# shift, sigma-shift and qdiff powers from the parsed integer, the other
# parameters as written
WITNESS_SAMPLES = {
    "identity": ("identity", HNA1, BERGMAN, "I"),
    "shift:k": ("shift:02", HNA1, BERGMAN, "X_2"),
    "sigma-shift:c,k": ("sigma-shift:0.2,02", LOX, BERGMAN, "S[sigma,2]"),
    "qdiff:m": ("qdiff:01", HNA1, FOCK, "D^1"),
    "qmult-shifted:tau,m": ("qmult-shifted:.5,01", LinearFractionalMap(0.5, 1, 0, 1), FOCK, "(X-.5)^01"),
    "mult:monomial,k": ("mult:monomial,03", HNA1, BERGMAN, "M[monomial,03]"),
    "mult:binomial,w": ("mult:binomial,1+1i", HNA1, BERGMAN, "M[binomial,1+1i]"),
    "mult:cayley,w": ("mult:cayley,2i", HNA1, BERGMAN, "M[cayley,2i]"),
    "mult:exponential,t": ("mult:exponential,1.50", HNA1, BERGMAN, "M[exponential,1.50]"),
    "mult:sigma-power,k": ("mult:sigma-power,2", LOX, BERGMAN, "M[sigma-power,2]"),
}


def test_build_witness_grammar():
    # one sample per form of the table, in its order: a new form needs a sample
    assert list(WITNESS_SAMPLES) == list(WITNESSES)
    with pytest.raises(ValueError):
        build_witness("nonsense:1", HNA1, BERGMAN, 12)


@pytest.mark.parametrize("form", WITNESS_SAMPLES)
def test_build_witness_label(form):
    text, phi, space, label = WITNESS_SAMPLES[form]
    X = build_witness(text, phi, space, 12)
    assert (X.order, X.space, X.label) == (12, space, label)


def _without_last_parameter(text: str) -> str:
    return text[: max(text.rfind(","), text.rfind(":"))]


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param(_without_last_parameter(text), f"bad witness {_without_last_parameter(text)!r}: expected {form}",
                     id=f"missing-{form}")
        for form, (text, *_) in WITNESS_SAMPLES.items()
        if form != "identity"
    ]
    + [
        pytest.param("shift:x", "bad witness 'shift:x': expected shift:k", id="bad-integer"),
        pytest.param("mult:exponential,x", "bad witness 'mult:exponential,x': expected mult:exponential,t",
                     id="bad-real"),
        pytest.param("sigma-shift:1,2,3", "bad witness 'sigma-shift:1,2,3': expected sigma-shift:c,k",
                     id="extra-parameter"),
        pytest.param("sigma-shift:zz,1", "bad complex literal 'zz'", id="bad-complex"),
        pytest.param("mult:bogus,1", "unknown multiplication family 'bogus'", id="unknown-family"),
        pytest.param("mult", "unknown multiplication family ''", id="no-family"),
        pytest.param("identity:", "unknown witness 'identity:'", id="identity-with-colon"),
        pytest.param("identity:junk", "unknown witness 'identity:junk'", id="identity-with-parameter"),
        pytest.param("nonsense:1", "unknown witness 'nonsense:1'", id="unknown-witness"),
    ],
)
def test_build_witness_error_paths(text, message):
    # each is a plain ValueError, which the CLI turns into exit 2
    with pytest.raises(ValueError) as exc:
        build_witness(text, LOX, FOCK, 8)
    assert str(exc.value) == message
    assert not isinstance(exc.value, DomainError)


def test_identity_witness_has_zero_residual_at_one():
    C = composition_matrix(standard_form("hyperbolic-na-1", r=0.5), BERGMAN, 10)
    X = build_witness("identity", standard_form("hyperbolic-na-1", r=0.5), BERGMAN, 10)
    assert intertwining_residual(C, X, 1.0) < 1e-15


def test_affine_witness_residual_halves_do_not_grow():
    # a fixed eigenfunction family: residuals fall (or stay at the floor)
    # when the truncation order doubles
    phi = standard_form("hyperbolic-na-1", r=0.5)
    res = {}
    for n in (24, 48):
        C = composition_matrix(phi, BERGMAN, n)
        X = build_witness("mult:binomial,1", phi, BERGMAN, n)
        res[n] = intertwining_residual(C, X, 0.5, margin=3 * n // 4)
    assert res[48] <= res[24] or res[48] < 1e-14


def test_hyperbolic_witness_true_margin():
    # measured 5.03e-12 at order 64 with margin 56: the cayley family
    # intertwines once the corrupted tail rows are projected away
    phi = standard_form("hyperbolic-automorphism", r=0.5)
    C = composition_matrix(phi, BERGMAN, 64)
    X = build_witness("mult:cayley,1i", phi, BERGMAN, 64)
    lam = 3.0 ** 1j
    assert intertwining_residual(C, X, lam, margin=56) < 1e-10


def test_affine_contraction_witness_true_margin():
    # measured 2.8e-11 at order 128 with margin 96 for exponent 0.5+3i
    phi = standard_form("hyperbolic-na-1", r=0.5)
    C = composition_matrix(phi, BERGMAN, 128)
    X = build_witness("mult:binomial,0.5+3i", phi, BERGMAN, 128)
    lam = 0.5 ** (0.5 + 3j)
    assert intertwining_residual(C, X, lam, margin=96) < 1e-9


# ---------------------------------------------------------------------------
# per-class verification suites


def test_verify_fock_rotation_passes():
    report = verify_theorem_suite(
        LinearFractionalMap(np.exp(2j * np.pi / 7), 0, 0, 1), FOCK, 24,
        scan_points=84,
    )
    assert report.kind == "fock-rotation"
    assert report.passed
    assert all(r.passed for r in report.rows)


# irrational rotations: the order-N section is diagonal with entries w^j, so
# its ratio set is {w^k : |k| < N}, on fock as on bergman
IRRATIONAL_U = (0.1234567, 0.3183099)


@pytest.mark.parametrize("u,order", [(IRRATIONAL_U[0], 128), (IRRATIONAL_U[1], 128), (IRRATIONAL_U[1], 256)])
def test_verify_irrational_fock_rotation_scan_passes(u, order):
    report = verify_theorem_suite(LinearFractionalMap(cmath.exp(2j * math.pi * u), 0, 0, 1), FOCK, order)
    assert [(r.name, r.passed) for r in report.scan_rows] == [("scan-flags-near-powers", True)]


def test_rotation_scan_rejects_another_rotations_powers():
    w, other = (cmath.exp(2j * math.pi * u) for u in IRRATIONAL_U)
    grid, candidates, check = _rotation_circle(w, 128, None)
    report = ext_scan(composition_matrix(LinearFractionalMap(w, 0, 0, 1), FOCK, 128), grid, candidates=candidates)
    assert check(report)[0].passed
    assert not _rotation_circle(other, 128, None)[2](report)[0].passed


def test_verify_fock_affine_passes():
    report = verify_theorem_suite(LinearFractionalMap(0.5, 1, 0, 1), FOCK, 32)
    assert report.kind == "fock-affine-contraction"
    assert report.passed


def test_verify_elliptic_passes_on_bergman():
    report = verify_theorem_suite(
        standard_form("elliptic-automorphism", w=np.exp(2j * np.pi / 5)),
        BERGMAN, 24, scan_points=80,
    )
    assert report.passed


def test_verify_loxodromic_passes():
    report = verify_theorem_suite(
        standard_form("loxodromic", a=0.5j, c=0.2), BERGMAN, 32
    )
    assert report.kind == "loxodromic"
    assert report.passed


def test_verify_affine_contraction_passes():
    report = verify_theorem_suite(standard_form("hyperbolic-na-1", r=0.5), BERGMAN, 48)
    assert report.kind == "hyperbolic-na-1"
    assert report.passed


def test_verify_hyperbolic_automorphism_shape():
    # witness rows hold; the circle-confinement scan honestly fails because
    # the truncated spectrum is not the operator's spectrum
    report = verify_theorem_suite(
        standard_form("hyperbolic-automorphism", r=0.5), BERGMAN, 32,
        scan_points=300,
    )
    assert report.kind == "hyperbolic-automorphism"
    assert all(r.passed for r in report.rows)
    assert not all(r.passed for r in report.scan_rows)
    assert not report.passed


def test_verify_unresolved_raises():
    # the four unresolved inputs of test_predicted_ext_unresolved_cases
    cases = [
        (standard_form("elliptic-automorphism", w=1j), HARDY, "no prediction on hardy space"),
        (standard_form("hyperbolic-na-2", r=0.5), BERGMAN,
         "no prediction for class 'hyperbolic-na-2' on bergman space"),
        (standard_form("parabolic-non-automorphism", a=1.0), BERGMAN,
         "no prediction for class 'parabolic-non-automorphism' on bergman space"),
        (standard_form("hyperbolic-automorphism", r=0.5), FOCK,
         "no prediction for non-affine symbols on fock space"),
    ]
    for phi, space, message in cases:
        with pytest.raises(UnresolvedClassError, match=f"^{message}$"):
            verify_theorem_suite(phi, space, 16)


def _fock_rotation_recipe(phi, order):
    w = phi.a / phi.d
    rows = []
    for k in range(1, 6):
        rows.append(("shift-intertwines", f"shift:{k}", w ** (-k), 0, 1e-10))
        rows.append(("qdiff-power-intertwines", f"qdiff:{k}", w ** (-k), k, 1e-10))
    return rows + [("qmult-intertwines", "qmult-shifted:0,1", w, 0, 1e-10)]


def _fock_affine_recipe(phi, order):
    w = phi.a / phi.d  # 0.5, with fixed point tau = 2
    return [("qdiff-intertwines", "qdiff:1", 1.0 / w, 1, 1e-10)] + [
        ("shifted-qmult-power-intertwines", f"qmult-shifted:2.0,{k}", w**k, k, 1e-9) for k in range(1, 4)
    ]


def _elliptic_recipe(phi, order):
    w = classify(phi).multiplier
    rows = []
    for k in range(1, 6):
        rows.append(("shift-intertwines", f"shift:{k}", w ** (-k), 0, 1e-10))
        rows.append(("monomial-mult-intertwines", f"mult:monomial,{k}", w**k, k, 1e-10))
    return rows


def _cayley_recipe(phi, order):
    big_r = 1.0 / classify(phi).multiplier.real
    return [
        ("cayley-mult-intertwines", f"mult:cayley,{text}", complex(big_r) ** w, order - order // 8, 1e-6)
        for text, w in (("0.0+1.0i", 1j), ("0.0+2.0i", 2j))
    ]


def _binomial_recipe(phi, order):
    r = classify(phi).multiplier.real
    lams = (r**1.0, r**2.0, complex(r) ** (1 + 1j))
    return [
        ("binomial-mult-intertwines", f"mult:binomial,{text}", lam, 3 * order // 4, 1e-6)
        for text, lam in zip(("1.0", "2.0", "1.0+1.0i"), lams)
    ]


def _sigma_recipe(phi, order):
    cls = classify(phi)
    a, c = cls.multiplier, cls.fixed_points[0]
    rows = []
    for k in range(1, 4):
        rows.append(("sigma-shift-intertwines", f"sigma-shift:{format_complex(c)},{k}", a ** (-k), k, 1e-9))
        rows.append(("sigma-power-mult-intertwines", f"mult:sigma-power,{k}", a**k, k, 1e-9))
    return rows


def _exponential_recipe(phi, order):
    phi0 = phi.b / phi.d
    shift = (1 + phi0) / (1 - phi0) - 1.0
    return [
        ("exponential-mult-intertwines", f"mult:exponential,{t}", cmath.exp(-shift * t), order - order // 8, 1e-3)
        for t in (1.0, 2.0)
    ]


NEAR_POWERS = ["scan-flags-near-powers"]
ON_CIRCLE = ["scan-flags-on-unit-circle"]
IN_DISK = ["scan-flags-inside-closed-disk", "scan-flags-present-at-powers"]


@pytest.mark.parametrize(
    "phi,space,label,kind,recipe,scans",
    [
        (LinearFractionalMap(np.exp(2j * np.pi / 7), 0, 0, 1), FOCK, "fock-rotation",
         "discrete-cyclic", _fock_rotation_recipe, NEAR_POWERS),
        (LinearFractionalMap(0.5, 1, 0, 1), FOCK, "fock-affine-contraction",
         "discrete-cyclic", _fock_affine_recipe, NEAR_POWERS),
        (standard_form("elliptic-automorphism", w=np.exp(2j * np.pi / 5)), BERGMAN, "elliptic-automorphism",
         "discrete-cyclic", _elliptic_recipe, NEAR_POWERS),
        (standard_form("hyperbolic-automorphism", r=0.5), BERGMAN, "hyperbolic-automorphism",
         "unit-circle", _cayley_recipe, ON_CIRCLE),
        (standard_form("hyperbolic-na-1", r=0.5), BERGMAN, "hyperbolic-na-1",
         "closed-punctured-disk", _binomial_recipe, IN_DISK),
        (standard_form("hyperbolic-na-3", a=0.5, c=0.2), BERGMAN, "hyperbolic-na-3",
         "discrete-cyclic", _sigma_recipe, NEAR_POWERS),
        (standard_form("loxodromic", a=0.5j, c=0.2), BERGMAN, "loxodromic",
         "discrete-cyclic", _sigma_recipe, NEAR_POWERS),
        (standard_form("parabolic-automorphism", a=2j), BERGMAN, "parabolic-automorphism",
         "unit-circle", _exponential_recipe, ON_CIRCLE),
    ],
)
def test_verify_recipe_rows_are_pinned(phi, space, label, kind, recipe, scans):
    # every resolved (space, class) pair: class label, prediction kind, the
    # exact (check, witness, lambda, margin, threshold) rows and scan checks
    report = verify_theorem_suite(phi, space, 16, scan_points=16)
    assert report.kind == label
    assert report.predicted.kind == kind
    assert report.predicted == predicted_ext(phi, space)
    got = [(r.check, r.witness, r.lam, r.margin, r.threshold) for r in report.rows]
    assert got == recipe(phi, 16)
    assert all(type(r.lam) is complex for r in report.rows)
    assert [r.name for r in report.scan_rows] == scans


def test_verify_classifies_once(monkeypatch):
    import compext.extspec as extspec

    calls = []

    def counting(phi, *args, **kwargs):
        calls.append(phi)
        return classify(phi, *args, **kwargs)

    monkeypatch.setattr(extspec, "classify", counting)
    phi = standard_form("hyperbolic-na-1", r=0.5)
    verify_theorem_suite(phi, BERGMAN, 16, scan_points=16)
    assert calls == [phi]


def test_verify_report_serializes(capsys):
    phi = LinearFractionalMap(np.exp(2j * np.pi / 7), 0, 0, 1)
    report = verify_theorem_suite(phi, FOCK, 16, scan_points=56)
    assert main(["verify", f"--phi={format_lft(phi)}", "--space", "fock", "--n", "16", "--points", "56"]) == 0
    blob = json.loads(capsys.readouterr().out)["result"]
    assert blob["class"] == "fock-rotation"
    assert blob["passed"] is True
    assert len(blob["rows"]) == len(report.rows)
    assert len(blob["scan_checks"]) == len(report.scan_rows)
    assert [r["lambda"] for r in blob["rows"]] == [[r.lam.real, r.lam.imag] for r in report.rows]
    assert blob["predicted"]["base"] == [phi.a.real, phi.a.imag]
