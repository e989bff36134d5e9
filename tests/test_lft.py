"""Tests for linear fractional maps: algebra, dynamics, classification, text forms."""
import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compext import (
    INF,
    DegenerateMapError,
    IdentityMapError,
    LinearFractionalMap,
    ParamOutOfRangeError,
    apply,
    classify,
    compose,
    fixed_points,
    format_complex,
    format_lft,
    inverse,
    is_automorphism_of_disk,
    is_fock_symbol,
    is_inf,
    is_self_map_of_disk,
    multiplier,
    parse_complex,
    parse_lft,
    standard_form,
)


# ---------------------------------------------------------------------------
# point evaluation and algebra


def test_apply_rational_value():
    # (2z+1)/(z+3) at z = 0.5 is 2/3.5 = 4/7
    f = LinearFractionalMap(2, 1, 1, 3)
    assert apply(f, 0.5) == pytest.approx(4 / 7)


def test_apply_at_pole_and_infinity():
    f = LinearFractionalMap(1, 0.5, 0.5, 1)  # pole at z = -2
    assert is_inf(apply(f, -2.0))
    assert apply(f, INF) == pytest.approx(2.0)  # a/c
    g = LinearFractionalMap(0.5, 0.3, 0, 1)  # affine fixes infinity
    assert is_inf(apply(g, INF))


def test_degenerate_coefficients_rejected():
    with pytest.raises(DegenerateMapError):
        LinearFractionalMap(1, 2, 2, 4)  # det = 0


def test_compose_matches_pointwise():
    f = LinearFractionalMap(2, 1, 1, 3)
    g = LinearFractionalMap(1, -0.5, 0.25, 1)
    h = compose(f, g)
    for z in (0.0, 0.3 + 0.1j, -0.7j, 2.0):
        assert apply(h, z) == pytest.approx(apply(f, apply(g, z)))


def test_compose_hyperbolic_doubles_the_parameter():
    # (z+r)/(1+rz) composed with itself is the same family at 2r/(1+r^2);
    # with r = 0.5 the coefficient matrix is proportional to (1.25, 1, 1, 1.25)
    ha = standard_form("hyperbolic-automorphism", r=0.5)
    h2 = compose(ha, ha)
    scale = h2.a / 1.25
    np.testing.assert_allclose(
        [h2.a, h2.b, h2.c, h2.d],
        [1.25 * scale, 1.0 * scale, 1.0 * scale, 1.25 * scale],
        rtol=1e-14,
    )
    expect = standard_form("hyperbolic-automorphism", r=0.8)
    for z in (0.1, -0.4 + 0.2j):
        assert apply(h2, z) == pytest.approx(apply(expect, z))


def test_inverse_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(25):
        a, b, c, d = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        try:
            f = LinearFractionalMap(a, b, c, d)
        except DegenerateMapError:
            continue
        g = inverse(f)
        for z in rng.standard_normal(3) + 1j * rng.standard_normal(3):
            w = apply(f, z)
            if is_inf(w):
                continue
            assert apply(g, w) == pytest.approx(z, abs=1e-9)


# ---------------------------------------------------------------------------
# fixed points and multipliers


def test_fixed_points_hyperbolic_automorphism():
    ha = standard_form("hyperbolic-automorphism", r=0.5)
    fps = sorted(fixed_points(ha), key=lambda p: p.real)
    assert fps[0] == pytest.approx(-1.0)
    assert fps[1] == pytest.approx(1.0)


def test_fixed_points_affine():
    f = LinearFractionalMap(0.5, 0.5, 0, 1)  # 0.5 z + 0.5 fixes 1 and infinity
    fps = fixed_points(f)
    finite = [p for p in fps if not is_inf(p)]
    assert len(finite) == 1 and finite[0] == pytest.approx(1.0)
    assert any(is_inf(p) for p in fps)


def test_fixed_points_parabolic_is_single():
    pa = standard_form("parabolic-automorphism", a=1j)
    fps = fixed_points(pa)
    assert len(fps) == 1
    assert fps[0] == pytest.approx(1.0)


def test_fixed_points_identity_raises():
    with pytest.raises(IdentityMapError):
        fixed_points(LinearFractionalMap(1, 0, 0, 1))


def test_multiplier_values():
    # phi = (z+r)/(1+rz): phi'(z) = (1-r^2)/(1+rz)^2, so 1/3 at +1 and 3 at -1
    ha = standard_form("hyperbolic-automorphism", r=0.5)
    assert multiplier(ha, 1.0) == pytest.approx(1 / 3)
    assert multiplier(ha, -1.0) == pytest.approx(3.0)
    # affine r z + (1-r): derivative r at the finite point, 1/r at infinity
    f = standard_form("hyperbolic-na-1", r=0.25)
    assert multiplier(f, 1.0) == pytest.approx(0.25)
    assert multiplier(f, INF) == pytest.approx(4.0)


def test_multiplier_product_is_one_for_two_fixed_points():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b, c, d = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        try:
            f = LinearFractionalMap(a, b, c, d)
            fps = fixed_points(f)
        except (DegenerateMapError, IdentityMapError):
            continue
        if len(fps) != 2:
            continue
        m0, m1 = multiplier(f, fps[0]), multiplier(f, fps[1])
        assert m0 * m1 == pytest.approx(1.0, abs=1e-8)


# ---------------------------------------------------------------------------
# classification


ROOTS_OF_UNITY = [cmath.exp(2j * math.pi * k / 12) for k in range(1, 12)]


@pytest.mark.parametrize("w", ROOTS_OF_UNITY)
def test_classify_elliptic_round_trip(w):
    cls = classify(standard_form("elliptic-automorphism", w=w))
    assert cls.kind == "elliptic-automorphism"
    assert cls.multiplier == pytest.approx(w)


@pytest.mark.parametrize("r", [0.1, 0.5, 0.9])
@pytest.mark.parametrize(
    "kind", ["hyperbolic-automorphism", "hyperbolic-na-1", "hyperbolic-na-2"]
)
def test_classify_hyperbolic_round_trip(kind, r):
    cls = classify(standard_form(kind, r=r))
    assert cls.kind == kind
    assert abs(cls.multiplier) <= 1.0 + 1e-12


@pytest.mark.parametrize("r", [0.1, 0.5, 0.9])
def test_classify_hyperbolic_multiplier_values(r):
    # attracting multiplier: (1-r)/(1+r) for the automorphism, r for the
    # affine form, r for the na-2 form (conjugate of na-1 by z -> 1/z trick)
    cls = classify(standard_form("hyperbolic-automorphism", r=r))
    assert cls.multiplier == pytest.approx((1 - r) / (1 + r))
    cls = classify(standard_form("hyperbolic-na-1", r=r))
    assert cls.multiplier == pytest.approx(r)
    cls = classify(standard_form("hyperbolic-na-2", r=r))
    assert cls.multiplier == pytest.approx(r)


@pytest.mark.parametrize("a", [1j, 2j, -3j])
def test_classify_parabolic_automorphism(a):
    cls = classify(standard_form("parabolic-automorphism", a=a))
    assert cls.kind == "parabolic-automorphism"
    assert cls.multiplier == pytest.approx(1.0)
    assert len(cls.fixed_points) == 1


@pytest.mark.parametrize("a", [1.0, 0.5 + 2j, 3 - 1j])
def test_classify_parabolic_non_automorphism(a):
    cls = classify(standard_form("parabolic-non-automorphism", a=a))
    assert cls.kind == "parabolic-non-automorphism"


@pytest.mark.parametrize("a,c", [(0.5j, 0.2), (0.3 + 0.3j, 0.1)])
def test_classify_loxodromic(a, c):
    cls = classify(standard_form("loxodromic", a=a, c=c))
    assert cls.kind == "loxodromic"
    assert cls.multiplier == pytest.approx(a)


@pytest.mark.parametrize("a,c", [(0.5, 0.2), (0.25, 0.0)])
def test_classify_hyperbolic_na_3(a, c):
    cls = classify(standard_form("hyperbolic-na-3", a=a, c=c))
    assert cls.kind == "hyperbolic-na-3"
    assert cls.multiplier == pytest.approx(a)


def test_classify_identity_and_non_self_map():
    assert classify(LinearFractionalMap(1, 0, 0, 1)).kind == "identity"
    assert classify(LinearFractionalMap(2, 0, 0, 1)).kind == "not-self-map"
    assert classify(LinearFractionalMap(1, 0.5, 0, 1)).kind == "not-self-map"


def test_classify_attracting_point_has_small_multiplier():
    rng = np.random.default_rng(11)
    kinds = ["hyperbolic-automorphism", "hyperbolic-na-1", "hyperbolic-na-2"]
    for kind in kinds:
        for r in rng.uniform(0.05, 0.95, size=5):
            cls = classify(standard_form(kind, r=float(r)))
            assert abs(cls.multiplier) <= 1.0 + 1e-12


def test_standard_form_rejects_bad_parameters():
    with pytest.raises(ParamOutOfRangeError):
        standard_form("elliptic-automorphism", w=1.0)  # w = 1 is identity
    with pytest.raises(ParamOutOfRangeError):
        standard_form("elliptic-automorphism", w=1.1)
    with pytest.raises(ParamOutOfRangeError):
        standard_form("hyperbolic-automorphism", r=1.0)
    with pytest.raises(ParamOutOfRangeError):
        standard_form("parabolic-automorphism", a=1.0)  # needs Re a = 0
    with pytest.raises(ParamOutOfRangeError):
        standard_form("parabolic-non-automorphism", a=2j)  # needs Re a > 0
    with pytest.raises(ParamOutOfRangeError):
        standard_form("loxodromic", a=0.5, c=0.1)  # positive real a is na-3
    with pytest.raises(ParamOutOfRangeError):
        standard_form("hyperbolic-na-3", a=0.5, c=1.2)  # leaves the disk
    with pytest.raises(ParamOutOfRangeError):
        standard_form("no-such-kind", x=1)


# ---------------------------------------------------------------------------
# disk membership predicates


def test_self_map_predicates():
    assert is_self_map_of_disk(standard_form("hyperbolic-automorphism", r=0.5))
    assert is_self_map_of_disk(standard_form("hyperbolic-na-1", r=0.3))
    assert is_self_map_of_disk(standard_form("loxodromic", a=0.5j, c=0.2))
    assert not is_self_map_of_disk(LinearFractionalMap(2, 0, 0, 1))
    assert not is_self_map_of_disk(LinearFractionalMap(1, 0.5, 0, 1))


def test_self_map_rejects_map_just_outside_the_disk():
    # max |phi| on the circle is 1 + 1e-7, attained at e^{i pi/720}, between
    # the points of a 720-point sample of the circle
    tilt = cmath.exp(1j * math.pi / 720)
    outside = LinearFractionalMap(0.5, 0.5 * (1 + 2e-7) * tilt, 0, 1)
    assert not is_self_map_of_disk(outside)
    assert classify(outside).kind == "not-self-map"
    inside = LinearFractionalMap(0.5, 0.5 * (1 - 2e-7) * tilt, 0, 1)
    assert is_self_map_of_disk(inside)


def _disk_automorphism(theta, p):
    """z -> e^{i theta} (z - p) / (1 - conj(p) z)."""
    u = cmath.exp(1j * theta)
    return LinearFractionalMap(u, -u * p, -p.conjugate(), 1)


_angles = st.floats(-math.pi, math.pi)
_inside = st.builds(lambda r, t: r * cmath.exp(1j * t), st.floats(0.0, 0.95), _angles)


@st.composite
def _self_maps(draw):
    """aut o (rho z + t) o aut with rho + |t| <= 1: a self-map of the disk."""
    rho = draw(st.floats(0.05, 1.0))
    t = draw(st.floats(0.0, 1.0 - rho)) * cmath.exp(1j * draw(_angles))
    inner = LinearFractionalMap(rho, t, 0, 1)
    left = _disk_automorphism(draw(_angles), draw(_inside))
    right = _disk_automorphism(draw(_angles), draw(_inside))
    return compose(left, compose(inner, right))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_self_maps(), _self_maps())
def test_self_maps_are_closed_under_composition(f, g):
    assert is_self_map_of_disk(f) and is_self_map_of_disk(g)
    assert is_self_map_of_disk(compose(f, g))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_self_maps(), st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0))
def test_self_map_test_ignores_coefficient_scaling(f, s):
    scaled = LinearFractionalMap(s * f.a, s * f.b, s * f.c, s * f.d)
    assert is_self_map_of_disk(scaled)
    assert classify(scaled).kind == classify(f).kind


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_self_maps(), _angles)
def test_class_is_invariant_under_conjugation_by_rotations(f, theta):
    u = cmath.exp(1j * theta)
    rotated = compose(LinearFractionalMap(u, 0, 0, 1), compose(f, LinearFractionalMap(1 / u, 0, 0, 1)))
    assert is_self_map_of_disk(rotated)
    assert classify(rotated).kind == classify(f).kind


STANDARD_FORMS = [
    standard_form("elliptic-automorphism", w=cmath.exp(2j)),
    standard_form("parabolic-automorphism", a=2j),
    standard_form("parabolic-non-automorphism", a=0.5 + 2j),
    standard_form("hyperbolic-automorphism", r=0.5),
    standard_form("hyperbolic-na-1", r=0.5),
    standard_form("hyperbolic-na-2", r=0.5),
    standard_form("hyperbolic-na-3", a=0.5, c=0.2),
    standard_form("loxodromic", a=0.5j, c=0.2),
]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.sampled_from(STANDARD_FORMS), _angles, st.floats(0.0, 0.9), _angles)
def test_class_and_multiplier_are_invariant_under_conjugation(f, theta, r, t):
    psi = _disk_automorphism(theta, r * cmath.exp(1j * t))
    conjugated = compose(inverse(psi), compose(f, psi))
    cls, ref = classify(conjugated), classify(f)
    assert cls.kind == ref.kind
    assert cls.multiplier == pytest.approx(ref.multiplier, rel=1e-9)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_angles, _inside, st.floats(1e-6, 1.0))
def test_automorphisms_and_inverses_are_self_maps_and_blowups_are_not(theta, p, grow):
    f = _disk_automorphism(theta, p)
    assert is_self_map_of_disk(f) and is_self_map_of_disk(inverse(f))
    assert is_automorphism_of_disk(f) and is_automorphism_of_disk(inverse(f))
    # (1 + grow) f maps some point of the disk outside it
    blown = LinearFractionalMap((1 + grow) * f.a, (1 + grow) * f.b, f.c, f.d)
    assert not is_self_map_of_disk(blown)


def test_automorphism_predicate():
    assert is_automorphism_of_disk(standard_form("elliptic-automorphism", w=1j))
    assert is_automorphism_of_disk(standard_form("hyperbolic-automorphism", r=0.5))
    assert is_automorphism_of_disk(standard_form("parabolic-automorphism", a=2j))
    assert not is_automorphism_of_disk(standard_form("hyperbolic-na-1", r=0.5))
    assert not is_automorphism_of_disk(standard_form("loxodromic", a=0.5j, c=0.2))


def test_fock_symbol_predicate():
    assert is_fock_symbol(LinearFractionalMap(0.5, 1, 0, 1))
    assert is_fock_symbol(LinearFractionalMap(1j, 0, 0, 1))  # rotation
    assert not is_fock_symbol(LinearFractionalMap(1j, 0.1, 0, 1))  # rotation + shift
    assert not is_fock_symbol(LinearFractionalMap(1.5, 0, 0, 1))
    assert not is_fock_symbol(standard_form("hyperbolic-automorphism", r=0.5))


# ---------------------------------------------------------------------------
# text and JSON forms


@pytest.mark.parametrize(
    "text,val",
    [
        ("i", 1j),
        ("-i", -1j),
        ("2i", 2j),
        ("1+i", 1 + 1j),
        ("0.5", 0.5),
        ("-1.5+0.25i", -1.5 + 0.25j),
        ("2e-3i", 2e-3j),
        ("1e2", 100.0),
    ],
)
def test_parse_complex_examples(text, val):
    assert parse_complex(text) == val


def test_parse_complex_rejects_garbage():
    for bad in ("", "1+2", "i5", "1 + 2i", "abc", "1e999", "-1e999i", "1+1e999i"):
        with pytest.raises(ValueError):
            parse_complex(bad)


def test_format_parse_complex_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(50):
        z = complex(*rng.standard_normal(2) * 10)
        assert parse_complex(format_complex(z)) == pytest.approx(z, abs=1e-12)


def test_parse_format_lft_round_trip():
    f = standard_form("hyperbolic-automorphism", r=0.5)
    g = parse_lft(format_lft(f))
    assert (g.a, g.b, g.c, g.d) == (f.a, f.b, f.c, f.d)
    h = parse_lft("2+1i,-1,0.5i,3")
    assert h.a == 2 + 1j and h.b == -1 and h.c == 0.5j and h.d == 3


def test_classification_is_serializable(capsys):
    import json

    from compext.cli import main

    f = standard_form("hyperbolic-automorphism", r=0.5)
    cls = classify(f)
    assert main(["classify", "--phi", format_lft(f)]) == 0
    blob = json.loads(capsys.readouterr().out)["result"]
    assert blob["class"] == "hyperbolic-automorphism"
    assert blob["fixed_points"] == [[p.real, p.imag] for p in cls.fixed_points]
    assert blob["multiplier"] == [cls.multiplier.real, cls.multiplier.imag]
