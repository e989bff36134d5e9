"""Linear fractional maps on the Riemann sphere, and their dynamics on the unit disk.

A map phi(z) = (a z + b) / (c z + d) is stored by its four coefficients.
Coefficients are only meaningful up to a common scalar; nothing here ever
normalizes them, and every predicate is invariant under rescaling.  A point
of the sphere is a complex number or INF, the point at infinity, which is the
float math.inf.

The classification scheme is the one relevant for composition operators:
self-maps of the disk are sorted by the location of their fixed points and
the modulus of the multiplier at the attracting one.  Class names:

    identity
    elliptic-automorphism        interior fixed point, |phi'| = 1, phi' != 1
    parabolic-automorphism       one boundary fixed point, automorphism
    parabolic-non-automorphism   one boundary fixed point, proper self-map
    hyperbolic-automorphism      attracting and repelling both on the circle
    hyperbolic-na-1              attracting on the circle, repelling outside
    hyperbolic-na-2              attracting inside, repelling on the circle
    hyperbolic-na-3              attracting inside, repelling outside,
                                 positive real multiplier
    loxodromic                   attracting inside, repelling outside,
                                 multiplier not positive real
    not-self-map                 everything that leaves the disk
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass, field


class DomainError(ValueError):
    """An input outside the domain of the mathematics: a symbol, space,
    parameter or truncation for which the requested object does not exist
    or leaves the float range.  The command line exits 1 on any of them."""


INF = math.inf


@dataclass(frozen=True)
class LinearFractionalMap:
    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        a, b, c, d = (complex(self.a), complex(self.b), complex(self.c), complex(self.d))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)
        scale = max(abs(a), abs(b), abs(c), abs(d))
        if abs(a * d - b * c) <= 1e-12 * scale * scale:
            raise DomainError(
                f"ad - bc = {a * d - b * c!r} is negligible against "
                f"coefficient scale {scale!r}"
            )

    @property
    def determinant(self) -> complex:
        return self.a * self.d - self.b * self.c

    def __str__(self) -> str:
        return format_lft(self)


def apply(f: LinearFractionalMap, z):
    """Evaluate f at a point of the sphere (complex number or INF)."""
    if z == INF:
        if f.c == 0:
            return INF
        return f.a / f.c
    num = f.a * z + f.b
    den = f.c * z + f.d
    if den == 0:
        return INF
    return num / den


def compose(f: LinearFractionalMap, g: LinearFractionalMap) -> LinearFractionalMap:
    """The map z -> f(g(z)).  Coefficient matrices multiply."""
    return LinearFractionalMap(
        a=f.a * g.a + f.b * g.c,
        b=f.a * g.b + f.b * g.d,
        c=f.c * g.a + f.d * g.c,
        d=f.c * g.b + f.d * g.d,
    )


def inverse(f: LinearFractionalMap) -> LinearFractionalMap:
    """Inverse map, via the adjugate matrix (no determinant division needed)."""
    return LinearFractionalMap(a=f.d, b=-f.b, c=-f.c, d=f.a)


# the relative tolerance of the identity test, the affine and translation
# tests in fixed_points, and the unimodular and on-circle tests in classify
CLASSIFY_TOL = 1e-9


def _is_identity(f: LinearFractionalMap) -> bool:
    scale = max(abs(f.a), abs(f.b), abs(f.c), abs(f.d))
    return (
        abs(f.b) <= CLASSIFY_TOL * scale
        and abs(f.c) <= CLASSIFY_TOL * scale
        and abs(f.a - f.d) <= CLASSIFY_TOL * scale
    )


def fixed_points(f: LinearFractionalMap):
    """Fixed points on the sphere, as a tuple of one or two points.

    Solves c z^2 + (d - a) z - b = 0.  When c = 0 the map is affine and
    infinity is always fixed; a double root is reported once.  Raises
    DomainError for the identity, which fixes everything.
    """
    if _is_identity(f):
        raise DomainError("every point is fixed")
    a, b, c, d = f.a, f.b, f.c, f.d
    scale = max(abs(a), abs(b), abs(c), abs(d))
    if abs(c) <= CLASSIFY_TOL * scale:
        # affine: fixes infinity, plus b/(d-a) if a != d
        if abs(a - d) <= CLASSIFY_TOL * scale:
            # translation z + b/d: infinity is the unique (double) fixed point
            return (INF,)
        return (b / (d - a), INF)
    # the discriminant is the trace invariant tr^2 - 4 det; test it for a
    # double root before the square root turns its roundoff eps into sqrt(eps)
    disc = (d - a) * (d - a) + 4 * b * c
    if abs(disc) <= 1e-12 * scale * scale:
        return ((a - d) / (2 * c),)
    sq = cmath.sqrt(disc)
    plus, minus = a - d + sq, a - d - sq
    z1, z2 = plus / (2 * c), minus / (2 * c)
    # a numerator that cancels loses its digits: take that root from the
    # product of the roots, -b/c, instead
    if abs(plus) < abs(minus):
        z1 = -2 * b / minus
    elif abs(minus) < abs(plus):
        z2 = -2 * b / plus
    return (z1, z2)


def multiplier(f: LinearFractionalMap, p) -> complex:
    """Derivative of f at a fixed point p; at INF this is the multiplier of
    the conjugated map w -> 1/f(1/w) at 0, which works out to d/a for affine
    maps and c-dependent otherwise."""
    if p == INF:
        # w -> (c + d w)/(a + b w) near w = 0; derivative (a d - b c)/a^2
        if f.a == 0:
            raise ZeroDivisionError("infinity is not a fixed point of this map")
        return f.determinant / (f.a * f.a)
    den = f.c * p + f.d
    return f.determinant / (den * den)


def is_self_map_of_disk(f: LinearFractionalMap) -> bool:
    """True iff f maps the open unit disk into itself.

    Cowen's criterion (Cowen, "Linear fractional composition operators on
    H^2", Integral Equations Operator Theory 11, 1988): (a z + b)/(c z + d)
    is a self-map of the disk iff

        |b conj(d) - a conj(c)| + |a d - b c| <= |d|^2 - |c|^2,

    tested with a slack of 1e-10 (|a|^2 + |b|^2 + |c|^2 + |d|^2), so that the
    automorphisms, which meet it with equality, pass through roundoff.  A
    pole in the closed disk makes the right side nonpositive, and the left
    side is positive for every nondegenerate map.
    """
    a, b, c, d = f.a, f.b, f.c, f.d
    lhs = abs(b * d.conjugate() - a * c.conjugate()) + abs(a * d - b * c)
    scale = abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2 + abs(d) ** 2
    return lhs <= abs(d) ** 2 - abs(c) ** 2 + 1e-10 * scale


def is_automorphism_of_disk(f: LinearFractionalMap) -> bool:
    """True iff f is a bijection of the open disk onto itself."""
    return is_self_map_of_disk(f) and is_self_map_of_disk(inverse(f))


def is_fock_symbol(f: LinearFractionalMap) -> bool:
    """True iff f is affine, f(z) = w z + beta, with |w| < 1, or |w| = 1 and
    beta = 0 (the symbols whose composition operator is bounded on Fock space)."""
    scale = max(abs(f.a), abs(f.b), abs(f.c), abs(f.d))
    if abs(f.c) > 1e-14 * scale:
        return False
    w = f.a / f.d
    beta = f.b / f.d
    if abs(w) < 1.0 - 1e-12:
        return True
    return abs(abs(w) - 1.0) <= 1e-12 and abs(beta) <= 1e-12


@dataclass(frozen=True)
class Classification:
    """A map's class, its fixed points (INF, which is math.inf, may be one)
    and the multiplier at the attracting one."""

    kind: str = field(metadata={"json": "class"})
    fixed_points: tuple
    multiplier: complex | None  # derivative at the attracting fixed point


def classify(f: LinearFractionalMap) -> Classification:
    """Sort a linear fractional map into its dynamical class on the disk.

    Tolerances are relative: a multiplier counts as unimodular when
    ||phi'| - 1| <= CLASSIFY_TOL, a fixed point as on the circle when
    ||p| - 1| <= CLASSIFY_TOL.
    """
    if _is_identity(f):
        return Classification("identity", (), None)
    if not is_self_map_of_disk(f):
        return Classification("not-self-map", (), None)

    fps = fixed_points(f)
    if len(fps) == 1:
        # parabolic: the unique fixed point of a self-map lies on the circle
        kind = "parabolic-automorphism" if is_automorphism_of_disk(f) else "parabolic-non-automorphism"
        return Classification(kind, fps, 1.0 + 0j)

    # two fixed points: find the attracting one (|phi'| <= 1, ties broken
    # toward the point of smaller modulus, i.e. the one in the disk)
    mults = [multiplier(f, p) for p in fps]
    if abs(abs(mults[0]) - abs(mults[1])) <= CLASSIFY_TOL:
        # elliptic-style tie: attracting point is the one of smaller modulus
        order = sorted(range(2), key=lambda i: abs(fps[i]))
    else:
        order = sorted(range(2), key=lambda i: abs(mults[i]))
    p_att, p_rep = fps[order[0]], fps[order[1]]
    lam = mults[order[0]]

    if abs(abs(lam) - 1.0) <= CLASSIFY_TOL:
        # elliptic rotation about an interior fixed point
        kind = "elliptic-automorphism"
    elif abs(abs(p_att) - 1.0) <= CLASSIFY_TOL:
        # a non-automorphism self-map touches the circle in at most one
        # fixed point, so the repelling one of na-1 is strictly outside
        kind = "hyperbolic-automorphism" if is_automorphism_of_disk(f) else "hyperbolic-na-1"
    elif abs(abs(p_rep) - 1.0) <= CLASSIFY_TOL:
        # attracting point strictly inside the disk from here on
        kind = "hyperbolic-na-2"
    elif abs(lam.imag) <= CLASSIFY_TOL * abs(lam) and lam.real > 0:
        kind = "hyperbolic-na-3"
    else:
        kind = "loxodromic"
    return Classification(kind, (p_att, p_rep), lam)


# the classes standard_form builds from one r in (0, 1): r -> (a, b, c, d)
_R_FORMS = {
    "hyperbolic-automorphism": lambda r: (1, r, r, 1),
    "hyperbolic-na-1": lambda r: (r, 1 - r, 0, 1),
    "hyperbolic-na-2": lambda r: (r, 0, -(1 - r), 1),
}


def standard_form(kind: str, **params) -> LinearFractionalMap:
    """Produce the canonical representative of a class.

    Parameters by kind:
        elliptic-automorphism         w   (|w| = 1, w != 1): z -> w z
        hyperbolic-automorphism       r   (0 < r < 1): z -> (z + r)/(1 + r z)
        hyperbolic-na-1               r   (0 < r < 1): z -> r z + (1 - r)
        hyperbolic-na-2               r   (0 < r < 1): z -> r z/(1 - (1-r) z)
        parabolic-automorphism        a   (Re a = 0, a != 0)
        parabolic-non-automorphism    a   (Re a > 0)
            both: z -> ((2 - a) z + a)/(-a z + 2 + a)
        hyperbolic-na-3               a, c  (0 < a < 1 real; |c| < 1)
        loxodromic                    a, c  (0 < |a| < 1, a not positive real)
            both: z -> a (z - c) + c, valid while |a| + |1 - a| |c| <= 1
    """
    if kind == "elliptic-automorphism":
        w = complex(params["w"])
        if abs(abs(w) - 1.0) > 1e-12 or abs(w - 1.0) <= 1e-12:
            raise DomainError("need |w| = 1 and w != 1")
        return LinearFractionalMap(w, 0, 0, 1)
    if kind in _R_FORMS:
        r = float(params["r"])
        if not 0 < r < 1:
            raise DomainError("need 0 < r < 1")
        return LinearFractionalMap(*_R_FORMS[kind](r))
    if kind in ("parabolic-automorphism", "parabolic-non-automorphism"):
        a = complex(params["a"])
        if kind == "parabolic-automorphism":
            if abs(a.real) > 1e-12 * abs(a) or a == 0:
                raise DomainError("need purely imaginary a != 0")
        else:
            if a.real <= 0:
                raise DomainError("need Re(a) > 0")
        return LinearFractionalMap(2 - a, a, -a, 2 + a)
    if kind in ("hyperbolic-na-3", "loxodromic"):
        a = complex(params["a"])
        c = complex(params["c"])
        if abs(a) >= 1 or a == 0:
            raise DomainError("need 0 < |a| < 1")
        if abs(a) + abs(1 - a) * abs(c) > 1:
            raise DomainError(
                "need |a| + |1 - a| |c| <= 1 for a self-map of the disk"
            )
        if kind == "hyperbolic-na-3":
            if abs(a.imag) > 1e-12 * abs(a) or a.real <= 0:
                raise DomainError("need positive real a")
        else:
            if abs(a.imag) <= 1e-12 * abs(a) and a.real > 0:
                raise DomainError("positive real a is the na-3 case")
        # z -> a(z - c) + c = a z + c(1 - a)
        return LinearFractionalMap(a, c * (1 - a), 0, 1)
    raise DomainError(f"unknown class kind {kind!r}")


# ---------------------------------------------------------------------------
# text form: "a,b,c,d" where each entry is a complex literal like -1.5+0.25i


# what complex() also takes, a literal may not: spaces, _, nan, inf, j, ( and )
_LITERAL = re.compile(r"[\d.eE+-]*i?")


def parse_complex(text: str) -> complex:
    """Parse 'x+yi' (no spaces, i suffix): '2', '-0.5i', '1+2i', '1e-3-2.5e2i'.
    A literal past the float range, such as '1e999', is rejected."""
    s = text.strip()
    try:
        if not _LITERAL.fullmatch(s):
            raise ValueError
        z = complex(s[:-1] + "j" if s.endswith("i") else s)
    except ValueError:
        raise ValueError(f"bad complex literal {text!r}") from None
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"complex literal {text!r} is out of float range")
    return z


def format_complex(z: complex) -> str:
    """z in the form parse_complex reads back bit for bit: a +0.0 imaginary
    part is left out, a -0.0 one written as -0.0i."""
    z = complex(z)
    re_s = repr(z.real)
    im = z.imag
    if im == 0 and math.copysign(1.0, im) > 0:
        return re_s
    sign = "+" if im > 0 else "-"
    return f"{re_s}{sign}{repr(abs(im))}i"


def parse_lft(text: str) -> LinearFractionalMap:
    """Parse 'a,b,c,d' with complex entries in x+yi form."""
    parts = text.strip().split(",")
    if len(parts) != 4:
        raise ValueError(f"expected 4 comma-separated coefficients, got {len(parts)}")
    a, b, c, d = (parse_complex(p) for p in parts)
    return LinearFractionalMap(a, b, c, d)


def format_lft(f: LinearFractionalMap) -> str:
    return ",".join(format_complex(z) for z in (f.a, f.b, f.c, f.d))

