"""Seeded draws of symbols, for tests and for sweeps over the resolved classes.

STANDARD_BERGMAN holds one standard member of each resolved Bergman class,
keyed by its class.  conjugator(rng) draws the point b of the disk
involution phi_b(z) = (b - z)/(1 - conj(b) z), uniformly from |b| <= 0.5,
and conjugate(phi, b) is phi_b o phi o phi_b.  phi_b is its own inverse, so
C_psi = C_{phi_b} C_phi C_{phi_b} for psi = conjugate(phi, b): psi has phi's
class, multiplier and predicted extended spectrum.  Every draw comes from a
numpy Generator, so a seed fixes it.  Nothing in the package calls this
module; tests import it as `import draws`.
"""
import cmath
import math

import numpy as np

from compext import LinearFractionalMap, compose, standard_form

STANDARD_BERGMAN = {
    "elliptic-automorphism": standard_form("elliptic-automorphism", w=cmath.exp(2j * math.pi / 5)),
    "hyperbolic-automorphism": standard_form("hyperbolic-automorphism", r=0.5),
    "hyperbolic-na-1": standard_form("hyperbolic-na-1", r=0.5),
    "parabolic-automorphism": standard_form("parabolic-automorphism", a=2j),
    "hyperbolic-na-3": standard_form("hyperbolic-na-3", a=0.6, c=0.3),
    "loxodromic": standard_form("loxodromic", a=0.5j, c=0.2),
}


def conjugator(rng: np.random.Generator) -> complex:
    """b uniform on the disk |b| <= 0.5."""
    return 0.5 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())


def conjugate(phi: LinearFractionalMap, b: complex) -> LinearFractionalMap:
    """phi_b o phi o phi_b, with phi_b(z) = (b - z)/(1 - conj(b) z)."""
    phi_b = LinearFractionalMap(-1, b, -b.conjugate(), 1)
    return compose(phi_b, compose(phi, phi_b))
