"""Tests for the three norm models: monomial norms and SpaceSpec."""
import math

import numpy as np
import pytest

from compext import (
    SpaceSpec,
    monomial_norm,
    monomial_norms,
)

HARDY = SpaceSpec("hardy")
BERGMAN = SpaceSpec("bergman")
FOCK = SpaceSpec("fock")


def test_monomial_norm_values():
    assert monomial_norm(HARDY, 0) == 1.0
    assert monomial_norm(HARDY, 7) == 1.0
    assert monomial_norm(BERGMAN, 1) == pytest.approx(1 / math.sqrt(2))
    assert monomial_norm(BERGMAN, 4) == pytest.approx(1 / math.sqrt(5))
    assert monomial_norm(FOCK, 2) == pytest.approx(math.sqrt(2))
    assert monomial_norm(SpaceSpec("fock", alpha=2.0), 3) == pytest.approx(
        math.sqrt(6 / 8)
    )


def test_fock_norm_ratio_recurrence():
    # ||z^(n+1)|| / ||z^n|| = sqrt((n+1)/alpha); checks the log-gamma route
    sp = SpaceSpec("fock", alpha=0.7)
    for n in range(0, 40, 7):
        ratio = monomial_norm(sp, n + 1) / monomial_norm(sp, n)
        assert ratio == pytest.approx(math.sqrt((n + 1) / 0.7), rel=1e-12)


def test_monomial_norms_vector():
    for sp in (HARDY, BERGMAN, FOCK):
        v = monomial_norms(sp, 9)
        assert v.shape == (9,)
        np.testing.assert_allclose(v, [monomial_norm(sp, n) for n in range(9)])


def test_space_spec_validation_and_json():
    with pytest.raises(ValueError):
        SpaceSpec("dirichlet")
    with pytest.raises(ValueError):
        SpaceSpec("fock", alpha=0.0)
    # alpha is stored as a float, so JSON output reads 2.0, not 2
    assert type(SpaceSpec("fock", alpha=2).alpha) is float
