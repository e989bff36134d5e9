"""Structural checks: finite-dimensional lemmas, exercised by random matrices.

The ratio-set identities that acceptance criterion C8 and the extspec tests
check.  Nothing in the package calls this module; tests import it as
`from lemmas import lemma_suite`.
"""
import math
from dataclasses import dataclass

import numpy as np

from compext import (
    CheckRow,
    OperatorMatrix,
    SpaceSpec,
    SylvesterProbe,
    ratio_distance,
    ratio_set,
)
from compext.extspec import SYLVESTER_THRESHOLD, _dedup_sorted


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
      nonsingular  sylvester probe at 0 stays above SYLVESTER_THRESHOLD

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
        r_adj = ratio_set(OperatorMatrix(M.space, M.order, M.entries.conj().T))
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
            flag = sv <= SYLVESTER_THRESHOLD or rdist <= 1e-9
            if flag:
                worst_member = max(worst_member, rdist)
                if rdist > 1e-8:
                    member_ok = False
        # direct sum: every block ratio flags in the sum's scan
        if A is None and idx % 2 == 1:
            prev = mats[idx - 1]
            zero = np.zeros((prev.order, M.order))
            S = OperatorMatrix(space, prev.order + M.order, np.block([[prev.entries, zero], [zero.T, M.entries]]))
            probe_s = SylvesterProbe(S, seed=seed)
            union = _dedup_sorted(np.concatenate([ratio_set(prev), r]), 1e-9)
            for lam in union:
                sv = probe_s.sigma_min(lam)
                worst_sum = max(worst_sum, sv)
                if sv > SYLVESTER_THRESHOLD:
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
            worst_nonsing > SYLVESTER_THRESHOLD,
            worst_nonsing,
            "normalized sigma_min at lambda=0",
        )
    )
    return SuiteReport(rows)
