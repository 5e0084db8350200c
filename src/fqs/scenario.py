"""Synthetic allocation of individuals to silos, with tunable selection bias.

The module separates three steps:

* a baseline allocation (:func:`allocate_random`) fixes how many members
  of each group live in each silo -- the margins;
* :func:`allocate_copula` redistributes individuals across silos while
  realizing those margins exactly, coupling the silo choice to the score
  through a Gaussian copula with strength rho in [0, 1);
* :func:`split_cells` cuts the scattered rows into (silo, group) cells.

Groups are the sorted distinct labels; callers may pass the labels or
their integer codes.

Under the ``positive`` regime high scores drift toward high-index silos in
both groups; ``negative`` reverses the drift for the first group in
sorted label order, creating opposing selection; ``random`` ignores scores
entirely.  Because members are ranked within their group and cut by the
cumulative margins, the realized contingency table equals the margins in
every regime, so regimes differ only in who goes where, never in how many.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import ValidationError
from .rng import substream

__all__ = [
    "AllocationScenario",
    "allocate_random",
    "allocate_copula",
    "margins_from_assignment",
    "split_cells",
    "dependence_diagnostics",
    "sample_beta",
    "normal_cdf",
    "normal_quantile",
]

REGIMES = ("random", "positive", "negative")


@dataclass(frozen=True)
class AllocationScenario:
    """How to scatter one dataset across silos."""

    regime: str
    rho: float
    d: int
    seed: int

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ValidationError("unknown-regime", f"regime must be one of {REGIMES}, got {self.regime!r}")
        if not (isinstance(self.rho, (int, float)) and 0.0 <= self.rho < 1.0):
            raise ValidationError("rho-out-of-range", f"rho must lie in [0, 1), got {self.rho!r}")
        if not isinstance(self.d, int) or isinstance(self.d, bool) or self.d < 1:
            raise ValidationError("invalid-scenario", f"d must be a positive integer, got {self.d!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValidationError("invalid-scenario", "seed must be an integer")


def _group_codes(group_labels):
    """Sorted distinct labels and each row's index into them."""
    groups, codes = np.unique(np.asarray(group_labels), return_inverse=True)
    if codes.size == 0:
        raise ValidationError("empty-sample", "need at least one individual")
    return groups.tolist(), codes


def allocate_random(group_labels, d: int, seed: int) -> np.ndarray:
    """I.i.d. uniform silo draw (1..d) for every individual."""
    if len(group_labels) == 0:
        raise ValidationError("empty-sample", "need at least one individual")
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise ValidationError("invalid-scenario", f"d must be a positive integer, got {d!r}")
    gen = substream(seed, "allocate-random")
    return gen.integers(1, d + 1, size=len(group_labels), dtype=np.int64)


def margins_from_assignment(assignment, group_labels, d: int) -> np.ndarray:
    """Contingency table N[silo - 1][group], groups in sorted label order."""
    groups, codes = _group_codes(group_labels)
    silo = np.asarray(assignment, dtype=np.int64)
    if silo.shape != codes.shape:
        raise ValidationError("margin-mismatch", "assignment and labels must have equal length")
    if silo.size and (silo.min() < 1 or silo.max() > d):
        raise ValidationError("margin-mismatch", f"silo indices must lie in 1..{d}")
    g = len(groups)
    return np.bincount((silo - 1) * g + codes, minlength=d * g).reshape(d, g)


def split_cells(scores, codes, silo, d: int, groups: int) -> List[List[np.ndarray]]:
    """Scores of every (silo, group) cell: ``cells[j][c]`` holds, in row
    order, the scores of the rows in silo j with group code c (both
    0-based).  Empty cells are empty arrays."""
    order = np.lexsort((codes, silo))
    sizes = np.bincount(silo * groups + codes, minlength=d * groups)
    parts = np.split(np.asarray(scores)[order], np.cumsum(sizes)[:-1])
    return [parts[j * groups : (j + 1) * groups] for j in range(d)]


def _randomized_ranks(scores: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """Ranks 1..n of the scores, ties broken by a seeded permutation."""
    perm = gen.permutation(scores.size)
    order = np.lexsort((perm, scores))
    ranks = np.empty(scores.size, dtype=np.int64)
    ranks[order] = np.arange(1, scores.size + 1)
    return ranks


def allocate_copula(scores, group_labels, margins, rho: float, regime: str, seed: int) -> np.ndarray:
    """Silo assignment (1..d) realizing the margins exactly.

    A latent uniform is built for every individual -- pure noise under
    ``random``, a Gaussian-copula blend of the global score rank and noise
    under ``positive``/``negative`` (the latter flips the latent for the
    lexicographically first group).  Within each group, individuals sorted
    by the latent are cut by the cumulative margin counts, so the returned
    table is exactly ``margins`` for every regime, rho and seed.
    """
    groups, codes = _group_codes(group_labels)
    z = np.asarray(scores, dtype=np.float64)
    if z.shape != codes.shape:
        raise ValidationError("margin-mismatch", "scores and labels must have equal length")
    if not np.all(np.isfinite(z)):
        raise ValidationError("non-finite-sample", "scores must be finite")
    if regime not in REGIMES:
        raise ValidationError("unknown-regime", f"regime must be one of {REGIMES}, got {regime!r}")
    if not (isinstance(rho, (int, float)) and 0.0 <= rho < 1.0):
        raise ValidationError("rho-out-of-range", f"rho must lie in [0, 1), got {rho!r}")
    table = np.asarray(margins, dtype=np.int64)
    if table.ndim != 2:
        raise ValidationError("margin-mismatch", "margins must be a (silo, group) matrix")
    if np.any(table < 0):
        raise ValidationError("margin-mismatch", "margins must be nonnegative")
    if table.shape[1] != len(groups):
        raise ValidationError("margin-mismatch", f"margins have {table.shape[1]} columns, data has {len(groups)} groups")
    if int(table.sum()) != z.size:
        raise ValidationError("margin-mismatch", "margins total differs from the number of individuals")
    members = np.bincount(codes, minlength=len(groups))
    wrong = np.flatnonzero(table.sum(axis=0) != members)
    if wrong.size:
        c = wrong[0]
        raise ValidationError(
            "margin-mismatch",
            f"margins give {int(table[:, c].sum())} members for group {groups[c]!r}, data has {members[c]}",
        )

    n = z.size
    noise_gen = substream(seed, "latent-noise")
    if regime == "random":
        latent = noise_gen.random(n)
    else:
        ranks = _randomized_ranks(z, substream(seed, "rank-ties"))
        zr = ndtri(ranks / (n + 1.0))
        latent = ndtr(rho * zr + math.sqrt(1.0 - rho * rho) * noise_gen.standard_normal(n))
        if regime == "negative":
            latent = np.where(codes == 0, 1.0 - latent, latent)

    # Rows ordered by group, then latent, then a seeded tie-break; each
    # group's run is cut by its margin column, silo 1 first.
    tie = substream(seed, "assign-ties").permutation(n)
    order = np.lexsort((tie, latent, codes))
    assignment = np.empty(n, dtype=np.int64)
    assignment[order] = np.repeat(np.tile(np.arange(1, table.shape[0] + 1), len(groups)), table.T.ravel())
    return assignment


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """Ranks 1..n with each tie block sharing its midrank (start + 1 + stop) / 2."""
    order = np.argsort(x, kind="stable")
    sorted_x = x[order]
    start = np.flatnonzero(np.concatenate(([True], sorted_x[1:] != sorted_x[:-1])))
    stop = np.append(start[1:], x.size)
    ranks = np.empty(x.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (start + 1 + stop), stop - start)
    return ranks


def dependence_diagnostics(scores, assignment) -> Dict[str, float]:
    """Pearson and Spearman correlation between score and silo index.

    Spearman is the Pearson correlation of average (mid) ranks.  Raises
    ``degenerate-correlation`` when either variable is constant.
    """
    z = np.asarray(scores, dtype=np.float64)
    a = np.asarray(assignment, dtype=np.float64)
    if z.ndim != 1 or z.shape != a.shape or z.size < 2:
        raise ValidationError("degenerate-correlation", "need two aligned vectors of length >= 2")

    def corr(x, y):
        sx = x - x.mean()
        sy = y - y.mean()
        vx = float(sx @ sx)
        vy = float(sy @ sy)
        if vx <= 0.0 or vy <= 0.0:
            raise ValidationError("degenerate-correlation", "a variable is constant")
        return float(sx @ sy) / math.sqrt(vx * vy)

    return {
        "pearson": corr(z, a),
        "spearman": corr(_average_ranks(z), _average_ranks(a)),
    }


def sample_beta(alpha: float, beta: float, size: int, seed: int, stream: str = "beta") -> np.ndarray:
    """Beta(alpha, beta) draws via the ratio of two gamma variates."""
    if not (isinstance(alpha, (int, float)) and alpha > 0 and isinstance(beta, (int, float)) and beta > 0):
        raise ValidationError("invalid-scenario", "shape parameters must be positive")
    if not isinstance(size, int) or isinstance(size, bool) or size < 1:
        raise ValidationError("invalid-scenario", "size must be a positive integer")
    gen = substream(seed, stream)
    g1 = gen.standard_gamma(alpha, size=size)
    g2 = gen.standard_gamma(beta, size=size)
    return g1 / (g1 + g2)


def normal_cdf(x):
    """Standard normal CDF (Cephes erf path; absolute error far below 1e-12)."""
    out = ndtr(np.asarray(x, dtype=np.float64))
    return float(out) if np.isscalar(x) or np.asarray(x).ndim == 0 else out


def normal_quantile(u):
    """Standard normal quantile; u strictly inside (0, 1)."""
    arr = np.asarray(u, dtype=np.float64)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ValidationError("level-out-of-range", "u must lie strictly inside (0, 1)")
    out = ndtri(arr)
    return float(out) if np.isscalar(u) or arr.ndim == 0 else out
