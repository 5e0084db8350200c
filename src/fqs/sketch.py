"""Quantile sketches and the step distributions they induce.

A sketch is the vector of lower empirical quantiles of a score sample,
read at the midpoint levels of a fixed grid.  Sketches are the only thing
a data holder ever ships: k floats plus a count.  Everything downstream
(mixtures, inversion, distances) operates on the step distribution that
places mass 1/k on each sketch value.

Conventions, fixed once and used everywhere:

* grid levels are ``u_l = eps + (l - 1/2) * (1 - 2*eps) / k`` for
  ``l = 1..k``; ``eps = 0`` gives the plain midpoint grid;
* the empirical quantile at level u of a sorted sample ``x_1 <= ... <= x_n``
  is ``x_ceil(u*n)`` (lower quantile, left-continuous in u);
* a step distribution carries positive count weights, and its cumulative
  mass at a knot is the running weight divided by the total weight;
* the generalized inverse of a step CDF at level u is the smallest knot
  whose cumulative mass reaches u, with cumulative-mass comparisons
  slackened by ``CUM_MASS_SLACK``.

A sketch value weighs its tie count times the sketch's sample count, so
every weight, running weight and total is an integer held in a float64.
Such sums are exact while the total stays below 2**53 (k * N < 2**53 for
N pooled samples), and each cumulative mass is then one correctly rounded
division.  One flat kernel, ``mix_step_cdfs(knots, weights)``, builds
every step distribution from weighted points in any order (one stable
argsort; ``np.add.reduceat`` merges ties): a sketch is its one-row call,
a group's count-weighted (pi) mixture the call on its stacked silos x k
value matrix with each silo's count repeated k times, and the (alpha)
pooled law the call on the concatenated group knots and weights.
Integer weights add exactly in any order, so the grouping and order of
the points do not change a bit of the result.

``CUM_MASS_SLACK`` is the one tolerance.  On an untrimmed grid a mixture
quantile equals the exact integer rule (the smallest knot x with
``2 * W(x) >= (2l - 1) * N_s``, W the running weight over k) whenever
k * N_s < 1e12: distinct candidate masses then differ from a level by at
least 1/(2 k N_s), more than the slack.  The slack stays strictly below
the 1e-12 step of the left-continuity contract
(``cdf.quantiles([c + 1e-12])`` lands on the next knot).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

__all__ = [
    "GridSpec",
    "QuantileSketch",
    "StepCdf",
    "build_sketch",
    "sketch_to_step_cdf",
    "mix_step_cdfs",
]

CUM_MASS_SLACK = 5e-13

# Relative snap tolerance when deciding whether u*n already sits on an
# integer; absorbs the rounding of grid levels times sample sizes.
_INDEX_SNAP = 1e-12


def _as_float_array(values, code: str, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValidationError(code, f"{what} must be one-dimensional")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValidationError(code, f"{what} must be finite")
    return arr


@dataclass(frozen=True)
class GridSpec:
    """Evaluation grid: k midpoint levels, optionally trimmed to
    [trim_epsilon, 1 - trim_epsilon]."""

    k: int
    trim_epsilon: float = 0.0

    def __post_init__(self):
        if not isinstance(self.k, (int, np.integer)) or self.k < 1:
            raise ValidationError("invalid-grid", f"k must be a positive integer, got {self.k!r}")
        eps = self.trim_epsilon
        if not (isinstance(eps, (int, float, np.floating)) and math.isfinite(eps)):
            raise ValidationError("invalid-grid", "trim_epsilon must be a finite number")
        if not 0.0 <= eps < 0.5:
            raise ValidationError("invalid-grid", f"trim_epsilon must lie in [0, 0.5), got {eps}")
        object.__setattr__(self, "k", int(self.k))
        object.__setattr__(self, "trim_epsilon", float(eps))

    def levels(self) -> np.ndarray:
        """The k levels, strictly increasing inside (0, 1)."""
        ell = np.arange(1, self.k + 1, dtype=np.float64)
        return self.trim_epsilon + (ell - 0.5) * (1.0 - 2.0 * self.trim_epsilon) / self.k


@dataclass(frozen=True, eq=False)
class QuantileSketch:
    """Nondecreasing quantile values on a grid, plus the sample count."""

    grid: GridSpec
    values: np.ndarray
    count: int

    def __post_init__(self):
        vals = _as_float_array(self.values, "invalid-sketch", "sketch values")
        if vals.size != self.grid.k:
            raise ValidationError(
                "invalid-sketch",
                f"expected {self.grid.k} values, got {vals.size}",
            )
        if vals.size > 1 and np.any(np.diff(vals) < 0):
            raise ValidationError("invalid-sketch", "sketch values must be nondecreasing")
        if not isinstance(self.count, (int, np.integer)) or self.count < 1:
            raise ValidationError("invalid-sketch", f"count must be a positive integer, got {self.count!r}")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "count", int(self.count))


@dataclass(frozen=True, eq=False)
class StepCdf:
    """Discrete distribution: strictly increasing knots carrying positive
    weights; a knot's mass is its weight over the total weight."""

    knots: np.ndarray
    weights: np.ndarray
    _cum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        knots = _as_float_array(self.knots, "invalid-step-cdf", "knots")
        weights = _as_float_array(self.weights, "invalid-step-cdf", "weights")
        if knots.size == 0:
            raise ValidationError("invalid-step-cdf", "need at least one knot")
        if knots.size != weights.size:
            raise ValidationError("invalid-step-cdf", "knots and weights must have equal length")
        if knots.size > 1 and np.any(np.diff(knots) <= 0):
            raise ValidationError("invalid-step-cdf", "knots must be strictly increasing")
        if np.any(weights <= 0):
            raise ValidationError("invalid-step-cdf", "weights must be positive")
        running = np.cumsum(weights)
        # cumulative masses with a leading 0: _cum[i] is the mass strictly below knot i
        cum = np.concatenate(([0.0], running / running[-1]))
        knots = knots.copy()
        weights = weights.copy()
        for arr in (knots, weights, cum):
            arr.setflags(write=False)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_cum", cum)

    def cdf_at(self, x) -> np.ndarray:
        """Right-continuous CDF evaluated at the given points."""
        idx = np.searchsorted(self.knots, np.asarray(x, dtype=np.float64), side="right")
        return self._cum[idx]

    def quantiles(self, levels) -> np.ndarray:
        """Generalized inverse at each level: the smallest knot whose
        cumulative mass reaches it, within ``CUM_MASS_SLACK``."""
        levels = np.asarray(levels, dtype=np.float64)
        idx = np.searchsorted(self._cum[1:], levels - CUM_MASS_SLACK, side="left")
        return self.knots[np.minimum(idx, self.knots.size - 1)]


def _quantile_indices(levels: np.ndarray, n: int) -> np.ndarray:
    """1-based sample indices ceil(u * n) for each level, with integer snap."""
    t = levels * n
    r = np.rint(t)
    snapped = np.abs(t - r) <= _INDEX_SNAP * np.maximum(t, 1.0)
    idx = np.where(snapped, r, np.ceil(t)).astype(np.int64)
    return np.clip(idx, 1, n)


def build_sketch(samples, grid: GridSpec) -> QuantileSketch:
    """Sort a raw sample and read its lower quantiles at the grid levels."""
    arr = _as_float_array(samples, "non-finite-sample", "samples")
    if arr.size == 0:
        raise ValidationError("empty-sample", "need at least one sample")
    ordered = np.sort(arr)
    idx = _quantile_indices(grid.levels(), ordered.size)
    return QuantileSketch(grid=grid, values=ordered[idx - 1], count=ordered.size)


def sketch_to_step_cdf(sk: QuantileSketch) -> StepCdf:
    """Distribution of the sketch values, each weighing the sample count
    (ties merge), so its cumulative masses are exactly rounded c / k."""
    return mix_step_cdfs(sk.values, np.full(sk.values.size, float(sk.count)))


def mix_step_cdfs(knots, weights) -> StepCdf:
    """Step distribution of weighted points given in any order.

    The points are stable-sorted and coinciding ones merge by adding their
    weights.  Concatenated parts give their mixture in proportion to the
    parts' total weights, in any part order.
    """
    knots = _as_float_array(knots, "invalid-step-cdf", "knots")
    weights = _as_float_array(weights, "invalid-step-cdf", "weights")
    if knots.size == 0 or knots.size != weights.size or np.any(weights <= 0):
        raise ValidationError("invalid-step-cdf", "need at least one knot and one positive weight per knot")
    order = np.argsort(knots, kind="stable")
    knots = knots[order]
    start = np.flatnonzero(np.concatenate(([True], knots[1:] != knots[:-1])))
    return StepCdf(knots=knots[start], weights=np.add.reduceat(weights[order], start))
