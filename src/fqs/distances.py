"""Grid distances, exact step-CDF distances, and barycenters.

Two metrics between one-dimensional distributions appear throughout:

* the transport distance of order p between two quantile vectors on a
  shared grid, computed as the p-mean of the level-wise gaps;
* the CDF distance of order p between two step distributions, computed by
  exact integration of |F - G|^p between consecutive knots of the union.

For p = 1 the two coincide on matching inputs.  Barycenters under the
transport metric are level-wise: the weighted mean for p = 2 and the lower
weighted median for p = 1.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Sequence, Tuple

import numpy as np

from .errors import ValidationError
from .sketch import QuantileSketch, StepCdf, mix_step_cdfs

__all__ = [
    "wasserstein_p_grid",
    "cramer_p_step",
    "barycenter_quantiles",
    "transport_disparity",
    "cdf_disparity",
]

_MEDIAN_SLACK = 1e-12


def _check_weights(weights, nparts: int) -> np.ndarray:
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size != nparts:
        raise ValidationError("weights-not-normalized", "need one weight per part")
    if not np.all(np.isfinite(w)):
        raise ValidationError("weights-not-normalized", "weights must be finite")
    if np.any(w < 0):
        raise ValidationError("negative-weight", "weights must be nonnegative")
    total = float(np.sum(w))
    if abs(total - 1.0) > 1e-9:
        raise ValidationError("weights-not-normalized", f"weights sum to {total!r}, expected 1")
    return w


def _check_p(p) -> int:
    if p not in (1, 2):
        raise ValidationError("unsupported-p", f"p must be 1 or 2, got {p!r}")
    return int(p)


@contextmanager
def _overflow_guard(p: int):
    """Report float64 overflow in the disparity sums as ``score-overflow``
    instead of an inf, a NaN or a bare arithmetic error."""
    try:
        with np.errstate(over="raise"):
            yield
    except (FloatingPointError, OverflowError):
        raise ValidationError("score-overflow",
                              f"order-{p} disparity sums exceed the float64 range; rescale the scores") from None


def _values_and_grid(x):
    if isinstance(x, QuantileSketch):
        return x.values, x.grid
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ValidationError("invalid-sketch", "quantile values must be one-dimensional")
    return arr, None


def _aligned_values(a, b):
    va, ga = _values_and_grid(a)
    vb, gb = _values_and_grid(b)
    if ga is not None and gb is not None and ga != gb:
        raise ValidationError("grid-mismatch", f"grids differ: {ga} vs {gb}")
    if va.size != vb.size:
        raise ValidationError("grid-mismatch", f"lengths differ: {va.size} vs {vb.size}")
    return va, vb


def wasserstein_p_grid(a, b, p) -> float:
    """Order-p transport distance between quantile vectors on one grid.

    Returns ``(mean_l |a_l - b_l|^p)^(1/p)``; inputs may be QuantileSketch
    or plain aligned vectors.
    """
    p = _check_p(p)
    va, vb = _aligned_values(a, b)
    gaps = np.abs(va - vb)
    total = math.fsum(gaps if p == 1 else gaps * gaps)
    return float((total / va.size) ** (1.0 / p))


def cramer_integral(f: StepCdf, g: StepCdf, p) -> float:
    """Exact integral of |F - G|^p dx between two step distributions."""
    p = _check_p(p)
    cuts = np.union1d(f.knots, g.knots)
    if cuts.size < 2:
        return 0.0
    widths = np.diff(cuts)
    gaps = np.abs(f.cdf_at(cuts[:-1]) - g.cdf_at(cuts[:-1]))
    return math.fsum(widths * (gaps if p == 1 else gaps * gaps))


def cramer_p_step(f: StepCdf, g: StepCdf, p) -> float:
    """Order-p CDF distance: the p-th root of :func:`cramer_integral`."""
    p = _check_p(p)
    return float(cramer_integral(f, g, p) ** (1.0 / p))


def barycenter_quantiles(arrays: Sequence, weights, p) -> np.ndarray:
    """Level-wise barycenter of quantile vectors under the order-p metric.

    p = 2 gives the weighted mean at every level, p = 1 the lower weighted
    median.  Weights must be nonnegative and sum to one (within 1e-9).
    """
    p = _check_p(p)
    try:
        rows = np.asarray(arrays, dtype=np.float64)
    except ValueError:
        raise ValidationError("grid-mismatch", "quantile arrays have different lengths") from None
    if rows.size == 0:
        raise ValidationError("empty-sample", "need at least one quantile array")
    if rows.ndim != 2:
        raise ValidationError("grid-mismatch", "need one quantile array per row")
    w = _check_weights(weights, rows.shape[0])
    if p == 2:
        out = np.zeros(rows.shape[1], dtype=np.float64)
        for i in range(rows.shape[0]):
            out += w[i] * rows[i]
        return out
    return _columnwise_weighted_median(rows, w)


def _columnwise_weighted_median(rows: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Lower weighted median down each column (smallest value whose
    cumulative normalized weight reaches 1/2)."""
    total = math.fsum(w)
    if total <= 0:
        raise ValidationError("weights-not-normalized", "weights must not all be zero")
    order = np.argsort(rows, axis=0, kind="stable")
    sorted_vals = np.take_along_axis(rows, order, axis=0)
    sorted_w = w[order]
    cum = np.cumsum(sorted_w, axis=0)
    reached = cum >= (0.5 - _MEDIAN_SLACK) * total
    pick = np.argmax(reached, axis=0)
    return sorted_vals[pick, np.arange(rows.shape[1])]


def power_dispersion(rows: np.ndarray, weights, center: np.ndarray, p) -> float:
    """Weighted mean over rows of the level-mean p-th power gap to a center.

    This is the common accumulation behind the population disparity
    functionals: ``sum_s w_s * mean_l |rows[s, l] - center[l]|^p``.  The
    center is one row shared by all rows or one row per row.  Every sum
    is correctly rounded (``math.fsum``), so the result does not depend on
    threading or chunking.
    """
    p = _check_p(p)
    rows = np.asarray(rows, dtype=np.float64)
    center = np.asarray(center, dtype=np.float64)
    if rows.ndim != 2 or center.shape not in ((rows.shape[1],), rows.shape):
        raise ValidationError("grid-mismatch", "rows and center must share one grid")
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (rows.shape[0],):
        raise ValidationError("weights-not-normalized", "need one weight per row")
    k = rows.shape[1]
    gaps = np.abs(rows - center)
    if p == 2:
        gaps = gaps * gaps
    return math.fsum(w[i] * (math.fsum(gaps[i]) / k) for i in range(rows.shape[0]))


def transport_disparity(rows: np.ndarray, weights, p) -> Tuple[np.ndarray, float]:
    """Level-wise barycenter of the group quantile rows and the weighted
    p-th power dispersion about it (the transport disparity)."""
    center = barycenter_quantiles(rows, weights, p)
    return center, power_dispersion(rows, weights, center, p)


def cdf_disparity(cdfs: Sequence[StepCdf], weights, p) -> float:
    """Weighted mean of the order-p CDF integrals between each group's
    step distribution and the pooled mixture (the CDF disparity).

    The pooled law mixes the parts by their total weights, so ``weights``
    must be those totals' shares.  Every group knot is a pooled knot, so
    a group's CDF at the pooled knots is one scatter of its weights into
    their pooled positions and one running sum: the same values, bit for
    bit, as :func:`cramer_integral` reads with two searches per group.
    """
    p = _check_p(p)
    if not cdfs:
        raise ValidationError("invalid-step-cdf", "need at least one part")
    pooled = mix_step_cdfs(np.concatenate([f.knots for f in cdfs]), np.concatenate([f.weights for f in cdfs]))
    widths = np.diff(pooled.knots)
    terms = []
    for w, f in zip(weights, cdfs):
        running = np.zeros(pooled.knots.size)
        running[np.searchsorted(pooled.knots, f.knots)] = f.weights
        running = np.cumsum(running)
        gaps = np.abs(running[:-1] / running[-1] - pooled._cum[1:-1])
        terms.append(w * math.fsum(widths * (gaps if p == 1 else gaps * gaps)))
    return math.fsum(terms)
