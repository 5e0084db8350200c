"""Exactness of the count-weighted step distributions and the audit sums.

Cumulative masses are integer running weights over an integer total, so
they are single correctly rounded divisions; mixture quantiles on the
untrimmed grid follow the exact integer rule; the decomposition sums are
correctly rounded and survive cancellation.  The stacked-row group kernel
and the scatter-plus-cumsum h_hat pass equal the per-cell merge and the
two-search integral bit for bit.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from fqs import GridSpec, QuantileSketch, SiloMessage, StepCdf, mix_step_cdfs, server_audit, sketch_to_step_cdf
from fqs.distances import cdf_disparity, cramer_integral

from .conftest import sketches, step_cdfs


@st.composite
def tied_federations(draw):
    """Two groups over 1-4 silos on an untrimmed grid with k in 1..8.

    Sketch values come from a handful of integers, so values tie within
    and across silos; counts of 1 are drawn often.
    """
    k = draw(st.integers(min_value=1, max_value=8))
    d = draw(st.integers(min_value=1, max_value=4))
    grid = GridSpec(k=k)
    cells = {}
    for j in range(d):
        for label in ("g0", "g1"):
            # the last silo holds every group so each group is present
            if j < d - 1 and not draw(st.booleans()):
                continue
            values = sorted(draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k)))
            count = draw(st.one_of(st.just(1), st.integers(min_value=1, max_value=50)))
            cells[(f"s{j}", label)] = (np.asarray(values, dtype=np.float64), count)
    messages = []
    for j in range(d):
        entries = {
            label: QuantileSketch(grid=grid, values=vals, count=n)
            for (sid, label), (vals, n) in cells.items()
            if sid == f"s{j}"
        }
        if entries:
            messages.append(SiloMessage(silo_id=f"s{j}", grid=grid, entries=entries))
    return grid, cells, messages


@given(tied_federations())
def test_mixture_quantiles_follow_exact_integer_rule(fed):
    grid, cells, messages = fed
    report = server_audit(messages, 2)
    k = grid.k
    for label in ("g0", "g1"):
        parts = [(vals, n) for (_, lab), (vals, n) in cells.items() if lab == label]
        n_group = sum(n for _, n in parts)
        knots = np.unique(np.concatenate([vals for vals, _ in parts]))
        # running count weight sum_j n_j * c_j(x) at every knot, in integers
        running = [sum(n * int(np.sum(vals <= x)) for vals, n in parts) for x in knots]
        want = [
            next(x for x, w in zip(knots, running) if 2 * w >= (2 * ell - 1) * n_group)
            for ell in range(1, k + 1)
        ]
        assert report.mixture_quantiles[label].tolist() == want


@given(sketches(max_k=64))
def test_sketch_cdf_at_its_values_is_exact(sk):
    k = sk.grid.k
    want = np.searchsorted(sk.values, sk.values, side="right") / k
    got = sketch_to_step_cdf(sk).cdf_at(sk.values)
    assert np.array_equal(got, want)


def _cancelling_federation():
    """Two silos, two groups, k = 3, every count 5 (all weights 1/2).

    g0's mixture quantiles are (0, 4, 12) and its within-group center is
    (2, 6, 10), so a = (-2, -2, 2); g1's two silos agree, so its a is zero.
    The global center is then (3, 6 + 2**53, 10 + 2**53), so g0's
    b = (-1, -2**53, -2**53).  All of these are exact floats; the products
    a * b are (2, 2**54, -2**54) and their sum is 2.
    """
    grid = GridSpec(k=3)
    big = 8.0 + 2.0**54
    v = np.array([6.0, big, big])

    def message(sid, g0_values):
        return SiloMessage(silo_id=sid, grid=grid, entries={
            "g0": QuantileSketch(grid=grid, values=np.array(g0_values), count=5),
            "g1": QuantileSketch(grid=grid, values=v, count=5),
        })

    x, y = [0.0, 0.0, 4.0], [4.0, 12.0, 16.0]
    return [message("A", x), message("B", y)], {"g0": [x, y], "g1": [v, v]}


def _exact_cross_term(groups, k):
    """r = 2 * sum_s alpha_s * mean_l (m_sl - w_sl) * (w_sl - c_l) in rationals,
    for equal counts everywhere (alpha and pi uniform)."""
    mixtures, withins = [], []
    for rows in groups.values():
        pooled = sorted(Fraction(v) for row in rows for v in row)
        # equal counts: the level-l quantile is order statistic ceil((2l - 1) d / 2)
        d = len(rows)
        mixtures.append([pooled[-(-(2 * ell - 1) * d // 2) - 1] for ell in range(1, k + 1)])
        withins.append([sum(Fraction(row[ell]) for row in rows) / d for ell in range(k)])
    alpha = Fraction(1, len(groups))
    # the global center is the barycenter of the group mixtures
    center = [alpha * sum(m[ell] for m in mixtures) for ell in range(k)]
    return 2 * sum(
        alpha * sum((m[ell] - w[ell]) * (w[ell] - center[ell]) for ell in range(k)) / k
        for m, w in zip(mixtures, withins)
    )


def test_cross_term_survives_cancellation():
    messages, groups = _cancelling_federation()
    report = server_audit(messages, 2)
    exact = _exact_cross_term(groups, 3)
    assert exact == Fraction(2, 3)
    # the products are exact and every sum is correctly rounded, so only the
    # division by k rounds (alpha = 1/2 and the factor 2 are exact): 1/2 ulp
    bound = Fraction(math.ulp(float(exact))) / 2
    assert abs(Fraction(report.r) - exact) <= bound
    # naive left-to-right summation of the same products loses the 2
    within = np.array([2.0, 6.0, 10.0])
    a = report.mixture_quantiles["g0"] - within
    b = within - report.barycenter_quantiles
    naive = 2 * 0.5 * (sum(a * b) / 3)
    assert naive == 0.0


def _stable_merge(knots, weights):
    """Concatenate parts, stable-sort their knots and add tied weights."""
    knots, weights = np.concatenate(knots), np.concatenate(weights)
    order = np.argsort(knots, kind="stable")
    knots, weights = knots[order], weights[order]
    start = np.flatnonzero(np.concatenate(([True], knots[1:] != knots[:-1])))
    return StepCdf(knots=knots[start], weights=np.add.reduceat(weights, start))


def _per_cell_then_merge(cells):
    """Reference group mixture: one tie-merged step distribution per
    (silo, group) cell, then one stable merge of all cells."""
    parts = [np.unique(values, return_counts=True) for values, _ in cells]
    return _stable_merge([uniq for uniq, _ in parts],
                         [ties.astype(np.float64) * n for (_, ties), (_, n) in zip(parts, cells)])


def _group_cells(cells, label):
    """The (values, count) cells of one group in sorted silo order."""
    return [cells[key] for key in sorted(cells) if key[1] == label]


@given(tied_federations())
def test_stacked_group_mixture_equals_per_cell_merge(fed):
    grid, cells, messages = fed
    report = server_audit(messages, 2)
    cdfs = []
    for label in ("g0", "g1"):
        group = _group_cells(cells, label)
        stacked = np.vstack([vals for vals, _ in group])
        counts = np.array([n for _, n in group], dtype=np.float64)
        got = mix_step_cdfs(stacked.ravel(), np.repeat(counts, grid.k))
        want = _per_cell_then_merge(group)
        assert np.array_equal(got.knots, want.knots)
        assert np.array_equal(got.weights, want.weights)
        assert np.array_equal(got._cum, want._cum)
        assert np.array_equal(report.mixture_quantiles[label], want.quantiles(grid.levels()))
        cdfs.append(want)
    # the report's h_hat is the two-search integral against the pooled law
    alpha = np.array([report.weights.alpha["g0"], report.weights.alpha["g1"]])
    pooled = _stable_merge([f.knots for f in cdfs], [f.weights for f in cdfs])
    want_h = math.fsum(w * cramer_integral(f, pooled, 2) for w, f in zip(alpha, cdfs))
    assert report.h_hat == want_h


@given(st.lists(step_cdfs(), min_size=1, max_size=4), st.sampled_from([1, 2]))
def test_cdf_disparity_equals_two_search_integral(cdfs, p):
    totals = np.array([f.weights.sum() for f in cdfs])
    weights = totals / totals.sum()
    pooled = _stable_merge([f.knots for f in cdfs], [f.weights for f in cdfs])
    want = math.fsum(w * cramer_integral(f, pooled, p) for w, f in zip(weights, cdfs))
    assert cdf_disparity(cdfs, weights, p) == want
