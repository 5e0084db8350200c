"""Grids, sketches, step CDFs, mixing and inversion."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import fqs
from fqs import (
    GridSpec,
    QuantileSketch,
    StepCdf,
    ValidationError,
    build_sketch,
    mix_step_cdfs,
    sketch_to_step_cdf,
)
from fqs.sketch import _quantile_indices

from .conftest import rng, sketches, step_cdfs


# ------------------------------------------------------------------ grid

def test_grid_levels_midpoints():
    # (l - 1/2) / k for k=4
    assert np.allclose(GridSpec(k=4).levels(), [0.125, 0.375, 0.625, 0.875], atol=0, rtol=0)


def test_grid_levels_trimmed():
    # eps + (l - 1/2)(1 - 2 eps)/k for eps=0.1, k=5: exact decimals
    got = GridSpec(k=5, trim_epsilon=0.1).levels()
    assert np.allclose(got, [0.18, 0.34, 0.50, 0.66, 0.82], atol=1e-15)


def test_grid_rejects_bad_inputs():
    with pytest.raises(ValidationError) as e:
        GridSpec(k=0)
    assert e.value.code == "invalid-grid"
    with pytest.raises(ValidationError):
        GridSpec(k=3, trim_epsilon=0.5)
    with pytest.raises(ValidationError):
        GridSpec(k=3, trim_epsilon=-0.01)


@given(st.integers(min_value=1, max_value=512))
def test_grid_levels_strictly_inside_unit_interval(k):
    levels = GridSpec(k=k).levels()
    assert levels[0] > 0 and levels[-1] < 1
    assert np.all(np.diff(levels) > 0)


# ------------------------------------------------- empirical quantile
# build_sketch reads sample index ceil(u * n) (1-based) at each level u.

def test_empirical_quantile_lower_convention():
    # ceil(u*n): u=0.25 -> index 1, u just above -> index 2
    levels = np.array([0.25, 0.26, 0.5, 0.51, 0.999, 1e-9])
    assert _quantile_indices(levels, 4).tolist() == [1, 2, 2, 3, 4, 1]


def test_empirical_quantile_snaps_float_products():
    # 0.3 * 10 = 3.0000000000000004 in floats; the snap keeps index 3
    assert _quantile_indices(np.array([0.3]), 10).tolist() == [3]


def test_build_sketch_rejects_bad_samples():
    grid = GridSpec(k=2)
    with pytest.raises(ValidationError) as e:
        build_sketch(np.array([]), grid)
    assert e.value.code == "empty-sample"
    for bad in (np.array([1.0, np.nan]), np.array([1.0, -np.inf]), np.ones((2, 2))):
        with pytest.raises(ValidationError) as e:
            build_sketch(bad, grid)
        assert e.value.code == "non-finite-sample"


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=40))
def test_empirical_quantile_matches_counting_definition(n, numer):
    # oracle: smallest sample index i (1-based) with i >= u*n, computed in
    # exact rational arithmetic for u = numer / (n*40)
    from fractions import Fraction

    u = Fraction(numer, 40 * n) * n  # = u * n exactly
    if not 0 < Fraction(numer, 40 * n) < 1:
        return
    want_ix = -(-u.numerator // u.denominator)  # ceil
    assert _quantile_indices(np.array([numer / (40 * n)]), n).tolist() == [want_ix]


# ----------------------------------------------------------- sketches

def test_build_sketch_reads_lower_quantiles():
    samples = np.array([5.0, 1.0, 3.0, 2.0, 6.0, 4.0])
    sk = build_sketch(samples, GridSpec(k=3))
    # levels 1/6, 1/2, 5/6 -> ceil(u*n) = 1, 3, 5
    assert np.array_equal(sk.values, [1.0, 3.0, 5.0])
    assert sk.count == 6


def test_build_sketch_single_sample_repeats():
    sk = build_sketch(np.array([7.5]), GridSpec(k=4))
    assert np.array_equal(sk.values, [7.5] * 4)
    assert sk.count == 1


def test_sketch_validation():
    grid = GridSpec(k=3)
    with pytest.raises(ValidationError) as e:
        QuantileSketch(grid=grid, values=np.array([1.0, 0.5, 2.0]), count=3)
    assert e.value.code == "invalid-sketch"
    with pytest.raises(ValidationError):
        QuantileSketch(grid=grid, values=np.array([1.0, 2.0]), count=3)
    with pytest.raises(ValidationError):
        QuantileSketch(grid=grid, values=np.array([1.0, 2.0, np.inf]), count=3)
    with pytest.raises(ValidationError):
        QuantileSketch(grid=grid, values=np.array([1.0, 2.0, 3.0]), count=-1)
    # a zero count would give every value zero weight
    with pytest.raises(ValidationError) as e:
        QuantileSketch(grid=grid, values=np.array([1.0, 2.0, 3.0]), count=0)
    assert e.value.code == "invalid-sketch"


def test_sketch_values_are_frozen():
    sk = build_sketch(np.array([1.0, 2.0]), GridSpec(k=2))
    with pytest.raises(ValueError):
        sk.values[0] = 99.0


# ---------------------------------------------------------- step CDFs

def test_sketch_to_step_cdf_merges_ties():
    sk = QuantileSketch(grid=GridSpec(k=3), values=np.array([1.0, 1.0, 2.0]), count=9)
    cdf = sketch_to_step_cdf(sk)
    assert np.array_equal(cdf.knots, [1.0, 2.0])
    # each value weighs its tie count times the sample count
    assert np.array_equal(cdf.weights, [18.0, 9.0])
    assert np.array_equal(cdf.cdf_at(cdf.knots), [2 / 3, 1.0])


def test_step_cdf_right_continuity():
    cdf = StepCdf(knots=np.array([1.0, 2.0]), weights=np.array([2.0, 1.0]))
    assert cdf.cdf_at(0.999999) == 0.0
    assert cdf.cdf_at(1.0) == pytest.approx(2 / 3, abs=1e-15)
    assert cdf.cdf_at(1.5) == pytest.approx(2 / 3, abs=1e-15)
    assert cdf.cdf_at(2.0) == 1.0
    assert cdf.cdf_at(99.0) == 1.0


def test_step_cdf_validation():
    with pytest.raises(ValidationError) as e:
        StepCdf(knots=np.array([1.0, 1.0]), weights=np.array([1.0, 1.0]))
    assert e.value.code == "invalid-step-cdf"
    with pytest.raises(ValidationError):
        StepCdf(knots=np.array([1.0, 2.0]), weights=np.array([1.0, 0.0]))
    with pytest.raises(ValidationError):
        StepCdf(knots=np.array([1.0, 2.0]), weights=np.array([1.1, -0.1]))
    with pytest.raises(ValidationError):
        StepCdf(knots=np.array([1.0, 2.0]), weights=np.array([1.0]))
    with pytest.raises(ValidationError):
        StepCdf(knots=np.array([]), weights=np.array([]))


def test_step_cdf_uniform_approximation_error():
    # exact uniform quantiles: the induced step CDF stays within 1/k of x
    for k in (2, 5, 16, 64):
        grid = GridSpec(k=k)
        sk = QuantileSketch(grid=grid, values=grid.levels(), count=k)
        cdf = sketch_to_step_cdf(sk)
        probes = np.linspace(0.0, 1.0, 2001)
        gap = np.max(np.abs(cdf.cdf_at(probes) - probes))
        assert gap <= 1.0 / k + 1e-12


def test_knot_perturbation_bound():
    # shifting every sketch value by at most eta moves the step CDF at x by
    # at most (1/k) * #{l : q_l in (x - eta, x + eta]}
    gen = rng(42)
    for trial in range(20):
        k = int(gen.integers(2, 12))
        grid = GridSpec(k=k)
        vals = np.sort(gen.normal(size=k))
        eta = float(gen.uniform(0.01, 0.5))
        shift = gen.uniform(-eta, eta, size=k)
        pert = np.sort(vals + shift)
        f = sketch_to_step_cdf(QuantileSketch(grid=grid, values=vals, count=k))
        g = sketch_to_step_cdf(QuantileSketch(grid=grid, values=pert, count=k))
        for x in gen.normal(size=10):
            crossers = np.sum((vals > x - eta) & (vals <= x + eta))
            bound = crossers / k
            assert abs(float(f.cdf_at(x)) - float(g.cdf_at(x))) <= bound + 1e-12


# -------------------------------------------------------------- mixing

def mix(*parts):
    """Mixture of whole step distributions through the flat point kernel."""
    return mix_step_cdfs(np.concatenate([p.knots for p in parts]), np.concatenate([p.weights for p in parts]))


def test_mix_two_step_cdfs_manual_oracle():
    # totals 2 and 6: the mixture is 0.25 * a + 0.75 * b
    a = StepCdf(knots=np.array([0.0]), weights=np.array([2.0]))
    b = StepCdf(knots=np.array([0.0, 1.0]), weights=np.array([3.0, 3.0]))
    mixed = mix(a, b)
    assert np.array_equal(mixed.knots, [0.0, 1.0])
    assert np.array_equal(mixed.weights, [5.0, 3.0])
    assert np.array_equal(mixed.cdf_at(mixed.knots), [0.625, 1.0])
    # the points may come in any order, ties anywhere
    shuffled = mix_step_cdfs([1.0, 0.0, 0.0], [3.0, 2.0, 3.0])
    assert np.array_equal(shuffled.knots, [0.0, 1.0])
    assert np.array_equal(shuffled.weights, [5.0, 3.0])


def test_mix_single_part_is_unchanged():
    a = StepCdf(knots=np.array([3.0, 4.0]), weights=np.array([1.0, 1.0]))
    m = mix(a)
    assert np.array_equal(m.knots, a.knots)
    assert np.array_equal(m.weights, a.weights)
    assert np.array_equal(m._cum, a._cum)


def test_mix_weight_validation():
    for knots, weights in (([], []), ([1.0, 2.0], [1.0]), ([1.0, 1.0], [2.0, -1.0]),
                           ([1.0], [0.0]), ([np.nan], [1.0]), ([1.0], [np.inf]), ([[1.0]], [[1.0]])):
        with pytest.raises(ValidationError) as e:
            mix_step_cdfs(knots, weights)
        assert e.value.code == "invalid-step-cdf"
    # count weights of coinciding knots add exactly
    a = StepCdf(knots=np.array([0.0, 1.0]), weights=np.array([3.0, 2.0**52]))
    b = StepCdf(knots=np.array([1.0]), weights=np.array([1.0]))
    assert np.array_equal(mix(a, b).weights, [3.0, 2.0**52 + 1.0])


@given(step_cdfs(), step_cdfs(), step_cdfs(), st.randoms(use_true_random=False))
def test_mix_is_permutation_invariant(a, b, c, rnd):
    m1 = mix(a, b, c)
    m2 = mix(c, a, b)
    knots = np.concatenate([a.knots, b.knots, c.knots])
    weights = np.concatenate([a.weights, b.weights, c.weights])
    order = list(range(knots.size))
    rnd.shuffle(order)
    m3 = mix_step_cdfs(knots[order], weights[order])
    for m in (m2, m3):
        assert np.array_equal(m1.knots, m.knots)
        assert np.array_equal(m1.weights, m.weights)
        assert np.array_equal(m1._cum, m._cum)


@given(step_cdfs(), step_cdfs())
def test_mix_cdf_is_convex_combination(a, b):
    mixed = mix(a, b)
    ta, tb = a.weights.sum(), b.weights.sum()
    probes = np.unique(np.concatenate([a.knots, b.knots, [0.0, 1e6]]))
    want = (ta * a.cdf_at(probes) + tb * b.cdf_at(probes)) / (ta + tb)
    assert np.allclose(mixed.cdf_at(probes), want, rtol=0, atol=1e-12)


# ----------------------------------------------------------- inversion

def test_invert_left_continuity_contract():
    cdf = StepCdf(knots=np.array([1.0, 2.0, 3.0]), weights=np.array([2.0, 3.0, 5.0]))
    cums = np.cumsum(cdf.weights) / cdf.weights.sum()
    # probing exactly at a knot's cumulative mass returns that knot ...
    assert cdf.quantiles(cums[:2]).tolist() == [1.0, 2.0]
    # ... and 1e-12 above it moves to the next knot
    assert cdf.quantiles(cums[:2] + 1e-12).tolist() == [2.0, 3.0]


@given(step_cdfs())
def test_invert_left_continuity_random(cdf):
    cums = np.cumsum(cdf.weights) / cdf.weights.sum()
    for i in range(cdf.knots.size):
        c = float(cums[i])
        if not 0.0 < c < 1.0:
            continue
        assert cdf.quantiles([c])[0] == cdf.knots[i]
        if i + 1 < cdf.knots.size and c + 1e-12 < 1.0:
            assert cdf.quantiles([c + 1e-12])[0] == cdf.knots[i + 1]


@given(sketches())
def test_single_sketch_mixture_roundtrip(sk):
    # the mixture of one sketch inverts back to the exact values
    got = mix(sketch_to_step_cdf(sk)).quantiles(sk.grid.levels())
    assert np.array_equal(got, sk.values)


def test_mixture_quantiles_manual_two_parts():
    # mixture 0.6*delta_0 + 0.4*delta_1 on a 10-level grid: quantile is 0
    # up to level 0.55 and 1 afterwards
    grid = GridSpec(k=10)
    a = StepCdf(knots=np.array([0.0]), weights=np.array([6.0]))
    b = StepCdf(knots=np.array([1.0]), weights=np.array([4.0]))
    got = mix(a, b).quantiles(grid.levels())
    assert np.array_equal(got, [0.0] * 6 + [1.0] * 4)
