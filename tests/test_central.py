"""Centralized disparity functionals against independent oracles."""

import math
import statistics
from fractions import Fraction

import numpy as np
import pytest

import fqs
from fqs import (
    GridSpec,
    GroupedSample,
    ValidationError,
    h_hat,
    u2_bin_averaged,
    u2_linear_exact,
    u_hat,
)

from .conftest import rng


def exact_u2_two_groups(x0: np.ndarray, x1: np.ndarray) -> Fraction:
    """Exact two-group transport disparity of the empirical laws.

    Integrates the squared gap of the two empirical quantile functions in
    rational arithmetic: both are piecewise constant on multiples of
    1/lcm(n0, n1), so the integral is a finite exact sum.
    """
    x0 = np.sort(x0)
    x1 = np.sort(x1)
    n0, n1 = x0.size, x1.size
    big = math.lcm(n0, n1)
    total = Fraction(0)
    for b in range(1, big + 1):
        i0 = -(-b * n0 // big)  # ceil(b * n0 / big)
        i1 = -(-b * n1 // big)
        gap = Fraction(float(x0[i0 - 1])) - Fraction(float(x1[i1 - 1]))
        total += gap * gap
    return Fraction(n0 * n1, (n0 + n1) ** 2) * total / big


def exact_binavg_two_groups(x0: np.ndarray, x1: np.ndarray, k: int) -> Fraction:
    """Exact bin-averaged value: average the gap over each level bin in
    rational arithmetic, then square."""
    x0 = np.sort(x0)
    x1 = np.sort(x1)
    n0, n1 = x0.size, x1.size
    big = math.lcm(n0, n1, k)
    sums = [Fraction(0)] * k
    for b in range(1, big + 1):
        i0 = -(-b * n0 // big)
        i1 = -(-b * n1 // big)
        gap = Fraction(float(x0[i0 - 1])) - Fraction(float(x1[i1 - 1]))
        sums[(b - 1) * k // big] += gap
    total = Fraction(0)
    for s in sums:
        mean = s * k / big
        total += mean * mean
    return Fraction(n0 * n1, (n0 + n1) ** 2) * total / k


def two_group_sample(gen, n0=None, n1=None):
    n0 = n0 or int(gen.integers(1, 30))
    n1 = n1 or int(gen.integers(1, 30))
    return GroupedSample(
        groups={"a": gen.normal(size=n0), "b": gen.normal(size=n1) + 0.5}
    )


# -------------------------------------------------------- basic shapes

def test_grouped_sample_accessors():
    s = GroupedSample(groups={"b": [1.0, 2.0], "a": [3.0]})
    assert s.labels == ("a", "b")
    assert s.total == 3
    assert s.counts() == {"a": 1, "b": 2}
    assert np.allclose(s.alpha(), [1 / 3, 2 / 3], rtol=0, atol=1e-15)


def test_grouped_sample_validation():
    with pytest.raises(ValidationError) as e:
        GroupedSample(groups={"a": [1.0]})
    assert e.value.code == "too-few-groups"
    with pytest.raises(ValidationError) as e:
        GroupedSample(groups={"a": [1.0], "b": []})
    assert e.value.code == "empty-sample"
    with pytest.raises(ValidationError) as e:
        GroupedSample(groups={"a": [1.0], "b": [np.nan]})
    assert e.value.code == "non-finite-sample"


# --------------------------------------------------- two-group algebra

def test_two_group_reduction_identity():
    gen = rng(101)
    grid = GridSpec(k=16)
    for _ in range(40):
        sample = two_group_sample(gen)
        sk = sample.sketches(grid)
        q0, q1 = sk["a"].values, sk["b"].values
        a0, a1 = sample.alpha()
        want = a0 * a1 * float(np.mean((q0 - q1) ** 2))
        got = u_hat(sample, grid, 2)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_two_group_h2_reduction():
    # with two groups the pooled-mixture disparity collapses the same way:
    # h_hat = alpha0 * alpha1 * C2(F0, F1)^2
    gen = rng(103)
    grid = GridSpec(k=12)
    for _ in range(20):
        sample = two_group_sample(gen)
        sk = sample.sketches(grid)
        f0 = fqs.sketch_to_step_cdf(sk["a"])
        f1 = fqs.sketch_to_step_cdf(sk["b"])
        a0, a1 = sample.alpha()
        want = a0 * a1 * fqs.cramer_integral(f0, f1, 2)
        got = h_hat(sample, grid, 2)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-14)


def test_identical_groups_have_zero_disparity():
    vals = np.array([0.3, 1.2, 5.0])
    sample = GroupedSample(groups={"a": vals, "b": vals.copy()})
    grid = GridSpec(k=7)
    for p in (1, 2):
        assert u_hat(sample, grid, p) == 0.0
        assert h_hat(sample, grid, p) == 0.0


def test_u_and_h_vanish_together_on_step_inputs():
    gen = rng(107)
    grid = GridSpec(k=9)
    for _ in range(20):
        sample = two_group_sample(gen)
        u = u_hat(sample, grid, 2)
        h = h_hat(sample, grid, 2)
        assert (u == 0.0) == (h == 0.0)
        assert u > 0.0 and h > 0.0


def test_constant_groups_hand_values():
    # constant 0 vs constant 1, equal sizes: U2 = 1/4, H2 = 1/4
    sample = GroupedSample(groups={"a": np.zeros(5), "b": np.ones(5)})
    grid = GridSpec(k=10)
    assert u_hat(sample, grid, 2) == pytest.approx(0.25, abs=1e-15)
    assert h_hat(sample, grid, 2) == pytest.approx(0.25, abs=1e-15)
    # order 1: mean absolute gap 1, times alpha0*alpha1*2 ... computed
    # directly: both groups sit 1/2 from the pointwise median barycenter?
    # no -- the p=1 barycenter is the lower median, which here equals the
    # 'a' values, so group a contributes 0 and group b contributes 1/2
    assert u_hat(sample, grid, 1) == pytest.approx(0.5, abs=1e-15)


def test_three_group_u2_manual():
    # constants 0, 3, 6 with weights 1/3 each: barycenter 3, mean square gap
    # (9 + 0 + 9)/3 = 6
    sample = GroupedSample(
        groups={"a": np.zeros(4), "b": np.full(4, 3.0), "c": np.full(4, 6.0)}
    )
    assert u_hat(sample, GridSpec(k=5), 2) == pytest.approx(6.0, abs=1e-12)


# ------------------------------------------------------- trimmed grids

def test_trimmed_grid_matches_manual_levels():
    gen = rng(109)
    sample = two_group_sample(gen, n0=40, n1=25)
    grid = GridSpec(k=8, trim_epsilon=0.05)
    sk = sample.sketches(grid)
    q0, q1 = sk["a"].values, sk["b"].values
    a0, a1 = sample.alpha()
    want = a0 * a1 * float(np.mean((q0 - q1) ** 2))
    assert u_hat(sample, grid, 2) == pytest.approx(want, rel=1e-12)
    # the trimmed sketches really do read the inner levels: sample index
    # ceil(u * n) at u = 1/20 + (l - 1/2) * (9/10) / 8, in exact rationals
    x0 = np.sort(sample.groups["a"])
    levels = [Fraction(1, 20) + (l - Fraction(1, 2)) * Fraction(9, 10) / 8 for l in range(1, 9)]
    manual = np.array([x0[math.ceil(u * x0.size) - 1] for u in levels])
    assert np.array_equal(q0, manual)


def test_zero_trim_equals_default():
    gen = rng(113)
    sample = two_group_sample(gen, n0=12, n1=18)
    assert u_hat(sample, GridSpec(k=6, trim_epsilon=0.0), 2) == u_hat(
        sample, GridSpec(k=6), 2
    )


# -------------------------------------------------- linear-exact order

def test_u2_linear_exact_hand_instance():
    # two equal-weight groups with k=2 sketches [0,0] and [2,4]; gaps to the
    # level-wise mean [1,2] are (1,2) for each group, so per group
    #   1/(2k) * 1 + (1 + 2 + 4)/(3k) + 1/(2k) * 4 = 1/4 + 7/6 + 1 = 29/12
    # and the weighted total is 29/12
    sample = GroupedSample(groups={"a": np.zeros(2), "b": np.array([2.0, 4.0])})
    got = u2_linear_exact(sample, GridSpec(k=2))
    assert got == pytest.approx(29 / 12, abs=1e-14)


def test_u2_linear_exact_on_constant_gap_equals_riemann():
    # when the gap is the same at every level, interpolation changes nothing
    sample = GroupedSample(groups={"a": np.zeros(6), "b": np.ones(6)})
    grid = GridSpec(k=4)
    assert u2_linear_exact(sample, grid) == pytest.approx(
        u_hat(sample, grid, 2), abs=1e-15
    )


def test_u2_linear_exact_requires_k2():
    sample = GroupedSample(groups={"a": [0.0], "b": [1.0]})
    with pytest.raises(ValidationError) as e:
        u2_linear_exact(sample, GridSpec(k=1))
    assert e.value.code == "k-too-small"


def test_u2_linear_exact_closer_on_smooth_data():
    # on smooth data with a trimmed grid (both quantile functions are twice
    # differentiable away from the endpoints) the interpolated estimator
    # beats the plain grid sum at coarse k, judged on the median over seeds
    grid = GridSpec(k=16, trim_epsilon=0.05)
    fine = GridSpec(k=20000, trim_epsilon=0.05)
    err_linear, err_riemann = [], []
    for seed in range(1, 8):
        x0 = fqs.sample_beta(2.0, 5.0, 20000, seed, stream="dec-g0")
        x1 = fqs.sample_beta(5.0, 2.0, 20000, seed, stream="dec-g1")
        sample = GroupedSample(groups={"a": x0, "b": x1})
        ref = u_hat(sample, fine, 2)
        err_riemann.append(abs(u_hat(sample, grid, 2) - ref))
        err_linear.append(abs(u2_linear_exact(sample, grid) - ref))
    assert statistics.median(err_linear) <= statistics.median(err_riemann)


# ------------------------------------------------ bin-averaged order 2

def test_binavg_equals_fraction_oracle():
    gen = rng(131)
    for _ in range(10):
        n0 = int(gen.integers(1, 12))
        n1 = int(gen.integers(1, 12))
        x0 = gen.normal(size=n0)
        x1 = gen.normal(size=n1)
        sample = GroupedSample(groups={"a": x0, "b": x1})
        for k in (1, 2, 3, 5):
            got = u2_bin_averaged(sample, GridSpec(k=k))
            want = float(exact_binavg_two_groups(x0, x1, k))
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_binavg_never_exceeds_exact_u2():
    gen = rng(137)
    for _ in range(15):
        n0 = int(gen.integers(1, 15))
        n1 = int(gen.integers(1, 15))
        x0 = gen.normal(size=n0)
        x1 = gen.normal(size=n1)
        sample = GroupedSample(groups={"a": x0, "b": x1})
        exact = exact_u2_two_groups(x0, x1)
        for k in (1, 2, 4, 8, 16):
            got = exact_binavg_two_groups(x0, x1, k)
            assert got <= exact  # exact rational comparison


def test_binavg_equality_iff_bin_constant():
    # n0 = n1 = k: each bin holds exactly one flat piece of both quantile
    # functions, so the gap is bin-constant and the bound is tight
    gen = rng(139)
    k = 6
    x0 = np.sort(gen.normal(size=k))
    x1 = np.sort(gen.normal(size=k) + 1.0)
    sample = GroupedSample(groups={"a": x0, "b": x1})
    got = u2_bin_averaged(sample, GridSpec(k=k))
    exact = float(exact_u2_two_groups(x0, x1))
    assert got == pytest.approx(exact, rel=1e-12)
    # with a gap that genuinely varies inside a bin the inequality is strict
    x0v = np.array([0.0, 0.0, 0.0, 10.0])
    x1v = np.array([0.0, 1.0, 2.0, 3.0])
    strict = GroupedSample(groups={"a": x0v, "b": x1v})
    got_s = u2_bin_averaged(strict, GridSpec(k=2))
    exact_s = exact_u2_two_groups(x0v, x1v)
    assert Fraction(got_s) < exact_s


def test_binavg_rejects_bad_setups():
    sample = GroupedSample(groups={"a": [0.0], "b": [1.0], "c": [2.0]})
    with pytest.raises(ValidationError) as e:
        u2_bin_averaged(sample, GridSpec(k=2))
    assert e.value.code == "two-groups-only"
    two = GroupedSample(groups={"a": [0.0], "b": [1.0]})
    with pytest.raises(ValidationError) as e:
        u2_bin_averaged(two, GridSpec(k=2, trim_epsilon=0.1))
    assert e.value.code == "invalid-grid"


def test_binavg_k1_is_squared_mean_gap():
    # one bin: the bound collapses to alpha0*alpha1*(mean gap)^2; for
    # integer-lattice samples the means are exact
    x0 = np.array([0.0, 2.0])
    x1 = np.array([1.0, 5.0])
    sample = GroupedSample(groups={"a": x0, "b": x1})
    got = u2_bin_averaged(sample, GridSpec(k=1))
    # mean gap: integrals of the quantile functions are the sample means
    want = 0.25 * (np.mean(x1) - np.mean(x0)) ** 2
    assert got == pytest.approx(want, abs=1e-14)


# -------------------------------------------------- discretization decay

def test_riemann_error_decays_with_k():
    # doubling the grid should cut the error to at most three quarters for
    # k >= 8 on smooth inputs; single instances are noisy, so the contract
    # is on the median over seeds
    fine = GridSpec(k=20000, trim_epsilon=0.05)
    ratios = {k: [] for k in (8, 16, 32, 64)}
    for seed in range(1, 8):
        x0 = fqs.sample_beta(2.0, 5.0, 20000, seed, stream="dec-g0")
        x1 = fqs.sample_beta(5.0, 2.0, 20000, seed, stream="dec-g1")
        sample = GroupedSample(groups={"a": x0, "b": x1})
        ref = u_hat(sample, fine, 2)
        err = {
            k: abs(u_hat(sample, GridSpec(k=k, trim_epsilon=0.05), 2) - ref)
            for k in (8, 16, 32, 64, 128)
        }
        for k in ratios:
            ratios[k].append(err[2 * k] / err[k])
    for k, values in ratios.items():
        assert statistics.median(values) <= 0.75, f"k={k}: {values}"
