"""Transport and CDF distances, barycenters, dispersion."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import wasserstein_distance

import fqs
from fqs import (
    GridSpec,
    ValidationError,
    barycenter_quantiles,
    cramer_integral,
    cramer_p_step,
    power_dispersion,
    sketch_to_step_cdf,
    wasserstein_p_grid,
)
from fqs.distances import cdf_disparity
from fqs.sketch import StepCdf

from .conftest import rng, sketches, step_cdfs


# ------------------------------------------------------------ order 1

def test_w1_matches_scipy_on_discrete_uniforms():
    gen = rng(11)
    for _ in range(50):
        k = int(gen.integers(1, 20))
        a = np.sort(gen.normal(size=k))
        b = np.sort(gen.normal(size=k))
        got = wasserstein_p_grid(a, b, 1)
        want = wasserstein_distance(a, b)
        assert got == pytest.approx(want, abs=1e-12)


@given(sketches(k=6), sketches(k=6))
def test_w1_equals_c1_on_step_inputs(a, b):
    w1 = wasserstein_p_grid(a, b, 1)
    c1 = cramer_p_step(sketch_to_step_cdf(a), sketch_to_step_cdf(b), 1)
    assert abs(w1 - c1) <= 1e-10 * max(1.0, abs(w1))


# ------------------------------------------------------------ order 2

def test_w2_hand_instance():
    a = np.array([0.0, 0.0, 3.0])
    b = np.array([1.0, 2.0, 3.0])
    # mean of squared gaps: (1 + 4 + 0)/3 = 5/3
    assert wasserstein_p_grid(a, b, 2) == pytest.approx(math.sqrt(5 / 3), abs=1e-15)


def test_cramer_hand_instances():
    f = StepCdf(knots=np.array([0.0]), weights=np.array([1.0]))
    g = StepCdf(knots=np.array([1.0]), weights=np.array([1.0]))
    # |F - G| = 1 on [0, 1)
    assert cramer_integral(f, g, 2) == 1.0
    assert cramer_integral(f, g, 1) == 1.0

    h = StepCdf(knots=np.array([0.0, 2.0]), weights=np.array([1.0, 1.0]))
    # |H - G| = 0.5 on [0,1) and 0.5 on [1,2)
    assert cramer_integral(h, g, 2) == pytest.approx(0.5, abs=1e-15)
    assert cramer_integral(h, g, 1) == pytest.approx(1.0, abs=1e-15)
    assert cramer_p_step(h, g, 2) == pytest.approx(math.sqrt(0.5), abs=1e-15)


def test_cramer_identical_inputs_vanish():
    h = StepCdf(knots=np.array([-1.0, 2.0]), weights=np.array([1.0, 3.0]))
    assert cramer_integral(h, h, 1) == 0.0
    assert cramer_integral(h, h, 2) == 0.0


@given(step_cdfs(), step_cdfs(), step_cdfs(), st.sampled_from([1, 2]))
def test_cramer_triangle_inequality(f, g, h, p):
    d_fg = cramer_p_step(f, g, p)
    d_fh = cramer_p_step(f, h, p)
    d_hg = cramer_p_step(h, g, p)
    assert d_fg <= d_fh + d_hg + 1e-10


@given(sketches(k=5), sketches(k=5), sketches(k=5), st.sampled_from([1, 2]))
def test_wasserstein_triangle_inequality(a, b, c, p):
    d_ab = wasserstein_p_grid(a, b, p)
    d_ac = wasserstein_p_grid(a, c, p)
    d_cb = wasserstein_p_grid(c, b, p)
    assert d_ab <= d_ac + d_cb + 1e-10


def test_scale_equivariance():
    gen = rng(3)
    a = np.sort(gen.normal(size=8))
    b = np.sort(gen.normal(size=8))
    grid = GridSpec(k=8)
    fa = sketch_to_step_cdf(fqs.QuantileSketch(grid=grid, values=a, count=8))
    fb = sketch_to_step_cdf(fqs.QuantileSketch(grid=grid, values=b, count=8))
    c = 3.5
    fa_scaled = StepCdf(knots=c * fa.knots, weights=fa.weights)
    fb_scaled = StepCdf(knots=c * fb.knots, weights=fb.weights)
    for p in (1, 2):
        assert wasserstein_p_grid(c * a, c * b, p) == pytest.approx(
            c * wasserstein_p_grid(a, b, p), rel=1e-12
        )
        # the CDF gap is dimensionless; dx carries the scale, so the
        # integral scales by c and the root by c^(1/p)
        assert cramer_p_step(fa_scaled, fb_scaled, p) == pytest.approx(
            c ** (1.0 / p) * cramer_p_step(fa, fb, p), rel=1e-12
        )


def test_unsupported_p():
    a = np.array([1.0])
    with pytest.raises(ValidationError) as e:
        wasserstein_p_grid(a, a, 3)
    assert e.value.code == "unsupported-p"


def test_barycenter_and_cdf_disparity_validate_inputs():
    for rows, code in (([[0.0, 1.0], [2.0]], "grid-mismatch"), ([], "empty-sample"), ([0.0, 1.0], "grid-mismatch")):
        with pytest.raises(ValidationError) as e:
            barycenter_quantiles(rows, [1.0], 2)
        assert e.value.code == code
    with pytest.raises(ValidationError) as e:
        cdf_disparity([], [], 1)
    assert e.value.code == "invalid-step-cdf"


def test_grid_mismatch_detected():
    a = fqs.QuantileSketch(grid=GridSpec(k=2), values=np.array([0.0, 1.0]), count=2)
    b = fqs.QuantileSketch(grid=GridSpec(k=3), values=np.array([0.0, 1.0, 2.0]), count=3)
    with pytest.raises(ValidationError) as e:
        wasserstein_p_grid(a, b, 1)
    assert e.value.code == "grid-mismatch"
    c = fqs.QuantileSketch(
        grid=GridSpec(k=2, trim_epsilon=0.1), values=np.array([0.0, 1.0]), count=2
    )
    with pytest.raises(ValidationError):
        wasserstein_p_grid(a, c, 1)


# --------------------------------------------------------- barycenters

def test_barycenter_p2_is_weighted_mean():
    rows = [np.array([0.0, 0.0]), np.array([1.0, 2.0])]
    got = barycenter_quantiles(rows, [0.25, 0.75], 2)
    assert np.allclose(got, [0.75, 1.5], rtol=0, atol=1e-15)


def test_barycenter_p1_is_lower_weighted_median():
    rows = [np.array([1.0]), np.array([2.0]), np.array([3.0])]
    # cumulative weights 0.3, 0.5, 1.0: the 1/2 level is reached at value 2
    assert barycenter_quantiles(rows, [0.3, 0.2, 0.5], 1)[0] == 2.0
    # cumulative weights 0.3, 0.49, 1.0: reached only at value 3
    assert barycenter_quantiles(rows, [0.3, 0.19, 0.51], 1)[0] == 3.0
    # exact halves pick the lower of the two middle values
    assert barycenter_quantiles(rows[:2], [0.5, 0.5], 1)[0] == 1.0


def test_barycenter_p2_optimality():
    gen = rng(17)
    rows = [np.sort(gen.normal(size=6)) for _ in range(4)]
    w = gen.dirichlet(np.ones(4))
    center = barycenter_quantiles(rows, w, 2)

    def objective(z):
        return sum(wi * np.sum((r - z) ** 2) for wi, r in zip(w, rows))

    base = objective(center)
    for level in range(6):
        for delta in (1e-3, -1e-3):
            bumped = center.copy()
            bumped[level] += delta
            assert objective(bumped) > base


def test_barycenter_p1_optimality():
    gen = rng(23)
    rows = [np.sort(gen.normal(size=5)) for _ in range(5)]
    w = gen.dirichlet(np.ones(5))
    center = barycenter_quantiles(rows, w, 1)

    def objective(z):
        return sum(wi * np.sum(np.abs(r - z)) for wi, r in zip(w, rows))

    base = objective(center)
    for level in range(5):
        for delta in (0.37, -0.41):
            bumped = center.copy()
            bumped[level] += delta
            assert objective(bumped) >= base - 1e-12


def test_weighted_median_scalar():
    def median(values, weights):
        return barycenter_quantiles([[v] for v in values], weights, 1)[0]

    # sorted values [1, 3, 5] carry weights [0.5, 0.3, 0.2]: the cumulative
    # weight reaches 1/2 already at the first value
    assert median([5.0, 1.0, 3.0], [0.2, 0.5, 0.3]) == 1.0
    # and with the half-mass point strictly inside, the middle value wins
    assert median([5.0, 1.0, 3.0], [0.3, 0.3, 0.4]) == 3.0
    assert median([1.0, 2.0], [0.5, 0.5]) == 1.0
    assert median([4.0], [1.0]) == 4.0


# ----------------------------------------------------------- dispersion

def test_power_dispersion_matches_manual_sum():
    gen = rng(31)
    rows = gen.normal(size=(3, 7))
    center = gen.normal(size=7)
    w = np.array([0.2, 0.3, 0.5])
    for p in (1, 2):
        want = sum(
            w[i] * np.mean(np.abs(rows[i] - center) ** p) for i in range(3)
        )
        assert power_dispersion(rows, w, center, p) == pytest.approx(want, rel=1e-13)


def test_power_dispersion_shape_checks():
    with pytest.raises(ValidationError):
        power_dispersion(np.zeros((2, 3)), [0.5, 0.5], np.zeros(4), 2)
    with pytest.raises(ValidationError):
        power_dispersion(np.zeros((2, 3)), [1.0], np.zeros(3), 2)
