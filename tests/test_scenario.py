"""Allocation scenarios, copula bias injection, and synthetic scores."""

import math
import statistics

import numpy as np
import pytest

import fqs
from fqs import (
    AllocationScenario,
    ValidationError,
    allocate_copula,
    allocate_random,
    dependence_diagnostics,
    margins_from_assignment,
    normal_cdf,
    normal_quantile,
    sample_beta,
    split_cells,
)

from .conftest import rng


def monotone_population(n, d):
    scores = np.linspace(0.001, 0.999, n)
    labels = np.array(["a", "b"] * (n // 2))
    margins = np.full((d, 2), n // 2 // d)
    return scores, labels, margins


# ------------------------------------------------------------ scenario type

def test_scenario_validation():
    AllocationScenario(regime="random", rho=0.0, d=3, seed=1)
    with pytest.raises(ValidationError) as e:
        AllocationScenario(regime="sideways", rho=0.0, d=3, seed=1)
    assert e.value.code == "unknown-regime"
    with pytest.raises(ValidationError) as e:
        AllocationScenario(regime="positive", rho=1.0, d=3, seed=1)
    assert e.value.code == "rho-out-of-range"
    with pytest.raises(ValidationError):
        AllocationScenario(regime="positive", rho=-0.1, d=3, seed=1)


# ---------------------------------------------------------- allocate_random

def test_allocate_random_single_silo():
    labels = np.array(["a", "b"] * 10)
    assignment = allocate_random(labels, 1, 42)
    assert np.all(assignment == 1)


def test_allocate_random_deterministic():
    labels = np.array(["a"] * 100 + ["b"] * 100)
    first = allocate_random(labels, 5, 99)
    second = allocate_random(labels, 5, 99)
    np.testing.assert_array_equal(first, second)
    assert first.tobytes() == second.tobytes()
    assert not np.array_equal(first, allocate_random(labels, 5, 100))


def test_allocate_random_shares_concentrate():
    # binomial concentration: each silo share within 5*sqrt(0.16/n) of 1/5
    n, d = 100_000, 5
    labels = np.array(["a"] * n)
    assignment = allocate_random(labels, d, 7)
    tol = 5.0 * math.sqrt(0.16 / n)
    for silo in range(1, d + 1):
        share = np.mean(assignment == silo)
        assert abs(share - 0.2) <= tol


# ---------------------------------------------------------- allocate_copula

def test_copula_margins_exact_all_regimes():
    gen = rng(503)
    n, d = 600, 3
    scores = gen.normal(size=n)
    labels = np.array(["x"] * 200 + ["y"] * 250 + ["z"] * 150)
    margins = np.array([[70, 90, 50], [60, 80, 40], [70, 80, 60]])
    for regime in ("random", "positive", "negative"):
        for rho in (0.0, 0.5, 0.9):
            for seed in (1, 2, 3):
                assignment = allocate_copula(
                    scores, labels, margins, rho, regime, seed
                )
                realized = margins_from_assignment(assignment, labels, d)
                np.testing.assert_array_equal(realized, margins)


def test_copula_margin_mismatch_rejected():
    scores = np.arange(10.0)
    labels = np.array(["a"] * 5 + ["b"] * 5)
    bad = np.array([[3, 2], [3, 2]])  # column sums 6 and 4, not 5 and 5
    with pytest.raises(ValidationError) as e:
        allocate_copula(scores, labels, bad, 0.5, "positive", 1)
    assert e.value.code == "margin-mismatch"


def test_copula_strong_positive_dependence():
    # monotone scores, rho=0.9: the silo index tracks the score strongly
    scores, labels, margins = monotone_population(10_000, 5)
    assignment = allocate_copula(scores, labels, margins, 0.9, "positive", 3)
    diag = dependence_diagnostics(scores, assignment)
    assert diag["spearman"] > 0.5


def test_copula_negative_regime_flips_first_group():
    scores, labels, margins = monotone_population(4000, 4)
    pos = allocate_copula(scores, labels, margins, 0.9, "positive", 11)
    neg = allocate_copula(scores, labels, margins, 0.9, "negative", 11)
    mask_a = labels == "a"
    mask_b = ~mask_a
    sp = {
        ("positive", "a"): dependence_diagnostics(scores[mask_a], pos[mask_a]),
        ("negative", "a"): dependence_diagnostics(scores[mask_a], neg[mask_a]),
        ("positive", "b"): dependence_diagnostics(scores[mask_b], pos[mask_b]),
        ("negative", "b"): dependence_diagnostics(scores[mask_b], neg[mask_b]),
    }
    assert sp[("positive", "a")]["spearman"] > 0.5
    assert sp[("negative", "a")]["spearman"] < -0.5
    # the unflipped group keeps its positive dependence in both regimes
    assert sp[("positive", "b")]["spearman"] > 0.5
    assert sp[("negative", "b")]["spearman"] > 0.5
    # the flip is a mirror image: same magnitude either way
    assert sp[("negative", "a")]["spearman"] == pytest.approx(
        -sp[("positive", "a")]["spearman"], abs=1e-12
    )


def test_copula_random_regime_uncorrelated():
    scores, labels, margins = monotone_population(4000, 4)
    assignment = allocate_copula(scores, labels, margins, 0.9, "random", 5)
    diag = dependence_diagnostics(scores, assignment)
    assert abs(diag["spearman"]) < 0.1


def test_copula_rho_monotonicity():
    # median |spearman| over 50 seeds is nondecreasing in rho
    scores = np.concatenate(
        [
            sample_beta(2.0, 5.0, 500, 7, stream="mono-a"),
            sample_beta(5.0, 2.0, 500, 7, stream="mono-b"),
        ]
    )
    labels = np.array(["a"] * 500 + ["b"] * 500)
    margins = np.full((4, 2), 125)
    medians = []
    for rho in (0.0, 0.3, 0.6, 0.9):
        values = [
            abs(
                dependence_diagnostics(
                    scores,
                    allocate_copula(scores, labels, margins, rho, "positive", s),
                )["spearman"]
            )
            for s in range(50)
        ]
        medians.append(statistics.median(values))
    assert medians == sorted(medians)


def test_copula_deterministic():
    scores, labels, margins = monotone_population(1000, 4)
    a = allocate_copula(scores, labels, margins, 0.7, "negative", 123)
    b = allocate_copula(scores, labels, margins, 0.7, "negative", 123)
    assert a.tobytes() == b.tobytes()


def test_copula_rank_ties_randomized_but_seeded():
    # heavy ties in scores: the seeded tie-break keeps runs reproducible
    # while different seeds produce different assignments
    scores = np.repeat([0.2, 0.8], 200)
    labels = np.array(["a", "b"] * 200)
    margins = np.full((2, 2), 100)
    one = allocate_copula(scores, labels, margins, 0.9, "positive", 1)
    two = allocate_copula(scores, labels, margins, 0.9, "positive", 1)
    other = allocate_copula(scores, labels, margins, 0.9, "positive", 2)
    np.testing.assert_array_equal(one, two)
    assert not np.array_equal(one, other)


# ------------------------------------------------- margins_from_assignment

def test_margins_from_assignment_counts():
    labels = np.array(["a", "b", "a", "b", "a"])
    assignment = np.array([1, 1, 2, 2, 2])
    got = margins_from_assignment(assignment, labels, 2)
    np.testing.assert_array_equal(got, [[1, 1], [2, 1]])


def test_margins_from_assignment_keeps_empty_silos():
    labels = np.array(["a", "a"])
    assignment = np.array([1, 1])
    got = margins_from_assignment(assignment, labels, 3)
    np.testing.assert_array_equal(got, [[2], [0], [0]])


def test_split_cells_matches_boolean_masks():
    gen = rng(41)
    n, d, groups = 80, 4, 3
    scores = gen.normal(size=n)
    codes = gen.integers(0, groups, size=n)
    silo = gen.integers(0, d - 1, size=n)  # the last silo stays empty
    codes[silo == 0] %= 2  # group 2 is absent from the first silo
    cells = split_cells(scores, codes, silo, d, groups)
    assert [len(cell) for cell in cells] == [groups] * d
    for j in range(d):
        for c in range(groups):
            np.testing.assert_array_equal(cells[j][c], scores[(silo == j) & (codes == c)])
    assert cells[0][2].size == 0
    assert all(part.size == 0 for part in cells[d - 1])


# ------------------------------------------------- dependence diagnostics

def test_diagnostics_hand_values():
    # scores 1..4 against silos (1,1,2,2): both correlations are 2/sqrt(5)
    diag = dependence_diagnostics([1.0, 2.0, 3.0, 4.0], [1, 1, 2, 2])
    assert diag["pearson"] == pytest.approx(2.0 / math.sqrt(5.0), abs=1e-12)
    assert diag["spearman"] == pytest.approx(2.0 / math.sqrt(5.0), abs=1e-12)


def test_diagnostics_comonotone_buckets():
    scores = np.linspace(0, 1, 1000)
    assignment = np.repeat(np.arange(1, 11), 100)
    diag = dependence_diagnostics(scores, assignment)
    assert diag["spearman"] > 0.99


def test_diagnostics_independent_shuffle_is_small():
    gen = rng(521)
    n = 4000
    scores = gen.normal(size=n)
    assignment = gen.integers(1, 6, size=n)
    diag = dependence_diagnostics(scores, assignment)
    assert abs(diag["spearman"]) <= 3.0 / math.sqrt(n)


def test_diagnostics_degenerate_inputs():
    with pytest.raises(ValidationError) as e:
        dependence_diagnostics([1.0, 1.0, 1.0], [1, 2, 3])
    assert e.value.code == "degenerate-correlation"
    with pytest.raises(ValidationError):
        dependence_diagnostics([1.0, 2.0, 3.0], [2, 2, 2])


def test_diagnostics_spearman_invariant_to_monotone_rescale():
    gen = rng(523)
    scores = gen.normal(size=500)
    assignment = gen.integers(1, 4, size=500)
    base = dependence_diagnostics(scores, assignment)["spearman"]
    warped = dependence_diagnostics(np.exp(scores), assignment)["spearman"]
    assert warped == pytest.approx(base, abs=1e-12)


# ---------------------------------------------------------------- sampling

def test_sample_beta_uniform_mean():
    x = sample_beta(1.0, 1.0, 40_000, 31)
    assert abs(float(np.mean(x)) - 0.5) <= 3.0 * math.sqrt(1.0 / 12.0 / 40_000)


def test_sample_beta_moments():
    n = 40_000
    x = sample_beta(2.0, 5.0, n, 37)
    var = (2.0 * 5.0) / (7.0**2 * 8.0)
    assert abs(float(np.mean(x)) - 2.0 / 7.0) <= 3.0 * math.sqrt(var / n)
    assert np.all((x > 0.0) & (x < 1.0))


def test_sample_beta_deterministic_and_stream_separated():
    a = sample_beta(2.0, 5.0, 100, 41, stream="one")
    b = sample_beta(2.0, 5.0, 100, 41, stream="one")
    c = sample_beta(2.0, 5.0, 100, 41, stream="two")
    assert a.tobytes() == b.tobytes()
    assert not np.array_equal(a, c)


def test_sample_beta_rejects_bad_shapes():
    with pytest.raises(ValidationError):
        sample_beta(0.0, 1.0, 10, 1)
    with pytest.raises(ValidationError):
        sample_beta(2.0, -1.0, 10, 1)


# ------------------------------------------------------------ normal cdf/ppf

def test_normal_cdf_basics():
    assert normal_cdf(0.0) == pytest.approx(0.5, abs=0)
    for x in (0.3, 1.1, 2.7, 5.0):
        assert normal_cdf(-x) == pytest.approx(1.0 - normal_cdf(x), abs=1e-14)


def test_normal_cdf_reference_value():
    # Phi(1) from a high-precision erf table
    assert normal_cdf(1.0) == pytest.approx(0.8413447460685429, abs=1e-12)


def test_normal_quantile_reference_value():
    assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-5)
    assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-14)


def test_normal_quantile_roundtrip():
    for x in np.linspace(-6.0, 6.0, 25):
        assert abs(normal_quantile(normal_cdf(x)) - x) <= 1e-8


def test_normal_quantile_domain():
    for u in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValidationError) as e:
            normal_quantile(u)
        assert e.value.code == "level-out-of-range"


def test_average_ranks_match_scipy_midranks():
    from scipy.stats import rankdata

    gen = rng(17)
    for x in (
        gen.integers(0, 5, size=400).astype(np.float64),
        np.round(gen.normal(size=300), 1),
        np.array([2.0, 2.0, 2.0]),
        np.array([1.0]),
    ):
        assert np.array_equal(fqs.scenario._average_ranks(x), rankdata(x, method="average"))
