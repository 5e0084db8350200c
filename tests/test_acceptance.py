"""Acceptance gate: one check per promised behavior, one verdict line each.

Every test prints `ACCEPTANCE PASS <name>` when its assertions hold, so a
plain pytest run doubles as the sign-off checklist.  Expected values come
from hand derivations, exact rational oracles, or independently evaluated
closed forms; none are copied from the code under test.
"""

import math
import statistics
import struct
import time
from fractions import Fraction

import numpy as np
import pytest

import fqs
from fqs import (
    GridSpec,
    GroupedSample,
    MalformedInputError,
    allocate_copula,
    allocate_random,
    client_summarize,
    cramer_p_step,
    decode_message,
    dkw_bound,
    encode_message,
    h_hat,
    hp_quantile_bound,
    margins_from_assignment,
    sample_beta,
    server_audit,
    sketch_to_step_cdf,
    split_cells,
    u2_bin_averaged,
    u2_linear_exact,
    u_hat,
    wasserstein_p_grid,
)

from .conftest import find_compas_csv, rng
from .test_central import exact_binavg_two_groups, exact_u2_two_groups


def conclude(name):
    print(f"ACCEPTANCE PASS {name}")


def random_federation(gen):
    d = int(gen.integers(1, 9))
    group_count = int(gen.integers(2, 5))
    k = int(gen.integers(2, 65))
    grid = GridSpec(k=k)
    labels = [f"g{i}" for i in range(group_count)]
    messages = []
    for j in range(d):
        scores = {}
        for i, label in enumerate(labels):
            count = int(gen.integers(0, 40))
            if j == d - 1:
                count = max(count, 1)  # every group appears somewhere
            if count == 0:
                continue
            scores[label] = gen.normal(loc=float(i) * gen.normal(), size=count)
        if scores:
            messages.append(client_summarize(f"s{j}", scores, grid))
    return messages


def test_anova_exactness_500_federations():
    start = time.monotonic()
    gen = rng(9001)
    for _ in range(500):
        report = server_audit(random_federation(gen), 2)
        g, vm, vb, r = report.g_hat, report.v_mix, report.v_bar, report.r
        scale = max(1.0, abs(g))
        assert abs(g - (vm + vb + r)) <= 1e-10 * scale
        assert abs(r) <= 2.0 * math.sqrt(vm * vb) + 1e-10
        low = (math.sqrt(vm) - math.sqrt(vb)) ** 2
        high = (math.sqrt(vm) + math.sqrt(vb)) ** 2
        assert low - 1e-10 * scale <= g <= high + 1e-10 * scale
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    conclude("order-2 split identity, cross-term cap and two-sided bounds "
             "on 500 random federations")


def test_p1_sandwich_500_federations():
    gen = rng(9001)  # same instance stream as the order-2 check
    for _ in range(500):
        report = server_audit(random_federation(gen), 1)
        g, vm, vb = report.g_hat, report.v1_mix, report.v1_bar
        scale = max(1.0, abs(g))
        assert abs(vb - vm) - 1e-10 * scale <= g <= vb + vm + 1e-10 * scale
    conclude("order-1 sandwich bounds on the same 500 federations")


def test_two_group_reduction_200_instances():
    gen = rng(9011)
    for _ in range(200):
        n0 = int(gen.integers(1, 200))
        n1 = int(gen.integers(1, 200))
        k = int(gen.integers(1, 65))
        sample = GroupedSample(
            groups={"a": gen.normal(size=n0), "b": gen.normal(loc=1.0, size=n1)}
        )
        grid = GridSpec(k=k)
        sk = sample.sketches(grid)
        gaps = sk["a"].values - sk["b"].values
        a0 = n0 / (n0 + n1)
        a1 = n1 / (n0 + n1)
        want = a0 * a1 * float(np.mean(gaps * gaps))
        got = u_hat(sample, grid, 2)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)
    conclude("two-group value equals weight product times mean squared "
             "quantile gap on 200 instances")


def test_w1_equals_c1_200_pairs():
    gen = rng(9021)
    for _ in range(200):
        k = int(gen.integers(1, 40))
        grid = GridSpec(k=k)
        s0 = fqs.build_sketch(gen.normal(size=int(gen.integers(1, 80))), grid)
        s1 = fqs.build_sketch(gen.normal(size=int(gen.integers(1, 80))), grid)
        w1 = wasserstein_p_grid(s0, s1, 1)
        c1 = cramer_p_step(sketch_to_step_cdf(s0), sketch_to_step_cdf(s1), 1)
        assert abs(w1 - c1) <= 1e-10
    conclude("transport and CDF-gap distances coincide at order 1 on 200 "
             "sketch pairs")


def test_bin_averaged_lower_bound_200_instances():
    gen = rng(9031)
    strict_seen = False
    for _ in range(200):
        n0 = int(gen.integers(1, 11))
        n1 = int(gen.integers(1, 11))
        x0 = gen.normal(size=n0)
        x1 = gen.normal(size=n1)
        sample = GroupedSample(groups={"a": x0, "b": x1})
        exact = exact_u2_two_groups(x0, x1)
        for k in (1, 2, 4, 8, 16):
            got = u2_bin_averaged(sample, GridSpec(k=k))
            oracle = exact_binavg_two_groups(x0, x1, k)
            assert got == pytest.approx(float(oracle), rel=1e-12, abs=1e-15)
            assert oracle <= exact  # exact rational comparison
            if oracle < exact:
                strict_seen = True
    assert strict_seen
    # equality requires a per-bin-constant gap; n0 = n1 = k builds one
    tight0 = np.sort(gen.normal(size=6))
    tight1 = np.sort(gen.normal(size=6) + 2.0)
    tight = GroupedSample(groups={"a": tight0, "b": tight1})
    assert u2_bin_averaged(tight, GridSpec(k=6)) == pytest.approx(
        float(exact_u2_two_groups(tight0, tight1)), rel=1e-12
    )
    conclude("bin-averaged estimate never exceeds the exact order-2 value "
             "on 200 instances, equality only when the gap is bin-constant")


def test_discretization_rates():
    # Both Beta(2,5) and Beta(5,2) have densities that vanish at a support
    # endpoint, which makes their quantile functions non-smooth at the
    # matching corner of [0,1]; the advertised decay orders hold where the
    # integrand is twice differentiable, so the rate experiment runs on a
    # trimmed grid whose interior stays clear of both corners.  The fine
    # reference uses the same trimmed functional.  Ratios are pooled over
    # five seeds and judged by their median, which tolerates the sampling
    # noise floor of individual replications.
    start = time.monotonic()
    eps = 0.05
    fine = GridSpec(k=100_000, trim_epsilon=eps)
    riemann_ratios, linear_ratios = [], []
    for seed in (11, 12, 13, 14, 15):
        x0 = sample_beta(2.0, 5.0, 100_000, seed, stream="rates-g0")
        x1 = sample_beta(5.0, 2.0, 100_000, seed, stream="rates-g1")
        sample = GroupedSample(groups={"a": x0, "b": x1})
        ref = u_hat(sample, fine, 2)
        err_r, err_l = {}, {}
        for k in (16, 32, 64, 128, 256):
            grid = GridSpec(k=k, trim_epsilon=eps)
            err_r[k] = abs(u_hat(sample, grid, 2) - ref)
            err_l[k] = abs(u2_linear_exact(sample, grid) - ref)
        for k in (16, 32, 64, 128):
            riemann_ratios.append(err_r[k] / err_r[2 * k])
            linear_ratios.append(err_l[k] / err_l[2 * k])
    med_r = statistics.median(riemann_ratios)
    med_l = statistics.median(linear_ratios)
    elapsed = time.monotonic() - start
    assert med_r >= 1.3, f"riemann median ratio {med_r:.3f}"
    assert med_l >= 3.0, f"linear median ratio {med_l:.3f}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    conclude(f"grid-doubling error ratios: riemann median {med_r:.2f} >= 1.3, "
             f"interpolated median {med_l:.2f} >= 3.0")


def test_federated_equals_centralized_single_silo():
    gen = rng(9041)
    for _ in range(20):
        k = int(gen.integers(2, 40))
        grid = GridSpec(k=k)
        scores = {
            f"g{i}": gen.normal(size=int(gen.integers(1, 60)))
            for i in range(int(gen.integers(2, 5)))
        }
        report = server_audit([client_summarize("solo", scores, grid)], 2)
        sample = GroupedSample(groups=scores)
        assert report.g_hat == u_hat(sample, grid, 2)  # field-level equality
        assert report.h_hat == h_hat(sample, grid, 2)
    conclude("single-silo federation reproduces the centralized values "
             "bit-exactly")


def test_vanishing_regimes():
    gen = rng(9051)
    grid = GridSpec(k=16)
    # case 1: each group looks the same in every silo (counts are powers of
    # two so the mixing weights are dyadic and the arithmetic is exact)
    g0 = np.sort(gen.normal(size=8))
    g1 = np.sort(gen.normal(loc=2.0, size=8))
    case1 = [
        client_summarize("A", {"g0": g0, "g1": g1}, grid),
        client_summarize("B", {"g0": g0, "g1": g1}, grid),
    ]
    report1 = server_audit(case1, 2)
    assert report1.v_mix <= 1e-10
    assert report1.g_hat == report1.v_bar
    assert report1.g_hat > 0.1  # the disparity itself is real
    # case 2: within each silo the groups share one distribution, and the
    # silo weights are equal across groups, so the global disparity is zero
    silo_a = np.sort(gen.normal(size=8))
    silo_b = np.sort(gen.normal(loc=5.0, size=8))
    case2 = [
        client_summarize("A", {"g0": silo_a, "g1": silo_a}, grid),
        client_summarize("B", {"g0": silo_b, "g1": silo_b}, grid),
    ]
    report2 = server_audit(case2, 2)
    assert report2.g_hat <= 1e-10
    conclude("constructed no-heterogeneity case gives v_mix = 0 with "
             "g = v_bar; equal-weight parity case gives g = 0")


def test_margin_preservation():
    gen = rng(9061)
    n, d = 300, 3
    scores = gen.normal(size=n)
    labels = np.asarray(["x"] * 120 + ["y"] * 180, dtype=object)
    margins = np.array([[40, 60], [40, 60], [40, 60]])
    for regime in ("random", "positive", "negative"):
        for rho in (0.0, 0.5, 0.9):
            for seed in range(50):
                assignment = allocate_copula(
                    scores, labels, margins, rho, regime, seed
                )
                realized = margins_from_assignment(assignment, labels, d)
                assert np.array_equal(realized, margins)
    conclude("copula allocation realizes the baseline contingency table "
             "exactly for 3 regimes x 3 correlations x 50 seeds")


def test_bound_calculators_and_coverage():
    assert dkw_bound(5000, 0.05) == pytest.approx(0.019206, abs=1e-6)
    inp = fqs.BoundInputs(
        n=5000, n_min=1000, n_group_min=1000, k=50, d=5, groups=2, delta=0.05
    )
    assert hp_quantile_bound(inp) == pytest.approx(0.07044, abs=1e-4)
    bound = dkw_bound(500, 0.05)
    gen = rng(401)
    i = np.arange(1, 501)
    violations = 0
    for _ in range(1000):
        x = np.sort(gen.random(500))
        gap = max(np.max(i / 500.0 - x), np.max(x - (i - 1) / 500.0))
        violations += gap > bound
    rate = violations / 1000.0
    assert rate <= 0.05
    conclude(f"bound calculators match hand-evaluated constants; empirical "
             f"CDF coverage violations {rate:.3f} <= 0.05")


def test_wire_round_trip_and_rejection():
    gen = rng(9071)
    for _ in range(1000):
        k = int(gen.integers(1, 16))
        grid = GridSpec(k=k, trim_epsilon=float(gen.choice([0.0, 0.1])))
        groups = {
            f"g{i}": gen.normal(size=int(gen.integers(1, 30)))
            for i in range(int(gen.integers(1, 4)))
        }
        msg = client_summarize(f"silo{gen.integers(0, 100)}", groups, grid)
        blob = encode_message(msg)
        back = decode_message(blob)
        assert encode_message(back) == blob

    corpus = []
    base = encode_message(
        client_summarize("s", {"a": [0.5, 0.5, 0.5]}, GridSpec(k=1))
    )
    corpus.extend(base[:cut] for cut in range(len(base)))  # every truncation
    corpus.append(b"XQS1" + base[4:])                      # wrong magic
    corpus.append(b"FQS2" + base[4:])                      # future version
    corpus.append(base + b"\x00")                          # trailing byte
    zero_count = bytearray(base)
    zero_count[24:32] = struct.pack("<Q", 0)
    corpus.append(bytes(zero_count))
    nan_value = bytearray(base)
    nan_value[-8:] = struct.pack("<d", float("nan"))
    corpus.append(bytes(nan_value))
    wide = encode_message(
        client_summarize("s", {"a": [0.0, 1.0, 2.0, 3.0]}, GridSpec(k=4))
    )
    unsorted = bytearray(wide)
    unsorted[-32:] = wide[-24:-16] + wide[-32:-24] + wide[-16:]
    corpus.append(bytes(unsorted))
    entry = base[17:]
    head = base[:15]
    corpus.append(head + struct.pack("<H", 2) + entry + entry)  # dup label
    corpus.append(head + struct.pack("<H", 0))                  # no groups
    rejected = 0
    for blob in corpus:
        try:
            decode_message(blob)
        except MalformedInputError:
            rejected += 1
    assert rejected == len(corpus)
    conclude(f"1000 fuzzed messages survive encode/decode byte-exactly; "
             f"all {len(corpus)} corrupted variants rejected")


def test_compas_reproduction():
    path = find_compas_csv()
    if path is None:
        pytest.skip(
            "COMPAS CSV not present: place compas-scores-two-years.csv under "
            "$FQS_DATA_DIR (or ./data) to run the real-data reproduction"
        )
    data = fqs.load_dataset(
        fqs.DatasetSpec(
            path=path,
            score_column="decile_score",
            group_column="race",
            groups=("African-American", "Caucasian"),
            jitter=True,
            seed=20,
        )
    )
    counts = data.sample.counts()
    assert counts["African-American"] == 3696
    assert counts["Caucasian"] == 2454
    grid = GridSpec(k=2001)
    u2 = u_hat(data.sample, grid, 2)
    h2 = h_hat(data.sample, grid, 2)
    sk = data.sample.sketches(grid)
    w2 = wasserstein_p_grid(
        sk["African-American"], sk["Caucasian"], 2
    )
    assert u2 == pytest.approx(0.7609, abs=0.01)
    assert h2 == pytest.approx(0.0077, abs=0.0015)
    assert w2 == pytest.approx(1.7813, abs=0.01)
    # five silos, random allocation: same quantities through the protocol
    labels = data.sample.labels
    assignment = allocate_random(data.codes, 5, 20)
    cells = split_cells(data.scores, data.codes, assignment - 1, 5, len(labels))
    messages = [
        client_summarize(f"silo{j}", dict(zip(labels, cell)), grid)
        for j, cell in enumerate(cells, start=1)
    ]
    report = server_audit(messages, 2)
    alpha = report.weights.alpha
    fed_w2 = math.sqrt(
        report.g_hat / (alpha["African-American"] * alpha["Caucasian"])
    )
    assert report.g_hat == pytest.approx(0.7609, abs=0.08)
    assert fed_w2 == pytest.approx(1.7813, abs=0.08)
    conclude("real-data reproduction: exact group counts, fine-grid values "
             "and five-silo federation inside stated tolerances")


def test_sweep_qualitative_shapes():
    # reduced-scale sweep: absolute error medians shrink as the sketches
    # refine, and the smallest adequate grid is no smaller under biased
    # allocation than under random allocation
    from fqs import SweepSpec, run_sweep
    from fqs.datasets import IngestedData
    from fqs.sweep import K95_HEADER, SUMMARY_HEADER

    half = 1000
    scores = np.concatenate(
        [
            sample_beta(2.0, 5.0, half, 77, stream="acc-a"),
            sample_beta(5.0, 2.0, half, 77, stream="acc-b"),
        ]
    )
    data = IngestedData(
        scores=scores,
        codes=np.repeat([0, 1], half),
        sample=GroupedSample(groups={"a": scores[:half], "b": scores[half:]}),
    )
    spec = SweepSpec(
        ks=(4, 8, 16, 32),
        ds=(5,),
        regimes=("random", "positive"),
        rho=0.8,
        replications=50,
        base_seed=41,
        tau=0.05,
        delta=0.05,
    )
    result = run_sweep(data, spec, fine_k=2001)
    medae_col = SUMMARY_HEADER.index("medae")
    medae = {
        (row[0], row[2]): row[medae_col] for row in result.summary_rows
    }
    for regime in ("random", "positive"):
        series = [medae[(regime, k)] for k in (4, 8, 16, 32)]
        assert all(b <= a for a, b in zip(series, series[1:])), series
    k95_col = K95_HEADER.index("k95")
    k95 = {row[0]: row[k95_col] for row in result.k95_rows}
    random_k95 = k95["random"] if k95["random"] > 0 else float("inf")
    biased_k95 = k95["positive"] if k95["positive"] > 0 else float("inf")
    assert biased_k95 >= random_k95, k95
    conclude("reduced-scale sweep: median error nonincreasing in sketch "
             "size; adequate grid size no smaller under biased allocation")
