"""One-shot federation protocol: hand-checked audits and identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fqs
from fqs import (
    AuditError,
    GridSpec,
    GroupedSample,
    SiloMessage,
    ValidationError,
    client_summarize,
    h_hat,
    report_to_dict,
    server_audit,
    u_hat,
)

from .conftest import rng

GRID10 = GridSpec(k=10)


def two_silo_messages():
    """Two silos, two groups, all mass at 0 or 1.

    Silo A holds 60 zeros for g0 and 40 zeros for g1; silo B holds 40 ones
    for g0 and 60 ones for g1.  Every quantity below is computable by hand.
    """
    a = client_summarize("A", {"g0": np.zeros(60), "g1": np.zeros(40)}, GRID10)
    b = client_summarize("B", {"g0": np.ones(40), "g1": np.ones(60)}, GRID10)
    return [a, b]


# ------------------------------------------------------- hand-checked audit

def test_hand_audit_weights():
    report = server_audit(two_silo_messages(), 2)
    assert report.weights.alpha == {"g0": 0.5, "g1": 0.5}
    assert report.weights.pi == {
        "g0": {"A": 0.6, "B": 0.4},
        "g1": {"A": 0.4, "B": 0.6},
    }
    assert report.weights.beta == {"A": 0.5, "B": 0.5}


def test_hand_audit_p2_values():
    # mixture quantile rows are [0]*6+[1]*4 and [0]*4+[1]*6, the group
    # centers are flat 0.4 and 0.6 rows, and the overall center is
    # [0,0,0,0,.5,.5,1,1,1,1]; all four functionals follow by hand
    report = server_audit(two_silo_messages(), 2)
    assert report.g_hat == pytest.approx(0.05, abs=1e-14)
    assert report.v_mix == pytest.approx(0.24, abs=1e-14)
    assert report.v_bar == pytest.approx(0.21, abs=1e-14)
    assert report.r == pytest.approx(-0.4, abs=1e-14)
    assert report.h_hat == pytest.approx(0.01, abs=1e-14)
    np.testing.assert_allclose(
        report.barycenter_quantiles,
        [0, 0, 0, 0, 0.5, 0.5, 1, 1, 1, 1],
        atol=1e-15,
    )
    np.testing.assert_array_equal(
        report.mixture_quantiles["g0"], [0.0] * 6 + [1.0] * 4
    )
    np.testing.assert_array_equal(
        report.mixture_quantiles["g1"], [0.0] * 4 + [1.0] * 6
    )


def test_hand_audit_p1_values():
    # p=1 centers are columnwise weighted lower medians: the overall center
    # is [0]*6+[1]*4 and the group centers collapse to all-0 and all-1 rows
    report = server_audit(two_silo_messages(), 1)
    assert report.g_hat == pytest.approx(0.1, abs=1e-14)
    assert report.v1_mix == pytest.approx(0.4, abs=1e-14)
    assert report.v1_bar == pytest.approx(0.5, abs=1e-14)
    assert report.h_hat == pytest.approx(0.1, abs=1e-14)
    # the sandwich lower edge is tight here: |v1_bar - v1_mix| = g exactly
    resid = report.identity_residuals()
    assert abs(resid["lower"]) < 1e-14
    assert resid["upper"] == pytest.approx(-0.8, abs=1e-14)


def test_hand_audit_metadata():
    report = server_audit(two_silo_messages(), 2)
    assert report.metadata["silo_count"] == 2
    assert report.metadata["n_total"] == 200
    assert report.metadata["n_min"] == 40
    assert report.metadata["group_counts"] == {"g0": 100, "g1": 100}
    assert report.metadata["degenerate_cells"] == []


def test_hand_audit_identity_residuals_p2():
    resid = server_audit(two_silo_messages(), 2).identity_residuals()
    assert abs(resid["anova"]) < 1e-14
    # |r| = 0.4 against the Cauchy-Schwarz cap 2*sqrt(.24*.21) ~ 0.449
    assert resid["cross-term"] == pytest.approx(0.4 - 2 * math.sqrt(0.0504), abs=1e-12)
    assert resid["lower"] < 0  # strict slack on both two-sided bounds
    assert resid["upper"] < 0


# ------------------------------------------ federated equals centralized

def test_single_silo_matches_centralized_bit_exact():
    gen = rng(211)
    scores = {
        "g0": gen.normal(size=137),
        "g1": gen.normal(loc=0.7, size=93),
        "g2": gen.normal(loc=-0.4, size=55),
    }
    grid = GridSpec(k=16)
    message = client_summarize("only", scores, grid)
    report = server_audit([message], 2)
    sample = GroupedSample(groups=scores)
    assert report.g_hat == u_hat(sample, grid, 2)
    assert report.h_hat == h_hat(sample, grid, 2)
    # with one silo there is nothing to mix across, so both split terms
    # degenerate: the within part is zero and the between part carries all
    assert report.v_mix == 0.0
    assert report.r == 0.0
    assert report.v_bar == report.g_hat


def test_multi_silo_matches_centralized_when_sketches_are_lossless():
    # a k-point sketch recovers a cell's empirical law exactly when the
    # cell count divides k; with all cells lossless, count-weighted mixing
    # reproduces each group's pooled empirical CDF and the one-shot audit
    # agrees with the centralized functionals up to roundoff
    # cell counts divide k so each silo sketch is lossless, and group totals
    # divide k so the centralized group sketch is lossless too
    gen = rng(223)
    grid = GridSpec(k=24)
    splits = [
        (12, 12, 0),
        (8, 8, 8),
        (12, 8, 4),
        (2, 1, 1),
        (6, 4, 2),
        (24, 0, 0),
        (0, 2, 1),
        (4, 4, 4),
    ]
    for p in (1, 2):
        for _ in range(10):
            pooled = {"a": [], "b": [], "c": []}
            per_silo = [{}, {}, {}]
            for label in pooled:
                split = splits[gen.integers(0, len(splits))]
                for j, count in enumerate(split):
                    if count == 0:
                        continue
                    values = gen.normal(loc=gen.normal(), size=count)
                    per_silo[j][label] = values
                    pooled[label].append(values)
            messages = [
                client_summarize(f"s{j}", scores, grid)
                for j, scores in enumerate(per_silo)
                if scores
            ]
            grouped = {
                label: np.concatenate(parts) for label, parts in pooled.items()
            }
            report = server_audit(messages, p)
            sample = GroupedSample(groups=grouped)
            assert report.g_hat == pytest.approx(
                u_hat(sample, grid, p), rel=1e-12, abs=1e-12
            )
            assert report.h_hat == pytest.approx(
                h_hat(sample, grid, p), rel=1e-12, abs=1e-12
            )


def test_multi_silo_approaches_centralized_as_k_grows():
    # with lossy sketches the audit is only an approximation; refining the
    # grid must shrink the gap to the centralized value on the same grid
    gen = rng(233)
    gaps = {}
    cells = {
        "s0": {"a": gen.normal(size=67), "b": gen.normal(loc=1.0, size=31)},
        "s1": {"a": gen.normal(loc=0.5, size=43), "b": gen.normal(size=59)},
    }
    grouped = {
        "a": np.concatenate([cells["s0"]["a"], cells["s1"]["a"]]),
        "b": np.concatenate([cells["s0"]["b"], cells["s1"]["b"]]),
    }
    for k in (8, 64, 512):
        grid = GridSpec(k=k)
        messages = [
            client_summarize(sid, scores, grid) for sid, scores in cells.items()
        ]
        fed = server_audit(messages, 2).g_hat
        gaps[k] = abs(fed - u_hat(GroupedSample(groups=grouped), grid, 2))
    assert gaps[64] < gaps[8]
    assert gaps[512] < gaps[64]


def test_missing_cell_uses_present_silos_only():
    # group "rare" lives in one silo; its mixture must be that silo's
    # sketch exactly and its pi row must renormalize to the single silo
    gen = rng(227)
    rare = np.sort(gen.normal(size=23))
    a = client_summarize("A", {"common": gen.normal(size=40), "rare": rare}, GRID10)
    b = client_summarize("B", {"common": gen.normal(size=60)}, GRID10)
    report = server_audit([a, b], 2)
    np.testing.assert_array_equal(
        report.mixture_quantiles["rare"], a.entries["rare"].values
    )
    assert report.weights.pi["rare"] == {"A": 1.0}
    assert report.weights.alpha["rare"] == pytest.approx(23 / 123)


def test_silo_order_invariance():
    gen = rng(229)
    messages = []
    for j in range(4):
        scores = {
            "x": gen.normal(size=int(gen.integers(5, 30))),
            "y": gen.normal(size=int(gen.integers(5, 30))),
        }
        messages.append(client_summarize(f"silo{j}", scores, GRID10))
    forward = report_to_dict(server_audit(messages, 2))
    backward = report_to_dict(server_audit(messages[::-1], 2))
    assert fqs.to_canonical_json(forward) == fqs.to_canonical_json(backward)


def test_degenerate_cells_reported():
    a = client_summarize("A", {"g0": [1.0], "g1": [0.0, 1.0]}, GRID10)
    b = client_summarize("B", {"g0": [0.5, 0.6], "g1": [2.0]}, GRID10)
    report = server_audit([a, b], 2)
    assert report.metadata["degenerate_cells"] == [["A", "g0"], ["B", "g1"]]


# ------------------------------------------------------------- validation

def test_server_rejects_empty_message_list():
    with pytest.raises(ValidationError) as e:
        server_audit([], 2)
    assert e.value.code == "no-messages"


def test_server_rejects_duplicate_silo_ids():
    a1 = client_summarize("A", {"g0": [0.0], "g1": [1.0]}, GRID10)
    a2 = client_summarize("A", {"g0": [0.5], "g1": [0.7]}, GRID10)
    with pytest.raises(ValidationError) as e:
        server_audit([a1, a2], 2)
    assert e.value.code == "duplicate-silo"


def test_server_rejects_grid_mismatch():
    a = client_summarize("A", {"g0": [0.0], "g1": [1.0]}, GridSpec(k=8))
    b = client_summarize("B", {"g0": [0.5], "g1": [0.7]}, GridSpec(k=16))
    with pytest.raises(ValidationError) as e:
        server_audit([a, b], 2)
    assert e.value.code == "grid-mismatch"


def test_server_rejects_single_group_union():
    a = client_summarize("A", {"solo": [0.0, 1.0]}, GRID10)
    b = client_summarize("B", {"solo": [0.5]}, GRID10)
    with pytest.raises(ValidationError) as e:
        server_audit([a, b], 2)
    assert e.value.code == "too-few-groups"


def huge_score_federation(scale):
    """Two silos whose scores reach scale, and the pooled groups."""
    gen = rng(11)
    silos = [{"g0": gen.beta(2, 5, 40) * scale, "g1": -gen.beta(3, 5, 30) * scale} for _ in range(2)]
    messages = [client_summarize(sid, groups, GridSpec(k=8)) for sid, groups in zip("AB", silos)]
    pooled = GroupedSample({g: np.concatenate([s[g] for s in silos]) for g in ("g0", "g1")})
    return messages, pooled


@pytest.mark.parametrize("scale", [1e200, 1e300])
def test_p2_overflow_is_a_validation_error(scale):
    # squared gaps of scores this large exceed the float64 range
    messages, pooled = huge_score_federation(scale)
    for run in (lambda: server_audit(messages, 2), lambda: u_hat(pooled, GridSpec(k=8), 2)):
        with pytest.raises(ValidationError) as e:
            run()
        assert e.value.code == "score-overflow"
        assert "float64 range" in e.value.message


@pytest.mark.parametrize("scale", [1e200, 1e300])
def test_p1_stays_finite_on_huge_scores(scale):
    messages, pooled = huge_score_federation(scale)
    report = server_audit(messages, 1)
    values = [report.g_hat, report.h_hat, report.v1_mix, report.v1_bar]
    values += [u_hat(pooled, GridSpec(k=8), 1), h_hat(pooled, GridSpec(k=8), 1)]
    assert all(math.isfinite(v) and v > 0 for v in values)
    # the CDF disparity at p = 2 integrates gaps below 1, so it stays finite too
    assert math.isfinite(h_hat(pooled, GridSpec(k=8), 2))


def test_server_rejects_unsupported_p():
    with pytest.raises(AuditError) as e:
        server_audit(two_silo_messages(), 3)
    assert e.value.code == "unsupported-p"


def test_client_rejects_empty_silo():
    with pytest.raises(ValidationError) as e:
        client_summarize("A", {}, GRID10)
    assert e.value.code == "empty-silo"


def test_message_entries_sorted_and_grid_checked():
    message = client_summarize("A", {"z": [1.0], "a": [0.0]}, GRID10)
    assert list(message.entries) == ["a", "z"]
    sketch = message.entries["a"]
    with pytest.raises(ValidationError) as e:
        SiloMessage("B", GridSpec(k=4), {"a": sketch})
    assert e.value.code == "grid-mismatch"


# ------------------------------------------------------ property checks

@st.composite
def federation_instances(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    d = draw(st.integers(1, 4))
    group_count = draw(st.integers(2, 4))
    gen = np.random.Generator(np.random.PCG64(seed))
    labels = [f"g{i}" for i in range(group_count)]
    messages = []
    for j in range(d):
        scores = {}
        for i, label in enumerate(labels):
            count = int(gen.integers(0, 25))
            # guarantee every group is seen somewhere: the last silo fills
            if count == 0 and j < d - 1:
                continue
            count = max(count, 1) if j == d - 1 else count
            if count == 0:
                continue
            scores[label] = gen.normal(loc=float(i), size=count)
        if scores:
            messages.append(client_summarize(f"s{j}", scores, GRID10))
    return messages


@settings(max_examples=60)
@given(federation_instances())
def test_anova_identity_and_bounds(messages):
    report = server_audit(messages, 2)
    g, vm, vb, r = report.g_hat, report.v_mix, report.v_bar, report.r
    scale = max(1.0, abs(g))
    assert abs(g - (vm + vb + r)) <= 1e-10 * scale
    assert abs(r) <= 2.0 * math.sqrt(vm * vb) + 1e-10
    low = (math.sqrt(vm) - math.sqrt(vb)) ** 2
    high = (math.sqrt(vm) + math.sqrt(vb)) ** 2
    assert low - 1e-10 * scale <= g <= high + 1e-10 * scale


@settings(max_examples=60)
@given(federation_instances())
def test_p1_sandwich(messages):
    report = server_audit(messages, 1)
    g, vm, vb = report.g_hat, report.v1_mix, report.v1_bar
    scale = max(1.0, abs(g))
    assert abs(vb - vm) - 1e-10 * scale <= g <= vb + vm + 1e-10 * scale


@settings(max_examples=30)
@given(federation_instances())
def test_report_dict_is_canonical_json_ready(messages):
    for p in (1, 2):
        payload = report_to_dict(server_audit(messages, p))
        text = fqs.to_canonical_json(payload)
        assert text.startswith("{")
        if p == 2:
            assert "v_mix" in payload and "v1_mix" not in payload
        else:
            assert "v1_mix" in payload and "v_mix" not in payload
