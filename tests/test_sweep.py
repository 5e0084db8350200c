"""Monte Carlo sweep harness: shapes, determinism, derived columns."""

import numpy as np
import pytest

import fqs
from fqs import GridSpec, GroupedSample, SweepSpec, ValidationError, run_sweep, u_hat
from fqs.datasets import IngestedData
from fqs.sweep import K95_HEADER, REPLICATION_HEADER, SUMMARY_HEADER


def small_data(n=400):
    half = n // 2
    scores = np.concatenate(
        [
            fqs.sample_beta(2.0, 5.0, half, 601, stream="sweep-a"),
            fqs.sample_beta(5.0, 2.0, half, 601, stream="sweep-b"),
        ]
    )
    codes = np.repeat([0, 1], half)
    sample = GroupedSample(groups={"a": scores[:half], "b": scores[half:]})
    return IngestedData(scores=scores, codes=codes, sample=sample)


def small_spec(**kw):
    base = dict(
        ks=(4, 8),
        ds=(1, 2),
        regimes=("random", "positive"),
        rho=0.6,
        replications=3,
        base_seed=17,
    )
    base.update(kw)
    return SweepSpec(**base)


def test_result_shapes_and_headers():
    data = small_data()
    result = run_sweep(data, small_spec(), fine_k=501)
    assert len(result.summary_rows) == 2 * 2 * 2
    assert len(result.replication_rows) == 2 * 2 * 2 * 3
    assert len(result.k95_rows) == 2 * 2
    for row in result.summary_rows:
        assert len(row) == len(SUMMARY_HEADER)
    for row in result.replication_rows:
        assert len(row) == len(REPLICATION_HEADER)
    for row in result.k95_rows:
        assert len(row) == len(K95_HEADER)


def test_deterministic_across_runs_and_jobs():
    data = small_data()
    one = run_sweep(data, small_spec(), fine_k=501)
    two = run_sweep(data, small_spec(), fine_k=501)
    parallel = run_sweep(data, small_spec(), fine_k=501, jobs=3)
    assert one.summary_rows == two.summary_rows == parallel.summary_rows
    assert one.replication_rows == two.replication_rows == parallel.replication_rows
    assert one.k95_rows == two.k95_rows == parallel.k95_rows


def test_budget_column():
    data = small_data()
    result = run_sweep(data, small_spec(), fine_k=501)
    budget_at = {
        (row[0], row[1], row[2]): row[SUMMARY_HEADER.index("budget")]
        for row in result.summary_rows
    }
    for (regime, d, k), budget in budget_at.items():
        assert budget == fqs.communication_budget(d, k, groups=2)


def test_u2_reference_matches_fine_grid():
    data = small_data()
    result = run_sweep(data, small_spec(), fine_k=501)
    assert result.u2_reference == u_hat(data.sample, GridSpec(501), 2)
    ref_col = SUMMARY_HEADER.index("u2_reference")
    assert all(row[ref_col] == result.u2_reference for row in result.summary_rows)


def test_k95_consistent_with_p_ok():
    data = small_data()
    spec = small_spec(tau=0.05, delta=0.2)
    result = run_sweep(data, spec, fine_k=501)
    p_ok_at = {
        (row[0], row[1], row[2]): row[SUMMARY_HEADER.index("p_ok")]
        for row in result.summary_rows
    }
    for regime, d, tau, target, k95 in result.k95_rows:
        assert tau == spec.tau
        assert target == 1.0 - spec.delta
        eligible = [k for k in sorted(spec.ks) if p_ok_at[(regime, d, k)] >= target]
        assert k95 == (eligible[0] if eligible else -1)


def test_replication_rows_internally_consistent():
    data = small_data()
    spec = small_spec()
    result = run_sweep(data, spec, fine_k=501)
    cols = {name: REPLICATION_HEADER.index(name) for name in REPLICATION_HEADER}
    for row in result.replication_rows:
        abs_err = row[cols["abs_err"]]
        rel_err = row[cols["rel_err"]]
        assert abs_err == abs(row[cols["g2"]] - result.u2_reference)
        assert rel_err == pytest.approx(abs_err / result.u2_reference, rel=1e-15)
        assert row[cols["ok"]] == int(rel_err <= spec.tau)


def test_single_silo_replications_identical():
    # d=1 leaves nothing random: every replication sees the whole dataset,
    # so g2 equals the centralized value on the same grid each time
    data = small_data()
    spec = small_spec(ds=(1,), regimes=("random",), ks=(8,), replications=4)
    result = run_sweep(data, spec, fine_k=501)
    g2_col = REPLICATION_HEADER.index("g2")
    values = {row[g2_col] for row in result.replication_rows}
    assert values == {u_hat(data.sample, GridSpec(8), 2)}


def test_spec_validation():
    with pytest.raises(ValidationError):
        small_spec(ks=())
    with pytest.raises(ValidationError):
        small_spec(replications=0)
    with pytest.raises(ValidationError):
        small_spec(tau=0.0)
    with pytest.raises(ValidationError) as e:
        small_spec(delta=1.0)
    assert e.value.code == "delta-out-of-range"
