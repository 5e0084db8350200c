"""End-to-end command-line checks through the click test runner."""

import contextlib
import csv
import gc
import io
import json
import os
import shutil
import weakref

import numpy as np
import pytest
from click.testing import CliRunner

import fqs
from fqs.cli import main, parse_scenario_config

BASIC_ROWS = (
    "score,race,age\n"
    "3,red,20\n"
    "7,blue,30\n"
    "5,red,40\n"
    "1,green,50\n"
    "9,blue,60\n"
)


@pytest.fixture()
def runner():
    return CliRunner()


def invoke_ok(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


# ------------------------------------------------------------------- audit

def test_audit_synthetic_json(runner):
    result = invoke_ok(
        runner,
        ["audit", "--synthetic", "2,5,5,2", "--n", "2000", "--grid-k", "32",
         "--seed", "3"],
    )
    payload = json.loads(result.output)
    assert payload["p"] == 2
    assert payload["n"] == 2000
    assert payload["grid"] == {"k": 32, "trim_epsilon": 0.0}
    assert payload["groups"] == {"g0": 1000, "g1": 1000}
    assert sum(payload["alpha"].values()) == pytest.approx(1.0, abs=1e-12)
    # two-group shortcut: u = a0*a1*W2^2 and h = a0*a1*C2^2
    a0, a1 = payload["alpha"]["g0"], payload["alpha"]["g1"]
    assert payload["u_hat"] == pytest.approx(a0 * a1 * payload["w_p"] ** 2, rel=1e-12)
    assert payload["h_hat"] == pytest.approx(a0 * a1 * payload["c_p"] ** 2, rel=1e-12)
    assert payload["mean_gap"] > 0


def test_audit_deterministic(runner):
    args = ["audit", "--synthetic", "--n", "500", "--seed", "11"]
    one = invoke_ok(runner, args).output
    two = invoke_ok(runner, args).output
    assert one == two


def test_audit_p1(runner):
    result = invoke_ok(
        runner, ["audit", "--synthetic", "--n", "400", "--p", "1"]
    )
    payload = json.loads(result.output)
    assert payload["p"] == 1
    assert payload["u_hat"] >= 0.0


def test_audit_csv_file(runner, tmp_path):
    data = tmp_path / "toy.csv"
    data.write_text(BASIC_ROWS, encoding="utf-8")
    out = tmp_path / "out"
    result = invoke_ok(
        runner,
        ["audit", "--data", str(data), "--score-col", "score",
         "--group-col", "race", "--groups", "red,blue", "--grid-k", "8",
         "--out", str(out), "--format", "csv"],
    )
    payload = json.loads(result.output)
    assert payload["groups"] == {"blue": 2, "red": 2}
    rows = read_csv(out / "audit.csv")
    assert rows[0] == ["key", "value"]
    keys = {r[0] for r in rows[1:]}
    assert {"u_hat", "h_hat", "grid.k", "alpha.red"} <= keys


def test_audit_rejects_conflicting_sources(runner):
    result = runner.invoke(
        main, ["audit", "--data", "x.csv", "--synthetic", "--score-col", "s",
               "--group-col", "g"]
    )
    assert result.exit_code == 2
    assert "error [invalid-scenario]" in result.output


def test_audit_missing_file_exit_code(runner):
    result = runner.invoke(
        main, ["audit", "--data", "does-not-exist.csv", "--score-col", "s",
               "--group-col", "g"]
    )
    assert result.exit_code == 2
    assert "error [missing-file]" in result.output


# ------------------------------------------------------------------ ingest

def test_ingest_writes_normalized_csv(runner, tmp_path):
    data = tmp_path / "toy.csv"
    data.write_text(BASIC_ROWS, encoding="utf-8")
    out = tmp_path / "norm"
    result = invoke_ok(
        runner,
        ["ingest", "--data", str(data), "--score-col", "score",
         "--group-col", "race", "--out", str(out)],
    )
    payload = json.loads(result.output)
    assert payload == {"groups": {"blue": 2, "green": 1, "red": 2}, "n": 5}
    rows = read_csv(out / "ingested.csv")
    assert rows[0] == ["score", "group"]
    assert rows[1] == ["3", "red"]
    assert len(rows) == 6


# --------------------------------------------------- sketch and federate

def test_sketch_federate_single_silo_equals_audit(runner, tmp_path):
    out = tmp_path / "msgs"
    invoke_ok(
        runner,
        ["sketch", "--synthetic", "2,5,5,2", "--n", "1200", "--seed", "5",
         "--grid-k", "24", "--d", "1", "--out", str(out)],
    )
    files = sorted(os.listdir(out))
    assert files == ["silo1.fqs"]
    fed = json.loads(
        invoke_ok(runner, ["federate", str(out)]).output
    )
    audit = json.loads(
        invoke_ok(
            runner,
            ["audit", "--synthetic", "2,5,5,2", "--n", "1200", "--seed", "5",
             "--grid-k", "24"],
        ).output
    )
    # one silo means the server sees exactly the centralized sketches
    assert fed["g_hat"] == audit["u_hat"]
    assert fed["h_hat"] == audit["h_hat"]
    assert fed["metadata"]["silo_count"] == 1
    assert fed["metadata"]["n_total"] == 1200


def test_sketch_multi_silo_and_emit_json(runner, tmp_path):
    out = tmp_path / "msgs"
    result = invoke_ok(
        runner,
        ["sketch", "--synthetic", "--n", "900", "--seed", "2", "--grid-k", "16",
         "--d", "3", "--emit-json", "--out", str(out)],
    )
    payload = json.loads(result.output)
    assert payload["k"] == 16
    assert sorted(payload["silos"]) == ["silo1", "silo2", "silo3"]
    names = sorted(os.listdir(out))
    assert names == [
        "silo1.fqs", "silo1.json", "silo2.fqs", "silo2.json",
        "silo3.fqs", "silo3.json",
    ]
    # json mirrors decode to the same message as the binary files
    for sid in ("silo1", "silo2", "silo3"):
        with open(out / f"{sid}.fqs", "rb") as fh:
            binary = fqs.decode_message(fh.read())
        with open(out / f"{sid}.json", encoding="utf-8") as fh:
            mirrored = fqs.message_from_json(fh.read())
        assert fqs.encode_message(mirrored) == fqs.encode_message(binary)
    report = json.loads(invoke_ok(runner, ["federate", str(out)]).output)
    assert report["metadata"]["silo_count"] == 3
    counts = payload["silos"]
    assert sum(counts[s]["g0"] for s in counts) == 450


def test_sketch_requires_exactly_one_split(runner, tmp_path):
    result = runner.invoke(
        main, ["sketch", "--synthetic", "--n", "100", "--out", str(tmp_path / "x")]
    )
    assert result.exit_code == 2
    assert "error [invalid-scenario]" in result.output


def sketch_with_allocation(runner, tmp_path, allocation):
    data = tmp_path / "data.csv"
    data.write_text(BASIC_ROWS, encoding="utf-8")
    alloc = tmp_path / "alloc.csv"
    alloc.write_text(allocation, encoding="utf-8")
    return runner.invoke(
        main,
        ["sketch", "--data", str(data), "--score-col", "score", "--group-col", "race",
         "--allocation", str(alloc), "--grid-k", "4", "--out", str(tmp_path / "msgs")],
    )


def test_sketch_rejects_repeated_allocation_row(runner, tmp_path):
    # rows 0..4 are all covered, but row 3 is named twice
    result = sketch_with_allocation(runner, tmp_path, "row,silo\n0,a\n1,a\n2,b\n3,b\n4,a\n3,a\n")
    assert result.exit_code == 2
    assert "error [margin-mismatch]" in result.output
    assert "row id 3 appears 2 times" in result.output
    assert not (tmp_path / "msgs").exists()


@pytest.mark.parametrize("allocation, code, reason", [
    ("row,silo\n0,a\n1,a\n2\n3,b\n4,b\n", "missing-column", "allocation CSV row 4 is short"),
    ("silo,row\na,0\na,1\nb\nb,3\nb,4\n", "missing-column", "allocation CSV row 4 is short"),
    ("row,silo\n0,a\nx,a\n2,b\n3,b\n4,b\n", "invalid-row-id", "allocation CSV row 3: bad row id 'x'"),
    ("row,silo\n0,a\n1,a\n2,b\n3,b\n5,b\n", "margin-mismatch", "allocation CSV row 6: row id 5 is outside 0..4"),
], ids=["short-record", "short-row-id", "bad-row-id", "row-id-out-of-range"])
def test_sketch_rejects_malformed_allocation_record(runner, tmp_path, allocation, code, reason):
    result = sketch_with_allocation(runner, tmp_path, allocation)
    assert result.exit_code == 2
    assert f"error [{code}]: {reason}\n" in result.output
    assert not (tmp_path / "msgs").exists()


@pytest.mark.parametrize("scale", [1e200, 1e300])
def test_p2_overflow_exits_2_and_p1_succeeds(runner, tmp_path, scale):
    gen = np.random.default_rng(4)
    rows = [(x * scale, "a") for x in gen.beta(2, 5, 30)] + [(-x * scale, "b") for x in gen.beta(3, 5, 30)]
    data = tmp_path / "big.csv"
    data.write_text("score,group\n" + "".join(f"{x:.17g},{g}\n" for x, g in rows), encoding="utf-8")
    cols = ["--data", str(data), "--score-col", "score", "--group-col", "group", "--grid-k", "8"]
    invoke_ok(runner, ["sketch"] + cols + ["--d", "2", "--out", str(tmp_path / "msgs")])
    for command in (["audit"] + cols, ["federate", str(tmp_path / "msgs")]):
        result = runner.invoke(main, command + ["--p", "2"])
        assert result.exit_code == 2
        assert "error [score-overflow]: order-2 disparity sums exceed the float64 range; rescale the scores\n" \
            in result.output
        report = json.loads(invoke_ok(runner, command + ["--p", "1"]).output)
        assert report["h_hat"] > 0


def test_federate_rejects_corrupted_file(runner, tmp_path):
    bad = tmp_path / "bad.fqs"
    bad.write_bytes(b"XQS1" + b"\x00" * 20)
    result = runner.invoke(main, ["federate", str(bad)])
    assert result.exit_code == 3
    assert "error [malformed-message]" in result.output
    assert "bad.fqs" in result.output


def test_federate_names_repeated_silo(runner, tmp_path):
    out = tmp_path / "msgs"
    invoke_ok(runner, ["sketch", "--synthetic", "--n", "600", "--d", "2", "--out", str(out)])
    shutil.copy(out / "silo1.fqs", out / "silo1-copy.fqs")
    result = runner.invoke(main, ["federate", str(out)])
    assert result.exit_code == 2
    assert "error [duplicate-silo]" in result.output
    assert "repeated: silo1\n" in result.output


def test_in_process_calls_release_captured_output():
    # each call's redirected stdout must be freed once the call returns
    refs = []
    for _ in range(3):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            main.main(["bounds", "--n", "1000", "--n-min", "50", "--d", "2"], standalone_mode=False)
        assert buf.getvalue().startswith("{")
        refs.append(weakref.ref(buf))
        del buf
    gc.collect()
    assert [r() for r in refs] == [None, None, None]


def test_federate_p1(runner, tmp_path):
    out = tmp_path / "msgs"
    invoke_ok(
        runner,
        ["sketch", "--synthetic", "--n", "600", "--d", "2", "--out", str(out)],
    )
    report = json.loads(invoke_ok(runner, ["federate", str(out), "--p", "1"]).output)
    assert report["p"] == 1
    assert "v1_mix" in report and "v_mix" not in report


# ---------------------------------------------------------------- simulate

def test_simulate_writes_allocation_and_margins(runner, tmp_path):
    out = tmp_path / "sim"
    result = invoke_ok(
        runner,
        ["simulate", "--synthetic", "--n", "400", "--seed", "9",
         "--regime", "positive", "--rho", "0.8", "--d", "4", "--out", str(out)],
    )
    payload = json.loads(result.output)
    assert payload["regime"] == "positive"
    assert payload["d"] == 4
    assert payload["n"] == 400
    assert payload["spearman"] > 0.0
    alloc = read_csv(out / "allocation.csv")
    assert alloc[0] == ["row", "silo"]
    assert [int(r[0]) for r in alloc[1:]] == list(range(400))
    margins = read_csv(out / "margins.csv")
    assert margins[0] == ["silo", "g0", "g1"]
    col_totals = np.array([[int(r[1]), int(r[2])] for r in margins[1:]]).sum(axis=0)
    np.testing.assert_array_equal(col_totals, [200, 200])


def test_simulate_config_file(runner, tmp_path):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(
        "# silo scenario\n"
        "regime = negative\n"
        "rho = 0.7\n"
        "d = 3   # three silos\n"
        "seed = 21\n",
        encoding="utf-8",
    )
    out = tmp_path / "sim"
    result = invoke_ok(
        runner,
        ["simulate", "--synthetic", "--n", "300", "--config", str(cfg),
         "--out", str(out)],
    )
    payload = json.loads(result.output)
    assert payload["regime"] == "negative"
    assert payload["rho"] == 0.7
    assert payload["d"] == 3
    assert payload["seed"] == 21


def test_simulate_margins_csv_roundtrip(runner, tmp_path):
    # margins written by one simulate run feed the next one exactly
    first = tmp_path / "first"
    invoke_ok(
        runner,
        ["simulate", "--synthetic", "--n", "200", "--seed", "1", "--d", "2",
         "--regime", "random", "--out", str(first)],
    )
    second = tmp_path / "second"
    invoke_ok(
        runner,
        ["simulate", "--synthetic", "--n", "200", "--seed", "2",
         "--regime", "positive", "--rho", "0.9",
         "--margins", str(first / "margins.csv"), "--out", str(second)],
    )
    assert read_csv(first / "margins.csv") == read_csv(second / "margins.csv")


def test_simulate_rejects_non_integer_margin(runner, tmp_path):
    margins = tmp_path / "m.csv"
    margins.write_text("silo,g0,g1\n1,1,x\n", encoding="utf-8")
    result = runner.invoke(
        main,
        ["simulate", "--synthetic", "--n", "100", "--regime", "positive",
         "--margins", str(margins), "--out", str(tmp_path / "sim")],
    )
    assert result.exit_code == 2
    reason = "margins CSV row 2: group 'g1' count 'x' is not an integer"
    assert f"error [margin-mismatch]: {reason}\n" in result.output


def test_simulate_allocation_feeds_sketch(runner, tmp_path):
    sim = tmp_path / "sim"
    invoke_ok(
        runner,
        ["simulate", "--synthetic", "--n", "300", "--seed", "4", "--d", "3",
         "--regime", "positive", "--rho", "0.5", "--out", str(sim)],
    )
    msgs = tmp_path / "msgs"
    invoke_ok(
        runner,
        ["sketch", "--synthetic", "--n", "300", "--seed", "4", "--grid-k", "12",
         "--allocation", str(sim / "allocation.csv"), "--out", str(msgs)],
    )
    report = json.loads(invoke_ok(runner, ["federate", str(msgs)]).output)
    assert report["metadata"]["n_total"] == 300
    assert report["metadata"]["silo_count"] == 3


def test_simulate_unknown_regime_from_config(runner, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("regime = sideways\nrho = 0.5\n", encoding="utf-8")
    result = runner.invoke(
        main,
        ["simulate", "--synthetic", "--n", "100", "--config", str(cfg),
         "--out", str(tmp_path / "x")],
    )
    assert result.exit_code == 2
    assert "error [unknown-regime]" in result.output


def test_parse_scenario_config_rejects_bad_lines():
    with pytest.raises(fqs.ValidationError) as e:
        parse_scenario_config("regime positive\n")
    assert e.value.code == "invalid-scenario"
    assert parse_scenario_config("A = b\n # c\n\nd= e#f\n") == {"a": "b", "d": "e"}


# ------------------------------------------------------------------ bounds

def test_bounds_values(runner):
    result = invoke_ok(
        runner,
        ["bounds", "--n", "5000", "--n-min", "1000", "--grid-k", "50",
         "--d", "5", "--groups", "2", "--delta", "0.05"],
    )
    payload = json.loads(result.output)
    assert payload["dkw_bound"] == pytest.approx(0.019206, abs=1e-6)
    assert payload["hp_quantile_bound"] == pytest.approx(0.07044, abs=1e-4)
    assert payload["communication_budget"] == 5 * 2 * 51
    assert payload["inputs"]["n_group_min"] == 1000  # defaults to n-min
    assert payload["g2_error_scale_non_rigorous"] > 0


def test_bounds_csv_output(runner, tmp_path):
    out = tmp_path / "b"
    invoke_ok(
        runner,
        ["bounds", "--n", "1000", "--n-min", "200", "--d", "2",
         "--out", str(out), "--format", "csv"],
    )
    rows = read_csv(out / "bounds.csv")
    keys = {r[0] for r in rows[1:]}
    assert {"dkw_bound", "hp_quantile_bound", "weight_bounds.alpha_bound",
            "inputs.k"} <= keys


def test_bounds_rejects_bad_delta(runner):
    result = runner.invoke(
        main, ["bounds", "--n", "100", "--n-min", "50", "--d", "2",
               "--delta", "1.5"]
    )
    assert result.exit_code == 2
    assert "error [delta-out-of-range]" in result.output


# ------------------------------------------------------------------- sweep

def test_sweep_writes_three_tables(runner, tmp_path):
    out = tmp_path / "sweep"
    result = invoke_ok(
        runner,
        ["sweep", "--synthetic", "--n", "300", "--seed", "13",
         "--ks", "4,8", "--ds", "2", "--regimes", "random,positive",
         "--rho", "0.5", "--reps", "3", "--fine-k", "201", "--out", str(out)],
    )
    payload = json.loads(result.output)
    assert payload["configurations"] == 4
    summary = read_csv(out / "sweep_summary.csv")
    reps = read_csv(out / "sweep_replications.csv")
    k95 = read_csv(out / "k95.csv")
    assert summary[0][0] == "regime"
    assert len(summary) == 1 + 4
    assert len(reps) == 1 + 4 * 3
    assert len(k95) == 1 + 2
    assert payload["u2_reference"] > 0


def test_sweep_rejects_bad_k_list(runner, tmp_path):
    result = runner.invoke(
        main,
        ["sweep", "--synthetic", "--n", "100", "--ks", "4,x",
         "--out", str(tmp_path / "s")],
    )
    assert result.exit_code == 2
    assert "error [invalid-scenario]" in result.output
