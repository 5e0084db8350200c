"""The scripts under scripts/ run against the installed package."""

import importlib.util
import json
import os

from click.testing import CliRunner

from fqs.cli import main

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compas_tables_imports():
    assert callable(load_script("compas_tables").federated_rows)


def test_synthetic_sweep_matches_cli_sweep(tmp_path, capsys):
    settings = ["--n", "400", "--seed", "3", "--ks", "4,8", "--ds", "3",
                "--regimes", "random,positive,negative", "--reps", "2", "--fine-k", "501"]
    load_script("synthetic_sweep").main(settings + ["--shapes", "2,5,5,2", "--out", str(tmp_path / "script")])
    capsys.readouterr()
    result = CliRunner().invoke(main, ["sweep", "--synthetic", "2,5,5,2"] + settings
                                + ["--out", str(tmp_path / "cli")], catch_exceptions=False)
    assert result.exit_code == 0, result.output
    for name in ("sweep_summary.csv", "sweep_replications.csv", "k95.csv"):
        assert (tmp_path / "script" / name).read_bytes() == (tmp_path / "cli" / name).read_bytes()


def test_bench_server_audit_prints_one_json_line(capsys):
    load_script("bench_server_audit").main(["--shapes", "3,2,4;2,3,1", "--repeats", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert [(r["d"], r["groups"], r["k"]) for r in record["shapes"]] == [(3, 2, 4), (2, 3, 1)]
    for row in record["shapes"]:
        for key in ("server_audit_p2_s", "server_audit_p1_s", "decode_all_s"):
            assert row[key] > 0
