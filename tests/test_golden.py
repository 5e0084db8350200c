"""Output bytes pinned by sha256 digest.

The digests were recorded before group labels became integer codes, with
Python 3.11, numpy 2.4 and scipy 1.17; those of ``sketch --data
--allocation`` were recorded before the CSV readers became one streaming
``csv.reader`` loop.  A refactor of ingestion, allocation or the per-cell
split must leave every byte of these outputs unchanged.
"""

import hashlib
import os

import pytest
from click.testing import CliRunner

from fqs.cli import main

GOLDEN = {
    "sweep": (
        ["sweep", "--synthetic", "--n", "2000", "--ks", "4,8", "--ds", "3",
         "--regimes", "random,positive,negative", "--reps", "2"],
        {
            "k95.csv": "292d5aec1ce472df41470c2b4d2b07d729679625ad6e048ff1d1716b81110473",
            "sweep_replications.csv": "51ff17d39ea6b8c909a902b1f7feb82eb0a0d0847b8e618ebcf8d1e36108ae21",
            "sweep_summary.csv": "ad7fc67fe668faeee344d085ca6b65bbb96157063792628a3ffd118a21e034ec",
        },
    ),
    "sketch": (
        ["sketch", "--synthetic", "--n", "2000", "--d", "4", "--grid-k", "16"],
        {
            "silo1.fqs": "03a8b331334374444dfa969fbb4ab65c82949f9f36b279ec09dedc196e77c58c",
            "silo2.fqs": "3433818372c66ed2abc5909356ccbce2ce6637e48f7a67ffcc4b538894808eff",
            "silo3.fqs": "4c060b93039d66b0b10ec2508dfcbcd279e4b6009d3685bdcd662e94fc369a7d",
            "silo4.fqs": "18751913781f1a752b58728989fb59f76698db980ef777ff16d10e955467827b",
        },
    ),
    "simulate": (
        ["simulate", "--synthetic", "--regime", "negative"],
        {
            "allocation.csv": "926cebfcbc98b71cefaa00ccfa681cc7d23607d625c38ea39be580de52e47719",
            "margins.csv": "96de6ecd15113380239d1abc452d9a7752a901920023478da9e8cf13bf1a27a2",
        },
    ),
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_output_files_match_recorded_digests(command, tmp_path):
    args, digests = GOLDEN[command]
    result = CliRunner().invoke(main, args + ["--out", str(tmp_path)], catch_exceptions=False)
    assert result.exit_code == 0, result.output
    got = {}
    for name in sorted(os.listdir(tmp_path)):
        with open(tmp_path / name, "rb") as fh:
            got[name] = hashlib.sha256(fh.read()).hexdigest()
    assert got == digests


# Sketch from CSV files: group labels and silo ids out of sorted order, an
# extra column, and allocation records in shuffled row order.
CSV_SKETCH_DIGESTS = {
    "s1.fqs": "24dc2f7b15e58a5fd1febf330dd6180f5befc770cc7daaceba9f1f4f668ccf44",
    "s1.json": "7845eeabc7995d89e5ff05bfd02a2a380fe7d561160890e46ec3928d28ae37a0",
    "s10.fqs": "c4dca41fee2dd9e84e8603ca219bdd73304654a7f59e6840aa8ab964f9d4aa0b",
    "s10.json": "daedf94e7bbcb9f47fb78c089f89bce6bbe0ba7a4636b01023e5e5bb3c5c8245",
    "s2.fqs": "43003dbdff182651a9cd31d5427556f8c0877d3f46247b994468bc8ec9d8aa6e",
    "s2.json": "b986f2d96bc51a89ce943c05c43c96f458382559ea879f8f52345e7d47a27473",
    "t.fqs": "c5b91e00fffc988faa636f404f6a4beb7e8599bd069ac5fbcd6d85565cab98d7",
    "t.json": "0c5d6a79d2a3667e505e32df1c7c29f7b6b330b69277a22e37bb06a3f06aec73",
}


def write_csv_inputs(folder):
    n = 601
    groups = ("red", "blue", "green")
    silos = ("s10", "s2", "s1", "t")
    with open(folder / "rows.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("id,group,score\n")
        for i in range(n):
            score = ((i * 2654435761) % 2**32) / 2**32 + (i % 3) * 0.25
            fh.write(f"{i},{groups[(i * i + i // 5) % 3]},{score!r}\n")
    with open(folder / "alloc.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("row,silo\n")
        for j in range(n):
            i = (j * 37) % n
            fh.write(f"{i},{silos[(5 * i + i // 7) % 4]}\n")


def test_sketch_from_csv_matches_recorded_digests(tmp_path):
    inputs = tmp_path / "in"
    inputs.mkdir()
    write_csv_inputs(inputs)
    out = tmp_path / "out"
    args = ["sketch", "--data", str(inputs / "rows.csv"), "--score-col", "score",
            "--group-col", "group", "--allocation", str(inputs / "alloc.csv"),
            "--grid-k", "16", "--emit-json", "--out", str(out)]
    result = CliRunner().invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    got = {}
    for name in sorted(os.listdir(out)):
        with open(out / name, "rb") as fh:
            got[name] = hashlib.sha256(fh.read()).hexdigest()
    assert got == CSV_SKETCH_DIGESTS
