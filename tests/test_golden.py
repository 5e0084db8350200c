"""Output bytes pinned by sha256 digest.

The digests were recorded before group labels became integer codes, with
Python 3.11, numpy 2.4 and scipy 1.17.  A refactor of ingestion,
allocation or the per-cell split must leave every byte of these outputs
unchanged.
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
