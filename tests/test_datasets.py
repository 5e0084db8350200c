"""CSV ingestion: filtering, jitter, path resolution, error reporting."""

import os

import numpy as np
import pytest

import fqs
from fqs import DatasetSpec, ValidationError, load_dataset, resolve_data_path
from fqs.rng import substream

BASIC_ROWS = (
    "score,race,age\n"
    "3,red,20\n"
    "7,blue,30\n"
    "5,red,40\n"
    "1,green,50\n"
    "9,blue,60\n"
)


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_load_basic(tmp_path):
    path = write(tmp_path, BASIC_ROWS)
    data = load_dataset(DatasetSpec(path, "score", "race"))
    np.testing.assert_array_equal(data.scores, [3.0, 7.0, 5.0, 1.0, 9.0])
    assert data.sample.labels == ("blue", "green", "red")
    np.testing.assert_array_equal(data.codes, [2, 0, 2, 1, 0])
    np.testing.assert_array_equal(np.sort(data.sample.groups["red"]), [3.0, 5.0])


def test_group_whitelist_filters_rows(tmp_path):
    path = write(tmp_path, BASIC_ROWS)
    data = load_dataset(DatasetSpec(path, "score", "race", groups=("red", "blue")))
    assert data.sample.labels == ("blue", "red")
    np.testing.assert_array_equal(data.codes, [1, 0, 1, 0])
    assert data.sample.total == 4


def test_jitter_subtracts_uniform_in_filtered_row_order(tmp_path):
    path = write(tmp_path, BASIC_ROWS)
    spec = DatasetSpec(path, "score", "race", groups=("red", "blue"),
                       jitter=True, seed=77)
    data = load_dataset(spec)
    raw = np.array([3.0, 7.0, 5.0, 9.0])
    expected = raw - substream(77, "jitter").random(4)
    np.testing.assert_array_equal(data.scores, expected)
    # deterministic: a second load gives byte-identical scores
    again = load_dataset(spec)
    assert again.scores.tobytes() == data.scores.tobytes()


def test_jitter_seed_changes_output(tmp_path):
    path = write(tmp_path, BASIC_ROWS)
    one = load_dataset(DatasetSpec(path, "score", "race", jitter=True, seed=1))
    two = load_dataset(DatasetSpec(path, "score", "race", jitter=True, seed=2))
    assert not np.array_equal(one.scores, two.scores)


def test_utf8_sig_header_accepted(tmp_path):
    path = write(tmp_path, "﻿" + BASIC_ROWS)
    data = load_dataset(DatasetSpec(path, "score", "race"))
    assert data.sample.total == 5


def test_missing_file(tmp_path):
    with pytest.raises(ValidationError) as e:
        load_dataset(DatasetSpec(str(tmp_path / "nope.csv"), "score", "race"))
    assert e.value.code == "missing-file"


def test_data_dir_fallback(tmp_path, monkeypatch):
    write(tmp_path, BASIC_ROWS, name="corpus.csv")
    monkeypatch.setenv("FQS_DATA_DIR", str(tmp_path))
    assert resolve_data_path("corpus.csv") == str(tmp_path / "corpus.csv")
    data = load_dataset(DatasetSpec("corpus.csv", "score", "race"))
    assert data.sample.total == 5
    monkeypatch.delenv("FQS_DATA_DIR")
    with pytest.raises(ValidationError):
        resolve_data_path("corpus.csv")


def test_missing_column(tmp_path):
    path = write(tmp_path, BASIC_ROWS)
    with pytest.raises(ValidationError) as e:
        load_dataset(DatasetSpec(path, "points", "race"))
    assert e.value.code == "missing-column"
    with pytest.raises(ValidationError) as e:
        load_dataset(DatasetSpec(path, "score", "tribe"))
    assert e.value.code == "missing-column"


def test_non_numeric_score(tmp_path):
    path = write(tmp_path, "score,race\nhigh,red\n2,blue\n")
    with pytest.raises(ValidationError) as e:
        load_dataset(DatasetSpec(path, "score", "race"))
    assert e.value.code == "non-numeric-score"


def test_non_finite_score(tmp_path):
    path = write(tmp_path, "score,race\nnan,red\n2,blue\n")
    with pytest.raises(ValidationError) as e:
        load_dataset(DatasetSpec(path, "score", "race"))
    assert e.value.code == "non-numeric-score"


def test_no_rows_after_filter(tmp_path):
    path = write(tmp_path, BASIC_ROWS)
    with pytest.raises(ValidationError) as e:
        load_dataset(DatasetSpec(path, "score", "race", groups=("purple",)))
    assert e.value.code == "no-rows"


def test_whitelisted_group_absent(tmp_path):
    path = write(tmp_path, BASIC_ROWS)
    with pytest.raises(ValidationError) as e:
        load_dataset(DatasetSpec(path, "score", "race", groups=("red", "purple")))
    assert e.value.code == "missing-group"


def test_filtered_order_not_group_order(tmp_path):
    # jitter draws attach to rows in file order after filtering, so two
    # whitelists that keep the same rows give identical jittered scores
    path = write(tmp_path, BASIC_ROWS)
    a = load_dataset(DatasetSpec(path, "score", "race",
                                 groups=("red", "blue"), jitter=True, seed=5))
    b = load_dataset(DatasetSpec(path, "score", "race",
                                 groups=("blue", "red"), jitter=True, seed=5))
    assert a.scores.tobytes() == b.scores.tobytes()
