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


# Each bad record sits at row 4: records are numbered from 2 over the
# non-blank records, the header being record 1.
@pytest.mark.parametrize("bad, code, reason", [
    ("4", "missing-column", "row 4 is short"),
    ("4,blue", "non-numeric-score", "row 4: cannot parse score None"),
    ("4,blue,high", "non-numeric-score", "row 4: cannot parse score 'high'"),
    ("4,blue,", "non-numeric-score", "row 4: cannot parse score ''"),
    ("4,blue,inf", "non-numeric-score", "row 4: score 'inf' is not finite"),
    ("4,blue,-inf", "non-numeric-score", "row 4: score '-inf' is not finite"),
    ("4,blue,nan", "non-numeric-score", "row 4: score 'nan' is not finite"),
], ids=["short", "short-score", "unparsable", "empty", "inf", "minus-inf", "nan"])
def test_bad_record_error_names_its_row(tmp_path, bad, code, reason):
    path = write(tmp_path, f"id,race,score\n1,red,3\n\n2,blue,5\n{bad}\n5,red,1\n")
    with pytest.raises(ValidationError) as e:
        load_dataset(DatasetSpec(path, "score", "race"))
    assert (e.value.code, e.value.message) == (code, reason)


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


def test_bad_score_in_filtered_out_row_is_skipped(tmp_path):
    path = write(tmp_path, "score,race\n3,red\nhigh,green\nnan,green\n7,blue\n")
    data = load_dataset(DatasetSpec(path, "score", "race", groups=("red", "blue")))
    np.testing.assert_array_equal(data.scores, [3.0, 7.0])
    with pytest.raises(ValidationError) as e:
        load_dataset(DatasetSpec(path, "score", "race"))
    assert (e.value.code, e.value.message) == ("non-numeric-score", "row 3: cannot parse score 'high'")


def test_quoted_fields_and_blank_lines(tmp_path):
    # a quoted field may hold the delimiter and line breaks; blank lines
    # are skipped and do not count as records
    text = (
        'score,race,note\n'
        '\n'
        '3,"red","a, b"\n'
        '"7",blue,"two\nlines"\n'
        '\n'
        '\n'
        '5,"red, dark",x\n'
        '"1e-3",blue,\n'
        'oops,red,\n'
    )
    path = write(tmp_path, text)
    with pytest.raises(ValidationError) as e:
        load_dataset(DatasetSpec(path, "score", "race"))
    assert e.value.message == "row 6: cannot parse score 'oops'"
    path = write(tmp_path, text[: text.index("oops")])
    data = load_dataset(DatasetSpec(path, "score", "race"))
    np.testing.assert_array_equal(data.scores, [3.0, 7.0, 5.0, 1e-3])
    assert data.sample.labels == ("blue", "red", "red, dark")
    np.testing.assert_array_equal(data.codes, [1, 0, 2, 0])


def test_repeated_header_reads_last_column(tmp_path):
    path = write(tmp_path, "score,race,score\n1,red,5\n2,blue,6\n")
    data = load_dataset(DatasetSpec(path, "score", "race"))
    np.testing.assert_array_equal(data.scores, [5.0, 6.0])
    # a record too short to reach the last 'score' column has no score
    path = write(tmp_path, "score,race,score\n1,red,5\n2,blue\n")
    with pytest.raises(ValidationError) as e:
        load_dataset(DatasetSpec(path, "score", "race"))
    assert (e.value.code, e.value.message) == ("non-numeric-score", "row 3: cannot parse score None")


def test_codes_match_unique_inverse(tmp_path):
    gen = np.random.default_rng(11)
    names = np.array(["zeta", "alpha", "mu", "beta10", "beta2", "Beta", "b"])
    labels = names[gen.integers(0, names.size, size=300)]
    rows = "".join(f"{i},{lab}\n" for i, lab in enumerate(labels.tolist()))
    data = load_dataset(DatasetSpec(write(tmp_path, "score,race\n" + rows), "score", "race"))
    groups, codes = np.unique(labels, return_inverse=True)
    assert data.sample.labels == tuple(groups.tolist())
    assert data.codes.dtype == codes.dtype
    np.testing.assert_array_equal(data.codes, codes)
