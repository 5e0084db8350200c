"""CSV ingestion into grouped score samples.

A dataset is any CSV with one row per individual, a numeric score column
and a categorical group column.  Ingestion filters rows to a group
whitelist, optionally dejitters integer-valued scores by subtracting a
seeded Uniform(0,1) draw per row (in filtered row order), and returns the
grouped sample plus the row-level arrays needed for allocation.
:func:`synthetic_population` builds the same view from two Beta laws.
Every CSV the package reads (data, allocation and margins files) goes
through ``_csv_records``, one streaming ``csv.reader`` loop.
"""

from __future__ import annotations

import csv
import math
import operator
import os
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from .central import GroupedSample
from .errors import ValidationError
from .rng import substream
from .scenario import sample_beta

__all__ = ["DatasetSpec", "IngestedData", "load_dataset", "resolve_data_path", "synthetic_population"]

DATA_DIR_ENV = "FQS_DATA_DIR"


@dataclass(frozen=True)
class DatasetSpec:
    """Where the rows live and how to read them."""

    path: str
    score_column: str
    group_column: str
    groups: Tuple[str, ...] = ()
    jitter: bool = False
    seed: int = 0


@dataclass(frozen=True, eq=False)
class IngestedData:
    """Filtered rows in file order, plus the grouped view; row i belongs to
    group ``sample.labels[codes[i]]``."""

    scores: np.ndarray
    codes: np.ndarray
    sample: GroupedSample


def resolve_data_path(path: str) -> str:
    """The path itself if it exists, else a lookup under $FQS_DATA_DIR."""
    if os.path.exists(path):
        return path
    base = os.environ.get(DATA_DIR_ENV)
    if base:
        candidate = os.path.join(base, path)
        if os.path.exists(candidate):
            return candidate
    raise ValidationError("missing-file", f"no such file: {path!r} (also tried ${DATA_DIR_ENV})")


def _csv_records(path: str, columns: Sequence[str], what: str) -> Iterator[Tuple[int, tuple]]:
    """Yield ``(lineno, fields)`` for each non-blank record of a CSV file,
    ``fields`` holding the named columns' values in the order asked.

    The rules are those of ``csv.DictReader``: the first record is the
    header, blank lines are skipped, records are numbered from 2 over the
    non-blank ones, a repeated header name reads its last column, and a
    field past the end of a short record reads ``None``.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        position = {name: i for i, name in enumerate(header)}
        for col in columns:
            if col not in position:
                raise ValidationError("missing-column", f"{what} has no column {col!r} (header: {header})")
        index = [position[col] for col in columns]
        width = max(index) + 1
        # itemgetter of a single index returns the bare field, not a 1-tuple
        pick = operator.itemgetter(*index) if len(index) > 1 else (lambda rec, i=index[0]: (rec[i],))
        for lineno, rec in enumerate(filter(None, reader), start=2):
            if len(rec) < width:
                rec = rec + [None] * (width - len(rec))
            yield lineno, pick(rec)


def _sorted_codes(labels: Sequence[str], codes) -> Tuple[np.ndarray, np.ndarray]:
    """Re-code indices into ``labels`` as indices into its sorted distinct
    values: the codes ``np.unique`` returns for the full label column."""
    uniq, remap = np.unique(np.asarray(labels), return_inverse=True)
    return uniq, remap[np.asarray(codes, dtype=np.int64)]


def load_dataset(spec: DatasetSpec) -> IngestedData:
    path = resolve_data_path(spec.path)
    whitelist = tuple(str(g) for g in spec.groups)
    scores: List[float] = []
    codes: List[int] = []
    first_seen: Dict[str, int] = {}
    for lineno, (raw, group) in _csv_records(path, (spec.score_column, spec.group_column), "data CSV"):
        if group is None:
            raise ValidationError("missing-column", f"row {lineno} is short")
        if whitelist and group not in whitelist:
            continue
        try:
            score = float(raw)
        except (TypeError, ValueError):
            raise ValidationError(
                "non-numeric-score", f"row {lineno}: cannot parse score {raw!r}"
            ) from None
        if not math.isfinite(score):
            raise ValidationError("non-numeric-score", f"row {lineno}: score {raw!r} is not finite")
        scores.append(score)
        codes.append(first_seen.setdefault(group, len(first_seen)))
    if not scores:
        raise ValidationError("no-rows", "no rows survived the group filter")
    for g in whitelist:
        if g not in first_seen:
            raise ValidationError("missing-group", f"whitelisted group {g!r} has no rows")
    groups, code_arr = _sorted_codes(list(first_seen), codes)
    arr = np.asarray(scores, dtype=np.float64)
    if spec.jitter:
        arr = arr - substream(spec.seed, "jitter").random(arr.size)
    by_group = {lab: arr[code_arr == c] for c, lab in enumerate(groups.tolist())}
    return IngestedData(scores=arr, codes=code_arr, sample=GroupedSample(groups=by_group))


def synthetic_population(a0: float, b0: float, a1: float, b1: float, n: int, seed: int) -> IngestedData:
    """Two Beta groups, g0 ~ Beta(a0, b0) with n // 2 rows followed by
    g1 ~ Beta(a1, b1) with the rest."""
    if n < 2:
        raise ValidationError("invalid-scenario", f"n must be at least 2, got {n}")
    n0 = n // 2
    s0 = sample_beta(a0, b0, n0, seed, stream="synthetic-g0")
    s1 = sample_beta(a1, b1, n - n0, seed, stream="synthetic-g1")
    return IngestedData(
        scores=np.concatenate([s0, s1]),
        codes=np.repeat([0, 1], [n0, n - n0]),
        sample=GroupedSample(groups={"g0": s0, "g1": s1}),
    )
