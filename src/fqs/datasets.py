"""CSV ingestion into grouped score samples.

A dataset is any CSV with one row per individual, a numeric score column
and a categorical group column.  Ingestion filters rows to a group
whitelist, optionally dejitters integer-valued scores by subtracting a
seeded Uniform(0,1) draw per row (in filtered row order), and returns the
grouped sample plus the row-level arrays needed for allocation.
:func:`synthetic_population` builds the same view from two Beta laws.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from typing import List, Tuple

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


def load_dataset(spec: DatasetSpec) -> IngestedData:
    path = resolve_data_path(spec.path)
    whitelist = tuple(str(g) for g in spec.groups)
    scores: List[float] = []
    labels: List[str] = []
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for col in (spec.score_column, spec.group_column):
            if col not in header:
                raise ValidationError("missing-column", f"column {col!r} not in {sorted(header)}")
        for lineno, row in enumerate(reader, start=2):
            group = row[spec.group_column]
            if group is None:
                raise ValidationError("missing-column", f"row {lineno} is short")
            if whitelist and group not in whitelist:
                continue
            raw = row[spec.score_column]
            try:
                score = float(raw)
            except (TypeError, ValueError):
                raise ValidationError(
                    "non-numeric-score", f"row {lineno}: cannot parse score {raw!r}"
                ) from None
            if not np.isfinite(score):
                raise ValidationError("non-numeric-score", f"row {lineno}: score {raw!r} is not finite")
            scores.append(score)
            labels.append(group)
    if not scores:
        raise ValidationError("no-rows", "no rows survived the group filter")
    groups, codes = np.unique(np.asarray(labels), return_inverse=True)
    groups = groups.tolist()
    for g in whitelist:
        if g not in groups:
            raise ValidationError("missing-group", f"whitelisted group {g!r} has no rows")
    arr = np.asarray(scores, dtype=np.float64)
    if spec.jitter:
        arr = arr - substream(spec.seed, "jitter").random(arr.size)
    by_group = {lab: arr[codes == c] for c, lab in enumerate(groups)}
    return IngestedData(scores=arr, codes=codes, sample=GroupedSample(groups=by_group))


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
