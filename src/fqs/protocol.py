"""One-round federated audit: per-silo summaries in, disparity report out.

Each silo sends one message holding a quantile sketch and a count per
locally present group.  The server reconstructs, per group, the mixture of
the silo step distributions weighted by the group's silo shares, reads the
mixture quantiles on the common grid, and aggregates exactly as the
centralized functionals would.  Nothing else ever leaves a silo.

For p = 2 the report also splits the disparity into a within-group
mixture-vs-barycenter part (``v_mix``), a between-group barycenter part
(``v_bar``) and a cross term (``r``); the three add up to ``g_hat``
identically.  For p = 1 the report carries the two one-sided terms whose
difference and sum bracket ``g_hat``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .distances import _overflow_guard, barycenter_quantiles, cdf_disparity, power_dispersion, transport_disparity
from .errors import ValidationError
from .sketch import GridSpec, QuantileSketch, build_sketch, mix_step_cdfs

__all__ = [
    "SiloMessage",
    "AuditWeights",
    "AuditReport",
    "client_summarize",
    "server_audit",
    "report_to_dict",
]


@dataclass(frozen=True, eq=False)
class SiloMessage:
    """Everything one silo releases: a sketch and count per local group."""

    silo_id: str
    grid: GridSpec
    entries: Mapping[str, QuantileSketch]

    def __post_init__(self):
        if not isinstance(self.silo_id, str) or not self.silo_id:
            raise ValidationError("invalid-sketch", "silo_id must be a nonempty string")
        if not self.entries:
            raise ValidationError("empty-silo", f"silo {self.silo_id!r} has no groups")
        clean: Dict[str, QuantileSketch] = {}
        for label in sorted(self.entries):
            sk = self.entries[label]
            if not isinstance(label, str) or not label:
                raise ValidationError("invalid-sketch", "group labels must be nonempty strings")
            if sk.grid != self.grid:
                raise ValidationError("grid-mismatch", f"entry {label!r} disagrees with the message grid")
            clean[str(label)] = sk
        object.__setattr__(self, "entries", clean)


@dataclass(frozen=True)
class AuditWeights:
    """Empirical shares: alpha per group, pi per (group, silo), beta per silo."""

    alpha: Dict[str, float]
    pi: Dict[str, Dict[str, float]]
    beta: Dict[str, float]


@dataclass(frozen=True, eq=False)
class AuditReport:
    """Output of :func:`server_audit`; power-unit functionals plus the
    decomposition terms for the requested order p."""

    p: int
    grid: GridSpec
    g_hat: float
    h_hat: float
    v_mix: Optional[float]
    v_bar: Optional[float]
    r: Optional[float]
    v1_mix: Optional[float]
    v1_bar: Optional[float]
    weights: AuditWeights
    mixture_quantiles: Dict[str, np.ndarray]
    barycenter_quantiles: np.ndarray
    metadata: Dict[str, object]

    def identity_residuals(self) -> Dict[str, float]:
        """Signed residuals of the analysis-of-variance identity and its
        bounds (p = 2) or of the sandwich bounds (p = 1); nonpositive
        bound residuals mean the bound holds."""
        out: Dict[str, float] = {}
        if self.p == 2:
            out["anova"] = self.g_hat - (self.v_mix + self.v_bar + self.r)
            out["cross-term"] = abs(self.r) - 2.0 * (self.v_mix * self.v_bar) ** 0.5
            root_gap = self.v_mix**0.5 - self.v_bar**0.5
            out["lower"] = root_gap * root_gap - self.g_hat
            root_sum = self.v_mix**0.5 + self.v_bar**0.5
            out["upper"] = self.g_hat - root_sum * root_sum
        else:
            out["lower"] = abs(self.v1_bar - self.v1_mix) - self.g_hat
            out["upper"] = self.g_hat - (self.v1_bar + self.v1_mix)
        return out


def client_summarize(silo_id: str, scores_by_group: Mapping[str, object], grid: GridSpec) -> SiloMessage:
    """Sketch every locally nonempty group of one silo's raw scores."""
    entries: Dict[str, QuantileSketch] = {}
    for label in sorted(scores_by_group):
        arr = np.asarray(scores_by_group[label], dtype=np.float64)
        if arr.size == 0:
            continue
        entries[str(label)] = build_sketch(arr, grid)
    if not entries:
        raise ValidationError("empty-silo", f"silo {silo_id!r} has no scores in any group")
    return SiloMessage(silo_id=silo_id, grid=grid, entries=entries)


def _collect(messages: Sequence[SiloMessage]) -> Tuple[GridSpec, List[SiloMessage], List[str]]:
    if not messages:
        raise ValidationError("no-messages", "need at least one silo message")
    ordered = sorted(messages, key=lambda m: m.silo_id)
    repeated = sorted(sid for sid, n in Counter(m.silo_id for m in ordered).items() if n > 1)
    if repeated:
        raise ValidationError("duplicate-silo", f"silo ids must be unique; repeated: {', '.join(repeated)}")
    grid = ordered[0].grid
    for m in ordered[1:]:
        if m.grid != grid:
            raise ValidationError("grid-mismatch", f"silo {m.silo_id!r} uses a different grid")
    labels = sorted({label for m in ordered for label in m.entries})
    if len(labels) < 2:
        raise ValidationError("too-few-groups", "the union of groups must have at least two members")
    return grid, ordered, labels


def server_audit(messages: Sequence[SiloMessage], p) -> AuditReport:
    """Aggregate silo messages into the population disparity report."""
    if p not in (1, 2):
        raise ValidationError("unsupported-p", f"p must be 1 or 2, got {p!r}")
    p = int(p)
    grid, ordered, labels = _collect(messages)
    k = grid.k

    counts: Dict[str, Dict[str, int]] = {s: {} for s in labels}
    for m in ordered:
        for label, sk in m.entries.items():
            counts[label][m.silo_id] = sk.count
    group_totals = {s: sum(counts[s].values()) for s in labels}
    n_total = sum(group_totals.values())
    alpha = {s: group_totals[s] / n_total for s in labels}
    pi = {s: {j: counts[s][j] / group_totals[s] for j in sorted(counts[s])} for s in labels}
    silo_totals = {m.silo_id: sum(sk.count for sk in m.entries.values()) for m in ordered}
    beta = {j: silo_totals[j] / n_total for j in sorted(silo_totals)}

    by_id = {m.silo_id: m for m in ordered}
    alpha_vec = np.array([alpha[s] for s in labels])
    levels = grid.levels()
    mixture_rows = np.empty((len(labels), k), dtype=np.float64)
    within_center = np.empty((len(labels), k), dtype=np.float64)
    group_cdfs = []
    with _overflow_guard(p):
        for i, s in enumerate(labels):
            silos = sorted(counts[s])
            stacked = np.vstack([by_id[j].entries[s].values for j in silos])
            # each silo's k values weigh its count; ties across silos merge
            weights = np.repeat(np.array([counts[s][j] for j in silos], dtype=np.float64), k)
            mixed = mix_step_cdfs(stacked.ravel(), weights)
            group_cdfs.append(mixed)
            mixture_rows[i] = mixed.quantiles(levels)
            within_center[i] = barycenter_quantiles(stacked, [pi[s][j] for j in silos], p)

        center, g_hat = transport_disparity(mixture_rows, alpha_vec, p)
        h_hat = cdf_disparity(group_cdfs, alpha_vec, p)
        v_mix = v_bar = r = v1_mix = v1_bar = None
        mix_part = power_dispersion(mixture_rows, alpha_vec, within_center, p)
        bar_part = power_dispersion(within_center, alpha_vec, center, p)
        if p == 2:
            v_mix, v_bar = mix_part, bar_part
            cross = (mixture_rows - within_center) * (within_center - center)
            # ldexp doubles exactly and, unlike 2.0 * x, raises on overflow
            r = math.ldexp(math.fsum(alpha_vec[i] * (math.fsum(cross[i]) / k) for i in range(len(labels))), 1)
        else:
            v1_mix, v1_bar = mix_part, bar_part

    degenerate = [
        [m.silo_id, label] for m in ordered for label, sk in m.entries.items() if sk.count == 1
    ]
    metadata = {
        "silo_count": len(ordered),
        "n_total": n_total,
        "n_min": min(sk.count for m in ordered for sk in m.entries.values()),
        "group_counts": dict(group_totals),
        "degenerate_cells": degenerate,
    }
    return AuditReport(
        p=p,
        grid=grid,
        g_hat=g_hat,
        h_hat=h_hat,
        v_mix=v_mix,
        v_bar=v_bar,
        r=r,
        v1_mix=v1_mix,
        v1_bar=v1_bar,
        weights=AuditWeights(alpha=alpha, pi=pi, beta=beta),
        mixture_quantiles={s: mixture_rows[i] for i, s in enumerate(labels)},
        barycenter_quantiles=center,
        metadata=metadata,
    )


def report_to_dict(report: AuditReport) -> Dict[str, object]:
    """Plain-data view of a report for serialization; decomposition fields
    appear only for the order they belong to."""
    out: Dict[str, object] = {
        "p": report.p,
        "grid": {"k": report.grid.k, "trim_epsilon": report.grid.trim_epsilon},
        "g_hat": report.g_hat,
        "h_hat": report.h_hat,
        "weights": {
            "alpha": dict(report.weights.alpha),
            "pi": {s: dict(v) for s, v in report.weights.pi.items()},
            "beta": dict(report.weights.beta),
        },
        "mixture_quantiles": {s: list(v) for s, v in report.mixture_quantiles.items()},
        "barycenter_quantiles": list(report.barycenter_quantiles),
        "metadata": dict(report.metadata),
    }
    if report.p == 2:
        out["v_mix"] = report.v_mix
        out["v_bar"] = report.v_bar
        out["r"] = report.r
    else:
        out["v1_mix"] = report.v1_mix
        out["v1_bar"] = report.v1_bar
    return out
