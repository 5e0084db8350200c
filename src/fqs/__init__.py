"""Federated disparity audits of score distributions from quantile sketches.

The package measures how unevenly a score is distributed across population
groups when the raw scores live in separate silos.  Each silo sends one
fixed-size quantile sketch per group; the server reconstructs per-group
mixtures, compares them to their barycenter and to the pooled population,
and reports transport and CDF disparity functionals together with an exact
within/between decomposition and finite-sample error half-widths.

Layers, bottom up:

* :mod:`fqs.sketch`: quantile grids, sketches, count-weighted step CDFs,
  mixing, inversion.
* :mod:`fqs.distances`: transport and CDF distances, barycenters, dispersion.
* :mod:`fqs.central`: centralized reference functionals on raw samples.
* :mod:`fqs.protocol`: the one-round client/server audit.
* :mod:`fqs.wire`: binary and JSON encodings of client messages.
* :mod:`fqs.bounds`: concentration half-widths and budget arithmetic.
* :mod:`fqs.scenario`: allocation samplers for selection-bias studies.
* :mod:`fqs.datasets`, :mod:`fqs.sweep`, :mod:`fqs.cli`: data loading,
  the Monte Carlo harness, and the command line front end.
"""

from .bounds import (
    BoundInputs,
    communication_budget,
    dkw_bound,
    g2_error_scale,
    hp_quantile_bound,
    weight_bounds,
)
from .central import GroupedSample, h_hat, u2_bin_averaged, u2_linear_exact, u_hat
from .datasets import DatasetSpec, IngestedData, load_dataset, resolve_data_path, synthetic_population
from .distances import (
    barycenter_quantiles,
    cramer_integral,
    cramer_p_step,
    power_dispersion,
    wasserstein_p_grid,
)
from .errors import (
    EXIT_MALFORMED,
    EXIT_OK,
    EXIT_VALIDATION,
    AuditError,
    MalformedInputError,
    ValidationError,
    exit_code_for,
)
from .protocol import (
    AuditReport,
    AuditWeights,
    SiloMessage,
    client_summarize,
    report_to_dict,
    server_audit,
)
from .rng import derive_key, substream
from .scenario import (
    REGIMES,
    AllocationScenario,
    allocate_copula,
    allocate_random,
    dependence_diagnostics,
    margins_from_assignment,
    normal_cdf,
    normal_quantile,
    sample_beta,
    split_cells,
)
from .serialize import format_float, to_canonical_json, write_csv
from .sketch import (
    GridSpec,
    QuantileSketch,
    StepCdf,
    build_sketch,
    mix_step_cdfs,
    sketch_to_step_cdf,
)
from .sweep import SweepResult, SweepSpec, run_sweep
from .wire import (
    decode_message,
    encode_message,
    message_from_json,
    message_to_json,
)

__version__ = "0.1.0"

__all__ = [
    "AllocationScenario",
    "AuditError",
    "AuditReport",
    "AuditWeights",
    "BoundInputs",
    "DatasetSpec",
    "EXIT_MALFORMED",
    "EXIT_OK",
    "EXIT_VALIDATION",
    "GridSpec",
    "GroupedSample",
    "IngestedData",
    "MalformedInputError",
    "QuantileSketch",
    "REGIMES",
    "SiloMessage",
    "StepCdf",
    "SweepResult",
    "SweepSpec",
    "ValidationError",
    "allocate_copula",
    "allocate_random",
    "barycenter_quantiles",
    "build_sketch",
    "client_summarize",
    "communication_budget",
    "cramer_integral",
    "cramer_p_step",
    "decode_message",
    "dependence_diagnostics",
    "derive_key",
    "dkw_bound",
    "encode_message",
    "exit_code_for",
    "format_float",
    "g2_error_scale",
    "h_hat",
    "hp_quantile_bound",
    "load_dataset",
    "margins_from_assignment",
    "message_from_json",
    "message_to_json",
    "mix_step_cdfs",
    "normal_cdf",
    "normal_quantile",
    "power_dispersion",
    "report_to_dict",
    "resolve_data_path",
    "run_sweep",
    "sample_beta",
    "server_audit",
    "sketch_to_step_cdf",
    "split_cells",
    "substream",
    "synthetic_population",
    "to_canonical_json",
    "u2_bin_averaged",
    "u2_linear_exact",
    "u_hat",
    "wasserstein_p_grid",
    "weight_bounds",
    "write_csv",
]
