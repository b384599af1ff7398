"""Entropy-based exploratory analysis of right-censored time-to-event data.

The pipeline: ingest or simulate a censored sample, push every censored
subject's unit mass onto the event times to its right (reproducing the
product-limit estimate), build weighted contingency tables of feature
categories against binned event times, and rank feature sets by the
conditional entropy of the response.  A censoring-independence diagnostic
and a proportional-hazards fitter round out the toolkit for side-by-side
comparisons.
"""

__version__ = "0.1.0"

from .binning import (
    BinningScheme,
    DegenerateRangeError,
    DegenerateSampleError,
    InfeasibleBinningError,
    categorize,
    equal_width_bins,
    explicit_bins,
    km_quantile_bins,
)
from .censor_test import (
    CensorTestResult,
    run_censor_test,
)
from .contingency import (
    ContingencyTable,
    censor_cross_table,
    fuse_categories,
    table_from_binned,
    table_from_weights,
    table_plain,
)
from .coxph import CoxFit, fit, partial_loglik
from .data import (
    ColumnConfig,
    ConfigError,
    Dataset,
    MissingValueError,
    ParseError,
    ingest_csv,
)
from .entropy import (
    conditional_entropy,
    conditional_mutual_information,
    ecological_effect,
    interacting_flag,
    marginal_entropies,
    mutual_information,
    sce_drop,
)
from .mfs import (
    AssociationRecord,
    CategorizedFeatures,
    CEExpansion,
    CodeID,
    MCEResult,
    MFSReport,
    ReliabilityNull,
    assign_code_ids,
    categorize_features,
    ce_expansion,
    mce_matrix,
    reliability_null,
    run_mfs,
    subdivide,
)
from .redistribution import (
    StepFunction,
    WeightMatrix,
    binned_row_masses,
    build_cross_weight_matrix,
    build_weight_matrix,
    km_estimate,
)
from .simgen import (
    CalibrationError,
    SimConfig,
    calibrate_censor_rate,
    generate,
    invert_reserve,
    write_dataset_csv,
)

__all__ = [
    "AssociationRecord",
    "BinningScheme",
    "CEExpansion",
    "CalibrationError",
    "CategorizedFeatures",
    "CensorTestResult",
    "CodeID",
    "ColumnConfig",
    "ConfigError",
    "ContingencyTable",
    "CoxFit",
    "Dataset",
    "DegenerateRangeError",
    "DegenerateSampleError",
    "InfeasibleBinningError",
    "MCEResult",
    "MFSReport",
    "MissingValueError",
    "ParseError",
    "ReliabilityNull",
    "SimConfig",
    "StepFunction",
    "WeightMatrix",
    "assign_code_ids",
    "binned_row_masses",
    "build_cross_weight_matrix",
    "build_weight_matrix",
    "calibrate_censor_rate",
    "categorize",
    "categorize_features",
    "ce_expansion",
    "censor_cross_table",
    "conditional_entropy",
    "conditional_mutual_information",
    "ecological_effect",
    "equal_width_bins",
    "explicit_bins",
    "fit",
    "fuse_categories",
    "generate",
    "ingest_csv",
    "interacting_flag",
    "invert_reserve",
    "km_estimate",
    "km_quantile_bins",
    "marginal_entropies",
    "mce_matrix",
    "mutual_information",
    "partial_loglik",
    "reliability_null",
    "run_censor_test",
    "run_mfs",
    "sce_drop",
    "subdivide",
    "table_from_binned",
    "table_from_weights",
    "table_plain",
    "write_dataset_csv",
]
