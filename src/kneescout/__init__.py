"""Battery capacity knee and knee-onset identification toolkit."""

from .config import GBRTHyper, PipelineParams, DEFAULT_PARAMS
from .ingest import (
    CapacityFadeSeries,
    NormalizedSeries,
    find_eol,
    load_capacity_csv,
    normalize,
    resample_even,
)
from .preprocess import approximate_curvature, savgol_smooth
from .matrixprofile import MatrixProfile, stamp
from .segmentation import (
    KneeReport,
    arc_curve,
    compute_arc_curves,
    identify_knees,
    rea,
)
from .baconwatts import (
    BaconWattsFit,
    DBWParams,
    dbw_knee_report,
    dbw_model,
    fit_dbw,
    lm_optimize,
)
from .synthgen import (
    GroundTruth,
    SyntheticSpec,
    convex_family_specs,
    generate,
    generate_convex_family,
    generate_fleet,
    ground_truth,
    simulate_cycle_records,
)
from .earlypredict import (
    CycleRecord,
    FeatureVector,
    GBRTModel,
    delta_q,
    evaluate,
    extract_features,
    gbrt_predict,
    gbrt_train,
    load_cycle_detail_csv,
    sensitivity_sweep,
    stratified_split,
)
from .report import BatchRow, CorrelationReport, batch_report, pearson

__version__ = "0.1.0"

__all__ = [
    "BaconWattsFit",
    "BatchRow",
    "CapacityFadeSeries",
    "CorrelationReport",
    "CycleRecord",
    "DBWParams",
    "DEFAULT_PARAMS",
    "FeatureVector",
    "GBRTHyper",
    "GBRTModel",
    "GroundTruth",
    "KneeReport",
    "MatrixProfile",
    "NormalizedSeries",
    "PipelineParams",
    "SyntheticSpec",
    "approximate_curvature",
    "arc_curve",
    "batch_report",
    "compute_arc_curves",
    "convex_family_specs",
    "dbw_knee_report",
    "dbw_model",
    "delta_q",
    "evaluate",
    "extract_features",
    "find_eol",
    "fit_dbw",
    "gbrt_predict",
    "gbrt_train",
    "generate",
    "generate_convex_family",
    "generate_fleet",
    "ground_truth",
    "identify_knees",
    "lm_optimize",
    "load_capacity_csv",
    "load_cycle_detail_csv",
    "normalize",
    "pearson",
    "rea",
    "resample_even",
    "savgol_smooth",
    "sensitivity_sweep",
    "simulate_cycle_records",
    "stamp",
    "stratified_split",
]
