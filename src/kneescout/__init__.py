"""Battery capacity knee and knee-onset identification toolkit.

Each submodule is imported on first use (PEP 562): ``import kneescout``
imports none of them, and ``kneescout.identify_knees`` imports only the
modules that the curvature pipeline needs. A name, once read, is stored in
the package, so later reads are plain attribute lookups.
"""

import importlib

__version__ = "0.1.0"

# each submodule and the public names the package takes from it
_EXPORTS = {
    "baconwatts": (
        "BaconWattsFit", "DBWParams", "dbw_knee_report", "dbw_model", "fit_dbw",
        "lm_optimize",
    ),
    "earlypredict": (
        "CycleRecord", "FeatureVector", "GBRTHyper", "GBRTModel", "delta_q", "evaluate",
        "extract_features", "gbrt_predict", "gbrt_train", "load_cycle_detail_csv",
        "sensitivity_sweep", "stratified_split",
    ),
    "errors": (),
    "ingest": (
        "CapacityFadeSeries", "NormalizedSeries", "find_eol", "load_capacity_csv",
        "normalize", "resample_even",
    ),
    "matrixprofile": ("MatrixProfile", "stamp"),
    "preprocess": ("approximate_curvature", "savgol_smooth"),
    "report": ("BatchRow", "CorrelationReport", "batch_report", "pearson"),
    "rules": (),
    "segmentation": (
        "DEFAULT_PARAMS", "KneeReport", "PipelineParams", "arc_curve", "compute_arc_curves",
        "identify_knees", "rea",
    ),
    "synthgen": (
        "GroundTruth", "SyntheticSpec", "convex_family_specs", "generate",
        "generate_convex_family", "generate_fleet", "ground_truth", "simulate_cycle_records",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
