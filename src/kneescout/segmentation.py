"""Arc-curve segmentation of the curvature series and knee extraction.

The matrix profile index induces one arc per window, from its start to its
nearest neighbor's start. Positions crossed by few arcs are likely regime
boundaries; dividing the crossing count by the count an idealized random
index would produce (a parabola) and clamping at 1 gives the corrected arc
curve, whose minima the regime-extracting step selects under an exclusion
zone. The first boundary is the knee onset, the second the knee.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .config import PipelineParams, DEFAULT_PARAMS
from .errors import IndexOutOfRange, InsufficientUnmaskedRegion, TooShort
from .ingest import (CapacityFadeSeries, NormalizedSeries, check_nonnegative, find_eol,
                     normalize, resample_even)
from .matrixprofile import stamp
from .preprocess import approximate_curvature, clip_window, savgol_smooth

# CAC dynamic range below which the three-state assumption looks violated
# (an essentially featureless arc curve has no credible boundaries).
FLAT_CAC_RANGE = 0.05
FLAT_CURVATURE = 1e-9


@dataclass(frozen=True)
class KneeReport:
    cell_id: str
    onset_cycle: int
    knee_cycle: int
    eol_cycle: Optional[int]
    method: str  # "curvature_rea" or "double_bacon_watts"
    diagnostics: Dict[str, float] = field(default_factory=dict)


def arc_curve(index: np.ndarray) -> np.ndarray:
    """Number of nearest-neighbor arcs strictly crossing each position.

    An arc (j, I[j]) crosses i when min < i < max. Counted in O(n) by
    marking arc interiors and cumulatively summing.
    """
    index = np.asarray(index, dtype=np.int64)
    n = len(index)
    if n < 2:
        raise IndexOutOfRange(f"index of length {n} has no interior")
    if np.any(index < 0) or np.any(index >= n):
        raise IndexOutOfRange("matrix profile index entries outside [0, n)")
    j = np.arange(n)
    lo = np.minimum(j, index)
    hi = np.maximum(j, index)
    span = hi > lo  # a self-arc has no interior
    mark = np.zeros(n + 1, dtype=np.int64)
    np.add.at(mark, lo[span] + 1, 1)
    np.add.at(mark, hi[span], -1)
    return np.cumsum(mark[:-1])


def compute_arc_curves(index: np.ndarray) -> np.ndarray:
    """Corrected arc curve of a matrix profile index.

    The arc curve divided by the idealized one, the parabola
    2 i (n - i) / n, and clamped at 1. The parabola is 0 at position 0,
    where the corrected value is 1.
    """
    ac = arc_curve(index)
    n = len(ac)
    i = np.arange(1, n, dtype=np.float64)
    out = np.ones(n)
    out[1:] = np.minimum(ac[1:] / (2.0 * i * (n - i) / n), 1.0)
    return out


def rea(cac_values: np.ndarray, n_boundaries: int, exclusion_radius: int) -> List[int]:
    """Iteratively select CAC minima, masking +-exclusion_radius after each.

    Ties at equal CAC go to the smaller index. Returns the boundaries in
    ascending order, pairwise separated by more than the exclusion radius.
    Both counts follow ``ingest.check_nonnegative``.
    """
    n_boundaries = check_nonnegative(n_boundaries, "n_boundaries")
    exclusion_radius = check_nonnegative(exclusion_radius, "exclusion_radius")
    values = np.asarray(cac_values, dtype=np.float64).copy()
    n = len(values)
    picked = []
    for _ in range(n_boundaries):
        finite = np.isfinite(values)
        if not finite.any():
            raise InsufficientUnmaskedRegion(
                f"cannot place {n_boundaries} boundaries with exclusion "
                f"{exclusion_radius} in a CAC of length {n}"
            )
        b = int(np.argmin(values))  # argmin takes the first minimum: smallest index
        picked.append(b)
        lo = max(0, b - exclusion_radius)
        hi = min(n, b + exclusion_radius + 1)
        values[lo:hi] = np.inf
    return sorted(picked)


def prepare(
    series: CapacityFadeSeries, params: PipelineParams = DEFAULT_PARAMS
) -> Tuple[CapacityFadeSeries, NormalizedSeries, int, Optional[int]]:
    """Resample to a unit cycle grid, normalize, smooth and find EoL.

    Returns the resampled series, the smoothed series, the Savitzky-Golay
    window after clipping to the series length, and the EoL cycle, read
    off the smoothed curve so a single noisy sample cannot trigger it. A
    series so short that the clipped window cannot exceed ``sg_order`` is
    TooShort.
    """
    series = resample_even(series)
    normalized = normalize(series)
    sg_window = clip_window(params.sg_window, len(normalized))
    if sg_window <= params.sg_order:
        raise TooShort(
            f"{len(normalized)} cycles leave a smoothing window of {sg_window},"
            f" which must exceed sg_order {params.sg_order}"
        )
    smoothed = savgol_smooth(normalized, window=sg_window, order=params.sg_order)
    return series, smoothed, sg_window, find_eol(smoothed, params.eol_threshold)


def identify_knees(
    series: CapacityFadeSeries, params: PipelineParams = DEFAULT_PARAMS
) -> KneeReport:
    """Run the full curvature pipeline and report knee onset and knee.

    Prepares the series (see ``prepare``), takes the discrete curvature,
    computes the matrix profile and corrected arc curve, and extracts two
    regime boundaries. Boundary positions are mapped back to cycle numbers
    by adding the curvature index offset and the half-width of the
    matrix-profile window. An edge band of one exclusion radius at each end
    of the CAC is never selected. A curvature series too short for the
    matrix-profile window is ``stamp``'s SeriesTooShort.
    """
    _, smoothed, sg_window, eol = prepare(series, params)
    curvature = approximate_curvature(smoothed, ws=params.curv_window)

    # 0 selects the floor(N/5) segmentation window of the method's
    # parameter table, relative to the curvature series length
    mp_window = params.cac_window or max(2, len(curvature) // 5)
    profile = stamp(curvature.values, mp_window)
    corrected = compute_arc_curves(profile.I)

    guarded = corrected.copy()
    guard = params.exclusion_radius
    if guard > 0 and len(guarded) > 2 * guard:
        guarded[:guard] = np.inf
        guarded[-guard:] = np.inf
    onset_pos, knee_pos = rea(guarded, 2, params.exclusion_radius)

    offset = int(curvature.cycles[0]) + (mp_window - 1) // 2
    onset_cycle = offset + onset_pos
    knee_cycle = offset + knee_pos

    cac_interior = corrected[1:-1]
    # mirror padding leaves a structural curvature artifact within half a
    # smoothing window of each end, so flatness is judged on the interior
    edge = sg_window // 2
    interior = (
        curvature.values[edge:-edge]
        if len(curvature) > 2 * edge + 2
        else curvature.values
    )
    curv_peak = float(np.max(np.abs(interior)))
    cac_range = float(np.max(cac_interior) - np.min(cac_interior))
    assumption_violated = curv_peak < FLAT_CURVATURE or cac_range < FLAT_CAC_RANGE

    return KneeReport(
        cell_id=series.cell_id,
        onset_cycle=int(onset_cycle),
        knee_cycle=int(knee_cycle),
        eol_cycle=eol,
        method="curvature_rea",
        diagnostics={
            "cac_min_onset": float(corrected[onset_pos]),
            "cac_min_knee": float(corrected[knee_pos]),
            "cac_range": cac_range,
            "curvature_abs_max": curv_peak,
            "assumption_violated": 1.0 if assumption_violated else 0.0,
            "sg_window_used": float(sg_window),
        },
    )
