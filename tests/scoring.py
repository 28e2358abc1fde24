"""One per-cell scorer for the acceptance suite.

A method is ``identify_knees`` or ``dbw_knee_report``: it maps a
``CapacityFadeSeries`` and a ``PipelineParams`` to a ``KneeReport``.
``score_cell`` runs a method on one synthetic cell and scores its report
against the generator's ground truth, so every criterion that measures
accuracy reads its errors from the same place.
"""

import time
from typing import NamedTuple


class CellScore(NamedTuple):
    onset_error: int  # |reported onset - true onset|, in cycles
    knee_error: int  # |reported knee - true knee|, in cycles
    gap: int  # reported knee - reported onset, in cycles
    seconds: float  # wall time of the method call


def score_cell(method, series, truth, params) -> CellScore:
    """``method(series, params)`` scored against ``truth`` (a ``GroundTruth``)."""
    t0 = time.perf_counter()
    report = method(series, params)
    seconds = time.perf_counter() - t0
    return CellScore(
        onset_error=abs(report.onset_cycle - truth.onset_cycle),
        knee_error=abs(report.knee_cycle - truth.knee_cycle),
        gap=report.knee_cycle - report.onset_cycle,
        seconds=seconds,
    )
