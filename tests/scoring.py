"""One per-cell scorer for the acceptance suite, and its table as a script.

A method is ``identify_knees`` or ``dbw_knee_report``: it maps a
``CapacityFadeSeries`` and a ``PipelineParams`` to a ``KneeReport``.
``score_cell`` runs a method on one synthetic cell and scores its report
against the generator's ground truth, so every criterion that measures
accuracy reads its errors from the same place.

Run as a script (``python tests/scoring.py``), it prints the accuracy
ledger: one row per family and method under the acceptance profile and
under the defaults. ``ACCURACY.md`` holds what it printed, and
``DECISIONS.md`` "One accuracy table" says what each column means.
"""

import statistics
import sys
import time
from pathlib import Path
from typing import NamedTuple

HIT_CYCLES = 100  # a reported cycle within this many cycles of the truth is a hit


class CellScore(NamedTuple):
    onset_error: int  # |reported onset - true onset|, in cycles
    knee_error: int  # |reported knee - true knee|, in cycles
    gap: int  # reported knee - reported onset, in cycles
    seconds: float  # wall time of the method call
    outside: bool  # the reported onset or knee lies outside the series' cycles


def score_cell(method, series, truth, params) -> CellScore:
    """``method(series, params)`` scored against ``truth`` (a ``GroundTruth``)."""
    t0 = time.perf_counter()
    report = method(series, params)
    seconds = time.perf_counter() - t0
    first, last = int(series.cycles[0]), int(series.cycles[-1])
    return CellScore(
        onset_error=abs(report.onset_cycle - truth.onset_cycle),
        knee_error=abs(report.knee_cycle - truth.knee_cycle),
        gap=report.knee_cycle - report.onset_cycle,
        seconds=seconds,
        outside=not all(first <= c <= last for c in (report.onset_cycle, report.knee_cycle)),
    )


def families():
    """The scored families: name -> list of (series, truth), each truth known."""
    from kneescout import convex_family_specs, generate, generate_fleet

    out = {"fleet": generate_fleet(50, seed=123, n_cycles=2000),
           "convex": [generate(spec, cell_id=f"convex-{i:03d}")
                      for i, spec in enumerate(convex_family_specs(20, seed=9))]}
    for seed, n_cycles in ((4, 400), (1, 600), (2, 1200), (3, 2000)):
        out[f"short-{n_cycles}"] = generate_fleet(30, seed=seed, n_cycles=n_cycles)
    return out


def table(params, cells_by_family) -> str:
    """One row per (family, method) of ``cells_by_family`` (as ``families``
    returns it): medians and means of the onset and knee errors, the hits
    within +-HIT_CYCLES, the gaps of exclusion_radius + 1 and the reports with
    a cycle outside the data."""
    from kneescout import dbw_knee_report, identify_knees

    head = ("family", "method", "n", "onset med", "onset mean", "knee med", "knee mean",
            "onset hits", "both hits", "gap = excl+1", "outside")
    rows = []
    for name, cells in cells_by_family.items():
        assert all(truth is not None for _, truth in cells)
        for method in (identify_knees, dbw_knee_report):
            scores = [score_cell(method, series, truth, params) for series, truth in cells]
            onset = [s.onset_error for s in scores]
            knee = [s.knee_error for s in scores]
            rows.append((
                name, method.__name__, len(scores),
                f"{statistics.median(onset):g}", f"{statistics.fmean(onset):.1f}",
                f"{statistics.median(knee):g}", f"{statistics.fmean(knee):.1f}",
                sum(e <= HIT_CYCLES for e in onset),
                sum(o <= HIT_CYCLES and k <= HIT_CYCLES for o, k in zip(onset, knee)),
                sum(s.gap == params.exclusion_radius + 1 for s in scores),
                sum(s.outside for s in scores),
            ))
    lines = [head, tuple("---" for _ in head), *rows]
    return "\n".join("| " + " | ".join(map(str, line)) + " |" for line in lines)


# (heading, the profile's PipelineParams keywords) of each table in the ledger
PROFILES = (("Acceptance profile", dict(sg_window=81, cac_window=12)), ("Defaults", {}))


def ledger() -> str:
    """The text of ``ACCURACY.md``: the table of each profile in ``PROFILES``."""
    from kneescout import PipelineParams

    cells_by_family = families()
    parts = ["# Accuracy ledger\n\n"
             "Written by `python tests/scoring.py > ACCURACY.md`; run that command again\n"
             "after any change that moves a number here. `tests/test_accuracy.py`\n"
             "rebuilds the tables and fails until this file matches them.\n"]
    for heading, kwargs in PROFILES:
        args = ", ".join(f"{k}={v}" for k, v in kwargs.items())
        parts.append(f"## {heading}: `PipelineParams({args})`\n\n"
                     f"{table(PipelineParams(**kwargs), cells_by_family)}\n")
    return "\n".join(parts)


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    print(ledger(), end="")
