"""The scored families of the acceptance suite, and their table as a script.

A method is ``identify_knees`` or ``dbw_knee_report``: it maps a
``CapacityFadeSeries`` and a ``PipelineParams`` to a ``KneeReport``.
``family`` builds each seeded family once per session and ``scores`` runs a
method on every cell of a family once per profile, scoring each report
against the generator's ground truth (``score_cell``). Every criterion and
pin that measures accuracy, and the ledger below, read their errors from
``scores``, so no cell is scored twice for the same method and profile.

Run as a script (``python tests/scoring.py``), it prints the accuracy
ledger: one row per family and method under the acceptance profile and
under the defaults. ``ACCURACY.md`` holds what it printed, and
``DECISIONS.md`` "One accuracy table" says what each column means.
"""

import dataclasses
import functools
import statistics
import sys
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
if __name__ == "__main__":  # find the package and the benchmark's workloads from any directory
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from kneescout import (  # noqa: E402
    PipelineParams,
    convex_family_specs,
    dbw_knee_report,
    generate,
    generate_fleet,
    identify_knees,
)

HIT_CYCLES = 100  # a reported cycle within this many cycles of the truth is a hit

# Calibrated identification profile for the sigma = 1e-3 synthetic fleets:
# the default smoothing window leaves a curvature noise floor that swamps
# realistic knee amplitudes, and the 3-point segmentation window makes
# z-normalized shapes one-dimensional (every smooth window finds a noise
# match). Both knobs are part of the documented CLI surface, and the
# benchmark runs the same profile (``perfbench.workloads.IDENTIFY_PARAMS``).
ACCEPT = PipelineParams(sg_window=81, cac_window=12)

METHODS = (identify_knees, dbw_knee_report)


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


def _bench_fleet():
    # the benchmark's own definition, so the two cannot drift apart
    from perfbench.workloads import fleet_cells, fleet_spec

    return [generate(fleet_spec(cell), cell_id=cell.cell_id) for cell in fleet_cells()]


# name -> builder of the family's list of (series, truth)
_BUILDERS = {
    "fleet": lambda: generate_fleet(50, seed=123, n_cycles=2000),
    "convex": lambda: [generate(spec, cell_id=f"convex-{i:03d}")
                       for i, spec in enumerate(convex_family_specs(20, seed=9))],
    **{f"short-{n}": functools.partial(generate_fleet, 30, seed=s, n_cycles=n)
       for s, n in ((4, 400), (1, 600), (2, 1200), (3, 2000))},
    "shift": lambda: generate_fleet(20, seed=5, n_cycles=1200),
    "bench": _bench_fleet,
}


@functools.cache
def family(name):
    """The seeded cells of family ``name``, a tuple of (series, truth).

    fleet is criterion 3's; convex criterion 4's; short-400 to short-2000 are
    30-cell fleets of those lengths; shift is the fleet of the shift tests;
    bench is the 94 cells of the benchmark's identify and baseline workloads.
    """
    return tuple(_BUILDERS[name]())


@functools.cache
def scores(name, method, params):
    """The ``CellScore`` of ``method`` under ``params`` on each cell of ``family(name)``."""
    cells = family(name)
    assert all(truth is not None for _, truth in cells)
    return tuple(score_cell(method, series, truth, params) for series, truth in cells)


def table(params, names) -> str:
    """One row per family of ``names`` and method: medians and means of the
    onset and knee errors, the hits within +-HIT_CYCLES, the gaps of
    exclusion_radius + 1 and the reports with a cycle outside the data."""
    head = ("family", "method", "n", "onset med", "onset mean", "knee med", "knee mean",
            "onset hits", "both hits", "gap = excl+1", "outside")
    rows = []
    for name in names:
        for method in METHODS:
            cells = scores(name, method, params)
            onset = [s.onset_error for s in cells]
            knee = [s.knee_error for s in cells]
            rows.append((
                name, method.__name__, len(cells),
                f"{statistics.median(onset):g}", f"{statistics.fmean(onset):.1f}",
                f"{statistics.median(knee):g}", f"{statistics.fmean(knee):.1f}",
                sum(e <= HIT_CYCLES for e in onset),
                sum(o <= HIT_CYCLES and k <= HIT_CYCLES for o, k in zip(onset, knee)),
                sum(s.gap == params.exclusion_radius + 1 for s in cells),
                sum(s.outside for s in cells),
            ))
    lines = [head, tuple("---" for _ in head), *rows]
    return "\n".join("| " + " | ".join(map(str, line)) + " |" for line in lines)


LEDGER_FAMILIES = ("fleet", "convex", "short-400", "short-600", "short-1200", "short-2000")
# (heading, profile, families) of each table in the ledger; the bench fleet
# only under the profile that the benchmark runs
PROFILES = (("Acceptance profile", ACCEPT, (*LEDGER_FAMILIES, "bench")),
            ("Defaults", PipelineParams(), LEDGER_FAMILIES))


def _spelled(params) -> str:
    """``params`` as the call that builds it, naming the fields off their defaults."""
    args = ", ".join(f"{f.name}={getattr(params, f.name)}" for f in dataclasses.fields(params)
                     if getattr(params, f.name) != f.default)
    return f"PipelineParams({args})"


def ledger() -> str:
    """The text of ``ACCURACY.md``: the table of each profile in ``PROFILES``."""
    parts = ["# Accuracy ledger\n\n"
             "Written by `python tests/scoring.py > ACCURACY.md`; run that command again\n"
             "after any change that moves a number here. `tests/test_accuracy.py`\n"
             "rebuilds the tables and fails until this file matches them.\n"]
    for heading, params, names in PROFILES:
        parts.append(f"## {heading}: `{_spelled(params)}`\n\n{table(params, names)}\n")
    return "\n".join(parts)


if __name__ == "__main__":
    print(ledger(), end="")
