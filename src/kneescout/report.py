"""Batch identification, correlation statistics, and plot-ready exports."""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .baconwatts import dbw_knee_report
from .errors import ConstantInput, InputError, LengthMismatch
from .ingest import CapacityFadeSeries, csv_text, write_text
from .rules import as_array, check_finite, check_number
from .segmentation import DEFAULT_PARAMS, KneeReport, PipelineParams, identify_knees

# each method's report function; the first is curvature, the second its baseline
METHODS = {"curvature_rea": identify_knees, "double_bacon_watts": dbw_knee_report}
SCATTER_HEADER = ("onset_or_knee_cycle", "eol_cycle")


@dataclass(frozen=True)
class BatchRow:
    cell_id: str
    method: str
    onset_cycle: int
    knee_cycle: int
    eol_cycle: Optional[int]
    gap: int


BATCH_HEADER = tuple(f.name for f in fields(BatchRow))


@dataclass(frozen=True)
class CorrelationReport:
    r_onset_eol: Optional[float]
    r_knee_eol: Optional[float]
    n_cells: int
    n_excluded: int
    mean_gap: float
    note: str = ""


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Sample Pearson correlation coefficient, clipped to [-1, 1].

    Rounding can put the quotient just outside the interval (1 + 2**-52 for
    some perfectly correlated inputs); ``scipy.stats.pearsonr`` clips too.
    Each sample is first scaled exactly by a power of two, to a largest
    magnitude in [0.5, 1), so no sum of squares underflows or overflows. A
    sample holding NaN or an infinity is NonFiniteInput naming it."""
    x = as_array(x, "x", vector=True)
    y = as_array(y, "y", vector=True)
    if x.shape != y.shape:
        raise LengthMismatch(f"{x.shape} vs {y.shape}")
    if len(x) < 2:
        raise ConstantInput(f"need at least 2 samples, got {len(x)}")
    check_finite(x, "x")
    check_finite(y, "y")
    x, y = (np.ldexp(v, -np.frexp(np.max(np.abs(v)))[1]) for v in (x, y))
    dx = x - x.mean()
    dy = y - y.mean()
    sx = float(np.sqrt(np.sum(dx * dx)))
    sy = float(np.sqrt(np.sum(dy * dy)))
    if sx == 0.0 or sy == 0.0:
        raise ConstantInput("correlation undefined for a constant input")
    return min(max(float(np.sum(dx * dy) / (sx * sy)), -1.0), 1.0)


def _report_for(series: CapacityFadeSeries, method: str, params: PipelineParams) -> KneeReport:
    return METHODS[method](series, params)


def check_methods(methods: Sequence[str]) -> None:
    """InputError naming the first method that is unknown or repeated."""
    for i, method in enumerate(methods):
        if method not in METHODS:
            raise InputError(f"unknown method {method!r} (known: {', '.join(METHODS)})")
        if method in methods[:i]:
            raise InputError(f"method {method!r} given more than once")


def batch_report(
    inputs: Iterable[CapacityFadeSeries],
    methods: Sequence[str] = tuple(METHODS),
    params: PipelineParams = DEFAULT_PARAMS,
    jobs: int = 1,
) -> Tuple[List[BatchRow], Dict[str, CorrelationReport]]:
    """Identify every cell with every method and correlate against EoL.

    Cells without a defined EoL are excluded from the correlations (but
    their rows are still emitted); a constant input degenerates the
    correlation to None with a note rather than failing the batch. An
    unknown or repeated method is an InputError, and so is a ``jobs`` that
    is not an int under ``rules.as_number``; below 2 the cells run serially.
    """
    methods = tuple(methods)
    check_methods(methods)
    jobs = check_number(jobs, "jobs", integral=True)
    series_list = sorted(inputs, key=lambda s: s.cell_id)
    tasks = [(series, method) for series in series_list for method in methods]
    # a forking pool starts all its workers up front: start no more than there are tasks
    workers = min(jobs, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(
                pool.map(_report_for, *zip(*((s, m, params) for s, m in tasks)))
            )
    else:
        reports = [_report_for(s, m, params) for s, m in tasks]
    rows = [BatchRow(rep.cell_id, method, rep.onset_cycle, rep.knee_cycle, rep.eol_cycle,
                     gap=rep.knee_cycle - rep.onset_cycle)
            for (_, method), rep in zip(tasks, reports)]

    correlations: Dict[str, CorrelationReport] = {}
    for method in methods:
        mrows = [r for r in rows if r.method == method]
        with_eol = [r for r in mrows if r.eol_cycle is not None]
        n_excluded = len(mrows) - len(with_eol)
        mean_gap = float(np.mean([r.gap for r in mrows])) if mrows else float("nan")
        r_onset = r_knee = None
        note = ""
        if len(with_eol) >= 2:
            eol = [r.eol_cycle for r in with_eol]
            try:
                r_onset = pearson([r.onset_cycle for r in with_eol], eol)
                r_knee = pearson([r.knee_cycle for r in with_eol], eol)
            except ConstantInput as exc:
                note = f"constant input: {exc}"
        else:
            note = f"only {len(with_eol)} cells with EoL; correlation undefined"
        correlations[method] = CorrelationReport(
            r_onset_eol=r_onset,
            r_knee_eol=r_knee,
            n_cells=len(with_eol),
            n_excluded=n_excluded,
            mean_gap=mean_gap,
            note=note,
        )
    return rows, correlations


def improvement_pct(r_new: float, r_old: float) -> float:
    """Percentage improvement with the benchmark's magnitude in the denominator,
    so that a rise from a negative benchmark r reads as a gain."""
    return (r_new - r_old) / abs(r_old) * 100.0


def format_batch_csv(
    rows: List[BatchRow], correlations: Dict[str, CorrelationReport]
) -> str:
    """Batch table plus correlation footer lines (comment-prefixed)."""
    footer = []
    for method, rep in correlations.items():
        parts = [f"# method={method}", f"pearson_onset_eol={_fmt(rep.r_onset_eol)}",
                 f"pearson_knee_eol={_fmt(rep.r_knee_eol)}", f"n_cells={rep.n_cells}",
                 f"n_excluded={rep.n_excluded}", f"mean_gap={rep.mean_gap:.2f}"]
        if rep.note:
            parts.append(f"note={rep.note!r}")
        footer.append(" ".join(parts) + "\n")
    if all(m in correlations for m in METHODS):
        new, old = (correlations[m] for m in METHODS)
        for kind in ("onset", "knee"):
            r_new = getattr(new, f"r_{kind}_eol")
            r_old = getattr(old, f"r_{kind}_eol")
            if r_new is not None and r_old not in (None, 0.0):
                footer.append(
                    f"# improvement_{kind}_pct={improvement_pct(r_new, r_old):.1f}\n"
                )
    return csv_text(BATCH_HEADER, map(astuple, rows)) + "".join(footer)


def _fmt(value: Optional[float]) -> str:
    return "nan" if value is None else f"{value:.6f}"


def format_scatter_csv(rows: List[BatchRow], method: str, kind: str) -> str:
    """Plot-ready ``onset_or_knee_cycle,eol_cycle`` pairs for one method."""
    if kind not in ("onset", "knee"):
        raise InputError(f"kind must be onset or knee, got {kind!r}")
    return csv_text(SCATTER_HEADER, [
        (r.onset_cycle if kind == "onset" else r.knee_cycle, r.eol_cycle)
        for r in rows if r.method == method and r.eol_cycle is not None
    ])


def write_report_dir(
    rows: List[BatchRow],
    correlations: Dict[str, CorrelationReport],
    out_dir,
) -> None:
    """Write table.csv plus per-method scatter files, each atomically."""
    out_dir = Path(out_dir)
    write_text(out_dir / "table.csv", format_batch_csv(rows, correlations))
    for method in correlations:
        for kind in ("onset", "knee"):
            write_text(out_dir / f"scatter_{method}_{kind}.csv",
                       format_scatter_csv(rows, method, kind))
