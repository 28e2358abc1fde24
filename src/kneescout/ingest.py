"""Loading, validation, resampling, and normalization of capacity-fade data.

The canonical representation downstream of this module is a unit-spaced
cycle grid: every identified boundary is a cycle number on that grid. The
first cycle index of the input is authoritative and is never renumbered.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import (
    InputError,
    LengthMismatch,
    MalformedRow,
    MissingColumn,
    NonMonotonicCycles,
    NonPositiveCapacity,
    NonPositiveNominal,
    TooShort,
)

CAPACITY_HEADER = ("cycle", "discharge_capacity_ah")


@dataclass(frozen=True)
class CapacityFadeSeries:
    """Per-cell discharge capacity (Ah) indexed by cycle number."""

    cell_id: str
    cycles: np.ndarray
    capacity_ah: np.ndarray
    q_nom_ah: float

    def __post_init__(self):
        cycles = np.asarray(self.cycles, dtype=np.int64)
        capacity = np.asarray(self.capacity_ah, dtype=np.float64)
        object.__setattr__(self, "cycles", cycles)
        object.__setattr__(self, "capacity_ah", capacity)
        if cycles.shape != capacity.shape:
            raise LengthMismatch(
                f"{len(cycles)} cycle indices vs {len(capacity)} capacity values"
            )
        if len(cycles) < 3:
            raise TooShort(f"need at least 3 points, got {len(cycles)}")
        if np.any(cycles < 0):
            raise NonMonotonicCycles("cycle indices must be nonnegative")
        if np.any(np.diff(cycles) <= 0):
            raise NonMonotonicCycles("cycle indices must be strictly increasing")
        if not np.all(np.isfinite(capacity)) or np.any(capacity <= 0):
            raise NonPositiveCapacity("capacities must be finite and > 0")
        if not np.isfinite(self.q_nom_ah) or self.q_nom_ah <= 0:
            raise NonPositiveNominal(f"q_nom_ah={self.q_nom_ah!r}")

    def __len__(self) -> int:
        return len(self.cycles)


@dataclass(frozen=True)
class NormalizedSeries:
    """Dimensionless capacity fraction on a unit-spaced cycle grid, raw or
    smoothed (``preprocess.SmoothedSeries`` names the same class)."""

    cycles: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "cycles", np.asarray(self.cycles, dtype=np.int64))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if self.cycles.shape != self.values.shape:
            raise LengthMismatch("cycles and values differ in length")

    def __len__(self) -> int:
        return len(self.cycles)


def read_text(path) -> str:
    """The text of an input file; an unreadable file is an InputError."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise InputError(f"cannot read {path}: {reason}") from None


def write_text(path, text: str) -> None:
    """Write ``text`` atomically (a temp file beside ``path``, then a rename).
    A failed write leaves no temp file and is an InputError naming the path."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp{os.getpid()}")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except (OSError, UnicodeError) as exc:  # UnicodeError: a lone surrogate
        if tmp.exists():
            tmp.unlink()
        reason = getattr(exc, "strerror", None) or exc
        raise InputError(f"cannot write {path}: {reason}") from None


def _field(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    text = str(value)
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def csv_text(header, rows) -> str:
    """CSV text that ``read_csv`` reads back value for value.

    Floats are written as ``repr(float(x))``, so they parse back bit for bit
    (NaN as NaN); integers as ``str``; None as an empty field. A string is
    quoted, with ``""`` for a quote inside, only when it holds ``,`` or ``"``.
    """
    return "".join(",".join(map(_field, row)) + "\n" for row in (header, *rows))


def parse_json(text: str, source, error=InputError):
    """Parse JSON text; malformed JSON raises ``error`` naming ``source``."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"{source}: malformed JSON: {exc}") from None


def _fields(rows, usecols=None) -> np.ndarray:
    return np.loadtxt(
        rows, dtype=object, delimiter=",", comments=None, quotechar='"',
        usecols=usecols, ndmin=2,
    )


# a row of only these may be blank: str.isspace characters (none lies above
# U+3000), the delimiter and the quote
_BLANK = "".join(c for c in map(chr, range(0x3001)) if c.isspace()) + ',"'


def _parse_rows(rows, width: int, ids: bool):
    if not rows:
        return [] if ids else None, np.empty((0, width - ids))
    fields = _fields(rows, None if ids else range(width))
    if fields.shape[1] != width:
        raise ValueError(f"{fields.shape[1]} fields")
    first = fields[:, 0].tolist() if ids else None
    # float() on each cell, so a cell parses exactly as Python reads it
    return first, fields[:, int(ids):].astype(np.float64)


# ASCII separators that np.loadtxt strips from a number and float() does not
_LOADTXT_SPACE = "\x1c\x1d\x1e\x1f"


def _parse_numbers(text: str, body, width: int):
    """The body's numbers from one float64 ``np.loadtxt`` parse, or None
    unless that parse gives one row per line and reads as ``float`` does."""
    if not body or "" in body or any(c in text for c in _LOADTXT_SPACE):
        return None  # loadtxt skips empty lines and warns on no data
    try:
        values = np.loadtxt(
            body, dtype=np.float64, delimiter=",", comments=None, quotechar='"',
            usecols=range(width), ndmin=2,
        )
    except ValueError:
        return None
    return values if len(values) == len(body) else None  # a quote joins lines


def read_csv(path, header, *, ids: bool = False):
    """Read a headed CSV file (UTF-8, optional BOM) with one ``np.loadtxt`` parse.

    The first line must hold ``header``, fields stripped. Rows whose fields
    are all empty or whitespace are skipped. A file of per-cell rows
    (``ids``) has a cell id first and exactly the header's columns; other
    files hold only numbers and ignore columns past the header. Returns
    ``(ids, values, lines)``: the ids (or None), the numbers as float64
    (rows, columns) parsed as ``float`` does, and each row's line number.
    A short, long or non-numeric row is MalformedRow naming file and line,
    and so, without a line, is a quoted field that runs across lines.
    A file of numbers first tries a float64 parse; any other file, and any
    that this parse may read otherwise than ``float``, is parsed as text.
    """
    text = read_text(path)
    lines = text.split("\n")
    got = tuple(h.strip() for h in _fields(lines[:1])[0]) if lines[0].strip(_BLANK) else ()
    if got != tuple(header):
        raise MissingColumn(
            f"{path}: expected header {','.join(header)!r}, got {','.join(got)!r}"
        )
    body = lines[1:-1] if lines[-1] == "" else lines[1:]
    values = None if ids else _parse_numbers(text, body, len(header))
    if values is not None:
        return None, values, np.arange(2, len(body) + 2, dtype=np.int64)
    # a row of only _BLANK characters may still hold text, such as a quoted ","
    numbers = [k for k, line in enumerate(lines[1:], 2) if line.strip(_BLANK)
               or '"' in line and any(f.strip() for f in _fields([line])[0])]
    rows = [lines[k - 1] for k in numbers]
    try:
        first, values = _parse_rows(rows, len(header), ids)
    except ValueError:
        # the bulk parse does not say which line failed: find the first one
        for number, row in zip(numbers, rows):
            try:
                _parse_rows([row], len(header), ids)
            except ValueError:
                raise MalformedRow(
                    f"{path}: line {number}: cannot read {row!r} as {','.join(header)}"
                ) from None
        raise MalformedRow(f"{path}: a quoted field runs across lines") from None
    if len(values) != len(rows):  # a quote joined lines into one row
        raise MalformedRow(f"{path}: a quoted field runs across lines")
    return first, values, np.array(numbers, dtype=np.int64)


def cycle_column(path, column: np.ndarray, lines: np.ndarray) -> np.ndarray:
    """Cycle indices truncated toward zero, as ``int(float(x))`` does."""
    bad = ~(np.abs(column) < 2.0**63)  # NaN fails the comparison too
    if bad.any():
        k = int(np.argmax(bad))
        raise MalformedRow(f"{path}: line {lines[k]}: cycle {column[k]} is not a finite index")
    return np.trunc(column).astype(np.int64)


def check_cell_id(cell_id, source) -> str:
    """``cell_id`` if it is a string that fits on one CSV line; else InputError."""
    if not isinstance(cell_id, str):
        raise InputError(f"{source}: cell_id must be a string, got {cell_id!r}")
    if "\n" in cell_id or "\r" in cell_id:
        raise InputError(f"{source}: cell_id {cell_id!r} holds a line break")
    return cell_id


def load_capacity_csv(
    path,
    cell_id: Optional[str] = None,
    q_nom_ah: Optional[float] = None,
) -> CapacityFadeSeries:
    """Read a ``cycle,discharge_capacity_ah`` CSV into a CapacityFadeSeries.

    Metadata comes from an optional sidecar ``<basename>.meta.json`` with
    fields ``cell_id`` and ``q_nom_ah``; explicit arguments override the
    sidecar. A missing nominal capacity is an error because normalization
    needs the cell's rating, not a value inferred from the data.
    """
    path = Path(path)
    sidecar = path.with_suffix(".meta.json")
    meta = parse_json(read_text(sidecar), sidecar) if sidecar.exists() else {}
    if not isinstance(meta, dict):
        raise InputError(f"{sidecar}: expected a JSON object")
    if cell_id is None:
        source = sidecar if "cell_id" in meta else path
        cell_id = check_cell_id(meta.get("cell_id", path.stem), source)
    if q_nom_ah is None:
        q_nom_ah = meta.get("q_nom_ah")
    if q_nom_ah is None:
        raise NonPositiveNominal(
            f"no q_nom_ah for {path.name}: provide a sidecar {path.stem}.meta.json or an override"
        )
    try:
        q_nom_ah = float(q_nom_ah)
    except (TypeError, ValueError, OverflowError):
        raise NonPositiveNominal(f"{path.name}: q_nom_ah={q_nom_ah!r} is not a number") from None

    _, values, lines = read_csv(path, CAPACITY_HEADER)
    return CapacityFadeSeries(
        cell_id=cell_id,
        cycles=cycle_column(path, values[:, 0], lines),
        capacity_ah=values[:, 1],
        q_nom_ah=q_nom_ah,
    )


def resample_even(series: CapacityFadeSeries) -> CapacityFadeSeries:
    """Resample onto a unit-spaced cycle grid with a natural cubic spline.

    Input that is already unit-spaced is returned unchanged, bitwise.
    """
    cycles = series.cycles
    if np.all(np.diff(cycles) == 1):
        return series
    if len(cycles) < 4:
        raise TooShort("cubic resampling of uneven cycles needs at least 4 points")
    from scipy.interpolate import CubicSpline  # only uneven grids need it; slow to import

    spline = CubicSpline(
        cycles.astype(np.float64), series.capacity_ah, bc_type="natural"
    )
    grid = np.arange(cycles[0], cycles[-1] + 1, dtype=np.int64)
    return CapacityFadeSeries(
        cell_id=series.cell_id,
        cycles=grid,
        capacity_ah=spline(grid.astype(np.float64)),
        q_nom_ah=series.q_nom_ah,
    )


def normalize(series: CapacityFadeSeries) -> NormalizedSeries:
    """Divide capacities by the cell's initial nominal capacity."""
    return NormalizedSeries(
        cycles=series.cycles, values=series.capacity_ah / series.q_nom_ah
    )


def find_eol(series, threshold: float = 0.8) -> Optional[int]:
    """First cycle at which the normalized value is <= threshold, or None.

    Works on any series with ``cycles`` and ``values``; the identification
    pipeline passes the smoothed series so a single noisy sample cannot
    trigger the crossing.
    """
    if not 0.0 < threshold < 1.0:
        raise InputError(f"eol_threshold must be in (0, 1), got {threshold}")
    below = np.nonzero(series.values <= threshold)[0]
    if len(below) == 0:
        return None
    return int(series.cycles[below[0]])
