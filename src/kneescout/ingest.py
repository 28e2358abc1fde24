"""Loading, validation, resampling, and normalization of capacity-fade data.

The canonical representation downstream of this module is a unit-spaced
cycle grid: every identified boundary is a cycle number on that grid. The
first cycle index of the input is authoritative and is never renumbered.
"""

from __future__ import annotations

import csv
import json
import math
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
from .rules import as_array, as_number, check_fraction, check_positive

CAPACITY_HEADER = ("cycle", "discharge_capacity_ah")
# the most cycles a unit grid may hold: resample_even's and a synthetic curve's
MAX_GRID_CYCLES = 10**6

# the suffixes of cell <id>'s files in an experiment directory (README)
CELL_FILES = {"capacity": ".csv", "meta": ".meta.json", "truth": ".truth.json",
              "cycles": ".cycles.csv"}


@dataclass(frozen=True)
class CapacityFadeSeries:
    """Per-cell discharge capacity (Ah) indexed by cycle number. The nominal
    capacity ``q_nom_ah`` must be a finite real > 0 (``rules.check_positive``,
    else NonPositiveNominal) and is stored as a float."""

    cell_id: str
    cycles: np.ndarray
    capacity_ah: np.ndarray
    q_nom_ah: float

    def __post_init__(self):
        check_cell_id(self.cell_id, "CapacityFadeSeries")
        cycles = as_array(self.cycles, "cycles", np.int64, vector=True)
        capacity = as_array(self.capacity_ah, "capacity_ah", vector=True)
        object.__setattr__(self, "cycles", cycles)
        object.__setattr__(self, "capacity_ah", capacity)
        if cycles.shape != capacity.shape:
            raise LengthMismatch(
                f"{len(cycles)} cycle indices vs {len(capacity)} capacity values"
            )
        if len(cycles) < 3:
            raise TooShort(f"need at least 3 points, got {len(cycles)}")
        if (cycles < 0).any():
            raise NonMonotonicCycles("cycle indices must be nonnegative")
        if (cycles[1:] <= cycles[:-1]).any():
            raise NonMonotonicCycles("cycle indices must be strictly increasing")
        if not np.isfinite(capacity).all() or (capacity <= 0).any():
            raise NonPositiveCapacity("capacities must be finite and > 0")
        q_nom = check_positive(self.q_nom_ah, "q_nom_ah", NonPositiveNominal)
        # Python floats: an overflowing quotient is inf, without a warning
        if not math.isfinite(float(capacity.max()) / q_nom):
            raise InputError(f"q_nom_ah={self.q_nom_ah!r} makes capacity / q_nom_ah overflow")
        object.__setattr__(self, "q_nom_ah", q_nom)

    def __len__(self) -> int:
        return len(self.cycles)


@dataclass(frozen=True)
class NormalizedSeries:
    """Values on a unit-spaced cycle grid: the normalized capacity fraction,
    its smoothing or its curvature."""

    cycles: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "cycles", as_array(self.cycles, "cycles", np.int64, vector=True))
        object.__setattr__(self, "values", as_array(self.values, "values", vector=True))
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


# ASCII separators that np.loadtxt strips from a number and float() does not
_LOADTXT_SPACE = "\x1c\x1d\x1e\x1f"


def _parse_numbers(text: str, body, width: int):
    """The body's numbers from a float64 ``np.loadtxt`` parse, or None
    unless that parse gives one row per line and reads as ``float`` does.

    The parse runs first without ``usecols``, which is faster and reads a
    body whose rows all hold ``width`` fields; any other body is parsed
    again with ``usecols``."""
    if not body or "" in body or any(c in text for c in _LOADTXT_SPACE):
        return None  # loadtxt skips empty lines and warns on no data
    for usecols in (None, range(width)):
        try:
            values = np.loadtxt(
                body, dtype=np.float64, delimiter=",", comments=None, quotechar='"',
                usecols=usecols, ndmin=2,
            )
        except ValueError:
            continue
        if values.shape[1] == width:
            return values if len(values) == len(body) else None  # a quote joins lines
    return None


def read_csv(path, header, *, ids: bool = False):
    """Read a headed CSV file (UTF-8, optional BOM).

    A file of numbers is parsed by ``np.loadtxt`` first (``_parse_numbers``);
    a file of per-cell rows, and any that this parse may read otherwise than
    ``float``, in one ``csv.reader`` pass. The first line, read on its own,
    must hold ``header``, fields stripped. Rows whose fields are all empty or
    whitespace are skipped. A file of per-cell rows (``ids``) has a cell id
    first and exactly the header's columns; other files hold only numbers
    and ignore columns past the header. Returns ``(ids, values, lines)``: the
    ids (or None), the numbers as float64 (rows, columns) parsed as ``float``
    does, and each row's line number. A short, long or non-numeric row, a
    quoted field that runs across lines and a row that ``csv`` cannot read (a
    field over its size limit) are MalformedRow naming file and line.
    """
    text = read_text(path)
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    try:  # line 1 alone, so a quote there cannot run on into the rows
        got = tuple(h.strip() for h in next(csv.reader(lines[:1]), ()))
    except csv.Error:
        got = ()
    if got != tuple(header):
        raise MissingColumn(
            f"{path}: expected header {','.join(header)!r}, got {','.join(got)!r}"
        )
    width = len(header)
    values = None if ids else _parse_numbers(text, lines[1:], width)
    if values is not None:
        return None, values, np.arange(2, len(lines) + 1, dtype=np.int64)
    first, rows, numbers = [], [], []
    reader = csv.reader(lines[1:])
    try:
        for line, row in enumerate(reader, 2):
            if reader.line_num + 1 != line:
                raise MalformedRow(f"{path}: line {line}: a quoted field runs across lines")
            if not any(f.strip() for f in row):
                continue
            try:
                if len(row) < width or ids and len(row) > width:
                    raise ValueError
                rows.append([float(f) for f in row[ids:width]])
            except ValueError:
                raise MalformedRow(
                    f"{path}: line {line}: cannot read {lines[line - 1]!r} as {','.join(header)}"
                ) from None
            first.append(row[0])
            numbers.append(line)
    except csv.Error as exc:
        raise MalformedRow(f"{path}: line {reader.line_num + 1}: {exc}") from None
    values = np.array(rows, dtype=np.float64).reshape(-1, width - ids)
    return first if ids else None, values, np.array(numbers, dtype=np.int64)


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


def cell_path(directory, cell_id: str, kind: str) -> Path:
    """Cell ``cell_id``'s file of ``kind`` (a ``CELL_FILES`` key) in ``directory``."""
    return Path(directory, f"{cell_id}{CELL_FILES[kind]}")


def cell_id_of(path, kind: str) -> str:
    """The name of ``path`` less the suffix of ``kind``, or else less its last suffix."""
    name, suffix = os.path.basename(path), CELL_FILES[kind]
    return name[: -len(suffix)] if name.endswith(suffix) else Path(name).stem


def load_capacity_csv(
    path,
    cell_id: Optional[str] = None,
    q_nom_ah: Optional[float] = None,
) -> CapacityFadeSeries:
    """Read a ``cycle,discharge_capacity_ah`` CSV into a CapacityFadeSeries.

    Metadata comes from an optional sidecar ``<basename>.meta.json`` with
    fields ``cell_id`` and ``q_nom_ah``; explicit arguments override the
    sidecar. A missing nominal capacity is an error because normalization
    needs the cell's rating, not a value inferred from the data. The CSV is
    read first, so a file that cannot be read is "cannot read <path>" with
    or without ``q_nom_ah``.
    """
    path = Path(path)
    _, values, lines = read_csv(path, CAPACITY_HEADER)
    name = cell_id_of(path, "capacity")
    sidecar = cell_path(path.parent, name, "meta")
    meta = parse_json(read_text(sidecar), sidecar) if sidecar.exists() else {}
    if not isinstance(meta, dict):
        raise InputError(f"{sidecar}: expected a JSON object")
    if cell_id is None:
        source = sidecar if "cell_id" in meta else path
        cell_id = check_cell_id(meta.get("cell_id", name), source)
    if q_nom_ah is None:
        q_nom_ah = meta.get("q_nom_ah")
    if q_nom_ah is None:
        raise NonPositiveNominal(
            f"no q_nom_ah for {path.name}: provide a sidecar {sidecar.name} or an override"
        )
    try:  # a numeric string reads as float() reads it
        number = as_number(float(q_nom_ah) if isinstance(q_nom_ah, str) else q_nom_ah)
    except ValueError:
        number = None
    if number is None:
        raise NonPositiveNominal(f"{path.name}: q_nom_ah={q_nom_ah!r} is not a number")
    return CapacityFadeSeries(
        cell_id=cell_id,
        cycles=cycle_column(path, values[:, 0], lines),
        capacity_ah=values[:, 1],
        q_nom_ah=number,
    )


def resample_even(series: CapacityFadeSeries) -> CapacityFadeSeries:
    """Resample onto a unit-spaced cycle grid with a natural cubic spline.

    Input that is already unit-spaced is returned unchanged, bitwise: the
    cycles are strictly increasing ints, so they are a unit grid exactly
    when the last is the first plus the count less one. A grid of more than
    ``MAX_GRID_CYCLES`` cycles is an InputError, raised before anything is
    allocated. The spline runs on cycles counted from the first, which
    float64 holds exactly, so its values do not depend on the offset. A
    spline that leaves the finite positive range between knots is
    NonPositiveCapacity naming the first cycle where it does.
    """
    cycles = series.cycles
    first, last = int(cycles[0]), int(cycles[-1])  # Python ints: no int64 wrap
    if last - first == len(cycles) - 1:
        return series
    if len(cycles) < 4:
        raise TooShort("cubic resampling of uneven cycles needs at least 4 points")
    if last - first >= MAX_GRID_CYCLES:
        raise InputError(f"cycles {first} to {last} span more than {MAX_GRID_CYCLES} cycles,"
                         " the most a unit grid may hold")
    from scipy.interpolate import CubicSpline  # only uneven grids need it; slow to import

    spline = CubicSpline((cycles - first).astype(np.float64), series.capacity_ah,
                         bc_type="natural")
    steps = np.arange(last - first + 1, dtype=np.int64)
    capacity = spline(steps.astype(np.float64))
    outside = ~((capacity > 0) & (capacity < np.inf))  # NaN fails both
    if outside.any():
        k = int(np.argmax(outside))
        raise NonPositiveCapacity(
            f"cubic resampling left the finite positive range at cycle {first + k}"
            f" (capacity {float(capacity[k])!r}), though every given capacity is positive"
        )
    return CapacityFadeSeries(
        cell_id=series.cell_id,
        cycles=steps + first,
        capacity_ah=capacity,
        q_nom_ah=series.q_nom_ah,
    )


def normalize(series: CapacityFadeSeries) -> NormalizedSeries:
    """Divide capacities by the cell's initial nominal capacity."""
    return NormalizedSeries(
        cycles=series.cycles, values=series.capacity_ah / series.q_nom_ah
    )


def find_eol(series, threshold: float = 0.8) -> Optional[int]:
    """First cycle at which the normalized value is <= threshold, or None.

    Works on any series with ``cycles`` and ``values`` (read by ``as_array``);
    the identification pipeline passes the smoothed series so a single noisy
    sample cannot trigger the crossing. ``threshold`` must be a real number
    in (0, 1) (``check_fraction``), else InputError.
    """
    threshold = check_fraction(threshold, "threshold")
    below = np.nonzero(as_array(series.values, "values", vector=True) <= threshold)[0]
    if len(below) == 0:
        return None
    return int(series.cycles[below[0]])
