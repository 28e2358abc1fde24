"""Loading, validation, resampling, and normalization of capacity-fade data.

The canonical representation downstream of this module is a unit-spaced
cycle grid: every identified boundary is a cycle number on that grid. The
first cycle index of the input is authoritative and is never renumbered.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import (
    IndexOutOfRange,
    InputError,
    LengthMismatch,
    MalformedRow,
    MissingColumn,
    NonFiniteInput,
    NonMonotonicCycles,
    NonPositiveCapacity,
    NonPositiveNominal,
    TooShort,
)

CAPACITY_HEADER = ("cycle", "discharge_capacity_ah")

# the suffixes of cell <id>'s files in an experiment directory (README)
CELL_FILES = {"capacity": ".csv", "meta": ".meta.json", "truth": ".truth.json",
              "cycles": ".cycles.csv"}


@dataclass(frozen=True)
class CapacityFadeSeries:
    """Per-cell discharge capacity (Ah) indexed by cycle number."""

    cell_id: str
    cycles: np.ndarray
    capacity_ah: np.ndarray
    q_nom_ah: float

    def __post_init__(self):
        check_cell_id(self.cell_id, "CapacityFadeSeries")
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
        q_nom = as_number(self.q_nom_ah)
        if q_nom is None or not 0 < q_nom < math.inf:
            raise NonPositiveNominal(f"q_nom_ah={self.q_nom_ah!r}")
        # Python floats: an overflowing quotient is inf, without a warning
        if not math.isfinite(float(capacity.max()) / q_nom):
            raise InputError(
                f"q_nom_ah={self.q_nom_ah!r} makes capacity / q_nom_ah overflow"
            )

    def __len__(self) -> int:
        return len(self.cycles)


@dataclass(frozen=True)
class NormalizedSeries:
    """Values on a unit-spaced cycle grid: the normalized capacity fraction,
    its smoothing or its curvature."""

    cycles: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "cycles", np.asarray(self.cycles, dtype=np.int64))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if self.cycles.shape != self.values.shape:
            raise LengthMismatch("cycles and values differ in length")

    def __len__(self) -> int:
        return len(self.cycles)


def as_number(value, integral: bool = False):
    """``value`` as an ``int`` if ``integral``, else as a ``float``; None if
    it is a bool or not a number of that kind (``numbers.Integral``,
    ``numbers.Real``).

    This is the library's one rule for a number it is given. A NumPy scalar
    or a ``Fraction`` is a number; a string, None or a NumPy bool is not. A
    real number past float64 reads as +-inf, so the caller's range check
    rejects it like any other infinity.
    """
    if isinstance(value, bool):
        return None
    if integral:
        return int(value) if isinstance(value, numbers.Integral) else None
    if not isinstance(value, numbers.Real):
        return None
    try:
        return float(value)
    except OverflowError:  # an int or a Fraction past float64
        return math.inf if value > 0 else -math.inf


def check_count(value, name: str, low: int, error=InputError) -> int:
    """``value`` as an int >= ``low`` if ``as_number`` reads it as an integer,
    else ``error`` naming ``name``."""
    count = as_number(value, integral=True)
    if count is None or count < low:
        raise error(f"{name} must be an int >= {low}, got {value!r}")
    return count


def check_number(value, name: str, integral: bool = False, error=InputError):
    """``value`` as ``as_number`` reads it, else ``error`` naming ``name``."""
    number = as_number(value, integral)
    if number is None:
        kind = "an int" if integral else "a real number"
        raise error(f"{name} must be {kind}, got {value!r}")
    return number


def check_fraction(value, name: str) -> float:
    """``value`` as a float in (0, 1), else InputError naming ``name``."""
    number = check_number(value, name)
    if not 0.0 < number < 1.0:
        raise InputError(f"{name}: must be in (0, 1), got {value}")
    return number


def check_finite(values: np.ndarray, name: str) -> None:
    """NonFiniteInput naming ``name`` if ``values`` hold NaN or an infinity."""
    if not np.isfinite(values).all():
        raise NonFiniteInput(f"{name} holds a non-finite value")


# The rules below belong to the segmentation and Bacon-Watts stages, which
# import config; they live here so that config can call them too.

def check_nonnegative(value, name: str) -> int:
    """``value`` as an int >= 0 (a boundary count or an exclusion radius),
    else IndexOutOfRange naming ``name``."""
    number = check_number(value, name, integral=True)
    if number < 0:
        raise IndexOutOfRange(f"{name} must be >= 0, got {number}")
    return number


def check_gamma(gamma) -> float:
    """The Bacon-Watts transition width as a float, positive and finite, else InputError."""
    number = check_number(gamma, "gamma")
    if not 0.0 < number < math.inf:
        raise InputError(f"gamma: must be positive and finite, got {gamma}")
    return number


def check_max_iter(max_iter) -> int:
    """The Levenberg-Marquardt iteration cap as an int >= 1, else InputError."""
    number = check_number(max_iter, "max_iter", integral=True)
    if number < 1:
        raise InputError(f"max_iter: must be >= 1, got {number}")
    return number


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
    """Read a headed CSV file (UTF-8, optional BOM) in one ``csv.reader`` pass.

    The first line, read on its own, must hold ``header``, fields stripped.
    Rows whose fields are all empty or whitespace are skipped. A file of
    per-cell rows (``ids``) has a cell id first and exactly the header's
    columns; other files hold only numbers and ignore columns past the
    header. Returns ``(ids, values, lines)``: the ids (or None), the numbers
    as float64 (rows, columns) parsed as ``float`` does, and each row's line
    number. A short, long or non-numeric row, a quoted field that runs
    across lines and a row that ``csv`` cannot read (a field over its size
    limit) are MalformedRow naming file and line. A file of numbers first
    tries a float64 parse; any other file, and any that this parse may read
    otherwise than ``float``, is parsed as text.
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
    needs the cell's rating, not a value inferred from the data.
    """
    path = Path(path)
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

    _, values, lines = read_csv(path, CAPACITY_HEADER)
    return CapacityFadeSeries(
        cell_id=cell_id,
        cycles=cycle_column(path, values[:, 0], lines),
        capacity_ah=values[:, 1],
        q_nom_ah=number,
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
    trigger the crossing. ``threshold`` must be a real number in (0, 1)
    (``check_fraction``), else InputError.
    """
    threshold = check_fraction(threshold, "threshold")
    below = np.nonzero(series.values <= threshold)[0]
    if len(below) == 0:
        return None
    return int(series.cycles[below[0]])
