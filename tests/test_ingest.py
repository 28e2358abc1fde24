import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kneescout import cli, ingest
from kneescout.earlypredict import (
    CYCLE_DETAIL_HEADER,
    FEATURE_NAMES,
    LABELS_HEADER,
    CycleRecord,
    load_cycle_detail_csv,
)
from kneescout.errors import (
    InputError,
    KneeScoutError,
    LengthMismatch,
    MalformedRow,
    MissingColumn,
    NonMonotonicCycles,
    NonPositiveCapacity,
    NonPositiveNominal,
    TooShort,
)
from kneescout.ingest import (
    CAPACITY_HEADER,
    CapacityFadeSeries,
    NormalizedSeries,
    find_eol,
    load_capacity_csv,
    normalize,
    read_csv,
    resample_even,
)


def natural_spline_eval(x, y, t):
    """Independent natural-cubic-spline oracle via the tridiagonal system.

    Solves for the knot second derivatives M (with M[0] = M[-1] = 0) and
    evaluates the piecewise cubic at t. Kept free of scipy on purpose.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    h = np.diff(x)
    A = np.zeros((n, n))
    rhs = np.zeros(n)
    A[0, 0] = A[-1, -1] = 1.0
    for i in range(1, n - 1):
        A[i, i - 1] = h[i - 1]
        A[i, i] = 2.0 * (h[i - 1] + h[i])
        A[i, i + 1] = h[i]
        rhs[i] = 6.0 * ((y[i + 1] - y[i]) / h[i] - (y[i] - y[i - 1]) / h[i - 1])
    M = np.linalg.solve(A, rhs)
    k = np.searchsorted(x, t, side="right") - 1
    k = min(max(k, 0), n - 2)
    dx1, dx2 = x[k + 1] - t, t - x[k]
    return (
        M[k] * dx1**3 / (6 * h[k])
        + M[k + 1] * dx2**3 / (6 * h[k])
        + (y[k] / h[k] - M[k] * h[k] / 6) * dx1
        + (y[k + 1] / h[k] - M[k + 1] * h[k] / 6) * dx2
    )


def make_series(cycles, capacity, q_nom=1.1, cell_id="cell"):
    return CapacityFadeSeries(
        cell_id=cell_id,
        cycles=np.asarray(cycles, dtype=np.int64),
        capacity_ah=np.asarray(capacity, dtype=float),
        q_nom_ah=q_nom,
    )


class TestCapacityFadeSeries:
    def test_too_short(self):
        with pytest.raises(TooShort):
            make_series([0, 2], [1.0, 0.9])

    def test_non_monotonic(self):
        with pytest.raises(NonMonotonicCycles):
            make_series([5, 4, 6], [1.0, 1.0, 1.0])

    def test_negative_cycle(self):
        with pytest.raises(NonMonotonicCycles) as info:
            make_series([-1, 0, 1], [1.0, 1.0, 1.0])
        assert (type(info.value), str(info.value)) == (
            NonMonotonicCycles, "cycle indices must be nonnegative")

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch) as info:
            make_series([1, 2, 3], [1.0, 0.9])
        assert (type(info.value), str(info.value)) == (
            LengthMismatch, "3 cycle indices vs 2 capacity values")

    def test_non_positive_capacity(self):
        with pytest.raises(NonPositiveCapacity):
            make_series([1, 2, 3], [1.0, -0.1, 1.0])

    def test_non_positive_nominal(self):
        with pytest.raises(NonPositiveNominal):
            make_series([1, 2, 3], [1.0, 1.0, 1.0], q_nom=0.0)

    def test_nominal_whose_quotient_overflows(self):
        # rejected without the overflow RuntimeWarning, an error in this suite
        with pytest.raises(InputError, match="q_nom_ah=1e-300"):
            make_series([1, 2, 3], [1e306, 1.0, 1.0], q_nom=1e-300)
        fits = make_series([1, 2, 3], [1e8, 1.0, 1.0], q_nom=1e-300)
        assert np.isfinite(normalize(fits).values).all()


class TestLoadCapacityCsv:
    def test_basic_parse(self, tmp_path):
        p = tmp_path / "cellA.csv"
        p.write_text("cycle,discharge_capacity_ah\n1,1.10\n2,1.09\n3,1.08\n")
        series = load_capacity_csv(p, q_nom_ah=1.1)
        assert len(series) == 3
        assert series.cell_id == "cellA"
        assert series.cycles.tolist() == [1, 2, 3]
        np.testing.assert_allclose(series.capacity_ah, [1.10, 1.09, 1.08])

    def test_crlf_and_bom_accepted(self, tmp_path):
        p = tmp_path / "b.csv"
        p.write_bytes(b"\xef\xbb\xbfcycle,discharge_capacity_ah\r\n1,1.0\r\n2,0.9\r\n3,0.8\r\n")
        assert len(load_capacity_csv(p, q_nom_ah=1.0)) == 3

    def test_sidecar_metadata(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("cycle,discharge_capacity_ah\n1,1.0\n2,0.9\n3,0.8\n")
        (tmp_path / "c.meta.json").write_text('{"cell_id": "b1c0", "q_nom_ah": 1.1}')
        series = load_capacity_csv(p)
        assert series.cell_id == "b1c0"
        assert series.q_nom_ah == 1.1

    def test_override_beats_sidecar(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("cycle,discharge_capacity_ah\n1,1.0\n2,0.9\n3,0.8\n")
        (tmp_path / "c.meta.json").write_text('{"cell_id": "x", "q_nom_ah": 1.1}')
        series = load_capacity_csv(p, cell_id="y", q_nom_ah=2.0)
        assert (series.cell_id, series.q_nom_ah) == ("y", 2.0)

    def test_missing_nominal(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("cycle,discharge_capacity_ah\n1,1.0\n2,0.9\n3,0.8\n")
        with pytest.raises(NonPositiveNominal):
            load_capacity_csv(p)

    def test_wrong_header(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("cycle,capacity\n1,1.0\n")
        with pytest.raises(MissingColumn):
            load_capacity_csv(p, q_nom_ah=1.0)

    def test_non_monotonic_rows(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("cycle,discharge_capacity_ah\n5,1.0\n4,0.9\n6,0.8\n")
        with pytest.raises(NonMonotonicCycles):
            load_capacity_csv(p, q_nom_ah=1.0)

    def test_negative_capacity_row(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("cycle,discharge_capacity_ah\n1,1.0\n2,-0.1\n3,0.8\n")
        with pytest.raises(NonPositiveCapacity):
            load_capacity_csv(p, q_nom_ah=1.0)

    @pytest.mark.parametrize("cell_id", ["7", "null", "[\"a\"]", "{}"])
    def test_sidecar_cell_id_must_be_a_string(self, tmp_path, cell_id):
        p = tmp_path / "h.csv"
        p.write_text("cycle,discharge_capacity_ah\n1,1.0\n2,0.9\n3,0.8\n")
        (tmp_path / "h.meta.json").write_text(f'{{"cell_id": {cell_id}, "q_nom_ah": 1.1}}')
        with pytest.raises(InputError, match="h.meta.json: cell_id must be a string"):
            load_capacity_csv(p)

    @pytest.mark.parametrize("cell_id", ["a\\nb", "a\\rb", "\\r\\n"])
    def test_sidecar_cell_id_must_fit_on_one_line(self, tmp_path, cell_id):
        p = tmp_path / "h.csv"
        p.write_text("cycle,discharge_capacity_ah\n1,1.0\n2,0.9\n3,0.8\n")
        (tmp_path / "h.meta.json").write_text(f'{{"cell_id": "{cell_id}", "q_nom_ah": 1.1}}')
        with pytest.raises(InputError, match="h.meta.json: cell_id .* holds a line break"):
            load_capacity_csv(p)

    def test_file_name_cell_id_must_fit_on_one_line(self, tmp_path):
        p = tmp_path / "a\rb.csv"
        p.write_text("cycle,discharge_capacity_ah\n1,1.0\n2,0.9\n3,0.8\n")
        with pytest.raises(InputError, match="holds a line break"):
            load_capacity_csv(p, q_nom_ah=1.1)
        assert load_capacity_csv(p, cell_id="ab", q_nom_ah=1.1).cell_id == "ab"


@pytest.mark.floors
class TestCellFiles:
    """``cell_path`` names a cell's files and ``cell_id_of`` reads the id back."""

    @pytest.mark.parametrize("cell_id", ["fleet-42-000", "x.cycles.csv-0", "a.b", "x.csv", ""])
    @pytest.mark.parametrize("kind", sorted(ingest.CELL_FILES))
    def test_round_trip(self, tmp_path, cell_id, kind):
        path = ingest.cell_path(tmp_path, cell_id, kind)
        assert path.parent == tmp_path
        assert ingest.cell_id_of(path, kind) == cell_id

    def test_a_name_without_the_suffix_reads_as_its_stem(self):
        assert ingest.cell_id_of("cell.txt", "cycles") == "cell"
        assert ingest.cell_id_of("x.cycles.csv", "capacity") == "x.cycles"


class TestResampleEven:
    """Marked floors: the uneven-grid resampling is the package's one SciPy call
    (``CubicSpline``), so it runs at the oldest SciPy too.
    """

    def test_identity_on_unit_spacing(self):
        series = make_series([3, 4, 5, 6], [1.0, 0.99, 0.97, 0.9])
        out = resample_even(series)
        assert out.cycles.tolist() == series.cycles.tolist()
        assert np.array_equal(out.capacity_ah, series.capacity_ah)

    def test_against_tridiagonal_oracle(self):
        # Frozen from the oracle: natural spline through (0,0),(1,1),(3,9),(4,16)
        # has interior second derivatives M1 = M2 = 9/4, hence value 3.875 at x=2.
        x, y = [0, 1, 3, 4], [0.0, 1.0, 9.0, 16.0]
        assert natural_spline_eval(x, y, 2.0) == pytest.approx(3.875, abs=1e-12)
        series = make_series(x, np.asarray(y) + 1.0)  # keep capacities positive
        out = resample_even(series)
        assert out.cycles.tolist() == [0, 1, 2, 3, 4]
        assert out.capacity_ah[2] == pytest.approx(3.875 + 1.0, abs=1e-9)
        # knots are reproduced
        np.testing.assert_allclose(out.capacity_ah[[0, 1, 3, 4]], series.capacity_ah)

    def test_uneven_too_short(self):
        series = make_series([0, 2, 5], [1.0, 0.9, 0.8])
        with pytest.raises(TooShort):
            resample_even(series)

    @given(
        start=st.integers(0, 50),
        values=st.lists(st.floats(0.5, 1.5), min_size=3, max_size=40),
    )
    @settings(max_examples=50, deadline=None)
    def test_identity_property(self, start, values):
        cycles = np.arange(start, start + len(values))
        series = make_series(cycles, values)
        out = resample_even(series)
        assert np.array_equal(out.capacity_ah, series.capacity_ah)


class TestNormalizedSeries:
    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch) as info:
            NormalizedSeries([1, 2, 3], [1.0, 0.9])
        assert (type(info.value), str(info.value)) == (
            LengthMismatch, "cycles and values differ in length")


class TestNormalize:
    def test_identity(self):
        series = make_series([1, 2, 3], [1.1, 1.1, 1.1], q_nom=1.1)
        np.testing.assert_array_equal(normalize(series).values, [1.0, 1.0, 1.0])

    def test_arithmetic(self):
        series = make_series([1, 2, 3], [1.1, 1.1, 0.99], q_nom=1.1)
        out = normalize(series)
        assert out.values[2] == pytest.approx(0.9)

    @given(
        scale_pow=st.integers(-6, 6),
        values=st.lists(st.floats(0.1, 2.0), min_size=3, max_size=20),
    )
    @settings(max_examples=50, deadline=None)
    def test_joint_scaling_bitwise_for_dyadic(self, scale_pow, values):
        c = 2.0**scale_pow
        cycles = np.arange(len(values))
        base = normalize(make_series(cycles, values, q_nom=1.25))
        scaled = normalize(make_series(cycles, np.asarray(values) * c, q_nom=1.25 * c))
        assert np.array_equal(base.values, scaled.values)


class TestFindEol:
    def test_linear_crossing(self):
        cycles = np.arange(0, 1001)
        values = 1.0 - 0.4 * cycles / 1000.0
        assert find_eol(NormalizedSeries(cycles, values), 0.8) == 500

    def test_never_crosses(self):
        series = NormalizedSeries(np.arange(5), np.full(5, 0.95))
        assert find_eol(series, 0.8) is None

    def test_first_cycle_already_below(self):
        series = NormalizedSeries(np.arange(3, 8), np.array([0.79, 0.78, 0.7, 0.6, 0.5]))
        assert find_eol(series, 0.8) == 3

    @given(
        threshold_lo=st.floats(0.5, 0.7),
        threshold_hi=st.floats(0.71, 0.95),
        values=st.lists(st.floats(0.3, 1.2), min_size=3, max_size=50),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_threshold(self, threshold_lo, threshold_hi, values):
        series = NormalizedSeries(np.arange(len(values)), np.asarray(values))
        lo = find_eol(series, threshold_lo)
        hi = find_eol(series, threshold_hi)
        if lo is not None:
            assert hi is not None and hi <= lo

    def test_any_series_with_cycles_and_values(self):
        # the values are read by the array rule, as a NormalizedSeries reads them
        assert find_eol(types.SimpleNamespace(cycles=[1, 2, 3], values=[0.9, 0.8, 0.7])) == 2
        with pytest.raises(InputError, match="^values: cannot read as float64 values"):
            find_eol(types.SimpleNamespace(cycles=[1, 2, 3], values=["0.9", "0.8", "0.7"]))

    @pytest.mark.parametrize("threshold", [0.0, 1.0, 1.5, -0.2, float("nan")])
    def test_threshold_outside_unit_interval_is_input_error(self, threshold):
        series = NormalizedSeries(np.arange(5), np.full(5, 0.95))
        with pytest.raises(InputError, match=rf"^threshold: must be in \(0, 1\), got {threshold}$"):
            find_eol(series, threshold)


# --- the input boundary -----------------------------------------------------
#
# The csv-module loops below are the per-format readers this package used
# before one shared reader served every input file. They stay here as the
# reference the shared reader must match, value for value and bit for bit.


def reference_capacity(path, q_nom_ah=1.0):
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MissingColumn(f"{path.name}: empty file") from None
        header = tuple(h.strip() for h in header)
        if header != CAPACITY_HEADER:
            raise MissingColumn(f"{path.name}: expected header")
        cycles, capacity = [], []
        for row in reader:
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) < 2:
                raise MissingColumn(f"{path.name}: short row {row!r}")
            cycles.append(int(float(row[0])))
            capacity.append(float(row[1]))
    return CapacityFadeSeries(
        cell_id=path.stem,
        cycles=np.array(cycles, dtype=np.int64),
        capacity_ah=np.array(capacity, dtype=np.float64),
        q_nom_ah=float(q_nom_ah),
    )


def reference_cycle_detail(path):
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = tuple(h.strip() for h in next(reader))
        except StopIteration:
            raise MissingColumn(f"{path.name}: empty file") from None
        if header != CYCLE_DETAIL_HEADER:
            raise MissingColumn(f"{path.name}: expected header")
        groups, last_cycle = {}, None
        for row in reader:
            if not row or all(not c.strip() for c in row):
                continue
            try:
                cyc = float(row[0])
                point = (float(row[1]), float(row[2]))
                if not abs(cyc) < 2.0**63:  # not an int64 index, as in cycle_column
                    raise ValueError(row[0])
                cyc = int(cyc)
            except (ValueError, IndexError):
                raise MalformedRow(f"{path.name}: line {reader.line_num}") from None
            if cyc != last_cycle and cyc in groups:
                raise MissingColumn(f"{path.name}: rows for cycle {cyc} are not contiguous")
            groups.setdefault(cyc, []).append(point)
            last_cycle = cyc
    if not groups:  # a file with no cycle rows is no cell
        raise InputError(f"{path.name}: no cycle rows after the header")
    records = {}
    for cyc, rows in groups.items():
        v, q = zip(*rows)
        records[cyc] = CycleRecord(cycle=cyc, voltage_v=np.array(v), q_ah=np.array(q))
    return records


def _csv_rows(path):
    return csv.reader(io.StringIO(path.read_text(encoding="utf-8-sig"), newline=""))


def reference_features(path):
    reader = _csv_rows(path)
    expected = ["cell_id", *FEATURE_NAMES]
    if [h.strip() for h in next(reader, [])] != expected:
        raise InputError(f"{path}: expected header")
    ids, rows = [], []
    for row in reader:
        if not row:
            continue
        try:
            values = [float(v) for v in row[1:]]
        except ValueError:
            values = None
        if values is None or len(values) != len(FEATURE_NAMES):
            raise MalformedRow(f"{path}: line {reader.line_num}")
        ids.append(row[0])
        rows.append(values)
    return ids, np.array(rows)


def reference_labels(path):
    reader = _csv_rows(path)
    if [h.strip() for h in next(reader, [])] != ["cell_id", "onset_cycle"]:
        raise InputError(f"{path}: expected header")
    labels = {}
    for row in reader:
        if not row:
            continue
        try:
            cell_id, onset = row
            labels[cell_id] = float(onset)
        except ValueError:
            raise MalformedRow(f"{path}: line {reader.line_num}") from None
    return labels


def drop_blank_rows(path):
    """Remove rows of empty fields, which the old features and labels loops
    rejected but the shared reader skips in every file."""
    text = path.read_text(encoding="utf-8-sig")
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    kept = [ln for ln in lines if any(f.strip() for f in next(csv.reader([ln]), []))]
    path.write_text("\n".join(kept) + "\n", encoding="utf-8")


def outcome(fn, path):
    try:
        return fn(path), None
    except Exception as exc:  # the reference lets raw errors escape
        return None, exc


def expected_error(exc):
    """The class the shared reader raises where a reference loop raised ``exc``."""
    row_level = isinstance(exc, MissingColumn) and (
        "short row" in str(exc) or "not contiguous" in str(exc)
    )
    if row_level or not isinstance(exc, KneeScoutError):
        return MalformedRow
    return type(exc)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def new_features(path):
    ids, X, _ = read_csv(path, cli.FEATURES_HEADER, ids=True)
    return ids, X


def new_labels(path):
    ids, onsets, _ = read_csv(path, cli.LABELS_HEADER, ids=True)
    return dict(zip(ids, onsets[:, 0].tolist()))


def same_capacity(new, old):
    return same_bits(new.cycles, old.cycles) and same_bits(new.capacity_ah, old.capacity_ah)


def same_cycle_detail(new, old):
    return list(new) == list(old) and all(
        type(k) is int and new[k].cycle == old[k].cycle
        and same_bits(new[k].voltage_v, old[k].voltage_v)
        and same_bits(new[k].q_ah, old[k].q_ah)
        for k in old
    )


def same_features(new, old):
    (new_ids, new_X), (old_ids, old_X) = new, old
    return new_ids == old_ids and same_bits(new_X, old_X.reshape(-1, len(FEATURE_NAMES)))


def same_labels(new, old):
    return list(new) == list(old) and same_bits(list(new.values()), list(old.values()))


FORMATS = {
    "capacity": (
        CAPACITY_HEADER, lambda p: load_capacity_csv(p, q_nom_ah=1.0),
        reference_capacity, same_capacity,
    ),
    "cycle_detail": (
        CYCLE_DETAIL_HEADER, load_cycle_detail_csv, reference_cycle_detail,
        same_cycle_detail,
    ),
    "features": (("cell_id", *FEATURE_NAMES), new_features, reference_features, same_features),
    "labels": (("cell_id", "onset_cycle"), new_labels, reference_labels, same_labels),
}

BAD_TOKENS = ["", " ", "abc", "nan", "inf", "-inf", "NaN", "1e400", "1_0", "١٢", "\x1c1",
              "0x10", "+.5", "5.", "-0.0", "1e3", "Infinity", "1e19"]
BLANK_LINES = ["", " ", "\t", ",", " , ,", '"",""', '""', "\xa0,"]
PADS = ["", " ", "\t", "\xa0"]


@st.composite
def field(draw, text):
    """``text`` padded with whitespace and perhaps quoted."""
    left, right = draw(st.sampled_from(PADS)), draw(st.sampled_from(PADS))
    if draw(st.booleans()):
        return f'"{left}{text}{right}"'
    return f"{left}{text}{right}"


def number_text(lo, hi):
    return st.one_of(
        st.floats(lo, hi).map(repr), st.floats(lo, hi).map(lambda x: f"{x:.3f}"),
        st.integers(math.ceil(lo), math.floor(hi)).map(str),
    )


def cell_id_text(text):
    return '"' + text.replace('"', '""') + '"' if ("," in text or '"' in text) else text


@st.composite
def csv_text(draw, fmt):
    """A file of the given format: BOM or not, LF, CRLF or CR line ends, blank
    and whitespace-only rows, padded and quoted fields, fractional and
    negative cycles; extra columns in half the capacity and cycle files, and
    in half of all files one damaged row."""
    header = FORMATS[fmt][0]
    n = draw(st.integers(0, 10))
    damaged = draw(st.integers(-n, n - 1)) if n else -1
    extra = fmt in ("capacity", "cycle_detail") and draw(st.booleans())
    rows, cycles = [], [draw(st.integers(-2, 30))]
    for i in range(n):
        if draw(st.integers(0, 5)) == 0:
            rows.append(draw(st.sampled_from(BLANK_LINES)))
        # a cycle-detail file keeps each cycle to at least two contiguous rows
        if fmt != "cycle_detail":
            cycles.append(cycles[-1] + 1)
        elif i < 2 or i == n - 1 or cycles[-1] != cycles[-2]:
            cycles.append(cycles[-1])
        else:
            cycles.append(cycles[-1] + draw(st.sampled_from([0, 1, 1])))
        # fractional cycles truncate toward zero, as int(float(x)) does
        cycle = f"{cycles[-1]}{draw(st.sampled_from(['', '.0', '.25', '.99']))}"
        if fmt == "capacity":
            texts = [cycle, draw(number_text(0.5, 1.2))]
        elif fmt == "cycle_detail":
            texts = [cycle, repr(4.0 - 0.01 * i), repr(0.01 * i)]
        else:
            ident = cell_id_text(draw(st.text(alphabet="ab1-_ ,\"", max_size=3)))
            texts = [ident] + [draw(number_text(-1e3, 1e3)) for _ in header[1:]]
        fields = [texts[0] if fmt in ("features", "labels") else draw(field(texts[0]))]
        fields += [draw(field(t)) for t in texts[1:]]
        if extra:
            fields += [draw(field(draw(number_text(0, 9))))]
        if i == damaged:
            kind = draw(st.sampled_from(["token", "token", "short", "long", "quote", "revisit"]))
            k = draw(st.integers(0, len(fields) - 1))
            if kind == "token":
                fields[k] = draw(st.sampled_from(BAD_TOKENS))
            elif kind == "short":
                fields = fields[:k]
            elif kind == "long":
                fields += ["1", "2"]
            elif kind == "quote":  # a quote after a space is a literal character
                fields[k] = f' "{texts[min(k, len(texts) - 1)]}"'
            else:  # a cycle seen before: non-contiguous in a cycle-detail file
                fields[0] = str(cycles[0] - 1 if fmt == "capacity" else cycles[0])
        rows.append(",".join(fields))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    tail = draw(st.sampled_from(["", eol, eol + eol]))
    return bom + eol.join([",".join(header), *rows]) + tail


@pytest.mark.floors
class TestSharedReaderMatchesReference:
    """The shared reader keeps the old readers' accepted inputs and values.

    Marked floors: the shared reader must keep these values at the oldest NumPy too.
    """

    @pytest.mark.parametrize("fmt", sorted(FORMATS))
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_same_values_or_same_error_class(self, fmt, data, tmp_path_factory):
        self.check(fmt, data.draw(csv_text(fmt)), tmp_path_factory.mktemp(fmt))

    # Draws that once failed the test above; st.data() draws cannot be
    # pinned with @example, so they run here through the same check.
    @pytest.mark.parametrize("text", [
        "cycle,voltage_v,discharge_capacity_ah\n0,4.0,0.0,0.0\n1e19,3.99,0.01,0.0",
        "cycle,voltage_v,discharge_capacity_ah\n\n1e19,4.0,0.0",
    ], ids=["after-cycle-0", "after-blank-line"])
    def test_recorded_cycle_detail_draws(self, text, tmp_path):
        self.check("cycle_detail", text, tmp_path)

    @staticmethod
    def check(fmt, text, directory):
        _, new, reference, same = FORMATS[fmt]
        path = directory / "cell.csv"
        path.write_bytes(text.encode("utf-8"))
        got, error = outcome(new, path)
        if fmt in ("features", "labels"):
            drop_blank_rows(path)
        want, old_error = outcome(reference, path)
        if old_error is None:
            assert error is None, f"shared reader rejected an accepted input: {error!r}"
            assert same(got, want)
        else:
            assert type(error) is expected_error(old_error), (error, old_error)


FUZZ_ALPHABET = ',"\n\r \t\xa0﻿\x00{}[]:=#0123456789.-+eEinfaINFA_x'


def fuzz_bytes(header=None):
    """Arbitrary bytes, CSV-like text, and CSV-like text under a valid header."""
    text = st.text(alphabet=FUZZ_ALPHABET, max_size=200)
    options = [st.binary(max_size=200), text.map(str.encode)]
    if header:
        options.append(text.map(lambda t: (",".join(header) + "\n" + t).encode()))
    return st.one_of(*options)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["cell_id", "q_nom_ah", "x"]), inner, max_size=3),
    max_leaves=6,
)
SIDECAR_BYTES = st.one_of(
    fuzz_bytes(), JSON_VALUES.map(lambda v: json.dumps(v).encode()),
    st.builds(lambda c, q: json.dumps({"cell_id": c, "q_nom_ah": q}).encode(),
              JSON_VALUES, JSON_VALUES),
)
CONFIG_KEYS = sorted(cli._CONFIG_CASTS) + ["seed", "gbrt", ""]
CONFIG_BYTES = st.one_of(
    fuzz_bytes(),
    st.lists(st.tuples(st.sampled_from(CONFIG_KEYS), st.text(alphabet=FUZZ_ALPHABET, max_size=8)),
             max_size=4).map(lambda kv: "\n".join(f"{k} = {v}" for k, v in kv).encode()),
)
CAPACITY_OK = "cycle,discharge_capacity_ah\n1,1.0\n2,0.99\n3,0.98\n"


def load_with_sidecar(path):
    path.write_text(CAPACITY_OK)
    return load_capacity_csv(path)


def load_config(path):
    return cli._resolve_params(argparse.Namespace(), cli._read_config(path))


FUZZ_TARGETS = {
    "capacity": (fuzz_bytes(CAPACITY_HEADER), "cell.csv", lambda p: load_capacity_csv(p, q_nom_ah=1.0)),
    "cycle_detail": (fuzz_bytes(CYCLE_DETAIL_HEADER), "cell.cycles.csv", load_cycle_detail_csv),
    "features": (fuzz_bytes(cli.FEATURES_HEADER), "features.csv", new_features),
    "labels": (fuzz_bytes(cli.LABELS_HEADER), "labels.csv", new_labels),
    "sidecar": (SIDECAR_BYTES, "cell.meta.json", lambda p: load_with_sidecar(p.with_name("cell.csv"))),
    "config": (CONFIG_BYTES, "knee.cfg", load_config),
}


class TestInputFuzz:
    """Any input file either parses or raises a KneeScoutError, nothing else."""

    @pytest.mark.parametrize("target", sorted(FUZZ_TARGETS))
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_parses_or_raises_kneescout_error(self, target, data, tmp_path_factory):
        strategy, name, load = FUZZ_TARGETS[target]
        path = tmp_path_factory.mktemp(target) / name
        path.write_bytes(data.draw(strategy))
        try:
            load(path)
        except KneeScoutError:
            pass


# --- the output side ----------------------------------------------------------

# a cell id may hold anything but a line break
CSV_IDS = st.one_of(
    st.text(st.characters(blacklist_characters="\r\n", blacklist_categories=("Cs",)),
            max_size=8),
    st.sampled_from(["a,b", 'say "hi"', " padded ", '"', ",", "", ' "x']),
)
CSV_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, -2.2250738585072e-308]),
)


class TestCsvText:
    """The writer's output reads back through the reader value for value."""

    @given(rows=st.lists(st.tuples(CSV_IDS, CSV_FLOATS, CSV_FLOATS), max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_read_csv_reads_back_ids_and_float_bits(self, rows, tmp_path_factory):
        header = ("cell_id", "x", "y")
        path = tmp_path_factory.mktemp("written") / "rows.csv"
        ingest.write_text(path, ingest.csv_text(header, rows))
        ids, values, _ = read_csv(path, header, ids=True)
        expected = np.array([row[1:] for row in rows], dtype=np.float64).reshape(-1, 2)
        assert ids == [row[0] for row in rows]
        nan = np.isnan(expected)
        assert same_bits(np.isnan(values), nan)
        assert same_bits(values[~nan], expected[~nan])

    def test_field_forms(self):
        rows = [("x,y", 1.5, 3), ('say "hi"', None, np.int64(-2)), ("plain", np.float64(-0.0), None)]
        assert ingest.csv_text(("cell_id", "a", "b"), rows) == (
            'cell_id,a,b\n"x,y",1.5,3\n"say ""hi""",,-2\nplain,-0.0,\n'
        )

    def test_failed_write_names_the_path_and_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "taken"
        target.mkdir()
        with pytest.raises(InputError, match=f"cannot write {target}"):
            ingest.write_text(target, "text\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]

    def test_unencodable_text_names_the_path_and_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "t.csv"
        with pytest.raises(InputError, match=f"cannot write {target}: .*surrogates"):
            ingest.write_text(target, "cell_id\n\ud800\n")
        assert list(tmp_path.iterdir()) == []


class TestBlankRows:
    @pytest.mark.parametrize("row", ['","', '""""', ' "', '"",","'])
    def test_quoted_text_is_not_a_blank_row(self, tmp_path, row):
        path = tmp_path / "labels.csv"
        path.write_text(f"cell_id,onset_cycle\na,1\n{row}\n")
        with pytest.raises(MalformedRow, match="line 3"):
            read_csv(path, cli.LABELS_HEADER, ids=True)

    @pytest.mark.parametrize("row", ["", " ", ",", '"",""', '" ",""'])
    def test_blank_row_is_skipped(self, tmp_path, row):
        path = tmp_path / "labels.csv"
        path.write_text(f"cell_id,onset_cycle\na,1\n{row}\nb,2\n")
        ids, onsets, lines = read_csv(path, cli.LABELS_HEADER, ids=True)
        assert (ids, onsets[:, 0].tolist(), lines.tolist()) == (["a", "b"], [1.0, 2.0], [2, 4])


@pytest.mark.floors
class TestFloatParse:
    """A file of numbers is parsed as float64 when that parse reads as float().

    Marked floors: the float64 ``np.loadtxt`` fast path must read as ``float()`` at the
    oldest NumPy too.
    """

    def body(self, text):
        lines = text.split("\n")
        return lines[1:-1] if lines[-1] == "" else lines[1:]

    def test_plain_file_takes_the_float64_parse(self, tmp_path):
        text = "cycle,discharge_capacity_ah\n1,1.0\n2, 0.99\n3,\"0.98\",x\n"
        assert ingest._parse_numbers(text, self.body(text), 2) is not None
        path = tmp_path / "c.csv"
        path.write_text(text, encoding="utf-8")
        _, values, lines = read_csv(path, CAPACITY_HEADER)
        assert values.tolist() == [[1.0, 1.0], [2.0, 0.99], [3.0, 0.98]]
        assert lines.tolist() == [2, 3, 4]

    @pytest.mark.parametrize("token,value", [("1_0", 10.0), ("١", 1.0)])
    def test_float_only_spellings_take_the_text_parse(self, tmp_path, token, value):
        text = f"cycle,discharge_capacity_ah\n1,{token}\n2,0.5\n"
        assert ingest._parse_numbers(text, self.body(text), 2) is None
        path = tmp_path / "c.csv"
        path.write_text(text, encoding="utf-8")
        _, values, lines = read_csv(path, CAPACITY_HEADER)
        assert values.tolist() == [[1.0, value], [2.0, 0.5]]
        assert lines.tolist() == [2, 3]

    @pytest.mark.parametrize("sep", ["\x1c", "\x1d", "\x1e", "\x1f"])
    def test_separator_that_float_rejects_stays_malformed(self, tmp_path, sep):
        # np.loadtxt strips these around a number; float() does not
        text = f"cycle,discharge_capacity_ah\n1,1.0\n2,{sep}0.5\n"
        assert ingest._parse_numbers(text, self.body(text), 2) is None
        path = tmp_path / "c.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(MalformedRow, match="line 3"):
            read_csv(path, CAPACITY_HEADER)

    def test_blank_line_keeps_line_numbers(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("cycle,discharge_capacity_ah\n1,1.0\n\n2,0.5\n")
        _, values, lines = read_csv(path, CAPACITY_HEADER)
        assert (values.tolist(), lines.tolist()) == ([[1.0, 1.0], [2.0, 0.5]], [2, 4])

    def test_quote_across_lines_takes_the_text_parse(self):
        text = 'cycle,discharge_capacity_ah\n1,"1\n2",3\n'
        assert ingest._parse_numbers(text, self.body(text), 2) is None

    def test_quoted_field_across_lines_is_malformed(self, tmp_path, capsys):
        rows = [f"{k},{1.0 - k * 1e-3!r}" for k in range(1, 80)]
        rows[59] = '60,"1.0\n4",x'
        path = tmp_path / "cell.csv"
        path.write_text("cycle,discharge_capacity_ah\n" + "\n".join(rows) + "\n")
        with pytest.raises(MalformedRow, match="line 61: a quoted field runs across lines"):
            read_csv(path, CAPACITY_HEADER)
        out = tmp_path / "r.json"
        assert cli.main(["identify", "--input", str(path), "--q-nom", "1.0",
                         "--out", str(out)]) == 1
        assert "a quoted field runs across lines" in capsys.readouterr().err
        assert not out.exists()

    def test_quoted_id_file_field_across_lines_is_malformed(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text('cell_id,onset_cycle\na,100\nb,"2\n00"\nc,300\n')
        with pytest.raises(MalformedRow, match="line 3: a quoted field runs across lines"):
            read_csv(path, LABELS_HEADER, ids=True)

    def test_header_quote_into_line_2_is_rejected(self, tmp_path):
        # read across lines, the header would be cycle,discharge_capacity_ah
        path = tmp_path / "c.csv"
        path.write_text('cycle,"discharge_\ncapacity_ah"\n1,1.0\n2,0.5\n')
        with pytest.raises(MissingColumn, match="got 'cycle,discharge_'"):
            read_csv(path, CAPACITY_HEADER)

    def test_field_over_csv_size_limit_is_malformed(self, tmp_path, capsys):
        path = tmp_path / "cell.csv"
        path.write_text(f"cycle,discharge_capacity_ah\n1,1.0\n2,{'x' * 200_000}\n3,0.9\n")
        with pytest.raises(MalformedRow, match="line 3: field larger than field limit"):
            read_csv(path, CAPACITY_HEADER)
        out = tmp_path / "r.json"
        assert cli.main(["--json-errors", "identify", "--input", str(path), "--q-nom", "1.0",
                         "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and len(err) < 1000
        assert json.loads(err)["error"] == "MalformedRow"
        assert not out.exists()

    @pytest.mark.parametrize("text", ["", "\n", "\n\n", "\n \n"])
    def test_no_rows_warns_nothing(self, tmp_path, text):
        path = tmp_path / "c.csv"
        path.write_text("cycle,discharge_capacity_ah" + text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, values, lines = read_csv(path, CAPACITY_HEADER)
        assert values.shape == (0, 2) and len(lines) == 0


COLD_START = """
import json, sys
ours = lambda: sorted(m for m in sys.modules if m.startswith("kneescout."))
import kneescout
after_import = ours()
kneescout.identify_knees
after_identify = ours()
from kneescout.ingest import CapacityFadeSeries, resample_even
from kneescout.synthgen import generate_fleet
(cell, _), = generate_fleet(1, seed=3, n_cycles=600)
report = kneescout.identify_knees(cell)
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
series = CapacityFadeSeries("cell", [0, 1, 3, 4, 7], [1.0, 2.0, 10.0, 17.0, 20.0], 1.1)
out = resample_even(series)
print(json.dumps({"after_import": after_import, "after_identify": after_identify,
                  "loaded": loaded, "onset": report.onset_cycle,
                  "interpolate": "scipy.interpolate" in sys.modules,
                  "cycles": out.cycles.tolist(), "capacity": out.capacity_ah.tolist()}))
"""


@pytest.mark.floors
class TestColdStart:
    """Marked floors: at the oldest NumPy and SciPy, importing the package and an even-grid
    ``identify_knees`` must still load no SciPy module. Importing the package loads none of
    its modules, and its first name loads only the modules that name needs.
    """

    def test_import_and_even_grid_identify_load_no_scipy(self):
        src = str(Path(ingest.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", COLD_START], capture_output=True, text=True,
            timeout=120, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout)
        assert got["after_import"] == []
        assert got["after_identify"] == [
            f"kneescout.{m}"
            for m in ("errors", "ingest", "matrixprofile", "preprocess", "rules", "segmentation")
        ]
        assert got["loaded"] == []
        assert got["onset"] > 0
        assert got["interpolate"]  # the first uneven grid imports it
        assert got["cycles"] == list(range(8))
        x, y = [0, 1, 3, 4, 7], [1.0, 2.0, 10.0, 17.0, 20.0]
        want = [natural_spline_eval(x, y, t) for t in range(8)]
        np.testing.assert_allclose(got["capacity"], want, rtol=0, atol=1e-9)
