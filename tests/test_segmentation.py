import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import kneescout
from kneescout import PipelineParams
from kneescout.baconwatts import dbw_knee_report
from kneescout.errors import (
    DegenerateWindow,
    EvenWindow,
    IndexOutOfRange,
    InputError,
    InsufficientUnmaskedRegion,
    OrderTooHigh,
    SeriesTooShort,
    TooShort,
    WindowTooLarge,
)
from kneescout.ingest import CapacityFadeSeries, find_eol, normalize, resample_even
from kneescout.preprocess import savgol_smooth
from kneescout.segmentation import arc_curve, compute_arc_curves, identify_knees, prepare, rea
from kneescout.synthgen import SyntheticSpec, generate, generate_fleet

from scoring import ACCEPT, family


def crossing_count_oracle(index):
    """O(n^2) direct count of arcs strictly crossing each position."""
    n = len(index)
    ac = np.zeros(n, dtype=np.int64)
    for j, k in enumerate(index):
        lo, hi = min(j, k), max(j, k)
        for i in range(lo + 1, hi):
            ac[i] += 1
    return ac


class TestArcCurve:
    def test_adjacent_arcs_cross_nothing(self):
        index = np.arange(1, 9)  # I[j] = j+1, last one points forward out of bounds
        index[-1] = 6
        assert arc_curve(index).tolist() == crossing_count_oracle(index).tolist()
        assert np.all(arc_curve(np.array([1, 2, 3, 2]))[1:-1] >= 0)

    def test_hand_case(self):
        # arcs (0,2),(1,3),(2,0),(3,1) cross positions 1 and 2 twice
        assert arc_curve(np.array([2, 3, 0, 1])).tolist() == [0, 2, 2, 0]

    def test_empty_rejected(self):
        with pytest.raises(IndexOutOfRange):
            arc_curve(np.array([], dtype=np.int64))

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexOutOfRange):
            arc_curve(np.array([1, 5, 0]))

    @pytest.mark.parametrize("seed", range(20))
    def test_seeded_out_of_range_keeps_class_and_message(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 300))
        index = rng.integers(0, n, n)
        bad = n + int(rng.integers(0, 2**62)) if seed % 2 else -int(rng.integers(1, 2**62))
        index[rng.integers(0, n)] = bad
        with pytest.raises(IndexOutOfRange) as info:
            arc_curve(index)
        assert (type(info.value), str(info.value)) == (
            IndexOutOfRange, "matrix profile index entries outside [0, n)")

    @given(
        seed=st.integers(0, 99999),
        n=st.integers(2, 500),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle(self, seed, n):
        rng = np.random.default_rng(seed)
        index = rng.integers(0, n, size=n)
        counts = arc_curve(index)
        assert counts.dtype == np.int64
        np.testing.assert_array_equal(counts, crossing_count_oracle(index))


def single_arc_index(n):
    """Self-arcs but one arc from 0 to n - 1, which crosses 1 .. n - 2 once."""
    index = np.arange(n)
    index[0] = n - 1
    return index


class TestIac:
    """The idealized arc curve 2 i (n - i) / n that compute_arc_curves divides by."""

    def test_center_height_even_n(self):
        n = 10
        # one crossing over the parabola's height n/2
        assert compute_arc_curves(single_arc_index(n))[n // 2] == pytest.approx(2 / n)

    def test_zero_at_origin(self):
        # the parabola is 0 at position 0, where the corrected curve is 1
        assert compute_arc_curves(single_arc_index(7))[0] == 1.0

    def test_symmetry(self):
        n = 9
        curve = compute_arc_curves(single_arc_index(n))
        for i in range(1, n - 1):
            assert curve[i] == pytest.approx(n / (2.0 * i * (n - i)))
        # the arc ends at n - 1, so the crossings are symmetric on 2 .. n - 2
        np.testing.assert_allclose(curve[2 : n - 1], curve[2 : n - 1][::-1])


class TestCac:
    """The corrected arc curve that compute_arc_curves returns."""

    def test_clamped_to_one(self):
        # the mirror index crosses positions 1 and 2 twice, above the parabola
        out = compute_arc_curves(np.array([3, 2, 1, 0]))
        assert np.all(out <= 1.0)
        assert out[2] == 1.0

    def test_zero_crossings_zero(self):
        assert compute_arc_curves(np.array([2, 1, 0, 3]))[3] == 0.0
        assert compute_arc_curves(np.arange(4))[1] == 0.0

    def test_edge_convention(self):
        rng = np.random.default_rng(1)
        out = compute_arc_curves(rng.integers(0, 5, 5))
        assert out[0] == 1.0  # IAC is zero there

    def test_range_invariant(self):
        rng = np.random.default_rng(0)
        out = compute_arc_curves(rng.integers(0, 100, 100))
        assert np.all((out >= 0.0) & (out <= 1.0))

    @given(seed=st.integers(0, 99999), n=st.integers(2, 300))
    @settings(max_examples=60, deadline=None)
    def test_matches_formula(self, seed, n):
        index = np.random.default_rng(seed).integers(0, n, size=n)
        i = np.arange(1, n)
        expected = np.minimum(arc_curve(index)[1:] / (2.0 * i * (n - i) / n), 1.0)
        out = compute_arc_curves(index)
        assert out[0] == 1.0
        np.testing.assert_array_equal(out[1:], expected)


class TestRea:
    def build_cac(self):
        values = np.ones(500)
        values[100] = 0.1
        values[400] = 0.2
        return values

    def test_two_minima(self):
        out = rea(self.build_cac(), 2, 15)
        assert out == [100, 400]

    def test_masking_excludes_neighbors(self):
        values = self.build_cac()
        values[105] = 0.15  # second-lowest globally, but inside the exclusion zone
        out = rea(values, 2, 15)
        assert out == [100, 400]  # next-lowest outside the zone wins
        assert 105 not in out

    def test_zero_boundaries(self):
        assert rea(self.build_cac(), 0, 15) == []

    def test_insufficient_region(self):
        with pytest.raises(InsufficientUnmaskedRegion):
            rea(np.ones(10), 2, 20)

    def test_tie_breaks_toward_smaller_index(self):
        values = np.ones(100)
        values[70] = 0.5
        values[30] = 0.5
        out = rea(values, 1, 5)
        assert out == [30]

    @given(seed=st.integers(0, 9999), excl=st.integers(0, 12))
    @settings(max_examples=50, deadline=None)
    def test_separation_property(self, seed, excl):
        rng = np.random.default_rng(seed)
        values = rng.uniform(0, 1, 200)
        b = rea(values, 3, excl)
        assert all(b[i + 1] - b[i] > excl for i in range(len(b) - 1))


class TestIdentifyKnees:
    def pinned_series(self):
        spec = SyntheticSpec(
            n_cycles=1200, a=1e-3, b=1e-4, c=0.01, n_k=600, p=1.0,
            noise_sigma=0.0, seed=7,
        )
        return generate(spec)

    def test_noiseless_synthetic_within_3pct(self):
        series, gt = self.pinned_series()
        report = identify_knees(series)
        tol = 0.03 * 1200
        assert abs(report.onset_cycle - gt.onset_cycle) <= tol
        assert abs(report.knee_cycle - gt.knee_cycle) <= tol
        assert report.onset_cycle < report.knee_cycle

    @pytest.mark.parametrize("scale", [2.0, 0.25, 4.0])
    def test_scaling_invariance_dyadic(self, scale):
        # dyadic scales divide out bitwise, so even the all-ties noiseless
        # curve must give identical boundaries
        series, _ = self.pinned_series()
        scaled = CapacityFadeSeries(
            cell_id=series.cell_id,
            cycles=series.cycles,
            capacity_ah=series.capacity_ah * scale,
            q_nom_ah=series.q_nom_ah * scale,
        )
        base = identify_knees(series)
        other = identify_knees(scaled)
        assert (base.onset_cycle, base.knee_cycle) == (other.onset_cycle, other.knee_cycle)

    @pytest.mark.parametrize("scale", [3.0, 7.5])
    def test_scaling_invariance_generic(self, scale):
        # a noisy curve has no exact nearest-neighbor ties, so invariance
        # holds for arbitrary positive scales despite rounding in the division
        spec = SyntheticSpec(
            n_cycles=2000, a=8e-4, b=3e-3, c=0.06, n_k=900, p=1.0,
            noise_sigma=0.001, seed=3,
        )
        series, _ = generate(spec)
        scaled = CapacityFadeSeries(
            cell_id=series.cell_id,
            cycles=series.cycles,
            capacity_ah=series.capacity_ah * scale,
            q_nom_ah=series.q_nom_ah * scale,
        )
        base = identify_knees(series, ACCEPT)
        other = identify_knees(scaled, ACCEPT)
        assert (base.onset_cycle, base.knee_cycle) == (other.onset_cycle, other.knee_cycle)

    def test_affine_fade_flags_assumption(self):
        cycles = np.arange(1, 401)
        capacity = 1.1 * (1.0 - 2e-4 * cycles)
        series = CapacityFadeSeries("affine", cycles, capacity, 1.1)
        report = identify_knees(series)
        assert report.diagnostics["assumption_violated"] == 1.0
        assert report.onset_cycle < report.knee_cycle  # boundaries still returned

    def test_report_fields(self):
        series, _ = self.pinned_series()
        report = identify_knees(series)
        assert report.method == "curvature_rea"
        assert report.cell_id == series.cell_id
        for key in ("cac_min_onset", "cac_min_knee", "cac_range", "curvature_abs_max"):
            assert key in report.diagnostics

    def test_eol_attached_when_crossed(self):
        spec = SyntheticSpec(
            n_cycles=2000, a=8e-4, b=3e-3, c=0.06, n_k=900, p=1.0,
            noise_sigma=0.001, seed=3,
        )
        series, _ = generate(spec)
        report = identify_knees(series, ACCEPT)
        assert report.eol_cycle is not None
        assert series.cycles[0] <= report.eol_cycle <= series.cycles[-1]

    def test_short_series_cannot_place_two_boundaries(self):
        # once the edge guard and exclusion zone overlap there is no room
        # for a second boundary; the pipeline surfaces that honestly
        cycles = np.arange(1, 41)
        capacity = 1.1 * (1.0 - 1e-3 * cycles - 1e-4 * np.exp(0.2 * np.maximum(0, cycles - 20)))
        series = CapacityFadeSeries("short", cycles, np.maximum(capacity, 0.1), 1.1)
        with pytest.raises(InsufficientUnmaskedRegion):
            identify_knees(series)

    def test_table2_cac_window_sentinel(self):
        # cac_window=0 selects the one-fifth-of-length segmentation window
        series, _ = self.pinned_series()
        report = identify_knees(series, PipelineParams(cac_window=0))
        assert report.onset_cycle < report.knee_cycle

    @pytest.mark.parametrize("cac_window", [-1, -5, 1])
    def test_negative_cac_window_rejected(self, cac_window):
        series, _ = self.pinned_series()
        with pytest.raises(DegenerateWindow, match=f"cac_window must be 0 or >= 2, got {cac_window}"):
            identify_knees(series, PipelineParams(cac_window=cac_window))


SHIFT_FLEET = [series for series, _ in family("shift")]


@pytest.fixture(scope="module", params=[PipelineParams(), ACCEPT], ids=["default", "acceptance"])
def shift_reports(request):
    return request.param, [identify_knees(series, request.param) for series in SHIFT_FLEET]


@pytest.mark.parametrize("k", [1, 100, 1000, 123457])
def test_shifting_every_cycle_shifts_onset_knee_and_eol(shift_reports, k):
    # the pipeline works on positions along the even grid, so a renumbered
    # grid moves every boundary by the same k and changes no diagnostic
    params, reports = shift_reports
    for series, base in zip(SHIFT_FLEET, reports):
        shifted = identify_knees(dataclasses.replace(series, cycles=series.cycles + k), params)
        eol = None if base.eol_cycle is None else base.eol_cycle + k
        assert (shifted.onset_cycle, shifted.knee_cycle, shifted.eol_cycle) == (
            base.onset_cycle + k, base.knee_cycle + k, eol), series.cell_id
        assert shifted.diagnostics == base.diagnostics, series.cell_id


def rounded(series):
    """``series`` with its capacities rounded to 1e-3 Ah, as many cyclers export them."""
    return dataclasses.replace(series, capacity_ah=np.round(series.capacity_ah, 3))


# the rounded bench fleet under the defaults: rounding leaves near-ties in the
# curvature's matrix profile, so a last bit of the smoothing can move a boundary
ROUNDED_BENCH = """
from test_segmentation import family, identify_knees, rounded
for series, _ in family("bench"):
    print(repr(identify_knees(rounded(series))))
"""


def haswell_unavailable():
    """Why ``OPENBLAS_CORETYPE=Haswell`` cannot be forced here, or ''."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if "openblas" not in blas["name"] or "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        return "NumPy's BLAS is not an OpenBLAS that picks its kernel at run time"
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text()
    except OSError:
        return "no /proc/cpuinfo to find AVX2 in"
    if not re.search(r"^flags\s*:.*\bavx2\b", cpuinfo, re.M):
        return "the CPU lacks AVX2, which the Haswell kernel needs"
    return ""


def test_reports_are_the_same_on_the_haswell_kernel():
    # OpenBLAS picks Haswell by itself on AVX2-only CPUs; every report, its
    # diagnostics' bits included, must not depend on the kernel
    if reason := haswell_unavailable():
        pytest.skip(reason)
    here = [repr(identify_knees(rounded(series))) for series, _ in family("bench")]
    paths = [Path(kneescout.__file__).parents[1], Path(__file__).parent, Path(__file__).parents[1]]
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell",
           "PYTHONPATH": os.pathsep.join(map(str, paths))}
    run = subprocess.run([sys.executable, "-c", ROUNDED_BENCH], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.splitlines() == here


class TestPrepare:
    def cell(self, n, start=1, step=1):
        cycles = np.arange(start, start + step * n, step)
        return CapacityFadeSeries("c", cycles, 1.1 - 1e-5 * (cycles - start) ** 1.5, 1.1)

    def test_matches_the_stages_it_runs(self):
        series = self.cell(300, start=5, step=3)  # uneven: resampled
        resampled, smoothed, window, eol = prepare(series, PipelineParams(sg_window=41))
        assert resampled.cycles.tolist() == list(range(5, 5 + 3 * 299 + 1))
        expected = savgol_smooth(normalize(resample_even(series)), window=41, order=3)
        assert np.array_equal(smoothed.values, expected.values)
        assert window == 41
        assert eol == find_eol(expected, 0.8)

    def test_window_clipped_to_length(self):
        # an even length steps the clipped window down to the odd one below
        _, smoothed, window, _ = prepare(self.cell(10))
        assert (window, len(smoothed)) == (9, 10)

    @pytest.mark.parametrize("n", [3, 4])
    def test_too_short_for_any_window_above_order(self, n):
        for pipeline in (prepare, identify_knees, dbw_knee_report):
            with pytest.raises(TooShort, match="must exceed sg_order 3"):
                pipeline(self.cell(n))

    @pytest.mark.parametrize("window, error", [
        (0, WindowTooLarge), (-7, WindowTooLarge), (1, WindowTooLarge),
        (4, EvenWindow), (22, EvenWindow),
    ])
    def test_window_savgol_would_reject_fails_before_clipping(self, window, error):
        # 22 would clip to the odd 9 on 10 cycles; it is rejected as given
        for pipeline in (prepare, identify_knees, dbw_knee_report):
            with pytest.raises(error, match=f"sg_window must be .*, got {window}"):
                pipeline(self.cell(10), PipelineParams(sg_window=window, sg_order=1))

    def test_order_not_below_window_stays_order_too_high(self):
        with pytest.raises(OrderTooHigh):
            prepare(self.cell(100), PipelineParams(sg_window=5, sg_order=5))


# odd windows of 3 and more construct; the integers add the invalid ones
WINDOWS = st.one_of(st.integers(1, 100).map(lambda k: 2 * k + 1), st.integers(-3, 400))
FLEET_CELL = generate_fleet(1, seed=3, n_cycles=300)[0][0]


class TestPipelineParams:
    @pytest.mark.parametrize("bad, error, message", [
        (dict(sg_window=1), WindowTooLarge, "sg_window must be >= 3, got 1"),
        (dict(sg_window=22), EvenWindow, "sg_window must be odd, got 22"),
        (dict(curv_window=-1), WindowTooLarge, "curv_window must be >= 3, got -1"),
        (dict(curv_window=4), EvenWindow, "curv_window must be odd, got 4"),
        (dict(sg_order=-1), OrderTooHigh,
         "sg_order -1 must satisfy 0 <= sg_order < sg_window 21"),
        (dict(sg_window=5, sg_order=5), OrderTooHigh,
         "sg_order 5 must satisfy 0 <= sg_order < sg_window 5"),
        (dict(cac_window=-5), DegenerateWindow, "cac_window must be 0 or >= 2, got -5"),
        (dict(cac_window=1), DegenerateWindow, "cac_window must be 0 or >= 2, got 1"),
        (dict(exclusion_radius=-1), IndexOutOfRange,
         "exclusion_radius must be an int >= 0, got -1"),
        (dict(eol_threshold=1.0), InputError, "eol_threshold: must be in (0, 1), got 1.0"),
        (dict(eol_threshold=float("nan")), InputError,
         "eol_threshold: must be in (0, 1), got nan"),
        (dict(gamma=0.0), InputError, "gamma must be a finite real number > 0, got 0.0"),
        (dict(gamma=float("inf")), InputError, "gamma must be a finite real number > 0, got inf"),
        (dict(max_iter=0), InputError, "max_iter must be an int >= 1, got 0"),
        (dict(sg_window=163, sg_order=162), OrderTooHigh,
         "order 162 at window 163: the Savitzky-Golay design matrix overflows float64"
         " (81**162)"),
        (dict(sg_window=21.5), InputError, "sg_window must be an int, got 21.5"),
        (dict(sg_order=3.0), InputError, "sg_order must be an int, got 3.0"),
        (dict(curv_window=True), InputError, "curv_window must be an int, got True"),
        (dict(cac_window=12.0), InputError, "cac_window must be an int, got 12.0"),
        (dict(exclusion_radius=15.5), IndexOutOfRange,
         "exclusion_radius must be an int >= 0, got 15.5"),
        (dict(max_iter=10.5), InputError, "max_iter must be an int >= 1, got 10.5"),
        (dict(eol_threshold=None), InputError, "eol_threshold must be a real number, got None"),
        (dict(gamma="10"), InputError, "gamma must be a finite real number > 0, got '10'"),
        (dict(gamma=False), InputError, "gamma must be a finite real number > 0, got False"),
    ])
    def test_each_invalid_field_raises_its_class(self, bad, error, message):
        with pytest.raises(InputError) as info:
            PipelineParams(**bad)
        assert (type(info.value), str(info.value)) == (error, message)

    @pytest.mark.parametrize("valid", [
        dict(sg_window=3, sg_order=0), dict(sg_window=3, sg_order=2), dict(curv_window=3),
        dict(cac_window=0), dict(cac_window=2), dict(exclusion_radius=0),
        dict(eol_threshold=0.999), dict(gamma=1e-300), dict(max_iter=1),
        dict(sg_window=163, sg_order=161),
    ])
    def test_boundary_values_construct(self, valid):
        params = PipelineParams(**valid)
        assert {key: getattr(params, key) for key in valid} == valid

    def test_numpy_integers_become_ints(self):
        params = PipelineParams(sg_window=np.int64(81), max_iter=np.uint16(10),
                                gamma=np.float32(2.0))
        assert (type(params.sg_window), type(params.max_iter)) == (int, int)
        assert params == PipelineParams(sg_window=81, max_iter=10, gamma=2.0)

    @settings(max_examples=200, deadline=None)
    @given(sg_window=WINDOWS, sg_order=st.integers(-1, 12), curv_window=WINDOWS,
           cac_window=st.integers(-2, 100), exclusion_radius=st.integers(-2, 200),
           eol_threshold=st.floats(0, 1))
    def test_constructed_params_fail_only_on_the_data(self, **kw):
        # a fixed 300-cycle fleet cell: only errors that depend on its
        # length may remain once the parameters construct
        try:
            params = PipelineParams(**kw)
        except InputError:
            assume(False)
        try:
            identify_knees(FLEET_CELL, params)
        except (TooShort, SeriesTooShort, InsufficientUnmaskedRegion):
            pass

