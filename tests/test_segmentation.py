import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kneescout.config import PipelineParams
from kneescout.baconwatts import dbw_knee_report
from kneescout.errors import (
    DegenerateWindow,
    IndexOutOfRange,
    InsufficientUnmaskedRegion,
    LengthMismatch,
    OrderTooHigh,
    TooShort,
)
from kneescout.ingest import CapacityFadeSeries, find_eol, normalize, resample_even
from kneescout.preprocess import savgol_smooth
from kneescout.segmentation import arc_curve, cac, iac, identify_knees, prepare, rea
from kneescout.synthgen import SyntheticSpec, generate


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

    @given(
        seed=st.integers(0, 99999),
        n=st.integers(2, 500),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle(self, seed, n):
        rng = np.random.default_rng(seed)
        index = rng.integers(0, n, size=n)
        np.testing.assert_array_equal(arc_curve(index), crossing_count_oracle(index))


class TestIac:
    def test_center_height_even_n(self):
        n = 10
        assert iac(n)[n // 2] == pytest.approx(n / 2)

    def test_zero_at_origin(self):
        assert iac(7)[0] == 0.0

    def test_symmetry(self):
        n = 9
        curve = iac(n)
        for i in range(1, n):
            assert curve[i] == pytest.approx(2.0 * (n - i) * i / n)
            assert curve[i] == pytest.approx(curve[n - i] if n - i < n else 0.0)


class TestCac:
    def test_clamped_to_one(self):
        ac = np.array([10.0, 10.0, 10.0, 10.0])
        out = cac(ac, iac(4))
        assert np.all(out <= 1.0)
        assert out[2] == 1.0

    def test_zero_crossings_zero(self):
        ac = np.array([3.0, 0.0, 3.0, 3.0])
        assert cac(ac, iac(4))[1] == 0.0

    def test_edge_convention(self):
        out = cac(np.zeros(5), iac(5))
        assert out[0] == 1.0  # IAC is zero there

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            cac(np.zeros(4), iac(5))

    def test_range_invariant(self):
        rng = np.random.default_rng(0)
        ac = rng.integers(0, 50, 100).astype(float)
        out = cac(ac, iac(100))
        assert np.all((out >= 0.0) & (out <= 1.0))


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
        params = PipelineParams(sg_window=81, cac_window=12)
        scaled = CapacityFadeSeries(
            cell_id=series.cell_id,
            cycles=series.cycles,
            capacity_ah=series.capacity_ah * scale,
            q_nom_ah=series.q_nom_ah * scale,
        )
        base = identify_knees(series, params)
        other = identify_knees(scaled, params)
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
        report = identify_knees(series, PipelineParams(sg_window=81, cac_window=12))
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

    @pytest.mark.parametrize("cac_window", [-1, -5])
    def test_negative_cac_window_rejected(self, cac_window):
        series, _ = self.pinned_series()
        with pytest.raises(DegenerateWindow, match=f"cac_window must be >= 0, got {cac_window}"):
            identify_knees(series, PipelineParams(cac_window=cac_window))


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
        _, smoothed, window, _ = prepare(self.cell(10))
        assert (window, len(smoothed)) == (9, 10)

    @pytest.mark.parametrize("n", [3, 4])
    def test_too_short_for_any_window_above_order(self, n):
        for pipeline in (prepare, identify_knees, dbw_knee_report):
            with pytest.raises(TooShort, match="must exceed sg_order 3"):
                pipeline(self.cell(n))

    def test_order_not_below_window_stays_order_too_high(self):
        with pytest.raises(OrderTooHigh):
            prepare(self.cell(100), PipelineParams(sg_window=5, sg_order=5))
