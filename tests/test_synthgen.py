import numpy as np
import pytest

from kneescout.errors import DegenerateSpec
from kneescout.ingest import MAX_GRID_CYCLES
from kneescout.synthgen import (
    SyntheticSpec,
    convex_family_specs,
    generate,
    generate_convex_family,
    generate_fleet,
    ground_truth,
    simulate_cycle_records,
    _trend,
)


def spec_with(**kw):
    defaults = dict(
        n_cycles=1500, a=8e-4, b=3e-3, c=0.06, n_k=900, p=1.0,
        noise_sigma=0.001, seed=0,
    )
    defaults.update(kw)
    return SyntheticSpec(**defaults)


class TestSpecValidation:
    def test_negative_amplitude(self):
        with pytest.raises(DegenerateSpec):
            spec_with(b=-1.0)

    def test_bad_exponent(self):
        with pytest.raises(DegenerateSpec):
            spec_with(p=1.5)

    def test_knee_start_out_of_range(self):
        with pytest.raises(DegenerateSpec):
            spec_with(n_k=1500)

    def test_too_few_cycles(self):
        with pytest.raises(DegenerateSpec) as info:
            spec_with(n_cycles=9)
        assert (type(info.value), str(info.value)) == (
            DegenerateSpec, "n_cycles must be an int >= 10, got 9")

    def test_more_cycles_than_a_unit_grid_may_hold(self):
        # generate would allocate 8 PB for each of its arrays
        assert spec_with(n_cycles=MAX_GRID_CYCLES, n_k=900).n_cycles == MAX_GRID_CYCLES
        for n_cycles in (MAX_GRID_CYCLES + 1, 10**15):
            with pytest.raises(DegenerateSpec) as info:
                spec_with(n_cycles=n_cycles)
            assert str(info.value) == f"n_cycles must be at most 1000000, got {n_cycles}"
        with pytest.raises(DegenerateSpec, match="n_cycles must be at most 1000000"):
            generate_fleet(1, seed=0, n_cycles=10**15)

    def test_negative_noise(self):
        with pytest.raises(DegenerateSpec):
            spec_with(noise_sigma=-0.1)


class TestGenerate:
    def test_no_knee_when_b_zero(self):
        series, truth = generate(spec_with(b=0.0))
        assert truth is None
        assert len(series) == 1500  # never truncates

    def test_no_knee_when_c_zero(self):
        _, truth = generate(spec_with(c=0.0))
        assert truth is None

    def test_deterministic(self):
        s1, t1 = generate(spec_with(seed=4))
        s2, t2 = generate(spec_with(seed=4))
        assert np.array_equal(s1.capacity_ah, s2.capacity_ah)
        assert t1 == t2

    def test_noiseless_output_is_trend(self):
        spec = spec_with(noise_sigma=0.0)
        series, _ = generate(spec)
        trend = _trend(spec, series.cycles)
        assert np.array_equal(series.capacity_ah, trend * series.q_nom_ah)

    def test_noiseless_trend_monotone_nonincreasing(self):
        spec = spec_with(noise_sigma=0.0)
        series, _ = generate(spec)
        assert np.all(np.diff(series.capacity_ah) <= 0)

    def test_truncated_at_floor(self):
        series, _ = generate(spec_with(noise_sigma=0.0))
        normalized = series.capacity_ah / series.q_nom_ah
        assert normalized.min() >= 0.6
        assert len(series) < 1500

    def test_ground_truth_ordering_and_range(self):
        spec = spec_with()
        series, truth = generate(spec)
        assert truth is not None
        assert truth.onset_cycle < truth.knee_cycle
        assert truth.knee_cycle < spec.n_cycles
        assert truth.onset_cycle >= spec.n_k

    def test_onset_is_knee_growth_start_for_sharp_knees(self):
        _, truth = generate(spec_with())
        assert truth.onset_cycle == 900  # the kink crosses the threshold at once


class TestMonotoneKneeResponse:
    def test_knee_earlier_with_larger_b(self):
        knees = [
            ground_truth(spec_with(b=b, noise_sigma=0.0)).knee_cycle
            for b in (2e-3, 4e-3, 8e-3)
        ]
        assert knees == sorted(knees, reverse=True) or all(
            k2 <= k1 for k1, k2 in zip(knees, knees[1:])
        )

    def test_knee_earlier_with_larger_c(self):
        knees = [
            ground_truth(spec_with(c=c, noise_sigma=0.0)).knee_cycle
            for c in (0.05, 0.07, 0.09)
        ]
        assert all(k2 <= k1 for k1, k2 in zip(knees, knees[1:]))


class TestConvexFamily:
    def test_count_and_determinism(self):
        fam1 = generate_convex_family(5, seed=3)
        fam2 = generate_convex_family(5, seed=3)
        assert len(fam1) == 5
        for (s1, _), (s2, _) in zip(fam1, fam2):
            assert np.array_equal(s1.capacity_ah, s2.capacity_ah)

    def test_count_zero_rejected(self):
        with pytest.raises(DegenerateSpec):
            generate_convex_family(0, seed=1)

    def test_first_phase_is_convex(self):
        # convex fade: positive second difference of the noiseless trend
        # before the knee-growth start (the knee term is identically zero
        # there, and the power term with p < 1 curves upward)
        for spec in convex_family_specs(10, seed=11):
            assert spec.p < 1.0
            cycles = np.arange(1, spec.n_k)
            trend = _trend(spec, cycles)
            d2 = trend[:-2] + trend[2:] - 2 * trend[1:-1]
            assert np.all(d2 > 0)


class TestFleet:
    def test_fleet_reproducible_and_labeled(self):
        fleet = generate_fleet(4, seed=2)
        assert len(fleet) == 4
        for series, truth in fleet:
            assert truth is not None
            assert series.cell_id.startswith("fleet-2-")

    @pytest.mark.parametrize("n_cycles", [-5, -1, 0, 9])
    def test_too_few_cycles_rejected_before_drawing(self, n_cycles):
        # a negative length empties the knee-cycle draw's range
        with pytest.raises(DegenerateSpec, match=f"n_cycles must be an int >= 10, got {n_cycles}"):
            generate_fleet(2, seed=1, n_cycles=n_cycles)


class TestSimulateCycleRecords:
    def test_deterministic(self):
        a = simulate_cycle_records(250, seed=7)
        b = simulate_cycle_records(250, seed=7)
        assert set(a) == set(b)
        for cyc in a:
            assert np.array_equal(a[cyc].q_ah, b[cyc].q_ah)

    def test_contains_requested_cycles(self):
        records = simulate_cycle_records(250, seed=1)
        assert set(records) == set(range(1, 36))

    def test_monotone_discharge_curves(self):
        records = simulate_cycle_records(90, seed=3)
        for rec in records.values():
            assert np.all(np.diff(rec.q_ah) >= 0)
            assert np.all(np.diff(rec.voltage_v) < 0)

    def test_positive_onset_required(self):
        with pytest.raises(DegenerateSpec):
            simulate_cycle_records(0, seed=0)
