import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kneescout import PipelineParams
from kneescout.errors import ConstantInput, InputError, LengthMismatch, NonFiniteInput
from kneescout.report import (
    BATCH_HEADER,
    CorrelationReport,
    batch_report,
    format_batch_csv,
    format_scatter_csv,
    improvement_pct,
    pearson,
)
from kneescout.synthgen import generate_fleet


ACC_PARAMS = PipelineParams(sg_window=81, cac_window=12)


class TestPearson:
    def test_perfect_positive_affine(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert pearson(x, 2 * x + 3) == pytest.approx(1.0, abs=1e-12)

    def test_perfect_negative(self):
        x = np.array([1.0, 2.0, 3.0])
        assert pearson(x, -x) == pytest.approx(-1.0, abs=1e-12)

    def test_hand_case(self):
        assert pearson([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5, abs=1e-12)

    def test_constant_input(self):
        with pytest.raises(ConstantInput):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            pearson([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_too_few_samples(self):
        with pytest.raises(ConstantInput):
            pearson([1.0], [2.0])

    @pytest.mark.floors
    @pytest.mark.parametrize("x, y, name", [
        ([1.0, np.nan, 3.0], [1.0, 2.0, 4.0], "x"),
        ([1.0, 2.0, 3.0], [1.0, np.inf, 4.0], "y"),
        ([1.0, 2.0, 3.0], [-np.inf, 2.0, np.nan], "y"),
    ])
    def test_non_finite_sample_is_named(self, x, y, name):
        with pytest.raises(NonFiniteInput, match=f"^{name} holds a non-finite value$"):
            pearson(x, y)

    @given(
        seed=st.integers(0, 9999),
        a=st.floats(0.1, 10.0),
        b=st.floats(-5.0, 5.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_positive_affine_invariance(self, seed, a, b):
        rng = np.random.default_rng(seed)
        x = rng.normal(0, 1, 20)
        y = rng.normal(0, 1, 20)
        base = pearson(x, y)
        assert pearson(a * x + b, y) == pytest.approx(base, abs=1e-12)
        assert pearson(x, a * y + b) == pytest.approx(base, abs=1e-12)

    def test_sign_flip_under_negative_scaling(self):
        rng = np.random.default_rng(1)
        x = rng.normal(0, 1, 25)
        y = rng.normal(0, 1, 25)
        assert pearson(-2.0 * x, y) == pytest.approx(-pearson(x, y), abs=1e-12)

    @pytest.mark.floors
    @pytest.mark.parametrize("k", [-1000, -700, -600, 600, 700, 1000])
    def test_power_of_two_scaling_keeps_the_bits(self, k):
        """Tiny samples are not a constant input and huge ones do not warn,
        though their sums of squares would underflow or overflow. Marked
        floors: ``frexp`` and ``ldexp`` must scale exactly at the oldest NumPy too."""
        rng = np.random.default_rng(7)
        x = rng.normal(0, 1, 30)
        y = rng.normal(0, 1, 30)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pearson(np.ldexp(x, k), y) == pearson(x, y)
            assert pearson(x, np.ldexp(y, k)) == pearson(x, y)
            assert pearson(np.ldexp(x, k), np.ldexp(y, -k)) == pearson(x, y)

    def test_clipped_to_unit_interval(self):
        # the unclipped quotient is 1 + 2**-52 for this vector
        x = np.array([2355.0, 2703.0, 2245.0, 2869.0, 1963.0])
        assert pearson(x, x) == 1.0
        assert pearson(x, -x) == -1.0

    @given(st.lists(st.integers(-10_000, 10_000), min_size=2, max_size=12),
           st.integers(-3, 3).filter(bool))
    @settings(max_examples=200, deadline=None)
    def test_within_unit_interval(self, xs, scale):
        x = np.array(xs, dtype=float)
        assume(np.any(x != x[0]))
        assert -1.0 <= pearson(x, scale * x + 7.0) <= 1.0


class TestImprovementPct:
    def test_lfp_style_knee_improvement(self):
        # benchmark-in-denominator convention: (1.000 - 0.994) / 0.994
        assert improvement_pct(1.000, 0.994) == pytest.approx(0.6036, abs=1e-3)

    def test_nmc_style_knee_improvement(self):
        assert improvement_pct(0.710, 0.125) == pytest.approx(468.0, abs=0.5)

    def test_nmc_style_onset_improvement(self):
        assert improvement_pct(0.712, 0.180) == pytest.approx(295.6, abs=0.5)

    def test_negative_benchmark_is_a_gain(self):
        # a slow-knee baseline r(knee, EoL); dividing by r_old itself gave -614.4
        assert improvement_pct(0.998, -0.194) == pytest.approx(614.4, abs=0.05)
        correls = {"curvature_rea": CorrelationReport(0.712, 0.998, 40, 0, 30.0),
                   "double_bacon_watts": CorrelationReport(0.180, -0.194, 40, 0, 30.0)}
        footer = format_batch_csv([], correls).splitlines()[-2:]
        assert footer == ["# improvement_onset_pct=295.6", "# improvement_knee_pct=614.4"]


class TestBatchReport:
    def test_rows_and_correlations(self):
        fleet = [series for series, _ in generate_fleet(10, seed=21)]
        rows, correls = batch_report(fleet, methods=("curvature_rea",), params=ACC_PARAMS)
        assert len(rows) == 10
        rep = correls["curvature_rea"]
        assert rep.n_cells == sum(r.eol_cycle is not None for r in rows)
        assert rep.r_knee_eol is not None and rep.r_knee_eol > 0.9
        assert all(r.gap > 0 for r in rows)

    def test_identical_cells_surface_constant_input(self):
        series, _ = generate_fleet(1, seed=5)[0]
        twin = type(series)(
            cell_id="twin", cycles=series.cycles,
            capacity_ah=series.capacity_ah, q_nom_ah=series.q_nom_ah,
        )
        rows, correls = batch_report([series, twin], methods=("curvature_rea",), params=ACC_PARAMS)
        assert len(rows) == 2
        rep = correls["curvature_rea"]
        assert rep.r_knee_eol is None
        assert "constant" in rep.note

    def test_single_method_section(self):
        fleet = [series for series, _ in generate_fleet(3, seed=8)]
        _, correls = batch_report(fleet, methods=("curvature_rea",), params=ACC_PARAMS)
        assert set(correls) == {"curvature_rea"}

    def test_jobs_parallel_matches_sequential(self):
        fleet = [series for series, _ in generate_fleet(4, seed=13)]
        seq = batch_report(fleet, methods=("curvature_rea",), params=ACC_PARAMS, jobs=1)
        par = batch_report(fleet, methods=("curvature_rea",), params=ACC_PARAMS, jobs=2)
        assert seq[0] == par[0]


class TestCsvFormats:
    def build(self):
        fleet = [series for series, _ in generate_fleet(3, seed=2)]
        return batch_report(fleet, methods=("curvature_rea",), params=ACC_PARAMS)

    def test_batch_csv_shape(self):
        rows, correls = self.build()
        text = format_batch_csv(rows, correls)
        lines = text.strip().split("\n")
        assert lines[0] == "cell_id,method,onset_cycle,knee_cycle,eol_cycle,gap"
        assert sum(1 for ln in lines if not ln.startswith("#")) == 1 + len(rows)
        footers = [ln for ln in lines if ln.startswith("#")]
        assert any("pearson_onset_eol=" in ln for ln in footers)
        assert any("pearson_knee_eol=" in ln for ln in footers)

    def test_scatter_export(self):
        rows, _ = self.build()
        text = format_scatter_csv(rows, "curvature_rea", "knee")
        lines = text.strip().split("\n")
        assert lines[0] == "onset_or_knee_cycle,eol_cycle"
        assert len(lines) == 1 + sum(
            r.eol_cycle is not None and r.method == "curvature_rea" for r in rows
        )


    def test_scatter_kind_is_onset_or_knee(self):
        with pytest.raises(InputError) as info:
            format_scatter_csv([], "curvature_rea", "eol")
        assert (type(info.value), str(info.value)) == (
            InputError, "kind must be onset or knee, got 'eol'")


def test_batch_header():
    assert ",".join(BATCH_HEADER) == "cell_id,method,onset_cycle,knee_cycle,eol_cycle,gap"


class TestMethodChecks:
    def untouched_inputs(self):
        yield from ()
        raise AssertionError("the inputs were read before the methods were checked")

    @pytest.mark.parametrize("methods,named", [
        (("curvature",), "'curvature'"),
        (("curvature_rea", "nope"), "'nope'"),
        (("curvature_rea", "curvature_rea"), "'curvature_rea' given more than once"),
        (("double_bacon_watts", "curvature_rea", "double_bacon_watts"),
         "'double_bacon_watts' given more than once"),
    ])
    def test_unknown_or_repeated_method(self, methods, named):
        with pytest.raises(InputError, match=named):
            batch_report(self.untouched_inputs(), methods=methods)
