import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kneescout import baconwatts
from kneescout.baconwatts import (
    BaconWattsFit,
    DBWParams,
    _dbw_residuals,
    dbw_knee_report,
    dbw_model,
    fit_dbw,
    lm_optimize,
    transition_cycles,
)
from kneescout.errors import FitDiverged, NonFiniteResidual, TooShort
from kneescout.ingest import CapacityFadeSeries, resample_even
from kneescout.synthgen import generate_fleet


def make_params(**kw):
    defaults = dict(
        alpha0=1.1, alpha1=-5e-5, alpha2=-2e-4, alpha3=-3e-4,
        x0=700.0, x2=900.0, gamma=10.0,
    )
    defaults.update(kw)
    return DBWParams(**defaults)


class TestDbwModel:
    def test_value_at_first_transition(self):
        p = make_params()
        got = dbw_model(np.array([p.x0]), p)[0]
        expected = p.alpha0 + p.alpha3 * (p.x0 - p.x2) * math.tanh((p.x0 - p.x2) / p.gamma)
        assert got == pytest.approx(expected, rel=1e-14)

    def test_degenerates_to_affine(self):
        p = make_params(alpha2=0.0, alpha3=0.0)
        x = np.linspace(0, 1000, 50)
        np.testing.assert_allclose(
            dbw_model(x, p), p.alpha0 + p.alpha1 * (x - p.x0), rtol=1e-14
        )

    def test_small_gamma_approaches_absolute_value(self):
        p = make_params(alpha1=0.0, alpha3=0.0, gamma=1e-6)
        x = np.array([650.0, 700.0, 750.0])
        expected = p.alpha0 + p.alpha2 * np.abs(x - p.x0)
        np.testing.assert_allclose(dbw_model(x, p), expected, atol=1e-9)

    def test_numeric_jacobian_richardson_consistency(self):
        # central differences at h and h/10 must agree to O(h^2)
        p = make_params()
        x = np.linspace(1, 1000, 200)

        def f(x0):
            q = DBWParams(p.alpha0, p.alpha1, p.alpha2, p.alpha3, x0, p.x2, p.gamma)
            return dbw_model(x, q)

        for h in (1e-4, 1e-5):
            d_h = (f(p.x0 + h) - f(p.x0 - h)) / (2 * h)
            d_h10 = (f(p.x0 + h / 10) - f(p.x0 - h / 10)) / (2 * h / 10)
            assert np.max(np.abs(d_h - d_h10)) < 1e-6


class TestLmOptimize:
    def test_parameters(self):
        # the damping starts at 1e-3; the Jacobian is the one hook
        assert list(inspect.signature(lm_optimize).parameters) == [
            "residuals", "init", "tol", "max_iter", "jacobian"
        ]

    def test_linear_matches_normal_equations(self):
        rng = np.random.default_rng(0)
        X = np.column_stack([np.ones(40), np.linspace(0, 1, 40), np.linspace(0, 1, 40) ** 2])
        y = X @ np.array([2.0, -3.0, 0.7]) + rng.normal(0, 0.01, 40)
        result = lm_optimize(lambda p: X @ p - y, np.zeros(3))
        exact = np.linalg.solve(X.T @ X, X.T @ y)
        assert np.max(np.abs(result.params - exact)) < 1e-8

    def test_rosenbrock_style(self):
        def residuals(p):
            a, b = p
            return np.array([1.0 - a, 10.0 * (b - a * a)])

        result = lm_optimize(residuals, np.array([-1.2, 1.0]))
        assert result.converged
        np.testing.assert_allclose(result.params, [1.0, 1.0], atol=1e-8)

    def test_nan_at_init_rejected(self):
        with pytest.raises(NonFiniteResidual):
            lm_optimize(lambda p: np.array([float("nan")]), np.array([0.0]))

    def test_accepted_costs_never_increase(self):
        def residuals(p):
            a, b = p
            return np.array([1.0 - a, 10.0 * (b - a * a), 0.5 * a * b])

        result = lm_optimize(residuals, np.array([2.0, -3.0]))
        hist = result.cost_history
        assert all(b <= a + 1e-15 for a, b in zip(hist, hist[1:]))


def synth_dbw_series(truth: DBWParams, n=1000, noise=1e-4, seed=0):
    rng = np.random.default_rng(seed)
    x = np.arange(1, n + 1)
    y = dbw_model(x, truth) + rng.normal(0, noise, n)
    return CapacityFadeSeries("dbw", x, np.maximum(y, 1e-3), 1.1)


class TestFitDbw:
    def test_too_short(self):
        with pytest.raises(TooShort):
            fit_dbw(CapacityFadeSeries("s", np.arange(5), np.full(5, 1.0), 1.1))

    def test_self_consistency_quick(self):
        hits = 0
        for t in range(5):
            rng = np.random.default_rng(100 + t)
            truth = make_params(
                x0=float(rng.uniform(550, 750)), x2=float(rng.uniform(800, 950))
            )
            fit = fit_dbw(synth_dbw_series(truth, seed=100 + t))
            onset, knee = transition_cycles(fit)
            hits += abs(onset - truth.x0) <= 2 and abs(knee - truth.x2) <= 2
        assert hits >= 4

    def test_affine_data_flagged_non_identifiable(self):
        x = np.arange(1, 501)
        series = CapacityFadeSeries("aff", x, 1.1 - 1e-4 * x, 1.1)
        report = dbw_knee_report(series)
        assert report.diagnostics["transitions_identifiable"] == 0.0
        assert abs(report.diagnostics["alpha2"]) < 1e-5
        assert abs(report.diagnostics["alpha3"]) < 1e-5

    def test_swapped_inits_same_onset_knee(self):
        truth = make_params(x0=620.0, x2=880.0)
        series = synth_dbw_series(truth, seed=5)
        fit = fit_dbw(series)
        x = series.cycles.astype(np.float64)
        span = x[-1] - x[0]
        slope = baconwatts.INIT_SLOPE
        swapped = np.array([1.0, slope, slope, slope,
                            x[0] + baconwatts.INIT_X2_FRAC * span,
                            x[0] + baconwatts.INIT_X0_FRAC * span])
        residuals, jacobian = _dbw_residuals(x, series.capacity_ah, 10.0)
        result = lm_optimize(residuals, swapped, jacobian=jacobian)
        fit_b = BaconWattsFit(DBWParams.from_array(result.params, 10.0),
                              result.residual_norm, result.iterations, result.converged)
        assert fit_b.params.x0 > fit_b.params.x2
        assert transition_cycles(fit) == transition_cycles(fit_b)

    def test_rounding_ties_toward_later_cycle(self):
        fit = BaconWattsFit(
            params=make_params(x0=699.5, x2=900.25),
            residual_norm=0.0,
            iterations=1,
            converged=True,
        )
        assert transition_cycles(fit) == (700, 900)

    def test_report_has_eol_and_method(self):
        truth = make_params()
        series = synth_dbw_series(truth, seed=9)
        report = dbw_knee_report(series)
        assert report.method == "double_bacon_watts"
        assert report.onset_cycle < report.knee_cycle

    def test_in_range_transitions_stay_identifiable(self):
        series = synth_dbw_series(make_params(), seed=9)
        diag = dbw_knee_report(series).diagnostics
        for v in (diag["x0"], diag["x2"]):
            assert series.cycles[0] <= v <= series.cycles[-1]
        assert diag["transitions_identifiable"] == 1.0

    def test_transition_beyond_the_data_is_not_identifiable(self):
        # this fleet cell ends at cycle 538 but its fit puts x2 near 30465;
        # the reported knee stays the rounded x2
        series, _ = generate_fleet(8, seed=7, n_cycles=1500)[7]
        report = dbw_knee_report(series)
        assert series.cycles[-1] == 538
        assert report.knee_cycle == 30465
        assert report.diagnostics["converged"] == 1.0
        assert report.diagnostics["transitions_identifiable"] == 0.0


def loop_jacobian(residuals, p, r0):
    """Reference: one pair of residual calls per parameter, column by column."""
    n, m = len(r0), len(p)
    J = np.empty((n, m))
    for k in range(m):
        h = 1e-6 * max(abs(p[k]), 1.0)
        up, dn = p.copy(), p.copy()
        up[k] += h
        dn[k] -= h
        J[:, k] = (residuals(up) - residuals(dn)) / (2.0 * h)
    return J


def reference_lm(residuals, init, **kw):
    """lm_optimize with the column-loop Jacobian."""
    return lm_optimize(
        residuals, init, jacobian=lambda p: loop_jacobian(residuals, p, residuals(p)), **kw
    )


free_vectors = st.tuples(
    st.floats(0.5, 1.5),
    *(st.floats(-1e-2, 1e-2) for _ in range(3)),
    st.floats(-200.0, 3000.0),
    st.floats(-200.0, 3000.0),
).map(np.array)


@st.composite
def fleet_free_vectors(draw):
    """Free vectors for fleet-length curves, with shared abscissas and zero coefficients."""
    free = draw(free_vectors)
    if draw(st.booleans()):
        free[5] = free[4]
    for k in draw(st.sets(st.integers(0, 3), max_size=2)):
        free[k] = 0.0
    return free


class TestStackedJacobian:
    @given(
        free=free_vectors,
        n=st.integers(10, 600),
        start=st.integers(0, 500),
        gamma=st.floats(0.5, 50.0),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_column_loop(self, free, n, start, gamma, seed):
        x = np.arange(start, start + n, dtype=np.float64)
        y = np.random.default_rng(seed).uniform(0.8, 1.2, n)
        residuals, jacobian = _dbw_residuals(x, y, gamma)
        J = jacobian(free)
        assert np.array_equal(J, loop_jacobian(residuals, free, residuals(free)))
        assert J.flags.c_contiguous and J.shape == (n, 6)

    @given(
        free=fleet_free_vectors(),
        n=st.integers(10, 2600),
        start=st.integers(-500, 3500),
        gamma=st.floats(0.5, 50.0),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=100, deadline=None)
    def test_equals_column_loop_at_fleet_lengths(self, free, n, start, gamma, seed):
        # start in [-500, 3500] puts x0 and x2 inside, before and after the grid
        x = np.arange(start, start + n, dtype=np.float64)
        y = np.random.default_rng(seed).uniform(0.8, 1.2, n)
        residuals, jacobian = _dbw_residuals(x, y, gamma)
        J = jacobian(free)
        expected = loop_jacobian(residuals, free, residuals(free))
        assert J.shape == expected.shape == (n, 6)
        assert np.array_equal(J.view(np.int64), expected.view(np.int64))

    def test_jacobian_does_not_evaluate_the_model(self, monkeypatch):
        x = np.arange(1.0, 301.0)
        residuals, jacobian = _dbw_residuals(x, np.ones(300), 10.0)
        free = np.array([1.0, -1e-4, -1e-4, -1e-4, 210.0, 270.0])
        expected = loop_jacobian(residuals, free, residuals(free))
        with monkeypatch.context() as patch:
            patch.setattr(baconwatts, "dbw_model", None)
            J = jacobian(free)
        assert np.array_equal(J, expected)

    def test_default_jacobian_matches_reference_lm(self):
        X = np.column_stack([np.ones(30), np.linspace(-1, 2, 30), np.linspace(0, 3, 30) ** 2])
        y = 0.5 * np.sin(np.arange(30.0))

        def residuals(p):
            return np.tanh(X @ p) - y

        init = np.array([0.3, -1.7, 2e-3])
        result = lm_optimize(residuals, init)
        reference = reference_lm(residuals, init)
        assert result.cost_history == reference.cost_history
        assert np.array_equal(result.params, reference.params)
        assert result.iterations > 1

    @pytest.mark.parametrize("seed", [3, 11])
    def test_fits_match_reference_lm(self, monkeypatch, seed):
        for series, _ in generate_fleet(2, seed=seed, n_cycles=900):
            runs = []
            real_lm = baconwatts.lm_optimize

            def recording(residuals, init, **kw):
                runs.append((residuals, init, kw, real_lm(residuals, init, **kw)))
                return runs[-1][-1]

            with monkeypatch.context() as patch:
                patch.setattr(baconwatts, "lm_optimize", recording)
                fit = fit_dbw(resample_even(series))
            [(residuals, init, kw, result)] = runs
            kw.pop("jacobian")
            reference = reference_lm(residuals, init, **kw)

            assert result.cost_history == reference.cost_history
            assert np.array_equal(result.params, reference.params)
            assert fit.params == DBWParams.from_array(reference.params, 10.0)
            assert fit.iterations == reference.iterations > 1

    @pytest.mark.parametrize("gamma", [0.0, -1.0])
    def test_non_positive_gamma_diverges(self, gamma):
        series = synth_dbw_series(make_params(), n=200)
        with pytest.raises(FitDiverged, match="gamma must be positive"):
            fit_dbw(series, gamma=gamma)
