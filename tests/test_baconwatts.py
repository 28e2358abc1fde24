import inspect
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kneescout import baconwatts
from kneescout.baconwatts import (
    BaconWattsFit,
    DBWParams,
    LMResult,
    _dbw_residuals,
    dbw_knee_report,
    dbw_model,
    fit_dbw,
    lm_optimize,
    transition_cycles,
)
from kneescout.errors import (
    InputError,
    NonFiniteResidual,
    SingularNormalEquations,
    TooShort,
)
from kneescout.ingest import CapacityFadeSeries, resample_even
from kneescout.synthgen import generate_fleet


def make_params(**kw):
    defaults = dict(
        alpha0=1.1, alpha1=-5e-5, alpha2=-2e-4, alpha3=-3e-4,
        x0=700.0, x2=900.0, gamma=10.0,
    )
    defaults.update(kw)
    return DBWParams(**defaults)


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


def reference_dbw_model(x, p):
    """dbw_model as one expression, as it was before it reused its
    temporaries, kept as the reference."""
    x = np.asarray(x, dtype=np.float64)
    d0 = x - p.x0
    d2 = x - p.x2
    return (
        p.alpha0 + p.alpha1 * d0 + p.alpha2 * d0 * np.tanh(d0 / p.gamma)
        + p.alpha3 * d2 * np.tanh(d2 / p.gamma)
    )


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

    @pytest.mark.floors
    @given(
        free=fleet_free_vectors(),
        n=st.integers(10, 2600),
        start=st.floats(-500.0, 3500.0),
        gamma=st.floats(0.5, 50.0) | st.floats(5e-324, 1e-310),
    )
    @settings(max_examples=150, deadline=None)
    def test_bits_equal_one_expression(self, free, n, start, gamma):
        """Marked floors: the in-place form must round as the one expression at the
        oldest NumPy too.
        """
        # a subnormal gamma sends d / gamma to +-inf, where tanh is +-1
        x = start + np.arange(n, dtype=np.float64)
        p = DBWParams.from_array(free, gamma)
        with np.errstate(over="ignore"):
            got, expected = dbw_model(x, p), reference_dbw_model(x, p)
            scalar = dbw_model(x[n // 2], p)
        assert got.shape == expected.shape == (n,)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))
        assert scalar.tobytes() == expected[n // 2].tobytes()

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

    def test_overflowing_initial_cost_rejected(self):
        # finite residuals whose sum of squares overflows; RuntimeWarnings
        # are errors in this suite, so the overflow must not warn either
        with pytest.raises(NonFiniteResidual, match="overflows"):
            lm_optimize(lambda p: np.full(3, 1e200) + p, np.array([0.0]))

    def test_trial_step_with_overflowing_cost_rejected(self):
        # the undamped Gauss-Newton step from 1 lands at 50.5, where the
        # cost overflows; damping shortens it until the cost is finite
        def residuals(p):
            return np.array([p[0] ** 2 - 100.0, 1e160 if p[0] > 20.0 else 0.0])

        result = lm_optimize(residuals, np.array([1.0]))
        assert result.converged
        assert all(math.isfinite(c) for c in result.cost_history)
        np.testing.assert_allclose(result.params, [10.0], atol=1e-8)

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


@np.errstate(over="ignore")
def allocating_lm_optimize(residuals, init, tol=1e-10, max_iter=1000, *, jacobian=None):
    """lm_optimize's loop as it was before it reused its working arrays,
    kept verbatim (type annotations and docstring aside) as the reference.

    It forms diag(diag) and -Jtr on every damping trial and checks each
    trial residual with isfinite before taking its cost.
    """
    if jacobian is None:
        jacobian = partial(baconwatts._central_jacobian, residuals)

    p = np.asarray(init, dtype=np.float64).copy()
    r = np.asarray(residuals(p), dtype=np.float64)
    if not np.all(np.isfinite(r)):
        raise NonFiniteResidual("residuals are not finite at the initial point")
    cost = float(r @ r)
    if not math.isfinite(cost):
        raise NonFiniteResidual("residual sum of squares overflows at the initial point")

    lam = 1e-3
    history = [cost]
    n_iter = 0
    converged = False

    for n_iter in range(1, max_iter + 1):
        J = jacobian(p)
        JtJ = J.T @ J
        Jtr = J.T @ r
        diag = np.diag(JtJ).copy()
        diag[diag <= 0.0] = 1e-12

        step = None
        while True:
            try:
                step = np.linalg.solve(JtJ + lam * np.diag(diag), -Jtr)
            except np.linalg.LinAlgError:
                step = None
            if step is not None and np.all(np.isfinite(step)):
                trial = p + step
                r_trial = np.asarray(residuals(trial), dtype=np.float64)
                if np.all(np.isfinite(r_trial)):
                    cost_trial = float(r_trial @ r_trial)
                    if cost_trial <= cost:  # cost is finite, so inf fails
                        break
            lam *= 10.0
            if lam > 1e12:
                raise SingularNormalEquations(
                    "no descent step found even at maximal damping"
                )

        rel_step = np.max(np.abs(step) / np.maximum(np.abs(p), 1.0))
        rel_decrease = (cost - cost_trial) / max(cost, 1e-300)
        p, r, cost = trial, r_trial, cost_trial
        history.append(cost)
        lam = max(lam / 10.0, 1e-12)
        if rel_step < tol and rel_decrease < tol:
            converged = True
            break

    return LMResult(
        params=p,
        residual_norm=math.sqrt(cost),
        iterations=n_iter,
        converged=converged,
        cost_history=history,
    )


def recorded_fit(monkeypatch, series, **fit_kw):
    """fit_dbw on the resampled series, and its one lm_optimize call:
    (fit, (residuals, init, keywords, result))."""
    runs = []
    real_lm = baconwatts.lm_optimize

    def recording(residuals, init, **kw):
        runs.append((residuals, init, kw, real_lm(residuals, init, **kw)))
        return runs[-1][-1]

    with monkeypatch.context() as patch:
        patch.setattr(baconwatts, "lm_optimize", recording)
        fit = fit_dbw(resample_even(series), **fit_kw)
    [run] = runs
    return fit, run


def assert_same_run(result, reference):
    assert result.cost_history == reference.cost_history
    assert result.params.tobytes() == reference.params.tobytes()
    assert result.iterations == reference.iterations
    assert result.converged == reference.converged


@pytest.mark.floors
class TestStackedJacobian:
    """Marked floors: the Jacobian, filled through ``out=`` ufuncs, must equal the column-
    by-column central difference at the oldest NumPy too.
    """

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
            fit, (residuals, init, kw, result) = recorded_fit(monkeypatch, series)
            kw.pop("jacobian")
            reference = reference_lm(residuals, init, **kw)

            assert result.cost_history == reference.cost_history
            assert np.array_equal(result.params, reference.params)
            assert fit.params == DBWParams.from_array(reference.params, 10.0)
            assert fit.iterations == reference.iterations > 1

    @pytest.mark.parametrize("gamma", [0.0, -1.0])
    def test_non_positive_gamma_diverges(self, gamma):
        series = synth_dbw_series(make_params(), n=200)
        with pytest.raises(InputError, match=rf"^gamma: must be positive and finite, got {gamma}$"):
            fit_dbw(series, gamma=gamma)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf])
    def test_non_finite_gamma_diverges(self, gamma):
        series = synth_dbw_series(make_params(), n=200)
        with pytest.raises(InputError, match=rf"^gamma: must be positive and finite, got {gamma}$"):
            fit_dbw(series, gamma=gamma)


@pytest.mark.floors
class TestLoopMatchesReference:
    """Marked floors: the trial loop's method forms, the ``tolist()`` reads and the
    ``out=`` writes into strided views must give the same iterates at the oldest NumPy too.
    """

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_fleet_fits(self, monkeypatch, seed):
        for series, _ in generate_fleet(3, seed=seed, n_cycles=1200):
            _, (residuals, init, kw, result) = recorded_fit(monkeypatch, series)
            assert_same_run(result, allocating_lm_optimize(residuals, init, **kw))
            assert result.iterations > 1

    def test_fit_stopped_at_max_iter(self, monkeypatch):
        # this 454-point cell converges after 369 iterations; stopped at 60,
        # its fit is still rejecting about every other trial step, as the
        # fleet fits that reach max_iter do
        series, _ = generate_fleet(3, seed=11, n_cycles=1200)[1]
        fit, (residuals, init, kw, result) = recorded_fit(monkeypatch, series, max_iter=60)
        assert kw["max_iter"] == 60
        assert_same_run(result, allocating_lm_optimize(residuals, init, **kw))
        assert result.iterations == 60
        assert result.converged is False and fit.converged is False

    def test_one_model_evaluation_per_residual_evaluation(self, monkeypatch):
        # perfbench's baconwatts.model_evals counts dbw_model calls
        counts = dict(model=0, residuals=0, jacobian=0, model_in_jacobian=0)
        real_model, real_lm = baconwatts.dbw_model, baconwatts.lm_optimize

        def counting_model(x, p):
            counts["model"] += 1
            return real_model(x, p)

        def counting_lm(residuals, init, *, jacobian, **kw):
            def counted_residuals(p):
                counts["residuals"] += 1
                return residuals(p)

            def counted_jacobian(p):
                before = counts["model"]
                J = jacobian(p)
                counts["jacobian"] += 1
                counts["model_in_jacobian"] += counts["model"] - before
                return J

            return real_lm(counted_residuals, init, jacobian=counted_jacobian, **kw)

        series, _ = generate_fleet(3, seed=11, n_cycles=1200)[1]
        with monkeypatch.context() as patch:
            patch.setattr(baconwatts, "dbw_model", counting_model)
            patch.setattr(baconwatts, "lm_optimize", counting_lm)
            fit = fit_dbw(resample_even(series), max_iter=60)
        assert counts["model_in_jacobian"] == 0
        assert counts["jacobian"] == fit.iterations == 60
        assert counts["model"] == counts["residuals"] == 116

    def test_trial_with_nan_residual(self):
        # the undamped step from 1 lands at 50.5, where one residual is NaN
        # though nothing overflows; the NaN cost fails cost_trial <= cost
        nan_trials = []

        def residuals(p):
            if p[0] > 20.0:
                nan_trials.append(p[0])
            return np.array([p[0] ** 2 - 100.0, math.nan if p[0] > 20.0 else 0.0])

        result = lm_optimize(residuals, np.array([1.0]))
        seen = len(nan_trials)
        assert seen > 0
        assert_same_run(result, allocating_lm_optimize(residuals, np.array([1.0])))
        assert len(nan_trials) == 2 * seen
        assert result.converged
        np.testing.assert_allclose(result.params, [10.0], atol=1e-8)

    def test_reused_jacobian_at_two_points(self):
        x = np.arange(100.0, 1300.0)
        y = np.random.default_rng(4).uniform(0.8, 1.2, len(x))
        residuals, jacobian = _dbw_residuals(x, y, 10.0)
        first = np.array([1.0, -1e-4, -2e-4, -3e-4, 940.0, 1180.0])
        second = np.array([0.9, 3e-5, -1e-3, 0.0, 1300.0, 1300.0])
        J = jacobian(first)
        assert np.array_equal(J, loop_jacobian(residuals, first, residuals(first)))
        assert jacobian(second) is J  # the same array, overwritten
        assert np.array_equal(J, loop_jacobian(residuals, second, residuals(second)))

    def test_interleaved_instances(self):
        rng = np.random.default_rng(8)
        cells = []
        for start, n, gamma in ((1, 300, 10.0), (-40, 2500, 3.5)):
            x = np.arange(start, start + n, dtype=np.float64)
            cells.append((x, *_dbw_residuals(x, rng.uniform(0.8, 1.2, n), gamma)))
        for step in range(3):
            for x, residuals, jacobian in cells:
                span = x[-1] - x[0]
                free = np.array([1.0, -1e-4, -1e-4 * step, 2e-4,
                                 x[0] + 0.3 * step * span, x[0] + 0.9 * span])
                J = jacobian(free)
                expected = loop_jacobian(residuals, free, residuals(free))
                assert np.array_equal(J.view(np.int64), expected.view(np.int64))
