import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import convolve1d
from scipy.signal import savgol_coeffs, savgol_filter

from kneescout import preprocess
from kneescout.errors import EvenWindow, OrderTooHigh, SeriesTooShort, WindowTooLarge
from kneescout.ingest import NormalizedSeries
from kneescout.preprocess import approximate_curvature, clip_window, savgol_smooth


def local_lsq_smooth(values, window, order):
    """Oracle: per-point polynomial fit via normal equations, mirror padding.

    The reflection is about the edge sample without repeating it (scipy's
    mode='mirror').
    """
    values = np.asarray(values, dtype=float)
    half = window // 2
    padded = np.concatenate(
        [values[1 : half + 1][::-1], values, values[-half - 1 : -1][::-1]]
    )
    t = np.arange(-half, half + 1, dtype=float)
    V = np.vander(t, order + 1, increasing=True)
    out = np.empty_like(values)
    for i in range(len(values)):
        seg = padded[i : i + window]
        coef = np.linalg.solve(V.T @ V, V.T @ seg)
        out[i] = coef[0]  # local polynomial value at the window center
    return out


def norm_series(values, start=0):
    values = np.asarray(values, dtype=float)
    return NormalizedSeries(np.arange(start, start + len(values)), values)


class TestSavgolSmooth:
    def test_window5_order2_center_weights(self):
        # classic quadratic smoothing weights
        expected = np.array([-3, 12, 17, 12, -3]) / 35.0
        np.testing.assert_allclose(savgol_coeffs(5, 2), expected, atol=1e-12)
        rng = np.random.default_rng(1)
        values = rng.normal(1.0, 0.05, 41)
        out = savgol_smooth(norm_series(values), window=5, order=2)
        oracle = local_lsq_smooth(values, 5, 2)
        np.testing.assert_allclose(out.values, oracle, atol=1e-10)

    def test_reproduces_cubic_on_interior(self):
        # mirror padding is not polynomial, so reproduction holds away from
        # the edge half-windows (see the smoothing docstring)
        x = np.arange(60, dtype=float)
        values = 1e-6 * x**3 - 2e-4 * x**2 + 0.01 * x + 0.5
        out = savgol_smooth(norm_series(values), window=21, order=3)
        np.testing.assert_allclose(out.values[10:-10], values[10:-10], atol=1e-10)

    def test_constant_identity(self):
        out = savgol_smooth(norm_series(np.full(30, 0.8)), window=7, order=2)
        np.testing.assert_allclose(out.values, 0.8, atol=1e-13)

    def test_matches_oracle_with_mirror_edges(self):
        rng = np.random.default_rng(7)
        values = np.cumsum(rng.normal(0, 0.01, 50)) + 1.0
        out = savgol_smooth(norm_series(values), window=9, order=3)
        np.testing.assert_allclose(out.values, local_lsq_smooth(values, 9, 3), atol=1e-10)

    def test_commutes_with_constant_shift(self):
        rng = np.random.default_rng(3)
        values = rng.normal(1.0, 0.02, 40)
        a = savgol_smooth(norm_series(values + 0.25), window=11, order=2).values
        b = savgol_smooth(norm_series(values), window=11, order=2).values + 0.25
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_length_preserved(self):
        out = savgol_smooth(norm_series(np.linspace(1, 0.8, 33)), window=21, order=3)
        assert len(out) == 33

    def test_even_window_rejected(self):
        with pytest.raises(EvenWindow):
            savgol_smooth(norm_series(np.ones(30)), window=8, order=2)

    def test_window_too_large(self):
        with pytest.raises(WindowTooLarge):
            savgol_smooth(norm_series(np.ones(10)), window=11, order=2)

    def test_order_too_high(self):
        with pytest.raises(OrderTooHigh):
            savgol_smooth(norm_series(np.ones(30)), window=5, order=5)

    def test_overflowing_design_matrix_is_order_too_high(self):
        # the largest design-matrix entry 81**162 overflows float64; 81**161 does not
        assert np.isfinite(preprocess.savgol_coeffs(163, 161)).all()
        with pytest.raises(OrderTooHigh, match=r"^order 162 at window 163: "):
            preprocess.savgol_coeffs(163, 162)


def mirrored(half):
    """The symmetric weights whose centre and trailing half are ``half``."""
    return np.concatenate([half[:0:-1], half])


def ndimage_symmetric(weights):
    """Whether ``scipy.ndimage.convolve1d`` takes its symmetric branch: every
    pair of weights about the centre within ``DBL_EPSILON`` (absolute)."""
    h = len(weights) // 2
    return not np.any(np.abs(weights[: h : -1] - weights[:h]) > np.finfo(np.float64).eps)


@pytest.mark.floors
class TestMatchesScipySavgol:
    """Smoothing is ``convolve1d`` of the mirrored trailing half of
    ``scipy.signal.savgol_coeffs``, bit for bit, and so
    ``scipy.signal.savgol_filter(mode="mirror")`` wherever ndimage finds those
    coefficients symmetric.

    Marked floors: at the oldest NumPy the weights still come from its LAPACK ``gelsd``
    and must equal SciPy's.
    """

    def test_every_odd_window_and_order(self):
        # windows 179-201 at order 7 include the cases where scipy's rank
        # cutoff drops the top power, so the cutoff must match too
        rng = np.random.default_rng(11)
        cases = symmetric = mismatched = 0
        for window in range(3, 202, 2):
            for order in range(min(window - 1, 7) + 1):
                coeffs = savgol_coeffs(window, order)
                assert preprocess.savgol_coeffs(window, order).tobytes() == coeffs.tobytes(), (
                    window, order)
                for n in (window, window + 7, 900):
                    values = 1.0 - np.cumsum(rng.uniform(0, 1e-3, n)) + rng.normal(0, 1e-3, n)
                    got = savgol_smooth(norm_series(values), window, order).values.tobytes()
                    want = convolve1d(values, mirrored(coeffs[window // 2 :]), mode="mirror")
                    cases += 1
                    mismatched += got != want.tobytes()
                    if ndimage_symmetric(coeffs):
                        symmetric += 1
                        want = savgol_filter(values, window, order, mode="mirror")
                        mismatched += got != want.tobytes()
        # 443 of the 791 pairs, (21, 3) among them: the rest, (81, 3) among them,
        # have some pair of coefficients more than DBL_EPSILON apart
        assert (cases, symmetric, mismatched) == (2373, 1329, 0)

    def test_cached_coefficients_are_read_only(self):
        coeffs = preprocess.savgol_coeffs(21, 3)
        assert preprocess.savgol_coeffs(21, 3) is coeffs
        assert not coeffs.flags.writeable
        with pytest.raises(ValueError):
            coeffs[0] = 0.0


def paired_weights(rng, h, sign, ulps):
    """2h + 1 weights with w[h + j] = sign * w[h - j] + k * 2**-53, |k| <= ulps.

    The pairs lie in [0.5, 1) in magnitude, where 2**-53 is one unit in the
    last place, so ulps = 2 puts some pairs exactly DBL_EPSILON apart (still
    symmetric to ndimage) and ulps = 3 some just beyond it.
    """
    left = rng.uniform(0.5, 1.0, h) * rng.choice([-1.0, 1.0], h)
    right = sign * left + rng.integers(-ulps, ulps + 1, h) * 2.0**-53
    return np.concatenate([left[::-1], [rng.normal()], right])


@pytest.mark.floors
class TestMirrorConvolution:
    """The smoothing kernel is ``scipy.ndimage.convolve1d(mode="mirror")`` of the
    mirrored half it reads, bit for bit, and of the full weights wherever ndimage
    finds them symmetric.

    Marked floors: at the oldest NumPy and SciPy the products must still add in
    ``scipy.ndimage``'s order.
    """

    @given(
        data=st.data(),
        h=st.integers(1, 100),
        kind=st.sampled_from(["symmetric", "antisymmetric", "general"]),
        ulps=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
        scale=st.integers(-12, 12),
        signed_zeros=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_ndimage(self, data, h, kind, ulps, seed, scale, signed_zeros):
        n = data.draw(st.integers(2 * h + 1, 3000), label="n")
        rng = np.random.default_rng(seed)
        if kind == "general":
            weights = rng.normal(size=2 * h + 1)
        else:
            weights = paired_weights(rng, h, 1.0 if kind == "symmetric" else -1.0, ulps)
        values = rng.normal(size=n) * 10.0**scale
        if signed_zeros:
            values[rng.random(n) < 0.3] = 0.0
            values[rng.random(n) < 0.3] = -0.0
        half = weights[h:]
        got = preprocess._mirror_convolve(values, half).tobytes()
        assert got == convolve1d(values, mirrored(half), mode="mirror").tobytes()
        if ndimage_symmetric(weights):
            assert got == convolve1d(values, weights, mode="mirror").tobytes()


class TestClipWindow:
    def test_clips_to_largest_odd(self):
        assert clip_window(21, 12) == 11
        assert clip_window(21, 50) == 21
        assert clip_window(21, 3) == 3


def curvature_three_point_oracle(values):
    """Direct per-index loop for ws=3."""
    return np.array(
        [values[i - 1] + values[i + 1] - 2.0 * values[i] for i in range(1, len(values) - 1)]
    )


def smooth_series(values, start=0):
    values = np.asarray(values, dtype=float)
    return NormalizedSeries(np.arange(start, start + len(values)), values)


class TestApproximateCurvature:
    def test_affine_is_exactly_zero(self):
        # dyadic slope and intercept make every arithmetic step exact
        x = np.arange(100, dtype=float)
        values = 1.25 - 0.03125 * x
        out = approximate_curvature(smooth_series(values), ws=3)
        assert np.all(out.values == 0.0)

    def test_three_point_knee(self):
        out = approximate_curvature(smooth_series([1.0, 1.0, 0.9]), ws=3)
        assert len(out) == 1
        assert out.values[0] == pytest.approx(-0.1, abs=1e-15)
        assert out.values[0] < 0

    def test_three_point_elbow(self):
        out = approximate_curvature(smooth_series([1.0, 0.9, 0.9]), ws=3)
        assert out.values[0] == pytest.approx(0.1, abs=1e-15)
        assert out.values[0] > 0

    def test_index_offset_bookkeeping(self):
        series = smooth_series(np.ones(11), start=5)
        out = approximate_curvature(series, ws=5)
        assert isinstance(out, NormalizedSeries)
        assert np.shares_memory(out.cycles, series.cycles)  # a view of the input grid
        assert len(out) == 11 - 4
        assert out.cycles.tolist() == list(range(7, 14))

    def test_matches_central_difference_oracle(self):
        rng = np.random.default_rng(11)
        values = np.cumsum(rng.normal(0, 0.01, 64))
        out = approximate_curvature(smooth_series(values), ws=3)
        np.testing.assert_allclose(out.values, curvature_three_point_oracle(values), atol=1e-12)

    def test_even_window_rejected(self):
        with pytest.raises(EvenWindow):
            approximate_curvature(smooth_series(np.ones(10)), ws=4)

    @pytest.mark.parametrize("ws", [2, 0])
    def test_even_window_below_3_is_too_small(self, ws):
        # the window rule checks >= 3 before oddness, as PipelineParams does
        with pytest.raises(WindowTooLarge, match=f"^ws must be >= 3, got {ws}$"):
            approximate_curvature(smooth_series(np.ones(10)), ws=ws)

    @pytest.mark.parametrize("ws", [1, -1, -7])
    def test_odd_window_below_3_rejected(self, ws):
        with pytest.raises(WindowTooLarge, match="ws must be >= 3"):
            approximate_curvature(smooth_series(np.ones(10)), ws=ws)

    def test_series_too_short(self):
        with pytest.raises(SeriesTooShort):
            approximate_curvature(smooth_series(np.ones(4)), ws=5)

    @given(
        data=st.lists(st.floats(-1, 1), min_size=5, max_size=40),
        a=st.floats(-2, 2),
        b=st.floats(-2, 2),
    )
    @settings(max_examples=60, deadline=None)
    def test_linearity(self, data, a, b):
        y = np.asarray(data)
        z = np.sin(np.arange(len(y)))
        lhs = approximate_curvature(smooth_series(a * y + b * z), ws=3).values
        rhs = (
            a * approximate_curvature(smooth_series(y), ws=3).values
            + b * approximate_curvature(smooth_series(z), ws=3).values
        )
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    @given(
        data=st.lists(st.floats(-1, 1), min_size=5, max_size=40),
        slope_num=st.integers(-8, 8),
        intercept_num=st.integers(-8, 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_affine_trend_invisible(self, data, slope_num, intercept_num):
        # dyadic affine trend on top of arbitrary data changes nothing beyond fp noise
        y = np.asarray(data)
        trend = (slope_num / 16.0) * np.arange(len(y)) + intercept_num / 4.0
        base = approximate_curvature(smooth_series(y), ws=3).values
        shifted = approximate_curvature(smooth_series(y + trend), ws=3).values
        np.testing.assert_allclose(shifted, base, atol=1e-9)
