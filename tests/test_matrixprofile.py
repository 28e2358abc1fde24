import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from kneescout.errors import DegenerateWindow, SeriesTooShort, WindowTooLarge
from kneescout.matrixprofile import FLAT_STD, _distance, _znormalize, mass, stamp


def znorm_distance_oracle(u, w):
    """Pairwise z-normalized Euclidean distance with the flat-window rules."""
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    L = len(u)
    su, sw = float(np.std(u)), float(np.std(w))
    if su < FLAT_STD and sw < FLAT_STD:
        return 0.0
    if su < FLAT_STD or sw < FLAT_STD:
        return math.sqrt(L)
    zu = (u - u.mean()) / su
    zw = (w - w.mean()) / sw
    return float(np.linalg.norm(zu - zw))


def naive_distance_profile(query, series):
    L, M = len(query), len(series)
    return np.array(
        [znorm_distance_oracle(query, series[k : k + L]) for k in range(M - L + 1)]
    )


def allpairs_distance_matrix(series, L):
    """Naive O(M^2 L) all-pairs z-normalized distances, array form.

    Windows are z-normalized directly and compared pairwise; flat-window
    rules and the ceil(L/2) exclusion band match the library contract.
    """
    series = np.asarray(series, dtype=float)
    n = len(series) - L + 1
    W = np.lib.stride_tricks.sliding_window_view(series, L).astype(float)
    mu = W.mean(axis=1)
    sd = W.std(axis=1)
    flat = sd < FLAT_STD
    Z = np.where(
        flat[:, None], 0.0, (W - mu[:, None]) / np.where(flat, 1.0, sd)[:, None]
    )
    D = cdist(Z, Z)
    D[flat[:, None] ^ flat[None, :]] = math.sqrt(L)
    D[flat[:, None] & flat[None, :]] = 0.0
    offsets = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    D[offsets <= math.ceil(L / 2)] = np.inf
    return D


def naive_matrix_profile(series, L):
    """O(M^2 L) all-pairs oracle with exclusion band and smallest-index ties."""
    series = np.asarray(series, dtype=float)
    M = len(series)
    n = M - L + 1
    radius = math.ceil(L / 2)
    P = np.full(n, np.inf)
    I = np.full(n, -1, dtype=np.int64)
    for j in range(n):
        for k in range(n):
            if abs(k - j) <= radius:
                continue
            d = znorm_distance_oracle(series[j : j + L], series[k : k + L])
            if d < P[j] or (d == P[j] and k < I[j]):
                P[j] = d
                I[j] = k
    return P, I


def _reference_stamp(series, L):
    """The block loop ``stamp`` used before its local band: a full (64, n)
    band mask built for every block of 64 rows. Returns (P, I)."""
    series = np.asarray(series, dtype=np.float64)
    radius = math.ceil(L / 2)
    Z, flat = _znormalize(np.lib.stride_tricks.sliding_window_view(series, L))
    n = len(Z)
    cols = np.arange(n)
    I = np.full(n, -1, dtype=np.int64)
    for start in range(0, n, 64):
        rows = cols[start : start + 64]
        gram = Z[start : start + 64] @ Z.T
        gram[:, flat] = np.where(flat[rows, None], float(L), L / 2.0)
        band = (cols >= rows[:, None] - radius) & (cols <= rows[:, None] + radius)
        gram[band] = -np.inf
        best = np.argmax(gram, axis=1)
        found = gram[np.arange(len(rows)), best] > -np.inf
        I[rows[found]] = best[found]
    P = np.full(n, 2.0 * math.sqrt(L))
    j = np.nonzero(I >= 0)[0]
    k = I[j]
    P[j] = np.minimum(_distance(Z[j], Z[k], flat[j], flat[k], L), P[j])
    return P, I


@st.composite
def block_edge_series(draw):
    """Series whose window count n sits near a 64-row block edge.

    n lies within 2 ceil(L/2) of 64 k (k = 1..3) or below 64 + ceil(L/2),
    and is at least 2 ceil(L/2) + 2, the fewest windows that all have a
    neighbour outside their band.
    Values may be rounded to a coarse grid or tiled from a short integer
    pattern (equal windows, so argmax ties), and a flat run may cross a
    block edge.
    """
    L = draw(st.integers(2, 40))
    r = math.ceil(L / 2)
    if draw(st.booleans()):
        n = max(64 * draw(st.integers(1, 3)) + draw(st.integers(-2 * r, 2 * r)), 2 * r + 2)
    else:
        n = draw(st.integers(2 * r + 2, 64 + r - 1))
    m = n + L - 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["walk", "rounded", "tiled"]))
    if kind == "walk":
        series = np.cumsum(rng.normal(0, 1, m))
    elif kind == "rounded":
        series = np.round(np.cumsum(rng.normal(0, 1, m)) * 2) / 2
    else:
        series = np.tile(rng.integers(-2, 3, draw(st.integers(1, 9))), m)[:m].astype(float)
    if draw(st.booleans()):
        edge = 64 * draw(st.integers(0, max(n // 64, 1)))
        lo = min(max(edge - draw(st.integers(0, L + r)), 0), m - 1)
        hi = min(edge + draw(st.integers(1, 2 * L + r)), m)
        series[lo:hi] = series[lo]
    return series, L


class TestMass:
    def test_band_radius_is_half_the_window(self):
        series = np.random.default_rng(1).normal(0, 1, 40)
        dist = mass(series[13:19], series, query_start=13)
        assert np.isinf(dist[10:17]).all() and np.isfinite(dist[[9, 17]]).all()
        assert list(inspect.signature(mass).parameters) == ["query", "series", "query_start"]

    def test_self_match_is_zero(self):
        rng = np.random.default_rng(0)
        series = rng.normal(0, 1, 40)
        k = 13
        profile = mass(series[k : k + 6], series)
        assert profile[k] == pytest.approx(0.0, abs=1e-7)

    def test_affine_invariance(self):
        rng = np.random.default_rng(1)
        series = rng.normal(0, 1, 50)
        sub = series[10:18]
        profile = mass(3.0 * sub + 2.0, series)
        assert profile[10] == pytest.approx(0.0, abs=1e-7)

    def test_matches_naive(self):
        rng = np.random.default_rng(2)
        series = np.cumsum(rng.normal(0, 1, 64))
        query = series[20:28]
        got = mass(query, series)
        expected = naive_distance_profile(query, series)
        assert np.max(np.abs(got - expected)) < 1e-9

    def test_trivial_match_masked_when_self_join(self):
        rng = np.random.default_rng(3)
        series = rng.normal(0, 1, 40)
        profile = mass(series[10:16], series, query_start=10)
        radius = math.ceil(6 / 2)
        assert np.all(np.isinf(profile[10 - radius : 10 + radius + 1]))
        outside = np.delete(profile, np.s_[10 - radius : 10 + radius + 1])
        assert np.all(np.isfinite(outside))

    def test_degenerate_window(self):
        with pytest.raises(DegenerateWindow):
            mass(np.array([1.0]), np.ones(10))

    def test_window_too_large(self):
        with pytest.raises(WindowTooLarge):
            mass(np.ones(11), np.ones(10))

    def test_flat_window_rules(self):
        series = np.concatenate([np.full(10, 2.0), np.sin(np.arange(10))])
        profile = mass(np.full(4, 7.0), series)
        assert profile[0] == 0.0  # flat query vs flat window
        assert profile[12] == pytest.approx(2.0)  # flat query vs varying window


class TestStamp:
    def test_repeated_motif(self):
        rng = np.random.default_rng(4)
        motif = np.array([0.0, 2.0, -1.0, 3.0, 0.5, -2.0, 1.0, 0.0])
        series = rng.normal(0, 0.2, 60)
        series[5:13] += motif * 4
        series[40:48] += motif * 4
        mp = stamp(series, 8)
        assert mp.P[5] < 0.35 and mp.P[40] < 0.35
        assert mp.I[5] == 40 and mp.I[40] == 5

    def test_sine_profile_near_zero(self):
        p = 16
        t = np.arange(8 * p)
        series = np.sin(2 * np.pi * t / p)
        mp = stamp(series, p)
        interior = mp.P[p : -p]
        assert np.max(interior) < 1e-6

    def test_series_too_short(self):
        with pytest.raises(SeriesTooShort):
            stamp(np.ones(8), 8)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_series_rejected(self, bad):
        # a window holding nan or inf has no z-normalized distance, so no
        # index entry would be meaningful
        series = np.cumsum(np.random.default_rng(12).normal(0, 1, 60))
        series[30] = bad
        with pytest.raises(DegenerateWindow, match="non-finite"):
            stamp(series, 4)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(5)
        walk = np.cumsum(rng.normal(0, 1, 120))
        # constant runs after varying data must count as flat windows
        runs = np.concatenate([np.full(30, 2.0), np.sin(np.arange(40)), np.full(30, 5.0)])
        for series, L in ((walk, 3), (walk, 8), (walk, 20), (runs, 4)):
            mp = stamp(series, L)
            P, I = naive_matrix_profile(series, L)
            assert np.max(np.abs(mp.P - P)) < 1e-9
            # indices must agree wherever the nearest neighbor is unique by margin
            for j in range(len(P)):
                d_second = sorted(
                    znorm_distance_oracle(series[j : j + L], series[k : k + L])
                    for k in range(len(P))
                    if abs(k - j) > mp.exclusion_radius and k != I[j]
                )
                if d_second and d_second[0] - P[j] > 1e-6:
                    assert mp.I[j] == I[j]

    def test_affine_invariance_of_profile(self):
        rng = np.random.default_rng(6)
        series = np.cumsum(rng.normal(0, 1, 90))
        base = stamp(series, 8)
        scaled = stamp(2.5 * series + 7.0, 8)
        assert np.max(np.abs(base.P - scaled.P)) < 1e-8

    def test_exclusion_radius_respected(self):
        rng = np.random.default_rng(7)
        series = np.cumsum(rng.normal(0, 1, 100))
        mp = stamp(series, 6)
        j = np.arange(len(mp.I))
        assert np.all(np.abs(mp.I - j) > mp.exclusion_radius)

    def test_profile_value_matches_indexed_pair(self):
        rng = np.random.default_rng(8)
        series = np.cumsum(rng.normal(0, 1, 80))
        mp = stamp(series, 5)
        for j in range(len(mp.P)):
            k = mp.I[j]
            d = znorm_distance_oracle(series[j : j + 5], series[k : k + 5])
            assert mp.P[j] == pytest.approx(d, abs=1e-9)

    def test_merge_order_independent(self):
        # fold distance profiles in a shuffled order with the same tie rule;
        # the result must match stamp exactly
        rng = np.random.default_rng(9)
        series = np.cumsum(rng.normal(0, 1, 70))
        L = 4
        mp = stamp(series, L)
        n = len(series) - L + 1
        radius = mp.exclusion_radius
        P = np.full(n, np.inf)
        I = np.full(n, -1, dtype=np.int64)
        order = rng.permutation(n)
        for j in order:
            dist = mass(series[j : j + L], series, query_start=j)
            finite = np.isfinite(dist)
            better = finite & ((dist < P) | ((dist == P) & (j < I)))
            P = np.where(better, dist, P)
            I = np.where(better, j, I)
        capped = np.minimum(P, 2.0 * math.sqrt(L))
        np.testing.assert_array_equal(capped, mp.P)
        np.testing.assert_array_equal(I, mp.I)

    @given(data=st.data(), L=st.integers(2, 40), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_neighbour_rule_around_minimum_length(self, data, L, seed):
        # below M = L + 2 ceil(L/2) + 1 some window has no candidate outside
        # its band; from there on every window has a neighbour
        r = math.ceil(L / 2)
        needed = L + 2 * r + 1
        M = data.draw(st.integers(L + r + 1, needed + 2))
        rng = np.random.default_rng(seed)
        if data.draw(st.booleans()):
            series = rng.normal(0, 1, M)
        else:  # equal and flat windows: argmax ties and the flat-window rules
            series = np.tile(rng.integers(-1, 2, data.draw(st.integers(1, 5))), M)[:M].astype(float)
        if M < needed:
            with pytest.raises(SeriesTooShort, match=rf"L \+ 2\*ceil\(L/2\) \+ 1 = {needed}\b"):
                stamp(series, L)
            return
        mp = stamp(series, L)
        j = np.arange(M - L + 1)
        assert np.all(np.abs(mp.I - j) > r)
        Z, flat = _znormalize(np.lib.stride_tricks.sliding_window_view(series, L))
        for row, k in zip(j, mp.I):
            d = min(_distance(Z[row], Z[k], flat[row], flat[k], L), 2.0 * math.sqrt(L))
            assert mp.P[row] == d
        P, _ = naive_matrix_profile(series, L)
        assert np.max(np.abs(mp.P - P)) < 1e-9

    def test_distances_bounded(self):
        rng = np.random.default_rng(10)
        series = rng.normal(0, 1, 200)
        mp = stamp(series, 7)
        assert np.all(mp.P >= 0)
        assert np.all(mp.P <= 2 * math.sqrt(7) + 1e-12)

    @given(
        seed=st.integers(0, 10_000),
        m=st.integers(20, 60),
        L=st.sampled_from([3, 5, 8]),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_naive_property(self, seed, m, L):
        rng = np.random.default_rng(seed)
        series = np.cumsum(rng.normal(0, 1, m))
        mp = stamp(series, L)
        P, _ = naive_matrix_profile(series, L)
        assert np.max(np.abs(mp.P - P)) < 1e-9


class TestLocalBandMatchesFullMask:
    @given(block_edge_series())
    @settings(max_examples=300, deadline=None)
    def test_bitwise(self, case):
        series, L = case
        mp = stamp(series, L)
        P, I = _reference_stamp(series, L)
        assert mp.P.tobytes() == P.tobytes()
        np.testing.assert_array_equal(mp.I, I)

    @pytest.mark.parametrize("n", [65, 128, 2500])
    def test_fixed_sizes_with_flat_runs(self, n):
        rng = np.random.default_rng(n)
        L = 12
        series = np.cumsum(rng.normal(0, 1, n + L - 1))
        series[50:90] = series[50]
        mp = stamp(series, L)
        P, I = _reference_stamp(series, L)
        assert mp.P.tobytes() == P.tobytes()
        np.testing.assert_array_equal(mp.I, I)


class TestOracleScale:
    def test_index_agreement_at_full_scale(self):
        # where the nearest neighbor is unique by a 1e-6 margin, the index
        # must match the all-pairs oracle, at the contract size and on long
        # series
        for seed, m in ((77, 300), (77, 2000), (78, 2000), (79, 2000)):
            rng = np.random.default_rng(seed)
            series = np.cumsum(rng.normal(0, 1, m))
            for L in (3, 8, 20):
                mp = stamp(series, L)
                D = allpairs_distance_matrix(series, L)
                oracle_P = D.min(axis=1)
                oracle_I = D.argmin(axis=1)
                assert np.max(np.abs(mp.P - oracle_P)) < 1e-9
                two = np.partition(D, 1, axis=1)[:, 1]
                unique = two - oracle_P > 1e-6
                np.testing.assert_array_equal(mp.I[unique], oracle_I[unique])
