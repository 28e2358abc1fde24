import math
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from kneescout import PipelineParams, matrixprofile, segmentation
from kneescout.errors import DegenerateWindow, SeriesTooShort
from kneescout.matrixprofile import FLAT_STD, _distance, _znormalize, stamp
from kneescout.synthgen import generate_fleet


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


def _reference_znormalize(windows):
    """The z-normalization ``stamp`` used before it skipped the flat-window
    mask on series without a flat window: the masked divisor and the masked
    write run on every call."""
    dev = windows - windows.mean(axis=-1, keepdims=True)
    sigma = np.sqrt(np.square(dev).sum(axis=-1, keepdims=True) / windows.shape[-1])
    flat = sigma < FLAT_STD
    dev /= np.where(flat, 1.0, sigma)
    flat = flat[..., 0]
    dev[flat] = 0.0
    return dev, flat


def _reference_stamp(series, L):
    """The block loop ``stamp`` used before its local band: a full (64, n)
    band mask built for every block of 64 rows, on windows z-normalized by
    ``_reference_znormalize``. Returns (P, I)."""
    series = np.asarray(series, dtype=np.float64)
    radius = math.ceil(L / 2)
    Z, flat = _reference_znormalize(np.lib.stride_tricks.sliding_window_view(series, L))
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
                    if abs(k - j) > math.ceil(L / 2) and k != I[j]
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
        assert np.all(np.abs(mp.I - j) > math.ceil(6 / 2))

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
        P = np.full(n, np.inf)
        I = np.full(n, -1, dtype=np.int64)
        Z, flat = _znormalize(np.lib.stride_tricks.sliding_window_view(series, L))
        radius = math.ceil(L / 2)
        order = rng.permutation(n)
        for j in order:
            dist = _distance(Z[j], Z, flat[j], flat, L)
            dist[max(0, j - radius) : j + radius + 1] = np.inf
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


@pytest.mark.floors
class TestLocalBandMatchesFullMask:
    """Marked floors: the Gram blocks (``np.matmul`` into one reused buffer) must equal the
    full-mask reference at the oldest NumPy too.
    """

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


def helper_gate(patch, blocks):
    """Make ``stamp`` use its helper thread from ``blocks`` blocks on, as on two CPUs."""
    patch.setattr(matrixprofile, "_HELPER_MIN_BLOCKS", blocks)
    patch.setattr(matrixprofile, "_cpu_count", lambda: 2)


def matmul_threads(patch, fail_in=None):
    """Record the thread of each Gram block's ``np.matmul``; raise in ``fail_in``
    ("caller" or "helper") instead of forming that block."""
    caller = threading.get_ident()
    seen = []
    real = np.matmul

    def matmul(a, b, **kw):
        side = "caller" if threading.get_ident() == caller else "helper"
        seen.append(side)
        if side == fail_in:
            raise RuntimeError(f"block failed in the {side}")
        return real(a, b, **kw)

    patch.setattr(matrixprofile.np, "matmul", matmul)
    return seen


def half_boundary_series(blocks, kind, L=12, seed=0):
    """A series of ``blocks`` Gram blocks whose flat run or tiled stretch
    (equal windows, so argmax ties) crosses the row where the helper's half
    begins."""
    n = 64 * blocks - 7
    m = n + L - 1
    rng = np.random.default_rng(seed)
    series = np.cumsum(rng.normal(0, 1, m))
    edge = 64 * (blocks // 2)
    lo, hi = max(edge - 3 * L, 0), min(edge + 4 * L, m)
    if kind == "flat":
        series[lo:hi] = series[lo]
    else:
        series[lo:hi] = np.tile(rng.integers(-2, 3, 5), hi - lo)[: hi - lo]
        series[: 2 * L] = series[lo : lo + 2 * L]  # ties with the caller's first rows too
    return series, L


@pytest.mark.floors
class TestHelperThreadMatchesSerial:
    """Marked floors: both halves' Gram blocks (``np.matmul`` on two threads, into
    two slices of one buffer) must equal the serial reference at the oldest NumPy too.
    """

    @pytest.mark.parametrize("kind", ["flat", "tiled"])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_bitwise_around_the_gate(self, monkeypatch, kind, offset):
        gate = matrixprofile._HELPER_MIN_BLOCKS
        helper_gate(monkeypatch, gate)
        seen = matmul_threads(monkeypatch)
        series, L = half_boundary_series(gate + offset, kind)
        mp = stamp(series, L)
        assert ("helper" in seen) == (offset >= 0)
        P, I = _reference_stamp(series, L)
        assert mp.P.tobytes() == P.tobytes()
        np.testing.assert_array_equal(mp.I, I)

    @pytest.mark.parametrize("kind", ["flat", "tiled"])
    def test_bitwise_at_full_length(self, monkeypatch, kind):
        helper_gate(monkeypatch, matrixprofile._HELPER_MIN_BLOCKS)
        seen = matmul_threads(monkeypatch)
        series, L = half_boundary_series(39, kind, seed=2500)  # n = 2489, the longest rung
        mp = stamp(series, L)
        assert seen.count("helper") == 20
        P, I = _reference_stamp(series, L)
        assert mp.P.tobytes() == P.tobytes()
        np.testing.assert_array_equal(mp.I, I)

    @given(block_edge_series())
    @settings(max_examples=100, deadline=None)
    def test_threaded_equals_forced_serial(self, case):
        series, L = case
        with pytest.MonkeyPatch.context() as patch:
            helper_gate(patch, 1)
            threaded = stamp(series, L)
            helper_gate(patch, 10**9)
            serial = stamp(series, L)
        assert threaded.P.tobytes() == serial.P.tobytes()
        np.testing.assert_array_equal(threaded.I, serial.I)


class TestHelperThread:
    def test_concurrent_calls_under_fast_switching(self, monkeypatch):
        # four callers, each with a helper, on a 10 us switch interval: every
        # result keeps the serial bits, and every thread has ended
        series, L = half_boundary_series(20, "tiled")
        helper_gate(monkeypatch, 10**9)
        serial = stamp(series, L)
        helper_gate(monkeypatch, 1)
        results = []
        callers = [threading.Thread(target=lambda: results.append(stamp(series, L))) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert len(results) == 4
        for mp in results:
            assert mp.P.tobytes() == serial.P.tobytes()
            np.testing.assert_array_equal(mp.I, serial.I)

    def test_serial_on_one_cpu(self, monkeypatch):
        helper_gate(monkeypatch, 1)
        monkeypatch.setattr(matrixprofile, "_cpu_count", lambda: 1)
        seen = matmul_threads(monkeypatch)
        stamp(half_boundary_series(20, "flat")[0], 12)
        assert set(seen) == {"caller"}

    def test_threads_end_with_the_call(self, monkeypatch):
        helper_gate(monkeypatch, 1)
        before = threading.active_count()
        stamp(half_boundary_series(20, "flat")[0], 12)
        assert threading.active_count() == before

    @pytest.mark.parametrize("fail_in", ["helper", "caller"])
    def test_error_in_either_half_surfaces(self, monkeypatch, fail_in):
        helper_gate(monkeypatch, 1)
        matmul_threads(monkeypatch, fail_in=fail_in)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"block failed in the {fail_in}"):
            stamp(half_boundary_series(20, "tiled")[0], 12)
        assert threading.active_count() == before


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


def lazy_cases():
    """(series, L) pairs for every L from 2 to 30 whose window count sits at
    a 64-row block edge (63, 64, 65, 127, 128, 129) or is the fewest that
    ``stamp`` takes, each on a flat, a partly flat and a random-walk series."""
    rng = np.random.default_rng(43)
    for L in range(2, 31):
        shortest = 2 * math.ceil(L / 2) + 2
        for n in sorted({shortest, *(c for c in (63, 64, 65, 127, 128, 129) if c >= shortest)}):
            m = n + L - 1
            walk = np.cumsum(rng.normal(0, 1, m))
            partly = walk.copy()
            partly[m // 3 : m // 3 + L + 5] = partly[m // 3]
            for series in (np.full(m, 0.7), partly, walk):
                yield series, L


class TestLazyProfile:
    """P is formed on its first read, from the profile's own copy of the series."""

    def test_bitwise_against_reference(self):
        for series, L in lazy_cases():
            mp = stamp(series, L)
            P, I = _reference_stamp(series, L)
            assert mp.I.tobytes() == I.tobytes()
            assert mp.P.tobytes() == P.tobytes()

    def test_P_ignores_writes_to_the_input(self):
        for series, L in list(lazy_cases())[::40]:
            given = series.copy()
            mp = stamp(given, L)
            given[:] = np.nan
            P, _ = _reference_stamp(series, L)
            assert mp.P.tobytes() == P.tobytes()

    def test_P_is_formed_once(self, monkeypatch):
        series = np.cumsum(np.random.default_rng(3).normal(0, 1, 200))
        mp = stamp(series, 12)
        assert "P" not in vars(mp)
        first = mp.P
        monkeypatch.setattr(matrixprofile, "_distance", None)  # a second forming would fail
        assert mp.P is first

    @pytest.mark.parametrize("read_first", [False, True])
    def test_pickle_round_trip(self, read_first):
        series = np.cumsum(np.random.default_rng(5).normal(0, 1, 300))
        series[100:140] = series[100]
        mp = stamp(series, 12)
        if read_first:
            assert len(mp.P) == len(mp.I)
        back = pickle.loads(pickle.dumps(mp))
        assert ("P" in vars(back)) == read_first
        P, I = _reference_stamp(series, 12)
        assert back.I.tobytes() == I.tobytes()
        assert back.P.tobytes() == P.tobytes()

    def test_identify_knees_forms_no_P(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("identify_knees measured a distance")

        made = []

        def recording_stamp(series, L):
            made.append(stamp(series, L))
            return made[-1]

        monkeypatch.setattr(matrixprofile, "_distance", refuse)
        monkeypatch.setattr(segmentation, "stamp", recording_stamp)
        curve = generate_fleet(1, seed=7, n_cycles=900)[0][0]
        segmentation.identify_knees(curve, PipelineParams(sg_window=81, cac_window=12))
        assert len(made) == 1 and "P" not in vars(made[0])
