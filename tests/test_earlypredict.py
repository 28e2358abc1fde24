import gc
import inspect
import json
import math
import re
import sys
import threading
import warnings
import weakref
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kneescout import earlypredict
from kneescout import GBRTHyper
from kneescout.errors import (
    EmptyTrainingSet,
    InputError,
    FeatureCountMismatch,
    InvalidDischargeCurve,
    InvalidHyperparameter,
    InvalidModel,
    LengthMismatch,
    MalformedRow,
    MissingCycle,
    NonFiniteFeature,
    NonFiniteInput,
    NonFiniteResidual,
    NoVoltageOverlap,
    ZeroTrueValue,
)
from kneescout.earlypredict import (
    FEATURES_HEADER,
    CycleRecord,
    FeatureVector,
    GBRTModel,
    NODE,
    check_test_split,
    delta_q,
    evaluate,
    extract_features,
    feature_matrix,
    gbrt_predict,
    gbrt_train,
    load_cycle_detail_csv,
    sensitivity_sweep,
    stratified_split,
    _moments,
)
from kneescout.synthgen import simulate_cycle_records


def make_record(cycle, v_hi=3.5, v_lo=2.0, q_tot=1.1, n=50, shift=0.0):
    v = np.linspace(v_hi, v_lo, n)
    z = (v_hi - v) / (v_hi - v_lo)
    q = q_tot * z**0.8 + shift
    return CycleRecord(cycle=cycle, voltage_v=v, q_ah=q)


class TestCycleRecord:
    def test_voltage_must_decrease(self):
        with pytest.raises(InvalidDischargeCurve):
            CycleRecord(1, np.array([3.5, 3.5, 2.0]), np.array([0.0, 0.5, 1.0]))

    def test_capacity_must_not_decrease(self):
        with pytest.raises(InvalidDischargeCurve):
            CycleRecord(1, np.array([3.5, 3.0, 2.0]), np.array([0.0, 0.5, 0.4]))

    @pytest.mark.parametrize("v, q", [
        ([3.5, np.nan, 2.0], [0.0, 0.5, 1.0]),
        ([np.inf, np.inf, 3.0], [0.0, 0.5, 1.0]),  # inf - inf would be nan and warn
        ([np.inf, 3.0, 2.0], [0.0, 0.5, 1.0]),  # strictly decreasing all the same
        ([3.5, 3.0, -np.inf], [0.0, 0.5, 1.0]),
        ([3.5, 3.0, 2.0], [0.0, np.nan, 1.0]),
        ([3.5, 3.0, 2.0], [0.0, 0.5, np.inf]),
    ])
    def test_non_finite_values_rejected(self, v, q):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidDischargeCurve, match="cycle 7: .* must be finite"):
                CycleRecord(7, np.array(v), np.array(q))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch) as info:
            CycleRecord(3, [3.5, 3.0], [0.0, 0.5, 1.0])
        assert (type(info.value), str(info.value)) == (
            LengthMismatch, "cycle 3: 2 voltages vs 3 capacities")

    def test_total_capacity(self):
        rec = make_record(1)
        assert rec.total_capacity_ah == pytest.approx(rec.q_ah[-1])


@pytest.mark.floors
class TestDeltaQ:
    """Marked floors: the min/max voltage overlap must hold at the oldest NumPy too."""

    def test_identical_cycles_zero(self):
        records = {10: make_record(10), 30: make_record(30)}
        dq = delta_q(records)
        np.testing.assert_allclose(dq, 0.0, atol=1e-12)

    def test_constant_shift(self):
        records = {10: make_record(10), 30: make_record(30, shift=0.01)}
        dq = delta_q(records)
        np.testing.assert_allclose(dq, 0.01, atol=1e-9)
        assert np.var(dq) < 1e-18

    def test_missing_cycle(self):
        with pytest.raises(MissingCycle):
            delta_q({10: make_record(10)})

    def test_disjoint_voltage_ranges(self):
        records = {
            10: make_record(10, v_hi=3.5, v_lo=3.0),
            30: make_record(30, v_hi=2.9, v_lo=2.0),
        }
        with pytest.raises(NoVoltageOverlap,
                           match=r"^cycles 10 and 30 share no voltage range \(3\.000 >= 2\.900\)$"):
            delta_q(records)

    @pytest.mark.parametrize("early, late", [
        ((3.5, 2.0), (3.6, 2.1)),  # hi from early, lo from late
        ((3.6, 2.1), (3.5, 2.0)),  # hi from late, lo from early
        ((3.5, 2.1), (3.6, 2.0)),  # both from early
        ((3.6, 2.0), (3.5, 2.1)),  # both from late
    ])
    def test_end_samples_are_the_overlap(self, early, late):
        # uneven voltage steps, so the reductions scan real data
        def record(cycle, v_hi, v_lo, n):
            z = np.linspace(0.0, 1.0, n) ** 1.7
            return CycleRecord(cycle, v_hi - (v_hi - v_lo) * z, 1.1 * z**0.8)

        records = {10: record(10, *early, 61), 30: record(30, *late, 47)}
        r_e, r_l = records[10], records[30]
        lo = max(r_e.voltage_v.min(), r_l.voltage_v.min())
        hi = min(r_e.voltage_v.max(), r_l.voltage_v.max())
        grid = np.linspace(lo, hi, 1000)
        expected = (np.interp(grid, r_l.voltage_v[::-1], r_l.q_ah[::-1])
                    - np.interp(grid, r_e.voltage_v[::-1], r_e.q_ah[::-1]))
        assert delta_q(records).tobytes() == expected.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(lo=st.one_of(st.just(0.0), st.floats(-1e-300, 1e-300),
                        st.floats(-1.7e308, 1.7e308)),
           span=st.one_of(st.integers(1, 5000).map(lambda k: k * 5e-324),
                          st.floats(5e-324, 1.7e308)))
    @example(lo=0.0, span=4e-323)  # the step underflows to 0
    @example(lo=2.0, span=1.5)
    @example(lo=-8.5e307, span=1.7e308)
    def test_grid_is_linspace_bitwise(self, lo, span):
        # _grid is linspace's arithmetic without its wrappers, both branches:
        # spans from a few subnormals, where the step is 0, up to near overflow
        hi = lo + span
        assume(lo < hi and math.isfinite(hi))
        grid = earlypredict._grid(np.float64(lo), np.float64(hi))
        assert grid.tobytes() == np.linspace(lo, hi, 1000).tobytes()

    def test_grid_ramp_is_shared_read_only(self):
        assert not earlypredict._RAMP.flags.writeable
        grid = earlypredict._grid(np.float64(2.0), np.float64(3.5))
        assert grid.flags.writeable and not np.shares_memory(grid, earlypredict._RAMP)
        assert earlypredict._RAMP.tobytes() == np.arange(1000.0).tobytes()

    def test_fixed_grid(self):
        # the grid size is no parameter; features are defined on 1000 points
        records = {10: make_record(10), 30: make_record(30)}
        assert len(delta_q(records)) == 1000
        assert list(inspect.signature(delta_q).parameters) == ["records", "late"]
        assert list(inspect.signature(extract_features).parameters) == ["records", "budget"]


@pytest.mark.floors
class TestMoments:
    """Marked floors: the product formula must hold at the oldest NumPy too, where an array
    power's bits could differ.
    """

    def test_linear_ramp_closed_form(self):
        # population variance of an even grid d0 + k*s equals s^2 (G^2-1)/12
        G, d0, d1 = 1000, -0.01, 0.03
        ramp = np.linspace(d0, d1, G)
        s = (d1 - d0) / (G - 1)
        var, skew, kurt = _moments(ramp)
        assert var == pytest.approx(s**2 * (G**2 - 1) / 12, rel=1e-12)
        assert skew == pytest.approx(0.0, abs=1e-10)
        # non-excess kurtosis of the uniform-like grid approaches 9/5
        assert kurt == pytest.approx(1.8, rel=1e-3)

    def test_constant_convention(self):
        var, skew, kurt = _moments(np.full(100, 0.01))
        assert var == pytest.approx(0.0, abs=1e-20)
        assert skew == 0.0 and kurt == 0.0

    @given(st.lists(st.floats(-1, 1), min_size=4, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_variance_matches_numpy(self, data):
        x = np.asarray(data)
        var, _, _ = _moments(x)
        assert var == pytest.approx(float(np.var(x)), rel=1e-9, abs=1e-12)

    @staticmethod
    def spread_out(x):
        """True unless x is near enough constant to take the zero convention."""
        return float(np.std(x)) > 1e-6 * max(1.0, abs(float(np.mean(x))))

    @given(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=1200))
    @settings(max_examples=200, deadline=None)
    def test_product_formula_bitwise(self, data):
        # the third and fourth moments are products of the squared deviations,
        # each mean np.mean's arithmetic; array powers differ in the last bits
        # between CPUs and NumPy builds
        x = np.asarray(data)
        assume(self.spread_out(x))
        dev = x - float(np.mean(x))
        sq = dev * dev
        m2, m3, m4 = (float(np.mean(p)) for p in (sq, sq * dev, sq * sq))
        expected = (m2, m3 / m2**1.5, m4 / m2**2)
        assert [v.hex() for v in _moments(x)] == [v.hex() for v in expected]

    @given(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=1200))
    @settings(max_examples=200, deadline=None)
    def test_matches_scipy(self, data):
        x = np.asarray(data)
        assume(self.spread_out(x))
        _, skew, kurt = _moments(x)
        assert skew == pytest.approx(scipy.stats.skew(x, bias=True), rel=1e-12)
        assert kurt == pytest.approx(
            scipy.stats.kurtosis(x, fisher=False, bias=True), rel=1e-12)


class TestExtractFeatures:
    def fleet_records(self, onset=250, seed=0):
        return simulate_cycle_records(onset, seed=seed)

    def test_budget_30_uses_cycle_30_and_10(self):
        records = self.fleet_records()
        feats = extract_features(records, budget=30)
        dq = delta_q(records, late=30)
        assert feats.min_dq == float(np.min(dq))
        assert (feats.var_dq, feats.skew_dq, feats.kurt_dq) == _moments(dq)

    def test_negative_variance(self):
        with pytest.raises(NonFiniteFeature) as info:
            FeatureVector(0.0, -1.0, 0.0, 0.0, 1.0, 0.0)
        assert (type(info.value), str(info.value)) == (NonFiniteFeature, "negative variance -1.0")

    def test_q2_and_qmax_features(self):
        records = self.fleet_records()
        feats = extract_features(records, budget=30)
        q2 = records[2].total_capacity_ah
        q_max = max(records[c].total_capacity_ah for c in records if c <= 30)
        assert feats.q2 == pytest.approx(q2)
        assert feats.q_max_minus_2 == pytest.approx(q_max - q2)

    def test_budget_below_11_rejected(self):
        # a parameter fault, not a missing cycle: cycle 10 is present
        with pytest.raises(InputError) as info:
            extract_features(self.fleet_records(), budget=10)
        assert (type(info.value), str(info.value)) == (
            InputError, "budget must be an int >= 11, got 10")

    @pytest.mark.parametrize("volts", [(4e-323, 0.0), (1.7e308, -1.7e308)],
                             ids=["few-subnormals", "past-float64"])
    def test_degenerate_voltage_span_raises_alone(self, volts):
        # the interpolated capacities are not finite; their difference must not
        # warn, so the feature error comes alone
        records = {c: CycleRecord(c, np.array(volts), np.array([0.0, 1.0])) for c in (2, 10, 30)}
        assert ((volts[0] - volts[1]) / 999 == 0) == (volts[0] < 1)  # the grid's step == 0 branch
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteFeature) as info:
                extract_features(records, budget=30)
        assert str(info.value) == (
            "non-finite feature: min_dq=nan, var_dq=nan, skew_dq=nan, kurt_dq=nan")

    def test_missing_cycle_2(self):
        records = self.fleet_records()
        records = {c: r for c, r in records.items() if c != 2}
        with pytest.raises(MissingCycle):
            extract_features(records, budget=30)

    def test_constant_dq_conventions(self):
        records = {
            2: make_record(2),
            10: make_record(10),
            30: make_record(30, shift=0.01),
        }
        feats = extract_features(records, budget=30)
        assert feats.var_dq == pytest.approx(0.0, abs=1e-18)
        assert feats.skew_dq == 0.0 and feats.kurt_dq == 0.0


class TestFeatureMatrix:
    def test_one_row_per_cell_in_key_order(self):
        cells = {"b": simulate_cycle_records(200, seed=1),
                 "a": simulate_cycle_records(300, seed=2)}
        X = feature_matrix(cells, 30)
        assert X.shape == (2, 6)
        for row, records in zip(X, cells.values()):
            assert row.tobytes() == extract_features(records, budget=30).as_array().tobytes()

    def test_error_names_the_cell(self):
        records = simulate_cycle_records(200, seed=1)
        del records[2]
        with pytest.raises(MissingCycle, match="^cell b: cycle 2 not present$"):
            feature_matrix({"a": simulate_cycle_records(300, seed=2), "b": records}, 30)


class TestCheckTestSplit:
    def test_five_cells_of_one_class_keep_a_test_cell(self):
        check_test_split([100.0] * 5)

    def test_four_cells_of_one_class_keep_none(self):
        with pytest.raises(EmptyTrainingSet) as info:
            check_test_split([100.0] * 3 + [400.0])
        assert str(info.value) == (
            "4 labelled cells leave no test cell: the onset classes (< 150, 150-270,"
            " > 270 cycles) hold 3, 0, 1 cells, and a class of k cells keeps"
            " k - ceil(0.8 k) for testing")


class TestStratifiedSplit:
    def test_exact_ratio_two_classes(self):
        labels = [100] * 5 + [200] * 5  # classes 0 and 1
        train, test = stratified_split(labels, 0.8, seed=1)
        assert len(train) == 8 and len(test) == 2
        classes = lambda idx: sorted(0 if labels[i] < 150 else 1 for i in idx)
        assert classes(test) == [0, 1]

    def test_single_member_class_goes_to_train(self):
        labels = [100, 100, 100, 100, 100, 400]
        train, test = stratified_split(labels, 0.8, seed=2)
        assert 5 in train

    def test_deterministic(self):
        labels = list(np.random.default_rng(0).uniform(50, 400, 30))
        a = stratified_split(labels, 0.8, seed=9)
        b = stratified_split(labels, 0.8, seed=9)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_empty_rejected(self):
        with pytest.raises(EmptyTrainingSet):
            stratified_split([], 0.8, seed=0)

    @pytest.mark.parametrize("frac", [float("nan"), 0.0, -0.5, 1.5, float("inf"), -float("inf")])
    def test_train_frac_outside_zero_one_rejected(self, frac):
        with pytest.raises(InputError, match=re.escape(f"train_frac must be in (0, 1], got {frac}")):
            stratified_split([100.0] * 5 + [200.0] * 5, frac, seed=0)

    @pytest.mark.parametrize("split", [stratified_split, check_test_split])
    @pytest.mark.parametrize("bad", [-50.0, float("inf"), False, "300", 10**400,
                                     np.float32("inf")],
                             ids=["negative", "inf", "bool", "str", "10**400", "float32-inf"])
    def test_bad_label_is_input_error(self, split, bad):
        labels = [100.0] * 5 + [bad] + [200.0] * 5
        message = f"onset label 5 must be a finite real number > 0, got {bad!r}"
        with pytest.raises(InputError, match=re.escape(message)):
            split(labels)

    def test_numpy_and_fraction_labels_are_numbers(self):
        labels = np.array([100] * 5 + [200] * 5)
        assert all(map(np.array_equal, stratified_split(labels, seed=3),
                       stratified_split([*labels[:9].tolist(), Fraction(200)], seed=3)))

    def test_train_frac_one_keeps_every_cell(self):
        train, test = stratified_split([100.0] * 5 + [200.0] * 5, 1.0, seed=0)
        assert list(train) == list(range(10)) and len(test) == 0

    @given(
        seed=st.integers(0, 9999),
        counts=st.tuples(st.integers(0, 20), st.integers(0, 20), st.integers(0, 20)),
    )
    @settings(max_examples=50, deadline=None)
    def test_per_class_proportions(self, seed, counts):
        labels = [100.0] * counts[0] + [200.0] * counts[1] + [300.0] * counts[2]
        if not labels:
            return
        train, test = stratified_split(labels, 0.8, seed=seed)
        assert len(train) + len(test) == len(labels)
        assert len(set(train) & set(test)) == 0
        for lo, hi, n_cls in ((0, 150, counts[0]), (150, 270.5, counts[1]), (270.5, 1e9, counts[2])):
            n_train = sum(lo <= labels[i] < hi for i in train)
            if n_cls:
                assert n_train == int(np.ceil(0.8 * n_cls))


class TestGbrt:
    def toy_data(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 1, (40, 3))
        y = 100 + 50 * X[:, 0] - 30 * X[:, 1] ** 2 + 5 * X[:, 2]
        return X, y

    @pytest.mark.parametrize("bad", [
        dict(n_trees=-1), dict(min_leaf=0), dict(max_depth=-1),
        dict(learning_rate=0.0), dict(learning_rate=float("nan")),
        dict(learning_rate=float("inf")), dict(learning_rate="0.1"), dict(learning_rate=None),
        dict(learning_rate=1 + 0j), dict(learning_rate=True),
    ])
    def test_invalid_hyperparameters_rejected(self, bad):
        with pytest.raises(InvalidHyperparameter, match=next(iter(bad))):
            GBRTHyper(**bad)

    def test_every_bad_hyperparameter_in_one_message(self):
        with pytest.raises(InvalidHyperparameter, match=re.escape(
                "n_trees must be an int >= 0, got -1;"
                " learning_rate must be a finite real number > 0, got '0.1'")):
            GBRTHyper(n_trees=-1, learning_rate="0.1")

    @pytest.mark.parametrize("rate, written", [
        (1, "1.0"), (np.int64(1), "1.0"), (np.float32(0.5), "0.5"), (Fraction(1, 2), "0.5"),
        (np.float64(0.05), "0.05"),
    ])
    def test_learning_rate_stored_as_float(self, rate, written):
        X, y = self.toy_data()
        hyper = GBRTHyper(n_trees=2, learning_rate=rate)
        assert type(hyper.learning_rate) is float
        text = gbrt_train(X, y, hyper).to_json()
        assert f'"learning_rate": {written},' in text
        assert GBRTModel.from_json(text).to_json() == text

    @pytest.mark.parametrize("bad", [
        dict(n_trees=2.5), dict(max_depth=1.5), dict(min_leaf=1.5), dict(min_leaf=True),
        dict(n_trees=False), dict(max_depth="3"), dict(n_trees=np.float64(3.0)),
    ])
    def test_non_integer_counts_rejected(self, bad):
        (name, value), = bad.items()
        low = 1 if name == "min_leaf" else 0
        message = f"{name} must be an int >= {low}, got {value!r}"
        with pytest.raises(InvalidHyperparameter, match=re.escape(message)):
            GBRTHyper(**bad)

    def test_numpy_integer_counts_become_ints(self):
        hyper = GBRTHyper(n_trees=np.int64(4), max_depth=np.int32(2), min_leaf=np.uint8(1))
        assert [type(v) for v in (hyper.n_trees, hyper.max_depth, hyper.min_leaf)] == [int] * 3
        assert hyper == GBRTHyper(n_trees=4, max_depth=2, min_leaf=1)

    @pytest.mark.parametrize("X_shape, y_shape", [
        ((8,), (8,)), ((8, 2, 1), (8,)), ((), (8,)), ((8, 2), (8, 1)),
    ])
    def test_non_matrix_training_data_names_the_shapes(self, X_shape, y_shape):
        with pytest.raises(LengthMismatch, match=re.escape(f"got shapes {X_shape} and {y_shape}")):
            gbrt_train(np.zeros(X_shape), np.zeros(y_shape))

    def test_row_count_mismatch(self):
        with pytest.raises(LengthMismatch, match="X has 8 rows but y has 7 entries"):
            gbrt_train(np.zeros((8, 2)), np.zeros(7))

    def test_zero_trees_predicts_mean(self):
        X, y = self.toy_data()
        model = gbrt_train(X, y, GBRTHyper(n_trees=0))
        np.testing.assert_allclose(gbrt_predict(model, X), np.mean(y))
        assert model.trees == []
        assert json.loads(model.to_json())["trees"] == []

    def test_trees_are_node_views(self):
        X, y = self.toy_data()
        model = gbrt_train(X, y, GBRTHyper(n_trees=7))
        assert len(model.trees) == 7
        assert sum(map(len, model.trees)) == len(model.nodes)
        assert all(tree.dtype == NODE for tree in model.trees)
        assert all(np.shares_memory(tree, model.nodes) for tree in model.trees)

    def test_training_rmse_nonincreasing(self):
        X, y = self.toy_data()
        model = gbrt_train(X, y, GBRTHyper(n_trees=120))
        hist = model.train_rmse
        assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))

    def test_small_set_interpolation(self):
        # eight samples whose targets are representable by a min_leaf=2 tree
        # (constant on adjacent pairs): boosting shrinks the training error
        # geometrically, far below 1e-3 of the target spread in 200 rounds
        X = np.arange(8, dtype=float).reshape(-1, 1)
        y = np.array([3.0, 3.0, -1.0, -1.0, 7.0, 7.0, 2.0, 2.0])
        model = gbrt_train(X, y, GBRTHyper(n_trees=200, learning_rate=0.05, max_depth=3, min_leaf=2))
        assert model.train_rmse[-1] < 1e-3 * float(np.std(y))

    def test_single_stump_manual_walk(self):
        tree = np.array([(0, 0.5, 1, 2, 0.0), (-1, 0.0, -1, -1, -2.0), (-1, 0.0, -1, -1, 4.0)],
                        dtype=NODE)
        model = GBRTModel(init_value=10.0, learning_rate=0.5, n_features=1, nodes=tree, sizes=[3])
        X = np.array([[0.2], [0.8]])
        np.testing.assert_allclose(gbrt_predict(model, X), [10.0 - 1.0, 10.0 + 2.0])

    def test_feature_count_mismatch(self):
        X, y = self.toy_data()
        model = gbrt_train(X, y, GBRTHyper(n_trees=3))
        with pytest.raises(FeatureCountMismatch):
            gbrt_predict(model, X[:, :2])

    def test_serialization_round_trip_exact(self):
        X, y = self.toy_data()
        model = gbrt_train(X, y, GBRTHyper(n_trees=25))
        restored = GBRTModel.from_json(model.to_json())
        np.testing.assert_array_equal(gbrt_predict(model, X), gbrt_predict(restored, X))

    def test_deterministic_training(self):
        X, y = self.toy_data()
        m1 = gbrt_train(X, y, GBRTHyper(n_trees=30))
        m2 = gbrt_train(X, y, GBRTHyper(n_trees=30))
        assert m1.to_json() == m2.to_json()

    def test_empty_training_set(self):
        with pytest.raises(EmptyTrainingSet):
            gbrt_train(np.zeros((1, 2)), np.zeros(1))

    def test_non_finite_rejected(self):
        X, y = self.toy_data()
        X[0, 0] = float("nan")
        with pytest.raises(NonFiniteFeature):
            gbrt_train(X, y)

    @pytest.mark.parametrize("y,hyper,after", [
        ([1e308, -1e308, 1e308, -1e308], GBRTHyper(min_leaf=1), 0),
        ([100.0, 200.0, 300.0, 400.0], GBRTHyper(learning_rate=3, n_trees=2000), 504),
        ([100.0, 200.0, 300.0, 400.0], GBRTHyper(learning_rate=1e300), 1),
        ([100.0, 200.0, 300.0, 400.0], GBRTHyper(learning_rate=1e300, n_trees=1), 1),
    ], ids=["huge-labels", "diverging-rate", "huge-rate", "after-the-last-tree"])
    def test_overflowing_residuals_rejected(self, y, hyper, after):
        # RuntimeWarnings are errors here: the overflow is raised, not warned about
        X = np.arange(4.0).reshape(-1, 1)
        expected = (f"the residuals after {after} of {hyper.n_trees} trees"
                    f" (learning_rate {hyper.learning_rate}) overflow")
        with pytest.raises(NonFiniteResidual, match=re.escape(expected)):
            gbrt_train(X, y, hyper)

    def test_node_cache_freed_when_the_fit_returns(self, monkeypatch):
        # with the cycle collector off only reference counts free memory: a
        # reference cycle through the cache would keep it after the fit
        caches = []

        class Recorded(earlypredict._NodeCache):
            def __init__(self, *args):
                super().__init__(*args)
                caches.append(weakref.ref(self))

        monkeypatch.setattr(earlypredict, "_NodeCache", Recorded)
        X, y = self.toy_data()
        gc.disable()
        try:
            gbrt_train(X, y, GBRTHyper(n_trees=5))
            assert len(caches) == 1 and caches[0]() is None
        finally:
            gc.enable()

    def test_large_finite_residuals_train(self):
        # n * sum(r**2) = 16e306 is finite, so every split score is too
        X = np.arange(4.0).reshape(-1, 1)
        model = gbrt_train(X, [1e153, -1e153, 1e153, -1e153], GBRTHyper(min_leaf=1))
        assert all(np.isfinite(model.train_rmse))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_prediction_rejected(self, bad):
        X, y = self.toy_data()
        model = gbrt_train(X, y, GBRTHyper(n_trees=3))
        X[5, 1] = bad
        with pytest.raises(NonFiniteFeature):
            gbrt_predict(model, X)


# --- scalar reference ---------------------------------------------------------
# The scalar definition of the tree code: a sort per node and feature, a
# loop over thresholds, and a walk per row. Training and prediction must
# match it bit for bit.

def _reference_best_split(X, r, idx, min_leaf):
    best = None
    r_node = r[idx]
    n = len(idx)
    for f in range(X.shape[1]):
        order = np.argsort(X[idx, f], kind="stable")
        v = X[idx[order], f]
        rs = r_node[order]
        c1 = np.cumsum(rs)
        c2 = np.cumsum(rs * rs)
        tot1, tot2 = c1[-1], c2[-1]
        for k in range(min_leaf - 1, n - min_leaf):
            if v[k] == v[k + 1]:
                continue
            nl = k + 1
            nr = n - nl
            d = tot1 - c1[k]
            sse = (c2[k] - c1[k] * c1[k] / nl) + ((tot2 - c2[k]) - d * d / nr)
            if best is None or sse < best[2]:
                # a midpoint that rounds up to v[k + 1] or overflows splits at v[k]
                mid = (v[k] + v[k + 1]) / 2.0
                best = (f, mid if v[k] <= mid < v[k + 1] else v[k], sse)
    return best


def _reference_fit_tree(X, r, idx, max_depth, min_leaf):
    nodes = []

    def build(sample_idx, depth):
        pos = len(nodes)
        nodes.append((-1, 0.0, -1, -1, float(np.mean(r[sample_idx]))))
        if depth >= max_depth or len(sample_idx) < 2 * min_leaf:
            return pos
        split = _reference_best_split(X, r, sample_idx, min_leaf)
        if split is None:
            return pos
        f, thr, _ = split
        mask = X[sample_idx, f] <= thr
        left = build(sample_idx[mask], depth + 1)
        right = build(sample_idx[~mask], depth + 1)
        nodes[pos] = (f, thr, left, right, 0.0)
        return pos

    build(idx, 0)
    return np.array(nodes, dtype=NODE)


def _reference_tree_predict(nodes, X):
    out = np.empty(len(X))
    for i, row in enumerate(X):
        pos = 0
        while nodes[pos]["feature"] >= 0:
            node = nodes[pos]
            pos = node["left"] if row[node["feature"]] <= node["threshold"] else node["right"]
        out[i] = nodes[pos]["value"]
    return out


def reference_train(X, y, hyper):
    init = float(np.mean(y))
    pred = np.full(len(y), init)
    idx = np.arange(len(y))
    trees = []
    rmse = [float(np.sqrt(np.mean((y - pred) ** 2)))]
    for _ in range(hyper.n_trees):
        tree = _reference_fit_tree(X, y - pred, idx, hyper.max_depth, hyper.min_leaf)
        pred = pred + hyper.learning_rate * _reference_tree_predict(tree, X)
        trees.append(tree)
        rmse.append(float(np.sqrt(np.mean((y - pred) ** 2))))
    nodes = np.concatenate(trees) if trees else np.empty(0, NODE)
    return GBRTModel(init, hyper.learning_rate, X.shape[1], nodes, [len(t) for t in trees], rmse)


def reference_predict(model, X):
    out = np.full(len(X), model.init_value)
    for tree in model.trees:
        out = out + model.learning_rate * _reference_tree_predict(tree, X)
    return out


@st.composite
def boosting_problems(draw):
    """Small training sets rich in duplicate values and cross-feature ties.

    Besides fresh integer-grid columns, a feature may copy an earlier one,
    rescale it (same order, so tied split scores), or refine it (same
    partitions at the coarse boundaries, another order inside each group,
    so scores that tie up to rounding).
    """
    n = draw(st.integers(2, 40))
    grid = draw(st.sampled_from([1.0, 0.5, 0.1]))
    cols = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["fresh", "copy", "rescale", "refine"])) if cols else "fresh"
        if kind == "fresh":
            cols.append(grid * np.array(draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)), dtype=float))
            continue
        src = cols[draw(st.integers(0, len(cols) - 1))]
        if kind == "copy":
            cols.append(src.copy())
        elif kind == "rescale":
            cols.append(3.0 * src - 1.0)
        else:
            jitter = np.array(draw(st.lists(st.integers(0, 9), min_size=n, max_size=n)))
            cols.append(10.0 * src + jitter)
    X = np.column_stack(cols) if cols else np.empty((n, 0))
    finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    y = np.array(draw(st.lists(finite, min_size=n, max_size=n)))
    hyper = GBRTHyper(
        n_trees=draw(st.integers(0, 24)),
        learning_rate=draw(st.sampled_from([0.05, 0.3, 1.0])),
        max_depth=draw(st.integers(0, 4)),
        min_leaf=draw(st.integers(1, 4)),
    )
    return X, y, hyper


@pytest.mark.floors
class TestGbrtMatchesScalarReference:
    """Marked floors: both sides score splits with products, never powers, so the oldest
    NumPy checks the same definition.
    """

    @settings(max_examples=200, deadline=None)
    @given(boosting_problems())
    def test_train_and_predict_bitwise(self, problem):
        X, y, hyper = problem
        ref = reference_train(X, y, hyper)
        model = gbrt_train(X, y, hyper)
        assert model.to_json() == ref.to_json()
        assert model.train_rmse == ref.train_rmse
        probe = np.vstack([X, X[::-1] + 0.05])
        assert np.array_equal(gbrt_predict(model, probe), reference_predict(ref, probe))

    def test_split_scores_square_by_products(self):
        # both features split the seven rows 4 | 3, summed in different
        # orders; squared by products the scores pick feature 1, where
        # libm pow on the scalar sums would pick feature 0
        X = np.array([[3.0, 0.0], [0.0, 1.0], [2.0, 2.0], [1.0, 3.0],
                      [4.0, 4.0], [6.0, 5.0], [5.0, 6.0]])
        y = np.array([-2852.6219027560874, -1012.846232942019, -325.5934478097083,
                      -2557.4454935283334, 670.0666199277154, -258.3067837957847,
                      1248.7462490105406])
        hyper = GBRTHyper(n_trees=1, max_depth=1, min_leaf=1)
        model = gbrt_train(X, y, hyper)
        assert model.trees[0][0]["feature"] == 1
        assert model.to_json() == reference_train(X, y, hyper).to_json()

    @pytest.mark.parametrize("a, b", [
        (3.9999999999999996, 4.0),  # adjacent floats: the midpoint rounds up to b
        (1.6e308, 1.7e308),  # the sum overflows to +inf
        (-1.7e308, -1.6e308),  # the sum overflows to -inf
    ])
    def test_split_between_values_whose_midpoint_fails(self, a, b):
        X = np.array([[a], [b], [a], [b]])
        y = np.array([0.0, 1.0, 0.0, 1.0])
        hyper = GBRTHyper(n_trees=1, learning_rate=1.0, max_depth=1, min_leaf=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = gbrt_train(X, y, hyper)
            assert model.trees[0][0]["threshold"] == a
            np.testing.assert_array_equal(gbrt_predict(model, X), y)
        with np.errstate(over="ignore"):  # the reference sums NumPy scalars
            assert model.to_json() == reference_train(X, y, hyper).to_json()

    def test_no_features_gives_leaves(self):
        X, y = np.empty((8, 0)), np.arange(8.0)
        hyper = GBRTHyper(n_trees=3, learning_rate=0.5)
        model = gbrt_train(X, y, hyper)
        assert model.to_json() == reference_train(X, y, hyper).to_json()
        assert [tree["feature"].tolist() for tree in model.trees] == [[-1]] * 3
        np.testing.assert_array_equal(gbrt_predict(model, np.empty((2, 0))), [3.5, 3.5])

    def test_back_to_back_fits_each_match_the_reference(self):
        # the second fit has the first one's shape but other values: a node
        # kept from the first fit would give it the first fit's partitions
        rng = np.random.default_rng(5)
        hyper = GBRTHyper(n_trees=30, min_leaf=1)
        for _ in range(2):
            X = rng.integers(0, 6, (30, 3)).astype(float)
            y = rng.uniform(100, 400, 30)
            assert gbrt_train(X, y, hyper).to_json() == reference_train(X, y, hyper).to_json()

    def test_shared_nodes_round_trip(self):
        # deep trees: one split of a node sits at other positions in other
        # trees, with other child positions, so a reused split must take
        # each tree's own child positions
        rng = np.random.default_rng(0)
        X = rng.integers(0, 8, (40, 3)).astype(float)
        y = rng.uniform(100, 400, 40)
        hyper = GBRTHyper(n_trees=60, max_depth=5, min_leaf=1)
        model = gbrt_train(X, y, hyper)
        assert model.to_json() == reference_train(X, y, hyper).to_json()
        restored = GBRTModel.from_json(model.to_json())
        assert_same_trees(restored, model)
        assert restored.to_json() == model.to_json()
        assert np.array_equal(gbrt_predict(restored, X), gbrt_predict(model, X))

    def test_concurrent_fits(self):
        # more threads than cores, switching often: a node cache shared
        # between fits would hand one fit another's partitions
        rng = np.random.default_rng(4)
        problems = [(rng.standard_normal((50, 4)), rng.uniform(100, 400, 50)) for _ in range(4)]
        hyper = GBRTHyper(n_trees=100)
        expected = [gbrt_train(X, y, hyper).to_json() for X, y in problems]
        start = threading.Barrier(len(problems))
        got = [None] * len(problems)

        def fit(i):
            start.wait(timeout=30)
            got[i] = gbrt_train(*problems[i], hyper).to_json()

        threads = [threading.Thread(target=fit, args=(i,)) for i in range(len(problems))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == expected

    def test_fleet_sized_fit(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((80, 6))
        y = rng.uniform(100, 400, 80)
        hyper = GBRTHyper(n_trees=40)
        ref = reference_train(X, y, hyper)
        model = gbrt_train(X, y, hyper)
        assert model.to_json() == ref.to_json()
        assert model.train_rmse == ref.train_rmse
        X_test = rng.standard_normal((20, 6))
        assert np.array_equal(gbrt_predict(model, X_test), reference_predict(ref, X_test))


def loop_predict(model, X):
    """The per-tree sum that ``gbrt_predict`` sums with one accumulate."""
    out = np.full(len(X), model.init_value)
    if len(model.sizes):
        for contribution in model.learning_rate * earlypredict._leaf_values(model, X):
            out = out + contribution
    return out


def leaf_model(init, leaf, trees):
    """``trees`` one-leaf trees of value ``leaf`` over two features."""
    nodes = np.array([(-1, 0.0, -1, -1, leaf)] * trees, dtype=NODE)
    return GBRTModel(init, 0.05, 2, nodes, np.ones(trees, dtype=np.int64))


@pytest.mark.floors
class TestNumpyWrappersKeepTheirBits:
    """The fit and prediction compute NumPy's arithmetic without its Python
    wrappers; each pin compares with the wrapper, bit for bit.

    Marked floors: each wrapper's arithmetic must be the same at the oldest NumPy too.
    """

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-1e150, 1e150), min_size=1, max_size=300))
    def test_rmse_is_numpy_root_mean_square(self, values):
        r = np.array(values)
        expected = float(np.sqrt(np.mean(r ** 2)))
        assert earlypredict._rmse(r, 0, GBRTHyper()).hex() == expected.hex()

    @settings(max_examples=100, deadline=None)
    @given(boosting_problems())
    def test_predict_is_the_per_tree_loop(self, problem):
        X, y, hyper = problem
        model = gbrt_train(X, y, hyper)
        probe = np.vstack([X, X[::-1] + 0.05])
        assert gbrt_predict(model, probe).tobytes() == loop_predict(model, probe).tobytes()

    @pytest.mark.parametrize("trees", [0, 1, 3])
    @pytest.mark.parametrize("rows", [0, 1, 4])
    @pytest.mark.parametrize("init, leaf", [(-0.0, 0.0), (-0.0, -0.0), (7.25, 1e-320)])
    def test_predict_edges(self, trees, rows, init, leaf):
        # -0.0 + 0.0 is 0.0: the sum must start from the init, tree by tree
        model = leaf_model(init, leaf, trees)
        X = np.zeros((rows, 2))
        got = gbrt_predict(model, X)
        assert got.shape == (rows,) and got.tobytes() == loop_predict(model, X).tobytes()

    def test_predict_returns_no_view(self):
        got = gbrt_predict(leaf_model(1.0, 2.0, 5), np.zeros((3, 2)))
        assert got.base is None

    node_rows = st.lists(st.tuples(
        st.integers(-2**63, 2**63 - 1), st.floats(), st.integers(-2**63, 2**63 - 1),
        st.integers(-2**63, 2**63 - 1), st.floats()), max_size=20)

    @settings(max_examples=200, deadline=None)
    @given(node_rows)
    def test_fromiter_packs_like_array(self, rows):
        packed = np.fromiter(iter(rows), NODE, len(rows))
        assert packed.dtype == NODE
        assert packed.tobytes() == np.array(rows, dtype=NODE).tobytes()


class TestNodeCacheInvariant:
    """What the ``_NodeCache`` docstring states, checked node by node after a fit."""

    @staticmethod
    def fitted_cache(X, y, hyper):
        caches = []

        class Kept(earlypredict._NodeCache):
            def __init__(self, *args):
                super().__init__(*args)
                caches.append(self)

        with mock.patch.object(earlypredict, "_NodeCache", Kept):
            gbrt_train(X, y, hyper)
        cache, = caches
        return cache

    @settings(max_examples=200, deadline=None)
    @given(boosting_problems())
    def test_every_cached_node_holds_what_its_rows_fix(self, problem):
        X, y, hyper = problem
        cache = self.fitted_cache(X, y, hyper)
        assert np.array_equal(cache.Xt, X.T)
        stack = [(cache.root, 0)]
        while stack:
            node, depth = stack.pop()
            rows, n = node.rows, len(node.rows)
            assert rows.tolist() == sorted(rows.tolist())
            if depth >= hyper.max_depth or n < 2 * hyper.min_leaf or X.shape[1] == 0:
                assert node.order is None  # a leaf by depth, by size or for want of features
                continue
            expected = [rows[np.argsort(X[rows, f], kind="stable")] for f in range(X.shape[1])]
            assert np.array_equal(node.order, np.array(expected))
            values = X[node.order, np.arange(X.shape[1])[:, None]]
            k = np.arange(n)
            ties = np.zeros(values.shape, dtype=bool)
            ties[:, :-1] = values[:, :-1] == values[:, 1:]
            short = (k < hyper.min_leaf - 1) | (k >= n - hyper.min_leaf)
            assert np.array_equal(node.invalid, ties | short)
            assert np.array_equal(node.nl, k + 1.0)
            assert np.array_equal(node.nr, np.maximum(n - k - 1.0, 1.0))
            for cut, (f, thr, left, right) in node.splits.items():
                assert f == cut // n and not node.invalid.flat[cut]
                goes_left = X[rows, f] <= thr
                assert np.array_equal(left.rows, rows[goes_left])
                assert np.array_equal(right.rows, rows[~goes_left])
                if depth + 1 == hyper.max_depth:
                    assert left.order is None and right.order is None
                stack += [(left, depth + 1), (right, depth + 1)]


def assert_same_trees(a, b):
    assert len(a.trees) == len(b.trees)
    assert all(np.array_equal(s, t) for s, t in zip(a.trees, b.trees))


class TestModelJson:
    @pytest.mark.parametrize("text", [
        '{"init_value": 1.0, "learning_rate": 0.1, "n_features": 6}',
        "not json", '{"init_value": "x"}', "[]",
    ])
    def test_malformed_is_input_error(self, text):
        with pytest.raises(InvalidModel):
            GBRTModel.from_json(text)

    STUMP = np.array([(0, 0.5, 1, 2, 0.0), (-1, 0.0, -1, -1, -2.0), (-1, 0.0, -1, -1, 4.0)],
                     dtype=NODE)

    def stump(self):
        return GBRTModel(init_value=1.0, learning_rate=0.5, n_features=1, nodes=self.STUMP, sizes=[3])

    def test_round_trip_restores_every_field(self):
        X = np.random.default_rng(4).uniform(0, 1, (30, 3))
        model = gbrt_train(X, X[:, 0] - X[:, 2], GBRTHyper(n_trees=10))
        text = model.to_json()
        restored = GBRTModel.from_json(text)
        assert_same_trees(restored, model)
        assert (restored.init_value, restored.learning_rate, restored.n_features) == (
            model.init_value, model.learning_rate, model.n_features)
        assert restored.to_json() == text

    def test_node_keys_and_types(self):
        node = {"feature": 0, "left": 1, "right": 2, "threshold": 0.5, "value": 0.0}
        [written, *leaves] = json.loads(self.stump().to_json())["trees"][0]
        assert written == node
        text = json.dumps({"init_value": 1, "learning_rate": 0.5, "n_features": 1,
                           "trees": [[{**node, "threshold": 1, "value": "0.25"}, *leaves]]})
        restored = GBRTModel.from_json(text).trees[0]
        assert restored.dtype == NODE
        assert restored[0].tolist() == (0, 1.0, 1, 2, 0.25)
        assert [type(v) for v in restored[0].tolist()] == [int, float, int, int, float]

    @pytest.mark.parametrize("key", ["feature", "threshold", "left", "right", "value"])
    def test_node_without_a_field_names_it(self, key):
        obj = json.loads(self.stump().to_json())
        del obj["trees"][0][1][key]
        with pytest.raises(InvalidModel, match=f"lacks field '{key}'"):
            GBRTModel.from_json(json.dumps(obj))

    @pytest.mark.parametrize("value", [None, "x", [1], 1e400])
    def test_node_field_of_the_wrong_type(self, value):
        obj = json.loads(self.stump().to_json())
        obj["trees"][0][0]["left"] = value
        with pytest.raises(InvalidModel, match="malformed model JSON"):
            GBRTModel.from_json(json.dumps(obj))

    # the nodes are checked as Python ints, before int64 could overflow
    @pytest.mark.parametrize("node, key, value, fragment", [
        (0, "feature", 10**30, f"node 0: feature {10**30} is outside [0, 1)"),
        (1, "left", 2**63, "node 1: a leaf's children must be -1"),
        (2, "value", 10**400, "malformed model JSON"),
    ])
    def test_huge_integers_keep_their_messages(self, node, key, value, fragment):
        obj = json.loads(self.stump().to_json())
        obj["trees"][0][node][key] = value
        with pytest.raises(InvalidModel, match=re.escape(fragment)):
            GBRTModel.from_json(json.dumps(obj))

    def test_feature_past_int64_is_invalid_model(self):
        obj = json.loads(self.stump().to_json())
        obj["n_features"] = 2**64
        obj["trees"][0][0]["feature"] = 2**63
        with pytest.raises(InvalidModel, match="malformed model JSON"):
            GBRTModel.from_json(json.dumps(obj))

    # json.dumps writes nan and inf as the literals NaN and Infinity, which
    # json.loads reads back
    @pytest.mark.parametrize("edit,fragment", [
        (lambda obj: obj.update(init_value=float("nan")), "init_value nan"),
        (lambda obj: obj.update(init_value=-float("inf")), "init_value -inf"),
        (lambda obj: obj.update(learning_rate=float("inf")), "learning_rate inf"),
        (lambda obj: obj["trees"][0][1].update(value=float("inf")), "node 1: threshold 0.0 and value inf"),
        (lambda obj: obj["trees"][0][0].update(threshold=float("nan")), "node 0: threshold nan"),
        (lambda obj: obj["trees"][0][2].update(threshold=-float("inf")), "node 2: threshold -inf"),
        (lambda obj: obj.update(n_features=-1), "n_features -1 is negative"),
    ], ids=["nan-init", "inf-init", "inf-rate", "inf-leaf", "nan-threshold",
            "inf-leaf-threshold", "negative-features"])
    def test_bad_number_is_invalid_model(self, edit, fragment):
        obj = json.loads(self.stump().to_json())
        edit(obj)
        with pytest.raises(InvalidModel, match=re.escape(fragment)):
            GBRTModel.from_json(json.dumps(obj))

    @pytest.mark.parametrize("rate", [-0.5, 0.0, -0.0])
    def test_a_rate_that_is_not_positive_is_refused_as_gbrt_hyper_refuses_it(self, rate):
        obj = json.loads(self.stump().to_json())
        obj["learning_rate"] = rate
        with pytest.raises(InvalidModel) as loaded:
            GBRTModel.from_json(json.dumps(obj))
        with pytest.raises(InvalidHyperparameter) as hyper:
            GBRTHyper(learning_rate=rate)
        assert str(loaded.value) == f"model JSON {hyper.value}"
        assert str(hyper.value) == f"learning_rate must be a finite real number > 0, got {rate!r}"

    def test_zero_features_and_no_trees_load(self):
        model = GBRTModel.from_json(
            '{"init_value": 2.5, "learning_rate": 0.1, "n_features": 0, "trees": []}')
        assert gbrt_predict(model, np.empty((3, 0))).tolist() == [2.5, 2.5, 2.5]


def test_features_header():
    assert ",".join(FEATURES_HEADER) == "cell_id,min_dq,var_dq,skew_dq,kurt_dq,q2,q_max_minus_2"


class TestEvaluate:
    def test_perfect_prediction(self):
        scores = evaluate([100.0, 200.0], [100.0, 200.0])
        assert scores == {"rmse": 0.0, "mape": 0.0}

    def test_hand_case(self):
        scores = evaluate([100.0, 200.0], [110.0, 180.0])
        assert scores["rmse"] == pytest.approx(np.sqrt(250.0))
        assert scores["mape"] == pytest.approx(10.0)

    def test_zero_true_value(self):
        with pytest.raises(ZeroTrueValue):
            evaluate([0.0, 1.0], [1.0, 1.0])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch) as info:
            evaluate([100.0, 200.0], [100.0])
        assert (type(info.value), str(info.value)) == (LengthMismatch, "(2,) vs (1,)")

    @pytest.mark.floors
    @pytest.mark.parametrize("y, y_hat, name", [
        ([100.0, 200.0], [np.nan, 1.0], "y_hat"),
        ([np.inf, 200.0], [100.0, 200.0], "y"),
        ([0.0, np.nan], [1.0, 1.0], "y"),
    ])
    def test_non_finite_value_is_named(self, y, y_hat, name):
        with pytest.raises(NonFiniteInput, match=f"^{name} holds a non-finite value$"):
            evaluate(y, y_hat)

    @pytest.mark.floors
    def test_an_overflowing_score_is_inf_without_a_warning(self):
        """Marked floors: ``np.errstate`` as a decorator must hold at the oldest NumPy too."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert evaluate([1e200], [-1e200]) == {"rmse": np.inf, "mape": 200.0}
            assert evaluate([1e-300, 1.0], [1e300, 1.0])["mape"] == np.inf


class TestSensitivitySweep:
    def small_fleet(self, n=30, seed=0):
        rng = np.random.default_rng(seed)
        onsets = rng.uniform(80, 420, n)
        cells = {f"c{i:02d}": simulate_cycle_records(int(o), seed=seed + i)
                 for i, o in enumerate(onsets)}
        return cells, onsets

    def test_budget_trend(self):
        cells, onsets = self.small_fleet()
        table = sensitivity_sweep(cells, onsets, budgets=(15, 30), repeats=2,
                                  seed=7, hyper=GBRTHyper(n_trees=80))
        by_budget = {int(row["budget"]): row for row in table}
        assert by_budget[30]["mean_rmse"] < by_budget[15]["mean_rmse"]

    def test_deterministic(self):
        cells, onsets = self.small_fleet(n=15, seed=3)
        kw = dict(budgets=(15,), repeats=1, seed=5, hyper=GBRTHyper(n_trees=20))
        assert sensitivity_sweep(cells, onsets, **kw) == sensitivity_sweep(cells, onsets, **kw)

    @pytest.mark.parametrize("kw", [dict(repeats=0), dict(repeats=-2), dict(budgets=()),
                                    dict(budgets=range(20, 15))])
    def test_empty_sweep_is_input_error(self, kw):
        cells, onsets = self.small_fleet(n=10, seed=1)
        with pytest.raises(InputError):
            sensitivity_sweep(cells, onsets, **{"budgets": (15,), "repeats": 1, **kw})

    def test_one_label_per_cell(self):
        cells, onsets = self.small_fleet(n=10, seed=1)
        with pytest.raises(LengthMismatch) as info:
            sensitivity_sweep(cells, onsets[:-1], budgets=(15,), repeats=1)
        assert (type(info.value), str(info.value)) == (LengthMismatch, "10 cells vs 9 labels")

    def test_budget_below_11_is_refused_before_any_fit(self, monkeypatch):
        cells, onsets = self.small_fleet(n=10, seed=1)
        monkeypatch.setattr(earlypredict, "gbrt_train", None)  # a fit would be a TypeError
        with pytest.raises(InputError) as info:
            sensitivity_sweep(cells, onsets, budgets=(15, 10), repeats=1, seed=0)
        assert (type(info.value), str(info.value)) == (
            InputError, "budget must be an int >= 11, got 10")

    def test_each_split_is_drawn_once(self, monkeypatch):
        cells, onsets = self.small_fleet(n=10, seed=1)
        seeds, draw = [], earlypredict.stratified_split
        monkeypatch.setattr(earlypredict, "stratified_split",
                            lambda y, seed=0: seeds.append(seed) or draw(y, seed=seed))
        sensitivity_sweep(cells, onsets, budgets=(15, 16, 17), repeats=2, seed=3,
                          hyper=GBRTHyper(n_trees=2))
        assert seeds == [0, 3, 4]  # check_test_split's, then one for each repeat

    @pytest.mark.parametrize("bad", [-50, True, float("nan"), 0, "300", None])
    def test_bad_label_is_input_error_before_any_fit(self, bad):
        cells, onsets = self.small_fleet(n=10, seed=1)
        labels = [*onsets[:-1].tolist(), bad]
        message = f"onset label 9 must be a finite real number > 0, got {bad!r}"
        with pytest.raises(InputError, match=re.escape(message)):
            sensitivity_sweep(cells, labels, budgets=(15,), repeats=1)


class TestLoadCycleDetailCsv:
    def test_round_trip(self, tmp_path):
        records = simulate_cycle_records(150, seed=2)
        rows = ["cycle,voltage_v,discharge_capacity_ah"]
        for cyc in sorted(records):
            rec = records[cyc]
            rows += [f"{cyc},{float(v)!r},{float(q)!r}" for v, q in zip(rec.voltage_v, rec.q_ah)]
        p = tmp_path / "cell.cycles.csv"
        p.write_text("\n".join(rows) + "\n")
        loaded = load_cycle_detail_csv(p)
        assert set(loaded) == set(records)
        for cyc in records:
            np.testing.assert_array_equal(loaded[cyc].q_ah, records[cyc].q_ah)

    @pytest.mark.parametrize("row", ["2,abc,0.1", "2,3.4", "x,3.4,0.1", "inf,3.4,0.1"])
    def test_malformed_row_names_file_and_line(self, tmp_path, row):
        p = tmp_path / "bad.cycles.csv"
        p.write_text("cycle,voltage_v,discharge_capacity_ah\n2,3.5,0.0\n" + row + "\n")
        with pytest.raises(MalformedRow, match="bad.cycles.csv: line 3"):
            load_cycle_detail_csv(p)

    def test_cycle_rows_must_be_contiguous(self, tmp_path):
        p = tmp_path / "split.cycles.csv"
        p.write_text("cycle,voltage_v,discharge_capacity_ah\n1,3.5,0.0\n1,3.0,0.5\n"
                     "2,3.5,0.0\n2,3.0,0.5\n1,2.5,0.7\n")
        with pytest.raises(MalformedRow) as info:
            load_cycle_detail_csv(p)
        assert (type(info.value), str(info.value)) == (
            MalformedRow, f"{p}: line 6: rows for cycle 1 are not contiguous")

    @pytest.mark.parametrize("body", ["", "\n\n", " , ,\n\t\n"],
                             ids=["header-only", "blank", "spaces"])
    def test_no_rows_after_the_header(self, tmp_path, body):
        p = tmp_path / "empty.cycles.csv"
        p.write_text("cycle,voltage_v,discharge_capacity_ah\n" + body)
        with pytest.raises(InputError, match=re.escape(f"{p}: no cycle rows after the header")):
            load_cycle_detail_csv(p)

    def test_huge_capacity_step_is_not_a_warning(self, tmp_path):
        # q[1:] - q[:-1] overflows; the record is judged as the infinite step it is
        rec = CycleRecord(1, [3.5, 3.0], [-1.7e308, 1.7e308])
        assert rec.q_ah.tolist() == [-1.7e308, 1.7e308]
        with pytest.raises(InvalidDischargeCurve, match="cycle 1: discharge capacity"):
            CycleRecord(1, [3.5, 3.0], [1.7e308, -1.7e308])
        # across a join of two good records, the step is not one the rules check
        p = tmp_path / "huge.cycles.csv"
        p.write_text("cycle,voltage_v,discharge_capacity_ah\n1,3.5,1.7e308\n1,3.0,1.7e308\n"
                     "2,3.5,-1.7e308\n2,3.0,-1.7e308\n")
        assert sorted(load_cycle_detail_csv(p)) == [1, 2]


def reference_curve_fault(v, q):
    """The CycleRecord rules for one record, in Python floats."""
    if len(v) < 2:
        return "need >= 2 samples"
    if not all(math.isfinite(x) for x in [*v, *q]):
        return "voltages and capacities must be finite"
    if any(b >= a for a, b in zip(v, v[1:])):
        return "voltage must be strictly decreasing"
    if any(b - a < -1e-12 for a, b in zip(q, q[1:])):
        return "discharge capacity must be nondecreasing"
    return None


@st.composite
def cycle_detail_files(draw):
    """Records of 1 to 6 cycles, as (cycle, voltages, capacities), and the file
    text that holds them. Some records break a rule: one sample only, a NaN or
    an infinity, a voltage that does not fall, or a capacity that falls by
    more than 1e-12. Some rows carry a column past the header."""
    records = []
    cycle = draw(st.integers(0, 50))
    # stacked: each record starts below and after the one before, so that no
    # step across a join breaks a rule; else each starts afresh, as in a real file
    stacked, top, base = draw(st.booleans()), 4.0, 0.0
    for _ in range(draw(st.integers(1, 6))):
        n = draw(st.integers(2, 8))
        v = top - np.cumsum(draw(st.lists(st.sampled_from([0.01, 0.125, 0.3]), min_size=n, max_size=n)))
        q = base + np.cumsum(draw(st.lists(st.sampled_from([0.0, 1e-3, 0.05]), min_size=n, max_size=n)))
        v, q = v.tolist(), q.tolist()
        if stacked:
            top, base = v[-1], q[-1]
        fault = draw(st.sampled_from([None, None, None, "short", "nan", "rise", "fall"]))
        j = draw(st.integers(1, n - 1))
        if fault == "short":
            v, q = v[:1], q[:1]
        elif fault == "nan":
            (q if draw(st.booleans()) else v)[j] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        elif fault == "rise":
            v[j] = v[j - 1] + draw(st.sampled_from([0.0, 0.5]))
        elif fault == "fall":  # a fall of 1e-13 is within the rule's tolerance
            q[j] = q[j - 1] - draw(st.sampled_from([1e-13, 1e-11, 0.1]))
        records.append((cycle, v, q))
        cycle += draw(st.integers(1, 3))
    rows = []
    for cycle, v, q in records:
        for x, y in zip(v, q):
            rows.append(f"{cycle},{x!r},{y!r}" + draw(st.sampled_from(["", "", ",7"])))
    return records, "cycle,voltage_v,discharge_capacity_ah\n" + "\n".join(rows) + "\n"


@pytest.mark.floors
class TestLoadMatchesRecordByRecord:
    """One checked pass over a cycle-detail file gives what building every record
    through ``CycleRecord`` gives: the same records, byte for byte, or the first
    bad cycle's error class and message.

    Marked floors: the float64 parse, with and without ``usecols``, must hold at
    the oldest NumPy too.
    """

    @given(drawn=cycle_detail_files())
    @settings(max_examples=150, deadline=None)
    def test_same_records_or_same_error(self, drawn, tmp_path_factory):
        records, text = drawn
        path = tmp_path_factory.mktemp("detail") / "cell.cycles.csv"
        path.write_text(text, encoding="utf-8")
        try:
            expected = {c: CycleRecord(c, np.array(v), np.array(q)) for c, v, q in records}
        except InvalidDischargeCurve as exc:
            expected = exc
        faults = [(c, reference_curve_fault(v, q)) for c, v, q in records]
        first = next((f"cycle {c}: {f}" for c, f in faults if f is not None), None)
        if isinstance(expected, Exception):
            assert str(expected) == first
            with pytest.raises(InvalidDischargeCurve) as info:
                load_cycle_detail_csv(path)
            assert (type(info.value), str(info.value)) == (type(expected), str(expected))
            return
        assert first is None
        loaded = load_cycle_detail_csv(path)
        assert list(loaded) == list(expected)
        for cycle, rec in loaded.items():
            ref = expected[cycle]
            assert type(rec) is CycleRecord and type(rec.cycle) is int and rec.cycle == cycle
            assert vars(rec).keys() == vars(ref).keys()
            for got, want in ((rec.voltage_v, ref.voltage_v), (rec.q_ah, ref.q_ah)):
                assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
