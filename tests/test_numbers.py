"""The input rules at the library boundary, all in ``rules``.

Every parameter, label, nominal capacity and model-JSON field that the
library is given is read through ``rules.as_number``, every array through
``rules.as_array``, and a value they reject is the documented
``KneeScoutError`` subclass of that entry point.
"""

import ast
import contextlib
import dataclasses
import io
import json
import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kneescout import cli, errors, rules
from kneescout.baconwatts import DBWParams, dbw_knee_report, dbw_model, fit_dbw, lm_optimize
from kneescout import GBRTHyper, PipelineParams
from kneescout.earlypredict import (
    MIN_BUDGET,
    CycleRecord,
    GBRTModel,
    check_budget,
    check_test_split,
    evaluate,
    extract_features,
    feature_matrix,
    gbrt_predict,
    gbrt_train,
    sensitivity_sweep,
    stratified_split,
)
from kneescout.errors import (
    DegenerateSpec,
    DegenerateWindow,
    EvenWindow,
    IndexOutOfRange,
    InputError,
    InsufficientUnmaskedRegion,
    InvalidHyperparameter,
    InvalidModel,
    KneeScoutError,
    MissingCycle,
    NonFiniteResidual,
    NonPositiveNominal,
    OrderTooHigh,
    WindowTooLarge,
)
from kneescout.ingest import CapacityFadeSeries, NormalizedSeries, find_eol, load_capacity_csv
from kneescout.matrixprofile import stamp
from kneescout.preprocess import approximate_curvature, savgol_coeffs, savgol_smooth
from kneescout.report import batch_report, pearson
from kneescout.rules import as_number
from kneescout.segmentation import arc_curve, compute_arc_curves, identify_knees, rea
from kneescout.synthgen import (
    MIN_CYCLES,
    SyntheticSpec,
    convex_family_specs,
    generate,
    generate_fleet,
    simulate_cycle_records,
)

HUGE = 10**400  # an int past float64


class TestAsNumber:
    @pytest.mark.parametrize("value, integral, expected", [
        (3, False, 3.0), (3, True, 3), (2.5, False, 2.5), (np.int64(7), True, 7),
        (np.uint8(7), False, 7.0), (np.float32(0.5), False, 0.5), (Fraction(1, 4), False, 0.25),
        (HUGE, False, math.inf), (-HUGE, False, -math.inf), (Fraction(HUGE, 3), False, math.inf),
        (HUGE, True, HUGE), (-HUGE, True, -HUGE),
    ])
    def test_numbers(self, value, integral, expected):
        number = as_number(value, integral)
        assert number == expected and type(number) is (int if integral else float)

    def test_nan_is_a_float(self):
        assert math.isnan(as_number(np.float64("nan")))

    @pytest.mark.parametrize("integral", [False, True])
    @pytest.mark.parametrize("value", [
        True, False, np.True_, None, "1", b"1", Decimal("1"), 1 + 0j, [1], np.array([1]),
    ], ids=repr)
    def test_not_numbers(self, value, integral):
        assert as_number(value, integral) is None

    @pytest.mark.parametrize("value", [1.0, 1.5, np.float64(2.0), Fraction(2, 1), float("nan")])
    def test_a_real_is_not_an_integer(self, value):
        assert as_number(value, integral=True) is None


STUMP = {"init_value": 1.0, "learning_rate": 0.5, "n_features": 1, "trees": [[
    {"feature": 0, "threshold": 0.5, "left": 1, "right": 2, "value": 0.0},
    {"feature": -1, "threshold": 0.0, "left": -1, "right": -1, "value": -2.0},
    {"feature": -1, "threshold": 0.0, "left": -1, "right": -1, "value": 4.0},
]]}
LABELS = [100.0] * 5 + [200.0] * 5
SPEC = dict(n_cycles=600, a=8e-4, b=3e-3, c=0.06, n_k=300, p=1.0, noise_sigma=0.001, seed=0)


def model_json(key, value, node=None):
    obj = json.loads(json.dumps(STUMP))
    (obj if node is None else obj["trees"][0][node])[key] = value
    return json.dumps(obj)


def capacity_file(directory, sidecar=None):
    path = directory / "cell.csv"
    path.write_text("cycle,discharge_capacity_ah\n1,1.0\n2,0.9\n3,0.8\n")
    meta = directory / "cell.meta.json"
    if sidecar is None:
        meta.unlink(missing_ok=True)
    else:
        meta.write_text(sidecar)
    return path


class TestDefectsAtTheBoundary:
    """Inputs that, before the one rule, raised a raw error or were misread."""

    @pytest.mark.parametrize("threshold", ["0.5", None])
    def test_eol_threshold(self, threshold):
        message = f"threshold must be a real number, got {threshold!r}"
        with pytest.raises(InputError, match=re.escape(message)):
            find_eol(NormalizedSeries([1, 2, 3], [1.0, 0.9, 0.7]), threshold)

    @pytest.mark.parametrize("q_nom", ["1.1", -HUGE, np.True_],
                             ids=["str", "-10**400", "np.True_"])
    def test_nominal_capacity(self, q_nom):
        message = f"q_nom_ah must be a finite real number > 0, got {q_nom!r}"
        with pytest.raises(NonPositiveNominal, match=re.escape(message)):
            CapacityFadeSeries("a", [1, 2, 3], [1.0, 0.9, 0.8], q_nom)

    def test_nominal_capacity_is_stored_as_a_float(self):
        # a float, an int or a NumPy float keeps its bits
        for q_nom in (1.1, 3, np.float32(0.1), np.float64(1.5), np.int64(2), Fraction(11, 10)):
            stored = CapacityFadeSeries("a", [1, 2, 3], [1.0, 0.9, 0.8], q_nom).q_nom_ah
            assert type(stored) is float and stored == float(q_nom)
            assert np.float64(stored).tobytes() == np.float64(q_nom).tobytes()

    def test_a_fraction_nominal_capacity_identifies_as_its_float(self):
        series = generate_fleet(1, seed=3, n_cycles=300)[0][0]
        as_fraction = CapacityFadeSeries(series.cell_id, series.cycles, series.capacity_ah,
                                         Fraction(11, 10))
        assert identify_knees(as_fraction) == identify_knees(series)

    @pytest.mark.parametrize("key, node, value", [
        ("feature", 0, 1.7), ("feature", 0, True), ("left", 0, 1.9), ("right", 0, 2.0),
        ("n_features", None, 3.9), ("n_features", None, "1"), ("threshold", 0, True),
        ("value", 1, False), ("init_value", None, True), ("learning_rate", None, True),
    ])
    def test_model_json_field(self, key, node, value):
        with pytest.raises(InvalidModel, match=f"malformed model JSON: {key} {value!r} is not"):
            GBRTModel.from_json(model_json(key, value, node))

    def test_model_json_reads_integers_and_numeric_strings(self):
        model = GBRTModel.from_json(model_json("n_features", 2))
        assert model.n_features == 2 and type(model.n_features) is int
        model = GBRTModel.from_json(model_json("init_value", "2.5"))
        assert model.init_value == 2.5

    @pytest.mark.parametrize("frac", ["0.5", None, True])
    def test_train_frac(self, frac):
        message = f"train_frac must be in (0, 1], got {frac!r}"
        with pytest.raises(InputError, match=re.escape(message)):
            stratified_split(LABELS, frac)

    @pytest.mark.parametrize("seed", ["a"])
    def test_split_seed(self, seed):
        with pytest.raises(InputError, match=f"seed must be an int >= 0, got {seed!r}"):
            stratified_split(LABELS, seed=seed)

    def test_split_numpy_seed_is_the_int_seed(self):
        assert all(map(np.array_equal, stratified_split(LABELS, seed=np.int64(4)),
                       stratified_split(LABELS, seed=4)))

    def test_a_fraction_train_frac_splits_as_its_float(self):
        # ceil(0.28 * 25) is 8 in float64 but 7 in exact arithmetic
        labels = [100.0] * 25
        assert all(map(np.array_equal, stratified_split(labels, Fraction(28, 100)),
                       stratified_split(labels, 0.28)))

    @pytest.mark.parametrize("kw, message", [
        (dict(repeats=2.5), "repeats must be an int >= 1, got 2.5"),
        (dict(seed="a"), "seed must be an int >= 0, got 'a'"),
    ])
    def test_sweep_counts_before_any_feature(self, kw, message):
        cells = {f"c{i}": {} for i in range(len(LABELS))}  # any feature would fail
        with pytest.raises(InputError, match=message):
            sensitivity_sweep(cells, LABELS, budgets=[15], **kw)

    def test_sweep_features_fail_before_any_split(self):
        # a large accepted repeats used to draw all its splits before the first feature
        cells = {f"c{i}": {} for i in range(len(LABELS))}
        with pytest.raises(MissingCycle):
            sensitivity_sweep(cells, LABELS, budgets=[15], repeats=10**12)

    def test_sweep_numpy_counts_are_ints(self):
        cells = {f"c{i}": simulate_cycle_records(int(o), seed=i) for i, o in enumerate(LABELS)}
        kw = dict(budgets=[15], hyper=GBRTHyper(n_trees=2))
        assert (sensitivity_sweep(cells, LABELS, repeats=np.int64(2), seed=np.uint8(3), **kw)
                == sensitivity_sweep(cells, LABELS, repeats=2, seed=3, **kw))

    @pytest.mark.parametrize("field, value, message", [
        ("noise_sigma", "x", "noise_sigma must be a real number, got 'x'"),
        ("noise_sigma", math.inf, "noise_sigma=inf must be finite and >= 0"),
        ("a", math.nan, "a, b, c must be >= 0"),
        ("n_k", True, "n_k must be an int, got True"),
    ])
    def test_synthetic_spec(self, field, value, message):
        with pytest.raises(DegenerateSpec, match=message):
            SyntheticSpec(**{**SPEC, field: value})

    def test_synthetic_spec_stores_ints_and_floats(self):
        spec = SyntheticSpec(**{**SPEC, "a": Fraction(1, 1250), "n_k": np.int64(300),
                                "seed": np.uint8(0)})
        assert spec == SyntheticSpec(**SPEC)
        assert [type(getattr(spec, k)) for k in ("a", "n_k", "seed")] == [float, int, int]
        assert generate(spec)[0].cell_id == "synth-0000"

    @pytest.mark.parametrize("call, args, kwargs, message", [
        (generate_fleet, (1,), dict(seed="a"), "seed must be an int >= 0, got 'a'"),
        (generate_fleet, (1,), dict(seed=1, n_cycles=600.0),
         "n_cycles must be an int >= 10, got 600.0"),
        (simulate_cycle_records, ("5",), {},
         "onset_cycle must be a finite real number > 0, got '5'"),
    ], ids=["fleet-seed-str", "fleet-n_cycles-float", "records-onset-str"])
    def test_synthgen_arguments(self, call, args, kwargs, message):
        with pytest.raises(DegenerateSpec, match=re.escape(message)):
            call(*args, **kwargs)

    def test_synthgen_numpy_counts_are_ints(self):
        [(a, truth_a)] = generate_fleet(np.int64(1), seed=np.uint8(3), n_cycles=np.int64(600))
        [(b, truth_b)] = generate_fleet(1, seed=3, n_cycles=600)
        assert (a.cell_id, truth_a) == (b.cell_id, truth_b) == ("fleet-3-000", truth_b)
        assert a.capacity_ah.tobytes() == b.capacity_ah.tobytes()
        assert convex_family_specs(np.int64(2), np.uint8(1)) == convex_family_specs(2, 1)
        records = simulate_cycle_records(np.int64(250), seed=np.uint8(7))
        again = simulate_cycle_records(250, seed=7)
        assert [r.q_ah.tobytes() for r in records.values()] == [
            r.q_ah.tobytes() for r in again.values()]

    def test_feature_numpy_budget_is_the_int_budget(self):
        records = simulate_cycle_records(250, seed=1)
        assert (extract_features(records, budget=np.int64(30)).as_array().tobytes()
                == extract_features(records, budget=30).as_array().tobytes())

    def test_batch_numpy_jobs_is_the_int_jobs(self):
        fade = np.linspace(1.0, 0.7, 300)
        series = [CapacityFadeSeries(f"c{i}", np.arange(1, 301), fade - 0.01 * i, 1.0)
                  for i in range(2)]
        methods = ("double_bacon_watts",)
        assert (batch_report(series, methods, jobs=np.int64(1))
                == batch_report(series, methods, jobs=1))

    @pytest.mark.parametrize("cell_id, message", [
        ("a\nb", "cell_id 'a\\nb' holds a line break"),
        ("a\rb", "cell_id 'a\\rb' holds a line break"),
        (5, "cell_id must be a string, got 5"),
    ])
    def test_series_cell_id(self, cell_id, message, tmp_path):
        with pytest.raises(InputError, match=re.escape(f"CapacityFadeSeries: {message}")):
            CapacityFadeSeries(cell_id, [1, 2, 3], [1.0, 0.9, 0.8], 1.0)
        with pytest.raises(InputError, match=re.escape(message)):
            load_capacity_csv(capacity_file(tmp_path), cell_id=cell_id, q_nom_ah=1.0)

    def test_sidecar_true_is_not_a_nominal_capacity(self, tmp_path):
        with pytest.raises(NonPositiveNominal, match="q_nom_ah=True is not a number"):
            load_capacity_csv(capacity_file(tmp_path, '{"q_nom_ah": true}'))

    @pytest.mark.parametrize("sidecar, q_nom", [('{"q_nom_ah": "1.1"}', 1.1),
                                                 ('{"q_nom_ah": 2}', 2.0)])
    def test_sidecar_numbers_and_numeric_strings(self, tmp_path, sidecar, q_nom):
        q = load_capacity_csv(capacity_file(tmp_path, sidecar)).q_nom_ah
        assert q == q_nom and type(q) is float


# Values from outside the program: bools, strings, None, ints past float64,
# NaN, infinities, NumPy scalars and Fractions, next to ordinary numbers.
JSON_ODD = st.one_of(
    st.booleans(), st.text(max_size=4), st.none(), st.integers(), st.floats(),
    st.sampled_from([HUGE, -HUGE, math.nan, math.inf, -math.inf, "1.5", "nan", "1e400"]),
)
ODD = st.one_of(
    JSON_ODD,
    st.fractions(), st.sampled_from([Fraction(HUGE), Fraction(-HUGE, 7)]),
    st.booleans().map(np.bool_),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.integers(0, 255).map(np.uint8),
    st.floats().map(np.float64), st.floats(width=32).map(np.float32),
    st.floats(width=16).map(np.float16),
)

PIPELINE_FIELDS = ["sg_window", "sg_order", "curv_window", "cac_window", "exclusion_radius",
                   "eol_threshold", "gamma", "max_iter"]
HYPER_FIELDS = ["n_trees", "learning_rate", "max_depth", "min_leaf"]
NODE_FIELDS = ["feature", "threshold", "left", "right", "value"]
MODEL_FIELDS = ["init_value", "learning_rate", "n_features"]
EMPTY_CELLS = {f"c{i}": {} for i in range(len(LABELS))}
SHORT = np.sin(np.arange(12) / 2.0)  # room for a matrix-profile window of 2 or 3
CAC = np.linspace(1.0, 0.0, 20)
SMOOTH = NormalizedSeries(np.arange(1, 31), 1.0 - 1e-4 * np.arange(30) ** 2)
FIVE_CYCLES = CapacityFadeSeries("five", [1, 2, 3, 4, 5], [1.0, 0.99, 0.97, 0.94, 0.9], 1.0)
PAST_INT64 = [2**63, 2**63 + 1]  # NumPy reads this list as uint64


STUMP_MODEL = GBRTModel.from_json(json.dumps(STUMP))


def infinite_residuals(p):
    return np.full(3, np.inf)


def identity(p):
    return p


def entry_points(directory):
    """(name, call of one value, the error class it documents) for every parameter."""
    points = [
        *((f"PipelineParams.{f}", lambda v, f=f: PipelineParams(**{f: v}), InputError)
          for f in PIPELINE_FIELDS),
        *((f"GBRTHyper.{f}", lambda v, f=f: GBRTHyper(**{f: v}), InvalidHyperparameter)
          for f in HYPER_FIELDS),
        ("stratified_split label", lambda v: stratified_split([*LABELS, v]), InputError),
        ("find_eol", lambda v: find_eol(NormalizedSeries([1, 2, 3], [1.0, 0.9, 0.7]), v),
         InputError),
        ("CapacityFadeSeries.q_nom_ah",
         lambda v: CapacityFadeSeries("a", [1, 2, 3], [1.0, 0.9, 0.8], v), InputError),
        ("load_capacity_csv q_nom_ah",
         lambda v: load_capacity_csv(capacity_file(directory), q_nom_ah=v), InputError),
        ("stratified_split train_frac", lambda v: stratified_split(LABELS, v), InputError),
        ("stratified_split seed", lambda v: stratified_split(LABELS, seed=v), InputError),
        *((f"sensitivity_sweep {k}",
           lambda v, k=k: sensitivity_sweep(EMPTY_CELLS, LABELS, budgets=[15], **{k: v}),
           InputError) for k in ("repeats", "seed")),
        *((f"SyntheticSpec.{f}", lambda v, f=f: SyntheticSpec(**{**SPEC, f: v}), DegenerateSpec)
          for f in SPEC),
        # an accepted count or length meets the bad seed after it, so that no
        # call draws a fleet or a record set of that size
        ("generate_fleet count", lambda v: generate_fleet(v, seed=-1), DegenerateSpec),
        ("generate_fleet n_cycles", lambda v: generate_fleet(1, seed=-1, n_cycles=v),
         DegenerateSpec),
        ("generate_fleet seed", lambda v: generate_fleet(1, seed=v, n_cycles=MIN_CYCLES),
         DegenerateSpec),
        ("convex_family_specs count", lambda v: convex_family_specs(v, -1), DegenerateSpec),
        ("convex_family_specs seed", lambda v: convex_family_specs(1, v), DegenerateSpec),
        ("simulate_cycle_records onset_cycle", lambda v: simulate_cycle_records(v), DegenerateSpec),
        ("simulate_cycle_records seed",
         lambda v: simulate_cycle_records(100, seed=v), DegenerateSpec),
        ("extract_features budget", lambda v: extract_features({}, budget=v), InputError),
        ("batch_report jobs", lambda v: batch_report([], jobs=v), InputError),
        # each stage's own parameters: an accepted value meets data too short
        # for it, or a fit that fails at its start, so no call runs long
        ("stamp L", lambda v: stamp(SHORT, v), InputError),
        *((f"rea {k}", lambda v, k=k: rea(CAC, **{"n_boundaries": 2, "exclusion_radius": 5, k: v}),
           (InputError, InsufficientUnmaskedRegion)) for k in ("n_boundaries", "exclusion_radius")),
        ("approximate_curvature ws", lambda v: approximate_curvature(SMOOTH, ws=v), InputError),
        ("savgol_smooth window", lambda v: savgol_smooth(SMOOTH, window=v, order=1), InputError),
        ("savgol_smooth order", lambda v: savgol_smooth(SMOOTH, window=9, order=v), InputError),
        *((f"fit_dbw {k}", lambda v, k=k: fit_dbw(FIVE_CYCLES, **{k: v}), InputError)
          for k in ("gamma", "max_iter")),
        ("lm_optimize max_iter",
         lambda v: lm_optimize(infinite_residuals, np.zeros(1), max_iter=v),
         (InputError, NonFiniteResidual)),
    ]
    return points


def json_entry_points(directory):
    """The same for the values a JSON file carries."""
    return [
        ("sidecar q_nom_ah", lambda v: load_capacity_csv(
            capacity_file(directory, json.dumps({"q_nom_ah": v}))), InputError),
        *((f"model JSON {k}", lambda v, k=k: GBRTModel.from_json(model_json(k, v)), InvalidModel)
          for k in MODEL_FIELDS),
        *((f"model JSON node {k}", lambda v, k=k, n=n: GBRTModel.from_json(model_json(k, v, n)),
           InvalidModel) for k in NODE_FIELDS for n in (0, 1)),
    ]


@pytest.mark.floors
class TestEveryEntryPoint:
    """Each value is accepted or raises the entry point's documented error.

    Marked floors: NumPy 1.26 registers its scalar types with ``numbers`` as
    NumPy 2 does (a NumPy bool as neither), so the rule must read them alike.
    """

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_any_value(self, data, tmp_path_factory):
        self.check(data, entry_points(tmp_path_factory.mktemp("any")), ODD)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_any_json_value(self, data, tmp_path_factory):
        self.check(data, json_entry_points(tmp_path_factory.mktemp("json")), JSON_ODD)

    @staticmethod
    def check(data, points, values):
        _, call, error = data.draw(st.sampled_from(points), label="entry point")
        value = data.draw(values, label="value")
        try:
            call(value)
        except error:  # an accepted sweep count or budget reaches empty cells: MissingCycle
            pass


FIT_CELL = generate_fleet(1, seed=3, n_cycles=100)[0][0]


@pytest.mark.floors
class TestStageParameters:
    """Each stage function checks its own parameters with the function that
    ``PipelineParams`` calls for the same field, so one value fails alike in both."""

    @pytest.mark.parametrize("call, error, message", [
        (lambda: stamp(SHORT, 12.0), InputError, "L must be an int, got 12.0"),
        (lambda: stamp(SHORT, Fraction(12)), InputError, "L must be an int, got Fraction(12, 1)"),
        (lambda: stamp(SHORT, 1), DegenerateWindow, "L must be >= 2, got 1"),
        (lambda: rea(CAC, 2.0, 15), IndexOutOfRange, "n_boundaries must be an int >= 0, got 2.0"),
        (lambda: rea(CAC, 2, 15.5), IndexOutOfRange,
         "exclusion_radius must be an int >= 0, got 15.5"),
        (lambda: approximate_curvature(SMOOTH, ws=3.0), InputError, "ws must be an int, got 3.0"),
        (lambda: savgol_smooth(SMOOTH, window=21.0), InputError,
         "window must be an int, got 21.0"),
        (lambda: savgol_smooth(SMOOTH, window=None), InputError,
         "window must be an int, got None"),
        (lambda: savgol_smooth(SMOOTH, window=1), WindowTooLarge, "window must be >= 3, got 1"),
        (lambda: savgol_smooth(SMOOTH, window=31), WindowTooLarge,
         "window 31 exceeds the series length 30"),
        (lambda: savgol_smooth(SMOOTH, 21, 2.5), InputError, "order must be an int, got 2.5"),
        (lambda: fit_dbw(FIT_CELL, max_iter=10.5), InputError,
         "max_iter must be an int >= 1, got 10.5"),
        (lambda: fit_dbw(FIT_CELL, gamma="10"), InputError,
         "gamma must be a finite real number > 0, got '10'"),
    ], ids=["stamp-float", "stamp-fraction", "stamp-1", "rea-n-float", "rea-radius-float",
            "curvature-float", "smooth-float", "smooth-none", "smooth-1", "smooth-long",
            "smooth-order-float", "dbw-max_iter-float", "dbw-gamma-str"])
    def test_each_stage_checks_its_parameters(self, call, error, message):
        with pytest.raises(InputError) as info:
            call()
        assert (type(info.value), str(info.value)) == (error, message)

    @pytest.mark.parametrize("call, message", [
        (lambda: stamp(np.ones((50, 2)), 4), "series must be one-dimensional, got shape (50, 2)"),
        (lambda: stamp(3.0, 4), "series must be one-dimensional, got shape ()"),
        (lambda: stamp(["a"] * 50, 4), "series: cannot read as float64 values"),
        (lambda: arc_curve(np.zeros((5, 2), int)),
         "index must be one-dimensional, got shape (5, 2)"),
        (lambda: compute_arc_curves("abc"), "index: cannot read as int64 values"),
        (lambda: rea(["a"] * 5, 1, 0), "cac_values: cannot read as float64 values"),
        (lambda: pearson(["a", "b"], [1, 2]), "x: cannot read as float64 values"),
        (lambda: evaluate(["a"], [1.0]), "y: cannot read as float64 values"),
        (lambda: gbrt_train([["a", "b"]] * 3, [1, 2, 3]), "X: cannot read as float64 values"),
        (lambda: gbrt_predict(STUMP_MODEL, [["a", "b"]]), "X: cannot read as float64 values"),
        (lambda: CycleRecord(1, ["a", "b"], [1, 2]), "voltage_v: cannot read as float64 values"),
        (lambda: CapacityFadeSeries("a", [1, 2, 3], ["x", "y", "z"], 1.0),
         "capacity_ah: cannot read as float64 values"),
        (lambda: NormalizedSeries(["a"], [1.0]), "cycles: cannot read as int64 values"),
        (lambda: lm_optimize(identity, np.zeros((2, 2))),
         "init must be one-dimensional, got shape (2, 2)"),
        (lambda: lm_optimize(identity, ["a"]), "init: cannot read as float64 values"),
        (lambda: lm_optimize(lambda q: ["a"], np.zeros(1)),
         "residuals: cannot read as float64 values"),
        (lambda: lm_optimize(lambda q: np.ones((2, 2)) + q[0], np.zeros(1)),
         "residuals must be one-dimensional, got shape (2, 2)"),
        (lambda: dbw_model(["a"], DBWParams(1.0, 0.0, 0.0, 0.0, 1.0, 2.0, 10.0)),
         "x: cannot read as float64 values"),
        (lambda: CapacityFadeSeries("a", [[1, 2, 3]] * 3, [[1.0, 0.9, 0.8]] * 3, 1.0),
         "cycles must be one-dimensional, got shape (3, 3)"),
        (lambda: CapacityFadeSeries("a", [1, 2, 3], [[1.0, 0.9, 0.8]], 1.0),
         "capacity_ah must be one-dimensional, got shape (1, 3)"),
        (lambda: NormalizedSeries([[1, 2]], [[1.0, 0.9]]),
         "cycles must be one-dimensional, got shape (1, 2)"),
        (lambda: NormalizedSeries([1, 2], [[1.0, 0.9]]),
         "values must be one-dimensional, got shape (1, 2)"),
        (lambda: CycleRecord(1, [[3.0, 2.0], [1.0, 0.5]], [[0.0, 1.0], [2.0, 3.0]]),
         "voltage_v must be one-dimensional, got shape (2, 2)"),
        (lambda: CycleRecord(1, [3.0, 2.0], [[0.0, 1.0]]),
         "q_ah must be one-dimensional, got shape (1, 2)"),
        (lambda: pearson([[1, 2], [3, 5]], [[1, 2], [3, 4]]),
         "x must be one-dimensional, got shape (2, 2)"),
        (lambda: pearson([1, 2], [[1, 2]]), "y must be one-dimensional, got shape (1, 2)"),
        (lambda: evaluate([[1.0, 2.0]], [[1.0, 2.5]]),
         "y must be one-dimensional, got shape (1, 2)"),
        (lambda: evaluate([1.0, 2.0], [[1.0, 2.5]]),
         "y_hat must be one-dimensional, got shape (1, 2)"),
        # complex values: NumPy's unsafe cast would read the real part
        (lambda: stamp(SHORT + 1j, 4), "series: cannot read as float64 values"),
        (lambda: CapacityFadeSeries("a", np.arange(5), np.ones(5) + 1j, 1.0),
         "capacity_ah: cannot read as float64 values"),
        (lambda: NormalizedSeries([1, np.complex128(2)], [1.0, 0.9]),
         "cycles: cannot read as int64 values"),
        (lambda: pearson([1.0, np.complex64(2)], [1, 2]),
         "x: cannot read as float64 values"),
        (lambda: dbw_model(np.complex128(1), DBWParams(1.0, 0.0, 0.0, 0.0, 1.0, 2.0, 10.0)),
         "x: cannot read as float64 values"),
        (lambda: lm_optimize(lambda q: q + 1j, np.zeros(1)),
         "residuals: cannot read as float64 values"),
        (lambda: gbrt_predict(STUMP_MODEL, [[1j]]), "X: cannot read as float64 values"),
        # a list holding an int past uint64, a Fraction, a Decimal or None is an object array
        (lambda: CapacityFadeSeries("a", [1, 2, 2**70], [1.0, 0.9, 0.8], 1.0),
         "cycles: cannot read as int64 values"),
        (lambda: lm_optimize(identity, [2**64]), "init: cannot read as float64 values"),
        (lambda: pearson([Fraction(1), Fraction(2), Fraction(4)], [1, 3, 2]),
         "x: cannot read as float64 values"),
        (lambda: gbrt_predict(STUMP_MODEL, [[Decimal("1.5")]]), "X: cannot read as float64 values"),
        (lambda: evaluate([100.0, None], [100.0, 200.0]), "y: cannot read as float64 values"),
        # floats are not truncated to cycles or indices, in range or not (1e19
        # warned "invalid value encountered in cast")
        (lambda: arc_curve(np.array([1e19, 0.0])), "index: cannot read as int64 values"),
        (lambda: arc_curve(np.array([2.0, 0.0, 1.0])), "index: cannot read as int64 values"),
        (lambda: NormalizedSeries([0.0, 1.5], [1.0, 0.9]), "cycles: cannot read as int64 values"),
        (lambda: CapacityFadeSeries("a", np.arange(3.0), [1.0, 0.9, 0.8], 1.0),
         "cycles: cannot read as int64 values"),
        # numeric strings are not parsed, as rules.as_number parses none
        (lambda: CapacityFadeSeries("a", [1, 2, 3], ["1.0", "0.9", "0.8"], 1.0),
         "capacity_ah: cannot read as float64 values"),
        (lambda: stamp([str(v) for v in SHORT], 3), "series: cannot read as float64 values"),
        (lambda: CycleRecord(1, ["3.0", "2.0"], [0.0, 1.0]),
         "voltage_v: cannot read as float64 values"),
        (lambda: dbw_model("1.0", DBWParams(1.0, 0.0, 0.0, 0.0, 1.0, 2.0, 10.0)),
         "x: cannot read as float64 values"),
        (lambda: gbrt_train([["1", "2"]] * 3, [1, 2, 3]), "X: cannot read as float64 values"),
        # unsigned values past int64 would wrap to negative cycles or indices
        (lambda: NormalizedSeries(PAST_INT64, [1.0, 0.9]), "cycles: cannot read as int64 values"),
        (lambda: NormalizedSeries(np.array(PAST_INT64, np.uint64), [1.0, 0.9]),
         "cycles: cannot read as int64 values"),
        (lambda: CapacityFadeSeries("a", PAST_INT64, [1.0, 0.9], 1.0),
         "cycles: cannot read as int64 values"),
        (lambda: CapacityFadeSeries("a", np.array(PAST_INT64, np.uint64), [1.0, 0.9], 1.0),
         "cycles: cannot read as int64 values"),
        (lambda: arc_curve(PAST_INT64), "index: cannot read as int64 values"),
        (lambda: arc_curve(np.array(PAST_INT64, np.uint64)), "index: cannot read as int64 values"),
        # a scalar has no length; a matrix's argmin would be a flat index
        (lambda: rea(np.float64(0.5), 2, 0), "cac_values must be one-dimensional, got shape ()"),
        (lambda: rea(np.zeros((4, 4)), 2, 0), "cac_values must be one-dimensional, got shape (4, 4)"),
    ], ids=["stamp-2d", "stamp-scalar", "stamp-str", "arc-2d", "arc-str", "rea-str", "pearson-str",
            "evaluate-str", "train-str", "predict-str", "record-str", "series-str",
            "normalized-str", "lm-init-2d", "lm-init-str", "lm-residuals-str", "lm-residuals-2d",
            "dbw-model-str", "series-cycles-2d", "series-capacity-2d", "normalized-cycles-2d",
            "normalized-values-2d", "record-voltage-2d", "record-q-2d", "pearson-x-2d",
            "pearson-y-2d", "evaluate-y-2d", "evaluate-y_hat-2d", "stamp-complex-array",
            "series-complex-array", "normalized-complex-scalar-in-list",
            "pearson-complex-scalar-in-list", "dbw-model-complex-scalar",
            "lm-residuals-complex", "predict-python-complex", "series-int-past-int64",
            "lm-init-int-past-int64", "pearson-fractions", "predict-decimal", "evaluate-none",
            "arc-huge-float", "arc-float", "normalized-float-cycles", "series-float-cycles",
            "series-numeric-strings", "stamp-numeric-strings", "record-numeric-strings",
            "dbw-model-numeric-string", "train-numeric-strings", "normalized-uint-list",
            "normalized-uint-array", "series-uint-list", "series-uint-array", "arc-uint-list",
            "arc-uint-array", "rea-scalar", "rea-2d"])
    def test_each_array_is_read_by_the_array_rule(self, call, message):
        # only the package's prefix: NumPy words the refused cast differently by version
        with pytest.raises(InputError) as info:
            call()
        assert type(info.value) is InputError and str(info.value).startswith(message)

    def test_unsigned_values_within_int64_keep_their_values(self):
        cycles = NormalizedSeries(np.arange(5, dtype=np.uint64), np.ones(5)).cycles
        assert cycles.dtype == np.int64 and cycles.tolist() == [0, 1, 2, 3, 4]

    def test_rules_is_a_leaf_module(self):
        # the rules sit in a module of their own so that any module can import them
        tree = ast.parse(open(rules.__file__, encoding="utf-8").read())
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names}
        imported |= {"." * node.level + node.module for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom)}
        assert imported == {"math", "numbers", "numpy", ".errors"}

    def test_order_is_checked_before_the_weights_cache(self):
        # a cached (21, 3) entry equals (21, 3.0), so the check must come first
        savgol_coeffs(21, 3)
        for call in (lambda: savgol_smooth(SMOOTH, 21, 3.0), lambda: savgol_coeffs(21, 3.0)):
            with pytest.raises(InputError, match=r"^order must be an int, got 3\.0$") as info:
                call()
            assert type(info.value) is InputError
        with pytest.raises(EvenWindow, match="^window must be odd, got 20$"):
            savgol_coeffs(20, 3)
        with pytest.raises(OrderTooHigh, match="^order -1 must satisfy 0 <= order < window 21$"):
            savgol_coeffs(21, -1)
        with pytest.raises(InputError, match="^order must be an int, got '3'$"):
            savgol_coeffs(21, "3")

    def test_a_fraction_gamma_fits_as_its_float(self):
        assert fit_dbw(FIT_CELL, gamma=Fraction(10)) == fit_dbw(FIT_CELL, gamma=10.0)
        assert (dbw_knee_report(FIT_CELL, PipelineParams(gamma=Fraction(10)))
                == dbw_knee_report(FIT_CELL))

    def test_real_fields_are_stored_as_floats(self):
        params = PipelineParams(eol_threshold=Fraction(4, 5), gamma=np.float32(10))
        assert (type(params.eol_threshold), type(params.gamma)) == (float, float)
        assert params == PipelineParams()
        assert json.dumps(dataclasses.asdict(params)) == json.dumps(
            dataclasses.asdict(PipelineParams()))

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_accepted_params_run_or_raise_a_knee_scout_error(self, data):
        # one field at a time, as the entry points above: a valid max_iter
        # cannot meet a gamma that stops the fit from converging
        name = data.draw(st.sampled_from(PIPELINE_FIELDS), label="field")
        try:
            params = PipelineParams(**{name: data.draw(ODD, label="value")})
        except KneeScoutError:
            return
        for pipeline in (identify_knees, dbw_knee_report):
            try:
                pipeline(FIT_CELL, params)
            except KneeScoutError:
                pass


def cli_error(*argv):
    """``knee-scout --json-errors *argv``, which must exit 1; the error that it
    reports, raised as its class."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["--json-errors", *map(str, argv)])
    payload = json.loads(err.getvalue())
    assert code == payload["exit_code"] == 1
    raise getattr(errors, payload["error"])(payload["message"])


def sensitivity_label(v, directory):
    """``knee-scout sensitivity`` on one cell whose truth file holds onset
    ``v``; the error that it reports, raised as its class."""
    (directory / "c.cycles.csv").write_text("")  # labels are read before any cycle file
    (directory / "c.truth.json").write_text(json.dumps({"ground_truth": {"onset_cycle": v}}))
    cli_error("sensitivity", "--dir", directory, "--out", directory / "s.csv")


# (caller, the name that its message gives the value, call of one value, error)
POSITIVE_CALLERS = [
    ("PipelineParams.gamma", "gamma", lambda v, d: PipelineParams(gamma=v), InputError),
    ("fit_dbw gamma", "gamma", lambda v, d: fit_dbw(FIT_CELL, gamma=v), InputError),
    ("GBRTHyper.learning_rate", "learning_rate", lambda v, d: GBRTHyper(learning_rate=v),
     InvalidHyperparameter),
    ("stratified_split label", "onset label 10", lambda v, d: stratified_split([*LABELS, v]),
     InputError),
    ("check_test_split label", "onset label 10", lambda v, d: check_test_split([*LABELS, v]),
     InputError),
    ("sensitivity_sweep label", "onset label 9",
     lambda v, d: sensitivity_sweep(EMPTY_CELLS, [*LABELS[1:], v], budgets=[15]), InputError),
    ("simulate_cycle_records onset_cycle", "onset_cycle",
     lambda v, d: simulate_cycle_records(v), DegenerateSpec),
    ("CapacityFadeSeries.q_nom_ah", "q_nom_ah",
     lambda v, d: CapacityFadeSeries("a", [1, 2, 3], [1.0, 0.9, 0.8], v), NonPositiveNominal),
    ("knee-scout sensitivity", "{directory}/c.truth.json: onset_cycle", sensitivity_label,
     InputError),
]
POSITIVE_BAD = [True, 0, -1, math.nan, math.inf, HUGE, "1", None]

MISSING = "no-such-directory"
OUT = f"{MISSING}/out.csv"
# (caller, the name that its message gives the value, the least count, call, error);
# a call meets a bad value before any other
COUNT_CALLERS = [
    ("PipelineParams.max_iter", "max_iter", 1, lambda v: PipelineParams(max_iter=v), InputError),
    ("PipelineParams.exclusion_radius", "exclusion_radius", 0,
     lambda v: PipelineParams(exclusion_radius=v), IndexOutOfRange),
    ("fit_dbw max_iter", "max_iter", 1, lambda v: fit_dbw(FIT_CELL, max_iter=v), InputError),
    ("lm_optimize max_iter", "max_iter", 1,
     lambda v: lm_optimize(infinite_residuals, np.zeros(1), max_iter=v), InputError),
    ("rea n_boundaries", "n_boundaries", 0, lambda v: rea(CAC, v, 5), IndexOutOfRange),
    ("rea exclusion_radius", "exclusion_radius", 0, lambda v: rea(CAC, 2, v), IndexOutOfRange),
    *((f"GBRTHyper.{f}", f, low, lambda v, f=f: GBRTHyper(**{f: v}), InvalidHyperparameter)
      for f, low in (("n_trees", 0), ("max_depth", 0), ("min_leaf", 1))),
    *((f"SyntheticSpec.{f}", f, low, lambda v, f=f: SyntheticSpec(**{**SPEC, f: v}),
       DegenerateSpec) for f, low in (("n_cycles", MIN_CYCLES), ("seed", 0))),
    ("generate_fleet count", "count", 1, lambda v: generate_fleet(v, seed=0), DegenerateSpec),
    ("generate_fleet n_cycles", "n_cycles", MIN_CYCLES,
     lambda v: generate_fleet(1, seed=0, n_cycles=v), DegenerateSpec),
    ("generate_fleet seed", "seed", 0, lambda v: generate_fleet(1, seed=v), DegenerateSpec),
    ("convex_family_specs count", "count", 1, lambda v: convex_family_specs(v, 0),
     DegenerateSpec),
    ("convex_family_specs seed", "seed", 0, lambda v: convex_family_specs(1, v), DegenerateSpec),
    ("simulate_cycle_records seed", "seed", 0, lambda v: simulate_cycle_records(100, seed=v),
     DegenerateSpec),
    ("stratified_split seed", "seed", 0, lambda v: stratified_split(LABELS, seed=v), InputError),
    *((f"sensitivity_sweep {k}", k, low,
       lambda v, k=k: sensitivity_sweep(EMPTY_CELLS, LABELS, budgets=[15], **{k: v}), InputError)
      for k, low in (("repeats", 1), ("seed", 0))),
    # every budget is read before the first is swept: 15 would reach the empty cells
    ("sensitivity_sweep budget", "budget", MIN_BUDGET,
     lambda v: sensitivity_sweep(EMPTY_CELLS, LABELS, budgets=[15, v]), InputError),
    ("extract_features budget", "budget", MIN_BUDGET, lambda v: extract_features({}, budget=v),
     InputError),
    ("feature_matrix budget", "budget", MIN_BUDGET, lambda v: feature_matrix(EMPTY_CELLS, v),
     InputError),
    ("check_budget", "budget", MIN_BUDGET, check_budget, InputError),
    ("batch_report jobs", "jobs", 1, lambda v: batch_report([], jobs=v), InputError),
    # the command line: each count flag is an int that the library's rule checks
    # while loading, before any input is read (none of these paths exists)
    ("knee-scout features --budget", "budget", MIN_BUDGET,
     lambda v: cli_error("features", "--cycles", MISSING, "--budget", v, "--out", OUT),
     InputError),
    ("knee-scout sensitivity --budgets", "budget", MIN_BUDGET,
     lambda v: cli_error("sensitivity", "--dir", MISSING, "--budgets", v, "--out", OUT),
     InputError),
    *((f"knee-scout sensitivity --{k}", k, low,
       lambda v, k=k: cli_error("sensitivity", "--dir", MISSING, f"--{k}", v, "--out", OUT),
       InputError) for k, low in (("repeats", 1), ("seed", 0))),
    *((" ".join(("knee-scout synth", *flags, "--seed")), "seed", 0,
       lambda v, flags=flags: cli_error("synth", *flags, "--count", 1, "--seed", v,
                                        "--out-dir", MISSING), DegenerateSpec)
      for flags in ((), ("--convex",))),
    ("knee-scout batch --jobs", "jobs", 1,
     lambda v: cli_error("batch", "--dir", MISSING, "--jobs", v, "--out", OUT), InputError),
    ("knee-scout train --n-trees", "n_trees", 0,
     lambda v: cli_error("train", "--features", OUT, "--labels", OUT, "--n-trees", v,
                         "--out", OUT), InvalidHyperparameter),
]
# an int past float64 is a count, so its negative stands in for it
COUNT_BAD = [True, 0, -1, math.nan, math.inf, -HUGE, "1", None, 1.5]


def value_id(value):
    return "10**400" if value == HUGE else "-10**400" if value == -HUGE else repr(value)


class TestOneRulePerKind:
    """Every caller of a rule refuses the same bad values with the rule's one
    message, named as the caller names the value, and with its own class.

    The ``train`` command reads its labels from a CSV, which holds only
    numbers; ``TestPredictionInputErrors`` in ``test_cli.py`` covers it."""

    @pytest.mark.parametrize("caller, name, call, error", POSITIVE_CALLERS,
                             ids=[c[0] for c in POSITIVE_CALLERS])
    @pytest.mark.parametrize("value", POSITIVE_BAD, ids=value_id)
    def test_the_positive_rule(self, caller, name, call, error, value, tmp_path):
        with pytest.raises(KneeScoutError) as info:
            call(value, tmp_path)
        name = name.format(directory=tmp_path)
        message = f"{name} must be a finite real number > 0, got {value!r}"
        assert (type(info.value), str(info.value)) == (error, message)

    @pytest.mark.parametrize("caller, name, low, call, error, value", [
        pytest.param(*caller, value, id=f"{caller[0]}-{value_id(value)}")
        for caller in COUNT_CALLERS for value in COUNT_BAD
        if not (value == 0 and caller[2] == 0)  # 0 is a count where the least count is 0
        # any other value on the command line is argparse's "invalid int value"
        and (type(value) is int or not caller[0].startswith("knee-scout"))
    ])
    def test_the_count_rule(self, caller, name, low, call, error, value):
        with pytest.raises(KneeScoutError) as info:
            call(value)
        message = f"{name} must be an int >= {low}, got {value!r}"
        assert (type(info.value), str(info.value)) == (error, message)

    def test_the_rules_accept_their_bounds(self):
        assert rules.check_count(0, "n", 0) == 0 and rules.check_count(np.int64(1), "n", 1) == 1
        assert rules.check_count(HUGE, "n", 0) == HUGE
        assert rules.check_positive(5e-324, "x") == 5e-324
        assert type(rules.check_positive(np.float32(2), "x")) is float
