"""Early-cycle knee-onset prediction from discharge-curve features.

The feature set is six numbers per cell: min, variance, skewness, and
kurtosis of the capacity difference between two early discharge voltage
curves (cycle 10 and the budget cycle, interpolated onto a common voltage
grid), the discharge capacity at cycle 2, and the difference between the
maximum capacity within the budget window and the cycle-2 capacity.

The regressor is stagewise least-squares boosting over depth-limited
regression trees with axis-aligned splits and leaf means. Training is
fully deterministic: split ties go to the lower feature index, then the
lower threshold.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    EmptyTrainingSet,
    FeatureCountMismatch,
    InputError,
    InvalidDischargeCurve,
    InvalidHyperparameter,
    InvalidModel,
    KneeScoutError,
    LengthMismatch,
    MalformedRow,
    MissingCycle,
    NonFiniteFeature,
    NonFiniteResidual,
    NoVoltageOverlap,
    ZeroTrueValue,
)
from .ingest import cycle_column, parse_json, read_csv
from .rules import as_array, as_number, check_count, check_finite, check_positive

CYCLE_DETAIL_HEADER = ("cycle", "voltage_v", "discharge_capacity_ah")
LABELS_HEADER = ("cell_id", "onset_cycle")
PREDICTIONS_HEADER = ("cell_id", "predicted_onset_cycle")
SENSITIVITY_HEADER = ("budget", "mean_rmse", "mean_mape")
# the cycle that the capacity difference is taken against; a budget must pass it
ANCHOR_CYCLE = 10
MIN_BUDGET = ANCHOR_CYCLE + 1

# Knee-onset grading thresholds in cycles: early < 150, late > 270.
CLASS_EDGES = (150.0, 270.0)


@dataclass(frozen=True)
class GBRTHyper:
    """Hyperparameters of the boosted-tree knee-onset predictor.

    Zero trees is valid and gives a model that predicts the training mean.
    The counts must be integers, not bools; a NumPy integer is stored as int.
    ``learning_rate`` must be a real number, not a bool; it is stored as a float.
    """

    n_trees: int = 300
    learning_rate: float = 0.05
    max_depth: int = 3
    min_leaf: int = 2

    def __post_init__(self):
        problems = []
        for name, low in (("n_trees", 0), ("max_depth", 0), ("min_leaf", 1),
                          ("learning_rate", None)):  # None: a finite real > 0
            value = getattr(self, name)
            try:
                number = (check_positive(value, name) if low is None
                          else check_count(value, name, low))
            except InputError as exc:
                problems.append(str(exc))
            else:
                object.__setattr__(self, name, number)
        if problems:
            raise InvalidHyperparameter("; ".join(problems))


def _curve_fault(voltage: np.ndarray, q: np.ndarray, starts) -> Optional[str]:
    """The first rule that a record breaks, or None if every record keeps them all.

    The records are ``voltage[a:b]``, ``q[a:b]`` for each start ``a`` in
    ``starts`` and the next start, or the end, as ``b``. The rules, in order:
    at least 2 samples, finite values, voltage strictly falling, and capacity
    never falling by more than 1e-12. Both arrays are float64 and equally long.
    """
    starts = np.asarray(starts)
    if starts[-1] > len(voltage) - 2 or (starts[1:] - starts[:-1] < 2).any():
        return "need >= 2 samples"
    if not (np.isfinite(voltage).all() and np.isfinite(q).all()):
        return "voltages and capacities must be finite"
    joins = starts[1:] - 1  # the steps from one record to the next are not checked
    rising = voltage[1:] >= voltage[:-1]
    rising[joins] = False
    if rising.any():
        return "voltage must be strictly decreasing"
    with np.errstate(over="ignore"):  # a step past float64 is +-inf, not a warning
        falling = q[1:] - q[:-1] < -1e-12
    falling[joins] = False
    if falling.any():
        return "discharge capacity must be nondecreasing"
    return None


@dataclass(frozen=True)
class CycleRecord:
    """One cycle's discharge curve: finite capacity vs strictly decreasing voltage."""

    cycle: int
    voltage_v: np.ndarray
    q_ah: np.ndarray

    def __post_init__(self):
        v = as_array(self.voltage_v, "voltage_v", vector=True)
        q = as_array(self.q_ah, "q_ah", vector=True)
        object.__setattr__(self, "voltage_v", v)
        object.__setattr__(self, "q_ah", q)
        if v.shape != q.shape:
            raise LengthMismatch(
                f"cycle {self.cycle}: {len(v)} voltages vs {len(q)} capacities"
            )
        fault = _curve_fault(v, q, [0])
        if fault is not None:
            raise InvalidDischargeCurve(f"cycle {self.cycle}: {fault}")

    @classmethod
    def _checked(cls, cycle: int, voltage_v: np.ndarray, q_ah: np.ndarray) -> "CycleRecord":
        """A record of float64 vectors that ``_curve_fault`` has passed, unchecked."""
        record = object.__new__(cls)
        object.__setattr__(record, "cycle", cycle)
        object.__setattr__(record, "voltage_v", voltage_v)
        object.__setattr__(record, "q_ah", q_ah)
        return record

    @property
    def total_capacity_ah(self) -> float:
        return float(self.q_ah[-1])


@dataclass(frozen=True)
class FeatureVector:
    min_dq: float
    var_dq: float
    skew_dq: float
    kurt_dq: float
    q2: float
    q_max_minus_2: float

    def __post_init__(self):
        bad = [f"{name}={value}" for name, value in vars(self).items()
               if not math.isfinite(value)]
        if bad:
            raise NonFiniteFeature(f"non-finite feature: {', '.join(bad)}")
        if self.var_dq < 0:
            raise NonFiniteFeature(f"negative variance {self.var_dq!r}")

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in FEATURE_NAMES])


FEATURE_NAMES = tuple(f.name for f in fields(FeatureVector))
FEATURES_HEADER = ("cell_id", *FEATURE_NAMES)


def load_cycle_detail_csv(path) -> Dict[int, CycleRecord]:
    """Read a ``cycle,voltage_v,discharge_capacity_ah`` CSV, grouped by cycle.

    The rows of one cycle must be contiguous; a file with no rows is an InputError.
    Every record is checked in one pass over the file. If a record breaks a
    ``CycleRecord`` rule, the first such cycle raises the error that
    ``CycleRecord`` gives for it.
    """
    _, values, lines = read_csv(path, CYCLE_DETAIL_HEADER)
    if not len(values):  # else the first feature names a missing cycle
        raise InputError(f"{path}: no cycle rows after the header")
    cycles = cycle_column(path, values[:, 0], lines)
    starts = np.flatnonzero(np.diff(cycles, prepend=cycles[:1] - 1))
    _, first = np.unique(cycles[starts], return_index=True)
    if len(first) < len(starts):
        k = starts[np.setdiff1d(np.arange(len(starts)), first)[0]]
        raise MalformedRow(
            f"{path}: line {lines[k]}: rows for cycle {cycles[k]} are not contiguous"
        )
    voltage, q = np.ascontiguousarray(values[:, 1:].T)
    # a bad file is read record by record, so the first bad cycle raises as it would alone
    build = CycleRecord._checked if _curve_fault(voltage, q, starts) is None else CycleRecord
    return {
        cycle: build(cycle, voltage[a:b], q[a:b])
        for cycle, a, b in zip(cycles[starts].tolist(), starts, [*starts[1:], len(cycles)])
    }


def delta_q(records: Dict[int, CycleRecord], late: int = 30) -> np.ndarray:
    """Q(V) difference (cycle ``late`` - ``ANCHOR_CYCLE``) on a uniform
    1000-point grid over the overlap."""
    early = ANCHOR_CYCLE
    for cyc in (early, late):
        if cyc not in records:
            raise MissingCycle(f"cycle {cyc} not present")
    r_e, r_l = records[early], records[late]
    # a CycleRecord's voltage strictly falls: its end samples are its min and max
    lo = max(r_e.voltage_v[-1], r_l.voltage_v[-1])
    hi = min(r_e.voltage_v[0], r_l.voltage_v[0])
    if lo >= hi:
        raise NoVoltageOverlap(
            f"cycles {early} and {late} share no voltage range ({lo:.3f} >= {hi:.3f})"
        )
    grid = np.linspace(lo, hi, 1000)
    q_e = np.interp(grid, r_e.voltage_v[::-1], r_e.q_ah[::-1])
    q_l = np.interp(grid, r_l.voltage_v[::-1], r_l.q_ah[::-1])
    return q_l - q_e


def _moments(x: np.ndarray) -> Tuple[float, float, float]:
    """Population variance, skewness, and non-excess kurtosis.

    The third and fourth central moments are built from the squared
    deviations by multiplication, not by array powers: products are exactly
    rounded, so the bits do not depend on the CPU or the NumPy build. Each
    mean is ``np.mean``'s arithmetic, one pairwise sum divided by the count.

    A constant input has zero variance; skewness and kurtosis are zero by
    convention in that case. Moments that overflow come back as inf or NaN,
    without a warning, for the caller's finiteness check; so do skewness and
    kurtosis when a power of a finite variance overflows.
    """
    n = len(x)
    with np.errstate(over="ignore", invalid="ignore"):
        mu = float(np.add.reduce(x)) / n
        dev = x - mu
        sq = dev * dev
        m2 = float(np.add.reduce(sq)) / n
        if math.sqrt(m2) < 1e-12 * max(1.0, abs(mu)):
            return m2, 0.0, 0.0
        m3 = float(np.add.reduce(sq * dev)) / n
        m4 = float(np.add.reduce(sq * sq)) / n
    try:
        return m2, m3 / m2**1.5, m4 / m2**2
    except OverflowError:  # Python float powers raise where NumPy's give inf
        return m2, math.nan, math.nan


def check_budget(budget) -> int:
    """``budget`` as an int >= ``MIN_BUDGET``, past the anchor cycle, else InputError."""
    return check_count(budget, "budget", MIN_BUDGET)


def extract_features(records: Dict[int, CycleRecord], budget: int = 30) -> FeatureVector:
    """Six-number feature vector from the first ``budget`` cycles; ``budget``
    must pass ``check_budget``."""
    budget = check_budget(budget)
    if 2 not in records:
        raise MissingCycle("cycle 2 not present")
    dq = delta_q(records, late=budget)
    var, skew, kurt = _moments(dq)
    q2 = records[2].total_capacity_ah
    q_max = float(max(rec.q_ah[-1] for cyc, rec in records.items() if cyc <= budget))
    return FeatureVector(
        min_dq=float(dq.min()),
        var_dq=var,
        skew_dq=skew,
        kurt_dq=kurt,
        q2=q2,
        q_max_minus_2=q_max - q2,
    )


def feature_matrix(cells: Dict[str, Dict[int, CycleRecord]], budget: int) -> np.ndarray:
    """``extract_features`` of each cell by id, one row per cell in key order; a
    cell's ``KneeScoutError`` is raised again as its class, prefixed ``cell <id>: ``."""
    budget = check_budget(budget)  # a fault of the call, not of a cell
    X = np.empty((len(cells), len(FEATURE_NAMES)))
    for row, (cell_id, records) in zip(X, cells.items()):
        try:
            row[:] = extract_features(records, budget=budget).as_array()
        except KneeScoutError as exc:
            raise type(exc)(f"cell {cell_id}: {exc}") from None
    return X


def onset_class(label: float) -> int:
    if label < CLASS_EDGES[0]:
        return 0
    if label <= CLASS_EDGES[1]:
        return 1
    return 2


def stratified_split(
    onset_labels: Sequence[float], train_frac: float = 0.8, seed: int = 0
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-class random split with rounding toward the training set.

    Classes are the knee-onset grades (< 150, 150-270, > 270 cycles). A
    class with a single member goes to training. ``train_frac`` must be a
    real number in (0, 1], ``seed`` an int >= 0, and every label a finite
    real > 0 (``rules.check_positive``), else InputError.
    """
    frac = as_number(train_frac)
    if frac is None or not 0 < frac <= 1:  # NaN fails both comparisons
        raise InputError(f"train_frac must be in (0, 1], got {train_frac!r}")
    seed = check_count(seed, "seed", 0)
    if isinstance(onset_labels, np.ndarray):
        onset_labels = onset_labels.tolist()  # Python numbers, for the messages
    labels = np.array(
        [check_positive(v, f"onset label {i}") for i, v in enumerate(onset_labels)], np.float64)
    if len(labels) < 1:
        raise EmptyTrainingSet("no samples to split")
    rng = np.random.default_rng(seed)
    train, test = [], []
    classes = np.array([onset_class(v) for v in labels])
    for cls in sorted(set(classes)):
        idx = np.nonzero(classes == cls)[0]
        perm = rng.permutation(len(idx))
        n_train = math.ceil(frac * len(idx))
        train.extend(idx[perm[:n_train]])
        test.extend(idx[perm[n_train:]])
    return np.array(sorted(train), dtype=np.int64), np.array(sorted(test), dtype=np.int64)


def check_test_split(onset_labels: Sequence[float]) -> None:
    """``EmptyTrainingSet`` if ``stratified_split`` keeps no test cell, whatever the
    seed; ``stratified_split``'s InputError if a label is not a finite real > 0."""
    if len(stratified_split(onset_labels)[1]) == 0:
        sizes = np.bincount([onset_class(v) for v in onset_labels], minlength=len(CLASS_EDGES) + 1)
        raise EmptyTrainingSet(
            f"{len(onset_labels)} labelled cells leave no test cell: the onset classes"
            f" (< {CLASS_EDGES[0]:g}, {CLASS_EDGES[0]:g}-{CLASS_EDGES[1]:g},"
            f" > {CLASS_EDGES[1]:g} cycles) hold {', '.join(map(str, sizes))} cells,"
            " and a class of k cells keeps k - ceil(0.8 k) for testing"
        )


# --- boosted trees ----------------------------------------------------------

# A tree node; feature -1 marks a leaf, whose children are -1. A child is
# counted from its tree's first node, as in the model JSON.
NODE = np.dtype([("feature", np.int64), ("threshold", np.float64),
                 ("left", np.int64), ("right", np.int64), ("value", np.float64)])


@dataclass(frozen=True, eq=False)
class GBRTModel:
    """Boosted trees: ``nodes`` holds every tree's ``NODE`` records back to
    back, ``sizes`` the node count of each tree."""

    init_value: float
    learning_rate: float
    n_features: int
    nodes: np.ndarray
    sizes: np.ndarray
    train_rmse: List[float] = field(default_factory=list, repr=False)

    @property
    def trees(self) -> List[np.ndarray]:
        """Each tree's nodes, as views of ``nodes``."""
        # np.split of no nodes gives one empty piece, not zero trees
        return np.split(self.nodes, np.cumsum(self.sizes)[:-1]) if len(self.sizes) else []

    def to_json(self) -> str:
        return json.dumps(
            {
                "init_value": self.init_value,
                "learning_rate": self.learning_rate,
                "n_features": self.n_features,
                "trees": [[dict(zip(NODE.names, row)) for row in tree.tolist()]
                          for tree in self.trees],
            },
            indent=2,
            sort_keys=True,
        )

    @staticmethod
    def from_json(text: str) -> "GBRTModel":
        obj = parse_json(text, "model JSON", InvalidModel)
        try:
            trees = [
                [(_json_number(n, "feature", True), _json_number(n, "threshold"),
                  _json_number(n, "left", True), _json_number(n, "right", True),
                  _json_number(n, "value")) for n in tree]
                for tree in obj["trees"]
            ]
            init_value = _json_number(obj, "init_value")
            learning_rate = _json_number(obj, "learning_rate")
            n_features = _json_number(obj, "n_features", True)
            # json reads the literals NaN and Infinity
            if not (math.isfinite(init_value) and math.isfinite(learning_rate)):
                raise InvalidModel(
                    f"model JSON init_value {init_value} and learning_rate "
                    f"{learning_rate} must be finite"
                )
            # > 0, by the rule GBRTHyper reads it with
            check_positive(learning_rate, "model JSON learning_rate", InvalidModel)
            if n_features < 0:
                raise InvalidModel(f"model JSON n_features {n_features} is negative")
            # checked as Python ints, before packing, so that a feature of 10**30
            # names its node; packing overflows only past int64 under a larger n_features
            for t, tree in enumerate(trees):
                _check_tree(t, tree, n_features)
            nodes = np.array([row for tree in trees for row in tree], dtype=NODE)
        except KeyError as exc:
            raise InvalidModel(f"model JSON lacks field {exc.args[0]!r}") from None
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidModel(f"malformed model JSON: {exc}") from None
        sizes = np.array([len(tree) for tree in trees], dtype=np.int64)
        return GBRTModel(init_value, learning_rate, n_features, nodes, sizes)


def _json_number(obj: dict, key: str, integral: bool = False):
    """Field ``key`` of a model JSON object as ``rules.as_number`` reads it: an int
    where ``integral``, else a float, which may also be written as a numeric
    string. Anything else is a TypeError, ValueError or OverflowError (an int
    past float64 in a float field) for ``from_json`` to report as malformed."""
    value = obj[key]
    if not integral and type(value) in (int, str):  # not a bool
        value = float(value)
    number = as_number(value, integral)
    if number is None:
        raise TypeError(f"{key} {value!r} is not {'an integer' if integral else 'a number'}")
    return number


def _check_tree(t: int, tree: List[tuple], n_features: int) -> None:
    """Raise ``InvalidModel`` unless every walk down tree ``t``, a list of
    ``NODE`` rows, ends at a leaf.

    The tree is not empty; every threshold and value is finite; an inner
    node splits on a feature in ``[0, n_features)`` and both its children
    come after it and inside the tree; a leaf has feature -1 and children -1.
    """
    if not tree:
        raise InvalidModel(f"model JSON tree {t} is empty")
    for i, (feature, threshold, left, right, value) in enumerate(tree):
        where = f"model JSON tree {t} node {i}"
        if not (math.isfinite(threshold) and math.isfinite(value)):
            raise InvalidModel(
                f"{where}: threshold {threshold} and value {value} must be finite"
            )
        if feature == -1:
            if left != -1 or right != -1:
                raise InvalidModel(f"{where}: a leaf's children must be -1")
        elif not 0 <= feature < n_features:
            raise InvalidModel(
                f"{where}: feature {feature} is outside [0, {n_features})"
            )
        elif not (i < left < len(tree) and i < right < len(tree)):
            raise InvalidModel(
                f"{where}: children {left}, {right} must come after "
                f"it and inside the tree's {len(tree)} nodes"
            )


def _threshold(lower, upper) -> float:
    """The midpoint of two adjacent distinct values, or ``lower`` where it fails.

    Between adjacent floats the midpoint can round up to ``upper``, and for
    huge values it can overflow to +-inf; either would send every row to
    one side. ``lower`` splits the two values apart under ``x <= thr``.
    """
    lower, upper = float(lower), float(upper)  # Python floats overflow silently
    mid = (lower + upper) / 2.0
    return mid if lower <= mid < upper else lower


class _Node:
    """A node that some tree of one fit reached, with all that its rows fix.

    Every tree of a fit splits the same rows, so a node is its path: the
    root, then a cut and a side at each level. What depends on the rows
    alone is worked out the first time a tree reaches the node, and every
    later tree reads it back; only the residuals differ.

    - ``rows``: the node's rows, ascending.
    - ``order``: the stable sort of the rows by each feature, (features x
      rows); None where the node never splits (by depth, by size, or for
      want of features), and then the node has nothing more.
    - ``invalid``: the cuts that leave fewer than ``min_leaf`` rows on a
      side or fall between equal values. ``nl``, ``nr``: each cut's
      left- and right-hand row counts (read-only views the fit shares); the
      last cut, which leaves no row on the right, is invalid and takes ``nr`` 1.
    - ``splits``: for each cut a tree split the node at, keyed by its flat
      index in the table: (feature, threshold, left, right).
    """

    __slots__ = ("rows", "order", "invalid", "nl", "nr", "splits")

    def __init__(self, rows, order=None):
        self.rows = rows
        self.order = order


def _best_split(rs, node: _Node):
    """Greedy variance-reduction split of ``node``: the flat index of its
    best cut in the (features x rows) table, or None.

    Row ``f`` of ``rs`` holds the node's residuals in the sorted order of
    feature ``f``; ``rs`` is overwritten. Every cut of every feature is
    scored in one contiguous table, and the cuts in ``node.invalid`` score
    +inf. The first minimum in feature-major order wins: ties break toward
    the lower feature index, then the lower threshold (strict improvement
    required).

    With ``c1``, ``c2`` the left-hand sums of the residuals and their
    squares, ``tot1``, ``tot2`` the node's, and ``d = tot1 - c1``, the cut
    after the first ``nl`` rows scores ``(c2 - c1*c1/nl) + ((tot2 - c2) -
    d*d/nr)``. Squares are products, never powers: products are exactly
    rounded, so the table is the definition on any IEEE-754 machine.
    """
    c1 = np.add.accumulate(rs, axis=1)
    rs *= rs
    c2 = np.add.accumulate(rs, axis=1)
    d = c1[:, -1:] - c1
    sse = (c2 - c1 * c1 / node.nl) + ((c2[:, -1:] - c2) - d * d / node.nr)
    sse[node.invalid] = np.inf
    cut = int(sse.argmin())
    return None if sse.item(cut) == np.inf else cut


class _NodeCache:
    """The nodes of one ``gbrt_train`` call, shared by all of its trees.

    Each feature is sorted once. A child that may split keeps its parent's
    ``order`` filtered to its own rows, which equals a stable sort of the
    child alone, so no node sorts; it gathers its sorted values from
    ``Xt`` only to find its invalid cuts. A child that is a leaf by depth
    or size filters nothing. The cache lives as long as the fit: the
    nodes that one tree adds at one depth hold each row at most once, so
    their orders and masks take at most 9 bytes x features x rows, and
    the fit's at most n_trees x max_depth times that.
    """

    def __init__(self, Xt, max_depth: int, min_leaf: int):
        self.Xt = Xt
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.counts = np.arange(1, Xt.shape[1] + 1, dtype=np.float64)
        # right_counts[N - n:] is n - counts[:n] with its last entry, 0, read as 1
        self.right_counts = np.maximum(self.counts[::-1] - 1, 1)
        self.features = np.arange(len(Xt))[:, None]
        order = np.argsort(Xt, axis=1, kind="stable")
        self.root = self._node(np.arange(Xt.shape[1]), order, None, 0)

    def _node(self, rows, order, side, depth) -> _Node:
        """The node of ``rows`` at ``depth``; ``order`` is its parent's, with
        ``side`` marking its rows among all rows, or its own where ``side``
        is None."""
        if depth >= self.max_depth or len(rows) < 2 * self.min_leaf or len(order) == 0:
            return _Node(rows)
        if side is not None:
            order = order[side[order]].reshape(len(order), -1)
        node = _Node(rows, order)
        node.splits = {}
        n = len(rows)
        v = self.Xt[self.features, order]
        node.invalid = np.zeros(v.shape, dtype=bool)
        np.equal(v[:, :-1], v[:, 1:], out=node.invalid[:, :-1])
        node.invalid[:, n - self.min_leaf:] = True
        node.invalid[:, :self.min_leaf - 1] = True
        node.nl = self.counts[:n]
        node.nr = self.right_counts[len(self.counts) - n:]
        return node

    def _split(self, node: _Node, cut: int, depth: int):
        f, k = divmod(cut, len(node.rows))
        x = self.Xt[f]
        thr = _threshold(x[node.order[f, k]], x[node.order[f, k + 1]])
        goes_left = x <= thr
        row_left = goes_left[node.rows]
        left = self._node(node.rows[row_left], node.order, goes_left, depth + 1)
        right = self._node(node.rows[~row_left], node.order, ~goes_left, depth + 1)
        node.splits[cut] = (f, thr, left, right)
        return node.splits[cut]

    def fit_tree(self, r) -> Tuple[List[tuple], np.ndarray]:
        """Grow one tree on residuals ``r``; return its NODE rows and its value at each row."""
        nodes: List[tuple] = []
        fitted = np.empty(len(r))
        self._grow(self.root, 0, r, nodes, fitted)
        return nodes, fitted

    def _grow(self, node: _Node, depth: int, r, nodes, fitted) -> int:
        # a method, not a closure: a recursive closure is a reference cycle,
        # and one that held the cache would keep it alive after the fit
        # until the cycle collector ran
        pos = len(nodes)
        cut = None if node.order is None else _best_split(r[node.order], node)
        if cut is None:
            rows = node.rows
            value = float(np.add.reduce(r[rows]) / len(rows))  # np.mean's arithmetic
            nodes.append((-1, 0.0, -1, -1, value))
            fitted[rows] = value
            return pos
        f, thr, left, right = node.splits.get(cut) or self._split(node, cut, depth)
        nodes.append(None)  # filled in once the children have their places
        at = (self._grow(left, depth + 1, r, nodes, fitted),
              self._grow(right, depth + 1, r, nodes, fitted))
        nodes[pos] = (f, thr, *at, 0.0)
        return pos


def _leaf_values(model: GBRTModel, X) -> np.ndarray:
    """Leaf value of every tree at every row of ``X``, shape (trees, rows)."""
    starts = np.cumsum(model.sizes) - model.sizes
    base = np.repeat(starts, model.sizes)
    feature, threshold, value = (model.nodes[name] for name in ("feature", "threshold", "value"))
    left, right = (model.nodes[name] + base for name in ("left", "right"))

    pos = np.repeat(starts[:, None], len(X), axis=1)
    rows = np.arange(len(X))
    while True:
        f = feature[pos]
        inner = f >= 0
        if not inner.any():
            return value[pos]
        goes_left = X[rows, np.where(inner, f, 0)] <= threshold[pos]
        pos = np.where(inner, np.where(goes_left, left[pos], right[pos]), pos)


def _rmse(residual: np.ndarray, trees: int, hyper: GBRTHyper) -> float:
    """Root mean square of the residuals after ``trees`` trees.

    Every term that ``_best_split`` forms is at most n * sum(r**2), so a
    fit whose n * sum(r**2) overflows is NonFiniteResidual.
    """
    mean_square = np.mean(residual ** 2)
    n = len(residual)
    if not math.isfinite(n * n * float(mean_square)):
        raise NonFiniteResidual(
            f"the residuals after {trees} of {hyper.n_trees} trees (learning_rate"
            f" {hyper.learning_rate}) overflow: n * sum(r**2) is not finite"
        )
    return float(np.sqrt(mean_square))


@np.errstate(over="ignore")  # an overflowing fit is raised, not warned about
def gbrt_train(X, y, hyper: GBRTHyper = GBRTHyper()) -> GBRTModel:
    """Stagewise least-squares boosting; each tree fits current residuals."""
    X = as_array(X, "X")
    y = as_array(y, "y")
    if X.ndim != 2 or y.ndim != 1:
        raise LengthMismatch(
            f"X must be a (rows x features) matrix and y a vector, got shapes {X.shape} and {y.shape}"
        )
    if len(X) != len(y):
        raise LengthMismatch(f"X has {len(X)} rows but y has {len(y)} entries")
    if len(y) < 2:
        raise EmptyTrainingSet(f"need at least 2 training samples, got {len(y)}")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise NonFiniteFeature("training data contains non-finite values")

    cache = _NodeCache(np.ascontiguousarray(X.T), hyper.max_depth, hyper.min_leaf)
    init = float(np.mean(y))
    pred = np.full(len(y), init)
    residual = y - pred
    trees: List[List[tuple]] = []
    rmse = [_rmse(residual, 0, hyper)]
    for t in range(1, hyper.n_trees + 1):
        tree, fitted = cache.fit_tree(residual)
        pred = pred + hyper.learning_rate * fitted
        residual = y - pred
        trees.append(tree)
        rmse.append(_rmse(residual, t, hyper))
    return GBRTModel(
        init_value=init,
        learning_rate=hyper.learning_rate,
        n_features=X.shape[1],
        nodes=np.array([row for tree in trees for row in tree], dtype=NODE),
        sizes=np.array([len(tree) for tree in trees], dtype=np.int64),
        train_rmse=rmse,
    )


def gbrt_predict(model: GBRTModel, X) -> np.ndarray:
    X = as_array(X, "X")
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise FeatureCountMismatch(
            f"model expects {model.n_features} features, got {X.shape[1] if X.ndim == 2 else 'non-matrix'}"
        )
    if not np.all(np.isfinite(X)):
        raise NonFiniteFeature("prediction features contain non-finite values")
    out = np.full(len(X), model.init_value)
    if len(model.sizes):
        for contribution in model.learning_rate * _leaf_values(model, X):
            out = out + contribution
    return out


@np.errstate(over="ignore")  # an RMSE or MAPE past float64 is inf, not a warning
def evaluate(y, y_hat) -> Dict[str, float]:
    """RMSE in cycles and MAPE in percent. A ``y`` or ``y_hat`` holding NaN or
    an infinity is NonFiniteInput naming it."""
    y = as_array(y, "y", vector=True)
    y_hat = as_array(y_hat, "y_hat", vector=True)
    if y.shape != y_hat.shape or len(y) < 1:
        raise LengthMismatch(f"{y.shape} vs {y_hat.shape}")
    check_finite(y, "y")
    check_finite(y_hat, "y_hat")
    if np.any(y == 0.0):
        raise ZeroTrueValue("MAPE undefined: a true value is zero")
    rmse = float(np.sqrt(np.mean((y - y_hat) ** 2)))
    mape = float(np.mean(np.abs((y - y_hat) / y)) * 100.0)
    return {"rmse": rmse, "mape": mape}


def sensitivity_sweep(
    cells: Dict[str, Dict[int, CycleRecord]],
    labels: Sequence[float],
    budgets: Sequence[int] = range(15, 36),
    repeats: int = 5,
    seed: int = 42,
    hyper: GBRTHyper = GBRTHyper(),
) -> List[Dict[str, float]]:
    """Mean test RMSE/MAPE per cycle budget over repeated stratified splits.

    ``labels`` holds the onsets in the key order of ``cells``. The
    capacity-difference late anchor and the maximum-capacity window both
    follow the budget. Split r of a budget is ``stratified_split``'s default
    80/20 split with seed ``seed + r``, so the whole table is deterministic.
    ``repeats`` must be an int >= 1, ``seed`` an int >= 0, every budget pass
    ``check_budget`` and every label be a finite real > 0 (through
    ``check_test_split``), before any feature is computed; else InputError.
    """
    if len(cells) != len(labels):
        raise LengthMismatch(f"{len(cells)} cells vs {len(labels)} labels")
    repeats = check_count(repeats, "repeats", 1)
    seed = check_count(seed, "seed", 0)
    budgets = [check_budget(budget) for budget in budgets]
    if not budgets:
        raise InputError("no cycle budgets to sweep")
    check_test_split(labels)
    y = np.asarray(labels, dtype=np.float64)
    splits = [stratified_split(y, seed=seed + r) for r in range(repeats)]
    table = []
    for budget in budgets:
        X = feature_matrix(cells, budget)
        rmses, mapes = [], []
        for train_idx, test_idx in splits:
            model = gbrt_train(X[train_idx], y[train_idx], hyper)
            scores = evaluate(y[test_idx], gbrt_predict(model, X[test_idx]))
            rmses.append(scores["rmse"])
            mapes.append(scores["mape"])
        table.append({"budget": float(budget), "mean_rmse": float(np.mean(rmses)),
                      "mean_mape": float(np.mean(mapes))})
    return table
