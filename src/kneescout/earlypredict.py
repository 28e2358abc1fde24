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
from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List, Sequence, Tuple, get_type_hints

import numpy as np

from .config import GBRTHyper
from .errors import (
    EmptyTrainingSet,
    FeatureCountMismatch,
    InputError,
    InvalidDischargeCurve,
    InvalidModel,
    LengthMismatch,
    MalformedRow,
    MissingCycle,
    NonFiniteFeature,
    NoVoltageOverlap,
    ZeroTrueValue,
)
from .ingest import cycle_column, parse_json, read_csv

CYCLE_DETAIL_HEADER = ("cycle", "voltage_v", "discharge_capacity_ah")
LABELS_HEADER = ("cell_id", "onset_cycle")
PREDICTIONS_HEADER = ("cell_id", "predicted_onset_cycle")
SENSITIVITY_HEADER = ("budget", "mean_rmse", "mean_mape")

# Knee-onset grading thresholds in cycles: early < 150, late > 270.
CLASS_EDGES = (150.0, 270.0)


@dataclass(frozen=True)
class CycleRecord:
    """One cycle's discharge curve: capacity vs strictly decreasing voltage."""

    cycle: int
    voltage_v: np.ndarray
    q_ah: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.voltage_v, dtype=np.float64)
        q = np.asarray(self.q_ah, dtype=np.float64)
        object.__setattr__(self, "voltage_v", v)
        object.__setattr__(self, "q_ah", q)
        if v.shape != q.shape:
            raise LengthMismatch(
                f"cycle {self.cycle}: {len(v)} voltages vs {len(q)} capacities"
            )
        if len(v) < 2:
            raise InvalidDischargeCurve(f"cycle {self.cycle}: need >= 2 samples")
        if np.any(np.diff(v) >= 0):
            raise InvalidDischargeCurve(
                f"cycle {self.cycle}: voltage must be strictly decreasing"
            )
        if np.any(np.diff(q) < -1e-12):
            raise InvalidDischargeCurve(
                f"cycle {self.cycle}: discharge capacity must be nondecreasing"
            )

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
        vals = self.as_array()
        if not np.all(np.isfinite(vals)):
            raise NonFiniteFeature(f"non-finite feature in {vals!r}")
        if self.var_dq < 0:
            raise NonFiniteFeature(f"negative variance {self.var_dq!r}")

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in FEATURE_NAMES])


FEATURE_NAMES = tuple(f.name for f in fields(FeatureVector))
FEATURES_HEADER = ("cell_id", *FEATURE_NAMES)


def load_cycle_detail_csv(path) -> Dict[int, CycleRecord]:
    """Read a ``cycle,voltage_v,discharge_capacity_ah`` CSV, grouped by cycle.

    The rows of one cycle must be contiguous.
    """
    _, values, lines = read_csv(path, CYCLE_DETAIL_HEADER)
    cycles = cycle_column(path, values[:, 0], lines)
    starts = np.flatnonzero(np.diff(cycles, prepend=cycles[:1] - 1))
    _, first = np.unique(cycles[starts], return_index=True)
    if len(first) < len(starts):
        k = starts[np.setdiff1d(np.arange(len(starts)), first)[0]]
        raise MalformedRow(
            f"{path}: line {lines[k]}: rows for cycle {cycles[k]} are not contiguous"
        )
    voltage, q = np.ascontiguousarray(values[:, 1:].T)
    return {
        int(cycles[a]): CycleRecord(cycle=int(cycles[a]), voltage_v=voltage[a:b], q_ah=q[a:b])
        for a, b in zip(starts, [*starts[1:], len(cycles)])
    }


def delta_q(
    records: Dict[int, CycleRecord],
    early: int = 10,
    late: int = 30,
) -> np.ndarray:
    """Q(V) difference (late - early) on a uniform 1000-point grid over the overlap."""
    for cyc in (early, late):
        if cyc not in records:
            raise MissingCycle(f"cycle {cyc} not present")
    r_e, r_l = records[early], records[late]
    lo = max(r_e.voltage_v.min(), r_l.voltage_v.min())
    hi = min(r_e.voltage_v.max(), r_l.voltage_v.max())
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

    A constant input has zero variance; skewness and kurtosis are zero by
    convention in that case.
    """
    mu = float(np.mean(x))
    dev = x - mu
    m2 = float(np.mean(dev * dev))
    if math.sqrt(m2) < 1e-12 * max(1.0, abs(mu)):
        return m2, 0.0, 0.0
    m3 = float(np.mean(dev**3))
    m4 = float(np.mean(dev**4))
    return m2, m3 / m2**1.5, m4 / m2**2


def extract_features(records: Dict[int, CycleRecord], budget: int = 30) -> FeatureVector:
    """Six-number feature vector from the first ``budget`` cycles."""
    if budget < 11:
        raise MissingCycle(f"budget {budget} < 11: capacity-difference anchor needs cycle 10")
    if 2 not in records:
        raise MissingCycle("cycle 2 not present")
    dq = delta_q(records, early=10, late=budget)
    var, skew, kurt = _moments(dq)
    q2 = records[2].total_capacity_ah
    q_max = max(
        rec.total_capacity_ah for cyc, rec in records.items() if cyc <= budget
    )
    return FeatureVector(
        min_dq=float(np.min(dq)),
        var_dq=var,
        skew_dq=skew,
        kurt_dq=kurt,
        q2=q2,
        q_max_minus_2=q_max - q2,
    )


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
    class with a single member goes to training.
    """
    labels = np.asarray(onset_labels, dtype=np.float64)
    if len(labels) < 1:
        raise EmptyTrainingSet("no samples to split")
    rng = np.random.default_rng(seed)
    train, test = [], []
    classes = np.array([onset_class(v) for v in labels])
    for cls in sorted(set(classes)):
        idx = np.nonzero(classes == cls)[0]
        perm = rng.permutation(len(idx))
        n_train = math.ceil(train_frac * len(idx))
        train.extend(idx[perm[:n_train]])
        test.extend(idx[perm[n_train:]])
    return np.array(sorted(train), dtype=np.int64), np.array(sorted(test), dtype=np.int64)


# --- boosted trees ----------------------------------------------------------

@dataclass(frozen=True)
class TreeNode:
    """Flat tree node; feature == -1 marks a leaf."""

    feature: int
    threshold: float
    left: int
    right: int
    value: float


# each TreeNode field and the type its JSON value is cast to
_NODE_CASTS = get_type_hints(TreeNode)


@dataclass(frozen=True)
class GBRTModel:
    init_value: float
    learning_rate: float
    n_features: int
    trees: List[List[TreeNode]]
    train_rmse: List[float] = field(default_factory=list, repr=False)

    def to_json(self) -> str:
        return json.dumps(
            {
                "init_value": self.init_value,
                "learning_rate": self.learning_rate,
                "n_features": self.n_features,
                "trees": [[asdict(n) for n in tree] for tree in self.trees],
            },
            indent=2,
            sort_keys=True,
        )

    @staticmethod
    def from_json(text: str) -> "GBRTModel":
        obj = parse_json(text, "model JSON", InvalidModel)
        try:
            trees = [
                [TreeNode(**{k: cast(n[k]) for k, cast in _NODE_CASTS.items()}) for n in tree]
                for tree in obj["trees"]
            ]
            model = GBRTModel(
                init_value=float(obj["init_value"]),
                learning_rate=float(obj["learning_rate"]),
                n_features=int(obj["n_features"]),
                trees=trees,
            )
        except KeyError as exc:
            raise InvalidModel(f"model JSON lacks field {exc.args[0]!r}") from None
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidModel(f"malformed model JSON: {exc}") from None
        # json reads the literals NaN and Infinity
        if not (math.isfinite(model.init_value) and math.isfinite(model.learning_rate)):
            raise InvalidModel(
                f"model JSON init_value {model.init_value} and learning_rate "
                f"{model.learning_rate} must be finite"
            )
        if model.n_features < 0:
            raise InvalidModel(f"model JSON n_features {model.n_features} is negative")
        for t, tree in enumerate(model.trees):
            _check_tree(t, tree, model.n_features)
        return model


def _check_tree(t: int, tree: List[TreeNode], n_features: int) -> None:
    """Raise ``InvalidModel`` unless every walk down tree ``t`` ends at a leaf.

    The tree is not empty; every threshold and value is finite; an inner
    node splits on a feature in ``[0, n_features)`` and both its children
    come after it and inside the tree; a leaf has feature -1 and children -1.
    """
    if not tree:
        raise InvalidModel(f"model JSON tree {t} is empty")
    for i, node in enumerate(tree):
        where = f"model JSON tree {t} node {i}"
        if not (math.isfinite(node.threshold) and math.isfinite(node.value)):
            raise InvalidModel(
                f"{where}: threshold {node.threshold} and value {node.value} must be finite"
            )
        if node.feature == -1:
            if node.left != -1 or node.right != -1:
                raise InvalidModel(f"{where}: a leaf's children must be -1")
        elif not 0 <= node.feature < n_features:
            raise InvalidModel(
                f"{where}: feature {node.feature} is outside [0, {n_features})"
            )
        elif not (i < node.left < len(tree) and i < node.right < len(tree)):
            raise InvalidModel(
                f"{where}: children {node.left}, {node.right} must come after "
                f"it and inside the tree's {len(tree)} nodes"
            )


def _split_sse(c1, c2, tot1, tot2, nl, nr):
    """SSE of splitting a sorted node after its first ``nl`` rows."""
    return (c2 - c1 ** 2 / nl) + ((tot2 - c2) - (tot1 - c1) ** 2 / nr)


def _threshold(lower, upper) -> float:
    """The midpoint of two adjacent distinct values, or ``lower`` where it fails.

    Between adjacent floats the midpoint can round up to ``upper``, and for
    huge values it can overflow to +-inf; either would send every row to
    one side. ``lower`` splits the two values apart under ``x <= thr``.
    """
    lower, upper = float(lower), float(upper)  # Python floats overflow silently
    mid = (lower + upper) / 2.0
    return mid if lower <= mid < upper else lower


def _best_split(Xt, r, order, min_leaf):
    """Greedy variance-reduction split of the node whose rows ``order`` holds.

    ``order[f]`` lists the node's rows sorted by feature ``f``. Every
    candidate of every feature is scored in one ``(features x thresholds)``
    table, and the first minimum in feature-major order wins: ties break
    toward the lower feature index, then the lower threshold (strict
    improvement required). Returns (feature, threshold) or None.

    NumPy squares an array with a multiply but a scalar with libm ``pow``,
    and the two may differ by one ulp. Every term of the SSE is at most the
    node's total sum of squares, so scores within ``tie`` of the minimum
    are re-scored from scalars, the arithmetic the split is defined by.
    """
    n = order.shape[1]
    v = Xt[np.arange(len(order))[:, None], order]
    rs = r[order]
    c1 = rs.cumsum(axis=1)
    c2 = (rs * rs).cumsum(axis=1)
    lo, hi = min_leaf - 1, n - min_leaf
    nl = np.arange(lo + 1, hi + 1, dtype=np.float64)
    sse = _split_sse(c1[:, lo:hi], c2[:, lo:hi], c1[:, -1:], c2[:, -1:], nl, n - nl)
    sse[v[:, lo:hi] == v[:, lo + 1:hi + 1]] = np.inf
    best_sse = sse.min()
    if best_sse == np.inf:
        return None
    tie = 64 * np.finfo(np.float64).eps * c2[:, -1].max()
    best = None
    for f, j in zip(*np.unravel_index(np.flatnonzero(sse <= best_sse + tie), sse.shape)):
        k = lo + int(j)
        score = _split_sse(c1[f, k], c2[f, k], c1[f, -1], c2[f, -1], k + 1, n - k - 1)
        if best is None or score < best[2]:
            best = (int(f), _threshold(v[f, k], v[f, k + 1]), score)
    return best[:2]


def _fit_tree(Xt, order, r, max_depth, min_leaf) -> Tuple[List[TreeNode], np.ndarray]:
    """Grow one tree on residuals ``r``; return it and its value at each row.

    ``order`` is the per-feature stable sort of all rows. A child keeps the
    parent's order filtered to its own rows, which equals a stable sort of
    the child alone, so no node sorts.
    """
    nodes: List[TreeNode] = []
    fitted = np.empty(len(r))

    def build(rows, order, depth) -> int:
        pos = len(nodes)
        split = None
        if depth < max_depth and len(rows) >= 2 * min_leaf:
            split = _best_split(Xt, r, order, min_leaf)
        if split is None:
            value = float(r[rows].sum() / len(rows))  # np.mean's arithmetic
            nodes.append(TreeNode(-1, 0.0, -1, -1, value))
            fitted[rows] = value
            return pos
        f, thr = split
        nodes.append(TreeNode(f, thr, -1, -1, 0.0))
        goes_left = Xt[f] <= thr
        row_left, order_left = goes_left[rows], goes_left[order]
        left = build(rows[row_left], order[order_left].reshape(len(order), -1), depth + 1)
        right = build(rows[~row_left], order[~order_left].reshape(len(order), -1), depth + 1)
        nodes[pos] = TreeNode(f, thr, left, right, 0.0)
        return pos

    build(np.arange(len(r)), order, 0)
    return nodes, fitted


def _leaf_values(trees: List[List[TreeNode]], X) -> np.ndarray:
    """Leaf value of every tree at every row of ``X``, shape (trees, rows)."""
    sizes = [len(tree) for tree in trees]
    starts = np.cumsum([0] + sizes[:-1])
    base = np.repeat(starts, sizes)
    flat = [node for tree in trees for node in tree]
    feature = np.array([node.feature for node in flat])
    threshold = np.array([node.threshold for node in flat], dtype=np.float64)
    left = np.array([node.left for node in flat]) + base
    right = np.array([node.right for node in flat]) + base
    value = np.array([node.value for node in flat], dtype=np.float64)

    pos = np.repeat(starts[:, None], len(X), axis=1)
    rows = np.arange(len(X))
    while True:
        f = feature[pos]
        inner = f >= 0
        if not inner.any():
            return value[pos]
        goes_left = X[rows, np.where(inner, f, 0)] <= threshold[pos]
        pos = np.where(inner, np.where(goes_left, left[pos], right[pos]), pos)


def gbrt_train(X, y, hyper: GBRTHyper = GBRTHyper()) -> GBRTModel:
    """Stagewise least-squares boosting; each tree fits current residuals."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or len(X) != len(y):
        raise LengthMismatch(f"X has {len(X)} rows but y has {len(y)} entries")
    if len(y) < 2:
        raise EmptyTrainingSet(f"need at least 2 training samples, got {len(y)}")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise NonFiniteFeature("training data contains non-finite values")

    Xt = np.ascontiguousarray(X.T)
    order = np.argsort(Xt, axis=1, kind="stable")
    init = float(np.mean(y))
    pred = np.full(len(y), init)
    trees: List[List[TreeNode]] = []
    rmse = [float(np.sqrt(np.mean((y - pred) ** 2)))]
    for _ in range(hyper.n_trees):
        residual = y - pred
        tree, fitted = _fit_tree(Xt, order, residual, hyper.max_depth, hyper.min_leaf)
        pred = pred + hyper.learning_rate * fitted
        trees.append(tree)
        rmse.append(float(np.sqrt(np.mean((y - pred) ** 2))))
    return GBRTModel(
        init_value=init,
        learning_rate=hyper.learning_rate,
        n_features=X.shape[1],
        trees=trees,
        train_rmse=rmse,
    )


def gbrt_predict(model: GBRTModel, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise FeatureCountMismatch(
            f"model expects {model.n_features} features, got {X.shape[1] if X.ndim == 2 else 'non-matrix'}"
        )
    if not np.all(np.isfinite(X)):
        raise NonFiniteFeature("prediction features contain non-finite values")
    out = np.full(len(X), model.init_value)
    if model.trees:
        for contribution in model.learning_rate * _leaf_values(model.trees, X):
            out = out + contribution
    return out


def evaluate(y, y_hat) -> Dict[str, float]:
    """RMSE in cycles and MAPE in percent."""
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    if y.shape != y_hat.shape or len(y) < 1:
        raise LengthMismatch(f"{y.shape} vs {y_hat.shape}")
    if np.any(y == 0.0):
        raise ZeroTrueValue("MAPE undefined: a true value is zero")
    rmse = float(np.sqrt(np.mean((y - y_hat) ** 2)))
    mape = float(np.mean(np.abs((y - y_hat) / y)) * 100.0)
    return {"rmse": rmse, "mape": mape}


def sensitivity_sweep(
    cells: List[Dict[int, CycleRecord]],
    labels: Sequence[float],
    budgets: Sequence[int] = range(15, 36),
    repeats: int = 5,
    seed: int = 42,
    hyper: GBRTHyper = GBRTHyper(),
) -> List[Dict[str, float]]:
    """Mean test RMSE/MAPE per cycle budget over repeated stratified splits.

    The capacity-difference late anchor and the maximum-capacity window both
    follow the budget. Split r of a budget is ``stratified_split``'s default
    80/20 split with seed ``seed + r``, so the whole table is deterministic.
    """
    if len(cells) != len(labels):
        raise LengthMismatch(f"{len(cells)} cells vs {len(labels)} labels")
    if repeats < 1:
        raise InputError(f"repeats must be >= 1, got {repeats}")
    if len(budgets) == 0:
        raise InputError("no cycle budgets to sweep")
    y = np.asarray(labels, dtype=np.float64)
    table = []
    for budget in budgets:
        X = np.vstack([extract_features(rec, budget=budget).as_array() for rec in cells])
        rmses, mapes = [], []
        for r in range(repeats):
            train_idx, test_idx = stratified_split(y, seed=seed + r)
            if len(test_idx) == 0:
                raise EmptyTrainingSet("stratified split produced an empty test set")
            model = gbrt_train(X[train_idx], y[train_idx], hyper)
            scores = evaluate(y[test_idx], gbrt_predict(model, X[test_idx]))
            rmses.append(scores["rmse"])
            mapes.append(scores["mape"])
        table.append(
            {
                "budget": float(budget),
                "mean_rmse": float(np.mean(rmses)),
                "mean_mape": float(np.mean(mapes)),
            }
        )
    return table
