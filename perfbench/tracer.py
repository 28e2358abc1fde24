"""In-memory span tracer that wraps kneescout's public functions.

Each function is wrapped in the module where its caller looks it up
(``kneescout.segmentation.stamp``, not ``kneescout.matrixprofile.stamp``),
so the program runs unchanged and every call through that name is recorded.
A span is ``[name, start, end, parent, op]``: ``parent`` is the index of the
enclosing span or -1, and ``op`` is the operation id the benchmark set
before the call. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from contextlib import contextmanager


def _rows_cycle_detail(result):
    return sum(len(rec.q_ah) for rec in result.values())


def _count_stamp(counts, result):
    n = len(result.P)
    counts["matrixprofile.pairs"] += n * n


def _count_fit(counts, result):
    counts["baconwatts.lm_iterations"] += result.iterations
    counts["baconwatts.unconverged"] += 0 if result.converged else 1


def _count_nodes(counts, result):
    counts["earlypredict.nodes"] += sum(len(tree) for tree in result.trees)


def _count_rows(rows_of):
    def count(counts, result):
        counts["ingest.rows"] += rows_of(result)

    return count


# (module, attribute, span name, counter). A span name of None counts calls
# only: dbw_model runs ~600 times per fit, too often for a span each.
TARGETS = (
    ("kneescout", "load_capacity_csv", "ingest.load", _count_rows(len)),
    ("kneescout", "load_cycle_detail_csv", "ingest.load", _count_rows(_rows_cycle_detail)),
    ("kneescout", "identify_knees", "segmentation.identify", None),
    ("kneescout.segmentation", "resample_even", "ingest.prep", None),
    ("kneescout.segmentation", "normalize", "ingest.prep", None),
    ("kneescout.segmentation", "find_eol", "ingest.prep", None),
    ("kneescout.segmentation", "savgol_smooth", "preprocess.smooth", None),
    ("kneescout.segmentation", "approximate_curvature", "preprocess.curvature", None),
    ("kneescout.segmentation", "stamp", "matrixprofile.stamp", _count_stamp),
    ("kneescout.segmentation", "compute_arc_curves", "segmentation.arc", None),
    ("kneescout.segmentation", "rea", "segmentation.rea", None),
    ("kneescout", "dbw_knee_report", "baconwatts.report", None),
    ("kneescout.baconwatts", "resample_even", "ingest.prep", None),
    ("kneescout.baconwatts", "normalize", "ingest.prep", None),
    ("kneescout.baconwatts", "find_eol", "ingest.prep", None),
    ("kneescout.baconwatts", "savgol_smooth", "preprocess.smooth", None),
    ("kneescout.baconwatts", "fit_dbw", "baconwatts.fit", _count_fit),
    ("kneescout.baconwatts", "dbw_model", None, None),
    ("kneescout", "extract_features", "earlypredict.features", None),
    ("kneescout", "stratified_split", "earlypredict.split", None),
    ("kneescout", "gbrt_train", "earlypredict.train", _count_nodes),
    ("kneescout", "gbrt_predict", "earlypredict.predict", None),
    ("kneescout", "evaluate", "earlypredict.evaluate", None),
    ("kneescout", "pearson", "report.pearson", None),
    ("kneescout.report", "format_batch_csv", "report.format", None),
)

CALL_COUNTS = {("kneescout.baconwatts", "dbw_model"): "baconwatts.model_evals"}


class MissingTarget(RuntimeError):
    """A wrapped name no longer exists in the module that looks it up."""


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = None
        self._stack = []
        self._saved = []

    def install(self):
        """Wrap every target; raise MissingTarget before wrapping any if one is gone."""
        resolved = []
        for module_name, attr, span_name, counter in TARGETS:
            module = importlib.import_module(module_name)
            if not callable(getattr(module, attr, None)):
                raise MissingTarget(f"{module_name}.{attr} no longer exists")
            resolved.append((module, attr, span_name, counter))
        for module, attr, span_name, counter in resolved:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            if span_name is None:
                wrapped = self._counting(fn, CALL_COUNTS[(module.__name__, attr)])
            else:
                wrapped = self._spanning(fn, span_name, counter)
            setattr(module, attr, wrapped)

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.op])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _spanning(self, fn, name, counter):
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                counter(self.counts, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counting(self, fn, key):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper
