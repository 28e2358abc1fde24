"""Dataclass configuration shared by the pipeline and the CLI."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import (DegenerateWindow, EvenWindow, IndexOutOfRange, InputError,
                     InvalidHyperparameter, OrderTooHigh, WindowTooLarge)
from .ingest import as_number
from .preprocess import check_savgol_design


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
        for name, low in (("n_trees", 0), ("max_depth", 0), ("min_leaf", 1)):
            value = getattr(self, name)
            count = as_number(value, integral=True)
            if count is None:
                problems.append(f"{name} must be an int, got {value!r}")
            elif count < low:
                problems.append(f"{name} must be >= {low}, got {value}")
            else:
                object.__setattr__(self, name, count)
        rate = as_number(self.learning_rate)
        if rate is None:
            problems.append(f"learning_rate must be a real number, got {self.learning_rate!r}")
        elif not 0 < rate < math.inf:
            problems.append(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        else:
            object.__setattr__(self, "learning_rate", rate)
        if problems:
            raise InvalidHyperparameter("; ".join(problems))


@dataclass(frozen=True)
class PipelineParams:
    """Knobs of the identification pipeline, each checked on construction.

    - ``sg_window``, ``curv_window``: odd (else EvenWindow) and >= 3 (else
      WindowTooLarge). ``prepare`` clips ``sg_window`` to the curve length.
    - ``sg_order``: 0 <= ``sg_order`` < ``sg_window``, with a smoothing design
      matrix finite in float64 (``check_savgol_design``), else OrderTooHigh.
    - ``cac_window``: the window of the one matrix profile that segmentation
      runs on, >= 2; 0 selects one fifth of the curvature length. A negative
      value or 1 is DegenerateWindow.
    - ``exclusion_radius``: the REA masking half-width in cycles and the edge
      band excluded from boundary selection, >= 0, else IndexOutOfRange.
    - ``eol_threshold`` in (0, 1), ``gamma`` positive and finite, ``max_iter``
      >= 1: else InputError.

    Before any of these, each field must have its type under
    ``ingest.as_number``, else an InputError naming it: the ``int`` fields an
    integer that is not a bool (a NumPy integer is stored as int), the
    ``float`` fields a real number that is not a bool (stored as given, and
    range-checked as a float, so an int past float64 is infinite).
    """

    sg_window: int = 21
    sg_order: int = 3
    curv_window: int = 3
    cac_window: int = 3
    exclusion_radius: int = 15
    eol_threshold: float = 0.8
    gamma: float = 10.0
    max_iter: int = 1000

    def __post_init__(self):
        number = {}
        for f in fields(self):
            value = getattr(self, f.name)
            integral = f.type == "int"
            number[f.name] = as_number(value, integral)
            if number[f.name] is None:
                kind = "an int" if integral else "a real number"
                raise InputError(f"{f.name} must be {kind}, got {value!r}")
            if integral:
                object.__setattr__(self, f.name, number[f.name])
        for name in ("sg_window", "curv_window"):
            window = getattr(self, name)
            if window < 3:
                raise WindowTooLarge(f"{name} must be >= 3, got {window}")
            if window % 2 == 0:
                raise EvenWindow(f"{name} must be odd, got {window}")
        if not 0 <= self.sg_order < self.sg_window:
            raise OrderTooHigh(f"sg_order {self.sg_order} must satisfy"
                               f" 0 <= sg_order < sg_window {self.sg_window}")
        check_savgol_design(self.sg_window, self.sg_order)
        if self.cac_window < 0 or self.cac_window == 1:
            raise DegenerateWindow(f"cac_window must be 0 or >= 2, got {self.cac_window}")
        if self.exclusion_radius < 0:
            raise IndexOutOfRange(f"exclusion_radius must be >= 0, got {self.exclusion_radius}")
        if not 0 < number["eol_threshold"] < 1:
            raise InputError(f"eol_threshold: must be in (0, 1), got {self.eol_threshold}")
        if not 0 < number["gamma"] < math.inf:
            raise InputError(f"gamma: must be positive and finite, got {self.gamma}")
        if self.max_iter < 1:
            raise InputError(f"max_iter: must be >= 1, got {self.max_iter}")


DEFAULT_PARAMS = PipelineParams()
