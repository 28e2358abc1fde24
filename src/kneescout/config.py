"""Dataclass configuration shared by the pipeline and the CLI."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidHyperparameter
from .ingest import (as_number, check_fraction, check_gamma, check_max_iter,
                     check_nonnegative)
from .matrixprofile import check_length
from .preprocess import check_order, check_window


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

    Each field is checked, in field order, by the owner of its rule, the
    function that its stage calls too (README "Parameters"), and stored as
    the ``int`` or ``float`` that it returns. ``prepare`` clips ``sg_window``
    to the curve length. ``cac_window`` is the window of the one matrix
    profile that segmentation runs on; 0 selects one fifth of the curvature
    length. ``exclusion_radius`` is the REA masking half-width in cycles and
    the edge band excluded from boundary selection.
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
        sg_window = check_window(self.sg_window, "sg_window")
        checked = {
            "sg_window": sg_window,
            "sg_order": check_order(self.sg_order, sg_window, "sg_order", "sg_window"),
            "curv_window": check_window(self.curv_window, "curv_window"),
            "cac_window": check_length(self.cac_window, "cac_window", allow_zero=True),
            "exclusion_radius": check_nonnegative(self.exclusion_radius, "exclusion_radius"),
            "eol_threshold": check_fraction(self.eol_threshold, "eol_threshold"),
            "gamma": check_gamma(self.gamma),
            "max_iter": check_max_iter(self.max_iter),
        }
        for name, value in checked.items():
            object.__setattr__(self, name, value)


DEFAULT_PARAMS = PipelineParams()
