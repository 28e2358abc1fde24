"""Dataclass configuration shared by the pipeline and the CLI."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidHyperparameter


@dataclass(frozen=True)
class GBRTHyper:
    """Hyperparameters of the boosted-tree knee-onset predictor.

    Zero trees is valid and gives a model that predicts the training mean.
    """

    n_trees: int = 300
    learning_rate: float = 0.05
    max_depth: int = 3
    min_leaf: int = 2

    def __post_init__(self):
        problems = [
            f"{name} must be >= {low}, got {value}"
            for name, value, low in (
                ("n_trees", self.n_trees, 0),
                ("max_depth", self.max_depth, 0),
                ("min_leaf", self.min_leaf, 1),
            )
            if value < low
        ]
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            problems.append(
                f"learning_rate must be finite and > 0, got {self.learning_rate}"
            )
        if problems:
            raise InvalidHyperparameter("; ".join(problems))


@dataclass(frozen=True)
class PipelineParams:
    """Knobs of the identification pipeline.

    ``curv_window`` defaults to 3 cycles. ``cac_window`` is the window of
    the one matrix profile that segmentation runs on, 3 cycles by default;
    0 selects one fifth of the curvature length, and a negative value is
    rejected.
    ``exclusion_radius`` is the REA masking half-width in cycles and also
    the width of the edge band excluded from boundary selection.
    """

    sg_window: int = 21
    sg_order: int = 3
    curv_window: int = 3
    cac_window: int = 3
    exclusion_radius: int = 15
    eol_threshold: float = 0.8
    gamma: float = 10.0
    max_iter: int = 1000


DEFAULT_PARAMS = PipelineParams()
