"""Double Bacon-Watts baseline fitted with Levenberg-Marquardt.

The model has two tanh transitions whose abscissas estimate knee onset and
knee:

    Y = a0 + a1*(x - x0) + a2*(x - x0)*tanh((x - x0)/g)
           + a3*(x - x2)*tanh((x - x2)/g)

``g`` (gamma) sets the abruptness of both transitions and is held fixed
during optimization; the six remaining parameters are fitted to raw
capacity in Ah. The reported onset is min(x0, x2) and the knee max(x0, x2),
each rounded to the nearest cycle with ties toward the later cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from .config import PipelineParams, DEFAULT_PARAMS
from .errors import (
    FitDiverged,
    NonFiniteResidual,
    SingularNormalEquations,
    TooShort,
)
# find_eol, normalize, resample_even, savgol_smooth: unused, kept for perfbench's tracer
from .ingest import CapacityFadeSeries, find_eol, normalize, resample_even  # noqa: F401
from .preprocess import savgol_smooth  # noqa: F401
from .segmentation import KneeReport, prepare

# Initial slopes for the transition terms, in Ah/cycle.
INIT_SLOPE = -1e-4


@dataclass(frozen=True)
class DBWParams:
    alpha0: float
    alpha1: float
    alpha2: float
    alpha3: float
    x0: float
    x2: float
    gamma: float

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.alpha0, self.alpha1, self.alpha2, self.alpha3, self.x0, self.x2]
        )

    @staticmethod
    def from_array(free: np.ndarray, gamma: float) -> "DBWParams":
        a0, a1, a2, a3, x0, x2 = (float(v) for v in free)
        return DBWParams(a0, a1, a2, a3, x0, x2, gamma)


@dataclass(frozen=True)
class BaconWattsFit:
    params: DBWParams
    residual_norm: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class LMResult:
    params: np.ndarray
    residual_norm: float
    iterations: int
    converged: bool
    cost_history: List[float] = field(default_factory=list)


def dbw_model(x, p: DBWParams):
    """Evaluate the double Bacon-Watts expression."""
    if p.gamma <= 0:
        raise FitDiverged(f"gamma must be positive, got {p.gamma}")
    x = np.asarray(x, dtype=np.float64)
    return _dbw_rows(
        x, p.alpha0, p.alpha1, p.alpha2, p.alpha3, p.x0, p.x2, p.gamma
    )


def _dbw_rows(x, a0, a1, a2, a3, x0, x2, gamma):
    """The model expression, shared by single and stacked evaluations.

    Each parameter is a scalar or a ``(rows, 1)`` column broadcast against
    the abscissas ``x``. Either way every element sees the same operations
    in the same order, so a stacked row is bit-identical to a single
    evaluation with that row's parameters.
    """
    d0 = x - x0
    d2 = x - x2
    return a0 + a1 * d0 + a2 * d0 * np.tanh(d0 / gamma) + a3 * d2 * np.tanh(d2 / gamma)


def lm_optimize(
    residuals: Callable[[np.ndarray], np.ndarray],
    init: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 1000,
    lambda0: float = 1e-3,
    *,
    stacked_residuals: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> LMResult:
    """Damped Gauss-Newton least squares with a central-difference Jacobian.

    The damping factor multiplies diag(J^T J) (Marquardt scaling, which
    keeps badly scaled parameters workable) and adapts multiplicatively:
    x10 on a rejected step, /10 on an accepted one. Convergence requires
    both the relative step size and the relative cost decrease to fall
    below ``tol``. Hitting ``max_iter`` returns converged=False rather
    than raising, so callers can inspect the partial result.

    ``stacked_residuals`` maps a ``(k, m)`` stack of parameter vectors to
    the ``(k, n)`` stack of their residuals; it must give the same bits as
    ``residuals`` row by row. It serves the Jacobian's 2m perturbed points
    in one call. By default it calls ``residuals`` once per row.
    """
    if stacked_residuals is None:
        def stacked_residuals(rows):
            return np.stack([np.asarray(residuals(q), dtype=np.float64) for q in rows])

    p = np.asarray(init, dtype=np.float64).copy()
    r = np.asarray(residuals(p), dtype=np.float64)
    if not np.all(np.isfinite(r)):
        raise NonFiniteResidual("residuals are not finite at the initial point")

    cost = float(r @ r)
    lam = lambda0
    history = [cost]
    n_iter = 0
    converged = False

    for n_iter in range(1, max_iter + 1):
        J = _central_jacobian(stacked_residuals, p)
        JtJ = J.T @ J
        Jtr = J.T @ r
        diag = np.diag(JtJ).copy()
        diag[diag <= 0.0] = 1e-12

        step = None
        while True:
            try:
                step = np.linalg.solve(JtJ + lam * np.diag(diag), -Jtr)
            except np.linalg.LinAlgError:
                step = None
            if step is not None and np.all(np.isfinite(step)):
                trial = p + step
                r_trial = np.asarray(residuals(trial), dtype=np.float64)
                if np.all(np.isfinite(r_trial)):
                    cost_trial = float(r_trial @ r_trial)
                    if cost_trial <= cost:
                        break
            lam *= 10.0
            if lam > 1e12:
                raise SingularNormalEquations(
                    "no descent step found even at maximal damping"
                )

        rel_step = np.max(np.abs(step) / np.maximum(np.abs(p), 1.0))
        rel_decrease = (cost - cost_trial) / max(cost, 1e-300)
        p, r, cost = trial, r_trial, cost_trial
        history.append(cost)
        lam = max(lam / 10.0, 1e-12)
        if rel_step < tol and rel_decrease < tol:
            converged = True
            break

    return LMResult(
        params=p,
        residual_norm=math.sqrt(cost),
        iterations=n_iter,
        converged=converged,
        cost_history=history,
    )


def _central_jacobian(stacked_residuals, p):
    """Central differences, all 2m perturbed points in one stacked call.

    Row k of the stack is p with h_k added to p[k] and row m + k is p with
    h_k subtracted, h_k = 1e-6 * max(|p[k]|, 1). J is C-ordered (n, m), the
    layout whose ``J.T @ J`` summation order the LM iterates depend on.
    """
    m = len(p)
    h = 1e-6 * np.maximum(np.abs(p), 1.0)
    rows = np.tile(p, (2 * m, 1))
    k = np.arange(m)
    rows[k, k] += h
    rows[m + k, k] -= h
    r = stacked_residuals(rows)
    J = np.empty((r.shape[1], m))
    np.divide(r[:m] - r[m:], (2.0 * h)[:, None], out=J.T)
    return J


def _dbw_residuals(x, y, gamma):
    """Residuals of the model against ``y``, at one and at a stack of free vectors.

    A single evaluation goes through ``dbw_model``, which also rejects a
    non-positive gamma; the stack goes straight to ``_dbw_rows``.
    """

    def residuals(free):
        return dbw_model(x, DBWParams.from_array(free, gamma)) - y

    def stacked_residuals(rows):
        columns = (rows[:, k, None] for k in range(rows.shape[1]))
        return _dbw_rows(x, *columns, gamma) - y

    return residuals, stacked_residuals


def fit_dbw(
    series: CapacityFadeSeries,
    gamma: float = 10.0,
    tol: float = 1e-10,
    max_iter: int = 1000,
    x0_frac: float = 0.7,
    x2_frac: float = 0.9,
) -> BaconWattsFit:
    """Fit the double Bacon-Watts model to raw capacity in Ah.

    Initial values: alpha0 = 1 Ah, alpha1 = alpha2 = alpha3 = -1e-4
    Ah/cycle, x0 at 70% and x2 at 90% of the observed cycle range. The
    reported onset/knee are order-normalized, so swapping the two
    transition initializations changes nothing downstream.
    """
    if len(series) < 10:
        raise TooShort(f"double Bacon-Watts fit needs >= 10 points, got {len(series)}")
    x = series.cycles.astype(np.float64)
    y = series.capacity_ah
    span = x[-1] - x[0]
    init = np.array(
        [1.0, INIT_SLOPE, INIT_SLOPE, INIT_SLOPE,
         x[0] + x0_frac * span, x[0] + x2_frac * span]
    )

    residuals, stacked_residuals = _dbw_residuals(x, y, gamma)
    result = lm_optimize(
        residuals, init, tol=tol, max_iter=max_iter,
        stacked_residuals=stacked_residuals,
    )
    params = DBWParams.from_array(result.params, gamma)
    if not np.all(np.isfinite(result.params)):
        raise FitDiverged("fit produced non-finite parameters")
    return BaconWattsFit(
        params=params,
        residual_norm=result.residual_norm,
        iterations=result.iterations,
        converged=result.converged,
    )


def _round_half_up(v: float) -> int:
    return math.floor(v + 0.5)


def transition_cycles(fit: BaconWattsFit) -> tuple:
    """(onset, knee) = sorted transition abscissas rounded to cycles."""
    onset = _round_half_up(min(fit.params.x0, fit.params.x2))
    knee = _round_half_up(max(fit.params.x0, fit.params.x2))
    return onset, knee


def dbw_knee_report(
    series: CapacityFadeSeries, params: PipelineParams = DEFAULT_PARAMS
) -> KneeReport:
    """KneeReport from the double Bacon-Watts baseline, with EoL attached."""
    resampled, _, _, eol = prepare(series, params)
    fit = fit_dbw(resampled, gamma=params.gamma, max_iter=params.max_iter)
    onset, knee = transition_cycles(fit)

    slope_scale = max(abs(fit.params.alpha1), 1e-12)
    identifiable = (
        abs(fit.params.alpha2) > 0.01 * slope_scale
        or abs(fit.params.alpha3) > 0.01 * slope_scale
    )
    return KneeReport(
        cell_id=series.cell_id,
        onset_cycle=onset,
        knee_cycle=knee,
        eol_cycle=eol,
        method="double_bacon_watts",
        diagnostics={
            "residual_norm": fit.residual_norm,
            "iterations": float(fit.iterations),
            "converged": 1.0 if fit.converged else 0.0,
            "alpha2": fit.params.alpha2,
            "alpha3": fit.params.alpha3,
            "x0": fit.params.x0,
            "x2": fit.params.x2,
            "transitions_identifiable": 1.0 if identifiable else 0.0,
        },
    )
