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
from functools import partial
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
# Initial x0 and x2 as fractions of the observed cycle range.
INIT_X0_FRAC = 0.7
INIT_X2_FRAC = 0.9


@dataclass(frozen=True)
class DBWParams:
    alpha0: float
    alpha1: float
    alpha2: float
    alpha3: float
    x0: float
    x2: float
    gamma: float

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
    d0 = x - p.x0
    d2 = x - p.x2
    return (
        p.alpha0 + p.alpha1 * d0 + p.alpha2 * d0 * np.tanh(d0 / p.gamma)
        + p.alpha3 * d2 * np.tanh(d2 / p.gamma)
    )


def lm_optimize(
    residuals: Callable[[np.ndarray], np.ndarray],
    init: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 1000,
    *,
    jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> LMResult:
    """Damped Gauss-Newton least squares with a central-difference Jacobian.

    The damping factor starts at 1e-3, multiplies diag(J^T J) (Marquardt
    scaling, which keeps badly scaled parameters workable) and adapts
    multiplicatively: x10 on a rejected step, /10 on an accepted one.
    Convergence requires both the relative step size and the relative cost
    decrease to fall below ``tol``. Hitting ``max_iter`` returns
    converged=False rather than raising, so callers can inspect the partial
    result.

    ``jacobian(p)`` returns the C-ordered ``(n, m)`` Jacobian of
    ``residuals`` at ``p``; the LM iterates depend on its bits. By default
    it is ``_central_jacobian``'s column-by-column central difference.
    """
    if jacobian is None:
        jacobian = partial(_central_jacobian, residuals)

    p = np.asarray(init, dtype=np.float64).copy()
    r = np.asarray(residuals(p), dtype=np.float64)
    if not np.all(np.isfinite(r)):
        raise NonFiniteResidual("residuals are not finite at the initial point")

    cost = float(r @ r)
    lam = 1e-3
    history = [cost]
    n_iter = 0
    converged = False

    for n_iter in range(1, max_iter + 1):
        J = jacobian(p)
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


def _steps(p):
    """Central-difference steps h_k = 1e-6 * max(|p[k]|, 1)."""
    return 1e-6 * np.maximum(np.abs(p), 1.0)


def _central_jacobian(residuals, p):
    """Central differences, one pair of residual calls per parameter.

    Column k is ``(residuals(p + h_k e_k) - residuals(p - h_k e_k)) / (2 h_k)``
    in a C-ordered ``(n, m)`` J.
    """
    h = _steps(p)
    columns = []
    for k, h_k in enumerate(h):
        up, down = p.copy(), p.copy()
        up[k] += h_k
        down[k] -= h_k
        columns.append(
            (np.asarray(residuals(up), dtype=np.float64)
             - np.asarray(residuals(down), dtype=np.float64)) / (2.0 * h_k)
        )
    return np.column_stack(columns)


def _dbw_residuals(x, y, gamma):
    """Residuals of the model against ``y`` and their central-difference Jacobian.

    ``residuals`` goes through ``dbw_model``, which also rejects a
    non-positive gamma. ``jacobian`` gives ``_central_jacobian``'s bits
    without calling it: it computes ``x - x0``, ``x - x2`` and their tanh
    once at each of their three values (base, moved up, moved down) and
    each subterm once at the base, then writes the 12 perturbed residuals
    ``((a0 + T1) + T2) + T3 - y``, the operation order of ``dbw_model``,
    into one ``(2, 6, n)`` array: up then down, one row per moved parameter.
    """

    def residuals(free):
        return dbw_model(x, DBWParams.from_array(free, gamma)) - y

    def jacobian(free):
        a0, a1, a2, a3, x0, x2 = free
        h = _steps(free)
        up, down = free + h, free - h
        d0 = x - np.array([[x0], [up[4]], [down[4]]])
        d2 = x - np.array([[x2], [up[5]], [down[5]]])
        tanh0 = np.tanh(d0 / gamma)
        tanh2 = np.tanh(d2 / gamma)
        t1 = a1 * d0[0]
        t2 = a2 * d0[0] * tanh0[0]
        t3 = a3 * d2[0] * tanh2[0]
        a0_t1 = a0 + t1
        a0_t12 = a0_t1 + t2
        moved = np.stack([up, down])[:, :, None]  # moved[:, k]: p[k] up and down

        r = np.empty((2, 6, len(x)))
        r[:, 0] = moved[:, 0] + t1 + t2 + t3
        r[:, 1] = a0 + moved[:, 1] * d0[0] + t2 + t3
        r[:, 2] = a0_t1 + moved[:, 2] * d0[0] * tanh0[0] + t3
        r[:, 3] = a0_t12 + moved[:, 3] * d2[0] * tanh2[0]
        r[:, 4] = a0 + a1 * d0[1:] + a2 * d0[1:] * tanh0[1:] + t3
        r[:, 5] = a0_t12 + a3 * d2[1:] * tanh2[1:]
        r -= y
        J = np.empty((len(x), 6))
        np.divide(r[0] - r[1], 2.0 * h[:, None], out=J.T)
        return J

    return residuals, jacobian


def fit_dbw(
    series: CapacityFadeSeries,
    gamma: float = 10.0,
    max_iter: int = 1000,
) -> BaconWattsFit:
    """Fit the double Bacon-Watts model to raw capacity in Ah.

    Initial values: alpha0 = 1 Ah, alpha1 = alpha2 = alpha3 = -1e-4
    Ah/cycle, x0 at 70% and x2 at 90% of the observed cycle range. The
    reported onset/knee are order-normalized, so swapping the two
    transition initializations changes nothing downstream. The fit runs
    ``lm_optimize`` at its default tolerance.
    """
    if len(series) < 10:
        raise TooShort(f"double Bacon-Watts fit needs >= 10 points, got {len(series)}")
    x = series.cycles.astype(np.float64)
    y = series.capacity_ah
    span = x[-1] - x[0]
    init = np.array(
        [1.0, INIT_SLOPE, INIT_SLOPE, INIT_SLOPE,
         x[0] + INIT_X0_FRAC * span, x[0] + INIT_X2_FRAC * span]
    )

    residuals, jacobian = _dbw_residuals(x, y, gamma)
    result = lm_optimize(residuals, init, max_iter=max_iter, jacobian=jacobian)
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
    """KneeReport from the double Bacon-Watts baseline, with EoL attached.

    ``transitions_identifiable`` is 1.0 when at least one tanh term has a
    slope change above 1% of the base slope and both x0 and x2 lie within
    the fitted series' first-to-last cycle range; the reported cycles are
    the rounded x0 and x2 either way.
    """
    resampled, _, _, eol = prepare(series, params)
    fit = fit_dbw(resampled, gamma=params.gamma, max_iter=params.max_iter)
    onset, knee = transition_cycles(fit)

    slope_scale = max(abs(fit.params.alpha1), 1e-12)
    first, last = resampled.cycles[0], resampled.cycles[-1]
    identifiable = (
        abs(fit.params.alpha2) > 0.01 * slope_scale
        or abs(fit.params.alpha3) > 0.01 * slope_scale
    ) and all(first <= v <= last for v in (fit.params.x0, fit.params.x2))
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
