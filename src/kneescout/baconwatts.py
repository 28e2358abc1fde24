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
    InputError,
    NonFiniteResidual,
    SingularNormalEquations,
    TooShort,
)
from .ingest import CapacityFadeSeries, check_gamma, check_max_iter, check_number
# find_eol, normalize, resample_even, savgol_smooth: unused, kept for perfbench's tracer
from .ingest import find_eol, normalize, resample_even  # noqa: F401
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
        a0, a1, a2, a3, x0, x2 = free.tolist()
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
    """Evaluate the double Bacon-Watts expression.

    With ``d0 = x - x0`` and ``d2 = x - x2`` the sum is grouped
    ``((a0 + a1*d0) + (a2*d0)*tanh(d0/g)) + (a3*d2)*tanh(d2/g)``. The
    temporaries are reused in place; a sum or product of two terms rounds
    the same in either order, so the bits are those of the one expression.
    ``p.gamma`` must be positive and finite; ``fit_dbw`` checks it once per
    fit (``ingest.check_gamma``), so this runs no check of its own.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 0:  # a scalar has no buffer to reuse
        return dbw_model(x[None], p)[0]
    d0 = x - p.x0
    d2 = x - p.x2
    y = p.alpha1 * d0
    y += p.alpha0
    tanh = np.divide(d0, p.gamma)
    np.tanh(tanh, out=tanh)
    d0 *= p.alpha2
    tanh *= d0
    y += tanh
    np.tanh(np.divide(d2, p.gamma, out=tanh), out=tanh)
    d2 *= p.alpha3
    tanh *= d2
    y += tanh
    return y


@np.errstate(over="ignore")  # an overflowing cost is handled, not warned about
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
    result. A cost ``r @ r`` that overflows at the initial point is
    NonFiniteResidual; a trial step whose cost is not finite is rejected.
    Overflow raises no RuntimeWarning inside the fit. ``tol`` must be a real
    number >= 0 and ``max_iter`` follow ``ingest.check_max_iter``, else
    InputError.

    ``jacobian(p)`` returns the C-ordered ``(n, m)`` Jacobian of
    ``residuals`` at ``p``; the LM iterates depend on its bits. It may
    return the same array on every call, overwritten: each Jacobian is read
    only before the next call. By default it is ``_central_jacobian``'s
    column-by-column central difference.
    """
    tol = check_number(tol, "tol")
    if not tol >= 0.0:  # NaN too
        raise InputError(f"tol: must be >= 0, got {tol}")
    max_iter = check_max_iter(max_iter)
    if jacobian is None:
        jacobian = partial(_central_jacobian, residuals)

    p = np.asarray(init, dtype=np.float64).copy()
    r = np.asarray(residuals(p), dtype=np.float64)
    if not np.all(np.isfinite(r)):
        raise NonFiniteResidual("residuals are not finite at the initial point")
    cost = float(r @ r)
    if not math.isfinite(cost):
        raise NonFiniteResidual("residual sum of squares overflows at the initial point")

    lam = 1e-3
    history = [cost]
    n_iter = 0
    converged = False

    for n_iter in range(1, max_iter + 1):
        J = jacobian(p)
        JtJ = J.T @ J
        neg_Jtr = -(J.T @ r)
        diag = JtJ.diagonal().copy()
        diag[diag <= 0.0] = 1e-12
        D = np.diag(diag)

        step = None
        while True:
            try:
                step = np.linalg.solve(JtJ + lam * D, neg_Jtr)
            except np.linalg.LinAlgError:
                step = None
            if step is not None and np.isfinite(step).all():
                trial = p + step
                r_trial = np.asarray(residuals(trial), dtype=np.float64)
                cost_trial = float(r_trial @ r_trial)
                # cost is finite, so a non-finite residual (cost inf or NaN) fails
                if cost_trial <= cost:
                    break
            lam *= 10.0
            if lam > 1e12:
                raise SingularNormalEquations(
                    "no descent step found even at maximal damping"
                )

        rel_step = (np.abs(step) / np.maximum(np.abs(p), 1.0)).max()
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


def _central_jacobian(residuals, p):
    """Central differences, one pair of residual calls per parameter.

    Column k is ``(residuals(p + h_k e_k) - residuals(p - h_k e_k)) / (2 h_k)``
    with ``h_k = 1e-6 * max(|p[k]|, 1)``, in a C-ordered ``(n, m)`` J.
    """
    h = 1e-6 * np.maximum(np.abs(p), 1.0)
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

    ``residuals`` goes through ``dbw_model``; ``gamma`` is the float that
    ``fit_dbw`` has checked. ``jacobian`` gives
    ``_central_jacobian``'s bits without calling it. It forms ``x - x0`` and
    ``x - x2`` at their three values (base, moved up, moved down) and their
    tanh as six rows at once, and each model term once at the base. Then it
    writes the 12 perturbed residuals ``((a0 + T1) + T2) + T3 - y``, the
    operation order of ``dbw_model``, into one ``(6, 2, n)`` array: one
    block per moved parameter, up then down.

    Its working arrays are allocated once here and filled in place on every
    call, so ``jacobian`` returns the same ``(n, 6)`` array each time,
    overwritten.
    """
    n = len(x)
    d = np.empty((6, n))  # x - x0 base, up, down; x - x2 base, up, down
    tanh = np.empty((6, n))
    lin = np.empty((3, n))  # a1 * (x - x0) base, up, down
    r = np.empty((6, 2, n))
    J = np.empty((n, 6))
    # p[k] moved up and down for k < 4, the six abscissas, 2 h_k, and (a2, a3)
    par = np.empty(22)
    moved, abscissas, two_h = par[:8].reshape(4, 2, 1), par[8:14, None], par[14:20, None]
    slopes = par[20:, None, None]
    # rows 0-2 are the x0 term's, rows 3-5 the x2 term's
    d_terms, tanh_terms = d.reshape(2, 3, n), tanh.reshape(2, 3, n)

    def residuals(free):
        res = dbw_model(x, DBWParams.from_array(free, gamma))
        res -= y
        return res

    def jacobian(free):
        values = free.tolist()
        a0, a1, a2, a3, x0, x2 = values
        h = [1e-6 * max(abs(v), 1.0) for v in values]
        up_down = [w for v, h_k in zip(values, h) for w in (v + h_k, v - h_k)]
        par[:] = [*up_down[:8], x0, *up_down[8:10], x2, *up_down[10:],
                  *[2.0 * h_k for h_k in h], a2, a3]
        np.subtract(x, abscissas, out=d)
        np.tanh(np.divide(d, gamma, out=tanh), out=tanh)

        # r[k] holds the residuals with p[k] moved up and down. Each keeps
        # dbw_model's grouping ((a0 + T1) + T2) + T3, with T1 = a1*d0,
        # T2 = (a2*d0)*tanh0 and T3 = (a3*d2)*tanh2; a sum or product of two
        # terms rounds the same in either order.
        np.multiply(a1, d[:3], out=lin)  # T1 at x0, x0 up, x0 down
        np.multiply(moved[1:3], d[0], out=r[1:3])  # a1 or a2 moved, times d0
        np.multiply(moved[3], d[3], out=r[3])  # a3 moved, times d2
        np.multiply(d_terms, slopes, out=d_terms)  # d now holds T2 (rows 0-2), T3 (3-5)
        np.multiply(d_terms, tanh_terms, out=d_terms)
        r[2:4] *= tanh_terms[:, :1]  # T2 with a2 moved, T3 with a3 moved
        np.add(moved[0], lin[0], out=r[0])
        np.add(lin, a0, out=lin)  # a0 + T1 at x0, x0 up, x0 down
        r[1] += a0
        r[:2] += d[0]
        r[2] += lin[0]
        np.add(lin[1:], d[1:3], out=r[4])
        lin[0] += d[0]  # (a0 + T1) + T2
        r[:3] += d[3]
        r[4] += d[3]
        r[3] += lin[0]
        np.add(lin[0], d[4:], out=r[5])
        np.subtract(r, y, out=r)
        np.divide(np.subtract(r[:, 0], r[:, 1], out=r[:, 0]), two_h, out=J.T)
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
    ``lm_optimize`` at its default tolerance. ``gamma`` and ``max_iter``
    follow ``ingest.check_gamma`` and ``ingest.check_max_iter``.
    """
    gamma = check_gamma(gamma)
    max_iter = check_max_iter(max_iter)
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
