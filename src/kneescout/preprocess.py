"""Savitzky-Golay smoothing and the discrete degradation-curvature series.

The curvature proxy at interior index i is

    y_d[i] = y[i - (ws-1)/2] + y[i + (ws-1)/2] - 2 * y[i]

for an odd window ``ws``. On a unit-spaced grid it is zero for any straight
line, negative where three points form a knee, and positive for an elbow.

Smoothing runs on NumPy alone. Its weights are the ``gelsd`` least-squares
solution of ``scipy.signal.savgol_coeffs(window, order)``, bit for bit.
Centred Savitzky-Golay weights are symmetric, so the convolution reads their
centre and trailing half ``w`` and adds its products in the order of
``scipy.ndimage.convolve1d``'s symmetric branch: it equals
``convolve1d(values, np.r_[w[:0:-1], w], mode="mirror")`` bit for bit. That is
``savgol_filter(values, window, order, mode="mirror")`` whenever ndimage
finds the full weights symmetric (every pair within ``DBL_EPSILON``), as it
does at the default (21, 3); about 4% of pairs, (81, 3) among them, differ
from it in the last bits. Importing the package imports no SciPy module.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import EvenWindow, OrderTooHigh, SeriesTooShort, SmoothingOverflow, WindowTooLarge
from .ingest import NormalizedSeries
from .rules import check_number


def savgol_smooth(
    series: NormalizedSeries, window: int = 21, order: int = 3
) -> NormalizedSeries:
    """Smooth with a local least-squares polynomial of the given order.

    Each output point is the center evaluation of the polynomial fitted
    over the window; edges are mirror-padded (reflection about the edge
    sample, which is not repeated), keeping the output length equal to the
    input length. Polynomials up to the filter order are reproduced exactly
    on the interior; the mirrored extension is not polynomial, so the first
    and last half-windows deviate. ``window`` and ``order`` follow
    ``check_window`` and ``check_order``; a window longer than the series is
    WindowTooLarge. A smoothed value that overflows float64 is
    SmoothingOverflow.
    """
    window = check_window(window)
    if window > len(series):
        raise WindowTooLarge(f"window {window} exceeds the series length {len(series)}")
    order = check_order(order, window)
    with np.errstate(over="ignore", invalid="ignore"):
        smoothed = _mirror_convolve(series.values, _savgol_coeffs(window, order)[window // 2 :])
    if not np.isfinite(smoothed).all():
        raise SmoothingOverflow("the smoothed series overflows float64")
    return NormalizedSeries(cycles=series.cycles, values=smoothed)


def check_window(window, name: str = "window") -> int:
    """``window`` as an int, >= 3 (else WindowTooLarge) and odd (else
    EvenWindow); InputError naming ``name`` if it is not an integer."""
    window = check_number(window, name, integral=True)
    if window < 3:
        raise WindowTooLarge(f"{name} must be >= 3, got {window}")
    if window % 2 == 0:
        raise EvenWindow(f"{name} must be odd, got {window}")
    return window


def check_order(order, window: int, name: str = "order", window_name: str = "window") -> int:
    """``order`` as an int with 0 <= order < ``window`` and a design matrix
    finite in float64 (``check_savgol_design``), else OrderTooHigh;
    InputError naming ``name`` if it is not an integer."""
    order = check_number(order, name, integral=True)
    if not 0 <= order < window:
        raise OrderTooHigh(f"{name} {order} must satisfy 0 <= {name} < {window_name} {window}")
    check_savgol_design(window, order)
    return order


def check_savgol_design(window: int, order: int) -> None:
    """``OrderTooHigh`` if the design matrix, whose largest entry is ``(window // 2)
    ** order``, overflows: ``lstsq`` then fails, first at window 163, order 162."""
    try:
        math.pow(window // 2, order)
    except OverflowError:
        raise OrderTooHigh(f"order {order} at window {window}: the Savitzky-Golay design"
                           f" matrix overflows float64 ({window // 2}**{order})") from None


def savgol_coeffs(window: int, order: int) -> np.ndarray:
    """Read-only convolution weights of the centred Savitzky-Golay smoother.

    The minimum-norm least-squares solution (LAPACK ``gelsd``) on the design
    matrix, with the rank cutoff, that ``scipy.signal.savgol_coeffs(window,
    order)`` uses, computed once per pair and then returned as the same
    array. ``window`` and ``order`` follow ``check_window`` and ``check_order``.
    """
    window = check_window(window)
    return _savgol_coeffs(window, check_order(order, window))


@lru_cache
def _savgol_coeffs(window: int, order: int) -> np.ndarray:
    half = window // 2
    x = np.arange(-half, window - half, dtype=np.float64)[::-1]
    A = x ** np.arange(order + 1, dtype=np.float64).reshape(-1, 1)
    e0 = np.zeros(order + 1)
    e0[0] = 1.0
    coeffs = np.linalg.lstsq(A, e0, rcond=np.finfo(np.float64).eps * max(A.shape))[0]
    coeffs.flags.writeable = False
    return coeffs


def _mirror_convolve(values: np.ndarray, half: np.ndarray) -> np.ndarray:
    """Convolve with the symmetric weights whose centre and trailing half are
    ``half``, the series mirrored at each end (reflected about the edge
    sample, which is not repeated).

    With h = len(half) - 1 <= len(values) - 1, out[i] adds its products in the
    order of ``scipy.ndimage.convolve1d``'s symmetric branch: x[i] half[0],
    then (x[i-j] + x[i+j]) half[j] for j = h .. 1. So it equals
    ``convolve1d(values, np.r_[half[:0:-1], half], mode="mirror")`` bit for bit.

    Each step adds one term to every output at once. A ``(terms, n)`` table
    summed over its rows gives the same bits, but on long series it leaves
    the cache and runs slower than this loop.
    """
    h = len(half) - 1
    padded = np.concatenate([values[h:0:-1], values, values[-2 : -h - 2 : -1]])
    x = sliding_window_view(padded, len(values))  # x[k, i] = values[i + k - h]
    out = x[h] * half[0]
    for j in range(h, 0, -1):
        out += (x[h - j] + x[h + j]) * half[j]
    return out


def clip_window(window: int, n: int) -> int:
    """Largest odd window <= min(window, n), which is >= 3 when window is
    odd and both are >= 3."""
    w = min(window, n)
    if w % 2 == 0:
        w -= 1
    return w


def approximate_curvature(series: NormalizedSeries, ws: int = 3) -> NormalizedSeries:
    """Second-difference curvature over a sliding window of ``ws`` cycles
    (``check_window``), at the input's cycles less (ws-1)/2 at each end."""
    ws = check_window(ws, "ws")
    n = len(series)
    if n < ws:
        raise SeriesTooShort(f"need at least ws={ws} points, got {n}")
    half = (ws - 1) // 2
    y = series.values
    values = y[: n - 2 * half] + y[2 * half :] - 2.0 * y[half : n - half]
    return NormalizedSeries(cycles=series.cycles[half : n - half], values=values)
