"""Savitzky-Golay smoothing and the discrete degradation-curvature series.

The curvature proxy at interior index i is

    y_d[i] = y[i - (ws-1)/2] + y[i + (ws-1)/2] - 2 * y[i]

for an odd window ``ws``. On a unit-spaced grid it is zero for any straight
line, negative where three points form a knee, and positive for an elbow.

Smoothing runs on NumPy alone. Its weights are the exact least-squares
weights, rationals rounded once to float64 (Savitzky & Golay, *Anal. Chem.*
36(8), 1964; Gorry, *Anal. Chem.* 62(6), 1990), so they are exactly symmetric
and the same on every CPU and BLAS. The convolution reads their centre and
trailing half ``w`` and adds its products in the order of
``scipy.ndimage.convolve1d``'s symmetric branch: it equals
``convolve1d(values, savgol_coeffs(window, order), mode="mirror")`` bit for
bit. Importing the package imports no SciPy module.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import EvenWindow, OrderTooHigh, SeriesTooShort, SmoothingOverflow, WindowTooLarge
from .ingest import MAX_GRID_CYCLES, NormalizedSeries
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
    """``OrderTooHigh`` if the largest power on the window, ``(window // 2) **
    order``, overflows float64, first at window 163, order 162. The rule bounds
    the size of the exact rationals and so the weights' cost: the highest order
    it accepts at the window cap, (999 999, 53), takes about 4 s."""
    try:
        math.pow(window // 2, order)
    except OverflowError:
        raise OrderTooHigh(f"order {order} at window {window}: the Savitzky-Golay design"
                           f" matrix overflows float64 ({window // 2}**{order})") from None


def savgol_coeffs(window: int, order: int) -> np.ndarray:
    """Read-only convolution weights of the centred Savitzky-Golay smoother.

    Each weight is the exact least-squares weight, a rational, rounded once to
    float64; computed once per pair and then returned as the same array.
    ``window`` and ``order`` follow ``check_window`` and ``check_order``, and a
    window past ``ingest.MAX_GRID_CYCLES`` is WindowTooLarge.
    """
    window = check_window(window)
    if window > MAX_GRID_CYCLES:
        raise WindowTooLarge(f"window {window} exceeds the largest grid, {MAX_GRID_CYCLES} cycles")
    return _savgol_coeffs(window, check_order(order, window))


@lru_cache
def _savgol_coeffs(window: int, order: int) -> np.ndarray:
    from fractions import Fraction  # on first use, so importing the package does not pay for it

    # Monic Gram polynomials on -h..h as coefficient lists, lowest power first:
    # P[i] = x P[i-1] - beta[i-1] P[i-2] and |P[i]|^2 = beta[i] |P[i-1]|^2. The
    # weight at x is the sum of P[i](0) P[i](x) / |P[i]|^2 over i <= order, where
    # odd P[i](0) are 0: an even polynomial, evaluated at x*x with integers.
    n2 = window * window
    beta = [Fraction(i * i * (n2 - i * i), 4 * (4 * i * i - 1)) for i in range(order + 1)]
    prev, p, norm = [], [Fraction(1)], Fraction(window)
    w = [1 / norm]
    for i in range(1, order + 1):
        prev, p = p, [a - beta[i - 1] * b for a, b in zip([0, *p], [*prev, 0, 0])]
        norm *= beta[i]
        if i % 2 == 0:
            w = [a + p[0] / norm * b for a, b in zip([*w, 0, 0], p)]
    d = math.lcm(*(c.denominator for c in w))
    xx = np.arange(window // 2 + 1, dtype=object) ** 2
    numerators = 0
    for c in w[::-2]:  # Horner in x*x over the integer numerators
        numerators = numerators * xx + int(c * d)
    half = (numerators / d).astype(np.float64)  # int / int rounds correctly
    coeffs = np.concatenate([half[:0:-1], half])
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
