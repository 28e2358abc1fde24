"""Self-join matrix profile of a real series under z-normalized distance.

Every length-L window is z-normalized once (``sliding_window_view``), and
every distance is the Euclidean norm of the difference of two z-normalized
windows. ``stamp`` finds each window's nearest neighbour from blocks of
full rows of the Gram matrix ``Z @ Z.T``, each block one product against a
C-contiguous copy of ``Z.T`` made once per call: for z-normalized windows
``d^2 = 2L - 2 * dot``, so the nearest neighbour is the largest dot
product. The exclusion band of a block only reaches the columns within
ceil(L/2) of its rows, so it is written through one local mask built once
per call. ``argmax`` takes the first maximum, so ties of computed Gram
entries go to the smallest index and the result does not depend on
evaluation order. P is measured
directly from the chosen pair when it is first read: the arc curve and
the knee read only I.

A series of length M has n = M - L + 1 windows, and every window has a
candidate outside its band exactly when n >= 2 ceil(L/2) + 2, that is
M >= L + 2 ceil(L/2) + 1. ``stamp`` rejects anything shorter, so every
window has a nearest neighbour. A window matrix of more than
``MAX_WINDOW_VALUES`` values (n L > 2**27, 1 GiB of float64) is refused
before it is allocated.

Conventions that the rest of the pipeline relies on:

* trivial matches are excluded in a band of radius ceil(L/2) around the
  diagonal;
* two windows whose standard deviation is below 1e-12 are treated as the
  same (constant) shape at distance 0; a constant window against a varying
  one is at distance sqrt(L). A flat window z-normalizes to a zero row, and
  in the Gram search a flat candidate scores L/2 (distance sqrt(L)), or L
  (distance 0) when the query window is flat too.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DegenerateWindow, SeriesTooShort, WindowTooLarge
from .rules import as_array, check_number

FLAT_STD = 1e-12

# Rows of the Gram matrix formed at a time, each block as one product of
# _BLOCK_ROWS windows against a C-contiguous copy of Z.T made once per call.
# The working set is one _BLOCK_ROWS x (number of windows) float buffer per
# thread (two when the helper runs), and the band mask
# _BLOCK_ROWS x (_BLOCK_ROWS + 2 ceil(L/2)) booleans, shared. Changing the
# block size or the operand's layout can change Gram bits, so both are part
# of stamp's bit contract.
_BLOCK_ROWS = 32
# Most values the window matrix (windows x L float64s) may hold: 2**27 values
# are 1 GiB. A longer series or window is WindowTooLarge before any array
# of that size is allocated. stamp's memory peaks at about twice the window
# matrix (Z with a temporary, then Z and ZT), and P's first read at three times.
MAX_WINDOW_VALUES = 2**27
# Window count from which stamp runs the second half of its blocks on a
# helper thread, when the process may run on more than one CPU. Below it
# the thread's start and the hand-offs of the GIL cost more than the
# second core gains (see DECISIONS.md).
_HELPER_MIN_WINDOWS = 1217


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask, where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class MatrixProfile:
    """Neighbor start index I of each window and, on first read, its distance P.

    P is formed from a private copy of the series and the window length,
    with the same arithmetic on the same windows as the search, so it has
    the same bits whenever it is read. No window matrix is kept, and the
    profile pickles before and after P is read.
    """

    I: np.ndarray
    _series: np.ndarray = field(repr=False)
    _L: int = field(repr=False)

    @cached_property
    def P(self) -> np.ndarray:
        """Distance to the neighbor I names, capped at 2 sqrt(L)."""
        L, I = self._L, self.I
        Z, flat = _znormalize(sliding_window_view(self._series, L))
        return np.minimum(_distance(Z, Z[I], flat, flat[I], L), 2.0 * math.sqrt(L))


def _znormalize(windows: np.ndarray):
    """z-normalized windows (last axis) and their flat mask; flat rows are 0.

    The deviations are computed once; sigma is ``np.std``'s own arithmetic
    on them, so z has the bits of ``(windows - mean) / std``. Without a flat
    window the division is by sigma itself, which is what the masked divisor
    would hold.
    """
    dev = windows - windows.mean(axis=-1, keepdims=True)
    sigma = np.sqrt(np.square(dev).sum(axis=-1, keepdims=True) / windows.shape[-1])
    flat = sigma[..., 0] < FLAT_STD
    if flat.any():
        dev /= np.where(flat[..., None], 1.0, sigma)
        dev[flat] = 0.0
    else:
        dev /= sigma
    return dev, flat


def _distance(za, zb, flat_a, flat_b, L: int) -> np.ndarray:
    """Distance between z-normalized windows, with the flat-window rules.

    Two flat windows are zero rows, so their distance is already 0.
    """
    dist = np.sqrt(np.sum((za - zb) ** 2, axis=-1))
    return np.where(flat_a ^ flat_b, math.sqrt(L), dist)


def check_length(L, name: str = "L", allow_zero: bool = False) -> int:
    """``L`` as an int >= 2, the shortest window with a z-normalized shape,
    else DegenerateWindow; InputError naming ``name`` if it is not an
    integer. ``allow_zero`` also takes 0, for a caller that reads 0 as
    "choose the length for me"."""
    length = check_number(L, name, integral=True)
    if length < 2 and not (allow_zero and length == 0):
        zero = "0 or " if allow_zero else ""
        raise DegenerateWindow(f"{name} must be {zero}>= 2, got {length}")
    return length


def stamp(series: np.ndarray, L: int) -> MatrixProfile:
    """All-pairs nearest-neighbor search over every length-L window.

    I[j] is the window outside the band of radius ceil(L/2) around j with the
    largest computed Gram entry, the smallest index on ties (two windows
    tied in exact arithmetic can round apart); P[j] is the distance to
    it, capped at 2 sqrt(L), formed when P is first read. ``L`` follows
    ``check_length``. A series shorter than L + 2 ceil(L/2) + 1 is
    SeriesTooShort: some window would have no candidate. A non-finite value
    is DegenerateWindow, since its windows have no z-normalized distance.
    n windows of length L with n L > ``MAX_WINDOW_VALUES`` are
    WindowTooLarge, raised before any array of that size is allocated.

    Each block of ``_BLOCK_ROWS`` rows forms its full Gram rows as
    ``np.matmul(Z[start:stop], ZT)`` into a ``(_BLOCK_ROWS, n)`` buffer,
    where ``ZT`` is a C-contiguous copy of ``Z.T``; both are made once per
    call. The band is set to -inf only in the columns
    ``start - r .. stop + r`` around the block, through a slice of one
    ``(_BLOCK_ROWS, _BLOCK_ROWS + 2r)`` mask (r = ceil(L/2)). The rows stay
    full because a column-sliced or symmetric product can round differently
    under some BLAS builds, and a changed bit can move an argmax tie. ``_BLOCK_ROWS`` and the layout of
    ``ZT`` are part of that bit contract too: under OpenBLAS the Gram bits
    depend on the row count of the product and on the kernel path its shape
    and strides select, so another block size or a strided ``Z.T`` changes
    them (see DECISIONS.md).

    From ``_HELPER_MIN_WINDOWS`` windows on, when the process's CPU affinity
    holds more than one CPU, the caller forms the first half of the blocks
    and a helper thread started for this call the second half, each in its
    own buffer of one ``(2, _BLOCK_ROWS, n)`` array and into its own slice
    of I. Every block is the same product, mask and ``argmax`` either way,
    so P and I have the same bits. The caller joins the helper before it
    returns or raises, and raises an exception of the helper's again.
    """
    L = check_length(L)
    series = as_array(series, "series", vector=True)
    M = len(series)
    radius = (L + 1) // 2  # ceil(L/2) in ints: an L past float64 is SeriesTooShort
    needed = L + 2 * radius + 1
    if M < needed:
        raise SeriesTooShort(
            f"series length {M} < L + 2*ceil(L/2) + 1 = {needed}"
            f" for matrix-profile window L = {L}"
        )
    n = M - L + 1
    if n * L > MAX_WINDOW_VALUES:
        raise WindowTooLarge(
            f"{n} windows of matrix-profile window L = {L} hold {n * L} values,"
            f" more than {MAX_WINDOW_VALUES}"
        )
    if not np.isfinite(series).all():
        raise DegenerateWindow("series holds non-finite values")

    series = series.copy()  # P reads it later; the caller may overwrite theirs
    Z, flat = _znormalize(sliding_window_view(series, L))
    ZT = np.ascontiguousarray(Z.T)
    # band[i, c]: column start - radius + c lies within radius of row start + i
    shift = np.arange(_BLOCK_ROWS + 2 * radius) - np.arange(_BLOCK_ROWS)[:, None]
    band = (shift >= 0) & (shift <= 2 * radius)
    any_flat = bool(flat.any())
    I = np.empty(n, dtype=np.int64)

    def nearest(buf, starts):
        for start in starts:
            stop = min(start + _BLOCK_ROWS, n)
            gram = np.matmul(Z[start:stop], ZT, out=buf[: stop - start])
            if any_flat:
                gram[:, flat] = np.where(flat[start:stop, None], float(L), L / 2.0)
            lo, hi = max(start - radius, 0), min(stop + radius, n)
            skip = lo - (start - radius)
            gram[:, lo:hi][band[: stop - start, skip : skip + hi - lo]] = -np.inf
            gram.argmax(axis=1, out=I[start:stop])

    starts = range(0, n, _BLOCK_ROWS)
    if n < _HELPER_MIN_WINDOWS or _cpu_count() < 2:
        nearest(np.empty((min(_BLOCK_ROWS, n), n)), starts)
    else:
        half = len(starts) // 2
        bufs = np.empty((2, _BLOCK_ROWS, n))
        errors = []

        def second_half():
            try:
                nearest(bufs[1], starts[half:])
            except BaseException as exc:  # raised again in the caller
                errors.append(exc)

        helper = threading.Thread(target=second_half)
        helper.start()
        try:
            nearest(bufs[0], starts[:half])
        finally:
            helper.join()
        if errors:
            raise errors[0]

    return MatrixProfile(I, series, L)
