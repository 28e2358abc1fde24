"""Self-join matrix profile of a real series under z-normalized distance.

Every length-L window is z-normalized once (``sliding_window_view``), and
every distance is the Euclidean norm of the difference of two z-normalized
windows. ``stamp`` finds each window's nearest neighbour from blocks of
full rows of the Gram matrix ``Z @ Z.T``: for z-normalized windows
``d^2 = 2L - 2 * dot``, so the nearest neighbour is the largest dot
product. The exclusion band of a block only reaches the columns within
ceil(L/2) of its rows, so it is written through one local mask built once
per call. ``argmax`` takes the first maximum, so ties go to the smallest
index and the result does not depend on evaluation order. P is then
measured directly from the chosen pair.

A series of length M has n = M - L + 1 windows, and every window has a
candidate outside its band exactly when n >= 2 ceil(L/2) + 2, that is
M >= L + 2 ceil(L/2) + 1. ``stamp`` rejects anything shorter, so every
window has a nearest neighbour.

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
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DegenerateWindow, SeriesTooShort
from .ingest import check_number

FLAT_STD = 1e-12

# Rows of the Gram matrix formed at a time; the working set is
# _BLOCK_ROWS x (number of windows) floats, and the band mask
# _BLOCK_ROWS x (_BLOCK_ROWS + 2 ceil(L/2)) booleans. Changing it can
# change Gram bits, so it is part of stamp's bit contract.
_BLOCK_ROWS = 64


@dataclass(frozen=True)
class MatrixProfile:
    """Nearest-neighbor distance P and neighbor start index I of each window."""

    P: np.ndarray
    I: np.ndarray


def _znormalize(windows: np.ndarray):
    """z-normalized windows (last axis) and their flat mask; flat rows are 0.

    The deviations are computed once; sigma is ``np.std``'s own arithmetic
    on them, so z has the bits of ``(windows - mean) / std``.
    """
    dev = windows - windows.mean(axis=-1, keepdims=True)
    sigma = np.sqrt(np.square(dev).sum(axis=-1, keepdims=True) / windows.shape[-1])
    flat = sigma < FLAT_STD
    dev /= np.where(flat, 1.0, sigma)
    flat = flat[..., 0]
    dev[flat] = 0.0
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
    largest Gram entry, the smallest index on ties; P[j] is the distance to
    it, capped at 2 sqrt(L). ``L`` follows ``check_length``. A series
    shorter than L + 2 ceil(L/2) + 1 is SeriesTooShort: some window would
    have no candidate. A non-finite value is DegenerateWindow, since its
    windows have no z-normalized distance.

    Each block of ``_BLOCK_ROWS`` rows forms its full Gram rows in one
    ``(_BLOCK_ROWS, n)`` buffer allocated once per call, and the band is set
    to -inf only in the columns ``start - r .. stop + r`` around the block,
    through a slice of one ``(_BLOCK_ROWS, _BLOCK_ROWS + 2r)`` mask
    (r = ceil(L/2)). The rows stay full because a column-sliced or
    symmetric product can round differently under some BLAS builds, and a
    changed bit can move an argmax tie. ``_BLOCK_ROWS`` is part of that
    bit contract too: under OpenBLAS the Gram bits depend on the row count
    of the product, so another block size changes them (see DECISIONS.md).
    """
    L = check_length(L)
    series = np.asarray(series, dtype=np.float64)
    M = len(series)
    radius = (L + 1) // 2  # ceil(L/2) in ints: an L past float64 is SeriesTooShort
    needed = L + 2 * radius + 1
    if M < needed:
        raise SeriesTooShort(
            f"series length {M} < L + 2*ceil(L/2) + 1 = {needed}"
            f" for matrix-profile window L = {L}"
        )
    if not np.isfinite(series).all():
        raise DegenerateWindow("series holds non-finite values")

    Z, flat = _znormalize(sliding_window_view(series, L))
    n = len(Z)
    # band[i, c]: column start - radius + c lies within radius of row start + i
    shift = np.arange(_BLOCK_ROWS + 2 * radius) - np.arange(_BLOCK_ROWS)[:, None]
    band = (shift >= 0) & (shift <= 2 * radius)
    any_flat = bool(flat.any())
    I = np.empty(n, dtype=np.int64)
    buf = np.empty((min(_BLOCK_ROWS, n), n))
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        gram = np.matmul(Z[start:stop], Z.T, out=buf[: stop - start])
        if any_flat:
            gram[:, flat] = np.where(flat[start:stop, None], float(L), L / 2.0)
        lo, hi = max(start - radius, 0), min(stop + radius, n)
        skip = lo - (start - radius)
        gram[:, lo:hi][band[: stop - start, skip : skip + hi - lo]] = -np.inf
        I[start:stop] = np.argmax(gram, axis=1)

    P = np.minimum(_distance(Z, Z[I], flat, flat[I], L), 2.0 * math.sqrt(L))
    return MatrixProfile(P=P, I=I)
