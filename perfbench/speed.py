"""Machine-speed sampling, to take neighbouring load out of measured times.

On a shared machine other tenants slow every instruction stream by up to
~50%, and the slowdown changes within tens of milliseconds, so raw wall
times of two runs of the same code disagree by more than any useful bound.
While an operation runs, a timer signal runs a fixed ~0.2 ms kernel of the
same kinds of work the workloads do (an FFT, small-array numpy calls, an
interpreted loop) every ``INTERVAL_S``; one more sample is taken just
before and just after. The operation's latency, less the time spent in
samples, is scaled by ``REF_S`` over the mean sample time: the latency the
operation would have had at reference speed.
"""

import signal
import time

import numpy as np

# Kernel time at reference speed (a quiet 2-core machine of the kind the
# benchmark was written on); scaled times are in seconds at that speed.
REF_S = 0.0001
INTERVAL_S = 0.005

_X = np.random.default_rng(0).normal(size=512)
_SMALL = _X[:32]


def kernel() -> float:
    """Seconds the fixed sampling kernel takes right now."""
    t0 = time.perf_counter()
    np.fft.irfft(np.fft.rfft(_X))
    for _ in range(10):
        np.argsort(_SMALL, kind="stable")
        np.cumsum(_SMALL)
    s = 0.0
    for v in range(500):
        s += v * 0.5
    return time.perf_counter() - t0


class Speedometer:
    """Context manager timing one call and sampling machine speed during it.

    After the block: ``t0`` and ``t1`` are its start and end, ``inside_s``
    the time spent in samples between them, ``raw_s`` the wall time less
    ``inside_s``, ``factor`` REF_S over the mean sample time, and
    ``scaled_s`` is ``raw_s * factor``.
    """

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s

    def _sample(self, *_):
        dt = kernel()
        self.samples.append(dt)
        self.inside += dt

    def __enter__(self):
        self.samples = [kernel()]
        self.inside = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self.t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.t1 = time.perf_counter()
        self.inside_s = self.inside
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(kernel())
        self.raw_s = self.t1 - self.t0 - self.inside_s
        self.factor = REF_S * len(self.samples) / sum(self.samples)
        self.scaled_s = self.raw_s * self.factor
        return False
