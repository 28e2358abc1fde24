"""Synthetic capacity-fade curves with known knee geometry.

The noiseless trend is a slow power-law fade plus an exponential knee term
that switches on at cycle ``n_k``:

    q(n) = 1 - a * n**p_eff - b * (exp(c * max(0, n - n_k)) - 1)

with ``p_eff = 0.5`` when ``p == 1`` (square-root early fade) and ``p_eff =
p`` otherwise (``p < 1`` makes the first phase convex). White Gaussian
noise is added on the normalized scale and the curve is truncated where the
trend falls below 0.6.

Ground truth is a fixed oracle on the noiseless trend's central second
difference d(n). The onset is the first cycle at or after ``n_k`` where
|d| exceeds 10x the state-1 median |d| (state 1 = cycles before ``n_k``;
the search starts at ``n_k`` because the power-law curvature is singular at
the first cycles). The knee is the cycle of the minimum of d before
truncation; for a curve that never reaches the truncation floor that
minimum sits at the window edge by construction, so the knee is instead
the last cycle at which d turns negative for good, i.e. where the
accelerating term permanently overtakes the decelerating one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import List, Optional, Tuple

import numpy as np

from .earlypredict import CycleRecord
from .errors import DegenerateSpec
from .ingest import MAX_GRID_CYCLES, CapacityFadeSeries
from .rules import check_count, check_number, check_positive

TRUNCATE_AT = 0.6
ONSET_FACTOR = 10.0
DEFAULT_Q_NOM = 1.1  # nominal capacity of every synthetic cell, in Ah
GRID_POINTS = 120  # voltage samples per simulated discharge curve
EARLY_CYCLES = 35  # cycles 1..35 of discharge curves per simulated cell

GROUND_TRUTH_RULE = (
    "onset: first cycle >= n_k with |second difference| > 10x state-1 median; "
    "knee: cycle of minimum second difference before truncation, or the last "
    "negative-going sign change of the second difference when untruncated"
)


MIN_CYCLES = 10


@dataclass(frozen=True)
class SyntheticSpec:
    """One curve's parameters. Each field must be a number of its type under
    ``rules.as_number`` and is stored as that ``int`` or ``float``;
    ``n_cycles`` must be >= ``MIN_CYCLES`` and at most ``MAX_GRID_CYCLES``,
    ``seed`` >= 0 (``rules.check_count``) and ``noise_sigma`` finite and >= 0.
    Else DegenerateSpec."""

    n_cycles: int
    a: float
    b: float
    c: float
    n_k: int
    p: float = 1.0
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        lows = {"n_cycles": MIN_CYCLES, "seed": 0}
        for f in fields(self):
            value = getattr(self, f.name)
            number = (check_count(value, f.name, lows[f.name], DegenerateSpec) if f.name in lows
                      else check_number(value, f.name, f.type == "int", DegenerateSpec))
            object.__setattr__(self, f.name, number)
        if self.n_cycles > MAX_GRID_CYCLES:
            raise DegenerateSpec(f"n_cycles must be at most {MAX_GRID_CYCLES}, got {self.n_cycles}")
        if not (self.a >= 0 and self.b >= 0 and self.c >= 0):  # NaN too
            raise DegenerateSpec("a, b, c must be >= 0")
        if not 0.0 < self.p <= 1.0:
            raise DegenerateSpec(f"p={self.p} outside (0, 1]")
        if not 0 <= self.n_k < self.n_cycles:
            raise DegenerateSpec(f"n_k={self.n_k} outside [0, n_cycles)")
        if not 0 <= self.noise_sigma < math.inf:
            raise DegenerateSpec(f"noise_sigma={self.noise_sigma} must be finite and >= 0")


@dataclass(frozen=True)
class GroundTruth:
    onset_cycle: int
    knee_cycle: int
    definition: str = GROUND_TRUTH_RULE


def _trend(spec: SyntheticSpec, cycles: np.ndarray) -> np.ndarray:
    n = cycles.astype(np.float64)
    p_eff = 0.5 if spec.p == 1.0 else spec.p
    fade = spec.a * n**p_eff
    knee = spec.b * np.expm1(spec.c * np.maximum(0.0, n - spec.n_k))
    return 1.0 - fade - knee


def _truncated_trend(spec: SyntheticSpec) -> Tuple[np.ndarray, np.ndarray, bool]:
    """Cycles and noiseless trend up to the first cycle below the floor,
    and whether the trend reached the floor at all."""
    cycles = np.arange(1, spec.n_cycles + 1, dtype=np.int64)
    trend = _trend(spec, cycles)
    keep = trend >= TRUNCATE_AT
    if keep.all():
        return cycles, trend, False
    cut = int(np.argmin(keep))  # first cycle below the floor
    return cycles[:cut], trend[:cut], True


def generate(
    spec: SyntheticSpec, cell_id: Optional[str] = None
) -> Tuple[CapacityFadeSeries, Optional[GroundTruth]]:
    """Generate one seeded curve and its ground truth (None when kneeless)."""
    cycles, trend, _ = _truncated_trend(spec)
    rng = np.random.default_rng(spec.seed)
    values = trend + rng.normal(0.0, spec.noise_sigma, size=len(trend))
    values = np.maximum(values, 1e-6)  # capacities must stay positive

    series = CapacityFadeSeries(
        cell_id=cell_id if cell_id is not None else f"synth-{spec.seed:04d}",
        cycles=cycles,
        capacity_ah=values * DEFAULT_Q_NOM,
        q_nom_ah=DEFAULT_Q_NOM,
    )
    return series, ground_truth(spec)


def ground_truth(spec: SyntheticSpec) -> Optional[GroundTruth]:
    """Knee onset and knee of the noiseless trend, per the fixed rule."""
    if spec.b == 0.0 or spec.c == 0.0:
        return None
    cycles, trend, truncated = _truncated_trend(spec)
    if len(trend) < 3:
        return None

    d = trend[:-2] + trend[2:] - 2.0 * trend[1:-1]
    d_cycles = cycles[1:-1]

    state1 = np.abs(d[d_cycles < spec.n_k])
    m1 = float(np.median(state1)) if len(state1) else 0.0
    candidates = np.nonzero((d_cycles >= spec.n_k) & (np.abs(d) > ONSET_FACTOR * m1))[0]
    if len(candidates) == 0:
        return None
    onset = int(d_cycles[candidates[0]])

    # Truncated curves complete their plunge inside the window, so the signed
    # minimum is the knee. An untruncated curve only qualifies when the final
    # curvature drop is established (well below the state-1 scale); otherwise
    # the window-edge minimum is an artifact and the knee is the last cycle
    # at which the accelerating term permanently overtakes the decelerating
    # one (the final negative-going sign change).
    if truncated or (m1 > 0.0 and d[-1] < -(ONSET_FACTOR**2) * m1):
        knee = int(d_cycles[np.argmin(d)])
    else:
        flips = np.nonzero((d[1:] < 0.0) & (d[:-1] >= 0.0))[0]
        if len(flips) == 0:
            return None
        knee = int(d_cycles[flips[-1] + 1])

    if not onset < knee:
        return None
    return GroundTruth(onset_cycle=onset, knee_cycle=knee)


def convex_family_specs(count: int, seed: int) -> List[SyntheticSpec]:
    """Seeded parameter draws for the convex-first-phase family (p < 1).
    ``count`` must be an int >= 1 and ``seed`` an int >= 0, else DegenerateSpec."""
    count = check_count(count, "count", 1, DegenerateSpec)
    seed = check_count(seed, "seed", 0, DegenerateSpec)
    rng = np.random.default_rng(seed)
    specs = []
    for i in range(count):
        p = float(rng.uniform(0.5, 0.7))
        n_k = int(rng.integers(600, 1001))
        drop = float(rng.uniform(0.10, 0.15))
        specs.append(
            SyntheticSpec(
                n_cycles=1500,
                a=drop / n_k**p,
                b=float(rng.uniform(0.008, 0.012)),
                c=float(rng.uniform(0.05, 0.07)),
                n_k=n_k,
                p=p,
                noise_sigma=0.001,
                seed=seed + 1000 + i,
            )
        )
    return specs


def generate_convex_family(
    count: int, seed: int
) -> List[Tuple[CapacityFadeSeries, Optional[GroundTruth]]]:
    """Curves whose first degradation phase is convex (p < 1).

    This is the regime where a piecewise-linear transition model degrades:
    its straight-line first-phase assumption does not hold.
    """
    return [
        generate(spec, cell_id=f"convex-{i:03d}")
        for i, spec in enumerate(convex_family_specs(count, seed))
    ]


def simulate_cycle_records(onset_cycle: int, seed: int = 0):
    """Early-cycle discharge curves whose drift encodes the knee onset.

    Cells heading for an early onset lose low-voltage capacity faster in
    their first cycles: each cycle subtracts a low-voltage bump whose
    amplitude grows linearly with cycle number at a rate inversely
    proportional to the onset cycle. Smooth per-cycle measurement
    disturbances are added and monotonicity of Q(V) is enforced.
    The records cover cycles 1 to ``EARLY_CYCLES``. ``onset_cycle`` must be
    a finite real number > 0 and ``seed`` an int >= 0, else DegenerateSpec.
    """
    onset = check_positive(onset_cycle, "onset_cycle", DegenerateSpec)
    seed = check_count(seed, "seed", 0, DegenerateSpec)
    rng = np.random.default_rng(seed)
    v = np.linspace(3.5, 2.0, GRID_POINTS)
    z = (3.5 - v) / 1.5
    base_frac = z**0.8
    bump = np.exp(-(((v - 2.35) / 0.18) ** 2))
    q2_base = DEFAULT_Q_NOM * 0.985 * (1.0 + rng.normal(0.0, 0.004))
    rate = 0.09 / onset  # Ah per cycle of low-voltage capacity shift
    fade = 2e-5

    records = {}
    for cycle in range(1, EARLY_CYCLES + 1):
        q_tot = q2_base * (1.0 - fade * (cycle - 2))
        offset = rng.normal(0.0, 2e-4)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        wobble = 2e-4 * np.sin(2.0 * np.pi * rng.uniform(0.5, 2.0) * z + phase)
        q = q_tot * base_frac - rate * cycle * bump + (offset + wobble) * base_frac
        q = np.maximum.accumulate(np.maximum(q, 0.0))
        records[cycle] = CycleRecord(cycle=cycle, voltage_v=v, q_ah=q)
    return records


def generate_fleet(
    count: int, seed: int, n_cycles: int = 2000
) -> List[Tuple[CapacityFadeSeries, Optional[GroundTruth]]]:
    """Seeded fleet of square-root-fade curves with identifiable sharp knees.

    Knee amplitude and rate are drawn so the plunge both clears the
    smoothed-curvature noise floor of sigma = 1e-3 capacity noise and
    completes within a small fraction of the cycle window. ``count`` must be
    an int >= 1, ``n_cycles`` an int >= ``MIN_CYCLES`` and ``seed`` an int
    >= 0, else DegenerateSpec.
    """
    count = check_count(count, "count", 1, DegenerateSpec)
    # before the knee draw, whose range a short curve would empty
    n_cycles = check_count(n_cycles, "n_cycles", MIN_CYCLES, DegenerateSpec)
    seed = check_count(seed, "seed", 0, DegenerateSpec)
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        spec = SyntheticSpec(
            n_cycles=n_cycles,
            a=float(rng.uniform(4e-4, 1e-3)),
            b=float(rng.uniform(0.002, 0.004)),
            c=float(rng.uniform(0.055, 0.07)),
            n_k=int(rng.integers(round(n_cycles * 0.3), round(n_cycles * 0.65) + 1)),
            p=1.0,
            noise_sigma=0.001,
            seed=seed + i,
        )
        out.append(generate(spec, cell_id=f"fleet-{seed}-{i:03d}"))
    return out
