"""Seeded inputs of the three benchmark workloads.

Each workload runs a fixed list of operations, so the committed reference
outputs (``perfbench/reference/*.json``) cover every operation, and the
deterministic accuracy metrics do not swing with the seed. The seed sets the
order in which a run takes them.

* Fleet (``identify-fleet``, ``baseline-fleet``): synthetic capacity
  curves drawn like ``synthgen.generate_fleet`` (square-root fade, sharp
  exponential knee, sigma = 1e-3 noise), on a fixed ladder of curve lengths.
  A curve ends about 80 cycles after its knee starts, so the knee cycle sets
  the length to within a few percent. Operations are grouped in rounds of one
  cell per rung, so every round costs about the same and the median and tail
  latencies fall on fixed rungs.
* Fits (``early-predict``): one labelled dataset of cycle-detail curves,
  built as ``scripts/run_sensitivity_experiment.py`` builds it, and every
  (budget, split seed) pair of a reduced sensitivity sweep, in rounds of one
  fit per budget.

This module imports ``kneescout.synthgen`` only to make inputs; nothing here
runs inside a timed region.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

# Curve lengths (cycles) of the fleet ladder; no rung sits near a power of
# two, where the matrix profile's FFT size doubles. The end rungs hold fewer
# cells so that, in the sorted identify latencies, both the median (on the
# 880 rung) and the tail (the 11th-slowest operation, on the 1950 rung)
# fall mid-block instead of on a jump between rungs.
RUNGS = (300, 400, 520, 680, 880, 1150, 1500, 1950, 2500)
CELLS_PER_RUNG = (5, 12, 12, 12, 12, 12, 12, 12, 5)
FLEET_SEED = 20230424
# Cycles between the start of the knee term and the truncation floor, for
# the parameter ranges below.
KNEE_TO_END = 80

IDENTIFY_PARAMS = {"sg_window": 81, "cac_window": 12}

EARLY_CELLS = 100
EARLY_LABEL_SEED = 42
BUDGETS = (15, 18, 21, 24, 27, 30, 33)
SPLIT_SEEDS = tuple(range(6))
TRAIN_FRAC = 0.8

# Seconds one pass over a workload's list takes at reference speed; a timed
# run makes as many whole passes as fit in its seconds, at least one.
LIST_SECONDS = {"identify-fleet": 12.9, "baseline-fleet": 4.55, "early-predict": 20.4}
# Rounds a traced run takes from the front of the list, 3-5 s of work at
# reference speed; it runs them once untraced and once traced.
TRACE_ROUNDS = {"identify-fleet": 4, "baseline-fleet": 12, "early-predict": 1}


@dataclass(frozen=True)
class FleetCell:
    rung: int
    index: int

    @property
    def cell_id(self) -> str:
        return f"r{self.rung:04d}-{self.index:02d}"


def fleet_cells() -> List[FleetCell]:
    return [FleetCell(r, i) for r, n in zip(RUNGS, CELLS_PER_RUNG) for i in range(n)]


def fleet_spec(cell: FleetCell):
    """The synthetic spec of one fleet cell (independent of the run seed)."""
    from kneescout import SyntheticSpec

    rng = np.random.default_rng([FLEET_SEED, cell.rung, cell.index])
    n_k = cell.rung - KNEE_TO_END + int(rng.integers(-10, 11))
    return SyntheticSpec(
        n_cycles=n_k + 400,
        a=float(rng.uniform(4e-4, 1e-3)),
        b=float(rng.uniform(0.002, 0.004)),
        c=float(rng.uniform(0.055, 0.07)),
        n_k=n_k,
        p=1.0,
        noise_sigma=0.001,
        seed=cell.rung * 1000 + cell.index,
    )


def _rounds(seed: int, members: Dict[int, Tuple[int, ...]]) -> List[List[Tuple[int, int]]]:
    """Every (group, member) pair once; round k holds the k-th member of each
    group that has one. The seed shuffles members and the order in a round."""
    rng = np.random.default_rng(seed)
    shuffled = {g: [int(m[i]) for i in rng.permutation(len(m))] for g, m in members.items()}
    rounds = []
    for k in range(max(len(m) for m in members.values())):
        groups = [g for g, m in shuffled.items() if k < len(m)]
        rounds.append([(groups[j], shuffled[groups[j]][k]) for j in rng.permutation(len(groups))])
    return rounds


def fleet_rounds(seed: int) -> List[List[FleetCell]]:
    members = {r: tuple(range(n)) for r, n in zip(RUNGS, CELLS_PER_RUNG)}
    return [[FleetCell(r, i) for r, i in rnd] for rnd in _rounds(seed, members)]


def write_fleet(cells: List[FleetCell], out_dir: Path) -> Dict[str, dict]:
    """Capacity CSV plus sidecar per cell; returns the ground truth by cell id."""
    from kneescout import generate

    truth = {}
    for cell in cells:
        series, gt = generate(fleet_spec(cell), cell_id=cell.cell_id)
        lines = ["cycle,discharge_capacity_ah"]
        lines += [f"{c},{float(q)!r}" for c, q in zip(series.cycles, series.capacity_ah)]
        (out_dir / f"{cell.cell_id}.csv").write_text("\n".join(lines) + "\n")
        (out_dir / f"{cell.cell_id}.meta.json").write_text(
            json.dumps({"cell_id": cell.cell_id, "q_nom_ah": series.q_nom_ah}) + "\n"
        )
        truth[cell.cell_id] = {
            "onset_cycle": None if gt is None else gt.onset_cycle,
            "knee_cycle": None if gt is None else gt.knee_cycle,
            "length": len(series),
        }
    return truth


def early_dataset() -> Tuple[List[dict], List[float]]:
    """Cycle records and onset labels of the labelled early-cycle cells."""
    from kneescout import SyntheticSpec, generate, simulate_cycle_records

    rng = np.random.default_rng(EARLY_LABEL_SEED)
    cells, labels = [], []
    for i in range(EARLY_CELLS):
        spec = SyntheticSpec(
            n_cycles=600, a=3e-4, b=3e-3, c=0.08,
            n_k=int(rng.integers(80, 421)), p=1.0, noise_sigma=0.001, seed=i,
        )
        _, truth = generate(spec)
        labels.append(float(truth.onset_cycle))
        cells.append(simulate_cycle_records(truth.onset_cycle, seed=10_000 + i))
    return cells, labels


def write_early(out_dir: Path) -> List[str]:
    """One cycle-detail CSV per cell plus ``labels.csv``; returns cell ids."""
    cells, labels = early_dataset()
    ids = [f"cell-{i:03d}" for i in range(len(cells))]
    for cell_id, records in zip(ids, cells):
        rows = ["cycle,voltage_v,discharge_capacity_ah"]
        for cyc in sorted(records):
            rec = records[cyc]
            rows += [f"{cyc},{float(v)!r},{float(q)!r}" for v, q in zip(rec.voltage_v, rec.q_ah)]
        (out_dir / f"{cell_id}.cycles.csv").write_text("\n".join(rows) + "\n")
    label_rows = ["cell_id,onset_cycle"] + [f"{c},{y!r}" for c, y in zip(ids, labels)]
    (out_dir / "labels.csv").write_text("\n".join(label_rows) + "\n")
    return ids


def fit_rounds(seed: int) -> List[List[Tuple[int, int]]]:
    return _rounds(seed, {b: SPLIT_SEEDS for b in BUDGETS})
