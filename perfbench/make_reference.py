#!/usr/bin/env python3
"""Regenerate the committed reference outputs of every benchmark operation.

Run from the repository root:

    python3 perfbench/make_reference.py

It writes ``perfbench/reference/fleet.json`` (onset, knee and EoL cycle of
every fleet cell under both methods, with its ground truth and length)
and ``perfbench/reference/early.json`` (test indices, predicted onsets and
test RMSE of every fit). Regenerate only when a change is meant
to alter the program's outputs, and say so in the change.
"""

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import kneescout as ks  # noqa: E402
import workloads as wl  # noqa: E402
from worker import build_ops  # noqa: E402


def fleet_reference(work: Path) -> dict:
    cells_list = wl.fleet_cells()
    truth = wl.write_fleet(cells_list, work)
    cells = {c: {"length": t["length"], "truth": [t["onset_cycle"], t["knee_cycle"]]}
             for c, t in truth.items()}
    for workload, method in (("identify-fleet", "curvature_rea"),
                             ("baseline-fleet", "double_bacon_watts")):
        manifest = {"workload": workload, "work_dir": str(work), "params": wl.IDENTIFY_PARAMS}
        op, _ = build_ops(ks, manifest)
        for cell in cells_list:
            cells[cell.cell_id][method] = op(cell.cell_id)
            print(workload, cell.cell_id, cells[cell.cell_id][method], flush=True)
    return {"params": wl.IDENTIFY_PARAMS, "cells": cells}


def early_reference(work: Path) -> dict:
    ids = wl.write_early(work)
    manifest = {"workload": "early-predict", "work_dir": str(work), "cells": ids,
                "train_frac": wl.TRAIN_FRAC}
    op, _ = build_ops(ks, manifest)
    _, labels = wl.early_dataset()
    fits = {}
    for budget, split_seed in ((b, s) for b in wl.BUDGETS for s in wl.SPLIT_SEEDS):
        fits[f"{budget}:{split_seed}"] = op((budget, split_seed))
        print("early-predict", budget, split_seed, fits[f"{budget}:{split_seed}"]["rmse"], flush=True)
    return {"train_frac": wl.TRAIN_FRAC, "labels": labels, "fits": fits}


def main():
    out = HERE / "reference"
    out.mkdir(exist_ok=True)
    for name, build in (("fleet", fleet_reference), ("early", early_reference)):
        work = ROOT / ".perfbench" / f"reference-{name}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            ref = build(work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        (out / f"{name}.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
