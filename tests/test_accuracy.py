"""The accuracy ledger: ``ACCURACY.md`` is what ``python tests/scoring.py``
prints, so a change that moves any accuracy figure fails here until the same
change writes the file again (its first lines give the command)."""

import difflib
import json

from kneescout import PipelineParams, dbw_knee_report, identify_knees
from perfbench import workloads

from scoring import ACCEPT, ROOT, family, ledger, scores

LEDGER = ROOT / "ACCURACY.md"
BENCH_REFERENCE = ROOT / "perfbench" / "reference" / "fleet.json"


def test_accuracy_ledger_is_current():
    committed, rebuilt = LEDGER.read_text(encoding="utf-8"), ledger()
    diff = "".join(difflib.unified_diff(committed.splitlines(True), rebuilt.splitlines(True),
                                        "ACCURACY.md", "python tests/scoring.py"))
    assert committed == rebuilt, f"the accuracy ledger is stale:\n{diff}"


def test_bench_rows_score_the_benchmark_references():
    # the ledger's bench rows and the benchmark's accuracy metrics score the same
    # reports: each cell's errors follow from the committed reference outputs
    reference = json.loads(BENCH_REFERENCE.read_text(encoding="utf-8"))
    assert PipelineParams(**reference["params"]) == ACCEPT
    assert PipelineParams(**workloads.IDENTIFY_PARAMS) == ACCEPT
    ids = [series.cell_id for series, _ in family("bench")]
    assert sorted(ids) == sorted(reference["cells"])
    for method, key in ((identify_knees, "curvature_rea"), (dbw_knee_report, "double_bacon_watts")):
        for cell_id, score in zip(ids, scores("bench", method, ACCEPT)):
            cell = reference["cells"][cell_id]
            (onset, knee, _), (true_onset, true_knee) = cell[key], cell["truth"]
            assert (score.onset_error, score.knee_error) == (
                abs(onset - true_onset), abs(knee - true_knee)), (key, cell_id)
