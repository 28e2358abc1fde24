"""The accuracy ledger: ``ACCURACY.md`` is what ``python tests/scoring.py``
prints, so a change that moves any accuracy figure fails here until the same
change writes the file again (its first lines give the command)."""

import difflib
from pathlib import Path

from scoring import ledger

LEDGER = Path(__file__).resolve().parents[1] / "ACCURACY.md"


def test_accuracy_ledger_is_current():
    committed, rebuilt = LEDGER.read_text(encoding="utf-8"), ledger()
    diff = "".join(difflib.unified_diff(committed.splitlines(True), rebuilt.splitlines(True),
                                        "ACCURACY.md", "python tests/scoring.py"))
    assert committed == rebuilt, f"the accuracy ledger is stale:\n{diff}"
