"""The package namespace: each public name and submodule is imported on first use."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kneescout

SUBMODULES = ("baconwatts", "earlypredict", "errors", "ingest", "matrixprofile", "preprocess",
              "report", "rules", "segmentation", "synthgen")


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from kneescout import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == kneescout.__all__
    assert len(kneescout.__all__) == 48


def test_each_name_is_its_owners_object():
    for module, names in kneescout._EXPORTS.items():
        owner = importlib.import_module(f"kneescout.{module}")
        for name in names:
            assert getattr(kneescout, name) is getattr(owner, name), name


def test_submodules_resolve():
    for module in SUBMODULES:
        assert getattr(kneescout, module) is sys.modules[f"kneescout.{module}"]
    assert set(kneescout._EXPORTS) == set(SUBMODULES)
    assert set(dir(kneescout)) >= {*SUBMODULES, *kneescout.__all__, "__version__"}


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'kneescout' has no attribute 'nope'$"):
        kneescout.nope


def test_a_name_can_be_replaced_and_restored():
    # perfbench's tracer wraps package names this way
    original = kneescout.identify_knees
    try:
        kneescout.identify_knees = len
        assert kneescout.identify_knees is len
    finally:
        kneescout.identify_knees = original
    assert kneescout.identify_knees is original
    assert original is kneescout.segmentation.identify_knees


def loaded_modules(script: str, *argv: str) -> dict:
    """Run ``script`` in a fresh interpreter and return the JSON it prints."""
    src = str(Path(kneescout.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


SETUP = """
import json, sys
ours = lambda: sorted(m[len("kneescout."):] for m in sys.modules if m.startswith("kneescout."))
import kneescout.report
after_report = ours()
kneescout.PipelineParams
print(json.dumps({"after_report": after_report, "after_setup": ours()}))
"""

BATCH = """
import json, sys
from dataclasses import astuple
from kneescout.report import batch_report
from kneescout.synthgen import generate_fleet
cells = [series for series, _ in generate_fleet(3, seed=3, n_cycles=600)]
got = {"before": "kneescout.baconwatts" in sys.modules}
for jobs in (1, 2):
    rows, _ = batch_report(cells, ["curvature_rea", "double_bacon_watts"], jobs=jobs)
    got[f"after_jobs_{jobs}"] = "kneescout.baconwatts" in sys.modules
    got[f"rows_{jobs}"] = [astuple(r) for r in rows]
print(json.dumps(got))
"""

# the modules that the curvature pipeline needs, and the report module
IDENTIFY_FLEET = ["errors", "ingest", "matrixprofile", "preprocess", "report", "rules",
                  "segmentation"]


@pytest.mark.floors
class TestImportGraph:
    """Marked floors: at the oldest NumPy and SciPy too, ``kneescout.report`` compiles
    only the curvature pipeline, and a batch imports a method's module on its first call.
    A fleet worker's set-up time is mostly the modules it compiles.
    """

    def test_report_and_the_identify_fleet_setup_load_only_curvature(self):
        got = loaded_modules(SETUP)
        assert got["after_report"] == got["after_setup"] == IDENTIFY_FLEET

    def test_a_batch_loads_baconwatts_on_its_first_call(self):
        got = loaded_modules(BATCH)
        assert (got["before"], got["after_jobs_1"]) == (False, True)
        assert got["rows_1"] == got["rows_2"]
        assert [row[1] for row in got["rows_1"]] == ["curvature_rea", "double_bacon_watts"] * 3
