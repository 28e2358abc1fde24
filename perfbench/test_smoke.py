"""Smoke test of the benchmark itself, at tiny sizes.

Run from the repository root (about a minute and a half on two cores):

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("identify-fleet", "baseline-fleet", "early-predict")
COUNTS = ("matrixprofile.pairs", "baconwatts.lm_iterations", "baconwatts.model_evals",
          "earlypredict.nodes", "ingest.rows")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, root=ROOT):
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--seed", "3", *args],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    return proc


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def tiny_runs():
    runs = {}
    for w in WORKLOADS:
        for trace in ("0", "1"):
            proc = bench("--workload", w, "--tiny", "--seconds", "0.5", "--trace", trace)
            assert proc.returncode == 0, proc.stderr
            runs[w, trace] = proc
    return runs


@pytest.fixture
def scratch_tree():
    """A directory inside the checkout's ignored benchmark area, removed after."""
    path = ROOT / ".perfbench" / "smoke-tree"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", path)
    shutil.copytree(HERE, path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_with_unit_and_direction(tiny_runs, workload):
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        proc = tiny_runs[workload, trace]
        result = result_of(proc)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        declared = {m["name"]: m for m in SPEC[section]}
        assert set(result["metrics"]) == set(declared)
        table = proc.stdout
        for name, m in declared.items():
            assert result["metrics"][name]["unit"] == m["unit"]
            assert isinstance(result["metrics"][name]["value"], (int, float))
            line = next(ln for ln in table.splitlines() if ln.split()[:1] == [name])
            assert f" {m['unit']} " in line and f"({m['better']} is better)" in line
        if section == "end_to_end":
            assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(tiny_runs, workload):
    first = result_of(tiny_runs[workload, "1"])["metrics"]
    again = bench("--workload", workload, "--tiny", "--seconds", "0.5", "--trace", "1")
    assert again.returncode == 0, again.stderr
    second = result_of(again)["metrics"]
    for name in COUNTS:
        assert first[name]["value"] == second[name]["value"], name
    assert first["ingest.rows"]["value"] > 0


def test_corrupt_input_is_a_failed_operation():
    proc = bench("--workload", "identify-fleet", "--tiny", "--seconds", "0.5", "--corrupt")
    assert proc.returncode == 1, proc.stderr
    result = result_of(proc)
    assert result["correct"] is False
    assert 1 <= result["failed"] < result["attempted"]
    assert "not-a-number" in proc.stdout


def test_missing_wrapped_name_fails_the_traced_run(scratch_tree):
    shutil.copytree(ROOT / "src", scratch_tree / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    seg = scratch_tree / "src" / "kneescout" / "segmentation.py"
    seg.write_text(seg.read_text() + "\ndel stamp\n")
    proc = bench("--workload", "baseline-fleet", "--tiny", "--seconds", "0.5", "--trace", "1",
                 root=scratch_tree)
    assert proc.returncode == 2
    assert "kneescout.segmentation.stamp no longer exists" in proc.stderr
    assert '"correct"' not in proc.stdout


def test_refuses_to_run_without_the_program(scratch_tree):
    proc = bench("--workload", "identify-fleet", "--seconds", "1", root=scratch_tree)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
