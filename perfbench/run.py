#!/usr/bin/env python3
"""knee-scout benchmark: three workloads, end-to-end metrics, a per-layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload identify-fleet --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1            # every workload
    python3 perfbench/run.py --workload baseline-fleet --trace 1  # per-layer trace

The parent process makes the seeded inputs as files, then starts fresh
interpreters running ``perfbench/worker.py``: a few that only set up (to time
set-up) and one that runs the workload. It checks every output against the
committed references and prints a table, a run record and, as the last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. It exits 1 if any operation failed and 2 if it cannot run.
See ``perfbench/README.md`` for the workloads and metric definitions.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("identify-fleet", "baseline-fleet", "early-predict")
METHOD = {"identify-fleet": "curvature_rea", "baseline-fleet": "double_bacon_watts"}
THREAD_CAP = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_CHILDREN = 2  # plus the timed worker's own set-up: three samples
TAIL_BEYOND = 10
PRED_TOL = 1e-6  # cycles; see README "Output check"
PEARSON_TOL = 1e-9
WORKER_TIMEOUT_S = 150

# Span names that must be non-empty on each workload: a layer the workload
# exercises never reports a silent zero.
EXPECTED = {
    "identify-fleet": ("ingest.load", "ingest.prep", "preprocess.smooth",
                       "preprocess.curvature", "matrixprofile.stamp", "segmentation.arc",
                       "segmentation.rea", "segmentation.identify", "report.pearson",
                       "report.format"),
    "baseline-fleet": ("ingest.load", "ingest.prep", "preprocess.smooth",
                       "baconwatts.report", "baconwatts.fit", "report.pearson",
                       "report.format"),
    "early-predict": ("ingest.load", "earlypredict.features", "earlypredict.split",
                      "earlypredict.train", "earlypredict.predict", "earlypredict.evaluate"),
}
EXPECTED_COUNTS = {
    "identify-fleet": ("matrixprofile.pairs", "ingest.rows"),
    "baseline-fleet": ("baconwatts.lm_iterations", "baconwatts.model_evals", "ingest.rows"),
    "early-predict": ("earlypredict.nodes", "ingest.rows"),
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def child_env():
    env = dict(os.environ, **{v: str(THREAD_CAP) for v in THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# --- inputs -----------------------------------------------------------------

def prepare(workload, seed, seconds, tiny, corrupt, work):
    """Write the seeded inputs to ``work``.

    Returns the manifest's path, the manifest the worker reads, and the
    reference outputs and ground truth of every operation in it.
    """
    import workloads as wl

    manifest = {"workload": workload, "work_dir": str(work)}
    if workload in METHOD:
        ref = json.loads((HERE / "reference" / "fleet.json").read_text())
        rounds = wl.fleet_rounds(seed)
        if tiny:
            rounds = [[c for c in rounds[0] if c.rung <= wl.RUNGS[2]]]
        wl.write_fleet([c for r in rounds for c in r], work)
        if corrupt:
            (work / f"{rounds[0][0].cell_id}.csv").write_text(
                "cycle,discharge_capacity_ah\n1,not-a-number\n")
        manifest["params"] = ref["params"]
        manifest["rounds"] = [[c.cell_id for c in r] for r in rounds]
        expect = {c: ref["cells"][c] for r in manifest["rounds"] for c in r}
    else:
        if corrupt:
            raise BenchError("--corrupt applies to the fleet workloads only")
        ref = json.loads((HERE / "reference" / "early.json").read_text())
        rounds = wl.fit_rounds(seed)
        if tiny:
            rounds = [rounds[0][:2]]
        fits = [f for r in rounds for f in r]
        manifest["cells"] = wl.write_early(work)
        manifest["train_frac"] = ref["train_frac"]
        manifest["rounds"] = [[list(f) for f in r] for r in rounds]
        expect = {"labels": ref["labels"],
                  "fits": {f"{b}:{s}": ref["fits"][f"{b}:{s}"] for b, s in fits}}
        expect["rows_per_file"] = [
            (work / f"{c}.cycles.csv").read_text().count("\n") - 1 for c in manifest["cells"]
        ]
    manifest["passes"] = 1 if tiny else max(1, int(seconds // wl.LIST_SECONDS[workload]))
    manifest["trace_rounds"] = manifest["rounds"][:wl.TRACE_ROUNDS[workload]]
    path = work / "manifest.json"
    path.write_text(json.dumps(manifest))
    return path, manifest, expect


def start_worker(manifest_path, mode, passes, out):
    """Run one fresh worker interpreter.

    Returns its result, its raw set-up seconds, and the set-up scaled to
    reference speed by the speed samples the worker took while setting up.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), "--manifest", str(manifest_path),
           "--out", str(out), "--mode", mode, "--passes", str(passes)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, timeout=WORKER_TIMEOUT_S,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise BenchError(f"worker ({mode}) exited {proc.returncode}:\n{proc.stderr.strip()}")
    result = json.loads(out.read_text())
    out.unlink()
    # perf_counter is CLOCK_MONOTONIC, shared by parent and child
    setup = result["ready"] - t0 - result["setup_inside_s"]
    return result, setup, setup * result["setup_factor"]


# --- checking ---------------------------------------------------------------

def check_ops(workload, ops, expect):
    """Mark each op failed if it raised or differs from its reference."""
    failed = 0
    for rec in ops:
        if "error" in rec:
            failed += 1
            continue
        if workload in METHOD:
            ok = rec["out"] == expect[rec["item"]][METHOD[workload]]
        else:
            ref = expect["fits"]["{}:{}".format(*rec["item"])]
            out = rec["out"]
            ok = (out["test"] == ref["test"]
                  and max(abs(a - b) for a, b in zip(out["pred"], ref["pred"])) <= PRED_TOL
                  and abs(out["rmse"] - ref["rmse"]) <= PRED_TOL)
        rec["ok"] = ok
        failed += not ok
    return failed


def check_reports(workload, reports, expect):
    """The end-of-list report: Pearson values and the batch CSV rows."""
    import numpy as np

    failed = 0
    method = METHOD.get(workload)
    for rep in reports:
        if "error" in rep:
            failed += 1
            continue
        refs = [(c, expect[c][method]) for c in rep["items"]]
        rows = [f"{c},{method},{o},{k},{'' if e is None else e},{k - o}" for c, (o, k, e) in refs]
        with_eol = [v for _, v in refs if v[2] is not None]
        eol = [v[2] for v in with_eol]
        want = [np.corrcoef([v[i] for v in with_eol], eol)[0, 1] for i in (0, 1)]
        lines = rep["csv"].splitlines()
        ok = (lines[1:1 + len(rows)] == rows
              and all(abs(a - b) <= PEARSON_TOL for a, b in zip(rep["pearson"], want)))
        failed += not ok
    return failed


# --- metrics ----------------------------------------------------------------

def tail(latencies):
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    k = max(n - 1 - TAIL_BEYOND, 0)
    return xs[k], (100.0 * k / (n - 1) if n > 1 else 100.0), n


def accuracy(workload, ops, expect):
    """(onset MAE, onset RMSE, knee MAE or None) over each distinct item once."""
    seen = {}
    for rec in ops:
        key = json.dumps(rec["item"])
        if "out" in rec and key not in seen:
            seen[key] = rec
    if workload in METHOD:
        errs = [(rec["out"][0] - expect[rec["item"]]["truth"][0],
                 rec["out"][1] - expect[rec["item"]]["truth"][1]) for rec in seen.values()]
        onset = [abs(e[0]) for e in errs]
        return (statistics.fmean(onset), math.sqrt(statistics.fmean(e * e for e in onset)),
                statistics.fmean(abs(e[1]) for e in errs))
    labels = expect["labels"]
    abs_err = [abs(p - labels[i]) for rec in seen.values()
               for i, p in zip(rec["out"]["test"], rec["out"]["pred"])]
    return (statistics.fmean(abs_err),
            statistics.fmean(rec["out"]["rmse"] for rec in seen.values()), None)


def layer_metrics(workload, result, untraced):
    spans, counts = result["spans"], result["counts"]
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    self_t = [d - c for d, c in zip(dur, child)]
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)
    for name in EXPECTED[workload]:
        if not by_name.get(name):
            raise BenchError(f"traced run recorded no {name!r} span on {workload}")
    for key in EXPECTED_COUNTS[workload]:
        if not counts.get(key):
            raise BenchError(f"traced run counted no {key!r} on {workload}")

    op_idx = by_name["op"]
    n_ops = len(op_idx)
    op_time = sum(dur[i] for i in op_idx)

    def total(*names):
        return sum(self_t[i] for n in names for i in by_name.get(n, ()))

    def per_op_ms(*names):
        return total(*names) / n_ops * 1e3

    loads = by_name.get("ingest.load", [])
    load_s = total("ingest.load")
    stamp_s = total("matrixprofile.stamp")
    n_reports = len(by_name.get("report", ()))
    traced_ops_per_s = n_ops / sum(rec["scaled_ms"] for rec in result["ops"]) * 1e3
    untraced_ops_per_s = (len(untraced["ops"])
                          / sum(rec["scaled_ms"] for rec in untraced["ops"]) * 1e3)
    values = {
        "matrixprofile.stamp_ms": per_op_ms("matrixprofile.stamp"),
        "matrixprofile.pairs": counts.get("matrixprofile.pairs", 0),
        "matrixprofile.pairs_per_us": counts.get("matrixprofile.pairs", 0) / (stamp_s * 1e6)
        if stamp_s else 0.0,
        "matrixprofile.stamp_share_pct": 100.0 * stamp_s / op_time,
        "preprocess.smooth_ms": per_op_ms("preprocess.smooth"),
        "preprocess.curvature_ms": per_op_ms("preprocess.curvature"),
        "segmentation.arc_ms": per_op_ms("segmentation.arc"),
        "segmentation.rea_ms": per_op_ms("segmentation.rea"),
        "segmentation.identify_self_ms": per_op_ms("segmentation.identify"),
        "baconwatts.fit_ms": per_op_ms("baconwatts.fit"),
        "baconwatts.lm_iterations": counts.get("baconwatts.lm_iterations", 0),
        "baconwatts.model_evals": counts.get("baconwatts.model_evals", 0),
        "baconwatts.unconverged": counts.get("baconwatts.unconverged", 0),
        "earlypredict.train_ms": per_op_ms("earlypredict.train"),
        "earlypredict.predict_ms": per_op_ms("earlypredict.predict"),
        "earlypredict.features_ms": per_op_ms("earlypredict.features"),
        "earlypredict.nodes": counts.get("earlypredict.nodes", 0),
        "ingest.load_ms": load_s / len(loads) * 1e3 if loads else 0.0,
        "ingest.rows": counts.get("ingest.rows", 0),
        "ingest.rows_per_s": counts.get("ingest.rows", 0) / load_s if load_s else 0.0,
        "ingest.prep_ms": per_op_ms("ingest.prep"),
        "report.format_ms": total("report.pearson", "report.format") / n_reports * 1e3
        if n_reports else 0.0,
        "run.cpu_per_wall": untraced["cpu_per_wall"],
        "run.span_coverage_pct": 100.0 * sum(child[i] for i in op_idx) / op_time,
        "run.trace_overhead_ops_per_s": traced_ops_per_s - untraced_ops_per_s,
    }
    coverage = [child[i] / dur[i] for i in op_idx]
    record = {
        "traced_ops": n_ops,
        "traced_ops_per_s": traced_ops_per_s,
        "untraced_ops_per_s": untraced_ops_per_s,
        "trace_overhead_pct": 100.0 * (traced_ops_per_s - untraced_ops_per_s) / untraced_ops_per_s,
        "span_coverage_min_pct": 100.0 * min(coverage),
        "spans": len(spans),
        "counts": counts,
        "self_ms_by_span": {n: total(n) * 1e3 for n in sorted(by_name)},
    }
    return values, record


# --- run record -------------------------------------------------------------

def git_sha():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def run_record(workload, seed, seconds, trace, manifest, expect, ops):
    import numpy as np
    import scipy

    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_sha": git_sha(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "thread_cap": {v: THREAD_CAP for v in THREAD_VARS},
    }
    if workload in METHOD:
        lengths = [expect[c]["length"] for r in manifest["rounds"] for c in r]
        record["inputs"] = {
            "cells": len(lengths), "curve_length_min": min(lengths),
            "curve_length_median": statistics.median(lengths), "curve_length_max": max(lengths),
            "rows_parsed": sum(expect[rec["item"]]["length"] for rec in ops),
            "cells_run": len(ops), "params": manifest["params"],
        }
    else:
        record["inputs"] = {
            "cells": len(manifest["cells"]), "rows_parsed": sum(expect["rows_per_file"]),
            "fits": sum(len(r) for r in manifest["rounds"]), "fits_run": len(ops),
            "fit_list": [f for r in manifest["rounds"] for f in r],
        }
    return record


# --- one workload -----------------------------------------------------------

def run_workload(workload, seed, seconds, trace, tiny=False, corrupt=False):
    work = ROOT / ".perfbench" / f"work-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        manifest_path, manifest, expect = prepare(workload, seed, seconds, tiny, corrupt, work)
        out = work / "result.json"
        if trace:
            result, _, _ = start_worker(manifest_path, "traced", 1, out)
            metrics, extra = layer_metrics(workload, result, result["untraced"])
            write_spans(workload, seed, result["spans"])
            ops = result["untraced"]["ops"] + result["ops"]
            reports = result["untraced"]["reports"] + result["reports"]
        else:
            setups = [start_worker(manifest_path, "setup", 0, out)[1:]
                      for _ in range(1 if tiny else SETUP_CHILDREN)]
            result, *setup = start_worker(manifest_path, "timed", manifest["passes"], out)
            setups.append(setup)
            ops, reports = result["ops"], result["reports"]
            lat = [rec["scaled_ms"] for rec in ops]
            raw = [rec["ms"] for rec in ops]
            tail_ms, tail_pct, n = tail(lat)
            onset_mae, onset_rmse, knee_mae = accuracy(workload, ops, expect)
            metrics = {
                "setup_s": statistics.median(s for _, s in setups),
                "ops_per_s": len(lat) / sum(lat) * 1e3,
                "op_ms_p50": statistics.median(lat),
                "op_ms_tail": tail_ms,
                "peak_rss_mb": result["peak_rss_mb"],
                "onset_mae_cycles": onset_mae,
                "onset_rmse_cycles": onset_rmse,
            }
            extra = {
                "tail_percentile": tail_pct, "latency_samples": n,
                "passes": manifest["passes"], "elapsed_s": result["elapsed_s"],
                "raw_ops_per_s": len(raw) / result["elapsed_s"],
                "raw_op_ms_p50": statistics.median(raw), "raw_op_ms_tail": tail(raw)[0],
                "raw_setup_s": statistics.median(r for r, _ in setups),
                "setup_samples_s": [s for _, s in setups],
                "speed_factor_median": statistics.median(rec["factor"] for rec in ops),
                "run.cpu_per_wall": result["cpu_per_wall"],
            }
            if knee_mae is not None:
                extra["knee_mae_cycles"] = knee_mae
        failed_ops = check_ops(workload, ops, expect)
        failed_reports = check_reports(workload, reports, expect)
        record = run_record(workload, seed, seconds, trace, manifest, expect, ops)
        record.update(extra)
        record["failed_ops"] = [
            {"item": rec["item"], "error": rec.get("error", "output differs from reference")}
            for rec in ops if not rec.get("ok")]
        return {"attempted": len(ops) + len(reports),
                "failed": failed_ops + failed_reports,
                "metrics": metrics, "record": record}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def write_spans(workload, seed, spans):
    out = ROOT / ".perfbench" / "traces"
    out.mkdir(parents=True, exist_ok=True)
    with open(out / f"{workload}-seed{seed}.jsonl", "w", encoding="utf-8") as fh:
        for name, start, end, parent, op in spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent, "op": op}) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="seconds of work at reference speed; the run makes as many whole passes "
                         "over the list as fit, at least one (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    ap.add_argument("--corrupt", action="store_true",
                    help="smoke test: corrupt the first input file of a fleet workload")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "kneescout" / "__init__.py").is_file():
        print(f"kneescout sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update({v: str(THREAD_CAP) for v in THREAD_VARS})
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    declared = {m["name"]: m for m in spec["per_layer" if args.trace else "end_to_end"]}

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        runs = {w: run_workload(w, args.seed, seconds, args.trace, args.tiny, args.corrupt)
                for w in names}
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w, run in runs.items():
        if set(run["metrics"]) != set(declared):
            print(f"{w}: metrics {sorted(run['metrics'])} differ from BENCHMARK.json",
                  file=sys.stderr)
            return 2
        print(f"== {w}  seed={args.seed}  trace={args.trace}  "
              f"attempted={run['attempted']}  failed={run['failed']}")
        for name, value in run["metrics"].items():
            m = declared[name]
            print(f"  {name:<34} {value:>16.6g} {m['unit']:<6} ({m['better']} is better)")
        print("run record: " + json.dumps(run["record"], sort_keys=True))
        final["attempted"] += run["attempted"]
        final["failed"] += run["failed"]
        prefix = "" if len(runs) == 1 else f"{w}/"
        final["metrics"].update({prefix + name: {"value": value, "unit": declared[name]["unit"]}
                                 for name, value in run["metrics"].items()})
    final["correct"] = final["failed"] == 0
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
