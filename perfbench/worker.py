"""One workload process: import kneescout, load the inputs, run the operations.

Run by ``perfbench/run.py``; not meant to be started by hand. Modes:

* ``setup``: stop as soon as the first operation could start and report
  that moment, so the parent can time a fresh interpreter's set-up.
* ``timed``: run the whole operation list ``--passes`` times.
* ``traced``: run the list once untraced and once under the tracer, and
  write the spans out at the end.

The result (outputs, latencies, resource use, spans) goes to ``--out`` as
JSON; checking it against the references is the parent's job.
"""

import argparse
import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from speed import Speedometer


def build_ops(ks, manifest):
    """Load the workload's up-front inputs; return (op, report) callables."""
    import kneescout.report as ks_report
    import numpy as np

    work = Path(manifest["work_dir"])
    workload = manifest["workload"]

    if workload in ("identify-fleet", "baseline-fleet"):
        params = ks.PipelineParams(**manifest["params"])
        if workload == "identify-fleet":
            method = "curvature_rea"
            run = lambda series: ks.identify_knees(series, params)  # noqa: E731
        else:
            method = "double_bacon_watts"
            run = lambda series: ks.dbw_knee_report(series, params)  # noqa: E731

        def op(cell_id):
            rep = run(ks.load_capacity_csv(work / f"{cell_id}.csv"))
            return [rep.onset_cycle, rep.knee_cycle, rep.eol_cycle]

        def report(cell_ids, outputs):
            rows = [
                ks.BatchRow(c, method, o, k, e, k - o)
                for c, (o, k, e) in zip(cell_ids, outputs)
            ]
            with_eol = [r for r in rows if r.eol_cycle is not None]
            eol = [r.eol_cycle for r in with_eol]
            r_onset = ks.pearson([r.onset_cycle for r in with_eol], eol)
            r_knee = ks.pearson([r.knee_cycle for r in with_eol], eol)
            corr = ks.CorrelationReport(
                r_onset, r_knee, len(with_eol), len(rows) - len(with_eol),
                float(np.mean([r.gap for r in rows])),
            )
            text = ks_report.format_batch_csv(rows, {method: corr})
            return {"pearson": [r_onset, r_knee], "csv": text}

        return op, report

    cells = [ks.load_cycle_detail_csv(work / f"{c}.cycles.csv") for c in manifest["cells"]]
    labels = {}
    with open(work / "labels.csv", encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            cell_id, onset = line.strip().split(",")
            labels[cell_id] = float(onset)
    y = np.array([labels[c] for c in manifest["cells"]])
    train_frac = manifest["train_frac"]

    def op(item):
        budget, split_seed = item
        X = np.vstack([ks.extract_features(rec, budget=budget).as_array() for rec in cells])
        train, test = ks.stratified_split(y, train_frac, seed=split_seed)
        model = ks.gbrt_train(X[train], y[train])
        pred = ks.gbrt_predict(model, X[test])
        scores = ks.evaluate(y[test], pred)
        return {"test": test.tolist(), "pred": pred.tolist(), "rmse": scores["rmse"]}

    return op, None


def run_list(rounds, op, report, passes, tracer=None):
    """Run the list of rounds ``passes`` times; report after each full list."""

    def span(op_id, name):
        if tracer is None:
            return nullcontext()
        tracer.op = op_id
        return tracer.span(name)

    ops, reports = [], []
    t_start, cpu_start = time.perf_counter(), time.process_time()
    for _ in range(passes):
        items = [item for rnd in rounds for item in rnd]
        outputs = []
        for item in items:
            record = {"item": item}
            meter = Speedometer()
            out = None
            try:
                with meter, span(len(ops), "op"):
                    out = op(item)
                record["out"] = out
            except Exception as exc:  # one bad input must not end the run
                record["error"] = f"{type(exc).__name__}: {exc}"
            record.update(ms=meter.raw_s * 1e3, scaled_ms=meter.scaled_s * 1e3,
                          factor=meter.factor)
            ops.append(record)
            outputs.append(out)
        if report is None:
            continue
        entry = {"items": items}
        try:
            with span("report", "report"):
                entry.update(report(items, outputs))
        except Exception as exc:
            entry["error"] = f"{type(exc).__name__}: {exc}"
        reports.append(entry)
    elapsed = time.perf_counter() - t_start
    return {
        "ops": ops,
        "reports": reports,
        "elapsed_s": elapsed,
        "cpu_per_wall": (time.process_time() - cpu_start) / elapsed,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--manifest", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    ap.add_argument("--passes", type=int, default=1)
    args = ap.parse_args(argv)

    with Speedometer() as setup:
        import kneescout as ks

        manifest = json.loads(Path(args.manifest).read_text(encoding="utf-8"))
        tracer = None
        if args.mode == "traced":
            from tracer import Tracer

            tracer = Tracer()
            tracer.op = "setup"
            tracer.install()
        op, report = build_ops(ks, manifest)
    result = {"ready": setup.t1, "setup_inside_s": setup.inside_s, "setup_factor": setup.factor}

    if args.mode == "timed":
        result.update(run_list(manifest["rounds"], op, report, args.passes))
    elif args.mode == "traced":
        tracer.uninstall()
        rounds = manifest["trace_rounds"]
        result["untraced"] = run_list(rounds, op, report, 1)
        tracer.install()
        result.update(run_list(rounds, op, report, 1, tracer))
        tracer.uninstall()
        result["spans"] = tracer.spans
        result["counts"] = dict(tracer.counts)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(2)
