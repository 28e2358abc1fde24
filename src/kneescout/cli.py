"""knee-scout command line: identification, baselines, synthesis, prediction.

Exit codes: 0 success, 1 input/usage error, 2 numerical failure. Errors
raised while loading inputs map to 1; anything the numerical pipeline
raises (including short-series preconditions surfaced mid-fit) maps to 2.
All file outputs are written atomically (temp file, then rename).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .baconwatts import dbw_knee_report
from .config import GBRTHyper, PipelineParams
from .earlypredict import (
    FEATURE_NAMES,
    GBRTModel,
    extract_features,
    gbrt_predict,
    gbrt_train,
    load_cycle_detail_csv,
    sensitivity_sweep,
)
from .errors import InputError, KneeScoutError, MalformedRow
from .ingest import load_capacity_csv
from .report import batch_report, format_batch_csv, write_report_dir
from .segmentation import KneeReport, identify_knees
from .synthgen import generate_convex_family, generate_fleet, simulate_cycle_records

METHOD_ALIASES = {
    "curvature": "curvature_rea",
    "curvature_rea": "curvature_rea",
    "baconwatts": "double_bacon_watts",
    "double_bacon_watts": "double_bacon_watts",
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exit code 1, not 2."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _read_input_text(path, encoding: str = "utf-8") -> str:
    try:
        return Path(path).read_text(encoding=encoding)
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise InputError(f"cannot read {path}: {reason}") from None


def _atomic_write_text(path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp{os.getpid()}")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _report_json(report: KneeReport, params: PipelineParams) -> str:
    payload = {
        "cell_id": report.cell_id,
        "method": report.method,
        "onset_cycle": report.onset_cycle,
        "knee_cycle": report.knee_cycle,
        "eol_cycle": report.eol_cycle,
        "params": {
            "sg_window": params.sg_window,
            "sg_order": params.sg_order,
            "curv_window": params.curv_window,
            "mp_window": params.mp_window,
            "cac_window": params.cac_window,
            "exclusion_radius": params.exclusion_radius,
        },
        "diagnostics": report.diagnostics,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _read_config(path) -> dict:
    values = {}
    for lineno, raw in enumerate(_read_input_text(path).splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        values[key] = value
    return values


_INT_KEYS = {
    "sg_window", "sg_order", "curv_window", "mp_window", "cac_window",
    "exclusion_radius", "max_iter", "seed",
}
_FLOAT_KEYS = {"eol_threshold", "gamma"}


def _resolve_params(args, config: dict) -> PipelineParams:
    unknown = set(config) - _INT_KEYS - _FLOAT_KEYS
    if unknown:
        raise InputError(f"unknown config keys: {', '.join(sorted(unknown))}")
    kwargs = {}
    for key in (*_INT_KEYS, *_FLOAT_KEYS):
        flag = getattr(args, key, None)
        if flag is not None:
            kwargs[key] = flag
        elif key in config:
            cast = int if key in _INT_KEYS else float
            try:
                kwargs[key] = cast(config[key])
            except ValueError:
                raise InputError(
                    f"config key {key}: expected {cast.__name__}, got {config[key]!r}"
                ) from None
    if kwargs.get("max_iter", 1) < 1:
        raise _UsageError(f"config key max_iter: must be >= 1, got {kwargs['max_iter']}")
    return PipelineParams(**kwargs)


def _add_pipeline_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sg-window", dest="sg_window", type=int, default=None)
    p.add_argument("--sg-order", dest="sg_order", type=int, default=None)
    p.add_argument("--curv-window", dest="curv_window", type=int, default=None)
    p.add_argument("--mp-window", dest="mp_window", type=int, default=None)
    p.add_argument("--cac-window", dest="cac_window", type=int, default=None)
    p.add_argument("--exclusion", dest="exclusion_radius", type=int, default=None)
    p.add_argument("--eol-threshold", dest="eol_threshold", type=float, default=None)


def _build_parser() -> _Parser:
    parser = _Parser(prog="knee-scout", description=__doc__)
    parser.add_argument("--version", action="version", version=f"knee-scout {__version__}")
    parser.add_argument("--json-errors", action="store_true")
    parser.add_argument("--config", default=None, help="key=value parameter file")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("identify", help="curvature-based knee identification")
    p.add_argument("--input", required=True)
    p.add_argument("--q-nom", type=float, default=None)
    p.add_argument("--cell-id", default=None)
    _add_pipeline_flags(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("baconwatts", help="double Bacon-Watts baseline")
    p.add_argument("--input", required=True)
    p.add_argument("--q-nom", type=float, default=None)
    p.add_argument("--cell-id", default=None)
    p.add_argument("--gamma", dest="gamma", type=float, default=None)
    p.add_argument("--max-iter", dest="max_iter", type=_positive_int, default=None)
    _add_pipeline_flags(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("batch", help="identify a directory of capacity CSVs")
    p.add_argument("--dir", required=True)
    p.add_argument("--methods", default="curvature,baconwatts")
    p.add_argument("--jobs", type=_positive_int, default=1)
    _add_pipeline_flags(p)
    p.add_argument("--out", required=True, help="table .csv path or report directory")

    p = sub.add_parser("synth", help="generate synthetic capacity curves")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--n-cycles", type=int, default=2000,
                   help="fleet curve length (ignored with --convex)")
    p.add_argument("--convex", action="store_true")
    p.add_argument("--with-cycle-data", action="store_true")
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("features", help="extract early-prediction features")
    p.add_argument("--cycles", required=True, help="cycle-detail CSV or directory")
    p.add_argument("--budget", type=int, default=30)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train the knee-onset predictor")
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--n-trees", type=_positive_int, default=None)
    p.add_argument("--learning-rate", type=float, default=None)
    p.add_argument("--max-depth", type=int, default=None)
    p.add_argument("--min-leaf", type=int, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("predict", help="predict knee onsets from features")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("sensitivity", help="cycle-budget sensitivity sweep")
    p.add_argument("--dir", required=True)
    p.add_argument("--budgets", default="15:35")
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", required=True)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    json_errors = getattr(args, "json_errors", False)
    try:
        if args.command is None:
            raise _UsageError(parser.format_usage())
        config = _read_config(args.config) if args.config else {}
        return _dispatch(args, config)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except KneeScoutError as exc:
        numerical = not isinstance(exc, InputError) or getattr(exc, "_numerical", False)
        code = 2 if numerical else 1
        _emit_error(exc, code, json_errors)
        return code


def _emit_error(exc: Exception, code: int, as_json: bool) -> None:
    if as_json:
        print(
            json.dumps(
                {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
            ),
            file=sys.stderr,
        )
    else:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)


class _NumericalPhase:
    """Inside this block, any pipeline error is a numerical failure (exit 2).

    Precondition errors surfaced mid-computation (a fit rejecting a short
    series, say) count as numerical failures even though their class sits
    under InputError.
    """

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc is not None and isinstance(exc, KneeScoutError):
            exc._numerical = True
        return False


def _dispatch(args, config: dict) -> int:
    cmd = args.command
    if cmd == "identify" or cmd == "baconwatts":
        params = _resolve_params(args, config)
        series = load_capacity_csv(args.input, cell_id=args.cell_id, q_nom_ah=args.q_nom)
        with _NumericalPhase():
            if cmd == "identify":
                report = identify_knees(series, params)
            else:
                report = dbw_knee_report(series, params)
        _atomic_write_text(args.out, _report_json(report, params))
        return 0

    if cmd == "batch":
        return _cmd_batch(args, config)
    if cmd == "synth":
        return _cmd_synth(args)
    if cmd == "features":
        return _cmd_features(args)
    if cmd == "train":
        return _cmd_train(args)
    if cmd == "predict":
        return _cmd_predict(args)
    if cmd == "sensitivity":
        return _cmd_sensitivity(args)
    raise _UsageError(f"unknown subcommand {cmd!r}")


def _capacity_files(directory) -> list:
    directory = Path(directory)
    if not directory.is_dir():
        raise InputError(f"{directory} is not a directory")
    files = sorted(
        p for p in directory.glob("*.csv") if not p.name.endswith(".cycles.csv")
    )
    if not files:
        raise InputError(f"no capacity CSVs found in {directory}")
    return files


def _cmd_batch(args, config: dict) -> int:
    params = _resolve_params(args, config)
    try:
        methods = tuple(METHOD_ALIASES[m.strip()] for m in args.methods.split(","))
    except KeyError as exc:
        raise _UsageError(f"unknown method {exc.args[0]!r}") from None
    series_list = [load_capacity_csv(p) for p in _capacity_files(args.dir)]
    with _NumericalPhase():
        rows, correlations = batch_report(
            series_list, methods=methods, params=params, jobs=args.jobs
        )
    out = Path(args.out)
    if out.suffix == ".csv":
        _atomic_write_text(out, format_batch_csv(rows, correlations))
    else:
        write_report_dir(rows, correlations, out, _atomic_write_text)
    return 0


def _cmd_synth(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.convex:
        curves = generate_convex_family(args.count, seed=args.seed)
    else:
        curves = generate_fleet(args.count, seed=args.seed, n_cycles=args.n_cycles)
    for series, truth in curves:
        lines = ["cycle,discharge_capacity_ah"]
        lines += [
            f"{c},{float(q)!r}" for c, q in zip(series.cycles, series.capacity_ah)
        ]
        _atomic_write_text(out_dir / f"{series.cell_id}.csv", "\n".join(lines) + "\n")
        _atomic_write_text(
            out_dir / f"{series.cell_id}.meta.json",
            json.dumps(
                {"cell_id": series.cell_id, "q_nom_ah": series.q_nom_ah},
                sort_keys=True,
            )
            + "\n",
        )
        truth_obj = (
            None
            if truth is None
            else {
                "onset_cycle": truth.onset_cycle,
                "knee_cycle": truth.knee_cycle,
                "definition": truth.definition,
            }
        )
        _atomic_write_text(
            out_dir / f"{series.cell_id}.truth.json",
            json.dumps({"cell_id": series.cell_id, "ground_truth": truth_obj},
                       indent=2, sort_keys=True) + "\n",
        )
        if args.with_cycle_data and truth is not None:
            records = simulate_cycle_records(
                truth.onset_cycle, seed=_records_seed(series.cell_id)
            )
            rows = ["cycle,voltage_v,discharge_capacity_ah"]
            for cyc in sorted(records):
                rec = records[cyc]
                rows += [
                    f"{cyc},{float(v)!r},{float(q)!r}"
                    for v, q in zip(rec.voltage_v, rec.q_ah)
                ]
            _atomic_write_text(
                out_dir / f"{series.cell_id}.cycles.csv", "\n".join(rows) + "\n"
            )
    return 0


def _records_seed(cell_id: str) -> int:
    return sum(ord(ch) for ch in cell_id) * 7919 % (2**31)


def _cycle_files(path) -> list:
    path = Path(path)
    if path.is_dir():
        files = sorted(path.glob("*.cycles.csv"))
        if not files:
            raise InputError(f"no *.cycles.csv files in {path}")
        return files
    return [path]


def _cell_id_of(path: Path) -> str:
    name = path.name
    if name.endswith(".cycles.csv"):
        return name[: -len(".cycles.csv")]
    return path.stem


def _cmd_features(args) -> int:
    lines = ["cell_id," + ",".join(FEATURE_NAMES)]
    for path in _cycle_files(args.cycles):
        records = load_cycle_detail_csv(path)
        with _NumericalPhase():
            feats = extract_features(records, budget=args.budget)
        values = ",".join(repr(float(v)) for v in feats.as_array())
        lines.append(f"{_cell_id_of(path)},{values}")
    _atomic_write_text(args.out, "\n".join(lines) + "\n")
    return 0


def _csv_rows(path):
    """A csv reader over a whole input file; a missing file is an InputError."""
    return csv.reader(io.StringIO(_read_input_text(path, "utf-8-sig"), newline=""))


def _read_feature_csv(path):
    reader = _csv_rows(path)
    expected = ["cell_id", *FEATURE_NAMES]
    if [h.strip() for h in next(reader, [])] != expected:
        raise InputError(f"{path}: expected header {','.join(expected)!r}")
    ids, rows = [], []
    for row in reader:
        if not row:
            continue
        try:
            values = [float(v) for v in row[1:]]
        except ValueError:
            values = None
        if values is None or len(values) != len(FEATURE_NAMES):
            raise MalformedRow(
                f"{path}: line {reader.line_num}: expected {len(FEATURE_NAMES)}"
                f" numeric features, got {','.join(row[1:])!r}"
            )
        ids.append(row[0])
        rows.append(values)
    return ids, np.array(rows)


def _read_labels_csv(path) -> dict:
    reader = _csv_rows(path)
    if [h.strip() for h in next(reader, [])] != ["cell_id", "onset_cycle"]:
        raise InputError(f"{path}: expected header 'cell_id,onset_cycle'")
    labels = {}
    for row in reader:
        if not row:
            continue
        try:
            cell_id, onset = row
            labels[cell_id] = float(onset)
        except ValueError:
            raise MalformedRow(
                f"{path}: line {reader.line_num}: expected cell_id and a numeric"
                f" onset_cycle, got {','.join(row)!r}"
            ) from None
    return labels


_HYPER_FLAGS = ("n_trees", "learning_rate", "max_depth", "min_leaf")


def _cmd_train(args) -> int:
    ids, X = _read_feature_csv(args.features)
    labels = _read_labels_csv(args.labels)
    missing = [i for i in ids if i not in labels]
    if missing:
        raise InputError(f"labels file lacks cells: {', '.join(missing[:5])}")
    y = np.array([labels[i] for i in ids])
    flags = {k: getattr(args, k) for k in _HYPER_FLAGS if getattr(args, k) is not None}
    hyper = replace(GBRTHyper(), **flags)
    with _NumericalPhase():
        model = gbrt_train(X, y, hyper)
    _atomic_write_text(args.out, model.to_json() + "\n")
    return 0


def _cmd_predict(args) -> int:
    ids, X = _read_feature_csv(args.features)
    model = GBRTModel.from_json(_read_input_text(args.model))
    with _NumericalPhase():
        preds = gbrt_predict(model, X)
    lines = ["cell_id,predicted_onset_cycle"]
    lines += [f"{i},{float(p)!r}" for i, p in zip(ids, preds)]
    text = "\n".join(lines) + "\n"
    if args.out:
        _atomic_write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _parse_budgets(spec: str) -> range:
    parts = spec.split(":")
    try:
        if len(parts) == 1:
            v = int(parts[0])
            return range(v, v + 1)
        if len(parts) == 2:
            return range(int(parts[0]), int(parts[1]) + 1)
        if len(parts) == 3:
            return range(int(parts[0]), int(parts[1]) + 1, int(parts[2]))
    except ValueError:
        pass
    raise _UsageError(f"cannot parse --budgets {spec!r} (expected LO:HI)")


def _cmd_sensitivity(args) -> int:
    files = _cycle_files(args.dir)
    cells, labels = [], []
    for path in files:
        truth_path = path.with_name(path.name.replace(".cycles.csv", ".truth.json"))
        if not truth_path.exists():
            raise InputError(f"missing {truth_path.name} next to {path.name}")
        truth = json.loads(truth_path.read_text(encoding="utf-8"))
        gt = truth.get("ground_truth")
        if not gt:
            continue
        cells.append(load_cycle_detail_csv(path))
        labels.append(float(gt["onset_cycle"]))
    if not cells:
        raise InputError(f"no labeled cycle data found in {args.dir}")
    with _NumericalPhase():
        table = sensitivity_sweep(
            cells,
            labels,
            budgets=_parse_budgets(args.budgets),
            repeats=args.repeats,
            seed=args.seed,
        )
    lines = ["budget,mean_rmse,mean_mape"]
    lines += [
        f"{int(row['budget'])},{row['mean_rmse']!r},{row['mean_mape']!r}"
        for row in table
    ]
    _atomic_write_text(args.out, "\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
