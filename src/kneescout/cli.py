"""knee-scout command line: identification, baselines, synthesis, prediction.

Each command loads its inputs, computes, then writes its outputs. An
error's exit code is set by the phase it is raised in, not by its class:
1 while parsing the command line, loading or writing (an unwritable output
path too), 2 while computing (a fit rejecting a too-short series too).
Outputs are written atomically (temp file, then rename).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path
from typing import Optional, get_type_hints

import numpy as np

from . import __version__
from .baconwatts import dbw_knee_report
from .config import GBRTHyper, PipelineParams
from .earlypredict import (
    CYCLE_DETAIL_HEADER,
    FEATURES_HEADER,
    LABELS_HEADER,
    PREDICTIONS_HEADER,
    SENSITIVITY_HEADER,
    GBRTModel,
    extract_features,
    gbrt_predict,
    gbrt_train,
    load_cycle_detail_csv,
    sensitivity_sweep,
)
from .errors import InputError, KneeScoutError
from .ingest import (
    CAPACITY_HEADER,
    check_cell_id,
    csv_text,
    load_capacity_csv,
    parse_json,
    read_csv,
    read_text,
    write_text,
)
from .report import batch_report, check_methods, format_batch_csv, write_report_dir
from .segmentation import KneeReport, identify_knees
from .synthgen import generate_convex_family, generate_fleet, simulate_cycle_records

# short names for --methods; the canonical names are report.METHODS
METHOD_ALIASES = {"curvature": "curvature_rea", "baconwatts": "double_bacon_watts"}


class UsageError(Exception):
    """A bad command line: exit code 1."""


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exit code 1, not 2."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _report_json(report: KneeReport, params: PipelineParams) -> str:
    payload = asdict(report)
    payload["params"] = {
        key: getattr(params, key)
        for key in ("sg_window", "sg_order", "curv_window", "mp_window",
                    "cac_window", "exclusion_radius")
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _read_config(path) -> dict:
    values = {}
    for lineno, raw in enumerate(read_text(path).splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        values[key] = value
    return values


_HINTS = get_type_hints(PipelineParams)
# every PipelineParams field is a config key, read as int or float
_CONFIG_CASTS = {
    f.name: int if _HINTS[f.name] in (int, Optional[int]) else float
    for f in fields(PipelineParams)
}


def _resolve_params(args, config: dict) -> PipelineParams:
    unknown = set(config) - set(_CONFIG_CASTS)
    if unknown:
        raise InputError(f"unknown config keys: {', '.join(sorted(unknown))}")
    kwargs = {}
    for key, cast in _CONFIG_CASTS.items():
        flag = getattr(args, key, None)
        if flag is not None:
            kwargs[key] = flag
        elif key in config:
            try:
                kwargs[key] = cast(config[key])
            except ValueError:
                raise InputError(
                    f"config key {key}: expected {cast.__name__}, got {config[key]!r}"
                ) from None
    params = PipelineParams(**kwargs)
    if params.max_iter < 1:
        raise InputError(f"config key max_iter: must be >= 1, got {params.max_iter}")
    if not 0 < params.eol_threshold < 1:
        raise InputError(f"eol_threshold: must be in (0, 1), got {params.eol_threshold}")
    return params


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
    parser.add_argument("--config", default=None,
                        help="key=value parameter file (identify, baconwatts, batch)")
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
    p.add_argument("--repeats", type=_positive_int, default=5)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", required=True)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # known before parsing, so that argparse errors honour it too
    json_errors = "--json-errors" in argv
    code = 1  # the phase decides: computing is 2, parsing, loading and writing 1
    try:
        parser = _build_parser()
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError(parser.format_usage())
        if args.config is not None and args.command not in CONFIG_COMMANDS:
            raise UsageError(f"--config applies to {', '.join(CONFIG_COMMANDS)} only,"
                             f" not {args.command}")
        load, compute, write = COMMANDS[args.command]
        inputs = load(args, _read_config(args.config) if args.config is not None else {})
        code = 2
        result = compute(*inputs)
        code = 1
        write(args, inputs, result)
        return 0
    except (UsageError, KneeScoutError) as exc:
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
    elif isinstance(exc, UsageError):
        print(str(exc), file=sys.stderr)
    else:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)


def _load_cell(args, config: dict):
    params = _resolve_params(args, config)
    return load_capacity_csv(args.input, cell_id=args.cell_id, q_nom_ah=args.q_nom), params


def _write_report(args, inputs, report: KneeReport) -> None:
    write_text(args.out, _report_json(report, params=inputs[1]))


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


def _load_batch(args, config: dict):
    params = _resolve_params(args, config)
    methods = tuple(METHOD_ALIASES.get(m.strip(), m.strip()) for m in args.methods.split(","))
    try:
        check_methods(methods)
    except InputError as exc:
        raise UsageError(str(exc)) from None
    series_list = [load_capacity_csv(p) for p in _capacity_files(args.dir)]
    return series_list, methods, params, args.jobs


def _write_batch(args, inputs, result) -> None:
    if Path(args.out).suffix == ".csv":
        write_text(args.out, format_batch_csv(*result))
    else:
        write_report_dir(*result, args.out)


def _load_synth(args, config: dict):
    if args.convex:
        curves = generate_convex_family(args.count, seed=args.seed)
    else:
        curves = generate_fleet(args.count, seed=args.seed, n_cycles=args.n_cycles)
    return curves, args.with_cycle_data


def _records_seed(cell_id: str) -> int:
    return sum(ord(ch) for ch in cell_id) * 7919 % (2**31)


def _with_cycle_records(curves, with_cycle_data: bool) -> list:
    """Each (series, truth) with its simulated cycle records, or None."""
    return [
        (series, truth, simulate_cycle_records(
            truth.onset_cycle, seed=_records_seed(series.cell_id)
        ) if with_cycle_data and truth is not None else None)
        for series, truth in curves
    ]


def _write_synth(args, inputs, cells) -> None:
    out_dir = Path(args.out_dir)
    for series, truth, records in cells:
        name = series.cell_id
        write_text(out_dir / f"{name}.csv",
                   csv_text(CAPACITY_HEADER, zip(series.cycles, series.capacity_ah)))
        meta = {"cell_id": name, "q_nom_ah": series.q_nom_ah}
        write_text(out_dir / f"{name}.meta.json", json.dumps(meta, sort_keys=True) + "\n")
        truth_obj = {"cell_id": name, "ground_truth": None if truth is None else asdict(truth)}
        write_text(out_dir / f"{name}.truth.json",
                   json.dumps(truth_obj, indent=2, sort_keys=True) + "\n")
        if records is not None:
            write_text(out_dir / f"{name}.cycles.csv", csv_text(
                CYCLE_DETAIL_HEADER,
                ((cyc, v, q) for cyc in sorted(records)
                 for v, q in zip(records[cyc].voltage_v, records[cyc].q_ah)),
            ))


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
    stem = name[: -len(".cycles.csv")] if name.endswith(".cycles.csv") else path.stem
    return check_cell_id(stem, path)


def _load_features(args, config: dict):
    files = _cycle_files(args.cycles)
    cells = [load_cycle_detail_csv(path) for path in files]
    return [_cell_id_of(path) for path in files], cells, args.budget


def _feature_rows(ids, cells, budget: int) -> list:
    return [
        (cell_id, *extract_features(records, budget=budget).as_array())
        for cell_id, records in zip(ids, cells)
    ]


def _write_features(args, inputs, rows) -> None:
    write_text(args.out, csv_text(FEATURES_HEADER, rows))


_HYPER_FLAGS = ("n_trees", "learning_rate", "max_depth", "min_leaf")


def _load_training(args, config: dict):
    ids, X, _ = read_csv(args.features, FEATURES_HEADER, ids=True)
    label_ids, onsets, _ = read_csv(args.labels, LABELS_HEADER, ids=True)
    labels = {}
    for cell_id, onset in zip(label_ids, onsets[:, 0].tolist()):
        if cell_id in labels:
            raise InputError(f"{args.labels}: cell {cell_id!r} is labelled more than once")
        labels[cell_id] = onset
    missing = [i for i in ids if i not in labels]
    if missing:
        raise InputError(f"labels file lacks cells: {', '.join(missing[:5])}")
    y = np.array([labels[i] for i in ids])
    flags = {k: getattr(args, k) for k in _HYPER_FLAGS if getattr(args, k) is not None}
    return X, y, replace(GBRTHyper(), **flags)


def _write_model(args, inputs, model: GBRTModel) -> None:
    write_text(args.out, model.to_json() + "\n")


def _load_prediction(args, config: dict):
    ids, X, _ = read_csv(args.features, FEATURES_HEADER, ids=True)
    return ids, GBRTModel.from_json(read_text(args.model)), X


def _prediction_rows(ids, model: GBRTModel, X) -> list:
    return list(zip(ids, gbrt_predict(model, X)))


def _write_predictions(args, inputs, rows) -> None:
    text = csv_text(PREDICTIONS_HEADER, rows)
    if args.out:
        write_text(args.out, text)
    else:
        sys.stdout.write(text)


def _parse_budgets(spec: str) -> range:
    try:
        bounds = [int(part) for part in spec.split(":")]
        lo, hi, *step = bounds * 2 if len(bounds) == 1 else bounds  # LO is LO:LO
        budgets = range(lo, hi + 1, *step)  # a fourth part is a TypeError
    except (TypeError, ValueError):
        raise UsageError(f"cannot parse --budgets {spec!r} (expected LO:HI)") from None
    if not budgets:
        raise UsageError(f"--budgets {spec!r} selects no budget")
    return budgets


def _load_sensitivity(args, config: dict):
    cells, labels = [], []
    for path in _cycle_files(args.dir):
        truth_path = path.with_name(path.name.replace(".cycles.csv", ".truth.json"))
        if not truth_path.exists():
            raise InputError(f"missing {truth_path.name} next to {path.name}")
        truth = parse_json(read_text(truth_path), truth_path)
        try:
            gt = truth.get("ground_truth")
            onset = float(gt["onset_cycle"]) if gt else None
        except (AttributeError, KeyError, TypeError, ValueError, OverflowError):
            raise InputError(
                f"{truth_path}: expected {{\"ground_truth\": {{\"onset_cycle\": number}}}}"
            ) from None
        if onset is None:
            continue
        cells.append(load_cycle_detail_csv(path))
        labels.append(onset)
    if not cells:
        raise InputError(f"no labeled cycle data found in {args.dir}")
    return cells, labels, _parse_budgets(args.budgets), args.repeats, args.seed


def _write_sensitivity(args, inputs, table) -> None:
    write_text(args.out, csv_text(SENSITIVITY_HEADER, [
        (int(row["budget"]), row["mean_rmse"], row["mean_mape"]) for row in table
    ]))


# Each command is (load, compute, write): load(args, config) returns the
# arguments of compute, and write(args, inputs, result) writes its outputs.
COMMANDS = {
    "identify": (_load_cell, identify_knees, _write_report),
    "baconwatts": (_load_cell, dbw_knee_report, _write_report),
    "batch": (_load_batch, batch_report, _write_batch),
    "synth": (_load_synth, _with_cycle_records, _write_synth),
    "features": (_load_features, _feature_rows, _write_features),
    "train": (_load_training, gbrt_train, _write_model),
    "predict": (_load_prediction, _prediction_rows, _write_predictions),
    "sensitivity": (_load_sensitivity, sensitivity_sweep, _write_sensitivity),
}
# the commands whose load reads the --config file
CONFIG_COMMANDS = ("identify", "baconwatts", "batch")


if __name__ == "__main__":
    sys.exit(main())
