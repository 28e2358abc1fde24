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
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING, get_type_hints

import numpy as np

from . import __version__, _resolve
from .errors import InputError, KneeScoutError
from .ingest import (
    CAPACITY_HEADER,
    CELL_FILES,
    cell_id_of,
    cell_path,
    check_cell_id,
    csv_text,
    load_capacity_csv,
    parse_json,
    read_csv,
    read_text,
    write_text,
)
from .rules import check_count, check_positive

if TYPE_CHECKING:
    from .earlypredict import GBRTModel
    from .segmentation import KneeReport, PipelineParams

# short names for --methods; the canonical names are report.METHODS
METHOD_ALIASES = {"curvature": "curvature_rea", "baconwatts": "double_bacon_watts"}


class UsageError(Exception):
    """A bad command line: exit code 1."""


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exit code 1, not 2."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


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


def _resolve_params(args, config: dict) -> PipelineParams:
    from .segmentation import PipelineParams

    casts = get_type_hints(PipelineParams)  # every field is a config key, read as its type
    unknown = set(config) - set(casts)
    if unknown:
        raise InputError(f"unknown config keys: {', '.join(sorted(unknown))}")
    kwargs = {}
    for key, cast in casts.items():
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
    return PipelineParams(**kwargs)


def _add_pipeline_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sg-window", dest="sg_window", type=int, default=None)
    p.add_argument("--sg-order", dest="sg_order", type=int, default=None)
    p.add_argument("--curv-window", dest="curv_window", type=int, default=None)
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
    p.add_argument("--max-iter", dest="max_iter", type=int, default=None)
    _add_pipeline_flags(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("batch", help="identify a directory of capacity CSVs")
    p.add_argument("--dir", required=True)
    p.add_argument("--methods", default="curvature,baconwatts")
    p.add_argument("--jobs", type=int, default=1)
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
    p.add_argument("--n-trees", type=int, default=None)
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
    argv = sys.argv[1:] if argv is None else list(argv)
    json_errors = _wants_json_errors(argv)
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
        if isinstance(compute, str):  # a stage function, imported now
            compute = _resolve(compute)
        inputs = load(args, _read_config(args.config) if args.config is not None else {})
        code = 2
        result = compute(*inputs)
        code = 1
        write(args, inputs, result)
        return 0
    except (UsageError, KneeScoutError) as exc:
        _emit_error(exc, code, json_errors)
        return code


def _wants_json_errors(argv) -> bool:
    """Whether the options before the command hold ``--json-errors`` or a unique
    prefix of it (``--j`` on), as argparse reads them. It is known before
    parsing, so that a usage error honours it too."""
    rest = iter(argv)
    for arg in rest:
        if arg == "--" or not arg.startswith("-"):
            return False  # the end of the options, or the command
        if len(arg) > 2 and "--json-errors".startswith(arg):
            return True
        if len(arg) > 2 and "--config".startswith(arg):
            next(rest, None)  # its value
    return False


def _emit_error(exc: Exception, code: int, as_json: bool) -> None:
    if as_json:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc), "exit_code": code}),
              file=sys.stderr)
    elif isinstance(exc, UsageError):
        print(str(exc), file=sys.stderr)
    else:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)


def _load_cell(args, config: dict):
    params = _resolve_params(args, config)
    return load_capacity_csv(args.input, cell_id=args.cell_id, q_nom_ah=args.q_nom), params


def _write_report(args, inputs, report: KneeReport) -> None:
    payload = {**asdict(report), "params": asdict(inputs[1])}
    write_text(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _cell_files(directory, kind: str) -> list:
    """The ``kind`` files in ``directory``, sorted; a longer suffix (``.cycles.csv``) wins."""
    directory, suffix = Path(directory), CELL_FILES[kind]
    if not directory.is_dir():
        raise InputError(f"{directory} is not a directory")
    longer = tuple(s for s in CELL_FILES.values() if len(s) > len(suffix))
    files = sorted(p for p in directory.glob(f"*{suffix}") if not p.name.endswith(longer))
    if not files:
        none = {"capacity": "no capacity CSVs found", "cycles": "no *.cycles.csv files"}
        raise InputError(f"{none[kind]} in {directory}")
    return files


def _load_batch(args, config: dict):
    from .report import check_methods

    params = _resolve_params(args, config)
    methods = tuple(METHOD_ALIASES.get(m.strip(), m.strip()) for m in args.methods.split(","))
    try:
        check_methods(methods)
    except InputError as exc:
        raise UsageError(str(exc)) from None
    jobs = check_count(args.jobs, "jobs", 1)
    series_list = [load_capacity_csv(p) for p in _cell_files(args.dir, "capacity")]
    return series_list, methods, params, jobs


def _write_batch(args, inputs, result) -> None:
    from .report import format_batch_csv, write_report_dir

    if Path(args.out).suffix == ".csv":
        write_text(args.out, format_batch_csv(*result))
    else:
        write_report_dir(*result, args.out)


def _load_synth(args, config: dict):
    from .synthgen import generate_convex_family, generate_fleet

    if args.convex:
        curves = generate_convex_family(args.count, seed=args.seed)
    else:
        curves = generate_fleet(args.count, seed=args.seed, n_cycles=args.n_cycles)
    return curves, args.with_cycle_data


def _records_seed(cell_id: str) -> int:
    return sum(ord(ch) for ch in cell_id) * 7919 % (2**31)


def _with_cycle_records(curves, with_cycle_data: bool) -> list:
    """Each (series, truth) with its simulated cycle records, or None."""
    from .synthgen import simulate_cycle_records

    return [
        (series, truth, simulate_cycle_records(
            truth.onset_cycle, seed=_records_seed(series.cell_id)
        ) if with_cycle_data and truth is not None else None)
        for series, truth in curves
    ]


def _write_synth(args, inputs, cells) -> None:
    from .earlypredict import CYCLE_DETAIL_HEADER

    for series, truth, records in cells:
        name = series.cell_id
        write_text(cell_path(args.out_dir, name, "capacity"),
                   csv_text(CAPACITY_HEADER, zip(series.cycles, series.capacity_ah)))
        meta = {"cell_id": name, "q_nom_ah": series.q_nom_ah}
        write_text(cell_path(args.out_dir, name, "meta"), json.dumps(meta, sort_keys=True) + "\n")
        truth_obj = {"cell_id": name, "ground_truth": None if truth is None else asdict(truth)}
        write_text(cell_path(args.out_dir, name, "truth"),
                   json.dumps(truth_obj, indent=2, sort_keys=True) + "\n")
        if records is not None:
            write_text(cell_path(args.out_dir, name, "cycles"), csv_text(
                CYCLE_DETAIL_HEADER,
                ((cyc, v, q) for cyc in sorted(records)
                 for v, q in zip(records[cyc].voltage_v, records[cyc].q_ah)),
            ))


def _load_cells(paths) -> dict:
    from .earlypredict import load_cycle_detail_csv

    return {check_cell_id(cell_id_of(p, "cycles"), p): load_cycle_detail_csv(p) for p in paths}


def _load_features(args, config: dict):
    from .earlypredict import check_budget

    budget = check_budget(args.budget)
    path = Path(args.cycles)
    return _load_cells(_cell_files(path, "cycles") if path.is_dir() else [path]), budget


def _write_features(args, inputs, X) -> None:
    from .earlypredict import FEATURES_HEADER

    write_text(args.out, csv_text(FEATURES_HEADER, ((i, *row) for i, row in zip(inputs[0], X))))


_HYPER_FLAGS = ("n_trees", "learning_rate", "max_depth", "min_leaf")


def _read_cells(path, header: tuple):
    """``read_csv`` of a file of one row per cell; InputError if a cell comes twice."""
    ids, values, lines = read_csv(path, header, ids=True)
    first = {}
    for cell_id, line in zip(ids, lines.tolist()):
        if first.setdefault(cell_id, line) != line:
            raise InputError(f"{path}: line {line}: cell {cell_id!r} is given more than once")
    return ids, values, lines


def _load_training(args, config: dict):
    from .earlypredict import FEATURES_HEADER, LABELS_HEADER, GBRTHyper

    hyper = GBRTHyper(**{k: v for k in _HYPER_FLAGS if (v := getattr(args, k)) is not None})
    ids, X, _ = _read_cells(args.features, FEATURES_HEADER)
    label_ids, onsets, lines = _read_cells(args.labels, LABELS_HEADER)
    labels = {cell_id: check_positive(onset, f"{args.labels}: line {line}: onset_cycle")
              for cell_id, onset, line in zip(label_ids, onsets[:, 0].tolist(), lines.tolist())}
    missing = [i for i in ids if i not in labels]
    if missing:
        raise InputError(f"labels file lacks cells: {', '.join(missing[:5])}")
    y = np.array([labels[i] for i in ids])
    return X, y, hyper


def _write_model(args, inputs, model: GBRTModel) -> None:
    write_text(args.out, model.to_json() + "\n")


def _load_prediction(args, config: dict):
    from .earlypredict import FEATURES_HEADER, GBRTModel

    ids, X, _ = _read_cells(args.features, FEATURES_HEADER)
    return ids, GBRTModel.from_json(read_text(args.model)), X


def _prediction_rows(ids, model: GBRTModel, X) -> list:
    from .earlypredict import gbrt_predict

    return list(zip(ids, gbrt_predict(model, X)))


def _write_predictions(args, inputs, rows) -> None:
    from .earlypredict import PREDICTIONS_HEADER

    text = csv_text(PREDICTIONS_HEADER, rows)
    if args.out:
        write_text(args.out, text)
    else:
        sys.stdout.write(text)


def _parse_budgets(spec: str) -> range:
    from .earlypredict import check_budget

    try:
        bounds = [int(part) for part in spec.split(":")]
        lo, hi, *step = bounds * 2 if len(bounds) == 1 else bounds  # LO is LO:LO
        budgets = range(lo, hi + 1, *step)  # a fourth part is a TypeError
    except (TypeError, ValueError):
        raise UsageError(f"cannot parse --budgets {spec!r} (expected LO:HI)") from None
    if not budgets:
        raise UsageError(f"--budgets {spec!r} selects no budget")
    check_budget(min(budgets[0], budgets[-1]))  # a range's least budget, without a walk
    return budgets


def _load_sensitivity(args, config: dict):
    from .earlypredict import check_test_split

    # before any file is read, by the rules and names that sensitivity_sweep uses
    budgets = _parse_budgets(args.budgets)
    repeats = check_count(args.repeats, "repeats", 1)
    seed = check_count(args.seed, "seed", 0)
    paths, labels = [], []
    for path in _cell_files(args.dir, "cycles"):
        truth_path = cell_path(path.parent, cell_id_of(path, "cycles"), "truth")
        if not truth_path.exists():
            raise InputError(f"missing {truth_path.name} next to {path.name}")
        truth = parse_json(read_text(truth_path), truth_path)
        try:
            gt = truth.get("ground_truth")
            if gt is None:
                continue  # a kneeless cell has no onset to learn
            onset = gt["onset_cycle"]
        except (AttributeError, KeyError, TypeError):
            raise InputError(
                f"{truth_path}: expected {{\"ground_truth\": {{\"onset_cycle\": number}}}}"
            ) from None
        paths.append(path)
        labels.append(check_positive(onset, f"{truth_path}: onset_cycle"))
    if not labels:
        raise InputError(f"no labeled cycle data found in {args.dir}")
    check_test_split(labels)  # before any cycle CSV is read
    return _load_cells(paths), labels, budgets, repeats, seed


def _write_sensitivity(args, inputs, table) -> None:
    from .earlypredict import SENSITIVITY_HEADER

    write_text(args.out, csv_text(SENSITIVITY_HEADER, [
        (int(row["budget"]), row["mean_rmse"], row["mean_mape"]) for row in table
    ]))


# Each command is (load, compute, write): load(args, config) returns the
# arguments of compute, and write(args, inputs, result) writes its outputs.
# A compute given by its package name is a stage function, imported when the
# command runs, as are the stage names that load and write use.
COMMANDS = {
    "identify": (_load_cell, "identify_knees", _write_report),
    "baconwatts": (_load_cell, "dbw_knee_report", _write_report),
    "batch": (_load_batch, "batch_report", _write_batch),
    "synth": (_load_synth, _with_cycle_records, _write_synth),
    "features": (_load_features, "feature_matrix", _write_features),
    "train": (_load_training, "gbrt_train", _write_model),
    "predict": (_load_prediction, _prediction_rows, _write_predictions),
    "sensitivity": (_load_sensitivity, "sensitivity_sweep", _write_sensitivity),
}
# the commands whose load reads the --config file
CONFIG_COMMANDS = ("identify", "baconwatts", "batch")


if __name__ == "__main__":
    sys.exit(main())
