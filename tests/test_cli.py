import csv
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from kneescout import cli
from kneescout.cli import main
from kneescout.config import PipelineParams


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fleet")
    code = run_cli(
        "synth", "--count", "12", "--seed", "5", "--n-cycles", "1200",
        "--out-dir", str(d), "--with-cycle-data",
    )
    assert code == 0
    return d


class TestSynth:
    def test_outputs_present(self, synth_dir):
        assert len(list(synth_dir.glob("*.csv"))) >= 12
        assert len(list(synth_dir.glob("*.meta.json"))) == 12
        assert len(list(synth_dir.glob("*.truth.json"))) == 12
        assert len(list(synth_dir.glob("*.cycles.csv"))) == 12

    def test_deterministic_bytes(self, synth_dir, tmp_path):
        again = tmp_path / "again"
        assert run_cli(
            "synth", "--count", "12", "--seed", "5", "--n-cycles", "1200",
            "--out-dir", str(again), "--with-cycle-data",
        ) == 0
        for p in sorted(synth_dir.glob("*")):
            assert (again / p.name).read_bytes() == p.read_bytes()


class TestIdentify:
    def test_smoke_and_determinism(self, synth_dir, tmp_path):
        src = sorted(synth_dir.glob("fleet-*.csv"))[0]
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert run_cli("identify", "--input", str(src), "--out", str(out1)) == 0
        assert run_cli("identify", "--input", str(src), "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()
        payload = json.loads(out1.read_text())
        assert payload["method"] == "curvature_rea"
        assert payload["onset_cycle"] < payload["knee_cycle"]
        assert payload["params"]["mp_window"] == 3

    def test_pipeline_flags_respected(self, synth_dir, tmp_path):
        src = sorted(synth_dir.glob("fleet-*.csv"))[0]
        out = tmp_path / "r.json"
        assert run_cli(
            "identify", "--input", str(src), "--sg-window", "81",
            "--cac-window", "12", "--out", str(out),
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["params"]["sg_window"] == 81
        assert payload["params"]["cac_window"] == 12

    def test_config_file_defaults_and_flag_override(self, synth_dir, tmp_path):
        src = sorted(synth_dir.glob("fleet-*.csv"))[0]
        cfg = tmp_path / "knee.cfg"
        cfg.write_text("sg_window = 81\nexclusion_radius = 10\n")
        out = tmp_path / "r.json"
        assert run_cli(
            "--config", str(cfg), "identify", "--input", str(src),
            "--exclusion", "20", "--out", str(out),
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["params"]["sg_window"] == 81  # from config
        assert payload["params"]["exclusion_radius"] == 20  # flag wins

    def test_non_numeric_config_value_is_input_error(self, synth_dir, tmp_path, capsys):
        src = sorted(synth_dir.glob("fleet-*.csv"))[0]
        cfg = tmp_path / "knee.cfg"
        cfg.write_text("sg_window = wide\n")
        assert run_cli("--json-errors", "--config", str(cfg), "identify", "--input",
                       str(src), "--out", str(tmp_path / "r.json")) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "InputError"
        assert "sg_window" in payload["message"]

    def test_cac_window_sentinel_accepted(self, synth_dir, tmp_path):
        src = sorted(synth_dir.glob("fleet-*.csv"))[0]
        out = tmp_path / "r.json"
        assert run_cli("identify", "--input", str(src), "--cac-window", "0",
                       "--out", str(out)) == 0
        assert json.loads(out.read_text())["params"]["cac_window"] == 0

    def test_missing_input_is_input_error(self, tmp_path):
        out = tmp_path / "r.json"
        bad = tmp_path / "nope.csv"
        bad.write_text("cycle,discharge_capacity_ah\n5,1.0\n4,0.9\n6,0.8\n")
        assert run_cli("identify", "--input", str(bad), "--q-nom", "1.1",
                       "--out", str(out)) == 1


    @pytest.mark.parametrize("n_cycles", [22, 24, 26])
    def test_short_curve_is_series_too_short(self, tmp_path, capsys, n_cycles):
        # the curvature series is two points shorter than the curve; below
        # L + 2*ceil(L/2) + 1 = 25 some windows have no neighbour at L = 12
        p = tmp_path / "short.csv"
        p.write_text("cycle,discharge_capacity_ah\n" + "".join(
            f"{i},{1.1 - 0.002 * i - 0.0004 * max(0, i - n_cycles // 2) ** 2}\n"
            for i in range(1, n_cycles + 1)
        ))
        code = run_cli("--json-errors", "identify", "--input", str(p), "--q-nom", "1.1",
                       "--sg-window", "5", "--cac-window", "12", "--exclusion", "1",
                       "--out", str(tmp_path / "r.json"))
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "SeriesTooShort"
        assert "= 25" in payload["message"]
        assert code == 2


class TestBaconWatts:
    def test_short_series_is_numerical_failure(self, tmp_path, capsys):
        p = tmp_path / "short.csv"
        p.write_text(
            "cycle,discharge_capacity_ah\n" +
            "".join(f"{i},{1.0 - 0.01 * i}\n" for i in range(1, 6))
        )
        code = run_cli("baconwatts", "--input", str(p), "--q-nom", "1.0",
                       "--out", str(tmp_path / "r.json"))
        assert code == 2
        assert "TooShort" in capsys.readouterr().err

    def test_report_written(self, synth_dir, tmp_path):
        src = sorted(synth_dir.glob("fleet-*.csv"))[0]
        out = tmp_path / "bw.json"
        assert run_cli("baconwatts", "--input", str(src), "--out", str(out)) == 0
        assert json.loads(out.read_text())["method"] == "double_bacon_watts"

    @pytest.mark.parametrize("max_iter", ["0", "-4"])
    def test_max_iter_below_one_is_usage_error(self, synth_dir, tmp_path, capsys, max_iter):
        src = sorted(synth_dir.glob("fleet-*.csv"))[0]
        out = tmp_path / "bw.json"
        assert run_cli("baconwatts", "--input", str(src), "--max-iter", max_iter,
                       "--out", str(out)) == 1
        assert "--max-iter: must be >= 1" in capsys.readouterr().err
        assert not out.exists()


class TestUsageErrors:
    def test_unknown_flag_exits_1(self, capsys):
        assert run_cli("identify", "--nope") == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_subcommand_exits_1(self):
        assert run_cli("frobnicate") == 1

    def test_no_subcommand_exits_1(self):
        assert run_cli() == 1

    def test_json_errors_single_line(self, tmp_path, capsys):
        p = tmp_path / "short.csv"
        p.write_text("cycle,discharge_capacity_ah\n1,1.0\n2,0.9\n3,0.8\n")
        code = run_cli("--json-errors", "baconwatts", "--input", str(p),
                       "--q-nom", "1.0", "--out", str(tmp_path / "r.json"))
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert "\n" not in err
        payload = json.loads(err)
        assert payload["error"] == "TooShort"
        assert payload["exit_code"] == 2

    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("--version")
        assert exc.value.code == 0
        assert "knee-scout" in capsys.readouterr().out

    def usage_json(self, capsys, *argv):
        code = run_cli("--json-errors", *argv)
        err = capsys.readouterr().err.strip()
        assert "\n" not in err
        payload = json.loads(err)
        assert code == payload["exit_code"] == 1
        return payload

    def test_argparse_error_honours_json_errors(self, capsys):
        payload = self.usage_json(capsys, "identify", "--input", "x.csv", "--out",
                                  "r.json", "--nope")
        assert payload["error"] == "UsageError"
        assert "unrecognized arguments: --nope" in payload["message"]

    def test_usage_error_honours_json_errors(self, synth_dir, tmp_path, capsys):
        payload = self.usage_json(capsys, "batch", "--dir", str(synth_dir),
                                  "--methods", "nope", "--out", str(tmp_path / "t.csv"))
        assert payload["error"] == "UsageError"
        assert "unknown method 'nope'" in payload["message"]

    def test_config_max_iter_honours_json_errors(self, synth_dir, tmp_path, capsys):
        cfg = tmp_path / "knee.cfg"
        cfg.write_text("max_iter = 0\n")
        payload = self.usage_json(capsys, "--config", str(cfg), "batch", "--dir",
                                  str(synth_dir), "--out", str(tmp_path / "t.csv"))
        assert "max_iter: must be >= 1" in payload["message"]

    @pytest.mark.parametrize("command", [
        ("synth", "--count", "1", "--out-dir", "d"),
        ("features", "--cycles", "c", "--out", "f.csv"),
        ("train", "--features", "f.csv", "--labels", "l.csv", "--out", "m.json"),
        ("predict", "--model", "m.json", "--features", "f.csv"),
        ("sensitivity", "--dir", "d", "--out", "s.csv"),
    ], ids=lambda c: c[0])
    def test_config_on_a_command_that_ignores_it(self, tmp_path, capsys, command):
        cfg = tmp_path / "knee.cfg"
        cfg.write_text("bogus_key = 3\n")
        argv = [a if a.startswith("-") or a.isdigit() else str(tmp_path / a) for a in command[1:]]
        payload = self.usage_json(capsys, "--config", str(cfg), command[0], *argv)
        assert payload["error"] == "UsageError"
        assert f"--config applies to identify, baconwatts, batch only, not {command[0]}" \
            in payload["message"]
        assert not list(tmp_path.glob("d*")) and len(list(tmp_path.iterdir())) == 1


class TestConfigKeys:
    @pytest.mark.parametrize("field", dataclasses.fields(PipelineParams),
                             ids=lambda f: f.name)
    def test_every_pipeline_field_is_a_config_key(self, synth_dir, tmp_path, field):
        value = "7" if field.name.endswith("window") else "0.5" if field.type == "float" else "1"
        cfg = tmp_path / "knee.cfg"
        cfg.write_text(f"{field.name} = {value}\n")
        src = sorted(synth_dir.glob("fleet-*.csv"))[0]
        params = cli._resolve_params(
            cli._build_parser().parse_args(["identify", "--input", str(src), "--out", "x"]),
            cli._read_config(cfg),
        )
        assert getattr(params, field.name) == float(value)

    def test_seed_key_rejected(self, synth_dir, tmp_path, capsys):
        cfg = tmp_path / "knee.cfg"
        cfg.write_text("seed = 42\n")
        src = sorted(synth_dir.glob("fleet-*.csv"))[0]
        assert run_cli("--json-errors", "--config", str(cfg), "identify", "--input",
                       str(src), "--out", str(tmp_path / "r.json")) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "InputError"
        assert payload["message"] == "unknown config keys: seed"


class TestBatch:
    def test_table_csv_mode(self, synth_dir, tmp_path):
        out = tmp_path / "table.csv"
        assert run_cli(
            "batch", "--dir", str(synth_dir), "--methods", "curvature",
            "--sg-window", "81", "--cac-window", "12", "--out", str(out),
        ) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("cell_id,method")
        assert sum(1 for ln in lines if ln.startswith("#")) >= 1

    def test_directory_mode_with_both_methods(self, synth_dir, tmp_path):
        out = tmp_path / "reportdir"
        assert run_cli(
            "batch", "--dir", str(synth_dir), "--methods", "curvature,baconwatts",
            "--sg-window", "81", "--cac-window", "12", "--jobs", "2",
            "--out", str(out),
        ) == 0
        assert (out / "table.csv").exists()
        assert (out / "scatter_curvature_rea_knee.csv").exists()
        assert (out / "scatter_double_bacon_watts_onset.csv").exists()

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_is_usage_error(self, synth_dir, tmp_path, capsys, jobs):
        out = tmp_path / "table.csv"
        assert run_cli(
            "batch", "--dir", str(synth_dir), "--jobs", jobs, "--out", str(out)
        ) == 1
        assert "--jobs: must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_config_max_iter_below_one_is_usage_error(self, synth_dir, tmp_path, capsys):
        cfg = tmp_path / "knee.cfg"
        cfg.write_text("max_iter = 0\n")
        out = tmp_path / "table.csv"
        assert run_cli("--config", str(cfg), "batch", "--dir", str(synth_dir),
                       "--methods", "baconwatts", "--out", str(out)) == 1
        assert "max_iter: must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_jobs_start_no_more_workers_than_tasks(self, synth_dir, tmp_path, monkeypatch):
        import concurrent.futures

        started = []

        class InProcessPool:
            """Records max_workers and maps in this process, starting none."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        cells = tmp_path / "cells"
        cells.mkdir()
        for path in sorted(synth_dir.glob("fleet-5-00[0-2].*")):
            if not path.name.endswith((".cycles.csv", ".truth.json")):
                shutil.copy(path, cells)
        out = tmp_path / "table.csv"
        assert run_cli("batch", "--dir", str(cells), "--methods", "curvature",
                       "--sg-window", "81", "--cac-window", "12", "--jobs", "500",
                       "--out", str(out)) == 0
        assert started == [3]

    def test_rows_sorted_by_cell_id(self, synth_dir, tmp_path):
        out = tmp_path / "table.csv"
        run_cli("batch", "--dir", str(synth_dir), "--methods", "curvature",
                "--sg-window", "81", "--cac-window", "12", "--out", str(out))
        ids = [ln.split(",")[0] for ln in out.read_text().strip().split("\n")[1:]
               if not ln.startswith("#")]
        assert ids == sorted(ids)


class TestPredictionPipeline:
    def test_features_train_predict_sensitivity(self, synth_dir, tmp_path):
        feats = tmp_path / "features.csv"
        assert run_cli("features", "--cycles", str(synth_dir), "--budget", "30",
                       "--out", str(feats)) == 0
        labels = tmp_path / "labels.csv"
        rows = ["cell_id,onset_cycle"]
        for t in sorted(synth_dir.glob("*.truth.json")):
            obj = json.loads(t.read_text())
            rows.append(f"{obj['cell_id']},{obj['ground_truth']['onset_cycle']}")
        labels.write_text("\n".join(rows) + "\n")

        model = tmp_path / "model.json"
        assert run_cli("train", "--features", str(feats), "--labels", str(labels),
                       "--n-trees", "40", "--out", str(model)) == 0
        payload = json.loads(model.read_text())
        assert set(payload) == {"init_value", "learning_rate", "n_features", "trees"}

        preds = tmp_path / "preds.csv"
        assert run_cli("predict", "--model", str(model), "--features", str(feats),
                       "--out", str(preds)) == 0
        lines = preds.read_text().strip().split("\n")
        assert lines[0] == "cell_id,predicted_onset_cycle"
        assert len(lines) == 13

        sweep = tmp_path / "sweep.csv"
        assert run_cli("sensitivity", "--dir", str(synth_dir), "--budgets", "15:16",
                       "--repeats", "1", "--seed", "3", "--out", str(sweep)) == 0
        lines = sweep.read_text().strip().split("\n")
        assert lines[0] == "budget,mean_rmse,mean_mape"
        assert len(lines) == 3


FEATURES_CSV = ("cell_id,min_dq,var_dq,skew_dq,kurt_dq,q2,q_max_minus_2\n"
                "a,0,0,0,0,1,0\nb,1,0,0,0,1,0\nc,2,0,0,0,1,0\n")


class TestPredictionInputErrors:
    def json_error(self, capsys, *argv):
        code = run_cli("--json-errors", *argv)
        payload = json.loads(capsys.readouterr().err)
        assert code == payload["exit_code"] == 1
        return payload

    def test_features_non_numeric_row(self, tmp_path, capsys):
        p = tmp_path / "cell.cycles.csv"
        p.write_text("cycle,voltage_v,discharge_capacity_ah\n2,abc,0.1\n")
        payload = self.json_error(capsys, "features", "--cycles", str(p),
                                  "--out", str(tmp_path / "f.csv"))
        assert payload["error"] == "MalformedRow"
        assert "cell.cycles.csv: line 2" in payload["message"]

    def test_predict_model_without_trees(self, tmp_path, capsys):
        feats = tmp_path / "f.csv"
        feats.write_text("cell_id,min_dq,var_dq,skew_dq,kurt_dq,q2,q_max_minus_2\n"
                         "a,0,0,0,0,1,0\n")
        model = tmp_path / "m.json"
        model.write_text('{"init_value": 1.0, "learning_rate": 0.1, "n_features": 6}')
        payload = self.json_error(capsys, "predict", "--model", str(model),
                                  "--features", str(feats))
        assert payload["error"] == "InvalidModel"
        assert "trees" in payload["message"]

    def test_predict_model_with_nan_init_value(self, tmp_path, capsys):
        # json reads the literal NaN; such a model once predicted "a,nan"
        feats = tmp_path / "f.csv"
        feats.write_text(FEATURES_CSV)
        model = tmp_path / "m.json"
        model.write_text('{"init_value": NaN, "learning_rate": 0.1, "n_features": 6,'
                         ' "trees": []}')
        code = run_cli("--json-errors", "predict", "--model", str(model),
                       "--features", str(feats))
        out, err = capsys.readouterr()
        [line] = err.splitlines()
        payload = json.loads(line)
        assert code == payload["exit_code"] == 1
        assert payload["error"] == "InvalidModel"
        assert "init_value nan" in payload["message"]
        assert out == ""

    def test_predict_non_numeric_feature(self, tmp_path, capsys):
        feats = tmp_path / "f.csv"
        feats.write_text("cell_id,min_dq,var_dq,skew_dq,kurt_dq,q2,q_max_minus_2\n"
                         "a,0,0,0,0,1,0\nb,0,oops,0,0,1,0\n")
        model = tmp_path / "m.json"
        model.write_text('{"init_value": 1.0, "learning_rate": 0.1, "n_features": 6,'
                         ' "trees": []}')
        payload = self.json_error(capsys, "predict", "--model", str(model),
                                  "--features", str(feats))
        assert payload["error"] == "MalformedRow"
        assert "line 3" in payload["message"]

    def train(self, capsys, tmp_path, labels, *flags):
        feats, label_csv = tmp_path / "f.csv", tmp_path / "labels.csv"
        feats.write_text(FEATURES_CSV)
        label_csv.write_text(labels)
        out = tmp_path / "m.json"
        payload = self.json_error(capsys, "train", "--features", str(feats),
                                  "--labels", str(label_csv), *flags, "--out", str(out))
        assert not out.exists()
        return payload

    @pytest.mark.parametrize("row", ["b,abc", "b", "b,1,2"])
    def test_train_malformed_label_row(self, tmp_path, capsys, row):
        labels = f"cell_id,onset_cycle\na,100\n{row}\nc,300\n"
        payload = self.train(capsys, tmp_path, labels)
        assert payload["error"] == "MalformedRow"
        assert "labels.csv: line 3" in payload["message"]

    def test_train_repeated_label_id(self, tmp_path, capsys):
        labels = "cell_id,onset_cycle\na,100\nb,200\nc,300\nb,250\n"
        payload = self.train(capsys, tmp_path, labels)
        assert payload["error"] == "InputError"
        assert "'b'" in payload["message"] and "more than once" in payload["message"]

    @pytest.mark.parametrize("flag,value", [
        ("--min-leaf", "0"), ("--max-depth", "-1"),
        ("--learning-rate", "0"), ("--learning-rate", "nan"),
    ])
    def test_train_bad_hyperparameter(self, tmp_path, capsys, flag, value):
        labels = "cell_id,onset_cycle\na,100\nb,200\nc,300\n"
        payload = self.train(capsys, tmp_path, labels, flag, value)
        assert payload["error"] == "InvalidHyperparameter"
        assert flag[2:].replace("-", "_") in payload["message"]

    @pytest.mark.parametrize("n_trees", ["0", "-5"])
    def test_train_n_trees_below_one_is_usage_error(self, tmp_path, capsys, n_trees):
        feats, labels = tmp_path / "f.csv", tmp_path / "labels.csv"
        feats.write_text(FEATURES_CSV)
        labels.write_text("cell_id,onset_cycle\na,100\nb,200\nc,300\n")
        out = tmp_path / "m.json"
        assert run_cli("train", "--features", str(feats), "--labels", str(labels),
                       "--n-trees", n_trees, "--out", str(out)) == 1
        assert "--n-trees: must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("missing", ["model", "features"])
    def test_predict_missing_file(self, tmp_path, capsys, missing):
        paths = {"model": tmp_path / "m.json", "features": tmp_path / "f.csv"}
        paths["model"].write_text('{"init_value": 1.0, "learning_rate": 0.1,'
                                  ' "n_features": 6, "trees": []}')
        paths["features"].write_text(FEATURES_CSV)
        paths[missing].unlink()
        payload = self.json_error(capsys, "predict", "--model", str(paths["model"]),
                                  "--features", str(paths["features"]))
        assert payload["error"] == "InputError"
        assert f"cannot read {paths[missing]}" in payload["message"]


LEAF = {"feature": -1, "threshold": 0.0, "left": -1, "right": -1, "value": 1.0}


def inner(feature, left, right):
    return {**LEAF, "feature": feature, "left": left, "right": right}


class TestModelTreeStructure:
    """A malformed tree ends ``predict`` with one InvalidModel line.

    Each case runs in a subprocess with a timeout: a node that is its own
    child once made ``predict`` loop forever.
    """

    @pytest.mark.parametrize("trees,fragment", [
        ([[inner(0, 0, 0)]], "node 0: children 0, 0 must come after it"),
        ([[inner(0, 1, 2), inner(0, 0, 2), LEAF]], "node 1: children 0, 2"),
        ([[inner(0, 1, 5), LEAF]], "node 0: children 1, 5"),
        ([[inner(9, 1, 2), LEAF, LEAF]], "node 0: feature 9 is outside [0, 6)"),
        ([[inner(-2, 1, 2), LEAF, LEAF]], "node 0: feature -2 is outside [0, 6)"),
        ([[LEAF], []], "tree 1 is empty"),
        ([[{**LEAF, "left": 0}]], "node 0: a leaf's children must be -1"),
    ])
    def test_predict_rejects_malformed_tree(self, tmp_path, trees, fragment):
        feats, model = tmp_path / "f.csv", tmp_path / "m.json"
        feats.write_text(FEATURES_CSV)
        model.write_text(json.dumps({"init_value": 1.0, "learning_rate": 0.1,
                                     "n_features": 6, "trees": trees}))
        src = str(Path(cli.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "kneescout", "--json-errors", "predict",
             "--model", str(model), "--features", str(feats)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        [line] = proc.stderr.splitlines()
        payload = json.loads(line)
        assert proc.returncode == payload["exit_code"] == 1
        assert payload["error"] == "InvalidModel"
        assert fragment in payload["message"]


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "kneescout.cli", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "knee-scout" in proc.stdout

    def test_package_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "kneescout", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "knee-scout" in proc.stdout


CAPACITY_CSV = "cycle,discharge_capacity_ah\n" + "".join(
    f"{i},{1.1 - 0.001 * i}\n" for i in range(1, 61)
)


class TestInputBoundary:
    """Every malformed input ends in one JSON error line with its exit code."""

    def json_error(self, capsys, *argv):
        code = run_cli("--json-errors", *argv)
        err = capsys.readouterr().err.strip()
        assert "\n" not in err
        payload = json.loads(err)
        assert code == payload["exit_code"]
        return payload

    @pytest.mark.parametrize("row", ["2,abc", "inf,0.9", "nan,0.9", "-inf,0.9", "2"])
    def test_malformed_capacity_row(self, tmp_path, capsys, row):
        p = tmp_path / "cell.csv"
        p.write_text("cycle,discharge_capacity_ah\n\n1,1.0\n" + row + "\n3,0.8\n4,0.7\n")
        payload = self.json_error(capsys, "identify", "--input", str(p), "--q-nom", "1.0",
                                  "--out", str(tmp_path / "r.json"))
        assert (payload["error"], payload["exit_code"]) == ("MalformedRow", 1)
        assert "cell.csv: line 4" in payload["message"]

    def test_malformed_sidecar(self, tmp_path, capsys):
        (tmp_path / "cell.csv").write_text(CAPACITY_CSV)
        (tmp_path / "cell.meta.json").write_text("{bad")
        payload = self.json_error(capsys, "identify", "--input", str(tmp_path / "cell.csv"),
                                  "--out", str(tmp_path / "r.json"))
        assert (payload["error"], payload["exit_code"]) == ("InputError", 1)
        assert "cell.meta.json: malformed JSON" in payload["message"]

    @pytest.mark.parametrize("meta", ['["x"]', '{"q_nom_ah": "abc"}', '{"q_nom_ah": [1]}'])
    def test_sidecar_of_wrong_shape(self, tmp_path, capsys, meta):
        (tmp_path / "cell.csv").write_text(CAPACITY_CSV)
        (tmp_path / "cell.meta.json").write_text(meta)
        payload = self.json_error(capsys, "identify", "--input", str(tmp_path / "cell.csv"),
                                  "--out", str(tmp_path / "r.json"))
        assert payload["exit_code"] == 1

    @pytest.mark.parametrize("truth", ["{bad", "[]", '{"ground_truth": {"onset": 3}}'])
    def test_malformed_truth_file(self, synth_dir, tmp_path, capsys, truth):
        cell = sorted(synth_dir.glob("*.cycles.csv"))[0]
        shutil.copy(cell, tmp_path / cell.name)
        truth_path = tmp_path / cell.name.replace(".cycles.csv", ".truth.json")
        truth_path.write_text(truth)
        payload = self.json_error(capsys, "sensitivity", "--dir", str(tmp_path),
                                  "--budgets", "15", "--repeats", "1",
                                  "--out", str(tmp_path / "s.csv"))
        assert (payload["error"], payload["exit_code"]) == ("InputError", 1)
        assert truth_path.name in payload["message"]

    def test_batch_with_a_four_point_cell(self, synth_dir, tmp_path, capsys):
        for p in sorted(synth_dir.glob("fleet-*"))[:8]:
            shutil.copy(p, tmp_path / p.name)
        (tmp_path / "tiny.csv").write_text(
            "cycle,discharge_capacity_ah\n1,1.0\n2,0.9\n3,0.8\n4,0.7\n")
        (tmp_path / "tiny.meta.json").write_text('{"q_nom_ah": 1.0}')
        payload = self.json_error(capsys, "batch", "--dir", str(tmp_path),
                                  "--out", str(tmp_path / "t.csv"))
        assert (payload["error"], payload["exit_code"]) == ("TooShort", 2)


class TestPhaseExitCodes:
    """An error in loading or writing exits 1 with one JSON line, whatever its class."""

    def json_error(self, capsys, *argv):
        code = run_cli("--json-errors", *argv)
        err = capsys.readouterr().err.strip()
        assert "\n" not in err
        payload = json.loads(err)
        assert code == payload["exit_code"] == 1
        return payload

    def test_eol_threshold_flag_out_of_range(self, synth_dir, tmp_path, capsys):
        src = sorted(synth_dir.glob("fleet-*.csv"))[0]
        out = tmp_path / "r.json"
        payload = self.json_error(capsys, "identify", "--input", str(src),
                                  "--eol-threshold", "1.5", "--out", str(out))
        assert payload["error"] == "InputError"
        assert "eol_threshold: must be in (0, 1), got 1.5" in payload["message"]
        assert not out.exists()

    def test_eol_threshold_config_key_out_of_range(self, synth_dir, tmp_path, capsys):
        src = sorted(synth_dir.glob("fleet-*.csv"))[0]
        cfg = tmp_path / "knee.cfg"
        cfg.write_text("eol_threshold = 1.5\n")
        payload = self.json_error(capsys, "--config", str(cfg), "baconwatts", "--input",
                                  str(src), "--out", str(tmp_path / "r.json"))
        assert payload["error"] == "InputError"
        assert "eol_threshold" in payload["message"]

    def test_batch_with_a_non_string_sidecar_cell_id(self, tmp_path, capsys):
        for name, meta in (("a", '{"cell_id": "a", "q_nom_ah": 1.1}'),
                           ("b", '{"cell_id": 7, "q_nom_ah": 1.1}')):
            (tmp_path / f"{name}.csv").write_text(CAPACITY_CSV)
            (tmp_path / f"{name}.meta.json").write_text(meta)
        payload = self.json_error(capsys, "batch", "--dir", str(tmp_path),
                                  "--out", str(tmp_path / "t.csv"))
        assert payload["error"] == "InputError"
        assert "b.meta.json: cell_id must be a string" in payload["message"]

    def test_out_naming_a_directory(self, synth_dir, tmp_path, capsys):
        src = sorted(synth_dir.glob("fleet-*.csv"))[0]
        out = tmp_path / "taken"
        out.mkdir()
        payload = self.json_error(capsys, "identify", "--input", str(src), "--out", str(out))
        assert payload["error"] == "InputError"
        assert f"cannot write {out}" in payload["message"]
        assert not list(tmp_path.glob(".*.tmp*"))

    def test_batch_with_an_unencodable_sidecar_cell_id(self, synth_dir, tmp_path, capsys):
        for name in ("fleet-5-000.csv", "fleet-5-001.csv", "fleet-5-001.meta.json"):
            shutil.copy(synth_dir / name, tmp_path / name)
        # a JSON escape for a lone surrogate, which UTF-8 cannot encode
        (tmp_path / "fleet-5-000.meta.json").write_text('{"cell_id": "\\ud800", "q_nom_ah": 1.1}')
        out = tmp_path / "report"
        payload = self.json_error(capsys, "batch", "--dir", str(tmp_path), "--methods",
                                  "curvature", "--out", str(out))
        assert payload["error"] == "InputError"
        assert f"cannot write {out / 'table.csv'}" in payload["message"]
        assert not list(out.glob(".*.tmp*"))

    @pytest.mark.parametrize("escape", ["\\n", "\\r"], ids=["newline", "return"])
    def test_batch_with_a_line_break_in_a_sidecar_cell_id(self, synth_dir, tmp_path, capsys,
                                                          escape):
        for name in ("fleet-5-000.csv", "fleet-5-001.csv", "fleet-5-001.meta.json"):
            shutil.copy(synth_dir / name, tmp_path / name)
        (tmp_path / "fleet-5-000.meta.json").write_text(
            '{"cell_id": "a%sb", "q_nom_ah": 1.1}' % escape)
        out = tmp_path / "table.csv"
        payload = self.json_error(capsys, "batch", "--dir", str(tmp_path), "--methods",
                                  "curvature", "--out", str(out))
        assert payload["error"] == "InputError"
        assert "fleet-5-000.meta.json: cell_id 'a%sb' holds a line break" % escape \
            in payload["message"]
        assert not out.exists()

    def test_features_with_a_line_break_in_a_file_name(self, synth_dir, tmp_path, capsys):
        shutil.copy(synth_dir / "fleet-5-000.cycles.csv", tmp_path / "fleet-5-000.cycles.csv")
        shutil.copy(synth_dir / "fleet-5-001.cycles.csv", tmp_path / "a\nb.cycles.csv")
        out = tmp_path / "f.csv"
        payload = self.json_error(capsys, "features", "--cycles", str(tmp_path),
                                  "--out", str(out))
        assert payload["error"] == "InputError"
        assert "cell_id 'a\\nb' holds a line break" in payload["message"]
        assert not out.exists()

    def test_batch_quotes_a_cell_id_holding_a_comma(self, synth_dir, tmp_path):
        for name in ("fleet-5-000.csv", "fleet-5-001.csv", "fleet-5-001.meta.json"):
            shutil.copy(synth_dir / name, tmp_path / name)
        (tmp_path / "fleet-5-000.meta.json").write_text('{"cell_id": "a,b", "q_nom_ah": 1.1}')
        out = tmp_path / "table.csv"
        assert run_cli("batch", "--dir", str(tmp_path), "--methods", "curvature",
                       "--out", str(out)) == 0
        lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        rows = list(csv.reader(lines))
        assert [len(row) for row in rows] == [6, 6, 6]
        assert [row[0] for row in rows] == ["cell_id", "a,b", "fleet-5-001"]


class TestRejectedValues:
    """Values that once ran to a wrong or empty output now stop with one JSON line."""

    def json_error(self, capsys, code, *argv):
        assert run_cli("--json-errors", *argv) == code
        err = capsys.readouterr().err.strip()
        assert "\n" not in err
        payload = json.loads(err)
        assert payload["exit_code"] == code
        return payload

    @pytest.mark.parametrize("methods,repeated", [
        ("curvature,curvature", "curvature_rea"),
        ("curvature,curvature_rea", "curvature_rea"),
        ("baconwatts,curvature,double_bacon_watts", "double_bacon_watts"),
    ])
    def test_batch_repeated_method(self, synth_dir, tmp_path, capsys, methods, repeated):
        out = tmp_path / "t.csv"
        payload = self.json_error(capsys, 1, "batch", "--dir", str(synth_dir),
                                  "--methods", methods, "--out", str(out))
        assert payload["error"] == "UsageError"
        assert f"method {repeated!r} given more than once" in payload["message"]
        assert not out.exists()

    @pytest.mark.parametrize("repeats", ["0", "-2"])
    def test_sensitivity_repeats_below_one(self, synth_dir, tmp_path, capsys, repeats):
        out = tmp_path / "s.csv"
        payload = self.json_error(capsys, 1, "sensitivity", "--dir", str(synth_dir),
                                  "--budgets", "15", "--repeats", repeats, "--out", str(out))
        assert payload["error"] == "UsageError"
        assert "--repeats: must be >= 1" in payload["message"]
        assert not out.exists()

    @pytest.mark.parametrize("budgets", ["20:15", "16:15:1"])
    def test_sensitivity_empty_budget_range(self, synth_dir, tmp_path, capsys, budgets):
        out = tmp_path / "s.csv"
        payload = self.json_error(capsys, 1, "sensitivity", "--dir", str(synth_dir),
                                  "--budgets", budgets, "--out", str(out))
        assert payload["error"] == "UsageError"
        assert f"--budgets {budgets!r} selects no budget" in payload["message"]
        assert not out.exists()

    def test_identify_negative_cac_window_flag(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "r.json"
        payload = self.json_error(capsys, 2, "identify", "--input",
                                  str(synth_dir / "fleet-5-000.csv"),
                                  "--cac-window", "-5", "--out", str(out))
        assert payload["error"] == "DegenerateWindow"
        assert "cac_window must be >= 0, got -5" in payload["message"]
        assert not out.exists()

    def test_identify_negative_cac_window_config_key(self, synth_dir, tmp_path, capsys):
        cfg = tmp_path / "knee.cfg"
        cfg.write_text("cac_window = -5\n")
        payload = self.json_error(capsys, 2, "--config", str(cfg), "identify", "--input",
                                  str(synth_dir / "fleet-5-000.csv"),
                                  "--out", str(tmp_path / "r.json"))
        assert payload["error"] == "DegenerateWindow"

    @pytest.mark.parametrize("n_cycles", ["-5", "0"])
    def test_synth_too_few_cycles(self, tmp_path, capsys, n_cycles):
        out_dir = tmp_path / "fleet"
        payload = self.json_error(capsys, 1, "synth", "--count", "2", "--n-cycles", n_cycles,
                                  "--out-dir", str(out_dir))
        assert payload["error"] == "DegenerateSpec"
        assert f"n_cycles={n_cycles} too small" in payload["message"]
        assert not out_dir.exists()

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_predict_non_finite_feature(self, tmp_path, capsys, bad):
        feats, model = tmp_path / "f.csv", tmp_path / "m.json"
        feats.write_text(FEATURES_CSV.replace("b,1,0,", f"b,{bad},0,"))
        model.write_text('{"init_value": 1.0, "learning_rate": 0.1, "n_features": 6,'
                         ' "trees": []}')
        out = tmp_path / "p.csv"
        payload = self.json_error(capsys, 2, "predict", "--model", str(model),
                                  "--features", str(feats), "--out", str(out))
        assert payload["error"] == "NonFiniteFeature"
        assert not out.exists()
