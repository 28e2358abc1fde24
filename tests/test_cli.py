import argparse
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
from kneescout import PipelineParams
from kneescout.ingest import load_capacity_csv
from kneescout.synthgen import generate_convex_family


def run_cli(*argv):
    return main(list(argv))


def json_error(capsys, code, *argv):
    """Run the CLI with ``--json-errors``, check that it exits ``code`` with one
    JSON line on stderr, and return that line's payload."""
    assert run_cli("--json-errors", *argv) == code
    err = capsys.readouterr().err.strip()
    assert "\n" not in err
    payload = json.loads(err)
    assert payload["exit_code"] == code
    return payload


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

    def test_convex_family_ignores_n_cycles(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli("synth", "--convex", "--count", "2", "--seed", "3",
                       "--out-dir", str(a)) == 0
        assert run_cli("synth", "--convex", "--count", "2", "--seed", "3",
                       "--n-cycles", "50", "--out-dir", str(b)) == 0
        names = sorted(p.name for p in a.iterdir())
        assert names == [f"convex-00{i}.{ext}" for i in range(2)
                         for ext in ("csv", "meta.json", "truth.json")]
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes()
        [(series, truth), _] = generate_convex_family(2, seed=3)
        loaded = load_capacity_csv(a / "convex-000.csv")
        assert loaded.cycles.tolist() == series.cycles.tolist()
        assert loaded.capacity_ah.tolist() == series.capacity_ah.tolist()
        written = json.loads((a / "convex-000.truth.json").read_text())["ground_truth"]
        assert written["onset_cycle"] == truth.onset_cycle


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
        assert payload["params"]["cac_window"] == 3
        assert "mp_window" not in payload["params"]

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

    def test_params_echo_every_pipeline_field(self, synth_dir, tmp_path):
        src = sorted(synth_dir.glob("fleet-*.csv"))[0]
        out = tmp_path / "r.json"
        assert run_cli("identify", "--input", str(src), "--eol-threshold", "0.7",
                       "--out", str(out)) == 0
        params = json.loads(out.read_text())["params"]
        assert params == dataclasses.asdict(PipelineParams(eol_threshold=0.7))

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

    @pytest.mark.parametrize("json_errors", [False, True])
    def test_cac_window_sentinel_on_a_long_curve_is_window_too_large(
            self, tmp_path, capsys, json_errors):
        # window 0 picks L = len(curvature) // 5: 80 000 windows of 19 999
        # values, 11.9 GiB, are refused before the window matrix is made
        p = tmp_path / "long.csv"
        n = 100_000
        p.write_text("cycle,discharge_capacity_ah\n" + "".join(
            f"{i},{1.1 - 2e-6 * i - 1e-12 * max(0, i - n // 2) ** 2}\n" for i in range(1, n + 1)
        ))
        out = tmp_path / "r.json"
        flags = ["--json-errors"] if json_errors else []
        assert run_cli(*flags, "identify", "--input", str(p), "--q-nom", "1.1",
                       "--cac-window", "0", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and not out.exists()
        if json_errors:
            payload = json.loads(err)
            assert (payload["error"], payload["exit_code"]) == ("WindowTooLarge", 2)
        assert "80000 windows of matrix-profile window L = 19999" in err

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

    def test_params_echo_gamma_and_max_iter(self, synth_dir, tmp_path):
        src = sorted(synth_dir.glob("fleet-*.csv"))[0]
        out = tmp_path / "bw.json"
        assert run_cli("baconwatts", "--input", str(src), "--gamma", "5",
                       "--max-iter", "50", "--out", str(out)) == 0
        params = json.loads(out.read_text())["params"]
        assert (params["gamma"], params["max_iter"]) == (5.0, 50)

    @pytest.mark.parametrize("max_iter", ["0", "-4"])
    def test_max_iter_below_one_is_usage_error(self, synth_dir, tmp_path, capsys, max_iter):
        # the flag and the config key share PipelineParams' check and message
        src = sorted(synth_dir.glob("fleet-*.csv"))[0]
        out = tmp_path / "bw.json"
        assert run_cli("--json-errors", "baconwatts", "--input", str(src),
                       "--max-iter", max_iter, "--out", str(out)) == 1
        payload = json.loads(capsys.readouterr().err)
        assert (payload["error"], payload["exit_code"]) == ("InputError", 1)
        assert payload["message"] == f"max_iter must be an int >= 1, got {max_iter}"
        assert not out.exists()


class TestUsageErrors:
    def test_unknown_flag_exits_1(self, capsys):
        assert run_cli("identify", "--nope") == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_subcommand_exits_1(self):
        assert run_cli("frobnicate") == 1

    def test_every_option_parses_as_a_plain_type(self):
        # a range belongs to the library's rules, which the command's load
        # calls; an argparse type that checked one would be a second owner
        parser = cli._build_parser()
        [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        for sub in (parser, *commands.choices.values()):
            for action in sub._actions:
                assert action.type in (int, float, None), (sub.prog, action.dest)

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

    @pytest.mark.parametrize("flag", ["--json-err", "--j"])
    def test_abbreviated_json_errors_on_a_load_error(self, tmp_path, capsys, flag):
        # argparse takes a unique prefix of a long flag
        assert run_cli(flag, "identify", "--input", str(tmp_path / "absent.csv"),
                       "--out", str(tmp_path / "r.json")) == 1
        payload = json.loads(capsys.readouterr().err)
        assert (payload["error"], payload["exit_code"]) == ("InputError", 1)
        assert payload["message"].startswith(f"cannot read {tmp_path / 'absent.csv'}: ")

    def test_abbreviated_json_errors_on_a_compute_error(self, tmp_path, capsys):
        p = tmp_path / "short.csv"
        p.write_text("cycle,discharge_capacity_ah\n1,1.0\n2,0.9\n3,0.8\n")
        assert run_cli("--json-err", "baconwatts", "--input", str(p), "--q-nom", "1.0",
                       "--out", str(tmp_path / "r.json")) == 2
        payload = json.loads(capsys.readouterr().err)
        assert (payload["error"], payload["exit_code"]) == ("TooShort", 2)

    @pytest.mark.parametrize("before", [["--json-err"], ["--j"], ["--config", "k.cfg", "--j"],
                                        ["--conf", "k.cfg", "--json-errors"]])
    def test_abbreviated_json_errors_on_a_usage_error(self, capsys, before):
        # argparse refuses the line (no --input), so main must know the mode beforehand
        assert run_cli(*before, "identify", "--out", "r.json") == 1
        [line] = capsys.readouterr().err.splitlines()
        payload = json.loads(line)
        assert (payload["error"], payload["exit_code"]) == ("UsageError", 1)
        assert "the following arguments are required: --input" in payload["message"]

    @pytest.mark.parametrize("argv", [
        ["identify", "--out", "r.json", "--j"],
        ["identify", "--out", "r.json", "--json-errors"],
        ["--config", "--j", "identify", "--out", "r.json"],
        ["--config=--j", "identify", "--out", "r.json"],
    ])
    def test_a_flag_after_the_command_or_as_a_value_is_not_the_mode(self, capsys, argv):
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("knee-scout") and "usage: knee-scout" in err

    @pytest.mark.parametrize("argv", [
        ["--json-errors", "identify"], ["--j", "identify"], ["--json-e", "batch"],
        ["--config", "k.cfg", "--js", "identify"], ["--config=k.cfg", "--json", "identify"],
        ["--co", "k.cfg", "identify"], ["--config", "identify", "identify"], ["identify"],
    ])
    def test_the_mode_is_what_argparse_reads(self, argv):
        tail = ["--dir", "d"] if "batch" in argv else ["--input", "x.csv"]
        argv = [*argv, *tail, "--out", "r.json"]
        assert cli._wants_json_errors(argv) is cli._build_parser().parse_args(argv).json_errors

    @pytest.mark.parametrize("q_nom", [[], ["--q-nom", "1.1"]], ids=["sidecar", "q-nom"])
    def test_a_missing_input_cannot_be_read(self, tmp_path, capsys, q_nom):
        # with or without --q-nom: not "no q_nom_ah for absent.csv"
        absent = tmp_path / "absent.csv"
        payload = json_error(capsys, 1, "identify", "--input", str(absent), *q_nom,
                             "--out", str(tmp_path / "r.json"))
        assert payload["error"] == "InputError"
        assert payload["message"].startswith(f"cannot read {absent}: ")

    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("--version")
        assert exc.value.code == 0
        assert "knee-scout" in capsys.readouterr().out

    def test_argparse_error_honours_json_errors(self, capsys):
        payload = json_error(capsys, 1, "identify", "--input", "x.csv", "--out",
                             "r.json", "--nope")
        assert payload["error"] == "UsageError"
        assert "unrecognized arguments: --nope" in payload["message"]

    def test_usage_error_honours_json_errors(self, synth_dir, tmp_path, capsys):
        payload = json_error(capsys, 1, "batch", "--dir", str(synth_dir),
                             "--methods", "nope", "--out", str(tmp_path / "t.csv"))
        assert payload["error"] == "UsageError"
        assert "unknown method 'nope'" in payload["message"]

    def test_config_max_iter_honours_json_errors(self, synth_dir, tmp_path, capsys):
        cfg = tmp_path / "knee.cfg"
        cfg.write_text("max_iter = 0\n")
        payload = json_error(capsys, 1, "--config", str(cfg), "batch", "--dir",
                             str(synth_dir), "--out", str(tmp_path / "t.csv"))
        assert "max_iter must be an int >= 1" in payload["message"]

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
        payload = json_error(capsys, 1, "--config", str(cfg), command[0], *argv)
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

    @pytest.mark.parametrize("target,message", [
        ("file", "is not a directory"),
        ("empty", "no capacity CSVs found in"),
    ])
    def test_dir_without_capacity_csvs(self, synth_dir, tmp_path, capsys, target, message):
        given = tmp_path / "given"
        if target == "file":
            shutil.copy(synth_dir / "fleet-5-000.csv", given)
        else:
            given.mkdir()  # cycle-detail files are not capacity CSVs
            shutil.copy(synth_dir / "fleet-5-000.cycles.csv", given)
        out = tmp_path / "table.csv"
        assert run_cli("--json-errors", "batch", "--dir", str(given),
                       "--out", str(out)) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "InputError"
        assert message in payload["message"]
        assert not out.exists()

    def test_footer_notes_too_few_cells_with_eol(self, synth_dir, tmp_path):
        cells = tmp_path / "cells"
        cells.mkdir()
        for name in ("fleet-5-000.csv", "fleet-5-000.meta.json"):
            shutil.copy(synth_dir / name, cells)
        out = tmp_path / "table.csv"
        assert run_cli("batch", "--dir", str(cells), "--methods", "curvature",
                       "--out", str(out)) == 0
        [footer] = [ln for ln in out.read_text().splitlines() if ln.startswith("#")]
        assert ("pearson_onset_eol=nan pearson_knee_eol=nan n_cells=1 n_excluded=0"
                in footer)
        assert footer.endswith(" note='only 1 cells with EoL; correlation undefined'")

    def test_config_max_iter_below_one_is_usage_error(self, synth_dir, tmp_path, capsys):
        cfg = tmp_path / "knee.cfg"
        cfg.write_text("max_iter = 0\n")
        out = tmp_path / "table.csv"
        assert run_cli("--config", str(cfg), "batch", "--dir", str(synth_dir),
                       "--methods", "baconwatts", "--out", str(out)) == 1
        assert "max_iter must be an int >= 1" in capsys.readouterr().err
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

    def test_predict_without_out_writes_stdout(self, tmp_path, capsys):
        feats, model = tmp_path / "f.csv", tmp_path / "m.json"
        feats.write_text(FEATURES_CSV)
        model.write_text('{"init_value": 1.5, "learning_rate": 0.1, "n_features": 6,'
                         ' "trees": []}')
        assert run_cli("predict", "--model", str(model), "--features", str(feats)) == 0
        assert capsys.readouterr().out == (
            "cell_id,predicted_onset_cycle\na,1.5\nb,1.5\nc,1.5\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.csv", "m.json"]


FEATURES_CSV = ("cell_id,min_dq,var_dq,skew_dq,kurt_dq,q2,q_max_minus_2\n"
                "a,0,0,0,0,1,0\nb,1,0,0,0,1,0\nc,2,0,0,0,1,0\n")


class TestPredictionInputErrors:
    def test_features_non_numeric_row(self, tmp_path, capsys):
        p = tmp_path / "cell.cycles.csv"
        p.write_text("cycle,voltage_v,discharge_capacity_ah\n2,abc,0.1\n")
        payload = json_error(capsys, 1, "features", "--cycles", str(p),
                             "--out", str(tmp_path / "f.csv"))
        assert payload["error"] == "MalformedRow"
        assert "cell.cycles.csv: line 2" in payload["message"]

    @pytest.mark.parametrize("column, value", [(1, "nan"), (1, "inf"), (2, "nan")])
    def test_features_non_finite_cycle_value(self, tmp_path, capsys, column, value):
        assert run_cli("synth", "--count", "1", "--seed", "3", "--n-cycles", "900",
                       "--out-dir", str(tmp_path), "--with-cycle-data") == 0
        capsys.readouterr()
        (cycles,) = tmp_path.glob("*.cycles.csv")
        lines = cycles.read_text().splitlines()
        k = next(i for i, line in enumerate(lines) if line.startswith("2,"))
        fields = lines[k].split(",")
        fields[column] = value
        lines[k] = ",".join(fields)
        cycles.write_text("\n".join(lines) + "\n")
        out = tmp_path / "f.csv"
        payload = json_error(capsys, 1, "features", "--cycles", str(cycles),
                             "--budget", "30", "--out", str(out))
        assert payload["error"] == "InvalidDischargeCurve"
        assert payload["message"] == "cycle 2: voltages and capacities must be finite"
        assert not out.exists()

    def test_predict_model_without_trees(self, tmp_path, capsys):
        feats = tmp_path / "f.csv"
        feats.write_text("cell_id,min_dq,var_dq,skew_dq,kurt_dq,q2,q_max_minus_2\n"
                         "a,0,0,0,0,1,0\n")
        model = tmp_path / "m.json"
        model.write_text('{"init_value": 1.0, "learning_rate": 0.1, "n_features": 6}')
        payload = json_error(capsys, 1, "predict", "--model", str(model),
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
        payload = json_error(capsys, 1, "predict", "--model", str(model),
                             "--features", str(feats))
        assert payload["error"] == "MalformedRow"
        assert "line 3" in payload["message"]

    def train(self, capsys, tmp_path, labels, *flags):
        feats, label_csv = tmp_path / "f.csv", tmp_path / "labels.csv"
        feats.write_text(FEATURES_CSV)
        label_csv.write_text(labels)
        out = tmp_path / "m.json"
        payload = json_error(capsys, 1, "train", "--features", str(feats),
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
        assert (payload["error"], payload["message"]) == (
            "InputError", f"{tmp_path / 'labels.csv'}: line 5: cell 'b' is given more than once")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-5"])
    def test_train_non_finite_label(self, tmp_path, capsys, value):
        labels = f"cell_id,onset_cycle\na,100\nb,{value}\nc,300\n"
        payload = self.train(capsys, tmp_path, labels)
        assert payload["error"] == "InputError"
        assert payload["message"] == (f"{tmp_path / 'labels.csv'}: line 3: onset_cycle"
                                      f" must be a finite real number > 0, got {float(value)}")

    def test_train_labels_lack_a_cell(self, tmp_path, capsys):
        payload = self.train(capsys, tmp_path, "cell_id,onset_cycle\na,100\nb,200\n")
        assert payload["error"] == "InputError"
        assert payload["message"] == "labels file lacks cells: c"

    def test_features_directory_without_cycle_files(self, synth_dir, tmp_path, capsys):
        shutil.copy(synth_dir / "fleet-5-000.csv", tmp_path)
        out = tmp_path / "f.csv"
        payload = json_error(capsys, 1, "features", "--cycles", str(tmp_path),
                             "--out", str(out))
        assert payload["error"] == "InputError"
        assert payload["message"] == f"no *.cycles.csv files in {tmp_path}"
        assert not out.exists()

    def sweep_dir(self, synth_dir, tmp_path, names):
        d = tmp_path / "sweep"
        d.mkdir()
        for name in names:
            shutil.copy(synth_dir / name, d)
        return d

    @pytest.mark.parametrize("truth,message", [
        (None, "missing fleet-5-000.truth.json next to fleet-5-000.cycles.csv"),
        ('{"cell_id": "fleet-5-000", "ground_truth": null}', "no labeled cycle data found"),
    ], ids=["missing-truth", "no-labelled-cell"])
    def test_sensitivity_without_labels(self, synth_dir, tmp_path, capsys, truth, message):
        d = self.sweep_dir(synth_dir, tmp_path, ["fleet-5-000.cycles.csv"])
        if truth is not None:
            (d / "fleet-5-000.truth.json").write_text(truth)
        out = tmp_path / "s.csv"
        payload = json_error(capsys, 1, "sensitivity", "--dir", str(d), "--out", str(out))
        assert payload["error"] == "InputError"
        assert message in payload["message"]
        assert not out.exists()

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "true", '"300"', "0",
                                       "-5", "null"])
    def test_sensitivity_non_finite_label(self, synth_dir, tmp_path, capsys, value):
        # a NaN onset that fell in the test split would make the sweep write "20,nan,nan"
        names = [p.name for p in sorted(synth_dir.glob("*.cycles.csv"))
                 + sorted(synth_dir.glob("*.truth.json"))]
        d = self.sweep_dir(synth_dir, tmp_path, names)
        truth = d / "fleet-5-003.truth.json"
        truth.write_text('{"cell_id": "fleet-5-003", "ground_truth": {"onset_cycle": %s}}' % value)
        out = tmp_path / "s.csv"
        payload = json_error(capsys, 1, "sensitivity", "--dir", str(d), "--budgets", "20",
                             "--repeats", "1", "--out", str(out))
        assert payload["error"] == "InputError"
        assert payload["message"] == (
            f"{truth}: onset_cycle must be a finite real number > 0, got {json.loads(value)!r}")
        assert not out.exists()

    def test_sensitivity_names_the_failing_cell(self, synth_dir, tmp_path, capsys):
        names = [p.name for p in sorted(synth_dir.glob("*.cycles.csv"))
                 + sorted(synth_dir.glob("*.truth.json"))]
        d = self.sweep_dir(synth_dir, tmp_path, names)
        cycles = d / "fleet-5-003.cycles.csv"
        lines = cycles.read_text().splitlines(keepends=True)
        cycles.write_text("".join(line for line in lines if not line.startswith("10,")))
        out = tmp_path / "s.csv"
        payload = json_error(capsys, 2, "sensitivity", "--dir", str(d), "--budgets", "20",
                             "--repeats", "1", "--out", str(out))
        assert payload["error"] == "MissingCycle"
        assert payload["message"] == "cell fleet-5-003: cycle 10 not present"
        assert not out.exists()

    def test_sensitivity_skips_a_cell_without_ground_truth(self, synth_dir, tmp_path):
        names = [p.name for p in sorted(synth_dir.glob("*.cycles.csv"))
                 + sorted(synth_dir.glob("*.truth.json"))]
        d = self.sweep_dir(synth_dir, tmp_path, names)
        (d / "fleet-5-000.truth.json").write_text(
            '{"cell_id": "fleet-5-000", "ground_truth": null}')
        flags = ("--budgets", "20", "--repeats", "1")
        assert run_cli("sensitivity", "--dir", str(d), *flags,
                       "--out", str(tmp_path / "null.csv")) == 0
        for name in ("fleet-5-000.cycles.csv", "fleet-5-000.truth.json"):
            (d / name).unlink()
        assert run_cli("sensitivity", "--dir", str(d), *flags,
                       "--out", str(tmp_path / "without.csv")) == 0
        assert (tmp_path / "null.csv").read_bytes() == (tmp_path / "without.csv").read_bytes()

    def test_sensitivity_without_a_test_cell(self, tmp_path, capsys):
        # onsets 220-317: no cell below 150, two in 150-270 and four above,
        # and a class of k cells keeps k - ceil(0.8 k) cells for testing
        d = tmp_path / "six"
        assert run_cli("synth", "--count", "6", "--seed", "5", "--n-cycles", "600",
                       "--with-cycle-data", "--out-dir", str(d)) == 0
        out = tmp_path / "s.csv"
        payload = json_error(capsys, 1, "sensitivity", "--dir", str(d), "--budgets", "15:16",
                             "--repeats", "1", "--out", str(out))
        assert payload["error"] == "EmptyTrainingSet"
        assert payload["message"] == (
            "6 labelled cells leave no test cell: the onset classes (< 150, 150-270,"
            " > 270 cycles) hold 0, 2, 4 cells, and a class of k cells keeps"
            " k - ceil(0.8 k) for testing"
        )
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [
        ("--min-leaf", "0"), ("--max-depth", "-1"),
        ("--learning-rate", "0"), ("--learning-rate", "nan"),
    ])
    def test_train_bad_hyperparameter(self, tmp_path, capsys, flag, value):
        labels = "cell_id,onset_cycle\na,100\nb,200\nc,300\n"
        payload = self.train(capsys, tmp_path, labels, flag, value)
        assert payload["error"] == "InvalidHyperparameter"
        assert flag[2:].replace("-", "_") in payload["message"]

    def test_train_zero_trees_predicts_the_mean(self, tmp_path, capsys):
        feats, labels = tmp_path / "f.csv", tmp_path / "labels.csv"
        feats.write_text(FEATURES_CSV)
        labels.write_text("cell_id,onset_cycle\na,100\nb,200\nc,300\n")
        model, out = tmp_path / "m.json", tmp_path / "p.csv"
        assert run_cli("train", "--features", str(feats), "--labels", str(labels),
                       "--n-trees", "0", "--out", str(model)) == 0
        assert json.loads(model.read_text())["trees"] == []
        assert run_cli("predict", "--model", str(model), "--features", str(feats),
                       "--out", str(out)) == 0
        assert out.read_text() == ("cell_id,predicted_onset_cycle\n"
                                   "a,200.0\nb,200.0\nc,200.0\n")

    @pytest.mark.parametrize("command", ["train", "predict"])
    def test_repeated_feature_cell(self, tmp_path, capsys, command):
        feats, labels = tmp_path / "f.csv", tmp_path / "labels.csv"
        feats.write_text(FEATURES_CSV + "b,3,0,0,0,1,0\n")
        labels.write_text("cell_id,onset_cycle\na,100\nb,200\nc,300\n")
        model, out = tmp_path / "m.json", tmp_path / "out"
        model.write_text('{"init_value": 1.0, "learning_rate": 0.1, "n_features": 6,'
                         ' "trees": []}')
        flags = {"train": ("--labels", str(labels)), "predict": ("--model", str(model))}
        payload = json_error(capsys, 1, command, "--features", str(feats),
                             *flags[command], "--out", str(out))
        assert (payload["error"], payload["message"]) == (
            "InputError", f"{feats}: line 5: cell 'b' is given more than once")
        assert not out.exists()

    @pytest.mark.parametrize("missing", ["model", "features"])
    def test_predict_missing_file(self, tmp_path, capsys, missing):
        paths = {"model": tmp_path / "m.json", "features": tmp_path / "f.csv"}
        paths["model"].write_text('{"init_value": 1.0, "learning_rate": 0.1,'
                                  ' "n_features": 6, "trees": []}')
        paths["features"].write_text(FEATURES_CSV)
        paths[missing].unlink()
        payload = json_error(capsys, 1, "predict", "--model", str(paths["model"]),
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


REPO = Path(__file__).resolve().parents[1]


COMMAND_MODULES = """
import json, sys
from kneescout.cli import main
code = main(sys.argv[1:])
ours = sorted(m[len("kneescout."):] for m in sys.modules if m.startswith("kneescout."))
print(json.dumps({"code": code, "loaded": ours}))
"""

CURVATURE = ["errors", "ingest", "matrixprofile", "preprocess", "rules", "segmentation"]
PREDICTOR = ["earlypredict", "errors", "ingest", "rules"]
# each command line, and the kneescout modules that a fresh process has loaded after it
COMMAND_STAGES = [
    (("identify", "--input", "{cell}", "--out", "{out}/r.json"), ["cli", *CURVATURE]),
    (("baconwatts", "--input", "{cell}", "--out", "{out}/r.json"),
     sorted(["baconwatts", "cli", *CURVATURE])),
    (("batch", "--dir", "{fleet}", "--methods", "curvature", "--out", "{out}/t.csv"),
     sorted(["cli", "report", *CURVATURE])),
    (("synth", "--count", "2", "--with-cycle-data", "--out-dir", "{out}"),
     sorted(["cli", *PREDICTOR, "synthgen"])),
    (("features", "--cycles", "{fleet}", "--out", "{out}/f.csv"), ["cli", *PREDICTOR]),
    (("train", "--features", "{files}/features.csv", "--labels", "{files}/labels.csv",
      "--n-trees", "5", "--out", "{out}/m.json"), ["cli", *PREDICTOR]),
    (("predict", "--model", "{files}/model.json", "--features", "{files}/features.csv",
      "--out", "{out}/p.csv"), ["cli", *PREDICTOR]),
    (("sensitivity", "--dir", "{fleet}", "--budgets", "15", "--repeats", "1",
      "--out", "{out}/s.csv"), ["cli", *PREDICTOR]),
]


@pytest.fixture(scope="module")
def predictor_files(synth_dir, tmp_path_factory):
    """features.csv, labels.csv and model.json for the labelled cells of ``synth_dir``."""
    d = tmp_path_factory.mktemp("predictor")
    assert run_cli("features", "--cycles", str(synth_dir), "--out", str(d / "features.csv")) == 0
    rows = ["cell_id,onset_cycle"]
    for t in sorted(synth_dir.glob("*.truth.json")):
        obj = json.loads(t.read_text())
        rows.append(f"{obj['cell_id']},{obj['ground_truth']['onset_cycle']}")
    (d / "labels.csv").write_text("\n".join(rows) + "\n")
    assert run_cli("train", "--features", str(d / "features.csv"), "--labels",
                   str(d / "labels.csv"), "--n-trees", "5", "--out", str(d / "model.json")) == 0
    return d


@pytest.mark.floors
class TestCommandImports:
    """Marked floors: at the oldest NumPy and SciPy too, a command imports only the
    stage modules it runs. A one-cell ``identify`` is mostly start-up, and most of
    that is compiling modules.
    """

    @pytest.mark.parametrize("argv, stages", COMMAND_STAGES, ids=[a[0] for a, _ in COMMAND_STAGES])
    def test_a_command_loads_only_its_stages(self, synth_dir, predictor_files, tmp_path,
                                             argv, stages):
        cell = sorted(p for p in synth_dir.glob("*.csv") if not p.name.endswith(".cycles.csv"))[0]
        argv = [a.format(cell=cell, fleet=synth_dir, files=predictor_files, out=tmp_path)
                for a in argv]
        src = str(Path(cli.__file__).parents[1])
        proc = subprocess.run([sys.executable, "-c", COMMAND_MODULES, *argv],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout)
        assert (got["code"], got["loaded"]) == (0, stages)


@pytest.mark.floors
class TestQuickStart:
    """Marked floors: the quick start runs every command end to end at the oldest NumPy and
    SciPy too.
    """

    def test_readme_block_runs(self, tmp_path):
        # the README's quick-start block as written, in bash, with knee-scout
        # run as `python -m kneescout` on this interpreter
        readme = (REPO / "README.md").read_text()
        block = readme.split("## Quick start", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
        script = ('set -e\npython() { "$KS_PYTHON" "$@"; }\n'
                  'knee-scout() { python -m kneescout "$@"; }\n' + block)
        env = {**os.environ, "KS_PYTHON": sys.executable, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(["bash", "-c", script], cwd=tmp_path, env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        for name in ("report.json", "baseline.json", "report/table.csv", "features.csv",
                     "labels.csv", "model.json", "preds.csv", "sweep.csv"):
            assert (tmp_path / name).is_file(), name


CAPACITY_CSV = "cycle,discharge_capacity_ah\n" + "".join(
    f"{i},{1.1 - 0.001 * i}\n" for i in range(1, 61)
)


class TestInputBoundary:
    """Every malformed input ends in one JSON error line with its exit code."""

    @pytest.mark.parametrize("row", ["2,abc", "inf,0.9", "nan,0.9", "-inf,0.9", "2"])
    def test_malformed_capacity_row(self, tmp_path, capsys, row):
        p = tmp_path / "cell.csv"
        p.write_text("cycle,discharge_capacity_ah\n\n1,1.0\n" + row + "\n3,0.8\n4,0.7\n")
        payload = json_error(capsys, 1, "identify", "--input", str(p), "--q-nom", "1.0",
                             "--out", str(tmp_path / "r.json"))
        assert (payload["error"], payload["exit_code"]) == ("MalformedRow", 1)
        assert "cell.csv: line 4" in payload["message"]

    def test_malformed_sidecar(self, tmp_path, capsys):
        (tmp_path / "cell.csv").write_text(CAPACITY_CSV)
        (tmp_path / "cell.meta.json").write_text("{bad")
        payload = json_error(capsys, 1, "identify", "--input", str(tmp_path / "cell.csv"),
                             "--out", str(tmp_path / "r.json"))
        assert (payload["error"], payload["exit_code"]) == ("InputError", 1)
        assert "cell.meta.json: malformed JSON" in payload["message"]

    @pytest.mark.parametrize("meta", ['["x"]', '{"q_nom_ah": "abc"}', '{"q_nom_ah": [1]}'])
    def test_sidecar_of_wrong_shape(self, tmp_path, capsys, meta):
        (tmp_path / "cell.csv").write_text(CAPACITY_CSV)
        (tmp_path / "cell.meta.json").write_text(meta)
        payload = json_error(capsys, 1, "identify", "--input", str(tmp_path / "cell.csv"),
                             "--out", str(tmp_path / "r.json"))
        assert payload["exit_code"] == 1

    @pytest.mark.parametrize("truth", ["{bad", "[]", '{"ground_truth": {"onset": 3}}',
                                       '{"ground_truth": 0}', '{"ground_truth": {}}'])
    def test_malformed_truth_file(self, synth_dir, tmp_path, capsys, truth):
        cell = sorted(synth_dir.glob("*.cycles.csv"))[0]
        shutil.copy(cell, tmp_path / cell.name)
        truth_path = tmp_path / cell.name.replace(".cycles.csv", ".truth.json")
        truth_path.write_text(truth)
        payload = json_error(capsys, 1, "sensitivity", "--dir", str(tmp_path),
                             "--budgets", "15", "--repeats", "1",
                             "--out", str(tmp_path / "s.csv"))
        assert (payload["error"], payload["exit_code"]) == ("InputError", 1)
        assert truth_path.name in payload["message"]

    def test_uneven_cycles_spanning_past_the_grid_cap(self, tmp_path, capsys):
        # a unit grid of 10**15 cycles would need 8 PB
        p = tmp_path / "cell.csv"
        p.write_text("cycle,discharge_capacity_ah\n1,1.0\n2,0.99\n3,0.98\n1000000000000000,0.5\n")
        payload = json_error(capsys, 2, "identify", "--input", str(p), "--q-nom", "1.0",
                             "--out", str(tmp_path / "r.json"))
        assert payload["error"] == "InputError"
        assert "span more than 1000000 cycles" in payload["message"]

    def test_spline_that_dips_below_zero(self, tmp_path, capsys):
        # every given capacity is positive; the resampled curve is not
        p = tmp_path / "cell.csv"
        p.write_text("cycle,discharge_capacity_ah\n0,1.0\n10,0.02\n11,1.0\n12,1.0\n40,1.0\n")
        payload = json_error(capsys, 2, "identify", "--input", str(p), "--q-nom", "1.0",
                             "--out", str(tmp_path / "r.json"))
        assert payload["error"] == "NonPositiveCapacity"
        assert payload["message"].startswith(
            "cubic resampling left the finite positive range at cycle 2 ")

    def test_synth_past_the_grid_cap(self, tmp_path, capsys):
        payload = json_error(capsys, 1, "synth", "--count", "1", "--n-cycles", str(10**15),
                             "--out-dir", str(tmp_path / "out"))
        assert payload == {"error": "DegenerateSpec", "exit_code": 1,
                           "message": "n_cycles must be at most 1000000, got 1000000000000000"}
        assert not (tmp_path / "out").exists()

    def test_batch_with_a_four_point_cell(self, synth_dir, tmp_path, capsys):
        for p in sorted(synth_dir.glob("fleet-*"))[:8]:
            shutil.copy(p, tmp_path / p.name)
        (tmp_path / "tiny.csv").write_text(
            "cycle,discharge_capacity_ah\n1,1.0\n2,0.9\n3,0.8\n4,0.7\n")
        (tmp_path / "tiny.meta.json").write_text('{"q_nom_ah": 1.0}')
        payload = json_error(capsys, 2, "batch", "--dir", str(tmp_path),
                             "--out", str(tmp_path / "t.csv"))
        assert (payload["error"], payload["exit_code"]) == ("TooShort", 2)


class TestPhaseExitCodes:
    """An error in loading or writing exits 1 with one JSON line, whatever its class."""

    def test_eol_threshold_flag_out_of_range(self, synth_dir, tmp_path, capsys):
        src = sorted(synth_dir.glob("fleet-*.csv"))[0]
        out = tmp_path / "r.json"
        payload = json_error(capsys, 1, "identify", "--input", str(src),
                             "--eol-threshold", "1.5", "--out", str(out))
        assert payload["error"] == "InputError"
        assert "eol_threshold: must be in (0, 1), got 1.5" in payload["message"]
        assert not out.exists()

    def test_eol_threshold_config_key_out_of_range(self, synth_dir, tmp_path, capsys):
        src = sorted(synth_dir.glob("fleet-*.csv"))[0]
        cfg = tmp_path / "knee.cfg"
        cfg.write_text("eol_threshold = 1.5\n")
        payload = json_error(capsys, 1, "--config", str(cfg), "baconwatts", "--input",
                             str(src), "--out", str(tmp_path / "r.json"))
        assert payload["error"] == "InputError"
        assert "eol_threshold" in payload["message"]

    @pytest.mark.parametrize("value", ["nan", "inf", "0"])
    def test_gamma_flag_not_positive_and_finite(self, synth_dir, tmp_path, capsys, value):
        src = sorted(synth_dir.glob("fleet-*.csv"))[0]
        out = tmp_path / "r.json"
        payload = json_error(capsys, 1, "baconwatts", "--input", str(src),
                             "--gamma", value, "--out", str(out))
        assert payload["error"] == "InputError"
        assert payload["message"] == f"gamma must be a finite real number > 0, got {float(value)}"
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "0"])
    def test_gamma_config_key_not_positive_and_finite(self, synth_dir, tmp_path, capsys,
                                                      value):
        src = sorted(synth_dir.glob("fleet-*.csv"))[0]
        cfg = tmp_path / "knee.cfg"
        cfg.write_text(f"gamma = {value}\n")
        out = tmp_path / "r.json"
        payload = json_error(capsys, 1, "--config", str(cfg), "baconwatts", "--input",
                             str(src), "--out", str(out))
        assert payload["error"] == "InputError"
        assert payload["message"] == f"gamma must be a finite real number > 0, got {float(value)}"
        assert not out.exists()

    def test_batch_with_a_non_string_sidecar_cell_id(self, tmp_path, capsys):
        for name, meta in (("a", '{"cell_id": "a", "q_nom_ah": 1.1}'),
                           ("b", '{"cell_id": 7, "q_nom_ah": 1.1}')):
            (tmp_path / f"{name}.csv").write_text(CAPACITY_CSV)
            (tmp_path / f"{name}.meta.json").write_text(meta)
        payload = json_error(capsys, 1, "batch", "--dir", str(tmp_path),
                             "--out", str(tmp_path / "t.csv"))
        assert payload["error"] == "InputError"
        assert "b.meta.json: cell_id must be a string" in payload["message"]

    def test_out_naming_a_directory(self, synth_dir, tmp_path, capsys):
        src = sorted(synth_dir.glob("fleet-*.csv"))[0]
        out = tmp_path / "taken"
        out.mkdir()
        payload = json_error(capsys, 1, "identify", "--input", str(src), "--out", str(out))
        assert payload["error"] == "InputError"
        assert f"cannot write {out}" in payload["message"]
        assert not list(tmp_path.glob(".*.tmp*"))

    def test_batch_with_an_unencodable_sidecar_cell_id(self, synth_dir, tmp_path, capsys):
        for name in ("fleet-5-000.csv", "fleet-5-001.csv", "fleet-5-001.meta.json"):
            shutil.copy(synth_dir / name, tmp_path / name)
        # a JSON escape for a lone surrogate, which UTF-8 cannot encode
        (tmp_path / "fleet-5-000.meta.json").write_text('{"cell_id": "\\ud800", "q_nom_ah": 1.1}')
        out = tmp_path / "report"
        payload = json_error(capsys, 1, "batch", "--dir", str(tmp_path), "--methods",
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
        payload = json_error(capsys, 1, "batch", "--dir", str(tmp_path), "--methods",
                             "curvature", "--out", str(out))
        assert payload["error"] == "InputError"
        assert "fleet-5-000.meta.json: cell_id 'a%sb' holds a line break" % escape \
            in payload["message"]
        assert not out.exists()

    def test_features_with_a_line_break_in_a_file_name(self, synth_dir, tmp_path, capsys):
        shutil.copy(synth_dir / "fleet-5-000.cycles.csv", tmp_path / "fleet-5-000.cycles.csv")
        shutil.copy(synth_dir / "fleet-5-001.cycles.csv", tmp_path / "a\nb.cycles.csv")
        out = tmp_path / "f.csv"
        payload = json_error(capsys, 1, "features", "--cycles", str(tmp_path),
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

    @pytest.mark.parametrize("methods,repeated", [
        ("curvature,curvature", "curvature_rea"),
        ("curvature,curvature_rea", "curvature_rea"),
        ("baconwatts,curvature,double_bacon_watts", "double_bacon_watts"),
    ])
    def test_batch_repeated_method(self, synth_dir, tmp_path, capsys, methods, repeated):
        out = tmp_path / "t.csv"
        payload = json_error(capsys, 1, "batch", "--dir", str(synth_dir),
                             "--methods", methods, "--out", str(out))
        assert payload["error"] == "UsageError"
        assert f"method {repeated!r} given more than once" in payload["message"]
        assert not out.exists()

    @pytest.mark.parametrize("budgets", ["20:15", "16:15:1"])
    def test_sensitivity_empty_budget_range(self, synth_dir, tmp_path, capsys, budgets):
        out = tmp_path / "s.csv"
        payload = json_error(capsys, 1, "sensitivity", "--dir", str(synth_dir),
                             "--budgets", budgets, "--out", str(out))
        assert payload["error"] == "UsageError"
        assert f"--budgets {budgets!r} selects no budget" in payload["message"]
        assert not out.exists()

    def test_sensitivity_unparseable_budgets(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "s.csv"
        payload = json_error(capsys, 1, "sensitivity", "--dir", str(synth_dir),
                             "--budgets", "a:b", "--out", str(out))
        assert payload["error"] == "UsageError"
        assert "cannot parse --budgets 'a:b' (expected LO:HI)" in payload["message"]
        assert not out.exists()

    # the directory does not exist, so the budget is refused before any read;
    # test_numbers.py's TestOneRulePerKind gives every count flag its bad values
    def test_a_count_flag_in_text_mode(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert run_cli("sensitivity", "--dir", "missing", "--budgets", "18:6:-4",
                       "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            "error: InputError: budget must be an int >= 11, got 10\n")
        assert not out.exists()

    def test_budget_eleven_is_accepted(self, synth_dir, tmp_path):
        out = tmp_path / "f.csv"
        assert run_cli("features", "--cycles", str(synth_dir), "--budget", "11",
                       "--out", str(out)) == 0
        assert len(out.read_text().splitlines()) == 13

    @pytest.mark.parametrize("value", ["-5", "1"])
    def test_identify_negative_cac_window_flag(self, synth_dir, tmp_path, capsys, value):
        out = tmp_path / "r.json"
        payload = json_error(capsys, 1, "identify", "--input",
                             str(synth_dir / "fleet-5-000.csv"),
                             "--cac-window", value, "--out", str(out))
        assert payload["error"] == "DegenerateWindow"
        assert f"cac_window must be 0 or >= 2, got {value}" in payload["message"]
        assert not out.exists()

    def test_identify_negative_cac_window_config_key(self, synth_dir, tmp_path, capsys):
        cfg = tmp_path / "knee.cfg"
        cfg.write_text("cac_window = -5\n")
        payload = json_error(capsys, 1, "--config", str(cfg), "identify", "--input",
                             str(synth_dir / "fleet-5-000.csv"),
                             "--out", str(tmp_path / "r.json"))
        assert payload["error"] == "DegenerateWindow"

    def test_identify_negative_exclusion(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "r.json"
        payload = json_error(capsys, 1, "identify", "--input",
                             str(synth_dir / "fleet-5-000.csv"),
                             "--exclusion", "-1", "--out", str(out))
        assert payload["error"] == "IndexOutOfRange"
        assert "exclusion_radius must be an int >= 0" in payload["message"]
        assert not out.exists()

    def test_mp_window_flag_is_gone(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "r.json"
        payload = json_error(capsys, 1, "identify", "--input",
                             str(synth_dir / "fleet-5-000.csv"),
                             "--mp-window", "5", "--out", str(out))
        assert payload["error"] == "UsageError"
        assert "unrecognized arguments: --mp-window 5" in payload["message"]
        assert not out.exists()

    def test_mp_window_config_key_is_gone(self, synth_dir, tmp_path, capsys):
        cfg = tmp_path / "knee.cfg"
        cfg.write_text("mp_window = 5\n")
        out = tmp_path / "r.json"
        payload = json_error(capsys, 1, "--config", str(cfg), "identify", "--input",
                             str(synth_dir / "fleet-5-000.csv"), "--out", str(out))
        assert payload["error"] == "InputError"
        assert payload["message"] == "unknown config keys: mp_window"
        assert not out.exists()

    @pytest.mark.parametrize("flags,error", [
        (("--sg-window", "0"), "WindowTooLarge"),
        (("--sg-window", "-7"), "WindowTooLarge"),
        (("--sg-window", "4", "--sg-order", "1"), "EvenWindow"),
    ])
    def test_identify_sg_window_savgol_rejects(self, synth_dir, tmp_path, capsys,
                                               flags, error):
        out = tmp_path / "r.json"
        payload = json_error(capsys, 1, "identify", "--input",
                             str(synth_dir / "fleet-5-000.csv"), *flags,
                             "--out", str(out))
        assert payload["error"] == error
        assert "sg_window must be" in payload["message"]
        assert not out.exists()

    @pytest.mark.parametrize("window, error", [
        ("1", "WindowTooLarge"),
        ("-1", "WindowTooLarge"),
        ("4", "EvenWindow"),
    ])
    def test_identify_curv_window_rejects(self, synth_dir, tmp_path, capsys, window,
                                          error):
        out = tmp_path / "r.json"
        payload = json_error(capsys, 1, "identify", "--input",
                             str(synth_dir / "fleet-5-000.csv"),
                             "--curv-window", window, "--out", str(out))
        assert payload["error"] == error
        assert "curv_window must be" in payload["message"]
        assert not out.exists()

    def scaled_capacity_csv(self, synth_dir, tmp_path, factor):
        src = (synth_dir / "fleet-5-000.csv").read_text().splitlines()
        p = tmp_path / "scaled.csv"
        p.write_text("\n".join([src[0]] + [
            f"{cycle},{float(q) * factor!r}"
            for cycle, q in (line.split(",") for line in src[1:])
        ]) + "\n")
        return p

    @pytest.mark.parametrize("command", ["identify", "baconwatts"])
    def test_normalization_overflow_is_input_error(self, synth_dir, tmp_path, capsys,
                                                   command):
        # ~1e306 Ah over 1e-300 Ah overflows; RuntimeWarnings are errors here
        p = self.scaled_capacity_csv(synth_dir, tmp_path, 1e306)
        out = tmp_path / "r.json"
        payload = json_error(capsys, 1, command, "--input", str(p),
                             "--q-nom", "1e-300", "--out", str(out))
        assert payload["error"] == "InputError"
        assert "q_nom_ah=1e-300" in payload["message"]
        assert not out.exists()

    def test_baconwatts_overflowing_cost_is_non_finite_residual(self, synth_dir,
                                                               tmp_path, capsys):
        # residuals of ~1e200 Ah are finite, their sum of squares is not
        p = self.scaled_capacity_csv(synth_dir, tmp_path, 1e200)
        out = tmp_path / "r.json"
        payload = json_error(capsys, 2, "baconwatts", "--input", str(p),
                             "--q-nom", "1.1e200", "--out", str(out))
        assert payload["error"] == "NonFiniteResidual"
        assert not out.exists()

    @pytest.mark.parametrize("labels,flags,message", [
        (("8e307", "1", "8e307", "1"), ("--min-leaf", "1"),
         "after 0 of 300 trees (learning_rate 0.05)"),
        (("100", "200", "300", "400"), ("--learning-rate", "3", "--n-trees", "2000"),
         "after 504 of 2000 trees (learning_rate 3.0)"),
        (("100", "200", "300", "400"), ("--learning-rate", "1e300"),
         "after 1 of 300 trees (learning_rate 1e+300)"),
    ], ids=["huge-labels", "diverging-rate", "huge-rate"])
    def test_train_overflowing_residuals(self, tmp_path, capsys, labels, flags, message):
        feats, labels_csv = tmp_path / "f.csv", tmp_path / "l.csv"
        feats.write_text(FEATURES_CSV + "d,3,0,0,0,1,0\n")
        labels_csv.write_text("cell_id,onset_cycle\n" + "".join(
            f"{cell},{label}\n" for cell, label in zip("abcd", labels)))
        out = tmp_path / "m.json"
        payload = json_error(capsys, 2, "train", "--features", str(feats),
                             "--labels", str(labels_csv), *flags, "--out", str(out))
        assert payload["error"] == "NonFiniteResidual"
        assert message in payload["message"]
        assert not out.exists()

    @pytest.mark.parametrize("n_cycles", ["-5", "0"])
    def test_synth_too_few_cycles(self, tmp_path, capsys, n_cycles):
        out_dir = tmp_path / "fleet"
        payload = json_error(capsys, 1, "synth", "--count", "2", "--n-cycles", n_cycles,
                             "--out-dir", str(out_dir))
        assert payload["error"] == "DegenerateSpec"
        assert f"n_cycles must be an int >= 10, got {n_cycles}" in payload["message"]
        assert not out_dir.exists()

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_predict_non_finite_feature(self, tmp_path, capsys, bad):
        feats, model = tmp_path / "f.csv", tmp_path / "m.json"
        feats.write_text(FEATURES_CSV.replace("b,1,0,", f"b,{bad},0,"))
        model.write_text('{"init_value": 1.0, "learning_rate": 0.1, "n_features": 6,'
                         ' "trees": []}')
        out = tmp_path / "p.csv"
        payload = json_error(capsys, 2, "predict", "--model", str(model),
                             "--features", str(feats), "--out", str(out))
        assert payload["error"] == "NonFiniteFeature"
        assert not out.exists()

    @pytest.mark.parametrize("scale", [4e300, 1e110])
    def test_features_overflowing_moments(self, synth_dir, tmp_path, capsys, scale):
        # 4e300 overflows the moments themselves, 1e110 only the powers of
        # a finite variance in skewness and kurtosis
        lines = (synth_dir / "fleet-5-000.cycles.csv").read_text().splitlines()
        rows = [lines[0]]
        for line in lines[1:]:
            cycle, voltage, capacity = line.split(",")
            if cycle == "30":
                capacity = repr(float(capacity) * scale)
            rows.append(",".join([cycle, voltage, capacity]))
        cycles = tmp_path / "big.cycles.csv"
        cycles.write_text("\n".join(rows) + "\n")
        out = tmp_path / "f.csv"
        payload = json_error(capsys, 2, "features", "--cycles", str(cycles),
                             "--out", str(out))
        assert payload["error"] == "NonFiniteFeature"
        bad = "var_dq=inf, skew_dq=nan, kurt_dq=nan" if scale > 1e300 else "skew_dq=nan, kurt_dq=nan"
        assert payload["message"] == f"cell big: non-finite feature: {bad}"
        assert not out.exists()

    def test_features_missing_cycle_names_the_cell(self, synth_dir, tmp_path, capsys):
        for name in ("fleet-5-000.cycles.csv", "fleet-5-001.cycles.csv"):
            lines = (synth_dir / name).read_text().splitlines(keepends=True)
            if name.startswith("fleet-5-001"):  # the second cell lacks cycle 10
                lines = [ln for ln in lines if not ln.startswith("10,")]
            (tmp_path / name).write_text("".join(lines))
        out = tmp_path / "f.csv"
        payload = json_error(capsys, 2, "features", "--cycles", str(tmp_path),
                             "--out", str(out))
        assert payload["error"] == "MissingCycle"
        assert payload["message"] == "cell fleet-5-001: cycle 10 not present"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["identify", "baconwatts"])
    def test_smoothing_that_overflows(self, tmp_path, capsys, command):
        cell = tmp_path / "cell.csv"
        cell.write_text("cycle,discharge_capacity_ah\n" + "".join(
            f"{k},{1.0e308 if k % 2 else 1.7e308!r}\n" for k in range(1, 41)))
        out = tmp_path / "r.json"
        payload = json_error(capsys, 2, command, "--input", str(cell), "--q-nom", "1",
                             "--out", str(out))
        assert payload["error"] == "SmoothingOverflow"
        assert "the smoothed series overflows" in payload["message"]
        assert not out.exists()


# each window, order and exclusion value that PipelineParams rejects, and its class
INVALID_PARAMS = [
    ("sg_window", "0", "WindowTooLarge"), ("sg_window", "1", "WindowTooLarge"),
    ("sg_window", "-7", "WindowTooLarge"), ("sg_window", "4", "EvenWindow"),
    ("sg_order", "-1", "OrderTooHigh"), ("sg_order", "21", "OrderTooHigh"),
    ("curv_window", "1", "WindowTooLarge"), ("curv_window", "-1", "WindowTooLarge"),
    ("curv_window", "4", "EvenWindow"),
    ("cac_window", "-5", "DegenerateWindow"), ("cac_window", "1", "DegenerateWindow"),
    ("exclusion_radius", "-1", "IndexOutOfRange"),
]
FLAGS = {"sg_window": "--sg-window", "sg_order": "--sg-order", "curv_window": "--curv-window",
         "cac_window": "--cac-window", "exclusion_radius": "--exclusion"}


class TestInvalidParamsAtLoad:
    """Every command that reads PipelineParams rejects a bad value at load, exit 1,
    whether it uses that parameter or not."""

    @pytest.mark.parametrize("key, value, error", INVALID_PARAMS)
    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command", ["identify", "baconwatts", "batch"])
    def test_exits_1_and_writes_nothing(self, synth_dir, tmp_path, capsys, command, source,
                                        key, value, error):
        if command == "batch":
            argv = [command, "--dir", str(synth_dir), "--methods", "baconwatts"]
        else:
            argv = [command, "--input", str(synth_dir / "fleet-5-000.csv")]
        if source == "flag":
            argv += [FLAGS[key], value]
        else:
            (tmp_path / "knee.cfg").write_text(f"{key} = {value}\n")
            argv = ["--config", str(tmp_path / "knee.cfg"), *argv]
        out = tmp_path / ("t.csv" if command == "batch" else "r.json")
        assert run_cli("--json-errors", *argv, "--out", str(out)) == 1
        payload = json.loads(capsys.readouterr().err)
        assert (payload["error"], payload["exit_code"]) == (error, 1)
        assert f"{key} " in payload["message"]
        assert [p.name for p in tmp_path.iterdir()] == ([] if source == "flag" else ["knee.cfg"])

    @pytest.mark.parametrize("json_errors", [False, True])
    def test_overflowing_smoothing_order(self, synth_dir, tmp_path, capsys, json_errors):
        argv = ["identify", "--input", str(synth_dir / "fleet-5-000.csv"), "--sg-window",
                "201", "--sg-order", "190", "--out", str(tmp_path / "r.json")]
        assert run_cli(*["--json-errors"][:json_errors], *argv) == 1
        [line] = capsys.readouterr().err.splitlines()
        message = ("order 190 at window 201: the Savitzky-Golay design matrix overflows"
                   " float64 (100**190)")
        if json_errors:
            assert json.loads(line) == {"error": "OrderTooHigh", "message": message,
                                        "exit_code": 1}
        else:
            assert line == f"error: OrderTooHigh: {message}"
        assert list(tmp_path.iterdir()) == []

    def test_checked_before_the_input_is_read(self, tmp_path, capsys):
        assert run_cli("--json-errors", "baconwatts", "--input", str(tmp_path / "absent.csv"),
                       "--exclusion", "-1", "--cac-window", "-5", "--curv-window", "4",
                       "--out", str(tmp_path / "r.json")) == 1
        payload = json.loads(capsys.readouterr().err)
        assert (payload["error"], payload["message"]) == ("EvenWindow",
                                                          "curv_window must be odd, got 4")
        assert list(tmp_path.iterdir()) == []


class TestNumbersAtLoad:
    """Values that the commands once misread or rejected only while computing."""

    @pytest.mark.parametrize("command", ["identify", "baconwatts", "batch"])
    def test_sidecar_nominal_capacity_true(self, tmp_path, capsys, command):
        (tmp_path / "cell.csv").write_text(CAPACITY_CSV)
        (tmp_path / "cell.meta.json").write_text('{"q_nom_ah": true}')
        where = ["--dir", str(tmp_path)] if command == "batch" else [
            "--input", str(tmp_path / "cell.csv")]
        payload = json_error(capsys, 1, command, *where, "--out", str(tmp_path / "out"))
        assert payload["error"] == "NonPositiveNominal"
        assert payload["message"] == "cell.csv: q_nom_ah=True is not a number"

    def test_header_only_cycle_file(self, synth_dir, tmp_path, capsys):
        shutil.copy(synth_dir / "fleet-5-000.cycles.csv", tmp_path)
        empty = tmp_path / "a.cycles.csv"
        empty.write_text("cycle,voltage_v,discharge_capacity_ah\n")
        out = tmp_path / "f.csv"
        payload = json_error(capsys, 1, "features", "--cycles", str(tmp_path), "--out", str(out))
        assert (payload["error"], payload["message"]) == (
            "InputError", f"{empty}: no cycle rows after the header")
        assert not out.exists()

    @pytest.mark.parametrize("edit", [
        lambda obj: obj["trees"][0][0].update(feature=1.7),
        lambda obj: obj["trees"][0][0].update(left=1.9),
        lambda obj: obj.update(n_features=6.9),
    ], ids=["feature", "left", "n_features"])
    def test_predict_model_with_a_fractional_index(self, tmp_path, capsys, edit):
        feats = tmp_path / "f.csv"
        feats.write_text(FEATURES_CSV)
        obj = {"init_value": 1.0, "learning_rate": 0.5, "n_features": 6, "trees": [[
            {"feature": 1, "threshold": 0.5, "left": 1, "right": 2, "value": 0.0},
            {"feature": -1, "threshold": 0.0, "left": -1, "right": -1, "value": -2.0},
            {"feature": -1, "threshold": 0.0, "left": -1, "right": -1, "value": 4.0}]]}
        edit(obj)
        model = tmp_path / "m.json"
        model.write_text(json.dumps(obj))
        payload = json_error(capsys, 1, "predict", "--model", str(model), "--features", str(feats))
        assert payload["error"] == "InvalidModel"
        assert "is not an integer" in payload["message"]


class TestExperimentDirectory:
    """A cell <id> is the files <id>.csv, .meta.json, .truth.json and .cycles.csv."""

    def test_sensitivity_dir_that_does_not_exist(self, tmp_path, capsys):
        missing = tmp_path / "nonexistent"
        payload = json_error(capsys, 1, "sensitivity", "--dir", str(missing),
                             "--out", str(tmp_path / "s.csv"))
        assert (payload["error"], payload["message"]) == (
            "InputError", f"{missing} is not a directory")

    def test_sensitivity_dir_that_is_a_file(self, synth_dir, tmp_path, capsys):
        # one labelled cell can never leave a test cell: a file is no sweep
        cycles = synth_dir / "fleet-5-000.cycles.csv"
        payload = json_error(capsys, 1, "sensitivity", "--dir", str(cycles),
                             "--out", str(tmp_path / "s.csv"))
        assert (payload["error"], payload["message"]) == (
            "InputError", f"{cycles} is not a directory")
        assert not (tmp_path / "s.csv").exists()

    def test_an_id_that_holds_a_suffix(self, synth_dir, tmp_path):
        # the cell "x.cycles.csv-0" pairs with x.cycles.csv-0.truth.json
        sweeps = {}
        for renamed in ("x.cycles.csv-0", "x-0"):
            d = tmp_path / renamed
            d.mkdir()
            for path in synth_dir.iterdir():
                name = path.name.replace("fleet-5-000.", f"{renamed}.")
                shutil.copy(path, d / name)
            out = tmp_path / f"{renamed}.csv"
            assert run_cli("sensitivity", "--dir", str(d), "--budgets", "20",
                           "--repeats", "1", "--out", str(out)) == 0
            sweeps[renamed] = out.read_bytes()
            feats = tmp_path / f"{renamed}-features.csv"
            assert run_cli("features", "--cycles", str(d), "--out", str(feats)) == 0
            assert feats.read_text().splitlines()[-1].startswith(f"{renamed},")
        assert sweeps["x.cycles.csv-0"] == sweeps["x-0"]
