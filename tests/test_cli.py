"""Command-line surface: pipeline wiring, file formats, exit codes,
manifests, and reproducibility."""

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import platform
import random
import re
import resource
import subprocess
import sys
import tempfile
import time
import warnings
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import spearmanr

import memnas
from memnas.cli import MAX_BUCKETS, MAX_ROWS, MAX_SEARCH_SIZE, _spearman, build_parser, main
from memnas.planner import MAX_EXTENT, ChannelSchedule, REFERENCE_WIDTHS
from memnas.predictor import Dataset, bucket_edges_from_pilot, bucket_index, feature_length
from memnas.space import SupernetSpace, default_space, maximal_config, sample_uniform


@pytest.fixture(scope="module")
def space():
    return default_space()


@pytest.fixture()
def space_file(tmp_path, space):
    path = tmp_path / "space.json"
    path.write_text(json.dumps(space.to_json_dict()))
    return str(path)


@pytest.fixture()
def config_file(tmp_path, space):
    path = tmp_path / "max.json"
    path.write_text(json.dumps(maximal_config(space).to_json_dict()))
    return str(path)


def run_cli(*argv):
    """Run the command in a fresh interpreter, so that stderr shows whatever
    an uncaught exception would print."""
    src = Path(memnas.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, "-m", "memnas.cli", *map(str, argv)],
        capture_output=True, text=True, env=env, timeout=120,
    )


def doubling_space():
    return SupernetSpace(
        schedule=ChannelSchedule(
            stem_width=8,
            stage_widths=(16, 32, 64, 128, 256),
            head_width=512,
            divisor=8,
        )
    )


class TestProfileCommand:
    def test_summary_and_csv(self, tmp_path, space_file, config_file, capsys):
        csv_path = tmp_path / "trace.csv"
        code = main(
            ["profile", "--config", config_file, "--space", space_file,
             "--bytes", "--csv", str(csv_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "peak:   606816 items" in out
        assert "= 2427264 bytes" in out
        assert "flops:  2330.0 M" in out
        lines = csv_path.read_text().strip().splitlines()
        # stem + 3 records x 20 blocks + head
        assert len(lines) == 1 + 62
        assert os.path.exists(str(csv_path) + ".manifest.json")

    def test_classifier_record_appears_on_request(self, tmp_path, space_file, config_file, capsys):
        csv_path = tmp_path / "cls.csv"
        code = main(
            ["profile", "--config", config_file, "--space", space_file,
             "--include-classifier", "--csv", str(csv_path)]
        )
        assert code == 0
        assert csv_path.read_text().strip().splitlines()[-1].split(",")[1] == "classifier"

    def test_malformed_json_exits_2_without_output(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        csv_path = tmp_path / "never.csv"
        code = main(["profile", "--config", str(bad), "--csv", str(csv_path)])
        assert code == 2
        assert not csv_path.exists()
        assert "malformed JSON" in capsys.readouterr().err

    def test_missing_file_exits_4(self, tmp_path, capsys):
        code = main(["profile", "--config", str(tmp_path / "absent.json")])
        assert code == 4

    def test_invalid_config_exits_2_with_violations(self, tmp_path, space_file, capsys):
        cfg = tmp_path / "cfg.json"
        d = maximal_config(default_space()).to_json_dict()
        d["stages"][0]["expands"][0] = 6
        cfg.write_text(json.dumps(d))
        code = main(["profile", "--config", str(cfg), "--space", space_file])
        assert code == 2
        assert "expands[0]" in capsys.readouterr().err


class TestPlanCommand:
    def test_numeric_mode_reports_deviation_table(self, tmp_path, capsys):
        out = tmp_path / "sched.json"
        code = main(["plan", "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        for w in REFERENCE_WIDTHS:
            assert str(w) in text
        assert "deviation" in text
        sched = json.loads(out.read_text())
        assert sched["stage_widths"] == [24, 88, 272, 344, 344]
        assert sched["head_width"] == 344

    def test_closed_form_warns_and_fails_at_default_stem(self, capsys):
        code = main(["plan", "--mode", "closed-form"])
        assert code == 3
        captured = capsys.readouterr()
        assert "warning" in captured.out
        assert "stage 1" in captured.err

    def test_closed_form_completes_from_wider_stem(self, tmp_path, capsys):
        out = tmp_path / "cf.json"
        code = main(["plan", "--mode", "closed-form", "--stem", "64", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["stage_widths"] == [40, 72, 48, 64, 56]

    def test_plan_cost_does_not_grow_with_depth(self, tmp_path, capsys):
        # a planned stage is its transition and at most one inner block, so
        # any depth past 2 plans as fast as 4, to the same schedule
        outs = {d: tmp_path / f"depth{d}.json" for d in (4, 4_194_305)}
        start = time.perf_counter()
        assert main(["plan", "--depth", "4194305", "--out", str(outs[4_194_305])]) == 0
        assert time.perf_counter() - start < 10
        assert main(["plan", "--depth", "4", "--out", str(outs[4])]) == 0
        assert outs[4_194_305].read_bytes() == outs[4].read_bytes()

    def test_divisor_one_unquantized(self, tmp_path):
        out = tmp_path / "d1.json"
        assert main(["plan", "--divisor", "1", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["stage_widths"] == [31, 121, 336, 412, 412]


class TestPipeline:
    def test_sample_train_search_sweep(self, tmp_path, space_file, capsys):
        data = tmp_path / "data.jsonl"
        model = tmp_path / "model.json"
        result = tmp_path / "result.json"
        curve = tmp_path / "curve.csv"

        assert main(
            ["sample", "--n", "200", "--buckets", "5", "--seed", "1",
             "--space", space_file, "--out", str(data)]
        ) == 0
        rows = [json.loads(line) for line in data.read_text().splitlines()]
        assert len(rows) == 200
        assert set(rows[0]) == {"config", "peak_items", "score"}

        assert main(
            ["train-predictor", "--dataset", str(data), "--l2", "1.0",
             "--seed", "1", "--space", space_file, "--out", str(model)]
        ) == 0
        out = capsys.readouterr().out
        assert "held-out rank correlation" in out
        saved = json.loads(model.read_text())
        assert set(saved) == {"weights", "intercept", "l2", "seed", "rows"}

        assert main(
            ["search", "--constraint", "350000", "--model", str(model),
             "--seed", "1", "--space", space_file,
             "--population", "20", "--generations", "6", "--out", str(result)]
        ) == 0
        res = json.loads(result.read_text())
        assert res["best_peak_items"] <= 350_000
        assert len(res["history"]) == 6

        assert main(
            ["sweep", "--constraints", "350000,400000", "--seed", "1",
             "--space", space_file, "--no-noise",
             "--population", "12", "--generations", "4", "--out", str(curve)]
        ) == 0
        lines = curve.read_text().strip().splitlines()
        assert lines[0] == "constraint_items,best_score,best_peak_items,evaluations"
        assert len(lines) == 3
        for artifact in (data, model, result, curve):
            with open(str(artifact) + ".manifest.json") as fh:
                manifest = json.load(fh)
            assert manifest["seed"] == 1
            assert manifest["tool_version"]

    def test_default_ten_bucket_sample_fills_every_bucket(self, tmp_path, capsys):
        # seed 2 used to fill only 853/1000 rows and exit 3: uniform draws
        # rarely reach the lowest-peak buckets
        out = tmp_path / "data.jsonl"
        assert main(["sample", "--n", "1000", "--seed", "2", "--out", str(out)]) == 0
        printed = re.search(r"bucket edges: \[(.*)\]", capsys.readouterr().out).group(1)
        printed = [float(e) for e in printed.split(",")]
        edges = bucket_edges_from_pilot([printed[0], printed[-1]], len(printed) - 1)
        with open(out) as fh:
            rows = Dataset.read_jsonl(fh).rows
        occupancy = [0] * 10
        for row in rows:
            occupancy[bucket_index(row.peak_items, edges)] += 1
        assert len(edges) == 11 and len(rows) == 1000
        assert max(occupancy) - min(occupancy) <= 1

    def test_default_space_and_parser_are_built_once(self, tmp_path, monkeypatch, capsys):
        # a process that runs several commands plans the default space and
        # builds the parser for its first command only
        space_module = importlib.import_module("memnas.space")
        cli_module = importlib.import_module("memnas.cli")
        calls = {"plan_schedule": 0, "build_parser": 0}

        def counted(module, name):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            fn = getattr(module, name)
            monkeypatch.setattr(module, name, wrapper)

        counted(space_module, "plan_schedule")
        counted(cli_module, "build_parser")
        default_space.cache_clear()
        cli_module._parser.cache_clear()
        data, result = tmp_path / "data.jsonl", tmp_path / "result.json"
        assert main(["sample", "--n", "20", "--buckets", "2", "--out", str(data)]) == 0
        assert main(["search", "--constraint", "400000", "--population", "4",
                     "--generations", "2", "--out", str(result)]) == 0
        assert calls == {"plan_schedule": 1, "build_parser": 1}

    def test_warm_pass_writes_what_a_cold_run_writes(self, tmp_path, capsys):
        # the shared default space and parser carry nothing from one command
        # or pass to the next: a second pass in this process writes the
        # bytes a fresh interpreter per command writes
        results = ("data.jsonl", "model.json", "result.json", "profile.csv")

        def run_pass(d: Path, run) -> None:
            d.mkdir()
            p = {name: str(d / name) for name in results + ("best.json",)}
            run(["sample", "--n", "200", "--buckets", "2", "--out", p["data.jsonl"]])
            run(["train-predictor", "--dataset", p["data.jsonl"], "--out", p["model.json"]])
            run(["search", "--model", p["model.json"], "--constraint", "400000",
                 "--population", "20", "--generations", "5", "--out", p["result.json"]])
            best = json.loads((d / "result.json").read_text())["best_config"]
            (d / "best.json").write_text(json.dumps(best))
            run(["profile", "--config", p["best.json"], "--csv", p["profile.csv"]])

        def in_process(argv):
            assert main(argv) == 0

        def cold(argv):
            assert run_cli(*argv).returncode == 0

        run_pass(tmp_path / "first", in_process)
        run_pass(tmp_path / "warm", in_process)
        run_pass(tmp_path / "cold", cold)
        for name in results:
            assert (tmp_path / "warm" / name).read_bytes() == (tmp_path / "cold" / name).read_bytes()

    def test_search_reruns_byte_identical(self, tmp_path, space_file):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        args = ["search", "--constraint", "400000", "--no-noise", "--seed", "7",
                "--space", space_file, "--population", "16", "--generations", "5"]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_infeasible_search_exits_3(self, tmp_path, space_file, capsys):
        code = main(
            ["search", "--constraint", "1000", "--no-noise", "--seed", "2",
             "--space", space_file, "--population", "4", "--generations", "2",
             "--out", str(tmp_path / "never.json")]
        )
        assert code == 3
        assert not (tmp_path / "never.json").exists()
        assert "infeasible" in capsys.readouterr().err

    def test_unwritable_out_exits_4_naming_it(self, tmp_path, capsys):
        out = str(tmp_path / "missing" / "d.jsonl")
        assert main(["sample", "--n", "10", "--out", out]) == 4
        err = capsys.readouterr().err
        assert f"error: I/O: [Errno 2] No such file or directory: {out!r}" in err
        assert ".tmp-" not in err


class TestCompareCommand:
    def test_planner_flat_versus_doubling_baseline(self, tmp_path, space_file, config_file, capsys):
        baseline = tmp_path / "baseline_space.json"
        baseline.write_text(json.dumps(doubling_space().to_json_dict()))
        out = tmp_path / "compare.csv"
        code = main(
            ["compare", "--config-a", config_file, "--config-b", config_file,
             "--space-a", space_file, "--space-b", str(baseline),
             "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "index,label_a,total_items_a,label_b,total_items_b"
        assert len(lines) == 63

        def block_peaks(col_label, col_total):
            peaks = {}
            for line in lines[1:]:
                parts = line.split(",")
                label, total = parts[col_label], parts[col_total]
                if ".exp" in label or ".dw" in label or ".proj" in label:
                    block = label.rsplit(".", 1)[0]
                    peaks[block] = max(peaks.get(block, 0), int(total))
            return list(peaks.values())

        def cov(values):
            mean = sum(values) / len(values)
            var = sum((v - mean) ** 2 for v in values) / len(values)
            return var ** 0.5 / mean

        planner_cov = cov(block_peaks(1, 2))
        baseline_cov = cov(block_peaks(3, 4))
        # the planned schedule flattens the trace; the doubling baseline has
        # an early peak followed by decay
        assert planner_cov <= 0.5 * baseline_cov


class TestSeedDefaults:
    def test_unseeded_commands_default_to_zero(self, tmp_path, space_file):
        out1 = tmp_path / "s1.jsonl"
        out2 = tmp_path / "s2.jsonl"
        for out in (out1, out2):
            assert main(
                ["sample", "--n", "30", "--buckets", "3", "--space", space_file,
                 "--out", str(out)]
            ) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_a_dash_value_joined_to_its_flag_is_named(self, tmp_path, capsys):
        # the --flag=-value form the help epilog gives: argparse refuses the
        # value by name instead of reading it as an option
        out = tmp_path / "r.json"
        with pytest.raises(SystemExit) as exc:
            main(["search", "--constraint", "800000", "--seed=-inf", "--out", str(out)])
        assert exc.value.code == 2
        assert "argument --seed: invalid int value: '-inf'" in capsys.readouterr().err
        assert not out.exists()
        assert "--seed=-inf" in " ".join(build_parser().format_help().split())


def mangled_space(mangle):
    """The default space's JSON, changed in place by ``mangle``."""
    d = default_space().to_json_dict()
    mangle(d)
    return d


def mangled_model(mangle):
    """A model of the default space with zero weights, as JSON changed in
    place by ``mangle``."""
    weights = [0.0] * feature_length(default_space())
    d = {"weights": weights, "intercept": 0.0, "l2": 1.0, "seed": 0, "rows": 1}
    mangle(d)
    return d


def space_commands() -> dict:
    """The subcommands of ``build_parser()`` that take ``--space``, by name."""
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: p for name, p in sub.choices.items() if any(a.dest == "space" for a in p._actions)
    }


class TestMalformedInput:
    """Malformed input exits 2 with a message naming the field, never with
    a traceback."""

    def test_non_integer_sweep_level(self, tmp_path):
        done = run_cli("sweep", "--constraints", "300000,abc", "--out", tmp_path / "c.csv")
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert "comma-separated integers" in done.stderr

    def test_sweep_without_levels(self, tmp_path):
        out = tmp_path / "c.csv"
        done = run_cli("sweep", "--constraints", ",", "--out", out)
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert "comma-separated integers" in done.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--divisor", "0", "divisor: expected a positive integer, got 0"),
            ("--expand", "nan", "expand: expected a positive number, got nan"),
            ("--expand", "inf", "expand: expected a positive number, got inf"),
            ("--expand", "1e308", "expand: expected a positive number of at most 4194304, got 1e+308"),
        ],
    )
    def test_plan_number(self, tmp_path, flag, value, message):
        out = tmp_path / "schedule.json"
        done = run_cli("plan", flag, value, "--out", out)
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert message in done.stderr
        assert not out.exists()

    @pytest.mark.parametrize("l2", ["nan", "inf"])
    def test_train_l2_not_finite(self, tmp_path, space, l2):
        row = {"config": maximal_config(space).to_json_dict(), "peak_items": 1, "score": 1.0}
        data = tmp_path / "data.jsonl"
        data.write_text((json.dumps(row) + "\n") * 3)
        model = tmp_path / "m.json"
        done = run_cli("train-predictor", "--dataset", data, "--l2", l2, "--out", model)
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert f"l2: expected a non-negative number, got {l2}" in done.stderr
        assert not model.exists()

    def test_config_without_stages(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"resolution": 224}))
        done = run_cli("profile", "--config", cfg)
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert "stages: missing" in done.stderr

    def test_config_value_shows_its_type(self, tmp_path, space):
        config = maximal_config(space).to_json_dict()
        config["stages"][0]["kernels"][0] = "7"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        done = run_cli("profile", "--config", path)
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert "stages[0].kernels[0]: '7' not in options [3, 5, 7]" in done.stderr

    def test_boolean_gene(self, tmp_path, space):
        # with depth 1 in the space, a depth of true would pass validation as
        # 1, yet the noisy oracle would hash it as "true" and score it apart
        ones = replace(space, depth_options=(1, 2, 3, 4))
        space_path = tmp_path / "space.json"
        space_path.write_text(json.dumps(ones.to_json_dict()))
        config = maximal_config(ones).to_json_dict()
        config["stages"][3]["depth"] = True
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        done = run_cli("profile", "--space", space_path, "--config", path)
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert "stages[3].depth: expected a number, got True" in done.stderr

    FLOAT_GENES = {
        "depth": (lambda d: d["stages"][0].update(depth=2.0), "stages[0].depth", "2.0"),
        "kernel": (
            lambda d: d["stages"][2]["kernels"].__setitem__(1, 7.0), "stages[2].kernels[1]", "7.0"
        ),
        "resolution": (lambda d: d.update(resolution=224.0), "resolution", "224.0"),
    }

    @pytest.mark.parametrize("gene", sorted(FLOAT_GENES))
    def test_float_gene(self, tmp_path, space, gene):
        # 2.0 equals the option 2, yet a float depth cannot count blocks;
        # the parse refuses a float resolution, depth or kernel by its path
        mangle, path, value = self.FLOAT_GENES[gene]
        config = maximal_config(space).to_json_dict()
        mangle(config)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        done = run_cli("profile", "--config", cfg)
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert f"{path}: expected an integer, got {value}" in done.stderr

    def test_dataset_row_with_a_float_depth(self, tmp_path, space):
        good = {"config": maximal_config(space).to_json_dict(), "peak_items": 1, "score": 1.0}
        bad = json.loads(json.dumps(good))
        bad["config"]["stages"][3]["depth"] = 4.0
        data = tmp_path / "data.jsonl"
        data.write_text("".join(json.dumps(row) + "\n" for row in [good, good, bad]))
        done = run_cli("train-predictor", "--dataset", data, "--out", tmp_path / "m.json")
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert "line 3: config.stages[3].depth: expected an integer, got 4.0" in done.stderr
        assert not (tmp_path / "m.json").exists()

    def test_dataset_row_without_config(self, tmp_path, space):
        good = {"config": maximal_config(space).to_json_dict(), "peak_items": 1, "score": 1.0}
        no_config = {"peak_items": 1, "score": 1.0}
        data = tmp_path / "data.jsonl"
        data.write_text(json.dumps(good) + "\n" + json.dumps(no_config) + "\n")
        done = run_cli("train-predictor", "--dataset", data, "--out", tmp_path / "m.json")
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert "line 2: config: missing" in done.stderr
        assert not (tmp_path / "m.json").exists()

    def test_dataset_line_not_json(self, tmp_path, space):
        good = {"config": maximal_config(space).to_json_dict(), "peak_items": 1, "score": 1.0}
        data = tmp_path / "data.jsonl"
        data.write_text(json.dumps(good) + "\n{nope\n")
        done = run_cli("train-predictor", "--dataset", data, "--out", tmp_path / "m.json")
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert "line 2: malformed JSON" in done.stderr
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize(
        "flag, command",
        [
            ("--space", ["search", "--constraint", "800000", "--out", "{out}"]),
            ("--model", ["search", "--constraint", "800000", "--out", "{out}"]),
            ("--config", ["profile", "--csv", "{out}"]),
            ("--config-a", ["compare", "--config-b", "{config}", "--out", "{out}"]),
        ],
    )
    def test_file_not_json(self, tmp_path, config_file, flag, command):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        out = tmp_path / "out"
        done = run_cli(*[arg.format(config=config_file, out=out) for arg in command], flag, bad)
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert f"{bad}: malformed JSON" in done.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, command",
        [
            ("--config", ["profile", "--csv", "{out}"]),
            ("--model", ["search", "--constraint", "800000", "--out", "{out}"]),
            ("--space", ["search", "--constraint", "800000", "--out", "{out}"]),
        ],
    )
    def test_file_not_utf8(self, tmp_path, flag, command):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff{}")
        out = tmp_path / "out"
        done = run_cli(*[arg.format(out=out) for arg in command], flag, bad)
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert f"{bad}: not UTF-8: 'utf-8' codec can't decode byte 0xff in position 0" in (
            done.stderr
        )
        assert not out.exists()

    # valid JSON that Python's decoder refuses: an integer longer than the
    # interpreter's 4,300-digit limit, and nesting beyond its recursion limit
    UNDECODABLE = {
        "huge-integer": ("1" * 5_000, "Exceeds the limit (4300 digits)"),
        "deep-nesting": ("[" * 200_000 + "]" * 200_000, "maximum recursion depth exceeded"),
    }

    @pytest.mark.parametrize("value", sorted(UNDECODABLE))
    @pytest.mark.parametrize(
        "flag, command",
        [
            ("--space", ["search", "--constraint", "800000", "--out", "{out}"]),
            ("--model", ["search", "--constraint", "800000", "--out", "{out}"]),
            ("--config", ["profile", "--csv", "{out}"]),
            ("--dataset", ["train-predictor", "--out", "{out}"]),
        ],
    )
    def test_json_the_decoder_refuses(self, tmp_path, space, flag, command, value):
        text, message = self.UNDECODABLE[value]
        bad = tmp_path / "bad.json"
        if flag == "--dataset":
            good = {"config": maximal_config(space).to_json_dict(), "peak_items": 1, "score": 1.0}
            bad.write_text(json.dumps(good) + '\n{"score": ' + text + "}\n")
            where = "line 2"
        else:
            bad.write_text('{"resolution": ' + text + "}")
            where = str(bad)
        out = tmp_path / "out"
        done = run_cli(*[arg.format(out=out) for arg in command], flag, bad)
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert f"{where}: malformed JSON: {message}" in done.stderr
        assert not out.exists()

    def test_dataset_line_not_utf8(self, tmp_path, space):
        good = {"config": maximal_config(space).to_json_dict(), "peak_items": 1, "score": 1.0}
        data = tmp_path / "data.jsonl"
        data.write_bytes((json.dumps(good) + "\n").encode() * 2 + b'{"config": "\xff"}\n')
        done = run_cli("train-predictor", "--dataset", data, "--out", tmp_path / "m.json")
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert "line 3: not UTF-8: invalid start byte, byte 0xff" in done.stderr
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("score", "abc", "line 4: score: expected a number, got 'abc'"),
            ("peak_items", "x", "line 4: peak_items: expected a non-negative integer, got 'x'"),
        ],
    )
    def test_dataset_row_value(self, tmp_path, space, field, value, message):
        good = {"config": maximal_config(space).to_json_dict(), "peak_items": 1, "score": 1.0}
        data = tmp_path / "data.jsonl"
        rows = [good] * 3 + [{**good, field: value}]
        data.write_text("".join(json.dumps(row) + "\n" for row in rows))
        done = run_cli("train-predictor", "--dataset", data, "--out", tmp_path / "m.json")
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert message in done.stderr
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize(
        "score", [2 ** 64, 10 ** 300, 10 ** 400], ids=["2**64", "10**300", "10**400"]
    )
    def test_dataset_row_with_a_huge_integer_score(self, tmp_path, space, score):
        # an integer score trains as its float; one past the float range
        # exits 2 through the overflow path, not with numpy's traceback
        rows = [
            {"config": sample_uniform(space, seed).to_json_dict(), "peak_items": 1, "score": 1.0}
            for seed in range(8)
        ]
        rows[3]["score"] = score
        data = tmp_path / "data.jsonl"
        data.write_text("".join(json.dumps(row) + "\n" for row in rows))
        model = tmp_path / "m.json"
        done = run_cli("train-predictor", "--dataset", data, "--out", model)
        assert "Traceback" not in done.stderr
        if score < 10 ** 309:
            assert done.returncode == 0, done.stderr
            assert model.exists()
        else:
            assert done.returncode == 2
            assert "error: a number is too large: int too large to convert to float" in done.stderr
            assert not model.exists()

    @pytest.mark.parametrize("blank_line", [False, True], ids=["dense", "blank-line"])
    @pytest.mark.parametrize("holdout", ["0", "0.9"], ids=["trained", "held-out"])
    def test_dataset_row_that_does_not_fit_the_space(
        self, tmp_path, space, capsys, monkeypatch, holdout, blank_line
    ):
        good = {"config": sample_uniform(space, 1).to_json_dict(), "peak_items": 1, "score": 1.0}
        short = json.loads(json.dumps(good))
        short["config"]["stages"][1]["expands"].pop()
        lines = [json.dumps(row) for row in [good] * 4 + [short, good]]
        if blank_line:
            lines.insert(1, "")
        data = tmp_path / "data.jsonl"
        data.write_text("".join(line + "\n" for line in lines))
        # the short row is the fifth; at 0.9 the shuffle holds it out
        order = list(range(6))
        random.Random(0).shuffle(order)
        assert (4 in order[: {"0": 0, "0.9": 5}[holdout]]) == (holdout == "0.9")
        model = tmp_path / "m.json"
        # the line is named from the one read of the dataset: a second read
        # could see a file replaced in between
        opens = []
        builtin_open = open

        def counting_open(file, *args, **kwargs):
            opens.append(file)
            return builtin_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counting_open)
        code = main(["train-predictor", "--dataset", str(data), "--holdout", holdout,
                     "--out", str(model)])
        monkeypatch.undo()
        assert code == 2
        assert opens.count(str(data)) == 1
        line = 6 if blank_line else 5
        assert f"error: line {line}: stages[1].expands: expected 4 slots, got 3" in (
            capsys.readouterr().err
        )
        assert not model.exists()

    @pytest.mark.parametrize(
        "flag, content, message",
        [
            ("--model", {"weights": [1.0]}, "intercept: missing"),
            ("--model", [1.0], "top level: expected an object"),
            ("--space", {"num_stages": 5}, "schedule: missing"),
            ("--space", "no stage_widths", "schedule.stage_widths: missing"),
            (
                "--space",
                mangled_space(lambda d: d["schedule"].update(divisor=0)),
                "schedule.divisor: expected a positive integer, got 0",
            ),
            (
                "--space",
                mangled_space(lambda d: d.update(kernel_options=[3, "5"])),
                "kernel_options[1]: expected a positive integer, got '5'",
            ),
            (
                "--space",
                mangled_space(lambda d: d.update(num_stages="5")),
                "num_stages: expected a positive integer, got '5'",
            ),
            (
                "--space",
                mangled_space(lambda d: d.update(depth_options=[0, 2])),
                "depth_options[0]: expected a positive integer, got 0",
            ),
            (
                "--model",
                mangled_model(lambda d: d.update(intercept="x")),
                "intercept: expected a number, got 'x'",
            ),
            (
                "--model",
                mangled_model(lambda d: d["weights"].__setitem__(5, "w")),
                "weights[5]: expected a number, got 'w'",
            ),
            (
                "--space",
                mangled_space(lambda d: d.update(kernel_options=[3, 3, 5])),
                "kernel_options must be non-empty and strictly ascending",
            ),
        ],
    )
    def test_model_and_space_fields(self, tmp_path, space, flag, content, message):
        if content == "no stage_widths":
            content = space.to_json_dict()
            del content["schedule"]["stage_widths"]
        path = tmp_path / "input.json"
        path.write_text(json.dumps(content))
        out = tmp_path / "result.json"
        done = run_cli("search", "--constraint", "800000", flag, path, "--out", out)
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert message in done.stderr
        assert not out.exists()

    def test_space_commands_are_listed(self):
        assert sorted(space_commands()) == [
            "compare", "profile", "sample", "search", "sweep", "train-predictor"
        ]

    # 136 does not divide through the five stride stages; 128 does, so only
    # the space's listing is at fault
    SPACE_DEFECTS = {
        "resolution": (
            dict(resolution_options=[128, 136]),
            "resolution_options[1]: resolution 136 does not divide through the stride stages",
        ),
        "kernel": (dict(kernel_options=[3, 4, 7]), "kernel_options[1]: kernel 4 is even"),
        "expand": (dict(expand_options=[0.01, 2, 4]), "expand_options[0]: expand 0.01 "),
        "mode": (
            dict(schedule={**default_space().schedule.to_json_dict(), "mode": "bogus"}),
            "schedule.mode: expected one of ['numeric', 'closed-form'], got 'bogus'",
        ),
    }

    @pytest.mark.parametrize("command", sorted(space_commands()))
    @pytest.mark.parametrize("defect", sorted(SPACE_DEFECTS))
    def test_refused_space(self, tmp_path, defect, command):
        # every required option gets a number or a path that does not exist,
        # so a command that read anything before the space would not exit 2
        fields, message = self.SPACE_DEFECTS[defect]
        path = tmp_path / "space.json"
        path.write_text(json.dumps(mangled_space(lambda d: d.update(fields))))
        args = []
        for action in space_commands()[command]._actions:
            if action.required:
                value = "1" if action.type else tmp_path / action.dest
                args += [action.option_strings[0], value]
        done = run_cli(command, "--space", path, *args)
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert message in done.stderr
        assert os.listdir(tmp_path) == ["space.json"]

    @pytest.mark.parametrize(
        "mangle, command, field",
        [
            (lambda d: d.update(expand_options=[2, 1e308]), "sample", "expand_options[1]"),
            (lambda d: d["schedule"]["stage_widths"].__setitem__(4, 10 ** 300), "profile",
             "schedule.stage_widths[4]"),
            (lambda d: d["schedule"]["stage_widths"].__setitem__(4, 10 ** 300), "sample",
             "schedule.stage_widths[4]"),
            (lambda d: d.update(resolution_options=[128, 2 ** 600]), "sample",
             "resolution_options[1]"),
        ],
        ids=["expand-sample", "width-profile", "width-sample", "resolution-sample"],
    )
    def test_number_too_large(self, tmp_path, space, mangle, command, field):
        # float arithmetic would overflow on these: 1e308 times the stem's 8
        # channels, and the layer totals of a stage 10**300 channels wide or
        # of a 2**600-pixel input; the space is refused when it is built
        path = tmp_path / "space.json"
        path.write_text(json.dumps(mangled_space(mangle)))
        config = tmp_path / "config.json"
        config.write_text(json.dumps(maximal_config(space).to_json_dict()))
        out = tmp_path / "out"
        args = {"sample": ["--n", "20", "--out"], "profile": ["--config", config, "--csv"]}[command]
        done = run_cli(command, "--space", path, *args, out)
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert f"error: {field}: expected a positive " in done.stderr
        assert "of at most 4194304, got " in done.stderr
        assert not out.exists()


#: tokens a fuzzed input swaps in for one number or key: past the decoder's
#: limits, not finite, or of the wrong JSON type
HOSTILE_TOKENS = (
    "1" * 5_000, "1e999", "-1e999", "NaN", "true", "null", "[]", "{}", '"x"', "-1", "0",
    "[" * 100_000 + "]" * 100_000,
)
#: a number, or an object key with its quotes
JSON_TOKEN = re.compile(r'-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|"\w+"(?=:)')


def fuzzed(text: str):
    """``text`` with one number or key swapped for a hostile token, or with
    one character deleted."""
    spans = [m.span() for m in JSON_TOKEN.finditer(text)]
    swapped = st.tuples(st.sampled_from(spans), st.sampled_from(HOSTILE_TOKENS)).map(
        lambda t: text[: t[0][0]] + t[1] + text[t[0][1]:]
    )
    deleted = st.integers(0, len(text) - 1).map(lambda i: text[:i] + text[i + 1:])
    return st.one_of(swapped, deleted)


def compact(d) -> str:
    return json.dumps(d, separators=(",", ":"))


def fuzz_dataset() -> str:
    space = default_space()
    rows = [
        {"config": sample_uniform(space, seed).to_json_dict(), "peak_items": 1000 * seed,
         "score": seed / 3}
        for seed in range(8)
    ]
    return "".join(compact(row) + "\n" for row in rows)


class TestFuzzedInput:
    """A valid input file, fuzzed by one hostile token or one deleted
    character, ends in exit 0, 2, 3 or 4, never in an exception."""

    SEARCH = ["search", "--constraint", "800000", "--population", "4", "--generations", "1",
              "--out", "{dir}/r.json"]

    def run(self, text: str, flag: str, command: list) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "input"
            path.write_text(text)
            code = main([arg.format(dir=tmp) for arg in command] + [flag, str(path)])
        assert code in (0, 2, 3, 4)

    @settings(max_examples=40)
    @given(text=fuzzed(compact(default_space().to_json_dict())))
    def test_space(self, text):
        self.run(text, "--space", [*self.SEARCH, "--no-noise"])

    @settings(max_examples=40)
    @given(text=fuzzed(compact(maximal_config(default_space()).to_json_dict())))
    # a float gene equal to its option, which once ended in a TypeError
    @example(text=compact(maximal_config(default_space()).to_json_dict()).replace(
        '"depth":4', '"depth":4.0', 1))
    def test_config(self, text):
        self.run(text, "--config", ["profile"])

    @settings(max_examples=40)
    @given(text=fuzzed(compact(mangled_model(lambda d: None))))
    def test_model(self, text):
        self.run(text, "--model", self.SEARCH)

    @settings(max_examples=40)
    @given(text=fuzzed(fuzz_dataset()))
    def test_dataset(self, text):
        self.run(text, "--dataset", ["train-predictor", "--out", "{dir}/m.json"])


class TestRefusedWork:
    """Well-formed input that no result can be made from: a dataset bucket
    that no configuration reaches exits 3, a singular fit exits 2."""

    def test_empty_bucket_exits_3(self, tmp_path, capsys):
        # one option per gene: the two resolutions give the only two peaks,
        # so the eight buckets between the lowest and the highest hold none
        tiny = SupernetSpace(
            schedule=ChannelSchedule(stem_width=8, stage_widths=(8, 8), head_width=8, divisor=8),
            num_stages=2,
            depth_options=(1,),
            kernel_options=(3,),
            expand_options=(2,),
            resolution_options=(32, 64),
        )
        path = tmp_path / "space.json"
        path.write_text(json.dumps(tiny.to_json_dict()))
        code = main(["sample", "--n", "100", "--buckets", "10", "--space", str(path),
                     "--out", str(tmp_path / "d.jsonl")])
        assert code == 3
        assert "bucket(s) [1, 2, 3, 4, 5, 6, 7, 8]" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["space.json"]

    def test_singular_fit_exits_2(self, tmp_path, space, capsys):
        row = {"config": maximal_config(space).to_json_dict(), "peak_items": 1, "score": 1.0}
        data = tmp_path / "data.jsonl"
        data.write_text((json.dumps(row) + "\n") * 3)
        model = tmp_path / "m.json"
        code = main(["train-predictor", "--dataset", str(data), "--l2", "0", "--out", str(model)])
        assert code == 2
        assert "singular" in capsys.readouterr().err
        assert not model.exists()


class TestTrainHoldout:
    @pytest.fixture()
    def dataset_file(self, tmp_path, space):
        rows = [
            {"config": sample_uniform(space, seed).to_json_dict(), "peak_items": 0,
             "score": float(seed % 7)}
            for seed in range(30)
        ]
        path = tmp_path / "data.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        return str(path)

    @pytest.mark.parametrize("holdout, trained", [("0", 30), ("0.2", 24), ("0.01", 29)])
    def test_rows_held_out(self, tmp_path, dataset_file, capsys, holdout, trained):
        model = tmp_path / "model.json"
        code = main(["train-predictor", "--dataset", dataset_file,
                     "--holdout", holdout, "--out", str(model)])
        assert code == 0
        out = capsys.readouterr().out
        assert f"trained on {trained} rows" in out
        assert ("rank correlation" in out) == (trained < 30)
        assert json.loads(model.read_text())["rows"] == trained

    @pytest.mark.parametrize("holdout", ["-0.1", "1"])
    def test_fraction_outside_unit_interval_exits_2(
        self, tmp_path, dataset_file, capsys, holdout
    ):
        code = main(["train-predictor", "--dataset", dataset_file,
                     "--holdout", holdout, "--out", str(tmp_path / "model.json")])
        assert code == 2
        assert "--holdout must lie in [0, 1)" in capsys.readouterr().err

    def test_train_predictor_imports_no_scipy(self, tmp_path):
        # in a fresh interpreter, as the suite itself imports scipy
        data, model = tmp_path / "data.jsonl", tmp_path / "model.json"
        script = (
            "import sys\n"
            "from memnas.cli import main\n"
            f"assert main(['sample', '--n', '40', '--buckets', '2', '--out', {str(data)!r}]) == 0\n"
            f"assert main(['train-predictor', '--dataset', {str(data)!r}, '--holdout', '0.2',"
            f" '--out', {str(model)!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        src = Path(memnas.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(src)), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "held-out rank correlation (n=8)" in proc.stdout
        assert proc.stdout.splitlines()[-1] == "[]"


#: modules that only some paths need: numpy for the surrogate, and
#: hashlib, with OpenSSL's _hashlib, for the noisy oracle
HEAVY_MODULES = ("numpy", "hashlib", "_hashlib")
SMALL_SEARCH = ["--population", "4", "--generations", "1"]

IMPORT_CASES = {
    "model-free": (
        [
            ["plan", "--out", "{dir}/plan.json"],
            ["profile", "--config", "{config}", "--csv", "{dir}/profile.csv"],
            ["compare", "--config-a", "{config}", "--config-b", "{config}",
             "--out", "{dir}/compare.csv"],
            ["sample", "--no-noise", "--n", "20", "--buckets", "2", "--out", "{dir}/d.jsonl"],
            ["search", "--no-noise", "--constraint", "400000", *SMALL_SEARCH,
             "--out", "{dir}/r.json"],
            ["sweep", "--no-noise", "--constraints", "350000,400000", *SMALL_SEARCH,
             "--out", "{dir}/c.csv"],
        ],
        [],
    ),
    "noisy": (
        [
            ["sample", "--n", "20", "--buckets", "2", "--out", "{dir}/d.jsonl"],
            ["search", "--constraint", "400000", *SMALL_SEARCH, "--out", "{dir}/r.json"],
        ],
        ["hashlib", "_hashlib"],
    ),
    "train-predictor": (
        [
            ["sample", "--no-noise", "--n", "20", "--buckets", "2", "--out", "{dir}/d.jsonl"],
            ["train-predictor", "--dataset", "{dir}/d.jsonl", "--out", "{dir}/m.json"],
        ],
        ["numpy"],
    ),
    # ``predict`` adds weights read from tables: no numpy
    "search-model": (
        [["search", "--model", "{model}", "--constraint", "400000", *SMALL_SEARCH,
          "--out", "{dir}/r.json"]],
        [],
    ),
    "sweep-model": (
        [["sweep", "--model", "{model}", "--constraints", "350000,400000", *SMALL_SEARCH,
          "--out", "{dir}/c.csv"]],
        [],
    ),
}


class TestImports:
    """Each path loads only the heavy modules it uses: a model-free run
    needs neither numpy nor OpenSSL."""

    @pytest.mark.parametrize("case", sorted(IMPORT_CASES))
    def test_heavy_modules_load_only_where_used(self, tmp_path, config_file, case):
        argvs, expected = IMPORT_CASES[case]
        model = tmp_path / "model.json"
        model.write_text(json.dumps(mangled_model(lambda d: None)))
        paths = {"dir": tmp_path, "config": config_file, "model": model}
        argvs = [[arg.format(**paths) for arg in argv] for argv in argvs]
        # in a fresh interpreter, as the suite itself imports numpy
        script = (
            "import json, sys\n"
            "import memnas\n"
            "from memnas.cli import main\n"
            f"for argv in {argvs!r}:\n"
            "    assert main(argv) == 0, argv\n"
            f"print(json.dumps([m for m in {HEAVY_MODULES!r} if m in sys.modules]))\n"
        )
        src = Path(memnas.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(src)), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == expected


#: the values each numeric flag of ``build_parser()`` accepts, as a test of
#: the parsed number; the runs below give ``--n`` and ``--buckets`` each
#: other's values 20 and 1
FLAG_RANGES = {
    "--seed": lambda x: True,
    "--divisor": lambda x: x >= 1,
    "--stem": lambda x: x >= 1,
    "--depth": lambda x: x >= 1,
    "--kernel": lambda x: 1 <= x <= MAX_EXTENT and x % 2 == 1,
    "--expand": lambda x: 0 < x <= MAX_EXTENT,
    "--resolution": lambda x: 2 ** 6 <= x <= MAX_EXTENT,
    "--n": lambda x: 1 <= x <= MAX_ROWS,
    "--buckets": lambda x: 1 <= x <= min(20, MAX_BUCKETS),
    "--l2": lambda x: 0 <= x < math.inf,
    "--holdout": lambda x: 0 <= x < 1,
    "--population": lambda x: 2 <= x <= MAX_SEARCH_SIZE,
    "--generations": lambda x: 1 <= x <= MAX_SEARCH_SIZE,
    "--parent-fraction": lambda x: 0 < x < 1,
    "--mutation-prob": lambda x: 0 < x < 1,
    "--mutation-fraction": lambda x: 0 < x < 1,
    "--constraint": lambda x: x >= 1,
    "--constraints": lambda x: x >= 1,
}

#: a small valid run of each subcommand, with ``{dir}`` for the output
#: directory and ``{input}`` for the input files
FLAG_RUNS = {
    "profile": ["--config", "{input}/max.json"],
    "plan": ["--out", "{dir}/plan.json"],
    "sample": ["--no-noise", "--n", "20", "--buckets", "1", "--out", "{dir}/d.jsonl"],
    "train-predictor": ["--dataset", "{input}/d.jsonl", "--out", "{dir}/m.json"],
    "search": ["--no-noise", "--constraint", "800000", *SMALL_SEARCH, "--out", "{dir}/r.json"],
    "sweep": ["--no-noise", "--constraints", "800000", *SMALL_SEARCH, "--out", "{dir}/c.csv"],
    "compare": ["--config-a", "{input}/max.json", "--config-b", "{input}/max.json",
                "--out", "{dir}/c.csv"],
}


def numeric_flags() -> dict:
    """``(command, flag)`` to the type that parses the flag, for every flag
    of every subcommand of ``build_parser()`` that takes a number."""
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        (name, action.option_strings[0]): action.type
        for name, p in sub.choices.items()
        for action in p._actions
        if action.type not in (None, str)
    }


def accepts(flag: str, parse, text: str) -> bool:
    """Whether ``flag`` takes ``text``: ``parse``, the flag's type, reads a
    number, or a list of them, and each lies in the flag's range."""
    try:
        numbers = parse(text)
    except (ValueError, argparse.ArgumentTypeError):
        return False
    return all(map(FLAG_RANGES[flag], numbers if isinstance(numbers, list) else [numbers]))


@pytest.fixture(scope="module")
def flag_inputs(tmp_path_factory, space):
    path = tmp_path_factory.mktemp("inputs")
    (path / "max.json").write_text(json.dumps(maximal_config(space).to_json_dict()))
    (path / "d.jsonl").write_text(fuzz_dataset())
    return path


#: numbers, or text argparse may take for one, that a flag may refuse
HOSTILE_NUMBERS = st.one_of(
    st.sampled_from(["0", "-0", "-1", "nan", "inf", "-inf", "1.5", "1e308", "1e-320",
                     str(MAX_EXTENT + 1), str(2 ** 64), "0x10", "", " "]),
    st.integers(-(2 ** 70), 2 ** 70).map(str),
    st.floats().map(repr),
)


class TestFuzzedFlags:
    """Every numeric flag of every subcommand, given a value outside what it
    accepts (zero, a negative, nan, inf, a fraction for an integer, or past
    a bound), exits 2 with a message and no traceback, and writes nothing."""

    def test_every_numeric_flag_has_a_range(self):
        assert sorted({flag for _, flag in numeric_flags()}) == sorted(FLAG_RANGES)
        assert sorted({command for command, _ in numeric_flags()}) == sorted(FLAG_RUNS)

    @pytest.mark.parametrize("command, flag", sorted(numeric_flags()))
    @settings(max_examples=20, deadline=None)
    @example(text="0")
    @example(text="-1")
    @example(text="nan")
    @example(text="inf")
    @example(text="-inf")
    @example(text=str(MAX_ROWS + 1))
    @example(text=str(MAX_BUCKETS + 1))
    @example(text=str(MAX_SEARCH_SIZE + 1))
    @given(text=HOSTILE_NUMBERS)
    def test_value_outside_the_range_exits_2(self, flag_inputs, command, flag, text):
        if accepts(flag, numeric_flags()[command, flag], text):
            return
        with tempfile.TemporaryDirectory() as tmp:
            argv = [arg.format(dir=tmp, input=flag_inputs) for arg in FLAG_RUNS[command]]
            if flag in argv:
                del argv[argv.index(flag):argv.index(flag) + 2]
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                try:
                    code = main([command, *argv, f"{flag}={text}"])
                except SystemExit as exc:  # argparse refuses the text
                    code = exc.code
            assert os.listdir(tmp) == []
        assert code == 2
        assert "error: " in err.getvalue()
        assert "Traceback" not in err.getvalue()

    @pytest.mark.parametrize("command, flag, cap", [
        ("sample", "--n", MAX_ROWS),
        ("sample", "--buckets", MAX_BUCKETS),
        *[(command, flag, MAX_SEARCH_SIZE)
          for command in ("search", "sweep") for flag in ("--population", "--generations")],
    ])
    def test_a_size_flag_takes_its_cap_and_no_more(self, command, flag, cap, capsys):
        # parsed only: nothing runs at this size
        argv = [arg.format(dir="out", input="in") for arg in FLAG_RUNS[command]]
        if flag in argv:
            del argv[argv.index(flag):argv.index(flag) + 2]
        args = build_parser().parse_args([command, *argv, flag, str(cap)])
        assert getattr(args, flag[2:]) == cap
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, *argv, flag, str(cap + 1)])
        assert exc.value.code == 2
        assert f"argument {flag}: must be at most {cap}, got {cap + 1}" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--help"])
        assert f"at most {cap}" in capsys.readouterr().out


def paired_lists(elements):
    return st.integers(1, 30).flatmap(
        lambda n: st.tuples(*[st.lists(elements, min_size=n, max_size=n)] * 2)
    )


def reference_spearman(a, b):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns on a constant side
        return float(spearmanr(a, b).statistic)


def spearman_without_warnings(a, b):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return _spearman(a, b)


class TestSpearman:
    """``_spearman`` gives what ``scipy.stats.spearmanr`` gives, without
    importing scipy and without a warning."""

    @given(pair=st.one_of(
        paired_lists(st.floats(-1e6, 1e6)),
        paired_lists(st.sampled_from((0.0, 1.0, 2.0))),  # heavy ties
    ))
    @example(pair=([1.0], [2.0]))
    @example(pair=([1.0, 2.0], [3.0, 4.0]))
    @example(pair=([1.0, 2.0], [4.0, 3.0]))
    @example(pair=([2.0, 2.0], [3.0, 4.0]))
    def test_matches_scipy(self, pair):
        got, expected = spearman_without_warnings(*pair), reference_spearman(*pair)
        if expected != expected:
            assert got != got
        else:
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("constant_first", [True, False])
    def test_constant_side_is_nan_without_warning(self, constant_first):
        a, b = [0.5] * 6, [3.0, 1.0, 2.0, 2.0, 5.0, 4.0]
        if not constant_first:
            a, b = b, a
        rho = spearman_without_warnings(a, b)
        assert rho != rho


MANIFEST_CASES = {
    "profile": (["profile", "--config", "{config}", "--csv", "{out}"], {"config"}),
    "profile-space": (
        ["profile", "--config", "{config}", "--space", "{space}", "--csv", "{out}"],
        {"config", "space"},
    ),
    "plan": (["plan", "--out", "{out}"], set()),
    "sample": (
        ["sample", "--n", "20", "--buckets", "2", "--space", "{space}", "--out", "{out}"],
        {"space"},
    ),
    "train-predictor": (
        ["train-predictor", "--dataset", "{dataset}", "--out", "{out}"], {"dataset"}
    ),
    "search": (
        ["search", "--constraint", "800000", "--model", "{model}", "--space", "{space}",
         "--population", "4", "--generations", "1", "--out", "{out}"],
        {"model", "space"},
    ),
    "sweep": (
        ["sweep", "--constraints", "800000", "--population", "4", "--generations", "1",
         "--out", "{out}"],
        set(),
    ),
    "compare": (
        ["compare", "--config-a", "{config}", "--config-b", "{config}",
         "--space-b", "{space}", "--out", "{out}"],
        {"config_a", "config_b", "space_b"},
    ),
    "compare-space": (
        ["compare", "--config-a", "{config}", "--config-b", "{config}",
         "--space", "{space}", "--out", "{out}"],
        {"config_a", "config_b", "space"},
    ),
    "compare-space-b": (
        ["compare", "--config-a", "{config}", "--config-b", "{config}",
         "--space", "{space}", "--space-b", "{space}", "--out", "{out}"],
        {"config_a", "config_b", "space", "space_b"},
    ),
    # --space is only the default of --space-a, so it is not read here
    "compare-space-a": (
        ["compare", "--config-a", "{config}", "--config-b", "{config}",
         "--space", "{space}", "--space-a", "{space}", "--out", "{out}"],
        {"config_a", "config_b", "space_a"},
    ),
}


class TestManifests:
    """Each artifact's manifest names the command, the seed and the input
    files given on the command line."""

    @pytest.fixture()
    def paths(self, tmp_path, space_file, config_file):
        dataset = tmp_path / "data.jsonl"
        model = tmp_path / "model.json"
        assert main(["sample", "--n", "20", "--buckets", "2", "--out", str(dataset)]) == 0
        assert main(["train-predictor", "--dataset", str(dataset), "--out", str(model)]) == 0
        return {"space": space_file, "config": config_file, "dataset": str(dataset),
                "model": str(model), "out": str(tmp_path / "artifact")}

    @pytest.mark.parametrize("case", sorted(MANIFEST_CASES))
    def test_command_seed_and_inputs(self, paths, capsys, case):
        argv, input_keys = MANIFEST_CASES[case]
        argv = [arg.format(**paths) for arg in argv]
        assert main(argv + ["--seed", "5"]) == 0
        with open(paths["out"] + ".manifest.json") as fh:
            manifest = json.load(fh)
        assert set(manifest) == {
            "command", "inputs", "peak_rss_kb", "python", "seed", "tool_version", "wall_time_s"
        }
        assert manifest["python"] == platform.python_version()
        assert 0 < manifest["peak_rss_kb"] <= resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        assert manifest["command"] == argv[0]
        assert manifest["seed"] == 5
        assert set(manifest["inputs"]) == input_keys
        for flag, path in manifest["inputs"].items():
            assert argv[argv.index("--" + flag.replace("_", "-")) + 1] == path

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_artifacts_take_the_umask(self, tmp_path, capsys, umask, mode):
        out = tmp_path / "d.jsonl"
        previous = os.umask(umask)
        try:
            assert main(["sample", "--n", "10", "--buckets", "2", "--out", str(out)]) == 0
        finally:
            os.umask(previous)
        for path in (out, tmp_path / "d.jsonl.manifest.json"):
            assert os.stat(path).st_mode & 0o777 == mode, path

    def test_plan_reads_no_space(self, tmp_path, space_file, capsys):
        # plan sizes a schedule from the reference settings alone
        with pytest.raises(SystemExit) as exc:
            main(["plan", "--space", space_file, "--out", str(tmp_path / "p.json")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --space" in capsys.readouterr().err
        assert not (tmp_path / "p.json").exists()
