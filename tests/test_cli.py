"""Command-line verbs and their exit codes."""

import json
import subprocess
import sys

import pytest

from parlab import CorruptFileError, RLConfig, TaskKind
from parlab.harness import (
    ExperimentConfig,
    TaskDistribution,
    canonical_dumps,
    read_trace_records,
)
from parlab.harness.cli import main
from parlab.task_gen import task_spec_from_dict, validate_task_spec

from conftest import TINY_VOCAB


@pytest.fixture()
def config_path(tmp_path):
    config = ExperimentConfig(
        tasks=[TaskDistribution(TaskKind.WIDE_SEARCH, count=1,
                                params={"n_items": 3, "sources_per_item": 1})],
        vocab=TINY_VOCAB,
        rl=RLConfig(K=2, iterations=0),
        seeds=(0,),
        eval_episodes=2,
        output_dir=str(tmp_path / "runs"),
    )
    path = tmp_path / "config.json"
    path.write_text(canonical_dumps(config.to_dict()) + "\n")
    return path


class TestGen:
    def test_writes_validated_task_specs(self, tmp_path, capsys):
        out = tmp_path / "tasks.jsonl"
        code = main(["gen", "--family", "wide_search", "--seed", "7",
                     "--count", "3", "--out", str(out),
                     "--n-items", "4", "--sources-per-item", "1"])
        assert code == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(lines) == 3
        for data in lines:
            validate_task_spec(task_spec_from_dict(data))

    def test_each_family_generates(self, tmp_path):
        for family in ("wide_search", "deep_search", "batch_download"):
            out = tmp_path / f"{family}.jsonl"
            assert main(["gen", "--family", family, "--out", str(out)]) == 0
            assert out.exists()

    def test_unknown_family_is_a_usage_error(self, tmp_path, capsys):
        code = main(["gen", "--family", "quantum", "--out", str(tmp_path / "x")])
        assert code == 1


class TestRun:
    def test_evaluates_and_writes_outputs(self, tmp_path, config_path, capsys):
        out_dir = tmp_path / "out"
        code = main(["run", "--config", str(config_path), "--out", str(out_dir)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_seeds"] == 1
        assert (out_dir / "seed_0" / "traces_learned.jsonl").exists()

    def test_seed_override_narrows_the_run(self, tmp_path, config_path, capsys):
        out_dir = tmp_path / "out"
        code = main(["run", "--config", str(config_path), "--out", str(out_dir),
                     "--seed", "5"])
        assert code == 0
        assert (out_dir / "seed_5").is_dir()
        assert not (out_dir / "seed_0").exists()

    def test_missing_config_file_exits_one(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "absent.json")]) == 1

    def test_unknown_flag_exits_one(self, config_path, capsys):
        assert main(["run", "--config", str(config_path), "--bogus"]) == 1

    def test_invalid_config_contents_exit_one(self, tmp_path, config_path, capsys):
        data = json.loads(config_path.read_text())
        data["seeds"] = []
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["run", "--config", str(bad)]) == 1

    def test_missing_verb_exits_one(self, capsys):
        assert main([]) == 1


class TestTrainVerb:
    def test_trains_then_evaluates(self, tmp_path, config_path, capsys):
        import dataclasses

        from parlab.harness import load_config

        config = load_config(config_path)
        config = dataclasses.replace(config, rl=RLConfig(K=2, iterations=2))
        path = tmp_path / "train_config.json"
        path.write_text(canonical_dumps(config.to_dict()) + "\n")
        out_dir = tmp_path / "out"
        code = main(["train", "--config", str(path), "--out", str(out_dir)])
        assert code == 0
        assert (out_dir / "seed_0" / "params.json").exists()
        assert (out_dir / "seed_0" / "stats.jsonl").read_text().count("\n") == 2


class TestReplayVerb:
    def _traces(self, tmp_path, config_path, level="full"):
        out_dir = tmp_path / "out"
        args = ["run", "--config", str(config_path), "--out", str(out_dir)]
        assert main(args) == 0
        return out_dir / "seed_0" / "traces_learned.jsonl"

    def test_clean_traces_exit_zero(self, tmp_path, config_path, capsys):
        trace_path = self._traces(tmp_path, config_path)
        assert main(["replay", "--trace", str(trace_path)]) == 0
        assert "replay ok" in capsys.readouterr().out

    def test_tampered_traces_exit_three(self, tmp_path, config_path, capsys):
        trace_path = self._traces(tmp_path, config_path)
        records = read_trace_records(trace_path)
        records[0]["metrics"]["critical_steps"] += 1
        trace_path.write_text(
            "".join(canonical_dumps(r) + "\n" for r in records)
        )
        assert main(["replay", "--trace", str(trace_path)]) == 3

    def test_summary_only_traces_exit_two(self, tmp_path, config_path, capsys):
        trace_path = self._traces(tmp_path, config_path)
        records = read_trace_records(trace_path)
        for record in records:
            record["tokens"] = None
            record["stages"] = None
            record["vocab"] = None
            record["final_answer"] = None
        trace_path.write_text(
            "".join(canonical_dumps(r) + "\n" for r in records)
        )
        assert main(["replay", "--trace", str(trace_path)]) == 2

    def test_missing_trace_file_exits_two(self, tmp_path, capsys):
        assert main(["replay", "--trace", str(tmp_path / "absent.jsonl")]) == 2

    def test_truncated_trace_or_params_exits_two_with_one_error_line(
        self, tmp_path, config_path, capsys
    ):
        trace_path = self._traces(tmp_path, config_path)
        text = trace_path.read_text()
        trace_path.write_text(text[: len(text.splitlines()[0]) + 20])
        with pytest.raises(CorruptFileError, match=r"line 2"):
            read_trace_records(trace_path)
        params_path = tmp_path / "params.json"
        params_path.write_text('{"shape": [4, 9], "values": [0.0,')
        capsys.readouterr()
        for argv in (
            ["replay", "--trace", str(trace_path)],
            ["report", "--traces", str(trace_path)],
            ["run", "--config", str(config_path), "--params", str(params_path)],
        ):
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert "line " in err

    def test_invalid_utf8_trace_exits_two(self, tmp_path, capsys):
        trace_path = tmp_path / "traces.jsonl"
        trace_path.write_bytes(b"\xff\xfe{}\n")
        with pytest.raises(CorruptFileError, match=r"line 1: not UTF-8"):
            read_trace_records(trace_path)
        assert main(["replay", "--trace", str(trace_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert str(trace_path) in err

    @pytest.mark.parametrize(
        "line, names", [('{"tokens": [], "stages": []}', "'task'"), ("[]", "JSON object")]
    )
    def test_malformed_record_exits_two(self, tmp_path, capsys, line, names):
        trace_path = tmp_path / "traces.jsonl"
        trace_path.write_text(line + "\n")
        assert main(["replay", "--trace", str(trace_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert f"{trace_path}, line 1" in err and names in err

    def test_wrong_typed_field_exits_two(self, tmp_path, capsys):
        trace_path = tmp_path / "traces.jsonl"
        trace_path.write_text('{"tokens": [], "stages": [], "task": 3}\n')
        assert main(["replay", "--trace", str(trace_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert f"{trace_path}, line 1" in err and "wrong type" in err


class TestReportVerb:
    def test_record_without_metrics_exits_two(self, tmp_path, capsys):
        trace_path = tmp_path / "traces.jsonl"
        trace_path.write_text('{"a": 1}\n')
        assert main(["report", "--traces", str(trace_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert f"{trace_path}, line 1" in err

    def test_single_file_report(self, tmp_path, config_path, capsys):
        out_dir = tmp_path / "out"
        main(["run", "--config", str(config_path), "--out", str(out_dir)])
        trace_path = out_dir / "seed_0" / "traces_learned.jsonl"
        capsys.readouterr()
        assert main(["report", "--traces", str(trace_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert str(trace_path) in report["files"]
        assert "comparisons" not in report

    def test_two_file_comparison_written_to_disk(self, tmp_path, config_path, capsys):
        out_dir = tmp_path / "out"
        main(["run", "--config", str(config_path), "--out", str(out_dir)])
        trace_path = out_dir / "seed_0" / "traces_learned.jsonl"
        report_path = tmp_path / "report.json"
        code = main(["report", "--traces", str(trace_path), str(trace_path),
                     "--out", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        comparison = report["comparisons"][str(trace_path)]
        assert comparison["mean_speedup"] == pytest.approx(1.0)


class TestConsoleEntry:
    def test_module_is_runnable_as_a_script(self, tmp_path):
        out = tmp_path / "tasks.jsonl"
        result = subprocess.run(
            [sys.executable, "-m", "parlab.harness.cli", "gen",
             "--family", "wide_search", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert out.exists()
