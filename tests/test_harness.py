"""Run plumbing: configs, trace persistence, replay, concurrency, experiments."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parlab import (
    ConfigError,
    CorruptFileError,
    InvalidParameterError,
    MissingSnapshotError,
    MissingTraceDataError,
    PARLConfig,
    RLConfig,
    StepLimits,
    TaskKind,
    ToggleConfig,
    answer_score,
    critical_steps,
    default_vocabulary,
    gen_batch_download,
    gen_deep_search,
    gen_wide_search,
    parl_reward,
    rollout_episode,
)
from parlab.harness import (
    ExperimentConfig,
    RolloutJob,
    TaskDistribution,
    canonical_dumps,
    config_from_dict,
    load_config,
    load_params,
    load_resume_token,
    read_trace_records,
    record_to_trace,
    replay_file,
    replay_trace,
    resume_episode,
    resume_token_from_dict,
    rollout_manager,
    run_experiment,
    save_params,
    save_resume_token,
    scripted_rollout,
    serial_chooser,
    speedup_report,
    stop_curve,
    summarize_traces,
    suspend_episode,
    swarm_chooser,
    trace_to_record,
    train,
    write_traces,
)

from conftest import SMALL_LIMITS, TINY_VOCAB, one_trace, perturbed, zero_params


def small_config(**overrides) -> ExperimentConfig:
    defaults = dict(
        tasks=[TaskDistribution(TaskKind.WIDE_SEARCH, count=1,
                                params={"n_items": 3, "sources_per_item": 1})],
        vocab=TINY_VOCAB,
        rl=RLConfig(K=2, iterations=0),
        parl=PARLConfig(),
        seeds=(0,),
        eval_episodes=2,
        output_dir="unused",
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestConfig:
    def test_dict_round_trip(self):
        config = small_config()
        rebuilt = config_from_dict(config.to_dict())
        assert canonical_dumps(rebuilt.to_dict()) == canonical_dumps(config.to_dict())

    def test_load_config_happy_path(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(canonical_dumps(small_config().to_dict()))
        assert load_config(path).eval_episodes == 2

    def test_missing_file_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json")

    def test_malformed_json_is_a_config_error(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_non_object_payload_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unknown_keys_rejected(self):
        data = small_config().to_dict()
        data["typo_key"] = 1
        with pytest.raises(ConfigError):
            config_from_dict(data)

    def test_validation_failures(self):
        with pytest.raises(ConfigError):
            small_config(seeds=())
        with pytest.raises(ConfigError):
            small_config(concurrency_limit=0)
        with pytest.raises(ConfigError):
            small_config(trace_level="verbose")
        with pytest.raises(ConfigError):
            small_config(policies=("learned", "oracle"))
        with pytest.raises(ConfigError):
            small_config(eval_episodes=0)
        with pytest.raises(ConfigError):
            small_config(speedup_thresholds=(0.5, 1.5))

    def test_distribution_validation(self):
        with pytest.raises(ConfigError):
            TaskDistribution(TaskKind.WIDE_SEARCH, count=0, params={})
        with pytest.raises(ConfigError):
            TaskDistribution(TaskKind.WIDE_SEARCH, count=1,
                             params={"depth": 3})

    def test_no_tasks_rejected_at_materialization(self):
        config = small_config(tasks=[])
        with pytest.raises(ConfigError):
            config.materialize_tasks(seed=0)

    def test_materialization_is_deterministic(self):
        config = small_config()
        a = config.materialize_tasks(seed=5)
        b = config.materialize_tasks(seed=5)
        assert [t.task_id for t in a] == [t.task_id for t in b]
        assert a[0].ground_truth.wide.items == b[0].ground_truth.wide.items


class TestTracePersistence:
    def test_record_round_trip_is_byte_stable(self, wide_task):
        trace = one_trace(wide_task)
        parl_reward(wide_task, trace, PARLConfig(), t=0)
        first = trace_to_record(trace, TINY_VOCAB)
        rebuilt, vocab = record_to_trace(first)
        second = trace_to_record(rebuilt, vocab)
        assert canonical_dumps(first) == canonical_dumps(second)

    def test_write_and_read_back(self, tmp_path, wide_task):
        traces = [one_trace(wide_task, seed=s) for s in range(3)]
        path = tmp_path / "traces.jsonl"
        write_traces(path, traces, TINY_VOCAB)
        records = read_trace_records(path)
        assert len(records) == 3
        assert [r["episode_seed"] for r in records] == [t.episode_seed for t in traces]

    def test_summary_only_drops_the_token_stream(self, tmp_path, wide_task):
        path = tmp_path / "traces.jsonl"
        write_traces(path, [one_trace(wide_task)], TINY_VOCAB, summary_only=True)
        record = read_trace_records(path)[0]
        assert record["tokens"] is None
        assert record["metrics"]["critical_steps"] >= 0
        with pytest.raises(MissingTraceDataError):
            record_to_trace(record)

    def test_summaries_aggregate_metrics(self, wide_task):
        summary = summarize_traces([one_trace(wide_task, seed=s) for s in range(4)])
        assert summary["episodes"] == 4
        assert summary["tasks"] == 1
        assert 0.0 <= summary["zero_spawn_fraction"] <= 1.0

    def test_summarize_rejects_empty_input(self):
        with pytest.raises(InvalidParameterError):
            summarize_traces([])


class TestReplay:
    def _record(self, wide_task, params, seed=0, with_reward=True):
        trace = rollout_episode(params, wide_task, TINY_VOCAB, seed=seed)
        if with_reward:
            parl_reward(wide_task, trace, PARLConfig(), t=0)
        return trace_to_record(trace, TINY_VOCAB)

    def test_clean_record_replays_without_mismatches(self, wide_task):
        params = zero_params()
        verdict = replay_trace(self._record(wide_task, params), params=params)
        assert verdict.ok, verdict.mismatches

    def test_snapshot_store_resolves_parameters_by_hash(self, wide_task):
        params = zero_params()
        record = self._record(wide_task, params)
        verdict = replay_trace(record,
                               snapshots={params.params_hash(): params})
        assert verdict.ok, verdict.mismatches

    def test_missing_snapshot_is_an_error(self, wide_task):
        record = self._record(wide_task, zero_params())
        with pytest.raises(MissingSnapshotError):
            replay_trace(record, snapshots={})

    def test_scripted_traces_need_no_snapshot(self, wide_task):
        trace = scripted_rollout(wide_task, TINY_VOCAB, serial_chooser, seed=3)
        record = trace_to_record(trace, TINY_VOCAB)
        verdict = replay_trace(record, snapshots={})
        assert verdict.ok, verdict.mismatches

    def test_tampered_reward_is_flagged(self, wide_task):
        params = zero_params()
        record = self._record(wide_task, params)
        record["reward"]["r_perf"] = 0.123456
        verdict = replay_trace(record, params=params)
        assert not verdict.ok
        assert any("r_perf" in m for m in verdict.mismatches)

    def test_tampered_metrics_are_flagged(self, wide_task):
        params = zero_params()
        record = self._record(wide_task, params)
        record["metrics"]["critical_steps"] += 1
        verdict = replay_trace(record, params=params)
        assert not verdict.ok
        assert any("critical_steps" in m for m in verdict.mismatches)

    def test_wrong_parameters_are_flagged(self, wide_task):
        params = zero_params()
        record = self._record(wide_task, params)
        verdict = replay_trace(record, params=perturbed(params, 0.5, seed=1))
        assert not verdict.ok
        assert any("hash mismatch" in m for m in verdict.mismatches)

    def test_file_level_replay(self, tmp_path, wide_task):
        params = zero_params()
        traces = [rollout_episode(params, wide_task, TINY_VOCAB, seed=s)
                  for s in range(3)]
        path = tmp_path / "traces.jsonl"
        write_traces(path, traces, TINY_VOCAB)
        assert replay_file(path, params=params).ok

    def test_file_with_tampered_line_fails(self, tmp_path, wide_task):
        params = zero_params()
        records = [self._record(wide_task, params, seed=s) for s in range(3)]
        records[1]["metrics"]["total_steps"] += 5
        path = tmp_path / "traces.jsonl"
        path.write_text("".join(canonical_dumps(r) + "\n" for r in records))
        verdict = replay_file(path, params=params)
        assert not verdict.ok
        assert any(m.startswith("line 2:") for m in verdict.mismatches)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        path.write_text("")
        with pytest.raises(InvalidParameterError):
            replay_file(path, params=zero_params())


class TestRolloutManager:
    def _jobs(self, n=24):
        tasks = [
            gen_wide_search(100 + i, n_items=3, sources_per_item=1,
                            limits=SMALL_LIMITS)
            for i in range(4)
        ]
        return [RolloutJob(tasks[i % 4], seed=i) for i in range(n)]

    def test_results_preserve_submission_order(self):
        jobs = self._jobs()
        traces = rollout_manager(jobs, zero_params(), TINY_VOCAB, concurrency=8)
        assert [t.episode_seed for t in traces] == [j.seed for j in jobs]

    def test_concurrency_level_cannot_change_results(self):
        jobs = self._jobs()
        outputs = {
            level: [
                canonical_dumps(trace_to_record(t, TINY_VOCAB))
                for t in rollout_manager(jobs, zero_params(), TINY_VOCAB,
                                         concurrency=level)
            ]
            for level in (1, 8, 64)
        }
        assert outputs[1] == outputs[8] == outputs[64]

    def test_invalid_concurrency_rejected(self):
        with pytest.raises(InvalidParameterError):
            rollout_manager([], zero_params(), TINY_VOCAB, concurrency=0)

    def test_failing_episode_becomes_error_trace(self, wide_task):
        from parlab import task_spec_from_json, task_spec_to_json

        broken = task_spec_from_json(
            task_spec_to_json(wide_task).replace('"n_items":4', '"n_items":9')
        )
        traces = rollout_manager(
            [RolloutJob(wide_task, seed=0), RolloutJob(broken, seed=0)],
            zero_params(), TINY_VOCAB, concurrency=4,
        )
        assert len(traces) == 2
        assert not traces[0].terminal_flag.startswith("error:")
        assert traces[1].partial
        assert traces[1].terminal_flag.startswith("error:")


class TestSuspendResume:
    def test_resume_reproduces_the_uninterrupted_episode(self, wide_task):
        params = zero_params()
        full = rollout_episode(params, wide_task, TINY_VOCAB, seed=13)
        partial = rollout_episode(params, wide_task, TINY_VOCAB, seed=13,
                                  stop_after=2)
        token = suspend_episode(partial)
        resumed = resume_episode(token, params, TINY_VOCAB)
        assert canonical_dumps(trace_to_record(resumed, TINY_VOCAB)) == canonical_dumps(
            trace_to_record(full, TINY_VOCAB)
        )
        assert resumed.partial_rollout is False

    def test_resume_under_moved_parameters_is_marked(self, wide_task):
        params = zero_params()
        partial = rollout_episode(params, wide_task, TINY_VOCAB, seed=13,
                                  stop_after=2)
        token = suspend_episode(partial)
        moved = perturbed(params, 0.3, seed=2)
        resumed = resume_episode(token, moved, TINY_VOCAB)
        assert resumed.partial_rollout is True
        assert [t.index for t in resumed.tokens[:2]] == [
            t.index for t in partial.tokens
        ]

    def test_token_survives_json_and_disk(self, tmp_path, wide_task):
        partial = rollout_episode(zero_params(), wide_task, TINY_VOCAB, seed=13,
                                  stop_after=2)
        token = suspend_episode(partial)
        assert resume_token_from_dict(json.loads(token.to_json())) == token
        path = tmp_path / "resume.json"
        save_resume_token(token, path)
        assert load_resume_token(path) == token

    def test_truncated_token_file_is_corrupt(self, tmp_path, wide_task):
        partial = rollout_episode(zero_params(), wide_task, TINY_VOCAB, seed=13,
                                  stop_after=2)
        path = tmp_path / "resume.json"
        save_resume_token(suspend_episode(partial), path)
        path.write_text(path.read_text()[:30])
        with pytest.raises(CorruptFileError, match=r"resume.json, line 1"):
            load_resume_token(path)

    def test_position_out_of_range_rejected(self, wide_task):
        partial = rollout_episode(zero_params(), wide_task, TINY_VOCAB, seed=13,
                                  stop_after=2)
        with pytest.raises(InvalidParameterError):
            suspend_episode(partial, position=99)

    def test_unknown_schema_version_rejected(self, wide_task):
        partial = rollout_episode(zero_params(), wide_task, TINY_VOCAB, seed=13,
                                  stop_after=1)
        data = suspend_episode(partial).to_dict()
        data["schema_version"] = 99
        with pytest.raises(InvalidParameterError):
            resume_token_from_dict(data)


class TestTrainLoop:
    def _config(self, iterations):
        return small_config(rl=RLConfig(K=2, iterations=iterations,
                                        learning_rate=0.5))

    def test_interrupted_run_resumes_to_identical_parameters(self, tmp_path):
        config = self._config(3)
        tasks = config.materialize_tasks(seed=0)
        params_straight = train(config, tasks, seed=0, out_dir=tmp_path / "a")
        train(self._config(1), tasks, seed=0, out_dir=tmp_path / "b")
        params_resumed = train(config, tasks, seed=0, out_dir=tmp_path / "b")
        assert np.array_equal(params_straight.weights, params_resumed.weights)
        assert (tmp_path / "a" / "params.json").read_text() == (
            tmp_path / "b" / "params.json"
        ).read_text()
        assert (tmp_path / "a" / "stats.jsonl").read_text() == (
            tmp_path / "b" / "stats.jsonl"
        ).read_text()

    def test_completed_run_is_not_retrained(self, tmp_path):
        config = self._config(2)
        tasks = config.materialize_tasks(seed=0)
        first = train(config, tasks, seed=0, out_dir=tmp_path)
        stats_before = (tmp_path / "stats.jsonl").read_text()
        second = train(config, tasks, seed=0, out_dir=tmp_path)
        assert np.array_equal(first.weights, second.weights)
        assert (tmp_path / "stats.jsonl").read_text() == stats_before

    def test_params_survive_disk_round_trip(self, tmp_path):
        params = perturbed(zero_params(), 0.5, seed=4)
        path = tmp_path / "params.json"
        save_params(params, path)
        assert np.array_equal(load_params(path).weights, params.weights)

    def test_resume_drops_a_stats_row_written_after_the_checkpoint(self, tmp_path):
        config = self._config(3)
        tasks = config.materialize_tasks(seed=0)
        train(config, tasks, seed=0, out_dir=tmp_path / "a")
        train(self._config(1), tasks, seed=0, out_dir=tmp_path / "b")
        # Killed after appending iteration 1's row, before checkpointing it.
        row = (tmp_path / "a" / "stats.jsonl").read_text().splitlines()[1]
        with (tmp_path / "b" / "stats.jsonl").open("a") as handle:
            handle.write(row + "\n")
        train(config, tasks, seed=0, out_dir=tmp_path / "b")
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
        for name in names:
            a = (tmp_path / "a" / name).read_bytes()
            assert a == (tmp_path / "b" / name).read_bytes(), name

    def test_params_that_do_not_fit_their_shape_are_corrupt(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text('{"shape": [3, 3], "values": [0.0]}')
        with pytest.raises(CorruptFileError, match="params.json"):
            load_params(path)

    def test_truncated_checkpoint_is_corrupt(self, tmp_path):
        config = self._config(2)
        tasks = config.materialize_tasks(seed=0)
        train(self._config(1), tasks, seed=0, out_dir=tmp_path)
        checkpoint = tmp_path / "checkpoint.json"
        checkpoint.write_text(checkpoint.read_text()[:40])
        with pytest.raises(CorruptFileError, match="checkpoint.json"):
            train(config, tasks, seed=0, out_dir=tmp_path)


    def test_truncated_budgets_file_is_corrupt(self, tmp_path):
        config = small_config(rl=RLConfig(K=2, iterations=1), toggle=ToggleConfig())
        tasks = config.materialize_tasks(seed=0)
        (tmp_path / "budgets.json").write_text('{"budg')
        with pytest.raises(CorruptFileError, match="budgets.json"):
            train(config, tasks, seed=0, out_dir=tmp_path)

    @pytest.mark.parametrize("text", ["[]", '{"t": "3"}', '{"t": 0}', '{"t": true}'])
    def test_budgets_file_without_int_budgets_is_corrupt(self, tmp_path, text):
        config = small_config(rl=RLConfig(K=2, iterations=1), toggle=ToggleConfig())
        tasks = config.materialize_tasks(seed=0)
        (tmp_path / "budgets.json").write_text(text)
        with pytest.raises(CorruptFileError, match="budgets.json"):
            train(config, tasks, seed=0, out_dir=tmp_path)

    @pytest.mark.parametrize("line", ["not json", "[1, 2]"])
    def test_hand_edited_stats_line_is_corrupt(self, tmp_path, line):
        config = self._config(2)
        tasks = config.materialize_tasks(seed=0)
        train(self._config(1), tasks, seed=0, out_dir=tmp_path)
        (tmp_path / "stats.jsonl").write_text(line + "\n")
        with pytest.raises(CorruptFileError, match=r"stats.jsonl, line 1"):
            train(config, tasks, seed=0, out_dir=tmp_path)


class TestRunExperiment:
    def test_outputs_and_reproducibility(self, tmp_path):
        config = small_config(policies=("learned", "serial_script", "swarm_script"))
        summary_a = run_experiment(config, out_dir=tmp_path / "a")
        summary_b = run_experiment(config, out_dir=tmp_path / "b")
        assert summary_a == summary_b
        for name in (
            "config.json",
            "summary.json",
            "seed_0/summary.json",
            "seed_0/speedup.csv",
            "seed_0/traces_learned.jsonl",
            "seed_0/metrics_learned.csv",
            "seed_0/traces_serial_script.jsonl",
        ):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, name

    def test_speedup_rows_divide_serial_by_swarm(self, tmp_path):
        config = small_config()
        run_experiment(config, out_dir=tmp_path)
        import csv

        with (tmp_path / "seed_0" / "speedup.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        assert rows
        for row in rows:
            if row["speedup"]:
                expected = int(row["serial_critical_steps"]) / max(
                    int(row["swarm_critical_steps"]), 1
                )
                assert float(row["speedup"]) == pytest.approx(expected, abs=1e-6)

    def test_learned_traces_replay_cleanly(self, tmp_path):
        config = small_config(rl=RLConfig(K=2, iterations=1))
        run_experiment(config, out_dir=tmp_path)
        params = load_params(tmp_path / "seed_0" / "params.json")
        verdict = replay_file(tmp_path / "seed_0" / "traces_learned.jsonl",
                              params=params)
        assert verdict.ok, verdict.mismatches

    def test_speedup_report_compares_shared_tasks(self, wide_task):
        from parlab.harness import metrics_row

        serial = scripted_rollout(wide_task, TINY_VOCAB, serial_chooser, seed=0)
        rows = [metrics_row(serial)]
        faster = dict(rows[0])
        faster["critical_steps"] = max(1, rows[0]["critical_steps"] // 2)
        report = speedup_report(rows, [faster])
        assert report["tasks"] == 1
        assert report["mean_speedup"] >= 1.0

    def test_speedup_report_needs_overlap(self):
        with pytest.raises(InvalidParameterError):
            speedup_report([{"task_id": "a", "critical_steps": 3}],
                           [{"task_id": "b", "critical_steps": 3}])


# --- stop curves --------------------------------------------------------------------


def stopped_after(base, budget: int, finish: int):
    """`base` for its first `budget` moves, then FINISH."""
    moves = 0

    def choose(env, vocab):
        nonlocal moves
        moves += 1
        return finish if moves > budget else base(env, vocab)

    return choose


def rerun_stop_curve(task, vocab, base, seed):
    """The stop curve by definition: one rerun per early-stop budget 0..L."""
    finish = [t.name for t in vocab].index("FINISH")
    full = scripted_rollout(task, vocab, base, seed)
    curve = []
    for budget in range(len(full.tokens) + 1):
        trace = scripted_rollout(task, vocab, stopped_after(base, budget, finish), seed)
        curve.append((critical_steps(trace.stages), answer_score(task, trace.final_answer)))
    return curve


def build_task(family, seed, units, extra, limits):
    limits = StepLimits(*limits)
    if family is TaskKind.WIDE_SEARCH:
        return gen_wide_search(seed, units, extra, limits=limits)
    if family is TaskKind.DEEP_SEARCH:
        return gen_deep_search(seed, extra + 1, units, limits=limits)
    return gen_batch_download(seed, units, extra, limits=limits)


ASSIGN_NAMES = [t.name for t in default_vocabulary() if t.kind == "assign"]

# (family, task seed, units, extra, (orchestrator, sub-agent, token) limits,
# swarm (create_count, assign_name)), one or more per terminal flag.
FLAG_CASES = (
    (TaskKind.WIDE_SEARCH, 1, 3, 2, (100, 100, 100), (1, "ASSIGN_2")),
    (TaskKind.DEEP_SEARCH, 2, 3, 2, (100, 100, 100), (2, "ASSIGN_4")),
    (TaskKind.BATCH_DOWNLOAD, 3, 8, 2, (3, 100, 100), (3, "ASSIGN_8")),
    (TaskKind.WIDE_SEARCH, 4, 8, 3, (100, 100, 4), (0, "ASSIGN_2")),
    (TaskKind.DEEP_SEARCH, 5, 6, 3, (4, 5, 100), (1, "ASSIGN_8")),
)


def with_flag_cases(test):
    for case in FLAG_CASES:
        test = example(*case)(test)
    return test


class TestStopCurve:
    VOCAB = default_vocabulary()

    def choosers(self, swarm):
        return (serial_chooser, swarm_chooser(*swarm))

    @settings(max_examples=60, deadline=None)
    @with_flag_cases
    @given(
        st.sampled_from(list(TaskKind)),
        st.integers(0, 10_000),
        st.integers(1, 30),
        st.integers(1, 3),
        st.tuples(st.integers(1, 60), st.integers(1, 30), st.integers(1, 60)),
        st.tuples(st.integers(0, 3), st.sampled_from(ASSIGN_NAMES)),
    )
    def test_one_pass_curve_equals_the_rerun_definition(
        self, family, seed, units, extra, limits, swarm
    ):
        task = build_task(family, seed, units, extra, limits)
        for chooser in self.choosers(swarm):
            for episode_seed in (0, 7):
                expected = rerun_stop_curve(task, self.VOCAB, chooser, episode_seed)
                assert stop_curve(task, self.VOCAB, chooser, episode_seed) == expected

    def test_fixed_cases_reach_every_terminal_flag(self):
        flags = set()
        for family, seed, units, extra, limits, swarm in FLAG_CASES:
            task = build_task(family, seed, units, extra, limits)
            for chooser in self.choosers(swarm):
                flags.add(scripted_rollout(task, self.VOCAB, chooser, 0).terminal_flag)
        assert flags == {"finished", "budget_exhausted", "token_cap"}
