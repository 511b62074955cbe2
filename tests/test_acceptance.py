"""End-to-end behavioral guarantees of the training bench.

Each test class pins one externally visible property of the system: cost
accounting, delegation speedups, the effect of each reward term, gradient
exactness, the length-budget toggle, context sharding, and concurrent
execution. Training-based tests use small frozen configurations whose
pass margins were measured in advance across seeds; they run the real
training loop, not mocks.
"""

import math
import random
import time

import numpy as np
import pytest

from parlab import (
    ActionToken,
    BudgetTable,
    PARLConfig,
    PolicyParams,
    RLConfig,
    RolloutBatch,
    StepLimits,
    ToggleConfig,
    answer_score,
    collect_group,
    critical_steps,
    derive_seed,
    estimate_budget,
    fd_check,
    gen_batch_download,
    gen_deep_search,
    gen_wide_search,
    init_params,
    parallelism_degree,
    rl_gradient,
    rl_objective,
    rollout_episode,
    toggle_phase,
    toggle_reward,
    total_steps,
    train_step,
)
from parlab.harness import (
    RolloutJob,
    canonical_dumps,
    min_critical_at_threshold,
    replay_trace,
    rollout_manager,
    serial_chooser,
    stop_curve,
    swarm_chooser,
    trace_to_record,
)
from parlab.metrics import ContextConstants, context_usage

from conftest import TINY_VOCAB, make_stages, random_stages, zero_params


def _tok(name, kind, **kwargs):
    return ActionToken(name, kind, **kwargs)


class TestCriticalStepAccounting:
    """Parallel cost is the sum over stages of main steps plus the slowest
    group member; serial cost counts everything."""

    def test_exact_worked_cases(self):
        assert critical_steps(make_stages([(1, []), (1, []), (1, [])])) == 3
        assert critical_steps(make_stages([(1, [4, 2, 7]), (1, [3, 3])])) == 12
        assert total_steps(make_stages([(1, [4, 2, 7])])) == 14
        assert critical_steps([]) == 0
        assert critical_steps(make_stages([(2, [5])])) == 7
        assert critical_steps(make_stages([(1, [9, 9, 9])])) == 10

    def test_ten_thousand_random_episodes(self):
        start = time.monotonic()
        rng = random.Random(20240817)
        for _ in range(10_000):
            stages = random_stages(rng)
            critical = critical_steps(stages)
            total = total_steps(stages)
            expected = sum(
                s.main_steps + (max(s.sub_steps) if s.sub_steps else 0)
                for s in stages
            )
            assert critical == expected
            assert critical <= total
            if all(len(s.sub_steps) <= 1 for s in stages):
                assert critical == total
            else:
                assert critical < total
        assert time.monotonic() - start < 5.0


class TestDelegationSpeedup:
    """On a 40-item gathering task with uniform unit costs and ten-way
    delegation, the swarm's critical path beats any serial schedule by the
    width of the fan-out; matched-accuracy ratios grow with the target."""

    VOCAB = (
        _tok("FETCH", "tool", arg="fetch"),
        _tok("CREATE_WORKER", "create", arg="worker"),
        _tok("ASSIGN_10", "assign", group_size=10),
        _tok("FINISH", "finish"),
    )
    LIMITS = StepLimits(orchestrator_max_steps=64, subagent_max_steps=100,
                        max_tokens=50)

    def _task(self):
        return gen_wide_search(7, n_items=40, sources_per_item=1,
                               limits=self.LIMITS)

    def test_full_runs_and_threshold_sweep(self):
        start = time.monotonic()
        task = self._task()
        seed = 11
        serial_curve = stop_curve(task, self.VOCAB, serial_chooser, seed)
        swarm_curve = stop_curve(
            task, self.VOCAB, swarm_chooser(assign_name="ASSIGN_10"), seed
        )

        serial_full = serial_curve[-1]
        swarm_full = swarm_curve[-1]
        assert serial_full[1] == 1.0 and swarm_full[1] == 1.0
        assert serial_full[0] == 41
        assert swarm_full[0] == 7
        assert swarm_full[0] <= serial_full[0] / 3

        thresholds = (0.3, 0.4, 0.5, 0.6, 0.7)
        serial_mins = [min_critical_at_threshold(serial_curve, th)
                       for th in thresholds]
        swarm_mins = [min_critical_at_threshold(swarm_curve, th)
                      for th in thresholds]
        assert serial_mins == [9, 11, 15, 19, 23]
        assert swarm_mins == [7, 7, 7, 7, 7]

        ratios = [s / w for s, w in zip(serial_mins, swarm_mins)]
        assert all(b >= a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] >= 3.0
        assert ratios[-1] == pytest.approx(23 / 7)
        assert time.monotonic() - start < 10.0


class TestTrainingImprovesOutcomeAndParallelism:
    """500 iterations with both shaping terms annealed: the outcome score
    climbs by at least 0.2 while parallelism trends upward, on most seeds."""

    VOCAB = (
        _tok("SEARCH", "tool", arg="search"),
        _tok("FETCH", "tool", arg="fetch"),
        _tok("CREATE_WORKER", "create", arg="worker"),
        _tok("CREATE_FLAKY", "create", arg="flaky"),
        _tok("ASSIGN_2", "assign", group_size=2),
        _tok("ASSIGN_4", "assign", group_size=4),
        _tok("FINISH", "finish"),
    )
    LIMITS = StepLimits(orchestrator_max_steps=10, subagent_max_steps=100,
                        max_tokens=16)

    def _run_seed(self, seed):
        iterations = 500
        tasks = [
            gen_wide_search(1000 + i, n_items=12, sources_per_item=1,
                            limits=self.LIMITS)
            for i in range(4)
        ]
        rl = RLConfig(K=8, learning_rate=1.0, batch_problems=4,
                      iterations=iterations)
        parl = PARLConfig(lambda1_init=0.3, lambda2_init=0.3,
                          anneal_horizon=250, parallel_cap=4)
        params = init_params(len(self.VOCAB))
        perf_curve, width_curve = [], []
        for t in range(iterations):
            params, stats = train_step(params, tasks, self.VOCAB, rl, parl,
                                       t, seed)
            perf_curve.append(stats["mean_r_perf"])
            width_curve.append(stats["mean_parallelism"])
        initial = float(np.mean(perf_curve[:10]))
        final = float(np.mean(perf_curve[-50:]))
        slope = float(np.polyfit(np.arange(iterations), width_curve, 1)[0])
        return initial, final, slope

    @pytest.mark.slow
    def test_most_seeds_learn_to_delegate(self):
        start = time.monotonic()
        passes = 0
        outcomes = []
        for seed in range(5):
            initial, final, slope = self._run_seed(seed)
            ok = final >= initial + 0.2 and slope > 0.0
            outcomes.append((seed, round(initial, 3), round(final, 3),
                             round(slope, 6), ok))
            passes += ok
        assert passes >= 4, outcomes
        assert time.monotonic() - start < 300.0


class TestParallelBonusDrivesSpawning:
    """With the instantiation bonus removed the trained policy stays serial
    far more often than with an annealed bonus, on a task where the step
    budget makes delegation genuinely necessary."""

    VOCAB = (
        _tok("FETCH", "tool", arg="fetch"),
        _tok("CREATE_WORKER", "create", arg="worker"),
        _tok("ASSIGN_4", "assign", group_size=4),
        _tok("FINISH", "finish"),
    )
    LIMITS = StepLimits(orchestrator_max_steps=7, subagent_max_steps=100,
                        max_tokens=11)

    def _zero_spawn_fraction(self, seed, lambda1):
        tasks = [
            gen_wide_search(2000 + i, n_items=6, sources_per_item=1,
                            limits=self.LIMITS)
            for i in range(2)
        ]
        rl = RLConfig(K=8, learning_rate=2.0, batch_problems=2, iterations=200)
        parl = PARLConfig(lambda1_init=lambda1, lambda2_init=0.0,
                          anneal_horizon=100, parallel_cap=4)
        params = init_params(len(self.VOCAB))
        for t in range(200):
            params, _ = train_step(params, tasks, self.VOCAB, rl, parl, t, seed)
        zero = total = 0
        for task in tasks:
            for e in range(40):
                trace = rollout_episode(
                    params, task, self.VOCAB,
                    seed=derive_seed("posteval", seed, task.task_id, e),
                )
                zero += parallelism_degree(trace.stages).max_width == 0
                total += 1
        return zero / total

    @pytest.mark.slow
    def test_removing_the_bonus_keeps_policies_serial(self):
        start = time.monotonic()
        diffs = []
        for seed in range(5):
            without = self._zero_spawn_fraction(seed, lambda1=0.0)
            with_bonus = self._zero_spawn_fraction(seed, lambda1=0.4)
            diffs.append(without - with_bonus)
        assert float(np.mean(diffs)) >= 0.2, diffs
        assert time.monotonic() - start < 600.0


class TestFinishBonusCurbsAbandonment:
    """With the completion bonus removed, trained policies assign far more
    work than they see through; the bonus pulls the assigned/completed
    ratio back toward one. The instantiation bonus stays fixed (no anneal)
    in both arms so spawning itself never differs."""

    VOCAB = (
        _tok("FETCH", "tool", arg="fetch"),
        _tok("CREATE_WORKER", "create", arg="worker"),
        _tok("ASSIGN_4", "assign", group_size=4),
        _tok("ASSIGN_8", "assign", group_size=8),
        _tok("FINISH", "finish"),
    )
    LIMITS = StepLimits(orchestrator_max_steps=8, subagent_max_steps=100,
                        max_tokens=12)

    def _assigned_over_completed(self, seed, lambda2):
        tasks = [
            gen_wide_search(3000 + i, n_items=5, sources_per_item=1,
                            limits=self.LIMITS)
            for i in range(2)
        ]
        rl = RLConfig(K=8, learning_rate=1.0, batch_problems=2, iterations=150)
        parl = PARLConfig(lambda1_init=0.3, lambda2_init=lambda2,
                          anneal_horizon=math.inf, parallel_cap=8)
        params = init_params(len(self.VOCAB))
        for t in range(150):
            params, _ = train_step(params, tasks, self.VOCAB, rl, parl, t, seed)
        assigned = completed = 0
        for task in tasks:
            for e in range(40):
                trace = rollout_episode(
                    params, task, self.VOCAB,
                    seed=derive_seed("posteval", seed, task.task_id, e),
                )
                assigned += sum(s.assigned for s in trace.stages)
                completed += sum(s.completed for s in trace.stages)
        return assigned / completed if completed else float("inf")

    @pytest.mark.slow
    def test_completion_bonus_reduces_abandonment(self):
        start = time.monotonic()
        without, with_bonus = [], []
        for seed in range(5):
            without.append(self._assigned_over_completed(seed, lambda2=0.0))
            with_bonus.append(self._assigned_over_completed(seed, lambda2=0.6))
        assert float(np.mean(without)) > float(np.mean(with_bonus)), (
            without, with_bonus,
        )
        assert time.monotonic() - start < 600.0


class TestGradientCorrectness:
    """The analytic gradient matches central differences off-policy, the
    trust-window mask freezes drifted tokens exactly, and on-policy batches
    pay no penalty."""

    def _batches(self, n):
        tasks = [
            gen_wide_search(500 + i, n_items=4, sources_per_item=1,
                            limits=StepLimits(12, 50, 10))
            for i in range(5)
        ]
        rng = np.random.default_rng(99)
        sampling = zero_params()
        out = []
        for i in range(n):
            task = tasks[i % len(tasks)]
            traces = collect_group(task, sampling, TINY_VOCAB, K=4, t=i, seed=i)
            rewards = [round(float(rng.random()), 3) for _ in traces]
            evaluation = PolicyParams(
                sampling.weights + 0.05 * rng.standard_normal(sampling.weights.shape)
            )
            out.append((RolloutBatch(task.task_id, traces, rewards), evaluation))
        return out

    def test_hundred_off_policy_batches_match_finite_differences(self):
        start = time.monotonic()
        worst = 0.0
        for batch, evaluation in self._batches(100):
            report = fd_check(evaluation, batch, RLConfig(tau=0.3), epsilon=1e-6)
            worst = max(worst, report.max_rel_error)
            assert report.max_rel_error <= 1e-4, worst
        assert time.monotonic() - start < 30.0

    def test_fully_masked_batch_contributes_exactly_nothing(self):
        task = gen_wide_search(500, n_items=4, sources_per_item=1,
                               limits=StepLimits(12, 50, 10))
        sampling = zero_params()
        traces = collect_group(task, sampling, TINY_VOCAB, K=4, t=0, seed=0)
        batch = RolloutBatch(task.task_id, traces, [0.9, 0.1, 0.4, 0.6])
        drifted = PolicyParams(
            sampling.weights
            + np.random.default_rng(3).standard_normal(sampling.weights.shape)
        )
        cfg = RLConfig(alpha=-1e-9, beta=1e-9, tau=0.0)
        for cur, beh in zip(batch.current_logprobs(drifted),
                            batch.behavior_logprobs()):
            assert np.all(np.abs(cur - beh) > 1e-9)
        assert rl_objective(drifted, batch, cfg) == 0.0
        grad = rl_gradient(drifted, batch, cfg)
        assert np.array_equal(grad, np.zeros_like(grad))

    def test_on_policy_penalty_is_exactly_zero(self):
        task = gen_wide_search(501, n_items=4, sources_per_item=1,
                               limits=StepLimits(12, 50, 10))
        sampling = zero_params()
        traces = collect_group(task, sampling, TINY_VOCAB, K=4, t=0, seed=1)
        batch = RolloutBatch(task.task_id, traces, [1.0, 0.0, 0.5, 0.25])
        lean = rl_objective(sampling, batch, RLConfig(tau=0.0))
        taxed = rl_objective(sampling, batch, RLConfig(tau=9.0))
        assert lean == taxed == 0.0
        assert np.array_equal(
            rl_gradient(sampling, batch, RLConfig(tau=0.0)),
            rl_gradient(sampling, batch, RLConfig(tau=9.0)),
        )


class TestLengthBudgetToggle:
    """On tasks where extra tokens never hurt the score, alternating budget
    enforcement cuts response length sharply at negligible outcome cost."""

    VOCAB = (
        _tok("DOWNLOAD", "tool", arg="download"),
        _tok("FINISH", "finish"),
    )
    LIMITS = StepLimits(orchestrator_max_steps=60, subagent_max_steps=50,
                        max_tokens=30)
    PARL = PARLConfig(lambda1_init=0.0, lambda2_init=0.0, anneal_horizon=100,
                      parallel_cap=4)
    TOGGLE = ToggleConfig(m=10, accuracy_threshold=0.9, rho=25.0,
                          fallback_budget=8)
    WARM, CONT = 40, 450

    def _run_seed(self, seed):
        tasks = [
            gen_batch_download(4000 + i, n_files=1, file_cost=6,
                               limits=self.LIMITS)
            for i in range(2)
        ]
        rl = RLConfig(K=16, learning_rate=1.0, batch_problems=2,
                      iterations=self.WARM + self.CONT)
        params = init_params(len(self.VOCAB))
        for t in range(self.WARM):
            params, _ = train_step(params, tasks, self.VOCAB, rl, self.PARL,
                                   t, seed)
        table = BudgetTable()
        for task in tasks:
            samples = []
            for k in range(32):
                trace = rollout_episode(
                    params, task, self.VOCAB,
                    seed=derive_seed("budget", seed, task.task_id, k),
                )
                samples.append(
                    (len(trace.tokens), answer_score(task, trace.final_answer))
                )
            table.set_budget(
                task.task_id,
                estimate_budget(samples, self.TOGGLE.rho,
                                self.TOGGLE.fallback_budget),
            )
        table.freeze()
        arms = {}
        for name, toggled in (("plain", False), ("toggle", True)):
            arm_params = params.copy()
            for t in range(self.WARM, self.WARM + self.CONT):
                arm_params, _ = train_step(
                    arm_params, tasks, self.VOCAB, rl, self.PARL, t, seed,
                    toggle_cfg=self.TOGGLE if toggled else None,
                    budget_table=table if toggled else None,
                )
            lengths, scores = [], []
            for task in tasks:
                for e in range(40):
                    trace = rollout_episode(
                        arm_params, task, self.VOCAB,
                        seed=derive_seed("posteval", seed, task.task_id, e),
                    )
                    lengths.append(len(trace.tokens))
                    scores.append(answer_score(task, trace.final_answer))
            arms[name] = (float(np.mean(lengths)), float(np.mean(scores)))
        return arms

    @pytest.mark.slow
    def test_budget_enforcement_shortens_responses_without_hurting_outcomes(self):
        start = time.monotonic()
        drops, perf_deltas = [], []
        for seed in range(5):
            arms = self._run_seed(seed)
            plain_len, plain_score = arms["plain"]
            toggle_len, toggle_score = arms["toggle"]
            drops.append(1.0 - toggle_len / plain_len)
            perf_deltas.append(plain_score - toggle_score)
        assert float(np.mean(drops)) >= 0.15, (drops, perf_deltas)
        assert float(np.mean(perf_deltas)) <= 0.02, (drops, perf_deltas)
        assert time.monotonic() - start < 600.0

    def test_mechanism_exactness(self):
        assert [toggle_phase(t, 5) for t in (0, 4, 5, 9, 10)] == [0, 0, 1, 1, 0]
        assert estimate_budget(
            [(10, 1.0), (20, 1.0), (30, 1.0), (40, 1.0)], rho=50.0
        ) == 20
        assert estimate_budget([(10, 0.0)], rho=50.0, fallback=8) == 8
        table = BudgetTable()
        table.set_budget("x", 20)
        table.freeze()
        cfg = ToggleConfig(m=5, accuracy_threshold=0.5)
        assert toggle_reward("x", [(10, 1.0), (25, 1.0)], table, cfg, t=0) == [
            1.0, 0.0,
        ]
        assert toggle_reward("x", [(10, 1.0), (25, 1.0)], table, cfg, t=5) == [
            1.0, 1.0,
        ]
        assert toggle_reward("x", [(25, 0.4), (30, 0.4)], table, cfg, t=0) == [
            0.4, 0.4,
        ]


class TestContextSharding:
    """Delegation keeps raw unit payloads out of the orchestrator context:
    the swarm coordinator ends every task with a smaller context than the
    single agent that does all the work itself."""

    def test_swarm_context_is_always_smaller(self):
        start = time.monotonic()
        from parlab import default_vocabulary

        vocab = default_vocabulary()
        for n_items in (10, 14, 20, 30):
            limits = StepLimits(orchestrator_max_steps=3 * n_items,
                                subagent_max_steps=100,
                                max_tokens=3 * n_items)
            task = gen_wide_search(derive_seed("ctx", n_items), n_items=n_items,
                                   sources_per_item=2, limits=limits)
            from parlab.harness import scripted_rollout

            serial = scripted_rollout(task, vocab, serial_chooser, seed=0)
            swarm = scripted_rollout(task, vocab, swarm_chooser(), seed=0)
            assert answer_score(task, swarm.final_answer) == 1.0
            serial_tokens, _ = context_usage(serial, ContextConstants())
            swarm_tokens, _ = context_usage(swarm, ContextConstants())
            assert swarm_tokens < serial_tokens, (n_items, swarm_tokens,
                                                  serial_tokens)
        assert time.monotonic() - start < 10.0


class TestConcurrentExecutionAndReplay:
    """Concurrency is invisible in the results, and every persisted trace
    re-simulates without divergence."""

    def _jobs(self, n):
        tasks = [
            gen_wide_search(600 + i, n_items=4, sources_per_item=1,
                            limits=StepLimits(12, 50, 10))
            for i in range(4)
        ] + [
            gen_deep_search(700 + i, depth=2, branching=2,
                            limits=StepLimits(12, 50, 10))
            for i in range(3)
        ] + [
            gen_batch_download(800 + i, n_files=3, file_cost=2,
                               limits=StepLimits(12, 50, 10))
            for i in range(3)
        ]
        return [RolloutJob(tasks[i % len(tasks)], seed=i) for i in range(n)]

    def test_concurrency_level_is_invisible(self):
        from parlab import default_vocabulary

        vocab = default_vocabulary()
        params = init_params(len(vocab))
        jobs = self._jobs(60)
        records = {
            level: [
                canonical_dumps(trace_to_record(trace, vocab))
                for trace in rollout_manager(jobs, params, vocab,
                                             concurrency=level)
            ]
            for level in (1, 8, 64)
        }
        assert records[1] == records[8]
        assert records[8] == records[64]

    def test_thousand_concurrent_episodes_replay_exactly(self):
        from parlab import default_vocabulary

        vocab = default_vocabulary()
        params = init_params(len(vocab))
        jobs = self._jobs(1000)
        start = time.monotonic()
        traces = rollout_manager(jobs, params, vocab, concurrency=64)
        elapsed = time.monotonic() - start
        assert elapsed < 60.0
        assert len(traces) == 1000
        divergences = 0
        for trace in traces:
            record = trace_to_record(trace, vocab)
            verdict = replay_trace(record, params=params)
            divergences += 0 if verdict.ok else 1
        assert divergences == 0
