"""Objective, gradient, trust-window masking, and the training step."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parlab import (
    FEATURE_DIM,
    GradientReport,
    InvalidParameterError,
    MissingBudgetError,
    PARLConfig,
    PolicyParams,
    RLConfig,
    RolloutBatch,
    ToggleConfig,
    action_logprobs,
    advantage,
    clip_mask,
    collect_group,
    default_vocabulary,
    fd_check,
    gen_batch_download,
    gen_deep_search,
    gen_wide_search,
    grad_logprob,
    rl_gradient,
    rl_objective,
    train_step,
)
from parlab import optimizer
from parlab.harness import record_to_trace, trace_to_record

from conftest import SMALL_LIMITS, TINY_VOCAB, perturbed, sample_batch, zero_params


class TestRLConfig:
    def test_defaults_are_valid(self):
        cfg = RLConfig()
        assert cfg.alpha < 0.0 < cfg.beta

    def test_trust_window_must_straddle_zero(self):
        with pytest.raises(InvalidParameterError):
            RLConfig(alpha=0.1, beta=0.5)
        with pytest.raises(InvalidParameterError):
            RLConfig(alpha=-0.5, beta=-0.1)
        with pytest.raises(InvalidParameterError):
            RLConfig(alpha=0.0, beta=0.5)

    def test_remaining_validations(self):
        with pytest.raises(InvalidParameterError):
            RLConfig(K=1)
        with pytest.raises(InvalidParameterError):
            RLConfig(learning_rate=0.0)
        with pytest.raises(InvalidParameterError):
            RLConfig(tau=-0.01)
        with pytest.raises(InvalidParameterError):
            RLConfig(batch_problems=0)
        with pytest.raises(InvalidParameterError):
            RLConfig(iterations=-1)


class TestAdvantage:
    def test_two_element_group(self):
        assert advantage([1.0, 0.0]).tolist() == [0.5, -0.5]

    def test_uniform_group_has_no_advantage(self):
        assert advantage([0.5, 0.5, 0.5]).tolist() == [0.0, 0.0, 0.0]

    def test_empty_group_rejected(self):
        with pytest.raises(InvalidParameterError):
            advantage([])

    @given(st.lists(st.floats(min_value=-5, max_value=5), min_size=1, max_size=16))
    def test_advantages_sum_to_zero(self, rewards):
        assert abs(advantage(rewards).sum()) <= 1e-12


class TestClipMask:
    def test_zero_ratio_is_inside_any_valid_window(self):
        assert clip_mask(0.0, -0.5, 0.5) == 1.0

    def test_drifted_ratio_is_frozen(self):
        assert clip_mask(0.7, -0.5, 0.5) == 0.0

    def test_window_is_sign_agnostic(self):
        assert clip_mask(-0.7, -0.5, 0.5) == 0.0
        assert clip_mask(-0.3, -0.5, 0.5) == 1.0

    def test_boundaries_are_inclusive(self):
        assert clip_mask(-0.5, -0.5, 0.5) == 1.0
        assert clip_mask(0.5, -0.5, 0.5) == 1.0

    def test_scalar_in_float_out(self):
        assert isinstance(clip_mask(0.1, -0.5, 0.5), float)

    def test_arrays_mask_elementwise(self):
        out = clip_mask(np.array([0.0, 0.6, -0.6, 0.5]), -0.5, 0.5)
        assert out.tolist() == [1.0, 0.0, 0.0, 1.0]

    def test_degenerate_window_rejected(self):
        with pytest.raises(InvalidParameterError):
            clip_mask(0.0, 0.5, 0.5)
        with pytest.raises(InvalidParameterError):
            clip_mask(0.0, 0.5, -0.5)


class TestRolloutBatch:
    def test_reward_count_must_match_traces(self, wide_task):
        batch, _ = sample_batch(wide_task, zero_params())
        with pytest.raises(InvalidParameterError):
            RolloutBatch(batch.problem_id, batch.traces, batch.rewards[:-1])

    def test_empty_batch_rejected(self, wide_task):
        with pytest.raises(InvalidParameterError):
            RolloutBatch("p", [], [])

    def test_bookkeeping(self, wide_task):
        batch, _ = sample_batch(wide_task, zero_params())
        assert batch.total_tokens() == sum(batch.lengths())
        assert batch.mean_reward() == pytest.approx(
            sum(batch.rewards) / len(batch.rewards)
        )

    def test_current_equals_behavior_at_sampling_params(self, wide_task):
        params = zero_params()
        batch, _ = sample_batch(wide_task, params)
        for cur, beh in zip(batch.current_logprobs(params),
                            batch.behavior_logprobs()):
            assert np.array_equal(cur, beh)


def without_softmax_cache(batch: RolloutBatch) -> RolloutBatch:
    """The same batch with every token's sampling softmax dropped, so every
    call on it takes the recompute path."""
    traces = [
        dataclasses.replace(
            trace,
            tokens=[dataclasses.replace(tok, softmax=None) for tok in trace.tokens],
        )
        for trace in batch.traces
    ]
    return RolloutBatch(batch.problem_id, traces, list(batch.rewards))


def float_bits(value: float) -> bytes:
    return np.float64(value).tobytes()


def per_token_gradient(params: PolicyParams, batch: RolloutBatch, cfg: RLConfig):
    """`rl_gradient` as one recomputed softmax and one score function per
    token: the reference whose bits the cached, stacked form must keep."""
    adv = advantage(batch.rewards)
    grad = np.zeros_like(params.weights)
    for j, trace in enumerate(batch.traces):
        for tok in trace.tokens:
            features = np.array(tok.features)
            log_ratio = (
                action_logprobs(params, features)[tok.index] - tok.behavior_logprob
            )
            mask = clip_mask(log_ratio, cfg.alpha, cfg.beta)
            coeff = mask * adv[j] - 2.0 * cfg.tau * log_ratio
            if coeff != 0.0:
                grad += coeff * grad_logprob(params, features, tok.index)
    return grad / batch.total_tokens()


TASK_FAMILIES = (
    lambda seed, a, b: gen_wide_search(seed, a, b, limits=SMALL_LIMITS),
    lambda seed, a, b: gen_deep_search(seed, a, b, limits=SMALL_LIMITS),
    lambda seed, a, b: gen_batch_download(seed, a, b, limits=SMALL_LIMITS),
)


class TestSamplingSoftmaxCache:
    """The gradient reuses the sampling pass's softmax only where that gives
    exactly the bits a recomputation gives, signed zeros included."""

    @settings(max_examples=100, deadline=None)
    @given(
        family=st.sampled_from(TASK_FAMILIES),
        task_seed=st.integers(0, 10_000),
        size=st.tuples(st.integers(1, 4), st.integers(1, 3)),
        vocab_rows=st.lists(st.integers(0, 8), min_size=2, max_size=9, unique=True),
        weight_seed=st.integers(0, 10_000),
        scale=st.sampled_from([0.0, 0.5, 3.0]),
        K=st.integers(2, 4),
        rewards=st.one_of(
            st.sampled_from([0.0, 1.0]).map(lambda r: [r]),
            st.lists(st.sampled_from([0.0, 0.25, 1.0]), min_size=4, max_size=4),
        ),
        tau=st.sampled_from([0.0, 0.3]),
        evaluate_at=st.sampled_from(["sampling", "copy", "perturbed"]),
        round_trip=st.booleans(),
    )
    def test_cached_path_equals_recompute_path(
        self, family, task_seed, size, vocab_rows, weight_seed, scale, K,
        rewards, tau, evaluate_at, round_trip,
    ):
        task = family(task_seed, *size)
        full = default_vocabulary()
        vocab = tuple(full[i] for i in sorted(vocab_rows))
        rng = np.random.default_rng(weight_seed)
        params = PolicyParams(scale * rng.standard_normal((len(vocab), FEATURE_DIM)))
        traces = collect_group(task, params, vocab, K, t=0, seed=task_seed)
        if round_trip:
            traces[0], _ = record_to_trace(trace_to_record(traces[0], vocab))
        group_rewards = [rewards[k % len(rewards)] for k in range(K)]
        batch = RolloutBatch(task.task_id, traces, group_rewards)
        recompute = without_softmax_cache(batch)
        at = {
            "sampling": params,
            "copy": params.copy(),
            "perturbed": perturbed(params, 0.3, seed=weight_seed),
        }[evaluate_at]
        cfg = RLConfig(K=K, tau=tau)
        gradient = rl_gradient(at, batch, cfg).tobytes()
        assert gradient == rl_gradient(at, recompute, cfg).tobytes()
        assert gradient == per_token_gradient(at, batch, cfg).tobytes()
        assert float_bits(rl_objective(at, batch, cfg)) == float_bits(
            rl_objective(at, recompute, cfg)
        )
        for cached, fresh in zip(batch.current_logprobs(at),
                                 recompute.current_logprobs(at)):
            assert cached.tobytes() == fresh.tobytes()
        tokens = traces[-1].tokens
        features = np.array([tok.features for tok in tokens])
        indices = [tok.index for tok in tokens]
        probs = np.array([tok.softmax.probs for tok in tokens])
        stacked = grad_logprob(params, features, indices, probs)
        assert stacked.shape == (len(tokens), len(vocab), FEATURE_DIM)
        assert stacked.tobytes() == grad_logprob(params, features, indices).tobytes()
        for row, tok in zip(stacked, tokens):
            single = grad_logprob(params, np.array(tok.features), tok.index)
            assert row.tobytes() == single.tobytes()

    def test_weights_changed_in_place_take_the_recompute_path(
        self, wide_task, monkeypatch
    ):
        params = perturbed(zero_params(), 0.5, seed=2)
        batch, _ = sample_batch(wide_task, params)
        recompute = without_softmax_cache(batch)
        cfg = RLConfig(tau=0.3)
        calls = []
        real = optimizer.action_logprobs
        monkeypatch.setattr(
            optimizer, "action_logprobs", lambda p, x: calls.append(1) or real(p, x)
        )
        sampled = rl_gradient(params, batch, cfg)
        assert calls == []
        params.weights += np.random.default_rng(5).normal(0.0, 0.3, params.weights.shape)
        moved = rl_gradient(params, batch, cfg)
        assert len(calls) == batch.total_tokens()
        assert moved.tobytes() == rl_gradient(params, recompute, cfg).tobytes()
        assert moved.tobytes() != sampled.tobytes()


class TestObjective:
    def test_on_policy_value_is_exactly_zero(self, wide_task):
        params = zero_params()
        batch, _ = sample_batch(wide_task, params)
        cfg = RLConfig(tau=3.0)
        assert rl_objective(params, batch, cfg) == 0.0

    def test_zero_tau_and_zero_advantage_give_zero(self, wide_task):
        batch, _ = sample_batch(wide_task, zero_params())
        batch = RolloutBatch(batch.problem_id, batch.traces, [0.5] * len(batch.traces))
        off_policy = perturbed(zero_params(), scale=0.2, seed=5)
        assert rl_objective(off_policy, batch, RLConfig(tau=0.0)) == 0.0

    def test_doubling_tau_doubles_the_penalty(self, wide_task):
        batch, _ = sample_batch(wide_task, zero_params())
        off_policy = perturbed(zero_params(), scale=0.2, seed=5)
        zeros = np.zeros(len(batch.traces))
        penalty_1 = rl_objective(off_policy, batch, RLConfig(tau=1.0), advantages=zeros)
        penalty_2 = rl_objective(off_policy, batch, RLConfig(tau=2.0), advantages=zeros)
        assert penalty_1 < 0.0
        assert penalty_2 == pytest.approx(2.0 * penalty_1, rel=1e-12)

    def test_advantage_vector_length_checked(self, wide_task):
        batch, _ = sample_batch(wide_task, zero_params())
        with pytest.raises(InvalidParameterError):
            rl_objective(zero_params(), batch, RLConfig(),
                         advantages=np.zeros(len(batch.traces) + 1))


class TestGradient:
    def test_on_policy_uniform_rewards_give_zero_vector(self, wide_task):
        params = zero_params()
        batch, _ = sample_batch(wide_task, params)
        batch = RolloutBatch(batch.problem_id, batch.traces, [1.0] * len(batch.traces))
        grad = rl_gradient(params, batch, RLConfig(tau=4.0))
        assert np.array_equal(grad, np.zeros_like(grad))

    def test_penalty_vanishes_on_policy(self, wide_task):
        params = zero_params()
        batch, _ = sample_batch(wide_task, params)
        no_penalty = rl_gradient(params, batch, RLConfig(tau=0.0))
        with_penalty = rl_gradient(params, batch, RLConfig(tau=7.0))
        assert np.array_equal(no_penalty, with_penalty)

    def test_fully_masked_batch_with_zero_tau_is_inert(self, wide_task):
        params = zero_params()
        batch, _ = sample_batch(wide_task, params)
        off_policy = perturbed(params, scale=1.0, seed=9)
        cfg = RLConfig(alpha=-1e-9, beta=1e-9, tau=0.0)
        for cur, beh in zip(batch.current_logprobs(off_policy),
                            batch.behavior_logprobs()):
            assert np.all(np.abs(cur - beh) > 1e-9)
        assert rl_objective(off_policy, batch, cfg) == 0.0
        grad = rl_gradient(off_policy, batch, cfg)
        assert np.array_equal(grad, np.zeros_like(grad))

    def test_gradient_is_deterministic(self, wide_task):
        batch, _ = sample_batch(wide_task, zero_params())
        off_policy = perturbed(zero_params(), scale=0.2, seed=3)
        g1 = rl_gradient(off_policy, batch, RLConfig(tau=0.5))
        g2 = rl_gradient(off_policy, batch, RLConfig(tau=0.5))
        assert np.array_equal(g1, g2)

    def test_gradient_stays_finite_at_extreme_drift(self, wide_task):
        batch, _ = sample_batch(wide_task, zero_params())
        far = perturbed(zero_params(), scale=50.0, seed=1)
        grad = rl_gradient(far, batch, RLConfig(tau=1.0))
        assert np.all(np.isfinite(grad))

    def test_advantage_vector_length_checked(self, wide_task):
        batch, _ = sample_batch(wide_task, zero_params())
        with pytest.raises(InvalidParameterError):
            rl_gradient(zero_params(), batch, RLConfig(),
                        advantages=np.zeros(len(batch.traces) + 1))


class TestFiniteDifference:
    def test_on_policy_zero_params_agree(self, wide_task):
        params = zero_params()
        batch, _ = sample_batch(wide_task, params)
        report = fd_check(params, batch, RLConfig(tau=0.5))
        assert report.max_rel_error <= 1e-6

    def test_off_policy_agreement(self, wide_task):
        batch, _ = sample_batch(wide_task, zero_params())
        for seed in range(3):
            off_policy = perturbed(zero_params(), scale=0.15, seed=seed)
            report = fd_check(off_policy, batch, RLConfig(tau=0.3))
            assert report.max_rel_error <= 1e-4

    def test_report_shapes_match_parameter_count(self, wide_task):
        params = zero_params()
        batch, _ = sample_batch(wide_task, params)
        report = fd_check(params, batch, RLConfig())
        assert isinstance(report, GradientReport)
        assert report.analytic.shape == report.finite_diff.shape
        assert report.analytic.size == params.weights.size

    def test_nonpositive_epsilon_rejected(self, wide_task):
        batch, _ = sample_batch(wide_task, zero_params())
        with pytest.raises(InvalidParameterError):
            fd_check(zero_params(), batch, RLConfig(), epsilon=0.0)


class TestCollectGroup:
    def test_returns_k_distinct_episode_seeds(self, wide_task):
        traces = collect_group(wide_task, zero_params(), TINY_VOCAB, K=6, t=0, seed=0)
        assert len(traces) == 6
        assert len({tr.episode_seed for tr in traces}) == 6

    def test_same_inputs_reproduce_the_group(self, wide_task):
        a = collect_group(wide_task, zero_params(), TINY_VOCAB, K=4, t=2, seed=7)
        b = collect_group(wide_task, zero_params(), TINY_VOCAB, K=4, t=2, seed=7)
        for x, y in zip(a, b):
            assert [t.index for t in x.tokens] == [t.index for t in y.tokens]
            assert x.terminal_flag == y.terminal_flag

    def test_iteration_index_shifts_the_draws(self, wide_task):
        a = collect_group(wide_task, zero_params(), TINY_VOCAB, K=4, t=0, seed=7)
        b = collect_group(wide_task, zero_params(), TINY_VOCAB, K=4, t=1, seed=7)
        assert {tr.episode_seed for tr in a}.isdisjoint(
            tr.episode_seed for tr in b
        )


class TestTrainStep:
    def _cfgs(self):
        return RLConfig(K=4, learning_rate=0.5), PARLConfig(anneal_horizon=100)

    def test_deterministic_update(self, wide_task):
        rl_cfg, parl_cfg = self._cfgs()
        p1, s1 = train_step(zero_params(), [wide_task], TINY_VOCAB, rl_cfg,
                            parl_cfg, t=0, seed=0)
        p2, s2 = train_step(zero_params(), [wide_task], TINY_VOCAB, rl_cfg,
                            parl_cfg, t=0, seed=0)
        assert np.array_equal(p1.weights, p2.weights)
        assert s1 == s2

    def test_stats_carry_the_expected_fields(self, wide_task):
        rl_cfg, parl_cfg = self._cfgs()
        _, stats = train_step(zero_params(), [wide_task], TINY_VOCAB, rl_cfg,
                              parl_cfg, t=3, seed=0)
        assert set(stats) == {
            "iteration", "mean_reward", "mean_raw_reward", "mean_r_perf",
            "mean_critical_steps", "mean_total_steps", "mean_parallelism",
            "mean_finish_rate", "mean_tokens", "phase", "grad_norm",
        }
        assert stats["iteration"] == 3
        assert stats["phase"] == 1

    def test_toggle_requires_a_budget_table(self, wide_task):
        rl_cfg, parl_cfg = self._cfgs()
        with pytest.raises(MissingBudgetError):
            train_step(zero_params(), [wide_task], TINY_VOCAB, rl_cfg, parl_cfg,
                       t=0, seed=0, toggle_cfg=ToggleConfig())

    def test_no_problems_rejected(self):
        rl_cfg, parl_cfg = self._cfgs()
        with pytest.raises(InvalidParameterError):
            train_step(zero_params(), [], TINY_VOCAB, rl_cfg, parl_cfg, t=0, seed=0)

    def test_phase_reported_under_toggle(self, wide_task):
        from parlab import BudgetTable

        rl_cfg, parl_cfg = self._cfgs()
        table = BudgetTable()
        table.set_budget(wide_task.task_id, 50)
        table.freeze()
        _, stats = train_step(zero_params(), [wide_task], TINY_VOCAB, rl_cfg,
                              parl_cfg, t=0, seed=0,
                              toggle_cfg=ToggleConfig(m=5), budget_table=table)
        assert stats["phase"] == 0
