"""Policy mechanics: distributions, sampling, decoding, rollout determinism."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parlab import (
    AssignGroupAction,
    FEATURE_DIM,
    EpisodeTrace,
    FinishAction,
    InvalidParameterError,
    NoOpAction,
    PolicyParams,
    StepLimits,
    ToolCallAction,
    action_distribution,
    action_logprobs,
    decode_action,
    default_vocabulary,
    derive_seed,
    featurize,
    gen_batch_download,
    gen_deep_search,
    gen_wide_search,
    grad_logprob,
    init_params,
    partition_units,
    reset,
    rollout_episode,
    rollout_episodes,
    sample_action,
    token_from_dict,
    vocabulary_manifest,
)
from parlab.harness import canonical_dumps, trace_to_record
from parlab.orchestrator import Softmax, TokenRecord

from conftest import SMALL_LIMITS, TINY_VOCAB, zero_params


class TestFeaturize:
    def test_fresh_reset_has_unresolved_fraction_one(self):
        spec = gen_wide_search(1, n_items=5, sources_per_item=1)
        env, obs = reset(spec, seed=0)
        features = featurize(obs, spec)
        assert features[3] == 1.0
        assert len(features) == FEATURE_DIM

    def test_all_resolved_drops_fraction_to_zero(self):
        from parlab import SubtaskAssignment, CreateAgentAction, SubagentProfile

        spec = gen_wide_search(1, n_items=5, sources_per_item=1)
        env, _ = reset(spec, seed=0)
        env.step(CreateAgentAction(SubagentProfile("w", "do work")))
        env.step(AssignGroupAction((
            SubtaskAssignment("w", tuple(spec.ground_truth.wide.items), seed=0),
        )))
        features = featurize(env.observe(), spec)
        assert features[3] == 0.0

    def test_all_entries_bounded(self):
        spec = gen_wide_search(1, n_items=5, sources_per_item=1)
        _, obs = reset(spec, seed=0)
        features = featurize(obs, spec)
        assert np.all(features >= 0.0) and np.all(features <= 1.0)


class TestDistribution:
    def test_zero_weights_give_uniform(self):
        params = init_params(4)
        features = np.ones(FEATURE_DIM)
        dist = action_distribution(params, features)
        assert np.allclose(dist, 0.25, atol=1e-15)

    def test_shifting_every_logit_changes_nothing(self):
        rng = np.random.default_rng(0)
        params = PolicyParams(rng.standard_normal((5, FEATURE_DIM)))
        features = rng.standard_normal(FEATURE_DIM)
        shift = np.outer(
            np.ones(5), features * (3.7 / float(features @ features))
        )
        shifted = PolicyParams(params.weights + shift)
        assert np.allclose(
            action_distribution(params, features),
            action_distribution(shifted, features),
            atol=1e-12,
        )

    def test_sums_to_one_over_random_draws(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            params = PolicyParams(rng.standard_normal((6, FEATURE_DIM)) * 3)
            features = rng.standard_normal(FEATURE_DIM)
            assert abs(action_distribution(params, features).sum() - 1.0) <= 1e-12

    def test_logprobs_match_distribution(self):
        rng = np.random.default_rng(3)
        params = PolicyParams(rng.standard_normal((4, FEATURE_DIM)))
        features = rng.standard_normal(FEATURE_DIM)
        assert np.allclose(
            np.exp(action_logprobs(params, features)),
            action_distribution(params, features),
            atol=1e-12,
        )

    def test_extreme_logits_stay_finite(self):
        params = PolicyParams(np.full((3, FEATURE_DIM), 500.0))
        dist = action_distribution(params, np.ones(FEATURE_DIM))
        assert np.isfinite(dist).all() and abs(dist.sum() - 1.0) <= 1e-12


class TestSampling:
    def test_point_mass_returns_logprob_zero(self):
        dist = np.array([0.0, 1.0, 0.0])
        index, logprob = sample_action(dist, random.Random(0))
        assert index == 1 and logprob == 0.0

    def test_same_rng_state_same_sample(self):
        dist = np.array([0.3, 0.3, 0.4])
        assert sample_action(dist, random.Random(5)) == sample_action(
            dist, random.Random(5)
        )

    def test_empirical_frequencies_track_distribution(self):
        dist = np.array([0.5, 0.3, 0.2])
        rng = random.Random(123)
        counts = np.zeros(3)
        n = 100_000
        for _ in range(n):
            index, _ = sample_action(dist, rng)
            counts[index] += 1
        assert np.all(np.abs(counts / n - dist) <= 0.01)

    def test_sampled_logprob_is_log_of_probability(self):
        dist = np.array([0.25, 0.75])
        index, logprob = sample_action(dist, random.Random(1))
        assert math.isclose(logprob, math.log(dist[index]), rel_tol=1e-12)


class TestPartition:
    def test_balanced_split_of_divisible_count(self):
        units = [f"u{i}" for i in range(40)]
        groups = partition_units(units, {u: 1 for u in units}, 4, "size_balanced")
        assert [len(g) for g in groups] == [10, 10, 10, 10]

    def test_balanced_split_of_ten_into_three(self):
        units = [f"u{i}" for i in range(10)]
        groups = partition_units(units, {u: 1 for u in units}, 3, "size_balanced")
        assert sorted(len(g) for g in groups) == [3, 3, 4]

    def test_balanced_ties_keep_first_occurrence_order(self):
        # Equal costs tie on the first index of each id, so the repeated "a"
        # sorts next to its first copy, ahead of "b".
        units = ["c", "a", "b", "a", "d", "e"]
        equal = partition_units(units, {u: 1 for u in units}, 3, "size_balanced")
        assert equal == [["c", "b"], ["a", "d"], ["a", "e"]]
        costs = {"a": 1, "b": 2, "c": 1, "d": 2, "e": 1}
        mixed = partition_units(units, costs, 2, "size_balanced")
        assert mixed == [["b", "c", "a"], ["d", "a", "e"]]

    def test_every_scheme_partitions_exactly(self):
        units = [f"u{i}" for i in range(11)]
        costs = {u: (i % 3) + 1 for i, u in enumerate(units)}
        for scheme in ("contiguous", "round_robin", "size_balanced"):
            groups = partition_units(units, costs, 4, scheme)
            flat = [u for g in groups for u in g]
            assert sorted(flat) == sorted(units), scheme
            assert len(groups) == 4

    def test_contiguous_preserves_order(self):
        units = [f"u{i}" for i in range(9)]
        groups = partition_units(units, {u: 1 for u in units}, 3, "contiguous")
        assert [u for g in groups for u in g] == units

    def test_more_groups_than_units_leaves_empties(self):
        units = ["a", "b"]
        groups = partition_units(units, {"a": 1, "b": 1}, 5, "size_balanced")
        assert sum(1 for g in groups if g) == 2
        assert sum(1 for g in groups if not g) == 3

    def test_unknown_scheme_rejected(self):
        with pytest.raises(InvalidParameterError):
            partition_units(["a"], {"a": 1}, 2, "alphabetical")


class TestDecode:
    def _env(self, n_items=10):
        spec = gen_wide_search(2, n_items=n_items, sources_per_item=1)
        env, _ = reset(spec, seed=0)
        return spec, env

    def test_assign_without_agents_is_noop(self):
        _, env = self._env()
        token = next(t for t in TINY_VOCAB if t.kind == "assign")
        assert isinstance(decode_action(token, env), NoOpAction)

    def test_assign_partitions_pending_units(self):
        from parlab import ActionToken, CreateAgentAction, SubagentProfile

        _, env = self._env(n_items=10)
        env.step(CreateAgentAction(SubagentProfile("worker", "w")))
        action = decode_action(ActionToken("ASSIGN_3", "assign", group_size=3), env)
        assert isinstance(action, AssignGroupAction)
        sizes = sorted(len(a.unit_ids) for a in action.assignments)
        assert sizes == [3, 3, 4]
        assert all(a.agent_name == "worker" for a in action.assignments)

    def test_tool_token_targets_an_unresolved_unit(self):
        spec, env = self._env()
        action = decode_action(TINY_VOCAB[0], env)
        assert isinstance(action, ToolCallAction)
        assert action.call.args["key"] in spec.ground_truth.wide.items

    def test_tool_token_with_nothing_pending_is_noop(self):
        from parlab import CreateAgentAction, SubagentProfile, SubtaskAssignment

        spec, env = self._env(n_items=2)
        env.step(CreateAgentAction(SubagentProfile("w", "w")))
        env.step(AssignGroupAction((
            SubtaskAssignment("w", tuple(spec.ground_truth.wide.items), seed=0),
        )))
        assert isinstance(decode_action(TINY_VOCAB[0], env), NoOpAction)

    def test_finish_token_decodes_to_finish(self):
        _, env = self._env()
        assert isinstance(decode_action(TINY_VOCAB[3], env), FinishAction)

    def test_unknown_template_is_noop(self):
        from parlab import ActionToken

        _, env = self._env()
        token = ActionToken("CREATE_WIZARD", "create", arg="wizard")
        assert isinstance(decode_action(token, env), NoOpAction)


class TestRollout:
    def test_identical_inputs_give_byte_identical_traces(self):
        spec = gen_wide_search(3, n_items=4, sources_per_item=1, limits=SMALL_LIMITS)
        a = rollout_episode(zero_params(), spec, TINY_VOCAB, seed=21)
        b = rollout_episode(zero_params(), spec, TINY_VOCAB, seed=21)
        assert canonical_dumps(trace_to_record(a, TINY_VOCAB)) == canonical_dumps(
            trace_to_record(b, TINY_VOCAB)
        )

    def test_finish_biased_policy_stops_at_one_token(self):
        weights = np.zeros((len(TINY_VOCAB), FEATURE_DIM))
        weights[3, 0] = 50.0
        spec = gen_wide_search(3, n_items=4, sources_per_item=1, limits=SMALL_LIMITS)
        trace = rollout_episode(PolicyParams(weights), spec, TINY_VOCAB, seed=0)
        assert len(trace.tokens) == 1
        assert trace.terminal_flag == "finished"

    def test_token_cap_flags_never_finishing_policy(self):
        weights = np.zeros((len(TINY_VOCAB), FEATURE_DIM))
        weights[0, 0] = 50.0
        spec = gen_wide_search(3, n_items=40, sources_per_item=2,
                               limits=StepLimits(100, 100, 100))
        trace = rollout_episode(PolicyParams(weights), spec, TINY_VOCAB, seed=0,
                                max_tokens=5)
        assert len(trace.tokens) == 5
        assert trace.terminal_flag == "token_cap"

    def test_recorded_logprobs_match_generating_policy(self):
        rng = np.random.default_rng(11)
        params = PolicyParams(rng.standard_normal((len(TINY_VOCAB), FEATURE_DIM)))
        spec = gen_wide_search(3, n_items=4, sources_per_item=1, limits=SMALL_LIMITS)
        trace = rollout_episode(params, spec, TINY_VOCAB, seed=4)
        for tok in trace.tokens:
            recomputed = action_logprobs(params, np.array(tok.features))[tok.index]
            assert abs(recomputed - tok.behavior_logprob) <= 1e-12

    def test_forced_prefix_reproduces_the_original(self):
        spec = gen_wide_search(3, n_items=4, sources_per_item=1, limits=SMALL_LIMITS)
        original = rollout_episode(zero_params(), spec, TINY_VOCAB, seed=8)
        prefix = tuple(tok.index for tok in original.tokens[:2])
        resumed = rollout_episode(zero_params(), spec, TINY_VOCAB, seed=8,
                                  forced_prefix=prefix)
        assert [t.index for t in resumed.tokens] == [t.index for t in original.tokens]
        assert resumed.terminal_flag == original.terminal_flag

    def test_stop_after_marks_partial(self):
        weights = np.zeros((len(TINY_VOCAB), FEATURE_DIM))
        weights[3, 0] = -50.0
        spec = gen_wide_search(3, n_items=4, sources_per_item=1, limits=SMALL_LIMITS)
        trace = rollout_episode(PolicyParams(weights), spec, TINY_VOCAB, seed=8,
                                stop_after=2)
        assert trace.partial is True
        assert trace.terminal_flag == ""
        assert len(trace.tokens) == 2

    def test_token_budget_never_exceeded(self):
        spec = gen_wide_search(3, n_items=6, sources_per_item=2, limits=SMALL_LIMITS)
        for seed in range(20):
            trace = rollout_episode(zero_params(), spec, TINY_VOCAB, seed=seed)
            assert len(trace.tokens) <= spec.limits.max_tokens


def sequential_rollout(params, task, vocab, seed, max_tokens=None,
                       forced_prefix=(), stop_after=None):
    """Reference: one episode on its own, one ``W @ x`` policy evaluation per
    token."""
    cap = task.limits.max_tokens if max_tokens is None else max_tokens
    env, obs = reset(task, seed)
    trace = EpisodeTrace(task=task, episode_seed=seed, params_hash=params.params_hash())
    rng = random.Random(0)
    while not env.done and len(trace.tokens) < cap:
        if stop_after is not None and len(trace.tokens) >= stop_after:
            trace.partial = True
            break
        features = featurize(obs, task)
        position = len(trace.tokens)
        logits = params.weights @ features
        logits = logits - logits.max()
        exp = np.exp(logits)
        total = exp.sum()
        dist = exp / total
        if position < len(forced_prefix):
            index = forced_prefix[position]
            logprob = float(logits[index] - np.log(total))
        else:
            rng.seed(derive_seed("token", seed, position))
            index, logprob = sample_action(dist, rng)
        token = vocab[index]
        obs, _ = env.step(decode_action(token, env))
        trace.tokens.append(TokenRecord(
            index, token.name, logprob, tuple(features.tolist()),
            Softmax(dist, logits, total),
        ))
    if not env.done and not trace.partial:
        env.force_terminate("token_cap")
    trace.stages = list(env.stages)
    trace.terminal_flag = env.terminal_flag
    trace.final_answer = env.final_answer
    return trace


def token_bytes(tok):
    return (
        tok.index,
        tok.name,
        float.hex(tok.behavior_logprob),
        np.array(tok.features).tobytes(),
        tok.softmax.probs.tobytes(),
        tok.softmax.logits.tobytes(),
        np.float64(tok.softmax.total).tobytes(),
    )


def trace_bytes(trace):
    return (
        [token_bytes(tok) for tok in trace.tokens],
        trace.stages,
        trace.terminal_flag,
        trace.final_answer,
        trace.partial,
        trace.episode_seed,
        trace.params_hash,
    )


FAMILIES = (gen_wide_search, gen_deep_search, gen_batch_download)

jobs_strategy = st.lists(
    st.tuples(
        st.sampled_from(FAMILIES),
        st.integers(0, 10_000),
        st.tuples(st.integers(1, 4), st.integers(1, 3)),
        st.sampled_from([SMALL_LIMITS, None]),
    ),
    min_size=1,
    max_size=5,
)


class TestLockstepRollout:
    """Stepping episodes together changes no byte of any of them."""

    @settings(max_examples=100, deadline=None)
    @given(
        jobs=jobs_strategy,
        vocab_rows=st.lists(st.integers(0, 8), min_size=2, max_size=9, unique=True),
        weight_seed=st.integers(0, 10_000),
        scale=st.sampled_from([0.0, 0.5, 3.0]),
        max_tokens=st.sampled_from([None, None, None, 1, 6]),
    )
    def test_lockstep_equals_sequential(self, jobs, vocab_rows, weight_seed, scale,
                                        max_tokens):
        full = default_vocabulary()
        vocab = tuple(full[i] for i in sorted(vocab_rows))
        rng = np.random.default_rng(weight_seed)
        params = PolicyParams(scale * rng.standard_normal((len(vocab), FEATURE_DIM)))
        specs = [
            (family(seed, *size, limits=limits), derive_seed("episode", seed, k))
            for k, (family, seed, size, limits) in enumerate(jobs)
        ]
        traces = rollout_episodes(params, vocab, specs, max_tokens=max_tokens)
        assert len(traces) == len(specs)
        for (task, seed), trace in zip(specs, traces):
            reference = sequential_rollout(params, task, vocab, seed, max_tokens)
            assert trace_bytes(trace) == trace_bytes(reference)

    @settings(max_examples=30, deadline=None)
    @given(
        job=jobs_strategy.map(lambda jobs: jobs[0]),
        weight_seed=st.integers(0, 10_000),
        scale=st.sampled_from([0.0, 0.5, 3.0]),
        prefix=st.lists(st.integers(0, len(TINY_VOCAB) - 1), max_size=6),
        stop_after=st.one_of(st.none(), st.integers(0, 8)),
    )
    def test_one_job_with_forced_prefix_equals_sequential(
        self, job, weight_seed, scale, prefix, stop_after,
    ):
        family, seed, size, limits = job
        task = family(seed, *size, limits=limits)
        rng = np.random.default_rng(weight_seed)
        params = PolicyParams(scale * rng.standard_normal((len(TINY_VOCAB), FEATURE_DIM)))
        options = dict(forced_prefix=tuple(prefix), stop_after=stop_after)
        trace = rollout_episode(params, task, TINY_VOCAB, seed, **options)
        reference = sequential_rollout(params, task, TINY_VOCAB, seed, **options)
        assert trace_bytes(trace) == trace_bytes(reference)
        assert trace_bytes(
            rollout_episodes(params, TINY_VOCAB, [(task, seed)], **options)[0]
        ) == trace_bytes(reference)


class TestVocabulary:
    def test_manifest_round_trips(self):
        vocab = default_vocabulary()
        rebuilt = tuple(token_from_dict(d) for d in vocabulary_manifest(vocab))
        assert rebuilt == vocab

    def test_gradient_of_logprob_matches_numeric(self):
        rng = np.random.default_rng(2)
        params = PolicyParams(rng.standard_normal((4, FEATURE_DIM)))
        features = rng.standard_normal(FEATURE_DIM)
        index = 2
        analytic = grad_logprob(params, features, index)
        eps = 1e-6
        numeric = np.zeros_like(params.weights)
        for r in range(params.weights.shape[0]):
            for c in range(params.weights.shape[1]):
                up = params.weights.copy()
                up[r, c] += eps
                dn = params.weights.copy()
                dn[r, c] -= eps
                numeric[r, c] = (
                    action_logprobs(PolicyParams(up), features)[index]
                    - action_logprobs(PolicyParams(dn), features)[index]
                ) / (2 * eps)
        assert np.max(np.abs(analytic - numeric)) <= 1e-5
