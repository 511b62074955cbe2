"""Environment behavior: tools, sub-agent simulation, budgets, termination."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parlab import (
    AGENT_TEMPLATES,
    AssignGroupAction,
    CreateAgentAction,
    EpisodeDoneError,
    FinishAction,
    InvalidParameterError,
    InvalidSpecError,
    InvalidSubtaskError,
    NoOpAction,
    StepCostModel,
    StepLimits,
    SubagentProfile,
    SubtaskAssignment,
    TaskKind,
    ToolCall,
    ToolCallAction,
    decode_action,
    default_vocabulary,
    derive_assignment_seed,
    gen_batch_download,
    gen_deep_search,
    gen_wide_search,
    reset,
    task_spec_from_json,
    task_spec_to_json,
)


def worker(name="worker", competence=1.0, **cost_kwargs) -> SubagentProfile:
    return SubagentProfile(
        name=name,
        system_prompt="resolve assigned units",
        competence=competence,
        cost_model=StepCostModel(**cost_kwargs),
    )


def assignment_over(spec, n_units, seed=0, agent="worker") -> SubtaskAssignment:
    units = tuple(list(spec.ground_truth.wide.items)[:n_units])
    return SubtaskAssignment(agent_name=agent, unit_ids=units, seed=seed)


class TestReset:
    def test_fresh_observation_exposes_full_budgets(self):
        spec = gen_wide_search(0, n_items=6, sources_per_item=1)
        _, obs = reset(spec, seed=0)
        assert obs.remaining_orchestrator_steps == spec.limits.orchestrator_max_steps
        assert obs.remaining_tokens == spec.limits.max_tokens
        assert obs.unresolved_units == obs.total_units == 6
        assert obs.live_agents == 0

    def test_reset_is_deterministic(self):
        spec = gen_wide_search(0, n_items=6, sources_per_item=1)
        _, a = reset(spec, seed=3)
        _, b = reset(spec, seed=3)
        assert a == b

    def test_corrupted_spec_rejected(self):
        spec = gen_wide_search(1, n_items=4, sources_per_item=1)
        broken = task_spec_from_json(
            task_spec_to_json(spec).replace('"n_items":4', '"n_items":9')
        )
        with pytest.raises(InvalidSpecError):
            reset(broken, seed=0)


class TestTools:
    def test_fetch_resolves_after_required_sources(self):
        spec = gen_wide_search(5, n_items=3, sources_per_item=2)
        env, _ = reset(spec, seed=0)
        key = next(
            k for k, req in spec.ground_truth.wide.fetches_required.items() if req == 2
        )
        first = env.exec_tool(ToolCall("fetch", {"key": key}))
        assert first.found and "pending" in first.data
        second = env.exec_tool(ToolCall("fetch", {"key": key}))
        assert second.data["value"] == spec.ground_truth.wide.items[key]

    def test_search_without_match_is_found_false(self):
        spec = gen_wide_search(5, n_items=3, sources_per_item=1)
        env, _ = reset(spec, seed=0)
        result = env.exec_tool(ToolCall("search", {"query": "no-such-key"}))
        assert result.found is False
        assert result.data["keys"] == []

    def test_search_lists_matching_keys(self):
        spec = gen_wide_search(5, n_items=3, sources_per_item=1)
        env, _ = reset(spec, seed=0)
        result = env.exec_tool(ToolCall("search", {"query": ""}))
        assert sorted(result.data["keys"]) == sorted(spec.ground_truth.wide.items)

    def test_download_acquires_after_cumulative_cost(self):
        spec = gen_batch_download(2, n_files=1, file_cost=3)
        env, _ = reset(spec, seed=0)
        file_id = next(iter(spec.ground_truth.batch.files))
        for i in range(1, 3):
            partial = env.exec_tool(ToolCall("download", {"file_id": file_id}))
            assert partial.data["acquired"] is False, i
        final = env.exec_tool(ToolCall("download", {"file_id": file_id}))
        assert final.data["acquired"] is True

    def test_deep_chain_requires_order(self):
        spec = gen_deep_search(6, depth=3, branching=1)
        env, _ = reset(spec, seed=0)
        nodes = spec.ground_truth.deep.branches[0].nodes
        blocked = env.exec_tool(ToolCall("fetch", {"key": nodes[2]}))
        assert blocked.found is False
        for node in nodes:
            result = env.exec_tool(ToolCall("fetch", {"key": node}))
            assert result.found
        assert result.data["value"] == spec.ground_truth.deep.branches[0].value

    def test_identical_call_sequences_produce_identical_results(self):
        spec = gen_wide_search(5, n_items=4, sources_per_item=2)
        calls = [ToolCall("fetch", {"key": k}) for k in spec.ground_truth.wide.items]
        outs = []
        for _ in range(2):
            env, _ = reset(spec, seed=9)
            outs.append([env.exec_tool(c).to_dict() for c in calls])
        assert outs[0] == outs[1]


class TestSubagents:
    def test_unit_cost_run_uses_one_step_per_unit(self):
        spec = gen_wide_search(8, n_items=5, sources_per_item=1)
        env, _ = reset(spec, seed=0)
        result = env.run_subagent(worker(), assignment_over(spec, 5))
        assert result.finished is True
        assert result.steps_used == 5
        assert len(result.payload) == 5

    def test_step_limit_caps_work(self):
        spec = gen_wide_search(8, n_items=120, sources_per_item=1,
                               limits=StepLimits(100, 100, 100))
        env, _ = reset(spec, seed=0)
        result = env.run_subagent(worker(), assignment_over(spec, 120))
        assert result.finished is False
        assert result.steps_used == 100

    def test_unknown_units_rejected(self):
        spec = gen_wide_search(8, n_items=3, sources_per_item=1)
        env, _ = reset(spec, seed=0)
        bogus = SubtaskAssignment("worker", ("missing-unit",), seed=0)
        with pytest.raises(InvalidSubtaskError):
            env.run_subagent(worker(), bogus)

    def test_result_is_frozen_given_profile_assignment_seed(self):
        spec = gen_wide_search(8, n_items=10, sources_per_item=1)
        env, _ = reset(spec, seed=0)
        task = assignment_over(spec, 10, seed=77)
        flaky = worker(competence=0.4)
        results = {json.dumps(env.run_subagent(flaky, task).payload, sort_keys=True)
                   for _ in range(20)}
        assert len(results) == 1

    def test_half_competence_matches_monte_carlo_mean(self):
        # Unit cost 1 makes the per-unit completion probability exactly the
        # per-step competence, so the empirical mean over many launch seeds
        # must sit within two points of 0.5.
        spec = gen_wide_search(8, n_items=10, sources_per_item=1)
        env, _ = reset(spec, seed=0)
        profile = worker(competence=0.5)
        units = tuple(spec.ground_truth.wide.items)
        total = sum(
            len(env.run_subagent(
                profile, SubtaskAssignment("worker", units, seed=s)
            ).payload)
            for s in range(10_000)
        )
        assert abs(total / 100_000 - 0.5) <= 0.02

    def test_startup_cost_is_paid_once(self):
        spec = gen_wide_search(8, n_items=4, sources_per_item=1)
        env, _ = reset(spec, seed=0)
        result = env.run_subagent(worker(startup_steps=3), assignment_over(spec, 4))
        assert result.steps_used == 7

    def test_empty_assignment_never_finishes(self):
        spec = gen_wide_search(8, n_items=4, sources_per_item=1)
        env, _ = reset(spec, seed=0)
        result = env.run_subagent(worker(), SubtaskAssignment("worker", (), seed=0))
        assert result.finished is False
        assert result.payload == {}


class TestParallelGroups:
    def _env_with_worker(self, n_items=13):
        spec = gen_wide_search(4, n_items=n_items, sources_per_item=1)
        env, _ = reset(spec, seed=0)
        env.step(CreateAgentAction(worker()))
        return spec, env

    def _group(self, spec, sizes, agent="worker"):
        units = list(spec.ground_truth.wide.items)
        groups, start = [], 0
        for index, size in enumerate(sizes):
            groups.append(
                SubtaskAssignment(
                    agent_name=agent,
                    unit_ids=tuple(units[start:start + size]),
                    seed=derive_assignment_seed(0, 1, index),
                )
            )
            start += size
        return groups

    def test_stage_records_per_agent_step_vector(self):
        spec, env = self._env_with_worker()
        env.run_parallel_group(self._group(spec, [4, 2, 7]))
        stage = env.stages[-1]
        assert stage.sub_steps == (4, 2, 7)
        assert stage.assigned == 3
        assert stage.completed == 3

    def test_results_keep_assignment_order(self):
        spec, env = self._env_with_worker()
        group = self._group(spec, [1, 5, 2, 5])
        results = env.run_parallel_group(group)
        assert [r.steps_used for r in results] == [1, 5, 2, 5]

    def test_empty_group_rejected(self):
        _, env = self._env_with_worker()
        with pytest.raises(InvalidParameterError):
            env.run_parallel_group([])

    def test_unknown_agent_becomes_failed_result_not_abort(self):
        spec, env = self._env_with_worker()
        group = self._group(spec, [2, 2])
        group[1] = SubtaskAssignment("ghost", group[1].unit_ids, group[1].seed)
        results = env.run_parallel_group(group)
        assert results[0].finished is True
        assert results[1].finished is False and "ghost" in results[1].error
        assert env.done is False

    def test_context_grows_by_summaries_not_internal_steps(self):
        spec, env = self._env_with_worker()
        before = env.context_tokens
        results = env.run_parallel_group(self._group(spec, [4, 2, 7]))
        routed = sum(r.summary_tokens for r in results)
        growth = env.context_tokens - before
        assert growth == env.constants.tokens_per_action_overhead + routed
        assert growth < sum(r.steps_used for r in results) * \
            env.constants.tokens_per_subagent_step


class TestTermination:
    def test_finish_terminates_with_submitted_answer(self):
        spec = gen_wide_search(3, n_items=2, sources_per_item=1)
        env, _ = reset(spec, seed=0)
        for key in spec.ground_truth.wide.items:
            env.step(ToolCallAction(ToolCall("fetch", {"key": key})))
        _, done = env.step(FinishAction())
        assert done and env.terminal_flag == "finished"
        assert env.final_answer == spec.ground_truth.wide.items

    def test_budget_exhaustion_submits_partial_progress(self):
        spec = gen_wide_search(3, n_items=5, sources_per_item=1,
                               limits=StepLimits(2, 50, 50))
        env, _ = reset(spec, seed=0)
        keys = list(spec.ground_truth.wide.items)
        env.step(ToolCallAction(ToolCall("fetch", {"key": keys[0]})))
        _, done = env.step(ToolCallAction(ToolCall("fetch", {"key": keys[1]})))
        assert done and env.terminal_flag == "budget_exhausted"
        assert set(env.final_answer) == set(keys[:2])

    def test_step_after_done_is_an_error(self):
        spec = gen_wide_search(3, n_items=2, sources_per_item=1)
        env, _ = reset(spec, seed=0)
        env.step(FinishAction())
        with pytest.raises(EpisodeDoneError):
            env.step(FinishAction())

    def test_duplicate_create_is_a_recorded_failure(self):
        spec = gen_wide_search(3, n_items=2, sources_per_item=1)
        env, _ = reset(spec, seed=0)
        profile = AGENT_TEMPLATES["worker"].build_profile("worker")
        env.step(CreateAgentAction(profile))
        env.step(CreateAgentAction(profile))
        assert len(env.profiles) == 1
        assert env.stages[-1].note == "create_agent:duplicate"

    def test_noop_actions_still_cost_a_step(self):
        spec = gen_wide_search(3, n_items=2, sources_per_item=1)
        env, _ = reset(spec, seed=0)
        before = env.steps_used
        env.step(NoOpAction("nothing to do"))
        assert env.steps_used == before + 1

    def test_assign_group_counts_one_main_step(self):
        spec = gen_wide_search(4, n_items=6, sources_per_item=1)
        env, _ = reset(spec, seed=0)
        env.step(CreateAgentAction(worker()))
        units = tuple(spec.ground_truth.wide.items)
        env.step(AssignGroupAction((
            SubtaskAssignment("worker", units[:3], seed=1),
            SubtaskAssignment("worker", units[3:], seed=2),
        )))
        assert env.stages[-1].main_steps == 1
        assert env.steps_used == 2

    def test_force_terminate_keeps_collected_answer(self):
        spec = gen_batch_download(5, n_files=2, file_cost=1)
        env, _ = reset(spec, seed=0)
        file_id = next(iter(spec.ground_truth.batch.files))
        env.step(ToolCallAction(ToolCall("download", {"file_id": file_id})))
        env.force_terminate("token_cap")
        assert env.done and env.terminal_flag == "token_cap"
        assert env.final_answer == [file_id]


def reference_pending(env) -> list[str]:
    """The rescanning rule the maintained sets replace: unresolved units sorted
    by (progress == 0, position in sorted unit order)."""
    truth = env.task.ground_truth
    if env.task.kind is TaskKind.WIDE_SEARCH:
        order = sorted(truth.wide.items)
        progress, resolved = env._fetch_progress, env._resolved
    elif env.task.kind is TaskKind.DEEP_SEARCH:
        order = sorted(b.nodes[0] for b in truth.deep.branches)
        progress, resolved = env._walked, env._branch_values
    else:
        order = sorted(truth.batch.files)
        progress, resolved = env._download_progress, env._acquired
    pending = [u for u in order if u not in resolved]
    return sorted(pending, key=lambda u: (progress[u] == 0, order.index(u)))


def direct_call(spec, unit_index: int, node_index: int) -> ToolCallAction:
    """A tool call aimed at any unit, resolved or not, which decoding never
    emits: it walks deep branches a sub-agent has already merged."""
    truth = spec.ground_truth
    if spec.kind is TaskKind.WIDE_SEARCH:
        units = sorted(truth.wide.items)
        return ToolCallAction(ToolCall("fetch", {"key": units[unit_index % len(units)]}))
    if spec.kind is TaskKind.DEEP_SEARCH:
        nodes = truth.deep.branches[unit_index % len(truth.deep.branches)].nodes
        return ToolCallAction(ToolCall("fetch", {"key": nodes[node_index % len(nodes)]}))
    files = sorted(truth.batch.files)
    return ToolCallAction(ToolCall("download", {"file_id": files[unit_index % len(files)]}))


@st.composite
def small_tasks(draw):
    limits = StepLimits(
        orchestrator_max_steps=200,
        subagent_max_steps=draw(st.integers(1, 30)),
        max_tokens=200,
    )
    seed = draw(st.integers(0, 10_000))
    units = draw(st.integers(1, 40))
    family = draw(st.sampled_from(list(TaskKind)))
    if family is TaskKind.WIDE_SEARCH:
        return gen_wide_search(seed, units, draw(st.integers(1, 3)), limits=limits)
    if family is TaskKind.DEEP_SEARCH:
        return gen_deep_search(seed, draw(st.integers(1, 4)), units, limits=limits)
    return gen_batch_download(seed, units, draw(st.integers(1, 3)), limits=limits)


# FINISH would only cut the stream short; it changes no unit.
VOCAB = tuple(t for t in default_vocabulary() if t.kind != "finish")

moves = st.one_of(
    st.tuples(st.just("token"), st.integers(0, len(VOCAB) - 1), st.just(0)),
    st.tuples(st.just("direct"), st.integers(0, 39), st.integers(0, 3)),
)


class TestPendingUnits:
    @settings(max_examples=150, deadline=None)
    @given(small_tasks(), st.lists(moves, min_size=20, max_size=80))
    def test_maintained_sets_match_the_rescan(self, spec, stream):
        env, obs = reset(spec, seed=0)
        assert env.pending_units() == reference_pending(env)
        assert obs.unresolved_units == len(env.pending_units())
        for move, a, b in stream:
            if env.done:
                break
            if move == "token":
                action = decode_action(VOCAB[a], env)
            else:
                action = direct_call(spec, a, b)
            obs, _ = env.step(action)
            assert env.pending_units() == reference_pending(env)
            assert obs.unresolved_units == len(env.pending_units())

    def test_walk_past_a_merged_branch_stays_resolved(self):
        spec = gen_deep_search(3, depth=3, branching=3)
        env, _ = reset(spec, seed=0)
        branch = spec.ground_truth.deep.branches[0]
        root = branch.nodes[0]
        env.step(ToolCallAction(ToolCall("fetch", {"key": root})))
        assert env.pending_units()[0] == root
        env.step(CreateAgentAction(worker()))
        env.step(AssignGroupAction((SubtaskAssignment("worker", (root,), seed=0),)))
        assert root not in env.pending_units()
        for node in branch.nodes[1:]:
            obs, _ = env.step(ToolCallAction(ToolCall("fetch", {"key": node})))
            assert root not in env.pending_units()
            assert obs.unresolved_units == len(env.pending_units()) == 2
