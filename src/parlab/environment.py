"""Episodic swarm environment.

The environment owns the hidden ground truth and exposes a small Gym-like
surface: ``reset`` builds a fresh episode, ``step`` applies one orchestrator
action and appends one stage record. Orchestrator actions are direct tool
calls, sub-agent profile creation, parallel assignment groups, or finishing.

Sub-agents are scripted stochastic solvers, frozen by construction: given a
profile, an assignment and a seed their result never changes and never depends
on the orchestrator's parameters. Only the token counts of result summaries
are charged to the orchestrator's context; a sub-agent's internal step count
inflates its own context ledger, not the orchestrator's.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .errors import (
    EpisodeDoneError,
    InvalidParameterError,
    InvalidSubtaskError,
)
from .metrics import ContextConstants, StageRecord
from .seeding import derive_seed
from .task_gen import TaskKind, TaskSpec, combine_leaves, validate_task_spec

# Wire schemas for the two orchestration tools. Parameter field names are the
# interface contract: profile creation carries (name, system_prompt), task
# dispatch carries (agent, prompt).
CREATE_SUBAGENT_SCHEMA = {
    "name": "create_subagent",
    "description": "Create a custom subagent with specific system prompt and name for reuse.",
    "parameters": {
        "type": "object",
        "properties": {
            "name": {
                "type": "string",
                "description": "Unique name for this agent configuration",
            },
            "system_prompt": {
                "type": "string",
                "description": "System prompt defining the agent's role, capabilities, and boundaries",
            },
        },
        "required": ["name", "system_prompt"],
    },
}

ASSIGN_TASK_SCHEMA = {
    "name": "assign_task",
    "description": (
        "Launch a new agent.\n"
        "Usage notes:\n"
        "1. You can launch multiple agents concurrently whenever possible, "
        "to maximize performance;\n"
        "2. When the agent is done, it will return a single message back to you."
    ),
    "parameters": {
        "type": "object",
        "properties": {
            "agent": {
                "type": "string",
                "description": "Specify which created agent to use.",
            },
            "prompt": {
                "type": "string",
                "description": "The task for the agent to perform",
            },
        },
        "required": ["agent", "prompt"],
    },
}

TOOL_SCHEMAS = (CREATE_SUBAGENT_SCHEMA, ASSIGN_TASK_SCHEMA)


# --- tool layer ---------------------------------------------------------------


@dataclass(frozen=True)
class ToolCall:
    tool: str  # one of: search, fetch, download
    args: dict[str, str]

    def to_dict(self) -> dict:
        return {"tool": self.tool, "args": dict(self.args)}


@dataclass(frozen=True)
class ToolResult:
    tool: str
    found: bool
    data: dict
    summary: str
    summary_tokens: int

    def to_dict(self) -> dict:
        return {
            "tool": self.tool,
            "found": self.found,
            "data": dict(self.data),
            "summary": self.summary,
            "summary_tokens": self.summary_tokens,
        }


# --- sub-agents ---------------------------------------------------------------


@dataclass(frozen=True)
class StepCostModel:
    """Maps a work unit's intrinsic cost to the steps a sub-agent spends on it.

    ``steps = round(intrinsic * cost_multiplier) + U{0..jitter}``, at least 1.
    ``startup_steps`` is paid once per assignment before any unit is attempted.
    """

    cost_multiplier: float = 1.0
    jitter: int = 0
    startup_steps: int = 0

    def draw_unit_steps(self, intrinsic_cost: int, rng: random.Random) -> int:
        base = max(1, int(intrinsic_cost * self.cost_multiplier + 0.5))
        if self.jitter > 0:
            base += rng.randint(0, self.jitter)
        return base


@dataclass(frozen=True)
class SubagentProfile:
    """Frozen worker configuration.

    ``competence`` is the per-step success probability: a work unit completes
    only if every step of its attempt succeeds, so a unit costing ``s`` steps
    completes with probability ``competence ** s``.
    """

    name: str
    system_prompt: str
    competence: float = 1.0
    cost_model: StepCostModel = field(default_factory=StepCostModel)

    def __post_init__(self) -> None:
        if not 0.0 < self.competence <= 1.0:
            raise InvalidParameterError("competence must be in (0, 1]")


@dataclass(frozen=True)
class AgentTemplate:
    system_prompt: str
    competence: float = 1.0
    cost_model: StepCostModel = field(default_factory=StepCostModel)

    def build_profile(self, name: str) -> SubagentProfile:
        return SubagentProfile(
            name=name,
            system_prompt=self.system_prompt,
            competence=self.competence,
            cost_model=self.cost_model,
        )


AGENT_TEMPLATES: dict[str, AgentTemplate] = {
    "worker": AgentTemplate(
        system_prompt=(
            "You are a focused worker agent. Resolve every unit assigned to you "
            "and report only the resolved results."
        ),
    ),
    "flaky": AgentTemplate(
        system_prompt=(
            "You are a fast but unreliable worker agent. Attempt every unit "
            "assigned to you and report whatever you manage to resolve."
        ),
        competence=0.3,
    ),
}


@dataclass(frozen=True)
class SubtaskAssignment:
    """One sub-agent launch: which profile, which subset of work units, and the
    seed that drives its simulated execution."""

    agent_name: str
    unit_ids: tuple[str, ...]
    seed: int


@dataclass(frozen=True)
class SubtaskResult:
    agent_name: str
    steps_used: int
    finished: bool
    payload: dict[str, str]
    summary_tokens: int
    error: str = ""


# --- actions -------------------------------------------------------------------


@dataclass(frozen=True)
class ToolCallAction:
    call: ToolCall


@dataclass(frozen=True)
class CreateAgentAction:
    profile: SubagentProfile


@dataclass(frozen=True)
class AssignGroupAction:
    assignments: tuple[SubtaskAssignment, ...]


@dataclass(frozen=True)
class FinishAction:
    """Submit the answer assembled from everything collected so far."""


@dataclass(frozen=True)
class NoOpAction:
    """A decoded action that cannot be applied (e.g. assignment with no agents).

    It still consumes a stage: spurious actions are not free.
    """

    reason: str


Action = ToolCallAction | CreateAgentAction | AssignGroupAction | FinishAction | NoOpAction


# --- observations ---------------------------------------------------------------


@dataclass(frozen=True)
class Observation:
    """What the orchestrator sees: budget and progress counters only. Of a
    sub-agent's work, only its assigned and completed counts come back; its
    internal trace never does (context sharding)."""

    remaining_orchestrator_steps: int
    remaining_tokens: int
    unresolved_units: int
    total_units: int
    live_agents: int
    last_assigned: int
    last_completed: int


# --- environment -----------------------------------------------------------------


class SwarmEnv:
    """State of one episode. Owned by exactly one rollout at a time, though a
    lockstep rollout steps many episodes side by side, each with its own env.

    The record of what happened is ``stages`` alone; ``context_tokens`` only
    counts the tokens routed back to the orchestrator, and no summary text is
    kept.

    Invariant: every unresolved unit is in exactly one of ``_fresh`` (no
    progress yet, kept in unit order) or ``_started`` (progress > 0), and no
    resolved unit is in either. Units only ever leave ``_fresh``. The sites
    that change a unit's progress or resolution keep it: ``_fetch`` (wide
    progress and resolve, deep walk and leaf), ``_download`` and
    ``_merge_payload``, through ``_mark_started`` and ``_mark_resolved``.
    """

    def __init__(self, task: TaskSpec, seed: int, constants: ContextConstants | None = None):
        validate_task_spec(task)
        self.task = task
        self.seed = seed
        self.constants = constants or ContextConstants()
        self.profiles: dict[str, SubagentProfile] = {}
        self.stages: list[StageRecord] = []
        self.steps_used = 0
        self.context_tokens = 0
        self.done = False
        self.terminal_flag = ""
        self.final_answer: object | None = None
        self._last_assigned = 0
        self._last_completed = 0

        # Unit order is sorted, not insertion order: ground-truth mappings may
        # round-trip through JSON with re-sorted keys, and replay must see the
        # exact same order the original episode saw.
        gt = task.ground_truth
        if task.kind is TaskKind.WIDE_SEARCH:
            self._unit_order = sorted(gt.wide.items)
            self._fetch_progress = {k: 0 for k in self._unit_order}
            self._resolved: dict[str, str] = {}
        elif task.kind is TaskKind.DEEP_SEARCH:
            self._branches = {b.nodes[0]: b for b in gt.deep.branches}
            self._unit_order = sorted(b.nodes[0] for b in gt.deep.branches)
            self._walked = {root: 0 for root in self._unit_order}
            self._node_to_root = {
                node: b.nodes[0] for b in gt.deep.branches for node in b.nodes
            }
            self._branch_values: dict[str, str] = {}
        else:
            self._unit_order = sorted(gt.batch.files)
            self._download_progress = {f: 0 for f in self._unit_order}
            self._acquired: set[str] = set()
        self._position = {unit: i for i, unit in enumerate(self._unit_order)}
        self._fresh: dict[str, None] = dict.fromkeys(self._unit_order)
        self._started: dict[str, None] = {}

    def _mark_started(self, unit_id: str) -> None:
        # A resolved unit has already left ``_fresh``, so progress made after
        # resolution (a deep walk past a merged branch) never re-adds it.
        if unit_id in self._fresh:
            del self._fresh[unit_id]
            self._started[unit_id] = None

    def _mark_resolved(self, unit_id: str) -> None:
        self._fresh.pop(unit_id, None)
        self._started.pop(unit_id, None)

    # -- views ------------------------------------------------------------------

    def pending_units(self) -> list[str]:
        """Unresolved unit ids, in-progress units first, then generation order."""
        return sorted(self._started, key=self._position.__getitem__) + list(self._fresh)

    def unit_cost_for_subagent(self, unit_id: str) -> int:
        """Intrinsic steps a fresh sub-agent needs for one unit.

        Download progress lives server-side and persists across agents, so a
        partially downloaded file only costs its remainder. Fetch chains are
        context knowledge and do not transfer to a sub-agent's fresh context.
        """
        if self.task.kind is TaskKind.WIDE_SEARCH:
            return self.task.ground_truth.wide.fetches_required[unit_id]
        if self.task.kind is TaskKind.DEEP_SEARCH:
            return self.task.params["depth"]
        cost = self.task.ground_truth.batch.files[unit_id]
        return cost - self._download_progress[unit_id]

    def tool_call_for_unit(self, tool: str, unit_id: str) -> ToolCall | None:
        """Concrete call advancing ``unit_id`` by one step, or None if the tool
        does not apply to this task family."""
        kind = self.task.kind
        if tool == "search":
            return ToolCall("search", {"query": ""})
        if tool == "fetch" and kind is TaskKind.WIDE_SEARCH:
            return ToolCall("fetch", {"key": unit_id})
        if tool == "fetch" and kind is TaskKind.DEEP_SEARCH:
            branch = self._branches[unit_id]
            return ToolCall("fetch", {"key": branch.nodes[self._walked[unit_id]]})
        if tool == "download" and kind is TaskKind.BATCH_DOWNLOAD:
            return ToolCall("download", {"file_id": unit_id})
        return None

    def tokens_used(self) -> int:
        return len(self.stages)

    def observe(self) -> Observation:
        return Observation(
            remaining_orchestrator_steps=(
                self.task.limits.orchestrator_max_steps - self.steps_used
            ),
            remaining_tokens=self.task.limits.max_tokens - self.tokens_used(),
            unresolved_units=len(self._fresh) + len(self._started),
            total_units=len(self._unit_order),
            live_agents=len(self.profiles),
            last_assigned=self._last_assigned,
            last_completed=self._last_completed,
        )

    # -- tool simulator ------------------------------------------------------------

    def exec_tool(self, call: ToolCall) -> ToolResult:
        """Deterministic tool lookup against the ground truth.

        Pure simulator: no stage is appended and no orchestrator budget is
        consumed here; ``step`` owns that accounting. A query matching nothing
        is a valid not-found result, not an error.
        """
        if self.done:
            raise EpisodeDoneError("episode already terminated")
        if call.tool == "search":
            query = call.args.get("query", "")
            keys = [u for u in self._unit_order if query in u]
            return ToolResult(
                tool="search",
                found=bool(keys),
                data={"keys": keys},
                summary=f"search -> {len(keys)} key(s)",
                summary_tokens=1 + len(keys),
            )
        if call.tool == "fetch":
            return self._fetch(call.args.get("key", ""))
        if call.tool == "download":
            return self._download(call.args.get("file_id", ""))
        raise InvalidParameterError(f"unknown tool {call.tool!r}")

    def _fetch(self, key: str) -> ToolResult:
        kind = self.task.kind
        if kind is TaskKind.WIDE_SEARCH and key in self._fetch_progress:
            if key in self._resolved:
                value = self._resolved[key]
                return ToolResult(
                    "fetch", True, {"key": key, "value": value},
                    f"{key} = {value}", 2,
                )
            self._fetch_progress[key] += 1
            required = self.task.ground_truth.wide.fetches_required[key]
            if self._fetch_progress[key] >= required:
                value = self.task.ground_truth.wide.items[key]
                self._resolved[key] = value
                self._mark_resolved(key)
                return ToolResult(
                    "fetch", True, {"key": key, "value": value},
                    f"{key} = {value}", 2,
                )
            self._mark_started(key)
            return ToolResult(
                "fetch", True,
                {"key": key, "pending": f"{self._fetch_progress[key]}/{required}"},
                f"{key}: partial source {self._fetch_progress[key]}/{required}", 1,
            )
        if kind is TaskKind.DEEP_SEARCH and key in self._node_to_root:
            root = self._node_to_root[key]
            branch = self._branches[root]
            position = branch.nodes.index(key)
            # Dependent lookups: a node is only reachable once its predecessor
            # was fetched in this episode.
            if position != self._walked[root]:
                return ToolResult("fetch", False, {}, f"{key}: not reachable yet", 1)
            self._walked[root] += 1
            if position == len(branch.nodes) - 1:
                self._branch_values[root] = branch.value
                self._mark_resolved(root)
                return ToolResult(
                    "fetch", True, {"key": key, "value": branch.value},
                    f"branch {root} leaf = {branch.value}", 2,
                )
            self._mark_started(root)
            nxt = branch.nodes[position + 1]
            return ToolResult(
                "fetch", True, {"key": key, "next": nxt}, f"{key} -> {nxt}", 2,
            )
        return ToolResult("fetch", False, {}, f"{key}: not found", 1)

    def _download(self, file_id: str) -> ToolResult:
        if (
            self.task.kind is not TaskKind.BATCH_DOWNLOAD
            or file_id not in self._download_progress
        ):
            return ToolResult("download", False, {}, f"{file_id}: not found", 1)
        if file_id in self._acquired:
            return ToolResult(
                "download", True, {"file_id": file_id, "acquired": True},
                f"{file_id}: already acquired", 1,
            )
        self._download_progress[file_id] += 1
        cost = self.task.ground_truth.batch.files[file_id]
        if self._download_progress[file_id] >= cost:
            self._acquired.add(file_id)
            self._mark_resolved(file_id)
            return ToolResult(
                "download", True, {"file_id": file_id, "acquired": True},
                f"{file_id}: acquired", 2,
            )
        self._mark_started(file_id)
        return ToolResult(
            "download", True,
            {"file_id": file_id, "acquired": False,
             "progress": f"{self._download_progress[file_id]}/{cost}"},
            f"{file_id}: {self._download_progress[file_id]}/{cost}", 1,
        )

    # -- sub-agent simulator ---------------------------------------------------------

    def run_subagent(
        self, profile: SubagentProfile, assignment: SubtaskAssignment
    ) -> SubtaskResult:
        """Simulate one frozen sub-agent on its assigned units.

        Unit attempts are sequential: each draws its step cost from the
        profile's cost model and succeeds only if every step passes the
        competence check. The agent stops at the sub-agent step limit; units it
        could not attempt stay unresolved. Only a payload summary is returned.
        """
        for unit in assignment.unit_ids:
            if unit not in self._position:
                raise InvalidSubtaskError(
                    f"unit {unit!r} does not exist in task {self.task.task_id}"
                )
        limit = self.task.limits.subagent_max_steps
        rng = random.Random(assignment.seed)
        payload: dict[str, str] = {}
        steps_used = min(profile.cost_model.startup_steps, limit)
        if steps_used < profile.cost_model.startup_steps:
            return SubtaskResult(assignment.agent_name, limit, False, {}, 1)
        for unit in assignment.unit_ids:
            intrinsic = self.unit_cost_for_subagent(unit)
            if intrinsic <= 0:
                payload[unit] = self._unit_value(unit)
                continue
            drawn = profile.cost_model.draw_unit_steps(intrinsic, rng)
            if steps_used + drawn > limit:
                steps_used = limit
                break
            steps_used += drawn
            if rng.random() < profile.competence**drawn:
                payload[unit] = self._unit_value(unit)
        # An agent launched with nothing to do never counts as finished: that
        # is exactly the spawn-without-decomposition pattern the finish-rate
        # reward exists to punish.
        finished = bool(assignment.unit_ids) and set(payload) == set(assignment.unit_ids)
        return SubtaskResult(
            agent_name=assignment.agent_name,
            steps_used=steps_used,
            finished=finished,
            payload=payload,
            summary_tokens=1 + len(payload),
        )

    def _unit_value(self, unit_id: str) -> str:
        if self.task.kind is TaskKind.WIDE_SEARCH:
            return self.task.ground_truth.wide.items[unit_id]
        if self.task.kind is TaskKind.DEEP_SEARCH:
            return self._branches[unit_id].value
        return "acquired"

    def run_parallel_group(
        self, assignments: tuple[SubtaskAssignment, ...] | list[SubtaskAssignment]
    ) -> list[SubtaskResult]:
        """Execute a group of assignments as one stage.

        Assignments are logically concurrent: subtasks are disjoint, results
        come back in assignment order, and the outcome equals sequential
        execution in that order. Per-assignment failures (unknown agent,
        invalid subtask) become failed results without aborting the group.
        Appends the stage record and consumes one orchestrator step.
        """
        if not assignments:
            raise InvalidParameterError("assignment group must be nonempty")
        if self.done:
            raise EpisodeDoneError("episode already terminated")
        results: list[SubtaskResult] = []
        for assignment in assignments:
            profile = self.profiles.get(assignment.agent_name)
            if profile is None:
                results.append(
                    SubtaskResult(
                        assignment.agent_name, 0, False, {}, 1,
                        error=f"unknown agent {assignment.agent_name!r}",
                    )
                )
                continue
            try:
                results.append(self.run_subagent(profile, assignment))
            except InvalidSubtaskError as exc:
                results.append(
                    SubtaskResult(assignment.agent_name, 0, False, {}, 1, error=str(exc))
                )
        for result in results:
            self._merge_payload(result.payload)
        routed = sum(r.summary_tokens for r in results)
        self._last_assigned = len(results)
        self._last_completed = sum(1 for r in results if r.finished)
        self._apply_stage(
            main_steps=1,
            sub_steps=tuple(r.steps_used for r in results),
            assigned=len(results),
            completed=self._last_completed,
            result_tokens=routed,
            note="assign_group",
        )
        return results

    def _merge_payload(self, payload: dict[str, str]) -> None:
        for unit_id in payload:
            self._mark_resolved(unit_id)
        if self.task.kind is TaskKind.WIDE_SEARCH:
            self._resolved.update(payload)
        elif self.task.kind is TaskKind.DEEP_SEARCH:
            self._branch_values.update(payload)
        else:
            for file_id in payload:
                self._acquired.add(file_id)
                self._download_progress[file_id] = self.task.ground_truth.batch.files[
                    file_id
                ]

    # -- stepping ------------------------------------------------------------------

    def _apply_stage(
        self,
        main_steps: int,
        sub_steps: tuple[int, ...],
        assigned: int,
        completed: int,
        result_tokens: int,
        note: str,
    ) -> None:
        self.stages.append(
            StageRecord(
                stage_index=len(self.stages),
                main_steps=main_steps,
                sub_steps=sub_steps,
                assigned=assigned,
                completed=completed,
                result_tokens=result_tokens,
                note=note,
            )
        )
        self.context_tokens += self.constants.tokens_per_action_overhead + result_tokens
        self.steps_used += main_steps
        if not self.done and self.steps_used >= self.task.limits.orchestrator_max_steps:
            self._terminate("budget_exhausted")

    def _terminate(self, flag: str) -> None:
        self.done = True
        self.terminal_flag = flag
        self.final_answer = self.assemble_answer()

    def force_terminate(self, flag: str) -> None:
        """Terminate from outside the action loop (e.g. the sampler's token cap).

        Whatever was collected so far is still submitted as the answer.
        """
        if not self.done:
            self._terminate(flag)

    def assemble_answer(self) -> object:
        """Submission built from everything collected so far."""
        if self.task.kind is TaskKind.WIDE_SEARCH:
            return dict(self._resolved)
        if self.task.kind is TaskKind.DEEP_SEARCH:
            if not self._branch_values:
                return ""
            return combine_leaves(list(self._branch_values.values()))
        return sorted(self._acquired)

    def step(self, action: Action) -> tuple[Observation, bool]:
        """Apply one orchestrator action; every action costs one main step."""
        if self.done:
            raise EpisodeDoneError("episode already terminated")
        if isinstance(action, ToolCallAction):
            result = self.exec_tool(action.call)
            self._apply_stage(
                1, (), 0, 0, result.summary_tokens,
                note=f"tool:{action.call.tool}",
            )
        elif isinstance(action, CreateAgentAction):
            name = action.profile.name
            if name in self.profiles:
                self._apply_stage(
                    1, (), 0, 0, 1,
                    note="create_agent:duplicate",
                )
            else:
                self.profiles[name] = action.profile
                self._apply_stage(
                    1, (), 0, 0, 1,
                    note="create_agent",
                )
        elif isinstance(action, AssignGroupAction):
            self.run_parallel_group(action.assignments)
        elif isinstance(action, FinishAction):
            self._terminate("finished")
            self.stages.append(
                StageRecord(
                    stage_index=len(self.stages),
                    main_steps=1,
                    note="finish",
                )
            )
            self.context_tokens += self.constants.tokens_per_action_overhead + 1
            self.steps_used += 1
        elif isinstance(action, NoOpAction):
            self._apply_stage(
                1, (), 0, 0, 1,
                note="noop",
            )
        else:
            raise InvalidParameterError(f"unknown action type {type(action).__name__}")
        return self.observe(), self.done


def reset(
    task: TaskSpec, seed: int, constants: ContextConstants | None = None
) -> tuple[SwarmEnv, Observation]:
    """Build a fresh episode for ``task``. Raises on structurally invalid specs."""
    env = SwarmEnv(task, seed, constants)
    return env, env.observe()


def derive_assignment_seed(episode_seed: int, stage_index: int, assignment_index: int) -> int:
    """Per-assignment randomness: stable under replay and concurrency."""
    return derive_seed("assignment", episode_seed, stage_index, assignment_index)
