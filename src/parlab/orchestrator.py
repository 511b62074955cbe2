"""Trainable orchestrator: a linear-softmax policy over discrete action tokens.

One action token is decoded against the live environment state into one
concrete action, so one token costs one orchestrator step. The policy is the
only trainable part of the system; decoding and the environment stay fixed.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .rewards import RewardBreakdown

from .environment import (
    AGENT_TEMPLATES,
    Action,
    AssignGroupAction,
    CreateAgentAction,
    FinishAction,
    NoOpAction,
    Observation,
    SubtaskAssignment,
    SwarmEnv,
    ToolCallAction,
    derive_assignment_seed,
    reset,
)
from .errors import InvalidParameterError
from .metrics import ContextConstants, StageRecord
from .seeding import derive_seed
from .task_gen import TaskKind, TaskSpec

FEATURE_DIM = 9

PARTITION_SCHEMES = ("contiguous", "round_robin", "size_balanced")


@dataclass(frozen=True)
class ActionToken:
    """One vocabulary entry. ``kind`` selects the decode rule:

    - ``tool``: direct tool call, ``arg`` names the tool
    - ``create``: instantiate a sub-agent from template ``arg``
    - ``assign``: dispatch pending units to up to ``group_size`` sub-agents
    - ``finish``: submit the assembled answer
    """

    name: str
    kind: str
    arg: str = ""
    group_size: int = 0
    scheme: str = "size_balanced"

    def __post_init__(self) -> None:
        if self.kind not in ("tool", "create", "assign", "finish"):
            raise InvalidParameterError(f"unknown token kind {self.kind!r}")
        if self.kind == "assign" and self.group_size < 1:
            raise InvalidParameterError("assign tokens need group_size >= 1")
        if self.kind == "assign" and self.scheme not in PARTITION_SCHEMES:
            raise InvalidParameterError(f"unknown partition scheme {self.scheme!r}")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "arg": self.arg,
            "group_size": self.group_size,
            "scheme": self.scheme,
        }


def token_from_dict(data: dict) -> ActionToken:
    return ActionToken(
        name=data["name"],
        kind=data["kind"],
        arg=data.get("arg", ""),
        group_size=data.get("group_size", 0),
        scheme=data.get("scheme", "size_balanced"),
    )


def default_vocabulary() -> tuple[ActionToken, ...]:
    """Full fixed vocabulary; experiments may train over any subset."""
    return (
        ActionToken("SEARCH", "tool", arg="search"),
        ActionToken("FETCH", "tool", arg="fetch"),
        ActionToken("DOWNLOAD", "tool", arg="download"),
        ActionToken("CREATE_WORKER", "create", arg="worker"),
        ActionToken("CREATE_FLAKY", "create", arg="flaky"),
        ActionToken("ASSIGN_2", "assign", group_size=2),
        ActionToken("ASSIGN_4", "assign", group_size=4),
        ActionToken("ASSIGN_8", "assign", group_size=8),
        ActionToken("FINISH", "finish"),
    )


def vocabulary_manifest(vocab: tuple[ActionToken, ...]) -> list[dict]:
    return [t.to_dict() for t in vocab]


# --- policy parameters ---------------------------------------------------------


@dataclass
class PolicyParams:
    """Weight matrix of shape (vocabulary size, feature dim)."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 2:
            raise InvalidParameterError("weights must be a 2-d matrix")

    @property
    def vocab_size(self) -> int:
        return self.weights.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.weights.shape[1]

    def copy(self) -> PolicyParams:
        return PolicyParams(self.weights.copy())

    def flat(self) -> np.ndarray:
        return self.weights.reshape(-1).copy()

    def with_flat(self, flat: np.ndarray) -> PolicyParams:
        return PolicyParams(np.asarray(flat, dtype=np.float64).reshape(self.weights.shape))

    def params_hash(self) -> str:
        digest = hashlib.sha256()
        digest.update(str(self.weights.shape).encode())
        digest.update(np.ascontiguousarray(self.weights).tobytes())
        return digest.hexdigest()[:16]


def init_params(
    vocab_size: int, feature_dim: int = FEATURE_DIM, scale: float = 0.0, seed: int = 0
) -> PolicyParams:
    if scale == 0.0:
        return PolicyParams(np.zeros((vocab_size, feature_dim)))
    rng = np.random.default_rng(derive_seed("init", seed))
    return PolicyParams(scale * rng.standard_normal((vocab_size, feature_dim)))


# --- featurization ---------------------------------------------------------------


def featurize(obs: Observation, task: TaskSpec) -> np.ndarray:
    """Fixed-width summary of the observation; all entries lie in [0, 1]."""
    last_finish = obs.last_completed / obs.last_assigned if obs.last_assigned else 0.0
    kind = task.kind
    features = np.array(
        [
            1.0,
            obs.remaining_orchestrator_steps / task.limits.orchestrator_max_steps,
            obs.remaining_tokens / task.limits.max_tokens,
            obs.unresolved_units / max(1, obs.total_units),
            min(obs.live_agents, 8) / 8.0,
            last_finish,
            1.0 if kind is TaskKind.WIDE_SEARCH else 0.0,
            1.0 if kind is TaskKind.DEEP_SEARCH else 0.0,
            1.0 if kind is TaskKind.BATCH_DOWNLOAD else 0.0,
        ],
        dtype=np.float64,
    )
    return features


class Softmax(NamedTuple):
    """The policy evaluated at one token, as kept by the sampling pass."""

    probs: np.ndarray
    logits: np.ndarray  # shifted so that the largest is 0
    total: np.float64  # sum of exp(logits)


def _softmax(
    params: PolicyParams, features: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.float64]:
    """One policy evaluation: max-shifted logits, their exponentials and the
    sum of those. Every softmax of the policy is taken from this formula or
    its row-wise twin ``_stacked_softmax``, which gives the same bits, so a
    cached evaluation and a recomputed one agree bit for bit."""
    logits = params.weights @ features
    logits = logits - logits.max()
    exp = np.exp(logits)
    return logits, exp, exp.sum()


def action_distribution(params: PolicyParams, features: np.ndarray) -> np.ndarray:
    """Softmax over the vocabulary; numerically stable for large logits."""
    _, exp, total = _softmax(params, features)
    return exp / total


def action_logprobs(params: PolicyParams, features: np.ndarray) -> np.ndarray:
    logits, _, total = _softmax(params, features)
    return logits - np.log(total)


def sample_action(dist: np.ndarray, rng: random.Random) -> tuple[int, float]:
    """Inverse-CDF sample from a probability vector.

    Consumes exactly one rng draw per call and returns the sampled index with
    its log-probability under ``dist``.
    """
    u = rng.random()
    acc = 0.0
    for index, p in enumerate(dist.tolist()):
        acc += p
        if u < acc:
            return index, float(np.log(dist[index]))
    index = len(dist) - 1
    return index, float(np.log(dist[index]))


def grad_logprob(
    params: PolicyParams,
    features: np.ndarray,
    index: int | Sequence[int],
    probs: np.ndarray | None = None,
) -> np.ndarray:
    """d log pi(index | features) / d weights.

    For a linear-softmax policy this is (onehot(index) - probs) outer features,
    of shape (V, F). ``probs`` is the policy's distribution at ``features``,
    computed from ``params`` when not given.

    Stacked form: ``features`` of shape (N, F), a sequence of N indices and,
    if given, ``probs`` of shape (N, V) give the N score functions, shape
    (N, V, F). Each row is bit for bit the 1-D call on that token: the same
    elementwise ops as ``np.outer``, with an explicit one-hot so that the
    sign of a zero matches too.
    """
    if probs is None:
        if features.ndim == 1:
            probs = action_distribution(params, features)
        else:
            probs = np.array([action_distribution(params, x) for x in features])
    onehot = np.zeros_like(probs)
    if features.ndim == 1:
        onehot[index] = 1.0
        return np.outer(onehot - probs, features)
    onehot[np.arange(len(index)), index] = 1.0
    return (onehot - probs)[:, :, None] * features[:, None, :]


# --- decoding ----------------------------------------------------------------------


def partition_units(
    units: list[str], costs: dict[str, int], group_size: int, scheme: str
) -> list[list[str]]:
    """Split ``units`` into exactly ``group_size`` disjoint parts.

    Parts may be empty when there are fewer units than parts: the token asked
    for that many agents and it gets them, useful work or not.
    """
    if group_size < 1:
        raise InvalidParameterError("group_size must be >= 1")
    if scheme == "contiguous":
        bins: list[list[str]] = []
        base, extra = divmod(len(units), group_size)
        start = 0
        for i in range(group_size):
            size = base + (1 if i < extra else 0)
            bins.append(units[start : start + size])
            start += size
        return bins
    if scheme == "round_robin":
        bins = [[] for _ in range(group_size)]
        for i, unit in enumerate(units):
            bins[i % group_size].append(unit)
        return bins
    if scheme == "size_balanced":
        # Greedy: heaviest unit first into the currently lightest bin.
        bins = [[] for _ in range(group_size)]
        loads = [0] * group_size
        first: dict[str, int] = {}
        for i, unit in enumerate(units):
            first.setdefault(unit, i)
        order = sorted(units, key=lambda u: (-costs.get(u, 1), first[u]))
        for unit in order:
            target = loads.index(min(loads))
            bins[target].append(unit)
            loads[target] += costs.get(unit, 1)
        return bins
    raise InvalidParameterError(f"unknown partition scheme {scheme!r}")


def decode_action(token: ActionToken, env: SwarmEnv) -> Action:
    """Ground a vocabulary token in the current environment state.

    Decoding never raises on unproductive tokens; it returns a no-op action
    that still burns the step, so the policy has to learn to avoid them.
    """
    if token.kind == "finish":
        return FinishAction()
    if token.kind == "create":
        template = AGENT_TEMPLATES.get(token.arg)
        if template is None:
            return NoOpAction(f"unknown agent template {token.arg!r}")
        # Profile names must be unique, so repeating a create token produces a
        # duplicate-name failed stage rather than a second copy.
        return CreateAgentAction(template.build_profile(token.arg))
    if token.kind == "tool":
        pending = env.pending_units()
        if not pending:
            return NoOpAction("no unresolved units to target")
        call = env.tool_call_for_unit(token.arg, pending[0])
        if call is None:
            return NoOpAction(f"tool {token.arg!r} not applicable to {env.task.kind.value}")
        return ToolCallAction(call)
    if token.kind == "assign":
        if not env.profiles:
            return NoOpAction("no sub-agents exist yet")
        pending = env.pending_units()
        if not pending:
            return NoOpAction("no unresolved units to assign")
        costs = {u: env.unit_cost_for_subagent(u) for u in pending}
        parts = partition_units(pending, costs, token.group_size, token.scheme)
        names = list(env.profiles)
        stage_index = len(env.stages)
        assignments = tuple(
            SubtaskAssignment(
                agent_name=names[i % len(names)],
                unit_ids=tuple(part),
                seed=derive_assignment_seed(env.seed, stage_index, i),
            )
            for i, part in enumerate(parts)
        )
        return AssignGroupAction(assignments)
    raise InvalidParameterError(f"unknown token kind {token.kind!r}")


# --- rollouts ------------------------------------------------------------------------


@dataclass(frozen=True)
class TokenRecord:
    """One emitted action token with everything needed to re-evaluate it later.

    ``softmax`` is the sampling pass's policy evaluation at this token, under
    the parameters named by the trace's ``params_hash``. It lives in memory
    only: it takes no part in equality, is never serialized, and is ``None``
    on tokens read back from a trace file or chosen by a script.
    """

    index: int
    name: str
    behavior_logprob: float
    features: tuple[float, ...]
    softmax: Softmax | None = field(default=None, compare=False, repr=False)

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "name": self.name,
            "behavior_logprob": self.behavior_logprob,
            "features": list(self.features),
        }


@dataclass
class EpisodeTrace:
    """Full record of one episode.

    ``partial`` marks a suspended, not-yet-terminal episode;
    ``partial_rollout`` marks an episode resumed across a parameter update,
    whose prefix log-probs were re-recorded under the newer parameters.
    ``reward`` is filled by the reward layer after the episode ends.
    """

    task: TaskSpec
    episode_seed: int
    tokens: list[TokenRecord] = field(default_factory=list)
    stages: list[StageRecord] = field(default_factory=list)
    terminal_flag: str = ""
    final_answer: object = None
    partial: bool = False
    partial_rollout: bool = False
    params_hash: str = ""
    reward: "RewardBreakdown | None" = None

    def length(self) -> int:
        return len(self.tokens)


def rollout_episode(
    params: PolicyParams,
    task: TaskSpec,
    vocab: tuple[ActionToken, ...],
    seed: int,
    max_tokens: int | None = None,
    forced_prefix: tuple[int, ...] = (),
    stop_after: int | None = None,
    constants: ContextConstants | None = None,
) -> EpisodeTrace:
    """Sample one episode under the current policy: the one-job case of
    ``rollout_episodes``, which documents the arguments."""
    return rollout_episodes(
        params, vocab, [(task, seed)], max_tokens, forced_prefix, stop_after, constants
    )[0]


def _stacked_softmax(
    weights: np.ndarray, features: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_softmax`` for each row of ``features`` (N, F) at once, bit for bit.

    The logits are one stacked matrix-vector product per row, ``W @ x`` for
    every x: ``X @ W.T`` would be a matrix-matrix product whose kernel sums in
    another order and changes the last bits. Row-wise max, exp, sum and
    division do the same elementwise work and reductions as the 1-D calls.
    """
    logits = np.matmul(weights, features[:, :, None])[:, :, 0]
    logits = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(logits)
    return logits, exp, exp.sum(axis=1)


def rollout_episodes(
    params: PolicyParams,
    vocab: tuple[ActionToken, ...],
    jobs: Sequence[tuple[TaskSpec, int]],
    max_tokens: int | None = None,
    forced_prefix: tuple[int, ...] = (),
    stop_after: int | None = None,
    constants: ContextConstants | None = None,
) -> list[EpisodeTrace]:
    """Sample one episode per ``(task, seed)`` job under the current policy,
    all in lockstep; traces come back in job order.

    At each token position the features of every live episode are stacked
    and the policy is evaluated for all of them in one call, a stack of
    matrix-vector products that gives each row the bits of its own ``W @ x``
    (``_stacked_softmax``). Sampling, decoding and stepping stay per
    episode, and the episodes share no state, so each trace is byte for byte
    the one a run of its job alone gives.
    Each ``TokenRecord`` keeps its row of that evaluation, so the gradient
    under the same parameters need not redo it.

    ``forced_prefix`` replays recorded token indices before sampling resumes,
    which is how suspended episodes continue under the same seed. The sampler
    rng is reseeded per episode and token position, so forcing the first k
    tokens of a previously sampled episode reproduces it exactly.

    ``stop_after`` suspends an episode after that many tokens without
    terminating it: the trace comes back flagged partial, with no terminal
    flag and no submitted answer. ``max_tokens`` is the hard episode cap and
    does terminate (flag ``token_cap``); by default each task's own limit.
    """
    if params.vocab_size != len(vocab):
        raise InvalidParameterError("params row count must match vocabulary size")
    params_hash = params.params_hash()
    envs: list[SwarmEnv] = []
    observations: list[Observation] = []
    traces: list[EpisodeTrace] = []
    caps: list[int] = []
    for task, seed in jobs:
        env, obs = reset(task, seed, constants)
        envs.append(env)
        observations.append(obs)
        traces.append(EpisodeTrace(task=task, episode_seed=seed, params_hash=params_hash))
        caps.append(task.limits.max_tokens if max_tokens is None else max_tokens)
    rng = random.Random(0)
    # For an int seed ``Random.seed`` only wraps this C method (and clears
    # the gauss cache, which ``random()`` never reads): the same stream,
    # without a Python frame per token.
    reseed = super(random.Random, rng).seed
    live = range(len(traces))
    position = 0
    while True:
        running = []
        for i in live:
            if envs[i].done or position >= caps[i]:
                continue
            if stop_after is not None and position >= stop_after:
                traces[i].partial = True
                continue
            running.append(i)
        live = running
        if not live:
            break
        features = [featurize(observations[i], traces[i].task) for i in live]
        logits, exp, total = _stacked_softmax(params.weights, np.array(features))
        dist = exp / total[:, None]
        for r, i in enumerate(live):
            if position < len(forced_prefix):
                index = forced_prefix[position]
                logprob = float(logits[r, index] - np.log(total[r]))
            else:
                reseed(derive_seed("token", traces[i].episode_seed, position))
                index, logprob = sample_action(dist[r], rng)
            token = vocab[index]
            env = envs[i]
            observations[i], _ = env.step(decode_action(token, env))
            traces[i].tokens.append(
                TokenRecord(
                    index=index,
                    name=token.name,
                    behavior_logprob=logprob,
                    features=tuple(features[r].tolist()),
                    softmax=Softmax(dist[r], logits[r], total[r]),
                )
            )
        position += 1
    for env, trace in zip(envs, traces):
        if not env.done and not trace.partial:
            env.force_terminate("token_cap")
        trace.stages = list(env.stages)
        trace.terminal_flag = env.terminal_flag
        trace.final_answer = env.final_answer
    return traces
