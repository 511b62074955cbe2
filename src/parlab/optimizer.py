"""Group-relative policy-gradient optimizer.

For each problem, a group of K episodes is sampled under a frozen snapshot of
the policy. Each episode's advantage is its reward minus the group mean. The
surrogate objective is token-level: every emitted action token contributes

    mask * log_ratio * advantage - tau * log_ratio**2

normalized by the group's total token count, where ``log_ratio`` is the
current policy's log-probability of the recorded token minus the snapshot's,
and ``mask`` is 1 only while the log-ratio stays inside the trust window
[alpha, beta]. The mask freezes the contribution of tokens that drifted too
far in either direction, regardless of the advantage sign, and is treated as
a constant when differentiating, so the surrogate's gradient is exactly the
masked policy-gradient estimator. The quadratic term is a soft pull back
toward the snapshot. Updates are plain gradient ascent, one step per sampled
batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, MissingBudgetError
from .metrics import critical_steps, finish_rate, parallelism_degree, total_steps
from .orchestrator import (
    ActionToken,
    EpisodeTrace,
    PolicyParams,
    action_logprobs,
    grad_logprob,
    rollout_episodes,
)
from .rewards import (
    BudgetTable,
    PARLConfig,
    ToggleConfig,
    parl_reward,
    toggle_phase,
    toggle_reward,
)
from .seeding import derive_seed
from .task_gen import TaskSpec


@dataclass(frozen=True)
class RLConfig:
    """Objective and training-loop hyperparameters.

    ``alpha``/``beta`` bound the token log-ratio trust window; keeping zero
    strictly inside it means on-policy tokens are never masked.
    """

    alpha: float = -0.25
    beta: float = 0.25
    tau: float = 0.0
    K: int = 8
    learning_rate: float = 0.5
    batch_problems: int = 1
    iterations: int = 50

    def __post_init__(self) -> None:
        if not self.alpha < 0.0 < self.beta:
            raise InvalidParameterError("trust window must satisfy alpha < 0 < beta")
        if self.K < 2:
            raise InvalidParameterError("K must be >= 2 for a group baseline")
        if self.learning_rate <= 0.0:
            raise InvalidParameterError("learning_rate must be positive")
        if self.tau < 0.0:
            raise InvalidParameterError("tau must be nonnegative")
        if self.batch_problems < 1:
            raise InvalidParameterError("batch_problems must be >= 1")
        if self.iterations < 0:
            raise InvalidParameterError("iterations must be >= 0")


@dataclass
class RolloutBatch:
    """One problem's response group, frozen at sampling time.

    Behavior log-probs live in the traces, recorded when the episodes were
    sampled. Current log-probs and score functions come from each token's
    cached sampling softmax when the parameters are the sampling ones (same
    ``params_hash``, so weights changed in place after sampling are caught)
    and every token of the trace carries a cache; otherwise they are
    recomputed from the stored per-token features. Both ways give the same
    bits.
    """

    problem_id: str
    traces: list[EpisodeTrace]
    rewards: list[float]

    def __post_init__(self) -> None:
        if len(self.traces) != len(self.rewards):
            raise InvalidParameterError("one reward per trace required")
        if not self.traces:
            raise InvalidParameterError("batch must contain at least one trace")

    def lengths(self) -> list[int]:
        return [trace.length() for trace in self.traces]

    def total_tokens(self) -> int:
        return sum(self.lengths())

    def mean_reward(self) -> float:
        return sum(self.rewards) / len(self.rewards)

    def behavior_logprobs(self) -> list[np.ndarray]:
        return [
            np.array([tok.behavior_logprob for tok in trace.tokens])
            for trace in self.traces
        ]

    def current_logprobs(self, params: PolicyParams) -> list[np.ndarray]:
        params_hash = params.params_hash()
        out: list[np.ndarray] = []
        for trace in self.traces:
            if _has_sampling_softmax(trace, params_hash):
                values = [
                    tok.softmax.logits[tok.index] - np.log(tok.softmax.total)
                    for tok in trace.tokens
                ]
            else:
                values = [
                    action_logprobs(params, np.array(tok.features))[tok.index]
                    for tok in trace.tokens
                ]
            out.append(np.array(values))
        return out


def _has_sampling_softmax(trace: EpisodeTrace, params_hash: str) -> bool:
    """Whether every token of ``trace`` carries the policy evaluation of the
    parameters hashed ``params_hash``."""
    return trace.params_hash == params_hash and all(
        tok.softmax is not None for tok in trace.tokens
    )


@dataclass(frozen=True)
class GradientReport:
    analytic: np.ndarray
    finite_diff: np.ndarray
    max_rel_error: float


def advantage(rewards: list[float] | np.ndarray) -> np.ndarray:
    """Group-mean baseline; a uniform group has zero advantage everywhere."""
    arr = np.asarray(rewards, dtype=np.float64)
    if arr.size == 0:
        raise InvalidParameterError("cannot compute advantages of an empty group")
    return arr - arr.mean()


def clip_mask(
    log_ratio: float | np.ndarray, alpha: float, beta: float
) -> float | np.ndarray:
    """1.0 where alpha <= log_ratio <= beta, else 0.0; elementwise on arrays.

    The window is the same whatever the advantage sign: drifted tokens are
    frozen, not flipped.
    """
    if not alpha < beta:
        raise InvalidParameterError("alpha must be strictly less than beta")
    arr = np.asarray(log_ratio, dtype=np.float64)
    mask = ((arr >= alpha) & (arr <= beta)).astype(np.float64)
    if np.isscalar(log_ratio) or getattr(log_ratio, "ndim", 1) == 0:
        return float(mask)
    return mask


def rl_objective(
    params: PolicyParams,
    batch: RolloutBatch,
    cfg: RLConfig,
    advantages: np.ndarray | None = None,
) -> float:
    adv = advantage(batch.rewards) if advantages is None else np.asarray(advantages)
    if adv.shape[0] != len(batch.traces):
        raise InvalidParameterError("one advantage per trace required")
    total = batch.total_tokens()
    if total == 0:
        return 0.0
    behavior = batch.behavior_logprobs()
    current = batch.current_logprobs(params)
    value = 0.0
    for j in range(len(batch.traces)):
        log_ratios = current[j] - behavior[j]
        mask = clip_mask(log_ratios, cfg.alpha, cfg.beta)
        value += float(np.sum(mask * log_ratios * adv[j]))
        value -= cfg.tau * float(np.sum(log_ratios**2))
    return value / total


def rl_gradient(
    params: PolicyParams,
    batch: RolloutBatch,
    cfg: RLConfig,
    advantages: np.ndarray | None = None,
) -> np.ndarray:
    """Exact gradient of ``rl_objective`` w.r.t. the weight matrix.

    The mask is constant under differentiation, so a token contributes
    (mask * advantage - 2 * tau * log_ratio) times its score vector. The
    score vectors of one trace's tokens with a nonzero coefficient come from
    one stacked ``grad_logprob`` call, and are added in token order: summing
    over the token axis in one reduction would reassociate the additions and
    change the bits.
    """
    adv = advantage(batch.rewards) if advantages is None else np.asarray(advantages)
    if adv.shape[0] != len(batch.traces):
        raise InvalidParameterError("one advantage per trace required")
    total = batch.total_tokens()
    grad = np.zeros_like(params.weights)
    if total == 0:
        return grad
    params_hash = params.params_hash()
    behavior = batch.behavior_logprobs()
    current = batch.current_logprobs(params)
    for j, trace in enumerate(batch.traces):
        log_ratios = current[j] - behavior[j]
        mask = clip_mask(log_ratios, cfg.alpha, cfg.beta)
        coeffs = mask * adv[j] - 2.0 * cfg.tau * log_ratios
        active = np.flatnonzero(coeffs != 0.0)
        if active.size == 0:
            continue
        tokens = [trace.tokens[position] for position in active]
        probs = None
        if _has_sampling_softmax(trace, params_hash):
            probs = np.array([tok.softmax.probs for tok in tokens])
        scores = grad_logprob(
            params,
            np.array([tok.features for tok in tokens]),
            [tok.index for tok in tokens],
            probs,
        )
        for row in coeffs[active, None, None] * scores:
            grad += row
    return grad / total


def fd_check(
    params: PolicyParams,
    batch: RolloutBatch,
    cfg: RLConfig,
    epsilon: float = 1e-6,
    advantages: np.ndarray | None = None,
) -> GradientReport:
    """Central-difference verification of the analytic gradient.

    The objective is piecewise smooth; the comparison is only meaningful when
    no log-ratio sits within a few epsilon of the trust-window edges.
    """
    if epsilon <= 0.0:
        raise InvalidParameterError("epsilon must be positive")
    analytic = rl_gradient(params, batch, cfg, advantages).reshape(-1)
    flat = params.flat()
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] = flat[i] + epsilon
        upper = rl_objective(params.with_flat(bumped), batch, cfg, advantages)
        bumped[i] = flat[i] - epsilon
        lower = rl_objective(params.with_flat(bumped), batch, cfg, advantages)
        numeric[i] = (upper - lower) / (2.0 * epsilon)
    scale = np.maximum(1e-8, np.maximum(np.abs(analytic), np.abs(numeric)))
    max_rel_error = float(np.max(np.abs(analytic - numeric) / scale))
    return GradientReport(analytic=analytic, finite_diff=numeric, max_rel_error=max_rel_error)


def collect_groups(
    tasks: list[TaskSpec],
    params: PolicyParams,
    vocab: tuple[ActionToken, ...],
    K: int,
    t: int,
    seed: int,
) -> list[list[EpisodeTrace]]:
    """K independent episodes of each problem under the frozen sampling
    policy, one group per task in task order.

    Every episode of every group is stepped in one lockstep
    ``rollout_episodes`` call; episode k of a task is seeded by the task id,
    ``t`` and ``seed`` alone, so a group is the same whatever else is sampled
    with it.
    """
    jobs = [
        (task, derive_seed("group", seed, t, task.task_id, k))
        for task in tasks
        for k in range(K)
    ]
    traces = rollout_episodes(params, vocab, jobs)
    return [traces[i * K : (i + 1) * K] for i in range(len(tasks))]


def collect_group(
    task: TaskSpec,
    params: PolicyParams,
    vocab: tuple[ActionToken, ...],
    K: int,
    t: int,
    seed: int,
) -> list[EpisodeTrace]:
    """K independent episodes of one problem, stepped in lockstep: the
    one-task case of ``collect_groups``."""
    return collect_groups([task], params, vocab, K, t, seed)[0]


def train_step(
    params: PolicyParams,
    problems: list[TaskSpec],
    vocab: tuple[ActionToken, ...],
    cfg: RLConfig,
    parl_cfg: PARLConfig,
    t: int,
    seed: int,
    toggle_cfg: ToggleConfig | None = None,
    budget_table: BudgetTable | None = None,
) -> tuple[PolicyParams, dict]:
    """One sampling pass plus one ascent step over all given problems. The
    pass steps the groups of all problems together (``collect_groups``).

    The sampling snapshot is ``params`` itself, so every log-ratio starts at
    zero and the whole group sits inside the trust window for this first (and
    only) update per batch.
    """
    if not problems:
        raise InvalidParameterError("train_step needs at least one problem")
    if toggle_cfg is not None and budget_table is None:
        raise MissingBudgetError("length budgets required when the toggle is active")
    grads = np.zeros_like(params.weights)
    raw_rewards: list[float] = []
    shaped_rewards: list[float] = []
    perf_values: list[float] = []
    critical_values: list[float] = []
    total_step_values: list[float] = []
    width_values: list[float] = []
    finish_values: list[float] = []
    length_values: list[float] = []
    groups = collect_groups(problems, params, vocab, cfg.K, t, seed)
    for task, traces in zip(problems, groups):
        breakdowns = [parl_reward(task, trace, parl_cfg, t) for trace in traces]
        rewards = [b.composite for b in breakdowns]
        raw_rewards.extend(rewards)
        lengths = [trace.length() for trace in traces]
        if toggle_cfg is not None:
            rewards = toggle_reward(
                task.task_id, list(zip(lengths, rewards)), budget_table, toggle_cfg, t
            )
        shaped_rewards.extend(rewards)
        perf_values.extend(b.r_perf for b in breakdowns)
        critical_values.extend(critical_steps(tr.stages) for tr in traces)
        total_step_values.extend(total_steps(tr.stages) for tr in traces)
        width_values.extend(parallelism_degree(tr.stages).max_width for tr in traces)
        finish_values.extend(finish_rate(tr.stages) for tr in traces)
        length_values.extend(lengths)
        batch = RolloutBatch(task.task_id, traces, list(rewards))
        grads += rl_gradient(params, batch, cfg)
    grads /= len(problems)
    new_params = PolicyParams(params.weights + cfg.learning_rate * grads)
    stats = {
        "iteration": t,
        "mean_reward": float(np.mean(shaped_rewards)),
        "mean_raw_reward": float(np.mean(raw_rewards)),
        "mean_r_perf": float(np.mean(perf_values)),
        "mean_critical_steps": float(np.mean(critical_values)),
        "mean_total_steps": float(np.mean(total_step_values)),
        "mean_parallelism": float(np.mean(width_values)),
        "mean_finish_rate": float(np.mean(finish_values)),
        "mean_tokens": float(np.mean(length_values)),
        "phase": toggle_phase(t, toggle_cfg.m) if toggle_cfg is not None else 1,
        "grad_norm": float(np.linalg.norm(grads)),
    }
    return new_params, stats
