"""Desk-scale bench for training a swarm orchestrator.

A trainable linear-softmax orchestrator delegates synthetic research tasks to
frozen scripted sub-agents, and a group-relative policy-gradient loop trains
it to trade sequential steps for parallel ones. Everything is deterministic
given a seed, and every episode persists as a replayable JSON trace.
"""

from .environment import (
    AGENT_TEMPLATES,
    ASSIGN_TASK_SCHEMA,
    CREATE_SUBAGENT_SCHEMA,
    TOOL_SCHEMAS,
    Action,
    AgentTemplate,
    AssignGroupAction,
    CreateAgentAction,
    FinishAction,
    NoOpAction,
    Observation,
    StepCostModel,
    SubagentProfile,
    SubtaskAssignment,
    SubtaskResult,
    SwarmEnv,
    ToolCall,
    ToolCallAction,
    ToolResult,
    derive_assignment_seed,
    reset,
)
from .errors import (
    ConfigError,
    CorruptFileError,
    EpisodeDoneError,
    FrozenBudgetError,
    InvalidParameterError,
    InvalidSpecError,
    InvalidSubtaskError,
    MissingBudgetError,
    MissingSnapshotError,
    MissingTraceDataError,
    ParlabError,
)
from .metrics import (
    EPISODE_CSV_FIELDS,
    ContextConstants,
    ParallelismStats,
    StageRecord,
    context_usage,
    critical_steps,
    episode_metrics_row,
    finish_rate,
    parallelism_degree,
    total_steps,
)
from .optimizer import (
    GradientReport,
    RLConfig,
    RolloutBatch,
    advantage,
    clip_mask,
    collect_group,
    collect_groups,
    fd_check,
    rl_gradient,
    rl_objective,
    train_step,
)
from .orchestrator import (
    FEATURE_DIM,
    ActionToken,
    EpisodeTrace,
    PolicyParams,
    TokenRecord,
    action_distribution,
    action_logprobs,
    decode_action,
    default_vocabulary,
    featurize,
    grad_logprob,
    init_params,
    partition_units,
    rollout_episode,
    rollout_episodes,
    sample_action,
    token_from_dict,
    vocabulary_manifest,
)
from .rewards import (
    BudgetTable,
    PARLConfig,
    RewardBreakdown,
    ToggleConfig,
    anneal,
    answer_score,
    breakdown_from_dict,
    estimate_budget,
    item_f1,
    parl_reward,
    r_parallel,
    r_perf,
    toggle_phase,
    toggle_reward,
)
from .seeding import derive_seed
from .task_gen import (
    DEFAULT_LIMITS,
    BatchTruth,
    DeepBranch,
    DeepTruth,
    GroundTruth,
    StepLimits,
    TaskKind,
    TaskSpec,
    WideTruth,
    combine_leaves,
    gen_batch_download,
    gen_deep_search,
    gen_wide_search,
    task_spec_from_dict,
    task_spec_from_json,
    task_spec_to_dict,
    task_spec_to_json,
    validate_task_spec,
)

__version__ = "0.1.0"
