"""Experiment harness: config, concurrent rollouts, persistence, CLI."""

from .config import ExperimentConfig, TaskDistribution, config_from_dict, load_config
from .experiment import (
    RunPaths,
    estimate_budget_table,
    evaluate,
    load_params,
    min_critical_at_threshold,
    run_experiment,
    run_seed,
    save_params,
    scripted_rollout,
    serial_chooser,
    speedup_report,
    speedup_table,
    stop_curve,
    summarize_traces,
    swarm_chooser,
    train,
)
from .manager import (
    ResumeToken,
    RolloutJob,
    load_resume_token,
    resume_episode,
    resume_token_from_dict,
    rollout_manager,
    save_resume_token,
    suspend_episode,
)
from .traces import (
    Verdict,
    canonical_dumps,
    metrics_row,
    read_trace_records,
    record_to_trace,
    replay_file,
    replay_trace,
    trace_to_record,
    write_traces,
)
