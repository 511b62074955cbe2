"""End-to-end experiment flows: training loops, evaluation passes, baselines.

A run directory is self-describing: it holds the echoed config and, per seed,
training stats plus curves, the latest checkpoint, frozen length budgets when
active, per-policy evaluation traces and metrics, a swarm-vs-serial speedup
table, and a JSON summary. Interrupted training resumes from the checkpoint
and, because every iteration reseeds itself from (seed, t), produces the same
parameters an uninterrupted run would have.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..environment import SwarmEnv, reset
from ..errors import CorruptFileError, InvalidParameterError, MissingSnapshotError
from ..metrics import EPISODE_CSV_FIELDS, critical_steps
from ..optimizer import collect_groups, train_step
from ..orchestrator import (
    ActionToken,
    EpisodeTrace,
    PolicyParams,
    TokenRecord,
    decode_action,
    default_vocabulary,
    featurize,
    init_params,
)
from ..rewards import BudgetTable, answer_score, estimate_budget
from ..seeding import derive_seed
from ..task_gen import TaskKind, TaskSpec
from .config import ExperimentConfig
from .manager import RolloutJob, rollout_manager
from .traces import (
    canonical_dumps,
    metrics_row,
    read_json,
    read_trace_records,
    write_traces,
)

CHECKPOINT_SCHEMA_VERSION = 1

CURVE_FIELDS = (
    "iteration",
    "mean_reward",
    "mean_raw_reward",
    "mean_r_perf",
    "mean_critical_steps",
    "mean_total_steps",
    "mean_parallelism",
    "mean_finish_rate",
    "mean_tokens",
    "phase",
    "grad_norm",
)


# --- scripted baselines -----------------------------------------------------------


def swarm_chooser(create_count: int = 1, assign_name: str = "ASSIGN_8"):
    """Delegating baseline: spawn workers, dispatch everything, finish."""

    def choose(env: SwarmEnv, vocab: tuple[ActionToken, ...]) -> int:
        names = [t.name for t in vocab]
        if len(env.profiles) < create_count:
            return names.index("CREATE_WORKER")
        if env.pending_units():
            return names.index(assign_name)
        return names.index("FINISH")

    return choose


def serial_chooser(env: SwarmEnv, vocab: tuple[ActionToken, ...]) -> int:
    """Single-threaded baseline: the orchestrator does every unit itself."""
    names = [t.name for t in vocab]
    if env.pending_units():
        tool = "DOWNLOAD" if env.task.kind is TaskKind.BATCH_DOWNLOAD else "FETCH"
        return names.index(tool)
    return names.index("FINISH")


def scripted_rollout(
    task: TaskSpec,
    vocab: tuple[ActionToken, ...],
    chooser,
    seed: int,
    max_tokens: int | None = None,
) -> EpisodeTrace:
    """Run a deterministic chooser through the same recording path as the
    learned policy, so scripted traces persist and replay identically."""
    cap = task.limits.max_tokens if max_tokens is None else max_tokens
    env, obs = reset(task, seed)
    trace = EpisodeTrace(task=task, episode_seed=seed, params_hash="scripted")
    while not env.done and len(trace.tokens) < cap:
        features = featurize(obs, task)
        index = chooser(env, vocab)
        token = vocab[index]
        obs, _ = env.step(decode_action(token, env))
        trace.tokens.append(
            TokenRecord(
                index=index,
                name=token.name,
                behavior_logprob=0.0,
                features=tuple(features.tolist()),
            )
        )
    if not env.done:
        env.force_terminate("token_cap")
    trace.stages = list(env.stages)
    trace.terminal_flag = env.terminal_flag
    trace.final_answer = env.final_answer
    return trace


# --- parameter snapshots ------------------------------------------------------------


def params_to_dict(params: PolicyParams) -> dict:
    return {
        "shape": list(params.weights.shape),
        "values": [float(x) for x in params.weights.reshape(-1)],
        "hash": params.params_hash(),
    }


def params_from_dict(data: dict) -> PolicyParams:
    weights = np.array(data["values"], dtype=np.float64).reshape(data["shape"])
    params = PolicyParams(weights)
    if data.get("hash") and params.params_hash() != data["hash"]:
        raise MissingSnapshotError("parameter snapshot corrupt: hash mismatch")
    return params


def save_params(params: PolicyParams, path: str | Path) -> None:
    Path(path).write_text(canonical_dumps(params_to_dict(params)) + "\n")


def _params_from_file_data(data: object, path: Path) -> PolicyParams:
    """`params_from_dict` on data read from `path`; a malformed snapshot is a
    `CorruptFileError` naming the file."""
    try:
        return params_from_dict(data)
    except MissingSnapshotError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptFileError(f"{path}: not a parameter snapshot ({exc})") from exc


def load_params(path: str | Path) -> PolicyParams:
    path = Path(path)
    if not path.exists():
        raise MissingSnapshotError(f"no parameter snapshot at {path}")
    return _params_from_file_data(read_json(path), path)


# --- budgets -----------------------------------------------------------------------


def estimate_budget_table(
    tasks: list[TaskSpec],
    config: ExperimentConfig,
    params: PolicyParams,
    seed: int,
) -> BudgetTable:
    """One dedicated sampling group per problem, all stepped in one lockstep
    pass; the result is frozen."""
    if config.toggle is None:
        raise InvalidParameterError("budget estimation requires a toggle config")
    table = BudgetTable()
    groups = collect_groups(
        tasks, params, config.vocab, config.rl.K, t=0, seed=derive_seed("budget", seed)
    )
    for task, traces in zip(tasks, groups):
        samples = [
            (trace.length(), answer_score(task, trace.final_answer))
            for trace in traces
        ]
        table.set_budget(
            task.task_id,
            estimate_budget(
                samples, config.toggle.rho, fallback=config.toggle.fallback_budget
            ),
        )
    table.freeze()
    return table


# --- run directory layout -----------------------------------------------------------


@dataclass
class RunPaths:
    root: Path

    @property
    def config(self) -> Path:
        return self.root / "config.json"

    @property
    def stats(self) -> Path:
        return self.root / "stats.jsonl"

    @property
    def curves(self) -> Path:
        return self.root / "curves.csv"

    @property
    def checkpoint(self) -> Path:
        return self.root / "checkpoint.json"

    @property
    def budgets(self) -> Path:
        return self.root / "budgets.json"

    @property
    def params(self) -> Path:
        return self.root / "params.json"

    def traces(self, policy: str) -> Path:
        return self.root / f"traces_{policy}.jsonl"

    def metrics(self, policy: str) -> Path:
        return self.root / f"metrics_{policy}.csv"

    @property
    def speedup(self) -> Path:
        return self.root / "speedup.csv"

    @property
    def summary(self) -> Path:
        return self.root / "summary.json"


def _write_checkpoint(paths: RunPaths, params: PolicyParams, next_iteration: int) -> None:
    payload = {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "next_iteration": next_iteration,
        "params": params_to_dict(params),
    }
    paths.checkpoint.write_text(canonical_dumps(payload) + "\n")


def _load_checkpoint(paths: RunPaths) -> tuple[PolicyParams, int] | None:
    if not paths.checkpoint.exists():
        return None
    data = read_json(paths.checkpoint)
    if not isinstance(data, dict) or data.get("schema_version") != CHECKPOINT_SCHEMA_VERSION:
        raise MissingSnapshotError("checkpoint schema not understood")
    next_iteration = data.get("next_iteration")
    if type(next_iteration) is not int or next_iteration < 0:
        raise CorruptFileError(f"{paths.checkpoint}: next_iteration is not a count")
    return _params_from_file_data(data.get("params"), paths.checkpoint), next_iteration


def _load_budgets(path: Path) -> BudgetTable:
    """The frozen budget table saved at ``path``; anything but an object of
    positive int budgets is a `CorruptFileError` naming the file."""
    data = read_json(path)
    if not isinstance(data, dict) or not all(
        type(budget) is int and budget >= 1 for budget in data.values()
    ):
        raise CorruptFileError(f"{path}: not an object of positive int budgets")
    return BudgetTable.from_dict(data)


def _keep_stats_rows(paths: RunPaths, rows: int) -> None:
    """Drop stats rows past the checkpoint. A kill between appending
    iteration t's row and checkpointing t + 1 leaves a row the resume reruns."""
    if not paths.stats.exists():
        return
    lines = paths.stats.read_bytes().splitlines(keepends=True)
    if len(lines) > rows:
        paths.stats.write_bytes(b"".join(lines[:rows]))


def _write_curves(paths: RunPaths) -> None:
    """Render stats.jsonl into a fixed-column CSV of training curves. A line
    that is not a JSON object is a `CorruptFileError` naming file and line."""
    rows = read_trace_records(paths.stats) if paths.stats.exists() else []
    for line_no, row in enumerate(rows, start=1):
        if not isinstance(row, dict):
            raise CorruptFileError(f"{paths.stats}, line {line_no}: not a JSON object")
    with paths.curves.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(CURVE_FIELDS), extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


# --- training ----------------------------------------------------------------------


def train(
    config: ExperimentConfig,
    tasks: list[TaskSpec],
    seed: int,
    out_dir: str | Path,
) -> PolicyParams:
    """Run (or resume) the training loop, checkpointing every iteration."""
    if not tasks:
        raise InvalidParameterError("training needs at least one task")
    paths = RunPaths(Path(out_dir))
    paths.root.mkdir(parents=True, exist_ok=True)
    resumed = _load_checkpoint(paths)
    if resumed is not None:
        params, start = resumed
        _keep_stats_rows(paths, start)
    else:
        params = init_params(len(config.vocab))
        start = 0
        paths.stats.write_text("")
    table: BudgetTable | None = None
    if config.toggle is not None:
        if paths.budgets.exists():
            table = _load_budgets(paths.budgets)
        else:
            table = estimate_budget_table(tasks, config, params, seed)
            paths.budgets.write_text(canonical_dumps(table.to_dict()) + "\n")
    batch = max(1, min(config.rl.batch_problems, len(tasks)))
    for t in range(start, config.rl.iterations):
        offset = (t * batch) % len(tasks)
        problems = [tasks[(offset + i) % len(tasks)] for i in range(batch)]
        params, stats = train_step(
            params,
            problems,
            config.vocab,
            config.rl,
            config.parl,
            t,
            seed,
            toggle_cfg=config.toggle,
            budget_table=table,
        )
        with paths.stats.open("a") as handle:
            handle.write(canonical_dumps(stats) + "\n")
        _write_checkpoint(paths, params, t + 1)
    _write_curves(paths)
    save_params(params, paths.params)
    return params


# --- evaluation ---------------------------------------------------------------------


def _policy_traces(
    policy: str,
    config: ExperimentConfig,
    tasks: list[TaskSpec],
    params: PolicyParams | None,
    seed: int,
    concurrency: int,
) -> tuple[list[EpisodeTrace], tuple[ActionToken, ...]]:
    """Evaluation episodes for one policy, plus the vocabulary they used.

    Scripted baselines always run under the default vocabulary; a restricted
    training vocabulary must not break the fixed reference policies.
    """
    if policy == "learned":
        if params is None:
            raise MissingSnapshotError("learned policy evaluation needs parameters")
        jobs = [
            RolloutJob(task, derive_seed("eval", seed, task.task_id, e))
            for task in tasks
            for e in range(config.eval_episodes)
        ]
        return rollout_manager(jobs, params, config.vocab, concurrency), config.vocab
    vocab = default_vocabulary()
    chooser = serial_chooser if policy == "serial_script" else swarm_chooser()
    traces = [
        scripted_rollout(task, vocab, chooser, derive_seed("eval", seed, task.task_id, e))
        for task in tasks
        for e in range(config.eval_episodes)
    ]
    return traces, vocab


def _write_metrics_csv(path: Path, traces: list[EpisodeTrace]) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(EPISODE_CSV_FIELDS))
        writer.writeheader()
        for trace in traces:
            writer.writerow(metrics_row(trace))


def evaluate(
    config: ExperimentConfig,
    tasks: list[TaskSpec],
    params: PolicyParams | None,
    seed: int,
    out_dir: str | Path,
    concurrency: int | None = None,
) -> dict:
    """Roll out every configured policy on every task and persist the evidence."""
    if not tasks:
        raise InvalidParameterError("evaluation needs at least one task")
    paths = RunPaths(Path(out_dir))
    paths.root.mkdir(parents=True, exist_ok=True)
    workers = config.concurrency_limit if concurrency is None else concurrency
    summary: dict = {"episodes": 0, "policies": {}}
    for policy in config.policies:
        traces, vocab = _policy_traces(policy, config, tasks, params, seed, workers)
        write_traces(
            paths.traces(policy),
            traces,
            vocab,
            summary_only=config.trace_level == "summary",
        )
        _write_metrics_csv(paths.metrics(policy), traces)
        summary["policies"][policy] = summarize_traces(traces)
        summary["episodes"] += len(traces)
    return summary


def summarize_traces(traces: list[EpisodeTrace]) -> dict:
    if not traces:
        raise InvalidParameterError("cannot summarize zero traces")
    rows = [metrics_row(trace) for trace in traces]

    def mean(key: str) -> float:
        return float(np.mean([row[key] for row in rows]))

    return {
        "episodes": len(rows),
        "tasks": len({row["task_id"] for row in rows}),
        "mean_r_perf": mean("r_perf"),
        "mean_critical_steps": mean("critical_steps"),
        "mean_total_steps": mean("total_steps"),
        "mean_max_width": mean("max_width"),
        "mean_finish_rate": mean("finish_rate"),
        "mean_orchestrator_tokens": mean("orchestrator_tokens"),
        "zero_spawn_fraction": float(
            np.mean([1.0 if row["max_width"] == 0 else 0.0 for row in rows])
        ),
    }


# --- speedup table -------------------------------------------------------------------


def stop_curve(
    task: TaskSpec,
    vocab: tuple[ActionToken, ...],
    base_chooser,
    seed: int,
) -> list[tuple[int, float]]:
    """(critical steps, score) of the chooser stopped after 0..L of its moves.

    One scripted run yields every point. A run stopped after b < L moves makes
    the same first b moves as the full run, because the chooser is
    deterministic and the episode seed is the same; then it finishes. A finish
    submits ``assemble_answer()``, a pure view of the env, and adds one stage
    of one main step with no sub-agents. So point b is read from the live env
    just before move b: the critical steps so far plus one, and the score of
    the answer assembled now. The last point is the full run itself, however
    it ended (``finished``, ``budget_exhausted`` or ``token_cap``).
    """
    curve: list[tuple[int, float]] = []
    steps = 0
    counted = 0

    def probe(env: SwarmEnv, vocab: tuple[ActionToken, ...]) -> int:
        nonlocal steps, counted
        steps += critical_steps(env.stages[counted:])
        counted = len(env.stages)
        curve.append((steps + 1, answer_score(task, env.assemble_answer())))
        return base_chooser(env, vocab)

    full = scripted_rollout(task, vocab, probe, seed)
    curve.append((critical_steps(full.stages), answer_score(task, full.final_answer)))
    return curve


def min_critical_at_threshold(
    curve: list[tuple[int, float]], threshold: float
) -> int | None:
    """Fewest critical steps at which a stop-curve reaches the target score."""
    reached = [steps for steps, score in curve if score >= threshold - 1e-12]
    return min(reached) if reached else None


def speedup_table(
    tasks: list[TaskSpec],
    thresholds: tuple[float, ...],
    seed: int,
) -> list[dict]:
    """Swarm vs forced-serial cost at matched target scores, per task.

    Both policies are deterministic references run under the full default
    vocabulary; either one may stop early once the target is met.
    """
    vocab = default_vocabulary()
    rows: list[dict] = []
    for task in tasks:
        task_seed = derive_seed("speedup", seed, task.task_id)
        serial_curve = stop_curve(task, vocab, serial_chooser, task_seed)
        swarm_curve = stop_curve(task, vocab, swarm_chooser(), task_seed)
        for threshold in thresholds:
            serial = min_critical_at_threshold(serial_curve, threshold)
            swarm = min_critical_at_threshold(swarm_curve, threshold)
            rows.append(
                {
                    "task_id": task.task_id,
                    "threshold": threshold,
                    "serial_critical_steps": "" if serial is None else serial,
                    "swarm_critical_steps": "" if swarm is None else swarm,
                    "speedup": (
                        ""
                        if serial is None or swarm is None
                        else round(serial / max(swarm, 1), 6)
                    ),
                }
            )
    return rows


SPEEDUP_FIELDS = (
    "task_id",
    "threshold",
    "serial_critical_steps",
    "swarm_critical_steps",
    "speedup",
)


def _write_speedup_csv(path: Path, rows: list[dict]) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(SPEEDUP_FIELDS))
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


# --- whole runs ----------------------------------------------------------------------


def run_seed(
    config: ExperimentConfig,
    seed: int,
    out_dir: str | Path,
    concurrency: int | None = None,
    params: PolicyParams | None = None,
) -> dict:
    """Train (when configured) and evaluate one seed into its own directory."""
    paths = RunPaths(Path(out_dir))
    paths.root.mkdir(parents=True, exist_ok=True)
    tasks = config.materialize_tasks(seed)
    if "learned" in config.policies and params is None:
        if config.rl.iterations > 0:
            params = train(config, tasks, seed, paths.root)
        else:
            params = init_params(len(config.vocab))
    summary = evaluate(config, tasks, params, seed, paths.root, concurrency)
    rows = speedup_table(tasks, config.speedup_thresholds, seed)
    _write_speedup_csv(paths.speedup, rows)
    ratios = [row["speedup"] for row in rows if row["speedup"] != ""]
    summary["seed"] = seed
    summary["speedup_rows"] = len(rows)
    if ratios:
        summary["mean_speedup"] = float(np.mean(ratios))
    paths.summary.write_text(canonical_dumps(summary) + "\n")
    return summary


def run_experiment(
    config: ExperimentConfig,
    out_dir: str | Path | None = None,
    concurrency: int | None = None,
    params: PolicyParams | None = None,
) -> dict:
    """Full experiment across all configured seeds.

    Returns the run summary (also written to summary.json at the run root).
    """
    root = Path(config.output_dir if out_dir is None else out_dir)
    root.mkdir(parents=True, exist_ok=True)
    (root / "config.json").write_text(canonical_dumps(config.to_dict()) + "\n")
    per_seed = {}
    for seed in config.seeds:
        per_seed[str(seed)] = run_seed(
            config, seed, root / f"seed_{seed}", concurrency, params
        )
    summary: dict = {"seeds": per_seed, "n_seeds": len(config.seeds)}
    speedups = [s["mean_speedup"] for s in per_seed.values() if "mean_speedup" in s]
    if speedups:
        summary["mean_speedup"] = float(np.mean(speedups))
    (root / "summary.json").write_text(canonical_dumps(summary) + "\n")
    return summary


# --- reporting ----------------------------------------------------------------------


def speedup_report(baseline_rows: list[dict], candidate_rows: list[dict]) -> dict:
    """Critical-steps speedup of candidate over baseline on shared tasks.

    Rows are episode metric dicts (as persisted in metrics.csv / trace
    records). Speedup > 1 means the candidate finishes in fewer critical
    steps than the baseline on the same tasks.
    """

    def by_task(rows: list[dict]) -> dict[str, list[float]]:
        grouped: dict[str, list[float]] = {}
        for row in rows:
            grouped.setdefault(str(row["task_id"]), []).append(
                float(row["critical_steps"])
            )
        return grouped

    base = by_task(baseline_rows)
    cand = by_task(candidate_rows)
    shared = sorted(set(base) & set(cand))
    if not shared:
        raise InvalidParameterError("no shared tasks between the two trace sets")
    per_task = {}
    for task_id in shared:
        baseline_mean = float(np.mean(base[task_id]))
        candidate_mean = float(np.mean(cand[task_id]))
        per_task[task_id] = {
            "baseline_critical_steps": baseline_mean,
            "candidate_critical_steps": candidate_mean,
            "speedup": baseline_mean / max(candidate_mean, 1e-9),
        }
    overall = float(np.mean([row["speedup"] for row in per_task.values()]))
    return {"per_task": per_task, "mean_speedup": overall, "tasks": len(shared)}
