"""Concurrent rollout execution and episode suspend/resume.

Episodes are embarrassingly parallel: each one derives all of its randomness
from its own seed, so running them across a thread pool cannot change any
result, only wall-clock time. Results always come back in submission order.

Suspension captures a running episode as a compact JSON token (task, seed,
emitted token indices). Resuming replays that prefix against a fresh
environment and continues sampling; with the same parameters this reproduces
exactly the episode an uninterrupted run would have produced.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from ..errors import CorruptFileError, InvalidParameterError
from ..orchestrator import (
    ActionToken,
    EpisodeTrace,
    PolicyParams,
    rollout_episode,
)
from ..task_gen import TaskSpec, task_spec_from_dict, task_spec_to_dict
from .traces import read_json

RESUME_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class RolloutJob:
    task: TaskSpec
    seed: int
    max_tokens: int | None = None


def rollout_manager(
    jobs: Sequence[RolloutJob],
    params: PolicyParams,
    vocab: tuple[ActionToken, ...],
    concurrency: int = 1,
) -> list[EpisodeTrace]:
    """Run all jobs, ``concurrency`` at a time, preserving submission order.

    A failing episode becomes an error-flagged partial trace instead of
    taking the whole batch down with it.
    """
    if concurrency < 1:
        raise InvalidParameterError("concurrency must be >= 1")

    def run(job: RolloutJob) -> EpisodeTrace:
        try:
            return rollout_episode(
                params, job.task, vocab, seed=job.seed, max_tokens=job.max_tokens
            )
        except Exception as exc:
            return EpisodeTrace(
                task=job.task,
                episode_seed=job.seed,
                tokens=[],
                stages=[],
                terminal_flag=f"error:{type(exc).__name__}",
                final_answer=None,
                partial=True,
                params_hash=params.params_hash(),
            )

    if concurrency == 1:
        return [run(job) for job in jobs]
    with ThreadPoolExecutor(max_workers=concurrency) as pool:
        return list(pool.map(run, jobs))


@dataclass(frozen=True)
class ResumeToken:
    """Everything needed to continue an episode later, possibly elsewhere."""

    task: TaskSpec
    seed: int
    prefix: tuple[int, ...]
    params_hash: str
    max_tokens: int | None = None

    def to_dict(self) -> dict:
        return {
            "schema_version": RESUME_SCHEMA_VERSION,
            "task": task_spec_to_dict(self.task),
            "seed": self.seed,
            "prefix": list(self.prefix),
            "params_hash": self.params_hash,
            "max_tokens": self.max_tokens,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def resume_token_from_dict(data: dict) -> ResumeToken:
    if data.get("schema_version") != RESUME_SCHEMA_VERSION:
        raise InvalidParameterError(
            f"unsupported resume token schema: {data.get('schema_version')!r}"
        )
    return ResumeToken(
        task=task_spec_from_dict(data["task"]),
        seed=data["seed"],
        prefix=tuple(data["prefix"]),
        params_hash=data["params_hash"],
        max_tokens=data.get("max_tokens"),
    )


def suspend_episode(trace: EpisodeTrace, position: int | None = None) -> ResumeToken:
    """Capture an episode at a token boundary.

    ``position`` is how many emitted tokens to keep and defaults to the whole
    trace so far (the natural choice for an in-flight partial trace).
    """
    if position is None:
        position = trace.length()
    if not 0 <= position <= trace.length():
        raise InvalidParameterError(
            f"position {position} outside [0, {trace.length()}]"
        )
    return ResumeToken(
        task=trace.task,
        seed=trace.episode_seed,
        prefix=tuple(tok.index for tok in trace.tokens[:position]),
        params_hash=trace.params_hash,
    )


def resume_episode(
    token: ResumeToken, params: PolicyParams, vocab: tuple[ActionToken, ...]
) -> EpisodeTrace:
    """Continue a suspended episode to completion.

    The recorded prefix is replayed with log-probs re-derived under ``params``;
    sampling takes over afterwards. If ``params`` still matches the hash in
    the token, the result is identical to the uninterrupted episode. If the
    parameters moved in between, the continuation is still valid (the prefix
    is re-recorded under the new snapshot, not reused) but the trace carries
    the partial-rollout flag so training can treat it accordingly.
    """
    trace = rollout_episode(
        params,
        token.task,
        vocab,
        seed=token.seed,
        max_tokens=token.max_tokens,
        forced_prefix=token.prefix,
    )
    if params.params_hash() != token.params_hash:
        trace.partial_rollout = True
    return trace


def save_resume_token(token: ResumeToken, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(token.to_json() + "\n")


def load_resume_token(path: str | Path) -> ResumeToken:
    path = Path(path)
    data = read_json(path)
    if not isinstance(data, dict):
        raise CorruptFileError(f"{path}: not a JSON object")
    return resume_token_from_dict(data)
