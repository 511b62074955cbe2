"""Shared builders for the test suite."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import settings

from parlab import (
    ActionToken,
    EpisodeTrace,
    PolicyParams,
    RolloutBatch,
    StageRecord,
    StepLimits,
    collect_group,
    gen_wide_search,
    init_params,
)

# Property tests draw the same examples on every run and keep no example
# database, so the suite is reproducible and leaves no .hypothesis/ behind.
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")

SMALL_LIMITS = StepLimits(orchestrator_max_steps=12, subagent_max_steps=50, max_tokens=10)

TINY_VOCAB = (
    ActionToken("FETCH", "tool", arg="fetch"),
    ActionToken("CREATE_WORKER", "create", arg="worker"),
    ActionToken("ASSIGN_2", "assign", group_size=2),
    ActionToken("FINISH", "finish"),
)


def make_stages(spec: list[tuple[int, list[int]]]) -> list[StageRecord]:
    """Build stage records from (main_steps, sub_steps) pairs.

    Assignments are assumed all-finished, which is irrelevant for the
    step-accounting metrics these stages feed.
    """
    return [
        StageRecord(
            stage_index=i,
            main_steps=main,
            sub_steps=tuple(subs),
            assigned=len(subs),
            completed=len(subs),
        )
        for i, (main, subs) in enumerate(spec)
    ]


def random_stages(rng: random.Random, max_stages: int = 8) -> list[StageRecord]:
    """Random well-formed episodes mixing serial, singleton, and wide stages."""
    stages = []
    for i in range(rng.randint(0, max_stages)):
        width = rng.choice([0, 0, 1, 1, 2, 3, 5])
        subs = tuple(rng.randint(1, 9) for _ in range(width))
        completed = rng.randint(0, width)
        stages.append(
            StageRecord(
                stage_index=i,
                main_steps=rng.randint(1, 3),
                sub_steps=subs,
                assigned=width,
                completed=completed,
            )
        )
    return stages


@pytest.fixture
def wide_task():
    return gen_wide_search(42, n_items=4, sources_per_item=1, limits=SMALL_LIMITS)


def sample_batch(
    task, params: PolicyParams, eval_params: PolicyParams | None = None, seed: int = 0
) -> tuple[RolloutBatch, PolicyParams]:
    """A rollout group plus the parameters to evaluate it under.

    When `eval_params` is omitted the batch is on-policy. Rewards are synthetic
    but seed-stable, which is all the objective arithmetic needs.
    """
    traces = collect_group(task, params, TINY_VOCAB, K=4, t=0, seed=seed)
    rng = random.Random(seed)
    rewards = [round(rng.random(), 3) for _ in traces]
    batch = RolloutBatch(task.task_id, traces, rewards)
    return batch, (params if eval_params is None else eval_params)


def perturbed(params: PolicyParams, scale: float, seed: int) -> PolicyParams:
    rng = np.random.default_rng(seed)
    return PolicyParams(params.weights + scale * rng.standard_normal(params.weights.shape))


def zero_params(vocab=TINY_VOCAB) -> PolicyParams:
    return init_params(len(vocab))


def one_trace(task, seed: int = 0) -> EpisodeTrace:
    from parlab import rollout_episode

    return rollout_episode(zero_params(), task, TINY_VOCAB, seed=seed)
