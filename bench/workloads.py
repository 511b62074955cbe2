"""The benchmark's four workloads, built only on parlab's public API.

A workload turns the workload seed into a fixed list of inputs in ``setup``
and runs one op per input index in ``run_op``; one pass runs every index in
order. ``check`` turns an op's output into a digest and a list of failures,
outside the timed region. Why each workload exists is in README.md.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from parlab import (
    PARLConfig,
    RLConfig,
    default_vocabulary,
    derive_seed,
    init_params,
    task_gen,
    train_step,
)
from parlab.harness import (
    ExperimentConfig,
    RunPaths,
    canonical_dumps,
    evaluate,
    load_params,
    replay_file,
    speedup_table,
)

BENCH_DIR = Path(__file__).resolve().parent
SNAPSHOT_PATH = BENCH_DIR / "learned_params.json"
PINS_PATH = BENCH_DIR / "pins.json"

DEFAULT_SEED = 0
NPROC = min(2, os.cpu_count() or 1)

# README quickstart: 4 wide tasks (n=12), K=8, lr 1.0, PARL 0.3/0.3/100.
QUICKSTART_RL = RLConfig(K=8, learning_rate=1.0, batch_problems=4, iterations=200)
QUICKSTART_PARL = PARLConfig(lambda1_init=0.3, lambda2_init=0.3, anneal_horizon=100)


# Task generators are called through their module, so that a tracer that
# rebinds parlab's module attributes sees the calls.
def quickstart_tasks(first_seed: int):
    return [task_gen.gen_wide_search(first_seed + i, n_items=12, sources_per_item=1) for i in range(4)]


def sha256_hex(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text())


def load_snapshot():
    """The trained-policy snapshot, checked against its embedded and pinned hash."""
    params = load_params(SNAPSHOT_PATH)
    pinned = load_pins()["snapshot_hash"]
    if params.params_hash() != pinned:
        raise ValueError(f"snapshot hash {params.params_hash()} is not the pinned {pinned}")
    return params


def mixed_tasks(seed: int, per_family: int, units: tuple[int, int], depths: tuple[int, ...]):
    """``per_family`` tasks of each family, interleaved by family.

    Unit counts are evenly spaced over ``units`` and the second size
    parameter cycles, so every seed gets the same size mix and the seed only
    changes task content and episode seeds: run-to-run spread then measures
    the program, not the luck of a size draw. ``depths`` cycles deep-search
    depth; wide sources cycle over (1, 2) and batch file costs over (1, 2, 3).
    """
    lo, hi = units
    tasks = []
    for i in range(per_family):
        n = lo + round((hi - lo) * i / max(1, per_family - 1))
        tasks.append(task_gen.gen_wide_search(derive_seed("bench-wide", seed, i), n, 1 + i % 2))
        tasks.append(task_gen.gen_deep_search(derive_seed("bench-deep", seed, i), depths[i % len(depths)], n))
        tasks.append(task_gen.gen_batch_download(derive_seed("bench-batch", seed, i), n, 1 + i % 3))
    return tasks


SMALL = dict(units=(6, 24), depths=(2, 3, 4))
LARGE = dict(units=(100, 500), depths=(2, 3))


class TrainQuickstart:
    """op = one ``train_step`` iteration of the README quickstart.

    A pass runs ``TRAJECTORIES`` independent trainings for ``ITERATIONS``
    iterations each, all from ``init_params`` at t=0, interleaved by
    iteration. At the default seed, trajectory 0 is the README quickstart.
    """

    name = "train_quickstart"
    TRAJECTORIES = 12
    ITERATIONS = 16

    def setup(self, seed: int, workdir: Path) -> None:
        self.vocab = default_vocabulary()
        train_seeds = [seed * self.TRAJECTORIES + j for j in range(self.TRAJECTORIES)]
        self.runs = [(quickstart_tasks(4 * s), s) for s in train_seeds]
        self.params = [None] * self.TRAJECTORIES

    @property
    def n_ops(self) -> int:
        return self.TRAJECTORIES * self.ITERATIONS

    def run_op(self, k: int):
        t, j = divmod(k, self.TRAJECTORIES)
        tasks, train_seed = self.runs[j]
        params = init_params(len(self.vocab)) if t == 0 else self.params[j]
        self.params[j], stats = train_step(
            params, tasks, self.vocab, QUICKSTART_RL, QUICKSTART_PARL, t, seed=train_seed
        )
        return self.params[j], stats

    def check(self, k: int, output) -> tuple[str, list[str]]:
        params, stats = output
        return sha256_hex(params.params_hash().encode(), canonical_dumps(stats).encode()), []


class EvalLarge:
    """op = ``evaluate`` of one large task with the trained snapshot and the
    scripted swarm, learned episodes spread over ``NPROC`` threads."""

    name = "eval_large"
    TASKS_PER_FAMILY = 30
    EPISODES = 4
    POLICIES = ("learned", "swarm_script")

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.params = load_snapshot()
        self.config = ExperimentConfig(
            policies=self.POLICIES, eval_episodes=self.EPISODES, concurrency_limit=NPROC
        )
        self.tasks = mixed_tasks(seed, self.TASKS_PER_FAMILY, **LARGE)
        self.paths = RunPaths(workdir / "eval")

    @property
    def n_ops(self) -> int:
        return len(self.tasks)

    def run_op(self, k: int):
        return evaluate(self.config, [self.tasks[k]], self.params, self.seed, self.paths.root)

    def output_files(self) -> list[Path]:
        return [f(p) for p in self.POLICIES for f in (self.paths.traces, self.paths.metrics)]

    def check(self, k: int, output) -> tuple[str, list[str]]:
        blobs = [path.read_bytes() for path in self.output_files()]
        failures = [
            f"{path.name}: error trace"
            for path, blob in zip(self.output_files(), blobs)
            if b'"terminal_flag":"error:' in blob
        ]
        return sha256_hex(*blobs), failures


class ReplaySmall:
    """op = ``replay_file`` on one small task's recorded learned and swarm
    traces. Setup records the inputs with the code under test, one thread."""

    name = "replay_small"
    TASKS_PER_FAMILY = 12
    EPISODES = 4
    POLICIES = ("learned", "swarm_script")

    def setup(self, seed: int, workdir: Path) -> None:
        params = load_snapshot()
        self.snapshots = {params.params_hash(): params}
        config = ExperimentConfig(policies=self.POLICIES, eval_episodes=self.EPISODES)
        self.inputs = []
        for task in mixed_tasks(seed, self.TASKS_PER_FAMILY, **SMALL):
            paths = RunPaths(workdir / "replay" / task.task_id)
            evaluate(config, [task], params, seed, paths.root)
            files = [paths.traces(p) for p in self.POLICIES]
            self.inputs.append((files, sha256_hex(*(f.read_bytes() for f in files))))

    @property
    def n_ops(self) -> int:
        return len(self.inputs)

    def run_op(self, k: int):
        files, _ = self.inputs[k]
        return [replay_file(path, snapshots=self.snapshots) for path in files]

    def check(self, k: int, verdicts) -> tuple[str, list[str]]:
        _, input_digest = self.inputs[k]
        return input_digest, [m for verdict in verdicts for m in verdict.mismatches][:3]


class SpeedupSmall:
    """op = ``speedup_table([task])`` at the default thresholds on one small task."""

    name = "speedup_small"
    TASKS_PER_FAMILY = 40

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.thresholds = ExperimentConfig().speedup_thresholds
        self.tasks = mixed_tasks(seed, self.TASKS_PER_FAMILY, **SMALL)

    @property
    def n_ops(self) -> int:
        return len(self.tasks)

    def run_op(self, k: int):
        return speedup_table([self.tasks[k]], self.thresholds, self.seed)

    def check(self, k: int, rows) -> tuple[str, list[str]]:
        return sha256_hex(canonical_dumps(rows).encode()), []


WORKLOADS = {w.name: w for w in (TrainQuickstart, EvalLarge, ReplaySmall, SpeedupSmall)}
