"""Self-tests of the benchmark: tracer wiring, self-time arithmetic, result shape.

    python3 -m pytest bench/test_bench.py -q
"""

import io
import json
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def synthetic_table() -> tracing.SpanTable:
    # root [0, 10] on thread 0 has children a [1, 4] (thread 0), b [3, 6]
    # (thread 1, overlapping a) and c [9, 12] (runs past its parent); a has
    # child d [2, 3].
    return tracing.SpanTable(
        span_names=["root", "a", "b", "c", "d"],
        names=[0, 1, 2, 3, 4],
        starts=[0.0, 1.0, 3.0, 9.0, 2.0],
        ends=[10.0, 4.0, 6.0, 12.0, 3.0],
        parents=[-1, 0, 0, 0, 1],
        ops=[1, 1, 1, 1, 1],
        threads=[0, 0, 1, 0, 0],
    )


def test_self_time_subtracts_union_of_overlapping_children():
    # root covered by [1, 6] and [9, 10]: 6 of its 10 seconds.
    assert synthetic_table().self_times() == pytest.approx([4.0, 2.0, 3.0, 3.0, 1.0])


def test_union_length_merges_touching_and_nested_intervals():
    intervals = [(0.0, 2.0), (2.0, 3.0), (0.5, 1.0), (5.0, 9.0)]
    assert tracing.union_length(intervals, 0.0, 6.0) == pytest.approx(4.0)
    assert tracing.union_length([], 0.0, 1.0) == 0.0


def test_count_below_follows_the_parent_chain():
    table = synthetic_table()
    assert table.count_below("root", "d") == 1
    assert table.count_below("b", "d") == 0


def parlab_bindings() -> dict:
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name.split(".")[0] == "parlab"
        for attr, value in vars(module).items()
        if callable(value)
    }


def test_install_rebinds_every_alias_and_uninstall_restores_them():
    tracer = tracing.Tracer()
    originals = {value for _, _, _, value in tracer._targets()}
    before = parlab_bindings()
    aliases = {key for key, value in before.items() if value in originals}
    # Names imported elsewhere by name must be among the rebound ones.
    assert ("parlab.harness.traces", "featurize") in aliases
    assert ("parlab.harness.experiment", "featurize") in aliases
    for module in ("orchestrator", "optimizer", "environment", "harness.experiment"):
        assert (f"parlab.{module}", "derive_seed") in aliases
    tracer.install()
    try:
        during = parlab_bindings()
        assert all(during[key] is not before[key] for key in aliases)
        assert not any(value in originals for value in during.values())
        assert hasattr(sys.modules["parlab.environment"].SwarmEnv.step, "__wrapped__")
    finally:
        tracer.uninstall()
    assert parlab_bindings() == before
    assert not hasattr(sys.modules["parlab.environment"].SwarmEnv.step, "__wrapped__")


def traced_op(workload, k: int):
    """Run op ``k`` traced; return its output, wall seconds and per-layer metrics."""
    tracer = tracing.Tracer()
    tracer.op = 1
    tracer.install()
    try:
        start = time.perf_counter()
        output = workload.run_op(k)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    table = tracer.spans()
    metrics = tracing.layer_metrics(table, tracer.counters(), 1)
    return output, wall, table, metrics


def test_train_counts_match_emitted_tokens(tmp_path):
    workload = workloads.TrainQuickstart()
    workload.setup(workloads.DEFAULT_SEED, tmp_path)
    output, wall, table, metrics = traced_op(workload, 0)
    _, stats = output
    episodes = workloads.QUICKSTART_RL.K * len(workload.runs[0][0])
    tokens = round(stats["mean_tokens"] * episodes)
    assert metrics["orchestrator.featurize.calls"] == tokens
    assert metrics["environment.step.calls"] == tokens
    assert 0 < metrics["optimizer.grad_logprob.calls"] <= tokens
    assert metrics["optimizer.rl_gradient.calls"] == len(workload.runs[0][0])
    assert set(table.threads) == {0}
    assert sum(table.self_times()) <= wall


def test_eval_counts_match_emitted_tokens(tmp_path):
    workload = workloads.EvalLarge()
    workload.setup(workloads.DEFAULT_SEED, tmp_path)
    _, wall, table, metrics = traced_op(workload, 0)
    tokens = sum(
        len(json.loads(line)["tokens"])
        for policy in workload.POLICIES
        for line in workload.paths.traces(policy).read_text().splitlines()
    )
    assert metrics["orchestrator.featurize.calls"] == tokens
    assert metrics["environment.step.calls"] == tokens
    assert metrics["optimizer.rl_gradient.calls"] == 0
    assert metrics["harness.manager.error_traces"] == 0
    # Rollouts on pool threads hang under the rollout_manager span.
    manager = table.span_names.index("harness.manager.rollout_manager")
    rollouts = [
        i for i, n in enumerate(table.names) if table.span_names[n] == "orchestrator.rollout_episode"
    ]
    assert rollouts and all(table.names[table.parents[i]] == manager for i in rollouts)
    assert sum(table.self_times()) <= wall * len(set(table.threads))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_setup_task_generation_is_traced(name, tmp_path):
    workload = workloads.WORKLOADS[name]()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workload.setup(workloads.DEFAULT_SEED, tmp_path)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.spans(), tracer.counters(), 1)
    if name == "train_quickstart":
        tasks = sum(len(tasks) for tasks, _ in workload.runs)
    else:
        tasks = 3 * workload.TASKS_PER_FAMILY
    assert metrics["task_gen.gen.calls"] == tasks
    assert metrics["task_gen.gen.self_ms"] > 0


class ProbeTimesThree:
    """A workload whose op is three runs of the host-speed probe."""

    n_ops = 20

    def run_op(self, k: int):
        return [run.probe() for _ in range(3)]

    def check(self, k: int, output) -> tuple[str, list[str]]:
        return "", []


def test_relative_latency_is_in_probe_times():
    untraced, traced = run.Runner(ProbeTimesThree(), None).run(0.0)
    assert len(untraced) == ProbeTimesThree.n_ops and not traced
    assert statistics.median(t.relative for t in untraced) == pytest.approx(3.0, rel=0.3)


def run_main(argv: list[str]) -> tuple[int, list[str]]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(argv)
    return code, out.getvalue().splitlines()


@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, 7])
@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_reports_every_declared_metric(seed, trace):
    argv = ["--workload", "replay_small", "--seed", str(seed), "--seconds", "0.2"]
    code, lines = run_main(argv + ["--trace", str(trace)])
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: value["unit"] for name, value in result["metrics"].items()
    }
    provenance = json.loads(lines[-2])["provenance"]
    assert provenance["tracing"] == bool(trace) and provenance["numpy"]


def test_fails_without_parlab_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    argv = ["--workload", "train_quickstart", "--seed", "0", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], *argv],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
